"""Span tracing of gcflab's public entry points, from outside the package.

`Tracer.install` replaces each traced function (or method) by a wrapper that
records a span: the name, start and end times and the span that was open when
it was called.  Spans live in flat in-memory arrays, so a run with a million
spans costs about 24 MB; `Tracer.summary` turns them into per-name counts,
inclusive times and self times once the traced pass has ended.

`flow` and `soliton` bind `entropy_point`, `normalize_volume` and friends with
`from ... import`, so a function is patched under every name that any loaded
`gcflab.*` module (and the package itself) binds it to.  Methods of
`SphereGrid` and the `ConvexBody` constructor are patched on the class, which
covers every caller.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# span name -> (module holding the original, attribute name).  The module is
# where the function is defined; `install` finds the other bindings itself.
FUNCTIONS = {
    "body.normalize_volume": ("gcflab.body", "normalize_volume"),
    "body.geometry_summary": ("gcflab.body", "geometry_summary"),
    "flow.run": ("gcflab.flow", "run"),
    "flow.step": ("gcflab.flow", "step"),
    "flow.stable_dt": ("gcflab.flow", "stable_dt"),
    "entropy.entropy_point": ("gcflab.entropy", "entropy_point"),
    "entropy.santalo_point": ("gcflab.entropy", "santalo_point"),
    "entropy.entropy_report": ("gcflab.entropy", "entropy_report"),
    "entropy.mc_log_integral": ("gcflab.entropy", "mc_log_integral"),
    "entropy.mc_polar_mass_center": ("gcflab.entropy", "mc_polar_mass_center"),
    "soliton.solve_soliton": ("gcflab.soliton", "solve_soliton"),
}

# span name -> (class, method name)
METHODS = {
    "sphere.derivative_bundle": ("SphereGrid", "derivative_bundle"),
    "sphere.analyze": ("SphereGrid", "analyze"),
    "sphere.synthesize": ("SphereGrid", "synthesize"),
    "sphere.lowpass": ("SphereGrid", "lowpass"),
    "sphere.eval": ("SphereGrid", "eval"),
    "body.ConvexBody": ("ConvexBody", "__init__"),
}


def _eval_points(args, kwargs):
    directions = kwargs["directions"] if "directions" in kwargs else args[2]
    shape = np.shape(directions)
    return 1 if len(shape) == 1 else shape[0]


# span name -> function of the call's (args, kwargs) giving its work count
WORK = {"sphere.eval": _eval_points}


class Tracer:
    """Records spans of the traced entry points while installed."""

    def __init__(self):
        self.names = list(FUNCTIONS) + list(METHODS)
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.errors = {}  # (span name, exception class name) -> count
        self.work = dict.fromkeys(WORK, 0)
        self._open = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        name_id = self._name_ids[name]
        work = WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self._open[-1] if self._open else -1)
            self.span_end.append(0.0)
            self._open.append(index)
            if work is not None:
                self.work[name] += work(args, kwargs)
            self.span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                key = (name, type(exc).__name__)
                self.errors[key] = self.errors.get(key, 0) + 1
                raise
            finally:
                self.span_end[index] = clock()
                self._open.pop()

        return traced

    def install(self):
        """Patch every traced entry point; `uninstall` restores them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        gcflab_modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "gcflab" or key.startswith("gcflab."))
        ]
        for name, (module_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for mod in gcflab_modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, binding, original))
                        setattr(mod, binding, wrapper)
        for name, (class_name, attr) in METHODS.items():
            owner = getattr(sys.modules["gcflab"], class_name)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; summed over all spans it equals the time spent inside
        top-level spans.
        """
        n_names = len(self.names)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=duration[nested], minlength=duration.size
        )
        self_time = duration - child_time
        calls = np.bincount(name, minlength=n_names)
        inclusive = np.bincount(name, weights=duration, minlength=n_names)
        own = np.bincount(name, weights=self_time, minlength=n_names)
        return {
            span: {
                "calls": int(calls[i]),
                "inclusive_s": float(inclusive[i]),
                "self_s": float(own[i]),
            }
            for i, span in enumerate(self.names)
        }
