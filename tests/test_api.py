"""The public API: every exported name resolves and is listed by its home
module, and each operation has one entry point (a ``SphereGrid`` method, not
a method plus a wrapper; a function, not a function plus a forwarder)."""

import dataclasses
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gcflab

MODULES = ["body", "constants", "entropy", "flow", "soliton", "sphere"]


@pytest.mark.parametrize("module", ["gcflab"] + [f"gcflab.{m}" for m in MODULES])
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize(
    "name",
    ["derivative_bundle", "gradient", "covariant_hessian", "eval_direction", "lowpass", "gradient_norm"],
)
def test_spectral_operations_have_one_entry_point(name):
    sphere = importlib.import_module("gcflab.sphere")
    assert not hasattr(sphere, name)
    assert name not in sphere.__all__
    assert name not in gcflab.__all__ and not hasattr(gcflab, name)
    if name in ("derivative_bundle", "lowpass"):
        assert callable(getattr(gcflab.SphereGrid, name))


def test_second_entries_are_gone():
    # each of these operations keeps one public name: the one asserted last
    entropy = importlib.import_module("gcflab.entropy")
    for name in ("entropy", "entropy_mass_center_residual"):
        assert not hasattr(entropy, name) and name not in gcflab.__all__
    assert "soliton_residual" not in importlib.import_module("gcflab.soliton").__all__
    assert gcflab.soliton_residual is importlib.import_module("gcflab.flow").soliton_residual
    assert "diameter" not in {f.name for f in dataclasses.fields(gcflab.GeometrySummary)}
    assert "drift_constant" not in {f.name for f in dataclasses.fields(gcflab.MonitorReport)}
    assert list(inspect.signature(gcflab.stable_dt).parameters) == ["body"]


def test_retired_names_are_gone():
    # a forwarder to a kind hook, a helper only the package read, the nodal
    # degree-1 reader (the degree-1 part is index 1 of the degree axis), the
    # circumradius solver, fields and a method nothing in the package read,
    # and the step's own rejection error (a stage raises BodyValidityError)
    body, sphere = (importlib.import_module(f"gcflab.{m}") for m in ("body", "sphere"))
    for mod, name in ((body, "harmonic_field"), (body, "spectral_tail"), (sphere, "degree_one"),
                      (body, "circumradius")):
        assert not hasattr(mod, name) and name not in mod.__all__
        assert not hasattr(gcflab, name) and name not in gcflab.__all__
    for name in ("mean_curvature", "position_norm"):
        assert not hasattr(body.CurvatureData, name)
    assert not hasattr(body.ConvexBody, "translate")
    fields = {f.name for f in dataclasses.fields(gcflab.GeometrySummary)}
    assert not {"rho_plus", "circumcenter"} & fields
    assert list(inspect.signature(gcflab.SphereGrid.degree_mask).parameters) == ["self", "frac"]
    assert not hasattr(importlib.import_module("gcflab.errors"), "StepRejected")


def test_traced_names_resolve():
    # perfbench's tracer patches each of these by name, and a missing one
    # fails every traced run: a function must resolve on its home module, a
    # method must be defined on its class itself
    spec = importlib.util.spec_from_file_location(
        "tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr in tracing.FUNCTIONS.values()
               if not hasattr(importlib.import_module(module), attr)]
    missing += [f"{owner}.{attr}" for owner, attr in tracing.METHODS.values()
                if attr not in vars(getattr(gcflab, owner))]
    assert not missing, f"traced names that no longer resolve: {missing}"


def test_package_names_are_listed_in_their_home_module():
    # a function's or class's home is its __module__; a constant's is the
    # module that binds it
    unlisted = []
    for module in MODULES:
        mod = importlib.import_module(f"gcflab.{module}")
        for name in gcflab.__all__:
            obj = getattr(mod, name, None)
            defined = inspect.isfunction(obj) or inspect.isclass(obj)
            home = obj.__module__ if defined else mod.__name__
            if obj is getattr(gcflab, name) and home == mod.__name__ and name not in mod.__all__:
                unlisted.append(f"{mod.__name__}.{name}")
    assert not unlisted, f"exported by gcflab, missing from the home __all__: {unlisted}"


def test_entropy_submodule_is_not_shadowed():
    import gcflab.entropy as E
    assert E is importlib.import_module("gcflab.entropy") and callable(E.entropy_point)
    assert "entropy" not in gcflab.__all__ and gcflab.entropy is E


def test_runtime_imports_only_runtime_dependencies():
    # scipy and hypothesis are test-only extras; the CLI must import without them
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = "import sys, gcflab.cli; print(sorted({'scipy', 'hypothesis'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
