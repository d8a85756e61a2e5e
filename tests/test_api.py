"""The public API: every exported name resolves, and each spectral operation
has one entry point (a ``SphereGrid`` method, not a method plus a wrapper)."""

import importlib
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
