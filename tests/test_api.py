"""The public API: every exported name resolves, and each spectral operation
has one entry point (a ``SphereGrid`` method, not a method plus a wrapper)."""

import importlib

import pytest

import gcflab

MODULES = ["body", "constants", "entropy", "flow", "soliton", "sphere"]


@pytest.mark.parametrize("module", ["gcflab"] + [f"gcflab.{m}" for m in MODULES])
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize(
    "name", ["derivative_bundle", "gradient", "covariant_hessian", "eval_direction", "lowpass"]
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
