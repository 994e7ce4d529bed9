"""Module surfaces: each `__all__` names only what its module has, and lists
every public function and class the module defines.  A module without
`__all__` exports every public name, so it has nothing to check."""

import importlib
import pkgutil

import pytest

import fluctuator

MODULES = sorted(m.name for m in pkgutil.iter_modules(fluctuator.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_the_public_definitions(name):
    mod = importlib.import_module(f"fluctuator.{name}")
    if not hasattr(mod, "__all__"):
        return
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    public = {
        n for n, obj in vars(mod).items()
        if not n.startswith("_") and callable(obj)
        and getattr(obj, "__module__", None) == mod.__name__
    }
    assert sorted(public - set(mod.__all__)) == []
