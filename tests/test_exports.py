"""Every name in the ``__all__`` of the package and of its modules resolves."""

import importlib
import pkgutil

import pytest

import apsieve

MODULES = ["apsieve"] + [f"apsieve.{m.name}" for m in pkgutil.iter_modules(apsieve.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_exported_name(module):
    # a name left in __all__ after its definition is gone raises AttributeError here
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(getattr(importlib.import_module(module), "__all__", ())) <= namespace.keys()
