"""Tooling guard: a module's ``__all__`` lists only names that exist."""

import importlib
import pkgutil

import pytest

import sdecontrol

MODULES = sorted(m.name for m in pkgutil.iter_modules(sdecontrol.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"sdecontrol.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
