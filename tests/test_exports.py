"""Tooling guard: a module's ``__all__`` lists only names that exist, and the
package re-exports only names that their module lists in ``__all__``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sdecontrol

MODULES = sorted(m.name for m in pkgutil.iter_modules(sdecontrol.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"sdecontrol.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_only_public_names():
    # A removed or private name cannot stay exported from the package.
    tree = ast.parse(Path(sdecontrol.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    stray = []
    for node in imports:
        assert node.level == 1 and node.module in MODULES, ast.dump(node)
        public = importlib.import_module(f"sdecontrol.{node.module}").__all__
        stray += [f"{node.module}.{a.name}" for a in node.names if a.name not in public]
    assert stray == []
