"""The public names stay consistent: each module's `__all__` lists names the
module defines, and the package re-exports only names its modules list."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sepqn

# every submodule but __main__, which runs the CLI when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(sepqn.__path__)
                 if m.name != "__main__")


def _package_imports():
    """(module, name) for each name sepqn/__init__.py imports from a submodule."""
    tree = ast.parse(Path(sepqn.__file__).read_text())
    return [(node.module, alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_module_declares_its_public_names():
    assert MODULES
    for name in MODULES:
        module = importlib.import_module(f"sepqn.{name}")
        assert isinstance(getattr(module, "__all__", None), list), name


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"sepqn.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"sepqn.{name}.__all__ lists undefined names {missing}"
    assert len(set(module.__all__)) == len(module.__all__), "duplicate entries"


def test_package_reexports_only_listed_names():
    imports = _package_imports()
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(f"sepqn.{module_name}")
        assert name in module.__all__, f"sepqn re-exports {name}, not in {module_name}.__all__"
        assert getattr(sepqn, name) is getattr(module, name)
