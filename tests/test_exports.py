import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import glmsub

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(glmsub.__path__))


@pytest.mark.parametrize("name", ["glmsub"] + [f"glmsub.{m}" for m in SUBMODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from glmsub import *", namespace)
    assert set(glmsub.__all__) <= set(namespace)


def test_package_republishes_each_module_list():
    # Each public name is declared once, in the __all__ of its module.
    lists = [
        name
        for module in SUBMODULES
        if module != "cli"
        for name in getattr(importlib.import_module(f"glmsub.{module}"), "__all__", ())
    ]
    assert len(set(lists)) == len(lists), "two modules publish one name"
    assert sorted(glmsub.__all__) == sorted(["__version__", *lists])


def _defined_names(path):
    """The names bound at the top level of a module's source, other than by
    an import: a name's ``__module__`` does not do, as a ``typing.Union``
    alias reports ``typing``."""
    names = set()
    for node in ast.parse(Path(path).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_module_exports_only_its_own_names(module):
    module = importlib.import_module(f"glmsub.{module}")
    defined = _defined_names(module.__file__)
    foreign = [name for name in getattr(module, "__all__", ()) if name not in defined]
    assert not foreign, f"{module.__name__}.__all__ names what it does not define: {foreign}"
