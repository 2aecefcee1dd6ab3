import importlib
import pkgutil

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
