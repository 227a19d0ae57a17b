"""The public names of corrsets resolve: a name left in an ``__all__`` after
its definition is removed breaks ``from corrsets.<module> import *``."""

import importlib
import pkgutil

import pytest

import corrsets

# __main__ runs the command line when imported
MODULES = ["corrsets"] + sorted(
    info.name for info in pkgutil.iter_modules(corrsets.__path__, "corrsets.")
    if info.name != "corrsets.__main__"
)


def test_every_module_is_listed():
    assert {"corrsets.cli", "corrsets.estimators", "corrsets.synth"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    module = importlib.import_module(name)
    assert set(getattr(module, "__all__", [])) <= set(namespace)
