"""The public names of corrsets resolve: a name left in an ``__all__`` after
its definition is removed breaks ``from corrsets.<module> import *``. No
module imports a name it never uses, and no module takes another's private
names beyond a fixed list."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import corrsets
from corrsets.datasets import write_tic_tac_toe_csv

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


SRC = Path(corrsets.__file__).parent
SOURCES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("name", SOURCES)
def test_no_unused_imports(name):
    tree = ast.parse((SRC / name).read_text("utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a name listed in __all__ is re-exported
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    assert sorted(imported - used) == []


# the private names one module takes from another, as (importer, name):
# each couples the two modules, so the list only shrinks
PRIVATE_IMPORTS = {("data", "_number"), ("synth", "_max_correction_bits")}


def test_no_private_cross_imports():
    found = set()
    for name in SOURCES:
        tree = ast.parse((SRC / name).read_text("utf-8"))
        found |= {(name.removesuffix(".py"), a.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level
                  for a in node.names
                  if a.name.startswith("_") and not a.name.startswith("__")}
    assert found == PRIVATE_IMPORTS


def test_readme_example_runs(tmp_path, monkeypatch, capsys):
    # README's library example, on the tic-tac-toe table as its data.csv
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    write_tic_tac_toe_csv(tmp_path / "data.csv")
    monkeypatch.chdir(tmp_path)
    exec(example, {})
    assert len(capsys.readouterr().out.splitlines()) == 3 + 2  # top-3, two scores
