"""The public names of corrsets resolve: a name left in an ``__all__`` after
its definition is removed breaks ``from corrsets.<module> import *``. No
module imports a name it never uses, no module takes another's private
names beyond a fixed list, and none uses a numpy name newer than the numpy
floor in pyproject.toml."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
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


# numpy names that pyproject's floor, numpy 1.24, lacks, with the release
# that added them (np.bool was removed in 1.24 and came back in 2.0)
NUMPY_AFTER_FLOOR = {
    "exceptions": "1.25", "dtypes": "1.25",
    "bitwise_count": "2.0", "unique_values": "2.0", "unique_counts": "2.0",
    "unique_inverse": "2.0", "unique_all": "2.0", "astype": "2.0", "concat": "2.0",
    "isdtype": "2.0", "strings": "2.0", "permute_dims": "2.0", "matrix_transpose": "2.0",
    "vecdot": "2.0", "trapezoid": "2.0", "bool": "2.0", "long": "2.0", "ulong": "2.0",
    "pow": "2.0", "acos": "2.0", "acosh": "2.0", "asin": "2.0", "asinh": "2.0",
    "atan": "2.0", "atanh": "2.0", "atan2": "2.0", "bitwise_left_shift": "2.0",
    "bitwise_right_shift": "2.0", "bitwise_invert": "2.0",
    "cumulative_sum": "2.1", "cumulative_prod": "2.1", "unstack": "2.1",
    "matvec": "2.2", "vecmat": "2.2",
}


def numpy_names_after_floor(source: str) -> set[str]:
    """The names of ``NUMPY_AFTER_FLOOR`` that ``source`` imports from numpy
    or reads as an attribute of a name it binds to numpy."""
    tree = ast.parse(source)
    aliases, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "numpy"}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found |= {a.name for a in node.names}
    found |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in aliases}
    return found & set(NUMPY_AFTER_FLOOR)


def test_numpy_names_list_and_scan():
    # each listed name exists from its release on, and the scan finds it
    installed = tuple(map(int, np.__version__.split(".")[:2]))
    for name, release in NUMPY_AFTER_FLOOR.items():
        if installed >= tuple(map(int, release.split("."))):
            assert hasattr(np, name), name
    assert numpy_names_after_floor(
        "import numpy as np\nfrom numpy import concat\nnp.bitwise_count(x).astype(int)\n"
    ) == {"concat", "bitwise_count"}


@pytest.mark.parametrize("name", SOURCES)
def test_no_numpy_names_after_floor(name):
    # CI's numpy-floor job may fail without failing the run, so this is the
    # tier-1 guard against a call that needs a numpy newer than 1.24
    assert numpy_names_after_floor((SRC / name).read_text("utf-8")) == set()


def test_readme_example_runs(tmp_path, monkeypatch, capsys):
    # README's library example, on the tic-tac-toe table as its data.csv
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    write_tic_tac_toe_csv(tmp_path / "data.csv")
    monkeypatch.chdir(tmp_path)
    exec(example, {})
    assert len(capsys.readouterr().out.splitlines()) == 3 + 2  # top-3, two scores
