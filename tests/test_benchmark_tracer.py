"""The benchmark's tracer wraps corrsets functions by name from outside the
program, and reports a name it cannot find as absent rather than failing.
These checks turn such a silent gap into a test failure."""

import importlib
import importlib.util
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from corrsets.estimators import RowPartition, refine_partition
from helpers import ROOT


def load_tracer():
    """benchmarks/tracer.py as a module, loaded without a bytecode cache
    so that no file appears under benchmarks/."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracer", ROOT / "benchmarks" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("group, module_name, attr, hook", tracer.TARGETS,
                         ids=[f"{t[1]}.{t[2]}" for t in tracer.TARGETS])
def test_target_resolves(group, module_name, attr, hook):
    owner = importlib.import_module(module_name)
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
        assert isinstance(owner, type)
        assert name in owner.__dict__
    assert callable(getattr(owner, name))


def test_refine_counts_reads_a_real_call():
    n = 40
    parent = refine_partition(RowPartition.trivial(n), SimpleNamespace(
        codes=np.arange(n) % 2, domain_size=2))
    attr = SimpleNamespace(codes=np.arange(n) % 5, domain_size=5)
    result = refine_partition(parent, attr)
    counters = {name: 0 for name in tracer.COUNTERS}
    tracer._refine_counts(counters, (parent, attr), {}, result)
    assert counters["estimators.refine.rows"] == n
    assert counters["estimators.refine.cells_out"] == result.cell_count == 10
