"""Per-layer timing of corrsets from outside the program.

Only traced runs import this module. ``Tracer.install`` replaces each
target function with a timing wrapper in every ``corrsets`` module
namespace that holds it (``search.refine_partition`` and
``estimators.refine_partition`` are the same function under two names),
and on the class for methods. Each call records a span (group, start,
end, parent) in flat arrays; self times are computed once, at the end.
A target the program no longer has, or a counter it can no longer feed,
is reported as absent, not an error.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from time import perf_counter

import numpy as np

OP = "op"  # the benchmark's own span around one operation


def _refine_counts(counters, args, kwargs, result):
    counters["estimators.refine.rows"] += len(args[0].cell_of_row)
    counters["estimators.refine.cells_out"] += result.cell_count


def _search_counts(counters, args, kwargs, result):
    stats = result[1]
    counters["search.nodes_explored"] += stats.nodes_explored
    counters["search.nodes_pruned"] += stats.nodes_pruned


def _json_bytes(counters, args, kwargs, result):
    path = getattr(args[0], "json", None)
    if path:
        counters["cli.json_bytes"] += os.path.getsize(path)


# (span group, module, attribute or Class.method, counter hook)
TARGETS = (
    ("data.parse_csv", "corrsets.data", "parse_csv", None),
    ("data.encode", "corrsets.data", "encode", None),
    ("data.discretize", "corrsets.data", "discretize_equal_frequency", None),
    ("estimators.refine", "corrsets.estimators", "refine_partition", _refine_counts),
    ("estimators.entropy", "corrsets.estimators", "entropy", None),
    ("estimators.correction", "corrsets.estimators", "correction_relaxed_bits", None),
    ("estimators.correction", "corrsets.estimators", "expected_mi_permutation", None),
    ("estimators.assemble", "corrsets.estimators", "assemble_score", None),
    ("estimators.score_subset", "corrsets.estimators", "score_subset", None),
    ("search", "corrsets.search", "branch_and_bound", _search_counts),
    ("search", "corrsets.search", "greedy", _search_counts),
    ("search", "corrsets.search", "exhaustive_topk", None),
    ("synth.sample_joint", "corrsets.synth", "sample_joint_in_band", None),
    ("synth.spec_build", "corrsets.synth", "SyntheticSpec.build", None),
    ("synth.sample_dataset", "corrsets.synth", "SyntheticSpec.sample_dataset", None),
    ("synth.run_regret", "corrsets.synth", "run_regret", None),
    ("cli.main", "corrsets.cli", "main", None),
    ("cli.discover", "corrsets.cli", "cmd_discover", _json_bytes),
)

# per-layer metric -> span group whose self time it reports (per operation)
SELF_TIME_METRICS = {
    "estimators.refine.s": "estimators.refine",
    "estimators.entropy.s": "estimators.entropy",
    "estimators.correction.s": "estimators.correction",
    "estimators.assemble.s": "estimators.assemble",
    "estimators.score_subset.s": "estimators.score_subset",
    "search.self_s": "search",
    "synth.sample_joint.s": "synth.sample_joint",
    "synth.spec_build.s": "synth.spec_build",
    "synth.sample_dataset.s": "synth.sample_dataset",
    "synth.run_regret.self_s": "synth.run_regret",
    "data.parse_csv.s": "data.parse_csv",
    "data.encode.s": "data.encode",
    "data.discretize.s": "data.discretize",
    "cli.discover.self_s": "cli.discover",
}
# per-layer metric -> span group whose call count it reports
CALL_METRICS = {
    "estimators.refine.calls": "estimators.refine",
    "estimators.score_subset.calls": "estimators.score_subset",
    "data.discretize.calls": "data.discretize",
}
COUNTERS = ("estimators.refine.rows", "estimators.refine.cells_out",
            "search.nodes_explored", "search.nodes_pruned", "cli.json_bytes")


class Tracer:
    def __init__(self):
        self.groups = [OP] + sorted({t[0] for t in TARGETS})
        self.absent: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.gid = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {name: 0 for name in COUNTERS}

    def _wrap(self, fn, group: str, hook):
        gid = self.groups.index(group)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # the arrays are looked up on each call: reset() replaces them
            idx = len(tracer.start)
            tracer.gid.append(gid)
            tracer.parent.append(tracer.stack[-1])
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.stack.pop()
            if hook is not None:
                try:
                    hook(tracer.counters, args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    # the program changed shape: the counter reads short
                    if f"counter of {group}" not in tracer.absent:
                        tracer.absent.append(f"counter of {group}")
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; record the ones the program does not have."""
        for module_name in {t[1] for t in TARGETS}:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass  # its targets are reported absent below
        modules = [m for name, m in list(sys.modules.items())
                   if name == "corrsets" or name.startswith("corrsets.")]
        for group, module_name, attr, hook in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if isinstance(owner, type):
                raw = owner.__dict__.get(method)  # the classmethod object itself
            else:
                raw = getattr(owner, method, None)
            if raw is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    setattr(owner, method, classmethod(self._wrap(raw.__func__, group, hook)))
                else:
                    setattr(owner, method, self._wrap(raw, group, hook))
                continue
            traced = self._wrap(raw, group, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, name, traced)

    def span(self, fn, *args):
        """Call fn(*args) inside an ``op`` span."""
        return self._wrap(fn, OP, None)(*args)

    def metrics(self) -> dict:
        """Per-operation self times, call counts and counters."""
        gid = np.asarray(self.gid, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        groups = len(self.groups)
        by_group = np.bincount(gid, weights=self_time, minlength=groups)
        calls = np.bincount(gid, minlength=groups)
        ops = max(int(calls[0]), 1)
        op_time = float(dur[gid == 0].sum())
        out = {}
        for metric, group in SELF_TIME_METRICS.items():
            out[metric] = (float(by_group[self.groups.index(group)]) / ops, "s")
        for metric, group in CALL_METRICS.items():
            out[metric] = (float(calls[self.groups.index(group)]) / ops, "count")
        units = {"rows": "rows", "cells_out": "cells", "json_bytes": "bytes"}
        for name, value in self.counters.items():
            out[name] = (value / ops, units.get(name.rpartition(".")[2], "count"))
        nodes = self.counters["search.nodes_explored"]
        refines = calls[self.groups.index("estimators.refine")]
        out["search.refines_per_node"] = (float(refines) / nodes if nodes else 0.0, "ratio")
        program_self = float(by_group[1:].sum())
        out["trace.self_sum_share"] = (program_self / op_time if op_time else 0.0, "ratio")
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path, groups=np.array(self.groups), group=np.asarray(self.gid),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end), absent=np.array(self.absent, dtype=str),
        )
