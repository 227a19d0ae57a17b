"""Synthetic-distribution harness for estimator evaluation.

Two experiments are supported. The regret protocol samples joint
categorical distributions whose exact normalized total correlation lands
in a target band, appends independent uniform variables, draws finite
datasets, and measures how far each estimator's empirical maximizer falls
short of the true population optimum. The chance demonstration draws
fully independent data and tracks the plug-in total-correlation estimate
against the corrected one along a chain of growing cardinality, where any
apparent correlation is pure estimation noise.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import EncodedDataset
from .estimators import (
    ORACLE_MAX_MEMBERS,
    RowPartition,
    _max_correction_bits,
    correction_relaxed_bits,
    entropy,
    refine_partition,
)

__all__ = [
    "BandSamplingError",
    "JointTable",
    "SyntheticSpec",
    "RegretCurve",
    "ChanceRecord",
    "population_w",
    "sample_joint_in_band",
    "check_regret_size",
    "score_samples",
    "run_regret",
    "chance_demo",
    "write_curves_tsv",
]

REGRET_ESTIMATORS = ("plugin", "relaxed", "upper", "exact", "population")
N_INDEPENDENT = 3  # independent variables appended to each dependent table
DOMAIN = 3  # domain size of every variable of a regret table
REGRET_MAX_VARS = 12  # the regret argmax scores all 2^vars subsets

# Cells in the count tensor of one batch of regret samples (8 MiB as int64),
# so memory is flat in the trial count. A batch holds at least one sample;
# 3^12 cells, the largest REGRET_MAX_VARS table at DOMAIN, fit.
_BATCH_CELLS = 1 << 20

_REJECTION_BATCH = 512
MAX_ATTEMPTS = 500_000  # rejection-sampling draws per band before giving up


class BandSamplingError(RuntimeError):
    """Rejection sampling failed to hit the requested correlation band."""


@dataclass(frozen=True, eq=False)
class JointTable:
    """Exact joint probability table over categorical variables."""

    dims: tuple[int, ...]
    probs: np.ndarray  # flat, C-order over dims

    def __post_init__(self):
        if np.shape(self.probs) != (math.prod(self.dims),):
            raise ValueError(f"probs has shape {np.shape(self.probs)}, not "
                             f"({math.prod(self.dims)},) for dims {self.dims}")
        if not (self.probs >= 0).all():
            raise ValueError("probabilities must be nonnegative numbers, not NaN")
        if abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")

    @property
    def num_vars(self) -> int:
        return len(self.dims)


def _exact_w(probs: np.ndarray, dims: tuple[int, ...], subsets) -> np.ndarray:
    """Exact w of each subset (distinct axes) of each flat joint table in
    ``probs``, as a (tables, subsets) array, computing each marginal entropy
    once. A zero normalizer, as for every singleton, gives 0."""
    m = len(dims)
    subsets = [tuple(sorted(s)) for s in subsets]
    for s in subsets:
        if not s or len(set(s)) < len(s) or s[0] < 0 or s[-1] >= m:
            raise ValueError(f"subset {s} must be nonempty, distinct axes in [0, {m})")
    batch = np.asarray(probs).reshape((-1,) + dims)
    h = {}

    def ent(axes):
        if axes not in h:
            p = batch.sum(axis=tuple(b + 1 for b in range(m) if b not in axes))
            p = p.reshape(len(batch), -1)
            q = np.where(p > 0, p, 1.0)
            bits = -(q * np.log2(q)).sum(axis=1)
            # one positive cell is certain: 0 bits, even if it sums to below 1
            h[axes] = np.where(np.count_nonzero(p, axis=1) > 1, bits, 0.0)
        return h[axes]

    singles = np.stack([ent((a,)) for a in range(m)], axis=1)
    w = np.empty((len(batch), len(subsets)))
    with np.errstate(invalid="ignore", divide="ignore"):
        for j, s in enumerate(subsets):
            members = singles[:, s]
            h_sum = members.sum(axis=1)
            norm = h_sum - members.max(axis=1)
            w[:, j] = np.where(norm > 0, (h_sum - ent(s)) / norm, 0.0)
    return np.clip(w, 0.0, 1.0)


def population_w(joint: JointTable, subset) -> float:
    """Exact normalized total correlation of a variable subset.

    Zero whenever the normalizer vanishes, which covers all singletons.
    """
    return float(_exact_w(joint.probs, joint.dims, [subset])[0, 0])


def sample_joint_in_band(
    d: int,
    band: tuple[float, float],
    rng_seed=0,
    max_attempts: int = MAX_ATTEMPTS,
) -> JointTable:
    """Rejection-sample a joint table whose exact w lies in [a, b).

    Tables are drawn uniformly from the probability simplex (symmetric
    Dirichlet, unit concentration). An upper limit of 1 is treated
    inclusively so the full band always accepts. Deterministic per seed.
    """
    a, b = band
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("band must satisfy 0 <= a < b <= 1")
    d = operator.index(d)  # a float d fails deep in the table's shape
    if d < 2:
        raise ValueError("need at least 2 dependent variables")
    max_attempts = operator.index(max_attempts)  # a float fails deep in rng.dirichlet
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    rng = np.random.default_rng(rng_seed)
    dims = (DOMAIN,) * d
    achieved = []
    attempts = 0
    while attempts < max_attempts:
        size = min(_REJECTION_BATCH, max_attempts - attempts)
        tables = rng.dirichlet(np.ones(DOMAIN**d), size=size)
        ws = _exact_w(tables, dims, [range(d)])[:, 0]
        hits = np.flatnonzero((a <= ws) & ((ws < b) | (b >= 1.0)))
        if hits.size:
            return JointTable(dims=dims, probs=tables[hits[0]].copy())
        achieved.append(ws)
        attempts += size
    hist, _ = np.histogram(np.concatenate(achieved), bins=10, range=(0.0, 1.0))
    raise BandSamplingError(
        f"no table with w in [{a}, {b}) after {attempts} draws; "
        f"achieved-w histogram over [0,1) deciles: {hist.tolist()}"
    )


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    """A dependent joint table augmented with independent uniform variables,
    together with the exact w of every nonempty subset of all variables."""

    dependent: JointTable
    full_table: JointTable
    population: dict[tuple[int, ...], float]

    @classmethod
    def build(cls, dependent: JointTable) -> "SyntheticSpec":
        extra = DOMAIN**N_INDEPENDENT
        probs = np.kron(dependent.probs, np.full(extra, 1.0 / extra))
        full = JointTable(dims=dependent.dims + (DOMAIN,) * N_INDEPENDENT, probs=probs)
        m = full.num_vars
        subsets = [s for k in range(1, m + 1) for s in itertools.combinations(range(m), k)]
        population = dict(zip(subsets, _exact_w(probs, full.dims, subsets)[0].tolist()))
        return cls(dependent=dependent, full_table=full, population=population)

    @property
    def num_vars(self) -> int:
        return self.full_table.num_vars

    @property
    def true_max_w(self) -> float:
        return max(self.population.values())

    @cached_property
    def _cdf(self) -> np.ndarray:
        cdf = self.full_table.probs.cumsum()
        return cdf / cdf[-1]

    def sample_cells(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n i.i.d. rows from the full joint table, as flat cell indices:
        the draws of ``rng.choice(cells, n, p=probs)``, from a cumulative
        table built once per spec."""
        return self._cdf.searchsorted(rng.random(n), side="right")

    def dataset_of(self, cells: np.ndarray) -> EncodedDataset:
        """The dataset whose rows are the given flat cell indices."""
        columns = np.unravel_index(cells, self.full_table.dims)
        names = [f"V{i + 1}" for i in range(self.num_vars)]
        return EncodedDataset.from_codes(names, columns, len(cells))

    def sample_dataset(self, n: int, rng: np.random.Generator) -> EncodedDataset:
        """Draw n i.i.d. rows from the full joint table."""
        return self.dataset_of(self.sample_cells(n, rng))


@dataclass(frozen=True)
class RegretCurve:
    """Mean population-score regret of one estimator across sample sizes."""

    estimator: str
    n_values: tuple[int, ...]
    mean_regret: tuple[float, ...]
    stderr: tuple[float, ...]
    trials: int


def score_samples(spec: SyntheticSpec, cells, estimators):
    """Score every subset of two or more variables on each sample.

    ``cells`` holds one array of flat cell indices per sample, as from
    :meth:`SyntheticSpec.sample_cells`. Returns the subsets in (size,
    lexicographic) order and, per estimator, a (samples, subsets) array of
    values, bit-identical to :func:`~corrsets.estimators.score_subset` on
    each sample's dataset. Entropies come from one count tensor. ``upper``
    and ``exact`` read every subset's correction from one prefix-set
    program per sample.
    """
    dims = spec.full_table.dims
    m, rows = len(dims), len(cells)
    subsets = [s for s in spec.population if len(s) >= 2]
    values = {}
    if set(estimators) - {"population"}:
        n = np.array([len(c) for c in cells])
        # samples run along the last axis, so every marginal sum adds long
        # contiguous runs
        flat = np.concatenate([c * rows + r for r, c in enumerate(cells)])
        counts = np.bincount(flat, minlength=spec.full_table.probs.size * rows)
        h, d = {}, {}

        def visit(table, axes, dropped):
            h[axes] = entropy(table.reshape(-1, rows).T, n)
            if len(axes) == 1:
                d[axes[0]] = np.count_nonzero(table, axis=0)
                return
            for pos, axis in enumerate(axes):
                if axis > dropped:  # so each subset is summed exactly once
                    visit(table.sum(axis=pos), axes[:pos] + axes[pos + 1:], axis)

        visit(counts.reshape(dims + (rows,)), tuple(range(m)), -1)
        # per (sample, subset): member entropies in decreasing order, index
        # tiebreak, then -1 for non-members, which add 0.0 at the end of the
        # left-to-right sum the incremental scorer makes
        member = np.array([[a in s for a in range(m)] for s in subsets])
        hs = np.where(member, np.stack([h[(a,)] for a in range(m)], 1)[:, None], -1.0)
        hs = np.take_along_axis(hs, np.argsort(-hs, axis=2, kind="stable"), axis=2)
        entropy_sum = np.cumsum(np.maximum(hs, 0.0), axis=2)[..., -1]
        total = entropy_sum - np.stack([h[s] for s in subsets], axis=1)
        norm = entropy_sum - hs[..., 0]
        # one relaxed correction per distinct (sorted domain sizes, n)
        sizes = np.where(member, np.stack([d[a] for a in range(m)], 1)[:, None], 0)
        sizes = np.sort(sizes, axis=2).reshape(-1, m)
        keys = np.ravel_multi_index(
            (np.repeat(n, len(subsets)),) + tuple(sizes.T),
            (int(n.max()) + 1,) + (int(sizes.max()) + 1,) * m,
        )
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        bits = {"plugin": 0.0, "relaxed": np.array([
            correction_relaxed_bits(sizes[i][sizes[i] > 0].tolist(), int(n[i // len(subsets)]))
            for i in first
        ])[inverse].reshape(rows, len(subsets))}
        oracles = [est for est in ("upper", "exact") if est in estimators]
        datasets = [spec.dataset_of(c) for c in cells] if oracles else []
        for est in oracles:
            # a zero normalizer takes no correction, as in score_subset
            bits[est] = np.array([
                [best(frozenset(s)) if w > 0.0 else 0.0 for s, w in zip(subsets, row)]
                for best, row in zip((_max_correction_bits(ds, est) for ds in datasets), norm)
            ])
        with np.errstate(divide="ignore", invalid="ignore"):
            plugin = np.minimum(np.maximum(total / norm, 0.0), 1.0)
            for est in bits.keys() & set(estimators):
                values[est] = np.where(norm > 0.0, plugin - bits[est] / norm, 0.0)
    if "population" in estimators:
        pop = np.array([spec.population[s] for s in subsets])
        values["population"] = np.broadcast_to(pop, (rows, len(subsets)))
    return subsets, {est: values[est] for est in estimators}


def check_regret_size(num_vars: int, estimators) -> None:
    """Refuse a regret run over more variables than it can score; the
    oracle corrections hold a partition per prefix set, so they allow fewer."""
    limit = ORACLE_MAX_MEMBERS if {"upper", "exact"} & set(estimators) else REGRET_MAX_VARS
    if num_vars > limit:
        raise ValueError(f"estimators {', '.join(estimators)} score at most "
                         f"{limit} variables, not {num_vars}")


def run_regret(
    spec: SyntheticSpec,
    estimators,
    n_grid,
    trials: int = 500,
    seed: int = 0,
) -> dict[str, RegretCurve]:
    """Average regret of each estimator over repeated finite samples.

    Every (sample size, trial) pair derives its own seed, so results do not
    depend on evaluation order. ``population`` is a debug estimator that
    scores subsets by their exact population w and has regret 0.
    """
    estimators = list(estimators)
    for est in estimators:
        if est not in REGRET_ESTIMATORS:
            raise ValueError(f"unknown estimator {est!r}")
    check_regret_size(spec.num_vars, estimators)
    trials = operator.index(trials)  # a float fails deep in np.zeros
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_grid = [operator.index(n) for n in n_grid]  # int() would truncate 10.7
    if any(n < 2 for n in n_grid):
        raise ValueError("sample sizes in n_grid must be >= 2")
    true_max = spec.true_max_w
    samples = {est: np.zeros((len(n_grid), trials)) for est in estimators}
    pairs = [(ni, j) for ni in range(len(n_grid)) for j in range(trials)]
    batch = max(1, _BATCH_CELLS // spec.full_table.probs.size)
    # in the subset order of score_samples
    population = np.array([w for s, w in spec.population.items() if len(s) >= 2])
    for start in range(0, len(pairs), batch):
        cells = [
            spec.sample_cells(n_grid[ni], np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(ni, j))))
            for ni, j in pairs[start:start + batch]
        ]
        _, values = score_samples(spec, cells, estimators)
        for est in estimators:
            # argmax takes the first maximum: ties go to the smallest, then
            # the lexicographically smallest subset
            regret = true_max - population[values[est].argmax(axis=1)]
            samples[est].flat[start:start + len(cells)] = regret
    curves = {}
    for est, mat in samples.items():
        err = (mat.std(axis=1, ddof=1) / math.sqrt(trials) if trials > 1
               else np.zeros(len(n_grid)))
        curves[est] = RegretCurve(est, tuple(n_grid), tuple(mat.mean(axis=1).tolist()),
                                  tuple(err.tolist()), trials)
    return curves


@dataclass(frozen=True)
class ChanceRecord:
    cardinality: int
    plugin_bits: float
    corrected_bits: float


def chance_demo(
    d: int = 10, domain: int = 4, n: int = 1000, seed: int = 0
) -> list[ChanceRecord]:
    """Plug-in vs corrected total correlation on independent uniform data.

    Along the chain of the first c variables (c = 2..d) the plug-in
    estimate keeps growing with cardinality although the population value
    is 0 everywhere; subtracting the relaxed correction keeps the estimate
    near or below zero.
    """
    d, domain, n = map(operator.index, (d, domain, n))  # rng.integers truncates 2.5
    if d < 2 or domain < 1 or n < 2:
        raise ValueError(f"need d >= 2, domain >= 1 and n >= 2, not {d}, {domain}, {n}")
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, domain, size=(n, d))
    dataset = EncodedDataset.from_codes(
        [f"U{i + 1}" for i in range(d)], [codes[:, i] for i in range(d)], n
    )
    part, entropy_sum = RowPartition.trivial(n), 0.0
    records = []
    for i, attr in enumerate(dataset.attributes):
        part = refine_partition(part, attr)
        entropy_sum += attr.entropy
        if i:
            plugin_bits = entropy_sum - entropy(part.cell_counts, n)
            sizes = [a.domain_size for a in dataset.attributes[:i + 1]]
            # corrected even at a zero normalizer, where extend_parts takes none
            records.append(ChanceRecord(
                i + 1, plugin_bits, plugin_bits - correction_relaxed_bits(sizes, n)))
    return records


def write_curves_tsv(curves: dict[str, RegretCurve], out_dir) -> list[str]:
    """One TSV per estimator: estimator, n, mean_regret, stderr."""
    paths = []
    for est in sorted(curves):
        curve = curves[est]
        path = os.path.join(str(out_dir), f"regret_{est}.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("estimator\tn\tmean_regret\tstderr\n")
            for n, mean, err in zip(curve.n_values, curve.mean_regret, curve.stderr):
                fh.write(f"{est}\t{n}\t{mean:.10g}\t{err:.10g}\n")
        paths.append(path)
    return paths
