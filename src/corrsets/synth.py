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
from dataclasses import dataclass

import numpy as np

from .data import EncodedDataset
from .estimators import (
    ORACLE_MAX_MEMBERS,
    RowPartition,
    correction_relaxed_bits,
    entropy,
    refine_partition,
    score_subset,
)
from .search import walk

__all__ = [
    "BandSamplingError",
    "JointTable",
    "SyntheticSpec",
    "RegretCurve",
    "ChanceRecord",
    "population_w",
    "sample_joint_in_band",
    "check_regret_size",
    "run_regret",
    "chance_demo",
    "write_curves_tsv",
]

REGRET_ESTIMATORS = ("plugin", "relaxed", "upper", "exact", "population")
N_INDEPENDENT = 3  # independent variables appended to each dependent table
REGRET_MAX_VARS = 12  # the exhaustive regret argmax walks 2^vars subsets

_REJECTION_BATCH = 512


class BandSamplingError(RuntimeError):
    """Rejection sampling failed to hit the requested correlation band."""


@dataclass(frozen=True, eq=False)
class JointTable:
    """Exact joint probability table over categorical variables."""

    dims: tuple[int, ...]
    probs: np.ndarray  # flat, C-order over dims

    def __post_init__(self):
        if abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        if float(self.probs.min()) < 0:
            raise ValueError("probabilities must be nonnegative")

    @property
    def num_vars(self) -> int:
        return len(self.dims)

    def marginal(self, axes: tuple[int, ...]) -> np.ndarray:
        """Marginal table over the given (sorted) axes."""
        grid = self.probs.reshape(self.dims)
        drop = tuple(i for i in range(self.num_vars) if i not in axes)
        return grid.sum(axis=drop) if drop else grid

    def entropy_bits(self, axes: tuple[int, ...] | None = None) -> float:
        p = (self.probs if axes is None else self.marginal(axes)).ravel()
        p = p[p > 0]
        return float(-np.dot(p, np.log2(p)))


def population_w(joint: JointTable, subset) -> float:
    """Exact normalized total correlation of a variable subset.

    Zero whenever the normalizer vanishes, which covers all singletons.
    """
    axes = tuple(sorted(subset))
    if not axes:
        raise ValueError("subset must be nonempty")
    if len(axes) == 1:
        return 0.0
    marginals = [joint.entropy_bits((a,)) for a in axes]
    h_sum = sum(marginals)
    w = h_sum - joint.entropy_bits(axes)
    w_norm = h_sum - max(marginals)
    if w_norm <= 0.0:
        return 0.0
    return min(max(w / w_norm, 0.0), 1.0)


def _band_w(probs: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Vectorized exact w of a batch of flat joint tables (full variable set)."""
    batch = probs.reshape((-1,) + dims)
    m = len(dims)

    def ent(tables: np.ndarray) -> np.ndarray:
        q = tables.reshape(tables.shape[0], -1)
        q = np.where(q > 0, q, 1.0)
        return -(q * np.log2(q)).sum(axis=1)

    h_joint = ent(batch)
    h_marg = np.stack(
        [
            ent(batch.sum(axis=tuple(b for b in range(1, m + 1) if b != a)))
            for a in range(1, m + 1)
        ],
        axis=1,
    )
    h_sum = h_marg.sum(axis=1)
    w_norm = h_sum - h_marg.max(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        w = (h_sum - h_joint) / w_norm
    return np.clip(np.where(w_norm > 0, w, 0.0), 0.0, 1.0)


def sample_joint_in_band(
    d: int,
    band: tuple[float, float],
    rng_seed=0,
    max_attempts: int = 200_000,
    domain: int = 3,
) -> JointTable:
    """Rejection-sample a joint table whose exact w lies in [a, b).

    Tables are drawn uniformly from the probability simplex (symmetric
    Dirichlet, unit concentration). An upper limit of 1 is treated
    inclusively so the full band always accepts. Deterministic per seed.
    """
    a, b = band
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("band must satisfy 0 <= a < b <= 1")
    if d < 2:
        raise ValueError("need at least 2 dependent variables")
    rng = np.random.default_rng(rng_seed)
    dims = (domain,) * d
    cells = domain**d
    achieved = []
    attempts = 0
    while attempts < max_attempts:
        size = min(_REJECTION_BATCH, max_attempts - attempts)
        tables = rng.dirichlet(np.ones(cells), size=size)
        ws = _band_w(tables, dims)
        for i in range(size):
            w = float(ws[i])
            if a <= w < b or (b >= 1.0 and w == 1.0):
                return JointTable(dims=dims, probs=tables[i].copy())
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
    def build(cls, dependent: JointTable, n_independent: int = N_INDEPENDENT,
              independent_domain: int = 3) -> "SyntheticSpec":
        extra = independent_domain**n_independent
        probs = np.kron(dependent.probs, np.full(extra, 1.0 / extra))
        full = JointTable(
            dims=dependent.dims + (independent_domain,) * n_independent,
            probs=probs,
        )
        total = full.num_vars
        population = {}
        for size in range(1, total + 1):
            for subset in itertools.combinations(range(total), size):
                population[subset] = population_w(full, subset)
        return cls(dependent=dependent, full_table=full, population=population)

    @property
    def num_vars(self) -> int:
        return self.full_table.num_vars

    @property
    def true_max_w(self) -> float:
        return max(self.population.values())

    def sample_dataset(self, n: int, rng: np.random.Generator) -> EncodedDataset:
        """Draw n i.i.d. rows from the full joint table."""
        cells = rng.choice(self.full_table.probs.size, size=n, p=self.full_table.probs)
        columns = []
        stride = self.full_table.probs.size
        for dim in self.full_table.dims:
            stride //= dim
            columns.append((cells // stride) % dim)
        names = [f"V{i + 1}" for i in range(self.num_vars)]
        return EncodedDataset.from_codes(names, columns, n)


@dataclass(frozen=True)
class RegretCurve:
    """Mean population-score regret of one estimator across sample sizes."""

    estimator: str
    n_values: tuple[int, ...]
    mean_regret: tuple[float, ...]
    stderr: tuple[float, ...]
    trials: int


def _empirical_argmax(dataset: EncodedDataset, spec: SyntheticSpec,
                      estimators) -> dict[str, tuple[int, ...]]:
    """Best subset (size >= 2, sorted indices) per estimator. Ties go to
    the smallest subset, then to the lexicographically smallest one."""
    best: dict[str, tuple] = {}
    for node in walk(dataset):
        subset = tuple(sorted(node.score.members))
        for est in estimators:
            if est == "plugin":
                value = node.score.plugin_score
            elif est == "relaxed":
                value = node.score.corrected_score
            elif est == "population":
                value = spec.population[subset]
            else:  # reference corrections, scored from scratch
                value = score_subset(dataset, subset, estimator=est).corrected_score
            key = (-value, len(subset), subset)
            best[est] = min(best.get(est, key), key)
    return {est: key[2] for est, key in best.items()}


def check_regret_size(num_vars: int, estimators) -> None:
    """Refuse a regret run over more variables than it can score; the
    oracle corrections enumerate orderings, so they allow fewer."""
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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_grid = [int(n) for n in n_grid]
    true_max = spec.true_max_w
    samples = {est: np.zeros((len(n_grid), trials)) for est in estimators}
    for ni, n in enumerate(n_grid):
        for j in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ni, j)))
            dataset = spec.sample_dataset(n, rng)
            winners = _empirical_argmax(dataset, spec, estimators)
            for est in estimators:
                samples[est][ni, j] = true_max - spec.population[winners[est]]
    curves = {}
    for est in estimators:
        mat = samples[est]
        curves[est] = RegretCurve(
            estimator=est,
            n_values=tuple(n_grid),
            mean_regret=tuple(float(x) for x in mat.mean(axis=1)),
            stderr=tuple(
                float(x) for x in mat.std(axis=1, ddof=1) / math.sqrt(trials)
            ) if trials > 1 else tuple(0.0 for _ in n_grid),
            trials=trials,
        )
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
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, domain, size=(n, d))
    dataset = EncodedDataset.from_codes(
        [f"U{i + 1}" for i in range(d)], [codes[:, i] for i in range(d)], n
    )
    part = RowPartition.trivial(n)
    h_sum = 0.0
    sizes: list[int] = []
    records = []
    for c in range(1, d + 1):
        attr = dataset.attributes[c - 1]
        part = refine_partition(part, attr)
        h_sum += attr.entropy
        sizes.append(attr.domain_size)
        if c < 2:
            continue
        plugin_bits = h_sum - entropy(part.cell_counts, n)
        corrected_bits = plugin_bits - correction_relaxed_bits(sizes, n)
        records.append(ChanceRecord(c, plugin_bits, corrected_bits))
    return records


def write_curves_tsv(curves: dict[str, RegretCurve], out_dir) -> list[str]:
    """One TSV per estimator: estimator, n, mean_regret, stderr."""
    import os

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
