"""Information-theoretic scores for categorical attribute subsets.

Everything here is a pure function of empirical counts. The central
quantity is the normalized total correlation of a subset: the sum of
marginal entropies minus the joint entropy, divided by the largest value
that difference can take (sum minus max). The plug-in estimate of this
ratio is inflated by chance on sparse data, so we also compute correction
terms derived from a fixed-marginal permutation null model:

* ``expected_mi_permutation`` -- the exact expected mutual information
  under random permutation of one variable (hypergeometric sum),
* ``m0_upper`` -- a closed-form upper bound on that expectation in terms
  of domain sizes,
* ``m0_relaxed`` -- a further relaxation replacing joint domain sizes by
  products of marginal domain sizes, which makes the ordering that
  maximizes the summed correction computable by sorting.

:func:`score_subset` is the one entry point for a subset's score and its
correction under every estimator. All logarithms are base 2 (bits). The
normalized scores are ratios of bit quantities and therefore invariant to
the choice of base.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import cache, lru_cache, reduce

import numpy as np

__all__ = [
    "RowPartition",
    "SubsetScore",
    "ESTIMATORS",
    "entropy",
    "xlog2x_table",
    "refine_partition",
    "order_attributes",
    "expected_mi_permutation",
    "m0_upper",
    "m0_relaxed",
    "correction_relaxed_bits",
    "assemble_score",
    "relaxed_score",
    "score_subset",
]

ESTIMATORS = ("plugin", "relaxed", "upper", "exact")

ORACLE_MAX_MEMBERS = 8  # exact/upper hold the partitions of up to 2^8 prefix sets

_LOG2 = math.log(2.0)


# x * log2(x) at x = 0, 1, 2, ..., grown to about twice the largest count
# seen. Each entry is kept once computed, so its bits cannot depend on
# where in an array numpy's log2 happened to compute it. Only threads that
# grow the table at the same time compute entries twice, each from the
# same first entry; the lock keeps the longest of their tables.
_XLOG2X = np.zeros(2)
_XLOG2X_LOCK = threading.Lock()


def xlog2x_table(top: int) -> np.ndarray:
    """The table of x * log2(x), covering x = 0..top at least.

    Entropies sum its entries over counts sorted ascending, one at a time
    from the left (``np.cumsum``). Counts of 0 and 1 add exactly 0, so the
    sum depends on the multiset of counts above 1 alone: not on cell order,
    zero cells or singleton cells. Threads may call it at once: each gets
    a table that covers its ``top``, and a shorter table never replaces a
    longer one.
    """
    global _XLOG2X
    table = _XLOG2X  # read once: another thread may replace it meanwhile
    if top >= table.shape[0]:
        x = np.arange(table.shape[0], max(int(top) + 1, 2 * table.shape[0]),
                      dtype=np.float64)
        x *= np.log2(x)
        table = np.concatenate([table, x])
        with _XLOG2X_LOCK:
            if table.shape[0] > _XLOG2X.shape[0]:
                _XLOG2X = table
    return table


def entropy(counts, n):
    """Plug-in Shannon entropy in bits of a count vector summing to n.

    The caller guarantees sum(counts) == n. Computed as log2(n) - S / n with
    S the sorted sum over :func:`xlog2x_table`, so the bits do not depend on
    the order of the counts or on zero counts. A count of n (a constant
    column) gives exactly 0, not the rounding residue of log2(n) - log2(n).

    ``counts`` may also be a (rows, cells) array with ``n`` an int array of
    its row sums: the result is then each row's entropy, bit-equal to the
    call on that row alone.
    """
    c = np.array(counts, dtype=np.int64, order="C")  # rows sort fastest in C order
    c.sort(axis=-1)
    if c.shape[-1] == 0 or (c.ndim == 1 and c[-1] == n):
        return 0.0
    top = c.T[-1]  # each row's largest count; .T keeps one vector's scalars fast
    sums = np.cumsum(xlog2x_table(top if c.ndim == 1 else top.max())[c], axis=-1).T[-1]
    if c.ndim == 1:
        return float(math.log2(n) - sums / n)
    return np.where(top < n, _log2_rows(np.asarray(n, np.int64).tobytes()) - sums / n, 0.0)


@lru_cache(maxsize=8)
def _log2_rows(n: bytes) -> np.ndarray:
    """math.log2 of each int64 in ``n``, computed once for a batch's row sums."""
    log2n = np.array([math.log2(v) for v in np.frombuffer(n, np.int64).tolist()])
    log2n.flags.writeable = False  # every call with these n shares it
    return log2n


@dataclass(frozen=True, eq=False)
class RowPartition:
    """Grouping of the n rows into the distinct joint-value cells of a subset.

    ``cell_of_row[r]`` is row r's label, below the bound ``labels``: two rows
    share a label exactly when they share a cell. Labels need not be dense,
    so ``cell_count``, the number of nonempty cells, can be below
    ``labels``. ``cell_counts`` holds each cell's size in ascending label
    order. Refining by one attribute at a time makes this the incremental
    carrier for joint entropies. ``cell_counts`` is None on a partition
    that ``branch_and_bound`` keeps in its queue: it is only refined
    further, never scored. ``cell_of_row`` is held in the narrowest
    unsigned dtype that fits ``labels - 1``.
    """

    cell_of_row: np.ndarray
    cell_counts: np.ndarray | None
    cell_count: int
    labels: int

    @classmethod
    def trivial(cls, n: int) -> "RowPartition":
        """The single-cell partition (empty attribute set)."""
        return cls(np.zeros(n, dtype=np.uint8), np.array([n], dtype=np.int64), 1, 1)


# Key spaces up to this many keys per row are counted, larger ones sorted.
# Counting costs O(n + space) and sorting O(n log n). Timed on a 2-core x86
# host with uniformly drawn keys at n = 5k-100k, counting is 2.5-3.6x faster
# than np.unique at space = n, 1.2-1.5x at 2n, and slower from 3n on.
_COUNTING_SPACE_PER_ROW = 2


def _count(keys: np.ndarray, space: int) -> np.ndarray:
    """The count of each distinct key among non-negative integer keys below
    ``space``, in ascending key order as ``np.unique`` gives them."""
    if space > _COUNTING_SPACE_PER_ROW * keys.shape[0]:
        return np.unique(keys, return_counts=True)[1]
    counts = np.bincount(keys.astype(np.intp, copy=False), minlength=space)
    return counts[counts > 0]


def _number(keys: np.ndarray, space: int) -> np.ndarray:
    """Each key's rank among the distinct keys below ``space``, in the
    narrowest dtype that holds the largest rank: from the running count of
    the occupied key space, or by sorting where it is too large to count."""
    if space > _COUNTING_SPACE_PER_ROW * keys.shape[0]:
        distinct, ranks = np.unique(keys, return_inverse=True)
        return ranks.astype(np.min_scalar_type(len(distinct) - 1), copy=False)
    remap = np.cumsum(np.bincount(keys.astype(np.intp, copy=False), minlength=space) > 0)
    remap -= 1
    # take: indexing by narrow keys, ``remap[keys]``, is about 3x slower
    return remap.astype(np.min_scalar_type(int(remap[-1])), copy=False).take(keys)


def refine_partition(parent: RowPartition, attr) -> RowPartition:
    """Split every cell of ``parent`` by the codes of one more attribute.

    ``attr`` needs ``codes`` (integer array of length n, each code in
    [0, domain_size)) and ``domain_size``. The keys
    ``label * domain_size + code`` label the result's rows: they lie below
    ``parent.labels * domain_size``, the result's ``labels``, and are
    computed in the narrowest unsigned dtype that holds every key below it,
    so ``parent.cell_of_row`` and the codes may have any integer dtype.
    Cells are counted in ascending key order, that is by (parent cell,
    code), which keeps repeated refinement deterministic. The parent's rows
    are renumbered densely first only to shrink the key space: where that
    alone makes it small enough to count, or where it would not fit in 64
    bits.
    """
    domain = int(attr.domain_size)
    labels, bound = parent.cell_of_row, parent.labels
    countable = _COUNTING_SPACE_PER_ROW * labels.shape[0]
    if bound * domain > countable >= parent.cell_count * domain or bound * domain > 2**64:
        labels, bound = _number(labels, bound), parent.cell_count
    space = bound * domain
    # under one label every label is 0, and domain may not fit the keys' dtype
    keys = np.multiply(labels, domain if bound > 1 else 0,
                       dtype=np.min_scalar_type(max(space - 1, 0)), casting="unsafe")
    np.add(keys, attr.codes, out=keys, casting="unsafe")
    counts = _count(keys, space)
    return RowPartition(keys, counts, int(counts.shape[0]), space)


@lru_cache(maxsize=4096)
def _pair_mi_bits(a: int, b: int, n: int) -> float:
    """sum_c (c/n) log2(n c / (a b)) P_hyp(c; n, a, b) for one pair of counts.
    The pmf is built from its falling ratio P(c+1)/P(c): log weights summed
    outward from the mode, then normalized by their sum. No factorial appears,
    so large log-factorials never cancel."""
    cs = np.arange(max(0, a + b - n), min(a, b) + 1)
    c = cs[:-1]
    log_r = np.log((a - c) * (b - c) / ((c + 1) * (n - a - b + c + 1)))
    mode = int(np.count_nonzero(log_r > 0))
    w = np.exp(np.concatenate((-np.cumsum(log_r[:mode][::-1])[::-1], [0.0],
                               np.cumsum(log_r[mode:]))))
    terms = (cs / n) * np.log2(np.maximum(cs, 1) * (n / (a * b)))
    return float(np.dot(terms, w) / w.sum())


def expected_mi_permutation(row_marginals, col_marginals, n: int) -> float:
    """Expected plug-in mutual information (bits) under the permutation model.

    The null model keeps both marginal count vectors fixed and averages the
    plug-in MI over all n! row permutations of one variable. Each cell count
    then follows a hypergeometric law, so the expectation reduces to

        sum_{i,j} sum_c (c/n) log2(n c / (a_i b_j)) P_hyp(c; n, a_i, b_j)

    with c running over max(1, a_i + b_j - n) .. min(a_i, b_j) (c = 0 adds
    nothing). A term depends only on (a_i, b_j), so the sum runs over the
    distinct nonzero counts of each marginal, ascending, each term weighted
    by how often its pair occurs: the bits depend only on the two count
    multisets, and the cost on the number of distinct counts, not cells.
    Probabilities are evaluated in log space, so the computation is
    overflow-free for large n.
    """
    a, b = np.asarray(row_marginals), np.asarray(col_marginals)
    if any(not np.all(np.isfinite(m) & (m >= 0)) or np.any(m % 1) for m in (a, b)):
        raise ValueError("marginal counts must be non-negative whole numbers")
    a, b = a.astype(np.int64), b.astype(np.int64)
    if a.sum() != n or b.sum() != n:
        raise ValueError("marginal sums must both equal n")
    total = 0.0
    # (count, multiplicity) pairs of each marginal
    a, b = (zip(*(v.tolist() for v in np.unique(m[m > 0], return_counts=True)))
            for m in (a, b))
    for (ai, at), (bj, bt) in itertools.product(a, b):
        total += at * bt * _pair_mi_bits(ai, bj, n)
    return max(total, 0.0)


def m0_upper(dx: int, dy: int, n: int) -> float:
    """Domain-size upper bound on the permutation-model expected MI (bits).

    log2((n + dx*dy - dx - dy) / (n - 1)); nonnegative because
    dx*dy >= dx + dy - 1 for positive integers.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return math.log2((n + dx * dy - dx - dy) / (n - 1))


def m0_relaxed(log2_prefix_product: float, dnext: int, n: int) -> float:
    """Relaxed expected-MI bound using a product of marginal domain sizes.

    Evaluates log2((n + P*dnext) / (n - 1)) where P is given as
    log2_prefix_product bits. Beyond 63 bits the product is folded in log
    space, so domain-size products that overflow machine integers are fine.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if log2_prefix_product < 0:
        raise ValueError("prefix product must be >= 1")
    level = log2_prefix_product + math.log2(dnext)
    if level <= 63:
        return math.log2((n + 2.0**level) / (n - 1))
    return level + math.log1p(n * 2.0 ** (-level)) / _LOG2 - math.log2(n - 1)


def correction_relaxed_bits(domain_sizes, n: int) -> float:
    """Unnormalized relaxed correction: summed m0_relaxed terms, in bits.

    The ordering that maximizes the sum puts domain sizes in decreasing
    order, so no enumeration over orderings is needed.
    """
    sizes = sorted((int(d) for d in domain_sizes), reverse=True)
    if len(sizes) < 2:
        return 0.0
    total = 0.0
    level = math.log2(sizes[0])
    for d in sizes[1:]:
        total += m0_relaxed(level, d, n)
        level += math.log2(d)
    return total


def order_attributes(dataset) -> list[int]:
    """Attribute indices sorted by decreasing entropy, original index tiebreak."""
    return sorted(
        range(dataset.d), key=lambda i: (-dataset.attributes[i].entropy, i)
    )


def _ordered_members(dataset, members) -> list[int]:
    """Validate member indices and put them in :func:`order_attributes` order."""
    idx = list(members)
    if len(set(idx)) != len(idx):
        raise ValueError("member indices must be distinct")
    if len(idx) < 2:
        raise ValueError("need at least 2 members")
    d = len(dataset.attributes)
    for i in idx:
        if not 0 <= i < d:
            raise ValueError(f"attribute index {i} out of range")
    chosen = set(idx)
    return [i for i in order_attributes(dataset) if i in chosen]


def _max_correction_bits(dataset, estimator: str):
    """The ``upper`` or ``exact`` correction bits of ``dataset`` as a memoised
    function of a frozenset S of attribute indices: the best left-to-right
    sum of steps over the orderings of S. It recurses over prefix sets,
    best(S) = max over x in S of best(S - x) + step(S - x, x), which float
    monotonicity makes bit-equal to the maximum of all |S|! sums. It holds
    at most 2^m - 2 prefix partitions, the singletons among them."""
    n, attrs = dataset.n, dataset.attributes

    def step(prefix: frozenset, x: int) -> float:
        # a singleton's cells are its attribute's codes: cell_count is domain_size
        part, single = partition(prefix), partition(frozenset({x}))
        if estimator == "upper":
            return m0_upper(part.cell_count, single.cell_count, n)
        return expected_mi_permutation(part.cell_counts, single.cell_counts, n)

    @cache
    def partition(prefix: frozenset) -> RowPartition:
        if not prefix:
            return RowPartition.trivial(n)
        smaller = min(prefix)
        return refine_partition(partition(prefix - {smaller}), attrs[smaller])

    @cache
    def best(members: frozenset) -> float:
        if len(members) == 1:
            return 0.0
        return max(best(members - {x}) + step(members - {x}, x) for x in members)

    return best


@dataclass(frozen=True)
class SubsetScore:
    """All score components of one attribute subset.

    ``members`` are attribute indices in decreasing marginal-entropy order.
    ``total_correlation`` is entropy_sum - joint_entropy, ``normalizer`` is
    entropy_sum - entropy_max, ``plugin_score`` their ratio clamped to [0, 1],
    and ``corrected_score`` the plugin score minus ``correction``. A subset
    whose normalizer is zero cannot express correlation and scores 0 across
    the board.
    """

    members: tuple[int, ...]
    entropy_sum: float
    entropy_max: float
    joint_entropy: float
    total_correlation: float
    normalizer: float
    correction: float
    plugin_score: float
    corrected_score: float

    @property
    def depth(self) -> int:
        return len(self.members)


def assemble_score(
    members: tuple[int, ...],
    entropy_sum: float,
    entropy_max: float,
    joint_entropy: float,
    correction_bits: float,
) -> SubsetScore:
    """Build a SubsetScore from precomputed entropy components and the
    unnormalized correction in bits, which a zero normalizer ignores."""
    total_correlation = entropy_sum - joint_entropy
    normalizer = entropy_sum - entropy_max
    correction = plugin = 0.0
    if normalizer > 0.0:
        correction = correction_bits / normalizer
        plugin = min(max(total_correlation / normalizer, 0.0), 1.0)
    return SubsetScore(
        members, entropy_sum, entropy_max, joint_entropy,
        total_correlation, normalizer, correction, plugin, plugin - correction,
    )


def relaxed_score(dataset, members, partition: RowPartition) -> SubsetScore:
    """The relaxed score of the subset ``members`` (attribute indices) whose
    cells are ``partition``. Member entropies are added one at a time in the
    order given, so every caller that passes members in decreasing-entropy
    order gets the same bits."""
    entropy_sum = entropy_max = 0.0
    sizes = []
    for i in members:
        attr = dataset.attributes[i]
        h = attr.entropy
        entropy_sum += h
        if h > entropy_max:
            entropy_max = h
        sizes.append(attr.domain_size)
    # a zero normalizer takes no correction, and m0_relaxed needs n >= 2
    bits = correction_relaxed_bits(sizes, dataset.n) if entropy_sum > entropy_max else 0.0
    return assemble_score(tuple(members), entropy_sum, entropy_max,
                          entropy(partition.cell_counts, dataset.n), bits)


def score_subset(dataset, members, estimator: str = "relaxed") -> SubsetScore:
    """Score one attribute subset of a dataset with the chosen estimator.

    ``estimator`` is one of ``plugin`` (no correction), ``relaxed`` (the
    production estimator), or the oracle variants ``upper`` / ``exact``
    (restricted to 8 members), whose correction is the maximum over member
    orderings of the summed :func:`m0_upper` or
    :func:`expected_mi_permutation` steps. A zero normalizer gives a
    correction and scores of 0 under every estimator. The result does not
    depend on the input order of ``members``.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    ordered = _ordered_members(dataset, members)
    if estimator in ("upper", "exact") and len(ordered) > ORACLE_MAX_MEMBERS:
        raise ValueError(f"oracle correction limited to {ORACLE_MAX_MEMBERS} members")
    part = reduce(refine_partition, (dataset.attributes[i] for i in ordered),
                  RowPartition.trivial(dataset.n))
    score = relaxed_score(dataset, ordered, part)
    if estimator == "relaxed" or score.normalizer <= 0.0:
        return score
    bits = (0.0 if estimator == "plugin" else
            _max_correction_bits(dataset, estimator)(frozenset(ordered)))
    return assemble_score(score.members, score.entropy_sum, score.entropy_max,
                          score.joint_entropy, bits)
