"""Independent recomputation of corrsets scores, used to check workload outputs.

Nothing here calls corrsets. Entropies come from explicit counts with
``math.log2`` (or from row tuples), the relaxed correction is the paper's
formula written out, and population scores are marginalised from the
joint probability table directly.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

TOL = 1e-9


def entropy_from_counts(counts, n: int) -> float:
    """Plug-in entropy in bits of a count vector summing to n."""
    return -math.fsum(c / n * math.log2(c / n) for c in counts if c > 0)


def entropy_of_rows(columns) -> float:
    """Joint entropy in bits of the row tuples of the given code columns."""
    rows = list(zip(*(np.asarray(c).tolist() for c in columns)))
    return entropy_from_counts(Counter(rows).values(), len(rows))


def joint_entropy(columns, domains) -> float:
    """Joint entropy via a mixed-radix key per row (no partitions)."""
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for col, dom in zip(columns, domains):
        key = key * int(dom) + col
        if int(key.max()) > 2**40:  # keep the next product inside int64
            key = np.unique(key, return_inverse=True)[1].astype(np.int64)
    _, counts = np.unique(key, return_counts=True)
    return entropy_from_counts(counts.tolist(), len(key))


def relaxed_correction_bits(domain_sizes, n: int) -> float:
    """Sum over i >= 2 of log2((n + d_1 * ... * d_i) / (n - 1)) with the
    domain sizes in decreasing order (the maximising order of the relaxed
    bound), evaluated in log space once the product outgrows a float."""
    sizes = sorted((int(d) for d in domain_sizes), reverse=True)
    total = 0.0
    log_prod = math.log2(sizes[0])
    for d in sizes[1:]:
        log_prod += math.log2(d)
        if log_prod < 1000:
            total += math.log2((n + 2.0**log_prod) / (n - 1))
        else:
            total += log_prod - math.log2(n - 1)
    return total


def subset_score(marginal_h, joint_h, domain_sizes, n: int) -> dict:
    """Plug-in and relaxed-corrected normalized total correlation.

    A zero normalizer (sum minus max of the marginal entropies) scores 0.
    """
    h_sum = math.fsum(marginal_h)
    norm = h_sum - max(marginal_h)
    if norm <= 0.0:
        return {"plugin": 0.0, "correction": 0.0, "corrected": 0.0, "joint": joint_h}
    plugin = min(max((h_sum - joint_h) / norm, 0.0), 1.0)
    correction = relaxed_correction_bits(domain_sizes, n) / norm
    return {"plugin": plugin, "correction": correction,
            "corrected": plugin - correction, "joint": joint_h}


class CodeTable:
    """Code columns with their observed domain sizes and marginal entropies."""

    def __init__(self, columns):
        self.columns = [np.asarray(c, dtype=np.int64) for c in columns]
        self.n = len(self.columns[0])
        self.domains = []
        self.entropies = []
        for col in self.columns:
            _, counts = np.unique(col, return_counts=True)
            self.domains.append(len(counts))
            self.entropies.append(entropy_from_counts(counts.tolist(), self.n))

    def score(self, members, from_rows: bool = False) -> dict:
        cols = [self.columns[i] for i in members]
        if from_rows:
            joint_h = entropy_of_rows(cols)
        else:
            joint_h = joint_entropy(cols, [int(c.max()) + 1 for c in cols])
        return subset_score(
            [self.entropies[i] for i in members], joint_h,
            [self.domains[i] for i in members], self.n,
        )

    def subsets(self, sizes):
        for size in sizes:
            yield from itertools.combinations(range(len(self.columns)), size)


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def population_w(probs, dims, subset) -> float:
    """Exact normalized total correlation of a variable subset."""
    grid = np.asarray(probs, dtype=np.float64).reshape(dims)
    axes = tuple(sorted(subset))
    if len(axes) < 2:
        return 0.0

    def h(keep):
        drop = tuple(a for a in range(len(dims)) if a not in keep)
        p = (grid.sum(axis=drop) if drop else grid).ravel()
        return -math.fsum(float(x) * math.log2(float(x)) for x in p if x > 0)

    marg = [h((a,)) for a in axes]
    h_sum = math.fsum(marg)
    norm = h_sum - max(marg)
    if norm <= 0.0:
        return 0.0
    return min(max((h_sum - h(axes)) / norm, 0.0), 1.0)
