"""Shared test utilities: random dataset builders and independent oracles.

The oracles deliberately avoid the library's computation paths: entropy
and mutual information are recomputed from Counters with math.log2,
population scores from marginals built as dicts and added with
math.fsum, the permutation-model expectation is averaged over explicitly
enumerated permutations (or, where n! is too many, summed cell pair by
cell pair from math.lgamma, or from exact rational probabilities), and
ordering maxima are taken by brute force.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from corrsets.data import EncodedDataset
from corrsets.estimators import score_subset
from corrsets.search import walk

ROOT = Path(__file__).resolve().parents[1]


def src_env() -> dict[str, str]:
    """This environment with the checkout's ``src`` first on PYTHONPATH, so a
    subprocess imports the same corrsets however pytest was started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def random_dataset(rng: np.random.Generator, d: int, n: int,
                   max_domain: int = 4, dependent: bool = True) -> EncodedDataset:
    """Random categorical data, optionally with planted dependencies."""
    columns = []
    for j in range(d):
        domain = int(rng.integers(2, max_domain + 1))
        if dependent and j >= 2 and rng.random() < 0.4:
            # noisy copy of an earlier column to plant correlation
            src = columns[int(rng.integers(0, j))].copy()
            noise = rng.random(n) < 0.2
            src[noise] = rng.integers(0, domain, size=int(noise.sum()))
            columns.append(src % domain)
        else:
            columns.append(rng.integers(0, domain, size=n))
    return EncodedDataset.from_codes([f"A{j}" for j in range(d)], columns, n)


def oracle_entropy(labels) -> float:
    n = len(labels)
    return -sum(c / n * math.log2(c / n) for c in Counter(labels).values())


def oracle_mi(xs, ys) -> float:
    joint = oracle_entropy(list(zip(xs, ys)))
    return oracle_entropy(xs) + oracle_entropy(ys) - joint


def oracle_permutation_mean_mi(row_marginals, col_marginals) -> float:
    """Mean plug-in MI over all n! permutations of the second variable."""
    xs = [i for i, c in enumerate(row_marginals) for _ in range(c)]
    ys = [j for j, c in enumerate(col_marginals) for _ in range(c)]
    n = len(xs)
    assert len(ys) == n
    total = 0.0
    count = 0
    for perm in itertools.permutations(range(n)):
        total += oracle_mi(xs, [ys[p] for p in perm])
        count += 1
    return total / count


def oracle_hypergeometric_mean_mi(row_marginals, col_marginals) -> float:
    """The same mean at sizes too large to enumerate: one hypergeometric
    sum per pair of cells, term by term with math.lgamma, added with
    math.fsum."""
    n = sum(row_marginals)
    assert sum(col_marginals) == n

    def log_choose(top, k):
        return math.lgamma(top + 1) - math.lgamma(k + 1) - math.lgamma(top - k + 1)

    terms = []
    for a in row_marginals:
        for b in col_marginals:
            for c in range(max(1, a + b - n), min(a, b) + 1):
                log_p = log_choose(b, c) + log_choose(n - b, a - c) - log_choose(n, a)
                terms.append(c / n * math.log2(n * c / (a * b)) * math.exp(log_p))
    return math.fsum(terms)


def oracle_rational_mean_mi(row_marginals, col_marginals) -> float:
    """The same mean at large n: each hypergeometric probability is an exact
    Fraction of math.comb values, rounded once, and the terms of each pair
    of distinct counts, times its multiplicity, are added with math.fsum."""
    n = sum(row_marginals)
    assert sum(col_marginals) == n
    terms = []
    for a, at in Counter(row_marginals).items():
        for b, bt in Counter(col_marginals).items():
            for c in range(max(1, a + b - n), min(a, b) + 1):
                p = Fraction(math.comb(b, c) * math.comb(n - b, a - c), math.comb(n, a))
                terms.append(at * bt * c / n * math.log2(n * c / (a * b)) * float(p))
    return math.fsum(terms)


def oracle_relaxed_correction_max(domain_sizes, n: int) -> float:
    """Brute-force max over orderings of the summed relaxed bound terms."""
    best = -math.inf
    for perm in itertools.permutations(domain_sizes):
        level = math.log2(perm[0])
        total = 0.0
        for d in perm[1:]:
            level_next = level + math.log2(d)
            if level_next <= 63:
                total += math.log2((n + 2.0**level_next) / (n - 1))
            else:
                total += (
                    level_next
                    + math.log1p(n * 2.0**-level_next) / math.log(2.0)
                    - math.log2(n - 1)
                )
            level = level_next
        best = max(best, total)
    return best


def oracle_ordering_max(dataset: EncodedDataset, members, step) -> float:
    """Brute-force max over all orderings of ``members`` of the left-to-right
    sum of ``step(prefix_cell_counts, next_attribute)``. A prefix's joint
    cell counts are recounted from row tuples, once per prefix set, and
    each (prefix set, next) step is evaluated once."""
    cols = [a.codes.tolist() for a in dataset.attributes]
    steps: dict[tuple[frozenset, int], float] = {}
    best = -math.inf
    for perm in itertools.permutations(members):
        total = 0.0
        for k in range(1, len(perm)):
            key = (frozenset(perm[:k]), perm[k])
            if key not in steps:
                counts = Counter(zip(*(cols[i] for i in sorted(key[0]))))
                steps[key] = step(list(counts.values()), dataset.attributes[perm[k]])
            total += steps[key]
        best = max(best, total)
    return best


def oracle_table_entropy(probs, dims, axes) -> float:
    """Entropy in bits of the marginal over ``axes`` of a flat C-order
    joint probability table, built as a dict over explicit cell tuples and
    summed with math.fsum. The marginal is normalized by its own total, so
    a single positive cell is a certain outcome of 0 bits."""
    cells: dict[tuple, list[float]] = {}
    for cell, p in zip(itertools.product(*(range(k) for k in dims)), probs):
        cells.setdefault(tuple(cell[a] for a in axes), []).append(float(p))
    marginal = [math.fsum(ps) for ps in cells.values()]
    total = math.fsum(marginal)
    return -math.fsum(p / total * math.log2(p / total) for p in marginal if p > 0)


def oracle_population_w(probs, dims, subset) -> float:
    """Exact normalized total correlation of a variable subset of a flat
    joint probability table, from :func:`oracle_table_entropy`. A zero
    normalizer, which covers all singletons, gives 0."""
    axes = tuple(sorted(subset))
    singles = [oracle_table_entropy(probs, dims, (a,)) for a in axes]
    h_sum = math.fsum(singles)
    norm = h_sum - max(singles)
    if norm <= 0.0:
        return 0.0
    return min(max((h_sum - oracle_table_entropy(probs, dims, axes)) / norm, 0.0), 1.0)


def subset_joint_entropy(dataset: EncodedDataset, members) -> float:
    """Joint entropy recomputed from row tuples, independent of partitions."""
    rows = list(zip(*(dataset.attributes[i].codes.tolist() for i in members)))
    return oracle_entropy(rows)


def chain_mi_sum(dataset: EncodedDataset, members) -> float:
    """Total correlation as a telescoping sum of MI terms."""
    cols = [dataset.attributes[i].codes.tolist() for i in members]
    total = 0.0
    prefix = list(zip(cols[0]))
    for col in cols[1:]:
        total += oracle_mi(prefix, col)
        prefix = [p + (v,) for p, v in zip(prefix, col)]
    return total


def brute_force_scores(dataset: EncodedDataset,
                       corrected: bool = True) -> dict[tuple[int, ...], float]:
    """Relaxed corrected score of every subset of two or more attributes,
    keyed by sorted column indices, recomputed from row tuples and the
    brute-force ordering maximum; the plug-in score if not ``corrected``.
    A zero normalizer scores 0."""
    n = dataset.n
    cols = [a.codes.tolist() for a in dataset.attributes]
    entropies = [oracle_entropy(col) for col in cols]
    domains = [len(set(col)) for col in cols]
    scores = {}
    for size in range(2, dataset.d + 1):
        for members in itertools.combinations(range(dataset.d), size):
            h = [entropies[i] for i in members]
            normalizer = sum(h) - max(h)
            if normalizer <= 0.0:
                scores[members] = 0.0
                continue
            tc = sum(h) - subset_joint_entropy(dataset, members)
            plugin = min(max(tc / normalizer, 0.0), 1.0)
            bits = (oracle_relaxed_correction_max([domains[i] for i in members], n)
                    if corrected else 0.0)
            scores[members] = plugin - bits / normalizer
    return scores


def brute_force_topk(scores: dict[tuple[int, ...], float], k: int):
    """The k best (members, score) pairs of a :func:`brute_force_scores`
    result: score descending, then lexicographically smallest members."""
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]


def walk_argmax(dataset: EncodedDataset, spec, estimators) -> dict[str, tuple[int, ...]]:
    """Best subset (size >= 2, sorted indices) per regret estimator, scored
    one subset at a time along :func:`corrsets.search.walk`. Ties go to the
    smallest subset, then to the lexicographically smallest one. Unlike the
    oracles above it runs library code: the partition walk, which shares
    only the entropy sum and the relaxed correction with the count-tensor
    scorer in ``corrsets.synth`` that it checks."""
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
