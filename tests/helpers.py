"""Shared test utilities: random dataset builders and independent oracles.

The oracles deliberately avoid the library's computation paths: entropy
and mutual information are recomputed from Counters with math.log2, the
permutation-model expectation is averaged over explicitly enumerated
permutations, and ordering maxima are taken by brute force.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from pathlib import Path

import numpy as np

from corrsets.data import EncodedDataset

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


def brute_force_scores(dataset: EncodedDataset) -> dict[tuple[int, ...], float]:
    """Relaxed corrected score of every subset of two or more attributes,
    keyed by sorted column indices, recomputed from row tuples and the
    brute-force ordering maximum. A zero normalizer scores 0."""
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
            bits = oracle_relaxed_correction_max([domains[i] for i in members], n)
            scores[members] = plugin - bits / normalizer
    return scores


def brute_force_topk(scores: dict[tuple[int, ...], float], k: int):
    """The k best (members, score) pairs of a :func:`brute_force_scores`
    result: score descending, then lexicographically smallest members."""
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]
