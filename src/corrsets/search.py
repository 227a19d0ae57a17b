"""Top-k subset discovery: branch-and-bound, greedy, and exhaustive search.

Attributes are first sorted by decreasing entropy; the search then runs a
standard alphabetical (non-redundant) subset enumeration over the sorted
positions. Under that order every child extends its parent only with
lower-entropy attributes, which is exactly the regime where the relaxed
correction term is monotone and the two bounding functions are admissible:

* ``bound_mon``: 1 minus the node's correction term (free once scored),
* ``bound_ref``: the plug-in score with all remaining lower-entropy
  attributes' entropies added to numerator and denominator, minus the
  correction term.

Branch-and-bound is best-first on the node potential and prunes a node
whenever alpha times its potential cannot beat the current k-th best
score, yielding an alpha-approximation guarantee (exact for alpha = 1).
"""

from __future__ import annotations

import bisect
import heapq
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass

from .estimators import (
    RowPartition,
    SubsetScore,
    assemble_score,
    entropy,
    refine_partition,
)

__all__ = [
    "SearchNode",
    "TopKStore",
    "SearchStats",
    "order_attributes",
    "expand",
    "bound_mon",
    "bound_ref",
    "branch_and_bound",
    "greedy",
    "walk",
    "exhaustive_topk",
]


def order_attributes(dataset) -> list[int]:
    """Attribute indices sorted by decreasing entropy, original index tiebreak."""
    return sorted(
        range(dataset.d), key=lambda i: (-dataset.attributes[i].entropy, i)
    )


class SearchContext:
    """Dataset view reordered by decreasing entropy, with cached suffix sums."""

    def __init__(self, dataset):
        if dataset.d < 2:
            raise ValueError("need at least 2 attributes to search")
        self.dataset = dataset
        self.n = dataset.n
        self.d = dataset.d
        self.order = order_attributes(dataset)
        self.attrs = [dataset.attributes[i] for i in self.order]
        self.entropies = [a.entropy for a in self.attrs]
        self.domain_sizes = [a.domain_size for a in self.attrs]
        # suffix_entropy[r] = sum of entropies at ranks >= r
        suffix = [0.0] * (self.d + 1)
        for r in range(self.d - 1, -1, -1):
            suffix[r] = self.entropies[r] + suffix[r + 1]
        self.suffix_entropy = suffix

    def original_members(self, ranks) -> tuple[int, ...]:
        return tuple(self.order[r] for r in ranks)

    def partition_of(self, ranks) -> RowPartition:
        part = RowPartition.trivial(self.n)
        for r in ranks:
            part = refine_partition(part, self.attrs[r])
        return part


@dataclass(eq=False)
class SearchNode:
    """One enumerated subset: members are positions in the entropy-sorted
    order (strictly increasing), so every child is a low-entropy extension
    of its parent. ``potential`` is the value of the active bounding
    function once evaluated; singletons and the root have potential 1."""

    members: tuple[int, ...]
    score: SubsetScore
    potential: float | None = None
    partition: RowPartition | None = None

    @property
    def depth(self) -> int:
        return len(self.members)

    @property
    def last_index(self) -> int:
        return self.members[-1] if self.members else -1


class TopKStore:
    """Running top-k subsets ordered by score descending, then
    lexicographically smallest member tuple. Subsets of fewer than two
    attributes are never eligible."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._entries: list[tuple[float, tuple[int, ...], SubsetScore]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def offer(self, members: tuple[int, ...], score: SubsetScore) -> None:
        if len(members) < 2:
            return
        entry = (-score.corrected_score, members, score)
        if len(self._entries) == self.k and entry >= self._entries[-1]:
            return
        bisect.insort(self._entries, entry)
        if len(self._entries) > self.k:
            self._entries.pop()

    def threshold(self) -> float:
        """The k-th best score, or -inf while fewer than k entries exist."""
        if len(self._entries) < self.k:
            return -math.inf
        return -self._entries[-1][0]

    def best(self) -> float:
        return -self._entries[0][0] if self._entries else -math.inf

    @property
    def results(self) -> list[tuple[tuple[int, ...], float, SubsetScore]]:
        """(members, value, score) triples, best first."""
        return [(m, -neg, s) for neg, m, s in self._entries]


@dataclass
class SearchStats:
    nodes_explored: int = 0
    nodes_pruned: int = 0
    prune_percent: float = 0.0
    max_depth_reached: int = 0
    solution_depth: int = 0
    wall_time: float = 0.0
    completed: bool = True

    def finish(self, d: int, store: TopKStore, started: float) -> "SearchStats":
        self.wall_time = time.perf_counter() - started
        # 100 - 100*q/2^d; log space beyond 60 attributes where 2^d overflows
        if d <= 60:
            visited_fraction = self.nodes_explored / 2**d
        else:
            visited_fraction = 2.0 ** (math.log2(max(self.nodes_explored, 1)) - d)
        self.prune_percent = 100.0 * (1.0 - visited_fraction)
        if store.results:
            self.solution_depth = len(store.results[0][0])
        return self


def _root(ctx: SearchContext) -> SearchNode:
    score = SubsetScore((), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return SearchNode(
        members=(), score=score, potential=1.0,
        partition=RowPartition.trivial(ctx.n),
    )


def _child(ctx: SearchContext, parent: SearchNode, rank: int,
           parent_partition: RowPartition) -> SearchNode:
    attr = ctx.attrs[rank]
    part = refine_partition(parent_partition, attr)
    members = parent.members + (rank,)
    h = attr.entropy
    entropy_sum = parent.score.entropy_sum + h
    if len(members) == 1:
        score = SubsetScore(
            ctx.original_members(members), entropy_sum, h, h, 0.0, 0.0,
            0.0, 0.0, 0.0,
        )
        return SearchNode(members=members, score=score, potential=1.0, partition=part)
    entropy_max = parent.score.entropy_max
    joint = entropy(part.cell_counts, ctx.n)
    sizes = [ctx.domain_sizes[r] for r in members]
    score = assemble_score(
        ctx.original_members(members), entropy_sum, entropy_max, joint,
        sizes, ctx.n,
    )
    return SearchNode(members=members, score=score, partition=part)


def expand(node: SearchNode, ctx: SearchContext, stop=lambda: False) -> list[SearchNode]:
    """All children of a node: one per rank above its last member, scored
    incrementally from the parent partition. Scoring ends early once
    ``stop()``, asked after each child, returns True."""
    children: list[SearchNode] = []
    if node.last_index < ctx.d - 1:
        part = node.partition if node.partition is not None else ctx.partition_of(node.members)
        for rank in range(node.last_index + 1, ctx.d):
            children.append(_child(ctx, node, rank, part))
            if stop():
                break
    return children


def bound_mon(node: SearchNode) -> float:
    """Trivial admissible bound: one minus the node's correction term,
    valid because the correction only grows along low-entropy extensions."""
    if node.depth < 2:
        return 1.0
    return 1.0 - node.score.correction


def bound_ref(node: SearchNode, ctx: SearchContext) -> float:
    """Refinement bound: plug-in score with every remaining lower-entropy
    attribute's entropy added to numerator and denominator, minus the
    correction term. Never exceeds bound_mon."""
    if node.depth < 2:
        return 1.0
    suffix = ctx.suffix_entropy[node.last_index + 1]
    denom = node.score.normalizer + suffix
    if denom <= 0.0:
        return 0.0
    ratio = min(max((node.score.total_correlation + suffix) / denom, 0.0), 1.0)
    return ratio - node.score.correction


def branch_and_bound(
    dataset,
    k: int = 1,
    alpha: float = 1.0,
    budget: float | None = None,
) -> tuple[TopKStore, SearchStats]:
    """Best-first branch-and-bound for the top-k corrected scores.

    On natural termination every returned rank-i entry scores at least
    alpha times the best achievable score at that rank. A ``budget`` in
    seconds returns the best found so far with ``stats.completed`` False
    when exceeded; it is checked after every scored child.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    started = time.perf_counter()
    ctx = SearchContext(dataset)
    store = TopKStore(k)
    stats = SearchStats()
    root = _root(ctx)
    stats.nodes_explored = 1
    # heap entries (-potential, members, node); member tuples are unique so
    # the node itself is never compared
    heap: list[tuple[float, tuple[int, ...], SearchNode]] = [(-1.0, (), root)]

    def out_of_time() -> bool:
        if budget is not None and time.perf_counter() - started > budget:
            stats.completed = False
        return not stats.completed

    while heap and not out_of_time():
        neg_pot, _, node = heap[0]
        if not alpha * -neg_pot > store.threshold():
            # best-first: nothing left in the queue can qualify
            stats.nodes_pruned += len(heap)
            break
        heapq.heappop(heap)
        # the budget is checked after every child, so one wide expansion
        # cannot overrun it; the children scored so far are still offered
        children = expand(node, ctx, out_of_time)
        node.partition = None
        for child in children:
            stats.nodes_explored += 1
            stats.max_depth_reached = max(stats.max_depth_reached, child.depth)
            store.offer(child.members, child.score)
        for child in children:
            child.partition = None  # queued nodes recompute on expansion
            if child.last_index >= ctx.d - 1:
                continue  # no refinements to cut or keep
            if child.depth < 2:
                child.potential = 1.0
            else:
                child.potential = bound_mon(child)
                if alpha * child.potential > store.threshold():
                    child.potential = min(child.potential, bound_ref(child, ctx))
            if alpha * child.potential > store.threshold():
                heapq.heappush(heap, (-child.potential, child.members, child))
            else:
                stats.nodes_pruned += 1
    return store, stats.finish(ctx.d, store, started)


def _keep_best(ctx: SearchContext, node: SearchNode, best: SearchNode | None,
               store: TopKStore, stats: SearchStats) -> SearchNode | None:
    """Offer every child of ``node`` to the store and return the best of
    them and ``best`` (score descending, then smallest member tuple). Each
    losing child's partition is dropped as soon as it loses."""
    for rank in range(node.last_index + 1, ctx.d):
        child = _child(ctx, node, rank, node.partition)
        stats.nodes_explored += 1
        stats.max_depth_reached = max(stats.max_depth_reached, child.depth)
        store.offer(child.members, child.score)
        if best is None or (-child.score.corrected_score, child.members) < (
            -best.score.corrected_score, best.members
        ):
            child, best = best, child  # child now names the loser
        if child is not None:
            child.partition = None
    return best


def greedy(dataset, k: int = 1) -> tuple[TopKStore, SearchStats]:
    """Level-wise greedy search: score all pairs, then repeatedly refine
    only the best node, stopping when it has no refinements or its
    refinement bound cannot beat the current k-th best score. The top-k is
    collected over every candidate evaluated along the way."""
    if k < 1:
        raise ValueError("k must be >= 1")
    started = time.perf_counter()
    ctx = SearchContext(dataset)
    store = TopKStore(k)
    stats = SearchStats()
    root = _root(ctx)
    current = None
    for i in range(ctx.d - 1):
        current = _keep_best(ctx, _child(ctx, root, i, root.partition),
                             current, store, stats)
    while current is not None and current.last_index < ctx.d - 1:
        if not bound_ref(current, ctx) > store.threshold():
            break  # no refinement of the chain can improve the result set
        current = _keep_best(ctx, current, None, store, stats)
    return store, stats.finish(ctx.d, store, started)


def walk(dataset) -> Iterator[SearchNode]:
    """Every subset of two or more attributes, depth-first in the
    alphabetical order over entropy ranks, each scored incrementally from
    its parent's partition. A subtree's partitions are dropped once it is
    done, so only those on the current root-to-node path stay alive."""
    ctx = SearchContext(dataset)

    def subtree(node: SearchNode) -> Iterator[SearchNode]:
        for rank in range(node.last_index + 1, ctx.d):
            child = _child(ctx, node, rank, node.partition)
            if child.depth >= 2:
                yield child
            yield from subtree(child)
            child.partition = None

    return subtree(_root(ctx))


def exhaustive_topk(dataset, k: int = 1) -> TopKStore:
    """Top-k relaxed corrected scores over every subset of two or more
    attributes, from one :func:`walk`. Reference answer for the search
    algorithms; it refines 2^d - 1 times, so keep d small."""
    store = TopKStore(k)
    for node in walk(dataset):
        store.offer(node.members, node.score)
    return store
