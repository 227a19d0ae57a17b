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
whenever alpha times its potential cannot rank before the k-th entry,
yielding an alpha-approximation guarantee (exact for alpha = 1).
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import operator
import time
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce

from .estimators import (
    RowPartition,
    SubsetScore,
    entropy,
    extend_parts,
    order_attributes,
    refine_partition,
)

__all__ = [
    "SearchNode",
    "TopKStore",
    "SearchStats",
    "order_attributes",
    "bound_mon",
    "bound_ref",
    "branch_and_bound",
    "greedy",
    "walk",
    "exhaustive_topk",
]


class SearchContext:
    """Dataset view reordered by decreasing entropy, with cached suffix sums."""

    def __init__(self, dataset):
        if dataset.d < 2:
            raise ValueError("need at least 2 attributes to search")
        self.dataset = dataset
        self.d = dataset.d
        self.order = order_attributes(dataset)
        self.attrs = [dataset.attributes[i] for i in self.order]
        # suffix_entropy[r] = sum of entropies at ranks >= r, from the last rank
        self.suffix_entropy = list(itertools.accumulate(
            (a.entropy for a in reversed(self.attrs)), initial=0.0))[::-1]

    def partition_of(self, ranks) -> RowPartition:
        return reduce(refine_partition, (self.attrs[r] for r in ranks),
                      RowPartition.trivial(self.dataset.n))


@dataclass(eq=False)
class SearchNode:
    """One enumerated subset: members are positions in the entropy-sorted
    order (strictly increasing), so every child is a low-entropy extension
    of its parent."""

    members: tuple[int, ...]
    score: SubsetScore

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
        k = operator.index(k)  # a float k would never fill the store
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._entries: list[tuple[float, tuple[int, ...], SubsetScore]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def admits(self, value: float, members: tuple[int, ...]) -> bool:
        """Whether (value, members) ranks before the k-th entry. An extension of
        members scoring at most value ranks after it, so a refused bound prunes it."""
        # [:2] leaves out the SubsetScore, so the k-th entry's own key is refused
        return len(self._entries) < self.k or (-value, members) < self._entries[-1][:2]

    def offer(self, members: tuple[int, ...], score: SubsetScore) -> None:
        if len(members) >= 2 and self.admits(score.corrected_score, members):
            bisect.insort(self._entries, (-score.corrected_score, members, score))
            del self._entries[self.k:]

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
    completed: bool = True

    def finish(self, d: int, store: TopKStore) -> "SearchStats":
        # int / int is correctly rounded at any d: it never overflows
        self.prune_percent = 100.0 * (1.0 - self.nodes_explored / 2**d)
        if store.results:
            self.solution_depth = len(store.results[0][0])
        return self

    def count(self, child: SearchNode, store: TopKStore | None = None) -> None:
        """Count one child as explored and offer it to ``store``, if given."""
        self.nodes_explored += 1
        self.max_depth_reached = max(self.max_depth_reached, child.depth)
        if store is not None:
            store.offer(child.members, child.score)


# the empty subset, where every search starts
_ROOT = SearchNode((), SubsetScore((), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))


def _children(ctx: SearchContext, node: SearchNode,
              part: RowPartition) -> Iterator[tuple[SearchNode, RowPartition]]:
    """Every child of ``node``, one per rank above its last member, scored
    from its own refinement of ``part`` (the node's partition) and yielded
    with it. A singleton's normalizer is 0, so it scores 0."""
    for rank in range(node.last_index + 1, ctx.d):
        parts = extend_parts(ctx.dataset, node.score, ctx.order[rank])
        child_part = refine_partition(part, ctx.attrs[rank])
        score = parts.score(entropy(child_part.cell_counts, ctx.dataset.n))
        yield SearchNode(node.members + (rank,), score), child_part
        del child_part  # not held while the next child is refined


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


# Byte cap on the row labels and cell counts of the partitions that
# branch_and_bound keeps for queued children. A child queued past it is
# rebuilt from the root when popped, so queue memory stays bounded at any n.
PARTITION_STORE_BYTES = 64 * 2**20


def branch_and_bound(
    dataset,
    k: int = 1,
    alpha: float = 1.0,
    budget: float | None = None,
) -> tuple[TopKStore, SearchStats]:
    """Best-first branch-and-bound for the top-k corrected scores.

    On natural termination every returned rank-i entry scores at least
    alpha times the best achievable score at that rank; at alpha = 1 the
    result equals ``exhaustive_topk(dataset, k)``, member tuples included.
    Below 1 only the score guarantee holds. A ``budget`` in
    seconds (None or inf for none; NaN or negative raise ``ValueError``)
    returns the best found so far with ``stats.completed`` False when
    exceeded; it is checked after every child, skipped or scored.

    A child is first scored and bounded at its parent's joint entropy.
    Refining never lowers the joint entropy, so these estimates are at
    least its own score and bound. Where they would already prune it, the
    child is counted as explored (and pruned, below the last rank) without
    being refined or scored: its stats are the same as if it had been.

    Each queued child keeps the partition it was refined into, so a popped
    node is refined only into its children; past ``PARTITION_STORE_BYTES``
    of queued labels and counts a child is queued without one and rebuilt
    from the root when popped.
    """
    store = TopKStore(k)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if budget is not None and not budget >= 0.0:
        raise ValueError("budget must be None or >= 0 seconds")
    started = time.perf_counter()
    ctx = SearchContext(dataset)
    stats = SearchStats()
    stats.nodes_explored = 1
    # heap entries (-potential, members, node, partition or None);
    # member tuples are unique so neither node nor partition is compared
    heap = [(-1.0, (), _ROOT, None)]
    stored = 0  # bytes of the partitions' labels and counts in the heap

    def out_of_time() -> bool:
        if budget is not None and time.perf_counter() - started > budget:
            stats.completed = False
        return not stats.completed

    while heap and not out_of_time():
        neg_pot, members, node, part = heap[0]
        if not store.admits(alpha * -neg_pot, members):
            # best-first: nothing left in the queue can qualify
            stats.nodes_pruned += len(heap)
            break
        heapq.heappop(heap)
        if part is None:
            part = ctx.partition_of(node.members)
        else:
            stored -= part.cell_of_row.nbytes + part.cell_counts.nbytes
        # each child is pushed as soon as it passes; the k-th entry only
        # improves, so one that a later sibling beats is pruned at the
        # heap-top cutoff. The budget is checked after every child, so one
        # wide expansion cannot overrun it
        for rank in range(node.last_index + 1, ctx.d):
            parts = extend_parts(ctx.dataset, node.score, ctx.order[rank])
            members, last = node.members + (rank,), rank == ctx.d - 1
            # at the parent's joint entropy: at least the child's score and
            # bound, so where the store refuses them it refuses the child.
            # At the last rank there are no refinements to cut or keep
            estimate = SearchNode(members, parts.score(node.score.joint_entropy))
            if not store.admits(estimate.score.corrected_score, members) and (
                    last or not store.admits(alpha * bound_ref(estimate, ctx), members)):
                stats.count(estimate)  # not offered: the store would refuse it
                if not last:
                    stats.nodes_pruned += 1
            else:
                child_part = refine_partition(part, ctx.attrs[rank])
                child = SearchNode(members, parts.score(
                    entropy(child_part.cell_counts, ctx.dataset.n)))
                stats.count(child, store)
                if not last:
                    # bound_ref <= bound_mon on every node, so it alone binds
                    potential = bound_ref(child, ctx)
                    if not store.admits(alpha * potential, members):
                        stats.nodes_pruned += 1
                    else:
                        size = child_part.cell_of_row.nbytes + child_part.cell_counts.nbytes
                        queued = None  # rebuilt from the root when popped
                        if stored + size <= PARTITION_STORE_BYTES:
                            stored += size
                            queued = child_part
                        heapq.heappush(heap, (-potential, members, child, queued))
                del child_part  # not held while the next child is refined
            if out_of_time():
                break
    return store, stats.finish(ctx.d, store)


def _keep_best(children, store: TopKStore, stats: SearchStats):
    """Count every (child, partition) pair and return the best of them
    (score descending, then smallest member tuple), or None. A losing
    child's partition is dropped as soon as it loses."""
    def counted(pair):
        stats.count(pair[0], store)
        return pair
    return min(map(counted, children), default=None,
               key=lambda pair: (-pair[0].score.corrected_score, pair[0].members))


def greedy(dataset, k: int = 1) -> tuple[TopKStore, SearchStats]:
    """Level-wise greedy search: score all pairs, then repeatedly refine
    only the best node, stopping when it has no refinements or its
    refinement bound cannot rank before the k-th entry. The top-k is
    collected over every candidate evaluated along the way."""
    store = TopKStore(k)
    ctx = SearchContext(dataset)
    stats = SearchStats()
    # the last singleton has no pairs, so it is never refined; one pass
    # over all pairs holds a single best pair (node, its partition)
    singles = itertools.islice(_children(ctx, _ROOT, ctx.partition_of(())), ctx.d - 1)
    pairs = itertools.chain.from_iterable(_children(ctx, *single) for single in singles)
    best = _keep_best(pairs, store, stats)
    while best is not None and best[0].last_index < ctx.d - 1:
        if not store.admits(bound_ref(best[0], ctx), best[0].members):
            break  # no refinement of the chain can improve the result set
        best = _keep_best(_children(ctx, *best), store, stats)
    return store, stats.finish(ctx.d, store)


def walk(dataset) -> Iterator[SearchNode]:
    """Every subset of two or more attributes, depth-first in the
    alphabetical order over entropy ranks, each scored incrementally from
    its parent's partition. Each partition lives in the recursion frame
    that refined it, so only those on the current path stay alive."""
    ctx = SearchContext(dataset)

    def subtree(node: SearchNode, part: RowPartition) -> Iterator[SearchNode]:
        for child, child_part in _children(ctx, node, part):
            if child.depth >= 2:
                yield child
            yield from subtree(child, child_part)

    return subtree(_ROOT, ctx.partition_of(()))


def exhaustive_topk(dataset, k: int = 1) -> TopKStore:
    """Top-k relaxed corrected scores over every subset of two or more
    attributes, from one :func:`walk`. Reference answer for the search
    algorithms; it refines 2^d - 1 times, so keep d small."""
    store = TopKStore(k)
    for node in walk(dataset):
        store.offer(node.members, node.score)
    return store
