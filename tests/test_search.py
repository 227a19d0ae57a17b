import dataclasses
import heapq
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrsets import estimators, search
from corrsets.data import EncodedDataset
from corrsets.estimators import RowPartition, SubsetScore, refine_partition, score_subset
from corrsets.search import (
    SearchContext,
    SearchNode,
    SearchStats,
    TopKStore,
    bound_mon,
    bound_ref,
    branch_and_bound,
    exhaustive_topk,
    greedy,
    order_attributes,
    walk,
)
import helpers
from helpers import brute_force_scores, brute_force_topk, random_dataset
from test_estimators import compacts


def dataset_with_entropies(levels):
    """One column per entropy level: level k gets 2^k distinct uniform values."""
    n = 16
    cols = [np.arange(n) % (2**k) for k in levels]
    return EncodedDataset.from_codes([f"A{i}" for i in range(len(levels))], cols, n)


class TestOrderAttributes:
    def test_sorts_by_entropy_descending(self):
        ds = dataset_with_entropies([1, 3, 2])  # entropies 1, 3, 2 bits
        assert order_attributes(ds) == [1, 2, 0]

    def test_ties_keep_original_order(self):
        ds = dataset_with_entropies([2, 2, 2])
        assert order_attributes(ds) == [0, 1, 2]

    def test_children_are_low_entropy_extensions(self):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, d=6, n=50)
        ctx = SearchContext(ds)
        entropies = [a.entropy for a in ctx.attrs]
        assert entropies == sorted(entropies, reverse=True)


def ranked(store):
    """A store's (members, value) pairs, best first."""
    return [(m, v) for m, v, _ in store.results]


def children_of(node, ctx):
    """The scored children of a node, refined from its partition."""
    part = ctx.partition_of(node.members)
    return [child for child, _ in search._children(ctx, node, part)]


class TestChildren:
    def test_root_yields_singletons_with_potential_one(self):
        ds = dataset_with_entropies([1, 2, 3])
        ctx = SearchContext(ds)
        children = children_of(SearchNode(members=(), score=score_zero()), ctx)
        assert [c.members for c in children] == [(0,), (1,), (2,)]
        assert all(bound_mon(c) == bound_ref(c, ctx) == 1.0 for c in children)
        assert all(c.score.corrected_score == 0.0 for c in children)

    def test_frontier_node_has_no_children(self):
        ds = dataset_with_entropies([1, 2, 3])
        ctx = SearchContext(ds)
        node = children_of(SearchNode((), score_zero()), ctx)[-1]
        assert node.members == (2,)
        assert children_of(node, ctx) == []

    def test_incremental_equals_scratch(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, d=7, n=80)
        ctx = SearchContext(ds)
        frontier = [SearchNode((), score_zero())]
        checked = 0
        while frontier:
            node = frontier.pop()
            for child in children_of(node, ctx):
                if child.depth >= 2:
                    scratch = score_subset(ds, child.score.members)
                    assert child.score == scratch  # bit-identical
                    checked += 1
                if child.depth < 4:
                    frontier.append(child)
        assert checked > 50


def score_zero():
    return SubsetScore((), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def all_nodes(ds):
    """Every subset as a search node, by exhaustive expansion."""
    ctx = SearchContext(ds)
    out = {}
    frontier = [SearchNode((), score_zero())]
    while frontier:
        node = frontier.pop()
        for child in children_of(node, ctx):
            out[child.members] = child
            frontier.append(child)
    return ctx, out


class TestBounds:
    def test_bound_mon_arithmetic(self):
        node = SearchNode(
            (0, 1), SubsetScore((0, 1), 2.0, 1.0, 1.5, 0.5, 1.0, 0.3, 0.5, 0.2)
        )
        assert bound_mon(node) == pytest.approx(0.7)

    def test_bound_ref_leaf_equals_score(self):
        rng = np.random.default_rng(14)
        ds = random_dataset(rng, d=5, n=60)
        ctx, nodes = all_nodes(ds)
        for members, node in nodes.items():
            if node.last_index == ds.d - 1 and node.depth >= 2:
                assert bound_ref(node, ctx) == node.score.corrected_score

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 7),
           n=st.integers(2, 80), max_domain=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_bound_ref_below_bound_mon(self, seed, d, n, max_domain):
        # exactly, on every node: branch_and_bound bounds with bound_ref alone
        ds = random_dataset(np.random.default_rng(seed), d=d, n=n, max_domain=max_domain)
        ctx, nodes = all_nodes(ds)
        for node in nodes.values():
            assert bound_ref(node, ctx) <= bound_mon(node)

    def test_bound_ref_below_bound_mon_on_tictactoe(self, ttt):
        ctx, nodes = all_nodes(ttt)
        for node in nodes.values():
            assert bound_ref(node, ctx) <= bound_mon(node)

    def test_degenerate_denominator_gives_zero(self):
        ds = EncodedDataset.from_codes(
            ["x", "c1", "c2"],
            [np.array([0, 1, 0, 1]), np.zeros(4, int), np.zeros(4, int)],
            4,
        )
        ctx, nodes = all_nodes(ds)
        node = nodes[(0, 1)]  # ranks: x then a constant; suffix constant too
        assert node.score.normalizer == 0.0
        assert bound_ref(node, ctx) == 0.0

    def test_admissibility_small_sweep(self):
        rng = np.random.default_rng(16)
        for _ in range(3):
            ds = random_dataset(rng, d=7, n=60)
            ctx, nodes = all_nodes(ds)
            for members, node in nodes.items():
                if node.depth < 2:
                    continue
                mon = bound_mon(node)
                ref = bound_ref(node, ctx)
                suffix = range(node.last_index + 1, ds.d)
                for r in range(1, len(list(suffix)) + 1):
                    for extra in itertools.combinations(suffix, r):
                        ext = nodes[members + extra].score.corrected_score
                        assert mon >= ext - 1e-12
                        assert ref >= ext - 1e-12

    def test_correction_monotone_along_edges(self):
        rng = np.random.default_rng(18)
        ds = random_dataset(rng, d=7, n=50)
        _, nodes = all_nodes(ds)
        for members, node in nodes.items():
            if node.depth < 2:
                continue
            for j in range(node.last_index + 1, ds.d):
                child = nodes[members + (j,)]
                assert child.score.correction >= node.score.correction - 1e-12


class TestTopKStore:
    def make_score(self, members, value):
        return SubsetScore(members, 0, 0, 0, 0, 1, 0, value, value)

    def test_admits(self):
        store = TopKStore(2)
        assert store.admits(-math.inf, (9, 9))
        store.offer((0, 1), self.make_score((0, 1), 0.5))
        assert store.admits(-1.0, (9, 9))  # not yet full
        store.offer((1, 2), self.make_score((1, 2), 0.3))
        assert store.admits(0.4, (9, 9))
        assert not store.admits(0.2, (0, 0))
        # at the k-th score only a smaller member tuple ranks before it
        assert not store.admits(0.3, (1, 2))
        assert not store.admits(0.3, (1, 3))
        assert store.admits(0.3, (0, 2))
        store.offer((0, 2), self.make_score((0, 2), 0.3))
        assert [m for m, _, _ in store.results] == [(0, 1), (0, 2)]

    def test_singletons_rejected(self):
        store = TopKStore(1)
        store.offer((0,), self.make_score((0,), 0.9))
        assert len(store) == 0

    def test_tie_break_lexicographic(self):
        store = TopKStore(2)
        store.offer((1, 2), self.make_score((1, 2), 0.5))
        store.offer((0, 3), self.make_score((0, 3), 0.5))
        store.offer((0, 1), self.make_score((0, 1), 0.5))
        assert [m for m, _, _ in store.results] == [(0, 1), (0, 3)]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            TopKStore(0)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2"])
    def test_k_must_be_an_integer(self, k):
        # a float k never fills the store, so it would admit every bound
        with pytest.raises(TypeError):
            TopKStore(k)

    @pytest.mark.parametrize("k, want", [(np.int64(3), 3), (np.uint8(2), 2), (True, 1)])
    def test_integer_like_k_accepted(self, k, want):
        assert TopKStore(k).k == want


class TestBranchAndBound:
    def test_validations(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, d=3, n=20, dependent=False)
        with pytest.raises(ValueError):
            branch_and_bound(ds, k=0)
        with pytest.raises(ValueError):
            branch_and_bound(ds, alpha=0.0)
        with pytest.raises(ValueError):
            branch_and_bound(ds, alpha=1.5)
        single = EncodedDataset.from_codes(["x"], [np.array([0, 1])], 2)
        with pytest.raises(ValueError):
            branch_and_bound(single)

    def test_float_k_rejected(self):
        # at k = 2.5 the store never fills and nothing would be pruned
        ds = random_dataset(np.random.default_rng(0), d=4, n=50)
        with pytest.raises(TypeError):
            branch_and_bound(ds, k=2.5)
        with pytest.raises(TypeError):
            greedy(ds, k=2.5)

    @pytest.mark.parametrize("budget", [math.nan, -1.0, -math.inf])
    def test_invalid_budget_rejected(self, budget):
        ds = random_dataset(np.random.default_rng(0), d=4, n=50)
        with pytest.raises(ValueError, match="budget"):
            branch_and_bound(ds, budget=budget)

    @pytest.mark.parametrize("budget", [None, 0, 0.0, math.inf])
    def test_valid_budgets(self, budget):
        ds = random_dataset(np.random.default_rng(0), d=4, n=50)
        _, stats = branch_and_bound(ds, k=2, budget=budget)
        assert stats.completed == (budget != 0)

    def test_visits_every_subset_without_pruning(self):
        # a store that can never fill admits every bound
        rng = np.random.default_rng(19)
        ds = random_dataset(rng, d=8, n=40)
        store, stats = branch_and_bound(ds, k=10_000)
        assert stats.nodes_explored == 2**8
        assert stats.nodes_pruned == 0
        assert stats.prune_percent == 0.0

    def test_matches_exhaustive_topk(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            d = int(rng.integers(4, 9))
            ds = random_dataset(rng, d=d, n=int(rng.integers(20, 120)))
            store, _ = branch_and_bound(ds, k=5)
            assert ranked(store) == ranked(exhaustive_topk(ds, k=5))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", range(60))
    def test_ties_match_exhaustive_topk(self, seed, k):
        # small domains and n tie many scores, a copied column many more;
        # a bound equal to the k-th score must not prune a smaller tuple
        rng = np.random.default_rng(seed)
        d, n = int(rng.integers(3, 7)), int(rng.integers(2, 12))
        cols = [rng.integers(0, rng.integers(1, 4), n) for _ in range(d)]
        if seed % 2:
            cols[-1] = cols[0].copy()
        ds = EncodedDataset.from_codes([f"A{j}" for j in range(d)], cols, n)
        assert ranked(branch_and_bound(ds, k=k)[0]) == ranked(exhaustive_topk(ds, k=k))

    def test_alpha_guarantee(self):
        rng = np.random.default_rng(23)
        for alpha in (0.5, 0.8):
            for _ in range(3):
                ds = random_dataset(rng, d=8, n=60)
                store, _ = branch_and_bound(ds, k=1, alpha=alpha)
                optimum = exhaustive_topk(ds, k=1).results[0][1]
                assert store.results[0][1] >= alpha * optimum - 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(24)
        ds = random_dataset(rng, d=9, n=80)
        s1, st1 = branch_and_bound(ds, k=4)
        s2, st2 = branch_and_bound(ds, k=4)
        assert [(m, v) for m, v, _ in s1.results] == [(m, v) for m, v, _ in s2.results]
        assert st1.nodes_explored == st2.nodes_explored
        assert st1.nodes_pruned == st2.nodes_pruned

    def test_prune_percent_formula(self):
        rng = np.random.default_rng(25)
        ds = random_dataset(rng, d=7, n=60)
        _, stats = branch_and_bound(ds, k=1)
        assert stats.prune_percent == pytest.approx(
            100 - 100 * stats.nodes_explored / 2**7, abs=1e-9
        )

    @pytest.mark.parametrize("d", [61, 200, 1100])
    @pytest.mark.parametrize("explored", [1, 545, 10**40])
    def test_prune_percent_beyond_float_range(self, d, explored):
        # 2**1100 has no float; int / int still divides exactly rounded
        stats = SearchStats(nodes_explored=explored).finish(d, TopKStore(1))
        assert stats.prune_percent == 100 * (1 - explored / 2**d)

    def test_budget_flags_incomplete(self):
        rng = np.random.default_rng(26)
        ds = random_dataset(rng, d=10, n=100)
        _, stats = branch_and_bound(ds, k=1, budget=0.0)
        assert not stats.completed

    def test_budget_expires_inside_one_expansion(self, monkeypatch):
        # a clock that advances one second per reading: the budget runs out
        # while the root's ten children are being scored
        ticks = itertools.count()
        monkeypatch.setattr(search, "time", SimpleNamespace(
            perf_counter=lambda: float(next(ticks))))
        ds = random_dataset(np.random.default_rng(26), d=10, n=100)
        store, stats = branch_and_bound(ds, k=1, budget=4.5)
        assert not stats.completed
        assert 1 < stats.nodes_explored < 1 + ds.d
        assert len(store) == 0  # singletons only: none is eligible

    def test_results_map_to_original_indices(self, ttt):
        store, _ = branch_and_bound(ttt, k=1)
        members, value, score = store.results[0]
        assert score.members == tuple(
            sorted(score.members, key=lambda i: (-ttt.attributes[i].entropy, i))
        )
        assert value == score.corrected_score


class TestGreedy:
    def test_validations(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, d=3, n=20, dependent=False)
        with pytest.raises(ValueError):
            greedy(ds, k=0)

    def test_pair_optimum_found_exactly(self):
        # optimum is a pair: greedy scores all pairs, so it cannot miss it
        rng = np.random.default_rng(27)
        for _ in range(5):
            ds = random_dataset(rng, d=6, n=50)
            beststore, _ = branch_and_bound(ds, k=1)
            if beststore.results[0][2].depth != 2:
                continue
            gstore, _ = greedy(ds, k=1)
            assert gstore.results[0][1] == beststore.results[0][1]

    def test_never_beats_bnb(self):
        rng = np.random.default_rng(28)
        for _ in range(5):
            ds = random_dataset(rng, d=7, n=60)
            b, _ = branch_and_bound(ds, k=1)
            g, _ = greedy(ds, k=1)
            assert g.results[0][1] <= b.results[0][1] + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        ds = random_dataset(rng, d=8, n=70)
        g1, st1 = greedy(ds, k=3)
        g2, st2 = greedy(ds, k=3)
        assert [(m, v) for m, v, _ in g1.results] == [(m, v) for m, v, _ in g2.results]
        assert st1.nodes_explored == st2.nodes_explored


class TestWalk:
    def test_every_subset_once_scored_as_from_scratch(self):
        ds = random_dataset(np.random.default_rng(30), d=6, n=50)
        seen = []
        for node in walk(ds):
            assert node.score == score_subset(ds, node.score.members)
            seen.append(tuple(sorted(node.score.members)))
        assert sorted(seen) == sorted(
            s for r in range(2, 7) for s in itertools.combinations(range(6), r)
        )

    def test_needs_two_attributes(self):
        single = EncodedDataset.from_codes(["x"], [np.array([0, 1])], 2)
        with pytest.raises(ValueError):
            walk(single)


@st.composite
def small_tables(draw):
    """Random tables of 2-5 columns, some constant, some duplicating (or
    relabelling) an earlier column."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(2, 24))
    cols = []
    for j in range(d):
        kind = draw(st.sampled_from(["random", "constant", "copy"] if j else
                                    ["random", "constant"]))
        if kind == "constant":
            cols.append([0] * n)
        elif kind == "copy":
            src = cols[draw(st.integers(0, j - 1))]
            cols.append([-v for v in src] if draw(st.booleans()) else list(src))
        else:
            domain = draw(st.integers(1, 4))
            cols.append(draw(st.lists(st.integers(0, domain - 1),
                                      min_size=n, max_size=n)))
    return EncodedDataset.from_codes([f"A{j}" for j in range(d)], cols, n)


def assert_matches_brute_force(store, scores, k):
    """Values agree within 1e-9 rank by rank; each member set is the
    oracle's, or one the oracle scores within 1e-9 of it."""
    ranked = brute_force_topk(scores, k)
    got = [(tuple(sorted(s.members)), v) for _, v, s in store.results]
    assert len(got) == len(ranked)
    assert len({m for m, _ in got}) == len(got)
    for (members, value), (_, expected) in zip(got, ranked):
        assert value == pytest.approx(expected, abs=1e-9)
        near = {m for m, v in scores.items() if abs(v - expected) <= 1e-9}
        assert members in near


def oracle_library_calls() -> list[str]:
    """Names that the brute-force oracle's functions (their nested code
    included) look up and that resolve, in ``helpers``, to corrsets code."""
    def names(code):
        yield from code.co_names
        for const in code.co_consts:
            if hasattr(const, "co_names"):
                yield from names(const)

    oracle = (helpers.brute_force_scores, helpers.subset_joint_entropy,
              helpers.oracle_entropy, helpers.oracle_relaxed_correction_max)
    return sorted({name for fn in oracle for name in names(fn.__code__)
                   if str(getattr(getattr(helpers, name, None), "__module__", ""))
                   .startswith("corrsets")})


class TestAgainstBruteForce:
    @pytest.mark.parametrize("n", [10, 11, 13])
    def test_constant_column_pairs_score_zero(self, n):
        # log2(n) - n log2(n) / n rounds to +-4e-16 at these n; a constant
        # column must still have entropy 0, so its pairs score exactly 0
        rng = np.random.default_rng(n)
        cols = [rng.integers(0, 3, n), np.zeros(n, dtype=int), rng.integers(0, 3, n)]
        ds = EncodedDataset.from_codes(["a", "b", "c"], cols, n)
        assert ds.attributes[1].entropy == 0.0
        assert_matches_brute_force(exhaustive_topk(ds, k=3), brute_force_scores(ds), 3)

    @given(ds=small_tables())
    @settings(max_examples=80, deadline=None)
    def test_score_subset_matches_oracle(self, ds):
        # the searches and score_subset share one score builder,
        # extend_parts, so their agreement alone cannot catch a fault in
        # it; the oracle calls no corrsets code
        assert not oracle_library_calls()
        corrected = brute_force_scores(ds)
        plugin = brute_force_scores(ds, corrected=False)
        for members, value in corrected.items():
            score = score_subset(ds, members, "relaxed")
            assert score.corrected_score == pytest.approx(value, abs=1e-9)
            assert score.plugin_score == pytest.approx(plugin[members], abs=1e-9)

    @pytest.mark.parametrize("seed", range(40))
    def test_alpha_guarantee_at_every_rank(self, seed):
        # wherever the exact rank-i score is positive, bnb's rank-i entry
        # scores at least alpha times it: pruning at the k-th entry leans
        # on every rank, not only the first
        assert not oracle_library_calls()
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, d=int(rng.integers(4, 8)), n=int(rng.integers(8, 151)))
        scores = brute_force_scores(ds)
        for k in (3, 7):
            exact = [value for _, value in brute_force_topk(scores, k)]
            for alpha in (0.9, 0.7, 0.4):
                store, _ = branch_and_bound(ds, k=k, alpha=alpha)
                got = [value for _, value, _ in store.results]
                assert len(got) == len(exact)
                for value, best in zip(got, exact):
                    if best > 0.0:
                        assert value >= alpha * best - 1e-9

    @given(ds=small_tables(), k=st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_exhaustive_and_bnb_match_oracle(self, ds, k):
        scores, oracle = brute_force_scores(ds), exhaustive_topk(ds, k=k)
        assert_matches_brute_force(oracle, scores, k)
        store = branch_and_bound(ds, k=k)[0]
        assert_matches_brute_force(store, scores, k)
        assert ranked(store) == ranked(oracle)


class TestSkipEstimates:
    """bnb prunes a child unrefined where the store refuses its score and
    bound at its parent's joint entropy. That needs both to be at least the
    child's own, on every child it may visit: here every subset."""

    @staticmethod
    def check(ds):
        ctx, nodes = all_nodes(ds)
        nodes[()] = SearchNode((), score_zero())
        for members, child in nodes.items():
            if not members:
                continue
            parent = nodes[members[:-1]].score
            parts = estimators.extend_parts(ds, parent, ctx.order[members[-1]])
            assert parts.score(child.score.joint_entropy) == child.score
            estimate = SearchNode(members, parts.score(parent.joint_entropy))
            assert estimate.score.corrected_score >= child.score.corrected_score
            assert bound_ref(estimate, ctx) >= bound_ref(child, ctx)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        self.check(random_dataset(rng, d=7, n=int(rng.integers(5, 400))))

    def test_tictactoe_with_constant_columns(self, ttt):
        self.check(with_constant_columns(ttt))

    @given(ds=small_tables())
    @settings(max_examples=60, deadline=None)
    def test_small_tables(self, ds):
        self.check(ds)

    @pytest.mark.parametrize("alpha", [1.0, 0.7, 0.4])
    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("seed", range(12))
    def test_skipped_children_would_be_pruned_when_scored(self, seed, k, alpha,
                                                          monkeypatch):
        # a child is counted without a store only when bnb skips it, and is
        # then its estimate. Scored from its own partition, it scores and
        # bounds no higher, and the store at that moment refuses it and,
        # below the last rank, alpha times its bound. A constant or copied
        # column leaves the joint entropy as it was, so there the estimate
        # is exact, and small tables tie many scores and bounds
        rng = np.random.default_rng(seed)
        if seed % 3 == 2:
            d, n = int(rng.integers(4, 8)), int(rng.integers(2, 16))
            cols = [rng.integers(0, rng.integers(1, 4), n) for _ in range(d)]
            cols[-1] = cols[0].copy()
            ds = EncodedDataset.from_codes([f"A{j}" for j in range(d)], cols, n)
        else:
            ds = random_dataset(rng, d=int(rng.integers(4, 10)), n=int(rng.integers(5, 300)))
            if seed % 3:
                ds = with_constant_columns(ds)
        (ctx, nodes), stores, skipped = all_nodes(ds), [], []

        class Recording(TopKStore):
            def __init__(self, k):
                super().__init__(k)
                stores.append(self)

        count = SearchStats.count

        def checked(stats, child, store=None):
            if store is None:
                skipped.append(child.members)
                real = nodes[child.members]
                assert child.score.corrected_score >= real.score.corrected_score
                assert bound_ref(child, ctx) >= bound_ref(real, ctx)
                assert not stores[0].admits(real.score.corrected_score, child.members)
                if child.last_index < ds.d - 1:
                    assert not stores[0].admits(alpha * bound_ref(real, ctx), child.members)
            count(stats, child, store)

        monkeypatch.setattr(search, "TopKStore", Recording)
        monkeypatch.setattr(SearchStats, "count", checked)
        (_, stats), counts = counted(branch_and_bound, ds, k=k, alpha=alpha)
        assert len(stores) == 1
        # every explored child but the root is either refined or skipped
        assert counts["refine"] + len(skipped) == stats.nodes_explored - 1

    @pytest.mark.parametrize("seed", range(30))
    def test_skipping_changes_no_result_or_stat(self, seed, monkeypatch):
        # the reference bnb refines and scores every child, as bnb did before
        # it bounded children first: each child's estimate scores infinity,
        # which every store admits
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, d=int(rng.integers(3, 9)), n=int(rng.integers(5, 400)))
        runs = [(k, alpha) for k in (1, 3, 7) for alpha in (1.0, 0.7, 0.4)]
        skipping = [counted(branch_and_bound, ds, k=k, alpha=alpha) for k, alpha in runs]

        class Unskippable:
            def __init__(self, parts):
                self.parts, self.estimated = parts, False

            def score(self, joint_entropy):
                score = self.parts.score(joint_entropy)
                if self.estimated:
                    return score
                self.estimated = True
                return dataclasses.replace(score, corrected_score=math.inf)

        extend = search.extend_parts
        monkeypatch.setattr(search, "extend_parts", lambda *a: Unskippable(extend(*a)))
        for (k, alpha), ((store, stats), counts) in zip(runs, skipping):
            (ref_store, ref_stats), ref_counts = counted(branch_and_bound, ds, k=k, alpha=alpha)
            assert store.results == ref_store.results
            assert stats == ref_stats
            assert counts["refine"] <= ref_counts["refine"] == stats.nodes_explored - 1


def counted(fn, *args, **kwargs):
    """fn's result and how often it called ``refine_partition`` (a child's
    in ``search``, a rebuild's from the root in ``search``, a chain's in
    ``score_subset``), renumbered a partition's rows
    (``estimators._number``), expanded a node in ``search._children``,
    pushed onto and popped from a heap, and how many of its refinements had
    a parent that the label contract says must be renumbered first
    (``compact``)."""
    counts = {"refine": 0, "number": 0, "expand": 0, "push": 0, "pop": 0, "compact": 0}

    def counting(name, f):
        def call(*a, **kw):
            counts[name] += 1
            return f(*a, **kw)
        return call

    refine_counted = counting("refine", estimators.refine_partition)

    def refine(parent, attr):
        counts["compact"] += compacts(parent, attr)
        return refine_counted(parent, attr)

    with pytest.MonkeyPatch.context() as mp:
        for module in (estimators, search):
            mp.setattr(module, "refine_partition", refine)
        mp.setattr(estimators, "_number", counting("number", estimators._number))
        mp.setattr(search, "_children", counting("expand", search._children))
        mp.setattr(heapq, "heappush", counting("push", heapq.heappush))
        mp.setattr(heapq, "heappop", counting("pop", heapq.heappop))
        return fn(*args, **kwargs), counts


def refinements_of(search_fn, ds, k):
    """(result, number of refine_partition calls) of one search."""
    result, counts = counted(search_fn, ds, k=k)
    return result, counts["refine"]


class TestRefinementCounts:
    """Each search refines once per child it scores, plus the greedy's
    d - 1 singletons; a hidden rebuild from the root breaks the count. bnb
    scores only the children that its estimates do not prune."""

    def check(self, ds, k):
        (_, stats), greedy_refines = refinements_of(greedy, ds, k)
        assert greedy_refines == (ds.d - 1) + stats.nodes_explored
        assert refinements_of(exhaustive_topk, ds, k)[1] == 2**ds.d - 1
        # bnb keeps each queued child's partition, so the root is its only
        # explored node that is not refined from a parent, or skipped
        (_, stats), bnb_refines = refinements_of(branch_and_bound, ds, k)
        assert bnb_refines <= stats.nodes_explored - 1

    @given(ds=small_tables(), k=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_random_tables(self, ds, k):
        self.check(ds, k)

    @pytest.mark.parametrize("d", [3, 6, 9])
    def test_seeded_tables(self, d):
        self.check(random_dataset(np.random.default_rng(31 + d), d=d, n=60), 3)

    def bnb_counts(self, ds, k):
        (_, stats), refines = refinements_of(branch_and_bound, ds, k)
        return stats.nodes_explored, stats.nodes_pruned, refines

    def test_bnb_skips_children_on_tictactoe(self, ttt):
        # 914 refinements when every explored child was scored
        assert self.bnb_counts(ttt, 9) == (915, 93, 774)

    def test_bnb_skips_children_on_a_random_table(self):
        # 1,969 refinements when every explored child was scored
        ds = random_dataset(np.random.default_rng(0), 12, 2000)
        assert self.bnb_counts(ds, 5) == (1970, 752, 1251)


class TestNumberingCounts:
    """A refinement labels rows with its keys, so rows are renumbered only
    where a parent's keys would not fit in 64 bits (``compacts``). These
    tables' key spaces stay below that, so no search renumbers a partition.
    The names are kept from when every refined partition was numbered."""

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("d", [3, 6, 9])
    def test_bnb_numbers_the_children_that_pass_when_scored(self, d, alpha, monkeypatch):
        ds = random_dataset(np.random.default_rng(31 + d), d=d, n=60)
        ctx, passed = SearchContext(ds), []

        class Recording(TopKStore):
            def offer(self, members, score):
                super().offer(members, score)
                node = SearchNode(members, score)
                if node.last_index < ds.d - 1:
                    potential = bound_ref(node, ctx)
                    passed.append(self.admits(alpha * potential, members))

        monkeypatch.setattr(search, "TopKStore", Recording)
        (_, stats), counts = counted(branch_and_bound, ds, k=3, alpha=alpha)
        # only scored children are offered; a child pruned on its estimates
        # is neither refined nor offered
        assert counts["refine"] <= stats.nodes_explored - 1
        # a passing child is pushed at once; one that a later sibling beats
        # waits in the heap until the cutoff prunes it
        assert 0 < counts["push"] == sum(passed) < counts["refine"]
        assert counts["number"] == counts["compact"] == 0

    def test_exhaustive_numbers_every_subset_without_the_last_rank(self):
        ds = random_dataset(np.random.default_rng(5), d=10, n=60)
        _, counts = counted(exhaustive_topk, ds, k=3)
        assert counts["refine"] == 2**10 - 1
        assert counts["number"] == counts["compact"] == 0

    @pytest.mark.parametrize("seed", [8, 9])
    def test_greedy_numbers_only_the_nodes_it_expands(self, seed):
        ds = random_dataset(np.random.default_rng(seed), d=8, n=60)
        (_, stats), counts = counted(greedy, ds, k=3)
        assert counts["number"] == counts["compact"] == 0
        # the root's partition is trivial; the d - 1 singletons and each
        # level's winner are expanded
        assert counts["expand"] - 1 >= ds.d - 1
        assert counts["refine"] == ds.d - 1 + stats.nodes_explored

    @pytest.mark.parametrize("estimator", ["plugin", "relaxed"])
    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_score_subset_numbers_every_prefix_but_the_last(self, m, estimator):
        ds = random_dataset(np.random.default_rng(m), d=9, n=60)
        _, counts = counted(score_subset, ds, range(m), estimator)
        assert counts["refine"] == m
        assert counts["number"] == counts["compact"] == 0


@pytest.mark.parametrize("estimator", estimators.ESTIMATORS)
@pytest.mark.parametrize("m", range(2, 9))
def test_score_subset_computes_one_joint_entropy(ttt, m, estimator, monkeypatch):
    # a score needs the joint entropy of the whole subset, not of the
    # prefixes its partition is refined through
    calls = []
    entropy = estimators.entropy
    monkeypatch.setattr(estimators, "entropy", lambda *a: calls.append(a) or entropy(*a))
    score_subset(ttt, range(m), estimator)
    assert len(calls) == 1


def with_constant_columns(ds):
    """``ds`` with two constant columns appended, ``const_a`` and ``const_b``."""
    return EncodedDataset.from_codes(
        list(ds.names) + ["const_a", "const_b"],
        [a.codes for a in ds.attributes] + [np.zeros(ds.n, dtype=np.int64)] * 2, ds.n)


class TestPartitionStore:
    """bnb carries each queued child's partition, as refined, up to a cap
    on its labels' and counts' bytes, and rebuilds it from the root past
    the cap."""

    @pytest.mark.parametrize("cap", [0, 300])
    @pytest.mark.parametrize("d", [3, 6, 9])
    def test_cap_changes_only_refinements(self, d, cap, monkeypatch):
        ds = random_dataset(np.random.default_rng(47 + d), d=d, n=60)
        (store, stats), stored = counted(branch_and_bound, ds, k=3)
        rebuilt = []  # the depth of each node rebuilt from the root
        partition_of = SearchContext.partition_of
        monkeypatch.setattr(search, "PARTITION_STORE_BYTES", cap)
        monkeypatch.setattr(SearchContext, "partition_of", lambda ctx, ranks: (
            rebuilt.append(len(ranks)) or partition_of(ctx, ranks)))
        (capped, capped_stats), capped_counts = counted(branch_and_bound, ds, k=3)
        assert capped.results == store.results
        assert capped_stats == stats
        # the same children are refined, and a rebuild refines once per member
        assert capped_counts["refine"] == stored["refine"] + sum(rebuilt)
        # with no store every popped node is rebuilt from the root
        if cap == 0:
            assert len(rebuilt) == capped_counts["pop"] == stored["pop"]
        else:
            assert len(rebuilt) <= capped_counts["pop"]

    @pytest.mark.parametrize("table", ["ttt", "ttt_with_constants"])
    def test_queued_partitions_are_the_refined_ones(self, ttt, table, monkeypatch):
        # a child is pushed right after it is refined, with the partition
        # that refine_partition returned for it, counts included
        ds = ttt if table == "ttt" else with_constant_columns(ttt)
        refined, queued = [], []
        refine, push = search.refine_partition, heapq.heappush
        monkeypatch.setattr(search, "refine_partition",
                            lambda *a: refined.append(refine(*a)) or refined[-1])
        monkeypatch.setattr(search.heapq, "heappush", lambda heap, entry: (
            queued.append((entry, refined[-1])) or push(heap, entry)))
        branch_and_bound(ds, k=9)
        assert queued
        for (_, _, child, part), last in queued:
            assert part is last
            assert part.cell_count == len(part.cell_counts)
            assert estimators.entropy(part.cell_counts, ds.n) == child.score.joint_entropy

    def test_cap_counts_labels_and_counts(self, ttt, monkeypatch):
        # a cap of the first queued child's label bytes does not hold its
        # labels and counts, so that child is queued without a partition
        # and rebuilt from the root when popped
        queued, push = [], heapq.heappush
        monkeypatch.setattr(search.heapq, "heappush",
                            lambda heap, entry: queued.append(entry) or push(heap, entry))
        store, stats = branch_and_bound(ttt, k=9)
        first = queued[0]
        rebuilt, partition_of = [], SearchContext.partition_of
        monkeypatch.setattr(search, "PARTITION_STORE_BYTES", first[-1].cell_of_row.nbytes)
        monkeypatch.setattr(SearchContext, "partition_of", lambda ctx, ranks: (
            rebuilt.append(tuple(ranks)) or partition_of(ctx, ranks)))
        queued.clear()
        capped, capped_stats = branch_and_bound(ttt, k=9)
        assert capped.results == store.results
        assert capped_stats == stats
        assert queued[0][1] == first[1]
        assert queued[0][-1] is None
        assert first[1] in rebuilt

    @pytest.mark.parametrize("cell_count, dtype", [
        (256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32),
    ])
    def test_narrow_dtype_refines_like_int64(self, cell_count, dtype):
        # refine_partition packs labels into the narrowest dtype that holds
        # their bound, and the next refinement computes its keys in the
        # narrowest dtype of its key space whatever the labels' dtype, so it
        # refines exactly as the int64 partition with the same labels
        rng = np.random.default_rng(cell_count)
        # every cell occupied, the last one included, in shuffled row order
        cells = rng.permutation(np.concatenate([
            np.arange(cell_count), rng.integers(0, cell_count, 1000)]))
        ids = SimpleNamespace(codes=cells, domain_size=cell_count)
        packed = refine_partition(RowPartition.trivial(cells.shape[0]), ids)
        assert packed.cell_of_row.dtype == dtype
        assert packed.cell_count == cell_count
        assert np.array_equal(packed.cell_of_row, cells)
        assert packed.labels == cell_count
        part = RowPartition(cells, np.bincount(cells), cell_count, cell_count)
        attr = SimpleNamespace(codes=rng.integers(0, 3, cells.shape[0]), domain_size=3)
        want, got = refine_partition(part, attr), refine_partition(packed, attr)
        assert got.cell_of_row.dtype == want.cell_of_row.dtype
        assert got.cell_count == want.cell_count
        assert np.array_equal(got.cell_of_row, want.cell_of_row)
        assert np.array_equal(got.cell_counts, want.cell_counts)


class TestTicTacToeSearches:
    """Exact top-9 answers and stats of both searches on tic-tac-toe, so a
    refactor that changes what either search visits shows here."""

    def test_branch_and_bound(self, ttt):
        store, stats = branch_and_bound(ttt, k=9)
        assert [score.members for _, _, score in store.results] == [
            (0, 8, 4, 9), (2, 6, 4, 9), (4, 9), (1, 3, 8), (1, 5, 6),
            (3, 7, 2), (5, 7, 0), (1, 7, 4, 9), (3, 5, 4, 9),
        ]
        assert (stats.nodes_explored, stats.nodes_pruned, stats.max_depth_reached,
                stats.solution_depth, stats.completed) == (915, 93, 8, 4, True)

    def test_greedy(self, ttt):
        _, stats = greedy(ttt, k=9)
        assert (stats.nodes_explored, stats.nodes_pruned, stats.max_depth_reached,
                stats.solution_depth) == (45, 0, 2, 2)

    def test_branch_and_bound_with_constant_columns(self, ttt):
        # a constant member adds no bits to the entropies but raises the
        # correction, so each of its sets scores below the set without it
        store, stats = branch_and_bound(with_constant_columns(ttt), k=9)
        assert [score.members for _, _, score in store.results] == [
            (0, 8, 4, 9), (2, 6, 4, 9), (4, 9), (4, 9, 10), (4, 9, 11),
            (0, 8, 4, 9, 10), (0, 8, 4, 9, 11), (2, 6, 4, 9, 10), (2, 6, 4, 9, 11),
        ]
        assert (stats.nodes_explored, stats.nodes_pruned) == (1749, 911)
