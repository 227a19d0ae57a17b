import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrsets import estimators
from corrsets.data import EncodedDataset
from corrsets.estimators import (
    RowPartition,
    correction_exact,
    correction_relaxed,
    correction_relaxed_bits,
    correction_upper,
    entropy,
    expected_mi_permutation,
    m0_relaxed,
    m0_upper,
    refine_partition,
    score_subset,
)
from helpers import (
    chain_mi_sum,
    oracle_permutation_mean_mi,
    oracle_relaxed_correction_max,
    random_dataset,
    subset_joint_entropy,
)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([2, 2], 4) == 1.0

    def test_constant(self):
        assert entropy([4], 4) == 0.0

    def test_skewed(self):
        # direct formula: -(1/4)log2(1/4) - (3/4)log2(3/4)
        assert entropy([1, 3], 4) == pytest.approx(0.8112781244591329, abs=1e-12)

    def test_zero_counts_ignored(self):
        assert entropy([2, 0, 2], 4) == entropy([2, 2], 4)


class TestRefinePartition:
    def attr(self, codes):
        codes = np.asarray(codes, dtype=np.int64)
        ds = EncodedDataset.from_codes(["x"], [codes], len(codes))
        return ds.attributes[0]

    def test_single_cell_refined(self):
        part = refine_partition(RowPartition.trivial(4), self.attr([0, 1, 0, 1]))
        assert part.cell_count == 2
        assert sorted(part.cell_counts.tolist()) == [2, 2]

    def test_full_refinement(self):
        parent = refine_partition(RowPartition.trivial(4), self.attr([0, 0, 1, 1]))
        part = refine_partition(parent, self.attr([0, 1, 0, 1]))
        assert part.cell_count == 4
        assert part.cell_counts.tolist() == [1, 1, 1, 1]

    def test_redundant_attribute(self):
        parent = refine_partition(RowPartition.trivial(4), self.attr([0, 0, 1, 1]))
        part = refine_partition(parent, self.attr([0, 0, 1, 1]))
        assert part.cell_count == parent.cell_count
        assert sorted(part.cell_counts.tolist()) == sorted(parent.cell_counts.tolist())

    def test_rows_agree_on_parent_and_code(self):
        rng = np.random.default_rng(5)
        parent = refine_partition(
            RowPartition.trivial(30), self.attr(rng.integers(0, 3, 30))
        )
        attr = self.attr(rng.integers(0, 4, 30))
        part = refine_partition(parent, attr)
        pairs = set(zip(parent.cell_of_row.tolist(), attr.codes.tolist()))
        assert part.cell_count == len(pairs)
        assert int(part.cell_counts.sum()) == 30


def unique_refine(parent, attr):
    """Reference refinement: sort the (parent cell, code) keys with np.unique."""
    if attr.domain_size <= 1:
        return parent
    keys = parent.cell_of_row * attr.domain_size + attr.codes
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return RowPartition(inverse, counts, len(counts))


def assert_same_partition(got, want):
    assert got.cell_of_row.dtype == got.cell_counts.dtype == np.int64
    assert np.array_equal(got.cell_of_row, want.cell_of_row)
    assert np.array_equal(got.cell_counts, want.cell_counts)
    assert got.cell_count == want.cell_count


@st.composite
def code_columns(draw):
    """n rows and 1-4 columns of codes below a declared domain size, which
    ranges from 1 (constant) to 3n + 3 (nearly all codes distinct), so
    refinement key spaces fall on both sides of the counting threshold."""
    n = draw(st.integers(1, 40))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        domain = draw(st.integers(1, 3 * n + 3))
        codes = draw(st.lists(st.integers(0, domain - 1), min_size=n, max_size=n))
        columns.append(SimpleNamespace(
            codes=np.array(codes, dtype=np.int64), domain_size=domain,
        ))
    return n, columns


class TestRefineKernel:
    """refine_partition against the np.unique reference, exactly."""

    @given(code_columns())
    @settings(max_examples=300, deadline=None)
    def test_chain_matches_unique_reference(self, drawn):
        n, columns = drawn
        got = want = RowPartition.trivial(n)
        for attr in columns:
            got = refine_partition(got, attr)
            want = unique_refine(want, attr)
            assert_same_partition(got, want)

    @pytest.mark.parametrize("first, second, counted", [
        ("binary", "ids", True),  # 2 cells x 500 codes: 2n keys, counted
        ("ids", "wide", False),  # 500 cells x 50 codes: 50n keys, sorted
    ])
    def test_counting_and_sorting_paths(self, first, second, counted):
        n = 500
        rng = np.random.default_rng(3)
        columns = {
            "binary": SimpleNamespace(codes=rng.integers(0, 2, n), domain_size=2),
            "ids": SimpleNamespace(codes=rng.permutation(n), domain_size=n),
            "wide": SimpleNamespace(codes=rng.integers(0, 50, n), domain_size=50),
        }
        parent = refine_partition(RowPartition.trivial(n), columns[first])
        attr = columns[second]
        space = parent.cell_count * attr.domain_size
        assert (space <= estimators._COUNTING_SPACE_PER_ROW * n) == counted
        assert_same_partition(
            refine_partition(parent, attr), unique_refine(parent, attr)
        )

    def test_constant_attribute_returns_parent(self):
        parent = refine_partition(
            RowPartition.trivial(3),
            SimpleNamespace(codes=np.array([0, 1, 0]), domain_size=2),
        )
        const = SimpleNamespace(codes=np.zeros(3, dtype=np.int64), domain_size=1)
        assert refine_partition(parent, const) is parent

    def test_single_row(self):
        attr = SimpleNamespace(codes=np.array([2]), domain_size=3)
        part = refine_partition(RowPartition.trivial(1), attr)
        assert part.cell_of_row.tolist() == [0]
        assert part.cell_counts.tolist() == [1]
        assert part.cell_count == 1


class TestExpectedMiPermutation:
    def test_constant_variable_is_zero(self):
        assert expected_mi_permutation([4], [2, 2], 4) == 0.0

    def test_uniform_binary_matches_exhaustive_third(self):
        got = expected_mi_permutation([2, 2], [2, 2], 4)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert got == pytest.approx(
            oracle_permutation_mean_mi([2, 2], [2, 2]), abs=1e-12
        )

    def test_dominated_by_closed_form_bound(self):
        assert expected_mi_permutation([2, 2], [2, 2], 4) <= math.log2(4 / 3)

    def test_matches_exhaustive_mean_small_n(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            n = int(rng.integers(4, 8))
            a = np.bincount(rng.integers(0, rng.integers(1, 4), n))
            b = np.bincount(rng.integers(0, rng.integers(1, 4), n))
            a, b = a[a > 0], b[b > 0]
            got = expected_mi_permutation(a, b, n)
            want = oracle_permutation_mean_mi(a.tolist(), b.tolist())
            assert got == pytest.approx(want, abs=1e-9)

    def test_marginal_mismatch(self):
        with pytest.raises(ValueError, match="marginal"):
            expected_mi_permutation([2, 2], [3, 2], 4)

    def test_large_n_no_overflow(self):
        value = expected_mi_permutation([500_000, 500_000], [999_999, 1], 1_000_000)
        assert 0.0 <= value < 1e-4


class TestM0Bounds:
    def test_constant_variable_zero(self):
        assert m0_upper(1, 7, 100) == 0.0

    def test_small_uniform(self):
        assert m0_upper(2, 2, 4) == pytest.approx(math.log2(4 / 3), abs=1e-15)

    def test_larger_sample(self):
        assert m0_upper(2, 2, 100) == pytest.approx(math.log2(100 / 99), abs=1e-15)

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            m0_upper(2, 2, 1)

    def test_relaxed_direct_value(self):
        got = m0_relaxed(math.log2(3), 3, 100)
        assert got == pytest.approx(math.log2(109 / 99), abs=1e-12)
        assert got == pytest.approx(0.138823, abs=1e-4)

    def test_relaxed_dominates_upper(self):
        assert m0_relaxed(1.0, 2, 4) == pytest.approx(math.log2(8 / 3), abs=1e-12)
        assert m0_relaxed(1.0, 2, 4) >= m0_upper(2, 2, 4)

    def test_saturation_regime(self):
        got = m0_relaxed(200.0 - math.log2(1000), 1000, 1000)
        assert got == pytest.approx(200.0 - math.log2(999), abs=1e-9)

    def test_log_space_switch_is_continuous(self):
        for level in (60.0, 62.9, 63.0, 63.1, 66.0):
            direct = level + math.log1p(50 * 2.0**-level) / math.log(2) - math.log2(49)
            assert m0_relaxed(level, 1, 50) == pytest.approx(direct, rel=1e-12)

    def test_relaxed_validations(self):
        with pytest.raises(ValueError):
            m0_relaxed(1.0, 2, 1)
        with pytest.raises(ValueError):
            m0_relaxed(-0.5, 2, 10)


class TestCorrectionRelaxed:
    def test_two_triples(self):
        got = correction_relaxed([3, 3], 100, math.log2(3))
        assert got == pytest.approx(math.log2(109 / 99) / math.log2(3), abs=1e-12)
        assert got == pytest.approx(0.087590, abs=1e-5)

    def test_degenerate_normalizer_signals(self):
        with pytest.raises(ValueError, match="degenerate"):
            correction_relaxed([2, 2], 10, 0.0)

    def test_needs_two_sizes(self):
        with pytest.raises(ValueError):
            correction_relaxed([3], 10, 1.0)

    def test_vanishes_for_large_n(self):
        assert correction_relaxed([4, 4, 4], 10**9, 2.0) < 1e-6

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=6),
        n=st.integers(min_value=2, max_value=500),
    )
    @settings(max_examples=200, deadline=None)
    def test_sorting_equals_bruteforce_max(self, sizes, n):
        assert correction_relaxed_bits(sizes, n) == oracle_relaxed_correction_max(
            sizes, n
        )


class TestOracleCorrections:
    def test_pair_reduces_to_single_terms(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, d=2, n=40, dependent=False)
        a0, a1 = ds.attributes
        w_norm = a0.entropy + a1.entropy - max(a0.entropy, a1.entropy)
        got_u = correction_upper(ds, [0, 1])
        assert got_u == pytest.approx(
            m0_upper(a0.domain_size, a1.domain_size, 40) / w_norm, abs=1e-12
        )
        got_e = correction_exact(ds, [0, 1])
        counts0 = np.bincount(a0.codes)
        counts1 = np.bincount(a1.codes)
        want = expected_mi_permutation(counts0, counts1, 40) / w_norm
        assert got_e == pytest.approx(want, abs=1e-12)

    def test_three_attributes_equal_bruteforce(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, d=3, n=30)
        n = ds.n
        entropies = [a.entropy for a in ds.attributes]
        w_norm = sum(entropies) - max(entropies)

        def perm_sum(perm, term):
            total = 0.0
            part = refine_partition(RowPartition.trivial(n), ds.attributes[perm[0]])
            for nxt in perm[1:]:
                total += term(part, ds.attributes[nxt])
                part = refine_partition(part, ds.attributes[nxt])
            return total

        brute_exact = max(
            perm_sum(
                p,
                lambda part, attr: expected_mi_permutation(
                    part.cell_counts, np.bincount(attr.codes), n
                ),
            )
            for p in itertools.permutations(range(3))
        )
        brute_upper = max(
            perm_sum(
                p, lambda part, attr: m0_upper(part.cell_count, attr.domain_size, n)
            )
            for p in itertools.permutations(range(3))
        )
        assert correction_exact(ds, [0, 1, 2]) == pytest.approx(
            brute_exact / w_norm, abs=1e-12
        )
        assert correction_upper(ds, [0, 1, 2]) == pytest.approx(
            brute_upper / w_norm, abs=1e-12
        )

    def test_dominance_chain_sample(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            ds = random_dataset(rng, d=d, n=int(rng.integers(10, 50)))
            members = list(range(d))
            entropies = [a.entropy for a in ds.attributes]
            w_norm = sum(entropies) - max(entropies)
            if w_norm <= 0:
                continue
            exact = correction_exact(ds, members)
            upper = correction_upper(ds, members)
            relaxed = correction_relaxed(
                [a.domain_size for a in ds.attributes], ds.n, w_norm
            )
            assert exact <= upper + 1e-12
            assert upper <= relaxed + 1e-12

    def test_member_cap(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, d=9, n=20, dependent=False)
        with pytest.raises(ValueError, match="8"):
            correction_exact(ds, list(range(9)))


class TestScoreSubset:
    def test_identical_uniform_pair_scores_one(self):
        ds = EncodedDataset.from_codes(
            ["x", "y"], [np.array([0, 1, 0, 1]), np.array([0, 1, 0, 1])], 4
        )
        score = score_subset(ds, [0, 1])
        assert score.plugin_score == 1.0

    def test_jointly_uniform_pair_scores_zero(self):
        ds = EncodedDataset.from_codes(
            ["x", "y"], [np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])], 4
        )
        score = score_subset(ds, [0, 1])
        assert score.plugin_score == 0.0

    def test_functional_dependence_exact_one(self):
        # dyadic counts keep every entropy float-exact
        x = np.arange(8) % 4
        ds = EncodedDataset.from_codes(["x", "lo", "hi"], [x, x % 2, x // 2], 8)
        score = score_subset(ds, [0, 1, 2])
        assert score.plugin_score == 1.0

    def test_degenerate_normalizer_zero_score(self):
        ds = EncodedDataset.from_codes(
            ["x", "const"], [np.array([0, 1, 0, 1]), np.zeros(4, dtype=int)], 4
        )
        score = score_subset(ds, [0, 1])
        assert score.normalizer == 0.0
        assert (score.plugin_score, score.correction, score.corrected_score) == (
            0.0, 0.0, 0.0,
        )

    def test_invariant_identities(self):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, d=6, n=120)
        score = score_subset(ds, [5, 0, 3])
        assert score.total_correlation == pytest.approx(
            score.entropy_sum - score.joint_entropy, abs=1e-12
        )
        assert score.normalizer == pytest.approx(
            score.entropy_sum - score.entropy_max, abs=1e-12
        )
        assert score.corrected_score == pytest.approx(
            score.plugin_score - score.correction, abs=1e-12
        )
        assert 0.0 <= score.plugin_score <= 1.0

    def test_chain_rule_against_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            ds = random_dataset(rng, d=5, n=60)
            score = score_subset(ds, range(5))
            assert score.total_correlation == pytest.approx(
                chain_mi_sum(ds, score.members), abs=1e-9
            )
            assert score.joint_entropy == pytest.approx(
                subset_joint_entropy(ds, score.members), abs=1e-9
            )

    @given(seed=st.integers(0, 2**16), order=st.permutations(list(range(4))))
    @settings(max_examples=60, deadline=None)
    def test_order_invariance(self, seed, order):
        ds = random_dataset(np.random.default_rng(seed), d=4, n=30)
        base = score_subset(ds, [0, 1, 2, 3])
        other = score_subset(ds, order)
        assert other == base  # bit-identical fields including members

    def test_validations(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, d=3, n=10, dependent=False)
        with pytest.raises(ValueError):
            score_subset(ds, [0])
        with pytest.raises(ValueError):
            score_subset(ds, [0, 0])
        with pytest.raises(ValueError):
            score_subset(ds, [0, 7])
        with pytest.raises(ValueError):
            score_subset(ds, [0, 1], estimator="bogus")

    def test_estimator_variants_ordered(self):
        rng = np.random.default_rng(33)
        ds = random_dataset(rng, d=4, n=25)
        plugin = score_subset(ds, range(4), estimator="plugin")
        relaxed = score_subset(ds, range(4), estimator="relaxed")
        upper = score_subset(ds, range(4), estimator="upper")
        exact = score_subset(ds, range(4), estimator="exact")
        assert plugin.correction == 0.0
        assert plugin.corrected_score == plugin.plugin_score
        assert exact.corrected_score >= upper.corrected_score - 1e-12
        assert upper.corrected_score >= relaxed.corrected_score - 1e-12

    def test_tictactoe_top_set_scores(self, ttt):
        members = [ttt.index_of(n) for n in
                   ("top-left", "middle-middle", "bottom-right", "class")]
        score = score_subset(ttt, members)
        assert score.corrected_score == pytest.approx(0.08, abs=0.01)
        assert score.plugin_score == pytest.approx(0.12, abs=0.01)
