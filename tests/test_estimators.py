import math
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrsets import estimators
from corrsets.data import EncodedDataset
from corrsets.estimators import (
    RowPartition,
    correction_relaxed_bits,
    entropy,
    expected_mi_permutation,
    m0_relaxed,
    m0_upper,
    refine_partition,
    score_subset,
    xlog2x_table,
)
from corrsets.search import branch_and_bound
from helpers import (
    chain_mi_sum,
    oracle_hypergeometric_mean_mi,
    oracle_ordering_max,
    oracle_permutation_mean_mi,
    oracle_rational_mean_mi,
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

    @given(
        counts=st.lists(st.integers(0, 300), min_size=1, max_size=40),
        zeros=st.integers(0, 10),
        ones=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_bits_depend_on_count_multiset_only(self, counts, zeros, ones, seed):
        counts = np.array(counts, dtype=np.int64)
        n = int(counts.sum())
        padded = np.random.default_rng(seed).permutation(
            np.concatenate([counts, np.zeros(zeros, dtype=np.int64)])
        )
        if n > 0:
            assert entropy(padded, n) == entropy(counts, n)
        # cells of 0 and 1 rows add exactly nothing to the sorted sum
        more = np.sort(np.concatenate([padded, np.ones(ones, dtype=np.int64)]))
        table = xlog2x_table(300)
        assert np.cumsum(table[more])[-1] == np.cumsum(table[np.sort(counts)])[-1]

    @given(
        counts=st.lists(st.lists(st.integers(0, 300), min_size=1, max_size=10),
                        min_size=1, max_size=8),
        constant=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_rows_equal_single_calls(self, counts, constant, seed):
        rng = np.random.default_rng(seed)
        width = max(len(row) for row in counts) + 3
        batch = np.zeros((len(counts) + 1, width), dtype=np.int64)
        batch[-1, rng.integers(width)] = constant  # a constant row
        for r, row in enumerate(counts):
            # pad each row to the common width with 0 and 1 counts, then permute
            pad = rng.integers(0, 2, size=width - len(row))
            batch[r] = rng.permutation(np.concatenate([row, pad]))
        n = batch.sum(axis=1)  # a different n per row
        batch, n = batch[n > 0], n[n > 0]
        got = entropy(batch, n)
        assert got.shape == n.shape
        for row, total, h in zip(batch, n.tolist(), got.tolist()):
            assert h == entropy(row, total)
        # the scorer passes a transposed view, which is not in C order
        assert np.array_equal(entropy(np.asfortranarray(batch), n), got)

    @pytest.mark.parametrize("outer, inner", [(10, 1000), (1000, 10)])
    def test_table_growth_between_reads_keeps_the_longer_table(self, outer, inner,
                                                               monkeypatch):
        # one call grows the table while another is growing it: here the
        # inner call runs inside the outer one's np.concatenate, where a
        # thread switch could run it. Each must get a table that covers its
        # top, and the shared table must not shrink to the outer one's
        monkeypatch.setattr(estimators, "_XLOG2X", np.zeros(2))
        concatenate, inner_tables = np.concatenate, []

        def interleaved(arrays):
            if not inner_tables:  # marked first: the inner call concatenates too
                inner_tables.append(None)
                inner_tables[0] = xlog2x_table(inner)
            return concatenate(arrays)

        monkeypatch.setattr(np, "concatenate", interleaved)
        table = xlog2x_table(outer)
        assert table.shape[0] > outer and inner_tables[0].shape[0] > inner
        assert estimators._XLOG2X.shape[0] > max(outer, inner)

    def test_table_growth_from_racing_threads(self, monkeypatch):
        # more threads than cores grow the table from scratch at once
        monkeypatch.setattr(estimators, "_XLOG2X", np.zeros(2))
        tops = np.random.default_rng(7).integers(2, 5000, size=(30, 6)).tolist()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as pool:
                for row in tops:
                    estimators._XLOG2X = np.zeros(2)
                    tables = list(pool.map(xlog2x_table, row, timeout=10))
                    assert all(t.shape[0] > top for t, top in zip(tables, row))
                    assert estimators._XLOG2X.shape[0] > max(row)
        finally:
            sys.setswitchinterval(interval)

    def test_tictactoe_board_triples_tie_in_lexicographic_order(self, ttt):
        # four board-cell triples related by the board's symmetries score the
        # same mathematically; they must tie to the bit and rank by the
        # documented rule (smallest entropy-rank tuple first)
        store, _ = branch_and_bound(ttt, k=9)
        triples = [
            {"top-middle", "middle-left", "bottom-right"},
            {"top-middle", "middle-right", "bottom-left"},
            {"middle-left", "bottom-middle", "top-right"},
            {"middle-right", "bottom-middle", "top-left"},
        ]
        found = [(ranks, value) for ranks, value, score in store.results
                 if {ttt.attributes[i].name for i in score.members} in triples]
        assert len(found) == 4
        assert len({value for _, value in found}) == 1
        assert [ranks for ranks, _ in found] == sorted(ranks for ranks, _ in found)


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
    """Reference refinement: sort the (parent cell, code) keys with np.unique.
    Its cells are dense, so its label bound is its cell count."""
    if attr.domain_size <= 1:
        return parent
    keys = parent.cell_of_row.astype(np.int64) * attr.domain_size + attr.codes
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return RowPartition(inverse, counts, len(counts), len(counts))


def assert_same_partition(got, want):
    # labels below the bound, in the narrowest unsigned dtype that holds it
    assert got.cell_of_row.dtype == np.min_scalar_type(got.labels - 1)
    assert int(got.cell_of_row.max(initial=0)) < got.labels
    # ranking the labels gives the dense reference cells, so two rows share
    # a label exactly when they share a cell, and label order is cell order
    assert np.array_equal(np.unique(got.cell_of_row, return_inverse=True)[1],
                          want.cell_of_row)
    assert got.cell_counts.dtype == np.int64
    assert np.array_equal(got.cell_counts, want.cell_counts)
    assert got.cell_count == want.cell_count


def compacts(parent, attr) -> bool:
    """Whether refining ``parent`` by ``attr`` renumbers the parent first:
    only dense labels make its key space countable, or its key space does
    not fit in 64 bits."""
    space = parent.labels * attr.domain_size
    countable = estimators._COUNTING_SPACE_PER_ROW * parent.cell_of_row.shape[0]
    return space > countable >= parent.cell_count * attr.domain_size or space > 2**64


def counting_numbering(monkeypatch) -> list:
    """A list that gets one entry per call of ``estimators._number``."""
    numbered, number = [], estimators._number
    monkeypatch.setattr(estimators, "_number",
                        lambda *args: numbered.append(1) or number(*args))
    return numbered


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
            parent, got = got, refine_partition(got, attr)
            want = unique_refine(want, attr)
            assert_same_partition(got, want)
            # the keys of the parent's labels, or of its dense cells where
            # it had to be renumbered, bound the child's labels
            kept = parent.cell_count if compacts(parent, attr) else parent.labels
            assert got.labels == kept * attr.domain_size

    @pytest.mark.parametrize("first, second, counted", [
        ("binary", "ids", True),  # 2 labels x 500 codes: 2n keys, counted
        ("ids", "wide", False),  # 500 labels x 50 codes: 50n keys, sorted
    ])
    def test_counting_and_sorting_paths(self, first, second, counted, monkeypatch):
        n = 500
        rng = np.random.default_rng(3)
        columns = {
            "binary": SimpleNamespace(codes=rng.integers(0, 2, n), domain_size=2),
            "ids": SimpleNamespace(codes=rng.permutation(n), domain_size=n),
            "wide": SimpleNamespace(codes=rng.integers(0, 50, n), domain_size=50),
        }
        parent = refine_partition(RowPartition.trivial(n), columns[first])
        attr = columns[second]
        space = parent.labels * attr.domain_size
        assert (space <= estimators._COUNTING_SPACE_PER_ROW * n) == counted
        numbered = counting_numbering(monkeypatch)
        got = refine_partition(parent, attr)
        assert not numbered  # either way the keys are the labels
        assert got.labels == space
        assert_same_partition(got, unique_refine(parent, attr))

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("cell_count, domain", [
        (15, 17), (16, 16), (257, 1), (1, 257),  # key spaces 255, 256 and 257
        (255, 257), (256, 256), (65_537, 1), (1, 65_537),  # 65,535 to 65,537
        (65_537, 65_537),  # above 2**32
    ])
    def test_key_spaces_at_dtype_edges(self, cell_count, domain, wide):
        # keys, the child's labels, take the narrowest dtype that holds the
        # key space cell_count * domain, whatever the dtype of the cells and
        # codes; 40,000 rows more than cells make every key space up to
        # 65,537 a counted one
        rng = np.random.default_rng(cell_count + domain)
        cells = rng.permutation(np.concatenate([
            np.arange(cell_count), rng.integers(0, cell_count, 40_000)]))
        codes = rng.integers(0, domain, cells.shape[0])
        codes[cells == 0], codes[cells == cell_count - 1] = 0, domain - 1  # both ends
        if not wide:
            cells = cells.astype(np.min_scalar_type(cell_count - 1))
            codes = codes.astype(np.min_scalar_type(domain - 1))
        parent = RowPartition(cells, np.bincount(cells), cell_count, cell_count)
        attr = SimpleNamespace(codes=codes, domain_size=domain)
        got = refine_partition(parent, attr)
        assert got.labels == cell_count * domain
        assert got.cell_of_row.dtype == np.min_scalar_type(cell_count * domain - 1)
        keys = cells.astype(np.int64) * domain + codes.astype(np.int64)
        assert np.array_equal(got.cell_of_row, keys)
        _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        assert_same_partition(got, RowPartition(inverse, counts, len(counts), len(counts)))

    def test_constant_attribute_keeps_parent_cells(self):
        parent = refine_partition(
            RowPartition.trivial(3),
            SimpleNamespace(codes=np.array([0, 1, 0]), domain_size=2),
        )
        const = SimpleNamespace(codes=np.zeros(3, dtype=np.int64), domain_size=1)
        # refined like any other attribute, into the parent's cells
        part = refine_partition(parent, const)
        assert part.cell_of_row.tolist() == parent.cell_of_row.tolist()
        assert part.cell_counts.tolist() == parent.cell_counts.tolist()
        assert part.cell_count == parent.cell_count
        assert part.labels == parent.labels

    def test_single_row(self):
        attr = SimpleNamespace(codes=np.array([2]), domain_size=3)
        part = refine_partition(RowPartition.trivial(1), attr)
        assert part.cell_of_row.tolist() == [2]  # the key 0 * 3 + 2
        assert part.labels == 3
        assert part.cell_counts.tolist() == [1]
        assert part.cell_count == 1

    def test_chain_reaches_every_compaction_trigger(self, monkeypatch):
        # each step: (codes, domain, renumbered first, child's label bound)
        n = 100
        rng = np.random.default_rng(11)
        ids = rng.permutation(n)
        steps = [
            (rng.integers(0, 5, n), 20, False, 20),  # 20 keys: counted, 5 cells
            # 400 keys are too many to count, the 5 cells' 100 are not
            (rng.integers(0, 4, n), 20, True, 5 * 20),
            (rng.integers(0, 2, n), 2, False, 100 * 2),  # 200 keys: counted
            # from here the cells' keys are too many to count too: sorted
            (ids, 2**20, False, 200 * 2**20),
            (ids, 2**20, False, 200 * 2**40),
            # 200 * 2**60 keys do not fit in 64 bits; 100 cells' keys do
            (ids, 2**20, True, 100 * 2**20),
        ]
        numbered = counting_numbering(monkeypatch)
        got = want = RowPartition.trivial(n)
        for codes, domain, renumbered, labels in steps:
            attr = SimpleNamespace(codes=codes, domain_size=domain)
            assert compacts(got, attr) == renumbered
            before = len(numbered)
            got, want = refine_partition(got, attr), unique_refine(want, attr)
            assert len(numbered) - before == renumbered
            assert got.labels == labels
            assert_same_partition(got, want)


class TestDeferredNumbering:
    """refine_partition defers nothing: a child's labels are its keys, so
    reading cell_of_row computes nothing, and rows are renumbered only to
    shrink a parent's label space (see TestRefineKernel). The names are
    kept from when rows were numbered on the first read."""

    n = 500

    def columns(self):
        rng = np.random.default_rng(3)
        return {
            "binary": SimpleNamespace(codes=rng.integers(0, 2, self.n), domain_size=2),
            "ids": SimpleNamespace(codes=rng.permutation(self.n), domain_size=self.n),
            "wide": SimpleNamespace(codes=rng.integers(0, 50, self.n), domain_size=50),
            "ternary": SimpleNamespace(codes=rng.integers(0, 3, self.n), domain_size=3),
        }

    @pytest.mark.parametrize("first, second", [
        ("binary", "ids"),  # 2n keys: counted
        ("ids", "wide"),  # 50n keys: sorted
    ])
    def test_numbered_once_on_first_read(self, first, second, monkeypatch):
        numbered = counting_numbering(monkeypatch)
        columns = self.columns()
        parent = refine_partition(RowPartition.trivial(self.n), columns[first])
        part = refine_partition(parent, columns[second])
        cells = part.cell_of_row
        assert part.cell_of_row is cells
        assert not numbered
        attr = columns[second]
        keys = parent.cell_of_row.astype(np.int64) * attr.domain_size + attr.codes
        assert np.array_equal(cells, keys)
        assert_same_partition(part, unique_refine(parent, attr))

    @pytest.mark.parametrize("first, second", [("binary", "ids"), ("ids", "wide")])
    def test_late_read_refines_as_early_read(self, first, second):
        columns = self.columns()
        parent = refine_partition(RowPartition.trivial(self.n), columns[first])
        early = refine_partition(parent, columns[second])
        early.cell_of_row
        late = refine_partition(parent, columns[second])
        want = unique_refine(unique_refine(RowPartition.trivial(self.n), columns[first]),
                             columns[second])
        for attr in (columns["ternary"], columns["wide"]):
            got_late, got_early = refine_partition(late, attr), refine_partition(early, attr)
            assert got_late.cell_of_row.dtype == got_early.cell_of_row.dtype
            assert np.array_equal(got_late.cell_of_row, got_early.cell_of_row)
            assert got_late.labels == got_early.labels
            assert_same_partition(got_late, unique_refine(want, attr))

    def test_racing_first_reads_agree(self):
        # a partition holds no state to race on: threads that refine the
        # same parent at once get the reference partition
        columns = self.columns()
        parent = refine_partition(RowPartition.trivial(self.n), columns["binary"])
        want = unique_refine(parent, columns["ids"])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                for _ in range(20):
                    parts = [pool.submit(refine_partition, parent, columns["ids"])
                             for _ in range(4)]
                    for part in parts:
                        assert_same_partition(part.result(timeout=10), want)
        finally:
            sys.setswitchinterval(interval)

    def test_counts_need_no_numbering(self, monkeypatch):
        def fail(*args):
            raise AssertionError("rows numbered")

        monkeypatch.setattr(estimators, "_number", fail)
        columns = self.columns()
        part = refine_partition(RowPartition.trivial(self.n), columns["wide"])
        assert part.cell_count == 50
        assert part.cell_counts.sum() == self.n
        # 2 x 3 x 50 = 300 labels: the counting regime never renumbers
        for name in ("binary", "ternary", "wide"):
            part = refine_partition(part, columns[name])
        assert part.labels == 50 * 2 * 3 * 50
        assert part.cell_counts.sum() == self.n


@st.composite
def marginal_pairs(draw):
    """Two positive count vectors of 1-8 cells with the same sum n, and
    each of them again, permuted and padded with up to 3 zero counts."""
    a = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    n = sum(a)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=7))) if n > 1 else []
    b = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, n])]
    moved = [draw(st.permutations(m + [0] * draw(st.integers(0, 3)))) for m in (a, b)]
    return a, b, n, *moved


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
        for rows, cols in [
            ([2, 2], [3, 2]),
            ([2, 2], [3, 2, -1]),  # sums to n with a negative count
            ([2.5, 2.5], [2, 2]),  # not whole numbers
            ([5, -1], [4]),
            ([math.inf, 4], [4]),
        ]:
            with pytest.raises(ValueError, match="marginal"):
                expected_mi_permutation(rows, cols, 4)

    def test_large_n_no_overflow(self):
        value = expected_mi_permutation([500_000, 500_000], [999_999, 1], 1_000_000)
        assert 0.0 <= value < 1e-4

    def test_matches_hypergeometric_reference_medium_n(self):
        # n! is far too many permutations to enumerate here
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(50, 2001))
            a, b = (np.bincount(rng.integers(0, rng.integers(2, 9), n)) for _ in "ab")
            a, b = a[a > 0], b[b > 0]
            want = oracle_hypergeometric_mean_mi(a.tolist(), b.tolist())
            assert expected_mi_permutation(a, b, n) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("a, b, n", [
        ([50] * 2000, [50] * 2000, 100_000),
        ([40] * 500, [250] * 80, 20_000),
        ([7] * 300, [21] * 100, 2_100),
    ])
    def test_matches_rational_reference_large_n(self, a, b, n):
        want = oracle_rational_mean_mi(a, b)
        assert expected_mi_permutation(a, b, n) == pytest.approx(want, rel=1e-13)

    @given(marginals=marginal_pairs())
    @example(marginals=([1, 2, 3], [3, 1, 2], 6, [0, 3, 2, 1], [2, 1, 3, 0]))
    @settings(max_examples=150, deadline=None)
    def test_bits_depend_on_count_multisets_only(self, marginals):
        a, b, n, a_moved, b_moved = marginals
        assert (expected_mi_permutation(a_moved, b_moved, n)
                == expected_mi_permutation(a, b, n))

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
        got = correction_relaxed_bits([3, 3], 100) / math.log2(3)
        assert got == pytest.approx(math.log2(109 / 99) / math.log2(3), abs=1e-12)
        assert got == pytest.approx(0.087590, abs=1e-5)

    def test_vanishes_for_large_n(self):
        assert correction_relaxed_bits([4, 4, 4], 10**9) / 2.0 < 1e-6

    @pytest.mark.parametrize("sizes", [[5], []])
    def test_fewer_than_two_sizes_add_nothing(self, sizes):
        assert correction_relaxed_bits(sizes, 100) == 0.0

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
        got_u = score_subset(ds, [0, 1], estimator="upper").correction
        assert got_u == pytest.approx(
            m0_upper(a0.domain_size, a1.domain_size, 40) / w_norm, abs=1e-12
        )
        got_e = score_subset(ds, [0, 1], estimator="exact").correction
        counts0 = np.bincount(a0.codes)
        counts1 = np.bincount(a1.codes)
        want = expected_mi_permutation(counts0, counts1, 40) / w_norm
        assert got_e == pytest.approx(want, abs=1e-12)

    def test_ordering_max_equals_bruteforce(self, ttt):
        # m0_upper reads only the prefix's cell count, which no ordering
        # changes, so upper equals the brute-force maximum bit for bit, up
        # to the 8-member cap; the oracle lists exact's cell counts in
        # another order, which its grouped sum does not see, and exact
        # agrees within 1e-12
        def upper(n):
            return lambda counts, attr: m0_upper(len(counts), attr.domain_size, n)

        def exact(n):
            return lambda counts, attr: expected_mi_permutation(
                counts, np.bincount(attr.codes), n)

        rng = np.random.default_rng(4)
        for d in range(2, 8):
            for _ in range(5):
                ds = random_dataset(rng, d=d, n=int(rng.integers(10, 60)))
                got = score_subset(ds, range(d), estimator="upper")
                assert got.normalizer > 0.0
                brute = oracle_ordering_max(ds, range(d), upper(ds.n))
                assert got.correction == brute / got.normalizer
                if d <= 4:
                    got = score_subset(ds, range(d), estimator="exact")
                    brute = oracle_ordering_max(ds, range(d), exact(ds.n))
                    assert got.correction == pytest.approx(brute / got.normalizer, abs=1e-12)
        got = score_subset(ttt, range(8), estimator="upper")
        assert got.correction == oracle_ordering_max(ttt, range(8), upper(ttt.n)) / got.normalizer

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
            exact, upper, relaxed = (
                score_subset(ds, members, estimator=est).correction
                for est in ("exact", "upper", "relaxed")
            )
            assert exact <= upper + 1e-12
            assert upper <= relaxed + 1e-12

    def test_member_cap(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, d=9, n=20, dependent=False)
        with pytest.raises(ValueError, match="8"):
            score_subset(ds, list(range(9)), estimator="exact")
        # one varying column: the normalizer is 0, and the cap still holds
        cols = [np.arange(20) % 3] + [np.zeros(20, dtype=int)] * 8
        flat = EncodedDataset.from_codes([f"A{j}" for j in range(9)], cols, 20)
        for estimator in ("upper", "exact"):
            with pytest.raises(ValueError, match="8"):
                score_subset(flat, list(range(9)), estimator=estimator)


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
