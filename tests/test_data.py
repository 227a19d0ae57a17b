import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrsets.data import (
    DataError,
    EncodedDataset,
    ParseError,
    RawTable,
    discretize_equal_frequency,
    encode,
    parse_csv,
)


class TestParseCsv:
    def test_header_row(self):
        table = parse_csv("a,b\n1,2\n3,4")
        assert table.column_names == ("a", "b")
        assert table.row_count == 2
        assert table.columns == (("1", "3"), ("2", "4"))

    def test_synthesized_names(self):
        table = parse_csv("1,2\n1,2", has_header=False)
        assert table.column_names == ("X1", "X2")
        assert table.row_count == 2

    def test_ragged_row_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_csv("a,b\n1")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            parse_csv("")

    def test_bytes_and_quoting(self):
        table = parse_csv(b'a,b\n"x,y",2\n"z",3')
        assert table.columns[0] == ("x,y", "z")

    def test_rows_with_empty_fields_rejected_with_count(self):
        table = parse_csv("a,b\n1,2\n,2\n3,\n4,5")
        assert table.row_count == 2
        assert table.rejected_rows == 2

    def test_duplicate_column_names(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_csv("a,a\n1,2")

    def test_non_utf8(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_csv(b"\xff\xfe-is-not-utf8\n1,2")

    def test_utf8_bom_dropped(self):
        plain = parse_csv("a,b\nx,1\n")
        assert parse_csv("a,b\nx,1\n".encode("utf-8-sig")) == plain
        assert parse_csv("\ufeffa,b\nx,1\n") == plain
        # only one leading mark is a byte-order mark; a second is data
        assert parse_csv("\ufeff\ufeffa,b\n").column_names == ("\ufeffa", "b")

    def test_bare_cr_line_endings(self):
        text = "a,b\nx,1\ny,2\n"
        assert parse_csv(text.replace("\n", "\r")) == parse_csv(text)
        assert parse_csv(text.replace("\n", "\r").encode()) == parse_csv(text)

    def test_crlf_keeps_quoted_line_break(self):
        table = parse_csv(b'a,b\r\n"two\r\nlines",1\r\nz,2\r\n')
        assert table.columns == (("two\r\nlines", "z"), ("1", "2"))

    def test_oversized_field_names_line(self):
        big = "x" * (csv.field_size_limit() + 1)
        with pytest.raises(ParseError, match="line 3"):
            parse_csv(f"a,b\nx,1\n{big},2\n")


class TestDiscretize:
    def test_exact_division(self):
        codes = discretize_equal_frequency(list(range(1, 11)), bins=5)
        assert sorted(np.bincount(codes)) == [2, 2, 2, 2, 2]
        assert codes.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_constant_column_single_bin(self):
        codes = discretize_equal_frequency([7.0, 7.0, 7.0, 7.0], bins=5)
        assert codes.tolist() == [0, 0, 0, 0]

    def test_uneven_split(self):
        # rank-based cut: n=3, bins=2 -> group sizes 2 and 1
        codes = discretize_equal_frequency([1.0, 2.0, 3.0], bins=2)
        assert codes.tolist() == [0, 0, 1]

    def test_boundary_tie_goes_to_lower_bin(self):
        # value 2 straddles the rank cut; all its copies take the lower bin
        codes = discretize_equal_frequency([1.0, 2.0, 2.0, 3.0], bins=2)
        assert codes.tolist() == [0, 0, 0, 1]

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            discretize_equal_frequency([1.0, float("nan")], bins=2)

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            discretize_equal_frequency([1.0, 2.0], bins=0)

    @given(
        values=st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=1, max_size=60,
        ),
        bins=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_properties(self, values, bins):
        codes = discretize_equal_frequency(values, bins)
        # codes dense from zero
        assert sorted(set(codes.tolist())) == list(range(codes.max() + 1))
        # the code is a function of the value, monotone in it
        seen = {}
        for v, c in zip(values, codes.tolist()):
            assert seen.setdefault(v, c) == c
        pairs = sorted(seen.items())
        assert all(a[1] <= b[1] for a, b in zip(pairs, pairs[1:]))
        # without ties, group sizes differ by at most one
        if len(seen) == len(values):
            sizes = np.bincount(codes)
            assert sizes.max() - sizes.min() <= 1


class TestEncode:
    def test_first_occurrence_order(self):
        table = RawTable(("c",), (("a", "b", "a"),), 3)
        ds = encode(table, numeric_cols="none")
        assert ds.attributes[0].codes.tolist() == [0, 1, 0]
        assert ds.attributes[0].domain_size == 2

    def test_numeric_flag_off_token_semantics(self):
        table = RawTable(("c",), (("1.0", "2.0", "1.0", "3.0"),), 4)
        ds = encode(table, numeric_cols="none")
        assert ds.attributes[0].domain_size == 3

    def test_numeric_auto_discretizes(self):
        table = RawTable(("c",), (tuple(str(i) for i in range(10)),), 10)
        ds = encode(table, bins=5)
        assert ds.attributes[0].domain_size == 5

    def test_mixed_auto_detection(self):
        table = RawTable(("num", "txt"), (("1", "2", "3"), ("a", "b", "a")), 3)
        ds = encode(table, bins=2)
        assert ds.attributes[0].domain_size == 2  # discretized
        assert ds.attributes[1].domain_size == 2  # tokens

    def test_explicit_numeric_cols(self):
        table = RawTable(("num", "also"), (("1", "2", "3"), ("1", "2", "3")), 3)
        ds = encode(table, bins=2, numeric_cols=["num"])
        assert ds.attributes[0].domain_size == 2
        assert ds.attributes[1].domain_size == 3  # kept as tokens

    def test_unknown_numeric_col(self):
        table = RawTable(("a",), (("1", "2"),), 2)
        with pytest.raises(DataError, match="unknown numeric"):
            encode(table, numeric_cols=["nope"])

    def test_non_finite_tokens_stay_categorical_under_auto(self):
        table = RawTable(("a",), (("inf", "1", "2", "1"),), 4)
        ds = encode(table)  # auto-detection must not pick this column
        assert ds.attributes[0].domain_size == 3
        with pytest.raises(DataError, match="non-finite"):
            encode(table, numeric_cols=["a"])

    def test_few_valued_numeric_column_not_merged(self):
        # as many distinct values as bins or fewer: one code per value
        ds = encode(parse_csv("c\n" + "1\n" * 90 + "2\n" * 5 + "3\n" * 5))
        attr = ds.attributes[0]
        assert attr.domain_size == 3
        assert attr.codes.tolist() == [0] * 90 + [1] * 5 + [2] * 5

    def test_explicit_numeric_text_column_names_token(self):
        table = RawTable(("num", "txt"), (("1", "2", "3"), ("1", "b", "3")), 3)
        with pytest.raises(DataError, match=r"column 'txt'.*'b'"):
            encode(table, numeric_cols=["num", "txt"])

    def test_too_few_rows(self):
        table = RawTable(("a",), (("1",),), 1)
        with pytest.raises(DataError, match="n - 1"):
            encode(table)

    def test_tictactoe_shape(self, ttt):
        assert ttt.n == 958
        assert ttt.d == 10
        counts = np.bincount(ttt.attributes[-1].codes)
        assert sorted(counts.tolist()) == [332, 626]

    def test_entropy_invariants(self, ttt):
        import math
        for attr in ttt.attributes:
            assert attr.entropy <= math.log2(attr.domain_size) + 1e-12
            counts = np.bincount(attr.codes, minlength=attr.domain_size)
            assert (counts > 0).all()

    @given(st.lists(st.sampled_from("abcd"), min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_reencoding_preserves_entropy(self, tokens):
        table = RawTable(("c",), (tuple(tokens),), len(tokens))
        ds = encode(table, numeric_cols="none")
        relabeled = tuple(str(9 - c) for c in ds.attributes[0].codes.tolist())
        ds2 = encode(
            RawTable(("c",), (relabeled,), len(tokens)), numeric_cols="none"
        )
        assert ds2.attributes[0].domain_size == ds.attributes[0].domain_size
        assert ds2.attributes[0].entropy == pytest.approx(
            ds.attributes[0].entropy, abs=1e-12
        )

    def test_drop_constant(self):
        ds = EncodedDataset.from_codes(
            ["k", "v"], [np.zeros(4, dtype=int), np.array([0, 1, 0, 1])], 4
        )
        kept = ds.drop_constant()
        assert kept.names == ("v",)

    def test_from_codes_compacts(self):
        ds = EncodedDataset.from_codes(["v"], [np.array([5, 9, 5, 9])], 4)
        assert ds.attributes[0].codes.tolist() == [0, 1, 0, 1]
        assert ds.attributes[0].domain_size == 2

    @given(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=30))
    @example([-2, 5, -2, 0])
    @settings(max_examples=200, deadline=None)
    def test_from_codes_ranks_codes_in_value_order(self, codes):
        codes = np.array(codes, dtype=np.int64)
        values, ranks = np.unique(codes, return_inverse=True)
        attr = EncodedDataset.from_codes(["v"], [codes], len(codes)).attributes[0]
        assert attr.codes.dtype == np.int64
        assert attr.codes.tolist() == ranks.tolist()
        assert attr.domain_size == len(values)

    def test_from_codes_sparse_codes(self):
        ds = EncodedDataset.from_codes(["v"], [np.array([7, 3, 7, 100])], 4)
        assert ds.attributes[0].codes.tolist() == [1, 0, 1, 2]
        assert ds.attributes[0].domain_size == 3
