import contextlib
import csv
import io
import os
import re
import sys
import threading
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrsets import data as data_module
from corrsets.data import (
    DataError,
    EncodedDataset,
    ParseError,
    RawTable,
    _ByteTokens,
    _parse_reader,
    discretize_equal_frequency,
    encode,
    parse_csv,
)

# characters that csv keeps inside a field (str.splitlines splits on some of
# them), then the ones that make a file not plain
FIELD_CHARS = "xy\u00e9\U0001d11e\x0b\x0c\x1e\x85\u2028\ufeff "
ANY_CHARS = FIELD_CHARS + ',\n\r"\x00\ud800'


@st.composite
def csv_texts(draw):
    """Mostly rectangular files, with the odd special character or line."""
    d = draw(st.integers(1, 3))
    field = st.text(st.sampled_from(FIELD_CHARS), max_size=3)
    line = st.one_of(
        st.lists(field, min_size=d, max_size=d).map(",".join),
        st.text(st.sampled_from(ANY_CHARS), max_size=4),
    )
    lines = draw(st.lists(line, min_size=1, max_size=6))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + eol.join(lines) + draw(st.sampled_from(["", eol]))


def parsed(parse, data, has_header):
    try:
        return parse(data, has_header)
    except ParseError as exc:
        return f"ParseError: {exc}"


# tokens for encode: over 8 bytes (keys of more than one word), non-ASCII,
# numerals float() takes, one much wider than the rest, and non-finite
# numerals
TEXT_TOKENS = ["a", "b", "\u00e9", "\u00fc\U0001d11e", "abcdefghi", "\u00e9" * 5,
               "long-token-x", "x" * 200]
NUMERALS = [" 1", "1_0", "-0.0", "0.0", "0", "\u0661", "2.5", "1e3", "12345678",
            "123456789", "7.000000001"]
NON_FINITE = ["inf", "-inf", "nan", "NaN"]


# tokens next to the edges of the byte path in ``_ByteTokens.decimals``:
# mantissas around 2**53, tokens of 15 to 17 bytes, and what only float() takes
DECIMAL_EDGES = ["-0", "+.5", "5.", ".", "-", "+", "-.", "1.2.3", "1234.5678.9", "1e5",
                 "1_0", " 1", "inf", "nan", "\u0661", "9007199254740991", "9007199254740992",
                 "9007199254740993", "-900719925474099.1", "900719925474099.3",
                 "12345.678901234", "12345.6789012345", "12345.67890123456"]


@st.composite
def decimal_tokens(draw):
    """``[+-]?digits[.digits]`` with 0 to 19 digits and the dot anywhere."""
    token = draw(st.text("0123456789", max_size=19))
    dot = draw(st.integers(0, len(token) + 1))  # past the end: no dot
    if dot <= len(token):
        token = token[:dot] + "." + token[dot:]
    return (draw(st.sampled_from(["", "+", "-"])) + token) or "0"


def byte_decimal(token):
    """Whether ``_ByteTokens.decimals`` reads ``token`` rather than leaving
    it to float()."""
    match = re.fullmatch(r"[+-]?([0-9]*)\.?([0-9]*)", token)
    digits = match and match[1] + match[2]
    return bool(digits) and len(token) <= 16 and int(digits) < 2**53


def float_parses(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


@st.composite
def plain_csv_texts(draw):
    """Plain CSV: columns of text, numerals, or numerals with non-finite
    ones, the odd empty field and blank line, LF or CRLF line ends."""
    d = draw(st.integers(1, 4))
    pools = draw(st.lists(st.sampled_from([TEXT_TOKENS, NUMERALS, NUMERALS + NON_FINITE]),
                          min_size=d, max_size=d))
    rows = draw(st.lists(st.tuples(*(st.sampled_from(pool) for pool in pools)).map(list),
                         min_size=2, max_size=20))
    for at in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                      st.integers(0, d - 1)), max_size=2)):
        rows[at[0]][at[1]] = ""
    lines = [",".join(f"c{j}" for j in range(d))] + [",".join(row) for row in rows]
    for at in draw(st.lists(st.integers(1, len(lines)), max_size=2)):
        lines.insert(at, "")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def encoded(table, numeric_cols):
    try:
        ds = encode(table, numeric_cols=numeric_cols)
    except DataError as exc:
        return f"DataError: {exc}"
    return ds.n, [(a.name, a.kind, a.non_finite, a.domain_size, a.entropy,
                   a.codes.dtype, a.codes.tolist()) for a in ds.attributes]


def first_occurrence_codes(tokens):
    """The reference categorical coding: one dict lookup per token."""
    mapping = {}
    return [mapping.setdefault(tok, len(mapping)) for tok in tokens]


def reader_columns(text):
    """Each column's tokens by name, as csv.reader splits ``text``, with
    blank lines and the rows that hold an empty field dropped."""
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    rows[1:] = [row for row in rows[1:] if "" not in row]
    return dict(zip(rows[0], map(list, zip(*rows[1:])))) if len(rows) > 1 else {}


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

    @given(
        text=st.one_of(csv_texts(), st.text(st.sampled_from(ANY_CHARS), max_size=12)),
        as_bytes=st.booleans(),
        has_header=st.booleans(),
        chunk=st.one_of(st.integers(1, 8), st.just(data_module._CHUNK_BYTES)),
    )
    @example(text="\n", as_bytes=False, has_header=True, chunk=1 << 20)
    @example(text="\nab\ncd", as_bytes=False, has_header=True, chunk=1 << 20)
    @example(text="\ud800", as_bytes=False, has_header=True, chunk=1 << 20)
    # rows with empty fields in several chunks, the header's own kept
    @example(text="a,\r\nx,\r\n,y\r\nz,w\r\nu,v\r\n,\r\n",
             as_bytes=True, has_header=True, chunk=1)
    @example(text=",b\nx,\nz,w\n,y\n", as_bytes=False, has_header=False, chunk=4)
    @example(text="a,b\n,\n,y\n", as_bytes=False, has_header=True, chunk=1)
    @example(text="a\nx\n\ny\n", as_bytes=False, has_header=True, chunk=2)
    # blank lines, skipped inside and across chunks, but not before the header
    @example(text="a,b\n\nx,y\r\n\r\n\n,z\n\nu,v\n", as_bytes=True,
             has_header=True, chunk=2)
    @example(text="\na,b\nx,y\n", as_bytes=False, has_header=False, chunk=1)
    @example(text="a,b\n\nx\n", as_bytes=False, has_header=True, chunk=8)
    @example(text="a,a\nx,y\n", as_bytes=False, has_header=True, chunk=1)
    # a chunk that is not ASCII is decoded: invalid only after ASCII chunks,
    # valid after them; and a CR first seen in a later chunk
    @example(text="a,b\nx,y\nz,\ud800\n", as_bytes=True, has_header=True, chunk=1)
    @example(text="a,b\nx,y\n\u00e9,z\n", as_bytes=True, has_header=True, chunk=1)
    @example(text="a,b\nx,y\nz,w\r\nu,v\r\nt,s\n", as_bytes=True,
             has_header=True, chunk=3)
    @settings(max_examples=1000, deadline=None)
    def test_matches_csv_reader(self, text, as_bytes, has_header, chunk):
        data = text.encode("utf-8", "surrogatepass") if as_bytes else text
        with mock.patch.object(data_module, "_CHUNK_BYTES", chunk):
            assert parsed(parse_csv, data, has_header) == parsed(
                _parse_reader, data, has_header)

    def test_plain_csv_skips_csv_reader(self, monkeypatch, ttt_csv, ttt_table):
        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called")

        text = "a,b\r\nx,1\r\ny,2\r\n\r\n"  # csv skips the blank last line
        expected = _parse_reader(text, True)
        assert expected == RawTable(("a", "b"), (("x", "y"), ("1", "2")), 2)
        monkeypatch.setattr(csv, "reader", refuse)
        assert parse_csv(text) == parse_csv(text.encode()) == expected
        assert parse_csv(ttt_csv.read_bytes()) == ttt_table
        text = "a,b\nx,\n\ny,2\n,3\n"  # a blank line, rows with empty fields
        assert parse_csv(text) == RawTable(("a", "b"), (("y",), ("2",)), 1, 2)
        with pytest.raises(AssertionError, match="csv.reader called"):
            parse_csv('a,b\r\n"x",1\r\n')

    @given(
        lines=st.lists(st.lists(st.text("xy\r", max_size=3), min_size=2, max_size=2)
                       .map(",".join), min_size=1, max_size=6),
        eol=st.sampled_from(["\n", "\r\n"]),
        end=st.sampled_from(["", "\n", "\r", "\r\n", "\n\r", "\r\r\n"]),
        chunk=st.integers(1, 8),
    )
    @example(lines=["x,y", "x\r,y"], eol="\r\n", end="", chunk=1)  # a CR in a field
    @example(lines=["x,y", "y,x"], eol="\r\n", end="\r", chunk=1)  # a bare CR at the end
    @settings(max_examples=300, deadline=None)
    def test_plain_path_takes_crs_only_in_crlf(self, lines, eol, end, chunk):
        # each chunk checks its own CRs, and the bytes after the last line
        # are checked apart: together, every CR of the file is in a CRLF
        data = (eol.join(lines) + end).encode()
        with mock.patch.object(data_module, "_CHUNK_BYTES", chunk):
            plain = data_module._parse_plain(data, False)
        assert (plain is None) == (data.count(b"\r") != data.count(b"\r\n"))
        if plain is not None:
            assert plain == _parse_reader(data, False)

    def test_plain_parse_keeps_the_input_bytes(self):
        data = b"a,b\nx,1\ny,2"
        table = parse_csv(data)
        for column in table.columns:
            assert np.shares_memory(column.buf, np.frombuffer(data, np.uint8))
            assert len(column.buf) == len(data)  # nothing appended

    def test_byte_columns_read_as_tuples(self, ttt_csv):
        data = ttt_csv.read_bytes()
        table = parse_csv(data)
        for column in table.columns:
            assert isinstance(column, _ByteTokens)
            for offsets in (column.starts, column.ends):  # one run per column
                assert offsets.ndim == 1 and offsets.flags.c_contiguous
            assert column[1:3] == tuple(column)[1:3]
            assert hash(column) == hash(tuple(column))
            assert repr(column) == repr(tuple(column))
            assert column != list(column)
        assert hash(table) == hash(_parse_reader(data, True))


def stable_discretize(values, bins):
    """Equal-frequency codes from Python's stable sort, loop by loop."""
    n = len(values)
    order = sorted(range(n), key=values.__getitem__)
    distinct = sorted(set(values))
    if len(distinct) <= bins:
        code = {v: c for c, v in enumerate(distinct)}
        return [code[v] for v in values]
    base, rem = divmod(n, bins)
    group_of_rank = [g for g in range(bins) for _ in range(base + (g < rem))]
    first_rank = {}
    for rank, i in enumerate(order):
        first_rank.setdefault(values[i], rank)
    groups = [group_of_rank[first_rank[v]] for v in values]
    used = {g: code for code, g in enumerate(sorted(set(groups)))}
    return [used[g] for g in groups]


class TestDiscretize:
    def test_exact_division(self):
        codes, _ = discretize_equal_frequency(list(range(1, 11)), bins=5)
        assert sorted(np.bincount(codes)) == [2, 2, 2, 2, 2]
        assert codes.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_constant_column_single_bin(self):
        codes, _ = discretize_equal_frequency([7.0, 7.0, 7.0, 7.0], bins=5)
        assert codes.tolist() == [0, 0, 0, 0]

    def test_uneven_split(self):
        # rank-based cut: n=3, bins=2 -> group sizes 2 and 1
        codes, _ = discretize_equal_frequency([1.0, 2.0, 3.0], bins=2)
        assert codes.tolist() == [0, 0, 1]

    def test_boundary_tie_goes_to_lower_bin(self):
        # value 2 straddles the rank cut; all its copies take the lower bin
        codes, _ = discretize_equal_frequency([1.0, 2.0, 2.0, 3.0], bins=2)
        assert codes.tolist() == [0, 0, 0, 1]

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            discretize_equal_frequency([1.0, float("nan")], bins=2)

    def test_empty_column_rejected(self):
        with pytest.raises(DataError, match="empty column"):
            discretize_equal_frequency([], bins=3)

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
        codes, _ = discretize_equal_frequency(values, bins)
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

    @given(
        values=st.lists(
            st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5]),
                      st.floats(-1e6, 1e6, allow_nan=False)),
            min_size=1, max_size=80,
        ),
        bins=st.integers(1, 9),
    )
    @example(values=[0.0, -0.0, 1.0, -0.0, 0.0, 2.0, 3.0], bins=2)
    @example(values=[0.0] * 40 + [-0.0] * 40 + [1.0] * 40, bins=2)
    @example(values=[-0.0] * 40 + [0.0] * 40 + [1.0] * 40, bins=2)
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_sort_reference(self, values, bins):
        # ties may come out of the sort in any order: every copy of a value
        # takes the group of the value's first sorted position
        codes, ranges = discretize_equal_frequency(values, bins)
        assert codes.tolist() == stable_discretize(values, bins)
        coded = [[v for v, c in zip(values, codes.tolist()) if c == code]
                 for code in range(len(ranges))]
        # bit for bit, so an edge at zero must read 0.0 whichever zero sorted first
        expected = np.array([[min(vs), max(vs)] for vs in coded]) + 0.0
        assert ranges.view(np.int64).tolist() == expected.view(np.int64).tolist()

    @staticmethod
    def tied_column(seed, grid_only):
        """20,000 values: zero, of both signs, for 45% of them, which makes it
        the least value and the first code's low edge and repeats cuts; the
        maximum for 25%, which puts cuts on it; and between them a grid of 80
        tied values or, unless ``grid_only``, near-unique ones."""
        rng = np.random.default_rng(seed)
        u = rng.random(20_000)
        values = rng.integers(1, 81, 20_000) / 4
        if not grid_only:
            values = np.round(rng.uniform(0.001, 20, 20_000), 3)
        values[u < 0.45] = rng.choice([-0.0, 0.0], np.count_nonzero(u < 0.45))
        values[u > 0.75] = 25.0
        return values

    @pytest.mark.parametrize("grid_only", [False, True])
    @pytest.mark.parametrize("bins", [1, 2, 5, 50, 1000])
    def test_workload_scale_ties_and_zeros(self, bins, grid_only):
        values = self.tied_column(29, grid_only)
        zeros = np.signbit(values[values == 0])
        assert zeros.any() and not zeros.all()
        codes, ranges = discretize_equal_frequency(values, bins)
        assert codes.tolist() == stable_discretize(values.tolist(), bins)
        assert codes.dtype == np.min_scalar_type(len(ranges) - 1)
        # each code's lowest and highest value, bit for bit, a zero as 0.0
        expected = np.array([[values[codes == c].min(), values[codes == c].max()]
                             for c in range(len(ranges))]) + 0.0
        assert ranges.view(np.int64).tolist() == expected.view(np.int64).tolist()
        # the same values in another row order: the same code for each row,
        # the same ranges to the bit
        order = np.random.default_rng(bins).permutation(len(values))
        shuffled, shuffled_ranges = discretize_equal_frequency(values[order], bins)
        assert np.array_equal(shuffled, codes[order])
        assert shuffled_ranges.view(np.int64).tolist() == ranges.view(np.int64).tolist()

    @pytest.mark.parametrize("values", [[1.0, 2.0, 1.0], [1.0, 2.0, 3.0, 4.0, 5.0]])
    def test_bins_must_be_an_integer(self, values):
        # the first column has no more distinct values than bins, the second more
        for bins in (2.5, 2.0, "2", None):
            with pytest.raises(TypeError):
                discretize_equal_frequency(values, bins)
            table = RawTable(("c",), (tuple(map(str, values)),), len(values))
            with pytest.raises(TypeError):
                encode(table, bins=bins)
        for bins in (True, np.int64(1)):  # integers, as operator.index reads them
            codes, ranges = discretize_equal_frequency(values, bins)
            assert codes.tolist() == [0] * len(values)
            assert ranges.tolist() == [[min(values), max(values)]]
            assert encode(table, bins=bins).attributes[0].domain_size == 1


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

    @pytest.mark.parametrize("numeric_cols", ["ab", "price", "", "Auto"])
    def test_string_numeric_cols_other_than_auto_or_none(self, numeric_cols):
        # a string is not read as a set of column names, one per character
        table = RawTable(("a", "b", "c"), (("1", "2", "3"),) * 3, 3)
        with pytest.raises(DataError, match=f"numeric_cols {numeric_cols!r}: "
                           "expected 'auto', 'none' or a list of column names"):
            encode(table, numeric_cols=numeric_cols)

    def test_non_finite_tokens_stay_categorical_under_auto(self):
        table = RawTable(("a",), (("inf", "1", "2", "1"),), 4)
        ds = encode(table)  # auto-detection must not pick this column
        assert ds.attributes[0].domain_size == 3
        with pytest.raises(DataError, match="non-finite"):
            encode(table, numeric_cols=["a"])

    def test_kind_records_what_encode_decided(self):
        table = RawTable(("num", "txt", "nan"),
                         (("1", "2", "3"), ("a", "b", "a"), ("1", "nan", "2")), 3)
        ds = encode(table, bins=2)
        assert [a.kind for a in ds.attributes] == ["binned", "categorical", "categorical"]
        assert [a.non_finite for a in ds.attributes] == [False, False, True]
        ds = encode(table, numeric_cols="none")
        assert [(a.kind, a.non_finite) for a in ds.attributes] == [("categorical", False)] * 3
        assert encode(table, numeric_cols=["num"]).attributes[0].kind == "binned"
        ds = EncodedDataset.from_codes(["v"], [[0, 1]], 2)
        assert (ds.attributes[0].kind, ds.attributes[0].non_finite) == ("categorical", False)

    @given(
        text=plain_csv_texts(),
        as_bytes=st.booleans(),
        chunk=st.one_of(st.integers(1, 8), st.just(data_module._CHUNK_BYTES)),
        named=st.lists(st.sampled_from(["c0", "c1", "c2", "c3"]), unique=True),
    )
    @settings(max_examples=500, deadline=None)
    def test_plain_path_encodes_like_csv_reader(self, text, as_bytes, chunk, named):
        data = text.encode() if as_bytes else text
        with mock.patch.object(data_module, "_CHUNK_BYTES", chunk):
            table = parse_csv(data)
        assert all(isinstance(column, _ByteTokens) for column in table.columns)
        named = [name for name in named if name in table.column_names]
        reference = _parse_reader(data, True)
        tokens = reader_columns(text)
        for numeric_cols in ("auto", "none", named):
            result = encoded(table, numeric_cols)
            assert result == encoded(reference, numeric_cols)
            for name, kind, *_, codes in ([] if isinstance(result, str) else result[1]):
                if kind == "categorical":
                    assert codes == first_occurrence_codes(tokens[name])

    @given(
        text=plain_csv_texts(),
        from_bytes=st.booleans(),
        named=st.lists(st.sampled_from(["c0", "c1", "c2", "c3"]), unique=True),
        bins=st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_attributes_hold_dense_codes(self, text, from_bytes, named, bins):
        # attributes count their codes as given, so every code in [0, max]
        # must occur: the counts are those of the tokens, or of the bins
        table = parse_csv(text.encode())
        if not from_bytes:
            table = RawTable(table.column_names, tuple(map(tuple, table.columns)),
                             table.row_count)
        named = [name for name in named if name in table.column_names]
        for numeric_cols in ("auto", "none", named):
            try:
                ds = encode(table, bins=bins, numeric_cols=numeric_cols)
            except DataError:
                continue
            for a in ds.attributes:
                counts = np.bincount(a.codes)
                assert a.codes.dtype == np.min_scalar_type(a.domain_size - 1)
                assert counts.all()
                tokens = reader_columns(text)[a.name]
                if a.kind == "categorical":
                    assert a.codes.tolist() == first_occurrence_codes(tokens)
                else:
                    tokens = stable_discretize([float(tok) for tok in tokens], bins)
                expected = Counter(tokens)
                assert a.domain_size == len(expected)
                assert sorted(counts) == sorted(expected.values())

    def test_long_tokens_get_distinct_codes(self):
        keys = parse_csv("c\nabcdefgh\n\u00e9\u00e9\u00e9\u00e9\nabcdefgh\n").columns[0].keys()
        assert keys.shape == (3,)  # 8 bytes make one word
        assert keys[0] == keys[2] != keys[1]
        # a common 8-byte prefix, then 0, 1, 8 or 9 more bytes
        tokens = ["abcdefg", "abcdefgh", "abcdefgh1", "abcdefgh" * 2, "abcdefgh" * 2 + "1"]
        tokens += tokens[::-1]
        expected = first_occurrence_codes(tokens)
        text = "c\n" + "\n".join(tokens) + "\n"
        for table in (parse_csv(text), _parse_reader(text, True),
                      RawTable(("c",), (tokens,), len(tokens))):
            assert table.columns[0].keys().shape == (10,)
            assert encode(table, numeric_cols="none").attributes[0].codes.tolist() == expected

    @pytest.mark.parametrize("tokens", [
        ["abcdefghi", "\u00e9" * 5, "long-token-x", "x"] * 5,
        ["a", "x" * 200, "\u00fc", "bc"] * 5,
    ])
    def test_column_decodes_byte_by_byte(self, tokens):
        column = parse_csv("c\n" + "\n".join(tokens) + "\n").columns[0]
        assert list(column) == tokens

    def test_nul_ended_token_keeps_its_own_code(self):
        # csv.reader takes NUL from Python 3.11 on, and keys that padded
        # tokens with zeros would code "a" and "a\0" alike, in one word or two
        short = ["a", "a\0", "a", "b\0", "b"]
        long = ["abcdefgh", "abcdefgh\0", "abcdefgh\0", "abcdefgh", "abcdefgh\0\0"]
        text = "s,l\n" + "".join(f"{s},{t}\n" for s, t in zip(short, long))
        if sys.version_info < (3, 11):
            with pytest.raises(ParseError, match="NUL"):
                parse_csv(text)
            return
        table = parse_csv(text)
        assert table.columns == (tuple(short), tuple(long))
        ds = encode(table)
        assert [a.codes.tolist() for a in ds.attributes] == [[0, 1, 0, 2, 3], [0, 1, 1, 0, 2]]

    def test_lone_surrogates_from_str(self):
        tokens = ["\ud800", "x", "\udfff\ud800", "\ud800", "x\udfff"]
        table = RawTable(("c",), (tokens,), len(tokens))
        assert list(table.columns[0]) == tokens and table.columns[0][2] == tokens[2]
        assert encode(table).attributes[0].codes.tolist() == [0, 1, 2, 0, 3]
        assert parse_csv("c\n" + "\n".join(tokens) + "\n") == table

    @pytest.mark.parametrize("data", ["a,b\n", b"a,b\n", "a,b\n,x\n", "\ud800", '"a"\n'])
    def test_header_only_file_has_empty_columns(self, data):
        table = parse_csv(data)
        assert table.row_count == 0
        assert table.columns == ((),) * len(table.column_names)
        for column in table.columns:
            assert list(column) == [] and column.keys().shape == (0,)

    @pytest.mark.parametrize("tokens", [
        ["a", "b", "c" * 17],  # the widest token ends the file
        ["a", "c" * 17, "b"],  # a short one ends the file after it
    ])
    def test_widest_key_stays_in_the_buffer(self, tokens):
        expected = first_occurrence_codes(tokens)
        text = "c\n" + "\n".join(tokens)  # no line feed after the last token
        quoted = '"c"\n' + "\n".join(f'"{tok}"' for tok in tokens)
        for table in (parse_csv(text), parse_csv(quoted), RawTable(("c",), (tokens,), 3)):
            assert encode(table).attributes[0].codes.tolist() == expected

    @pytest.mark.parametrize("alphabet", ["1234567890", "abcdefghij"])
    @pytest.mark.parametrize("width", range(1, 18))
    def test_windows_past_an_unpadded_end(self, width, alphabet):
        # keys() reads 8 bytes from each token's start and decimals() 16;
        # near the end of a buffer with nothing after it, both read a padded
        # copy, and a token there codes and reads as it does further in
        tok = (alphabet * 2)[:width]
        tokens = [tok, tok[:-1] + chr(ord(tok[-1]) ^ 1), tok]
        data = ("c\n" + "\n".join(tokens)).encode()  # no line feed at the end
        columns = {
            "file": (parse_csv(data).columns[0], tokens, len(data)),
            "one row": (parse_csv(tok.encode(), has_header=False).columns[0], [tok], width),
            "of": (_ByteTokens.of(tokens, "c"), tokens, 3 * width),
        }
        for column, expected, size in columns.values():
            assert len(column.buf) == size
            assert list(column) == expected
            codes = data_module._first_occurrence_codes(column)
            assert codes.tolist() == first_occurrence_codes(expected)
            values, slow = column.decimals()
            assert slow.tolist() == [not byte_decimal(t) for t in expected]
            assert values[~slow].tolist() == [float(t) for t in expected if byte_decimal(t)]

    def test_decimals_in_chunks(self):
        # decimals() reads a fixed count of tokens at a time; tokens only
        # float() reads sit on both sides of every chunk boundary and end
        # the column, which has one token past its third chunk
        size = data_module._DECIMAL_TOKENS
        tokens = [f"{i % 997}.{i % 13}" for i in range(3 * size + 1)]
        for edge in (size, 2 * size, 3 * size):
            tokens[edge - 1], tokens[edge] = "1.5e3", f"{edge}.00000000000001"  # 17+ bytes
        column = parse_csv("c\n" + "\n".join(tokens)).columns[0]
        values, slow = column.decimals()
        edges = [edge + k for edge in (size, 2 * size, 3 * size) for k in (-1, 0)]
        assert np.flatnonzero(slow).tolist() == edges
        values[slow] = [float(tokens[i]) for i in edges]
        reference = np.array([float(t) for t in tokens])
        assert values.view(np.int64).tolist() == reference.view(np.int64).tolist()

    @given(st.lists(st.lists(st.sampled_from(["abcdefgh", "abcdefg", "a", "\u00e9", "\0"]),
                             max_size=6).map("".join), min_size=2, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_codes_match_dict_coding_at_any_length(self, tokens):
        # tokens of a few pieces share 8-byte runs and prefixes of every length
        table = RawTable(("c",), (tokens,), len(tokens))
        codes = encode(table, numeric_cols="none").attributes[0].codes
        assert codes.tolist() == first_occurrence_codes(tokens)

    def test_wide_tokens_cost_their_bytes(self):
        # keys padded to the widest token would take 5,000 rows x 10,000
        # bytes per array here, where the columns hold about 60 KB
        short = ["ab", "cd"] * 2500
        one_wide, shared_prefix = short.copy(), short.copy()
        one_wide[-1] = "x" * 10_000
        shared_prefix[10:13] = ("y" * 9_999 + end for end in "aba")
        text = "c,d\n" + "".join(f"{c},{d}\n" for c, d in zip(one_wide, shared_prefix))
        for table in (parse_csv(text), RawTable(("c", "d"), (one_wide, shared_prefix), 5000)):
            tracemalloc.start()
            try:
                ds = encode(table)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000
            assert [a.codes.tolist() for a in ds.attributes] == [
                first_occurrence_codes(one_wide), first_occurrence_codes(shared_prefix)]

    @pytest.mark.parametrize("column", [("a", 1), (b"a", b"b"), ("a", None), None])
    def test_token_that_is_not_str_is_data_error(self, column):
        with pytest.raises(DataError, match="column 'c'"):
            RawTable(("c",), (column,), 2)

    @pytest.mark.parametrize("columns, row_count, message", [
        ((("x", "y", "x", "y"), ("p", "q", "q", "p")), 2, "column 'a' has 4 tokens, not 2"),
        ((("x", "y"), ("p", "q")), 3, "column 'a' has 2 tokens, not 3"),
        ((("x", "y", "x"), ("p", "q")), 3, "column 'b' has 2 tokens, not 3"),
    ], ids=["too-many", "too-few", "ragged"])
    def test_column_of_other_than_row_count_tokens_is_data_error(
            self, columns, row_count, message):
        # else encode reads the columns as they are: wrong entropies, and a
        # numpy broadcast error once two of them are scored together
        with pytest.raises(DataError, match=f"^{message}$"):
            RawTable(("a", "b"), columns, row_count)

    def test_text_column_decoded_up_to_its_first_token(self, monkeypatch):
        def refuse(self):
            raise AssertionError("whole column decoded")

        table = parse_csv("a,b\nx,1\ny,2\nx,3\n")
        monkeypatch.setattr(_ByteTokens, "__iter__", refuse)
        ds = encode(RawTable(("a",), table.columns[:1], 3))
        assert ds.attributes[0].codes.tolist() == [0, 1, 0]
        ds = encode(table)  # a column of plain numerals is read from its bytes
        assert ds.attributes[1].kind == "binned"
        assert ds.attributes[1].codes.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("tokens, from_bytes", [
        (["1.5", "-2", "+.25", "1e5"] * 30, True),
        (["1e5", "2.5E-3", "1.5", "-7e0"] * 30, False),  # mostly exponents
        ([f"0.{i:018d}" for i in range(90)], False),  # 19 digits each
    ])
    def test_mostly_plain_column_read_from_bytes(self, tokens, from_bytes):
        column = parse_csv("c\n" + "\n".join(tokens)).columns[0]
        with mock.patch.object(_ByteTokens, "decimals", autospec=True,
                               side_effect=_ByteTokens.decimals) as decimals:
            values = data_module._floats(column, "c")
        assert values.tolist() == [float(t) for t in tokens]
        whole = [len(call.args[0]) == len(tokens) for call in decimals.call_args_list]
        assert any(whole) == from_bytes

    @given(tokens=st.lists(st.one_of(decimal_tokens(), st.sampled_from(DECIMAL_EDGES)),
                           min_size=2, max_size=30),
           eol=st.sampled_from(["", "\n"]))
    @settings(max_examples=400, deadline=None)
    def test_byte_decimals_are_bit_exact_with_float(self, tokens, eol):
        text = "c\n" + "\n".join(tokens) + eol  # the last token may end the file
        table = parse_csv(text)
        column = table.columns[0]
        assert isinstance(column, _ByteTokens) and list(column) == tokens
        values, slow = column.decimals()
        assert slow.tolist() == [not byte_decimal(t) for t in tokens]
        read = np.array([float(t) for t in tokens if byte_decimal(t)])
        assert values[~slow].view(np.int64).tolist() == read.view(np.int64).tolist()
        bad = [t for t in tokens if not float_parses(t)]
        if bad:  # a named column names its first bad token in row order
            with pytest.raises(DataError, match=re.escape(f"value {bad[0]!r}")):
                encode(table, numeric_cols=["c"])
            return
        reference = np.array([float(t) for t in tokens])
        assert (data_module._floats(column, "c").view(np.int64).tolist()
                == reference.view(np.int64).tolist())

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

    @pytest.mark.parametrize("bins, error", [
        (0, ValueError), (-3, ValueError), (2.5, TypeError), (None, TypeError)])
    def test_bins_checked_without_a_numeric_column(self, ttt_table, bins, error):
        for numeric_cols in ("auto", "none"):
            with pytest.raises(error):
                encode(ttt_table, bins=bins, numeric_cols=numeric_cols)

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

    def test_from_codes_rejects_mismatched_columns(self):
        with pytest.raises(DataError, match="3 names for 2 columns"):
            EncodedDataset.from_codes(["a", "b", "c"], [[0, 1], [1, 0]], 2)
        with pytest.raises(DataError, match="'a'"):
            EncodedDataset.from_codes(["a", "b"], [[0, 1, 1], [0, 1, 0]], 6)
        with pytest.raises(DataError, match="'b'"):
            EncodedDataset.from_codes(["a", "b"], [[0, 1, 1], [0, 1]], 3)
        with pytest.raises(DataError, match="'a'"):
            EncodedDataset.from_codes(["a"], [[[0, 1], [1, 0]]], 2)

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
        assert attr.codes.dtype == np.min_scalar_type(attr.domain_size - 1)
        assert attr.codes.tolist() == ranks.tolist()
        assert attr.domain_size == len(values)

    @pytest.mark.parametrize("codes", [
        np.array([-2**63, 2**63 - 1], dtype=np.int64),
        np.array([0, 2**63], dtype=np.uint64),
        np.array([-9e18, 9e18]),
    ])
    def test_from_codes_spans_of_2_to_the_63_or_more(self, codes):
        # the offset from the minimum wraps in int64, not in uint64
        attr = EncodedDataset.from_codes(["v"], [codes], 2).attributes[0]
        assert attr.codes.tolist() == [0, 1]
        assert attr.domain_size == 2

    def test_from_codes_rejects_fractional_codes(self):
        # a cast to int64 would read [0.5, 1.7, 1.2] as [0, 1, 1]: 2 values, not 3
        with pytest.raises(DataError, match="'f'.*whole numbers"):
            EncodedDataset.from_codes(["a", "f"], [[0, 1, 2], [0.5, 1.7, 1.2]], 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e19])
    def test_from_codes_rejects_non_finite_codes(self, bad):
        with pytest.raises(DataError, match="'v'.*whole numbers"):
            EncodedDataset.from_codes(["v"], [[0.0, bad, 1.0]], 3)

    def test_from_codes_rejects_text_codes(self):
        with pytest.raises(DataError, match="'t'.*non-numeric"):
            EncodedDataset.from_codes(["t"], [["1", "2", "x"]], 3)

    def test_from_codes_accepts_whole_floats_and_bools(self):
        ds = EncodedDataset.from_codes(
            ["f", "b"], [[1.0, 2.0, -1.0], np.array([True, False, True])], 3
        )
        assert [a.codes.tolist() for a in ds.attributes] == [[1, 2, 0], [1, 0, 1]]
        assert [a.domain_size for a in ds.attributes] == [3, 2]

    def test_from_codes_sparse_codes(self):
        ds = EncodedDataset.from_codes(["v"], [np.array([7, 3, 7, 100])], 4)
        assert ds.attributes[0].codes.tolist() == [1, 0, 1, 2]
        assert ds.attributes[0].domain_size == 3


def attribute_bits(table, **kwargs):
    """Everything ``encode`` gives, floats as their bits, or its error."""
    try:
        ds = encode(table, **kwargs)
    except DataError as exc:
        return f"DataError: {exc}"
    return ds.n, [(a.name, a.kind, a.non_finite, a.domain_size, a.codes.dtype,
                   a.codes.tolist(), np.float64(a.entropy).view(np.int64).item(),
                   None if a.bins is None else (a.bins.shape, a.bins.view(np.int64).tolist()))
                  for a in ds.attributes]


@contextlib.contextmanager
def two_threads(helper_rows=0):
    """Encode any table of ``helper_rows`` rows or more on two threads,
    however many CPUs the process may use."""
    with mock.patch.object(data_module, "_HELPER_ROWS", helper_rows), \
            mock.patch.object(data_module, "_usable_cpus", lambda: 2):
        yield


class LateHelper(threading.Thread):
    """A helper thread that starts only when the caller joins it, after the
    caller has taken every index that it will take."""

    def start(self):
        pass

    def join(self, timeout=None):
        super().start()
        super().join(timeout)


class TestTwoThreads:
    @given(
        text=plain_csv_texts(),
        named=st.lists(st.sampled_from(["c0", "c1", "c2", "c3"]), unique=True),
        bins=st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_attributes_on_both_paths(self, text, named, bins):
        table = parse_csv(text.encode())
        named = [name for name in named if name in table.column_names]
        for numeric_cols in ("auto", "none", named):
            runs = []
            for helper_rows in (0, 2**62):
                with two_threads(helper_rows), mock.patch.object(
                        data_module, "_map_on_two_threads",
                        wraps=data_module._map_on_two_threads) as mapped:
                    runs.append(attribute_bits(table, bins=bins, numeric_cols=numeric_cols))
                assert mapped.called == (helper_rows == 0 and table.row_count >= 2)
            assert runs[0] == runs[1]

    def test_first_failing_column_is_raised(self):
        # every column is named numeric and fails; column 0 waits until the
        # other thread has failed on column 1, so a later column fails first
        names = ("c0", "c1", "c2", "c3")
        table = RawTable(names, tuple((f"bad{j}", "1", "2") for j in range(4)), 3)
        floats, failed, order = data_module._floats, threading.Event(), []

        def held(column, name):
            if name == "c0":
                assert failed.wait(timeout=10)
            try:
                return floats(column, name)
            finally:
                order.append(name)
                if name == "c1":
                    failed.set()

        with two_threads(), mock.patch.object(data_module, "_floats", held):
            with pytest.raises(DataError, match="column 'c0': non-numeric value 'bad0'"):
                encode(table, numeric_cols=list(names))
        assert order == ["c1", "c0"]  # no column is handed out after c1 fails

    @pytest.mark.parametrize("failure", [DataError, KeyboardInterrupt])
    def test_no_column_after_a_failure(self, failure):
        # the caller fails on column 0 before the helper starts: the loop
        # would stop there, and so must both threads
        names = ("c0", "c1", "c2", "c3")
        table = RawTable(names, tuple(("1", "2", "3") for _ in names), 3)
        floats, calls = data_module._floats, []

        def failing(column, name):
            calls.append(name)
            if name == "c0":
                raise failure("column 'c0' fails")
            return floats(column, name)

        before = threading.active_count()
        with two_threads(), mock.patch.object(data_module, "_floats", failing), \
                mock.patch.object(threading, "Thread", LateHelper):
            with pytest.raises(failure, match="'c0' fails"):
                encode(table, numeric_cols=list(names))
        assert calls == ["c0"]
        assert threading.active_count() == before

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_no_thread_outlives_encode(self, ttt_table):
        before = threading.active_count()
        with two_threads():
            assert encode(ttt_table).d == 10
            assert threading.active_count() == before
            with pytest.raises(DataError, match="column 'top-left'"):
                encode(ttt_table, numeric_cols=["top-left", "class"])
            assert threading.active_count() == before

    def test_concurrent_encodes(self, ttt_table):
        # four callers with a helper each, switching threads every microsecond
        table = RawTable(tuple(f"c{j}" for j in range(40)), ttt_table.columns * 4,
                         ttt_table.row_count)
        expected = attribute_bits(table)
        got = [None] * 4

        def run(i):
            got[i] = attribute_bits(table)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with two_threads():
                callers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
                for caller in callers:
                    caller.start()
                for caller in callers:
                    caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == [expected] * 4

    def test_helper_needs_two_cpus(self, ttt_table):
        # the CPU half of the gate as this process finds it; CI runs this
        # test under taskset -c 0 too, where the helper must not start
        cpus = data_module._usable_cpus()
        if hasattr(os, "sched_getaffinity"):
            assert cpus == len(os.sched_getaffinity(0))
        assert 1 <= cpus <= (os.cpu_count() or 1)
        expected = attribute_bits(ttt_table)
        with mock.patch.object(data_module, "_HELPER_ROWS", ttt_table.row_count), \
                mock.patch.object(data_module, "_map_on_two_threads",
                                  wraps=data_module._map_on_two_threads) as mapped:
            assert attribute_bits(ttt_table) == expected
        assert mapped.called == (cpus > 1)
