import csv
import re
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


# tokens for encode: over 8 bytes (coded through the dict), non-ASCII,
# numerals float() takes, one wide enough to make its column decode byte by
# byte, and non-finite numerals
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

    def test_byte_columns_read_as_tuples(self, ttt_csv):
        data = ttt_csv.read_bytes()
        table = parse_csv(data)
        for column in table.columns:
            assert isinstance(column, _ByteTokens)
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
        return [distinct.index(v) for v in values]
    base, rem = divmod(n, bins)
    group_of_rank = [g for g in range(bins) for _ in range(base + (g < rem))]
    first_rank = {}
    for rank, i in enumerate(order):
        first_rank.setdefault(values[i], rank)
    groups = [group_of_rank[first_rank[v]] for v in values]
    used = sorted(set(groups))
    return [used.index(g) for g in groups]


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
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_sort_reference(self, values, bins):
        # ties may come out of the sort in any order: every copy of a value
        # takes the group of the value's first sorted position
        codes, ranges = discretize_equal_frequency(values, bins)
        assert codes.tolist() == stable_discretize(values, bins)
        coded = [[v for v, c in zip(values, codes.tolist()) if c == code]
                 for code in range(len(ranges))]
        assert ranges.tolist() == [[min(vs), max(vs)] for vs in coded]


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
        for numeric_cols in ("auto", "none", named):
            assert encoded(table, numeric_cols) == encoded(reference, numeric_cols)

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
            for a, column in zip(ds.attributes, table.columns):
                counts = np.bincount(a.codes)
                assert a.codes.dtype == np.int64 and counts.all()
                tokens = list(column)
                if a.kind == "binned":
                    tokens = stable_discretize([float(tok) for tok in tokens], bins)
                expected = Counter(tokens)
                assert a.domain_size == len(expected)
                assert sorted(counts) == sorted(expected.values())

    def test_long_tokens_keep_dict_codes(self):
        keys = parse_csv("c\nabcdefgh\n\u00e9\u00e9\u00e9\u00e9\nabcdefgh\n").columns[0].keys()
        assert keys[0] == keys[2] != keys[1]  # 8 bytes still make a key
        text = "c\n" + "".join(f"{'abcdefghi' if i == 5 else i % 3}\n" for i in range(20))
        assert parse_csv(text).columns[0].keys() is None
        assert encoded(parse_csv(text), "none") == encoded(_parse_reader(text, True), "none")

    @pytest.mark.parametrize("tokens, padded", [
        (["abcdefghi", "\u00e9" * 5, "long-token-x", "x"] * 5, True),
        (["a", "x" * 200, "\u00fc", "bc"] * 5, False),  # rows would pad 50-fold
    ])
    def test_column_decodes_by_rows_or_byte_by_byte(self, tokens, padded):
        column = parse_csv("c\n" + "\n".join(tokens) + "\n").columns[0]
        with mock.patch.object(data_module, "sliding_window_view",
                               wraps=data_module.sliding_window_view) as rows:
            assert list(column) == tokens
        assert rows.called == padded

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
        assert attr.codes.dtype == np.int64
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
