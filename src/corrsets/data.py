"""CSV ingestion, categorical encoding, and equal-frequency discretization.

Raw tables hold every column as UTF-8 byte spans; encoding maps each
column to dense integer codes in first-occurrence order and records the
observed domain size and marginal entropy per attribute. Domain sizes are
always observed distinct-value counts, never declared schemas, because
every downstream correction term is a function of the empirical table.
"""

from __future__ import annotations

import codecs
import csv
import io
import operator
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .estimators import _number, entropy

__all__ = [
    "DataError",
    "ParseError",
    "RawTable",
    "Attribute",
    "EncodedDataset",
    "parse_csv",
    "discretize_equal_frequency",
    "encode",
]


class DataError(ValueError):
    """Input data cannot be parsed or encoded."""


class ParseError(DataError):
    """Malformed CSV input."""


@dataclass(frozen=True)
class RawTable:
    """Column-major text table. Every column is kept as UTF-8 byte spans and
    reads and compares as the tuple of its tokens; a sequence of ``str`` is
    converted when the table is built. Any other token, or a column of
    other than ``row_count`` tokens, is a DataError.
    ``rejected_rows`` counts rows dropped for containing empty fields
    (missing values are not imputed)."""

    column_names: tuple[str, ...]
    columns: tuple[Sequence[str], ...]
    row_count: int
    rejected_rows: int = 0

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(
            column if isinstance(column, _ByteTokens) else _ByteTokens.of(column, name)
            for name, column in zip(self.column_names, self.columns, strict=True)))
        for name, column in zip(self.column_names, self.columns):
            if len(column) != self.row_count:
                raise DataError(f"column {name!r} has {len(column)} tokens, not {self.row_count}")


@dataclass(frozen=True, eq=False)
class Attribute:
    """One encoded column: dense codes in [0, domain_size) plus its
    observed domain size and plug-in entropy in bits. The codes are held in
    the narrowest unsigned dtype that fits ``domain_size - 1``, often
    ``uint8``: widen them before arithmetic that can leave that range. A
    column that ``encode`` binned has ``bins``, each code's lowest and
    highest value; ``non_finite`` marks a column that "auto" left
    categorical because its numbers include a non-finite one."""

    name: str
    codes: np.ndarray
    domain_size: int
    entropy: float
    non_finite: bool = False
    bins: np.ndarray | None = None

    @property
    def kind(self) -> str:
        """"binned" for a column with ``bins``, else "categorical"."""
        return "categorical" if self.bins is None else "binned"


@dataclass(frozen=True, eq=False)
class EncodedDataset:
    attributes: tuple[Attribute, ...]
    n: int

    @property
    def d(self) -> int:
        return len(self.attributes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def index_of(self, name: str) -> int:
        for i, a in enumerate(self.attributes):
            if a.name == name:
                return i
        raise DataError(
            f"unknown attribute {name!r}; available: {', '.join(self.names)}"
        )

    def drop_constant(self) -> "EncodedDataset":
        """Remove attributes with a single observed value (entropy 0)."""
        kept = tuple(a for a in self.attributes if a.domain_size > 1)
        return EncodedDataset(attributes=kept, n=self.n)

    @classmethod
    def from_codes(cls, names, code_columns, n: int) -> "EncodedDataset":
        """Build a dataset from raw integer code columns, compacting each
        column so codes are dense in [0, observed domain size). Each name
        needs one column of exactly ``n`` codes: integers, booleans, or
        floats that are all whole numbers."""
        if len(names) != len(code_columns):
            raise DataError(f"{len(names)} names for {len(code_columns)} columns")
        attrs = []
        for name, codes in zip(names, code_columns):
            codes = np.asarray(codes)
            if codes.shape != (n,):
                raise DataError(f"column {name!r} has shape {codes.shape}, not ({n},)")
            if codes.dtype.kind not in "biuf":
                raise DataError(f"column {name!r}: non-numeric codes of dtype {codes.dtype}")
            if codes.dtype.kind == "f" and not (  # a cast truncates 1.7 and NaN
                    (np.abs(codes) < 2.0**63) & (np.trunc(codes) == codes)).all():
                raise DataError(f"column {name!r}: codes must be finite whole numbers")
            if codes.dtype.kind == "f":
                codes = codes.astype(np.int64)
            offsets = codes.astype(np.uint64)  # a copy, where any span is exact
            offsets -= codes.min(initial=0).astype(np.uint64)  # codes may be negative
            codes = _number(offsets, int(offsets.max(initial=0)) + 1)
            attrs.append(_make_attribute(name, codes, n))
        return cls(attributes=tuple(attrs), n=n)


def _make_attribute(name: str, codes: np.ndarray, n: int, **fields) -> Attribute:
    """The attribute of dense integer codes, every code in [0, max]
    occurring, which it keeps in the narrowest unsigned dtype."""
    counts = np.bincount(codes)
    codes = codes.astype(np.min_scalar_type(max(len(counts) - 1, 0)), copy=False)
    return Attribute(name=name, codes=codes, domain_size=len(counts),
                     entropy=entropy(counts, n), **fields)


def parse_csv(data: bytes | str, has_header: bool = True) -> RawTable:
    """Parse comma-separated UTF-8 text into a RawTable.

    One leading byte-order mark is dropped. Lines may end in LF, CRLF or a
    bare CR. Without a header, column names X1..Xd are synthesized.
    Malformed CSV, including a row whose field count differs from the first
    row's, raises a ParseError naming the line. Rows containing empty fields
    are dropped and counted.
    """
    table = _parse_plain(data, has_header)
    return _parse_reader(data, has_header) if table is None else table


_CHUNK_BYTES = 1 << 20  # the plain path checks and tokenizes this much at a time


class _ByteTokens(Sequence):
    """A column of tokens kept as byte spans ``buf[starts[i]:ends[i]]`` of
    one UTF-8 buffer. All columns from ``_parse_plain`` share one, the input
    itself, each with its ``starts`` and ``ends`` in one contiguous run. It
    reads and compares as the tuple of its tokens. ``encode`` codes it from
    its bytes."""

    def __init__(self, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
        self.buf, self.starts, self.ends = buf, starts, ends

    @classmethod
    def of(cls, tokens: Sequence[str], name: str) -> "_ByteTokens":
        """Column ``name`` of ``str`` ``tokens``, encoded once, lone surrogates
        passed through; a span ends at the count of characters before it, or
        past a character of several bytes at the lead byte that count reaches."""
        try:
            raw = np.frombuffer("".join(tokens).encode("utf-8", "surrogatepass"), np.uint8)
        except TypeError as exc:
            raise DataError(f"column {name!r}: {exc}") from None
        offset = np.int32 if len(raw) < 2**31 else np.int64
        lengths = np.fromiter(map(len, tokens), offset, len(tokens))
        ends = np.cumsum(lengths, dtype=offset)
        starts = ends - lengths
        if len(raw) > lengths.sum():  # a character of more than one byte
            leads = np.flatnonzero(np.append((raw & 0xC0) != 0x80, True))
            starts, ends = leads[starts].astype(offset), leads[ends].astype(offset)
        return cls(raw, starts, ends)

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        return bytes(self.buf[self.starts[i]:self.ends[i]]).decode("utf-8", "surrogatepass")

    def __iter__(self):
        """Decode the whole column at once: gather every token and a
        separator slot after it byte by byte, in a fixed multiple of the
        tokens' bytes, write commas there, split the text. Unless that gives
        one token per span, as when a token holds a comma, decode each. A
        slot past the buffer's end is clipped into it before it is written."""
        if not len(self.buf):  # nothing to clip into: every token is ""
            return iter([""] * len(self))
        lens = self.ends - self.starts
        stops = np.cumsum(lens + 1)  # just past each token's separator slot
        text = self.buf.take(np.repeat(self.starts - (stops - lens - 1), lens + 1)
                             + np.arange(len(self) + lens.sum()), mode="clip")
        text[stops - 1] = ord(",")
        tokens = text[:-1].tobytes().decode("utf-8", "surrogatepass").split(",")
        if len(tokens) == len(self):
            return iter(tokens)
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if isinstance(other, (tuple, _ByteTokens)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def take(self, rows) -> "_ByteTokens":
        """The tokens at ``rows``, a slice or mask, over the same buffer."""
        return _ByteTokens(self.buf, self.starts[rows], self.ends[rows])

    def _words(self, count: int) -> np.ndarray:
        """The ``8 * count`` bytes from each token's start, bytes past the
        token included, gathered at once as a row of ``count`` unaligned
        little-endian ``uint64`` words per token. A window that would run
        past the buffer's end reads a zero-padded copy of its last bytes."""
        size = 8 * count
        cut = max(len(self.buf) - size, 0)  # a window from past here runs off the end
        tail = np.zeros(len(self.buf) - cut + size, np.uint8)
        tail[:len(self.buf) - cut] = self.buf[cut:]
        # indexed, not take(), which would copy every window first
        words = _windows(self.buf if cut else tail, size)[np.minimum(self.starts, cut)]
        late = np.flatnonzero(self.starts > cut)
        words[late] = _windows(tail, size)[self.starts[late] - cut]
        return words.view("<u8").reshape(len(self), count)

    def keys(self) -> np.ndarray:
        """An integer per token, equal exactly where the tokens are. A
        token's first 8 bytes, then 0xFF bytes, which UTF-8 never holds (so
        "a" and "a\\0" differ), make a ``uint64``. While tokens past 8 bytes
        share a rank, they are ranked by it and their next 8 bytes."""
        lens = self.ends - self.starts
        wide = lens.max(initial=0) > 8
        keys = self._words(1)[:, 0] | _PAST_BYTES[np.minimum(lens, 8) if wide else lens]
        if not wide:
            return keys
        keys = np.unique(keys, return_inverse=True)[1]
        rows, at = np.flatnonzero(lens > 8), 8
        while len(rows):  # each byte read once, and none past a unique rank
            starts = self.starts[rows] + at
            word = _ByteTokens(self.buf, starts, starts + np.minimum(lens[rows] - at, 8)).keys()
            rank = keys[rows]
            order = np.argsort(word)  # equal pairs next to each other, faster than lexsort
            order = order[np.argsort(rank[order], kind="stable")]
            new = (np.diff(word[order]) != 0) | (np.diff(rank[order]) != 0)
            rank[order] = np.cumsum(np.append(0, new))
            keys[rows] = rank + len(keys) * at // 8  # apart from every earlier rank
            at += 8
            rows = rows[(lens[rows] > at) & (np.bincount(rank)[rank] > 1)]
        return keys

    def decimals(self) -> tuple[np.ndarray, np.ndarray]:
        """Each token's value as ``float()`` gives it, read from its bytes,
        and a mask of the tokens left to ``float()``.

        A token is read when it is at most 16 bytes of ``[+-]?digits``, with
        at most one ``.`` anywhere after the sign and at least one digit,
        and its M digits form an integer below 2**53. Its value is M / 10**f
        for its f digits after the dot, negated for a ``-``: one correctly
        rounded division of two exact doubles, so it is the correctly
        rounded decimal that ``float()`` returns (Clinger's fast path). The
        first 16 bytes are gathered at once and read as two words of 8
        digits (Lemire's SWAR parse), ``_DECIMAL_TOKENS`` tokens at a time
        to bound the temporaries. A masked token's value is arbitrary.
        """
        values = np.empty(len(self))
        slow = np.empty(len(self), dtype=bool)
        for at in range(0, len(self), _DECIMAL_TOKENS):
            chunk = slice(at, at + _DECIMAL_TOKENS)
            values[chunk], slow[chunk] = self.take(chunk)._decimals()
        return values, slow

    def _decimals(self) -> tuple[np.ndarray, np.ndarray]:
        """``decimals()`` of all the tokens at once."""
        lens = self.ends - self.starts
        short = np.minimum(lens, 16)
        head = np.minimum(short, 8)
        # each byte minus '0': digits become 0-9 and bytes past the token 0
        words = self._words(2)
        words ^= _ASCII_ZEROS
        lo, hi = words.T
        lo &= _LOW_BYTES[head]
        hi &= _LOW_BYTES[short - head]
        first = lo & _U64(0xFF)
        negative = first == _U64(ord("-") ^ 0x30)
        signed = negative | (first == _U64(ord("+") ^ 0x30))
        first *= signed
        lo -= first  # the sign reads as a leading 0
        # the first dot, as bit 0 of its byte k, then as k + 1, or 0
        lo_at, hi_at = _first_dot(lo), _first_dot(hi)
        hi_at *= lo_at == 0  # a second dot stays and fails
        lo ^= lo_at * _DOT  # the dot reads as a 0 too
        hi ^= hi_at * _DOT
        lo_at, hi_at = ((word * _BYTE_PLACES >> _U64(56)).view(np.int64)
                        for word in (lo_at, hi_at))
        at = np.where(lo_at > 0, lo_at - 1, np.where(hi_at > 0, hi_at + 7, short))
        dotted = at < short
        digits = (lo + _OVER_9) | lo | (hi + _OVER_9) | hi
        digits &= _HIGH_BITS
        # the 16 digits, the token's followed by zeros; split at the dot
        whole = _eight_digits(lo)
        whole *= _U64(10**8)
        whole += _eight_digits(hi)
        scale = _POW10[16 - at]
        mantissa = whole // scale
        whole -= mantissa * scale
        whole //= _POW10[16 - short]
        places = np.where(dotted, short - at - 1, 0)
        mantissa *= _POW10[places]
        mantissa += whole
        read = ((digits == 0) & (lens <= 16) & (short - signed - dotted > 0)
                & (mantissa < _U64(2**53)))
        values = mantissa.astype(np.float64)
        values /= _FLOAT_POW10[places]
        np.negative(values, out=values, where=negative)
        return values, ~read


_DECIMAL_TOKENS = 1 << 14  # at about 110 bytes of temporaries per token, 2 MB
_U64 = np.uint64
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_PAST_BYTES = ~_LOW_BYTES  # 0xFF in every byte of a word after its first k
_POW10 = np.array([10**k for k in range(17)], dtype=np.uint64)
_FLOAT_POW10 = np.array([10.0**k for k in range(17)])  # exact doubles up to 10**22
_ASCII_ZEROS = _U64(0x30 * 0x0101010101010101)
_DOT = _U64(ord(".") ^ 0x30)
_OVER_9 = _U64(0x76 * 0x0101010101010101)  # carries a byte above 9 into its high bit
_HIGH_BITS = _U64(0x8080808080808080)
_ONES = _U64(0x0101010101010101)
_DOTS = _DOT * _ONES
_BYTE_PLACES = _U64(0x0102030405060708)  # byte j holds 8 - j


def _windows(buf: np.ndarray, size: int) -> np.ndarray:
    """Every run of ``size`` bytes of ``buf``, one ``V{size}`` item per start."""
    return np.ndarray(len(buf) - size + 1, f"V{size}", buf, strides=(1,))


def _first_dot(word: np.ndarray) -> np.ndarray:
    """Bit 0 of the first byte of ``word`` that holds a dot (minus '0'), or
    0: the zero-byte test, which is exact at the lowest byte it flags."""
    other = word ^ _DOTS
    found = other - _ONES
    found &= ~other
    found &= _HIGH_BITS
    found &= ~found + _U64(1)
    found >>= _U64(7)
    return found


def _eight_digits(word: np.ndarray) -> np.ndarray:
    """The number that 8 digit bytes spell, the first byte most significant."""
    word = word * _U64(10) + (word >> _U64(8))
    return ((word & _U64(0x000000FF000000FF)) * _U64(100 + (1000000 << 32))
            + ((word >> _U64(16)) & _U64(0x000000FF000000FF)) * _U64(1 + (10000 << 32))
            ) >> _U64(32)


def _parse_plain(data: bytes | str, has_header: bool) -> RawTable | None:
    """Tokenize plain CSV as bytes, or return None to leave it to
    ``_parse_reader``; never raises.

    Plain means UTF-8 with no quote, NUL or bare CR, a first line that is
    not blank, distinct header names, every other line blank or holding as
    many fields as the first, and no field longer than
    ``csv.field_size_limit()`` bytes. As in ``_parse_reader``, blank lines
    are skipped and rows with an empty field are dropped and counted. On
    plain input the table equals the one ``_parse_reader`` gives. The bytes
    are walked in chunks cut after a line feed: each is checked as UTF-8
    (an ASCII chunk needs no decode), and its field separators are found
    with one ``np.flatnonzero``. Each chunk's spans are written column by
    column into (column, row) offset arrays, sized once from the count of
    line feeds, so each column's spans are one contiguous run. Each column
    is a ``_ByteTokens`` over the input's own bytes, which are not copied.
    """
    if isinstance(data, str):
        try:
            data = data.encode()
        except UnicodeEncodeError:  # a lone surrogate
            return None
    if b'"' in data or b"\0" in data:  # csv before 3.11 refuses NUL
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    stop = len(data)
    while stop and data[stop - 1] in b"\r\n":  # csv skips trailing blank lines
        stop -= 1
    crlf = b"\r" in data
    if crlf and data.count(b"\r", stop) != data.count(b"\r\n", stop):
        return None  # a bare CR after the last line; those in lines are found below
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    if start >= stop:
        return None
    limit = csv.field_size_limit()
    offset = np.int32 if len(data) < 2**31 else np.int64
    d = None
    rows = width = rejected = 0
    while start < stop:
        end = data.find(b"\n", start + _CHUNK_BYTES, stop) + 1 or stop
        piece = data[start:end]
        if not piece.isascii():
            try:
                piece.decode()
            except UnicodeDecodeError:
                return None
        chunk = raw[start:end]
        newline = chunk == ord("\n")
        seps = np.flatnonzero(newline | (chunk == ord(",")))
        newline = newline[seps]
        seps += start
        if end == stop:  # the last line has no line feed left
            seps = np.append(seps, stop)
            newline = np.append(newline, True)
        starts = np.concatenate(([start], seps[:-1] + 1))
        ends = seps
        if crlf:  # a chunk ends after a LF, so it holds each of its CRLFs whole
            # (raw[-1], read for a first separator at 0, is no CR: checked above)
            cr_before = raw[seps - 1] == ord("\r")
            if piece.count(b"\r") != np.count_nonzero(cr_before & newline):
                return None  # a bare CR, or one in a field
            ends = seps - cr_before
        lens = ends - starts
        width = max(width, int(lens.max()))
        if width > limit:
            return None
        line_ends = np.flatnonzero(newline)
        fields = np.diff(line_ends, prepend=-1)
        blank = (fields == 1) & (lens[line_ends] == 0)
        if d is None:
            if blank[0]:
                return None
            d = int(fields[0])
            if has_header:
                names = tuple(data[s:e].decode() for s, e in zip(starts[:d], ends[:d]))
                if len(set(names)) != d:
                    return None  # duplicate names
            # (starts or ends, column, row); a file holds no more rows than lines
            spans = np.empty((2, d, np.count_nonzero(raw == ord("\n")) + 1), dtype=offset)
        if ((fields != d) & ~blank).any():
            return None
        if blank.any():  # csv skips blank lines
            kept = np.repeat(~blank, fields)
            starts, ends, lens = starts[kept], ends[kept], lens[kept]
        firsts, ends = starts[::d], ends.reshape(-1, d)
        if not lens.all():
            empty = (lens.reshape(-1, d) == 0).any(axis=1)
            empty[:int(has_header and not rows)] = False  # the header row stays
            rejected += int(empty.sum())
            firsts, ends = firsts[~empty], ends[~empty]
        column_starts, column_ends = spans[:, :, rows:rows + len(ends)]
        column_ends[...] = ends.T
        # any other field starts one past the comma that ends the field
        # before it, since only a line's last field can end before a CR
        column_starts[0] = firsts
        np.add(column_ends[:-1], 1, out=column_starts[1:])
        rows += len(ends)
        start = end
    if not has_header:
        names = tuple(f"X{j + 1}" for j in range(d))
    first = int(has_header)
    return RawTable(
        column_names=names,
        columns=tuple(_ByteTokens(raw, spans[0, j, first:rows], spans[1, j, first:rows])
                      for j in range(d)),
        row_count=rows - first, rejected_rows=rejected,
    )


def _parse_reader(data: bytes | str, has_header: bool) -> RawTable:
    """``parse_csv`` through ``csv.reader``: any input, every error."""
    reader = csv.reader(
        io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
        if isinstance(data, bytes)
        else io.StringIO(data.removeprefix("\ufeff"), newline="")
    )
    rows = []
    names = None
    rejected = 0
    try:
        for row in reader:
            if not row:
                continue  # blank line
            if names is None:
                if has_header:
                    names = tuple(row)
                    continue
                names = tuple(f"X{i + 1}" for i in range(len(row)))
            if len(row) != len(names):
                raise ParseError(
                    f"ragged row at line {reader.line_num}: "
                    f"expected {len(names)} fields, got {len(row)}"
                )
            if "" in row:
                rejected += 1
                continue
            rows.append(row)
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise ParseError(f"malformed CSV at line {reader.line_num}: {exc}") from exc
    if names is None:
        raise ParseError("empty input")
    if len(set(names)) != len(names):
        raise ParseError("duplicate column names")
    return RawTable(
        column_names=names,
        columns=tuple(zip(*rows)) or ((),) * len(names),
        row_count=len(rows),
        rejected_rows=rejected,
    )


def discretize_equal_frequency(values, bins: int):
    """Cut values into ``bins`` rank-contiguous groups of near-equal size.

    A column with at most ``bins`` distinct values is not cut: each value
    keeps a code of its own, in ascending value order. Otherwise group
    sizes before tie handling differ by at most one. All occurrences of a
    tied value take the group of the first sorted position of that value
    (the lower bin), and codes are compacted to remove bins emptied by that
    rule, so the returned code is a function of the value alone.

    One sort of the values finds the cuts: each group's last sorted value,
    or every distinct value when there are at most ``bins`` of them, less
    the maximum and duplicates. A value's code is the number of cuts below
    it, found by bisecting the cuts once per bit of the code. Code j runs
    from the least value above cut j - 1 up to cut j, and the last code up
    to the maximum. Returns the codes, in the narrowest unsigned dtype that
    holds them, and a (codes, 2) array of each code's lowest and highest
    value; a zero there reads ``0.0``, whichever zeros the column holds.
    """
    bins = operator.index(bins)  # np.arange below would take a float bins silently
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise DataError("cannot discretize an empty column")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    ranked = np.sort(vals)
    if not np.isfinite(ranked[[0, -1]]).all():  # nan sorts last
        raise DataError("cannot discretize non-finite values")
    if np.count_nonzero(ranked[1:] != ranked[:-1]) < bins:
        cuts = ranked  # at most ``bins`` values: each is a group
    else:  # group g ends at rank g * base + min(g, rem): the first rem hold one more
        base, rem = divmod(vals.size, bins)
        ends = np.arange(1, bins) * base + np.minimum(np.arange(1, bins), rem)
        cuts = ranked[ends - 1]
    cuts = cuts[cuts < ranked[-1]]
    cuts = cuts[np.diff(cuts, prepend=-np.inf) > 0]
    # cuts padded with inf to 2^m - 1 entries: m passes of branch-free bisection
    table = np.full((1 << cuts.size.bit_length()) - 1, np.inf)
    table[:cuts.size] = cuts
    codes = np.zeros(vals.size, dtype=np.min_scalar_type(cuts.size))
    probe = np.empty(vals.size)
    step = table.size + 1
    while step := step >> 1:  # "clip" takes into probe unbuffered; no index is out of range
        table[step - 1:].take(codes, out=probe, mode="clip")
        codes += (vals > probe) * codes.dtype.type(step)
    lows = ranked[np.searchsorted(ranked, cuts, side="right")]
    return codes, np.column_stack((np.append(ranked[0], lows), np.append(cuts, ranked[-1]))) + 0.0


# A byte column is read from its bytes when at least half of this many
# leading tokens are plain decimals. Reading costs about a third of what
# float() does and is wasted on a column of exponents or 17-digit reprs.
_PROBE_TOKENS = 64


def _floats(column: _ByteTokens, name: str) -> np.ndarray:
    """Parse a column's tokens as ``float()`` does. A text column fails on
    its first token, so the rest of it is never read or decoded. A column
    of mostly plain decimals is read from its bytes, and only its other
    tokens are decoded."""
    _parse_floats((column[0],), name)
    if column.take(slice(_PROBE_TOKENS)).decimals()[1].mean() > 0.5:
        return _parse_floats(column, name)
    values, slow = column.decimals()
    if slow.any():
        values[slow] = _parse_floats(column.take(slow), name)
    return values


def _parse_floats(tokens, name: str) -> np.ndarray:
    """``float()`` of each token; a DataError names the first that fails."""
    try:
        return np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError:
        for tok in tokens:
            try:
                float(tok)
            except ValueError:
                raise DataError(f"column {name!r}: non-numeric value {tok!r}") from None
        raise


def _first_occurrence_codes(column: _ByteTokens) -> np.ndarray:
    """Code each token by the rank of its first occurrence in the column."""
    keys = column.keys()
    order = np.argsort(keys)
    sorted_keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    firsts = np.flatnonzero(new)
    first_row = np.minimum.reduceat(order, firsts)  # whatever order ties sorted in
    rank = np.empty(len(firsts), dtype=np.min_scalar_type(len(firsts) - 1))
    rank[np.argsort(first_row)] = np.arange(len(firsts))
    codes = np.empty(len(keys), dtype=rank.dtype)
    codes[order] = np.repeat(rank, np.diff(firsts, append=len(keys)))
    return codes


# Tables of at least this many rows encode their columns on two threads, the
# caller and one helper, where the process may use more than one CPU: the
# sorts, gathers and ufuncs of a column release the GIL. Timed in-process on
# a 2-core x86 host, helper forced on against off in alternated runs, with a
# 4-column table (two text, two numeric; medians): the helper costs 0.8 ms
# at 50 rows (2.0 against 1.3 ms) and 1.0 ms at 5,000, and is 8% faster at
# 20,000 rows, 29% at 50,000 and 34% at 200,000. The benchmark has no
# workload below this size; without the gate the data and CLI tests take
# 25 s instead of 18. On one CPU, the seed-3 csv-discover input (100,000 x
# 16) encodes 2-6 ms slower with the helper (median of 30-40 runs, each of
# 100-140 ms) and peaks at 75 MB RSS instead of 65: the helper's malloc
# arena, which keeps the blocks that thread frees, and no time won. That
# arena is also why there is one helper: a second gained less for more.
_HELPER_ROWS = 1 << 15


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _map_on_two_threads(function, count: int) -> list:
    """``[function(i) for i in range(count)]``, computed by the calling
    thread and one helper, each taking the next index from a shared
    iterator. Once an index fails, or the caller is interrupted, no further
    index is handed out; every lower index was handed out before it, so
    the exception raised is that of the first index that failed, as in the
    loop."""
    results, errors = [None] * count, [None] * count
    indexes, lock = iter(range(count)), threading.Lock()

    def stop():
        with lock:
            for _ in indexes:  # hand out no further index
                pass

    def drain():
        while True:
            with lock:
                i = next(indexes, None)
            if i is None:
                return
            try:
                results[i] = function(i)
            except Exception as exc:  # raised in column order once both are done
                errors[i] = exc
                stop()

    helper = threading.Thread(target=drain, name="corrsets-encode")
    helper.start()
    try:
        drain()
    except BaseException:  # Ctrl-C: the helper ends with the column it holds
        stop()
        raise
    finally:
        helper.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def encode(table: RawTable, bins: int = 5, numeric_cols="auto") -> EncodedDataset:
    """Encode a RawTable into dense integer attributes.

    Columns chosen by ``numeric_cols`` are parsed as floats and cut into at
    most ``bins`` equal-frequency bins, an integer of at least 1 even where
    no column is binned: "auto" bins every column of finite numbers, "none"
    bins nothing, and a list of names bins those columns, each of which
    must hold finite numbers only. Other columns, numerals included,
    map to codes in first-occurrence order of their tokens. Each attribute
    records which of the two it got, a binned one its bins' value ranges;
    a column of numbers that "auto" left categorical for a non-finite value
    is marked ``non_finite``. A table of at least ``_HELPER_ROWS`` rows
    is encoded on two threads where the process may use two CPUs; the
    attributes, and the error raised, are those of one thread.
    """
    bins = operator.index(bins)  # checked here, whether or not a column is binned
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if table.row_count < 2:
        raise DataError("need at least 2 rows: correction terms divide by n - 1")
    if isinstance(numeric_cols, str) and numeric_cols not in ("auto", "none"):
        raise DataError(f"numeric_cols {numeric_cols!r}: expected 'auto', 'none' "
                        "or a list of column names")
    auto = numeric_cols == "auto"
    numeric = set() if auto or numeric_cols == "none" else set(numeric_cols)
    unknown = numeric - set(table.column_names)
    if unknown:
        raise DataError(f"unknown numeric columns: {sorted(unknown)}")

    def attribute(j: int) -> Attribute:
        name, column = table.column_names[j], table.columns[j]
        values = None
        if auto or name in numeric:
            try:
                values = _floats(column, name)
            except DataError:
                if not auto:
                    raise  # a named column must parse; under auto it stays categorical
        non_finite = values is not None and not np.isfinite(values).all()
        if non_finite and not auto:
            raise DataError(f"column {name!r}: non-finite numeric value")
        if values is None or non_finite:
            return _make_attribute(name, _first_occurrence_codes(column),
                                   table.row_count, non_finite=non_finite)
        codes, ranges = discretize_equal_frequency(values, bins)
        return _make_attribute(name, codes, table.row_count, bins=ranges)

    d = len(table.columns)
    if table.row_count >= _HELPER_ROWS and _usable_cpus() > 1:
        attrs = _map_on_two_threads(attribute, d)
    else:
        attrs = [attribute(j) for j in range(d)]
    return EncodedDataset(attributes=tuple(attrs), n=table.row_count)
