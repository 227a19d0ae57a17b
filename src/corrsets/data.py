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
    converted when the table is built. Any other token, a column of other
    than ``row_count`` tokens, or a repeated column name is a DataError.
    ``rejected_rows`` counts rows dropped for containing empty fields
    (missing values are not imputed)."""

    column_names: tuple[str, ...]
    columns: tuple[Sequence[str], ...]
    row_count: int
    rejected_rows: int = 0

    def __post_init__(self):
        _check_distinct(self.column_names)
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
        floats that are all whole numbers. Names must be distinct."""
        if len(names) != len(code_columns):
            raise DataError(f"{len(names)} names for {len(code_columns)} columns")
        _check_distinct(names)
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


def _check_distinct(names) -> None:
    """Raise a DataError naming the first name that ``names`` repeats."""
    seen = set()
    for name in names:
        if name in seen:
            raise DataError(f"duplicate column name {name!r}")
        seen.add(name)


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
    are dropped and counted. A plain input of ``_HELPER_CHUNKS`` chunks or
    more is tokenized on two threads where the process may use two CPUs;
    the table, and the error raised, are those of one thread.
    """
    table = _parse_plain(data, has_header)
    return _parse_reader(data, has_header) if table is None else table


_CHUNK_BYTES = 1 << 20  # the plain path checks and tokenizes this much at a time
# The plain path runs on two threads, the caller and one helper, where the
# input has at least this many chunks and the process may use more than one
# CPU: a chunk's compares, np.flatnonzero, gathers and copies release the
# GIL. Timed in-process on a 2-core x86 host, helper on against off, on
# inputs of the csv-discover generator (16 columns), one process per run,
# medians of 6 alternated runs of 41 parses each: one chunk (0.60 MB) takes
# 2.7 ms either way; two chunks of 1.07 MB (the second 0.02 MB) take 5.5
# against 5.0 ms, 1.19 MB 5.1 against 4.8, 1.31 MB 5.2 against 5.6,
# 1.55 MB 6.2 against 7.6, 2.08 MB 7.1 against 11.9; three chunks of 3.10
# MB take 5.7 against 13.9 ms. So a second chunk of a quarter of
# _CHUNK_BYTES pays; below that the helper costs up to 0.5 ms.
_HELPER_CHUNKS = 2


class _NotPlain(Exception):
    """A check of ``_parse_plain`` failed: the input is left to ``_parse_reader``."""


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

    def _tails(self, count: int) -> np.ndarray:
        """The ``8 * count`` bytes that end at each token's end, bytes before
        the token included, gathered at once as ``count`` rows of
        little-endian ``uint64`` words, the earliest first. A window that
        would start before the buffer reads a zero-padded copy of its first
        bytes."""
        size = 8 * count
        head = np.zeros(2 * size, np.uint8)
        head[size:size + min(len(self.buf), size)] = self.buf[:size]
        starts = self.ends - size
        # indexed, not take(), which would copy every window first
        words = _windows(self.buf if len(self.buf) >= size else head, size)[np.maximum(starts, 0)]
        early = np.flatnonzero(starts < 0)
        words[early] = _windows(head, size)[starts[early] + size]
        return np.ascontiguousarray(words.view("<u8").reshape(len(self), count).T)

    def keys(self) -> np.ndarray:
        """An integer per token, equal exactly where the tokens are. A
        token's last 8 bytes, after 0xFF bytes, which UTF-8 never holds (so
        "a" and "\\0a" differ), make a ``uint64``. While tokens past 8 bytes
        share a rank, they are ranked by it and the 8 bytes before."""
        lens = self.ends - self.starts
        keys = self._tails(1)[0] | _LOW_BYTES.take(8 - lens, mode="clip")
        if lens.max(initial=0) <= 8:
            return keys
        keys = np.unique(keys, return_inverse=True)[1]
        rows, at = np.flatnonzero(lens > 8), 8
        while len(rows):  # each byte read once, and none past a unique rank
            ends = self.ends[rows] - at
            word = _ByteTokens(self.buf, ends - np.minimum(lens[rows] - at, 8), ends).keys()
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
        and its M digits form an integer below 2**53. Its value is M / 10**p
        for its p digits after the dot, negated for a ``-``: one correctly
        rounded division of two exact doubles, so it is the correctly
        rounded decimal that ``float()`` returns (Clinger's fast path).

        The 16 bytes that end at each token's end are gathered at once as
        two words; the bytes before the token, and its sign, are masked to
        leading zeros. One pass flags each byte that is not a digit; a token
        is read where the one flagged, if any, is the dot, read as a 0. The
        flags also give the dot's place, so the 16 digits (Lemire's SWAR
        parse) spell W = A * 10**(p + 1) + B for the A before the dot and
        the B after it, and one division gives M = W - 9 * 10**p * (W //
        10**(p + 1)). Tokens are read ``_DECIMAL_TOKENS`` at a time to bound
        the temporaries. A masked token's value is arbitrary.
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
        # an empty buffer holds only empty tokens, which are never read
        first = self.buf.take(self.starts, mode="clip") if len(self.buf) else 0
        negative = first == ord("-")
        signed = negative | (first == ord("+"))
        lead = 16 - short + signed  # the window's bytes before the digits
        # each byte minus '0': digits become 0-9, and the lead bytes 0
        words = self._tails(2)
        words ^= _ASCII_ZEROS
        words[0] &= _PAST_BYTES.take(lead, mode="clip")
        words[1] &= _PAST_BYTES.take(lead - 8, mode="clip")
        flags = words + _OVER_9
        flags |= words
        flags &= _HIGH_BITS
        flags >>= _U64(7)  # bit 0 of each byte above 9
        words ^= flags * _DOT  # a dot reads as 0, any other flagged byte as more
        other = flags * _U64(0xFF) & words
        count = (flags[0] + flags[1]) * _ONES >> _U64(56)
        # 1 + the digits after the dot, or 0; any value where more bytes are flagged
        place = (flags[0] * _DOT_PLACES[0] + flags[1] * _DOT_PLACES[1] >> _U64(56)).view(np.int64)
        halves = _eight_digits(words)
        mantissa = halves[0] * _U64(10**8)
        mantissa += halves[1]  # W = A * 10**(p + 1) + B, with the dot read as 0
        mantissa -= mantissa // _TENS.take(place, mode="clip") * _NINES.take(place, mode="clip")
        read = ((other[0] | other[1] == 0) & (count <= _U64(1)) & (lens <= 16)
                & (short - signed - (place > 0) > 0) & (mantissa < _U64(2**53)))
        values = mantissa.astype(np.float64)
        values /= _PLACES.take(place, mode="clip")
        np.negative(values, out=values, where=negative)
        return values, ~read


# decimals() reads this many tokens at a time, at about 100 bytes of
# temporaries per token (1.7 MB; tracemalloc). Per 100,000-token column of
# the csv-discover input, in-process on a 2-core x86 host, medians of 40
# alternated rounds: 6.5, 6.9, 6.6, 6.6, 6.8 and 7.2 ms at 2**12 to 2**17.
_DECIMAL_TOKENS = 1 << 14
_U64 = np.uint64
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_PAST_BYTES = ~_LOW_BYTES  # 0xFF in every byte of a word after its first k
_ASCII_ZEROS = _U64(0x30 * 0x0101010101010101)
_DOT = _U64(ord(".") ^ 0x30)
_OVER_9 = _U64(0x76 * 0x0101010101010101)  # carries a byte above 9 into its high bit
_HIGH_BITS = _U64(0x8080808080808080)
_ONES = _U64(0x0101010101010101)
# byte j of the window, flagged, adds 16 - j to the top byte: 1 + the digits after it
_DOT_PLACES = np.array([0x100F0E0D0C0B0A09, 0x0807060504030201], dtype=np.uint64)
# by that place P: 10**P, or for no dot (P = 0) 10**17, above any 16 digits
_TENS = np.array([10**17] + [10**k for k in range(1, 17)], dtype=np.uint64)
_NINES = _TENS // _U64(10) * _U64(9)  # 9 * 10**p for p = P - 1 digits after the dot
_PLACES = np.array([1.0] + [10.0**k for k in range(16)])  # 10**p, exact doubles


def _windows(buf: np.ndarray, size: int) -> np.ndarray:
    """Every run of ``size`` bytes of ``buf``, one ``V{size}`` item per start."""
    return np.ndarray(len(buf) - size + 1, f"V{size}", buf, strides=(1,))


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """Each word of 8 digit bytes, in place, as the number they spell, the
    first byte most significant; returns ``words``."""
    words *= _U64(10 << 8 | 1)
    words >>= _U64(8)  # byte k: 10 * digit k + digit k + 1
    words &= _U64(0x00FF00FF00FF00FF)
    words *= _U64(100 << 16 | 1)
    words >>= _U64(16)
    words &= _U64(0x0000FFFF0000FFFF)
    words *= _U64(10000 << 32 | 1)
    words >>= _U64(32)
    return words


def _parse_plain(data: bytes | str, has_header: bool) -> RawTable | None:
    """Tokenize plain CSV as bytes, or return None to leave it to
    ``_parse_reader``; never raises.

    Plain means UTF-8 with no quote, NUL or bare CR, a first line that is
    not blank, distinct header names, every other line blank or holding as
    many fields as the first, and no field longer than
    ``csv.field_size_limit()`` bytes. As in ``_parse_reader``, blank lines
    are skipped and rows with an empty field are dropped and counted. On
    plain input the table equals the one ``_parse_reader`` gives.

    The bytes are cut into chunks of about ``_CHUNK_BYTES``, each ending
    after a line feed, and walked in two passes. The first counts each
    chunk's line feeds: their running sum is the row where the chunk's first
    line lands if no line is dropped, and their total sizes one
    (starts or ends, column, row) offset array. The second checks each
    chunk (as UTF-8, where it is not ASCII; a CR only in a CRLF; the field
    size; the field count), finds its separators with one
    ``np.flatnonzero``, and writes the spans of the rows it keeps column by
    column from its own first row on. A chunk that dropped a blank line or
    a row with an empty field leaves a gap after its rows; once every chunk
    is done, the later chunks' rows are moved down over the gaps in order,
    so each column's spans are one contiguous run. Both passes run on two
    threads where the input has ``_HELPER_CHUNKS`` chunks and the process
    may use more than one CPU; the table is the same. Each column is a
    ``_ByteTokens`` over the input's own bytes, which are not copied.
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
    cuts = [start]
    while cuts[-1] < stop:
        cuts.append(data.find(b"\n", cuts[-1] + _CHUNK_BYTES, stop) + 1 or stop)
    chunks = len(cuts) - 1
    threaded = chunks >= _HELPER_CHUNKS and _usable_cpus() > 1

    def each(function) -> list:
        """``function`` of every chunk's index, in order."""
        if threaded:
            return _map_on_two_threads(function, chunks)
        return [function(i) for i in range(chunks)]

    def line_feeds(i: int) -> int:
        return np.count_nonzero(raw[cuts[i]:cuts[i + 1]] == ord("\n"))

    firsts = np.cumsum([0] + each(line_feeds))
    first_line = data.find(b"\n", start, stop)  # chunk 0 checks its field count
    d = data.count(b",", start, stop if first_line < 0 else first_line) + 1
    # (starts or ends, column, row): a row per line feed, and one for the last line
    spans = np.empty((2, d, firsts[-1] + 1), dtype=offset)

    def tokenize(i: int) -> tuple[int, int]:
        """Check chunk i, write the spans of the rows it keeps from row
        ``firsts[i]`` on, and return how many it kept and how many it
        dropped for an empty field; raise _NotPlain where a check fails."""
        start, end = cuts[i], cuts[i + 1]
        piece = data[start:end]
        if not piece.isascii():
            try:
                piece.decode()
            except UnicodeDecodeError:
                raise _NotPlain from None
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
                raise _NotPlain  # a bare CR, or one in a field
            ends = seps - cr_before
        lens = ends - starts
        if lens.max() > limit:
            raise _NotPlain
        line_ends = np.flatnonzero(newline)
        fields = np.diff(line_ends, prepend=-1)
        blank = (fields == 1) & (lens[line_ends] == 0)
        if ((fields != d) & ~blank).any() or (i == 0 and blank[0]):
            raise _NotPlain
        if blank.any():  # csv skips blank lines
            kept = np.repeat(~blank, fields)
            starts, ends, lens = starts[kept], ends[kept], lens[kept]
        row_starts, ends = starts[::d], ends.reshape(-1, d)
        rejected = 0
        if not lens.all():
            empty = (lens.reshape(-1, d) == 0).any(axis=1)
            empty[:int(has_header and i == 0)] = False  # the header row stays
            rejected = int(empty.sum())
            row_starts, ends = row_starts[~empty], ends[~empty]
        column_starts, column_ends = spans[:, :, firsts[i]:firsts[i] + len(ends)]
        column_ends[...] = ends.T
        # any other field starts one past the comma that ends the field
        # before it, since only a line's last field can end before a CR
        column_starts[0] = row_starts
        np.add(column_ends[:-1], 1, out=column_starts[1:])
        return len(ends), rejected

    try:
        counts = each(tokenize)
    except _NotPlain:
        return None
    rows = rejected = 0
    for at, (kept, dropped) in zip(firsts, counts):
        if at != rows:  # the rows this chunk kept, moved down over the gaps before it
            spans[:, :, rows:rows + kept] = spans[:, :, at:at + kept]
        rows += kept
        rejected += dropped
    if has_header:
        names = tuple(data[s:e].decode() for s, e in spans[:, :, 0].T)
        if len(set(names)) != d:
            return None  # duplicate names
    else:
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
# leading tokens are plain decimals. Reading costs about a quarter of what
# decoding and float() do (6.6 against 24.4 ms per 100,000-token column,
# timed as at _DECIMAL_TOKENS) and is wasted on a column of exponents or
# 17-digit reprs.
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
            except Exception as exc:  # raised in index order once both are done
                errors[i] = exc
                stop()

    helper = threading.Thread(target=drain, name="corrsets-helper")
    helper.start()
    try:
        drain()
    except BaseException:  # Ctrl-C: the helper ends with the index it holds
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
