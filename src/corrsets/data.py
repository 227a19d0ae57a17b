"""CSV ingestion, categorical encoding, and equal-frequency discretization.

Raw tables hold text tokens; encoding maps each column to dense integer
codes in first-occurrence order and records the observed domain size and
marginal entropy per attribute. Domain sizes are always observed
distinct-value counts, never declared schemas, because every downstream
correction term is a function of the empirical table.
"""

from __future__ import annotations

import codecs
import csv
import io
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .estimators import _dense, entropy

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
    """Column-major text table. ``rejected_rows`` counts rows dropped for
    containing empty fields (missing values are not imputed)."""

    column_names: tuple[str, ...]
    columns: tuple[tuple[str, ...], ...]
    row_count: int
    rejected_rows: int = 0


@dataclass(frozen=True, eq=False)
class Attribute:
    """One encoded column: dense codes in [0, domain_size) plus its
    observed domain size and plug-in entropy in bits."""

    name: str
    codes: np.ndarray
    domain_size: int
    entropy: float


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
            attrs.append(_make_attribute(name, codes.astype(np.int64, copy=False), n))
        return cls(attributes=tuple(attrs), n=n)


def _make_attribute(name: str, codes: np.ndarray, n: int) -> Attribute:
    low = int(codes.min(initial=0))  # from_codes takes negative codes too
    counts, number = _dense(codes - low, int(codes.max(initial=0)) - low + 1)
    return Attribute(
        name=name,
        codes=number(np.int64),
        domain_size=int(len(counts)),
        entropy=entropy(counts, n),
    )


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


_CHUNK_BYTES = 1 << 20  # the plain path decodes and splits this much at a time


def _parse_plain(data: bytes | str, has_header: bool) -> RawTable | None:
    """Split plain CSV column-wise, or return None to leave it to
    ``_parse_reader``; never raises.

    Plain means UTF-8 with no quote, NUL or bare CR, a first line that is
    not blank, every other line blank or holding as many fields as the
    first, and no line longer than ``csv.field_size_limit()``. As in
    ``_parse_reader``, blank lines are skipped and rows with an empty field
    are dropped and counted, each in the chunk that holds it; a
    single-column file with either falls back, since there the two look the
    same. On plain input the table equals the one ``_parse_reader`` gives.
    The text is split in chunks cut after a line feed, so no per-row list
    is built and the whole token list never exists at once. Only ``"\\n"``
    splits lines: ``str.splitlines`` would also split on characters that
    csv keeps inside a field.
    """
    if isinstance(data, str):
        try:
            data = data.encode()
        except UnicodeEncodeError:  # a lone surrogate
            return None
    data = data.removeprefix(codecs.BOM_UTF8)
    if (b'"' in data or b"\0" in data  # csv before 3.11 refuses NUL
            or data.count(b"\r") != data.count(b"\r\n")):
        return None
    stop = len(data)
    while stop and data[stop - 1] in b"\r\n":  # csv skips trailing blank lines
        stop -= 1
    if not stop:
        return None
    limit = csv.field_size_limit()
    columns = None
    rejected = 0
    start = 0
    while start < stop:
        end = data.find(b"\n", start + _CHUNK_BYTES, stop) + 1 or stop
        try:
            text = data[start:end].replace(b"\r\n", b"\n").decode()
        except UnicodeDecodeError:
            return None
        header = int(has_header and start == 0)
        start = end
        text = text.removesuffix("\n")
        lines = text.split("\n")
        if max(map(len, lines)) > limit:
            return None
        if columns is None:
            first = lines[0].split(",")
            if has_header and len(set(first)) != len(first):
                return None  # duplicate names
            columns = [[] for _ in first]
        d = len(columns)
        if set(map(str.count, lines, repeat(","))) != {d - 1}:
            lines = [line for line in lines if line]  # csv skips blank lines
            if set(map(str.count, lines, repeat(","))) - {d - 1}:
                return None
        tokens = text.replace("\n", ",").split(",")
        del text
        if "" in tokens:  # an empty field or a blank line
            if d == 1:  # where the two look the same
                return None
            rows = len(lines)
            lines[header:] = [line for line in lines[header:]
                              if ",," not in f",{line},"]
            rejected += rows - len(lines)
            tokens = ",".join(lines).split(",") if lines else []
        del lines
        for j, column in enumerate(columns):
            column += tokens[j::d]
    if has_header:
        names = tuple(column.pop(0) for column in columns)
    else:
        names = tuple(f"X{j + 1}" for j in range(d))
    for j, column in enumerate(columns):
        columns[j] = tuple(column)  # frees each list as soon as it is copied
    return RawTable(column_names=names, columns=tuple(columns),
                    row_count=len(columns[0]), rejected_rows=rejected)


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


def discretize_equal_frequency(values, bins: int) -> np.ndarray:
    """Cut values into ``bins`` rank-contiguous groups of near-equal size.

    A column with at most ``bins`` distinct values is not cut: each value
    keeps a code of its own, in ascending value order. Otherwise group
    sizes before tie handling differ by at most one. All occurrences of a
    tied value take the group of its lowest stable-sort rank (the lower
    bin), so the returned code is a function of the value; codes are then
    compacted to remove bins emptied by that rule.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise DataError("cannot discretize an empty column")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not np.all(np.isfinite(vals)):
        raise DataError("cannot discretize non-finite values")
    n = vals.size
    order = np.argsort(vals, kind="stable")
    sorted_vals = vals[order]
    is_first = np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1]))
    value_of_rank = np.cumsum(is_first) - 1
    codes = np.empty(n, dtype=np.int64)
    if value_of_rank[-1] < bins:
        codes[order] = value_of_rank
        return codes
    base, rem = divmod(n, bins)
    sizes = np.full(bins, base, dtype=np.int64)
    sizes[:rem] += 1
    group_of_rank = np.repeat(np.arange(bins, dtype=np.int64), sizes)
    first_rank = np.flatnonzero(is_first)[value_of_rank]
    codes[order] = group_of_rank[first_rank]
    return _dense(codes, bins)[1](np.int64)


def _floats(column, name: str) -> np.ndarray:
    """Parse every token of a column as a finite float, each token once."""
    try:
        values = np.fromiter(map(float, column), dtype=np.float64, count=len(column))
    except ValueError:
        for tok in column:
            try:
                float(tok)
            except ValueError:
                raise DataError(f"column {name!r}: non-numeric value {tok!r}") from None
        raise
    if not np.isfinite(values).all():
        raise DataError(f"column {name!r}: non-finite numeric value")
    return values


def encode(table: RawTable, bins: int = 5, numeric_cols="auto") -> EncodedDataset:
    """Encode a RawTable into dense integer attributes.

    Columns chosen by ``numeric_cols`` are parsed as floats and
    equal-frequency binned: "auto" bins every column of finite numbers,
    "none" bins nothing, and a list of names bins those columns, each of
    which must hold finite numbers only. Other columns, numerals included,
    map to codes in first-occurrence order of their tokens.
    """
    if table.row_count < 2:
        raise DataError("need at least 2 rows: correction terms divide by n - 1")
    auto = numeric_cols == "auto"
    numeric = set() if auto or numeric_cols == "none" else set(numeric_cols)
    unknown = numeric - set(table.column_names)
    if unknown:
        raise DataError(f"unknown numeric columns: {sorted(unknown)}")
    attrs = []
    for name, column in zip(table.column_names, table.columns):
        codes = None
        if auto or name in numeric:
            try:
                values = _floats(column, name)
            except DataError:
                if not auto:
                    raise  # a named column must parse; under auto it stays categorical
            else:
                codes = discretize_equal_frequency(values, bins)
        if codes is None:
            mapping: dict[str, int] = {}
            codes = np.fromiter(
                (mapping.setdefault(tok, len(mapping)) for tok in column),
                count=len(column), dtype=np.int64,
            )
        attrs.append(_make_attribute(name, codes, table.row_count))
    return EncodedDataset(attributes=tuple(attrs), n=table.row_count)
