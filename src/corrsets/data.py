"""CSV ingestion, categorical encoding, and equal-frequency discretization.

Raw tables hold text tokens; encoding maps each column to dense integer
codes in first-occurrence order and records the observed domain size and
marginal entropy per attribute. Domain sizes are always observed
distinct-value counts, never declared schemas, because every downstream
correction term is a function of the empirical table.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

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
        column so codes are dense in [0, observed domain size)."""
        attrs = []
        for name, codes in zip(names, code_columns):
            attrs.append(_make_attribute(name, np.asarray(codes, dtype=np.int64), n))
        return cls(attributes=tuple(attrs), n=n)


def _make_attribute(name: str, codes: np.ndarray, n: int) -> Attribute:
    low = int(codes.min(initial=0))  # from_codes takes negative codes too
    dense, counts = _dense(codes - low, int(codes.max(initial=0)) - low + 1)
    return Attribute(
        name=name,
        codes=dense,
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
    return _dense(codes, bins)[0]


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
