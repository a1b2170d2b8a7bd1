"""Typed column frames parsed from delimited byte chunks.

The parser is bulk-first: :func:`tokenize` splits a chunk into records and
fields with ``bytes.split``, and each column is coerced with one vectorized
numpy cast.  Columns that the vectorized cast rejects fall back to per-field
coercion with identical semantics, so parse results never depend on chunk
boundaries or on which path ran.

This module owns the record layout: a record ends at LF (one trailing CR is
dropped), fields are split on one separator byte, and an optional quote byte
makes the separator literal.  :func:`check_layout` validates both bytes, and
:func:`tokenize` is the only splitter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence, Union

import numpy as np

from ._coerce import ColumnType, convert_column, is_null_token, parse_field_ex
from .errors import (
    HeaderArityMismatch,
    MissingColumn,
    RaggedInput,
    SchemaError,
    StrictViolation,
)

__all__ = [
    "ColumnType",
    "Schema",
    "Column",
    "Frame",
    "ParseReport",
    "parse_frame",
    "parse_frame_with_header",
    "infer_schema",
    "concat_frames",
    "frames_equal",
    "check_layout",
    "tokenize",
    "split_quoted",
]

# records after any header that infer_schema samples
_SAMPLE_RECORDS = 1000


@dataclass(frozen=True)
class Schema:
    """Column layout of a delimited input.

    ``types`` covers every physical column, including skipped ones; ``names``
    (optional) covers only the output columns, i.e. the non-skip positions.
    ``quote`` enables opt-in quote handling: inside a quoted region the field
    separator is literal and a doubled quote is a literal quote character.
    Records follow the layout described in the module docstring.
    """

    types: tuple
    names: tuple | None = None
    field_sep: bytes = b","
    quote: bytes | None = None

    def __post_init__(self):
        if not self.types:
            raise SchemaError("schema has no columns")
        object.__setattr__(self, "types", tuple(self.types))
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != self.n_out:
                raise SchemaError(
                    f"{len(self.names)} names for {self.n_out} output columns"
                )
        check_layout(self.field_sep, self.quote)

    @property
    def n_out(self) -> int:
        return sum(1 for t in self.types if t is not ColumnType.SKIP)

    def out_names(self) -> tuple:
        if self.names is not None:
            return self.names
        return tuple(f"V{i + 1}" for i in range(self.n_out))


@dataclass
class Column:
    """One typed column: values plus a null mask.

    ``values`` is a numpy array except for Character/Bytes columns, which use
    Python lists (with ``None`` at null slots).  ``mask`` is True where the
    value is null; the value slot then holds a type-specific placeholder.
    """

    name: str
    ctype: ColumnType
    values: Union[np.ndarray, list]
    mask: np.ndarray

    def __post_init__(self):
        if len(self.values) != len(self.mask):
            raise SchemaError(
                f"column {self.name!r}: {len(self.values)} values "
                f"vs {len(self.mask)} mask entries"
            )

    @property
    def n_rows(self) -> int:
        return len(self.mask)


@dataclass(eq=False)
class Frame:
    """A list of equal-length named columns."""

    columns: list = field(default_factory=list)

    def __post_init__(self):
        lengths = {c.n_rows for c in self.columns}
        if len(lengths) > 1:
            raise SchemaError(f"ragged frame: column lengths {sorted(lengths)}")

    @property
    def names(self) -> list:
        return [c.name for c in self.columns]

    @property
    def n_rows(self) -> int:
        return self.columns[0].n_rows if self.columns else 0

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise MissingColumn(name)

    def __eq__(self, other):
        if not isinstance(other, Frame):
            return NotImplemented
        return frames_equal(self, other)


@dataclass
class ParseReport:
    """Parse diagnostics: record counts, ragged-row counts, and per-column
    coercion failures (null tokens are not failures)."""

    n_records: int = 0
    short_rows: int = 0
    long_rows: int = 0
    column_failures: dict = field(default_factory=dict)

    @property
    def total_failures(self) -> int:
        return sum(self.column_failures.values())

    def merge(self, other: "ParseReport") -> "ParseReport":
        failures = dict(self.column_failures)
        for name, n in other.column_failures.items():
            failures[name] = failures.get(name, 0) + n
        return ParseReport(
            self.n_records + other.n_records,
            self.short_rows + other.short_rows,
            self.long_rows + other.long_rows,
            failures,
        )


def check_layout(field_sep: bytes, quote: bytes | None = None) -> None:
    """Raise SchemaError unless ``field_sep`` is one non-newline byte and
    ``quote`` (when given) is one byte distinct from both separators, each
    given as ``bytes``."""
    if (not isinstance(field_sep, bytes) or len(field_sep) != 1
            or field_sep == b"\n"):
        raise SchemaError("field_sep must be a single non-newline byte")
    if quote is not None and (not isinstance(quote, bytes) or len(quote) != 1
                              or quote in (b"\n", field_sep)):
        raise SchemaError("quote must be a single byte distinct from separators")


def _skip_records(chunk: bytes, n: int):
    """Drop up to ``n`` leading records; returns ``(rest, n_dropped)``.
    An unterminated final record counts as a record."""
    if n < 0:
        raise ValueError("skip must be non-negative")
    dropped = 0
    pos = 0
    while dropped < n and pos < len(chunk):
        j = chunk.find(b"\n", pos)
        if j == -1:
            return b"", dropped + 1
        dropped += 1
        pos = j + 1
    return chunk[pos:], dropped


def tokenize(chunk: bytes, field_sep: bytes = b",", quote: bytes | None = None,
             *, limit: int = -1):
    """Split a chunk into rows of raw fields.

    Returns ``(rows, quoted)``.  ``limit``, when not negative, keeps at most
    that many leading records, and the rest of the chunk is not split.  The
    empty tail after a final newline is not a record.  Without ``quote``,
    ``quoted`` is None; with it, each row has a parallel list of flags from
    :func:`split_quoted`.
    """
    check_layout(field_sep, quote)
    records = chunk.split(b"\n", limit)
    # drop the empty tail after a final LF, or the unsplit rest past limit
    if records[-1] == b"" or len(records) > limit >= 0:
        records.pop()
    if b"\r" in chunk:
        records = [r[:-1] if r.endswith(b"\r") else r for r in records]
    if quote is None:
        return [r.split(field_sep) for r in records], None
    pairs = [split_quoted(r, field_sep, quote) for r in records]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def split_quoted(record: bytes, sep: bytes, quote: bytes):
    """Split one record on ``sep`` honouring quoted regions.

    Returns ``(fields, quoted_flags)``.  Inside a quoted region the separator
    is literal and a doubled quote denotes one literal quote character; the
    quote characters themselves are not part of the field value.  A field is
    flagged quoted when any part of it came from a quoted region.  Newlines
    cannot occur (records are already newline-split); an unbalanced quote
    simply runs to the end of the record.
    """
    segments = record.split(quote)
    n = len(segments)
    fields = []
    flags = []
    current = bytearray()
    current_quoted = False
    in_quotes = False
    i = 0
    while i < n:
        seg = segments[i]
        last = i == n - 1
        if in_quotes:
            current += seg
            if not last:
                if i + 2 < n and segments[i + 1] == b"":
                    # two adjacent quotes inside a region: a literal quote
                    current += quote
                    i += 2
                    continue
                in_quotes = False
        else:
            parts = seg.split(sep)
            current += parts[0]
            for part in parts[1:]:
                fields.append(bytes(current))
                flags.append(current_quoted)
                current = bytearray(part)
                current_quoted = False
            if not last:
                in_quotes = True
                current_quoted = True
        i += 1
    fields.append(bytes(current))
    flags.append(current_quoted)
    return fields, flags


def _uniform_arity(rows) -> int:
    """The field count every row shares (0 without rows); RaggedInput
    names the first row that differs."""
    arity = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if len(row) != arity:
            raise RaggedInput(
                f"record {i} has {len(row)} fields, record 0 has {arity}"
            )
    return arity


def _build_frame(rows, qrows, schema: Schema, bulk: bool):
    n_cols = len(schema.types)
    short = long_ = 0
    for idx, row in enumerate(rows):
        k = len(row)
        if k < n_cols:
            short += 1
            row.extend([b""] * (n_cols - k))
            if qrows is not None:
                qrows[idx].extend([False] * (n_cols - k))
        elif k > n_cols:
            long_ += 1
            del row[n_cols:]
            if qrows is not None:
                del qrows[idx][n_cols:]
    names = schema.out_names()
    columns = []
    failures = {}
    out_i = 0
    for j, ctype in enumerate(schema.types):
        if ctype is ColumnType.SKIP:
            continue
        fields = [row[j] for row in rows]
        qcol = [q[j] for q in qrows] if qrows is not None else None
        values, mask, fails = convert_column(fields, ctype, qcol, bulk)
        columns.append(Column(names[out_i], ctype, values, mask))
        failures[names[out_i]] = fails
        out_i += 1
    report = ParseReport(len(rows), short, long_, failures)
    return Frame(columns), report


def _enforce_strict(report: ParseReport):
    problems = []
    if report.total_failures:
        problems.append(f"{report.total_failures} coercion failures")
    if report.short_rows:
        problems.append(f"{report.short_rows} short rows")
    if report.long_rows:
        problems.append(f"{report.long_rows} long rows")
    if problems:
        raise StrictViolation(", ".join(problems))


def parse_frame(chunk: bytes, schema: Schema, *, strict: bool = False):
    """Parse a record-aligned chunk into a Frame.

    Returns ``(frame, report)``.  With ``strict=True`` any coercion failure
    or ragged row raises StrictViolation instead of being counted.
    """
    rows, quoted = tokenize(chunk, schema.field_sep, schema.quote)
    bulk = b"\x00" not in chunk
    frame, report = _build_frame(rows, quoted, schema, bulk)
    if strict:
        _enforce_strict(report)
    return frame, report


def _header_names(chunk: bytes, schema: Schema) -> list:
    """The name of every physical column, skipped ones included, from the
    header record that opens ``chunk``."""
    rows = tokenize(chunk, schema.field_sep, schema.quote, limit=1)[0]
    if not rows:
        raise HeaderArityMismatch("no header record in an empty chunk")
    if len(rows[0]) != len(schema.types):
        raise HeaderArityMismatch(
            f"header has {len(rows[0])} fields, schema has {len(schema.types)}"
        )
    return [f.decode("utf-8", "surrogateescape") for f in rows[0]]


def parse_frame_with_header(chunk: bytes, schema: Schema, strict: bool = False):
    """Parse a chunk whose first record is a header naming the columns.

    The header must have exactly one field per schema entry (including
    skipped ones); names at skipped positions are dropped.  Any names already
    on the schema are replaced.
    """
    names = tuple(n for n, t in zip(_header_names(chunk, schema), schema.types)
                  if t is not ColumnType.SKIP)
    named = replace(schema, names=names)
    return parse_frame(_skip_records(chunk, 1)[0], named, strict=strict)


def infer_schema(sample: bytes, field_sep: bytes = b",") -> Schema:
    """Guess column types from the first ``_SAMPLE_RECORDS`` records of a
    sample; the rest of it is not split.

    Candidate order per column is Logical, Integer, Real, then Character;
    null tokens are ignored and an all-null column becomes Character.  The
    Bytes, Complex, and Timestamp types are never inferred.  Quote handling
    is not applied while sampling, and sampled records that disagree on
    field count raise RaggedInput.
    """
    rows = tokenize(sample, field_sep, limit=_SAMPLE_RECORDS)[0]
    if not rows:
        raise SchemaError("cannot infer a schema from an empty sample")
    types = [_infer_column([row[j] for row in rows])
             for j in range(_uniform_arity(rows))]
    return Schema(types=tuple(types), field_sep=field_sep)


def _infer_column(fields) -> ColumnType:
    present = [f for f in fields if not is_null_token(f)]
    if not present:
        return ColumnType.CHARACTER
    for cand in (ColumnType.LOGICAL, ColumnType.INTEGER, ColumnType.REAL):
        if all(not parse_field_ex(f, cand)[1] for f in present):
            return cand
    return ColumnType.CHARACTER


def concat_frames(frames: Sequence[Frame]) -> Frame:
    """Stack frames with identical names and types, in order."""
    frames = list(frames)
    if not frames:
        raise ValueError("concat_frames needs at least one frame")
    first = frames[0]
    for fr in frames[1:]:
        if fr.names != first.names or [c.ctype for c in fr.columns] != [
            c.ctype for c in first.columns
        ]:
            raise SchemaError("frames disagree on column names or types")
    if len(frames) == 1:
        return first
    columns = []
    for i, col in enumerate(first.columns):
        parts = [fr.columns[i] for fr in frames]
        if isinstance(col.values, list):
            values = [v for p in parts for v in p.values]
        else:
            values = np.concatenate([p.values for p in parts])
        mask = np.concatenate([p.mask for p in parts])
        columns.append(Column(col.name, col.ctype, values, mask))
    return Frame(columns)


def _float_bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(
        np.ascontiguousarray(a).view(np.uint64),
        np.ascontiguousarray(b).view(np.uint64),
    )


def frames_equal(a: Frame, b: Frame) -> bool:
    """Structural equality: names, types, null masks, and non-null values.

    Floating columns compare bit-for-bit (so signed zeros must match and
    NaNs compare equal to themselves); values at null slots are ignored.
    """
    if a.names != b.names or a.n_rows != b.n_rows:
        return False
    if [c.ctype for c in a.columns] != [c.ctype for c in b.columns]:
        return False
    for ca, cb in zip(a.columns, b.columns):
        if not np.array_equal(ca.mask, cb.mask):
            return False
        keep = ~ca.mask
        if isinstance(ca.values, list):
            va = [v for v, k in zip(ca.values, keep) if k]
            vb = [v for v, k in zip(cb.values, keep) if k]
            if va != vb:
                return False
        elif ca.ctype in (ColumnType.REAL, ColumnType.TIMESTAMP,
                          ColumnType.COMPLEX):
            if not _float_bits_equal(
                np.asarray(ca.values)[keep], np.asarray(cb.values)[keep]
            ):
                return False
        else:
            if not np.array_equal(
                np.asarray(ca.values)[keep], np.asarray(cb.values)[keep]
            ):
                return False
    return True
