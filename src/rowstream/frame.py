"""Typed column frames parsed from delimited byte chunks.

The parser is bulk-first: a chunk is split into records and fields (see
below), and each column is coerced with one vectorized numpy cast.  The
cells a cast rejects are found and read one by one with identical
semantics, so parse results never depend on chunk boundaries or on which
path ran.

This module owns the record layout: a record ends at LF (one trailing CR is
dropped), fields are split on one separator byte, and an optional quote byte
makes the separator literal.  :func:`check_layout` validates both bytes.
Two splitters share the layout.  :func:`_field_offsets` finds the byte
offsets of the fields of the columns a caller converts, with numpy scans of
blocks of whole records, and keeps them as int32 (int64 for a chunk of
2 GiB or more); :func:`_gather` copies a column of fields straight into an
``S`` array, with no Python object per field.  So the memory a parse takes
beyond its result is a fraction of its chunk, and a skipped column costs
only its share of the scan.  They serve every chunk and every sample for
:func:`infer_schema` that holds no quote byte and no NUL, CRLF and ragged
records included: the CR before an LF ends the last field early, each
record's field count comes from its LF, a short record's missing fields are
empty and a long record's extra ones are dropped.  :func:`tokenize` splits
quoted and NUL-bearing chunks and samples, and the header that
:func:`_header_names` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence, Union

import numpy as np

from ._coerce import (_TYPES, ColumnType, _logical_bulk, _null_mask,
                     convert_column, is_null_token)
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
# bytes per block of the offset scan: an array over each of a block's
# fields stays under the 128 KiB from which glibc maps an allocation afresh
_SCAN_BYTES = 1 << 15
# chunks from this size on need int64 offsets
_INT32_LIMIT = 1 << 31

# _BYTE_MASKS[i] keeps the first i bytes of a little-endian 64-bit word
_BYTE_MASKS = np.array([(1 << 8 * i) - 1 for i in range(9)], np.dtype("<u8"))


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
        raise MissingColumn(f"no column {name!r}")

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


def _record_blocks(chunk: bytes):
    """``(lo, hi)`` spans that tile ``chunk`` with whole records, each ending
    at the first LF at or past ``_SCAN_BYTES`` bytes from its start, as the
    chunker cuts windows."""
    lo = 0
    while lo < len(chunk):
        hi = chunk.find(b"\n", lo + _SCAN_BYTES - 1) + 1 or len(chunk)
        yield lo, hi
        lo = hi


def _field_offsets(chunk: bytes, ncol: int | None, sep: bytes, cols=None):
    """``(starts, ends, counts)`` for the fields :func:`tokenize` would split
    from ``chunk``: ``counts`` holds each record's field count, and
    ``starts`` and ``ends`` the byte offsets of the fields in ``cols``, an
    ascending index array (by default all ``ncol``, which is record 0's
    count when None), as two ``(records, len(cols))`` arrays, where a short
    record's missing fields are empty.  The offsets are int32 below
    ``_INT32_LIMIT`` bytes and int64 from there.  None for an empty chunk or
    one holding a NUL.  Quotes are not looked for, and ``sep`` must already
    have passed :func:`check_layout`.

    The chunk is scanned in blocks of whole records (see
    :func:`_record_blocks`), so an array over every field of a block is the
    size of a block, not of the chunk."""
    if not chunk or b"\x00" in chunk:
        return None
    if ncol is None:
        record = chunk.split(b"\n", 1)[0]
        # a CR separator before LF ends the record's last field
        ncol = record.count(sep) + 1 - (sep == b"\r" and record.endswith(sep))
    dtype = np.int32 if len(chunk) < _INT32_LIMIT else np.int64
    n = chunk.count(b"\n") + (chunk[-1] != 10)
    width = ncol if cols is None else len(cols)
    starts = np.empty((n, width), dtype)
    ends = np.empty((n, width), dtype)
    counts = np.empty(n, dtype)
    a = np.frombuffer(chunk, np.uint8)
    row = 0
    for lo, hi in _record_blocks(chunk):
        block = a[lo:hi] if chunk[hi - 1] == 10 else np.append(a[lo:hi], 10)
        offsets = _scan_block(block, ncol, sep[0], cols)
        rows = slice(row, row + len(offsets[2]))
        starts[rows], ends[rows], counts[rows] = offsets
        if lo:
            starts[rows] += lo
            ends[rows] += lo
        row = rows.stop
    return starts, ends, counts


def _scan_block(b: np.ndarray, ncol: int, sep: int, cols):
    """:func:`_field_offsets` of one block ``b`` of whole records that ends
    in LF, with offsets from the block's start."""
    is_lf = b == 10
    hits = b == sep
    hits |= is_lf
    ends = np.flatnonzero(hits)
    n = int(np.count_nonzero(is_lf))
    if (sep != 13 and len(ends) == n * ncol
            and (b[ends[ncol - 1::ncol]] == 10).all()):
        # every record has ncol fields, each starting one byte past the end
        # of the field before it, or of the record before
        ends = ends.reshape(n, ncol)
        if cols is None:
            starts = np.empty_like(ends)
            starts.ravel()[1:] = ends.ravel()[:-1] + 1
            starts[0, 0] = 0
        else:
            starts = ends[:, cols - 1] + 1
            if len(cols) and cols[0] == 0:
                starts[0, 0] = 0
                starts[1:, 0] = ends[:-1, -1] + 1
        # the CR tokenize drops before LF ends the last field early
        ends[:, -1] -= b[ends[:, -1] - 1] == 13
        if cols is not None:
            ends = ends[:, cols]
        return starts, ends, np.full(n, ncol)
    lf = b[ends] == 10
    last = np.flatnonzero(lf)  # each record's last field
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    cr = last[b[ends[last] - 1] == 13]  # the CR tokenize drops before LF
    if len(cr) and sep == 13:
        # that CR is a separator: its record loses the empty field after it
        lf[cr - 1] = True
        keep = np.ones(len(ends), np.bool_)
        keep[cr] = False
        starts, ends, lf = starts[keep], ends[keep], lf[keep]
        last = np.flatnonzero(lf)
    else:
        ends[cr] -= 1  # the CR lies in the record's last field
    counts = np.diff(last, prepend=-1)
    if cols is None:
        cols = np.arange(ncol)
    idx = np.minimum((last - counts + 1)[:, None] + cols, last[:, None])
    ends = ends[idx]
    starts = np.where(cols < counts[:, None], starts[idx], ends)
    return starts, ends, counts


def _gather(chunk: bytes, starts: np.ndarray, ends: np.ndarray):
    """The fields ``chunk[s:e]`` as one ``S`` array, exact only for a
    NUL-free chunk since an ``S`` array strips NULs.  Each field is copied as
    whole 64-bit words from its start, and the words are masked past its end;
    a field within a window of the chunk's end is copied from a padded copy
    of that window.  When one long field would make that array over four
    times the chunk, the fields come back as a list of ``bytes`` instead."""
    lens = ends - starts
    k = -(-int(lens.max()) // 8) or 1  # words per field
    if len(starts) * 8 * k > 4 * len(chunk):
        return [chunk[s:e] for s, e in zip(starts.tolist(), ends.tolist())]
    width = 8 * k
    cut = max(len(chunk) + 1 - width, 0)  # a window from here on runs past
    tail = np.ndarray((len(chunk) + 1 - cut,), dtype=f"S{width}",
                      buffer=chunk[cut:] + bytes(width), strides=(1,))
    if cut:
        windows = np.ndarray((cut,), dtype=f"S{width}", buffer=chunk,
                             strides=(1,))
        fields = windows[np.minimum(starts, cut - 1)]
        late = np.flatnonzero(starts >= cut)
        fields[late] = tail[starts[late] - cut]
    else:
        fields = tail[starts]
    words = fields.view("<u8").reshape(len(fields), k)
    words &= _BYTE_MASKS[np.clip(lens - 8 * np.arange(k)[:, None], 0, 8)].T
    return fields


def _uniform_arity(counts) -> int:
    """The field count every record shares, given each record's count (0
    without records); RaggedInput names the first record that differs."""
    counts = np.asarray(counts, np.intp)
    if not len(counts):
        return 0
    bad = np.flatnonzero(counts != counts[0])
    if len(bad):
        i = bad[0]
        raise RaggedInput(
            f"record {i} has {counts[i]} fields, record 0 has {counts[0]}"
        )
    return int(counts[0])


def _build_frame(chunk: bytes, schema: Schema):
    n_cols = len(schema.types)
    kept = [j for j, t in enumerate(schema.types) if t is not ColumnType.SKIP]
    cols = None if len(kept) == n_cols else np.array(kept, np.intp)
    offsets = (None if schema.quote is not None and schema.quote in chunk
               else _field_offsets(chunk, n_cols, schema.field_sep, cols))
    if offsets is not None:
        starts, ends, counts = offsets

        def fields(k, j):
            return _gather(chunk, starts[:, k], ends[:, k]), None
    else:
        rows, qrows = tokenize(chunk, schema.field_sep, schema.quote)
        counts = np.array([len(row) for row in rows], np.intp)

        def fields(k, j):
            # a short record's missing fields are empty and unquoted
            return ([row[j] if j < len(row) else b"" for row in rows],
                    None if qrows is None else
                    [j < len(q) and q[j] for q in qrows])
    bulk = b"\x00" not in chunk
    names = schema.out_names()
    columns = []
    failures = {}
    for k, j in enumerate(kept):
        column, quoted = fields(k, j)
        ctype = schema.types[j]
        values, mask, fails = convert_column(column, ctype, quoted, bulk)
        columns.append(Column(names[k], ctype, values, mask))
        failures[names[k]] = fails
    report = ParseReport(len(counts), int(np.count_nonzero(counts < n_cols)),
                         int(np.count_nonzero(counts > n_cols)), failures)
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
    frame, report = _build_frame(chunk, schema)
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

    A column is the first of Logical, Integer and Real that reads every
    non-null cell, else Character; an all-null column is Character.  The
    Bytes, Complex, and Timestamp types are never inferred.  Quote handling
    is not applied while sampling, and sampled records that disagree on
    field count raise RaggedInput.
    """
    check_layout(field_sep)
    end = 0
    for _ in range(_SAMPLE_RECORDS):
        end = sample.find(b"\n", end) + 1
        if not end:
            end = len(sample)
            break
    head = sample[:end]
    offsets = _field_offsets(head, None, field_sep)
    if offsets is not None:
        starts, ends, counts = offsets
        columns = [_gather(head, starts[:, j], ends[:, j])
                   for j in range(_uniform_arity(counts))]
    else:
        rows = tokenize(head, field_sep)[0]
        if not rows:
            raise SchemaError("cannot infer a schema from an empty sample")
        columns = [[row[j] for row in rows]
                   for j in range(_uniform_arity([len(row) for row in rows]))]
    return Schema(types=tuple(map(_infer_column, columns)),
                  field_sep=field_sep)


def _infer_column(fields) -> ColumnType:
    """The type :func:`infer_schema` gives a column: ``fields`` is an ``S``
    array of NUL-free cells, which each candidate type reads with one cast,
    or a list of bytes, which it reads a cell at a time."""
    if isinstance(fields, list):
        if any(b"\x00" in f for f in fields):
            return ColumnType.CHARACTER  # no other type reads a NUL
        # a list holds a cell too long to widen every cell to
        cells = [np.array([f]) for f in fields if not is_null_token(f)]
    else:
        cells = [fields[~_null_mask(fields)]]
    if not any(len(c) for c in cells):
        return ColumnType.CHARACTER
    for ctype in (ColumnType.LOGICAL, ColumnType.INTEGER, ColumnType.REAL):
        if all(_reads_all(c, ctype) for c in cells):
            return ctype
    return ColumnType.CHARACTER


def _reads_all(cells: np.ndarray, ctype: ColumnType) -> bool:
    if ctype is ColumnType.LOGICAL:
        return not _logical_bulk(cells)[2]
    try:
        cells.astype(_TYPES[ctype].dtype)
    except (ValueError, OverflowError):
        return False
    return True


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
