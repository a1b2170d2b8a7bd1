"""Typed column frames parsed from delimited byte chunks.

The parser is bulk-first: a chunk is split into records and fields (see
below), and each column is coerced with one vectorized numpy cast.  The
cells a cast rejects are found and read one by one with identical
semantics, so parse results never depend on chunk boundaries or on which
path ran.

This module owns the record layout: a record ends at LF (one trailing CR is
dropped), fields are split on one separator byte, and an optional quote byte
makes the separator literal.  :func:`check_layout` validates both bytes.
One splitter serves every chunk, every sample for :func:`infer_schema` and
the header that :func:`_header_names` reads: :func:`_field_offsets` finds
the byte offsets of the fields of the columns a caller converts, with numpy
scans of blocks of whole records, and keeps them as int32 (int64 for a chunk
of 2 GiB or more).  The CR before an LF ends the last field early, each
record's field count comes from its LF, a short record's missing fields are
empty and a long record's extra ones are dropped.  In a chunk that holds the
quote byte, a separator is literal when an odd number of its record's quote
bytes lie before it (a quote mask from parity, as in Langdale and Lemire,
"Parsing Gigabytes of JSON per Second", VLDB J. 2019), and the fields are
read from one copy of the chunk without the quote bytes that open and close
regions.  Each converted column's fields are then gathered into one array
by ``_coerce._gather``; a skipped column costs only its share of the scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from ._coerce import (_TYPES, ColumnType, _gather, _logical_bulk, _nuls,
                     _null_mask, convert_column)
from .errors import (
    HeaderArityMismatch,
    MissingColumn,
    RaggedInput,
    SchemaError,
    StrictViolation,
)

# records after any header that infer_schema samples
_SAMPLE_RECORDS = 1000
# bytes per block of the offset scan: an array over each of a block's
# fields stays under the 128 KiB from which glibc maps an allocation afresh
_SCAN_BYTES = 1 << 15
# chunks from this size on need int64 offsets
_INT32_LIMIT = 1 << 31


@dataclass(frozen=True)
class Schema:
    """Column layout of a delimited input.

    ``types`` covers every physical column, including skipped ones; ``names``
    (optional) covers only the output columns, i.e. the non-skip positions.
    ``quote`` enables opt-in quote handling: a quote byte opens a region and
    the next one closes it, wherever they lie in a field; inside, the field
    separator is literal and a doubled quote is a literal quote character.
    The quote bytes that open and close regions are not part of the field,
    and a field that held one is quoted, so never null.  An LF ends a record
    even inside a region: an unbalanced quote runs to the record's end.
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
        """Structural equality: names, types, null masks, and non-null values.

        Floating columns compare bit-for-bit (so signed zeros must match and
        NaNs compare equal to themselves); values at null slots are ignored.
        """
        if not isinstance(other, Frame):
            return NotImplemented
        if self.names != other.names or self.n_rows != other.n_rows:
            return False
        for ca, cb in zip(self.columns, other.columns):
            if ca.ctype is not cb.ctype or not np.array_equal(ca.mask, cb.mask):
                return False
            keep = ~ca.mask
            if isinstance(ca.values, list):
                va = [v for v, k in zip(ca.values, keep) if k]
                vb = [v for v, k in zip(cb.values, keep) if k]
                if va != vb:
                    return False
                continue
            va, vb = np.asarray(ca.values)[keep], np.asarray(cb.values)[keep]
            if ca.ctype in (ColumnType.REAL, ColumnType.TIMESTAMP,
                            ColumnType.COMPLEX):
                va, vb = va.view(np.uint64), vb.view(np.uint64)
            if not np.array_equal(va, vb):
                return False
        return True


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
    dropped = pos = 0
    while dropped < n and pos < len(chunk):
        pos = chunk.find(b"\n", pos) + 1 or len(chunk)
        dropped += 1
    return chunk[pos:], dropped


def _record_blocks(chunk: bytes):
    """``(lo, hi)`` spans that tile ``chunk`` with whole records, each ending
    at the first LF at or past ``_SCAN_BYTES`` bytes from its start, as the
    chunker cuts windows."""
    lo = 0
    while lo < len(chunk):
        hi = chunk.find(b"\n", lo + _SCAN_BYTES - 1) + 1 or len(chunk)
        yield lo, hi
        lo = hi


def _field_offsets(chunk: bytes, ncol: int | None, sep: bytes, cols=None,
                   quote: bytes | None = None):
    """``(starts, ends, counts, data, quoted)`` for the fields of ``chunk``:
    ``counts`` holds each record's field count, and ``starts`` and ``ends``
    the byte offsets into ``data`` of the fields in ``cols``, an ascending
    index array (by default all ``ncol``, which is record 0's count when
    None), as two ``(records, len(cols))`` arrays, where a short record's
    missing fields are empty.  The offsets are int32 below ``_INT32_LIMIT``
    bytes and int64 from there.  ``data`` is ``chunk`` unless it holds the
    ``quote`` byte: then ``data`` is a copy without the quote bytes that
    open and close quoted regions, and ``quoted``, in the shape of
    ``starts``, flags the fields that held one; else ``quoted`` is None.
    ``ncol`` may be None only without ``quote``, and the layout must already
    have passed :func:`check_layout`.

    The chunk is scanned in blocks of whole records (see
    :func:`_record_blocks`), so an array over every field of a block is the
    size of a block, not of the chunk."""
    if ncol is None:
        record = chunk.split(b"\n", 1)[0]
        # a CR separator before LF ends the record's last field
        ncol = record.count(sep) + 1 - (sep == b"\r" and record.endswith(sep))
    q = quote[0] if quote is not None and quote in chunk else None
    dtype = np.int32 if len(chunk) < _INT32_LIMIT else np.int64
    n = len(chunk) and chunk.count(b"\n") + (chunk[-1] != 10)
    width = ncol if cols is None else len(cols)
    starts = np.empty((n, width), dtype)
    ends = np.empty((n, width), dtype)
    counts = np.empty(n, dtype)
    quoted = None if q is None else np.zeros((n, width), np.bool_)
    a = np.frombuffer(chunk, np.uint8)
    row, gone, n_gone = 0, [], 0
    for lo, hi in _record_blocks(chunk):
        block = a[lo:hi] if chunk[hi - 1] == 10 else np.append(a[lo:hi], 10)
        s, e, c, lost = _scan_block(block, ncol, sep[0], cols, q)
        rows = slice(row, row + len(c))
        shift = lo - n_gone
        if lost is not None:
            # a field moves down by the quote bytes lost before it, and is
            # quoted when it lost one itself
            lost_s, lost_e = np.searchsorted(lost, s), np.searchsorted(lost, e)
            quoted[rows] = lost_e > lost_s
            s, e = s - lost_s, e - lost_e
            gone.append(lost + lo)
            n_gone += len(lost)
        starts[rows], ends[rows], counts[rows] = s, e, c
        if shift:
            starts[rows] += shift
            ends[rows] += shift
        row = rows.stop
    data = np.delete(a, np.concatenate(gone)).tobytes() if gone else chunk
    return starts, ends, counts, data, quoted


def _scan_block(b: np.ndarray, ncol: int, sep: int, cols, quote=None):
    """:func:`_field_offsets` of one block ``b`` of whole records that ends
    in LF, with offsets from the block's start, and the positions of the
    quote bytes its fields lose (None without ``quote``)."""
    is_lf = b == 10
    hits = b == sep
    hits |= is_lf
    ends = np.flatnonzero(hits)
    n = int(np.count_nonzero(is_lf))
    lost = None
    if quote is not None:
        ends, lost = _quote_mask(b, ends, sep, quote)
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
        # the CR dropped before LF ends the last field early
        ends[:, -1] -= b[ends[:, -1] - 1] == 13
        if cols is not None:
            ends = ends[:, cols]
        return starts, ends, np.full(n, ncol), lost
    lf = b[ends] == 10
    last = np.flatnonzero(lf)  # each record's last field
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    cr = last[b[ends[last] - 1] == 13]  # the CR dropped before LF
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
    return starts, ends, counts, lost


def _quote_mask(b: np.ndarray, ends: np.ndarray, sep: int, quote: int):
    """``(ends, lost)``: the hits ``ends`` of block ``b`` less the separators
    inside quoted regions, and the positions of the quote bytes that open or
    close a region.

    A record's k-th quote byte, from 0, opens a region when k is even and
    closes it when k is odd, so a separator is inside a region when an odd
    number of quote bytes lie between its record's start and it.  A quote
    byte that opens a region right after the one that closed the region
    before is the second of a doubled pair, and stays as a literal quote.
    An LF ends a record whatever the count, and so does a CR separator
    before it, which is dropped.  A quote CR dropped before an LF counts
    here, but it lies in no field and no quote byte of its record follows
    it."""
    quotes = np.flatnonzero(b == quote)
    lf = b[ends] == 10
    lfs = ends[lf]
    # first[r]: the quote bytes before record r, the one that ends at lfs[r]
    first = np.append(0, np.searchsorted(quotes, lfs))
    k = np.arange(len(quotes)) - first[np.searchsorted(lfs, quotes)]
    odd = (np.searchsorted(quotes, ends) - first[np.cumsum(lf) - lf]) % 2 == 1
    inside = np.flatnonzero(odd & ~lf)
    if sep == 13:
        inside = inside[b[ends[inside] + 1] != 10]
    lost = quotes[(k % 2 == 1) | (np.diff(quotes, prepend=-2) != 1)]
    return np.delete(ends, inside), lost


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
    n_cols = len(schema.types)
    kept = [j for j, t in enumerate(schema.types) if t is not ColumnType.SKIP]
    cols = None if len(kept) == n_cols else np.array(kept, np.intp)
    starts, ends, counts, data, quoted = _field_offsets(
        chunk, n_cols, schema.field_sep, cols, schema.quote)
    names = schema.out_names()
    nuls = _nuls(data)
    columns = []
    failures = {}
    for k, j in enumerate(kept):
        ctype = schema.types[j]
        flags = (quoted[:, k] if quoted is not None and quoted[:, k].any()
                 else None)
        fields, lengths, wide = _gather(data, starts[:, k], ends[:, k], nuls,
                                        flags)
        values, mask, fails = convert_column(fields, ctype, lengths, wide)
        del fields  # freed before the next column is gathered
        columns.append(Column(names[k], ctype, values, mask))
        failures[names[k]] = fails
    report = ParseReport(len(counts), int(np.count_nonzero(counts < n_cols)),
                         int(np.count_nonzero(counts > n_cols)), failures)
    if strict:
        _enforce_strict(report)
    return Frame(columns), report


def _header_names(chunk: bytes, schema: Schema) -> list:
    """The name of every physical column, skipped ones included, from the
    header record that opens ``chunk``."""
    header = chunk[:chunk.find(b"\n") + 1 or len(chunk)]
    starts, ends, counts, data, _ = _field_offsets(
        header, len(schema.types), schema.field_sep, quote=schema.quote)
    if not len(counts):
        raise HeaderArityMismatch("no header record in an empty chunk")
    if counts[0] != len(schema.types):
        raise HeaderArityMismatch(
            f"header has {counts[0]} fields, schema has {len(schema.types)}"
        )
    return [data[s:e].decode("utf-8", "surrogateescape")
            for s, e in zip(starts[0].tolist(), ends[0].tolist())]


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
    head = sample[:len(sample) - len(_skip_records(sample, _SAMPLE_RECORDS)[0])]
    starts, ends, counts, _, _ = _field_offsets(head, None, field_sep)
    if not len(counts):
        raise SchemaError("cannot infer a schema from an empty sample")
    nuls = _nuls(head)
    types = []
    for j in range(_uniform_arity(counts)):
        fields, _, wide = _gather(head, starts[:, j], ends[:, j], nuls)
        types.append(_infer_column(fields, wide))
    return Schema(types=tuple(types), field_sep=field_sep)


def _infer_column(fields: np.ndarray, wide: dict) -> ColumnType:
    """The type :func:`infer_schema` gives a column gathered as
    ``(fields, _, wide)`` by :func:`_gather`: each candidate type reads the
    non-null cells of ``fields`` with one cast, and each ``wide`` cell with
    its scalar read, so a column with a NUL cell is Character."""
    cells = fields[~_null_mask(fields)]
    if not len(cells) and not wide:
        return ColumnType.CHARACTER
    for ctype in (ColumnType.LOGICAL, ColumnType.INTEGER, ColumnType.REAL):
        if _reads_all(cells, wide.values(), ctype):
            return ctype
    return ColumnType.CHARACTER


def _reads_all(cells: np.ndarray, wide, ctype: ColumnType) -> bool:
    row = _TYPES[ctype]
    try:
        for cell in wide:
            row.read(cell)
        if ctype is ColumnType.LOGICAL:
            return not _logical_bulk(cells)[2]
        cells.astype(row.dtype)
    except (ValueError, OverflowError):
        return False
    return True
