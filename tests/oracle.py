"""Per-character reference parser and per-cell reference writer: the test
oracles for the bulk parser and the columnar writer.

The naive parser walks the input one byte at a time, extracts every field as
its own bytes object, coerces it scalar-by-scalar, and appends row by row —
the shape of a straightforward hand-rolled reader.  The bulk path in
``rowstream.frame`` must produce identical frames and reports on any input,
unbalanced quotes included.  The naive writer spells one ``bytes`` object per
cell, guards each one and joins rows, and ``rowstream.writer.format_frame``
must write the same bytes or raise the same exception type.  ``naive_infer_schema`` is the per-field type rule that
``rowstream.frame.infer_schema`` must agree with, and ``concat_frames``
stacks the frames of a chunked parse.  ``synthetic_csv`` generates
deterministic mixed-type input for the differential and speed checks, and
``airline_csv`` records shaped like the ASA airline files for the memory
checks.

A plain module, not collected by pytest; tests import it as ``oracle``.
"""

import numpy as np

from rowstream._coerce import _TYPES, ColumnType, is_null_token
import rowstream.frame
from rowstream.errors import SchemaError, SeparatorCollision
from rowstream.frame import (Column, Frame, ParseReport, Schema, _enforce_strict,
                             _uniform_arity, check_layout)

_FILL = {
    ColumnType.LOGICAL: False,
    ColumnType.INTEGER: 0,
    ColumnType.REAL: float("nan"),
    ColumnType.TIMESTAMP: float("nan"),
    ColumnType.COMPLEX: complex(float("nan"), float("nan")),
    ColumnType.CHARACTER: None,
    ColumnType.BYTES: None,
}

_DTYPE = {
    ColumnType.LOGICAL: np.bool_,
    ColumnType.INTEGER: np.int64,
    ColumnType.REAL: np.float64,
    ColumnType.TIMESTAMP: np.float64,
    ColumnType.COMPLEX: np.complex128,
}


def parse_field_ex(field: bytes, ctype: ColumnType, quoted: bool = False):
    """Coerce one field with its type's scalar read; returns ``(value,
    failed)``.

    Nulls (empty field or ``NA``, unless the field was quoted) come back as
    ``(None, False)``; malformed fields as ``(None, True)``.  Only the latter
    counts as a coercion failure.
    """
    if ctype is ColumnType.SKIP:
        raise SchemaError("skip columns have no values")
    if not quoted and is_null_token(field):
        return None, False
    try:
        return _TYPES[ctype].read(field), False
    except ValueError:
        return None, True


def _naive_split_fields(record: bytes, sep: int, quote):
    fields = []
    flags = []
    current = bytearray()
    current_quoted = False
    in_quotes = False
    n = len(record)
    i = 0
    while i < n:
        ch = record[i]
        if in_quotes:
            if ch == quote:
                if i + 1 < n and record[i + 1] == quote:
                    current.append(quote)
                    i += 2
                    continue
                in_quotes = False
            else:
                current.append(ch)
        elif quote is not None and ch == quote:
            in_quotes = True
            current_quoted = True
        elif ch == sep:
            fields.append(bytes(current))
            flags.append(current_quoted)
            current = bytearray()
            current_quoted = False
        else:
            current.append(ch)
        i += 1
    fields.append(bytes(current))
    flags.append(current_quoted)
    return fields, flags


def _naive_records(chunk: bytes):
    """The records of ``chunk``, each without its LF and the one CR before
    it; the empty tail after a final LF is not a record."""
    records = chunk.split(b"\n")
    if records[-1] == b"":
        records.pop()
    return [r[:-1] if r.endswith(b"\r") else r for r in records]


def naive_parse_frame(chunk: bytes, schema: Schema, strict: bool = False):
    """Parse with the per-character reference implementation.

    Same contract and same results as :func:`rowstream.frame.parse_frame`,
    orders of magnitude less clever about it.
    """
    types = schema.types
    n_cols = len(types)
    out_types = [t for t in types if t is not ColumnType.SKIP]
    names = schema.out_names()
    sep = schema.field_sep[0]
    quote = schema.quote[0] if schema.quote is not None else None
    acc_values = [[] for _ in out_types]
    acc_mask = [[] for _ in out_types]
    failures = [0] * len(out_types)
    state = {"records": 0, "short": 0, "long": 0}

    def take_record(raw: bytearray):
        if raw.endswith(b"\r"):
            del raw[-1]
        fields, flags = _naive_split_fields(bytes(raw), sep, quote)
        k = len(fields)
        if k < n_cols:
            state["short"] += 1
            fields.extend([b""] * (n_cols - k))
            flags.extend([False] * (n_cols - k))
        elif k > n_cols:
            state["long"] += 1
            del fields[n_cols:]
            del flags[n_cols:]
        out_j = 0
        for j, ctype in enumerate(types):
            if ctype is ColumnType.SKIP:
                continue
            value, failed = parse_field_ex(fields[j], ctype, flags[j])
            if value is None:
                acc_values[out_j].append(_FILL[ctype])
                acc_mask[out_j].append(True)
                if failed:
                    failures[out_j] += 1
            else:
                acc_values[out_j].append(value)
                acc_mask[out_j].append(False)
            out_j += 1
        state["records"] += 1

    record = bytearray()
    for byte in chunk:
        if byte == 0x0A:
            take_record(record)
            record = bytearray()
        else:
            record.append(byte)
    if record:
        take_record(record)

    columns = []
    column_failures = {}
    for out_j, ctype in enumerate(out_types):
        mask = np.array(acc_mask[out_j], dtype=np.bool_)
        if ctype in _DTYPE:
            values = np.array(acc_values[out_j], dtype=_DTYPE[ctype])
        else:
            values = acc_values[out_j]
        columns.append(Column(names[out_j], ctype, values, mask))
        column_failures[names[out_j]] = failures[out_j]
    report = ParseReport(
        state["records"], state["short"], state["long"], column_failures,
    )
    if strict:
        _enforce_strict(report)
    return Frame(columns), report


def naive_infer_schema(sample: bytes, field_sep: bytes = b",") -> Schema:
    """Infer with the per-field rule: each column is the first of Logical,
    Integer and Real whose scalar read takes every non-null cell of the
    first ``_SAMPLE_RECORDS`` records, else Character.

    Same contract and same results as :func:`rowstream.infer_schema`."""
    records = _naive_records(sample)[:rowstream.frame._SAMPLE_RECORDS]
    rows = [_naive_split_fields(r, field_sep[0], None)[0] for r in records]
    if not rows:
        raise SchemaError("cannot infer a schema from an empty sample")
    types = [_naive_infer_column([row[j] for row in rows])
             for j in range(_uniform_arity([len(row) for row in rows]))]
    return Schema(types=tuple(types), field_sep=field_sep)


def _naive_infer_column(fields) -> ColumnType:
    present = [f for f in fields if not is_null_token(f)]
    if not present:
        return ColumnType.CHARACTER
    for cand in (ColumnType.LOGICAL, ColumnType.INTEGER, ColumnType.REAL):
        if all(not parse_field_ex(f, cand)[1] for f in present):
            return cand
    return ColumnType.CHARACTER


def naive_parse_matrix(chunk: bytes, elem_type: ColumnType,
                       field_sep: bytes = b","):
    """Parse a matrix record by record and cell by cell.

    Same contract and same results as :func:`rowstream.parse_matrix`."""
    rows = [_naive_split_fields(r, field_sep[0], None)[0]
            for r in _naive_records(chunk)]
    arity = _uniform_arity([len(row) for row in rows])
    fill = None if elem_type is ColumnType.CHARACTER else _FILL[elem_type]
    values, failures = [], 0
    for row in rows:
        for cell in row:
            value, failed = parse_field_ex(cell, elem_type)
            values.append(fill if value is None else value)
            failures += failed
    data = np.empty(len(values), _DTYPE.get(elem_type, object))
    data[:] = values
    return data.reshape(len(rows), arity), failures


def concat_frames(frames) -> Frame:
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


def _render_real(v: float) -> bytes:
    # the shortest decimal that parses back to the same double
    return repr(v).encode("ascii")


def _render_complex(v: complex) -> bytes:
    im = _render_real(v.imag)
    return _render_real(v.real) + (im if im[:1] == b"-" else b"+" + im) + b"i"


def _render_text(v) -> bytes:
    return v.encode("utf-8", "surrogateescape") if isinstance(v, str) else bytes(v)


_RENDER = {
    ColumnType.LOGICAL: lambda v: b"TRUE" if v else b"FALSE",
    ColumnType.INTEGER: lambda v: b"%d" % v,
    ColumnType.REAL: _render_real,
    ColumnType.TIMESTAMP: _render_real,
    ColumnType.COMPLEX: _render_complex,
    ColumnType.CHARACTER: _render_text,
    ColumnType.BYTES: _render_text,
}


def _naive_guard(cell: bytes, sep: bytes, quote, last_col: bool) -> bytes:
    if b"\n" in cell:
        raise SeparatorCollision(f"newline in cell {cell[:40]!r}")
    needs = (
        sep in cell
        or is_null_token(cell)
        or (quote is not None and quote in cell)
        or (last_col and cell.endswith(b"\r"))
    )
    if not needs:
        return cell
    if quote is None:
        raise SeparatorCollision(
            f"cell {cell[:40]!r} needs quoting but no quote byte is configured"
        )
    return quote + cell.replace(quote, quote + quote) + quote


def naive_format_frame(frame: Frame, field_sep: bytes = b",",
                       include_header: bool = False, quote=None) -> bytes:
    """Write with the per-cell reference implementation: one ``bytes`` per
    cell, ``NA`` for a null, every other cell guarded, rows joined.

    Same contract and same output as :func:`rowstream.format_frame`."""
    check_layout(field_sep, quote)
    last = frame.n_cols - 1
    columns = []
    for j, col in enumerate(frame.columns):
        render = _RENDER[col.ctype]
        values = col.values
        if isinstance(values, np.ndarray):
            values = values.tolist()  # Python scalars, as repr expects
        cells = [b"NA" if m else _naive_guard(render(v), field_sep, quote, j == last)
                 for v, m in zip(values, col.mask.tolist())]
        if include_header:
            cells.insert(0, _naive_guard(_render_text(col.name), field_sep, quote,
                                         j == last))
        columns.append(cells)
    return b"".join(field_sep.join(row) + b"\n" for row in zip(*columns))


_WORDS = ("alder", "birch", "cedar", "fir", "hazel", "larch", "maple",
          "oak", "pine", "rowan", "spruce", "willow")


def synthetic_csv(n_bytes: int, seed: int = 0) -> bytes:
    """Deterministic mixed-type CSV of at least ``n_bytes`` (integer, real,
    word, logical columns, roughly 1% nulls)."""
    rng = np.random.default_rng(seed)
    block_rows = 65536
    pieces = []
    total = 0
    while total < n_bytes:
        ints = rng.integers(0, 10_000_000, block_rows).tolist()
        reals = np.round(rng.random(block_rows) * 1e4, 6).tolist()
        words = rng.integers(0, len(_WORDS), block_rows).tolist()
        tags = rng.integers(0, 10_000, block_rows).tolist()
        nulls = rng.integers(0, 100, block_rows).tolist()
        rows = []
        for i0, r, w, t, nu in zip(ints, reals, words, tags, nulls):
            if nu == 0:
                rows.append(f"{i0},NA,{_WORDS[w]}{t},TRUE")
            elif nu == 1:
                rows.append(f",{r!r},,FALSE")
            else:
                rows.append(f"{i0},{r!r},{_WORDS[w]}{t},{'TRUE' if t % 2 else 'FALSE'}")
        block = ("\n".join(rows) + "\n").encode("ascii")
        pieces.append(block)
        total += len(block)
    return b"".join(pieces)


AIRLINE_HEADER = (
    "Year,Month,DayofMonth,DayOfWeek,DepTime,CRSDepTime,ArrTime,CRSArrTime,"
    "UniqueCarrier,FlightNum,TailNum,ActualElapsedTime,CRSElapsedTime,"
    "AirTime,ArrDelay,DepDelay,Origin,Dest,Distance,TaxiIn,TaxiOut,"
    "Cancelled,CancellationCode,Diverted,CarrierDelay,WeatherDelay,NASDelay,"
    "SecurityDelay,LateAircraftDelay")


def airline_csv(n_rows: int, seed: int = 0) -> bytes:
    """Headerless records with the 29 columns of ``AIRLINE_HEADER``: clock
    times as hhmm, delays, carrier and airport codes, and NA cells."""
    rng = np.random.default_rng(seed)
    ints = rng.integers(0, 1000, (n_rows, 12)).tolist()
    clocks = (rng.integers(0, 24, (n_rows, 4)) * 100
              + rng.integers(0, 60, (n_rows, 4))).tolist()
    codes = rng.integers(0, len(_WORDS), (n_rows, 3)).tolist()
    rows = []
    for i, c, w in zip(ints, clocks, codes):
        rows.append(
            f"2008,{i[0] % 12 + 1},{i[1] % 28 + 1},{i[2] % 7 + 1},{c[0]},"
            f"{c[1]},{c[2]},{c[3]},{_WORDS[w[0]][:2].upper()},{i[3]},"
            f"N{i[4]}AB,{i[5] % 300},{i[6] % 300},{i[7] % 280},"
            f"{i[8] % 120 - 20},{i[9] % 120 - 20},{_WORDS[w[1]][:3].upper()},"
            f"{_WORDS[w[2]][:3].upper()},{i[10] + 100},{i[11] % 30},"
            f"{i[0] % 40},0,,0,NA,NA,NA,NA,NA")
    return ("\n".join(rows) + "\n").encode("ascii")
