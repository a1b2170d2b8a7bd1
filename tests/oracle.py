"""Per-character reference parser and per-cell reference writer: the test
oracles for the bulk parser and the columnar writer.

The naive parser walks the input one byte at a time, extracts every field as
its own bytes object, coerces it scalar-by-scalar, and appends row by row —
the shape of a straightforward hand-rolled reader.  The bulk path in
``rowstream.frame`` must produce identical frames and reports on any input
(balanced quotes assumed when quoting is on).  The naive writer spells one
``bytes`` object per cell, guards each one and joins rows, and
``rowstream.writer.format_frame`` must write the same bytes or raise the same
exception type.  ``synthetic_csv`` generates
deterministic mixed-type input for the differential and speed checks.

A plain module, not collected by pytest; tests import it as ``oracle``.
"""

import numpy as np

from rowstream._coerce import ColumnType, is_null_token, parse_field_ex
from rowstream.errors import SeparatorCollision
from rowstream.frame import (Column, Frame, ParseReport, Schema, _enforce_strict,
                             check_layout)

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
