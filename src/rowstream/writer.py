"""Serialize frames and matrices back to delimited bytes.

Real values are rendered as the shortest decimal string that parses back to
the same double (Python's ``repr``), so checkpoint round-trips are exact.
Nulls are written as ``NA``.  Cells that would be misread on the way back in
— a separator or quote inside the cell, a cell spelled like a null token, or
a trailing carriage return in the last column — are quoted when a quote byte
is configured and rejected with SeparatorCollision otherwise.  Newlines can
never be embedded.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence, Union

import numpy as np

from ._coerce import ColumnType
from .errors import SeparatorCollision
from .frame import Column, Frame, check_layout
from .matrix import DenseMatrix

__all__ = [
    "format_frame",
    "format_matrix",
    "append_to_checkpoint",
    "write_sidecar",
    "read_sidecar",
    "sidecar_path",
]

# bytes that can occur in a rendered numeric cell; a separator drawn from
# this set forces collision checks on numeric columns too
_NUMERIC_BYTES = frozenset(b"0123456789+-.eEinfa")


def _render_real(v) -> bytes:
    return repr(float(v)).encode("ascii")


def _render_int(v) -> bytes:
    return b"%d" % v


def _render_complex(v) -> bytes:
    im = float(v.imag)
    sign = b"-" if math.copysign(1.0, im) < 0 else b"+"
    return (
        repr(float(v.real)).encode("ascii")
        + sign
        + repr(abs(im)).encode("ascii")
        + b"i"
    )


def _guard(cell: bytes, sep: bytes, quote, last_col: bool) -> bytes:
    if b"\n" in cell:
        raise SeparatorCollision(f"newline in cell {cell[:40]!r}")
    needs = (
        sep in cell
        or cell == b""
        or cell == b"NA"
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


def _render_column(col: Column, sep: bytes, quote, last_col: bool) -> list:
    mask = col.mask
    values = col.values
    if col.ctype in (ColumnType.CHARACTER, ColumnType.BYTES):
        out = []
        for v, m in zip(values, mask):
            if m:
                out.append(b"NA")
            else:
                cell = v.encode("utf-8", "surrogateescape") if isinstance(v, str) else v
                out.append(_guard(cell, sep, quote, last_col))
        return out
    if col.ctype is ColumnType.LOGICAL:
        out = [b"NA" if m else (b"TRUE" if v else b"FALSE") for v, m in zip(values, mask)]
    elif col.ctype is ColumnType.INTEGER:
        out = [b"NA" if m else b"%d" % v for v, m in zip(values, mask)]
    elif col.ctype is ColumnType.COMPLEX:
        out = [b"NA" if m else _render_complex(v) for v, m in zip(values, mask)]
    else:
        out = [b"NA" if m else _render_real(v) for v, m in zip(values, mask)]
    if sep[0] in _NUMERIC_BYTES:
        # exotic separator that can occur inside a rendered number
        out = [_guard(c, sep, quote, last_col) if c != b"NA" else c for c in out]
    return out


def format_frame(
    frame: Frame,
    field_sep: bytes = b",",
    include_header: bool = False,
    quote: bytes | None = None,
) -> bytes:
    """Render a frame as delimited text, one record per row, trailing newline
    after every record.  The output of any parse is a valid parse input.
    A ``field_sep`` or ``quote`` that fails check_layout raises SchemaError."""
    check_layout(field_sep, quote)
    n_cols = frame.n_cols
    pieces = []
    if include_header:
        cells = [
            _guard(name.encode("utf-8", "surrogateescape"), field_sep, quote,
                   j == n_cols - 1)
            for j, name in enumerate(frame.names)
        ]
        pieces.append(field_sep.join(cells))
        pieces.append(b"\n")
    if frame.n_rows:
        rendered = [
            _render_column(col, field_sep, quote, j == n_cols - 1)
            for j, col in enumerate(frame.columns)
        ]
        join = field_sep.join
        for row in zip(*rendered):
            pieces.append(join(row))
            pieces.append(b"\n")
    return b"".join(pieces)


def format_matrix(matrix: DenseMatrix, field_sep: bytes = b",") -> bytes:
    """Render a matrix as headerless delimited text; row names are not
    written.  Character cells have no quoting escape hatch here, so cells
    that collide with the layout raise SeparatorCollision."""
    check_layout(field_sep)
    v = matrix.values
    kind = v.dtype.kind
    if kind == "f":
        render = _render_real
    elif kind in "iu":
        render = _render_int
    elif kind == "b":
        render = lambda x: b"TRUE" if x else b"FALSE"
    elif kind == "c":
        render = _render_complex
    else:
        def render(x, _sep=field_sep):
            if x is None:
                return b"NA"
            cell = x.encode("utf-8", "surrogateescape") if isinstance(x, str) else bytes(x)
            return _guard(cell, _sep, None, True)
    pieces = []
    join = field_sep.join
    for row in v:
        pieces.append(join([render(x) for x in row]))
        pieces.append(b"\n")
    return b"".join(pieces)


def append_to_checkpoint(sink: BinaryIO, data: bytes) -> BinaryIO:
    """Append already-rendered bytes to an open binary sink and return it.
    Successive appends form one valid delimited file because every rendered
    record carries its own trailing newline."""
    sink.write(data)
    return sink


def sidecar_path(checkpoint: Union[str, Path]) -> Path:
    return Path(str(checkpoint) + ".names")


def write_sidecar(checkpoint: Union[str, Path], names: Iterable[str]) -> Path:
    """Write the column-name sidecar for a checkpoint: one name per line."""
    names = list(names)
    for n in names:
        if "\n" in n:
            raise SeparatorCollision(f"column name {n!r} contains a newline")
    path = sidecar_path(checkpoint)
    path.write_text("".join(n + "\n" for n in names), encoding="utf-8")
    return path


def read_sidecar(checkpoint: Union[str, Path]) -> list:
    """Read the column names recorded next to a checkpoint."""
    return sidecar_path(checkpoint).read_text(encoding="utf-8").splitlines()
