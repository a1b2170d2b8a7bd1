"""Lay rendered cells out as delimited records: frames and matrices.

Each cell's spelling comes from ``_coerce.render_column``; this module owns
only the layout.  Cells that would be misread on the way back in — a
separator or quote inside the cell, a cell spelled like a null token, or a
trailing carriage return in the last column — are quoted when a quote byte
is configured and rejected with SeparatorCollision otherwise.  Newlines can
never be embedded.  Every record, including the last, ends in a newline.
"""

from __future__ import annotations

from pathlib import Path
from typing import BinaryIO, Iterable, Union

import numpy as np

from ._coerce import (INT64_MAX, NON_TEXT, ColumnType, is_null_token,
                      render_column, spell_integral)
from .errors import OutOfRange, SeparatorCollision
from .frame import Frame, check_layout
from .matrix import DenseMatrix

__all__ = [
    "format_frame",
    "format_matrix",
    "append_to_checkpoint",
    "write_sidecar",
    "read_sidecar",
    "sidecar_path",
]

# matrix dtype kind -> element type; any other kind holds text, None as null
_KIND_TYPES = {"f": ColumnType.REAL, "i": ColumnType.INTEGER, "u": ColumnType.INTEGER,
               "b": ColumnType.LOGICAL, "c": ColumnType.COMPLEX}


def _guard(cell: bytes, sep: bytes, quote, last_col: bool) -> bytes:
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


def _render_column(values, mask, ctype, sep: bytes, quote, last_col: bool) -> list:
    cells = render_column(values, mask, ctype)
    if ctype in (ColumnType.CHARACTER, ColumnType.BYTES) or sep[0] in NON_TEXT:
        cells = [
            c if m else _guard(c, sep, quote, last_col)
            for c, m in zip(cells, mask.tolist())
        ]
    return cells


def _join_rows(columns: list, sep: bytes) -> bytes:
    records = list(map(sep.join, zip(*columns)))
    return b"\n".join(records + [b""]) if records else b""


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
    last = frame.n_cols - 1
    columns = []
    for j, col in enumerate(frame.columns):
        cells = _render_column(col.values, col.mask, col.ctype, field_sep, quote,
                               j == last)
        if include_header:
            cells[:0] = _render_column([col.name], np.zeros(1, bool),
                                       ColumnType.CHARACTER, field_sep, quote,
                                       j == last)
        columns.append(cells)
    return _join_rows(columns, field_sep)


def format_matrix(matrix: DenseMatrix, field_sep: bytes = b",") -> bytes:
    """Render a matrix as headerless delimited text, one record per row.
    Cells are guarded as in format_frame, but with no quoting escape hatch,
    so a cell that collides with the layout raises SeparatorCollision.  An
    unsigned value above the int64 range, which would not read back as an
    integer, raises OutOfRange.  A float64 matrix of integral cells is
    spelled by digit arithmetic (see ``_coerce.spell_integral``), with the
    same bytes as cell by cell."""
    check_layout(field_sep)
    v = matrix.values
    if v.dtype.kind == "u" and v.size and int(v.max()) > INT64_MAX:
        raise OutOfRange(f"unsigned cell {v.max()} exceeds the int64 range")
    spelled = (spell_integral(v) if v.dtype == np.float64 and v.size
               and field_sep[0] not in NON_TEXT else None)
    if spelled is not None:
        block, keep = spelled
        block[..., -1] = field_sep[0]
        block[:, -1, -1] = ord("\n")
        # np.compress runs far faster here than boolean indexing
        return np.compress(keep.ravel(), block.ravel()).tobytes()
    ctype = _KIND_TYPES.get(v.dtype.kind, ColumnType.CHARACTER)
    null = np.equal(v, None) if v.dtype.kind == "O" else np.zeros(v.shape, bool)
    last = matrix.n_cols - 1
    columns = [
        _render_column(v[:, j], null[:, j], ctype, field_sep, None, j == last)
        for j in range(matrix.n_cols)
    ]
    return _join_rows(columns, field_sep)


def append_to_checkpoint(sink: BinaryIO, data: bytes) -> BinaryIO:
    """Append already-rendered bytes to an open binary sink and return it.
    Successive appends form one valid delimited file because every rendered
    record carries its own trailing newline."""
    sink.write(data)
    return sink


def sidecar_path(checkpoint: Union[str, Path]) -> Path:
    return Path(str(checkpoint) + ".names")


def write_sidecar(checkpoint: Union[str, Path], names: Iterable[str]) -> Path:
    """Write the column-name sidecar for a checkpoint: one name per line,
    each terminated by LF."""
    names = list(names)
    for n in names:
        if "\n" in n:
            raise SeparatorCollision(f"column name {n!r} contains a newline")
    path = sidecar_path(checkpoint)
    path.write_bytes("".join(n + "\n" for n in names).encode("utf-8"))
    return path


def read_sidecar(checkpoint: Union[str, Path]) -> list:
    """Read the column names recorded next to a checkpoint."""
    names = sidecar_path(checkpoint).read_bytes().decode("utf-8").split("\n")
    return names[:-1] if names[-1] == "" else names
