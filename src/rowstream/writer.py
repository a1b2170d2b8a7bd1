"""Lay spelled cells out as delimited records: frames and matrices.

Each column's spelling comes from ``_coerce.spell_column`` as one byte
block, a row of bytes per cell plus a spare byte; this module owns only the
layout.  Frames and matrices share it: the spare bytes become separators
and LFs, the column blocks are set side by side, and ``np.compress`` keeps
each record's bytes in order.

Cells that would be misread on the way back in (a separator, LF or quote
inside the cell, a text cell spelled ``""`` or like a null token, or a
trailing carriage return in the last column) are quoted when a quote byte
is configured and rejected with SeparatorCollision otherwise.  Newlines can
never be embedded.  The guard is vectorized: the laid-out bytes must hold
exactly the separators and LFs the layout wrote and no quote byte, which one
count shows, and text cells are checked for the other cases by their
lengths.  Only the rare cells it flags, or that are too long for their
column's block, are guarded one by one and spliced into place.  Every
record, including the last, ends in a newline.
"""

from __future__ import annotations

from pathlib import Path
from typing import BinaryIO, Iterable, Union

import numpy as np

from ._coerce import INT64_MAX, ColumnType, is_null_token, spell_column
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
               "b": ColumnType.LOGICAL, "c": ColumnType.COMPLEX,
               "S": ColumnType.BYTES}
_TEXT = (ColumnType.CHARACTER, ColumnType.BYTES)
# block bytes laid out per np.compress call
_SLICE_BYTES = 1 << 16
# matrix cells spelled per call
_SPELL_CELLS = 4096


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


def _odd_text(block, keep, ends_record: bool):
    # text cells spelled "" or NA, and in the record's last cell a trailing CR
    lens = keep[..., :-1].sum(-1)
    odd = (lens == 0) | ((lens == 2) & (block[..., 0] == ord("N"))
                         & (block[..., 1] == ord("A")))
    if ends_record:
        last = block[np.arange(len(block)), -1, np.maximum(lens[:, -1] - 1, 0)]
        odd[:, -1] |= (lens[:, -1] > 0) & (last == ord("\r"))
    return odd


def _lay_out(columns, sep: bytes, quote) -> bytes:
    """Spell ``columns``, each ``(values, mask, ctype)`` holding one column
    (1-D) or a matrix (2-D) of at least one row, and lay them out as
    records."""
    n = len(columns[0][1])
    parts = []  # (block, keep, mask, first cell's index in a record)
    odd = {}  # a guarded cell's index in the output's cells -> its bytes
    width = 0
    for j, (values, mask, ctype) in enumerate(columns):
        block, keep, wide = spell_column(values, mask, ctype)
        block = block.reshape(n, -1, block.shape[-1])
        keep = keep.reshape(block.shape)
        mask = mask.reshape(n, -1)
        parts.append((block, keep, mask, width))
        width += block.shape[1]
        ends_record = j == len(columns) - 1
        flagged = set(wide)
        if ctype in _TEXT:
            text = _odd_text(block, keep, ends_record) & ~mask
            flagged.update(np.flatnonzero(text).tolist())
        _guard_cells(parts[-1], flagged, wide, odd, sep, quote, ends_record)
    out = _compress(parts, sep)
    a = np.frombuffer(out, np.uint8)
    if (np.count_nonzero(a == sep[0]) != n * (width - 1)
            or np.count_nonzero(a == 10) != n
            or (quote is not None and quote in out)):
        # some cell holds a layout byte: find it and guard it
        hit = np.zeros(256, np.bool_)
        hit[[sep[0], 10] + ([quote[0]] if quote is not None else [])] = True
        for part in parts:
            block, keep, mask, _ = part
            flagged = (hit[block[..., :-1]] & keep[..., :-1]).any(-1) & ~mask
            _guard_cells(part, np.flatnonzero(flagged).tolist(), {}, odd, sep,
                         quote, part is parts[-1])
        out = _compress(parts, sep)
    return _splice(out, parts, odd, width) if odd else out


def _guard_cells(part, flagged, wide, odd, sep, quote, ends_record: bool):
    """Guard each flagged cell of ``part`` (flat indices) into ``odd`` and
    drop its bytes from the block, keeping its separator."""
    block, keep, _, first = part
    k = block.shape[1]
    for i in sorted(flagged):
        r, c = divmod(i, k)
        cell = wide[i] if i in wide else block[r, c][keep[r, c]][:-1].tobytes()
        odd[(r, first + c)] = _guard(cell, sep, quote, ends_record and c == k - 1)
        keep[r, c, :-1] = False


def _compress(parts, sep: bytes) -> bytes:
    n = len(parts[0][0])
    for block, *_ in parts:
        block[..., -1] = sep[0]
    parts[-1][0][:, -1, -1] = ord("\n")
    rows = [(p[0].reshape(n, -1), p[1].reshape(n, -1)) for p in parts]
    # np.compress runs far faster here than boolean indexing, but builds an
    # index of eight bytes per kept byte, so it takes a slice of rows at once
    step = max(1, _SLICE_BYTES // sum(block.shape[1] for block, _ in rows))
    pieces = []
    for lo in range(0, n, step):
        block = np.concatenate([b[lo:lo + step] for b, _ in rows], axis=1)
        keep = np.concatenate([k[lo:lo + step] for _, k in rows], axis=1)
        pieces.append(np.compress(keep.ravel(), block.ravel()))
    return b"".join(pieces)


def _splice(out: bytes, parts, odd: dict, width: int) -> bytes:
    """Insert each guarded cell where its slot starts in ``out``."""
    lens = np.concatenate([p[1].sum(-1) for p in parts], axis=1).ravel()
    starts = np.cumsum(lens) - lens
    view, pieces, pos = memoryview(out), [], 0
    for (r, c), cell in sorted(odd.items()):
        at = int(starts[r * width + c])
        pieces += [view[pos:at], cell]
        pos = at
    pieces.append(view[pos:])
    return b"".join(pieces)


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
    out = b""
    if include_header and frame.columns:
        out = _lay_out([([c.name], np.zeros(1, np.bool_), ColumnType.CHARACTER)
                        for c in frame.columns], field_sep, quote)
    if frame.n_rows:
        out += _lay_out([(c.values, c.mask, c.ctype) for c in frame.columns],
                        field_sep, quote)
    return out


def format_matrix(matrix: DenseMatrix, field_sep: bytes = b",") -> bytes:
    """Render a matrix as headerless delimited text, one record per row.
    Cells are spelled and guarded as in format_frame, but with no quoting
    escape hatch, so a cell that collides with the layout raises
    SeparatorCollision.  An unsigned value above the int64 range, which would
    not read back as an integer, raises OutOfRange."""
    check_layout(field_sep)
    v = matrix.values
    if v.dtype.kind == "u" and v.size and int(v.max()) > INT64_MAX:
        raise OutOfRange(f"unsigned cell {v.max()} exceeds the int64 range")
    if not v.size:
        return b""
    null = np.equal(v, None) if v.dtype.kind == "O" else np.zeros(v.shape, bool)
    ctype = _KIND_TYPES.get(v.dtype.kind, ColumnType.CHARACTER)
    # a slice of rows at a time, so that no spelling array outgrows it
    step = max(1, _SPELL_CELLS // v.shape[1])
    return b"".join(_lay_out([(v[lo:lo + step], null[lo:lo + step], ctype)],
                             field_sep, None)
                    for lo in range(0, len(v), step))


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
