"""Single-typed dense matrices parsed from delimited chunks.

The element grammar is shared with the frame parser, so an all-Real schema
parsed as a frame and column-bound equals the same bytes parsed as a matrix.
Ragged input is an error here, not a padding case: matrix shape feeds the
normal equations and silent padding would corrupt them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._coerce import _TYPES, ColumnType, _gather, _nuls, convert_column
from .errors import SchemaError
from .frame import _field_offsets, _record_blocks, _uniform_arity, check_layout

_MATRIX_TYPES = (
    ColumnType.LOGICAL,
    ColumnType.INTEGER,
    ColumnType.REAL,
    ColumnType.CHARACTER,
    ColumnType.COMPLEX,
)

@dataclass
class DenseMatrix:
    """A 2-D homogeneous matrix with optional column names.

    Nulls have no mask here; they sit in the data as the type's
    null-representation (NaN, 0, False, NaN+NaNi, or None for Character).
    """

    values: np.ndarray
    col_names: list | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise SchemaError(f"matrix must be 2-D, got {self.values.ndim}-D")
        if self.col_names is not None and len(self.col_names) != self.n_cols:
            raise SchemaError(
                f"{len(self.col_names)} column names for {self.n_cols} columns"
            )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def parse_matrix(chunk: bytes, elem_type: ColumnType, field_sep: bytes = b","):
    """Parse a record-aligned chunk into one DenseMatrix.

    Every record must have the same field count, or RaggedInput is raised.
    Returns ``(matrix, n_failures)`` where the count covers malformed
    non-null fields (rendered as the type's null-representation).  An empty
    chunk gives a 0x0 matrix.
    """
    if elem_type not in _MATRIX_TYPES:
        raise SchemaError(f"matrices cannot hold {elem_type.value} elements")
    check_layout(field_sep)
    # a Character matrix holds its strings in an object array
    dtype = _TYPES[elem_type].dtype or object
    if not chunk:
        return DenseMatrix(np.empty((0, 0), dtype)), 0
    # block by block, so that no per-field array outgrows a block
    n_rows = chunk.count(b"\n") + (not chunk.endswith(b"\n"))
    data, ncol, pos, counts, failures = None, None, 0, [], 0
    for lo, hi in _record_blocks(chunk):
        block = chunk[lo:hi]
        starts, ends, block_counts, _, _ = _field_offsets(block, ncol,
                                                          field_sep)
        ncol = starts.shape[1]
        fields, lengths, wide = _gather(block, starts.ravel(), ends.ravel(),
                                        _nuls(block))
        values, _mask, fails = convert_column(fields, elem_type, lengths, wide)
        if data is None:
            data = np.empty(n_rows * ncol, dtype)
        data[pos:pos + len(values)] = values
        pos += len(values)
        counts.append(block_counts)
        failures += fails
    arity = _uniform_arity(np.concatenate(counts))
    return DenseMatrix(data.reshape(n_rows, arity)), failures
