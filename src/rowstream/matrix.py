"""Single-typed dense matrices parsed from delimited chunks.

The element grammar is shared with the frame parser, so an all-Real schema
parsed as a frame and column-bound equals the same bytes parsed as a matrix.
Ragged input is an error here, not a padding case: matrix shape feeds the
normal equations and silent padding would corrupt them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._coerce import ColumnType, convert_column
from .errors import RaggedInput, SchemaError, StrictViolation
from .frame import tokenize

__all__ = ["DenseMatrix", "parse_matrix", "MATRIX_TYPES"]

MATRIX_TYPES = (
    ColumnType.LOGICAL,
    ColumnType.INTEGER,
    ColumnType.REAL,
    ColumnType.CHARACTER,
    ColumnType.COMPLEX,
)

_DTYPES = {
    ColumnType.LOGICAL: np.bool_,
    ColumnType.INTEGER: np.int64,
    ColumnType.REAL: np.float64,
    ColumnType.CHARACTER: object,
    ColumnType.COMPLEX: np.complex128,
}


@dataclass
class DenseMatrix:
    """A 2-D homogeneous matrix with optional row/column names.

    Nulls have no mask here; they sit in the data as the type's
    null-representation (NaN, 0, False, NaN+NaNi, or None for Character).
    """

    values: np.ndarray
    col_names: list | None = None
    row_names: list | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise SchemaError(f"matrix must be 2-D, got {self.values.ndim}-D")
        if self.col_names is not None and len(self.col_names) != self.n_cols:
            raise SchemaError(
                f"{len(self.col_names)} column names for {self.n_cols} columns"
            )
        if self.row_names is not None and len(self.row_names) != self.n_rows:
            raise SchemaError(
                f"{len(self.row_names)} row names for {self.n_rows} rows"
            )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def parse_matrix(
    chunk: bytes,
    elem_type: ColumnType,
    field_sep: bytes = b",",
    row_names_col: bool = False,
    skip_lines: int = 0,
    strict: bool = False,
):
    """Parse a record-aligned chunk into one DenseMatrix.

    Every record (after ``skip_lines``) must have the same field count, or
    RaggedInput is raised.  With ``row_names_col`` the first field of each
    record becomes its row name and is excluded from the data.  Returns
    ``(matrix, n_failures)`` where the count covers malformed non-null
    fields (rendered as the type's null-representation); ``strict=True``
    turns a non-zero count into StrictViolation.  An empty chunk gives a
    0x0 matrix.
    """
    if elem_type not in MATRIX_TYPES:
        raise SchemaError(f"matrices cannot hold {elem_type.value} elements")
    rows, _, _ = tokenize(chunk, field_sep, skip=skip_lines)
    if not rows:
        return DenseMatrix(np.empty((0, 0), dtype=_DTYPES[elem_type])), 0
    arity = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != arity:
            raise RaggedInput(
                f"record {i} has {len(row)} fields, record 0 has {arity}"
            )
    row_names = None
    if row_names_col:
        row_names = [r[0].decode("utf-8", "surrogateescape") for r in rows]
        rows = [r[1:] for r in rows]
        arity -= 1
    flat = []
    for row in rows:
        flat.extend(row)
    bulk = b"\x00" not in chunk
    values, _mask, failures = convert_column(flat, elem_type, None, bulk)
    if elem_type is ColumnType.CHARACTER:
        data = np.empty(len(values), dtype=object)
        data[:] = values
    else:
        data = values
    matrix = DenseMatrix(
        data.reshape(len(rows), arity), row_names=row_names
    )
    if strict and failures:
        raise StrictViolation(f"{failures} coercion failures")
    return matrix, failures
