"""Build regression model matrices from frames.

Factors expand with treatment contrasts against caller-supplied levels (the
level set of a stream cannot be discovered without reading all of it, so it
is an input, not an inference).  The response is embedded as a column of the
output matrix, right after the intercept: one checkpoint can then serve many
model fits that slice columns differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ._coerce import ColumnType
from .errors import MissingColumn, OutOfRange, SchemaError, UnknownLevel
from .frame import Column, Frame
from .matrix import DenseMatrix

__all__ = [
    "NumericTerm",
    "FactorTerm",
    "TermSpec",
    "ExpandReport",
    "normalize_hhmm_column",
    "spec_names",
    "expand",
]

_NUMERIC_OK = (
    ColumnType.LOGICAL,
    ColumnType.INTEGER,
    ColumnType.REAL,
    ColumnType.TIMESTAMP,
)
_FACTOR_OK = (ColumnType.INTEGER, ColumnType.CHARACTER)


@dataclass(frozen=True)
class NumericTerm:
    """A column copied through as one numeric regressor."""

    column: str


@dataclass(frozen=True)
class FactorTerm:
    """A categorical column with an explicit, ordered level list.

    Expands to ``len(levels) - 1`` indicator columns named column+level for
    every level after the first; the first level is the baseline.
    """

    column: str
    levels: tuple

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(str(v) for v in self.levels))
        if not self.levels:
            raise SchemaError(f"factor {self.column!r} has no levels")
        if len(set(self.levels)) != len(self.levels):
            raise SchemaError(f"factor {self.column!r} has duplicate levels")


Term = Union[NumericTerm, FactorTerm]


@dataclass(frozen=True)
class TermSpec:
    """Response column and ordered regressor terms; every design also
    starts with an intercept."""

    response: str
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass
class ExpandReport:
    """Row accounting for one expansion."""

    n_input: int
    n_rows: int
    n_dropped_null: int
    n_dropped_unknown: int


def spec_names(spec: TermSpec) -> list:
    """Output column names of :func:`expand` for this spec, in order.

    Independent of any data, so checkpoint sidecars can be written before the
    first row is seen.
    """
    names = ["(Intercept)", spec.response]
    for term in spec.terms:
        if isinstance(term, NumericTerm):
            names.append(term.column)
        elif isinstance(term, FactorTerm):
            names.extend(term.column + level for level in term.levels[1:])
        else:
            raise SchemaError(f"unknown term kind {type(term).__name__}")
    return names


def normalize_hhmm_column(frame: Frame, column: str) -> Frame:
    """Return a frame with one Integer/Real column of HHMM clock readings
    rewritten as minutes after midnight; other columns are shared, not
    copied.

    A reading is a 4-digit zero-padded clock: the leading two digits are
    hours, the trailing two minutes, so 130 means 01:30 and maps to 90.
    Finite, non-null readings outside [0, 9999] break the 4-digit contract
    and raise OutOfRange.  Readings of 2400 and beyond pass through the same
    arithmetic (real-world departure data contains them), and a NaN or
    infinite reading becomes NaN, which :func:`expand` drops as a null.
    """
    col = frame.column(column)
    if col.ctype not in (ColumnType.INTEGER, ColumnType.REAL):
        raise SchemaError(
            f"column {column!r} is {col.ctype.value}, need integer or real"
        )
    values = col.values
    live = values[~col.mask & np.isfinite(values)]
    bad = live[(live < 0) | (live > 9999)]
    if len(bad):
        raise OutOfRange(f"clock reading {bad[0]} outside [0, 9999]")
    with np.errstate(invalid="ignore"):
        new_values = (values // 100) * 60 + values % 100
    columns = [
        Column(c.name, c.ctype, new_values, c.mask.copy()) if c.name == column else c
        for c in frame.columns
    ]
    return Frame(columns)


def _numeric_values(col: Column, role: str) -> np.ndarray:
    if col.ctype not in _NUMERIC_OK:
        raise SchemaError(
            f"{role} column {col.name!r} is {col.ctype.value}, need a numeric type"
        )
    return np.asarray(col.values, dtype=np.float64)


def _factor_keys(col: Column) -> list:
    if col.ctype is ColumnType.CHARACTER:
        return ["" if v is None else v for v in col.values]
    if col.ctype is ColumnType.INTEGER:
        return [str(v) for v in col.values.tolist()]
    raise SchemaError(
        f"factor column {col.name!r} is {col.ctype.value}, "
        "need integer or character"
    )


def expand(frame: Frame, spec: TermSpec, lenient_levels: bool = False):
    """Expand a frame into a dense model matrix.

    Output columns: ``(Intercept)``, the response, then each
    term in spec order — numeric terms as-is, factor terms as treatment-coded
    indicators named column+level for levels after the baseline.  Rows with a
    null in any used column are dropped (listwise), with the count reported;
    a NaN or infinite response or numeric-term value counts as null.
    A factor cell outside its level list raises UnknownLevel, or with
    ``lenient_levels`` drops the row and counts it separately.  Returns
    ``(matrix, report)``.
    """
    n = frame.n_rows
    resp = frame.column(spec.response)
    resp_values = _numeric_values(resp, "response")
    drop_null = resp.mask | ~np.isfinite(resp_values)
    term_cols = []
    for term in spec.terms:
        col = frame.column(term.column)
        if isinstance(term, NumericTerm):
            values = _numeric_values(col, "numeric term")
            drop_null |= ~np.isfinite(values)
            term_cols.append((term, values, None))
        elif isinstance(term, FactorTerm):
            index = {level: i for i, level in enumerate(term.levels)}
            keys = _factor_keys(col)
            code = np.fromiter(
                (index.get(k, -1) for k in keys), dtype=np.int64, count=n
            )
            term_cols.append((term, None, code))
        else:
            raise SchemaError(f"unknown term kind {type(term).__name__}")
        drop_null |= col.mask
    unknown = np.zeros(n, dtype=np.bool_)
    for term, _, code in term_cols:
        if code is None:
            continue
        bad = (code == -1) & ~drop_null
        if bad.any():
            if not lenient_levels:
                i = int(np.flatnonzero(bad)[0])
                keys = _factor_keys(frame.column(term.column))
                raise UnknownLevel(
                    f"column {term.column!r}: {keys[i]!r} not in levels"
                )
            unknown |= bad
    keep = ~(drop_null | unknown)
    kept = np.flatnonzero(keep)
    m = len(kept)
    names = spec_names(spec)
    X = np.zeros((m, len(names)), dtype=np.float64)
    X[:, 0] = 1.0
    X[:, 1] = resp_values[kept]
    pos = 2
    for term, values, code in term_cols:
        if code is None:
            X[:, pos] = values[kept]
            pos += 1
        else:
            k = code[kept]
            hot = np.flatnonzero(k >= 1)
            X[hot, pos + k[hot] - 1] = 1.0
            pos += len(term.levels) - 1
    report = ExpandReport(
        n_input=n,
        n_rows=m,
        n_dropped_null=int(drop_null.sum()),
        n_dropped_unknown=int(unknown.sum()),
    )
    return DenseMatrix(X, col_names=names), report
