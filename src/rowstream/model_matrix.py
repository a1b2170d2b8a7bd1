"""Build regression model matrices from frames.

Factors expand with treatment contrasts against caller-supplied levels (the
level set of a stream cannot be discovered without reading all of it, so it
is an input, not an inference).  The response is embedded as a column of the
output matrix, right after the intercept: one checkpoint can then serve many
model fits that slice columns differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._coerce import INT64_MAX, INT64_MIN, ColumnType
from .errors import OutOfRange, SchemaError, UnknownLevel
from .frame import Column, Frame
from .matrix import DenseMatrix

_NUMERIC_OK = (
    ColumnType.LOGICAL,
    ColumnType.INTEGER,
    ColumnType.REAL,
    ColumnType.TIMESTAMP,
)


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


@dataclass(frozen=True)
class TermSpec:
    """Response column and ordered regressor terms; every design also
    starts with an intercept.  The design's column names (``spec_names``)
    must be distinct, since a fit keys its coefficients by name."""

    response: str
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            if not isinstance(term, (NumericTerm, FactorTerm)):
                raise SchemaError(f"unknown term kind {type(term).__name__}")
        names = spec_names(self)
        for i, name in enumerate(names):
            if name in names[:i]:
                raise SchemaError(f"design column name {name!r} repeats")


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
        else:
            names.extend(term.column + level for level in term.levels[1:])
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


def _integer_level(level: str):
    """The int64 that ``str`` spells as ``level``, or None: ``07`` and
    ``+7`` spell no Integer cell."""
    try:
        value = int(level)
    except ValueError:
        return None
    if str(value) == level and INT64_MIN <= value <= INT64_MAX:
        return value
    return None


def _factor_codes(col: Column, levels: tuple):
    """``(codes, cells)``: each cell's index in ``levels``, or -1, found by
    a binary search of the sorted levels, and the cells as searched.  An
    Integer cell is the level ``str`` spells it as; a Character cell, held
    as an object array so that no trailing NUL is stripped, the level it
    equals, with None read as ``""``."""
    if col.ctype is ColumnType.INTEGER:
        cells = col.values
        pairs = sorted((v, i) for i, level in enumerate(levels)
                       if (v := _integer_level(level)) is not None)
        keys = np.array([v for v, _ in pairs], np.int64)
    elif col.ctype is ColumnType.CHARACTER:
        cells = np.array(col.values, dtype=object)
        cells[np.equal(cells, None)] = ""
        pairs = sorted((level, i) for i, level in enumerate(levels))
        keys = np.array([v for v, _ in pairs], dtype=object)
    else:
        raise SchemaError(
            f"factor column {col.name!r} is {col.ctype.value}, "
            "need integer or character"
        )
    if not pairs:
        return np.full(len(cells), -1), cells
    pos = np.minimum(np.searchsorted(keys, cells), len(keys) - 1)
    index = np.array([i for _, i in pairs])
    return np.where(keys[pos] == cells, index[pos], -1), cells


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
    columns = [_numeric_values(resp, "response")]
    null = resp.mask | ~np.isfinite(columns[0])
    factors = []
    for term in spec.terms:
        col = frame.column(term.column)
        null |= col.mask
        if isinstance(term, NumericTerm):
            columns.append(_numeric_values(col, "numeric term"))
            null |= ~np.isfinite(columns[-1])
        else:
            code, cells = _factor_codes(col, term.levels)
            columns.append(code)
            factors.append((term, code, cells))
    unknown = np.zeros(n, dtype=np.bool_)
    for term, code, cells in factors:
        bad = (code == -1) & ~null
        if bad.any():
            if not lenient_levels:
                key = str(cells[np.flatnonzero(bad)[0]])
                raise UnknownLevel(
                    f"column {term.column!r}: {key!r} not in levels")
            unknown |= bad
    # the design is written straight into one block of the kept rows
    keep = np.flatnonzero(~(null | unknown))
    names = spec_names(spec)
    X = np.empty((len(keep), len(names)))
    X[:, 0] = 1.0
    j = 1
    for term, values in zip((None,) + spec.terms, columns):
        values = values[keep]
        if isinstance(term, FactorTerm):
            width = len(term.levels) - 1
            X[:, j:j + width] = values[:, None] == np.arange(1, width + 1)
        else:
            width = 1
            X[:, j] = values
        j += width
    report = ExpandReport(
        n_input=n,
        n_rows=len(X),
        n_dropped_null=int(null.sum()),
        n_dropped_unknown=int(unknown.sum()),
    )
    return DenseMatrix(X, col_names=names), report
