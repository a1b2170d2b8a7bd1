import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowstream import (
    Column,
    ColumnType,
    ExpandReport,
    FactorTerm,
    Frame,
    MissingColumn,
    NumericTerm,
    OutOfRange,
    SchemaError,
    TermSpec,
    UnknownLevel,
    expand,
    normalize_hhmm_column,
    spec_names,
)


def col(name, ctype, values, mask=None):
    if ctype in (ColumnType.CHARACTER, ColumnType.BYTES):
        if mask is None:
            mask = [v is None for v in values]
        return Column(name, ctype, list(values), np.asarray(mask, dtype=bool))
    dtype = {
        ColumnType.LOGICAL: np.bool_,
        ColumnType.INTEGER: np.int64,
        ColumnType.REAL: np.float64,
        ColumnType.TIMESTAMP: np.float64,
    }[ctype]
    values = np.asarray(values, dtype=dtype)
    if mask is None:
        mask = np.zeros(len(values), dtype=bool)
    return Column(name, ctype, values, np.asarray(mask, dtype=bool))


def hhmm(values, mask=None, ctype=ColumnType.INTEGER):
    clock = Frame([col("t", ctype, values, mask)])
    return normalize_hhmm_column(clock, "t").column("t")


def test_normalize_hhmm_values(recwarn):
    assert hhmm([130, 0, 2359]).values.tolist() == [90, 0, 1439]
    # a null reading stays null
    assert hhmm([130, 0], [False, True]).mask.tolist() == [False, True]
    # 2400+ appears in real clock data and passes through arithmetically
    assert hhmm([2400]).values.tolist() == [1440]
    # 4-digit zero-pad contract: out-of-range readings are refused, unless null
    for bad in (-1, 10000):
        with pytest.raises(OutOfRange):
            hhmm([130, bad])
        assert hhmm([130, bad], [False, True]).values[0] == 90
    # a non-finite reading becomes NaN, which expand drops, without a warning
    values = hhmm([130.0, np.inf, -np.inf, np.nan], ctype=ColumnType.REAL).values
    assert values[0] == 90.0 and np.isnan(values[1:]).all()
    assert len(recwarn) == 0


def test_normalize_hhmm_column():
    frame = Frame([
        col("DepTime", ColumnType.INTEGER, [130, 0, 2359, 0, 2400],
            [False, True, False, False, False]),
        col("other", ColumnType.REAL, [1.0, 2.0, 3.0, 4.0, 5.0]),
    ])
    out = normalize_hhmm_column(frame, "DepTime")
    dep = out.column("DepTime")
    assert dep.mask.tolist() == [False, True, False, False, False]
    assert dep.values[~dep.mask].tolist() == [90, 1439, 0, 1440]
    assert out.column("other").values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    # the original frame is untouched
    assert frame.column("DepTime").values[0] == 130
    with pytest.raises(MissingColumn):
        normalize_hhmm_column(frame, "missing")


def test_normalize_hhmm_column_rejects_character():
    frame = Frame([col("t", ColumnType.CHARACTER, ["0130"])])
    with pytest.raises(SchemaError):
        normalize_hhmm_column(frame, "t")


def test_treatment_contrast_worked_example():
    frame = Frame([
        col("y", ColumnType.REAL, [1.0, 2.0]),
        col("g", ColumnType.CHARACTER, ["a", "b"]),
    ])
    spec = TermSpec("y", (FactorTerm("g", ("a", "b")),))
    matrix, report = expand(frame, spec)
    assert list(matrix.col_names) == ["(Intercept)", "y", "gb"]
    assert matrix.values.tolist() == [[1.0, 1.0, 0.0], [1.0, 2.0, 1.0]]
    assert report.n_rows == 2 and report.n_dropped_null == 0


def test_day_of_week_names():
    spec = TermSpec(
        "ArrDelay",
        (FactorTerm("DayOfWeek", tuple(str(i) for i in range(1, 8))),),
    )
    names = spec_names(spec)
    assert names == ["(Intercept)", "ArrDelay"] + [
        f"DayOfWeek{i}" for i in range(2, 8)
    ]


def test_expand_matches_brute_force_one_hot():
    rng = np.random.default_rng(17)
    n = 200
    levels = ("lo", "mid", "hi", "peak")
    codes = rng.integers(0, len(levels), size=n)
    frame = Frame([
        col("y", ColumnType.REAL, rng.normal(size=n)),
        col("x1", ColumnType.REAL, rng.normal(size=n)),
        col("g", ColumnType.CHARACTER, [levels[c] for c in codes]),
        col("x2", ColumnType.INTEGER, rng.integers(-5, 5, size=n)),
    ])
    spec = TermSpec(
        "y",
        (NumericTerm("x1"), FactorTerm("g", levels), NumericTerm("x2")),
    )
    matrix, report = expand(frame, spec)

    onehot = np.zeros((n, len(levels)))
    onehot[np.arange(n), codes] = 1.0
    expected = np.column_stack([
        np.ones(n),
        frame.column("y").values,
        frame.column("x1").values,
        onehot[:, 1:],  # baseline dropped
        frame.column("x2").values.astype(float),
    ])
    assert np.array_equal(matrix.values, expected)
    assert list(matrix.col_names) == [
        "(Intercept)", "y", "x1", "gmid", "ghi", "gpeak", "x2",
    ]
    assert report.n_input == n and report.n_rows == n


def test_expand_indicator_row_structure():
    frame = Frame([
        col("y", ColumnType.REAL, [0.0, 0.0, 0.0]),
        col("g", ColumnType.CHARACTER, ["a", "b", "c"]),
    ])
    matrix, _ = expand(frame, TermSpec("y", (FactorTerm("g", ("a", "b", "c")),)))
    indicators = matrix.values[:, 2:]
    # at most one 1 per row; all-zero row means baseline
    assert indicators.sum(axis=1).tolist() == [0.0, 1.0, 1.0]


def test_null_rows_dropped_and_counted():
    frame = Frame([
        col("y", ColumnType.REAL, [1.0, np.nan, 3.0], [False, True, False]),
        col("x", ColumnType.REAL, [np.nan, 5.0, 6.0], [True, False, False]),
    ])
    matrix, report = expand(frame, TermSpec("y", (NumericTerm("x"),)))
    assert matrix.values.tolist() == [[1.0, 3.0, 6.0]]
    assert report.n_input == 3
    assert report.n_dropped_null == 2
    assert report.n_rows == 1


def test_unknown_level_strict_and_lenient():
    frame = Frame([
        col("y", ColumnType.REAL, [1.0, 2.0]),
        col("g", ColumnType.CHARACTER, ["a", "zz"]),
    ])
    spec = TermSpec("y", (FactorTerm("g", ("a", "b")),))
    with pytest.raises(UnknownLevel):
        expand(frame, spec)
    matrix, report = expand(frame, spec, lenient_levels=True)
    assert matrix.n_rows == 1
    assert report.n_dropped_unknown == 1


def test_integer_factor_column():
    frame = Frame([
        col("y", ColumnType.REAL, [1.0, 2.0, 3.0]),
        col("d", ColumnType.INTEGER, [1, 2, 7]),
    ])
    spec = TermSpec("y", (FactorTerm("d", tuple(str(i) for i in range(1, 8))),))
    matrix, _ = expand(frame, spec)
    assert matrix.values[0, 2:].tolist() == [0.0] * 6          # baseline "1"
    assert matrix.values[1, 2:].tolist() == [1.0] + [0.0] * 5  # "2"
    assert matrix.values[2, 2:].tolist() == [0.0] * 5 + [1.0]  # "7"


def test_logical_and_timestamp_terms_become_floats():
    frame = Frame([
        col("y", ColumnType.REAL, [1.0, 2.0]),
        col("flag", ColumnType.LOGICAL, [True, False]),
        col("when", ColumnType.TIMESTAMP, [10.5, 20.25]),
    ])
    spec = TermSpec("y", (NumericTerm("flag"), NumericTerm("when")))
    matrix, _ = expand(frame, spec)
    assert matrix.values[:, 2].tolist() == [1.0, 0.0]
    assert matrix.values[:, 3].tolist() == [10.5, 20.25]


def test_missing_column():
    frame = Frame([col("y", ColumnType.REAL, [1.0])])
    with pytest.raises(MissingColumn):
        expand(frame, TermSpec("y", (NumericTerm("nope"),)))
    with pytest.raises(MissingColumn):
        expand(frame, TermSpec("absent", (NumericTerm("y"),)))


def test_character_term_rejected():
    frame = Frame([
        col("y", ColumnType.REAL, [1.0]),
        col("s", ColumnType.CHARACTER, ["x"]),
    ])
    with pytest.raises(SchemaError):
        expand(frame, TermSpec("y", (NumericTerm("s"),)))


def test_factor_level_validation():
    with pytest.raises(SchemaError):
        FactorTerm("g", ())
    with pytest.raises(SchemaError):
        FactorTerm("g", ("a", "a"))


def test_all_rows_dropped_gives_empty_matrix():
    frame = Frame([
        col("y", ColumnType.REAL, [np.nan], [True]),
        col("x", ColumnType.REAL, [1.0]),
    ])
    matrix, report = expand(frame, TermSpec("y", (NumericTerm("x"),)))
    assert matrix.values.shape == (0, 3)
    assert report.n_dropped_null == 1


def test_column_count_identity():
    # intercept + response + numerics + sum(|levels| - 1)
    spec = TermSpec(
        "y",
        (
            NumericTerm("a"),
            FactorTerm("g", ("u", "v", "w")),
            NumericTerm("b"),
            FactorTerm("h", ("p", "q")),
        ),
    )
    assert len(spec_names(spec)) == 1 + 1 + 2 + (3 - 1) + (2 - 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_response_or_term_counts_as_null(bad):
    # R's is.na is true for NaN; a NaN or infinite row cannot be fit either
    frame = Frame([
        col("y", ColumnType.REAL, [1.0, bad, 3.0, 4.0]),
        col("x", ColumnType.REAL, [2.0, 5.0, bad, 7.0]),
    ])
    matrix, report = expand(frame, TermSpec("y", (NumericTerm("x"),)))
    assert matrix.values.tolist() == [[1.0, 1.0, 2.0], [1.0, 4.0, 7.0]]
    assert report.n_dropped_null == 2
    assert report.n_dropped_unknown == 0
    assert report.n_rows == 2


def test_term_spec_rejects_unknown_term_kind():
    with pytest.raises(SchemaError, match="unknown term kind str"):
        TermSpec("y", ("x",))


@pytest.mark.parametrize("response,terms,repeat", [
    ("y", (NumericTerm("x"), NumericTerm("x")), "x"),
    ("y", (NumericTerm("y"), NumericTerm("x")), "y"),
    ("y", (FactorTerm("g", ("b", "a")), NumericTerm("ga")), "ga"),
    ("y", (NumericTerm("(Intercept)"),), "(Intercept)"),
])
def test_term_spec_rejects_repeated_design_names(response, terms, repeat):
    # a fit keys coefficients by name, so a repeat would collapse silently
    with pytest.raises(SchemaError, match=re.escape(repr(repeat))):
        TermSpec(response, terms)


def _oracle_expand(frame, spec, lenient_levels):
    """expand, one row at a time, as its docstring describes it."""
    names = ["(Intercept)", spec.response]
    for term in spec.terms:
        if isinstance(term, NumericTerm):
            names.append(term.column)
        else:
            names += [term.column + level for level in term.levels[1:]]
    resp = frame.column(spec.response)
    rows = []  # (null, [(term index, row, unknown key)], design row)
    for i in range(frame.n_rows):
        y = float(resp.values[i])
        null = bool(resp.mask[i]) or not math.isfinite(y)
        row, unknown = [1.0, y], []
        for t, term in enumerate(spec.terms):
            c = frame.column(term.column)
            null = null or bool(c.mask[i])
            v = c.values[i]
            if isinstance(term, NumericTerm):
                null = null or not math.isfinite(float(v))
                row.append(float(v))
                continue
            key = ("" if v is None else v) if c.ctype is ColumnType.CHARACTER \
                else str(int(v))
            levels = term.levels
            row += [float(levels.index(key) == j) if key in levels else 0.0
                    for j in range(1, len(levels))]
            if key not in levels:
                unknown.append((t, i, key))
        rows.append((null, unknown, row))
    live = sorted(u for null, unknown, _ in rows if not null for u in unknown)
    if live and not lenient_levels:
        t, _, key = live[0]
        return f"column {spec.terms[t].column!r}: {key!r} not in levels"
    kept = [row for null, unknown, row in rows if not (null or unknown)]
    report = ExpandReport(
        n_input=frame.n_rows,
        n_rows=len(kept),
        n_dropped_null=sum(null for null, _, _ in rows),
        n_dropped_unknown=sum(1 for null, unknown, _ in rows
                              if unknown and not null),
    )
    return np.array(kept, dtype=np.float64).reshape(-1, len(names)), names, report


_FLOATS = st.floats() | st.sampled_from([np.nan, np.inf, -np.inf, -0.0])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 8), n_terms=st.integers(0, 4),
       lenient=st.booleans())
def test_expand_matches_row_oracle(data, n, n_terms, lenient):
    def cells(elements):
        return data.draw(st.lists(elements, min_size=n, max_size=n))

    columns = [col("y", ColumnType.REAL, cells(_FLOATS), cells(st.booleans()))]
    terms = []
    for j in range(n_terms):
        name = f"c{j}"
        mask = cells(st.booleans())
        kind = data.draw(st.sampled_from(
            ["real", "integer", "logical", "character factor", "integer factor"]))
        if kind == "real":
            values = cells(_FLOATS)
            columns.append(col(name, ColumnType.REAL, values, mask))
        elif kind == "integer":
            values = cells(st.integers(-2**63, 2**63 - 1))
            columns.append(col(name, ColumnType.INTEGER, values, mask))
        elif kind == "logical":
            columns.append(col(name, ColumnType.LOGICAL, cells(st.booleans()), mask))
        elif kind == "character factor":
            levels = data.draw(st.lists(st.sampled_from("abcd"), min_size=1,
                                        max_size=4, unique=True))
            values = cells(st.sampled_from(levels + ["zz", ""]))
            values = [None if m else v for v, m in zip(values, mask)]
            columns.append(col(name, ColumnType.CHARACTER, values, mask))
        else:
            levels = data.draw(st.lists(st.sampled_from(["1", "2", "3", "07"]),
                                        min_size=1, max_size=4, unique=True))
            columns.append(col(name, ColumnType.INTEGER,
                               cells(st.integers(-1, 8)), mask))
        terms.append(NumericTerm(name) if "factor" not in kind
                     else FactorTerm(name, levels))
    frame = Frame(columns)
    spec = TermSpec("y", tuple(terms))
    expected = _oracle_expand(frame, spec, lenient)
    if isinstance(expected, str):
        with pytest.raises(UnknownLevel) as err:
            expand(frame, spec, lenient_levels=lenient)
        assert str(err.value) == expected
        return
    X, names, report = expected
    matrix, got = expand(frame, spec, lenient_levels=lenient)
    assert matrix.values.dtype == np.float64 and matrix.values.shape == X.shape
    assert matrix.values.tobytes() == X.tobytes()
    assert list(matrix.col_names) == names
    assert got == report


_INT_LEVELS = ["1", "2", "-1", "-12", "07", "-0", "0", "+3", " 4", "1_0", "x",
               str(2**63 - 1), str(-2**63), str(2**63)]
_CHAR_LEVELS = ["a", "b", "", "NA", "a\x00", "ab", "é", "07"]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), lenient=st.booleans(),
       integer=st.booleans())
def test_factor_search_matches_the_dict_codes(data, n, lenient, integer):
    """Factor cells are coded by a binary search of the sorted levels; the
    codes must be those of looking each cell's key up in a dict of the
    levels: ``str`` of an Integer cell, so ``07`` and ``-0`` match nothing,
    and a Character cell as it is, trailing NUL included."""
    pool = _INT_LEVELS if integer else _CHAR_LEVELS
    levels = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=6, unique=True))
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if integer:
        cells = st.integers(-13, 13) | st.sampled_from([2**63 - 1, -2**63])
        values = data.draw(st.lists(cells, min_size=n, max_size=n))
        factor = col("g", ColumnType.INTEGER, values, mask)
        keys = [str(v) for v in values]
    else:
        values = data.draw(st.lists(st.sampled_from(_CHAR_LEVELS + ["zz"]),
                                    min_size=n, max_size=n))
        values = [None if m else v for v, m in zip(values, mask)]
        factor = col("g", ColumnType.CHARACTER, values, mask)
        keys = ["" if v is None else v for v in values]
    index = {level: i for i, level in enumerate(levels)}
    codes = [index.get(k, -1) for k in keys]
    frame = Frame([col("y", ColumnType.REAL, [1.0] * n), factor])
    spec = TermSpec("y", (FactorTerm("g", tuple(levels)),))
    expected = _oracle_expand(frame, spec, lenient)
    if isinstance(expected, str):
        with pytest.raises(UnknownLevel) as err:
            expand(frame, spec, lenient_levels=lenient)
        assert str(err.value) == expected
        return
    live = [c for c, m in zip(codes, mask) if not m and c != -1]
    want = np.array([[c == j for j in range(1, len(levels))] for c in live],
                    np.float64).reshape(len(live), len(levels) - 1)
    matrix, report = expand(frame, spec, lenient_levels=lenient)
    assert matrix.values.tobytes() == expected[0].tobytes()
    assert matrix.values[:, 2:].tobytes() == want.tobytes()
    assert report == expected[2]
