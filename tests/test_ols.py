import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowstream import (
    DEFAULT_RANK_TOL,
    DegenerateSystem,
    DimensionMismatch,
    NormalEqAccumulator,
    NotPositiveSemidefinite,
    SchemaError,
    accumulate,
    merge,
    solve_ne,
)


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def build(X, y):
    acc = NormalEqAccumulator.zero(X.shape[1])
    accumulate(acc, X, y)
    return acc


def test_accumulate_hand_example():
    acc = NormalEqAccumulator.zero(1)
    accumulate(acc, np.array([[1.0], [1.0]]), np.array([[3.0], [5.0]]))
    assert acc.xtx.tolist() == [[2.0]]
    assert acc.xty.tolist() == [8.0]
    assert acc.n == 2


def test_accumulate_empty_chunk_is_identity():
    acc = NormalEqAccumulator.zero(2)
    before = (acc.xtx.copy(), acc.xty.copy(), acc.n)
    accumulate(acc, np.empty((0, 2)), np.empty((0, 1)))
    assert np.array_equal(acc.xtx, before[0])
    assert np.array_equal(acc.xty, before[1])
    assert acc.n == before[2]


def test_accumulate_dimension_checks():
    acc = NormalEqAccumulator.zero(2)
    with pytest.raises(DimensionMismatch):
        accumulate(acc, np.ones((3, 4)), np.ones((3, 1)))
    with pytest.raises(DimensionMismatch):
        accumulate(acc, np.ones((3, 2)), np.ones((2, 1)))


def test_chunked_accumulation_matches_single_pass():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(300, 6))
    y = rng.normal(size=(300, 1))
    whole = X.T @ X
    for r in (1, 2, 7):
        acc = NormalEqAccumulator.zero(6)
        for part in np.array_split(np.arange(300), r):
            accumulate(acc, X[part], y[part])
        assert rel_err(acc.xtx, whole) < 1e-12
        assert acc.n == 300


def test_repeat_runs_are_bit_identical():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(100, 4))
    y = rng.normal(size=(100, 1))

    def run():
        acc = NormalEqAccumulator.zero(4)
        for part in np.array_split(np.arange(100), 3):
            accumulate(acc, X[part], y[part])
        return acc

    a, b = run(), run()
    assert np.array_equal(a.xtx, b.xtx)
    assert np.array_equal(a.xty, b.xty)


def test_merge_identity_and_commutativity():
    rng = np.random.default_rng(2)
    acc = build(rng.normal(size=(50, 3)), rng.normal(size=(50, 1)))
    zero = NormalEqAccumulator.zero(3)
    merged = merge(acc, zero)
    assert np.array_equal(merged.xtx, acc.xtx)
    assert np.array_equal(merged.xty, acc.xty)
    assert merged.n == acc.n
    other = build(rng.normal(size=(40, 3)), rng.normal(size=(40, 1)))
    ab, ba = merge(acc, other), merge(other, acc)
    assert np.array_equal(ab.xtx, ba.xtx)
    assert np.array_equal(ab.xty, ba.xty)


def test_merge_does_not_mutate_inputs():
    a = build(np.ones((2, 1)), np.ones((2, 1)))
    b = build(np.ones((3, 1)) * 2, np.ones((3, 1)))
    xtx_a = a.xtx.copy()
    merge(a, b)
    assert np.array_equal(a.xtx, xtx_a)


def test_merge_dimension_check():
    with pytest.raises(DimensionMismatch):
        merge(NormalEqAccumulator.zero(2), NormalEqAccumulator.zero(3))


def test_fold_reassociation_tolerance():
    rng = np.random.default_rng(31)
    accs = [
        build(rng.normal(size=(20, 5)), rng.normal(size=(20, 1)))
        for _ in range(8)
    ]
    left = accs[0]
    for a in accs[1:]:
        left = merge(left, a)

    def tree(items):
        if len(items) == 1:
            return items[0]
        mid = len(items) // 2
        return merge(tree(items[:mid]), tree(items[mid:]))

    balanced = tree(accs)
    assert rel_err(balanced.xtx, left.xtx) < 1e-13
    assert rel_err(balanced.xty, left.xty) < 1e-13
    assert balanced.n == left.n


def test_solve_scalar_example():
    acc = NormalEqAccumulator(1, np.array([[2.0]]), np.array([8.0]), 2)
    fit = solve_ne(acc, ["x"])
    assert fit.coef == {"x": 4.0}
    assert fit.rank == 1
    assert fit.dropped == []
    assert fit.tolerance == DEFAULT_RANK_TOL


def test_solve_matches_lstsq_oracle():
    rng = np.random.default_rng(77)
    X = rng.normal(size=(1000, 10))
    beta = rng.normal(size=10)
    y = (X @ beta + 0.01 * rng.normal(size=1000)).reshape(-1, 1)
    fit = solve_ne(build(X, y), [f"c{i}" for i in range(10)])
    oracle, *_ = np.linalg.lstsq(X, y[:, 0], rcond=None)
    got = np.array([fit.coef[f"c{i}"] for i in range(10)])
    assert rel_err(got, oracle) < 1e-8


def test_exact_recovery_no_noise():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(500, 8))
    beta = rng.normal(size=8)
    y = (X @ beta).reshape(-1, 1)
    fit = solve_ne(build(X, y), [f"b{i}" for i in range(8)])
    got = np.array([fit.coef[f"b{i}"] for i in range(8)])
    assert rel_err(got, beta) < 1e-10


def test_duplicated_column_aliased():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(400, 4))
    Xdup = np.column_stack([X[:, 0], X[:, 1], X[:, 1], X[:, 2], X[:, 3]])
    beta = np.array([1.0, 2.0, 3.0, 4.0])
    y = (X @ beta).reshape(-1, 1)
    names = ["a", "b", "b_copy", "c", "d"]
    fit = solve_ne(build(Xdup, y), names)
    assert fit.rank == 4
    assert fit.dropped == ["b_copy"]  # first occurrence wins the tie
    reduced = solve_ne(build(X, y), ["a", "b", "c", "d"])
    for name in ("a", "b", "c", "d"):
        assert abs(fit.coef[name] - reduced.coef[name]) <= 1e-10 * max(
            1.0, abs(reduced.coef[name])
        )
    assert "b_copy" not in fit.coef
    assert sorted(fit.kept) == fit.kept or len(fit.kept) == 4  # covers all kept


def test_scaling_y_scales_coefficients():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(300, 5))
    y = rng.normal(size=(300, 1))
    names = list("abcde")
    base = solve_ne(build(X, y), names)
    doubled = solve_ne(build(X, 2.0 * y), names)
    for n in names:
        assert doubled.coef[n] == 2.0 * base.coef[n]  # ×2 is exact in binary
    tripled = solve_ne(build(X, 3.0 * y), names)
    for n in names:
        assert abs(tripled.coef[n] - 3.0 * base.coef[n]) <= 1e-13 * abs(
            3.0 * base.coef[n]
        )


def test_chunking_invariance_of_fit():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(240, 4))
    y = rng.normal(size=(240, 1))
    names = list("wxyz")
    single = solve_ne(build(X, y), names)
    for r in (2, 5, 12):
        acc = NormalEqAccumulator.zero(4)
        for part in np.array_split(np.arange(240), r):
            accumulate(acc, X[part], y[part])
        chunked = solve_ne(acc, names)
        assert chunked.dropped == single.dropped
        for n in names:
            assert abs(chunked.coef[n] - single.coef[n]) <= 1e-10 * max(
                1.0, abs(single.coef[n])
            )


def test_degenerate_all_zero_design():
    acc = NormalEqAccumulator(2, np.zeros((2, 2)), np.zeros(2), 5)
    with pytest.raises(DegenerateSystem):
        solve_ne(acc, ["a", "b"])


def test_degenerate_nonfinite_accumulator():
    acc = NormalEqAccumulator(1, np.array([[np.inf]]), np.array([1.0]), 3)
    with pytest.raises(DegenerateSystem):
        solve_ne(acc, ["a"])


def test_not_positive_semidefinite():
    acc = NormalEqAccumulator(
        2, np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2), 4
    )
    with pytest.raises(NotPositiveSemidefinite):
        solve_ne(acc, ["a", "b"])


def test_empty_accumulator_rejected():
    acc = NormalEqAccumulator.zero(2)
    with pytest.raises(DegenerateSystem, match="no rows accumulated"):
        solve_ne(acc, ["a", "b"])
    # rows, but a design of the response alone
    with pytest.raises(DegenerateSystem, match="the design has no columns"):
        solve_ne(NormalEqAccumulator(0, n=2), [])


def test_names_length_check():
    acc = NormalEqAccumulator(1, np.array([[2.0]]), np.array([8.0]), 2)
    with pytest.raises(DimensionMismatch):
        solve_ne(acc, ["a", "b"])


def test_repeated_names_are_refused():
    # coef is keyed by name: a repeat used to return {'a': 0.8}
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    acc = build(X, np.array([1.0, 2.0, 2.0]))
    with pytest.raises(SchemaError, match="'a'"):
        solve_ne(acc, ["a", "a"])


def test_rank_tol_flag_changes_kept_set():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(500, 3))
    # third column nearly equals the first
    X[:, 2] = X[:, 0] + 1e-6 * rng.normal(size=500)
    y = rng.normal(size=(500, 1))
    names = ["a", "b", "almost_a"]
    loose = solve_ne(build(X, y), names, rank_tol=1e-4)
    tight = solve_ne(build(X, y), names, rank_tol=1e-14)
    assert loose.rank == 2 and loose.dropped == ["almost_a"]
    assert tight.rank == 3 and tight.dropped == []


def test_large_magnitude_column_does_not_alias_the_intercept():
    rng = np.random.default_rng(17)
    n = 100_000
    X = np.column_stack([
        np.ones(n),
        rng.integers(0, 2, n).astype(np.float64),
        rng.normal(1000.0, 300.0, n),
    ])
    y = (X @ [2.0, -1.0, 0.5] + rng.normal(size=n)).reshape(-1, 1)
    names = ["(Intercept)", "dummy", "big"]
    fit = solve_ne(build(X, y), names)
    assert fit.rank == 3 and fit.dropped == []
    oracle, *_ = np.linalg.lstsq(X, y[:, 0], rcond=None)
    got = np.array([fit.coef[name] for name in names])
    assert rel_err(got, oracle) < 1e-8


def test_aliased_columns_are_dropped_in_column_order():
    rng = np.random.default_rng(29)
    a, b = rng.normal(size=(2, 300))
    X = np.column_stack([3.0 * a, b, a, 2.0 * b])
    y = rng.normal(size=(300, 1))
    fit = solve_ne(build(X, y), ["a3", "b", "a", "b2"])
    assert fit.kept == [0, 1]
    assert fit.dropped == ["a", "b2"]


def _scaling_design():
    rng = np.random.default_rng(43)
    n = 2000
    days = rng.integers(0, 4, n)
    X = np.column_stack([
        np.ones(n),
        days == 1,
        days == 2,
        days == 3,
        rng.normal(1000.0, 300.0, n),
    ]).astype(np.float64)
    y = X @ [5.0, 1.0, -2.0, 0.5, 0.01] + rng.normal(size=n)
    return X, y.reshape(-1, 1)


_SCALING_X, _SCALING_Y = _scaling_design()
_SCALING_NAMES = ["(Intercept)", "d1", "d2", "d3", "big"]


@settings(max_examples=60, deadline=None)
@given(column=st.integers(0, 4), power=st.integers(-6, 6))
def test_rank_and_coefficients_follow_column_scale(column, power):
    base = solve_ne(build(_SCALING_X, _SCALING_Y), _SCALING_NAMES)
    scale = 10.0 ** power
    X = _SCALING_X.copy()
    X[:, column] *= scale
    fit = solve_ne(build(X, _SCALING_Y), _SCALING_NAMES)
    assert fit.kept == base.kept == [0, 1, 2, 3, 4]
    for j, name in enumerate(_SCALING_NAMES):
        expected = base.coef[name] / scale if j == column else base.coef[name]
        assert fit.coef[name] == pytest.approx(expected, rel=1e-8)
