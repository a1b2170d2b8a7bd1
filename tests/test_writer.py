import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rowstream.writer
from rowstream import (
    Column,
    ColumnType,
    DenseMatrix,
    Frame,
    OutOfRange,
    SeparatorCollision,
    format_frame,
    format_matrix,
    frames_equal,
    parse_matrix,
    read_sidecar,
    sidecar_path,
    write_sidecar,
)
from conftest import FRAME_TYPES, INT64_MAX, INT64_MIN, random_frame, roundtrip
from oracle import naive_format_frame


def int_column(name, values, mask=None):
    values = np.asarray(values, dtype=np.int64)
    if mask is None:
        mask = np.zeros(len(values), dtype=bool)
    return Column(name, ColumnType.INTEGER, values, np.asarray(mask))


def char_column(name, values):
    mask = np.array([v is None for v in values])
    return Column(name, ColumnType.CHARACTER, list(values), mask)


def test_header_and_null_rendering():
    frame = Frame([int_column("x", [1, 0], mask=[False, True])])
    assert format_frame(frame, include_header=True) == b"x\n1\nNA\n"


def test_shortest_roundtrip_float_rendering():
    col = Column(
        "v",
        ColumnType.REAL,
        np.array([0.1, 1 / 3, 1e-5, 2.0]),
        np.zeros(4, dtype=bool),
    )
    out = format_frame(Frame([col]))
    assert out == b"0.1\n0.3333333333333333\n1e-05\n2.0\n"


def test_collision_forces_quoting():
    frame = Frame([char_column("v", ["a,b"])])
    assert format_frame(frame, quote=b'"') == b'"a,b"\n'
    with pytest.raises(SeparatorCollision):
        format_frame(frame)


def test_empty_and_na_strings_need_quoting():
    frame = Frame([char_column("v", ["", "NA", "NA "])])
    assert format_frame(frame, quote=b'"') == b'""\n"NA"\nNA \n'
    with pytest.raises(SeparatorCollision):
        format_frame(frame)


def test_quote_in_cell_doubles():
    frame = Frame([char_column("v", ['say "hi"'])])
    assert format_frame(frame, quote=b'"') == b'"say ""hi"""\n'


def test_trailing_cr_quoted_only_in_last_column():
    frame = Frame([char_column("a", ["x\r"]), char_column("b", ["y\r"])])
    out = format_frame(frame, quote=b'"')
    # mid-record \r is harmless (strip_cr only touches the record tail)
    assert out == b'x\r,"y\r"\n'
    back, _ = roundtrip(frame)
    assert frames_equal(back, Frame([
        char_column("V1", ["x\r"]), char_column("V2", ["y\r"]),
    ]))


def test_embedded_newline_always_fatal():
    frame = Frame([char_column("v", ["a\nb"])])
    with pytest.raises(SeparatorCollision):
        format_frame(frame, quote=b'"')


def test_numeric_separator_collision():
    col = Column("v", ColumnType.REAL, np.array([1e-5]), np.zeros(1, dtype=bool))
    # 'e' appears inside the rendered "1e-05"
    with pytest.raises(SeparatorCollision):
        format_frame(Frame([col]), field_sep=b"e")
    quoted = format_frame(Frame([col]), field_sep=b"e", quote=b'"')
    assert quoted == b'"1e-05"\n'
    flag = Column("f", ColumnType.LOGICAL, np.array([True]), np.zeros(1, dtype=bool))
    # 'T' appears inside the rendered "TRUE"
    with pytest.raises(SeparatorCollision):
        format_frame(Frame([flag]), field_sep=b"T")
    # format_matrix guards the same cells
    with pytest.raises(SeparatorCollision):
        format_matrix(DenseMatrix(np.array([[1e-5, 2.0]])), b"e")
    with pytest.raises(SeparatorCollision):
        format_matrix(DenseMatrix(np.array([[-3, 4]])), b"-")


def test_format_matrix_basic():
    m = DenseMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert format_matrix(m) == b"1.0,2.0\n3.0,4.0\n"
    empty = DenseMatrix(np.empty((0, 0)))
    assert format_matrix(empty) == b""
    assert format_matrix(DenseMatrix(np.empty((3, 0)))) == b""


def test_format_matrix_object_cells():
    m = DenseMatrix(np.array([["a", None], ["c", "d"]], dtype=object))
    assert format_matrix(m) == b"a,NA\nc,d\n"
    bad = DenseMatrix(np.array([["x,y"]], dtype=object))
    with pytest.raises(SeparatorCollision):
        format_matrix(bad)
    # a trailing CR is misread only at the end of a record
    m = DenseMatrix(np.array([["x\r", "y"]], dtype=object))
    assert format_matrix(m) == b"x\r,y\n"


_ELEMENTS = {
    ColumnType.LOGICAL: (st.booleans(), np.bool_),
    ColumnType.INTEGER: (st.integers(INT64_MIN, INT64_MAX), np.int64),
    # NaN is left out: "nan" does not keep the sign bit
    ColumnType.REAL: (st.floats(allow_nan=False), np.float64),
    ColumnType.COMPLEX: (st.complex_numbers(allow_nan=False), np.complex128),
    ColumnType.CHARACTER: (
        st.none() | st.text(st.sampled_from("xyNA \u00e9\r\n,e-")
                            | st.characters(exclude_categories=("Cs",)),
                            max_size=3),
        object,
    ),
}


@st.composite
def typed_matrices(draw):
    ctype = draw(st.sampled_from(list(_ELEMENTS)))
    element, dtype = _ELEMENTS[ctype]
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    values = np.empty((n_rows, n_cols), dtype=dtype)
    for i in range(n_rows):
        for j in range(n_cols):
            values[i, j] = draw(element)
    return ctype, values


def _bits(values):
    if values.dtype.kind in "fc":
        return values.view(np.uint64)
    return values


@settings(max_examples=400, deadline=None)
@given(typed_matrices(), st.sampled_from(list(b",|\te-.in1+aTF")))
def test_format_matrix_collides_or_roundtrips(typed, sep):
    ctype, values = typed
    sep = bytes([sep])
    try:
        text = format_matrix(DenseMatrix(values), sep)
    except SeparatorCollision:
        return
    back, failures = parse_matrix(text, ctype, field_sep=sep)
    assert failures == 0
    assert back.values.shape == values.shape
    assert np.array_equal(_bits(back.values), _bits(values))


def _repr_rows(values) -> bytes:
    """The per-cell spelling of a float matrix: ``repr`` of every cell."""
    return b"\n".join(
        b",".join(repr(float(x)).encode() for x in row) for row in values
    ) + b"\n"


_EDGE_REALS = [0.0, -0.0, 1.0, -1.0, 9.0, 10.0, 99.0, 100.0, 2.0**53,
               2.0**53 + 2, 1e16 - 2, 1e16, -1e15, 5e-324, float("nan"),
               float("inf"), float("-inf")]
_INTEGRAL = (st.integers(-1000, 1000) | st.integers(-10**16, 10**16)).map(float)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_format_matrix_spells_reals_as_repr(data):
    """Integral matrices take the digit spelling, others the per-cell one;
    both must write what ``repr`` writes, also when the rows are spelled a
    few at a time and the slices take different spellings."""
    cells = _INTEGRAL | st.sampled_from(_EDGE_REALS)
    if data.draw(st.booleans()):
        cells = cells | st.floats()
    n_rows, n_cols = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 6))
    values = np.array(data.draw(st.lists(
        st.lists(cells, min_size=n_cols, max_size=n_cols),
        min_size=n_rows, max_size=n_rows)), dtype=np.float64)
    spell_cells = data.draw(st.sampled_from([1, 7, rowstream.writer._SPELL_CELLS]))
    with mock.patch.object(rowstream.writer, "_SPELL_CELLS", spell_cells):
        assert format_matrix(DenseMatrix(values)) == _repr_rows(values)


@pytest.mark.parametrize("x", _EDGE_REALS)
def test_format_matrix_real_edges_match_repr(x):
    values = np.array([[x, 7.0], [-3.0, x]])
    assert format_matrix(DenseMatrix(values)) == _repr_rows(values)


@pytest.mark.parametrize("sep,cell", [(b"-", b"-3.0"), (b".", b"4.0"),
                                      (b"1", b"1.0")])
def test_format_matrix_non_text_separator_still_guarded(sep, cell):
    values = np.array([[4.0, 2.0], [-3.0, 1.0]])
    message = f"cell {cell!r} needs quoting but no quote byte is configured"
    with pytest.raises(SeparatorCollision, match=re.escape(message)):
        format_matrix(DenseMatrix(values), sep)


def test_format_matrix_uint64_beyond_int64_is_out_of_range():
    # such a cell would read back as 0 with one coercion failure
    for big in (2**63, 2**64 - 1):
        m = DenseMatrix(np.array([[1, big]], dtype=np.uint64))
        with pytest.raises(OutOfRange):
            format_matrix(m)
    values = np.array([[0, 1], [INT64_MAX, 2**32]], dtype=np.uint64)
    text = format_matrix(DenseMatrix(values))
    assert text == b"0,1\n9223372036854775807,4294967296\n"
    back, failures = parse_matrix(text, ColumnType.INTEGER)
    assert failures == 0
    assert back.values.tolist() == values.tolist()


def test_matrix_roundtrip_bit_exact():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(60, 4)) * 10.0 ** rng.integers(-30, 30, (60, 4))
    m = DenseMatrix(values)
    back, failures = parse_matrix(format_matrix(m), ColumnType.REAL)
    assert failures == 0
    assert np.array_equal(
        back.values.view(np.uint64), values.view(np.uint64)
    )


def test_append_concatenates(tmp_path):
    target = tmp_path / "out.mm"
    with open(target, "ab") as sink:
        sink.write(b"1\n")
        sink.write(b"2\n")
    assert target.read_bytes() == b"1\n2\n"


def test_sidecar_roundtrip(tmp_path):
    ckpt = tmp_path / "model.mm"
    write_sidecar(ckpt, ["(Intercept)", "y", "x"])
    assert sidecar_path(ckpt) == tmp_path / "model.mm.names"
    assert read_sidecar(ckpt) == ["(Intercept)", "y", "x"]
    with pytest.raises(SeparatorCollision):
        write_sidecar(ckpt, ["bad\nname"])
    # only LF ends a name: other line breaks are part of it
    odd = ["c=A,B\rC", "next\x85line", "para\u2028sep", "y"]
    write_sidecar(ckpt, odd)
    assert read_sidecar(ckpt) == odd


def test_header_cells_are_guarded():
    frame = Frame([int_column("a,b", [1])])
    with pytest.raises(SeparatorCollision):
        format_frame(frame, include_header=True)
    out = format_frame(frame, include_header=True, quote=b'"')
    assert out == b'"a,b"\n1\n'


@pytest.mark.parametrize("seed", range(8))
def test_random_frames_roundtrip(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        frame = random_frame(rng)
        back, report = roundtrip(frame)
        assert report.total_failures == 0
        assert frames_equal(frame, back)


@pytest.mark.parametrize("sep", [b"|", b"\t", b";"])
def test_roundtrip_with_other_separators(sep):
    rng = np.random.default_rng(99)
    for _ in range(10):
        frame = random_frame(rng)
        back, _ = roundtrip(frame, field_sep=sep)
        assert frames_equal(frame, back)


def test_reserialization_is_idempotent():
    rng = np.random.default_rng(42)
    frame = random_frame(rng, n_rows=30)
    first = format_frame(frame, quote=b'"')
    back, _ = roundtrip(frame)
    second = format_frame(back, quote=b'"')
    assert first == second


_DECIMALS = st.builds(lambda q, k: q / 10**k, st.integers(-10**12, 10**12),
                      st.integers(1, 7))
_REAL_EDGES = [0.0, -0.0, 1e-4, -1e-4, float(np.nextafter(1e-4, 0)), 1e16,
               float(np.nextafter(1e16, 0)), -1e16, 5e-324, -1e-310,
               2.2250738585072014e-308, 2.0**50 / 10, 2.0**53 / 1e6, 0.1, 0.125,
               float("nan"), float("inf"), float("-inf")]
_TEXT = ["", "NA", "NA ", "x", "e", "T", "-", ",", "|", '"', "'", "\r", "x\r",
         "a\rb", "\x00", "a\x00b", "caf\u00e9", "\u771f\u590f", "\udc80",
         "\udcff\udc80", "1.5", "\n", "y" * 80]
_CELLS = {
    ColumnType.LOGICAL: st.booleans(),
    ColumnType.INTEGER: st.integers(INT64_MIN, INT64_MAX)
    | st.sampled_from([INT64_MIN, INT64_MAX, 0, -1]),
    ColumnType.COMPLEX: st.complex_numbers(),
    ColumnType.CHARACTER: st.sampled_from(_TEXT)
    | st.text(st.characters(exclude_categories=("Cs",)), max_size=3),
    ColumnType.BYTES: st.sampled_from([t.encode("utf-8", "surrogateescape")
                                       for t in _TEXT]) | st.binary(max_size=3),
}
# a column of short decimals takes the digit spelling, any other repr
_REAL_COLUMNS = [_DECIMALS | st.integers(-10**15, 10**15).map(float),
                 _DECIMALS | st.floats() | st.sampled_from(_REAL_EDGES)]
_DTYPES = {ColumnType.LOGICAL: np.bool_, ColumnType.INTEGER: np.int64,
           ColumnType.REAL: np.float64, ColumnType.TIMESTAMP: np.float64,
           ColumnType.COMPLEX: np.complex128}


@st.composite
def _frames(draw):
    n_rows = draw(st.integers(0, 6))
    columns = []
    for ctype in draw(st.lists(st.sampled_from(FRAME_TYPES), min_size=1, max_size=4)):
        if ctype in (ColumnType.REAL, ColumnType.TIMESTAMP):
            cell = draw(st.sampled_from(_REAL_COLUMNS))
        else:
            cell = _CELLS[ctype]
        values = draw(st.lists(cell, min_size=n_rows, max_size=n_rows))
        mask = np.array(draw(st.lists(st.booleans(), min_size=n_rows,
                                      max_size=n_rows)), dtype=bool)
        if ctype in _DTYPES:
            values = np.array(values, dtype=_DTYPES[ctype])
        else:
            values = [None if m else v for v, m in zip(values, mask.tolist())]
        name = draw(st.sampled_from(["v", "a,b", "", "NA", "caf\u00e9", "e", "T\r"]))
        columns.append(Column(name, ctype, values, mask))
    return Frame(columns)


@settings(max_examples=600, deadline=None)
@given(_frames(), st.sampled_from([b",", b"e", b"T", b"-", b".", b"N", b"\t"]),
       st.sampled_from([None, b'"', b"-", b"'"]), st.booleans())
def test_format_frame_matches_naive_writer(frame, sep, quote, header):
    """The columnar writer writes what the per-cell oracle writes, or raises
    the same exception type."""
    if quote == sep:
        quote = None
    try:
        want = naive_format_frame(frame, sep, header, quote)
    except SeparatorCollision:
        with pytest.raises(SeparatorCollision):
            format_frame(frame, sep, header, quote)
        return
    assert format_frame(frame, sep, header, quote) == want


def test_quote_byte_inside_a_number_is_quoted():
    # a quote byte that numbers spell, such as "-", must be guarded too
    frame = Frame([int_column("a", [-5, 3]),
                   Column("b", ColumnType.REAL, np.array([-0.5, 2.0]),
                          np.zeros(2, dtype=bool))])
    out = format_frame(frame, quote=b"-")
    assert out == b"---5-,---0.5-\n3,2.0\n"
    back, _ = roundtrip(frame, quote=b"-")
    assert frames_equal(back, Frame([int_column("V1", [-5, 3]), Column(
        "V2", ColumnType.REAL, np.array([-0.5, 2.0]), np.zeros(2, dtype=bool))]))


def test_one_long_text_cell_does_not_widen_every_row():
    """A text column is spelled as a block of one row per cell; one long
    cell among short ones is spliced in on its own rather than setting the
    block's width.  The block and its keep mask are each at most four times
    the column's bytes, and laying out copies both once, so the peak is
    about 17 times the output here; a 500 x 40,001 block would take 20 MB,
    460 times the output, before its mask and copies."""
    cells = ["ab"] * 500
    cells[7] = "x" * 40_000
    frame = Frame([int_column("i", np.arange(500)), char_column("v", cells)])
    tracemalloc.start()
    try:
        out = format_frame(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == naive_format_frame(frame)
    assert peak < 20 * len(out), (peak, len(out))
