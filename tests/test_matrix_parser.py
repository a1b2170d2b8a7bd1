import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rowstream.frame
import rowstream.matrix
from rowstream import (
    ColumnType,
    DenseMatrix,
    RaggedInput,
    Schema,
    SchemaError,
    format_matrix,
    parse_frame,
    parse_matrix,
)

from oracle import naive_parse_matrix

REAL = ColumnType.REAL


def test_two_by_two():
    m, failures = parse_matrix(b"1,2\n3,4\n", REAL)
    assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert m.values.dtype == np.float64
    assert failures == 0
    assert m.n_rows == 2 and m.n_cols == 2


def test_ragged_is_an_error():
    with pytest.raises(RaggedInput):
        parse_matrix(b"1,2\n3\n", REAL)


def test_empty_chunk_gives_0x0():
    m, failures = parse_matrix(b"", REAL)
    assert m.values.shape == (0, 0)
    assert failures == 0
    dtypes = {ColumnType.LOGICAL: np.bool_, ColumnType.INTEGER: np.int64,
              ColumnType.REAL: np.float64, ColumnType.CHARACTER: object,
              ColumnType.COMPLEX: np.complex128}
    for elem_type, dtype in dtypes.items():
        m, _ = parse_matrix(b"", elem_type)
        assert m.values.shape == (0, 0) and m.values.dtype == dtype


def test_bad_cell_is_nan_plus_count():
    m, failures = parse_matrix(b"1,x\nNA,4\n", REAL)
    assert np.isnan(m.values[0, 1])
    assert np.isnan(m.values[1, 0])
    assert failures == 1  # NA is a null, not a failure


def test_integer_logical_complex_character():
    m, _ = parse_matrix(b"1,2\n3,4\n", ColumnType.INTEGER)
    assert m.values.dtype == np.int64
    m, _ = parse_matrix(b"TRUE,F\n", ColumnType.LOGICAL)
    assert m.values.tolist() == [[True, False]]
    m, _ = parse_matrix(b"1+2i\n", ColumnType.COMPLEX)
    assert m.values[0, 0] == complex(1, 2)
    m, _ = parse_matrix(b"a,b\n", ColumnType.CHARACTER)
    assert m.values.tolist() == [["a", "b"]]
    assert m.values.dtype == object


def test_unsupported_element_types():
    for bad in (ColumnType.BYTES, ColumnType.TIMESTAMP, ColumnType.SKIP):
        with pytest.raises(SchemaError):
            parse_matrix(b"1\n", bad)


def test_nul_byte_forces_slow_path_same_result():
    m, failures = parse_matrix(b"1,2\n3,4\n\x001,6\n", REAL)
    assert failures == 1  # "\x001" is not a number
    assert np.isnan(m.values[2, 0])
    assert m.values[2, 1] == 6.0


def test_agreement_with_frame_path():
    rng = np.random.default_rng(11)
    values = rng.normal(size=(40, 3))
    data = b"".join(
        (",".join(repr(float(x)) for x in row) + "\n").encode() for row in values
    )
    m, _ = parse_matrix(data, REAL)
    schema = Schema((REAL, REAL, REAL))
    frame, _ = parse_frame(data, schema)
    stacked = np.column_stack([c.values for c in frame.columns])
    assert np.array_equal(m.values, stacked)
    assert np.array_equal(m.values, values)  # repr round-trips exactly


def test_chunked_concat_equals_single_parse():
    rng = np.random.default_rng(5)
    rows = [b"%r,%r\n" % (rng.normal(), rng.normal()) for _ in range(100)]
    data = b"".join(rows)
    whole, _ = parse_matrix(data, REAL)
    pieces = [b"".join(rows[:33]), b"".join(rows[33:71]), b"".join(rows[71:])]
    parts = [parse_matrix(p, REAL)[0].values for p in pieces]
    assert np.array_equal(np.vstack(parts), whole.values)


def test_64k_field():
    long_real = b"0" * 65535 + b"5"
    m, failures = parse_matrix(b"1,2\n3," + long_real + b"\n5,6\n", REAL)
    assert failures == 0
    assert m.values.tolist() == [[1.0, 2.0], [3.0, 5.0], [5.0, 6.0]]
    text = b"x" * 65536
    m, _ = parse_matrix(b"a,b\n" + text + b",c\n", ColumnType.CHARACTER)
    assert m.values.tolist() == [["a", "b"], ["x" * 65536, "c"]]


def test_unterminated_last_record():
    m, failures = parse_matrix(b"1,2\n3,4", REAL)
    assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]] and failures == 0


@pytest.mark.parametrize("odd,n", [(b"5", 1), (b"5,6,7", 3)])
def test_one_ragged_record_is_named(odd, n):
    with pytest.raises(RaggedInput, match=f"record 2 has {n} fields, "
                                          "record 0 has 2"):
        parse_matrix(b"1,2\n3,4\n" + odd + b"\n", REAL)


_MATRIX_CELLS = [b"1", b"-2.5", b"NA", b"", b"x", b"TRUE", b"F", b"1e3",
                 b"9223372036854775808", b"\r", b"\x00", b"caf\xc3\xa9"]
_served = Counter()


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.lists(st.sampled_from(_MATRIX_CELLS), min_size=1,
                           max_size=4), min_size=1, max_size=8),
    uniform=st.booleans(),
    crlf=st.booleans(),
    final_newline=st.booleans(),
    sep=st.sampled_from([b",", b"\r"]),
    elem_type=st.sampled_from([REAL, ColumnType.INTEGER, ColumnType.LOGICAL,
                               ColumnType.CHARACTER]),
)
def _check_matrix_against_reference(rows, uniform, crlf, final_newline, sep,
                                    elem_type):
    if uniform:
        rows = [(row * 4)[:len(rows[0])] for row in rows]
    eol = b"\r\n" if crlf else b"\n"
    chunk = eol.join(sep.join(row) for row in rows)
    if final_newline:
        chunk += eol
    outcomes = []
    for parse in (parse_matrix, naive_parse_matrix):
        try:
            values, failures = parse(chunk, elem_type, sep)
            values = getattr(values, "values", values)
            outcomes.append((values.shape, values.tolist() if
                             elem_type is ColumnType.CHARACTER else
                             values.tobytes(), failures))
        except RaggedInput as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    _served["crlf"] += b"\r\n" in chunk and b"\x00" not in chunk
    _served["ragged"] += isinstance(outcomes[0], str)


@pytest.mark.parametrize("scan_bytes", [1, 2, 7, 1 << 15])
def test_parse_matrix_matches_naive_reference(monkeypatch, scan_bytes):
    """Blocks of 1, 2 and 7 bytes end at almost every record, so records
    and CRLF pairs run past a block's first bytes and a chunk takes many
    blocks; the scan serves the NUL-free chunks, CRLF and ragged ones too."""
    blocks = rowstream.matrix._record_blocks

    def counted(chunk):
        spans = list(blocks(chunk))
        _served["crlf, blocks>1"] += len(spans) > 1 and b"\r\n" in chunk
        return spans

    monkeypatch.setattr(rowstream.frame, "_SCAN_BYTES", scan_bytes)
    monkeypatch.setattr(rowstream.matrix, "_record_blocks", counted)
    _served.clear()
    _check_matrix_against_reference()
    assert _served["crlf"] and _served["ragged"], _served
    assert bool(_served["crlf, blocks>1"]) == (scan_bytes < 8), _served


def _checkpoint_chunk(n_rows=10_000, n_cols=10):
    """Text as ``mm`` writes it: integral and one-decimal reals."""
    rng = np.random.default_rng(3)
    values = rng.integers(-300, 1500, (n_rows, n_cols)) / 10 ** (
        rng.random((n_rows, n_cols)) < 0.3)
    return format_matrix(DenseMatrix(values))


def test_parse_matrix_holds_a_few_chunk_bytes():
    # the float64 result takes 1.8 bytes per chunk byte here; the scan's,
    # the gather's and the cast's arrays each cover one block
    chunk = _checkpoint_chunk()
    tracemalloc.start()
    try:
        matrix, failures = parse_matrix(chunk, REAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.values.shape == (10_000, 10) and failures == 0
    assert peak < 4 * len(chunk), peak / len(chunk)


def test_int64_offsets_read_the_same(monkeypatch):
    chunk = _checkpoint_chunk(300)
    expected, _ = parse_matrix(chunk, REAL)
    monkeypatch.setattr(rowstream.frame, "_INT32_LIMIT", 64)
    assert rowstream.frame._field_offsets(chunk, None, b",")[0].dtype == np.int64
    got, _ = parse_matrix(chunk, REAL)
    assert got.values.tobytes() == expected.values.tobytes()
