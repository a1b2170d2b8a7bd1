import numpy as np
import pytest

from rowstream import (
    ColumnType,
    RaggedInput,
    Schema,
    SchemaError,
    parse_frame,
    parse_matrix,
)

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
