import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowstream import (
    ColumnType,
    Frame,
    HeaderArityMismatch,
    RaggedInput,
    Schema,
    SchemaError,
    StrictViolation,
    concat_frames,
    frames_equal,
    infer_schema,
    parse_frame,
    parse_frame_with_header,
    split_quoted,
    tokenize,
)
from rowstream._coerce import convert_column, parse_field_ex
from rowstream.frame import _SAMPLE_RECORDS

from oracle import _naive_split_fields, naive_parse_frame

L = ColumnType.LOGICAL
I = ColumnType.INTEGER
R = ColumnType.REAL
C = ColumnType.CHARACTER
B = ColumnType.BYTES
X = ColumnType.COMPLEX
T = ColumnType.TIMESTAMP
S = ColumnType.SKIP


def test_basic_two_columns():
    frame, report = parse_frame(b"1,a\n2,b\n", Schema((I, C)))
    assert frame.names == ["V1", "V2"]
    assert frame.column("V1").values.tolist() == [1, 2]
    assert frame.column("V2").values == ["a", "b"]
    assert not frame.column("V1").mask.any()
    assert report.n_records == 2
    assert report.total_failures == 0


def test_empty_field_is_null():
    frame, report = parse_frame(b"TRUE,,1.5\n", Schema((L, I, R)))
    assert frame.column("V1").values.tolist() == [True]
    assert frame.column("V2").mask.tolist() == [True]
    assert frame.column("V3").values.tolist() == [1.5]
    assert report.total_failures == 0  # nulls are not failures


def test_na_token_is_null():
    frame, report = parse_frame(b"3,x\nNA,y\n", Schema((I, C)))
    assert frame.column("V1").values[0] == 3
    assert frame.column("V1").mask.tolist() == [False, True]
    assert frame.column("V2").values == ["x", "y"]
    assert report.total_failures == 0


def test_coercion_failure_counts_and_masks():
    frame, report = parse_frame(b"7\nzap\n8\n", Schema((I,)))
    col = frame.column("V1")
    assert col.mask.tolist() == [False, True, False]
    assert col.values[[0, 2]].tolist() == [7, 8]
    assert report.column_failures == {"V1": 1}


def test_skip_column_produces_no_output():
    frame, _ = parse_frame(b"1,drop,2\n", Schema((I, S, I)))
    assert frame.names == ["V1", "V2"]
    assert [c.values[0] for c in frame.columns] == [1, 2]


def test_all_eight_types_parse():
    data = b"TRUE,42,2.5,word,raw,1+2i,2008-01-03 11:30:00,skipme\n"
    schema = Schema((L, I, R, C, B, X, T, S))
    frame, report = parse_frame(data, schema)
    assert report.total_failures == 0
    v = [c.values[0] for c in frame.columns]
    assert v[0] == np.True_
    assert v[1] == 42
    assert v[2] == 2.5
    assert v[3] == "word"
    assert v[4] == b"raw"
    assert v[5] == complex(1, 2)
    assert v[6] == 1199359800.0  # calendar oracle, UTC


def test_logical_literals_exact():
    frame, report = parse_frame(b"TRUE\nT\nFALSE\nF\ntrue\n", Schema((L,)))
    col = frame.column("V1")
    assert col.values.tolist() == [True, True, False, False, False]
    assert col.mask.tolist() == [False] * 4 + [True]
    assert report.column_failures["V1"] == 1


def test_integer_overflow_is_null_plus_count():
    big = b"%d\n" % (2**63)
    ok = b"%d\n%d\n" % (2**63 - 1, -(2**63))
    frame, report = parse_frame(ok + big, Schema((I,)))
    col = frame.column("V1")
    assert col.values[:2].tolist() == [2**63 - 1, -(2**63)]
    assert col.mask.tolist() == [False, False, True]
    assert report.column_failures["V1"] == 1


def test_real_nonfinite_literals_are_values_not_nulls():
    frame, report = parse_frame(b"NaN\nInf\n-Inf\n1e3\n.5\n", Schema((R,)))
    col = frame.column("V1")
    assert np.isnan(col.values[0]) and not col.mask[0]
    assert col.values[1] == np.inf
    assert col.values[2] == -np.inf
    assert col.values[3:].tolist() == [1000.0, 0.5]
    assert report.total_failures == 0


@pytest.mark.parametrize(
    "token,expected",
    [
        (b"3+4i", complex(3, 4)),
        (b"1.5-2i", complex(1.5, -2)),
        (b"2.5", complex(2.5, 0)),
        (b"5i", complex(0, 5)),
        (b"-1e-5+2e3i", complex(-1e-5, 2e3)),
        (b"inf+nani", complex(np.inf, np.nan)),
    ],
)
def test_complex_grammar(token, expected):
    value, failed = parse_field_ex(token, X)
    assert not failed
    if np.isnan(expected.imag):
        assert value.real == expected.real and np.isnan(value.imag)
    else:
        assert value == expected


def test_complex_malformed_is_null():
    frame, report = parse_frame(b"1+2j\nxi\n++i\n", Schema((X,)))
    assert frame.column("V1").mask.all()
    assert report.column_failures["V1"] == 3


def test_timestamp_numeric_passthrough_and_calendar():
    frame, report = parse_frame(
        b"1500000000.25\n2008-01-03 11:30:00\n2008-13-03 11:30:00\n",
        Schema((T,)),
    )
    col = frame.column("V1")
    assert col.values[0] == 1500000000.25
    assert col.values[1] == 1199359800.0
    assert col.mask.tolist() == [False, False, True]
    assert report.column_failures["V1"] == 1


def test_character_invalid_utf8_survives():
    frame, _ = parse_frame(b"\xff\xfe\n", Schema((C,)))
    value = frame.column("V1").values[0]
    assert value.encode("utf-8", "surrogateescape") == b"\xff\xfe"


def test_bytes_keep_nul_bytes():
    frame, _ = parse_frame(b"a\x00b,9\n", Schema((B, I)))
    assert frame.column("V1").values == [b"a\x00b"]
    assert frame.column("V2").values.tolist() == [9]


def test_short_rows_null_pad_long_rows_truncate():
    frame, report = parse_frame(b"1,2,3\n4\n5,6,7,8\n", Schema((I, I, I)))
    assert frame.column("V1").values.tolist() == [1, 4, 5]
    assert frame.column("V2").mask.tolist() == [False, True, False]
    assert frame.column("V3").mask.tolist() == [False, True, False]
    assert report.short_rows == 1
    assert report.long_rows == 1


def test_empty_chunk_gives_empty_frame():
    frame, report = parse_frame(b"", Schema((I, C)))
    assert frame.n_rows == 0
    assert frame.n_cols == 2
    assert report.n_records == 0


def test_schema_with_no_columns_rejected():
    with pytest.raises(SchemaError):
        Schema(())


def test_header_names():
    frame, _ = parse_frame_with_header(b"x,y\n1,2\n", Schema((I, I)))
    assert frame.names == ["x", "y"]
    assert frame.column("x").values.tolist() == [1]


def test_header_skip_column_name_dropped():
    frame, _ = parse_frame_with_header(b"a,b,c\n1,2,3\n", Schema((I, S, I)))
    assert frame.names == ["a", "c"]


def test_header_quoted_name():
    schema = Schema((I, I), quote=b'"')
    frame, _ = parse_frame_with_header(b'"a,b",c\n1,2\n', schema)
    assert frame.names == ["a,b", "c"]


def test_header_arity_mismatch():
    with pytest.raises(HeaderArityMismatch):
        parse_frame_with_header(b"x,y,z\n1,2\n", Schema((I, I)))


def test_crlf_records():
    frame, _ = parse_frame(b"1,a\r\n2,b\r\n", Schema((I, C)))
    assert frame.column("V2").values == ["a", "b"]


def test_tokenize_only_strips_final_cr():
    assert tokenize(b"a\r\nb\r\n")[0] == [[b"a"], [b"b"]]
    assert tokenize(b"a\rx\n")[0] == [[b"a\rx"]]
    assert tokenize(b"tail")[0] == [[b"tail"]]


def test_quoted_fields():
    schema = Schema((C, I), quote=b'"')
    frame, _ = parse_frame(b'"x,y",2\n', schema)
    assert frame.column("V1").values == ["x,y"]
    assert frame.column("V2").values.tolist() == [2]


def test_doubled_quote_embeds_quote():
    schema = Schema((C,), quote=b'"')
    frame, _ = parse_frame(b'"say ""hi"""\n', schema)
    assert frame.column("V1").values == ['say "hi"']


def test_quoted_na_is_literal_not_null():
    schema = Schema((C, C), quote=b'"')
    frame, _ = parse_frame(b'"NA",""\n', schema)
    col1, col2 = frame.columns
    assert col1.values == ["NA"] and not col1.mask[0]
    assert col2.values == [""] and not col2.mask[0]


def test_strict_mode_raises():
    with pytest.raises(StrictViolation):
        parse_frame(b"nope\n", Schema((I,)), strict=True)
    with pytest.raises(StrictViolation):
        parse_frame(b"1,2\n3\n", Schema((I, I)), strict=True)
    frame, _ = parse_frame(b"1\nNA\n", Schema((I,)), strict=True)  # nulls fine
    assert frame.n_rows == 2


def test_infer_schema_examples():
    assert infer_schema(b"1,2.5,abc\n3,4,def\n").types == (I, R, C)
    assert infer_schema(b"TRUE\nFALSE\n").types == (L,)
    # widening: logical tokens plus an integer make the column integer-ish?
    # no -- T/F are not integers, so the column falls through to character
    assert infer_schema(b"TRUE\n2\n").types == (C,)
    assert infer_schema(b"1\n2.5\n").types == (R,)
    assert infer_schema(b"NA\n\n", field_sep=b",").types == (C,)  # all null


def test_infer_schema_ragged_sample():
    with pytest.raises(RaggedInput):
        infer_schema(b"1,2\n3\n")


def test_infer_schema_empty_sample():
    with pytest.raises(SchemaError):
        infer_schema(b"")


def test_infer_schema_caps_sample_size():
    n = _SAMPLE_RECORDS
    assert infer_schema(b"1\n" * n + b"oops\n").types == (I,)
    assert infer_schema(b"1\n" * (n - 1) + b"oops\n").types == (C,)


def test_concat_matches_single_parse():
    data = b"".join(b"%d,%.1f\n" % (i, i / 2) for i in range(100))
    schema = Schema((I, R))
    whole, _ = parse_frame(data, schema)
    pieces = [data[:200], data[200:503], data[503:]]
    # realign piece boundaries to record boundaries for the test
    realigned = []
    rest = data
    for size in (200, 500):
        cut = rest.find(b"\n", size) + 1
        realigned.append(rest[:cut])
        rest = rest[cut:]
    realigned.append(rest)
    parts = [parse_frame(p, schema)[0] for p in realigned]
    assert frames_equal(concat_frames(parts), whole)


def test_concat_rejects_mismatched_columns():
    a, _ = parse_frame(b"1\n", Schema((I,)))
    b_, _ = parse_frame(b"x\n", Schema((C,)))
    with pytest.raises(SchemaError):
        concat_frames([a, b_])


ADVERSARIAL_NUMERIC = [
    b"1_0", b" 12 ", b"+5", b"0x10", b"1e", b"1e+", b"e5", b"infinity",
    b"Infinity", b"1.0.0", b"--1", b"1 2", b"0b101", b"12.", b".", b"-",
    b"1,000", b"\xc2\xbd", b"1\t", b"nan(payload)", b"0o17", b"J",
]


@pytest.mark.parametrize("ctype", [L, I, R, X, T])
def test_bulk_and_scalar_paths_agree(ctype):
    """The vectorized converters must accept exactly the scalar grammar."""
    fields = ADVERSARIAL_NUMERIC + [
        b"1", b"2.5", b"-3", b"NA", b"", b"TRUE", b"F", b"1e300", b"5e-324",
        b"9223372036854775807", b"-9223372036854775808", b"9223372036854775808",
    ]
    fast = convert_column(list(fields), ctype, bulk=True)
    slow = convert_column(list(fields), ctype, bulk=False)
    assert fast[1].tolist() == slow[1].tolist()  # masks
    assert fast[2] == slow[2]  # failure count
    fv, sv = fast[0], slow[0]
    keep = ~fast[1]
    if fv.dtype.kind == "f":
        assert np.array_equal(
            fv[keep].view(np.uint64), sv[keep].view(np.uint64)
        )
    elif fv.dtype.kind == "c":
        assert np.array_equal(
            fv[keep].view(np.uint64), sv[keep].view(np.uint64)
        )
    else:
        assert fv[keep].tolist() == sv[keep].tolist()


def test_whole_frame_matches_naive_reference():
    rows = []
    for i in range(200):
        rows.append(b"%d,%r,w%d,%s" % (i, i / 7.0, i, b"TRUE" if i % 2 else b"F"))
        if i % 9 == 0:
            rows.append(b"NA,,x,")
        if i % 31 == 0:
            rows.append(b"bad,worse,ok,TRUE,extra")
    data = b"\n".join(rows) + b"\n"
    schema = Schema((I, R, C, L))
    bulk_frame, bulk_report = parse_frame(data, schema)
    ref_frame, ref_report = naive_parse_frame(data, schema)
    assert frames_equal(bulk_frame, ref_frame)
    assert bulk_report == ref_report


@settings(max_examples=300, deadline=None)
@given(
    record=st.binary(max_size=60).map(lambda b: b.replace(b"\n", b";")),
    sep=st.sampled_from([b",", b"|", b"\t"]),
)
def test_split_quoted_matches_naive_state_machine(record, sep):
    fields, flags = split_quoted(record, sep, b'"')
    ref_fields, ref_flags = _naive_split_fields(record, sep[0], ord('"'))
    assert fields == ref_fields
    assert flags == ref_flags


@settings(max_examples=100, deadline=None)
@given(
    tokens=st.lists(
        st.sampled_from([b"1", b"2.5", b"NA", b"", b"x", b"TRUE", b"-7"]),
        min_size=1,
        max_size=6,
    ),
    ctype=st.sampled_from([L, I, R, C]),
)
def test_parse_is_deterministic(tokens, ctype):
    data = b"\n".join(tokens) + b"\n"
    schema = Schema((ctype,))
    first, r1 = parse_frame(data, schema)
    second, r2 = parse_frame(data, schema)
    assert frames_equal(first, second)
    assert r1 == r2


@pytest.mark.parametrize(
    "ctype,cell,expected",
    [
        (I, b"1_000", 1000), (I, b" 12 ", 12), (I, b"+7", 7),
        (I, b"1e3", None), (I, b"12.0", None),
        (I, b"9223372036854775808", None),
        (R, b"1_0.5", 10.5), (R, b"infinity", np.inf), (R, b"-Inf", -np.inf),
        (R, b"1e400", np.inf),
        (L, b"T", True), (L, b"TRUE", True), (L, b"F", False),
        (L, b"FALSE", False), (L, b"true", None), (L, b"1", None),
    ],
)
def test_readme_cell_grammar_on_both_paths(ctype, cell, expected):
    # README "Cell grammar": the bulk cast and the per-cell path agree
    frame, report = parse_frame(cell + b"\n", Schema((ctype,)))
    column = frame.column("V1")
    bulk = None if column.mask[0] else column.values[0]
    scalar, failed = parse_field_ex(cell, ctype)
    assert bulk == scalar == expected
    assert failed == (expected is None) == (report.total_failures == 1)


def test_readme_cell_grammar_nan_and_nulls():
    frame, _ = parse_frame(b"NaN\n", Schema((R,)))
    assert np.isnan(frame.column("V1").values[0])
    assert np.isnan(parse_field_ex(b"NaN", R)[0])
    frame, report = parse_frame(b'NA,"NA"\n,""\n', Schema((C, C), quote=b'"'))
    assert frame.column("V1").mask.tolist() == [True, True]
    assert frame.column("V2").values == ["NA", ""]
    assert report.total_failures == 0
