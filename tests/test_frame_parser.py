import tracemalloc
from collections import Counter

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
    frames_equal,
    infer_schema,
    parse_frame,
    parse_frame_with_header,
    parse_matrix,
)
import rowstream._coerce
import rowstream.frame
from rowstream._coerce import convert_column
from rowstream.frame import _SAMPLE_RECORDS, _field_offsets, _gather

from oracle import (_DTYPE, _FILL, _naive_split_fields, airline_csv,
                    concat_frames, naive_infer_schema, naive_parse_frame,
                    naive_parse_matrix, parse_field_ex, synthetic_csv)

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
    for data, quote, message in [
        (b"x,y,z\n1,2\n", None, "header has 3 fields, schema has 2"),
        (b'"x,y"\n1,2\n', b'"', "header has 1 fields, schema has 2"),
        (b"", b'"', "no header record in an empty chunk"),
    ]:
        with pytest.raises(HeaderArityMismatch) as caught:
            parse_frame_with_header(data, Schema((I, I), quote=quote))
        assert str(caught.value) == message


@pytest.mark.parametrize("data,schema,names", [
    # a quoted separator and a doubled quote
    (b'"a,""b""",c\n1,2\n', Schema((I, I), quote=b'"'), ['a,"b"', "c"]),
    # NULs inside a name and at its end
    (b"a\x00b,\x00\n1,2\n", Schema((I, I)), ["a\x00b", "\x00"]),
    (b"'x\x00,y',z\r\n1,2\n", Schema((I, I), quote=b"'"), ["x\x00,y", "z"]),
])
def test_header_names_come_from_the_scan(data, schema, names):
    frame, _ = parse_frame_with_header(data, schema)
    assert frame.names == names
    assert frame.columns[0].values.tolist() == [1]


def test_crlf_records():
    frame, _ = parse_frame(b"1,a\r\n2,b\r\n", Schema((I, C)))
    assert frame.column("V2").values == ["a", "b"]


def test_scan_only_strips_final_cr():
    for data, values in [(b"a\r\nb\r\n", ["a", "b"]), (b"a\rx\n", ["a\rx"]),
                         (b"tail", ["tail"])]:
        frame, _ = _scan_agrees(data, Schema((C,)))
        assert frame.columns[0].values == values


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


# cells on either side of each candidate type's grammar
_INFER_CELLS = [b"1", b"-2", b" 3", b"+4", b"1_0", b"007", b"1e3", b"2.5",
                b"-0.0", b"nan", b"inf", b"-Infinity", b"0x1", b"TRUE", b"T",
                b"F", b"FALSE", b"true", b"NA", b"", b"NA ", b"x",
                b"9223372036854775807", b"9223372036854775808",
                b"-9223372036854775808", b"-9223372036854775809", b"\x00",
                b"1\x00", b"\r", b"0" * 300 + b"5", b"caf\xc3\xa9", b"\xff"]


@settings(max_examples=400, deadline=None)
@given(
    columns=st.lists(st.lists(st.sampled_from(_INFER_CELLS), min_size=1,
                              max_size=6), min_size=1, max_size=4),
    n_rows=st.integers(1, 9),
    ragged=st.booleans(),
    crlf=st.booleans(),
    final_newline=st.booleans(),
    sep=st.sampled_from([b",", b"\t", b"\r"]),
    limit=st.integers(1, 10),
)
def test_infer_schema_matches_the_per_field_rule(
        columns, n_rows, ragged, crlf, final_newline, sep, limit):
    """One cast per column and candidate type gives the type the per-field
    rule gives, or the same exception, whether the cells come as an ``S``
    array or as a list (a NUL makes the scan slice a list, and so does a
    301-byte cell), with ragged and CRLF samples and a sample longer than
    the limit."""
    rows = [[col[i % len(col)] for col in columns] for i in range(n_rows)]
    if ragged:
        rows[-1] = rows[-1][:-1] or rows[-1] * 2
    eol = b"\r\n" if crlf else b"\n"
    sample = eol.join(sep.join(row) for row in rows)
    if final_newline:
        sample += eol
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rowstream.frame, "_SAMPLE_RECORDS", limit)
        outcomes = []
        for infer in (infer_schema, naive_infer_schema):
            try:
                outcomes.append(infer(sample, sep).types)
            except (RaggedInput, SchemaError) as exc:
                outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


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


def _read_cells(cells, ctype):
    """``(values, mask, failures)`` of a column read cell by cell with
    ``parse_field_ex``."""
    read = [parse_field_ex(c, ctype) for c in cells]
    mask = np.array([value is None for value, _ in read], np.bool_)
    values = np.array([_FILL[ctype] if value is None else value
                       for value, _ in read], _DTYPE[ctype])
    return values, mask, sum(failed for _, failed in read)


@pytest.mark.parametrize("ctype", [L, I, R, X, T])
def test_bulk_and_scalar_paths_agree(ctype):
    """The vectorized converters must accept exactly the reference's
    grammar."""
    fields = ADVERSARIAL_NUMERIC + [
        b"1", b"2.5", b"-3", b"NA", b"", b"TRUE", b"F", b"1e300", b"5e-324",
        b"9223372036854775807", b"-9223372036854775808", b"9223372036854775808",
    ]
    fast = convert_column(np.array(fields, "S"), ctype)
    slow = _read_cells(fields, ctype)
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


_GOOD_CELLS = {
    I: [b"0", b"-7", b"123", b"9223372036854775807", b"-9223372036854775808"],
    R: [b"0.5", b"-1e300", b"5e-324", b"inf", b"-0.0", b"12"],
    T: [b"0.5", b"1700000000", b"-3.25", b"1e10"],
}
_BAD_CELLS = {
    I: [b"x", b"1.5", b"1e3", b"9223372036854775808",
        b"-9223372036854775809"],
    R: [b"x", b"1e", b"--1", b"12..", b"2020-01-02 03:04:05"],
    # calendar cells fail the cast but not the scalar read
    T: [b"x", b"2020-01-02 03:04:05", b"1970-01-01 00:00:00",
        b"2020-13-01 00:00:00", b"9223372036854775808"],
}


@st.composite
def _column_with_bad_cells(draw):
    ctype = draw(st.sampled_from([I, R, T]))
    n = draw(st.sampled_from([1, 2, 63, 64, 65]) | st.integers(1, 300))
    good = st.sampled_from(_GOOD_CELLS[ctype] + [b"", b"NA"])
    bad = st.sampled_from(_BAD_CELLS[ctype])
    cells = draw(st.lists(good, min_size=n, max_size=n))
    where = draw(st.sampled_from(["first", "last", "adjacent", "all", "some"]))
    if where == "all":
        spots = range(n)
    elif where == "some":
        spots = draw(st.sets(st.integers(0, n - 1), max_size=8))
    else:
        i = (0 if where == "first" else n - 1 if where == "last"
             else draw(st.integers(0, n - 1)))
        spots = [i, min(i + 1, n - 1)]
        if i > 0:
            cells[i - 1] = draw(st.sampled_from([b"", b"NA"]))
    for i in spots:
        cells[i] = draw(bad)
    return ctype, cells


@settings(max_examples=400, deadline=None)
@given(_column_with_bad_cells())
def test_bad_cell_search_matches_the_whole_column_reread(drawn):
    """The bulk cast's search for bad cells gives what reading the whole
    column cell by cell with the reference gives: bit-identical values,
    equal masks and failure counts."""
    ctype, cells = drawn
    data = b"\n".join(cells) + b"\n"
    starts, ends, *_ = _field_offsets(data, 1, b",")
    fields, _, wide = _gather(data, starts[:, 0], ends[:, 0])
    values, mask, failures = convert_column(fields, ctype, wide=wide)
    ref_values, ref_mask, ref_failures = _read_cells(cells, ctype)
    assert failures == ref_failures
    assert mask.tolist() == ref_mask.tolist()
    assert values.dtype == ref_values.dtype
    assert values.tobytes() == ref_values.tobytes()


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


@pytest.mark.parametrize("n_records", [3, 200])
def test_offset_path_takes_a_64k_field(n_records):
    """Three records gather the long field as an array; with 200 the array
    would dwarf the chunk, and the fields come back as a list."""
    cells = [b"0" * 65535 + b"5", b"\xc3\xa9" * 32768]
    data = b"".join(
        b"%d,%s,%s\n" % (i, *(cells if i == 1 else [b"%d.5" % i, b"w%d" % i]))
        for i in range(n_records)
    )
    schema = Schema((I, R, C))
    frame, report = parse_frame(data, schema)
    ref_frame, ref_report = naive_parse_frame(data, schema)
    assert frames_equal(frame, ref_frame) and report == ref_report
    assert frame.columns[1].values[1] == 5.0
    assert frame.columns[2].values[1] == "\u00e9" * 32768
    assert infer_schema(data) == naive_infer_schema(data)


def test_offset_path_takes_an_unterminated_last_record():
    data = b"1,x\n2,\n3,zz"
    schema = Schema((I, C))
    frame, report = parse_frame(data, schema)
    assert frame.columns[0].values.tolist() == [1, 2, 3]
    assert frame.columns[1].values == ["x", None, "zz"]
    assert report.n_records == 3


@pytest.mark.parametrize("ctype", [I, R, T])
def test_gathered_column_keeps_its_nulls_when_the_cast_fails(ctype):
    # the bulk cast writes placeholders at null slots; the search for the
    # bad cell must leave those slots null
    data = b"1\nNA\n\nx\n"
    frame, report = parse_frame(data, Schema((ctype,)))
    assert frame.columns[0].mask.tolist() == [False, True, True, True]
    assert frame.columns[0].values[0] == 1
    assert report.column_failures == {"V1": 1}


def _scan_agrees(data, schema):
    """Parse ``data`` and check it against the reference; returns the
    frame and report."""
    frame, report = parse_frame(data, schema)
    ref_frame, ref_report = naive_parse_frame(data, schema)
    assert frames_equal(frame, ref_frame) and report == ref_report
    return frame, report


@pytest.mark.parametrize("odd,short,long_", [(b"4", 1, 0), (b"4,d,9", 0, 1)])
def test_one_ragged_record_is_served_by_the_scan(odd, short, long_):
    data = b"1,a\n2,b\n" + odd + b"\n5,e\n"
    _, report = _scan_agrees(data, Schema((I, C)))
    assert (report.short_rows, report.long_rows) == (short, long_)


@pytest.mark.parametrize("data,last_column", [
    (b"1,a\r\n2,b\r\n", ["a", "b"]),  # CRLF
    (b"1,a\r\r\n2,b\n", ["a\r", "b"]),  # CR CR LF: one CR is dropped
    (b"1,a\rx\n2,\rb\r\n", ["a\rx", "\rb"]),  # a lone CR mid-field stays
    (b"1,a\r\n\r\n3,c\n", ["a", None, "c"]),  # an empty record
    (b"1,a\n2,b\r", ["a", "b"]),  # an unterminated last record with CR
    (b"1\r\n2,b,x\r\n", [None, "b"]),  # a short and a long record
    (b"\r", [None]),
])
def test_crlf_records_are_served_by_the_scan(data, last_column):
    frame, report = _scan_agrees(data, Schema((I, C)))
    assert frame.columns[1].values == last_column
    assert report.n_records == len(last_column)


@pytest.mark.parametrize("data", [b"1\r\r\n2\r3\r\n", b"1\r\r", b"\r\n4\r\r\n"])
def test_cr_separator_before_lf_is_dropped_with_its_empty_field(data):
    # the CR is dropped first, so the record loses its last, empty field
    schema = Schema((I, I), field_sep=b"\r")
    _scan_agrees(data, schema)


def test_parse_matrix_reads_crlf_and_raises_on_ragged_records():
    values = parse_matrix(b"1,2\r\n3,4\r\n", R)[0].values
    assert values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(RaggedInput, match="record 1 has 2 fields, record 0 has 1"):
        parse_matrix(b"1\r\n2,3\r\n", R)


def test_scan_serves_quoted_and_nul_chunks():
    dirty = b"1,a\r\n2\r\nx,b,c\n3,\r"
    _scan_agrees(dirty, Schema((I, C)))
    _scan_agrees(dirty, Schema((I, C), quote=b'"'))
    _scan_agrees(b'"1",a\n', Schema((I, C), quote=b'"'))
    _scan_agrees(b"1,a\x00\n", Schema((I, B)))
    for data in (b"1,2\r\n3,x\r\n", b"1,\x00\n"):
        matrix, failures = parse_matrix(data, I)
        ref_values, ref_failures = naive_parse_matrix(data, I)
        assert matrix.values.tolist() == ref_values.tolist()
        assert failures == ref_failures


@pytest.mark.parametrize("data,schema,values", [
    # an unbalanced quote runs to the record's end
    (b'1,"a,b\n2,c\n', Schema((I, C), quote=b'"'), ["a,b", "c"]),
    # a doubled quote, then the record ends inside the region
    (b'1,"a""\n2,b\n', Schema((I, C), quote=b'"'), ['a"', "b"]),
    # an odd count of quotes in one record leaves the next one's as it was
    (b'1,"a\n2,"b""c"\n', Schema((I, C), quote=b'"'), ["a", 'b"c']),
    # a quote mid-field opens a region there
    (b"1,x'y,z'w\n", Schema((I, C), quote=b"'"), ["xy,zw"]),
    # quote CR: of CR CR LF only the last CR is dropped, so one is a quote
    (b"1,\rb\r\r\n2,c\r\r\n", Schema((I, C), quote=b"\r"), ["b", "c"]),
    # a CR separator inside quotes is literal, but the one before LF is
    # dropped, and the record ends inside the region
    (b'1\r"a\rb\r\n2\rc\r\n', Schema((I, C), field_sep=b"\r", quote=b'"'),
     ["a\rb", "c"]),
    (b'1\r"a"\r\r\n', Schema((I, C), field_sep=b"\r", quote=b'"'), ["a"]),
])
def test_scan_reads_quotes_as_the_reference_does(data, schema, values):
    frame, _ = _scan_agrees(data, schema)
    assert frame.columns[1].values == values


@pytest.mark.parametrize("ctype", [I, R, L, C, X, T, B])
def test_quoted_null_spellings_are_values(ctype):
    # a quoted "" or "NA" is never null: a text column reads it as it is,
    # and any other type fails it
    data = b'"",x\n"NA",y\nNA,z\n,w\n'
    frame, report = _scan_agrees(data, Schema((ctype, C), quote=b'"'))
    text = ctype in (C, B)
    assert frame.columns[0].mask.tolist() == [not text] * 2 + [True] * 2
    assert report.column_failures["V1"] == (0 if text else 2)
    if text:
        spelled = ["", "NA"] if ctype is C else [b"", b"NA"]
        assert frame.columns[0].values == spelled + [None, None]


def _nul_records(quoted: bool) -> bytes:
    """120 records of Integer, Real, Logical and Timestamp cells, short
    enough for the word reader, with ``1\\x002`` mid-column, NUL-padded
    null and logical spellings, a bad cell that sends each column to the
    bisection, and ``7\\x00`` in the last record; ``quoted`` adds a
    Character column of quoted cells, a NUL-bearing one among them."""
    text = [b'"a b"', b'""', b'"NA"', b"NA"]
    rows = []
    for i in range(120):
        cells = [b"%d" % i, b"%d.25" % i, b"T" if i % 2 else b"F",
                 b"%d.5" % i]
        if i in (50, 70, 90, 119):
            cells = {50: [b"1\x002"] * 4, 70: [b"x"] * 4,
                     90: [b"NA\x00", b"\x00", b"T\x00", b"NA\x00"],
                     119: [b"7\x00"] * 4}[i]
        if quoted:
            cells.append(b'"q\x00"' if i == 50 else text[i % 4])
        rows.append(b",".join(cells))
    return b"\n".join(rows) + b"\n"


@pytest.mark.parametrize("data", [
    b"1,a\x00b\n2,c\x00\n", b"\x00,1\n2,\x00\n",
    pytest.param(_nul_records(False), id="120-numeric"),
    pytest.param(_nul_records(True), id="120-numeric-quoted-character"),
])
def test_nul_cells_read_as_the_reference_does(monkeypatch, data):
    # a NUL inside a cell and at its end: an S array would strip the latter
    ran = Counter()
    for name in ("_gather", "_word_bulk", "_cast_or_bisect"):
        module = rowstream.frame if name == "_gather" else rowstream._coerce
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _n=name, _f=real:
                            ran.update([_n]) or _f(*a))
    for ctype in (C, I, R, L):
        matrix, failures = parse_matrix(data, ctype)
        ref_values, ref_failures = naive_parse_matrix(data, ctype)
        np.testing.assert_array_equal(matrix.values, ref_values)
        assert failures == ref_failures
    assert infer_schema(data).types == naive_infer_schema(data).types
    ncol = data.split(b"\n", 1)[0].count(b",") + 1
    types = (C, B) if ncol == 2 else (I, R, L, T, C)[:ncol]
    _scan_agrees(data, Schema(types, quote=b'"' if b'"' in data else None))
    if len(data) > 1000:
        assert ran["_gather"] and ran["_word_bulk"] and ran["_cast_or_bisect"]


_COMPLEX_CELLS = [b"(1+2i)", b"1+2I", b"1+i", b"i", b" 1+2i", b"1_0+2i",
                  b"nan+nani", b"NA", b"", b'""', b'"1+2i"', b"1+2j", b"2i"]


@st.composite
def _complex_column(draw):
    n = draw(st.sampled_from([1, 63, 64, 65]) | st.integers(1, 300))
    part = st.floats().map(lambda f: repr(f).encode())
    imag = part.map(lambda b: b.lstrip(b"-") + b"i")
    cell = st.one_of(
        part,  # a real
        imag,  # bi
        st.builds(lambda a, sign, b: a + sign + b, part,
                  st.sampled_from([b"+", b"-"]), imag),  # a+bi, a-bi
        st.sampled_from(_COMPLEX_CELLS),
    )
    return draw(st.lists(cell, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(_complex_column())
def test_complex_cells_read_as_the_reference_does(cells):
    """Complex has no cast: each non-null cell goes to its scalar read,
    quoted ones included, in frames and matrices alike."""
    data = b"\n".join(cells) + b"\n"
    _scan_agrees(data, Schema((X,), quote=b'"'))
    matrix, failures = parse_matrix(data, X)
    ref_values, ref_failures = naive_parse_matrix(data, X)
    assert matrix.values.tobytes() == ref_values.tobytes()
    assert failures == ref_failures


@settings(max_examples=300, deadline=None)
@given(
    record=st.binary(max_size=60).map(lambda b: b.replace(b"\n", b";")),
    sep=st.sampled_from([b",", b"|", b"\t"]),
)
def test_quoted_record_matches_naive_state_machine(record, sep):
    # the fields and quoted flags of one record, as bytes cells, whose
    # null spellings count as nulls only when unquoted
    fields, flags = _naive_split_fields(record.removesuffix(b"\r"), sep[0],
                                        ord('"'))
    schema = Schema((B,) * len(fields), field_sep=sep, quote=b'"')
    frame, _ = _scan_agrees(record + b"\n", schema)
    for column, field, flag in zip(frame.columns, fields, flags):
        null = not flag and field in (b"", b"NA")
        assert column.mask.tolist() == [null]
        assert column.values == [None if null else field]


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
        (X, b"1_0+2i", 10 + 2j), (X, b"2i", 2j), (X, b"(1+2i)", None),
        (X, b"1+2j", None), (X, b"1+i", None), (X, b"i", None),
        (I, b"1\x002", None), (I, b"7\x00", None), (L, b"T\x00", None),
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


def _airline_schema():
    # mm's projection: the four model columns of 29
    kept = {3: I, 4: I, 14: I, 15: I}
    return Schema(tuple(kept.get(j, S) for j in range(29)))


def test_projected_parse_holds_about_one_chunk():
    # offsets are kept for the four converted columns only, as int32, and
    # no column is gathered from a copy of the chunk
    chunk = airline_csv(10_000)
    tracemalloc.start()
    try:
        frame, report = parse_frame(chunk, _airline_schema())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame.n_rows == 10_000 and report.total_failures == 0
    assert peak < 1.5 * len(chunk), peak / len(chunk)


def test_quoted_parse_holds_a_few_chunks():
    # the quote-free copy of the chunk and the quoted column's bytes and
    # str objects; splitting every record into Python objects took 13.6
    # chunk bytes on this chunk
    rows = (r.split(b",") for r in synthetic_csv(1 << 20).splitlines())
    data = b"".join(b'%s,%s,"%s",%s\n' % tuple(r) for r in rows)
    chunk = data[:data.index(b"\n", 1 << 20) + 1]
    schema = Schema((I, R, C, L), quote=b'"')
    tracemalloc.start()
    try:
        frame, report = parse_frame(chunk, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame.n_rows == chunk.count(b"\n") and report.total_failures == 0
    assert peak < 8 * len(chunk), peak / len(chunk)


@pytest.mark.parametrize("ctype", [C, I, R])
@pytest.mark.parametrize("kind", ["quoted", "nul"])
def test_one_long_cell_is_not_a_column_width(kind, ctype):
    # one 50 KB cell in 4,000 short records: widening every cell of its
    # column to it would take 200 MB, about 2,000 chunks
    cell = b"w%d" if ctype is C else b"%d"
    recs = [b"%d," % i + cell % i for i in range(4000)]
    long = b"1" * 50_000  # Integer fails it, Real reads inf
    if kind == "quoted":
        recs[7], recs[2000] = b'"7","NA"', b'1,"%s"' % long
    else:
        recs[7], recs[2000] = b"7\x00,7\x00", b"1," + long
    chunk = b"\n".join(recs) + b"\n"
    schema = Schema((I, ctype), quote=b'"')
    tracemalloc.start()
    try:
        got = parse_frame(chunk, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = naive_parse_frame(chunk, schema)
    assert frames_equal(got[0], want[0]) and got[1] == want[1]
    assert peak < 16 * len(chunk), peak / len(chunk)


def _wide_records(quoted: bool) -> bytes:
    """200 one-field records of short cells that the word reader reads, a
    bad one in every 50 that sends a cast to the bisection, and each kind
    of field a gathered array cannot hold: ``7\\x00``, ``1\\x002``, a 50 KB
    cell and, when ``quoted``, a quoted ``""`` and ``"NA"``."""
    spellings = [b"%d", b"%d.5", b"T", b"F", b"NA", b""]
    cells = [b"x" if i % 50 == 25
             else spellings[i % 6].replace(b"%d", b"%d" % i)
             for i in range(200)]
    cells[10], cells[20] = b"7\x00", b"1\x002"
    cells[30] = b"0" * 49_999 + b"1"  # Integer fails it, Real reads 1.0
    if quoted:
        cells[40], cells[41] = b'""', b'"NA"'
    return b"\n".join(cells) + b"\n"


@pytest.mark.parametrize("ctype", [L, I, R, C, B, X, T])
def test_every_wide_cell_reads_as_the_reference_does(monkeypatch, ctype):
    """All the fields a column's gathered array cannot hold, in one column,
    are read alone beside the word reader and the bisection."""
    ran = Counter()
    for name in ("_word_bulk", "_cast_or_bisect"):
        real = getattr(rowstream._coerce, name)
        monkeypatch.setattr(rowstream._coerce, name, lambda *a, _n=name,
                            _f=real: ran.update([_n]) or _f(*a))
    _scan_agrees(_wide_records(True), Schema((ctype,), quote=b'"'))
    if ctype in (I, R, T):
        assert ran["_word_bulk"] and ran["_cast_or_bisect"], ran
    plain = _wide_records(False)
    if ctype not in (B, T):  # no matrix holds these
        matrix, failures = parse_matrix(plain, ctype)
        ref_values, ref_failures = naive_parse_matrix(plain, ctype)
        np.testing.assert_array_equal(matrix.values, ref_values)
        assert failures == ref_failures
    assert infer_schema(plain) == naive_infer_schema(plain)


def test_int64_offsets_parse_the_same(monkeypatch):
    chunk = airline_csv(300) + b"2008,1,2,3\r\n"  # a short CRLF record
    schema = _airline_schema()
    expected = parse_frame(chunk, schema)
    monkeypatch.setattr(rowstream.frame, "_INT32_LIMIT", 64)
    monkeypatch.setattr(rowstream.frame, "_SCAN_BYTES", 1000)
    starts, ends, *_ = _field_offsets(chunk, 29, b",", np.array([3, 15]))
    assert starts.dtype == ends.dtype == np.int64
    assert parse_frame(chunk, schema) == expected
