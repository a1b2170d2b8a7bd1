"""The record layout: one tokenizer and one separator check.

``tokenize`` must agree with the per-character reference parser on any
chunk, whatever the line endings, quoting and raggedness, and every entry
point that takes a separator must reject the same bad layouts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowstream import (
    ColumnType,
    DenseMatrix,
    Frame,
    Schema,
    SchemaError,
    format_frame,
    format_matrix,
    frames_equal,
    infer_schema,
    parse_frame,
    parse_matrix,
    tokenize,
)
from rowstream.cli import main

from oracle import naive_parse_frame

_CELLS = [b"1", b"2.5", b"NA", b"", b'"a,b"', b'"q""q"', b'"', b"\r",
          b"\x00", b"x", b"TRUE"]


@settings(max_examples=500, deadline=None)
@given(
    rows=st.lists(st.lists(st.sampled_from(_CELLS), min_size=1, max_size=5),
                  max_size=8),
    crlf=st.booleans(),
    final_newline=st.booleans(),
    quote=st.sampled_from([None, b'"']),
    limit=st.integers(0, 9),
    types=st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=4),
)
def test_parse_frame_matches_naive_reference(rows, crlf, final_newline, quote,
                                             limit, types):
    eol = b"\r\n" if crlf else b"\n"
    chunk = eol.join(b",".join(r) for r in rows)
    if rows and final_newline:
        chunk += eol
    schema = Schema(tuple(types), quote=quote)
    frame, report = parse_frame(chunk, schema)
    ref_frame, ref_report = naive_parse_frame(chunk, schema)
    assert frames_equal(frame, ref_frame)
    assert report == ref_report

    all_rows, all_quoted = tokenize(chunk, quote=quote)
    some_rows, some_quoted = tokenize(chunk, quote=quote, limit=limit)
    assert some_rows == all_rows[:limit]
    assert some_quoted == (None if quote is None else all_quoted[:limit])


_LAYOUT_USERS = {
    "Schema": lambda sep, quote: Schema((ColumnType.REAL,), field_sep=sep,
                                        quote=quote),
    "parse_matrix": lambda sep, quote: parse_matrix(b"1\n", ColumnType.REAL,
                                                    field_sep=sep),
    "infer_schema": lambda sep, quote: infer_schema(b"1\n", field_sep=sep),
    "format_frame": lambda sep, quote: format_frame(Frame(), sep, quote=quote),
    "format_matrix": lambda sep, quote: format_matrix(
        DenseMatrix(np.ones((1, 1))), sep),
}

_BAD_LAYOUTS = [
    (user, sep, None)
    for user in _LAYOUT_USERS
    for sep in (b"", b",,", b"\n", ",")
] + [
    (user, b",", quote)
    for user in ("Schema", "format_frame")
    for quote in (b",", b"\n", '"')
]


@pytest.mark.parametrize("user,sep,quote", _BAD_LAYOUTS)
def test_bad_layout_is_a_schema_error(user, sep, quote):
    with pytest.raises(SchemaError):
        _LAYOUT_USERS[user](sep, quote)


def test_cli_rejects_bad_separator_and_negative_skip(tmp_path, capsys):
    src = tmp_path / "a.csv"
    src.write_bytes(b"1\n2\n")
    assert main(["parse", str(src), "--schema", "i", "--sep", ",,"]) == 1
    assert main(["parse", str(src), "--schema", "i", "--skip", "-1"]) == 1
    assert "error:" in capsys.readouterr().err
