"""The record layout: one splitter, and one separator check.

``parse_frame`` must agree with the per-character reference parser on any
chunk, whatever the separator, line endings, quote byte, NULs and
raggedness, and every entry point that takes a separator must reject the
same bad layouts.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rowstream.frame
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
)
from rowstream.cli import main

from oracle import naive_parse_frame

_CELLS = [b"1", b"2.5", b"NA", b"", b'"a,b"', b'"q""q"', b'"', b"\r",
          b"\x00", b"x", b"TRUE", b"-123456789012345678", b"caf\xc3\xa9",
          b"\xe2\x82", b"\xff", b"'p\tq'", b"'it''s'", b'"r\rs"', b"'"]


@settings(max_examples=500, deadline=None)
@given(
    rows=st.lists(st.lists(st.sampled_from(_CELLS), min_size=1, max_size=5),
                  max_size=8),
    crlf=st.booleans(),
    final_newline=st.booleans(),
    sep=st.sampled_from([b",", b"\t", b"\r"]),
    quote=st.sampled_from([None, b'"', b"'", b"\r"]),
    types=st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=4),
    uniform=st.booleans(),
)
def _check_against_reference(rows, crlf, final_newline, sep, quote, types,
                             uniform):
    if uniform:  # every record has the schema's field count
        rows = [(row + [b"x"] * len(types))[:len(types)] for row in rows]
    eol = b"\r\n" if crlf else b"\n"
    chunk = eol.join(sep.join(r) for r in rows)
    if rows and final_newline:
        chunk += eol
    schema = Schema(tuple(types), field_sep=sep,
                    quote=None if quote == sep else quote)
    frame, report = parse_frame(chunk, schema)
    ref_frame, ref_report = naive_parse_frame(chunk, schema)
    assert frames_equal(frame, ref_frame)
    assert report == ref_report


def _served_examples(monkeypatch):
    """Run the differential and count the chunks the scan served that held
    the quote byte or a NUL, or were CRLF, ragged or projected (a SKIP
    column in the schema), and those it scanned in more than one block."""
    served = Counter()
    scan = rowstream.frame._field_offsets

    def counted(chunk, ncol, sep, cols=None, quote=None):
        offsets = scan(chunk, ncol, sep, cols, quote)
        served["quote"] += quote is not None and quote in chunk
        served["quote set, absent"] += quote is not None and quote not in chunk
        served["nul"] += b"\x00" in chunk
        served["crlf"] += b"\r\n" in chunk
        served["ragged"] += bool((offsets[2] != ncol).any())
        served["skip"] += cols is not None
        blocks = len(list(rowstream.frame._record_blocks(chunk)))
        served["blocks>1"] += blocks > 1
        served["crlf, blocks>1"] += blocks > 1 and b"\r\n" in chunk
        served["quote, blocks>1"] += (blocks > 1 and quote is not None
                                      and quote in chunk)
        return offsets

    monkeypatch.setattr(rowstream.frame, "_field_offsets", counted)
    _check_against_reference()
    return served


def test_parse_frame_matches_naive_reference(monkeypatch):
    """The offset scan serves every example: chunks that hold the quote byte
    or a NUL, and those whose schema sets a quote byte they lack, CRLF and
    ragged chunks and those with SKIP columns included."""
    served = _served_examples(monkeypatch)
    assert (served["quote"] and served["quote set, absent"] and served["nul"]
            and served["crlf"] and served["ragged"] and served["skip"]), served


@pytest.mark.parametrize("scan_bytes", [1, 2, 7])
def test_parse_frame_matches_naive_reference_across_scan_blocks(
        monkeypatch, scan_bytes):
    """With scan blocks of a few bytes, most records, and their CRLF pairs,
    run past a block's first ``scan_bytes`` bytes, and a chunk takes
    several blocks, quoted chunks too."""
    monkeypatch.setattr(rowstream.frame, "_SCAN_BYTES", scan_bytes)
    served = _served_examples(monkeypatch)
    assert (served["crlf"] and served["ragged"] and served["skip"]
            and served["crlf, blocks>1"] and served["quote, blocks>1"]
            and served["nul"]), served


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
