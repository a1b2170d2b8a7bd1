"""The word reader against the cast it stands in for.

Numeric columns whose every cell fits in 8 bytes are read by word
arithmetic (``_coerce._word_bulk``), and only the cells it rejects by
numpy's casts.  A list of fields always takes the casts, so it is the
reference: values bit for bit, masks and failure counts must be equal.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rowstream._coerce
import rowstream.frame
from rowstream import ColumnType, Schema, parse_frame, parse_matrix
from rowstream._coerce import convert_column

I, R, T = ColumnType.INTEGER, ColumnType.REAL, ColumnType.TIMESTAMP

_DIGITS = st.text("0123456789", max_size=8)
_SPELLINGS = [
    "", "NA", ".", "-", "+", "-.", "1.", ".5", "-.5", "-0", "-0.0", "00012.50",
    "1e5", "1E-2", "-1e+3", "+1", " 1", "1 ", "1_0", "--1", "1.2.3", "0x1",
    "inf", "-inf", "Infinity", "nan", "NaN", "-nan", "12345678", "-1234567",
    "99999999", "-9999999", "1234.567", "-.000001", "123456789", "-12345678",
    "1234567.", "2008-01-03 11:30:00",
]


@st.composite
def _cells(draw):
    """A cell of 0 to 9 bytes: a signed decimal, a spelling at the edge of
    the grammar, or bytes of the number alphabet."""
    kind = draw(st.sampled_from(["decimal", "spelling", "noise"]))
    if kind == "decimal":
        sign = draw(st.sampled_from(["", "", "-", "+", " "]))
        whole, frac = draw(_DIGITS), draw(_DIGITS)
        point = draw(st.sampled_from(["", "."]))
        cell = (sign + whole + point + frac)[:draw(st.integers(1, 9))]
    elif kind == "spelling":
        cell = draw(st.sampled_from(_SPELLINGS))
    else:
        # "/" and ":" are the bytes on either side of the digits
        cell = draw(st.text("0123456789-+. _eEinfaNA/:", max_size=9))
    return cell.encode()


_served = Counter()


@pytest.fixture
def counted(monkeypatch):
    """Count the non-null cells the word reader read itself."""
    digits = rowstream._coerce._word_digits

    def counting(x, nd):
        number, ok = digits(x, nd)
        _served["word"] += int(ok.sum())
        return number, ok

    monkeypatch.setattr(rowstream._coerce, "_word_digits", counting)
    _served.clear()
    return _served


def _same(got, want):
    values, mask, failures = got
    assert failures == want[2]
    assert mask.tolist() == want[1].tolist()
    assert values.dtype == want[0].dtype
    assert values.tobytes() == want[0].tobytes()


@pytest.mark.parametrize("scan_bytes", [3, 1 << 15])
def test_frame_columns_read_as_the_cast_reads_them(monkeypatch, counted,
                                                   scan_bytes):
    monkeypatch.setattr(rowstream.frame, "_SCAN_BYTES", scan_bytes)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(_cells(), _cells(), _cells()), min_size=1,
                         max_size=30))
    def check(rows):
        chunk = b"".join(b",".join(row) + b"\n" for row in rows)
        frame, report = parse_frame(chunk, Schema((I, R, T)))
        for j, column in enumerate(frame.columns):
            want = convert_column([row[j] for row in rows], column.ctype)
            _same((column.values, column.mask,
                   report.column_failures[column.name]), want)
        counted["wide"] += any(len(c) > 8 for row in rows for c in row)

    check()
    assert counted["word"] and counted["wide"], counted


@pytest.mark.parametrize("scan_bytes", [1, 7, 1 << 15])
@pytest.mark.parametrize("ctype", [I, R])
def test_matrix_blocks_read_as_the_cast_reads_them(monkeypatch, counted,
                                                   scan_bytes, ctype):
    """With blocks of a few bytes a 9-byte cell widens only its own block,
    and the blocks around it are still read by words."""
    monkeypatch.setattr(rowstream.frame, "_SCAN_BYTES", scan_bytes)

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(_cells(), _cells()), min_size=1,
                         max_size=30))
    def check(rows):
        chunk = b"".join(b",".join(row) + b"\n" for row in rows)
        matrix, failures = parse_matrix(chunk, ctype)
        values, mask, want_failures = convert_column(
            [c for row in rows for c in row], ctype)
        assert failures == want_failures
        assert matrix.values.tobytes() == values.tobytes()

    check()
    assert counted["word"], counted


def test_word_reader_takes_what_it_should():
    """The short spellings that it reads and those it leaves to the cast."""
    cells = [b"-0", b"-.5", b"1.", b"00012.50", b"12345678", b"-1234567",
             b".", b"-", b"1e5", b"+1", b" 1", b"1_0", b"", b"NA"]
    fields = np.array(cells, "S8")
    lengths = np.array([len(c) for c in cells])
    for ctype in (I, R, T):
        _same(convert_column(fields, ctype, lengths=lengths),
              convert_column(cells, ctype))
    values, mask, failures = convert_column(fields, R, lengths=lengths)
    assert values[:4].tolist() == [-0.0, -0.5, 1.0, 12.5]
    assert np.signbit(values[0])
    # the cast reads 1e5, +1, " 1" and 1_0, as Python's float() does
    assert values[8:12].tolist() == [1e5, 1.0, 1.0, 10.0]
    assert mask.tolist() == [False] * 6 + [True] * 2 + [False] * 4 + [True] * 2
    assert failures == 2
