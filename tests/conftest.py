"""Shared helpers: randomized frame construction for round-trip testing.

The generator deliberately leans on awkward values — signed zeros, NaN and
infinities, 64-bit integer extremes, separator/quote collisions, NUL bytes,
carriage returns, the literal string "NA" — because those are exactly the
cells a round-trip bug would eat.
"""

import numpy as np

from rowstream import Column, ColumnType, Frame, Schema, format_frame, parse_frame


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a test of minutes; deselect with -m 'not slow'")


INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

FRAME_TYPES = (
    ColumnType.LOGICAL,
    ColumnType.INTEGER,
    ColumnType.REAL,
    ColumnType.CHARACTER,
    ColumnType.BYTES,
    ColumnType.COMPLEX,
    ColumnType.TIMESTAMP,
)

_CHAR_POOL = [
    "", "NA", "NA ", "a", "two words", "x,y", 'say "hi"', '"', '""',
    "a,b,c,d", "café", "naïve", " leading", "trailing ", "mid\rcr",
    "tail\r", "0", "-12.5", "TRUE", "1e10", "2008-01-03 11:30:00", "真夏",
]

_BYTE_POOL = [
    b"", b"NA", b"\x00", b"a\x00b", b'got "quotes"', b'"', b"1,2,3",
    b"\xff\xfe\x00\x01", b"plain", b"\r", b"end\r", b"\ttab", b"|pipe",
]

_REAL_SPECIALS = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
    1.7976931348623157e308, 0.1, 1.0 / 3.0,
])

_COMPLEX_PARTS = np.array([
    0.0, -0.0, 1.5, -2.25, 1e-9, 3e300, np.inf, -np.inf, np.nan,
])


def random_column(rng, name, ctype, n):
    mask = rng.random(n) < 0.15
    if ctype is ColumnType.LOGICAL:
        values = rng.random(n) < 0.5
        values[mask] = False
    elif ctype is ColumnType.INTEGER:
        values = rng.integers(-(10**18), 10**18, size=n)
        pick = rng.random(n) < 0.1
        if pick.any():
            extremes = np.array([INT64_MIN, INT64_MAX, 0, -1], dtype=np.int64)
            values[pick] = rng.choice(extremes, size=int(pick.sum()))
        values[mask] = 0
    elif ctype in (ColumnType.REAL, ColumnType.TIMESTAMP):
        values = rng.normal(size=n) * 10.0 ** rng.integers(-12, 13, size=n)
        pick = rng.random(n) < 0.2
        if pick.any():
            values[pick] = rng.choice(_REAL_SPECIALS, size=int(pick.sum()))
        values[mask] = np.nan
    elif ctype is ColumnType.COMPLEX:
        values = np.empty(n, dtype=np.complex128)
        for part in ("real", "imag"):
            v = rng.normal(size=n)
            pick = rng.random(n) < 0.25
            if pick.any():
                v[pick] = rng.choice(_COMPLEX_PARTS, size=int(pick.sum()))
            setattr(values, part, v)
        values[mask] = complex(np.nan, np.nan)
    elif ctype is ColumnType.CHARACTER:
        values = [_CHAR_POOL[i] for i in rng.integers(0, len(_CHAR_POOL), size=n)]
        for i in np.nonzero(rng.random(n) < 0.3)[0]:
            k = int(rng.integers(1, 9))
            values[i] = "".join(chr(c) for c in rng.integers(32, 127, size=k))
        values = [None if m else v for v, m in zip(values, mask)]
    elif ctype is ColumnType.BYTES:
        values = [_BYTE_POOL[i] for i in rng.integers(0, len(_BYTE_POOL), size=n)]
        for i in np.nonzero(rng.random(n) < 0.3)[0]:
            k = int(rng.integers(1, 9))
            raw = bytes(int(c) for c in rng.integers(0, 256, size=k))
            values[i] = raw.replace(b"\n", b"_")
        values = [None if m else v for v, m in zip(values, mask)]
    else:
        raise AssertionError(ctype)
    return Column(name, ctype, values, mask)


def random_frame(rng, n_rows=None, types=None):
    if n_rows is None:
        n_rows = int(rng.integers(0, 40))
    if types is None:
        n_cols = int(rng.integers(1, 7))
        types = [FRAME_TYPES[i] for i in rng.integers(0, len(FRAME_TYPES), n_cols)]
    columns = [
        random_column(rng, f"V{i + 1}", t, n_rows) for i, t in enumerate(types)
    ]
    return Frame(columns)


def roundtrip(frame, field_sep=b",", quote=b'"'):
    """format_frame then parse_frame with a matching schema."""
    data = format_frame(frame, field_sep, quote=quote)
    schema = Schema(
        tuple(c.ctype for c in frame.columns), field_sep=field_sep, quote=quote
    )
    back, report = parse_frame(data, schema)
    return back, report
