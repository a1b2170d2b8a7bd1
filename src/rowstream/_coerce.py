"""Each column type's text spelling, in both directions: ``convert_column``
reads byte fields and ``render_column`` writes cells that read back the same.
The writer adds only the layout: guarding, quoting and joining.

Each column type has two implementations: a vectorized one built on numpy's
fixed-width bytes casts, and a per-field scalar one used when the vectorized
cast rejects the column (or cannot be trusted, see below).  numpy's S-to-int64
cast applies Python ``int()`` semantics and its S-to-float64 cast matches the
``np.float64`` scalar constructor, so the two paths accept the same grammar
and produce bit-identical values; which path runs is purely a performance
matter and never changes the result.

The one place the vectorized path would lie is NUL bytes: fixed-width bytes
arrays silently strip trailing ``\\x00``.  Callers detect NULs once per chunk
and pass ``bulk=False`` to force the scalar path for such (vanishingly rare)
inputs.
"""

from __future__ import annotations

import enum
from datetime import datetime, timezone

import numpy as np

from .errors import SchemaError

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_TRUE_TOKENS = (b"TRUE", b"T")
_FALSE_TOKENS = (b"FALSE", b"F")
_TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"

_COMPLEX_NULL = complex(float("nan"), float("nan"))

# the bytes of rendered non-text cells; a separator among them needs guarding
NON_TEXT = frozenset(b"0123456789+-.eEinfa" + _TRUE_TOKENS[0] + _FALSE_TOKENS[0])


class ColumnType(enum.Enum):
    """Value domains a parsed column can have."""

    LOGICAL = "logical"
    INTEGER = "integer"
    REAL = "real"
    CHARACTER = "character"
    BYTES = "bytes"
    COMPLEX = "complex"
    TIMESTAMP = "timestamp"
    SKIP = "skip"


def is_null_token(field: bytes) -> bool:
    """True for the two null spellings: the empty field and ``NA``."""
    return field == b"" or field == b"NA"


def _logical_scalar(field: bytes):
    if field in _TRUE_TOKENS:
        return True, False
    if field in _FALSE_TOKENS:
        return False, False
    return None, True


def _integer_scalar(field: bytes):
    try:
        value = int(field)
    except ValueError:
        return None, True
    if value < INT64_MIN or value > INT64_MAX:
        return None, True
    return value, False


def _real_scalar(field: bytes):
    try:
        return float(np.float64(field)), False
    except ValueError:
        return None, True


def _complex_scalar(field: bytes):
    # Written as `a+bi`, `bi`, or a plain real; the imaginary unit is a
    # trailing `i`.  The split point is the last sign not part of an exponent.
    if not field.endswith(b"i"):
        value, failed = _real_scalar(field)
        return (None, True) if failed else (complex(value, 0.0), False)
    body = field[:-1]
    split = -1
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in b"+-" and body[idx - 1] not in b"eE":
            split = idx
            break
    if split == -1:
        value, failed = _real_scalar(body)
        return (None, True) if failed else (complex(0.0, value), False)
    re_part, re_failed = _real_scalar(body[:split])
    im_part, im_failed = _real_scalar(body[split:])
    if re_failed or im_failed:
        return None, True
    return complex(re_part, im_part), False


def _timestamp_scalar(field: bytes):
    # Numbers pass through as epoch seconds; otherwise a single calendar
    # format, `YYYY-MM-DD hh:mm:ss`, interpreted as UTC.
    value, failed = _real_scalar(field)
    if not failed:
        return value, False
    try:
        dt = datetime.strptime(field.decode("ascii"), _TIMESTAMP_FORMAT)
    except (ValueError, UnicodeDecodeError):
        return None, True
    return dt.replace(tzinfo=timezone.utc).timestamp(), False


def _character_scalar(field: bytes):
    return field.decode("utf-8", "surrogateescape"), False


def _bytes_scalar(field: bytes):
    return bytes(field), False


_SCALAR = {
    ColumnType.LOGICAL: _logical_scalar,
    ColumnType.INTEGER: _integer_scalar,
    ColumnType.REAL: _real_scalar,
    ColumnType.CHARACTER: _character_scalar,
    ColumnType.BYTES: _bytes_scalar,
    ColumnType.COMPLEX: _complex_scalar,
    ColumnType.TIMESTAMP: _timestamp_scalar,
}


def parse_field_ex(field: bytes, ctype: ColumnType, quoted: bool = False):
    """Coerce one field; returns ``(value, failed)``.

    Nulls (empty field or ``NA``, unless the field was quoted) come back as
    ``(None, False)``; malformed fields as ``(None, True)``.  Only the latter
    counts as a coercion failure.
    """
    if ctype is ColumnType.SKIP:
        raise SchemaError("skip columns have no values")
    if not quoted and is_null_token(field):
        return None, False
    return _SCALAR[ctype](field)


def _bytes_array(fields: list) -> np.ndarray:
    a = np.array(fields, dtype="S") if fields else np.empty(0, dtype="S1")
    if a.dtype.itemsize < 3:
        # wide enough to hold the b"0"/b"nan" placeholders written below
        a = a.astype("S3")
    return a


def _null_mask(a: np.ndarray) -> np.ndarray:
    return (a == b"") | (a == b"NA")


def _logical_bulk(fields):
    a = _bytes_array(fields)
    null = _null_mask(a)
    true = (a == b"TRUE") | (a == b"T")
    false = (a == b"FALSE") | (a == b"F")
    bad = ~(null | true | false)
    return true, null | bad, int(bad.sum())


def _cast_bulk(fields, dtype, placeholder: bytes):
    a = _bytes_array(fields)
    mask = _null_mask(a)
    if mask.any():
        a[mask] = placeholder
    try:
        return a.astype(dtype), mask, 0
    except (ValueError, OverflowError):
        return None


def _column_slow(fields, ctype, quoted):
    n = len(fields)
    mask = np.zeros(n, dtype=np.bool_)
    if ctype is ColumnType.LOGICAL:
        values = np.zeros(n, dtype=np.bool_)
    elif ctype is ColumnType.INTEGER:
        values = np.zeros(n, dtype=np.int64)
    elif ctype is ColumnType.COMPLEX:
        values = np.full(n, _COMPLEX_NULL, dtype=np.complex128)
    else:
        values = np.full(n, np.nan, dtype=np.float64)
    scalar = _SCALAR[ctype]
    failures = 0
    for i, field in enumerate(fields):
        if (quoted is None or not quoted[i]) and is_null_token(field):
            mask[i] = True
            continue
        value, failed = scalar(field)
        if failed:
            mask[i] = True
            failures += 1
        else:
            values[i] = value
    return values, mask, failures


def convert_column(
    fields: list,
    ctype: ColumnType,
    quoted: list | None = None,
    bulk: bool = True,
):
    """Coerce a column of raw fields to ``(values, mask, n_failures)``.

    ``values`` is a numpy array (Character and Bytes columns use Python lists
    instead), ``mask`` flags null slots, and ``n_failures`` counts malformed
    non-null fields.  Null slots hold a type-specific placeholder: False, 0,
    NaN, or NaN+NaNi.  ``quoted`` (one flag per field) suppresses null-token
    recognition for quoted fields; ``bulk=False`` forces the scalar path.
    """
    if ctype is ColumnType.CHARACTER or ctype is ColumnType.BYTES:
        text = ctype is ColumnType.CHARACTER
        values = []
        mask = np.zeros(len(fields), dtype=np.bool_)
        for i, field in enumerate(fields):
            if (quoted is None or not quoted[i]) and is_null_token(field):
                values.append(None)
                mask[i] = True
            elif text:
                values.append(field.decode("utf-8", "surrogateescape"))
            else:
                values.append(bytes(field))
        return values, mask, 0
    if quoted is not None:
        bulk = False  # quoted fields opt out of null-token recognition
    if bulk:
        if ctype is ColumnType.LOGICAL:
            return _logical_bulk(fields)
        out = None
        if ctype is ColumnType.INTEGER:
            out = _cast_bulk(fields, np.int64, b"0")
        elif ctype in (ColumnType.REAL, ColumnType.TIMESTAMP):
            out = _cast_bulk(fields, np.float64, b"nan")
        if out is not None:
            return out
    return _column_slow(fields, ctype, quoted)


def _render_real(v: float) -> bytes:
    # the shortest decimal that parses back to the same double
    return repr(v).encode("ascii")


def _render_complex(v: complex) -> bytes:
    im = _render_real(v.imag)
    return _render_real(v.real) + (im if im[:1] == b"-" else b"+" + im) + b"i"


def _render_text(v) -> bytes:
    return v.encode("utf-8", "surrogateescape") if isinstance(v, str) else bytes(v)


_RENDER = {
    ColumnType.LOGICAL: lambda v: _TRUE_TOKENS[0] if v else _FALSE_TOKENS[0],
    ColumnType.INTEGER: lambda v: b"%d" % v,
    ColumnType.REAL: _render_real,
    ColumnType.CHARACTER: _render_text,
    ColumnType.BYTES: _render_text,
    ColumnType.COMPLEX: _render_complex,
    ColumnType.TIMESTAMP: _render_real,
}


def render_column(values, mask: np.ndarray, ctype: ColumnType) -> list:
    """Render a column as one bytes cell per slot: the inverse of
    :func:`convert_column`.  Masked slots render as ``NA``; every other cell
    parses back to its value (floats bit for bit)."""
    render = _RENDER[ctype]
    if isinstance(values, np.ndarray):
        values = values.tolist()  # Python scalars render faster than numpy's
    if mask.any():
        return [b"NA" if m else render(v) for v, m in zip(values, mask.tolist())]
    return list(map(render, values))
