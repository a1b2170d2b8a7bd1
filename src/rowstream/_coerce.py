"""Each column type's text spelling, in both directions: ``convert_column``
reads byte fields and ``render_column`` writes cells that read back the same.
The writer adds only the layout: guarding, quoting and joining.

``_TYPES`` holds one row per column type (see ``_Type``).  Reading has two
paths: a vectorized one built on numpy's fixed-width bytes casts, and the
per-field loop ``_column_slow`` that serves every type: it runs for the
types with no cast and whenever the cast rejects a column.  numpy's
S-to-int64 cast applies Python ``int()`` semantics and its S-to-float64 cast
matches the ``np.float64`` scalar constructor, so the two paths accept the
same grammar and produce bit-identical values; which path runs is purely a
performance matter and never changes the result.

The one place the vectorized path would lie is NUL bytes: fixed-width bytes
arrays silently strip trailing ``\\x00``.  Callers detect NULs once per chunk
and pass ``bulk=False`` to force the scalar path for such (vanishingly rare)
inputs.  The same holds for a column the caller has already gathered into an
``S`` array (``frame._gather``): only NUL-free chunks are gathered, so the
array's stripped padding is never part of a field.

Writing a Real has a second path too.  For an integral double below 1e16 in
magnitude, ``repr`` is exactly its integer digits plus ``.0``, so
:func:`spell_integral` computes those bytes for a whole matrix with numpy
digit arithmetic instead of one ``repr`` per cell; its output equals
``_render_real``'s, cell for cell.
"""

from __future__ import annotations

import enum
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

from .errors import SchemaError

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_NULL_TOKENS = (b"", b"NA")
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
    return field in _NULL_TOKENS


def _logical_scalar(field: bytes):
    if field in _TRUE_TOKENS:
        return True
    if field in _FALSE_TOKENS:
        return False
    raise ValueError(field)


def _integer_scalar(field: bytes):
    value = int(field)
    if value < INT64_MIN or value > INT64_MAX:
        raise ValueError(field)
    return value


def _real_scalar(field: bytes):
    return float(np.float64(field))


def _complex_scalar(field: bytes):
    # Written as `a+bi`, `bi`, or a plain real; the imaginary unit is a
    # trailing `i`.  The split point is the last sign not part of an exponent.
    if not field.endswith(b"i"):
        return complex(_real_scalar(field), 0.0)
    body = field[:-1]
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in b"+-" and body[idx - 1] not in b"eE":
            return complex(_real_scalar(body[:idx]), _real_scalar(body[idx:]))
    return complex(0.0, _real_scalar(body))


def _timestamp_scalar(field: bytes):
    # Numbers pass through as epoch seconds; otherwise a single calendar
    # format, `YYYY-MM-DD hh:mm:ss`, interpreted as UTC.
    try:
        return _real_scalar(field)
    except ValueError:
        dt = datetime.strptime(field.decode("ascii"), _TIMESTAMP_FORMAT)
    return dt.replace(tzinfo=timezone.utc).timestamp()


def _character_scalar(field: bytes):
    return field.decode("utf-8", "surrogateescape")


def _render_real(v: float) -> bytes:
    # the shortest decimal that parses back to the same double
    return repr(v).encode("ascii")


def spell_integral(v: np.ndarray):
    """Spell every cell of a non-empty float64 array as ``_render_real``
    does, by digit arithmetic; None unless every cell is integral and below
    1e16 in magnitude (so NaN and the infinities fall back too).

    Returns ``(block, keep)``: ``block`` holds one row of uint8 bytes per
    cell (sign, right-aligned digits, ``.0``, then one spare byte that the
    caller fills with the cell's separator), and ``block[keep]``, in C order,
    is the cells with their separators run together."""
    a = np.abs(v)
    if not (a < 1e16).all():
        return None
    q = a.astype(np.int64)
    if not (q == a).all():
        return None
    width = len(str(int(q.max())))
    block = np.empty(v.shape + (width + 4,), np.uint8)
    keep = np.ones(block.shape, np.bool_)
    block[..., 0] = ord("-")
    keep[..., 0] = np.signbit(v)  # so -0.0 spells "-0.0", as repr does
    for k in range(width, 0, -1):
        if k < width:
            keep[..., k] = q > 0  # a leading digit: more of the value is left
        rest = q // 10  # numpy divides by a scalar much faster than divmod
        block[..., k] = q - rest * 10 + ord("0")
        q = rest
    block[..., -3:-1] = np.frombuffer(b".0", np.uint8)
    return block, keep


def _render_complex(v: complex) -> bytes:
    im = _render_real(v.imag)
    return _render_real(v.real) + (im if im[:1] == b"-" else b"+" + im) + b"i"


def _render_text(v) -> bytes:
    return v.encode("utf-8", "surrogateescape") if isinstance(v, str) else bytes(v)


class _Type(NamedTuple):
    read: Callable  # bytes -> value; raises ValueError on a malformed field
    render: Callable  # value -> bytes
    dtype: object  # of the values array; None for a Python list
    fill: object  # the value at null slots
    cast_null: bytes | None  # null placeholder for numpy's bulk cast, if any


_TYPES = {
    ColumnType.LOGICAL: _Type(_logical_scalar,
                              lambda v: _TRUE_TOKENS[0] if v else _FALSE_TOKENS[0],
                              np.bool_, False, None),
    ColumnType.INTEGER: _Type(_integer_scalar, lambda v: b"%d" % v, np.int64, 0, b"0"),
    ColumnType.REAL: _Type(_real_scalar, _render_real, np.float64, np.nan, b"nan"),
    ColumnType.CHARACTER: _Type(_character_scalar, _render_text, None, None, None),
    ColumnType.BYTES: _Type(bytes, _render_text, None, None, None),
    ColumnType.COMPLEX: _Type(_complex_scalar, _render_complex, np.complex128,
                              _COMPLEX_NULL, None),
    ColumnType.TIMESTAMP: _Type(_timestamp_scalar, _render_real, np.float64, np.nan,
                                b"nan"),
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
    try:
        return _TYPES[ctype].read(field), False
    except ValueError:
        return None, True


def _bytes_array(fields) -> np.ndarray:
    # a gathered S array is used as it is; a list is copied into one
    if isinstance(fields, np.ndarray):
        a = fields
    else:
        a = np.array(fields, dtype="S") if fields else np.empty(0, dtype="S1")
    if a.dtype.itemsize < 3:
        # wide enough to hold the b"0"/b"nan" placeholders written below
        a = a.astype("S3")
    return a


def _null_mask(a: np.ndarray) -> np.ndarray:
    return (a == _NULL_TOKENS[0]) | (a == _NULL_TOKENS[1])


def _logical_bulk(fields):
    a = _bytes_array(fields)
    null = _null_mask(a)
    true = (a == _TRUE_TOKENS[0]) | (a == _TRUE_TOKENS[1])
    false = (a == _FALSE_TOKENS[0]) | (a == _FALSE_TOKENS[1])
    bad = ~(null | true | false)
    return true, null | bad, int(bad.sum())


def _cast_bulk(fields, dtype, placeholder: bytes):
    a = _bytes_array(fields)
    mask = _null_mask(a)
    if mask.any():
        # a new array: the scalar fallback must still see the null tokens
        a = np.where(mask, np.bytes_(placeholder), a)
    try:
        return a.astype(dtype), mask, 0
    except (ValueError, OverflowError):
        return None


def _column_slow(fields, ctype, quoted):
    row = _TYPES[ctype]
    n = len(fields)
    mask = np.zeros(n, dtype=np.bool_)
    values = [row.fill] * n if row.dtype is None else np.full(n, row.fill, row.dtype)
    read = row.read
    failures = 0
    for i, field in enumerate(fields):
        if field in _NULL_TOKENS and (quoted is None or not quoted[i]):
            mask[i] = True
            continue
        try:
            values[i] = read(field)
        except ValueError:
            mask[i] = True
            failures += 1
    return values, mask, failures


def convert_column(
    fields,
    ctype: ColumnType,
    quoted: list | None = None,
    bulk: bool = True,
):
    """Coerce a column of raw fields to ``(values, mask, n_failures)``.

    ``fields`` is a list of bytes, or an ``S`` array of NUL-free fields.

    ``values`` is a numpy array (Character and Bytes columns use Python lists
    instead), ``mask`` flags null slots, and ``n_failures`` counts malformed
    non-null fields.  Null slots hold a type-specific placeholder: False, 0,
    NaN, NaN+NaNi, or None.  ``quoted`` (one flag per field) suppresses
    null-token recognition for quoted fields; ``bulk=False`` forces the
    scalar path.
    """
    if bulk and quoted is None:  # quoted fields opt out of null-token recognition
        if ctype is ColumnType.LOGICAL:
            return _logical_bulk(fields)
        row = _TYPES[ctype]
        if row.cast_null is not None:
            out = _cast_bulk(fields, row.dtype, row.cast_null)
            if out is not None:
                return out
    if isinstance(fields, np.ndarray):
        fields = fields.tolist()
    return _column_slow(fields, ctype, quoted)


def render_column(values, mask: np.ndarray, ctype: ColumnType) -> list:
    """Render a column as one bytes cell per slot: the inverse of
    :func:`convert_column`.  Masked slots render as ``NA``; every other cell
    parses back to its value (floats bit for bit)."""
    render = _TYPES[ctype].render
    if isinstance(values, np.ndarray):
        values = values.tolist()  # Python scalars render faster than numpy's
    if mask.any():
        return [b"NA" if m else render(v) for v, m in zip(values, mask.tolist())]
    return list(map(render, values))
