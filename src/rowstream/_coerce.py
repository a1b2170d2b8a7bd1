"""Each column type's text spelling, in both directions: ``convert_column``
reads byte fields and ``spell_column`` writes cells that read back the same.
The writer adds only the layout: guarding, quoting and laying out records.

``_TYPES`` holds one row per column type (see ``_Type``).  Every column is
read in bulk, from numpy's fixed-width bytes casts.  When a column's one
cast fails, ``_cast_bulk`` casts it again in blocks of ``_BLOCK_ROWS`` rows,
halves each failing block down to the cells it rejects, and runs the type's
scalar ``read`` on those cells only, so a calendar Timestamp cell still
parses and an out-of-range integer still fails.  numpy's S-to-int64 cast
applies Python ``int()`` semantics and its S-to-float64 cast matches the
``np.float64`` scalar constructor, so the cast accepts exactly the scalar
grammar and gives bit-identical values.  Complex has no cast (numpy's takes
``(1+2j)`` and ``1+j``, which the scalar grammar does not), so that loop
reads each of its non-null cells.  A Character column has no cast, but it
needs none: its fields are joined, decoded once and split.

Before the casts, a numeric column gathered into an ``S8`` array, whose
every field fits one 64-bit word, is read by word arithmetic
(``_word_bulk``): with each field's length from the offset scan, the
integers ``-?D+`` and the short decimals ``-?D*.D*`` it holds are folded by
Lemire's eight-digit parse (Lemire, "Number Parsing at a Gigabyte per
Second", SPE 2021), and only the fields it rejects go on to the casts.

:func:`_gather` copies a column of fields straight into one ``S`` array,
with no Python object per field, so the memory a parse takes beyond its
result is a fraction of its chunk.  Beside it comes ``wide``, the fields the
array cannot hold exactly, each with an empty slot: one with a NUL, which an
``S`` array strips, one too long to widen every field to within four times
the data, and a quoted null spelling.  Every bulk reader reads those slots
as nulls, and ``convert_column`` then reads each ``wide`` field with its
type's ``read``, which only Character and Bytes pass for a NUL, ``""`` or
``NA``.

Writing spells a whole column as one byte block, with no Python object per
cell (see :func:`spell_column`).  Integers, and reals whose every cell is a
short decimal, are spelled by numpy digit arithmetic; those bytes are
exactly what ``repr`` writes.  Any other real column takes one ``repr`` per
cell, joined into one string, because shortest round-trip printing of an
arbitrary double has no vectorized form.  Text columns are joined and
encoded once.  Joined cells are gathered into their block by ``_gather``,
so the writer gets the cells the array cannot hold in ``wide``.
"""

from __future__ import annotations

import enum
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

from .errors import SeparatorCollision

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_NULL_TOKENS = (b"", b"NA")
_TRUE_TOKENS = (b"TRUE", b"T")
_FALSE_TOKENS = (b"FALSE", b"F")
_TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"

_COMPLEX_NULL = complex(float("nan"), float("nan"))

# a real with at most this many decimal places may be spelled by digits
_MAX_PLACES = 6
_POW10_INT = np.array([10 ** k for k in range(_MAX_PLACES + 1)])
_POW10 = _POW10_INT.astype(np.float64)
# Below 2**50, the computed a * 10**k is within 1/4 of the integer q whose
# q / 10**k is the shortest decimal that reads back as a, so rint finds q;
# nearer 2**53 the rounding of the product could pick a neighbour.
_DIGIT_LIMIT = 2.0 ** 50
# rows per block when a column's one cast fails and its bad cells are sought
_BLOCK_ROWS = 64
# FALSE and TRUE as block rows, each with its spare byte
_LOGICAL_BLOCK = np.frombuffer(b"FALSE\0TRUE\0\0", np.uint8).reshape(2, 6)
_LOGICAL_KEEP = np.array([[1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 0, 1]], np.bool_)
# the word reader's constants: a byte repeated in each of a word's 8 bytes,
# and the multipliers of Lemire's eight-digit parse
_ONES = np.uint64(0x0101010101010101)
_ZEROS, _DOTS = _ONES * np.uint64(ord("0")), _ONES * np.uint64(ord("."))
_SIXES, _THREES = _ONES * np.uint64(6), _ONES * np.uint64(0x33)
_HIGH_BITS, _HIGH_NIBBLES = _ONES * np.uint64(0x80), _ONES * np.uint64(0xF0)
_PAIR_MASK = np.uint64(0x000000FF000000FF)
_MUL_HI = np.uint64(100 + (1000000 << 32))
_MUL_LO = np.uint64(1 + (10000 << 32))
_NA_WORD = np.uint64(int.from_bytes(b"NA", "little"))
_DIVISORS = 10.0 ** np.arange(8)
# by digit count: the shift that left-aligns the digits in a word, and the
# ASCII 0s that fill the bytes below them (no digits fails the check)
_ALIGN_SHIFTS = np.array([56] + [64 - 8 * i for i in range(1, 9)], np.uint64)
_ALIGN_ZEROS = _ZEROS & ((np.uint64(1) << _ALIGN_SHIFTS) - np.uint64(1))
# _BYTE_MASKS[i] keeps the first i bytes of a little-endian 64-bit word
_BYTE_MASKS = np.array([(1 << 8 * i) - 1 for i in range(9)], np.dtype("<u8"))


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


def _digit_block(neg, whole, frac=None, places=None):
    """``(block, keep, {})`` spelling a sign where ``neg``, then ``whole``'s
    digits without leading zeros, then, when ``frac`` is given, a point and
    the fraction: 0 spells ``.0``, and an array holds each cell's ``places``
    digits scaled to ``max(places)`` digits, of which the cell keeps its
    own."""
    iw = len(str(int(whole.max())))
    fw = 0 if frac is None else 1 if places is None else int(places.max())
    width = iw + 2 + (fw + 1 if frac is not None else 0)
    block = np.empty(whole.shape + (width,), np.uint8)
    keep = np.ones(block.shape, np.bool_)
    block[..., 0] = ord("-")
    keep[..., 0] = neg
    _put_digits(block[..., 1:iw + 1], whole, keep[..., 1:iw + 1])
    if frac is not None:
        block[..., iw + 1] = ord(".")
        _put_digits(block[..., iw + 2:-1], frac)
    if places is not None:
        keep[..., iw + 3:-1] = np.arange(2, fw + 1) <= places[..., None]
    return block, keep, {}


def _put_digits(block, q, keep=None):
    """Write ``q``'s digits right-aligned into ``block``'s last axis; with
    ``keep``, mark only the digits from the leading one on."""
    for i in range(block.shape[-1] - 1, -1, -1):
        if keep is not None and i < block.shape[-1] - 1:
            keep[..., i] = q > 0  # a leading digit: more of the value is left
        rest = q // 10  # numpy divides by a scalar much faster than divmod
        block[..., i] = q - rest * 10 + ord("0")
        q = rest


def _joined_block(data: bytes, shape):
    """``(block, keep, wide)`` for cells joined by LF in ``data``, or None
    when ``data`` holds more LFs than cell boundaries.  The cells are
    gathered as a parsed column's fields are (see :func:`_gather`): each
    block row is a cell's bytes, left-aligned, plus a spare byte, and
    ``wide`` maps each cell the gathered array cannot hold, by flat index,
    to its bytes."""
    lf = np.flatnonzero(np.frombuffer(data, np.uint8) == 10)
    if len(lf) != int(np.prod(shape)) - 1:
        return None
    fields, lens, wide = _gather(data, np.concatenate(([0], lf + 1)),
                                 np.append(lf, len(data)), _nuls(data))
    w = max(int(lens.max()), 2)  # never narrower than NA
    block = np.zeros((len(fields), w + 1), np.uint8)
    block[:, :w] = fields.view(np.uint8).reshape(len(fields), -1)[:, :w]
    block = block.reshape(shape + (w + 1,))
    keep = block != 0  # a cell holding a NUL is wide: a zero is padding
    keep[..., -1] = True
    return block, keep, wide


def _short_decimals(a):
    """``(q, places)`` for an array of magnitudes: per cell the least
    ``places`` k <= _MAX_PLACES with ``rint(a * 10**k) / 10**k == a``, and
    ``q = rint(a * 10**k)`` as int64; ``places`` is None when every cell is
    integral.  None when a cell has no such k, or ``repr`` would write it in
    exponent form (below 1e-4 or from 1e16)."""
    if not a.max() < 1e16:  # NaN fails too
        return None
    q = np.rint(a)
    todo = q != a
    if not todo.any():
        return q.astype(np.int64), None
    if (todo & (a < 1e-4)).any():
        return None
    places = np.zeros(a.shape, np.intp)
    for k in range(1, _MAX_PLACES + 1):
        qk = np.rint(a * _POW10[k])
        done = todo & (qk / _POW10[k] == a) & (qk < _DIGIT_LIMIT)
        q[done] = qk[done]
        places[done] = k
        todo &= ~done
        if not todo.any():
            return q.astype(np.int64), places
    return None


def _spell_real(v, mask):
    v = np.asarray(v, np.float64)
    a = np.abs(v)
    if mask.any():
        a[mask] = 0.0
    found = _short_decimals(a)
    if found is None:
        text = "\n".join(map(repr, v.ravel().tolist()))
        return _joined_block(text.encode("ascii"), v.shape)
    q, places = found
    neg = np.signbit(v)  # so -0.0 spells "-0.0", as repr does
    if places is None:
        return _digit_block(neg, q, 0)
    scale = _POW10_INT[places]
    whole = q // scale
    frac = (q - whole * scale) * _POW10_INT[places.max() - places]
    return _digit_block(neg, whole, frac, places)


def _spell_integer(v, mask):
    v = np.asarray(v)
    u = v.astype(np.uint64)
    neg = v < 0
    # negation wraps in uint64, so INT64_MIN's magnitude 2**63 is exact
    return _digit_block(neg, np.where(neg, -u, u))


def _spell_logical(v, mask):
    i = np.asarray(v, np.bool_).astype(np.intp)
    return _LOGICAL_BLOCK[i], _LOGICAL_KEEP[i], {}


def _complex_text(v: complex) -> str:
    im = repr(v.imag)
    return repr(v.real) + ("" if im[0] == "-" else "+") + im + "i"


def _spell_complex(v, mask):
    v = np.asarray(v, np.complex128)
    text = "\n".join(map(_complex_text, v.ravel().tolist()))
    return _joined_block(text.encode("ascii"), v.shape)


def _spell_text(values, mask, encode: bool):
    shape = (len(values),) if isinstance(values, list) else values.shape
    if mask.any():
        values = np.array(values, dtype=object)
        values[mask] = "" if encode else b""
    if isinstance(values, np.ndarray):
        values = values.ravel().tolist()
    data = ("\n".join(values).encode("utf-8", "surrogateescape") if encode
            else b"\n".join(values))
    spelled = _joined_block(data, shape)
    if spelled is None:
        cell = next(c for c in values if ("\n" if encode else b"\n") in c)
        cell = cell.encode("utf-8", "surrogateescape") if encode else cell
        raise SeparatorCollision(f"newline in cell {cell[:40]!r}")
    return spelled


class _Type(NamedTuple):
    read: Callable  # bytes -> value; raises ValueError on a malformed field
    spell: Callable  # (values, mask) -> (block, keep, wide); see spell_column
    dtype: object  # of the values array; None for a Python list
    fill: object  # the value at null slots
    cast_null: bytes | None  # null placeholder for numpy's bulk cast, if any


_TYPES = {
    ColumnType.LOGICAL: _Type(_logical_scalar, _spell_logical, np.bool_, False, None),
    ColumnType.INTEGER: _Type(_integer_scalar, _spell_integer, np.int64, 0, b"0"),
    ColumnType.REAL: _Type(_real_scalar, _spell_real, np.float64, np.nan, b"nan"),
    ColumnType.CHARACTER: _Type(_character_scalar,
                                lambda v, m: _spell_text(v, m, True), None, None, None),
    ColumnType.BYTES: _Type(bytes, lambda v, m: _spell_text(v, m, False),
                            None, None, None),
    ColumnType.COMPLEX: _Type(_complex_scalar, _spell_complex, np.complex128,
                              _COMPLEX_NULL, None),
    ColumnType.TIMESTAMP: _Type(_timestamp_scalar, _spell_real, np.float64, np.nan,
                                b"nan"),
}


def _null_mask(fields: np.ndarray) -> np.ndarray:
    return (fields == _NULL_TOKENS[0]) | (fields == _NULL_TOKENS[1])


def _logical_bulk(fields):
    null = _null_mask(fields)
    true = (fields == _TRUE_TOKENS[0]) | (fields == _TRUE_TOKENS[1])
    false = (fields == _FALSE_TOKENS[0]) | (fields == _FALSE_TOKENS[1])
    bad = ~(null | true | false)
    return true, null | bad, int(bad.sum())


def _word_digits(x, nd):
    """Lemire's eight-digit parse of words whose low ``nd`` bytes each hold
    a cell's digits, first digit lowest: ``(number, ok)``, where ``ok``
    holds for a word of 1 to 8 digits and nothing else."""
    x = (x << _ALIGN_SHIFTS.take(nd)) | _ALIGN_ZEROS.take(nd)
    ok = ((x & _HIGH_NIBBLES)
          | (((x + _SIXES) & _HIGH_NIBBLES) >> np.uint64(4))) == _THREES
    x -= _ZEROS
    x = x * np.uint64(10) + (x >> np.uint64(8))  # digit pairs
    x = ((x & _PAIR_MASK) * _MUL_HI
         + ((x >> np.uint64(16)) & _PAIR_MASK) * _MUL_LO) >> np.uint64(32)
    return x, ok


def _word_bulk(fields: np.ndarray, lengths, row: _Type):
    """``_cast_bulk`` of an ``S8`` array by word arithmetic: one
    little-endian 64-bit word per cell, ``lengths`` bytes of which are the
    cell's.  Integer cells ``-?D+`` and, in a float column, short decimals
    ``-?D*.D*`` are read here; a real is ``m / 10**k`` with m < 10**8 and
    k <= 7, so it is exactly the correctly rounded value the cast gives.
    Every other non-null cell goes to the cast, so the results are the
    cast's."""
    w = fields.view("<u8")
    mask = (w == 0) | (w == _NA_WORD)
    neg = (w & np.uint64(0xFF)) == ord("-")
    w = w >> neg * np.uint64(8)
    n = lengths.astype(np.uint64) - neg
    if row.dtype is np.float64:
        # the first '.' is the lowest zero byte of w ^ '.'*8: low keeps
        # the top bit of that byte alone, 2**(8 * index + 7), or is 0
        d = w ^ _DOTS
        low = (d - _ONES) & ~d & _HIGH_BITS
        low &= np.uint64(0) - low
        # drop the point: keep the bytes below it, move those above down
        below = (low >> np.uint64(7)) - np.uint64(1)
        w = (w & below) | ((w >> np.uint64(8)) & ~below)
        dot = low != 0
        n -= dot
        # the digits after it: n less its index, which is low's float
        # exponent, 8 * index + 7, over 8 (the exponent's bias adds 128)
        index = (low.astype(np.float64).view(np.uint64) >> np.uint64(55)
                 ) - np.uint64(128)
        m, ok = _word_digits(w, n)
        values = m.astype(np.float64)
        values /= _DIVISORS.take((n - index) * dot)
    else:
        m, ok = _word_digits(w, n)
        values = m.astype(np.int64)
    np.negative(values, out=values, where=neg)  # -0 reads as -0.0
    ok |= mask
    failures = 0
    if not ok.all():
        rest = np.flatnonzero(~ok)
        values[rest], mask[rest], failures = _cast_bulk(fields[rest], row)
    values[mask] = row.fill
    return values, mask, failures


def _cast_bulk(fields, row: _Type, lengths=None):
    if (lengths is not None and row.cast_null is not None
            and fields.dtype == "S8"):
        return _word_bulk(fields, lengths, row)
    mask = _null_mask(fields)
    if row.cast_null is None:
        # no cast reads the type's grammar: each non-null cell is read alone
        values = np.full(len(fields), row.fill, row.dtype)
        bad = np.flatnonzero(~mask).tolist()
    else:
        a = fields  # np.where widens it to hold the placeholder
        if mask.any():
            a = np.where(mask, np.bytes_(row.cast_null), a)
        try:
            return a.astype(row.dtype), mask, 0
        except (ValueError, OverflowError):
            pass
        # cast again block by block, and read only the cells no cast takes
        values = np.empty(len(a), row.dtype)
        bad = []
        for lo in range(0, len(a), _BLOCK_ROWS):
            _cast_or_bisect(a, values, lo, min(lo + _BLOCK_ROWS, len(a)), bad)
    failures = 0
    for i in bad:
        try:
            values[i] = row.read(fields[i])
        except ValueError:
            values[i] = row.fill
            mask[i] = True
            failures += 1
    return values, mask, failures


def _cast_or_bisect(a, values, lo: int, hi: int, bad: list):
    """Cast ``a[lo:hi]`` into ``values``; where the cast fails, halve the
    range until the cells it rejects are found, and append their indices to
    ``bad``."""
    try:
        values[lo:hi] = a[lo:hi].astype(values.dtype)
    except (ValueError, OverflowError):
        if hi - lo == 1:
            bad.append(lo)
            return
        mid = (lo + hi) // 2
        _cast_or_bisect(a, values, lo, mid, bad)
        _cast_or_bisect(a, values, mid, hi, bad)


def _gather(data: bytes, starts: np.ndarray, ends: np.ndarray, nuls=None,
            quoted=None):
    """``(fields, lengths, wide)``: the fields ``data[s:e]`` as one ``S``
    array, their byte counts, and ``wide``, which maps the index of each
    field the array cannot hold exactly to its bytes and leaves its slot
    empty.  Those are a field holding a NUL, given ``_nuls(data)``, since
    an ``S`` array strips a trailing one; a field too long to widen every
    field to without making the array over four times ``data``; and a
    field flagged ``quoted`` and spelled like a null, which is a value.
    Each field is copied as whole 64-bit words from its start, and the
    words are masked past its end; a field within a window of the end of
    ``data`` is copied from a padded copy of that window."""
    lens = ends - starts
    longest = int(lens.max(initial=0))
    # the width, in whole 64-bit words, that every field may be widened to
    # while the array stays within four times data
    cap = max(4 * len(data) // max(len(lens), 1) // 8 * 8, 8)
    odd = lens > cap if longest > cap else False  # False: no mask built
    if nuls is not None:
        odd = odd | (np.searchsorted(nuls, ends)
                     > np.searchsorted(nuls, starts))
    if odd is not False:
        lens = np.where(odd, 0, lens)
        longest = int(lens.max(initial=0))
    width = max(-(-longest // 8) * 8, 8)
    cut = max(len(data) + 1 - width, 0)  # a window from here on runs past
    tail = np.ndarray((len(data) + 1 - cut,), dtype=f"S{width}",
                      buffer=data[cut:] + bytes(width), strides=(1,))
    if cut:
        windows = np.ndarray((cut,), dtype=f"S{width}", buffer=data,
                             strides=(1,))
        fields = windows[np.minimum(starts, cut - 1)]
        late = np.flatnonzero(starts >= cut)
        fields[late] = tail[starts[late] - cut]
    else:
        fields = tail[starts]
    words = fields.view("<u8").reshape(len(fields), width // 8)
    words &= _BYTE_MASKS[np.clip(lens - np.arange(0, width, 8)[:, None],
                                 0, 8)].T
    if quoted is not None:
        odd = odd | quoted & _null_mask(fields)
    if odd is False:
        return fields, lens, {}
    return fields, lens, {i: data[starts[i]:ends[i]]
                          for i in np.flatnonzero(odd).tolist()}


def _nuls(data: bytes):
    """The positions of the NUL bytes in ``data``, or None if it has none."""
    return (np.flatnonzero(np.frombuffer(data, np.uint8) == 0)
            if b"\x00" in data else None)


def _text_bulk(fields: np.ndarray, ctype):
    # one join, one decode and one split for the whole column, joined
    # straight from the array with no bytes object per field: its NULs are
    # all padding, a field holds no LF, and a UTF-8 sequence cannot run
    # across one
    n = len(fields)
    if not n:
        return [], np.zeros(0, np.bool_), 0
    u = np.full((n, fields.dtype.itemsize + 1), 10, np.uint8)
    u[:, :-1] = fields.view(np.uint8).reshape(n, -1)
    joined = u[u != 0][:-1].tobytes()
    cells = (joined.decode("utf-8", "surrogateescape").split("\n")
             if ctype is ColumnType.CHARACTER else joined.split(b"\n"))
    mask = _null_mask(fields)
    for i in np.flatnonzero(mask).tolist():
        cells[i] = None
    return cells, mask, 0


def convert_column(fields: np.ndarray, ctype: ColumnType, lengths=None,
                   wide=None):
    """Coerce a column of raw fields to ``(values, mask, n_failures)``.

    ``fields`` is an ``S`` array of NUL-free fields, and ``wide`` maps the
    index of each field it cannot hold to that field's bytes: a field with
    a NUL, one too long to widen the array to, or a quoted null spelling,
    which is a value.  Its slot in ``fields`` is empty.  The array is read
    in bulk, where each ``wide`` slot reads as a null, and then each
    ``wide`` field is read alone, as a value or a failure: only Character
    and Bytes read a NUL, ``""`` or ``NA``.  ``lengths``, each field's byte
    count, lets the numeric types read an ``S8`` array by word arithmetic
    (see :func:`_word_bulk`).

    ``values`` is a numpy array (Character and Bytes columns use Python lists
    instead), ``mask`` flags null slots, and ``n_failures`` counts malformed
    non-null fields.  Null slots hold a type-specific placeholder: False, 0,
    NaN, NaN+NaNi, or None.
    """
    row = _TYPES[ctype]
    if row.dtype is None:
        values, mask, failures = _text_bulk(fields, ctype)
    elif ctype is ColumnType.LOGICAL:
        values, mask, failures = _logical_bulk(fields)
    else:
        values, mask, failures = _cast_bulk(fields, row, lengths)
    for i, cell in (wide or {}).items():
        try:
            values[i], mask[i] = row.read(cell), False
        except ValueError:
            failures += 1
    return values, mask, failures


def spell_column(values, mask: np.ndarray, ctype: ColumnType):
    """Spell a column (1-D) or matrix (2-D) of cells as ``(block, keep,
    wide)``: the inverse of :func:`convert_column`.

    ``block`` is a uint8 array with one row of bytes per cell along its last
    axis, ending in one spare byte for the writer's separator; ``keep`` marks
    the cell's bytes and the spare byte.  ``wide`` maps the flat index of a
    cell the block does not hold (see :func:`_gather`) to its bytes.  Masked
    slots spell ``NA``; every other cell parses back to its value (floats
    bit for bit).  A text cell holding LF raises SeparatorCollision."""
    block, keep, wide = _TYPES[ctype].spell(values, mask)
    if mask.any():
        na = np.zeros(block.shape[-1], np.bool_)
        na[[0, 1, -1]] = True
        block[mask, :2] = np.frombuffer(b"NA", np.uint8)
        keep[mask] = na
        wide = {i: cell for i, cell in wide.items() if not mask.flat[i]}
    return block, keep, wide
