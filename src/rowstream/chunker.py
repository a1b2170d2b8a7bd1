"""Record-aligned chunking of delimited byte streams.

A chunk is a contiguous slice of the input that ends on a record separator
(except possibly the last chunk) and never splits a record.  Records end at
LF (see ``frame.tokenize``); the chunker only searches for it.  Chunk
boundaries are a pure function of byte positions, not of how the stream is
read: the stream is divided into fixed windows of ``target_bytes``, and the
chunk for window ``k`` ends at the first separator at or past the window's
last byte.  Consecutive windows whose chunks would be empty are absorbed into
the chunk that ends past them.  Because the rule only looks at absolute
positions, any byte range of the file can be chunked independently and the
pieces agree exactly with a single sequential pass.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Union

from .errors import NotSeekable, RecordTooLarge

_READ_SIZE = 1 << 20

Source = Union[str, Path, BinaryIO, bytes]

_SEP = b"\n"


@dataclass(frozen=True)
class ChunkerConfig:
    """Tuning knobs for the chunker.

    target_bytes is a soft chunk size: chunks run past it only as far as the
    next record separator.  hard_cap_bytes bounds the length of any single
    record before the input is considered malformed; it defaults to eight
    times the target.
    """

    target_bytes: int = 32 * 1024 * 1024
    hard_cap_bytes: int = 0

    def __post_init__(self):
        if self.target_bytes < 1:
            raise ValueError("target_bytes must be positive")
        if self.hard_cap_bytes == 0:
            object.__setattr__(self, "hard_cap_bytes", 8 * self.target_bytes)
        if self.hard_cap_bytes < self.target_bytes:
            raise ValueError("hard_cap_bytes must be >= target_bytes")


@dataclass(frozen=True)
class Chunk:
    """One record-aligned slice of the input stream."""

    data: bytes
    seq: int
    is_last: bool


def _open_source(source: Source) -> tuple[BinaryIO, bool]:
    if isinstance(source, (str, Path)):
        return open(source, "rb"), True
    if isinstance(source, (bytes, bytearray)):
        return io.BytesIO(bytes(source)), True
    return source, False


def _audit_record_lengths(data: bytes, tail: int, cap: int, at: int) -> int:
    """Extend the running separator-free byte count across ``data``.

    ``tail`` is the payload length accumulated since the last separator before
    this block; the return value is the same count after the block.  Raises
    RecordTooLarge as soon as any record's payload exceeds ``cap``.  The
    interior of a block is only scanned separator-by-separator when its total
    separator span is large enough to possibly hide an over-long record.
    """
    j = data.find(_SEP)
    if j == -1:
        tail += len(data)
        if tail > cap:
            raise RecordTooLarge(
                f"record near byte {at + len(data) - tail} exceeds "
                f"hard cap of {cap} bytes"
            )
        return tail
    if tail + j > cap:
        raise RecordTooLarge(
            f"record near byte {at - tail} exceeds hard cap of {cap} bytes"
        )
    k = data.rfind(_SEP)
    if k - j - 1 > cap:
        p = j
        while True:
            q = data.find(_SEP, p + 1)
            if q == -1:
                break
            if q - p - 1 > cap:
                raise RecordTooLarge(
                    f"record near byte {at + p + 1} exceeds "
                    f"hard cap of {cap} bytes"
                )
            p = q
    tail = len(data) - 1 - k
    if tail > cap:
        raise RecordTooLarge(
            f"record near byte {at + k + 1} exceeds hard cap of {cap} bytes"
        )
    return tail


def _raw_chunks(
    stream: BinaryIO, cfg: ChunkerConfig, start: int, stop: int | None
) -> Iterator[bytes]:
    """Yield raw chunk payloads for records starting in ``[start, stop)``.

    The stream must already be positioned at ``start``, and ``start`` must be
    the first byte of a record (byte ``start - 1`` is a separator, or start
    of file).  ``stop``, when given, must be a multiple of ``target_bytes``;
    the final chunk then runs to the first separator at or past ``stop - 1``,
    so records beginning at ``stop`` or later are left untouched.
    """
    target = cfg.target_bytes
    cap = cfg.hard_cap_bytes
    buf = b""
    base = start  # absolute position of buf[0]
    tail = 0  # separator-free bytes accumulated before the next read
    eof = False
    while stop is None or base < stop:
        boundary = (base // target + 1) * target
        search_from = max(boundary - 1 - base, 0)
        cut = -1
        while True:
            if search_from < len(buf):
                cut = buf.find(_SEP, search_from)
                if cut != -1:
                    break
                search_from = len(buf)
            if eof:
                break
            data = stream.read(_READ_SIZE)
            if not data:
                eof = True
                continue
            tail = _audit_record_lengths(data, tail, cap, base + len(buf))
            buf += data
        if cut == -1:
            if buf:
                yield buf
            return
        yield buf[: cut + 1]
        base += cut + 1
        buf = buf[cut + 1 :]


def iter_chunks(source: Source, cfg: ChunkerConfig | None = None) -> Iterator[Chunk]:
    """Stream record-aligned chunks from a path, stream, or bytes buffer.

    Chunks carry a gapless sequence number starting at zero; the final chunk
    has ``is_last`` set.  An empty source yields nothing.
    """
    cfg = cfg or ChunkerConfig()
    stream, owned = _open_source(source)
    try:
        pending: bytes | None = None
        seq = 0
        for data in _raw_chunks(stream, cfg, 0, None):
            if pending is not None:
                yield Chunk(pending, seq, False)
                seq += 1
            pending = data
        if pending is not None:
            yield Chunk(pending, seq, True)
    finally:
        if owned:
            stream.close()


def next_chunk(stream: BinaryIO, cfg: ChunkerConfig | None = None) -> bytes:
    """Read the next record-aligned chunk from ``stream``.

    Incremental form of :func:`iter_chunks` for callers that drive the read
    loop themselves.  The stream's current offset must sit on a record
    boundary (as it does after a previous ``next_chunk`` call).  Requires a
    seekable stream so the unconsumed tail can be pushed back; returns
    ``b""`` at end of input.
    """
    cfg = cfg or ChunkerConfig()
    try:
        start = stream.tell()
    except (OSError, io.UnsupportedOperation) as exc:
        raise NotSeekable("next_chunk requires a seekable stream") from exc
    for data in _raw_chunks(stream, cfg, start, None):
        stream.seek(start + len(data))
        return data
    return b""


def byte_range_splits(file_size: int, n_splits: int) -> list[tuple[int, int]]:
    """Partition ``[0, file_size)`` into ``n_splits`` near-equal ranges.

    Returns (offset, length) pairs in file order; sizes differ by at most one
    byte, with the remainder going to the earliest ranges.  Lengths may be
    zero when there are more splits than bytes.
    """
    if n_splits < 1:
        raise ValueError("n_splits must be positive")
    if file_size < 0:
        raise ValueError("file_size must be non-negative")
    base, rem = divmod(file_size, n_splits)
    splits = []
    offset = 0
    for i in range(n_splits):
        length = base + (1 if i < rem else 0)
        splits.append((offset, length))
        offset += length
    return splits


def _scan_for_sep(stream: BinaryIO, pos: int) -> int:
    """Absolute position of the first separator at or past ``pos``, or -1."""
    stream.seek(pos)
    while True:
        data = stream.read(_READ_SIZE)
        if not data:
            return -1
        j = data.find(_SEP)
        if j != -1:
            return pos + j
        pos += len(data)


def adjust_split(stream: BinaryIO, offset: int, length: int) -> tuple[int, int]:
    """Snap a byte range outward to record boundaries.

    The adjusted range covers exactly the records whose first byte lies in
    ``[offset, offset + length)``: it starts at the first record boundary at
    or past ``offset`` and ends just past the separator that terminates the
    last owned record (or at end of file for an unterminated final record).
    Adjusted ranges of adjacent splits therefore tile the file with no gaps
    or duplicates.
    """
    if offset < 0 or length < 0:
        raise ValueError("offset and length must be non-negative")
    stream.seek(0, os.SEEK_END)
    size = stream.tell()
    if offset == 0:
        start = 0
    else:
        at = _scan_for_sep(stream, offset - 1)
        start = at + 1 if at != -1 else size
    if length == 0:
        return start, start
    at = _scan_for_sep(stream, offset + length - 1)
    end = at + 1 if at != -1 else size
    return start, max(end, start)
