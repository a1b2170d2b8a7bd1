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
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Union

from .errors import RecordTooLarge

_READ_SIZE = 1 << 20

Source = Union[str, Path, BinaryIO, bytes]

_SEP = b"\n"


@dataclass(frozen=True)
class ChunkerConfig:
    """Tuning knob for the chunker.

    target_bytes is a soft chunk size: chunks run past it only as far as the
    next record separator.  A record longer than eight targets (separator
    excluded) is taken as malformed input and raises RecordTooLarge.
    """

    target_bytes: int = 32 * 1024 * 1024

    def __post_init__(self):
        if self.target_bytes < 1:
            raise ValueError("target_bytes must be positive")


@dataclass(frozen=True)
class Chunk:
    """One record-aligned slice of the input stream."""

    data: bytes
    seq: int


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

    With ``start`` 0 the stream is read from where it stands.  A ``start``
    past 0 must be a multiple of ``target_bytes`` and the stream seekable:
    the record that holds byte ``start - 1`` belongs to the chunk of the
    window before, so everything through the first separator at or past
    ``start - 1`` is skipped.  ``stop``, when given, must be a multiple of
    ``target_bytes``; the final chunk then runs to the first separator at or
    past ``stop - 1``, so records beginning at ``stop`` or later are left
    untouched.
    """
    target = cfg.target_bytes
    cap = 8 * target
    buf = b""
    base = start  # absolute position of buf[0]
    if start > 0:
        pos = start - 1  # absolute position of data[0]
        stream.seek(pos)
        while True:
            data = stream.read(_READ_SIZE)
            if not data:
                return
            j = data.find(_SEP)
            if j != -1:
                break
            pos += len(data)
        base = pos + j + 1
        buf = data[j + 1 :]
    # separator-free bytes accumulated before the next read
    tail = _audit_record_lengths(buf, 0, cap, base)
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

    Chunks carry a gapless sequence number starting at zero, and each is
    yielded as soon as it is cut.  An empty source yields nothing.
    """
    cfg = cfg or ChunkerConfig()
    stream, owned = _open_source(source)
    try:
        for seq, data in enumerate(_raw_chunks(stream, cfg, 0, None)):
            yield Chunk(data, seq)
    finally:
        if owned:
            stream.close()
