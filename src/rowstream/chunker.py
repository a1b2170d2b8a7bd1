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

A record longer than ``8 * target_bytes`` raises RecordTooLarge.  Every
record that ends before its window's last byte is shorter than one window,
so only the record that crosses that byte (or the unterminated tail) can
exceed the cap, and it is the only one checked, when its chunk is cut.
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


def _raw_chunks(
    stream: BinaryIO, cfg: ChunkerConfig, start: int, stop: int | None
) -> Iterator[bytes]:
    """Yield raw chunk payloads for records starting in ``[start, stop)``.

    Positions count from where the stream stands.  A ``start`` past 0 must
    be a multiple of ``target_bytes`` and the stream seekable: the record
    that holds byte ``start - 1`` belongs to the chunk of the window before,
    so everything through the first separator at or past ``start - 1`` is
    cut as a chunk from there and dropped (if it is over the cap, so is the
    chunk of the window before, which reports it first).  ``stop``, when
    given, must be a multiple of ``target_bytes``; the final chunk then runs
    to the first separator at or past ``stop - 1``, so records beginning at
    ``stop`` or later are left untouched.
    """
    target = cfg.target_bytes
    cap = 8 * target
    base = start  # position of buf[0]
    if start > 0:
        base = start - 1
        stream.seek(base, io.SEEK_CUR)
    buf = b""
    eof = False
    while stop is None or base < stop:
        first = (base // target + 1) * target - 1 - base  # window's last byte
        search_from = first
        while True:
            cut = buf.find(_SEP, search_from)
            if cut != -1 or eof or len(buf) - first > cap:
                break
            search_from = max(len(buf), first)
            data = stream.read(_READ_SIZE)
            eof = not data
            buf += data
        # records ending before ``first`` are shorter than a window; only the
        # one crossing it can be over the cap
        record = buf.rfind(_SEP, 0, first) + 1
        end = len(buf) if cut == -1 else cut
        if end - record > cap:
            raise RecordTooLarge(f"record near byte {base + record} exceeds "
                                 f"hard cap of {cap} bytes")
        if buf and base != start - 1:
            yield buf[: end + 1]
        if cut == -1:
            return
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
