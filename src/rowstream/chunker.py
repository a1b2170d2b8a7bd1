"""Record-aligned chunking of delimited byte streams.

A chunk is a contiguous slice of the input that ends on a record separator
(except possibly the last chunk) and never splits a record.  Records end at
LF, even inside a quoted region (see ``frame``); the chunker only searches
for it.  Chunk boundaries are a pure function of byte positions, not of how
the stream is read: the stream is divided into fixed windows of
``target_bytes``, and the chunk for window ``k`` ends at the first separator
at or past the window's last byte.  Consecutive windows whose chunks would
be empty are absorbed into the chunk that ends past them.  Because the rule only looks at absolute
positions, any byte range of the file can be chunked independently and the
pieces agree exactly with a single sequential pass.

A record longer than ``8 * target_bytes`` raises RecordTooLarge.  Every
record that ends before its window's last byte is shorter than one window,
so only the record that crosses that byte (or the unterminated tail) can
exceed the cap, and it is the only one checked, when its chunk is cut.

Reads stop at the window: the rest of a window is read in one call, and the
record that crosses its last byte is read on ``_READ_SIZE`` bytes at a time
(at most ``target_bytes``).  So the chunker holds about two chunks while it
cuts one, whatever the target, and never copies a growing buffer.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Union

from .errors import RecordTooLarge

# bytes per read past a window's last byte, while seeking the LF that ends it
_READ_SIZE = 1 << 13

Source = Union[str, Path, BinaryIO, bytes]

_SEP = b"\n"


@dataclass(frozen=True)
class ChunkerConfig:
    """Tuning knob for the chunker.

    target_bytes is a soft chunk size: chunks run past it only as far as the
    next record separator.  A record longer than eight targets (separator
    excluded) is taken as malformed input and raises RecordTooLarge.  The
    default, 1 MiB, was the fastest of 256 KiB, 1 MiB, 4 MiB and 32 MiB
    for ``mm``, ``parse`` and ``fit`` on 12-30 MB inputs, and a process's
    peak memory grows with it.
    """

    target_bytes: int = 1024 * 1024

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
    step = min(_READ_SIZE, target)
    base = start  # position of the chunk's first byte
    if start > 0:
        base = start - 1
        stream.seek(base, io.SEEK_CUR)
    rest = b""  # bytes read past the last cut
    while stop is None or base < stop:
        first = (base // target + 1) * target - 1 - base  # window's last byte
        chunk, rest, cut = _read_to_cut(stream, rest, first, step, cap)
        # records ending before ``first`` are shorter than a window; only the
        # one crossing it can be over the cap
        record = chunk.rfind(_SEP, 0, first) + 1
        end = len(chunk) if cut == -1 else cut
        if end - record > cap:
            raise RecordTooLarge(f"record near byte {base + record} exceeds "
                                 f"hard cap of {cap} bytes")
        if chunk and base != start - 1:
            yield chunk
        if cut == -1:
            return
        base += cut + 1


def _read_to_cut(stream: BinaryIO, rest: bytes, first: int, step: int,
                 cap: int):
    """``(chunk, rest, cut)``: the bytes from ``rest`` on through the first
    separator at or past offset ``first``, the bytes read past it, and its
    offset.  The rest of the window is read in one call, then ``step``
    bytes at a time.  ``cut`` is -1 when the stream ends, or runs over
    ``cap`` bytes past ``first``, with no separator; ``chunk`` then holds
    everything read."""
    pieces, size = [rest], len(rest)
    cut = rest.find(_SEP, first)
    eof = False
    while cut == -1 and not eof and size - first <= cap:
        data = stream.read(first + 1 - size if size <= first else step)
        eof = not data
        hit = data.find(_SEP, max(first - size, 0))
        if hit != -1:
            cut = size + hit
        pieces.append(data)
        size += len(data)
    past = size - (size if cut == -1 else cut + 1)
    last = pieces.pop()
    pieces.append(last[:len(last) - past])
    return b"".join([p for p in pieces if p]), last[len(last) - past:], cut


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
