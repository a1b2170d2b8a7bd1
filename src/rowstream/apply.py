"""Drive a function over record-aligned chunks, three ways.

Modes: ``sequential`` (read, compute, repeat), ``pipeline`` (master reads the
next chunk while up to ``parallel`` workers compute), and ``split`` (each
worker runs the sequential loop over its own byte range of the file).  Chunk
boundaries are identical in every mode — see chunker — so for a pure ``f``
the three modes return element-wise identical result lists, in chunk order.

The function receives the chunk's bytes.  The pooled modes run it in worker
processes, forked with ``os.fork`` when the pool starts; they are for Linux,
as a fork on macOS is unsafe once system libraries have started threads.
The master talks to each worker over a pipe each way, so ``f``, its
arguments and its results must pickle: ``f`` is a module-level function or a
functools.partial of one.  A worker that dies, killed by a signal or the OOM
killer, fails its chunk with ChildProcessError.  The workers are killed when
the pool ends, so a failure, or a caller that stops early, does not wait for
abandoned work; what ``f`` writes to the std streams is flushed before each
result is sent.  A pool never has more workers than the input has windows
when the input's size is known: bytes, or a regular file given by path or by
an open file object (not a ``GzipFile``, which is a stream).  A pooled mode
left with one worker runs the sequential loop, and its events are the
sequential ones.  Split mode needs such a file.  Every mode reads an open
file object from where it stands.  The sequential and pipeline modes also
take an iterable of chunk payloads, record-aligned ``bytes`` the caller has
already cut, and apply the function to each as a chunk.

``iter_apply`` yields the results lazily, in chunk order, each as soon as it
and every result before it are done; ``chunk_apply`` is its list.

An optional ``on_event`` callback observes the master's scheduling actions as
``(kind, seq)`` pairs, kinds ``read_start``/``read_end``/``dispatch``/
``collect`` (the read that discovers end-of-stream emits ``read_end`` with
seq -1).  Events fire on the master thread only; split mode, where workers do
their own reading, emits none unless it is left with one worker.
"""

from __future__ import annotations

import io
import os
from collections import deque
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Callable, Iterator, Optional

from .chunker import Chunk, ChunkerConfig, _raw_chunks, iter_chunks
from .errors import NotSeekable, WorkerFailure

MODES = ("sequential", "pipeline", "split")


@dataclass(frozen=True)
class ApplyConfig:
    """Execution strategy for chunk_apply.

    ``parallel`` bounds in-flight computations; a pooled mode left with one
    worker runs the sequential loop, and its events are the sequential ones.
    """

    mode: str = "sequential"
    parallel: int = 1
    chunker: ChunkerConfig = field(default_factory=ChunkerConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.parallel < 1:
            raise ValueError("parallel must be >= 1")


def _extent(source):
    """``(path, origin, size)``: the regular file ``source`` names or reads,
    where an open file object stands in it, and the bytes from there on.
    Bytes have no path; a pipe, a device or another stream, such as a
    ``GzipFile`` whose name is its compressed file, has no size either."""
    if isinstance(source, (bytes, bytearray)):
        return None, 0, len(source)
    path = source
    if not isinstance(source, (str, Path)):
        plain = isinstance(getattr(source, "raw", source), io.FileIO)
        path = source.name if plain else None
    if not isinstance(path, (str, Path)) or not os.path.isfile(path):
        return None, 0, None
    origin = 0 if path is source else source.tell()
    return os.fspath(path), origin, os.path.getsize(path) - origin


def _pool_size(size, cfg: ApplyConfig) -> int:
    """``parallel``, but no more than the windows in ``size`` bytes when the
    size is known: every chunk spans at least one window, so more workers
    would sit idle."""
    if size is None:
        return cfg.parallel
    return max(1, min(cfg.parallel, -(-size // cfg.chunker.target_bytes)))


def _no_event(kind, seq):
    pass


def _event_chunks(source, cfg: ChunkerConfig, on_event):
    if isinstance(source, (str, Path, bytes, bytearray)) or hasattr(
            source, "read"):
        chunks = iter_chunks(source, cfg)
    else:
        chunks = map(Chunk, source, count())
    for seq in count():
        on_event("read_start", seq)
        chunk = next(chunks, None)
        on_event("read_end", -1 if chunk is None else seq)
        if chunk is None:
            return
        yield chunk


def _run_sequential(chunks, f, on_event=_no_event):
    for chunk in chunks:
        on_event("dispatch", chunk.seq)
        try:
            result = f(chunk.data)
        except Exception as exc:
            raise WorkerFailure(chunk.seq, exc) from exc
        on_event("collect", chunk.seq)
        yield result


def _run_pipeline(source, f, cfg: ApplyConfig, workers, on_event):
    """Read a chunk, collect the oldest computation if ``parallel`` are in
    flight, then dispatch before yielding what was collected; so the next
    read, and the caller's use of a result, overlap the running work."""
    # compiled only by the runs that start a pool
    from ._forkpool import ForkPool

    inflight = deque()
    pool = ForkPool(workers)

    def collect():
        seq, future = inflight.popleft()
        try:
            result = future.result()
        except Exception as exc:
            raise WorkerFailure(seq, exc) from exc
        on_event("collect", seq)
        return result

    chunks = _event_chunks(source, cfg.chunker, on_event)
    try:
        while True:
            try:
                chunk = next(chunks, None)
            except Exception:
                # the chunks read before a failed read come first
                while inflight:
                    yield collect()
                raise
            if chunk is None:
                break
            full = len(inflight) == cfg.parallel
            if full:
                result = collect()
            inflight.append((chunk.seq, pool.submit(f, chunk.data)))
            on_event("dispatch", chunk.seq)
            if full:
                yield result
        while inflight:
            yield collect()
    finally:
        # a failure, or a caller that stops early, leaves work in flight
        pool.shutdown()


def _split_worker(path, origin, win_lo, win_hi, cfg: ChunkerConfig, f):
    target = cfg.target_bytes
    with open(path, "rb") as stream:
        stream.seek(origin)
        raw = _raw_chunks(stream, cfg, win_lo * target, win_hi * target)
        return list(_run_sequential(map(Chunk, raw, count()), f))


def _run_split(path, origin, size, f, cfg: ApplyConfig, workers):
    from ._forkpool import ForkPool

    per, extra = divmod(-(-size // cfg.chunker.target_bytes), workers)
    edges = [i * per + min(i, extra) for i in range(workers + 1)]
    done = 0
    with ForkPool(workers) as pool:
        futures = [
            pool.submit(_split_worker, path, origin, lo, hi, cfg.chunker, f)
            for lo, hi in zip(edges, edges[1:])
        ]
        for future in futures:
            try:
                results = future.result()
            except WorkerFailure as exc:
                # a worker numbers its chunks from 0, after all of the
                # earlier workers' chunks
                raise WorkerFailure(done + exc.seq, exc.cause) from exc.cause
            done += len(results)
            yield from results


def iter_apply(
    source,
    f: Callable,
    cfg: Optional[ApplyConfig] = None,
    on_event=None,
) -> Iterator:
    """Apply ``f`` to every chunk of ``source``; yield results in chunk order.

    Each record is processed exactly once in every mode.  A failure inside
    ``f`` raises WorkerFailure carrying the failing chunk's seq once every
    result before it has been yielded.  The pooled modes shut their pool
    down when the iterator ends, fails or is closed.  Nothing is read or
    started before the first result is asked for.
    """
    cfg = cfg or ApplyConfig()
    on_event = on_event or _no_event
    path, origin, size = _extent(source)
    if cfg.mode == "split" and path is None:
        raise NotSeekable(
            f"split mode reads byte ranges of a regular file; got {source!r}"
        )
    workers = 1 if cfg.mode == "sequential" else _pool_size(size, cfg)
    if workers == 1:
        chunks = _event_chunks(source, cfg.chunker, on_event)
        yield from _run_sequential(chunks, f, on_event)
    elif cfg.mode == "pipeline":
        yield from _run_pipeline(source, f, cfg, workers, on_event)
    else:
        yield from _run_split(path, origin, size, f, cfg, workers)


def chunk_apply(
    source,
    f: Callable,
    cfg: Optional[ApplyConfig] = None,
    on_event=None,
) -> list:
    """Apply ``f`` to every chunk of ``source``; results in chunk order.

    The list of :func:`iter_apply`.  A failure inside ``f`` aborts the run
    as WorkerFailure carrying the failing chunk's seq; no partial result
    list is returned.
    """
    return list(iter_apply(source, f, cfg, on_event))
