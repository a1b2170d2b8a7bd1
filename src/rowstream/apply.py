"""Drive a function over record-aligned chunks, three ways.

Modes: ``sequential`` (read, compute, repeat), ``pipeline`` (master reads and
prefetches one chunk ahead while up to ``parallel`` workers compute), and
``split`` (workers read their own byte ranges of the file).  Chunk boundaries
are identical in every mode — see chunker — so for a pure ``f`` the three
modes return element-wise identical result lists, in chunk order.

The function receives the chunk's bytes.  With a process executor (the
default) it must be picklable: a module-level function or functools.partial.

An optional ``on_event`` callback observes the master's scheduling actions as
``(kind, seq)`` pairs, kinds ``read_start``/``read_end``/``dispatch``/
``collect`` (the read that discovers end-of-stream emits ``read_end`` with
seq -1).  Events fire on the master thread only; split mode, where workers do
their own reading, emits none.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .chunker import (
    ChunkerConfig,
    _raw_chunks,
    _scan_for_sep,
    byte_range_splits,
    iter_chunks,
)
from .errors import NotSeekable, WorkerFailure

__all__ = ["MODES", "ApplyConfig", "chunk_apply", "iter_chunks"]

MODES = ("sequential", "pipeline", "split")


@dataclass(frozen=True)
class ApplyConfig:
    """Execution strategy for chunk_apply.

    ``parallel`` bounds in-flight computations; pipeline with parallel=1
    degenerates to sequential plus a one-chunk prefetch.  ``executor``
    selects process (default) or thread workers.
    """

    mode: str = "sequential"
    parallel: int = 1
    chunker: ChunkerConfig = field(default_factory=ChunkerConfig)
    executor: str = "process"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.parallel < 1:
            raise ValueError("parallel must be >= 1")
        if self.executor not in ("process", "thread"):
            raise ValueError("executor must be 'process' or 'thread'")


def _make_executor(kind: str, workers: int):
    if kind == "thread":
        return ThreadPoolExecutor(max_workers=workers)
    return ProcessPoolExecutor(max_workers=workers)


def _event_chunks(source, cfg: ChunkerConfig, on_event):
    it = iter_chunks(source, cfg)
    seq = 0
    while True:
        if on_event is not None:
            on_event("read_start", seq)
        chunk = next(it, None)
        if on_event is not None:
            on_event("read_end", seq if chunk is not None else -1)
        if chunk is None:
            return
        yield chunk
        seq += 1


def _run_sequential(source, f, cfg: ApplyConfig, on_event) -> list:
    results = []
    for chunk in _event_chunks(source, cfg.chunker, on_event):
        if on_event is not None:
            on_event("dispatch", chunk.seq)
        try:
            result = f(chunk.data)
        except Exception as exc:
            raise WorkerFailure(chunk.seq, exc) from exc
        if on_event is not None:
            on_event("collect", chunk.seq)
        results.append(result)
    return results


def _run_pipeline(source, f, cfg: ApplyConfig, on_event) -> list:
    results = []
    chunks = _event_chunks(source, cfg.chunker, on_event)
    with _make_executor(cfg.executor, cfg.parallel) as pool:
        inflight = deque()

        def dispatch(chunk):
            future = pool.submit(f, chunk.data)
            if on_event is not None:
                on_event("dispatch", chunk.seq)
            inflight.append((chunk.seq, future))

        exhausted = False
        while not exhausted and len(inflight) < cfg.parallel:
            chunk = next(chunks, None)
            if chunk is None:
                exhausted = True
            else:
                dispatch(chunk)
        prefetched = None
        while inflight:
            if not exhausted and prefetched is None:
                prefetched = next(chunks, None)
                if prefetched is None:
                    exhausted = True
            seq, future = inflight.popleft()
            try:
                result = future.result()
            except Exception as exc:
                for _, pending in inflight:
                    pending.cancel()
                pool.shutdown(wait=False, cancel_futures=True)
                raise WorkerFailure(seq, exc) from exc
            if on_event is not None:
                on_event("collect", seq)
            results.append(result)
            if prefetched is not None:
                dispatch(prefetched)
                prefetched = None
    return results


def _split_worker(path, win_lo, win_hi, cfg: ChunkerConfig, f):
    target = cfg.target_bytes
    w0 = win_lo * target
    w1 = win_hi * target
    results = []
    with open(path, "rb") as stream:
        if w0 == 0:
            start = 0
        else:
            at = _scan_for_sep(stream, w0 - 1)
            if at == -1:
                return "ok", results
            start = at + 1
        stream.seek(start)
        for i, data in enumerate(_raw_chunks(stream, cfg, start, w1)):
            try:
                results.append(f(data))
            except Exception as exc:
                return "err", i, exc
    return "ok", results


def _run_split(source, f, cfg: ApplyConfig) -> list:
    if isinstance(source, (str, Path)):
        path = os.fspath(source)
    else:
        path = getattr(source, "name", None)
        if not isinstance(path, str) or not os.path.exists(path):
            raise NotSeekable(
                "split mode reads byte ranges by path; pass a file path"
            )
    size = os.path.getsize(path)
    if size == 0:
        return []
    n_windows = -(-size // cfg.chunker.target_bytes)
    n_workers = min(cfg.parallel, n_windows)
    parts = byte_range_splits(n_windows, n_workers)
    with _make_executor(cfg.executor, n_workers) as pool:
        futures = [
            pool.submit(_split_worker, path, lo, lo + span, cfg.chunker, f)
            for lo, span in parts
            if span > 0
        ]
        outcomes = [future.result() for future in futures]
    results = []
    for outcome in outcomes:
        if outcome[0] == "ok":
            results.extend(outcome[1])
        else:
            _, local_idx, exc = outcome
            raise WorkerFailure(len(results) + local_idx, exc) from exc
    return results


def chunk_apply(
    source,
    f: Callable,
    cfg: Optional[ApplyConfig] = None,
    on_event=None,
) -> list:
    """Apply ``f`` to every chunk of ``source``; results in chunk order.

    Each record is processed exactly once in every mode.  A failure inside
    ``f`` aborts the run as WorkerFailure carrying the failing chunk's seq;
    no partial result list is returned.
    """
    cfg = cfg or ApplyConfig()
    if cfg.mode == "sequential":
        return _run_sequential(source, f, cfg, on_event)
    if cfg.mode == "pipeline":
        return _run_pipeline(source, f, cfg, on_event)
    return _run_split(source, f, cfg)
