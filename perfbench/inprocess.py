"""The CLI commands re-enacted in-process, with optional spans per layer call.

Each ``run_*`` function calls rowstream's public functions in the order the
matching ``rowstream`` subcommand does (see src/rowstream/cli.py) and wraps
every call into a layer in a span named ``<layer>.<function>``.  With a
``NullTracer`` the same code runs untraced; the ratio of the two wall times
is the tracing overhead.

For the parallel fit modes the function handed to ``chunk_apply`` is
``fit_chunk`` below: it calls ``parse_matrix`` then ``accumulate`` and
returns its spans and its process id together with its result.
``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, so worker and master
timestamps share one clock.

The caller must put rowstream's source directory on ``sys.path`` before
importing this module.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import replace
from functools import partial

import numpy as np

from rowstream import (
    ApplyConfig,
    ChunkerConfig,
    ColumnType,
    FactorTerm,
    NormalEqAccumulator,
    NumericTerm,
    ParseReport,
    Schema,
    TermSpec,
    accumulate,
    append_to_checkpoint,
    chunk_apply,
    expand,
    format_frame,
    format_matrix,
    infer_schema,
    iter_chunks,
    merge,
    normalize_hhmm_column,
    parse_frame,
    parse_frame_with_header,
    parse_matrix,
    read_sidecar,
    solve_ne,
    spec_names,
    write_sidecar,
)

from workloads import AIRLINE_RESPONSE

LETTERS = {
    "l": ColumnType.LOGICAL,
    "i": ColumnType.INTEGER,
    "r": ColumnType.REAL,
    "c": ColumnType.CHARACTER,
    "t": ColumnType.TIMESTAMP,
}
AIRLINE_SPEC = TermSpec(
    response=AIRLINE_RESPONSE,
    terms=(FactorTerm("DayOfWeek", tuple("1234567")), NumericTerm("DepTime"),
           NumericTerm("DepDelay")),
)
HHMM_COLUMNS = ("DepTime",)
MODES = {"seq": ("sequential", 1), "pipeline": ("pipeline", 2),
         "split": ("split", 2)}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end")

    def __init__(self, id, parent, name, start, end):
        self.id, self.parent, self.name = id, parent, name
        self.start, self.end = start, end

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``span(name)`` nests under the open span."""

    def __init__(self):
        self.spans = []
        self._open = []

    def span(self, name: str):
        return _Open(self, name)

    def add(self, name, start, end, parent) -> int:
        self.spans.append(Span(len(self.spans), parent, name, start, end))
        return len(self.spans) - 1

    @property
    def current(self):
        return self._open[-1] if self._open else None


class _Open:
    __slots__ = ("tracer", "name", "id")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.id = t.add(self.name, time.perf_counter(), None, t.current)
        t._open.append(self.id)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t._open.pop()
        t.spans[self.id].end = time.perf_counter()
        return False


class NullTracer:
    current = None

    def span(self, name: str):
        return nullcontext()


def traced_chunks(tracer, path, cfg: ChunkerConfig):
    """iter_chunks with one chunker span around each chunk it produces."""
    it = iter_chunks(path, cfg)
    while True:
        with tracer.span("chunker.iter_chunks"):
            chunk = next(it, None)
        if chunk is None:
            return
        yield chunk


def resolve_types(first_chunk: bytes, letters: str) -> tuple:
    """Column types from ``--schema LETTERS``; ``infer`` samples the records
    after the header, as the CLI does."""
    if letters == "infer":
        sample = first_chunk[first_chunk.find(b"\n") + 1:]
        return infer_schema(sample, field_sep=b",").types
    return tuple(LETTERS[k] for k in letters.split(","))


def parse_stream(tracer, path, letters, cfg, state):
    """Mirror of the CLI's ``_parse_stream`` with ``--header``; yields frames.

    ``letters`` is a schema such as ``i,r,c,l,t``, or ``infer``.  The
    resolved schema and each chunk's ParseReport are left in ``state``.
    """
    schema = None
    for chunk in traced_chunks(tracer, path, cfg):
        data = chunk.data
        if schema is not None:
            with tracer.span("frame.parse_frame"):
                frame, report = parse_frame(data, schema)
        else:
            with tracer.span("frame.infer_schema") if letters == "infer" \
                    else nullcontext():
                types = resolve_types(data, letters)
            schema = Schema(types, field_sep=b",")
            with tracer.span("frame.parse_frame"):
                frame, report = parse_frame_with_header(data, schema)
            schema = replace(schema, names=tuple(frame.names))
            state["schema"] = schema
        state.setdefault("reports", []).append(report)
        yield frame


def run_parse(tracer, csv_path, out_path, letters, target) -> dict:
    """``rowstream parse CSV --header --schema LETTERS --out OUT``."""
    state = {}
    with tracer.span("cmd.parse"), open(out_path, "wb") as sink:
        first = True
        for frame in parse_stream(tracer, csv_path, letters,
                                  ChunkerConfig(target), state):
            with tracer.span("writer.format_frame"):
                rendered = format_frame(frame, b",", include_header=first)
            with tracer.span("writer.write"):
                sink.write(rendered)
            first = False
    total = ParseReport()
    for report in state["reports"]:
        total = total.merge(report)
    return dict(state, report=total)


def run_mm(tracer, csv_path, ckpt_path, target) -> dict:
    """``rowstream mm CSV`` with the airline model (workloads.AIRLINE_MM_ARGS)."""
    names = spec_names(AIRLINE_SPEC)
    counts = np.zeros(4, dtype=np.int64)
    state = {}
    with tracer.span("cmd.mm"):
        write_sidecar(ckpt_path, names)
        with open(ckpt_path, "ab") as sink:
            for frame in parse_stream(tracer, csv_path, "infer",
                                      ChunkerConfig(target), state):
                for column in HHMM_COLUMNS:
                    with tracer.span("model_matrix.normalize_hhmm"):
                        frame = normalize_hhmm_column(frame, column)
                with tracer.span("model_matrix.expand"):
                    matrix, xr = expand(frame, AIRLINE_SPEC, lenient_levels=True)
                with tracer.span("writer.format_matrix"):
                    rendered = format_matrix(matrix, b",")
                with tracer.span("writer.write"):
                    append_to_checkpoint(sink, rendered)
                counts += (xr.n_input, xr.n_rows, xr.n_dropped_null,
                           xr.n_dropped_unknown)
    return dict(state, counts=tuple(int(c) for c in counts),
                ckpt_bytes=os.path.getsize(ckpt_path))


def fit_chunk(data: bytes, n_cols: int, resp_idx: int, traced: bool):
    """Per-chunk work of a fit: parse the checkpoint rows, accumulate X'X."""
    t0 = time.perf_counter()
    matrix, failures = parse_matrix(data, ColumnType.REAL)
    t1 = time.perf_counter()
    acc = NormalEqAccumulator.zero(n_cols - 1)
    if matrix.n_rows:
        values = matrix.values
        accumulate(acc, np.delete(values, resp_idx, axis=1), values[:, resp_idx])
    t2 = time.perf_counter()
    spans = None
    if traced:
        spans = [("matrix.parse_matrix", t0, t1), ("ols.accumulate", t1, t2)]
    return acc, failures, (t0, t2), spans, os.getpid(), len(data)


def run_fit(tracer, ckpt_path, mode, target) -> dict:
    """``rowstream fit CKPT --response ArrDelay --mode MODE`` (parallel 2 for
    pipeline and split)."""
    events = []

    def on_event(kind, seq):
        events.append((kind, seq, time.perf_counter()))

    apply_mode, parallel = MODES[mode]
    cfg = ApplyConfig(mode=apply_mode, parallel=parallel,
                      chunker=ChunkerConfig(target))
    traced = not isinstance(tracer, NullTracer)
    with tracer.span(f"cmd.fit_{mode}"):
        names = read_sidecar(ckpt_path)
        resp_idx = names.index(AIRLINE_RESPONSE)
        x_names = names[:resp_idx] + names[resp_idx + 1:]
        with tracer.span("apply.chunk_apply"):
            apply_id = tracer.current
            pieces = chunk_apply(
                ckpt_path,
                partial(fit_chunk, n_cols=len(names), resp_idx=resp_idx,
                        traced=traced),
                cfg, on_event=on_event if traced else None)
        acc = NormalEqAccumulator.zero(len(x_names))
        failures = 0
        with tracer.span("ols.merge"):
            for part, fails, *_ in pieces:
                acc = merge(acc, part)
                failures += fails
        with tracer.span("ols.solve_ne"):
            fit = solve_ne(acc, x_names)
    chunks = []
    busy = {"matrix.parse_matrix": 0.0, "ols.accumulate": 0.0}
    for _, _, (start, end), spans, pid, nbytes in pieces:
        chunks.append((start, end, pid, nbytes))
        if spans:
            chunk_id = tracer.add("apply.chunk", start, end, apply_id)
            for name, s, e in spans:
                tracer.add(name, s, e, chunk_id)
                busy[name] += e - s
    return {"fit": fit, "n_rows": acc.n, "failures": failures,
            "chunks": chunks, "events": events, "parallel": parallel,
            "apply_span": apply_id, "busy": busy}


def probe_parse(csv_path, letters, target) -> dict:
    """Per-chunk cost of tokenizing and of each column type's coercion.

    The tokenizer is timed as ``parse_frame`` with every column set to skip.
    A type's coercion cost is ``parse_frame`` with only that type's columns
    kept, minus the all-skip parse of the same chunk.
    """
    variants = None
    first = True
    for chunk in iter_chunks(csv_path, ChunkerConfig(target)):
        if variants is None:
            types = resolve_types(chunk.data, letters)
            variants = {"skip": tuple(ColumnType.SKIP for _ in types)}
            for ctype in dict.fromkeys(types):
                variants[ctype.value] = tuple(
                    t if t is ctype else ColumnType.SKIP for t in types)
            busy = dict.fromkeys(variants, 0.0)
        for label, vtypes in variants.items():
            schema = Schema(vtypes, field_sep=b",")
            parse = parse_frame_with_header if first else parse_frame
            t0 = time.perf_counter()
            parse(chunk.data, schema)
            busy[label] += time.perf_counter() - t0
        first = False
    tokenize = busy.pop("skip")
    return {"tokenize": tokenize,
            "coerce": {k: v - tokenize for k, v in busy.items()}}
