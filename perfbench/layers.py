"""The traced run: per-layer metrics from spans around rowstream's layers.

Each round runs the workload's commands in-process twice on the same inputs,
untraced and traced, in alternating order (inprocess.py), and checks every
output.  A
layer's self time is the time its spans cover minus the part their child
spans cover; its share is that self time over the traced commands' wall
time.  Worker spans of the parallel fit modes overlap each other, so shares
can sum past 1.  Each per-layer metric is the median over rounds.

Layer metric names follow rowstream's modules: chunker, frame, _coerce
(``coerce.*``), model_matrix, writer, matrix, ols and apply.  Metrics of a
layer the workload does not use read 0.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

import numpy as np

import checks
import inprocess
import workloads
from inprocess import NullTracer, Tracer

COERCE_TYPES = ("integer", "real", "character", "logical", "timestamp")
NUMERIC_TYPES = ("integer", "real", "logical", "timestamp")
LAYERS = ("chunker", "frame", "model_matrix", "writer", "matrix", "ols", "apply")
MODES = tuple(inprocess.MODES)


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, edge), min(b, s.end)
            if b > a:
                covered += b - a
                edge = b
        out[s.id] = s.duration - covered
    return out


def tail_percentile(values) -> tuple:
    """Median, and the highest percentile with at least ten samples beyond
    it (the median itself when there are fewer than twenty samples)."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    pct = max(50, math.floor(100 * (1 - 10 / n)))
    return (float(np.percentile(values, 50)), float(np.percentile(values, pct)),
            pct)


def apply_metrics(mode: str, r: dict, wall: float) -> dict:
    """Scheduling metrics of one chunk_apply call (see BENCHMARK.json)."""
    chunks = r["chunks"]
    durations = [end - start for start, end, _, _ in chunks]
    per_worker = defaultdict(float)
    for start, end, pid, _ in chunks:
        per_worker[pid] += end - start
    busy = sum(durations, 0.0)
    n_workers = r["parallel"]
    events = r["events"]
    if mode == "seq":
        wait = 0.0  # the master computes every chunk itself
    elif mode == "pipeline":
        # the master blocks on a future between its previous action and collect
        wait = sum((t - prev for (kind, _, t), (_, _, prev)
                    in zip(events[1:], events) if kind == "collect"), 0.0)
    else:
        wait = wall  # split: the master only waits for the workers
    if mode == "split":
        # workers read their own ranges, between successive chunk calls
        read = 0.0
        for pid in per_worker:
            spans = sorted((s, e) for s, e, p, _ in chunks if p == pid)
            read += sum(b[0] - a[1] for a, b in zip(spans, spans[1:]))
    else:
        read = 0.0
        opened = None
        for kind, _, t in events:
            if kind == "read_start":
                opened = t
            elif kind == "read_end" and opened is not None:
                read += t - opened
    p50, ptail, pct = tail_percentile(durations)
    prefix = f"apply.{mode}."
    return {
        prefix + "wall_s": (wall, "s"),
        prefix + "worker_busy_s": (busy, "s"),
        prefix + "worker_idle_s": (n_workers * wall - busy, "s"),
        prefix + "master_wait_s": (wait, "s"),
        prefix + "read_s": (read, "s"),
        prefix + "shipped_bytes": (
            float(sum(c[3] for c in chunks)) if mode == "pipeline" else 0.0, "B"),
        prefix + "skew": (
            max(per_worker.values()) / (busy / n_workers) if busy else 0.0,
            "ratio"),
        prefix + "chunk_s.p50": (p50, "s"),
        prefix + "chunk_s.ptail": (ptail, "s"),
        prefix + "chunk_s.ptail_pct": (float(pct), "%"),
        prefix + "chunk_s.n": (float(len(durations)), "count"),
    }


class Round:
    """Runs the workload's commands in-process and checks their outputs."""

    def __init__(self, inputs, target: int, work):
        self.inputs = inputs
        self.target = target
        self.ckpt = work / "inprocess.mm"
        self.parsed = work / "inprocess.csv"
        self.verdicts = checks.Verdicts()
        self.ops = []

    def _op(self, name, call):
        started = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failing command is a failed operation
            op = checks.Op(name, time.perf_counter() - started, 1,
                           problems=[f"{name} raised {exc!r}"])
            self.ops.append(op)
            return op, None
        op = checks.Op(name, time.perf_counter() - started, 0)
        self.ops.append(op)
        return op, result

    def run(self, tracer) -> tuple:
        """Return ``(walls, results)`` keyed by command name."""
        if self.inputs.workload != "airline":
            return self._run_parse(tracer)
        d = self.inputs.data
        for path in (self.ckpt, checks.names_path(self.ckpt)):
            path.unlink(missing_ok=True)
        walls, results = {}, {}
        op, r = self._op("mm", lambda: inprocess.run_mm(
            tracer, self.inputs.csv_path, self.ckpt, self.target))
        walls["mm"], results["mm"] = op.wall_s, r
        if r is None:
            return walls, results
        want = (d.n_rows, d.design.shape[0], d.n_dropped_null, 0)
        if r["counts"] != want:
            op.problems.append(f"mm counts {r['counts']}, expected {want}")
        op.problems += checks.checkpoint_problems(self.ckpt, d.design,
                                                  self.verdicts)
        seq_coef = None
        for mode in MODES:
            name = f"fit_{mode}"
            op, r = self._op(name, lambda: inprocess.run_fit(
                tracer, self.ckpt, mode, self.target))
            walls[name], results[name] = op.wall_s, r
            if r is None:
                continue
            fit = r["fit"]
            problems, op.kind = self.inputs.oracle.check(fit.coef, fit.dropped)
            op.problems += problems
            if r["n_rows"] != self.inputs.oracle.n_rows or r["failures"]:
                op.problems.append(f"{name} read {r['n_rows']} rows with "
                                   f"{r['failures']} failures")
            coef = {k: repr(v) for k, v in fit.coef.items()}
            if seq_coef is None:
                seq_coef = coef
            elif coef != seq_coef:
                op.problems.append(f"{name} coefficients differ from fit_seq")
        return walls, results

    def _run_parse(self, tracer):
        d = self.inputs.data
        op, r = self._op("parse", lambda: inprocess.run_parse(
            tracer, self.inputs.csv_path, self.parsed, workloads.MIXED_SCHEMA,
            self.target))
        if r is not None:
            out = self.parsed.read_bytes()
            op.problems += self.verdicts(out, lambda: checks.check_bytes(
                out, d.expected_out, "parse output"))
            rep = r["report"]
            got = (rep.n_records, rep.column_failures, rep.short_rows,
                   rep.long_rows)
            want = (d.n_rows, d.failures, d.short_rows, d.long_rows)
            if got != want:
                op.problems.append(f"parse report {got}, expected {want}")
        return {"parse": op.wall_s}, {"parse": r}


def busy_by_name(spans) -> dict:
    busy = defaultdict(float)
    for s in spans:
        busy[s.name] += s.duration
    return busy


def round_metrics(tracer, results, walls_traced, walls_untraced,
                  probe) -> dict:
    """Per-layer metrics of one traced round; ``probe`` is probe_parse's
    tokenizer and per-type coercion times."""
    spans = tracer.spans
    busy = busy_by_name(spans)
    selfs = self_times(spans)
    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s.name.split(".", 1)[0]] += selfs[s.id]
    cmd_wall = sum(walls_traced.values())
    ingest = results.get("mm") or results["parse"]
    reports = ingest["reports"]
    schema = ingest["schema"]
    m = {
        "chunker.busy_s": (busy["chunker.iter_chunks"], "s"),
        "chunker.chunks": (float(len(reports)), "count"),
        "frame.parse_frame.busy_s": (busy["frame.parse_frame"], "s"),
        "frame.tokenize.busy_s": (probe["tokenize"], "s"),
        "frame.infer_schema.busy_s": (busy["frame.infer_schema"], "s"),
    }
    for t in COERCE_TYPES:
        m[f"coerce.{t}.busy_s"] = (probe["coerce"].get(t, 0.0), "s")
    out_types = [t for t in schema.types if t.value != "skip"]
    numeric = [n for n, t in zip(schema.names, out_types)
               if t.value in NUMERIC_TYPES]
    cells = [r.column_failures.get(n, 0) for r in reports for n in numeric]
    m["coerce.bulk_ratio"] = (
        sum(c == 0 for c in cells) / len(cells) if cells else 0.0, "ratio")
    m["coerce.failures"] = (float(sum(r.total_failures for r in reports)),
                            "count")
    counts = results["mm"]["counts"] if "mm" in results else (0, 0, 0, 0)
    m["model_matrix.normalize_hhmm.busy_s"] = (
        busy["model_matrix.normalize_hhmm"], "s")
    m["model_matrix.expand.busy_s"] = (busy["model_matrix.expand"], "s")
    m["model_matrix.rows_dropped"] = (float(counts[2] + counts[3]), "count")
    m["writer.format_frame.busy_s"] = (busy["writer.format_frame"], "s")
    m["writer.format_matrix.busy_s"] = (busy["writer.format_matrix"], "s")
    m["writer.checkpoint_bytes_per_row"] = (
        results["mm"]["ckpt_bytes"] / counts[1] if counts[1] else 0.0, "B/row")
    m["matrix.parse_matrix.busy_s"] = (busy["matrix.parse_matrix"], "s")
    m["ols.accumulate.busy_s"] = (busy["ols.accumulate"], "s")
    m["ols.solve_ne.busy_s"] = (busy["ols.solve_ne"], "s")
    for mode in MODES:
        r = results.get(f"fit_{mode}")
        if r is None:
            m.update(apply_metrics(mode, {"chunks": [], "events": [],
                                          "parallel": 1}, 0.0))
        else:
            m.update(apply_metrics(mode, r, spans[r["apply_span"]].duration))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
        m[f"{layer}.share"] = (layer_self[layer] / cmd_wall, "ratio")
    mm_wall = walls_traced.get("mm")
    m["checkpoint.render_share"] = (
        busy["writer.format_matrix"] / mm_wall if mm_wall else 0.0, "ratio")
    seq = results.get("fit_seq")
    m["checkpoint.parse_share"] = (
        seq["busy"]["matrix.parse_matrix"] / walls_traced["fit_seq"]
        if seq else 0.0, "ratio")
    m["trace.overhead"] = (cmd_wall / sum(walls_untraced.values()), "ratio")
    return m


def run(inputs, target: int, seconds: float, work, facts: dict):
    letters = "infer" if inputs.workload == "airline" else workloads.MIXED_SCHEMA
    probe = inprocess.probe_parse(inputs.csv_path, letters, target)
    rnd = Round(inputs, target, work)
    per_round = []
    derived = {}
    started = time.perf_counter()
    while True:
        # alternate which pass goes first, so neither gains from the other
        # having warmed the caches
        tracer = Tracer()
        if len(per_round) % 2:
            walls_traced, results = rnd.run(tracer)
            walls_untraced, _ = rnd.run(NullTracer())
        else:
            walls_untraced, _ = rnd.run(NullTracer())
            walls_traced, results = rnd.run(tracer)
        if any(r is None for r in results.values()):
            break
        per_round.append(round_metrics(tracer, results, walls_traced,
                                       walls_untraced, probe))
        derived = derived_readings(results, walls_traced,
                                   busy_by_name(tracer.spans))
        elapsed = time.perf_counter() - started
        if elapsed * (len(per_round) + 1) / len(per_round) > seconds:
            break
    failed, unexpected = checks.tally(rnd.ops)
    metrics = {name: (statistics.median(r[name][0] for r in per_round), unit)
               for name, (_, unit) in (per_round[0].items() if per_round
                                       else ())}
    report = {"facts": facts, "rounds": len(per_round), "derived": derived,
              "rank_defect_failures": sum(op.kind == checks.RANK_DEFECT
                                          for op in failed),
              "failures": checks.describe(failed)}
    result = {"correct": bool(per_round) and not unexpected,
              "attempted": len(rnd.ops), "failed": len(failed),
              "metrics": metrics}
    return report, result


def derived_readings(results, walls, busy) -> dict:
    """Readings the ROADMAP asks for, each with its base."""
    if "mm" not in results:
        return {}
    out = {}
    out["shipped_bytes"] = {
        "pipeline": sum(c[3] for c in results["fit_pipeline"]["chunks"]),
        "split": 0,
        "base": "chunk bytes pickled to workers by one fit at --parallel 2; "
                "split workers read their own byte ranges"}
    render = busy["writer.format_matrix"]
    for mode in MODES:
        parse = results[f"fit_{mode}"]["busy"]["matrix.parse_matrix"]
        out[f"checkpoint_share_mm_plus_fit_{mode}"] = {
            "value": (render + parse) / (walls["mm"] + walls[f"fit_{mode}"]),
            "render_s": render, "parse_s": parse, "mm_s": walls["mm"],
            "fit_s": walls[f"fit_{mode}"],
            "base": "(format_matrix + parse_matrix busy) / (mm + fit wall), "
                    "traced in-process; ROADMAP item 4 uses the 0.5 mark"}
    return out
