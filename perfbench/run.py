"""rowstream benchmark: three workloads, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload airline --seed 1 --seconds 30 --trace 0

``--trace 0`` times the ``rowstream`` CLI in subprocesses, one command at a
time (a closed loop with one client), and prints the end-to-end metrics.
Each round also times reference.py on the same input; throughput is
reported relative to it, because a shared machine's speed can swing by 2x
within minutes and the reference, run alongside, swings with it.
``--trace 1`` re-enacts the same commands in-process on the same inputs,
once untraced and once with spans around every layer call, and prints the
per-layer metrics and the tracing overhead.  Every output of every command
is checked against an oracle built from the generator (checks.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with the machine facts, per-command timings, derived
readings with their bases, and every failed check.  BENCHMARK.json at the
checkout root lists the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCHER = HERE / "launcher.py"
REFERENCE = HERE / "reference.py"
WORK = HERE / "_work"
COMMAND_TIMEOUT_S = 120.0
KiB = 1024

# Sizes give each command seconds of work on a 2-core machine, so CLI
# start-up (about 0.25 s) is a small share of each timing, and a 30 s run
# holds six or more rounds.  The chunk targets give each of the two fit
# workers a dozen or more chunks, and every dirty chunk several defect
# blocks.
SIZES = {
    "airline": {"rows": 100_000, "chunk_target": 128 * KiB, "setup_reps": 5},
    "roundtrip": {"rows": 200_000, "chunk_target": 256 * KiB, "setup_reps": 9},
    "dirty": {"rows": 200_000, "chunk_target": 256 * KiB, "setup_reps": 9},
}
FIT_MODES = {"seq": ["--mode", "seq"],
             "pipeline": ["--mode", "pipeline", "--parallel", "2"],
             "split": ["--mode", "split", "--parallel", "2"]}


def facts(workload: str, seed: int) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "chunk_target_bytes": SIZES[workload]["chunk_target"],
        "rows": SIZES[workload]["rows"],
        "src_py_lines": src_lines,
    }


def quartiles(values) -> dict:
    v = sorted(values)
    if len(v) > 1:
        q1, med, q3 = statistics.quantiles(v, n=4)
    else:
        q1 = med = q3 = v[0]
    return {"median": statistics.median(v), "q1": q1, "q3": q3, "n": len(v),
            "samples": list(values)}


@dataclass
class Inputs:
    workload: str
    seed: int
    csv_path: Path
    data: object  # workloads.AirlineInput or workloads.MixedInput
    setup_csv: Path
    oracle: object = None


def make_inputs(workload: str, seed: int, work: Path) -> Inputs:
    rows = SIZES[workload]["rows"]
    data = getattr(workloads, workload)(seed, rows)
    csv_path = work / f"{workload}.csv"
    csv_path.write_bytes(data.csv)
    setup_csv = work / "one_record.csv"
    setup_csv.write_bytes(workloads.one_record(workload, seed))
    oracle = checks.FitOracle(data.design) if workload == "airline" else None
    return Inputs(workload, seed, csv_path, data, setup_csv, oracle)


# ---------------------------------------------------------------- timed run

class Launcher:
    """Client for launcher.py, which spawns each command and reports its
    wall time, exit code and peak RSS."""

    def __init__(self, env: dict):
        self.env = env
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def run(self, argv: list, out: Path, err: Path) -> dict:
        request = {"argv": argv, "env": self.env, "stdout": str(out), "stderr": str(err),
                   "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


class TimedWorkload:
    """Runs one workload's CLI commands and checks each output."""

    def __init__(self, inputs: Inputs, work: Path, launcher: Launcher):
        self.inputs = inputs
        self.launcher = launcher
        self.out = work / "out.txt"
        self.err = work / "err.txt"
        self.ckpt = work / "design.mm"
        self.parsed = work / "parsed.csv"
        self.verdicts = checks.Verdicts()

    def _exec(self, name, args) -> checks.Op:
        r = self.launcher.run([sys.executable, "-m", "rowstream"] + args,
                              self.out, self.err)
        op = checks.Op(name, r["wall_s"], r["rc"], r["maxrss_kb"])
        if op.rc != 0:
            op.problems.append(f"{name} exited {op.rc}: "
                               f"{self.err.read_bytes()[-300:]!r}")
        return op

    def commands(self, csv: Path):
        """(name, args) in the order one round runs them."""
        if self.inputs.workload == "airline":
            yield "mm", (["mm", str(csv)] + workloads.AIRLINE_MM_ARGS
                         + ["--out", str(self.ckpt)])
            for mode, extra in FIT_MODES.items():
                yield f"fit_{mode}", (["fit", str(self.ckpt), "--response",
                                       workloads.AIRLINE_RESPONSE] + extra)
        else:
            yield "parse", ["parse", str(csv), "--header", "--schema",
                            workloads.MIXED_SCHEMA, "--out", str(self.parsed)]

    def _fresh_checkpoint(self):
        for path in (self.ckpt, checks.names_path(self.ckpt)):
            path.unlink(missing_ok=True)

    def setup_round(self) -> list:
        """One round on the one-record input; only exit codes are checked."""
        self._fresh_checkpoint()
        return [self._exec(name, args)
                for name, args in self.commands(self.inputs.setup_csv)]

    def reference(self) -> float:
        """Wall time of reference.py on the workload's input."""
        r = self.launcher.run(
            [sys.executable, str(REFERENCE), str(self.inputs.csv_path),
             str(self.parsed)], self.out, self.err)
        if r["rc"] != 0:
            raise RuntimeError(f"reference.py exited {r['rc']}: "
                               f"{self.err.read_bytes()[-300:]!r}")
        return r["wall_s"]

    def round(self) -> list:
        self._fresh_checkpoint()
        ops = []
        seq_stdout = None
        for name, args in self.commands(self.inputs.csv_path):
            op = self._exec(name, args)
            if op.rc == 0:
                if name == "mm":
                    self._check_mm(op)
                elif name.startswith("fit_"):
                    stdout = self.out.read_bytes()
                    if name == "fit_seq":
                        seq_stdout = stdout
                    elif stdout != seq_stdout:
                        op.problems.append(f"{name} stdout differs from fit_seq")
                    self._check_fit(op, stdout)
                else:
                    self._check_parse(op)
            ops.append(op)
        return ops

    def _check_mm(self, op: checks.Op):
        d = self.inputs.data
        op.problems += checks.check_mm_report(
            self.err.read_bytes(), d.n_rows, d.design.shape[0], d.n_dropped_null)
        op.problems += checks.checkpoint_problems(self.ckpt, d.design,
                                                  self.verdicts)

    def _check_fit(self, op: checks.Op, stdout: bytes):
        oracle = self.inputs.oracle

        def verdict():
            coef, aliased = checks.parse_fit_stdout(stdout)
            return oracle.check(coef, aliased), len(coef)

        (problems, kind), n_kept = self.verdicts(stdout, verdict)
        op.problems += problems
        op.kind = kind
        op.problems += checks.check_fit_report(
            self.err.read_bytes(), oracle.n_rows, n_kept)

    def _check_parse(self, op: checks.Op):
        d = self.inputs.data
        out = self.parsed.read_bytes()
        op.problems += self.verdicts(
            out, lambda: checks.check_bytes(out, d.expected_out, "parse output"))
        op.problems += checks.check_parse_report(
            self.err.read_bytes(), d.n_rows, d.failures, d.short_rows,
            d.long_rows)


def run_timed(workload: str, seed: int, seconds: float, work: Path):
    target = SIZES[workload]["chunk_target"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["CHUNK_TARGET_BYTES"] = str(target)
    launcher = Launcher(env)
    try:
        inputs = make_inputs(workload, seed, work)
        bench = TimedWorkload(inputs, work, launcher)
        # one discarded round compiles bytecode and warms the page cache
        warm = bench.setup_round()
        setup = [bench.setup_round()
                 for _ in range(SIZES[workload]["setup_reps"])]
        rounds, references = [], []
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rounds.append(bench.round())
            references.append(bench.reference())
            elapsed = time.perf_counter() - started
            if elapsed + (time.perf_counter() - t0) > seconds:
                break
    finally:
        launcher.close()
    return summarize_timed(inputs, warm, setup, rounds, references)


def summarize_timed(inputs: Inputs, warm, setup, rounds, references):
    ops = [op for r in rounds for op in r]
    setup_ops = [op for r in [warm] + setup for op in r]
    failed, unexpected = checks.tally(ops)
    unexpected += [op for op in setup_ops if op.rc != 0]
    d = inputs.data
    csv_mb = len(d.csv) / 1e6
    walls = {}
    for op in ops:
        walls.setdefault(op.name, []).append(op.wall_s)
    commands = {name: quartiles(w) for name, w in walls.items()}
    ingest = commands["mm" if inputs.workload == "airline" else "parse"]
    ingest["mbps"] = csv_mb / ingest["median"]
    setup_walls = [sum(op.wall_s for op in r) for r in setup]
    job = quartiles([sum(op.wall_s for op in r) for r in rounds])
    job["rows_per_s"] = d.n_rows / job["median"]
    commands["reference"] = quartiles(references)
    ref = commands["reference"]["median"]
    metrics = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "ingest.rel_speed": (ref / ingest["median"], "ratio"),
        "job.rel_speed": (ref / job["median"], "ratio"),
        "peak_rss_mb": (max(op.maxrss_kb for op in ops) / 1024, "MB"),
        "op_ok_ratio": ((len(ops) - len(failed)) / len(ops), "ratio"),
    }
    derived = {"op_fail_ratio": len(failed) / len(ops)}
    if inputs.workload == "airline":
        for mode in FIT_MODES:
            fit = commands[f"fit_{mode}"]
            fit["rows_per_s"] = d.design.shape[0] / fit["median"]
        seq = commands["fit_seq"]["median"]
        for mode in ("pipeline", "split"):
            par = commands[f"fit_{mode}"]["median"]
            derived[f"speedup_{mode}_vs_seq"] = {
                "value": seq / par, "base": "median fit_seq wall / median "
                f"fit_{mode} wall at --parallel 2", "seq_s": seq,
                f"{mode}_s": par}
    report = {
        "facts": facts(inputs.workload, inputs.seed),
        "commands_s": commands,
        "job_s": job,
        "setup_rounds_s": setup_walls,
        "derived": derived,
        "rank_defect_failures": sum(op.kind == checks.RANK_DEFECT
                                    for op in failed),
        "failures": checks.describe(failed + unexpected),
    }
    result = {"correct": not unexpected, "attempted": len(ops),
              "failed": len(failed), "metrics": metrics}
    return report, result


# --------------------------------------------------------------- traced run

def run_traced(workload: str, seed: int, seconds: float, work: Path):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import layers

    inputs = make_inputs(workload, seed, work)
    return layers.run(inputs, SIZES[workload]["chunk_target"], seconds, work,
                      facts(workload, seed))


# ---------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rowstream" / "__init__.py").is_file():
        print(f"error: rowstream sources not found under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            report, result = run_traced(args.workload, args.seed, args.seconds,
                                        work)
        else:
            report, result = run_timed(args.workload, args.seed, args.seconds,
                                       work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for name, m in result["metrics"].items():
        print(f"# {args.workload:<9} {name:<32} {m[0]:>14.6g} {m[1]}")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
