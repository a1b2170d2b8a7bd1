"""Self-tests for the benchmark.  The default ``pytest`` run does not collect
this file (its name does not match ``test_*.py``); run it explicitly:

    python3 -m pytest perfbench/selftest.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def render(design: np.ndarray) -> bytes:
    """The checkpoint text rowstream writes: repr of each double."""
    return b"".join(b",".join(repr(float(v)).encode() for v in row) + b"\n"
                    for row in design)


@pytest.mark.parametrize("name", ["airline", "roundtrip", "dirty"])
def test_generator_is_deterministic(name):
    gen = getattr(workloads, name)
    a, b, other = gen(7, 3000), gen(7, 3000), gen(8, 3000)
    assert a.csv == b.csv
    assert a.csv != other.csv
    if name == "airline":
        assert np.array_equal(a.design, b.design)
    else:
        assert a.expected_out == b.expected_out
        assert (a.failures, a.short_rows, a.long_rows) == (
            b.failures, b.short_rows, b.long_rows)
    assert workloads.one_record(name, 7) == workloads.one_record(name, 7)


@pytest.fixture(scope="module")
def airline():
    return workloads.airline(3, 4000)


def test_checkpoint_check_accepts_exact_rendering(airline):
    names = list(workloads.AIRLINE_DESIGN_NAMES)
    assert checks.check_checkpoint(render(airline.design), names,
                                   airline.design) == []


def test_checkpoint_check_rejects_one_flipped_bit(airline):
    bad = airline.design.copy()
    bits = bad.view(np.uint64)
    bits[17, 8] ^= np.uint64(1)  # lowest mantissa bit of one DepTime cell
    problems = checks.check_checkpoint(
        render(bad), list(workloads.AIRLINE_DESIGN_NAMES), airline.design)
    assert problems and "DepTime" in problems[0]


def test_checkpoint_check_rejects_dropped_row(airline):
    text = render(airline.design).split(b"\n")
    del text[5]
    assert checks.check_checkpoint(b"\n".join(text),
                                   list(workloads.AIRLINE_DESIGN_NAMES),
                                   airline.design)


def test_fit_check_accepts_lstsq_and_rejects_changed_coefficient(airline):
    oracle = checks.FitOracle(airline.design)
    assert oracle.rank == len(oracle.x_names)
    assert oracle.check(dict(oracle.coef), []) == ([], None)
    changed = dict(oracle.coef)
    changed["DepDelay"] *= 1 + 1e-5
    problems, kind = oracle.check(changed, [])
    assert problems and kind is None


def test_fit_check_names_the_rank_defect_and_nothing_else(airline):
    oracle = checks.FitOracle(airline.design)
    kept = oracle.x_names[1:]
    beta = np.linalg.lstsq(oracle.X[:, 1:], oracle.y, rcond=None)[0]
    reduced = dict(zip(kept, beta.tolist()))
    problems, kind = oracle.check(reduced, ["(Intercept)"])
    assert problems and kind == checks.RANK_DEFECT
    reduced["DepTime"] *= 1 + 1e-5
    problems, kind = oracle.check(reduced, ["(Intercept)"])
    assert len(problems) == 2 and kind is None


def test_fit_stdout_parser():
    coef, aliased = checks.parse_fit_stdout(
        b"DayOfWeek2  -0.5\nDepTime     1e-05\naliased: (Intercept)\n")
    assert coef == {"DayOfWeek2": -0.5, "DepTime": 1e-05}
    assert aliased == ["(Intercept)"]


def test_mm_report_check_rejects_wrong_count():
    line = b"x.csv: 10 rows in, 9 written, 1 dropped (null), 0 dropped (unknown level)\n"
    assert checks.check_mm_report(line, 10, 9, 1) == []
    assert checks.check_mm_report(line, 10, 8, 2)


@pytest.mark.parametrize("name", ["roundtrip", "dirty"])
def test_parse_checks_reject_dropped_row(name):
    d = getattr(workloads, name)(5, 3000)
    assert checks.check_bytes(d.expected_out, d.expected_out, "out") == []
    lines = d.expected_out.split(b"\n")
    del lines[100]
    assert checks.check_bytes(b"\n".join(lines), d.expected_out, "out")
    report = (f"rows: {d.n_rows}\ncoercion failures: "
              + (" ".join(f"{k}={v}" for k, v in d.failures.items() if v)
                 or "none")
              + f"\nshort rows: {d.short_rows}, long rows: {d.long_rows}\n")
    assert checks.check_parse_report(report.encode(), d.n_rows, d.failures,
                                     d.short_rows, d.long_rows) == []
    assert checks.check_parse_report(report.encode(), d.n_rows - 1,
                                     d.failures, d.short_rows, d.long_rows)


def test_dirty_input_has_defects_in_every_block():
    d = workloads.dirty(5, 5 * workloads.DIRTY_BLOCK)
    assert d.short_rows == d.long_rows == 5
    assert all(v == 5 for k, v in d.failures.items() if k != "label")
    assert d.csv.count(b"\r\n") == d.csv.count(b"\n")


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(run.SIZES)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["airline", "roundtrip", "dirty"])
def test_printed_metrics_match_benchmark_json(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(run.SIZES, name, dict(run.SIZES[name], rows=3000,
                                              setup_reps=1))
    assert run.main(["--workload", name, "--seed", "2", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    result = _last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dirty",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
