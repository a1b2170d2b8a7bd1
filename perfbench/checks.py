"""Output checks.  Each returns a list of problems; an empty list means the
output is correct.  The oracles are numpy and the generators' own bookkeeping
(see workloads.py); nothing here calls rowstream.
"""

from __future__ import annotations

import hashlib
import io
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import AIRLINE_DESIGN_NAMES, AIRLINE_RESPONSE

# Coefficients from the normal equations agree with lstsq to about 1e-12
# relative on the airline design (condition number near 1e4); a change in
# the estimate's fourth significant digit is far outside this.
COEF_RTOL = 1e-7
COEF_ATOL = 1e-12

# The ROADMAP item 2 defect: fit drops a column of a full-rank design.  Such
# a fit counts as a failed operation.  It is told apart from other wrong
# answers so that the report can name it and `correct` turns false only on
# a fault not seen before.
RANK_DEFECT = "rank_defect"


@dataclass
class Op:
    """One command run and the verdict of its output checks."""

    name: str
    wall_s: float
    rc: int
    maxrss_kb: int = 0
    problems: list = field(default_factory=list)
    kind: str | None = None

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems


def tally(ops):
    """Return ``(failed, unexpected)``: every op that failed, and those whose
    failure is not the recorded rank defect."""
    failed = [op for op in ops if not op.ok]
    return failed, [op for op in failed if op.kind != RANK_DEFECT]


def describe(ops) -> list:
    return sorted({f"{op.name}: {p}" for op in ops for p in op.problems})


class Verdicts:
    """Check results keyed by the digest of the output they judged, so an
    output repeated across rounds is verified once."""

    def __init__(self):
        self._seen = {}

    def __call__(self, output: bytes, check):
        key = hashlib.sha256(output).hexdigest()
        if key not in self._seen:
            self._seen[key] = check()
        return self._seen[key]


def names_path(checkpoint: Path) -> Path:
    return Path(str(checkpoint) + ".names")


def checkpoint_problems(checkpoint: Path, design: np.ndarray,
                        verdicts: Verdicts) -> list:
    """check_checkpoint on a checkpoint file and its sidecar of names."""
    data = checkpoint.read_bytes()
    names = names_path(checkpoint).read_text().splitlines()
    return verdicts(data + "\n".join(names).encode(),
                    lambda: check_checkpoint(data, names, design))


def _first_bit_mismatch(got: np.ndarray, want: np.ndarray) -> str:
    bad = np.argwhere(got.view(np.uint64) != want.view(np.uint64))[0]
    r, c = int(bad[0]), int(bad[1])
    return (f"checkpoint cell ({r}, {AIRLINE_DESIGN_NAMES[c]}) is "
            f"{got[r, c]!r}, expected {want[r, c]!r}")


def check_checkpoint(data: bytes, names: list, design: np.ndarray) -> list:
    """The checkpoint must parse back bit-exactly to ``design``."""
    problems = []
    if names != AIRLINE_DESIGN_NAMES:
        problems.append(f"sidecar names {names}, expected {AIRLINE_DESIGN_NAMES}")
    try:
        got = np.loadtxt(io.BytesIO(data), delimiter=",", ndmin=2,
                         dtype=np.float64)
    except ValueError as exc:
        return problems + [f"checkpoint does not parse: {exc}"]
    if got.shape != design.shape:
        return problems + [f"checkpoint shape {got.shape}, expected {design.shape}"]
    if not np.array_equal(got.view(np.uint64), design.view(np.uint64)):
        problems.append(_first_bit_mismatch(got, design))
    return problems


_MM_LINE = re.compile(
    rb"^(.*): (\d+) rows in, (\d+) written, (\d+) dropped \(null\), "
    rb"(\d+) dropped \(unknown level\)$", re.M)


def check_mm_report(stderr: bytes, n_input: int, n_written: int,
                    n_null: int) -> list:
    """mm's stderr counts must equal the generator's."""
    found = _MM_LINE.findall(stderr)
    if len(found) != 1:
        return [f"mm printed {len(found)} count lines: {stderr[-300:]!r}"]
    got = tuple(int(v) for v in found[0][1:])
    want = (n_input, n_written, n_null, 0)
    if got != want:
        return [f"mm counts (in, written, null, unknown) {got}, expected {want}"]
    return []


def parse_fit_stdout(stdout: bytes):
    """Return ``(coef, aliased)`` from fit's coefficient table."""
    coef = {}
    aliased = []
    for line in stdout.decode("utf-8", "replace").splitlines():
        if line.startswith("aliased: "):
            aliased = line[len("aliased: "):].split(", ")
        elif line.strip():
            name, value = line.rsplit(None, 1)
            coef[name.strip()] = float(value)
    return coef, aliased


class FitOracle:
    """Least squares on the generator's design, by np.linalg.lstsq."""

    def __init__(self, design: np.ndarray):
        names = list(AIRLINE_DESIGN_NAMES)
        resp = names.index(AIRLINE_RESPONSE)
        self.x_names = names[:resp] + names[resp + 1:]
        self.X = np.delete(design, resp, axis=1)
        self.y = design[:, resp]
        self.n_rows = design.shape[0]
        beta, _, self.rank, _ = np.linalg.lstsq(self.X, self.y, rcond=None)
        self.coef = dict(zip(self.x_names, beta.tolist()))

    def _compare(self, coef: dict, want: dict) -> list:
        problems = []
        for name, value in want.items():
            if name not in coef:
                continue
            if not np.isclose(coef[name], value, rtol=COEF_RTOL, atol=COEF_ATOL):
                problems.append(f"coefficient {name} is {coef[name]!r}, "
                                f"lstsq gives {value!r}")
        return problems

    def check(self, coef: dict, aliased: list):
        """Return ``(problems, kind)``; kind is RANK_DEFECT when the only
        fault is a column dropped from a design lstsq finds full rank, with
        the kept coefficients matching lstsq on the kept columns."""
        kept = [n for n in self.x_names if n in coef]
        extra = sorted(set(coef) - set(self.x_names))
        problems = [f"unknown coefficient {n!r}" for n in extra]
        if sorted(kept + aliased) != sorted(self.x_names):
            problems.append(f"kept {kept} + aliased {aliased} is not the "
                            f"design's columns {self.x_names}")
        if self.rank == len(self.x_names) and aliased:
            problems.append(f"fit reports aliased {aliased} but lstsq finds "
                            f"rank {self.rank}/{len(self.x_names)}")
            cols = [self.x_names.index(n) for n in kept]
            beta = np.linalg.lstsq(self.X[:, cols], self.y, rcond=None)[0]
            reduced = self._compare(coef, dict(zip(kept, beta.tolist())))
            kind = RANK_DEFECT if not reduced and len(problems) == 1 else None
            return problems + reduced, kind
        return problems + self._compare(coef, self.coef), None


_FIT_SUMMARY = re.compile(
    rb"rows: (\d+), chunks: (\d+), coercion failures: (\d+), rank: (\d+)/(\d+)")


def check_fit_report(stderr: bytes, n_rows: int, n_kept: int) -> list:
    found = _FIT_SUMMARY.search(stderr)
    if found is None:
        return [f"fit printed no summary: {stderr[-300:]!r}"]
    rows, _chunks, fails, rank, _d = (int(v) for v in found.groups())
    problems = []
    if rows != n_rows:
        problems.append(f"fit read {rows} rows, checkpoint has {n_rows}")
    if fails:
        problems.append(f"fit reports {fails} coercion failures")
    if rank != n_kept:
        problems.append(f"fit reports rank {rank} with {n_kept} coefficients")
    return problems


def check_parse_report(stderr: bytes, n_rows: int, failures: dict,
                       short_rows: int, long_rows: int) -> list:
    """parse's stderr counts must equal the generator's."""
    text = stderr.decode("utf-8", "replace")
    nonzero = " ".join(f"{k}={v}" for k, v in failures.items() if v) or "none"
    want = [f"rows: {n_rows}", f"coercion failures: {nonzero}",
            f"short rows: {short_rows}, long rows: {long_rows}"]
    return [f"parse did not report {line!r}: {text[-300:]!r}"
            for line in want if line not in text.splitlines()]


def check_bytes(got: bytes, want: bytes, what: str) -> list:
    if got == want:
        return []
    n = min(len(got), len(want))
    unequal = np.flatnonzero(np.frombuffer(got, np.uint8, n)
                             != np.frombuffer(want, np.uint8, n))
    diff = int(unequal[0]) if unequal.size else n
    line = want.count(b"\n", 0, diff) + 1
    return [f"{what} differs from the expected bytes at byte {diff} "
            f"(line {line}); lengths {len(got)} vs {len(want)}"]
