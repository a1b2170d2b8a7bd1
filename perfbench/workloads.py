"""Seeded input generators for the benchmark workloads, with the expected
results each generator knows by construction.

Every generator is a pure function of ``(seed, n_rows)``: the same arguments
give the same bytes.  Alongside the input it returns what a correct program
must produce from it, computed here with numpy and plain Python, never with
rowstream:

- ``airline``: the design matrix ``mm`` must write (one-hot DayOfWeek, hhmm
  arithmetic on DepTime, listwise deletion of rows with a null) and the row
  counts ``mm`` must report.
- ``roundtrip``: canonical text, so ``parse`` must reproduce it byte for byte.
- ``dirty``: the rendering ``parse`` must write after nulling malformed
  numerics, padding short rows, truncating long rows and dropping CRs, plus
  the per-column failure and ragged-row counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AIRLINE_HEADER = (
    "Year,Month,DayofMonth,DayOfWeek,DepTime,CRSDepTime,ArrTime,CRSArrTime,"
    "UniqueCarrier,FlightNum,TailNum,ActualElapsedTime,CRSElapsedTime,AirTime,"
    "ArrDelay,DepDelay,Origin,Dest,Distance,TaxiIn,TaxiOut,Cancelled,"
    "CancellationCode,Diverted,CarrierDelay,WeatherDelay,NASDelay,"
    "SecurityDelay,LateAircraftDelay"
).split(",")

# The model the paper's motivating job fits, as rowstream mm arguments.
AIRLINE_MM_ARGS = [
    "--header",
    "--factor", "DayOfWeek=1,2,3,4,5,6,7",
    "--hhmm", "DepTime",
    "--numeric", "DepDelay",
    "--response", "ArrDelay",
]
AIRLINE_DESIGN_NAMES = (
    ["(Intercept)", "ArrDelay"]
    + [f"DayOfWeek{d}" for d in range(2, 8)]
    + ["DepTime", "DepDelay"]
)
AIRLINE_RESPONSE = "ArrDelay"

MIXED_HEADER = ["id", "value", "label", "flag", "stamp"]
MIXED_SCHEMA = "i,r,c,l,t"
_NUMERIC_COLS = (0, 1, 3, 4)  # id, value, flag, stamp
_MALFORMED = {0: b"12x", 1: b"1.2.3", 3: b"yes", 4: b"bad-time"}
# one malformed cell per numeric column, one short and one long row per block
DIRTY_BLOCK = 500

_CARRIERS = [b"WN", b"AA", b"DL", b"UA", b"US", b"NW", b"CO", b"MQ", b"OO", b"XE"]
_AIRPORTS = [
    b"ATL", b"ORD", b"DFW", b"DEN", b"LAX", b"PHX", b"IAH", b"LAS", b"DTW",
    b"SFO", b"SLC", b"MSP", b"EWR", b"MCO", b"JFK", b"BOS", b"SEA", b"CLT",
    b"LGA", b"BWI", b"IAD", b"TPA", b"SAN", b"MDW",
]
_LETTERS = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype="S1")


@dataclass
class AirlineInput:
    csv: bytes
    n_rows: int
    design: np.ndarray  # the checkpoint mm must write, as float64
    n_dropped_null: int


@dataclass
class MixedInput:
    csv: bytes
    n_rows: int
    expected_out: bytes  # what `parse --out` must write
    failures: dict  # column -> coercion failures
    short_rows: int
    long_rows: int


def _ints(values, na) -> list:
    """Render integers as rowstream does (%d), with NA at ``na``."""
    out = [b"%d" % v for v in values.tolist()]
    for i in np.flatnonzero(na).tolist():
        out[i] = b"NA"
    return out


def _hhmm(minutes: np.ndarray) -> np.ndarray:
    return (minutes // 60) * 100 + minutes % 60


def airline(seed: int, n_rows: int) -> AirlineInput:
    """Rows shaped like the ASA 2009 Data Expo on-time files.

    Scheduled departures cluster in the daytime, as in the real data.  About
    2% of flights are cancelled (NA times and delays, a cancellation code)
    and 0.3% diverted (NA arrival fields); a few departures just past
    midnight are written as 2400-2459 clock readings.
    """
    rng = np.random.default_rng([seed, 1])
    n = n_rows
    month = rng.integers(1, 13, n)
    day = rng.integers(1, 29, n)
    dow = rng.integers(1, 8, n)
    sched = np.clip(rng.normal(800, 230, n), 330, 1430).astype(np.int64)
    sched -= sched % 5
    late = rng.random(n) < 0.25
    dep_delay = np.where(
        late,
        rng.exponential(35.0, n).astype(np.int64) + 1,
        np.rint(rng.normal(-2.0, 4.0, n)).astype(np.int64),
    )
    dep_min = sched + dep_delay
    # departures that slipped past midnight: a few keep the 24xx spelling
    past = dep_min >= 1440
    keep_24 = past & (dep_min < 1500) & (rng.random(n) < 0.5)
    dep_clock = _hhmm(dep_min % 1440)
    dep_clock[keep_24] = 2400 + (dep_min[keep_24] - 1440)
    distance = rng.integers(90, 2600, n)
    crs_elapsed = 25 + distance // 8 + rng.integers(0, 20, n)
    taxi_out = rng.integers(5, 40, n)
    taxi_in = rng.integers(2, 15, n)
    arr_delay = dep_delay + np.rint(rng.normal(-3.0, 9.0, n)).astype(np.int64)
    actual = crs_elapsed + (arr_delay - dep_delay)
    air = np.maximum(actual - taxi_in - taxi_out, 10)
    arr_clock = _hhmm((dep_min + actual) % 1440)
    crs_arr = _hhmm((sched + crs_elapsed) % 1440)

    cancelled = rng.random(n) < 0.02
    diverted = ~cancelled & (rng.random(n) < 0.003)
    no_dep = cancelled
    no_arr = cancelled | diverted
    delayed = ~no_arr & (arr_delay >= 15)
    # the five cause columns split the arrival delay of late flights
    causes = rng.dirichlet(np.ones(5), n)
    cause_min = np.floor(causes * np.maximum(arr_delay, 0)[:, None]).astype(np.int64)
    cause_min[:, 0] += np.maximum(arr_delay, 0) - cause_min.sum(axis=1)

    carrier_idx = rng.integers(0, len(_CARRIERS), n)
    origin_idx = rng.integers(0, len(_AIRPORTS), n)
    dest_idx = (origin_idx + rng.integers(1, len(_AIRPORTS), n)) % len(_AIRPORTS)
    tail_num = rng.integers(100, 999, n)
    tail_a = _LETTERS[rng.integers(0, 26, n)]
    tail_b = _LETTERS[rng.integers(0, 26, n)]
    codes = np.array([b"A", b"B", b"C", b"D"])[rng.integers(0, 4, n)]

    none = np.zeros(n, dtype=bool)
    columns = [
        [b"2008"] * n,
        _ints(month, none),
        _ints(day, none),
        _ints(dow, none),
        _ints(dep_clock, no_dep),
        _ints(_hhmm(sched), none),
        _ints(arr_clock, no_arr),
        _ints(crs_arr, none),
        [_CARRIERS[i] for i in carrier_idx.tolist()],
        _ints(rng.integers(1, 7500, n), none),
        [b"N%d%s%s" % t for t in zip(tail_num.tolist(), tail_a.tolist(),
                                     tail_b.tolist())],
        _ints(actual, no_arr),
        _ints(crs_elapsed, none),
        _ints(air, no_arr),
        _ints(arr_delay, no_arr),
        _ints(dep_delay, no_dep),
        [_AIRPORTS[i] for i in origin_idx.tolist()],
        [_AIRPORTS[i] for i in dest_idx.tolist()],
        _ints(distance, none),
        _ints(taxi_in, no_arr),
        _ints(taxi_out, no_dep),
        _ints(cancelled.astype(np.int64), none),
        [c if x else b"" for c, x in zip(codes.tolist(), cancelled.tolist())],
        _ints(diverted.astype(np.int64), none),
    ] + [_ints(cause_min[:, k], ~delayed) for k in range(5)]
    lines = [",".join(AIRLINE_HEADER).encode()]
    lines.extend(b",".join(row) for row in zip(*columns))
    csv = b"\n".join(lines) + b"\n"

    keep = ~no_arr  # DayOfWeek is never null; DepTime/DepDelay null only if cancelled
    dep_read = dep_clock[keep]
    design = np.zeros((int(keep.sum()), len(AIRLINE_DESIGN_NAMES)))
    design[:, 0] = 1.0
    design[:, 1] = arr_delay[keep]
    for level in range(2, 8):
        design[:, level] = dow[keep] == level
    design[:, 8] = (dep_read // 100) * 60 + dep_read % 100
    design[:, 9] = dep_delay[keep]
    return AirlineInput(csv, n, design, int(no_arr.sum()))


def _mixed_cells(rng, n: int) -> list:
    """Canonical i,r,c,l,t cells: each is exactly what rowstream writes back.

    Reals are random doubles written with repr (mostly 17 significant
    digits); nulls are NA; timestamps are epoch seconds written as reals.
    """
    def na():
        return rng.random(n) < 0.04

    ints = _ints(rng.integers(-(10 ** 12), 10 ** 12, n), na())
    mant = rng.normal(size=n) * 10.0 ** rng.integers(-6, 7, n)
    reals = [repr(v).encode() for v in mant.tolist()]
    lengths = rng.integers(3, 11, n)
    letters = _LETTERS[rng.integers(0, 26, int(lengths.sum()))].tobytes()
    ends = np.cumsum(lengths).tolist()
    labels = [letters[e - k:e] for e, k in zip(ends, lengths.tolist())]
    flags = [b"TRUE" if v else b"FALSE" for v in (rng.random(n) < 0.5).tolist()]
    # quarter seconds from 2000 to 2020
    quarters = 4 * 946684800 + rng.integers(0, 4 * 20 * 365 * 86400, n)
    stamp_cells = [repr(v / 4).encode() for v in quarters.tolist()]
    columns = [ints, reals, labels, flags, stamp_cells]
    for col in columns[1:]:
        for i in np.flatnonzero(na()).tolist():
            col[i] = b"NA"
    return [list(row) for row in zip(*columns)]


def roundtrip(seed: int, n_rows: int) -> MixedInput:
    """Uniform canonical mixed-type data: parse must echo it exactly."""
    rng = np.random.default_rng([seed, 2])
    rows = _mixed_cells(rng, n_rows)
    lines = [",".join(MIXED_HEADER).encode()] + [b",".join(r) for r in rows]
    csv = b"\n".join(lines) + b"\n"
    return MixedInput(csv, n_rows, csv, dict.fromkeys(MIXED_HEADER, 0), 0, 0)


def dirty(seed: int, n_rows: int) -> MixedInput:
    """The roundtrip shape with defects in every block of DIRTY_BLOCK rows:
    one malformed cell in each numeric column, one short row, one long row,
    and CRLF line endings throughout."""
    rng = np.random.default_rng([seed, 3])
    rows = _mixed_cells(rng, n_rows)
    n_cols = len(MIXED_HEADER)
    failures = dict.fromkeys(MIXED_HEADER, 0)
    expected = [list(r) for r in rows]
    raw = [list(r) for r in rows]
    short = long_ = 0
    for start in range(0, n_rows, DIRTY_BLOCK):
        size = min(DIRTY_BLOCK, n_rows - start)
        if size < len(_NUMERIC_COLS) + 2:
            break
        picks = (start + rng.choice(size, len(_NUMERIC_COLS) + 2,
                                    replace=False)).tolist()
        for i, col in zip(picks, _NUMERIC_COLS):
            raw[i][col] = _MALFORMED[col]
            expected[i][col] = b"NA"
            failures[MIXED_HEADER[col]] += 1
        i_short, i_long = picks[-2:]
        keep = int(rng.integers(1, n_cols))
        raw[i_short] = raw[i_short][:keep]
        expected[i_short] = expected[i_short][:keep] + [b"NA"] * (n_cols - keep)
        raw[i_long] = raw[i_long] + [b"extra"] * int(rng.integers(1, 3))
        short += 1
        long_ += 1
    header = ",".join(MIXED_HEADER).encode()
    csv = b"\r\n".join([header] + [b",".join(r) for r in raw]) + b"\r\n"
    out = b"\n".join([header] + [b",".join(r) for r in expected]) + b"\n"
    return MixedInput(csv, n_rows, out, failures, short, long_)


def one_record(workload: str, seed: int) -> bytes:
    """A header plus one record, for timing a workload's start-up cost.

    For airline the record is the first one mm keeps, so that fit has a row
    to solve."""
    if workload == "airline":
        data = airline(seed, 64)
        lines = data.csv.split(b"\n")
        for line in lines[1:]:
            fields = line.split(b",")
            if b"NA" not in (fields[4], fields[14], fields[15]):
                return lines[0] + b"\n" + line + b"\n"
        raise ValueError("no complete airline record in the sample")
    gen = roundtrip if workload == "roundtrip" else dirty
    return gen(seed, 1).csv
