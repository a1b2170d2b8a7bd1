import hashlib
import io
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import rowstream.apply
from rowstream import (
    ApplyConfig,
    ChunkerConfig,
    ColumnType,
    NotSeekable,
    RecordTooLarge,
    WorkerFailure,
    chunk_apply,
    parse_matrix,
)

# worker functions live at module level so the process pool can pickle them


def count_records(data: bytes) -> int:
    return data.count(b"\n") + (0 if data.endswith(b"\n") else 1)


def identity(data: bytes) -> bytes:
    return data


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def boom_on_marker(data: bytes) -> int:
    if b"BOOM" in data:
        raise ValueError("poisoned chunk")
    return len(data)


def xtx_bytes(data: bytes) -> bytes:
    m, _ = parse_matrix(data, ColumnType.REAL)
    return (m.values.T @ m.values).tobytes()


def sleepy_reverse(data: bytes) -> int:
    # later chunks finish first; collection order must not care
    time.sleep(max(0.0, 0.06 - 0.02 * (data[0] - 0x30)))
    return len(data)


def cfg(mode, parallel=1, target=32):
    return ApplyConfig(
        mode=mode,
        parallel=parallel,
        chunker=ChunkerConfig(target_bytes=target),
    )


@pytest.fixture
def counted_file(tmp_path):
    # 25 fixed-width records; target 40 puts 10+10+5 records per chunk
    path = tmp_path / "counted.txt"
    path.write_bytes(b"".join(b"%03d\n" % i for i in range(25)))
    return path


def test_record_counts_per_chunk_all_modes(counted_file):
    for mode, parallel in (("sequential", 1), ("pipeline", 3), ("split", 3)):
        got = chunk_apply(counted_file, count_records, cfg(mode, parallel, 40))
        assert got == [10, 10, 5], mode


def test_identity_concatenates_to_source(tmp_path):
    data = b"".join(b"%d,%d\n" % (i, i * i) for i in range(500))
    path = tmp_path / "src.csv"
    path.write_bytes(data)
    got = chunk_apply(path, identity, cfg("pipeline", 4, target=256))
    assert len(got) > 4
    assert b"".join(got) == data


def test_mode_equivalence(tmp_path):
    rng = np.random.default_rng(8)
    rows = [b"x" * int(rng.integers(0, 30)) + b"\n" for _ in range(400)]
    path = tmp_path / "var.txt"
    path.write_bytes(b"".join(rows))
    runs = [
        chunk_apply(path, digest, cfg("sequential", 1, 128)),
        chunk_apply(path, digest, cfg("pipeline", 1, 128)),
        chunk_apply(path, digest, cfg("pipeline", 2, 128)),
        chunk_apply(path, digest, cfg("pipeline", 8, 128)),
        chunk_apply(path, digest, cfg("split", 8, 128)),
        chunk_apply(path, digest, cfg("pipeline", 4, 128)),
        chunk_apply(path, digest, cfg("split", 3, 128)),
    ]
    for run in runs[1:]:
        assert run == runs[0]


def test_crossproducts_bit_identical_across_modes(tmp_path):
    rng = np.random.default_rng(4)
    rows = [
        (",".join(repr(float(v)) for v in rng.normal(size=3)) + "\n").encode()
        for _ in range(300)
    ]
    path = tmp_path / "num.csv"
    path.write_bytes(b"".join(rows))
    base = chunk_apply(path, xtx_bytes, cfg("sequential", 1, 512))
    for mode, parallel in (("pipeline", 2), ("pipeline", 8), ("split", 8)):
        assert chunk_apply(path, xtx_bytes, cfg(mode, parallel, 512)) == base


def test_results_ordered_despite_completion_order(tmp_path):
    path = tmp_path / "ord.txt"
    records = [b"%d%s\n" % (i, b"a" * (i + 1)) for i in range(4)]
    path.write_bytes(b"".join(records))
    got = chunk_apply(path, sleepy_reverse, cfg("pipeline", 4, 2))
    assert got == [len(r) for r in records]


def test_exactly_once_total(tmp_path):
    data = b"".join(b"%d\n" % i for i in range(1234))
    path = tmp_path / "tot.txt"
    path.write_bytes(data)
    for mode, parallel in (("sequential", 1), ("pipeline", 4), ("split", 4)):
        counts = chunk_apply(path, count_records, cfg(mode, parallel, 100))
        assert sum(counts) == 1234


@pytest.mark.parametrize(
    "mode,parallel", [("sequential", 1), ("pipeline", 2), ("split", 2)]
)
def test_worker_failure_carries_seq(tmp_path, mode, parallel):
    # fixed-width records, two per chunk, four chunks; split's second worker
    # reads chunks 2 and 3, so the seq it reports must count the first's
    for marked, seq in ((3, 1), (4, 2), (7, 3)):
        rows = [b"row%02d\n" % i for i in range(8)]
        rows[marked] = b"BOOM!\n"
        path = tmp_path / "boom.txt"
        path.write_bytes(b"".join(rows))
        with pytest.raises(WorkerFailure) as info:
            chunk_apply(path, boom_on_marker, cfg(mode, parallel, 12))
        assert info.value.seq == seq
        assert isinstance(info.value.cause, ValueError)


def test_worker_failure_pickles():
    # split workers raise it in the pool, so it must cross a process boundary
    failure = pickle.loads(pickle.dumps(WorkerFailure(3, ValueError("bad"))))
    assert failure.seq == 3
    assert isinstance(failure.cause, ValueError)
    assert str(failure) == "chunk 3 failed: ValueError('bad')"


def test_pipeline_event_log_exact_unfolding(tmp_path):
    path = tmp_path / "four.txt"
    path.write_bytes(b"".join(b"%d\n" % i for i in range(4)))
    events = []
    chunk_apply(
        path,
        count_records,
        cfg("pipeline", 2, target=2),
        on_event=lambda kind, seq: events.append((kind, seq)),
    )
    assert events == [
        ("read_start", 0), ("read_end", 0), ("dispatch", 0),
        ("read_start", 1), ("read_end", 1), ("dispatch", 1),
        ("read_start", 2), ("read_end", 2), ("collect", 0), ("dispatch", 2),
        ("read_start", 3), ("read_end", 3), ("collect", 1), ("dispatch", 3),
        ("read_start", 4), ("read_end", -1), ("collect", 2),
        ("collect", 3),
    ]


@pytest.mark.parametrize("parallel,expected", [
    (1, [
        ("read_start", 0), ("read_end", 0), ("dispatch", 0),
        ("read_start", 1), ("read_end", 1), ("collect", 0), ("dispatch", 1),
        ("read_start", 2), ("read_end", 2), ("collect", 1), ("dispatch", 2),
        ("read_start", 3), ("read_end", 3), ("collect", 2), ("dispatch", 3),
        ("read_start", 4), ("read_end", -1), ("collect", 3),
    ]),
    (3, [
        ("read_start", 0), ("read_end", 0), ("dispatch", 0),
        ("read_start", 1), ("read_end", 1), ("dispatch", 1),
        ("read_start", 2), ("read_end", 2), ("dispatch", 2),
        ("read_start", 3), ("read_end", 3), ("collect", 0), ("dispatch", 3),
        ("read_start", 4), ("read_end", -1),
        ("collect", 1), ("collect", 2), ("collect", 3),
    ]),
])
def test_pipeline_event_log_exact_at_parallel(tmp_path, parallel, expected):
    # a chunk is read before the oldest computation is collected, so each
    # read overlaps the work in flight
    path = tmp_path / "four.txt"
    path.write_bytes(b"".join(b"%d\n" % i for i in range(4)))
    events = []
    chunk_apply(
        path,
        count_records,
        cfg("pipeline", parallel, target=2),
        on_event=lambda kind, seq: events.append((kind, seq)),
    )
    assert events == expected


def assert_scheduling_contract(events, parallel):
    reads_open = 0
    in_flight = 0
    last_dispatch = last_collect = -1
    for kind, seq in events:
        if kind == "read_start":
            reads_open += 1
        elif kind == "read_end":
            reads_open -= 1
        elif kind == "dispatch":
            in_flight += 1
            assert seq == last_dispatch + 1  # dispatch in seq order
            last_dispatch = seq
        elif kind == "collect":
            in_flight -= 1
            assert seq == last_collect + 1  # collect in seq order
            last_collect = seq
        assert 0 <= reads_open <= 1, "more than one read in flight"
        assert 0 <= in_flight <= parallel, "too many computations in flight"


@pytest.mark.parametrize("parallel", [1, 2, 3, 8])
def test_pipeline_contract_holds(tmp_path, parallel):
    path = tmp_path / "many.txt"
    path.write_bytes(b"".join(b"%04d\n" % i for i in range(60)))
    events = []
    master = threading.get_ident()
    threads = set()

    def watch(kind, seq):
        threads.add(threading.get_ident())
        events.append((kind, seq))

    chunk_apply(
        path, count_records,
        cfg("pipeline", parallel, target=25),
        on_event=watch,
    )
    assert threads == {master}  # only the master reads and schedules
    assert_scheduling_contract(events, parallel)
    n_chunks = sum(1 for k, _ in events if k == "dispatch")
    assert sum(1 for k, _ in events if k == "collect") == n_chunks


def test_sequential_event_log(tmp_path):
    path = tmp_path / "two.txt"
    path.write_bytes(b"a\nb\n")
    events = []
    chunk_apply(
        path, count_records, cfg("sequential", 1, target=2),
        on_event=lambda kind, seq: events.append((kind, seq)),
    )
    assert events == [
        ("read_start", 0), ("read_end", 0), ("dispatch", 0), ("collect", 0),
        ("read_start", 1), ("read_end", 1), ("dispatch", 1), ("collect", 1),
        ("read_start", 2), ("read_end", -1),
    ]


def test_split_needs_a_real_file(tmp_path):
    with pytest.raises(NotSeekable):
        chunk_apply(io.BytesIO(b"a\nb\n"), count_records, cfg("split", 2))
    # a device reports size 0, which must not read as an empty file
    with pytest.raises(NotSeekable):
        chunk_apply("/dev/zero", count_records, cfg("split", 2))
    with pytest.raises(NotSeekable):
        chunk_apply(tmp_path / "missing.txt", count_records, cfg("split", 2))


def test_split_accepts_open_file_handle(tmp_path):
    path = tmp_path / "h.txt"
    path.write_bytes(b"a\nb\nc\n")
    with open(path, "rb") as fh:
        got = chunk_apply(fh, count_records, cfg("split", 2, target=4))
    assert sum(got) == 3


@pytest.mark.parametrize("mode", ["sequential", "pipeline", "split"])
def test_every_mode_reads_a_handle_from_where_it_stands(tmp_path, mode):
    path = tmp_path / "headed.txt"
    path.write_bytes(b"header\n" + b"".join(b"%d\n" % i for i in range(20)))
    runs = []
    for run_cfg in (cfg("sequential", 1, 8), cfg(mode, 2, 8)):
        with open(path, "rb") as fh:
            fh.readline()
            runs.append(chunk_apply(fh, count_records, run_cfg))
    assert runs[1] == runs[0] == [4, 4, 4, 2, 3, 3]


def test_streams_fine_for_master_read_modes():
    data = b"".join(b"%d\n" % i for i in range(20))
    assert sum(chunk_apply(io.BytesIO(data), count_records,
                           cfg("sequential", 1, 16))) == 20
    assert sum(chunk_apply(io.BytesIO(data), count_records,
                           cfg("pipeline", 2, 16))) == 20


def test_split_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_bytes(b"")
    assert chunk_apply(path, count_records, cfg("split", 4)) == []


def test_more_workers_than_windows(tmp_path):
    path = tmp_path / "small.txt"
    path.write_bytes(b"a\nb\n")
    got = chunk_apply(path, count_records, cfg("split", 16, target=1024))
    assert got == [2]


def test_config_validation():
    with pytest.raises(ValueError):
        ApplyConfig(mode="turbo")
    with pytest.raises(ValueError):
        ApplyConfig(parallel=0)


class RecordingPool(ProcessPoolExecutor):
    sizes = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)
        super().__init__(max_workers=max_workers)


@pytest.mark.parametrize("mode", ["pipeline", "split"])
def test_pool_never_outnumbers_windows(tmp_path, monkeypatch, mode):
    monkeypatch.setattr(rowstream.apply, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    path = tmp_path / "one.txt"
    path.write_bytes(b"a\nb\n")  # 4 bytes: one window at target 32
    assert chunk_apply(path, count_records, cfg(mode, 4)) == [2]
    with open(path, "rb") as fh:
        assert chunk_apply(fh, count_records, cfg(mode, 4)) == [2]
    path.write_bytes(b"".join(b"%d\n" % i for i in range(30)))  # 3 windows
    assert sum(chunk_apply(path, count_records, cfg(mode, 4))) == 30
    assert RecordingPool.sizes == [1, 1, 3]
    if mode == "pipeline":
        # a plain stream's size is unknown, so the pool takes ``parallel``
        stream = io.BytesIO(b"a\nb\n")
        assert chunk_apply(stream, count_records, cfg(mode, 2)) == [2]
        assert chunk_apply(b"a\nb\n", count_records, cfg(mode, 2)) == [2]
        # nor is a device's, though it reports size 0
        with pytest.raises(RecordTooLarge):
            chunk_apply("/dev/zero", count_records, cfg(mode, 2))
        assert RecordingPool.sizes == [1, 1, 3, 2, 1, 2]
