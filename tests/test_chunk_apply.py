import gzip
import hashlib
import io
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

import rowstream._forkpool
from rowstream import (
    ApplyConfig,
    ChunkerConfig,
    ColumnType,
    NotSeekable,
    RecordTooLarge,
    WorkerFailure,
    chunk_apply,
    iter_apply,
    iter_chunks,
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


def die_on_marker(data: bytes) -> int:
    if b"KILL" in data:
        os.kill(os.getpid(), signal.SIGKILL)
    return len(data)


def sleep_on_marker(data: bytes) -> int:
    if b"SLEEP" in data:
        time.sleep(10)
    return len(data)


# pickled by name, which a lambda lacks
unpicklable = lambda data: len(data)  # noqa: E731


def fail_unpicklably(data: bytes) -> int:
    raise ValueError(unpicklable)


class Unloadable(Exception):
    """Pickles, but cannot be rebuilt from the arguments it pickles."""

    def __init__(self, a, b):
        super().__init__(a)


def fail_unloadably(data: bytes) -> int:
    raise Unloadable(1, 2)


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
    (3, [
        ("read_start", 0), ("read_end", 0), ("dispatch", 0),
        ("read_start", 1), ("read_end", 1), ("dispatch", 1),
        ("read_start", 2), ("read_end", 2), ("dispatch", 2),
        ("read_start", 3), ("read_end", 3), ("collect", 0), ("dispatch", 3),
        ("read_start", 4), ("read_end", -1),
        ("collect", 1), ("collect", 2), ("collect", 3),
    ]),
], ids=["3-expected1"])  # keeps the id the case is known by
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


def test_split_refuses_a_stream_at_the_first_next():
    results = iter_apply(io.BytesIO(b"a\n"), count_records, cfg("split", 2))
    with pytest.raises(NotSeekable):
        next(results)


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
    # a wrapper whose raw stream is a plain file is one too
    with tempfile.NamedTemporaryFile(dir=tmp_path) as fh:
        fh.write(b"a\nb\nc\n")
        fh.flush()
        fh.seek(0)
        assert sum(chunk_apply(fh, count_records, cfg("split", 2, 4))) == 3


def test_a_gzip_handle_is_a_stream(tmp_path):
    # its name is the compressed file, which split must not chunk as records
    path = tmp_path / "h.txt.gz"
    with gzip.open(path, "wb") as fh:
        fh.write(b"".join(b"%040x\n" % i for i in range(5000)))
    with gzip.open(path, "rb") as fh, pytest.raises(NotSeekable):
        chunk_apply(fh, count_records, cfg("split", 2, 4096))
    with gzip.open(path, "rb") as fh:
        got = chunk_apply(fh, count_records, cfg("pipeline", 2, 4096))
    assert len(got) == 51 and sum(got) == 5000


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


class RecordingPool(rowstream._forkpool.ForkPool):
    sizes = []

    def __init__(self, workers):
        RecordingPool.sizes.append(workers)
        super().__init__(workers)


def children_left() -> bool:
    """Whether this process has a child, running or not yet reaped; it
    reaps none of them."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


@pytest.mark.parametrize("mode", ["pipeline", "split"])
def test_pool_never_outnumbers_windows(tmp_path, monkeypatch, mode):
    monkeypatch.setattr(rowstream._forkpool, "ForkPool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    path = tmp_path / "one.txt"
    path.write_bytes(b"a\nb\n")  # 4 bytes: one window at target 32
    assert chunk_apply(path, count_records, cfg(mode, 4)) == [2]
    with open(path, "rb") as fh:
        assert chunk_apply(fh, count_records, cfg(mode, 4)) == [2]
    path.write_bytes(b"".join(b"%d\n" % i for i in range(30)))  # 3 windows
    assert sum(chunk_apply(path, count_records, cfg(mode, 4))) == 30
    assert RecordingPool.sizes == [3]  # one window runs in-process
    if mode == "pipeline":
        # a plain stream's size is unknown, so the pool takes ``parallel``
        stream = io.BytesIO(b"a\nb\n")
        assert chunk_apply(stream, count_records, cfg(mode, 2)) == [2]
        assert chunk_apply(b"a\nb\n", count_records, cfg(mode, 2)) == [2]
        # nor is a device's, though it reports size 0
        with pytest.raises(RecordTooLarge):
            chunk_apply("/dev/zero", count_records, cfg(mode, 2))
        assert RecordingPool.sizes == [3, 2, 2]


def test_a_pooled_mode_left_with_one_worker_runs_the_sequential_loop(
        tmp_path, monkeypatch):
    monkeypatch.setattr(rowstream._forkpool, "ForkPool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    four, one, empty = (tmp_path / f"{name}.txt"
                        for name in ("four", "one", "empty"))
    four.write_bytes(b"".join(b"%d\n" % i for i in range(4)))
    one.write_bytes(b"a\nb\n")  # one window at target 32
    empty.write_bytes(b"")
    master = threading.get_ident()

    def run(path, run_cfg):
        events, threads = [], set()

        def f(data):  # a closure does not pickle, so no worker can run it
            threads.add(threading.get_ident())
            return count_records(data)

        got = chunk_apply(path, f, run_cfg,
                          on_event=lambda kind, seq: events.append((kind, seq)))
        assert threads == ({master} if got else set())
        return got, events

    for path, target, mode, parallel in (
            (four, 2, "pipeline", 1), (one, 32, "pipeline", 4),
            (one, 32, "split", 4), (empty, 32, "split", 4)):
        want = run(path, cfg("sequential", 1, target))
        assert run(path, cfg(mode, parallel, target)) == want, (path, mode)
    assert RecordingPool.sizes == []


@pytest.mark.parametrize("mode", ["sequential", "pipeline"])
def test_iterable_of_payloads_is_a_source(tmp_path, mode):
    path = tmp_path / "p.txt"
    path.write_bytes(b"".join(b"%d\n" % i for i in range(30)))
    want = chunk_apply(path, digest, cfg("sequential", 1, 16))
    payloads = [c.data for c in iter_chunks(path, ChunkerConfig(16))]
    assert chunk_apply(payloads, digest, cfg(mode, 2)) == want
    assert chunk_apply(iter(payloads), digest, cfg(mode, 2)) == want
    with pytest.raises(NotSeekable):
        chunk_apply(payloads, digest, cfg("split", 2))


def test_iter_apply_yields_before_the_source_ends():
    pulled = []

    def payloads():
        for i in range(20):
            pulled.append(i)
            yield b"%d\n" % i

    events = []
    results = iter_apply(payloads(), count_records, cfg("pipeline", 2),
                         on_event=lambda kind, seq: events.append((kind, seq)))
    assert next(results) == 1
    # chunk 0 is yielded once chunk 2 is read and dispatched
    assert pulled == [0, 1, 2]
    assert events[-2:] == [("collect", 0), ("dispatch", 2)]
    results.close()
    assert not children_left()


@pytest.mark.parametrize("mode,parallel", [("sequential", 1), ("pipeline", 2),
                                           ("pipeline", 8)])
def test_failed_chunk_before_a_failed_read_comes_first(tmp_path, mode,
                                                       parallel):
    # chunk 0 fails in f, and the read of chunk 1 fails: its record is over
    # the chunker's cap
    path = tmp_path / "late.txt"
    path.write_bytes(b"BOOM\n" + b"x" * 100 + b"\n")
    with pytest.raises(WorkerFailure) as info:
        chunk_apply(path, boom_on_marker, cfg(mode, parallel, 4))
    assert info.value.seq == 0
    path.write_bytes(b"abc\n" + b"x" * 100 + b"\n")
    results = iter_apply(path, boom_on_marker, cfg(mode, parallel, 4))
    assert next(results) == 4
    with pytest.raises(RecordTooLarge):
        next(results)
    assert not children_left()


def test_a_killed_worker_fails_its_chunk(tmp_path):
    # a worker killed by a signal or the OOM killer ends its reply pipe;
    # fixed-width records, two per chunk, four chunks
    rows = [b"row%02d\n" % i for i in range(8)]
    rows[5] = b"KILL!\n"
    path = tmp_path / "kill.txt"
    path.write_bytes(b"".join(rows))
    with pytest.raises(WorkerFailure) as info:
        chunk_apply(path, die_on_marker, cfg("pipeline", 2, 12))
    assert info.value.seq == 2
    assert isinstance(info.value.cause, ChildProcessError)
    assert str(info.value.cause).endswith(f"exit status {-signal.SIGKILL}")
    # split's workers number their own chunks, so the master knows no seq
    with pytest.raises(ChildProcessError):
        chunk_apply(path, die_on_marker, cfg("split", 2, 12))
    assert not children_left()


@pytest.mark.parametrize("mode", ["pipeline", "split"])
def test_an_unpicklable_function_fails_its_call(tmp_path, mode):
    path = tmp_path / "three.txt"
    path.write_bytes(b"".join(b"%d\n" % i for i in range(30)))  # 3 windows
    if mode == "pipeline":
        with pytest.raises(WorkerFailure) as info:
            chunk_apply(path, unpicklable, cfg(mode, 2))
        assert info.value.seq == 0
        assert isinstance(info.value.cause, pickle.PicklingError)
    else:
        with pytest.raises(pickle.PicklingError):
            chunk_apply(path, unpicklable, cfg(mode, 2))
    assert not children_left()


@pytest.mark.parametrize("mode", ["pipeline", "split"])
def test_a_failure_that_cannot_cross_still_reaches_the_master(tmp_path, mode):
    # one failure cannot be pickled by the worker, the other cannot be
    # unpickled by the master; either way the call fails with that error
    path = tmp_path / "three.txt"
    path.write_bytes(b"".join(b"%d\n" % i for i in range(30)))  # 3 windows
    for f, error in ((fail_unpicklably, pickle.PicklingError),
                     (fail_unloadably, TypeError)):
        if mode == "pipeline":
            with pytest.raises(WorkerFailure) as info:
                chunk_apply(path, f, cfg(mode, 2))
            assert info.value.seq == 0
            assert isinstance(info.value.cause, error)
        else:
            # a split worker's failure is a WorkerFailure holding f's error
            with pytest.raises(error):
                chunk_apply(path, f, cfg(mode, 2))
    assert not children_left()


@pytest.mark.parametrize("mode,marked", [("pipeline", 1), ("split", 3)])
def test_closing_does_not_wait_for_abandoned_work(tmp_path, mode, marked):
    # one record per chunk; when the first result is yielded, the marked
    # chunk is in flight
    rows = [b"%07d\n" % i for i in range(4)]
    rows[marked] = b"SLEEP!!\n"
    path = tmp_path / "sleep.txt"
    path.write_bytes(b"".join(rows))
    results = iter_apply(path, sleep_on_marker, cfg(mode, 2, 8))
    assert next(results) == 8
    started = time.monotonic()
    results.close()
    assert time.monotonic() - started < 5
    assert not children_left()


def test_a_pool_of_many_workers_shuts_down(tmp_path):
    # each worker is forked while the master holds the pipe ends of the
    # workers forked before it
    path = tmp_path / "many.txt"
    path.write_bytes(b"".join(b"%d\n" % i for i in range(200)))
    got = []

    def run():
        for mode in ("pipeline", "split"):
            got.append(sum(chunk_apply(path, count_records, cfg(mode, 5))))

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(60)
    assert not runner.is_alive()
    assert got == [200, 200]
    assert not children_left()


@pytest.mark.parametrize("first,second", [("pipeline", "pipeline"),
                                          ("split", "pipeline")])
def test_interleaved_pools_shut_down(tmp_path, first, second):
    # the second pool's workers are forked while the first pool is alive,
    # so they hold copies of its pipe ends; the first pool ends first
    short, long = tmp_path / "short.txt", tmp_path / "long.txt"
    short.write_bytes(b"".join(b"%d\n" % i for i in range(30)))
    long.write_bytes(b"".join(b"%d\n" % i for i in range(60)))
    got = []

    def run():
        a = iter_apply(short, count_records, cfg(first, 2))
        b = iter_apply(long, count_records, cfg(second, 2))
        got.extend(zip(a, b))
        b.close()

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(60)
    assert not runner.is_alive()
    want = chunk_apply(short, count_records, cfg("sequential"))
    assert [x for x, _ in got] == want
    assert not children_left()


@pytest.mark.parametrize("mode", ["pipeline", "split"])
def test_a_workers_output_is_written_once(tmp_path, mode):
    # stdout is a pipe, so block-buffered: the master's buffer must not be
    # copied into the workers, nor a worker's lost when it is killed
    path = tmp_path / "six.txt"
    path.write_bytes(b"".join(b"%03d\n" % i for i in range(6)))
    code = (
        "import sys\n"
        "from rowstream import ApplyConfig, ChunkerConfig, chunk_apply\n"
        "def shout(data):\n"
        "    sys.stdout.write('worker ' + data.decode())\n"
        "    return len(data)\n"
        "print('master before')\n"
        "cfg = ApplyConfig(sys.argv[2], 2, ChunkerConfig(4))\n"
        "assert chunk_apply(sys.argv[1], shout, cfg) == [4] * 6\n"
        "print('master after')\n")
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-c", code, str(path), mode],
                          capture_output=True, text=True, check=True, env=env)
    lines = proc.stdout.splitlines()
    assert lines[0] == "master before" and lines[-1] == "master after"
    assert sorted(lines[1:-1]) == [f"worker {i:03d}" for i in range(6)]


def test_a_worker_holds_one_call_at_most():
    # a worker's unread reply is read before it is sent another call; were
    # it not, the master would block writing a call the worker cannot read
    # while the worker blocks writing a reply the master does not read
    big = b"x" * (1 << 20)  # more than a pipe holds
    got = []

    def run():
        with rowstream._forkpool.ForkPool(2) as pool:
            calls = [pool.submit(identity, big) for _ in range(4)]
            got.extend(len(call.result()) for call in calls)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(60)
    assert not runner.is_alive()
    assert got == [len(big)] * 4
    assert not children_left()
