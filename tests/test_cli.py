import contextlib
import gc
import io
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import AIRLINE_HEADER, airline_csv
from test_chunk_apply import RecordingPool, children_left

import rowstream._forkpool
import rowstream.cli
from rowstream import ChunkerConfig, read_sidecar, write_sidecar
from rowstream.cli import _parse_chunk, main
from rowstream.frame import _SAMPLE_RECORDS


def parse_chunk_or_die(data: bytes, schema, strict):
    if b"KILL" in data:
        os.kill(os.getpid(), signal.SIGKILL)
    return _parse_chunk(data, schema, strict)


def run(argv, capsysbinary):
    code = main(argv)
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err.decode()


def test_parse_worked_example(tmp_path, capsysbinary):
    src = tmp_path / "a.csv"
    src.write_bytes(b"1,a\n")
    code, out, err = run(["parse", str(src), "--schema", "i,c", "--out", "-"],
                         capsysbinary)
    assert code == 0
    assert out == b"1,a\n"
    assert "rows: 1" in err


def test_parse_to_file_and_reparse(tmp_path, capsysbinary):
    src = tmp_path / "in.csv"
    src.write_bytes(b"1,x\nNA,y\n2,\n")
    dst = tmp_path / "out.csv"
    code, out, _ = run(
        ["parse", str(src), "--schema", "i,c", "--out", str(dst)], capsysbinary
    )
    assert code == 0 and out == b""
    first = dst.read_bytes()
    # parse output is always a valid parse input, and re-parsing is stable
    again = tmp_path / "again.csv"
    code, _, _ = run(
        ["parse", str(dst), "--schema", "i,c", "--out", str(again)], capsysbinary
    )
    assert code == 0
    assert again.read_bytes() == first


def test_failed_parse_leaves_out_path_as_it_was(tmp_path, capsysbinary,
                                                monkeypatch):
    # at a 4-byte target the failing record is a chunk of its own, which two
    # usable CPUs send to a worker process
    monkeypatch.setenv("CHUNK_TARGET_BYTES", "4")
    monkeypatch.setattr(rowstream._forkpool, "ForkPool", RecordingPool)
    for workers in (1, 2):
        monkeypatch.setattr(rowstream.cli, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(RecordingPool, "sizes", [])
        tmp = tmp_path / str(workers)
        tmp.mkdir()
        src = tmp / "cr.csv"
        src.write_bytes(b"a,b\nx,y\r\r\n")  # one CR stays in the last cell
        dst = tmp / "o.csv"
        args = ["parse", str(src), "--header", "--schema", "c,c",
                "--out", str(dst)]
        code, _, err = run(args, capsysbinary)
        assert code == 1
        assert err == ("error: cell b'y\\r' needs quoting but no quote byte "
                       "is configured\n")
        assert not dst.exists()
        dst.write_bytes(b"keep\n")
        code, _, _ = run(args, capsysbinary)
        assert code == 1
        assert dst.read_bytes() == b"keep\n"
        src.write_bytes(b"a,b\nx,y\n")
        code, _, _ = run(args, capsysbinary)
        assert code == 0
        assert dst.read_bytes() == b"a,b\nx,y\n"
        # a symlink is written through, not replaced
        link = tmp / "link.csv"
        link.symlink_to(dst)
        src.write_bytes(b"p,q\n")
        code, _, _ = run(args[:-1] + [str(link)], capsysbinary)
        assert code == 0
        assert link.is_symlink() and dst.read_bytes() == b"p,q\n"
        assert sorted(p.name for p in tmp.iterdir()) == [
            "cr.csv", "link.csv", "o.csv"]
        assert RecordingPool.sizes == ([2] * 3 if workers == 2 else [])
        assert not children_left()


def test_parse_whose_worker_dies_exits_one(tmp_path, capsysbinary,
                                           monkeypatch):
    monkeypatch.setenv("CHUNK_TARGET_BYTES", "4")
    monkeypatch.setattr(rowstream.cli, "_usable_cpus", lambda: 2)
    # the workers are forked after the patch, so they run it
    monkeypatch.setattr(rowstream.cli, "_parse_chunk", parse_chunk_or_die)
    src, dst = tmp_path / "in.csv", tmp_path / "o.csv"
    src.write_bytes(b"a\nb\nKILL\nc\n")
    code, out, err = run(["parse", str(src), "--schema", "c",
                          "--out", str(dst)], capsysbinary)
    assert (code, out) == (1, b"")
    assert re.fullmatch(r"error: worker process \d+ died with exit status "
                        rf"{-signal.SIGKILL}\n", err), err
    assert not dst.exists()
    assert not children_left()


def test_parse_infer_reports_types(tmp_path, capsysbinary):
    src = tmp_path / "b.csv"
    src.write_bytes(b"n,f\n1,1.5\n2,2.5\n")
    code, out, err = run(
        ["parse", str(src), "--schema", "infer", "--header"], capsysbinary
    )
    assert code == 0
    assert "inferred schema: i,r" in err
    assert out == b"n,f\n1,1.5\n2,2.5\n"


def test_parse_schema_compact_letters(tmp_path, capsysbinary):
    src = tmp_path / "c.csv"
    src.write_bytes(b"1,2.5,x\n")
    code, out, _ = run(["parse", str(src), "--schema", "irc", "--out", "-"],
                       capsysbinary)
    assert code == 0
    assert out == b"1,2.5,x\n"


def test_parse_skip_and_sep(tmp_path, capsysbinary):
    src = tmp_path / "d.tsv"
    src.write_bytes(b"garbage line\n1\t2\n")
    code, out, _ = run(
        ["parse", str(src), "--schema", "i,i", "--sep", "\\t", "--skip", "1"],
        capsysbinary,
    )
    assert code == 0
    assert out == b"1\t2\n"


def _parse_at(argv, target, workers=1):
    """Run ``parse ... --out``: (exit code, output bytes or None, stderr
    without the throughput line), with CHUNK_TARGET_BYTES set to ``target``
    or unset for None, on ``workers`` usable CPUs."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ), contextlib.redirect_stderr(err), \
            mock.patch.object(rowstream.cli, "_usable_cpus", lambda: workers):
        os.environ.pop("CHUNK_TARGET_BYTES", None)
        if target is not None:
            os.environ["CHUNK_TARGET_BYTES"] = str(target)
        out = Path(tmp, "out.csv")
        code = main(argv + ["--out", str(out)])
        written = out.read_bytes() if out.exists() else None
    lines = [line for line in err.getvalue().splitlines()
             if not line.startswith("throughput:")]
    return code, written, lines


@settings(max_examples=200, deadline=None)
@given(
    # a quote byte is data to parse; a CR cell last in a CRLF record is
    # a cell parse refuses to write
    rows=st.lists(st.lists(st.sampled_from(["1", "22", "x", "NA", "", 'q"',
                                            "\r"]),
                           min_size=1, max_size=2), max_size=8),
    crlf=st.booleans(),
    final_newline=st.booleans(),
    k=st.integers(0, 9),
    header=st.booleans(),
    infer=st.booleans(),
    target=st.sampled_from([None, *range(1, 17)]),
    workers=st.sampled_from([1, 2, 3]),
)
@example(rows=[["a", "b"], ["1", "x"], ["22", "y"], ["3", "z"]], crlf=True,
         final_newline=False, k=2, header=True, infer=True, target=3,
         workers=1)
@example(rows=[["a", "b"], ["1", "x"], ["22", "y"], ["3", "z"]], crlf=True,
         final_newline=False, k=2, header=True, infer=True, target=3,
         workers=3)
def test_parse_skip_equals_parse_of_the_rest(rows, crlf, final_newline, k,
                                             header, infer, target, workers):
    # --skip k at any chunk size and worker count acts as if the first k
    # records were absent
    eol = b"\r\n" if crlf else b"\n"
    records = [",".join(r).encode() for r in rows]

    def text(recs):
        return eol.join(recs) + (eol if recs and final_newline else b"")

    flags = ["--schema", "infer" if infer else "i,c"]
    flags += ["--header"] if header else []
    with tempfile.TemporaryDirectory() as tmp:
        whole, rest = Path(tmp, "whole.csv"), Path(tmp, "rest.csv")
        whole.write_bytes(text(records))
        rest.write_bytes(text(records[k:]))
        got = _parse_at(["parse", str(whole), "--skip", str(k)] + flags,
                        target, workers)
        want = _parse_at(["parse", str(rest)] + flags, None)
    assert got == want


def test_parse_infer_does_not_depend_on_chunk_size(tmp_path):
    cases = [
        (b"alpha,beta\n1,2\n3,4\n", True, "i,i"),
        (b"1\n2\n3\nx\n", False, "c"),
        # the sample is the first _SAMPLE_RECORDS records after the header
        (b"h\n" + b"1\n" * _SAMPLE_RECORDS + b"x\n", True, "i"),
        (b"h\n" + b"1\n" * (_SAMPLE_RECORDS - 1) + b"x\n", True, "c"),
        (b"a,b\r\n1,2.5\r\n3,NA\r\n4,x\r\n", True, "i,c"),
        (b"q,n\n'x\",1\nb\"c,2\n\"\",x\n", True, "c,c"),
    ]
    for data, header, letters in cases:
        src = tmp_path / "s.csv"
        src.write_bytes(data)
        argv = ["parse", str(src), "--schema", "infer"]
        argv += ["--header"] if header else []
        # nor on the worker count
        results = [_parse_at(argv, target, workers)
                   for target in (2, 8, None) for workers in (1, 3)]
        assert results[0][0] == 0, results[0]
        assert f"inferred schema: {letters}" in results[0][2]
        assert results[1:] == results[:1] * 5


def test_parse_strict_exit_two(tmp_path, capsysbinary, monkeypatch):
    monkeypatch.setenv("CHUNK_TARGET_BYTES", "4")
    src = tmp_path / "bad.csv"
    src.write_bytes(b"1\n2\nnotanint\n3\n")
    dst = tmp_path / "o.csv"
    dst.write_bytes(b"keep\n")
    for workers in (1, 2):
        monkeypatch.setattr(rowstream.cli, "_usable_cpus", lambda: workers)
        code, _, err = run(
            ["parse", str(src), "--schema", "i", "--strict", "--out", str(dst)],
            capsysbinary,
        )
        assert code == 2
        assert err == "error: 1 coercion failures\n"
        assert dst.read_bytes() == b"keep\n"
        assert not children_left()


def test_parse_first_chunk_errors_keep_their_order(tmp_path, capsysbinary,
                                                   monkeypatch):
    # in the first chunk, a strict violation is found before a header cell
    # that needs quoting, and that header cell before such a row cell
    monkeypatch.setenv("CHUNK_TARGET_BYTES", "8")  # one chunk, two windows
    src = tmp_path / "h.csv"
    src.write_bytes(b"NA,b\nx,y\r\r\n")
    argv = ["parse", str(src), "--header", "--schema"]
    for workers in (1, 2):
        monkeypatch.setattr(rowstream.cli, "_usable_cpus", lambda: workers)
        assert run(argv + ["c,c"], capsysbinary) == (
            1, b"", "error: cell b'NA' needs quoting but no quote byte is "
                    "configured\n")
        assert run(argv + ["i,c", "--strict"], capsysbinary) == (
            2, b"", "error: 1 coercion failures\n")


def test_parse_starts_no_pool_for_one_window_one_cpu_or_a_fifo(
        tmp_path, capsysbinary, monkeypatch):
    # a pool costs start-up time that one worker cannot win back
    monkeypatch.setattr(rowstream._forkpool, "ForkPool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setenv("CHUNK_TARGET_BYTES", "8")
    one, three = b"n,s\n1,a\n", b"n,s\n1,a\n2,b\n3,c\n4,d\n"
    src, fifo = tmp_path / "in.csv", tmp_path / "in.fifo"
    os.mkfifo(fifo)

    # each read of the clock is a microsecond after the one before, so the
    # throughput in MB/s is the count of bytes read
    clock = itertools.count(0, 1e-6)
    monkeypatch.setattr(rowstream.cli, "time",
                        SimpleNamespace(perf_counter=lambda: next(clock)))

    def parse(path, data, cpus):
        monkeypatch.setattr(rowstream.cli, "_usable_cpus", lambda: cpus)
        if path == fifo:
            writer = threading.Thread(target=fifo.write_bytes, args=(data,),
                                      daemon=True)
            writer.start()
        else:
            path.write_bytes(data)
        got = run(["parse", str(path), "--header", "--schema", "i,c"],
                  capsysbinary)
        assert got[:2] == (0, data)
        assert f"throughput: {len(data):.1f} MB/s" in got[2].splitlines()
        if path == fifo:
            writer.join(10)
            assert not writer.is_alive()

    parse(src, one, 4)  # one window
    parse(src, three, 1)  # one usable CPU
    parse(fifo, three, 4)  # size unknown
    assert RecordingPool.sizes == []
    parse(src, three, 4)  # three windows
    assert RecordingPool.sizes == [3]


def test_runs_that_start_no_pool_do_not_import_one(tmp_path):
    # concurrent.futures brings multiprocessing, socket and selectors
    src = tmp_path / "a.csv"
    src.write_bytes(b"1,a\n")
    code = (
        "import sys, rowstream.cli\n"
        "assert rowstream.cli.main(['parse', sys.argv[1], '--schema', 'i,c',"
        " '--out', sys.argv[1] + '.out']) == 0\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'}"
        " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_pooled_runs_import_no_pool_library(tmp_path):
    # the pool is forked workers over pipes; each pooled run forks two
    src, ckpt = tmp_path / "toy.csv", tmp_path / "toy.mm"
    write_toy_input(src)
    runs = [["parse", str(src), "--header", "--schema", "infer",
             "--out", str(tmp_path / "p.csv")],
            ["mm", str(src), "--header", "--numeric", "x", "--factor",
             "g=a,b", "--response", "y", "--out", str(ckpt)]]
    runs += [["fit", str(ckpt), "--response", "y", "--mode", mode,
              "--parallel", "2"] for mode in ("pipeline", "split")]
    code = (
        "import json, os, sys, rowstream.cli\n"
        "forks = []\n"
        "os.register_at_fork(after_in_parent=lambda: forks.append(1))\n"
        "rowstream.cli._usable_cpus = lambda: 2\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert rowstream.cli.main(argv) == 0\n"
        "print(len(forks), sorted({'concurrent.futures', 'multiprocessing'}"
        " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "CHUNK_TARGET_BYTES": "16"})
    assert proc.stdout.splitlines()[-1] == "6 []"


_COMMON_MODULES = {"_coerce", "chunker", "cli", "errors", "frame", "matrix",
                   "writer"}


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    # every rowstream module a process imports is compiled, unless its
    # bytecode is cached, so what a command does not run it should not load
    src, ckpt = tmp_path / "toy.csv", tmp_path / "toy.mm"
    write_toy_input(src)
    commands = {
        "parse": (["parse", str(src), "--header", "--schema", "infer",
                   "--out", str(tmp_path / "p.csv")], {"apply"}),
        "mm": (["mm", str(src), "--header", "--numeric", "x",
                "--factor", "g=a,b", "--response", "y", "--out", str(ckpt)],
               {"model_matrix"}),
        "fit": (["fit", str(ckpt), "--response", "y"], {"apply", "ols"}),
    }
    for name, (argv, own) in commands.items():
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "rowstream", *argv],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = {line.rsplit("|", 1)[1].strip().split(".", 1)[1]
                  for line in proc.stderr.splitlines()
                  if line.startswith("import time:")
                  and line.rsplit("|", 1)[1].strip().startswith("rowstream.")}
        assert loaded == _COMMON_MODULES | own, name


def test_only_the_command_freezes_the_heap(tmp_path, capsysbinary):
    # a frozen heap is never collected: right for a process that ends with
    # its command, wrong for a caller of cli.main
    src = tmp_path / "a.csv"
    src.write_bytes(b"1\n")
    argv = ["parse", str(src), "--schema", "i", "--out", str(tmp_path / "o")]
    assert run(argv, capsysbinary)[0] == 0
    assert gc.get_freeze_count() == 0
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            "runpy.run_module('rowstream', run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "True\n"


@pytest.mark.parametrize("mode", ["pipeline", "split"])
def test_fit_of_one_window_starts_no_pool(tmp_path, capsysbinary,
                                          monkeypatch, mode):
    src, ckpt = tmp_path / "toy.csv", tmp_path / "toy.mm"
    write_toy_input(src)
    assert run(["mm", str(src), "--header", "--numeric", "x", "--factor",
                "g=a,b", "--response", "y", "--out", str(ckpt)],
               capsysbinary)[0] == 0
    seq = run(["fit", str(ckpt), "--response", "y"], capsysbinary)
    monkeypatch.setattr(rowstream._forkpool, "ForkPool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    got = run(["fit", str(ckpt), "--response", "y", "--mode", mode,
               "--parallel", "2"], capsysbinary)
    assert got[:2] == seq[:2] and got[0] == 0
    assert RecordingPool.sizes == []


def test_parse_missing_file_exit_one(capsysbinary):
    code, _, err = run(["parse", "/no/such/file.csv", "--schema", "i"],
                       capsysbinary)
    assert code == 1
    assert "error:" in err


def test_parse_bad_schema_letter(tmp_path, capsysbinary):
    src = tmp_path / "e.csv"
    src.write_bytes(b"1\n")
    code, _, err = run(["parse", str(src), "--schema", "q"], capsysbinary)
    assert code == 1
    assert "unknown column type letter" in err


def write_toy_input(path):
    rows = [b"y,g,x\n"]
    for i in range(1, 9):
        level = b"a" if i % 2 else b"b"
        rows.append(b"%d.5,%s,%d\n" % (i, level, i))
    path.write_bytes(b"".join(rows))


def test_mm_builds_checkpoint(tmp_path, capsysbinary):
    src = tmp_path / "toy.csv"
    write_toy_input(src)
    ckpt = tmp_path / "toy.mm"
    code, _, err = run(
        [
            "mm", str(src), "--header", "--response", "y",
            "--factor", "g=a,b", "--numeric", "x", "--out", str(ckpt),
        ],
        capsysbinary,
    )
    assert code == 0
    assert read_sidecar(ckpt) == ["(Intercept)", "y", "gb", "x"]
    lines = ckpt.read_bytes().splitlines()
    assert len(lines) == 8
    assert lines[0] == b"1.0,1.5,0.0,1.0"
    assert lines[1] == b"1.0,2.5,1.0,2.0"
    assert not (tmp_path / "toy.mm.partial").exists()
    assert "8 rows in, 8 written" in err


def test_mm_term_order_follows_flags(tmp_path, capsysbinary):
    src = tmp_path / "toy.csv"
    write_toy_input(src)
    ckpt = tmp_path / "ordered.mm"
    code, _, _ = run(
        [
            "mm", str(src), "--header", "--response", "y",
            "--numeric", "x", "--factor", "g=a,b", "--out", str(ckpt),
        ],
        capsysbinary,
    )
    assert code == 0
    assert read_sidecar(ckpt) == ["(Intercept)", "y", "x", "gb"]


def test_mm_concatenation_property(tmp_path, capsysbinary):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_bytes(b"2.0,5\n3.0,6\n")
    b.write_bytes(b"4.0,7\n")
    both = tmp_path / "both.mm"
    split = tmp_path / "split.mm"
    args = ["--response", "V1", "--numeric", "V2", "--schema", "r,i"]
    code, _, _ = run(["mm", str(a), str(b), "--out", str(both)] + args,
                     capsysbinary)
    assert code == 0
    code, _, _ = run(["mm", str(a), "--out", str(split)] + args, capsysbinary)
    assert code == 0
    code, _, _ = run(["mm", str(b), "--out", str(split)] + args, capsysbinary)
    assert code == 0
    assert split.read_bytes() == both.read_bytes()
    assert read_sidecar(split) == read_sidecar(both)


def _mm_at(argv, target):
    """Run ``mm ... --out``: (exit code, checkpoint bytes, sidecar bytes),
    with CHUNK_TARGET_BYTES set to ``target`` or unset for None."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ), contextlib.redirect_stderr(err):
        os.environ.pop("CHUNK_TARGET_BYTES", None)
        if target is not None:
            os.environ["CHUNK_TARGET_BYTES"] = str(target)
        out = Path(tmp, "out.mm")
        code = main(argv + ["--out", str(out)])
        return code, out.read_bytes(), Path(tmp, "out.mm.names").read_bytes()


@pytest.mark.parametrize("target", [None, 1, 7, 64])
def test_mm_skip_equals_mm_of_the_rest(tmp_path, target):
    # --skip k at any chunk size acts as if the first k records were absent,
    # before --header takes the next record as the names
    preamble = [b"# ok", b"# s,m"]
    data = [b"1.5,1", b"NA,2", b"2.5,3", b"4.0,4", b"5.5,5"]
    cases = [(preamble + [b"y,x"] + data, 2,
              ["--header", "--response", "y", "--numeric", "x"])]
    cases += [(data, k, ["--schema", "r,i", "--response", "V1", "--numeric",
                         "V2"]) for k in (0, 1, 3, 5)]
    whole, rest = tmp_path / "whole.csv", tmp_path / "rest.csv"
    for records, k, flags in cases:
        whole.write_bytes(b"".join(r + b"\n" for r in records))
        rest.write_bytes(b"".join(r + b"\n" for r in records[k:]))
        got = _mm_at(["mm", str(whole), "--skip", str(k), *flags], target)
        want = _mm_at(["mm", str(rest), *flags], None)
        assert got == want and got[0] == 0


def test_mm_rejects_mismatched_existing_sidecar(tmp_path, capsysbinary):
    src = tmp_path / "toy.csv"
    write_toy_input(src)
    ckpt = tmp_path / "clash.mm"
    write_sidecar(ckpt, ["(Intercept)", "other", "columns"])
    code, _, err = run(
        ["mm", str(src), "--header", "--response", "y", "--numeric", "x",
         "--out", str(ckpt)],
        capsysbinary,
    )
    assert code == 1
    assert "different columns" in err


def test_unfinished_checkpoint_is_refused(tmp_path, capsysbinary):
    a = tmp_path / "a.csv"
    a.write_bytes(b"2.0,5\n3.0,6\n4.0,7\n")
    ckpt = tmp_path / "c.mm"
    args = ["--response", "V1", "--numeric", "V2", "--schema", "r,i",
            "--out", str(ckpt)]
    code, _, _ = run(["mm", str(a), str(tmp_path / "missing.csv")] + args,
                     capsysbinary)
    assert code == 1
    assert (tmp_path / "c.mm.partial").exists()
    before = ckpt.read_bytes()
    # a rerun would append a.csv's rows a second time
    code, _, err = run(["mm", str(a)] + args, capsysbinary)
    assert code == 1
    assert "c.mm.partial" in err
    assert ckpt.read_bytes() == before
    code, out, err = run(["fit", str(ckpt), "--response", "V1"], capsysbinary)
    assert code == 1
    assert out == b"" and "c.mm.partial" in err


def test_mm_refuses_to_append_to_its_own_input(tmp_path, capsysbinary):
    a = tmp_path / "a.csv"
    a.write_bytes(b"y,x\n1.5,1\n2.5,2\n4.0,3\n")
    before = a.read_bytes()
    os.link(a, tmp_path / "b.csv")
    for out in (a, tmp_path / "b.csv"):
        code, _, err = run(["mm", str(tmp_path / "b.csv"), str(a), "--header",
                            "--response", "y", "--numeric", "x", "--out",
                            str(out)], capsysbinary)
        assert code == 1
        assert f"is the input {tmp_path / 'b.csv'}" in err
    assert a.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]


def test_failed_mm_that_appended_nothing_allows_rerun(tmp_path, capsysbinary):
    a = tmp_path / "a.csv"
    a.write_bytes(b"2.0,5\n3.0,6\n4.0,7\n")
    ckpt = tmp_path / "c.mm"
    marker = tmp_path / "c.mm.partial"
    args = ["--response", "V1", "--schema", "r,i", "--out", str(ckpt)]
    code, _, _ = run(["mm", str(tmp_path / "missing.csv"), "--numeric", "V2"]
                     + args, capsysbinary)
    assert code == 1
    assert not marker.exists()
    code, _, _ = run(["mm", str(a), "--numeric", "nosuch"] + args, capsysbinary)
    assert code == 1
    assert not marker.exists()
    assert not (tmp_path / "c.mm.names").exists()
    assert not ckpt.exists()
    code, _, _ = run(["mm", str(a), "--numeric", "V2"] + args, capsysbinary)
    assert code == 0
    assert not marker.exists()
    code, _, err = run(["fit", str(ckpt), "--response", "V1"], capsysbinary)
    assert code == 0
    assert "rows: 3," in err


def test_mm_that_cannot_open_out_leaves_no_marker(tmp_path, capsysbinary):
    # the marker says the data changed; opening --out failed, so nothing did,
    # and a rerun meets the same error instead of a refusal
    a = tmp_path / "a.csv"
    a.write_bytes(b"y,x\n1.5,1\n2.5,2\n")
    out = tmp_path / "outdir"
    out.mkdir()
    for _ in range(2):
        code, _, err = run(["mm", str(a), "--header", "--response", "y",
                            "--numeric", "x", "--out", str(out)], capsysbinary)
        assert code == 1
        assert "Is a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "outdir"]


def test_mm_of_an_input_without_records_writes_an_empty_checkpoint(
        tmp_path, capsysbinary):
    empty = tmp_path / "e.csv"
    empty.write_bytes(b"")
    ckpt = tmp_path / "e.mm"
    code, _, err = run(["mm", str(empty), "--schema", "i,i", "--response", "V1",
                        "--numeric", "V2", "--out", str(ckpt)], capsysbinary)
    assert code == 0, err
    assert ckpt.read_bytes() == b""
    assert read_sidecar(ckpt) == ["(Intercept)", "V1", "V2"]
    assert not (tmp_path / "e.mm.partial").exists()


def test_a_header_only_input_holds_no_records(tmp_path, capsysbinary):
    # under infer, as an empty input does: it adds no rows and is no error
    a1, a2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    a1.write_bytes(b"y,x\n1.5,1\n2.5,2\n4.0,3\n")
    a2.write_bytes(b"y,x\n")
    terms = ["--header", "--response", "y", "--numeric", "x", "--out"]
    one, two = tmp_path / "one.mm", tmp_path / "two.mm"
    assert run(["mm", str(a1), *terms, str(one)], capsysbinary)[0] == 0
    code, _, err = run(["mm", str(a1), str(a2), *terms, str(two)],
                       capsysbinary)
    assert code == 0, err
    assert f"{a2}: 0 rows in, 0 written" in err
    assert not (tmp_path / "two.mm.partial").exists()
    assert two.read_bytes() == one.read_bytes()
    assert (tmp_path / "two.mm.names").read_bytes() == (
        tmp_path / "one.mm.names").read_bytes()
    code, out, err = run(["parse", str(a2), "--header", "--schema", "infer"],
                         capsysbinary)
    assert (code, out) == (0, b"")
    assert "rows: 0" in err.splitlines()


def test_mm_unknown_levels_dropped_and_reported(tmp_path, capsysbinary):
    src = tmp_path / "lv.csv"
    src.write_bytes(b"1.0,a\n2.0,weird\n3.0,b\n")
    ckpt = tmp_path / "lv.mm"
    code, _, err = run(
        ["mm", str(src), "--response", "V1", "--factor", "V2=a,b",
         "--schema", "r,c", "--out", str(ckpt)],
        capsysbinary,
    )
    assert code == 0
    assert "1 dropped (unknown level)" in err
    assert len(ckpt.read_bytes().splitlines()) == 2


def test_mm_bad_factor_syntax(tmp_path, capsysbinary):
    src = tmp_path / "x.csv"
    src.write_bytes(b"1.0,a\n")
    code, _, err = run(
        ["mm", str(src), "--response", "V1", "--factor", "V2", "--out",
         str(tmp_path / "o.mm")],
        capsysbinary,
    )
    assert code == 1
    assert "--factor expects" in err


def test_mm_requires_terms(tmp_path, capsysbinary):
    src = tmp_path / "x.csv"
    src.write_bytes(b"1.0\n")
    code, _, err = run(
        ["mm", str(src), "--response", "V1", "--out", str(tmp_path / "o.mm")],
        capsysbinary,
    )
    assert code == 1
    assert "no model terms" in err


@pytest.mark.parametrize("csv,terms,repeat", [
    (b"y,x\n1,2\n2,3\n4,4\n", ["--numeric", "x", "--numeric", "x"], "x"),
    (b"y,x\n1,2\n2,3\n4,4\n", ["--numeric", "y,x"], "y"),
    (b"y,g,ga\n1,a,2\n2,b,3\n4,a,5\n", ["--factor", "g=b,a", "--numeric", "ga"],
     "ga"),
], ids=["numeric-twice", "response-as-term", "factor-name-clash"])
def test_mm_refuses_repeated_design_names(tmp_path, capsysbinary, csv, terms,
                                          repeat):
    # fit keys coefficients by name: a repeated name used to collapse two
    # columns, or regress the response on itself, and exit 0
    src = tmp_path / "in.csv"
    src.write_bytes(csv)
    code, _, err = run(["mm", str(src), "--header", "--response", "y", *terms,
                        "--out", str(tmp_path / "o.mm")], capsysbinary)
    assert code == 1
    assert f"design column name {repeat!r} repeats" in err
    assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]


@pytest.mark.parametrize("names,repeat", [
    (["(Intercept)", "y", "x", "x"], "x"),
    (["(Intercept)", "y", "y", "x"], "y"),
], ids=["regressor", "response"])
def test_fit_refuses_repeated_sidecar_names(tmp_path, capsysbinary, names,
                                            repeat):
    # a checkpoint written before mm refused repeated names
    ckpt = tmp_path / "old.mm"
    rows = []
    for x in range(1, 8):
        cell = {"(Intercept)": 1.0, "y": 2.0 * x + x % 3, "x": float(x)}
        rows.append(b",".join(b"%r" % cell[name] for name in names) + b"\n")
    ckpt.write_bytes(b"".join(rows))
    write_sidecar(ckpt, names)
    code, out, err = run(["fit", str(ckpt), "--response", "y"], capsysbinary)
    assert code == 1
    assert out == b""
    assert repr(repeat) in err


def write_toy_checkpoint(tmp_path):
    ckpt = tmp_path / "line.mm"
    rows = []
    for x in range(1, 7):
        rows.append(b"1.0,%r,%r\n" % (2.0 * x, float(x)))
    ckpt.write_bytes(b"".join(rows))
    write_sidecar(ckpt, ["(Intercept)", "y", "x"])
    return ckpt


def test_fit_recovers_exact_line(tmp_path, capsysbinary):
    ckpt = write_toy_checkpoint(tmp_path)
    code, out, err = run(["fit", str(ckpt), "--response", "y"], capsysbinary)
    assert code == 0
    lines = out.decode().splitlines()
    coef = {}
    for line in lines:
        name, value = line.rsplit(None, 1)
        coef[name.strip()] = float(value)
    assert abs(coef["x"] - 2.0) < 1e-10
    assert abs(coef["(Intercept)"]) < 1e-10
    assert "aliased" not in out.decode()
    assert "rows: 6" in err


def test_fit_modes_byte_identical(tmp_path, capsysbinary, monkeypatch):
    monkeypatch.setenv("CHUNK_TARGET_BYTES", "64")
    ckpt = write_toy_checkpoint(tmp_path)
    outputs = set()
    for extra in (
        ["--mode", "seq"],
        ["--mode", "pipeline", "--parallel", "2"],
        ["--mode", "pipeline", "--parallel", "8"],
        ["--mode", "split", "--parallel", "8"],
    ):
        code, out, _ = run(["fit", str(ckpt), "--response", "y"] + extra,
                           capsysbinary)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_fit_reports_aliased_column(tmp_path, capsysbinary):
    ckpt = tmp_path / "alias.mm"
    rows = []
    rng = np.random.default_rng(2)
    for _ in range(30):
        x = rng.normal()
        y = 3.0 * x + rng.normal() * 0.1
        rows.append(b"1.0,%r,%r,%r\n" % (y, x, x))
    ckpt.write_bytes(b"".join(rows))
    write_sidecar(ckpt, ["(Intercept)", "y", "x", "x_dup"])
    code, out, _ = run(["fit", str(ckpt), "--response", "y"], capsysbinary)
    assert code == 0
    text = out.decode()
    assert "aliased: x_dup" in text
    assert "x_dup " not in text.split("aliased")[0]


def test_fit_rank_tol_sets_the_aliasing_threshold(tmp_path, capsysbinary):
    # z is x plus noise 1e-3 as large: full rank at the default tolerance,
    # aliased at a looser one
    rng = np.random.default_rng(3)
    rows = []
    for _ in range(200):
        x = rng.normal()
        z = x + 1e-3 * rng.normal()
        rows.append(b"1.0,%r,%r,%r\n" % (2.0 * x + 0.5 * z + 0.1 * rng.normal(),
                                          x, z))
    ckpt = tmp_path / "near.mm"
    ckpt.write_bytes(b"".join(rows))
    write_sidecar(ckpt, ["(Intercept)", "y", "x", "z"])
    code, out, err = run(["fit", str(ckpt), "--response", "y"], capsysbinary)
    assert code == 0
    assert "aliased" not in out.decode() and "rank: 3/3" in err
    assert re.search(r"^z +\S+$", out.decode(), re.M)
    code, out, err = run(["fit", str(ckpt), "--response", "y",
                          "--rank-tol", "1e-4"], capsysbinary)
    assert code == 0
    assert "aliased: z" in out.decode() and "rank: 2/3" in err


def test_fit_missing_response(tmp_path, capsysbinary):
    ckpt = write_toy_checkpoint(tmp_path)
    code, _, err = run(["fit", str(ckpt), "--response", "nope"], capsysbinary)
    assert code == 1
    assert "not in" in err


def test_fit_chunk_count_respects_env(tmp_path, capsysbinary, monkeypatch):
    ckpt = write_toy_checkpoint(tmp_path)
    monkeypatch.setenv("CHUNK_TARGET_BYTES", "32")
    code, _, err = run(["fit", str(ckpt), "--response", "y"], capsysbinary)
    assert code == 0
    chunks = int(err.split("chunks: ")[1].split(",")[0])
    assert chunks > 1


def test_console_script_entry_point(tmp_path):
    src = tmp_path / "tiny.csv"
    src.write_bytes(b"5,hello\n")
    proc = subprocess.run(
        [sys.executable, "-m", "rowstream", "parse", str(src),
         "--schema", "i,c", "--out", "-"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == b"5,hello\n"
    assert b"rows: 1" in proc.stderr


@pytest.mark.parametrize("bad,term", [
    pytest.param(bad, term, id=f"{prefix}{bad.decode()}")
    for prefix, term in (("", "--numeric"), ("hhmm-", "--hhmm"))
    for bad in (b"nan", b"inf", b"-Inf")
])
def test_mm_drops_non_finite_rows_so_fit_solves(tmp_path, capsysbinary, bad,
                                                term):
    clean = b"y,x\n1,2\n3,5\n4,7\n5,11\n"
    dirty = b"y,x\n1,2\n2,%s\n3,5\n%s,6\n4,7\n5,11\n" % (bad, bad)
    fits = []
    for name, data in (("clean", clean), ("dirty", dirty)):
        src = tmp_path / f"{name}.csv"
        src.write_bytes(data)
        ckpt = tmp_path / f"{name}.mm"
        code, _, err = run(["mm", str(src), "--out", str(ckpt), "--header",
                            "--response", "y", term, "x"], capsysbinary)
        assert code == 0, err
        dropped = 2 if name == "dirty" else 0
        assert f"{dropped} dropped (null)" in err
        code, out, err = run(["fit", str(ckpt), "--response", "y"],
                             capsysbinary)
        assert code == 0, err
        fits.append(out)
    assert fits[0] == fits[1]


# Spawns a command and prints its exit code and peak RSS in KiB.  A child's
# ru_maxrss includes the high-water mark of the process that forked it, so
# the command is spawned from this small process rather than from pytest.
# It runs on at most two CPUs, so that parse's master holds at most two
# chunks in flight on any machine.
_TRAMPOLINE = """
import os, subprocess, sys
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss(*argv) -> int:
    env = dict(os.environ)
    env.pop("CHUNK_TARGET_BYTES", None)
    proc = subprocess.run(
        [sys.executable, "-c", _TRAMPOLINE, sys.executable, *argv],
        capture_output=True, text=True, env=env, check=True)
    code, kib = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return kib * 1024


def test_commands_peak_at_a_few_chunks_above_the_import_floor(tmp_path):
    """At the default chunk size, ``mm``, ``fit`` and ``parse`` of a 30 MB
    airline-shaped file each peak within a stated multiple of the chunk
    size above what ``import rowstream.cli`` takes (measured: 8.8, 6.8 and
    15-16 chunks).  ``parse`` converts all 29 columns, and its frame alone
    holds five times its chunk, most of it one ``str`` per Character cell.
    At a 32 MiB chunk size the three peaked at 321, 201 and 139 MB."""
    target = ChunkerConfig().target_bytes
    csv = tmp_path / "air.csv"
    csv.write_bytes(AIRLINE_HEADER.encode() + b"\n" + airline_csv(10_000) * 30)
    ckpt = tmp_path / "air.mm"
    floor = _peak_rss("-c", "import rowstream.cli")
    peaks = {
        "mm": _peak_rss(
            "-m", "rowstream", "mm", str(csv), "--header", "--response",
            "ArrDelay", "--factor", "DayOfWeek=1,2,3,4,5,6,7", "--hhmm",
            "DepTime", "--numeric", "DepDelay", "--out", str(ckpt)),
        "fit": _peak_rss("-m", "rowstream", "fit", str(ckpt), "--response",
                         "ArrDelay"),
        "parse": _peak_rss("-m", "rowstream", "parse", str(csv), "--header",
                           "--schema", "infer", "--out",
                           str(tmp_path / "out.csv")),
    }
    above = {name: round((peak - floor) / target, 1)
             for name, peak in peaks.items()}
    bounds = {"mm": 12, "fit": 10, "parse": 20}
    assert all(above[name] < bounds[name] for name in bounds), above
