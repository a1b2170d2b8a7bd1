import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rowstream import read_sidecar, write_sidecar
from rowstream.cli import main
from rowstream.frame import _SAMPLE_RECORDS


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


def test_failed_parse_leaves_out_path_as_it_was(tmp_path, capsysbinary):
    src = tmp_path / "cr.csv"
    src.write_bytes(b"a,b\nx,y\r\r\n")  # one CR stays in the last cell
    dst = tmp_path / "o.csv"
    args = ["parse", str(src), "--header", "--schema", "c,c", "--out", str(dst)]
    code, _, err = run(args, capsysbinary)
    assert code == 1 and "needs quoting" in err
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
    link = tmp_path / "link.csv"
    link.symlink_to(dst)
    src.write_bytes(b"p,q\n")
    code, _, _ = run(args[:-1] + [str(link)], capsysbinary)
    assert code == 0
    assert link.is_symlink() and dst.read_bytes() == b"p,q\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cr.csv", "link.csv", "o.csv"]


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


def _parse_at(argv, target):
    """Run ``parse ... --out``: (exit code, output bytes or None, stderr
    without the throughput line), with CHUNK_TARGET_BYTES set to ``target``
    or unset for None."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ), contextlib.redirect_stderr(err):
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
    rows=st.lists(st.lists(st.sampled_from(["1", "22", "x", "NA", ""]),
                           min_size=1, max_size=2), max_size=8),
    crlf=st.booleans(),
    final_newline=st.booleans(),
    k=st.integers(0, 9),
    header=st.booleans(),
    infer=st.booleans(),
    target=st.sampled_from([None, *range(1, 17)]),
)
@example(rows=[["a", "b"], ["1", "x"], ["22", "y"], ["3", "z"]], crlf=True,
         final_newline=False, k=2, header=True, infer=True, target=3)
def test_parse_skip_equals_parse_of_the_rest(rows, crlf, final_newline, k,
                                             header, infer, target):
    # --skip k at any chunk size acts as if the first k records were absent
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
                        target)
        want = _parse_at(["parse", str(rest)] + flags, None)
    assert got == want


def test_parse_infer_does_not_depend_on_chunk_size(tmp_path):
    cases = [
        (b"alpha,beta\n1,2\n3,4\n", True, "i,i"),
        (b"1\n2\n3\nx\n", False, "c"),
        # the sample is the first _SAMPLE_RECORDS records after the header
        (b"h\n" + b"1\n" * _SAMPLE_RECORDS + b"x\n", True, "i"),
        (b"h\n" + b"1\n" * (_SAMPLE_RECORDS - 1) + b"x\n", True, "c"),
    ]
    for data, header, letters in cases:
        src = tmp_path / "s.csv"
        src.write_bytes(data)
        argv = ["parse", str(src), "--schema", "infer"]
        argv += ["--header"] if header else []
        results = [_parse_at(argv, target) for target in (2, 8, None)]
        assert results[0][0] == 0, results[0]
        assert f"inferred schema: {letters}" in results[0][2]
        assert results[1:] == results[:1] * 2


def test_parse_strict_exit_two(tmp_path, capsysbinary):
    src = tmp_path / "bad.csv"
    src.write_bytes(b"notanint\n")
    code, _, err = run(
        ["parse", str(src), "--schema", "i", "--strict", "--out", "-"],
        capsysbinary,
    )
    assert code == 2
    assert "error:" in err


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
