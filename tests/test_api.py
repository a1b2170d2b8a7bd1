import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rowstream
from rowstream.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_public_name_resolves():
    missing = [name for name in rowstream.__all__
               if not hasattr(rowstream, name)]
    assert missing == []
    assert len(set(rowstream.__all__)) == len(rowstream.__all__)


def test_every_private_module_name_is_read():
    # a module-level private name that no module reads is dead code
    trees = [ast.parse(path.read_text())
             for path in (ROOT / "src" / "rowstream").glob("*.py")]
    defined, read = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    assert sorted(private - read) == []


def test_every_module_import_is_read():
    # a module-level import that its module never reads is left over from
    # deleted code; names in __all__ are read by importers
    unused = []
    for path in sorted((ROOT / "src" / "rowstream").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            targets = getattr(node, "targets", ())
            if [getattr(t, "id", None) for t in targets] == ["__all__"]:
                read.update(c.value for c in ast.walk(node.value)
                            if isinstance(c, ast.Constant))
        for node in tree.body:
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{path.name}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0]
                           not in read]
    assert unused == []


def test_benchmark_imports_resolve(monkeypatch, tmp_path):
    # perfbench/ is frozen between benchmark changes; every rowstream call
    # its in-process runs make must still bind, and give what its checks
    # expect, before the benchmark changes too
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        inprocess = importlib.import_module("inprocess")
        workloads = importlib.import_module("workloads")
        _run_benchmark_calls(inprocess, workloads, tmp_path)
    finally:
        for name in ("inprocess", "workloads"):
            sys.modules.pop(name, None)


def _run_benchmark_calls(inprocess, workloads, tmp_path):
    target = 4096
    tracer = inprocess.NullTracer()
    air = workloads.airline(7, 300)
    csv, ckpt = tmp_path / "air.csv", tmp_path / "air.mm"
    csv.write_bytes(air.csv)
    mm = inprocess.run_mm(tracer, csv, ckpt, target)
    assert mm["counts"] == (300, len(air.design), air.n_dropped_null, 0)
    written, _ = rowstream.parse_matrix(ckpt.read_bytes(),
                                        rowstream.ColumnType.REAL)
    assert np.array_equal(written.values, air.design)
    coefs = set()
    for mode in ("seq", "pipeline", "split"):
        fit = inprocess.run_fit(tracer, ckpt, mode, target)
        assert (fit["n_rows"], fit["failures"]) == (len(air.design), 0)
        coefs.add(repr(fit["fit"].coef))
    assert len(coefs) == 1

    dirty = workloads.dirty(7, 300)
    csv, out = tmp_path / "dirty.csv", tmp_path / "dirty.out"
    csv.write_bytes(dirty.csv)
    parsed = inprocess.run_parse(tracer, csv, out, workloads.MIXED_SCHEMA,
                                 target)
    assert out.read_bytes() == dirty.expected_out
    report = parsed["report"]
    assert (report.n_records, report.column_failures, report.short_rows,
            report.long_rows) == (300, dirty.failures, dirty.short_rows,
                                  dirty.long_rows)
    probe = inprocess.probe_parse(csv, workloads.MIXED_SCHEMA, target)
    assert set(probe) == {"tokenize", "coerce"}
    assert set(probe["coerce"]) == {"integer", "real", "character",
                                    "logical", "timestamp"}


def test_readme_library_snippet_runs(tmp_path, capsys):
    # the snippet runs as a script, so its chunk function lives in
    # __main__ and the process pool must be able to pickle it from there
    section = README.read_text().split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    (tmp_path / "snippet.py").write_text(snippet)
    src = tmp_path / "line.csv"
    src.write_bytes(b"y,x\n3,1\n5,2\n7,3\n9,4\n11,5\n")
    assert main(["mm", str(src), "--out", str(tmp_path / "airline.mm"),
                 "--header", "--response", "y", "--numeric", "x"]) == 0
    capsys.readouterr()
    package_root = str(Path(rowstream.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root,
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "snippet.py"], cwd=tmp_path, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    coef, dropped = proc.stdout.rsplit(" ", 1)
    coef = ast.literal_eval(coef)
    assert coef == pytest.approx({"x0": 1.0, "x1": 2.0}, abs=1e-9)
    assert dropped == "[]\n"
