import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_benchmark_imports_resolve(monkeypatch):
    # perfbench/ is frozen between benchmark changes; a name it imports from
    # rowstream must not disappear before the benchmark changes too
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        importlib.import_module("inprocess")
    finally:
        for name in ("inprocess", "workloads"):
            sys.modules.pop(name, None)
    assert hasattr(rowstream.NormalEqAccumulator, "zero")


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
