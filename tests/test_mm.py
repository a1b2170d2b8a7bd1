"""`rowstream mm` converts only the columns its model names.

The differential test checks the projected command against the unprojected
library pipeline: parse every column, normalize clock columns, expand and
render.  The regression tests pin the cases where naming the kept columns
is easy to get wrong.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import rowstream.frame
from rowstream import (
    ColumnType,
    FactorTerm,
    NumericTerm,
    RowstreamError,
    Schema,
    TermSpec,
    expand,
    format_matrix,
    infer_schema,
    normalize_hhmm_column,
    parse_frame,
    parse_frame_with_header,
    read_sidecar,
    spec_names,
)
from rowstream.cli import main

_LETTER_TYPES = {"i": ColumnType.INTEGER, "r": ColumnType.REAL,
                 "c": ColumnType.CHARACTER, "s": ColumnType.SKIP}

# cell spellings per column kind; "" and NA are nulls, the rest of the
# tail of each pool is malformed for the kind's type
_CELLS = {
    "int": ["0", "7", "-12", "301", "NA", "", "1.5", "x9"],
    "real": ["0.5", "-2.25", "3", "1e3", "NA", "", "1.2.3", "abc"],
    "char": ["a", "bb", "NA", "", "7", "TRUE", "x y"],
    "level": ["a", "b", "c", "a", "b", "zz", "NA"],
    "clock": ["0", "5", "130", "1259", "2400", "NA"],
}
_CLEAN = {"int": 6, "real": 6, "char": 7, "level": 7, "clock": 6}


@st.composite
def mm_cases(draw):
    """A CSV with the model's columns at random positions among unused ones,
    plus the mm arguments and the explicit schema letters."""
    used = [("resp", draw(st.sampled_from(["int", "real"])))]
    for i in range(draw(st.integers(0, 2))):
        used.append((f"x{i}", draw(st.sampled_from(["int", "real"]))))
    if draw(st.booleans()):
        used.append(("g", "level"))
    if draw(st.booleans()) or len(used) == 1:
        used.append(("h", "clock"))
    n_unused = draw(st.integers(0, 12 - len(used)))
    columns = used + [
        ("u", draw(st.sampled_from(["int", "real", "char"])))
        for _ in range(n_unused)
    ]
    order = draw(st.permutations(range(len(columns))))
    columns = [columns[k] for k in order]
    letters = []
    for role, kind in columns:
        if role == "u":
            letters.append(draw(st.sampled_from("ircs")))
        else:
            letters.append({"int": "i", "clock": "i", "real": "r"}.get(kind, "c"))
    dirty = draw(st.booleans())
    n_rows = draw(st.integers(1, 25))
    rows = []
    for _ in range(n_rows):
        cells = []
        for role, kind in columns:
            pool = _CELLS[kind]
            limit = len(pool) if dirty or role == "u" else _CLEAN[kind]
            cells.append(pool[draw(st.integers(0, limit - 1))])
        rows.append(cells)
    header = draw(st.booleans())
    # unused header names may repeat a model column's name: first match wins
    names = [
        draw(st.sampled_from(["u", "v", "resp", "x0", "g"])) if role == "u"
        else role
        for role, _ in columns
    ]
    return columns, letters, rows, header, names


def _model_args(columns, skipped, header, names):
    """mm term flags naming each model column by its header name, or by
    V<k> counting the columns the schema does not skip."""
    if header:
        label = dict(enumerate(names))
    else:
        label, k = {}, 0
        for j, skip in enumerate(skipped):
            if not skip:
                k += 1
                label[j] = f"V{k}"
    pos = {role: j for j, (role, _) in enumerate(columns) if role != "u"}
    args = ["--response", label[pos["resp"]]]
    terms = []
    for role in sorted(pos):
        if role.startswith("x"):
            args += ["--numeric", label[pos[role]]]
            terms.append(NumericTerm(label[pos[role]]))
        elif role == "g":
            args += ["--factor", label[pos[role]] + "=a,b,c"]
            terms.append(FactorTerm(label[pos[role]], ("a", "b", "c")))
        elif role == "h":
            args += ["--hhmm", label[pos[role]]]
            terms.append(NumericTerm(label[pos[role]]))
    hhmm = [label[pos["h"]]] if "h" in pos else []
    return args, TermSpec(label[pos["resp"]], tuple(terms)), hhmm


def _oracle(data, schema_arg, header, spec, hhmm):
    """Unprojected pipeline: (checkpoint, stderr counts) or the error line."""
    try:
        if schema_arg == "infer":
            sample = data.split(b"\n", 1)[1] if header else data
            types = infer_schema(sample).types
        else:
            types = tuple(_LETTER_TYPES[c] for c in schema_arg.split(","))
        schema = Schema(types)
        if header:
            frame, _ = parse_frame_with_header(data, schema)
        else:
            frame, _ = parse_frame(data, schema)
        for column in hhmm:
            frame = normalize_hhmm_column(frame, column)
        matrix, rep = expand(frame, spec, lenient_levels=True)
    except RowstreamError as exc:
        return None, f"error: {exc}"
    counts = (f"{rep.n_input} rows in, {rep.n_rows} written, "
              f"{rep.n_dropped_null} dropped (null), "
              f"{rep.n_dropped_unknown} dropped (unknown level)")
    return format_matrix(matrix, b","), counts


def _run_mm(argv, chunk_bytes=None):
    env = {"CHUNK_TARGET_BYTES": str(chunk_bytes)} if chunk_bytes else {}
    err = io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(mm_cases(), st.booleans(), st.sampled_from([None, 24]))
def test_projection_matches_unprojected_pipeline(case, infer, chunk_bytes):
    columns, letters, rows, header, names = case
    data = b"".join(
        ",".join(cells).encode() + b"\n"
        for cells in ([names] if header else []) + rows
    )
    if infer:
        schema_arg, skipped = "infer", [False] * len(letters)
    else:
        schema_arg, skipped = ",".join(letters), [c == "s" for c in letters]
    args, spec, hhmm = _model_args(columns, skipped, header, names)
    expected, message = _oracle(data, schema_arg, header, spec, hhmm)
    with tempfile.TemporaryDirectory() as tmp:
        src, ckpt = Path(tmp, "in.csv"), Path(tmp, "out.mm")
        src.write_bytes(data)
        argv = ["mm", str(src), "--out", str(ckpt), "--schema", schema_arg]
        code, err = _run_mm(
            argv + args + (["--header"] if header else []), chunk_bytes
        )
        if expected is None:
            assert code == 1
            assert err.splitlines()[-1] == message
            assert not ckpt.exists()
            return
        assert code == 0, err
        assert err == f"{src}: {message}\n"
        assert ckpt.read_bytes() == expected
        assert read_sidecar(ckpt) == spec_names(spec)


def test_headerless_names_count_unprojected_columns(tmp_path):
    src, ckpt = tmp_path / "nh.csv", tmp_path / "nh.mm"
    src.write_bytes(b"x,1,2\ny,3,5\n")
    code, _ = _run_mm(["mm", str(src), "--schema", "s,i,i", "--numeric", "V1",
                       "--response", "V2", "--out", str(ckpt)])
    assert code == 0
    assert ckpt.read_bytes() == b"1.0,2.0,1.0\n1.0,5.0,3.0\n"
    assert read_sidecar(ckpt) == ["(Intercept)", "V2", "V1"]
    # V2 is not converted, and V3 keeps its name
    src.write_bytes(b"x,1,2,4\ny,3,5,6\n")
    ckpt = tmp_path / "nh3.mm"
    code, _ = _run_mm(["mm", str(src), "--schema", "s,i,i,i", "--numeric",
                       "V1", "--response", "V3", "--out", str(ckpt)])
    assert code == 0
    assert ckpt.read_bytes() == b"1.0,4.0,1.0\n1.0,6.0,3.0\n"


def test_term_missing_from_header_is_reported(tmp_path):
    src = tmp_path / "h.csv"
    src.write_bytes(b"y,x,z\n1,2,3\n")
    code, err = _run_mm(["mm", str(src), "--header", "--response", "y",
                         "--numeric", "nosuch", "--out", str(tmp_path / "o.mm")])
    assert code == 1
    assert err.splitlines()[-1] == "error: no column 'nosuch'"


def test_header_schema_arity_mismatch_is_reported(tmp_path):
    src = tmp_path / "h.csv"
    src.write_bytes(b"y,x,z\n1,2,3\n")
    for schema in ("i,i", "i,i,i,i"):
        code, err = _run_mm(["mm", str(src), "--header", "--schema", schema,
                             "--response", "y", "--numeric", "x",
                             "--out", str(tmp_path / "o.mm")])
        assert code == 1
        n_types = len(schema.split(","))
        assert err.splitlines()[-1] == (
            f"error: header has 3 fields, schema has {n_types}"
        )


def test_duplicate_header_names_resolve_to_first(tmp_path):
    src, ckpt = tmp_path / "d.csv", tmp_path / "d.mm"
    src.write_bytes(b"x,y,x\n1,10,100\n2,20,200\n")
    code, _ = _run_mm(["mm", str(src), "--header", "--response", "y",
                       "--numeric", "x", "--out", str(ckpt)])
    assert code == 0
    assert ckpt.read_bytes() == b"1.0,10.0,1.0\n1.0,20.0,2.0\n"


AIRLINE_HEADER = (
    "Year,Month,DayofMonth,DayOfWeek,DepTime,CRSDepTime,ArrTime,CRSArrTime,"
    "UniqueCarrier,FlightNum,TailNum,ActualElapsedTime,CRSElapsedTime,AirTime,"
    "ArrDelay,DepDelay,Origin,Dest,Distance,TaxiIn,TaxiOut,Cancelled,"
    "CancellationCode,Diverted,CarrierDelay,WeatherDelay,NASDelay,"
    "SecurityDelay,LateAircraftDelay"
)


def test_airline_mm_converts_only_model_columns(tmp_path, monkeypatch):
    rows = [AIRLINE_HEADER]
    for i in range(60):
        rows.append(
            f"2008,1,{i % 28 + 1},{i % 7 + 1},{600 + i},600,900,905,WN,{i},"
            f"N{i}X,120,125,100,{i % 9 - 4},{i % 5},ATL,ORD,600,5,10,0,,0,"
            "NA,NA,NA,NA,NA"
        )
    src, ckpt = tmp_path / "air.csv", tmp_path / "air.mm"
    src.write_bytes("\n".join(rows).encode() + b"\n")
    converted, frames = [], []
    convert = rowstream.frame.convert_column

    def counting_convert(fields, ctype, *rest):
        converted.append(ctype)
        return convert(fields, ctype, *rest)

    def recording_expand(frame, *rest, **kwargs):
        frames.append(frame)
        return expand(frame, *rest, **kwargs)

    monkeypatch.setattr(rowstream.frame, "convert_column", counting_convert)
    monkeypatch.setattr("rowstream.cli.expand", recording_expand)
    code, err = _run_mm(
        ["mm", str(src), "--header", "--factor", "DayOfWeek=1,2,3,4,5,6,7",
         "--hhmm", "DepTime", "--numeric", "DepDelay", "--response", "ArrDelay",
         "--out", str(ckpt)],
        chunk_bytes=1024,
    )
    assert code == 0, err
    assert len(frames) > 1
    assert len(converted) == 4 * len(frames)
    assert all(f.names == ["DayOfWeek", "DepTime", "ArrDelay", "DepDelay"]
               for f in frames)
    assert "60 rows in, 60 written" in err
