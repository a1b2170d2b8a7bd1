"""Command-line surface: parse, mm (model-matrix checkpointing), fit.

All diagnostics go to standard error; primary output (re-serialized frames,
coefficient tables) goes to standard output or the --out path, so commands
compose in pipelines.  Exit codes: 0 success, 1 input or format error,
2 verification failure (--strict violations).  The environment variable
CHUNK_TARGET_BYTES overrides the default chunk size.

``parse`` runs each chunk's parse and re-serialization through
``apply.iter_apply``: pipelined over the CPUs the process may run on, but
no more workers than the input has chunk windows, and in-process, with no
pool, when that leaves one worker or the input's size is unknown (a FIFO).
The master writes the results in chunk order, so output never depends on
the worker count, and a failing chunk raises its own error.
``parse --out PATH`` replaces PATH only when the parse succeeds.

``mm`` converts only the response and term columns: every other column is
skipped once the schema is resolved, so its cells cost only tokenizing and,
as before, never affect the checkpoint.  It parses its chunks in-process.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import ExitStack, closing, contextmanager
from dataclasses import replace
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from ._coerce import ColumnType
from .apply import ApplyConfig, _extent, _pool_size, chunk_apply, iter_apply
from .chunker import ChunkerConfig, iter_chunks
from .errors import (
    DimensionMismatch,
    MissingColumn,
    RowstreamError,
    SchemaError,
    StrictViolation,
    WorkerFailure,
)
from .frame import (
    _SAMPLE_RECORDS,
    ParseReport,
    Schema,
    _header_names,
    _skip_records,
    check_layout,
    infer_schema,
    parse_frame,
)
from .matrix import parse_matrix
from .model_matrix import (
    FactorTerm,
    NumericTerm,
    TermSpec,
    expand,
    normalize_hhmm_column,
    spec_names,
)
from .ols import (
    DEFAULT_RANK_TOL,
    NormalEqAccumulator,
    accumulate,
    merge,
    solve_ne,
)
from .writer import (
    append_to_checkpoint,
    format_frame,
    format_matrix,
    read_sidecar,
    sidecar_path,
    write_sidecar,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFY = 2

_LETTER_TYPES = {
    "l": ColumnType.LOGICAL,
    "i": ColumnType.INTEGER,
    "r": ColumnType.REAL,
    "c": ColumnType.CHARACTER,
    "b": ColumnType.BYTES,
    "x": ColumnType.COMPLEX,
    "t": ColumnType.TIMESTAMP,
    "s": ColumnType.SKIP,
}
_TYPE_LETTERS = {v: k for k, v in _LETTER_TYPES.items()}

_SCHEMA_HELP = (
    "comma-separated type letters: l=Logical, i=Integer, r=Real, "
    "c=Character, b=Bytes, x=Complex, t=Timestamp, s=Skip; "
    "or 'infer' to sample the leading records"
)


def _parse_types(text: str) -> tuple:
    tokens = text.split(",") if "," in text else list(text)
    types = []
    for token in tokens:
        token = token.strip()
        if token not in _LETTER_TYPES:
            raise SchemaError(f"unknown column type letter {token!r}")
        types.append(_LETTER_TYPES[token])
    return tuple(types)


def _sep_bytes(text: str) -> bytes:
    if text == "\\t":
        text = "\t"
    raw = text.encode("utf-8")
    check_layout(raw)
    return raw


def _default_chunker() -> ChunkerConfig:
    env = os.environ.get("CHUNK_TARGET_BYTES")
    if env:
        return ChunkerConfig(target_bytes=int(env))
    return ChunkerConfig()


def _resolve_schema(data: bytes, schema_arg, sep, header, columns) -> Schema:
    """The schema of the input whose leading records are ``data``.

    Types are given or inferred from the records after any header.  Names
    come from the header, or are V1, V2, ... over the non-skipped columns.
    With ``columns``, a set of names, every other column is set to SKIP, so
    the parser never converts it, and the kept ones keep their names.
    """
    if schema_arg == "infer":
        sample = _skip_records(data, 1)[0] if header else data
        if not sample:
            raise SchemaError(
                "input holds no data records to infer from; "
                "pass an explicit schema"
            )
        types = infer_schema(sample, field_sep=sep).types
    else:
        types = _parse_types(schema_arg)
    schema = Schema(types, field_sep=sep)
    if header:
        names = _header_names(data, schema)
    else:
        out = iter(schema.out_names())
        names = [None if t is ColumnType.SKIP else next(out) for t in types]
    kept = [t is not ColumnType.SKIP and (columns is None or n in columns)
            for t, n in zip(types, names)]
    return replace(
        schema,
        types=tuple(t if k else ColumnType.SKIP for t, k in zip(types, kept)),
        names=tuple(n for n, k in zip(names, kept) if k),
    )


def _resolve_stream(chunks, schema_arg, sep, header, skip, columns=None):
    """The schema of the input that ``chunks`` (from ``iter_chunks``) cut
    and its data records: ``(schema, chunks)``, or ``(None, ())`` when no
    record follows ``skip``.

    After ``skip`` leading records, the leading chunks are held until they
    contain the header and ``_SAMPLE_RECORDS`` records for ``infer``, or one
    record for a given schema, or the input ends.  Their join resolves the
    schema (see :func:`_resolve_schema`), so the schema does not depend on
    the chunk size.  ``chunks`` yields the held chunks, the header record
    dropped, and then the rest of the file, each record-aligned, so each
    parses on its own with that schema.
    """
    need = _SAMPLE_RECORDS + header if schema_arg == "infer" else 1
    held, n_held = [], 0
    for chunk in chunks:
        data = chunk.data
        if skip:
            data, dropped = _skip_records(data, skip)
            skip -= dropped
        if data:
            held.append(data)
            n_held += data.count(b"\n")
            if n_held >= need:
                break
    if not held:
        return None, ()
    schema = _resolve_schema(b"".join(held), schema_arg, sep, header, columns)
    if header:
        held[0] = _skip_records(held[0], 1)[0]
    return schema, chain(held, (chunk.data for chunk in chunks))


@contextmanager
def _output(path: str):
    """Yield a binary sink for ``path``, standard output for ``-``.

    A regular file is written to a temporary sibling that replaces it only
    when the block succeeds, so a failed run leaves ``path`` as it was.  A
    path that exists but is not a regular file, such as a device or a pipe,
    is written in place.
    """
    if path == "-":
        yield sys.stdout.buffer
        return
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as sink:
            yield sink
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    sink = open(tmp, "xb")
    try:
        with sink:
            yield sink
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _parse_config(path, cfg: ChunkerConfig) -> ApplyConfig:
    """``parse`` pipelines its chunks over the usable CPUs, but no more than
    the input has windows, and runs in-process, with no pool, at one worker
    or on an input of unknown size such as a FIFO."""
    size = _extent(path)[2]
    workers = 1 if size is None else _pool_size(
        size, ApplyConfig(parallel=_usable_cpus(), chunker=cfg))
    mode = "pipeline" if workers > 1 else "sequential"
    return ApplyConfig(mode=mode, parallel=workers, chunker=cfg)


def _parse_chunk(data: bytes, schema: Schema, strict: bool):
    frame, report = parse_frame(data, schema, strict=strict)
    return format_frame(frame, schema.field_sep), report


def _header(schema: Schema) -> bytes:
    return format_frame(parse_frame(b"", schema)[0], schema.field_sep,
                        include_header=True)


def _write_parsed(sink, schema, chunks, header, strict, cfg) -> ParseReport:
    """Parse and re-serialize ``chunks`` into ``sink``, the header (if any)
    first, in chunk order; return their merged report.  A chunk that fails
    raises its own error."""
    total = ParseReport()
    results = iter_apply(
        chunks, partial(_parse_chunk, schema=schema, strict=strict), cfg)
    with closing(results):
        try:
            for seq, (out, report) in enumerate(results):
                if seq == 0 and header:
                    sink.write(_header(schema))
                sink.write(out)
                total = total.merge(report)
        except WorkerFailure as exc:
            if (exc.seq == 0 and header
                    and not isinstance(exc.cause, StrictViolation)):
                # the first chunk's header is guarded after its strict check
                # and before its rows
                _header(schema)
            raise exc.cause from None
    return total


def _tally(chunks, sizes: list):
    """Pass ``chunks`` on, appending each one's size to ``sizes``."""
    for chunk in chunks:
        sizes.append(len(chunk.data))
        yield chunk


def cmd_parse(args) -> int:
    cfg = _default_chunker()
    sep = _sep_bytes(args.sep)
    sizes = []  # of the chunks read: a FIFO has no size to ask for
    started = time.perf_counter()
    total = ParseReport()
    with _output(args.out) as sink:
        schema, chunks = _resolve_stream(
            _tally(iter_chunks(args.input, cfg), sizes), args.schema, sep,
            args.header, args.skip)
        if schema is not None:
            total = _write_parsed(sink, schema, chunks, args.header,
                                  args.strict, _parse_config(args.input, cfg))
        sink.flush()
    elapsed = time.perf_counter() - started
    err = sys.stderr
    if args.schema == "infer" and schema is not None:
        letters = ",".join(_TYPE_LETTERS[t] for t in schema.types)
        print(f"inferred schema: {letters}", file=err)
    print(f"rows: {total.n_records}", file=err)
    fails = " ".join(f"{k}={v}" for k, v in total.column_failures.items() if v)
    print(f"coercion failures: {fails or 'none'}", file=err)
    print(f"short rows: {total.short_rows}, long rows: {total.long_rows}",
          file=err)
    print(f"throughput: {sum(sizes) / 1e6 / max(elapsed, 1e-9):.1f} MB/s",
          file=err)
    return EXIT_OK


def _build_terms(raw):
    terms = []
    hhmm_cols = []
    for kind, value in raw:
        if kind == "factor":
            column, eq, levels = value.partition("=")
            if not eq or not levels or not column:
                raise SchemaError(
                    f"--factor expects COL=LEVEL1,LEVEL2,..., got {value!r}"
                )
            terms.append(FactorTerm(column, tuple(levels.split(","))))
            continue
        for column in value.split(","):
            if not column:
                raise SchemaError(f"empty column name in --{kind} {value!r}")
            terms.append(NumericTerm(column))
            if kind == "hhmm":
                hhmm_cols.append(column)
    return terms, hhmm_cols


def _refuse_unfinished(checkpoint) -> Path:
    """Return the ``.partial`` marker path; refuse a checkpoint that a failed
    ``mm`` left unfinished, since appending to or fitting it reuses rows."""
    marker = Path(str(checkpoint) + ".partial")
    if marker.exists():
        raise RowstreamError(
            f"{marker} exists: an earlier mm into {checkpoint} did not finish; "
            "delete the checkpoint, its .names sidecar and the marker, "
            "then rerun mm"
        )
    return marker


def cmd_mm(args) -> int:
    marker = _refuse_unfinished(args.out)
    cfg = _default_chunker()
    sep = _sep_bytes(args.sep)
    terms, hhmm_cols = _build_terms(args.terms or [])
    if not terms:
        raise SchemaError(
            "no model terms; give at least one --numeric/--factor/--hhmm"
        )
    spec = TermSpec(response=args.response, terms=tuple(terms))
    names = spec_names(spec)
    used = {spec.response, *(term.column for term in spec.terms)}
    out = Path(args.out)
    if sidecar_path(out).exists():
        existing = read_sidecar(out)
        if existing != names:
            raise SchemaError(
                f"existing sidecar for {out} lists different columns; "
                "refusing to append a mismatched matrix"
            )
    err = sys.stderr
    with ExitStack() as stack:
        # opened at the first append: a failure before it leaves no file
        sink = None
        for path in args.inputs:
            n_input = n_rows = n_null = n_unknown = 0
            schema, chunks = _resolve_stream(
                iter_chunks(path, cfg), args.schema, sep, args.header,
                args.skip, used)
            for data in chunks:
                frame, _ = parse_frame(data, schema)
                for column in hhmm_cols:
                    frame = normalize_hhmm_column(frame, column)
                matrix, xreport = expand(frame, spec, lenient_levels=True)
                data = format_matrix(matrix, b",")
                if sink is None:
                    marker.touch()  # unfinished only once the data changes
                    sink = stack.enter_context(open(out, "ab"))
                append_to_checkpoint(sink, data)
                n_input += xreport.n_input
                n_rows += xreport.n_rows
                n_null += xreport.n_dropped_null
                n_unknown += xreport.n_dropped_unknown
            print(
                f"{path}: {n_input} rows in, {n_rows} written, "
                f"{n_null} dropped (null), {n_unknown} dropped (unknown level)",
                file=err,
            )
    if sink is None:
        open(out, "ab").close()  # inputs without records: an empty checkpoint
    write_sidecar(out, names)
    marker.unlink(missing_ok=True)
    return EXIT_OK


def _fit_chunk(data: bytes, n_cols: int, resp_idx: int):
    matrix, failures = parse_matrix(data, ColumnType.REAL)
    acc = NormalEqAccumulator(n_cols - 1)
    if matrix.n_rows:
        if matrix.n_cols != n_cols:
            raise DimensionMismatch(
                f"checkpoint chunk has {matrix.n_cols} columns, "
                f"sidecar lists {n_cols}"
            )
        values = matrix.values
        accumulate(acc, np.delete(values, resp_idx, axis=1), values[:, resp_idx])
    return acc, failures


def cmd_fit(args) -> int:
    _refuse_unfinished(args.checkpoint)
    names = read_sidecar(args.checkpoint)
    if args.response not in names:
        raise MissingColumn(
            f"response {args.response!r} not in {sidecar_path(args.checkpoint)}"
        )
    if names.count(args.response) > 1:
        raise SchemaError(f"response {args.response!r} repeats in "
                          f"{sidecar_path(args.checkpoint)}")
    resp_idx = names.index(args.response)
    x_names = names[:resp_idx] + names[resp_idx + 1:]
    mode = {"seq": "sequential", "pipeline": "pipeline", "split": "split"}[args.mode]
    cfg = ApplyConfig(mode=mode, parallel=args.parallel,
                      chunker=_default_chunker())
    started = time.perf_counter()
    pieces = chunk_apply(
        args.checkpoint,
        partial(_fit_chunk, n_cols=len(names), resp_idx=resp_idx),
        cfg,
    )
    acc = NormalEqAccumulator(len(x_names))
    failures = 0
    for part, fails in pieces:
        acc = merge(acc, part)
        failures += fails
    fit = solve_ne(acc, x_names, rank_tol=args.rank_tol)
    elapsed = time.perf_counter() - started
    width = max(len(n) for n in x_names)
    out = sys.stdout
    for name in x_names:
        if name in fit.coef:
            print(f"{name:<{width}}  {fit.coef[name]!r}", file=out)
    if fit.dropped:
        print("aliased: " + ", ".join(fit.dropped), file=out)
    print(
        f"rows: {acc.n}, chunks: {len(pieces)}, coercion failures: {failures}, "
        f"rank: {fit.rank}/{acc.d}, {elapsed:.2f} s",
        file=sys.stderr,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rowstream",
        description="Chunked delimited-text toolkit: stream, parse, "
                    "checkpoint model matrices, and fit least squares "
                    "out of core.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a delimited file and re-serialize it")
    p.add_argument("input", help="path to a delimited text file")
    p.add_argument("--sep", default=",", help="field separator (default ,)")
    p.add_argument("--schema", required=True, help=_SCHEMA_HELP)
    p.add_argument("--header", action="store_true",
                   help="first record names the columns")
    p.add_argument("--skip", type=int, default=0, metavar="N",
                   help="skip N leading records")
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.add_argument("--strict", action="store_true",
                   help="treat coercion failures and ragged rows as errors")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("mm", help="expand inputs into a model-matrix checkpoint")
    p.add_argument("inputs", nargs="+", help="delimited input files (shared schema)")
    p.add_argument("--response", required=True, metavar="COL")
    # one dest for all term flags: argparse appends them in command-line
    # order, which is the checkpoint's column order
    p.add_argument("--numeric", action="append", dest="terms",
                   type=lambda v: ("numeric", v), metavar="COL[,COL...]",
                   help="numeric regressor column(s); order of term flags is "
                        "the checkpoint column order")
    p.add_argument("--factor", action="append", dest="terms",
                   type=lambda v: ("factor", v), metavar="COL=L1,L2,...",
                   help="factor column with ordered levels (first is baseline)")
    p.add_argument("--hhmm", action="append", dest="terms",
                   type=lambda v: ("hhmm", v), metavar="COL[,COL...]",
                   help="clock column(s): normalized to minutes, then numeric")
    p.add_argument("--out", required=True, metavar="CHECKPOINT")
    p.add_argument("--schema", default="infer", help=_SCHEMA_HELP)
    p.add_argument("--sep", default=",")
    p.add_argument("--header", action="store_true")
    p.add_argument("--skip", type=int, default=0, metavar="N")
    p.set_defaults(func=cmd_mm)

    p = sub.add_parser("fit", help="least squares over a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--response", required=True, metavar="NAME")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--mode", choices=("seq", "pipeline", "split"),
                   default="seq")
    p.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL)
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StrictViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (RowstreamError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
