"""rowstream: chunked I/O for delimited text, and what you do with the chunks.

The pieces compose in one direction: ``chunker`` turns a byte stream into
record-aligned chunks, ``frame``/``matrix`` turn a chunk into typed columns,
``writer`` turns columns back into bytes, ``model_matrix`` expands a frame
into a numeric design, ``ols`` accumulates and solves normal equations, and
``apply`` runs any chunk function sequentially, pipelined, or over byte-range
splits.  The ``rowstream`` console script fronts the common paths.
"""

from ._coerce import ColumnType
from .apply import ApplyConfig, chunk_apply
from .bench import BenchReport, naive_parse_frame, run_bench, synthetic_csv
from .chunker import (
    Chunk,
    ChunkerConfig,
    adjust_split,
    byte_range_splits,
    iter_chunks,
    next_chunk,
)
from .errors import (
    DegenerateSystem,
    DimensionMismatch,
    HeaderArityMismatch,
    MissingColumn,
    NotPositiveSemidefinite,
    NotSeekable,
    OutOfRange,
    RaggedInput,
    RaggedSample,
    RecordTooLarge,
    RowstreamError,
    SchemaError,
    SeparatorCollision,
    StrictViolation,
    UnknownLevel,
    WorkerFailure,
)
from .frame import (
    Column,
    Frame,
    ParseReport,
    Schema,
    check_layout,
    concat_frames,
    frames_equal,
    infer_schema,
    parse_field,
    parse_frame,
    parse_frame_with_header,
    split_quoted,
    tokenize,
)
from .matrix import DenseMatrix, parse_matrix
from .model_matrix import (
    ExpandReport,
    FactorTerm,
    NumericTerm,
    TermSpec,
    expand,
    normalize_hhmm,
    normalize_hhmm_column,
    spec_names,
)
from .ols import (
    DEFAULT_RANK_TOL,
    NormalEqAccumulator,
    RegressionFit,
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

__version__ = "0.1.0"

__all__ = [
    "ApplyConfig",
    "BenchReport",
    "Chunk",
    "ChunkerConfig",
    "Column",
    "ColumnType",
    "DEFAULT_RANK_TOL",
    "DegenerateSystem",
    "DenseMatrix",
    "DimensionMismatch",
    "ExpandReport",
    "FactorTerm",
    "Frame",
    "HeaderArityMismatch",
    "MissingColumn",
    "NormalEqAccumulator",
    "NotPositiveSemidefinite",
    "NotSeekable",
    "NumericTerm",
    "OutOfRange",
    "ParseReport",
    "RaggedInput",
    "RaggedSample",
    "RecordTooLarge",
    "RegressionFit",
    "RowstreamError",
    "Schema",
    "SchemaError",
    "SeparatorCollision",
    "StrictViolation",
    "TermSpec",
    "UnknownLevel",
    "WorkerFailure",
    "accumulate",
    "adjust_split",
    "append_to_checkpoint",
    "byte_range_splits",
    "check_layout",
    "chunk_apply",
    "concat_frames",
    "expand",
    "format_frame",
    "format_matrix",
    "frames_equal",
    "infer_schema",
    "iter_chunks",
    "merge",
    "naive_parse_frame",
    "next_chunk",
    "normalize_hhmm",
    "normalize_hhmm_column",
    "parse_field",
    "parse_frame",
    "parse_frame_with_header",
    "parse_matrix",
    "read_sidecar",
    "run_bench",
    "sidecar_path",
    "solve_ne",
    "spec_names",
    "split_quoted",
    "synthetic_csv",
    "tokenize",
    "write_sidecar",
]
