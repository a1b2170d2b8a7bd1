"""rowstream: chunked I/O for delimited text, and what you do with the chunks.

The pieces compose in one direction: ``chunker`` turns a byte stream into
record-aligned chunks, ``frame``/``matrix`` turn a chunk into typed columns,
``writer`` turns columns back into bytes, ``model_matrix`` expands a frame
into a numeric design, ``ols`` accumulates and solves normal equations, and
``apply`` runs any chunk function sequentially, pipelined, or over byte-range
splits.  The ``rowstream`` console script fronts the common paths.

The public API is the names this package exports, ``rowstream.__all__``,
and ``_EXPORTS`` below is their one declaration: the modules list none of
their own, and a name the table leaves out is internal.
"""

import importlib

# the public names by the module that defines it: a module is imported when
# one of its names is first looked up (PEP 562), so the table lives here:
# reading it from the modules would import every one of them
_EXPORTS = {
    "_coerce": ("ColumnType",),
    "apply": ("ApplyConfig", "chunk_apply", "iter_apply"),
    "chunker": ("Chunk", "ChunkerConfig", "iter_chunks"),
    "errors": ("DegenerateSystem", "DimensionMismatch",
               "HeaderArityMismatch", "MissingColumn",
               "NotPositiveSemidefinite", "NotSeekable", "OutOfRange",
               "RaggedInput", "RecordTooLarge", "RowstreamError",
               "SchemaError", "SeparatorCollision", "StrictViolation",
               "UnknownLevel", "WorkerFailure"),
    "frame": ("Column", "Frame", "ParseReport", "Schema", "check_layout",
              "infer_schema", "parse_frame", "parse_frame_with_header"),
    "matrix": ("DenseMatrix", "parse_matrix"),
    "model_matrix": ("ExpandReport", "FactorTerm", "NumericTerm", "TermSpec",
                     "expand", "normalize_hhmm_column", "spec_names"),
    "ols": ("DEFAULT_RANK_TOL", "NormalEqAccumulator", "RegressionFit",
            "accumulate", "merge", "solve_ne"),
    "writer": ("append_to_checkpoint", "format_frame", "format_matrix",
               "read_sidecar", "sidecar_path", "write_sidecar"),
}
_ORIGINS = {name: module for module, names in _EXPORTS.items()
            for name in names}

__version__ = "0.1.0"

__all__ = sorted(_ORIGINS)


def __getattr__(name):
    module = _ORIGINS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ORIGINS))
