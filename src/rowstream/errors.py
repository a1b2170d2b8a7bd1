"""Exception types shared across the package."""


class RowstreamError(Exception):
    """Base class for all rowstream errors."""


class RecordTooLarge(RowstreamError):
    """A single record exceeded the chunker's hard cap.

    Usually means the input is malformed or the record separator is wrong.
    """


class NotSeekable(RowstreamError):
    """An operation that needs random access was given a plain stream."""


class SchemaError(RowstreamError):
    """A schema is empty, inconsistent, or does not match the input."""


class HeaderArityMismatch(SchemaError):
    """Header field count differs from the schema length."""


class RaggedInput(RowstreamError):
    """Records disagree on field count where a fixed shape is required:
    a matrix, or the sample a schema is inferred from."""


class SeparatorCollision(RowstreamError):
    """A cell cannot be serialized without corrupting the delimited layout."""


class StrictViolation(RowstreamError):
    """Strict mode: coercion failures or ragged rows were encountered."""


class OutOfRange(RowstreamError):
    """A value violates a documented numeric range contract."""


class UnknownLevel(RowstreamError):
    """A factor cell is not among the caller-supplied levels."""


class MissingColumn(RowstreamError):
    """A referenced column does not exist in the frame."""


class DimensionMismatch(RowstreamError):
    """Matrix/accumulator dimensions do not line up."""


class DegenerateSystem(RowstreamError):
    """The normal equations have rank zero (all-zero design or no rows)."""


class NotPositiveSemidefinite(RowstreamError):
    """A pivot fell materially below zero; the matrix is not a valid X'X."""


class WorkerFailure(RowstreamError):
    """The chunk function failed; carries the failing chunk's sequence number."""

    def __init__(self, seq: int, cause: BaseException):
        super().__init__(f"chunk {seq} failed: {cause!r}")
        self.seq = seq
        self.cause = cause

    def __reduce__(self):
        return type(self), (self.seq, self.cause)
