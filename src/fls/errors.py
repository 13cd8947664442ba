"""Exception types shared across the package."""


class FLSError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidParam(FLSError):
    """A parameter value violates its documented constraints."""


class DegenerateInput(FLSError):
    """Input data is too small or too degenerate for the operation."""


class DimensionMismatch(FLSError):
    """Operand dimensions do not agree."""


class RankDeficient(FLSError):
    """Requested singular triples are numerically rank deficient."""


class DenseLimitExceeded(FLSError):
    """Dense n-by-n computation refused because n exceeds the limit."""


class DegreeNotPositive(FLSError):
    """A kernel degree is not strictly positive.

    With cosine features this usually signals a misconfigured bandwidth;
    features that are positive functions cannot trigger it.
    """


class ParseError(FLSError):
    """CSV cell or structure could not be parsed.

    Carries 1-based ``row`` and ``col`` positions when they are known.
    """

    def __init__(self, message, row=None, col=None):
        if row is not None and col is not None:
            message = f"{message} (row {row}, column {col})"
        elif row is not None:
            message = f"{message} (row {row})"
        super().__init__(message)
        self.row = row
        self.col = col


class RaggedRows(ParseError):
    """CSV rows do not all have the same number of fields."""


class DeltaTooLarge(FLSError):
    """Entrywise kernel error exceeds the regime where the bounds apply."""


class EigengapTooSmall(FLSError):
    """Measured eigengap is too small for eigenvector comparison."""


class PipelineError(FLSError):
    """Failure inside a named stage of the clustering pipeline."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
