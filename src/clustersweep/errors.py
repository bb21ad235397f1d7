"""Exception types shared across the package."""


class ClusterSweepError(Exception):
    """Base class for all package errors."""


class ParseError(ClusterSweepError):
    """An input file could not be parsed."""


class NonFiniteValue(ClusterSweepError):
    """An embedding entry is NaN or infinite."""

    def __init__(self, row: int, col: int, message: str | None = None):
        self.row = row
        self.col = col
        super().__init__(message or f"non-finite value at row {row}, column {col}")


class DimensionMismatch(ClusterSweepError):
    """Array shapes are inconsistent (ragged rows, wrong embedding width, ...)."""


class InsufficientData(ClusterSweepError):
    """Fewer data points than mixture components."""


class NumericFailure(ClusterSweepError):
    """A fit produced a non-finite log-likelihood."""


class BackendUnavailable(ClusterSweepError):
    """The external naming backend could not be reached after retries."""


class MalformedResponse(ClusterSweepError):
    """The naming backend returned an unusable payload."""
