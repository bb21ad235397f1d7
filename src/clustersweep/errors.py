"""Exception types shared across the package."""


class ClusterSweepError(Exception):
    """Base class for all package errors."""


class MismatchedItems(ClusterSweepError):
    """Two partitions do not cover the same set of item ids."""


class EmptyIntersection(ClusterSweepError):
    """Two partitions share no item ids."""


class ParseError(ClusterSweepError):
    """An input file could not be parsed."""


class MissingArchive(ParseError):
    """A directory holds no sweep archive (no partition files)."""


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


class OutOfRange(ClusterSweepError):
    """A requested resolution lies outside the sweep range."""


class InsufficientResolutions(ClusterSweepError):
    """A transition graph needs at least two resolutions."""


class EmptyCluster(ClusterSweepError):
    """A cluster profile was requested for a cluster with no members."""


class BackendUnavailable(ClusterSweepError):
    """The external naming backend could not be reached after retries."""


class MalformedResponse(ClusterSweepError):
    """The naming backend returned an unusable payload."""
