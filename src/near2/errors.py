"""Exception types shared across the package.

The CLI maps these onto exit codes: `DataError` (and subclasses) and `OSError` exit 2,
`NumericalError` exits 3, and everything argument-shaped exits 1: a bad flag or
config-file value, a range a config dataclass rejects, and `InvalidDimensionError`.
"""


class Near2Error(Exception):
    """Base class for all package-specific errors."""


class InvalidDimensionError(Near2Error):
    """A prefix dimension outside the embedding's declared dimension set."""

    def __init__(self, m, dims):
        self.m = int(m)
        self.dims = tuple(int(d) for d in dims)
        super().__init__(f"dimension {self.m} is not in the nested set {list(self.dims)}")


class ZeroVectorError(Near2Error):
    """A vector (or prefix) with L2 norm below the degeneracy threshold."""


class DataError(Near2Error):
    """Invalid or unusable input data (parse failures, empty datasets, bad ids)."""


class FormatError(DataError):
    """A binary or text artifact that does not match its documented layout."""


class NumericalError(Near2Error):
    """Non-finite values where finite ones are required (losses, gradients)."""
