"""Exception types shared across the package.

Every error raised on purpose derives from QwssError so callers (and the CLI)
can separate our validation failures from genuine bugs.
"""

__all__ = [
    "QwssError",
    "DimensionMismatchError",
    "NotPositiveSemidefiniteError",
    "NotPositiveDefiniteError",
    "AliasingError",
    "OffGridLagError",
    "FilterDomainError",
    "SchemaError",
]


class QwssError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(QwssError, ValueError):
    """Operands have incompatible shapes or dimensions."""


class NotPositiveSemidefiniteError(QwssError, ValueError):
    """A matrix or kernel required to be PSD is not.

    ``witness`` carries the offending minimum eigenvalue when one is known;
    ``index`` is the batch index of the failing slice when a stack of
    matrices was checked; ``location`` is the JSON path of the failing
    matrix when a decoder set it.
    """

    def __init__(
        self,
        message: str,
        witness: float | None = None,
        index: tuple[int, ...] | None = None,
    ):
        super().__init__(message)
        self.witness = witness
        self.index = index
        self.location: str | None = None


class NotPositiveDefiniteError(QwssError, ValueError):
    """A matrix required to be positive definite is not."""


class AliasingError(QwssError, ValueError):
    """Spectral support does not fit inside the representable band."""


class OffGridLagError(QwssError, ValueError):
    """A requested lag is not a grid point of a covariance table."""


class FilterDomainError(QwssError, ValueError):
    """A filter cannot be evaluated or applied where requested."""


class SchemaError(QwssError, ValueError):
    """A serialized document violates its schema.

    ``location`` names the offending field when known.
    """

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message)
        self.location = location
