"""Exception types shared across the package.

Every error raised on purpose derives from QwssError so callers (and the CLI)
can separate our validation failures from genuine bugs. Each class declares
the ``code`` the CLI reports for it: ``invalid_value`` (QwssError itself, a
value out of range), ``dimension_mismatch``, ``not_psd``,
``not_positive_definite``, ``aliasing``, ``off_grid_lag``, ``filter_domain``
and ``schema``. ``location`` names the offending field or JSON path when known.
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


class QwssError(ValueError):
    """Base class for all package errors."""

    code = "invalid_value"

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message)
        self.location = location


class DimensionMismatchError(QwssError):
    """Operands have incompatible shapes or dimensions."""

    code = "dimension_mismatch"


class NotPositiveSemidefiniteError(QwssError):
    """A matrix or kernel required to be PSD is not.

    ``witness`` carries the offending minimum eigenvalue when one is known;
    ``index`` is the batch index of the failing slice when a stack of
    matrices was checked; ``location`` is the JSON path of the failing
    matrix when a decoder set it.
    """

    code = "not_psd"

    def __init__(
        self,
        message: str,
        witness: float | None = None,
        index: tuple[int, ...] | None = None,
    ):
        super().__init__(message)
        self.witness = witness
        self.index = index


class NotPositiveDefiniteError(QwssError):
    """A matrix required to be positive definite is not."""

    code = "not_positive_definite"


class AliasingError(QwssError):
    """Spectral support does not fit inside the representable band."""

    code = "aliasing"


class OffGridLagError(QwssError):
    """A requested lag is not a grid point of a covariance table."""

    code = "off_grid_lag"


class FilterDomainError(QwssError):
    """A filter cannot be evaluated or applied where requested."""

    code = "filter_domain"


class SchemaError(QwssError):
    """A serialized document violates its schema."""

    code = "schema"
