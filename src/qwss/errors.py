"""Exception types shared across the package.

Every error raised on purpose derives from QwssError so callers (and the CLI)
can separate our validation failures from genuine bugs. Each class declares
the ``code`` the CLI reports for it: ``invalid_value`` (QwssError itself, a
value out of range), ``dimension_mismatch``, ``not_psd``,
``not_positive_definite``, ``aliasing``, ``off_grid_lag``, ``filter_domain``
and ``schema``. ``location`` names the offending field or JSON path when known.

The range of each scalar argument (``POSITIVE`` for a time step, ``SEED``,
...) is declared once, at the end, and both the CLI flags and the library
arguments are checked against it: out of range is a ``QwssError`` located at
the argument's name, worded alike. A wrong type (a float or ``bool``
count) stays a ``TypeError``.

Beside them, each tolerance of the package's checks is declared once, with what
it bounds and its scale: a relative one bounds an error by ``tol * max(1, scale)``.
"""

import operator
from typing import Callable, NamedTuple

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


def integer(value, name: str) -> int:
    """``value`` as a count: ``operator.index``'s ``TypeError`` for a float,
    and one for a ``bool``, which ``operator.index`` would read as 0 or 1."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value}")
    return operator.index(value)


class _Range(NamedTuple):
    """A predicate on an argument and its wording; ``check(value, name)``
    returns ``value`` or raises a ``QwssError`` located at ``name``, and
    ``index(value, name)`` checks ``value`` read as a count by ``integer``."""

    test: Callable
    what: str

    def check(self, value, name: str):
        if not self.test(value):
            raise QwssError(f"{name} must be {self.what}, got {value}", location=name)
        return value

    def index(self, value, name: str) -> int:
        return self.check(integer(value, name), name)


_INF = float("inf")
FINITE = _Range(lambda x: -_INF < x < _INF, "a finite number")
POSITIVE = _Range(lambda x: 0 < x < _INF, "a positive finite number")
OVERLAP = _Range(lambda x: 0 <= x <= 0.9, "in [0, 0.9]")
COUNT = _Range(lambda m: m >= 0, ">= 0")
SIZE = _Range(lambda m: m >= 1, ">= 1")
POWER_OF_TWO = _Range(lambda m: m >= 1 and m & (m - 1) == 0, "a power of two")
EVEN = _Range(lambda m: m >= 2 and m % 2 == 0, "even and >= 2")
SEED = _Range(lambda s: 0 <= s < 2**128, "in [0, 2**128)")

TOL_HERM = 1e-12  # max |M - M^H| of a matrix taken as Hermitian; scale max |M|
TOL_PSD = 1e-9  # how far below 0 an eigenvalue of a PSD matrix may fall; scale max |M|
TOL_KERNEL_HERM = 1e-9  # max |K - K^H| of a block kernel's Gram matrix; scale max |K|
TOL_LAG = 1e-9  # a kernel lag's distance from a table's grid, in steps; scale |tau/dt|
TOL_SAME_NU = 1e-12  # add_scaled's same frequency, of atoms or band edges; scale max |nu|
TOL_BAND_EDGE = 1e-12  # a density edge past Nyquist that synthesize admits; as a share of Nyquist
TOL_BIN = 1e-15  # cumulative's slack in counting whole bins; absolute, in bins
MODEL_TOL = 1e-12  # modes' centering, orthogonality and independence; scale max |D|, or products
TOL_UNIT_TRACE = 1e-9  # |tr rho - 1| of an environment state; absolute
TOL_CSV_ORIGIN = 1e-12  # a CSV index column's first value; scale |last index|
TOL_CSV_STEP = 1e-9  # a CSV index column's distance from m * step; scale |last index|
