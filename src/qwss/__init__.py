"""Operator-valued wide sense stationary process toolkit.

Covariance kernels of stationary processes taking matrix values pair with
operator-valued spectral measures through the Fourier transform. This
package provides the pair in both directions, frequency-domain filtering,
a finite-dimensional quantum realization with its conditional expectation,
Kolmogorov factorization of positive block kernels, Gaussian trajectory
synthesis with spectral re-estimation, and file formats plus a CLI tying
them together. All frequencies are cycles per unit time.
"""

from . import errors, filters, linalg, measure, quantum, sampling, serialize
from .errors import *
from .filters import *
from .linalg import *
from .measure import *
from .quantum import *
from .sampling import *
from .serialize import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    *errors.__all__,
    *filters.__all__,
    *linalg.__all__,
    *measure.__all__,
    *quantum.__all__,
    *sampling.__all__,
    *serialize.__all__,
    "__version__",
]
