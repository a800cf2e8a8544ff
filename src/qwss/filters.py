"""Linear time-invariant filters acting in the spectral domain.

A filter ``L`` acts on a stationary process by right multiplication with a
matrix characteristic function ``psi(nu)``; spectral measures transform by
congruence::

    dS  ->  psi(nu)^H dS(nu) psi(nu)

which preserves PSD-ness by construction. Composition applies the first
filter's characteristic on the left: apply L1 then L2 has
``psi(nu) = psi_L1(nu) @ psi_L2(nu)``.

Variants:

* ``Shift(dim, s)``: time shift by ``s``; ``psi = exp(2*pi*i*s*nu) I``.
* ``Derivative(dim)``: time derivative; ``psi = 2*pi*i*nu I``.
* ``ScalarConvolution(dim, hhat)``: convolution with a scalar kernel whose
  transfer function is ``hhat``; ``psi = hhat(nu) I``.
* ``ExpOperator(gamma, a)``: convolution with the matrix kernel
  ``h(t) = exp(-gamma t) a`` for ``t >= 0``; ``psi(nu) = (gamma - 2*pi*i*nu)^-1 a``
  (the analytic transform of ``h`` under the ``exp(+2*pi*i*t*nu)`` forward
  convention).
* ``Tabulated(nu_min, nu_max, values)``: ``psi`` constant per grid bin.
* ``Composition(first, second)``: lazy product, ``first`` applied first.

Note on ``ExpOperator``: with this sign convention, driving band-limited
white noise through the filter reproduces ``ou_covariance`` exactly when
``gamma`` and the noise intensity commute; for non-commuting pairs the
spectral route yields the time-reversed covariance ``C(tau)^H``. The zero-lag
value agrees in all cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    FilterDomainError,
    NotPositiveDefiniteError,
)
from .linalg import (
    TOL_HERM,
    as_complex_matrix,
    hermitian_defect,
    hermitize,
    resolvent,
    solve_lyapunov,
    validate_psd,
)
from .measure import DensityGrid, OperatorSpectralMeasure, UniformGrid, _locked

__all__ = [
    "Shift",
    "Derivative",
    "ScalarConvolution",
    "ExpOperator",
    "Tabulated",
    "Composition",
    "FilterSpec",
    "UnboundedWhiteNoise",
    "eval_characteristic",
    "apply_filter",
    "in_domain",
    "compose",
    "white_noise",
    "ou_covariance",
]


@dataclass(frozen=True)
class Shift:
    """Time shift ``x_t -> x_{t+s}``."""

    dim: int
    s: float

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("dim must be >= 1")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "s", float(self.s))


@dataclass(frozen=True)
class Derivative:
    """Time derivative ``x_t -> dx_t/dt``."""

    dim: int

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("dim must be >= 1")
        object.__setattr__(self, "dim", int(self.dim))


@dataclass(frozen=True)
class ScalarConvolution:
    """Convolution with a scalar kernel given by its transfer function.

    ``hhat`` must be a bounded scalar function of frequency; boundedness is
    the caller's responsibility and is what the domain classification
    assumes.
    """

    dim: int
    hhat: Callable[[float], complex]

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("dim must be >= 1")
        if not callable(self.hhat):
            raise TypeError("hhat must be callable")
        object.__setattr__(self, "dim", int(self.dim))


@dataclass(frozen=True, eq=False)
class ExpOperator:
    """Convolution with the decaying matrix kernel ``exp(-gamma t) a``.

    ``gamma`` must be Hermitian positive definite; ``a`` is arbitrary of the
    same shape.
    """

    gamma: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        g = as_complex_matrix(self.gamma, name="gamma")
        a = as_complex_matrix(self.a, name="a")
        for name, m in (("gamma", g), ("a", a)):
            if not np.isfinite(m).all():
                raise ValueError(f"{name} holds a non-finite entry")
        if g.shape != a.shape:
            raise DimensionMismatchError(
                f"gamma {g.shape} and a {a.shape} must have equal shapes"
            )
        if hermitian_defect(g) > TOL_HERM * max(1.0, float(np.abs(g).max())):
            raise NotPositiveDefiniteError("gamma must be Hermitian")
        try:
            np.linalg.cholesky(hermitize(g))
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError("gamma must be positive definite") from exc
        object.__setattr__(self, "gamma", _locked(g))
        object.__setattr__(self, "a", _locked(a))

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExpOperator)
            and np.array_equal(self.gamma, other.gamma)
            and np.array_equal(self.a, other.a)
        )


class Tabulated(UniformGrid):
    """Characteristic function constant per bin on a uniform grid."""

    def covers(self, lo: float, hi: float) -> bool:
        return self.nu_min <= lo and hi <= self.nu_max


@dataclass(frozen=True)
class Composition:
    """Apply ``first``, then ``second``; characteristic is their product."""

    first: "FilterSpec"
    second: "FilterSpec"

    def __post_init__(self):
        if self.first.dim != self.second.dim:
            raise DimensionMismatchError(
                f"composed filter dims differ: {self.first.dim} vs {self.second.dim}"
            )

    @property
    def dim(self) -> int:
        return self.first.dim


FilterSpec = Union[Shift, Derivative, ScalarConvolution, ExpOperator, Tabulated, Composition]


@dataclass(frozen=True, eq=False)
class UnboundedWhiteNoise:
    """Symbolic flat spectrum of intensity ``s`` on the whole line.

    Only ``in_domain`` consumes this marker; numeric transforms require a
    finite band (see ``white_noise``).
    """

    intensity: np.ndarray

    def __post_init__(self):
        s = _locked(validate_psd(self.intensity, name="white noise intensity"))
        object.__setattr__(self, "intensity", s)

    @property
    def dim(self) -> int:
        return self.intensity.shape[0]


def _characteristic(filt: FilterSpec, nus: np.ndarray) -> np.ndarray:
    """``psi`` at each frequency of the 1-d array ``nus``: shape ``(n, d, d)``."""
    d = filt.dim
    eye = np.eye(d, dtype=np.complex128)
    if isinstance(filt, Shift):
        return np.exp(2j * np.pi * filt.s * nus)[:, None, None] * eye
    if isinstance(filt, Derivative):
        return (2j * np.pi * nus)[:, None, None] * eye
    if isinstance(filt, ScalarConvolution):
        h = np.array([complex(filt.hhat(x)) for x in nus.tolist()], dtype=np.complex128)
        return h[:, None, None] * eye
    if isinstance(filt, ExpOperator):
        return resolvent(filt.gamma, nus) @ filt.a
    if isinstance(filt, Tabulated):
        j = filt.bin_indices(nus)
        outside = np.flatnonzero(j < 0)
        if outside.size:
            raise FilterDomainError(
                f"nu={float(nus[outside[0]])} outside tabulated grid "
                f"[{filt.nu_min}, {filt.nu_max}]"
            )
        return filt.values[j]
    if isinstance(filt, Composition):
        return _characteristic(filt.first, nus) @ _characteristic(filt.second, nus)
    raise TypeError(f"unknown filter variant {type(filt).__name__}")


def eval_characteristic(filt: FilterSpec, nu: float) -> np.ndarray:
    """Characteristic function ``psi(nu)`` of a filter as a dense matrix."""
    return _characteristic(filt, np.array([float(nu)]))[0]


def apply_filter(
    mu: OperatorSpectralMeasure, filt: FilterSpec
) -> OperatorSpectralMeasure:
    """Push a measure through a filter: congruence by ``psi`` at atoms and
    density bin midpoints.

    Atoms and bins form one stack, evaluated and transformed together. The
    output is validated once, by ``DensityGrid`` and
    ``OperatorSpectralMeasure`` at ``TOL_PSD``, the tolerance the input
    passed; a failure (such as a non-finite characteristic) names
    ``density bin j`` or ``atom i weight``.
    """
    if isinstance(mu, UnboundedWhiteNoise):
        raise FilterDomainError(
            "cannot apply a filter numerically to the unbounded white-noise marker; "
            "use white_noise with a finite band"
        )
    if mu.dim != filt.dim:
        raise DimensionMismatchError(
            f"measure dim {mu.dim} does not match filter dim {filt.dim}"
        )
    if isinstance(filt, Shift):
        # |e^{2 pi i s nu}| = 1, so the congruence fixes every weight exactly;
        # returning the (immutable) measure keeps the invariance bit-exact.
        return mu
    k, den = len(mu.nus), mu.density
    nus, weights = mu.nus, mu.weights
    if den is not None:
        nus = np.concatenate([nus, den.midpoints()])
        weights = np.concatenate([weights, den.values])
    psi = _characteristic(filt, nus)
    out = hermitize(psi.conj().swapaxes(-1, -2) @ weights @ psi)
    density = None
    if den is not None:
        density = DensityGrid(den.nu_min, den.nu_max, out[k:])
    atoms = tuple(zip(mu.nus.tolist(), out[:k]))
    return OperatorSpectralMeasure(dim=mu.dim, atoms=atoms, density=density)


def _factors(filt: FilterSpec) -> list[FilterSpec]:
    if isinstance(filt, Composition):
        return _factors(filt.first) + _factors(filt.second)
    return [filt]


def _bounded_on_line(filt: FilterSpec) -> bool:
    if isinstance(filt, Derivative):
        return False
    if isinstance(filt, Composition):
        return all(_bounded_on_line(f) for f in _factors(filt))
    if isinstance(filt, Tabulated):
        return False  # undefined outside its grid
    return True


def _square_integrable(filt: FilterSpec) -> bool:
    if isinstance(filt, ExpOperator):
        return True
    if isinstance(filt, Composition):
        fs = _factors(filt)
        return all(_bounded_on_line(f) for f in fs) and any(
            _square_integrable(f) for f in fs
        )
    return False


def in_domain(mu, filt: FilterSpec) -> bool:
    """Whether ``integral psi^H dS psi`` converges, i.e. the filter may act.

    For finite-mass measures this only requires that psi is defined on the
    support (an issue only for Tabulated grids). For the unbounded
    white-noise marker the decision is per variant: square-integrable
    characteristics qualify (ExpOperator, and compositions of bounded filters
    containing one); bounded-but-not-decaying (Shift, ScalarConvolution) and
    unbounded (Derivative) ones do not.
    """
    if not isinstance(mu, (OperatorSpectralMeasure, UnboundedWhiteNoise)):
        raise TypeError("mu must be an OperatorSpectralMeasure or UnboundedWhiteNoise")
    if mu.dim != filt.dim:
        raise DimensionMismatchError(
            f"measure dim {mu.dim} does not match filter dim {filt.dim}"
        )
    if isinstance(mu, UnboundedWhiteNoise):
        return _square_integrable(filt)
    bounds = mu.support_bounds()
    tables = [f for f in _factors(filt) if isinstance(f, Tabulated)]
    return bounds is None or all(f.covers(*bounds) for f in tables)


def compose(l1: FilterSpec, l2: FilterSpec) -> FilterSpec:
    """Filter applying ``l1`` first, then ``l2``.

    Shift pairs collapse to a single Shift; Tabulated pairs on an identical
    grid multiply bin-wise into a Tabulated; anything else returns a lazy
    Composition with the product characteristic.
    """
    if l1.dim != l2.dim:
        raise DimensionMismatchError(f"filter dims differ: {l1.dim} vs {l2.dim}")
    if isinstance(l1, Shift) and isinstance(l2, Shift):
        return Shift(dim=l1.dim, s=l1.s + l2.s)
    if isinstance(l1, Tabulated) and isinstance(l2, Tabulated):
        if (
            l1.nu_min == l2.nu_min
            and l1.nu_max == l2.nu_max
            and l1.bins == l2.bins
        ):
            return Tabulated(
                nu_min=l1.nu_min,
                nu_max=l1.nu_max,
                values=np.einsum("bij,bjk->bik", l1.values, l2.values),
            )
    return Composition(first=l1, second=l2)


def white_noise(s, band: float, bins: int = 1):
    """Flat spectrum of PSD intensity ``s`` on ``[-band, band]``.

    A finite band returns a density measure (``bins`` equal cells represent
    the same flat density exactly; more cells only buy resolution for later
    filtering). ``band = math.inf`` returns the symbolic UnboundedWhiteNoise
    marker consumed by ``in_domain``; the matching closed-form covariance
    lives in ``ou_covariance``.
    """
    s = validate_psd(s, name="white noise intensity")
    band = float(band)
    if math.isinf(band):
        if band < 0:
            raise ValueError("band must be positive")
        return UnboundedWhiteNoise(intensity=s)
    if not band > 0:
        raise ValueError(f"band must be positive, got {band}")
    bins = int(bins)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    vals = np.broadcast_to(s, (bins, *s.shape)).copy()
    return OperatorSpectralMeasure(
        dim=s.shape[0],
        atoms=(),
        density=DensityGrid(nu_min=-band, nu_max=band, values=vals),
    )


def ou_covariance(gamma, s, a, tau) -> np.ndarray:
    """Stationary covariance of white noise of intensity ``s`` convolved with
    the kernel ``exp(-gamma t) a``.

    For ``tau >= 0``::

        C(tau) = a^H M exp(-gamma tau) a,   gamma M + M gamma = s

    and ``C(-tau) = C(tau)^H``. Reduces to ``s/(2 gamma) * exp(-gamma |tau|)``
    in the scalar case. ``tau`` is a number, giving one ``(d, d)`` matrix, or
    an array of lags, giving a ``(*tau.shape, d, d)`` stack from one Lyapunov
    solve and one ``eigh``.
    """
    g = as_complex_matrix(gamma, name="gamma")
    amat = as_complex_matrix(a, name="a")
    smat = validate_psd(s, name="s")
    if g.shape != amat.shape or g.shape != smat.shape:
        raise DimensionMismatchError(
            f"gamma {g.shape}, s {smat.shape}, a {amat.shape} must share one shape"
        )
    m = solve_lyapunov(g, smat)
    tau = np.asarray(tau, dtype=float)
    # exp(-gamma |tau|) through the eigendecomposition of Hermitian gamma
    w, u = np.linalg.eigh(hermitize(g))
    decay = (u * np.exp(-w * np.abs(tau)[..., None])[..., None, :]) @ u.conj().T
    core = m @ decay
    c = amat.conj().T @ core @ amat
    return np.where((tau >= 0)[..., None, None], c, c.conj().swapaxes(-1, -2))
