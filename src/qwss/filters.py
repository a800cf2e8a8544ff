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

Covariances are Bochner transforms ``C(tau) = integral exp(2*pi*i*tau*nu)
dS(nu)``. White noise of intensity ``s`` through ``ExpOperator(gamma, a)``
has ``C(tau) = a^H exp(-gamma tau) M a`` for ``tau >= 0``, with ``gamma M +
M gamma = s``, which ``ou_covariance`` returns whether or not ``gamma`` and
``s`` commute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import POSITIVE, SIZE
from .errors import (
    DimensionMismatchError,
    FilterDomainError,
    NotPositiveDefiniteError,
    QwssError,
)
from .linalg import (
    _BLOCK,
    TOL_HERM,
    _scale,
    as_complex_matrix,
    hermitian_defect,
    hermitize,
    resolvent,
    solve_lyapunov,
    validate_psd,
)
from .measure import DensityGrid, OperatorSpectralMeasure, UniformGrid, _array, _Record

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


class FilterSpec(_Record):
    """Base of the filter variants. Each declares ``_psi(nus)``, its
    characteristic at the frequencies ``nus`` as an ``(n, d, d)`` stack, and
    whether ``psi`` is ``bounded`` and ``decays`` (is square-integrable) on the
    whole line; ``covers(lo, hi)`` says whether ``psi`` is defined on
    ``[lo, hi]``. ``Composition`` derives all three from its two factors.
    ``_congruence(nus, weights)`` is ``psi^H W psi`` at each frequency, from
    ``_psi`` unless a variant has a cheaper exact form.
    """

    bounded = True
    decays = False

    def covers(self, lo: float, hi: float) -> bool:
        return True

    def _congruence(self, nus: np.ndarray, weights: np.ndarray) -> np.ndarray:
        # psi^H W psi, hermitized, 4096 / d matrices at a time: bit for bit as one stack
        out, step = np.empty_like(weights), max(1, _BLOCK // self.dim)
        for lo in range(0, len(nus), step):
            psi, block = self._psi(nus[lo : lo + step]), slice(lo, lo + step)
            out[block] = hermitize(psi.conj().swapaxes(-1, -2) @ weights[block] @ psi)
        return out


def _scalar(h: np.ndarray, d: int) -> np.ndarray:
    return h[:, None, None] * np.eye(d, dtype=np.complex128)


@dataclass(frozen=True)
class Shift(FilterSpec):
    """Time shift ``x_t -> x_{t+s}``; ``s`` must be finite."""

    dim: int
    s: float

    def __post_init__(self):
        self._store(dim=SIZE.index(self.dim, "dim"))
        if not math.isfinite(float(self.s)):
            raise QwssError(f"shift s must be finite, got {self.s}")
        self._store(s=float(self.s))

    def _psi(self, nus):
        return _scalar(np.exp(2j * np.pi * self.s * nus), self.dim)


@dataclass(frozen=True)
class Derivative(FilterSpec):
    """Time derivative ``x_t -> dx_t/dt``."""

    dim: int
    bounded = False

    def __post_init__(self):
        self._store(dim=SIZE.index(self.dim, "dim"))

    def _psi(self, nus):
        return _scalar(2j * np.pi * nus, self.dim)


@dataclass(frozen=True)
class ScalarConvolution(FilterSpec):
    """Convolution with a scalar kernel given by its transfer function.

    ``hhat`` must be a bounded scalar function of frequency; boundedness is
    the caller's responsibility and is what the domain classification
    assumes. A NaN or inf value raises ``FilterDomainError`` where it is
    evaluated, naming the frequency.
    """

    dim: int
    hhat: Callable[[float], complex]

    def __post_init__(self):
        self._store(dim=SIZE.index(self.dim, "dim"))
        if not callable(self.hhat):
            raise TypeError("hhat must be callable")

    def _psi(self, nus):
        h = np.array([complex(self.hhat(x)) for x in nus.tolist()], dtype=np.complex128)
        bad = np.flatnonzero(~np.isfinite(h))
        if bad.size:
            nu, value = float(nus[bad[0]]), complex(h[bad[0]])
            raise FilterDomainError(f"ScalarConvolution hhat({nu}) = {value} is not finite")
        return _scalar(h, self.dim)


@dataclass(frozen=True, eq=False)
class ExpOperator(FilterSpec):
    """Convolution with the decaying matrix kernel ``exp(-gamma t) a``.

    ``gamma`` must be Hermitian positive definite; ``a`` is arbitrary of the
    same shape.
    """

    gamma: np.ndarray
    a: np.ndarray
    decays = True

    def __post_init__(self):
        g = _array(self.gamma, "d d", "gamma", "gamma holds a non-finite entry")
        a = _array(self.a, "d d", "a", "a holds a non-finite entry")
        if g.shape != a.shape:
            raise DimensionMismatchError(
                f"gamma {g.shape} and a {a.shape} must have equal shapes"
            )
        if hermitian_defect(g) > TOL_HERM * float(_scale(g)):
            raise NotPositiveDefiniteError("gamma must be Hermitian")
        with np.errstate(over="ignore", invalid="ignore"):
            h = hermitize(g)
        if not np.isfinite(h).all():
            raise QwssError("gamma + gamma^H overflows")
        try:
            positive = np.isfinite(np.linalg.cholesky(h)).all()
        except np.linalg.LinAlgError:
            positive = False
        if not positive:
            raise NotPositiveDefiniteError("gamma must be positive definite")
        self._store(gamma=g, a=a)

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def _psi(self, nus):
        return resolvent(self.gamma, nus) @ self.a

    def _congruence(self, nus, weights):
        # gamma = U diag(w) U^H and P = U^H a give psi = U D P, D = diag(1 / (w
        # - 2 pi i nu)), so psi^H W psi = P^H N P, N = (U^H W U) o conj(D) D^T.
        # Every product is then by a constant matrix, one GEMM a block, with N
        # carried transposed: N^T = ((W U)^T conj(U)) o D conj(D)^T and
        # P^H N P = (N^T conj(P))^T P. A block holds a multiple of 48 matrices:
        # BLAS kernels tile a GEMM's rows by counts that divide 48, and round a
        # row by its place in its tile (OpenBLAS's Haswell kernels, tiles of 6),
        # so a bin's bits do not depend on where the blocks split the stack.
        w, u = np.linalg.eigh(hermitize(self.gamma))
        p = u.conj().T @ self.a
        out, step = np.empty_like(weights), max(48, _BLOCK // self.dim // 48 * 48)
        for lo in range(0, len(nus), step):
            block = slice(lo, lo + step)
            diag = 1.0 / (w - 2j * np.pi * nus[block, None])
            nt = _times(_times(weights[block], u).swapaxes(-1, -2), u.conj())
            nt *= diag[:, :, None] * diag.conj()[:, None, :]
            out[block] = hermitize(_times(_times(nt, p.conj()).swapaxes(-1, -2), p))
        return out


def _times(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``x[k] @ c`` for every slice of a stack, as one GEMM."""
    x = np.ascontiguousarray(x)
    return (x.reshape(-1, c.shape[0]) @ c).reshape(x.shape)


class Tabulated(UniformGrid, FilterSpec):
    """Finite characteristic constant per bin on a uniform grid, undefined off it."""

    bounded = False
    _finite = "tabulated values hold a non-finite entry"

    def covers(self, lo: float, hi: float) -> bool:
        return self.nu_min <= lo and hi <= self.nu_max

    def _psi(self, nus):
        j = self.bin_indices(nus)
        outside = np.flatnonzero(j < 0)
        if outside.size:
            raise FilterDomainError(
                f"nu={float(nus[outside[0]])} outside tabulated grid "
                f"[{self.nu_min}, {self.nu_max}]"
            )
        return self.values[j]


@dataclass(frozen=True)
class Composition(FilterSpec):
    """Apply ``first``, then ``second``; characteristic is their product."""

    first: FilterSpec
    second: FilterSpec

    def __post_init__(self):
        if self.first.dim != self.second.dim:
            raise DimensionMismatchError(
                f"composed filter dims differ: {self.first.dim} vs {self.second.dim}"
            )
        bounded = self.first.bounded and self.second.bounded
        decays = bounded and (self.first.decays or self.second.decays)
        self._store(dim=self.first.dim, bounded=bounded, decays=decays)

    def _fold(self, leaf, join):
        # leaf(f) at each factor, join(first, second) at each node (marked by
        # None), in post-order on an explicit stack: any depth, no recursion
        stack, done = [self], []
        while stack:
            f = stack.pop()
            if f is None:
                second = done.pop()
                done.append(join(done.pop(), second))
            elif isinstance(f, Composition):
                stack += (None, f.second, f.first)
            else:
                done.append(leaf(f))
        return done[0]

    def covers(self, lo: float, hi: float) -> bool:
        return self._fold(lambda f: f.covers(lo, hi), lambda a, b: a and b)

    def _psi(self, nus):
        return self._fold(lambda f: f._psi(nus), np.matmul)

    def __repr__(self) -> str:
        return self._fold(repr, "Composition(first={}, second={})".format)

    def __hash__(self) -> int:
        return self._fold(hash, lambda a, b: hash((a, b)))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        a, b = [], []  # each tree in postfix: factors left to right, None closing a node
        self._fold(a.append, lambda *_: a.append(None))
        other._fold(b.append, lambda *_: b.append(None))
        return len(a) == len(b) and all(x is y or x == y for x, y in zip(a, b))


@dataclass(frozen=True, eq=False)
class UnboundedWhiteNoise(_Record):
    """Symbolic flat spectrum of intensity ``s`` on the whole line.

    Only ``in_domain`` consumes this marker; numeric transforms require a
    finite band (see ``white_noise``).
    """

    intensity: np.ndarray

    def __post_init__(self):
        s = validate_psd(self.intensity, name="white noise intensity")
        self._store(intensity=s.copy())  # validate_psd may return the caller's array

    @property
    def dim(self) -> int:
        return self.intensity.shape[0]


def eval_characteristic(filt: FilterSpec, nu: float) -> np.ndarray:
    """Characteristic function ``psi(nu)`` of a filter as a dense matrix."""
    return filt._psi(np.array([float(nu)]))[0]


def apply_filter(
    mu: OperatorSpectralMeasure, filt: FilterSpec
) -> OperatorSpectralMeasure:
    """Push a measure through a filter: congruence by ``psi`` at atoms and
    density bin midpoints.

    Atoms, then bins, are transformed by ``filt._congruence`` 4096 / d at a
    time, so the working memory beside the output is a few such blocks.
    ``ExpOperator`` forms it from one eigendecomposition of ``gamma``, with no
    LAPACK call per frequency, to rounding of the ``psi`` product; every other
    variant evaluates ``psi``, bit for bit the same as one stack. The output is
    validated once, by ``DensityGrid`` and ``OperatorSpectralMeasure`` at
    ``TOL_PSD``, the tolerance the input passed; a failure (such as a
    congruence that overflows) names ``density bin j`` or ``atom i weight``.
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
    atoms, den = filt._congruence(mu.nus, mu.weights), mu.density
    if den is not None:
        den = DensityGrid(den.nu_min, den.nu_max, filt._congruence(den.midpoints(), den.values))
    return OperatorSpectralMeasure(dim=mu.dim, atoms=zip(mu.nus, atoms), density=den)


def in_domain(mu, filt: FilterSpec) -> bool:
    """Whether ``integral psi^H dS psi`` converges, i.e. the filter may act.

    For finite-mass measures this only requires that psi is defined on the
    support (``filt.covers``; an issue only for Tabulated grids). For the
    unbounded white-noise marker psi must decay (``filt.decays``):
    ExpOperator and compositions of bounded filters containing one qualify;
    bounded-but-not-decaying (Shift, ScalarConvolution) and unbounded
    (Derivative) ones do not.
    """
    if not isinstance(mu, (OperatorSpectralMeasure, UnboundedWhiteNoise)):
        raise TypeError("mu must be an OperatorSpectralMeasure or UnboundedWhiteNoise")
    if mu.dim != filt.dim:
        raise DimensionMismatchError(
            f"measure dim {mu.dim} does not match filter dim {filt.dim}"
        )
    if isinstance(mu, UnboundedWhiteNoise):
        return filt.decays
    bounds = mu.support_bounds()
    return bounds is None or filt.covers(*bounds)


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
    if band == math.inf:
        return UnboundedWhiteNoise(intensity=s)
    POSITIVE.check(band, "band")
    bins = SIZE.index(bins, "bins")
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

        C(tau) = a^H exp(-gamma tau) M a,   gamma M + M gamma = s

    and ``C(-tau) = C(tau)^H``, the Bochner transform of the filtered
    spectrum. Reduces to ``s/(2 gamma) * exp(-gamma |tau|)`` in the scalar
    case. ``tau`` is a number, giving one ``(d, d)`` matrix, or an array of
    lags, giving a ``(*tau.shape, d, d)`` stack from one Lyapunov solve and
    one ``eigh``.
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
    core = decay @ m
    c = amat.conj().T @ core @ amat
    return np.where((tau >= 0)[..., None, None], c, c.conj().swapaxes(-1, -2))
