"""Operator-valued spectral measures and stationary covariance tables.

A matrix-valued wide-sense-stationary covariance ``C`` and its spectral
measure ``S`` are a Fourier pair in the cycles convention::

    C(tau) = integral exp(+2*pi*i*tau*nu) dS(nu)

``S`` is non-decreasing in the PSD order, right-continuous, vanishes at
``-inf`` and tends to ``C(0)`` at ``+inf``. The representation here is the
finite-mass case: finitely many atoms plus an optional piecewise-constant
density on a uniform grid. Frequencies ``nu`` are always cycles per unit
time, never angular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import COUNT, POSITIVE, SIZE, integer
from .errors import (
    DimensionMismatchError,
    NotPositiveSemidefiniteError,
    OffGridLagError,
    QwssError,
)
from .linalg import (
    TOL_PSD,
    _finite_part,
    as_complex_matrix,
    hermitian_defect,
    hermitize,
    nearest_psd,
    validate_psd,
)

__all__ = [
    "UniformGrid",
    "DensityGrid",
    "OperatorSpectralMeasure",
    "CovarianceTable",
    "KernelVerdict",
    "total_mass",
    "cumulative",
    "integrate_pair",
    "covariance_from_spectrum",
    "spectrum_from_covariance",
    "check_psd_kernel",
    "add_scaled",
]

_ATOM_MERGE_RTOL = 1e-12


class _Record:
    """Base of the value types that hold arrays, each a frozen dataclass.

    Every stack of matrices or vectors a record keeps is read by ``_array``,
    the one shape rule: its named axes (``"bins d d"``), each at least 1
    (``rank`` at least 0), and finite entries where the record asks. So no
    record is empty or of dimension 0, and every record can be written.
    A constructor builds its own copy of every array it keeps and hands it
    to ``_store``, which sets each field once and write-locks the arrays in
    place, so a record never locks or aliases its caller's array. Records
    are equal when they are of one type and every field with
    ``compare=True`` is equal, arrays by value; defining ``__eq__`` makes
    them unhashable.
    """

    def _store(self, **values) -> None:
        for name, value in values.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            if f.compare:
                a, b = getattr(self, f.name), getattr(other, f.name)
                if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                    return False
        return True


def _array(value, axes: str, what: str, finite: str | None = None, copy: bool = True):
    """``value`` as a C-contiguous complex128 stack with the named ``axes``,
    a copy unless ``copy`` is false and it already is one. Checked in order:
    one axis per name and one size per name (else ``DimensionMismatchError``
    "``what`` must have shape (...)"); each size against ``SIZE``, or
    ``COUNT`` for ``rank``, located at the axis name; and, when ``finite``
    gives its message, that every entry is finite."""
    if copy:
        a = np.array(value, dtype=np.complex128, order="C")
    else:
        a = np.ascontiguousarray(value, dtype=np.complex128)
    names, sizes = axes.split(), {}
    if a.ndim != len(names) or any(sizes.setdefault(k, n) != n for k, n in zip(names, a.shape)):
        raise DimensionMismatchError(
            f"{what} must have shape ({', '.join(names)}), got {a.shape}"
        )
    for name, n in sizes.items():
        (COUNT if name == "rank" else SIZE).check(n, name)
    if finite is not None and not np.isfinite(a.view(np.float64)).all():
        raise QwssError(finite)
    return a


@dataclass(frozen=True, eq=False)
class UniformGrid(_Record):
    """A ``(bins, d, d)`` matrix stack on ``bins`` equal cells of ``[nu_min, nu_max]``.

    Bin ``j`` covers ``[nu_min + j*width, nu_min + (j+1)*width)`` and carries
    the constant matrix ``values[j]``; the final right edge is closed for
    point lookups. The base of density grids and tabulated filters, which
    are never equal to each other (``_Record``).
    """

    nu_min: float
    nu_max: float
    values: np.ndarray  # (bins, d, d) complex128
    _finite = None  # the message of a non-finite value, where a subclass refuses one

    def __post_init__(self):
        v = _array(self.values, "bins d d", f"{type(self).__name__} values", self._finite)
        lo, hi = float(self.nu_min), float(self.nu_max)
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise QwssError(f"need finite nu_min < nu_max, got [{lo}, {hi}]")
        self._store(nu_min=lo, nu_max=hi, values=v)

    @property
    def bins(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> float:
        return (self.nu_max - self.nu_min) / self.bins

    def edges(self) -> np.ndarray:
        return self.nu_min + np.arange(self.bins + 1) * self.width

    def midpoints(self) -> np.ndarray:
        return self.nu_min + (np.arange(self.bins) + 0.5) * self.width

    def bin_indices(self, nus) -> np.ndarray:
        """Bin of each frequency in ``nus`` (closed right end); -1 outside or NaN."""
        nus = np.asarray(nus, dtype=float)
        inside = (nus >= self.nu_min) & (nus <= self.nu_max)
        j = np.floor((np.where(inside, nus, self.nu_min) - self.nu_min) / self.width)
        return np.where(inside, np.minimum(j, self.bins - 1), -1).astype(np.intp)

    def bin_index(self, nu: float) -> int | None:
        """Index of the bin containing ``nu`` (closed right end), else None."""
        j = int(self.bin_indices(nu))
        return None if j < 0 else j

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nu_min={self.nu_min}, nu_max={self.nu_max}, "
            f"bins={self.bins}, dim={self.dim})"
        )


class DensityGrid(UniformGrid):
    """Piecewise-constant PSD-matrix density on a uniform frequency grid."""

    def __post_init__(self):
        super().__post_init__()
        validate_psd(self.values, name="density bin")


@dataclass(frozen=True, eq=False, init=False)
class OperatorSpectralMeasure(_Record):
    """Finite-mass operator-valued spectral measure: atoms plus a density.

    ``atoms`` takes ``(nu, weight)`` pairs in any order, with distinct finite
    frequencies and PSD weights. They are stored once, as write-locked stacks:
    ``nus`` ``(K,)`` ascending and ``weights`` ``(K, d, d)``. The ``atoms``
    property derives the ``(nu, weights[k])`` pairs in that order, views of
    the stacks.
    """

    dim: int
    nus: np.ndarray
    weights: np.ndarray
    density: DensityGrid | None

    def __init__(self, dim: int, atoms=(), density: DensityGrid | None = None):
        d = SIZE.index(dim, "dim")
        nus, weights = [], []
        for i, (nu, w) in enumerate(atoms):
            nu = float(nu)
            if not math.isfinite(nu):
                raise QwssError(f"atom {i} has non-finite frequency {nu}")
            if np.shape(w) != (d, d):
                raise DimensionMismatchError(
                    f"atom {i} weight has shape {np.shape(w)}, expected ({d}, {d})"
                )
            nus.append(nu)
            weights.append(w)
        nus = np.array(nus, dtype=float)
        weights = np.array(weights, dtype=np.complex128).reshape(-1, d, d)
        if len(weights):
            validate_psd(weights, name=lambda i: f"atom {i} weight")
        order = np.argsort(nus, kind="stable")
        nus, weights = nus[order], weights[order]
        tied = nus[1:][nus[1:] == nus[:-1]]
        if tied.size:
            raise QwssError(f"atom frequencies must be distinct, got {tied[0]} twice")
        if density is not None and not isinstance(density, DensityGrid):
            raise TypeError(
                f"density must be a DensityGrid or None, got {type(density).__name__}"
            )
        if density is not None and density.dim != d:
            raise DimensionMismatchError(
                f"density dim {density.dim} does not match measure dim {d}"
            )
        self._store(dim=d, nus=nus, weights=weights, density=density)

    @property
    def atoms(self) -> tuple[tuple[float, np.ndarray], ...]:
        return tuple(zip(self.nus.tolist(), self.weights))

    def support_bounds(self) -> tuple[float, float] | None:
        """(min, max) frequency of the support, or None if empty."""
        lo, hi = self.nus.min(initial=np.inf), self.nus.max(initial=-np.inf)
        if self.density is not None:
            lo = min(lo, self.density.nu_min)
            hi = max(hi, self.density.nu_max)
        return None if lo > hi else (float(lo), float(hi))

    def __repr__(self) -> str:
        return (
            f"OperatorSpectralMeasure(dim={self.dim}, atoms={len(self.nus)}, "
            f"density={self.density!r})"
        )


@dataclass(frozen=True, eq=False)
class CovarianceTable(_Record):
    """Uniform-lag covariance table, stored two-sided.

    ``values[m]`` is ``C(m*dt)``, ``m = 0..max_lag_index``: a view of the locked
    stack ``C(-m*dt) .. C(m*dt)``, built once by ``C(-tau) = C(tau)^H``.
    """

    dt: float
    values: np.ndarray  # (m+1, d, d) complex128

    def __post_init__(self):
        # read, not copied: the two-sided stack below is the record's own
        v = _array(self.values, "m+1 d d", "covariance values",
                   "covariance values must be finite", copy=False)
        dt = POSITIVE.check(float(self.dt), "dt")
        validate_psd(v[0], name="C(0)")
        stack = np.concatenate([v[1:][::-1].conj().transpose(0, 2, 1), v], axis=0)
        self._store(dt=dt, values=stack[len(v) - 1 :], _two_sided=stack)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def max_lag_index(self) -> int:
        return self.values.shape[0] - 1

    def at_index(self, m: int) -> np.ndarray:
        """C(m*dt) for any integer m with |m| <= max_lag_index, a read-only view."""
        top = self.max_lag_index
        if abs(m) > top:
            raise OffGridLagError(f"lag index {m} outside table range +-{top}")
        return self._two_sided[m + top]

    def lags(self) -> np.ndarray:
        return np.arange(self.values.shape[0]) * self.dt

    def two_sided(self) -> np.ndarray:
        """The stored read-only stack C(k*dt), k = -max_lag_index..max_lag_index."""
        return self._two_sided

    def __repr__(self) -> str:
        return (
            f"CovarianceTable(dt={self.dt}, lags={self.values.shape[0]}, "
            f"dim={self.dim})"
        )


@dataclass(frozen=True)
class KernelVerdict:
    """Outcome of a PSD kernel check over a finite set of sample times."""

    passed: bool
    witness: float  # minimum eigenvalue of the block Gram matrix
    points: int
    dim: int


def total_mass(mu: OperatorSpectralMeasure) -> np.ndarray:
    """Total measure ``S(+inf)``; equals ``C(0)`` of the Bochner transform."""
    out = mu.weights.sum(axis=0)
    if mu.density is not None:
        out += mu.density.values.sum(axis=0) * mu.density.width
    return out


def cumulative(mu: OperatorSpectralMeasure, nu: float) -> np.ndarray:
    """Distribution value ``S(nu)``: mass of ``(-inf, nu]``.

    Right-continuous: an atom at ``nu`` is included. ``nu = +inf`` gives the
    total mass and ``-inf`` zero; NaN raises.
    """
    nu = float(nu)
    if np.isnan(nu):
        raise QwssError("cumulative needs a frequency, got nan")
    out = mu.weights[: np.searchsorted(mu.nus, nu, side="right")].sum(axis=0)
    den = mu.density
    if den is not None and nu > den.nu_min:
        covered = min(nu, den.nu_max) - den.nu_min
        full = int(np.floor(covered / den.width + 1e-15))
        full = min(full, den.bins)
        if full:
            out += den.values[:full].sum(axis=0) * den.width
        rem = covered - full * den.width
        if rem > 0 and full < den.bins:
            out += den.values[full] * rem
    return out


def integrate_pair(
    mu: OperatorSpectralMeasure,
    f: Callable[[float], complex],
    g: Callable[[float], complex],
) -> np.ndarray:
    """Sesquilinear pairing ``integral conj(f(nu)) g(nu) dS(nu)``.

    ``f`` and ``g`` are scalar functions of frequency; the density part uses
    the midpoint rule per bin. With ``f == g`` the result is PSD.
    """
    nus, weights, den = mu.nus, mu.weights, mu.density
    if den is not None:
        nus = np.concatenate([nus, den.midpoints()])
        weights = np.concatenate([weights, den.values * den.width])
    fv = np.array([complex(f(x)) for x in nus.tolist()], dtype=np.complex128)
    gv = np.array([complex(g(x)) for x in nus.tolist()], dtype=np.complex128)
    return np.einsum("b,bkl->kl", np.conj(fv) * gv, weights)


def _fft_length(n: int) -> int:
    """Smallest ``2**a * 3**b * 5**c >= n``: an FFT length numpy transforms fast."""
    best = 1 << max(0, n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _chirp(alpha: float, count: int) -> np.ndarray:
    """``exp(i*pi*alpha*k**2)`` for ``k = 0..count-1``.

    ``k**2`` is an exact int64. ``alpha`` is split into a head with as many
    significant bits as keep ``head * k**2`` exact in a double, and a small
    tail; the exact product is reduced modulo 2 before the tail is added. The
    phase so carries the rounding of a number in ``[0, 2)``, not that of
    ``alpha * k**2``, whose ``k**2`` reaches 4e8 at 16384 bins and 4096 lags.
    """
    k2 = np.arange(count, dtype=np.int64) ** 2
    bits = max(1, 53 - int(k2[-1]).bit_length())
    mant, expo = np.frexp(alpha)
    head = np.ldexp(np.round(np.ldexp(mant, bits)), int(expo) - bits)
    k2 = k2.astype(np.float64)
    phase = np.remainder(head * k2, 2.0) + (alpha - head) * k2
    return np.exp(1j * np.pi * phase)


def covariance_from_spectrum(
    mu: OperatorSpectralMeasure, dt: float, lags: int
) -> CovarianceTable:
    """Bochner transform sampled on the lag grid ``0, dt, ..., lags*dt``.

    Atoms contribute exact phasors. Each density bin is integrated in closed
    form: a constant ``S`` on a bin of width ``w`` centered at ``c``
    contributes ``w * sinc(tau*w) * exp(2*pi*i*tau*c) * S`` (numpy sinc, i.e.
    ``sin(pi x)/(pi x)``), so the only discretization in the whole transform
    is the piecewise-constant density representation itself.

    With ``c = c0 + b*w`` on bin ``b``, lag ``m`` needs the sum
    ``sum_b z**(m*b) S_b`` with ``z = exp(2*pi*i*dt*w)``: a chirp-z transform
    (Rabiner, Schafer & Rader 1969), evaluated for every lag at once by
    Bluestein's FFT convolution (1970) in ``O((bins + lags) log)`` time.
    """
    dt = POSITIVE.check(float(dt), "dt")
    lags = COUNT.index(lags, "lags")
    taus = np.arange(lags + 1) * dt
    vals = np.zeros((lags + 1, mu.dim, mu.dim), dtype=np.complex128)
    for nu_k, w in zip(mu.nus.tolist(), mu.weights):
        vals += np.exp(2j * np.pi * nu_k * taus)[:, None, None] * w
    den = mu.density
    if den is not None:
        wdt, bins = den.width, den.bins
        # z**(m*b) = c_m * c_b * conj(c_(m-b)) with c_k = exp(i*pi*dt*w*k**2);
        # the cyclic convolution is exact for m - b in [-(bins-1), lags]
        # once its length is at least bins + lags
        chirp = _chirp(dt * wdt, max(bins, lags + 1))
        size = _fft_length(bins + lags)
        # one row per matrix entry, so every transform runs along memory
        chirped = np.zeros((mu.dim * mu.dim, size), dtype=np.complex128)
        chirped[:, :bins] = chirp[:bins] * den.values.reshape(bins, -1).T
        kernel = np.zeros(size, dtype=np.complex128)
        kernel[: lags + 1] = chirp[: lags + 1].conj()
        kernel[size - bins + 1 :] = chirp[1:bins][::-1].conj()
        sums = np.fft.ifft(np.fft.fft(chirped) * np.fft.fft(kernel))[:, : lags + 1]
        c0 = den.nu_min + 0.5 * wdt
        factor = wdt * np.sinc(taus * wdt) * np.exp(2j * np.pi * taus * c0)
        factor *= chirp[: lags + 1]
        vals += (factor * sums).T.reshape(vals.shape)
    vals[0] = hermitize(vals[0])
    return CovarianceTable(dt=dt, values=vals)


_LAG_WINDOWS = ("bartlett", "boxcar")


def spectrum_from_covariance(
    table: CovarianceTable, bins: int, window: str = "bartlett"
) -> OperatorSpectralMeasure:
    """Lag-window spectral estimate on ``bins`` cells over one Nyquist band.

    Reads the table's stored two-sided stack, tapers with the
    chosen lag window (Bartlett default: ``1 - |j|/(m+1)``, whose transform is
    the nonnegative Fejer kernel), and evaluates

        S(nu) = dt * sum_j w_j C(j*dt) exp(-2*pi*i*nu*j*dt)

    on the grid ``nu_i = -1/(2dt) + i/(bins*dt)``; cell ``i`` of the returned
    density covers ``[nu_i, nu_i + 1/(bins*dt))``. On that grid the phasor is
    ``(-1)**j * exp(-2*pi*i*i*j/bins)``, so the sum is one length-``bins``
    FFT of the signed, windowed table folded modulo ``bins`` (lags ``j`` and
    ``j - bins`` share a slot when ``bins <= 2m``). Each cell is projected to
    the nearest PSD matrix (a no-op up to rounding for Bartlett on genuine
    covariance tables). The grid sums exactly: total mass equals ``C(0)`` up
    to the PSD projection. With ``bins == number of lags`` (even), the grid
    hits the Fejer kernel zeros, so on-grid lines concentrate in single cells.
    """
    m = table.max_lag_index
    if m + 1 < 2:
        raise QwssError("spectrum_from_covariance needs at least 2 lags")
    bins = integer(bins, "bins")
    if bins < m + 1:
        raise QwssError(f"bins ({bins}) must be >= number of lags ({m + 1})", location="bins")
    if window not in _LAG_WINDOWS:
        raise QwssError(f"unknown window {window!r}; choose from {_LAG_WINDOWS}", location="window")
    dt = table.dt
    j = np.arange(-m, m + 1)
    w = 1.0 - np.abs(j) / (m + 1) if window == "bartlett" else np.ones(2 * m + 1)
    w = np.where(j % 2, -w, w)  # the (-1)**j of the half-band grid offset
    d = table.dim
    signed = (w[:, None, None] * table.two_sided()).reshape(2 * m + 1, d * d).T
    folded = np.zeros((d * d, bins), dtype=np.complex128)  # one row per entry
    folded[:, : m + 1] = signed[:, m:]
    folded[:, bins - m :] += signed[:, :m]
    raw = dt * np.fft.fft(folded).T.reshape(bins, d, d)
    density = DensityGrid(
        nu_min=-1.0 / (2.0 * dt), nu_max=1.0 / (2.0 * dt), values=nearest_psd(raw)
    )
    return OperatorSpectralMeasure(dim=d, atoms=(), density=density)


def _kernel_blocks(cov, times: Sequence[float]) -> np.ndarray:
    """Blocks ``C(t_k - t_j)`` for all pairs, gathered from one stack of lags:
    a table's two-sided stack (the first off-grid or out-of-range pair in
    row-major order raises), or a callable's values at each distinct lag by
    bit pattern, ``cov(0.0)`` first and the rest in order of first appearance."""
    times = np.array([float(t) for t in times])
    if len(times) < 1:
        raise QwssError("check_psd_kernel needs at least one sample time")
    lags = times[None, :] - times[:, None]
    if isinstance(cov, CovarianceTable):
        ratio = lags / cov.dt
        m = np.rint(ratio)
        off_grid = ~(np.abs(ratio - m) <= 1e-9 * np.maximum(1.0, np.abs(ratio)))
        top = cov.max_lag_index
        bad = np.argwhere(off_grid | (np.abs(m) > top))
        if bad.size:
            bad = tuple(bad[0])
            if off_grid[bad]:
                raise OffGridLagError(
                    f"lag {float(lags[bad])} is not a multiple of dt={cov.dt}; "
                    "refusing to interpolate"
                )
            cov.at_index(int(m[bad]))  # out of range: raises at_index's error
        stack, rows = cov.two_sided(), m.astype(np.intp) + top
    elif callable(cov):
        wanted = np.concatenate([[0.0], lags.ravel()])
        _, first, rows = np.unique(
            wanted.view(np.uint64), return_index=True, return_inverse=True
        )
        c0 = as_complex_matrix(cov(0.0), name="C(0)")
        stack = np.empty((len(first), *c0.shape), dtype=np.complex128)
        stack[0] = c0  # +0.0 has the smallest bit pattern
        for u in np.argsort(first)[1:]:  # the other lags, by first appearance
            lag = float(wanted[first[u]])
            c = as_complex_matrix(cov(lag), name=f"C({lag})")
            if c.shape != c0.shape:
                raise DimensionMismatchError(
                    f"C({lag}) has shape {c.shape}, expected {c0.shape}"
                )
            stack[u] = c
        rows = rows[1:].reshape(lags.shape)
    else:
        raise TypeError("cov must be a CovarianceTable or a callable tau -> matrix")
    return stack[rows]


def _block_gram(blocks: np.ndarray) -> tuple[np.ndarray, float]:
    """Gram matrix of ``(n, n, d, d)`` blocks, ``K[i,j][a,b]`` at ``(i*d+a, j*d+b)``,
    and its scale ``max(1, max|K|)``; raises if empty or at the first non-finite block."""
    n, _, d, _ = blocks.shape
    if n * d == 0:
        raise DimensionMismatchError(f"block kernel is empty: blocks of shape {blocks.shape}")
    gram = blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    top = float(np.abs(gram).max())
    if not np.isfinite(top):  # an entry is NaN or inf, or its modulus overflows
        bad = np.argwhere(~np.isfinite(blocks).all(axis=(2, 3)))
        if bad.size:
            i, j = bad[0].tolist()
            raise NotPositiveSemidefiniteError(
                f"block kernel holds a non-finite entry in block ({i}, {j})"
            )
        top = np.finfo(float).max
    return gram, max(1.0, top)


def _gram_blocks(gram: np.ndarray, n: int, d: int) -> np.ndarray:
    """The inverse of ``_block_gram``'s layout, as C-contiguous blocks."""
    return np.ascontiguousarray(gram.reshape(n, d, n, d).transpose(0, 2, 1, 3))


def check_psd_kernel(cov, times: Sequence[float], tol: float = TOL_PSD) -> KernelVerdict:
    """Test the stationary kernel ``K[j,k] = C(t_k - t_j)`` for PSD-ness.

    ``cov`` is a CovarianceTable (sample times must then fall on its lag grid;
    off-grid lags raise rather than interpolate) or a callable ``tau ->
    matrix``, called once per distinct float64 lag: 83 times, not 31, on 16
    times ``0.1*k``, whose equal lags often differ in their last bit (merging
    by grid index would change the ``tau`` it sees). Returns a verdict with the
    minimum eigenvalue of the block Gram matrix as witness. ``tol`` must be
    a positive finite number.
    """
    POSITIVE.check(tol, "tol")
    blocks = _kernel_blocks(cov, times)
    gram, scale = _block_gram(blocks)
    if hermitian_defect(gram) > 1e-9 * scale:
        raise NotPositiveSemidefiniteError(
            "kernel is not Hermitian-symmetric: C(-tau) != C(tau)^H beyond tolerance"
        )
    h, unit = _finite_part(gram, hermitize(gram))
    lo = float((np.linalg.eigvalsh(h) * unit).min())
    passed, n, d = bool(lo >= -tol * scale), len(blocks), blocks.shape[-1]
    return KernelVerdict(passed=passed, witness=lo, points=n, dim=d)


def add_scaled(
    alpha: complex,
    mu1: OperatorSpectralMeasure,
    beta: complex,
    mu2: OperatorSpectralMeasure,
) -> OperatorSpectralMeasure:
    """Spectral measure of ``alpha*X + beta*Y`` for orthogonal processes:
    ``|alpha|^2 * mu1 + |beta|^2 * mu2``. Orthogonality is the caller's claim.

    Coincident atoms (equal frequency within 1e-12 relative) merge by weight
    addition. Densities must share an identical band and bin counts related by
    an integer factor; the coarser grid is split exactly onto the finer one.
    """
    a, b = abs(complex(alpha)) ** 2, abs(complex(beta)) ** 2
    if not (np.isfinite(a) and np.isfinite(b)):
        raise QwssError(f"scale factors must be finite, got {alpha}, {beta}")
    if mu1.dim != mu2.dim:
        raise DimensionMismatchError(
            f"measure dims differ: {mu1.dim} vs {mu2.dim}"
        )
    nus = np.concatenate([mu1.nus, mu2.nus])
    order = np.argsort(nus, kind="stable")
    nus, weights = nus[order], np.concatenate([a * mu1.weights, b * mu2.weights])[order]
    starts = _merge_starts(nus)
    atoms = zip(nus[starts], np.add.reduceat(weights, starts, axis=0))

    d1, d2 = mu1.density, mu2.density
    if d1 is None and d2 is None:
        density = None
    elif d2 is None:
        density = DensityGrid(d1.nu_min, d1.nu_max, a * d1.values)
    elif d1 is None:
        density = DensityGrid(d2.nu_min, d2.nu_max, b * d2.values)
    else:
        span = max(abs(d1.nu_min), abs(d1.nu_max), 1.0)
        if (
            abs(d1.nu_min - d2.nu_min) > 1e-12 * span
            or abs(d1.nu_max - d2.nu_max) > 1e-12 * span
        ):
            raise QwssError(
                f"density bands differ: [{d1.nu_min}, {d1.nu_max}] vs "
                f"[{d2.nu_min}, {d2.nu_max}]"
            )
        n1, n2 = d1.bins, d2.bins
        if max(n1, n2) % min(n1, n2) != 0:
            raise QwssError(
                f"density grids are not integer refinements: {n1} vs {n2} bins"
            )
        fine = max(n1, n2)
        v1 = np.repeat(d1.values, fine // n1, axis=0)
        v2 = np.repeat(d2.values, fine // n2, axis=0)
        density = DensityGrid(d1.nu_min, d1.nu_max, a * v1 + b * v2)
    return OperatorSpectralMeasure(dim=mu1.dim, atoms=atoms, density=density)


def _merge_starts(nus: np.ndarray) -> np.ndarray:
    """First index of each merge group of the ascending ``nus``: an atom joins
    the current group if it is within ``_ATOM_MERGE_RTOL`` of the group's
    first frequency. Gaps that wide between neighbours start groups; each
    round then starts one at the earliest atom too far from its group's first."""

    def far(first, nu):
        scale = np.maximum(1.0, np.maximum(np.abs(nu), np.abs(first)))
        return np.abs(nu - first) > _ATOM_MERGE_RTOL * scale

    start = np.ones(len(nus), dtype=bool)
    start[1:] = far(nus[:-1], nus[1:])
    while True:
        group = np.cumsum(start) - 1
        late = np.flatnonzero(far(nus[start][group], nus))
        if not late.size:
            return np.flatnonzero(start)
        start[late[np.r_[True, np.diff(group[late]) > 0]]] = True
