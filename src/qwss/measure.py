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

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotPositiveSemidefiniteError,
    OffGridLagError,
)
from .linalg import (
    TOL_PSD,
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


def _locked(a: np.ndarray) -> np.ndarray:
    # copy so the stored buffer is never aliased with caller-owned memory
    a = np.ascontiguousarray(a).copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class UniformGrid:
    """A ``(bins, d, d)`` matrix stack on ``bins`` equal cells of ``[nu_min, nu_max]``.

    Bin ``j`` covers ``[nu_min + j*width, nu_min + (j+1)*width)`` and carries
    the constant matrix ``values[j]``; the final right edge is closed for
    point lookups. The base of density grids and tabulated filters; grids are
    equal only when they are of the same type.
    """

    nu_min: float
    nu_max: float
    values: np.ndarray  # (bins, d, d) complex128

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        if v.ndim != 3 or v.shape[1] != v.shape[2]:
            raise DimensionMismatchError(
                f"{type(self).__name__} values must have shape (bins, d, d), "
                f"got {v.shape}"
            )
        if v.shape[0] < 1:
            raise ValueError(f"{type(self).__name__} needs at least one bin")
        lo, hi = float(self.nu_min), float(self.nu_max)
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"need finite nu_min < nu_max, got [{lo}, {hi}]")
        object.__setattr__(self, "nu_min", lo)
        object.__setattr__(self, "nu_max", hi)
        object.__setattr__(self, "values", _locked(v))

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

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.nu_min == other.nu_min
            and self.nu_max == other.nu_max
            and self.values.shape == other.values.shape
            and bool(np.array_equal(self.values, other.values))
        )

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


@dataclass(frozen=True, eq=False)
class OperatorSpectralMeasure:
    """Finite-mass operator-valued spectral measure: atoms plus a density.

    Atoms are ``(nu, weight)`` pairs with strictly increasing frequencies and
    PSD weights. All stored arrays are write-locked copies.
    """

    dim: int
    atoms: tuple[tuple[float, np.ndarray], ...] = ()
    density: DensityGrid | None = None

    def __post_init__(self):
        d = int(self.dim)
        if d < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        nus, weights = [], []
        for i, (nu, w) in enumerate(self.atoms):
            nu = float(nu)
            if not np.isfinite(nu):
                raise ValueError(f"atom {i} has non-finite frequency {nu}")
            w = np.asarray(w, dtype=np.complex128)
            if w.shape != (d, d):
                raise DimensionMismatchError(
                    f"atom {i} weight has shape {w.shape}, expected ({d}, {d})"
                )
            nus.append(nu)
            weights.append(w)
        stack = _locked(np.array(weights, dtype=np.complex128).reshape(-1, d, d))
        if len(stack):
            validate_psd(stack, name=lambda i: f"atom {i} weight")
        normalized = sorted(zip(nus, stack), key=lambda pair: pair[0])
        for (n1, _), (n2, _) in zip(normalized, normalized[1:]):
            if not n2 > n1:
                raise ValueError(
                    f"atom frequencies must be strictly increasing, got {n1} and {n2}"
                )
        if self.density is not None and not isinstance(self.density, DensityGrid):
            raise TypeError(
                f"density must be a DensityGrid or None, got {type(self.density).__name__}"
            )
        if self.density is not None and self.density.dim != d:
            raise DimensionMismatchError(
                f"density dim {self.density.dim} does not match measure dim {d}"
            )
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "atoms", tuple(normalized))

    @classmethod
    def empty(cls, dim: int) -> "OperatorSpectralMeasure":
        return cls(dim=dim)

    def support_bounds(self) -> tuple[float, float] | None:
        """(min, max) frequency of the support, or None if empty."""
        lo, hi = np.inf, -np.inf
        for nu, _ in self.atoms:
            lo, hi = min(lo, nu), max(hi, nu)
        if self.density is not None:
            lo = min(lo, self.density.nu_min)
            hi = max(hi, self.density.nu_max)
        return None if lo > hi else (lo, hi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorSpectralMeasure):
            return NotImplemented
        if self.dim != other.dim or len(self.atoms) != len(other.atoms):
            return False
        for (n1, w1), (n2, w2) in zip(self.atoms, other.atoms):
            if n1 != n2 or not np.array_equal(w1, w2):
                return False
        return self.density == other.density

    def __repr__(self) -> str:
        return (
            f"OperatorSpectralMeasure(dim={self.dim}, atoms={len(self.atoms)}, "
            f"density={self.density!r})"
        )


@dataclass(frozen=True, eq=False)
class CovarianceTable:
    """One-sided uniform-lag covariance table.

    ``values[m]`` is ``C(m*dt)`` for ``m = 0..max_lag_index``; negative lags
    follow from ``C(-tau) = C(tau)^H``.
    """

    dt: float
    values: np.ndarray  # (m+1, d, d) complex128

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        if v.ndim != 3 or v.shape[1] != v.shape[2]:
            raise DimensionMismatchError(
                f"covariance values must have shape (m+1, d, d), got {v.shape}"
            )
        if v.shape[0] < 1:
            raise ValueError("covariance table needs at least the zero lag")
        dt = float(self.dt)
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        validate_psd(v[0], name="C(0)")
        if not np.isfinite(v.view(np.float64)).all():
            raise ValueError("covariance values must be finite")
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "values", _locked(v))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def max_lag_index(self) -> int:
        return self.values.shape[0] - 1

    def at_index(self, m: int) -> np.ndarray:
        """C(m*dt) for any integer m with |m| <= max_lag_index."""
        if abs(m) > self.max_lag_index:
            raise OffGridLagError(
                f"lag index {m} outside table range +-{self.max_lag_index}"
            )
        return self.values[m] if m >= 0 else self.values[-m].conj().T.copy()

    def lags(self) -> np.ndarray:
        return np.arange(self.values.shape[0]) * self.dt

    def two_sided(self) -> np.ndarray:
        """C(k*dt) for k = -max_lag_index..max_lag_index, via C(-tau) = C(tau)^H."""
        return np.concatenate(
            [self.values[1:][::-1].conj().transpose(0, 2, 1), self.values], axis=0
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CovarianceTable)
            and self.dt == other.dt
            and self.values.shape == other.values.shape
            and bool(np.array_equal(self.values, other.values))
        )

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
    out = np.zeros((mu.dim, mu.dim), dtype=np.complex128)
    for _, w in mu.atoms:
        out += w
    if mu.density is not None:
        out += mu.density.values.sum(axis=0) * mu.density.width
    return out


def cumulative(mu: OperatorSpectralMeasure, nu: float) -> np.ndarray:
    """Distribution value ``S(nu)``: mass of ``(-inf, nu]``.

    Right-continuous: an atom at ``nu`` is included.
    """
    nu = float(nu)
    out = np.zeros((mu.dim, mu.dim), dtype=np.complex128)
    for nu_k, w in mu.atoms:
        if nu_k <= nu:
            out += w
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
    out = np.zeros((mu.dim, mu.dim), dtype=np.complex128)
    for nu_k, w in mu.atoms:
        out += np.conj(complex(f(nu_k))) * complex(g(nu_k)) * w
    den = mu.density
    if den is not None:
        mids = den.midpoints()
        fv = np.array([complex(f(x)) for x in mids])
        gv = np.array([complex(g(x)) for x in mids])
        out += np.einsum("b,bkl->kl", np.conj(fv) * gv, den.values) * den.width
    return out


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
    dt = float(dt)
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    lags = int(lags)
    if lags < 0:
        raise ValueError(f"lags must be >= 0, got {lags}")
    taus = np.arange(lags + 1) * dt
    vals = np.zeros((lags + 1, mu.dim, mu.dim), dtype=np.complex128)
    for nu_k, w in mu.atoms:
        vals += np.exp(2j * np.pi * nu_k * taus)[:, None, None] * w
    den = mu.density
    if den is not None:
        wdt, bins = den.width, den.bins
        # z**(m*b) = c_m * c_b * conj(c_(m-b)) with c_k = exp(i*pi*dt*w*k**2);
        # the cyclic convolution is exact for m - b in [-(bins-1), lags]
        # once its length is at least bins + lags
        chirp = _chirp(dt * wdt, max(bins, lags + 1))
        size = _fft_length(bins + lags)
        chirped = np.zeros((size, mu.dim * mu.dim), dtype=np.complex128)
        chirped[:bins] = chirp[:bins, None] * den.values.reshape(bins, -1)
        kernel = np.zeros(size, dtype=np.complex128)
        kernel[: lags + 1] = chirp[: lags + 1].conj()
        kernel[size - bins + 1 :] = chirp[1:bins][::-1].conj()
        sums = np.fft.ifft(
            np.fft.fft(chirped, axis=0) * np.fft.fft(kernel)[:, None], axis=0
        )[: lags + 1]
        c0 = den.nu_min + 0.5 * wdt
        factor = wdt * np.sinc(taus * wdt) * np.exp(2j * np.pi * taus * c0)
        factor *= chirp[: lags + 1]
        vals += (factor[:, None] * sums).reshape(vals.shape)
    vals[0] = hermitize(vals[0])
    return CovarianceTable(dt=dt, values=vals)


_LAG_WINDOWS = ("bartlett", "boxcar")


def spectrum_from_covariance(
    table: CovarianceTable, bins: int, window: str = "bartlett"
) -> OperatorSpectralMeasure:
    """Lag-window spectral estimate on ``bins`` cells over one Nyquist band.

    Extends the table two-sidedly via ``C(-tau) = C(tau)^H``, tapers with the
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
        raise ValueError("spectrum_from_covariance needs at least 2 lags")
    bins = int(bins)
    if bins < m + 1:
        raise ValueError(
            f"bins ({bins}) must be >= number of lags ({m + 1})"
        )
    if window not in _LAG_WINDOWS:
        raise ValueError(f"unknown window {window!r}; choose from {_LAG_WINDOWS}")
    dt = table.dt
    j = np.arange(-m, m + 1)
    if window == "bartlett":
        w = 1.0 - np.abs(j) / (m + 1)
    else:
        w = np.ones_like(j, dtype=float)
    w = np.where(j % 2, -w, w)  # the (-1)**j of the half-band grid offset
    d = table.dim
    signed = (w[:, None, None] * table.two_sided()).reshape(2 * m + 1, d * d)
    folded = np.zeros((bins, d * d), dtype=np.complex128)
    folded[: m + 1] = signed[m:]
    folded[bins - m :] += signed[:m]
    raw = dt * np.fft.fft(folded, axis=0).reshape(bins, d, d)
    density = DensityGrid(
        nu_min=-1.0 / (2.0 * dt), nu_max=1.0 / (2.0 * dt), values=nearest_psd(raw)
    )
    return OperatorSpectralMeasure(dim=d, atoms=(), density=density)


def _table_blocks(table: CovarianceTable, times: np.ndarray) -> np.ndarray:
    """Blocks ``C(t_k - t_j)`` for all pairs, gathered from the two-sided table.

    An off-grid or out-of-range lag raises for the first such pair in
    row-major order.
    """
    lags = times[None, :] - times[:, None]
    ratio = lags / table.dt
    m = np.rint(ratio)
    off_grid = ~(np.abs(ratio - m) <= 1e-9 * np.maximum(1.0, np.abs(ratio)))
    top = table.max_lag_index
    bad = np.argwhere(off_grid | (np.abs(m) > top))
    if bad.size:
        bad = tuple(bad[0])
        if off_grid[bad]:
            raise OffGridLagError(
                f"lag {float(lags[bad])} is not a multiple of dt={table.dt}; "
                "refusing to interpolate"
            )
        raise OffGridLagError(
            f"lag index {int(m[bad])} outside table range +-{top}"
        )
    return table.two_sided()[m.astype(np.intp) + top]


def _kernel_lookup(cov, times: Sequence[float], tol: float):
    """Blocks C(t_k - t_j) for all pairs, from a table or a callable."""
    times = [float(t) for t in times]
    if len(times) < 1:
        raise ValueError("check_psd_kernel needs at least one sample time")
    n = len(times)
    if isinstance(cov, CovarianceTable):
        return _table_blocks(cov, np.array(times)), n, cov.dim
    if not callable(cov):
        raise TypeError("cov must be a CovarianceTable or a callable tau -> matrix")
    d = as_complex_matrix(cov(0.0), name="C(0)").shape[0]
    blocks = np.empty((n, n, d, d), dtype=np.complex128)
    for a, ta in enumerate(times):
        for b, tb in enumerate(times):
            lag = tb - ta
            c = as_complex_matrix(cov(lag), name=f"C({lag})")
            if c.shape != (d, d):
                raise DimensionMismatchError(
                    f"C({lag}) has shape {c.shape}, expected ({d}, {d})"
                )
            blocks[a, b] = c
    return blocks, n, d


def check_psd_kernel(cov, times: Sequence[float], tol: float = TOL_PSD) -> KernelVerdict:
    """Test the stationary kernel ``K[j,k] = C(t_k - t_j)`` for PSD-ness.

    ``cov`` is a CovarianceTable (sample times must then fall on its lag grid;
    off-grid lags raise rather than interpolate) or a callable ``tau ->
    matrix``. Returns a verdict with the minimum eigenvalue of the block Gram
    matrix as witness. ``tol`` must be finite and > 0.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    blocks, n, d = _kernel_lookup(cov, times, tol)
    gram = blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    scale = max(1.0, float(np.abs(gram).max()))
    if hermitian_defect(gram) > 1e-9 * scale:
        raise NotPositiveSemidefiniteError(
            "kernel is not Hermitian-symmetric: C(-tau) != C(tau)^H beyond tolerance"
        )
    w = np.linalg.eigvalsh(hermitize(gram))
    lo = float(w.min())
    return KernelVerdict(passed=bool(lo >= -tol * scale), witness=lo, points=n, dim=d)


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
        raise ValueError(f"scale factors must be finite, got {alpha}, {beta}")
    if mu1.dim != mu2.dim:
        raise DimensionMismatchError(
            f"measure dims differ: {mu1.dim} vs {mu2.dim}"
        )
    pooled = [(nu, a * w) for nu, w in mu1.atoms] + [(nu, b * w) for nu, w in mu2.atoms]
    pooled.sort(key=lambda p: p[0])
    atoms: list[tuple[float, np.ndarray]] = []
    for nu, w in pooled:
        if atoms and abs(nu - atoms[-1][0]) <= _ATOM_MERGE_RTOL * max(
            1.0, abs(nu), abs(atoms[-1][0])
        ):
            atoms[-1] = (atoms[-1][0], atoms[-1][1] + w)
        else:
            atoms.append((nu, w))

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
            raise ValueError(
                f"density bands differ: [{d1.nu_min}, {d1.nu_max}] vs "
                f"[{d2.nu_min}, {d2.nu_max}]"
            )
        n1, n2 = d1.bins, d2.bins
        if max(n1, n2) % min(n1, n2) != 0:
            raise ValueError(
                f"density grids are not integer refinements: {n1} vs {n2} bins"
            )
        fine = max(n1, n2)
        v1 = np.repeat(d1.values, fine // n1, axis=0)
        v2 = np.repeat(d2.values, fine // n2, axis=0)
        density = DensityGrid(d1.nu_min, d1.nu_max, a * v1 + b * v2)
    return OperatorSpectralMeasure(dim=mu1.dim, atoms=tuple(atoms), density=density)
