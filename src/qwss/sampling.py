"""Gaussian synthesis from spectral measures and the inverse estimators.

Synthesis draws one independent circular complex Gaussian vector per spectral
line and sums phasors::

    x_t = sum_k exp(2*pi*i*nu_k*t) B_k^(1/2) xi_k            (atoms)
        + sum_j exp(2*pi*i*f_j*t) (S(f_j)*dnu)^(1/2) xi_j    (density, FFT grid)

where ``f_j`` runs over the n-point FFT frequencies with spacing
``dnu = 1/(n*dt)`` and ``S(f_j)`` is the density value of the bin containing
``f_j``. Then ``E[x_{t+tau} x_t^H]`` is the Bochner transform of the measure
(the density part as its Riemann sum on the FFT grid).

Randomness is counter-based, reproducible, and read in one pass (stream
layout v2). A call builds ``Philox(key=seed)`` with ``0 <= seed < 2**128``
and splits its counter into rows: row ``r`` is the counter blocks
``[r*B, (r+1)*B)`` with ``B = ceil(2*dim/4)``, and its first ``2*dim``
64-bit words are the row's words. FFT bin ``j`` (numpy FFT index order) owns
row ``j``; atom ``k`` (measure order) owns row ``2**64 + k``. A bin's draw
therefore depends only on ``(seed, j, dim)`` and an atom's only on
``(seed, k, dim)``, never on ``n`` or on the rest of the measure. Words
``w`` become uniforms ``u = ((w >> 11) + 1) * 2**-53`` in ``(0, 1]``; with
``u1`` the first ``dim`` of a row and ``u2`` the next ``dim``, Box-Muller gives
the circular complex normal ``xi = sqrt(-log u1) * exp(2*pi*i*u2)`` with
``E|xi|^2 = 1``. Rows of bins outside the density support are read but not
used. Trajectories of the earlier layout (v1, one Philox stream per spectral
line at counter ``k * 2**128``) are not reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, DimensionMismatchError
from .linalg import hermitize, nearest_psd, psd_sqrt
from .measure import CovarianceTable, DensityGrid, OperatorSpectralMeasure, _fft_length

__all__ = ["Trajectory", "synthesize", "lag_covariance", "welch_estimate"]

_BAND_EDGE_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled complex vector time series.

    ``samples[t]`` is the dim-vector at time ``t*dt``. ``seed`` is provenance
    metadata only; it does not survive file round trips.
    """

    dt: float
    samples: np.ndarray  # (n, dim) complex128
    seed: int | None = None

    def __post_init__(self):
        s = np.ascontiguousarray(self.samples, dtype=np.complex128).copy()
        if s.ndim != 2:
            raise DimensionMismatchError(
                f"samples must have shape (n, dim), got {s.shape}"
            )
        if not np.isfinite(s.view(np.float64)).all():
            raise ValueError("trajectory samples must be finite")
        dt = float(self.dt)
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        s.setflags(write=False)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "samples", s)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Trajectory)
            and self.dt == other.dt
            and self.samples.shape == other.samples.shape
            and bool(np.array_equal(self.samples, other.samples))
        )

    def __repr__(self) -> str:
        return f"Trajectory(dt={self.dt}, n={self.n}, dim={self.dim}, seed={self.seed})"


_ATOM_ROW = 1 << 64


def _normals(seed: int, first: int, count: int, dim: int) -> np.ndarray:
    """Circular complex normals of rows ``first .. first+count-1``, as a
    ``(count, dim)`` array decoded from one read of the counter."""
    block = -(-2 * dim // 4)
    raw = np.random.Philox(key=seed, counter=first * block).random_raw(
        count * 4 * block
    )
    u = ((raw.reshape(count, 4 * block)[:, : 2 * dim] >> 11) + 1) * 2.0**-53
    return np.sqrt(-np.log(u[:, :dim])) * np.exp(2j * np.pi * u[:, dim:])


def synthesize(
    mu: OperatorSpectralMeasure, dt: float, n: int, seed: int
) -> Trajectory:
    """Draw one stationary Gaussian trajectory targeting the measure.

    ``n`` must be a power of two; every atom must lie strictly inside the
    representable band ``|nu| < 1/(2*dt)``, and a density may extend to the
    closed band edge (the exact full-band flat measure is representable).
    """
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must satisfy 0 <= seed < 2**128, got {seed}")
    dt = float(dt)
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    n = int(n)
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two, got {n}")
    nyquist = 1.0 / (2.0 * dt)
    outside = mu.nus[~(np.abs(mu.nus) < nyquist)]
    if outside.size:
        raise AliasingError(
            f"atom at nu={outside[0]} outside the open band (-{nyquist}, {nyquist})"
        )
    den = mu.density
    if den is not None:
        edge = nyquist * (1.0 + _BAND_EDGE_RTOL)
        if den.nu_min < -edge or den.nu_max > edge:
            raise AliasingError(
                f"density band [{den.nu_min}, {den.nu_max}] exceeds the "
                f"representable band [-{nyquist}, {nyquist}]"
            )
    d = mu.dim
    x = np.zeros((n, d), dtype=np.complex128)
    if len(mu.nus):
        roots = psd_sqrt(mu.weights)
        xi = _normals(seed, _ATOM_ROW, len(mu.nus), d)
        amps = (roots @ xi[..., None])[..., 0]
        times = np.arange(n) * dt
        # one (n, d) phasor term per atom keeps memory at the output's size
        for nu_k, amp in zip(mu.nus.tolist(), amps):
            x += np.exp(2j * np.pi * nu_k * times)[:, None] * amp
    if den is not None:
        freqs = np.fft.fftfreq(n, d=dt)
        bins = den.bin_indices(freqs)
        hit = np.flatnonzero(bins >= 0)
        roots = np.sqrt(1.0 / (n * dt)) * psd_sqrt(den.values)
        xi = _normals(seed, 0, n, d)[hit]
        coeff = np.zeros((n, d), dtype=np.complex128)
        coeff[hit] = (roots[bins[hit]] @ xi[..., None])[..., 0]
        x += n * np.fft.ifft(coeff, axis=0)
    return Trajectory(dt=dt, samples=x, seed=int(seed))


def lag_covariance(traj: Trajectory, lags: int) -> CovarianceTable:
    """Unbiased lag-product estimate ``C(m*dt) ~ mean_t x_{t+m} x_t^H``.

    Each lag ``m`` averages over its ``n - m`` available products (unbiased
    for the mean-zero processes produced here). The sums are FFT correlations
    of every component pair, zero-padded to the smallest 5-smooth ``N >= n +
    lags``, so no product read at lags ``0..lags`` wraps around. One ifft per
    row of the cross-spectrum keeps memory at the ``(d, N)`` spectrum and two
    row blocks of its size. The zero lag is hermitized.
    """
    lags = int(lags)
    n = traj.n
    if lags < 0 or 2 * lags >= n:
        raise ValueError(f"lags must satisfy 0 <= lags < n/2, got {lags} with n={n}")
    d = traj.dim
    spec = np.fft.fft(traj.samples.T, n=_fft_length(n + lags))
    vals = np.empty((lags + 1, d, d), dtype=np.complex128)
    for i in range(d):
        # entry (i, j): sum_t x_{t+m,i} conj(x_{t,j}). spec[i, None] keeps the
        # operand shapes equal at d = 1, as the batched product had them, so a
        # large product reuses its temporary with swapped operands in both
        vals[:, i, :] = np.fft.ifft(spec[i, None] * spec.conj())[:, : lags + 1].T
    vals /= (n - np.arange(lags + 1))[:, None, None]
    vals[0] = hermitize(vals[0])
    return CovarianceTable(dt=traj.dt, values=vals)


_TAPERS = ("hann", "bartlett", "boxcar")


def _taper(name: str, length: int) -> np.ndarray:
    t = np.arange(length)
    if name == "hann":
        return 0.5 * (1.0 - np.cos(2.0 * np.pi * t / length))
    if name == "bartlett":
        return 1.0 - np.abs(2.0 * t / length - 1.0)
    if name == "boxcar":
        return np.ones(length)
    raise ValueError(f"unknown taper {name!r}; choose from {_TAPERS}")


def welch_estimate(
    traj: Trajectory,
    segment: int,
    overlap: float = 0.5,
    taper: str = "hann",
) -> OperatorSpectralMeasure:
    """Averaged tapered-segment cross-periodogram as a density measure.

    Splits the trajectory into ``segment``-long pieces advancing by
    ``segment*(1-overlap)`` samples, tapers each, and averages

        dt * (X_f X_f^H) / sum_t w_t^2

    over segments, where ``X`` is the segment DFT. The result is a
    density-only measure with ``segment`` bins covering one Nyquist band;
    bin ``i`` has its left edge at the DFT frequency it estimates. Each bin
    is projected to the nearest PSD matrix (the average of outer products is
    already PSD, so this only clears rounding dust).
    """
    segment = int(segment)
    n = traj.n
    if segment < 2 or segment > n:
        raise ValueError(f"segment must be in [2, n], got {segment} with n={n}")
    if segment % 2 != 0:
        raise ValueError(f"segment must be even, got {segment}")
    overlap = float(overlap)
    if not (0.0 <= overlap <= 0.9):
        raise ValueError(f"overlap must be in [0, 0.9], got {overlap}")
    w = _taper(taper, segment)
    hop = max(1, int(round(segment * (1.0 - overlap))))
    count = 1 + (n - segment) // hop
    if count < 2:
        raise ValueError(
            f"need at least 2 segments, got {count} (n={n}, segment={segment})"
        )
    windows = np.lib.stride_tricks.sliding_window_view(traj.samples, segment, axis=0)
    segs = windows[::hop][:count].swapaxes(1, 2)  # (count, segment, dim) view
    spectra = np.fft.fft(w[None, :, None] * segs, axis=1)
    acc = (spectra.transpose(1, 2, 0) @ spectra.transpose(1, 0, 2).conj()) / count
    acc *= traj.dt / float(np.sum(w * w))
    acc = np.fft.fftshift(acc, axes=0)
    nyquist = 1.0 / (2.0 * traj.dt)
    density = DensityGrid(nu_min=-nyquist, nu_max=nyquist, values=nearest_psd(acc))
    return OperatorSpectralMeasure(dim=traj.dim, atoms=(), density=density)
