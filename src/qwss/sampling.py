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

from dataclasses import dataclass, field

import numpy as np

from .errors import EVEN, OVERLAP, POSITIVE, POWER_OF_TWO, SEED, integer
from .errors import AliasingError, QwssError
from .linalg import _BLOCK, hermitize, nearest_psd, psd_sqrt
from .measure import CovarianceTable, DensityGrid, OperatorSpectralMeasure
from .measure import _array, _fft_length, _Record

__all__ = ["Trajectory", "synthesize", "lag_covariance", "welch_estimate"]

_BAND_EDGE_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class Trajectory(_Record):
    """Uniformly sampled complex vector time series.

    ``samples[t]`` is the dim-vector at time ``t*dt``. ``seed`` is provenance
    metadata only: equality skips it, and it does not survive file round trips.
    """

    dt: float
    samples: np.ndarray  # (n, dim) complex128
    seed: int | None = field(default=None, compare=False)

    def __post_init__(self):
        s = _array(self.samples, "n dim", "samples", "trajectory samples must be finite")
        dt = POSITIVE.check(float(self.dt), "dt")
        self._store(dt=dt, samples=s)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

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
    Working memory is about three ``(n, dim)`` arrays plus blocks of 4096 rows.
    """
    seed = SEED.index(seed, "seed")
    dt = POSITIVE.check(float(dt), "dt")
    n = POWER_OF_TWO.index(n, "n")
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
        bins = den.bin_indices(np.fft.fftfreq(n, d=dt))
        hit = np.flatnonzero(bins >= 0)
        roots = np.sqrt(1.0 / (n * dt)) * psd_sqrt(den.values)
        coeff = np.zeros((n, d), dtype=np.complex128)
        for lo in range(0, n, _BLOCK):
            rows = hit[np.searchsorted(hit, lo) : np.searchsorted(hit, lo + _BLOCK)]
            if rows.size:
                xi = _normals(seed, lo, min(_BLOCK, n - lo), d)
                coeff[rows] = (roots[bins[rows]] @ xi[rows - lo, :, None])[..., 0]
        x += n * np.fft.ifft(coeff, axis=0)
    return Trajectory(dt=dt, samples=x, seed=seed)


def lag_covariance(traj: Trajectory, lags: int) -> CovarianceTable:
    """Unbiased lag-product estimate ``C(m*dt) ~ mean_t x_{t+m} x_t^H``.

    Each lag ``m`` averages over its ``n - m`` available products (unbiased
    for the mean-zero processes produced here). The sums are sectioned FFT
    correlations: with blocks of ``b >= lags`` samples and ``A_j`` the
    length-``2b`` spectrum of block ``j``, ``(A_j + (-1)^k A_{j+1}) A_j^H`` is
    summed per frequency ``k`` over groups of blocks (at least 8 and 4096
    samples); one ifft per entry reads lags ``0..lags``. Cost O(n d log b + n
    d^2), in memory that does not grow with ``n``. The zero lag is hermitized.
    """
    lags = integer(lags, "lags")
    n = traj.n
    if lags < 0 or 2 * lags >= n:
        raise QwssError(f"lags must satisfy 0 <= lags < n/2, got {lags} with n={n}", location="lags")
    d, b = traj.dim, _fft_length(max(lags, 1))
    blocks, step = -(-n // b), max(8, _BLOCK // b)  # several blocks a group, even long ones
    acc = np.zeros((d, d, 2 * b), dtype=np.complex128)
    for lo in range(0, blocks, step):
        g, span = min(step, blocks - lo), min(step + 1, blocks - lo)  # span: and the next block
        rows = traj.samples[lo * b : (lo + span) * b]
        if len(rows) < span * b:
            rows = np.pad(rows, ((0, span * b - len(rows)), (0, 0)))
        spec = np.zeros((span, d, 2 * b), dtype=np.complex128)  # zero-padded to 2b
        spec[..., :b] = rows.reshape(span, b, d).transpose(0, 2, 1)
        spec = np.fft.fft(spec)
        pair = spec[:g].copy()  # A_j + (-1)^k A_{j+1}: a shift by b in a 2b FFT
        pair[: span - 1, :, 0::2] += spec[1:, :, 0::2]
        pair[: span - 1, :, 1::2] -= spec[1:, :, 1::2]
        conj = np.conjugate(spec[:g], out=spec[:g])  # A_j^H, in place: spec is spent
        for i, j in np.ndindex(d, d):  # entry (i, j): sum_t x_{t+m,i} conj(x_{t,j})
            acc[i, j] += (pair[:, i] * conj[:, j]).sum(axis=0)
        del spec, pair, conj  # before the next group's spectra
    vals = np.fft.ifft(acc)[..., : lags + 1].transpose(2, 0, 1)  # one ifft per entry
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
    raise QwssError(f"unknown taper {name!r}; choose from {_TAPERS}", location="taper")


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
    already PSD, so this only clears rounding dust). Working memory is one
    block of 4096 rows of segment spectra, whatever ``n`` and ``overlap``.
    """
    segment = EVEN.index(segment, "segment")
    n = traj.n
    if segment > n:
        raise QwssError(f"segment must be in [2, n], got {segment} with n={n}", location="segment")
    overlap = OVERLAP.check(float(overlap), "overlap")
    w = _taper(taper, segment)
    hop = max(1, int(round(segment * (1.0 - overlap))))
    count = 1 + (n - segment) // hop
    if count < 2:
        raise QwssError(
            f"need at least 2 segments, got {count} (n={n}, segment={segment})", location="segment"
        )
    windows = np.lib.stride_tricks.sliding_window_view(traj.samples, segment, axis=0)
    segs = windows[::hop][:count]  # (count, dim, segment) view
    d, step = traj.dim, max(1, _BLOCK // segment)  # segments per block
    acc = np.zeros((d, d, segment), dtype=np.complex128)
    for lo in range(0, count, step):
        spec = np.fft.fft(np.multiply(segs[lo : lo + step], w, order="C"))
        conj = spec.conj()
        for i, j in zip(*np.triu_indices(d)):  # entry (i, j): sum_s X_i conj(X_j)
            acc[i, j] += (spec[:, i] * conj[:, j]).sum(axis=0)
    lower = np.tril_indices(d, -1)
    acc[lower] = acc.swapaxes(0, 1)[lower].conj()
    acc = acc.transpose(2, 0, 1)
    acc /= count
    acc *= traj.dt / float(np.sum(w * w))
    acc = np.fft.fftshift(acc, axes=0)
    nyquist = 1.0 / (2.0 * traj.dt)
    density = DensityGrid(nu_min=-nyquist, nu_max=nyquist, values=nearest_psd(acc))
    return OperatorSpectralMeasure(dim=traj.dim, atoms=(), density=density)
