"""Tests for trajectory synthesis and the two spectral estimators.

Exact checks cover the documented stream layout (v2), zero measures, phasor
algebra, and reproducibility; Monte Carlo checks pin estimator accuracy at
tolerances calibrated with generous margin over the observed errors for the
fixed seeds used here.
"""

import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest

from qwss import (
    AliasingError,
    CovarianceTable,
    DensityGrid,
    ExpOperator,
    OperatorSpectralMeasure,
    Trajectory,
    apply_filter,
    covariance_from_spectrum,
    lag_covariance,
    nearest_psd,
    ou_covariance,
    psd_sqrt,
    synthesize,
    total_mass,
    welch_estimate,
    white_noise,
)

from qwss.linalg import hermitize
from qwss.measure import _fft_length
from qwss.sampling import _normals, _taper

from helpers import frob, random_psd, rel_frob, rng_for

B2 = np.array([[2, 1j], [-1j, 1]], dtype=complex)


def documented_row(seed, row, dim):
    """Circular complex normal of one row of stream layout v2, decoded word
    by word: u = ((w >> 11) + 1) / 2**53, first dim words u1, next dim u2,
    xi = sqrt(-log u1) * exp(2 pi i u2)."""
    block = -(-2 * dim // 4)
    words = np.random.Philox(key=seed, counter=row * block).random_raw(2 * dim)
    u = [((int(w) >> 11) + 1) / 2**53 for w in words]
    return np.array(
        [
            cmath.sqrt(-math.log(u[i])) * cmath.exp(2j * math.pi * u[dim + i])
            for i in range(dim)
        ]
    )


def atom_measure(nu, w):
    w = np.asarray(w, dtype=complex)
    return OperatorSpectralMeasure(dim=w.shape[0], atoms=((float(nu), w),))


def flat_measure(band, values, bins=8):
    values = np.asarray(values, dtype=complex)
    d = values.shape[0]
    den = DensityGrid(
        nu_min=-band, nu_max=band, values=np.broadcast_to(values, (bins, d, d))
    )
    return OperatorSpectralMeasure(dim=d, atoms=(), density=den)


class TestTrajectory:
    def test_properties(self):
        tr = Trajectory(dt=0.5, samples=np.zeros((8, 3)), seed=4)
        assert tr.n == 8 and tr.dim == 3 and tr.dt == 0.5 and tr.seed == 4

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            Trajectory(dt=0.0, samples=np.zeros((4, 1)))

    def test_rejects_non_matrix_samples(self):
        with pytest.raises(Exception):
            Trajectory(dt=1.0, samples=np.zeros(4))

    def test_rejects_non_finite_samples(self):
        bad = np.zeros((4, 2), dtype=complex)
        bad[1, 0] = np.nan
        with pytest.raises(ValueError):
            Trajectory(dt=1.0, samples=bad)

    def test_samples_are_write_locked(self):
        tr = Trajectory(dt=1.0, samples=np.zeros((4, 2)))
        with pytest.raises(ValueError):
            tr.samples[0, 0] = 1.0

    def test_equality_compares_data_not_seed(self):
        # The seed is provenance only; the binary format does not carry it,
        # so round-tripped trajectories must still compare equal.
        a = Trajectory(dt=1.0, samples=np.ones((4, 1)), seed=1)
        b = Trajectory(dt=1.0, samples=np.ones((4, 1)), seed=2)
        c = Trajectory(dt=1.0, samples=2 * np.ones((4, 1)), seed=1)
        d = Trajectory(dt=0.5, samples=np.ones((4, 1)), seed=1)
        assert a == b and a != c and a != d


class TestSynthesize:
    def test_zero_measure_gives_zero_trajectory(self):
        mu = OperatorSpectralMeasure(dim=2, atoms=())
        tr = synthesize(mu, dt=0.1, n=16, seed=0)
        assert tr.n == 16 and tr.dim == 2
        assert np.abs(tr.samples).max() == 0.0

    def test_reproducible_and_seed_sensitive(self):
        mu = flat_measure(2.0, B2)
        a = synthesize(mu, dt=0.1, n=64, seed=9)
        b = synthesize(mu, dt=0.1, n=64, seed=9)
        c = synthesize(mu, dt=0.1, n=64, seed=10)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_atom_contribution_follows_documented_streams(self):
        # Reconstruct the atoms-only output from the documented v2 layout,
        # one atom at a time: atom k owns row 2**64 + k, i.e. the Philox
        # counter blocks from (2**64 + k) * B with B = ceil(2*dim/4).
        seed, dt, n = 123, 0.2, 32
        atoms = ((-1.1, B2), (0.7, np.array([[1.0, 0.0], [0.0, 0.25]])))
        mu = OperatorSpectralMeasure(dim=2, atoms=atoms)
        tr = synthesize(mu, dt=dt, n=n, seed=seed)
        t = np.arange(n) * dt
        want = np.zeros((n, 2), dtype=complex)
        for k, (nu_k, w) in enumerate(atoms):
            xi = documented_row(seed, 2**64 + k, dim=2)
            want += np.exp(2j * np.pi * nu_k * t)[:, None] * (psd_sqrt(w) @ xi)
        assert frob(tr.samples - want) < 1e-12 * max(1.0, frob(want))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_bin_coefficient_follows_documented_rows(self, dim):
        # FFT bin j owns row j; x = n * ifft(coeff), so fft(x) / n gives back
        # coeff[j] = sqrt(dnu) * S(f_j)^(1/2) @ xi_j.
        seed, dt, n = 77, 0.1, 64
        rng = rng_for(dim)
        values = np.stack([random_psd(rng, dim) for _ in range(5)])
        den = DensityGrid(nu_min=-3.0, nu_max=2.0, values=values)
        mu = OperatorSpectralMeasure(dim=dim, atoms=(), density=den)
        coeff = np.fft.fft(synthesize(mu, dt=dt, n=n, seed=seed).samples, axis=0) / n
        freqs = np.fft.fftfreq(n, d=dt)
        hit = [j for j in range(n) if den.bin_index(freqs[j]) is not None]
        assert 0 < len(hit) < n
        for j in range(n):
            if j in hit:
                root = psd_sqrt(values[den.bin_index(freqs[j])])
                want = np.sqrt(1.0 / (n * dt)) * root @ documented_row(seed, j, dim)
            else:
                want = np.zeros(dim)
            assert frob(coeff[j] - want) < 1e-12 * max(1.0, frob(want)), j

    def test_atom_part_ignores_density_and_length(self):
        # An atom's draw depends only on (seed, k, dim): adding a density or
        # changing n leaves the atom part of the output as it was.
        seed, dt = 5, 0.1
        atoms = ((0.3, B2), (-1.7, np.array([[0.5, 0.0], [0.0, 2.0]])))
        den = flat_measure(2.0, B2).density

        def draw(atoms=(), density=None, n=64):
            mu = OperatorSpectralMeasure(dim=2, atoms=atoms, density=density)
            return synthesize(mu, dt=dt, n=n, seed=seed).samples

        only_atoms = draw(atoms)
        only_density = draw(density=den)
        both = draw(atoms, den)
        longer = draw(atoms, n=256)
        assert frob(both - only_density - only_atoms) < 1e-12 * frob(only_atoms)
        assert frob(longer[:64] - only_atoms) < 1e-12 * frob(only_atoms)

    def test_normals_have_circular_gaussian_moments(self):
        # A full-band flat identity density makes each bin coefficient
        # sqrt(dnu) * xi_j, so fft(x) / (n sqrt(dnu)) returns the 2**14 * 2
        # normals themselves. Each bound is 5 standard errors over the 2**14
        # draws per component: 0.008 for E|xi|^2, E[xi_0 xi_1^*] and the
        # mean, 0.011 for E[xi xi^T] entries, 0.0055 for E[Re(xi)^2] and
        # 0.035 for E|xi|^4 = 2.
        seed, dt, n = 2024, 0.1, 2**14
        mu = flat_measure(5.0, np.eye(2))
        x = synthesize(mu, dt=dt, n=n, seed=seed).samples
        xi = np.fft.fft(x, axis=0) / (n * np.sqrt(1.0 / (n * dt)))
        second = xi.T @ xi.conj() / n  # E[xi xi^H] = I
        pseudo = xi.T @ xi / n  # E[xi xi^T] = 0 for a circular normal
        assert np.abs(second - np.eye(2)).max() < 0.04
        assert np.abs(pseudo).max() < 0.06
        assert np.abs(xi.mean(axis=0)).max() < 0.04
        assert np.abs(np.mean(np.abs(xi) ** 4, axis=0) - 2.0).max() < 0.18
        assert np.abs(np.mean(xi.real**2, axis=0) - 0.5).max() < 0.03

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_rejects_seed_outside_key_range(self, seed):
        mu = white_noise([[1.0]], band=1.0, bins=4)
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*128\), got "):
            synthesize(mu, dt=0.1, n=8, seed=seed)

    def test_rejects_non_power_of_two(self):
        mu = atom_measure(0.1, [[1.0]])
        for n in (0, 3, 1000):
            with pytest.raises(ValueError, match="power of two"):
                synthesize(mu, dt=0.1, n=n, seed=0)

    def test_rejects_atom_at_or_beyond_nyquist(self):
        # dt = 0.1 puts the band edge at 5; atoms must stay strictly inside.
        for nu in (5.0, 6.5, -5.0):
            with pytest.raises(AliasingError):
                synthesize(atom_measure(nu, [[1.0]]), dt=0.1, n=16, seed=0)

    def test_rejects_density_beyond_nyquist(self):
        mu = flat_measure(6.0, [[1.0]])
        with pytest.raises(AliasingError):
            synthesize(mu, dt=0.1, n=16, seed=0)

    def test_accepts_density_touching_band_edge(self):
        mu = flat_measure(5.0, [[1.0]])
        tr = synthesize(mu, dt=0.1, n=16, seed=0)
        assert np.isfinite(tr.samples.view(np.float64)).all()

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            synthesize(atom_measure(0.1, [[1.0]]), dt=-1.0, n=16, seed=0)


def synthesize_unblocked(mu, dt, n, seed):
    """The density part of ``synthesize`` with all bin coefficients formed by
    one ``(hits, d, d)`` gather of the roots, the code the blocks replaced."""
    den, d = mu.density, mu.dim
    freqs = np.fft.fftfreq(n, d=dt)
    bins = den.bin_indices(freqs)
    hit = np.flatnonzero(bins >= 0)
    roots = np.sqrt(1.0 / (n * dt)) * psd_sqrt(den.values)
    xi = _normals(seed, 0, n, d)[hit]
    coeff = np.zeros((n, d), dtype=np.complex128)
    coeff[hit] = (roots[bins[hit]] @ xi[..., None])[..., 0]
    x = np.zeros((n, d), dtype=np.complex128)
    x += n * np.fft.ifft(coeff, axis=0)
    return x


class TestSynthesizeBlocks:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("band", [5.0, 1.3])
    def test_bytes_equal_unblocked(self, dim, band):
        # n = 2^14 at dt = 0.1: the full band hits every row, four blocks
        rng = rng_for(40 + dim)
        values = np.stack([random_psd(rng, dim) for _ in range(7)])
        mu = OperatorSpectralMeasure(
            dim=dim, atoms=(), density=DensityGrid(-band, band, values)
        )
        got = synthesize(mu, dt=0.1, n=2**14, seed=dim).samples
        assert got.tobytes() == synthesize_unblocked(mu, 0.1, 2**14, dim).tobytes()

    def test_peak_memory_bounded(self):
        n, dim = 2**16, 4
        mu = white_noise(np.eye(dim), band=5.0, bins=64)
        synthesize(mu, dt=0.1, n=256, seed=1)  # warm the FFT plan cache
        tracemalloc.start()
        try:
            synthesize(mu, dt=0.1, n=n, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 3.4x the 4.2 MB output: the output, the bin coefficients and their
        # ifft; drawing every normal at once took 5.9x
        assert peak < 4 * n * dim * 16

    @pytest.mark.parametrize("n", [2**10, 2**15])
    @pytest.mark.parametrize("lo, hi", [(-5.0, 5.0), (2.0, 4.0), (-4.5, -0.2), (1e-4, 4e-4)])
    def test_blocks_of_counter_rows_equal_one_draw(self, n, lo, hi):
        # at dt = 0.1, n = 2^15 spans eight blocks of rows; the narrow bands
        # hit some of them only (the narrowest one row of one block, at n =
        # 2^15), and n = 2^10 is less than one block
        rng = rng_for(n + int(10 * hi))
        values = np.stack([random_psd(rng, 3) for _ in range(5)])
        mu = OperatorSpectralMeasure(dim=3, atoms=(), density=DensityGrid(lo, hi, values))
        got = synthesize(mu, dt=0.1, n=n, seed=n).samples
        assert got.tobytes() == synthesize_unblocked(mu, 0.1, n, n).tobytes()


class TestLagCovariance:
    def test_phasor_trajectory_exact_algebra(self):
        # A single atom draws one frozen amplitude v; the unbiased estimator
        # then returns exp(2 pi i nu m dt) v v^H exactly, no statistics.
        nu0, dt, n, lags = 0.31, 0.1, 256, 20
        tr = synthesize(atom_measure(nu0, B2), dt=dt, n=n, seed=5)
        v = tr.samples[0]
        tab = lag_covariance(tr, lags)
        for m in range(lags + 1):
            want = np.exp(2j * np.pi * nu0 * m * dt) * np.outer(v, v.conj())
            assert rel_frob(tab.values[m], want) < 1e-10

    def test_atom_zero_lag_pools_to_weight(self):
        # The frozen amplitude has unit second moment, so averaging the
        # zero-lag estimate over seeds recovers the atom weight. Observed
        # 1.6% at 400 seeds; bound leaves a 3x margin.
        mu = atom_measure(0.31, B2)
        acc = np.zeros((2, 2), complex)
        n_seeds = 400
        for seed in range(n_seeds):
            acc += lag_covariance(synthesize(mu, dt=0.1, n=64, seed=seed), 0).values[0]
        assert rel_frob(acc / n_seeds, B2) < 0.05

    def test_flat_density_matches_closed_form(self):
        # C(tau) = 2 W S sinc(2 W tau); observed max error 2.7% of C(0).
        W, dt, n = 2.0, 0.1, 2**14
        mu = flat_measure(W, [[1.0]])
        tab = lag_covariance(synthesize(mu, dt=dt, n=n, seed=3), 40)
        theory = covariance_from_spectrum(mu, dt=dt, lags=40)
        c0 = theory.values[0][0, 0].real
        err = np.abs(tab.values[:, 0, 0] - theory.values[:, 0, 0]).max() / c0
        assert err < 0.08
        assert abs(tab.values[0][0, 0].real - c0) / c0 < 0.05

    def test_full_band_flat_measure_is_white(self):
        # Covering the whole Nyquist band makes successive samples
        # uncorrelated; observed off-lag leakage 1.2% of C(0).
        nyq = 5.0
        mu = flat_measure(nyq, [[1.0]])
        tab = lag_covariance(synthesize(mu, dt=0.1, n=2**14, seed=5), 20)
        c0 = 2 * nyq
        assert abs(tab.values[0][0, 0].real - c0) / c0 < 0.03
        assert np.abs(tab.values[1:, 0, 0]).max() / c0 < 0.05

    def test_filtered_spectrum_matches_relaxation_covariance(self):
        # Flat noise through a one-pole filter; pooled over 6 seeds the lag
        # table observed 5.7% relative error against the closed form.
        gamma, dt, lags = 1.0, 0.05, 60
        mu = apply_filter(
            white_noise([[1.0]], band=10.0, bins=1024),
            ExpOperator(gamma=[[gamma]], a=[[1.0]]),
        )
        taus = np.arange(lags + 1) * dt
        theory = np.array(
            [ou_covariance([[gamma]], [[1.0]], [[1.0]], t)[0, 0] for t in taus]
        )
        acc = np.zeros(lags + 1, complex)
        seeds = range(6)
        for seed in seeds:
            tr = synthesize(mu, dt=dt, n=2**14, seed=seed)
            acc += lag_covariance(tr, lags).values[:, 0, 0]
        acc /= len(seeds)
        assert np.linalg.norm(acc - theory) / np.linalg.norm(theory) < 0.10

    def test_synthesized_route_matches_bochner_noncommuting(self):
        # The filter theorem by the synthesized route: lag products of a draw
        # of filtered noise against the Bochner table of the filtered
        # spectrum, for gamma and S that do not commute. Over seeds 0-99 the
        # largest entry error was 0.0039-0.0306 (mean 0.0105, sd 0.0052)
        # against the Bochner table, and 0.0478-0.0627 against its adjoint
        # a^H M exp(-gamma tau) a, the convention ou_covariance had before.
        # The bound 0.04 lies between the two; seed 0 (0.0077) is at the
        # 30th percentile of the first.
        g = np.array([[1.5, 0.4], [0.4, 1.0]])
        s = np.array([[1.0, 0.3j], [-0.3j, 2.0]])
        mu = apply_filter(white_noise(s, band=10.0, bins=8192), ExpOperator(gamma=g, a=np.eye(2)))
        table = covariance_from_spectrum(mu, dt=0.05, lags=18).values
        est = lag_covariance(synthesize(mu, dt=0.05, n=2**18, seed=0), 18).values
        assert np.abs(est - table).max() < 0.04
        assert np.abs(est - table.conj().swapaxes(-1, -2)).max() > 0.04

    def test_zero_lag_is_hermitian_and_nearly_psd(self):
        mu = flat_measure(2.0, B2)
        tab = lag_covariance(synthesize(mu, dt=0.1, n=2**14, seed=21), 10)
        c0 = tab.values[0]
        assert frob(c0 - c0.conj().T) == 0.0
        assert rel_frob(nearest_psd(c0), c0) < 0.01

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_fft_sums_match_direct_lag_products(self, dim):
        rng = rng_for(10 + dim)
        for n in (64, 37, 250):  # 250 + 124 pads to 375, not a power of two
            x = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
            lags = (n - 1) // 2  # n/2 - 1 for even n, the largest allowed
            want = np.stack(
                [
                    sum(np.outer(x[t + m], x[t].conj()) for t in range(n - m)) / (n - m)
                    for m in range(lags + 1)
                ]
            )
            want[0] = (want[0] + want[0].conj().T) / 2
            got = lag_covariance(Trajectory(dt=0.5, samples=x), lags).values
            assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "n, lags",
        [(n, lags) for lags in (0, 1, 16, 512) for n in (12288, 12289)]
        + [(1536, 767), (1537, 768)],
    )
    def test_block_edges_match_direct_lag_products(self, n, lags, dim):
        # n is a multiple of the block length b (1 at lags 0 and 1, then 16,
        # 512 and 768), or one more. Lags 16, 512 and 768 equal their b, the
        # longest lag a 2b-point block correlation reads, and 767 and 768 are
        # (n - 1) // 2. 12288 rows make 3 groups of blocks at b = 1, 16 and
        # 512 (4096 blocks, 256 blocks and 8 blocks a group)
        rng = rng_for(n + dim + lags)
        x = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        want = np.stack([x[m:].T @ x[: n - m].conj() / (n - m) for m in range(lags + 1)])
        want[0] = hermitize(want[0])
        got = lag_covariance(Trajectory(dt=0.5, samples=x), lags).values
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_block_sums_match_batched_ifft(self, dim):
        # the block sums round differently from one ifft of the whole padded
        # cross-spectrum, the code they replaced, so agreement is to 1e-12
        rng = rng_for(20 + dim)
        for n in (3, 37, 251, 1024, 16385, 2**16):
            x = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
            tr = Trajectory(dt=0.5, samples=x * 10.0 ** rng.uniform(-3, 3))
            for lags in sorted({0, 1, (n - 1) // 2}):
                got = lag_covariance(tr, lags).values
                want = lag_covariance_batched(tr, lags).values
                assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_peak_memory_is_a_few_spectra(self):
        # dim 4, 128 lags: the spectra of one group of blocks, whatever n; the
        # padded spectrum and two rows took 25.2 MB at n = 2^18
        estimate = lambda tr: lag_covariance(tr, 128)
        peaks = [traced_peak(estimate, white_trajectory(n, 4)) for n in (2**16, 2**18)]
        assert max(peaks) < 1.25 * min(peaks)
        assert peaks[1] < 4e6

    def test_rejects_bad_lag_counts(self):
        tr = synthesize(flat_measure(2.0, [[1.0]]), dt=0.1, n=32, seed=0)
        with pytest.raises(ValueError):
            lag_covariance(tr, -1)
        with pytest.raises(ValueError, match=r"lags must satisfy 0 <= lags < n/2") as exc:
            lag_covariance(tr, 16)  # 2*lags must stay below n
        assert exc.value.location == "lags"
        assert lag_covariance(tr, 15).max_lag_index == 15


def white_trajectory(n, dim):
    rng = rng_for(n + dim)
    x = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return Trajectory(dt=0.1, samples=x)


def traced_peak(estimate, traj):
    """Traced peak bytes of ``estimate(traj)``, FFT plans already cached."""
    estimate(traj)
    tracemalloc.start()
    try:
        estimate(traj)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def lag_covariance_batched(traj, lags):
    """``lag_covariance`` as one batched ifft of all ``d**2`` cross-spectra,
    the code the row blocks replaced."""
    n, d = traj.n, traj.dim
    spec = np.fft.fft(traj.samples, n=_fft_length(n + lags), axis=0)
    cross = (spec[:, :, None] * spec[:, None, :].conj()).reshape(-1, d * d)
    vals = np.fft.ifft(cross, axis=0)[: lags + 1].reshape(lags + 1, d, d)
    vals /= (n - np.arange(lags + 1))[:, None, None]
    vals[0] = hermitize(vals[0])
    return CovarianceTable(dt=traj.dt, values=vals)


def welch_gathered(traj, segment, overlap, taper):
    """``welch_estimate`` reading its segments by a fancy-index gather, the
    copy that the strided window view replaced."""
    w = _taper(taper, segment)
    hop = max(1, int(round(segment * (1.0 - overlap))))
    count = 1 + (traj.n - segment) // hop
    idx = (np.arange(count) * hop)[:, None] + np.arange(segment)[None, :]
    spectra = np.fft.fft(w[None, :, None] * traj.samples[idx], axis=1)
    acc = (spectra.transpose(1, 2, 0) @ spectra.transpose(1, 0, 2).conj()) / count
    acc *= traj.dt / float(np.sum(w * w))
    return nearest_psd(np.fft.fftshift(acc, axes=0))


class TestWelchEstimate:
    @pytest.mark.parametrize("taper", ["hann", "bartlett", "boxcar"])
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("n, segment", [(301, 16), (67, 4)])
    def test_window_view_matches_the_gather(self, n, segment, dim, overlap, taper):
        # the entry-wise sums over segments round differently from the
        # gather's per-frequency matmul, so agreement is to 1e-12 of the
        # largest entry
        rng = rng_for(n + 10 * dim)
        x = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        tr = Trajectory(dt=0.1, samples=x)
        got = welch_estimate(tr, segment=segment, overlap=overlap, taper=taper).density.values
        want = welch_gathered(tr, segment, overlap, taper)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("segment, overlap", [(64, 0.5), (4, 0.5), (8192, 0.9)])
    def test_blocks_match_the_gather(self, segment, overlap, dim):
        # n = 2^14 gives 8 blocks of 64 segments at segment 64; 8 blocks of
        # 1024 at segment 4; and 11 blocks of one segment at segment 8192.
        # Summing block by block rounds differently from one sum over every
        # segment, so agreement is to 1e-12 of the largest entry
        rng = rng_for(segment + dim)
        x = rng.standard_normal((2**14, dim)) + 1j * rng.standard_normal((2**14, dim))
        tr = Trajectory(dt=0.1, samples=x)
        got = welch_estimate(tr, segment=segment, overlap=overlap).density.values
        want = welch_gathered(tr, segment, overlap, "hann")
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_peak_memory_is_the_spectra_stack(self):
        # dim 4, segment 256: the spectra of one block of 16 segments, whatever
        # n and overlap; the stack of every segment's spectrum took 34.1 MB at
        # n = 2^18, overlap 0.5, and 165.9 MB at overlap 0.9
        for overlap in (0.5, 0.9):
            estimate = lambda tr: welch_estimate(tr, segment=256, overlap=overlap)
            peaks = [traced_peak(estimate, white_trajectory(n, 4)) for n in (2**16, 2**18)]
            assert max(peaks) < 1.25 * min(peaks)
            assert peaks[1] < 2e6

    def test_zero_trajectory_gives_zero_density(self):
        tr = Trajectory(dt=0.1, samples=np.zeros((128, 2)))
        est = welch_estimate(tr, segment=32)
        assert est.atoms == ()
        assert np.abs(est.density.values).max() == 0.0

    def test_matches_per_segment_outer_products(self):
        rng = rng_for(31)
        x = rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))
        segment, hop = 32, 16
        w = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(segment) / segment))
        want = np.zeros((segment, 3, 3), dtype=complex)
        starts = range(0, 200 - segment + 1, hop)
        for t in starts:
            spec = np.fft.fft(w[:, None] * x[t : t + segment], axis=0)
            want += np.einsum("si,sj->sij", spec, spec.conj())
        want = np.fft.fftshift(want, axes=0) * 0.1 / (len(starts) * np.sum(w * w))
        got = welch_estimate(Trajectory(dt=0.1, samples=x), segment=segment).density
        assert np.abs(got.values - want).max() < 1e-12 * np.abs(want).max()

    def test_grid_covers_nyquist_band(self):
        tr = Trajectory(dt=0.25, samples=np.zeros((128, 1)))
        est = welch_estimate(tr, segment=16)
        g = est.density
        assert g.values.shape[0] == 16
        assert g.nu_min == pytest.approx(-2.0) and g.nu_max == pytest.approx(2.0)

    def test_flat_band_mass_and_bins(self):
        # Observed: mass error 0.13%, worst bin 6.6% for this seed.
        mu = flat_measure(5.0, [[0.7]])
        tr = synthesize(mu, dt=0.1, n=2**14, seed=11)
        est = welch_estimate(tr, segment=32, overlap=0.5, taper="hann")
        mass = total_mass(est)[0, 0].real
        assert abs(mass - 7.0) / 7.0 < 0.05
        vals = est.density.values[:, 0, 0].real
        assert np.abs(vals - 0.7).max() / 0.7 < 0.12

    def test_phasor_concentrates_and_conserves_mass(self):
        # Pure harmonic at an on-grid frequency: the spectral mass matches
        # the empirical zero-lag variance to rounding, and at least 95% of
        # it sits within one bin of the true frequency.
        nu0, dt = 1.25, 0.1
        tr = synthesize(atom_measure(nu0, [[3.0]]), dt=dt, n=2**13, seed=13)
        est = welch_estimate(tr, segment=128)
        c0 = lag_covariance(tr, 0).values[0][0, 0].real
        mass = total_mass(est)[0, 0].real
        assert abs(mass - c0) / c0 < 1e-10
        g = est.density
        vals = g.values[:, 0, 0].real
        k0 = int(np.argmax(vals))
        assert abs(g.midpoints()[k0] - nu0) <= g.width
        near = vals[max(0, k0 - 1) : k0 + 2].sum() * g.width
        assert near / mass > 0.95

    def test_bins_are_psd(self):
        mu = flat_measure(2.0, B2)
        tr = synthesize(mu, dt=0.1, n=2**12, seed=17)
        est = welch_estimate(tr, segment=64)
        for v in est.density.values:
            assert np.linalg.eigvalsh((v + v.conj().T) / 2).min() > -1e-12

    def test_reproducible(self):
        mu = flat_measure(2.0, [[1.0]])
        tr = synthesize(mu, dt=0.1, n=2**10, seed=2)
        a = welch_estimate(tr, segment=64)
        b = welch_estimate(tr, segment=64)
        assert np.array_equal(a.density.values, b.density.values)

    def test_taper_choices(self):
        tr = synthesize(flat_measure(2.0, [[1.0]]), dt=0.1, n=2**10, seed=2)
        for taper in ("hann", "bartlett", "boxcar"):
            est = welch_estimate(tr, segment=64, taper=taper)
            mass = total_mass(est)[0, 0].real
            assert abs(mass - 4.0) / 4.0 < 0.25

    def test_rejects_unknown_taper(self):
        tr = synthesize(flat_measure(2.0, [[1.0]]), dt=0.1, n=256, seed=2)
        with pytest.raises(ValueError, match="unknown taper 'kaiser'") as exc:
            welch_estimate(tr, segment=64, taper="kaiser")
        assert exc.value.location == "taper"

    def test_rejects_bad_segment_and_overlap(self):
        tr = synthesize(flat_measure(2.0, [[1.0]]), dt=0.1, n=256, seed=2)
        with pytest.raises(ValueError):
            welch_estimate(tr, segment=63)  # odd
        with pytest.raises(ValueError, match=re.escape("segment must be in [2, n]")) as exc:
            welch_estimate(tr, segment=512)  # longer than the trajectory
        assert exc.value.location == "segment"
        with pytest.raises(ValueError):
            welch_estimate(tr, segment=0)
        with pytest.raises(ValueError):
            welch_estimate(tr, segment=64, overlap=-0.1)
        with pytest.raises(ValueError):
            welch_estimate(tr, segment=64, overlap=0.95)

    def test_rejects_single_segment(self):
        tr = synthesize(flat_measure(2.0, [[1.0]]), dt=0.1, n=256, seed=2)
        with pytest.raises(ValueError, match="need at least 2 segments") as exc:
            welch_estimate(tr, segment=256, overlap=0.0)
        assert exc.value.location == "segment"

