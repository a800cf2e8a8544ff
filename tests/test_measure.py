"""Spectral measures, the Bochner pair, kernel checks, and measure addition."""

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import frob, random_psd, rel_frob, rng_for
from qwss.errors import (
    DimensionMismatchError,
    NotPositiveSemidefiniteError,
    OffGridLagError,
    QwssError,
)
from qwss.filters import Tabulated
from qwss.linalg import is_psd, nearest_psd
from qwss.measure import (
    CovarianceTable,
    DensityGrid,
    OperatorSpectralMeasure,
    _chirp,
    add_scaled,
    check_psd_kernel,
    covariance_from_spectrum,
    cumulative,
    integrate_pair,
    spectrum_from_covariance,
    total_mass,
)

B2 = np.array([[2.0, 1.0j], [-1.0j, 1.0]])  # PSD: eigenvalues (3 +- sqrt5)/2 > 0


def atom_measure(*pairs, dim=2):
    return OperatorSpectralMeasure(
        dim=dim, atoms=tuple((nu, w) for nu, w in pairs)
    )


def flat_measure(s, band, bins):
    s = np.asarray(s, dtype=complex)
    vals = np.broadcast_to(s, (bins, *s.shape)).copy()
    return OperatorSpectralMeasure(
        dim=s.shape[0], atoms=(), density=DensityGrid(-band, band, vals)
    )


class TestDensityGrid:
    def test_geometry(self):
        den = DensityGrid(-1.0, 1.0, np.ones((4, 1, 1), dtype=complex))
        assert den.width == pytest.approx(0.5)
        assert np.allclose(den.edges(), [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert np.allclose(den.midpoints(), [-0.75, -0.25, 0.25, 0.75])

    def test_bin_index_closed_right_edge(self):
        den = DensityGrid(-1.0, 1.0, np.ones((4, 1, 1), dtype=complex))
        assert den.bin_index(-1.0) == 0
        assert den.bin_index(-0.5) == 1
        assert den.bin_index(1.0) == 3  # right endpoint belongs to the last bin
        assert den.bin_index(1.0001) is None
        assert den.bin_index(-1.0001) is None

    def test_rejects_non_psd_bin(self):
        vals = np.ones((2, 1, 1), dtype=complex)
        vals[1, 0, 0] = -0.5
        with pytest.raises(NotPositiveSemidefiniteError):
            DensityGrid(0.0, 1.0, vals)

    def test_reports_lowest_bad_bin(self):
        vals = np.ones((12, 1, 1), dtype=complex)
        vals[[4, 7, 11], 0, 0] = [-0.25, -3.0, -1.0]
        with pytest.raises(
            NotPositiveSemidefiniteError, match=r"^density bin 4 is not PSD"
        ) as exc:
            DensityGrid(0.0, 1.0, vals)
        assert exc.value.index == (4,)
        assert exc.value.witness == pytest.approx(-0.25)

    def test_rejects_empty_or_backwards(self):
        with pytest.raises(ValueError):
            DensityGrid(1.0, 0.0, np.ones((1, 1, 1), dtype=complex))


class TestMeasureConstruction:
    def test_atoms_sorted(self):
        mu = atom_measure((0.7, B2), (-0.2, 2 * B2))
        assert [nu for nu, _ in mu.atoms] == [-0.2, 0.7]

    def test_duplicate_frequency_rejected(self):
        with pytest.raises(ValueError):
            atom_measure((0.1, B2), (0.1, B2))

    def test_non_psd_atom_rejected(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            atom_measure((0.0, np.array([[1.0, 2.0], [2.0, 1.0]])))

    def test_empty(self):
        mu = OperatorSpectralMeasure(dim=3)
        assert mu.dim == 3 and mu.atoms == () and mu.density is None
        assert mu.support_bounds() is None
        assert np.array_equal(total_mass(mu), np.zeros((3, 3)))

    def test_support_bounds(self):
        mu = OperatorSpectralMeasure(
            dim=1,
            atoms=((2.0, np.eye(1, dtype=complex)),),
            density=DensityGrid(-1.0, 0.5, np.ones((2, 1, 1), dtype=complex)),
        )
        assert mu.support_bounds() == (-1.0, 2.0)

    def test_density_must_be_a_density_grid(self):
        # a Tabulated filter shares the grid but not the PSD check
        table = Tabulated(0.0, 1.0, [[[-1.0]]])
        with pytest.raises(TypeError, match="^density must be a DensityGrid or None, got Tabulated$"):
            OperatorSpectralMeasure(dim=1, density=table)

    def test_atoms_are_write_locked(self):
        mu = atom_measure((0.0, B2))
        with pytest.raises(ValueError):
            mu.atoms[0][1][0, 0] = 9.0


class TestCovarianceTable:
    def test_negative_lag_is_adjoint(self):
        vals = np.stack([B2, B2 @ B2])
        t = CovarianceTable(dt=0.5, values=vals)
        assert np.array_equal(t.at_index(-1), t.at_index(1).conj().T)

    def test_off_range_lag_raises(self):
        t = CovarianceTable(dt=0.5, values=B2[None])
        with pytest.raises(OffGridLagError):
            t.at_index(1)

    def test_rejects_non_psd_zero_lag(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            CovarianceTable(dt=1.0, values=np.array([[[1.0, 2.0], [2.0, 1.0]]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.nan, -1j * np.inf])
    @pytest.mark.parametrize("lag", [1, 2])
    def test_rejects_non_finite_entry_at_any_lag(self, bad, lag):
        vals = np.array([[[1.0]], [[0.5]], [[0.2]]], dtype=np.complex128)
        vals[lag, 0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            CovarianceTable(dt=1.0, values=vals)

    def test_lags_grid(self):
        t = CovarianceTable(dt=0.25, values=np.stack([B2, B2, B2]))
        assert np.allclose(t.lags(), [0.0, 0.25, 0.5])


class TestCumulative:
    def test_right_continuous_at_atom(self):
        mu = atom_measure((0.3, B2))
        assert np.allclose(cumulative(mu, 0.3), B2)
        assert np.allclose(cumulative(mu, 0.3 - 1e-9), 0.0)

    def test_reaches_total_mass(self):
        mu = OperatorSpectralMeasure(
            dim=2,
            atoms=((0.1, B2),),
            density=DensityGrid(-1.0, 1.0, np.broadcast_to(B2, (8, 2, 2)).copy()),
        )
        assert np.allclose(cumulative(mu, 10.0), total_mass(mu), atol=1e-12)

    def test_nan_raises_and_infinities_bound_the_line(self):
        mu = OperatorSpectralMeasure(
            dim=2,
            atoms=((0.1, B2),),
            density=DensityGrid(-1.0, 1.0, np.broadcast_to(B2, (8, 2, 2)).copy()),
        )
        for m in (mu, flat_measure(np.eye(1), band=1.0, bins=4), atom_measure((0.3, B2))):
            with pytest.raises(ValueError, match="nan"):
                cumulative(m, np.nan)
            assert np.array_equal(cumulative(m, np.inf), total_mass(m))
            assert np.array_equal(cumulative(m, -np.inf), np.zeros((m.dim, m.dim)))

    def test_partial_bin_linear(self):
        mu = flat_measure(np.eye(1), band=1.0, bins=4)
        # mass of (-inf, 0.25] over a flat unit density on [-1, 1]
        assert cumulative(mu, 0.25)[0, 0] == pytest.approx(1.25)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10**6))
    def test_increments_are_psd(self, seed):
        rng = rng_for(seed)
        mu = OperatorSpectralMeasure(
            dim=2,
            atoms=((float(rng.uniform(-1, 1)), random_psd(rng, 2)),),
            density=DensityGrid(
                -1.0, 1.0, np.stack([random_psd(rng, 2) for _ in range(3)])
            ),
        )
        a, b = sorted(rng.uniform(-1.5, 1.5, size=2))
        inc = cumulative(mu, b) - cumulative(mu, a)
        assert is_psd(inc, tol=1e-9)


class TestIntegratePair:
    def test_constants_give_total_mass(self):
        mu = flat_measure(B2, band=0.5, bins=3)
        got = integrate_pair(mu, lambda nu: 1.0, lambda nu: 1.0)
        assert np.allclose(got, total_mass(mu), atol=1e-12)

    def test_single_atom_phases(self):
        mu = atom_measure((0.25, B2))
        f = lambda nu: np.exp(2j * np.pi * nu)
        g = lambda nu: 2.0
        got = integrate_pair(mu, f, g)
        want = np.conj(f(0.25)) * 2.0 * B2
        assert np.allclose(got, want, atol=1e-14)

    def test_same_function_gives_psd(self):
        mu = OperatorSpectralMeasure(
            dim=2,
            atoms=((-0.3, B2), (0.4, 2 * B2)),
            density=DensityGrid(-1.0, 1.0, np.broadcast_to(B2, (4, 2, 2)).copy()),
        )
        got = integrate_pair(mu, np.cos, np.cos)
        assert is_psd(got)


def bochner_reference(mu, dt, lags):
    """Direct Bochner sum at each lag index in ``lags``: exact atom phasors
    plus ``w * sinc(tau*w) * exp(2*pi*i*tau*c) * S`` per density bin."""
    den = mu.density
    out = []
    for m in lags:
        tau = m * dt
        c = np.zeros((mu.dim, mu.dim), dtype=complex)
        for nu, w in mu.atoms:
            c += np.exp(2j * np.pi * nu * tau) * w
        if den is not None:
            f = den.width * np.sinc(tau * den.width)
            f = f * np.exp(2j * np.pi * tau * den.midpoints())
            c += np.tensordot(f, den.values, axes=1)
        out.append(c)
    return np.array(out)


def lag_window_reference(table, bins, window):
    """Direct lag-window sum ``dt * sum_j w_j C(j*dt) exp(-2*pi*i*nu*j*dt)``
    on each grid frequency, projected to PSD per cell."""
    m, dt = table.max_lag_index, table.dt
    j = np.arange(-m, m + 1)
    w = 1.0 - np.abs(j) / (m + 1) if window == "bartlett" else np.ones(2 * m + 1)
    two_sided = table.two_sided()
    raw = [
        dt * np.tensordot(w * np.exp(-2j * np.pi * nu * j * dt), two_sided, axes=1)
        for nu in -1.0 / (2.0 * dt) + np.arange(bins) / (bins * dt)
    ]
    return nearest_psd(np.array(raw))


def random_psd_stack(rng, count, d):
    a = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    return a @ a.conj().transpose(0, 2, 1)


class TestBochnerTransform:
    def test_zero_lag_is_total_mass(self):
        mu = OperatorSpectralMeasure(
            dim=2,
            atoms=((0.35, B2),),
            density=DensityGrid(-2.0, 2.0, np.broadcast_to(B2, (16, 2, 2)).copy()),
        )
        table = covariance_from_spectrum(mu, dt=0.1, lags=5)
        assert np.allclose(table.values[0], total_mass(mu), atol=1e-13)

    def test_atom_gives_phasor(self):
        mu = atom_measure((0.3, B2))
        table = covariance_from_spectrum(mu, dt=0.25, lags=8)
        taus = table.lags()
        want = np.exp(2j * np.pi * 0.3 * taus)[:, None, None] * B2
        assert frob(table.values - want) < 1e-13

    def test_flat_band_closed_form(self):
        # flat density S on [-W, W]: C(tau) = S * sin(2 pi W tau) / (pi tau)
        w = 0.8
        mu = flat_measure(B2, band=w, bins=1)
        table = covariance_from_spectrum(mu, dt=0.3, lags=12)
        for m, tau in enumerate(table.lags()):
            scale = 2 * w if m == 0 else np.sin(2 * np.pi * w * tau) / (np.pi * tau)
            assert frob(table.values[m] - scale * B2) < 1e-12

    def test_binning_flat_density_is_exact(self):
        # splitting a flat band into bins must not change the transform
        a = covariance_from_spectrum(flat_measure(B2, 0.7, 1), dt=0.2, lags=9)
        b = covariance_from_spectrum(flat_measure(B2, 0.7, 64), dt=0.2, lags=9)
        assert frob(a.values - b.values) < 1e-12

    def test_quadrature_oracle(self):
        rng = rng_for(11)
        den_vals = np.stack([random_psd(rng, 2), random_psd(rng, 2)])
        mu = OperatorSpectralMeasure(
            dim=2,
            atoms=((-0.4, random_psd(rng, 2)), (0.15, random_psd(rng, 2))),
            density=DensityGrid(-0.6, 0.2, den_vals),
        )
        table = covariance_from_spectrum(mu, dt=0.45, lags=3)
        den = mu.density
        for m, tau in enumerate(table.lags()):
            want = np.zeros((2, 2), dtype=complex)
            for nu_k, wgt in mu.atoms:
                want += np.exp(2j * np.pi * nu_k * tau) * wgt
            for b in range(den.bins):
                lo = den.nu_min + b * den.width
                hi = lo + den.width
                re, _ = scipy.integrate.quad(
                    lambda nu: np.cos(2 * np.pi * tau * nu), lo, hi
                )
                im, _ = scipy.integrate.quad(
                    lambda nu: np.sin(2 * np.pi * tau * nu), lo, hi
                )
                want += (re + 1j * im) * den.values[b]
            assert frob(table.values[m] - want) < 1e-10

    # (dim, atoms, bins, dt, lags): one and odd bin counts, zero lags, and
    # lags past 1/(dt*w), the first zero of a bin's sinc, in every row with
    # lags > 0 but the 33-bin one
    @pytest.mark.parametrize(
        "dim, atoms, bins, dt, lags",
        [
            (1, 2, 1, 0.3, 40),
            (1, 0, 1, 0.1, 0),
            (2, 1, 7, 0.45, 60),
            (2, 3, 33, 0.2, 0),
            (3, 3, 33, 0.07, 200),
            (4, 2, 64, 0.5, 301),
            (4, 0, 255, 0.5, 1000),
        ],
    )
    def test_matches_direct_sum(self, dim, atoms, bins, dt, lags):
        rng = rng_for(100 * dim + bins)
        lo = -rng.uniform(0.2, 1.0)
        hi = rng.uniform(0.2, 1.0)
        mu = OperatorSpectralMeasure(
            dim=dim,
            atoms=tuple(
                (nu, random_psd(rng, dim)) for nu in np.sort(rng.uniform(lo, hi, atoms))
            ),
            density=DensityGrid(lo, hi, random_psd_stack(rng, bins, dim)),
        )
        got = covariance_from_spectrum(mu, dt=dt, lags=lags).values
        want = bochner_reference(mu, dt, range(lags + 1))
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_large_grid_matches_direct_sum_at_spot_lags(self):
        # bins + lags = 20480 puts the chirp's k**2 near 4e8
        rng = rng_for(41)
        bins, lags, dt = 16384, 4096, 0.01
        mu = OperatorSpectralMeasure(
            dim=2, density=DensityGrid(-37.3, 41.9, random_psd_stack(rng, bins, 2))
        )
        got = covariance_from_spectrum(mu, dt=dt, lags=lags).values
        spots = np.unique(np.r_[0, 1, rng.integers(2, lags, 12), lags - 1, lags])
        want = bochner_reference(mu, dt, spots)
        assert np.abs(got[spots] - want).max() < 1e-12 * np.abs(got).max()

    def test_chirp_phase_is_reduced_exactly(self):
        # alpha * k**2 reaches 2e4 here, where its rounding alone would put
        # about 6e-12 rad of error into the phase
        alpha = 0.01 * (41.9 + 37.3) / 16384
        k = [0, 1, 7, 4095, 16383, 20479, 20480]
        exact = [float(Fraction(alpha) * j * j % 2) for j in k]
        want = np.exp(1j * np.pi * np.array(exact))
        assert np.abs(_chirp(alpha, 20481)[k] - want).max() < 1e-14

    def test_memory_stays_linear_in_bins_and_lags(self):
        # the (lags+1, bins) complex table alone would be 67 MB
        mu = OperatorSpectralMeasure(
            dim=1, density=DensityGrid(-2.0, 3.0, np.ones((4096, 1, 1)))
        )
        tracemalloc.start()
        try:
            covariance_from_spectrum(mu, dt=0.1, lags=1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSpectrumFromCovariance:
    def test_total_mass_matches_zero_lag(self):
        rng = rng_for(21)
        vals = np.stack([random_psd(rng, 2)] + [random_psd(rng, 2) * 0.1 for _ in range(5)])
        table = CovarianceTable(dt=0.5, values=vals)
        mu = spectrum_from_covariance(table, bins=16)
        assert frob(total_mass(mu) - table.values[0]) < 1e-10 * frob(table.values[0])

    def test_constant_table_concentrates_at_zero(self):
        # C(tau) = B for all lags is the line nu = 0; with bins == lags the
        # Fejer kernel zeros land on the grid and the mass sits in one cell
        m = 7
        table = CovarianceTable(dt=0.5, values=np.broadcast_to(B2, (m + 1, 2, 2)).copy())
        mu = spectrum_from_covariance(table, bins=m + 1)
        den = mu.density
        mass = total_mass(mu)
        cell = den.bin_index(0.0)
        cell_mass = den.values[cell] * den.width
        assert frob(cell_mass - mass) < 1e-12 * frob(mass)
        assert frob(mass - B2) < 1e-12 * frob(B2)

    def test_on_grid_phasor_concentrates(self):
        m, bins, dt = 31, 32, 0.5
        nu0 = 3.0 / (bins * dt)  # exactly on the output grid
        taus = np.arange(m + 1) * dt
        vals = np.exp(2j * np.pi * nu0 * taus)[:, None, None] * B2
        table = CovarianceTable(dt=dt, values=vals)
        mu = spectrum_from_covariance(table, bins=bins)
        den = mu.density
        cell = den.bin_index(nu0)
        ratio = frob(den.values[cell] * den.width) / frob(total_mass(mu))
        assert ratio > 0.98

    def test_bins_must_cover_lags(self):
        table = CovarianceTable(dt=0.5, values=np.broadcast_to(B2, (8, 2, 2)).copy())
        with pytest.raises(ValueError, match=re.escape("bins (4) must be >= number of lags (8)")) as exc:
            spectrum_from_covariance(table, bins=4)
        assert exc.value.location == "bins"

    def test_unknown_window_is_located(self):
        table = CovarianceTable(dt=0.5, values=np.broadcast_to(B2, (8, 2, 2)).copy())
        with pytest.raises(QwssError, match="unknown window 'hann'") as exc:
            spectrum_from_covariance(table, bins=8, window="hann")
        assert exc.value.location == "window"


    def test_needs_two_lags(self):
        table = CovarianceTable(dt=0.5, values=B2[None])
        with pytest.raises(ValueError):
            spectrum_from_covariance(table, bins=8)

    def test_output_is_psd_per_bin(self):
        rng = rng_for(23)
        vals = np.stack([random_psd(rng, 2)] + [0.2 * random_psd(rng, 2) for _ in range(7)])
        mu = spectrum_from_covariance(CovarianceTable(dt=1.0, values=vals), bins=16)
        assert all(is_psd(v) for v in mu.density.values)

    def test_round_trip_mass(self):
        # measure -> covariance -> spectrum keeps C(0) and lands nearby mass
        mu = flat_measure(B2, band=0.5, bins=4)
        table = covariance_from_spectrum(mu, dt=0.25, lags=256)
        back = spectrum_from_covariance(table, bins=512)
        assert rel_frob(total_mass(back), total_mass(mu)) < 0.02

    # (dim, lags m, bins): bins = m + 1; bins in [m+2, 2m], where lags j and
    # j - bins fold into one slot; bins = 2m + 1 odd and above
    @pytest.mark.parametrize("window", ["bartlett", "boxcar"])
    @pytest.mark.parametrize(
        "dim, m, bins",
        [(1, 7, 8), (2, 7, 11), (3, 7, 14), (2, 7, 15), (4, 20, 64), (2, 31, 45)],
    )
    def test_matches_direct_sum(self, window, dim, m, bins):
        rng = rng_for(7 * m + bins)
        vals = np.concatenate(
            [
                random_psd(rng, dim)[None],
                0.3 * rng.standard_normal((m, dim, dim))
                + 0.3j * rng.standard_normal((m, dim, dim)),
            ]
        )
        table = CovarianceTable(dt=0.37, values=vals)
        got = spectrum_from_covariance(table, bins=bins, window=window).density.values
        want = lag_window_reference(table, bins, window)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


class TestCheckPsdKernel:
    def test_passes_on_genuine_covariance(self):
        mu = OperatorSpectralMeasure(
            dim=2,
            atoms=((0.12, B2),),
            density=DensityGrid(-1.0, 1.0, np.broadcast_to(B2, (8, 2, 2)).copy()),
        )
        table = covariance_from_spectrum(mu, dt=0.25, lags=16)
        verdict = check_psd_kernel(table, times=[0.25 * k for k in range(10)])
        assert verdict.passed
        assert verdict.points == 10 and verdict.dim == 2
        assert verdict.witness > -1e-12

    def test_counterexample_witness(self):
        # C(0)=1, C(dt)=2 cannot be a covariance: Gram [[1,2],[2,1]] has -1
        table = CovarianceTable(dt=1.0, values=np.array([[[1.0]], [[2.0]]]))
        verdict = check_psd_kernel(table, times=[0.0, 1.0])
        assert not verdict.passed
        assert verdict.witness == pytest.approx(-1.0, abs=1e-9)

    def test_off_grid_time_raises(self):
        table = CovarianceTable(dt=1.0, values=np.array([[[1.0]], [[0.5]]]))
        with pytest.raises(OffGridLagError):
            check_psd_kernel(table, times=[0.0, 0.5])

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        table = CovarianceTable(dt=1.0, values=np.array([[[1.0]], [[0.5]]]))
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            check_psd_kernel(table, times=[0.0, 1.0], tol=tol)

    def test_callable_kernel(self):
        verdict = check_psd_kernel(
            lambda tau: np.array([[np.exp(-abs(tau))]]),
            times=[0.0, 0.3, 1.1, 2.4],
        )
        assert verdict.passed

    def test_empty_matrices_are_a_dimension_error(self):
        with pytest.raises(DimensionMismatchError, match="block kernel is empty"):
            check_psd_kernel(lambda tau: np.zeros((0, 0)), times=[0.0, 1.0])

    def test_hermitian_inconsistency_raises(self):
        # callable with C(-tau) != C(tau)^H is not a stationary kernel
        with pytest.raises(NotPositiveSemidefiniteError):
            check_psd_kernel(
                lambda tau: np.array([[1.0 + (0.5 if tau > 0 else 0.0)]]),
                times=[0.0, 1.0],
            )


class TestAddScaled:
    def test_merges_equal_frequencies(self):
        # weights scale by squared modulus: |2|^2 * B + |1|^2 * 3B = 7B
        mu1 = atom_measure((0.1, B2))
        mu2 = atom_measure((0.1, 3 * B2))
        out = add_scaled(2.0, mu1, 1.0, mu2)
        assert len(out.atoms) == 1
        assert np.allclose(out.atoms[0][1], 7 * B2, atol=1e-12)

    def test_keeps_distinct_frequencies(self):
        out = add_scaled(1.0, atom_measure((0.1, B2)), 1.0, atom_measure((0.2, B2)))
        assert [nu for nu, _ in out.atoms] == [0.1, 0.2]

    def test_beta_zero_keeps_first_measure(self):
        mu = OperatorSpectralMeasure(
            dim=2,
            atoms=((0.3, B2),),
            density=DensityGrid(-1.0, 1.0, np.broadcast_to(B2, (4, 2, 2)).copy()),
        )
        assert add_scaled(1.0, mu, 0.0, OperatorSpectralMeasure(dim=2)) == mu

    def test_unit_split_of_equal_measures(self):
        mu = flat_measure(B2, band=1.0, bins=4)
        out = add_scaled(1 / np.sqrt(2), mu, 1 / np.sqrt(2), mu)
        assert rel_frob(out.density.values, mu.density.values) < 1e-14
        assert rel_frob(total_mass(out), total_mass(mu)) < 1e-14

    def test_modulus_kills_phase_and_sign(self):
        mu = atom_measure((0.1, B2))
        out = add_scaled(-1.0, mu, 1.0j, mu)
        assert np.allclose(out.atoms[0][1], 2 * B2, atol=1e-14)

    def test_density_refinement(self):
        a = flat_measure(np.eye(1), band=1.0, bins=2)
        b = flat_measure(2 * np.eye(1), band=1.0, bins=4)
        out = add_scaled(1.0, a, 1.0, b)
        assert out.density.bins == 4
        assert np.allclose(out.density.values, 3.0, atol=1e-14)

    def test_non_refinement_grids_rejected(self):
        a = flat_measure(np.eye(1), band=1.0, bins=2)
        b = flat_measure(np.eye(1), band=1.0, bins=3)
        with pytest.raises(ValueError):
            add_scaled(1.0, a, 1.0, b)

    def test_mismatched_bands_rejected(self):
        a = flat_measure(np.eye(1), band=1.0, bins=2)
        b = flat_measure(np.eye(1), band=0.5, bins=2)
        with pytest.raises(ValueError):
            add_scaled(1.0, a, 1.0, b)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            add_scaled(
                1.0,
                flat_measure(np.eye(1), 1.0, 2),
                1.0,
                flat_measure(np.eye(2), 1.0, 2),
            )

    @settings(deadline=None, max_examples=20)
    @given(
        st.integers(0, 10**6),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    )
    def test_mass_is_additive(self, seed, alpha, beta):
        rng = rng_for(seed)
        mu1 = OperatorSpectralMeasure(
            dim=2,
            atoms=((0.3, random_psd(rng, 2)),),
            density=DensityGrid(-1.0, 1.0, np.stack([random_psd(rng, 2)] * 2)),
        )
        mu2 = OperatorSpectralMeasure(
            dim=2,
            atoms=((-0.1, random_psd(rng, 2)),),
            density=DensityGrid(-1.0, 1.0, np.stack([random_psd(rng, 2)] * 4)),
        )
        out = add_scaled(alpha, mu1, beta, mu2)
        want = abs(alpha) ** 2 * total_mass(mu1) + abs(beta) ** 2 * total_mass(mu2)
        assert frob(total_mass(out) - want) <= 1e-12 * max(1.0, frob(want))

    def test_transform_is_linear(self):
        rng = rng_for(77)
        mu1 = atom_measure((0.25, random_psd(rng, 2)))
        mu2 = flat_measure(random_psd(rng, 2), band=0.75, bins=3)
        out = add_scaled(1.5, mu1, 0.5, mu2)
        t_out = covariance_from_spectrum(out, dt=0.2, lags=6).values
        t1 = covariance_from_spectrum(mu1, dt=0.2, lags=6).values
        t2 = covariance_from_spectrum(mu2, dt=0.2, lags=6).values
        assert frob(t_out - 1.5**2 * t1 - 0.5**2 * t2) < 1e-12
