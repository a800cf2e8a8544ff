"""Characteristic functions, spectral congruence, domains, and the OU family."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    count_psd_checks,
    frob,
    random_complex_matrix,
    random_hpd,
    random_psd,
    rel_frob,
    rng_for,
)
import qwss
from qwss.errors import (
    DimensionMismatchError,
    FilterDomainError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    QwssError,
)
from qwss.filters import (
    Composition,
    Derivative,
    ExpOperator,
    ScalarConvolution,
    Shift,
    Tabulated,
    UnboundedWhiteNoise,
    apply_filter,
    compose,
    eval_characteristic,
    in_domain,
    ou_covariance,
    white_noise,
)
from qwss.linalg import hermitize, is_psd, solve_lyapunov
from qwss.measure import (
    DensityGrid,
    OperatorSpectralMeasure,
    covariance_from_spectrum,
    total_mass,
)


def scalar_exp_filter(gamma=1.0):
    return ExpOperator(
        gamma=np.array([[gamma]], dtype=complex), a=np.eye(1, dtype=complex)
    )


def identity_tabulated(dim, lo, hi, bins=4):
    vals = np.broadcast_to(np.eye(dim, dtype=complex), (bins, dim, dim)).copy()
    return Tabulated(nu_min=lo, nu_max=hi, values=vals)


class TestEvalCharacteristic:
    def test_shift_is_unimodular_diagonal(self):
        psi = eval_characteristic(Shift(dim=2, s=0.7), 0.4)
        want = np.exp(2j * np.pi * 0.7 * 0.4) * np.eye(2)
        assert np.allclose(psi, want, atol=1e-15)
        assert np.allclose(np.abs(np.diag(psi)), 1.0, atol=1e-15)

    def test_derivative_zero_at_dc(self):
        assert np.array_equal(eval_characteristic(Derivative(dim=3), 0.0), np.zeros((3, 3)))

    def test_derivative_scaling(self):
        psi = eval_characteristic(Derivative(dim=1), 0.25)
        assert psi[0, 0] == pytest.approx(2j * np.pi * 0.25)

    def test_scalar_convolution_uses_callable(self):
        filt = ScalarConvolution(dim=2, hhat=lambda nu: 1.0 / (1.0 + nu * nu))
        psi = eval_characteristic(filt, 3.0)
        assert np.allclose(psi, np.eye(2) / 10.0, atol=1e-15)

    def test_exp_operator_matches_fourier_quadrature(self):
        # the transform of exp(-t) for t >= 0 under the exp(+2 pi i t nu) kernel
        filt = scalar_exp_filter(1.0)
        for nu in (0.0, 0.3, -1.7):
            psi = eval_characteristic(filt, nu)[0, 0]
            assert psi == pytest.approx(1.0 / (1.0 - 2j * np.pi * nu), abs=1e-14)
            if nu == 0.0:
                re, _ = scipy.integrate.quad(lambda t: np.exp(-t), 0, np.inf)
                im = 0.0
            else:
                re, _ = scipy.integrate.quad(
                    lambda t: np.exp(-t), 0, np.inf, weight="cos", wvar=2 * np.pi * nu
                )
                im, _ = scipy.integrate.quad(
                    lambda t: np.exp(-t), 0, np.inf, weight="sin", wvar=2 * np.pi * nu
                )
            assert psi == pytest.approx(re + 1j * im, abs=1e-11)

    def test_exp_operator_matrix_resolvent(self):
        rng = rng_for(31)
        g = random_psd(rng, 2) + 0.5 * np.eye(2)
        a = random_complex_matrix(rng, 2)
        psi = eval_characteristic(ExpOperator(gamma=g, a=a), 0.8)
        assert frob((g - 2j * np.pi * 0.8 * np.eye(2)) @ psi - a) < 1e-12

    def test_tabulated_lookup_and_edges(self):
        vals = np.stack([1.0 * np.eye(1), 2.0 * np.eye(1)]).astype(complex)
        filt = Tabulated(nu_min=0.0, nu_max=1.0, values=vals)
        assert eval_characteristic(filt, 0.1)[0, 0] == 1.0
        assert eval_characteristic(filt, 0.6)[0, 0] == 2.0
        assert eval_characteristic(filt, 1.0)[0, 0] == 2.0  # closed right edge
        with pytest.raises(FilterDomainError):
            eval_characteristic(filt, 1.5)

    def test_composition_order_first_on_left(self):
        rng = rng_for(32)
        g1 = random_psd(rng, 2) + np.eye(2)
        g2 = random_psd(rng, 2) + np.eye(2)
        a1 = random_complex_matrix(rng, 2)
        a2 = random_complex_matrix(rng, 2)
        f1 = ExpOperator(gamma=g1, a=a1)
        f2 = ExpOperator(gamma=g2, a=a2)
        nu = 0.45
        got = eval_characteristic(Composition(first=f1, second=f2), nu)
        want = eval_characteristic(f1, nu) @ eval_characteristic(f2, nu)
        assert np.array_equal(got, want)


class TestFilterValidation:
    def test_exp_operator_needs_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            ExpOperator(gamma=np.diag([1.0, 0.0]), a=np.eye(2))

    @pytest.mark.parametrize(
        "gamma",
        [
            np.full((3, 3), 1.7e308),
            [[1.0, 1.7e308 * (1 + 1j)], [1.7e308 * (1 - 1j), 1.0]],
            1.7e308 * np.eye(2),  # positive definite
        ],
    )
    def test_exp_operator_refuses_an_overflowing_hermitian_part(self, gamma):
        # gamma + gamma^H holds inf, so no factor of it decides definiteness
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QwssError, match=r"^gamma \+ gamma\^H overflows$"):
                ExpOperator(gamma=gamma, a=np.eye(len(gamma), dtype=complex))

    def test_exp_operator_accepts_a_huge_gamma_whose_hermitian_part_is_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ExpOperator(gamma=8.9e307 * np.eye(2), a=np.eye(2)).dim == 2

    def test_exp_operator_needs_hermitian(self):
        with pytest.raises(NotPositiveDefiniteError):
            ExpOperator(gamma=np.array([[1.0, 1.0], [0.0, 1.0]]), a=np.eye(2))

    @pytest.mark.parametrize(
        "gamma, a, name",
        [([[np.nan]], [[1.0]], "gamma"), ([[np.inf]], [[1.0]], "gamma"),
         ([[1.0]], [[np.nan]], "a"), ([[1.0, np.nan], [np.nan, 1.0]], np.eye(2), "gamma")],
    )
    def test_exp_operator_rejects_non_finite_entries(self, gamma, a, name):
        with pytest.raises(ValueError, match=f"^{name} holds a non-finite entry$"):
            ExpOperator(gamma=gamma, a=a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_tabulated_rejects_non_finite_values(self, bad):
        vals = np.ones((2, 2, 2), dtype=complex)
        vals[1, 0, 1] = complex(0.0, bad)
        with pytest.raises(ValueError, match="^tabulated values hold a non-finite entry$"):
            Tabulated(nu_min=-1.0, nu_max=1.0, values=vals)
        with pytest.raises(ValueError, match="non-finite"):
            Tabulated(-1, 1, [[[bad]]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_shift_rejects_non_finite_s(self, bad):
        with pytest.raises(ValueError, match="^shift s must be finite"):
            Shift(dim=1, s=bad)

    def test_shift_compose_overflow_is_refused(self):
        with pytest.raises(ValueError, match="^shift s must be finite"):
            compose(Shift(dim=1, s=1e308), Shift(dim=1, s=1e308))

    def test_tabulated_needs_increasing_band(self):
        with pytest.raises(ValueError):
            Tabulated(nu_min=1.0, nu_max=0.0, values=np.ones((1, 1, 1), dtype=complex))

    def test_tabulated_never_equals_density_grid_on_same_cells(self):
        # both are uniform grids; equality also needs the same type
        vals = np.ones((2, 1, 1), dtype=complex)
        tab = Tabulated(nu_min=0.0, nu_max=1.0, values=vals)
        den = DensityGrid(nu_min=0.0, nu_max=1.0, values=vals)
        assert tab == Tabulated(nu_min=0.0, nu_max=1.0, values=vals)
        assert tab != den and den != tab

    def test_composition_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Composition(first=Shift(dim=1, s=1.0), second=Shift(dim=2, s=1.0))


def psi_form(filt, nus, weights):
    """``psi^H W psi``, hermitized, as one stack."""
    psi = filt._psi(nus)
    return hermitize(psi.conj().swapaxes(-1, -2) @ weights @ psi)


def eigen_form(filt, nus, weights):
    """``ExpOperator``'s ``psi^H W psi`` as one stack: with ``gamma = U diag(w)
    U^H``, ``P = U^H a`` and ``D = 1 / (w - 2 pi i nu)``, ``P^H [(U^H W U) o
    conj(D) D^T] P``, each product by a constant matrix a GEMM on the
    ``(n d, d)`` reshape of the stack (a left product transposed).

    The GEMMs take 48 matrices at a time. A GEMM that BLAS splits across
    threads gets a row tile at each split, and OpenBLAS's Haswell kernels
    round such a tile differently at d >= 4. GEMMs of 48 matrices are too
    small to be split at this test's sizes, and their rows are whole tiles
    of every kernel."""
    w, u = np.linalg.eigh(hermitize(filt.gamma))
    p = u.conj().T @ filt.a
    d = len(w)

    def times(x, c):
        x = np.ascontiguousarray(x)
        parts = [x[lo : lo + 48].reshape(-1, d) @ c for lo in range(0, len(x), 48)]
        return np.concatenate(parts).reshape(x.shape)

    r = 1.0 / (w - 2j * np.pi * nus[:, None])
    mt = times(times(weights, u).swapaxes(-1, -2), u.conj())
    mt *= r[:, :, None] * r.conj()[:, None, :]
    return hermitize(times(times(mt, p.conj()).swapaxes(-1, -2), p))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 10**6),
    st.integers(1, 5),
    st.integers(0, 4),
    st.integers(1, 2),
    st.integers(-2, 2),
)
def test_exp_congruence_matches_the_psi_product(seed, dim, atoms, blocks, edge):
    # one or two stacks of about 4096 // dim bins, so the blocks' edges fall
    # anywhere among the bins
    rng = rng_for(seed)
    bins = blocks * (4096 // dim) + edge
    filt = ExpOperator(gamma=random_hpd(rng, dim), a=random_complex_matrix(rng, dim))
    nus = rng.uniform(-3.0, 3.0, atoms + bins)
    weights = np.stack([random_psd(rng, dim) for _ in range(atoms + bins)])
    want = psi_form(filt, nus, weights)
    got = filt._congruence(nus, weights)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestApplyFilter:
    def test_identity_tabulated_keeps_measure(self):
        rng = rng_for(33)
        mu = OperatorSpectralMeasure(
            dim=2,
            atoms=((0.2, random_psd(rng, 2)),),
            density=DensityGrid(-1.0, 1.0, np.stack([random_psd(rng, 2)] * 4)),
        )
        out = apply_filter(mu, identity_tabulated(2, -1.0, 1.0))
        assert rel_frob(out.atoms[0][1], mu.atoms[0][1]) < 1e-13
        assert rel_frob(out.density.values, mu.density.values) < 1e-13

    def test_shift_invariance_is_exact(self):
        rng = rng_for(34)
        mu = OperatorSpectralMeasure(
            dim=2,
            atoms=((0.2, random_psd(rng, 2)), (0.9, random_psd(rng, 2))),
            density=DensityGrid(-2.0, 2.0, np.stack([random_psd(rng, 2)] * 3)),
        )
        out = apply_filter(mu, Shift(dim=2, s=3.7))
        assert out == mu

    def test_derivative_scales_atom(self):
        b = np.array([[2.0, 1.0j], [-1.0j, 1.0]])
        mu = OperatorSpectralMeasure(dim=2, atoms=((0.3, b),))
        out = apply_filter(mu, Derivative(dim=2))
        want = (2 * np.pi * 0.3) ** 2 * b
        assert frob(out.atoms[0][1] - want) < 1e-12

    def test_lorentzian_from_commuting_pair(self):
        # [Gamma, S] = 0: density becomes A^H S (Gamma^2 + 4 pi^2 nu^2)^{-1} A
        g = np.diag([1.0, 2.0]).astype(complex)
        s = np.diag([2.0, 3.0]).astype(complex)
        a = random_complex_matrix(rng_for(35), 2)
        noise = white_noise(s, band=4.0, bins=16)
        out = apply_filter(noise, ExpOperator(gamma=g, a=a))
        for x, v in zip(out.density.midpoints(), out.density.values):
            lor = s @ np.linalg.inv(g @ g + (2 * np.pi * x) ** 2 * np.eye(2))
            want = a.conj().T @ lor @ a
            assert frob(v - want) < 1e-12

    def test_atom_congruence(self):
        rng = rng_for(36)
        b = random_psd(rng, 2)
        g = random_psd(rng, 2) + np.eye(2)
        a = random_complex_matrix(rng, 2)
        filt = ExpOperator(gamma=g, a=a)
        mu = OperatorSpectralMeasure(dim=2, atoms=((0.4, b),))
        out = apply_filter(mu, filt)
        psi = eval_characteristic(filt, 0.4)
        assert frob(out.atoms[0][1] - psi.conj().T @ b @ psi) < 1e-13

    def test_output_stays_psd(self):
        rng = rng_for(37)
        mu = OperatorSpectralMeasure(
            dim=3,
            atoms=((0.1, random_psd(rng, 3)),),
            density=DensityGrid(-1.0, 1.0, np.stack([random_psd(rng, 3)] * 5)),
        )
        out = apply_filter(mu, ExpOperator(gamma=random_psd(rng, 3) + np.eye(3),
                                           a=random_complex_matrix(rng, 3)))
        assert all(is_psd(w, tol=1e-12) for _, w in out.atoms)
        assert all(is_psd(v, tol=1e-12) for v in out.density.values)

    def test_tabulated_rejects_measure_outside_its_grid(self):
        filt = Tabulated(nu_min=-1.0, nu_max=1.0, values=np.ones((4, 1, 1), dtype=complex))
        inside = white_noise(np.eye(1), band=1.0, bins=8)
        assert apply_filter(inside, filt) == inside
        wide = white_noise(np.eye(1), band=2.0, bins=8)
        # bin midpoints -1.75 .. 1.75: the first one already lies outside
        with pytest.raises(FilterDomainError, match=r"nu=-1.75 outside tabulated grid"):
            apply_filter(wide, filt)
        atom = OperatorSpectralMeasure(dim=1, atoms=((1.5, np.eye(1)),))
        with pytest.raises(FilterDomainError, match=r"nu=1.5 outside"):
            apply_filter(atom, filt)

    @pytest.mark.parametrize(
        "filt",
        [
            ScalarConvolution(dim=2, hhat=lambda nu: 1.0),
            identity_tabulated(2, -1.0, 1.0),
        ],
        ids=["scalar_convolution", "tabulated"],
    )
    def test_identity_keeps_measure_at_library_tolerance(self, filt):
        # eigenvalue -5e-10 is inside TOL_PSD = 1e-9, so the constructors
        # accept this measure and its identity image must pass too
        w = np.diag([1.0, -5e-10]).astype(complex)
        mu = OperatorSpectralMeasure(
            dim=2,
            atoms=((0.3, w),),
            density=DensityGrid(-1.0, 1.0, np.stack([w, np.eye(2)])),
        )
        assert apply_filter(mu, filt) == mu

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_output_is_not_psd(self, value):
        atoms = ((0.3, np.eye(1)),)
        # a transfer function's NaN or inf is the filter's fault, named where
        # it is evaluated
        conv = ScalarConvolution(dim=1, hhat=lambda nu: value)
        with pytest.raises(FilterDomainError, match=r"^ScalarConvolution hhat\(-0\.5\) = "):
            apply_filter(white_noise(np.eye(1), band=1.0, bins=2), conv)
        with pytest.raises(FilterDomainError, match=r"^ScalarConvolution hhat\(0\.3\) = "):
            apply_filter(OperatorSpectralMeasure(dim=1, atoms=atoms), conv)
        # a finite characteristic whose congruence overflows is blamed on the
        # part of the output that holds the inf
        filt = Tabulated(-1.0, 1.0, [[[1e200]]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                NotPositiveSemidefiniteError, match=r"^density bin 0 holds a non-finite"
            ):
                apply_filter(white_noise(np.eye(1), band=1.0, bins=2), filt)
            with pytest.raises(
                NotPositiveSemidefiniteError, match=r"^atom 0 weight holds a non-finite"
            ):
                apply_filter(OperatorSpectralMeasure(dim=1, atoms=atoms), filt)

    def test_one_psd_check_per_part(self, monkeypatch):
        rng = rng_for(38)
        mu = OperatorSpectralMeasure(
            dim=2,
            atoms=((0.1, random_psd(rng, 2)), (0.6, random_psd(rng, 2))),
            density=DensityGrid(-1.0, 1.0, np.stack([random_psd(rng, 2)] * 5)),
        )
        filt = ExpOperator(gamma=random_hpd(rng, 2), a=random_complex_matrix(rng, 2))
        shapes = count_psd_checks(monkeypatch)
        apply_filter(mu, filt)
        assert sorted(shapes) == [(2, 2, 2), (5, 2, 2)]  # atoms, density bins

    def test_marker_is_rejected(self):
        marker = white_noise(np.eye(1), band=math.inf)
        with pytest.raises(FilterDomainError):
            apply_filter(marker, scalar_exp_filter())

    def test_dim_mismatch(self):
        mu = OperatorSpectralMeasure(dim=2)
        with pytest.raises(DimensionMismatchError):
            apply_filter(mu, Derivative(dim=3))

    @pytest.mark.parametrize("dim", [1, 2, 4])
    @pytest.mark.parametrize("variant", ["exp", "scalar", "derivative", "chain"])
    def test_blocks_equal_one_stack_bit_for_bit(self, dim, variant):
        # about 4096 / dim bins to a block: 3 atoms and 5000 bins make 2 blocks
        # at dim 1, 3 at dim 2 and 5 at dim 4. ExpOperator takes its eigen
        # form, the other variants the psi product
        rng = rng_for(39 + dim)
        mu = OperatorSpectralMeasure(
            dim=dim,
            atoms=[(nu, random_psd(rng, dim)) for nu in (-0.7, 0.1, 0.45)],
            density=DensityGrid(-1.0, 1.0, np.stack([random_psd(rng, dim) for _ in range(5000)])),
        )
        exp = ExpOperator(gamma=random_hpd(rng, dim), a=random_complex_matrix(rng, dim))
        table = Tabulated(-1.0, 1.0, np.stack([random_complex_matrix(rng, dim) for _ in range(7)]))
        filt = {
            "exp": exp,
            "scalar": ScalarConvolution(dim, lambda nu: 1.0 / (1.0 + 2j * nu)),
            "derivative": Derivative(dim),
            "chain": Composition(Composition(exp, table), Derivative(dim)),
        }[variant]
        one_stack = eigen_form if variant == "exp" else psi_form
        want = np.concatenate(
            [one_stack(filt, mu.nus, mu.weights), one_stack(filt, mu.density.midpoints(), mu.density.values)]
        )
        got = apply_filter(mu, filt)
        assert got.weights.tobytes() == want[:3].tobytes()
        assert got.density.values.tobytes() == want[3:].tobytes()


class TestInDomain:
    def test_compact_support_always_qualifies(self):
        mu = white_noise(np.eye(2), band=3.0, bins=8)
        assert in_domain(mu, Derivative(dim=2))
        assert in_domain(mu, Shift(dim=2, s=1.0))

    def test_unbounded_noise_by_variant(self):
        marker = white_noise(np.eye(2), band=math.inf)
        assert in_domain(marker, ExpOperator(gamma=np.eye(2), a=np.eye(2)))
        assert not in_domain(marker, Derivative(dim=2))
        assert not in_domain(marker, Shift(dim=2, s=1.0))
        assert not in_domain(
            marker, ScalarConvolution(dim=2, hhat=lambda nu: 1.0)
        )

    def test_composition_with_square_integrable_factor(self):
        marker = white_noise(np.eye(2), band=math.inf)
        exp_part = ExpOperator(gamma=np.eye(2), a=np.eye(2))
        shifted = Composition(first=Shift(dim=2, s=1.0), second=exp_part)
        assert in_domain(marker, shifted)
        deriv = Composition(first=Derivative(dim=2), second=exp_part)
        assert not in_domain(marker, deriv)

    def test_tabulated_must_cover_support(self):
        mu = white_noise(np.eye(1), band=2.0)
        assert in_domain(mu, identity_tabulated(1, -2.0, 2.0))
        assert not in_domain(mu, identity_tabulated(1, -1.0, 1.0))


class TestCompose:
    def test_shift_pair_collapses(self):
        out = compose(Shift(dim=2, s=0.4), Shift(dim=2, s=1.1))
        assert isinstance(out, Shift)
        assert out.s == pytest.approx(1.5)

    def test_scalar_filters_commute_pointwise(self):
        d, sh = Derivative(dim=2), Shift(dim=2, s=0.6)
        for nu in (-1.2, 0.0, 0.8):
            a = eval_characteristic(compose(d, sh), nu)
            b = eval_characteristic(compose(sh, d), nu)
            assert frob(a - b) < 1e-12

    def test_tabulated_same_grid_multiplies(self):
        rng = rng_for(38)
        v1 = np.stack([random_complex_matrix(rng, 2) for _ in range(3)])
        v2 = np.stack([random_complex_matrix(rng, 2) for _ in range(3)])
        t1 = Tabulated(nu_min=-1.0, nu_max=1.0, values=v1)
        t2 = Tabulated(nu_min=-1.0, nu_max=1.0, values=v2)
        out = compose(t1, t2)
        assert isinstance(out, Tabulated)
        assert frob(out.values - np.einsum("bij,bjk->bik", v1, v2)) < 1e-14

    def test_two_step_equals_composed(self):
        rng = rng_for(39)
        mu = OperatorSpectralMeasure(
            dim=2,
            atoms=((0.15, random_psd(rng, 2)),),
            density=DensityGrid(-1.0, 1.0, np.stack([random_psd(rng, 2)] * 4)),
        )
        f1 = ExpOperator(gamma=random_psd(rng, 2) + np.eye(2),
                         a=random_complex_matrix(rng, 2))
        f2 = ExpOperator(gamma=random_psd(rng, 2) + 2 * np.eye(2),
                         a=random_complex_matrix(rng, 2))
        once = apply_filter(mu, compose(f1, f2))
        twice = apply_filter(apply_filter(mu, f1), f2)
        assert rel_frob(once.atoms[0][1], twice.atoms[0][1]) < 1e-12
        assert rel_frob(once.density.values, twice.density.values) < 1e-12

    def test_associative_on_tabulated(self):
        rng = rng_for(40)
        tabs = [
            Tabulated(
                nu_min=-1.0,
                nu_max=1.0,
                values=np.stack([random_complex_matrix(rng, 2) for _ in range(4)]),
            )
            for _ in range(3)
        ]
        left = compose(compose(tabs[0], tabs[1]), tabs[2])
        right = compose(tabs[0], compose(tabs[1], tabs[2]))
        for nu in (-0.9, -0.1, 0.3, 1.0):
            assert frob(
                eval_characteristic(left, nu) - eval_characteristic(right, nu)
            ) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(Shift(dim=1, s=0.0), Derivative(dim=2))

    def test_deep_chain_builds_with_its_dim(self):
        # each node stores its dim once, so building a chain never recurses
        filt = Derivative(dim=2)
        for _ in range(5000):
            filt = Composition(first=filt, second=Derivative(dim=2))
        assert filt.dim == 2 and not filt.bounded and not filt.decays


class TestWhiteNoise:
    def test_total_mass_flat_band(self):
        assert np.allclose(total_mass(white_noise(np.eye(2), band=1.0)), 2 * np.eye(2))

    def test_zero_intensity(self):
        mu = white_noise(np.zeros((2, 2)), band=1.0, bins=4)
        assert frob(total_mass(mu)) == 0.0

    def test_infinite_band_marker(self):
        marker = white_noise(np.eye(2), band=math.inf)
        assert isinstance(marker, UnboundedWhiteNoise)
        assert marker.dim == 2

    def test_bins_only_refine(self):
        a = covariance_from_spectrum(white_noise(np.eye(1), 2.0, bins=1), 0.1, 5)
        b = covariance_from_spectrum(white_noise(np.eye(1), 2.0, bins=32), 0.1, 5)
        assert frob(a.values - b.values) < 1e-13


class TestOuCovariance:
    def test_scalar_closed_form(self):
        for tau in (0.0, 0.5, -1.2):
            got = ou_covariance(np.array([[2.0]]), np.array([[3.0]]), np.eye(1), tau)
            want = 3.0 / 4.0 * np.exp(-2.0 * abs(tau))
            assert got[0, 0] == pytest.approx(want, abs=1e-14)

    def test_gamma_multiple_of_identity(self):
        rng = rng_for(41)
        s = random_psd(rng, 2)
        a = random_complex_matrix(rng, 2)
        got = ou_covariance(2.0 * np.eye(2), s, a, 0.0)
        assert frob(got - a.conj().T @ (s / 4.0) @ a) < 1e-12

    def test_noncommuting_frozen_example(self):
        g = np.diag([1.0, 2.0])
        s = np.ones((2, 2))
        got = ou_covariance(g, s, np.eye(2), 0.0)
        assert np.allclose(got, [[1 / 2, 1 / 3], [1 / 3, 1 / 4]], atol=1e-13)

    def test_quadrature_oracle_noncommuting(self):
        # C(tau) = integral_0^inf A^H exp(-G (u+tau)) S exp(-G u) A du
        g = np.array([[1.5, 0.4], [0.4, 1.0]])
        s = np.array([[1.0, 0.3j], [-0.3j, 2.0]])
        a = np.array([[0.9, 0.1], [-0.2, 1.1]])
        for tau in (0.0, 0.4, 1.3):
            want = np.empty((2, 2), dtype=complex)
            for i in range(2):
                for j in range(2):
                    def entry(u, i=i, j=j):
                        lag = scipy.linalg.expm(-g * (u + tau))
                        trail = scipy.linalg.expm(-g * u)
                        return (a.conj().T @ lag @ s @ trail @ a)[i, j]

                    re, _ = scipy.integrate.quad(lambda u: entry(u).real, 0, np.inf)
                    im, _ = scipy.integrate.quad(lambda u: entry(u).imag, 0, np.inf)
                    want[i, j] = re + 1j * im
            got = ou_covariance(g, s, a, tau)
            assert frob(got - want) < 1e-8

    @pytest.mark.parametrize("dim, lags", [(1, 500), (1, 4096), (3, 500)])
    def test_array_of_lags_is_bit_identical_to_scalar_calls(self, dim, lags):
        rng = rng_for(43 + dim)
        g = random_psd(rng, dim) + np.eye(dim)
        s = random_psd(rng, dim)
        a = random_complex_matrix(rng, dim)
        taus = np.arange(-lags, lags + 1) * 0.013
        got = ou_covariance(g, s, a, taus)
        assert got.shape == (len(taus), dim, dim)
        want = np.stack([ou_covariance(g, s, a, float(t)) for t in taus])
        assert np.array_equal(got, want)
        assert ou_covariance(g, s, a, 0.4).shape == (dim, dim)
        grid = ou_covariance(g, s, a, taus[1:].reshape(-1, 2))
        assert np.array_equal(grid.reshape(want[1:].shape), want[1:])

    def test_adjoint_symmetry_and_psd_at_zero(self):
        rng = rng_for(42)
        g = random_psd(rng, 2) + np.eye(2)
        s = random_psd(rng, 2)
        a = random_complex_matrix(rng, 2)
        c_plus = ou_covariance(g, s, a, 0.7)
        c_minus = ou_covariance(g, s, a, -0.7)
        assert np.array_equal(c_minus, c_plus.conj().T)
        assert is_psd(ou_covariance(g, s, a, 0.0))

    def test_band_truncation_converges_at_zero_lag(self):
        # C(0) of band-limited filtered noise approaches A^H M A as W grows,
        # including a non-commuting pair
        g = np.array([[1.0, 0.3], [0.3, 2.0]])
        s = np.array([[1.0, 0.5], [0.5, 1.5]])
        a = np.array([[1.0, 0.2], [0.0, 1.0]])
        target = a.conj().T @ solve_lyapunov(g, s) @ a
        errs = []
        for band in (5.0, 20.0, 80.0):
            mu = apply_filter(
                white_noise(s, band=band, bins=4096), ExpOperator(gamma=g, a=a)
            )
            errs.append(rel_frob(total_mass(mu), target))
        # Lorentzian tails shed mass like 1/W: each 4x band cut shrinks the
        # truncation error about 4x
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 3e-3

    def test_spectral_route_matches_time_route_commuting(self):
        # table-level agreement at W = 50 * ||Gamma|| for a commuting pair
        g = np.diag([1.0, 2.0]).astype(complex)
        s = np.diag([2.0, 1.0]).astype(complex)
        a = np.array([[1.0, 0.5], [-0.3, 1.0]], dtype=complex)
        band = 50.0 * float(np.linalg.norm(g, 2))
        dt, lags = 0.05, 100  # lags reach tau = 5 = 5 / min eigenvalue
        mu = apply_filter(
            white_noise(s, band=band, bins=16384), ExpOperator(gamma=g, a=a)
        )
        table = covariance_from_spectrum(mu, dt=dt, lags=lags)
        theory = np.stack(
            [ou_covariance(g, s, a, m * dt) for m in range(lags + 1)]
        )
        assert rel_frob(table.values, theory) < 1e-3

    def test_spectral_route_matches_time_route_noncommuting(self):
        # the Bochner transform of filtered white noise is the closed form
        # a^H exp(-gamma tau) M a; its adjoint a^H M exp(-gamma tau) a misses
        # by 3.5e-2 at tau = 0.3 on this pair
        g = np.array([[1.5, 0.4], [0.4, 1.0]])
        s = np.array([[1.0, 0.3j], [-0.3j, 2.0]])
        assert frob(g @ s - s @ g) > 0.1
        mu = apply_filter(
            white_noise(s, band=200.0, bins=32768), ExpOperator(gamma=g, a=np.eye(2))
        )
        # tau = 0 is left out: there the band cut alone sheds 5e-4 of mass
        table = covariance_from_spectrum(mu, dt=0.3, lags=3)
        theory = ou_covariance(g, s, np.eye(2), 0.3 * np.arange(1, 4))
        assert np.abs(table.values[1:] - theory).max() < 2e-4

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_expm_reference_noncommuting(self, d):
        # the decay exp(-gamma |tau|) comes from an eigendecomposition;
        # scipy's scaling-and-squaring expm is the reference
        rng = rng_for(50 + d)
        g = random_hpd(rng, d)
        s = random_psd(rng, d)
        a = random_complex_matrix(rng, d)
        assert frob(g @ s - s @ g) > 0.1 * frob(g) * frob(s)
        m = solve_lyapunov(g, s)
        for tau in (0.0, 0.3, -1.1, 4.0):
            c = a.conj().T @ scipy.linalg.expm(-g * abs(tau)) @ m @ a
            want = c if tau >= 0 else c.conj().T
            assert frob(ou_covariance(g, s, a, tau) - want) < 1e-12 * frob(want)

    def test_does_not_import_scipy(self):
        src = str(Path(qwss.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, qwss; "
            "qwss.ou_covariance([[1.5, 0.4], [0.4, 1.0]], [[1.0, 0.3j], [-0.3j, 2.0]], "
            "[[0.9, 0.1], [-0.2, 1.1]], 0.7); "
            "print('scipy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_rejects_indefinite_gamma(self):
        with pytest.raises(NotPositiveDefiniteError):
            ou_covariance(np.diag([1.0, -0.5]), np.eye(2), np.eye(2), 0.0)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10**6), st.floats(-3.0, 3.0))
def test_shift_compose_accumulates(seed, s2):
    rng = rng_for(seed)
    s1 = float(rng.uniform(-3, 3))
    out = compose(Shift(dim=1, s=s1), Shift(dim=1, s=s2))
    nu = float(rng.uniform(-2, 2))
    got = eval_characteristic(out, nu)[0, 0]
    assert got == pytest.approx(np.exp(2j * np.pi * (s1 + s2) * nu), abs=1e-12)
