"""Hermitian/PSD utilities, resolvent, and the Lyapunov solver."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    frob,
    random_complex_matrix,
    random_hermitian,
    random_hpd,
    random_psd,
    rng_for,
)
import qwss
from qwss import linalg
from qwss.errors import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
)
from qwss.linalg import (
    hermitian_defect,
    hermitize,
    is_psd,
    nearest_psd,
    psd_sqrt,
    resolvent,
    solve_lyapunov,
    validate_psd,
)

INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1


class TestHermitian:
    def test_defect_zero_on_hermitian(self):
        m = random_hermitian(rng_for(0), 3)
        assert hermitian_defect(m) == 0.0

    def test_hermitize_projects(self):
        a = rng_for(1).standard_normal((3, 3)) + 1j * rng_for(2).standard_normal((3, 3))
        h = hermitize(a)
        assert hermitian_defect(h) < 1e-15
        # projection onto Hermitians is idempotent
        assert np.array_equal(hermitize(h), h)


class TestPsd:
    def test_is_psd_accepts_gram(self):
        assert is_psd(random_psd(rng_for(3), 4))

    def test_is_psd_rejects_indefinite(self):
        assert not is_psd(INDEFINITE)

    def test_validate_psd_witness_names_eigenvalue(self):
        with pytest.raises(NotPositiveSemidefiniteError) as exc:
            validate_psd(INDEFINITE, name="weight")
        assert exc.value.witness == pytest.approx(-1.0, abs=1e-12)
        assert "weight" in str(exc.value)
        assert "-1" in str(exc.value)

    def test_validate_psd_scales_with_matrix(self):
        # -1e-12 relative to a huge matrix is still PSD at default tolerance
        big = 1e12 * np.eye(2) + np.diag([0.0, -1e-3])
        assert is_psd(big)

    def test_nearest_psd_frozen_example(self):
        # eigenpairs of [[1,2],[2,1]]: 3 at (1,1)/sqrt2, -1 at (1,-1)/sqrt2;
        # clipping the negative one leaves 1.5 * ones
        got = nearest_psd(INDEFINITE)
        assert np.allclose(got, [[1.5, 1.5], [1.5, 1.5]], atol=1e-12)

    def test_nearest_psd_fixes_nothing_on_psd(self):
        m = random_psd(rng_for(4), 3)
        assert np.allclose(nearest_psd(m), m, atol=1e-12)

    def test_psd_sqrt_squares_back(self):
        m = random_psd(rng_for(5), 4)
        r = psd_sqrt(m)
        assert is_psd(r)
        assert frob(r @ r - m) < 1e-10 * frob(m)

    def test_psd_sqrt_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            psd_sqrt(INDEFINITE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_slice_fails_like_an_indefinite_one(self, bad):
        # every comparison with NaN is False, so a NaN or inf entry would
        # otherwise slip through both the Hermitian and eigenvalue tests
        x = np.stack([np.eye(2)] * 3).astype(complex)
        x[1, 0, 0] = bad
        x[2] = INDEFINITE
        with np.errstate(invalid="ignore"):
            with pytest.raises(
                NotPositiveSemidefiniteError, match=r"^bin 1 holds a non-finite entry"
            ) as exc:
                validate_psd(x, name="bin")
            assert exc.value.index == (1,)
            with pytest.raises(NotPositiveSemidefiniteError, match="non-finite") as exc:
                validate_psd(x[1])
            assert exc.value.index is None
            with pytest.raises(NotPositiveSemidefiniteError, match="non-finite") as exc:
                psd_sqrt(x)
            assert exc.value.index == (1,)

    def test_an_overflowing_modulus_keeps_the_tolerance_finite(self):
        # |z| overflows though z's parts are finite; an inf scale made every
        # tolerance inf and passed eigenvalues of both signs
        z = 1.7e308 * (1 + 1j)
        m = np.array([[0.0, z], [np.conj(z), 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert float(linalg._scale(m)) == np.finfo(float).max
            with pytest.raises(NotPositiveSemidefiniteError, match="^matrix is not PSD"):
                validate_psd(m)
            assert is_psd(m) is False

    @pytest.mark.parametrize("shape", [(1, 1), (5, 1, 1), (3, 2, 2)])
    def test_validation_leaves_the_callers_array_alone(self, shape):
        # at d = 1 the swapped view of a contiguous stack is contiguous too
        x = np.ones(shape) + 1j * np.arange(1, 1 + np.prod(shape)).reshape(shape)
        before = x.copy()
        with pytest.raises(NotPositiveSemidefiniteError, match="not Hermitian"):
            validate_psd(x)
        assert _same_bits(x, before)
        psd = np.ones(shape, dtype=complex)
        assert validate_psd(psd) is psd and _same_bits(psd, np.ones(shape, dtype=complex))


def is_psd_eigen(m, tol=linalg.TOL_PSD, herm_tol=None):
    """``is_psd`` as its own eigenvalue route, the code that the boolean form
    of ``validate_psd`` replaced (it passed matrices holding inf)."""
    a = linalg.as_complex_matrix(m)
    s = float(linalg._scale(a))
    if hermitian_defect(a) > (tol if herm_tol is None else herm_tol) * s:
        return False
    w = np.linalg.eigvalsh(hermitize(a))
    return bool(w.min(initial=0.0) >= -tol * s)


def near_boundary(rng, d, tol):
    """A Hermitian matrix whose lowest eigenvalue is within 10% of ``-tol*s``,
    sometimes with a Hermitian defect near ``tol*s``."""
    q, _ = np.linalg.qr(random_complex_matrix(rng, d))
    w = rng.uniform(0.0, 3.0, d)
    w[0] = 0.0
    s = max(1.0, float(np.abs((q * w) @ q.conj().T).max()))
    w[0] = -tol * s * rng.uniform(0.9, 1.1)
    m = (q * w) @ q.conj().T
    if rng.random() < 0.3:
        m[0, -1] += tol * s * rng.uniform(0.0, 2.0)
    return m


class TestIsPsdIsValidatePsd:
    @pytest.mark.parametrize(
        "m", [[[np.inf]], [[np.nan]], [[1.0, np.nan], [np.nan, 1.0]]]
    )
    def test_non_finite_is_not_psd(self, m):
        with np.errstate(invalid="ignore"):
            assert is_psd(m) is False
            assert is_psd(m, tol=1e-3, herm_tol=1e-3) is False

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-13])
    def test_agrees_with_eigenvalue_route_near_boundary(self, tol):
        rng = rng_for(int(-np.log10(tol)))
        verdicts = []
        for k in range(600):
            m = near_boundary(rng, 1 + k % 6, tol)
            verdicts.append(is_psd(m, tol=tol))
            assert verdicts[-1] is is_psd_eigen(m, tol=tol), k
        assert 100 < sum(verdicts) < 500  # both sides of the boundary are seen

    def test_agrees_with_separate_hermitian_tolerance(self):
        rng = rng_for(11)
        for k in range(300):
            m = near_boundary(rng, 1 + k % 6, 1e-9)
            for herm_tol in (1e-12, 1e-6):
                assert is_psd(m, 1e-9, herm_tol) is is_psd_eigen(m, 1e-9, herm_tol), k


class TestMatrixExp:
    def test_importing_qwss_does_not_import_scipy(self):
        # the runtime needs numpy alone: scipy is a test dependency, used
        # only as an independent reference. Names load on first use, so the
        # child uses one and imports the CLI, which loads every module
        src = str(Path(qwss.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, qwss; qwss.DensityGrid; import qwss.cli; "
            "print('qwss.filters' in sys.modules, 'scipy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False"]


class TestResolvent:
    def test_residual(self):
        g = random_hpd(rng_for(7), 3)
        for nu in (0.0, 0.37, -2.5):
            r = resolvent(g, nu)
            residual = (g - 2j * np.pi * nu * np.eye(3)) @ r - np.eye(3)
            assert frob(residual) < 1e-12

    def test_scalar_value(self):
        r = resolvent(np.array([[1.0]]), 0.25)
        assert r[0, 0] == pytest.approx(1.0 / (1.0 - 0.5j * np.pi))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotPositiveDefiniteError):
            resolvent(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)

    def test_singular_at_zero(self):
        with pytest.raises(NotPositiveDefiniteError):
            resolvent(np.zeros((1, 1)), 0.0)

    @pytest.mark.parametrize("nu", [np.nan, np.inf, -np.inf, 1e308, [0.1, -1e308]])
    def test_rejects_nu_whose_angular_frequency_is_not_finite(self, nu):
        with pytest.raises(qwss.QwssError, match=r"^nu must be a frequency with 2\*pi\*nu fin") as exc:
            resolvent(np.eye(2), nu)
        assert exc.value.location == "nu"


class TestLyapunov:
    def test_diagonal_frozen_example(self):
        # gamma = diag(1, 2), s = ones: M_ij = 1 / (gamma_i + gamma_j)
        m = solve_lyapunov(np.diag([1.0, 2.0]), np.ones((2, 2)))
        want = np.array([[1 / 2, 1 / 3], [1 / 3, 1 / 4]])
        assert np.allclose(m, want, atol=1e-14)

    def test_quadrature_oracle(self):
        # M = integral_0^inf exp(-G u) S exp(-G u) du, entry by entry
        g = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.0]])
        s = np.array([[1.0, 0.2j], [-0.2j, 0.5]])
        want = np.empty((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                def entry(u, i=i, j=j):
                    e = scipy.linalg.expm(-g * u)
                    return (e @ s @ e)[i, j]

                re, _ = scipy.integrate.quad(lambda u: entry(u).real, 0, np.inf)
                im, _ = scipy.integrate.quad(lambda u: entry(u).imag, 0, np.inf)
                want[i, j] = re + 1j * im
        got = solve_lyapunov(g, s)
        assert frob(got - want) < 1e-9

    def test_rejects_indefinite_gamma(self):
        with pytest.raises(NotPositiveDefiniteError):
            solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            solve_lyapunov(np.eye(2), np.eye(3))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_solves_equation(self, seed, d):
        rng = rng_for(seed)
        g = random_hpd(rng, d)
        s = random_psd(rng, d)
        m = solve_lyapunov(g, s)
        assert frob(g @ m + m @ g - s) < 1e-9 * max(1.0, frob(s))
        assert is_psd(m)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6), st.integers(1, 5))
def test_nearest_psd_is_projection(seed, d):
    rng = rng_for(seed)
    a = random_hermitian(rng, d)
    p = nearest_psd(a)
    assert is_psd(p)
    assert np.allclose(nearest_psd(p), p, atol=1e-10)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs), None
    except NotPositiveSemidefiniteError as e:
        return None, (str(e), e.witness)


def _random_stack(rng, batch, d, kinds):
    """One slice per entry of ``kinds``: PSD, Hermitian indefinite, slightly
    non-Hermitian PSD, general complex, or PSD at a large scale."""
    out = np.empty((batch, d, d), dtype=complex)
    for i in range(batch):
        kind = kinds[i % len(kinds)]
        a = random_complex_matrix(rng, d)
        if kind == "psd":
            out[i] = random_psd(rng, d)
        elif kind == "hermitian":
            out[i] = random_hermitian(rng, d)
        elif kind == "near":
            out[i] = random_psd(rng, d) + 1e-13 * a
        elif kind == "big":
            out[i] = 1e7 * random_psd(rng, d)
        else:
            out[i] = a
    return out


stack_kinds = st.lists(
    st.sampled_from(["psd", "hermitian", "near", "general", "big"]),
    min_size=1,
    max_size=4,
)


class TestStacks:
    """A ``(..., d, d)`` stack gives, slice for slice, the bits of the
    single-matrix call, and raises for its first failing slice."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**6), st.integers(1, 9), st.integers(1, 5), stack_kinds)
    def test_matches_single_matrix_calls(self, seed, batch, d, kinds):
        x = _random_stack(rng_for(seed), batch, d, kinds)
        assert _same_bits(nearest_psd(x), np.stack([nearest_psd(m) for m in x]))
        assert _same_bits(hermitize(x), np.stack([hermitize(m) for m in x]))
        assert _same_bits(hermitian_defect(x), [hermitian_defect(m) for m in x])

        got, err = _outcome(validate_psd, x, name="slice")
        for i, m in enumerate(x):
            _, single = _outcome(validate_psd, m, name=f"slice {i}")
            if single is not None:
                assert err == single
                break
        else:
            assert err is None and _same_bits(got, x)

        got, err = _outcome(psd_sqrt, x)
        for i, m in enumerate(x):
            _, single = _outcome(psd_sqrt, m)
            if single is not None:
                stacked = single[0].replace("psd_sqrt input", f"psd_sqrt input {i}", 1)
                assert err == (stacked, single[1])
                break
        else:
            assert err is None
            assert _same_bits(got, np.stack([psd_sqrt(m) for m in x]))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6), st.integers(1, 5))
    def test_resolvent_matches_single_frequency_calls(self, seed, d):
        rng = rng_for(seed)
        g = random_hpd(rng, d)
        nus = np.concatenate([rng.standard_normal(6) * 10.0, [0.0, -0.0, 1e-300]])
        want = np.stack([resolvent(g, float(nu)) for nu in nus])
        assert _same_bits(resolvent(g, nus), want)
        assert _same_bits(resolvent(g, nus.reshape(3, 3)), want.reshape(3, 3, d, d))

    def test_validate_names_slice_of_a_multi_axis_batch(self):
        x = np.broadcast_to(np.eye(2, dtype=complex), (2, 3, 2, 2)).copy()
        x[1, 0] = INDEFINITE
        x[1, 2] = INDEFINITE
        with pytest.raises(NotPositiveSemidefiniteError, match=r"^cell \(1, 0\) is not PSD") as exc:
            validate_psd(x, name="cell")
        assert exc.value.index == (1, 0)
        assert exc.value.witness == pytest.approx(-1.0, abs=1e-12)

    def test_validate_callable_name(self):
        x = np.stack([np.eye(2), INDEFINITE]).astype(complex)
        with pytest.raises(NotPositiveSemidefiniteError, match=r"^weight at nu=0.5 "):
            validate_psd(x, name=lambda i: f"weight at nu={0.25 * (i + 1)}")

    def test_single_matrix_error_has_no_index(self):
        with pytest.raises(NotPositiveSemidefiniteError) as exc:
            validate_psd(INDEFINITE)
        assert exc.value.index is None

    def test_resolvent_names_first_singular_frequency(self):
        g = np.diag([0.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError, match=r"at nu=0.0;"):
            resolvent(g, np.array([0.5, 0.0, 0.25]))


# Eigenvalue-only copies of ``validate_psd`` and ``nearest_psd`` as they were
# before the Cholesky certificate: the reference that every stack must match.
# Self-contained, so that it shares no helper with the code under test. A
# slice with a NaN or inf is reported as such whatever its eigenvalues, so it
# goes to LAPACK as zeros, which never fail to converge.
def validate_psd_reference(m, tol=linalg.TOL_PSD, herm_tol=linalg.TOL_HERM, name="matrix"):
    a = np.ascontiguousarray(m, dtype=np.complex128)
    adjoint = a.conj().swapaxes(-1, -2)
    s = np.fmin(np.fmax(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0)), np.finfo(float).max)
    defect = np.abs(a - adjoint).max(axis=(-2, -1), initial=0.0)
    not_finite = ~np.isfinite(a).all(axis=(-2, -1))
    h = np.where(not_finite[..., None, None], 0.0, (a + adjoint) / 2.0)
    # where a + a^H overflows, the Hermitian part of a / r, r the largest
    # real or imaginary part, and its eigenvalues times r
    over = ~np.isfinite(h).all(axis=(-2, -1))
    r = np.where(over, np.fmax(1.0, np.abs(a.view(np.float64)).max(axis=(-2, -1), initial=0.0)), 1.0)
    b = a / r[..., None, None]
    h = np.where(over[..., None, None], (b + b.conj().swapaxes(-1, -2)) / 2.0, h)
    lo = (np.linalg.eigvalsh(h) * r[..., None]).min(axis=-1, initial=0.0)
    not_herm = defect > herm_tol * s
    bad = not_finite | not_herm | (lo < -tol * s)
    if not bad.any():
        return a
    index = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
    label = name
    if index:
        i = index[0] if len(index) == 1 else index
        label = name(i) if callable(name) else f"{name} {i}"
    if not_finite[index]:
        raise NotPositiveSemidefiniteError(
            f"{label} holds a non-finite entry", index=index or None
        )
    if not_herm[index]:
        raise NotPositiveSemidefiniteError(
            f"{label} is not Hermitian: max |M - M^H| = {float(defect[index]):.3e}",
            index=index or None,
        )
    lo = float(lo[index])
    raise NotPositiveSemidefiniteError(
        f"{label} is not PSD: min eigenvalue = {lo:.6e}", witness=lo, index=index or None
    )


def nearest_psd_reference(m):
    a = hermitize(linalg._as_stack(m))
    w, u = np.linalg.eigh(a)
    clipped = hermitize((u * np.clip(w, 0.0, None)[..., None, :]) @ u.conj().swapaxes(-1, -2))
    keep = np.all(w[..., :1] >= 0.0, axis=-1)
    return np.where(keep[..., None, None], a, clipped)


def _full_outcome(f, *args, **kwargs):
    """Result bytes, or exception type, message, index and witness."""
    try:
        out = np.asarray(f(*args, **kwargs))
    except Exception as e:  # the reference decides which exceptions count
        return type(e), str(e), getattr(e, "index", None), repr(getattr(e, "witness", None))
    return out.shape, out.dtype, out.tobytes()


def _with_lowest(rng, d, lowest, top=1.0):
    """Hermitian matrix with eigenvalues ``lowest`` and up to ``top`` in a
    random unitary basis."""
    q, _ = np.linalg.qr(random_complex_matrix(rng, d))
    w = np.concatenate([[lowest], rng.uniform(0.1, 1.0, d - 1) * top])
    return (q * w) @ q.conj().T


def _certificate_slice(rng, kind, d, scale, tol):
    if kind == "psd":
        return scale * random_psd(rng, d)
    if kind == "rank":
        return scale * random_psd(rng, d, rank=int(rng.integers(1, d + 1)))
    if kind == "zero":
        return np.zeros((d, d), complex)
    if kind == "nonherm":
        return scale * (random_psd(rng, d) + 10.0 ** rng.uniform(-15, 0) * random_complex_matrix(rng, d))
    if kind in ("nan", "inf"):
        m = scale * random_psd(rng, d)
        i, j = rng.integers(d, size=2)
        v = np.nan if kind == "nan" else rng.choice([np.inf, -np.inf])
        m[i, j] = complex(0.0, v) if rng.integers(2) else complex(v, 0.0)
        return m
    if kind == "edge":  # lowest eigenvalue at -tol*s*(1 +- 1e-6), s the unit-floored scale
        m = _with_lowest(rng, d, 0.0, scale)
        for _ in range(2):
            s = max(1.0, np.abs(m).max())
            m = _with_lowest(rng, d, -tol * s * (1.0 + rng.choice([-1e-6, 1e-6])), scale)
        return m
    # "tiny": lowest eigenvalue a tiny multiple of the largest, either sign
    lowest = rng.choice([-1e-11, -1e-13, -1e-16, 0.0, 1e-16, 1e-13, 1e-12, 1e-11])
    return _with_lowest(rng, d, lowest * scale, scale)


certificate_kinds = st.lists(
    st.sampled_from(["psd", "psd", "rank", "zero", "nonherm", "nan", "inf", "edge", "tiny"]),
    min_size=0,
    max_size=6,
)


class TestPsdCertificate:
    """The Cholesky certificate changes no verdict, message or byte."""

    @settings(deadline=None, max_examples=300)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        certificate_kinds,
        st.sampled_from([-300, -20, 0, 0, 5, 150, 300]),
        st.sampled_from([linalg.TOL_PSD, linalg.TOL_PSD, 1e-6, 1e-14, 0.0]),
        st.booleans(),
    )
    def test_matches_eigenvalue_reference(self, seed, d, kinds, exponent, tol, single):
        rng = rng_for(seed)
        scale = 10.0 ** (exponent + rng.uniform(-0.5, 0.5))
        x = np.array(
            [_certificate_slice(rng, k, d, scale, tol) for k in kinds], dtype=complex
        ).reshape(-1, d, d)
        if single and len(x) == 1:
            x = x[0]
        with np.errstate(all="ignore"):
            for args in ((x,), (x, tol), (x, tol, 1e-9)):
                assert _full_outcome(validate_psd, *args, name="slice") == _full_outcome(
                    validate_psd_reference, *args, name="slice"
                )
            assert _full_outcome(nearest_psd, x) == _full_outcome(nearest_psd_reference, x)

    @settings(deadline=None, max_examples=150)
    @given(
        st.integers(0, 6),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["count", "count", "edge"]),
        st.lists(st.sampled_from(["nan", "inf", "overflow", "nonherm", "below"]), max_size=2),
        st.sampled_from([linalg.TOL_PSD, 1e-6, 0.0]),
        st.sampled_from(["stack", "single", "batch"]),
    )
    def test_sweep_matches_eigenvalue_reference(self, d, seed, size, faults, tol, layout):
        # from no matrices to just past two blocks, on both sides of the
        # sweep's threshold, lowest eigenvalues within +-1.1*tol*s of zero
        rng = rng_for(seed)
        block = linalg._BLOCK // max(d, 1)
        if size == "edge":
            threshold = linalg._SWEEP * d * d
            count = int(rng.choice([1, 2, max(threshold - 1, 0), threshold, block, block + 1, 2 * block + 1]))
        else:
            count = int(rng.integers(0, 2 * block + 3))
        x = np.zeros((count, d, d), dtype=complex)
        if d and count:
            q, _ = np.linalg.qr(rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d)))
            w = rng.uniform(0.0, 1.0, (count, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (count, 1))
            w[:, 0] = 0.0
            x = (q * w[:, None, :]) @ q.conj().swapaxes(-1, -2)
            s = np.fmax(1.0, np.abs(x).max(axis=(-2, -1)))
            lowest = rng.uniform(-1.1, 1.1, count) * tol * s
            x += lowest[:, None, None] * q[:, :, :1] * q[:, :, :1].conj().swapaxes(-1, -2)
        for fault in faults if d and count else ():
            i, j, k = int(rng.integers(count)), int(rng.integers(d)), int(rng.integers(d))
            if fault in ("nan", "inf"):
                bad = np.nan if fault == "nan" else rng.choice([np.inf, -np.inf])
                x[i, j, k] = complex(0.0, bad) if rng.integers(2) else complex(bad, 0.0)
            elif fault == "overflow":  # a Hermitian pair whose modulus overflows
                x[i, j, k] = 1.7e308 * (1 + 1j) if j != k else 1.7e308
                x[i, k, j] = np.conj(x[i, j, k])
            elif fault == "nonherm":
                x[i, j, k] += 1e-6j * (1.0 + np.abs(x[i]).max())
            else:
                with np.errstate(invalid="ignore"):  # after an inf: inf * 0, inf - inf
                    x[i] -= 2.0 * tol * (1.0 + np.abs(x[i]).max()) * np.eye(d)
        if layout == "single" and count:
            x = x[int(rng.integers(count))]
        elif layout == "batch":
            x = x.reshape((2, count // 2, d, d) if count % 2 == 0 else (1, count, d, d))
        before = x.copy()
        with np.errstate(all="ignore"):
            for args in ((x,), (x, tol), (x, tol, 1e-9), (x, tol, 2.0)):
                assert _full_outcome(validate_psd, *args, name="slice") == _full_outcome(
                    validate_psd_reference, *args, name="slice"
                )
            assert _full_outcome(nearest_psd, x) == _full_outcome(nearest_psd_reference, x)
        assert _same_bits(x, before)

    def test_psd_stack_is_decided_by_cholesky_alone(self, monkeypatch):
        x = np.stack([random_psd(rng_for(i), 4) for i in range(8)])
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        monkeypatch.setattr(np.linalg, "eigh", None)
        assert _same_bits(validate_psd(x), x)
        assert _same_bits(nearest_psd(x), hermitize(x))

    @pytest.mark.parametrize("d", [1, 4, 12])
    def test_tol_below_rounding_bound_skips_the_certificate(self, monkeypatch, d):
        bound = 8.0 * linalg._rounding(d)
        x = random_psd(rng_for(d), d)
        monkeypatch.setattr(linalg, "_factors", None)
        validate_psd(x, tol=0.99 * bound)
        with pytest.raises(TypeError):  # a tol at the bound does try it
            validate_psd(x, tol=bound)

    def test_nan_factor_is_no_certificate(self):
        # OpenBLAS's Cholesky may run through a NaN pivot without an error,
        # and the sweep's test p > 0 fails a NaN pivot but passes +inf
        for k in (1, 4 * linalg._SWEEP):  # LAPACK's side of d = 2, then the sweep's
            for bad in (np.nan, np.inf):
                x = np.zeros((2, 2, k), dtype=complex)
                x[0, 0], x[1, 1] = bad, 1.0
                assert not linalg._factors(x, 1e-9)


# a 3 x 3 kernel of 2 x 2 blocks whose Gram matrix spans 2**-7 to 3.7e255:
# LAPACK's zheevd does not converge on it under OpenBLAS's SkylakeX and
# Haswell kernels, and does on it divided by 2**849
SPREAD = np.full((3, 3, 2, 2), 2.0**-7, dtype=np.complex128)
SPREAD[0, 0][1, 1] = 3.7464482702623978e255
SPREAD[0, 1][0, 0] = 398065711671996.06j
SPREAD[1, 0][1, 0] = 1j


class TestEighRetry:
    def test_spread_kernel_factors_and_its_gram_projects(self):
        scale = 3.7464482702623978e255
        fact = qwss.kolmogorov_decompose(SPREAD)
        gram = hermitize(SPREAD.transpose(0, 2, 1, 3).reshape(6, 6))
        near = nearest_psd(gram)
        root = psd_sqrt(gram)
        for m in (fact.reconstruction().transpose(0, 2, 1, 3).reshape(6, 6), near, root @ root):
            assert np.isfinite(m).all()
            assert np.abs(m - gram).max() <= 1e-9 * scale
        assert fact.rank == 1  # eigenvalues above tol * lambda_max: only the largest
        assert np.abs(near - near.conj().T).max() == 0.0

    def test_retry_divides_each_slice_by_a_power_of_two(self, monkeypatch):
        eigh, seen = np.linalg.eigh, []

        def unconverged_above_one(h):
            seen.append(float(np.abs(h).max()))
            if seen[-1] > 1.0:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(h)

        h = np.array([np.diag([3.0, -12.0]), np.diag([0.25, 0.5]), np.zeros((2, 2))], complex)
        want = [np.diag([3.0, -12.0]) / 16, np.diag([0.25, 0.5]) * 2, np.zeros((2, 2))]
        monkeypatch.setattr(np.linalg, "eigh", unconverged_above_one)
        w, u = linalg._eigh(h)
        assert seen == [12.0, 0.75]
        assert np.array_equal(w, [[-12.0, 3.0], [0.25, 0.5], [0.0, 0.0]])
        assert np.array_equal(u, eigh(np.array(want, complex))[1])

    def test_a_second_failure_is_a_package_error_and_non_finite_input_is_not_retried(
        self, monkeypatch
    ):
        def unconverged(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", unconverged)
        with pytest.raises(qwss.QwssError, match="^eigenvalues did not converge$"):
            linalg._eigh(np.eye(2, dtype=complex))
        with pytest.raises(np.linalg.LinAlgError):
            linalg._eigh(np.diag([np.nan, 1.0]).astype(complex))
