"""Tests for the system-environment process model.

The conditional expectation is checked against its defining trace identity
and the standard axioms; model covariances are cross-checked by brute-force
conditioning of the dense joint operators, so the closed form never certifies
itself. Kolmogorov factorizations are verified by reconstruction.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwss import (
    Composition,
    Derivative,
    DimensionMismatchError,
    ExpOperator,
    KolmogorovFactorization,
    Mode,
    NotPositiveSemidefiniteError,
    QuantumModel,
    QwssError,
    Shift,
    Tabulated,
    add_scaled,
    apply_filter,
    check_psd_kernel,
    compose,
    covariance_from_spectrum,
    conditional_expectation,
    eval_characteristic,
    integrate_pair,
    kolmogorov_decompose,
    model_covariance,
    model_spectral_measure,
    orthogonalize_environment_ops,
    partial_trace_environment,
    process_operator,
    total_mass,
    validate_psd,
    xhat_apply,
)

from qwss.quantum import MODEL_TOL

from helpers import (
    frob,
    random_complex_matrix,
    random_density_matrix,
    random_hermitian,
    outcome,
    random_psd,
    rel_frob,
    rng_for,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def qubit_pair_model():
    """Two harmonics on qubit system x qubit environment, weights 2 and 1."""
    return QuantumModel(
        dim_system=2,
        dim_environment=2,
        env_state=I2 / 2,
        modes=(
            Mode(nu=-0.75, system_op=[[1, 0.5j], [0, 1]], environment_op=np.sqrt(2) * SX),
            Mode(nu=0.4, system_op=[[0, 1], [1, 0.25]], environment_op=SY),
        ),
    )


def three_mode_model():
    """Qutrit environment carrying three orthogonal factors."""
    rng = rng_for(77)
    rho = random_density_matrix(rng, 3)
    ops = orthogonalize_environment_ops(
        rho, [random_complex_matrix(rng, 3) for _ in range(3)]
    )
    modes = tuple(
        Mode(nu=nu, system_op=random_complex_matrix(rng, 2), environment_op=d)
        for nu, d in zip((-1.3, 0.2, 2.5), ops)
    )
    return QuantumModel(dim_system=2, dim_environment=3, env_state=rho, modes=modes)


def brute_covariance(model, t, tau):
    """E[X_t^H X_{t+tau}] straight from the dense joint operators."""
    xt = process_operator(model, t)
    xs = process_operator(model, t + tau)
    return conditional_expectation(xt.conj().T @ xs, model.env_state)


class TestConditionalExpectation:
    def test_product_operator_scales_by_environment_mean(self):
        rng = rng_for(1)
        a = random_complex_matrix(rng, 3)
        c = random_complex_matrix(rng, 2)
        rho = random_density_matrix(rng, 2)
        got = conditional_expectation(np.kron(a, c), rho)
        assert rel_frob(got, a * np.trace(rho @ c)) < 1e-13

    def test_system_operator_passes_through(self):
        rng = rng_for(2)
        a = random_complex_matrix(rng, 4)
        rho = random_density_matrix(rng, 3)
        got = conditional_expectation(np.kron(a, np.eye(3)), rho)
        assert rel_frob(got, a) < 1e-13

    def test_traceless_factor_in_maximally_mixed_state_vanishes(self):
        rng = rng_for(3)
        a = random_complex_matrix(rng, 2)
        got = conditional_expectation(np.kron(a, SZ), I2 / 2)
        assert frob(got) < 1e-14

    def test_defining_trace_identity(self):
        # tr[(T tensor rho) Z] = tr[T E[Z]] for every system operator T.
        rng = rng_for(4)
        dh, dk = 3, 2
        rho = random_density_matrix(rng, dk)
        z = random_complex_matrix(rng, dh * dk)
        ez = conditional_expectation(z, rho, dim_system=dh)
        for _ in range(8):
            t = random_complex_matrix(rng, dh)
            lhs = np.trace(np.kron(t, rho) @ z)
            rhs = np.trace(t @ ez)
            assert abs(lhs - rhs) < 1e-12

    def test_module_property(self):
        rng = rng_for(5)
        dh, dk = 2, 3
        rho = random_density_matrix(rng, dk)
        z = random_complex_matrix(rng, dh * dk)
        a1 = random_complex_matrix(rng, dh)
        a2 = random_complex_matrix(rng, dh)
        lhs = conditional_expectation(
            np.kron(a1, np.eye(dk)) @ z @ np.kron(a2, np.eye(dk)), rho
        )
        rhs = a1 @ conditional_expectation(z, rho) @ a2
        assert rel_frob(lhs, rhs) < 1e-12

    def test_state_compatibility(self):
        # Composing with a system state recovers the joint product state.
        rng = rng_for(6)
        dh, dk = 2, 2
        rho_h = random_density_matrix(rng, dh)
        rho_k = random_density_matrix(rng, dk)
        z = random_complex_matrix(rng, dh * dk)
        lhs = np.trace(np.kron(rho_h, rho_k) @ z)
        rhs = np.trace(rho_h @ conditional_expectation(z, rho_k))
        assert abs(lhs - rhs) < 1e-12

    def test_positivity(self):
        rng = rng_for(7)
        rho = random_density_matrix(rng, 3)
        z = random_psd(rng, 6)
        ez = conditional_expectation(z, rho, dim_system=2)
        w = np.linalg.eigvalsh((ez + ez.conj().T) / 2)
        assert w.min() > -1e-12

    def test_hermiticity_preserved(self):
        rng = rng_for(8)
        rho = random_density_matrix(rng, 2)
        z = random_hermitian(rng, 6)
        ez = conditional_expectation(z, rho, dim_system=3)
        assert frob(ez - ez.conj().T) < 1e-12

    def test_rejects_non_factoring_size(self):
        rho = np.eye(3) / 3
        with pytest.raises(DimensionMismatchError):
            conditional_expectation(np.eye(7), rho)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="unit trace"):
            conditional_expectation(np.eye(4), np.eye(2))

    def test_rejects_indefinite_state(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            conditional_expectation(np.eye(4), np.array([[1.5, 2], [2, -0.5]]))

    def test_partial_trace_of_product(self):
        rng = rng_for(9)
        a = random_complex_matrix(rng, 2)
        c = random_complex_matrix(rng, 3)
        got = partial_trace_environment(np.kron(a, c), 2, 3)
        assert rel_frob(got, a * np.trace(c)) < 1e-13

    def test_maximally_mixed_state_equals_normalized_partial_trace(self):
        rng = rng_for(10)
        z = random_complex_matrix(rng, 6)
        lhs = conditional_expectation(z, np.eye(3) / 3, dim_system=2)
        rhs = partial_trace_environment(z, 2, 3) / 3
        assert rel_frob(lhs, rhs) < 1e-13


class TestModelValidation:
    def test_mode_weights(self):
        model = qubit_pair_model()
        assert model.mode_weights == pytest.approx((2.0, 1.0))

    def test_rejects_uncentered_factor(self):
        # tr[rho sz] = 1 when rho projects on the first basis state.
        with pytest.raises(ValueError, match="not centered"):
            QuantumModel(
                dim_system=1,
                dim_environment=2,
                env_state=[[1, 0], [0, 0]],
                modes=(Mode(nu=0.0, system_op=[[1]], environment_op=SZ),),
            )

    def test_rejects_non_orthogonal_factors(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            QuantumModel(
                dim_system=1,
                dim_environment=2,
                env_state=I2 / 2,
                modes=(
                    Mode(nu=0.0, system_op=[[1]], environment_op=SX),
                    Mode(nu=1.0, system_op=[[1]], environment_op=SX + SY),
                ),
            )

    def test_rejects_duplicate_frequencies(self):
        with pytest.raises(ValueError, match="distinct"):
            QuantumModel(
                dim_system=1,
                dim_environment=2,
                env_state=I2 / 2,
                modes=(
                    Mode(nu=0.5, system_op=[[1]], environment_op=SX),
                    Mode(nu=0.5, system_op=[[1]], environment_op=SY),
                ),
            )

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="unit trace"):
            QuantumModel(
                dim_system=1,
                dim_environment=2,
                env_state=I2,
                modes=(Mode(nu=0.0, system_op=[[1]], environment_op=SX),),
            )

    def test_rejects_indefinite_state(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            QuantumModel(
                dim_system=1,
                dim_environment=2,
                env_state=[[1.5, 2], [2, -0.5]],
                modes=(Mode(nu=0.0, system_op=[[1]], environment_op=SX),),
            )

    def test_rejects_mismatched_operator_shapes(self):
        with pytest.raises(DimensionMismatchError):
            QuantumModel(
                dim_system=2,
                dim_environment=2,
                env_state=I2 / 2,
                modes=(Mode(nu=0.0, system_op=[[1]], environment_op=SX),),
            )

    def test_modes_are_write_locked(self):
        model = qubit_pair_model()
        with pytest.raises(ValueError):
            model.modes[0].system_op[0, 0] = 9.0
        with pytest.raises(ValueError):
            model.env_state[0, 0] = 9.0

    @pytest.mark.parametrize("field", ["system_op", "environment_op"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_mode_rejects_non_finite_operators(self, field, bad):
        ops = {"system_op": [[1.0]], "environment_op": [[0.0, 1.0], [0.0, 0.0]]}
        ops[field] = np.array(ops[field], dtype=complex)
        ops[field][0, -1] = bad
        with pytest.raises(ValueError, match=f"^{field} holds a non-finite entry$"):
            Mode(nu=0.0, **ops)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_mode_rejects_non_finite_frequency(self, bad):
        # two NaN frequencies would pass the pairwise-distinct check
        with pytest.raises(ValueError, match="^mode frequency must be finite, got"):
            Mode(nu=bad, system_op=[[1.0]], environment_op=SX)

    def test_uncentered_mode_is_reported_before_a_later_misshapen_one(self):
        modes = (
            Mode(nu=0.0, system_op=[[1]], environment_op=SZ),
            Mode(nu=1.0, system_op=[[1]], environment_op=np.eye(3)),
        )
        kw = dict(dim_system=1, dim_environment=2, env_state=[[1, 0], [0, 0]])
        with pytest.raises(ValueError, match="^mode 0 environment factor is not centered"):
            QuantumModel(modes=modes, **kw)
        with pytest.raises(DimensionMismatchError, match="^mode 0 environment_op shape"):
            QuantumModel(modes=modes[::-1], **kw)


def per_pair_reference(dh, dk, rho, modes, ratios):
    """The mode checks of ``QuantumModel`` as a per-mode, per-pair loop: the
    constructor's own code before its checks became stack operations.
    Returns the mode weights or raises the first failure; appends to
    ``ratios`` the size of every tested quantity over its threshold."""
    modes = tuple(modes)
    nus = [m.nu for m in modes]
    if len(set(nus)) != len(nus):
        raise QwssError("mode frequencies must be pairwise distinct")
    for i, m in enumerate(modes):
        if m.system_op.shape != (dh, dh):
            raise DimensionMismatchError(
                f"mode {i} system_op shape {m.system_op.shape} != ({dh}, {dh})"
            )
        if m.environment_op.shape != (dk, dk):
            raise DimensionMismatchError(
                f"mode {i} environment_op shape {m.environment_op.shape} != ({dk}, {dk})"
            )
        mean = complex(np.trace(rho @ m.environment_op))
        tol = MODEL_TOL * max(1.0, float(np.abs(m.environment_op).max()))
        ratios.append(abs(mean) / tol)
        if abs(mean) > tol:
            raise QwssError(
                f"mode {i} environment factor is not centered: tr[rho D] = {mean:.3e}"
            )
    weights = []
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            g = complex(np.trace(rho @ mi.environment_op.conj().T @ mj.environment_op))
            scale = max(
                1.0,
                float(np.abs(mi.environment_op).max())
                * float(np.abs(mj.environment_op).max()),
            )
            tol = MODEL_TOL * scale
            if i == j:
                ratios.extend((abs(g.imag) / tol, -g.real / tol))
                if abs(g.imag) > tol or g.real < -tol:
                    raise QwssError(
                        f"mode {i} has invalid second moment tr[rho D^H D] = {g:.3e}"
                    )
                weights.append(max(g.real, 0.0))
            else:
                ratios.append(abs(g) / tol)
                if abs(g) > tol:
                    raise QwssError(
                        f"modes {i} and {j} are not orthogonal under rho: "
                        f"tr[rho Di^H Dj] = {g:.3e}"
                    )
    return tuple(weights)


class TestBatchedValidation:
    """The stacked checks against ``per_pair_reference``: same verdict, same
    first error, and bit-identical mode weights."""

    @settings(max_examples=200, deadline=None)
    @given(
        dh=st.integers(min_value=1, max_value=3),
        dk=st.integers(min_value=1, max_value=5),
        m=st.integers(min_value=0, max_value=30),
        units=st.booleans(),
        defect=st.sampled_from([None, "uncentered", "non-orthogonal", "misshapen"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_per_pair_reference(self, dh, dk, m, units, defect, seed):
        rng = rng_for(seed)
        if units:  # off-diagonal matrix units, orthogonal under I/dk
            rho = np.eye(dk) / dk
            eye = np.eye(dk)
            ops = [np.outer(eye[i], eye[j]) for i in range(dk) for j in range(dk) if i != j]
            ops = [ops[k] for k in rng.permutation(len(ops))[:m]]
        else:  # a centered family has at most dk^2 - 1 members
            rho = random_density_matrix(rng, dk)
            raw = [random_complex_matrix(rng, dk) for _ in range(min(m, dk * dk - 1))]
            ops = orthogonalize_environment_ops(rho, raw)
        ops = [d * 10.0 ** rng.uniform(-3, 3) * np.exp(2j * np.pi * rng.uniform()) for d in ops]
        n = len(ops)
        if defect == "uncentered":
            assume(n >= 1)
            k = int(rng.integers(n))
            ops[k] = ops[k] + 10.0 ** rng.uniform(-3, 0) * np.eye(dk)
        elif defect == "non-orthogonal":  # a pair in the second half of the rows
            assume(n >= 2)
            k = int(rng.integers(n // 2, n))
            j = int(rng.integers(k))
            ops[k] = ops[k] + 10.0 ** rng.uniform(-3, 0) * ops[j]
        elif defect == "misshapen":  # and, half the time, another mode uncentered
            assume(n >= 1)
            k = int(rng.integers(n))
            ops[k] = random_complex_matrix(rng, dk + 1)
            other = int(rng.integers(n))
            if other != k and rng.uniform() < 0.5:
                ops[other] = ops[other] + np.eye(dk)
        modes = tuple(
            Mode(nu=float(i), system_op=random_complex_matrix(rng, dh), environment_op=d)
            for i, d in enumerate(ops)
        )
        ratios = []
        want = outcome(
            per_pair_reference, dh, dk, validate_psd(rho), modes, ratios
        )
        # the matmul sums in another order, so a value within rounding of its
        # threshold may be decided either way: draws that close are skipped
        assume(not any(0.9 <= r <= 1.1 for r in ratios))
        got = outcome(
            QuantumModel, dim_system=dh, dim_environment=dk, env_state=rho, modes=modes
        )
        if want[0] == "ok":
            assert got[0] == "ok"
            weights = got[1].mode_weights
            assert np.array(weights).tobytes() == np.array(want[1]).tobytes()
        else:
            assert got == want

    def test_empty_model_has_no_weights(self):
        model = QuantumModel(dim_system=2, dim_environment=3, env_state=np.eye(3) / 3, modes=())
        assert model.mode_weights == ()

    def test_stacks_are_locked_in_place_not_copied_again(self):
        # 200 modes with 32 x 32 system factors: the system stack (3.3 MB)
        # dominates, and a second copy of it would lift the peak to 2.8x
        dh, dk = 32, 16
        eye = np.eye(dk)
        ops = [np.outer(eye[i], eye[j]) for i in range(dk) for j in range(dk) if i != j]
        modes = [
            Mode(nu=float(k), system_op=(k + 1.0) * np.eye(dh), environment_op=d)
            for k, d in enumerate(ops[:200])
        ]
        tracemalloc.start()
        try:
            model = QuantumModel(dh, dk, eye / dk, modes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * model.system_ops.nbytes
        for stack in (model.nus, model.system_ops, model.environment_ops):
            assert not stack.flags.writeable
        assert np.array_equal(model.system_ops, [m.system_op for m in modes])
        assert np.array_equal(model.environment_ops, [m.environment_op for m in modes])


class TestOrthogonalize:
    def test_centers_and_orthogonalizes(self):
        rng = rng_for(20)
        rho = random_density_matrix(rng, 3)
        raw = [random_complex_matrix(rng, 3) + 2.0 * np.eye(3) for _ in range(3)]
        ops = orthogonalize_environment_ops(rho, raw)
        for i, d in enumerate(ops):
            assert abs(np.trace(rho @ d)) < 1e-12
            for j in range(i):
                g = np.trace(rho @ ops[j].conj().T @ d)
                assert abs(g) < 1e-11

    def test_known_pair(self):
        ops = orthogonalize_environment_ops(I2 / 2, [SX, SX + SY])
        assert frob(ops[0] - SX) < 1e-14
        assert frob(ops[1] - SY) < 1e-14

    def test_output_builds_a_valid_model(self):
        model = three_mode_model()
        assert len(model.modes) == 3

    def test_rejects_dependent_operator(self):
        with pytest.raises(ValueError, match="dependent"):
            orthogonalize_environment_ops(I2 / 2, [SX, 2 * SX])

    def test_rejects_multiple_of_identity(self):
        # Centering kills it, so it is dependent on the empty family.
        with pytest.raises(ValueError, match="dependent"):
            orthogonalize_environment_ops(I2 / 2, [3.0 * I2])

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            orthogonalize_environment_ops(I2 / 2, [np.eye(3)])

    def test_rejects_state_without_unit_trace(self):
        # centering against 0.6*I would leave tr[rho D] = -0.06 for D = diag(1, 0)
        rho = 0.6 * I2
        for f in (
            lambda: orthogonalize_environment_ops(rho, [np.diag([1.0, 0.0])]),
            lambda: conditional_expectation(np.eye(4), rho),
            lambda: QuantumModel(dim_system=2, dim_environment=2, env_state=rho, modes=()),
        ):
            with pytest.raises(ValueError, match="unit trace, got 1.2"):
                f()


class TestModelCovariance:
    def test_single_mode_closed_form(self):
        s = 2.0
        model = QuantumModel(
            dim_system=2,
            dim_environment=2,
            env_state=I2 / 2,
            modes=(Mode(nu=0.3, system_op=I2, environment_op=np.sqrt(s) * SX),),
        )
        for tau in (0.0, 0.4, -1.7):
            want = s * np.exp(2j * np.pi * 0.3 * tau) * I2
            assert rel_frob(model_covariance(model, tau), want) < 1e-13

    def test_matches_brute_force_conditioning(self):
        model = qubit_pair_model()
        rng = rng_for(30)
        for t in (0.0, 0.3, 1.7):
            for tau in (0.0, 0.6, -1.1):
                got = brute_covariance(model, t, tau)
                assert rel_frob(got, model_covariance(model, tau)) < 1e-12
        for _ in range(10):
            t, tau = rng.uniform(-3, 3, size=2)
            got = brute_covariance(model, t, tau)
            assert rel_frob(got, model_covariance(model, tau)) < 1e-12

    def test_stationarity(self):
        model = three_mode_model()
        rng = rng_for(31)
        tau = 0.8
        ref = brute_covariance(model, 0.0, tau)
        dev = max(
            frob(brute_covariance(model, t, tau) - ref)
            for t in rng.uniform(-5, 5, size=10)
        )
        assert dev < 1e-12 * max(1.0, frob(ref))

    def test_mean_is_zero(self):
        model = three_mode_model()
        for t in (0.0, 0.9, -2.3):
            m = conditional_expectation(process_operator(model, t), model.env_state)
            assert frob(m) < 1e-12

    def test_adjoint_symmetry_and_zero_lag_psd(self):
        model = qubit_pair_model()
        c = model_covariance(model, 0.77)
        assert frob(model_covariance(model, -0.77) - c.conj().T) < 1e-13
        c0 = model_covariance(model, 0.0)
        assert np.linalg.eigvalsh((c0 + c0.conj().T) / 2).min() > -1e-12

    def test_kernel_is_psd_over_sixteen_times(self):
        model = three_mode_model()
        times = np.linspace(-2.0, 2.0, 16)
        verdict = check_psd_kernel(lambda tau: model_covariance(model, tau), times)
        assert verdict.passed
        assert verdict.witness > -1e-9


class TestModelSpectralMeasure:
    def test_atoms_are_sorted_per_mode(self):
        model = qubit_pair_model()
        mu = model_spectral_measure(model)
        assert mu.density is None
        assert [nu for nu, _ in mu.atoms] == [-0.75, 0.4]
        m0 = model.modes[0].system_op
        want = 2.0 * (m0.conj().T @ m0)
        assert rel_frob(mu.atoms[0][1], want) < 1e-13

    def test_total_mass_is_zero_lag_covariance(self):
        model = three_mode_model()
        mu = model_spectral_measure(model)
        assert rel_frob(total_mass(mu), model_covariance(model, 0.0)) < 1e-12

    def test_transform_reproduces_covariance(self):
        model = three_mode_model()
        mu = model_spectral_measure(model)
        table = covariance_from_spectrum(mu, dt=0.35, lags=6)
        for m in range(-6, 7):
            got = table.at_index(m)
            assert rel_frob(got, model_covariance(model, m * 0.35)) < 1e-12


class TestFilteredProcess:
    """The linear filter ``psi`` acts on the harmonic process by ``M_k ->
    M_k psi(nu_k)``. The filtered model's spectral measure is the filtered
    measure, and its conditioned covariance is that measure's Bochner
    transform."""

    EXP = ExpOperator(gamma=[[1.5, 0.4], [0.4, 1.0]], a=[[1.0, 0.2j], [-0.3, 0.8]])
    # bins of width 0.5 on [-1.5, 3]; the modes at -1.3, 0.2 and 2.5 fall in
    # bins 0, 3 and 8
    TABLE = Tabulated(
        -1.5, 3.0, [random_complex_matrix(rng_for(78 + k), 2) for k in range(9)]
    )
    FILTERS = {
        "exp": EXP,
        "exp_derivative": compose(EXP, Derivative(2)),
        "shift": Shift(2, 0.3),
        "tabulated": TABLE,
        "chain_left": Composition(Composition(EXP, Shift(2, 0.3)), TABLE),
        "chain_right": Composition(EXP, Composition(Shift(2, 0.3), TABLE)),
    }

    @pytest.mark.parametrize("name", list(FILTERS))
    def test_filter_on_process_equals_filter_on_spectrum(self, name):
        filt = self.FILTERS[name]
        model = three_mode_model()
        filtered = QuantumModel(
            dim_system=2,
            dim_environment=3,
            env_state=model.env_state,
            modes=[
                Mode(nu=m.nu, system_op=m.system_op @ eval_characteristic(filt, m.nu),
                     environment_op=m.environment_op)
                for m in model.modes
            ],
        )
        measure = model_spectral_measure(filtered)
        want = apply_filter(model_spectral_measure(model), filt)
        assert np.array_equal(measure.nus, want.nus)
        for g, w in zip(measure.weights, want.weights):
            assert rel_frob(g, w) <= 1e-13
        table = covariance_from_spectrum(want, dt=0.35, lags=3)
        for m in range(-3, 4):
            got = brute_covariance(filtered, 0.7, m * 0.35)
            assert rel_frob(got, table.at_index(m)) < 1e-12


class TestXhat:
    def test_exponential_function_gives_process_operator(self):
        model = qubit_pair_model()
        t = 0.6
        got = xhat_apply(model, lambda nu: np.exp(2j * np.pi * nu * t))
        assert rel_frob(got, process_operator(model, t)) < 1e-13

    def test_indicator_selects_one_mode(self):
        model = qubit_pair_model()
        m = model.modes[1]
        got = xhat_apply(model, lambda nu: 1.0 if nu == m.nu else 0.0)
        assert rel_frob(got, np.kron(m.system_op, m.environment_op)) < 1e-13

    def test_pairing_isometry(self):
        # E[Xhat(f)^H Xhat(g)] equals the spectral pairing of f and g.
        model = three_mode_model()
        mu = model_spectral_measure(model)
        rng = rng_for(40)
        for _ in range(5):
            cf = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            cg = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            f = lambda nu: cf[0] + cf[1] * nu + cf[2] * nu * nu
            g = lambda nu: cg[0] + cg[1] * nu + cg[2] * nu * nu
            joint = xhat_apply(model, f).conj().T @ xhat_apply(model, g)
            lhs = conditional_expectation(joint, model.env_state)
            rhs = integrate_pair(mu, f, g)
            assert rel_frob(lhs, rhs) < 1e-12


class TestOrthogonalSum:
    def test_sum_of_orthogonal_processes_adds_measures(self):
        # Two single-mode processes whose environment factors are orthogonal
        # under the shared state; their sum is again a model and its measure
        # is the plain sum of the two measures.
        ma = np.array([[1.0, 0.3j], [0.0, 0.5]])
        mb = np.array([[0.2, 0.0], [1.0, -0.4j]])
        mode_a = Mode(nu=-0.5, system_op=ma, environment_op=np.sqrt(2) * SX)
        mode_b = Mode(nu=1.25, system_op=mb, environment_op=SY)
        kw = dict(dim_system=2, dim_environment=2, env_state=I2 / 2)
        model_a = QuantumModel(modes=(mode_a,), **kw)
        model_b = QuantumModel(modes=(mode_b,), **kw)
        combined = QuantumModel(modes=(mode_a, mode_b), **kw)
        mu = model_spectral_measure(combined)
        want = add_scaled(
            1.0, model_spectral_measure(model_a), 1.0, model_spectral_measure(model_b)
        )
        assert [nu for nu, _ in mu.atoms] == [nu for nu, _ in want.atoms]
        for (_, wa), (_, wb) in zip(mu.atoms, want.atoms):
            assert rel_frob(wa, wb) < 1e-12

    def test_cross_terms_vanish_in_brute_force(self):
        ma = np.array([[1.0, 0.3j], [0.0, 0.5]])
        mb = np.array([[0.2, 0.0], [1.0, -0.4j]])
        kw = dict(dim_system=2, dim_environment=2, env_state=I2 / 2)
        combined = QuantumModel(
            modes=(
                Mode(nu=-0.5, system_op=ma, environment_op=np.sqrt(2) * SX),
                Mode(nu=1.25, system_op=mb, environment_op=SY),
            ),
            **kw,
        )
        for tau in (0.0, 0.7):
            got = brute_covariance(combined, 0.45, tau)
            assert rel_frob(got, model_covariance(combined, tau)) < 1e-12


class TestKolmogorov:
    @pytest.mark.parametrize("shape", [(0, 0, 2, 2), (1, 1, 0, 0)])
    def test_empty_kernel_is_a_dimension_error(self, shape):
        with pytest.raises(DimensionMismatchError, match="block kernel is empty"):
            kolmogorov_decompose(np.zeros(shape))

    def test_all_ones_scalar_kernel(self):
        fact = kolmogorov_decompose(np.ones((2, 2, 1, 1)))
        assert fact.rank == 1
        assert fact.points == 2 and fact.dim == 1
        for i in range(2):
            for j in range(2):
                assert abs(fact.block(i, j)[0, 0] - 1.0) < 1e-12

    def test_single_atom_kernel_rank_bounded_by_dim(self):
        rng = rng_for(50)
        b = random_psd(rng, 3)
        nu = 0.3
        times = np.array([0.0, 0.4, 1.1, -0.7])
        n = len(times)
        blocks = np.empty((n, n, 3, 3), dtype=complex)
        for i in range(n):
            for j in range(n):
                blocks[i, j] = np.exp(2j * np.pi * nu * (times[j] - times[i])) * b
        fact = kolmogorov_decompose(blocks)
        assert fact.rank == np.linalg.matrix_rank(b)
        err = np.abs(fact.reconstruction() - blocks).max()
        assert err < 1e-10

    def test_rejects_indefinite_kernel_with_witness(self):
        blocks = np.array([[1.0, 2.0], [2.0, 1.0]]).reshape(2, 2, 1, 1)
        with pytest.raises(NotPositiveSemidefiniteError) as exc:
            kolmogorov_decompose(blocks)
        assert exc.value.witness == pytest.approx(-1.0, abs=1e-9)

    def test_rejects_non_hermitian_kernel(self):
        blocks = np.array([[1.0, 2.0], [1.0, 1.0]]).reshape(2, 2, 1, 1)
        with pytest.raises(NotPositiveSemidefiniteError, match="Hermitian"):
            kolmogorov_decompose(blocks)

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatchError):
            kolmogorov_decompose(np.ones((2, 3, 1, 1)))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            kolmogorov_decompose(np.ones((2, 2, 1, 1)), tol=tol)

    @pytest.mark.parametrize("shape", [(2, 2, 1, 1), (2, 2, 2, 2)])
    @pytest.mark.parametrize("top", [1e154, 4e307, 8.9e307, 1.7e308])
    def test_huge_kernel_factors_or_is_refused(self, shape, top):
        # never an empty factor of a non-zero kernel: the all-1.7e308 (2, 2, 1, 1)
        # kernel's largest eigenvalue, 3.4e308, overflows
        blocks = np.full(shape, top, dtype=complex)
        try:
            fact = kolmogorov_decompose(blocks)
        except QwssError as exc:
            assert "largest eigenvalue overflows" in str(exc)
            return
        assert fact.rank == 1
        assert np.abs(fact.reconstruction() - blocks).max() <= 1e-9 * top

    def test_zero_kernel_has_rank_zero(self):
        fact = kolmogorov_decompose(np.zeros((3, 3, 2, 2)))
        assert fact.rank == 0
        assert fact.factors.shape == (3, 0, 2)
        assert np.abs(fact.reconstruction()).max() == 0.0

    def test_reconstructs_factor_built_kernel_at_minimal_rank(self):
        rng = rng_for(51)
        n, r, d = 5, 3, 2
        v = rng.standard_normal((n, r, d)) + 1j * rng.standard_normal((n, r, d))
        blocks = np.einsum("iax,jay->ijxy", v.conj(), v)
        fact = kolmogorov_decompose(blocks)
        assert fact.rank == r
        err = np.abs(fact.reconstruction() - blocks).max()
        assert err < 1e-10

    def test_model_kernel_rank_bounded_by_modes_times_dim(self):
        model = qubit_pair_model()
        times = np.linspace(0.0, 3.0, 6)
        n, d = len(times), model.dim_system
        blocks = np.empty((n, n, d, d), dtype=complex)
        for i, ti in enumerate(times):
            for j, tj in enumerate(times):
                blocks[i, j] = model_covariance(model, tj - ti)
        fact = kolmogorov_decompose(blocks)
        assert fact.rank <= len(model.modes) * d
        err = np.abs(fact.reconstruction() - blocks).max()
        assert err < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 48])
    def test_reconstruction_matches_blocks(self, n):
        rng = rng_for(52 + n)
        fact = KolmogorovFactorization(
            rank=3, factors=rng.standard_normal((n, 3, 2)) + 1j * rng.standard_normal((n, 3, 2))
        )
        got = fact.reconstruction()
        assert got.shape == (n, n, 2, 2) and got.flags.c_contiguous
        want = np.array([[fact.block(i, j) for j in range(n)] for i in range(n)])
        assert np.abs(got - want).max() < 1e-12

    def test_factorization_container_validates_shape(self):
        with pytest.raises(DimensionMismatchError):
            KolmogorovFactorization(rank=2, factors=np.zeros((3, 1, 2)))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_factor_kernels_round_trip(self, n, r, d, seed):
        rng = rng_for(seed)
        v = rng.standard_normal((n, r, d)) + 1j * rng.standard_normal((n, r, d))
        blocks = np.einsum("iax,jay->ijxy", v.conj(), v)
        fact = kolmogorov_decompose(blocks)
        assert fact.rank <= min(r, n * d)
        err = np.abs(fact.reconstruction() - blocks).max()
        assert err < 1e-9 * max(1.0, np.abs(blocks).max())
