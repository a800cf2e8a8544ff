"""Stationary operator processes on a system-environment split.

The observed algebra consists of operators on a finite-dimensional system
space H; the process lives on H tensor K, where the environment K carries a
fixed density matrix rho. Conditioning onto the system is the partial
expectation E determined by

    tr_H[ T E[Z] ] = tr_HK[ (T tensor rho) Z ]   for all system operators T,

realized as E[Z] = tr_K[ (I tensor rho) Z ].

A model is a finite sum of harmonics

    X_t = sum_k exp(2*pi*i*nu_k*t) M_k tensor D_k

whose environment factors are centered (tr[rho D_k] = 0) and orthogonal
(tr[rho D_j^H D_k] = delta_jk s_k). Those two constraints make the process
mean-zero and wide-sense stationary with

    E[X_t^H X_{t+tau}] = sum_k exp(2*pi*i*nu_k*tau) s_k M_k^H M_k

independent of t; the matching spectral measure is purely atomic.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import MODEL_TOL, POSITIVE, SIZE, TOL_UNIT_TRACE, integer
from .errors import DimensionMismatchError, NotPositiveSemidefiniteError, QwssError
from .linalg import TOL_PSD, _spectrum, as_complex_matrix, hermitize, validate_psd
from .measure import OperatorSpectralMeasure, _array, _block_gram, _gram_blocks, _Record

__all__ = [
    "Mode",
    "QuantumModel",
    "KolmogorovFactorization",
    "conditional_expectation",
    "partial_trace_environment",
    "orthogonalize_environment_ops",
    "process_operator",
    "model_covariance",
    "model_spectral_measure",
    "xhat_apply",
    "kolmogorov_decompose",
]


def partial_trace_environment(z, dim_system: int, dim_environment: int) -> np.ndarray:
    """Partial trace over the environment factor of H tensor K."""
    dh, dk = integer(dim_system, "dim_system"), integer(dim_environment, "dim_environment")
    a = as_complex_matrix(z, name="operator")
    if a.shape != (dh * dk, dh * dk):
        raise DimensionMismatchError(
            f"operator shape {a.shape} does not match dims ({dh}*{dk})"
        )
    return np.einsum("acbc->ab", a.reshape(dh, dk, dh, dk))


def _unit_trace(rho: np.ndarray) -> np.ndarray:
    """``rho``, checked to have unit trace as a density matrix must."""
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TOL_UNIT_TRACE:
        raise QwssError(f"environment state must have unit trace, got {tr}")
    return rho


def conditional_expectation(z, env_state, dim_system: int | None = None) -> np.ndarray:
    """Partial expectation onto the system algebra.

    ``E[Z] = tr_K[(I tensor rho) Z]``; the system dimension is inferred from
    the shapes unless given. Satisfies ``E[A tensor I] = A``, the module
    property ``E[(A tensor I) Z (B tensor I)] = A E[Z] B``, positivity, and
    the defining trace identity.
    """
    rho = _unit_trace(validate_psd(env_state, name="environment state"))
    a = as_complex_matrix(z, name="operator")
    dk = rho.shape[0]
    n = a.shape[0]
    dh = n // dk if dim_system is None else integer(dim_system, "dim_system")
    if dh * dk != n:
        raise DimensionMismatchError(
            f"operator of size {n} does not factor as system*environment with "
            f"environment dim {dk}"
        )
    return np.einsum("ce,aebc->ab", rho, a.reshape(dh, dk, dh, dk))


class Mode(_Record):
    """One harmonic: frequency, system factor, environment factor."""

    def __init__(self, nu: float, system_op, environment_op):
        m = _array(system_op, "dim_system dim_system", "system_op",
                   "system_op holds a non-finite entry")
        d = _array(environment_op, "dim_environment dim_environment", "environment_op",
                   "environment_op holds a non-finite entry")
        nu = float(nu)
        if not np.isfinite(nu):
            raise QwssError(f"mode frequency must be finite, got {nu}")
        self._store(nu=nu, system_op=m, environment_op=d)


class QuantumModel(_Record):
    """Finite-harmonic stationary process with validated mode structure.

    The constructor enforces: ``env_state`` is a density matrix; mode
    frequencies are pairwise distinct; every environment factor is centered
    and the factors are mutually orthogonal in the ``tr[rho . ]`` inner
    product. Use ``orthogonalize_environment_ops`` to massage raw operators
    into an admissible family first.

    The modes are stored once, as stacks in mode order, write-locked like
    every ``_Record`` array: ``nus`` ``(K,)``, ``system_ops`` ``(K, dh, dh)``
    and ``environment_ops`` ``(K, dk, dk)``, which every model operation
    reads. The ``modes`` property rebuilds the ``Mode`` objects on access,
    and ``mode_weights`` holds ``s_k = tr[rho D_k^H D_k]`` per mode.

    The factors are checked as one ``(modes, dk, dk)`` stack: one batched
    trace for the means, one for the second moments (the mode weights), and
    one Gram matmul for every off-diagonal pair. The first failure is
    reported in per-mode order: centering by mode, then pairs row-major.
    """

    def __init__(self, dim_system: int, dim_environment: int, env_state, modes):
        dh = SIZE.index(dim_system, "dim_system")
        dk = SIZE.index(dim_environment, "dim_environment")
        rho = validate_psd(env_state, name="environment state")
        if rho.shape != (dk, dk):
            raise DimensionMismatchError(
                f"environment state shape {rho.shape} != ({dk}, {dk})"
            )
        _unit_trace(rho)
        modes = tuple(modes)
        nus = [m.nu for m in modes]
        if len(set(nus)) != len(nus):
            raise QwssError("mode frequencies must be pairwise distinct")
        # A mode of the wrong shape is reported after the centering of the
        # modes before it, the order of a per-mode scan.
        shaped = next(
            (
                i
                for i, m in enumerate(modes)
                if m.system_op.shape != (dh, dh) or m.environment_op.shape != (dk, dk)
            ),
            len(modes),
        )
        d = np.array([m.environment_op for m in modes[:shaped]], dtype=np.complex128)
        d = d.reshape(-1, dk, dk)
        size = np.abs(d).max(axis=(1, 2))
        mean = np.trace(rho @ d, axis1=1, axis2=2)
        uncentered = np.flatnonzero(np.abs(mean) > MODEL_TOL * np.maximum(1.0, size))
        if uncentered.size:
            i = int(uncentered[0])
            raise QwssError(
                f"mode {i} environment factor is not centered: "
                f"tr[rho D] = {complex(mean[i]):.3e}"
            )
        if shaped < len(modes):
            m = modes[shaped]
            if m.system_op.shape != (dh, dh):
                raise DimensionMismatchError(
                    f"mode {shaped} system_op shape {m.system_op.shape} != ({dh}, {dh})"
                )
            raise DimensionMismatchError(
                f"mode {shaped} environment_op shape {m.environment_op.shape} != ({dk}, {dk})"
            )
        # gram[i, j] = tr[rho Di^H Dj] = <Di, Dj rho> in the Frobenius product;
        # its diagonal is taken as tr[rho D^H D] instead, the weights' formula.
        rows = (len(d), dk * dk)
        gram = d.reshape(rows).conj() @ (d @ rho).reshape(rows).T
        second = np.trace(rho @ d.conj().transpose(0, 2, 1) @ d, axis1=1, axis2=2)
        tol = MODEL_TOL * np.maximum(1.0, np.outer(size, size))
        bad = np.abs(gram) > tol
        diag_tol = tol.diagonal()
        np.fill_diagonal(
            bad, (np.abs(second.imag) > diag_tol) | (second.real < -diag_tol)
        )
        first = np.flatnonzero(bad)
        if first.size:
            i, j = divmod(int(first[0]), len(d))
            if i == j:
                raise QwssError(
                    f"mode {i} has invalid second moment tr[rho D^H D] = "
                    f"{complex(second[i]):.3e}"
                )
            # reported as the triple product, whose rounding noise (such as a
            # tiny imaginary part) the Gram entry does not share
            g = complex(np.trace(rho @ d[i].conj().T @ d[j]))
            raise QwssError(
                f"modes {i} and {j} are not orthogonal under rho: "
                f"tr[rho Di^H Dj] = {g:.3e}"
            )
        weights = np.where(0.0 > second.real, 0.0, second.real)
        nus = np.array(nus, dtype=float)
        sys_ops = np.array([m.system_op for m in modes], np.complex128).reshape(-1, dh, dh)
        # a _Record stores only arrays it built: validate_psd may return the caller's
        self._store(
            dim_system=dh, dim_environment=dk, env_state=rho.copy(), nus=nus,
            system_ops=sys_ops, environment_ops=d, mode_weights=tuple(weights.tolist()),
        )

    @property
    def modes(self) -> tuple[Mode, ...]:
        """The ``Mode`` of each harmonic, rebuilt from the stacks on access."""
        return tuple(map(Mode, self.nus.tolist(), self.system_ops, self.environment_ops))


def orthogonalize_environment_ops(
    env_state, ops: Sequence, tol: float = MODEL_TOL
) -> list[np.ndarray]:
    """Center and Gram-Schmidt raw environment operators under ``tr[rho . ]``.

    Each operator first loses its mean (``D - tr[rho D] I``), then the family
    is orthogonalized (not normalized: the residual norms become the mode
    weights). Raises if an operator is linearly dependent on its predecessors
    after centering.
    """
    rho = _unit_trace(validate_psd(env_state, name="environment state"))
    dk = rho.shape[0]
    out: list[np.ndarray] = []
    for i, op in enumerate(ops):
        d = as_complex_matrix(op, name=f"operator {i}")
        if d.shape != (dk, dk):
            raise DimensionMismatchError(
                f"operator {i} shape {d.shape} != ({dk}, {dk})"
            )
        d = d - complex(np.trace(rho @ d)) * np.eye(dk)
        for prev in out:
            norm2 = complex(np.trace(rho @ prev.conj().T @ prev)).real
            overlap = complex(np.trace(rho @ prev.conj().T @ d))
            d = d - (overlap / norm2) * prev
        norm2 = complex(np.trace(rho @ d.conj().T @ d)).real
        if norm2 <= tol * max(1.0, float(np.abs(d).max()) ** 2):
            raise QwssError(
                f"operator {i} is linearly dependent (within the state metric) "
                "on its predecessors after centering"
            )
        out.append(d)
    return out


def xhat_apply(model: QuantumModel, f: Callable[[float], complex]) -> np.ndarray:
    """Spectral functional calculus: ``sum_k f(nu_k) M_k tensor D_k``."""
    coeff = np.array([complex(f(nu)) for nu in model.nus.tolist()], dtype=np.complex128)
    out = np.einsum("k,kab,kcd->acbd", coeff, model.system_ops, model.environment_ops)
    n = model.dim_system * model.dim_environment
    return out.reshape(n, n)


def process_operator(model: QuantumModel, t: float) -> np.ndarray:
    """``X_t`` as a dense matrix on the joint space."""
    t = float(t)
    return xhat_apply(model, lambda nu: np.exp(2j * np.pi * nu * t))


def model_covariance(model: QuantumModel, tau: float) -> np.ndarray:
    """``E[X_t^H X_{t+tau}]``, independent of ``t`` by construction."""
    phase = np.exp(2j * np.pi * model.nus * float(tau)) * model.mode_weights
    m = model.system_ops
    return np.einsum("k,kij->ij", phase, m.conj().swapaxes(-1, -2) @ m)


def model_spectral_measure(model: QuantumModel) -> OperatorSpectralMeasure:
    """Purely atomic measure with one atom ``s_k M_k^H M_k`` per mode."""
    m, s = model.system_ops, np.array(model.mode_weights)[:, None, None]
    weights = hermitize(s * (m.conj().swapaxes(-1, -2) @ m))
    return OperatorSpectralMeasure(dim=model.dim_system, atoms=zip(model.nus, weights))


class KolmogorovFactorization(_Record):
    """Minimal factorization ``K[i,j] = V_i^H V_j`` of a PSD block kernel.

    ``factors[i]`` is the ``rank x d`` block ``V_i``; ``rank`` is the
    numerical rank of the stacked Gram matrix.
    """

    def __init__(self, rank: int, factors):
        f = _array(factors, "n rank d", "factors")
        if f.shape[1] != int(rank):
            raise DimensionMismatchError(
                f"factors must have shape (n, rank, d), got {f.shape}"
            )
        self._store(rank=int(rank), factors=f)

    @property
    def points(self) -> int:
        return self.factors.shape[0]

    @property
    def dim(self) -> int:
        return self.factors.shape[2]

    def block(self, i: int, j: int) -> np.ndarray:
        """Reconstructed kernel block ``V_i^H V_j``."""
        return self.factors[i].conj().T @ self.factors[j]

    def reconstruction(self) -> np.ndarray:
        """All reconstructed blocks, shape (n, n, d, d)."""
        n, rank, d = self.factors.shape
        v = self.factors.transpose(1, 0, 2).reshape(rank, n * d)  # [V_0 ... V_n-1]
        return _gram_blocks(v.conj().T @ v, n, d)


def kolmogorov_decompose(blocks, tol: float = TOL_PSD) -> KolmogorovFactorization:
    """Factor an ``n x n`` family of ``d x d`` blocks as ``K[i,j] = V_i^H V_j``.

    The stacked ``nd x nd`` block matrix must be Hermitian PSD at tolerance
    ``tol`` (witness eigenvalue reported otherwise). Eigenvalues above
    ``tol * lambda_max`` are kept, so the rank is minimal at that threshold
    and the factorization is unique up to a unitary on the rank space.
    ``tol`` must be a positive finite number; a NaN or inf block raises, and
    so does a kernel whose largest eigenvalue overflows.
    """
    POSITIVE.check(tol, "tol")
    k = np.ascontiguousarray(blocks, dtype=np.complex128)
    if k.ndim != 4 or k.shape[0] != k.shape[1] or k.shape[2] != k.shape[3]:
        raise DimensionMismatchError(
            f"blocks must have shape (n, n, d, d), got {k.shape}"
        )
    n, _, d, _ = k.shape
    asymmetric = "block kernel is not Hermitian-symmetric: K[j,i] != K[i,j]^H"
    gram, scale = _block_gram(k, tol, asymmetric)
    w, u = _spectrum(gram, vectors=True)
    lo = float(w.min())
    if lo < -tol * scale:
        raise NotPositiveSemidefiniteError(
            f"block kernel is not PSD: min eigenvalue = {lo:.6e}", witness=lo
        )
    wmax = float(w.max(initial=0.0))
    if wmax == np.inf:
        raise QwssError("block kernel is too large to factor: its largest eigenvalue overflows")
    keep = np.where(w > tol * max(wmax, 0.0))[0][::-1]  # descending
    v = np.sqrt(w[keep])[:, None] * u[:, keep].conj().T  # (rank, n*d)
    factors = v.reshape(len(keep), n, d).transpose(1, 0, 2)
    return KolmogorovFactorization(rank=len(keep), factors=factors)
