"""Dense complex matrix primitives used everywhere else.

Matrices are plain ``numpy.ndarray`` objects with dtype complex128. The
default tolerances of validation, ``TOL_HERM`` (the Hermitian defect) and
``TOL_PSD`` (the eigenvalue floor), are entries of the table in ``errors``,
and scale with the matrix's largest entry once it exceeds 1.

Stacks: ``hermitian_defect``, ``hermitize``, ``validate_psd``, ``nearest_psd``
and ``psd_sqrt`` take one ``(d, d)`` matrix or a ``(..., d, d)`` stack of
them, and ``resolvent`` takes one frequency or an array of them. A stack is
handled inside numpy, with no Python loop over its slices, and every slice
comes out bit-identical to the single-matrix call on it. Tolerances scale per
slice. A stack that fails a check raises for its first failing slice in C
order, with the single-matrix message naming that slice and the slice's batch
index in the error's ``index`` attribute.

PSD certificate: ``validate_psd`` and ``nearest_psd`` first try a Cholesky
factorization of each slice's shifted Hermitian part ``H + c*I`` and return
at once if every factor is finite; other stacks take the eigenvalue route,
the only one that builds errors. The stack is read ``_BLOCK // d`` matrices
at a time into an entry-major copy of shape ``(d, d, k)``, and each slice's
scale, Hermitian defect and ``H`` come from that block. A block of at least
``_SWEEP * d**2`` matrices (so only ``d <= 6``) is factored by one
right-looking sweep, a vector operation across the block per entry; smaller
blocks, and so single matrices and every ``d > 6``, by LAPACK, one ``zpotrf``
per matrix. Let ``B(d) = 8*d*(d+1)*eps``. A factorization that completes is
exact for ``A + dA`` with ``||dA||_2 <= d*g/(1-g)*max|A| <= B*max|A|/2``,
``g = gamma_{d+1}`` doubled for complex arithmetic (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., Thm 10.3 and Sec. 3.6). The
theorem bounds each computed entry through Lemma 8.4, which holds whatever
the order in which ``a_ij - sum_k l_ik conj(l_jk)`` is accumulated, so it
covers LAPACK's order and the sweep's alike; dividing by a pivot through its
reciprocal, as LAPACK's ``zpotf2`` and the sweep do, adds one rounding that
``gamma_{d+1}`` already holds. ``eigvalsh``/``eigh`` (backward stable
``zheevd``) move no eigenvalue by more than ``p(d)*u*d*max|H| <= B*max|H|/2``
(Weyl, ``p(d) <= 8*(d+1)``). So a factor proves every computed eigenvalue
``>= -c - B*(max|H| + |c|)``. A non-finite entry shows in the factor.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import TOL_HERM, TOL_PSD
from .errors import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    QwssError,
)

_HUGE = np.finfo(float).max
_BLOCK = 4096  # rows of d-vectors, or bins, per block of working memory; bounds the peak

__all__ = [
    "TOL_HERM",
    "TOL_PSD",
    "as_complex_matrix",
    "hermitian_defect",
    "hermitize",
    "is_psd",
    "validate_psd",
    "nearest_psd",
    "psd_sqrt",
    "resolvent",
    "solve_lyapunov",
]


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as a square C-contiguous complex128 array."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    return a


def _finite_matrix(m, name: str) -> np.ndarray:
    """``as_complex_matrix(m, name)``, refusing a non-finite entry, which
    would pass the Hermitian test as NaN does any comparison."""
    a = as_complex_matrix(m, name=name)
    if not np.isfinite(a.view(np.float64)).all():
        raise QwssError(f"{name} holds a non-finite entry")
    return a


def _as_stack(m, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as a C-contiguous complex128 matrix or stack of them."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    return a


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _contiguous_adjoint(a: np.ndarray, axes=(-1, -2)) -> np.ndarray:
    # a new C-ordered array, never the caller's memory: the sums with ``a``
    # then run over contiguous operands, with the same bits as on the view
    return np.conjugate(a.swapaxes(*axes), order="C")


def hermitian_defect(m):
    """Max-abs entry of ``M - M.conj().T``: a float, or one per stack slice."""
    a = np.asarray(m, dtype=np.complex128)
    adj = _contiguous_adjoint(a)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN, tested after
        defect = np.abs(np.subtract(a, adj, out=adj)).max(axis=(-2, -1), initial=0.0)
    return float(defect) if defect.ndim == 0 else defect


def hermitize(m) -> np.ndarray:
    """Hermitian part ``(M + M.conj().T) / 2``, per slice for a stack."""
    a = np.asarray(m, dtype=np.complex128)
    h = _contiguous_adjoint(a)
    with np.errstate(over="ignore", invalid="ignore"):  # callers test h for inf
        np.add(a, h, out=h)
        h /= 2.0
    return h


def _scale(a: np.ndarray, axes=(-2, -1)):
    # unit floor so tolerances never shrink below their absolute defaults;
    # fmax keeps a NaN maximum at the floor, as the builtin max does, and fmin
    # a modulus that overflows at the largest double, so no tolerance is inf
    return np.fmin(np.fmax(1.0, np.abs(a).max(axis=axes, initial=0.0)), _HUGE)


def _herm_bound(a: np.ndarray) -> float:
    return TOL_HERM * float(_scale(a))  # the largest defect of a that TOL_HERM admits


def _eigh(h: np.ndarray):
    """``np.linalg.eigh(h)``. Where LAPACK does not converge on a finite
    ``h`` (as on some of widely spread entries), it runs once more on each
    slice divided by the power of two at or above its largest real or
    imaginary part: the same eigenproblem, scaled exactly, with the
    eigenvalues scaled back."""
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError:
        if not np.isfinite(h).all():
            raise
    top = np.fmax(np.abs(h.real), np.abs(h.imag)).max(axis=(-2, -1), initial=0.0)
    unit = np.ldexp(1.0, np.frexp(top)[1])
    try:
        w, u = np.linalg.eigh(h / unit[..., None, None])
    except np.linalg.LinAlgError:
        raise QwssError("eigenvalues did not converge") from None
    return w * unit[..., None], u


def _spectrum(a: np.ndarray, vectors: bool = False):
    """Eigenvalues of each slice's Hermitian part, with eigenvectors (``_eigh``) if
    ``vectors``. A slice whose part is not finite (``a`` is not, which the checks
    report whatever the eigenvalues, or ``a + a^H`` overflows) is solved divided
    by ``s``, its largest real or imaginary part (non-finite ones 0), then times ``s``."""
    h, unit = hermitize(a), 1.0
    finite = np.isfinite(h).all(axis=(-2, -1))
    if not finite.all():
        z = np.where(np.isfinite(a), a, 0.0)
        s = np.fmax(1.0, np.abs(z.view(np.float64)).max(axis=(-2, -1), initial=0.0))
        h = np.where(finite[..., None, None], h, hermitize(z / s[..., None, None]))
        unit = np.where(finite, 1.0, s)[..., None]
    w, u = _eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    with np.errstate(over="ignore"):  # an eigenvalue past the largest double is inf
        return (w * unit, u) if vectors else w * unit


def _rounding(d: int) -> float:
    """``B(d)`` of the PSD certificate (module docstring)."""
    return 8.0 * d * (d + 1) * np.finfo(float).eps


# Blocks of at least _SWEEP * d**2 matrices are factored by the sweep, smaller
# ones by LAPACK, so only d <= 6 is ever swept. validate_psd on PSD stacks,
# sweep against LAPACK, best of 9 x 20 calls in us (one BLAS thread, 2-core
# x86_64 VM): d=1, 16 matrices 28/26 and 64 28/29; d=2, 64 37/34 and 128
# 69/68; d=4, 128 85/76, 256 111/121 and 1024 449/553; d=6, 576 384/537;
# full blocks at d=7 (585) 979/973 and d=8 (512) 1161/1213; one 4x4 58/28.
_SWEEP = 16


def _entry_major(a: np.ndarray):
    """Copies of the stack ``a``, ``_BLOCK // d`` matrices at a time, each of
    shape ``(d, d, k)``: entry ``(i, j)`` of its ``k`` matrices is one
    contiguous vector."""
    d = a.shape[-1]
    flat = a.reshape(math.prod(a.shape[:-2]), d, d)  # reshape(-1, 0, 0) raises
    step = _BLOCK // max(d, 1)
    for lo in range(0, len(flat), step):
        yield flat[lo : lo + step].transpose(1, 2, 0).copy()


def _factors(h: np.ndarray, shift) -> bool:
    """True iff every matrix of ``h + shift*I`` has a Cholesky factor with
    finite entries and positive pivots, ``h`` an entry-major block of
    Hermitian matrices (``_entry_major``) that the caller owns. Shifts and
    factors ``h`` in place."""
    d, k = h.shape[0], h.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry fails below
        h.reshape(d * d, k)[:: d + 1] += shift  # the diagonal
        if k < _SWEEP * d * d:
            try:
                factor = np.linalg.cholesky(h.transpose(2, 0, 1))
            except np.linalg.LinAlgError:
                return False
            return bool(np.isfinite(factor).all())
        # right-looking, one vector operation per entry across the block; a
        # non-finite entry L_ij reaches pivot i as -|L_ij|^2 or NaN, so finite
        # positive pivots prove the whole factor finite (a NaN fails p > 0, but
        # +inf passes it)
        for j in range(d):
            p = h[j, j].real
            if not (p.min() > 0.0 and p.max() < np.inf):
                return False
            col = h[j + 1 :, j] * (1.0 / np.sqrt(p))
            h[j + 1 :, j + 1 :] -= col[:, None] * col.conj()
    return True


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    """Batch index of the first True entry of ``mask`` in C order, or None.

    ``()`` is the index of a single matrix (a 0-d mask).
    """
    if not mask.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(mask)), mask.shape))


def _slice_name(name: str | Callable, index: tuple[int, ...]) -> str:
    if not index:
        return name
    i = index[0] if len(index) == 1 else index
    return name(i) if callable(name) else f"{name} {i}"


def _raise_psd_failure(
    a: np.ndarray, w: np.ndarray, tol: float, herm_tol: float, name: str | Callable
) -> None:
    """Raise for the first slice of ``a`` (eigenvalues ``w`` of its Hermitian
    part) that holds a NaN or inf, is not Hermitian within ``herm_tol`` or has
    an eigenvalue below ``-tol``, named as ``validate_psd`` names it; return
    if none does.
    """
    s = _scale(a)
    defect = np.asarray(hermitian_defect(a))
    lo = w.min(axis=-1, initial=0.0)
    # every comparison with NaN is False, so non-finite slices need their own test
    not_finite = ~np.isfinite(a).all(axis=(-2, -1))
    not_herm = defect > herm_tol * s
    index = _first(not_finite | not_herm | (lo < -tol * s))
    if index is None:
        return
    label = _slice_name(name, index)
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


def is_psd(m, tol: float = TOL_PSD, herm_tol: float | None = None) -> bool:
    """True iff the matrix ``m`` passes ``validate_psd``: finite, Hermitian and
    no eigenvalue below ``-tol``.

    ``tol`` bounds both the Hermitian defect and the eigenvalue floor unless a
    separate ``herm_tol`` is given. Tolerances scale with the matrix magnitude
    above unit scale.
    """
    try:
        validate_psd(as_complex_matrix(m), tol, tol if herm_tol is None else herm_tol)
    except NotPositiveSemidefiniteError:
        return False
    return True


def validate_psd(
    m,
    tol: float = TOL_PSD,
    herm_tol: float = TOL_HERM,
    name: str | Callable = "matrix",
) -> np.ndarray:
    """Return ``m`` validated finite and Hermitian-PSD, raising with a
    witness otherwise.

    ``m`` is a matrix or a ``(..., d, d)`` stack. In a stack, slice ``i`` is
    called ``f"{name} {i}"`` in the error, or ``name(i)`` if ``name`` is
    callable (``i`` is a tuple when the batch has more than one axis).
    """
    a = _as_stack(m, name=name if isinstance(name, str) else "matrix")
    # c = tol*s/2 with tol >= 8*B(d) makes -c - B*(s + c) >= -tol*s
    if tol >= 8.0 * _rounding(a.shape[-1]):
        for t in _entry_major(a):
            adj = _contiguous_adjoint(t, (0, 1))
            s = _scale(t, (0, 1))
            with np.errstate(over="ignore", invalid="ignore"):  # _factors fails an inf
                defect = np.abs(t - adj).max(axis=(0, 1), initial=0.0)
                t += adj
                t *= 0.5  # the Hermitian part, exactly
            # a defect of at most the largest double also proves t finite
            if not (np.all(defect <= np.fmin(herm_tol * s, _HUGE)) and _factors(t, tol * s / 2)):
                break
        else:
            return a
    _raise_psd_failure(a, _spectrum(a), tol, herm_tol, name)
    return a


def nearest_psd(m) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix to ``m``, per slice for a stack.

    Hermitizes, then clips negative eigenvalues to zero. Idempotent, and a
    no-op up to rounding on matrices that are already PSD: a slice whose
    lowest eigenvalue is nonnegative comes back as its Hermitian part. So does
    a stack with Cholesky factors of ``H - delta*I``, ``delta = 2*B(d)*max|H|``
    per slice, without ``eigh``: it would compute every eigenvalue
    ``>= delta*(1 - B/2) - B*max|H| >= 0`` (module docstring).
    """
    a = hermitize(_as_stack(m))
    for t in _entry_major(a):
        delta = 2.0 * _rounding(a.shape[-1]) * np.abs(t).max(axis=(0, 1), initial=0.0)
        if not (np.all(delta >= np.finfo(float).tiny) and _factors(t, -delta)):
            break
    else:
        return a
    w, u = _eigh(a)
    clipped = hermitize((u * np.clip(w, 0.0, None)[..., None, :]) @ _adjoint(u))
    keep = np.all(w[..., :1] >= 0.0, axis=-1)  # w ascends: w[..., 0] is lowest
    return np.where(keep[..., None, None], a, clipped)


def psd_sqrt(m, tol: float = TOL_PSD) -> np.ndarray:
    """Hermitian PSD square root of a PSD matrix, per slice for a stack.

    Eigenvalues in ``[-tol*scale, 0)`` are treated as zero; anything lower
    raises NotPositiveSemidefiniteError.
    """
    a = _as_stack(m)
    w, u = _eigh(hermitize(a))
    _raise_psd_failure(a, w, tol, tol, "psd_sqrt input")
    w = np.sqrt(np.clip(w, 0.0, None))
    return hermitize((u * w[..., None, :]) @ _adjoint(u))


def resolvent(gamma, nu) -> np.ndarray:
    """``(Gamma - 2*pi*i*nu*I)^{-1}`` for Hermitian positive definite Gamma.

    ``nu`` is a frequency or an array of them, each with ``2*pi*nu`` finite;
    an array gives a stack of shape ``nu.shape + (d, d)``. Frequencies are
    cycles, never angular. Singular only if Gamma is singular and nu == 0.
    """
    g = _finite_matrix(gamma, "gamma")
    if hermitian_defect(g) > _herm_bound(g):
        raise NotPositiveDefiniteError("resolvent requires Hermitian gamma")
    nus = np.asarray(nu, dtype=float)
    bad = nus[~(np.abs(nus) <= _HUGE / (2 * np.pi))]  # NaN, +-inf, 2*pi*nu overflowing
    if bad.size:
        raise QwssError(f"nu must be a frequency with 2*pi*nu finite, got {bad[0]}", location="nu")
    d = g.shape[0]
    shifted = g - np.asarray(2j * np.pi * nus)[..., None, None] * np.eye(d)
    try:
        return np.linalg.solve(shifted, np.eye(d, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:
        if nus.ndim:
            # LU meets a zero pivot (solve's failure) exactly where slogdet's
            # sign is 0, so this names the first singular frequency
            singular = np.linalg.slogdet(shifted).sign == 0
            nu = float(nus[_first(singular)])
        raise NotPositiveDefiniteError(
            f"resolvent is singular at nu={nu}; gamma is not positive definite"
        ) from exc


def solve_lyapunov(gamma, s) -> np.ndarray:
    """Solve ``Gamma @ M + M @ Gamma = S`` for Hermitian positive definite Gamma.

    Eigendecomposes Gamma, divides the rotated right-hand side entrywise by
    eigenvalue sums, and rotates back. For PSD ``S`` the solution
    ``M = integral_0^inf exp(-Gamma u) S exp(-Gamma u) du`` is PSD.
    """
    g = _finite_matrix(gamma, "gamma")
    rhs = _finite_matrix(s, "s")
    if g.shape != rhs.shape:
        raise DimensionMismatchError(
            f"gamma {g.shape} and s {rhs.shape} must have equal shapes"
        )
    if hermitian_defect(g) > _herm_bound(g):
        raise NotPositiveDefiniteError("solve_lyapunov requires Hermitian gamma")
    w, u = np.linalg.eigh(hermitize(g))
    if w.min(initial=np.inf) <= 0.0:
        raise NotPositiveDefiniteError(
            f"solve_lyapunov requires positive definite gamma; min eigenvalue {w.min():.6e}"
        )
    rotated = u.conj().T @ rhs @ u
    m = u @ (rotated / (w[:, None] + w[None, :])) @ u.conj().T
    if hermitian_defect(rhs) <= _herm_bound(rhs):
        m = hermitize(m)
    return m
