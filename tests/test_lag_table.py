"""The stored two-sided lag table and the one block-kernel gather.

The functions named ``*_reference`` are the code the stored stack and the
gather replaced: ``CovarianceTable.at_index`` and ``two_sided`` as they
rebuilt the negative lags on every call, the per-pair table and callable
lookups behind ``check_psd_kernel``, and the block-Gram layout that
``check_psd_kernel``, ``kolmogorov_decompose`` and ``reconstruction`` each
wrote out. Every result must equal its reference byte for byte, and every
error must keep its type and message.
"""

import numpy as np
import pytest

from helpers import random_complex_matrix, random_psd, rng_for
from qwss.errors import (
    DimensionMismatchError,
    NotPositiveSemidefiniteError,
    OffGridLagError,
    QwssError,
)
from qwss.linalg import TOL_PSD, as_complex_matrix, hermitian_defect, hermitize, nearest_psd
from qwss.measure import (
    CovarianceTable,
    KernelVerdict,
    OperatorSpectralMeasure,
    _kernel_blocks,
    check_psd_kernel,
    covariance_from_spectrum,
    spectrum_from_covariance,
)
from qwss.quantum import kolmogorov_decompose


def at_index_reference(table, m):
    if abs(m) > table.max_lag_index:
        raise OffGridLagError(
            f"lag index {m} outside table range +-{table.max_lag_index}"
        )
    return table.values[m] if m >= 0 else table.values[-m].conj().T.copy()


def two_sided_reference(table):
    return np.concatenate(
        [table.values[1:][::-1].conj().transpose(0, 2, 1), table.values], axis=0
    )


def table_blocks_reference(table, times):
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
        raise OffGridLagError(f"lag index {int(m[bad])} outside table range +-{top}")
    return two_sided_reference(table)[m.astype(np.intp) + top]


def kernel_lookup_reference(cov, times):
    times = [float(t) for t in times]
    if len(times) < 1:
        raise QwssError("check_psd_kernel needs at least one sample time")
    n = len(times)
    if isinstance(cov, CovarianceTable):
        return table_blocks_reference(cov, np.array(times)), n, cov.dim
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


def check_psd_kernel_reference(cov, times, tol=TOL_PSD):
    blocks, n, d = kernel_lookup_reference(cov, times)
    gram = blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    scale = max(1.0, float(np.abs(gram).max()))
    if hermitian_defect(gram) > 1e-9 * scale:
        raise NotPositiveSemidefiniteError(
            "kernel is not Hermitian-symmetric: C(-tau) != C(tau)^H beyond tolerance"
        )
    lo = float(np.linalg.eigvalsh(hermitize(gram)).min())
    return KernelVerdict(passed=bool(lo >= -tol * scale), witness=lo, points=n, dim=d)


def kolmogorov_reference(blocks, tol=1e-9):
    """Factors of ``kolmogorov_decompose``, for finite kernels."""
    n, _, d, _ = blocks.shape
    gram = blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    w, u = np.linalg.eigh(hermitize(gram))
    keep = np.where(w > tol * max(float(w.max(initial=0.0)), 0.0))[0][::-1]
    v = np.sqrt(w[keep])[:, None] * u[:, keep].conj().T
    return v.reshape(len(keep), n, d).transpose(1, 0, 2)


def reconstruction_reference(fact):
    n, rank, d = fact.factors.shape
    v = fact.factors.transpose(1, 0, 2).reshape(rank, n * d)
    gram = (v.conj().T @ v).reshape(n, d, n, d)
    return np.ascontiguousarray(gram.transpose(0, 2, 1, 3))


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def verdict_bits(v):
    return (v.passed, float(v.witness).hex(), v.points, v.dim)


def outcome(fn, *args, **kwargs):
    """The value of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)


def random_table(rng, lags, d, dt=0.25):
    """A table whose nonzero lags are arbitrary: its kernels need not be PSD."""
    vals = np.array([random_complex_matrix(rng, d) for _ in range(lags + 1)])
    vals[0] = random_psd(rng, d)
    return CovarianceTable(dt=dt, values=vals)


def genuine_table(rng, lags, d, dt=0.25):
    """The Bochner transform of random atoms: every kernel is PSD."""
    atoms = tuple((float(nu), random_psd(rng, d)) for nu in rng.uniform(-2.0, 2.0, 3))
    return covariance_from_spectrum(OperatorSpectralMeasure(dim=d, atoms=atoms), dt, lags)


def grid_times(rng, dt, top):
    """Unsorted on-grid times with repeats and negatives, lags within ``top``."""
    k = rng.integers(-(top // 2), top // 2 + 1, size=int(rng.integers(1, 9)))
    k = np.concatenate([k, k[: len(k) // 2]])  # repeated times
    return (rng.permutation(k) * dt).tolist()


class TestStoredStack:
    @pytest.mark.parametrize("seed", range(6))
    def test_views_equal_the_rebuilt_lags(self, seed):
        rng = rng_for(900 + seed)
        table = random_table(rng, int(rng.integers(0, 7)), int(rng.integers(1, 5)))
        top = table.max_lag_index
        assert same_bytes(table.two_sided(), two_sided_reference(table))
        for m in range(-top, top + 1):
            got = table.at_index(m)
            assert same_bytes(got, at_index_reference(table, m))
            assert not got.flags.writeable
        for m in (top + 1, -top - 1):
            assert outcome(table.at_index, m) == outcome(at_index_reference, table, m)

    def test_negative_lag_is_a_read_only_adjoint_view(self):
        table = random_table(rng_for(910), 4, 3)
        for m in range(1, 5):
            got = table.at_index(-m)
            assert same_bytes(got, table.values[m].conj().T)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0, 0] = 0.0

    def test_stack_is_stored_once_and_locked(self):
        table = random_table(rng_for(911), 3, 2)
        stack = table.two_sided()
        assert table.two_sided() is stack
        assert not stack.flags.writeable and stack.flags.c_contiguous
        assert np.shares_memory(table.values, stack)
        assert table.values.flags.c_contiguous and not table.values.flags.writeable

    def test_stack_does_not_alias_the_input(self):
        vals = np.array([[[1.0]], [[0.5]]], dtype=complex)
        table = CovarianceTable(dt=1.0, values=vals)
        vals[1, 0, 0] = 9.0
        assert table.at_index(-1)[0, 0] == 0.5

    @pytest.mark.parametrize("window", ["bartlett", "boxcar"])
    def test_spectrum_reads_the_stack(self, window):
        rng = rng_for(912)
        table = genuine_table(rng, 7, 3)
        m, d, bins = table.max_lag_index, table.dim, 16
        j = np.arange(-m, m + 1)
        w = 1.0 - np.abs(j) / (m + 1) if window == "bartlett" else np.ones(2 * m + 1)
        w = np.where(j % 2, -w, w)
        signed = (w[:, None, None] * two_sided_reference(table)).reshape(2 * m + 1, d * d)
        folded = np.zeros((bins, d * d), dtype=np.complex128)
        folded[: m + 1] = signed[m:]
        folded[bins - m :] += signed[:m]
        want = nearest_psd(table.dt * np.fft.fft(folded, axis=0).reshape(bins, d, d))
        got = spectrum_from_covariance(table, bins, window).density.values
        assert same_bytes(got, want)


class TestTableGather:
    @pytest.mark.parametrize("seed", range(8))
    def test_blocks_and_verdicts(self, seed):
        rng = rng_for(920 + seed)
        d = int(rng.integers(1, 4))
        for table in (random_table(rng, 8, d), genuine_table(rng, 8, d)):
            times = grid_times(rng, table.dt, 8)
            want, _, _ = kernel_lookup_reference(table, times)
            assert same_bytes(_kernel_blocks(table, times), want)
            got = check_psd_kernel(table, times)
            assert verdict_bits(got) == verdict_bits(check_psd_kernel_reference(table, times))

    @pytest.mark.parametrize("seed", range(8))
    def test_factorizations(self, seed):
        rng = rng_for(930 + seed)
        table = genuine_table(rng, 8, int(rng.integers(1, 4)))
        times = grid_times(rng, table.dt, 8)
        blocks, _, _ = kernel_lookup_reference(table, times)
        fact = kolmogorov_decompose(_kernel_blocks(table, times))
        assert same_bytes(fact.factors, kolmogorov_reference(blocks))
        assert same_bytes(fact.reconstruction(), reconstruction_reference(fact))

    @pytest.mark.parametrize(
        "times",
        [
            [0.0, 0.1],  # off grid
            [0.0, 0.25, 0.3],
            [0.0, 3.0],  # out of range
            [2.0, -1.0, 0.0],
            [0.0, 2.0, 0.1],  # out of range before off grid
            [0.0, np.nan],
            [np.inf, 0.0],
            [],
        ],
    )
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_errors(self, times):
        table = random_table(rng_for(940), 4, 2)
        want = outcome(check_psd_kernel_reference, table, times)
        assert isinstance(want, tuple) and isinstance(want[0], type)
        assert outcome(check_psd_kernel, table, times) == want


def smooth_kernel(d, calls=None):
    """A deterministic Hermitian-consistent callable that counts its calls."""
    rng = rng_for(950 + d)
    b, h = random_psd(rng, d), random_complex_matrix(rng, d)
    h = h + h.conj().T

    def cov(tau):
        if calls is not None:
            calls.append(tau)
        return np.exp(-abs(tau)) * b + 0.1j * tau * np.exp(-tau * tau) * h

    return cov


class TestCallableGather:
    @pytest.mark.parametrize("seed", range(8))
    def test_blocks_and_verdicts(self, seed):
        rng = rng_for(960 + seed)
        d = int(rng.integers(1, 4))
        times = rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 8)))
        times = rng.permutation(np.concatenate([times, times[:2], [0.0, -0.0]]))
        cov = smooth_kernel(d)
        want, _, _ = kernel_lookup_reference(cov, times)
        assert same_bytes(_kernel_blocks(cov, times), want)
        assert verdict_bits(check_psd_kernel(cov, times)) == verdict_bits(
            check_psd_kernel_reference(cov, times)
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_called_once_per_distinct_lag(self, n):
        times = 0.25 * np.arange(n)
        new, old = [], []
        got = check_psd_kernel(smooth_kernel(2, new), times)
        want = check_psd_kernel_reference(smooth_kernel(2, old), times)
        assert verdict_bits(got) == verdict_bits(want)
        assert (len(new), len(old)) == (2 * n - 1, n * n + 1)
        assert new[0] == 0.0 and len(set(new)) == len(new)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_signed_zero_and_nan_lags_are_not_merged(self):
        calls = []
        cov = smooth_kernel(1, calls)
        outcome(check_psd_kernel, cov, [0.0, -0.0, np.inf])
        bits = [np.float64(t).view(np.uint64) for t in calls]
        assert len(set(bits)) == len(bits)
        assert any(np.signbit(t) and t == 0.0 for t in calls)
        assert any(np.isnan(t) for t in calls)

    def test_first_failing_pair_keeps_its_message(self):
        # lag 2.0 first appears at pair (0, 2) and lag -1.0 at pair (1, 0)
        def cov(tau):
            return np.eye(2) if tau not in (-1.0, 2.0) else np.eye(3)

        times = [0.0, 1.0, 2.0]
        want = outcome(check_psd_kernel_reference, cov, times)
        assert want == (DimensionMismatchError, "C(2.0) has shape (3, 3), expected (2, 2)")
        assert outcome(check_psd_kernel, cov, times) == want

    @pytest.mark.parametrize(
        "cov",
        [
            lambda tau: np.ones((2, 3)),  # C(0) not square
            lambda tau: np.eye(2) if tau == 0.0 else np.ones((2, 3)),
            lambda tau: np.eye(2) if tau >= 0.0 else np.eye(1),
            lambda tau: np.array([[1.0 + (0.5 if tau > 0 else 0.0)]]),  # not Hermitian
            "not callable",
        ],
    )
    def test_errors(self, cov):
        times = [0.0, 0.5, 1.5]
        want = outcome(check_psd_kernel_reference, cov, times)
        assert isinstance(want, tuple) and isinstance(want[0], type)
        assert outcome(check_psd_kernel, cov, times) == want


NON_FINITE_01 = r"^block kernel holds a non-finite entry in block \(0, 1\)$"


class TestNonFiniteKernels:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_decompose_rejects_and_names_the_block(self, bad):
        b = np.ones((2, 2, 1, 1), complex)
        b[0, 1] = bad
        with pytest.raises(NotPositiveSemidefiniteError, match=NON_FINITE_01):
            kolmogorov_decompose(b)

    def test_first_block_in_row_major_order(self):
        b = np.ones((3, 3, 2, 2), complex)
        b[2, 0, 1, 1] = np.nan
        b[1, 2, 0, 0] = np.inf
        with pytest.raises(NotPositiveSemidefiniteError, match=r"block \(1, 2\)"):
            kolmogorov_decompose(b)

    def test_kernel_check_rejects_a_nan_lag(self):
        def cov(tau):
            return np.array([[np.nan if tau == 1.0 else np.exp(-abs(tau))]])

        with pytest.raises(NotPositiveSemidefiniteError, match=NON_FINITE_01):
            check_psd_kernel(cov, [0.0, 1.0, 2.0])
