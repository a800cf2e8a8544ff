"""Shared random-object factories for the test suite."""

import contextlib
import io
import os
import sys

import numpy as np

from qwss.linalg import validate_psd


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_complex_matrix(rng, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng, d: int) -> np.ndarray:
    a = random_complex_matrix(rng, d)
    return (a + a.conj().T) / 2


def random_psd(rng, d: int, rank: int | None = None) -> np.ndarray:
    b = random_complex_matrix(rng, d, rank or d)
    return b @ b.conj().T


def random_hpd(rng, d: int, floor: float = 0.3) -> np.ndarray:
    """Hermitian with eigenvalues bounded away from zero."""
    return random_psd(rng, d) + floor * np.eye(d)


def random_density_matrix(rng, d: int) -> np.ndarray:
    rho = random_psd(rng, d) + 0.05 * np.eye(d)
    return rho / np.trace(rho).real


def outcome(f, *args, **kwargs):
    """``("ok", f(*args, **kwargs))``, or the type and message of what it raised."""
    try:
        return "ok", f(*args, **kwargs)
    except Exception as e:  # the outcome is compared, whatever it is
        return type(e), str(e)


def frob(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def rel_frob(got, want) -> float:
    return frob(np.asarray(got) - np.asarray(want)) / max(frob(want), 1e-300)


def count_psd_checks(monkeypatch) -> list:
    """Record, from now on, the shape of the stack behind every PSD decision
    of ``validate_psd``: its first ``numpy.linalg.cholesky`` (certificate) or
    ``numpy.linalg.eigvalsh`` (eigenvalue route) call. A certificate that
    fails and the eigenvalue route after it are one decision."""
    shapes, decided = [], []

    def counting(fn):
        def call(a, *args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not validate_psd.__code__:
                frame = frame.f_back
            if frame is not None and not any(frame is f for f in decided):
                decided.append(frame)
                shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)

        return call

    for name in ("cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    return shapes


def numpy_build() -> str:
    """What bits depend on besides the code: numpy's BLAS build and the CPU
    features numpy dispatches on, plus any variable forcing either. Printed
    to the CI job summary (``python tests/helpers.py``) and named by every
    golden mismatch."""
    try:
        from numpy._core import _multiarray_umath as umath  # numpy >= 2
    except ImportError:
        from numpy.core import _multiarray_umath as umath  # numpy 1.x
    features = getattr(umath, "__cpu_features__", {})
    dispatch = [f for f in getattr(umath, "__cpu_dispatch__", ()) if features.get(f)]
    baseline = list(getattr(umath, "__cpu_baseline__", ()))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration')})"
    except TypeError:  # before numpy 1.26, show_config only prints
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            np.show_config()
        blas = text.getvalue().strip()
    forced = {
        k: os.environ[k]
        for k in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")
        if k in os.environ
    }
    return (
        f"numpy {np.__version__}, BLAS build {blas}; "
        f"CPU baseline {baseline}, dispatched {dispatch}; forced {forced}"
    )


def golden_mismatch(name: str) -> str:
    """Failure message for a file that differs from its golden."""
    return f"{name} differs from its golden. {numpy_build()}"


if __name__ == "__main__":
    print(numpy_build())
