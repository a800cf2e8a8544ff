"""Shared random-object factories for the test suite."""

import numpy as np


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


def frob(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def rel_frob(got, want) -> float:
    return frob(np.asarray(got) - np.asarray(want)) / max(frob(want), 1e-300)


def count_eigvalsh(monkeypatch) -> list:
    """Record the shape of every ``numpy.linalg.eigvalsh`` argument from now
    on; each PSD check makes exactly one such call."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return shapes
