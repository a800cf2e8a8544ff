"""Operator-valued wide sense stationary process toolkit.

Covariance kernels of stationary processes taking matrix values pair with
operator-valued spectral measures through the Fourier transform. This
package provides the pair in both directions, frequency-domain filtering,
a finite-dimensional quantum realization with its conditional expectation,
Kolmogorov factorization of positive block kernels, Gaussian trajectory
synthesis with spectral re-estimation, and file formats plus a CLI tying
them together. All frequencies are cycles per unit time.

Names load on first use: ``import qwss`` alone loads no numpy, and the
first lookup of any other name imports the seven modules and binds all
their public names here, so that no later lookup of one costs anything.
"""

__version__ = "0.1.0"
_MODULES = ("errors", "filters", "linalg", "measure", "quantum", "sampling", "serialize")


def __getattr__(name):
    # PEP 562: runs only for names not bound here; each module's __all__ lists its own
    g = globals()
    if "__all__" not in g:
        from importlib import import_module

        modules = [import_module(f"{__name__}.{m}") for m in _MODULES]
        g.update((n, getattr(m, n)) for m in modules for n in m.__all__)
        g["__all__"] = [n for m in modules for n in m.__all__] + ["__version__"]
    if name in g:
        return g[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*__getattr__("__all__"), *_MODULES, *globals()})
