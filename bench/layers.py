"""Per-layer spans recorded from outside the package.

The benchmark never edits ``qwss``. It reaches each layer through an ``Api``
namespace: ``RAW`` holds the public functions themselves, and
``Tracer.api()`` holds wrappers that add the seconds, the call count and a
work count (bins, samples or bytes) of each call to the current iteration.
On ``cli-files`` the same wrappers temporarily replace the names that
``qwss.cli`` imported, so spans nest inside the in-process ``main`` call.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from types import SimpleNamespace

from qwss import filters, measure, quantum, sampling, serialize


def _bins_in(args, kwargs, result):
    den = args[0].density
    return "bins", den.bins if den is not None else 0


def _bins_out(args, kwargs, result):
    return "bins", result.bins


def _samples_out(args, kwargs, result):
    return "samples", result.n


def _bytes_in(args, kwargs, result):
    return "bytes", len(args[0])


def _bytes_out(args, kwargs, result):
    return "bytes", len(result)


# function name -> (module, layer metric prefix, work counter or None)
LAYERS = {
    "synthesize": (sampling, "sampling.synthesize", _samples_out),
    "lag_covariance": (sampling, "sampling.lag_covariance", None),
    "welch_estimate": (sampling, "sampling.welch_estimate", None),
    "apply_filter": (filters, "filters.apply_filter", _bins_in),
    "white_noise": (filters, "filters.white_noise", None),
    "DensityGrid": (measure, "measure.DensityGrid", _bins_out),
    "covariance_from_spectrum": (measure, "measure.covariance_from_spectrum", None),
    "spectrum_from_covariance": (measure, "measure.spectrum_from_covariance", None),
    "check_psd_kernel": (measure, "measure.check_psd_kernel", None),
    "kolmogorov_decompose": (quantum, "quantum.kolmogorov_decompose", None),
    "model_spectral_measure": (quantum, "quantum.model_spectral_measure", None),
    "deserialize_measure": (serialize, "serialize.measure_decode", _bytes_in),
    "serialize_measure": (serialize, "serialize.measure_encode", _bytes_out),
    "covariance_from_csv": (serialize, "serialize.csv_decode", _bytes_in),
    "covariance_to_csv": (serialize, "serialize.csv_encode", _bytes_out),
    "trajectory_from_binary": (serialize, "serialize.traj_decode", _bytes_in),
    "trajectory_from_csv": (serialize, "serialize.traj_decode", _bytes_in),
    "trajectory_to_binary": (serialize, "serialize.traj_encode", _bytes_out),
    "trajectory_to_csv": (serialize, "serialize.traj_encode", _bytes_out),
}

RAW = SimpleNamespace(**{name: getattr(mod, name) for name, (mod, _, _) in LAYERS.items()})

CLI_SUBCOMMANDS = (
    "filter", "bochner", "inverse", "checkpsd", "kolmogorov",
    "model", "synth", "estimate", "demo",
)

# Rate metrics: (metric name, work key summed over traced iterations, layer)
RATES = (
    ("filters.apply_filter.bins_per_s", "filters.apply_filter.bins", "filters.apply_filter"),
    ("measure.DensityGrid.bins_per_s", "measure.DensityGrid.bins", "measure.DensityGrid"),
    ("sampling.synthesize.samples_per_s", "sampling.synthesize.samples", "sampling.synthesize"),
)


def _summed() -> dict:
    """Metrics summed per iteration then medianed: ``<layer>.s``,
    ``<layer>.calls`` and, for the codecs, ``<layer>.bytes``."""
    prefixes = [f"cli.{sub}" for sub in CLI_SUBCOMMANDS]
    prefixes += list(dict.fromkeys(prefix for _, prefix, _ in LAYERS.values()))
    units = {}
    for prefix in prefixes:
        units[f"{prefix}.s"] = "s"
        units[f"{prefix}.calls"] = "count"
        if prefix.startswith("serialize."):
            units[f"{prefix}.bytes"] = "B"
    return units


SUMMED = _summed()


def per_layer_units() -> dict:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {"import.qwss_s": "s", "import.scipy_linalg_s": "s", "cli.startup_s": "s"}
    units.update(SUMMED)
    for name, work, _ in RATES:
        units[name] = work.rsplit(".", 1)[1] + "/s"
    units["trace.overhead_fraction"] = "1"
    return units


class Tracer:
    """Sums of seconds, calls and work per layer, one dict per iteration."""

    def __init__(self):
        self.iterations: list[dict] = []
        self._current: dict | None = None

    def begin(self) -> None:
        self._current = defaultdict(float)

    def end(self) -> None:
        self.iterations.append(self._current)
        self._current = None

    def add(self, prefix: str, seconds: float, work: tuple[str, int] | None = None) -> None:
        rec = self._current
        if rec is None:
            return
        rec[f"{prefix}.s"] += seconds
        rec[f"{prefix}.calls"] += 1
        if work is not None:
            rec[f"{prefix}.{work[0]}"] += work[1]

    def _wrap(self, fn, prefix, counter):
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - t0
            self.add(prefix, seconds, counter(args, kwargs, result) if counter else None)
            return result

        return traced

    def api(self) -> SimpleNamespace:
        return SimpleNamespace(
            **{
                name: self._wrap(getattr(RAW, name), prefix, counter)
                for name, (_, prefix, counter) in LAYERS.items()
            }
        )

    def metrics(self) -> dict:
        """Median over traced iterations of each per-iteration sum; rates
        are total work over total seconds. Layers never called read 0."""
        its = self.iterations or [{}]
        out = {}
        for name in SUMMED:
            out[name] = statistics.median(it.get(name, 0.0) for it in its)
        for name, work, prefix in RATES:
            seconds = sum(it.get(f"{prefix}.s", 0.0) for it in its)
            out[name] = sum(it.get(work, 0.0) for it in its) / seconds if seconds else 0.0
        return out


@contextlib.contextmanager
def patched(module, api: SimpleNamespace):
    """Point the layer names ``module`` imported at ``api`` for the block."""
    names = [name for name in LAYERS if hasattr(module, name)]
    saved = {name: getattr(module, name) for name in names}
    try:
        for name in names:
            setattr(module, name, getattr(api, name))
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)
