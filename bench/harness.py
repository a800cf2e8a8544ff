"""Child processes, probes, statistics and the environment record.

Everything here is shared by the three workloads in ``workloads.py``. The
benchmark measures the package in ``src/`` of the checkout it lives in, never
an installed copy: children get ``PYTHONPATH=<checkout>/src`` and BLAS pinned
to one thread.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_SUMMARY = ROOT / "tests" / "data" / "demo_ou" / "summary.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Probe counts: each probe metric is a median over this many spawns. Every
# setup spawn is paired with a host-speed reference spawn.
SETUP_SPAWNS = 16
IMPORT_SPAWNS = 5
# The end-to-end times are reported at the host speed where a fresh
# interpreter runs ``import numpy`` in this many seconds (see host_scale).
REF_NOMINAL_S = 0.1


def pin_threads() -> None:
    """Pin BLAS and OpenMP to one thread; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    seconds: float
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_mb: float


def run_child(argv: list[str], cwd: Path) -> Child:
    """Run one child to completion; wall time and its own peak RSS.

    ``wait4`` reaps the child and returns its resource usage, so the peak
    RSS belongs to this child alone rather than to every child so far.
    """
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(seconds, proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024)


def qwss_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "qwss", *args]


@dataclass
class Tally:
    """Checked operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("; ".join(problems))


def child_problems(child: Child) -> list[str]:
    problems = []
    if child.code != 0:
        problems.append(f"exit code {child.code}")
    if child.stderr:
        problems.append(f"stderr: {child.stderr[:200]!r}")
    return problems


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def summary_problems(outdir: Path, golden: dict | None = None) -> list[str]:
    """Hashes of a ``demo ou`` output directory against its own summary.json,
    and against ``golden`` (another summary's outputs) when given."""
    try:
        summary = json.loads((outdir / "summary.json").read_text())
        outputs = summary["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"summary.json unreadable: {exc!r}"]
    problems = []
    for name, entry in (golden or outputs).items():
        path = outdir / name
        if not path.is_file():
            problems.append(f"{name} missing")
        elif sha256(path) != entry["sha256"] or path.stat().st_size != entry["bytes"]:
            problems.append(f"{name} does not match its recorded hash")
    return problems


def setup_spawn(workdir: Path, tally: Tally) -> float:
    """Wall time of a fresh interpreter running ``import qwss``."""
    child = run_child([sys.executable, "-c", "import qwss"], workdir)
    tally.record(child_problems(child))
    return child.seconds


def reference_spawn(workdir: Path, tally: Tally) -> float:
    """Wall time of a fresh interpreter running ``import numpy``: start-up
    and import work like the program's own, but none of the program's code,
    so it tracks the host's speed and nothing a change to ``qwss`` does."""
    child = run_child([sys.executable, "-c", "import numpy"], workdir)
    tally.record(child_problems(child))
    return child.seconds


def host_scale(reference_s: float) -> float:
    """Factor that turns seconds measured on the host as it ran into seconds
    at the nominal host speed, from the median reference spawn.

    On a shared 2-core x86_64 VM the host's speed drifted by a third and
    more over minutes, and the drift mostly hit the program's work and the
    reference alike: over sets of five to ten runs, the end-to-end times
    spread by up to 0.60 of their median uncorrected and by at most 0.21
    corrected (the table in ``bench/README.md``).
    """
    return REF_NOMINAL_S / reference_s


def _importtime(stderr: str, module: str) -> float:
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def importtime_spawn(workdir: Path, tally: Tally) -> tuple[float, float]:
    """Cumulative ``-X importtime`` seconds of ``qwss`` and of
    ``scipy.linalg`` in a fresh interpreter."""
    child = run_child([sys.executable, "-X", "importtime", "-c", "import qwss"], workdir)
    tally.record([] if child.code == 0 else [f"exit code {child.code}"])
    text = child.stderr.decode(errors="replace")
    return _importtime(text, "qwss"), _importtime(text, "scipy.linalg")


class Probes:
    """Probes run between iterations at points spread evenly over the run.

    The host's speed drifts on a scale of seconds to minutes, so a probe
    median taken in one burst samples a different stretch of time than the
    iterations do; spreading the probes makes both see the same mix. The
    workload loop reports its progress through the run as a share in [0, 1].
    """

    def __init__(self):
        self.jobs: list = []

    def spread(self, count: int, job) -> list:
        """Schedule ``count`` calls of ``job()`` evenly; returns the list
        their results are appended to."""
        results: list = []
        for i in range(count):
            self.jobs.append(((i + 0.5) / count, lambda: results.append(job())))
        self.jobs.sort(key=lambda entry: entry[0])
        return results

    def run_due(self, progress: float) -> None:
        while self.jobs and self.jobs[0][0] <= progress:
            self.jobs.pop(0)[1]()

    def finish(self) -> None:
        self.run_due(float("inf"))


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest sample with at least 10 samples beyond it, its percentile and
    the count beyond it. Fewer than 11 samples give the maximum and 0."""
    s = sorted(values)
    if len(s) < 11:
        return s[-1], 100.0, 0
    i = len(s) - 11
    return s[i], 100.0 * (i + 1) / len(s), 10


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }
