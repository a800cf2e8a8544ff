"""The three workloads: ``synth-d1``, ``grid-d4`` and ``cli-files``.

Each is a closed loop with one client. Iteration ``k`` of a run with seed
``s`` draws its inputs from ``numpy.random.default_rng([s, salt, k])``, so a
seed fixes every input while the iteration count follows the machine's
speed. Only calls into ``qwss`` (library workloads) or the CLI child (on
``cli-files``) are inside the timed region; input generation and output
checks are not.

The checks hold whatever stream layout ``synthesize`` uses and whichever of
``C`` or ``C^H`` a covariance routine returns: statistical checks use bounds
calibrated over many seeds, and exact checks compare zero-lag values, traces
or Frobenius norms, which the two conventions share.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np

import harness
import layers
from qwss import cli, filters, measure, quantum, sampling, serialize


def _rng(seed: int, salt: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt, k])


def _random_psd(rng: np.random.Generator, d: int, floor: float) -> np.ndarray:
    """Generic (so non-commuting) Hermitian matrix with spectrum >= floor."""
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return b @ b.conj().T / d + floor * np.eye(d)


def _quantum_model(nus, system_ops, env_dim: int) -> quantum.QuantumModel:
    """One mode per off-diagonal matrix unit of the environment: with the
    maximally mixed state these are centered and mutually orthogonal, and
    each mode weight is ``1/env_dim``."""
    eye = np.eye(env_dim)
    units = [np.outer(eye[i], eye[j]) for i in range(env_dim) for j in range(env_dim) if i != j]
    modes = tuple(quantum.Mode(nu, m, e) for nu, m, e in zip(nus, system_ops, units))
    return quantum.QuantumModel(
        dim_system=system_ops.shape[1], dim_environment=env_dim, env_state=eye / env_dim, modes=modes
    )


def _rel(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b))


def _within(problems: list, what: str, value: float, bound: float) -> None:
    if not value <= bound:
        problems.append(f"{what} = {value:.3e} exceeds {bound:.1e}")


class Samples:
    """Iteration times of one run: untraced, traced, CLI start-up, and the
    wall times of the ``demo ou`` calls among the untraced CLI calls."""

    def __init__(self):
        self.plain: list[float] = []
        self.traced: list[float] = []
        self.startup: list[float] = []
        self.demo: list[float] = []
        self.child_rss_mb = 0.0


class LibraryWorkload:
    """Loop of ``inputs`` (untimed), ``run`` (timed) and ``check`` (untimed).

    With a tracer, odd iterations call the layers through its wrappers and
    even ones call them directly, so both sets share any drift.
    """

    salt = 0

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        # ``tiny`` keeps the sizes: the statistical checks are calibrated
        # for them, and a short run already makes only one or two iterations.
        self.seed = seed
        self.workdir = workdir

    def loop(self, seconds: float, tally: harness.Tally, between, tracer=None) -> Samples:
        """Iterate for ``seconds``, calling ``between(progress)`` before each
        iteration with the share of the run gone."""
        samples = Samples()
        traced_api = tracer.api() if tracer else None
        start = time.perf_counter()
        k, least = 0, 2 if tracer else 1
        while k < least or time.perf_counter() - start < seconds:
            between((time.perf_counter() - start) / seconds)
            inp = self.inputs(_rng(self.seed, self.salt, k))
            use_trace = tracer is not None and k % 2 == 1
            k += 1
            if use_trace:
                tracer.begin()
            try:
                t0 = time.perf_counter()
                out = self.run(inp, traced_api if use_trace else layers.RAW)
                elapsed = time.perf_counter() - t0
            except Exception as exc:  # a raising iteration is a failed one
                tally.record([f"iteration {k - 1} raised {exc!r}"])
                continue
            finally:
                if use_trace:
                    tracer.end()
            (samples.traced if use_trace else samples.plain).append(elapsed)
            tally.record(self.check(inp, out))
        return samples


class SynthD1(LibraryWorkload):
    """Scalar OU loop as a library user runs it; ``synthesize`` dominates."""

    salt = 1
    band, bins, dt, n, lags, segment = 8.0, 1024, 0.05, 2**14, 60, 256
    # Calibrated over 300 (seed, iteration) draws with gamma in [0.5, 2]:
    # the lag estimate's relative L2 error against ou_covariance over lags
    # 0..60 (statistical error plus the band-limit bias) reached 0.16, median
    # 0.07, and the Welch total-mass error reached 0.11, median 0.02. The
    # bounds are more than twice the largest values seen.
    LAG_BOUND = 0.4
    MASS_BOUND = 0.3

    def inputs(self, rng):
        return {"gamma": float(rng.uniform(0.5, 2.0)), "seed": int(rng.integers(2**31))}

    def run(self, inp, api):
        noise = api.white_noise([[1.0]], band=self.band, bins=self.bins)
        mu = api.apply_filter(noise, filters.ExpOperator(gamma=[[inp["gamma"]]], a=[[1.0]]))
        traj = api.synthesize(mu, dt=self.dt, n=self.n, seed=inp["seed"])
        return mu, api.lag_covariance(traj, self.lags), api.welch_estimate(traj, self.segment)

    def errors(self, inp, out) -> tuple[float, float]:
        mu, table, welch = out
        g = [[inp["gamma"]]]
        theory = np.stack(
            [filters.ou_covariance(g, [[1.0]], [[1.0]], m * self.dt) for m in range(self.lags + 1)]
        )
        return _rel(table.values, theory), _rel(measure.total_mass(welch), measure.total_mass(mu))

    def check(self, inp, out):
        lag_err, mass_err = self.errors(inp, out)
        problems = []
        _within(problems, "lag estimate error", lag_err, self.LAG_BOUND)
        _within(problems, "Welch total mass error", mass_err, self.MASS_BOUND)
        return problems


class GridD4(LibraryWorkload):
    """Dim-4 non-commuting spectral work with no synthesis: the per-bin
    linalg loops of ``apply_filter`` and grid validation, the per-lag loop of
    ``lag_covariance``, the Bochner transform and the kernel check."""

    salt = 4
    dim, band, bins, dt, lags, inv_bins, points = 4, 50.0, 4096, 0.01, 256, 1024, 48
    env_dim, traj_n, est_lags, segment = 8, 2**15, 128, 512
    # Largest | ||C(tau)||_F - ||ou_covariance(tau)||_F | over all lags, as a
    # share of ||ou_covariance(0)||_F, from the band limit and the midpoint
    # rule: at most 4.2e-3 over 40 draws.
    OU_BOUND = 2e-2
    # Relative Frobenius errors of the white-trajectory estimates: at most
    # 0.016 over 40 draws.
    EST_BOUND = 0.1

    def inputs(self, rng):
        d, n, modes = self.dim, self.traj_n, self.env_dim * (self.env_dim - 1)
        inp = {
            "s": _random_psd(rng, d, 0.5),
            "gamma": _random_psd(rng, d, 0.5),
            "idx": np.sort(rng.choice(self.lags + 1, size=self.points, replace=False)),
            "nus": rng.permutation(np.linspace(-20.0, 20.0, modes)),
            "system_ops": rng.normal(size=(modes, d, d)) + 1j * rng.normal(size=(modes, d, d)),
            "cov": _random_psd(rng, d, 0.5),
        }
        # white complex Gaussian rows x_t = L z_t with E[x x^H] = L L^H = cov
        z = (rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))) / np.sqrt(2.0)
        inp["samples"] = z @ np.linalg.cholesky(inp["cov"]).T
        return inp

    def run(self, inp, api):
        d = self.dim
        grid = api.DensityGrid(-self.band, self.band, np.broadcast_to(inp["s"], (self.bins, d, d)))
        mu = measure.OperatorSpectralMeasure(dim=d, atoms=(), density=grid)
        filtered = api.apply_filter(mu, filters.ExpOperator(gamma=inp["gamma"], a=np.eye(d)))
        table = api.covariance_from_spectrum(filtered, dt=self.dt, lags=self.lags)
        spectrum = api.spectrum_from_covariance(table, bins=self.inv_bins)
        idx = inp["idx"]
        verdict = api.check_psd_kernel(table, times=idx * self.dt)
        blocks = np.stack([np.stack([table.at_index(int(b - a)) for b in idx]) for a in idx])
        fact = api.kolmogorov_decompose(blocks)
        model_mu = api.model_spectral_measure(_quantum_model(inp["nus"], inp["system_ops"], self.env_dim))
        traj = sampling.Trajectory(dt=self.dt, samples=inp["samples"])
        est = api.lag_covariance(traj, self.est_lags)
        welch = api.welch_estimate(traj, self.segment)
        return filtered, table, spectrum, verdict, blocks, fact, model_mu, est, welch

    def check(self, inp, out):
        filtered, table, spectrum, verdict, blocks, fact, model_mu, est, welch = out
        problems = []
        c0 = table.values[0]
        _within(problems, "Bochner C(0) vs total mass", _rel(c0, measure.total_mass(filtered)), 1e-12)
        theory = np.array(
            [
                np.linalg.norm(filters.ou_covariance(inp["gamma"], inp["s"], np.eye(self.dim), m * self.dt))
                for m in range(self.lags + 1)
            ]
        )
        gap = np.abs(np.linalg.norm(table.values, axis=(1, 2)) - theory).max() / theory[0]
        _within(problems, "||C(tau)||_F vs closed form", gap, self.OU_BOUND)
        _within(problems, "lag-window mass vs C(0)", _rel(measure.total_mass(spectrum), c0), 1e-9)
        if not verdict.passed:
            problems.append(f"kernel check failed, witness {verdict.witness:.3e}")
        recon = np.abs(fact.reconstruction() - blocks).max() / max(1.0, np.abs(blocks).max())
        _within(problems, "Kolmogorov reconstruction error", recon, 1e-9)
        dk = self.env_dim
        expected_trace = np.sum(np.abs(inp["system_ops"]) ** 2) / dk
        if len(model_mu.atoms) != dk * (dk - 1):
            problems.append(f"model measure has {len(model_mu.atoms)} atoms")
        trace = np.trace(measure.total_mass(model_mu)).real
        _within(problems, "model mass trace error", abs(trace - expected_trace) / expected_trace, 1e-12)
        cov = inp["cov"]
        _within(problems, "lag estimate C(0) error", _rel(est.values[0], cov), self.EST_BOUND)
        off = np.linalg.norm(est.values[1:], axis=(1, 2)).max() / np.linalg.norm(cov)
        _within(problems, "lag estimate off-zero lags", off, self.EST_BOUND)
        _within(problems, "Welch total mass error", _rel(measure.total_mass(welch), cov), self.EST_BOUND)
        return problems


class CliFiles:
    """File-to-file CLI calls, one ``python -m qwss`` child each, cycling in a
    fixed order through all nine subcommands on dim-2 inputs written by the
    benchmark. Runs are whole cycles, so every subcommand weighs the same in
    the iteration statistics.

    A run makes a number of cycles fixed by its length, not by the machine's
    speed: ``round(seconds / CYCLE_SECONDS)`` untraced. Were the count to follow
    the speed, the mix of subcommands around ``iter_tail_s`` would change
    with it, and a faster build could read as a slower tail.
    """

    salt = 9
    dt, band = 0.05, 10.0
    bins, lags, points, env_dim, n, segment, est_lags, demo_args = 1024, 256, 48, 8, 2**14, 256, 60, ()
    # The self-test's preset.
    TINY = {
        "bins": 64, "lags": 32, "points": 8, "env_dim": 3, "n": 1024, "segment": 64, "est_lags": 16,
        "demo_args": (
            "--band", "5", "--bins", "256", "--dt", "0.05", "--n", "1024", "--lags", "20", "--segment", "128",
        ),
    }
    # Run seconds per cycle: 55 s make 4 cycles, 8 to 10 s each on a 2-core
    # x86_64 VM at the benchmark's first commit. With 4 cycles the 4 demo
    # and 4 synth calls are the slowest, and iter_tail_s is the third
    # slowest of the other 28 calls, which one slow call cannot move. Over
    # ten runs that recorded every call, in a quiet spell of the host,
    # iter_tail_s over iter_p50_s spread by 0.03 and 0.09 in two windows of
    # 4 cycles, 0.09 and 0.10 in two of 5 (where one slow call sets the
    # tail), and 0.10 and 0.18 with 6 and 7 (where a synth call does). A
    # traced cycle also runs every call in-process.
    CYCLE_SECONDS, TRACED_CYCLE_SECONDS = 14.0, 13.0

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed, self.workdir = seed, workdir
        if tiny:
            self.__dict__.update(self.TINY)

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def _write(self, name: str, data: bytes) -> None:
        (self.workdir / name).write_bytes(data)

    def _read(self, name: str) -> bytes:
        return (self.workdir / name).read_bytes()

    def write_inputs(self, rng) -> dict:
        """Write one cycle's input files; return what the checks compare with."""
        s = _random_psd(rng, 2, 0.5)
        mu = filters.white_noise(s, band=self.band, bins=self.bins)
        self._write("mu.json", serialize.serialize_measure(mu))
        filt = filters.ExpOperator(gamma=_random_psd(rng, 2, 0.5), a=rng.normal(size=(2, 2)))
        self._write("filter.json", serialize.serialize_filter(filt))
        v = rng.normal(size=(self.points, 8, 2)) + 1j * rng.normal(size=(self.points, 8, 2))
        blocks = np.einsum("irk,jrl->ijkl", v.conj(), v)
        self._write("kernel.json", serialize.serialize_kernel(blocks))
        modes = self.env_dim * (self.env_dim - 1)
        ops = rng.normal(size=(modes, 2, 2)) + 1j * rng.normal(size=(modes, 2, 2))
        model = _quantum_model(rng.permutation(np.linspace(-8.0, 8.0, modes)), ops, self.env_dim)
        self._write("model.json", serialize.serialize_model(model))
        idx = np.sort(rng.choice(self.lags + 1, size=self.points, replace=False))
        return {
            "blocks": blocks,
            "modes": modes,
            "model_trace": float(np.sum(np.abs(ops) ** 2) / self.env_dim),
            "times": ",".join(repr(float(i * self.dt)) for i in idx),
            "seed": int(rng.integers(2**31)),
        }

    def argv(self, sub: str, expect: dict) -> list[str]:
        p, dt = self.path, repr(self.dt)
        return {
            "filter": ["filter", p("mu.json"), p("filter.json"), p("filtered.json")],
            "bochner": ["bochner", p("filtered.json"), p("cov.csv"), "--dt", dt, "--lags", str(self.lags)],
            "inverse": ["inverse", p("cov.csv"), p("inverse.json"), "--bins", str(self.bins)],
            "checkpsd": ["checkpsd", p("cov.csv"), "--times", expect["times"], "--out", p("verdict.json")],
            "kolmogorov": ["kolmogorov", p("kernel.json"), p("factors.json")],
            "model": [
                "model", p("model.json"), p("model_mu.json"),
                "--covariance", p("model_cov.csv"), "--dt", dt, "--lags", str(self.lags),
            ],
            "synth": [
                "synth", p("filtered.json"), p("traj.qwss"),
                "--dt", dt, "--n", str(self.n), "--seed", str(expect["seed"]),
            ],
            "estimate": [
                "estimate", p("traj.qwss"), p("est.json"), "--segment", str(self.segment),
                "--covariance", p("est.csv"), "--lags", str(self.est_lags),
            ],
            "demo": ["demo", "ou", p("demo"), *self.demo_args],
        }[sub]

    def check(self, sub: str, child: harness.Child, expect: dict) -> list[str]:
        """Exit 0, empty stderr, and outputs that decode with the library
        readers and agree with the inputs or with each other."""
        problems = harness.child_problems(child)
        if problems:
            return problems
        try:
            getattr(self, f"_check_{sub}")(expect, problems, child)
        except Exception as exc:  # an unreadable output is a failed call
            problems.append(f"{sub} output rejected: {exc!r}")
        return problems

    def _check_filter(self, expect, problems, child):
        mu = serialize.deserialize_measure(self._read("filtered.json"))
        expect["filtered_mass"] = measure.total_mass(mu)
        if mu.dim != 2 or mu.density.bins != self.bins:
            problems.append(f"filtered measure has dim {mu.dim}, {mu.density.bins} bins")

    def _check_bochner(self, expect, problems, child):
        table = serialize.covariance_from_csv(self._read("cov.csv"))
        expect["c0"] = table.values[0]
        if table.values.shape[0] != self.lags + 1:
            problems.append(f"covariance table has {table.values.shape[0]} rows")
        _within(problems, "C(0) vs filtered mass", _rel(table.values[0], expect["filtered_mass"]), 1e-9)

    def _check_inverse(self, expect, problems, child):
        mu = serialize.deserialize_measure(self._read("inverse.json"))
        if mu.density.bins != self.bins:
            problems.append(f"inverse measure has {mu.density.bins} bins")
        _within(problems, "inverse mass vs C(0)", _rel(measure.total_mass(mu), expect["c0"]), 1e-9)

    def _check_checkpsd(self, expect, problems, child):
        data = self._read("verdict.json")
        verdict = serialize.deserialize_verdict(data)
        if json.loads(child.stdout) != json.loads(data):
            problems.append("verdict on stdout differs from verdict file")
        if not verdict.passed or verdict.points != self.points:
            problems.append(f"verdict {verdict}")

    def _check_kolmogorov(self, expect, problems, child):
        fact = serialize.deserialize_factorization(self._read("factors.json"))
        blocks = expect["blocks"]
        err = np.abs(fact.reconstruction() - blocks).max() / np.abs(blocks).max()
        _within(problems, "Kolmogorov reconstruction error", err, 1e-9)

    def _check_model(self, expect, problems, child):
        mu = serialize.deserialize_measure(self._read("model_mu.json"))
        mass = measure.total_mass(mu)
        if len(mu.atoms) != expect["modes"]:
            problems.append(f"model measure has {len(mu.atoms)} atoms")
        err = abs(np.trace(mass).real - expect["model_trace"]) / expect["model_trace"]
        _within(problems, "model mass trace error", err, 1e-9)
        table = serialize.covariance_from_csv(self._read("model_cov.csv"))
        _within(problems, "model C(0) vs mass", _rel(table.values[0], mass), 1e-9)

    def _check_synth(self, expect, problems, child):
        traj = serialize.trajectory_from_binary(self._read("traj.qwss"))
        x = traj.samples
        expect["sample_c0"] = x.T @ x.conj() / traj.n
        if traj.n != self.n or traj.dim != 2:
            problems.append(f"trajectory has n={traj.n}, dim={traj.dim}")

    def _check_estimate(self, expect, problems, child):
        mu = serialize.deserialize_measure(self._read("est.json"))
        if mu.density.bins != self.segment:
            problems.append(f"Welch estimate has {mu.density.bins} bins")
        table = serialize.covariance_from_csv(self._read("est.csv"))
        if table.values.shape[0] != self.est_lags + 1:
            problems.append(f"lag estimate has {table.values.shape[0]} rows")
        _within(problems, "lag estimate C(0) vs sample covariance", _rel(table.values[0], expect["sample_c0"]), 1e-9)

    def _check_demo(self, expect, problems, child):
        outdir = self.workdir / "demo"
        problems += harness.summary_problems(outdir)
        for name in ("spectrum.json", "estimated_spectrum.json"):
            serialize.deserialize_measure((outdir / name).read_bytes())
        for name in ("covariance.csv", "covariance_theory.csv", "estimated_covariance.csv"):
            serialize.covariance_from_csv((outdir / name).read_bytes())
        serialize.trajectory_from_binary((outdir / "trajectory.qwss").read_bytes())

    def golden(self, tally: harness.Tally) -> None:
        """Once per run: ``demo ou`` at the parameters of the checked-in
        golden summary must reproduce its SHA-256 hashes."""
        summary = json.loads(harness.GOLDEN_SUMMARY.read_text())
        flags = []
        for key, value in summary["parameters"].items():
            flags += [f"--{key}", str(value)]
        outdir = self.workdir / "golden"
        child = harness.run_child(harness.qwss_argv("demo", "ou", str(outdir), *flags), self.workdir)
        tally.record(harness.child_problems(child) or harness.summary_problems(outdir, summary["outputs"]))

    def _in_process(self, argv: list[str], tracer, sub: str, tally: harness.Tally) -> float:
        """The same call through ``qwss.cli.main`` in this process, with the
        layer names it imported wrapped when ``tracer`` is given."""
        api = tracer.api() if tracer else layers.RAW
        sink = io.StringIO()
        with layers.patched(cli, api), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - t0
        tally.record([] if code == 0 else [f"in-process {sub} exit code {code}"])
        if tracer:
            tracer.add(f"cli.{sub}", seconds)
        return seconds

    def loop(self, seconds: float, tally: harness.Tally, between, tracer=None) -> Samples:
        """The run's whole cycles, calling ``between(progress)`` before each
        call with the share of calls made.

        With a tracer, each call also runs in-process (odd cycles traced);
        its start-up cost is the child's wall time minus the in-process time.
        """
        self.golden(tally)
        samples = Samples()
        per_cycle = self.TRACED_CYCLE_SECONDS if tracer else self.CYCLE_SECONDS
        cycles = max(2 if tracer else 1, round(seconds / per_cycle))
        calls = cycles * len(layers.CLI_SUBCOMMANDS)
        for c in range(cycles):
            expect = self.write_inputs(_rng(self.seed, self.salt, c))
            use_trace = tracer is not None and c % 2 == 1
            if use_trace:
                tracer.begin()
            for i, sub in enumerate(layers.CLI_SUBCOMMANDS):
                between((c * len(layers.CLI_SUBCOMMANDS) + i) / calls)
                argv = self.argv(sub, expect)
                child = harness.run_child(harness.qwss_argv(*argv), self.workdir)
                samples.child_rss_mb = max(samples.child_rss_mb, child.maxrss_mb)
                tally.record(self.check(sub, child, expect))
                if tracer is None:
                    samples.plain.append(child.seconds)
                    if sub == "demo":
                        samples.demo.append(child.seconds)
                    continue
                t = self._in_process(argv, tracer if use_trace else None, sub, tally)
                (samples.traced if use_trace else samples.plain).append(t)
                samples.startup.append(child.seconds - t)
            if use_trace:
                tracer.end()
        return samples


WORKLOADS = {"synth-d1": SynthD1, "grid-d4": GridD4, "cli-files": CliFiles}
