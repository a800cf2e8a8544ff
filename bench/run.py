#!/usr/bin/env python3
"""qwss benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload synth-d1 --seed 1 --seconds 55 --trace 0

Run from anywhere; it measures ``src/qwss`` of the checkout this file sits
in and refuses to run without it. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run. The
line before the result holds the recorded environment and the details of the
metrics (tail percentile and sample counts, first failure reasons).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

import harness

harness.pin_threads()

WORKLOAD_NAMES = ("synth-d1", "grid-d4", "cli-files")


def end_to_end(wl, workdir: Path, seconds: float, tally: harness.Tally, tiny: bool) -> tuple[dict, dict]:
    harness.setup_spawn(workdir, tally)  # warm-up, discarded
    schedule = harness.Probes()
    spawns = 1 if tiny else harness.SETUP_SPAWNS
    # Same points, so each setup spawn runs right before its reference spawn.
    setup = schedule.spread(spawns, lambda: harness.setup_spawn(workdir, tally))
    reference = schedule.spread(spawns, lambda: harness.reference_spawn(workdir, tally))
    samples = wl.loop(seconds, tally, schedule.run_due)
    schedule.finish()
    times = samples.plain
    details = {"iterations": len(times), "setup_spawns": len(setup)}
    if not times:  # every iteration raised: no timings to report
        return {}, details
    tail, pct, beyond = harness.tail(times)
    raw = {
        "setup_s": statistics.median(setup),
        "iter_p50_s": statistics.median(times),
        "iter_tail_s": tail,
        "iters_per_s": len(times) / sum(times),
    }
    scale = harness.host_scale(statistics.median(reference))
    metrics = {
        "setup_s": (raw["setup_s"] * scale, "s"),
        "iter_p50_s": (raw["iter_p50_s"] * scale, "s"),
        "iter_tail_s": (raw["iter_tail_s"] * scale, "s"),
        "iters_per_s": (raw["iters_per_s"] / scale, "1/s"),
        "peak_rss_mb": (samples.child_rss_mb or harness.peak_rss_mb(), "MB"),
    }
    details.update(raw=raw, host_scale=scale, iter_tail_percentile=pct, iter_tail_beyond=beyond)
    if samples.demo:
        details["demo_ou_s"] = statistics.median(samples.demo) * scale
    return metrics, details


def per_layer(wl, workdir: Path, seconds: float, tally: harness.Tally, tiny: bool) -> tuple[dict, dict]:
    import layers

    schedule = harness.Probes()
    imports = schedule.spread(1 if tiny else harness.IMPORT_SPAWNS, lambda: harness.importtime_spawn(workdir, tally))
    tracer = layers.Tracer()
    samples = wl.loop(seconds, tally, schedule.run_due, tracer)
    schedule.finish()
    details = {"untraced_iterations": len(samples.plain), "traced_iterations": len(samples.traced)}
    if not samples.plain or not samples.traced:  # every iteration of a kind raised
        return {}, details
    values = tracer.metrics()
    values["import.qwss_s"] = statistics.median(q for q, _ in imports)
    values["import.scipy_linalg_s"] = statistics.median(s for _, s in imports)
    values["cli.startup_s"] = statistics.median(samples.startup) if samples.startup else 0.0
    plain, traced = statistics.median(samples.plain), statistics.median(samples.traced)
    values["trace.overhead_fraction"] = (traced - plain) / plain
    units = layers.per_layer_units()
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    return metrics, details


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One run; returns the result object plus ``details``/``environment``.

    ``tiny`` is the self-test's preset: one spawn per probe, and tiny
    inputs on ``cli-files``.
    """
    import workloads

    workdir = harness.ROOT / ".bench_work" / f"{workload}-{seed}-{trace:d}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[workload](seed, workdir, tiny)
        tally = harness.Tally()
        run = per_layer if trace else end_to_end
        metrics, details = run(wl, workdir, seconds, tally, tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details["failure_reasons"] = tally.reasons
    return {
        "environment": harness.environment(seed),
        "details": details,
        "result": {
            "correct": tally.failed == 0 and bool(metrics),
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (harness.SRC / "qwss" / "__init__.py").is_file():
        print(f"no qwss package under {harness.SRC}", file=sys.stderr)
        return 2
    if args.workload == "cli-files" and not harness.GOLDEN_SUMMARY.is_file():
        print(f"missing golden summary {harness.GOLDEN_SUMMARY}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": out["environment"], "details": out["details"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
