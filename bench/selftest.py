#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks, on every workload, that a run emits exactly the metrics that
``BENCHMARK.json`` names, each with its unit (end-to-end ones with tracing
off, per-layer ones with tracing on), and that its outputs pass their checks.
Then flips a byte in two CLI output files and checks that both calls are
counted as failed, and makes every iteration raise and checks that a result
still comes out. Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import sys

import harness
import run

sys.path.insert(0, str(harness.SRC))


def tiny_run(workload: str, trace: bool) -> dict:
    return run.measure(workload, seed=3, seconds=0.01, trace=trace, tiny=True)["result"]


def flip_byte(path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def corrupted_cli_run() -> dict:
    """A cli-files run whose ``inverse`` and ``demo`` outputs get one byte
    flipped between the call and its check; no later call reads them."""
    real = harness.run_child

    def corrupting(argv, cwd):
        child = real(argv, cwd)
        if "inverse" in argv:
            flip_byte(cwd / "inverse.json")
        elif "demo" in argv and str(cwd / "demo") in argv:
            flip_byte(cwd / "demo" / "trajectory.qwss")
        return child

    harness.run_child = corrupting
    try:
        return run.measure("cli-files", 3, 0.01, False, tiny=True)
    finally:
        harness.run_child = real


def raising_run() -> dict:
    """A grid-d4 run whose every iteration raises: it must still return a
    result, with no metrics and every iteration counted as failed."""
    import workloads

    def broken(self, inp, api):
        raise RuntimeError("deliberate failure")

    real = workloads.GridD4.run
    workloads.GridD4.run = broken
    try:
        return run.measure("grid-d4", 3, 0.01, False, tiny=True)["result"]
    finally:
        workloads.GridD4.run = real


def main() -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0

    def report(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)

    for workload in run.WORKLOAD_NAMES:
        for trace in (False, True):
            result = tiny_run(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            report(got == wanted[trace], f"{label}: metrics and units match BENCHMARK.json")
            report(
                result["failed"] == 0 and result["attempted"] > 0,
                f"{label}: {result['failed']} of {result['attempted']} checks failed",
            )
    out = corrupted_cli_run()
    result, reasons = out["result"], out["details"]["failure_reasons"]
    report(result["failed"] == 2 and not result["correct"], f"corrupted outputs: {result['failed']} failed")
    report(any("inverse output rejected" in r for r in reasons), "flipped byte in inverse.json is caught")
    report(any("trajectory.qwss does not match" in r for r in reasons), "flipped byte in demo output is caught")
    result = raising_run()
    report(
        not result["correct"] and result["failed"] >= 1 and result["metrics"] == {},
        f"raising iterations: {result['failed']} of {result['attempted']} failed, no metrics",
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
