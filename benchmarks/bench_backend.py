#!/usr/bin/env python
"""Backend-boundary gate: record->replay identity + guarded flaky storm.

Runs the four-leg backend roundtrip experiment
(:mod:`repro.experiments.backend_roundtrip`) and enforces its gates:

- a live closed-loop run recorded to a trace and replayed through the
  identical pipeline yields **bit-identical** samples and decisions;
- a disabled ``FlakyBackend`` is bitwise-transparent;
- the reference flaky storm behind the ``BackendGuard`` finishes with
  zero uncaught exceptions, bounded retries, at least one quarantine
  entry and exit, and a hardened MAE within 2x the clean baseline.

Plain script on purpose (CI runs it as a smoke gate)::

    python benchmarks/bench_backend.py --scale quick

Writes ``results/backend.txt`` and a ``BENCH_results.json`` entry; a
violated gate prints a ``FAIL:`` line and exits non-zero.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _harness import record_bench  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=["full", "quick"], default="quick",
        help="training depth and default leg length (default: quick)",
    )
    parser.add_argument(
        "--intervals", type=int, default=None,
        help="decision intervals per leg (default: 60 quick / 120 full)",
    )
    parser.add_argument(
        "--seed", type=int, default=20141213,
        help="base seed for training, simulation, and fault schedules",
    )
    args = parser.parse_args(argv)

    from repro.experiments import backend_roundtrip
    from repro.experiments.common import get_context

    # Train before the clock starts: the gate times the boundary, not
    # model construction.
    ctx = get_context(scale=args.scale, base_seed=args.seed)
    ctx.full_ppep

    started = time.perf_counter()
    result = backend_roundtrip.run(ctx, intervals=args.intervals)
    wall_s = time.perf_counter() - started

    report_text = backend_roundtrip.format_report(result, ctx)
    print(report_text)

    results_dir = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "results"
    )
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "backend.txt"), "w") as handle:
        handle.write(report_text + "\n")

    stats = result.guard_health["stats"]
    record_bench(
        "backend",
        wall_s,
        {
            "intervals": result.intervals,
            "trace_rows": result.trace_rows,
            "replay_bit_identical": (
                result.replay_samples_identical
                and result.replay_decisions_identical
            ),
            "disabled_flaky_identical": result.disabled_flaky_identical,
            "storm_crashes": result.storm_crashes,
            "retries": stats["retries"],
            "degraded": stats["degraded"],
            "quarantine_entries": stats["quarantine_entries"],
            "quarantine_exits": stats["quarantine_exits"],
            "clean_mae_w": round(result.clean_mae_w, 3),
            "storm_mae_w": round(result.storm_mae_w, 3),
            "passed": result.passed,
        },
    )

    if not result.passed:
        failures = []
        if not result.replay_samples_identical:
            failures.append("replayed samples diverge from the live run")
        if not result.replay_decisions_identical:
            failures.append("replayed decisions diverge from the live run")
        if result.trace_repairs:
            failures.append(
                "clean trace needed repairs: {}".format(result.trace_repairs)
            )
        if not result.disabled_flaky_identical:
            failures.append("disabled flaky wrapper is not transparent")
        if result.storm_crashes:
            failures.append("storm leg raised out of the control loop")
        if not result.retries_bounded:
            failures.append("retry budget exceeded")
        if not result.quarantine_exercised:
            failures.append("outage did not drive quarantine enter+exit")
        if not result.mae_within_gate:
            failures.append(
                "storm MAE {:.2f} W exceeds {}x clean {:.2f} W".format(
                    result.storm_mae_w,
                    backend_roundtrip.MAE_GATE_FACTOR,
                    result.clean_mae_w,
                )
            )
        for failure in failures:
            print("FAIL: " + failure)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
