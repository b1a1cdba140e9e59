#!/usr/bin/env python
"""Real-recording import gate: a bundled turbostat fixture end to end.

Imports ``tests/data/turbostat_single.tsv`` through
:mod:`repro.experiments.turbostat_import` -- the turbostat parser, the
telemetry filter, ``PPEP.estimate_current``, and the prediction ledger
-- and enforces the acceptance gate: the recording yields a non-empty
per-VF MAE report with zero import repairs on the clean fixture.

Plain script on purpose (CI runs it as a smoke gate)::

    python benchmarks/bench_import.py --scale quick

Writes ``results/import.txt`` and a ``BENCH_results.json`` entry; a
violated gate prints a ``FAIL:`` line and exits non-zero.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _harness import record_bench  # noqa: E402

DEFAULT_FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "tests", "data", "turbostat_single.tsv",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=["full", "quick"], default="quick",
        help="model training depth (default: quick)",
    )
    parser.add_argument(
        "--trace", default=DEFAULT_FIXTURE,
        help="turbostat recording to import (default: bundled fixture)",
    )
    parser.add_argument(
        "--seed", type=int, default=20141213,
        help="base seed for model training",
    )
    args = parser.parse_args(argv)

    from repro.experiments import turbostat_import
    from repro.experiments.common import get_context

    # Train before the clock starts: the gate times the import path,
    # not model construction.
    ctx = get_context(scale=args.scale, base_seed=args.seed)
    ctx.full_ppep

    started = time.perf_counter()
    result = turbostat_import.run(ctx, args.trace)
    wall_s = time.perf_counter() - started

    report_text = turbostat_import.format_report(result, ctx)
    print(report_text)

    results_dir = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "results"
    )
    os.makedirs(results_dir, exist_ok=True)
    with open(
        os.path.join(results_dir, "import.txt"), "w", encoding="utf-8"
    ) as handle:
        handle.write(report_text + "\n")

    clean_fixture = os.path.abspath(args.trace) == os.path.abspath(
        DEFAULT_FIXTURE
    )
    passed = result.nonempty and (not clean_fixture or not result.repairs)
    record_bench(
        "import",
        wall_s,
        {
            "trace": os.path.basename(args.trace),
            "intervals": result.intervals,
            "repairs": sum(result.repairs.values()),
            "cpus": len(result.cpu_map),
            "vf_states_scored": len(result.per_vf_mae_w),
            "mae_w": {
                "VF{}".format(vf): round(mae, 3)
                for vf, mae in result.per_vf_mae_w.items()
            },
            "drift_flags": len(result.drift_flags),
            "passed": passed,
        },
    )

    if not result.nonempty:
        print("FAIL: import produced no scoreable intervals")
        return 1
    if clean_fixture and result.repairs:
        print(
            "FAIL: clean fixture needed repairs: {}".format(result.repairs)
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
