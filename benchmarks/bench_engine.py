#!/usr/bin/env python
"""Engine speed benchmark: the vector kernel against the scalar oracle.

Steps every experiment-context roster combination at VF5 twice -- once
through the scalar oracle ``Platform._step_scalar``, once through the
kernel ``Platform.step`` -- and reports the wall-clock ratio of the
stepping alone (platform set-up and ``Trace`` wrapping are not timed).
Also sanity-checks the trace-cache fingerprints of every key the
trainer would use for collisions -- a collision would make the disk
cache silently serve the wrong trace, so it is a hard failure.

Plain script on purpose (no pytest-benchmark dependency), so CI can run
it directly::

    python benchmarks/bench_engine.py --scale quick

Writes ``results/engine.txt`` and a ``BENCH_results.json`` entry.
Exits non-zero on a fingerprint collision or a speedup below
``--min-speedup`` (ratio on the same machine, so load-tolerant).
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _harness import record_bench  # noqa: E402


def sweep_seconds(step, scale, repeats):
    """Best-of-``repeats`` roster sweep at VF5, stepped by ``step``.

    Each roster platform is built as :meth:`PPEPTrainer.collect_trace`
    builds it (same seed, VF5, initial temperature), then advanced
    ``BENCH_INTERVALS + WARMUP`` intervals by ``step(platform)``.
    """
    from repro.core.ppep import stable_seed
    from repro.experiments.common import ExperimentContext
    from repro.hardware.platform import Platform

    ctx = ExperimentContext(scale=scale)
    spec, trainer = ctx.spec, ctx.trainer
    vf5 = spec.vf_table.fastest
    intervals = trainer.BENCH_INTERVALS + trainer.WARMUP
    best = None
    for _ in range(repeats):
        elapsed = 0.0
        for combo in ctx.roster:
            platform = Platform(
                spec,
                seed=stable_seed(trainer.base_seed, combo.name, vf5.index),
                initial_temperature=spec.ambient_temperature + 15.0,
            )
            platform.set_all_vf(vf5)
            platform.set_assignment(combo.assignment(spec))
            started = time.perf_counter()
            for _ in range(intervals):
                step(platform)
            elapsed += time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def check_fingerprints(scale):
    """Fingerprint every key the sweep could generate; count collisions."""
    from repro.analysis.persistence import trace_fingerprint
    from repro.experiments.common import ExperimentContext

    ctx = ExperimentContext(scale=scale)
    trainer = ctx.trainer
    keys = []
    for combo in ctx.roster:
        for vf in ctx.spec.vf_table:
            for pg in (False, True):
                keys.append(
                    trainer._trace_key(
                        "bench", combo.name, vf.index, pg,
                        trainer.BENCH_INTERVALS, trainer.WARMUP,
                    )
                )
    for vf in ctx.spec.vf_table:
        keys.append(
            trainer._trace_key(
                "cooling", vf.index, trainer.HEAT_INTERVALS,
                trainer.COOL_INTERVALS,
            )
        )
        keys.append(
            trainer._trace_key(
                "alpha", vf.index, ctx.spec.num_cus,
                trainer.SWEEP_INTERVALS, trainer.WARMUP,
            )
        )
        for busy in range(ctx.spec.num_cus + 1):
            for pg in (False, True):
                keys.append(
                    trainer._trace_key(
                        "pg-sweep", vf.index, busy, pg,
                        trainer.SWEEP_INTERVALS,
                    )
                )
    fingerprints = [trace_fingerprint(key) for key in keys]
    return len(fingerprints), len(fingerprints) - len(set(fingerprints))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=["quick", "full"], default="quick")
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--min-speedup", type=float, default=5.0,
        help="fail below this vector-vs-scalar ratio (0 disables)",
    )
    args = parser.parse_args(argv)

    from repro.hardware.platform import Platform

    total_keys, collisions = check_fingerprints(args.scale)
    scalar_s = sweep_seconds(Platform._step_scalar, args.scale, args.repeats)
    vector_s = sweep_seconds(Platform.step, args.scale, args.repeats)
    speedup = scalar_s / vector_s

    lines = [
        "Engine benchmark: {}-scale roster sweep at VF5, stepping only".format(
            args.scale
        ),
        "  scalar oracle : {:8.1f} ms".format(scalar_s * 1000),
        "  vector kernel : {:8.1f} ms".format(vector_s * 1000),
        "  speedup       : {:8.2f}x  (threshold {:.1f}x)".format(
            speedup, args.min_speedup
        ),
        "  cache keys    : {} fingerprinted, {} collisions".format(
            total_keys, collisions
        ),
    ]
    report = "\n".join(lines)
    print(report)

    results_dir = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "results"
    )
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "engine.txt"), "w") as handle:
        handle.write(report + "\n")
    record_bench(
        "engine",
        vector_s,
        {
            "scalar_s": round(scalar_s, 4),
            "vector_s": round(vector_s, 4),
            "speedup": round(speedup, 2),
            "cache_keys": total_keys,
            "fingerprint_collisions": collisions,
        },
    )

    if collisions:
        print("FAIL: {} trace-cache fingerprint collisions".format(collisions))
        return 1
    if args.min_speedup and speedup < args.min_speedup:
        print(
            "FAIL: speedup {:.2f}x below threshold {:.1f}x".format(
                speedup, args.min_speedup
            )
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
