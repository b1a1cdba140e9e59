#!/usr/bin/env python
"""Fleet-kernel scale benchmark: nodes*intervals per second.

Runs the full hardened cluster loop (per-node ``Platform.step()``,
per-node telemetry filtering, batched all-VF pricing, the capper's
column walk per model group) at several roster sizes and reports the
scale curve.

Gate (CI runs the small-roster smoke)::

    python benchmarks/bench_fleet_scale.py --sizes 64 --intervals 8

every round's budget shares sum to no more than the cluster cap.

Decision equivalence with the per-node oracles is pinned by the golden
streams in ``tests/data/control_streams.golden.json``.

Writes ``results/fleet_scale.txt`` and a ``fleet_scale`` entry in
``BENCH_results.json``.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _harness import record_bench  # noqa: E402

#: Slack for float rounding when summing shares against the cap.
CAP_RTOL = 1e-9


#: ~5% telemetry fault rates on a third of the roster plus one dead
#: stream: the hardened loop is timed on fault-injected mixed-SKU
#: rosters, not a clean lab fleet (``benchmarks/perf`` uses this mix).
def _fault_specs():
    from repro.faults.injection import FaultSpec

    return [
        FaultSpec(
            drop_rate=0.05,
            spike_rate=0.05,
            stuck_rate=0.03,
            counter_wrap_rate=0.04,
            stale_rate=0.05,
        ),
        None,
        FaultSpec(dropout_after_interval=12),
    ]


def _build_manager(registry, n_nodes, seed):
    from repro.fleet.cluster_cap import ClusterPowerManager
    from repro.fleet.simulator import make_fleet
    from repro.serve.service import SKU_SPECS

    sku_list = [SKU_SPECS[k] for k in sorted(SKU_SPECS)]
    specs = [sku_list[i % len(sku_list)] for i in range(n_nodes)]
    fleet = make_fleet(
        specs,
        registry,
        base_seed=seed,
        fault_specs=_fault_specs(),
    )
    return ClusterPowerManager(
        fleet,
        cap_schedule=52.0 * n_nodes,
        policy="waterfill",
        harden=True,
    )


def _timed_run(manager, intervals):
    """(wall seconds, rounds whose shares exceed the cap)."""
    started = time.perf_counter()
    run = manager.run(intervals)
    wall = time.perf_counter() - started
    over_cap = sum(
        sum(shares) > cap * (1.0 + CAP_RTOL)
        for shares, cap in zip(run.shares, run.caps)
    )
    return wall, over_cap


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[64, 1024, 10000],
        help="roster sizes to sweep (default: 64 1024 10000)",
    )
    parser.add_argument(
        "--intervals", type=int, default=4,
        help="decision intervals per roster size (default: 4)",
    )
    parser.add_argument(
        "--seed", type=int, default=20141213,
        help="base seed for training and fleets",
    )
    args = parser.parse_args(argv)

    from repro.fleet.registry import ModelRegistry
    from repro.serve.service import SKU_SPECS
    from repro.workloads.suites import spec_combinations

    # Train before any clock starts: the bench scores the online loop.
    registry = ModelRegistry(
        combos=spec_combinations()[:3],
        bench_intervals=4,
        cool_intervals=20,
        base_seed=args.seed,
    )
    for sku in sorted(SKU_SPECS):
        registry.get(SKU_SPECS[sku])

    total_started = time.perf_counter()
    curve = []
    for size in args.sizes:
        mgr = _build_manager(registry, size, seed=args.seed)
        wall, over_cap = _timed_run(mgr, args.intervals)
        curve.append((size, size * args.intervals / wall, wall, over_cap))
    total_wall = time.perf_counter() - total_started

    lines = [
        "Fleet-kernel scale: hardened cluster loop, nodes*intervals/s",
        "============================================================",
        "roster mix: {} SKUs interleaved, ~5% fault rates + one dead "
        "stream".format(len(SKU_SPECS)),
        "scale curve:",
    ]
    for size, rate, wall, over_cap in curve:
        lines.append(
            "  {:>6d} nodes x {} intervals: {:>8.0f} node-intervals/s "
            "({:.1f}s), rounds over cap {}".format(
                size, args.intervals, rate, wall, over_cap
            )
        )
    lines.append("gate: every round's shares within the cap on every roster")
    report_text = "\n".join(lines)
    print(report_text)

    results_dir = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "results"
    )
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "fleet_scale.txt"), "w") as handle:
        handle.write(report_text + "\n")

    top_size, top_rate = curve[-1][:2]
    metrics = {
        "top_roster_nodes": top_size,
        "top_roster_node_intervals_per_s": round(top_rate, 1),
    }
    for size, rate, _wall, _over_cap in curve:
        metrics["roster_{}_node_intervals_per_s".format(size)] = round(rate, 1)
    record_bench("fleet_scale", total_wall, metrics)

    failures = [
        "{}-node roster: shares exceeded the cap in {} of {} rounds".format(
            size, over_cap, args.intervals
        )
        for size, _rate, _wall, over_cap in curve
        if over_cap
    ]
    if failures:
        for failure in failures:
            print("FAIL: " + failure)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
