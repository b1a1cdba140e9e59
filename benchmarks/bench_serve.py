#!/usr/bin/env python
"""Serve-loop throughput benchmark: intervals ingested per second.

Drives the full streaming stack in loopback mode -- a TCP client
feeding the asyncio ingestor, per-SKU forked shard workers running the
hardened pipeline, checkpoints on a period -- and scores sustained
intervals-ingested/sec across at least two SKU shards.

The smoke contract (CI runs this): at least 2,000 intervals through at
least two shards, with **zero intervals dropped without a backpressure
signal** -- every accepted interval must be processed; overload may
only ever surface as an explicit retry to the sender.  Plain script on
purpose (no pytest-benchmark dependency)::

    python benchmarks/bench_serve.py --intervals 500

Writes ``results/serve.txt`` and a ``BENCH_results.json`` entry.
"""

import argparse
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _harness import record_bench  # noqa: E402


def _lines_per_table(report):
    """Mean over shards of the lines each decided per price table."""
    values = [
        shard["lines_per_table"]
        for shard in report["shards"].values()
        if shard["lines_per_table"] is not None
    ]
    return sum(values) / len(values) if values else float("nan")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--intervals", type=int, default=500,
        help="intervals per node (default: 500; with 2 SKUs x 2 nodes "
        "that is 2,000 total)",
    )
    parser.add_argument(
        "--nodes-per-sku", type=int, default=2,
        help="fleet width per shard (default: 2)",
    )
    parser.add_argument(
        "--queue-size", type=int, default=64,
        help="bounded shard queue depth (default: 64)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=128,
        help="intervals between shard checkpoints (default: 128)",
    )
    parser.add_argument(
        "--training", choices=["full", "quick"], default="quick",
        help="per-SKU training depth (default: quick)",
    )
    parser.add_argument(
        "--seed", type=int, default=20141213,
        help="base seed for training and the loopback fleet",
    )
    parser.add_argument(
        "--sweep-rosters", type=int, nargs="+", default=[2, 4, 8],
        help="nodes-per-SKU roster sizes for the per-shard throughput "
        "sweep (default: 2 4 8; pass 0 to skip)",
    )
    parser.add_argument(
        "--sweep-intervals", type=int, default=150,
        help="intervals per node in each sweep run (default: 150)",
    )
    args = parser.parse_args(argv)

    from repro.fleet.registry import ModelRegistry
    from repro.serve.service import SKU_SPECS, ServeConfig, run_service
    from repro.workloads.suites import spec_combinations

    skus = tuple(sorted(SKU_SPECS))
    total = args.intervals * args.nodes_per_sku * len(skus)

    if args.training == "quick":
        registry = ModelRegistry(
            combos=spec_combinations()[:3],
            bench_intervals=4,
            cool_intervals=20,
            base_seed=args.seed,
        )
    else:
        registry = ModelRegistry(base_seed=args.seed)

    # Train before the clock starts: the bench scores the serve loop,
    # not model construction (which fork then shares copy-on-write).
    for sku in skus:
        registry.get(SKU_SPECS[sku])

    def run_roster(nodes_per_sku, intervals):
        workdir = tempfile.mkdtemp(prefix="bench-serve-")
        try:
            config = ServeConfig(
                skus=skus,
                nodes_per_sku=nodes_per_sku,
                intervals=intervals,
                queue_size=args.queue_size,
                checkpoint_dir=os.path.join(workdir, "ckpt"),
                checkpoint_every=args.checkpoint_every,
                events_dir=os.path.join(workdir, "events"),
                base_seed=args.seed,
            )
            started = time.perf_counter()
            report = run_service(registry, config, mode="loopback")
            return report, time.perf_counter() - started
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    report, wall_s = run_roster(args.nodes_per_sku, args.intervals)

    # Per-shard throughput across roster widths: each shard worker runs
    # the batched kernel over its whole roster, so per-shard intervals/s
    # should hold up (not divide down) as nodes-per-SKU grows.
    sweep = []
    sweep_rosters = [n for n in args.sweep_rosters if n > 0]
    for roster in sweep_rosters:
        sweep_report, sweep_wall = run_roster(roster, args.sweep_intervals)
        per_shard = sweep_report["intervals_per_s"] / len(
            sweep_report["shards"]
        )
        sweep.append((
            roster, sweep_report["intervals_per_s"], per_shard,
            _lines_per_table(sweep_report),
        ))
        wall_s += sweep_wall

    accepted = report["accepted"]
    processed = report["processed"]
    retried = report["retried"]
    dropped = accepted - processed

    lines = [
        "Serve-loop throughput (loopback TCP, forked shard workers)",
        "==========================================================",
        "shards: {} ({})".format(len(report["shards"]), ", ".join(skus)),
        "stream: {} intervals total ({} nodes/SKU x {} intervals)".format(
            total, args.nodes_per_sku, args.intervals
        ),
        "accepted: {}  processed: {}  backpressure retries: {}".format(
            accepted, processed, retried
        ),
        "restarts: {}  checkpoint period: {} intervals".format(
            report["restarts"], args.checkpoint_every
        ),
        "throughput: {:.0f} intervals ingested/s ({:.1f}s elapsed)".format(
            report["intervals_per_s"], report["elapsed_s"]
        ),
        "lines decided per price table (mean over shards): {:.2f}".format(
            _lines_per_table(report)
        ),
        "gate: accepted == processed (overload only ever surfaces as "
        "an explicit retry)",
    ]
    if sweep:
        lines.append("per-shard throughput across roster widths:")
        for roster, total_rate, per_shard, per_table in sweep:
            lines.append(
                "  {:>3d} nodes/SKU: {:>6.0f} intervals/s total, "
                "{:>6.0f}/s per shard, {:.2f} lines per table".format(
                    roster, total_rate, per_shard, per_table
                )
            )
    report_text = "\n".join(lines)
    print(report_text)

    results_dir = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "results"
    )
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "serve.txt"), "w") as handle:
        handle.write(report_text + "\n")

    metrics = {
        "shards": len(report["shards"]),
        "intervals": total,
        "accepted": accepted,
        "processed": processed,
        "retried": retried,
        "restarts": report["restarts"],
        "intervals_per_s": round(report["intervals_per_s"], 1),
    }
    for roster, total_rate, per_shard, _per_table in sweep:
        metrics["roster_{}_per_shard_intervals_per_s".format(roster)] = round(
            per_shard, 1
        )
    record_bench("serve", wall_s, metrics)

    failures = []
    if accepted != total:
        failures.append(
            "client gave up on {} of {} intervals".format(
                total - accepted, total
            )
        )
    if dropped:
        failures.append(
            "{} accepted intervals were dropped without a backpressure "
            "signal".format(dropped)
        )
    if len(report["shards"]) < 2:
        failures.append("smoke contract needs >= 2 SKU shards")
    if failures:
        for failure in failures:
            print("FAIL: " + failure)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
