#!/usr/bin/env python
"""Observability overhead benchmark: instrumented vs no-op pipeline.

Times the hardened online decision loop -- one node's telemetry filter
(:class:`~repro.fleet.cluster_cap.NodeControl`'s ``filter``) plus the
full Figure 5 analysis (all-VF predictions and the current-power
estimate), the per-interval work the paper's DVFS daemon performs --
over the quick-roster sample set twice:

- **baseline** -- the no-op :class:`~repro.obs.metrics.NullRegistry`
  installed, no event log, no ledger (what a run with observability
  disabled pays);
- **instrumented** -- a recording registry, an in-memory
  :class:`~repro.obs.events.EventLog`, and a
  :class:`~repro.obs.ledger.PredictionLedger` with its CUSUM detector
  live (what ``ppep-repro obs`` consumers pay), fed by the node's
  ``NodeControl.report`` (``filter_verdict`` events) and
  ``NodeControl.score`` (one row per actionable interval, scoring the
  analysis's current-power estimate).

The acceptance contract is the exit code: the instrumented loop must
stay within ``--max-overhead`` percent (default 5) of baseline.  A
shared host drifts in speed by more than that effect within seconds,
so the configurations are compared in tight pairs: every pass walks
the samples in chunks of :data:`CHUNK` intervals and times each chunk
through both pipelines back to back, alternating which goes first (so
warm-up and drift land on each side equally often).  The gate scores
the median over all pairs of the paired overhead
``(instrumented - baseline) / baseline``.  The difference of the
per-side minima of whole passes is printed alongside as a
cross-check.  Plain script on purpose (no pytest-benchmark
dependency)::

    python benchmarks/bench_obs.py --scale quick

Writes ``results/obs.txt`` and a ``BENCH_results.json`` entry.
"""

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _harness import record_bench  # noqa: E402


def _collect_samples(ctx, intervals_per_combo):
    """Pre-simulate the quick-roster workloads into one sample list.

    Simulation cost must not pollute the timed loops, so every sample
    is materialised up front; both configurations then iterate the
    identical list.
    """
    from repro.core.ppep import stable_seed
    from repro.hardware.platform import Platform

    samples = []
    for combo in ctx.roster:
        platform = Platform(
            ctx.spec,
            seed=stable_seed(ctx.base_seed, "bench-obs", combo.name),
            power_gating=ctx.spec.supports_power_gating,
            initial_temperature=ctx.spec.ambient_temperature + 15.0,
        )
        platform.set_all_vf(ctx.spec.vf_table.fastest)
        platform.set_assignment(combo.assignment(ctx.spec))
        for _ in range(intervals_per_combo):
            samples.append(platform.step())
    return samples


#: Intervals per timed chunk: ~50 ms of work, short enough that the
#: host's speed barely moves within a pair.
CHUNK = 120


def _pipelines(ppep):
    """Fresh (baseline, instrumented) node controllers, each with its
    registry, and the instrumented side's event log and ledger."""
    from repro.fleet.cluster_cap import NodeControl
    from repro.obs.events import EventLog
    from repro.obs.ledger import PredictionLedger
    from repro.obs.metrics import NullRegistry, Registry

    events = EventLog()
    ledger = PredictionLedger(events=events)
    uncapped = float("inf")
    return (
        (NodeControl("node0", ppep, uncapped), NullRegistry()),
        (
            NodeControl("node0", ppep, uncapped, events=events, ledger=ledger),
            Registry(),
        ),
    ), (events, ledger)


def _time_chunk(pipeline, samples, first):
    """Seconds one pipeline takes over ``samples`` (intervals ``first``
    onward), its registry live."""
    from repro.obs.metrics import set_registry

    control, registry = pipeline
    ppep = control.capper.ppep
    observed = control.ledger is not None
    previous = set_registry(registry)
    try:
        started = time.perf_counter()
        for interval, sample in enumerate(samples, first):
            verdict = control.filter.ingest(sample)
            snapshot = ppep.analyze(verdict.sample)
            if observed:
                control.report(interval, verdict)
                control.score(
                    interval, verdict.sample, verdict,
                    lambda _vfs: snapshot.current_estimate,
                )
        return time.perf_counter() - started
    finally:
        set_registry(previous)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=["quick", "full"], default="quick")
    parser.add_argument(
        "--intervals", type=int, default=60,
        help="simulated intervals per roster combination (default: 60)",
    )
    parser.add_argument(
        "--repeats", type=int, default=9,
        help="timed passes over the samples, each pairing the two "
        "pipelines chunk by chunk; the median paired overhead is scored",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=5.0,
        help="fail if instrumentation overhead exceeds this percent "
        "of the no-op baseline (0 disables the gate)",
    )
    args = parser.parse_args(argv)

    from repro.experiments.common import get_context

    ctx = get_context(scale=args.scale)
    started = time.perf_counter()
    ppep = ctx.full_ppep
    samples = _collect_samples(ctx, args.intervals)

    chunks = [samples[i : i + CHUNK] for i in range(0, len(samples), CHUNK)]
    base_times, instr_times, ratios, deltas = [], [], [], []
    for repeat in range(max(args.repeats, 1)):
        pipelines, (events, ledger) = _pipelines(ppep)
        totals = [0.0, 0.0]
        for k, chunk in enumerate(chunks):
            # Each pair runs back to back; which side goes first
            # alternates, so warm-up and speed drift of the host cannot
            # systematically favour either side.
            elapsed = [0.0, 0.0]
            for side in (1, 0) if (repeat + k) % 2 else (0, 1):
                elapsed[side] = _time_chunk(pipelines[side], chunk, k * CHUNK)
                totals[side] += elapsed[side]
            ratios.append(elapsed[1] / elapsed[0] - 1.0)
            deltas.append((elapsed[1] - elapsed[0]) / len(chunk))
        base_times.append(totals[0])
        instr_times.append(totals[1])
    wall_s = time.perf_counter() - started
    ledger_rows = sum(s["records"] for s in ledger.node_summary().values())

    ratios.sort()
    overhead_pct = statistics.median(ratios) * 100.0
    paired_us = statistics.median(deltas) * 1e6
    base = min(base_times)
    instr = min(instr_times)
    min_pct = (instr - base) / base * 100.0
    per_interval_us = (instr - base) / len(samples) * 1e6

    lines = [
        "Observability overhead (hardened online decision loop)",
        "======================================================",
        "samples: {} intervals ({} roster combos x {})".format(
            len(samples), len(ctx.roster), args.intervals
        ),
        "repeats: {} passes x {} chunks of {} intervals = {} pairs, "
        "alternating order (median paired overhead scored)".format(
            max(args.repeats, 1), len(chunks), CHUNK, len(ratios)
        ),
        "baseline (no-op registry):    {:.4f} s  ({:.1f} us/interval)".format(
            base, base / len(samples) * 1e6
        ),
        "instrumented (registry+ledger+events): {:.4f} s  "
        "({:.1f} us/interval)".format(instr, instr / len(samples) * 1e6),
        "overhead: {:+.2f}% median paired ({:+.1f} us/interval; pairs "
        "{:+.2f}% .. {:+.2f}%)".format(
            overhead_pct, paired_us, ratios[0] * 100.0, ratios[-1] * 100.0
        ),
        "cross-check, min vs min: {:+.2f}% ({:+.1f} us/interval)".format(
            min_pct, per_interval_us
        ),
        "instrumented work: {} events, {} ledger rows".format(
            len(events), ledger_rows
        ),
        "gate: overhead <= {:.1f}%".format(args.max_overhead),
    ]
    report = "\n".join(lines)
    print(report)

    results_dir = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "results"
    )
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "obs.txt"), "w") as handle:
        handle.write(report + "\n")

    record_bench(
        "obs",
        wall_s,
        {
            "baseline_s": round(base, 5),
            "instrumented_s": round(instr, 5),
            "overhead_pct": round(overhead_pct, 3),
            "min_vs_min_overhead_pct": round(min_pct, 3),
            "per_interval_overhead_us": round(per_interval_us, 3),
            "median_paired_overhead_us": round(paired_us, 3),
            "samples": len(samples),
        },
    )

    if args.max_overhead and overhead_pct > args.max_overhead:
        print(
            "FAIL: instrumentation overhead {:.2f}% exceeds the "
            "{:.1f}% gate".format(overhead_pct, args.max_overhead)
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
