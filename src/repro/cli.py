"""Command-line experiment runner.

Usage::

    ppep-repro list
    ppep-repro run fig02 [--scale quick|full]
    ppep-repro run all  --scale quick

Each experiment prints the same rows/series the paper's corresponding
table or figure reports, annotated with the paper's reference values.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict

from repro.experiments import common
from repro.experiments import (
    ablations,
    cpi_validation,
    nb_frontier,
    thread_packing,
    fig01_idle_thermal,
    fig02_model_validation,
    fig03_cross_vf,
    fig04_power_gating,
    fig06_energy_prediction,
    fig07_power_capping,
    backend_roundtrip,
    fault_resilience,
    fig08_background_energy,
    fig09_background_edp,
    fig10_nb_share,
    fig11_nb_scaling,
    idle_model_validation,
    observations,
    phenom_validation,
    static_vs_dynamic,
    table1_events,
)

__all__ = ["main", "EXPERIMENTS"]

#: name -> (module, description).  Module contract: run(ctx) and
#: format_report(result, ctx).
EXPERIMENTS: Dict[str, tuple] = {
    "table1": (table1_events, "Table I: selected hardware events"),
    "cpi": (cpi_validation, "Section III: CPI predictor validation"),
    "observations": (observations, "Section IV-C: Observations 1 and 2"),
    "fig01": (fig01_idle_thermal, "Figure 1: idle power and temperature"),
    "idle": (idle_model_validation, "Section IV-A: idle power model AAE"),
    "fig02": (fig02_model_validation, "Figure 2: power model validation"),
    "fig03": (fig03_cross_vf, "Figure 3: cross-VF power prediction"),
    "fig04": (fig04_power_gating, "Figure 4: power gating sweep"),
    "fig06": (fig06_energy_prediction, "Figure 6: energy prediction vs GG"),
    "fig07": (fig07_power_capping, "Figure 7: one-step power capping"),
    "fig08": (fig08_background_energy, "Figure 8: per-thread energy"),
    "fig09": (fig09_background_edp, "Figure 9: per-thread EDP"),
    "fig10": (fig10_nb_share, "Figure 10: NB energy share"),
    "fig11": (fig11_nb_scaling, "Figure 11: NB VF scaling"),
    "static": (static_vs_dynamic, "Section V-C1: static vs dynamic DVFS"),
    "phenom": (phenom_validation, "Phenom II generality validation"),
    "ablations": (ablations, "Ablations: NNLS, alpha, counter multiplexing"),
    "frontier": (nb_frontier, "Extension: simulated multi-state NB frontier"),
    "packing": (thread_packing, "Extension: thread packing under power caps"),
    "faults": (fault_resilience, "Extension: resilience under telemetry faults"),
    "backend": (backend_roundtrip,
                "Extension: backend boundary record/replay + flaky storm"),
}


def _validate_cache_dir(path):
    """One-line error string if ``path`` cannot serve as a trace cache."""
    if path is None:
        return None
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write-probe")
        with open(probe, "w"):
            pass
        os.unlink(probe)
    except OSError as exc:
        return "error: trace cache directory {!r} is not writable ({})".format(
            path, exc
        )
    return None


def _run_one(name: str, ctx: common.ExperimentContext) -> None:
    module, description = EXPERIMENTS[name]
    print("=== {} — {} ===".format(name, description))
    # perf_counter: monotonic, so the reported duration survives NTP
    # clock steps mid-experiment (time.time() does not).
    started = time.perf_counter()
    result = module.run(ctx)
    report = module.format_report(result, ctx)
    print(report)
    print("[{} finished in {:.1f}s]\n".format(name, time.perf_counter() - started))


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="ppep-repro",
        description="PPEP (MICRO 2014) reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    report_parser = sub.add_parser(
        "report", help="assemble results/*.txt into one summary document"
    )
    report_parser.add_argument(
        "--results-dir", default="results", help="directory the benches wrote to"
    )
    report_parser.add_argument(
        "--output", default=None, help="write the summary here (default: stdout)"
    )
    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", choices=list(EXPERIMENTS) + ["all"])
    run_parser.add_argument(
        "--scale",
        choices=["full", "quick"],
        default="full",
        help="full = the paper's 152 combinations; quick = a fast subset",
    )
    run_parser.add_argument(
        "--seed",
        type=int,
        default=20141213,
        help="base seed for every simulation RNG; the default (20141213, "
        "the MICRO 2014 publication date) reproduces the recorded numbers",
    )
    run_parser.add_argument(
        "--trace-cache",
        default=None,
        metavar="DIR",
        help="persist every simulated trace to DIR as .npz and reuse "
        "matching traces across runs (also honours the "
        "REPRO_TRACE_CACHE environment variable)",
    )
    faults_parser = sub.add_parser(
        "faults",
        help="telemetry fault-resilience sweep: hardened vs unhardened "
        "pipeline across fault rates",
    )
    faults_parser.add_argument(
        "--scale", choices=["full", "quick"], default="quick",
        help="training depth and sweep length (default: quick)",
    )
    faults_parser.add_argument(
        "--rates", type=float, nargs="+", default=None, metavar="R",
        help="fault rates to sweep (fractions; default: 0 0.01 0.05 0.1)",
    )
    faults_parser.add_argument(
        "--combo", default=None,
        help="benchmark combination to run (default: first of the roster)",
    )
    faults_parser.add_argument(
        "--vf", type=int, default=None, metavar="INDEX",
        help="1-based VF state index to run at (default: fastest)",
    )
    faults_parser.add_argument(
        "--seed", type=int, default=20141213,
        help="base seed for training, simulation, and fault schedules",
    )
    faults_parser.add_argument(
        "--trace-cache", default=None, metavar="DIR",
        help="persist simulated traces to DIR (see 'run --trace-cache')",
    )
    obs_parser = sub.add_parser(
        "obs",
        help="replay a recorded observability ledger (JSONL events) into "
        "a text report: per-VF error tables, drift timeline, node health",
    )
    obs_parser.add_argument(
        "ledger", nargs="?", default=None,
        help="path to a JSONL event ledger to replay",
    )
    obs_parser.add_argument(
        "--demo", action="store_true",
        help="first record the injected-drift demo scenario (a power "
        "sensor develops a gain error mid-run), then replay its ledger",
    )
    obs_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="where --demo writes its ledger "
        "(default: results/obs_demo.jsonl)",
    )
    obs_parser.add_argument(
        "--scale", choices=["full", "quick"], default="quick",
        help="training depth for the --demo model (default: quick)",
    )
    obs_parser.add_argument(
        "--seed", type=int, default=20141213,
        help="base seed for the --demo simulation (default: 20141213)",
    )
    serve_parser = sub.add_parser(
        "serve",
        help="long-running streaming prediction service: newline-JSON "
        "telemetry in, SKU-sharded hardened pipeline workers, periodic "
        "checkpoints with restart/resume",
    )
    serve_parser.add_argument(
        "--mode", choices=["loopback", "listen", "stdin"], default="loopback",
        help="loopback = simulated fleet streams over a real socket "
        "(demo/bench); listen = serve the socket until SIGTERM; "
        "stdin = ingest piped telemetry lines",
    )
    serve_parser.add_argument(
        "--skus", nargs="+", choices=["fx8320", "phenom"],
        default=["fx8320", "phenom"],
        help="SKU shards to run (one worker process each)",
    )
    serve_parser.add_argument(
        "--nodes-per-sku", type=int, default=2,
        help="nodes on each shard's roster (default: 2)",
    )
    serve_parser.add_argument(
        "--intervals", type=int, default=100,
        help="loopback mode: intervals streamed per node (default: 100)",
    )
    serve_parser.add_argument(
        "--queue-size", type=int, default=64,
        help="bounded shard-queue depth; a full queue answers 'retry' "
        "instead of buffering without limit (default: 64)",
    )
    serve_parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="snapshot shard state here (shard-<sku>.json); restarts "
        "resume from the last snapshot (default: no checkpointing)",
    )
    serve_parser.add_argument(
        "--checkpoint-every", type=int, default=64,
        help="processed intervals between snapshots (default: 64)",
    )
    serve_parser.add_argument(
        "--events-dir", default=None, metavar="DIR",
        help="write per-shard JSONL event ledgers here, replayable "
        "with 'ppep-repro obs' (default: no event logs)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (socket modes)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=0,
        help="bind port; 0 lets the OS pick and prints it (default: 0)",
    )
    serve_parser.add_argument(
        "--policy", choices=["uniform", "proportional", "waterfill"],
        default="proportional",
        help="per-shard budget allocation policy (default: proportional)",
    )
    serve_parser.add_argument(
        "--training", choices=["full", "quick"], default="quick",
        help="per-SKU training depth (default: quick)",
    )
    serve_parser.add_argument(
        "--seed", type=int, default=20141213,
        help="base seed for training and the loopback fleet",
    )
    chaos_parser = sub.add_parser(
        "chaos",
        help="chaos-storm acceptance run: the serve stack under network/"
        "process/disk fault injection, gated on exactly-once delivery "
        "and bit-identical decisions",
    )
    chaos_parser.add_argument(
        "--intervals", type=int, default=30,
        help="intervals per node through the storm (default: 30)",
    )
    chaos_parser.add_argument(
        "--nodes-per-sku", type=int, default=2,
        help="fleet width per SKU shard (default: 2)",
    )
    chaos_parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiplier on every reference-storm fault rate (default: 1)",
    )
    chaos_parser.add_argument(
        "--chaos-seed", type=int, default=7,
        help="seed for the chaos schedules and client jitter (default: 7)",
    )
    chaos_parser.add_argument(
        "--checkpoint-every", type=int, default=4,
        help="intervals between shard checkpoints (default: 4)",
    )
    chaos_parser.add_argument(
        "--training", choices=["full", "quick"], default="quick",
        help="per-SKU training depth (default: quick)",
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=20141213,
        help="base seed for training and the loopback fleets",
    )
    backend_parser = sub.add_parser(
        "backend",
        help="telemetry backend boundary: record a live session to a "
        "trace, replay/inspect a trace, or run the record->replay + "
        "flaky-storm acceptance roundtrip",
    )
    backend_parser.add_argument(
        "action",
        help="record (live session -> --trace), replay (inspect a "
        "recorded trace), import (score a turbostat recording through "
        "the pipeline), or roundtrip (the gated acceptance run)",
    )
    backend_parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="trace file to write (record) or read (replay/import); "
        "roundtrip keeps its recording here instead of a temporary file",
    )
    backend_parser.add_argument(
        "--interval-s", type=float, default=None,
        help="decision-interval length for an imported recording with "
        "no Time_Of_Day_Seconds column (default: turbostat's 5 s)",
    )
    backend_parser.add_argument(
        "--intervals", type=int, default=None,
        help="decision intervals per leg (default: 60 quick / 120 full)",
    )
    backend_parser.add_argument(
        "--retries", type=int, default=2,
        help="guarded-read retry budget for the storm leg (default: 2)",
    )
    backend_parser.add_argument(
        "--timeout-s", type=float, default=0.5,
        help="per-read deadline for the storm leg, seconds (default: 0.5)",
    )
    backend_parser.add_argument(
        "--scale", choices=["full", "quick"], default="quick",
        help="training depth and default run length (default: quick)",
    )
    backend_parser.add_argument(
        "--seed", type=int, default=20141213,
        help="base seed for training, simulation, and fault schedules",
    )
    fleet_parser = sub.add_parser(
        "fleet", help="cluster-scale capping: N nodes under one power budget"
    )
    fleet_parser.add_argument(
        "--nodes", type=int, default=8, help="number of nodes (default: 8)"
    )
    fleet_parser.add_argument(
        "--sku-mix",
        nargs="+",
        choices=["fx8320", "phenom2"],
        default=["fx8320"],
        help="SKUs to rotate nodes through (default: all FX-8320)",
    )
    fleet_parser.add_argument(
        "--policy",
        choices=["uniform", "proportional", "waterfill"],
        default="proportional",
        help="how the cluster budget is split across nodes",
    )
    fleet_parser.add_argument(
        "--intervals", type=int, default=40,
        help="decision intervals to simulate (200 ms each; default: 40)",
    )
    fleet_parser.add_argument(
        "--cap-high", type=float, default=None,
        help="high cluster cap, watts (default: 90 W per node)",
    )
    fleet_parser.add_argument(
        "--cap-low", type=float, default=None,
        help="low cluster cap, watts (default: 50 W per node)",
    )
    fleet_parser.add_argument(
        "--period", type=int, default=10,
        help="intervals between cap flips (default: 10)",
    )
    fleet_parser.add_argument(
        "--seed", type=int, default=20141213,
        help="base seed for training and node simulation (default: 20141213)",
    )
    fleet_parser.add_argument(
        "--training",
        choices=["full", "quick"],
        default="full",
        help="per-SKU training depth; quick trades model fidelity for "
        "a fast bring-up",
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        width = max(len(n) for n in EXPERIMENTS)
        for name, (_module, description) in EXPERIMENTS.items():
            print("{:<{w}}  {}".format(name, description, w=width))
        return 0

    if args.command == "report":
        return _assemble_report(args.results_dir, args.output)

    if args.command == "obs":
        return _run_obs(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "chaos":
        return _run_chaos(args)

    if args.command == "fleet":
        return _run_fleet(args)

    if args.command == "faults":
        return _run_faults(args)

    if args.command == "backend":
        return _run_backend(args)

    error = _validate_cache_dir(args.trace_cache)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    ctx = common.get_context(
        scale=args.scale,
        base_seed=args.seed,
        cache_dir=args.trace_cache,
    )
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        _run_one(name, ctx)
    return 0


def _run_faults(args) -> int:
    """The ``faults`` subcommand: the resilience sweep with validation."""
    error = _validate_cache_dir(args.trace_cache)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    rates = tuple(args.rates) if args.rates else fault_resilience.DEFAULT_RATES
    bad = [r for r in rates if not 0.0 <= r <= 1.0]
    if bad:
        print(
            "error: fault rates must lie in [0, 1], got {}".format(bad),
            file=sys.stderr,
        )
        return 2
    ctx = common.get_context(
        scale=args.scale,
        base_seed=args.seed,
        cache_dir=args.trace_cache,
    )
    if args.vf is not None:
        try:
            ctx.spec.vf_table.by_index(args.vf)
        except KeyError:
            print(
                "error: no VF state with index {} on {} (valid: {})".format(
                    args.vf, ctx.spec.name,
                    ", ".join(str(vf.index) for vf in ctx.spec.vf_table),
                ),
                file=sys.stderr,
            )
            return 2
    if args.combo is not None and args.combo not in {
        c.name for c in ctx.roster
    }:
        print(
            "error: unknown combination {!r}; see the roster at this scale "
            "(e.g. {})".format(
                args.combo, ", ".join(c.name for c in ctx.roster[:6])
            ),
            file=sys.stderr,
        )
        return 2
    started = time.perf_counter()
    result = fault_resilience.run(
        ctx, rates=rates, combo_name=args.combo, vf_index=args.vf
    )
    print(fault_resilience.format_report(result, ctx))
    print("[faults finished in {:.1f}s]".format(time.perf_counter() - started))
    return 0


def _run_backend(args) -> int:
    """The ``backend`` subcommand: record / replay / acceptance roundtrip.

    Every operator mistake -- unknown action, missing or unusable trace
    path, nonsense retry/deadline budgets, a corrupt trace file -- is
    reported as one ``error:`` line on stderr with exit code 2.
    """
    from repro.backends import TraceFormatError, TraceReplayBackend

    actions = ("record", "replay", "import", "roundtrip")
    if args.action not in actions:
        print(
            "error: unknown backend action {!r}; expected one of {}".format(
                args.action, ", ".join(actions)
            ),
            file=sys.stderr,
        )
        return 2
    if args.intervals is not None and args.intervals <= 0:
        print(
            "error: --intervals must be positive, got {}".format(args.intervals),
            file=sys.stderr,
        )
        return 2
    if args.retries < 0:
        print(
            "error: --retries must be >= 0, got {}".format(args.retries),
            file=sys.stderr,
        )
        return 2
    if args.timeout_s <= 0:
        print(
            "error: --timeout-s must be positive, got {}".format(args.timeout_s),
            file=sys.stderr,
        )
        return 2
    if args.action in ("record", "replay", "import") and args.trace is None:
        print(
            "error: backend {} requires --trace PATH".format(args.action),
            file=sys.stderr,
        )
        return 2
    if args.interval_s is not None and args.interval_s <= 0:
        print(
            "error: --interval-s must be positive, got {}".format(
                args.interval_s
            ),
            file=sys.stderr,
        )
        return 2
    if args.action == "import" and not os.path.exists(args.trace):
        print(
            "error: cannot read recording {!r} (no such file)".format(
                args.trace
            ),
            file=sys.stderr,
        )
        return 2
    if args.action in ("record", "roundtrip") and args.trace is not None:
        # Probe the target before spending minutes training a model.
        try:
            with open(args.trace, "a"):
                pass
        except OSError as exc:
            print(
                "error: cannot write trace {!r} ({})".format(args.trace, exc),
                file=sys.stderr,
            )
            return 2

    if args.action == "replay":
        # Inspection needs no trained model: parse, repair, summarise.
        started = time.perf_counter()
        try:
            backend = TraceReplayBackend(args.trace)
        except TraceFormatError as exc:
            print("error: {}".format(exc), file=sys.stderr)
            return 2
        caps = backend.capabilities()
        samples = []
        while len(backend):
            samples.append(backend.read_interval())
        powers = [s.measured_power for s in samples]
        print(
            "trace {}: {} row(s), {} CU(s) x {} core(s), "
            "interval {:.3f} s".format(
                args.trace, len(samples), caps.num_cus, caps.num_cores,
                caps.interval_s,
            )
        )
        print(
            "measured power: mean {:.1f} W, min {:.1f} W, max {:.1f} W".format(
                sum(powers) / len(powers) if powers else float("nan"),
                min(powers) if powers else float("nan"),
                max(powers) if powers else float("nan"),
            )
        )
        print("repairs: {}".format(dict(backend.repairs) or "none"))
        for warning in backend.warnings:
            print("  {}".format(warning))
        print(
            "[replay finished in {:.1f}s]".format(time.perf_counter() - started)
        )
        return 0

    ctx = common.get_context(scale=args.scale, base_seed=args.seed)
    started = time.perf_counter()
    if args.action == "import":
        from repro.experiments import turbostat_import

        try:
            result = turbostat_import.run(
                ctx, args.trace, interval_s=args.interval_s
            )
        except TraceFormatError as exc:
            print("error: {}".format(exc), file=sys.stderr)
            return 2
        print(turbostat_import.format_report(result, ctx))
        print(
            "[import finished in {:.1f}s]".format(
                time.perf_counter() - started
            )
        )
        return 0 if result.nonempty else 1

    if args.action == "record":
        try:
            rows = backend_roundtrip.record_session(
                ctx, args.trace, intervals=args.intervals
            )
        except TraceFormatError as exc:
            print("error: {}".format(exc), file=sys.stderr)
            return 2
        print(
            "recorded {} interval(s) to {} in {:.1f}s".format(
                rows, args.trace, time.perf_counter() - started
            )
        )
        return 0

    try:
        result = backend_roundtrip.run(
            ctx,
            intervals=args.intervals,
            trace_path=args.trace,
            retries=args.retries,
            timeout_s=args.timeout_s,
        )
    except TraceFormatError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    print(backend_roundtrip.format_report(result, ctx))
    print(
        "[backend finished in {:.1f}s]".format(time.perf_counter() - started)
    )
    return 0 if result.passed else 1


def _run_obs(args) -> int:
    """The ``obs`` subcommand: replay a JSONL ledger (or run the demo)."""
    from repro.experiments import obs_drift
    from repro.obs.report import format_report, replay_file

    path = args.ledger
    ledger_kwargs = {}
    if args.demo:
        # Replay with the settings the demo recorded under, so the
        # recomputed flags match the recorded drift events one-to-one.
        ledger_kwargs = dict(obs_drift.DEMO_LEDGER_KWARGS)
        path = args.output or os.path.join("results", "obs_demo.jsonl")
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # A stale ledger from a previous run would double every event
        # (EventLog appends); start the demo from an empty file.
        if os.path.exists(path):
            os.unlink(path)
        ctx = common.get_context(scale=args.scale, base_seed=args.seed)
        started = time.perf_counter()
        ledger = obs_drift.record_demo(ctx, path=path)
        print(
            "recorded injected-drift demo: {} intervals, {} drift "
            "flag(s) -> {} ({:.1f}s)\n".format(
                sum(s["records"] for s in ledger.node_summary().values()),
                len(ledger.drift_flags), path,
                time.perf_counter() - started,
            )
        )
    elif path is None:
        print(
            "error: provide a ledger path to replay, or --demo to record "
            "the injected-drift scenario first",
            file=sys.stderr,
        )
        return 2
    if not os.path.exists(path):
        print("error: no ledger at {!r}".format(path), file=sys.stderr)
        return 2
    try:
        report = replay_file(path, **ledger_kwargs)
    except ValueError as exc:
        # A corrupt line: read_events names it as path:line.
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    print(format_report(report))
    return 0


def _run_serve(args) -> int:
    """The ``serve`` subcommand: the streaming prediction service."""
    from repro.fleet.registry import ModelRegistry
    from repro.serve.service import ServeConfig, run_service
    from repro.workloads.suites import spec_combinations

    started = time.perf_counter()
    if args.training == "quick":
        registry = ModelRegistry(
            combos=spec_combinations()[:3],
            bench_intervals=4,
            cool_intervals=20,
            base_seed=args.seed,
        )
    else:
        registry = ModelRegistry(base_seed=args.seed)
    try:
        config = ServeConfig(
            skus=tuple(dict.fromkeys(args.skus)),
            nodes_per_sku=args.nodes_per_sku,
            intervals=args.intervals,
            queue_size=args.queue_size,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            events_dir=args.events_dir,
            policy=args.policy,
            host=args.host,
            port=args.port,
            base_seed=args.seed,
        )
    except ValueError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    report = run_service(registry, config, mode=args.mode)
    print(
        "serve[{}]: {} intervals processed across {} shard(s) in {:.1f}s "
        "({:.0f} intervals/s)".format(
            args.mode, report["processed"], len(report["shards"]),
            report["elapsed_s"], report["intervals_per_s"],
        )
    )
    for sku, stats in sorted(report["shards"].items()):
        print(
            "  shard {:<8} accepted {:>6}  processed {:>6}  retried {:>4}  "
            "allocations {:>5}  restarts {}".format(
                sku, stats["accepted"], stats["processed"], stats["retried"],
                stats["allocations"], stats["restarts"],
            )
        )
    ingest = report.get("ingest", {})
    if ingest:
        print(
            "  ingest: {} lines, {} accepted, {} backpressured, "
            "{} rejected".format(
                ingest.get("lines", 0), ingest.get("accepted", 0),
                ingest.get("retried", 0), ingest.get("errors", 0),
            )
        )
    if args.checkpoint_dir:
        print("  checkpoints in {}".format(args.checkpoint_dir))
    print("[serve finished in {:.1f}s]".format(time.perf_counter() - started))
    return 0


def _run_chaos(args) -> int:
    """The ``chaos`` subcommand: the gated chaos-storm acceptance run."""
    from repro.experiments.chaos_storm import (
        StormParams,
        format_report,
        run_storm,
    )
    from repro.fleet.registry import ModelRegistry
    from repro.serve.service import SKU_SPECS
    from repro.workloads.suites import spec_combinations

    started = time.perf_counter()
    if args.training == "quick":
        registry = ModelRegistry(
            combos=spec_combinations()[:3],
            bench_intervals=4,
            cool_intervals=20,
            base_seed=args.seed,
        )
    else:
        registry = ModelRegistry(base_seed=args.seed)
    params = StormParams(
        intervals=args.intervals,
        nodes_per_sku=args.nodes_per_sku,
        seed=args.seed,
        chaos_seed=args.chaos_seed,
        scale=args.scale,
        checkpoint_every=args.checkpoint_every,
    )
    for sku in params.skus:
        registry.get(SKU_SPECS[sku])
    result = run_storm(registry, params)
    print(format_report(result))
    print("[chaos finished in {:.1f}s]".format(time.perf_counter() - started))
    return 0 if result["passed"] else 1


def _run_fleet(args) -> int:
    """The ``fleet`` subcommand: train per SKU, cap the cluster."""
    from repro.dvfs.power_capping import square_wave_cap
    from repro.fleet import ClusterPowerManager, ModelRegistry, make_fleet
    from repro.hardware.microarch import FX8320_SPEC, PHENOM_II_SPEC
    from repro.workloads.suites import spec_combinations

    if args.nodes <= 0:
        print("--nodes must be positive")
        return 1
    skus = {"fx8320": FX8320_SPEC, "phenom2": PHENOM_II_SPEC}
    mix = [skus[name] for name in args.sku_mix]
    specs = [mix[i % len(mix)] for i in range(args.nodes)]

    started = time.perf_counter()
    if args.training == "quick":
        registry = ModelRegistry(
            combos=spec_combinations()[:3],
            bench_intervals=4,
            cool_intervals=20,
            base_seed=args.seed,
        )
    else:
        registry = ModelRegistry(base_seed=args.seed)
    fleet = make_fleet(specs, registry, base_seed=args.seed)
    print(
        "fleet: {} nodes, {} SKU(s) -> {} model(s) trained in {:.1f}s".format(
            len(fleet), len(set(s.name for s in specs)), registry.trains,
            time.perf_counter() - started,
        )
    )

    cap_high = args.cap_high if args.cap_high is not None else 90.0 * args.nodes
    cap_low = args.cap_low if args.cap_low is not None else 50.0 * args.nodes
    schedule = square_wave_cap(cap_high, cap_low, args.period)
    manager = ClusterPowerManager(fleet, schedule, policy=args.policy)
    started = time.perf_counter()
    run = manager.run(args.intervals)
    elapsed = time.perf_counter() - started

    print(
        "cap schedule: {:.0f} W / {:.0f} W, flipping every {} intervals; "
        "policy: {}".format(cap_high, cap_low, args.period, args.policy)
    )
    print("interval   cap(W)   fleet(W)  min-share  max-share")
    for i, (cap, power, shares) in enumerate(
        zip(run.caps, run.node_powers, run.shares)
    ):
        print(
            "{:>8}  {:>7.1f}  {:>8.1f}  {:>9.1f}  {:>9.1f}".format(
                i, cap, sum(power), min(shares), max(shares)
            )
        )
    result = run.evaluate()
    print(
        "settle intervals after cap drops: {}  (worst {})".format(
            result.settle_intervals, result.worst_settle
        )
    )
    print(
        "violation rate {:.1%}, adherence {:.1%}, {:.3g} instructions "
        "in {:.1f}s wall".format(
            result.violation_rate, result.adherence,
            result.total_instructions, elapsed,
        )
    )
    return 0


def _assemble_report(results_dir: str, output: str) -> int:
    """Concatenate the per-experiment reports into one document."""
    if not os.path.isdir(results_dir):
        print("no results directory at {!r}; run the benches first".format(results_dir))
        return 1
    names = sorted(n for n in os.listdir(results_dir) if n.endswith(".txt"))
    if not names:
        print("no reports in {!r}".format(results_dir))
        return 1
    sections = []
    for name in names:
        with open(os.path.join(results_dir, name)) as handle:
            body = handle.read().rstrip()
        title = name[: -len(".txt")]
        sections.append("##### {} #####\n{}".format(title, body))
    document = "\n\n".join(sections) + "\n"
    if output:
        with open(output, "w") as handle:
            handle.write(document)
        print("wrote {} reports to {}".format(len(names), output))
    else:
        print(document, end="")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
