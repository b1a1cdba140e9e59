#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 benchmarks/perf/run.py                    # all workloads, untraced
    python3 benchmarks/perf/run.py --trace 1          # ... and a traced run each
    python3 benchmarks/perf/run.py --workload shard_inproc --seed 7 --seconds 10
    python3 benchmarks/perf/run.py --record           # also append to history.jsonl

Workloads, metrics and regression bounds are declared in ``BENCHMARK.json``
at the repository root; workload parameters and the golden decision
digests live in ``params.json`` beside this file.  Every workload runs in
a fresh process: with ``--workload`` this process, otherwise one child
each.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
the workload untraced and then traced, each in a fresh child, and prints
the per-layer metrics, the layer table and ``trace.overhead_pct``.  Spans
go to ``out/<workload>.spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
decisions miss their golden digest (at the default seed) or break an
invariant (any seed) prints ``FAIL <workload>`` on standard error and
exits 1.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
HISTORY = os.path.join(HERE, "history.jsonl")

#: A child run (set-up, measuring, teardown) takes about 15 s; ``--trace
#: 1`` runs two per workload, and one workload must end inside 180 s.
CHILD_TIMEOUT_S = 80


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def load_params():
    with open(os.path.join(HERE, "params.json"), encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# -- one workload, in this process --------------------------------------------


def run_workload(name, params, seed, seconds, workdir, tracer=None):
    """Run one named workload; returns its :class:`workloads.Outcome`."""
    import hostspeed
    import workloads

    spec = params["workloads"][name]
    kwargs = {"setup_repeats": params["setup_repeats"]}
    if spec["kind"] == "fleet":
        kwargs["fault_mix"] = params["fault_mix"]
    meter = hostspeed.Meter(params["host"]["window_s"])
    outcome = workloads.KINDS[spec["kind"]](
        spec, seed, seconds, workdir, meter, tracer=tracer, **kwargs
    )
    outcome.windows = meter.windows
    # Probing the host is the benchmark's cost, not the program's.
    outcome.wall_s -= meter.probe_s
    return outcome


def end_to_end(outcome, host, tail_percentile):
    """The end-to-end metric values of one outcome, at nominal host speed.

    Throughput is the median over the measured windows of each window's
    node-intervals per second, so a short stall moves a few windows, not
    the result.  It scales with the whole slowdown, back-off waits
    included: how often a closed-loop client must back off is set by how
    fast the worker drains its queue.  One operation's latency keeps its
    own back-off sleep unscaled.  With ``host=None`` the values as timed.
    """
    from hostspeed import at_nominal, slowdown

    def scale(reference_s):
        return 1.0 if host is None else slowdown(reference_s, host)

    rates = []
    latencies_ms = []
    for latencies, waits, reference_s in outcome.windows:
        slow = scale(reference_s)
        rates.append(len(latencies) * outcome.nodes_per_op / sum(latencies) * slow)
        latencies_ms += [
            1000.0 * at_nominal(lat, wait, slow) for lat, wait in zip(latencies, waits)
        ]
    return {
        "setup_s": statistics.median(s / scale(ref) for s, ref in outcome.setups),
        "throughput_per_s": statistics.median(rates),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_tail_ms": percentile(latencies_ms, tail_percentile),
        "peak_rss_mb": outcome.peak_rss_kb / 1024.0,
    }


def per_layer(outcome, spans, counts, main_pid, slow=1.0, missing=()):
    """Per-layer metric values and the printable layer table of a traced run.

    Stage times are scaled to nominal host speed by the run's median
    ``slow``-down; the span table is printed as measured.
    """
    import trace

    decided = max(outcome.decided, 1)
    totals, coverage = trace.stage_totals(spans, outcome.wall_s, main_pid)
    layers = {
        "{}.us_per_node".format(stage): 1e6 * seconds / decided / slow
        for stage, seconds in totals.items()
    }
    table = trace.layer_table(spans)
    decides = table.get("dvfs.cap.decide", {}).get("count", 0)
    sends = outcome.counts.get("sends", 0)
    layers.update(
        {
            "cap.prices_per_decision": counts.get("cap.prices", 0) / max(decides, 1),
            "filter.bad_ratio": outcome.counts["bad"] / decided,
            "engine.batched_ratio": counts.get("engine.batched", 0)
            / max(counts.get("engine.nodes", 0), 1),
            "allocate.rounds_per_node": outcome.counts["rounds"] / decided,
            "io.retry_ratio": outcome.counts.get("retries", 0) / sends if sends else 0.0,
            "cpu.busy_ratio": (outcome.cpu_self_s + outcome.cpu_children_s)
            / outcome.wall_s,
            "trace.coverage_pct": 100.0 * coverage,
        }
    )

    lines = ["{:<28} {:>9} {:>11} {:>11} {:>12}  {}".format(
        "span", "count", "total_ms", "self_ms", "self_us/node", "stage")]
    for span_name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append("{:<28} {:>9d} {:>11.1f} {:>11.1f} {:>12.2f}  {}".format(
            span_name, row["count"], 1e3 * row["total_s"], 1e3 * row["self_s"],
            1e6 * row["self_s"] / decided, trace.STAGE_OF.get(span_name, "runner")))
    lines.append("stages (self us per node-interval, at nominal speed; host slowdown "
                 "{:.3f}): ".format(slow) + ", ".join(
                     "{} {:.1f}".format(stage, layers[stage + ".us_per_node"])
                     for stage in trace.STAGES))
    waits = _queue_waits(spans, outcome.send_stamps)
    if waits:
        lines.append(
            "serve queue wait (send -> worker process()): p50 {:.3f} ms, "
            "p99 {:.3f} ms over {} lines".format(
                percentile(waits, 50), percentile(waits, 99), len(waits)
            )
        )
        lines.append(
            "serve cpu/wall: parent {:.2f}, worker {:.2f}; retries/sends {:.4f}".format(
                outcome.cpu_self_s / outcome.wall_s,
                outcome.cpu_children_s / outcome.wall_s,
                layers["io.retry_ratio"],
            )
        )
    if missing:
        lines.append("not wrapped (absent from the program): " + ", ".join(missing))
    return layers, lines


def _queue_waits(spans, send_stamps):
    """ms from the client's first send of a line (first pass) to the
    worker's first process() entry for it."""
    entered = {}
    for span in spans:
        if span["name"] != "serve.shard.process" or span["rid"] is None:
            continue
        key = tuple(span["rid"])
        stamp = send_stamps.get(key)
        if stamp is not None and span["start"] >= stamp:
            entered[key] = min(entered.get(key, span["start"]), span["start"])
    return [1000.0 * (start - send_stamps[key]) for key, start in entered.items()]


def measure(name, seed, seconds, traced, params=None):
    """Run ``name`` once in this process; returns the raw result dict."""
    import trace
    from hostspeed import slowdown

    params = load_params() if params is None else params
    workdir = os.path.join(OUT, "work-{}".format(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = uninstall = None
    if traced:
        tracer = trace.Tracer(spill_dir=os.path.join(workdir, "spans"))
        uninstall = trace.install(tracer)
    try:
        outcome = run_workload(name, params, seed, seconds, workdir, tracer)
        golden = params["workloads"][name].get("golden")
        problems = list(outcome.problems)
        if seed == params["default_seed"] and golden and outcome.digest != golden:
            problems.append(
                "decision digest {} != golden {}".format(outcome.digest, golden)
            )
        raw = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(traced),
            "correct": not problems,
            "problems": problems[:20],
            "digest": outcome.digest,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
        }
        tail = params["workloads"][name]["tail_percentile"]
        nominal = end_to_end(outcome, params["host"], tail)
        raw["unscaled"] = end_to_end(outcome, None, tail)
        raw["slowdown"] = statistics.median(
            slowdown(window[-1], params["host"]) for window in outcome.windows
        )
        if traced:
            spans, counts = tracer.merged()
            raw["metrics"], raw["table"] = per_layer(
                outcome, spans, counts, os.getpid(), raw["slowdown"], tracer.missing
            )
            raw["metrics"]["throughput_per_s"] = nominal["throughput_per_s"]
            os.makedirs(OUT, exist_ok=True)
            with open(os.path.join(OUT, name + ".spans.jsonl"), "w", encoding="utf-8") as handle:
                for span in spans:
                    handle.write(json.dumps(span) + "\n")
        else:
            raw["metrics"] = nominal
        return raw
    finally:
        if uninstall is not None:
            uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


# -- children, history, output ------------------------------------------------


def run_child(name, seed, seconds, traced):
    """Run ``name`` in a fresh interpreter; returns its raw result dict."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if traced else "0", "--child",
    ]
    # Own session: on a timeout the whole group (shard workers too) dies.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("{} did not finish in {} s".format(name, CHILD_TIMEOUT_S))
    lines = stdout.decode("utf-8").strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError("{} child exited with code {}".format(name, proc.returncode))
    return json.loads(lines[-1])


def combine(untraced, traced):
    """The ``--trace 1`` result: per-layer metrics plus the trace overhead."""
    metrics = dict(traced["metrics"])
    traced_rate = metrics.pop("throughput_per_s")
    metrics["trace.overhead_pct"] = 100.0 * (
        untraced["metrics"]["throughput_per_s"] / traced_rate - 1.0
    )
    problems = untraced["problems"] + traced["problems"]
    return dict(
        traced,
        correct=untraced["correct"] and traced["correct"],
        problems=problems,
        attempted=untraced["attempted"] + traced["attempted"],
        failed=untraced["failed"] + traced["failed"],
        metrics=metrics,
    )


def host_fingerprint():
    """CPU model, CPU count, Python and numpy versions."""
    import platform

    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_commit():
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None
    return head, bool(dirty)


def record(rows, path=HISTORY):
    """Append one history row per run, keyed by commit and host."""
    commit, dirty = git_commit()
    host = host_fingerprint()
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(path, "a", encoding="utf-8") as handle:
        for raw in rows:
            handle.write(json.dumps({
                "commit": commit,
                "src_dirty": dirty,
                "host": host,
                "time": stamp,
                "workload": raw["workload"],
                "seed": raw["seed"],
                "seconds": raw["seconds"],
                "trace": raw["trace"],
                "correct": raw["correct"],
                "metrics": raw["metrics"],
                "unscaled": raw["unscaled"],
                "slowdown": raw["slowdown"],
            }, sort_keys=True) + "\n")


def result_line(raws, units):
    """The contract's last line; several workloads prefix metric names."""
    metrics = {}
    for raw in raws:
        prefix = "" if len(raws) == 1 else raw["workload"] + "."
        for metric, value in raw["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units.get(metric, "")}
    return json.dumps({
        "correct": all(raw["correct"] for raw in raws),
        "attempted": sum(raw["attempted"] for raw in raws),
        "failed": sum(raw["failed"] for raw in raws),
        "metrics": metrics,
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: every one)")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: params.json default_seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced and print per-layer metrics")
    parser.add_argument("--record", action="store_true",
                        help="append each run to history.jsonl")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            "run.py: the program source (src/repro) is not in {}; run from a "
            "full checkout\n".format(ROOT)
        )
        return 2
    sys.path[:0] = [SRC, HERE]

    bench = load_benchmark()
    params = load_params()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error("unknown workload {!r}; choose from {}".format(args.workload, names))
    seed = params["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    if args.child:
        raw = measure(args.workload, seed, seconds, bool(args.trace))
        print(json.dumps(raw))
        return 0 if raw["correct"] else 1

    raws = []
    history = []
    for name in [args.workload] if args.workload else names:
        if args.trace:
            untraced = run_child(name, seed, seconds, False)
            traced = run_child(name, seed, seconds, True)
            history += [untraced, traced]
            raw = combine(untraced, traced)
            print("\n".join(["{} (traced, seed {}):".format(name, seed)] + raw["table"]))
        elif args.workload:
            raw = measure(name, seed, seconds, False)
            history.append(raw)
        else:
            raw = run_child(name, seed, seconds, False)
            history.append(raw)
        for metric, value in sorted(raw["metrics"].items()):
            timed = raw["unscaled"].get(metric)
            print("{:<16} {:<28} {:>14.4f} {:<6}{}".format(
                name, metric, value, units.get(metric, ""),
                "" if timed is None else "  (as timed: {:.4f})".format(timed)))
        print("{:<16} host slowdown {:.3f}: timings above are scaled to nominal "
              "host speed".format(name, raw["slowdown"]))
        if not raw["correct"]:
            sys.stderr.write("FAIL {}: {}\n".format(name, "; ".join(raw["problems"])))
        raws.append(raw)
    if args.record:
        record(history)
    print(result_line(raws, units))
    return 0 if all(raw["correct"] for raw in raws) else 1


if __name__ == "__main__":
    sys.exit(main())
