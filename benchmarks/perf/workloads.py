"""The benchmark's four workloads.

Each workload function takes its parameter dict (one entry of
``params.json``), the run's seed, the measuring time in seconds, a work
directory inside the checkout, a :class:`hostspeed.Meter` and an
optional :class:`trace.Tracer`, and returns an :class:`Outcome`.
Set-up (model training plus building the system) is timed
``setup_repeats`` times; the measured window then runs until
``seconds`` have passed *and* the golden-digest prefix of decisions has
been made.

- ``fleet``: :class:`ClusterPowerManager` over a fault-injected
  mixed-SKU fleet, one ``run(1, resume=True)`` round at a time.
- ``shard``: pre-generated wire lines through ``decode_line`` ->
  ``parse_telemetry`` -> ``sample_from_wire`` -> ``ShardPipeline.process``
  with a checkpointer and an on-disk event log, in one process.
- ``serve``: the same kind of lines through a real ``Ingestor`` TCP
  socket into a ``ShardManager`` with one forked worker, sent by one
  closed-loop client over one connection.

Shard and serve replay their pre-generated stream as passes over fresh
pipelines (fresh workers), so every pass must repeat the first pass's
decisions exactly, and memory does not grow with the work a faster
program gets through.
"""

import asyncio
import contextlib
import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from hostspeed import probe

__all__ = ["KINDS", "Outcome", "run_fleet", "run_serve", "run_shard"]

#: Relative slack on "shares never sum above the cap" (float summation).
_CAP_SLACK = 1e-9


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: Node-intervals the run tried to get decided, and how many failed.
    attempted: int = 0
    failed: int = 0
    #: Node-intervals decided inside the measured window.
    decided: int = 0
    #: Measured window: wall seconds and CPU seconds (self, children).
    wall_s: float = 0.0
    cpu_self_s: float = 0.0
    cpu_children_s: float = 0.0
    #: Per set-up repetition: (seconds, reference-job seconds around it).
    setups: List[tuple] = field(default_factory=list)
    #: Per measured window: (operation latencies, their deliberate
    #: waits, reference-job seconds around it) -- see
    #: :class:`hostspeed.Meter`.
    windows: List[tuple] = field(default_factory=list)
    #: Node-intervals one operation (round or line) decides.
    nodes_per_op: int = 1
    #: Peak resident set (this process or a finished child), kB, read
    #: once the golden-digest prefix is decided: a fixed amount of work,
    #: so a faster program that gets further in the run reads the same.
    peak_rss_kb: int = 0
    #: sha256 of the golden prefix of the decision stream.
    digest: str = ""
    #: Invariant violations; empty on a correct run.
    problems: List[str] = field(default_factory=list)
    #: Workload-level counters (bad verdicts, allocation rounds, ...).
    counts: Dict[str, float] = field(default_factory=dict)
    #: First-pass client send stamps by (node, interval) -- traced serve.
    send_stamps: Dict[tuple, float] = field(default_factory=dict)


def _cpu():
    times = os.times()
    return (
        times.user + times.system,
        times.children_user + times.children_system,
    )


def _peak_rss_kb():
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _train(seed: int, skus):
    """The CLI's default registry, with every SKU the workload uses trained."""
    from repro.fleet.registry import ModelRegistry
    from repro.serve.service import SKU_SPECS

    registry = ModelRegistry(base_seed=seed)
    for sku in skus:
        registry.get(SKU_SPECS[sku])
    return registry


def _timed_setups(out, build, repeats):
    """Run ``build()`` ``repeats`` times into ``out.setups``; returns the
    last result.  ``build`` returns ``(result, excluded_s)``: excluded
    time (telemetry pre-generation, stopping an earlier repetition's
    workers) is not set-up time."""
    result = None
    for _ in range(max(1, int(repeats))):
        before = probe()
        started = time.perf_counter()
        result, excluded = build()
        elapsed = time.perf_counter() - started - excluded
        out.setups.append((elapsed, (before + probe()) / 2.0))
    return result


def _root_span(tracer, name, rid):
    """The benchmark's own span around one operation (none untraced)."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name, rid)


def _fault_specs(fault_mix):
    from repro.faults.injection import FaultSpec

    return [None if spec is None else FaultSpec(**spec) for spec in fault_mix]


class _Window:
    """The measured window: wall and CPU clocks plus the tracer switch."""

    def __init__(self, out, tracer):
        self.out = out
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.start()
        self._cpu = _cpu()
        return self

    def __exit__(self, *exc):
        cpu = _cpu()
        if self.tracer is not None:
            self.tracer.stop()
        self.out.cpu_self_s = cpu[0] - self._cpu[0]
        self.out.cpu_children_s = cpu[1] - self._cpu[1]
        return False


# -- fleet -------------------------------------------------------------------


def run_fleet(params, seed, seconds, workdir, meter, tracer=None, setup_repeats=3,
              fault_mix=()):
    """Cluster power capping over a fault-injected mixed-SKU fleet."""
    from repro.faults.filtering import BAD
    from repro.fleet.cluster_cap import ClusterPowerManager
    from repro.fleet.simulator import make_fleet
    from repro.obs.events import EventLog
    from repro.obs.ledger import PredictionLedger
    from repro.serve.service import SKU_SPECS

    skus = list(params["skus"])
    nodes = int(params["nodes"])
    cap_w = float(params["cap_w_per_node"]) * nodes
    digest_rounds = int(params["digest_rounds"])

    def build():
        registry = _train(seed, skus)
        specs = [SKU_SPECS[skus[i % len(skus)]] for i in range(nodes)]
        fleet = make_fleet(
            specs, registry, base_seed=seed, fault_specs=_fault_specs(fault_mix)
        )
        events = EventLog()
        manager = ClusterPowerManager(
            fleet,
            cap_schedule=cap_w,
            policy=params["policy"],
            harden=True,
            events=events,
            ledger=PredictionLedger(events=events),
        )
        return manager, 0.0

    out = Outcome(nodes_per_op=nodes)
    manager = _timed_setups(out, build, setup_repeats)
    if int(params["warmup_rounds"]) > 0:
        manager.run(int(params["warmup_rounds"]))

    runs = []
    with _Window(out, tracer):
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            with _root_span(tracer, "bench.round", len(runs)):
                runs.append(manager.run(1, resume=True))
            t1 = time.perf_counter()
            meter.add(t1 - t0)
            if len(runs) == digest_rounds:
                out.peak_rss_kb = _peak_rss_kb()
            if t1 - started >= seconds and len(runs) >= digest_rounds:
                break
        meter.close()
        out.wall_s = time.perf_counter() - started

    out.attempted = out.decided = len(runs) * nodes
    bad = 0
    for k, run in enumerate(runs):
        cap = run.caps[0]
        shares = run.shares[0]
        decided = min(len(shares), len(run.node_quality[0]), len(run.node_healthy[0]))
        if decided != nodes:
            out.failed += nodes - decided
            out.problems.append(
                "round {}: {} decisions for {} nodes".format(k, decided, nodes)
            )
        if sum(shares) > cap * (1.0 + _CAP_SLACK) or min(shares) < 0.0:
            out.problems.append(
                "round {}: shares sum {!r} outside [0, cap {!r}]".format(
                    k, sum(shares), cap
                )
            )
        bad += sum(1 for q in run.node_quality[0] if q == BAD)
    out.digest = _digest(
        [
            {
                "caps": run.caps,
                "shares": run.shares,
                "node_powers": run.node_powers,
                "node_quality": run.node_quality,
                "node_healthy": run.node_healthy,
            }
            for run in runs[:digest_rounds]
        ]
    )
    out.counts = {"bad": bad, "rounds": len(runs)}
    return out


# -- telemetry pre-generation --------------------------------------------------


def _pregenerate(fleets, intervals):
    """``make_sources`` order, keeping each line's (node, interval, sku)."""
    from repro.serve.protocol import telemetry_line

    lines = []
    for k in range(intervals):
        for sku, fleet in fleets.items():
            for node, sample in zip(fleet.nodes, fleet.step()):
                lines.append(
                    (node.name, k, sku, telemetry_line(node.name, sku, k, sample))
                )
    return lines


def _serve_config(params, seed, workdir=None):
    from repro.serve.service import ServeConfig

    return ServeConfig(
        skus=tuple(params["skus"]),
        nodes_per_sku=int(params["nodes_per_sku"]),
        intervals=int(params["intervals"]),
        queue_size=int(params.get("queue_size", 64)),
        checkpoint_every=int(params["checkpoint_every"]),
        checkpoint_dir=None if workdir is None else os.path.join(workdir, "ckpt"),
        events_dir=None if workdir is None else os.path.join(workdir, "events"),
        base_seed=seed,
    )


def _budget_problems(state, budget_w, where):
    total = sum(float(b["value"]) for b in state["budgets"].values())
    if total > budget_w * (1.0 + _CAP_SLACK):
        return ["{}: shares sum {!r} above the budget {!r}".format(where, total, budget_w)]
    return []


# -- shard -------------------------------------------------------------------


class _ShardLane:
    """One SKU's pipeline plus the worker's checkpoint/event discipline."""

    def __init__(self, shard, config, directory):
        from repro.obs.events import EventLog
        from repro.serve.checkpoint import Checkpointer
        from repro.serve.shard import ShardPipeline

        os.makedirs(directory, exist_ok=True)
        self.events = EventLog(
            os.path.join(directory, "shard-{}.jsonl".format(shard.sku)),
            flush_every=10**9,
        )
        self.pipeline = ShardPipeline(
            sku=shard.sku,
            spec=shard.spec,
            ppep=shard.ppep,
            node_names=shard.node_names,
            budget_w=shard.budget_w,
            policy=shard.policy,
            unhealthy_after=shard.unhealthy_after,
            events=self.events,
        )
        self.spec = shard.spec
        self.budget_w = shard.budget_w
        self.delivered = 0
        self.checkpointer = Checkpointer(
            os.path.join(directory, "shard-{}.json".format(shard.sku)),
            self._state,
            every_intervals=config.checkpoint_every,
        )

    def _state(self):
        state = self.pipeline.state_dict()
        state["delivered"] = self.delivered
        return state


def run_shard(params, seed, seconds, workdir, meter, tracer=None, setup_repeats=3):
    """The serve shard's per-line path in one process, replayed in passes."""
    from repro.faults.filtering import BAD
    from repro.serve import protocol
    from repro.serve.service import build_shards

    config = _serve_config(params, seed)
    digest_n = int(params["digest_decisions"])
    state = {"passes": 0}

    def new_pass(shards):
        directory = os.path.join(workdir, "pass-{}".format(state["passes"]))
        state["passes"] += 1
        return {shard.sku: _ShardLane(shard, config, directory) for shard in shards}

    def build():
        registry = _train(seed, config.skus)
        shards, fleets = build_shards(registry, config)
        excluded = 0.0
        if "lines" not in state:
            t0 = time.perf_counter()
            state["lines"] = _pregenerate(fleets, config.intervals)
            excluded = time.perf_counter() - t0
        state["shards"] = shards
        return new_pass(shards), excluded

    out = Outcome()
    lanes = _timed_setups(out, build, setup_repeats)
    lines = state["lines"]
    first: List[tuple] = []
    bad = 0
    rounds = 0
    wall = 0.0
    done = False
    with _Window(out, tracer):
        while not done:
            current = []
            started = time.perf_counter()
            for node, k, _sku, line in lines:
                t0 = time.perf_counter()
                with _root_span(tracer, "bench.line", (node, k)):
                    event = protocol.parse_telemetry(protocol.decode_line(line))
                    lane = lanes[event["sku"]]
                    sample = protocol.sample_from_wire(event["sample"], lane.spec)
                    try:
                        result = lane.pipeline.process(event["node"], sample)
                    except Exception as exc:  # a worker counts these and moves on
                        result = None
                        out.failed += 1
                        out.problems.append(
                            "{}@{}: process() raised {!r}".format(node, k, exc)
                        )
                    lane.delivered += 1
                    if lane.checkpointer.tick(aligned=not lane.pipeline.mid_round):
                        lane.events.flush()
                t1 = time.perf_counter()
                meter.add(t1 - t0)
                out.attempted += 1
                if out.attempted == digest_n:
                    out.peak_rss_kb = _peak_rss_kb()
                if result is not None:
                    current.append((result["node"], result["interval"], list(result["decision"])))
                    bad += result["quality"] == BAD
                    if (result["node"], result["interval"]) != (node, k):
                        out.problems.append(
                            "line {}@{} decided as {}@{}".format(
                                node, k, result["node"], result["interval"]
                            )
                        )
                if wall + t1 - started >= seconds and out.attempted >= digest_n:
                    done = True
                    break
            meter.close()
            wall += time.perf_counter() - started
            if not first:
                first = current
            elif current != first[: len(current)]:
                out.problems.append(
                    "pass {} diverged from the first pass".format(state["passes"] - 1)
                )
            for lane in lanes.values():
                lane.events.close()
                out.problems += _budget_problems(
                    lane.pipeline.state_dict(), lane.budget_w, "shard " + lane.pipeline.sku
                )
                rounds += lane.pipeline.stats()["allocations"]
            if not done:
                lanes = new_pass(state["shards"])

    out.wall_s = wall
    out.decided = out.attempted - out.failed
    if len(first) < digest_n:
        out.problems.append(
            "only {} decisions for a {}-decision digest".format(len(first), digest_n)
        )
    out.digest = _digest(first[:digest_n])
    out.counts = {"bad": bad, "rounds": rounds}
    return out


# -- serve -------------------------------------------------------------------


async def _supervise(manager, stop, period_s=0.5):
    """The service's watchdog: restart, drain reports, detect stalls."""
    while not stop.is_set():
        manager.ensure_alive()
        manager.poll()
        manager.check_heartbeats()
        try:
            await asyncio.wait_for(stop.wait(), timeout=period_s)
        except asyncio.TimeoutError:
            continue


async def _deliver(reader, writer, line, counts):
    """Send one line until it is not refused, backing off as told.

    Returns the final reply and the seconds spent backing off.
    """
    from repro.serve.protocol import RETRY, SHED

    waited = 0.0
    for _attempt in range(1000):
        writer.write(line)
        await writer.drain()
        counts["sends"] += 1
        reply = json.loads(await reader.readline())
        if reply.get("status") not in (RETRY, SHED):
            return reply, waited
        counts["retries"] += 1
        slept = time.perf_counter()
        await asyncio.sleep(float(reply.get("retry_after_s", 0.05)))
        waited += time.perf_counter() - slept
    raise RuntimeError("a line was refused 1000 times")


async def _client_pass(manager, lines, out, meter, deadline, digest_n, round_size,
                       tracer):
    """One closed-loop connection: each line is sent after the previous
    one is accepted.  Returns the (node, interval) keys accepted, in
    send order.

    The stream is cut only at a round boundary: a worker stopped
    mid-round keeps its last aligned checkpoint and drops the event
    tail, so the decision stream would end early.
    """
    from repro.serve.ingest import Ingestor
    from repro.serve.protocol import ACCEPTED, DUPLICATE

    ingestor = Ingestor(manager, host="127.0.0.1", port=0)
    await ingestor.start()
    stop = asyncio.Event()
    watchdog = asyncio.ensure_future(_supervise(manager, stop))
    accepted = []
    try:
        reader, writer = await asyncio.open_connection(ingestor.host, ingestor.port)
        try:
            for index, (node, k, _sku, line) in enumerate(lines, start=1):
                t0 = time.perf_counter()
                if tracer is not None:
                    out.send_stamps.setdefault((node, k), t0)
                out.attempted += 1
                with _root_span(tracer, "bench.line", (node, k)):
                    reply, waited = await _deliver(reader, writer, line, out.counts)
                if reply.get("status") in (ACCEPTED, DUPLICATE):
                    accepted.append((node, k))
                else:
                    out.failed += 1
                    out.problems.append("{}@{}: server replied {}".format(node, k, reply))
                t1 = time.perf_counter()
                meter.add(t1 - t0, waited)
                if t1 >= deadline and out.attempted >= digest_n and index % round_size == 0:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
    finally:
        stop.set()
        await watchdog
        await ingestor.stop()
    if ingestor.stats.errors:
        out.problems.append("{} error responses".format(ingestor.stats.errors))
    return accepted


def run_serve(params, seed, seconds, workdir, meter, tracer=None, setup_repeats=3):
    """TCP ingest -> shard manager -> forked worker, one closed-loop client."""
    from repro.faults.filtering import BAD
    from repro.obs.events import read_events
    from repro.serve.checkpoint import read_checkpoint
    from repro.serve.manager import ShardManager
    from repro.serve.service import build_shards

    digest_n = int(params["digest_decisions"])
    round_size = int(params["nodes_per_sku"]) * len(params["skus"])
    state = {"managers": 0}

    def start_manager(shards):
        directory = os.path.join(workdir, "run-{}".format(state["managers"]))
        state["managers"] += 1
        config = _serve_config(params, seed, directory)
        manager = ShardManager(
            shards,
            queue_size=config.queue_size,
            checkpoint_dir=config.checkpoint_dir,
            checkpoint_every=config.checkpoint_every,
            events_dir=config.events_dir,
        )
        manager.start()
        return manager, config

    def build():
        registry = _train(seed, params["skus"])
        shards, fleets = build_shards(registry, _serve_config(params, seed))
        excluded = 0.0
        if "lines" not in state:
            # Pre-generate before any worker forks, so a worker never
            # sits unsupervised through it.
            t0 = time.perf_counter()
            state["lines"] = _pregenerate(fleets, int(params["intervals"]))
            excluded = time.perf_counter() - t0
        if "manager" in state:
            t0 = time.perf_counter()
            state["manager"][0].stop()
            excluded += time.perf_counter() - t0
        state["shards"] = shards
        state["manager"] = start_manager(shards)
        return state["manager"], excluded

    out = Outcome()
    out.counts = {"retries": 0, "sends": 0}
    manager, config = _timed_setups(out, build, setup_repeats)
    lines = state["lines"]
    wall = 0.0
    processed = 0
    allocations = 0
    bad = 0
    first: Optional[list] = None
    pass_no = 0
    with _Window(out, tracer):
        while True:
            started = time.perf_counter()
            deadline = started + seconds - wall
            try:
                accepted = asyncio.run(_client_pass(
                    manager, lines, out, meter, deadline, digest_n, round_size, tracer
                ))
                meter.close()
                wall += time.perf_counter() - started
            finally:
                # Like starting the next pass's manager, stopping this one
                # is the benchmark's pass boundary, not measured time.
                final = manager.stop()

            allocations += sum(s["allocations"] for s in final["shards"].values())
            if final["accepted"] != final["processed"] or final["accepted"] != len(accepted):
                out.problems.append(
                    "pass {}: {} lines accepted by the client, {} by the manager, "
                    "{} processed".format(
                        pass_no, len(accepted), final["accepted"], final["processed"]
                    )
                )
            decisions = []
            for sku in config.skus:
                path = os.path.join(config.events_dir, "shard-{}.jsonl".format(sku))
                for event in read_events(path):
                    if event["type"] == "decision":
                        decisions.append(
                            (event["node"], event["interval"], list(event["vf_index"]))
                        )
                        bad += event.get("quality") == BAD
                ckpt = read_checkpoint(
                    os.path.join(config.checkpoint_dir, "shard-{}.json".format(sku))
                )
                if ckpt is None:
                    out.problems.append("pass {}: no final checkpoint".format(pass_no))
                else:
                    out.problems += _budget_problems(
                        ckpt, float(params["nodes_per_sku"]) * config.budget_per_node_w,
                        "pass {} shard {}".format(pass_no, sku),
                    )
            processed += len(decisions)
            if [(n, k) for n, k, _vf in decisions] != accepted:
                out.problems.append(
                    "pass {}: decision stream is not one decision per accepted "
                    "line in delivery order".format(pass_no)
                )
            if first is None:
                first = decisions
                out.peak_rss_kb = _peak_rss_kb()
            elif decisions != first[: len(decisions)]:
                out.problems.append("pass {} diverged from the first pass".format(pass_no))
            pass_no += 1
            if wall >= seconds or len(accepted) < len(lines):
                break
            manager, config = start_manager(state["shards"])

    out.wall_s = wall
    out.decided = processed
    # Every line sent is either decided or failed (refused, lost).
    out.failed = max(out.failed, out.attempted - processed)
    if len(first) < digest_n:
        out.problems.append(
            "only {} decisions for a {}-decision digest".format(len(first), digest_n)
        )
    out.digest = _digest(first[:digest_n])
    out.counts.update({"bad": bad, "rounds": allocations})
    return out


KINDS = {"fleet": run_fleet, "shard": run_shard, "serve": run_serve}
