"""The serve stack: shard behavior, backpressure, ingestion, lifecycle.

Routing and backpressure are tested against a :class:`ShardManager`
whose workers are *not* started -- ``submit`` only enqueues, so a
bounded queue with no consumer makes the full/retry path deterministic.
The end-to-end tests then run the real thing: forked workers, a real
TCP socket, checkpoints on disk, and a second service run resuming from
them.
"""

import asyncio
import json
import queue

import pytest

from repro.hardware.microarch import FX8320_SPEC
from repro.obs.events import EventLog, read_events
from repro.serve.checkpoint import read_checkpoint
from repro.serve.ingest import Ingestor, ingest_lines, ingest_lines_async
from repro.serve.manager import ShardManager, ShardSpec
from repro.serve.protocol import (
    ProtocolError,
    decode_line,
    parse_telemetry,
    telemetry_line,
)
from repro.serve.service import ServeConfig, build_shards, run_service
from repro.serve.shard import ShardPipeline


def _shard_spec(tiny_registry, node_names=("fx8320-n00", "fx8320-n01")):
    return ShardSpec(
        sku="fx8320",
        spec=FX8320_SPEC,
        ppep=tiny_registry.get(FX8320_SPEC),
        node_names=list(node_names),
    )


def _wire_events(node, sku, n, seed=51):
    """Parsed telemetry events as the ingest front-end would hand over."""
    from repro.hardware.platform import CoreAssignment, Platform
    from repro.workloads.synthetic import make_cpu_bound

    platform = Platform(FX8320_SPEC, seed=seed, power_gating=True)
    platform.set_assignment(
        CoreAssignment.packed([make_cpu_bound("serve-test")])
    )
    events = []
    for k in range(n):
        line = telemetry_line(node, sku, k, platform.step())
        events.append(parse_telemetry(decode_line(line)))
    return events


def _shard_ledger_replay(tiny_registry, closed_loop, budget_w=180.0, intervals=40):
    """Drive a 3-node FX-8320 shard with injected faults for
    ``intervals`` rounds; return the ledger rows it must have recorded,
    worked out with independent filters and ``predict_mixed``, and the
    rows it did record, both keyed by (node, interval).

    With ``closed_loop`` each node runs the decision the shard returns,
    as a fleet node does; otherwise it stays where it started.
    """
    from repro.faults.filtering import TelemetryFilter
    from repro.fleet.simulator import make_fleet
    from tests.test_fleet_batch import FAULTS

    fleet = make_fleet([FX8320_SPEC] * 3, tiny_registry, fault_specs=FAULTS)
    ppep = fleet.nodes[0].ppep
    table = FX8320_SPEC.vf_table
    names = [node.name for node in fleet.nodes]
    events = EventLog()
    pipeline = ShardPipeline(
        sku="fx8320", spec=FX8320_SPEC, ppep=ppep, node_names=names,
        budget_w=budget_w, events=events,
    )
    filters = {name: TelemetryFilter(ppep.spec) for name in names}
    held = dict.fromkeys(names)
    queued = {}  # node -> (applied VF indices, price, how it was priced)
    expected = {}  # (node, interval) -> (vf index, price, measured, quality, how)
    for k in range(intervals):
        for node, sample in zip(fleet.nodes, fleet.step()):
            name = node.name
            verdict = filters[name].ingest(sample)
            result = pipeline.process(name, sample)
            assert (result["interval"], result["quality"]) == (k, verdict.quality)
            clean = verdict.sample
            states = ppep.core_states(clean)

            def price(assignment):
                power, _rate = ppep.predict_mixed(
                    states, clean.temperature, assignment, clean.power_gating
                )
                return float(power)

            previous = queued.pop(name, None)
            if verdict.actionable:
                ran = [vf.index for vf in clean.cu_vfs]
                # A price queued with nothing held names CU 0's state only.
                if previous is not None and (
                    ran == previous[0]
                    or (held[name] is None and ran[0] == previous[0][0])
                ):
                    row = (previous[0][0], previous[1], previous[2])
                elif previous is None:
                    row = (ran[0], price(clean.cu_vfs), "first")
                else:
                    how = "ran another"
                    if ran[0] == previous[0][0]:
                        how = "ran another, same CU 0"
                    row = (ran[0], price(clean.cu_vfs), how)
                expected[(name, k)] = (
                    row[0], row[1], clean.measured_power, verdict.quality, row[2]
                )
            applied = [table.by_index(i) for i in result["decision"]]
            if closed_loop:
                for cu, vf in enumerate(applied):
                    node.platform.set_cu_vf(cu, vf)
            if not result["healthy"]:
                held[name] = None
                continue
            how = "reused"
            if verdict.actionable:
                held[name] = result["decision"]
            elif held[name] is not None:
                assert result["decision"] == held[name]
                how = "held"
            queued[name] = (result["decision"], price(applied), how)
    predictions = events.of_type("prediction")
    rows = {
        (row["node"], row["interval"]): (
            row["vf_index"], row["predicted_power"], row["measured_power"],
            row["quality"],
        )
        for row in predictions
    }
    assert len(rows) == len(predictions)
    return expected, rows


def _split_stream(tiny_registry):
    """A 4-node FX-8320 shard with injected faults and the stream the
    split tests feed it: 20 open-loop rounds under a 300 W budget, which
    binds on some lines and proves the floor on others (a quarantine
    episode comes from the faults).  ``n03`` straggles in round 5, so
    ``n00`` closes that round by lapping; an unknown node leads round 8
    and a line the model rejects (diode at 0 K, gating off) leads
    round 11, each right after a round closed.  Returns a factory of
    fresh pipelines and the ``(node, sample)`` lines."""
    import dataclasses

    from repro.fleet.simulator import make_fleet
    from tests.test_fleet_batch import FAULTS

    fleet = make_fleet([FX8320_SPEC] * 4, tiny_registry, fault_specs=FAULTS)
    names = [node.name for node in fleet.nodes]
    rounds = [list(zip(names, fleet.step())) for _ in range(20)]
    del rounds[5][3]
    rounds[8].insert(0, ("stranger", rounds[8][0][1]))
    node, sample = rounds[11][1]
    rounds[11].insert(
        0, (node, dataclasses.replace(sample, temperature=0.0, power_gating=False))
    )

    def pipeline():
        return ShardPipeline(
            sku="fx8320", spec=FX8320_SPEC, ppep=fleet.nodes[0].ppep,
            node_names=names, budget_w=300.0, events=EventLog(),
        )

    return pipeline, [line for lines in rounds for line in lines]


def _feed(pipeline, lines, sizes=None):
    """Feed ``lines`` one per ``process`` call (``sizes=None``) or in
    chunks of ``sizes`` through ``process_lines``; per line, returns
    (outcome, mid_round, state_dict, events so far, last of its call,
    the table and row the node's capper priced from)."""
    trail = []

    def note(node, outcome, last):
        control = pipeline._controls.get(node)
        priced = None
        if control is not None and not isinstance(outcome, Exception):
            priced = control.capper._priced
        trail.append((
            type(outcome) if isinstance(outcome, Exception) else outcome,
            pipeline.mid_round,
            pipeline.state_dict(),
            len(pipeline.events.records),
            last,
            priced,
        ))

    if sizes is None:
        for node, sample in lines:
            try:
                outcome = pipeline.process(node, sample)
            except Exception as exc:
                outcome = exc
            note(node, outcome, True)
        return trail
    start = 0
    for size in sizes:
        chunk = lines[start:start + size]
        for k, outcome in enumerate(pipeline.process_lines(chunk)):
            note(chunk[k][0], outcome, k == len(chunk) - 1)
        start += size
    assert start >= len(lines)
    return trail


class TestShardPipelineBehavior:
    def test_quarantine_enter_and_exit(self, tiny_registry):
        from repro.obs.events import EventLog

        events = EventLog()
        pipeline = ShardPipeline(
            sku="fx8320", spec=FX8320_SPEC,
            ppep=tiny_registry.get(FX8320_SPEC),
            node_names=["solo"], unhealthy_after=2, events=events,
        )
        wire = _wire_events("solo", "fx8320", 8)
        from repro.serve.protocol import sample_from_wire

        samples = [sample_from_wire(e["sample"], FX8320_SPEC) for e in wire]
        for s in samples[:3]:
            pipeline.process("solo", s)
        # Redeliver the same sample: stale -> BAD -> streak -> quarantine.
        stale = samples[2]
        r1 = pipeline.process("solo", stale)
        r2 = pipeline.process("solo", stale)
        assert not r1["healthy"] or not r2["healthy"]
        assert len(events.of_type("quarantine_enter")) == 1
        # The pinned decision is the slowest VF for every CU.
        slowest = FX8320_SPEC.vf_table.slowest.index
        assert r2["decision"] == [slowest] * FX8320_SPEC.num_cus
        # Fresh telemetry readmits the node.
        for s in samples[3:6]:
            pipeline.process("solo", s)
        assert len(events.of_type("quarantine_exit")) == 1

    def test_ledger_prices_equal_predict_mixed_of_applied_decision(
        self, tiny_registry
    ):
        """With senders that apply its decisions, the shard's ledger
        scores what the fleet manager's does: each row is
        ``predict_mixed`` of the decision applied at interval k - 1, on
        that interval's cleaned sample, against the power the node
        delivers at k -- the capper's own price reused, or a held
        decision priced again."""
        expected, rows = _shard_ledger_replay(tiny_registry, closed_loop=True)
        assert rows == {key: value[:4] for key, value in expected.items()}
        hows = [value[4] for value in expected.values()]
        assert hows.count("reused") > 0 and hows.count("held") > 0
        # An in-interval fit only where nothing was queued: a node's
        # first interval, or its first after quarantine.
        assert set(hows) == {"reused", "held", "first"}

    def test_open_loop_rows_price_the_assignment_the_node_ran(
        self, tiny_registry
    ):
        """Senders that ignore the decisions (the serve streams) are
        never scored against a price for another VF assignment: a row
        is the in-interval fit of the assignment the node ran, unless
        that happens to be the decision it was sent."""
        expected, rows = _shard_ledger_replay(
            tiny_registry, closed_loop=False, budget_w=330.0
        )
        assert rows == {key: value[:4] for key, value in expected.items()}
        hows = [value[4] for value in expected.values()]
        assert hows.count("ran another") > 0
        # Decisions that share only CU 0's state with what ran, too.
        assert hows.count("ran another, same CU 0") > 0
        assert hows.count("reused") > 0
        fastest = FX8320_SPEC.vf_table.fastest.index
        assert {value[0] for value in expected.values()} == {fastest}

    def test_ledger_scores_the_repaired_power(self, tiny_registry):
        """A spiked reading the filter rejects never reaches the ledger:
        the row measures the filter's repaired interval power."""
        import dataclasses

        from repro.faults.filtering import REPAIRED, TelemetryFilter
        from repro.serve.protocol import sample_from_wire

        ppep = tiny_registry.get(FX8320_SPEC)
        events = EventLog()
        pipeline = ShardPipeline(
            sku="fx8320", spec=FX8320_SPEC, ppep=ppep, node_names=["solo"],
            events=events,
        )
        shadow = TelemetryFilter(ppep.spec)
        wire = _wire_events("solo", "fx8320", 6)
        samples = [sample_from_wire(e["sample"], FX8320_SPEC) for e in wire]
        readings = list(samples[5].power_samples)
        readings[0] *= 5.0
        samples[5] = dataclasses.replace(
            samples[5],
            power_samples=readings,
            measured_power=sum(readings) / len(readings),
        )
        for sample in samples:
            verdict = shadow.ingest(sample)
            pipeline.process("solo", sample)
        assert verdict.quality == REPAIRED and "spike" in verdict.issues
        row = events.of_type("prediction")[-1]
        assert row["interval"] == 5 and row["quality"] == REPAIRED
        assert row["measured_power"] == verdict.sample.measured_power
        assert row["measured_power"] < samples[5].measured_power

    def test_rejected_sample_moves_only_its_filter(self, tiny_registry):
        """A line the model rejects (a non-positive diode temperature
        passes the wire schema and the filter) raises before the capper,
        the counters, the node's control state or the ledger move."""
        import dataclasses

        from repro.serve.protocol import sample_from_wire

        pipeline = ShardPipeline(
            sku="fx8320", spec=FX8320_SPEC,
            ppep=tiny_registry.get(FX8320_SPEC),
            node_names=["solo"],
        )
        wire = _wire_events("solo", "fx8320", 5)
        samples = [sample_from_wire(e["sample"], FX8320_SPEC) for e in wire]
        for sample in samples[:4]:
            pipeline.process("solo", sample)
        before = pipeline.state_dict()
        poison = dataclasses.replace(
            samples[4], temperature=0.0, power_gating=False
        )
        with pytest.raises(ValueError, match="temperature"):
            pipeline.process("solo", poison)
        after = pipeline.state_dict()
        assert after["filters"] != before["filters"]
        after.pop("filters"), before.pop("filters")
        assert after == before
        # The shard keeps serving the stream.
        assert pipeline.process("solo", samples[4])["interval"] == 4

    def test_splitting_a_stream_never_changes_it(self, tiny_registry, monkeypatch):
        """The batch entry, whatever the chunks, gives what one line per
        ``process`` call gives: each line's result or exception type,
        the event stream, and the state after every line.  Inside a run
        the filters of its undecided lines have moved ahead, so the
        filter states are compared wherever nothing is left undecided:
        at every ``mid_round``-false line and at the end of every call.
        Each run's table holds distinct nodes, and only its last line
        may close a round.  Restoring the state at any ``mid_round``-
        false line into a fresh pipeline replays the rest identically."""
        import random

        from repro.core.ppep import MixedPricer
        from repro.dvfs.power_capping import PPEPPowerCapper

        make, lines = _split_stream(tiny_registry)
        # The reference feed, spying on each decision's cap and bound.
        caps, bounds = [], []
        advance, lower_bound = PPEPPowerCapper._advance, MixedPricer.lower_bound
        monkeypatch.setattr(
            PPEPPowerCapper, "_advance",
            lambda self, power: caps.append(advance(self, power)) or caps[-1],
        )
        monkeypatch.setattr(
            MixedPricer, "lower_bound",
            lambda self, row: bounds.append((len(caps), lower_bound(self, row)))
            or bounds[-1][1],
        )
        reference = make()
        expected = _feed(reference, lines)
        monkeypatch.undo()
        table = FX8320_SPEC.vf_table
        floor = [table.slowest.index] * FX8320_SPEC.num_cus
        decisions = [
            outcome["decision"] for outcome, *_ in expected if isinstance(outcome, dict)
        ]
        assert any(d not in (floor, [table.fastest.index] * 4) for d in decisions)
        assert any(bound > caps[at - 1] for at, bound in bounds)  # floor proven
        outcomes = [outcome for outcome, *_ in expected]
        assert outcomes.count(KeyError) == 1 and outcomes.count(ValueError) == 1
        types = {event["type"] for event in reference.events.records}
        assert {"quarantine_enter", "quarantine_exit"} <= types
        assert reference.allocations == 20  # round 5 too, by the lap

        roster = len(reference.node_names)
        rng = random.Random(23)
        splits = [[size] * len(lines) for size in range(1, roster + 3)]
        splits += [[rng.randint(1, 2 * roster) for _ in lines] for _ in range(3)]
        for sizes in splits:
            pipeline = make()
            trail = _feed(pipeline, lines, sizes)
            assert len(trail) == len(expected)
            tables = {}
            allocations = 0
            for at, (got, want) in enumerate(zip(trail, expected)):
                outcome, mid, state, seen, last, priced = got
                assert outcome == want[0], (sizes[0], at)
                assert seen == want[3]
                assert {**state, "filters": None} == {**want[2], "filters": None}
                if isinstance(outcome, dict):
                    assert mid == want[1], (sizes[0], at)
                    rows = tables.setdefault(id(priced[0]), (priced[0], []))[1]
                    rows.append((outcome["node"], state["allocations"] - allocations))
                else:
                    assert mid or not want[1]
                if not mid or last:
                    assert state == want[2], (sizes[0], at)
                allocations = state["allocations"]
            assert pipeline.events.records == reference.events.records
            for _table, rows in tables.values():
                nodes = [node for node, _closed in rows]
                assert len(set(nodes)) == len(nodes)
                assert not any(closed for _node, closed in rows[:-1])
            assert pipeline.table_rows == len(decisions)
            if sizes[0] == 1 and len(set(sizes)) == 1:
                assert pipeline.tables == len(decisions)
            else:
                assert pipeline.tables < len(decisions)
            # Restart wherever a checkpoint could land.
            for at, (_outcome, mid, state, seen, _last, _priced) in enumerate(trail):
                if mid:
                    continue
                resumed = make()
                resumed.load_state_dict(json.loads(json.dumps(state)))
                rest = [
                    type(o) if isinstance(o, Exception) else o
                    for o in resumed.process_lines(lines[at + 1:])
                ]
                assert rest == outcomes[at + 1:], (sizes[0], at)
                assert resumed.state_dict() == expected[-1][2]
                assert resumed.events.records == reference.events.records[seen:]

    def test_unknown_node_rejected(self, tiny_registry):
        pipeline = ShardPipeline(
            sku="fx8320", spec=FX8320_SPEC,
            ppep=tiny_registry.get(FX8320_SPEC), node_names=["a"],
        )
        with pytest.raises(KeyError, match="roster"):
            pipeline.process("stranger", object())

    def test_straggler_round_is_closed_by_lapping(self, tiny_registry):
        """If node a delivers twice before node b delivers once, the
        partial round is allocated rather than held forever."""
        pipeline = ShardPipeline(
            sku="fx8320", spec=FX8320_SPEC,
            ppep=tiny_registry.get(FX8320_SPEC), node_names=["a", "b"],
        )
        from repro.serve.protocol import sample_from_wire

        wire = _wire_events("a", "fx8320", 3)
        samples = [sample_from_wire(e["sample"], FX8320_SPEC) for e in wire]
        pipeline.process("a", samples[0])
        assert pipeline.allocations == 0
        pipeline.process("a", samples[1])  # b never showed: lap closes round
        assert pipeline.allocations == 1

    def test_constructor_validation(self, tiny_registry):
        ppep = tiny_registry.get(FX8320_SPEC)
        with pytest.raises(ValueError, match="at least one node"):
            ShardPipeline("s", FX8320_SPEC, ppep, [])
        with pytest.raises(ValueError, match="unique"):
            ShardPipeline("s", FX8320_SPEC, ppep, ["a", "a"])
        with pytest.raises(ValueError, match="unhealthy_after"):
            ShardPipeline("s", FX8320_SPEC, ppep, ["a"], unhealthy_after=0)


class _OneAtATime(queue.Queue):
    """A queue whose ``get_nowait`` never finds anything: the worker
    takes one item per loop, as it did before it drained rounds."""

    def get_nowait(self):
        raise queue.Empty


class TestWorkerLoop:
    def _run(self, tiny_registry, directory, in_queue):
        """Run ``shard_worker_main`` in this process over a pre-filled
        ``in_queue``: three and a half rounds of a 4-node roster, one
        undecodable item mid-round, then STOP mid-round and two items
        behind it.  Returns the decision events and checkpoint on disk,
        the final stats and how many items were left queued."""
        import signal

        from repro.serve.shard import STOP, shard_worker_main

        names = ["fx8320-n{:02d}".format(i) for i in range(4)]
        streams = [
            _wire_events(name, "fx8320", 4, seed=51 + i)
            for i, name in enumerate(names)
        ]
        items = [streams[i][k] for k in range(4) for i in range(4)]
        items.insert(6, dict(items[6], sample={}))
        items.insert(len(items) - 2, STOP)
        for item in items:
            in_queue.put(item)
        config = {
            "sku": "fx8320",
            "spec": FX8320_SPEC,
            "ppep": tiny_registry.get(FX8320_SPEC),
            "node_names": names,
            "budget_w": 300.0,
            "checkpoint_path": str(directory / "shard.json"),
            "checkpoint_every": 4,
            "events_path": str(directory / "shard.jsonl"),
        }
        out_queue = queue.Queue()
        handler = signal.getsignal(signal.SIGTERM)
        try:
            shard_worker_main(config, in_queue, out_queue)
        finally:
            signal.signal(signal.SIGTERM, handler)
        reports = []
        while not out_queue.empty():
            reports.append(out_queue.get_nowait())
        kind, _sku, stats = reports[-1]
        assert kind == "stopped"
        decisions = [
            event
            for event in read_events(config["events_path"])
            if event["type"] == "decision"
        ]
        return decisions, read_checkpoint(config["checkpoint_path"]), stats, (
            in_queue.qsize()
        )

    def test_draining_rounds_changes_nothing(self, tiny_registry, tmp_path):
        """Draining the open round's queued lines into one batch gives
        the decisions, final checkpoint and error count of one line per
        loop; STOP still ends the drain, mid-round."""
        (tmp_path / "drain").mkdir()
        (tmp_path / "single").mkdir()
        drained = self._run(tiny_registry, tmp_path / "drain", queue.Queue())
        single = self._run(tiny_registry, tmp_path / "single", _OneAtATime())
        decisions, checkpoint, stats, left = drained
        assert decisions == single[0]
        assert checkpoint == single[1]
        assert stats["errors"] == single[2]["errors"] == 1
        assert left == single[3] == 2
        # 15 items before STOP; the last aligned checkpoint is after 13.
        assert stats["delivered"] == single[2]["delivered"] == 15
        assert checkpoint["delivered"] == 13
        assert len(decisions) == 12
        assert single[2]["tables"] == single[2]["table_rows"] == 14
        assert stats["table_rows"] == 14 and stats["tables"] < 14


class TestManagerRouting:
    def test_routes_and_backpressures(self, tiny_registry):
        manager = ShardManager([_shard_spec(tiny_registry)], queue_size=2)
        events = _wire_events("fx8320-n00", "fx8320", 3)
        assert manager.submit(events[0])["status"] == "accepted"
        assert manager.submit(events[1])["status"] == "accepted"
        # No worker is draining: the third delivery must backpressure,
        # not silently drop.
        payload = manager.submit(events[2])
        assert payload["status"] == "retry"
        assert payload["retry_after_s"] > 0

    def test_unknown_node_and_sku_mismatch(self, tiny_registry):
        manager = ShardManager([_shard_spec(tiny_registry)])
        event = _wire_events("fx8320-n00", "fx8320", 1)[0]
        with pytest.raises(ProtocolError, match="unknown node"):
            manager.submit(dict(event, node="who"))
        with pytest.raises(ProtocolError, match="belongs to SKU"):
            manager.submit(dict(event, sku="phenom"))

    def test_duplicate_nodes_rejected(self, tiny_registry):
        with pytest.raises(ValueError, match="more than one shard"):
            ShardManager([
                _shard_spec(tiny_registry),
                ShardSpec(sku="fx8320b", spec=FX8320_SPEC,
                          ppep=tiny_registry.get(FX8320_SPEC),
                          node_names=["fx8320-n00"]),
            ])


class TestIngestor:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_tcp_accept_error_and_retry(self, tiny_registry):
        async def scenario():
            manager = ShardManager([_shard_spec(tiny_registry)], queue_size=1)
            ingestor = Ingestor(manager)
            await ingestor.start()
            reader, writer = await asyncio.open_connection(
                ingestor.host, ingestor.port
            )
            wire = _wire_events("fx8320-n00", "fx8320", 2)

            async def ask(line):
                writer.write(line)
                await writer.drain()
                return decode_line(await reader.readline())

            line0 = telemetry_bytes(wire[0])
            assert (await ask(line0))["status"] == "accepted"
            # Queue depth 1, no worker: second line backpressures.
            assert (await ask(telemetry_bytes(wire[1])))["status"] == "retry"
            # Malformed JSON and unroutable nodes are errors, not retries.
            assert (await ask(b"not json\n"))["status"] == "error"
            bad = dict(wire[0], node="stranger")
            assert (await ask(telemetry_bytes(bad)))["status"] == "error"
            writer.close()
            await writer.wait_closed()
            await ingestor.stop()
            assert ingestor.stats.as_dict() == {
                "lines": 4, "accepted": 1, "retried": 1, "errors": 2,
                "duplicates": 0, "sheds": 0,
            }

        def telemetry_bytes(event):
            return (json.dumps(event, sort_keys=True) + "\n").encode()

        self._run(scenario())

    def _full_queue(self, tiny_registry):
        """(manager, lines): two lines for a one-slot queue nobody drains."""
        manager = ShardManager([_shard_spec(tiny_registry)], queue_size=1)
        wire = _wire_events("fx8320-n00", "fx8320", 2)
        lines = [
            (json.dumps(e, sort_keys=True) + "\n").encode() for e in wire
        ]
        return manager, lines

    def test_ingest_lines_redelivers_until_accepted(self, tiny_registry):
        manager, lines = self._full_queue(tiny_registry)
        # Fake a worker: every sleep(), drain one item off the queue.
        handle = manager.shards["fx8320"]

        def drain(_delay):
            handle.in_queue.get()

        stats = ingest_lines(manager, lines, sleep=drain)
        assert stats.accepted == 2
        assert stats.retried >= 1  # the bounded queue pushed back
        assert stats.errors == 0

    def test_ingest_lines_async_redelivers_like_sync(
        self, tiny_registry, monkeypatch
    ):
        manager, lines = self._full_queue(tiny_registry)
        handle = manager.shards["fx8320"]
        expected = ingest_lines(
            manager, lines, sleep=lambda _delay: handle.in_queue.get()
        )
        manager, lines = self._full_queue(tiny_registry)
        handle = manager.shards["fx8320"]
        waits = []

        async def drain(delay):
            waits.append(delay)
            handle.in_queue.get()

        monkeypatch.setattr(asyncio, "sleep", drain)
        stats = self._run(ingest_lines_async(manager, lines))
        assert stats.as_dict() == expected.as_dict()
        assert len(waits) == stats.retried >= 1

    def test_ingest_lines_async_gives_up_like_sync(self, tiny_registry):
        manager, lines = self._full_queue(tiny_registry)
        with pytest.raises(RuntimeError, match="stayed full") as sync_error:
            ingest_lines(manager, lines, max_wait_s=0)
        manager, lines = self._full_queue(tiny_registry)
        with pytest.raises(RuntimeError) as async_error:
            self._run(ingest_lines_async(manager, lines, max_wait_s=0))
        assert str(async_error.value) == str(sync_error.value)

    def test_ingest_lines_counts_bad_lines(self, tiny_registry):
        manager = ShardManager([_shard_spec(tiny_registry)], queue_size=4)
        stats = ingest_lines(manager, [b"garbage\n", b"", b"   \n"])
        assert stats.lines == 1  # blank lines are skipped entirely
        assert stats.errors == 1


class TestServeConfig:
    def test_rejects_unknown_sku(self):
        with pytest.raises(ValueError, match="unknown SKUs"):
            ServeConfig(skus=("fx8320", "epyc"))

    def test_build_shards_prefixes_node_names(self, tiny_registry):
        config = ServeConfig(skus=("fx8320", "phenom"), nodes_per_sku=2)
        shards, fleets = build_shards(tiny_registry, config)
        names = [n for s in shards for n in s.node_names]
        assert names == [
            "fx8320-n00", "fx8320-n01", "phenom-n00", "phenom-n01",
        ]
        assert set(fleets) == {"fx8320", "phenom"}


class TestEndToEnd:
    def test_loopback_processes_everything(self, tiny_registry, tmp_path):
        config = ServeConfig(
            skus=("fx8320",), nodes_per_sku=2, intervals=20, queue_size=8,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_every=16,
            events_dir=str(tmp_path / "events"),
        )
        report = run_service(tiny_registry, config, mode="loopback")
        assert report["accepted"] == 40
        assert report["processed"] == 40
        assert report["client"]["errors"] == 0
        # Zero silent drops: every accepted interval was processed.
        assert report["processed"] == report["accepted"]
        # The shard checkpoint and event ledger are on disk and valid.
        state = read_checkpoint(str(tmp_path / "ckpt" / "shard-fx8320.json"))
        assert state["processed"] == 40
        events = list(
            read_events(str(tmp_path / "events" / "shard-fx8320.jsonl"))
        )
        assert any(e["type"] == "cap_reallocation" for e in events)
        assert any(e["type"] == "prediction" for e in events)

    def test_second_run_resumes_from_checkpoint(self, tiny_registry, tmp_path):
        config = ServeConfig(
            skus=("fx8320",), nodes_per_sku=1, intervals=10, queue_size=8,
            checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_every=4,
        )
        run_service(tiny_registry, config, mode="loopback")
        path = str(tmp_path / "ckpt" / "shard-fx8320.json")
        assert read_checkpoint(path)["processed"] == 10
        # Same checkpoint dir: the worker restores and keeps counting.
        run_service(tiny_registry, config, mode="loopback")
        assert read_checkpoint(path)["processed"] == 20

    def test_stdin_mode(self, tiny_registry, tmp_path):
        config = ServeConfig(
            skus=("fx8320",), nodes_per_sku=1, intervals=5, queue_size=8,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        shards, fleets = build_shards(tiny_registry, config)
        lines = []
        fleet = fleets["fx8320"]
        for k in range(5):
            for node, sample in zip(fleet.nodes, fleet.step()):
                lines.append(telemetry_line(node.name, "fx8320", k, sample))
        report = run_service(
            tiny_registry, config, mode="stdin", stdin=iter(lines)
        )
        assert report["ingest"]["accepted"] == 5
        assert report["processed"] == 5


class TestCLI:
    def test_serve_subcommand_loopback(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "serve", "--mode", "loopback", "--skus", "fx8320",
            "--nodes-per-sku", "1", "--intervals", "5",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--training", "quick",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "5 intervals processed" in out
        assert "shard fx8320" in out


class TestLineAssembler:
    """The defensive framing layer under the TCP ingest path."""

    def _feed(self, assembler, chunks):
        events = []
        for chunk in chunks:
            events.extend(assembler.feed(chunk))
        return events

    def test_lines_split_across_chunks_reassemble(self):
        from repro.serve.ingest import _LineAssembler

        assembler = _LineAssembler(max_line_bytes=64)
        events = self._feed(assembler, [b'{"a"', b": 1}\n", b'{"b": 2}\n'])
        assert events == [("line", b'{"a": 1}'), ("line", b'{"b": 2}')]
        assert assembler.eof() is None

    def test_oversized_line_reported_exactly_once(self):
        from repro.serve.ingest import _LineAssembler

        assembler = _LineAssembler(max_line_bytes=8)
        # 30 bytes of junk in three chunks, then a newline, then a good
        # line: one oversized event, framing resumes cleanly.
        events = self._feed(
            assembler, [b"x" * 10, b"x" * 10, b"x" * 10, b"\nok\n"]
        )
        assert events == [("oversized", b""), ("line", b"ok")]

    def test_oversized_never_buffers_beyond_one_chunk(self):
        from repro.serve.ingest import _LineAssembler

        assembler = _LineAssembler(max_line_bytes=8)
        for _ in range(100):
            assembler.feed(b"y" * 1024)  # 100 KB of newline-free junk
        assert len(assembler._buf) == 0  # dropped as it arrived
        assert assembler.feed(b"tail\nok\n") == [("line", b"ok")]

    def test_oversized_terminated_line_still_one_event(self):
        from repro.serve.ingest import _LineAssembler

        assembler = _LineAssembler(max_line_bytes=8)
        events = assembler.feed(b"z" * 9 + b"\nok\n")
        assert events == [("oversized", b""), ("line", b"ok")]

    def test_partial_line_surfaces_at_eof(self):
        from repro.serve.ingest import _LineAssembler

        assembler = _LineAssembler(max_line_bytes=64)
        assert assembler.feed(b'{"a": 1}\n{"half') == [("line", b'{"a": 1}')]
        assert assembler.eof() == b'{"half'

    def test_eof_while_skipping_oversized_reports_nothing(self):
        from repro.serve.ingest import _LineAssembler

        assembler = _LineAssembler(max_line_bytes=8)
        assembler.feed(b"x" * 20)
        assert assembler.eof() is None  # the junk is gone, not a "line"


class TestHostileInput:
    """The TCP front-end against a hostile byte stream: every abuse gets
    an ``error`` response line (with ``seq`` echoed when readable) and
    the connection -- and the service -- survive."""

    def _scenario(self, tiny_registry, abuse):
        async def run():
            manager = ShardManager([_shard_spec(tiny_registry)], queue_size=8)
            ingestor = Ingestor(manager)
            await ingestor.start()
            reader, writer = await asyncio.open_connection(
                ingestor.host, ingestor.port
            )
            result = await abuse(reader, writer)
            await ingestor.stop()
            return result, ingestor.stats.as_dict()

        return asyncio.run(run())

    def test_invalid_utf8_is_an_error_not_a_crash(self, tiny_registry):
        async def abuse(reader, writer):
            writer.write(b"\xff\xfe garbage bytes \x80\n")
            await writer.drain()
            first = decode_line(await reader.readline())
            # The connection survives: a valid line still goes through.
            good = _wire_events("fx8320-n00", "fx8320", 1)[0]
            writer.write((json.dumps(good, sort_keys=True) + "\n").encode())
            await writer.drain()
            second = decode_line(await reader.readline())
            writer.close()
            return first, second

        (first, second), stats = self._scenario(tiny_registry, abuse)
        assert first["status"] == "error"
        assert second["status"] == "accepted"
        assert stats["errors"] == 1
        assert stats["accepted"] == 1

    def test_oversized_line_bounded_and_answered(self, tiny_registry):
        from repro.serve.ingest import MAX_LINE_BYTES

        async def abuse(reader, writer):
            # Stream 2x the limit without a newline, then terminate it.
            for _ in range(2 * MAX_LINE_BYTES // 65536):
                writer.write(b"A" * 65536)
                await writer.drain()
            writer.write(b"\n")
            await writer.drain()
            first = decode_line(await reader.readline())
            good = _wire_events("fx8320-n00", "fx8320", 1)[0]
            writer.write((json.dumps(good, sort_keys=True) + "\n").encode())
            await writer.drain()
            second = decode_line(await reader.readline())
            writer.close()
            return first, second

        (first, second), stats = self._scenario(tiny_registry, abuse)
        assert first["status"] == "error"
        assert "byte limit" in first["reason"]
        assert second["status"] == "accepted"

    def test_partial_line_at_eof_gets_a_final_error(self, tiny_registry):
        async def abuse(reader, writer):
            writer.write(b'{"type": "telemetry", "node"')  # no newline
            await writer.drain()
            writer.write_eof()
            line = await reader.readline()
            writer.close()
            return decode_line(line)

        payload, stats = self._scenario(tiny_registry, abuse)
        assert payload["status"] == "error"
        assert "partial line" in payload["reason"]
        assert stats["errors"] == 1

    def test_error_responses_echo_the_seq(self, tiny_registry):
        async def abuse(reader, writer):
            # Well-formed JSON with a seq, but an unroutable node: the
            # error response must carry the seq back so a resilient
            # client can settle the in-flight send.
            writer.write(b'{"type": "telemetry", "node": "who", "seq": 7}\n')
            await writer.drain()
            line = await reader.readline()
            writer.close()
            return decode_line(line)

        payload, _stats = self._scenario(tiny_registry, abuse)
        assert payload["status"] == "error"
        assert payload["seq"] == 7
        # The node is echoed too: seq alone cannot name an in-flight
        # request, because per-node counters advance in lockstep and
        # collide across nodes.
        assert payload["node"] == "who"

    def test_accepted_responses_echo_node_and_seq(self, tiny_registry):
        async def abuse(reader, writer):
            good = _wire_events("fx8320-n00", "fx8320", 1)[0]
            good["seq"] = 3
            writer.write((json.dumps(good, sort_keys=True) + "\n").encode())
            await writer.drain()
            line = await reader.readline()
            writer.close()
            return decode_line(line)

        payload, _stats = self._scenario(tiny_registry, abuse)
        assert payload["status"] == "accepted"
        assert payload["seq"] == 3
        assert payload["node"] == "fx8320-n00"


class TestIngestLinesWaitCap:
    def test_permanently_stuck_queue_raises_instead_of_stalling(
        self, tiny_registry
    ):
        """A dead shard must surface as an error after the cumulative
        wait cap, not block the stdin loop forever."""
        manager = ShardManager(
            [_shard_spec(tiny_registry)], queue_size=1, retry_after_s=0.5
        )
        wire = _wire_events("fx8320-n00", "fx8320", 2)
        lines = [
            (json.dumps(e, sort_keys=True) + "\n").encode() for e in wire
        ]
        waits = []
        with pytest.raises(RuntimeError, match="stuck or dead"):
            # No worker drains the queue: line 2 backpressures forever.
            ingest_lines(
                manager, lines, sleep=waits.append, max_wait_s=2.0
            )
        # The loop gave up once the *cumulative* wait would cross the
        # cap -- after ~2s of budgeted back-off, not minutes.
        assert sum(waits) <= 2.0
