"""The repro.obs subsystem: metrics, events, ledger, and report.

The contracts the rest of the pipeline leans on:

- instruments are cheap, memoised per name, and the
  :class:`NullRegistry` mode records nothing;
- the JSONL event schema is versioned and validated at emission time,
  and the golden file pins the on-disk shape of every event type;
- the :class:`PredictionLedger` recomputes the same drift flags from a
  replayed stream that the live run emitted (determinism is what makes
  ``ppep-repro obs`` trustworthy).
"""

import json
import os

import pytest

from repro.fleet import ClusterPowerManager, make_fleet
from repro.obs.events import (
    EVENT_FIELDS,
    EVENT_TYPES,
    SCHEMA_VERSION,
    EventLog,
    read_events,
)
from repro.obs.ledger import CusumDetector, PredictionLedger, RollingStats
from repro.obs.metrics import (
    Histogram,
    NullRegistry,
    Registry,
    get_registry,
    set_registry,
)
from repro.obs.report import format_report, replay
from tests.test_fleet_batch import FAULTS, MIXED_SPECS

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "obs_events.golden.jsonl")


def _fleet_ledger(registry):
    """A hardened, fault-injected mixed-SKU fleet manager's live ledger
    and event stream, run past the ledger's calibration prefix."""
    events = EventLog()
    ledger = PredictionLedger(calibration_intervals=16, events=events)
    ClusterPowerManager(
        make_fleet(MIXED_SPECS, registry, fault_specs=FAULTS),
        cap_schedule=52.0 * len(MIXED_SPECS),
        policy="waterfill",
        harden=True,
        events=events,
        ledger=ledger,
    ).run(28)
    nodes = ledger.state_dict()["nodes"].values()
    # CUSUM ran, and the filter repaired some scored intervals.
    assert any(node["detector"]["mean"] is not None for node in nodes)
    assert any(
        row["quality"] == "repaired" for row in events.of_type("prediction")
    )
    return ledger, events


def _emit_one_of_each(events):
    """One deterministic event of every schema type, in a fixed order."""
    events.emit(
        "prediction", node="node00", interval=7, vf_index=5,
        predicted_power=41.25, measured_power=40.0, error=1.25,
        interval_s=0.2, predicted_cpi=1.5, realized_cpi=1.45,
        quality="good",
    )
    events.emit("model_retrain", node="node00", interval=0,
                spec="fx8320", seconds=2.5)
    events.emit("vf_transition", node="node00", interval=8,
                from_vf=[5, 5, 5, 5], to_vf=[3, 3, 5, 5])
    events.emit("filter_verdict", node="node00", interval=8,
                quality="repaired", issues=["sensor_spike"])
    events.emit("quarantine_enter", node="node01", interval=9, bad_streak=3)
    events.emit("quarantine_exit", node="node01", interval=15,
                quarantined_intervals=6)
    events.emit("cap_reallocation", node="cluster", interval=9,
                budget_w=210.0, healthy_nodes=2, total_nodes=3)
    events.emit("drift", node="node00", interval=40, statistic=8.4,
                threshold=8.0, rolling_mae=3.2)
    events.emit("telemetry", node="fx8320-n00", interval=41, sku="fx8320",
                sample={"cu_vfs": [5, 5, 5, 5], "nb_vf": 5,
                        "power_gating": True, "measured_power": 40.0,
                        "temperature": 55.0, "interval_s": 0.2})
    events.emit("decision", node="fx8320-n00", interval=41, sku="fx8320",
                vf_index=4, delivery_index=83, quality="good")
    events.emit("shard_restart", node="shard-fx8320", interval=42,
                sku="fx8320", restarts=1, inflight_requeued=5)
    events.emit("shard_degraded", node="shard-fx8320", interval=42,
                sku="fx8320", reason="heartbeat_stall")
    events.emit("shard_recovered", node="shard-fx8320", interval=44,
                sku="fx8320", degraded_s=0.75)
    events.emit("backend_retry", node="node00", interval=45,
                reason="timeout", attempt=1)
    events.emit("backend_degraded", node="node00", interval=46,
                reason="transient", streak=2)
    events.emit("backend_quarantine", node="node00", interval=47,
                action="enter", streak=3)


class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        reg = Registry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        assert reg.counter("c").value == pytest.approx(3.5)
        reg.gauge("g").set(7)
        reg.gauge("g").set(1.5)
        assert reg.gauge("g").value == pytest.approx(1.5)
        h = reg.histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.counts == [1, 1, 1, 1]
        assert h.mean == pytest.approx(138.875)
        assert h.min == pytest.approx(0.5)
        assert h.max == pytest.approx(500.0)

    def test_instruments_are_memoised_per_name(self):
        reg = Registry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("y") is reg.histogram("y")
        assert reg.counter("x") is not reg.counter("x2")

    def test_histogram_percentile_upper_edge_convention(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0):
            h.observe(v)
        assert h.percentile(0.25) == pytest.approx(1.0)
        assert h.percentile(0.75) == pytest.approx(2.0)
        assert h.percentile(1.0) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_timer_records_span(self):
        reg = Registry()
        with reg.timer("span"):
            pass
        h = reg.histogram("span")
        assert h.count == 1
        assert h.sum >= 0.0

    def test_snapshot_lists_everything(self):
        reg = Registry()
        reg.counter("a").inc()
        reg.gauge("b").set(2.0)
        reg.histogram("c").observe(0.5)
        snap = reg.snapshot()
        assert snap["a"] == {"type": "counter", "value": 1.0}
        assert snap["b"] == {"type": "gauge", "value": 2.0}
        assert snap["c"]["count"] == 1

    def test_null_registry_records_nothing(self):
        reg = NullRegistry()
        assert reg.enabled is False
        c = reg.counter("anything")
        c.inc(100)
        assert c.value == 0.0
        assert reg.counter("other") is c  # shared singleton, no dict growth
        with reg.timer("span"):
            pass
        assert reg.snapshot() == {}

    def test_set_registry_swaps_and_restores(self):
        mine = Registry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestEventLog:
    def test_emit_stamps_schema_and_common_fields(self):
        events = EventLog()
        e = events.emit("quarantine_enter", node="n1", interval=4, bad_streak=2)
        assert e["v"] == SCHEMA_VERSION
        assert e["type"] == "quarantine_enter"
        assert e["node"] == "n1"
        assert e["interval"] == 4
        assert len(events) == 1
        assert events.of_type("quarantine_enter") == [e]

    def test_unknown_type_and_missing_fields_raise(self):
        events = EventLog()
        with pytest.raises(ValueError, match="unknown event type"):
            events.emit("reboot")
        with pytest.raises(ValueError, match="missing required fields"):
            events.emit("prediction", vf_index=5)
        assert len(events) == 0

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as events:
            _emit_one_of_each(events)
            in_memory = list(events.records)
        replayed = list(read_events(path))
        assert replayed == in_memory

    def test_read_events_rejects_newer_schema(self, tmp_path):
        path = str(tmp_path / "future.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"v": SCHEMA_VERSION + 1, "type": "x"}) + "\n")
        with pytest.raises(ValueError, match="newer than"):
            list(read_events(path))

    def test_read_events_rejects_garbage(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write("not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            list(read_events(path))


class TestEventLogBuffering:
    """The buffered-write mode: flush cadence, close(), crash behavior."""

    @staticmethod
    def _lines_on_disk(path):
        if not os.path.exists(path):
            return 0
        with open(path) as handle:
            return sum(1 for line in handle if line.strip())

    def test_default_mode_buffers_until_threshold(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        events = EventLog(path, flush_every=4)
        for k in range(3):
            events.emit("quarantine_enter", interval=k, bad_streak=1)
        # Three events sit in the write buffer; nothing is guaranteed on
        # disk yet (libc may buffer the whole batch).
        assert self._lines_on_disk(path) < 3
        events.emit("quarantine_enter", interval=3, bad_streak=1)
        assert self._lines_on_disk(path) == 4
        events.close()

    def test_per_event_flush_is_opt_in(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        events = EventLog(path, flush_every=1)
        for k in range(3):
            events.emit("quarantine_enter", interval=k, bad_streak=1)
            assert self._lines_on_disk(path) == k + 1
        events.close()

    def test_abort_discards_pending_but_keeps_flushed(self, tmp_path):
        """The checkpoint-tied exit path: everything flushed stays,
        everything pending is dropped from the file (the restart that
        replays from the durable state will re-emit it)."""
        path = str(tmp_path / "events.jsonl")
        events = EventLog(path, flush_every=1000)
        events.emit("quarantine_enter", interval=0, bad_streak=1)
        events.flush()
        events.emit("quarantine_enter", interval=1, bad_streak=1)
        events.abort()
        assert self._lines_on_disk(path) == 1
        assert len(events) == 0  # the pending tail is gone from memory too
        events.close()  # a later close writes nothing extra
        assert self._lines_on_disk(path) == 1

    def test_close_flushes_the_tail(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        events = EventLog(path, flush_every=1000)
        for k in range(7):
            events.emit("quarantine_enter", interval=k, bad_streak=1)
        events.close()
        assert self._lines_on_disk(path) == 7
        events.close()  # idempotent

    def test_explicit_flush(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        events = EventLog(path, flush_every=1000)
        events.emit("quarantine_enter", interval=0, bad_streak=1)
        events.flush()
        assert self._lines_on_disk(path) == 1
        events.close()

    def test_flush_every_must_be_positive(self):
        with pytest.raises(ValueError, match="flush_every"):
            EventLog(flush_every=0)

    def test_failing_run_leaves_parseable_file(self, tmp_path):
        """A run that dies mid-loop must still leave valid JSONL behind.

        This is the contract the CLI paths rely on when they wrap their
        EventLog in ``with``: whatever was emitted before the crash is
        flushed, and every line on disk parses.
        """
        path = str(tmp_path / "events.jsonl")
        with pytest.raises(RuntimeError, match="sensor exploded"):
            with EventLog(path, flush_every=1000) as events:
                for k in range(5):
                    events.emit("quarantine_enter", interval=k, bad_streak=1)
                raise RuntimeError("sensor exploded")
        replayed = list(read_events(path))
        assert len(replayed) == 5
        assert all(e["type"] == "quarantine_enter" for e in replayed)

    def test_demo_crash_leaves_parseable_ledger(
        self, tmp_path, tiny_registry, monkeypatch
    ):
        """The ``ppep-repro obs --demo`` recorder specifically: a model
        failure partway through the drive loop still produces a
        replayable JSONL file (the recorder wraps its log in ``with``)."""
        from types import SimpleNamespace

        from repro.dvfs.power_capping import PPEPPowerCapper
        from repro.experiments import obs_drift
        from repro.hardware.microarch import FX8320_SPEC

        calls = {"n": 0}
        decide = PPEPPowerCapper.decide

        def boom(capper, sample):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise RuntimeError("model exploded")
            return decide(capper, sample)

        monkeypatch.setattr(PPEPPowerCapper, "decide", boom)
        ctx = SimpleNamespace(
            full_ppep=tiny_registry.get(FX8320_SPEC), spec=FX8320_SPEC,
            base_seed=20141213,
        )
        path = str(tmp_path / "demo.jsonl")
        with pytest.raises(RuntimeError, match="model exploded"):
            obs_drift.record_demo(
                ctx, path=path, n_intervals=5, drift_at=1,
                warmup_intervals=0,
            )
        replayed = list(read_events(path))
        assert len(replayed) >= 2
        assert all("type" in e and "v" in e for e in replayed)


class TestObsDemo:
    def test_demo_flags_drift_from_the_injection_point(self, quick_ctx, tmp_path):
        """The golden path of ``ppep-repro obs --demo``: the injected
        sensor gain drift is flagged, first at the injection interval and
        never before it, and replaying the file recomputes the flags."""
        from repro.experiments import obs_drift
        from repro.obs.report import replay_file

        path = str(tmp_path / "demo.jsonl")
        ledger = obs_drift.record_demo(quick_ctx, path=path, drift_at=120)
        flagged = [interval for _node, interval, _stat in ledger.drift_flags]
        assert flagged and min(flagged) == flagged[0] == 120
        replayed = replay_file(path, **obs_drift.DEMO_LEDGER_KWARGS).ledger
        assert replayed.drift_flags == ledger.drift_flags


class TestGoldenSchema:
    """Pin the on-disk shape of every event type.

    A diff in the golden file is a schema change: bump
    :data:`SCHEMA_VERSION` and regenerate (see the test body for the
    one-liner) rather than silently breaking recorded ledgers.
    """

    def test_every_type_matches_golden_file(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as events:
            _emit_one_of_each(events)
        # Regenerate with:
        #   PYTHONPATH=src python -c "from tests.test_obs import _emit_one_of_each; \
        #     from repro.obs.events import EventLog; \
        #     log = EventLog('tests/data/obs_events.golden.jsonl'); \
        #     _emit_one_of_each(log); log.close()"
        with open(path) as fresh, open(GOLDEN) as golden:
            assert fresh.read() == golden.read()

    def test_golden_file_covers_every_event_type(self):
        seen = {event["type"] for event in read_events(GOLDEN)}
        assert seen == set(EVENT_TYPES)

    def test_golden_fields_match_schema(self):
        for event in read_events(GOLDEN):
            assert event["v"] == SCHEMA_VERSION
            for field in EVENT_FIELDS[event["type"]]:
                assert field in event, (event["type"], field)


class TestRollingStats:
    def test_window_evicts_oldest(self):
        stats = RollingStats(window=3)
        for v in (1.0, 2.0, 3.0, 4.0):
            stats.add(v)
        assert stats.mean == pytest.approx(3.0)  # 2, 3, 4
        assert stats.count == 4
        assert stats.lifetime_mean == pytest.approx(2.5)

    def test_percentile_nearest_rank(self):
        stats = RollingStats(window=8)
        for v in (5.0, 1.0, 3.0, 2.0):
            stats.add(v)
        assert stats.percentile(0.5) == pytest.approx(2.0)
        assert stats.percentile(1.0) == pytest.approx(5.0)
        assert stats.percentile(0.0) == pytest.approx(1.0)


class TestCusumDetector:
    def test_requires_calibration(self):
        detector = CusumDetector()
        assert not detector.calibrated
        with pytest.raises(RuntimeError):
            detector.update(1.0)

    def test_in_band_never_flags_and_shift_does(self):
        detector = CusumDetector(slack=0.5, threshold=8.0)
        detector.calibrate(mean=1.0, std=0.1)
        assert not any(detector.update(1.0) for _ in range(200))
        # A sustained 2-sigma shift accumulates ~1.5 per step: the first
        # flag lands once the statistic crosses h, then the reset starts
        # the accumulation over (a train of flags, not one saturated alarm).
        flags = [detector.update(1.2) for _ in range(20)]
        assert any(flags)
        first = flags.index(True)
        assert detector.statistic < detector.threshold  # reset after flag
        assert any(flags[first + 1:])


class TestPredictionLedger:
    def _fill(self, ledger, n, error=1.0, node="node0", start=0):
        for k in range(start, start + n):
            ledger.record(
                node=node, interval=k, vf_index=5,
                predicted_power=40.0 + error, measured_power=40.0,
                interval_s=0.2,
            )

    def test_rolling_and_per_vf_aggregates(self):
        ledger = PredictionLedger(window=4, calibration_intervals=2)
        self._fill(ledger, 6, error=2.0)
        assert ledger.node_mae("node0") == pytest.approx(2.0)
        assert ledger.per_vf_mae() == {5: pytest.approx(2.0)}
        assert ledger.per_vf_relative()[5] == pytest.approx(0.05)
        summary = ledger.node_summary()["node0"]
        assert summary["records"] == 6
        assert summary["drift_flags"] == 0

    def test_drift_flags_on_error_shift(self):
        events = EventLog()
        ledger = PredictionLedger(
            calibration_intervals=16, events=events
        )
        self._fill(ledger, 32, error=1.0)
        assert ledger.drift_flags == []
        self._fill(ledger, 32, error=6.0, start=32)
        assert ledger.drift_flags
        node, interval, _stat = ledger.drift_flags[0]
        assert node == "node0" and interval >= 32
        assert len(events.of_type("drift")) == len(ledger.drift_flags)
        assert len(events.of_type("prediction")) == 64

    def test_set_band_skips_online_calibration(self):
        ledger = PredictionLedger(calibration_intervals=16)
        ledger.set_band("node0", mean=1.0, std=0.1)
        self._fill(ledger, 8, error=6.0)
        assert ledger.drift_flags  # flagged well before 16 records

    def _shifted_node(self):
        """One node whose error shifts after 32 intervals."""
        events = EventLog()
        live = PredictionLedger(calibration_intervals=16, events=events)
        self._fill(live, 32, error=1.0)
        self._fill(live, 32, error=6.0, start=32)
        return live, events

    def test_replay_reproduces_live_drift_flags(self, tiny_registry):
        """Replaying the ``prediction`` events rebuilds the live ledger,
        for one synthetic node and for a fleet manager's stream."""
        for case, (live, events) in (
            ("synthetic", self._shifted_node()),
            ("fleet", _fleet_ledger(tiny_registry)),
        ):
            replayed = replay(events.records, calibration_intervals=16).ledger
            assert replayed.state_dict() == live.state_dict(), case
            assert replayed.drift_flags == live.drift_flags, case
            assert replayed.node_summary() == live.node_summary(), case

    def test_calibration_needs_two_intervals(self):
        with pytest.raises(ValueError):
            PredictionLedger(calibration_intervals=1)


class TestReport:
    def _stream(self):
        events = EventLog()
        _emit_one_of_each(events)
        return events.records

    def test_replay_tallies_and_timeline(self):
        report = replay(self._stream())
        assert report.event_counts["prediction"] == 1
        # The good tally comes from the prediction row, the repaired one
        # from the explicit (anomaly-only) filter_verdict event.
        assert report.verdicts["node00"] == {"good": 1, "repaired": 1}
        assert report.transitions["node00"] == 1
        assert report.quarantined == []  # node01 exited quarantine
        descriptions = [d for _i, _n, d in report.timeline]
        assert any("quarantined" in d for d in descriptions)
        assert any("re-admitted" in d for d in descriptions)
        assert any("drift" in d for d in descriptions)

    def test_unmatched_quarantine_enter_stays_quarantined(self):
        stream = [
            e for e in self._stream() if e["type"] != "quarantine_exit"
        ]
        report = replay(stream)
        assert report.quarantined == ["node01"]

    def test_format_report_renders_all_sections(self):
        text = format_report(replay(self._stream()))
        assert "Online prediction error by VF state" in text
        assert "Per-node health" in text
        assert "Drift / event timeline" in text
        assert "QUARANTINED" not in text  # node01 was re-admitted
        assert "Replayed events:" in text

    def test_recomputed_drift_deduplicates_against_recorded(self):
        events = EventLog()
        ledger = PredictionLedger(calibration_intervals=16, events=events)
        for k in range(32):
            ledger.record(
                node="node0", interval=k, vf_index=5,
                predicted_power=41.0, measured_power=40.0, interval_s=0.2,
            )
        for k in range(32, 64):
            ledger.record(
                node="node0", interval=k, vf_index=5,
                predicted_power=46.0, measured_power=40.0, interval_s=0.2,
            )
        assert ledger.drift_flags
        report = replay(events.records, calibration_intervals=16)
        drift_lines = [
            item for item in report.timeline if "drift" in item[2]
        ]
        # One timeline line per flag, not one per (recorded, recomputed) pair.
        assert len(drift_lines) == len(ledger.drift_flags)
