"""Checkpoint/restore round-trips for every stateful pipeline stage.

The serve restart guarantee is *bit-identity*: a pipeline restored from
a checkpoint must make exactly the decisions an uninterrupted pipeline
would have made.  Every test here runs the interrupted path through a
real JSON round-trip (``json.loads(json.dumps(state))``) -- the same
container the on-disk checkpoint uses -- so any state that would not
survive serialisation (tuples, numpy scalars, incremental sums) fails
here rather than in a 3 a.m. restart.
"""

import dataclasses
import functools
import json
from unittest import mock

import numpy as np
import pytest

from repro.dvfs.power_capping import ExternalBudget, PPEPPowerCapper
from repro.faults.filtering import TelemetryFilter
from repro.fleet.cluster_cap import ClusterPowerManager
from repro.fleet.simulator import make_fleet
from repro.hardware.microarch import FX8320_SPEC
from repro.hardware.platform import CoreAssignment, Platform
from repro.obs.events import EventLog, read_events
from repro.obs.ledger import PredictionLedger
from repro.serve import shard as shard_module
from repro.serve.shard import ShardPipeline
from repro.workloads.synthetic import make_cpu_bound, make_memory_bound


def _json_round_trip(state):
    """What the on-disk checkpoint actually does to the state."""
    return json.loads(json.dumps(state))


def _stream(seed, n, stuck_at=()):
    """A deterministic sample stream with optional injected faults."""
    platform = Platform(FX8320_SPEC, seed=seed, power_gating=True)
    platform.set_assignment(
        CoreAssignment.packed(
            [make_cpu_bound("ckpt-cpu"), make_memory_bound("ckpt-mem")]
        )
    )
    samples = []
    for k in range(n):
        sample = platform.step()
        if k in stuck_at:
            # All readings identical: the filter's stuck-sensor fault.
            sample = dataclasses.replace(
                sample,
                power_samples=[40.0] * len(sample.power_samples),
                measured_power=40.0,
            )
        samples.append(sample)
    return samples


class TestLedgerRoundTrip:
    """CUSUM accumulators and rolling MAE windows survive bit-exactly."""

    KWARGS = dict(window=8, calibration_intervals=10, cusum_slack=0.5,
                  cusum_threshold=4.0)

    def _feed(self, ledger, rows):
        for k, (predicted, measured) in enumerate(rows):
            ledger.record(
                node="n0", interval=k, vf_index=5,
                predicted_power=predicted, measured_power=measured,
                interval_s=0.2,
            )

    def _rows(self, n):
        rng = np.random.default_rng(99)
        rows = []
        for k in range(n):
            predicted = 40.0 + rng.normal(0, 1.0)
            drift = 6.0 if k >= 30 else 0.0  # mid-run error shift
            rows.append((float(predicted), float(predicted + drift
                                                 + rng.normal(0, 0.3))))
        return rows

    def test_resumed_ledger_matches_uninterrupted(self):
        rows = self._rows(45)
        uninterrupted = PredictionLedger(**self.KWARGS)
        self._feed(uninterrupted, rows)

        first = PredictionLedger(**self.KWARGS)
        self._feed(first, rows[:20])
        state = _json_round_trip(first.state_dict())
        resumed = PredictionLedger(**self.KWARGS)
        resumed.load_state_dict(state)
        for k, (predicted, measured) in enumerate(rows[20:], start=20):
            resumed.record(
                node="n0", interval=k, vf_index=5,
                predicted_power=predicted, measured_power=measured,
                interval_s=0.2,
            )

        # Bit-identical statistics, not approximately-equal ones.
        assert resumed.node_mae("n0") == uninterrupted.node_mae("n0")
        assert resumed.node_summary() == uninterrupted.node_summary()
        assert resumed.per_vf_mae() == uninterrupted.per_vf_mae()
        assert resumed.per_vf_relative() == uninterrupted.per_vf_relative()
        assert resumed.drift_flags == uninterrupted.drift_flags
        # The injected shift must actually have exercised the detector.
        assert uninterrupted.drift_flags

    def test_cusum_mid_calibration_checkpoint(self):
        """A snapshot taken *during* calibration resumes the calibration
        accumulation exactly where it stopped."""
        rows = self._rows(45)
        cut = 5  # inside the 10-interval calibration prefix
        uninterrupted = PredictionLedger(**self.KWARGS)
        self._feed(uninterrupted, rows)
        first = PredictionLedger(**self.KWARGS)
        self._feed(first, rows[:cut])
        resumed = PredictionLedger(**self.KWARGS)
        resumed.load_state_dict(_json_round_trip(first.state_dict()))
        for k, (predicted, measured) in enumerate(rows[cut:], start=cut):
            resumed.record(
                node="n0", interval=k, vf_index=5,
                predicted_power=predicted, measured_power=measured,
                interval_s=0.2,
            )
        assert resumed.drift_flags == uninterrupted.drift_flags
        assert resumed.node_summary() == uninterrupted.node_summary()

    def test_config_mismatch_rejected(self):
        ledger = PredictionLedger(**self.KWARGS)
        state = ledger.state_dict()
        other = PredictionLedger(window=16, calibration_intervals=10,
                                 cusum_slack=0.5, cusum_threshold=4.0)
        with pytest.raises(ValueError):
            other.load_state_dict(state)


class TestFilterRoundTrip:
    """Last-good fallbacks, window history, and streak state survive."""

    def test_resumed_filter_verdicts_match(self):
        # Faults straddle the checkpoint: one before (fills last-good
        # state) and one after (exercises the restored fallbacks).
        samples = _stream(seed=11, n=36, stuck_at=(8, 9, 24))
        uninterrupted = TelemetryFilter(FX8320_SPEC)
        verdicts_u = [uninterrupted.ingest(s) for s in samples]

        first = TelemetryFilter(FX8320_SPEC)
        for s in samples[:18]:
            first.ingest(s)
        resumed = TelemetryFilter(FX8320_SPEC)
        resumed.load_state_dict(_json_round_trip(first.state_dict()))
        verdicts_r = [resumed.ingest(s) for s in samples[18:]]

        for got, want in zip(verdicts_r, verdicts_u[18:]):
            assert got.quality == want.quality
            assert got.issues == want.issues
            assert got.power == want.power  # bit-exact
            assert got.sample.measured_power == want.sample.measured_power
        assert resumed.quality_counts == uninterrupted.quality_counts

    def test_stale_detection_survives_restart(self):
        """The stale-redelivery signature is part of the state: replaying
        the last pre-checkpoint sample after restore must still be BAD."""
        samples = _stream(seed=12, n=6)
        filt = TelemetryFilter(FX8320_SPEC)
        for s in samples:
            filt.ingest(s)
        resumed = TelemetryFilter(FX8320_SPEC)
        resumed.load_state_dict(_json_round_trip(filt.state_dict()))
        redelivered = resumed.ingest(samples[-1])
        assert redelivered.quality == "bad"
        assert "stale" in redelivered.issues

    def test_window_mismatch_rejected(self):
        from repro.faults.filtering import FilterConfig

        filt = TelemetryFilter(FX8320_SPEC)
        other = TelemetryFilter(FX8320_SPEC, FilterConfig(window=4))
        with pytest.raises(ValueError, match="window"):
            other.load_state_dict(filt.state_dict())


class TestCapperRoundTrip:
    def test_capper_and_budget_state(self, tiny_registry):
        ppep = tiny_registry.get(FX8320_SPEC)
        samples = _stream(seed=13, n=12)
        budget_a = ExternalBudget(80.0)
        capper_a = PPEPPowerCapper(ppep, budget_a)
        budget_u = ExternalBudget(80.0)
        capper_u = PPEPPowerCapper(ppep, budget_u)
        for s in samples[:6]:
            capper_a.decide(s)
            capper_u.decide(s)
        budget_b = ExternalBudget()
        budget_b.load_state_dict(_json_round_trip(budget_a.state_dict()))
        capper_b = PPEPPowerCapper(ppep, budget_b)
        capper_b.load_state_dict(_json_round_trip(capper_a.state_dict()))
        assert budget_b.value == 80.0
        for s in samples[6:]:
            got = [vf.index for vf in capper_b.decide(s)]
            want = [vf.index for vf in capper_u.decide(s)]
            assert got == want
        assert capper_b.state_dict() == capper_u.state_dict()


class TestClusterManagerRoundTrip:
    """Quarantine set, held decisions, and allocations survive transplant."""

    def test_resumed_manager_matches_uninterrupted(self, tiny_registry):
        # Two same-seed fleets step identically; one manager runs 16
        # intervals straight, the other is interrupted at 8 and its state
        # is transplanted (via JSON) into a brand-new manager object.
        fleet_u = make_fleet([FX8320_SPEC] * 3, tiny_registry, base_seed=71)
        fleet_r = make_fleet([FX8320_SPEC] * 3, tiny_registry, base_seed=71)
        manager_u = ClusterPowerManager(fleet_u, 180.0, policy="waterfill",
                                        harden=True)
        manager_r1 = ClusterPowerManager(fleet_r, 180.0, policy="waterfill",
                                         harden=True)
        run_u = manager_u.run(16)
        run_r1 = manager_r1.run(8)
        state = _json_round_trip(manager_r1.state_dict())

        manager_r2 = ClusterPowerManager(fleet_r, 180.0, policy="waterfill",
                                         harden=True)
        manager_r2.load_state_dict(state)
        run_r2 = manager_r2.run(8, resume=True)

        assert run_r1.shares + run_r2.shares == run_u.shares
        assert run_r1.node_powers + run_r2.node_powers == run_u.node_powers
        assert run_r1.caps + run_r2.caps == run_u.caps
        assert (run_r1.node_healthy + run_r2.node_healthy
                == run_u.node_healthy)

    def test_roster_mismatch_rejected(self, tiny_registry):
        fleet_a = make_fleet([FX8320_SPEC] * 2, tiny_registry)
        fleet_b = make_fleet([FX8320_SPEC] * 3, tiny_registry)
        manager_a = ClusterPowerManager(fleet_a, 100.0)
        manager_b = ClusterPowerManager(fleet_b, 100.0)
        with pytest.raises(ValueError, match="nodes"):
            manager_b.load_state_dict(manager_a.state_dict())

    def test_harden_mode_mismatch_rejected(self, tiny_registry):
        fleet = make_fleet([FX8320_SPEC] * 2, tiny_registry)
        plain = ClusterPowerManager(fleet, 100.0)
        hardened = ClusterPowerManager(fleet, 100.0, harden=True)
        with pytest.raises(ValueError, match="hardening"):
            hardened.load_state_dict(plain.state_dict())


class TestShardPipelineRoundTrip:
    """The whole per-SKU serve engine restores to bit-identical decisions."""

    def _pipeline(self, tiny_registry, events=None):
        # The detector calibrates on 6 rows, before the interval-12
        # checkpoint, so the round trip carries a running CUSUM.  The
        # shard hands its ledger to every node's controller, so the
        # settings go in where the shard builds it.
        ledger = functools.partial(
            PredictionLedger, window=8, calibration_intervals=6,
            cusum_slack=0.5, cusum_threshold=4.0,
        )
        with mock.patch.object(shard_module, "PredictionLedger", ledger):
            return ShardPipeline(
                sku="fx8320",
                spec=FX8320_SPEC,
                ppep=tiny_registry.get(FX8320_SPEC),
                node_names=["a", "b"],
                budget_w=160.0,
                unhealthy_after=2,
                events=events,
            )

    def _streams(self, n):
        return {
            "a": _stream(seed=21, n=n, stuck_at=(5, 6, 7)),
            "b": _stream(seed=22, n=n),
        }

    def test_resumed_pipeline_matches_uninterrupted(self, tiny_registry):
        n = 24
        streams = self._streams(n)
        uninterrupted = self._pipeline(tiny_registry)
        results_u = []
        for k in range(n):
            for node in ("a", "b"):
                results_u.append(uninterrupted.process(node, streams[node][k]))

        first = self._pipeline(tiny_registry, events=EventLog())
        for k in range(12):
            for node in ("a", "b"):
                first.process(node, streams[node][k])
        state = _json_round_trip(first.state_dict())
        resumed = self._pipeline(tiny_registry, events=EventLog())
        resumed.load_state_dict(state)
        results_r = []
        for k in range(12, n):
            for node in ("a", "b"):
                results_r.append(resumed.process(node, streams[node][k]))

        assert results_r == results_u[24:]
        assert resumed.ledger.node_summary() == (
            uninterrupted.ledger.node_summary()
        )
        # The whole checkpoint, queued ledger prices and per-node filter
        # state included, continues exactly where the uninterrupted run is.
        state = uninterrupted.state_dict()
        assert {"pending", "filters"} <= set(state)
        assert any(p is not None for p in state["pending"].values())
        assert resumed.state_dict() == state
        # The stuck-sensor streak on node a must have quarantined it.
        assert uninterrupted.ledger.node_summary()["a"]["records"] < n

    def test_restored_pipeline_does_not_reemit_cap_reallocation(
        self, tiny_registry
    ):
        # Clean streams: the healthy set never changes, so the one and
        # only legitimate cap_reallocation is the initial one.
        streams = {
            "a": _stream(seed=21, n=6),
            "b": _stream(seed=22, n=6),
        }
        events_a = EventLog()
        first = self._pipeline(tiny_registry, events=events_a)
        for k in range(6):
            for node in ("a", "b"):
                first.process(node, streams[node][k])
        # Healthy steady state: exactly one allocation-signature event.
        assert len(events_a.of_type("cap_reallocation")) == 1

        events_b = EventLog()
        resumed = self._pipeline(tiny_registry, events=events_b)
        resumed.load_state_dict(_json_round_trip(first.state_dict()))
        more = {
            "a": _stream(seed=21, n=9),
            "b": _stream(seed=22, n=9),
        }
        for k in range(6, 9):
            for node in ("a", "b"):
                resumed.process(node, more[node][k])
        assert events_b.of_type("cap_reallocation") == []

    def test_file_log_holds_one_checkpoint_period(self, tiny_registry, tmp_path):
        """The worker's checkpoint-then-flush discipline: a file-backed
        log keeps only the events emitted since its last flush, and the
        file ends up equal to the same run's in-memory event stream."""
        from repro.serve.checkpoint import Checkpointer

        n = 25  # eight checkpoint periods and a pending tail
        streams = self._streams(n)
        path = str(tmp_path / "shard.jsonl")
        on_disk = EventLog(path, flush_every=10**9)
        in_memory = EventLog()
        worker = self._pipeline(tiny_registry, events=on_disk)
        reference = self._pipeline(tiny_registry, events=in_memory)
        checkpointer = Checkpointer(
            str(tmp_path / "shard.json"), worker.state_dict, every_intervals=6
        )
        flushes = written = 0
        for k in range(n):
            for node in ("a", "b"):
                assert worker.process(node, streams[node][k]) == (
                    reference.process(node, streams[node][k])
                )
                if checkpointer.tick(aligned=not worker.mid_round):
                    on_disk.flush()
                    flushes += 1
                    written = len(in_memory)
                assert on_disk.records == in_memory.records[written:]
        on_disk.close()
        assert flushes >= 3 and 0 < written < len(in_memory)
        assert list(read_events(path)) == in_memory.records

    def test_roster_mismatch_rejected(self, tiny_registry):
        pipeline = self._pipeline(tiny_registry)
        other = ShardPipeline(
            sku="fx8320", spec=FX8320_SPEC,
            ppep=tiny_registry.get(FX8320_SPEC), node_names=["a", "c"],
        )
        with pytest.raises(ValueError, match="roster"):
            other.load_state_dict(pipeline.state_dict())


class TestTornCheckpointTruncation:
    """A checkpoint torn at *any* byte boundary must read as absent.

    ``os.replace`` makes torn on-disk checkpoints impossible in normal
    operation, but a torn tmp file can survive a crash (see
    :class:`repro.chaos.disk.DiskChaos`) and an operator can copy one
    over the real path by mistake.  ``read_checkpoint`` must treat every
    proper prefix of a valid document as a cold start -- never a crash,
    never a half-restored pipeline.
    """

    def _document(self, tmp_path):
        from repro.serve.checkpoint import write_checkpoint

        path = tmp_path / "shard.json"
        write_checkpoint(
            str(path),
            {"processed": 12, "intervals": {"a": 6, "b": 6}, "x": 0.1 + 0.2},
        )
        return path, path.read_bytes()

    def test_every_byte_boundary_reads_as_cold_start(self, tmp_path):
        from repro.serve.checkpoint import read_checkpoint

        path, document = self._document(tmp_path)
        for cut in range(len(document)):
            path.write_bytes(document[:cut])
            assert read_checkpoint(str(path)) is None, (
                "prefix of {} bytes parsed as a checkpoint".format(cut)
            )
        # The full document still round-trips after all that abuse.
        path.write_bytes(document)
        assert read_checkpoint(str(path))["processed"] == 12

    def test_torn_tmp_litter_does_not_shadow_the_checkpoint(self, tmp_path):
        """A crash between tmp write and replace leaves litter next to
        the real file; reads keep going to the intact checkpoint."""
        from repro.chaos import ChaosSpec, DiskChaos
        from repro.serve.checkpoint import read_checkpoint, write_checkpoint

        path, _document = self._document(tmp_path)
        chaos = DiskChaos(ChaosSpec(torn_tmp_rate=1.0, seed=3))
        for _ in range(3):
            with pytest.raises(OSError):
                write_checkpoint(str(path), {"processed": 99}, chaos=chaos)
        litter = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert len(litter) == 3
        assert read_checkpoint(str(path))["processed"] == 12
        # The next healthy save replaces cleanly despite the litter.
        write_checkpoint(str(path), {"processed": 13})
        assert read_checkpoint(str(path))["processed"] == 13

    def test_torn_tmp_contents_read_as_cold_start(self, tmp_path):
        """Even the torn tmp file itself -- a strict prefix of a valid
        document -- reads as absent if something tries to load it."""
        from repro.chaos import ChaosSpec, DiskChaos
        from repro.serve.checkpoint import read_checkpoint, write_checkpoint

        path = tmp_path / "shard.json"
        chaos = DiskChaos(ChaosSpec(torn_tmp_rate=1.0, seed=3))
        with pytest.raises(OSError):
            write_checkpoint(str(path), {"processed": 99}, chaos=chaos)
        (litter,) = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert read_checkpoint(str(litter)) is None
