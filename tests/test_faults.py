"""Fault injection, the telemetry filter, and the node controller's hold.

The load-bearing contracts:

- a disabled :class:`FaultSpec` leaves traces bitwise identical to an
  injector-free platform (the fault-free RNG stream is untouched);
- the fault schedule is a pure function of (seed, spec, interval index);
- ground-truth sample fields are never corrupted;
- the :class:`TelemetryFilter` repairs what the injector breaks and
  flags what it cannot repair;
- :class:`~repro.fleet.cluster_cap.NodeControl` holds VF state on bad
  intervals while keeping its capper's clock in sync;
- the hardened :class:`ClusterPowerManager` quarantines unhealthy nodes
  and re-allocates their budget.
"""

import math

import pytest

from repro.faults import (
    BAD,
    GOOD,
    REPAIRED,
    FaultInjector,
    FaultSpec,
    FilterConfig,
    TelemetryFilter,
)
from repro.faults.injection import WRAP_COUNT
from repro.dvfs.governor import DVFSController, run_controlled
from repro.fleet.cluster_cap import NodeControl
from repro.hardware.events import EventVector
from repro.hardware.microarch import FX8320_SPEC
from repro.hardware.platform import (
    SLICES_PER_INTERVAL,
    CoreAssignment,
    IntervalSample,
    Platform,
)
from repro.workloads.synthetic import make_mixed
from tests.test_engine import ScalarPlatform

SPEC = FX8320_SPEC


def _busy_platform(fault_spec=None, injector_seed=7, seed=123, cls=Platform):
    injector = (
        FaultInjector(fault_spec, seed=injector_seed)
        if fault_spec is not None
        else None
    )
    platform = cls(SPEC, seed=seed, fault_injector=injector)
    platform.set_assignment(
        CoreAssignment.one_per_cu(SPEC, [make_mixed("t")] * SPEC.num_cus)
    )
    return platform


def _sample(index, readings, events=None, temperature=55.0):
    """A hand-built interval sample for filter unit tests."""
    vf = SPEC.vf_table.fastest
    n = SPEC.num_cores
    events = events if events is not None else [EventVector.zeros()] * n
    return IntervalSample(
        index=index,
        time=0.2 * (index + 1),
        cu_vfs=[vf] * SPEC.num_cus,
        nb_vf=SPEC.nb_vf,
        power_gating=False,
        power_samples=list(readings),
        measured_power=sum(readings) / len(readings),
        temperature=temperature,
        core_events=list(events),
        true_core_events=[EventVector.zeros()] * n,
        instructions=[0.0] * n,
        true_power=sum(readings) / len(readings),
    )


def _steady_readings(index, base=42.0):
    """Ten plausible, non-identical 20 ms readings that vary by index."""
    return [base + 0.2 * ((index + i) % 5) for i in range(SLICES_PER_INTERVAL)]


class TestFaultSpec:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(stale_rate=-0.1)
        with pytest.raises(ValueError):
            FaultSpec(stuck_duration_intervals=0)

    def test_enabled(self):
        assert not FaultSpec().enabled
        assert FaultSpec(drop_rate=0.01).enabled
        assert FaultSpec(dropout_after_interval=5).enabled

    def test_sensor_faults_scales_rates(self):
        spec = FaultSpec.sensor_faults(0.1)
        assert spec.drop_rate == 0.1 and spec.spike_rate == 0.1
        assert 0 < spec.stuck_rate < 0.1
        assert spec.enabled


class TestInjectorDeterminism:
    def test_disabled_spec_returns_sample_unchanged(self):
        injector = FaultInjector(FaultSpec())
        sample = _sample(0, _steady_readings(0))
        assert injector.apply(sample) is sample

    def test_disabled_spec_trace_bitwise_identical(self):
        for cls in (Platform, ScalarPlatform):
            clean = _busy_platform(cls=cls)
            injected = _busy_platform(FaultSpec(), cls=cls)
            for _ in range(10):
                a, b = clean.step(), injected.step()
                assert a.power_samples == b.power_samples
                assert a.measured_power == b.measured_power
                assert a.temperature == b.temperature
                assert a.true_power == b.true_power
                assert a.core_events == b.core_events
                assert a.faults == b.faults == ()

    def test_same_seed_same_schedule(self):
        fault_spec = FaultSpec.sensor_faults(0.08)
        a = _busy_platform(fault_spec, injector_seed=3)
        b = _busy_platform(fault_spec, injector_seed=3)
        schedule_a = [a.step() for _ in range(60)]
        schedule_b = [b.step() for _ in range(60)]
        assert [s.faults for s in schedule_a] == [s.faults for s in schedule_b]
        assert [s.power_samples for s in schedule_a] == [
            s.power_samples for s in schedule_b
        ]
        assert any(s.faults for s in schedule_a)  # faults actually fired

    def test_different_seed_different_schedule(self):
        fault_spec = FaultSpec.sensor_faults(0.08)
        a = _busy_platform(fault_spec, injector_seed=3)
        b = _busy_platform(fault_spec, injector_seed=4)
        faults_a = [a.step().faults for _ in range(60)]
        faults_b = [b.step().faults for _ in range(60)]
        assert faults_a != faults_b

    def test_ground_truth_never_corrupted(self):
        fault_spec = FaultSpec.sensor_faults(0.2)
        clean = _busy_platform()
        faulty = _busy_platform(fault_spec)
        for _ in range(40):
            a, b = clean.step(), faulty.step()
            assert a.true_power == b.true_power
            assert a.instructions == b.instructions
            assert a.true_core_events == b.true_core_events

    def test_engines_corrupted_identically(self):
        fault_spec = FaultSpec.sensor_faults(0.1)
        vec = _busy_platform(fault_spec)
        sca = _busy_platform(fault_spec, cls=ScalarPlatform)
        for _ in range(20):
            a, b = vec.step(), sca.step()
            assert a.faults == b.faults

    def test_dropout_goes_permanently_stale(self):
        fault_spec = FaultSpec(dropout_after_interval=5)
        platform = _busy_platform(fault_spec)
        samples = [platform.step() for _ in range(12)]
        for sample in samples[:5]:
            assert sample.faults == ()
        for sample in samples[5:]:
            assert sample.faults == ("stale",)
        frozen = samples[5]
        for sample in samples[6:]:
            assert sample.power_samples == frozen.power_samples
            assert sample.measured_power == frozen.measured_power


class TestTelemetryFilter:
    def _warmed(self, config=None, n=6):
        filt = TelemetryFilter(SPEC, config)
        for i in range(n):
            verdict = filt.ingest(_sample(i, _steady_readings(i)))
            assert verdict.quality == GOOD
        return filt, n

    def test_clean_stream_is_good(self):
        filt, _ = self._warmed()
        assert filt.quality_counts[GOOD] > 0
        assert filt.quality_counts[REPAIRED] == 0
        assert filt.quality_counts[BAD] == 0

    def test_dropped_readings_repaired(self):
        filt, n = self._warmed()
        readings = _steady_readings(n)
        readings[2] = 0.0
        readings[7] = 0.0
        verdict = filt.ingest(_sample(n, readings))
        assert verdict.quality == REPAIRED
        assert "drop" in verdict.issues
        assert abs(verdict.power - 42.4) < 1.0  # near the clean mean

    def test_spike_rejected(self):
        filt, n = self._warmed()
        readings = _steady_readings(n)
        readings[4] += 150.0
        verdict = filt.ingest(_sample(n, readings))
        assert verdict.quality == REPAIRED
        assert "spike" in verdict.issues
        assert verdict.power < 50.0

    def test_stuck_interval_is_bad_with_last_good_power(self):
        filt, n = self._warmed()
        last_good = filt.ingest(_sample(n, _steady_readings(n))).power
        verdict = filt.ingest(_sample(n + 1, [37.5] * SLICES_PER_INTERVAL))
        assert verdict.quality == BAD
        assert "stuck" in verdict.issues
        assert verdict.power == last_good

    def test_stale_redelivery_is_bad(self):
        filt, n = self._warmed()
        sample = _sample(n, _steady_readings(n))
        assert filt.ingest(sample).quality == GOOD
        redelivered = _sample(n + 1, _steady_readings(n))
        verdict = filt.ingest(redelivered)
        assert verdict.quality == BAD
        assert "stale" in verdict.issues

    def test_wrapped_counters_replaced_with_last_good(self):
        filt, n = self._warmed()
        good_events = [
            EventVector([1e7] * 12) for _ in range(SPEC.num_cores)
        ]
        filt.ingest(_sample(n, _steady_readings(n), events=good_events))
        wrapped = [vec + EventVector([WRAP_COUNT] * 12) for vec in good_events]
        verdict = filt.ingest(
            _sample(n + 1, _steady_readings(n + 1), events=wrapped)
        )
        assert verdict.quality == REPAIRED
        assert "counters" in verdict.issues
        assert verdict.sample.core_events[0] == good_events[0]

    def test_all_readings_lost_falls_back(self):
        filt, n = self._warmed()
        last_good = filt._last_good_power
        verdict = filt.ingest(_sample(n, [0.0] * SLICES_PER_INTERVAL))
        assert verdict.quality == BAD
        assert verdict.power == last_good

    def test_window_gate_repairs_interval_outlier(self):
        filt, n = self._warmed()
        # Every reading doubled and consistent: passes in-interval checks,
        # caught only by the median-of-window gate.
        readings = [r * 2.6 for r in _steady_readings(n)]
        verdict = filt.ingest(_sample(n, readings))
        assert verdict.quality == REPAIRED
        assert "outlier" in verdict.issues
        assert verdict.power < 50.0

    def test_window_config_validated(self):
        with pytest.raises(ValueError):
            TelemetryFilter(SPEC, FilterConfig(window=2))


class _ScriptedController(DVFSController):
    """Cycles through VF states; counts calls to expose clock skew."""

    def __init__(self):
        self.calls = 0

    def reset(self):
        self.calls = 0

    def decide(self, sample):
        self.calls += 1
        table = SPEC.vf_table
        vf = table.by_index((self.calls % len(table)) + 1)
        return [vf] * SPEC.num_cus


def _scripted_control(tiny_registry):
    """A node controller that holds but never quarantines, as the
    single-node loops run it, with its capper's decisions scripted."""
    control = NodeControl(
        "node0", tiny_registry.get(SPEC), float("inf"), unhealthy_after=math.inf
    )
    script = _ScriptedController()
    control.capper.decide = script.decide
    return control, script


class TestNodeControlHold:
    def test_clean_stream_passes_through(self, tiny_registry):
        control, script = _scripted_control(tiny_registry)
        platform = _busy_platform()
        run = run_controlled(platform, control, 8)
        assert control.holds == 0
        assert script.calls == 8
        assert len(run.decisions) == 8

    def test_bad_interval_holds_previous_decision(self, tiny_registry):
        control, script = _scripted_control(tiny_registry)
        for i in range(6):
            good = control.decide(_sample(i, _steady_readings(i)))
        held = list(good)
        bad = control.decide(_sample(6, [37.5] * SLICES_PER_INTERVAL))
        assert control.holds == 1
        assert list(bad) == held
        # The capper still saw every interval (clock in sync).
        assert script.calls == 7

    def test_recovery_resumes_capper_decisions(self, tiny_registry):
        control, script = _scripted_control(tiny_registry)
        for i in range(6):
            control.decide(_sample(i, _steady_readings(i)))
        control.decide(_sample(6, [37.5] * SLICES_PER_INTERVAL))
        recovered = control.decide(_sample(7, _steady_readings(7)))
        fresh = _ScriptedController()
        for _ in range(8):
            expected = fresh.decide(None)
        assert list(recovered) == list(expected)


class TestHardenedFleet:
    def test_make_fleet_attaches_injectors(self, tiny_registry):
        from repro.fleet import make_fleet

        fleet = make_fleet(
            [SPEC] * 3,
            tiny_registry,
            fault_specs=[None, FaultSpec.sensor_faults(0.05)],
        )
        injectors = [n.platform.fault_injector for n in fleet.nodes]
        assert injectors[0] is None
        assert injectors[1] is not None
        assert injectors[2] is None  # cycled back to the clean spec

    def test_dropout_node_quarantined_and_budget_reallocated(
        self, tiny_registry
    ):
        from repro.fleet import ClusterPowerManager, make_fleet

        fault_specs = [None, None, FaultSpec(dropout_after_interval=4)]
        fleet = make_fleet([SPEC] * 3, tiny_registry, fault_specs=fault_specs)
        manager = ClusterPowerManager(
            fleet, 210.0, policy="waterfill", harden=True, unhealthy_after=2
        )
        run = manager.run(12)
        assert len(run.node_healthy) == 12
        # The faulty node ends up flagged unhealthy...
        assert run.node_healthy[-1][2] is False
        # ... pinned to its slowest VF state ...
        slowest = SPEC.vf_table.slowest
        assert all(
            vf.index == slowest.index
            for vf in fleet.nodes[2].platform.cu_vfs
        )
        # ... while the healthy nodes stay healthy and keep the budget.
        assert run.node_healthy[-1][0] is True
        assert run.node_healthy[-1][1] is True
        final_shares = run.shares[-1]
        assert final_shares[0] > final_shares[2]
        assert run.node_quality[-1][2] == BAD

    def test_permanent_dropout_never_readmitted(self, tiny_registry):
        """Quarantine must beat the last-good fallback, permanently.

        A dropped-out node's injector redelivers a frozen payload
        forever.  The telemetry filter's last-good repair must not turn
        that stale stream back into "good" intervals: once the bad
        streak trips quarantine, the node has to stay quarantined for
        the rest of the run, and the fleet ledger must not keep
        accepting rows priced against the stale readings.
        """
        from repro.fleet import ClusterPowerManager, make_fleet
        from repro.obs.events import EventLog
        from repro.obs.ledger import PredictionLedger

        fault_specs = [None, FaultSpec(dropout_after_interval=3)]
        fleet = make_fleet([SPEC] * 2, tiny_registry, fault_specs=fault_specs)
        events = EventLog()
        ledger = PredictionLedger(events=events)
        manager = ClusterPowerManager(
            fleet,
            140.0,
            policy="waterfill",
            harden=True,
            unhealthy_after=2,
            events=events,
            ledger=ledger,
        )
        run = manager.run(30)

        # Once flagged unhealthy, never re-admitted.
        healthy = [h[1] for h in run.node_healthy]
        first_bad = healthy.index(False)
        assert all(h is False for h in healthy[first_bad:])
        # Every post-dropout verdict stays BAD: the frozen payload must
        # not be laundered back to GOOD/REPAIRED by the last-good repair.
        qualities = [q[1] for q in run.node_quality]
        first_bad_quality = qualities.index(BAD)
        assert all(q == BAD for q in qualities[first_bad_quality:])
        # The event stream agrees: one quarantine_enter, no exit.
        enters = events.of_type("quarantine_enter")
        assert [e["node"] for e in enters] == ["node01"]
        assert events.of_type("quarantine_exit") == []
        # The ledger stopped accepting rows for the dead node once its
        # stream went bad; the healthy node kept recording all along.
        summary = ledger.node_summary()
        assert summary["node00"]["records"] > summary["node01"]["records"]
        assert summary["node01"]["records"] <= first_bad_quality + 1

    def test_hardened_clean_fleet_matches_unhardened(self, tiny_registry):
        """With no faults the hardened manager makes the same decisions."""
        from repro.fleet import ClusterPowerManager, make_fleet

        runs = {}
        for harden in (False, True):
            fleet = make_fleet([SPEC] * 2, tiny_registry)
            manager = ClusterPowerManager(fleet, 140.0, harden=harden)
            runs[harden] = manager.run(8)
        assert runs[False].node_powers == runs[True].node_powers
        assert runs[False].shares == runs[True].shares
