"""The backend boundary: simulator equivalence, fault injection, guard.

Pins the three contracts DESIGN.md section 13 promises:

1. the backend boundary is free -- driving a ``SimulatorBackend``
   through :func:`run_backend_controlled` is bit-identical to stepping
   and actuating the wrapped platform directly;
2. ``FlakyBackend`` is deterministic (same seed + spec => same fault
   schedule) and a disabled spec is bitwise-invisible;
3. ``BackendGuard`` retries transients with bounded budgets, degrades
   to flagged last-good samples, quarantines persistent failure, and
   never absorbs termination (``EndOfTrace``).
"""

import pytest

from repro.backends import (
    BackendError,
    BackendGuard,
    BackendIOError,
    BackendTimeout,
    CapabilityError,
    EndOfTrace,
    FlakyBackend,
    FlakySpec,
    GuardConfig,
    SimulatorBackend,
    TelemetryBackend,
    run_backend_controlled,
)
from repro.faults import TelemetryFilter
from repro.hardware.microarch import FX8320_SPEC
from repro.hardware.platform import Platform


def make_platform(seed=11):
    platform = Platform(FX8320_SPEC, seed=seed)
    platform.set_all_vf(FX8320_SPEC.vf_table.fastest)
    return platform


def observables(sample):
    return (
        sample.index,
        sample.time,
        tuple(sample.cu_vfs),
        sample.nb_vf,
        sample.power_gating,
        tuple(sample.power_samples),
        sample.measured_power,
        sample.temperature,
        tuple(sample.core_events),
        sample.interval_s,
    )


class CyclingController:
    """Deterministic non-trivial controller: walks the VF table."""

    def __init__(self, spec=FX8320_SPEC):
        self.spec = spec
        self.step = 0

    def reset(self):
        self.step = 0

    def decide(self, sample):
        states = list(self.spec.vf_table)
        vf = states[self.step % len(states)]
        self.step += 1
        return [vf] * self.spec.num_cus


class ScriptedBackend(TelemetryBackend):
    """Delivers a scripted sequence of samples and exceptions.

    Exception *instances* in the script are raised (consuming the
    script position -- each attempt sees the next entry), samples are
    returned.  Actuation honours optional scripted failures too.
    """

    def __init__(self, script, inner_caps, actuation_error=None):
        self.script = list(script)
        self.cursor = 0
        self._caps = inner_caps
        self.actuation_error = actuation_error
        self.set_vf_calls = []

    def capabilities(self):
        return self._caps

    def read_interval(self):
        if self.cursor >= len(self.script):
            raise EndOfTrace("script exhausted")
        entry = self.script[self.cursor]
        self.cursor += 1
        if isinstance(entry, Exception):
            raise entry
        return entry

    def get_vf(self, cu_id):
        raise NotImplementedError

    def set_vf(self, cu_id, vf):
        if self.actuation_error is not None:
            raise self.actuation_error
        self.set_vf_calls.append((cu_id, vf))

    def get_power_gating(self):
        return False

    def set_power_gating(self, enabled):
        if self.actuation_error is not None:
            raise self.actuation_error


@pytest.fixture(scope="module")
def recorded_samples():
    """Six intervals from a fixed-seed platform (shared, read-only)."""
    platform = make_platform(seed=23)
    return [platform.step() for _ in range(6)]


def scripted(script, actuation_error=None):
    caps = SimulatorBackend(make_platform()).capabilities()
    return ScriptedBackend(script, caps, actuation_error=actuation_error)


class TestSimulatorBackend:
    def test_read_is_bitwise_platform_step(self):
        direct = make_platform(seed=3)
        wrapped = SimulatorBackend(make_platform(seed=3))
        for _ in range(4):
            assert observables(wrapped.read_interval()) == observables(
                direct.step()
            )

    def test_capabilities_reflect_geometry(self):
        caps = SimulatorBackend(make_platform()).capabilities()
        assert caps.can_set_vf and caps.can_set_power_gating
        assert not caps.finite
        assert caps.num_cus == FX8320_SPEC.num_cus
        assert caps.num_cores == FX8320_SPEC.num_cores
        assert caps.slices_per_interval >= 1

    def test_actuation_roundtrip(self):
        backend = SimulatorBackend(make_platform())
        slow = FX8320_SPEC.vf_table.slowest
        backend.set_vf(1, slow)
        assert backend.get_vf(1) == slow
        backend.set_power_gating(True)
        assert backend.get_power_gating()

    def test_loop_is_bit_identical_to_direct_platform_loop(self):
        platform, controller = make_platform(seed=9), CyclingController()
        samples, decisions = [], []
        for _ in range(5):
            samples.append(platform.step())
            decisions.append(list(controller.decide(samples[-1])))
            for cu, vf in enumerate(decisions[-1]):
                platform.set_cu_vf(cu, vf)
        boundary = run_backend_controlled(
            SimulatorBackend(make_platform(seed=9)), CyclingController(), 5,
            initial_vf=FX8320_SPEC.vf_table.fastest,
        )
        assert [observables(s) for s in boundary.samples] == [
            observables(s) for s in samples
        ]
        assert boundary.decisions == decisions


class TestFlakySpec:
    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError, match="timeout_rate"):
            FlakySpec(timeout_rate=1.5)
        with pytest.raises(ValueError, match="stuck_duration_reads"):
            FlakySpec(stuck_rate=0.1, stuck_duration_reads=0)
        with pytest.raises(ValueError, match="outage_reads"):
            FlakySpec(outage_reads=-1)

    def test_enabled(self):
        assert not FlakySpec().enabled
        assert FlakySpec(garbage_rate=0.1).enabled
        assert FlakySpec(outage_start=5, outage_reads=2).enabled
        assert not FlakySpec(outage_start=5).enabled  # zero-length window
        assert FlakySpec.reference().enabled


class TestFlakyBackend:
    def test_disabled_spec_is_bitwise_invisible(self):
        inner = SimulatorBackend(make_platform(seed=4))
        flaky = FlakyBackend(inner, FlakySpec(), seed=99)
        direct = make_platform(seed=4)
        for _ in range(3):
            sample = flaky.read_interval()
            assert observables(sample) == observables(direct.step())
        # No randomness consumed, no attempt counted: the wrapper is
        # not merely equivalent, it is not there.
        assert flaky.attempts == 0
        assert flaky.counts == {}

    def test_same_seed_same_schedule(self):
        def outcome_stream(seed):
            flaky = FlakyBackend(
                SimulatorBackend(make_platform(seed=6)),
                FlakySpec.reference(scale=3.0),
                seed=seed,
            )
            outcomes = []
            for _ in range(40):
                try:
                    flaky.read_interval()
                    outcomes.append("ok")
                except BackendError as exc:
                    outcomes.append(type(exc).__name__)
            return outcomes, dict(flaky.counts)

        first = outcome_stream(seed=13)
        again = outcome_stream(seed=13)
        other = outcome_stream(seed=14)
        assert first == again
        assert first != other

    def test_error_faults_consume_no_interval(self):
        flaky = FlakyBackend(
            SimulatorBackend(make_platform()),
            FlakySpec(timeout_rate=1.0),
            seed=0,
        )
        for _ in range(3):
            with pytest.raises(BackendTimeout):
                flaky.read_interval()
        # The inner platform never stepped: the next clean read (rate
        # dropped via a fresh wrapper around the same inner) is interval 0.
        clean = FlakyBackend(flaky.inner, FlakySpec(), seed=0)
        assert clean.read_interval().index == 0

    def test_garbage_reads_are_flagged_values(self):
        flaky = FlakyBackend(
            SimulatorBackend(make_platform()),
            FlakySpec(garbage_rate=1.0),
            seed=1,
        )
        sample = flaky.read_interval()
        assert all(r == FlakySpec().garbage_w for r in sample.power_samples)
        assert sample.measured_power == FlakySpec().garbage_w
        # Ground truth is never touched: only delivery is corrupted.
        assert sample.true_power != FlakySpec().garbage_w

    def test_partial_reads_keep_a_nonempty_strict_prefix(self):
        inner = SimulatorBackend(make_platform())
        full = inner.capabilities().slices_per_interval
        flaky = FlakyBackend(inner, FlakySpec(partial_rate=1.0), seed=2)
        for _ in range(5):
            sample = flaky.read_interval()
            assert 1 <= len(sample.power_samples) < full
            assert sample.measured_power == pytest.approx(
                sum(sample.power_samples) / len(sample.power_samples)
            )
        assert flaky.counts["partial"] == 5

    def test_stuck_episode_repeats_readings(self):
        flaky = FlakyBackend(
            SimulatorBackend(make_platform()),
            FlakySpec(stuck_rate=1.0, stuck_duration_reads=3),
            seed=3,
        )
        first = flaky.read_interval()  # nothing to stick to yet
        episode = [flaky.read_interval() for _ in range(3)]
        assert flaky.counts["stuck"] == 3
        for sample in episode:
            assert sample.power_samples == first.power_samples
        # Real telemetry resumes fresh under a clean wrapper.
        assert episode[-1].index == first.index + 3

    def test_outage_window(self):
        flaky = FlakyBackend(
            SimulatorBackend(make_platform()),
            FlakySpec(outage_start=2, outage_reads=3),
            seed=4,
        )
        results = []
        for _ in range(7):
            try:
                flaky.read_interval()
                results.append("ok")
            except BackendIOError:
                results.append("down")
        assert results == ["ok", "ok", "down", "down", "down", "ok", "ok"]
        assert flaky.counts["outage"] == 3

    def test_capability_name_is_annotated(self):
        flaky = FlakyBackend(
            SimulatorBackend(make_platform()), FlakySpec(), seed=0
        )
        assert flaky.capabilities().name == "flaky(simulator)"


class TestBackendGuard:
    def test_transient_error_is_retried(self, recorded_samples):
        backend = scripted(
            [BackendTimeout("blip"), recorded_samples[0]]
        )
        guard = BackendGuard(backend, GuardConfig(retries=2), sleep=lambda s: None)
        sample = guard.read_interval()
        assert observables(sample) == observables(recorded_samples[0])
        assert guard.stats["retries"] == 1
        assert guard.stats["degraded"] == 0
        assert guard.state == "ok"

    def test_exhausted_retries_degrade_to_stale_last_good(self, recorded_samples):
        good = recorded_samples[0]
        backend = scripted(
            [good] + [BackendIOError("t{}".format(i)) for i in range(3)]
        )
        guard = BackendGuard(backend, GuardConfig(retries=2), sleep=lambda s: None)
        assert guard.read_interval() is good
        degraded = guard.read_interval()
        assert degraded.faults == ("stale",)
        assert degraded.index == good.index + 1
        assert degraded.time == pytest.approx(good.time + good.interval_s)
        assert degraded.measured_power == good.measured_power
        assert guard.stats["degraded"] == 1
        assert guard.classifications == {"transient": 1}
        assert guard.state == "degraded"

    def test_degraded_redelivery_is_stale_detected_downstream(self, recorded_samples):
        # The whole design: a guard degradation needs no new plumbing
        # because the TelemetryFilter already BAD-flags the restamped
        # last-good payload as a stale redelivery.
        good = recorded_samples[0]
        backend = scripted(
            [good] + [BackendIOError("t{}".format(i)) for i in range(3)]
        )
        guard = BackendGuard(backend, GuardConfig(retries=2), sleep=lambda s: None)
        filt = TelemetryFilter(FX8320_SPEC)
        assert filt.ingest(guard.read_interval()).quality == "good"
        verdict = filt.ingest(guard.read_interval())
        assert verdict.quality == "bad"

    def test_first_read_failure_reraises_crisply(self):
        backend = scripted([BackendIOError("dead on arrival")] * 4)
        guard = BackendGuard(backend, GuardConfig(retries=2), sleep=lambda s: None)
        with pytest.raises(BackendIOError, match="dead on arrival"):
            guard.read_interval()

    def test_quarantine_entry_probe_and_exit(self, recorded_samples):
        good = recorded_samples[0]
        config = GuardConfig(retries=1, quarantine_streak=2)
        # 1 good read, then 2 fully failed reads (2 attempts each) ->
        # quarantine; then 1 failing probe (single attempt); then
        # recovery.
        script = (
            [good]
            + [BackendIOError("e{}".format(i)) for i in range(4)]
            + [BackendIOError("probe fails")]
            + [recorded_samples[1]]
        )
        backend = scripted(script)
        guard = BackendGuard(backend, config, sleep=lambda s: None)
        guard.read_interval()
        guard.read_interval()
        assert guard.state == "degraded"
        guard.read_interval()
        assert guard.state == "quarantined"
        assert guard.stats["quarantine_entries"] == 1
        before = backend.cursor
        guard.read_interval()  # quarantined: exactly one probe attempt
        assert backend.cursor == before + 1
        recovered = guard.read_interval()
        assert observables(recovered) == observables(recorded_samples[1])
        assert guard.state == "ok"
        assert guard.streak == 0
        assert guard.stats["quarantine_exits"] == 1

    def test_stuck_classification_on_repeating_error_text(self, recorded_samples):
        good = recorded_samples[0]
        backend = scripted(
            [good] + [BackendIOError("same text")] * 4
        )
        guard = BackendGuard(backend, GuardConfig(retries=1), sleep=lambda s: None)
        guard.read_interval()
        guard.read_interval()  # first degradation: transient
        guard.read_interval()  # identical text repeating: stuck
        assert guard.classifications == {"transient": 1, "stuck": 1}

    def test_termination_and_misuse_propagate(self, recorded_samples):
        guard = BackendGuard(
            scripted([]), GuardConfig(retries=2), sleep=lambda s: None
        )
        with pytest.raises(EndOfTrace):
            guard.read_interval()
        guard = BackendGuard(
            scripted([CapabilityError("cannot")]),
            GuardConfig(retries=2),
            sleep=lambda s: None,
        )
        with pytest.raises(CapabilityError):
            guard.read_interval()

    def test_actuation_failure_is_a_held_decision(self, recorded_samples):
        backend = scripted(
            [recorded_samples[0]],
            actuation_error=BackendIOError("bus stuck"),
        )
        guard = BackendGuard(backend, GuardConfig(retries=2), sleep=lambda s: None)
        guard.set_vf(0, FX8320_SPEC.vf_table.fastest)  # must not raise
        assert guard.stats["actuation_failures"] == 1
        assert guard.stats["retries"] == 3  # the full bounded budget

    def test_backoff_schedule_is_seeded_deterministic(self, recorded_samples):
        def sleeps(seed):
            recorded = []
            backend = scripted(
                [BackendTimeout("a"), BackendTimeout("b"), recorded_samples[0]]
            )
            guard = BackendGuard(
                backend, GuardConfig(retries=3), seed=seed,
                sleep=recorded.append,
            )
            guard.read_interval()
            return recorded

        assert sleeps(5) == sleeps(5)
        assert sleeps(5) != sleeps(6)
        envelope = GuardConfig()
        for attempt, delay in enumerate(sleeps(5)):
            assert delay <= 1.5 * min(
                envelope.backoff_base_s * 2.0**attempt,
                envelope.backoff_max_s,
            )

    def test_slow_read_tallied_without_perturbing_data(self, recorded_samples):
        ticks = iter([0.0, 10.0, 10.0, 10.0])
        guard = BackendGuard(
            scripted([recorded_samples[0]]),
            GuardConfig(timeout_s=0.5, retries=0),
            sleep=lambda s: None,
            clock=lambda: next(ticks),
        )
        sample = guard.read_interval()
        assert observables(sample) == observables(recorded_samples[0])
        assert guard.stats["slow_reads"] == 1
        assert guard.stats["degraded"] == 0

    def test_events_emitted_with_schema(self, recorded_samples):
        from repro.obs.events import EventLog

        good = recorded_samples[0]
        events = EventLog()
        backend = scripted(
            [good]
            + [BackendIOError("e{}".format(i)) for i in range(4)]
        )
        guard = BackendGuard(
            backend, GuardConfig(retries=1, quarantine_streak=2),
            events=events, sleep=lambda s: None,
        )
        for _ in range(3):
            guard.read_interval()
        assert len(events.of_type("backend_retry")) == 4
        degraded = events.of_type("backend_degraded")
        assert [e["streak"] for e in degraded] == [1, 2]
        quarantine = events.of_type("backend_quarantine")
        assert [e["action"] for e in quarantine] == ["enter"]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="timeout_s"):
            GuardConfig(timeout_s=0.0)
        with pytest.raises(ValueError, match="retries"):
            GuardConfig(retries=-1)
        with pytest.raises(ValueError, match="quarantine_streak"):
            GuardConfig(quarantine_streak=0)


class TestRunBackendControlled:
    def test_finite_source_ends_with_partial_trajectory(self, recorded_samples, tmp_path):
        from repro.backends import TraceReplayBackend, record_trace

        path = str(tmp_path / "short.trace")
        record_trace(path, recorded_samples[:4])
        run = run_backend_controlled(
            TraceReplayBackend(path), CyclingController(), 10
        )
        assert len(run.samples) == 4
        assert len(run.decisions) == 4

    def test_initial_vf_skipped_without_capability(self, recorded_samples, tmp_path):
        from repro.backends import TraceReplayBackend, record_trace

        path = str(tmp_path / "short.trace")
        record_trace(path, recorded_samples[:2])
        # Must not raise even though the backend cannot actuate.
        run = run_backend_controlled(
            TraceReplayBackend(path), CyclingController(), 2,
            initial_vf=FX8320_SPEC.vf_table.slowest,
        )
        assert len(run.samples) == 2

    def test_rejects_wrong_decision_arity(self):
        class OneVF(CyclingController):
            def decide(self, sample):
                return [FX8320_SPEC.vf_table.fastest]  # too few CUs

        with pytest.raises(ValueError, match="one VF per CU"):
            run_backend_controlled(
                SimulatorBackend(make_platform()), OneVF(), 2
            )

    def test_rejects_nonpositive_intervals(self):
        with pytest.raises(ValueError, match="positive"):
            run_backend_controlled(
                SimulatorBackend(make_platform()), CyclingController(), 0
            )
