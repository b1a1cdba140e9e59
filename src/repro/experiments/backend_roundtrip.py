"""Backend-boundary acceptance: record->replay identity + flaky storm.

Four legs, all against the same workload and model:

1. **Live**: a closed-loop capping run driven through
   :class:`~repro.backends.simulator.SimulatorBackend` (bit-identical
   to driving the platform directly), recorded to a trace file.
2. **Replay**: the trace fed back through
   :class:`~repro.backends.trace.TraceReplayBackend` into an
   identically constructed controller.  The acceptance gate: replayed
   samples and decisions are **bit-identical** to the live run's.
3. **Transparency**: the live run repeated behind a *disabled*
   :class:`~repro.backends.flaky.FlakyBackend` -- bitwise identical to
   no wrapper, pinning the determinism contract.
4. **Storm**: the reference :class:`~repro.backends.flaky.FlakySpec`
   behind a :class:`~repro.backends.guard.BackendGuard`.  Gates: zero
   uncaught exceptions, retries bounded by the configured budget, the
   outage window drives at least one quarantine entry and exit, and
   the hardened prediction MAE stays within 2x the clean baseline
   (the same gate the fault-resilience experiment enforces).

``benchmarks/bench_backend.py`` runs this experiment in CI and fails
the build on any gate.
"""

from __future__ import annotations

import dataclasses
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backends import (
    BackendGuard,
    FlakyBackend,
    FlakySpec,
    GuardConfig,
    SimulatorBackend,
    TraceReplayBackend,
    record_trace,
    run_backend_controlled,
)
from repro.core.ppep import stable_seed
from repro.dvfs.power_capping import square_wave_cap
from repro.experiments.common import ExperimentContext
from repro.faults import TelemetryFilter
from repro.fleet.cluster_cap import NodeControl
from repro.hardware.platform import IntervalSample, Platform
from repro.obs.events import EventLog

__all__ = [
    "BackendRoundtripResult",
    "format_report",
    "live_session",
    "record_session",
    "run",
]

#: MAE acceptance factor over the clean baseline (matches the
#: fault-resilience experiment's hardened gate).
MAE_GATE_FACTOR = 2.0


@dataclass
class BackendRoundtripResult:
    combo_name: str
    intervals: int
    trace_rows: int
    #: Replay leg: samples and decisions bit-identical to the live run.
    replay_samples_identical: bool
    replay_decisions_identical: bool
    #: Interval of the first divergence (None when identical).
    first_divergence: Optional[int]
    #: Repairs the replayer applied (must be empty for a clean trace).
    trace_repairs: Dict[str, int]
    #: Transparency leg: disabled FlakyBackend bitwise identical.
    disabled_flaky_identical: bool
    #: Storm leg.
    storm_intervals: int
    storm_crashes: int
    retry_budget: int
    guard_health: Dict[str, object]
    flaky_counts: Dict[str, int]
    backend_events: Dict[str, int]
    clean_mae_w: float
    storm_mae_w: float
    storm_quality: Dict[str, int]

    @property
    def retries_bounded(self) -> bool:
        """Whether total retries stayed within the per-read budget."""
        stats = self.guard_health["stats"]
        return stats["retries"] <= self.retry_budget * stats["reads"]

    @property
    def quarantine_exercised(self) -> bool:
        stats = self.guard_health["stats"]
        return (
            stats["quarantine_entries"] >= 1
            and stats["quarantine_exits"] >= 1
        )

    @property
    def mae_within_gate(self) -> bool:
        return self.storm_mae_w <= MAE_GATE_FACTOR * self.clean_mae_w

    @property
    def passed(self) -> bool:
        return (
            self.replay_samples_identical
            and self.replay_decisions_identical
            and not self.trace_repairs
            and self.disabled_flaky_identical
            and self.storm_crashes == 0
            and self.retries_bounded
            and self.quarantine_exercised
            and self.mae_within_gate
        )


def _observables(sample: IntervalSample) -> Tuple:
    """The observable fields, as one comparable tuple."""
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


def _make_platform(ctx: ExperimentContext, combo, leg: str) -> Platform:
    platform = Platform(
        ctx.spec,
        seed=stable_seed(ctx.base_seed, "backend", leg, combo.name),
        initial_temperature=ctx.spec.ambient_temperature + 15.0,
    )
    platform.set_all_vf(ctx.spec.vf_table.fastest)
    platform.set_assignment(combo.assignment(ctx.spec))
    return platform


def _make_controller(ctx: ExperimentContext, schedule):
    """The node's whole controller.  It holds on BAD intervals but never
    quarantines: a node pinned to its slowest state draws far less, and
    the filter's window gate would replace those honest low readings
    with the old window median."""
    return NodeControl("node0", ctx.full_ppep, schedule, unhealthy_after=math.inf)


def _hardened_mae(ctx: ExperimentContext, samples: List[IntervalSample]) -> Tuple[float, Dict[str, int]]:
    """MAE of the hardened estimate vs the filter's robust power."""
    model = ctx.full_ppep
    filt = TelemetryFilter(ctx.spec)
    errors = []
    for sample in samples:
        verdict = filt.ingest(sample)
        estimate = model.estimate_current(verdict.sample)
        errors.append(abs(estimate - verdict.power))
    return float(np.mean(errors)), dict(filt.quality_counts)


def _default_intervals(ctx: ExperimentContext) -> int:
    return 120 if ctx.scale == "full" else 60


def _cap_schedule(n: int):
    return square_wave_cap(90.0, 55.0, max(n // 6, 2))


def live_session(ctx: ExperimentContext, intervals: Optional[int] = None):
    """The canonical capped live run over the backend boundary."""
    combo = ctx.roster[0]
    n = intervals if intervals is not None else _default_intervals(ctx)
    return run_backend_controlled(
        SimulatorBackend(_make_platform(ctx, combo, "live")),
        _make_controller(ctx, _cap_schedule(n)),
        n,
    )


def record_session(
    ctx: ExperimentContext, path: str, intervals: Optional[int] = None
) -> int:
    """Record the canonical live session to ``path``; returns rows written."""
    run_ = live_session(ctx, intervals)
    return record_trace(path, run_.samples, spec_name=ctx.spec.name)


def run(
    ctx: ExperimentContext,
    intervals: Optional[int] = None,
    trace_path: Optional[str] = None,
    retries: int = 2,
    timeout_s: float = 0.5,
) -> BackendRoundtripResult:
    """Run all four legs; see the module docstring for the gates."""
    combo = ctx.roster[0]
    n = intervals if intervals is not None else _default_intervals(ctx)
    schedule = _cap_schedule(n)

    # Leg 1: live run through the backend boundary, recorded.
    live = live_session(ctx, n)
    cleanup = trace_path is None
    if trace_path is None:
        handle, trace_path = tempfile.mkstemp(
            suffix=".trace", prefix="ppep-roundtrip-"
        )
        os.close(handle)
    try:
        trace_rows = record_trace(
            trace_path, live.samples, spec_name=ctx.spec.name
        )

        # Leg 2: replay the trace through an identical controller.
        replay_backend = TraceReplayBackend(trace_path)
        replay = run_backend_controlled(
            replay_backend, _make_controller(ctx, schedule), n
        )
        trace_repairs = dict(replay_backend.repairs)
    finally:
        if cleanup:
            os.unlink(trace_path)
    first_divergence: Optional[int] = None
    samples_identical = len(replay.samples) == len(live.samples)
    for k, (a, b) in enumerate(zip(live.samples, replay.samples)):
        if _observables(a) != _observables(b):
            samples_identical = False
            first_divergence = k
            break
    decisions_identical = replay.decisions == live.decisions
    if not decisions_identical and first_divergence is None:
        for k, (a, b) in enumerate(zip(live.decisions, replay.decisions)):
            if a != b:
                first_divergence = k
                break

    # Leg 3: a disabled FlakyBackend is bitwise transparent.
    transparent = run_backend_controlled(
        FlakyBackend(
            SimulatorBackend(_make_platform(ctx, combo, "live")),
            FlakySpec(),
        ),
        _make_controller(ctx, schedule),
        n,
    )
    disabled_identical = (
        [_observables(s) for s in transparent.samples]
        == [_observables(s) for s in live.samples]
        and transparent.decisions == live.decisions
    )

    # Leg 4: the reference flaky storm behind the guard.  The outage
    # window is re-anchored to the middle of the run so the quarantine
    # path is exercised at every scale, not only at >=70 intervals.
    # With the default retries=2 each fully failed read burns three
    # attempts, so the ten-attempt reference outage degrades three
    # consecutive reads -- exactly the quarantine streak -- and leaves
    # one failing probe before recovery.
    config = GuardConfig(retries=retries, timeout_s=timeout_s)
    events = EventLog()
    flaky = FlakyBackend(
        SimulatorBackend(_make_platform(ctx, combo, "storm")),
        dataclasses.replace(FlakySpec.reference(), outage_start=n // 2),
        seed=stable_seed(ctx.base_seed, "backend", "flaky"),
    )
    guard = BackendGuard(
        flaky,
        config,
        seed=stable_seed(ctx.base_seed, "backend", "guard"),
        events=events,
        # The backoff *schedule* is what determinism pins; actually
        # sleeping it would only slow the experiment down.
        sleep=lambda _s: None,
    )
    crashes = 0
    try:
        storm = run_backend_controlled(
            guard, _make_controller(ctx, schedule), n
        )
        storm_samples = storm.samples
    except Exception:
        crashes = 1
        storm_samples = []

    clean_mae, _clean_quality = _hardened_mae(ctx, live.samples)
    storm_mae, storm_quality = (
        _hardened_mae(ctx, storm_samples)
        if storm_samples
        else (float("inf"), {})
    )
    backend_events = {
        type_: len(events.of_type(type_))
        for type_ in ("backend_retry", "backend_degraded", "backend_quarantine")
    }

    return BackendRoundtripResult(
        combo_name=combo.name,
        intervals=n,
        trace_rows=trace_rows,
        replay_samples_identical=samples_identical,
        replay_decisions_identical=decisions_identical,
        first_divergence=first_divergence,
        trace_repairs=trace_repairs,
        disabled_flaky_identical=disabled_identical,
        storm_intervals=len(storm_samples),
        storm_crashes=crashes,
        retry_budget=config.retries,
        guard_health=guard.health(),
        flaky_counts=dict(flaky.counts),
        backend_events=backend_events,
        clean_mae_w=clean_mae,
        storm_mae_w=storm_mae,
        storm_quality=storm_quality,
    )


def format_report(result: BackendRoundtripResult, ctx: ExperimentContext) -> str:
    """Render the four legs with one PASS/FAIL verdict line."""
    stats = result.guard_health["stats"]

    def mark(ok: bool) -> str:
        return "ok" if ok else "FAIL"

    lines = [
        "workload {}; {} intervals per leg; trace of {} row(s)".format(
            result.combo_name, result.intervals, result.trace_rows
        ),
        "",
        "record->replay: samples {}  decisions {}  repairs {}{}".format(
            mark(result.replay_samples_identical),
            mark(result.replay_decisions_identical),
            result.trace_repairs or "none",
            ""
            if result.first_divergence is None
            else "  (first divergence at interval {})".format(
                result.first_divergence
            ),
        ),
        "disabled flaky wrapper bitwise transparent: {}".format(
            mark(result.disabled_flaky_identical)
        ),
        "",
        "flaky storm: {} interval(s), {} crash(es); injected {}".format(
            result.storm_intervals, result.storm_crashes, result.flaky_counts
        ),
        "guard: state={} retries={} (budget {}/read) degraded={} "
        "quarantine {}:{} classifications {}".format(
            result.guard_health["state"],
            stats["retries"],
            result.retry_budget,
            stats["degraded"],
            stats["quarantine_entries"],
            stats["quarantine_exits"],
            result.guard_health["classifications"],
        ),
        "events: {}".format(result.backend_events),
        "filter verdicts under storm (good/repaired/bad): {}/{}/{}".format(
            result.storm_quality.get("good", 0),
            result.storm_quality.get("repaired", 0),
            result.storm_quality.get("bad", 0),
        ),
        "hardened MAE: clean {:.2f} W, storm {:.2f} W ({:.2f}x; gate {:.0f}x)".format(
            result.clean_mae_w,
            result.storm_mae_w,
            result.storm_mae_w / result.clean_mae_w
            if result.clean_mae_w > 0
            else float("inf"),
            MAE_GATE_FACTOR,
        ),
        "",
        "backend roundtrip acceptance -> {}".format(
            "PASS" if result.passed else "FAIL"
        ),
    ]
    return "\n".join(lines)
