"""Injected-drift scenario behind ``ppep-repro obs --demo``.

The observability layer's job is to notice, *online*, when the trained
model stops matching the machine.  This scenario manufactures exactly
that situation: one node's controller
(:class:`~repro.fleet.cluster_cap.NodeControl`, with an uncapped capper)
runs normally for a calibration stretch, then the platform's power
sensor develops a gain error (every reading scaled by a constant factor
-- a classic shunt-drift failure mode).  The model's predictions are
still correct for the machine, but the *measured* power the ledger
compares them against walks away, so the per-interval error leaves the
calibration band and the CUSUM detector must flag drift.

The recorded JSONL ledger is what ``ppep-repro obs`` replays; the
golden-path assertion (at least one drift flag, the first at the
injection point) lives in ``tests/test_obs.py``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.ppep import stable_seed
from repro.fleet.cluster_cap import NodeControl
from repro.hardware.platform import CoreAssignment, Platform
from repro.obs.events import EventLog
from repro.obs.ledger import PredictionLedger
from repro.workloads.suites import spec_program

__all__ = ["record_demo", "DEMO_LEDGER_KWARGS", "DEMO_PROGRAMS"]

#: Workload rotation for the demo node: a CPU-bound / memory-bound mix
#: so the power trace has structure for the rolling statistics to track.
DEMO_PROGRAMS = ("429", "458", "416", "470")

#: Detector settings for the demo (and for replaying its ledger): a
#: 48-interval calibration prefix with k=1, h=12 keeps the quick-trained
#: model's slow error wander inside the band -- on the reference seed the
#: first flag lands on the injection interval itself -- while the
#: injected 15% sensor gain error still trips within one interval.
DEMO_LEDGER_KWARGS = {
    "calibration_intervals": 48,
    "cusum_slack": 1.0,
    "cusum_threshold": 12.0,
}


def record_demo(
    ctx,
    path: Optional[str] = None,
    n_intervals: int = 240,
    drift_at: int = 120,
    drift_scale: float = 1.15,
    node: str = "node0",
    warmup_intervals: int = 150,
) -> PredictionLedger:
    """Run one node's control loop with a mid-run power-sensor drift.

    ``ctx`` is an :class:`~repro.experiments.common.ExperimentContext`
    (its ``full_ppep`` is the model under observation).  The node's
    capper is uncapped, so it keeps the fastest state the platform
    starts in, and every ledger row after the first scores the capper's
    one-step-ahead price of that state, as the fleet's rows do.  From
    interval ``drift_at`` onward every power reading is scaled by
    ``drift_scale``; event counts and ground truth are untouched, so
    the injected error is purely a telemetry-vs-model divergence.
    The first ``warmup_intervals`` intervals are stepped but not
    recorded, so the chip reaches thermal steady state and the
    calibration band reflects the model's settled error rather than
    the warm-up ramp.  Returns the filled ledger; its rows go to
    ``path`` as JSONL events when given.
    """
    if n_intervals <= drift_at:
        raise ValueError("n_intervals must exceed drift_at")
    ppep = ctx.full_ppep
    spec = ctx.spec
    platform = Platform(
        spec,
        seed=stable_seed(ctx.base_seed, "obs-drift-demo"),
        power_gating=spec.supports_power_gating,
        initial_temperature=spec.ambient_temperature + 15.0,
    )
    platform.set_all_vf(spec.vf_table.fastest)
    workloads = [
        spec_program(DEMO_PROGRAMS[k % len(DEMO_PROGRAMS)])
        for k in range(spec.num_cus)
    ]
    platform.set_assignment(CoreAssignment.one_per_cu(spec, workloads))

    for _ in range(warmup_intervals):
        platform.step()

    # The context manager guarantees the buffered log is flushed and
    # closed even when the run dies mid-loop, so a crashed demo still
    # leaves a parseable (if truncated) JSONL ledger behind.
    with EventLog(path) as events:
        ledger = PredictionLedger(events=events, **DEMO_LEDGER_KWARGS)
        control = NodeControl(node, ppep, float("inf"), events=events, ledger=ledger)
        for k in range(n_intervals):
            sample = platform.step()
            if k >= drift_at:
                sample = replace(
                    sample,
                    power_samples=[
                        p * drift_scale for p in sample.power_samples
                    ],
                    measured_power=sample.measured_power * drift_scale,
                )
            _verdict, applied = control.process(k, sample)
            for cu, vf in enumerate(applied):
                platform.set_cu_vf(cu, vf)
    return ledger
