"""Resilience of the online pipeline under telemetry faults.

Sweeps a sensor-fault rate (sample drops + spikes, with proportionally
rarer stuck/counter/stale faults, see
:meth:`repro.faults.injection.FaultSpec.sensor_faults`) and scores the
hardened pipeline against the unhardened one on the same corrupted
telemetry stream:

- **Prediction leg** (the Figure 5 power estimate): per-interval MAE of
  :meth:`PPEP.estimate_current` against the reported power and against
  the ground-truth power, with and without the
  :class:`~repro.faults.filtering.TelemetryFilter` in front.
- **Capping leg** (the Figure 7 loop): a square-wave power cap chased by
  a raw :class:`~repro.dvfs.power_capping.PPEPPowerCapper` versus one
  node's whole controller, :class:`~repro.fleet.cluster_cap.NodeControl`
  (filter, capper, hold on BAD intervals; ``unhealthy_after=math.inf``,
  so it never quarantines).  Scored on ground-truth power -- violation
  rate, mean overshoot, and EDP-proxy loss relative to the clean
  (zero-fault) run.

Acceptance contract (enforced by ``benchmarks/bench_faults.py``): at a
5 % fault rate the hardened prediction MAE stays within 2x the clean
baseline while the unhardened MAE measurably degrades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.formatting import format_table
from repro.core.ppep import stable_seed
from repro.dvfs.governor import run_controlled
from repro.dvfs.power_capping import PPEPPowerCapper, square_wave_cap
from repro.experiments.common import ExperimentContext
from repro.faults import FaultInjector, FaultSpec, TelemetryFilter
from repro.fleet.cluster_cap import NodeControl
from repro.hardware.platform import INTERVAL_S, Platform

__all__ = ["FaultResilienceResult", "DEFAULT_RATES", "run", "format_report"]

#: The swept fault rates (per 20 ms reading for drops/spikes).
DEFAULT_RATES = (0.0, 0.01, 0.05, 0.10)


@dataclass(frozen=True)
class PredictionPoint:
    """Prediction-leg scores at one fault rate."""

    rate: float
    #: MAE of the unhardened estimate vs the (possibly faulty) reported
    #: power -- the paper's Figure 5 convention, watts.
    raw_mae_w: float
    #: MAE of the unhardened estimate vs ground-truth power, watts.
    raw_mae_true_w: float
    #: Same two scores with the TelemetryFilter in front.
    hardened_mae_w: float
    hardened_mae_true_w: float
    #: Interval tallies from the filter ({good, repaired, bad}).
    quality_counts: Dict[str, int]
    #: Faults the injector actually fired, by tag.
    injected: Dict[str, int]


@dataclass(frozen=True)
class CappingPoint:
    """Capping-leg scores at one fault rate (ground-truth power)."""

    rate: float
    raw_violation_rate: float
    #: Mean over-cap excess as a fraction of the cap.
    raw_overshoot: float
    raw_edp_loss: float
    guarded_violation_rate: float
    guarded_overshoot: float
    guarded_edp_loss: float
    #: Intervals on which the controller held the previous decision.
    guard_holds: int


@dataclass
class FaultResilienceResult:
    combo_name: str
    vf_index: int
    pred_intervals: int
    cap_intervals: int
    prediction: List[PredictionPoint]
    capping: List[CappingPoint]

    @property
    def clean_mae_w(self) -> float:
        """The zero-fault prediction MAE (the 2x acceptance baseline)."""
        return self.prediction[0].raw_mae_w

    def point_at(self, rate: float) -> Optional[PredictionPoint]:
        for point in self.prediction:
            if abs(point.rate - rate) < 1e-12:
                return point
        return None


def _fault_platform(
    ctx: ExperimentContext, combo, vf, rate: float, leg: str
) -> Platform:
    """A platform running ``combo`` at ``vf`` with faults at ``rate``."""
    spec_obj = FaultSpec.sensor_faults(rate) if rate > 0 else None
    injector = (
        FaultInjector(
            spec_obj,
            seed=stable_seed(ctx.base_seed, "fault-injector", leg, repr(rate)),
        )
        if spec_obj is not None
        else None
    )
    platform = Platform(
        ctx.spec,
        seed=stable_seed(ctx.base_seed, "fault-platform", leg, combo.name,
                         vf.index),
        initial_temperature=ctx.spec.ambient_temperature + 15.0,
        fault_injector=injector,
    )
    platform.set_all_vf(vf)
    platform.set_assignment(combo.assignment(ctx.spec))
    return platform


def _prediction_point(
    ctx: ExperimentContext, combo, vf, rate: float, n_intervals: int
) -> PredictionPoint:
    model = ctx.full_ppep
    platform = _fault_platform(ctx, combo, vf, rate, "predict")
    filt = TelemetryFilter(ctx.spec)
    raw_err: List[float] = []
    raw_err_true: List[float] = []
    hard_err: List[float] = []
    hard_err_true: List[float] = []
    for _ in range(n_intervals):
        sample = platform.step()
        raw_estimate = model.estimate_current(sample)
        raw_err.append(abs(raw_estimate - sample.measured_power))
        raw_err_true.append(abs(raw_estimate - sample.true_power))
        verdict = filt.ingest(sample)
        hard_estimate = model.estimate_current(verdict.sample)
        hard_err.append(abs(hard_estimate - verdict.power))
        hard_err_true.append(abs(hard_estimate - sample.true_power))
    injector = platform.fault_injector
    return PredictionPoint(
        rate=rate,
        raw_mae_w=float(np.mean(raw_err)),
        raw_mae_true_w=float(np.mean(raw_err_true)),
        hardened_mae_w=float(np.mean(hard_err)),
        hardened_mae_true_w=float(np.mean(hard_err_true)),
        quality_counts=dict(filt.quality_counts),
        injected=dict(injector.counts) if injector is not None else {},
    )


def _capping_run(
    ctx: ExperimentContext, combo, vf, rate: float, n_intervals: int,
    schedule, guarded: bool,
) -> Tuple[float, float, float, float, int]:
    """(violation rate, overshoot, energy J, instructions, holds)."""
    platform = _fault_platform(ctx, combo, vf, rate, "cap")
    controller = (
        NodeControl("node0", ctx.full_ppep, schedule, unhealthy_after=math.inf)
        if guarded
        else PPEPPowerCapper(ctx.full_ppep, schedule)
    )
    run_record = run_controlled(
        platform, controller, n_intervals,
        initial_vf=ctx.spec.vf_table.fastest,
    )
    caps = [schedule(i) for i in range(n_intervals)]
    true_powers = [s.true_power for s in run_record.samples]
    violations = sum(1 for p, c in zip(true_powers, caps) if p > c)
    overshoot = float(
        np.mean([max(p - c, 0.0) / c for p, c in zip(true_powers, caps)])
    )
    energy = sum(s.true_energy for s in run_record.samples)
    instructions = run_record.total_instructions()
    holds = controller.holds if guarded else 0
    return (
        violations / n_intervals,
        overshoot,
        energy,
        instructions,
        holds,
    )


def _edp_proxy(energy: float, instructions: float, duration_s: float) -> float:
    """EDP over the fixed-duration run, per (billion instructions)^2.

    Runs have identical wall-clock, so delay enters through the retired
    work: less work at the same energy and time means worse EDP.
    """
    giga = max(instructions / 1e9, 1e-9)
    return energy * duration_s / (giga * giga)


def run(
    ctx: ExperimentContext,
    rates=DEFAULT_RATES,
    combo_name: Optional[str] = None,
    vf_index: Optional[int] = None,
) -> FaultResilienceResult:
    """Sweep fault rates over both legs of the hardened pipeline."""
    roster_by_name = {c.name: c for c in ctx.roster}
    if combo_name is None:
        combo = ctx.roster[0]
    elif combo_name in roster_by_name:
        combo = roster_by_name[combo_name]
    else:
        raise KeyError(
            "unknown combination {!r}; choose from {}".format(
                combo_name, sorted(roster_by_name)
            )
        )
    vf = (
        ctx.spec.vf_table.fastest
        if vf_index is None
        else ctx.spec.vf_table.by_index(vf_index)
    )
    rates = tuple(sorted(set(float(r) for r in rates)))
    if not rates or rates[0] != 0.0:
        rates = (0.0,) + rates  # the clean baseline anchors every score

    pred_intervals = 240 if ctx.scale == "full" else 120
    period = 20 if ctx.scale == "full" else 10
    cap_intervals = 6 * period
    schedule = square_wave_cap(90.0, 55.0, period)
    duration_s = cap_intervals * INTERVAL_S

    prediction = [
        _prediction_point(ctx, combo, vf, rate, pred_intervals)
        for rate in rates
    ]

    capping: List[CappingPoint] = []
    baselines = {}
    for guarded in (False, True):
        baselines[guarded] = _capping_run(
            ctx, combo, vf, 0.0, cap_intervals, schedule, guarded
        )
    for rate in rates:
        row = {}
        for guarded in (False, True):
            if rate == 0.0:
                row[guarded] = baselines[guarded]
            else:
                row[guarded] = _capping_run(
                    ctx, combo, vf, rate, cap_intervals, schedule, guarded
                )
        raw_v, raw_o, raw_e, raw_i, _ = row[False]
        g_v, g_o, g_e, g_i, holds = row[True]
        base_edp = {
            flag: _edp_proxy(baselines[flag][2], baselines[flag][3], duration_s)
            for flag in (False, True)
        }
        capping.append(
            CappingPoint(
                rate=rate,
                raw_violation_rate=raw_v,
                raw_overshoot=raw_o,
                raw_edp_loss=_edp_proxy(raw_e, raw_i, duration_s)
                / base_edp[False]
                - 1.0,
                guarded_violation_rate=g_v,
                guarded_overshoot=g_o,
                guarded_edp_loss=_edp_proxy(g_e, g_i, duration_s)
                / base_edp[True]
                - 1.0,
                guard_holds=holds,
            )
        )
    return FaultResilienceResult(
        combo_name=combo.name,
        vf_index=vf.index,
        pred_intervals=pred_intervals,
        cap_intervals=cap_intervals,
        prediction=prediction,
        capping=capping,
    )


def format_report(result: FaultResilienceResult, ctx: ExperimentContext) -> str:
    """Render the sweep as prediction + capping tables with a verdict."""
    clean = result.clean_mae_w
    pred_rows = []
    for p in result.prediction:
        pred_rows.append([
            "{:.0%}".format(p.rate),
            "{:.2f}".format(p.raw_mae_w),
            "{:.2f}".format(p.raw_mae_true_w),
            "{:.2f}".format(p.hardened_mae_w),
            "{:.2f}".format(p.hardened_mae_true_w),
            "{:.1f}x".format(p.hardened_mae_w / clean) if clean > 0 else "-",
            "{}/{}/{}".format(
                p.quality_counts.get("good", 0),
                p.quality_counts.get("repaired", 0),
                p.quality_counts.get("bad", 0),
            ),
        ])
    cap_rows = []
    for c in result.capping:
        cap_rows.append([
            "{:.0%}".format(c.rate),
            "{:.1%}".format(c.raw_violation_rate),
            "{:.2%}".format(c.raw_overshoot),
            "{:+.1%}".format(c.raw_edp_loss),
            "{:.1%}".format(c.guarded_violation_rate),
            "{:.2%}".format(c.guarded_overshoot),
            "{:+.1%}".format(c.guarded_edp_loss),
            str(c.guard_holds),
        ])
    parts = [
        "workload {} at VF{}; {} prediction intervals, {} capping "
        "intervals per point".format(
            result.combo_name, result.vf_index,
            result.pred_intervals, result.cap_intervals,
        ),
        "",
        format_table(
            ["rate", "raw MAE", "raw|true", "hard MAE", "hard|true",
             "hard/clean", "good/rep/bad"],
            pred_rows,
            title="Prediction under faults (W; clean baseline "
            "{:.2f} W, acceptance: hard MAE <= 2x clean at 5%)".format(clean),
        ),
        "",
        format_table(
            ["rate", "raw viol", "raw over", "raw EDP",
             "grd viol", "grd over", "grd EDP", "holds"],
            cap_rows,
            title="Capping under faults (ground-truth power vs "
            "90/55 W square wave; EDP loss vs clean run)",
        ),
    ]
    point = result.point_at(0.05)
    if point is not None and clean > 0:
        verdict = (
            "PASS"
            if point.hardened_mae_w <= 2.0 * clean
            and point.raw_mae_w > point.hardened_mae_w
            else "FAIL"
        )
        parts.append("")
        parts.append(
            "5% rate: unhardened MAE {:.2f} W vs hardened {:.2f} W "
            "(clean {:.2f} W) -> {}".format(
                point.raw_mae_w, point.hardened_mae_w, clean, verdict
            )
        )
    return "\n".join(parts)
