"""Generality validation on the AMD Phenom II X6 1090T preset.

The paper repeats its validation on a second, older processor (six K10
cores, four VF states, no power gating) using PARSEC and NPB.  Paper
reference values: dynamic power AAE 8.2/7.3/7.1 % and chip power AAE
3.6/3.1/2.6 % at VF4/VF3/VF2; cross-VF prediction among VF4..VF2
averages 5.6 % (dynamic) and 3.1 % (chip).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.analysis.formatting import format_percent, format_table
from repro.analysis.metrics import average_absolute_error
from repro.analysis.trace import TraceLibrary
from repro.core.idle_power import fit_idle_power_model
from repro.core.ppep import PPEP, PPEPTrainer
from repro.experiments.common import ExperimentContext
from repro.hardware.microarch import PHENOM_II_SPEC
from repro.workloads.suites import npb_runs, parsec_runs

__all__ = ["PhenomResult", "run", "format_report"]


@dataclass
class PhenomResult:
    """Per-VF validation errors and cross-VF averages."""

    chip_aae: Dict[int, float]
    dynamic_aae: Dict[int, float]
    cross_chip: float
    cross_dynamic: float
    alpha: float


def run(ctx: ExperimentContext) -> PhenomResult:
    """Validate PPEP end-to-end on the Phenom II preset.

    ``ctx`` supplies only the scale; the Phenom II has its own trainer,
    library, and (PARSEC + NPB) roster, as in the paper.
    """
    spec = PHENOM_II_SPEC
    bench_intervals = 30 if ctx.scale == "full" else 10
    trainer = PPEPTrainer(
        spec,
        base_seed=ctx.base_seed + 600,
        bench_intervals=bench_intervals,
        cool_intervals=ctx.trainer.COOL_INTERVALS,
    )
    library = TraceLibrary()
    combos = parsec_runs() + npb_runs()
    if ctx.scale == "quick":
        combos = combos[::6]
    else:
        combos = combos[::2]
    # Runs with more contexts than the chip has cores are dropped (the
    # paper's Phenom II study used runs that fit its six cores).
    combos = [c for c in combos if c.num_contexts <= spec.num_cores]
    split = max(len(combos) * 3 // 4, 1)
    train, test = combos[:split], combos[split:]

    idle_model = fit_idle_power_model(trainer.collect_all_cooling())
    alpha = trainer.estimate_alpha_from_microbench(idle_model)
    vf_top = spec.vf_table.fastest
    vf5_traces = {c.name: trainer.collect_trace(c, vf_top, library) for c in train}
    dyn_model = trainer.fit_dynamic_model(idle_model, vf5_traces).with_alpha(alpha)
    ppep = PPEP(spec, idle_model, dyn_model, pg_model=None)

    # The paper validates VF4 down to VF2 on this part.
    validate_states = [vf for vf in spec.vf_table if vf.index >= 2]
    chip_aae: Dict[int, float] = {}
    dyn_aae: Dict[int, float] = {}
    for vf in validate_states:
        chip_p, chip_m, dyn_p, dyn_m = [], [], [], []
        for combo in test:
            for sample in trainer.collect_trace(combo, vf, library):
                est = ppep.estimate_current(sample)
                idle = idle_model.predict(vf.voltage, sample.temperature)
                chip_p.append(est)
                chip_m.append(sample.measured_power)
                dyn_p.append(est - idle)
                dyn_m.append(sample.measured_power - idle)
        chip_aae[vf.index] = average_absolute_error(chip_p, chip_m)
        dyn_aae[vf.index] = average_absolute_error(dyn_p, dyn_m)

    # Cross-VF among the validated states.
    cross_chip_errors: List[float] = []
    cross_dyn_errors: List[float] = []
    for src in validate_states:
        for tgt in validate_states:
            if src.index == tgt.index:
                continue
            for combo in test:
                src_trace = trainer.collect_trace(combo, src, library)
                tgt_trace = trainer.collect_trace(combo, tgt, library)
                pred_chip = []
                pred_dyn = []
                for sample in src_trace:
                    p = ppep.analyze(sample).prediction(tgt)
                    pred_chip.append(p.chip_power)
                    pred_dyn.append(p.dynamic_power)
                meas_chip = []
                meas_dyn = []
                for sample in tgt_trace:
                    idle = idle_model.predict(tgt.voltage, sample.temperature)
                    meas_chip.append(sample.measured_power)
                    meas_dyn.append(sample.measured_power - idle)
                mc, md = float(np.mean(meas_chip)), float(np.mean(meas_dyn))
                cross_chip_errors.append(abs(float(np.mean(pred_chip)) - mc) / mc)
                if md > 0:
                    cross_dyn_errors.append(abs(float(np.mean(pred_dyn)) - md) / md)

    return PhenomResult(
        chip_aae=chip_aae,
        dynamic_aae=dyn_aae,
        cross_chip=float(np.mean(cross_chip_errors)),
        cross_dynamic=float(np.mean(cross_dyn_errors)),
        alpha=alpha,
    )


def format_report(result: PhenomResult, ctx: ExperimentContext) -> str:
    """Render the result as the rows/series the paper reports."""
    rows = []
    for index in sorted(result.chip_aae, reverse=True):
        rows.append(
            [
                "VF{}".format(index),
                format_percent(result.dynamic_aae[index]),
                format_percent(result.chip_aae[index]),
            ]
        )
    table = format_table(
        ["VF state", "dynamic AAE", "chip AAE"],
        rows,
        title="AMD Phenom II X6 1090T validation (PARSEC + NPB)",
    )
    return (
        "{}\n(paper: dynamic 8.2/7.3/7.1%, chip 3.6/3.1/2.6% for VF4..VF2)\n"
        "Cross-VF averages: dynamic {}  chip {}  (paper: 5.6% / 3.1%); "
        "alpha = {:.2f}".format(
            table,
            format_percent(result.cross_dynamic),
            format_percent(result.cross_chip),
            result.alpha,
        )
    )
