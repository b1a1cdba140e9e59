"""Shared experiment infrastructure.

:class:`ExperimentContext` owns everything the per-figure experiments
share: the chip spec, a trainer, the memoising trace library, the
benchmark roster, the fold-independent model components (idle model,
alpha, PG decomposition), per-fold PPEP models for cross-validated
experiments, and one full-roster PPEP for the policy studies.

Two scales are supported:

- ``"full"``  -- the paper's 152 combinations, 40-interval traces;
- ``"quick"`` -- a 24-combination subset with shorter traces, for tests
  and fast iteration.  The quick scale preserves suite diversity, so
  every experiment still produces the paper's qualitative shapes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.trace import Trace, TraceLibrary
from repro.core.crossval import kfold_split
from repro.core.idle_power import IdlePowerModel, fit_idle_power_model
from repro.core.power_gating import PGAwareIdleModel
from repro.core.ppep import PPEP, PPEPTrainer, stable_seed
from repro.fleet.registry import spec_fingerprint
from repro.hardware.microarch import ChipSpec, FX8320_SPEC
from repro.hardware.platform import (
    CoreAssignment,
    IntervalSample,
    Platform,
)
from repro.hardware.vfstates import VFState
from repro.workloads.phases import Workload
from repro.workloads.suites import (
    BenchmarkCombination,
    build_roster,
    npb_runs,
    parsec_runs,
    spec_combinations,
)

__all__ = ["ExperimentContext", "FixedWorkRun", "get_context"]

_SCALES = ("full", "quick")


def _quick_roster() -> List[BenchmarkCombination]:
    """A 24-combination subset preserving suite and type diversity."""
    spec = spec_combinations()
    # 8 singles spanning memory/CPU/FP axes, 2 doubles, 1 triple, 1 quad.
    picks = {"429", "433", "458", "416", "470", "403", "462", "482"}
    singles = [c for c in spec if c.name in picks]
    multis = [c for c in spec if "+" in c.name][:4]
    parsec = parsec_runs()[::7][:6]
    npb = npb_runs()[::6][:6]
    return singles + multis + parsec + npb


@dataclass
class FixedWorkRun:
    """One fixed-instruction-budget run (the Figure 8-11 unit)."""

    vf_index: int
    n_instances: int
    #: Wall-clock time until the last instance finished, seconds.
    time_s: float
    #: Measured chip energy until completion, joules.
    chip_energy: float
    #: The interval samples of the run.
    samples: List[IntervalSample] = field(repr=False, default_factory=list)

    @property
    def per_thread_energy(self) -> float:
        return self.chip_energy / self.n_instances

    @property
    def per_thread_edp(self) -> float:
        return self.per_thread_energy * self.time_s


class ExperimentContext:
    """Memoising home of everything the experiments share."""

    def __init__(
        self,
        spec: ChipSpec = FX8320_SPEC,
        scale: str = "full",
        base_seed: int = 20141213,
        cache_dir: Optional[str] = None,
    ) -> None:
        if scale not in _SCALES:
            raise ValueError("scale must be one of {}".format(_SCALES))
        self.spec = spec
        self.scale = scale
        self.base_seed = base_seed
        bench_intervals = 40 if scale == "full" else 12
        cool_intervals = 300 if scale == "full" else 150
        self.trainer = PPEPTrainer(
            spec,
            base_seed=base_seed,
            bench_intervals=bench_intervals,
            cool_intervals=cool_intervals,
        )
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_TRACE_CACHE") or None
        self.library = (
            TraceLibrary(cache_dir, spec) if cache_dir else TraceLibrary()
        )
        self.roster: List[BenchmarkCombination] = (
            build_roster() if scale == "full" else _quick_roster()
        )
        self._cooling = None
        self._idle_model: Optional[IdlePowerModel] = None
        self._alpha: Optional[float] = None
        self._pg_model: Optional[PGAwareIdleModel] = None
        self._fold_models: Optional[List[Tuple[PPEP, List[BenchmarkCombination]]]] = None
        self._full_ppep: Optional[PPEP] = None
        #: Scratch memo space for experiment modules (e.g. the Figure
        #: 8-11 background sweep, shared across those experiments).
        self.cache: Dict[object, object] = {}

    # -- roster views -----------------------------------------------------------

    def combos_by_suite(self) -> Dict[str, List[str]]:
        """Combination names grouped by suite label, plus 'ALL'."""
        groups: Dict[str, List[str]] = {"SPE": [], "PAR": [], "NPB": []}
        for combo in self.roster:
            groups[combo.suite.label].append(combo.name)
        groups["ALL"] = [c.name for c in self.roster]
        return groups

    # -- fold-independent components ----------------------------------------------

    @property
    def cooling_traces(self):
        if self._cooling is None:
            self._cooling = self.trainer.collect_all_cooling(self.library)
        return self._cooling

    @property
    def idle_model(self) -> IdlePowerModel:
        if self._idle_model is None:
            self._idle_model = fit_idle_power_model(self.cooling_traces)
        return self._idle_model

    @property
    def alpha(self) -> float:
        if self._alpha is None:
            self._alpha = self.trainer.estimate_alpha_from_microbench(
                self.idle_model, self.library
            )
        return self._alpha

    @property
    def pg_model(self) -> Optional[PGAwareIdleModel]:
        if self._pg_model is None and self.spec.supports_power_gating:
            sweeps = {
                vf.index: self.trainer.collect_pg_sweep(vf, self.library)
                for vf in self.spec.vf_table
            }
            self._pg_model = self.trainer.fit_pg_model(sweeps)
        return self._pg_model

    # -- trace access ------------------------------------------------------------

    def trace(self, combo: BenchmarkCombination, vf: VFState) -> Trace:
        """The (cached) trace of one combination at one VF state."""
        return self.trainer.collect_trace(combo, vf, self.library)

    # -- fitted models ----------------------------------------------------------------

    def _fit_fold(self, train: Sequence[BenchmarkCombination]) -> PPEP:
        """Refit the Eq. 3 weights on a fold's training set, sharing the
        fold-independent idle model, alpha, and PG decomposition."""
        vf5 = self.spec.vf_table.fastest
        vf5_traces = {c.name: self.trace(c, vf5) for c in train}
        model = self.trainer.fit_dynamic_model(self.idle_model, vf5_traces)
        model = model.with_alpha(self.alpha)
        return PPEP(self.spec, self.idle_model, model, self.pg_model)

    def fold_models(self) -> List[Tuple[PPEP, List[BenchmarkCombination]]]:
        """(model, held-out combos) per fold of the 4-fold CV."""
        if self._fold_models is None:
            self._fold_models = [
                (self._fit_fold(train), test)
                for train, test in kfold_split(self.roster, k=4, seed=152)
            ]
        return self._fold_models

    def model_for(self, combo: BenchmarkCombination) -> PPEP:
        """The fold model for which ``combo`` is held out."""
        for model, test in self.fold_models():
            if any(c.name == combo.name for c in test):
                return model
        raise KeyError("{} is not in the roster".format(combo.name))

    @property
    def full_ppep(self) -> PPEP:
        """A PPEP trained on the whole roster (policy experiments)."""
        if self._full_ppep is None:
            self._full_ppep = self._fit_fold(self.roster)
        return self._full_ppep

    # -- fixed-work runs (Figures 8-11) ------------------------------------------------

    def run_fixed_work(
        self,
        workload: Workload,
        n_instances: int,
        vf: VFState,
        budget_instructions: float = None,
        power_gating: bool = True,
        nb_vf: VFState = None,
        max_intervals: int = 20000,
    ) -> FixedWorkRun:
        """Run ``n_instances`` of ``workload`` (one per CU) to completion.

        Power gating is on (the Section V-C default); the budget default
        scales with the experiment scale so quick runs stay quick.
        """
        if budget_instructions is None:
            budget_instructions = 4.0e9 if self.scale == "full" else 1.5e9
        bounded = workload.with_budget(budget_instructions)
        platform = Platform(
            self.spec,
            seed=stable_seed(self.base_seed, "fixedwork", workload.name,
                             n_instances, vf.index,
                             nb_vf.name if nb_vf else "stock"),
            power_gating=power_gating,
            nb_vf=nb_vf,
            initial_temperature=self.spec.ambient_temperature + 15.0,
        )
        platform.set_all_vf(vf)
        platform.set_assignment(
            CoreAssignment.one_per_cu(self.spec, [bounded] * n_instances)
        )
        samples = platform.run_until_finished(max_intervals)
        time_s = max(platform.completion_times().values())
        energy = sum(
            s.measured_energy
            for s in samples
            if s.time <= time_s + s.interval_s
        )
        return FixedWorkRun(
            vf_index=vf.index,
            n_instances=n_instances,
            time_s=time_s,
            chip_energy=energy,
            samples=samples,
        )


_CONTEXTS: Dict[Tuple[str, str, int, Optional[str]], ExperimentContext] = {}


def get_context(
    scale: str = "full",
    spec: ChipSpec = FX8320_SPEC,
    base_seed: int = 20141213,
    cache_dir: Optional[str] = None,
) -> ExperimentContext:
    """Process-wide memoised context (shared across benchmarks).

    Contexts are memoised per (scale, spec content, seed, cache
    directory): the spec enters as its
    :func:`~repro.fleet.registry.spec_fingerprint`, so two specs that
    share a name but differ in any field never share a context.
    ``cache_dir`` (or the ``REPRO_TRACE_CACHE`` environment variable)
    makes the context's trace library disk-backed, so a warmed cache
    survives process restarts.
    """
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_TRACE_CACHE") or None
    key = (scale, spec_fingerprint(spec), base_seed, cache_dir)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = ExperimentContext(
            spec=spec,
            scale=scale,
            base_seed=base_seed,
            cache_dir=cache_dir,
        )
    return _CONTEXTS[key]
