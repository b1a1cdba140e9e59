"""The stepping platform simulator.

:class:`Platform` is the simulated equivalent of the paper's measurement
rig: an FX-8320-class chip plus the current sensor, the thermal diode,
and the per-core counter multiplexers.  It advances simulated time in the
paper's units -- 200 ms DVFS decision intervals, each made of ten 20 ms
sub-slices (one power sample per sub-slice, Section II) -- and emits one
:class:`IntervalSample` per interval containing exactly what PPEP could
observe on the real machine *plus* ground-truth fields used only for
validation.

A DVFS controller interacts with the platform the way a userspace daemon
interacts with the real chip: read the latest interval sample, then set
per-CU VF states that take effect from the next interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.hardware.core_model import CoreRuntime
from repro.hardware.counters import CounterUnit
from repro.hardware.events import EventVector
from repro.hardware.microarch import ChipSpec
from repro.hardware.northbridge import NorthBridge
from repro.hardware.power import CoreActivity, GroundTruthPower, PowerBreakdown
from repro.hardware.sensor import PowerSensor
from repro.hardware.thermal import ThermalModel
from repro.hardware.vfstates import VFState
from repro.workloads.phases import Workload

__all__ = ["Platform", "CoreAssignment", "IntervalSample"]

#: Sub-slices per DVFS decision interval (ten 20 ms power samples).
SLICES_PER_INTERVAL = 10
#: Sub-slice length, seconds.
SLICE_S = 0.020
#: DVFS decision interval, seconds.
INTERVAL_S = SLICES_PER_INTERVAL * SLICE_S


class CoreAssignment:
    """Maps core ids to workloads (the simulated ``taskset``).

    Unassigned cores idle.  Multi-threaded runs assign thread-clones of
    one workload to several cores; multi-programmed runs assign distinct
    workloads.
    """

    def __init__(self, mapping: Mapping[int, Workload] = None) -> None:
        self._mapping: Dict[int, Workload] = dict(mapping or {})

    @classmethod
    def idle(cls) -> "CoreAssignment":
        """No work on any core."""
        return cls()

    @classmethod
    def packed(cls, workloads: Sequence[Workload]) -> "CoreAssignment":
        """Workloads on consecutive cores starting at core 0.

        This fills CUs densely (cores 0,1 share CU0), matching how the
        paper pins multi-threaded runs.
        """
        return cls({i: w for i, w in enumerate(workloads)})

    @classmethod
    def one_per_cu(
        cls, spec: ChipSpec, workloads: Sequence[Workload]
    ) -> "CoreAssignment":
        """One workload per compute unit (first core of each CU).

        The layout of the Figure 4 and Figure 7 experiments: instances
        land on different CUs so per-CU gating/DVFS is exercised.
        """
        if len(workloads) > spec.num_cus:
            raise ValueError("more workloads than compute units")
        mapping = {}
        for cu, workload in enumerate(workloads):
            mapping[spec.cores_of_cu(cu)[0]] = workload
        return cls(mapping)

    def items(self):
        return self._mapping.items()

    def get(self, core_id: int) -> Optional[Workload]:
        return self._mapping.get(core_id)

    def __len__(self) -> int:
        return len(self._mapping)

    @property
    def core_ids(self) -> Sequence[int]:
        return tuple(sorted(self._mapping))


@dataclass
class IntervalSample:
    """Everything observable (and the hidden truth) for one interval."""

    index: int
    #: Simulation time at the *end* of the interval, seconds.
    time: float
    #: Per-CU VF states in force during the interval.
    cu_vfs: List[VFState]
    nb_vf: VFState
    power_gating: bool
    #: The ten 20 ms sensor readings.
    power_samples: List[float]
    #: Mean of the sensor readings -- the paper's per-interval power.
    measured_power: float
    #: Quantized thermal-diode reading at interval end.
    temperature: float
    #: Per-core counter estimates (multiplexed + extrapolated).
    core_events: List[EventVector]
    #: Per-core exact event counts (ground truth; validation only).
    true_core_events: List[EventVector]
    #: Per-core instructions retired this interval (ground truth).
    instructions: List[float]
    #: Exact average chip power over the interval (ground truth).
    true_power: float
    #: Average ground-truth power decomposition (validation only).
    breakdown: PowerBreakdown = None
    #: Mean NB bandwidth utilisation over the interval (ground truth).
    nb_utilisation: float = 0.0
    #: Fault tags a :class:`~repro.faults.injection.FaultInjector` applied
    #: to this delivered sample (empty on clean delivery).  Ground truth
    #: about the corruption -- consumers must not read it online.
    faults: tuple = ()
    #: Wall-clock length of the interval, seconds.  Event counts in this
    #: sample accumulated over exactly this long; every per-second rate
    #: must normalise by it rather than the module default.
    interval_s: float = INTERVAL_S

    @property
    def measured_energy(self) -> float:
        """Measured chip energy over the interval, joules."""
        return self.measured_power * self.interval_s

    @property
    def true_energy(self) -> float:
        """Ground-truth chip energy over the interval, joules."""
        return self.true_power * self.interval_s

    def total_instructions(self) -> float:
        return sum(self.instructions)


def _average_breakdowns(parts: Sequence[PowerBreakdown]) -> PowerBreakdown:
    n = len(parts)
    return PowerBreakdown(
        base=sum(p.base for p in parts) / n,
        cu_leakage=sum(p.cu_leakage for p in parts) / n,
        cu_active_idle=sum(p.cu_active_idle for p in parts) / n,
        core_clock=sum(p.core_clock for p in parts) / n,
        core_dynamic=sum(p.core_dynamic for p in parts) / n,
        nb_leakage=sum(p.nb_leakage for p in parts) / n,
        nb_active_idle=sum(p.nb_active_idle for p in parts) / n,
        nb_dynamic=sum(p.nb_dynamic for p in parts) / n,
        housekeeping=sum(p.housekeeping for p in parts) / n,
    )


class Platform:
    """Simulated machine: chip + sensor + diode + counters.

    Parameters
    ----------
    spec:
        The chip to simulate.
    seed:
        Seeds every stochastic element (sensor noise, process noise).
    power_gating:
        BIOS power-gating switch (Section II: the paper first disables
        it, then studies it in Section IV-D).
    nb_vf:
        North-bridge operating point; defaults to the spec's stock state.
    initial_temperature:
        Starting junction temperature (default: ambient).
    vf_transition_penalty_s:
        Execution stall a CU suffers when its VF state changes (voltage
        ramp + PLL relock).  Real transitions cost tens of microseconds;
        the default is zero so the paper's experiments (which neglect
        the cost at 200 ms granularity) are unaffected, but reactive
        policies that thrash VF states can be studied with it enabled.
        Capped at one 20 ms sub-slice.
    fault_injector:
        Optional :class:`~repro.faults.injection.FaultInjector` applied
        to every delivered interval sample.  It corrupts only the
        observable fields after the interval is fully simulated, so no
        fault-free RNG stream is perturbed; with ``None`` (or a disabled
        spec) output is bitwise identical to an injector-free platform.
    slices_per_interval / slice_s:
        The decision-interval geometry.  Defaults reproduce the paper's
        200 ms interval of ten 20 ms power samples; a platform built
        with a different geometry stamps its ``interval_s`` on every
        emitted sample so downstream rate normalisation stays correct.
    """

    def __init__(
        self,
        spec: ChipSpec,
        seed: int = 0,
        power_gating: bool = False,
        nb_vf: VFState = None,
        initial_temperature: float = None,
        vf_transition_penalty_s: float = 0.0,
        fault_injector=None,
        slices_per_interval: int = SLICES_PER_INTERVAL,
        slice_s: float = SLICE_S,
    ) -> None:
        self.spec = spec
        if slices_per_interval < 1:
            raise ValueError("slices_per_interval must be at least 1")
        if slice_s <= 0:
            raise ValueError("slice_s must be positive")
        self.slices_per_interval = int(slices_per_interval)
        self.slice_s = float(slice_s)
        self.interval_s = self.slices_per_interval * self.slice_s
        seq = np.random.SeedSequence(seed)
        child_sensor, child_process = seq.spawn(2)
        self._process_rng = np.random.default_rng(child_process)
        self.sensor = PowerSensor(spec, np.random.default_rng(child_sensor))
        self.thermal = ThermalModel(spec, initial_temperature)
        self.nb = NorthBridge(spec, nb_vf)
        self.power_model = GroundTruthPower(spec)
        self.power_gating = bool(power_gating)
        self.cores: List[CoreRuntime] = [
            CoreRuntime(spec, core_id) for core_id in range(spec.num_cores)
        ]
        self.counters: List[CounterUnit] = [
            CounterUnit() for _ in range(spec.num_cores)
        ]
        self._cu_vfs: List[VFState] = [spec.vf_table.fastest] * spec.num_cus
        if vf_transition_penalty_s < 0:
            raise ValueError("transition penalty cannot be negative")
        self.vf_transition_penalty_s = min(vf_transition_penalty_s, self.slice_s)
        self._pending_stall: List[float] = [0.0] * spec.num_cus
        self._time = 0.0
        self._interval_index = 0
        self.fault_injector = fault_injector
        # Deferred import: engine.py needs this module's constants.
        from repro.hardware.engine import VectorEngine

        self._vector_engine = VectorEngine(self)

    # -- control surface (what a DVFS daemon can do) -------------------------

    def set_assignment(self, assignment: CoreAssignment) -> None:
        """Pin workloads to cores; cores not mentioned become idle."""
        for core in self.cores:
            core.assign(assignment.get(core.core_id))

    def set_cu_vf(self, cu_id: int, vf: VFState) -> None:
        """Set one compute unit's VF state (takes effect immediately)."""
        if vf not in self.spec.vf_table:
            raise ValueError("{} is not a state of {}".format(vf, self.spec.name))
        if not 0 <= cu_id < self.spec.num_cus:
            raise ValueError("cu_id {} out of range".format(cu_id))
        if vf.index != self._cu_vfs[cu_id].index:
            self._pending_stall[cu_id] = self.vf_transition_penalty_s
        self._cu_vfs[cu_id] = vf

    def set_all_vf(self, vf: VFState) -> None:
        """Set every compute unit to ``vf`` (global DVFS)."""
        for cu in range(self.spec.num_cus):
            self.set_cu_vf(cu, vf)

    def set_nb_vf(self, vf: VFState) -> None:
        """Set the north-bridge operating point (Section V-C2 what-if)."""
        self.nb = self.nb.with_vf(vf)

    def migrate(self, src_core: int, dst_core: int) -> None:
        """Move the thread on ``src_core`` to the idle ``dst_core``.

        The simulated equivalent of rescheduling a pinned thread
        (thread-packing policies such as Pack & Cap rely on this to
        empty CUs so power gating can reclaim them).  Execution state
        moves wholesale; the source core becomes idle.  Migration cost
        is neglected, as in the policies that inspired it.
        """
        if not 0 <= src_core < self.spec.num_cores:
            raise ValueError("src_core {} out of range".format(src_core))
        if not 0 <= dst_core < self.spec.num_cores:
            raise ValueError("dst_core {} out of range".format(dst_core))
        if src_core == dst_core:
            return
        if self.cores[dst_core].workload is not None:
            raise ValueError("destination core {} is occupied".format(dst_core))
        if self.cores[src_core].workload is None:
            raise ValueError("source core {} has no thread".format(src_core))
        self.cores[dst_core].import_state(self.cores[src_core].export_state())
        self.cores[src_core].assign(None)

    @property
    def cu_vfs(self) -> List[VFState]:
        return list(self._cu_vfs)

    @property
    def time(self) -> float:
        return self._time

    @property
    def all_finished(self) -> bool:
        """Whether every assigned workload exhausted its budget."""
        return all(not core.busy for core in self.cores)

    def completion_times(self) -> Dict[int, float]:
        """Completion time per finished core."""
        return {
            core.core_id: core.completion_time
            for core in self.cores
            if core.completion_time is not None
        }

    # -- simulation -----------------------------------------------------------

    def step(self) -> IntervalSample:
        """Advance one 200 ms DVFS decision interval."""
        sample = self._vector_engine.step()
        if self.fault_injector is not None:
            sample = self.fault_injector.apply(sample)
        return sample

    def _step_scalar(self) -> IntervalSample:
        """The reference per-slice interval loop, without fault injection.

        Not a production path: :meth:`step` always runs the
        :class:`~repro.hardware.engine.VectorEngine`.  This loop is kept
        as the test oracle the vector kernel is checked against (to
        1e-9, in ``tests/test_engine.py``) and as the baseline of the
        ``benchmarks/bench_engine.py`` speedup gate.
        """
        spec = self.spec
        power_samples: List[float] = []
        breakdowns: List[PowerBreakdown] = []
        true_powers: List[float] = []
        utilisations: List[float] = []
        interval_true_events = [EventVector.zeros() for _ in self.cores]
        interval_instructions = [0.0] * spec.num_cores

        # VF-transition stalls apply to the first sub-slice only.
        stalls = list(self._pending_stall)
        self._pending_stall = [0.0] * spec.num_cus

        for slice_index in range(self.slices_per_interval):
            contention, utilisation = self._resolve_contention()
            utilisations.append(utilisation)

            activities: List[CoreActivity] = []
            for core in self.cores:
                cu = spec.cu_of_core(core.core_id)
                vf = self._cu_vfs[cu]
                stall = stalls[cu] if slice_index == 0 else 0.0
                dt = max(self.slice_s - stall, 1e-9)
                result = core.run_slice(
                    dt, vf, self.nb, contention, utilisation, self._time
                )
                self.counters[core.core_id].observe_slice(result.events)
                interval_true_events[core.core_id] += result.events
                interval_instructions[core.core_id] += result.instructions
                activities.append(result.activity)

            nb_dynamic = self.nb.dynamic_power(
                sum(a.l3_accesses for a in activities),
                sum(a.dram_accesses for a in activities),
            )
            breakdown = self.power_model.chip_power(
                cu_vfs=self._cu_vfs,
                nb_vf=self.nb.vf,
                temperature=self.thermal.temperature,
                activities=activities,
                nb_dynamic=nb_dynamic,
                power_gating=self.power_gating,
            )
            true_power = self._apply_process_noise(breakdown)
            breakdowns.append(breakdown)
            true_powers.append(true_power)
            power_samples.append(self.sensor.sample(true_power))
            self.thermal.step(true_power, self.slice_s)
            self._time += self.slice_s

        sample = IntervalSample(
            index=self._interval_index,
            time=self._time,
            cu_vfs=list(self._cu_vfs),
            nb_vf=self.nb.vf,
            power_gating=self.power_gating,
            power_samples=power_samples,
            measured_power=PowerSensor.interval_average(power_samples),
            temperature=self.thermal.diode_reading(),
            core_events=[
                self.counters[c].read_interval(self.slices_per_interval)
                for c in range(spec.num_cores)
            ],
            true_core_events=interval_true_events,
            instructions=interval_instructions,
            true_power=sum(true_powers) / len(true_powers),
            breakdown=_average_breakdowns(breakdowns),
            nb_utilisation=sum(utilisations) / len(utilisations),
            interval_s=self.interval_s,
        )
        self._interval_index += 1
        return sample

    def run(self, n_intervals: int) -> List[IntervalSample]:
        """Run ``n_intervals`` decision intervals and collect the samples."""
        if n_intervals <= 0:
            raise ValueError("n_intervals must be positive")
        return [self.step() for _ in range(n_intervals)]

    def run_until_finished(self, max_intervals: int = 100000) -> List[IntervalSample]:
        """Run until every assigned workload finishes (or the cap hits)."""
        samples: List[IntervalSample] = []
        for _ in range(max_intervals):
            samples.append(self.step())
            if self.all_finished:
                return samples
        raise RuntimeError(
            "workloads did not finish within {} intervals".format(max_intervals)
        )

    # -- internals ---------------------------------------------------------------

    def _resolve_contention(self) -> "tuple[float, float]":
        """Fixed point of the NB contention loop for one sub-slice."""
        spec = self.spec
        if not any(core.busy for core in self.cores):
            # With zero demand the damped iteration is the identity
            # (multiplier 1.0, utilisation 0.0 every round); skip it.
            return 1.0, 0.0
        contention = 1.0
        utilisation = 0.0
        # Damped iteration: the raw map can oscillate near saturation
        # (higher latency -> lower demand -> lower latency -> ...), so we
        # average toward the fixed point.  Eight damped steps settle well
        # within the multiplier's resolution for any load.
        for _ in range(8):
            demand = 0.0
            for core in self.cores:
                if core.busy:
                    vf = self._cu_vfs[spec.cu_of_core(core.core_id)]
                    demand += core.bandwidth_demand(vf, self.nb, contention)
            point = self.nb.resolve_contention(demand)
            contention = 0.5 * (contention + point.latency_multiplier)
            utilisation = point.utilisation
        return contention, utilisation

    def _apply_process_noise(self, breakdown: PowerBreakdown) -> float:
        """Multiplicative process noise on the activity-driven power."""
        dynamic = (
            breakdown.core_dynamic + breakdown.core_clock + breakdown.nb_dynamic
        )
        factor = float(
            np.exp(self._process_rng.normal(0.0, self.spec.power_process_noise))
        )
        return breakdown.total + dynamic * (factor - 1.0)
