"""The PPEP manager and its training driver (Figure 5).

:class:`PPEP` is the "all-in-one" box of Figure 5.  Each 200 ms interval
it ingests the observable state of the platform -- per-core performance
counters, per-CU VF states, and the temperature diode -- and emits a
:class:`~repro.core.energy.VFPrediction` for every VF state:

1. the performance predictor estimates each core's CPI at all VF states
   (Eq. 1);
2. the hardware event predictor converts those CPIs plus the current
   counters into event *rates* at all VF states (Observations 1-2);
3. the dynamic power model (Eq. 3) prices those rates;
4. the idle power model (Eq. 2, or the PG-aware decomposition) adds the
   activity-independent remainder;
5. the energy predictor derives energy/EDP figures of merit;
6. a DVFS policy (see :mod:`repro.dvfs`) turns the predictions into a
   decision.

:class:`PPEPTrainer` reproduces the paper's one-time offline training:
cool-down traces per VF state for the idle model, VF5 benchmark traces
for the regression weights, lower-VF traces for the alpha exponent, and
the ``bench_A`` busy-CU sweep for the power-gating decomposition.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.trace import Trace, TraceLibrary
from repro.core.batch import BatchObservation
from repro.core.dynamic_power import (
    DynamicPowerModel,
    dynamic_feature_vector,
    fit_dynamic_power_model,
)
from repro.core.energy import VFPrediction
from repro.core.event_predictor import CoreEventState, EventPredictor
from repro.core.idle_power import IdlePowerModel, fit_idle_power_model
from repro.core.power_gating import (
    IdlePowerDecomposition,
    PGAwareIdleModel,
    decompose_from_sweep,
)
from repro.hardware.events import EventVector
from repro.hardware.microarch import ChipSpec
from repro.hardware.platform import (
    CoreAssignment,
    IntervalSample,
    INTERVAL_S,
    Platform,
)
from repro.hardware.vfstates import VFState
from repro.obs.metrics import get_registry
from repro.workloads.microbench import bench_a
from repro.workloads.suites import BenchmarkCombination
from repro.workloads.synthetic import make_cpu_bound

__all__ = [
    "MixedPricer",
    "PPEP",
    "PPEPSnapshot",
    "PPEPTrainer",
    "stable_seed",
]

def stable_seed(*parts: object) -> int:
    """A reproducible 32-bit seed from arbitrary key parts."""
    text = "|".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "little")


@dataclass
class PPEPSnapshot:
    """PPEP's view of one interval: inputs plus all-VF predictions."""

    time: float
    temperature: float
    measured_power: float
    states: List[CoreEventState]
    #: Predictions for chip-uniform VF targets, keyed by VF index.
    predictions: Dict[int, VFPrediction]
    #: PPEP's estimate of chip power at the *current* operating point.
    current_estimate: float

    def prediction(self, vf: VFState) -> VFPrediction:
        return self.predictions[vf.index]

    def all_predictions(self) -> List[VFPrediction]:
        """Predictions ordered fastest VF first."""
        return [self.predictions[i] for i in sorted(self.predictions, reverse=True)]


class PPEP:
    """The trained framework: models plus the prediction pipeline."""

    def __init__(
        self,
        spec: ChipSpec,
        idle_model: IdlePowerModel,
        dynamic_model: DynamicPowerModel,
        pg_model: Optional[PGAwareIdleModel] = None,
    ) -> None:
        self.spec = spec
        self.idle_model = idle_model
        self.dynamic_model = dynamic_model
        self.pg_model = pg_model
        self.event_predictor = EventPredictor()
        self._batched = None
        self._vf_columns = None

    def batched_predictor(self):
        """The vectorized all-nodes/all-VF pricing path (cached).

        Returns a :class:`repro.core.batch.BatchedVFPredictor` bound to
        this model -- the fleet hot path that prices every VF state of a
        whole batch of same-spec nodes in a few NumPy operations.
        """
        if self._batched is None:
            from repro.core.batch import BatchedVFPredictor

            self._batched = BatchedVFPredictor(self)
        return self._batched

    # -- state extraction ----------------------------------------------------

    def core_states(self, sample: IntervalSample) -> List[CoreEventState]:
        """Per-core normalised observations from one interval sample."""
        states = []
        for core_id, events in enumerate(sample.core_events):
            vf = sample.cu_vfs[self.spec.cu_of_core(core_id)]
            states.append(CoreEventState(events, vf, sample.interval_s))
        return states

    # -- the Figure 5 pipeline --------------------------------------------------

    def analyze(self, sample: IntervalSample) -> PPEPSnapshot:
        """Run the full pipeline on one interval sample."""
        registry = get_registry()
        registry.counter("ppep.analyze.intervals").inc()
        with registry.timer("ppep.analyze.seconds"):
            states = self.core_states(sample)
            predictions = {
                vf.index: self.predict_at(
                    states, sample.temperature, vf, sample.power_gating
                )
                for vf in self.spec.vf_table
            }
            current = self.estimate_current(sample, states)
        return PPEPSnapshot(
            time=sample.time,
            temperature=sample.temperature,
            measured_power=sample.measured_power,
            states=states,
            predictions=predictions,
            current_estimate=current,
        )

    def predict_at(
        self,
        states: Sequence[CoreEventState],
        temperature: float,
        target: VFState,
        power_gating: bool,
    ) -> VFPrediction:
        """Project the chip onto a uniform ``target`` VF state."""
        chip_rates = EventVector.zeros()
        core_cpis = []
        inst_per_s = 0.0
        for state in states:
            predicted = self.event_predictor.predict(state, target)
            chip_rates += predicted.rates
            core_cpis.append(predicted.cpi)
            inst_per_s += predicted.instructions_per_second

        features = dynamic_feature_vector(chip_rates)
        dynamic = self.dynamic_model.estimate(features, target.voltage)
        idle = self._idle_power(states, temperature, target, power_gating)
        nb_power = self.dynamic_model.nb_term(features) + self._nb_idle(target)
        return VFPrediction(
            vf=target,
            core_cpis=tuple(core_cpis),
            instructions_per_second=inst_per_s,
            dynamic_power=dynamic,
            idle_power=idle,
            nb_power=nb_power,
            interval_s=states[0].interval_s if states else INTERVAL_S,
        )

    def estimate_current(
        self,
        sample: IntervalSample,
        states: Optional[Sequence[CoreEventState]] = None,
    ) -> float:
        """Chip power estimate at the sample's own operating point.

        Handles per-CU VF mixes (the power-capping configuration) by
        voltage-scaling each core's contribution individually.
        """
        if states is None:
            states = self.core_states(sample)
        dynamic = 0.0
        for state in states:
            rates = state.per_inst * (
                state.instructions / state.interval_s if state.active else 0.0
            )
            features = dynamic_feature_vector(rates)
            dynamic += self.dynamic_model.core_term(features, state.vf.voltage)
            dynamic += self.dynamic_model.nb_term(features)
        idle = self._idle_power_mixed(
            states, sample.temperature, sample.cu_vfs, sample.power_gating
        )
        return dynamic + idle

    def predict_mixed(
        self,
        states: Sequence[CoreEventState],
        temperature: float,
        cu_targets: Sequence[VFState],
        power_gating: bool,
    ) -> Tuple[float, float]:
        """(chip power, chip instruction rate) for a per-CU VF mix.

        The search space of the one-step power capper (Section V-B).
        The cappers price through :class:`MixedPricer`; this per-core
        loop is the reference it is pinned against.
        """
        if len(cu_targets) != self.spec.num_cus:
            raise ValueError("need one target VF per CU")
        dynamic = 0.0
        inst_per_s = 0.0
        for core_id, state in enumerate(states):
            target = cu_targets[self.spec.cu_of_core(core_id)]
            predicted = self.event_predictor.predict(state, target)
            features = dynamic_feature_vector(predicted.rates)
            dynamic += self.dynamic_model.core_term(features, target.voltage)
            dynamic += self.dynamic_model.nb_term(features)
            inst_per_s += predicted.instructions_per_second
        idle = self._idle_power_mixed(states, temperature, cu_targets, power_gating)
        return dynamic + idle, inst_per_s

    def core_terms(
        self, batch: BatchObservation
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(core term, NB term, instructions/s) of every core at every VF.

        The per-core pieces :meth:`predict_mixed` sums, for a whole
        :class:`~repro.core.batch.BatchObservation` at once: three
        ``(nodes, cores, states)`` arrays whose state axis runs up the VF
        table (column ``t`` is VF index ``t + 1``).  Each element is the
        scalar pipeline's value to the bit: Eq. 1, the duty-scaled rate
        and the Observation 1/2 products in ``EventPredictor.predict``'s
        operation order, then ``np.vecdot`` against the weight slices --
        the same dot routine, summing in the same order, as the per-row
        ``np.dot`` of ``DynamicPowerModel.core_term``/``nb_term`` (a
        matrix product or ``einsum`` rounds differently) -- times the
        per-VF ``(V/V5)**alpha`` computed on Python floats.  Idle cores
        contribute zeros; an active core with zero predicted CPI raises
        ``ZeroDivisionError`` as the scalar division does.
        """
        columns = self._columns()
        freqs, scales = columns["freq"], columns["scale"]
        model = self.dynamic_model
        active = batch.active[..., None]
        ccpi = batch.cpi - batch.mcpi
        # max(x, 0.0) keeps x unless 0.0 > x (NaN included).
        ccpi = np.where(0.0 > ccpi, 0.0, ccpi)
        # Idle cores divide by a zero CPI here; their terms are masked
        # below, and Python floats overflow to inf silently too.
        with np.errstate(all="ignore"):
            cpi = ccpi[..., None] + batch.mcpi[..., None] * (
                freqs / batch.freq[..., None]
            )
            rate = batch.duty[..., None] * freqs * 1e9 / cpi
            if (active & (cpi == 0.0)).any():
                raise ZeroDivisionError("float division by zero")
            rates = np.empty(rate.shape + (9,))
            np.multiply(
                batch.per_inst8[:, :, None, :], rate[..., None], out=rates[..., :8]
            )
            stalls = cpi - batch.obs2_gap[..., None]
            np.multiply(np.where(0.0 > stalls, 0.0, stalls), rate, out=rates[..., 8])
            core = np.vecdot(rates[..., :7], model.w_core) * scales
            nb = np.vecdot(rates[..., 7:], model.w_nb)
        return (
            np.where(active, core, 0.0),
            np.where(active, nb, 0.0),
            np.where(active, rate, 0.0),
        )

    def _columns(self) -> Dict[str, np.ndarray]:
        """Per-VF model constants up the VF table, built once: ``freq``,
        ``scale`` (``(V/V5)**alpha``), ``volt``, the Eq. 2 coefficients
        ``w_idle1``/``w_idle0`` at each voltage and, with a PG model,
        the idle decomposition's ``p_cu``, ``p_nb`` and ``p_base``.
        Without one, ``mean_w_idle1``/``mean_w_idle0`` hold the Eq. 2
        coefficients at every mean voltage a per-CU assignment can give
        ``_idle_power_mixed`` (not a VF axis; :meth:`MixedPricer.lower_bound`
        reads them).  Every value is the scalar model's own float."""
        if self._vf_columns is None:
            table = self.spec.vf_table.ascending()
            volts = [vf.voltage for vf in table]
            idle = self.idle_model
            columns = {
                "freq": np.array([vf.frequency_ghz for vf in table]),
                "scale": np.array(
                    [self.dynamic_model.voltage_scale(v) for v in volts]
                ),
                "volt": np.array(volts),
                "w_idle1": np.array([idle.w_idle1(v) for v in volts]),
                "w_idle0": np.array([idle.w_idle0(v) for v in volts]),
            }
            if self.pg_model is not None:
                decomps = [self.pg_model.decomposition(vf) for vf in table]
                for part in ("p_cu", "p_nb", "p_base"):
                    columns[part] = np.array([getattr(d, part) for d in decomps])
            else:
                # Every float sum() reaches adding one voltage per CU,
                # left to right from 0 as _idle_power_mixed does: so
                # every mean an assignment can give, exactly.
                sums = {0}
                for _ in range(self.spec.num_cus):
                    sums = {s + v for s in sums for v in volts}
                means = sorted(s / self.spec.num_cus for s in sums)
                columns["mean_w_idle1"] = np.array([idle.w_idle1(v) for v in means])
                columns["mean_w_idle0"] = np.array([idle.w_idle0(v) for v in means])
            self._vf_columns = columns
        return self._vf_columns

    # -- idle power plumbing -------------------------------------------------------

    def _busy_cus(self, states: Sequence[CoreEventState]) -> List[bool]:
        busy = [False] * self.spec.num_cus
        for core_id, state in enumerate(states):
            if state.active:
                busy[self.spec.cu_of_core(core_id)] = True
        return busy

    def _idle_power(
        self,
        states: Sequence[CoreEventState],
        temperature: float,
        target: VFState,
        power_gating: bool,
    ) -> float:
        if power_gating and self.pg_model is not None:
            busy_cus = sum(self._busy_cus(states))
            return self.pg_model.chip_idle(target, busy_cus, True)
        return self.idle_model.predict(target.voltage, temperature)

    def _idle_power_mixed(
        self,
        states: Sequence[CoreEventState],
        temperature: float,
        cu_vfs: Sequence[VFState],
        power_gating: bool,
    ) -> float:
        distinct = {vf.index for vf in cu_vfs}
        if len(distinct) == 1:
            return self._idle_power(states, temperature, cu_vfs[0], power_gating)
        if self.pg_model is None:
            # Without the decomposition, fall back to Eq. 2 at the mean
            # voltage -- adequate because mixed-VF configurations only
            # arise in the PG-aware power-capping study.
            mean_v = sum(vf.voltage for vf in cu_vfs) / len(cu_vfs)
            return self.idle_model.predict(mean_v, temperature)
        busy = self._busy_cus(states)
        total = 0.0
        d0 = self.pg_model.decomposition(cu_vfs[0])
        total += d0.p_base
        if any(busy) or not power_gating:
            total += d0.p_nb
        for cu, vf in enumerate(cu_vfs):
            if busy[cu] or not power_gating:
                total += self.pg_model.decomposition(vf).p_cu
        return total

    def _nb_idle(self, vf: VFState) -> float:
        """NB idle share for the core/NB power split (Figure 10)."""
        if self.pg_model is not None:
            return self.pg_model.nb_idle(vf)
        return 0.0


class MixedPricer:
    """The mixed-VF price table of one model group's observation.

    Built from a :class:`~repro.core.batch.BatchObservation` of nodes
    that share ``ppep``, it holds what :meth:`PPEP.predict_mixed` prices
    a per-CU VF assignment from: every (node, core, VF) term of
    :meth:`PPEP.core_terms` (``core``, ``nb``, ``rate``), each node's
    idle power at every uniform VF (``uniform_idle``,
    ``PPEP._idle_power`` as columns) and, with a PG model, which nodes
    keep the NB and which CUs awake (``wake_nb``, ``wake_cu``).  The VF
    axis runs up the VF table: column ``t`` is VF index ``t + 1``.

    :meth:`price` prices one node on Python floats (the per-node walk
    of :meth:`~repro.dvfs.power_capping.PPEPPowerCapper.decide`) and
    :meth:`idle` prices many (node, assignment) pairs as columns (the
    column walk of :func:`~repro.dvfs.power_capping.decide_nodes`).
    Both equal ``predict_mixed`` on the node's core states to the bit:
    the same floats, added in the same order.  :meth:`lower_bound`
    bounds every price of a row from below, without pricing any.

    A node whose uniform idle comes from Eq. 2 (no PG model, or gating
    off) with a diode temperature the idle model rejects raises its
    error here, before any capper uses the table.
    """

    def __init__(self, ppep: PPEP, batch: BatchObservation) -> None:
        spec = ppep.spec
        n = batch.num_nodes
        columns = ppep._columns()
        temperature = batch.temperature
        # Where the PG decomposition prices uniform idle; Eq. 2 elsewhere.
        gated = batch.power_gating & (ppep.pg_model is not None)
        cold = ~gated & (temperature <= 0)
        if cold.any():
            # The fastest uniform price reaches Eq. 2 first; let it raise.
            ppep.idle_model.predict(
                spec.vf_table.fastest.voltage, float(temperature[np.argmax(cold)])
            )
        self.core, self.nb, self.rate = ppep.core_terms(batch)
        idle = columns["w_idle1"] * temperature[:, None] + columns["w_idle0"]
        self.wake_nb = self.wake_cu = self._parts = None
        if ppep.pg_model is not None:
            self._parts = tuple(columns[p].tolist() for p in ("p_cu", "p_nb", "p_base"))
            busy = batch.busy_cus[:, None]
            p_base = columns["p_base"]
            chip_idle = np.where(
                busy == 0, p_base, busy * columns["p_cu"] + columns["p_nb"] + p_base
            )
            idle = np.where(gated[:, None], chip_idle, idle)
            self.wake_nb = (batch.busy_cus > 0) | ~gated
            self.wake_cu = (
                batch.active.reshape(n, spec.num_cus, spec.cores_per_cu).any(axis=2)
                | ~gated[:, None]
            )
        self.uniform_idle = idle
        self.temperature = temperature
        self._ppep = ppep
        self._num_cus = spec.num_cus
        # Python-float rows, made on a node's first price (most nodes of
        # a fleet table are never priced one by one).
        self._rows = [None] * n
        # Every row's lower bound, made in one pass on the first read.
        self._bounds = None

    def price(self, row: int, cu_targets: Sequence[VFState]) -> Tuple[float, float]:
        """(chip power, chip instruction rate) of node ``row`` under
        ``cu_targets``, as ``predict_mixed`` on its core states."""
        if len(cu_targets) != self._num_cus:
            raise ValueError("need one target VF per CU")
        cores, uniform, wake_nb, wake_cu, temperature, mean_idle = (
            self._rows[row] or self._row(row)
        )
        dynamic = 0.0
        inst_per_s = 0.0
        for cu, terms in cores:
            core, nb, rate = terms[cu_targets[cu].index - 1]
            # Two separate additions, exactly as predict_mixed performs
            # them -- (d + a) + b is not (d + (a + b)) in floating point.
            dynamic += core
            dynamic += nb
            inst_per_s += rate
        first = cu_targets[0].index - 1
        if len({vf.index for vf in cu_targets}) == 1:
            return dynamic + uniform[first], inst_per_s
        if wake_cu is None:
            # The same left-to-right sum as _idle_power_mixed's.
            mean_v = sum([vf.voltage for vf in cu_targets]) / len(cu_targets)
            idle = mean_idle.get(mean_v)
            if idle is None:
                idle = mean_idle[mean_v] = self._ppep.idle_model.predict(
                    mean_v, temperature
                )
            return dynamic + idle, inst_per_s
        p_cu, p_nb, p_base = self._parts
        idle = 0.0
        idle += p_base[first]
        if wake_nb:
            idle += p_nb[first]
        for awake, vf in zip(wake_cu, cu_targets):
            if awake:
                idle += p_cu[vf.index - 1]
        return dynamic + idle, inst_per_s

    def lower_bound(self, row: int) -> float:
        """A chip power that no assignment :meth:`price` prices for node
        ``row`` falls below; NaN (which no comparison passes) when a
        term is NaN or infinities cancel.

        A price sums one (core, NB) pair per core, then an idle part.
        The bound sums each core's smallest pair over the VF columns and
        adds the smaller of the row's cheapest uniform idle and the
        mixed idle's minimum: the PG parts at their column minima (CU
        0's column also sets the base and NB parts), or Eq. 2 at every
        achievable mean voltage.  It then drops by 1e-9 of its terms'
        magnitude, which dwarfs the rounding of the few dozen float
        additions behind a price or this bound, whatever the terms' signs.

        The first read bounds every row of the table in one pass (a
        shard run reads most of them); a NaN stays in its own row.
        """
        if self._bounds is None:
            columns = self._ppep._columns()
            with np.errstate(all="ignore"):
                core, nb = self.core, self.nb
                dynamic = (core + nb).min(axis=2).sum(axis=1)
                if self.wake_cu is None:
                    mixed = (
                        columns["mean_w_idle1"] * self.temperature[:, None]
                        + columns["mean_w_idle0"]
                    ).min(axis=1)
                else:
                    p_cu, wake = columns["p_cu"], self.wake_cu
                    first = columns["p_base"] + self.wake_nb[:, None] * columns["p_nb"]
                    mixed = (first + wake[:, :1] * p_cu).min(axis=1)
                    mixed = mixed + wake[:, 1:].sum(axis=1) * p_cu.min()
                idle = np.minimum(self.uniform_idle.min(axis=1), mixed)
                magnitude = (np.abs(core) + np.abs(nb)).max(axis=2).sum(axis=1)
                magnitude = magnitude + np.abs(idle)
                self._bounds = (dynamic + idle - 1e-9 * magnitude).tolist()
        return self._bounds[row]

    def _row(self, row: int) -> tuple:
        """Node ``row``'s terms, uniform idle, wake masks and temperature
        as Python values -- per core, in core order, (its CU, (core
        term, NB term, instructions/s) by VF column) -- and its memo of
        Eq. 2 at the mean voltage (a greedy walk over the PG-less chip
        revisits few distinct means)."""
        cu_of_core = self._ppep.spec.cu_of_core
        cores = [
            (cu_of_core(core_id), list(zip(*terms)))
            for core_id, terms in enumerate(
                zip(
                    self.core[row].tolist(),
                    self.nb[row].tolist(),
                    self.rate[row].tolist(),
                )
            )
        ]
        entry = self._rows[row] = (
            cores,
            self.uniform_idle[row].tolist(),
            None if self.wake_nb is None else bool(self.wake_nb[row]),
            None if self.wake_cu is None else self.wake_cu[row].tolist(),
            self.temperature[row].item(),
            {},
        )
        return entry

    def idle(self, rows: np.ndarray, trials: np.ndarray) -> np.ndarray:
        """Idle power of node ``rows[k]`` under the VF columns
        ``trials[k]``, for many pairs at once: ``_idle_power_mixed``
        case by case on the same floats (``np.polyval`` runs the Horner
        loop ``Polynomial.__call__`` runs, on columns)."""
        first = trials[:, 0]
        idle = self.uniform_idle[rows, first]
        mixed = (trials != first[:, None]).any(axis=1)
        if not mixed.any():
            return idle
        rows, trials = rows[mixed], trials[mixed]
        ppep = self._ppep
        columns = ppep._columns()
        if self.wake_cu is None:
            # sum() starts from 0, then adds voltages left to right.
            volts = columns["volt"]
            mean = volts[trials[:, 0]]
            for u in range(1, trials.shape[1]):
                mean = mean + volts[trials[:, u]]
            mean = mean / trials.shape[1]
            w1 = np.polyval(ppep.idle_model.w_idle1.coefficients, mean)
            w0 = np.polyval(ppep.idle_model.w_idle0.coefficients, mean)
            idle[mixed] = w1 * self.temperature[rows] + w0
            return idle
        p_cu = columns["p_cu"]
        total = 0.0 + columns["p_base"][trials[:, 0]]
        total = np.where(
            self.wake_nb[rows], total + columns["p_nb"][trials[:, 0]], total
        )
        for u in range(trials.shape[1]):
            total = np.where(self.wake_cu[rows, u], total + p_cu[trials[:, u]], total)
        idle[mixed] = total
        return idle


class PPEPTrainer:
    """Reproduces the paper's one-time offline training procedure."""

    #: Intervals of heavy load used to settle the chip hot before a
    #: cool-down (the platform is started near the loaded steady-state
    #: temperature, mirroring the paper's "run heavy workloads to heat
    #: up the processor until it reaches a steady-state temperature").
    HEAT_INTERVALS = 15
    #: Junction temperature the heat phase starts from, kelvin.
    HEAT_START_TEMPERATURE = 342.0
    #: Intervals of idle cool-down recorded per VF state.  The cool-down
    #: must sweep a wide temperature range (tens of kelvin) or the
    #: per-voltage linear temperature fits are noise-dominated.
    COOL_INTERVALS = 300
    #: Intervals recorded per benchmark trace.
    BENCH_INTERVALS = 40
    #: Leading intervals dropped from each benchmark trace (warm-up).
    WARMUP = 2
    #: Intervals averaged per point of the Figure 4 busy-CU sweep.
    SWEEP_INTERVALS = 15

    def __init__(
        self,
        spec: ChipSpec,
        base_seed: int = 20141213,
        bench_intervals: int = None,
        cool_intervals: int = None,
    ) -> None:
        # Any integer works; everything derived from the seed is stable.
        self.spec = spec
        self.base_seed = base_seed
        if bench_intervals is not None:
            if bench_intervals < 2:
                raise ValueError("bench_intervals must be >= 2")
            self.BENCH_INTERVALS = bench_intervals
        if cool_intervals is not None:
            if cool_intervals < 10:
                raise ValueError("cool_intervals must be >= 10")
            self.COOL_INTERVALS = cool_intervals

    # -- data collection -----------------------------------------------------------

    def _trace_key(self, kind: str, *parts) -> tuple:
        """A cache key that pins everything a simulation depends on.

        The spec enters as a content fingerprint (not its name), and the
        seed and interval counts are explicit -- so a disk cache can
        never serve a trace produced under different physics.
        """
        from repro.fleet.registry import spec_fingerprint

        return (
            "ppep-trainer",
            kind,
            spec_fingerprint(self.spec),
            self.base_seed,
        ) + parts

    def collect_cooling(
        self, vf: VFState, library: Optional[TraceLibrary] = None
    ) -> Tuple[List[float], List[float]]:
        """One Figure 1 heat-then-cool experiment at ``vf``."""
        key = self._trace_key(
            "cooling", vf.index, self.HEAT_INTERVALS, self.COOL_INTERVALS
        )

        def produce() -> Trace:
            platform = Platform(
                self.spec,
                seed=stable_seed(self.base_seed, "cooling", vf.index),
                power_gating=False,
                initial_temperature=self.HEAT_START_TEMPERATURE,
            )
            platform.set_all_vf(vf)
            heaters = [
                make_cpu_bound("heater-{}".format(i))
                for i in range(self.spec.num_cores)
            ]
            platform.set_assignment(CoreAssignment.packed(heaters))
            platform.run(self.HEAT_INTERVALS)
            platform.set_assignment(CoreAssignment.idle())
            samples = platform.run(self.COOL_INTERVALS)
            return Trace(samples, label="cooling-{}".format(vf.name))

        if library is not None:
            trace = library.get_or_run(key, produce)
        else:
            trace = produce()
        temperatures = [s.temperature for s in trace.samples]
        powers = [s.measured_power for s in trace.samples]
        return temperatures, powers

    def collect_all_cooling(
        self, library: Optional[TraceLibrary] = None
    ) -> Dict[float, Tuple[List[float], List[float]]]:
        return {
            vf.voltage: self.collect_cooling(vf, library)
            for vf in self.spec.vf_table
        }

    def collect_trace(
        self,
        combo: BenchmarkCombination,
        vf: VFState,
        library: Optional[TraceLibrary] = None,
        power_gating: bool = False,
    ) -> Trace:
        """A benchmark trace at one VF state (cached via ``library``)."""
        key = self._trace_key(
            "bench",
            combo.name,
            vf.index,
            power_gating,
            self.BENCH_INTERVALS,
            self.WARMUP,
        )

        def produce() -> Trace:
            platform = Platform(
                self.spec,
                seed=stable_seed(self.base_seed, combo.name, vf.index),
                power_gating=power_gating,
                initial_temperature=self.spec.ambient_temperature + 15.0,
            )
            platform.set_all_vf(vf)
            platform.set_assignment(combo.assignment(self.spec))
            samples = platform.run(self.BENCH_INTERVALS + self.WARMUP)
            return Trace(samples, label=combo.name).skip_warmup(self.WARMUP)

        if library is not None:
            return library.get_or_run(key, produce)
        return produce()

    def collect_pg_sweep(
        self, vf: VFState, library: Optional[TraceLibrary] = None
    ) -> Tuple[List[float], List[float]]:
        """The Figure 4 busy-CU sweep at ``vf`` (PG off, PG on)."""
        results: Dict[bool, List[float]] = {False: [], True: []}
        for pg in (False, True):
            for busy_cus in range(self.spec.num_cus + 1):
                key = self._trace_key(
                    "pg-sweep", vf.index, busy_cus, pg, self.SWEEP_INTERVALS
                )

                def produce(busy_cus=busy_cus, pg=pg) -> Trace:
                    platform = Platform(
                        self.spec,
                        seed=stable_seed(
                            self.base_seed, "pg", vf.index, busy_cus, pg
                        ),
                        power_gating=pg,
                        initial_temperature=self.spec.ambient_temperature + 12.0,
                    )
                    platform.set_all_vf(vf)
                    instances = [bench_a() for _ in range(busy_cus)]
                    platform.set_assignment(
                        CoreAssignment.one_per_cu(self.spec, instances)
                    )
                    samples = platform.run(self.SWEEP_INTERVALS)
                    return Trace(
                        samples,
                        label="pg-{}-{}-{}".format(vf.name, busy_cus, pg),
                    )

                if library is not None:
                    trace = library.get_or_run(key, produce)
                else:
                    trace = produce()
                tail = trace.samples[self.SWEEP_INTERVALS // 3 :]
                results[pg].append(
                    sum(s.measured_power for s in tail) / len(tail)
                )
        return results[False], results[True]

    # -- model fitting ----------------------------------------------------------------

    @staticmethod
    def features_and_power(trace: Trace) -> Tuple[List[np.ndarray], List[float], List[float]]:
        """(feature rows, measured powers, temperatures) of a trace."""
        rows: List[np.ndarray] = []
        powers: List[float] = []
        temps: List[float] = []
        for sample, chip_events in zip(trace, trace.chip_events(measured=True)):
            rates = chip_events.rates(sample.interval_s)
            rows.append(dynamic_feature_vector(rates))
            powers.append(sample.measured_power)
            temps.append(sample.temperature)
        return rows, powers, temps

    def collect_alpha_calibration(
        self,
        vf: VFState,
        instances: int = None,
        library: Optional[TraceLibrary] = None,
    ) -> Trace:
        """A steady ``bench_A`` run at ``vf`` for the alpha derivation.

        The paper derives the voltage-scaling exponent "from actual
        measured power at different voltages" as a one-time,
        per-process-technology constant.  An NB-quiet, steady
        microbenchmark isolates the core-voltage scaling from NB power
        and workload variation, which a suite-wide regression cannot.
        """
        if instances is None:
            instances = self.spec.num_cus
        key = self._trace_key(
            "alpha", vf.index, instances, self.SWEEP_INTERVALS, self.WARMUP
        )

        def produce() -> Trace:
            platform = Platform(
                self.spec,
                seed=stable_seed(self.base_seed, "alpha", vf.index),
                power_gating=False,
                initial_temperature=self.spec.ambient_temperature + 12.0,
            )
            platform.set_all_vf(vf)
            platform.set_assignment(
                CoreAssignment.one_per_cu(
                    self.spec, [bench_a() for _ in range(instances)]
                )
            )
            samples = platform.run(self.SWEEP_INTERVALS + self.WARMUP)
            return Trace(
                samples, label="alpha-{}".format(vf.name)
            ).skip_warmup(self.WARMUP)

        if library is not None:
            return library.get_or_run(key, produce)
        return produce()

    def estimate_alpha_from_microbench(
        self,
        idle_model: IdlePowerModel,
        library: Optional[TraceLibrary] = None,
    ) -> float:
        """Alpha from measured bench_A power ratios across VF states.

        For a steady, NB-quiet workload whose event rates all scale with
        frequency, dynamic power obeys

            P_dyn(V, f) = P_dyn(V5, f5) * (f/f5) * (V/V5)^alpha

        so each lower VF state yields one model-free estimate

            alpha = log( P_dyn(V)/P_dyn(V5) * f5/f ) / log( V/V5 )

        and the median over states is the constant.  Deriving alpha from
        measured ratios (rather than through the fitted weights) keeps
        workload-specific regression bias out of the exponent.
        """
        vf5 = self.spec.vf_table.fastest
        dynamic_by_vf: Dict[int, float] = {}
        for vf in self.spec.vf_table:
            trace = self.collect_alpha_calibration(vf, library=library)
            _feats, powers, temps = self.features_and_power(trace)
            dyn = [
                p - idle_model.predict(vf.voltage, t) for p, t in zip(powers, temps)
            ]
            dynamic_by_vf[vf.index] = sum(dyn) / len(dyn)
        base = dynamic_by_vf[vf5.index]
        if base <= 0:
            raise ValueError("no measurable dynamic power at the training state")
        estimates = []
        for vf in self.spec.vf_table:
            if vf.index == vf5.index:
                continue
            ratio_p = dynamic_by_vf[vf.index] / base
            ratio_f = vf5.frequency_ghz / vf.frequency_ghz
            ratio_v = vf.voltage / vf5.voltage
            if ratio_p <= 0:
                continue
            estimates.append(float(np.log(ratio_p * ratio_f) / np.log(ratio_v)))
        if not estimates:
            raise ValueError("no usable VF states for the alpha derivation")
        return float(np.median(estimates))

    def fit_dynamic_model(
        self,
        idle_model: IdlePowerModel,
        vf5_traces: Mapping[str, Trace],
    ) -> DynamicPowerModel:
        """Fit the Eq. 3 weights at VF5 (alpha stays at the model's
        default; see :meth:`estimate_alpha_from_microbench`)."""
        v5 = self.spec.vf_table.fastest.voltage
        rows: List[np.ndarray] = []
        targets: List[float] = []
        for trace in vf5_traces.values():
            feats, powers, temps = self.features_and_power(trace)
            for f, p, t in zip(feats, powers, temps):
                rows.append(f)
                targets.append(p - idle_model.predict(v5, t))
        return fit_dynamic_power_model(rows, targets, train_voltage=v5)

    def fit_pg_model(
        self, sweeps: Mapping[int, Tuple[Sequence[float], Sequence[float]]]
    ) -> PGAwareIdleModel:
        decompositions: Dict[int, IdlePowerDecomposition] = {}
        for vf_index, (pg_off, pg_on) in sweeps.items():
            vf = self.spec.vf_table.by_index(vf_index)
            decompositions[vf_index] = decompose_from_sweep(
                vf, list(pg_off), list(pg_on), self.spec.num_cus
            )
        return PGAwareIdleModel(
            decompositions, self.spec.num_cus, self.spec.cores_per_cu
        )

    # -- one-call training ---------------------------------------------------------------

    def train(
        self,
        combos: Sequence[BenchmarkCombination],
        library: Optional[TraceLibrary] = None,
        with_pg_model: bool = True,
        events=None,
    ) -> PPEP:
        """Full training run: idle model, Eq. 3 weights, alpha, PG model.

        ``combos`` is the *training* set (the cross-validation harness
        passes fold subsets); alpha comes from the bench_A calibration
        runs (see :meth:`estimate_alpha_from_microbench`).  ``events``
        is an optional :class:`repro.obs.events.EventLog`; a
        ``model_retrain`` event is emitted when training completes.
        """
        started = time.perf_counter()
        registry = get_registry()
        registry.counter("ppep.train.runs").inc()
        idle_model = fit_idle_power_model(self.collect_all_cooling(library))

        vf5 = self.spec.vf_table.fastest
        vf5_traces = {
            combo.name: self.collect_trace(combo, vf5, library) for combo in combos
        }
        dynamic_model = self.fit_dynamic_model(idle_model, vf5_traces)
        alpha = self.estimate_alpha_from_microbench(idle_model, library)
        dynamic_model = dynamic_model.with_alpha(alpha)

        pg_model = None
        if with_pg_model and self.spec.supports_power_gating:
            sweeps = {
                vf.index: self.collect_pg_sweep(vf, library)
                for vf in self.spec.vf_table
            }
            pg_model = self.fit_pg_model(sweeps)

        seconds = time.perf_counter() - started
        registry.histogram("ppep.train.seconds").observe(seconds)
        if events is not None:
            events.emit("model_retrain", spec=self.spec.name, seconds=seconds)
        return PPEP(self.spec, idle_model, dynamic_model, pg_model)

