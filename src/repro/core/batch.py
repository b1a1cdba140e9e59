"""Batched cross-VF prediction for many chips at once.

The fleet subsystem (:mod:`repro.fleet`) runs tens to hundreds of
PPEP-managed nodes through synchronized 200 ms intervals.  Pricing every
VF state of every node through the scalar Figure 5 pipeline
(:meth:`repro.core.ppep.PPEP.predict_at`) costs a Python loop per core
per VF state -- fine for one chip, ruinous for a cluster.

This module restates the pipeline as array programs over a whole batch
of same-spec nodes:

- :class:`BatchObservation` stacks per-node, per-core interval
  observations into ``(nodes, cores)`` ndarrays;
- :class:`BatchedVFPredictor` prices **all VF states of all nodes** in a
  handful of NumPy operations (Eq. 1 per core, Observations 1-2 for the
  event rates, Eq. 3 for dynamic power, Eq. 2 or the PG decomposition
  for idle power).

The math is identical to the scalar path -- ``tests/test_fleet_simulator``
asserts element-wise agreement -- only the execution schedule changes:
one fused pass over a ``(nodes x cores, features)`` matrix instead of
nested Python loops.  ``benchmarks/bench_fleet.py`` measures the
resulting throughput gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, TYPE_CHECKING

import numpy as np

from repro.core.event_predictor import CoreEventState
from repro.hardware.events import NUM_EVENTS, Event
from repro.hardware.microarch import ChipSpec
from repro.hardware.platform import IntervalSample

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ppep import PPEP

__all__ = ["BatchObservation", "BatchPrediction", "BatchedVFPredictor"]

#: Eq. 3 feature split: seven voltage-scaled core events, two NB proxies.
_NUM_SCALED = 7


@dataclass(frozen=True)
class BatchObservation:
    """One synchronized interval of N same-spec nodes, as arrays.

    All arrays are indexed ``[node]`` or ``[node, core]``; the core axis
    follows the spec's core numbering, so CU membership is positional
    (``core // cores_per_cu``).
    """

    spec: ChipSpec
    #: Per-instruction counts of the core-private events E1-E8 (VF
    #: invariant per Observation 1); zero rows for idle cores.
    per_inst8: np.ndarray  # (N, C, 8)
    #: Observed CPI / memory-CPI per core (zero for idle cores).
    cpi: np.ndarray  # (N, C)
    mcpi: np.ndarray  # (N, C)
    #: Fraction of the interval each core was unhalted.
    duty: np.ndarray  # (N, C)
    #: The Observation 2 invariant ``CPI - DispatchStalls/inst``.
    obs2_gap: np.ndarray  # (N, C)
    #: Frequency each core actually ran at, GHz.
    freq: np.ndarray  # (N, C)
    #: Whether the core retired any instructions this interval.
    active: np.ndarray  # (N, C) bool
    #: Per-node diode temperature, kelvin.
    temperature: np.ndarray  # (N,)
    #: Per-node BIOS power-gating switch.
    power_gating: np.ndarray  # (N,) bool
    #: Per-node count of compute units with at least one active core.
    busy_cus: np.ndarray  # (N,)

    @property
    def num_nodes(self) -> int:
        return self.cpi.shape[0]

    @classmethod
    def from_samples(
        cls, spec: ChipSpec, samples: Sequence[IntervalSample]
    ) -> "BatchObservation":
        """Stack one interval sample per node into batch arrays.

        Every sample must come from a platform of the same ``spec``
        (same topology and VF table); heterogeneous fleets batch per
        spec group (see :class:`repro.fleet.simulator.FleetSimulator`).
        A sample :class:`~repro.core.event_predictor.CoreEventState`
        would reject (non-positive interval or frequency, negative CPI
        terms) raises its exact ``ValueError``, for the first such node.
        """
        if not samples:
            raise ValueError("need at least one sample")
        n = len(samples)
        c = spec.num_cores
        events = np.zeros((n, c, NUM_EVENTS))
        freq = np.zeros((n, c))
        for i, sample in enumerate(samples):
            if len(sample.core_events) != c:
                raise ValueError(
                    "sample {} has {} cores; spec {!r} has {}".format(
                        i, len(sample.core_events), spec.name, c
                    )
                )
            for core_id, vec in enumerate(sample.core_events):
                events[i, core_id, :] = vec.as_list()
                cu = spec.cu_of_core(core_id)
                freq[i, core_id] = sample.cu_vfs[cu].frequency_ghz

        inst = events[:, :, int(Event.RETIRED_INSTRUCTIONS)]
        cycles = events[:, :, int(Event.CPU_CLOCKS_NOT_HALTED)]
        mab = events[:, :, int(Event.MAB_WAIT_CYCLES)]
        active = inst > 0
        safe_inst = np.where(active, inst, 1.0)

        per_inst8 = np.where(
            active[:, :, None], events[:, :, :8] / safe_inst[:, :, None], 0.0
        )
        cpi = np.where(active, cycles / safe_inst, 0.0)
        mcpi = np.where(active, mab / safe_inst, 0.0)
        ds_per_inst = np.where(
            active, events[:, :, int(Event.DISPATCH_STALLS)] / safe_inst, 0.0
        )
        intervals = np.array([s.interval_s for s in samples])
        invalid = (
            (intervals <= 0)
            | (freq <= 0).any(axis=1)
            | (cpi < 0).any(axis=1)
            | (mcpi < 0).any(axis=1)
        )
        if invalid.any():
            # Replay the scalar constructor on the first offending node
            # so the message (and which check fires first) is its own.
            sample = samples[int(np.argmax(invalid))]
            for core_id, vec in enumerate(sample.core_events):
                CoreEventState(
                    vec, sample.cu_vfs[spec.cu_of_core(core_id)], sample.interval_s
                )
        cycles_available = freq * 1e9 * intervals[:, None]
        duty = np.minimum(cycles / np.maximum(cycles_available, 1e-30), 1.0)

        cu_active = active.reshape(n, spec.num_cus, spec.cores_per_cu)
        busy_cus = cu_active.any(axis=2).sum(axis=1)

        return cls(
            spec=spec,
            per_inst8=per_inst8,
            cpi=cpi,
            mcpi=mcpi,
            duty=duty,
            obs2_gap=cpi - ds_per_inst,
            freq=freq,
            active=active,
            temperature=np.array([s.temperature for s in samples]),
            power_gating=np.array([s.power_gating for s in samples], dtype=bool),
            busy_cus=busy_cus,
        )


@dataclass(frozen=True)
class BatchPrediction:
    """All-VF predictions for a batch of nodes.

    The VF axis is ordered fastest-first, matching
    ``spec.vf_table.descending()``; ``vf_indices[t]`` maps a column back
    to the paper's 1-based VF numbering.
    """

    spec: ChipSpec
    vf_indices: np.ndarray  # (T,)
    #: Predicted Eq. 3 dynamic power per node per target VF, watts.
    dynamic_power: np.ndarray  # (N, T)
    #: Predicted idle power (Eq. 2 or the PG decomposition), watts.
    idle_power: np.ndarray  # (N, T)
    #: Predicted chip-total instruction throughput, inst/s.
    instructions_per_second: np.ndarray  # (N, T)

    @property
    def chip_power(self) -> np.ndarray:
        """Predicted total chip power per node per target VF, watts."""
        return self.dynamic_power + self.idle_power

    @property
    def demand(self) -> np.ndarray:
        """Per-node predicted power at the fastest VF state, watts."""
        return self.chip_power[:, 0]

    @property
    def floor(self) -> np.ndarray:
        """Per-node predicted power at the slowest VF state, watts."""
        return self.chip_power[:, -1]


class BatchedVFPredictor:
    """The Figure 5 pipeline, restated as array programs over a fleet.

    Construction precomputes everything that depends only on the trained
    models and the VF table (voltage scale factors, per-VF idle
    coefficients, the PG decomposition table), so :meth:`predict` is a
    pure array computation over the batch.
    """

    def __init__(self, ppep: "PPEP") -> None:
        self.ppep = ppep
        self.spec = ppep.spec
        table = self.spec.vf_table.descending()
        self.vf_indices = np.array([vf.index for vf in table])
        self._freqs = np.array([vf.frequency_ghz for vf in table])
        voltages = np.array([vf.voltage for vf in table])
        model = ppep.dynamic_model
        self._scale_v = (voltages / model.train_voltage) ** model.alpha
        weights = np.asarray(model.weights)
        self._w_core = weights[:_NUM_SCALED]
        self._w_nb = weights[_NUM_SCALED:]
        self._idle_w1 = np.array([ppep.idle_model.w_idle1(v) for v in voltages])
        self._idle_w0 = np.array([ppep.idle_model.w_idle0(v) for v in voltages])
        if ppep.pg_model is not None:
            decomps = [ppep.pg_model.decomposition(vf) for vf in table]
            self._p_cu = np.array([d.p_cu for d in decomps])
            self._p_nb = np.array([d.p_nb for d in decomps])
            self._p_base = np.array([d.p_base for d in decomps])
        else:
            self._p_cu = self._p_nb = self._p_base = None

    def predict(self, batch: BatchObservation) -> BatchPrediction:
        """Price every VF state of every node in the batch.

        Equivalent to running :meth:`PPEP.predict_at` for each node and
        target, but the whole fleet is one fused NumPy computation.
        """
        if batch.spec.name != self.spec.name:
            raise ValueError(
                "batch spec {!r} does not match model spec {!r}".format(
                    batch.spec.name, self.spec.name
                )
            )
        freqs = self._freqs  # (T,)

        # Eq. 1 per core at every target: CPI(f') = CCPI + MCPI * f'/f.
        ccpi = np.maximum(batch.cpi - batch.mcpi, 0.0)  # (N, C)
        scale_f = freqs[None, None, :] / np.maximum(
            batch.freq[:, :, None], 1e-30
        )  # (N, C, T)
        cpi_t = ccpi[:, :, None] + batch.mcpi[:, :, None] * scale_f
        inst_rate = np.where(
            batch.active[:, :, None],
            batch.duty[:, :, None]
            * freqs[None, None, :]
            * 1e9
            / np.maximum(cpi_t, 1e-30),
            0.0,
        )  # (N, C, T)

        # Observation 1: E1-E8 keep their per-instruction counts, so the
        # chip-level feature rates are one contraction over the core axis.
        feat17 = np.einsum(
            "nce,nct->nte", batch.per_inst8[:, :, :_NUM_SCALED], inst_rate
        )  # (N, T, 7)
        feat8 = np.einsum(
            "nc,nct->nt", batch.per_inst8[:, :, _NUM_SCALED], inst_rate
        )  # (N, T)
        # Observation 2: DS/inst(f') = max(CPI(f') - gap, 0).
        ds_per_inst = np.maximum(cpi_t - batch.obs2_gap[:, :, None], 0.0)
        feat9 = np.einsum(
            "nct,nct->nt", np.where(batch.active[:, :, None], ds_per_inst, 0.0),
            inst_rate,
        )  # (N, T)

        # Eq. 3: voltage-scaled core term plus the unscaled NB proxies.
        core_term = (feat17 @ self._w_core) * self._scale_v[None, :]
        nb_term = feat8 * self._w_nb[0] + feat9 * self._w_nb[1]
        dynamic = core_term + nb_term

        # Idle power: the PG decomposition where gating is on and
        # modelled, Eq. 2 otherwise -- matching PPEP._idle_power.
        eq2_idle = (
            self._idle_w1[None, :] * batch.temperature[:, None]
            + self._idle_w0[None, :]
        )
        if self._p_cu is not None:
            busy = batch.busy_cus[:, None].astype(float)
            pg_idle = self._p_base[None, :] + np.where(
                busy > 0, busy * self._p_cu[None, :] + self._p_nb[None, :], 0.0
            )
            use_pg = batch.power_gating[:, None]
            idle = np.where(use_pg, pg_idle, eq2_idle)
        else:
            idle = eq2_idle

        return BatchPrediction(
            spec=self.spec,
            vf_indices=self.vf_indices,
            dynamic_power=dynamic,
            idle_power=idle,
            instructions_per_second=inst_rate.sum(axis=1),
        )

    def predict_samples(
        self, samples: Sequence[IntervalSample]
    ) -> BatchPrediction:
        """Convenience: extract the batch from samples and price it."""
        return self.predict(BatchObservation.from_samples(self.spec, samples))


def looped_reference(
    ppep: "PPEP", samples: Sequence[IntervalSample]
) -> "List[np.ndarray]":
    """Per-node Python-loop pricing of every VF state (the baseline the
    fleet benchmark compares against): returns one ``(T, 2)`` array of
    (chip power, instruction rate) rows per node, fastest VF first."""
    out = []
    for sample in samples:
        states = ppep.core_states(sample)
        rows = []
        for vf in ppep.spec.vf_table.descending():
            p = ppep.predict_at(states, sample.temperature, vf, sample.power_gating)
            rows.append((p.chip_power, p.instructions_per_second))
        out.append(np.array(rows))
    return out
