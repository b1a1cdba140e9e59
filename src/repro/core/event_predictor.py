"""Cross-VF hardware event prediction (Section IV-C).

The key enabler of PPEP: given one interval's counters at the current VF
state, predict what every counter *would have read* at any other VF
state, without switching.  Three ingredients:

- the CPI predictor (Eq. 1) gives ``CPI(f')``;
- **Observation 1**: per-instruction counts of the core-private events
  E1-E8 are VF-invariant, so their per-second rates at the target state
  are ``rate_per_inst * inst_per_second(f')``;
- **Observation 2**: ``CPI - DispatchStalls/inst`` is VF-invariant, so
  ``DS/inst(f') = CPI(f') - gap`` with ``gap = CPI(f) - DS/inst(f)``
  (Eqs. 4-6 explain why: the gap is retire + mispredict cycles, both
  frequency-independent).

The predictor also carries the core's *duty cycle* (fraction of the
interval the core was unhalted) across VF states, so partially idle
cores predict correctly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cpi_model import CPIModel, CPISample
from repro.hardware.events import CORE_PRIVATE_EVENTS, Event, EventVector
from repro.hardware.vfstates import VFState

__all__ = ["CoreEventState", "PredictedEvents", "EventPredictor"]


@dataclass(frozen=True)
class PredictedEvents:
    """Per-core prediction at one target VF state."""

    vf: VFState
    #: Predicted per-second event rates (all twelve events).
    rates: EventVector
    #: Predicted CPI at the target frequency.
    cpi: float
    #: Predicted retired instructions per second.
    instructions_per_second: float


class CoreEventState:
    """One core's observed interval, normalised for prediction."""

    def __init__(
        self, events: EventVector, vf: VFState, interval_s: float
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval must have positive length")
        self.vf = vf
        self.interval_s = interval_s
        self.instructions = events.instructions
        self.cpi_sample = CPISample.from_events(events, vf.frequency_ghz)
        self.per_inst = events.per_instruction()
        cycles_available = vf.frequency_ghz * 1e9 * interval_s
        self.duty = min(events.cycles / cycles_available, 1.0) if cycles_available else 0.0

    @property
    def active(self) -> bool:
        """Whether the core retired any instructions this interval."""
        return self.instructions > 0

    @property
    def obs2_gap(self) -> float:
        """``CPI - DispatchStalls/inst`` -- VF-invariant per Obs. 2."""
        return self.cpi_sample.cpi - self.per_inst[Event.DISPATCH_STALLS]

    def instructions_per_second_at(self, target: VFState) -> float:
        """Predicted instruction throughput at the target VF state."""
        if not self.active:
            return 0.0
        cpi = CPIModel.predict_cpi(self.cpi_sample, target.frequency_ghz)
        return self.duty * target.frequency_ghz * 1e9 / cpi


class EventPredictor:
    """Predicts per-core event rates at any VF state (Figure 5, step 2)."""

    def predict(self, state: CoreEventState, target: VFState) -> PredictedEvents:
        """All twelve event rates of one core at ``target``.

        For an idle core every rate is zero.  For a busy core the Obs. 1
        events keep their per-instruction counts; dispatch stalls follow
        Obs. 2; the three performance events are reconstructed from the
        predicted CPI decomposition.
        """
        if not state.active:
            return PredictedEvents(
                vf=target,
                rates=EventVector.zeros(),
                cpi=0.0,
                instructions_per_second=0.0,
            )

        cpi_target = CPIModel.predict_cpi(state.cpi_sample, target.frequency_ghz)
        mcpi_target = CPIModel.predict_mcpi(state.cpi_sample, target.frequency_ghz)
        inst_per_s = state.instructions_per_second_at(target)

        rates = EventVector.zeros()
        for event in CORE_PRIVATE_EVENTS:
            rates[event] = state.per_inst[event] * inst_per_s

        # Observation 2: the gap carries over; clamp at zero because a
        # noisy low-CPI interval can predict a (physically impossible)
        # negative stall count at a slower target state.
        ds_per_inst = max(cpi_target - state.obs2_gap, 0.0)
        rates[Event.DISPATCH_STALLS] = ds_per_inst * inst_per_s
        rates[Event.CPU_CLOCKS_NOT_HALTED] = cpi_target * inst_per_s
        rates[Event.RETIRED_INSTRUCTIONS] = inst_per_s
        rates[Event.MAB_WAIT_CYCLES] = mcpi_target * inst_per_s

        return PredictedEvents(
            vf=target,
            rates=rates,
            cpi=cpi_target,
            instructions_per_second=inst_per_s,
        )

    def predict_chip_rates(
        self, states: "list[CoreEventState]", target: VFState
    ) -> EventVector:
        """Chip-level per-second rates at ``target``: per-core
        predictions summed, the vector Eq. 3 consumes."""
        total = EventVector.zeros()
        for state in states:
            total += self.predict(state, target).rates
        return total
