"""Controller guardrails for low-quality telemetry intervals.

A one-step capper acts on every interval's sample; if that sample is a
stale redelivery or a stuck sensor, acting on it means chasing a
phantom.  :class:`GuardedController` wraps any
:class:`~repro.dvfs.governor.DVFSController` behind a
:class:`~repro.faults.filtering.TelemetryFilter`: usable intervals pass
through (cleaned), untrustworthy ones leave the current VF assignment
in place -- the safe action when the controller cannot see the machine.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.dvfs.governor import DVFSController
from repro.faults.filtering import TelemetryFilter
from repro.hardware.microarch import ChipSpec
from repro.hardware.platform import IntervalSample
from repro.hardware.vfstates import VFState
from repro.obs.metrics import get_registry

__all__ = ["GuardedController"]


class GuardedController(DVFSController):
    """Hold the current VF state whenever telemetry quality is too low.

    Every interval is run through the filter; the inner controller is
    *always* called with the cleaned sample -- its internal clock (cap
    schedule step, measurement-bias corrector) must stay in lockstep
    with the platform -- but on a :data:`~repro.faults.filtering.BAD`
    interval the inner decision is discarded and the previously applied
    assignment is returned again.
    """

    def __init__(self, inner: DVFSController, spec: ChipSpec) -> None:
        self.inner = inner
        self.filter = TelemetryFilter(spec)
        self._held: Optional[List[VFState]] = None
        #: Intervals on which the guardrail overrode the inner decision.
        self.holds = 0

    def reset(self) -> None:
        self.inner.reset()
        self.filter.reset()
        self._held = None
        self.holds = 0

    def decide(self, sample: IntervalSample) -> Sequence[VFState]:
        filtered = self.filter.ingest(sample)
        decision = list(self.inner.decide(filtered.sample))
        if not filtered.actionable and self._held is not None:
            self.holds += 1
            get_registry().counter("obs.guard.holds").inc()
            return list(self._held)
        self._held = decision
        return decision
