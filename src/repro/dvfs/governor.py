"""Controller interface and closed-loop simulation.

A DVFS controller is software that runs once per 200 ms decision
interval: it reads the interval's observable sample (counters, power,
temperature) and sets per-CU VF states for the next interval -- exactly
the loop a userspace daemon, the kernel, or firmware would run on the
real machine.  :func:`run_controlled` couples a controller to a
platform and records the closed-loop trajectory.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.hardware.platform import IntervalSample, Platform
from repro.hardware.vfstates import VFState

__all__ = ["DVFSController", "ControlledRun", "run_controlled"]


class DVFSController(abc.ABC):
    """One decision per interval: observe a sample, choose per-CU VFs."""

    @abc.abstractmethod
    def decide(self, sample: IntervalSample) -> Sequence[VFState]:
        """Return the per-CU VF states to apply for the next interval."""

    def reset(self) -> None:
        """Clear controller state before a fresh run (optional)."""


@dataclass
class ControlledRun:
    """Closed-loop trajectory of a controller on a platform."""

    samples: List[IntervalSample] = field(default_factory=list)
    decisions: List[List[VFState]] = field(default_factory=list)

    @property
    def measured_powers(self) -> List[float]:
        return [s.measured_power for s in self.samples]

    def total_instructions(self) -> float:
        return sum(s.total_instructions() for s in self.samples)

    def total_energy(self) -> float:
        """Measured energy over the whole run, joules."""
        return sum(s.measured_energy for s in self.samples)


def run_controlled(
    platform: Platform,
    controller: DVFSController,
    n_intervals: int,
    initial_vf: Optional[VFState] = None,
) -> ControlledRun:
    """Run the observe/decide/apply loop for ``n_intervals``.

    The decision made from interval *k*'s sample governs interval
    *k + 1*, mirroring the one-interval actuation latency of a real
    userspace daemon.  This is
    :func:`~repro.backends.loop.run_backend_controlled` over a
    :class:`~repro.backends.simulator.SimulatorBackend`: one loop, whether
    the platform is reached directly or through the backend boundary.
    """
    # Imported here: the backends package imports this module.
    from repro.backends.loop import run_backend_controlled
    from repro.backends.simulator import SimulatorBackend

    return run_backend_controlled(
        SimulatorBackend(platform), controller, n_intervals, initial_vf
    )
