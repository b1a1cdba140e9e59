"""The observe/decide/apply loop over the backend boundary.

:func:`run_backend_controlled` is the one observe/decide/apply loop:
one decision from interval *k*'s sample governs interval *k + 1*, and
the result is a :class:`~repro.dvfs.governor.ControlledRun`.  The
telemetry source and the actuation surface are a
:class:`~repro.backends.base.TelemetryBackend`;
:func:`repro.dvfs.governor.run_controlled` is this loop over a
:class:`~repro.backends.simulator.SimulatorBackend`.  Driving the
simulator through the boundary is bit-identical to stepping and
actuating the platform directly (pinned in ``tests/test_backends.py``),
which is what makes the record->replay acceptance gate a statement
about the *pipeline* rather than about two different loops.

Two backend-specific behaviors:

- a finite source (trace replay) ending early is normal: the loop
  returns the trajectory collected so far instead of raising;
- sources that cannot actuate (``capabilities().can_set_vf`` False)
  still receive every ``set_vf`` call -- replay backends record the
  requests, so a replayed run's decision stream is observable even
  though the recorded data already embeds the original actuations.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.base import EndOfTrace, TelemetryBackend
from repro.dvfs.governor import ControlledRun, DVFSController
from repro.hardware.vfstates import VFState

__all__ = ["run_backend_controlled"]


def run_backend_controlled(
    backend: TelemetryBackend,
    controller: DVFSController,
    n_intervals: int,
    initial_vf: Optional[VFState] = None,
) -> ControlledRun:
    """Run the control loop over a backend for up to ``n_intervals``."""
    if n_intervals <= 0:
        raise ValueError("n_intervals must be positive")
    caps = backend.capabilities()
    if initial_vf is not None and caps.can_set_vf:
        backend.set_all_vf(initial_vf)
    controller.reset()
    run = ControlledRun()
    for _ in range(n_intervals):
        try:
            sample = backend.read_interval()
        except EndOfTrace:
            if caps.finite:
                break  # a trace running dry is termination, not failure
            raise
        decision = list(controller.decide(sample))
        if len(decision) != caps.num_cus:
            raise ValueError("controller must return one VF per CU")
        for cu, vf in enumerate(decision):
            backend.set_vf(cu, vf)
        run.samples.append(sample)
        run.decisions.append(decision)
    return run
