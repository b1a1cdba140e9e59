"""Telemetry fault injection and the hardened online pipeline.

PPEP is an *online* framework: it trains on and predicts from a noisy
Hall-effect power sensor and per-core performance counters sampled every
20 ms (paper Section II).  Real deployments of that measurement chain see
dropped samples, counter wraparound, stuck sensors, and stale telemetry;
a production pipeline must degrade gracefully instead of crashing or
silently mispredicting when they happen.

This package provides both halves of that story:

- :mod:`repro.faults.injection` -- a deterministic, seed-driven
  :class:`FaultInjector` (configured by a :class:`FaultSpec`) that
  corrupts the *observable* surface of a
  :class:`~repro.hardware.platform.Platform` -- the ten 20 ms sensor
  readings and the multiplexed counter estimates -- while leaving the
  ground-truth fields and the platform's fault-free RNG streams
  untouched;
- :mod:`repro.faults.filtering` -- an interval-sample validator and
  outlier-robust filter (:class:`TelemetryFilter`) that sits in front of
  :class:`~repro.core.ppep.PPEP` prediction, repairs what it can, and
  tags every interval with a ``quality`` flag.

The policy that acts on those flags -- hold the VF assignment on a BAD
interval, quarantine a node whose telemetry stays bad -- is one per-node
controller, :class:`~repro.fleet.cluster_cap.NodeControl`, which the
fleet manager, the serve shard and the single-node loops all run; the
fleet manager and the shard re-allocate a quarantined node's budget.
"""

from repro.faults.filtering import (
    BAD,
    GOOD,
    REPAIRED,
    FilterConfig,
    FilteredInterval,
    TelemetryFilter,
)
from repro.faults.injection import FaultInjector, FaultSpec

__all__ = [
    "BAD",
    "GOOD",
    "REPAIRED",
    "FaultInjector",
    "FaultSpec",
    "FilterConfig",
    "FilteredInterval",
    "TelemetryFilter",
]
