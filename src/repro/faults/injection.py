"""Deterministic telemetry fault injection.

The measurement chain of Section II -- an ACS711 Hall-effect sensor
sampled by an Arduino every 20 ms, plus six multiplexed performance
counters per core -- fails in well-known ways on real machines:

- **dropped samples**: the ADC read misses its slot and the firmware
  reports 0 W for that 20 ms reading;
- **spikes**: electrical transients on the 12 V rail add a large
  positive excursion to a single reading;
- **stuck-at**: the sensor (or its I2C link) freezes and repeats its
  last reading for a stretch of intervals;
- **counter wraparound**: a PMC read races a wrap/reset and the interval
  delta comes back as a huge bogus count;
- **counter reset**: the counter loses part of the interval and
  undercounts;
- **stale delivery**: the telemetry daemon misses its deadline and
  redelivers the previous interval's payload.

:class:`FaultInjector` applies these to the *observable* fields of an
:class:`~repro.hardware.platform.IntervalSample` (power readings,
measured power, temperature, multiplexed counter estimates).  The
ground-truth fields (``true_power``, ``true_core_events``,
``instructions``, ``breakdown``) are never touched, so experiments can
score prediction error against an uncorrupted reference.

Two determinism guarantees, both load-bearing:

1. **The fault-free stream is never perturbed.**  The injector draws all
   of its randomness from its own generator, derived per interval from
   ``(seed, interval index)`` -- the platform's sensor and process RNGs
   are not consumed at all.  With a disabled :class:`FaultSpec` the
   injector returns the sample object unchanged, so traces are bitwise
   identical to runs without an injector.
2. **Same seed + same spec => same fault schedule.**  Each interval's
   draws come from a fresh generator keyed by the interval index, in a
   fixed order that does not depend on earlier outcomes, so the schedule
   is a pure function of ``(seed, spec, interval sequence)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.determinism import schedule_seed
from repro.hardware.events import EventVector
from repro.hardware.platform import IntervalSample

__all__ = ["FaultInjector", "FaultSpec"]

#: Counts a wrapped PMC read reports: the delta of a 48-bit counter that
#: wrapped mid-interval is dominated by the modulus, orders of magnitude
#: above any physically possible per-interval count (~1e9).
WRAP_COUNT = float(2 ** 40)


@dataclass(frozen=True)
class FaultSpec:
    """Fault rates and shapes for one injected telemetry channel.

    All probabilities are per-draw: ``drop_rate`` and ``spike_rate``
    apply per 20 ms reading, the counter rates per core per interval,
    ``stuck_rate`` and ``stale_rate`` per interval.  The default spec is
    fully disabled.
    """

    #: P(a 20 ms reading is lost; the firmware reports 0 W).
    drop_rate: float = 0.0
    #: P(a 20 ms reading carries an additive transient).
    spike_rate: float = 0.0
    #: Amplitude of a spike, watts.
    spike_magnitude_w: float = 150.0
    #: P(the sensor freezes at its last reading, per interval).
    stuck_rate: float = 0.0
    #: How many intervals a stuck episode lasts.
    stuck_duration_intervals: int = 5
    #: P(a core's interval counter delta wraps to a huge value).
    counter_wrap_rate: float = 0.0
    #: P(a core's counters reset mid-interval and undercount).
    counter_reset_rate: float = 0.0
    #: P(the previous interval's payload is redelivered).
    stale_rate: float = 0.0
    #: From this interval index on, the node delivers only stale
    #: telemetry (models a crashed telemetry daemon / node dropout).
    dropout_after_interval: Optional[int] = None

    def __post_init__(self) -> None:
        for name in (
            "drop_rate",
            "spike_rate",
            "stuck_rate",
            "counter_wrap_rate",
            "counter_reset_rate",
            "stale_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    "{} must lie in [0, 1], got {}".format(name, value)
                )
        if self.stuck_duration_intervals < 1:
            raise ValueError("stuck_duration_intervals must be >= 1")
        if self.spike_magnitude_w < 0:
            raise ValueError("spike_magnitude_w cannot be negative")

    @property
    def enabled(self) -> bool:
        """Whether any fault can ever fire under this spec."""
        return (
            self.drop_rate > 0
            or self.spike_rate > 0
            or self.stuck_rate > 0
            or self.counter_wrap_rate > 0
            or self.counter_reset_rate > 0
            or self.stale_rate > 0
            or self.dropout_after_interval is not None
        )

    @classmethod
    def sensor_faults(cls, rate: float, **overrides) -> "FaultSpec":
        """The resilience experiment's sweep point: sample drops and
        spikes at ``rate``, plus proportionally rarer stuck / counter /
        stale faults so every hardening layer is exercised."""
        params = dict(
            drop_rate=rate,
            spike_rate=rate,
            stuck_rate=rate / 10.0,
            counter_wrap_rate=rate / 2.0,
            counter_reset_rate=rate / 2.0,
            stale_rate=rate / 4.0,
        )
        params.update(overrides)
        return cls(**params)


def _interval_seed(seed: int, index: int) -> int:
    """A stable 64-bit generator seed for one (injector, interval).

    Delegates to the shared :func:`repro.determinism.schedule_seed`
    helper with the historical ``fault-injector`` tag, so schedules
    recorded before the consolidation replay unchanged
    (``tests/test_determinism.py`` pins the bytes).
    """
    return schedule_seed("fault-injector", seed, index)


class FaultInjector:
    """Applies a :class:`FaultSpec` to a platform's interval samples.

    Wraps the sensor and counter paths at their single choke point --
    the completed :class:`IntervalSample` -- so the simulation kernel's
    RNG consumption never changes, and the scalar test oracle is
    corrupted exactly as :meth:`Platform.step` is.  Attach with
    ``Platform(..., fault_injector=FaultInjector(spec, seed))``.

    The injector is stateful across intervals only where the physical
    fault is (stuck episodes, the previous payload for stale
    redelivery); the *schedule* of fault onsets is stateless per
    interval.
    """

    def __init__(self, spec: FaultSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = int(seed)
        #: Injected-fault tallies by tag, for reports and tests.
        self.counts: Dict[str, int] = {}
        self._stuck_left = 0
        self._stuck_value: Optional[float] = None
        self._last_reading: Optional[float] = None
        self._last_payload: Optional[IntervalSample] = None

    def reset(self) -> None:
        """Clear episode state (the schedule itself is stateless)."""
        self.counts = {}
        self._stuck_left = 0
        self._stuck_value = None
        self._last_reading = None
        self._last_payload = None

    def _tally(self, tag: str) -> None:
        self.counts[tag] = self.counts.get(tag, 0) + 1

    def apply(self, sample: IntervalSample) -> IntervalSample:
        """The delivered (possibly corrupted) version of ``sample``."""
        if not self.spec.enabled:
            return sample
        spec = self.spec
        rng = np.random.default_rng(_interval_seed(self.seed, sample.index))
        # Fixed draw order, independent of outcomes: the schedule is a
        # pure function of (seed, spec, interval index).
        n_readings = len(sample.power_samples)
        n_cores = len(sample.core_events)
        u_stale = rng.random()
        u_stuck = rng.random()
        u_drop = rng.random(n_readings)
        u_spike = rng.random(n_readings)
        u_wrap = rng.random(n_cores)
        u_reset = rng.random(n_cores)
        reset_fractions = rng.random(n_cores)

        dropped_out = (
            spec.dropout_after_interval is not None
            and sample.index >= spec.dropout_after_interval
        )
        if (dropped_out or u_stale < spec.stale_rate) and (
            self._last_payload is not None
        ):
            self._tally("dropout" if dropped_out else "stale")
            return self._redeliver(sample)

        faults: List[str] = []
        readings = list(sample.power_samples)
        if self._stuck_left > 0:
            self._stuck_left -= 1
            readings = [self._stuck_value] * n_readings
            faults.append("stuck")
        elif u_stuck < spec.stuck_rate and self._last_reading is not None:
            self._stuck_value = self._last_reading
            self._stuck_left = spec.stuck_duration_intervals - 1
            readings = [self._stuck_value] * n_readings
            faults.append("stuck")
        else:
            for i in range(n_readings):
                if u_drop[i] < spec.drop_rate:
                    readings[i] = 0.0
                    faults.append("drop")
                elif u_spike[i] < spec.spike_rate:
                    readings[i] = readings[i] + spec.spike_magnitude_w
                    faults.append("spike")

        events = list(sample.core_events)
        for c in range(n_cores):
            if u_wrap[c] < spec.counter_wrap_rate:
                events[c] = EventVector(
                    [v + WRAP_COUNT for v in events[c].as_list()]
                )
                faults.append("wrap")
            elif u_reset[c] < spec.counter_reset_rate:
                events[c] = events[c] * float(reset_fractions[c])
                faults.append("reset")

        for tag in faults:
            self._tally(tag)
        delivered = dataclasses.replace(
            sample,
            power_samples=readings,
            measured_power=sum(readings) / len(readings),
            core_events=events,
            faults=tuple(sorted(set(faults))),
        )
        self._last_reading = readings[-1]
        self._last_payload = delivered
        return delivered

    def _redeliver(self, sample: IntervalSample) -> IntervalSample:
        """The previous payload, re-timestamped as this interval.

        Index and time advance (the daemon's delivery loop still ticks);
        the *measurements* are the previous interval's -- exactly what a
        consumer sees when the producer missed its deadline.  Ground
        truth stays current.
        """
        previous = self._last_payload
        delivered = dataclasses.replace(
            sample,
            cu_vfs=list(previous.cu_vfs),
            power_samples=list(previous.power_samples),
            measured_power=previous.measured_power,
            temperature=previous.temperature,
            core_events=list(previous.core_events),
            faults=("stale",),
        )
        # A redelivered payload does not refresh the stale-episode state:
        # the *next* stale interval repeats the same payload again.
        return delivered
