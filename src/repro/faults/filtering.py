"""Interval-sample validation and outlier-robust filtering.

The hardened online pipeline puts a :class:`TelemetryFilter` between the
platform's interval samples and :class:`~repro.core.ppep.PPEP`
prediction.  Per interval it:

1. detects **stale redelivery** (a payload byte-identical to the
   previous interval's -- continuous sensor noise makes an honest repeat
   essentially impossible);
2. detects a **stuck sensor** (all ten 20 ms readings identical, which
   Gaussian noise far above the ADC quantum never produces);
3. validates each 20 ms reading against a plausibility band
   (``min_reading_w``..``max_reading_w`` -- a dropped read reports 0 W)
   and rejects **spikes** against the in-interval median;
4. gates the surviving interval power against a **median-of-window** of
   recent accepted intervals, repairing gross outliers with the window
   median;
5. validates per-core **counter estimates** against physical bounds (a
   wrapped PMC delta exceeds any possible per-interval count by orders
   of magnitude) and falls back to the core's last good counters;
6. falls back to the **last good** interval power when nothing in the
   interval is usable.

The result is a :class:`FilteredInterval`: a cleaned sample safe to feed
the prediction pipeline, plus a ``quality`` flag -- :data:`GOOD`
(untouched), :data:`REPAIRED` (some field replaced; still safe to act
on), or :data:`BAD` (payload untrustworthy wholesale; controllers should
hold their current state, as :class:`~repro.fleet.cluster_cap.NodeControl`
does).
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hardware.events import EventVector
from repro.hardware.microarch import ChipSpec
from repro.hardware.platform import INTERVAL_S, IntervalSample

__all__ = [
    "BAD",
    "GOOD",
    "REPAIRED",
    "FilterConfig",
    "FilteredInterval",
    "TelemetryFilter",
]

#: Quality flags, ordered best to worst.
GOOD = "good"
REPAIRED = "repaired"
BAD = "bad"


@dataclass(frozen=True)
class FilterConfig:
    """Tunables of the interval validator and robust filter."""

    #: Accepted interval powers kept for the median-of-window gate.
    window: int = 8
    #: Readings below this are failed reads (a dropped sample is 0 W).
    min_reading_w: float = 0.5
    #: Readings above this are electrically implausible on the 12 V rail.
    max_reading_w: float = 500.0
    #: A reading further than this factor from the in-interval median of
    #: valid readings is a spike.  Sensor noise (sigma ~1 W on a tens-of-
    #: watts signal) never reaches it.
    reading_outlier_factor: float = 1.6
    #: An interval power further than this factor from the window median
    #: is repaired with the median.  Loose enough for workload phase
    #: swings, tight enough for surviving spike/stuck residue.
    interval_outlier_factor: float = 2.0
    #: Physical headroom factor on per-interval counter counts, over
    #: ``fastest-clock cycles per interval``.  Covers multi-issue and
    #: multiplexing extrapolation; a wrapped delta (~2^40) is far beyond.
    count_margin: float = 64.0


@dataclass
class FilteredInterval:
    """One validated interval: cleaned sample + quality verdict."""

    #: Cleaned copy, safe to feed :class:`~repro.core.ppep.PPEP`.
    sample: IntervalSample
    quality: str
    #: What the validator found, e.g. ``("drop", "spike")``.
    issues: Tuple[str, ...]
    #: The robust per-interval power estimate, watts.
    power: float

    @property
    def actionable(self) -> bool:
        """Whether a controller should act on this interval."""
        return self.quality != BAD


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


class TelemetryFilter:
    """Stateful per-interval validator for one telemetry stream.

    One filter per platform/node; feed it every delivered sample in
    order via :meth:`ingest`.
    """

    def __init__(self, spec: ChipSpec, config: Optional[FilterConfig] = None) -> None:
        self.spec = spec
        self.config = config or FilterConfig()
        if self.config.window < 3:
            raise ValueError("window must be >= 3")
        self._cycles_per_s = spec.vf_table.fastest.frequency_ghz * 1e9
        self.reset()

    def reset(self) -> None:
        #: Pinned to the first ingested sample's interval; the window
        #: statistics and the counter band assume a uniform interval, so
        #: a mid-stream change raises instead of silently mis-scaling.
        self._interval_s: Optional[float] = None
        self._max_count = (
            self._cycles_per_s * INTERVAL_S * self.config.count_margin
        )
        self._prev_signature = None
        self._history: deque = deque(maxlen=self.config.window)
        self._last_good_power: Optional[float] = None
        self._last_good_events: Optional[List[EventVector]] = None
        #: Interval tallies by quality flag, for reports and tests.
        self.quality_counts: Dict[str, int] = {GOOD: 0, REPAIRED: 0, BAD: 0}

    # -- the per-interval pipeline -------------------------------------------

    def ingest(self, sample: IntervalSample) -> FilteredInterval:
        """Validate and repair one delivered interval sample."""
        if self._interval_s is None:
            self._interval_s = sample.interval_s
            self._max_count = (
                self._cycles_per_s * sample.interval_s * self.config.count_margin
            )
        elif sample.interval_s != self._interval_s:
            raise ValueError(
                "telemetry stream changed interval length mid-run "
                "({} s -> {} s); reset() the filter for a new "
                "stream".format(self._interval_s, sample.interval_s)
            )
        issues: List[str] = []
        readings = list(sample.power_samples)
        signature = (
            sample.measured_power,
            sample.temperature,
            tuple(readings),
        )
        stale = self._prev_signature is not None and signature == self._prev_signature
        self._prev_signature = signature

        stuck = (
            not stale
            and len(readings) > 1
            and all(r == readings[0] for r in readings)
        )

        power: Optional[float] = None
        if stale:
            issues.append("stale")
        elif stuck:
            issues.append("stuck")
        else:
            power, reading_issues = self._robust_interval_power(readings)
            issues.extend(reading_issues)

        events, counter_issues = self._validate_counters(sample, stale)
        issues.extend(counter_issues)

        if power is not None:
            gated, outlier = self._window_gate(power)
            if outlier:
                issues.append("outlier")
            power = gated

        bad = stale or stuck or power is None
        if power is None:
            if self._last_good_power is not None:
                power = self._last_good_power
            elif self._history:
                power = _median(list(self._history))
            else:
                power = sample.measured_power
        quality = BAD if bad else (REPAIRED if issues else GOOD)

        cleaned = dataclasses.replace(
            sample,
            power_samples=[power] * len(readings) if bad else readings,
            measured_power=power,
            core_events=events,
        )
        if not bad:
            self._history.append(power)
            self._last_good_power = power
            self._last_good_events = list(events)
        self.quality_counts[quality] += 1
        return FilteredInterval(
            sample=cleaned,
            quality=quality,
            issues=tuple(issues),
            power=power,
        )

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of every stateful stage: the
        pinned interval length, the stale-detection signature, the
        median-of-window history, the last-good fallbacks, and the
        quality tallies.  Restoring it makes the next :meth:`ingest`
        verdict bit-identical to an uninterrupted filter's."""
        return {
            "window": self.config.window,
            "interval_s": self._interval_s,
            "prev_signature": (
                None
                if self._prev_signature is None
                else [
                    self._prev_signature[0],
                    self._prev_signature[1],
                    list(self._prev_signature[2]),
                ]
            ),
            "history": list(self._history),
            "last_good_power": self._last_good_power,
            "last_good_events": (
                None
                if self._last_good_events is None
                else [vec.as_list() for vec in self._last_good_events]
            ),
            "quality_counts": dict(self.quality_counts),
        }

    def load_state_dict(self, state: dict) -> None:
        if int(state["window"]) != self.config.window:
            raise ValueError(
                "checkpoint window {} does not match this filter's "
                "window {}".format(state["window"], self.config.window)
            )
        self.reset()
        if state["interval_s"] is not None:
            self._interval_s = float(state["interval_s"])
            self._max_count = (
                self._cycles_per_s * self._interval_s * self.config.count_margin
            )
        if state["prev_signature"] is not None:
            measured, temperature, readings = state["prev_signature"]
            self._prev_signature = (
                float(measured),
                float(temperature),
                tuple(float(r) for r in readings),
            )
        self._history = deque(
            (float(v) for v in state["history"]), maxlen=self.config.window
        )
        if state["last_good_power"] is not None:
            self._last_good_power = float(state["last_good_power"])
        if state["last_good_events"] is not None:
            self._last_good_events = [
                EventVector(values) for values in state["last_good_events"]
            ]
        self.quality_counts = {
            quality: int(state["quality_counts"].get(quality, 0))
            for quality in (GOOD, REPAIRED, BAD)
        }

    # -- stages ---------------------------------------------------------------

    def _robust_interval_power(
        self, readings: List[float]
    ) -> Tuple[Optional[float], List[str]]:
        """Mean of readings that survive validation + spike rejection."""
        cfg = self.config
        issues: List[str] = []
        valid = [
            r
            for r in readings
            if math.isfinite(r) and cfg.min_reading_w <= r <= cfg.max_reading_w
        ]
        if len(valid) < len(readings):
            issues.append("drop")
        if not valid:
            return None, issues + ["no-readings"]
        med = _median(valid)
        factor = cfg.reading_outlier_factor
        kept = [r for r in valid if med / factor <= r <= med * factor]
        if len(kept) < len(valid):
            issues.append("spike")
        if not kept:
            return None, issues + ["no-readings"]
        return sum(kept) / len(kept), issues

    def _window_gate(self, power: float) -> Tuple[float, bool]:
        """Repair gross deviations from the median of recent intervals."""
        if len(self._history) < 3:
            return power, False
        med = _median(list(self._history))
        factor = self.config.interval_outlier_factor
        if med > 0 and (power > med * factor or power < med / factor):
            return med, True
        return power, False

    def _validate_counters(
        self, sample: IntervalSample, stale: bool
    ) -> Tuple[List[EventVector], List[str]]:
        """Per-core counter sanity; last-good fallback per bad core."""
        issues: List[str] = []
        events = list(sample.core_events)
        for c, vec in enumerate(events):
            values = vec.as_list()
            implausible = any(
                not math.isfinite(v) or v < 0.0 or v > self._max_count
                for v in values
            )
            if implausible or stale:
                if self._last_good_events is not None:
                    events[c] = self._last_good_events[c]
                else:
                    events[c] = EventVector.zeros()
                if implausible:
                    issues.append("counters")
        return events, issues
