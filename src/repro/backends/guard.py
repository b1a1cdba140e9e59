"""Guarded backend reads: bounded retries, degraded mode, quarantine.

:class:`BackendGuard` is the robustness core of the backend boundary.
It wraps any :class:`~repro.backends.base.TelemetryBackend` and turns
the raw fault taxonomy into the three-state policy the rest of the
pipeline already understands:

- **retry** (transient): a :class:`BackendTimeout` or
  :class:`BackendIOError` is retried up to ``config.retries`` times
  with seeded deterministic exponential backoff (the same
  blake2b-keyed jitter as every other schedule in the repo, via
  :func:`repro.determinism.schedule_uniform`);
- **degrade** (retries exhausted, or a persistent error): the guard
  redelivers the last-good payload restamped with an advancing
  index/time and ``faults=("stale",)``.  This is deliberately the
  exact shape of a stale-daemon redelivery: the downstream
  :class:`~repro.faults.filtering.TelemetryFilter` stale-detects it,
  issues a BAD verdict, the node's
  :class:`~repro.fleet.cluster_cap.NodeControl` holds its VF decision,
  and in the fleet and the serve shard it counts the bad streak toward
  quarantine -- the existing machinery absorbs backend failure with no
  new side channel;
- **quarantine** (persistent): after ``config.quarantine_streak``
  consecutive degraded reads the guard stops burning its full retry
  budget and issues a single probe per read until one succeeds.

Error classification is tallied (transient / persistent / stuck --
"stuck" meaning the same error text repeating across degraded reads)
and surfaced through ``repro.obs``: ``backend.guard.*`` metrics and the
schema-versioned ``backend_retry`` / ``backend_degraded`` /
``backend_quarantine`` events.

Deadlines are cooperative: backends raise
:class:`~repro.backends.base.BackendTimeout` when a read misses its
deadline, and the guard *additionally* tallies any call whose
wall-clock time exceeds ``config.timeout_s`` as a slow read
(``backend.guard.slow_reads``) without altering the delivered data --
wall time must never perturb the deterministic stream, so a late
success is still a success.

:class:`~repro.backends.base.EndOfTrace` always propagates untouched:
a finite source running dry is termination, not failure, and must
never be retried into a hang or degraded into an infinite stale tail.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.backends.base import (
    BackendCapabilities,
    BackendError,
    BackendIOError,
    BackendTimeout,
    CapabilityError,
    EndOfTrace,
    TelemetryBackend,
    TraceFormatError,
)
from repro.determinism import schedule_uniform
from repro.hardware.platform import IntervalSample
from repro.hardware.vfstates import VFState
from repro.obs.metrics import get_registry

__all__ = ["BackendGuard", "GuardConfig"]

#: Guard states.
OK = "ok"
DEGRADED = "degraded"
QUARANTINED = "quarantined"

#: Error classifications.
TRANSIENT = "transient"
PERSISTENT = "persistent"
STUCK = "stuck"


@dataclass(frozen=True)
class GuardConfig:
    """Tunables of the guarded read path."""

    #: Per-call deadline, seconds (cooperative; see module docstring).
    timeout_s: float = 0.5
    #: Transient-error retries per read beyond the first attempt.
    retries: int = 3
    #: Exponential backoff envelope between retries, seconds.
    backoff_base_s: float = 0.005
    backoff_max_s: float = 0.1
    #: Consecutive degraded reads before the guard quarantines the
    #: backend (single-probe mode).
    quarantine_streak: int = 3

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.retries < 0:
            raise ValueError("retries cannot be negative")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays cannot be negative")
        if self.quarantine_streak < 1:
            raise ValueError("quarantine_streak must be >= 1")


class BackendGuard(TelemetryBackend):
    """A :class:`TelemetryBackend` that degrades instead of failing.

    Parameters
    ----------
    inner:
        The backend to guard.
    config:
        Retry/backoff/quarantine tunables.
    seed:
        Keys the deterministic backoff jitter.
    node:
        Name stamped on emitted events.
    events:
        Optional :class:`repro.obs.events.EventLog` receiving the
        ``backend_*`` events.
    sleep / clock:
        Injectable timers for tests (default: real time).
    """

    def __init__(
        self,
        inner: TelemetryBackend,
        config: Optional[GuardConfig] = None,
        seed: int = 0,
        node: str = "node0",
        events=None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.inner = inner
        self.config = config or GuardConfig()
        self.seed = int(seed)
        self.node = node
        self.events = events
        self.sleep = sleep
        self.clock = clock
        self.state = OK
        #: Consecutive degraded reads (reset by any successful read).
        self.streak = 0
        #: Tallies: retries, degraded reads, quarantine entries/exits,
        #: actuation failures, slow reads.
        self.stats: Dict[str, int] = {
            "reads": 0,
            "retries": 0,
            "degraded": 0,
            "quarantine_entries": 0,
            "quarantine_exits": 0,
            "actuation_failures": 0,
            "slow_reads": 0,
        }
        #: Degraded-read classifications: transient / persistent / stuck.
        self.classifications: Dict[str, int] = {}
        self._last_good: Optional[IntervalSample] = None
        self._delivered_index: Optional[int] = None
        self._delivered_time = 0.0
        self._backoff_index = 0
        self._last_error_text: Optional[str] = None

    # -- deterministic backoff ------------------------------------------------

    def _jitter(self) -> float:
        index = self._backoff_index
        self._backoff_index += 1
        return 0.5 + schedule_uniform("backend-guard", self.seed, index)

    def _backoff(self, attempt: int) -> float:
        cfg = self.config
        return (
            min(cfg.backoff_base_s * 2.0**attempt, cfg.backoff_max_s)
            * self._jitter()
        )

    # -- instrumented inner calls ---------------------------------------------

    def _timed(self, call):
        started = self.clock()
        try:
            return call()
        finally:
            if self.clock() - started > self.config.timeout_s:
                self.stats["slow_reads"] += 1
                get_registry().counter("backend.guard.slow_reads").inc()

    def _emit(self, type: str, **fields) -> None:
        if self.events is not None:
            interval = 0 if self._delivered_index is None else (
                self._delivered_index + 1
            )
            self.events.emit(type, node=self.node, interval=interval, **fields)

    # -- the guarded read -----------------------------------------------------

    def read_interval(self) -> IntervalSample:
        self.stats["reads"] += 1
        attempts = 1 if self.state == QUARANTINED else self.config.retries + 1
        last_error: Optional[BackendError] = None
        for attempt in range(attempts):
            try:
                sample = self._timed(self.inner.read_interval)
            except (EndOfTrace, CapabilityError, TraceFormatError):
                # Termination and misuse are not failures to absorb.
                raise
            except (BackendTimeout, BackendIOError) as exc:
                last_error = exc
                reason = (
                    "timeout" if isinstance(exc, BackendTimeout) else "io"
                )
                self.stats["retries"] += 1
                get_registry().counter("backend.guard.retries").inc()
                self._emit("backend_retry", reason=reason, attempt=attempt)
                if attempt + 1 < attempts:
                    self.sleep(self._backoff(attempt))
                continue
            except BackendError as exc:
                # Unclassified backend failure: retrying cannot help.
                last_error = exc
                break
            return self._deliver_good(sample)
        return self._degrade(last_error)

    def _deliver_good(self, sample: IntervalSample) -> IntervalSample:
        if self.streak > 0 or self.state != OK:
            if self.state == QUARANTINED:
                self.stats["quarantine_exits"] += 1
                get_registry().counter("backend.guard.quarantine_exits").inc()
                self._emit(
                    "backend_quarantine", action="exit", streak=self.streak
                )
            self.state = OK
            self.streak = 0
            self._last_error_text = None
            get_registry().gauge("backend.guard.streak").set(0)
        self._last_good = sample
        self._delivered_index = sample.index
        self._delivered_time = sample.time
        return sample

    def _degrade(self, error: Optional[BackendError]) -> IntervalSample:
        if self._last_good is None:
            # Nothing to degrade to: fail crisply rather than invent
            # telemetry from thin air.
            raise error if error is not None else BackendError(
                "backend failed before delivering any interval"
            )
        text = str(error) if error is not None else "unknown"
        if self.streak > 0 and text == self._last_error_text:
            classification = STUCK
        elif isinstance(error, (BackendTimeout, BackendIOError)):
            classification = TRANSIENT
        else:
            classification = PERSISTENT
        self._last_error_text = text
        self.classifications[classification] = (
            self.classifications.get(classification, 0) + 1
        )
        self.streak += 1
        self.stats["degraded"] += 1
        get_registry().counter("backend.guard.degraded").inc()
        get_registry().gauge("backend.guard.streak").set(self.streak)
        self._emit(
            "backend_degraded", reason=classification, streak=self.streak
        )
        if self.state != QUARANTINED:
            self.state = DEGRADED
            if self.streak >= self.config.quarantine_streak:
                self.state = QUARANTINED
                self.stats["quarantine_entries"] += 1
                get_registry().counter(
                    "backend.guard.quarantine_entries"
                ).inc()
                self._emit(
                    "backend_quarantine", action="enter", streak=self.streak
                )
        # Redeliver the last-good payload restamped as this interval --
        # the exact shape of a stale-daemon redelivery, which the
        # TelemetryFilter stale-detects into a BAD verdict and the
        # controller/fleet quarantine machinery absorbs.
        assert self._delivered_index is not None
        index = self._delivered_index + 1
        delivered_time = self._delivered_time + self._last_good.interval_s
        delivered = dataclasses.replace(
            self._last_good,
            index=index,
            time=delivered_time,
            faults=("stale",),
        )
        self._delivered_index = index
        self._delivered_time = delivered_time
        return delivered

    # -- guarded actuation ----------------------------------------------------

    def _guarded_actuation(self, label: str, call) -> None:
        for attempt in range(self.config.retries + 1):
            try:
                self._timed(call)
                return
            except (BackendTimeout, BackendIOError):
                self.stats["retries"] += 1
                get_registry().counter("backend.guard.retries").inc()
                self._emit("backend_retry", reason=label, attempt=attempt)
                if attempt < self.config.retries:
                    self.sleep(self._backoff(attempt))
        # A dropped actuation is a hold: the hardware keeps its current
        # state, which is exactly the degraded-mode decision anyway.
        self.stats["actuation_failures"] += 1
        get_registry().counter("backend.guard.actuation_failures").inc()
        self._emit("backend_degraded", reason=label, streak=self.streak)

    def set_vf(self, cu_id: int, vf: VFState) -> None:
        self._guarded_actuation(
            "actuate-vf", lambda: self.inner.set_vf(cu_id, vf)
        )

    def set_power_gating(self, enabled: bool) -> None:
        self._guarded_actuation(
            "actuate-pg", lambda: self.inner.set_power_gating(enabled)
        )

    # -- passthrough ----------------------------------------------------------

    def capabilities(self) -> BackendCapabilities:
        caps = self.inner.capabilities()
        return dataclasses.replace(
            caps, name="guarded({})".format(caps.name)
        )

    def get_vf(self, cu_id: int) -> VFState:
        return self.inner.get_vf(cu_id)

    def get_power_gating(self) -> bool:
        return self.inner.get_power_gating()

    def close(self) -> None:
        self.inner.close()

    # -- reporting ------------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """A snapshot for reports: state, streak, tallies."""
        return {
            "state": self.state,
            "streak": self.streak,
            "stats": dict(self.stats),
            "classifications": dict(self.classifications),
        }
