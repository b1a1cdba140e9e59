"""Trace containers.

A :class:`Trace` wraps the list of
:class:`~repro.hardware.platform.IntervalSample` objects a platform run
produces and exposes the aggregate views the models and experiments
need: measured power arrays, summed event counts, instruction-aligned
segments, and warm-up trimming.

:class:`TraceLibrary` memoises traces by an arbitrary hashable key so
that expensive sweeps (152 combinations x 5 VF states) are simulated
once and shared across experiments within a process.  Given a
``cache_dir`` it additionally persists every trace as one ``.npz`` file
named by a stable key fingerprint
(:func:`repro.analysis.persistence.trace_fingerprint`), so warm-up
survives process restarts: a second run finds each trace on disk and
performs zero new simulations.
"""

from __future__ import annotations

import logging
import os
import zipfile
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence

import numpy as np

from repro.hardware.events import Event, EventVector
from repro.hardware.platform import IntervalSample, INTERVAL_S

__all__ = ["Trace", "TraceLibrary", "INTERVAL_S"]

logger = logging.getLogger(__name__)


class Trace:
    """An ordered sequence of interval samples from one run."""

    def __init__(self, samples: Sequence[IntervalSample], label: str = "") -> None:
        if not samples:
            raise ValueError("a trace needs at least one sample")
        self.samples: List[IntervalSample] = list(samples)
        self.label = label
        first = self.samples[0].interval_s
        for s in self.samples:
            if s.interval_s != first:
                raise ValueError(
                    "trace {!r} mixes interval lengths ({} s and {} s); "
                    "energy and rate aggregation would silently "
                    "mis-scale".format(label, first, s.interval_s)
                )

    @property
    def interval_s(self) -> float:
        """The (uniform) decision-interval length of this trace, seconds."""
        return self.samples[0].interval_s

    # -- basic container behaviour ------------------------------------------

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[IntervalSample]:
        return iter(self.samples)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self.samples[index], self.label)
        return self.samples[index]

    def skip_warmup(self, n: int) -> "Trace":
        """Drop the first ``n`` intervals (thermal / phase warm-up)."""
        if n >= len(self.samples):
            raise ValueError("cannot skip the whole trace")
        return Trace(self.samples[n:], self.label)

    # -- aggregate views -------------------------------------------------------

    def measured_power(self) -> np.ndarray:
        """Per-interval measured (sensor) power, watts."""
        return np.array([s.measured_power for s in self.samples])

    def true_power(self) -> np.ndarray:
        """Per-interval ground-truth power, watts."""
        return np.array([s.true_power for s in self.samples])

    def temperatures(self) -> np.ndarray:
        """Per-interval diode readings, kelvin."""
        return np.array([s.temperature for s in self.samples])

    def times(self) -> np.ndarray:
        """Per-interval end times, seconds."""
        return np.array([s.time for s in self.samples])

    def average_measured_power(self) -> float:
        return float(self.measured_power().mean())

    def total_measured_energy(self) -> float:
        """Measured energy over the whole trace, joules."""
        return float(self.measured_power().sum() * self.interval_s)

    def total_true_energy(self) -> float:
        return float(self.true_power().sum() * self.interval_s)

    def duration(self) -> float:
        """Trace length in seconds."""
        return len(self.samples) * self.interval_s

    # -- event views ----------------------------------------------------------

    def chip_events(self, measured: bool = True) -> List[EventVector]:
        """Per-interval event counts summed over all cores.

        ``measured`` selects the multiplexed counter estimates (what PPEP
        sees); ``False`` selects the exact ground truth.
        """
        result = []
        for sample in self.samples:
            vectors = sample.core_events if measured else sample.true_core_events
            total = EventVector.zeros()
            for vec in vectors:
                total += vec
            result.append(total)
        return result

    def core_events(self, core_id: int, measured: bool = True) -> List[EventVector]:
        """Per-interval event counts of one core."""
        return [
            (s.core_events if measured else s.true_core_events)[core_id]
            for s in self.samples
        ]

    def total_instructions(self) -> float:
        return sum(s.total_instructions() for s in self.samples)

    def instructions_per_interval(self) -> np.ndarray:
        return np.array([s.total_instructions() for s in self.samples])

    # -- instruction-aligned segmentation (Section III methodology) -------------

    def cumulative_instructions(self, core_id: int) -> np.ndarray:
        """Cumulative retired instructions of ``core_id`` at each
        interval end -- the alignment axis for cross-frequency CPI
        comparison (the paper divides traces into segments based on the
        number of instructions completed)."""
        per_interval = np.array([s.instructions[core_id] for s in self.samples])
        return np.cumsum(per_interval)


class TraceLibrary:
    """Memoising trace store keyed by arbitrary hashable keys.

    Purely in-memory by default.  With ``cache_dir`` each trace is also
    written to ``<cache_dir>/trace-<fingerprint>.npz`` and looked up
    there on a memory miss, making the library durable across
    processes; ``spec`` is then required to deserialise (it resolves VF
    indices, exactly as :func:`~repro.analysis.persistence.load_trace`
    documents).  Note the persisted format drops the ground-truth power
    *breakdown* (a debugging aid): a disk round-trip returns samples
    with ``breakdown=None``.

    Cache invalidation is by key content only: any knob that changes
    what a simulation would produce (spec, combo, VF index, seed,
    interval counts) must be part of the key, and the trainer's
    keys include all of them.  Nothing else is versioned -- wiping the
    directory is the escape hatch after a physics change.

    The ``memory_hits`` / ``disk_hits`` / ``misses`` counters make cache
    behaviour observable (tests assert a warm second context simulates
    nothing; benchmarks report cold-vs-warm timings).
    """

    def __init__(
        self, cache_dir: Optional[str] = None, spec=None
    ) -> None:
        if cache_dir is not None and spec is None:
            raise ValueError("a disk-backed TraceLibrary needs the chip spec")
        self._store: Dict[Hashable, Trace] = {}
        self.cache_dir = cache_dir
        self.spec = spec
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)

    def path_for(self, key: Hashable) -> str:
        """The on-disk path a trace with ``key`` persists to."""
        if self.cache_dir is None:
            raise ValueError("library has no cache_dir")
        from repro.analysis.persistence import trace_fingerprint

        return os.path.join(
            self.cache_dir, "trace-{}.npz".format(trace_fingerprint(key))
        )

    def get(self, key: Hashable) -> Optional[Trace]:
        """The cached trace for ``key`` (memory, then disk) or ``None``."""
        trace = self._store.get(key)
        if trace is not None:
            self.memory_hits += 1
            return trace
        if self.cache_dir is not None:
            path = self.path_for(key)
            if os.path.exists(path):
                from repro.analysis.persistence import load_trace

                try:
                    trace = load_trace(path, self.spec)
                except (
                    OSError,
                    ValueError,
                    KeyError,
                    EOFError,
                    zipfile.BadZipFile,
                ) as exc:
                    # A truncated/garbage archive (crashed writer, disk
                    # corruption) is a cache miss, not a fatal error:
                    # evict it so the trace is re-simulated and rewritten.
                    logger.warning(
                        "evicting unreadable trace cache entry %s (%s: %s); "
                        "re-simulating",
                        path,
                        type(exc).__name__,
                        exc,
                    )
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                    return None
                self._store[key] = trace
                self.disk_hits += 1
                return trace
        return None

    def put(self, key: Hashable, trace: Trace) -> None:
        """Cache ``trace`` under ``key`` (and persist it, if disk-backed)."""
        self._store[key] = trace
        if self.cache_dir is not None:
            from repro.analysis.persistence import save_trace

            save_trace(trace, self.path_for(key))

    def get_or_run(self, key: Hashable, producer: Callable[[], Trace]) -> Trace:
        """Return the cached trace for ``key`` or produce and cache it."""
        trace = self.get(key)
        if trace is None:
            self.misses += 1
            trace = producer()
            self.put(key, trace)
        return trace

    def __contains__(self, key: Hashable) -> bool:
        if key in self._store:
            return True
        return self.cache_dir is not None and os.path.exists(self.path_for(key))

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Drop the in-memory store (on-disk files are kept)."""
        self._store.clear()
