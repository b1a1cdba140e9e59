"""The prediction ledger: online predicted-vs-realized accounting.

Hofmann et al. (arXiv:1803.01618) show analytic power/energy models
drift badly once the workload leaves the calibration region, and the
PPEP paper itself only reports *offline* cross-validated error.  The
:class:`PredictionLedger` closes that gap: every decision interval it
scores what the model predicted at the chosen VF state against what
the platform then measured, maintains rolling MAE / percentile error
per node and per VF state, and runs a CUSUM detector that flags when
the online error leaves the band established during a calibration
prefix -- the online analogue of "the model no longer matches the
machine it was trained on".

The ledger keeps only these aggregates.  Each row goes to the event
stream as a ``prediction`` event, and :func:`repro.obs.report.replay`
rebuilds a ledger from the stream.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.events import EventLog
from repro.obs.metrics import get_registry

__all__ = [
    "RollingStats",
    "CusumDetector",
    "PredictionLedger",
]


class RollingStats:
    """Rolling mean / percentiles over the last ``window`` values."""

    __slots__ = ("_window", "_values", "_sum", "count", "total_sum")

    def __init__(self, window: int = 32) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self._window = window
        self._values: Deque[float] = deque(maxlen=window)
        self._sum = 0.0
        #: Lifetime observation count / sum (not windowed).
        self.count = 0
        self.total_sum = 0.0

    def add(self, value: float) -> None:
        v = float(value)
        if len(self._values) == self._window:
            self._sum -= self._values[0]
        self._values.append(v)
        self._sum += v
        self.count += 1
        self.total_sum += v

    @property
    def mean(self) -> float:
        """Rolling mean over the window."""
        return self._sum / len(self._values) if self._values else 0.0

    @property
    def lifetime_mean(self) -> float:
        return self.total_sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Exact q-quantile of the window (nearest-rank)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        rank = min(int(math.ceil(q * len(ordered))) - 1, len(ordered) - 1)
        return ordered[max(rank, 0)]

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot; restoring it reproduces every
        subsequent statistic bit-identically (the running ``_sum`` is
        saved rather than recomputed, so incremental rounding history
        survives the round trip)."""
        return {
            "window": self._window,
            "values": list(self._values),
            "sum": self._sum,
            "count": self.count,
            "total_sum": self.total_sum,
        }

    def load_state_dict(self, state: dict) -> None:
        if int(state["window"]) != self._window:
            raise ValueError(
                "checkpoint window {} does not match this instance's "
                "window {}".format(state["window"], self._window)
            )
        self._values = deque(
            (float(v) for v in state["values"]), maxlen=self._window
        )
        self._sum = float(state["sum"])
        self.count = int(state["count"])
        self.total_sum = float(state["total_sum"])


class CusumDetector:
    """One-sided CUSUM on standardized error excursions.

    Calibrate with the (mean, std) of the error series observed while
    the model is known-good; afterwards each :meth:`update` accumulates
    ``S = max(0, S + z - k)`` where ``z`` is the standardized error.
    ``S > h`` flags drift and resets the accumulator, so a persistent
    shift produces a train of flags rather than one saturated alarm.
    The textbook choices k=0.5 (detect shifts ≥ 1 sigma) and h=8 keep
    the in-band false-alarm rate negligible for runs of a few thousand
    intervals.
    """

    __slots__ = ("slack", "threshold", "mean", "std", "statistic")

    def __init__(self, slack: float = 0.5, threshold: float = 8.0) -> None:
        self.slack = float(slack)
        self.threshold = float(threshold)
        self.mean: Optional[float] = None
        self.std: Optional[float] = None
        self.statistic = 0.0

    @property
    def calibrated(self) -> bool:
        return self.mean is not None

    def calibrate(self, mean: float, std: float) -> None:
        """Pin the in-control band; ``std`` is floored to stay usable
        even for an eerily consistent calibration prefix."""
        self.mean = float(mean)
        self.std = max(float(std), 1e-3 * max(abs(mean), 1.0), 1e-9)
        self.statistic = 0.0

    def update(self, value: float) -> bool:
        """Accumulate one error observation; True when drift flags."""
        if self.mean is None:
            raise RuntimeError("detector must be calibrated before update()")
        z = (float(value) - self.mean) / self.std
        self.statistic = max(0.0, self.statistic + z - self.slack)
        if self.statistic > self.threshold:
            self.statistic = 0.0
            return True
        return False

    def state_dict(self) -> dict:
        return {
            "slack": self.slack,
            "threshold": self.threshold,
            "mean": self.mean,
            "std": self.std,
            "statistic": self.statistic,
        }

    def load_state_dict(self, state: dict) -> None:
        self.slack = float(state["slack"])
        self.threshold = float(state["threshold"])
        self.mean = None if state["mean"] is None else float(state["mean"])
        self.std = None if state["std"] is None else float(state["std"])
        self.statistic = float(state["statistic"])


class _NodeState:
    """Per-node rolling windows, calibration buffer, and detector."""

    __slots__ = (
        "abs_stats",
        "rel_stats",
        "calibration",
        "detector",
        "records",
        "gauge_name",
    )

    def __init__(
        self, node: str, window: int, slack: float, threshold: float
    ) -> None:
        self.abs_stats = RollingStats(window)
        self.rel_stats = RollingStats(window)
        self.calibration: List[float] = []
        self.detector = CusumDetector(slack, threshold)
        self.records = 0
        #: Pre-formatted instrument name -- string formatting per record
        #: is measurable at hot-path rates.
        self.gauge_name = "obs.ledger.{}.rolling_mae_w".format(node)


class PredictionLedger:
    """Records online prediction error, per node and per VF state.

    Parameters
    ----------
    window:
        Rolling-window length for MAE / percentile error.
    calibration_intervals:
        How many leading records per node establish the drift
        detector's in-control band.  Alternatively (or additionally)
        call :meth:`set_band` with a band derived from training
        residuals.
    cusum_slack / cusum_threshold:
        The detector's k and h (see :class:`CusumDetector`).
    events:
        Optional :class:`~repro.obs.events.EventLog`; when given, every
        record emits a ``prediction`` event and every detector trip
        emits a ``drift`` event, making the ledger replayable.  The
        ledger itself keeps no rows, only the aggregates below.
    """

    def __init__(
        self,
        window: int = 32,
        calibration_intervals: int = 16,
        cusum_slack: float = 0.5,
        cusum_threshold: float = 8.0,
        events: Optional[EventLog] = None,
    ) -> None:
        if calibration_intervals < 2:
            raise ValueError("calibration needs at least 2 intervals")
        self.window = window
        self.calibration_intervals = calibration_intervals
        self.cusum_slack = cusum_slack
        self.cusum_threshold = cusum_threshold
        self.events = events
        #: (node, interval, statistic) per drift flag, in order.
        self.drift_flags: List[Tuple[str, int, float]] = []
        self._nodes: Dict[str, _NodeState] = {}
        #: Aggregate abs/rel error stats per VF index (across nodes).
        self._per_vf: Dict[int, Tuple[RollingStats, RollingStats]] = {}

    # -- recording -----------------------------------------------------------

    def _node(self, node: str) -> _NodeState:
        state = self._nodes.get(node)
        if state is None:
            state = self._nodes[node] = _NodeState(
                node, self.window, self.cusum_slack, self.cusum_threshold
            )
        return state

    def set_band(self, node: str, mean: float, std: float) -> None:
        """Calibrate ``node``'s drift detector from training residuals
        instead of (or before) the online calibration prefix."""
        self._node(node).detector.calibrate(mean, std)

    def record(
        self,
        node: str,
        interval: int,
        vf_index: int,
        predicted_power: float,
        measured_power: float,
        interval_s: float,
        quality: Optional[str] = None,
    ) -> bool:
        """Ingest one predicted-vs-realized interval; True when it
        flags drift.  The row itself is not kept: it goes to the event
        log as a ``prediction`` event when one is attached."""
        state = self._node(node)
        error = float(predicted_power) - float(measured_power)
        abs_error = abs(error)
        state.abs_stats.add(abs_error)
        denom = abs(measured_power)
        state.rel_stats.add(abs_error / denom if denom > 1e-12 else 0.0)
        state.records += 1

        vf_stats = self._per_vf.get(vf_index)
        if vf_stats is None:
            vf_stats = self._per_vf[vf_index] = (
                RollingStats(self.window),
                RollingStats(self.window),
            )
        vf_stats[0].add(abs_error)
        vf_stats[1].add(abs_error / denom if denom > 1e-12 else 0.0)

        drift = False
        detector = state.detector
        if detector.calibrated:
            drift = detector.update(abs_error)
        else:
            state.calibration.append(abs_error)
            if len(state.calibration) >= self.calibration_intervals:
                mean = sum(state.calibration) / len(state.calibration)
                var = sum((v - mean) ** 2 for v in state.calibration) / len(
                    state.calibration
                )
                detector.calibrate(mean, math.sqrt(var))
                state.calibration = []

        interval = int(interval)
        registry = get_registry()
        if registry.enabled:
            # Skip instrument lookup/formatting wholesale when
            # observability is off -- the fleet kernel benchmark should
            # measure the kernel, not no-op metric plumbing.
            registry.counter("obs.ledger.records").inc()
            registry.gauge(state.gauge_name).set(state.abs_stats.mean)

        if drift:
            self.drift_flags.append((node, interval, self.cusum_threshold))
            if registry.enabled:
                registry.counter("obs.ledger.drift_flags").inc()
        if self.events is not None:
            self.events.emit(
                "prediction",
                node=node,
                interval=interval,
                vf_index=int(vf_index),
                predicted_power=float(predicted_power),
                measured_power=float(measured_power),
                error=error,
                interval_s=float(interval_s),
                quality=quality,
            )
            if drift:
                self.events.emit(
                    "drift",
                    node=node,
                    interval=interval,
                    statistic=self.cusum_threshold,
                    threshold=self.cusum_threshold,
                    rolling_mae=state.abs_stats.mean,
                )
        return drift

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """All decision-relevant state as a JSON-serialisable dict.

        Covers the rolling MAE / relative-error windows, per-node
        calibration buffers, CUSUM accumulators, the per-VF aggregates,
        and the drift-flag history -- everything a restarted service
        needs for its *next* :meth:`record` call to behave bit-
        identically to an uninterrupted run.  Rows are not part of it:
        they live in the JSONL event stream (which survives restarts by
        appending).
        """
        return {
            "window": self.window,
            "calibration_intervals": self.calibration_intervals,
            "cusum_slack": self.cusum_slack,
            "cusum_threshold": self.cusum_threshold,
            "nodes": {
                name: {
                    "abs_stats": state.abs_stats.state_dict(),
                    "rel_stats": state.rel_stats.state_dict(),
                    "calibration": list(state.calibration),
                    "detector": state.detector.state_dict(),
                    "records": state.records,
                }
                for name, state in self._nodes.items()
            },
            "per_vf": {
                str(vf): [stats[0].state_dict(), stats[1].state_dict()]
                for vf, stats in self._per_vf.items()
            },
            "drift_flags": [list(flag) for flag in self.drift_flags],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this ledger.

        The ledger must have been constructed with the same window and
        detector configuration the snapshot was taken under; a mismatch
        raises rather than silently changing drift behaviour mid-stream.
        """
        for attr in (
            "window", "calibration_intervals", "cusum_slack", "cusum_threshold"
        ):
            if state[attr] != getattr(self, attr):
                raise ValueError(
                    "checkpoint {} ({!r}) does not match this ledger's "
                    "configuration ({!r})".format(
                        attr, state[attr], getattr(self, attr)
                    )
                )
        self._nodes = {}
        for name, node_state in state["nodes"].items():
            fresh = self._node(name)
            fresh.abs_stats.load_state_dict(node_state["abs_stats"])
            fresh.rel_stats.load_state_dict(node_state["rel_stats"])
            fresh.calibration = [float(v) for v in node_state["calibration"]]
            fresh.detector.load_state_dict(node_state["detector"])
            fresh.records = int(node_state["records"])
        self._per_vf = {}
        for vf, (abs_state, rel_state) in state["per_vf"].items():
            stats = (RollingStats(self.window), RollingStats(self.window))
            stats[0].load_state_dict(abs_state)
            stats[1].load_state_dict(rel_state)
            self._per_vf[int(vf)] = stats
        self.drift_flags = [
            (str(node), int(interval), float(stat))
            for node, interval, stat in state["drift_flags"]
        ]

    # -- aggregates ----------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def node_mae(self, node: str) -> float:
        """Rolling MAE (watts) of ``node``'s recent predictions."""
        return self._node(node).abs_stats.mean

    def node_percentile(self, node: str, q: float) -> float:
        """q-quantile of recent absolute error, watts."""
        return self._node(node).abs_stats.percentile(q)

    def per_vf_mae(self) -> Dict[int, float]:
        """Rolling MAE (watts) per VF index, across all nodes."""
        return {vf: stats[0].mean for vf, stats in sorted(self._per_vf.items())}

    def per_vf_relative(self) -> Dict[int, float]:
        """Rolling mean relative error per VF index."""
        return {vf: stats[1].mean for vf, stats in sorted(self._per_vf.items())}

    def node_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-node health: record count, rolling MAE/relative error,
        p95 error, and drift-flag count."""
        flags_by_node: Dict[str, int] = {}
        for node, _interval, _stat in self.drift_flags:
            flags_by_node[node] = flags_by_node.get(node, 0) + 1
        out: Dict[str, Dict[str, float]] = {}
        for node in self.nodes:
            state = self._nodes[node]
            out[node] = {
                "records": state.records,
                "rolling_mae_w": state.abs_stats.mean,
                "rolling_rel_err": state.rel_stats.mean,
                "p95_abs_err_w": state.abs_stats.percentile(0.95),
                "drift_flags": flags_by_node.get(node, 0),
            }
        return out
