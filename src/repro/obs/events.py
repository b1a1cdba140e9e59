"""Schema-versioned JSON-lines event emission.

Everything noteworthy the online pipeline does becomes one JSON object
per line: per-interval prediction records (the ledger rows), model
retrains, VF transitions, telemetry-filter verdicts, quarantine
enter/exit, cap reallocations, and drift flags.  Downstream tooling --
the ``ppep-repro obs`` report, dashboards, tests -- parses these lines
by field name, so the schema is versioned and validated at emission
time: an unknown event type or a missing required field raises instead
of producing a record nobody can rely on.

Every event carries:

- ``v``      -- the schema version (:data:`SCHEMA_VERSION`);
- ``type``   -- one of :data:`EVENT_TYPES`;
- ``node``   -- the emitting node's name (``"node0"`` for single-chip);
- ``interval`` -- the decision-interval index the event belongs to;

plus the per-type required fields of :data:`EVENT_FIELDS` and any extra
keyword fields the emitter chooses to attach.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "EVENT_FIELDS",
    "EventLog",
    "read_events",
    "validate_event",
]

#: Version 2 added the ``telemetry`` ingestion event (the wire format of
#: ``repro.serve``); version 3 added the service-resilience events
#: (``decision``, ``shard_restart``, ``shard_degraded``,
#: ``shard_recovered``); version 4 added the backend-health events
#: (``backend_retry``, ``backend_degraded``, ``backend_quarantine``).
#: Older files remain readable.
SCHEMA_VERSION = 4

#: Required fields per event type (beyond the common v/type/node/interval).
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    # One ledger row: what PPEP predicted for this interval at the VF it
    # chose, and what the platform then measured.
    "prediction": (
        "vf_index",
        "predicted_power",
        "measured_power",
        "error",
    ),
    # A model (re)train completed for a chip SKU.
    "model_retrain": ("spec", "seconds"),
    # A controller moved a compute unit (or the whole chip) to a new VF.
    "vf_transition": ("from_vf", "to_vf"),
    # The telemetry filter flagged a delivered interval (REPAIRED/BAD).
    # GOOD verdicts are not emitted: the per-interval prediction row
    # already carries its quality, and events record anomalies.
    "filter_verdict": ("quality", "issues"),
    # A fleet node crossed the bad-streak threshold and was quarantined.
    "quarantine_enter": ("bad_streak",),
    # A quarantined node delivered actionable telemetry again.
    "quarantine_exit": ("quarantined_intervals",),
    # The cluster manager re-split the power budget across nodes.
    "cap_reallocation": ("budget_w", "healthy_nodes", "total_nodes"),
    # The CUSUM detector flagged online error leaving the calibration band.
    "drift": ("statistic", "threshold", "rolling_mae"),
    # One delivered interval of per-node telemetry, as ingested by the
    # ``repro.serve`` front-end.  ``sample`` is the wire-format payload
    # (see :mod:`repro.serve.protocol`); ``sku`` routes it to a shard.
    "telemetry": ("sku", "sample"),
    # One applied VF decision for a delivered interval -- the unit of
    # the exactly-once contract: under chaos the post-dedup decision
    # stream must be bit-identical to the chaos-free run.
    "decision": ("sku", "vf_index", "delivery_index"),
    # A shard worker died (SIGKILL, crash) and the manager re-forked it.
    "shard_restart": ("sku", "restarts", "inflight_requeued"),
    # A shard stopped heartbeating / backlogged: the service holds each
    # node's last-safe VF decision and sheds load until it recovers.
    "shard_degraded": ("sku", "reason"),
    # A degraded shard caught back up; normal admission resumed.
    "shard_recovered": ("sku", "degraded_s"),
    # A guarded backend read failed transiently and was retried
    # (``reason``: timeout / io / actuate-vf / actuate-pg).
    "backend_retry": ("reason", "attempt"),
    # A guarded read exhausted its retries (or failed persistently) and
    # the guard redelivered the last-good payload as a stale sample
    # (``reason``: the error classification -- transient / persistent /
    # stuck -- or the actuation surface that gave up).
    "backend_degraded": ("reason", "streak"),
    # The guard crossed its degraded-streak threshold and quarantined
    # the backend (single-probe mode), or a probe succeeded and the
    # backend left quarantine (``action``: enter / exit).
    "backend_quarantine": ("action", "streak"),
}

EVENT_TYPES: Tuple[str, ...] = tuple(sorted(EVENT_FIELDS))


def validate_event(type: str, fields: dict) -> None:
    """Raise ``ValueError`` unless ``fields`` satisfies ``type``'s schema.

    Shared by :meth:`EventLog.emit` and the ``repro.serve`` ingestion
    front-end, which validates every received telemetry line against the
    same schema before routing it to a shard.
    """
    required = EVENT_FIELDS.get(type)
    if required is None:
        raise ValueError(
            "unknown event type {!r}; known types: {}".format(
                type, ", ".join(EVENT_TYPES)
            )
        )
    for f in required:
        if f not in fields:
            missing = [f for f in required if f not in fields]
            raise ValueError(
                "event {!r} missing required fields: {}".format(
                    type, ", ".join(missing)
                )
            )


class EventLog:
    """An append-only JSONL event sink (in memory, or on disk).

    With ``path=None`` every event stays in :attr:`records` -- memory
    is the only sink, the configuration for tests and benchmarks.  With
    a path, :attr:`records` holds only the events not yet written: each
    :meth:`flush` appends them to the file (one JSONL line each) and
    empties the list, so a long-running log costs memory for one flush
    period, not for its whole history.  The handle is opened lazily and
    a flush happens every ``flush_every`` events and always in
    :meth:`close`, keeping the OS syscall cost off the per-interval hot
    path.  Pass ``flush_every=1`` to flush after every event -- the
    crash-debugging configuration, where even a SIGKILL'd run leaves
    every emitted line on disk.

    Deferring the file writes to the flush points (rather than writing
    eagerly into a userspace buffer) is what lets a caller tie the file
    contents to an external durability boundary: the shard worker
    flushes only after a successful checkpoint and uses :meth:`abort`
    on an exit whose final checkpoint did not land, so the on-disk
    event stream never runs ahead of the durable state it describes.
    """

    def __init__(self, path: Optional[str] = None, flush_every: int = 64) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = path
        self.flush_every = int(flush_every)
        self.records: List[dict] = []
        self._handle = None

    def emit(self, type: str, node: str = "node0", interval: int = 0, **fields) -> dict:
        """Validate and record one event (written out at the next flush)."""
        validate_event(type, fields)
        # The kwargs dict is fresh per call: stamp the common fields into
        # it directly rather than building and merging a second dict
        # (this runs once per decision interval on the hot path).
        event = fields
        event["v"] = SCHEMA_VERSION
        event["type"] = type
        event["node"] = node
        event["interval"] = int(interval)
        self.records.append(event)
        if self.path is not None and len(self.records) >= self.flush_every:
            self.flush()
        return event

    def flush(self) -> None:
        """Write the pending records to the file, push them to the OS,
        and drop them from memory."""
        if self.path is None or not self.records:
            return
        if self._handle is None:
            # Pinned encoding: a ledger written under a non-UTF-8 locale
            # must still read back identically on any other machine.
            self._handle = open(self.path, "a", encoding="utf-8")
        for event in self.records:
            self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self.records.clear()
        self._handle.flush()

    def close(self) -> None:
        """Flush and release the file handle (safe to call twice).

        Always run this (or use the log as a context manager) on every
        exit path: pending events live only in memory until flushed.
        """
        self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def abort(self) -> None:
        """Release the file handle *discarding* the pending tail.

        The already-flushed prefix of the file is untouched; records
        emitted since the last flush are dropped, from the file and
        from memory.  This is the exit path for a caller whose flush
        discipline is tied to checkpoints and whose final checkpoint
        was vetoed or failed: persisting the tail would let the event
        file run ahead of the durable state, and a restart that replays
        from that state would then append duplicates.  An in-memory log
        has no tail to discard and keeps its records.
        """
        if self.path is not None:
            self.records.clear()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __len__(self) -> int:
        """Events held in memory (for a file-backed log, the unwritten tail)."""
        return len(self.records)

    def of_type(self, type: str) -> List[dict]:
        """The held events of one type, in emission order."""
        return [e for e in self.records if e["type"] == type]


def read_events(path: str) -> Iterator[dict]:
    """Parse and validate a JSONL event file.

    Each line must be a JSON object of a schema no newer than
    :data:`SCHEMA_VERSION` that passes :func:`validate_event`; the
    first line that is not raises ``ValueError("path:line: reason")``.
    """
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    "{}:{}: not valid JSON ({})".format(path, line_no, exc)
                )
            if not isinstance(event, dict):
                raise ValueError(
                    "{}:{}: not a JSON object".format(path, line_no)
                )
            version = event.get("v")
            if version is None or version > SCHEMA_VERSION:
                raise ValueError(
                    "{}:{}: event schema version {!r} is newer than "
                    "supported version {}".format(
                        path, line_no, version, SCHEMA_VERSION
                    )
                )
            try:
                validate_event(event.get("type"), event)
            except ValueError as exc:
                raise ValueError("{}:{}: {}".format(path, line_no, exc)) from None
            yield event
