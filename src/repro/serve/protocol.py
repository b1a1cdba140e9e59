"""The streaming telemetry wire protocol.

One delivered decision interval travels as one newline-terminated JSON
object -- a ``telemetry`` event of the versioned obs schema
(:mod:`repro.obs.events`), so the same validation machinery that guards
the JSONL ledgers guards the ingestion socket:

.. code-block:: json

    {"v": 2, "type": "telemetry", "node": "node03", "interval": 41,
     "sku": "fx8320", "sample": {"...": "the IntervalSample payload"}}

The ``sample`` payload carries everything the hardened online pipeline
observes: the ten 20 ms power readings, the per-core counter estimates,
the thermal-diode reading, and the VF/PG operating point.  Hidden
ground-truth fields (``true_power``, per-core instruction counts) are
*optional* -- a real node cannot know them -- and default to the
observable values, which keeps the replay/scoring paths working on both
simulated and foreign telemetry.

Every request line gets exactly one JSON response line:

- ``{"status": "accepted", ...}`` -- queued to the owning SKU shard;
- ``{"status": "retry", "retry_after_s": ...}`` -- the shard queue is
  full; the sender must back off and resend (bounded-queue
  backpressure, never a silent drop);
- ``{"status": "error", "reason": ...}`` -- the line failed schema
  validation or named an unknown node/SKU; resending it is pointless.

Two further statuses support the exactly-once resilient client
(:mod:`repro.serve.client`):

- ``{"status": "duplicate", ...}`` -- the line carried a ``seq`` the
  server already accepted from that node; it was **not** re-applied.
  Redelivery after a lost ack therefore converges to exactly-once.
- ``{"status": "shed", "held_decision": ...}`` -- the owning shard is
  degraded (worker re-forking, heartbeat stall) and the service is
  load-shedding: the interval was not applied, and the response carries
  the node's last-safe VF decision (the ``NodeControl`` hold lifted to
  service level) so the sender can keep operating while it retries.

Requests may carry an optional ``"seq"`` field -- a per-node monotonic
non-negative integer assigned by the client.  Every response echoes the
request's ``seq`` (when present) so a client that reconnects mid-flight
can discard stray responses to requests it no longer tracks.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.hardware.events import EventVector
from repro.hardware.microarch import ChipSpec
from repro.hardware.platform import IntervalSample
from repro.obs.events import SCHEMA_VERSION, validate_event

__all__ = [
    "ACCEPTED",
    "DUPLICATE",
    "ERROR",
    "RETRY",
    "SHED",
    "ProtocolError",
    "decode_line",
    "encode",
    "parse_telemetry",
    "response",
    "sample_from_wire",
    "sample_to_wire",
    "telemetry_line",
]

#: Response statuses.
ACCEPTED = "accepted"
RETRY = "retry"
ERROR = "error"
DUPLICATE = "duplicate"
SHED = "shed"

#: ``sample`` payload fields a sender must provide.
REQUIRED_SAMPLE_FIELDS = (
    "cu_vfs",
    "nb_vf",
    "power_gating",
    "power_samples",
    "measured_power",
    "temperature",
    "core_events",
    "interval_s",
)


class ProtocolError(ValueError):
    """A received line that cannot be turned into a telemetry interval."""


def encode(obj: dict) -> bytes:
    """One wire line: compact JSON plus the newline terminator."""
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def decode_line(line: bytes) -> dict:
    """Parse one received line into a dict (raises :class:`ProtocolError`)."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("not valid JSON ({})".format(exc))
    if not isinstance(obj, dict):
        raise ProtocolError("expected a JSON object per line")
    return obj


def sample_to_wire(sample: IntervalSample) -> dict:
    """The observable portion of ``sample`` as a JSON-ready payload."""
    return {
        "index": sample.index,
        "time": sample.time,
        "cu_vfs": [vf.index for vf in sample.cu_vfs],
        "nb_vf": sample.nb_vf.index,
        "power_gating": bool(sample.power_gating),
        "power_samples": list(sample.power_samples),
        "measured_power": sample.measured_power,
        "temperature": sample.temperature,
        "core_events": [vec.as_list() for vec in sample.core_events],
        "interval_s": sample.interval_s,
    }


def sample_from_wire(payload: dict, spec: ChipSpec) -> IntervalSample:
    """Rebuild an :class:`IntervalSample` from a wire payload.

    Ground-truth-only fields are filled with their observable stand-ins
    (``true_power`` = measured power, ``true_core_events`` = the counter
    estimates, per-core instructions from the counters), so downstream
    consumers that *report* ground truth degrade gracefully on foreign
    telemetry instead of crashing.
    """
    missing = [f for f in REQUIRED_SAMPLE_FIELDS if f not in payload]
    if missing:
        raise ProtocolError(
            "sample payload missing fields: {}".format(", ".join(missing))
        )
    table = spec.vf_table
    try:
        cu_vfs = [table.by_index(int(i)) for i in payload["cu_vfs"]]
        nb_vf = table.by_index(int(payload["nb_vf"]))
    except KeyError as exc:
        raise ProtocolError("unknown VF index {} for {}".format(exc, spec.name))
    if len(cu_vfs) != spec.num_cus:
        raise ProtocolError(
            "payload has {} CU VF states but {} has {} CUs".format(
                len(cu_vfs), spec.name, spec.num_cus
            )
        )
    try:
        core_events = [
            EventVector(values) for values in payload["core_events"]
        ]
    except (TypeError, ValueError) as exc:
        raise ProtocolError("bad core_events payload ({})".format(exc))
    if len(core_events) != spec.num_cores:
        raise ProtocolError(
            "payload has {} core event vectors but {} has {} cores".format(
                len(core_events), spec.name, spec.num_cores
            )
        )
    interval_s = float(payload["interval_s"])
    if interval_s <= 0:
        raise ProtocolError("interval_s must be positive")
    measured = float(payload["measured_power"])
    instructions = payload.get("instructions")
    if instructions is None:
        instructions = [vec.instructions for vec in core_events]
    return IntervalSample(
        index=int(payload.get("index", 0)),
        time=float(payload.get("time", 0.0)),
        cu_vfs=cu_vfs,
        nb_vf=nb_vf,
        power_gating=bool(payload["power_gating"]),
        power_samples=[float(p) for p in payload["power_samples"]],
        measured_power=measured,
        temperature=float(payload["temperature"]),
        core_events=core_events,
        true_core_events=[vec.copy() for vec in core_events],
        instructions=[float(i) for i in instructions],
        true_power=float(payload.get("true_power", measured)),
        interval_s=interval_s,
    )


def telemetry_line(
    node: str, sku: str, interval: int, sample: IntervalSample
) -> bytes:
    """Serialise one node interval as a wire-ready ``telemetry`` line."""
    return encode(
        {
            "v": SCHEMA_VERSION,
            "type": "telemetry",
            "node": node,
            "interval": int(interval),
            "sku": sku,
            "sample": sample_to_wire(sample),
        }
    )


def parse_telemetry(obj: dict) -> dict:
    """Validate one decoded line as a ``telemetry`` event.

    Returns the validated event dict; raises :class:`ProtocolError` on a
    wrong type, a newer schema version, or missing required fields (the
    same checks :func:`repro.obs.events.read_events` and
    :meth:`~repro.obs.events.EventLog.emit` apply).
    """
    if obj.get("type") != "telemetry":
        raise ProtocolError(
            "expected a 'telemetry' event, got type {!r}".format(obj.get("type"))
        )
    version = obj.get("v")
    if version is None or version > SCHEMA_VERSION:
        raise ProtocolError(
            "event schema version {!r} is newer than supported version "
            "{}".format(version, SCHEMA_VERSION)
        )
    fields = {k: v for k, v in obj.items() if k not in ("v", "type", "node", "interval")}
    try:
        validate_event("telemetry", fields)
    except ValueError as exc:
        raise ProtocolError(str(exc))
    if not isinstance(obj.get("sample"), dict):
        raise ProtocolError("'sample' must be an object")
    if not isinstance(obj.get("node"), str) or not obj["node"]:
        raise ProtocolError("'node' must be a non-empty string")
    seq = obj.get("seq")
    if seq is not None:
        if isinstance(seq, bool) or not isinstance(seq, int) or seq < 0:
            raise ProtocolError(
                "'seq' must be a non-negative integer, got {!r}".format(seq)
            )
    return obj


def response(status: str, **fields) -> bytes:
    """One wire-ready response line."""
    payload = {"status": status}
    payload.update(fields)
    return encode(payload)
