"""Newline-JSON telemetry ingestion front-ends.

Two ways into the :class:`~repro.serve.manager.ShardManager`:

- :class:`Ingestor` -- an asyncio TCP server.  Each connection streams
  ``telemetry`` lines (see :mod:`repro.serve.protocol`) and receives one
  response line per request line: ``accepted``, ``retry`` (shard queue
  full -- bounded-queue backpressure, the sender must resend), ``shed``
  (shard degraded; carries the node's held decision), ``duplicate``
  (already-accepted ``seq``; not re-applied), or ``error`` (malformed /
  unroutable; resending is pointless).
- :func:`ingest_lines` / :func:`ingest_lines_async` -- the stdin path: a
  loop over an iterable of lines that *absorbs* backpressure by waiting
  and redelivering, for ``some-producer | ppep-repro serve --stdin``.

The TCP front-end assumes a hostile network: oversized lines are
answered with one ``error`` line and skipped (never buffered
unboundedly, and the connection survives), invalid UTF-8 or broken JSON
is an ``error`` line, and a partial line at EOF gets a final ``error``
response instead of being silently dropped or crashing the handler.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.serve.manager import ShardManager
from repro.serve.protocol import (
    DUPLICATE,
    ERROR,
    RETRY,
    SHED,
    ProtocolError,
    decode_line,
    parse_telemetry,
    response,
)

__all__ = ["Ingestor", "ingest_lines", "ingest_lines_async"]

logger = logging.getLogger(__name__)

#: Refuse lines beyond this size instead of buffering them (a sample
#: payload for an 8-core chip is a few KB; 1 MB is already nonsense).
MAX_LINE_BYTES = 1 << 20


class IngestStats:
    """Line counters shared by both ingestion front-ends."""

    def __init__(self) -> None:
        self.lines = 0
        self.accepted = 0
        self.retried = 0
        self.duplicates = 0
        self.sheds = 0
        self.errors = 0

    def as_dict(self) -> dict:
        """The counters as a plain dict (for logs and service stats)."""
        return {
            "lines": self.lines,
            "accepted": self.accepted,
            "retried": self.retried,
            "duplicates": self.duplicates,
            "sheds": self.sheds,
            "errors": self.errors,
        }


class _LineAssembler:
    """Split a byte stream into newline-terminated lines, defensively.

    Unlike ``StreamReader.readline`` with a ``limit`` -- whose overrun
    handling discards buffered data in ways that can eat the *next*
    line's start -- this assembler has an explicit skip-until-newline
    state: an oversized line is reported exactly once (so the sender
    gets exactly one ``error`` response for it), its bytes are dropped
    as they arrive without ever holding more than one chunk beyond the
    limit, and framing resumes cleanly at the next newline.
    """

    def __init__(self, max_line_bytes: int = MAX_LINE_BYTES) -> None:
        self.max_line_bytes = int(max_line_bytes)
        self._buf = bytearray()
        self._skipping = False

    def feed(self, chunk: bytes) -> List[Tuple[str, bytes]]:
        """Consume one chunk; returns ``("line"|"oversized", data)`` events."""
        events: List[Tuple[str, bytes]] = []
        self._buf += chunk
        while True:
            newline = self._buf.find(b"\n")
            if self._skipping:
                if newline < 0:
                    self._buf.clear()
                    break
                del self._buf[: newline + 1]
                self._skipping = False
                continue
            if newline < 0:
                if len(self._buf) > self.max_line_bytes:
                    self._buf.clear()
                    self._skipping = True
                    events.append(("oversized", b""))
                break
            line = bytes(self._buf[:newline])
            del self._buf[: newline + 1]
            if len(line) > self.max_line_bytes:
                events.append(("oversized", b""))
            else:
                events.append(("line", line))
        return events

    def eof(self) -> Optional[bytes]:
        """The unterminated partial line left at EOF, if any."""
        if self._skipping or not self._buf:
            return None
        return bytes(self._buf)


def _handle_line(manager: ShardManager, line: bytes, stats: IngestStats) -> dict:
    """Validate and route one request line; returns the response payload.

    The request's ``node`` and ``seq`` (when present and well-formed
    enough to read) are echoed into the response -- including ``error``
    responses -- so a resilient client can match responses to in-flight
    sends.  ``seq`` alone is ambiguous: per-node counters advance in
    lockstep across a fleet, so two nodes' lines routinely share a
    sequence number and only the ``(node, seq)`` pair names a request.
    """
    stats.lines += 1
    echo = {}
    try:
        obj = decode_line(line)
        raw_seq = obj.get("seq")
        if isinstance(raw_seq, int) and not isinstance(raw_seq, bool):
            echo["seq"] = raw_seq
        raw_node = obj.get("node")
        if isinstance(raw_node, str) and raw_node:
            echo["node"] = raw_node
        event = parse_telemetry(obj)
        payload = manager.submit(event)
    except ProtocolError as exc:
        stats.errors += 1
        payload = {"status": ERROR, "reason": str(exc)}
    else:
        status = payload["status"]
        if status == RETRY:
            stats.retried += 1
        elif status == DUPLICATE:
            stats.duplicates += 1
        elif status == SHED:
            stats.sheds += 1
        else:
            stats.accepted += 1
    if echo:
        payload = dict(payload)
        payload.update(echo)
    return payload


class Ingestor:
    """Asyncio newline-JSON telemetry server in front of a shard manager.

    Per request line the client gets exactly one JSON response line; the
    socket stays open for the life of the stream, so a node agent holds
    one connection and pipelines its intervals.
    """

    def __init__(
        self,
        manager: ShardManager,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self.stats = IngestStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self.connections = 0

    async def start(self) -> None:
        """Bind and start serving (resolves a port-0 request)."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
        )
        # Port 0 means "pick one"; publish what the OS picked.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting connections and close the listener."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: one response line per request line."""
        self.connections += 1
        assembler = _LineAssembler(MAX_LINE_BYTES)
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    tail = assembler.eof()
                    if tail is not None and tail.strip():
                        # A connection torn mid-line: the fragment can
                        # never be a complete request, so answer it
                        # (best effort -- the peer is likely gone).
                        self.stats.lines += 1
                        self.stats.errors += 1
                        writer.write(
                            response(
                                ERROR,
                                reason="partial line at EOF (missing newline)",
                            )
                        )
                        await writer.drain()
                    break
                for kind, line in assembler.feed(chunk):
                    if kind == "oversized":
                        self.stats.lines += 1
                        self.stats.errors += 1
                        writer.write(
                            response(
                                ERROR,
                                reason="line exceeds {} byte limit".format(
                                    MAX_LINE_BYTES
                                ),
                            )
                        )
                        await writer.drain()
                        continue
                    if not line.strip():
                        continue
                    payload = _handle_line(self.manager, line, self.stats)
                    writer.write(response(**payload))
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


def _prepare_line(raw, stats: IngestStats) -> Optional[dict]:
    """Decode/validate one stdin line; ``None`` when skipped or rejected."""
    if isinstance(raw, str):
        raw = raw.encode("utf-8")
    if not raw.strip():
        return None
    stats.lines += 1
    try:
        return parse_telemetry(decode_line(raw))
    except ProtocolError as exc:
        stats.errors += 1
        logger.warning("rejected telemetry line: %s", exc)
        return None


def _account_delivered(payload: dict, stats: IngestStats) -> None:
    """Count one terminally-delivered submission outcome."""
    if payload["status"] == DUPLICATE:
        stats.duplicates += 1
    else:
        stats.accepted += 1


def _stuck(max_redeliveries: int, waited_s: float) -> RuntimeError:
    """The give-up error for a line the shards never accepted."""
    return RuntimeError(
        "shard queue stayed full for {} redeliveries ({:.1f}s of "
        "back-off); the worker is stuck or dead".format(
            max_redeliveries, waited_s
        )
    )


def _redeliver(
    manager: ShardManager,
    lines: Iterable[bytes],
    stats: IngestStats,
    max_redeliveries: int,
    max_wait_s: float,
) -> Iterator[float]:
    """The stdin redelivery loop; yields every back-off wait.

    The caller waits out each yielded delay (blocking or awaited) before
    resuming, and the next delivery attempt follows.
    """
    for raw in lines:
        event = _prepare_line(raw, stats)
        if event is None:
            continue
        waited = 0.0
        for attempt in range(max_redeliveries):
            try:
                payload = manager.submit(event)
            except ProtocolError as exc:
                stats.errors += 1
                logger.warning("unroutable telemetry line: %s", exc)
                break
            status = payload["status"]
            if status not in (RETRY, SHED):
                _account_delivered(payload, stats)
                break
            if status == SHED:
                stats.sheds += 1
            else:
                stats.retried += 1
            manager.ensure_alive()
            manager.poll()
            wait = float(payload.get("retry_after_s", manager.retry_after_s))
            if waited + wait > max_wait_s:
                raise _stuck(attempt + 1, waited)
            waited += wait
            yield wait
        else:
            raise _stuck(max_redeliveries, waited)


def ingest_lines(
    manager: ShardManager,
    lines: Iterable[bytes],
    max_redeliveries: int = 1000,
    sleep=time.sleep,
    max_wait_s: float = 60.0,
) -> IngestStats:
    """Synchronously feed an iterable of telemetry lines (stdin mode).

    There is no channel to push a retry back to a pipe, so this loop
    owns redelivery: a backpressured (``retry``) or load-shed (``shed``)
    line is re-submitted after the shard's suggested back-off, up to
    ``max_redeliveries`` times and at most ``max_wait_s`` of cumulative
    waiting per line.  The retry counter then reflects deliveries
    *absorbed*, and every well-formed line is eventually accepted -- the
    no-silent-drop property, stated for pipes.
    """
    stats = IngestStats()
    for wait in _redeliver(manager, lines, stats, max_redeliveries, max_wait_s):
        sleep(wait)
    return stats


async def ingest_lines_async(
    manager: ShardManager,
    lines: Iterable[bytes],
    max_redeliveries: int = 1000,
    max_wait_s: float = 60.0,
) -> IngestStats:
    """Asyncio flavour of :func:`ingest_lines`.

    Identical redelivery semantics, but the back-off waits are
    ``await asyncio.sleep`` so a co-scheduled supervision loop (worker
    watchdog, heartbeat checks) keeps running while a full shard queue
    drains -- a blocking ``time.sleep`` here would stall the very
    watchdog that unsticks the queue.
    """
    stats = IngestStats()
    for wait in _redeliver(manager, lines, stats, max_redeliveries, max_wait_s):
        await asyncio.sleep(wait)
    return stats
