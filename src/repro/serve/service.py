"""The long-running prediction service: wiring and entry points.

Glues the serve stack together::

    telemetry source ──lines──> Ingestor ──submit──> ShardManager
         (TCP / stdin)                              │ bounded queues
                                                    ▼ fork()ed workers
                                       ShardPipeline per SKU
                                       (filter → PPEP → ledger → capping)
                                       + Checkpointer (period / SIGTERM)

Three front doors:

- ``mode="loopback"`` -- the self-contained demo and benchmark: a
  simulated fleet streams its telemetry through a real TCP socket into
  the real shard workers, honoring backpressure, for a fixed number of
  intervals.
- ``mode="listen"`` -- the production shape: serve the socket until
  SIGTERM/SIGINT, then drain, checkpoint, and exit.
- ``mode="stdin"`` -- pipe newline-JSON telemetry in, e.g.
  ``replayer | ppep-repro serve --stdin``.

On every exit path the workers snapshot their pipelines, so the next
start resumes with drift history, quarantine state, and budget
allocations intact.
"""

from __future__ import annotations

import asyncio
import logging
import signal
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.ppep import stable_seed
from repro.fleet.registry import ModelRegistry
from repro.fleet.simulator import FleetSimulator, make_fleet
from repro.hardware.microarch import FX8320_SPEC, PHENOM_II_SPEC
from repro.serve.ingest import Ingestor, ingest_lines_async
from repro.serve.manager import ShardManager, ShardSpec
from repro.serve.protocol import (
    ACCEPTED,
    DUPLICATE,
    RETRY,
    SHED,
    decode_line,
    telemetry_line,
)

__all__ = ["SKU_SPECS", "ServeConfig", "build_shards", "make_sources", "run_service"]

logger = logging.getLogger(__name__)

#: The SKU keys telemetry lines carry, mapped to their chip specs.
SKU_SPECS = {
    "fx8320": FX8320_SPEC,
    "phenom": PHENOM_II_SPEC,
}


@dataclass
class ServeConfig:
    """Everything the service needs to come up."""

    #: SKU shards to run (keys of :data:`SKU_SPECS`).
    skus: Sequence[str] = ("fx8320", "phenom")
    nodes_per_sku: int = 2
    #: Loopback mode: intervals streamed per node.
    intervals: int = 100
    #: Bounded shard-queue depth (backpressure threshold).
    queue_size: int = 64
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 64
    events_dir: Optional[str] = None
    budget_per_node_w: float = 90.0
    policy: str = "proportional"
    unhealthy_after: int = 3
    host: str = "127.0.0.1"
    #: 0 = let the OS pick (the bound port is reported in the stats).
    port: int = 0
    base_seed: int = 20141213

    def __post_init__(self) -> None:
        unknown = [sku for sku in self.skus if sku not in SKU_SPECS]
        if unknown:
            raise ValueError(
                "unknown SKUs {}; choose from {}".format(
                    unknown, sorted(SKU_SPECS)
                )
            )
        if self.nodes_per_sku < 1:
            raise ValueError("nodes_per_sku must be >= 1")


def build_shards(
    registry: ModelRegistry, config: ServeConfig
) -> Tuple[List[ShardSpec], Dict[str, FleetSimulator]]:
    """One :class:`ShardSpec` per SKU, plus per-SKU simulated fleets.

    The fleets serve as the loopback telemetry source; node names are
    prefixed with the SKU (``fx8320-n00``) so a name alone routes a
    line to its shard.
    """
    shards: List[ShardSpec] = []
    fleets: Dict[str, FleetSimulator] = {}
    for sku in config.skus:
        spec = SKU_SPECS[sku]
        fleet = make_fleet(
            [spec] * config.nodes_per_sku,
            registry,
            base_seed=stable_seed(config.base_seed, "serve", sku),
        )
        for i, node in enumerate(fleet.nodes):
            node.name = "{}-n{:02d}".format(sku, i)
        shards.append(
            ShardSpec(
                sku=sku,
                spec=spec,
                ppep=registry.get(spec),
                node_names=[node.name for node in fleet.nodes],
                budget_w=config.budget_per_node_w * config.nodes_per_sku,
                policy=config.policy,
                unhealthy_after=config.unhealthy_after,
            )
        )
        fleets[sku] = fleet
    return shards, fleets


def make_sources(
    fleets: Dict[str, FleetSimulator], intervals: int
) -> Iterator[bytes]:
    """Interleaved wire lines from the simulated fleets.

    Every interval each fleet steps once and every node emits one
    ``telemetry`` line, so shards receive traffic concurrently -- the
    shape a real deployment produces.
    """
    for k in range(intervals):
        for sku, fleet in fleets.items():
            samples = fleet.step()
            for node, sample in zip(fleet.nodes, samples):
                yield telemetry_line(node.name, sku, k, sample)


async def stream_lines(
    host: str,
    port: int,
    lines: Iterator[bytes],
    stop_event: Optional[asyncio.Event] = None,
    max_redeliveries: int = 1000,
) -> dict:
    """Send lines over TCP, honoring per-line responses.

    A ``retry`` (or ``shed``) response backs off for the server's
    suggested delay and redelivers the same line -- the client half of
    the bounded-queue contract.  A ``duplicate`` counts as delivered:
    the server already holds that interval.  Returns delivery counters.
    (For reconnects, spooling, and exactly-once across transport faults,
    use :class:`repro.serve.client.ResilientClient` instead.)
    """
    reader, writer = await asyncio.open_connection(host, port)
    sent = accepted = retried = errors = 0
    try:
        for line in lines:
            if stop_event is not None and stop_event.is_set():
                break
            for _attempt in range(max_redeliveries):
                writer.write(line)
                await writer.drain()
                sent += 1
                payload = decode_line(await reader.readline())
                status = payload.get("status")
                if status in (ACCEPTED, DUPLICATE):
                    accepted += 1
                    break
                if status in (RETRY, SHED):
                    retried += 1
                    await asyncio.sleep(payload.get("retry_after_s", 0.05))
                    continue
                errors += 1
                logger.warning("server rejected line: %s", payload)
                break
            else:
                raise RuntimeError(
                    "line refused {} times; shard stuck".format(max_redeliveries)
                )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return {
        "sent": sent,
        "accepted": accepted,
        "retried": retried,
        "errors": errors,
    }


async def _run_loopback(
    manager: ShardManager, config: ServeConfig, fleets: Dict[str, FleetSimulator]
) -> dict:
    ingestor = Ingestor(manager, host=config.host, port=config.port)
    await ingestor.start()
    stop_event = asyncio.Event()
    _install_stop_handlers(stop_event)
    watchdog = asyncio.ensure_future(_watch_workers(manager, stop_event))
    try:
        client = await stream_lines(
            ingestor.host,
            ingestor.port,
            make_sources(fleets, config.intervals),
            stop_event=stop_event,
        )
    finally:
        stop_event.set()
        await watchdog
        await ingestor.stop()
    return {"client": client, "ingest": ingestor.stats.as_dict()}


async def _run_listen(manager: ShardManager, config: ServeConfig) -> dict:
    ingestor = Ingestor(manager, host=config.host, port=config.port)
    await ingestor.start()
    stop_event = asyncio.Event()
    _install_stop_handlers(stop_event)
    logger.info("serving telemetry on %s:%d", ingestor.host, ingestor.port)
    print(
        "listening on {}:{} ({} shards)".format(
            ingestor.host, ingestor.port, len(manager.shards)
        ),
        flush=True,
    )
    watchdog = asyncio.ensure_future(_watch_workers(manager, stop_event))
    await stop_event.wait()
    await watchdog
    await ingestor.stop()
    return {"ingest": ingestor.stats.as_dict()}


async def _run_stdin(manager: ShardManager, source) -> dict:
    """The stdin lifecycle: feed lines with the watchdog co-scheduled.

    ``ingest_lines_async`` waits with ``await asyncio.sleep`` on
    backpressure, so the watchdog keeps restarting dead workers and
    checking heartbeats while a full queue drains -- the property that
    makes the stdin path survive a worker crash mid-pipe.
    """
    stop_event = asyncio.Event()
    _install_stop_handlers(stop_event)
    watchdog = asyncio.ensure_future(_watch_workers(manager, stop_event))
    try:
        stats = await ingest_lines_async(manager, source)
    finally:
        stop_event.set()
        await watchdog
    return {"ingest": stats.as_dict()}


async def _watch_workers(
    manager: ShardManager, stop_event: asyncio.Event, period_s: float = 0.5
) -> None:
    """Supervision loop: restart dead workers, drain progress reports,
    and degrade shards whose heartbeats have stalled."""
    while not stop_event.is_set():
        manager.ensure_alive()
        manager.poll()
        manager.check_heartbeats()
        try:
            await asyncio.wait_for(stop_event.wait(), timeout=period_s)
        except asyncio.TimeoutError:
            continue


def _install_stop_handlers(stop_event: asyncio.Event) -> None:
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop_event.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            signal.signal(signum, lambda _s, _f: stop_event.set())


def run_service(
    registry: ModelRegistry,
    config: ServeConfig,
    mode: str = "loopback",
    stdin=None,
) -> dict:
    """Bring the service up, run one lifecycle, and drain it cleanly.

    Returns a report dict: per-shard processed/accepted/retried
    counters, checkpoint/restart counts, wall time, and throughput.
    Whatever the exit path -- intervals exhausted, SIGTERM, a broken
    source -- the workers checkpoint before the call returns.
    """
    if mode not in ("loopback", "listen", "stdin"):
        raise ValueError("unknown serve mode {!r}".format(mode))
    shards, fleets = build_shards(registry, config)
    manager = ShardManager(
        shards,
        queue_size=config.queue_size,
        checkpoint_dir=config.checkpoint_dir,
        checkpoint_every=config.checkpoint_every,
        events_dir=config.events_dir,
    )
    manager.start()
    started = time.perf_counter()
    front: dict = {}
    try:
        if mode == "stdin":
            source = stdin if stdin is not None else sys.stdin.buffer
            front = asyncio.run(_run_stdin(manager, source))
        elif mode == "listen":
            front = asyncio.run(_run_listen(manager, config))
        else:
            front = asyncio.run(_run_loopback(manager, config, fleets))
    finally:
        final = manager.stop()
    elapsed = time.perf_counter() - started
    report = dict(front)
    report.update(final)
    report["elapsed_s"] = elapsed
    report["intervals_per_s"] = (
        final["processed"] / elapsed if elapsed > 0 else 0.0
    )
    return report
