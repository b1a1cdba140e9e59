"""SKU-sharded worker processes behind bounded telemetry queues.

:class:`ShardManager` owns one worker process per chip SKU.  Each worker
runs a :class:`~repro.serve.shard.ShardPipeline` (one trained model, the
full hardened pipeline for every node of that SKU) and drains a
*bounded* queue: when a shard falls behind, :meth:`submit` reports
backpressure instead of buffering without limit -- the sender gets an
explicit retry signal and nothing is ever dropped silently.

Workers are forked, so the trained models -- by far the most expensive
state -- arrive through copy-on-write memory.  That makes supervision
cheap: a worker that dies (OOM-killed, segfaulted, SIGKILLed by a test)
is simply re-forked over the same queues and resumes from its shard
checkpoint.

Three service-resilience layers live on top of the queues:

- **Exactly-once admission.**  Requests may carry a per-node monotonic
  ``seq``; the manager keeps a per-node dedup window and answers a
  redelivered, already-accepted sequence number with ``duplicate``
  instead of enqueueing it twice.  Redelivery after a lost ack is
  therefore harmless, which is what lets the client retry aggressively.
- **Zero accepted-then-lost.**  Every enqueued item also enters an
  in-flight ledger ordered by delivery index.  Workers persist a
  ``delivered`` watermark inside their checkpoints and report the last
  durable watermark through heartbeats (which trims the ledger).  When
  a worker dies, the manager reads the watermark from the checkpoint
  file itself and redelivers exactly the ledger suffix at or past it --
  in order, ahead of any new traffic -- so every accepted interval is
  processed exactly once even across SIGKILL + torn-checkpoint storms.
- **Graceful degradation.**  Workers heartbeat; a stalled or freshly
  re-forked shard is marked *degraded*: new submissions are shed with a
  ``shed`` response carrying the node's last-safe VF decision (the
  ``NodeControl`` hold, lifted to service level) instead of stalling
  the fleet.  Recovery is detected from the next live heartbeat and its
  duration is tracked in :meth:`health`.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import queue
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.events import EventLog
from repro.serve.checkpoint import read_checkpoint
from repro.serve.protocol import ACCEPTED, DUPLICATE, RETRY, SHED, ProtocolError
from repro.serve.shard import STOP, shard_worker_main

__all__ = ["ShardManager", "ShardSpec"]

logger = logging.getLogger(__name__)


@dataclass
class ShardSpec:
    """Configuration of one SKU shard (see :class:`~repro.serve.shard.ShardPipeline`)."""

    sku: str
    spec: object
    ppep: object
    node_names: List[str]
    budget_w: Optional[float] = None
    policy: str = "proportional"
    unhealthy_after: int = 3


class _ShardHandle:
    """One worker process plus its queues, ledgers, and health state."""

    def __init__(self, spec: ShardSpec, config: dict, in_queue) -> None:
        self.spec = spec
        self.config = config
        self.in_queue = in_queue
        self.process = None
        self.accepted = 0
        self.retried = 0
        self.duplicates = 0
        self.sheds = 0
        self.restarts = 0
        self.last_stats: dict = {}
        self.final_stats: Optional[dict] = None
        #: Items ever enqueued (the delivery index of the next item).
        self.enqueued = 0
        #: (delivery_index, item) for every item not yet known durable.
        self.inflight: Deque[Tuple[int, dict]] = deque()
        #: Redelivery backlog after a restart; drains ahead of new
        #: traffic so FIFO order (and therefore decisions) is preserved.
        self.pending: Deque[dict] = deque()
        #: Per-node dedup state: {"max": int, "recent": set}.
        self.seqs: Dict[str, dict] = {}
        #: Per-node last-safe VF decision mirrored from heartbeats.
        self.held: Dict[str, Optional[List[int]]] = {}
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        self.degraded_since: Optional[float] = None
        self.recoveries = 0
        self.recovery_s: List[float] = []
        self.last_heartbeat: Optional[float] = None
        #: Checkpoint write failures from finished worker incarnations;
        #: each epoch counts from zero, so the base keeps the lifetime
        #: total honest across restarts.
        self.ckpt_failures_base = 0


class ShardManager:
    """Partitions nodes across per-SKU worker processes.

    Parameters
    ----------
    shards:
        One :class:`ShardSpec` per SKU.  Node names must be globally
        unique -- the node name alone routes a telemetry line.
    queue_size:
        Bounded depth of each shard's telemetry queue.  Full queue =
        backpressure (:meth:`submit` returns a retry payload).
    retry_after_s:
        Back-off hint carried in retry and shed responses.
    checkpoint_dir / checkpoint_every:
        Where shard checkpoints live (``shard-<sku>.json``) and how many
        processed intervals between snapshots.  ``None`` disables
        checkpointing and with it the in-flight redelivery ledger: a
        restarted worker starts cold, and the legacy queue salvage
        carries over only the dead worker's unconsumed backlog.
    events_dir:
        Where per-shard JSONL event streams live (``shard-<sku>.jsonl``)
        plus the manager's own resilience events (``manager.jsonl``).
    heartbeat_timeout_s:
        A live worker silent for longer than this is considered stalled
        and its shard degrades to load-shedding.
    dedup_window:
        How many recent per-node sequence numbers are remembered for
        duplicate detection (far larger than any client's in-flight
        window; a lockstep client needs exactly 1).
    disk_chaos:
        Optional :class:`~repro.chaos.disk.DiskChaos` handed to every
        worker's checkpointer (fault-injection harness only).
    metrics:
        Optional :class:`~repro.obs.metrics.Registry`; when provided the
        manager keeps ``serve_*`` resilience counters up to date.
    """

    def __init__(
        self,
        shards: List[ShardSpec],
        queue_size: int = 256,
        retry_after_s: float = 0.05,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 64,
        events_dir: Optional[str] = None,
        heartbeat_timeout_s: float = 1.0,
        dedup_window: int = 1024,
        disk_chaos=None,
        metrics=None,
    ) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        if dedup_window < 1:
            raise ValueError("dedup_window must be >= 1")
        skus = [shard.sku for shard in shards]
        if len(set(skus)) != len(skus):
            raise ValueError("shard SKUs must be unique")
        self.retry_after_s = float(retry_after_s)
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = int(checkpoint_every)
        self.events_dir = events_dir
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.dedup_window = int(dedup_window)
        self.metrics = metrics
        self.events: Optional[EventLog] = None
        self._ctx = multiprocessing.get_context("fork")
        self._out_queue = self._ctx.Queue()
        self._queue_size = int(queue_size)
        self._stopping = False
        self.shards: Dict[str, _ShardHandle] = {}
        self._node_to_sku: Dict[str, str] = {}
        for shard in shards:
            config = {
                "sku": shard.sku,
                "spec": shard.spec,
                "ppep": shard.ppep,
                "node_names": list(shard.node_names),
                "budget_w": shard.budget_w,
                "policy": shard.policy,
                "unhealthy_after": shard.unhealthy_after,
                "epoch": 0,
                "disk_chaos": disk_chaos,
                "checkpoint_path": (
                    None
                    if checkpoint_dir is None
                    else os.path.join(
                        checkpoint_dir, "shard-{}.json".format(shard.sku)
                    )
                ),
                "checkpoint_every": self.checkpoint_every,
                "events_path": (
                    None
                    if events_dir is None
                    else os.path.join(
                        events_dir, "shard-{}.jsonl".format(shard.sku)
                    )
                ),
            }
            handle = _ShardHandle(
                shard, config, self._ctx.Queue(maxsize=self._queue_size)
            )
            self.shards[shard.sku] = handle
            for name in shard.node_names:
                if name in self._node_to_sku:
                    raise ValueError(
                        "node {!r} appears on more than one shard".format(name)
                    )
                self._node_to_sku[name] = shard.sku

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Fork every shard worker (and open the manager event log)."""
        if self.events_dir is not None:
            os.makedirs(self.events_dir, exist_ok=True)
            if self.events is None:
                # Low-volume lifecycle events: flush each one so crash
                # forensics always see the restart/degrade history.
                self.events = EventLog(
                    os.path.join(self.events_dir, "manager.jsonl"),
                    flush_every=1,
                )
        for handle in self.shards.values():
            self._spawn(handle)

    def _spawn(self, handle: _ShardHandle) -> None:
        handle.config["epoch"] = handle.restarts
        handle.process = self._ctx.Process(
            target=shard_worker_main,
            args=(handle.config, handle.in_queue, self._out_queue),
            name="shard-{}".format(handle.spec.sku),
            daemon=True,
        )
        handle.process.start()
        # Grace period: the stall clock starts at the fork.
        handle.last_heartbeat = time.monotonic()

    def worker_pids(self) -> Dict[str, Optional[int]]:
        """Live worker pids by SKU (``None`` for a dead/unstarted shard)."""
        pids: Dict[str, Optional[int]] = {}
        for sku, handle in self.shards.items():
            process = handle.process
            pids[sku] = (
                process.pid
                if process is not None and process.is_alive()
                else None
            )
        return pids

    def _emit(self, type: str, handle: _ShardHandle, **fields) -> None:
        """One manager lifecycle event (no-op without an events_dir)."""
        if self.events is None:
            return
        self.events.emit(
            type,
            node="shard-{}".format(handle.spec.sku),
            interval=handle.enqueued,
            sku=handle.spec.sku,
            **fields,
        )

    def _counter(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def ensure_alive(self) -> int:
        """Restart any dead worker from its checkpoint; returns restarts.

        The re-forked worker inherits the already-trained model through
        copy-on-write memory and reloads pipeline state from the shard
        checkpoint, so recovery costs milliseconds, not a retrain.

        With checkpointing enabled, the dead worker's durable
        ``delivered`` watermark is read back from the checkpoint file
        and the in-flight ledger suffix at or past it becomes the
        shard's redelivery backlog -- drained ahead of new traffic, so
        every accepted interval survives the crash and the restored
        (bit-identical) pipeline reprocesses them into identical
        decisions.  The old queue is discarded outright: everything it
        still held is, by construction, in the ledger.

        Without checkpointing there is no watermark; the legacy salvage
        moves the old queue's unconsumed backlog onto the fresh queue
        (bypassing a reader lock a SIGKILLed worker may have died
        holding -- see :meth:`_salvage`).
        """
        restarted = 0
        if self._stopping:
            return 0
        for handle in self.shards.values():
            process = handle.process
            if process is not None and not process.is_alive():
                logger.warning(
                    "shard %s worker died (exitcode %s); restarting from "
                    "checkpoint",
                    handle.spec.sku,
                    process.exitcode,
                )
                handle.restarts += 1
                restarted += 1
                # The dead incarnation's epoch-local failure counter is
                # about to be superseded by a fresh worker reporting
                # zero; fold it into the lifetime base first.
                if handle.last_stats:
                    handle.ckpt_failures_base += int(
                        handle.last_stats.get("checkpoint_failures", 0)
                    )
                    handle.last_stats = {
                        **handle.last_stats,
                        "checkpoint_failures": 0,
                    }
                old = handle.in_queue
                fresh = self._ctx.Queue(maxsize=self._queue_size)
                handle.in_queue = fresh
                requeued = 0
                if handle.config.get("checkpoint_path") is not None:
                    state = read_checkpoint(handle.config["checkpoint_path"])
                    watermark = (
                        0
                        if state is None
                        else int(state.get("delivered", state.get("processed", 0)))
                    )
                    while handle.inflight and handle.inflight[0][0] < watermark:
                        handle.inflight.popleft()
                    handle.pending = deque(
                        item for _index, item in handle.inflight
                    )
                    requeued = len(handle.pending)
                    old.cancel_join_thread()
                    old.close()
                else:
                    requeued = self._salvage(old, fresh)
                    old.cancel_join_thread()
                    old.close()
                self._spawn(handle)
                self._mark_degraded(handle, "worker_death")
                self._emit(
                    "shard_restart",
                    handle,
                    restarts=handle.restarts,
                    inflight_requeued=requeued,
                )
                self._counter("serve_shard_restarts")
                if requeued:
                    logger.info(
                        "shard %s: %d in-flight intervals redelivered after "
                        "the crash", handle.spec.sku, requeued,
                    )
                self._pump_pending(handle)
        return restarted

    def _salvage(self, old, fresh) -> int:
        """Move the dead worker's unconsumed backlog onto its fresh queue.

        When the reader lock is free (the kill landed while the worker
        was processing, not waiting), the normal ``get`` API drains the
        old queue.  When the lock died held, the dead worker was the
        only other reader, so the parent may bypass the lock and read
        the underlying pipe directly; a torn in-flight message (the kill
        landed mid-``recv``) ends the drain early rather than raising.
        """
        salvaged = 0
        if old._rlock.acquire(block=False):
            old._rlock.release()
            while True:
                try:
                    item = old.get(timeout=0.1)
                except queue.Empty:
                    break
                fresh.put(item)
                salvaged += 1
        else:
            reader = old._reader
            try:
                while reader.poll(0.2):
                    fresh.put(pickle.loads(reader.recv_bytes()))
                    salvaged += 1
            except Exception:
                logger.warning(
                    "salvage of the dead worker's queue ended on a torn "
                    "message; %d intervals recovered", salvaged,
                )
        return salvaged

    # -- degradation ---------------------------------------------------------

    def _mark_degraded(self, handle: _ShardHandle, reason: str) -> None:
        if handle.degraded:
            return
        handle.degraded = True
        handle.degraded_reason = reason
        handle.degraded_since = time.monotonic()
        logger.warning(
            "shard %s degraded (%s): shedding with held decisions",
            handle.spec.sku, reason,
        )
        self._emit("shard_degraded", handle, reason=reason)
        self._counter("serve_shard_degradations")

    def _mark_recovered(self, handle: _ShardHandle) -> None:
        if not handle.degraded:
            return
        duration = time.monotonic() - (handle.degraded_since or time.monotonic())
        handle.degraded = False
        handle.degraded_reason = None
        handle.degraded_since = None
        handle.recoveries += 1
        handle.recovery_s.append(duration)
        logger.info(
            "shard %s recovered after %.3fs degraded",
            handle.spec.sku, duration,
        )
        self._emit("shard_recovered", handle, degraded_s=duration)
        self._counter("serve_shard_recoveries")

    def check_heartbeats(self) -> List[str]:
        """Degrade shards whose live worker has stopped heartbeating.

        Detects SIGSTOPped and livelocked workers -- the failure mode
        ``ensure_alive`` cannot see because the process *is* alive.
        Returns the SKUs newly marked degraded.
        """
        if self._stopping:
            return []
        stalled: List[str] = []
        now = time.monotonic()
        for sku, handle in self.shards.items():
            process = handle.process
            if process is None or not process.is_alive():
                continue
            if handle.last_heartbeat is None:
                continue
            if now - handle.last_heartbeat > self.heartbeat_timeout_s:
                if not handle.degraded:
                    stalled.append(sku)
                self._mark_degraded(handle, "heartbeat_stall")
        return stalled

    # -- exactly-once admission ----------------------------------------------

    def _is_duplicate(self, handle: _ShardHandle, node: str, seq: int) -> bool:
        state = handle.seqs.get(node)
        if state is None:
            return False
        if seq > state["max"]:
            return False
        if seq <= state["max"] - self.dedup_window:
            # Older than the window: by monotonicity it was accepted
            # long ago (a client never skips forward past an
            # unaccepted sequence number).
            return True
        return seq in state["recent"]

    def _record_seq(self, handle: _ShardHandle, node: str, seq: int) -> None:
        state = handle.seqs.setdefault(node, {"max": -1, "recent": set()})
        state["recent"].add(seq)
        if seq > state["max"]:
            state["max"] = seq
        if len(state["recent"]) > 2 * self.dedup_window:
            horizon = state["max"] - self.dedup_window
            state["recent"] = {s for s in state["recent"] if s > horizon}

    def _pump_pending(self, handle: _ShardHandle) -> int:
        """Drain the redelivery backlog into the queue (FIFO, best effort)."""
        moved = 0
        while handle.pending:
            try:
                handle.in_queue.put_nowait(handle.pending[0])
            except queue.Full:
                break
            handle.pending.popleft()
            moved += 1
        return moved

    # -- ingestion -----------------------------------------------------------

    def submit(self, event: dict) -> dict:
        """Route one validated telemetry event to its shard.

        Returns the response payload:

        - ``accepted`` -- queued (and entered into the in-flight ledger
          and the per-node dedup window);
        - ``duplicate`` -- the event's ``seq`` was already accepted from
          this node; it was **not** re-applied;
        - ``shed`` -- the shard is degraded; the payload carries the
          node's last-safe ``held_decision`` and a back-off hint;
        - ``retry`` -- the shard queue is full (or a crash redelivery
          backlog is still draining); back off and resend.

        Raises :class:`ProtocolError` for an unknown node or a node/SKU
        mismatch: redelivering those can never succeed.
        """
        node = event["node"]
        sku = self._node_to_sku.get(node)
        if sku is None:
            raise ProtocolError("unknown node {!r}".format(node))
        if event.get("sku") != sku:
            raise ProtocolError(
                "node {!r} belongs to SKU {!r}, not {!r}".format(
                    node, sku, event.get("sku")
                )
            )
        handle = self.shards[sku]
        seq = event.get("seq")
        if seq is not None and self._is_duplicate(handle, node, seq):
            handle.duplicates += 1
            self._counter("serve_duplicates")
            return {"status": DUPLICATE, "shard": sku}
        if handle.degraded:
            handle.sheds += 1
            self._counter("serve_sheds")
            return {
                "status": SHED,
                "retry_after_s": self.retry_after_s,
                "shard": sku,
                "reason": handle.degraded_reason,
                "held_decision": handle.held.get(node),
            }
        self._pump_pending(handle)
        item = {"node": node, "sample": event["sample"]}
        if handle.pending:
            # Crash redelivery still draining: new traffic must queue
            # behind it or the decision order (and with it bit-identical
            # recovery) would be lost.
            handle.retried += 1
            return {
                "status": RETRY,
                "retry_after_s": self.retry_after_s,
                "shard": sku,
            }
        try:
            handle.in_queue.put_nowait(item)
        except queue.Full:
            handle.retried += 1
            return {
                "status": RETRY,
                "retry_after_s": self.retry_after_s,
                "shard": sku,
            }
        if handle.config.get("checkpoint_path") is not None:
            handle.inflight.append((handle.enqueued, item))
        handle.enqueued += 1
        if seq is not None:
            self._record_seq(handle, node, seq)
        handle.accepted += 1
        return {"status": ACCEPTED, "shard": sku}

    # -- progress ------------------------------------------------------------

    def poll(self) -> None:
        """Drain worker reports; trim ledgers; detect recoveries.

        Messages are stamped with the worker's fork epoch; reports from
        a dead incarnation (possible across a restart) are ignored so a
        stale watermark can never trim the ledger past what the current
        worker has durably checkpointed.
        """
        while True:
            try:
                kind, sku, stats = self._out_queue.get_nowait()
            except queue.Empty:
                break
            handle = self.shards.get(sku)
            if handle is None:
                continue
            epoch = int(stats.get("epoch", handle.restarts))
            if epoch < handle.restarts:
                continue
            handle.last_stats = stats
            handle.last_heartbeat = time.monotonic()
            held = stats.get("held")
            if held:
                handle.held.update(held)
            watermark = stats.get("checkpointed_delivered")
            if watermark is not None:
                while handle.inflight and handle.inflight[0][0] < watermark:
                    handle.inflight.popleft()
            if handle.degraded:
                self._mark_recovered(handle)
            if kind == "stopped":
                handle.final_stats = stats
        for handle in self.shards.values():
            self._pump_pending(handle)

    def stats(self) -> dict:
        """Aggregate ingest/progress counters across shards."""
        self.poll()
        shards = {}
        for sku, handle in self.shards.items():
            stats = handle.final_stats or handle.last_stats
            shards[sku] = {
                "accepted": handle.accepted,
                "retried": handle.retried,
                "duplicates": handle.duplicates,
                "sheds": handle.sheds,
                "restarts": handle.restarts,
                "recoveries": handle.recoveries,
                "processed": stats.get("processed", 0),
                "lines_per_table": _lines_per_table(stats),
                "allocations": stats.get("allocations", 0),
                "quarantined": stats.get("quarantined", 0),
                "drift_flags": stats.get("drift_flags", 0),
                "checkpoint_failures": handle.ckpt_failures_base
                + stats.get("checkpoint_failures", 0),
            }
        return {
            "shards": shards,
            "accepted": sum(s["accepted"] for s in shards.values()),
            "retried": sum(s["retried"] for s in shards.values()),
            "duplicates": sum(s["duplicates"] for s in shards.values()),
            "sheds": sum(s["sheds"] for s in shards.values()),
            "processed": sum(s["processed"] for s in shards.values()),
            "restarts": sum(s["restarts"] for s in shards.values()),
        }

    def health(self) -> dict:
        """The service-level health snapshot.

        Per shard: liveness, degradation (and why), restart/recovery
        counts, worst recovery duration, queue depth plus redelivery
        backlog, in-flight ledger size, heartbeat and checkpoint ages,
        the delivered/durable watermarks, and how many lines the
        worker decided per price table it built (``lines_per_table``,
        also in :meth:`stats`).
        """
        self.poll()
        now = time.monotonic()
        shards = {}
        for sku, handle in self.shards.items():
            stats = handle.final_stats or handle.last_stats
            process = handle.process
            try:
                depth = handle.in_queue.qsize()
            except NotImplementedError:  # pragma: no cover - macOS qsize
                depth = -1
            shards[sku] = {
                "alive": bool(process is not None and process.is_alive()),
                "degraded": handle.degraded,
                "degraded_reason": handle.degraded_reason,
                "restarts": handle.restarts,
                "recoveries": handle.recoveries,
                "recovery_s_max": (
                    max(handle.recovery_s) if handle.recovery_s else 0.0
                ),
                "queue_depth": depth,
                "pending": len(handle.pending),
                "inflight": len(handle.inflight),
                "heartbeat_age_s": (
                    None
                    if handle.last_heartbeat is None
                    else now - handle.last_heartbeat
                ),
                "last_checkpoint_age_s": stats.get("since_checkpoint_s"),
                "checkpoint_failures": handle.ckpt_failures_base
                + stats.get("checkpoint_failures", 0),
                "delivered": stats.get("delivered", 0),
                "checkpointed_delivered": stats.get(
                    "checkpointed_delivered", 0
                ),
                "lines_per_table": _lines_per_table(stats),
            }
        degraded = sum(1 for s in shards.values() if s["degraded"])
        return {
            "shards": shards,
            "degraded": degraded,
            "restarts": sum(s["restarts"] for s in shards.values()),
            "recoveries": sum(s["recoveries"] for s in shards.values()),
            "recovery_s_max": max(
                (s["recovery_s_max"] for s in shards.values()), default=0.0
            ),
        }

    def stop(self, timeout_s: float = 60.0) -> dict:
        """Drain and stop every worker; returns final aggregate stats.

        Any crash-redelivery backlog is pumped first (restarting dead
        workers as needed), then each shard finishes everything already
        queued (FIFO ahead of the stop sentinel), checkpoints, flushes
        its event stream, and reports final stats.  A worker that
        outlives ``timeout_s`` is terminated (SIGTERM -- which also
        checkpoints).
        """
        deadline = time.monotonic() + timeout_s
        while (
            any(handle.pending for handle in self.shards.values())
            and time.monotonic() < deadline
        ):
            self.ensure_alive()
            self.poll()
            if any(handle.pending for handle in self.shards.values()):
                time.sleep(0.02)
        self._stopping = True
        for handle in self.shards.values():
            while True:
                try:
                    handle.in_queue.put(STOP, timeout=0.5)
                    break
                except queue.Full:
                    self.poll()
                    if time.monotonic() > deadline:
                        break
        for handle in self.shards.values():
            process = handle.process
            if process is None:
                continue
            while process.is_alive() and time.monotonic() < deadline:
                self.poll()
                process.join(timeout=0.2)
            if process.is_alive():
                logger.warning(
                    "shard %s did not drain in time; terminating",
                    handle.spec.sku,
                )
                process.terminate()
                process.join(timeout=5.0)
        self.poll()
        if self.events is not None:
            self.events.close()
        return self.stats()


def _lines_per_table(stats: dict):
    """Lines a worker decided per price table it built, from its stats
    (``None`` before its first table; a restarted worker counts afresh)."""
    if not stats.get("tables"):
        return None
    return stats["table_rows"] / stats["tables"]
