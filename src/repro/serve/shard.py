"""Per-SKU shard: the hardened online pipeline behind a queue.

A shard owns every node of one chip SKU.  It loads exactly one trained
model (via the :class:`~repro.fleet.registry.ModelRegistry` the manager
hands it) and runs each delivered interval through the node's
:class:`~repro.fleet.cluster_cap.NodeControl`, the fleet manager's
per-node controller (its
:class:`~repro.faults.filtering.TelemetryFilter`, one-step
:class:`~repro.dvfs.power_capping.PPEPPowerCapper`, quarantine, held
decisions, ledger rows), plus budget allocation across the shard's
nodes from demand/floor pricing through the batched predictor.

Two layers live here:

- :class:`ShardPipeline` -- the in-process engine.  Synchronous,
  deterministic, fully checkpointable via ``state_dict()`` /
  ``load_state_dict()``; tests drive it directly.  It decides a batch
  of delivered lines in runs, one price table per run, with the
  decisions one line at a time would give.
- :func:`shard_worker_main` -- the process entry point: drains a
  bounded queue of validated telemetry events into a pipeline, as many
  at a time as the open allocation round still waits for, checkpoints
  on a period and on SIGTERM, and reports progress to the supervising
  :class:`~repro.serve.manager.ShardManager`.
"""

from __future__ import annotations

import logging
import queue
import signal
import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.batch import BatchObservation
from repro.core.ppep import MixedPricer
from repro.dvfs.power_capping import ExternalBudget
from repro.fleet.cluster_cap import NodeControl, allocate_with_quarantine
from repro.hardware.platform import IntervalSample
from repro.obs.events import EventLog
from repro.obs.ledger import PredictionLedger
from repro.serve.checkpoint import Checkpointer
from repro.serve.protocol import sample_from_wire

__all__ = ["ShardPipeline", "shard_worker_main", "STOP"]

logger = logging.getLogger(__name__)

#: Queue sentinel that tells a worker to checkpoint and exit cleanly.
STOP = "__stop__"

#: Worker -> supervisor progress cadence, in processed intervals.
PROGRESS_EVERY = 32

#: Worker -> supervisor heartbeat cadence, seconds.  A worker that
#: misses the manager's ``heartbeat_timeout_s`` is considered stalled
#: (SIGSTOP, livelock) and its shard degrades to load-shedding.
HEARTBEAT_EVERY_S = 0.15


class ShardPipeline:
    """The hardened prediction pipeline for one SKU's nodes.

    Parameters
    ----------
    sku:
        Shard name (the SKU key telemetry lines carry).
    spec / ppep:
        The chip and its trained model -- one model for every node of
        the shard, exactly as :class:`~repro.fleet.registry.ModelRegistry`
        guarantees.
    node_names:
        The fixed node roster.  Budget allocation runs once per
        *round* -- when every roster node has delivered its next
        interval -- so the roster is part of the shard's configuration,
        not discovered from traffic.
    budget_w:
        Shard power budget split across nodes every round (watts).
    policy:
        Allocation policy (see :func:`repro.fleet.cluster_cap.allocate_budget`).
    unhealthy_after:
        Consecutive BAD intervals before a node is quarantined: pinned
        to the slowest VF decision and granted only its floor power
        (:func:`~repro.fleet.cluster_cap.allocate_with_quarantine`, the
        same split the fleet manager uses).
    events:
        Observability sink for the shard's events and its ledger's
        ``prediction`` rows.

    Nodes deliver intervals asynchronously, and each line is decided
    from the budgets the last allocation round set.  So the lines of
    one round, up to the line that closes it, are independent:
    :meth:`process_lines` decides such a *run* from one
    :class:`~repro.core.ppep.MixedPricer` table over the run's cleaned
    samples (the table the fleet's column walk reads for a whole model
    group), each node's
    :class:`~repro.dvfs.power_capping.PPEPPowerCapper` walking its own
    row.  :meth:`process` is a run of one line, priced from a one-row
    table.  ``tables`` counts the tables built and ``table_rows`` the
    lines decided from them.  The ledger scores the filter's cleaned
    power against the capper's one-step-ahead price of the decision,
    as the fleet manager's does, when the node ran it; a sender that
    does not apply decisions is scored on that table's in-interval fit
    of what it ran (``PPEPPowerCapper.price``).
    """

    def __init__(
        self,
        sku: str,
        spec,
        ppep,
        node_names: List[str],
        budget_w: Optional[float] = None,
        policy: str = "proportional",
        unhealthy_after: int = 3,
        events: Optional[EventLog] = None,
    ) -> None:
        if not node_names:
            raise ValueError("a shard needs at least one node")
        if len(set(node_names)) != len(node_names):
            raise ValueError("node names must be unique")
        if unhealthy_after < 1:
            raise ValueError("unhealthy_after must be >= 1")
        self.sku = sku
        self.spec = spec
        self.ppep = ppep
        self.node_names = list(node_names)
        self.budget_w = (
            float(budget_w) if budget_w is not None else 90.0 * len(node_names)
        )
        self.policy = policy
        self.unhealthy_after = int(unhealthy_after)
        self.events = events
        self.ledger = PredictionLedger(events=events)
        self._budgets: Dict[str, ExternalBudget] = {}
        self._controls: Dict[str, NodeControl] = {}
        for name in self.node_names:
            budget = ExternalBudget(self.budget_w / len(self.node_names))
            self._budgets[name] = budget
            self._controls[name] = NodeControl(
                name, ppep, budget, self.unhealthy_after, events, self.ledger
            )
        #: Cleaned samples of the in-flight allocation round.
        self._round: Dict[str, IntervalSample] = {}
        self._last_alloc = None
        self.processed = 0
        self.intervals: Dict[str, int] = {name: 0 for name in self.node_names}
        self.allocations = 0
        #: Lines of the current run filtered but not yet decided.
        self._undecided = 0
        #: Price tables built, and lines decided from them, by this
        #: pipeline (tallies for ``stats``; not checkpointed).
        self.tables = 0
        self.table_rows = 0

    # -- per-interval processing --------------------------------------------

    def process(self, node: str, sample: IntervalSample) -> dict:
        """Run one delivered interval through the hardened pipeline.

        Returns a summary dict (quality verdict, health, the VF decision
        the service would push to the node); raises what
        :meth:`process_lines` yields for the line.
        """
        [outcome] = self.process_lines([(node, sample)])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def process_lines(self, lines):
        """Run delivered ``(node, sample)`` intervals through the
        pipeline; yields, line by line in order, :meth:`process`'s dict
        or the exception the line raised.

        The lines are cut into *runs* that never hold a node twice and
        end at the line that closes an allocation round (the last
        roster node, or a straggler lapping).  A run's lines are
        independent given the budgets of the last round: each run
        filters every line, prices them all from one
        :class:`~repro.core.ppep.MixedPricer` table over the cleaned
        samples, then decides them one by one.  A table row holds the
        same floats in any table, so every decision and event, and the
        state after each run, is what one line per call gives.  While a
        run has lines filtered but not yet decided, :attr:`mid_round`
        stays true.  An unknown
        node, or a sample the filter or the model rejects, fails only
        its own line (the model's rejection having moved only the
        node's filter); the consumer must exhaust the generator.
        """
        lines = list(lines)
        start = 0
        while start < len(lines):
            end = self._run_end(lines, start)
            yield from self._run(lines[start:end])
            start = end

    def _run_end(self, lines, start: int) -> int:
        """Where the run starting at ``lines[start]`` ends (exclusive)."""
        taken = set()
        room = self.awaiting
        for i in range(start, len(lines)):
            node = lines[i][0]
            if node not in self._controls:
                continue
            if node in taken:
                return i
            if node in self._round or len(taken) + 1 == room:
                return i + 1
            taken.add(node)
        return len(lines)

    def _run(self, run):
        """Filter, price and decide one run (see :meth:`process_lines`)."""
        staged = []
        for node, sample in run:
            control = self._controls.get(node)
            if control is None:
                staged.append(KeyError(
                    "node {!r} is not on shard {!r}'s roster".format(node, self.sku)
                ))
                continue
            try:
                staged.append((node, control, control.filter.ingest(sample)))
            except Exception as exc:
                staged.append(exc)
        clean = [entry[2].sample for entry in staged if isinstance(entry, tuple)]
        table = None
        if len(clean) > 1:
            try:
                table = MixedPricer(
                    self.ppep, BatchObservation.from_samples(self.spec, clean)
                )
                self.tables += 1
            except Exception:
                # A sample the model rejects: each line prices from a
                # table of its own, so only that line raises.
                pass
        self._undecided = len(clean)
        row = 0
        for entry in staged:
            if isinstance(entry, tuple):
                self._undecided -= 1
                priced = None if table is None else (table, row)
                try:
                    entry = self._decide(*entry, priced)
                except Exception as exc:
                    entry = exc
                row += 1
            yield entry

    def _decide(self, node, control, verdict, priced) -> dict:
        """Decide one filtered line and close its round if it does."""
        interval = self.intervals[node]
        chosen = control.capper.decide(verdict.sample, priced)
        if priced is None:
            self.tables += 1
        self.table_rows += 1
        applied = control.conclude(interval, verdict, chosen)
        self.intervals[node] = interval + 1
        self.processed += 1
        decision = [vf.index for vf in applied]

        if node in self._round:
            # The node lapped a straggler: close the round with whoever
            # delivered (an absent node's stream is dead or lagging; its
            # budget share simply stays where the last round put it).
            self._allocate_round()
        self._round[node] = verdict.sample
        if len(self._round) == len(self.node_names):
            self._allocate_round()

        if self.events is not None:
            # The applied-decision record is the unit of the service's
            # exactly-once contract: under chaos the post-dedup decision
            # stream must be bit-identical to the chaos-free run, and
            # the flush-after-checkpoint discipline keeps this stream
            # duplicate-free across worker restarts.
            self.events.emit(
                "decision",
                node=node,
                interval=interval,
                sku=self.sku,
                vf_index=list(decision),
                delivery_index=self.processed - 1,
                quality=verdict.quality,
            )

        return {
            "node": node,
            "interval": interval,
            "quality": verdict.quality,
            "healthy": control.healthy,
            "decision": decision,
        }

    def _allocate_round(self) -> None:
        """Split the shard budget across the round's nodes.

        Demand and floor come from one batched all-VF pricing pass over
        the round's cleaned samples (the same
        :class:`~repro.core.batch.BatchedVFPredictor` hot path the fleet
        simulator uses); unhealthy nodes are granted only their floor,
        and a ``cap_reallocation`` event is emitted whenever the
        (budget, healthy-set) signature changes.
        """
        names = [n for n in self.node_names if n in self._round]
        samples = [self._round[n] for n in names]
        self._round = {}
        batch = self.ppep.batched_predictor().predict_samples(samples)
        healthy = np.array(
            [self._controls[n].healthy for n in names], dtype=bool
        )
        shares = allocate_with_quarantine(
            self.policy, self.budget_w, batch.demand, batch.floor, healthy
        )
        for name, share in zip(names, shares):
            self._budgets[name].set(float(share))
        self.allocations += 1
        signature = (
            self.budget_w,
            tuple(bool(h) for h in healthy),
            tuple(names),
        )
        if signature != self._last_alloc:
            self._last_alloc = signature
            if self.events is not None:
                self.events.emit(
                    "cap_reallocation",
                    node="shard-{}".format(self.sku),
                    interval=max(self.intervals.values()) - 1,
                    budget_w=float(self.budget_w),
                    healthy_nodes=int(healthy.sum()),
                    total_nodes=len(self.node_names),
                )

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """The shard's whole resumable state.

        The in-flight allocation round is deliberately dropped: its
        samples are mid-barrier, and losing them costs at most one
        allocation -- well inside the one-checkpoint-period restart
        guarantee.
        """
        controls = {
            name: control.state_dict() for name, control in self._controls.items()
        }
        return {
            "sku": self.sku,
            "nodes": list(self.node_names),
            "processed": self.processed,
            "allocations": self.allocations,
            "intervals": dict(self.intervals),
            **{
                key: {name: control[key] for name, control in controls.items()}
                for key in NodeControl.STATE_KEYS
            },
            "last_alloc": (
                None
                if self._last_alloc is None
                else [
                    self._last_alloc[0],
                    list(self._last_alloc[1]),
                    list(self._last_alloc[2]),
                ]
            ),
            "budgets": {
                name: budget.state_dict()
                for name, budget in self._budgets.items()
            },
            "cappers": {
                name: control.capper.state_dict()
                for name, control in self._controls.items()
            },
            "filters": {
                name: control.filter.state_dict()
                for name, control in self._controls.items()
            },
            "ledger": self.ledger.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        if list(state["nodes"]) != self.node_names:
            raise ValueError(
                "checkpoint roster {} does not match shard roster {}".format(
                    state["nodes"], self.node_names
                )
            )
        self.processed = int(state["processed"])
        self.allocations = int(state["allocations"])
        self.intervals = {
            name: int(v) for name, v in state["intervals"].items()
        }
        for name, control in self._controls.items():
            control.load_state_dict(
                {key: state[key][name] for key in NodeControl.STATE_KEYS}
            )
        self._last_alloc = (
            None
            if state["last_alloc"] is None
            else (
                float(state["last_alloc"][0]),
                tuple(bool(h) for h in state["last_alloc"][1]),
                tuple(str(n) for n in state["last_alloc"][2]),
            )
        )
        for name, budget_state in state["budgets"].items():
            self._budgets[name].load_state_dict(budget_state)
        for name, capper_state in state["cappers"].items():
            self._controls[name].capper.load_state_dict(capper_state)
        for name, filter_state in state["filters"].items():
            self._controls[name].filter.load_state_dict(filter_state)
        self.ledger.load_state_dict(state["ledger"])
        self._round = {}

    @property
    def mid_round(self) -> bool:
        """Whether an allocation round is currently mid-barrier, or a
        run has lines filtered but not yet decided.

        Checkpoints must wait for round boundaries: ``state_dict``
        drops the in-flight round, so a snapshot taken here would make
        a crash-restore close its next round with samples from mixed
        intervals and diverge from the uninterrupted decision stream.
        A run's undecided lines have already moved their filters, so a
        snapshot would also run ahead of the lines it has delivered.
        """
        return bool(self._round) or self._undecided > 0

    @property
    def awaiting(self) -> int:
        """How many roster nodes the open allocation round waits for."""
        return len(self.node_names) - len(self._round)

    def held_decisions(self) -> Dict[str, Optional[List[int]]]:
        """Per-node last-safe VF decision (``None`` before the first).

        The manager mirrors this map so that while the shard is
        degraded (worker re-forking, SIGSTOPped) it can answer ``shed``
        responses with the node's held decision -- the
        :class:`~repro.fleet.cluster_cap.NodeControl` hold lifted to the
        service level.
        """
        return {
            name: None if control.held is None else [vf.index for vf in control.held]
            for name, control in self._controls.items()
        }

    def stats(self) -> dict:
        """A compact progress snapshot for the supervisor."""
        return {
            "processed": self.processed,
            "tables": self.tables,
            "table_rows": self.table_rows,
            "allocations": self.allocations,
            "quarantined": sum(
                1
                for control in self._controls.values()
                if control.quarantined_since is not None
            ),
            "drift_flags": len(self.ledger.drift_flags),
        }


def shard_worker_main(config: dict, in_queue, out_queue) -> None:
    """Worker-process entry point: queue -> pipeline -> checkpoints.

    ``config`` carries the pipeline construction arguments (the trained
    model arrives through the fork, so restarts never retrain).  The
    worker resumes from its checkpoint when one exists, processes
    validated telemetry events until the :data:`STOP` sentinel (or
    SIGTERM), snapshots every ``checkpoint_every`` intervals and on
    every *round-aligned* exit (a mid-round exit keeps the last aligned
    checkpoint authoritative -- see ``_snapshot``), and reports
    progress on ``out_queue``.

    After each blocking ``get`` the worker takes, without waiting, as
    many more queued items as the open allocation round still waits
    for (stopping at :data:`STOP`), and runs them through
    :meth:`ShardPipeline.process_lines`, so a round's queued lines
    share one price table.  Delivery counting, checkpoint ticks and
    progress stay per line; a checkpoint can land only after a run's
    last line (``mid_round``), and an item that does not decode fails
    alone.  Nothing sets the drain size: a queue that is never ahead of
    the worker gives one line per loop, as before.

    The shard's JSONL event stream is flushed *after* each successful
    checkpoint (never in between): the on-disk event file therefore
    never runs ahead of the on-disk state, so a restart cannot re-emit
    an event the file already holds -- the
    no-duplicate-``cap_reallocation`` guarantee, extended to the
    ``decision`` stream.

    Beyond the pipeline counters, the worker maintains a **delivered**
    counter -- every item popped from the queue, error paths included --
    which is persisted inside the checkpoint.  That counter is the
    exactly-once watermark: the manager's in-flight ledger redelivers
    precisely the items at or past the last durable ``delivered`` after
    a crash, so no accepted interval is ever lost and (state restore
    being bit-identical) none is ever applied twice.  Heartbeats carry
    the live watermarks, the per-node held decisions, and the worker's
    fork epoch so the manager can ignore messages from a dead
    incarnation.
    """
    events_path = config.get("events_path")
    events = None
    if events_path is not None:
        # Flush discipline is tied to checkpoints (see above): the
        # huge flush_every disables the log's own cadence.
        events = EventLog(events_path, flush_every=10**9)
    pipeline = ShardPipeline(
        sku=config["sku"],
        spec=config["spec"],
        ppep=config["ppep"],
        node_names=config["node_names"],
        budget_w=config.get("budget_w"),
        policy=config.get("policy", "proportional"),
        unhealthy_after=config.get("unhealthy_after", 3),
        events=events,
    )
    epoch = int(config.get("epoch", 0))
    delivered = 0
    checkpointed = 0
    last_save_t = time.monotonic()

    def _state() -> dict:
        state = pipeline.state_dict()
        state["delivered"] = delivered
        return state

    checkpointer = None
    checkpoint_path = config.get("checkpoint_path")
    if checkpoint_path is not None:
        checkpointer = Checkpointer(
            checkpoint_path,
            _state,
            every_intervals=config.get("checkpoint_every", 64),
            chaos=config.get("disk_chaos"),
        )
        state = checkpointer.load()
        if state is not None:
            pipeline.load_state_dict(state)
            delivered = int(state.get("delivered", pipeline.processed))
            checkpointed = delivered
            logger.info(
                "shard %s resumed from %s at %d delivered items",
                pipeline.sku, checkpoint_path, delivered,
            )

    errors = 0

    def _report_stats() -> dict:
        stats = pipeline.stats()
        stats["epoch"] = epoch
        stats["errors"] = errors
        stats["delivered"] = delivered
        stats["checkpointed_delivered"] = checkpointed
        stats["held"] = pipeline.held_decisions()
        stats["checkpoints"] = (
            checkpointer.saves if checkpointer is not None else 0
        )
        stats["checkpoint_failures"] = (
            checkpointer.failures if checkpointer is not None else 0
        )
        stats["since_checkpoint_s"] = time.monotonic() - last_save_t
        return stats

    stopping = {"now": False}

    def _on_sigterm(_signum, _frame):
        stopping["now"] = True

    signal.signal(signal.SIGTERM, _on_sigterm)

    def _snapshot() -> None:
        nonlocal checkpointed, last_save_t
        if checkpointer is not None and checkpointer.save():
            checkpointed = delivered
            last_save_t = time.monotonic()

    def _outcomes(items):
        """Each queue item's :meth:`ShardPipeline.process_lines` outcome,
        in order; an item that does not decode fails alone."""
        lines = []
        for item in items:
            try:
                lines.append(
                    (item["node"], sample_from_wire(item["sample"], pipeline.spec))
                )
            except Exception as exc:
                yield from pipeline.process_lines(lines)
                lines = []
                yield exc
        yield from pipeline.process_lines(lines)

    since_progress = 0
    last_heartbeat_t = 0.0
    try:
        while not stopping["now"]:
            now = time.monotonic()
            if now - last_heartbeat_t >= HEARTBEAT_EVERY_S:
                last_heartbeat_t = now
                out_queue.put(("heartbeat", pipeline.sku, _report_stats()))
            try:
                item = in_queue.get(timeout=0.1)
            except queue.Empty:
                # Idle: push whatever progress the supervisor has not
                # seen yet, so short bursts (< PROGRESS_EVERY) still
                # become visible once the stream pauses.
                if since_progress:
                    since_progress = 0
                    out_queue.put(("progress", pipeline.sku, _report_stats()))
                continue
            # Whatever else of the open round is already queued joins
            # it, so its lines price from one table (process_lines).
            items = [item]
            while items[-1] != STOP and len(items) < pipeline.awaiting:
                try:
                    items.append(in_queue.get_nowait())
                except queue.Empty:
                    break
            stop = items[-1] == STOP
            if stop:
                items.pop()
            for outcome in _outcomes(items):
                if isinstance(outcome, Exception):
                    # One bad interval must not take the shard down; it
                    # is counted and the stream continues.
                    errors += 1
                    logger.error(
                        "shard %s failed to process an interval",
                        pipeline.sku,
                        exc_info=outcome,
                    )
                # Error paths count too: the watermark tracks queue
                # items consumed, and a poison item must not be
                # redelivered.
                delivered += 1
                if checkpointer is not None and checkpointer.tick(
                    aligned=not pipeline.mid_round
                ):
                    checkpointed = delivered
                    last_save_t = time.monotonic()
                    if events is not None:
                        events.flush()
                since_progress += 1
                if since_progress >= PROGRESS_EVERY:
                    since_progress = 0
                    out_queue.put(("progress", pipeline.sku, _report_stats()))
            if stop:
                break
    finally:
        if checkpointer is not None and pipeline.mid_round:
            # The mid-round alignment veto applies to the exit snapshot
            # exactly as to the periodic tick: ``state_dict`` drops the
            # in-flight allocation round, so a snapshot taken
            # mid-barrier (SIGTERM from the manager's stop timeout, an
            # operational SIGTERM mid-round) would advance the
            # ``delivered`` watermark past items whose round state it
            # cannot carry -- a restart would neither redeliver them
            # nor close their round, silently diverging from the
            # uninterrupted decision stream.  The last *aligned*
            # checkpoint stays authoritative instead, and the manager's
            # in-flight ledger redelivers the tail for bit-identical
            # reprocessing -- which is also why the event tail is
            # aborted, not flushed: the redelivery re-emits it, and the
            # file must not run ahead of the durable state.
            logger.info(
                "shard %s exiting mid-round: final snapshot skipped, "
                "last aligned checkpoint stays authoritative",
                pipeline.sku,
            )
            if events is not None:
                events.abort()
        else:
            # Round-aligned exit (or no checkpointing at all): snapshot
            # and persist the full event history.  Even when the save
            # itself fails (disk fault), the flushed events only record
            # decisions that really were applied; losing them would be
            # worse than the stale-watermark window the failure already
            # logged.
            _snapshot()
            if events is not None:
                events.close()
        out_queue.put(("stopped", pipeline.sku, _report_stats()))
