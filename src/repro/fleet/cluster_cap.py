"""Hierarchical fleet power capping.

A cluster-level power budget (a rack breaker limit, a demand-response
event) must be met by chips that only know how to cap *themselves*.
:class:`ClusterPowerManager` closes the loop hierarchically, every
200 ms decision interval:

1. the fleet's batched predictor prices every VF state of every node --
   each node's *demand* (predicted power at its fastest state) and
   *floor* (predicted power at its slowest state) cost one NumPy pass;
2. an allocation policy apportions the cluster budget into node shares;
3. each node's existing one-step
   :class:`~repro.dvfs.power_capping.PPEPPowerCapper` chases its share
   through an :class:`~repro.dvfs.power_capping.ExternalBudget`; the
   cappers of same-model nodes decide together, in one column walk
   (:func:`~repro.dvfs.power_capping.decide_nodes`).

Because every layer is proactive (prediction, not trial-and-error), the
fleet total lands under a new cluster cap within one decision interval
-- the Figure 7 one-step property, at rack scale.

Allocation policies:

- ``uniform`` -- the naive baseline: every node gets ``B / N``
  regardless of what it is running;
- ``proportional`` -- shares proportional to predicted demand, so busy
  nodes get budget idle nodes would waste;
- ``waterfill`` -- every node is first granted its floor (it cannot go
  lower anyway), then the remaining budget fills nodes equally, capped
  at each node's demand (classic waterfilling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Union

import numpy as np

from repro.dvfs.governor import DVFSController
from repro.dvfs.power_capping import (
    CappingResult,
    ExternalBudget,
    PPEPPowerCapper,
    decide_nodes,
    evaluate_power_series,
)
from repro.faults.filtering import GOOD, TelemetryFilter
from repro.fleet.simulator import FleetSimulator

__all__ = [
    "ALLOCATION_POLICIES",
    "ClusterPowerManager",
    "FleetCappingRun",
    "NodeControl",
    "allocate_budget",
    "allocate_with_quarantine",
]

ALLOCATION_POLICIES = ("uniform", "proportional", "waterfill")

CapSchedule = Callable[[int], float]


def allocate_budget(
    policy: str,
    budget: float,
    demand: np.ndarray,
    floor: np.ndarray,
) -> np.ndarray:
    """Split ``budget`` watts across nodes; shares never sum above it.

    ``demand`` and ``floor`` are the per-node predicted powers at the
    fastest and slowest VF states (see
    :class:`~repro.fleet.simulator.FleetPrediction`).
    """
    demand = np.asarray(demand, dtype=float)
    floor = np.asarray(floor, dtype=float)
    if demand.shape != floor.shape or demand.ndim != 1 or demand.size == 0:
        raise ValueError("demand and floor must be equal-length vectors")
    if budget < 0:
        raise ValueError("budget cannot be negative")
    n = demand.size

    if policy == "uniform":
        return np.full(n, budget / n)
    if policy == "proportional":
        total = demand.sum()
        if total <= 0:
            return np.full(n, budget / n)
        return budget * demand / total
    if policy == "waterfill":
        return _waterfill(budget, demand, floor)
    raise ValueError(
        "unknown policy {!r}; choose from {}".format(policy, ALLOCATION_POLICIES)
    )


def allocate_with_quarantine(
    policy: str,
    budget: float,
    demand: np.ndarray,
    floor: np.ndarray,
    healthy,
) -> np.ndarray:
    """:func:`allocate_budget` with quarantined nodes held at their floor.

    An unhealthy node is pinned to its slowest state, so its draw is its
    floor no matter what it is granted on paper: it gets exactly that,
    and the rest of ``budget`` goes to the healthy nodes.
    """
    mask = np.asarray(healthy, dtype=bool)
    if mask.all():
        return allocate_budget(policy, budget, demand, floor)
    shares = np.zeros(len(mask))
    shares[~mask] = floor[~mask]
    remaining = max(budget - float(floor[~mask].sum()), 0.0)
    if mask.any():
        shares[mask] = allocate_budget(
            policy, remaining, demand[mask], floor[mask]
        )
    return shares


def _waterfill(
    budget: float, demand: np.ndarray, floor: np.ndarray
) -> np.ndarray:
    """Floors first, then equal fill capped at demand."""
    # An infeasible budget (below the sum of floors) is split
    # proportionally to the floors: every node will pin to its slowest
    # state regardless, and proportional floors degrade gracefully.
    floors_total = floor.sum()
    if budget <= floors_total or floors_total <= 0:
        if floors_total <= 0:
            return np.full(demand.size, budget / demand.size)
        return budget * floor / floors_total
    share = floor.copy()
    ceiling = np.maximum(demand, floor)
    remaining = budget - share.sum()
    unsat = share < ceiling - 1e-9
    while remaining > 1e-9 and unsat.any():
        added = np.zeros_like(share)
        added[unsat] = remaining / unsat.sum()
        new_share = np.minimum(share + added, ceiling)
        granted = (new_share - share).sum()
        share = new_share
        remaining -= granted
        unsat = share < ceiling - 1e-9
        if granted <= 1e-12:
            break
    return share


@dataclass
class FleetCappingRun:
    """Closed-loop trajectory of a cluster-capped fleet."""

    node_names: List[str]
    #: Cluster cap in force per interval, watts.
    caps: List[float] = field(default_factory=list)
    #: Measured per-node power, ``[interval][node]``, watts.
    node_powers: List[List[float]] = field(default_factory=list)
    #: Budget share granted per node, ``[interval][node]``, watts.
    shares: List[List[float]] = field(default_factory=list)
    #: Instructions retired per node per interval.
    node_instructions: List[List[float]] = field(default_factory=list)
    #: Ground-truth per-node power, ``[interval][node]`` -- what the
    #: machines actually drew, immune to telemetry faults.
    node_true_powers: List[List[float]] = field(default_factory=list)
    #: Telemetry quality flag per node per interval (hardened runs).
    node_quality: List[List[str]] = field(default_factory=list)
    #: Health verdict per node per interval (hardened runs).
    node_healthy: List[List[bool]] = field(default_factory=list)

    @property
    def fleet_powers(self) -> List[float]:
        """Total measured fleet power per interval, watts."""
        return [sum(row) for row in self.node_powers]

    @property
    def fleet_true_powers(self) -> List[float]:
        """Total ground-truth fleet power per interval, watts."""
        return [sum(row) for row in self.node_true_powers]

    def total_instructions(self) -> float:
        return float(sum(sum(row) for row in self.node_instructions))

    def evaluate(self) -> CappingResult:
        """Figure 7 metrics of the fleet total against the cluster cap."""
        return evaluate_power_series(
            self.fleet_powers, self.caps, self.total_instructions()
        )

    def evaluate_true(self) -> CappingResult:
        """The same metrics scored on ground-truth power.

        Under injected faults the *reported* fleet total can look
        compliant while the machines actually violate the breaker limit
        (or vice versa); this is the score that matters.
        """
        return evaluate_power_series(
            self.fleet_true_powers, self.caps, self.total_instructions()
        )


class NodeControl(DVFSController):
    """One node's whole controller: its filter, its one-step capper and
    the policy around them.

    :class:`ClusterPowerManager` runs one per fleet node,
    :class:`~repro.serve.shard.ShardPipeline` one per roster node, and
    the single-node loops (``faults``, ``backend roundtrip``, ``obs
    --demo``) one each.  It owns the node's
    :class:`~repro.faults.filtering.TelemetryFilter` (``filter``) and
    :class:`~repro.dvfs.power_capping.PPEPPowerCapper` (``capper``,
    chasing ``cap_schedule``), and holds the node's streak of
    consecutive non-actionable intervals, the interval its quarantine
    began, the last actionable VF assignment (re-applied on BAD
    intervals) and the one-step-ahead price queued for ``ledger``.
    ``events`` and ``ledger`` are optional sinks.  A ``verdict`` of
    ``None`` stands for an unfiltered stream (the fleet's unhardened
    mode, which leaves ``filter`` unused), where every interval is
    actionable.

    :meth:`process` runs one delivered interval through every step:
    the filter, the capper's decision, then :meth:`conclude`, which
    holds every step after the decision.  :meth:`decide` is that
    method as a :class:`~repro.dvfs.governor.DVFSController`.  The
    serve shard calls the three parts itself, so that a run of nodes
    can price from one shared table, and the fleet manager calls the
    same steps around its column walk.  ``unhealthy_after=math.inf``
    holds on BAD intervals but never quarantines.
    """

    #: Checkpointed fields; each product keeps one entry per node per key
    #: (and the capper's and filter's states under keys of their own).
    STATE_KEYS = ("bad_streak", "quarantined_since", "held", "pending")

    def __init__(
        self,
        name: str,
        ppep,
        cap_schedule,
        unhealthy_after=3,
        events=None,
        ledger=None,
    ) -> None:
        self.name = name
        self.spec = ppep.spec
        self.filter = TelemetryFilter(ppep.spec)
        self.capper = PPEPPowerCapper(ppep, cap_schedule)
        self.unhealthy_after = unhealthy_after
        self.events = events
        self.ledger = ledger
        self.reset()

    def reset(self) -> None:
        self.filter.reset()
        self.capper.reset()
        self.bad_streak = 0
        self.quarantined_since = None
        self.held = None
        self.pending = None
        #: Intervals that re-applied the held assignment (a tally for
        #: reports; not checkpointed).
        self.holds = 0

    @property
    def healthy(self) -> bool:
        return self.bad_streak < self.unhealthy_after

    def process(self, interval: int, sample):
        """Run one delivered interval through the node's pipeline.

        The capper always decides from the cleaned sample, so its
        schedule step and bias corrector stay in lockstep with the
        stream even when :meth:`settle` overrides the decision; a
        sample the model rejects raises there, having moved only the
        filter.  Returns the filter's verdict and the VF assignment to
        apply (:meth:`conclude`).
        """
        verdict = self.filter.ingest(sample)
        return verdict, self.conclude(
            interval, verdict, self.capper.decide(verdict.sample)
        )

    def conclude(self, interval: int, verdict, chosen):
        """Every step after the capper chose ``chosen`` from
        ``verdict``'s cleaned sample: ``filter_verdict``, the ledger
        row, the bad streak, quarantine and the settled assignment,
        which this returns.  A healthy, actionable interval that
        changes the held assignment emits ``vf_transition``."""
        self.report(interval, verdict)
        self.score(interval, verdict.sample, verdict, self.capper.price)
        healthy = self.advance(verdict)
        self.transition(interval)
        previous = self.held
        applied = self.settle(chosen, verdict)
        if self.events is not None and healthy and verdict.actionable and previous:
            from_vf = [vf.index for vf in previous]
            to_vf = [vf.index for vf in applied]
            if to_vf != from_vf:
                self.events.emit(
                    "vf_transition",
                    node=self.name,
                    interval=interval,
                    from_vf=from_vf,
                    to_vf=to_vf,
                )
        return applied

    def decide(self, sample):
        """:meth:`process`'s assignment, numbering the interval by
        ``sample.index``."""
        return self.process(sample.index, sample)[1]

    def report(self, interval: int, verdict) -> None:
        """Emit ``filter_verdict`` for a REPAIRED or BAD interval.

        GOOD intervals stay silent: their quality rides on the
        prediction row, and one event per node per interval would
        dominate the stream.  Without an event log this does nothing.
        """
        if self.events is not None and verdict.quality != GOOD:
            self.events.emit(
                "filter_verdict",
                node=self.name,
                interval=interval,
                quality=verdict.quality,
                issues=list(verdict.issues),
            )

    def score(self, interval: int, sample, verdict, price=None) -> None:
        """Record the ledger row for the VF assignment ``sample`` ran.

        If the node ran the assignment applied last interval (always, in
        a closed loop like the fleet's), the row scores the price queued
        for it: the one-step-ahead accuracy the Figure 7 capping property
        rests on.  Otherwise (a serve sender that does not apply the
        shard's decisions) it scores ``price(sample.cu_vfs)``, the
        in-interval fit of what the node ran, or nothing without a
        ``price``.  BAD intervals carry stale readings that would pin
        the error stats to garbage, so they record nothing; neither does
        a node without a ledger.
        """
        if self.ledger is None or (verdict is not None and not verdict.actionable):
            return
        ran = [vf.index for vf in sample.cu_vfs]
        pending, held = self.pending, self.held
        # The queued price is for the held assignment whenever one is
        # held (settle keeps them so); one queued with nothing held, on
        # a non-actionable interval, names only CU 0's state.
        if pending is not None and (
            ran[0] == pending[0] if held is None else ran == [vf.index for vf in held]
        ):
            vf_index, predicted = pending
        elif price is not None:
            vf_index, predicted = ran[0], price(sample.cu_vfs)
        else:
            return
        self.ledger.record(
            node=self.name,
            interval=interval,
            vf_index=vf_index,
            predicted_power=predicted,
            measured_power=sample.measured_power,
            interval_s=sample.interval_s,
            quality=None if verdict is None else verdict.quality,
        )

    def advance(self, verdict) -> bool:
        """Count the interval into the bad streak; whether still healthy."""
        actionable = verdict is None or verdict.actionable
        self.bad_streak = 0 if actionable else self.bad_streak + 1
        return self.healthy

    def transition(self, interval: int) -> None:
        """Enter or leave quarantine as the streak dictates.

        The entry interval advances whether or not an event log is
        attached, so a checkpoint is the same with or without one.
        """
        since = self.quarantined_since
        if not self.healthy and since is None:
            self.quarantined_since = interval
            if self.events is not None:
                self.events.emit(
                    "quarantine_enter",
                    node=self.name,
                    interval=interval,
                    bad_streak=self.bad_streak,
                )
        elif self.healthy and since is not None:
            self.quarantined_since = None
            if self.events is not None:
                self.events.emit(
                    "quarantine_exit",
                    node=self.name,
                    interval=interval,
                    quarantined_intervals=interval - since,
                )

    def settle(self, decision, verdict):
        """The VF assignment to apply in place of the capper's ``decision``.

        A quarantined node is pinned to its slowest state and queues no
        price: its telemetry is not coming back.  A non-actionable
        interval re-applies the held assignment, priced again by the
        capper (``capper.price``, on the cleaned sample it decided
        from).  Otherwise the capper's decision applies, is held if the
        interval was actionable, and queues the capper's own price of it
        (``last_predicted``).  Prices are queued only for a ledger.
        """
        queue = self.ledger is not None
        if not self.healthy:
            self.held = None
            self.pending = None
            return [self.spec.vf_table.slowest] * self.spec.num_cus
        if verdict is not None and not verdict.actionable and self.held is not None:
            decision = list(self.held)
            self.holds += 1
            if queue:
                self.pending = (decision[0].index, float(self.capper.price(decision)))
            return decision
        if verdict is None or verdict.actionable:
            self.held = list(decision)
        if queue:
            self.pending = (decision[0].index, float(self.capper.last_predicted))
        return decision

    def state_dict(self) -> dict:
        return {
            "bad_streak": self.bad_streak,
            "quarantined_since": self.quarantined_since,
            "held": None if self.held is None else [vf.index for vf in self.held],
            "pending": None if self.pending is None else list(self.pending),
        }

    def load_state_dict(self, state: dict) -> None:
        streak, since, held, pending = (state[key] for key in self.STATE_KEYS)
        table = self.spec.vf_table
        self.bad_streak = int(streak)
        self.quarantined_since = None if since is None else int(since)
        self.held = None if held is None else [table.by_index(int(i)) for i in held]
        self.pending = None if pending is None else (int(pending[0]), float(pending[1]))


class ClusterPowerManager:
    """Apportions a cluster budget; nodes run one-step PPEP capping.

    Parameters
    ----------
    fleet:
        The simulator whose nodes to manage.
    cap_schedule:
        Cluster budget in watts per decision step (a callable or a
        constant), e.g. :func:`repro.dvfs.power_capping.square_wave_cap`.
    policy:
        One of :data:`ALLOCATION_POLICIES`.
    harden:
        Filter every node's telemetry through its own
        :class:`~repro.faults.filtering.TelemetryFilter` before
        prediction and allocation.  Nodes whose
        quality stays bad for ``unhealthy_after`` consecutive intervals
        are declared unhealthy: pinned to their slowest VF state and
        granted only their predicted floor power, with the rest of the
        budget re-allocated to healthy nodes
        (:func:`allocate_with_quarantine`).  A node whose telemetry
        recovers is re-admitted automatically.
    unhealthy_after:
        Consecutive bad intervals before a node is declared unhealthy.
    events / ledger:
        Optional observability sinks.  ``events`` (a
        :class:`repro.obs.events.EventLog`) receives ``filter_verdict``,
        ``quarantine_enter``/``quarantine_exit`` and ``cap_reallocation``
        events; ``ledger`` (a
        :class:`repro.obs.ledger.PredictionLedger`) records, for every
        node and interval, the power PPEP predicted one step ahead for
        the VF assignment the manager chose against the power the node
        then measured (as its filter cleaned it) -- the online Figure 7
        accuracy, one
        :meth:`~repro.obs.ledger.PredictionLedger.record` call per row.
        The rows live in the ledger's event log, from which
        :func:`~repro.obs.report.replay` rebuilds the ledger.

    Each interval steps every node through its own
    :meth:`~repro.hardware.platform.Platform.step`, filters node by
    node, prices every VF state of every node in one batched pass per
    model group, then runs the per-node cappers' greedy walks as one
    :func:`~repro.dvfs.power_capping.decide_nodes` column pass per
    model group.  Each node's filter, capper, streak, quarantine, held
    assignment and ledger price live in a :class:`NodeControl`, the
    controller the serve shard and the single-node loops run too.
    """

    def __init__(
        self,
        fleet: FleetSimulator,
        cap_schedule: Union[CapSchedule, float],
        policy: str = "proportional",
        harden: bool = False,
        unhealthy_after: int = 3,
        events=None,
        ledger=None,
    ) -> None:
        if policy not in ALLOCATION_POLICIES:
            raise ValueError(
                "unknown policy {!r}; choose from {}".format(
                    policy, ALLOCATION_POLICIES
                )
            )
        if unhealthy_after < 1:
            raise ValueError("unhealthy_after must be >= 1")
        self.fleet = fleet
        self.policy = policy
        self._schedule = (
            cap_schedule if callable(cap_schedule) else (lambda _s: float(cap_schedule))
        )
        self.harden = bool(harden)
        self.unhealthy_after = int(unhealthy_after)
        self._budgets = [ExternalBudget() for _ in fleet.nodes]
        self._controls = [
            NodeControl(node.name, node.ppep, budget, self.unhealthy_after, events, ledger)
            for node, budget in zip(fleet.nodes, self._budgets)
        ]
        self._step = 0
        self.events = events
        self.ledger = ledger
        self._last_alloc = None

    def reset(self) -> None:
        self._step = 0
        for control in self._controls:
            control.reset()
        self._last_alloc = None

    def state_dict(self) -> dict:
        """Everything a restarted manager needs to continue the loop
        bit-identically: quarantine streaks and entry times, held VF
        assignments, the pending one-step-ahead prices, per-node capper
        and budget state, per-node filter state, and the last emitted
        allocation signature (so a restart does not re-emit a duplicate
        ``cap_reallocation`` event)."""
        controls = [control.state_dict() for control in self._controls]
        return {
            "nodes": [node.name for node in self.fleet.nodes],
            "step": self._step,
            **{
                key: [control[key] for control in controls]
                for key in NodeControl.STATE_KEYS
            },
            "last_alloc": (
                None
                if self._last_alloc is None
                else [self._last_alloc[0], list(self._last_alloc[1])]
            ),
            "budgets": [budget.state_dict() for budget in self._budgets],
            "cappers": [control.capper.state_dict() for control in self._controls],
            "filters": (
                [control.filter.state_dict() for control in self._controls]
                if self.harden
                else None
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        names = [node.name for node in self.fleet.nodes]
        if list(state["nodes"]) != names:
            raise ValueError(
                "checkpoint was taken for nodes {} but this manager "
                "drives {}".format(state["nodes"], names)
            )
        if (state["filters"] is not None) != self.harden:
            raise ValueError(
                "checkpoint hardening mode does not match this manager"
            )
        if self.harden and len(state["filters"]) != len(names):
            raise ValueError(
                "expected {} filter states (one per node), got {}".format(
                    len(names), len(state["filters"])
                )
            )
        self._step = int(state["step"])
        for i, control in enumerate(self._controls):
            control.load_state_dict(
                {key: state[key][i] for key in NodeControl.STATE_KEYS}
            )
        self._last_alloc = (
            None
            if state["last_alloc"] is None
            else (
                float(state["last_alloc"][0]),
                tuple(bool(h) for h in state["last_alloc"][1]),
            )
        )
        for budget, budget_state in zip(self._budgets, state["budgets"]):
            budget.load_state_dict(budget_state)
        for control, capper_state in zip(self._controls, state["cappers"]):
            control.capper.load_state_dict(capper_state)
        if self.harden:
            for control, filter_state in zip(self._controls, state["filters"]):
                control.filter.load_state_dict(filter_state)

    def run(
        self,
        n_intervals: int,
        start_fastest: bool = True,
        resume: bool = False,
    ) -> FleetCappingRun:
        """Run the observe/allocate/decide/apply loop.

        As in :func:`repro.dvfs.governor.run_controlled`, the decision
        made from interval *k*'s samples governs interval *k + 1* (one
        interval of actuation latency).

        With ``resume=True`` the manager continues from its current
        state (e.g. one restored via :meth:`load_state_dict`) instead of
        resetting; node VF assignments are left wherever the platforms
        last put them.
        """
        if n_intervals <= 0:
            raise ValueError("n_intervals must be positive")
        if not resume:
            self.reset()
            if start_fastest:
                for node in self.fleet.nodes:
                    node.platform.set_all_vf(node.spec.vf_table.fastest)
        record = FleetCappingRun(
            node_names=[node.name for node in self.fleet.nodes]
        )
        controls = self._controls
        for _ in range(n_intervals):
            samples = self.fleet.step()
            step = self._step
            if self.harden:
                verdicts = [c.filter.ingest(s) for c, s in zip(controls, samples)]
                clean = [verdict.sample for verdict in verdicts]
                for control, verdict in zip(controls, verdicts):
                    control.report(step, verdict)
            else:
                verdicts = [None] * len(samples)
                clean = samples
            healthy = [
                control.advance(verdict)
                for control, verdict in zip(controls, verdicts)
            ]
            for control, sample, verdict in zip(controls, clean, verdicts):
                control.score(step, sample, verdict)
            prediction = self.fleet.predict(clean)
            cap = self._schedule(step)
            shares = allocate_with_quarantine(
                self.policy, cap, prediction.demand, prediction.floor, healthy
            )
            self._observe_allocation(cap, healthy)
            for budget, share in zip(self._budgets, shares):
                budget.set(float(share))
            # Every capper always sees its (cleaned) sample so its
            # schedule step and bias corrector stay in lockstep with the
            # platform, even when its decision is overridden: one column
            # walk per model group, over the observation predict stacked.
            decisions = [None] * len(self.fleet.nodes)
            for _ppep, node_ids, observation in prediction.groups:
                chosen = decide_nodes(
                    [controls[i].capper for i in node_ids],
                    [clean[i] for i in node_ids],
                    observation,
                )
                for i, decision in zip(node_ids, chosen):
                    decisions[i] = decision
            for node, control, decision, verdict in zip(
                self.fleet.nodes, controls, decisions, verdicts
            ):
                applied = control.settle(decision, verdict)
                for cu, vf in enumerate(applied):
                    node.platform.set_cu_vf(cu, vf)
            record.caps.append(cap)
            record.node_powers.append([s.measured_power for s in samples])
            record.shares.append([float(s) for s in shares])
            record.node_instructions.append(
                [s.total_instructions() for s in samples]
            )
            record.node_true_powers.append([s.true_power for s in samples])
            if self.harden:
                record.node_quality.append([v.quality for v in verdicts])
                record.node_healthy.append(healthy)
            self._step += 1
        return record

    def _observe_allocation(self, cap, healthy) -> None:
        """Quarantine-transition and budget-reallocation events.

        The transition state (each node's quarantine start,
        ``_last_alloc``) advances whether or not an event log is
        attached, so a checkpoint is the same with or without one; only
        the ``emit`` calls are conditional.
        """
        events = self.events
        for control in self._controls:
            control.transition(self._step)
        allocation = (float(cap), tuple(healthy))
        if allocation != self._last_alloc:
            self._last_alloc = allocation
            if events is not None:
                events.emit(
                    "cap_reallocation",
                    node="cluster",
                    interval=self._step,
                    budget_w=float(cap),
                    healthy_nodes=int(sum(healthy)),
                    total_nodes=len(self.fleet.nodes),
                )
