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

from repro.dvfs.power_capping import (
    CappingResult,
    ExternalBudget,
    PPEPPowerCapper,
    decide_nodes,
    evaluate_power_series,
)
from repro.faults.filtering import GOOD, FilterConfig, TelemetryFilter
from repro.fleet.simulator import FleetSimulator

__all__ = [
    "ALLOCATION_POLICIES",
    "ClusterPowerManager",
    "FleetCappingRun",
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
    margin / bias_gain:
        Forwarded to each node's :class:`PPEPPowerCapper`.
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
    filter_config:
        Optional :class:`~repro.faults.filtering.FilterConfig` for the
        per-node filters.
    events / ledger:
        Optional observability sinks.  ``events`` (a
        :class:`repro.obs.events.EventLog`) receives ``filter_verdict``,
        ``quarantine_enter``/``quarantine_exit`` and ``cap_reallocation``
        events; ``ledger`` (a
        :class:`repro.obs.ledger.PredictionLedger`) records, for every
        node and interval, the power PPEP predicted one step ahead for
        the VF assignment the manager chose against the power the node
        then measured -- the online Figure 7 accuracy, one
        :meth:`~repro.obs.ledger.PredictionLedger.record` call per row,
        the call :meth:`~repro.obs.ledger.PredictionLedger.from_events`
        replays.

    Each interval steps the fleet in one
    :class:`~repro.fleet.engine.FleetEngine` pass, filters and scores
    node by node (the same filter and ledger code the serve shard
    runs), prices every VF state of every node in one batched pass per
    model group, then runs the per-node cappers' greedy walks as one
    :func:`~repro.dvfs.power_capping.decide_nodes` column pass per
    model group.
    """

    def __init__(
        self,
        fleet: FleetSimulator,
        cap_schedule: Union[CapSchedule, float],
        policy: str = "proportional",
        margin: float = 0.97,
        bias_gain: float = 0.25,
        harden: bool = False,
        unhealthy_after: int = 3,
        filter_config: FilterConfig = None,
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
        self._budgets = [ExternalBudget() for _ in fleet.nodes]
        self._cappers = [
            PPEPPowerCapper(node.ppep, budget, margin=margin, bias_gain=bias_gain)
            for node, budget in zip(fleet.nodes, self._budgets)
        ]
        self.harden = bool(harden)
        self.unhealthy_after = int(unhealthy_after)
        self._filters = (
            [TelemetryFilter(node.spec, filter_config) for node in fleet.nodes]
            if self.harden
            else None
        )
        self._bad_streak = np.zeros(len(fleet.nodes), dtype=np.int64)
        self._held = [None] * len(fleet.nodes)
        self._step = 0
        self.events = events
        self.ledger = ledger
        self._quarantined_since = [None] * len(fleet.nodes)
        self._pending = [None] * len(fleet.nodes)
        self._last_alloc = None

    def reset(self) -> None:
        self._step = 0
        for capper in self._cappers:
            capper.reset()
        if self._filters is not None:
            for telemetry_filter in self._filters:
                telemetry_filter.reset()
        self._bad_streak = np.zeros(len(self.fleet.nodes), dtype=np.int64)
        self._held = [None] * len(self.fleet.nodes)
        self._quarantined_since = [None] * len(self.fleet.nodes)
        self._pending = [None] * len(self.fleet.nodes)
        self._last_alloc = None

    def state_dict(self) -> dict:
        """Everything a restarted manager needs to continue the loop
        bit-identically: quarantine streaks and entry times, held VF
        assignments, the pending one-step-ahead prices, per-node capper
        and budget state, per-node filter state, and the last emitted
        allocation signature (so a restart does not re-emit a duplicate
        ``cap_reallocation`` event)."""
        return {
            "nodes": [node.name for node in self.fleet.nodes],
            "step": self._step,
            "bad_streak": [int(s) for s in self._bad_streak],
            "held": [
                None if held is None else [vf.index for vf in held]
                for held in self._held
            ],
            "quarantined_since": list(self._quarantined_since),
            "pending": [
                None if pending is None else [pending[0], pending[1]]
                for pending in self._pending
            ],
            "last_alloc": (
                None
                if self._last_alloc is None
                else [self._last_alloc[0], list(self._last_alloc[1])]
            ),
            "budgets": [budget.state_dict() for budget in self._budgets],
            "cappers": [capper.state_dict() for capper in self._cappers],
            "filters": (
                None
                if self._filters is None
                else [f.state_dict() for f in self._filters]
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        names = [node.name for node in self.fleet.nodes]
        if list(state["nodes"]) != names:
            raise ValueError(
                "checkpoint was taken for nodes {} but this manager "
                "drives {}".format(state["nodes"], names)
            )
        if (state["filters"] is None) != (self._filters is None):
            raise ValueError(
                "checkpoint hardening mode does not match this manager"
            )
        if self._filters is not None and len(state["filters"]) != len(names):
            raise ValueError(
                "expected {} filter states (one per node), got {}".format(
                    len(names), len(state["filters"])
                )
            )
        self._step = int(state["step"])
        self._bad_streak = np.array(
            [int(s) for s in state["bad_streak"]], dtype=np.int64
        )
        self._held = [
            None
            if held is None
            else [
                node.spec.vf_table.by_index(int(index)) for index in held
            ]
            for node, held in zip(self.fleet.nodes, state["held"])
        ]
        self._quarantined_since = [
            None if since is None else int(since)
            for since in state["quarantined_since"]
        ]
        self._pending = [
            None if pending is None else (int(pending[0]), float(pending[1]))
            for pending in state["pending"]
        ]
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
        for capper, capper_state in zip(self._cappers, state["cappers"]):
            capper.load_state_dict(capper_state)
        if self._filters is not None:
            for telemetry_filter, filter_state in zip(
                self._filters, state["filters"]
            ):
                telemetry_filter.load_state_dict(filter_state)

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
        for _ in range(n_intervals):
            samples = self.fleet.step()
            if self.harden:
                filtered = [f.ingest(s) for f, s in zip(self._filters, samples)]
                actionable = np.fromiter(
                    (verdict.actionable for verdict in filtered),
                    dtype=bool,
                    count=len(filtered),
                )
                self._bad_streak = np.where(
                    actionable, 0, self._bad_streak + 1
                )
                healthy = [
                    bool(h) for h in self._bad_streak < self.unhealthy_after
                ]
                clean = [verdict.sample for verdict in filtered]
            else:
                filtered = None
                healthy = [True] * len(self.fleet.nodes)
                clean = samples
            self._observe_interval(samples, filtered)
            prediction = self.fleet.predict(clean)
            cap = self._schedule(self._step)
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
                    [self._cappers[i] for i in node_ids],
                    [clean[i] for i in node_ids],
                    observation,
                )
                for i, decision in zip(node_ids, chosen):
                    decisions[i] = decision
            for i, (node, capper, decision) in enumerate(
                zip(self.fleet.nodes, self._cappers, decisions)
            ):
                held = False
                if not healthy[i]:
                    decision = [node.spec.vf_table.slowest] * node.spec.num_cus
                    self._held[i] = None
                elif filtered is not None and not filtered[i].actionable:
                    if self._held[i] is not None:
                        decision = list(self._held[i])
                        held = True
                else:
                    self._held[i] = list(decision)
                for cu, vf in enumerate(decision):
                    node.platform.set_cu_vf(cu, vf)
                if self.ledger is not None:
                    # A quarantined node's telemetry is not coming back;
                    # pricing its pinned decision would only queue rows
                    # that the staleness guard above discards anyway.
                    # The capper already priced its own decision from
                    # this very sample; only a held one needs pricing.
                    if not healthy[i]:
                        self._pending[i] = None
                    elif held:
                        self._pending[i] = self._price_decision(
                            node, clean[i], decision
                        )
                    else:
                        self._pending[i] = (
                            decision[0].index,
                            float(capper.last_predicted),
                        )
            record.caps.append(cap)
            record.node_powers.append([s.measured_power for s in samples])
            record.shares.append([float(s) for s in shares])
            record.node_instructions.append(
                [s.total_instructions() for s in samples]
            )
            record.node_true_powers.append([s.true_power for s in samples])
            if filtered is not None:
                record.node_quality.append([v.quality for v in filtered])
                record.node_healthy.append(list(healthy))
            self._step += 1
        return record

    def _observe_interval(self, samples, filtered) -> None:
        """Per-interval observability: verdict events + ledger rows.

        The ledger pairs the power predicted *last* interval for the VF
        assignment the manager applied with the power the node's
        telemetry now reports -- the one-step-ahead accuracy that the
        Figure 7 capping property rests on.
        """
        if self.events is not None and filtered is not None:
            for node, verdict in zip(self.fleet.nodes, filtered):
                if verdict.quality == GOOD:
                    # GOOD intervals stay silent: their quality rides on
                    # the prediction row, and one event per node per
                    # interval would dominate the stream.
                    continue
                self.events.emit(
                    "filter_verdict",
                    node=node.name,
                    interval=self._step,
                    quality=verdict.quality,
                    issues=list(verdict.issues),
                )
        if self.ledger is not None:
            for i, (node, sample) in enumerate(zip(self.fleet.nodes, samples)):
                pending = self._pending[i]
                if pending is None:
                    continue
                if filtered is not None and not filtered[i].actionable:
                    # A dropped-out or otherwise broken stream delivers
                    # stale readings; scoring last interval's prediction
                    # against them would pin the ledger's error stats to
                    # garbage, so BAD intervals record nothing.
                    continue
                vf_index, predicted = pending
                self.ledger.record(
                    node=node.name,
                    interval=self._step,
                    vf_index=vf_index,
                    predicted_power=predicted,
                    measured_power=sample.measured_power,
                    interval_s=sample.interval_s,
                    quality=filtered[i].quality if filtered is not None else None,
                )

    def _observe_allocation(self, cap, healthy) -> None:
        """Quarantine-transition and budget-reallocation events.

        The transition state (``_quarantined_since``, ``_last_alloc``)
        advances whether or not an event log is attached, so a
        checkpoint is the same with or without one; only the ``emit``
        calls are conditional.
        """
        events = self.events
        for i, node in enumerate(self.fleet.nodes):
            since = self._quarantined_since[i]
            if not healthy[i] and since is None:
                self._quarantined_since[i] = self._step
                if events is not None:
                    events.emit(
                        "quarantine_enter",
                        node=node.name,
                        interval=self._step,
                        bad_streak=int(self._bad_streak[i]),
                    )
            elif healthy[i] and since is not None:
                self._quarantined_since[i] = None
                if events is not None:
                    events.emit(
                        "quarantine_exit",
                        node=node.name,
                        interval=self._step,
                        quarantined_intervals=self._step - since,
                    )
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

    def _price_decision(self, node, sample, decision):
        """(vf_index, predicted watts) for the applied VF assignment."""
        states = node.ppep.core_states(sample)
        power, _rate = node.ppep.predict_mixed(
            states, sample.temperature, decision, sample.power_gating
        )
        return decision[0].index, float(power)

