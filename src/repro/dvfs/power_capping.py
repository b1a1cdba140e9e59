"""One-step power capping (Section V-B, Figure 7).

Two controllers chase a time-varying power cap:

- :class:`PPEPPowerCapper` -- the paper's contribution: every interval
  it predicts chip power for candidate per-CU VF assignments (PPEP's
  cross-VF prediction, no trial-and-error) and directly picks the
  assignment that maximises predicted performance under the cap.  It
  reaches a new cap within one 200 ms decision interval.
- :class:`IterativePowerCapper` -- the commonly practiced reactive
  baseline: compare measured power against the cap and move one CU one
  VF step per interval.  With four CUs and four steps per CU it needs
  up to ~14 intervals (2.8 s) to span the range, matching the paper.

Both assume per-CU power planes (per-CU DVFS), as the paper does for
this experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.batch import BatchObservation
from repro.core.ppep import MixedPricer, PPEP
from repro.dvfs.governor import ControlledRun, DVFSController
from repro.hardware.platform import IntervalSample
from repro.hardware.vfstates import VFState, VFTable

__all__ = [
    "PPEPPowerCapper",
    "UniformPowerCapper",
    "IterativePowerCapper",
    "CappingResult",
    "ExternalBudget",
    "decide_nodes",
    "evaluate_capping",
    "evaluate_power_series",
    "square_wave_cap",
]

CapSchedule = Callable[[int], float]


class ExternalBudget:
    """A cap "schedule" whose value an outer controller sets at runtime.

    The per-chip cappers read their cap through a ``schedule(step)``
    callable.  Hierarchical managers (see
    :class:`repro.fleet.cluster_cap.ClusterPowerManager`) re-apportion a
    cluster budget every interval; handing each node's capper an
    ``ExternalBudget`` lets the existing one-step
    :class:`PPEPPowerCapper` chase a share it does not own.
    """

    def __init__(self, initial: float = float("inf")) -> None:
        self._value = float(initial)

    def set(self, watts: float) -> None:
        if watts < 0:
            raise ValueError("a power budget cannot be negative")
        self._value = float(watts)

    @property
    def value(self) -> float:
        return self._value

    def __call__(self, _step: int) -> float:
        return self._value

    def state_dict(self) -> dict:
        return {"value": self._value}

    def load_state_dict(self, state: dict) -> None:
        self._value = float(state["value"])


def square_wave_cap(
    high: float, low: float, period_intervals: int
) -> CapSchedule:
    """The Figure 7 cap profile: ``high`` and ``low`` alternating every
    ``period_intervals`` decision intervals (high first)."""
    if period_intervals <= 0:
        raise ValueError("period must be positive")

    def schedule(step: int) -> float:
        return high if (step // period_intervals) % 2 == 0 else low

    return schedule


class PPEPPowerCapper(DVFSController):
    """Proactive one-step capping via PPEP's cross-VF predictions.

    The per-CU search is greedy: start with every CU at the fastest
    state and, while the predicted chip power exceeds the cap, lower
    the CU offering the largest predicted power saving per unit of
    predicted performance loss.  The greedy walk takes at most
    ``num_cus * (num_states - 1)`` steps and prices up to ``num_cus``
    candidates per step, each a sum over one row of a
    :class:`~repro.core.ppep.MixedPricer` price table.  A walk down to
    the floor (every CU at the slowest state) prices 45-63 assignments
    on the FX-8320 and 70-100 on the Phenom II, climb-back included.
    :meth:`decide` skips a walk that the table's lower bound proves
    ends at the floor, and then prices two assignments.
    :func:`decide_nodes` runs the same walk, never skipped, for a whole
    group of nodes at once, over the group's table; it is the reference
    the skip is tested against.
    """

    #: Fraction of the budget the walk aims for.
    margin = 0.97
    #: EWMA gain of the measured/predicted bias corrector.  PPEP's
    #: per-workload prediction bias is systematic, so one interval
    #: of power-sensor feedback removes most of it -- exactly the
    #: correction a firmware implementation would apply.
    bias_gain = 0.25

    def __init__(
        self, ppep: PPEP, cap_schedule: Union[CapSchedule, float]
    ) -> None:
        self.ppep = ppep
        self._schedule = (
            cap_schedule if callable(cap_schedule) else (lambda _s: float(cap_schedule))
        )
        self._step = 0
        self._bias = 1.0
        self._last_predicted = None
        self._priced = None

    def reset(self) -> None:
        self._step = 0
        self._bias = 1.0
        self._last_predicted = None
        self._priced = None

    def state_dict(self) -> dict:
        """The controller's closed-loop state: schedule step, EWMA bias,
        and the previous prediction the bias corrector scores against.
        (The schedule itself is configuration, not state -- an
        :class:`ExternalBudget` checkpoints separately.)"""
        return {
            "step": self._step,
            "bias": self._bias,
            "last_predicted": self._last_predicted,
        }

    def load_state_dict(self, state: dict) -> None:
        self._step = int(state["step"])
        self._bias = float(state["bias"])
        self._last_predicted = (
            None
            if state["last_predicted"] is None
            else float(state["last_predicted"])
        )

    @property
    def last_predicted(self):
        """Predicted chip power of the assignment the last decision
        (:meth:`decide` or :func:`decide_nodes`) returned
        (``predict_mixed``'s value, to the bit), or ``None`` before the
        first decision."""
        return self._last_predicted

    def price(self, assignment: Sequence[VFState]) -> float:
        """Predicted chip power of ``assignment`` on the sample the last
        decision (:meth:`decide` or :func:`decide_nodes`) was made from,
        read from that decision's price table (``(table, row)``)."""
        if self._priced is None:
            raise RuntimeError("price() needs a decision first")
        table, row = self._priced
        return table.price(row, assignment)[0]

    def _advance(self, measured_power: float) -> float:
        """Open one decision: the bias corrector's update, then this
        interval's effective cap (the schedule step advances)."""
        if self._last_predicted is not None and self._last_predicted > 1.0:
            observed = measured_power / self._last_predicted
            self._bias += self.bias_gain * (observed - self._bias)
        cap = self._schedule(self._step) * self.margin / max(self._bias, 0.5)
        self._step += 1
        return cap

    def decide(
        self, sample: IntervalSample, priced: Optional[Tuple[MixedPricer, int]] = None
    ) -> Sequence[VFState]:
        """The per-CU assignment for the interval after ``sample``.

        The walk prices from ``priced``, a (table, row) whose row holds
        ``sample`` (the serve shard prices a run of nodes from one
        table); without it, from a one-row table of ``sample``.  A row
        holds the same floats in any table, so the decision is the same.

        When the fastest assignment prices over the cap, the walk first
        reads the table's :meth:`~repro.core.ppep.MixedPricer.lower_bound`.
        A bound above the cap means every assignment prices above it:
        the descent can only end with every CU at the floor, whichever
        CU the scores pick, and no climb-back step fits.  The floor is
        then returned without the walk, with the same ``last_predicted``
        (the floor's price).  A bound at or below the cap, or NaN, walks.
        """
        spec = self.ppep.spec
        table = spec.vf_table
        if priced is None:
            # The greedy walk below prices dozens of assignments from
            # the table, each a cheap sum on Python floats.  A sample
            # the model rejects raises here, before the capper's state
            # moves.
            priced = (
                MixedPricer(self.ppep, BatchObservation.from_samples(spec, [sample])),
                0,
            )
        self._priced = priced
        pricer, row = priced
        price = pricer.price

        assignment: List[VFState] = [table.fastest] * spec.num_cus
        power, perf = price(row, assignment)
        cap = self._advance(sample.measured_power)
        if power > cap and pricer.lower_bound(row) > cap:
            assignment = [table.slowest] * spec.num_cus
            self._last_predicted = price(row, assignment)[0]
            return assignment
        while power > cap:
            best_cu = None
            best_score = None
            best_next = None
            for cu in range(spec.num_cus):
                current = assignment[cu]
                lower = table.step_down(current)
                if lower.index == current.index:
                    continue
                trial = list(assignment)
                trial[cu] = lower
                trial_power, trial_perf = price(row, trial)
                saved = power - trial_power
                lost = max(perf - trial_perf, 1.0)
                score = saved / lost
                if best_score is None or score > best_score:
                    best_cu, best_score = cu, score
                    best_next = (trial, trial_power, trial_perf)
            if best_cu is None:
                break  # every CU is already at the floor
            assignment, power, perf = best_next

        # Refinement: the last greedy step can overshoot well below the
        # cap; climb individual CUs back up while the prediction still
        # fits, so the budget is actually used (performance under cap is
        # the objective, not distance below it).
        improved = True
        while improved:
            improved = False
            best_gain = None
            best_state = None
            for cu in range(spec.num_cus):
                current = assignment[cu]
                higher = table.step_up(current)
                if higher.index == current.index:
                    continue
                trial = list(assignment)
                trial[cu] = higher
                trial_power, trial_perf = price(row, trial)
                if trial_power <= cap:
                    gain = trial_perf - perf
                    if best_gain is None or gain > best_gain:
                        best_gain = gain
                        best_state = (trial, trial_power, trial_perf)
            if best_state is not None:
                assignment, power, perf = best_state
                improved = True
        self._last_predicted = power
        return assignment


def decide_nodes(
    cappers: Sequence[PPEPPowerCapper],
    samples: Sequence[IntervalSample],
    batch: BatchObservation,
) -> List[List[VFState]]:
    """``[c.decide(s) for c, s in zip(cappers, samples)]`` as one column walk.

    Every capper must share one :class:`PPEP`; ``batch`` is
    :meth:`BatchObservation.from_samples` of ``samples`` (which raises
    what ``core_states`` would on a malformed sample).  The greedy
    descent and the climb-back advance as masked column ops over the
    node axis: each step, every node still over its cap prices all of
    its one-CU-slower candidates at once.  Decisions, the cappers'
    step, bias and ``last_predicted`` equal the per-node
    :meth:`PPEPPowerCapper.decide` calls bit for bit:

    - both walks read one :class:`~repro.core.ppep.MixedPricer` table,
      here the whole group's, built from ``batch``;
    - each price sums the table's (core, VF) terms in ``predict_mixed``'s
      order (from 0.0, ``+= core`` then ``+= nb`` per core, then idle;
      instructions/s per core) as a running sum, which adds strictly
      left to right, and takes idle power from :meth:`MixedPricer.idle`;
    - the first CU with a strictly greater score (or gain) wins, and
      ``max``/comparison semantics include NaN.

    A sample the model rejects raises before any capper's state
    changes.  Each capper keeps (table, its row), so
    :meth:`PPEPPowerCapper.price` reads the table afterwards.
    """
    ppep = cappers[0].ppep
    if any(capper.ppep is not ppep for capper in cappers):
        raise ValueError("a column walk needs cappers that share one PPEP")
    n = len(cappers)
    if len(samples) != n or batch.num_nodes != n:
        raise ValueError("need one sample and one observation row per capper")
    spec = ppep.spec
    states = spec.vf_table.ascending()
    top = len(states) - 1
    num_cus = spec.num_cus
    num_cores = spec.num_cores
    pricer = MixedPricer(ppep, batch)

    # A cell is (node, core, VF column); pairs[cell] is its (core, NB)
    # terms, so pairs[cells] of one assignment lists the dynamic-power
    # terms in predict_mixed's addition order.
    pairs = np.stack([pricer.core, pricer.nb], axis=-1).reshape(-1, 2)
    rates = pricer.rate.reshape(-1)
    cell_base = (np.arange(n)[:, None] * num_cores + np.arange(num_cores)) * len(
        states
    )
    core_cu = np.array([spec.cu_of_core(c) for c in range(num_cores)])
    # own[c, k]: core c belongs to CU k; own_terms repeats it per term.
    own = core_cu[:, None] == np.arange(num_cus)
    own_terms = np.repeat(own, 2, axis=0)

    def terms(cells):
        """(dynamic terms, rates) of per-node cells, summed axis first."""
        return pairs[cells].reshape(len(cells), -1).T, rates[cells].T

    def running_sum(values):
        """``values`` summed from 0.0 strictly in order along axis 0, as
        predict_mixed's ``+=`` (a reduction may reassociate)."""
        total = values[0] + 0.0
        for row in values[1:]:
            total += row
        return total

    def neighbours(active, step):
        """Every node's one-CU-moved candidates: (trials, movable, powers, perfs)."""
        current = assign[active]
        movable = current > 0 if step < 0 else current < top
        trials = np.repeat(current[:, None, :], num_cus, axis=1)
        trials[:, cu_axis, cu_axis] += step * movable
        cells = cell_base[active] + current[:, core_cu]
        stay_dyn, stay_rate = terms(cells)
        move_dyn, move_rate = terms(cells + step * movable[:, core_cu])
        # Candidate k takes CU k's cores from the moved cells.
        trial_power = running_sum(
            np.where(own_terms[:, None, :], move_dyn[..., None], stay_dyn[..., None])
        ) + pricer.idle(
            np.repeat(active, num_cus), trials.reshape(-1, num_cus)
        ).reshape(-1, num_cus)
        trial_perf = running_sum(
            np.where(own[:, None, :], move_rate[..., None], stay_rate[..., None])
        )
        return trials, movable, trial_power, trial_perf

    def take(active, trials, best, trial_power, trial_perf):
        """Move every node with a winner to it; returns those nodes."""
        moved = best >= 0
        rows, best, active = np.flatnonzero(moved), best[moved], active[moved]
        assign[active] = trials[rows, best]
        power[active] = trial_power[rows, best]
        perf[active] = trial_perf[rows, best]
        return active

    # Every capper's state changes from here on.
    caps = np.array(
        [capper._advance(s.measured_power) for capper, s in zip(cappers, samples)]
    )
    cu_axis = np.arange(num_cus)
    assign = np.full((n, num_cus), top)
    with np.errstate(all="ignore"):
        dyn, rate_terms = terms(cell_base + top)
        power = running_sum(dyn) + pricer.uniform_idle[:, top]
        perf = running_sum(rate_terms)
        active = np.flatnonzero(power > caps)
        while active.size:
            trials, movable, trial_power, trial_perf = neighbours(active, -1)
            lost = perf[active, None] - trial_perf
            score = (power[active, None] - trial_power) / np.where(
                1.0 > lost, 1.0, lost
            )
            active = take(
                active, trials, _first_best(score, movable), trial_power, trial_perf
            )
            active = active[power[active] > caps[active]]
        # Climb back while a one-CU raise still fits under the cap.
        active = np.arange(n)
        while active.size:
            trials, movable, trial_power, trial_perf = neighbours(active, +1)
            fits = movable & (trial_power <= caps[active, None])
            best = _first_best(trial_perf - perf[active, None], fits)
            active = take(active, trials, best, trial_power, trial_perf)
    for row, (capper, predicted) in enumerate(zip(cappers, power.tolist())):
        capper._last_predicted = predicted
        capper._priced = (pricer, row)
    return [[states[t] for t in row] for row in assign.tolist()]


def _first_best(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Per row, the first valid column with a strictly greater value
    than every valid one before it (``-1`` where none is valid)."""
    best = np.full(len(values), -1)
    best_value = np.zeros(len(values))
    for k in range(values.shape[1]):
        wins = valid[:, k] & ((best < 0) | (values[:, k] > best_value))
        best[wins] = k
        best_value[wins] = values[wins, k]
    return best


class UniformPowerCapper(DVFSController):
    """One-step capping restricted to chip-uniform VF states.

    Today's hardware mostly offers per-CU *frequency* but only global
    *voltage* scaling (the paper assumes per-CU power planes for its
    Figure 7 study).  This variant models the conservative end: one VF
    state for the whole chip, still chosen proactively from PPEP's
    predictions.  Comparing it against :class:`PPEPPowerCapper` shows
    what per-CU planes buy: finer power granularity under the cap.
    """

    #: Fraction of the budget the choice aims for.
    margin = 0.97

    def __init__(
        self, ppep: PPEP, cap_schedule: Union[CapSchedule, float]
    ) -> None:
        self.ppep = ppep
        self._schedule = (
            cap_schedule if callable(cap_schedule) else (lambda _s: float(cap_schedule))
        )
        self._step = 0

    def reset(self) -> None:
        self._step = 0

    def decide(self, sample: IntervalSample) -> Sequence[VFState]:
        from repro.core.energy import EnergyPredictor

        cap = self._schedule(self._step) * self.margin
        self._step += 1
        snapshot = self.ppep.analyze(sample)
        best = EnergyPredictor.best_performance_under_cap(
            snapshot.all_predictions(), cap
        )
        chosen = best.vf if best is not None else self.ppep.spec.vf_table.slowest
        return [chosen] * self.ppep.spec.num_cus


class IterativePowerCapper(DVFSController):
    """The reactive baseline: one CU moves one VF step per interval.

    Over the cap: lower the fastest CU.  Under ``raise_threshold`` of
    the cap: raise the slowest CU (and observe what happens next
    interval).  This is the try-observe-retry loop the paper describes
    as commonly practiced in commercial CPUs.
    """

    #: Fraction of the cap below which the slowest CU is raised.
    raise_threshold = 0.92

    def __init__(
        self,
        vf_table: VFTable,
        num_cus: int,
        cap_schedule: Union[CapSchedule, float],
    ) -> None:
        self.table = vf_table
        self.num_cus = num_cus
        self._schedule = (
            cap_schedule if callable(cap_schedule) else (lambda _s: float(cap_schedule))
        )
        self._step = 0
        self._assignment: List[VFState] = [vf_table.fastest] * num_cus

    def reset(self) -> None:
        self._step = 0
        self._assignment = [self.table.fastest] * self.num_cus

    def decide(self, sample: IntervalSample) -> Sequence[VFState]:
        cap = self._schedule(self._step)
        self._step += 1
        measured = sample.measured_power
        assignment = list(self._assignment)
        if measured > cap:
            # Lower the fastest CU one step.
            cu = max(range(self.num_cus), key=lambda c: assignment[c].index)
            assignment[cu] = self.table.step_down(assignment[cu])
        elif measured < cap * self.raise_threshold:
            # Power headroom: raise the slowest CU one step.
            cu = min(range(self.num_cus), key=lambda c: assignment[c].index)
            assignment[cu] = self.table.step_up(assignment[cu])
        self._assignment = assignment
        return assignment


@dataclass(frozen=True)
class CappingResult:
    """Figure 7 metrics for one controller run."""

    #: Intervals needed to get back under the cap after each cap *drop*.
    settle_intervals: List[int]
    #: Fraction of intervals whose measured power exceeded the cap.
    violation_rate: float
    #: Mean of ``1 - |P - cap| / cap`` -- how tightly the controller
    #: tracks the budget (the paper's "adheres with 94% accuracy").
    adherence: float
    #: Total instructions retired over the run (performance side).
    total_instructions: float

    @property
    def worst_settle(self) -> int:
        return max(self.settle_intervals) if self.settle_intervals else 0

    @property
    def mean_settle(self) -> float:
        if not self.settle_intervals:
            return 0.0
        return sum(self.settle_intervals) / len(self.settle_intervals)


def evaluate_capping(
    run: ControlledRun, cap_schedule: CapSchedule
) -> CappingResult:
    """Score a closed-loop run against its cap schedule."""
    caps = [cap_schedule(i) for i in range(len(run.samples))]
    return evaluate_power_series(
        run.measured_powers, caps, run.total_instructions()
    )


def evaluate_power_series(
    powers: Sequence[float],
    caps: Sequence[float],
    total_instructions: float,
) -> CappingResult:
    """Score any per-interval power series against its cap series.

    The Figure 7 methodology detached from :class:`ControlledRun`, so
    fleet-level totals (sum of node powers vs. a cluster budget) are
    scored with exactly the same settle/violation/adherence metrics as
    a single chip.
    """
    if len(powers) != len(caps):
        raise ValueError("powers and caps must align")
    if not powers:
        raise ValueError("cannot score an empty run")

    settle: List[int] = []
    i = 1
    while i < len(caps):
        if caps[i] < caps[i - 1]:
            # A cap drop at interval i: count intervals until back under.
            waited = 0
            j = i
            while j < len(caps) and powers[j] > caps[j]:
                waited += 1
                j += 1
            settle.append(waited)
        i += 1

    violations = sum(1 for p, c in zip(powers, caps) if p > c)
    adherence = float(
        np.mean([1.0 - abs(p - c) / c for p, c in zip(powers, caps)])
    )
    return CappingResult(
        settle_intervals=settle,
        violation_rate=violations / len(powers),
        adherence=adherence,
        total_instructions=total_instructions,
    )
