"""Bit-exactness of the fleet struct-of-arrays kernel.

The fleet kernel's contract is not "close".  Each batched layer is
checked bit for bit against a per-node oracle that stays in the
library: the mixed-VF price table both capper walks read
(:class:`~repro.core.ppep.MixedPricer`, one row at a time and as
columns) and the term kernel (``PPEP.core_terms``) against
``PPEP.predict_mixed`` and ``EventPredictor.predict``, and the fleet's
column walk (:func:`~repro.dvfs.power_capping.decide_nodes`) against
per-node ``PPEPPowerCapper.decide``.  ``decide`` skips a walk that its
table's lower bound proves ends at the floor; the column walk never
skips, so it is the reference for those skips too.  Stepping,
telemetry filtering and ledger scoring have one implementation each
(``Platform.step``, :class:`~repro.faults.filtering.TelemetryFilter`,
:meth:`~repro.obs.ledger.PredictionLedger.record`), which the fleet
runs per node.

The control plane's decision streams (fleet manager, serve shard,
one-step capper) are pinned in
``tests/data/control_streams.golden.json``, recorded while the per-node
twins of every layer still existed and agreed with the batched path.
Every recorded float round-trips exactly through JSON, so a golden
mismatch is a behaviour change, located by (stream, round, node,
field).  The rosters are mixed-SKU with ~5% fault rates and drive
quarantine enter/exit.
"""

import dataclasses
import itertools
import json
import os
import warnings

import numpy as np
import pytest

from repro.core.batch import BatchObservation
from repro.core.dynamic_power import dynamic_feature_vector
from repro.core.ppep import MixedPricer
from repro.dvfs.power_capping import ExternalBudget, PPEPPowerCapper, decide_nodes
from repro.faults.injection import FaultSpec
from repro.fleet import cluster_cap
from repro.fleet.cluster_cap import ClusterPowerManager
from repro.fleet.simulator import make_fleet
from repro.hardware.events import Event, EventVector
from repro.hardware.microarch import FX8320_SPEC, PHENOM_II_SPEC
from repro.obs.events import EventLog, read_events
from repro.obs.ledger import PredictionLedger
from repro.serve.shard import ShardPipeline

MIXED_SPECS = [
    FX8320_SPEC,
    PHENOM_II_SPEC,
    FX8320_SPEC,
    PHENOM_II_SPEC,
    FX8320_SPEC,
    FX8320_SPEC,
]

#: ~5% fault rates on some nodes, one clean node, one dropout node --
#: exercises stale/spike/stuck repair, BAD streaks, and quarantine.
FAULTS = [
    FaultSpec(
        drop_rate=0.05,
        spike_rate=0.05,
        stuck_rate=0.03,
        counter_wrap_rate=0.04,
        stale_rate=0.05,
    ),
    None,
    FaultSpec(dropout_after_interval=12),
]

GOLDEN = os.path.join(
    os.path.dirname(__file__), "data", "control_streams.golden.json"
)

#: The per-interval fields of :class:`~repro.fleet.cluster_cap.FleetCappingRun`.
RUN_FIELDS = (
    "node_powers",
    "shares",
    "node_instructions",
    "node_true_powers",
    "node_quality",
    "node_healthy",
)

#: (spec, power gating) per capper case.  FX-8320 has a power-gating
#: model (per-CU idle decomposition), Phenom II has none (mixed
#: assignments take Eq. 2 idle power at the mean voltage).
CAPPER_CASES = {
    "fx8320-pg": (FX8320_SPEC, True),
    "fx8320-nopg": (FX8320_SPEC, False),
    "phenom-pg": (PHENOM_II_SPEC, True),
    "phenom-nopg": (PHENOM_II_SPEC, False),
}

PRICER_CASES = [
    pytest.param(spec, power_gating, id=case)
    for case, (spec, power_gating) in CAPPER_CASES.items()
]


def _half_busy_node(registry, spec, power_gating):
    """A node with half its CUs loaded, so its samples have idle cores."""
    fleet = make_fleet(
        [spec], registry, power_gating=power_gating, busy_cus=[spec.num_cus // 2]
    )
    return fleet.nodes[0]


# -- golden decision streams ---------------------------------------------------


def _jsonable(value):
    """``value`` exactly as it reads back from the golden file.

    ``json`` writes floats with ``repr``, so they round-trip bit for
    bit; tuples come back as lists and dict keys as strings.
    """
    return json.loads(json.dumps(value))


def _fleet_manager(registry, evented=True):
    return ClusterPowerManager(
        make_fleet(MIXED_SPECS, registry, fault_specs=FAULTS),
        cap_schedule=420.0,
        policy="waterfill",
        harden=True,
        ledger=PredictionLedger(),
        events=EventLog() if evented else None,
    )


def _run_rows(run, first_round=0):
    """A :class:`FleetCappingRun` as rows: one cluster row and one row
    per node for every round."""
    rows = []
    for r, cap in enumerate(run.caps):
        rows.append({"round": first_round + r, "node": "cluster", "caps": cap})
        for n, name in enumerate(run.node_names):
            row = {"round": first_round + r, "node": name}
            for field in RUN_FIELDS:
                row[field] = getattr(run, field)[r][n]
            rows.append(row)
    return _jsonable(rows)


def record_fleet_stream(registry):
    """The hardened waterfill fleet at 420 W: 30 rounds, checkpoints
    after rounds 20 and 30."""
    manager = _fleet_manager(registry)
    head = manager.run(20)
    state_20 = _jsonable(manager.state_dict())
    tail = manager.run(10, resume=True)
    return {
        "run": _run_rows(head) + _run_rows(tail, first_round=20),
        "events": _jsonable(manager.events.records),
        "state_20": state_20,
        "state_30": _jsonable(manager.state_dict()),
        "ledger_30": _jsonable(manager.ledger.state_dict()),
    }


def record_shard_stream(registry):
    """Three faulty FX-8320 nodes through one shard at 180 W, 15 intervals."""
    fleet = make_fleet([FX8320_SPEC] * 3, registry, fault_specs=FAULTS)
    names = [node.name for node in fleet.nodes]
    pipeline = ShardPipeline(
        sku="fx8320",
        spec=FX8320_SPEC,
        ppep=fleet.nodes[0].ppep,
        node_names=names,
        budget_w=180.0,
    )
    outputs = []
    for _ in range(15):
        for name, sample in zip(names, fleet.step()):
            outputs.append(pipeline.process(name, sample))
    return {
        "outputs": _jsonable(outputs),
        "state": _jsonable(pipeline.state_dict()),
    }


def record_capper_stream(registry, case):
    """Ten one-step decisions alternating a budget the walk settles
    inside with one it cannot meet (so it also ends at the floor)."""
    spec, power_gating = CAPPER_CASES[case]
    node = _half_busy_node(registry, spec, power_gating)
    budgets = (30.0, 1.0)
    capper = PPEPPowerCapper(node.ppep, lambda step: budgets[step % 2])
    rows = []
    for k in range(10):
        decision = capper.decide(node.platform.step())
        rows.append(
            {
                "round": k,
                "node": case,
                "decision": [vf.index for vf in decision],
                "last_predicted": capper.last_predicted,
            }
        )
    return _jsonable(rows)


def write_control_goldens(path=GOLDEN):
    """Record every stream and write the golden file."""
    from tests.conftest import make_tiny_registry

    registry = make_tiny_registry()
    streams = {
        "fleet": record_fleet_stream(registry),
        "shard": record_shard_stream(registry),
        "capper": {
            case: record_capper_stream(registry, case) for case in CAPPER_CASES
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(streams, indent=1, sort_keys=True) + "\n")


def load_goldens():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def _first_difference(expected, actual, path=()):
    """Path to the first leaf where two JSON values differ, else None."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in list(expected) + [k for k in actual if k not in expected]:
            if key not in expected or key not in actual:
                return path + (key,)
            found = _first_difference(expected[key], actual[key], path + (key,))
            if found is not None:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = _first_difference(e, a, path + (i,))
            if found is not None:
                return found
        if len(expected) != len(actual):
            return path + (min(len(expected), len(actual)),)
        return None
    # Leaves compare by their JSON text: exact floats, NaN equal to
    # itself, and 1 distinct from 1.0 and True.
    return None if json.dumps(expected) == json.dumps(actual) else path


def _locate(expected, path):
    """(section, round, node, field) naming a difference path."""
    section, rest, value = [], list(path), expected
    # Descend through named sections to a list of rows or a checkpoint.
    while (
        rest and isinstance(value, dict) and "nodes" not in value and rest[0] in value
    ):
        value = value[rest[0]]
        section.append(str(rest.pop(0)))
    rnd = node = None
    if (
        isinstance(value, list)
        and rest
        and isinstance(rest[0], int)
        and rest[0] < len(value)
        and isinstance(value[rest[0]], dict)
    ):
        row = value[rest.pop(0)]
        rnd = row.get("round", row.get("interval"))
        node = row.get("node")
    elif isinstance(value, dict) and len(rest) > 1 and isinstance(rest[1], int):
        # A checkpoint's per-node list: name the node.
        names = value.get("nodes", [])
        node = names[rest[1]] if rest[1] < len(names) else None
    return ".".join(section), rnd, node, ".".join(map(str, rest))


def assert_same_stream(name, expected, actual):
    """Equal as JSON, or fail naming the first differing
    (stream, round, node, field)."""
    path = _first_difference(expected, actual)
    if path is None:
        return
    section, rnd, node, field = _locate(expected, path)

    def leaf(value):
        for key in path:
            try:
                value = value[key]
            except (KeyError, IndexError, TypeError):
                return "<missing>"
        return value

    raise AssertionError(
        "{} stream {!r} first differs at round {}, node {}, field {!r}: "
        "golden {!r}, got {!r}".format(
            name,
            section,
            "-" if rnd is None else rnd,
            "-" if node is None else node,
            field or "<row>",
            leaf(expected),
            leaf(actual),
        )
    )


class TestControlGoldens:
    """The pinned control-plane decision streams.

    Regenerate (only for an intended behaviour change) with::

        PYTHONPATH=src python -c "from tests.test_fleet_batch import \\
            write_control_goldens; write_control_goldens()"
    """

    def test_golden_covers_quarantine_and_floor_walks(self):
        golden = load_goldens()
        fleet = golden["fleet"]
        assert len(fleet["run"]) == 30 * (1 + len(MIXED_SPECS))
        assert any(not row.get("node_healthy", True) for row in fleet["run"])
        types = {event["type"] for event in fleet["events"]}
        assert {"quarantine_enter", "cap_reallocation"} <= types
        assert len(golden["shard"]["outputs"]) == 15 * 3
        assert set(golden["capper"]) == set(CAPPER_CASES)
        for rows in golden["capper"].values():
            decisions = [row["decision"] for row in rows]
            assert len(set(map(tuple, decisions))) > 1

    def test_difference_names_round_node_and_field(self):
        golden = load_goldens()["fleet"]
        changed = json.loads(json.dumps(golden))
        changed["run"][8]["shares"] += 1.0
        with pytest.raises(AssertionError) as excinfo:
            assert_same_stream("fleet", golden, changed)
        message = str(excinfo.value)
        row = golden["run"][8]
        assert "round {}".format(row["round"]) in message
        assert "node {}".format(row["node"]) in message
        assert "'shares'" in message


class TestMixedPricer:
    @pytest.mark.parametrize("spec, power_gating", PRICER_CASES)
    def test_price_matches_predict_mixed(
        self, tiny_registry, spec, power_gating
    ):
        """Every assignment of every row of a 4-node table (half, full,
        no and one busy CU), one by one and as columns, and at least
        the row's lower bound, which is finite and close to the row's
        cheapest price."""
        u = spec.num_cus
        fleet = make_fleet(
            [spec] * 4,
            tiny_registry,
            power_gating=power_gating,
            busy_cus=[u // 2, u, 0, 1],
        )
        ppep = fleet.nodes[0].ppep
        assert (ppep.pg_model is not None) == (spec is FX8320_SPEC)
        for _ in range(4):
            samples = fleet.step()
        # Distinct diode readings, so no row can price from another's.
        assert len({sample.temperature for sample in samples}) == len(samples)
        table = MixedPricer(ppep, BatchObservation.from_samples(spec, samples))
        # Every assignment: 5**4 = 625 on FX-8320, 4**6 = 4096 on Phenom.
        assignments = list(itertools.product(spec.vf_table, repeat=u))
        assert len(assignments) == len(spec.vf_table) ** u
        columns = np.array([[vf.index - 1 for vf in a] for a in assignments])
        busy = set()
        for row, sample in enumerate(samples):
            states = ppep.core_states(sample)
            busy.add(sum(ppep._busy_cus(states)))
            idle = table.idle(np.full(len(assignments), row), columns)
            bound = table.lower_bound(row)
            prices = []
            for targets, column_idle in zip(assignments, idle.tolist()):
                prices.append(table.price(row, targets))
                assert prices[-1] == ppep.predict_mixed(
                    states, sample.temperature, targets, sample.power_gating
                )
                assert column_idle == ppep._idle_power_mixed(
                    states, sample.temperature, targets, sample.power_gating
                )
            cheapest = min(power for power, _rate in prices)
            assert np.isfinite(bound)
            assert cheapest * 0.8 <= bound <= cheapest
        assert busy == {u // 2, u, 0, 1}
        # A NaN term, or an inf meeting a -inf, gives a NaN bound (which
        # never prunes) without a floating-point warning.  The bounds of
        # a table are made in one pass on the first read, so the terms
        # are poked into a fresh table, and the other rows keep theirs.
        bounds = [table.lower_bound(row) for row in range(len(samples))]
        table = MixedPricer(ppep, BatchObservation.from_samples(spec, samples))
        table.core[0, 0, 0] = np.nan
        table.core[1, 0, 0], table.nb[1, 0, 0] = np.inf, -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(table.lower_bound(0))
            assert np.isnan(table.lower_bound(1))
            assert [table.lower_bound(2), table.lower_bound(3)] == bounds[2:]

    @pytest.mark.parametrize("case", list(CAPPER_CASES))
    def test_capper_pricer_decisions_identical(self, tiny_registry, case):
        golden = load_goldens()["capper"][case]
        assert_same_stream(
            "capper", golden, record_capper_stream(tiny_registry, case)
        )
        spec, _power_gating = CAPPER_CASES[case]
        floor = [spec.vf_table.slowest.index] * spec.num_cus
        decisions = [row["decision"] for row in golden]
        assert floor in decisions
        assert any(d != floor for d in decisions)


class TestTermKernel:
    """``PPEP.core_terms``: the one implementation of the per-(core, VF)
    term math, shared by the pricer and the fleet's column walk."""

    @pytest.mark.parametrize(
        "spec", [FX8320_SPEC, PHENOM_II_SPEC], ids=["fx8320", "phenom"]
    )
    def test_vecdot_rows_equal_per_row_dot(self, tiny_registry, spec):
        # The enabling fact: np.vecdot calls the dot routine np.dot
        # calls, row by row, so it sums each row in the same order.  A
        # matrix product (or einsum) is not bound to that order.
        model = tiny_registry.get(spec).dynamic_model
        rng = np.random.default_rng(7)
        rows = rng.random((20000, 9)) * 10.0 ** rng.uniform(0, 10, (20000, 1))
        weights = [(model.w_core, rows[:, :7]), (model.w_nb, rows[:, 7:])]
        weights += [(rng.random(7), rows[:, :7]), (rng.random(2), rows[:, 7:])]
        for w, features in weights:
            per_row = np.array([np.dot(w, f) for f in features])
            assert np.array_equal(np.vecdot(features, w), per_row)
        # The kernel's own layout: rows are the last axis of a 4-D slice.
        rates = rng.random((6, 8, 5, 9)) * 1e9
        assert np.array_equal(
            np.vecdot(rates[..., :7], model.w_core),
            np.array(
                [np.dot(model.w_core, r[:7]) for r in rates.reshape(-1, 9)]
            ).reshape(6, 8, 5),
        )

    def test_core_terms_equal_event_predictor(self, tiny_registry):
        """Every (node, core, VF) term of a faulty fleet batch equals the
        scalar EventPredictor + Eq. 3 path, idle cores included."""
        fleet = make_fleet(
            [FX8320_SPEC] * 6,
            tiny_registry,
            fault_specs=FAULTS,
            busy_cus=[4, 2, 0, 1],
        )
        ppep = fleet.nodes[0].ppep
        model = ppep.dynamic_model
        for _ in range(6):
            samples = fleet.step()
        core, nb, rate = ppep.core_terms(
            BatchObservation.from_samples(FX8320_SPEC, samples)
        )
        table = FX8320_SPEC.vf_table.ascending()
        assert core.shape == (6, FX8320_SPEC.num_cores, len(table))
        for n, sample in enumerate(samples):
            for c, state in enumerate(ppep.core_states(sample)):
                for t, vf in enumerate(table):
                    predicted = ppep.event_predictor.predict(state, vf)
                    features = dynamic_feature_vector(predicted.rates)
                    assert core[n, c, t] == model.core_term(features, vf.voltage)
                    assert nb[n, c, t] == model.nb_term(features)
                    assert rate[n, c, t] == predicted.instructions_per_second
        assert not rate[2].any()  # the all-idle node


#: Budgets per walk case: one that binds mid-range, one the walk cannot
#: meet (every CU ends at the floor), one that never binds.
WALK_BUDGETS = {"binds": 30.0, "floor": 1.0, "open": 1000.0}


def _walk_and_oracle(registry, spec, power_gating, budgets):
    """A same-SKU fleet (half, full, no and one busy CU) with two capper
    sets: one for the column walk, one deciding node by node."""
    u = spec.num_cus
    fleet = make_fleet(
        [spec] * 4, registry, power_gating=power_gating, busy_cus=[u // 2, u, 0, 1]
    )
    ppep = fleet.nodes[0].ppep
    walk, oracle = [], []
    for budget in budgets:
        walk.append(PPEPPowerCapper(ppep, ExternalBudget(budget)))
        oracle.append(PPEPPowerCapper(ppep, ExternalBudget(budget)))
    return fleet, walk, oracle


def _count_prices(monkeypatch):
    """Record every ``MixedPricer.price`` call's assignment (as VF
    indices) in the returned list."""
    priced = []
    price = MixedPricer.price

    def counted(self, row, cu_targets):
        priced.append(tuple(vf.index for vf in cu_targets))
        return price(self, row, cu_targets)

    monkeypatch.setattr(MixedPricer, "price", counted)
    return priced


def _assert_same_decisions(walk, oracle, got, expected):
    for w, o, g, e in zip(walk, oracle, got, expected):
        assert [vf.index for vf in g] == [vf.index for vf in e]
        assert w.last_predicted == o.last_predicted
        assert type(w.last_predicted) is float
        assert w.state_dict() == o.state_dict()


class TestNodeAxisWalk:
    """``decide_nodes`` against per-node ``PPEPPowerCapper.decide`` on
    separate capper objects: decisions, ``last_predicted``, bias and
    step, every round."""

    @pytest.mark.parametrize("kind", list(WALK_BUDGETS))
    @pytest.mark.parametrize("case", list(CAPPER_CASES))
    def test_capper_cases_match_per_node_decide(
        self, tiny_registry, monkeypatch, case, kind
    ):
        """Also what each per-node ``decide`` prices: the fastest
        assignment alone under a cap it meets, the fastest and the floor
        when the table's lower bound is over the cap, a walk otherwise."""
        spec, power_gating = CAPPER_CASES[case]
        fleet, walk, oracle = _walk_and_oracle(
            tiny_registry, spec, power_gating, [WALK_BUDGETS[kind]] * 4
        )
        priced = _count_prices(monkeypatch)
        table = spec.vf_table
        floor = (table.slowest.index,) * spec.num_cus
        top = (table.fastest.index,) * spec.num_cus
        seen = set()
        walks = 0
        for _ in range(10):
            samples = fleet.step()
            got = decide_nodes(
                walk, samples, BatchObservation.from_samples(spec, samples)
            )
            assert not priced  # the column walk prices as columns
            expected = []
            for capper, sample in zip(oracle, samples):
                expected.append(capper.decide(sample))
                if kind == "floor":
                    assert priced == [top, floor]
                elif kind == "open":
                    assert priced == [top]
                elif len(priced) > 2:
                    walks += 1
                else:
                    assert priced in ([top], [top, floor])
                del priced[:]
            _assert_same_decisions(walk, oracle, got, expected)
            for node, decision in zip(fleet.nodes, got):
                for cu, vf in enumerate(decision):
                    node.platform.set_cu_vf(cu, vf)
            seen.update(tuple(vf.index for vf in d) for d in got[:2])
        if kind == "floor":
            assert seen == {floor}
        elif kind == "open":
            assert seen == {top}
        else:
            assert seen - {floor, top}
            assert walks >= 10

    @pytest.mark.parametrize("case", list(CAPPER_CASES))
    def test_cap_between_bound_and_cheapest_price_walks(
        self, tiny_registry, monkeypatch, case
    ):
        """A cap under every price but over the table's lower bound: the
        bound cannot prove the floor, so ``decide`` walks all the way
        down to it and still matches the column walk."""
        spec, power_gating = CAPPER_CASES[case]
        fleet, walk, oracle = _walk_and_oracle(
            tiny_registry, spec, power_gating, [1.0] * 4
        )
        assignments = list(itertools.product(spec.vf_table, repeat=spec.num_cus))
        floor = (spec.vf_table.slowest.index,) * spec.num_cus
        priced = _count_prices(monkeypatch)
        for _ in range(6):
            samples = fleet.step()
            pricer = MixedPricer(
                walk[0].ppep, BatchObservation.from_samples(spec, samples)
            )
            for row, (sample, w, o) in enumerate(zip(samples, walk, oracle)):
                cheapest = min(pricer.price(row, a)[0] for a in assignments)
                cap = (pricer.lower_bound(row) + cheapest) / 2
                assert pricer.lower_bound(row) < cap < cheapest
                # The budget whose effective cap, after this decision's
                # bias update, is ``cap``.
                probe = PPEPPowerCapper(o.ppep, 1.0)
                probe.load_state_dict(o.state_dict())
                budget = cap / probe._advance(sample.measured_power)
                w._schedule.set(budget)
                o._schedule.set(budget)
            del priced[:]
            got = decide_nodes(
                walk, samples, BatchObservation.from_samples(spec, samples)
            )
            expected = []
            for capper, sample in zip(oracle, samples):
                expected.append(capper.decide(sample))
                assert len(priced) > 2  # a walk, not [fastest, floor]
                del priced[:]
            _assert_same_decisions(walk, oracle, got, expected)
            assert {tuple(vf.index for vf in d) for d in got} == {floor}

    def test_mixed_budgets_in_one_walk(self, tiny_registry):
        fleet, walk, oracle = _walk_and_oracle(
            tiny_registry, FX8320_SPEC, True, [30.0, 1.0, 1000.0, 18.0]
        )
        for _ in range(10):
            samples = fleet.step()
            got = decide_nodes(
                walk, samples, BatchObservation.from_samples(FX8320_SPEC, samples)
            )
            expected = [c.decide(s) for c, s in zip(oracle, samples)]
            _assert_same_decisions(walk, oracle, got, expected)

    @pytest.mark.parametrize(
        "cap_w_per_node, policy", [(52.0, "waterfill"), (200.0, "proportional")]
    )
    def test_fleet_roster_matches_per_node_decide(
        self, tiny_registry, monkeypatch, cap_w_per_node, policy
    ):
        manager = ClusterPowerManager(
            make_fleet(MIXED_SPECS, tiny_registry, fault_specs=FAULTS),
            cap_schedule=cap_w_per_node * len(MIXED_SPECS),
            policy=policy,
            harden=True,
            ledger=PredictionLedger(),
        )
        shadows = {
            id(c.capper): PPEPPowerCapper(c.capper.ppep, c.capper._schedule)
            for c in manager._controls
        }
        calls = []

        def checked(cappers, samples, batch):
            oracle = [shadows[id(c)] for c in cappers]
            expected = [o.decide(s) for o, s in zip(oracle, samples)]
            got = decide_nodes(cappers, samples, batch)
            _assert_same_decisions(cappers, oracle, got, expected)
            calls.append([tuple(vf.index for vf in d) for d in got])
            return got

        monkeypatch.setattr(cluster_cap, "decide_nodes", checked)
        manager.run(30)
        assert len(calls) == 30 * 2  # one walk per SKU group per round
        decided = {d for call in calls for d in call}
        assert len(decided) > 2

    @pytest.mark.parametrize("case", list(CAPPER_CASES))
    def test_price_reads_the_walks_table(self, tiny_registry, case):
        """Cappers only the column walk drives price any assignment on
        the sample they last decided from, as ``predict_mixed`` does."""
        spec, power_gating = CAPPER_CASES[case]
        fleet, walk, _oracle = _walk_and_oracle(
            tiny_registry, spec, power_gating, [30.0] * 4
        )
        ppep = fleet.nodes[0].ppep
        table = spec.vf_table
        mixed = [table.fastest] * (spec.num_cus - 1) + [table.slowest]
        for _ in range(3):
            samples = fleet.step()
            got = decide_nodes(
                walk, samples, BatchObservation.from_samples(spec, samples)
            )
            for capper, sample, decision in zip(walk, samples, got):
                states = ppep.core_states(sample)
                for assignment in (decision, mixed, [table.slowest] * spec.num_cus):
                    power, _rate = ppep.predict_mixed(
                        states, sample.temperature, assignment, sample.power_gating
                    )
                    assert capper.price(assignment) == power
                assert capper.price(decision) == capper.last_predicted

    def test_negative_counter_raises_before_any_state_change(self, tiny_registry):
        fleet = make_fleet(MIXED_SPECS, tiny_registry)
        manager = ClusterPowerManager(fleet, 52.0 * len(MIXED_SPECS), harden=False)
        manager.run(3)
        before = json.dumps(manager.state_dict()["cappers"])
        # A Phenom node: the walk of the FX group would run first.
        victim = 1
        stepped = fleet.step
        bad = []

        def corrupted():
            samples = stepped()
            events = list(samples[victim].core_events)
            values = events[0].as_list()
            assert values[Event.RETIRED_INSTRUCTIONS] > 0
            values[Event.CPU_CLOCKS_NOT_HALTED] = -5.0
            events[0] = EventVector(values)
            samples[victim] = dataclasses.replace(
                samples[victim], core_events=events
            )
            bad.append(samples[victim])
            return samples

        fleet.step = corrupted
        with pytest.raises(ValueError) as walked:
            manager.run(1, resume=True)
        assert json.dumps(manager.state_dict()["cappers"]) == before
        node = fleet.nodes[victim]
        with pytest.raises(ValueError) as scalar:
            PPEPPowerCapper(node.ppep, 50.0).decide(bad[0])
        assert str(walked.value) == str(scalar.value) == "CPI terms cannot be negative"

    def test_cold_diode_raises_before_any_state_change(self, tiny_registry):
        spec, power_gating = CAPPER_CASES["phenom-nopg"]
        fleet, walk, oracle = _walk_and_oracle(
            tiny_registry, spec, power_gating, [30.0] * 4
        )
        samples = fleet.step()
        decide_nodes(walk, samples, BatchObservation.from_samples(spec, samples))
        before = [c.state_dict() for c in walk]
        samples = fleet.step()
        samples[2] = dataclasses.replace(samples[2], temperature=-1.0)
        with pytest.raises(ValueError) as walked:
            decide_nodes(walk, samples, BatchObservation.from_samples(spec, samples))
        assert [c.state_dict() for c in walk] == before
        scalar_before = oracle[2].state_dict()
        with pytest.raises(ValueError) as scalar:
            oracle[2].decide(samples[2])
        assert str(walked.value) == str(scalar.value)
        # The single-node walk keeps the same guarantee.
        assert oracle[2].state_dict() == scalar_before


class TestClusterManagerBatched:
    def test_full_loop_bit_identical(self, tiny_registry):
        golden = load_goldens()["fleet"]
        # One uninterrupted run: the golden was recorded as 20 rounds
        # plus 10 resumed ones, so this also pins resume as seamless.
        manager = _fleet_manager(tiny_registry)
        run = manager.run(30)
        assert_same_stream(
            "fleet",
            {key: golden[key] for key in ("run", "events", "state_30", "ledger_30")},
            {
                "run": _run_rows(run),
                "events": _jsonable(manager.events.records),
                "state_30": _jsonable(manager.state_dict()),
                "ledger_30": _jsonable(manager.ledger.state_dict()),
            },
        )

    def test_golden_checkpoint_resumes_bit_identically(self, tiny_registry):
        golden = load_goldens()["fleet"]
        manager = _fleet_manager(tiny_registry)
        manager.run(20)
        assert_same_stream(
            "fleet",
            {"state_20": golden["state_20"]},
            {"state_20": _jsonable(manager.state_dict())},
        )
        # Wipe the manager's state (the platforms keep theirs) so the
        # recorded checkpoint alone has to carry the next 10 rounds.
        manager.reset()
        manager.load_state_dict(golden["state_20"])
        tail = manager.run(10, resume=True)
        assert_same_stream(
            "fleet",
            {
                "run": [row for row in golden["run"] if row["round"] >= 20],
                "state_30": golden["state_30"],
            },
            {
                "run": _run_rows(tail, first_round=20),
                "state_30": _jsonable(manager.state_dict()),
            },
        )

    def test_checkpoint_does_not_depend_on_the_event_log(self, tiny_registry):
        # Quarantine and allocation transitions are checkpoint state: a
        # manager with no event log must save the evented golden state,
        # or resuming it into an evented manager re-emits old entries.
        golden = load_goldens()["fleet"]
        manager = _fleet_manager(tiny_registry, evented=False)
        manager.run(20)
        assert_same_stream(
            "fleet",
            {"state_20": golden["state_20"]},
            {"state_20": _jsonable(manager.state_dict())},
        )

    def test_on_disk_event_log_survives_quarantine(self, tiny_registry, tmp_path):
        path = str(tmp_path / "fleet-events.jsonl")
        events = EventLog(path)
        manager = ClusterPowerManager(
            make_fleet(MIXED_SPECS, tiny_registry, fault_specs=FAULTS),
            cap_schedule=420.0,
            policy="waterfill",
            harden=True,
            events=events,
        )
        manager.run(20)
        events.close()
        entered = [
            event
            for event in read_events(path)
            if event["type"] == "quarantine_enter"
        ]
        assert entered
        assert entered[0]["bad_streak"] == manager.unhealthy_after


class TestShardPipelineBatched:
    def test_batched_flag_decisions_identical(self, tiny_registry):
        assert_same_stream(
            "shard", load_goldens()["shard"], record_shard_stream(tiny_registry)
        )
