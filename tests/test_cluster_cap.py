"""Unit and closed-loop tests for hierarchical fleet power capping."""

import numpy as np
import pytest

from repro.dvfs.power_capping import square_wave_cap
from repro.fleet import ClusterPowerManager, allocate_budget, make_fleet
from repro.hardware.microarch import FX8320_SPEC, PHENOM_II_SPEC


class TestAllocateBudget:
    DEMAND = np.array([80.0, 40.0, 20.0])
    FLOOR = np.array([30.0, 20.0, 15.0])

    def test_uniform_splits_equally(self):
        shares = allocate_budget("uniform", 90.0, self.DEMAND, self.FLOOR)
        np.testing.assert_allclose(shares, [30.0, 30.0, 30.0])

    def test_proportional_follows_demand(self):
        shares = allocate_budget("proportional", 70.0, self.DEMAND, self.FLOOR)
        np.testing.assert_allclose(shares, [40.0, 20.0, 10.0])
        assert shares.sum() == pytest.approx(70.0)

    def test_proportional_zero_demand_falls_back_to_uniform(self):
        shares = allocate_budget(
            "proportional", 60.0, np.zeros(3), np.zeros(3)
        )
        np.testing.assert_allclose(shares, [20.0, 20.0, 20.0])

    def test_waterfill_grants_floors_then_fills(self):
        # Budget 95: floors take 65, the remaining 30 fills equally;
        # node 2 saturates at its 20 W demand (floor 15 + 5), and the
        # leftover tops up the unsaturated nodes.
        shares = allocate_budget("waterfill", 95.0, self.DEMAND, self.FLOOR)
        assert shares.sum() == pytest.approx(95.0)
        assert (shares >= self.FLOOR - 1e-9).all()
        assert shares[2] == pytest.approx(20.0)  # capped at demand
        assert shares[0] == pytest.approx(shares[1] + 10.0)  # equal fill

    def test_waterfill_saturated_fleet_leaves_budget_unspent(self):
        shares = allocate_budget("waterfill", 1000.0, self.DEMAND, self.FLOOR)
        np.testing.assert_allclose(shares, self.DEMAND)

    def test_waterfill_infeasible_budget_scales_floors(self):
        shares = allocate_budget("waterfill", 32.5, self.DEMAND, self.FLOOR)
        np.testing.assert_allclose(shares, self.FLOOR / 2.0)

    def test_shares_never_exceed_budget(self):
        for policy in ("uniform", "proportional", "waterfill"):
            shares = allocate_budget(policy, 55.0, self.DEMAND, self.FLOOR)
            assert shares.sum() <= 55.0 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            allocate_budget("nonsense", 50.0, self.DEMAND, self.FLOOR)
        with pytest.raises(ValueError):
            allocate_budget("uniform", -1.0, self.DEMAND, self.FLOOR)
        with pytest.raises(ValueError):
            allocate_budget("uniform", 50.0, self.DEMAND, self.FLOOR[:2])


class TestClusterPowerManager:
    def test_rejects_unknown_policy(self, tiny_registry):
        fleet = make_fleet([FX8320_SPEC], tiny_registry)
        with pytest.raises(ValueError):
            ClusterPowerManager(fleet, 100.0, policy="nonsense")

    def test_rejects_empty_run(self, tiny_registry):
        fleet = make_fleet([FX8320_SPEC], tiny_registry)
        manager = ClusterPowerManager(fleet, 100.0)
        with pytest.raises(ValueError):
            manager.run(0)

    @pytest.mark.parametrize("policy", ["proportional", "waterfill"])
    def test_settles_within_one_interval_of_cap_changes(
        self, tiny_registry, policy
    ):
        """The acceptance bar: fleet power back under the cluster cap
        within one decision interval of each cap change."""
        fleet = make_fleet([FX8320_SPEC] * 3, tiny_registry)
        schedule = square_wave_cap(3 * 85.0, 3 * 50.0, 5)
        manager = ClusterPowerManager(fleet, schedule, policy=policy)
        run = manager.run(15)
        result = run.evaluate()
        assert result.worst_settle <= 1
        # Any over-cap interval must be explainable: the uncontrolled
        # first interval (nodes start fastest) or a cap-drop interval.
        for i, (power, cap) in enumerate(zip(run.fleet_powers, run.caps)):
            if power > cap:
                assert i == 0 or run.caps[i] < run.caps[i - 1], (
                    "unexplained violation at interval {}: {:.1f} W > "
                    "{:.1f} W".format(i, power, cap)
                )

    def test_shares_respect_cluster_budget(self, tiny_registry):
        fleet = make_fleet([FX8320_SPEC] * 3, tiny_registry)
        manager = ClusterPowerManager(fleet, 180.0, policy="waterfill")
        run = manager.run(6)
        for shares in run.shares:
            assert sum(shares) <= 180.0 + 1e-6

    def test_demand_aware_beats_uniform_on_throughput(self, tiny_registry):
        """With unevenly loaded nodes, routing budget to the busy ones
        retires more instructions under the same cluster cap."""
        def run_policy(policy):
            fleet = make_fleet(
                [FX8320_SPEC] * 4, tiny_registry, busy_cus=[4, 1, 4, 1]
            )
            manager = ClusterPowerManager(fleet, 4 * 52.0, policy=policy)
            return manager.run(12)

        uniform = run_policy("uniform")
        proportional = run_policy("proportional")
        assert (
            proportional.total_instructions()
            > uniform.total_instructions()
        )

    def test_ledger_prices_equal_predict_mixed_of_applied_decision(
        self, tiny_registry
    ):
        """The one-step-ahead price queued for the ledger is the power
        ``predict_mixed`` gives the applied decision on the cleaned
        sample -- whether it is the capper's own decision (whose price
        is reused) or a held one on a non-actionable interval."""
        from repro.faults.injection import FaultSpec
        from repro.obs.ledger import PredictionLedger

        faults = [
            FaultSpec(
                drop_rate=0.1,
                spike_rate=0.1,
                stuck_rate=0.05,
                counter_wrap_rate=0.05,
                stale_rate=0.1,
            ),
            None,
            FaultSpec(dropout_after_interval=8),
        ]
        fleet = make_fleet(
            [FX8320_SPEC, PHENOM_II_SPEC] * 3, tiny_registry, fault_specs=faults
        )
        manager = ClusterPowerManager(
            fleet, 6 * 52.0, policy="waterfill", harden=True,
            ledger=PredictionLedger(),
        )
        # Record each node filter's verdict: it carries the cleaned
        # sample the node's capper decided from.
        verdicts = [None] * len(fleet.nodes)
        for i, control in enumerate(manager._controls):

            def ingest(sample, i=i, ingest=control.filter.ingest):
                verdicts[i] = ingest(sample)
                return verdicts[i]

            control.filter.ingest = ingest
        reused = held = 0
        for round_index in range(30):
            held_before = [control.held for control in manager._controls]
            manager.run(1, resume=round_index > 0)
            for i, node in enumerate(fleet.nodes):
                pending = manager._controls[i].pending
                if pending is None:
                    continue
                clean = verdicts[i].sample
                applied = node.platform.cu_vfs
                power, _rate = node.ppep.predict_mixed(
                    node.ppep.core_states(clean),
                    clean.temperature,
                    applied,
                    clean.power_gating,
                )
                assert pending == (applied[0].index, float(power))
                # A non-actionable interval re-applies the held decision
                # (priced again); otherwise the capper's own price is
                # reused.
                if verdicts[i].actionable or held_before[i] is None:
                    reused += 1
                else:
                    assert [vf.index for vf in applied] == [
                        vf.index for vf in held_before[i]
                    ]
                    held += 1
        assert reused > 0 and held > 0

    def test_ledger_scores_the_repaired_power(self, tiny_registry):
        """A spiked reading the filter rejects never reaches the fleet
        ledger: the row measures the filter's repaired interval power,
        as the serve shard's does."""
        import dataclasses

        from repro.faults.filtering import REPAIRED
        from repro.obs.events import EventLog
        from repro.obs.ledger import PredictionLedger

        fleet = make_fleet([FX8320_SPEC], tiny_registry)
        events = EventLog()
        manager = ClusterPowerManager(
            fleet, 52.0, harden=True, ledger=PredictionLedger(events=events)
        )
        verdicts = []
        telemetry_filter = manager._controls[0].filter
        ingest = telemetry_filter.ingest

        def recorded(sample):
            verdicts.append(ingest(sample))
            return verdicts[-1]

        telemetry_filter.ingest = recorded
        stepped = fleet.step
        raw = []

        def spiked():
            samples = stepped()
            if len(verdicts) == 5:
                readings = list(samples[0].power_samples)
                readings[0] *= 5.0
                samples[0] = dataclasses.replace(
                    samples[0],
                    power_samples=readings,
                    measured_power=sum(readings) / len(readings),
                )
            raw.append(samples[0])
            return samples

        fleet.step = spiked
        manager.run(6)
        verdict = verdicts[-1]
        assert verdict.quality == REPAIRED and "spike" in verdict.issues
        row = events.of_type("prediction")[-1]
        assert row["interval"] == 5 and row["quality"] == REPAIRED
        assert row["measured_power"] == verdict.sample.measured_power
        assert row["measured_power"] < raw[-1].measured_power

    def test_record_shapes(self, tiny_registry):
        fleet = make_fleet([FX8320_SPEC] * 2, tiny_registry)
        run = ClusterPowerManager(fleet, 150.0).run(4)
        assert run.node_names == ["node00", "node01"]
        assert len(run.caps) == len(run.node_powers) == 4
        assert all(len(row) == 2 for row in run.node_powers)
        assert len(run.fleet_powers) == 4
        assert run.total_instructions() > 0
