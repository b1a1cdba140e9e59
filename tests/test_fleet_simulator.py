"""Unit and equivalence tests for the fleet simulator and batched path."""

import numpy as np
import pytest

from repro.fleet import FleetNode, FleetSimulator, make_fleet
from repro.hardware.microarch import FX8320_SPEC, PHENOM_II_SPEC
from repro.hardware.platform import Platform


@pytest.fixture(scope="module")
def fleet(tiny_registry):
    """A 4-node mixed-SKU fleet stepped a few intervals into its run."""
    built = make_fleet(
        [FX8320_SPEC, PHENOM_II_SPEC, FX8320_SPEC, FX8320_SPEC], tiny_registry
    )
    for _ in range(2):
        built.step()
    return built


class TestFleetConstruction:
    def test_node_spec_must_match_model(self, tiny_registry):
        ppep = tiny_registry.get(FX8320_SPEC)
        platform = Platform(PHENOM_II_SPEC, seed=1)
        with pytest.raises(ValueError):
            FleetNode("bad", platform, ppep)

    def test_names_must_be_unique(self, tiny_registry):
        ppep = tiny_registry.get(FX8320_SPEC)
        nodes = [
            FleetNode("dup", Platform(FX8320_SPEC, seed=i), ppep)
            for i in range(2)
        ]
        with pytest.raises(ValueError):
            FleetSimulator(nodes)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetSimulator([])

    def test_grouping_by_shared_model(self, fleet):
        assert len(fleet) == 4
        assert fleet.num_model_groups == 2  # FX model + Phenom model

    def test_busy_cus_limits_load(self, tiny_registry):
        lazy = make_fleet([FX8320_SPEC, FX8320_SPEC], tiny_registry,
                          busy_cus=[1, 4])
        samples = lazy.step()
        pred = lazy.predict(samples)
        # One busy CU demands clearly less power than four.
        assert pred.demand[0] < pred.demand[1]


class TestStepping:
    def test_step_is_synchronized(self, fleet):
        samples = fleet.step()
        assert len(samples) == len(fleet)
        assert len({s.index for s in samples}) == 1
        assert len({s.time for s in samples}) == 1

    def test_run_collects_intervals(self, fleet):
        history = fleet.run(3)
        assert len(history) == 3
        assert all(len(row) == len(fleet) for row in history)

    def test_run_validates_intervals(self, fleet):
        with pytest.raises(ValueError):
            fleet.run(0)


class TestBatchedPrediction:
    def test_alignment_enforced(self, fleet):
        samples = fleet.step()
        with pytest.raises(ValueError):
            fleet.predict(samples[:-1])

    def test_matches_scalar_pipeline(self, fleet):
        """The batched hot path must price every (node, VF) pair exactly
        as the scalar Figure 5 pipeline does."""
        samples = fleet.step()
        pred = fleet.predict(samples)
        for i, (node, sample) in enumerate(zip(fleet.nodes, samples)):
            snapshot = node.ppep.analyze(sample)
            for col, vf_index in enumerate(pred.vf_indices[i]):
                scalar = snapshot.predictions[int(vf_index)]
                assert pred.chip_power[i][col] == pytest.approx(
                    scalar.chip_power, rel=1e-9
                )
                assert pred.instructions_per_second[i][col] == pytest.approx(
                    scalar.instructions_per_second, rel=1e-9
                )

    def test_ragged_vf_axes_across_skus(self, fleet):
        samples = fleet.step()
        pred = fleet.predict(samples)
        by_name = dict(zip(pred.names, pred.vf_indices))
        assert len(by_name["node00"]) == len(FX8320_SPEC.vf_table)
        assert len(by_name["node01"]) == len(PHENOM_II_SPEC.vf_table)
        # Fastest VF first everywhere.
        for indices in pred.vf_indices:
            assert list(indices) == sorted(indices, reverse=True)

    def test_demand_exceeds_floor(self, fleet):
        samples = fleet.step()
        pred = fleet.predict(samples)
        assert (pred.demand > pred.floor).all()
