"""Unit tests for experiment plumbing that works on small inputs
(no full context training required)."""

import dataclasses

import pytest

from repro.experiments import common
from repro.experiments.common import ExperimentContext, FixedWorkRun, _quick_roster
from repro.experiments.cpi_validation import single_thread_combo
from repro.hardware.microarch import FX8320_SPEC
from repro.workloads.suites import Suite, spec_program


class TestQuickRoster:
    def test_has_suite_diversity(self):
        roster = _quick_roster()
        suites = {c.suite for c in roster}
        assert suites == {Suite.SPEC, Suite.PARSEC, Suite.NPB}

    def test_has_multiprogram_combos(self):
        roster = _quick_roster()
        assert any("+" in c.name for c in roster)

    def test_reasonable_size(self):
        assert 15 <= len(_quick_roster()) <= 30


class TestContextConstruction:
    def test_scale_validated(self):
        with pytest.raises(ValueError):
            ExperimentContext(scale="huge")

    def test_quick_scale_shrinks_traces(self):
        ctx = ExperimentContext(scale="quick")
        assert ctx.trainer.BENCH_INTERVALS < 40
        assert len(ctx.roster) < 152

    def test_groups_cover_roster(self):
        ctx = ExperimentContext(scale="quick")
        groups = ctx.combos_by_suite()
        assert len(groups["ALL"]) == len(ctx.roster)
        assert (
            len(groups["SPE"]) + len(groups["PAR"]) + len(groups["NPB"])
            == len(ctx.roster)
        )

    def test_same_name_specs_get_distinct_contexts(self, monkeypatch):
        # get_context memoises by spec content, not spec name: a variant
        # that keeps FX8320's name must not be served FX8320's context.
        monkeypatch.setattr(common, "_CONTEXTS", {})
        variant = dataclasses.replace(FX8320_SPEC, base_power=8.0)
        assert variant.name == FX8320_SPEC.name
        stock = common.get_context(scale="quick")
        other = common.get_context(scale="quick", spec=variant)
        assert other is not stock
        assert stock.spec is FX8320_SPEC
        assert other.spec is variant
        assert common.get_context(scale="quick", spec=variant) is other


class TestFixedWorkRun:
    def test_per_thread_metrics(self):
        run = FixedWorkRun(
            vf_index=3, n_instances=4, time_s=2.0, chip_energy=80.0
        )
        assert run.per_thread_energy == pytest.approx(20.0)
        assert run.per_thread_edp == pytest.approx(40.0)


class TestSingleThreadCombo:
    def test_wraps_one_workload(self):
        combo = single_thread_combo(spec_program("433"))
        assert combo.num_contexts == 1
        assert combo.suite is Suite.SPEC
        assert combo.name.endswith("-1t")


class TestFrontierPoint:
    def test_dominance(self):
        from repro.experiments.nb_frontier import FrontierPoint

        fast_cheap = FrontierPoint(5, "NB2.2", time_s=1.0, energy_j=10.0)
        slow_costly = FrontierPoint(1, "NB2.2", time_s=2.0, energy_j=20.0)
        slow_cheap = FrontierPoint(1, "NB1.1", time_s=2.0, energy_j=5.0)
        assert fast_cheap.dominates(slow_costly)
        assert not fast_cheap.dominates(slow_cheap)
        assert not slow_cheap.dominates(fast_cheap)
        assert not fast_cheap.dominates(fast_cheap)

    def test_frontier_extraction(self):
        from repro.experiments.nb_frontier import FrontierPoint, NBFrontierResult

        pts = [
            FrontierPoint(5, "NB2.2", 1.0, 10.0),
            FrontierPoint(1, "NB2.2", 2.0, 20.0),  # dominated
            FrontierPoint(1, "NB1.1", 2.0, 5.0),
        ]
        result = NBFrontierResult(points={"x": pts})
        frontier = result.frontier("x")
        assert len(frontier) == 2
        assert frontier[0].time_s == 1.0  # fastest first

    def test_metrics(self):
        from repro.experiments.nb_frontier import FrontierPoint, NBFrontierResult

        pts = [
            FrontierPoint(5, "NB2.2", 1.0, 20.0),
            FrontierPoint(1, "NB2.2", 2.0, 10.0),  # stock baseline
            FrontierPoint(5, "NB1.1", 1.2, 10.2),  # fast at similar energy
            FrontierPoint(1, "NB1.1", 2.1, 7.0),   # cheapest overall
        ]
        result = NBFrontierResult(points={"x": pts})
        assert result.energy_saving("x") == pytest.approx(1 - 7.0 / 10.0)
        assert result.iso_energy_speedup("x") == pytest.approx(2.0 / 1.2)
        assert not result.intermediate_on_frontier("x")
