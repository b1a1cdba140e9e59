"""Integration tests: the per-figure experiments reproduce the paper's
qualitative shapes at quick scale.

Each test runs one experiment module against the shared quick context
and checks the headline claims (who wins, directions, orderings) rather
than absolute numbers.
"""

import pytest

from repro.experiments import (
    backend_roundtrip,
    cpi_validation,
    fig01_idle_thermal,
    fig04_power_gating,
    fig07_power_capping,
    fig08_background_energy,
    fig09_background_edp,
    fig10_nb_share,
    fig11_nb_scaling,
    observations,
    table1_events,
)


class TestTable1:
    def test_structure(self, quick_ctx):
        result = table1_events.run(quick_ctx)
        assert result.num_events == 12
        assert result.num_power_events == 9
        assert result.num_performance_events == 3
        assert result.groups_fit_hardware
        assert "PMCx069" in table1_events.format_report(result, quick_ctx)


class TestCPIValidation:
    def test_errors_in_paper_band(self, quick_ctx):
        result = cpi_validation.run(quick_ctx)
        # Paper: 3.4% down / 3.0% up; allow slack on the quick subset.
        assert result.down_average < 0.08
        assert result.up_average < 0.08
        assert len(result.down_errors) == len(result.up_errors)
        report = cpi_validation.format_report(result, quick_ctx)
        assert "VF5" in report


class TestObservations:
    def test_obs1_deltas_small(self, quick_ctx):
        result = observations.run(quick_ctx)
        assert result.event_deltas
        for event, delta in result.event_deltas.items():
            assert delta < 0.10, event

    def test_obs2_gap_small(self, quick_ctx):
        result = observations.run(quick_ctx)
        assert result.gap_delta < 0.05  # paper: 1.7%


class TestFig01:
    def test_heating_cooling_shape(self, quick_ctx):
        result = fig01_idle_thermal.run(quick_ctx, heat_intervals=200,
                                        cool_intervals=200)
        assert result.peak_temperature > result.final_temperature + 5.0
        assert result.power_drop > 2.0
        assert result.cooling_linearity > 0.95  # justifies Eq. 2


class TestFig04:
    def test_decomposition_positive_and_vf_ordered(self, quick_ctx):
        result = fig04_power_gating.run(quick_ctx)
        cu_powers = {}
        for index, d in result.decompositions.items():
            assert d.p_cu > 0
            assert d.p_base > 0
            cu_powers[index] = d.p_cu
        assert cu_powers[5] > cu_powers[1]  # CU idle power shrinks with V

    def test_four_cu_bars_coincide(self, quick_ctx):
        result = fig04_power_gating.run(quick_ctx)
        pg_off, pg_on = result.sweeps[5]
        assert pg_on[-1] == pytest.approx(pg_off[-1], rel=0.05)
        assert pg_on[0] < pg_off[0] / 3  # idle chip gates almost everything


class TestFig07:
    @pytest.fixture(scope="class")
    def result(self, quick_ctx):
        return fig07_power_capping.run(quick_ctx)

    def test_ppep_settles_almost_immediately(self, result):
        # Paper: one interval; prediction noise may cost one extra.
        assert result.ppep.worst_settle <= 2
        assert result.ppep.mean_settle <= 1.5

    def test_iterative_needs_many_intervals(self, result):
        assert result.iterative.worst_settle >= 4

    def test_ppep_violates_less(self, result):
        assert result.ppep.violation_rate < result.iterative.violation_rate

    def test_responsiveness_ratio(self, result):
        assert result.responsiveness_ratio >= 4  # paper: 14x


class TestBackgroundSweepFigures:
    @pytest.fixture(scope="class")
    def fig8(self, quick_ctx):
        return fig08_background_energy.run(quick_ctx)

    def test_lowest_vf_minimises_energy(self, fig8, quick_ctx):
        for program in ("433", "458"):
            for n in (1, 4):
                series = fig8.series(program, n)
                lowest = min(series, key=series.get)
                assert lowest <= 2  # VF1 or VF2 (near-flat tail allowed)

    def test_memory_bound_contention_penalty(self, fig8):
        # 433 x4 per-thread energy at VF5 exceeds x1 (NB contention).
        assert fig8.series("433", 4)[5] > fig8.series("433", 1)[5]

    def test_cpu_bound_sharing_benefit(self, fig8):
        # 458 x4 per-thread energy at VF5 is below x1 (static sharing).
        assert fig8.series("458", 4)[5] < fig8.series("458", 1)[5]

    def test_edp_shift_with_instances(self, quick_ctx):
        result = fig09_background_edp.run(quick_ctx)
        # CPU-bound best-EDP state drops (or stays) as instances grow.
        assert result.best_vf[("458", 4)] <= result.best_vf[("458", 1)]
        assert result.best_vf[("458", 1)] == 5  # paper: VF5 when alone

    def test_nb_share_ordering(self, quick_ctx):
        result = fig10_nb_share.run(quick_ctx)
        mem_avg, _lo, _hi = result.stats("433")
        cpu_avg, cpu_min, _ = result.stats("458")
        assert mem_avg > cpu_avg + 0.15  # paper: 60% vs 25%
        assert cpu_min < 0.15  # paper: min 10%

    def test_nb_share_grows_at_low_vf(self, quick_ctx):
        result = fig10_nb_share.run(quick_ctx)
        for program in ("433", "458"):
            assert (
                result.ratios[(program, 1, 1)] > result.ratios[(program, 1, 5)]
            )


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self, quick_ctx):
        return fig11_nb_scaling.run(quick_ctx, validate=True)

    def test_savings_positive_everywhere(self, result):
        for outcome in result.outcomes.values():
            assert outcome.energy_saving > 0.05

    def test_average_saving_in_paper_band(self, result):
        assert 0.08 < result.average_saving < 0.35  # paper: 20.4%

    def test_some_speedup_available(self, result):
        assert result.average_speedup > 1.05  # paper: 1.37x
        assert max(o.speedup for o in result.outcomes.values()) > 1.3

    def test_whatif_matches_simulated_nb_lo(self, result):
        projected, actual = result.validation
        assert projected == pytest.approx(actual, rel=0.25)


class TestBackendRoundtrip:
    def test_acceptance_passes(self, quick_ctx):
        """Record->replay identity, the transparent flaky wrapper and the
        guarded flaky storm's gates (the ones ``bench_backend`` enforces)."""
        result = backend_roundtrip.run(quick_ctx)
        assert result.passed, backend_roundtrip.format_report(result, quick_ctx)
