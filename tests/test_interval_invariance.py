"""Interval-handling regression tests (the PR's headline bugfix).

The prediction pipeline used to normalise event counts by the module
constant ``INTERVAL_S`` (0.2 s) instead of the interval the sample was
actually collected over.  At the default interval the two coincide, so
nothing noticed; at any other interval every per-second rate -- and
therefore every fitted weight and power prediction -- silently
mis-scaled.  The tests here express the invariant directly: the same
machine state described at a different interval length (counts scaled
linearly, rates unchanged) must produce bitwise-equal-to-1e-9 model
inputs and outputs.  They fail on the pre-fix code.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.trace import Trace
from repro.core.batch import BatchObservation
from repro.faults.filtering import TelemetryFilter
from repro.fleet.simulator import FleetNode, FleetSimulator
from repro.hardware.microarch import FX8320_SPEC
from repro.hardware.platform import INTERVAL_S, CoreAssignment, Platform
from repro.workloads.synthetic import make_mixed

SPEC = FX8320_SPEC
TOL = 1e-9


def _rescale(sample, factor):
    """The same machine state expressed over ``interval_s * factor``.

    Counts scale linearly with observation time, per-second rates (and
    with them every model input) stay identical, so every prediction
    must too.
    """
    return replace(
        sample,
        core_events=[ev * factor for ev in sample.core_events],
        true_core_events=[ev * factor for ev in sample.true_core_events],
        instructions=[i * factor for i in sample.instructions],
        interval_s=sample.interval_s * factor,
    )


def _busy_samples(n=6, seed=99):
    platform = Platform(SPEC, seed=seed)
    platform.set_assignment(
        CoreAssignment.one_per_cu(SPEC, [make_mixed("t")] * SPEC.num_cus)
    )
    return platform.run(n)


class TestPredictionInvariance:
    """analyze()/estimate_current() on rescaled samples."""

    def test_estimate_current_is_interval_invariant(self, quick_ctx):
        ppep = quick_ctx.full_ppep
        for sample in _busy_samples():
            baseline = ppep.estimate_current(sample)
            halved = ppep.estimate_current(_rescale(sample, 0.5))
            assert halved == pytest.approx(baseline, abs=TOL)

    def test_all_vf_predictions_are_interval_invariant(self, quick_ctx):
        ppep = quick_ctx.full_ppep
        sample = _busy_samples(n=3)[-1]
        base = ppep.analyze(sample)
        scaled = ppep.analyze(_rescale(sample, 0.5))
        for vf_index, prediction in base.predictions.items():
            other = scaled.predictions[vf_index]
            assert other.chip_power == pytest.approx(
                prediction.chip_power, abs=TOL
            )
            assert other.instructions_per_second == pytest.approx(
                prediction.instructions_per_second, abs=TOL
            )
            assert other.core_cpis == pytest.approx(
                prediction.core_cpis, abs=TOL
            )

    def test_prediction_energy_uses_sample_interval(self, quick_ctx):
        ppep = quick_ctx.full_ppep
        sample = _busy_samples(n=3)[-1]
        vf5 = SPEC.vf_table.fastest
        base = ppep.analyze(sample).prediction(vf5)
        scaled = ppep.analyze(_rescale(sample, 0.5)).prediction(vf5)
        # Same power over half the interval: half the energy.
        assert scaled.energy_per_interval == pytest.approx(
            0.5 * base.energy_per_interval, rel=1e-9
        )


class TestTrainingInvariance:
    """Fitted Eq. 3 weights from rescaled traces."""

    def test_fitted_weights_are_interval_invariant(self, quick_ctx):
        vf5 = SPEC.vf_table.fastest
        combos = quick_ctx.roster[:3]
        traces = {c.name: quick_ctx.trace(c, vf5) for c in combos}
        rescaled = {
            name: Trace(
                [_rescale(s, 0.5) for s in trace.samples],
                label=trace.label,
            )
            for name, trace in traces.items()
        }
        base = quick_ctx.trainer.fit_dynamic_model(quick_ctx.idle_model, traces)
        other = quick_ctx.trainer.fit_dynamic_model(quick_ctx.idle_model, rescaled)
        np.testing.assert_allclose(base.weights, other.weights, atol=TOL)
        assert other.alpha == pytest.approx(base.alpha, abs=TOL)

    def test_batch_observation_rates_use_sample_interval(self):
        samples = _busy_samples(n=4)
        base = BatchObservation.from_samples(SPEC, samples)
        scaled = BatchObservation.from_samples(
            SPEC, [_rescale(s, 0.5) for s in samples]
        )
        np.testing.assert_allclose(base.per_inst8, scaled.per_inst8, atol=TOL)
        np.testing.assert_allclose(base.cpi, scaled.cpi, atol=TOL)
        np.testing.assert_allclose(base.duty, scaled.duty, atol=TOL)


class TestIntervalPlumbing:
    """Construction-time parameters and mismatch guards."""

    def test_platform_custom_interval_stamps_samples(self):
        platform = Platform(SPEC, seed=5, slices_per_interval=5)
        assert platform.interval_s == pytest.approx(0.1)
        sample = platform.step()
        assert sample.interval_s == pytest.approx(0.1)
        assert len(sample.power_samples) == 5
        assert sample.time == pytest.approx(0.1)

    def test_platform_rejects_bad_interval_parameters(self):
        with pytest.raises(ValueError):
            Platform(SPEC, slices_per_interval=0)
        with pytest.raises(ValueError):
            Platform(SPEC, slice_s=0.0)

    def test_default_interval_unchanged(self):
        platform = Platform(SPEC, seed=5)
        assert platform.interval_s == pytest.approx(INTERVAL_S)
        assert platform.step().interval_s == pytest.approx(INTERVAL_S)

    def test_trace_rejects_mixed_intervals(self):
        samples = _busy_samples(n=3)
        mixed = samples[:2] + [_rescale(samples[2], 0.5)]
        with pytest.raises(ValueError, match="mixes interval lengths"):
            Trace(mixed, label="mixed")

    def test_filter_rejects_mid_stream_interval_change(self):
        filt = TelemetryFilter(SPEC)
        samples = _busy_samples(n=3)
        filt.ingest(samples[0])
        filt.ingest(samples[1])
        with pytest.raises(ValueError, match="changed interval length"):
            filt.ingest(_rescale(samples[2], 0.5))
        # A reset starts a new stream; the new interval then pins.
        filt.reset()
        assert filt.ingest(_rescale(samples[2], 0.5)) is not None

    def test_fleet_rejects_mixed_interval_nodes(self, quick_ctx):
        ppep = quick_ctx.full_ppep
        fast = Platform(SPEC, seed=1)
        slow = Platform(SPEC, seed=2, slices_per_interval=5)
        nodes = [
            FleetNode("node00", fast, ppep),
            FleetNode("node01", slow, ppep),
        ]
        with pytest.raises(ValueError, match="disagree on the decision"):
            FleetSimulator(nodes)
