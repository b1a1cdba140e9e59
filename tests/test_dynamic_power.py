"""Unit tests for the Eq. 3 dynamic power model."""

import numpy as np
import pytest

from repro.core.dynamic_power import (
    DynamicPowerModel,
    dynamic_feature_vector,
    fit_dynamic_power_model,
)
from repro.hardware.events import Event, EventVector

V5 = 1.32


def make_model(weights=None, alpha=2.0):
    if weights is None:
        weights = tuple([1e-9] * 7 + [5e-8, 1e-10])
    return DynamicPowerModel(weights=weights, alpha=alpha, train_voltage=V5)


def synthetic_rows(n=200, seed=0):
    """Rows from a known nine-weight ground truth at V5."""
    rng = np.random.default_rng(seed)
    true = np.array([2.0, 1.0, 0.5, 0.8, 3.0, 0.4, 10.0, 100.0, 0.2]) * 1e-9
    rows = [rng.random(9) * 1e9 for _ in range(n)]
    targets = [float(r @ true) for r in rows]
    return rows, targets, true


class TestFeatureVector:
    def test_extracts_e1_to_e9(self):
        events = EventVector.from_mapping(
            {Event.RETIRED_UOPS: 10.0, Event.DISPATCH_STALLS: 20.0,
             Event.CPU_CLOCKS_NOT_HALTED: 99.0}
        )
        features = dynamic_feature_vector(events)
        assert features.shape == (9,)
        assert features[0] == 10.0
        assert features[8] == 20.0
        # E10 is not a model input.
        assert 99.0 not in features


class TestFit:
    def test_recovers_ground_truth(self):
        rows, targets, true = synthetic_rows()
        model = fit_dynamic_power_model(rows, targets, train_voltage=V5)
        assert np.asarray(model.weights) == pytest.approx(true, rel=1e-6)

    def test_negative_targets_clamped(self):
        rows, targets, _ = synthetic_rows(n=50)
        targets[0] = -5.0  # idle-model error artefact
        model = fit_dynamic_power_model(rows, targets, train_voltage=V5)
        assert all(w >= 0 for w in model.weights)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            fit_dynamic_power_model([np.ones(5)], [1.0], train_voltage=V5)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            DynamicPowerModel(weights=(1.0,) * 5, alpha=2.0, train_voltage=V5)
        with pytest.raises(ValueError):
            DynamicPowerModel(weights=(1.0,) * 9, alpha=2.0, train_voltage=0.0)


class TestEstimate:
    def test_identity_scale_at_training_voltage(self):
        model = make_model()
        features = np.ones(9) * 1e9
        expected = sum(model.weights) * 1e9
        assert model.estimate(features, V5) == pytest.approx(expected)

    def test_voltage_scales_only_core_events(self):
        model = make_model(alpha=2.0)
        features = np.ones(9) * 1e9
        half_v = V5 / 2
        core5 = model.core_term(features, V5)
        nb = model.nb_term(features)
        assert model.estimate(features, half_v) == pytest.approx(
            core5 * 0.25 + nb
        )

    def test_estimate_from_events(self):
        model = make_model()
        events = EventVector.from_mapping({Event.RETIRED_UOPS: 2e8})
        value = model.estimate_from_events(events, 0.2, V5)
        assert value == pytest.approx(model.weights[0] * 1e9)

    def test_input_validation(self):
        model = make_model()
        with pytest.raises(ValueError):
            model.estimate(np.ones(4), V5)
        with pytest.raises(ValueError):
            model.estimate(np.ones(9), 0.0)

    def test_with_alpha(self):
        model = make_model(alpha=2.0).with_alpha(1.5)
        assert model.alpha == 1.5

