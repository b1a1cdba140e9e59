"""The chip dynamic power model (Section IV-B, Eq. 3).

    P_dyn = sum_cores ( sum_{i=1..7} (Vn/V5)^alpha * W_dyn(i) * E_i
                       + sum_{i=8..9}              W_dyn(i) * E_i )

The paper adds same-event counts across cores first, producing one
nine-element rate vector per interval, and fits the weights by linear
regression on data gathered at VF5 (dynamic power = measured chip power
minus the Eq. 2 idle estimate).  The weights of the seven core events
are voltage-scaled by ``(Vn/V5)**alpha`` at other VF states; the two
NB-proxy events (L2 misses, dispatch stalls) are not, because the NB
voltage is held constant.

``alpha`` is a per-process-technology constant the paper derives from
measured power at different voltages;
:meth:`repro.core.ppep.PPEPTrainer.estimate_alpha_from_microbench`
reproduces that derivation from bench_A runs at every VF state.

We fit with non-negative least squares: the weights are effective
energies per event, so negative values are unphysical and would
extrapolate badly across VF states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.core.regression import nonnegative_least_squares
from repro.hardware.events import DYNAMIC_POWER_EVENTS, Event, EventVector

__all__ = [
    "DynamicPowerModel",
    "fit_dynamic_power_model",
    "dynamic_feature_vector",
]

#: Number of voltage-scaled weights (E1-E7).
_NUM_SCALED = 7
#: Total model inputs (E1-E9).
_NUM_FEATURES = 9


def dynamic_feature_vector(chip_events_per_second: EventVector) -> np.ndarray:
    """The nine-element rate vector Eq. 3 consumes (E1-E9, events/s).

    The input must already be summed over cores and converted to
    per-second rates.
    """
    return np.array(
        [chip_events_per_second[e] for e in DYNAMIC_POWER_EVENTS], dtype=float
    )


@dataclass(frozen=True)
class DynamicPowerModel:
    """Fitted Eq. 3."""

    #: W_dyn(1..9): effective watts per (event/second).
    weights: Tuple[float, ...]
    #: Voltage-scaling exponent for the seven core-event weights.
    alpha: float
    #: The training voltage V5.
    train_voltage: float

    def __post_init__(self) -> None:
        if len(self.weights) != _NUM_FEATURES:
            raise ValueError("Eq. 3 takes exactly nine weights")
        if self.train_voltage <= 0:
            raise ValueError("training voltage must be positive")
        # The weight slices every term reduces against, built once (the
        # model is frozen).  Not dataclass fields: equality, hashing and
        # repr still see only the weights, alpha and training voltage.
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "w_core", w[:_NUM_SCALED])
        object.__setattr__(self, "w_nb", w[_NUM_SCALED:])

    def voltage_scale(self, voltage: float) -> float:
        """``(V / V5) ** alpha``, the factor on the E1-E7 weights."""
        return (voltage / self.train_voltage) ** self.alpha

    def estimate(self, features: np.ndarray, voltage: float) -> float:
        """Dynamic power for a nine-element rate vector at ``voltage``."""
        if len(features) != _NUM_FEATURES:
            raise ValueError("expected nine event rates")
        if voltage <= 0:
            raise ValueError("voltage must be positive")
        return self.core_term(features, voltage) + self.nb_term(features)

    def estimate_from_events(
        self, chip_events: EventVector, interval_s: float, voltage: float
    ) -> float:
        """Dynamic power from raw per-interval chip event counts."""
        rates = chip_events.rates(interval_s)
        return self.estimate(dynamic_feature_vector(rates), voltage)

    def core_term(self, features: np.ndarray, voltage: float) -> float:
        """The voltage-scaled (core, E1-E7) part of the estimate."""
        scale = self.voltage_scale(voltage)
        return float(np.dot(self.w_core, features[:_NUM_SCALED])) * scale

    def nb_term(self, features: np.ndarray) -> float:
        """The NB-proxy (E8-E9) part of the estimate."""
        return float(np.dot(self.w_nb, features[_NUM_SCALED:]))

    def with_alpha(self, alpha: float) -> "DynamicPowerModel":
        return DynamicPowerModel(self.weights, alpha, self.train_voltage)


def fit_dynamic_power_model(
    feature_rows: Sequence[np.ndarray],
    dynamic_powers: Sequence[float],
    train_voltage: float,
    alpha: float = 2.0,
) -> DynamicPowerModel:
    """Fit the nine weights at the training voltage (VF5).

    ``feature_rows`` are per-interval nine-element rate vectors (already
    summed over cores); ``dynamic_powers`` the matching measured-minus-
    idle power targets.  ``alpha`` may be set afterwards with
    :meth:`DynamicPowerModel.with_alpha` (the weights do not depend on
    it at the training voltage, where the scale factor is one).
    """
    matrix = np.vstack([np.asarray(r, dtype=float) for r in feature_rows])
    if matrix.shape[1] != _NUM_FEATURES:
        raise ValueError("feature rows must have nine columns")
    targets = np.asarray(dynamic_powers, dtype=float)
    # Negative targets can occur when idle-model error exceeds the tiny
    # dynamic power of nearly-idle intervals; clamp rather than let them
    # drag weights negative.
    targets = np.clip(targets, 0.0, None)
    weights = nonnegative_least_squares(matrix, targets)
    return DynamicPowerModel(
        weights=tuple(float(w) for w in weights),
        alpha=alpha,
        train_voltage=train_voltage,
    )

