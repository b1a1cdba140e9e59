"""PPEP: the paper's contribution.

The framework has four model components (Figure 5) plus the training and
prediction drivers:

- :mod:`repro.core.cpi_model` -- the LL-MAB CPI predictor (Eq. 1);
- :mod:`repro.core.idle_power` -- the temperature-aware idle power model
  (Eq. 2), fitted from cool-down traces;
- :mod:`repro.core.dynamic_power` -- the nine-event dynamic power
  regression (Eq. 3) with voltage scaling;
- :mod:`repro.core.event_predictor` -- the Observation 1/2 cross-VF
  hardware event predictor (Section IV-C);
- :mod:`repro.core.power_gating` -- the per-core idle power
  decomposition (Eqs. 7-8, Figure 4);
- :mod:`repro.core.energy` -- energy and EDP prediction;
- :mod:`repro.core.ppep` -- the all-in-one PPEP manager and its
  training driver;
- :mod:`repro.core.crossval` -- the 4-fold cross-validation harness;
- :mod:`repro.core.regression` -- shared fitting utilities.
"""

from repro.core.cpi_model import CPIModel, CPISample
from repro.core.idle_power import IdlePowerModel, fit_idle_power_model
from repro.core.dynamic_power import DynamicPowerModel, fit_dynamic_power_model
from repro.core.event_predictor import EventPredictor
from repro.core.power_gating import IdlePowerDecomposition, PGAwareIdleModel
from repro.core.energy import EnergyPredictor, VFPrediction
from repro.core.ppep import PPEP, PPEPTrainer
from repro.core.crossval import kfold_split, cross_validate

__all__ = [
    "CPIModel",
    "CPISample",
    "IdlePowerModel",
    "fit_idle_power_model",
    "DynamicPowerModel",
    "fit_dynamic_power_model",
    "EventPredictor",
    "IdlePowerDecomposition",
    "PGAwareIdleModel",
    "EnergyPredictor",
    "VFPrediction",
    "PPEP",
    "PPEPTrainer",
    "kfold_split",
    "cross_validate",
]
