"""Performance-model construction (paper Section 5, Eqs. 1-2).

* :mod:`repro.models.fits` — regression families used in the paper:
  linear, polynomial (the quartic sigma_EFM), power law
  ``T = exp(b log Q + a)`` (T_states), and exponential ``T = exp(a + bQ)``
  (sigma_states), with R^2/AIC model selection.
* :mod:`repro.models.performance` — :class:`PerformanceModel`: a mean and a
  standard-deviation predictor for one component method as a function of
  the workload parameter Q, built from Mastermind measurements.
* :mod:`repro.models.composite` — the composite model over a call graph
  with per-slot implementation variables, evaluated by substituting a
  concrete implementation's model into each variable (the Imperial College
  scheme summarized in paper Section 2, realized through the Mastermind's
  dual in Section 6).
"""

from repro.models.fits import (
    ModelFit,
    fit_linear,
    fit_polynomial,
    fit_power_law,
    fit_exponential,
    fit_constant,
    fit_family,
    select_best,
    FIT_FAMILIES,
)
from repro.models.performance import PerformanceModel, build_model
from repro.models.composite import CompositeModel, Workload, SlotCost
from repro.models.serialize import ModelRepository, model_to_dict, model_from_dict
from repro.models.permode import (ModalPerformanceModel, build_modal_model,
                                  variance_explained)

__all__ = [
    "ModelFit",
    "fit_linear",
    "fit_polynomial",
    "fit_power_law",
    "fit_exponential",
    "fit_constant",
    "fit_family",
    "select_best",
    "FIT_FAMILIES",
    "PerformanceModel",
    "build_model",
    "CompositeModel",
    "Workload",
    "SlotCost",
    "ModelRepository",
    "model_to_dict",
    "model_from_dict",
    "ModalPerformanceModel",
    "build_modal_model",
    "variance_explained",
]
