"""Focal-set predictive inference and upper-risk decision tools.

Rank-pivot focal sets with mass 1/(n+1) yield finite-sample-valid
prediction sets and an upper risk functional that approximates the true
risk up to an O(1/n) endpoint term for convex losses on bounded data.

Each public name is imported from its home module on first access (PEP 562),
so ``import focalrisk`` and the command-line parser load no numpy.
"""

import importlib

_EXPORTS = {
    "conformal": ("FocalSystem", "NonconformityScore", "PredictionSet", "contour",
                  "coverage_probability", "focal_sets", "prediction_set", "rank_candidate"),
    "consistency": ("BoundReport", "ConsistencyConstants", "constants", "hoeffding_bound",
                    "min_sample_size", "verify_pointwise", "verify_uniform", "witness_uniform"),
    "data_model": ("BoundedSample", "LossSpec", "ThetaGrid", "absolute_error_loss", "make_sample",
                   "squared_error_loss"),
    "risk": ("minimize_upper_risk", "risk_curve", "true_risk", "upper_risk_closed_form",
             "upper_risk_general"),
    "simulate": ("SimConfig", "aggregate_percentiles", "coverage_experiment", "histogram",
                 "replication_rng", "run_replications", "sample_truncated_normal"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
