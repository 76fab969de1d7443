"""Focal-set predictive inference and upper-risk decision tools.

Rank-pivot focal sets with mass 1/(n+1) yield finite-sample-valid
prediction sets and an upper risk functional that approximates the true
risk up to an O(1/n) endpoint term for convex losses on bounded data.
"""

from .conformal import (
    FocalSystem,
    NonconformityScore,
    PredictionSet,
    contour,
    coverage_probability,
    focal_sets,
    prediction_set,
    rank_candidate,
)
from .consistency import (
    BoundReport,
    ConsistencyConstants,
    constants,
    hoeffding_bound,
    min_sample_size,
    verify_pointwise,
    verify_uniform,
    witness_uniform,
)
from .data_model import (
    BoundedSample,
    LossSpec,
    ThetaGrid,
    TrueModel,
    absolute_error_loss,
    make_sample,
    squared_error_loss,
)
from .risk import (
    RiskKind,
    minimize_upper_risk,
    risk_curve,
    true_risk,
    upper_risk_closed_form,
    upper_risk_general,
)
from .simulate import (
    SimConfig,
    aggregate_percentiles,
    coverage_experiment,
    histogram,
    replication_rng,
    run_replications,
    sample_truncated_normal,
)

__version__ = "0.1.0"
