"""Exception hierarchy shared across the package."""


class FocalRiskError(Exception):
    """Base class for all package errors."""


class OutOfSupport(FocalRiskError):
    """A value lies outside the declared support [a, b]."""


class EmptySample(FocalRiskError):
    """A sample with zero observations was supplied."""


class NonFiniteValue(FocalRiskError):
    """An observation, support endpoint or grid endpoint is NaN or infinite."""


class DegenerateSupport(FocalRiskError):
    """Support endpoints do not satisfy lo < hi."""


class SupportMassTooSmall(FocalRiskError):
    """The support holds too little standard-normal mass to sample by rejection."""


class MissingGrid(FocalRiskError):
    """A general nonconformity score requires an explicit y-grid."""


class InvalidAlpha(FocalRiskError):
    """Miscoverage level alpha must lie strictly in (0, 1)."""


class ThetaOutOfDomain(FocalRiskError):
    """Parameter value outside the declared parameter domain."""


class NonConvexLoss(FocalRiskError):
    """Operation requires the convexity-in-y attestation."""


class QuadratureNonconvergence(FocalRiskError):
    """Adaptive quadrature failed to reach tolerance at max depth."""


class IndexOutOfRange(FocalRiskError):
    """A rank or focal index is outside 1..n+1."""


class NonpositiveEpsilon(FocalRiskError):
    """Epsilon must be strictly positive."""


class GridMismatch(FocalRiskError):
    """Curves passed to an aggregator do not share one grid."""


class EmptyInput(FocalRiskError):
    """An aggregation operation received no values."""


class ApproximateSupremumWarning(UserWarning):
    """Supremum computed by grid search because convexity is not attested."""


class EmptyFocalSetWarning(UserWarning):
    """A rank value was unattained on the evaluation grid."""
