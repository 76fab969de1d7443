"""Exception hierarchy shared across the package."""


class FocalRiskError(Exception):
    """Base class for all package errors."""


class OutOfSupport(FocalRiskError):
    """A value lies outside the declared support [a, b]."""


class EmptySample(FocalRiskError):
    """A sample with zero observations, or a sample size below 1, was supplied."""


class NonFiniteValue(FocalRiskError):
    """An observation, endpoint, epsilon or required sample size is NaN or infinite."""


class SampleTooLarge(FocalRiskError):
    """A sample size exceeds the largest sample one row of the sampler may hold."""


class DegenerateSupport(FocalRiskError):
    """Support endpoints do not satisfy lo < hi."""


class SupportMassTooSmall(FocalRiskError):
    """The support holds too little standard-normal mass to sample by rejection."""


class MissingGrid(FocalRiskError):
    """A general nonconformity score needs a y-grid of at least 2 points."""


class InvalidAlpha(FocalRiskError):
    """Miscoverage level alpha must lie strictly in (0, 1)."""


class ThetaOutOfDomain(FocalRiskError):
    """Parameter value outside the declared parameter domain."""


class IndexOutOfRange(FocalRiskError):
    """A rank or focal index is outside 1..n+1."""


class NonpositiveEpsilon(FocalRiskError):
    """Epsilon must be strictly positive."""


class GridMismatch(FocalRiskError):
    """Curves passed to an aggregator do not share one grid."""


class EmptyInput(FocalRiskError):
    """An aggregation operation received no values."""


class EmptyFocalSetWarning(UserWarning):
    """A rank value was unattained on the evaluation grid."""
