"""Core value types: bounded samples, losses, parameter grids and the data model.

The one data model, ``TrueModel``, is the standard normal truncated to its support: the
distribution every Monte Carlo engine draws, so a true risk is always that of the
sampled distribution.

A sample keeps only its sorted values, since every score and risk is symmetric in the
data; the input order is not stored.  Everything here is immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSupport,
    EmptySample,
    NonFiniteValue,
    OutOfSupport,
    SupportMassTooSmall,
    ThetaOutOfDomain,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MASS_FLOOR = 1e-3  # below it, rejection sampling need not end and the density divides by ~0
_NORMAL_EDGE = 38.6  # exp(-y^2 / 2) underflows to 0 in float64 just beyond it
MAX_GRID = 1 << 16  # points of a theta or y grid, refused above before any allocation


@dataclass(frozen=True)
class BoundedSample:
    """n observations on a known bounded support [lo, hi], stored sorted."""

    values: np.ndarray
    support_lo: float
    support_hi: float

    @property
    def n(self) -> int:
        return len(self.values)


def check_support(lo: float, hi: float) -> None:
    """Raise unless [lo, hi] is a finite interval with lo < hi."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteValue(f"support [{lo}, {hi}] is not finite")
    if not lo < hi:
        raise DegenerateSupport(f"support [{lo}, {hi}] is degenerate")


def check_values(arr: np.ndarray, lo: float, hi: float) -> None:
    """Raise unless arr is a nonempty flat array of finite values in the support [lo, hi]."""
    check_support(lo, hi)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptySample("need at least one observation")
    if not (arr.min() >= lo and arr.max() <= hi):  # false for NaN; no temporary of arr's size
        bad = arr[~((arr >= lo) & (arr <= hi))][0]
        if not math.isfinite(bad):
            raise NonFiniteValue(f"value {bad} is not finite")
        raise OutOfSupport(f"value {bad} outside [{lo}, {hi}]")


def make_sample(raw: Sequence[float], lo: float, hi: float) -> BoundedSample:
    """Validate and sort raw observations into a BoundedSample."""
    arr = np.asarray(raw, dtype=float)
    check_values(arr, lo, hi)
    values = np.sort(arr, kind="stable")  # -0.0 and 0.0 keep their input order
    values.setflags(write=False)
    return BoundedSample(values, float(lo), float(hi))


class LossKind(enum.Enum):
    SQUARED_ERROR = "squared"
    ABSOLUTE_ERROR = "absolute"


@dataclass(frozen=True)
class LossSpec:
    """A nonnegative loss (theta, y) -> R+: (y - theta)**2 or |y - theta| by its kind.

    A call accepts scalars or numpy arrays (broadcasting).  Contract, so the extrema on
    [lo, hi] are exact: loss(theta, .) is convex with its min at y = theta, and
    loss(., y) is convex.  So a sup over an interval, in either argument, is the max at
    its two ends, and the inf over y in [lo, hi] is at clip(theta, lo, hi).
    """

    kind: LossKind
    theta_domain: tuple[float, float]

    def __call__(self, theta, y):
        t, y = np.asarray(theta, dtype=float), np.asarray(y, dtype=float)
        if self.kind is LossKind.SQUARED_ERROR:
            return (y - t) ** 2  # y - t unnamed, so numpy may square it in place
        d = y - t  # an array, or a float64 scalar when both are 0-d
        return np.abs(d, out=d if d.ndim else None)

    def check_theta(self, theta) -> None:
        """Raise unless theta, a scalar or an array, lies in the theta domain."""
        lo, hi = self.theta_domain
        t = np.asarray(theta, dtype=float)
        outside = ~((lo <= t) & (t <= hi))  # true for NaN
        if outside.any():
            raise ThetaOutOfDomain(f"theta={t[outside][0]} outside [{lo}, {hi}]")


def squared_error_loss(theta_domain: tuple[float, float] = (-1.0, 1.0)) -> LossSpec:
    return LossSpec(LossKind.SQUARED_ERROR, theta_domain)


def absolute_error_loss(theta_domain: tuple[float, float] = (-1.0, 1.0)) -> LossSpec:
    return LossSpec(LossKind.ABSOLUTE_ERROR, theta_domain)


def linspace(lo: float, hi: float, count: int, what: str = "grid") -> np.ndarray:
    """``np.linspace(lo, hi, count)``, refused where its width or a point is not finite; near
    the largest float, numpy's last point may overflow before it is set to hi: that is silent."""
    if not math.isfinite(float(hi) - float(lo)):  # NaN, inf, or wider than the largest float
        raise NonFiniteValue(f"{what} [{lo}, {hi}] is not finite, or wider than floats")
    with np.errstate(over="ignore"):
        pts = np.linspace(lo, hi, count)
    if not np.isfinite(pts).all():
        raise NonFiniteValue(f"{what} [{lo}, {hi}] has a point that is not finite")
    return pts


@dataclass(frozen=True)
class ThetaGrid:
    """count equally spaced parameter values on [lo, hi]."""

    lo: float
    hi: float
    count: int
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.count > MAX_GRID:
            raise ValueError(f"{self.count} grid points exceeds {MAX_GRID}")
        pts = linspace(self.lo, self.hi, self.count)
        if not (self.lo < self.hi or self.lo == self.hi and self.count == 1):
            raise ValueError("need lo < hi, or lo == hi for a one-point grid")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


def _std_normal_pdf(y):
    return np.exp(-0.5 * np.asarray(y, dtype=float) ** 2) / _SQRT_2PI


def _std_normal_cdf(y):
    return 0.5 * (1.0 + math.erf(y / math.sqrt(2.0)))


def normal_mass(lo: float, hi: float) -> float:
    """Standard-normal mass of the support [lo, hi], refused below _MASS_FLOOR."""
    check_support(lo, hi)
    mass = _std_normal_cdf(hi) - _std_normal_cdf(lo)
    if not mass >= _MASS_FLOOR:
        raise SupportMassTooSmall(f"[{lo}, {hi}] has normal mass {mass:.3g} < {_MASS_FLOOR:g}")
    return mass


@dataclass(frozen=True)
class TrueModel:
    """The standard normal truncated to ``support``: the distribution every sampler here
    draws, so a true risk is always that of the sampled distribution.

    ``mass`` is the support's normal mass (``normal_mass`` refuses the support first);
    ``breaks``, the true risk's quadrature panel edges, span the support where the density
    is nonzero in float64, at most 1 apart.
    """

    support: tuple[float, float]
    mass: float = field(init=False)
    breaks: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        lo, hi = self.support
        object.__setattr__(self, "mass", normal_mass(lo, hi))
        e0, e1 = max(lo, -_NORMAL_EDGE), min(hi, _NORMAL_EDGE)  # panels at most 1 wide
        breaks = np.linspace(e0, e1, math.ceil(e1 - e0) + 1).tolist()
        object.__setattr__(self, "breaks", tuple(breaks))

    @staticmethod
    def truncated_std_normal(lo: float = -3.0, hi: float = 3.0) -> "TrueModel":
        return TrueModel((float(lo), float(hi)))

    def density(self, y):
        """Density of the standard normal restricted to the support; 0 outside."""
        lo, hi = self.support
        y = np.asarray(y, dtype=float)
        inside = (y >= lo) & (y <= hi)
        out = np.where(inside, _std_normal_pdf(y) / self.mass, 0.0)
        return out if out.shape else float(out)
