"""Core value types: bounded samples, losses, parameter grids and the data model.

The one data model is the standard normal truncated to a support (lo, hi), so the
support is the whole model: the distribution every Monte Carlo engine draws, so a true
risk is always that of the sampled distribution.

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

_MASS_FLOOR = 1e-3  # below it, rejection sampling need not end and the density divides by ~0
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


def normal_mass(lo: float, hi: float) -> float:
    """Standard-normal mass of the support [lo, hi], refused below _MASS_FLOOR: a difference
    of the tails on the support's side of 0, which does not cancel where both ends are far."""
    check_support(lo, hi)
    if lo >= 0:  # Q(lo) - Q(hi), Q the upper tail
        mass = 0.5 * math.erfc(lo / math.sqrt(2.0)) - 0.5 * math.erfc(hi / math.sqrt(2.0))
    else:  # Phi(hi) - Phi(lo), Phi the lower tail
        mass = 0.5 * math.erfc(-hi / math.sqrt(2.0)) - 0.5 * math.erfc(-lo / math.sqrt(2.0))
    if not mass >= _MASS_FLOOR:
        raise SupportMassTooSmall(f"[{lo}, {hi}] has normal mass {mass:.3g} < {_MASS_FLOOR:g}")
    return mass
