"""Core value types: bounded samples, losses, parameter grids, data models.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

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


@dataclass(frozen=True)
class BoundedSample:
    """n observations on a known bounded support [lo, hi], stored sorted.

    ``original_order[i]`` is the position in the raw input of the i-th
    sorted value, so the input list is recoverable.
    """

    values: np.ndarray
    support_lo: float
    support_hi: float
    original_order: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)

    def to_original(self) -> np.ndarray:
        """Reconstruct the raw input ordering."""
        out = np.empty_like(self.values)
        out[self.original_order] = self.values
        return out


def check_support(lo: float, hi: float) -> None:
    """Raise unless [lo, hi] is a finite interval with lo < hi."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteValue(f"support [{lo}, {hi}] is not finite")
    if not lo < hi:
        raise DegenerateSupport(f"support [{lo}, {hi}] is degenerate")


def make_sample(raw: Sequence[float], lo: float, hi: float) -> BoundedSample:
    """Validate and sort raw observations into a BoundedSample."""
    check_support(lo, hi)
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptySample("need at least one observation")
    inside = (arr >= lo) & (arr <= hi)  # false for NaN
    if not inside.all():
        bad = arr[~inside][0]
        if not math.isfinite(bad):
            raise NonFiniteValue(f"value {bad} is not finite")
        raise OutOfSupport(f"value {bad} outside [{lo}, {hi}]")
    order = np.argsort(arr, kind="stable")
    values = arr[order]
    values.setflags(write=False)
    order.setflags(write=False)
    return BoundedSample(values, float(lo), float(hi), order)


class LossKind(enum.Enum):
    SQUARED_ERROR = "squared"
    ABSOLUTE_ERROR = "absolute"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class LossSpec:
    """A nonnegative loss (theta, y) -> R+ with a convexity-in-y attestation.

    ``evaluate`` accepts scalars or numpy arrays (broadcasting).
    """

    kind: LossKind
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    convex_in_y: bool
    theta_domain: tuple[float, float]

    def __call__(self, theta, y):
        return self.evaluate(np.asarray(theta, dtype=float), np.asarray(y, dtype=float))

    def check_theta(self, theta: float) -> None:
        lo, hi = self.theta_domain
        if not (lo <= theta <= hi):
            raise ThetaOutOfDomain(f"theta={theta} outside [{lo}, {hi}]")


def squared_error_loss(theta_domain: tuple[float, float] = (-1.0, 1.0)) -> LossSpec:
    return LossSpec(
        kind=LossKind.SQUARED_ERROR,
        evaluate=lambda t, y: (y - t) ** 2,
        convex_in_y=True,
        theta_domain=theta_domain,
    )


def absolute_error_loss(theta_domain: tuple[float, float] = (-1.0, 1.0)) -> LossSpec:
    return LossSpec(
        kind=LossKind.ABSOLUTE_ERROR,
        evaluate=lambda t, y: np.abs(y - t),
        convex_in_y=True,
        theta_domain=theta_domain,
    )


def tabulated_loss(
    theta_knots: Sequence[float],
    y_knots: Sequence[float],
    table: np.ndarray,
    convex_in_y: bool = False,
) -> LossSpec:
    """Loss given on a (theta, y) grid, bilinearly interpolated between knots."""
    tk = np.asarray(theta_knots, dtype=float)
    yk = np.asarray(y_knots, dtype=float)
    tab = np.asarray(table, dtype=float)
    if tab.shape != (tk.size, yk.size):
        raise ValueError("table shape must be (len(theta_knots), len(y_knots))")
    if np.any(tab < 0):
        raise ValueError("loss table must be nonnegative")

    def evaluate(t, y):
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        t_b, y_b = np.broadcast_arrays(t, y)
        it = np.clip(np.searchsorted(tk, t_b, side="right") - 1, 0, max(tk.size - 2, 0))
        iy = np.clip(np.searchsorted(yk, y_b, side="right") - 1, 0, max(yk.size - 2, 0))
        if tk.size == 1:
            wt = np.zeros_like(t_b)
            it1 = it
        else:
            wt = (t_b - tk[it]) / (tk[it + 1] - tk[it])
            it1 = it + 1
        if yk.size == 1:
            wy = np.zeros_like(y_b)
            iy1 = iy
        else:
            wy = (y_b - yk[iy]) / (yk[iy + 1] - yk[iy])
            iy1 = iy + 1
        wt = np.clip(wt, 0.0, 1.0)
        wy = np.clip(wy, 0.0, 1.0)
        out = (
            tab[it, iy] * (1 - wt) * (1 - wy)
            + tab[it1, iy] * wt * (1 - wy)
            + tab[it, iy1] * (1 - wt) * wy
            + tab[it1, iy1] * wt * wy
        )
        return out if out.shape else float(out)

    return LossSpec(
        kind=LossKind.TABULATED,
        evaluate=evaluate,
        convex_in_y=convex_in_y,
        theta_domain=(float(tk[0]), float(tk[-1])),
    )


def constant_loss(c: float, theta_domain: tuple[float, float] = (-1.0, 1.0)) -> LossSpec:
    """Loss identically equal to c, tabulated on a trivial grid."""
    lo, hi = theta_domain
    return LossSpec(
        kind=LossKind.TABULATED,
        evaluate=lambda t, y: np.broadcast_arrays(t, y)[0] * 0.0 + c,
        convex_in_y=True,
        theta_domain=(lo, hi),
    )


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
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise NonFiniteValue(f"grid [{self.lo}, {self.hi}] is not finite")
        if self.count > 1 and not self.lo < self.hi:
            raise ValueError("need lo < hi for a multi-point grid")
        pts = np.linspace(self.lo, self.hi, self.count)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


class ModelKind(enum.Enum):
    TRUNCATED_STD_NORMAL = "truncated_std_normal"
    TABULATED = "tabulated"
    POINT_MASS = "point_mass"


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


def truncated_normal_density(y, lo: float, hi: float):
    """Density of the standard normal restricted to [lo, hi]; 0 outside."""
    mass = normal_mass(lo, hi)
    y = np.asarray(y, dtype=float)
    inside = (y >= lo) & (y <= hi)
    out = np.where(inside, _std_normal_pdf(y) / mass, 0.0)
    return out if out.shape else float(out)


@dataclass(frozen=True)
class TrueModel:
    """A data-generating distribution on a bounded support."""

    kind: ModelKind
    density: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]

    @staticmethod
    def truncated_std_normal(lo: float = -3.0, hi: float = 3.0) -> "TrueModel":
        normal_mass(lo, hi)
        return TrueModel(
            kind=ModelKind.TRUNCATED_STD_NORMAL,
            density=lambda y: truncated_normal_density(y, lo, hi),
            support=(float(lo), float(hi)),
        )

    @staticmethod
    def tabulated(y_knots: Sequence[float], dens: Sequence[float]) -> "TrueModel":
        """Piecewise-linear density on knots; must integrate to 1 (1e-10)."""
        yk = np.asarray(y_knots, dtype=float)
        dv = np.asarray(dens, dtype=float)
        if np.any(dv < 0):
            raise ValueError("density values must be nonnegative")
        total = np.trapezoid(dv, yk)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"density integrates to {total}, not 1")
        return TrueModel(
            kind=ModelKind.TABULATED,
            density=lambda y: np.interp(y, yk, dv, left=0.0, right=0.0),
            support=(float(yk[0]), float(yk[-1])),
        )

    @staticmethod
    def point_mass(y0: float) -> "TrueModel":
        """Degenerate distribution; handled specially by risk integration."""
        return TrueModel(
            kind=ModelKind.POINT_MASS,
            density=lambda y: np.full_like(np.asarray(y, dtype=float), np.inf),
            support=(float(y0), float(y0)),
        )
