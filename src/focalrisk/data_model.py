"""Core value types: bounded samples, losses, parameter grids, data models.

A sample keeps only its sorted values, since every score and risk is symmetric in the
data; the input order is not stored.  Everything here is immutable after construction
and safe to share across threads.
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
    NonConvexLoss,
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
    TABULATED = "tabulated"


def sup_points(lo: float, hi: float, breaks: Sequence[float]) -> np.ndarray:
    """lo, the breaks strictly inside (lo, hi), and hi: the candidates for a sup (``LossSpec``)."""
    return np.array([lo, *(x for x in breaks if lo < x < hi), hi], dtype=float)


@dataclass(frozen=True)
class LossSpec:
    """A nonnegative loss (theta, y) -> R+ with a convexity-in-y attestation.

    ``evaluate`` accepts scalars or numpy arrays (broadcasting).  ``y_breaks``
    and ``theta_breaks``, a tabulated loss's knots (ascending; else empty), are
    where it may have a kink along each axis.  Contract, so the extrema on [lo, hi] are exact:
    - loss(theta, .) is convex with its min at y = theta (squared, absolute), or
      linear between and beyond its y_breaks (bilinear tables are flat outside
      their knots): its sup is at ``sup_points(lo, hi, y_breaks)``, its inf
      there or at clip(theta, lo, hi);
    - loss(., y) is convex, or linear between and beyond its theta_breaks: its
      sup is at ``sup_points(lo, hi, theta_breaks)``.
    """

    kind: LossKind
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    convex_in_y: bool
    theta_domain: tuple[float, float]
    y_breaks: tuple[float, ...] = ()
    theta_breaks: tuple[float, ...] = ()

    def __call__(self, theta, y):
        return self.evaluate(np.asarray(theta, dtype=float), np.asarray(y, dtype=float))

    def check_theta(self, theta) -> None:
        """Raise unless theta, a scalar or an array, lies in the theta domain."""
        lo, hi = self.theta_domain
        t = np.asarray(theta, dtype=float)
        outside = ~((lo <= t) & (t <= hi))  # true for NaN
        if outside.any():
            raise ThetaOutOfDomain(f"theta={t[outside][0]} outside [{lo}, {hi}]")

    def check_convex(self) -> None:  # the closed-form upper risk's precondition
        if not self.convex_in_y:
            raise NonConvexLoss("closed form requires the convexity attestation")


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


def _knot_cell(knots: np.ndarray, x: np.ndarray):
    """Per x: the ends (i, i1) of its cell among the knots and the weight of i1, in [0, 1]."""
    i = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, max(knots.size - 2, 0))
    if knots.size == 1:
        return i, i, np.zeros_like(x)
    return i, i + 1, np.clip((x - knots[i]) / (knots[i + 1] - knots[i]), 0.0, 1.0)


def _knots(raw: Sequence[float]) -> np.ndarray:
    """raw as a float array; ValueError unless finite and strictly ascending (at least one)."""
    knots = np.asarray(raw, dtype=float)  # closed form and np.interp need ascending gaps > 0
    if not (knots.ndim == 1 and knots.size and np.isfinite(knots).all()
            and (np.diff(knots) > 0).all()):
        raise ValueError("knots must be finite and strictly ascending")
    return knots


def tabulated_loss(
    theta_knots: Sequence[float],
    y_knots: Sequence[float],
    table: np.ndarray,
    convex_in_y: bool = False,
) -> LossSpec:
    """Loss given on a (theta, y) grid, bilinearly interpolated between knots."""
    tk, yk = _knots(theta_knots), _knots(y_knots)
    tab = np.asarray(table, dtype=float)
    if tab.shape != (tk.size, yk.size):
        raise ValueError("table shape must be (len(theta_knots), len(y_knots))")
    if not (np.isfinite(tab) & (tab >= 0)).all():
        raise ValueError("loss table must be finite and nonnegative")

    def evaluate(t, y):
        t_b, y_b = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(y, dtype=float))
        (it, it1, wt), (iy, iy1, wy) = _knot_cell(tk, t_b), _knot_cell(yk, y_b)
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
        y_breaks=tuple(yk.tolist()),
        theta_breaks=tuple(tk.tolist()),
    )


def constant_loss(c: float, theta_domain: tuple[float, float] = (-1.0, 1.0)) -> LossSpec:
    """Loss identically equal to c >= 0, tabulated on a trivial grid."""
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"c={c}: a loss must be finite and nonnegative")
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
        if self.count > MAX_GRID:
            raise ValueError(f"{self.count} grid points exceeds {MAX_GRID}")
        if not math.isfinite(float(self.hi) - float(self.lo)):  # linspace's step must be finite
            raise NonFiniteValue(f"grid [{self.lo}, {self.hi}] is not finite, or wider than floats")
        if not (self.lo < self.hi or self.lo == self.hi and self.count == 1):
            raise ValueError("need lo < hi, or lo == hi for a one-point grid")
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
    """A data-generating distribution on a bounded support.

    ``breaks``: the true risk's quadrature panel edges (default: the support's
    ends); the density is 0 outside them, smooth or polynomial between them.
    """

    kind: ModelKind
    density: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    breaks: tuple[float, ...] = ()

    @staticmethod
    def truncated_std_normal(lo: float = -3.0, hi: float = 3.0) -> "TrueModel":
        normal_mass(lo, hi)
        e0, e1 = max(lo, -_NORMAL_EDGE), min(hi, _NORMAL_EDGE)  # panels at most 1 wide
        return TrueModel(
            kind=ModelKind.TRUNCATED_STD_NORMAL,
            density=lambda y: truncated_normal_density(y, lo, hi),
            support=(float(lo), float(hi)),
            breaks=tuple(np.linspace(e0, e1, math.ceil(e1 - e0) + 1).tolist()),
        )

    @staticmethod
    def tabulated(y_knots: Sequence[float], dens: Sequence[float]) -> "TrueModel":
        """Piecewise-linear density on knots; must integrate to 1 (1e-10)."""
        yk, dv = _knots(y_knots), np.asarray(dens, dtype=float)
        if not (np.isfinite(dv) & (dv >= 0)).all():
            raise ValueError("density values must be finite and nonnegative")
        total = np.trapezoid(dv, yk)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"density integrates to {total}, not 1")
        return TrueModel(
            kind=ModelKind.TABULATED,
            density=lambda y: np.interp(y, yk, dv, left=0.0, right=0.0),
            support=(float(yk[0]), float(yk[-1])),
            breaks=tuple(yk.tolist()),
        )

    @staticmethod
    def point_mass(y0: float) -> "TrueModel":
        """Degenerate distribution; handled specially by risk integration."""
        return TrueModel(
            kind=ModelKind.POINT_MASS,
            density=lambda y: np.full_like(np.asarray(y, dtype=float), np.inf),
            support=(float(y0), float(y0)),
        )
