"""The three risk functionals and upper-risk minimization.

Empirical risk is the sample mean of the loss; true risk integrates the
loss against the data-generating density; the upper risk averages per-set
loss suprema over the focal system.  For convex losses and identity-score
focal sets the upper risk has the closed form

    [n * R_n(theta) + M(theta)] / (n + 1),
    M(theta) = loss(theta, a) + loss(theta, b) - min over {a, data, b}.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .conformal import FocalRepresentation, FocalSystem
from .data_model import BoundedSample, LossSpec, ModelKind, ThetaGrid, TrueModel
from .errors import ApproximateSupremumWarning, NonConvexLoss
from .quadrature import integrate

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class RiskKind(enum.Enum):
    EMPIRICAL = "empirical"
    TRUE = "true"
    UPPER = "upper"


@dataclass(frozen=True)
class RiskCurve:
    grid: ThetaGrid
    values: np.ndarray
    kind: RiskKind

    def to_csv(self) -> str:
        kinds = [self.kind.value] * self.grid.count
        return format_csv("theta,value,kind", zip(self.grid.points, self.values, kinds))


def format_csv(header: str, rows: Iterable[Iterable]) -> str:
    """CSV text: numbers in 17 significant digits (round-trip exact), strings as is."""
    lines = [header]
    for row in rows:
        lines.append(",".join([v if isinstance(v, str) else f"{v:.17g}" for v in row]))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class UpperRiskDecomposition:
    """Upper risk split into its empirical part and the endpoint slack."""

    theta: float
    empirical_part: float
    slack: float

    @property
    def total(self) -> float:
        return self.empirical_part + self.slack


def empirical_risk(loss: LossSpec, sample: BoundedSample, theta: float) -> float:
    loss.check_theta(theta)
    return float(np.mean(loss(theta, sample.values)))


def true_risk(
    loss: LossSpec, model: TrueModel, theta: float, tol: float = 1e-8
) -> float:
    loss.check_theta(theta)
    lo, hi = model.support
    if model.kind is ModelKind.POINT_MASS or lo == hi:
        return float(loss(theta, lo))
    dens = model.density
    return integrate(lambda y: float(loss(theta, y)) * float(dens(y)), lo, hi, tol=tol)


def sup_on_interval(
    loss: LossSpec, theta: float, lo: float, hi: float, fallback_points: int = 513
) -> float:
    """Supremum of loss(theta, .) over the closed interval [lo, hi].

    Convex losses attain it at an endpoint; without the convexity
    attestation a dense grid search is used and a warning issued.
    """
    if lo == hi:
        return float(loss(theta, lo))
    if loss.convex_in_y:
        return float(max(loss(theta, lo), loss(theta, hi)))
    warnings.warn(
        "convexity not attested; supremum approximated on a grid",
        ApproximateSupremumWarning,
    )
    ys = np.linspace(lo, hi, fallback_points)
    return float(np.max(loss(theta, ys)))


def upper_risk_general(loss: LossSpec, focal: FocalSystem, theta: float) -> float:
    """Average of per-focal-set loss suprema (works for any representation)."""
    loss.check_theta(theta)
    total = 0.0
    for pieces in focal.sets:
        best = 0.0
        for lo, hi in pieces:
            best = max(best, sup_on_interval(loss, theta, lo, hi))
        total += best
    return total / focal.n_plus_1


def _closed_form_core(loss: LossSpec, values: np.ndarray, a: float, b: float, thetas):
    """R_n and M of the closed form, for samples sorted along the last axis of values.

    thetas broadcasts against values without that axis: (k,) with (n,) is one
    curve, (k,) with (r, 1, n) a curve per row, (r,) with (r, n) a point per row.
    """
    thetas = np.asarray(thetas, dtype=float)
    la = np.asarray(loss(thetas, a), dtype=float)
    lb = np.asarray(loss(thetas, b), dtype=float)
    table = np.asarray(loss(thetas[..., None], values), dtype=float)
    m_theta = la + lb - np.minimum(np.minimum(la, lb), table.min(axis=-1))
    return table.mean(axis=-1), m_theta


def upper_risk_batch(loss: LossSpec, values: np.ndarray, a: float, b: float, thetas):
    """Closed-form upper risk [n R_n + M] / (n + 1), shaped as in the core."""
    n = values.shape[-1]
    emp, m_theta = _closed_form_core(loss, values, a, b, thetas)
    return (n * emp + m_theta) / (n + 1)


def upper_risk_closed_form(
    loss: LossSpec, sample: BoundedSample, theta: float
) -> UpperRiskDecomposition:
    """Closed form for convex losses under the identity score, as n R_n/(n+1) + M/(n+1)."""
    loss.check_theta(theta)
    if not loss.convex_in_y:
        raise NonConvexLoss("closed form requires the convexity attestation")
    n = sample.n
    emp, m_theta = _closed_form_core(loss, sample.values, sample.support_lo,
                                     sample.support_hi, [theta])
    return UpperRiskDecomposition(theta, float(n * emp[0] / (n + 1)), float(m_theta[0] / (n + 1)))


def closed_form_curve(loss: LossSpec, sample: BoundedSample, thetas: np.ndarray) -> np.ndarray:
    """Vectorized closed-form upper risk over an array of theta values."""
    return upper_risk_batch(loss, sample.values, sample.support_lo, sample.support_hi, thetas)


def risk_curve(
    loss: LossSpec,
    grid: ThetaGrid,
    kind: RiskKind,
    sample: BoundedSample | None = None,
    model: TrueModel | None = None,
    focal: FocalSystem | None = None,
) -> RiskCurve:
    """Evaluate one of the risk functionals across the parameter grid."""
    if kind is RiskKind.EMPIRICAL:
        if sample is None:
            raise ValueError("empirical risk needs a sample")
        vals = np.array([empirical_risk(loss, sample, t) for t in grid.points])
    elif kind is RiskKind.TRUE:
        if model is None:
            raise ValueError("true risk needs a model")
        vals = np.array([true_risk(loss, model, t) for t in grid.points])
    else:
        if focal is not None:
            vals = np.array([upper_risk_general(loss, focal, t) for t in grid.points])
        elif sample is not None:
            for t in (grid.points[0], grid.points[-1]):
                loss.check_theta(t)
            vals = closed_form_curve(loss, sample, grid.points)
        else:
            raise ValueError("upper risk needs a focal system or a sample")
    return RiskCurve(grid=grid, values=vals, kind=kind)


def golden_section_min(f: Callable[[np.ndarray], np.ndarray], lo, hi, tol: float):
    """Minimize a unimodal f on every bracket [lo[i], hi[i]] at once.

    f maps one point per bracket to its value.  Each bracket takes exactly
    the steps of scalar golden section until its width is at most tol, or
    until a step leaves the width unchanged (the bracket is a few ulps wide
    and can shrink no further), then stays put while the others go on.
    Returns the final midpoints and f there.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x1, x2 = hi - _INV_GOLDEN * (hi - lo), lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    width = hi - lo
    active = width > tol
    while active.any():
        # left keeps [lo, x2] and x1 moves to x2; right keeps [x1, hi] and x2 moves to x1
        left = active & (f1 <= f2)
        right = active & ~left
        lo, hi = np.where(right, x1, lo), np.where(left, x2, hi)
        x_new = np.where(left, hi - _INV_GOLDEN * (hi - lo), lo + _INV_GOLDEN * (hi - lo))
        f_new = f(x_new)
        on_left, on_right = (x_new, x1, f_new, f1), (x2, x_new, f2, f_new)
        x1, x2, f1, f2 = np.where(left, on_left, np.where(right, on_right, (x1, x2, f1, f2)))
        active = (hi - lo > tol) & (hi - lo < width)
        width = hi - lo
    x = 0.5 * (lo + hi)
    return x, f(x)


def minimize_rows(loss: LossSpec, rows: np.ndarray, a: float, b: float, grid: ThetaGrid,
                  curves: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Argmin and minimum of each sample row's upper risk, given its grid curve.

    Convexity in y puts each focal set's sup at its ends, which makes the
    closed form exact; golden section over the cells next to the grid argmin
    (ties to the lowest index) also needs the curve unimodal in theta, which
    holds when the loss is convex in theta (squared, absolute).  Otherwise it
    may stop in a local minimum: the result is then still at most the grid
    minimum, which it replaces only by a strictly lower value.
    """
    idx = np.argmin(curves, axis=1)
    theta0, best = grid.points[idx], curves[np.arange(len(idx)), idx]
    if not loss.convex_in_y or grid.count == 1:
        return theta0, best
    lo = grid.points[np.maximum(idx - 1, 0)]
    hi = grid.points[np.minimum(idx + 1, grid.count - 1)]
    theta, val = golden_section_min(
        lambda t: upper_risk_batch(loss, rows, a, b, t), lo, hi, tol)
    better = (lo < hi) & (val < best)
    return np.where(better, theta, theta0), np.where(better, val, best)


def minimize_upper_risk(loss: LossSpec, sample: BoundedSample, grid: ThetaGrid,
                        tol: float = 1e-9) -> tuple[float, float]:
    """Grid argmin of the closed-form upper risk, refined as in ``minimize_rows``."""
    curves = closed_form_curve(loss, sample, grid.points)[None, :]
    rows, a, b = sample.values[None, :], sample.support_lo, sample.support_hi
    theta, val = minimize_rows(loss, rows, a, b, grid, curves, tol)
    return float(theta[0]), float(val[0])
