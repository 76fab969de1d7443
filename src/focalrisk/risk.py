"""The three risk functionals and upper-risk minimization.

Empirical risk is the sample mean of the loss; true risk integrates the
loss against the data-generating density; the upper risk averages per-set
loss suprema over the focal system.  For convex losses and identity-score
focal sets the upper risk has the closed form

    [n * R_n(theta) + M(theta)] / (n + 1),
    M(theta) = loss(theta, a) + loss(theta, b) - min over {a, data, b}.

For squared and absolute loss both terms come from per-row summaries of the
sorted sample y_1 <= ... <= y_n, with c = #{y_i < theta} (``searchsorted``):

    squared:  n R_n = SS + n (mean - theta)^2, SS the centred sum of squares;
    absolute: n R_n = (S - P_c - (n - c) theta) + (c theta - P_c), P_c the sum
              of the c smallest, S of all;
    M: the min over the data is the loss at y_c or y_{c+1}, the neighbours
       of theta.

Data and theta are shifted by the support's centre (a + b)/2 first, so the
rounding scales with b - a, not with the distance of the data from 0.

So a curve of k thetas costs O(n + k log n) per row.  Their upper risk is
convex in theta, and ``minimize_rows`` takes its exact argmin; other losses
tabulate loss(theta, y) and refine a grid argmin by golden section.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .conformal import FocalSystem
from .data_model import (BoundedSample, LossKind, LossSpec, ModelKind, ThetaGrid, TrueModel,
                         sup_points)
from .errors import NonFiniteValue
from .quadrature import integrate

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-9  # golden section's bracket width for tabulated-loss minimizers
_CHUNK_PANELS = 1 << 13  # panels per true-risk pass: 2^17 nodes, 1 MiB of float64
_CURVE_CELLS = 1 << 15  # loss values per block of the empirical curve: 256 KiB of float64


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
    """CSV text, typed by the first row: numbers as %.17g (round-trip exact), strings as is."""
    rows = [tuple(row) for row in rows]
    line = ",".join(["%s" if isinstance(v, str) else "%.17g" for v in rows[0]]) if rows else ""
    return "\n".join([header] + [line % row for row in rows]) + "\n"


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


def true_risk_curve(loss: LossSpec, model: TrueModel, thetas) -> np.ndarray:
    """True risk E loss(theta, Y) at every theta, by one quadrature pass.

    Panels run between the model's breaks, the loss's y-breaks and theta (the
    kink of the absolute loss), so the integrand is smooth or polynomial on
    each.  A pass takes as many thetas as fit in _CHUNK_PANELS panels.
    """
    thetas = np.asarray(thetas, dtype=float)
    loss.check_theta(thetas)
    lo, hi = model.support
    if model.kind is ModelKind.POINT_MASS or lo == hi:
        return np.asarray(loss(thetas, lo), dtype=float)
    edges = np.asarray(model.breaks or model.support, dtype=float)
    edges = np.sort(np.append(edges, [y for y in loss.y_breaks if edges[0] < y < edges[-1]]))
    step, curve = max(1, _CHUNK_PANELS // len(edges)), []
    for t in (thetas[i:i + step, None] for i in range(0, len(thetas), step)):
        ends = np.sort(np.hstack([np.tile(edges, (len(t), 1)), t.clip(edges[0], edges[-1])]))
        parts = integrate(lambda y: loss(t[..., None], y) * model.density(y),
                          ends[:, :-1], ends[:, 1:])
        curve.append(parts.sum(axis=1))
    return np.concatenate(curve)


def true_risk(loss: LossSpec, model: TrueModel, theta: float) -> float:
    """True risk at one theta: the one-point view of ``true_risk_curve``."""
    return float(true_risk_curve(loss, model, [theta])[0])


def sup_on_interval(loss: LossSpec, theta: float, lo: float, hi: float) -> float:
    """Supremum of loss(theta, .) over [lo, hi]: the max over ``sup_points``, exact."""
    return float(np.max(loss(theta, sup_points(lo, hi, loss.y_breaks))))


def upper_risk_general(loss: LossSpec, focal: FocalSystem, theta: float) -> float:
    """Average of per-focal-set loss suprema (works for any representation)."""
    loss.check_theta(theta)
    total = 0.0
    for pieces in focal.sets:  # an empty focal set contributes 0
        total += max((sup_on_interval(loss, theta, lo, hi) for lo, hi in pieces), default=0.0)
    return total / focal.n_plus_1


def _closed_form_core(loss: LossSpec, rows: np.ndarray, a: float, b: float, thetas):
    """n R_n and M of the closed form, (r, k), for (r, n) sorted sample rows.

    thetas is (k,), shared by every row, or (r, k).  Squared and absolute loss
    use per-row sums; other losses tabulate loss(theta, y).
    """
    loss.check_convex()  # every closed-form path passes here
    thetas = np.asarray(thetas, dtype=float)
    la = np.asarray(loss(thetas, a), dtype=float)
    lb = np.asarray(loss(thetas, b), dtype=float)
    r, n = rows.shape
    if loss.kind is LossKind.TABULATED:
        table = np.asarray(loss(thetas[..., None], rows[:, None, :]), dtype=float)
        n_rn, near = n * table.mean(axis=-1), table.min(axis=-1)
    else:
        t = np.broadcast_to(thetas, (r, thetas.shape[-1]))
        c = np.array([np.searchsorted(row, ti) for row, ti in zip(rows, t)], dtype=np.intp)
        i = np.arange(r)[:, None]
        mid = 0.5 * a + 0.5 * b  # sums about the support's centre (a + b may overflow)
        z, t = rows - mid, t - mid
        if loss.kind is LossKind.SQUARED_ERROR:  # SS + n (mean - theta)^2
            mean = z.sum(axis=1, keepdims=True) / n
            n_rn = ((z - mean) ** 2).sum(axis=1, keepdims=True) + n * (mean - t) ** 2
        else:  # the data above theta less theta, plus theta less the data below
            sums = np.zeros((r, n + 1))
            np.cumsum(z, axis=1, out=sums[:, 1:])
            below = sums[i, c]
            n_rn = (sums[:, -1:] - below - (n - c) * t) + (c * t - below)
        # loss(theta, .) is least at y = theta (``LossSpec``): over the data, at a neighbour
        below_y, above_y = rows[i, np.maximum(c - 1, 0)], rows[i, np.minimum(c, n - 1)]
        near = np.minimum(loss(thetas, below_y), loss(thetas, above_y))
    return n_rn, la + lb - np.minimum(np.minimum(la, lb), near)


def upper_risk_batch(loss: LossSpec, rows: np.ndarray, a: float, b: float, thetas):
    """Closed-form upper risk [n R_n + M] / (n + 1), (r, k), shaped as in the core."""
    n_rn, m_theta = _closed_form_core(loss, rows, a, b, thetas)
    return (n_rn + m_theta) / (rows.shape[1] + 1)


def upper_risk_closed_form(
    loss: LossSpec, sample: BoundedSample, theta: float
) -> UpperRiskDecomposition:
    """Closed form for convex losses under the identity score, as n R_n/(n+1) + M/(n+1)."""
    loss.check_theta(theta)
    core = _closed_form_core(loss, sample.values[None], sample.support_lo, sample.support_hi,
                             [theta])
    return UpperRiskDecomposition(theta, *(float(v[0, 0] / (sample.n + 1)) for v in core))


def closed_form_curve(loss: LossSpec, sample: BoundedSample, thetas: np.ndarray) -> np.ndarray:
    """Vectorized closed-form upper risk over an array of theta values."""
    return upper_risk_batch(loss, sample.values[None], sample.support_lo, sample.support_hi,
                            thetas)[0]


def risk_curve(
    loss: LossSpec,
    grid: ThetaGrid,
    kind: RiskKind,
    sample: BoundedSample | None = None,
    model: TrueModel | None = None,
    focal: FocalSystem | None = None,
) -> RiskCurve:
    """Evaluate one of the risk functionals across the parameter grid."""
    loss.check_theta(grid.points)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite curve is refused below
        if kind is RiskKind.EMPIRICAL:
            if sample is None:
                raise ValueError("empirical risk needs a sample")
            t, step = grid.points[:, None], max(1, _CURVE_CELLS // sample.n)  # rows reduce alone
            vals = np.concatenate([np.asarray(loss(t[i:i + step], sample.values), dtype=float)
                                   .mean(axis=1) for i in range(0, len(t), step)])
        elif kind is RiskKind.TRUE:
            if model is None:
                raise ValueError("true risk needs a model")
            vals = true_risk_curve(loss, model, grid.points)
        elif focal is not None:
            vals = np.array([upper_risk_general(loss, focal, t) for t in grid.points])
        elif sample is not None:
            vals = closed_form_curve(loss, sample, grid.points)
        else:
            raise ValueError("upper risk needs a focal system or a sample")
    if not np.isfinite(vals).all():  # the loss overflows somewhere on the grid
        raise NonFiniteValue(f"{kind.value} risk is not finite on [{grid.lo}, {grid.hi}]")
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


def refine_grid_min(f: Callable[[np.ndarray], np.ndarray], grid: np.ndarray,
                    values: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Argmin and minimum of each row of values (f on grid; f maps one point per row).

    Golden section over the cells next to the grid argmin (ties to the lowest
    index) replaces it only by a strictly lower value; f must be unimodal there.
    """
    idx = np.argmin(values, axis=1)
    x0, best = grid[idx], values[np.arange(len(idx)), idx]
    lo, hi = grid[np.maximum(idx - 1, 0)], grid[np.minimum(idx + 1, len(grid) - 1)]
    x, val = golden_section_min(f, lo, hi, tol)
    better = (lo < hi) & (val < best)
    return np.where(better, x, x0), np.where(better, val, best)


def _exact_candidates(kind: LossKind, rows: np.ndarray, a: float, b: float, lo: float,
                      hi: float) -> np.ndarray:
    """Ascending thetas per row among which the closed form attains its min on [lo, hi].

    With Z = {a, data, b}, (n+1) U(theta) is the sum of loss(theta, z) over Z
    less its min: on the cell of the z_j nearest theta, the sum over the other
    points, and U is convex (a max of convex functions).  Squared loss: each
    cell's quadratic has its vertex at (sum Z - z_j)/(n+1), clipped to the cell.
    Absolute loss: U is piecewise linear with kinks at Z and at the cell ends.
    Clipped to [lo, hi], these hold U's min there (U falls towards [a, b]).
    """
    col = np.ones((len(rows), 1))
    z = np.hstack([a * col, rows, b * col])
    ends = 0.5 * (z[:, :-1] + z[:, 1:])  # the cells' common ends
    if kind is LossKind.SQUARED_ERROR:
        vertex = (z.sum(axis=1, keepdims=True) - z) / (z.shape[1] - 1)
        cand = np.clip(vertex, np.hstack([-np.inf * col, ends]), np.hstack([ends, np.inf * col]))
    else:
        cand = np.empty((len(rows), 2 * z.shape[1] - 1))
        cand[:, ::2], cand[:, 1::2] = z, ends
    return np.clip(cand, lo, hi)


def minimize_rows(loss: LossSpec, rows: np.ndarray, a: float, b: float, grid: ThetaGrid,
                  curves: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Argmin and minimum over [grid.lo, grid.hi] of each sample row's upper risk.

    Squared and absolute loss: exact, the best of the closed form at
    ``_exact_candidates`` (ties to the lowest theta).  Tabulated losses:
    ``refine_grid_min`` from the grid curves (computed when not given), which
    needs the curve unimodal in theta, else it may stop in a local minimum,
    still at most the grid minimum.
    """
    if loss.kind is LossKind.TABULATED:
        curves = upper_risk_batch(loss, rows, a, b, grid.points) if curves is None else curves
        return refine_grid_min(lambda t: upper_risk_batch(loss, rows, a, b, t[:, None])[:, 0],
                               grid.points, curves, _GOLDEN_TOL)
    thetas = _exact_candidates(loss.kind, rows, a, b, grid.lo, grid.hi)
    values = upper_risk_batch(loss, rows, a, b, thetas)
    best = np.arange(len(rows)), np.argmin(values, axis=1)
    return thetas[best], values[best]


def minimize_upper_risk(loss: LossSpec, sample: BoundedSample,
                        grid: ThetaGrid) -> tuple[float, float]:
    """Argmin and minimum of the upper risk on [grid.lo, grid.hi], as in ``minimize_rows``."""
    theta, val = minimize_rows(loss, sample.values[None], sample.support_lo, sample.support_hi,
                               grid)
    return float(theta[0]), float(val[0])
