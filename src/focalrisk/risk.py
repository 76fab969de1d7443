"""The three risk functionals and upper-risk minimization.

Empirical risk is the sample mean of the loss; true risk integrates the
loss against the data-generating density; the upper risk averages per-set
loss suprema over the focal system.  For convex losses and identity-score
focal sets the upper risk has the closed form

    [n * R_n(theta) + M(theta)] / (n + 1),
    M(theta) = loss(theta, a) + loss(theta, b) - min over {a, data, b}.

Both terms come from per-row summaries of the sorted sample y_1 <= ... <= y_n,
with c = #{y_i < theta} (``searchsorted``):

    squared:  n R_n = SS + n (mean - theta)^2, SS the centred sum of squares;
    absolute: n R_n = (S - P_c - (n - c) theta) + (c theta - P_c), P_c the sum
              of the c smallest, S of all;
    tabulated: n R_n = sum_j c_j loss(theta, p_j) + W_j (loss(theta, p_{j+1}) -
              loss(theta, p_j)) over the cells between the y sup points p, where
              the loss is linear in y: c_j the cell's count, W_j its sum of
              (y - p_j) / (p_{j+1} - p_j);
    M: the min over the data is the loss at y_c or y_{c+1}, the neighbours
       of theta (tabulated: at a cell's first or last point).

Squared and absolute loss shift data and theta by the support's centre
(a + b)/2 first, so the rounding scales with b - a, not with the distance of
the data from 0.  A curve of k thetas costs O(n + k log n) per row (tabulated:
O(n + k K), K cells), and ``minimize_rows`` takes the exact argmin of the upper risk.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .conformal import FocalSystem
from .data_model import (BoundedSample, LossKind, LossSpec, ModelKind, ThetaGrid, TrueModel,
                         sup_points)
from .errors import NonFiniteValue
from .quadrature import integrate

_CHUNK_PANELS = 1 << 13  # panels per true-risk pass: 2^17 nodes, 1 MiB of float64
_CURVE_CELLS = 1 << 15  # loss values per block of the empirical curve: 256 KiB of float64
_BLOCK_CELLS = 1 << 18  # candidate cells per row block of a tabulated-loss minimizer: 2 MiB


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


def _cells(rows: np.ndarray, p: np.ndarray):
    """Per row and cell [p_j, p_{j+1}]: count, sum of (y - p_j) / (p_{j+1} - p_j), and
    the first and last data points of every cell, (r, 2K), any data point if empty."""
    r, n = rows.shape
    k = len(p) - 1
    cell = np.clip(np.searchsorted(p, rows, side="right") - 1, 0, k - 1)
    flat = (cell + k * np.arange(r)[:, None]).ravel()
    w = (rows - p[cell]) / (p[cell + 1] - p[cell])
    counts = np.bincount(flat, minlength=r * k).reshape(r, k)
    w_sums = np.bincount(flat, w.ravel(), minlength=r * k).reshape(r, k)
    last = np.cumsum(counts, axis=1) - 1
    ends = np.clip(np.hstack([last - counts + 1, last]), 0, n - 1)
    return counts, w_sums, rows[np.arange(r)[:, None], ends]


def _closed_form_core(loss: LossSpec, rows: np.ndarray, a: float, b: float, thetas):
    """n R_n and M of the closed form, (r, k), for (r, n) sorted sample rows.

    thetas is (k,), shared by every row, or (r, k).  Every loss uses per-row sums.
    """
    loss.check_convex()  # every closed-form path passes here
    thetas = np.asarray(thetas, dtype=float)
    la = np.asarray(loss(thetas, a), dtype=float)
    lb = np.asarray(loss(thetas, b), dtype=float)
    r, n = rows.shape
    if loss.kind is LossKind.TABULATED:  # linear in y on each cell between the sup points
        p = sup_points(a, b, loss.y_breaks)
        counts, w_sums, ends = _cells(rows, p)
        lp = np.asarray(loss(thetas[..., None], p), dtype=float)
        n_rn = (counts[:, None] * lp[..., :-1] + w_sums[:, None] * np.diff(lp)).sum(axis=-1)
        near = np.asarray(loss(thetas[..., None], ends[:, None]), dtype=float).min(axis=-1)
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


def _candidates(loss: LossSpec, rows: np.ndarray, a: float, b: float, lo: float,
                hi: float) -> np.ndarray:
    """Ascending thetas per row among which the closed form attains its min on [lo, hi].

    With Z = {a, data, b}, (n+1) U(theta) is the sum of loss(theta, z) over Z
    less its min.  Squared and absolute loss: on the cell of the z_j nearest
    theta, the sum over the other points, and U is convex; squared: each cell's
    vertex (sum Z - z_j)/(n+1), clipped to the cell; absolute: Z and the cell
    ends.  Clipped to [lo, hi], these hold U's min (U falls towards [a, b]).
    Tabulated: between the theta sup points q, a line less the min of the lines
    loss(., z), z in a, b and the y-cells' first and last data points, so U is
    least at q or where two of those lines cross inside a cell.
    """
    col = np.ones((len(rows), 1))
    if loss.kind is LossKind.TABULATED:
        q = sup_points(lo, hi, loss.theta_breaks)
        z = np.hstack([a * col, b * col, _cells(rows, sup_points(a, b, loss.y_breaks))[2]])
        i, j = np.triu_indices(z.shape[1], 1)
        v = np.asarray(loss(q[:, None], z[:, None, :]), dtype=float)  # (r, q, z)
        d = v[..., i] - v[..., j]  # the gap of every pair of lines at every q
        d0, d1 = d[:, :-1], d[:, 1:]
        s = np.divide(d0, d0 - d1, out=np.zeros_like(d0), where=np.sign(d0) != np.sign(d1))
        cross = (q[:-1, None] + s * np.diff(q)[:, None]).reshape(len(rows), -1)
        return np.sort(np.clip(np.hstack([q * col, cross]), lo, hi), axis=1)
    z = np.hstack([a * col, rows, b * col])
    ends = 0.5 * (z[:, :-1] + z[:, 1:])  # the cells' common ends
    if loss.kind is LossKind.SQUARED_ERROR:
        vertex = (z.sum(axis=1, keepdims=True) - z) / (z.shape[1] - 1)
        cand = np.clip(vertex, np.hstack([-np.inf * col, ends]), np.hstack([ends, np.inf * col]))
    else:
        cand = np.empty((len(rows), 2 * z.shape[1] - 1))
        cand[:, ::2], cand[:, 1::2] = z, ends
    return np.clip(cand, lo, hi)


def minimize_rows(loss: LossSpec, rows: np.ndarray, a: float, b: float,
                  grid: ThetaGrid) -> tuple[np.ndarray, np.ndarray]:
    """Argmin and minimum over [grid.lo, grid.hi] of each sample row's upper risk.

    Exact: the best of the closed form at ``_candidates``, ties to the lowest
    theta.  Tabulated losses run in row blocks of at most _BLOCK_CELLS cells.
    """
    loss.check_theta([grid.lo, grid.hi])
    step = max(1, len(rows))  # squared and absolute loss: one block, O(n) cells per row
    if loss.kind is LossKind.TABULATED:  # per row: (t + 1 + t pairs) candidates times m lines
        t = len(sup_points(grid.lo, grid.hi, loss.theta_breaks)) - 1
        m = 2 * len(sup_points(a, b, loss.y_breaks))
        step = max(1, _BLOCK_CELLS // (m * (t + 1 + t * m * (m - 1) // 2)))
    thetas, values = [], []
    for part in (rows[i:i + step] for i in range(0, len(rows), step)):
        cand = _candidates(loss, part, a, b, grid.lo, grid.hi)
        vals = upper_risk_batch(loss, part, a, b, cand)
        best = np.arange(len(part)), np.argmin(vals, axis=1)
        thetas.append(cand[best])
        values.append(vals[best])
    return np.concatenate(thetas), np.concatenate(values)


def minimize_upper_risk(loss: LossSpec, sample: BoundedSample,
                        grid: ThetaGrid) -> tuple[float, float]:
    """Argmin and minimum of the upper risk on [grid.lo, grid.hi], as in ``minimize_rows``."""
    theta, val = minimize_rows(loss, sample.values[None], sample.support_lo, sample.support_hi,
                               grid)
    return float(theta[0]), float(val[0])
