"""The three risk functionals and upper-risk minimization.

Empirical risk is the sample mean of the loss, n R_n / n with n R_n below (exact
for every loss); true risk integrates the loss against the data-generating density;
the upper risk averages per-set loss suprema over the focal system, for any
system in one batched pass (``focal_upper_risk_curve``).  For convex losses and
identity-score focal sets the upper risk has the closed form

    [n * R_n(theta) + M(theta)] / (n + 1),
    M(theta) = loss(theta, a) + loss(theta, b) - min over {a, data, b}.

Both terms come from per-row summaries of the sorted sample y_1 <= ... <= y_n,
with c = #{y_i < theta} (``searchsorted``):

    squared:  n R_n = SS + n (mean - theta)^2, SS the centred sum of squares;
    absolute: n R_n = (S - P_c - (n - c) theta) + (c theta - P_c), P_c the sum
              of the c smallest, S of all;
    tabulated: n R_n = sum_j c_j min(l_j, l_{j+1}) + V_j |l_{j+1} - l_j| over the
              cells between the y sup points p, where l = loss(theta, .) is linear:
              c_j the cell's count, V_j its sum of the data's distances from the
              end of lesser loss, in cell widths (no term cancels);
    M: the min over the data is the loss at y_c or y_{c+1}, the neighbours
       of theta (tabulated: at a cell's first or last point).

Squared and absolute loss shift data and theta first: squared by the support's
centre clipped to each row's range, absolute by each row's median, which bounds
each sum by 2 n R_n.  So the rounding scales with the data's spread and theta's
distance from them, not with the support's width, and a row's result does not
depend on the other rows it is batched with.  A curve of k
thetas costs O(n + k log n) per row (tabulated: O(n + k K), K cells).  ``argmin_rows``
gives the exact argmin of the upper risk, the MFGF decision rule: squared and absolute
loss from a rule on the sorted row, with no closed form evaluated; a table as the best
of the closed form at its candidates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .conformal import FocalSystem
from .data_model import BoundedSample, LossKind, LossSpec, ThetaGrid, TrueModel, sup_points
from .errors import NonFiniteValue
from .quadrature import integrate

_CHUNK_PANELS = 1 << 13  # panels per true-risk pass: 2^17 nodes, 1 MiB of float64
_BLOCK_CELLS = 1 << 18  # a table's loss cells per pass, minimizer candidates per row block
_LIVE = 16  # arrays of a row's counted cells live at once in the closed form (tracemalloc)


class RiskKind(enum.Enum):
    EMPIRICAL = "empirical"
    TRUE = "true"
    UPPER = "upper"


@dataclass(frozen=True)
class RiskCurve:
    grid: ThetaGrid
    values: np.ndarray
    kind: RiskKind


def format_csv(header: str, rows: Iterable[Iterable]) -> str:
    """CSV text, typed by the first row: numbers as %.17g (round-trip exact), strings as is."""
    rows = [tuple(row) for row in rows]
    line = ",".join(["%s" if isinstance(v, str) else "%.17g" for v in rows[0]]) if rows else ""
    return "\n".join([header] + [line % row for row in rows]) + "\n"


def empirical_risk_curve(loss: LossSpec, sample: BoundedSample, thetas) -> np.ndarray:
    """Empirical risk n R_n / n at every theta.  A pass takes as many thetas as fit in
    _BLOCK_CELLS loss cells (a table: one per theta and y sup point)."""
    thetas = np.asarray(thetas, dtype=float)
    loss.check_theta(thetas)
    a, b = sample.support_lo, sample.support_hi
    step = _BLOCK_CELLS // len(sup_points(a, b, loss.y_breaks))
    return np.concatenate([_n_rn(loss, sample.values[None], a, b, thetas[i:i + step])[0]
                           for i in range(0, len(thetas), step)]) / sample.n


def true_risk_curve(loss: LossSpec, model: TrueModel, thetas) -> np.ndarray:
    """True risk E loss(theta, Y) at every theta, by one quadrature pass, for Y drawn from
    the model: the truncated standard normal every sampler draws, so this is always the
    true risk of the sampled distribution.

    Panels run between the model's breaks, the loss's y-breaks and theta (the
    kink of the absolute loss), so the integrand is smooth or polynomial on
    each.  A pass takes as many thetas as fit in _CHUNK_PANELS panels.
    """
    thetas = np.asarray(thetas, dtype=float)
    loss.check_theta(thetas)
    lo, hi = model.breaks[0], model.breaks[-1]
    edges = np.sort(np.append(model.breaks, [y for y in loss.y_breaks if lo < y < hi]))
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


def focal_upper_risk_curve(loss: LossSpec, focal: FocalSystem, thetas) -> np.ndarray:
    """Choquet upper risk (1/(n+1)) sum_v sup_{F_v} loss(theta, .) of any focal system, at
    every theta: the loss at each piece's ends and the y-breaks clipped into it (``sup_points``),
    the max per set (an empty set adds 0); a pass takes at most _BLOCK_CELLS loss values."""
    thetas = np.asarray(thetas, dtype=float)
    loss.check_theta(thetas)
    lo, hi = focal.lo[:, None], focal.hi[:, None]
    ys = np.hstack([lo, np.clip(np.asarray(loss.y_breaks, dtype=float), lo, hi), hi])[..., None]
    step, curve = max(1, _BLOCK_CELLS // max(ys.size, 1)), []
    for t in (thetas[i:i + step] for i in range(0, len(thetas), step)):
        sups = np.zeros((len(t), focal.n_plus_1))  # a row per theta: one sum, whatever t is
        np.maximum.at(sups, (slice(None), focal.index - 1), np.max(loss(t, ys), axis=1).T)
        curve.append(sups.sum(axis=1))
    return np.concatenate(curve) / focal.n_plus_1


def upper_risk_general(loss: LossSpec, focal: FocalSystem, theta: float) -> float:
    """Upper risk at one theta: the one-point view of ``focal_upper_risk_curve``."""
    return float(focal_upper_risk_curve(loss, focal, [theta])[0])


def _cells(rows: np.ndarray, p: np.ndarray):
    """Per row and cell [p_j, p_{j+1}]: count, sums of (p_{j+1} - y) / h and (y - p_j) / h (h
    the width), and the first and last data points of every cell, (r, 2K), any if empty."""
    r, n = rows.shape
    k = len(p) - 1
    cell = np.clip(np.searchsorted(p, rows, side="right") - 1, 0, k - 1)
    flat = (cell + k * np.arange(r)[:, None]).ravel()
    h = p[cell + 1] - p[cell]
    counts, v_sums, w_sums = (np.bincount(flat, x, minlength=r * k).reshape(r, k) for x in
                              (None, ((p[cell + 1] - rows) / h).ravel(),
                               ((rows - p[cell]) / h).ravel()))
    last = np.cumsum(counts, axis=1) - 1
    ends = np.clip(np.hstack([last - counts + 1, last]), 0, n - 1)
    return counts, v_sums, w_sums, rows[np.arange(r)[:, None], ends]


def _below(rows: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """c = #{y < theta} per row, (r, k), for thetas (k,) shared by every row or (r, k)."""
    t = np.broadcast_to(thetas, (len(rows), thetas.shape[-1]))
    return np.array([row.searchsorted(ti) for row, ti in zip(rows, t)], dtype=np.intp)


def _n_rn(loss: LossSpec, rows: np.ndarray, a: float, b: float, thetas) -> np.ndarray:
    """n R_n, (r, k), for (r, n) sorted sample rows, thetas as in the core: exact for any loss."""
    thetas = np.asarray(thetas, dtype=float)
    n = rows.shape[1]
    if loss.kind is LossKind.TABULATED:  # linear in y on each cell between the sup points
        p = sup_points(a, b, loss.y_breaks)
        counts, v_sums, w_sums = _cells(rows, p)[:3]
        lp = np.asarray(loss(thetas[..., None], p), dtype=float)
        l0, l1 = lp[..., :-1], lp[..., 1:]  # from the cell's lower loss end: no term cancels
        rise = np.where(l1 >= l0, w_sums[:, None], v_sums[:, None]) * np.abs(l1 - l0)
        return (counts[:, None] * np.minimum(l0, l1) + rise).sum(axis=-1)
    centre = rows[:, n // 2:n // 2 + 1]  # absolute: each row's median
    if loss.kind is LossKind.SQUARED_ERROR:  # (a + b)/2 in the row's range; a + b may overflow
        centre = np.clip(0.5 * a + 0.5 * b, rows[:, :1], rows[:, -1:])
    z, t = rows - centre, thetas - centre
    if loss.kind is LossKind.SQUARED_ERROR:  # SS + n (mean - theta)^2
        mean = z.sum(axis=1, keepdims=True) / n
        return ((z - mean) ** 2).sum(axis=1, keepdims=True) + n * (mean - t) ** 2
    c, i = _below(rows, thetas), np.arange(len(rows))[:, None]
    sums = np.zeros((len(rows), n + 1))
    np.cumsum(z, axis=1, out=sums[:, 1:])
    below = sums[i, c]  # the data above theta less theta, plus theta less the data below
    return (sums[:, -1:] - below - (n - c) * t) + (c * t - below)


def _closed_form_core(loss: LossSpec, rows: np.ndarray, a: float, b: float, thetas):
    """n R_n and M of the closed form, (r, k), for (r, n) sorted sample rows.

    thetas is (k,), shared by every row, or (r, k).  M holds if the loss is convex.
    """
    thetas = np.asarray(thetas, dtype=float)
    la = np.asarray(loss(thetas, a), dtype=float)
    lb = np.asarray(loss(thetas, b), dtype=float)
    if loss.kind is LossKind.TABULATED:  # least at a cell's first or last data point
        ends = _cells(rows, sup_points(a, b, loss.y_breaks))[3]
        near = np.asarray(loss(thetas[..., None], ends[:, None]), dtype=float).min(axis=-1)
    else:  # loss(theta, .) is least at y = theta (``LossSpec``): over the data, at a neighbour
        c, i = _below(rows, thetas), np.arange(len(rows))[:, None]
        below_y, above_y = rows[i, np.maximum(c - 1, 0)], rows[i, np.minimum(c, rows.shape[1] - 1)]
        near = np.minimum(loss(thetas, below_y), loss(thetas, above_y))
    return _n_rn(loss, rows, a, b, thetas), la + lb - np.minimum(np.minimum(la, lb), near)


def upper_risk_batch(loss: LossSpec, rows: np.ndarray, a: float, b: float, thetas):
    """Closed-form upper risk [n R_n + M] / (n + 1), (r, k), shaped as in the core."""
    loss.check_convex()
    n_rn, m_theta = _closed_form_core(loss, rows, a, b, thetas)
    return (n_rn + m_theta) / (rows.shape[1] + 1)


def batch_cells(loss: LossSpec, n: int, k: int, a: float, b: float) -> int:
    """Float64 cells one sorted row of n values keeps live in ``upper_risk_batch`` at k
    thetas: _LIVE (n + k P), P the y sup points of [a, b] (a table builds (k, 2K) per row, K
    cells between them).  It bounds ``argmin_rows`` too: squared and absolute loss build
    O(n) cells per row and evaluate nothing, and a table's blocks stay within _BLOCK_CELLS."""
    return _LIVE * (n + k * len(sup_points(a, b, loss.y_breaks)))


def upper_risk_closed_form(loss: LossSpec, sample: BoundedSample, theta: float) -> float:
    """Closed form for convex losses under the identity score at one theta."""
    loss.check_convex()
    loss.check_theta(theta)
    return float(upper_risk_batch(loss, sample.values[None], sample.support_lo,
                                  sample.support_hi, [theta])[0, 0])


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
) -> RiskCurve:
    """Evaluate one of the risk functionals across the parameter grid: the true risk of the
    model, or the empirical or closed-form upper risk of the sample."""
    loss.check_theta(grid.points)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite curve is refused below
        if kind is RiskKind.TRUE:
            if model is None:
                raise ValueError("true risk needs a model")
            vals = true_risk_curve(loss, model, grid.points)
        elif sample is None:
            raise ValueError(f"{kind.value} risk needs a sample")
        elif kind is RiskKind.EMPIRICAL:
            vals = empirical_risk_curve(loss, sample, grid.points)
        else:
            vals = closed_form_curve(loss, sample, grid.points)
    if not np.isfinite(vals).all():  # the loss overflows somewhere on the grid
        raise NonFiniteValue(f"{kind.value} risk is not finite on [{grid.lo}, {grid.hi}]")
    return RiskCurve(grid=grid, values=vals, kind=kind)


def argmin_rows(loss: LossSpec, rows: np.ndarray, a: float, b: float,
                grid: ThetaGrid) -> np.ndarray:
    """Each sorted sample row's exact argmin of the upper risk on [grid.lo, grid.hi], (r,),
    ties to the lowest theta.

    With Z = {a, data, b}, (n+1) U(theta) is the sum of loss(theta, z) over Z
    less its min.  Squared and absolute loss: on the cell of the z_j nearest
    theta, between the midpoints e_{j-1} <= e_j of z_j and its neighbours, the sum
    over the other points, so U is convex and its argmin is one theta per row,
    clipped to [lo, hi], with no closed form evaluated.  Squared: cell j's vertex
    v_j = (sum Z - z_j)/(n+1) falls with j while its ends rise, so the first cell
    with v_j <= e_j holds the min, at v_j clipped to the cell.  Absolute: U bends
    only at the midpoints (the kinks at Z cancel) and has slope 2j - n - 1 on cell
    j, so it is least at e_{n//2}, the lowest end of the flat minimum when n is
    odd.  Tabulated: ``_table_argmin``.
    """
    loss.check_theta([grid.lo, grid.hi])
    loss.check_convex()
    if loss.kind is LossKind.TABULATED:
        return _table_argmin(loss, rows, a, b, grid.lo, grid.hi)
    col = np.ones((len(rows), 1))
    z = np.hstack([a * col, rows, b * col])
    ends = 0.5 * (z[:, :-1] + z[:, 1:])  # the cells' common ends
    if loss.kind is LossKind.ABSOLUTE_ERROR:
        return np.clip(ends[:, rows.shape[1] // 2], grid.lo, grid.hi)
    vertex = (z.sum(axis=1, keepdims=True) - z) / (z.shape[1] - 1)
    j = np.count_nonzero(vertex[:, :-1] > ends, axis=1)  # the first v_j <= e_j
    i, edges = np.arange(len(rows)), np.hstack([-np.inf * col, ends, np.inf * col])
    return np.clip(np.clip(vertex[i, j], edges[i, j], edges[i, j + 1]), grid.lo, grid.hi)


def _table_argmin(loss: LossSpec, rows: np.ndarray, a: float, b: float, lo: float,
                  hi: float) -> np.ndarray:
    """A table's argmin per row, (r,): between the theta sup points q, (n+1) U is a line less
    the min of the m lines loss(., z), z in a, b and the y-cells' first and last data points,
    so U is least at q or where two lines cross inside a cell.  The best closed form there,
    ties to the lowest theta, in row blocks of at most _BLOCK_CELLS / _LIVE candidates and
    column slices of at most _BLOCK_CELLS / _LIVE loss cells."""
    q, p = sup_points(lo, hi, loss.theta_breaks), sup_points(a, b, loss.y_breaks)
    t, m = len(q) - 1, 2 * len(p)  # per row: t + 1 + t pairs candidates, m lines each
    step = max(1, _BLOCK_CELLS // (_LIVE * (t + 1 + t * m * (m - 1) // 2)))
    (i, j), best = np.triu_indices(m, 1), []
    for part in (rows[s:s + step] for s in range(0, len(rows), step)):
        col = np.ones((len(part), 1))
        z = np.hstack([a * col, b * col, _cells(part, p)[3]])
        v = np.asarray(loss(q[:, None], z[:, None, :]), dtype=float)  # (r, q, z)
        d = v[..., i] - v[..., j]  # the gap of every pair of lines at every q
        d0, d1 = d[:, :-1], d[:, 1:]
        s = np.divide(d0, d0 - d1, out=np.zeros_like(d0), where=np.sign(d0) != np.sign(d1))
        cross = (q[:-1, None] + s * np.diff(q)[:, None]).reshape(len(part), -1)
        cand = np.sort(np.clip(np.hstack([q * col, cross]), lo, hi), axis=1)
        w = max(1, _BLOCK_CELLS // (_LIVE * len(part) * m))
        vals = np.hstack([upper_risk_batch(loss, part, a, b, cand[:, c:c + w])
                          for c in range(0, cand.shape[1], w)])
        best.append(cand[np.arange(len(part)), np.argmin(vals, axis=1)])
    return np.concatenate(best)


def minimize_upper_risk(loss: LossSpec, sample: BoundedSample,
                        grid: ThetaGrid) -> tuple[float, float]:
    """``argmin_rows`` of one sample, and the closed form there."""
    rows, a, b = sample.values[None], sample.support_lo, sample.support_hi
    theta = argmin_rows(loss, rows, a, b, grid)
    return float(theta[0]), float(upper_risk_batch(loss, rows, a, b, theta[:, None])[0, 0])
