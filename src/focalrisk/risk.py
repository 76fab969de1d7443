"""The three risk functionals and upper-risk minimization.

Empirical risk is the sample mean of the loss, n R_n / n with n R_n below; true
risk integrates the loss against the data-generating density; the upper risk
averages per-set loss suprema over the focal system, for any system in one
batched pass (``focal_upper_risk_curve``).  The losses, squared and absolute
error, are convex with their min at y = theta, so for identity-score focal sets
the upper risk has the closed form

    [n * R_n(theta) + M(theta)] / (n + 1),
    M(theta) = loss(theta, a) + loss(theta, b) - min over {a, data, b}.

Both terms come from per-row summaries of the sorted sample y_1 <= ... <= y_n,
with c = #{y_i < theta} (``searchsorted``):

    squared:  n R_n = SS + n (mean - theta)^2, SS the centred sum of squares;
    absolute: n R_n = (S - P_c - (n - c) theta) + (c theta - P_c), P_c the sum
              of the c smallest, S of all;
    M: the min over the data is the loss at y_c or y_{c+1}, the neighbours
       of theta.

Squared and absolute loss shift data and theta first: squared by the support's
centre clipped to each row's range, absolute by each row's median, which bounds
each sum by 2 n R_n.  So the rounding scales with the data's spread and theta's
distance from them, not with the support's width, and a row's result does not
depend on the other rows it is batched with.  A curve of k
thetas costs O(n + k log n) per row.  ``argmin_rows`` gives the exact argmin of the
upper risk, the MFGF decision rule, from a rule on the sorted row, with no closed form
evaluated.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .conformal import FocalSystem
from .data_model import BoundedSample, LossKind, LossSpec, ThetaGrid, normal_mass
from .errors import NonFiniteValue
from .quadrature import integrate

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_NORMAL_EDGE = 38.6  # exp(-y^2 / 2) underflows to 0 in float64 just beyond it
_CHUNK_PANELS = 1 << 13  # panels per true-risk pass: 2^17 nodes, 1 MiB of float64
_BLOCK_CELLS = 1 << 18  # loss values per pass of the focal upper risk
# float64 cells a chunk budgets per counted cell of a row: at 6 a chunk's draw, closed form
# and minimizer peak at 0.54-0.84 of the budget (tracemalloc, both losses); at 5, 0.9999
_LIVE = 6


def format_csv(header: str, rows: Iterable[Iterable]) -> str:
    """CSV text, typed by the first row: numbers as %.17g (round-trip exact), strings as is."""
    rows = [tuple(row) for row in rows]
    line = ",".join(["%s" if isinstance(v, str) else "%.17g" for v in rows[0]]) if rows else ""
    return "\n".join([header] + [line % row for row in rows]) + "\n"


def empirical_risk_curve(loss: LossSpec, sample: BoundedSample, thetas) -> np.ndarray:
    """Empirical risk n R_n / n at every theta, from the row's sums (no loss evaluated)."""
    thetas = np.asarray(thetas, dtype=float)
    loss.check_theta(thetas)
    return _n_rn(loss, sample.values[None], sample.support_lo, sample.support_hi,
                 thetas)[0] / sample.n


def true_risk_curve(loss: LossSpec, support: tuple[float, float], thetas) -> np.ndarray:
    """True risk E loss(theta, Y) at every theta, by one quadrature pass, for Y the standard
    normal truncated to the support: the distribution every sampler draws, so this is
    always the true risk of the sampled distribution.

    Panels at most 1 wide span the support where the density is nonzero in float64, split
    at theta (the kink of the absolute loss), so the integrand is smooth on each.  A pass
    takes as many thetas as fit in _CHUNK_PANELS panels.
    """
    (lo, hi), mass = support, normal_mass(*support)
    thetas = np.asarray(thetas, dtype=float)
    loss.check_theta(thetas)
    e0, e1 = max(lo, -_NORMAL_EDGE), min(hi, _NORMAL_EDGE)
    edges = np.linspace(e0, e1, math.ceil(e1 - e0) + 1)

    def density(y):  # every node lies in the support
        return np.exp(-0.5 * y**2) / _SQRT_2PI / mass

    step, curve = max(1, _CHUNK_PANELS // len(edges)), []
    for t in (thetas[i:i + step, None] for i in range(0, len(thetas), step)):
        ends = np.sort(np.hstack([np.tile(edges, (len(t), 1)), t.clip(edges[0], edges[-1])]))
        parts = integrate(lambda y: loss(t[..., None], y) * density(y),
                          ends[:, :-1], ends[:, 1:])
        curve.append(parts.sum(axis=1))
    return np.concatenate(curve)


def true_risk(loss: LossSpec, support: tuple[float, float], theta: float) -> float:
    """True risk at one theta: the one-point view of ``true_risk_curve``."""
    return float(true_risk_curve(loss, support, [theta])[0])


def focal_upper_risk_curve(loss: LossSpec, focal: FocalSystem, thetas) -> np.ndarray:
    """Choquet upper risk (1/(n+1)) sum_v sup_{F_v} loss(theta, .) of any focal system, at
    every theta: a piece's sup is the max of the loss at its two ends, a set's the max over
    its pieces (an empty set adds 0); a pass takes at most _BLOCK_CELLS loss values."""
    thetas = np.asarray(thetas, dtype=float)
    loss.check_theta(thetas)
    ys = np.stack([focal.lo, focal.hi], axis=1)[..., None]
    step, curve = max(1, _BLOCK_CELLS // max(ys.size, 1)), []
    for t in (thetas[i:i + step] for i in range(0, len(thetas), step)):
        sups = np.zeros((len(t), focal.n_plus_1))  # a row per theta: one sum, whatever t is
        np.maximum.at(sups, (slice(None), focal.index - 1), np.max(loss(t, ys), axis=1).T)
        curve.append(sups.sum(axis=1))
    return np.concatenate(curve) / focal.n_plus_1


def upper_risk_general(loss: LossSpec, focal: FocalSystem, theta: float) -> float:
    """Upper risk at one theta: the one-point view of ``focal_upper_risk_curve``."""
    return float(focal_upper_risk_curve(loss, focal, [theta])[0])


def _below(rows: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """c = #{y < theta} per row, (r, k), for thetas (k,) shared by every row or (r, k)."""
    t = np.broadcast_to(thetas, (len(rows), thetas.shape[-1]))
    return np.array([row.searchsorted(ti) for row, ti in zip(rows, t)], dtype=np.intp)


def _n_rn(loss: LossSpec, rows: np.ndarray, a: float, b: float, thetas,
          c: np.ndarray | None = None) -> np.ndarray:
    """n R_n, (r, k), for (r, n) sorted sample rows and thetas (k,) shared by every row or
    (r, k); c, absolute loss's ``_below`` counts, is counted here unless given."""
    thetas = np.asarray(thetas, dtype=float)
    n = rows.shape[1]
    centre = rows[:, n // 2:n // 2 + 1]  # absolute: each row's median
    if loss.kind is LossKind.SQUARED_ERROR:  # (a + b)/2 in the row's range; a + b may overflow
        centre = np.clip(0.5 * a + 0.5 * b, rows[:, :1], rows[:, -1:])
    z, t = rows - centre, thetas - centre
    if loss.kind is LossKind.SQUARED_ERROR:  # SS + n (mean - theta)^2
        mean = z.sum(axis=1, keepdims=True) / n
        return ((z - mean) ** 2).sum(axis=1, keepdims=True) + n * (mean - t) ** 2
    c = _below(rows, thetas) if c is None else c
    i = np.arange(len(rows))[:, None]
    sums = np.zeros((len(rows), n + 1))
    np.cumsum(z, axis=1, out=sums[:, 1:])
    below = sums[i, c]  # the data above theta less theta, plus theta less the data below
    return (sums[:, -1:] - below - (n - c) * t) + (c * t - below)


def upper_risk_batch(loss: LossSpec, rows: np.ndarray, a: float, b: float, thetas):
    """Closed-form upper risk [n R_n + M] / (n + 1), (r, k), for (r, n) sorted sample rows
    and thetas (k,) shared by every row or (r, k), counting each row's data below theta once."""
    thetas = np.asarray(thetas, dtype=float)
    la, lb = loss(thetas, a), loss(thetas, b)
    # loss(theta, .) is least at y = theta (``LossSpec``): over the data, at a neighbour
    c, i = _below(rows, thetas), np.arange(len(rows))[:, None]
    below_y, above_y = rows[i, np.maximum(c - 1, 0)], rows[i, np.minimum(c, rows.shape[1] - 1)]
    near = np.minimum(loss(thetas, below_y), loss(thetas, above_y))
    m_theta = la + lb - np.minimum(np.minimum(la, lb), near)
    return (_n_rn(loss, rows, a, b, thetas, c) + m_theta) / (rows.shape[1] + 1)


def batch_cells(n: int, k: int) -> int:
    """Float64 cells budgeted per sorted row of n values in ``upper_risk_batch`` at k thetas:
    _LIVE (n + 2k), the row and two values per theta (the loss at a and b).  It bounds
    ``argmin_rows`` too, which builds O(n) cells per row and evaluates nothing."""
    return _LIVE * (n + 2 * k)


def upper_risk_closed_form(loss: LossSpec, sample: BoundedSample, theta: float) -> float:
    """Closed form under the identity score at one theta."""
    loss.check_theta(theta)
    return float(upper_risk_batch(loss, sample.values[None], sample.support_lo,
                                  sample.support_hi, [theta])[0, 0])


def closed_form_curve(loss: LossSpec, sample: BoundedSample, thetas: np.ndarray) -> np.ndarray:
    """Vectorized closed-form upper risk over an array of theta values."""
    return upper_risk_batch(loss, sample.values[None], sample.support_lo, sample.support_hi,
                            thetas)[0]


def risk_curve(loss: LossSpec, grid: ThetaGrid, sample: BoundedSample,
               support: tuple[float, float] | None = None) -> list[np.ndarray]:
    """The ``risk-curve`` columns on the grid: the sample's empirical and closed-form upper
    risk, then the true risk on the support if given; each refused unless finite, in order."""
    loss.check_theta(grid.points)
    columns = [("empirical", empirical_risk_curve, sample), ("upper", closed_form_curve, sample)]
    if support is not None:
        columns.append(("true", true_risk_curve, support))
    curves = []
    for name, curve, data in columns:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite curve is refused below
            vals = curve(loss, data, grid.points)
        if not np.isfinite(vals).all():  # the loss overflows somewhere on the grid
            raise NonFiniteValue(f"{name} risk is not finite on [{grid.lo}, {grid.hi}]")
        curves.append(vals)
    return curves


def argmin_rows(loss: LossSpec, rows: np.ndarray, a: float, b: float,
                grid: ThetaGrid) -> np.ndarray:
    """Each sorted sample row's exact argmin of the upper risk on [grid.lo, grid.hi], (r,),
    ties to the lowest theta.

    With Z = {a, data, b}, (n+1) U(theta) is the sum of loss(theta, z) over Z
    less its min.  On the cell of the z_j nearest theta, between the midpoints
    e_{j-1} <= e_j of z_j and its neighbours, that is the sum over the other
    points, so U is convex and its argmin is one theta per row, clipped to
    [lo, hi], with no closed form evaluated.  Squared: cell j's vertex
    v_j = (sum Z - z_j)/(n+1) falls with j while its ends rise, so the first cell
    with v_j <= e_j holds the min, at v_j clipped to the cell.  Absolute: U bends
    only at the midpoints (the kinks at Z cancel) and has slope 2j - n - 1 on cell
    j, so it is least at e_{n//2}, the lowest end of the flat minimum when n is
    odd.
    """
    loss.check_theta([grid.lo, grid.hi])
    col = np.ones((len(rows), 1))
    z = np.hstack([a * col, rows, b * col])
    ends = 0.5 * (z[:, :-1] + z[:, 1:])  # the cells' common ends
    if loss.kind is LossKind.ABSOLUTE_ERROR:
        return np.clip(ends[:, rows.shape[1] // 2], grid.lo, grid.hi)
    vertex = (z.sum(axis=1, keepdims=True) - z) / (z.shape[1] - 1)
    j = np.count_nonzero(vertex[:, :-1] > ends, axis=1)  # the first v_j <= e_j
    i, edges = np.arange(len(rows)), np.hstack([-np.inf * col, ends, np.inf * col])
    return np.clip(np.clip(vertex[i, j], edges[i, j], edges[i, j + 1]), grid.lo, grid.hi)


def minimize_upper_risk(loss: LossSpec, sample: BoundedSample,
                        grid: ThetaGrid) -> tuple[float, float]:
    """``argmin_rows`` of one sample, and the closed form there."""
    rows, a, b = sample.values[None], sample.support_lo, sample.support_hi
    theta = argmin_rows(loss, rows, a, b, grid)
    return float(theta[0]), float(upper_risk_batch(loss, rows, a, b, theta[:, None])[0, 0])
