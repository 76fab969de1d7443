"""Scalar references for the package's batched paths.

Golden section is what the package's minimizers once matched bit for bit; the
package dropped it for exact minimizers.  The all-candidates squared- and
absolute-loss minimizers are the exact ones the single-candidate minimizers
replaced.  The focal sum is the per-set, per-piece loop that the batched focal
upper risk replaced; each piece's sup is the max of the loss at its two ends,
since both losses are convex in y.  The tests keep them so that the earlier results stay
reproducible as oracles.  ``argmin_and_min`` is the (argmin, minimum) pair the
row minimizer returned before it returned the argmin alone.
"""

import numpy as np

from focalrisk.conformal import FocalSystem
from focalrisk.risk import argmin_rows, upper_risk_batch

_INV_GOLDEN = (5 ** 0.5 - 1) / 2


def scalar_golden_section_min(f, lo, hi, tol):
    """Minimize a unimodal f on [lo, hi] until the bracket is at most tol wide, or a
    step leaves its width unchanged (a few ulps wide); the midpoint and f there."""
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        width = hi - lo
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(x2)
        if not hi - lo < width:  # a few ulps wide: no step can shrink it
            break
    x = 0.5 * (lo + hi)
    return x, f(x)


def focal_table(sets, lo, hi):
    """The FocalSystem on [lo, hi] whose set v has the pieces sets[v - 1], in scan order."""
    pieces = [(v, a, b) for v, p in enumerate(sets, start=1) for a, b in p]
    index, los, his = np.array(pieces, dtype=float).reshape(-1, 3).T
    return FocalSystem(index.astype(int), los, his, len(sets), lo, hi)


def focal_sum_upper_risk(loss, focal, theta):
    """The upper risk at one theta, set by set and piece by piece: each piece's sup is the
    max of the loss at its two ends, each set's the max over its pieces (an empty set adds
    0), and the sets' sups are summed in order and divided by n + 1."""
    loss.check_theta(theta)
    sups = [0.0] * focal.n_plus_1
    for v, lo, hi in zip(focal.index.tolist(), focal.lo.tolist(), focal.hi.tolist()):
        sups[v - 1] = max(sups[v - 1], float(max(loss(theta, lo), loss(theta, hi))))
    return sum(sups) / focal.n_plus_1


def squared_all_candidates_min(loss, rows, a, b, lo, hi):
    """Squared-loss argmin and minimum of each sorted row's upper risk on [lo, hi], from every
    cell's candidate: with Z = {a, data, b} and the cells' ends e the midpoints of neighbours
    in Z, the vertex (sum Z - z_j) / (n + 1) clipped to its cell, then to [lo, hi]; the best
    closed form among them, ties to the lowest theta."""
    col = np.ones((len(rows), 1))
    z = np.hstack([a * col, rows, b * col])
    ends = 0.5 * (z[:, :-1] + z[:, 1:])
    vertex = (z.sum(axis=1, keepdims=True) - z) / (z.shape[1] - 1)
    cand = np.clip(vertex, np.hstack([-np.inf * col, ends]), np.hstack([ends, np.inf * col]))
    cand = np.clip(cand, lo, hi)
    vals = upper_risk_batch(loss, rows, a, b, cand)
    best = np.arange(len(rows)), np.argmin(vals, axis=1)
    return cand[best], vals[best]


def absolute_all_candidates_min(loss, rows, a, b, lo, hi):
    """Absolute-loss argmin and minimum of each sorted row's upper risk on [lo, hi], from every
    kink: with Z = {a, data, b}, the points of Z and the midpoints of neighbours in Z,
    interleaved in ascending order and clipped to [lo, hi]; the best closed form among them,
    ties to the lowest theta."""
    col = np.ones((len(rows), 1))
    z = np.hstack([a * col, rows, b * col])
    cand = np.empty((len(rows), 2 * z.shape[1] - 1))
    cand[:, ::2], cand[:, 1::2] = z, 0.5 * (z[:, :-1] + z[:, 1:])
    cand = np.clip(cand, lo, hi)
    vals = upper_risk_batch(loss, rows, a, b, cand)
    best = np.arange(len(rows)), np.argmin(vals, axis=1)
    return cand[best], vals[best]


def argmin_and_min(loss, rows, a, b, grid):
    """``argmin_rows`` of each sorted row and the closed-form upper risk there, (r,) each."""
    theta = argmin_rows(loss, rows, a, b, grid)
    return theta, upper_risk_batch(loss, rows, a, b, theta[:, None])[:, 0]
