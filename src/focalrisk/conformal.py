"""Nonconformity scores, rank pivots, focal sets, and prediction sets.

A score is one of two fixed symmetric ones: the identity, or the distance to the
leave-one-out mean.  The rank of a candidate value among the augmented scores is uniform on
{1, ..., n+1} under exchangeability; the level sets of that rank are the
focal sets, each carrying mass 1/(n+1).  Unions of the first k focal sets
are prediction sets with exact marginal coverage k/(n+1).  Every focal system,
exact or grid, is one table of pieces (``FocalSystem``) with one lookup.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import MAX_GRID, BoundedSample, linspace
from .errors import (
    EmptyFocalSetWarning,
    IndexOutOfRange,
    InvalidAlpha,
    MissingGrid,
    NonFiniteValue,
    OutOfSupport,
)

Interval = tuple[float, float]


class NonconformityScore(enum.Enum):
    """Symmetric score of one held-out component of an augmented sample of n+1 values:
    the value itself, or its distance to the mean of the other n."""

    IDENTITY = "identity"
    DISTANCE_TO_LOO_MEAN = "loo-mean"

    @staticmethod
    def identity() -> "NonconformityScore":
        return NonconformityScore.IDENTITY

    @staticmethod
    def distance_to_loo_mean() -> "NonconformityScore":
        return NonconformityScore.DISTANCE_TO_LOO_MEAN


@dataclass(frozen=True, eq=False)  # array fields: == and hash by identity, never ambiguous
class FocalSystem:
    """n+1 rank level sets over [a, b] = [lo[0], hi[-1]] as one table of pieces along y:
    piece i is [lo[i], hi[i]] of set index[i] in 1..n+1; lo and hi rise with i and the pieces
    tile [a, b].  A set may have several pieces, or none (a rank a grid never attains)."""

    index: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    n_plus_1: int

    def containing_index(self, y):
        """1-based index of the focal set containing y; elementwise for an array.

        The rows holding y run from the first hi >= y to the last lo <= y, and the lowest
        index among them wins (a y on a shared end goes to the lower index).  A zero-width
        row holds one distinct y, so the runs of the distinct ys span O(n + m) rows in all."""
        flat = _in_support(y, self.lo[0], self.hi[-1])
        ys, back = np.unique(flat, return_inverse=True)
        start, stop = np.searchsorted(self.hi, ys, "left"), np.searchsorted(self.lo, ys, "right")
        # a run may end past the last row, at the sentinel; the runs between ys are dropped
        v = np.minimum.reduceat(np.append(self.index, 0), np.ravel([start, stop], "F"))[::2][back]
        return int(v[0]) if np.ndim(y) == 0 else v.reshape(np.shape(y))


def _in_support(ys, lo: float, hi: float) -> np.ndarray:
    """ys as a flat float array; OutOfSupport unless every y lies in [lo, hi]."""
    ys = np.asarray(ys, dtype=float).reshape(-1)
    outside = ~((ys >= lo) & (ys <= hi))  # true for NaN
    if outside.any():
        raise OutOfSupport(f"y={ys[outside][0]} outside [{lo}, {hi}]")
    return ys


def _first(rows: np.ndarray, m: int, past) -> np.ndarray:
    """First index i (else n), per cell of (r, m), at which past(rows[:, i] as (r, m)) holds;
    past is false, then true, along each sorted row of rows (r, n).  Binary lifting: pos counts
    the leading i known to fail; a step past n tests i = n - 1, which fails only if every i does."""
    n, pos = rows.shape[1], np.zeros((len(rows), m), dtype=int)
    for step in (1 << k for k in reversed(range(n.bit_length()))):
        ok = ~past(np.take_along_axis(rows, np.minimum(pos + step, n) - 1, axis=1))
        pos = np.minimum(pos + step * ok, n)
    return pos


def rank_rows(rows: np.ndarray, ys: np.ndarray, score: NonconformityScore) -> np.ndarray:
    """Ascending rank of each candidate ys[i, j] (r, m) among the sorted data rows[i] (r, n).

    Ties go to the candidate: rank = 1 + #{data scores <= candidate score}.  Both scores
    are monotone in the sorted data point, so the count comes from bisection.  A loo-mean
    row whose sums could overflow is ranked on its values times 2^-k, k = (n+1).bit_length():
    exact, so the ranks are those of the row, and its sum of n+1 values is then finite.
    """
    n, m = rows.shape[1], ys.shape[1]
    if score is NonconformityScore.IDENTITY:
        return 1 + _first(rows, m, lambda x: x > ys)
    with np.errstate(over="ignore", invalid="ignore"):
        total = rows.sum(axis=1)[:, None] + ys  # pairwise row sums, as np.sum of one row
        big = np.maximum(np.abs(ys), np.maximum(np.abs(rows[:, :1]), np.abs(rows[:, -1:])))
        wide = ~np.isfinite(np.abs(total) + 2 * big).all(axis=1)  # bounds |total - x|, |signed|
    if wide.any():
        scale = np.where(wide, 2.0 ** -(n + 1).bit_length(), 1.0)[:, None]
        rows, ys = rows * scale, ys * scale
        total = rows.sum(axis=1)[:, None] + ys
        if not np.isfinite(total).all():
            raise NonFiniteValue("a sample's leave-one-out sum is not finite")

    def signed(x):  # rises with x, rounding included, so #{|signed| <= cand} is
        return x - (total - x) / n  # first(signed > cand) - first(signed >= -cand)

    cand = np.abs(signed(ys))
    above = _first(rows, m, lambda x: signed(x) > cand)
    return 1 + above - _first(rows, m, lambda x: signed(x) >= -cand)


def rank_candidates(sample: BoundedSample, ys, score: NonconformityScore) -> np.ndarray:
    """Ascending rank of each candidate y in its augmented sample: ``rank_rows`` of one row."""
    ys = _in_support(ys, sample.support_lo, sample.support_hi)
    return rank_rows(sample.values[None], ys[None], score)[0]


def rank_candidate(sample: BoundedSample, y: float, score: NonconformityScore) -> int:
    """``rank_candidates`` at the one candidate y."""
    return int(rank_candidates(sample, [y], score)[0])


def y_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """``np.linspace(lo, hi, points)``, refused where it is not finite (``linspace``)."""
    if points < 2:
        raise MissingGrid("general scores need a y-grid with at least 2 points")
    if points > MAX_GRID:
        raise ValueError(f"{points} grid points exceeds {MAX_GRID}")
    return linspace(lo, hi, points, "support")


def focal_sets(sample: BoundedSample, score: NonconformityScore,
               grid_points: int = 2001) -> FocalSystem:
    """Construct the rank level sets as a piece table along y.

    Identity scores give the exact order-statistic gaps, one piece per set.
    The loo-mean score is resolved on a ``y_grid`` of grid_points points over the
    support; each maximal run of equal rank is widened half a grid step, and
    to the next run's start, so the runs tile the support.
    """
    a, b, n = sample.support_lo, sample.support_hi, sample.n
    if score is NonconformityScore.IDENTITY:
        knots = np.concatenate([[a], sample.values, [b]])
        return FocalSystem(np.arange(1, n + 2), knots[:-1], knots[1:], n + 1)

    grid = y_grid(a, b, grid_points)
    half = 0.5 * (grid[1] - grid[0])
    ranks = rank_candidates(sample, grid, score)
    starts = np.flatnonzero(np.diff(ranks, prepend=0))
    stops = np.append(starts[1:], grid.size)
    los = np.maximum(a, grid[starts] - half)
    his = np.minimum(b, grid[stops - 1] + half)
    his[:-1] = np.maximum(his[:-1], los[1:])  # rounding may end a run 1 ulp short of the next
    empty = np.flatnonzero(np.bincount(ranks, minlength=n + 2)[1:] == 0) + 1
    if empty.size:
        warnings.warn(f"rank values {empty.tolist()} unattained on the grid", EmptyFocalSetWarning)
    return FocalSystem(ranks[starts], los, his, n + 1)


@dataclass(frozen=True)
class PredictionSet:
    """Union of the first k focal sets; exact marginal coverage k/(n+1)."""

    k: int
    region: tuple[Interval, ...]
    nominal_coverage: float


def prediction_set(focal: FocalSystem, alpha: float) -> PredictionSet:
    """Smallest-k prediction set with nominal coverage >= 1 - alpha."""
    k = nested_set_index(focal.n_plus_1 - 1, alpha)
    lo, hi = focal.lo[focal.index <= k], focal.hi[focal.index <= k]  # along y; maybe none
    starts = lo > np.concatenate([[-np.inf], hi[:-1]])  # the pieces after a gap
    stops = hi < np.concatenate([lo[1:], [np.inf]])  # the pieces before one
    ends = np.searchsorted(hi, hi[stops])  # the first hi equal to the last: -0.0 or 0.0 kept
    region = tuple(zip(lo[starts].tolist(), hi[ends].tolist()))
    return PredictionSet(k=k, region=region, nominal_coverage=k / focal.n_plus_1)


def check_alpha(alpha: float) -> None:
    """Raise unless the miscoverage level alpha lies strictly in (0, 1)."""
    if not 0.0 < alpha < 1.0:  # false for NaN
        raise InvalidAlpha(f"alpha={alpha} not in (0, 1)")


def nested_set_index(n: int, alpha: float) -> int:
    """k = ceil((1 - alpha)(n + 1)) clamped to 1..n+1: the first nested
    prediction set whose coverage k/(n+1) reaches 1 - alpha."""
    check_alpha(alpha)
    return max(1, min(math.ceil((1.0 - alpha) * (n + 1)), n + 1))


def contour(focal: FocalSystem, y):
    """Fraction of nested prediction sets containing y: (n+2-v0)/(n+1); elementwise."""
    v0 = focal.containing_index(y)
    m = focal.n_plus_1
    return (m + 1 - v0) / m


def coverage_probability(n: int, k: int) -> float:
    """Exact marginal coverage of the k-th nested prediction set."""
    if not 1 <= k <= n + 1:
        raise IndexOutOfRange(f"k={k} not in 1..{n + 1}")
    return k / (n + 1)


def serialize_intervals(index, lo, hi) -> str:
    """One line per interval: 'v lo hi' with round-trip decimal reals."""
    flat = np.column_stack([index, lo, hi]).ravel().tolist()
    return "%d %.17g %.17g\n" * len(index) % tuple(flat) if len(index) else "\n"


def serialize_focal_system(focal: FocalSystem) -> str:
    order = np.argsort(focal.index, kind="stable")  # focal.txt's scan order: by index, along y
    return serialize_intervals(focal.index[order], focal.lo[order], focal.hi[order])


def serialize_prediction_set(pred: PredictionSet) -> str:
    lo, hi = np.reshape(pred.region, (-1, 2)).T
    return serialize_intervals(np.arange(1, len(lo) + 1), lo, hi)
