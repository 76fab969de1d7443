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
from typing import Sequence

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
    """n+1 rank level sets over [a, b] as one table of pieces in scan order: piece i is
    [lo[i], hi[i]] of set index[i] in 1..n+1, by index, then along y.  A set may have
    several pieces, or none (a rank that a grid system never attains)."""

    index: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    n_plus_1: int
    support_lo: float
    support_hi: float

    def containing_index(self, y):
        """1-based index of the focal set containing y; elementwise for an array.

        The first piece in scan order that holds y wins, so a y on a shared end goes to
        the lower index.  Pieces that meet only at their ends, as ``focal_sets`` builds
        them, hold O(n + m) of the distinct ys in all."""
        flat = _in_support(y, self.support_lo, self.support_hi)
        ys, back = np.unique(flat, return_inverse=True)
        start = np.searchsorted(ys, self.lo, "left")
        count = np.maximum(np.searchsorted(ys, self.hi, "right") - start, 0)
        piece = np.repeat(np.arange(count.size), count)
        at = np.arange(piece.size) - np.repeat(np.cumsum(count) - count - start, count)
        first = np.full(ys.size, count.size)
        np.minimum.at(first, at, piece)
        first = first[back]
        if (first == count.size).any():
            raise OutOfSupport(f"y={flat[first == count.size][0]} not covered by any focal set")
        v = self.index[first]
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
    """Construct the rank level sets as a piece table.

    Identity scores give the exact order-statistic gaps, one piece per set.
    The loo-mean score is resolved on a ``y_grid`` of grid_points points over the
    support; each maximal run of equal rank is widened half a grid step, and
    to the next run's start, so the runs tile the support.
    """
    a, b, n = sample.support_lo, sample.support_hi, sample.n
    if score is NonconformityScore.IDENTITY:
        knots = np.concatenate([[a], sample.values, [b]])
        return FocalSystem(np.arange(1, n + 2), knots[:-1], knots[1:], n + 1, a, b)

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
    run = ranks[starts]
    order = np.argsort(run, kind="stable")  # scan order: by rank, then along y
    return FocalSystem(run[order], los[order], his[order], n + 1, a, b)


def merge_intervals(pieces: Sequence[Interval]) -> tuple[Interval, ...]:
    """Union of intervals with touching/overlapping pieces coalesced."""
    if not pieces:
        return ()
    ordered = sorted(pieces)
    out = [list(ordered[0])]
    for lo, hi in ordered[1:]:
        if lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


@dataclass(frozen=True)
class PredictionSet:
    """Union of the first k focal sets; exact marginal coverage k/(n+1)."""

    k: int
    region: tuple[Interval, ...]
    nominal_coverage: float


def prediction_set(focal: FocalSystem, alpha: float) -> PredictionSet:
    """Smallest-k prediction set with nominal coverage >= 1 - alpha."""
    m = focal.n_plus_1
    k = nested_set_index(m - 1, alpha)
    first = focal.index <= k
    region = merge_intervals(list(zip(focal.lo[first].tolist(), focal.hi[first].tolist())))
    return PredictionSet(k=k, region=region, nominal_coverage=k / m)


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
    return serialize_intervals(focal.index, focal.lo, focal.hi)


def serialize_prediction_set(pred: PredictionSet) -> str:
    lo, hi = np.reshape(pred.region, (-1, 2)).T
    return serialize_intervals(np.arange(1, len(lo) + 1), lo, hi)
