"""Nonconformity scoring, rank pivots, focal sets, and prediction sets.

The rank of a candidate value among the augmented scores is uniform on
{1, ..., n+1} under exchangeability; the level sets of that rank are the
focal sets, each carrying mass 1/(n+1).  Unions of the first k focal sets
are prediction sets with exact marginal coverage k/(n+1).
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data_model import MAX_GRID, BoundedSample
from .errors import (
    EmptyFocalSetWarning,
    IndexOutOfRange,
    InvalidAlpha,
    MissingGrid,
    OutOfSupport,
)

Interval = tuple[float, float]


class ScoreKind(enum.Enum):
    IDENTITY = "identity"
    DISTANCE_TO_LOO_MEAN = "loo-mean"
    CUSTOM = "custom"


@dataclass(frozen=True)
class NonconformityScore:
    """Symmetric score of one held-out component of an augmented sample.

    ``evaluate(i, values)`` scores component i of the n+1 augmented values;
    it must not depend on the order of the other n components.
    """

    kind: ScoreKind
    evaluate: Callable[[int, np.ndarray], float]

    @staticmethod
    def identity() -> "NonconformityScore":
        return NonconformityScore(ScoreKind.IDENTITY, lambda i, vals: float(vals[i]))

    @staticmethod
    def distance_to_loo_mean() -> "NonconformityScore":
        def score(i: int, vals: np.ndarray) -> float:
            total = float(np.sum(vals))
            loo_mean = (total - vals[i]) / (len(vals) - 1)
            return abs(float(vals[i]) - loo_mean)

        return NonconformityScore(ScoreKind.DISTANCE_TO_LOO_MEAN, score)

    @staticmethod
    def custom(fn: Callable[[int, np.ndarray], float]) -> "NonconformityScore":
        return NonconformityScore(ScoreKind.CUSTOM, fn)


class FocalRepresentation(enum.Enum):
    EXACT_INTERVALS = "exact"
    GRID_LEVEL_SETS = "grid"


@dataclass(frozen=True)
class FocalSystem:
    """n+1 rank level sets over [a, b], each a finite union of intervals."""

    sets: tuple[tuple[Interval, ...], ...]
    support_lo: float
    support_hi: float
    representation: FocalRepresentation
    sample_values: np.ndarray

    @property
    def n_plus_1(self) -> int:
        return len(self.sets)

    @property
    def mass_each(self) -> float:
        return 1.0 / len(self.sets)

    def containing_index(self, y):
        """1-based index of the focal set containing y; elementwise for an array.

        Values equal to a data point (exact representation) go to the
        lower-index adjacent set, as do values on touching ends of grid pieces.
        """
        flat = _in_support(y, self.support_lo, self.support_hi)
        if self.representation is FocalRepresentation.EXACT_INTERVALS:
            v = np.minimum(np.searchsorted(self.sample_values, flat, "left") + 1, self.n_plus_1)
        else:  # the first piece in scan order wins: fill each piece's ys, the last one first
            pieces = [(v, lo, hi) for v, p in enumerate(self.sets, start=1) for lo, hi in p][::-1]
            _, lo, hi = np.array(pieces, dtype=float).reshape(-1, 3).T
            order, v = np.argsort(flat), np.zeros(flat.size, dtype=int)
            starts = np.searchsorted(flat[order], lo, "left").tolist()
            stops = np.searchsorted(flat[order], hi, "right").tolist()
            for (piece, _, _), i, j in zip(pieces, starts, stops):
                v[order[i:j]] = piece
            if not v.all():
                raise OutOfSupport(f"y={flat[v == 0][0]} not covered by any focal set")
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

    Ties go to the candidate: rank = 1 + #{data scores <= candidate score}.  Built-in
    scores are monotone in the sorted data point, so the count comes from bisection.
    """
    n, m = rows.shape[1], ys.shape[1]
    if score.kind is ScoreKind.IDENTITY:
        return 1 + _first(rows, m, lambda x: x > ys)
    if score.kind is ScoreKind.DISTANCE_TO_LOO_MEAN:
        total = rows.sum(axis=1)[:, None] + ys  # pairwise row sums, as np.sum of one row

        def signed(x):  # rises with x, rounding included, so #{|signed| <= cand} is
            return x - (total - x) / n  # first(signed > cand) - first(signed >= -cand)

        cand = np.abs(signed(ys))
        above = _first(rows, m, lambda x: signed(x) > cand)
        return 1 + above - _first(rows, m, lambda x: signed(x) >= -cand)
    out = np.empty(ys.shape[:2], dtype=int)
    for i, j in np.ndindex(out.shape):
        augmented = np.append(rows[i], ys[i, j])
        cand = score.evaluate(n, augmented)
        out[i, j] = 1 + sum(score.evaluate(k, augmented) <= cand for k in range(n))
    return out


def rank_candidates(sample: BoundedSample, ys, score: NonconformityScore) -> np.ndarray:
    """Ascending rank of each candidate y in its augmented sample: ``rank_rows`` of one row."""
    ys = _in_support(ys, sample.support_lo, sample.support_hi)
    return rank_rows(sample.values[None], ys[None], score)[0]


def rank_candidate(sample: BoundedSample, y: float, score: NonconformityScore) -> int:
    """``rank_candidates`` at the one candidate y."""
    return int(rank_candidates(sample, [y], score)[0])


def focal_sets(sample: BoundedSample, score: NonconformityScore,
               grid_points: int = 2001) -> FocalSystem:
    """Construct the rank level sets.

    Identity scores give the exact order-statistic gaps.  Other scores are
    resolved on a y-grid of grid_points equally spaced points over the
    support; each maximal run of equal rank is widened half a grid step, and
    to the next run's start, so the runs tile the support.
    """
    a, b = sample.support_lo, sample.support_hi
    n = sample.n
    if score.kind is ScoreKind.IDENTITY:
        knots = [a, *sample.values.tolist(), b]
        sets = tuple(((knots[v - 1], knots[v]),) for v in range(1, n + 2))
        return FocalSystem(sets, a, b, FocalRepresentation.EXACT_INTERVALS, sample.values)

    if grid_points < 2:
        raise MissingGrid("general scores need a y-grid with at least 2 points")
    if grid_points > MAX_GRID:
        raise ValueError(f"{grid_points} grid points exceeds {MAX_GRID}")
    grid = np.linspace(a, b, grid_points)
    half = 0.5 * (grid[1] - grid[0])
    ranks = rank_candidates(sample, grid, score)

    pieces: list[list[Interval]] = [[] for _ in range(n + 1)]
    starts = np.flatnonzero(np.diff(ranks, prepend=0))
    stops = np.append(starts[1:], grid.size)
    los = np.maximum(a, grid[starts] - half)
    his = np.minimum(b, grid[stops - 1] + half)
    his[:-1] = np.maximum(his[:-1], los[1:])  # rounding may end a run 1 ulp short of the next
    for rank, lo, hi in zip(ranks[starts].tolist(), los.tolist(), his.tolist()):
        pieces[rank - 1].append((lo, hi))
    empty = [v + 1 for v, p in enumerate(pieces) if not p]
    if empty:
        warnings.warn(
            f"rank values {empty} unattained on the grid", EmptyFocalSetWarning
        )
    sets = tuple(tuple(p) for p in pieces)
    return FocalSystem(sets, a, b, FocalRepresentation.GRID_LEVEL_SETS, sample.values)


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
    pieces = [iv for v in range(k) for iv in focal.sets[v]]
    return PredictionSet(k=k, region=merge_intervals(pieces), nominal_coverage=k / m)


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


def serialize_intervals(sets: Sequence[Sequence[Interval]]) -> str:
    """One line per interval: 'v lo hi' with round-trip decimal reals."""
    flat = [x for v, pieces in enumerate(sets, start=1) for lo, hi in pieces for x in (v, lo, hi)]
    return "%d %.17g %.17g\n" * (len(flat) // 3) % tuple(flat) if flat else "\n"


def serialize_focal_system(focal: FocalSystem) -> str:
    return serialize_intervals(focal.sets)


def serialize_prediction_set(pred: PredictionSet) -> str:
    return serialize_intervals([[iv] for iv in pred.region])
