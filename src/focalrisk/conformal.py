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
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .data_model import BoundedSample
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

    def containing_index(self, y: float) -> int:
        """1-based index of the focal set containing y.

        Values equal to a data point (exact representation) go to the
        lower-index adjacent set.
        """
        if not (self.support_lo <= y <= self.support_hi):
            raise OutOfSupport(f"y={y} outside [{self.support_lo}, {self.support_hi}]")
        if self.representation is FocalRepresentation.EXACT_INTERVALS:
            vals = list(self.sample_values)
            v = bisect_left(vals, y) + 1
            return min(v, self.n_plus_1)
        for v, pieces in enumerate(self.sets, start=1):
            for lo, hi in pieces:
                if lo <= y <= hi:
                    return v
        raise OutOfSupport(f"y={y} not covered by any focal set")


def rank_candidate(
    sample: BoundedSample, y: float, score: NonconformityScore
) -> int:
    """Ascending rank of the candidate's score in the augmented sample.

    Ties go to the candidate: rank = 1 + #{data scores <= candidate score}.
    """
    if not (sample.support_lo <= y <= sample.support_hi):
        raise OutOfSupport(
            f"y={y} outside [{sample.support_lo}, {sample.support_hi}]"
        )
    if score.kind is ScoreKind.IDENTITY:
        return 1 + int(np.searchsorted(sample.values, y, side="right"))
    if score.kind is ScoreKind.DISTANCE_TO_LOO_MEAN:
        vals = sample.values
        n = len(vals)
        total = float(np.sum(vals)) + y
        cand = abs(y - (total - y) / n)
        data_scores = np.abs(vals - (total - vals) / n)
        return 1 + int(np.count_nonzero(data_scores <= cand))
    augmented = np.append(sample.values, y)
    cand = score.evaluate(len(augmented) - 1, augmented)
    count = sum(
        1 for i in range(len(augmented) - 1) if score.evaluate(i, augmented) <= cand
    )
    return 1 + count


def focal_sets(
    sample: BoundedSample,
    score: NonconformityScore,
    grid: Optional[Sequence[float]] = None,
    grid_points: int = 2001,
) -> FocalSystem:
    """Construct the rank level sets.

    Identity scores give the exact order-statistic gaps.  Other scores are
    resolved on a y-grid (default 2001 points over the support); each
    maximal run of equal rank is widened half a grid step so the runs tile
    the support.
    """
    a, b = sample.support_lo, sample.support_hi
    n = sample.n
    if score.kind is ScoreKind.IDENTITY:
        knots = [a, *sample.values.tolist(), b]
        sets = tuple(((knots[v - 1], knots[v]),) for v in range(1, n + 2))
        return FocalSystem(sets, a, b, FocalRepresentation.EXACT_INTERVALS, sample.values)

    if grid is None:
        grid = np.linspace(a, b, grid_points)
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise MissingGrid("general scores need a y-grid with at least 2 points")
    half = 0.5 * (grid[1] - grid[0])
    ranks = np.array([rank_candidate(sample, float(y), score) for y in grid])

    pieces: list[list[Interval]] = [[] for _ in range(n + 1)]
    start = 0
    for stop in range(1, grid.size + 1):
        if stop == grid.size or ranks[stop] != ranks[start]:
            lo = max(a, grid[start] - half)
            hi = min(b, grid[stop - 1] + half)
            pieces[ranks[start] - 1].append((float(lo), float(hi)))
            start = stop
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
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha={alpha} not in (0, 1)")
    m = focal.n_plus_1
    k = nested_set_index(m - 1, alpha)
    pieces = [iv for v in range(k) for iv in focal.sets[v]]
    return PredictionSet(k=k, region=merge_intervals(pieces), nominal_coverage=k / m)


def nested_set_index(n: int, alpha: float) -> int:
    """k = ceil((1 - alpha)(n + 1)) clamped to 1..n+1: the first nested
    prediction set whose coverage k/(n+1) reaches 1 - alpha."""
    return max(1, min(math.ceil((1.0 - alpha) * (n + 1)), n + 1))


def contour(focal: FocalSystem, y: float) -> float:
    """Fraction of nested prediction sets containing y: (n+2-v0)/(n+1)."""
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
    lines = []
    for v, pieces in enumerate(sets, start=1):
        for lo, hi in pieces:
            lines.append(f"{v} {lo:.17g} {hi:.17g}")
    return "\n".join(lines) + "\n"


def serialize_focal_system(focal: FocalSystem) -> str:
    return serialize_intervals(focal.sets)


def serialize_prediction_set(pred: PredictionSet) -> str:
    return serialize_intervals([[iv] for iv in pred.region])
