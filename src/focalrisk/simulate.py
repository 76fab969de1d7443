"""Reproducible Monte Carlo engine for replication studies.

Every replication draws from its own counter-based RNG stream (numpy's
Philox generator keyed by (master_seed, n, replication)), so results are
bit-identical however the batched path splits replications into chunks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .conformal import NonconformityScore, nested_set_index, rank_candidate
from .data_model import BoundedSample, LossSpec, ThetaGrid, TrueModel, make_sample, normal_mass
from .errors import EmptyInput, GridMismatch
from .risk import RiskCurve, RiskKind, format_csv, minimize_rows, upper_risk_batch

RNG_ALGORITHM = "philox4x64 (numpy.random.Philox)"
_CHUNK_CELLS = 1 << 18  # largest array one chunk of replications builds: 2 MiB of float64


def replication_rng(master_seed: int, n: int, replication: int) -> np.random.Generator:
    """Independent stream keyed by (master_seed, n, replication)."""
    seq = np.random.SeedSequence([master_seed, n, replication])
    return np.random.Generator(np.random.Philox(seq))


def sample_truncated_normal(
    n: int, lo: float, hi: float, rng: np.random.Generator
) -> BoundedSample:
    """n iid draws from the standard normal restricted to [lo, hi].

    Rejection sampling: draw standard normals, keep those inside the support
    (acceptance rate ~0.9973 on [-3, 3]; ``normal_mass`` refuses rates below 1e-3).
    """
    normal_mass(lo, hi)
    out = np.empty(n)
    filled = 0
    while filled < n:
        need = n - filled
        batch = rng.standard_normal(max(need + 8, int(need * 1.1)))
        keep = batch[(batch >= lo) & (batch <= hi)][:need]
        out[filled : filled + len(keep)] = keep
        filled += len(keep)
    return make_sample(out, lo, hi)


def sample_chunks(support: tuple[float, float], seed: int, n: int, replications: int,
                  row_cells: int) -> Iterator[np.ndarray]:
    """Replications 0, 1, ... in order, as (r, n) matrices of sorted samples.

    Each row is drawn on its replication's own stream.  The caller builds
    at most row_cells cells per row, and r keeps r * row_cells within the
    chunk budget (r >= 1).
    """
    lo, hi = support
    step = max(1, _CHUNK_CELLS // row_cells)
    for start in range(0, replications, step):
        yield np.stack([sample_truncated_normal(n, lo, hi, replication_rng(seed, n, r)).values
                        for r in range(start, min(start + step, replications))])


@dataclass(frozen=True)
class SimConfig:
    model: TrueModel
    loss: LossSpec
    n_values: tuple[int, ...]
    replications: int
    theta_grid: ThetaGrid
    percentiles: tuple[float, float] = (0.05, 0.95)
    histogram_bins: int = 30
    master_seed: int = 0

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.histogram_bins < 1:
            raise ValueError("histogram_bins must be >= 1")
        if list(self.percentiles) != sorted(self.percentiles):
            raise ValueError("percentiles must be sorted ascending")


@dataclass(frozen=True)
class NSummary:
    median_curve: RiskCurve
    band_lo: RiskCurve
    band_hi: RiskCurve
    minimizers: np.ndarray
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray


@dataclass(frozen=True)
class ReplicationSummary:
    config: SimConfig
    per_n: dict[int, NSummary] = field(default_factory=dict)


def aggregate_percentiles(
    curves: Sequence[RiskCurve], probs: Sequence[float]
) -> list[RiskCurve]:
    """Pointwise empirical percentiles across curves sharing one grid.

    Linear interpolation between order statistics at position p*(m-1).
    """
    if not curves:
        raise EmptyInput("no curves to aggregate")
    grid = curves[0].grid
    for c in curves[1:]:
        if c.grid.count != grid.count or (c.grid.lo, c.grid.hi) != (grid.lo, grid.hi):
            raise GridMismatch("curves evaluated on different grids")
    stack = np.vstack([c.values for c in curves])
    out = []
    for p in probs:
        vals = np.percentile(stack, 100.0 * p, axis=0, method="linear")
        out.append(RiskCurve(grid=grid, values=vals, kind=curves[0].kind))
    return out


def histogram(
    values: Sequence[float],
    bins: int,
    value_range: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width histogram; the last bin includes its upper edge."""
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise EmptyInput("no values to histogram")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if value_range is None:
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
    else:
        lo, hi = value_range
    counts, edges = np.histogram(vals, bins=bins, range=(lo, hi))
    return edges, counts


def run_replications(config: SimConfig) -> ReplicationSummary:
    """Replication sweep: upper-risk curves, percentile bands, minimizers.

    All replications of one n run as one batched path, chunk by chunk.
    """
    per_n: dict[int, NSummary] = {}
    p_lo, p_hi = config.percentiles
    grid = config.theta_grid
    a, b = config.model.support
    for n in config.n_values:
        curves, minimizers = [], []
        for rows in sample_chunks((a, b), config.master_seed, n, config.replications,
                                  n * grid.count):
            chunk = upper_risk_batch(config.loss, rows[:, None, :], a, b, grid.points)
            curves.extend(chunk)
            minimizers.extend(minimize_rows(config.loss, rows, a, b, grid, chunk)[0])
        minimizers = np.array(minimizers)
        lo_c, med_c, hi_c = aggregate_percentiles(
            [RiskCurve(grid=grid, values=c, kind=RiskKind.UPPER) for c in curves],
            [p_lo, 0.5, p_hi],
        )
        edges, counts = histogram(minimizers, config.histogram_bins)
        per_n[n] = NSummary(
            median_curve=med_c,
            band_lo=lo_c,
            band_hi=hi_c,
            minimizers=minimizers,
            histogram_edges=edges,
            histogram_counts=counts,
        )
    return ReplicationSummary(config=config, per_n=per_n)


def coverage_experiment(
    model: TrueModel,
    score: NonconformityScore,
    n: int,
    alpha: float,
    replications: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo hit frequency of the level-(1-alpha) prediction set.

    Membership of the held-out point in the union of the first k focal
    sets is equivalent to its rank pivot being <= k, which is what is
    tested (exact for every score, no grid discretization).
    """
    k = nested_set_index(n, alpha)
    lo, hi = model.support
    hits = 0
    for r in range(replications):
        rng = replication_rng(seed, n, r)
        draws = sample_truncated_normal(n + 1, lo, hi, rng).to_original()
        sample = make_sample(draws[:n], lo, hi)
        if rank_candidate(sample, float(draws[n]), score) <= k:
            hits += 1
    return hits / replications, k / (n + 1)


def write_summary(summary: ReplicationSummary, out_dir: str | Path) -> None:
    """Serialize a ReplicationSummary to a directory of CSV files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = summary.config
    for n, s in summary.per_n.items():
        for name, c in (("median", s.median_curve), ("band_lo", s.band_lo),
                        ("band_hi", s.band_hi)):
            text = format_csv("theta,value", zip(c.grid.points, c.values))
            (out / f"{name}_n{n}.csv").write_text(text)
        (out / f"minimizers_n{n}.csv").write_text("".join(f"{v:.17g}\n" for v in s.minimizers))
        edges = s.histogram_edges
        rows = zip(edges[:-1], edges[1:], s.histogram_counts.tolist())
        (out / f"histogram_n{n}.csv").write_text(format_csv("bin_lo,bin_hi,count", rows))
    meta = {
        "rng": RNG_ALGORITHM,
        "master_seed": cfg.master_seed,
        "n_values": list(cfg.n_values),
        "replications": cfg.replications,
        "theta_grid": {
            "lo": cfg.theta_grid.lo,
            "hi": cfg.theta_grid.hi,
            "count": cfg.theta_grid.count,
        },
        "percentiles": list(cfg.percentiles),
        "histogram_bins": cfg.histogram_bins,
        "model": cfg.model.kind.value,
        "support": list(cfg.model.support),
        "loss": cfg.loss.kind.value,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
