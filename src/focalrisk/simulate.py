"""Reproducible Monte Carlo engine for replication studies.

Every replication draws from its own counter-based RNG stream (numpy's
Philox generator keyed by (master_seed, n, replication)), so results are
bit-identical however the batched path splits replications into chunks.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .conformal import NonconformityScore, nested_set_index, rank_rows
from .data_model import (MAX_GRID, BoundedSample, LossSpec, ThetaGrid, TrueModel, check_values,
                         make_sample, normal_mass)
from .errors import EmptyInput, EmptySample, GridMismatch, NonFiniteValue, SampleTooLarge
from .risk import RiskCurve, RiskKind, argmin_rows, batch_cells, format_csv, upper_risk_batch

RNG_ALGORITHM = "philox4x64 (numpy.random.Philox)"
_CHUNK_CELLS = 1 << 18  # float64 cells one chunk keeps live, by row_cells: 2 MiB
_MAX_ROW = 1 << 24  # largest sample size drawn: 128 MiB of float64 per sample
_MAX_DRAWS = 1 << 28  # values one run of replications may draw: 1.06e8 took 6 s on 2 cores
_MAX_REPLICATIONS = 1 << 18  # replications of one run: ~2-3 us of stream setup each at n = 1
_MAX_CURVES = 1 << 24  # replications x thetas of one simulate run: 128 MiB of stored curves
_MAX_BATCH = 1 << 20  # rejection-sampler draws per batch: 8 MiB of float64
_KEY_BLOCK = 1 << 12  # replications keyed per pass: ~90 bytes of temporaries each
_MAX_FLOAT = float(np.finfo(float).max)


def replication_rng(master_seed: int, n: int, replication: int) -> np.random.Generator:
    """Independent stream keyed by (master_seed, n, replication); a negative n is refused."""
    if n < 0:  # n = 0 still keys a stream; a sample of size 0 fails check_values
        raise EmptySample(f"sample size n={n} is negative")
    seq = np.random.SeedSequence([master_seed, n, replication])
    return np.random.Generator(np.random.Philox(seq))


def _philox_keys(seed: int, n: int, stop: int, start: int = 0) -> np.ndarray:
    """(stop - start, 2) uint64: ``SeedSequence([seed, n, r]).generate_state(2, np.uint64)``
    for r = start, ..., stop - 1.

    numpy's SeedSequence mixing (pool size 4, then generate_state) in uint32 arithmetic,
    over every r at once: its hash constants do not depend on the entropy words.
    """
    replications = stop - start
    entropy = [np.full(replications, x >> shift & 0xFFFFFFFF, np.uint32)  # little-endian words
               for x in (int(seed), int(n)) for shift in range(0, max(x.bit_length(), 1), 32)]
    entropy.append(np.arange(start, stop, dtype=np.uint32))  # r < _MAX_REPLICATIONS: one word
    const = 0x43B0D7E5

    def hashmix(value, mult=0x931E8875):
        nonlocal const
        value, const = value ^ const, const * mult & 0xFFFFFFFF
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        x = x * 0xCA01F9DD - hashmix(y) * 0x4973F715
        return x ^ x >> 16

    pool = [hashmix(w) for w in (entropy + [np.zeros(replications, np.uint32)] * 4)[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], pool[src])
    for word, dst in itertools.product(entropy[4:], range(4)):
        pool[dst] = mix(pool[dst], word)
    const = 0x8B51F9DD  # generate_state hashes the pool with its own constants
    lo0, hi0, lo1, hi1 = (hashmix(w, 0x58F38DED).astype(np.uint64) for w in pool)
    return np.stack([lo0 | hi0 << 32, lo1 | hi1 << 32], axis=1)


def _streams(seed: int, n: int, replications: int) -> Iterator[np.random.Generator]:
    """``replication_rng(seed, n, r)`` for r = 0, 1, ..., bit for bit, keyed by one
    ``_philox_keys`` pass per _KEY_BLOCK replications: one Generator is reset per r, so a
    stream lasts until the next.  ``check_run`` comes first."""
    bitgen = np.random.Philox(0)
    state, rng = bitgen.state, np.random.Generator(bitgen)  # counter 0, buffer empty: as new

    def keyed(key):
        state["state"]["key"] = key
        bitgen.state = state
        return rng

    blocks = (_philox_keys(seed, n, min(start + _KEY_BLOCK, replications), start)
              for start in range(0, replications, _KEY_BLOCK))
    return map(keyed, itertools.chain.from_iterable(blocks))


def _raw_draw(out: np.ndarray, lo: float, hi: float, mass: float,
              rng: np.random.Generator) -> np.ndarray:
    """out, filled with rng's first out.size standard normals in [lo, hi], in draw order."""
    n, filled = out.size, 0
    while filled < n:
        need = n - filled
        batch = rng.standard_normal(min(max(need + 8, int(need * 1.1 / mass)), _MAX_BATCH))
        inside = batch >= lo
        inside &= batch <= hi  # two masks live, not three
        keep = batch[inside][:need]
        out[filled : filled + len(keep)] = keep
        filled += len(keep)
    return out


def _draw_block(rows: np.ndarray, streams: Iterator[np.random.Generator], batch: int,
                lo: float, hi: float) -> np.ndarray:
    """Fills each row, one stream each, with its first rows.shape[1] draws in [lo, hi] if its
    stream's first batch holds as many (~17 B live a draw); returns the other rows' indices."""
    draws = np.empty((len(rows), batch))
    for r, rng in zip(range(len(rows)), streams):  # no row view outlives the buffer
        rng.standard_normal(out=draws[r])
    inside = draws >= lo
    inside &= draws <= hi
    counts, width = np.count_nonzero(inside, axis=1), rows.shape[1]
    take, kept = np.where(counts >= width, width, 0), draws[inside]
    del draws, inside
    keep = np.repeat(np.tile([True, False], len(rows)), np.c_[take, counts - take].ravel())
    rows[take > 0] = kept[keep].reshape(-1, width)
    return np.flatnonzero(take == 0)


def sample_truncated_normal(n: int, lo: float, hi: float,
                            rng: np.random.Generator) -> BoundedSample:
    """n iid draws from the standard normal restricted to [lo, hi], by rejection.

    Acceptance is ~0.9973 on [-3, 3]; ``normal_mass`` refuses rates below 1e-3, and
    ``check_run`` sizes below 1 or above _MAX_ROW.
    """
    check_run(n, 1, 0)
    return make_sample(_raw_draw(np.empty(n), lo, hi, normal_mass(lo, hi), rng), lo, hi)


def check_run(n: int, replications: int, seed: int, held_out: int = 0) -> None:
    """Refuses, before any key or draw, a run of replications samples of n values, each with
    held_out more draws: n below 1, a negative seed (SeedSequence refuses both too), more
    than _MAX_REPLICATIONS replications or _MAX_DRAWS values, or rows above _MAX_ROW."""
    if n < 1:
        raise EmptySample(f"sample size n={n} is below 1")
    if seed < 0:
        raise ValueError(f"seed={seed}: expected a non-negative integer")
    width = n + held_out
    size = f"sample size n={n:.6g}" + (f" plus {held_out} held out" if held_out else "")
    if replications > _MAX_REPLICATIONS or width * replications > _MAX_DRAWS:
        raise SampleTooLarge(f"{size} times {replications} replications exceeds "
                             f"{_MAX_DRAWS} values or {_MAX_REPLICATIONS} replications per run")
    if width > _MAX_ROW:
        raise SampleTooLarge(f"{size} exceeds {_MAX_ROW} values per sample")


def sample_chunks(support: tuple[float, float], seed: int, n: int, replications: int,
                  row_cells: int, held_out: int = 0) -> Iterator[np.ndarray]:
    """Replications 0, 1, ... in order, as (r, n + held_out) matrices.

    Row r is ``replication_rng(seed, n, r)``'s first n + held_out draws in the support,
    its first n sorted and checked.  row_cells counts the float64 cells the caller keeps
    live per row, the row itself included (``risk.batch_cells`` for the closed form and its
    minimizer), and r keeps r * row_cells within the chunk budget (r >= 1).  Each row is
    drawn from its own stream and evaluated alone, so output is the same for any chunking,
    on any support.  ``check_run`` comes before any key.

    Rows whose first batch (``_raw_draw``'s) holds n + held_out draws in the support with 4
    sd to spare, as on [-3, 3], are drawn in blocks and accepted at once (``_draw_block``);
    one still short is drawn again from its stream's start.  Elsewhere, as near the mass
    floor, rows are drawn one at a time, each finished from its live stream.
    """
    (lo, hi), mass, width = support, normal_mass(*support), n + held_out
    check_run(n, replications, seed, held_out)
    step = max(1, _CHUNK_CELLS // max(row_cells, 1))
    batch = min(max(width + 8, int(width * 1.1 / mass)), _MAX_BATCH)  # _raw_draw's first
    mean = batch * mass  # expected in the support: binomial, sd (mean (1 - mass))^(1/2)
    blocks = mean - width > 4 * (mean * (1 - mass)) ** 0.5
    block = max(1, _CHUNK_CELLS // (16 * batch))  # rows of <= 2^14 draws: 1/8 of the budget
    streams = _streams(seed, n, replications)
    for start in range(0, replications, step):
        rows = np.empty((min(step, replications - start), width))
        if blocks:
            for first in range(0, len(rows), block):
                for r in first + _draw_block(rows[first:first + block], streams, batch, lo, hi):
                    _raw_draw(rows[r], lo, hi, mass, replication_rng(seed, n, start + r))  # rare
        else:  # one at a time, each row finished from its own live stream
            for row, rng in zip(rows, streams):
                _raw_draw(row, lo, hi, mass, rng)
        rows[:, :n].sort(axis=1)
        check_values(rows.reshape(-1), lo, hi)  # held-out draws too: rows[:, :n] would copy
        yield rows


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
        if not 1 <= self.histogram_bins <= MAX_GRID:  # before any draw
            raise ValueError(f"histogram_bins={self.histogram_bins} outside [1, {MAX_GRID}]")
        lo, hi = self.percentiles
        if not 0 <= lo <= hi <= 1:  # false for NaN
            raise ValueError(f"percentiles ({lo}, {hi}) must satisfy 0 <= lo <= hi <= 1")
        if self.replications * self.theta_grid.count > _MAX_CURVES:  # before any draw
            raise SampleTooLarge(f"{self.replications} replications times {self.theta_grid.count} "
                                 f"thetas exceeds {_MAX_CURVES} stored curve values")
        for n in self.n_values:  # every n before the first draw
            check_run(n, self.replications, self.master_seed)


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


def _percentile_curves(grid: ThetaGrid, stack: np.ndarray, probs: Sequence[float],
                       kind: RiskKind) -> list[RiskCurve]:
    """Percentiles of the (m, k) stack's columns, linear between order statistics at p*(m-1):
    np.percentile's "linear" rule (Hyndman and Fan type 7) and arithmetic, over one sort.

    The stack is sorted in place."""
    stack.sort(axis=0)
    v = (len(stack) - 1) * np.true_divide([100.0 * p for p in probs], 100)[:, None]
    i = np.floor(v)
    gamma = v - i
    below = i[:, 0].astype(np.intp)
    a, b = stack[below], stack[np.minimum(below + 1, len(stack) - 1)]
    vals = a + (b - a) * gamma
    np.subtract(b, (b - a) * (1 - gamma), out=vals, where=gamma >= 0.5)  # numpy's two-sided lerp
    return [RiskCurve(grid=grid, values=row, kind=kind) for row in vals]


def aggregate_percentiles(
    curves: Sequence[RiskCurve], probs: Sequence[float]
) -> list[RiskCurve]:
    """Pointwise empirical percentiles across curves sharing one grid."""
    if not curves:
        raise EmptyInput("no curves to aggregate")
    grid = curves[0].grid
    for c in curves[1:]:
        if c.grid.count != grid.count or (c.grid.lo, c.grid.hi) != (grid.lo, grid.hi):
            raise GridMismatch("curves evaluated on different grids")
    stack = np.vstack([c.values for c in curves])
    if not np.isfinite(stack).all():
        raise NonFiniteValue("a curve to aggregate is not finite")
    return _percentile_curves(grid, stack, probs, curves[0].kind)


def histogram(values: Sequence[float], bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width histogram over the values' range (one unit wide about a single value);
    the last bin includes its upper edge.  A range too narrow for bins an ulp wide, as far
    from 0, is widened at each end by 2 bins ulps of its largest end, so each bin spans at
    least 2 ulps wherever it lies.  NaN, inf and a range wider than floats are refused."""
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise EmptyInput("no values to histogram")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if not np.isfinite(hi - lo):  # NaN, inf, or a range wider than the largest float
        raise NonFiniteValue(f"histogram range [{lo}, {hi}] is not finite, or wider than floats")
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    if not (np.diff(np.linspace(lo, hi, bins + 1)) > 0).all():  # np.histogram's edge check
        end = max(abs(lo), abs(hi))
        pad = 2 * bins * (end - float(np.nextafter(end, 0.0)))  # the ulp below: finite at max
        lo, hi = max(lo - pad, -_MAX_FLOAT), min(hi + pad, _MAX_FLOAT)
    counts, edges = np.histogram(vals, bins=bins, range=(lo, hi))
    return edges, counts


def run_replications(config: SimConfig) -> ReplicationSummary:
    """Replication sweep: upper-risk curves, percentile bands, minimizers.

    All replications of one n run as one batched path, chunk by chunk.
    """
    per_n: dict[int, NSummary] = {}
    p_lo, p_hi = config.percentiles
    grid, reps = config.theta_grid, config.replications
    a, b = config.model.support
    for n in config.n_values:
        curves, minimizers, done = np.empty((reps, grid.count)), np.empty(reps), 0
        cells = batch_cells(n, grid.count)
        for rows in sample_chunks((a, b), config.master_seed, n, reps, cells):
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite chunk is refused
                chunk = upper_risk_batch(config.loss, rows, a, b, grid.points)
            if not np.isfinite(chunk).all():  # the loss overflows somewhere on the grid
                raise NonFiniteValue(f"upper risk is not finite on [{grid.lo}, {grid.hi}]")
            part, done = slice(done, done + len(rows)), done + len(rows)
            curves[part] = chunk
            minimizers[part] = argmin_rows(config.loss, rows, a, b, grid)
        lo_c, med_c, hi_c = _percentile_curves(grid, curves, [p_lo, 0.5, p_hi], RiskKind.UPPER)
        per_n[n] = NSummary(med_c, lo_c, hi_c, minimizers,
                            *histogram(minimizers, config.histogram_bins))
    return ReplicationSummary(config=config, per_n=per_n)


def coverage_experiment(model: TrueModel, scores: Sequence[NonconformityScore], n: int,
                        alphas: Sequence[float], replications: int, seed: int) -> np.ndarray:
    """Monte Carlo hit frequencies of the level-(1-alpha) prediction sets, (alphas, scores).

    Membership of the held-out point in the union of the first k focal
    sets is equivalent to its rank pivot being <= k, which is what is
    tested (exact for every score, no grid discretization).  One draw of
    each replication serves every alpha and score.
    """
    if replications < 1:
        raise ValueError(f"replications={replications}: need at least 1")
    ks = np.array([nested_set_index(n, alpha) for alpha in alphas], dtype=int)[:, None]
    hits = np.zeros((len(alphas), len(scores)), dtype=int)
    # a row keeps itself live, n + 1 cells; a rank pass adds O(1) per row and score
    for rows in sample_chunks(model.support, seed, n, replications, n + 1, held_out=1):
        for j, score in enumerate(scores):
            ranks = rank_rows(rows[:, :n], rows[:, n:], score)[:, 0]
            hits[:, j] += np.count_nonzero(ranks <= ks, axis=1)
    return hits / replications


def write_summary(summary: ReplicationSummary, out_dir: str | Path) -> None:
    """Serialize a ReplicationSummary to a directory of CSV files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = summary.config
    for n, s in summary.per_n.items():
        for name, c in (("median", s.median_curve), ("band_lo", s.band_lo),
                        ("band_hi", s.band_hi)):
            text = format_csv("theta,value", zip(c.grid.points.tolist(), c.values.tolist()))
            (out / f"{name}_n{n}.csv").write_text(text)
        minimizers = s.minimizers.tolist()
        (out / f"minimizers_n{n}.csv").write_text("%.17g\n" * len(minimizers) % tuple(minimizers))
        edges = s.histogram_edges.tolist()
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
        "model": "truncated_std_normal",
        "support": list(cfg.model.support),
        "loss": cfg.loss.kind.value,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
