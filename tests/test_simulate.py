import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focalrisk import (
    NonconformityScore,
    RiskKind,
    SimConfig,
    ThetaGrid,
    TrueModel,
    aggregate_percentiles,
    coverage_experiment,
    histogram,
    replication_rng,
    run_replications,
    sample_truncated_normal,
    squared_error_loss,
)
from focalrisk.conformal import coverage_probability, nested_set_index
from focalrisk.data_model import normal_mass
from focalrisk.errors import (DegenerateSupport, EmptyInput, EmptySample, GridMismatch,
                              InvalidAlpha, NonFiniteValue, SampleTooLarge, SupportMassTooSmall)
from focalrisk.risk import RiskCurve, batch_cells, upper_risk_batch
from focalrisk.simulate import (_CHUNK_CELLS, _MAX_ROW, _philox_keys, _raw_draw, _streams,
                                sample_chunks, write_summary)
from oracles import argmin_and_min

MODEL = TrueModel.truncated_std_normal(-3, 3)
TRUNC_VAR = 0.97333692466254148
_BIG = float(np.finfo(float).max)


def _draws(n, rng):
    """rng's first n draws in [-3, 3], in draw order."""
    return _raw_draw(np.empty(n), -3, 3, normal_mass(-3, 3), rng)


def _no_streams(*args):
    raise AssertionError("a stream was keyed before the run was refused")


class TestSampleTruncatedNormal:
    def test_within_support(self):
        rng = replication_rng(0, 5, 0)
        s = sample_truncated_normal(1000, -3, 3, rng)
        assert np.all(s.values >= -3) and np.all(s.values <= 3)

    def test_moments(self):
        rng = replication_rng(1, 0, 0)
        s = sample_truncated_normal(10**6, -3, 3, rng)
        assert np.mean(s.values) == pytest.approx(0.0, abs=0.005)
        assert np.var(s.values) == pytest.approx(TRUNC_VAR, abs=0.005)

    def test_degenerate(self):
        with pytest.raises(DegenerateSupport):
            sample_truncated_normal(10, 1, 1, replication_rng(0, 0, 0))

    def test_negative_sample_size_refused(self):
        # before, numpy's SeedSequence refused it with a message about entropy
        with pytest.raises(EmptySample):
            replication_rng(0, -3, 0)

    @pytest.mark.parametrize("n, error", [(0, EmptySample), (-3, EmptySample),
                                          (_MAX_ROW + 1, SampleTooLarge)])
    def test_sample_size_refused_before_allocation(self, n, error):
        # n = -3 ended in numpy's untyped "negative dimensions"; a row over the cap would
        # take 128 MiB before its refusal
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(error):
                sample_truncated_normal(n, -3, 3, replication_rng(0, 0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_negligible_mass_refused(self):
        # The sampler runs in a fresh interpreter with a timeout: without the check it hangs.
        import subprocess
        import sys
        from pathlib import Path

        import focalrisk

        for lo, hi in [(10, 11), (40, 41), (3.2, 4)]:
            with pytest.raises(SupportMassTooSmall):
                TrueModel.truncated_std_normal(lo, hi)
            code = ("from focalrisk import replication_rng, sample_truncated_normal as f\n"
                    f"f(5, {lo}, {hi}, replication_rng(0, 5, 0))\n")
            env = {"PYTHONPATH": str(Path(focalrisk.__file__).parents[1])}
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, timeout=60)
            assert "SupportMassTooSmall" in out.stderr
        s = sample_truncated_normal(5, 3, 4, replication_rng(0, 5, 0))  # mass 1.3e-3
        assert np.all((s.values >= 3) & (s.values <= 4))

    @pytest.mark.parametrize("n, lo, hi", [(500, -3, 3), (60, 3, 4)])
    def test_first_in_support_draws(self, n, lo, hi):
        # oracle: one draw at a time from the same stream, kept while inside
        for r in range(3):
            rng, kept = replication_rng(11, n, r), []
            while len(kept) < n:
                y = rng.standard_normal()
                if lo <= y <= hi:
                    kept.append(y)
            out = _raw_draw(np.empty(n), lo, hi, normal_mass(lo, hi), replication_rng(11, n, r))
            assert out.tolist() == kept
            s = sample_truncated_normal(n, lo, hi, replication_rng(11, n, r))
            assert s.values.tolist() == sorted(kept)

    def test_batches_scale_with_acceptance(self):
        # [3, 4] accepts 1.3e-3 of the draws; batches of ~1.1 x the values still
        # needed took ~700 rounds per sample of 200
        class Counting:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def standard_normal(self, size):
                self.calls += 1
                return self.rng.standard_normal(size)

        for r in range(5):
            rng = Counting(replication_rng(0, 200, r))
            sample_truncated_normal(200, 3, 4, rng)
            assert rng.calls <= 3

    def test_stream_determinism(self):
        a = sample_truncated_normal(50, -3, 3, replication_rng(9, 20, 3))
        b = sample_truncated_normal(50, -3, 3, replication_rng(9, 20, 3))
        assert np.array_equal(a.values, b.values)

    def test_streams_differ(self):
        a = sample_truncated_normal(50, -3, 3, replication_rng(9, 20, 3))
        b = sample_truncated_normal(50, -3, 3, replication_rng(9, 20, 4))
        assert not np.array_equal(a.values, b.values)


class TestStreams:
    """The vectorized keys and the reused Generator against ``replication_rng``, the oracle."""

    @given(seed=st.integers(0, 2**128 - 1), n=st.integers(0, 2**24), r=st.integers(0, 2**18 - 1))
    @example(seed=0, n=0, r=0)
    @example(seed=2**32 - 1, n=2**24, r=2**18 - 1)  # 3 words: the pool is padded
    @example(seed=2**32, n=5, r=7)  # 4 words: the pool is full
    @example(seed=2**128 - 1, n=2**24, r=2**18 - 1)  # 6 words: SeedSequence's second loop
    def test_keys_equal_seed_sequence(self, seed, n, r):
        want = np.random.SeedSequence([seed, n, r]).generate_state(2, np.uint64)
        assert np.array_equal(_philox_keys(seed, n, r + 1)[r], want)
        assert np.array_equal(_philox_keys(seed, n, r + 1, r)[0], want)  # keyed alone

    def test_key_blocks_join_into_one_run_of_streams(self, monkeypatch):
        import focalrisk.simulate as simulate

        monkeypatch.setattr(simulate, "_KEY_BLOCK", 3)
        for r, rng in enumerate(_streams(5, 7, 10)):  # blocks 0-2, 3-5, 6-8 and 9
            assert str(rng.bit_generator.state) == str(replication_rng(5, 7, r).bit_generator.state)

    def test_keys_of_a_large_run_take_one_block_at_a_time(self):
        # keying all 2^18 replications at once peaked at 23.0 MiB before the first draw
        import tracemalloc

        cells = batch_cells(1, 101)
        next(sample_chunks((-3.0, 3.0), 0, 1, 3, cells))  # first-call allocations
        tracemalloc.start()
        try:
            rows = next(sample_chunks((-3.0, 3.0), 0, 1, 1 << 18, cells))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (_CHUNK_CELLS // cells, 1)
        assert peak < 2**20

    @pytest.mark.parametrize("lo, hi", [(-3.0, 3.0), (3.0, 4.0)])  # [3, 4]: near the mass floor
    @pytest.mark.parametrize("seed", [6, 2**64 + 6])
    def test_raw_batches_equal_replication_rng(self, lo, hi, seed):
        # every batch _raw_draw asks for, compared whole, not only the values it keeps
        class Recording:
            def __init__(self, rng):
                self.rng, self.batches = rng, []

            def standard_normal(self, size):
                self.batches.append(self.rng.standard_normal(size))
                return self.batches[-1]

        n, mass = 40, normal_mass(lo, hi)
        for r, rng in enumerate(_streams(seed, n, 20)):
            got, want = Recording(rng), Recording(replication_rng(seed, n, r))
            _raw_draw(np.empty(n), lo, hi, mass, got)
            _raw_draw(np.empty(n), lo, hi, mass, want)
            assert len(got.batches) == len(want.batches)
            assert all(map(np.array_equal, got.batches, want.batches))

    def test_negative_seed_refused(self, monkeypatch):
        # before any key: SeedSequence, which replication_rng still calls, refuses it too
        import focalrisk.simulate as simulate

        monkeypatch.setattr(simulate, "_streams", _no_streams)
        with pytest.raises(ValueError, match="non-negative"):
            next(sample_chunks((-3.0, 3.0), -1, 5, 3, 1))
        with pytest.raises(ValueError, match="non-negative"):
            replication_rng(-1, 5, 0)


class TestSampleChunks:
    @pytest.mark.parametrize("lo, hi", [(-3.0, 3.0), (3.0, 4.0)])  # [3, 4]: near the mass floor
    def test_rows_equal_per_replication_samples(self, lo, hi, monkeypatch):
        # row_cells leaves room for 7 rows per chunk: 20 replications span 3 chunks
        import focalrisk.simulate as simulate

        n, reps, keyings, streams = 40, 20, [], simulate._streams

        def recorded(*args):
            keyings.append(args)
            return streams(*args)

        monkeypatch.setattr(simulate, "_streams", recorded)
        chunks = list(sample_chunks((lo, hi), 6, n, reps, _CHUNK_CELLS // 7))
        assert [len(c) for c in chunks] == [7, 7, 6]
        assert keyings == [(6, n, reps)]  # the whole run is keyed once, not chunk by chunk
        want = np.stack([sample_truncated_normal(n, lo, hi, replication_rng(6, n, r)).values
                         for r in range(reps)])
        assert np.array_equal(np.concatenate(chunks), want)

    @pytest.mark.parametrize("lo, hi, n, max_batch, mass, alone", [
        (-3.0, 3.0, 40, 1 << 20, None, "none"),  # blocks of rows, none short
        (-3.0, 3.0, 40, 40, None, "all"),  # a batch cap at the row's width: one at a time
        (3.0, 4.0, 40, 4096, None, "all"),
        (-1.0, 1.0, 20, 1 << 20, 1.0, "some"),  # an overstated mass: blocks with short rows
        (3.0, 4.0, 5, 1 << 20, 1.0, "all")])
    def test_short_rows_equal_per_replication_samples(self, lo, hi, n, max_batch, mass, alone,
                                                      monkeypatch):
        # a row short of its width in its block's draws is drawn again, alone, from its own
        # stream; rows drawn one at a time finish from theirs: either way, the sampler's rows
        import focalrisk.simulate as simulate

        want = np.stack([sample_truncated_normal(n, lo, hi, replication_rng(3, n, r)).values
                         for r in range(60)])
        calls, raw_draw = [], simulate._raw_draw

        def recorded(out, *args):
            calls.append(out.size)
            return raw_draw(out, *args)

        monkeypatch.setattr(simulate, "_MAX_BATCH", max_batch)
        monkeypatch.setattr(simulate, "_raw_draw", recorded)
        if mass is not None:  # first batches too small for the rows: values do not move
            monkeypatch.setattr(simulate, "normal_mass", lambda lo, hi: mass)
        got = np.concatenate(list(sample_chunks((lo, hi), 3, n, 60, _CHUNK_CELLS // 25)))
        assert np.array_equal(got, want)
        assert calls == [n] * len(calls)
        assert {"none": len(calls) == 0, "all": len(calls) == 60,
                "some": 0 < len(calls) < 60}[alone]

    def test_chunk_peak_memory_near_the_mass_floor(self):
        # on [3, 4] (mass 1.3e-3) a row's first batch is ~1.7e5 draws at n = 200; 11 B a
        # draw is that batch with three masks live, what one row took drawn with them
        # (11.03 B measured): a chunk of 16 rows stays below it
        import tracemalloc

        n = 200
        batch = int(n * 1.1 / normal_mass(3.0, 4.0))
        next(sample_chunks((3.0, 4.0), 0, n, 1, n))  # first-call allocations
        tracemalloc.start()
        try:
            rows = next(sample_chunks((3.0, 4.0), 2, n, 16, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (16, n)
        assert peak <= 11 * batch

    def test_held_out_column_follows_the_sorted_sample(self):
        n, reps, seed = 30, 12, 4
        chunks = list(sample_chunks((-3.0, 3.0), seed, n, reps, _CHUNK_CELLS // 5, held_out=1))
        assert [c.shape for c in chunks] == [(5, n + 1), (5, n + 1), (2, n + 1)]
        for r, row in enumerate(np.concatenate(chunks)):
            draws = _draws(n + 1, replication_rng(seed, n, r))
            assert row[n] == draws[n]
            assert np.array_equal(row[:n], np.sort(draws[:n]))

    def test_chunk_peak_memory_near_its_size(self):
        # one full chunk of 20 sorted draws and a held-out one, as coverage draws them;
        # building it from a list of row arrays peaked at 3x its size
        import tracemalloc

        width = 21
        next(sample_chunks((-3.0, 3.0), 0, 20, 3, width, held_out=1))  # first-call allocations
        tracemalloc.start()
        try:
            rows = next(sample_chunks((-3.0, 3.0), 0, 20, _CHUNK_CELLS // width, width,
                                      held_out=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (_CHUNK_CELLS // width, width)
        assert peak < 1.5 * rows.nbytes

    @pytest.mark.parametrize("n, k", [(20, 101), (1063, 101), (95, 3)])
    @pytest.mark.parametrize("kind", ["squared", "absolute"])
    def test_chunk_peak_memory_within_twice_the_budget(self, kind, n, k):
        # one full chunk, sized by batch_cells, drawn, then its curves and minimizers
        import tracemalloc

        from focalrisk import absolute_error_loss

        loss = {"squared": squared_error_loss(), "absolute": absolute_error_loss()}[kind]
        grid, cells = ThetaGrid(-1, 1, k), batch_cells(n, k)
        per_chunk = _CHUNK_CELLS // cells
        next(sample_chunks((-3.0, 3.0), 0, n, 1, cells))  # first-call allocations
        tracemalloc.start()
        try:
            rows = next(sample_chunks((-3.0, 3.0), 0, n, per_chunk, cells))
            upper_risk_batch(loss, rows, -3.0, 3.0, grid.points)
            argmin_and_min(loss, rows, -3.0, 3.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (per_chunk, n)
        assert peak <= 2 * _CHUNK_CELLS * 8

    def test_rows_checked(self):
        with pytest.raises(EmptySample):
            next(sample_chunks((-3.0, 3.0), 0, 0, 5, 1))
        with pytest.raises(EmptySample):  # the held-out draws are no sample
            next(sample_chunks((-3.0, 3.0), 0, 0, 5, 1, held_out=1))
        with pytest.raises(SupportMassTooSmall):
            next(sample_chunks((10.0, 11.0), 0, 5, 5, 1))

    def test_draws_per_run_capped_before_any_draw(self, monkeypatch):
        import focalrisk.simulate as simulate

        monkeypatch.setattr(simulate, "_MAX_DRAWS", 100)
        assert len(next(sample_chunks((-3.0, 3.0), 0, 10, 10, 1))) == 10  # exactly at the cap
        monkeypatch.setattr(simulate, "_streams", _no_streams)  # no stream to draw
        with pytest.raises(SampleTooLarge, match="n=10 times 11 replications"):
            next(sample_chunks((-3.0, 3.0), 0, 10, 11, 1))
        with pytest.raises(SampleTooLarge, match="n=10 plus 1 held out times 10 replications"):
            coverage_experiment(MODEL, [NonconformityScore.identity()], 10, [0.2], 10, 0)

    def test_replications_capped_before_any_draw(self, monkeypatch):
        # each replication sets up its own stream, whatever n is
        import focalrisk.simulate as simulate

        monkeypatch.setattr(simulate, "_MAX_REPLICATIONS", 10)
        assert len(next(sample_chunks((-3.0, 3.0), 0, 1, 10, 1))) == 10  # exactly at the cap
        monkeypatch.setattr(simulate, "_streams", _no_streams)  # no stream to draw
        with pytest.raises(SampleTooLarge, match="or 10 replications per run"):
            next(sample_chunks((-3.0, 3.0), 0, 1, 11, 1))
        with pytest.raises(SampleTooLarge, match="or 10 replications per run"):
            coverage_experiment(MODEL, [NonconformityScore.identity()], 1, [0.2], 11, 0)

    def test_stored_curves_capped_before_any_draw(self, monkeypatch):
        import focalrisk.simulate as simulate

        monkeypatch.setattr(simulate, "_MAX_CURVES", 50)
        monkeypatch.setattr(simulate, "_streams", _no_streams)  # no stream to draw
        SimConfig(model=MODEL, loss=squared_error_loss(), n_values=(5,), replications=10,
                  theta_grid=ThetaGrid(-1, 1, 5))  # exactly at the cap
        with pytest.raises(SampleTooLarge, match="10 replications times 6 thetas exceeds 50"):
            SimConfig(model=MODEL, loss=squared_error_loss(), n_values=(5,), replications=10,
                      theta_grid=ThetaGrid(-1, 1, 6))


    @pytest.mark.parametrize("field", [{"percentiles": (0.05, 1.5)},
                                       {"percentiles": (0.05, float("nan"))},
                                       {"percentiles": (-0.1, 0.95)},
                                       {"percentiles": (0.95, 0.05)},
                                       {"histogram_bins": 65537}, {"histogram_bins": 0}])
    def test_bad_percentiles_and_bins_refused_before_any_draw(self, monkeypatch, field):
        # percentiles outside [0, 1] were refused by numpy after the whole run; bins had no cap
        import focalrisk.simulate as simulate

        monkeypatch.setattr(simulate, "_streams", _no_streams)  # no stream to draw
        with pytest.raises(ValueError, match="percentiles|histogram_bins"):
            run_replications(SimConfig(model=MODEL, loss=squared_error_loss(), n_values=(5,),
                                       replications=10, theta_grid=ThetaGrid(-1, 1, 5), **field))


def _flat_curve(value, grid):
    return RiskCurve(grid=grid, values=np.full(grid.count, float(value)), kind=RiskKind.UPPER)


class TestAggregatePercentiles:
    grid = ThetaGrid(0, 1, 5)

    def test_identical_curves(self):
        curves = [_flat_curve(2.0, self.grid)] * 4
        out = aggregate_percentiles(curves, [0.05, 0.5, 0.95])
        for c in out:
            assert np.allclose(c.values, 2.0)

    def test_two_curve_median_is_average(self):
        out = aggregate_percentiles(
            [_flat_curve(1.0, self.grid), _flat_curve(3.0, self.grid)], [0.5]
        )
        assert np.allclose(out[0].values, 2.0)

    def test_interpolated_position(self):
        curves = [_flat_curve(v, self.grid) for v in (1.0, 2.0, 3.0)]
        out = aggregate_percentiles(curves, [0.95])
        assert np.allclose(out[0].values, 2.9)

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 1500), k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           decimals=st.integers(0, 3),
           probs=st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)),
                          min_size=1, max_size=8))
    @example(m=1, k=1, seed=0, decimals=0, probs=[0.0, 1.0, 1.0, 0.05])
    @example(m=2, k=3, seed=1, decimals=1, probs=[0.0, 0.05, 0.5, 0.95, 1.0])
    @example(m=257, k=7, seed=3, decimals=2, probs=[0.05, 0.5, 0.95, 0.0, 1.0, 0.333])
    def test_equal_one_percentile_at_a_time(self, m, k, seed, decimals, probs):
        # one sort, in place, against one np.percentile call per prob on a copy (rounding
        # makes ties); only a zero's sign may differ, in a column holding both -0.0 and 0.0
        # (sort and partition may order them apart) or a lone -0.0 (numpy's b - 0.0, here a + 0.0)
        stack = np.round(np.random.default_rng(seed).normal(size=(m, k)), decimals)
        grid = ThetaGrid(0, 1, k)
        out = aggregate_percentiles([RiskCurve(grid, row, RiskKind.UPPER) for row in stack], probs)
        zero = stack == 0
        negative_zero = (zero & np.signbit(stack)).any(axis=0)
        plain = ~(negative_zero & ((zero & ~np.signbit(stack)).any(axis=0) | (m == 1)))
        for got, p in zip(out, probs):
            want = np.percentile(stack, 100.0 * p, axis=0, method="linear")
            assert got.values[plain].tobytes() == want[plain].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_curve_refused(self, bad):
        # np.percentile returned NaN bands here
        curves = [_flat_curve(1.0, self.grid), _flat_curve(bad, self.grid)]
        with pytest.raises(NonFiniteValue):
            aggregate_percentiles(curves, [0.5])

    def test_grid_mismatch(self):
        other = ThetaGrid(0, 2, 5)
        with pytest.raises(GridMismatch):
            aggregate_percentiles(
                [_flat_curve(1, self.grid), _flat_curve(1, other)], [0.5]
            )

    def test_empty(self):
        with pytest.raises(EmptyInput):
            aggregate_percentiles([], [0.5])


class TestHistogram:
    def test_all_identical(self):
        edges, counts = histogram([2.0] * 7, bins=4)
        assert counts.sum() == 7
        assert np.count_nonzero(counts) == 1

    def test_upper_edge_in_last_bin(self):
        edges, counts = histogram([0, 0.25, 0.5, 0.75, 1], bins=2)
        assert edges.tolist() == [0, 0.5, 1]
        assert counts.tolist() == [2, 3]

    def test_conservation(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(-1, 1, 137)
        _, counts = histogram(vals, bins=13)
        assert counts.sum() == 137

    def test_empty(self):
        with pytest.raises(EmptyInput):
            histogram([], bins=3)

    def test_narrow_range_far_from_zero(self):
        # one ulp at 1e15 is 0.125, so 30 bins of the +-0.5 about one value, or of a range
        # 0.25 wide, fell under an ulp: np.histogram raised "Too many bins for data range"
        for vals in ([1e15] * 3, [1e15, 1e15 + 0.25]):
            edges, counts = histogram(vals, bins=30)
            assert counts.sum() == len(vals) and np.all(np.diff(edges) > 0)
            assert edges[0] <= min(vals) and max(vals) <= edges[-1]
        big = np.finfo(float).max  # no end may overflow
        for vals in ([big] * 2, [-big] * 2, [np.nextafter(2.0**60, 0)] * 3, [0.0, 5e-324]):
            for bins in (1, 7, 30, 65536):
                edges, counts = histogram(vals, bins=bins)
                assert counts.sum() == len(vals) and np.all(np.diff(edges) > 0)

    @pytest.mark.parametrize("vals", [[-1e308, 1e308], [-_BIG, _BIG], [0.0, np.nan],
                                      [np.inf, np.inf], [-np.inf, 0.0]])
    def test_range_wider_than_floats_refused(self, vals):
        # hi - lo overflowed: three overflow RuntimeWarnings, then numpy's "Too many bins"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="not finite"):
                histogram(vals, bins=3)

    def test_ranges_wide_enough_keep_their_bytes(self):
        # the earlier histogram, where np.histogram accepts its range
        def parent(vals, bins):
            lo, hi = min(vals), max(vals)
            if lo == hi:
                lo, hi = lo - 0.5, hi + 0.5
            counts, edges = np.histogram(vals, bins=bins, range=(lo, hi))
            return edges, counts

        rng, kept = np.random.default_rng(3), 0
        for centre in (0.0, 1.0, -7.5, 1e6, 1e12, 1e15, -1e15, 1e17):
            for width in (0.0, 0.25, 1.0, 4.0, 30.0, 1e3):
                vals = (centre + width * rng.uniform(0, 1, 5)).tolist() + [centre]
                for bins in (1, 2, 30):
                    try:
                        want = parent(vals, bins)
                    except ValueError:  # too narrow: widened now
                        continue
                    got = histogram(vals, bins)
                    assert got[0].tobytes() == want[0].tobytes()
                    assert got[1].tobytes() == want[1].tobytes()
                    kept += 1
        assert kept > 100
        for vals in ([1e308, 1.5e308], [-1e308, 0.0]):  # wide ranges a float still holds
            got, want = histogram(vals, 3), parent(vals, 3)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


def _small_config(reps=5, seed=0):
    return SimConfig(
        model=MODEL,
        loss=squared_error_loss((-1, 1)),
        n_values=(10,),
        replications=reps,
        theta_grid=ThetaGrid(-1, 1, 21),
        master_seed=seed,
    )


class TestRunReplications:
    def test_single_replication_bands_collapse(self):
        summary = run_replications(_small_config(reps=1))
        s = summary.per_n[10]
        assert np.array_equal(s.band_lo.values, s.median_curve.values)
        assert np.array_equal(s.band_hi.values, s.median_curve.values)

    def test_band_ordering_and_counts(self):
        summary = run_replications(_small_config(reps=20))
        s = summary.per_n[10]
        assert np.all(s.band_lo.values <= s.median_curve.values)
        assert np.all(s.median_curve.values <= s.band_hi.values)
        assert len(s.minimizers) == 20
        assert s.histogram_counts.sum() == 20

    def test_rerun_identical(self):
        s1 = run_replications(_small_config(reps=16))
        s2 = run_replications(_small_config(reps=16))
        assert np.array_equal(s1.per_n[10].minimizers, s2.per_n[10].minimizers)
        assert np.array_equal(
            s1.per_n[10].median_curve.values, s2.per_n[10].median_curve.values
        )

    def test_domination(self):
        # every replicated upper-risk curve >= n * R_n / (n+1) pointwise
        from focalrisk.risk import closed_form_curve, empirical_risk_curve

        cfg = _small_config(reps=10)
        for r in range(10):
            rng = replication_rng(cfg.master_seed, 10, r)
            sample = sample_truncated_normal(10, -3, 3, rng)
            upper = closed_form_curve(cfg.loss, sample, cfg.theta_grid.points)
            emp = empirical_risk_curve(cfg.loss, sample, cfg.theta_grid.points)
            assert np.all(upper >= 10 * emp / 11 - 1e-12)

    def test_chunks_match_per_replication(self):
        # R spans several chunks; each replication must equal the one-sample path
        from focalrisk import minimize_upper_risk
        from focalrisk.risk import closed_form_curve
        import focalrisk.simulate as simulate

        n, grid, loss = 300, ThetaGrid(-1, 1, 101), squared_error_loss((-1, 1))
        per_chunk = _CHUNK_CELLS // batch_cells(n, grid.count)
        cfg = SimConfig(
            model=MODEL, loss=loss, n_values=(n,),
            replications=2 * per_chunk + 3, theta_grid=grid, master_seed=4,
        )
        chunks, sampler = [], simulate.sample_chunks

        def recorded(*args):
            for rows in sampler(*args):
                chunks.append(len(rows))
                yield rows

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "sample_chunks", recorded)
            s = run_replications(cfg).per_n[n]
        assert chunks == [per_chunk, per_chunk, 3]
        curves, minimizers = [], []
        for r in range(cfg.replications):
            sample = sample_truncated_normal(n, -3, 3, replication_rng(4, n, r))
            curves.append(RiskCurve(grid, closed_form_curve(cfg.loss, sample, grid.points),
                                    RiskKind.UPPER))
            minimizers.append(minimize_upper_risk(cfg.loss, sample, grid)[0])
        assert np.array_equal(s.minimizers, minimizers)
        p_lo, p_hi = cfg.percentiles
        lo, med, hi = aggregate_percentiles(curves, [p_lo, 0.5, p_hi])
        for got, want in ((s.band_lo, lo), (s.median_curve, med), (s.band_hi, hi)):
            assert np.array_equal(got.values, want.values)

    def test_any_chunk_budget_gives_the_same_summary(self, monkeypatch):
        # on [-3, 10] the support's centre lies above most rows: no row may see its chunk
        import focalrisk.simulate as simulate

        cfg = SimConfig(model=TrueModel.truncated_std_normal(-3, 10),
                        loss=squared_error_loss((-1, 1)), n_values=(20, 50), replications=60,
                        theta_grid=ThetaGrid(-1, 1, 21), master_seed=2)
        summaries = []
        for budget in (_CHUNK_CELLS, 3000):  # one chunk per n, then chunks of 2 and 1 rows
            monkeypatch.setattr(simulate, "_CHUNK_CELLS", budget)
            summaries.append(run_replications(cfg).per_n)
        for n, s in summaries[0].items():
            t = summaries[1][n]
            for got, want in ((s.median_curve, t.median_curve), (s.band_lo, t.band_lo),
                              (s.band_hi, t.band_hi)):
                assert np.array_equal(got.values, want.values)
            assert np.array_equal(s.minimizers, t.minimizers)
            assert np.array_equal(s.histogram_counts, t.histogram_counts)

    def test_serialization_deterministic(self, tmp_path):
        summary = run_replications(_small_config(reps=8))
        write_summary(summary, tmp_path / "a")
        write_summary(run_replications(_small_config(reps=8)), tmp_path / "b")
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    @pytest.mark.parametrize("kind", ["squared", "absolute"])
    def test_closed_form_only_on_the_grid(self, monkeypatch, kind):
        # the minimizers need no closed form: it was evaluated again at each row's argmin
        import focalrisk.risk as risk_mod
        import focalrisk.simulate as simulate
        from focalrisk import absolute_error_loss

        shapes = []

        def record(loss, rows, a, b, thetas, upper=risk_mod.upper_risk_batch):
            shapes.append(np.shape(thetas))
            return upper(loss, rows, a, b, thetas)

        monkeypatch.setattr(risk_mod, "upper_risk_batch", record)
        monkeypatch.setattr(simulate, "upper_risk_batch", record)
        loss = {"squared": squared_error_loss(), "absolute": absolute_error_loss()}[kind]
        grid = ThetaGrid(-1, 1, 21)
        summary = run_replications(SimConfig(model=MODEL, loss=loss, n_values=(10, 31),
                                             replications=40, theta_grid=grid))
        assert all(len(s.minimizers) == 40 for s in summary.per_n.values())
        assert shapes and set(shapes) == {(grid.count,)}

    def test_file_inventory(self, tmp_path):
        summary = run_replications(_small_config(reps=3))
        write_summary(summary, tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "median_n10.csv", "band_lo_n10.csv", "band_hi_n10.csv",
            "minimizers_n10.csv", "histogram_n10.csv", "meta.json",
        }


class TestCoverageExperiment:
    def test_inputs_refused(self):
        identity = NonconformityScore.identity()
        with pytest.raises(ValueError, match="at least 1"):  # was a ZeroDivisionError
            coverage_experiment(MODEL, [identity], n=20, alphas=[0.2], replications=0, seed=0)
        with pytest.raises(InvalidAlpha):
            coverage_experiment(MODEL, [identity], n=20, alphas=[0.2, 1.5], replications=10,
                                seed=0)

    def test_full_support_exact(self):
        [[emp]] = coverage_experiment(
            MODEL, [NonconformityScore.identity()], n=4, alphas=[0.01],
            replications=200, seed=0,
        )
        assert emp == 1.0
        assert coverage_probability(4, nested_set_index(4, 0.01)) == 1.0

    def test_identity_near_nominal(self):
        [[emp]] = coverage_experiment(
            MODEL, [NonconformityScore.identity()], n=20, alphas=[0.2],
            replications=2000, seed=1,
        )
        nominal = coverage_probability(20, nested_set_index(20, 0.2))
        assert nominal == pytest.approx(17 / 21)
        half_width = 2.576 * np.sqrt(nominal * (1 - nominal) / 2000)
        assert abs(emp - nominal) <= half_width + 0.01

    @pytest.mark.parametrize("score", [NonconformityScore.identity(),
                                       NonconformityScore.distance_to_loo_mean()],
                             ids=["score0", "score1"])
    def test_hits_equal_per_replication_oracle(self, score):
        # one score's hit counts against a loop over replication_rng(seed, n, r)
        from focalrisk import make_sample, rank_candidate

        n, alphas, reps, seed = 7, [0.05, 0.3, 0.5], 300, 5
        ks, hits = [nested_set_index(n, alpha) for alpha in alphas], np.zeros((3, 1), dtype=int)
        for r in range(reps):
            draws = _draws(n + 1, replication_rng(seed, n, r))
            sample = make_sample(draws[:n], -3, 3)
            rank = rank_candidate(sample, float(draws[n]), score)
            hits[:, 0] += [rank <= k for k in ks]
        assert np.array_equal(coverage_experiment(MODEL, [score], n, alphas, reps, seed),
                              hits / reps)

    def test_hits_matrix_equal_per_replication_oracle(self):
        # the hit counts of a loop over replication_rng(seed, n, r), the parent's path
        from focalrisk import make_sample, rank_candidate

        n, alphas, reps, seed = 7, [0.05, 0.3, 0.5], 300, 5
        scores = [NonconformityScore.identity(), NonconformityScore.distance_to_loo_mean()]
        ks, hits = [nested_set_index(n, alpha) for alpha in alphas], np.zeros((3, 2), dtype=int)
        for r in range(reps):
            draws = _draws(n + 1, replication_rng(seed, n, r))
            sample = make_sample(draws[:n], -3, 3)
            for (i, k), (j, score) in itertools.product(enumerate(ks), enumerate(scores)):
                hits[i, j] += rank_candidate(sample, float(draws[n]), score) <= k
        assert np.array_equal(coverage_experiment(MODEL, scores, n, alphas, reps, seed),
                              hits / reps)

    def test_loo_mean_same_nominal(self):
        [[emp]] = coverage_experiment(
            MODEL, [NonconformityScore.distance_to_loo_mean()], n=20, alphas=[0.2],
            replications=1000, seed=2,
        )
        nominal = coverage_probability(20, nested_set_index(20, 0.2))
        assert nominal == pytest.approx(17 / 21)
        assert abs(emp - nominal) < 0.05
