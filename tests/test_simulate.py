import numpy as np
import pytest

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
from focalrisk.errors import DegenerateSupport, EmptyInput, GridMismatch, SupportMassTooSmall
from focalrisk.risk import RiskCurve
from focalrisk.simulate import write_summary

MODEL = TrueModel.truncated_std_normal(-3, 3)
TRUNC_VAR = 0.97333692466254148


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

    def test_stream_determinism(self):
        a = sample_truncated_normal(50, -3, 3, replication_rng(9, 20, 3))
        b = sample_truncated_normal(50, -3, 3, replication_rng(9, 20, 3))
        assert np.array_equal(a.values, b.values)

    def test_streams_differ(self):
        a = sample_truncated_normal(50, -3, 3, replication_rng(9, 20, 3))
        b = sample_truncated_normal(50, -3, 3, replication_rng(9, 20, 4))
        assert not np.array_equal(a.values, b.values)


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
        edges, counts = histogram([0, 0.25, 0.5, 0.75, 1], bins=2, value_range=(0, 1))
        assert counts.tolist() == [2, 3]

    def test_conservation(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(-1, 1, 137)
        _, counts = histogram(vals, bins=13)
        assert counts.sum() == 137

    def test_empty(self):
        with pytest.raises(EmptyInput):
            histogram([], bins=3)


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
        from focalrisk import empirical_risk, make_sample
        from focalrisk.risk import closed_form_curve

        cfg = _small_config(reps=10)
        for r in range(10):
            rng = replication_rng(cfg.master_seed, 10, r)
            sample = sample_truncated_normal(10, -3, 3, rng)
            upper = closed_form_curve(cfg.loss, sample, cfg.theta_grid.points)
            emp = np.array(
                [empirical_risk(cfg.loss, sample, t) for t in cfg.theta_grid.points]
            )
            assert np.all(upper >= 10 * emp / 11 - 1e-12)

    def test_chunks_match_per_replication(self):
        # R spans several chunks; each replication must equal the one-sample path
        from focalrisk import minimize_upper_risk
        from focalrisk.risk import closed_form_curve
        from focalrisk.simulate import _CHUNK_CELLS

        n, grid = 300, ThetaGrid(-1, 1, 101)
        per_chunk = _CHUNK_CELLS // (n * grid.count)
        cfg = SimConfig(
            model=MODEL, loss=squared_error_loss((-1, 1)), n_values=(n,),
            replications=2 * per_chunk + 3, theta_grid=grid, master_seed=4,
        )
        s = run_replications(cfg).per_n[n]
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

    def test_serialization_deterministic(self, tmp_path):
        summary = run_replications(_small_config(reps=8))
        write_summary(summary, tmp_path / "a")
        write_summary(run_replications(_small_config(reps=8)), tmp_path / "b")
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_file_inventory(self, tmp_path):
        summary = run_replications(_small_config(reps=3))
        write_summary(summary, tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "median_n10.csv", "band_lo_n10.csv", "band_hi_n10.csv",
            "minimizers_n10.csv", "histogram_n10.csv", "meta.json",
        }


class TestCoverageExperiment:
    def test_full_support_exact(self):
        emp, nominal = coverage_experiment(
            MODEL, NonconformityScore.identity(), n=4, alpha=0.01,
            replications=200, seed=0,
        )
        assert emp == 1.0
        assert nominal == 1.0

    def test_identity_near_nominal(self):
        emp, nominal = coverage_experiment(
            MODEL, NonconformityScore.identity(), n=20, alpha=0.2,
            replications=2000, seed=1,
        )
        assert nominal == pytest.approx(17 / 21)
        half_width = 2.576 * np.sqrt(nominal * (1 - nominal) / 2000)
        assert abs(emp - nominal) <= half_width + 0.01

    def test_loo_mean_same_nominal(self):
        emp, nominal = coverage_experiment(
            MODEL, NonconformityScore.distance_to_loo_mean(), n=20, alpha=0.2,
            replications=1000, seed=2,
        )
        assert nominal == pytest.approx(17 / 21)
        assert abs(emp - nominal) < 0.05
