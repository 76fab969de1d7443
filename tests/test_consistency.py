import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalrisk import (
    ThetaGrid,
    absolute_error_loss,
    constants,
    hoeffding_bound,
    min_sample_size,
    squared_error_loss,
    verify_pointwise,
    verify_uniform,
    witness_uniform,
)
from focalrisk.consistency import _loss_range, check_epsilon, pointwise_reports
from focalrisk.errors import InvalidAlpha, NonFiniteValue, NonpositiveEpsilon
from oracles import scalar_golden_section_min

sq = squared_error_loss((-1, 1))
GRID = ThetaGrid(-1, 1, 41)
ABSOLUTE = absolute_error_loss((-1, 1))


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the inputs were checked")


class TestConstants:
    def test_squared_loss_M(self):
        m, _ = constants(sq, (-3, 3), (-1, 1))
        assert m == pytest.approx(32.0, abs=1e-9)

    def test_squared_loss_L_at_zero(self):
        assert _loss_range(sq, 0.0, -3, 3) == pytest.approx(9.0, abs=1e-9)

    def test_L_max(self):
        _, l_max = constants(sq, (-3, 3), (-1, 1))
        # largest range over theta in [-1, 1]: (3 + 1)^2 = 16 at theta = +/-1
        assert l_max == pytest.approx(16.0, abs=1e-9)

    def test_extrema_beyond_ulp_tolerance_terminate(self):
        # Past |x| = 8192 one ulp exceeds 1e-12: the sup of M at theta_hi = 1e4 and the inf
        # of L at the support end -9000 must still be exact.  A fresh interpreter with a
        # timeout turns a run that does not end into a failure.
        import subprocess
        import sys
        from pathlib import Path

        import focalrisk

        code = (
            "from focalrisk import constants, squared_error_loss as sq\n"
            "from focalrisk.consistency import _loss_range\n"
            "m, l_max = constants(sq((-1, 1e4)), (-3, 3), (-1, 1e4))\n"
            "l_zero = float(_loss_range(sq((-1, 1)), 0.0, -2e4, -9000))\n"
            "print(repr(m), repr(l_max), repr(l_zero))\n"
        )
        env = {"PYTHONPATH": str(Path(focalrisk.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        m, l_max, l_zero = map(float, out.stdout.split())
        assert m == pytest.approx(10003.0**2 + 9997.0**2, rel=1e-12)
        assert l_max == pytest.approx(10003.0**2 - 9997.0**2, rel=1e-9)
        assert l_zero == pytest.approx(2e4**2 - 9000.0**2, rel=1e-12)


class TestLossOverflow:
    def test_constants_refuse_a_loss_that_overflows_on_the_grid(self):
        for lo, hi in ((-1, 1e200), (-1e200, 1)):  # (1e200 - 3)^2 is inf, so is M
            loss = squared_error_loss((lo, hi))
            with pytest.raises(NonFiniteValue, match="not finite on the theta span"):
                constants(loss, (-3, 3), (lo, hi))
        m, l_max = constants(absolute_error_loss((-1, 1e200)), (-3, 3), (-1, 1e200))
        assert m == 2e200 and math.isfinite(l_max)  # absolute loss stays finite

    def test_refused_before_any_draw(self, monkeypatch):
        import focalrisk.consistency as consistency

        monkeypatch.setattr(consistency, "sample_chunks", _must_not_run)
        loss, grid = squared_error_loss((-1, 1e200)), ThetaGrid(-1, 1e200, 5)
        with pytest.raises(NonFiniteValue):
            pointwise_reports(MODEL, loss, [0.0], 20, [1.0], 100, 1)
        with pytest.raises(NonFiniteValue):
            verify_uniform(MODEL, loss, grid, 1.0, 0.05, 1, replications=100)

    def test_witness_n_beyond_the_row_limit_is_refused_before_any_draw(self, monkeypatch):
        import focalrisk.simulate as simulate
        from focalrisk.errors import SampleTooLarge

        monkeypatch.setattr(simulate, "_streams", _must_not_run)  # no stream to draw
        assert witness_uniform(ThetaGrid(-1, 1, 101), 1e-3, 0.05, 16.0) == 1062911997
        with pytest.raises(SampleTooLarge):
            verify_uniform(MODEL, sq, ThetaGrid(-1, 1, 101), 1e-3, 0.05, 1, replications=100)
        monkeypatch.setattr(simulate, "_MAX_ROW", 40)
        with pytest.raises(SampleTooLarge):
            pointwise_reports(MODEL, sq, [0.0], 41, [1.0], 100, 1)


def _parent_M(loss, support, theta_grid):
    """M as ``constants`` computed it before ``refine_grid_min``: the bit-for-bit reference."""
    grid, ends = theta_grid.points, np.array(support, dtype=float)
    vals = np.asarray(loss(grid, ends[:, None]), dtype=float)
    idx = np.argmax(vals, axis=1)
    lo, hi = grid[np.maximum(idx - 1, 0)], grid[np.minimum(idx + 1, len(grid) - 1)]
    neg = np.array([scalar_golden_section_min(lambda t: -float(loss(t, end)), l, h, 1e-12)[1]
                    for end, l, h in zip(ends, lo, hi)])
    sups = np.where(lo < hi, np.maximum(vals.max(axis=1), -neg), vals.max(axis=1))
    return float(sups[0] + sups[1])


def _parent_convex_loss_range(loss, thetas, a, b):
    """The convex branch of the earlier ``_loss_range``: the bit-for-bit reference."""
    la = np.asarray(loss(thetas, a), dtype=float)
    lb = np.asarray(loss(thetas, b), dtype=float)
    inner = [scalar_golden_section_min(lambda y: float(loss(t, y)), a, b, 1e-12)[1]
             for t in thetas]
    return np.maximum(la, lb) - np.minimum(inner, np.minimum(la, lb))


class TestConstantsEqualParent:
    # Bit for bit the parent's values, except the absolute loss's L, which was off by
    # rounding (the refined inf |y - theta| ~ 1e-13 for 0) and is held to an exact oracle.
    @pytest.mark.parametrize("loss", [sq, ABSOLUTE, absolute_error_loss((-1, 5)),
                                      squared_error_loss((-2, 0.5)), absolute_error_loss((-2, 0.5)),
                                      squared_error_loss((-1, 5))])
    @pytest.mark.parametrize("grid", [ThetaGrid(0.5, 0.5, 1), ThetaGrid(-1, 1, 2),
                                      ThetaGrid(-1, 1, 41), ThetaGrid(-0.75, 0.9, 7)])
    def test_M(self, loss, grid):
        for support in ((-3.0, 3.0), (-0.5, 2.0), (1.0, 1.5)):
            got, _ = constants(loss, support, (grid.lo, grid.hi))
            want = _parent_M(loss, support, grid)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("loss", [sq, ABSOLUTE, squared_error_loss((-1, 5))])
    def test_convex_loss_range(self, loss):
        thetas = np.array([-1.0, -0.3, 0.0, 0.4, 1.0])
        for a, b in ((-3.0, 3.0), (-0.5, 2.0), (1.0, 1.5)):
            got, want = _loss_range(loss, thetas, a, b), _parent_convex_loss_range(loss, thetas, a, b)
            if loss is ABSOLUTE:  # the inf is 0 inside [a, b]; outside, at the nearer end
                inside = (a <= thetas) & (thetas <= b)
                want = np.where(inside, np.maximum(abs(thetas - a), abs(thetas - b)), want)
            assert got.tobytes() == want.tobytes()


    @pytest.mark.parametrize("loss", [sq, ABSOLUTE, absolute_error_loss((-1, 5)),
                                      squared_error_loss((-2, 0.5)), squared_error_loss((-1, 5))])
    @pytest.mark.parametrize("grid", [ThetaGrid(0.5, 0.5, 1), ThetaGrid(-1, 1, 2),
                                      ThetaGrid(-1, 1, 41), ThetaGrid(-0.75, 0.9, 7)])
    def test_L_max(self, loss, grid):
        # the parent took L_max over the grid's points; the span's sup points hold it
        for a, b in ((-3.0, 3.0), (-0.5, 2.0), (1.0, 1.5), (-1.0, 0.8)):
            _, got = constants(loss, (a, b), (grid.lo, grid.hi))
            want = float(np.max(_loss_range(loss, grid.points, a, b)))
            if loss.kind is ABSOLUTE.kind:  # at most the grid's rounding above, within 2 ulps
                assert want - 2 * np.spacing(want) <= got <= want
            else:
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestConstantsExact:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_L_max_at_least_dense_grid_max(self, data):
        a, b = sorted(data.draw(st.lists(st.floats(-5, 5), min_size=2, max_size=2, unique=True)))
        kind = data.draw(st.sampled_from(["squared", "absolute"]))
        loss = (squared_error_loss if kind == "squared" else absolute_error_loss)((-8, 8))
        lo, hi = sorted(data.draw(st.lists(st.floats(-8.0, 8.0), min_size=2, max_size=2)))
        _, l_max = constants(loss, (a, b), (lo, hi))
        dense = _loss_range(loss, np.linspace(lo, hi, 20001), a, b).max()
        assert l_max >= dense - 1e-12 * max(1.0, dense)

    def test_one_point_theta_domain(self):
        # a theta domain [0, 0] holds no two-point grid: M = 9 + 9, so n = 20 < 53
        loss = squared_error_loss((0.0, 0.0))
        report = verify_pointwise(MODEL, loss, 0.0, 20, 1.0, 100, 1)
        assert report["n"] == 20 and not report["threshold_met"]
        assert constants(loss, (-3, 3), loss.theta_domain)[0] == 18.0


class TestMinSampleSize:
    def test_values(self):
        assert min_sample_size(1.0, 32.0) == 95
        assert min_sample_size(0.5, 32.0) == 191

    def test_clamp(self):
        assert min_sample_size(5.0, 0.0) == 1

    def test_nonpositive(self):
        with pytest.raises(NonpositiveEpsilon):
            min_sample_size(0.0, 32.0)


class TestHoeffdingBound:
    def test_values(self):
        assert hoeffding_bound(10000, 0.9, 9.0) == pytest.approx(4.4672628724e-10, rel=1e-9)
        assert hoeffding_bound(100, 0.9, 9.0) == pytest.approx(1.6014748058, rel=1e-9)

    def test_degenerate_L(self):
        assert hoeffding_bound(100, 0.5, 0.0) == 0.0

    def test_monotonicity(self):
        assert hoeffding_bound(200, 0.5, 9.0) < hoeffding_bound(100, 0.5, 9.0)
        assert hoeffding_bound(100, 0.6, 9.0) < hoeffding_bound(100, 0.5, 9.0)
        assert hoeffding_bound(100, 0.5, 10.0) > hoeffding_bound(100, 0.5, 9.0)


class TestWitnessUniform:
    def test_algebraic_check(self):
        g1 = ThetaGrid(0, 0, 1)
        assert witness_uniform(g1, 1.0, 2.0 / math.e**2, 1.0) == 1

    def test_defining_inequality(self):
        grid = ThetaGrid(-1, 1, 41)
        eps, alpha, L = 0.5, 0.05, 16.0
        n = witness_uniform(grid, eps, alpha, L)
        assert grid.count * 2 * math.exp(-2 * n * eps**2 / L**2) < alpha
        assert grid.count * 2 * math.exp(-2 * (n - 1) * eps**2 / L**2) >= alpha

    def test_doubling_grid(self):
        eps, alpha, L = 0.5, 0.05, 16.0
        n1 = witness_uniform(ThetaGrid(-1, 1, 41), eps, alpha, L)
        n2 = witness_uniform(ThetaGrid(-1, 1, 82), eps, alpha, L)
        assert n2 - n1 <= math.ceil(L**2 / (2 * eps**2) * math.log(2)) + 1

    @pytest.mark.parametrize("count,eps,alpha,L", [(41, 0.5, 0.05, 16.0), (11, 1.0, 0.2, 9.0),
                                                   (101, 0.1, 0.01, 1.0), (1, 2.0, 0.5, 3.0)])
    def test_witness_below_upper_risk_tail_bound_n(self, count, eps, alpha, L):
        # The witness uses the empirical risk's Hoeffding constant 2; the upper risk's
        # tail bound has 2/9, so at the witness n it does not yet reach alpha.
        grid = ThetaGrid(-1, 1, count)
        n = witness_uniform(grid, eps, alpha, L)
        n_upper = math.floor(9 * L**2 / (2 * eps**2) * math.log(2 * count / alpha)) + 1
        assert count * hoeffding_bound(n_upper, eps, L) < alpha
        assert count * hoeffding_bound(n_upper - 1, eps, L) >= alpha
        assert n < n_upper
        assert count * hoeffding_bound(n, eps, L) >= alpha

    def test_validation(self):
        with pytest.raises(NonpositiveEpsilon):
            witness_uniform(GRID, 0.0, 0.05, 1.0)
        with pytest.raises(InvalidAlpha):
            witness_uniform(GRID, 1.0, 1.5, 1.0)


MODEL = (-3.0, 3.0)  # the support of the truncated standard normal


class TestVerifyPointwise:
    def test_threshold_flag(self):
        report = verify_pointwise(
            MODEL, sq, 0.0, n=10, epsilon=1.0, replications=100, seed=1,
        )
        assert not report["threshold_met"]  # needs n >= 95
        report = verify_pointwise(
            MODEL, sq, 0.0, n=95, epsilon=1.0, replications=100, seed=1,
        )
        assert report["threshold_met"]

    def test_closed_form_guards(self):
        from focalrisk.errors import ThetaOutOfDomain

        with pytest.raises(ThetaOutOfDomain):
            verify_pointwise(MODEL, sq, 1.5, n=20, epsilon=1.0, replications=100,
                             seed=1)

    def test_requires_replications(self):
        with pytest.raises(ValueError):
            verify_pointwise(MODEL, sq, 0.0, n=20, epsilon=1.0, replications=10, seed=1)

    def test_deterministic(self):
        kw = dict(theta=0.0, n=30, epsilon=0.5, replications=100, seed=7)
        r1 = verify_pointwise(MODEL, sq, **kw)
        r2 = verify_pointwise(MODEL, sq, **kw)
        assert r1 == r2

    def test_json_key_order(self):
        report = verify_pointwise(
            MODEL, sq, 0.0, n=20, epsilon=1.0, replications=100, seed=1,
        )
        keys = list(json.loads(json.dumps(report)).keys())
        assert keys == [
            "epsilon", "n", "threshold_met", "bound",
            "empirical_violation_rate", "replications", "seed",
        ]


class TestVerifyUniform:
    def test_squared_loss_within_alpha(self):
        report = verify_uniform(
            MODEL, sq, ThetaGrid(-1, 1, 11), epsilon=2.0, alpha=0.1,
            seed=3, replications=200,
        )
        assert report["within_alpha"]

    def test_huge_epsilon(self):
        # deviation is bounded by M + L_max, so no violation is possible
        report = verify_uniform(
            MODEL, sq, ThetaGrid(-1, 1, 5), epsilon=60.0, alpha=0.5,
            seed=4, replications=100,
        )
        assert report["estimated_probability"] == 0.0


class TestPointwiseReports:
    @pytest.mark.parametrize("loss", [sq, absolute_error_loss((-1, 1))])
    def test_equals_per_point_oracle(self, loss, monkeypatch):
        # A small chunk budget makes the 100 replications span five chunks of 22 rows.
        import focalrisk.simulate as simulate
        from focalrisk.risk import true_risk, upper_risk_batch
        from focalrisk.simulate import replication_rng, sample_truncated_normal

        monkeypatch.setattr(simulate, "_CHUNK_CELLS", 2000)
        n, thetas, epsilons, reps = 30, [0.0, 0.5, -1.0], [0.05, 0.3], 100
        got = pointwise_reports(MODEL, loss, thetas, n, epsilons, reps, 7)
        m, _ = constants(loss, MODEL, (-1, 1))
        want = []
        for eps in epsilons:
            for theta in thetas:
                rows = np.stack([sample_truncated_normal(n, -3, 3, replication_rng(7, n, r)).values
                                 for r in range(reps)])
                upper = upper_risk_batch(loss, rows, -3.0, 3.0, [theta])
                violations = np.count_nonzero(np.abs(upper - true_risk(loss, MODEL, theta)) > eps)
                want.append(dict(
                    epsilon=eps, n=n, threshold_met=n >= min_sample_size(eps, m),
                    bound=hoeffding_bound(n, eps, float(_loss_range(loss, theta, -3, 3))),
                    empirical_violation_rate=violations / reps, replications=reps, seed=7))
        assert got == want
        assert 0 < sum(r["empirical_violation_rate"] for r in got) < len(got)  # not all 0 or 1

    def test_chunks_within_budget(self, monkeypatch):
        # the traced peak from each chunk's draw until the next, its closed form included,
        # stays within twice the chunk budget of float64 cells
        import tracemalloc

        import focalrisk.consistency as consistency
        from focalrisk.simulate import _CHUNK_CELLS, sample_chunks

        peaks = []

        def recorded(*args):
            for rows in sample_chunks(*args):
                tracemalloc.reset_peak()
                yield rows
                peaks.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(consistency, "sample_chunks", recorded)
        pointwise_reports(MODEL, sq, [0.0, 0.5], 300, [1.0], 100, 1)  # first-call allocations
        tracemalloc.start()
        try:
            pointwise_reports(MODEL, sq, [0.0, 0.5, 1.0], 300, [1.0], 1000, 1)
        finally:
            tracemalloc.stop()
        assert len(peaks) > 1 and max(peaks) <= 2 * _CHUNK_CELLS * 8

    @pytest.mark.parametrize("loss", [sq, absolute_error_loss((-1, 1))])
    def test_any_chunk_budget_gives_the_same_reports(self, loss, monkeypatch):
        # on [-3, 10] the support's centre lies above most rows: no row may see its chunk
        import focalrisk.simulate as simulate

        reports = []
        for budget in (simulate._CHUNK_CELLS, 2000):
            monkeypatch.setattr(simulate, "_CHUNK_CELLS", budget)
            reports.append(pointwise_reports((-3, 10), loss, [0.0, 0.5, -1.0], 30, [0.05, 0.3],
                                             200, 7))
        assert reports[0] == reports[1]

    def test_verify_pointwise_is_one_point_view(self):
        reports = pointwise_reports(MODEL, sq, [0.0, 0.5], 40, [0.5, 1.0], 100, 3)
        assert verify_pointwise(MODEL, sq, 0.5, 40, 1.0, 100, 3) == reports[3]

    def test_empty_lists(self):
        assert pointwise_reports(MODEL, sq, [], 20, [1.0], 100, 1) == []
        assert pointwise_reports(MODEL, sq, [0.0], 20, [], 100, 1) == []

    @pytest.mark.parametrize("epsilons, error", [
        ([1.0, float("nan")], NonFiniteValue), ([float("inf")], NonFiniteValue),
        ([1.0, 0.0], NonpositiveEpsilon), ([-1.0], NonpositiveEpsilon)])
    def test_bad_epsilon_refused_before_any_work(self, epsilons, error, monkeypatch):
        import focalrisk.consistency as consistency

        for name in ("constants", "sample_chunks", "true_risk_curve"):
            monkeypatch.setattr(consistency, name, _must_not_run)
        with pytest.raises(error):
            pointwise_reports(MODEL, sq, [0.0], 20, epsilons, 100, 1)


class TestEpsilonChecks:
    # 1e308 and 1.4e154: finite, but the bounds' epsilon**2 overflows
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf"), 1e308, 1.4e154])
    def test_non_finite(self, eps):
        for call in (lambda: min_sample_size(eps, 32.0), lambda: hoeffding_bound(100, eps, 9.0),
                     lambda: witness_uniform(GRID, eps, 0.05, 1.0), lambda: check_epsilon(eps)):
            with pytest.raises(NonFiniteValue):
                call()

    @pytest.mark.parametrize("eps", [5e-324, 1e-170])
    def test_square_underflows(self, eps):
        for call in (lambda: min_sample_size(eps, 32.0), lambda: hoeffding_bound(100, eps, 9.0),
                     lambda: witness_uniform(GRID, eps, 0.05, 1.0), lambda: check_epsilon(eps)):
            with pytest.raises(NonpositiveEpsilon):
                call()

    def test_extremes_that_pass(self):
        # the square is a positive float, so the pointwise bounds are defined ...
        assert min_sample_size(1e-160, 32.0) > 10**161 and hoeffding_bound(100, 1e-160, 9.0) == 2.0
        assert min_sample_size(1e154, 32.0) == 1 and hoeffding_bound(100, 1e154, 9.0) == 0.0
        # ... but no finite sample size reaches the witness inequality
        with pytest.raises(NonFiniteValue):
            witness_uniform(GRID, 1e-160, 0.05, 1.0)
        with pytest.raises(NonFiniteValue):
            witness_uniform(GRID, 0.5, 5e-324, 1.0)


class TestReplicationFloor:
    def test_both_monte_carlo_checks_refuse_fewer_than_100(self, monkeypatch):
        import focalrisk.consistency as consistency

        monkeypatch.setattr(consistency, "sample_chunks", _must_not_run)
        for reps in (99, 0, -1):
            with pytest.raises(ValueError, match="at least 100"):
                pointwise_reports(MODEL, sq, [0.0], 20, [1.0], reps, 1)
            with pytest.raises(ValueError, match="at least 100"):
                verify_uniform(MODEL, sq, ThetaGrid(-1, 1, 5), 1.0, 0.05, 1, replications=reps)
