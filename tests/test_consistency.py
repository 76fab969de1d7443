import json
import math

import numpy as np
import pytest

from focalrisk import (
    ThetaGrid,
    TrueModel,
    constant_loss,
    constants,
    hoeffding_bound,
    min_sample_size,
    squared_error_loss,
    verify_pointwise,
    verify_uniform,
    witness_uniform,
)
from focalrisk.errors import InvalidAlpha, NonpositiveEpsilon

sq = squared_error_loss((-1, 1))
GRID = ThetaGrid(-1, 1, 41)


class TestConstants:
    def test_squared_loss_M(self):
        c = constants(sq, (-3, 3), GRID)
        assert c.M == pytest.approx(32.0, abs=1e-9)

    def test_squared_loss_L_at_zero(self):
        c = constants(sq, (-3, 3), GRID)
        assert c.L_of_theta(0.0) == pytest.approx(9.0, abs=1e-9)

    def test_constant_loss(self):
        c = constants(constant_loss(2.0, (-1, 1)), (-3, 3), GRID)
        assert c.M == pytest.approx(4.0)
        assert c.L_of_theta(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_L_max(self):
        c = constants(sq, (-3, 3), GRID)
        # largest range over theta in [-1, 1]: (3 + 1)^2 = 16 at theta = +/-1
        assert c.L_max == pytest.approx(16.0, abs=1e-9)

    def test_extrema_beyond_ulp_tolerance_terminate(self):
        # Past |x| = 8192 one ulp exceeds the 1e-12 refinement tolerance: the sup of M at
        # theta_hi = 1e4 and the inf of L at the support end -9000 must still be found.
        # A fresh interpreter with a timeout turns a non-terminating search into a failure.
        import subprocess
        import sys
        from pathlib import Path

        import focalrisk

        code = (
            "from focalrisk import ThetaGrid, constants, squared_error_loss as sq\n"
            "c = constants(sq((-1, 1e4)), (-3, 3), ThetaGrid(-1, 1e4, 11))\n"
            "d = constants(sq((-1, 1)), (-2e4, -9000), ThetaGrid(-1, 1, 41))\n"
            "print(repr(c.M), repr(c.L_max), repr(d.L_of_theta(0.0)))\n"
        )
        env = {"PYTHONPATH": str(Path(focalrisk.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        m, l_max, l_zero = map(float, out.stdout.split())
        assert m == pytest.approx(10003.0**2 + 9997.0**2, rel=1e-12)
        assert l_max == pytest.approx(10003.0**2 - 9997.0**2, rel=1e-9)
        assert l_zero == pytest.approx(2e4**2 - 9000.0**2, rel=1e-12)


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


MODEL = TrueModel.truncated_std_normal(-3, 3)


class TestVerifyPointwise:
    def test_constant_loss_never_violates(self):
        report = verify_pointwise(
            MODEL, constant_loss(1.0, (-1, 1)), 0.0, n=20, epsilon=0.1,
            replications=100, seed=1, theta_grid=GRID,
        )
        assert report.empirical_violation_rate == 0.0
        assert report.bound == 0.0

    def test_threshold_flag(self):
        report = verify_pointwise(
            MODEL, sq, 0.0, n=10, epsilon=1.0, replications=100, seed=1,
            theta_grid=GRID,
        )
        assert not report.threshold_met  # needs n >= 95
        report = verify_pointwise(
            MODEL, sq, 0.0, n=95, epsilon=1.0, replications=100, seed=1,
            theta_grid=GRID,
        )
        assert report.threshold_met

    def test_closed_form_guards(self):
        from focalrisk import tabulated_loss
        from focalrisk.errors import NonConvexLoss, ThetaOutOfDomain

        bumpy = tabulated_loss([-1.0, 1.0], [-3.0, 3.0], np.ones((2, 2)))
        with pytest.raises(NonConvexLoss):
            verify_pointwise(MODEL, bumpy, 0.0, n=20, epsilon=1.0, replications=100,
                             seed=1, theta_grid=GRID)
        with pytest.raises(ThetaOutOfDomain):
            verify_pointwise(MODEL, sq, 1.5, n=20, epsilon=1.0, replications=100,
                             seed=1, theta_grid=GRID)

    def test_requires_replications(self):
        with pytest.raises(ValueError):
            verify_pointwise(MODEL, sq, 0.0, n=20, epsilon=1.0, replications=10, seed=1)

    def test_deterministic(self):
        kw = dict(theta=0.0, n=30, epsilon=0.5, replications=100, seed=7, theta_grid=GRID)
        r1 = verify_pointwise(MODEL, sq, **kw)
        r2 = verify_pointwise(MODEL, sq, **kw)
        assert r1 == r2

    def test_json_key_order(self):
        report = verify_pointwise(
            MODEL, sq, 0.0, n=20, epsilon=1.0, replications=100, seed=1,
            theta_grid=GRID,
        )
        keys = list(json.loads(report.to_json()).keys())
        assert keys == [
            "epsilon", "n", "threshold_met", "bound",
            "empirical_violation_rate", "replications", "seed",
        ]


class TestVerifyUniform:
    def test_constant_loss(self):
        report = verify_uniform(
            MODEL, constant_loss(1.0, (-1, 1)), GRID, epsilon=0.1, alpha=0.05,
            seed=2, replications=100,
        )
        assert report.estimated_probability == 0.0
        assert report.within_alpha

    def test_squared_loss_within_alpha(self):
        report = verify_uniform(
            MODEL, sq, ThetaGrid(-1, 1, 11), epsilon=2.0, alpha=0.1,
            seed=3, replications=200,
        )
        assert report.within_alpha

    def test_huge_epsilon(self):
        # deviation is bounded by M + L_max, so no violation is possible
        report = verify_uniform(
            MODEL, sq, ThetaGrid(-1, 1, 5), epsilon=60.0, alpha=0.5,
            seed=4, replications=100,
        )
        assert report.estimated_probability == 0.0
