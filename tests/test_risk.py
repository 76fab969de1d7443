import numpy as np
import pytest

from focalrisk import (
    NonconformityScore,
    RiskKind,
    ThetaGrid,
    TrueModel,
    absolute_error_loss,
    constant_loss,
    empirical_risk,
    focal_sets,
    make_sample,
    minimize_upper_risk,
    risk_curve,
    squared_error_loss,
    sup_on_interval,
    true_risk,
    upper_risk_closed_form,
    upper_risk_general,
)
from focalrisk.errors import (
    ApproximateSupremumWarning,
    NonConvexLoss,
    ThetaOutOfDomain,
)
from focalrisk.risk import closed_form_curve

# truncated standard normal variance on [-3, 3], frozen from the
# closed form 1 - 6*phi(3)/(2*Phi(3) - 1) at 40-digit precision
TRUNC_VAR = 0.97333692466254148

sq01 = squared_error_loss((0, 1))
sq11 = squared_error_loss((-1, 1))


class TestEmpiricalRisk:
    def test_hand_checked(self):
        s = make_sample([0.2, 0.8], 0, 1)
        assert empirical_risk(sq01, s, 0.5) == pytest.approx(0.09)
        assert empirical_risk(sq01, s, 0.0) == pytest.approx(0.34)

    def test_constant(self):
        s = make_sample([0.1, 0.9], 0, 1)
        assert empirical_risk(constant_loss(2.5, (0, 1)), s, 0.3) == pytest.approx(2.5)

    def test_theta_domain(self):
        s = make_sample([0.2], 0, 1)
        with pytest.raises(ThetaOutOfDomain):
            empirical_risk(sq01, s, 2.0)


class TestTrueRisk:
    def test_variance_oracle(self):
        model = TrueModel.truncated_std_normal(-3, 3)
        assert true_risk(sq11, model, 0.0) == pytest.approx(TRUNC_VAR, abs=1e-7)

    def test_shift_identity(self):
        model = TrueModel.truncated_std_normal(-3, 3)
        assert true_risk(sq11, model, 1.0) == pytest.approx(TRUNC_VAR + 1.0, abs=1e-7)

    def test_point_mass(self):
        model = TrueModel.point_mass(0.4)
        assert true_risk(sq01, model, 0.1) == pytest.approx(0.09)


class TestSupOnInterval:
    def test_endpoint_max(self):
        assert sup_on_interval(sq01, 0.0, 0.2, 0.8) == pytest.approx(0.64)

    def test_degenerate(self):
        assert sup_on_interval(sq01, 0.3, 0.5, 0.5) == pytest.approx(0.04)

    def test_symmetric_endpoints(self):
        assert sup_on_interval(sq01, 0.5, 0.2, 0.8) == pytest.approx(0.09)

    def test_nonconvex_fallback_warns(self):
        from focalrisk import tabulated_loss

        bumpy = tabulated_loss([0.0, 1.0], [0.0, 0.5, 1.0], np.array([[0, 3, 0], [0, 3, 0]]))
        with pytest.warns(ApproximateSupremumWarning):
            val = sup_on_interval(bumpy, 0.0, 0.0, 1.0)
        assert val == pytest.approx(3.0)


class TestUpperRiskGeneral:
    def test_three_focal_sets(self):
        s = make_sample([0.2, 0.8], 0, 1)
        f = focal_sets(s, NonconformityScore.identity())
        assert upper_risk_general(sq01, f, 0.0) == pytest.approx(0.56)

    def test_constant_loss(self):
        s = make_sample([0.3, 0.7], 0, 1)
        f = focal_sets(s, NonconformityScore.identity())
        assert upper_risk_general(constant_loss(1.5, (0, 1)), f, 0.2) == pytest.approx(1.5)

    def test_singleton(self):
        s = make_sample([0.5], 0, 1)
        f = focal_sets(s, NonconformityScore.identity())
        # sups are the loss at both support endpoints: (0.25 + 0.25)/2
        assert upper_risk_general(sq01, f, 0.5) == pytest.approx(0.25)


class TestUpperRiskClosedForm:
    def test_matches_general_at_zero(self):
        s = make_sample([0.2, 0.8], 0, 1)
        d = upper_risk_closed_form(sq01, s, 0.0)
        assert d.slack * 3 == pytest.approx(1.0)
        assert d.total == pytest.approx(0.56)

    def test_constant(self):
        s = make_sample([0.3, 0.6], 0, 1)
        d = upper_risk_closed_form(constant_loss(2.0, (0, 1)), s, 0.5)
        assert d.total == pytest.approx(2.0)

    def test_midpoint_theta(self):
        s = make_sample([0.2, 0.8], 0, 1)
        d = upper_risk_closed_form(sq01, s, 0.5)
        assert d.total == pytest.approx(0.59 / 3)

    def test_requires_convexity(self):
        from focalrisk import tabulated_loss

        bumpy = tabulated_loss([0.0, 1.0], [0.0, 1.0], np.ones((2, 2)))
        s = make_sample([0.5], 0, 1)
        with pytest.raises(NonConvexLoss):
            upper_risk_closed_form(bumpy, s, 0.0)


def _random_sample(rng):
    lo = rng.uniform(-5, 0)
    hi = lo + rng.uniform(0.5, 6)
    n = rng.integers(1, 51)
    return make_sample(rng.uniform(lo, hi, n), lo, hi)


@pytest.mark.parametrize("loss_fn", [squared_error_loss, absolute_error_loss])
def test_closed_form_equivalence_random(loss_fn):
    rng = np.random.default_rng(11)
    loss = loss_fn((-2, 2))
    for _ in range(100):
        s = _random_sample(rng)
        f = focal_sets(s, NonconformityScore.identity())
        for theta in rng.uniform(-2, 2, 5):
            general = upper_risk_general(loss, f, theta)
            closed = upper_risk_closed_form(loss, s, theta).total
            assert abs(general - closed) <= 1e-12


def test_slack_bounds():
    rng = np.random.default_rng(3)
    loss = sq11
    for _ in range(100):
        s = make_sample(rng.uniform(-3, 3, int(rng.integers(1, 30))), -3, 3)
        theta = rng.uniform(-1, 1)
        d = upper_risk_closed_form(loss, s, theta)
        la, lb = float(loss(theta, -3.0)), float(loss(theta, 3.0))
        assert d.slack >= -1e-12
        assert d.slack <= (la + lb) / (s.n + 1) + 1e-12
        # M(theta) dominates both endpoint losses
        m_theta = d.slack * (s.n + 1)
        assert m_theta >= max(la, lb) - 1e-12


def test_slack_monotone_under_refinement():
    # the min inside M(theta) ranges over a superset after adding an
    # observation, so M(theta) never decreases
    rng = np.random.default_rng(5)
    for _ in range(50):
        vals = rng.uniform(-3, 3, 10)
        theta = rng.uniform(-1, 1)
        s_small = make_sample(vals[:9], -3, 3)
        s_big = make_sample(vals, -3, 3)
        m_small = upper_risk_closed_form(sq11, s_small, theta).slack * 10
        m_big = upper_risk_closed_form(sq11, s_big, theta).slack * 11
        assert m_big >= m_small - 1e-12


class TestRiskCurve:
    def test_empirical_constant(self):
        s = make_sample([0.4], 0, 1)
        grid = ThetaGrid(0, 1, 11)
        c = risk_curve(constant_loss(1.0, (0, 1)), grid, RiskKind.EMPIRICAL, sample=s)
        assert np.allclose(c.values, 1.0)

    def test_upper_closed_vs_general_on_grid(self):
        s = make_sample([0.2, 0.5, 0.8], 0, 1)
        grid = ThetaGrid(0, 1, 21)
        f = focal_sets(s, NonconformityScore.identity())
        via_focal = risk_curve(sq01, grid, RiskKind.UPPER, focal=f)
        via_sample = risk_curve(sq01, grid, RiskKind.UPPER, sample=s)
        assert np.max(np.abs(via_focal.values - via_sample.values)) <= 1e-12

    def test_true_curve_shape(self):
        model = TrueModel.truncated_std_normal(-3, 3)
        grid = ThetaGrid(-1, 1, 9)
        c = risk_curve(sq11, grid, RiskKind.TRUE, model=model)
        assert np.allclose(c.values, TRUNC_VAR + grid.points**2, atol=1e-7)

    def test_csv_round_trip(self):
        s = make_sample([0.2, 0.8], 0, 1)
        grid = ThetaGrid(0, 1, 5)
        c = risk_curve(sq01, grid, RiskKind.UPPER, sample=s)
        text = c.to_csv()
        lines = text.strip().splitlines()[1:]
        parsed = [(float(a), float(b)) for a, b, _ in (l.split(",") for l in lines)]
        text2 = "theta,value,kind\n" + "".join(
            f"{t:.17g},{v:.17g},upper\n" for t, v in parsed
        )
        assert text2 == text


class TestMinimizeUpperRisk:
    def test_symmetric_sample(self):
        s = make_sample([-1.5, 1.5], -3, 3)
        theta, _ = minimize_upper_risk(sq11, s, ThetaGrid(-1, 1, 101))
        assert theta == pytest.approx(0.0, abs=1e-7)

    def test_dense_grid_oracle(self):
        # frozen from an exhaustive 10^6+1 point search
        s = make_sample([0.2, 0.8], 0, 1)
        theta, value = minimize_upper_risk(sq01, s, ThetaGrid(0, 1, 1001))
        assert theta == pytest.approx(0.5, abs=1e-6)
        assert value == pytest.approx(0.19666666666666668, abs=1e-9)

    def test_constant_ties_to_lowest_index(self):
        s = make_sample([0.5], 0, 1)
        grid = ThetaGrid(0, 1, 11)
        theta, value = minimize_upper_risk(constant_loss(1.0, (0, 1)), s, grid)
        assert theta == grid.lo
        assert value == pytest.approx(1.0)

    def test_refined_below_grid(self):
        rng = np.random.default_rng(9)
        s = make_sample(rng.uniform(-3, 3, 15), -3, 3)
        grid = ThetaGrid(-1, 1, 51)
        _, value = minimize_upper_risk(sq11, s, grid)
        assert value <= np.min(closed_form_curve(sq11, s, grid.points)) + 1e-12

    def test_value_is_the_curve_at_the_minimizer(self):
        # The refinement minimizes the same rounding of the closed form as the curve.
        rng = np.random.default_rng(4)
        for n in (5, 20, 80):
            s = make_sample(rng.uniform(-3, 3, n), -3, 3)
            theta, value = minimize_upper_risk(sq11, s, ThetaGrid(-1, 1, 21))
            assert value == closed_form_curve(sq11, s, np.array([theta]))[0]

    def test_convex_in_y_but_not_unimodal_in_theta(self):
        # loss = c(theta) + |y| on y knots -3, 0, 3: convex in y, while c has a shallow
        # dip at theta=-0.1 and its deepest one at 0.4.  Golden section on [-0.5, 0.5]
        # (around the grid argmin 0) goes left and stops in the shallow dip.
        from focalrisk import tabulated_loss

        tk = np.linspace(-1, 1, 21)
        c = 1.0 + 2.0 * np.abs(tk)
        c[9], c[14] = 0.9, 0.0
        loss = tabulated_loss(tk, [-3, 0, 3], np.stack([c + 3, c, c + 3], axis=1), True)
        s = make_sample([-1.0, 0.5, 1.0], -3, 3)
        grid = ThetaGrid(-1, 1, 5)
        theta, value = minimize_upper_risk(loss, s, grid)
        assert value <= np.min(closed_form_curve(loss, s, grid.points))
        assert value == closed_form_curve(loss, s, np.array([theta]))[0]
        dense = closed_form_curve(loss, s, np.linspace(-0.5, 0.5, 1001))
        assert theta == pytest.approx(-0.1, abs=1e-6) and dense.min() < value - 0.5


_INV_GOLDEN = (5 ** 0.5 - 1) / 2


def _scalar_golden_section_min(f, lo, hi, tol):
    """Scalar golden section: the reference the lockstep routine must match bit for bit."""
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        width = hi - lo
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(x2)
        if not hi - lo < width:  # a few ulps wide: no step can shrink it
            break
    x = 0.5 * (lo + hi)
    return x, f(x)


class TestGoldenSectionLockstep:
    @staticmethod
    def _check(f_vec, lo, hi, tol):
        from focalrisk.risk import golden_section_min

        x, fx = golden_section_min(f_vec, lo, hi, tol)
        for i in range(len(lo)):
            def f_i(t, i=i):
                pts = np.array(lo, dtype=float)  # any values; only entry i is read
                pts[i] = t
                return float(f_vec(pts)[i])

            ox, ofx = _scalar_golden_section_min(f_i, float(lo[i]), float(hi[i]), tol)
            assert (x[i], fx[i]) == (ox, ofx), i

    def test_random_brackets_and_centres(self):
        rng = np.random.default_rng(3)
        lo = rng.uniform(-2, 1, 40)
        hi = lo + rng.uniform(1e-6, 3, 40)
        centre = rng.uniform(-3, 4, 40)  # inside, left of and right of the brackets
        self._check(lambda t: (t - centre) ** 2, lo, hi, 1e-9)

    def test_edge_brackets(self):
        tol = 1e-3
        # widths: already converged, exactly tol, one step to converge, a few steps
        widths = np.array([0.0, 0.5e-3, 1e-3, 1.2e-3, 1.6e-3, 5e-3, 1.0])
        lo = np.linspace(-1, 1, widths.size)
        self._check(lambda t: np.abs(t - 0.3), lo, lo + widths, tol)

    def test_ties(self):
        lo = np.array([0.0, -1.0, 0.25, 2.0])
        hi = np.array([1.0, 1.0, 0.75, 2.5])
        self._check(lambda t: np.zeros_like(t), lo, hi, 1e-6)  # every comparison ties
        self._check(lambda t: np.floor(8 * t) / 8, lo, hi, 1e-6)  # plateaus

    def test_brackets_wider_than_tol_in_ulps(self):
        # Above 8192 one ulp exceeds tol, so these brackets stop when a step can no
        # longer shrink them; minima at either end, inside, and a flat objective.
        lo = np.array([9990.0, 9990.0, 9990.0, -1e4, 8192.0, 2.0**40])
        hi = np.array([1e4, 1e4, 1e4, -9990.0, 8200.0, 2.0**40 + 2.0**20])
        centre = np.array([2e4, 0.0, 9995.5, -2e4, 8195.25, 2.0**40 + 3.0])
        self._check(lambda t: (t - centre) ** 2, lo, hi, 1e-12)
        self._check(lambda t: -t, lo, hi, 1e-12)
        self._check(lambda t: np.zeros_like(t), lo, hi, 1e-12)
