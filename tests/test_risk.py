import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalrisk import (
    NonconformityScore,
    ThetaGrid,
    absolute_error_loss,
    focal_sets,
    make_sample,
    minimize_upper_risk,
    risk_curve,
    squared_error_loss,
    true_risk,
    upper_risk_closed_form,
    upper_risk_general,
)
from focalrisk.data_model import LossSpec
from focalrisk.errors import (DegenerateSupport, EmptyFocalSetWarning, NonFiniteValue,
                              SupportMassTooSmall, ThetaOutOfDomain)
from focalrisk.quadrature import integrate
from focalrisk.risk import (
    _n_rn,
    argmin_rows,
    closed_form_curve,
    empirical_risk_curve,
    focal_upper_risk_curve,
    format_csv,
    true_risk_curve,
    upper_risk_batch,
)
from oracles import (absolute_all_candidates_min, argmin_and_min, focal_sum_upper_risk,
                     focal_table, scalar_golden_section_min, squared_all_candidates_min)

# truncated standard normal variance on [-3, 3], frozen from the
# closed form 1 - 6*phi(3)/(2*Phi(3) - 1) at 40-digit precision
TRUNC_VAR = 0.97333692466254148
MODEL = (-3.0, 3.0)  # the support of the truncated standard normal

sq01 = squared_error_loss((0, 1))
sq11 = squared_error_loss((-1, 1))
abs11 = absolute_error_loss((-1, 1))


@dataclasses.dataclass(frozen=True)
class _CountedLoss(LossSpec):
    """A loss that records the broadcast size of each call."""

    sizes: list = dataclasses.field(default_factory=list, compare=False)

    def __call__(self, theta, y):
        self.sizes.append(np.broadcast(theta, y).size)
        return super().__call__(theta, y)


def _empirical_cases(n):
    """(sample, grid, losses) of n values: filling a centred support, concentrated far from
    the support's centre, and packed about theta at the support's edge (there each loss value
    is small against the data and theta)."""
    rng = np.random.default_rng(n)
    edge = 2.95 + rng.uniform(-1e-4, 1e-4, n)
    fill = [squared_error_loss, absolute_error_loss]
    yield (make_sample(rng.uniform(-3, 3, n), -3, 3), ThetaGrid(-1, 1, 21),
           [sq11, abs11])
    for hi in (1e9, 1e17):
        yield (make_sample(0.3 + rng.uniform(-0.01, 0.01, n), 0, hi), ThetaGrid(0, 1, 21),
               [f((0, 1)) for f in fill])
    yield (make_sample(edge, -3, 3), ThetaGrid(2.95 - 1e-4, 2.95 + 1e-4, 21),
           [f((2.95 - 1e-4, 2.95 + 1e-4)) for f in fill])


def _assert_fsum_mean(curve, loss, s, grid):
    # against the correctly rounded mean of the loss values.  Measured (max relative): at
    # n = 1e5, 6.2e-15 (absolute loss, sequential prefix sums); at n <= 4e4, 3.1e-15
    want = np.array([math.fsum(np.asarray(loss(t, s.values), dtype=float)) / s.n
                     for t in grid.points])
    assert np.all(np.abs(curve - want) <= 1e-13 * want), np.max(np.abs(curve / want - 1))


def _empirical_curve_peak(loss):
    """tracemalloc peak of a 65536-theta empirical curve of 500 values."""
    import tracemalloc

    s = make_sample(np.random.default_rng(0).uniform(-3, 3, 500), -3, 3)
    grid = ThetaGrid(-1, 1, 65536)
    tracemalloc.start()
    try:
        empirical_risk_curve(loss, s, grid.points)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEmpiricalRisk:
    def test_hand_checked(self):
        s = make_sample([0.2, 0.8], 0, 1)
        assert empirical_risk_curve(sq01, s, [0.5])[0] == pytest.approx(0.09)
        assert empirical_risk_curve(sq01, s, [0.0])[0] == pytest.approx(0.34)

    def test_theta_domain(self):
        s = make_sample([0.2], 0, 1)
        with pytest.raises(ThetaOutOfDomain):
            empirical_risk_curve(sq01, s, [2.0])[0]

    @pytest.mark.parametrize("n", [1, 2, 7, 128, 129, 1000, 5000, 40000])
    def test_curve_equals_pointwise_mean(self, n):
        # the curve and one-theta curves take the same per-row n R_n: equal bit for bit,
        # and both equal the correctly rounded mean of the loss values
        for s, grid, losses in _empirical_cases(n):
            for loss in losses:
                curve = risk_curve(loss, grid, s)[0]
                want = np.array([empirical_risk_curve(loss, s, [t])[0] for t in grid.points])
                assert curve.tobytes() == want.tobytes()
                _assert_fsum_mean(curve, loss, s, grid)

    def test_curve_memory_bounded_in_thetas(self):
        # the whole (theta, n) table of this curve would take 65536 x 500 x 8 bytes = 262 MB
        assert _empirical_curve_peak(sq11) < 8 * 2**20

    def test_equals_fsum_of_the_losses(self):
        # n = 1e5: the bound is ~450 ulps, ~sqrt(n) ulps for the sequential sums
        for s, grid, losses in _empirical_cases(100_000):
            for loss in losses:
                curve = risk_curve(loss, grid, s)[0]
                _assert_fsum_mean(curve, loss, s, grid)
                assert empirical_risk_curve(loss, s, [grid.points[3]])[0] == curve[3]

    def test_curve_work_linear_in_n_plus_thetas(self):
        # the (theta, n) loss table took 4097 x 5000 = 2.0e7 loss values; n R_n takes none
        # for squared and absolute loss
        grid, sizes = ThetaGrid(-1, 1, 4097), {}
        for base in (sq11, abs11):
            for n in (50, 5000):
                s = make_sample(np.random.default_rng(n).uniform(-3, 3, n), -3, 3)
                loss = _CountedLoss(base.kind, base.theta_domain)
                empirical_risk_curve(loss, s, grid.points)
                sizes[base.kind.value, n] = sum(loss.sizes)
        assert sizes["squared", 5000] == sizes["absolute", 5000] == 0
        for kind in ("squared", "absolute"):
            assert sizes[kind, 5000] == sizes[kind, 50]  # nothing grows with n

    def test_array_theta_domain(self):
        sq11.check_theta(np.linspace(-1, 1, 5))
        for bad in ([0.0, 1.5], [np.nan], [[0.0], [-2.0]]):
            with pytest.raises(ThetaOutOfDomain):
                sq11.check_theta(np.array(bad))
        with pytest.raises(ThetaOutOfDomain):
            risk_curve(sq11, ThetaGrid(-1, 2, 4), make_sample([0.2], -3, 3))


class TestTrueRisk:
    def test_variance_oracle(self):
        assert true_risk(sq11, (-3, 3), 0.0) == pytest.approx(TRUNC_VAR, abs=1e-12)

    def test_shift_identity(self):
        assert true_risk(sq11, (-3, 3), 1.0) == pytest.approx(TRUNC_VAR + 1.0, abs=1e-12)


def _phi(y):
    return math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)


def _normal_mass(a, b):
    """Standard-normal mass of [a, b], through the tail that does not cancel."""
    s = math.sqrt(2.0)
    if a >= 0:
        return 0.5 * (math.erfc(a / s) - math.erfc(b / s))
    if b <= 0:
        return 0.5 * (math.erfc(-b / s) - math.erfc(-a / s))
    return 1.0 - 0.5 * (math.erfc(-a / s) + math.erfc(b / s))


def _squared_moment(a, b, t):
    """E (Y - t)^2 = Var + (mu - t)^2 for Y standard normal truncated to [a, b]."""
    z = _normal_mass(a, b)
    mu = (_phi(a) - _phi(b)) / z
    var = 1.0 + (a * _phi(a) - b * _phi(b)) / z - mu * mu
    return var + (mu - t) ** 2


def _absolute_moment(a, b, t):
    """E |Y - t| = E[Y - t; Y > c] - E[Y - t; Y < c], with c = t clipped to [a, b]."""
    c = min(max(t, a), b)
    above = _phi(c) - _phi(b) - t * _normal_mass(c, b)
    below = _phi(a) - _phi(c) - t * _normal_mass(a, c)
    return (above - below) / _normal_mass(a, b)


def _exact_piecewise(loss_kind, knots, dens, t):
    """E loss(t, Y) for a piecewise-linear density, in exact rational arithmetic.

    Every piece is split at t, so the integrand is a cubic on each part and
    Simpson's rule is exact.
    """
    knots, dens, t = [Fraction(k) for k in knots], [Fraction(d) for d in dens], Fraction(t)
    total = Fraction(0)
    for u, v, du, dv in zip(knots, knots[1:], dens, dens[1:]):
        def f(y):
            loss = (y - t) ** 2 if loss_kind == "squared" else abs(y - t)
            return loss * (du + (dv - du) * (y - u) / (v - u))

        for lo, hi in ((u, min(max(t, u), v)), (min(max(t, u), v), v)):
            total += (hi - lo) / 6 * (f(lo) + 4 * f((lo + hi) / 2) + f(hi))
    return total


class TestTrueRiskCurve:
    @pytest.mark.parametrize("a, b", [(-3, 3), (-1, 2), (3, 4), (-50, 50), (-3, 30)])
    @pytest.mark.parametrize("kind, moment", [("squared", _squared_moment),
                                              ("absolute", _absolute_moment)])
    def test_truncated_normal_moments(self, a, b, kind, moment):
        # theta outside, at the ends of, and inside the support; a density that did not
        # integrate to 1 would scale every value
        thetas = [a - 1.0, a, a + 0.3 * (b - a), 0.5 * (a + b), b - 0.25, b, b + 1.0]
        loss = (squared_error_loss if kind == "squared" else absolute_error_loss)((a - 1, b + 1))
        got = true_risk_curve(loss, (a, b), thetas)
        assert got.tolist() == pytest.approx([moment(a, b, t) for t in thetas],
                                             rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind", ["squared", "absolute"])
    def test_tabulated_model_exact(self, kind):
        # a piecewise-linear density: polynomial on every panel between knots and theta, so
        # the quadrature is exact to rounding
        knots, dens = [-1.0, -0.25, 0.5, 2.0], [0.0, 0.5, 0.5, 1.0 / 12.0]
        thetas = np.array([-1.5, -1.0, -0.25, 0.3, 1.999, 2.0, 2.5])
        loss = (squared_error_loss if kind == "squared" else absolute_error_loss)((-2, 3))
        ends = np.sort(np.hstack([np.tile(knots, (len(thetas), 1)),
                                  thetas.clip(knots[0], knots[-1])[:, None]]))
        got = integrate(lambda y: loss(thetas[:, None, None], y) * np.interp(y, knots, dens),
                        ends[:, :-1], ends[:, 1:]).sum(axis=1)
        want = [float(_exact_piecewise(kind, knots, dens, t)) for t in thetas]
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_passes_of_any_size_agree(self, monkeypatch):
        import focalrisk.risk as risk_mod

        thetas = np.linspace(-1, 1, 101)
        whole = true_risk_curve(sq11, MODEL, thetas)
        assert np.array_equal(whole, [true_risk(sq11, MODEL, t) for t in thetas])
        for panels in (1, 100):
            monkeypatch.setattr(risk_mod, "_CHUNK_PANELS", panels)
            assert np.array_equal(true_risk_curve(sq11, MODEL, thetas), whole)

    def test_theta_domain(self):
        with pytest.raises(ThetaOutOfDomain):
            true_risk_curve(sq11, MODEL, [0.0, 1.5])

    @given(st.floats(0.01, 3))
    def test_symmetric_support_gives_a_symmetric_risk(self, theta):
        # the truncated normal on [-3, 3] is symmetric, so E loss(-theta, Y) = E loss(theta, Y)
        for loss in (squared_error_loss((-3, 3)), absolute_error_loss((-3, 3))):
            left, right = true_risk_curve(loss, MODEL, [-theta, theta])
            assert left == pytest.approx(right, rel=1e-12)

    def test_refuses_what_normal_mass_refuses(self):
        # the support is refused before the thetas are looked at
        for lo, hi, error in ((2, 2, DegenerateSupport), (30, 40, SupportMassTooSmall),
                              (-np.inf, 3, NonFiniteValue)):
            with pytest.raises(error):
                true_risk_curve(sq11, (lo, hi), [0.0, 1.5])


class TestSupOnInterval:
    # the upper risk of a one-piece focal system is the sup of the loss over the piece
    def test_endpoint_max(self):
        piece = focal_table([[(0.2, 0.8)]], 0.2, 0.8)
        assert focal_upper_risk_curve(sq01, piece, [0.0])[0] == pytest.approx(0.64)

    def test_degenerate(self):
        piece = focal_table([[(0.5, 0.5)]], 0.5, 0.5)
        assert focal_upper_risk_curve(sq01, piece, [0.3])[0] == pytest.approx(0.04)

    def test_symmetric_endpoints(self):
        piece = focal_table([[(0.2, 0.8)]], 0.2, 0.8)
        assert focal_upper_risk_curve(sq01, piece, [0.5])[0] == pytest.approx(0.09)


class TestUpperRiskGeneral:
    def test_three_focal_sets(self):
        s = make_sample([0.2, 0.8], 0, 1)
        f = focal_sets(s, NonconformityScore.identity())
        assert upper_risk_general(sq01, f, 0.0) == pytest.approx(0.56)

    def test_singleton(self):
        s = make_sample([0.5], 0, 1)
        f = focal_sets(s, NonconformityScore.identity())
        # sups are the loss at both support endpoints: (0.25 + 0.25)/2
        assert upper_risk_general(sq01, f, 0.5) == pytest.approx(0.25)


@st.composite
def _focal_case(draw):
    """A focal system on [-3, 3]: identity sets, loo-mean grid sets on a coarse grid (so
    some ranks go unattained, leaving empty sets) or hand-built pieces that overlap, leave
    gaps and leave sets empty; a loss, and thetas."""
    kind = draw(st.sampled_from(["identity", "loo-mean", "hand"]))
    if kind == "hand":
        ends = st.integers(-12, 12).map(lambda i: i / 4)
        sets = draw(st.lists(st.lists(st.tuples(ends, ends).map(sorted), max_size=3),
                             min_size=1, max_size=6))
        focal = focal_table(sets, -3.0, 3.0)
    else:
        raw = draw(st.lists(st.floats(-3, 3), min_size=1, max_size=40))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyFocalSetWarning)
            score = getattr(NonconformityScore, {"identity": "identity",
                                                 "loo-mean": "distance_to_loo_mean"}[kind])()
            focal = focal_sets(make_sample(raw, -3, 3), score, draw(st.integers(2, 61)))
    loss = draw(st.sampled_from([sq11, abs11]))
    thetas = np.array(draw(st.lists(st.floats(-1, 1), min_size=1, max_size=6)))
    return focal, loss, thetas


@settings(max_examples=300, deadline=None)
@given(_focal_case())
def test_focal_curve_equals_focal_sum(case):
    focal, loss, thetas = case
    want = [focal_sum_upper_risk(loss, focal, t) for t in thetas]
    got = focal_upper_risk_curve(loss, focal, thetas)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert [upper_risk_general(loss, focal, t) for t in thetas] == got.tolist()


def test_focal_curve_with_empty_sets():
    # a 5-point grid leaves rank 1 unattained: set 1 is empty and adds 0; set 3 has two pieces
    with pytest.warns(EmptyFocalSetWarning, match=r"\[1\]"):
        f = focal_sets(make_sample([-2.0, 0.5, 1.0, 2.0], -3, 3),
                       NonconformityScore.distance_to_loo_mean(), grid_points=5)
    assert np.count_nonzero(f.index == 1) == 0 and np.count_nonzero(f.index == 3) == 2
    thetas = np.linspace(-1, 1, 9)
    for loss in (sq11, abs11):
        want = [focal_sum_upper_risk(loss, f, t) for t in thetas]
        assert np.max(np.abs(focal_upper_risk_curve(loss, f, thetas) - want)) <= 1e-12


def test_focal_curve_passes_of_any_size_agree(monkeypatch):
    import focalrisk.risk as risk_mod

    f = focal_sets(make_sample(np.random.default_rng(1).uniform(-3, 3, 50), -3, 3),
                   NonconformityScore.identity())
    thetas = np.linspace(-1, 1, 101)
    whole = focal_upper_risk_curve(abs11, f, thetas)
    for cells in (1, 1000):
        monkeypatch.setattr(risk_mod, "_BLOCK_CELLS", cells)
        assert np.array_equal(focal_upper_risk_curve(abs11, f, thetas), whole)


class TestUpperRiskClosedForm:
    def test_matches_general_at_zero(self):
        s = make_sample([0.2, 0.8], 0, 1)
        assert _core(sq01, s, 0.0)[1] == pytest.approx(1.0)
        assert upper_risk_closed_form(sq01, s, 0.0) == pytest.approx(0.56)

    def test_midpoint_theta(self):
        s = make_sample([0.2, 0.8], 0, 1)
        assert upper_risk_closed_form(sq01, s, 0.5) == pytest.approx(0.59 / 3)


def _core(loss, s, theta):
    """n R_n and M of the closed form at one theta: M as (n + 1) U - n R_n."""
    n_rn = float(_n_rn(loss, s.values[None], s.support_lo, s.support_hi, [theta])[0, 0])
    return n_rn, (s.n + 1) * upper_risk_closed_form(loss, s, theta) - n_rn


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
            closed = upper_risk_closed_form(loss, s, theta)
            assert abs(general - closed) <= 1e-12


def test_slack_bounds():
    # U = n R_n / (n+1) + M / (n+1) with 0 <= M <= loss(theta, a) + loss(theta, b)
    rng = np.random.default_rng(3)
    loss = sq11
    for _ in range(100):
        s = make_sample(rng.uniform(-3, 3, int(rng.integers(1, 30))), -3, 3)
        theta = rng.uniform(-1, 1)
        n_rn, m_theta = _core(loss, s, theta)
        la, lb = float(loss(theta, -3.0)), float(loss(theta, 3.0))
        assert n_rn / s.n == pytest.approx(empirical_risk_curve(loss, s, [theta])[0], rel=1e-14)
        assert -1e-12 <= m_theta <= la + lb + 1e-12
        # M(theta) dominates both endpoint losses
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
        m_small, m_big = _core(sq11, s_small, theta)[1], _core(sq11, s_big, theta)[1]
        assert m_big >= m_small - 1e-12


class TestRiskCurve:
    def test_upper_closed_vs_general_on_grid(self):
        s = make_sample([0.2, 0.5, 0.8], 0, 1)
        grid = ThetaGrid(0, 1, 21)
        f = focal_sets(s, NonconformityScore.identity())
        via_focal = focal_upper_risk_curve(sq01, f, grid.points)
        via_sample = risk_curve(sq01, grid, s)[1]
        assert np.max(np.abs(via_focal - via_sample)) <= 1e-12

    def test_columns_in_table_order(self):
        s, grid = make_sample([-0.4, 0.1, 2.5], -3, 3), ThetaGrid(-1, 1, 9)
        want = [empirical_risk_curve(sq11, s, grid.points),
                closed_form_curve(sq11, s, grid.points), true_risk_curve(sq11, MODEL, grid.points)]
        for support, cols in ((None, want[:2]), (MODEL, want)):
            got = risk_curve(sq11, grid, s, support)
            assert [c.tobytes() for c in got] == [c.tobytes() for c in cols]

    @pytest.mark.parametrize("value, support, name", [(1e200, (1e199, 1e201), "empirical"),
                                                      (0.0, (-1e160, 1e160), "upper")])
    def test_first_non_finite_column_refused(self, value, support, name):
        # (1e200 - theta)^2 overflows, and this support holds no normal mass, which the true
        # column would refuse; (theta + 1e160)^2, the upper risk's loss at a, overflows
        with pytest.raises(NonFiniteValue, match=f"^{name} risk is not finite on"):
            risk_curve(sq01, ThetaGrid(0, 1, 3), make_sample([value], *support), support)

    def test_true_curve_shape(self):
        grid = ThetaGrid(-1, 1, 9)
        c = true_risk_curve(sq11, MODEL, grid.points)
        assert np.allclose(c, TRUNC_VAR + grid.points**2, rtol=0, atol=1e-12)

    def test_csv_round_trip(self):
        s = make_sample([0.2, 0.8], 0, 1)
        grid = ThetaGrid(0, 1, 5)
        c = risk_curve(sq01, grid, s)[1]
        text = format_csv("theta,value,kind", zip(grid.points, c, ["upper"] * 5))
        lines = text.strip().splitlines()[1:]
        parsed = [(float(a), float(b)) for a, b, _ in (l.split(",") for l in lines)]
        text2 = "theta,value,kind\n" + "".join(
            f"{t:.17g},{v:.17g},upper\n" for t, v in parsed
        )
        assert text2 == text


class TestFormatCsv:
    def test_equals_per_cell_format(self):
        # oracle: the earlier writer, which formatted and type-tested every cell
        rows = [(5, 0.1, "upper", np.float64(-0.0), np.int64(7)),
                (10**20, float("inf"), "", float("nan"), 2**53 + 1),
                (-3, np.float64(1e-300), "x,y", 1 / 3, True)]
        want = "a\n" + "".join(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row)
                               + "\n" for row in rows)
        assert format_csv("a", rows) == want
        assert format_csv("a", iter(rows)) == want
        assert format_csv("a", []) == "a\n"


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
        # absolute loss, Z = {0, 0.5, 1}: U is 0.5 on all of [0.25, 0.75], so on the grid
        s = make_sample([0.5], 0, 1)
        grid = ThetaGrid(0.3, 0.7, 11)
        theta, value = minimize_upper_risk(absolute_error_loss((0, 1)), s, grid)
        assert theta == grid.lo
        assert value == pytest.approx(0.5)
        assert np.allclose(closed_form_curve(absolute_error_loss((0, 1)), s, grid.points), 0.5)

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

    def test_grid_outside_the_theta_domain_is_refused(self):
        # risk_curve refuses this grid; the minimizer returned theta = 1.4875 outside [-1, 1]
        s = make_sample([2.9, 2.95, 3.0], -3, 3)
        for loss in (sq11, abs11):
            for grid in (ThetaGrid(-5, 5, 11), ThetaGrid(-1, 1.5, 3), ThetaGrid(-2, -2, 1)):
                with pytest.raises(ThetaOutOfDomain):
                    minimize_upper_risk(loss, s, grid)
                with pytest.raises(ThetaOutOfDomain):
                    argmin_rows(loss, s.values[None], -3.0, 3.0, grid)


def _parent_minimize_rows(loss, rows, a, b, grid, tol=1e-9):
    """The earlier minimizer on the loss-table path: golden section over the cells next
    to the grid argmin (ties to the lowest index), kept if strictly lower."""
    curves = _table_upper(loss, rows, a, b, grid.points)
    idx = np.argmin(curves, axis=1)
    theta0, best = grid.points[idx], curves[np.arange(len(idx)), idx]
    if grid.count == 1:
        return theta0, best
    lo = grid.points[np.maximum(idx - 1, 0)]
    hi = grid.points[np.minimum(idx + 1, grid.count - 1)]
    theta, val = np.array([
        scalar_golden_section_min(lambda t: _table_upper(loss, row[None], a, b, [[t]])[0, 0],
                                  lo_i, hi_i, tol)
        for row, lo_i, hi_i in zip(rows, lo, hi)]).T
    better = (lo < hi) & (val < best)
    return np.where(better, theta, theta0), np.where(better, val, best)


def _table_core(loss, rows, a, b, thetas):
    """The closed form's n R_n and M from the full loss table: the reference for every loss."""
    thetas = np.asarray(thetas, dtype=float)
    la, lb = np.asarray(loss(thetas, a)), np.asarray(loss(thetas, b))
    table = np.asarray(loss(thetas[..., None], rows[:, None, :]), dtype=float)
    m_theta = la + lb - np.minimum(np.minimum(la, lb), table.min(axis=-1))
    return table.sum(axis=-1), m_theta


def _table_upper(loss, rows, a, b, thetas):
    n_rn, m_theta = _table_core(loss, rows, a, b, thetas)
    return (n_rn + m_theta) / (rows.shape[1] + 1)


def _ulps(x, count=4):
    return count * np.spacing(np.abs(x))


def _check_exact_minimizer(loss, rows, grid):
    """argmin_rows against a dense grid and the earlier golden section, both on the table;
    minimize_upper_risk gives each row's argmin and the closed form's bytes there."""
    theta, value = argmin_and_min(loss, rows, -3.0, 3.0, grid)
    assert np.all((grid.lo <= theta) & (theta <= grid.hi))
    for row, row_theta in zip(rows, theta):
        got_theta, got_value = minimize_upper_risk(loss, make_sample(row, -3, 3), grid)
        at_theta = upper_risk_batch(loss, row[None], -3.0, 3.0, [[got_theta]])[0, 0]
        assert got_theta == row_theta and np.float64(got_value).tobytes() == at_theta.tobytes()
    dense = np.linspace(grid.lo, grid.hi, 20001)
    pieces = np.array_split(dense, 1 + dense.size * rows.size // 2**18)  # tables of <= 2 MiB
    dense_min = np.min([_table_upper(loss, rows, -3.0, 3.0, d).min(axis=1) for d in pieces], axis=0)
    assert np.all(value <= dense_min + _ulps(dense_min))
    g_theta, g_value = _parent_minimize_rows(loss, rows, -3.0, 3.0, grid)
    assert np.all(value <= g_value + _ulps(g_value))
    if loss.kind.value == "squared":  # strictly convex in theta: one argmin
        assert np.max(np.abs(theta - g_theta)) <= 1e-7


class TestRefineGridMin:
    LOSSES = [sq11, abs11, squared_error_loss((-8, 8)), absolute_error_loss((-8, 8)),
              squared_error_loss((-2, 2))]

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("count", [1, 2, 5, 21])
    def test_minimize_rows_equals_parent(self, loss, count):
        # at most the dense minimum and the earlier golden section, for every loss
        rng = np.random.default_rng(count)
        rows = np.sort(rng.uniform(-3, 3, (7, 9)), axis=1)
        grid = ThetaGrid(-1, 1, count) if count > 1 else ThetaGrid(0.25, 0.25, 1)
        _check_exact_minimizer(loss, rows, grid)


EXACT_LOSSES = [squared_error_loss((-8, 8)), absolute_error_loss((-8, 8))]


def _one_candidate_cases(a, b):
    """(sorted rows, lo, hi) on support [a, b]: rows of n = 1 to 300 with ties, all equal and at
    the support's ends; grids around the data, beyond it on either side, and of one point."""
    rng = np.random.default_rng(int(b - a))
    for n in (1, 2, 3, 10, 57, 300):
        rows = rng.uniform(a, b, (40, n))
        rows[:10] = np.round(rows[:10])  # ties
        rows[10:15] = rng.uniform(a, b, (5, 1))  # all equal
        rows[15:20] = rng.choice([a, b], (5, n))
        rows[20:22] = [[a], [b]]
        rows = np.sort(rows, axis=1)
        grids = [(a - 10, b + 10), (a - 10, a - 5), (b + 5, b + 10), (a, a), (b, b), (0, 0)]
        grids += [tuple(np.sort(rng.uniform(a - 10, b + 10, 2))) for _ in range(12)]
        grids += [(t, t) for t in rng.uniform(a, b, 4)]
        for lo, hi in grids:
            yield rows, lo, hi


@st.composite
def _rows_and_thetas(draw):
    """Sorted rows on a support, with ties, and thetas on, between and beyond the data."""
    lo = draw(st.floats(-60, 50))  # supports near 0 and far from it
    hi = lo + draw(st.floats(0.5, 6))
    r, n = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    u = draw(st.lists(st.floats(0, 1), min_size=r * n, max_size=r * n))
    if draw(st.booleans()):
        u = [round(v, 1) for v in u]  # ties within and across rows
    rows = np.sort(lo + (hi - lo) * np.reshape(u, (r, n)), axis=1)
    extra = [lo + d for d in draw(st.lists(st.floats(-3, 9), min_size=1, max_size=6))]
    thetas = np.array(sorted(set(rows[0].tolist()) | {lo, hi, lo - 1, hi + 1} | set(extra)))
    return rows, lo, hi, thetas


def _check_core(loss, rows, a, b, thetas):
    n_rn = _n_rn(loss, rows, a, b, thetas)
    want_n_rn, want_m = _table_core(loss, rows, a, b, thetas)
    upper = upper_risk_batch(loss, rows, a, b, thetas)
    assert n_rn.shape == want_n_rn.shape == upper.shape
    # M is exact: the closed form adds the table's M to n R_n, bit for bit
    assert upper.tobytes() == ((n_rn + want_m) / (rows.shape[1] + 1)).tobytes()
    scale = want_n_rn + want_m  # (n+1) times the upper risk, at least M > 0
    # a loss value may be subnormal: 8 ulps for the closed form, and the oracle rounds each
    # of its n loss values by up to half an ulp
    underflow = (8 + rows.shape[1] / 2) * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(n_rn - want_n_rn) <= 1e-13 * scale + underflow)
    want = _table_upper(loss, rows, a, b, thetas)
    assert np.all(np.abs(upper - want) <= 1e-13 * want + underflow)


class TestSufficientStatistics:
    """The per-row-sum closed form of every loss against the loss table."""

    @pytest.mark.parametrize("loss", EXACT_LOSSES, ids=["squared", "absolute"])
    @settings(max_examples=300, deadline=None)
    @given(case=_rows_and_thetas())
    def test_equals_table_path(self, loss, case):
        rows, a, b, thetas = case
        _check_core(loss, rows, a, b, thetas)  # (k,): the thetas of every row
        _check_core(loss, rows, a, b, np.resize(thetas, (len(rows), 3)))  # (r, k): per row

    def test_subnormal_table(self):
        # absolute loss at theta = 0: the loss table holds the subnormal 5e-324 and zeros
        loss = absolute_error_loss((-0.1, 0.1))
        rows = np.array([[0.0] * 15 + [5e-324]])
        _check_core(loss, rows, -3.0, 3.0, np.array([0.0]))
        _check_core(loss, rows, -3.0, 3.0, np.zeros((1, 3)))
        assert _n_rn(loss, rows, -3.0, 3.0, [0.0])[0, 0] == 5e-324

    @pytest.mark.parametrize("loss", EXACT_LOSSES, ids=["squared", "absolute"])
    def test_one_observation_and_all_tied(self, loss):
        for values in ([0.3], [0.3] * 7, [-2.0, 0.3, 0.3, 0.3, 2.5]):
            _check_core(loss, np.array([values]), -3.0, 3.0, np.array([-8, -3, 0.3, 0.31, 3, 8.0]))

    @pytest.mark.parametrize("loss", EXACT_LOSSES, ids=["squared", "absolute"])
    def test_support_far_from_zero(self, loss):
        # sums about the support's centre: rounding scales with b - a, not with |a|
        rng = np.random.default_rng(8)
        for lo in (-800.0, 500.0, 3e4):
            rows = np.sort(lo + rng.uniform(0, 6, (50, 40)), axis=1)
            _check_core(loss, rows, lo, lo + 6, lo + np.linspace(-1, 7, 33))

    @pytest.mark.parametrize("loss", EXACT_LOSSES, ids=["squared", "absolute"])
    def test_memory_stays_linear_in_n(self, loss):
        # the loss table of this call would take 101 x 2e5 x 8 bytes = 162 MB
        import tracemalloc

        values = np.sort(np.random.default_rng(0).uniform(-3, 3, 200_000))
        thetas = np.linspace(-1, 1, 101)
        tracemalloc.start()
        try:
            upper_risk_batch(loss, values[None], -3.0, 3.0, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


@pytest.mark.parametrize("loss", EXACT_LOSSES, ids=["squared", "absolute"])
def test_each_row_is_counted_below_theta_once(loss, monkeypatch):
    # _below is a Python loop over rows: the closed form hands its counts to n R_n
    import focalrisk.risk as risk_mod

    calls, below = [], risk_mod._below
    monkeypatch.setattr(risk_mod, "_below", lambda *a: calls.append(1) or below(*a))
    rows = np.sort(np.random.default_rng(4).uniform(-3, 3, (7, 30)), axis=1)
    upper_risk_batch(loss, rows, -3.0, 3.0, np.linspace(-1, 1, 11))
    assert len(calls) == 1


class TestRowsAlone:
    """A chunk of sample rows gives each row's result bit for bit, whatever rows share it."""

    @pytest.mark.parametrize("loss", EXACT_LOSSES, ids=["squared", "absolute"])
    @pytest.mark.parametrize("a, b", [(-3.0, 3.0), (-3.0, 10.0)])
    def test_chunk_equals_rows_one_by_one(self, loss, a, b):
        # on [-3, 10] the support's centre 3.5 lies above most rows' maxima: one shift for
        # the whole chunk moved 395 of these 400 rows' squared-loss risk, by up to 4.4e-15
        from focalrisk.simulate import sample_chunks

        rows = next(sample_chunks((a, b), 0, 50, 400, 1))
        thetas = np.linspace(-1, 1, 21)
        alone = np.vstack([upper_risk_batch(loss, row[None], a, b, thetas) for row in rows])
        assert np.array_equal(upper_risk_batch(loss, rows, a, b, thetas), alone)
        grid, part = ThetaGrid(-1, 1, 21), rows[::10]
        alone = [argmin_and_min(loss, row[None], a, b, grid) for row in part]
        for got, want in zip(argmin_and_min(loss, part, a, b, grid), zip(*alone)):
            assert np.array_equal(got, np.concatenate(want))


class TestExactMinimizer:
    """argmin_rows: each row's exact argmin, ties to the lowest theta."""

    @pytest.mark.parametrize("loss", EXACT_LOSSES, ids=["squared", "absolute"])
    def test_at_most_dense_grid_and_golden_section(self, loss):
        rng = np.random.default_rng(17)
        for n in (1, 2, 9, 40):
            for lo, hi, count in ((-1, 1, 21), (-1, 1, 2), (0.25, 0.25, 1), (-4, 4, 51),
                                  (1.5, 2.5, 11)):
                rows = rng.uniform(-3, 3, (6, n))
                if n > 2:
                    rows[:3] = np.round(rows[:3])  # ties
                _check_exact_minimizer(loss, np.sort(rows, axis=1), ThetaGrid(lo, hi, count))

    @pytest.mark.parametrize("a, b", [(-3.0, 10.0), (-50.0, 2.0)])
    def test_squared_one_candidate_equals_all_candidates(self, a, b):
        # U is convex, so one cell's clipped vertex is its min; the reference takes the best of
        # every cell's
        loss, checked = squared_error_loss((a - 10, b + 10)), 0
        for rows, lo, hi in _one_candidate_cases(a, b):
            theta, value = argmin_and_min(loss, rows, a, b, ThetaGrid(lo, hi, 5 if lo < hi else 1))
            want_theta, want_value = squared_all_candidates_min(loss, rows, a, b, lo, hi)
            assert np.all(np.abs(theta - want_theta) <= 1e-15 * np.maximum(1, np.abs(want_theta)))
            assert np.all(value <= want_value + _ulps(want_value))
            checked += len(rows)
        assert checked == 6 * 40 * 22

    @pytest.mark.parametrize("a, b", [(-3.0, 10.0), (-50.0, 2.0)])
    def test_absolute_one_candidate_against_all_candidates(self, a, b):
        # U bends only at the midpoints, with slope 2j - n - 1: even n has one argmin, among
        # the reference's candidates; odd n a flat one, whose lowest end is taken
        loss, checked = absolute_error_loss((a - 10, b + 10)), 0
        for rows, lo, hi in _one_candidate_cases(a, b):
            theta, value = argmin_and_min(loss, rows, a, b, ThetaGrid(lo, hi, 5 if lo < hi else 1))
            want_theta, want_value = absolute_all_candidates_min(loss, rows, a, b, lo, hi)
            if rows.shape[1] % 2 == 0:
                assert theta.tobytes() == want_theta.tobytes()
                assert value.tobytes() == want_value.tobytes()
            else:
                assert np.all(theta <= want_theta)
                assert np.all(value <= want_value + _ulps(want_value))
            checked += len(rows)
        assert checked == 6 * 40 * 22

    def test_squared_study_rows_equal_all_candidates(self):
        # simulate's defaults: 1000 rows each of n = 20 and 200 on [-3, 3], thetas in [-1, 1]
        from focalrisk.simulate import sample_chunks

        for n in (20, 200):
            rows = next(sample_chunks((-3.0, 3.0), 0, n, 1000, n))
            theta, value = argmin_and_min(sq11, rows, -3.0, 3.0, ThetaGrid(-1, 1, 101))
            want_theta, want_value = squared_all_candidates_min(sq11, rows, -3.0, 3.0, -1, 1)
            assert theta.tobytes() == want_theta.tobytes()
            assert value.tobytes() == want_value.tobytes()

    def test_absolute_study_rows_at_the_lowest_minimizer(self):
        # n = 21 is odd, so U is flat about the median; the all-candidates argmin landed
        # inside the flat part on 181 of these 1000 rows, by up to 0.364
        from focalrisk.simulate import sample_chunks

        loss = absolute_error_loss((-1, 1))
        rows = next(sample_chunks((-3.0, 3.0), 0, 21, 1000, 21))
        theta = argmin_rows(loss, rows, -3.0, 3.0, ThetaGrid(-1, 1, 101))
        inside = theta > -1
        below = np.column_stack([theta - 1e-9, theta])[inside]
        at = upper_risk_batch(loss, rows[inside], -3.0, 3.0, below)
        assert inside.sum() > 900
        assert np.all(at[:, 0] > at[:, 1])

    def test_no_golden_section_and_no_loss_table(self):
        import focalrisk.risk as risk_mod

        assert not hasattr(risk_mod, "golden_section_min")
        grid, largest = ThetaGrid(-1, 1, 21), {}
        for base, n in itertools.product(EXACT_LOSSES, (30, 300)):
            rows = np.sort(np.random.default_rng(2).uniform(-3, 3, (5, n)), axis=1)
            loss = _CountedLoss(base.kind, base.theta_domain)
            argmin_and_min(loss, rows, -3.0, 3.0, grid)
            minimize_upper_risk(loss, make_sample(rows[0], -3, 3), grid)
            largest[base.kind.value, n] = max(loss.sizes)
        for kind in ("squared", "absolute"):
            assert largest[kind, 30] <= 5 * (2 * 32 + 1)  # one value per row and candidate
            assert largest[kind, 300] == largest[kind, 30]  # nothing grows with n

    def test_no_grid_curve(self, monkeypatch):
        # every closed form the exact minimizer takes is at its (r, k) candidates
        import focalrisk.risk as risk_mod

        shapes = []

        def record(loss, rows, a, b, thetas, upper=risk_mod.upper_risk_batch):
            shapes.append(np.shape(thetas))
            return upper(loss, rows, a, b, thetas)

        monkeypatch.setattr(risk_mod, "upper_risk_batch", record)
        s = make_sample(np.random.default_rng(3).uniform(-3, 3, 12), -3, 3)
        for loss in EXACT_LOSSES:
            minimize_upper_risk(loss, s, ThetaGrid(-1, 1, 101))
        assert shapes and all(len(shape) == 2 for shape in shapes)

    def test_absolute_ties_to_the_lowest_minimizing_breakpoint(self):
        # n = 1, Z = {-3, 0, 3}: 2 U(theta) = 6 on [-1.5, 1.5], and more outside
        s = make_sample([0.0], -3, 3)
        abs4 = absolute_error_loss((-4, 4))
        assert minimize_upper_risk(abs4, s, ThetaGrid(-4, 4, 9)) == (-1.5, 3.0)
        assert minimize_upper_risk(abs4, s, ThetaGrid(-1, 1, 5)) == (-1.0, 3.0)
        assert minimize_upper_risk(abs4, s, ThetaGrid(2, 4, 5)) == (2.0, 3.5)

    def test_squared_min_at_a_cell_end(self):
        # Z = {0, 0.2, 0.8, 1}: on the cell of 0.2 the vertex is (2 - 0.2) / 3 = 0.6, outside
        # it, and 0.4 on the cell of 0.8: the min is the kink where the two cells meet, 0.5
        s = make_sample([0.2, 0.8], 0, 1)
        theta, value = minimize_upper_risk(sq01, s, ThetaGrid(0, 1, 3))
        assert theta == 0.5 and value == pytest.approx(0.19666666666666668, abs=1e-15)
