import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalrisk import (
    NonconformityScore,
    RiskKind,
    ThetaGrid,
    TrueModel,
    absolute_error_loss,
    constant_loss,
    focal_sets,
    make_sample,
    minimize_upper_risk,
    risk_curve,
    squared_error_loss,
    tabulated_loss,
    true_risk,
    upper_risk_closed_form,
    upper_risk_general,
)
from focalrisk.errors import EmptyFocalSetWarning, NonConvexLoss, ThetaOutOfDomain
from focalrisk.consistency import _loss_range
from focalrisk.quadrature import integrate
from focalrisk.risk import (
    _closed_form_core,
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

sq01 = squared_error_loss((0, 1))
sq11 = squared_error_loss((-1, 1))
# linear in y between its knots, but not convex in y
BUMPY = tabulated_loss([-1, 0, 1], [-3, -1, 0.5, 3], [[3, 0, 4, 1], [0, 5, 1, 2], [2, 1, 0, 6]])


def _empirical_cases(n):
    """(sample, grid, losses) of n values: filling a centred support, concentrated far from
    the support's centre, and packed about theta at the support's edge (there each loss value
    is small against the data and theta)."""
    rng = np.random.default_rng(n)
    edge = 2.95 + rng.uniform(-1e-4, 1e-4, n)
    fill = [squared_error_loss, absolute_error_loss]
    yield (make_sample(rng.uniform(-3, 3, n), -3, 3), ThetaGrid(-1, 1, 21),
           [sq11, absolute_error_loss((-1, 1)), constant_loss(0.7), BUMPY])
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
        risk_curve(loss, grid, RiskKind.EMPIRICAL, sample=s)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEmpiricalRisk:
    def test_hand_checked(self):
        s = make_sample([0.2, 0.8], 0, 1)
        assert empirical_risk_curve(sq01, s, [0.5])[0] == pytest.approx(0.09)
        assert empirical_risk_curve(sq01, s, [0.0])[0] == pytest.approx(0.34)

    def test_constant(self):
        s = make_sample([0.1, 0.9], 0, 1)
        assert empirical_risk_curve(constant_loss(2.5, (0, 1)), s, [0.3])[0] == pytest.approx(2.5)

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
                curve = risk_curve(loss, grid, RiskKind.EMPIRICAL, sample=s).values
                want = np.array([empirical_risk_curve(loss, s, [t])[0] for t in grid.points])
                assert curve.tobytes() == want.tobytes()
                _assert_fsum_mean(curve, loss, s, grid)

    def test_curve_memory_bounded_in_thetas(self):
        # the whole (theta, n) table of this curve would take 65536 x 500 x 8 bytes = 262 MB
        assert _empirical_curve_peak(sq11) < 8 * 2**20

    def test_table_curve_memory_bounded_in_thetas(self):
        # a table's (theta, y knot) loss values alone take 65536 x 100 x 8 = 52 MB, so its
        # thetas go in passes: peak 18.5 MiB measured
        table = tabulated_loss([-1, 1], np.linspace(-3, 3, 100),
                               np.linspace(0, 1, 200).reshape(2, 100))
        assert _empirical_curve_peak(table) < 32 * 2**20

    def test_equals_fsum_of_the_losses(self):
        # n = 1e5: the bound is ~450 ulps, ~sqrt(n) ulps for the sequential sums
        for s, grid, losses in _empirical_cases(100_000):
            for loss in losses:
                curve = risk_curve(loss, grid, RiskKind.EMPIRICAL, sample=s).values
                _assert_fsum_mean(curve, loss, s, grid)
                assert empirical_risk_curve(loss, s, [grid.points[3]])[0] == curve[3]

    @pytest.mark.parametrize("n", [7, 1000])
    def test_table_near_its_zero(self, n):
        # BUMPY at theta = 1 is (0.5 - y) / 1.5 on [-1, 0.5]: data 1e-9 below 0.5 have losses
        # ~3e-10, small against the table's 1 at y = -1.  The oracle takes each loss from
        # 0.5 - y, exact there; BUMPY's own interpolation rounds them to ~1e-16 absolute.
        y = 0.5 - np.random.default_rng(n).uniform(0, 1e-9, n)
        got = empirical_risk_curve(BUMPY, make_sample(y, -3, 3), [1.0])[0]
        want = math.fsum((0.5 - y) / 1.5) / n
        assert abs(got - want) <= 1e-13 * want

    def test_curve_work_linear_in_n_plus_thetas(self):
        # the (theta, n) loss table took 4097 x 5000 = 2.0e7 loss values; n R_n takes none
        # for squared and absolute loss and one per theta and y sup point for a table
        grid, sizes = ThetaGrid(-1, 1, 4097), {}
        for base in (sq11, absolute_error_loss((-1, 1)), BUMPY):
            for n in (50, 5000):
                s = make_sample(np.random.default_rng(n).uniform(-3, 3, n), -3, 3)
                cells = []

                def evaluate(t, y, f=base.evaluate):
                    cells.append(np.broadcast(t, y).size)
                    return f(t, y)

                loss = dataclasses.replace(base, evaluate=evaluate)
                risk_curve(loss, grid, RiskKind.EMPIRICAL, sample=s)
                sizes[base.kind.value, n] = sum(cells)
        assert sizes["squared", 5000] == sizes["absolute", 5000] == 0
        assert sizes["tabulated", 5000] == 4097 * 4  # BUMPY: 4 y sup points on [-3, 3]
        for kind in ("squared", "absolute", "tabulated"):
            assert sizes[kind, 5000] == sizes[kind, 50]  # nothing grows with n

    def test_nonconvex_table_has_an_empirical_risk_but_no_closed_form(self):
        s = make_sample([-1.0, 0.5, 2.0], -3, 3)
        grid = ThetaGrid(-1, 1, 5)
        curve = risk_curve(BUMPY, grid, RiskKind.EMPIRICAL, sample=s).values
        want = [math.fsum(BUMPY(t, s.values)) / 3 for t in grid.points]
        assert np.allclose(curve, want, rtol=1e-15, atol=0)
        with pytest.raises(NonConvexLoss):
            risk_curve(BUMPY, grid, RiskKind.UPPER, sample=s)
        with pytest.raises(NonConvexLoss):
            upper_risk_batch(BUMPY, s.values[None], -3.0, 3.0, grid.points)
        with pytest.raises(NonConvexLoss):
            argmin_rows(BUMPY, s.values[None], -3.0, 3.0, grid)

    def test_array_theta_domain(self):
        sq11.check_theta(np.linspace(-1, 1, 5))
        for bad in ([0.0, 1.5], [np.nan], [[0.0], [-2.0]]):
            with pytest.raises(ThetaOutOfDomain):
                sq11.check_theta(np.array(bad))
        with pytest.raises(ThetaOutOfDomain):
            risk_curve(sq11, ThetaGrid(-1, 2, 4), RiskKind.EMPIRICAL, sample=make_sample([0.2], -3, 3))


class TestTrueRisk:
    def test_variance_oracle(self):
        model = TrueModel.truncated_std_normal(-3, 3)
        assert true_risk(sq11, model, 0.0) == pytest.approx(TRUNC_VAR, abs=1e-12)

    def test_shift_identity(self):
        model = TrueModel.truncated_std_normal(-3, 3)
        assert true_risk(sq11, model, 1.0) == pytest.approx(TRUNC_VAR + 1.0, abs=1e-12)


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
        # theta outside, at the ends of, and inside the support
        thetas = [a - 1.0, a, a + 0.3 * (b - a), 0.5 * (a + b), b - 0.25, b, b + 1.0]
        loss = (squared_error_loss if kind == "squared" else absolute_error_loss)((a - 1, b + 1))
        model = TrueModel.truncated_std_normal(a, b)
        got = true_risk_curve(loss, model, thetas)
        assert got.tolist() == pytest.approx([moment(a, b, t) for t in thetas],
                                             rel=1e-12, abs=1e-12)
        # the density integrates to 1: the true risk of a loss that is 1 everywhere
        assert true_risk_curve(constant_loss(1.0, loss.theta_domain), model, [a]) == \
            pytest.approx(1.0, abs=1e-12)

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

    def test_tabulated_loss_kinks(self):
        # y-knots off the normal model's unit panels: the panels must split there
        loss = tabulated_loss([-1.0, 0.0, 1.0], [-3.0, -1.3, 0.2, 1.7, 3.0],
                              np.array([[4.0, 1.0, 0.0, 2.0, 5.0],
                                        [3.0, 0.5, 1.5, 0.0, 2.0],
                                        [1.0, 2.5, 0.0, 3.0, 0.5]]))
        model = TrueModel.truncated_std_normal(-3, 3)
        thetas = np.array([-1.0, -0.35, 0.0, 0.6, 1.0])
        got = true_risk_curve(loss, model, thetas)
        # dense reference: composite Simpson, 4000 intervals between consecutive knots
        want = np.zeros_like(thetas)
        for u, v in zip(loss.y_breaks, loss.y_breaks[1:]):
            ys = np.linspace(u, v, 4001)
            f = loss(thetas[:, None], ys) * model.density(ys)
            h = (v - u) / 4000
            want += h / 3 * (f[:, 0] + f[:, -1] + 4 * f[:, 1:-1:2].sum(1) + 2 * f[:, 2:-1:2].sum(1))
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_passes_of_any_size_agree(self, monkeypatch):
        import focalrisk.risk as risk_mod

        model = TrueModel.truncated_std_normal(-3, 3)
        thetas = np.linspace(-1, 1, 101)
        whole = true_risk_curve(sq11, model, thetas)
        assert np.array_equal(whole, [true_risk(sq11, model, t) for t in thetas])
        for panels in (1, 100):
            monkeypatch.setattr(risk_mod, "_CHUNK_PANELS", panels)
            assert np.array_equal(true_risk_curve(sq11, model, thetas), whole)

    def test_theta_domain(self):
        model = TrueModel.truncated_std_normal(-3, 3)
        with pytest.raises(ThetaOutOfDomain):
            true_risk_curve(sq11, model, [0.0, 1.5])


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

    def test_nonconvex_exact_at_interior_knot(self):
        # the peak sits on the y-knot 0.5, inside the interval: no grid can miss it
        bumpy = tabulated_loss([0.0, 1.0], [0.0, 0.5, 1.0], np.array([[0, 3, 0], [0, 3, 0]]))
        whole, part = focal_table([[(0.0, 1.0)]], 0.0, 1.0), focal_table([[(0.2, 0.3)]], 0.2, 0.3)
        assert focal_upper_risk_curve(bumpy, whole, [0.0])[0] == 3.0
        assert focal_upper_risk_curve(bumpy, part, [0.0])[0] == pytest.approx(1.8, abs=1e-15)


@st.composite
def _tabulated_case(draw):
    """A tabulated loss (convex in y or not), an interval and thetas; with plateaus in y."""
    ky = sorted(draw(st.lists(st.integers(-30, 30), min_size=1, max_size=6, unique=True)))
    ky = [k / 10 for k in ky]
    value = st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0, 10))
    if draw(st.booleans()):  # convex in y: |y - c| scaled and shifted
        c, scale, shift = draw(st.floats(-3, 3)), draw(st.floats(0, 3)), draw(value)
        rows = [[shift + scale * abs(y - c) for y in ky]] * 2
    else:
        rows = [[draw(value) for _ in ky] for _ in range(2)]
    loss = tabulated_loss([-1.0, 1.0], ky, np.array(rows), convex_in_y=draw(st.booleans()))
    a, b = sorted(draw(st.lists(st.floats(-4, 4), min_size=2, max_size=2)))
    thetas = np.array(draw(st.lists(st.floats(-1, 1), min_size=1, max_size=4)))
    return loss, ky, max(map(max, rows)), a, b, thetas


@settings(max_examples=200, deadline=None)
@given(_tabulated_case())
def test_tabulated_extrema_exact(case):
    # The sup over [a, b] is the max over the ends and the y-knots inside, and the
    # loss range is that max minus their min.  Bilinear interpolation rounds by an
    # ulp or so on a plateau, hence the tolerance on the refined inf and the grid.
    loss, ky, top, a, b, thetas = case
    vals = loss(thetas[:, None], [a, *(y for y in ky if a < y < b), b])
    sups = focal_upper_risk_curve(loss, focal_table([[(a, b)]], a, b), thetas)
    assert np.array_equal(sups, vals.max(axis=1))
    tol = 8 * np.finfo(float).eps * max(1.0, top)
    np.testing.assert_allclose(_loss_range(loss, thetas, a, b),
                               vals.max(axis=1) - vals.min(axis=1), rtol=0, atol=tol)
    dense = loss(thetas[:, None], np.linspace(a, b, 1001))
    assert (dense.max(axis=1) <= sups + tol).all()
    assert (dense.min(axis=1) >= vals.min(axis=1) - tol).all()


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
    # BUMPY: not convex in y, with y-knots -1 and 0.5 inside pieces
    loss = draw(st.sampled_from([sq11, absolute_error_loss((-1, 1)), constant_loss(0.7), BUMPY]))
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
    assert f.sets[0] == () and len(f.sets[2]) == 2
    thetas = np.linspace(-1, 1, 9)
    for loss in (sq11, BUMPY):
        want = [focal_sum_upper_risk(loss, f, t) for t in thetas]
        assert np.max(np.abs(focal_upper_risk_curve(loss, f, thetas) - want)) <= 1e-12


def test_focal_curve_passes_of_any_size_agree(monkeypatch):
    import focalrisk.risk as risk_mod

    f = focal_sets(make_sample(np.random.default_rng(1).uniform(-3, 3, 50), -3, 3),
                   NonconformityScore.identity())
    thetas = np.linspace(-1, 1, 101)
    whole = focal_upper_risk_curve(BUMPY, f, thetas)
    for cells in (1, 1000):
        monkeypatch.setattr(risk_mod, "_BLOCK_CELLS", cells)
        assert np.array_equal(focal_upper_risk_curve(BUMPY, f, thetas), whole)


class TestUpperRiskClosedForm:
    def test_matches_general_at_zero(self):
        s = make_sample([0.2, 0.8], 0, 1)
        assert _core(sq01, s, 0.0)[1] == pytest.approx(1.0)
        assert upper_risk_closed_form(sq01, s, 0.0) == pytest.approx(0.56)

    def test_constant(self):
        s = make_sample([0.3, 0.6], 0, 1)
        assert upper_risk_closed_form(constant_loss(2.0, (0, 1)), s, 0.5) == pytest.approx(2.0)

    def test_midpoint_theta(self):
        s = make_sample([0.2, 0.8], 0, 1)
        assert upper_risk_closed_form(sq01, s, 0.5) == pytest.approx(0.59 / 3)

    def test_requires_convexity(self):
        from focalrisk import tabulated_loss

        bumpy = tabulated_loss([0.0, 1.0], [0.0, 1.0], np.ones((2, 2)))
        s = make_sample([0.5], 0, 1)
        with pytest.raises(NonConvexLoss):
            upper_risk_closed_form(bumpy, s, 0.0)


def _core(loss, s, theta):
    """n R_n and M of the closed form at one theta."""
    n_rn, m_theta = _closed_form_core(loss, s.values[None], s.support_lo, s.support_hi, [theta])
    return float(n_rn[0, 0]), float(m_theta[0, 0])


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
        assert upper_risk_closed_form(loss, s, theta) == pytest.approx(
            n_rn / (s.n + 1) + m_theta / (s.n + 1), rel=1e-15)
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
    def test_empirical_constant(self):
        s = make_sample([0.4], 0, 1)
        grid = ThetaGrid(0, 1, 11)
        c = risk_curve(constant_loss(1.0, (0, 1)), grid, RiskKind.EMPIRICAL, sample=s)
        assert np.allclose(c.values, 1.0)

    def test_upper_closed_vs_general_on_grid(self):
        s = make_sample([0.2, 0.5, 0.8], 0, 1)
        grid = ThetaGrid(0, 1, 21)
        f = focal_sets(s, NonconformityScore.identity())
        via_focal = focal_upper_risk_curve(sq01, f, grid.points)
        via_sample = risk_curve(sq01, grid, RiskKind.UPPER, sample=s)
        assert np.max(np.abs(via_focal - via_sample.values)) <= 1e-12

    def test_true_curve_shape(self):
        model = TrueModel.truncated_std_normal(-3, 3)
        grid = ThetaGrid(-1, 1, 9)
        c = risk_curve(sq11, grid, RiskKind.TRUE, model=model)
        assert np.allclose(c.values, TRUNC_VAR + grid.points**2, rtol=0, atol=1e-12)

    def test_csv_round_trip(self):
        s = make_sample([0.2, 0.8], 0, 1)
        grid = ThetaGrid(0, 1, 5)
        c = risk_curve(sq01, grid, RiskKind.UPPER, sample=s)
        text = format_csv("theta,value,kind", zip(grid.points, c.values, ["upper"] * 5))
        lines = text.strip().splitlines()[1:]
        parsed = [(float(a), float(b)) for a, b, _ in (l.split(",") for l in lines)]
        text2 = "theta,value,kind\n" + "".join(
            f"{t:.17g},{v:.17g},upper\n" for t, v in parsed
        )
        assert text2 == text

    def test_upper_from_sample_refuses_nonconvex_loss(self):
        # the closed form is not this loss's upper risk; the focal sum still is
        bumpy = tabulated_loss([-1, 1], [-3, 0, 3], [[0, 3, 0], [0, 3, 0]])
        s = make_sample([-1.0, 0.5, 2.0], -3, 3)
        with pytest.raises(NonConvexLoss):
            risk_curve(bumpy, ThetaGrid(-1, 1, 5), RiskKind.UPPER, sample=s)
        focal = focal_sets(s, NonconformityScore.identity())
        c = focal_upper_risk_curve(bumpy, focal, ThetaGrid(-1, 1, 5).points)
        # focal sets [-3, -1], [-1, 0.5], [0.5, 2], [2, 3]: exact sups 2, 3 (at the knot 0), 2.5, 1
        assert np.allclose(c, 2.125, rtol=0, atol=1e-15)


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
        # (around the grid argmin 0) went left and stopped in the shallow dip at 2.9.
        tk = np.linspace(-1, 1, 21)
        c = 1.0 + 2.0 * np.abs(tk)
        c[9], c[14] = 0.9, 0.0
        loss = tabulated_loss(tk, [-3, 0, 3], np.stack([c + 3, c, c + 3], axis=1), True)
        s = make_sample([-1.0, 0.5, 1.0], -3, 3)
        theta, value = minimize_upper_risk(loss, s, ThetaGrid(-1, 1, 5))
        assert value == closed_form_curve(loss, s, np.array([theta]))[0]
        dense = closed_form_curve(loss, s, np.linspace(-1, 1, 20001)).min()
        assert theta == pytest.approx(0.4) and value <= dense + _ulps(dense)
        assert value == pytest.approx(2.0)

    def test_grid_outside_the_theta_domain_is_refused(self):
        # risk_curve refuses this grid; the minimizer returned theta = 1.4875 outside [-1, 1]
        s = make_sample([2.9, 2.95, 3.0], -3, 3)
        for loss in (sq11, absolute_error_loss((-1, 1)), constant_loss(1.0)):
            for grid in (ThetaGrid(-5, 5, 11), ThetaGrid(-1, 1.5, 3), ThetaGrid(-2, -2, 1)):
                with pytest.raises(ThetaOutOfDomain):
                    minimize_upper_risk(loss, s, grid)
                with pytest.raises(ThetaOutOfDomain):
                    argmin_rows(loss, s.values[None], -3.0, 3.0, grid)


def _parent_minimize_rows(loss, rows, a, b, grid, tol=1e-9):
    """The earlier tabulated-loss minimizer on the table path: golden section over the
    cells next to the grid argmin (ties to the lowest index), kept if strictly lower."""
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
    knots = [t for t in loss.theta_breaks if grid.lo <= t <= grid.hi]
    dense = np.append(np.linspace(grid.lo, grid.hi, 20001), knots)
    pieces = np.array_split(dense, 1 + dense.size * rows.size // 2**18)  # tables of <= 2 MiB
    dense_min = np.min([_table_upper(loss, rows, -3.0, 3.0, d).min(axis=1) for d in pieces], axis=0)
    assert np.all(value <= dense_min + _ulps(dense_min))
    g_theta, g_value = _parent_minimize_rows(loss, rows, -3.0, 3.0, grid)
    assert np.all(value <= g_value + _ulps(g_value))
    if loss.kind.value == "squared":  # strictly convex in theta: one argmin
        assert np.max(np.abs(theta - g_theta)) <= 1e-7


class TestRefineGridMin:
    LOSSES = [sq11, absolute_error_loss((-1, 1)), constant_loss(0.0), constant_loss(1.5),
              tabulated_loss([-1, 1], [-3, 0, 3], [[3, 0, 3], [4, 1, 4]], convex_in_y=True)]

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


TABLE = tabulated_loss([-1, 0, 1], [-3, -1, 0.5, 3], [[3, 1, 0, 2], [2, 0.5, 1, 3], [4, 2, 1, 3]],
                       convex_in_y=True)


@st.composite
def _table_rows(draw):
    """A tabulated loss with 2-6 knots per axis and ties in its table, and sorted rows on
    [-3, 3] with ties and values on the y-knots."""
    def knots(lo, hi):
        ks = draw(st.lists(st.integers(lo, hi), min_size=2, max_size=6, unique=True))
        return [k / 10 for k in sorted(ks)]

    tk, yk = knots(-10, 10), knots(-40, 40)  # y-knots inside and beyond [-3, 3]
    value = st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0, 10))
    loss = tabulated_loss(tk, yk, [[draw(value) for _ in yk] for _ in tk], convex_in_y=True)
    point = st.one_of(st.floats(-3, 3), st.sampled_from([-3.0, 3.0, *(y for y in yk
                                                                      if -3 <= y <= 3)]))
    r, n = draw(st.integers(1, 3)), draw(st.integers(1, 20))
    rows = np.sort(np.reshape(draw(st.lists(point, min_size=r * n, max_size=r * n)), (r, n)))
    return loss, tk, rows


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
    from focalrisk.risk import _closed_form_core

    n_rn, m_theta = _closed_form_core(loss, rows, a, b, thetas)
    want_n_rn, want_m = _table_core(loss, rows, a, b, thetas)
    assert n_rn.shape == want_n_rn.shape
    if loss.kind.value == "tabulated":  # interpolation may round an inner point an ulp lower
        assert np.all(np.abs(m_theta - want_m) <= _ulps(want_m))
    else:
        assert m_theta.tobytes() == want_m.tobytes()
    scale = want_n_rn + want_m  # (n+1) times the upper risk, at least M > 0
    # a table value may be subnormal: 8 ulps for the closed form, and the oracle rounds each
    # of its n table values by up to half an ulp
    underflow = (8 + rows.shape[1] / 2) * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(n_rn - want_n_rn) <= 1e-13 * scale + underflow)
    upper = upper_risk_batch(loss, rows, a, b, thetas)
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

    @settings(max_examples=300, deadline=None)
    @given(case=_table_rows(), data=st.data())
    def test_tabulated_equals_table_path(self, case, data):
        loss, tk, rows = case
        thetas = np.array(data.draw(st.lists(st.one_of(st.floats(tk[0], tk[-1]),
                                                       st.sampled_from(tk)), min_size=1)))
        _check_core(loss, rows, -3.0, 3.0, thetas)
        _check_core(loss, rows, -3.0, 3.0, np.resize(thetas, (len(rows), 3)))

    def test_subnormal_table(self):
        # at theta = 0 the loss is 2.5e-324 at y = 0, which rounds to 0 in the oracle's table:
        # n R_n is 8.5 subnormal ulps, 9 by the closed form and 1 by the table's sum
        loss = tabulated_loss([-0.1, 0], [-0.1, 0.1], [[0, 0], [0, 5e-324]], convex_in_y=True)
        rows = np.array([[0.0] * 15 + [1.0]])
        _check_core(loss, rows, -3.0, 3.0, np.array([0.0]))
        _check_core(loss, rows, -3.0, 3.0, np.zeros((1, 3)))

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

    @pytest.mark.parametrize("loss", [*EXACT_LOSSES, TABLE], ids=["squared", "absolute",
                                                                "tabulated"])
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


class TestRowsAlone:
    """A chunk of sample rows gives each row's result bit for bit, whatever rows share it."""

    @pytest.mark.parametrize("loss", [*EXACT_LOSSES, TABLE], ids=["squared", "absolute",
                                                                "tabulated"])
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

    @settings(max_examples=100, deadline=None)
    @given(case=_table_rows(), data=st.data())
    def test_tabulated_at_most_dense_grid_and_golden_section(self, case, data):
        loss, tk, rows = case
        lo, hi = sorted(data.draw(st.lists(st.one_of(st.floats(tk[0], tk[-1]),
                                                     st.sampled_from(tk)), min_size=2,
                                           max_size=2)))
        count = data.draw(st.integers(2, 21)) if lo < hi else 1
        _check_exact_minimizer(loss, rows, ThetaGrid(lo, hi, count))

    def test_random_tables_at_most_dense_grid_and_golden_section(self):
        # golden section stopped in a local minimum, above the dense grid, on 38 of these
        rng = np.random.default_rng(1)
        for _ in range(100):
            tk = np.sort(rng.choice(np.arange(-10, 11), rng.integers(2, 7), replace=False)) / 10
            yk = np.sort(rng.choice(np.arange(-40, 41), rng.integers(2, 7), replace=False)) / 10
            loss = tabulated_loss(tk, yk, rng.uniform(0, 10, (len(tk), len(yk))), True)
            rows = np.sort(rng.uniform(-3, 3, (1, rng.integers(1, 21))), axis=1)
            _check_exact_minimizer(loss, rows, ThetaGrid(tk[0], tk[-1], int(rng.integers(2, 22))))

    def test_one_row_of_many_knots_stays_within_its_slices(self):
        # 30 knots per axis: ~4e4 candidates and 2.2e6 loss cells per row, 141 MiB peak
        # when one row was one block; slices of the candidates bound it, argmin unchanged
        import tracemalloc

        rng = np.random.default_rng(4)
        loss = tabulated_loss(np.linspace(-1, 1, 30), np.linspace(-3.5, 3.5, 30),
                              rng.uniform(0, 10, (30, 30)), convex_in_y=True)
        rows = np.sort(rng.uniform(-3, 3, (2, 200)), axis=1)
        grid = ThetaGrid(-1, 1, 101)
        tracemalloc.start()
        try:
            argmin_and_min(loss, rows, -3.0, 3.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        _check_exact_minimizer(loss, rows, grid)

    def test_no_golden_section_and_no_loss_table(self):
        import focalrisk.risk as risk_mod

        assert not hasattr(risk_mod, "golden_section_min")
        grid, largest = ThetaGrid(-1, 1, 21), {}
        for base, n in [(EXACT_LOSSES[0], 30), (EXACT_LOSSES[1], 30), (TABLE, 30), (TABLE, 300)]:
            rows = np.sort(np.random.default_rng(2).uniform(-3, 3, (5, n)), axis=1)
            sizes = []

            def evaluate(t, y, f=base.evaluate):
                sizes.append(np.broadcast(t, y).size)
                return f(t, y)

            loss = dataclasses.replace(base, evaluate=evaluate)
            argmin_and_min(loss, rows, -3.0, 3.0, grid)
            minimize_upper_risk(loss, make_sample(rows[0], -3, 3), grid)
            largest[base.kind.value, n] = max(sizes)
        for kind in ("squared", "absolute"):
            assert largest[kind, 30] <= 5 * (2 * 32 + 1)  # one value per row and candidate
        assert largest["tabulated", 300] == largest["tabulated", 30]  # nothing grows with n

    def test_no_grid_curve(self, monkeypatch):
        # every closed form the exact minimizer takes is at its (r, k) candidates
        import focalrisk.risk as risk_mod

        shapes = []

        def record(loss, rows, a, b, thetas, upper=risk_mod.upper_risk_batch):
            shapes.append(np.shape(thetas))
            return upper(loss, rows, a, b, thetas)

        monkeypatch.setattr(risk_mod, "upper_risk_batch", record)
        s = make_sample(np.random.default_rng(3).uniform(-3, 3, 12), -3, 3)
        for loss in (*EXACT_LOSSES, TABLE):
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
