import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from focalrisk import (
    ThetaGrid,
    TrueModel,
    constant_loss,
    make_sample,
    squared_error_loss,
    tabulated_loss,
)
from focalrisk.errors import (DegenerateSupport, EmptySample, NonFiniteValue, OutOfSupport,
                              SupportMassTooSmall)
from focalrisk.quadrature import integrate


class TestMakeSample:
    def test_sorts(self):
        s = make_sample([0.8, 0.2], 0, 1)
        assert s.values.tolist() == [0.2, 0.8]

    def test_singleton(self):
        s = make_sample([0.5], 0, 1)
        assert s.values.tolist() == [0.5]
        assert s.n == 1

    def test_out_of_support(self):
        with pytest.raises(OutOfSupport):
            make_sample([1.2], 0, 1)

    def test_empty(self):
        with pytest.raises(EmptySample):
            make_sample([], 0, 1)

    def test_degenerate_support(self):
        with pytest.raises(DegenerateSupport):
            make_sample([0.5], 1, 1)

    def test_signed_zeros_keep_their_input_order(self):
        # -0.0 == 0.0, so only a stable sort keeps their order, and focal.txt prints the sign;
        # numpy 2.4's default sort reorders them
        raw = np.random.default_rng(0).choice([-1.0, -0.0, 0.0, 1.0], 600)
        want = raw[np.argsort(raw, kind="stable")]
        assert np.array_equal(np.signbit(make_sample(raw, -1, 1).values), np.signbit(want))

    def test_idempotent_on_sorted(self):
        raw = [0.1, 0.2, 0.3]
        s = make_sample(raw, 0, 1)
        assert s.values.tolist() == raw


class TestTruncatedNormalDensity:
    density = TrueModel.truncated_std_normal(-3, 3).density

    def test_value_at_zero(self):
        # phi(0) / (Phi(3) - Phi(-3)), frozen from a 40-digit erf oracle
        assert self.density(0) == pytest.approx(0.40002225892128481, abs=1e-12)

    def test_outside_support(self):
        assert self.density(4) == 0.0

    @given(st.floats(0.01, 3))
    def test_symmetry(self, y):
        assert self.density(-y) == pytest.approx(self.density(y), rel=1e-12)

    def test_integrates_to_one(self):
        # one pass over six unit panels, the layout the normal model's true risk uses
        parts = integrate(self.density, np.arange(-3.0, 3.0), np.arange(-2.0, 4.0))
        assert parts.shape == (6,)
        assert parts.sum() == pytest.approx(1.0, abs=1e-14)

    def test_degenerate_support(self):
        with pytest.raises(DegenerateSupport):
            TrueModel.truncated_std_normal(2, 2)

    def test_refuses_what_normal_mass_refuses(self):
        for lo, hi, error in ((2, 2, DegenerateSupport), (30, 40, SupportMassTooSmall),
                              (-np.inf, 3, NonFiniteValue)):
            with pytest.raises(error):
                TrueModel.truncated_std_normal(lo, hi)


def test_squared_loss_convexity_consequence():
    # midpoint value never exceeds the larger endpoint value
    loss = squared_error_loss((-1, 1))
    rng = np.random.default_rng(7)
    for _ in range(1000):
        y = np.sort(rng.uniform(-3, 3, size=3))
        theta = rng.uniform(-1, 1)
        vals = loss(theta, y)
        assert vals[1] <= max(vals[0], vals[2]) + 1e-12


def test_tabulated_loss_interpolates():
    loss = tabulated_loss([0.0, 1.0], [0.0, 1.0], np.array([[0.0, 2.0], [4.0, 6.0]]))
    assert loss(0.0, 0.5) == pytest.approx(1.0)
    assert loss(0.5, 0.5) == pytest.approx(3.0)
    assert loss(1.0, 1.0) == pytest.approx(6.0)


class TestTabulatedLossRefusesMalformedTables:
    # the closed form divides by the gaps between knots, and a table value reaches every sum
    def test_descending_knots(self):
        with pytest.raises(ValueError, match="ascending"):
            tabulated_loss([1.0, 0.0], [0.0, 1.0], np.ones((2, 2)))
        with pytest.raises(ValueError, match="ascending"):
            tabulated_loss([0.0, 1.0], [1.0, 0.0], np.ones((2, 2)))

    def test_duplicate_knots(self):
        with pytest.raises(ValueError, match="ascending"):
            tabulated_loss([0.0, 0.0, 1.0], [0.0, 1.0], np.ones((3, 2)))
        with pytest.raises(ValueError, match="ascending"):
            tabulated_loss([0.0, 1.0], [0.0, 0.5, 0.5], np.ones((2, 3)))

    def test_non_finite_knots(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                tabulated_loss([0.0, bad], [0.0, 1.0], np.ones((2, 2)))
            with pytest.raises(ValueError, match="finite"):
                tabulated_loss([0.0, 1.0], [bad, 1.0], np.ones((2, 2)))

    def test_non_finite_table(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                tabulated_loss([0.0, 1.0], [0.0, 1.0], np.array([[0.0, 1.0], [bad, 2.0]]))

    def test_no_knots(self):
        with pytest.raises(ValueError, match="ascending"):
            tabulated_loss([], [0.0, 1.0], np.ones((0, 2)))

    def test_one_knot_per_axis_still_works(self):
        loss = tabulated_loss([0.5], [2.0], np.array([[3.0]]))
        assert loss.theta_domain == (0.5, 0.5) and loss(0.5, -7.0) == 3.0


def test_constant_loss_refuses_negative_or_non_finite_c():
    # c = -1 gave an upper risk of -1, though every loss is nonnegative
    for c in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            constant_loss(c)
    assert constant_loss(0.0)(0.3, 2.0) == 0.0


class TestThetaGrid:
    def test_endpoints(self):
        g = ThetaGrid(-1, 1, 5)
        assert g.points[0] == -1 and g.points[-1] == 1
        assert np.all(np.diff(g.points) > 0)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            ThetaGrid(0, 1, 0)

    def test_reversed_ends_refused_at_any_count(self):
        # ThetaGrid(1, -1, 1) held the one point -1: minimize_upper_risk returned it
        for count in (1, 2, 5):
            with pytest.raises(ValueError, match="need lo < hi"):
                ThetaGrid(1.0, -1.0, count)
        assert ThetaGrid(1.0, 1.0, 1).points.tolist() == [1.0]

    def test_count_capped_before_any_allocation(self):
        from focalrisk.data_model import MAX_GRID

        assert ThetaGrid(-1, 1, MAX_GRID).points.size == MAX_GRID
        for count in (MAX_GRID + 1, 10**9, 10**30):  # 10^9 points would take 7.45 GiB
            with pytest.raises(ValueError, match="grid points exceeds"):
                ThetaGrid(-1, 1, count)
