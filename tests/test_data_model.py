import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from focalrisk import (
    ThetaGrid,
    absolute_error_loss,
    make_sample,
    squared_error_loss,
)
from focalrisk.data_model import normal_mass
from focalrisk.errors import (DegenerateSupport, EmptySample, NonFiniteValue, OutOfSupport,
                              SupportMassTooSmall)


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


class TestNormalMass:
    @pytest.mark.parametrize("lo, hi", [(3.0, 4.0), (-4.0, -3.0), (0.5, 4.0), (-3.0, 3.0)])
    def test_matches_scipy_tails(self, lo, hi):
        # a difference of scipy's upper tails on the support's side of 0 does not cancel;
        # math.erf's form was 6.7e-15 off on [3, 4]
        from scipy.stats import norm

        want = norm.sf(lo) - norm.sf(hi) if lo >= 0 else norm.sf(-hi) - norm.sf(-lo)
        assert normal_mass(lo, hi) == pytest.approx(want, rel=2e-15, abs=0)

    def test_value_at_the_default_support(self):
        # Phi(3) - Phi(-3), frozen from a 40-digit erf oracle
        assert normal_mass(-3.0, 3.0) == pytest.approx(0.99730020393673979, rel=1e-15)

    def test_refusals(self):
        for lo, hi, error in ((2, 2, DegenerateSupport), (30, 40, SupportMassTooSmall),
                              (-np.inf, 3, NonFiniteValue), (3.2, 4, SupportMassTooSmall)):
            with pytest.raises(error):
                normal_mass(lo, hi)


def test_squared_loss_convexity_consequence():
    # midpoint value never exceeds the larger endpoint value
    loss = squared_error_loss((-1, 1))
    rng = np.random.default_rng(7)
    for _ in range(1000):
        y = np.sort(rng.uniform(-3, 3, size=3))
        theta = rng.uniform(-1, 1)
        vals = loss(theta, y)
        assert vals[1] <= max(vals[0], vals[2]) + 1e-12


@given(st.data())
def test_loss_is_its_kind_formula_bit_for_bit(data):
    # Python floats, arrays and broadcast shapes; |y|, |theta| <= 1e150 keeps squares finite
    make = data.draw(st.sampled_from([squared_error_loss, absolute_error_loss]))
    reals = st.floats(-1e150, 1e150)
    if data.draw(st.booleans()):
        t, y, shape = data.draw(reals), data.draw(reals), ()
    else:
        shapes = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3,
                                                             max_side=4))
        t, y = (data.draw(hnp.arrays(float, s, elements=reals)) for s in shapes.input_shapes)
        shape = shapes.result_shape
    got = make((-1, 1))(t, y)
    want = (y - t) ** 2 if make is squared_error_loss else np.abs(y - t)
    assert np.shape(got) == shape
    assert np.asarray(got).tobytes() == np.asarray(want, dtype=float).tobytes()


def _traced_peak(loss, y):
    import tracemalloc

    tracemalloc.start()
    try:
        loss(0.5, y)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_squared_loss_peak_is_one_array():
    # (y - theta) ** 2 of an unnamed difference lets numpy square it in its own buffer; a
    # named difference kept both arrays live, doubling the traced peak
    y = np.zeros(1 << 17)
    assert _traced_peak(squared_error_loss(), y) < 1.5 * y.nbytes


def test_absolute_loss_peak_is_one_array():
    # np.abs(y - theta) without out= kept the difference and its absolute value live
    y = np.zeros(1 << 17)
    assert _traced_peak(absolute_error_loss(), y) < 1.5 * y.nbytes


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

    def test_range_to_the_largest_float_without_warning(self):
        # numpy's last step overflowed, a RuntimeWarning, before it set that point to hi
        big = float(np.finfo(float).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low, high = ThetaGrid(-big, 0, 4).points, ThetaGrid(0, big, 4).points
        assert low.tolist() == [-big, -1.1984620899082103e308, -5.992310449541052e307, 0.0]
        assert high.tolist() == [0.0, 5.992310449541053e307, 1.1984620899082105e308, big]

    @pytest.mark.parametrize("lo, hi", [(-1.7e308, 1.7e308), (0.0, np.nan), (-np.inf, 0.0)])
    def test_range_not_finite_refused(self, lo, hi):
        with pytest.raises(NonFiniteValue, match="not finite"):
            ThetaGrid(lo, hi, 4)
