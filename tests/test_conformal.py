import re
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import chi2

from focalrisk import (
    NonconformityScore,
    contour,
    coverage_probability,
    focal_sets,
    make_sample,
    prediction_set,
    rank_candidate,
)
from focalrisk import conformal
from focalrisk.conformal import (
    merge_intervals,
    rank_candidates,
    rank_rows,
    serialize_focal_system,
)
from focalrisk.errors import (IndexOutOfRange, InvalidAlpha, MissingGrid, NonFiniteValue,
                              OutOfSupport)
from oracles import focal_table

identity = NonconformityScore.identity()
loo_mean = NonconformityScore.distance_to_loo_mean()
BIG = np.finfo(float).max


class TestRankCandidate:
    def test_identity_middle(self):
        s = make_sample([0.2, 0.8], 0, 1)
        assert rank_candidate(s, 0.5, identity) == 2

    def test_identity_smallest(self):
        s = make_sample([0.2, 0.8], 0, 1)
        assert rank_candidate(s, 0.1, identity) == 1

    def test_loo_mean_center(self):
        # |2.5 - mean(1,2,3,4)| = 0 is the smallest augmented score
        s = make_sample([1, 2, 3, 4], 0, 5)
        assert rank_candidate(s, 2.5, loo_mean) == 1

    def test_out_of_support(self):
        s = make_sample([0.2, 0.8], 0, 1)
        with pytest.raises(OutOfSupport):
            rank_candidate(s, 1.5, identity)

    @given(
        st.lists(st.floats(0, 1), min_size=1, max_size=30),
        st.floats(0, 1),
    )
    def test_rank_in_range(self, raw, y):
        s = make_sample(raw, 0, 1)
        r = rank_candidate(s, y, identity)
        assert 1 <= r <= s.n + 1


class TestFocalSets:
    def test_identity_gaps(self):
        f = focal_sets(make_sample([0.2, 0.8], 0, 1), identity)
        assert (f.index.tolist(), f.lo.tolist(), f.hi.tolist()) == ([1, 2, 3], [0, 0.2, 0.8],
                                                                    [0.2, 0.8, 1])

    def test_singleton(self):
        f = focal_sets(make_sample([0.5], 0, 1), identity)
        assert (f.index.tolist(), f.lo.tolist(), f.hi.tolist()) == ([1, 2], [0, 0.5], [0.5, 1])
        assert f.n_plus_1 == 2

    def test_grid_level_sets(self):
        s = make_sample([1, 2, 3, 4], 0, 5)
        f = focal_sets(s, loo_mean, grid_points=2001)
        assert f.n_plus_1 == 5
        # the lowest-rank set is a single interval containing 2.5
        first = f.index == 1
        assert np.count_nonzero(first) == 1
        assert f.lo[first][0] <= 2.5 <= f.hi[first][0]
        # the widened runs tile the support
        total = sum((f.hi - f.lo).tolist())
        assert total == pytest.approx(5.0, abs=1e-9)

    def test_grid_membership_unique(self):
        s = make_sample([1, 2, 3, 4], 0, 5)
        f = focal_sets(s, loo_mean, grid_points=401)
        for y in np.linspace(0, 5, 401):
            assert np.count_nonzero((f.lo < y) & (y < f.hi)) <= 1

    def test_grid_runs_leave_no_gap(self):
        # a run ended at 2.5499999999999994 and the next began at 2.5500000000000003,
        # so contour refused the y in between as not covered
        f = focal_sets(make_sample([2, 2.3], -3, 3), loo_mean, grid_points=21)
        assert merge_intervals(list(zip(f.lo.tolist(), f.hi.tolist()))) == ((-3.0, 3.0),)
        assert contour(f, 2.55) > 0

    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=25, unique=True))
    def test_identity_tiling(self, raw):
        s = make_sample(raw, 0, 1)
        f = focal_sets(s, identity)
        total = sum((f.hi - f.lo).tolist())
        assert total == pytest.approx(1.0, abs=1e-12)


class TestPredictionSet:
    def test_k_rule_n20(self):
        f = focal_sets(make_sample(np.linspace(0.1, 0.9, 20), 0, 1), identity)
        p = prediction_set(f, 0.2)
        assert p.k == 17
        assert p.nominal_coverage == pytest.approx(17 / 21)

    def test_all_sets(self):
        f = focal_sets(make_sample([1, 2, 3, 4], 0, 5), identity)
        p = prediction_set(f, 0.01)
        assert p.k == 5
        assert p.region == ((0.0, 5.0),)
        assert p.nominal_coverage == 1.0

    def test_k_rule_n200(self):
        f = focal_sets(make_sample(np.linspace(0.01, 0.99, 200), 0, 1), identity)
        p = prediction_set(f, 0.05)
        assert p.k == 191
        assert p.nominal_coverage == pytest.approx(191 / 201)

    def test_invalid_alpha(self):
        f = focal_sets(make_sample([0.5], 0, 1), identity)
        with pytest.raises(InvalidAlpha):
            prediction_set(f, 0.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0, 1.5, float("nan"), float("inf")])
    def test_k_helper_refuses_alpha_outside_0_1(self, alpha):
        # before, 1.5 gave k=1 and 0 or -1 gave k=n+1, with no error
        with pytest.raises(InvalidAlpha):
            conformal.nested_set_index(20, alpha)

    @pytest.mark.parametrize("points", [1, 0, -1])
    def test_grid_needs_two_points(self, points):
        with pytest.raises(MissingGrid):
            focal_sets(make_sample([1, 2], 0, 3), loo_mean, grid_points=points)

    def test_grid_capped_for_grid_scores_only(self):
        from focalrisk.data_model import MAX_GRID

        s = make_sample([1, 2], 0, 3)
        assert focal_sets(s, loo_mean, grid_points=MAX_GRID).n_plus_1 == 3
        for points in (MAX_GRID + 1, 10**9):
            with pytest.raises(ValueError, match="grid points exceeds"):
                focal_sets(s, loo_mean, grid_points=points)
            # the identity score's exact sets read no grid
            assert focal_sets(s, NonconformityScore.identity(), grid_points=points).n_plus_1 == 3


class TestContour:
    def test_first_set_is_one(self):
        f = focal_sets(make_sample([1, 2, 3, 4], 0, 5), identity)
        assert contour(f, 0.5) == 1.0

    def test_middle(self):
        f = focal_sets(make_sample([1, 2, 3, 4], 0, 5), identity)
        assert contour(f, 2.5) == pytest.approx(3 / 5)

    def test_last_set(self):
        f = focal_sets(make_sample([1, 2, 3, 4], 0, 5), identity)
        assert contour(f, 4.5) == pytest.approx(1 / 5)

    @given(
        st.lists(st.floats(0.01, 0.99), min_size=1, max_size=20, unique=True),
        st.floats(0, 1),
    )
    def test_multiple_of_mass(self, raw, y):
        s = make_sample(raw, 0, 1)
        f = focal_sets(s, identity)
        c = contour(f, y)
        assert 0 < c <= 1
        assert c * (s.n + 1) == pytest.approx(round(c * (s.n + 1)), abs=1e-9)

    def test_non_increasing_along_support(self):
        f = focal_sets(make_sample([1, 2, 3, 4], 0, 5), identity)
        vals = [contour(f, y) for y in [0.5, 1.5, 2.5, 3.5, 4.5]]
        assert vals == sorted(vals, reverse=True)


class TestCoverageProbability:
    def test_display_value(self):
        assert coverage_probability(20, 17) == pytest.approx(17 / 21)

    def test_full_support(self):
        assert coverage_probability(9, 10) == 1.0

    def test_direct_ratio(self):
        assert coverage_probability(4, 4) == 0.8

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            coverage_probability(4, 6)


def test_rank_uniformity_chi_square():
    # 5000 fresh draws of n=20 plus a candidate; ranks should be uniform
    rng = np.random.default_rng(42)
    n, draws = 20, 5000
    counts = np.zeros(n + 1)
    for _ in range(draws):
        ys = rng.uniform(0, 1, n + 1)
        s = make_sample(ys[:n], 0, 1)
        counts[rank_candidate(s, ys[n], identity) - 1] += 1
    expected = draws / (n + 1)
    stat = np.sum((counts - expected) ** 2 / expected)
    assert stat < chi2.ppf(0.999, n)


def test_merge_intervals():
    assert merge_intervals([(0, 1), (1, 2), (3, 4)]) == ((0, 2), (3, 4))


def test_serialization_round_trip():
    f = focal_sets(make_sample([0.2, 0.8], 0, 1), identity)
    text = serialize_focal_system(f)
    rebuilt = []
    for line in text.strip().splitlines():
        v, lo, hi = line.split()
        rebuilt.append((int(v), float(lo), float(hi)))
    assert rebuilt == list(zip(f.index.tolist(), f.lo.tolist(), f.hi.tolist()))
    # bit-exact: re-serializing parsed values reproduces the bytes
    text2 = "\n".join(f"{v} {lo:.17g} {hi:.17g}" for v, lo, hi in rebuilt) + "\n"
    assert text2 == text


def _scalar_rank(sample, y, score):
    """The one-candidate arithmetic of the scalar path, as an oracle.  Where a loo-mean
    score overflows, the scores of the values times 2^-k, k = (n+1).bit_length(), which
    stay finite."""
    vals, n = sample.values, sample.n
    if score is identity:
        return 1 + bisect_right(list(vals), y)
    for scale in (1.0, 2.0 ** -(n + 1).bit_length()):
        aug = np.append(vals, y) * scale
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(aug[:n])) + aug[n]
            scores = np.abs(aug - (total - aug) / n)
        if np.isfinite(scores).all():
            break
    return 1 + int(np.count_nonzero(scores[:n] <= scores[n]))


def _exact_index(sample, y):
    """The identity system's index by bisection of the data, as an oracle: a y equal to
    data points goes to the lower-index set."""
    return min(bisect_left(list(sample.values), y) + 1, sample.n + 1)


def _scalar_index(focal, y):
    """The one-point scan of containing_index, as an oracle: the table in scan order."""
    for v, lo, hi in zip(focal.index.tolist(), focal.lo.tolist(), focal.hi.tolist()):
        if lo <= y <= hi:
            return v
    raise AssertionError(f"y={y} not covered")


class TestBatched:
    @given(
        st.lists(st.floats(-2, 2), min_size=1, max_size=25),
        st.lists(st.floats(-2, 2), max_size=10),
        st.sampled_from([identity, loo_mean]),
    )
    def test_rank_candidates_match_scalar(self, raw, extra, score):
        s = make_sample(raw, -2, 2)
        ys = np.array(raw + extra + [-2.0, 2.0])  # data points and support ends included
        got = rank_candidates(s, ys, score)
        assert got.tolist() == [_scalar_rank(s, float(y), score) for y in ys]
        assert rank_candidate(s, float(ys[0]), score) == got[0]
        assert type(rank_candidate(s, float(ys[0]), score)) is int

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), m=st.integers(1, 3),
           score=st.sampled_from([identity, loo_mean]))
    def test_rank_rows_match_rank_candidate(self, seed, n, m, score):
        # rows laid out as coverage ranks them: the sorted first n columns of a wider matrix,
        # the held-out candidates after; n > 128 takes np.sum's pairwise blocks
        rng = np.random.default_rng(seed)
        mat = rng.uniform(-2, 2, (3, n + m))
        ties = rng.random(mat.shape) < 0.5
        mat[ties] = rng.choice(mat[0, :3], ties.sum())  # repeated values: ties among the data
        mat[:, n:] = np.where(rng.random((3, m)) < 0.5, mat[:, :m], mat[:, n:])  # y = a data point
        mat[:, :n].sort(axis=1)
        got = rank_rows(mat[:, :n], mat[:, n:], score)
        samples = [make_sample(row[:n], -2, 2) for row in mat]
        assert got.tolist() == [[rank_candidate(s, float(y), score) for y in row[n:]]
                                for s, row in zip(samples, mat)]
        assert got.tolist() == [[_scalar_rank(s, float(y), score) for y in row[n:]]
                                for s, row in zip(samples, mat)]

    def test_loo_mean_matches_scalar(self):
        # n=300 takes np.sum's pairwise blocks; the grid and the data points as candidates
        raw = np.random.default_rng(3).uniform(-3, 3, 300)
        s = make_sample(raw, -3, 3)
        ys = np.concatenate([np.linspace(-3, 3, 1001), raw[:50]])
        expected = [_scalar_rank(s, float(y), loo_mean) for y in ys]
        assert rank_candidates(s, ys, loo_mean).tolist() == expected

    @pytest.mark.filterwarnings("ignore::focalrisk.errors.EmptyFocalSetWarning")
    @pytest.mark.parametrize("score", [identity, loo_mean], ids=["score0", "score1"])
    def test_contour_array_matches_loop(self, score):
        raw = [0.3, 1.1, 1.1, 2.0, 2.6, 4.2, 4.9]
        f = focal_sets(make_sample(raw, 0, 5), score, grid_points=101)
        edges = f.lo.tolist() + f.hi.tolist()
        ys = np.array(sorted(set(edges + raw + np.linspace(0, 5, 77).tolist())))
        m = f.n_plus_1
        got = contour(f, ys)
        assert got.tolist() == [(m + 1 - _scalar_index(f, y)) / m for y in ys.tolist()]
        if score is identity:
            s = make_sample(raw, 0, 5)
            assert got.tolist() == [(m + 1 - _exact_index(s, y)) / m for y in ys.tolist()]
        assert got.tolist() == [contour(f, y) for y in ys.tolist()]
        assert f.containing_index(ys).tolist() == [f.containing_index(y) for y in ys.tolist()]
        assert type(contour(f, 1.1)) is float and type(f.containing_index(1.1)) is int

    @given(n=st.integers(1, 300), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           tied=st.booleans(), huge=st.booleans(), score=st.sampled_from([identity, loo_mean]))
    @example(n=1, m=4, seed=0, tied=False, huge=True, score=loo_mean)
    @example(n=5, m=3, seed=1, tied=True, huge=False, score=loo_mean)
    def test_rank_rows_at_the_edges(self, n, m, seed, tied, huge, score):
        # data and candidates near +-1e308 overflow the row sums to +-inf and, once
        # np.sum's pairwise blocks overflow both ways (n > 128), to NaN, so those rows are
        # ranked on scaled values; ties among the data, and candidates at data points and
        # at the support ends
        rng = np.random.default_rng(seed)
        end = BIG if huge else 2.0
        mat = rng.uniform(-1, 1, (3, n + m)) * (1.7e308 if huge else 2.0)
        mat[:, :n] = mat[:, :1] if tied else np.where(rng.random((3, n)) < 0.3,
                                                      rng.choice(mat[0, :3], (3, n)), mat[:, :n])
        mat[:, :n].sort(axis=1)
        pick = rng.integers(0, 3, (3, m))  # 0: keep, 1: a data point, 2: a support end
        mat[:, n:] = np.where(pick == 1, mat[:, rng.integers(0, n, m)], mat[:, n:])
        mat[:, n:] = np.where(pick == 2, rng.choice([-end, end], (3, m)), mat[:, n:])
        got = rank_rows(mat[:, :n], mat[:, n:], score)
        samples = [make_sample(row[:n], -end, end) for row in mat]
        assert got.tolist() == [[_scalar_rank(s, float(y), score) for y in row[n:]]
                                for s, row in zip(samples, mat)]

    def test_loo_mean_nan_row_sum(self):
        # pairwise blocks of -inf and +inf made the row total NaN, every score compared
        # false and every candidate took rank 1; the row is ranked on its values times 2^-9
        row = np.repeat([-1.7e308, 1.7e308], 128)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(row.sum())
        s = make_sample(row, -BIG, BIG)
        ys = np.array([-BIG, 0.0, 1.7e308, BIG])
        got = rank_rows(row[None], ys[None], loo_mean)[0].tolist()
        assert got == [_scalar_rank(s, float(y), loo_mean) for y in ys] == [257, 1, 129, 257]
        assert got == rank_rows(row[None] / 2**9, ys[None] / 2**9, loo_mean)[0].tolist()

    @pytest.mark.parametrize("n", [1, 2, 40, 129, 300])
    def test_loo_mean_ranks_keep_under_scaling(self, n):
        # the data times 2^1020: from n = 40 their sum overflows, yet the ranks are the data's
        rng = np.random.default_rng(n)
        raw = rng.integers(0, 2**20, n) / 2**20
        raw[rng.random(n) < 0.3] = raw[0]  # ties among the data
        ys = np.concatenate([np.linspace(-1, 1, 201), raw])
        big = 2.0 ** 1020
        with np.errstate(over="ignore"):
            assert np.isfinite(np.sum(raw * big)) == (n < 40)
        small = rank_candidates(make_sample(raw, -1, 1), ys, loo_mean)
        scaled = rank_candidates(make_sample(raw * big, -big, big), ys * big, loo_mean)
        assert scaled.tolist() == small.tolist()

    def test_loo_mean_refuses_a_sum_that_scaling_cannot_rescue(self):
        with pytest.raises(NonFiniteValue):
            rank_rows(np.array([[1.0, np.inf]]), np.array([[0.0]]), loo_mean)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 12), st.integers(0, 12)),
                    max_size=12),
           st.lists(st.integers(0, 24), max_size=20))
    def test_grid_lookup_matches_scan(self, pieces, ys):
        # five sets of arbitrary pieces on [0, 3]: overlaps, gaps, several pieces per set
        # and empty sets; unsorted, repeated ys on piece ends and between them
        sets = [[] for _ in range(5)]
        for v, i, j in pieces:
            sets[v].append((min(i, j) / 4, max(i, j) / 4))
        f = focal_table(sets, 0.0, 3.0)
        ys = [y / 8 for y in ys]
        covered = [bool(np.any((f.lo <= y) & (y <= f.hi))) for y in ys]
        if all(covered):
            assert f.containing_index(np.array(ys)).tolist() == [_scalar_index(f, y) for y in ys]
        else:
            first = ys[covered.index(False)]
            with pytest.raises(OutOfSupport, match=re.escape(f"y={first} not covered")):
                f.containing_index(np.array(ys))

    def test_grid_tie_goes_to_lower_index(self):
        f = focal_table([[(1.0, 2.0)], [(0.0, 1.0)], [(2.0, 3.0)]], 0.0, 3.0)
        assert f.containing_index(np.array([0.5, 1.0, 2.0, 2.5])).tolist() == [2, 1, 1, 3]

    @pytest.mark.parametrize("score", [identity, loo_mean], ids=["score0", "score1"])
    def test_one_out_of_support_y_raises(self, score):
        f = focal_sets(make_sample([1, 2, 3, 4], 0, 5), score)
        for bad in (5.5, -1e-9, np.nan):
            with pytest.raises(OutOfSupport):
                contour(f, np.array([0.5, 2.5, bad, 4.5]))
            with pytest.raises(OutOfSupport):
                rank_candidates(make_sample([1, 2, 3, 4], 0, 5), [1.0, bad], score)

    def test_uncovered_y_raises(self):
        f = focal_table([[(0.0, 1.0)], [(2.0, 3.0)]], 0.0, 3.0)
        assert contour(f, np.array([0.5, 2.5])).tolist() == [1.0, 0.5]
        with pytest.raises(OutOfSupport, match="not covered"):
            contour(f, np.array([0.5, 1.5, 2.5]))

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=40),
           st.lists(st.integers(-1, 7), max_size=30))
    def test_identity_lookup_matches_bisection(self, raw, extra):
        # repeated data points (ties), ys at data points, between them and at the support ends
        s = make_sample([x / 2 for x in raw], -0.5, 3.5)
        ys = [y / 2 for y in raw + extra] + [-0.5, 3.5]
        f = focal_sets(s, identity)
        assert f.containing_index(np.array(ys)).tolist() == [_exact_index(s, y) for y in ys]
        assert f.containing_index(np.array(ys)).tolist() == [_scalar_index(f, y) for y in ys]

    def test_lookup_memory_linear_in_n_plus_m(self):
        # 10^5 equal data points: 10^5 - 1 sets [x, x], each holding all 10^4 ys at x
        import tracemalloc

        f = focal_sets(make_sample(np.full(100_000, 0.5), 0, 1), identity)
        ys = np.full(10_000, 0.5)
        tracemalloc.start()
        try:
            got = f.containing_index(ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got == 1).all() and peak < 16 << 20

    def test_array_shape_kept(self):
        f = focal_sets(make_sample([1, 2, 3, 4], 0, 5), identity)
        assert contour(f, np.array([[0.5, 1.5], [2.5, 4.5]])).tolist() == [[1.0, 0.8], [0.6, 0.2]]
