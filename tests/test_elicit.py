"""Clustering, membership fitting, and end-to-end variable elicitation."""

import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lingmap import (
    DatasetError,
    DefinitionError,
    ElicitationError,
    Gauss2,
    Interval,
    TrainingSet,
    elicit_variable,
    fcm,
    fit_gauss2,
    subtractive_clusters,
)
from lingmap import elicit
from lingmap.elicit import RESIDUAL_CEILING, _seed_gauss2

sample_lists = st.lists(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=40,
)


def gauss2_sum(x, a1, b1, g1, a2, b2, g2):
    """The unclamped two-bump sum, written out apart from lingmap's own."""
    return a1 * np.exp(-((x - b1) ** 2) / g1**2) + a2 * np.exp(-((x - b2) ** 2) / g2**2)


class TestTrainingSet:
    def test_basic(self):
        ts = TrainingSet(np.array([1.0, 2.0]))
        assert len(ts) == 2

    def test_rejects_empty(self):
        with pytest.raises(DatasetError):
            TrainingSet(np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(DatasetError):
            TrainingSet(np.array([1.0, float("nan")]))

    def test_elicitation_sorts_the_rows_once(self, individualism_data, monkeypatch):
        # elicit_variable, subtractive_clusters and fcm each sorted the rows
        # apart; the fits' lexsort of (value, membership) pairs is not counted
        data = TrainingSet(individualism_data.values)
        calls = []
        for name in ("sort", "argsort", "unique"):

            def counted(a, *args, _original=getattr(np, name), _name=name, **kwargs):
                if np.size(a) == len(data):
                    calls.append(_name)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        elicit_variable(data, "x", Interval(0.0, 100.0))
        assert len(calls) == 1, calls

    def test_shuffled_rows_give_the_bits_of_sorted_rows(self, individualism_data):
        xs = np.sort(individualism_data.values)
        perm = np.random.default_rng(17).permutation(xs.size)
        ordered, shuffled = TrainingSet(xs), TrainingSet(xs[perm])
        seeds = subtractive_clusters(ordered)
        assert subtractive_clusters(shuffled).tolist() == seeds.tolist()
        a, b = fcm(ordered, seeds), fcm(shuffled, seeds)
        assert a.centers.tolist() == b.centers.tolist()
        assert a.objective_path == b.objective_path
        assert a.memberships[perm].tolist() == b.memberships.tolist()


class TestSubtractiveClustering:
    def test_identical_data_gives_one_center(self):
        centers = subtractive_clusters(TrainingSet(np.full(25, 7.5)))
        assert centers.tolist() == [7.5]

    def test_two_blobs_give_two_centers(self, two_blobs):
        centers = subtractive_clusters(TrainingSet(two_blobs))
        assert len(centers) == 2
        assert min(centers) == pytest.approx(10.0, abs=2.0)
        assert max(centers) == pytest.approx(50.0, abs=3.0)

    def test_fixture_dataset_gives_two_centers(self, individualism_data):
        centers = subtractive_clusters(individualism_data)
        assert len(centers) == 2

    def test_centers_are_data_points(self, two_blobs):
        centers = subtractive_clusters(TrainingSet(two_blobs))
        for c in centers:
            assert np.any(two_blobs == c)

    def test_symmetric_pair_breaks_tie_by_value(self):
        # both points have identical potential; the result must not depend
        # on their order in the array
        a = subtractive_clusters(TrainingSet(np.array([0.0, 1.0])))
        b = subtractive_clusters(TrainingSet(np.array([1.0, 0.0])))
        assert a.tolist() == b.tolist()

    @given(sample_lists, st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, values, rnd):
        xs = np.array(values)
        shuffled = xs.copy()
        rnd.shuffle(shuffled)
        a = np.sort(subtractive_clusters(TrainingSet(xs)))
        b = np.sort(subtractive_clusters(TrainingSet(shuffled)))
        assert a.tolist() == b.tolist()

    def test_radius_controls_granularity(self, two_blobs):
        coarse = subtractive_clusters(TrainingSet(two_blobs), radius=1.5)
        fine = subtractive_clusters(TrainingSet(two_blobs), radius=0.12)
        assert len(coarse) <= len(fine)

    @pytest.mark.parametrize("radius", [0.0, -0.5, math.nan])
    def test_radius_must_be_positive(self, two_blobs, radius):
        with pytest.raises(DefinitionError, match="radius must be positive"):
            subtractive_clusters(TrainingSet(two_blobs), radius=radius)

    @pytest.mark.parametrize("radius", [1e-160, 1e-200, 1e300])
    def test_radius_with_no_finite_kernel_is_refused(self, radius):
        # 1e-160 made every potential NaN and returned no centres,
        # 1e-200 divided by zero and 1e300 overflowed the square
        with pytest.raises(DefinitionError, match="out of range"):
            subtractive_clusters(TrainingSet(np.arange(10.0)), radius=radius)

    def test_overflowing_span_is_named(self):
        with pytest.raises(DatasetError, match="span from -1e[+]308 to 1e[+]308"):
            subtractive_clusters(TrainingSet([-1e308, 1e308]))

    def test_memory_is_linear_in_n(self):
        # the n x n formulation peaks at 572 MB here
        xs = np.random.default_rng(5000).normal(50.0, 15.0, size=5000)
        tracemalloc.start()
        try:
            subtractive_clusters(TrainingSet(xs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _pick_max(potentials, xs):
    """Index of the highest potential; exact ties go to the smallest value."""
    candidates = np.flatnonzero(potentials == potentials.max())
    return int(candidates[np.argmin(xs[candidates])])


def dense_subtractive_clusters(values, radius=0.5):
    """The n x n formulation of subtractive clustering, kept as the oracle."""
    xs = np.sort(np.asarray(values, dtype=float).ravel())
    lo, hi = float(xs[0]), float(xs[-1])
    if hi == lo:
        return np.array([lo])
    zs = (xs - lo) / (hi - lo)

    sq = (zs[:, None] - zs[None, :]) ** 2
    potentials = np.exp(-4.0 / radius**2 * sq).sum(axis=1)
    rb = elicit.SQUASH_FACTOR * radius

    first_idx = _pick_max(potentials, zs)
    p_first = potentials[first_idx]
    centers = [first_idx]
    potentials = potentials - p_first * np.exp(-4.0 / rb**2 * sq[first_idx])
    while True:
        idx = _pick_max(potentials, zs)
        p = potentials[idx]
        if p <= 0.0:
            break
        if p > elicit.ACCEPT_RATIO * p_first:
            accept = True
        elif p < elicit.REJECT_RATIO * p_first:
            break
        else:
            dmin = min(abs(zs[idx] - zs[c]) for c in centers)
            accept = dmin / radius + p / p_first >= 1.0
        if accept:
            centers.append(idx)
            potentials = potentials - p * np.exp(-4.0 / rb**2 * sq[idx])
        else:
            potentials = potentials.copy()
            potentials[idx] = 0.0
    return xs[centers]


def regime_sample(kind, n):
    """A seeded sample of n values from one regime of the potential expansion."""
    rng = np.random.default_rng(n)
    if kind == "two modes":
        return np.concatenate([rng.normal(30.0, 8.0, n // 2), rng.normal(70.0, 8.0, n - n // 2)])
    if kind == "one box and an outlier":
        return np.append(rng.normal(0.0, 1e-3, n - 1), 1e3)
    if kind == "integers 0-6":
        return rng.integers(0, 7, n).astype(float)
    # every integer 0..100 in turn: duplicates tie exactly, and mirror
    # values up to rounding
    return (np.arange(n) % 101).astype(float)


REGIMES = ["two modes", "one box and an outlier", "integers 0-6", "101 integers"]
# 0.05 and 0.1 spread the data over 41 and 21 boxes, past the reach of 7;
# 1.5 puts it in two
REGIME_RADII = [0.05, 0.1, 0.2, 0.5, 1.5]


class TestSubtractiveAgainstDense:
    """Centers must equal the dense formulation's exactly, not approximately."""

    @pytest.mark.parametrize("radius", REGIME_RADII)
    @pytest.mark.parametrize("kind", REGIMES)
    @pytest.mark.parametrize("n", [2, 9, 200, 1500, 3000])
    def test_regimes(self, n, kind, radius):
        xs = regime_sample(kind, n)
        got = subtractive_clusters(TrainingSet(xs), radius)
        assert got.tolist() == dense_subtractive_clusters(xs, radius).tolist()

    @pytest.mark.parametrize("radius", REGIME_RADII)
    @pytest.mark.parametrize("kind", REGIMES)
    def test_looser_bound_gives_same_centers(self, kind, radius, monkeypatch):
        # a bound 1e8 times looser still holds: more values are recomputed
        # exactly and fewer are ruled out, and no center may move
        potentials = elicit._potentials

        def loose(*args):
            approx, bound = potentials(*args)
            return approx, bound * 1e8

        monkeypatch.setattr(elicit, "_potentials", loose)
        xs = regime_sample(kind, 1500)
        got = subtractive_clusters(TrainingSet(xs), radius)
        assert got.tolist() == dense_subtractive_clusters(xs, radius).tolist()

    @pytest.mark.parametrize("radius", REGIME_RADII)
    @pytest.mark.parametrize("kind", REGIMES)
    @pytest.mark.parametrize("n", [2, 200, 3000])
    def test_error_bound_holds(self, n, kind, radius):
        zs = np.sort(regime_sample(kind, n))
        zs = (zs - zs[0]) / (zs[-1] - zs[0])
        uz, counts = np.unique(zs, return_counts=True)
        approx, bound = elicit._potentials(uz, counts.astype(float), radius / 2.0)
        alpha = -4.0 / radius**2
        dense = np.array([np.exp(alpha * np.square(z - zs)).sum() for z in uz])
        assert np.abs(approx - dense).max() <= bound
        # and the bound is tight enough to leave few candidates
        assert bound <= 1e-9 * dense.max()

    @pytest.mark.parametrize("gather", [1, 3, 7])
    @pytest.mark.parametrize("radius", [0.05, 0.1])
    @pytest.mark.parametrize("kind", REGIMES)
    def test_gather_loop_past_its_first_block(self, kind, radius, gather, monkeypatch):
        # no sample here occupies more than 41 boxes, so at the shipped
        # _GATHER the loop runs one block; a few boxes per block make it run
        # many, each a separate product, so only the bound holds, not the bits
        monkeypatch.setattr(elicit, "_GATHER", gather)
        xs = regime_sample(kind, 1500)
        got = subtractive_clusters(TrainingSet(xs), radius)
        assert got.tolist() == dense_subtractive_clusters(xs, radius).tolist()
        zs = np.sort(xs)
        zs = (zs - zs[0]) / (zs[-1] - zs[0])
        uz, counts = np.unique(zs, return_counts=True)
        approx, bound = elicit._potentials(uz, counts.astype(float), radius / 2.0)
        alpha = -4.0 / radius**2
        dense = np.array([np.exp(alpha * np.square(z - zs)).sum() for z in uz])
        assert np.abs(approx - dense).max() <= bound

    def test_fixture_dataset(self, individualism_data):
        xs = individualism_data.values
        for radius in (0.15, 0.5, 1.0):
            got = subtractive_clusters(TrainingSet(xs), radius)
            assert got.tolist() == dense_subtractive_clusters(xs, radius).tolist()

    @pytest.mark.parametrize("n", [513, 1000, 1531])
    def test_two_mode_samples_span_several_blocks(self, n):
        rng = np.random.default_rng(n)
        xs = np.concatenate([rng.normal(30.0, 8.0, n // 2), rng.normal(70.0, 8.0, n - n // 2)])
        got = subtractive_clusters(TrainingSet(xs))
        assert got.tolist() == dense_subtractive_clusters(xs).tolist()

    @given(
        st.one_of(
            st.lists(
                st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
                min_size=1,
                max_size=60,
            ),
            # few distinct values: duplicates and exact potential ties
            st.lists(st.integers(0, 6).map(float), min_size=1, max_size=60),
        ),
        st.sampled_from([0.1, 0.5, 1.5]),
    )
    @example([3.0], 0.5)
    @example([0.0, 1.0], 0.5)
    @example([2.0] * 9, 0.5)
    @example([1.0, 1.0, 4.0, 4.0, 4.0, 9.0], 0.5)
    @settings(max_examples=100, deadline=None)
    def test_property(self, values, radius):
        got = subtractive_clusters(TrainingSet(values), radius)
        assert got.tolist() == dense_subtractive_clusters(values, radius).tolist()


class TestLargeSamples:
    """Wall-clock bounds at n = 200 000, where the n x n formulation takes minutes."""

    def test_two_modes(self):
        rng = np.random.default_rng(200_000)
        xs = np.concatenate([rng.normal(30.0, 8.0, 100_000), rng.normal(70.0, 8.0, 100_000)])
        start = time.perf_counter()
        centers = subtractive_clusters(TrainingSet(xs))
        elapsed = time.perf_counter() - start
        assert len(centers) >= 2
        assert elapsed < 3.0, f"took {elapsed:.2f}s"

    def test_101_distinct_integers(self):
        xs = np.random.default_rng(101).integers(0, 101, 200_000).astype(float)
        start = time.perf_counter()
        centers = subtractive_clusters(TrainingSet(xs))
        elapsed = time.perf_counter() - start
        assert len(centers) >= 2
        assert elapsed < 3.0, f"took {elapsed:.2f}s"

    def test_elicit_variable(self):
        rng = np.random.default_rng(200_001)
        xs = np.concatenate([rng.normal(30.0, 8.0, 100_000), rng.normal(70.0, 8.0, 100_000)])
        data = TrainingSet(np.clip(xs, 0.0, 100.0))
        start = time.perf_counter()
        result = elicit_variable(data, "x", Interval(0.0, 100.0))
        elapsed = time.perf_counter() - start
        assert len(result.variable.terms) == 2
        assert elapsed < 20.0, f"took {elapsed:.2f}s"

    def test_elicit_variable_on_integer_scores(self):
        # the paper's scores are integers 0-100: 101 distinct values, so
        # fuzzy c-means and the fits run on 101 weighted values, not 200 000
        xs = np.random.default_rng(100).integers(0, 101, 200_000).astype(float)
        start = time.perf_counter()
        result = elicit_variable(TrainingSet(xs), "x", Interval(0.0, 100.0))
        elapsed = time.perf_counter() - start
        assert len(result.variable.terms) >= 2
        assert result.clusters.memberships.shape == (200_000, len(result.variable.terms))
        assert elapsed < 2.0, f"took {elapsed:.2f}s"


@st.composite
def samples_with_start(draw):
    """A sample list and a start of one or two of its distinct values."""
    values = draw(sample_lists)
    distinct = sorted(set(values))
    k = draw(st.integers(1, min(2, len(distinct))))
    start = draw(st.lists(st.sampled_from(distinct), min_size=k, max_size=k, unique=True))
    return values, start


class TestFcm:
    @pytest.fixture
    def start(self, two_blobs):
        # the quartiles of the blobs, one in each
        return np.quantile(two_blobs, [0.25, 0.75])

    def test_memberships_sum_to_one(self, two_blobs, start):
        model = fcm(TrainingSet(two_blobs), start)
        np.testing.assert_allclose(model.memberships.sum(axis=1), 1.0, atol=1e-12)

    def test_centers_sorted_with_matching_columns(self, two_blobs, start):
        model = fcm(TrainingSet(two_blobs), start[::-1])
        assert model.centers[0] < model.centers[1]
        low_points = two_blobs < 30.0
        # points in the low blob must prefer the low center's column
        assert np.all(model.memberships[low_points, 0] > 0.5)
        assert np.all(model.memberships[~low_points, 1] > 0.5)

    def test_objective_nonincreasing(self, two_blobs, start):
        model = fcm(TrainingSet(two_blobs), start)
        path = np.array(model.objective_path)
        assert np.all(np.diff(path) <= 1e-9)

    def test_converged_flag(self, two_blobs, start, monkeypatch):
        assert fcm(TrainingSet(two_blobs), start).converged
        monkeypatch.setattr(elicit, "FCM_MAX_ITER", 1)
        starved = fcm(TrainingSet(two_blobs), start)
        assert not starved.converged
        assert starved.iterations == 1

    def test_coincident_point_gets_full_membership(self):
        xs = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        model = fcm(TrainingSet(xs), [0.0, 10.0])
        # centers land exactly on the two values; memberships must be crisp
        np.testing.assert_allclose(model.centers, [0.0, 10.0], atol=1e-9)
        np.testing.assert_allclose(model.memberships[0], [1.0, 0.0], atol=1e-9)

    def test_k_must_fit_data(self):
        # k is the length of the start: 1 up to the number of distinct values
        with pytest.raises(DefinitionError, match="1 to 2 distinct centers"):
            fcm(TrainingSet(np.array([1.0, 2.0, 2.0])), [1.0, 1.5, 2.0])
        with pytest.raises(DefinitionError, match="1 to 2 distinct centers"):
            fcm(TrainingSet(np.array([1.0, 2.0, 2.0])), [])

    def test_init_seeds_are_used(self, two_blobs):
        data = TrainingSet(two_blobs)
        seeded = fcm(data, [10.0, 50.0])
        other = fcm(data, subtractive_clusters(data))
        assert seeded.objective_path[0] != other.objective_path[0]
        np.testing.assert_allclose(seeded.centers, other.centers, atol=1e-4)

    @given(samples_with_start())
    # d2 near 1e-320: its reciprocal power overflows
    @example(([0.0, 1.2e-160], [3e-161, 9e-161]))
    # the middle center's weights all underflow to 0
    @example(([-1.0, 0.0, 5e-324], [-1.0, -0.5, 0.0]))
    @settings(max_examples=50, deadline=None)
    def test_row_sums_property(self, sample):
        values, start = sample
        try:
            model = fcm(TrainingSet(np.array(values)), start)
        except ElicitationError as err:
            # seeds like 1e-74 and 1e-265 in data spanning 1e4, or any two
            # seeds whose squared distances underflow to 0, can meet
            assert "merged clusters" in str(err)
            return
        np.testing.assert_allclose(model.memberships.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_named(self, bad):
        # NaN gave centers [nan, nan], inf a NaN membership row
        with pytest.raises(DatasetError, match="non-finite value at row 2"):
            fcm(TrainingSet([0.0, bad, 1.0, 2.0]), [0.0, 1.0])

    def test_span_without_finite_square_is_refused(self):
        # the squared distances overflowed, and two membership rows were NaN
        with pytest.raises(DatasetError, match="span from 0.0 to 2e[+]200 has no finite square"):
            fcm(TrainingSet([0.0, 1e200, 2e200, 5.0]), [5.0, 1e200])

    @pytest.mark.parametrize("init", [[math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0]])
    def test_non_finite_init_is_refused(self, init):
        # NaN gave centers [1, nan] and NaN membership rows; inf warned on
        # its way to NaN
        with pytest.raises(DefinitionError, match=r"range \[0.0, 3.0\], got \[[-a-z]+, 1.0\]"):
            fcm(TrainingSet([0.0, 1.0, 2.0, 3.0]), init)

    def test_init_without_finite_squared_distance_is_refused(self):
        # the squared distances overflowed, and the memberships went NaN
        with pytest.raises(DefinitionError, match="within the data's range"):
            fcm(TrainingSet([0.0, 1.0, 2.0, 3.0]), [1e300, -1e300])

    @pytest.mark.parametrize(
        "init",
        [
            pytest.param([1e150, -1e150], id="far-apart"),
            pytest.param([1.0, 1.0], id="coincident"),
            pytest.param([0.0, -0.0], id="signed-zeros"),
            pytest.param([1.0, 3.5], id="outside"),
        ],
    )
    def test_start_outside_the_contract_is_refused(self, init):
        # far-apart seeds both took every point at equal weight and merged
        # at 1.5; coincident ones were moved onto quantiles
        with pytest.raises(DefinitionError) as err:
            fcm(TrainingSet([0.0, 1.0, 2.0, 3.0, 3.0]), init)
        assert str(err.value) == (
            "a start needs 1 to 4 distinct centers within the data's range "
            f"[0.0, 3.0], got {[float(c) for c in init]}"
        )

    def test_merged_centers_raise(self):
        # a valid start whose first two centers met: they came back as the
        # same bits, with two identical membership columns
        with pytest.raises(ElicitationError, match="merged clusters"):
            fcm(TrainingSet([0.0, 1.0, 2.0]), [0.0, 1e-200, 2.0])

    @given(sample_lists, st.floats(min_value=0.05, max_value=1.5))
    @settings(max_examples=100, deadline=None)
    def test_subtractive_seeds_are_a_valid_start(self, values, radius):
        data = TrainingSet(values)
        seeds = subtractive_clusters(data, radius)
        try:
            model = fcm(data, seeds)
        except ElicitationError as err:
            # a span like 1e-205, whose squared distances underflow to 0,
            # puts every value on every center and merges them
            assert "merged clusters" in str(err)
        else:
            assert model.centers.size == seeds.size

    def test_wide_span_with_finite_square_clusters(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fcm(TrainingSet([0.0, 1e150, 2e150, 3e150, 5.0]), [5.0, 2e150])
        assert np.all(np.isfinite(model.centers))
        assert np.all(np.isfinite(model.memberships))
        np.testing.assert_allclose(model.memberships.sum(axis=1), 1.0, atol=1e-12)


class TestDistinctValueWeighting:
    """Stages 2 and 3 run over distinct values weighted by their counts."""

    @pytest.fixture
    def sample(self):
        rng = np.random.default_rng(12)
        return np.concatenate([rng.normal(30.0, 8.0, 60), rng.normal(70.0, 8.0, 60)])

    def test_fcm_on_repeated_rows_matches_distinct(self, sample):
        once = fcm(TrainingSet(sample), [30.0, 70.0])
        thrice = fcm(TrainingSet(np.tile(sample, 3)), [30.0, 70.0])
        np.testing.assert_allclose(thrice.centers, once.centers, rtol=1e-12)
        # memberships near 0 move by the centers' rounding over their own
        # size, so they are held to 1e-12 of the unit membership scale
        np.testing.assert_allclose(
            thrice.memberships, np.tile(once.memberships, (3, 1)), rtol=1e-12, atol=1e-12
        )
        assert thrice.iterations == once.iterations

    def test_unequal_counts_weigh_as_rows(self, individualism_data):
        # 110 scores, 53 distinct, repeated up to 8 times: each repeat must
        # count as the loop oracle counts its row
        xs = individualism_data.values
        model = fcm(TrainingSet(xs), [20.0, 70.0])
        centers, u, objective = reference_fcm(list(xs), 2, [20.0, 70.0])
        np.testing.assert_allclose(model.centers, centers, rtol=1e-12)
        np.testing.assert_allclose(model.memberships, u, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(model.objective_path, objective, rtol=1e-12)

    def test_fit_on_repeated_rows_matches_distinct(self, sample):
        ys = gauss2_sum(sample, 0.7, 28.0, 6.0, 0.4, 40.0, 9.0) + 0.01 * np.sin(sample)
        init = Gauss2(0.5, 26.0, 8.0, 0.5, 42.0, 8.0)
        once = fit_gauss2(sample, ys, init)
        thrice = fit_gauss2(np.repeat(sample, 3), np.repeat(ys, 3), init)
        assert thrice.iterations == once.iterations
        assert thrice.residual == pytest.approx(once.residual, rel=1e-12)
        for f in ("alpha1", "beta1", "gamma1", "alpha2", "beta2", "gamma2"):
            assert getattr(thrice.params, f) == pytest.approx(getattr(once.params, f), rel=1e-12)

    def test_row_order_changes_no_bit(self, individualism_data):
        xs = individualism_data.values
        perm = np.random.default_rng(3).permutation(xs.size)
        a = fcm(TrainingSet(xs), [20.0, 70.0])
        b = fcm(TrainingSet(xs[perm]), [20.0, 70.0])
        assert a.centers.tolist() == b.centers.tolist()
        assert a.memberships[perm].tolist() == b.memberships.tolist()

        u = a.memberships[:, 0]
        init = Gauss2(0.5, 15.0, 15.0, 0.5, 30.0, 15.0)
        assert fit_gauss2(xs, u, init) == fit_gauss2(xs[perm], u[perm], init)

        one = elicit_variable(individualism_data, "x", Interval(0.0, 100.0))
        other = elicit_variable(TrainingSet(xs[perm]), "x", Interval(0.0, 100.0))
        assert one.variable == other.variable
        assert one.fits == other.fits
        assert one.clusters.memberships[perm].tolist() == other.clusters.memberships.tolist()
        assert not other.clusters.memberships.flags.writeable

        # continuous values, all distinct: no (value, membership) pair
        # repeats, so each fit takes the path without weights
        rng = np.random.default_rng(15)
        xs = np.concatenate([rng.normal(30.0, 8.0, 150), rng.normal(70.0, 8.0, 150)])
        assert np.unique(xs).size == xs.size
        perm = rng.permutation(xs.size)
        one = elicit_variable(TrainingSet(xs), "x", Interval(-100.0, 200.0))
        other = elicit_variable(TrainingSet(xs[perm]), "x", Interval(-100.0, 200.0))
        assert one.variable == other.variable
        assert one.fits == other.fits
        assert one.clusters.memberships[perm].tolist() == other.clusters.memberships.tolist()
        assert not other.clusters.memberships.flags.writeable
        u = one.clusters.memberships[:, 1]
        assert fit_gauss2(xs, u, init) == fit_gauss2(xs[perm], u[perm], init)

    def test_membership_rows_follow_input_order(self):
        xs = np.array([9.0, 1.0, 5.0, 1.0, 9.0, 2.0, 5.0, 8.0, 1.0])
        model = fcm(TrainingSet(xs), [1.0, 8.0])
        np.testing.assert_allclose(model.memberships, bezdek_rows(xs, model.centers), rtol=1e-12)
        for i, j in [(1, 3), (1, 8), (0, 4), (2, 6)]:
            assert model.memberships[i].tolist() == model.memberships[j].tolist()
        assert model.memberships[0, 1] > 0.5 and model.memberships[1, 0] > 0.5

    def test_equal_x_with_different_y_is_not_merged(self):
        # every row counts in the fit and its RMS, including both y at one x
        xs = np.repeat(np.linspace(0.0, 10.0, 8), 2)
        ys = gauss2_sum(xs, 0.6, 3.0, 2.0, 0.4, 7.0, 2.0) + np.tile([0.05, -0.05], 8)
        fit = fit_gauss2(xs, ys, Gauss2(0.5, 3.5, 2.0, 0.5, 6.5, 2.0))
        p = fit.params
        direct = gauss2_sum(xs, p.alpha1, p.beta1, p.gamma1, p.alpha2, p.beta2, p.gamma2) - ys
        assert fit.residual == pytest.approx(math.sqrt(np.mean(direct**2)), rel=1e-9)
        assert fit.residual >= 0.05 * (1.0 - 1e-9)

    def test_packaged_iteration_counts(self, individualism_data, monkeypatch):
        # the gain-ratio damping rarely retakes a step: 56 model evaluations
        # for 42 accepted steps, where lambda / 10 after each step took 139
        # for 69
        calls = []
        model = elicit._gauss2_model

        def counted(xs, p):
            calls.append(1)
            return model(xs, p)

        monkeypatch.setattr(elicit, "_gauss2_model", counted)
        result = elicit_variable(individualism_data, "x", Interval(0.0, 100.0))
        assert result.clusters.iterations == 18
        assert [fit.iterations for fit in result.fits] == [21, 21]
        assert len(calls) == 56


def bezdek_rows(xs, centers, m=2.0):
    """Bezdek's memberships of each of xs, from the centers, one plain row at a time."""
    rows = []
    for x in xs:
        d2 = [(x - c) ** 2 for c in centers]
        if any(d == 0.0 for d in d2):
            hits = [1.0 if d == 0.0 else 0.0 for d in d2]
            rows.append([h / sum(hits) for h in hits])
        else:
            inv = [d ** (-1.0 / (m - 1.0)) for d in d2]
            rows.append([i / sum(inv) for i in inv])
    return rows


def reference_fcm(xs, k, init, m=2.0, tol=1e-6, max_iter=500):
    """Plain-loop fuzzy c-means used as an independent oracle."""
    centers = [float(c) for c in init]
    objective = []
    for _ in range(max_iter):
        u = bezdek_rows(xs, centers, m)
        objective.append(
            sum(
                u[i][j] ** m * (xs[i] - centers[j]) ** 2
                for i in range(len(xs))
                for j in range(k)
            )
        )
        new_centers = []
        for j in range(k):
            num = sum(u[i][j] ** m * xs[i] for i in range(len(xs)))
            den = sum(u[i][j] ** m for i in range(len(xs)))
            new_centers.append(num / den)
        shift = max(abs(a - b) for a, b in zip(new_centers, centers))
        centers = new_centers
        if shift < tol:
            break
    return centers, bezdek_rows(xs, centers, m), objective


class TestFcmAgainstReference:
    def test_matches_loop_oracle(self, two_blobs):
        init = np.quantile(two_blobs, [0.25, 0.75])
        model = fcm(TrainingSet(two_blobs), init)
        ref_centers, ref_u, ref_obj = reference_fcm(list(two_blobs), 2, init)
        order = np.argsort(ref_centers)
        np.testing.assert_allclose(model.centers, np.array(ref_centers)[order], atol=1e-6)
        np.testing.assert_allclose(
            model.memberships, np.array(ref_u)[:, order], atol=1e-6
        )
        np.testing.assert_allclose(model.objective_path, ref_obj, rtol=1e-9)


class TestFitGauss2:
    def make_data(self, params, n=60, lo=-5.0, hi=25.0):
        xs = np.linspace(lo, hi, n)
        ys = gauss2_sum(xs, *params)
        return xs, ys

    def test_recovers_exact_parameters(self):
        true = (0.6, 4.0, 2.5, 0.4, 14.0, 3.5)
        xs, ys = self.make_data(true)
        init = Gauss2(0.5, 5.0, 3.0, 0.5, 13.0, 3.0)
        fit = fit_gauss2(xs, ys, init)
        assert fit.converged
        got = fit.params
        for name, want in zip(("alpha1", "beta1", "gamma1", "alpha2", "beta2", "gamma2"), true):
            assert getattr(got, name) == pytest.approx(want, rel=1e-6)
        assert fit.residual < 1e-8

    def test_never_worse_than_init(self):
        rng = np.random.default_rng(7)
        xs = np.linspace(0, 10, 40)
        ys = np.clip(gauss2_sum(xs, 0.7, 3, 1.5, 0.5, 7, 2.0) + rng.normal(0, 0.05, 40), 0, 1)
        init = Gauss2(0.6, 3.5, 1.0, 0.6, 6.5, 1.5)
        init_rms = math.sqrt(float(np.mean((gauss2_sum(xs, 0.6, 3.5, 1.0, 0.6, 6.5, 1.5) - ys) ** 2)))
        fit = fit_gauss2(xs, ys, init)
        assert fit.residual <= init_rms + 1e-15

    def test_widths_stay_positive(self):
        xs = np.linspace(0, 1, 30)
        ys = np.full(30, 0.5)
        fit = fit_gauss2(xs, ys, Gauss2(0.25, 0.2, 0.3, 0.25, 0.8, 0.3))
        assert fit.params.gamma1 > 0 and fit.params.gamma2 > 0

    def test_needs_six_points(self):
        with pytest.raises(DatasetError) as err:
            fit_gauss2([0, 1, 2, 3, 4], [0, 1, 0, 1, 0], Gauss2(0.5, 1, 1, 0.5, 3, 1))
        assert "at least 6" in str(err.value)

    def test_length_mismatch(self):
        with pytest.raises(DatasetError):
            fit_gauss2([0, 1, 2, 3, 4, 5], [0, 1], Gauss2(0.5, 1, 1, 0.5, 3, 1))

    def test_perfect_init_converges_immediately(self):
        true = (0.6, 4.0, 2.5, 0.4, 14.0, 3.5)
        xs, ys = self.make_data(true)
        fit = fit_gauss2(xs, ys, Gauss2(*true))
        assert fit.converged
        assert fit.iterations == 0

    def test_no_damping_headroom_stops_unconverged(self):
        # bumps a million away give a zero model and Jacobian, so every trial
        # step is rejected until the damping passes its ceiling
        xs = np.linspace(0, 1, 20)
        init = Gauss2(0.5, 1e6, 1, 0.5, 2e6, 1)
        fit = fit_gauss2(xs, np.exp(-((xs - 0.5) ** 2) / 0.02), init)
        assert (fit.converged, fit.iterations) == (False, 1)
        assert fit.params == init


class TestElicitVariable:
    def test_on_fixture_matches_frozen_terms(self, individualism_data, case1_catalog):
        result = elicit_variable(
            individualism_data, "individualism", Interval(0.0, 100.0), kind="ordinal"
        )
        assert list(result.variable.terms) == ["LC1", "LC2"]
        frozen = case1_catalog.variables["individualism"]
        for term in ("LC1", "LC2"):
            got = result.variable.terms[term]
            want = frozen.terms[term]
            for f in ("alpha1", "beta1", "gamma1", "alpha2", "beta2", "gamma2"):
                assert getattr(got, f) == pytest.approx(getattr(want, f), rel=1e-9)

    def test_quality_of_fits(self, individualism_data):
        result = elicit_variable(individualism_data, "x", Interval(0.0, 100.0))
        for fit in result.fits:
            assert fit.converged
            assert fit.residual <= 0.15
        assert result.warnings == ()

    def test_thin_coverage_between_modes_warns(self):
        # each term fits its step-shaped column closely and is 0 far from
        # its mode, so nothing covers the middle of the empty gap
        xs = np.concatenate([np.linspace(0.0, 1.0, 30), np.linspace(99.0, 100.0, 30)])
        result = elicit_variable(TrainingSet(xs), "x", Interval(0.0, 100.0))
        assert result.warnings == (
            "coverage of 'x' dips to 0.000 near 50, below the floor 0.2",
        )

    def test_collapsed_bump_warns(self):
        result = elicit_variable(
            TrainingSet(np.array(COLLAPSED_BUMP_SAMPLE, float)), "x", Interval(0.0, 100.0)
        )
        p = result.variable.terms["LC2"]
        assert min(p.gamma1, p.gamma2) < elicit.WIDTH_FLOOR * 91.0
        assert result.fits[1].converged
        (warning,) = result.warnings
        assert re.fullmatch(
            r"term LC2 of 'x' has a bump of width \S+, below 0.001 of the data span 91, "
            r"so it is one Gaussian",
            warning,
        )

    def test_terms_named_in_ascending_center_order(self, two_blobs):
        result = elicit_variable(TrainingSet(two_blobs), "x", Interval(0.0, 60.0))
        lc1, lc2 = result.variable.terms["LC1"], result.variable.terms["LC2"]
        assert lc1(10.0) > lc1(50.0)
        assert lc2(50.0) > lc2(10.0)

    def test_dataset_too_small(self):
        with pytest.raises(ElicitationError) as err:
            elicit_variable(TrainingSet(np.array([42.0])), "x", Interval(0.0, 100.0))
        assert "dataset too small" in str(err.value)

    def test_data_outside_domain_rejected(self, two_blobs):
        with pytest.raises(ElicitationError) as err:
            elicit_variable(TrainingSet(two_blobs), "x", Interval(0.0, 20.0))
        assert "outside the domain" in str(err.value)

    def test_one_cluster_is_an_error(self):
        # one broad mode: at the default radius subtractive clustering keeps
        # one center, whose two-bump fit used to spread to beta1 -98.6 and
        # gamma1 4.1e7 on this [0, 100] domain
        data = TrainingSet(np.random.default_rng(7).normal(50.0, 10.0, size=200))
        with pytest.raises(ElicitationError, match="found one cluster.*smaller radius"):
            elicit_variable(data, "x", Interval(0.0, 100.0))
        result = elicit_variable(data, "x", Interval(0.0, 100.0), radius=0.3)
        assert len(result.variable.terms) == 3
        assert all(fit.converged for fit in result.fits)

    def test_residual_ceiling_enforced(self, individualism_data, monkeypatch):
        monkeypatch.setattr(elicit, "RESIDUAL_CEILING", 1e-6)
        with pytest.raises(ElicitationError) as err:
            elicit_variable(individualism_data, "x", Interval(0.0, 100.0))
        assert "ceiling" in str(err.value)

    def test_deterministic(self, individualism_data):
        a = elicit_variable(individualism_data, "x", Interval(0.0, 100.0))
        b = elicit_variable(individualism_data, "x", Interval(0.0, 100.0))
        assert a.variable == b.variable


# 110 integer scores from two modes.  A damped trial step put a log-width
# near 556 here, and squaring exp(556) as a Python float raised OverflowError
OVERFLOW_SAMPLE = [
    1, 10, 10, 11, 12, 13, 14, 15, 15, 16, 16, 16, 16, 17, 17, 17, 17, 18, 19, 19,
    20, 20, 20, 20, 21, 21, 21, 22, 22, 22, 23, 23, 23, 23, 24, 24, 24, 25, 25, 26,
    26, 27, 27, 27, 27, 27, 28, 28, 28, 28, 29, 30, 31, 32, 32, 33, 34, 34, 34, 34,
    35, 36, 37, 37, 38, 48, 50, 51, 56, 60, 60, 61, 61, 62, 63, 66, 67, 68, 69, 69,
    69, 69, 70, 70, 70, 71, 71, 71, 71, 73, 73, 74, 74, 75, 75, 75, 76, 76, 76, 76,
    77, 77, 78, 79, 79, 79, 81, 82, 83, 84,
]  # fmt: skip

# 110 integer scores from two modes on which the fit accepted a step that
# collapsed a width to 0.0, so building its Gauss2 raised DefinitionError
COLLAPSE_SAMPLE = [
    47, 48, 38, 30, 62, 56, 40, 39, 40, 51, 43, 41, 35, 38, 45, 43, 41, 56, 35, 40,
    50, 48, 51, 44, 40, 48, 46, 45, 40, 47, 48, 36, 52, 39, 44, 36, 58, 36, 43, 45,
    38, 50, 35, 45, 50, 32, 51, 43, 42, 42, 61, 40, 39, 35, 52, 59, 59, 68, 58, 61,
    57, 62, 60, 52, 59, 48, 66, 64, 52, 59, 64, 62, 73, 50, 51, 56, 41, 63, 49, 52,
    62, 59, 66, 56, 51, 79, 48, 54, 70, 54, 50, 59, 56, 60, 66, 56, 62, 60, 68, 59,
    69, 50, 50, 56, 62, 55, 66, 64, 61, 55,
]  # fmt: skip

# 110 integer scores from two modes, two_mode_integers(188): of 2000 seeds
# swept, the first whose fit converges with a bump collapsed to a spike
# (LC2, width about 1e-21) and no other warning
COLLAPSED_BUMP_SAMPLE = [
    31, 33, 20, 21, 22, 15, 5, 28, 16, 18, 35, 21, 20, 2, 19, 17, 31, 8, 25, 10,
    22, 12, 6, 26, 26, 31, 30, 24, 28, 2, 27, 23, 17, 9, 25, 22, 19, 5, 23, 10,
    0, 17, 17, 28, 18, 9, 17, 26, 25, 26, 14, 24, 9, 16, 34, 25, 7, 12, 26, 21,
    16, 23, 18, 22, 22, 19, 23, 5, 15, 8, 11, 12, 28, 12, 15, 87, 84, 80, 91, 87,
    72, 69, 72, 67, 70, 67, 65, 74, 77, 74, 81, 70, 72, 79, 83, 78, 69, 78, 67, 86,
    81, 76, 77, 71, 73, 65, 73, 81, 72, 74,
]  # fmt: skip


def two_mode_integers(seed: int) -> np.ndarray:
    """110 seeded integer scores on [0, 100] from two modes of unequal size."""
    rng = np.random.default_rng(seed)
    low, high = rng.uniform(15.0, 50.0), rng.uniform(50.0, 85.0)
    n_low = int(rng.integers(30, 81))
    xs = np.concatenate([rng.normal(low, 8.0, n_low), rng.normal(high, 8.0, 110 - n_low)])
    return np.clip(np.round(xs), 0.0, 100.0)


class TestDegenerateTrialWidths:
    """A trial step whose squared width is 0 or inf is rejected, not raised."""

    @pytest.mark.parametrize("sample", [OVERFLOW_SAMPLE, COLLAPSE_SAMPLE])
    def test_fault_sample_elicits(self, sample):
        result = elicit_variable(TrainingSet(np.array(sample, float)), "x", Interval(0.0, 100.0))
        assert len(result.variable.terms) >= 2
        for fit in result.fits:
            assert fit.converged
            assert fit.residual <= RESIDUAL_CEILING

    def test_two_mode_integer_sweep_returns_or_names_its_failure(self):
        # seeds 83 and 223 raised DefinitionError (a width of 0.0), 203 and
        # 224 OverflowError; the only failure left is the one-cluster refusal
        refused = 0
        for seed in range(300):
            try:
                elicit_variable(TrainingSet(two_mode_integers(seed)), "x", Interval(0.0, 100.0))
            except ElicitationError as err:
                assert "found one cluster" in str(err)
                refused += 1
        assert refused < 30


class TestFitStability:
    """The elicited fits must not ride on rounding noise.

    A 1-ulp change to a membership column is the size of the difference
    between two BLAS builds computing the same FCM memberships; it must
    not be able to move the fitted parameters along a flat direction.
    """

    @pytest.fixture(scope="class")
    def elicited(self, individualism_data):
        return elicit_variable(
            individualism_data, "individualism", Interval(0.0, 100.0), kind="ordinal"
        )

    @pytest.mark.parametrize("col", [0, 1])
    def test_one_ulp_change_barely_moves_parameters(self, individualism_data, elicited, col):
        xs = individualism_data.values
        ux, first, counts = np.unique(xs, return_index=True, return_counts=True)
        u_col = elicited.clusters.memberships[:, col]
        center = float(elicited.clusters.centers[col])
        base = elicited.fits[col].params
        for nudged in (np.nextafter(u_col, 2.0), np.nextafter(u_col, -1.0)):
            init = _seed_gauss2(ux, counts, nudged[first], center)
            fit = fit_gauss2(xs, nudged, init)
            assert fit.converged
            for f in ("alpha1", "beta1", "gamma1", "alpha2", "beta2", "gamma2"):
                assert getattr(fit.params, f) == pytest.approx(getattr(base, f), rel=1e-12)

    @pytest.mark.parametrize("col", [0, 1])
    def test_bumps_do_not_collapse(self, individualism_data, elicited, col):
        ux, first, counts = np.unique(
            individualism_data.values, return_index=True, return_counts=True
        )
        spread = _seed_gauss2(
            ux,
            counts,
            elicited.clusters.memberships[first, col],
            float(elicited.clusters.centers[col]),
        ).gamma1
        p = elicited.fits[col].params
        assert abs(p.beta1 - p.beta2) >= 0.5 * spread

    def test_lc1_fit_is_tight(self, elicited):
        # two near-copies of one bump (a saddle) fit LC1 only to RMS 0.059
        assert elicited.fits[0].residual < 0.03
