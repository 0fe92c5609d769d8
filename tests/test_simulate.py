"""Path generation: covariance structure, reproducibility, transforms."""

import dataclasses
import re

import numpy as np
import pytest

from dyncorr import (
    BmEstimatorParams,
    BmPathPair,
    CorrelationProfile,
    DomainError,
    GbmEstimatorParams,
    GbmPathPair,
    IndexOutOfRange,
    PathOverflow,
    TimeGrid,
    bm,
    form,
    gbm,
    gbm_transform,
    replication_rng,
    simulate,
    simulate_bm_batch,
    simulate_bm_pair,
    simulate_gbm_pair,
)
from dyncorr.simulate import check_index, check_integer, check_positive

CONST_HALF = CorrelationProfile("constant", (0.5,))


class TestReproducibility:
    def test_same_seed_same_paths(self):
        grid = TimeGrid(50)
        a = simulate_bm_pair(CONST_HALF, grid, 123)
        b = simulate_bm_pair(CONST_HALF, grid, 123)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_replications_are_distinct(self):
        grid = TimeGrid(50)
        a = simulate_bm_pair(CONST_HALF, grid, 123, replication=0)
        b = simulate_bm_pair(CONST_HALF, grid, 123, replication=1)
        assert not np.array_equal(a.x, b.x)

    def test_batch_rows_match_single_replications(self):
        grid = TimeGrid(40)
        x, y = simulate_bm_batch(CONST_HALF, grid, 9, reps=5, rep_offset=2)
        for i in range(5):
            single = simulate_bm_pair(CONST_HALF, grid, 9, replication=2 + i)
            assert np.array_equal(x[i], single.x)
            assert np.array_equal(y[i], single.y)

    def test_paths_are_read_only(self):
        pair = simulate_bm_pair(CONST_HALF, TimeGrid(10), 1)
        for path in (pair.x, pair.y):
            with pytest.raises(ValueError):
                path[0] = 0.0

    def test_pairs_hold_only_their_paths(self):
        pair = simulate_bm_pair(CONST_HALF, TimeGrid(10), 1)
        gpair = simulate_gbm_pair(pair, 0.2)
        assert [f.name for f in dataclasses.fields(pair)] == ["x", "y"]
        assert [f.name for f in dataclasses.fields(gpair)] == [
            "r_path", "s_path", "w", "u", "sigma"]
        assert gpair.w is pair.x and gpair.u is pair.y and gpair.sigma == 0.2


class TestPairPaths:
    """Both pair types refuse a path no estimator can read, where the pair is
    made, with a DomainError naming the field (``simulate.check_paths``)."""

    _T = 50
    _FIELDS = {"bm": ("x", "y"), "gbm": ("r_path", "s_path", "w", "u")}

    @classmethod
    def _make(cls, kind, sigma=0.1, **changed):
        """A pair of seeded paths, with the fields in ``changed`` replaced."""
        pair = simulate_gbm_pair(simulate_bm_pair(CONST_HALF, TimeGrid(cls._T), 1), 0.1)
        paths = pair.paths if kind == "bm" else (pair.r_path, pair.s_path, *pair.paths)
        fields = dict(zip(cls._FIELDS[kind], paths)) | changed
        return BmPathPair(**fields) if kind == "bm" else GbmPathPair(**fields, sigma=sigma)

    @pytest.mark.parametrize("kind, field", [(k, f) for k, fs in _FIELDS.items() for f in fs])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_path_is_refused(self, kind, field, value):
        # its curve record would call components at every time, O(T^2), to
        # raise at each
        path = np.linspace(1.0, 2.0, self._T)
        path[7] = value
        with pytest.raises(DomainError, match=f"^{field} must be finite, got {value} at index 7$"):
            self._make(kind, **{field: path})

    @pytest.mark.parametrize("kind", ["bm", "gbm"])
    @pytest.mark.parametrize("shape", [(3, 50), (), (0,), (1, 50)])
    def test_a_path_that_is_not_one_non_empty_row_is_refused(self, kind, shape):
        # the estimators read one row per path: a batch or a 0-d array would
        # reach them as a numpy error
        bad = {f: np.ones(shape) for f in self._FIELDS[kind]}
        first = self._FIELDS[kind][0]
        with pytest.raises(DomainError, match=re.escape(
                f"{first} must be a non-empty one-dimensional path, got shape {shape}")):
            self._make(kind, **bad)

    @pytest.mark.parametrize("kind, field", [(k, f) for k, fs in _FIELDS.items() for f in fs[1:]])
    def test_unequal_lengths_are_refused(self, kind, field):
        with pytest.raises(DomainError, match=f"^{field} has 49 values where the pair's "
                                              "first path has 50$"):
            self._make(kind, **{field: np.ones(self._T - 1)})

    @pytest.mark.parametrize("sigma, message", [
        (float("nan"), "sigma must be finite"), (float("inf"), "sigma must be finite"),
        (0.0, "sigma must be positive"), (-0.1, "sigma must be positive")])
    def test_gbm_sigma_must_be_finite_and_positive(self, sigma, message):
        # abs(nan - s) > 1e-12 is false: pair_paths' sigma check cannot see a NaN
        with pytest.raises(DomainError, match=message):
            self._make("gbm", sigma=sigma)


class TestCovarianceStructure:
    def test_perfect_correlation_gives_identical_paths(self):
        prof = CorrelationProfile("constant", (1.0,))
        pair = simulate_bm_pair(prof, TimeGrid(100), 5)
        assert np.array_equal(pair.x, pair.y)

    def test_cross_covariance_matches_profile(self):
        prof = CorrelationProfile("capped", (0.6, 5.0))
        grid = TimeGrid(20)
        x, y = simulate_bm_batch(prof, grid, 11, reps=40000)
        t = np.arange(1, 21)
        target = t * prof.rho(20)
        sample = np.mean(x * y, axis=0)
        se = np.std(x * y, axis=0, ddof=1) / np.sqrt(40000)
        assert np.all(np.abs(sample - target) < 5 * se)

    def test_marginal_variance_is_time(self):
        x, y = simulate_bm_batch(CONST_HALF, TimeGrid(10), 3, reps=40000)
        for path in (x, y):
            var = np.var(path, axis=0, ddof=1)
            assert np.allclose(var, np.arange(1, 11), rtol=0.08)


class TestGbm:
    def test_transform_exponentiates(self):
        pair = simulate_bm_pair(CONST_HALF, TimeGrid(30), 2)
        gpair = simulate_gbm_pair(pair, 0.1)
        assert np.allclose(gpair.r_path, np.exp(0.1 * pair.x))
        assert np.allclose(gpair.s_path, np.exp(0.1 * pair.y))
        assert gpair.sigma == 0.1

    def test_overflow_guard(self):
        w = np.array([0.0, 8000.0])
        with pytest.raises(PathOverflow):
            gbm_transform(w, w, 1.0)

    def test_sigma_must_be_positive(self):
        w = np.zeros(3)
        with pytest.raises(DomainError):
            gbm_transform(w, w, 0.0)

    @pytest.mark.parametrize("which", ["w", "u"])
    def test_a_nan_driving_path_is_refused(self, which):
        # the exponent guard cannot see a NaN, since nan > 700 is false
        paths = {"w": np.linspace(0.0, 1.0, 5), "u": np.linspace(0.0, 1.0, 5)}
        paths[which] = np.r_[paths[which][:3], np.nan, 1.0]
        with pytest.raises(DomainError, match=f"^{which} must be finite"):
            gbm_transform(paths["w"], paths["u"], 0.1)

    @pytest.mark.parametrize("which", ["w", "u"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_an_infinite_driving_path_overflows(self, which, value):
        paths = {"w": np.linspace(0.0, 1.0, 5), "u": np.linspace(0.0, 1.0, 5)}
        paths[which] = np.r_[paths[which][:3], value, 1.0]
        with pytest.raises(PathOverflow):
            gbm_transform(paths["w"], paths["u"], 0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_sigma_must_be_finite(self, sigma):
        # NaN passed the positivity check and gave all-NaN r and s paths
        pair = simulate_bm_pair(CONST_HALF, TimeGrid(5), 2)
        with pytest.raises(DomainError, match="sigma must be finite"):
            gbm_transform(pair.x, pair.y, sigma)
        with pytest.raises(DomainError, match="sigma must be finite"):
            simulate_gbm_pair(pair, sigma)


class TestIndexAndRng:
    # a time that is not an integer was truncated: 2.5 answered for t = 2
    @pytest.mark.parametrize("u", [0, -1, 11, 2.5, 2.0, np.float64(3.0), "3", None])
    def test_check_index_rejects_outside_grid(self, u):
        with pytest.raises(IndexOutOfRange):
            check_index(u, 10)

    def test_check_index_accepts_bounds(self):
        assert check_index(1, 10) == 1
        assert check_index(10, 10) == 10
        t = check_index(np.int64(7), 10)
        assert t == 7 and type(t) is int

    @pytest.mark.parametrize("seed, replication", [(-1, 0), (0, -1)])
    def test_negative_seed_or_replication_rejected(self, seed, replication):
        with pytest.raises(DomainError, match=f"seed={seed}, replication={replication}"):
            replication_rng(seed, replication)
        with pytest.raises(DomainError):
            simulate_bm_pair(CONST_HALF, TimeGrid(5), seed, replication)

    # reps = -1 raised a bare numpy ValueError; a size or seed that is not an
    # integer, a bare TypeError
    @pytest.mark.parametrize("kwargs, message", [
        (dict(reps=-1), "reps must be >= 0, got -1"),
        (dict(reps=2.5), "reps must be an integer, got 2.5"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(rep_offset=0.5), "rep_offset must be an integer, got 0.5"),
        (dict(rep_offset=-1), "rep_offset must be >= 0, got -1"),
    ])
    def test_batch_sizes_and_seeds_must_be_integers(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            simulate_bm_batch(CONST_HALF, TimeGrid(5), **{"seed": 1, "reps": 2, **kwargs})

    # a fractional seed or replication reached SeedSequence: a bare TypeError
    @pytest.mark.parametrize("args, message", [((1.5,), "seed must be an integer, got 1.5"),
                                               ((1, 0.5), "replication must be an integer")])
    def test_rng_seed_and_replication_must_be_integers(self, args, message):
        with pytest.raises(DomainError, match=message):
            replication_rng(*args)

    def test_check_integer_bounds_both_sides(self):
        assert check_integer("n", np.int64(3), 1, 3) == 3
        with pytest.raises(DomainError, match="n must be <= 3, got 4"):
            check_integer("n", 4, 1, 3)

    def test_check_positive_names_the_value(self):
        check_positive(a=1e-300, b=2)
        with pytest.raises(DomainError, match="b must be positive, got 0"):
            check_positive(a=1.0, b=0)
        with pytest.raises(DomainError, match="a must be finite, got nan"):
            check_positive(a=float("nan"))

    def test_batch_accepts_numpy_integers(self):
        got = simulate_bm_batch(CONST_HALF, TimeGrid(5), np.int64(1), np.int32(2), np.uint8(3))
        for a, b in zip(got, simulate_bm_batch(CONST_HALF, TimeGrid(5), 1, 2, 3)):
            np.testing.assert_array_equal(a, b)

    def test_rng_streams_are_seedsequence_spawns(self):
        a = replication_rng(7, 3).standard_normal(4)
        ss = np.random.SeedSequence(7, spawn_key=(3,))
        b = np.random.Generator(np.random.Philox(ss)).standard_normal(4)
        assert np.array_equal(a, b)


# seeds and replications across the 32-bit word boundaries SeedSequence splits
# integers at, with multi-word seeds (2^70 + 3: three words; 2^130 + 7: five,
# more than the pool) and replications (2^64 + 1: three words)
_RNG = np.random.default_rng(25)
KEY_SEEDS = [0, 2**32 - 1, 2**32, 2**70 + 3, 2**130 + 7,
             *map(int, _RNG.integers(0, 2**63, 3))]
KEY_REPLICATIONS = [0, 2**32 - 1, 2**32, 2**64 + 1, *map(int, _RNG.integers(0, 2**40, 2))]


class TestKeys:
    # each start takes three replications: 2^32 - 1 .. 2^32 + 1 crosses from one
    # word to two within a batch
    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_first_normals_are_the_replications_streams(self, seed):
        for first in KEY_REPLICATIONS:
            x, _ = simulate_bm_batch(CONST_HALF, TimeGrid(3), seed, 3, first)
            for i, row in enumerate(x):
                spawn = np.random.SeedSequence(seed, spawn_key=(first + i,))
                want = np.random.Generator(np.random.Philox(spawn)).standard_normal()
                assert row[0] == replication_rng(seed, first + i).standard_normal() == want


PAIR = simulate_bm_pair(CONST_HALF, TimeGrid(60), 3)

# every t-independent build of the package, each through simulate.frozen_cache
FROZEN_BUILDS = {
    "lags": lambda: bm._lags(60),
    "lag_spectrum": lambda: bm._lag_spectrum(60, False),
    "causal_lag_spectrum": lambda: bm._lag_spectrum(60, True),
    "anchor_sums": lambda: bm._anchor_sums(60, 0.5, 1.0),
    "products": lambda: bm._products(60, 0.5, 1.0),
    "pair_curve": lambda: form.estimate_curve(PAIR, BmEstimatorParams(0.5, 1.0)),
    "oracle_rows": lambda: bm._oracle_rows(CONST_HALF, 60, 0.5, 1.0),
    "oracle_rows_rho_1": lambda: bm._oracle_rows(None, 60, 0.5, 1.0),
    "oracle_curve": lambda: bm._oracle_curve(CONST_HALF, 60, BmEstimatorParams(0.5, 1.0)),
    "grid_v1": lambda: gbm._grid(60, GbmEstimatorParams(1.0, 12.0, 2.0, 0.1, "v1")),
    "grid_v2": lambda: gbm._grid(60, GbmEstimatorParams(1.0, 16.0, 2.0, 0.1, "v2")),
    "coupling": lambda: simulate._coupling(CONST_HALF, 60),
}


class TestFrozenCache:
    @pytest.mark.parametrize("build", FROZEN_BUILDS.values(), ids=list(FROZEN_BUILDS))
    def test_every_build_is_read_only_and_shared(self, build):
        first = build()
        # a pair's curve estimate is checked through the memoryviews of its columns
        record = isinstance(first, form.CurveEstimate)
        members = first.views if record else first if isinstance(first, tuple) else (first,)
        arrays = [v for v in members if isinstance(v, (np.ndarray, memoryview))]
        assert arrays
        for arr in arrays:
            # a memoryview (a column of the curve estimate or the oracle ratio
            # curve) views a read-only float64 array, or the estimate's int8 code
            with pytest.raises(ValueError):
                np.asarray(arr)[...] = 0.0
            if isinstance(arr, memoryview):
                code = record and arr is first.views[-1]
                assert arr.readonly and arr.format == ("b" if code else "d") and arr.ndim == 1
                with pytest.raises(TypeError):
                    arr[0] = 0.0
        assert build() is first

    def test_hits_skip_the_build_and_cache_clear_resets(self):
        calls = []

        @simulate.frozen_cache
        def build(n):
            calls.append(n)
            return np.arange(n), n, None

        first = build(3)
        assert build(3) is first and calls == [3]
        assert not first[0].flags.writeable and first[1:] == (3, None)
        build.cache_clear()
        assert build(3) is not first and calls == [3, 3]

    # the cache is untyped, so an entry for T = 60 answered T = 60.0 past the
    # builds' checks: a bare TypeError, or a DomainError in a fresh process
    @pytest.mark.parametrize("params", [BmEstimatorParams(0.5, 1.0),
                                        GbmEstimatorParams(1.0, 16.0, 2.0, 0.1, "v2")],
                             ids=["bm", "gbm"])
    @pytest.mark.parametrize("int_first", [False, True], ids=["fresh", "after_int"])
    def test_float_grid_length_is_rejected_by_the_oracle(self, params, int_first):
        for build in (bm._lags, bm._products, bm._oracle_rows, gbm._grid):
            build.cache_clear()
        for profile in (CONST_HALF, CorrelationProfile("table", table=(0.5,) * 60)):
            if int_first:
                params.oracle(profile, 3, 60)
            with pytest.raises(DomainError, match="T must be an integer, got 60.0"):
                params.oracle(profile, 3, 60.0)
