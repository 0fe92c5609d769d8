"""Brownian-pair estimator and its expectation formulas.

The expectation formulas are cross-checked against a direct double-loop
evaluation of the weighted-moment sum under the coupling covariance model
Cov(X_s, Y_t) = min(s, t) * rho_{min(s, t)}, written independently of the
expectation of the centred form used in the implementation.
"""

import math

import numpy as np
import pytest

from dyncorr import bm
from dyncorr import (
    BmEstimatorParams,
    CorrelationProfile,
    DegenerateVariance,
    DomainError,
    NumericRange,
    TimeGrid,
    estimate_bm,
    expected_gamma_bm,
    expected_ratio_q,
    expected_sigma_sq_bm,
    gamma_hat_bm,
    rho_hat_bm,
    sigma_sq_hat_bm,
    simulate_bm_batch,
    simulate_bm_pair,
)

CONST_HALF = CorrelationProfile("constant", (0.5,))
# increments alternating 0.8, 0.8, -0.5: a feasible profile with a jagged rho_t
JAGGED = tuple(np.cumsum(np.where(np.arange(1, 61) % 3, 0.8, -0.5)) / np.arange(1, 61))


def brute_force_expected_terms(rho, u, q, p, T):
    """Terms of the direct weighted-moment sum, no algebraic regrouping."""

    def cov(s, t):
        m = min(s, t)
        return m * rho[m - 1]

    terms = []
    for v in range(1, T + 1):
        if v == u:
            continue
        term = (
            v ** (2 * q) * cov(u, u)
            - v ** (q - p) * (cov(u, v) + cov(v, u))
            + v ** (-2 * p) * cov(v, v)
        )
        terms.append(term / (u - v) ** 2)
    return terms


def brute_force_expected_gamma(rho, u, q, p, T):
    return sum(brute_force_expected_terms(rho, u, q, p, T)) / (T - 1)


def direct_gamma(x, y, u, q, p):
    """The estimator's defining masked sum over v != u, term by term.

    Returns the estimate and the same sum over the terms' absolute values,
    the scale against which rounding in a rearranged form is judged.
    """
    T = x.shape[-1]
    v = np.arange(1.0, T + 1.0)
    mask = v != u
    v = v[mask]
    dx = v ** q * x[..., u - 1, None] - v ** -p * x[..., mask]
    dy = v ** q * y[..., u - 1, None] - v ** -p * y[..., mask]
    terms = dx * dy / (u - v) ** 2
    return terms.sum(axis=-1) / (T - 1), np.abs(terms).sum(axis=-1) / (T - 1)


def brute_force_expected_sigma_sq(u, q, p, T):
    return brute_force_expected_gamma(np.ones(T), u, q, p, T)


class TestParams:
    def test_negative_exponents_rejected(self):
        with pytest.raises(DomainError):
            BmEstimatorParams(-0.5, 1.0)
        with pytest.raises(DomainError):
            BmEstimatorParams(0.5, -1.0)

    def test_consistency_range(self):
        assert BmEstimatorParams(0.5, 1.0).in_consistency_range()
        assert not BmEstimatorParams(0.5, 0.5).in_consistency_range()
        assert not BmEstimatorParams(0.0, 1.0).in_consistency_range()

    def test_variance_decay_range(self):
        assert BmEstimatorParams(0.25, 0.75).in_variance_decay_range()
        assert not BmEstimatorParams(0.0, 0.75).in_variance_decay_range()
        assert not BmEstimatorParams(0.25, 0.5).in_variance_decay_range()


class TestPointEstimator:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        T, u, q, p = 25, 7, 0.5, 1.0
        x, y = rng.standard_normal((2, T))
        expected = 0.0
        for v in range(1, T + 1):
            if v == u:
                continue
            dx = v ** q * x[u - 1] - v ** -p * x[v - 1]
            dy = v ** q * y[u - 1] - v ** -p * y[v - 1]
            expected += dx * dy / (u - v) ** 2
        expected /= T - 1
        params = BmEstimatorParams(q, p)
        assert gamma_hat_bm(x, y, u=u, params=params) == pytest.approx(expected, rel=1e-13)

    def test_sigma_sq_is_gamma_with_substituted_series(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(30)
        params = BmEstimatorParams(0.3, 0.8)
        g = gamma_hat_bm(x, x, u=5, params=params)
        assert sigma_sq_hat_bm(x, u=5, params=params) == pytest.approx(g)

    @pytest.mark.parametrize("q,p", [(0.5, 1.0), (0.0, 0.0), (0.5, 0.5), (1.0, 2.0),
                                     (0.25, 0.75)])
    @pytest.mark.parametrize("T", [50, 2000, 20000])
    def test_matches_direct_form(self, q, p, T):
        x, y = simulate_bm_batch(CONST_HALF, TimeGrid(T), 12, reps=3)
        params = BmEstimatorParams(q, p)
        for u in (1, T // 2, T):
            direct, scale = direct_gamma(x, y, u, q, p)
            g = gamma_hat_bm(x, y, u=u, params=params)
            assert np.all(np.abs(g - direct) <= 1e-12 * scale)
            direct, scale = direct_gamma(x, x, u, q, p)
            s = sigma_sq_hat_bm(x, u=u, params=params)
            assert np.all(np.abs(s - direct) <= 1e-12 * scale)

    def test_batch_matches_loop(self):
        params = BmEstimatorParams(0.5, 1.0)
        # at T = 20000 a batch spans several of the kernel's row blocks
        x, y = simulate_bm_batch(CONST_HALF, TimeGrid(20000), 4, reps=64)
        x7, y7 = simulate_bm_batch(CONST_HALF, TimeGrid(20000), 4, reps=7)
        batch = params.components(x, y, 10)
        head = params.components(x7, y7, 10)
        singles = [params.components(x[i], y[i], 10) for i in range(64)]
        for j in range(3):
            assert np.array_equal(batch[j], [s[j] for s in singles])
            assert np.array_equal(head[j], batch[j][:7])
        for xs, ys in ((x7, y7), (x, y)):
            batch = gamma_hat_bm(xs, ys, u=10, params=params)
            singles = [gamma_hat_bm(a, b, u=10, params=params) for a, b in zip(xs, ys)]
            assert np.array_equal(batch, singles)
            batch = sigma_sq_hat_bm(ys, u=10, params=params)
            singles = [sigma_sq_hat_bm(b, u=10, params=params) for b in ys]
            assert np.array_equal(batch, singles)

    def test_non_finite_component_raises(self):
        params = BmEstimatorParams(0.5, 1.0)
        y = np.linspace(1.0, 2.0, 40)
        # X_u^2 A overflows: the x variance would be inf
        with pytest.raises(NumericRange):
            params.components(np.full(40, 1e200), y, 5)
        x = y.copy()
        x[7] = np.nan
        with pytest.raises(NumericRange):
            params.components(x, y, 5)
        # T = 1: the sum over v != u is empty and 1/(T-1) has no value
        with pytest.raises(NumericRange):
            params.components(np.ones(1), np.ones(1), 1)

    def test_rho_hat_within_unit_interval(self):
        x, y = simulate_bm_batch(CONST_HALF, TimeGrid(60), 8, reps=200)
        rho = rho_hat_bm(x, y, u=12, params=BmEstimatorParams(0.5, 1.0))
        assert np.all(np.abs(rho) <= 1.0 + 1e-12)

    def test_swap_symmetry_and_scale_invariance(self):
        pair = simulate_bm_pair(CONST_HALF, TimeGrid(50), 3)
        params = BmEstimatorParams(0.5, 1.0)
        rho = rho_hat_bm(pair.x, pair.y, u=9, params=params)
        assert rho_hat_bm(pair.y, pair.x, u=9, params=params) == pytest.approx(rho)
        assert rho_hat_bm(3.7 * pair.x, 0.2 * pair.y, u=9, params=params) == (
            pytest.approx(rho)
        )

    def test_zero_path_raises_degenerate(self):
        zeros = np.zeros(20)
        with pytest.raises(DegenerateVariance):
            rho_hat_bm(zeros, zeros, u=4, params=BmEstimatorParams(0.5, 1.0))

    def test_estimate_bm_bundles_components(self):
        pair = simulate_bm_pair(CONST_HALF, TimeGrid(30), 6)
        params = BmEstimatorParams(0.5, 1.0)
        series = estimate_bm(pair, 8, params)
        assert series.gamma_hat == pytest.approx(
            gamma_hat_bm(pair, u=8, params=params)
        )
        assert series.rho_hat == pytest.approx(
            series.gamma_hat / np.sqrt(series.sigma_x_sq_hat * series.sigma_y_sq_hat)
        )


class TestExpectationFormulas:
    @pytest.mark.parametrize("q,p", [(0.5, 1.0), (0.0, 0.0), (0.3, 0.8), (1.0, 2.0)])
    @pytest.mark.parametrize("profile", [
        CONST_HALF,
        CorrelationProfile("capped", (0.5, 10.0)),
        CorrelationProfile("linear", (0.05, 0.004)),
    ])
    def test_expected_gamma_matches_brute_force(self, q, p, profile):
        T, t = 60, 12
        params = BmEstimatorParams(q, p)
        brute = brute_force_expected_gamma(profile.rho(T), t, q, p, T)
        assert expected_gamma_bm(profile, t, params, T) == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("q,p", [(0.5, 1.0), (0.0, 0.0), (0.3, 0.8)])
    def test_expected_sigma_sq_matches_brute_force(self, q, p):
        T, t = 60, 12
        params = BmEstimatorParams(q, p)
        brute = brute_force_expected_sigma_sq(t, q, p, T)
        assert expected_sigma_sq_bm(t, params, T) == pytest.approx(brute, rel=1e-12)

    def test_smallest_grid_value(self):
        # T=2, t=1, q=p=0: E(X_1 - X_2)^2 = Var(increment) = 1
        assert expected_sigma_sq_bm(1, BmEstimatorParams(0.0, 0.0), 2) == (
            pytest.approx(1.0)
        )

    def test_sigma_sq_equals_gamma_at_full_correlation(self):
        ones = CorrelationProfile("constant", (1.0,))
        params = BmEstimatorParams(0.5, 1.0)
        g = expected_gamma_bm(ones, 10, params, 200)
        assert expected_sigma_sq_bm(10, params, 200) == pytest.approx(g, rel=1e-13)

    def test_ratio_is_exact_for_constant_profiles(self):
        for q, p in [(0.5, 1.0), (0.0, 0.0), (0.3, 2.0)]:
            params = BmEstimatorParams(q, p)
            ratio = expected_ratio_q(CONST_HALF, 10, params, 500)
            assert abs(ratio - 0.5) < 1e-12

    def test_ratio_trend_for_time_varying_profile(self):
        capped = CorrelationProfile("capped", (0.5, 10.0))
        params = BmEstimatorParams(0.5, 1.0)
        gaps = [abs(expected_ratio_q(capped, 10, params, T) - 0.5)
                for T in (1000, 10000)]
        assert gaps[1] < gaps[0]

    @pytest.mark.parametrize("q,p", [(0.5, 1.0), (0.0, 0.0), (0.3, 0.8), (1.0, 2.0)])
    @pytest.mark.parametrize("profile", [
        CONST_HALF,
        CorrelationProfile("capped", (0.5, 10.0)),
        CorrelationProfile("linear", (0.05, 0.004)),
        CorrelationProfile("table", table=JAGGED),
    ], ids=["constant", "capped", "linear", "table"])
    def test_oracle_matches_brute_force_at_every_time(self, q, p, profile):
        # t = 1 has no head, t = T has an empty tail
        params = BmEstimatorParams(q, p)
        for T in (2, 3, 60):
            ones = np.ones(T)
            for t in range(1, T + 1):
                for got, rho in zip(params.oracle(profile, t, T), (profile.rho(T), ones)):
                    # exact rounding of the direct sum, judged on its terms' magnitudes
                    terms = brute_force_expected_terms(rho, t, q, p, T)
                    want, scale = math.fsum(terms), math.fsum(map(abs, terms))
                    assert abs(got - want / (T - 1)) <= 1e-12 * scale / (T - 1)

    @pytest.mark.parametrize("q,p", [(0.5, 1.0), (0.0, 0.0), (0.3, 0.8), (1.0, 2.0)])
    @pytest.mark.parametrize("profile", [
        CONST_HALF,
        CorrelationProfile("capped", (0.5, 10.0)),
        CorrelationProfile("linear", (0.05, 2e-5)),
    ], ids=["constant", "capped", "linear"])
    def test_oracle_matches_sub_term_sum_on_a_long_grid(self, q, p, profile):
        # every sub-term of the direct sum, v^2q g_u - 2 v^{q-p} g_min(u,v)
        # + v^-2p g_v over (u-v)^2, in one exact fsum
        T = 20000
        v = np.arange(1.0, T + 1.0)
        params = BmEstimatorParams(q, p)
        for u in (1, 10, T // 3, T):
            vo = v[v != u]
            lag = 1.0 / ((u - vo) ** 2 * (T - 1))
            first = np.minimum(vo, u).astype(int) - 1
            for got, rho in zip(params.oracle(profile, u, T), (profile.rho(T), np.ones(T))):
                g = v * rho
                sub = np.concatenate([vo ** (2 * q) * g[u - 1] * lag,
                                      -2 * vo ** (q - p) * g[first] * lag,
                                      vo ** (-2 * p) * g[vo.astype(int) - 1] * lag])
                assert abs(got - math.fsum(sub)) <= 1e-14 * math.fsum(np.abs(sub))

    def test_non_finite_expectation_raises(self):
        # v^{2q} leaves the double range at q = 100; the sums were once NaN
        with pytest.raises(NumericRange, match="non-finite expectation"):
            BmEstimatorParams(100.0, 0.0).oracle(CONST_HALF, 10, 10000)

    def test_mc_mean_matches_oracle(self):
        profile = CorrelationProfile("capped", (0.4, 8.0))
        T, t, reps = 300, 8, 3000
        params = BmEstimatorParams(0.5, 1.0)
        x, y = simulate_bm_batch(profile, TimeGrid(T), 17, reps)
        g = gamma_hat_bm(x, y, u=t, params=params)
        target = expected_gamma_bm(profile, t, params, T)
        se = g.std(ddof=1) / np.sqrt(reps)
        assert abs(g.mean() - target) < 4 * se


def _clear_caches():
    for cache in (bm._lags, bm._products, bm._oracle_rows):
        cache.cache_clear()


class TestCaches:
    PROFILES = (CorrelationProfile("capped", (0.5, 10.0)), CorrelationProfile("table", table=JAGGED))
    PARAMS = (BmEstimatorParams(0.5, 1.0), BmEstimatorParams(0.3, 0.8))

    def test_interleaved_calls_equal_fresh_calls(self):
        x, y = simulate_bm_batch(CONST_HALF, TimeGrid(60), 4, reps=3)
        calls = [(kind, profile, T, params, t)
                 for kind in ("oracle", "components")
                 for profile in self.PROFILES
                 for T in (40, 60)
                 for params in self.PARAMS
                 for t in (1, T // 3, T)]

        def call(kind, profile, T, params, t):
            if kind == "oracle":
                return expected_ratio_q(profile, t, params, T)
            return params.components(x[:, :T], y[:, :T], t)

        fresh = []
        for args in calls:
            _clear_caches()
            fresh.append(call(*args))
        order = np.random.default_rng(0).permutation(len(calls))
        for _ in range(2):
            for i in order:
                got = call(*calls[i])
                if calls[i][0] == "oracle":
                    assert got == fresh[i]
                else:
                    for a, b in zip(got, fresh[i]):
                        np.testing.assert_array_equal(a, b)

    def test_cached_arrays_are_read_only(self):
        params = self.PARAMS[0]
        arrays = [bm._lags(60), *bm._products(60, params.q, params.p)]
        for profile in (None, *self.PROFILES):
            rows, damp, g = bm._oracle_rows(profile, 60, params.q, params.p)
            arrays += [rows, damp, g]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[...] = 0.0

    def test_profile_with_list_fields_keys_the_cache(self):
        listed = CorrelationProfile("capped", [0.5, 10.0])
        params = self.PARAMS[0]
        assert expected_ratio_q(listed, 5, params, 60) == (
            expected_ratio_q(self.PROFILES[0], 5, params, 60))

    def test_oracle_reads_the_profile_once_per_curve(self, monkeypatch):
        # the per-t work is slices of one build, not a fresh profile.rho(T)
        calls = []
        rho = CorrelationProfile.rho

        def counted(self, T):
            calls.append(T)
            return rho(self, T)

        monkeypatch.setattr(CorrelationProfile, "rho", counted)
        _clear_caches()
        T, params = 80, self.PARAMS[0]
        for t in range(1, T + 1):
            expected_ratio_q(self.PROFILES[0], t, params, T)
        assert calls == [T]
