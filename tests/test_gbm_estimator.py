"""Geometric-pair estimators and their expectation formulas.

The expectation formulas are cross-checked against a direct per-step
moment evaluation using only the lognormal cross-moment
E[(e^{sW_s} - e^{s^2 s/2})(e^{sU_v} - e^{s^2 v/2})]
  = e^{(s+v)s^2/2}(e^{s^2 m rho_m} - 1),   m = min(s, v),
where m rho_m = Cov(W_s, U_v) under increment coupling.  It is written
independently of the grouped series in the implementation and holds for
constant and time-varying profiles alike.  The point estimators are checked
against their direct bracket and masked sums.
"""

import math
import warnings

import numpy as np
import pytest

from dyncorr import (
    CorrelationProfile,
    DomainError,
    GbmEstimatorParams,
    NegativeVarianceEstimate,
    NonconvergentSeriesWarning,
    NumericRange,
    TimeGrid,
    estimate_gbm,
    expected_gamma_gbm_v1,
    expected_gamma_gbm_v2,
    expected_ratio_gbm,
    expected_sigma_sq_gbm_v1,
    expected_sigma_sq_gbm_v2,
    gamma_hat_gbm_v1,
    gamma_hat_gbm_v2,
    r_from_rho,
    rho_from_r,
    rho_hat_gbm,
    sigma_sq_hat_gbm,
    simulate_bm_batch,
    simulate_bm_pair,
    simulate_gbm_pair,
)

CONST_HALF = CorrelationProfile("constant", (0.5,))


def dev_moment(s, v, rho, s2):
    """E[(e^{sigma W_s} - m_s)(e^{sigma U_v} - m_v)]; Cov(W_s, U_v) = m rho_m."""
    m = min(s, v)
    return math.exp(0.5 * s2 * (s + v)) * math.expm1(s2 * m * rho[m - 1])


def brute_force_v1(rho, t, params, T):
    """E[gamma_hat] of the first variant for correlations rho_1..rho_T."""
    s2 = params.sigma ** 2
    total = 0.0
    for k in range(1, T + 1):
        a1 = math.exp(-0.5 * params.b * s2 * k - 0.5 * params.c * s2 * T)
        a2 = math.exp(0.5 * params.a * s2 * k - 0.5 * params.c * s2 * T)
        total += (
            a1 * a1 * dev_moment(k, k, rho, s2)
            - a1 * a2 * dev_moment(k, t, rho, s2)
            - a2 * a1 * dev_moment(t, k, rho, s2)
            + a2 * a2 * dev_moment(t, t, rho, s2)
        )
    return total


def brute_force_v2(rho, t, params, T):
    s2 = params.sigma ** 2
    norm = params.c * s2 * T
    total = 0.0
    for k in range(1, T + 1):
        total += math.exp(params.a * s2 * k - norm) * dev_moment(t, t, rho, s2)
        total -= math.exp(-params.b * s2 * k - norm) * dev_moment(k, k, rho, s2)
    return total


def direct_sum(w, u, t, params, variant):
    """Per-row (value, term-magnitude sum) of the estimator's defining sum.

    v1: sum_k B_k(W) B_k(U) with the bracket
    B_k = e^{-c s2 T/2} [e^{-b s2 k/2} D_k - e^{a s2 k/2} D_t]; v2:
    sum_k e^{-c s2 T} [e^{a s2 k} D_t D'_t - e^{-b s2 k} D_k D'_k], where
    D_k = e^{sigma W_k} - e^{s2 k/2}.  No exponent is folded.
    """
    T, s2, sigma = w.shape[-1], params.sigma ** 2, params.sigma
    k = np.arange(1.0, T + 1.0)
    values, scales = [], []
    with np.errstate(under="ignore"):
        for x, y in zip(np.atleast_2d(w), np.atleast_2d(u)):
            dx = np.exp(sigma * x) - np.exp(0.5 * s2 * k)
            dy = np.exp(sigma * y) - np.exp(0.5 * s2 * k)
            if variant == "v1":
                def bracket(d):
                    return np.exp(-0.5 * params.c * s2 * T) * (
                        np.exp(-0.5 * params.b * s2 * k) * d
                        - np.exp(0.5 * params.a * s2 * k) * d[t - 1])
                terms = bracket(dx) * bracket(dy)
            else:
                norm = np.exp(-params.c * s2 * T)
                terms = np.concatenate([
                    norm * np.exp(params.a * s2 * k) * dx[t - 1] * dy[t - 1],
                    -norm * np.exp(-params.b * s2 * k) * dx * dy,
                ])
            values.append(math.fsum(terms))
            scales.append(math.fsum(np.abs(terms)))
    return np.array(values), np.array(scales)


class TestParams:
    def test_sigma_positive_required(self):
        with pytest.raises(DomainError):
            GbmEstimatorParams(1.0, 12.0, 2.0, 0.0)

    def test_variant_names_checked(self):
        with pytest.raises(DomainError):
            GbmEstimatorParams(1.0, 12.0, 2.0, 0.1, "v3")

    def test_consistency_ranges(self):
        assert GbmEstimatorParams(1.0, 12.0, 2.0, 0.1, "v1").in_consistency_range()
        assert not GbmEstimatorParams(1.0, 10.0, 2.0, 0.1, "v1").in_consistency_range()
        assert GbmEstimatorParams(1.0, 16.0, 2.0, 0.1, "v2").in_consistency_range()
        assert not GbmEstimatorParams(1.0, 15.0, 2.0, 0.1, "v2").in_consistency_range()


class TestCorrelationTransform:
    @pytest.mark.parametrize("rho", [-0.3, 0.0, 0.25, 0.5, 0.99])
    def test_round_trip(self, rho):
        r = r_from_rho(rho, 0.1, 5)
        assert rho_from_r(r, 0.1, 5) == pytest.approx(rho, abs=1e-12)

    def test_identity_at_extremes(self):
        assert rho_from_r(1.0, 0.3, 4) == pytest.approx(1.0)
        assert rho_from_r(0.0, 0.3, 4) == pytest.approx(0.0)

    def test_gbm_correlation_below_bm_correlation_for_positive(self):
        # convexity: e^{rx} - 1 <= r(e^x - 1) for r in (0, 1)
        assert rho_from_r(0.5, 0.3, 5) < 0.5

    def test_out_of_domain_rejected(self):
        with pytest.raises(DomainError):
            r_from_rho(-1.0, 1.0, 10)


class TestExpectationFormulas:
    CASES = [
        (1.0, 12.0, 2.0, 0.1, 0.5, 5, 60),
        (1.0, 16.0, 2.0, 0.1, 0.5, 5, 60),
        (0.5, 11.0, 1.5, 0.2, -0.4, 3, 40),
        (2.0, 13.0, 3.0, 0.05, 0.9, 8, 80),
    ]

    @pytest.mark.parametrize("a,b,c,sigma,r,t,T", CASES)
    def test_v1_gamma_matches_brute_force(self, a, b, c, sigma, r, t, T):
        params = GbmEstimatorParams(a, b, c, sigma, "v1")
        profile = CorrelationProfile("constant", (r,))
        brute = brute_force_v1(np.full(T, r), t, params, T)
        assert expected_gamma_gbm_v1(profile, t, params, T) == (
            pytest.approx(brute, rel=1e-10)
        )

    @pytest.mark.parametrize("a,b,c,sigma,r,t,T", CASES)
    def test_v1_sigma_sq_matches_brute_force(self, a, b, c, sigma, r, t, T):
        params = GbmEstimatorParams(a, b, c, sigma, "v1")
        brute = brute_force_v1(np.ones(T), t, params, T)
        assert expected_sigma_sq_gbm_v1(t, params, T) == pytest.approx(brute, rel=1e-10)

    @pytest.mark.parametrize("a,b,c,sigma,r,t,T", CASES)
    def test_v2_gamma_matches_brute_force(self, a, b, c, sigma, r, t, T):
        params = GbmEstimatorParams(a, b, c, sigma, "v2")
        profile = CorrelationProfile("constant", (r,))
        brute = brute_force_v2(np.full(T, r), t, params, T)
        assert expected_gamma_gbm_v2(profile, t, params, T) == (
            pytest.approx(brute, rel=1e-10)
        )

    @pytest.mark.parametrize("a,b,c,sigma,r,t,T", CASES)
    def test_v2_sigma_sq_matches_brute_force(self, a, b, c, sigma, r, t, T):
        params = GbmEstimatorParams(a, b, c, sigma, "v2")
        brute = brute_force_v2(np.ones(T), t, params, T)
        assert expected_sigma_sq_gbm_v2(t, params, T) == pytest.approx(brute, rel=1e-10)

    # step correlations r_i = 0.8, 0.8, -0.5, ... give a jagged feasible table
    JAGGED = tuple(np.cumsum(np.where(np.arange(1, 61) % 3, 0.8, -0.5)) / np.arange(1, 61))

    @pytest.mark.parametrize("profile", [
        CorrelationProfile("capped", (0.5, 10.0)),
        CorrelationProfile("linear", (0.1, 0.005)),
        CorrelationProfile("table", table=JAGGED),
    ], ids=["capped", "linear", "table"])
    @pytest.mark.parametrize("variant", ["v1", "v2"])
    @pytest.mark.parametrize("t", [5, 20, 60])
    def test_time_varying_profiles_match_brute_force(self, profile, variant, t):
        T = 60
        params = GbmEstimatorParams(1.0, 16.0, 2.0, 0.1, variant)
        brute = brute_force_v1 if variant == "v1" else brute_force_v2
        gamma, sigma_sq = params.oracle(profile, t, T)
        assert gamma == pytest.approx(brute(profile.rho(T), t, params, T), rel=1e-10)
        assert sigma_sq == pytest.approx(brute(np.ones(T), t, params, T), rel=1e-10)

    def test_zero_profile_gives_zero_gamma(self):
        zero = CorrelationProfile("constant", (0.0,))
        for variant, fn in (("v1", expected_gamma_gbm_v1), ("v2", expected_gamma_gbm_v2)):
            params = GbmEstimatorParams(1.0, 16.0, 2.0, 0.1, variant)
            assert fn(zero, 5, params, 100) == pytest.approx(0.0, abs=1e-15)

    def test_ratio_converges_to_gbm_correlation(self):
        r_star = r_from_rho(0.5, 0.1, 5)
        profile = CorrelationProfile("constant", (r_star,))
        for variant, b in (("v1", 12.0), ("v2", 16.0)):
            params = GbmEstimatorParams(1.0, b, 2.0, 0.1, variant)
            gaps = [abs(expected_ratio_gbm(profile, 5, params, T) - 0.5)
                    for T in (50, 100, 200, 400)]
            assert all(x > y for x, y in zip(gaps, gaps[1:]))
            assert gaps[-1] < 1e-4

    def test_nonconvergent_series_warns(self):
        params = GbmEstimatorParams(1.0, 2.0, 2.0, 0.1, "v2")
        with pytest.warns(NonconvergentSeriesWarning):
            expected_sigma_sq_gbm_v2(5, params, 100)

    def test_oracle_guards_exponent_range(self):
        params = GbmEstimatorParams(1.0, 16.0, 2.0, 1.0, "v2")
        with pytest.raises(NumericRange):
            expected_sigma_sq_gbm_v2(5, params, 400)


class TestPointEstimators:
    def test_v1_sigma_sq_is_sum_of_squares(self):
        w, u = simulate_bm_batch(CONST_HALF, TimeGrid(60), 5, reps=100)
        params = GbmEstimatorParams(1.0, 12.0, 2.0, 0.1, "v1")
        s = sigma_sq_hat_gbm(w, t=5, params=params)
        assert np.all(s >= 0.0)

    def test_v1_substitution_identity(self):
        w, _ = simulate_bm_batch(CONST_HALF, TimeGrid(50), 6, reps=20)
        params = GbmEstimatorParams(1.0, 12.0, 2.0, 0.1, "v1")
        g = gamma_hat_gbm_v1(w, w, t=5, params=params)
        s = sigma_sq_hat_gbm(w, t=5, params=params)
        assert np.allclose(g, s, rtol=1e-13)

    def test_v2_substitution_identity(self):
        w, _ = simulate_bm_batch(CONST_HALF, TimeGrid(50), 6, reps=20)
        params = GbmEstimatorParams(1.0, 16.0, 2.0, 0.1, "v2")
        g = gamma_hat_gbm_v2(w, w, t=5, params=params)
        s = sigma_sq_hat_gbm(w, t=5, params=params)
        assert np.allclose(g, s, rtol=1e-13)

    def test_v1_rho_within_unit_interval(self):
        w, u = simulate_bm_batch(CONST_HALF, TimeGrid(80), 21, reps=300)
        params = GbmEstimatorParams(1.0, 12.0, 2.0, 0.1, "v1")
        rho = rho_hat_gbm(w, u, t=5, params=params)
        assert np.all(np.abs(rho) <= 1.0 + 1e-12)

    def test_v2_negative_variance_raises_in_ratio(self):
        params = GbmEstimatorParams(1.0, 16.0, 2.0, 0.02, "v2")
        # hunt a replication whose anchor deviation is small enough
        for rep in range(60):
            w, u = simulate_bm_batch(CONST_HALF, TimeGrid(30), 31, 1, rep_offset=rep)
            if sigma_sq_hat_gbm(w[0], t=5, params=params) < 0:
                with pytest.raises(NegativeVarianceEstimate):
                    rho_hat_gbm(w[0], u[0], t=5, params=params)
                return
        pytest.fail("no negative-variance replication found in 60 tries")

    def test_estimate_gbm_flags_instead_of_raising(self):
        params = GbmEstimatorParams(1.0, 16.0, 2.0, 0.02, "v2")
        flagged = 0
        for rep in range(60):
            pair = simulate_gbm_pair(
                simulate_bm_pair(CONST_HALF, TimeGrid(30), 31, replication=rep), 0.02
            )
            series = estimate_gbm(pair, 5, params)
            if "negative_variance" in series.flags:
                assert math.isnan(series.rho_hat)
                flagged += 1
        assert flagged > 0

    @pytest.mark.parametrize("variant,b", [("v1", 12.0), ("v2", 16.0)])
    @pytest.mark.parametrize("T", [50, 1000, 10000])
    def test_matches_direct_form(self, variant, b, T):
        w, u = simulate_bm_batch(CONST_HALF, TimeGrid(T), 12, reps=3)
        params = GbmEstimatorParams(1.0, b, 2.0, 0.1, variant)
        gamma = gamma_hat_gbm_v1 if variant == "v1" else gamma_hat_gbm_v2
        for t in (1, 5, T):
            direct, scale = direct_sum(w, u, t, params, variant)
            assert np.all(np.abs(gamma(w, u, t=t, params=params) - direct) <= 1e-12 * scale)
            direct, scale = direct_sum(u, u, t, params, variant)
            assert np.all(np.abs(sigma_sq_hat_gbm(u, t=t, params=params) - direct)
                          <= 1e-12 * scale)

    @pytest.mark.parametrize("variant,b", [("v1", 12.0), ("v2", 16.0)])
    def test_batch_matches_loop(self, variant, b):
        params = GbmEstimatorParams(1.0, b, 2.0, 0.1, variant)
        # at T = 10000 a batch spans several of the kernel's row blocks
        w, u = simulate_bm_batch(CONST_HALF, TimeGrid(10000), 4, reps=64)
        w7, u7 = simulate_bm_batch(CONST_HALF, TimeGrid(10000), 4, reps=7)
        batch = params.components(w, u, 5)
        head = params.components(w7, u7, 5)
        singles = [params.components(w[i], u[i], 5) for i in range(64)]
        for j in range(3):
            assert np.array_equal(batch[j], [s[j] for s in singles])
            assert np.array_equal(head[j], batch[j][:7])

    def test_estimator_guards_exponent_range(self):
        w, u = simulate_bm_batch(CONST_HALF, TimeGrid(40), 2, reps=1)
        params = GbmEstimatorParams(50.0, 12.0, 2.0, 2.0, "v1")
        with pytest.raises(NumericRange):
            gamma_hat_gbm_v1(w, u, t=5, params=params)

    def test_v1_guards_anchor_exponent(self):
        # max m_t = 300 and max m_k = -46: only a spike at the anchor t = 5 overflows
        params = GbmEstimatorParams(17.0, 12.0, 2.0, 1.0, "v1")
        w, u = np.zeros((2, 40))
        w[4] = 450.0
        with pytest.raises(NumericRange):
            params.components(w, u, 5)
        w = np.roll(w, 15)
        assert np.all(np.isfinite(params.components(w, u, 5)))

    def test_v2_guards_second_path_exponent(self):
        params = GbmEstimatorParams(1.0, 16.0, 2.0, 1.0, "v2")
        w, u = np.zeros((2, 40))
        u[20] = 800.0
        with pytest.raises(NumericRange):
            params.components(w, u, 5)
        with pytest.raises(NumericRange):
            sigma_sq_hat_gbm(u, t=5, params=params)

    @pytest.mark.parametrize("params, path, k, spike", [
        # every exponent passes (650 < 700), but D_21^2 e^{m_step} overflows
        (GbmEstimatorParams(1.0, 16.0, 2.0, 1.0, "v2"), 1, 20, 650.0),
        # a spike off the anchor passes the exponent check; its square does not fit
        (GbmEstimatorParams(17.0, 12.0, 2.0, 1.0, "v1"), 0, 19, 690.0),
    ], ids=["v2", "v1"])
    def test_overflowing_sum_raises(self, params, path, k, spike):
        paths = np.zeros((2, 40))
        paths[path, k] = spike
        with pytest.raises(NumericRange):
            params.components(*paths, 5)

    def test_sigma_mismatch_rejected(self):
        pair = simulate_gbm_pair(simulate_bm_pair(CONST_HALF, TimeGrid(30), 1), 0.1)
        params = GbmEstimatorParams(1.0, 12.0, 2.0, 0.2, "v1")
        with pytest.raises(DomainError):
            estimate_gbm(pair, 5, params)


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("variant,b", [("v1", 12.0), ("v2", 16.0)])
    def test_mc_mean_matches_oracle(self, variant, b):
        params = GbmEstimatorParams(1.0, b, 2.0, 0.1, variant)
        T, t, reps = 150, 5, 2000
        w, u = simulate_bm_batch(CONST_HALF, TimeGrid(T), 23, reps)
        fn = gamma_hat_gbm_v1 if variant == "v1" else gamma_hat_gbm_v2
        g = fn(w, u, t=t, params=params)
        oracle_fn = expected_gamma_gbm_v1 if variant == "v1" else expected_gamma_gbm_v2
        target = oracle_fn(CONST_HALF, t, params, T)
        se = g.std(ddof=1) / np.sqrt(reps)
        assert abs(g.mean() - target) < 4 * se
