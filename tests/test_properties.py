"""Property-based checks over generated inputs."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dyncorr import (
    BmEstimatorParams,
    BmPathPair,
    CorrelationProfile,
    DomainError,
    DyncorrError,
    GbmEstimatorParams,
    GbmPathPair,
    TimeGrid,
    estimate_bm,
    estimate_gbm,
    gamma_hat_bm,
    r_from_rho,
    rho_from_r,
    sigma_sq_hat_bm,
    simulate_bm_pair,
)

correlations = st.floats(-0.99, 0.99)


class TestTransformProperties:
    @given(rho=correlations, sigma=st.floats(0.01, 1.0), t=st.integers(1, 50))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, rho, sigma, t):
        # strongly negative values are unreachable by any geometric pair
        assume(1.0 + rho * np.expm1(sigma ** 2 * t) > 1e-9)
        floor = -np.exp(-sigma ** 2 * t)   # the GBM correlation at r = -1
        if rho < floor * (1.0 + 1e-12):
            with pytest.raises(DomainError, match="rho_t must be >= -e"):
                r_from_rho(rho, sigma, t)
        elif rho >= floor:
            r = r_from_rho(rho, sigma, t)
            assert -1.0 <= r <= 1.0
            assert abs(rho_from_r(r, sigma, t) - rho) <= 1e-9

    @given(sigma=st.floats(0.01, 1.0), t=st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_correlation(self, sigma, t):
        values = [rho_from_r(r, sigma, t) for r in (-0.5, 0.0, 0.5, 1.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestProfileProperties:
    @given(c=correlations, t0=st.floats(1.0, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_capped_profiles_are_always_feasible(self, c, t0):
        prof = CorrelationProfile("capped", (c, t0))
        r = prof.increments(40)
        assert np.all(np.abs(r) <= 1.0)

    @given(c=correlations)
    @settings(max_examples=50, deadline=None)
    def test_constant_increments_reproduce_profile(self, c):
        prof = CorrelationProfile("constant", (c,))
        t = np.arange(1, 31)
        assert np.allclose(np.cumsum(prof.increments(30)), t * c, atol=1e-12)


class TestEstimatorProperties:
    @given(
        c=correlations,
        q=st.floats(0.0, 1.5),
        p=st.floats(0.0, 2.0),
        seed=st.integers(0, 2 ** 32 - 1),
        t=st.integers(1, 30),
    )
    @settings(max_examples=100, deadline=None)
    def test_cauchy_schwarz_bound(self, c, q, p, seed, t):
        prof = CorrelationProfile("constant", (c,))
        pair = simulate_bm_pair(prof, TimeGrid(30), seed)
        params = BmEstimatorParams(q, p)
        g = gamma_hat_bm(pair, u=t, params=params)
        sx = sigma_sq_hat_bm(pair.x, u=t, params=params)
        sy = sigma_sq_hat_bm(pair.y, u=t, params=params)
        assert g * g <= sx * sy * (1 + 1e-10)


# path arrays of rank 0 to 2, empty sides included, whose entries are mostly
# ordinary values but can be non-finite or large enough to overflow the sums
shapes = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=12)
entries = st.one_of(st.floats(-10.0, 10.0),
                    st.sampled_from([np.nan, np.inf, -np.inf, 1e200, -1e300, 0.0]))


class TestPairProperties:
    @given(data=st.data(), family=st.sampled_from(["bm", "v1", "v2"]),
           sigma=st.sampled_from([0.1, 1.0, np.nan, 0.0]))
    @settings(max_examples=200, deadline=None)
    def test_a_pair_is_refused_or_estimates_raise_only_package_errors(self, data, family,
                                                                      sigma):
        shape = data.draw(shapes)
        x = data.draw(hnp.arrays(float, shape, elements=entries))
        y = data.draw(hnp.arrays(float, st.one_of(st.just(shape), shapes), elements=entries))
        try:
            pair = BmPathPair(x, y) if family == "bm" else GbmPathPair(x, y, x, y, sigma)
        except DomainError:
            return
        if family == "bm":
            estimate, params = estimate_bm, BmEstimatorParams(0.5, 1.0)
        else:
            estimate, params = estimate_gbm, GbmEstimatorParams(1.0, 12.0, 2.0, sigma, family)
        T = len(pair.paths[0])
        for t in sorted({1, T // 2 + 1, T}):
            try:
                estimate(pair, t, params)
            except DyncorrError:
                pass
