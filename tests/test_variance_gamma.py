"""Variance-gamma density, moments and the product-of-normals map."""

import functools
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from dyncorr import (
    CorrelationProfile,
    DomainError,
    NumericRange,
    TimeGrid,
    VgParams,
    product_normal_vg_params,
    simulate_bm_batch,
    vg_moments,
    vg_pdf,
)

PARAM_SETS = [
    VgParams(1.0, 0.0, 1.0, 0.0),
    VgParams(1.0, 0.5, 0.8, 0.0),
    VgParams(2.0, -0.3, 1.2, 0.5),
    VgParams(3.5, 0.2, 0.5, -1.0),
    VgParams(0.7, 0.1, 1.5, 2.0),
    VgParams(5.0, 1.0, 2.0, 0.0),
]


def _quad_over_r(fn, params):
    # split at the location parameter: the density can be singular there
    left, _ = integrate.quad(fn, -np.inf, params.mu, limit=400)
    right, _ = integrate.quad(fn, params.mu, np.inf, limit=400)
    return left + right


class TestDensity:
    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_integrates_to_one(self, params):
        total = _quad_over_r(lambda x: vg_pdf(x, params), params)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_quadrature_moments_match_formulas(self, params):
        mean, var = vg_moments(params)
        q_mean = _quad_over_r(lambda x: x * vg_pdf(x, params), params)
        q_var = _quad_over_r(
            lambda x: (x - q_mean) ** 2 * vg_pdf(x, params), params
        )
        assert q_mean == pytest.approx(mean, rel=1e-8, abs=1e-10)
        assert q_var == pytest.approx(var, rel=1e-8)

    def test_density_nonnegative(self):
        params = VgParams(1.5, 0.4, 0.9, 0.0)
        xs = np.linspace(-6, 6, 101)
        assert all(vg_pdf(float(x), params) >= 0 for x in xs)

    def test_shape_one_is_singular_at_location(self):
        with pytest.raises(DomainError):
            vg_pdf(0.0, VgParams(1.0, 0.0, 1.0, 0.0))

    def test_shape_above_one_has_finite_peak(self):
        params = VgParams(2.0, 0.0, 1.0, 0.0)
        peak = vg_pdf(0.0, params)
        assert math.isfinite(peak)
        # continuity: approaching the location from either side
        assert vg_pdf(1e-9, params) == pytest.approx(peak, rel=1e-5)
        assert vg_pdf(-1e-9, params) == pytest.approx(peak, rel=1e-5)

    def test_degenerate_scale_rejected(self):
        with pytest.raises(DomainError):
            vg_pdf(0.0, VgParams(1.0, 0.5, 0.0, 0.0))

    @pytest.mark.parametrize("r", [0.0, math.nan])
    def test_invalid_shape_rejected(self, r):
        with pytest.raises(DomainError):
            VgParams(r, 0.0, 1.0, 0.0)

    def test_nan_point_rejected(self):
        with pytest.raises(DomainError):
            vg_pdf(math.nan, VgParams(2.0, 0.0, 1.0, 0.0))

    @pytest.mark.parametrize("x", [math.inf, -math.inf])
    def test_infinite_point_has_zero_density(self, x):
        assert vg_pdf(x, VgParams(2.0, 0.3, 1.0, 0.0)) == 0.0

    @pytest.mark.parametrize("r", [2.0, 3.0, 11.0, 21.0, 401.0])
    @pytest.mark.parametrize("dev", [1e-9, 1e-30, 1e-100, 1e-200])
    def test_finite_next_to_location_for_large_shapes(self, r, dev):
        # for large r, K_nu(dev) overflows before (dev / 2)^nu cancels it
        params = VgParams(r, 0.0, 1.0, 0.0)
        peak = vg_pdf(0.0, params)
        # r = 2 is the Laplace law e^{-|x|} / 2: its kink shows at dev = 1e-9
        want = peak * math.exp(-dev) if r == 2.0 else peak
        for x in (dev, -dev):
            value = vg_pdf(x, params)
            assert math.isfinite(value)
            assert value == pytest.approx(want, rel=1e-12)


    @pytest.mark.parametrize("x", [1e-300, 5e-324])
    @pytest.mark.parametrize("r", [0.001, 1.0, 2.0, 3.0])
    def test_subnormal_distance_from_location(self, r, x):
        # leading terms of K_nu(z) as z -> 0, with log z formed from log x, so
        # nothing here rounds z = root * x / sigma^2 to a subnormal
        root = math.sqrt(0.3 ** 2 + 1.0)
        nu = 0.5 * (r - 1.0)
        if r < 1.0:
            # nu < 0: Gamma(-nu) (x / 2 sigma)^{2 nu} / (2 sigma sqrt(pi) Gamma(r/2))
            log_want = (math.lgamma(-nu) + 2 * nu * (math.log(x) - math.log(2.0))
                        - math.log(2.0 * math.sqrt(math.pi)) - math.lgamma(0.5 * r))
        elif r == 1.0:
            # K_0(z) = -log(z/2) - Euler's gamma, over pi sigma
            log_want = math.log(-(math.log(root) + math.log(x) - math.log(2.0)
                                  + np.euler_gamma) / math.pi)
        elif r == 2.0:
            log_want = -math.log(2.0 * root)               # e^{tilt - z} / (2 root)
        else:
            log_want = -math.log(math.pi * root * root)    # the x = mu limit
        params = VgParams(r, 0.3, 1.0, 0.0)
        if log_want > math.log(np.finfo(float).max):
            with pytest.raises(NumericRange):
                vg_pdf(x, params)
            return
        # z = root x / sigma^2 would keep ~1 bit here, 4% off; the density takes it
        # from x exactly, which the log-singular r = 1 feels (6e-5 off otherwise)
        assert vg_pdf(x, params) == pytest.approx(math.exp(log_want), rel=1e-12)

    @pytest.mark.parametrize("r", [1.0, 1.002, 2.0, 3.0])
    def test_distance_whose_z_underflows(self, r):
        # root x / sigma^2 = 5e-324 / 4 rounds to 0, yet x is not mu: the density
        # is mpmath's, not the r <= 1 singularity error or the x = mu limit
        x, params = 5e-324, VgParams(r, 0.0, 4.0, 0.0)
        nu = 0.5 * (r - 1.0)
        with mpmath.workdps(30):
            dev = mpmath.mpf(x)
            want = (mpmath.besselk(nu, dev / 4) * (dev / 8) ** nu
                    / (4 * mpmath.sqrt(mpmath.pi) * mpmath.gamma(0.5 * r)))
        assert vg_pdf(x, params) == pytest.approx(float(want), rel=1e-12)

    def test_density_terms_are_built_once_per_parameter_set(self, monkeypatch):
        built = []
        terms = VgParams._density_terms.func

        def counted(self):
            built.append(self)
            return terms(self)

        prop = functools.cached_property(counted)
        prop.__set_name__(VgParams, "_density_terms")
        monkeypatch.setattr(VgParams, "_density_terms", prop)
        first, second = VgParams(1.0, 0.3, 1.0, 0.0), VgParams(2.5, -0.2, 0.7, 1.0)
        for params in (first, second, first, second):
            for x in (-3.0, 0.5, 2.0, 40.0):
                vg_pdf(x, params)
        assert built == [first, second]


class TestMoments:
    def test_formulas(self):
        mean, var = vg_moments(VgParams(2.0, 0.5, 1.0, 3.0))
        assert mean == pytest.approx(3.0 + 2.0 * 0.5)
        assert var == pytest.approx(2.0 * (1.0 + 2 * 0.25))


class TestProductOfNormals:
    def test_parameter_map(self):
        params = product_normal_vg_params(2.0, 3.0, 0.5)
        assert params.r == 1.0
        assert params.theta == pytest.approx(0.5 * 6.0)
        assert params.sigma == pytest.approx(6.0 * math.sqrt(0.75))
        assert params.mu == 0.0

    def test_moments_of_product(self):
        # E(XY) = rho sx sy, Var(XY) = (1 + rho^2) sx^2 sy^2
        sx, sy, rho = 1.5, 0.7, -0.4
        mean, var = vg_moments(product_normal_vg_params(sx, sy, rho))
        assert mean == pytest.approx(rho * sx * sy)
        assert var == pytest.approx((1 + rho ** 2) * sx ** 2 * sy ** 2)

    def test_density_matches_mc_histogram_of_products(self):
        rho, t = 0.5, 4
        profile = CorrelationProfile("constant", (rho,))
        x, y = simulate_bm_batch(profile, TimeGrid(t), 29, reps=200000)
        z = x[:, t - 1] * y[:, t - 1] / t  # product of unit-variance normals
        params = product_normal_vg_params(1.0, 1.0, rho)
        edges = np.linspace(-4, 4, 33)
        counts, _ = np.histogram(z, bins=edges)
        # normalize by the full sample so out-of-range mass is not re-spread
        hist = counts / (z.size * np.diff(edges))
        centers = 0.5 * (edges[:-1] + edges[1:])
        dens = np.array([
            integrate.quad(lambda v: vg_pdf(v, params), lo, hi, limit=200)[0]
            / (hi - lo)
            for lo, hi in zip(edges[:-1], edges[1:])
        ])
        # bin-averaged density vs histogram, loose MC tolerance
        assert np.allclose(hist, dens, atol=0.012)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            product_normal_vg_params(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            product_normal_vg_params(1.0, 1.0, 1.5)
