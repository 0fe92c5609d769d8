"""Variance-gamma density, moments and the product-of-normals map."""

import functools
import math
import re
import sys

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
from dyncorr.bessel import scaled_k_terms

PARAM_SETS = [
    VgParams(1.0, 0.0, 1.0, 0.0),
    VgParams(1.0, 0.5, 0.8, 0.0),
    VgParams(2.0, -0.3, 1.2, 0.5),
    VgParams(3.5, 0.2, 0.5, -1.0),
    VgParams(0.7, 0.1, 1.5, 2.0),
    VgParams(5.0, 1.0, 2.0, 0.0),
]


def _mp_density(x, r, theta, sigma, dps):
    """The VG(r, theta, sigma, 0) density at x != 0 in mpmath at ``dps`` digits."""
    with mpmath.workdps(dps):
        x_, theta_, sigma_ = map(mpmath.mpf, (x, theta, sigma))
        nu = mpmath.mpf(r - 1) / 2
        root = mpmath.sqrt(theta_ ** 2 + sigma_ ** 2)
        return float(mpmath.exp(theta_ * x_ / sigma_ ** 2)
                     * mpmath.besselk(nu, root * abs(x_) / sigma_ ** 2)
                     * (abs(x_) / (2 * root)) ** nu
                     / (sigma_ * mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(r) / 2)))


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

    def test_negative_scale_rejected(self):
        with pytest.raises(DomainError, match="scale sigma must be >= 0"):
            VgParams(1.0, 0.0, -0.5, 0.0)

    @pytest.mark.parametrize("r", [0.0, math.nan])
    def test_invalid_shape_rejected(self, r):
        with pytest.raises(DomainError):
            VgParams(r, 0.0, 1.0, 0.0)

    # the error printed the whole VgParams(...) instead of naming the parameter
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["r", "theta", "sigma", "mu"])
    def test_parameter_must_be_finite(self, name, value):
        fields = {**dict(r=1.0, theta=0.0, sigma=1.0, mu=0.0), name: value}
        with pytest.raises(DomainError, match=f"^{name} must be finite, got {value!r}$"):
            VgParams(**fields)

    @pytest.mark.parametrize("x", [0.0, 1e-30, -1e-30, 1.0, 40.0, math.inf, math.nan])
    def test_shape_beyond_bessel_range_rejected_at_every_point(self, x):
        # nu = (r - 1)/2 > 1e4: one error naming r, also where the x = mu limit
        # would have answered without K_nu
        with pytest.raises(DomainError, match=r"r <= 20001.*got r=30001\.0"):
            vg_pdf(x, VgParams(30001.0, 0.0, 1.0, 0.0))

    def test_largest_shape_has_a_density(self):
        params = VgParams(20001.0, 0.0, 1.0, 0.0)
        assert vg_pdf(1.0, params) == pytest.approx(vg_pdf(1e-30, params), rel=1e-4)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    @pytest.mark.parametrize("x", [float("nan"), np.float64("nan")], ids=["float", "float64"])
    def test_nan_point_rejected(self, x, r):
        with pytest.raises(DomainError, match="density undefined at x = nan"):
            vg_pdf(x, VgParams(r, 0.3, 1.0, 0.0))

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

    def test_product_normal_order_is_the_general_log_space_form(self):
        # at r = 1 vg_pdf reads k0_scaled's table piece in place from z = 1 on and
        # calls k0_scaled below it: the general form's nu (log z - shift ln 2) and
        # m terms are zeros there, so both agree bitwise
        def general(x, params):
            nu, scale, tilt_scale, tilt_decay, log_norm = params._density_terms
            dev = abs(x - params.mu)
            z = scale * dev
            if z == math.inf:
                return 0.0
            tilt = tilt_scale * (x - params.mu)
            shift = 128 if z < sys.float_info.min else 0
            z_scaled = scale * math.ldexp(dev, shift)
            m, s = scaled_k_terms(nu, z_scaled, shift)
            log_value = ((dev * tilt_decay if tilt > 0.0 else tilt - z) + log_norm
                         + nu * (math.log(z_scaled) - shift * math.log(2.0)) + m + math.log(s))
            return 0.0 if log_value <= -745.0 else math.exp(log_value)

        rng = np.random.default_rng(23)
        cases = []
        for t in (5, 20, 100, 500):   # the benchmark's product-normal points
            for rho in (0.5, 0.3, -0.7, 0.95):
                params = product_normal_vg_params(math.sqrt(t), math.sqrt(t), rho)
                cases += [(float(x), params) for x in t * rng.uniform(-10.0, 10.0, 250)]
        # deviations whose z is subnormal (the 2^128 shift), and far tails at 0
        params = VgParams(1.0, 0.3, 1.0, 0.0)
        devs = 10 ** rng.uniform(-323.5, -308.0, 200)
        cases += [(d, params) for d in devs] + [(-d, params) for d in devs]
        # z one ulp either side of every piece edge 64/k, z = 1 among them (the
        # series below it, the clamp of k = 64 to piece 63 at it): theta = 0 and
        # sigma = 1 make z = |x| exactly
        params = VgParams(1.0, 0.0, 1.0, 0.0)
        assert params._density_terms[1] == 1.0
        for k in range(1, 65):
            edge = 64 / k
            for z in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
                cases += [(z, params), (-z, params)]
        params = VgParams(1.0, -0.4, 2.0, 0.25)
        cases += [(x, params) for x in (-3e3, 3e3, 1e300, -1e300, math.inf, -math.inf)]
        for x, params in cases:
            want = general(x, params)
            got = vg_pdf(x, params)
            assert got.hex() == want.hex(), (x, params)
        assert vg_pdf(math.inf, params) == vg_pdf(-1e300, params) == 0.0
        with pytest.raises(DomainError, match="singular at x = mu"):
            vg_pdf(params.mu, params)

    @pytest.mark.parametrize("theta, sigma", [
        (0.3, 1e-300),   # sigma^2 = 0: was a ZeroDivisionError
        (0.3, 1e-155),   # subnormal sigma^2, root / sigma^2 = inf: was 0.0 at every x
        (0.3, 1e-154),   # subnormal sigma^2, a few bits of it
        (0.3, 1e155),    # sigma^2 = inf: was a DomainError from K_0 of nan
        (1e10, 1e-150),  # root / sigma^2 = inf
    ])
    def test_scale_outside_the_double_range_is_named(self, theta, sigma):
        params = VgParams(1.0, theta, sigma, 0.0)
        for x in (1.0, -1.0, 0.0):
            with pytest.raises(NumericRange, match=re.escape(f"sigma={sigma!r}")):
                vg_pdf(x, params)

    @pytest.mark.parametrize("x, r, theta, sigma", [
        (2e-150, 1.0, -3e-151, 1e-150),
        (-1e-150, 3.5, 2e-150, 1e-150),
        (1.0, 1.0, 0.3, 1e150),
        (-2e150, 3.5, 3e149, 1e150),
        # theta^2 overflows, root = hypot(theta, sigma) does not: was NumericRange
        (1.0, 1.0, 1e160, 1e150),
        (1e-150, 3.5, 1e160, 1e150),
    ])
    def test_extreme_scales_inside_the_range_match_mpmath(self, x, r, theta, sigma):
        # exp of a log near +-345 keeps about 1e-13
        want = _mp_density(x, r, theta, sigma, 40)
        assert vg_pdf(x, VgParams(r, theta, sigma, 0.0)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("x", [1e-300, 5e-324])
    def test_tiny_scale_next_to_the_location_matches_mpmath(self, x, r):
        # root / sigma^2 = 1e-150: z = 1e-150 |x| stays below the normal range
        # even 2^128 larger, which raised DomainError (bessel_k at x = 0.0)
        want = _mp_density(x, r, 0.0, 1e150, 40)
        assert vg_pdf(x, VgParams(r, 0.0, 1e150, 0.0)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("sigma", [1e-3, 1e-6, 1e-8])
    @pytest.mark.parametrize("x, r, theta", [
        (1.0, 1.0, 0.3), (3.0, 1.0, 0.3), (-1.0, 1.0, -0.3), (1.0, 2.0, 0.3), (1.0, 3.5, 0.3),
    ])
    def test_small_scale_where_the_tilt_meets_the_decay(self, x, r, theta, sigma):
        # theta (x - mu) > 0: tilt - z = (|theta| - root) dev / sigma^2 is formed
        # as -dev / (|theta| + root); the difference lost 2e-5 at sigma = 1e-6.
        # The reference cancels e^{3e15} against K_0 at sigma = 1e-8: 50 digits
        # are not enough there
        want = _mp_density(x, r, theta, sigma, 80)
        assert vg_pdf(x, VgParams(r, theta, sigma, 0.0)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("x", [0.5, 1.0, 4.0])
    def test_vanishing_scale_is_the_scaled_chi_square(self, x):
        # as sigma -> 0, VG(1, theta, sigma, 0) tends to theta chi^2_1, whose
        # density at x is e^{-x / 2 theta} / sqrt(2 pi theta x); at sigma = 1e-150
        # the two differ by O(sigma^2).  Was 0.728 at x = 1
        theta = 0.3
        want = math.exp(-x / (2.0 * theta)) / math.sqrt(2.0 * math.pi * theta * x)
        params = VgParams(1.0, theta, 1e-150, 0.0)
        assert vg_pdf(x, params) == pytest.approx(want, rel=1e-12)
        assert vg_pdf(-x, params) == 0.0

    @pytest.mark.parametrize("r", [1.5, 3.0, 21.0])
    def test_location_limit_where_theta_squared_overflows(self, r):
        # the x = mu limit Gamma(nu) (sigma^2 / root^2)^nu / (2 sigma sqrt(pi)
        # Gamma(r/2)), with root = hypot(1e160, 1e150): theta^2 is not formed
        theta, sigma = 1e160, 1e150
        with mpmath.workdps(40):
            nu = mpmath.mpf(r - 1) / 2
            ratio = mpmath.mpf(sigma) ** 2 / (mpmath.mpf(theta) ** 2 + mpmath.mpf(sigma) ** 2)
            want = float(mpmath.gamma(nu) * ratio ** nu
                         / (2 * sigma * mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(r) / 2)))
        assert vg_pdf(0.0, VgParams(r, theta, sigma, 0.0)) == pytest.approx(want, rel=1e-12)

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

    # a NaN argument passed the range checks and was blamed on theta
    @pytest.mark.parametrize("args, name", [((math.nan, 1.0, 0.5), "sigma_x"),
                                            ((1.0, math.inf, 0.5), "sigma_y"),
                                            ((1.0, 1.0, math.nan), "rho")])
    def test_non_finite_argument_is_named(self, args, name):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            product_normal_vg_params(*args)
