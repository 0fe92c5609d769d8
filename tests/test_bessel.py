"""Modified Bessel function K_nu against independent references."""

import math
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from dyncorr import DomainError, bessel, bessel_k
from dyncorr.bessel import scaled_k_terms


class TestClosedForms:
    @pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 2.0, 5.0, 20.0])
    def test_half_integer_order(self, x):
        # K_{1/2}(x) = sqrt(pi / 2x) e^{-x}
        exact = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        assert bessel_k(0.5, x) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("x", [0.1, 1.0, 3.0, 10.0])
    def test_three_halves_order(self, x):
        # K_{3/2}(x) = sqrt(pi / 2x) e^{-x} (1 + 1/x)
        exact = math.sqrt(math.pi / (2 * x)) * math.exp(-x) * (1 + 1 / x)
        assert bessel_k(1.5, x) == pytest.approx(exact, rel=1e-13)


class TestReferenceValues:
    @pytest.mark.parametrize("nu", [0.0, 0.17, 0.5, 1.0, 2.3, 4.0, 5.0])
    @pytest.mark.parametrize("x", [1e-4, 0.1, 0.9, 2.0, 2.1, 7.0, 30.0])
    def test_matches_mpmath(self, nu, x):
        exact = float(mpmath.besselk(nu, x))
        assert bessel_k(nu, x) == pytest.approx(exact, rel=5e-13)

    @pytest.mark.parametrize("nu,x", [(0.3, 0.7), (1.2, 3.0), (2.0, 1.5)])
    def test_matches_integral_representation(self, nu, x):
        # K_nu(x) = int_0^inf e^{-x cosh u} cosh(nu u) du
        value, _ = integrate.quad(
            lambda u: math.exp(-x * math.cosh(u)) * math.cosh(nu * u), 0, 30
        )
        assert bessel_k(nu, x) == pytest.approx(value, rel=1e-10)


class TestRecurrenceAndDomain:
    def test_upward_recurrence_consistency(self):
        # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
        for nu, x in [(1.0, 0.8), (2.5, 4.0)]:
            lhs = bessel_k(nu + 1, x)
            rhs = bessel_k(nu - 1, x) + 2 * nu / x * bessel_k(nu, x)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_monotone_decreasing_in_x(self):
        values = [bessel_k(1.0, x) for x in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("nu,x", [
        (1.0, 0.0), (1.0, -1.0), (-0.5, 1.0),
        (0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (math.inf, 1.0), (2e4, 1.0),
    ])
    def test_domain_errors(self, nu, x):
        with pytest.raises(DomainError):
            bessel_k(nu, x)

    def test_dense_grid_precision(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(200):
            nu = rng.uniform(0, 5)
            x = 10 ** rng.uniform(-5, 1.6)
            exact = float(mpmath.besselk(nu, x))
            rel = abs(bessel_k(nu, x) - exact) / abs(exact)
            worst = max(worst, rel)
        assert worst < 1e-12

    def test_wide_range_precision(self):
        # nu up to 200 and x over 305 decades, wherever e^x K_nu(x) is below 1e300
        rng = np.random.default_rng(0)
        worst, checked = 0.0, 0
        with mpmath.workdps(30):
            for _ in range(3000):
                nu = rng.uniform(0, 200)
                x = 10 ** rng.uniform(-300, 5)
                exact = mpmath.besselk(nu, x) * mpmath.exp(x)
                if exact >= 1e300:
                    continue
                checked += 1
                rel = abs(bessel_k(nu, x, scaled=True) - exact) / exact
                worst = max(worst, float(rel))
        assert checked > 50
        assert worst < 1e-13


def _untabulated(nu, x, h):
    """The trapezoid sum at step h, written out."""
    lo = min(2.0 * math.asinh(math.sqrt(20.0) / math.sqrt(x)), 40.0 / nu)
    hi = (math.log(x + 2.0 * nu) - math.log(x)
          + 2.0 * math.asinh(math.sqrt(20.0) / math.sqrt(math.hypot(x, nu))))
    half_t = (0.5 * h) * np.arange(-math.ceil(lo / h), math.ceil(hi / h) + 1)
    c = math.sqrt(2.0 * x) if x < 1.0 else 2.0 * math.sqrt(0.5 * x)
    a = (2.0 * nu) * half_t - (c * np.sinh(half_t)) ** 2
    m = float(a.max()) if nu * hi > 700.0 else 0.0
    return m, 0.5 * h * float(np.exp(a - m).sum())


class TestTrapezoid:
    def test_every_rung_is_bitwise_the_untabulated_sum(self):
        # rung j of the step rule serves hypot(x, nu) in (6.25 2^((j-1)/2), 6.25
        # 2^(j/2)] (rung 0 from 0) with step h_j = 0.2 2^(-j/4); nu = 1e4, the
        # largest order accepted, is on rung 22
        rng = np.random.default_rng(5)
        # (nu, x, rung): tiny x widens the grid; at nu = 1e4 with x = 5e-324
        # it reaches |t/2| = 377, where sinh(t/2) is still finite (an overflow
        # warning is an error in the tests)
        cases = [(1e4, 1e-300, 22), (1e4, 5e-324, 22), (5.0, 1e-300, 0), (0.5, 1.0, 0),
                 (6.25, 1e-9, 0), (0.5, 1e-310, 0), (3.0, 1e-200, 0), (50.0, 1e-3, 7)]
        for j in range(23):
            low = 6.25 * 2 ** ((j - 1) / 2) if j else 0.0
            high = min(6.25 * 2 ** (j / 2), 1e4)
            for _ in range(12):
                rho = rng.uniform(low + 1e-9 * high, high * (1.0 - 1e-9))
                phi = rng.uniform(0.0, math.pi / 2)
                cases.append((rho * math.cos(phi), rho * math.sin(phi), j))
                # x far below nu: hypot(x, nu) = nu
                cases.append((rho, 10 ** -rng.uniform(10, 300), j))
        for nu, x, j in cases:
            want = _untabulated(nu, x, 0.2 * 2.0 ** (-j / 4))
            assert bessel._trapezoid(nu, x) == want, (nu, x, j)

    def test_rung_boundaries_match_mpmath(self):
        # just below and just above hypot(x, nu) = 6.25 2^(j/2), rungs j and j + 1
        rng = np.random.default_rng(12)
        worst = 0.0
        with mpmath.workdps(30):
            for j in range(13):
                for side in (1.0 - 1e-9, 1.0 + 1e-9):
                    rho = 6.25 * 2 ** (j / 2) * side
                    for phi in rng.uniform(0.0, math.pi / 2, 4):
                        nu, x = rho * math.cos(phi), rho * math.sin(phi)
                        exact = mpmath.besselk(nu, x) * mpmath.exp(x)
                        rel = abs(bessel_k(nu, x, scaled=True) - exact) / exact
                        worst = max(worst, float(rel))
        assert worst < 1e-13

    def test_shifted_argument_is_the_same_sum(self):
        # X = x 2^-shift carried exactly: a normal X gives the unshifted terms
        for nu, x in [(0.0, 1e-3), (0.5, 2.0), (3.0, 1e-200), (40.0, 7.0)]:
            assert scaled_k_terms(nu, math.ldexp(x, 128), 128) == scaled_k_terms(nu, x)

    @pytest.mark.parametrize("nu, x", [
        (1100.0, 725.0),   # e^m overflowed alone: was inf
        (1200.0, 730.0),   # was inf
        (1e4, 800.0),      # K above the double range: was nan, from inf * e^-800 = inf * 0
    ])
    def test_unscaled_large_order_matches_mpmath(self, nu, x):
        with mpmath.workdps(30):
            exact = mpmath.besselk(nu, x)
        got = bessel_k(nu, x)
        if exact > sys.float_info.max:
            assert got == math.inf
        else:
            assert got == pytest.approx(float(exact), rel=1e-12)


def _k0_exact(X):
    with mpmath.workdps(30):
        return mpmath.besselk(0, X) * mpmath.exp(X)


def _rel(got, exact):
    return float(abs(got - exact) / exact)


class TestOrderZero:
    """e^x K_0(x), the product-normal density's order, by series and piece table."""

    def test_every_piece_at_its_centre_and_ends(self):
        # piece k spans s = 2/X - 1 in [-1 + k/32, -1 + (k + 1)/32], X in [64/(k + 1), 64/k]
        assert len(bessel.K0_PIECES) == 64
        for k, (c, *coefficients) in enumerate(bessel.K0_PIECES):
            assert c == -1.0 + (2 * k + 1) / 64 and len(coefficients) == 7
            ends = (64 / (k + 1), 1e300 if k == 0 else 64 / k)
            for X in (2.0 / (c + 1.0), *ends):
                assert _rel(bessel.k0_scaled(X), _k0_exact(X)) < 1e-15, (k, X)

    @pytest.mark.parametrize("k", range(1, 64))
    def test_either_side_of_each_join(self, k):
        X = 64 / k
        for x in (math.nextafter(X, 0.0), X, math.nextafter(X, math.inf)):
            assert _rel(bessel.k0_scaled(x), _k0_exact(x)) < 1e-15, x

    @pytest.mark.parametrize("x", [1.0, math.nextafter(1.0, 0.0), 1e5, 1e300])
    def test_split_and_far_tail(self, x):
        # X = 1 takes the clamp to piece 63 (s = 1); just below it, the series
        assert _rel(bessel.k0_scaled(x), _k0_exact(x)) < 1e-15

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_domain_error(self, x):
        with pytest.raises(DomainError, match="bessel_k requires finite x > 0"):
            bessel.k0_scaled(x)

    def test_is_the_order_zero_of_every_entry_point(self):
        for x, shift in [(0.3, 0), (1.0, 0), (7.5, 0), (1e5, 0), (math.ldexp(1e-310, 128), 128)]:
            got = bessel.k0_scaled(x, shift)
            assert scaled_k_terms(0.0, x, shift) == (0.0, got)
            if not shift:
                assert bessel_k(0.0, x, scaled=True) == got

    def test_wide_range_against_mpmath(self):
        rng = np.random.default_rng(20)
        xs = list(10 ** rng.uniform(-300, 5, 1800))
        xs += [1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 5e-324, 1e-310]
        # below the normal range through vg_pdf's 2^128 shift: X = x 2^-128
        # is the exact argument, which no double holds to full precision
        shifted = list(10 ** (rng.uniform(-323.5, -308, 200) + 128 * math.log10(2.0)))
        worst = 0.0
        with mpmath.workdps(30):
            for x, shift in [(x, 0) for x in xs] + [(x, 128) for x in shifted]:
                X = mpmath.ldexp(mpmath.mpf(x), -shift)
                exact = mpmath.besselk(0, X) * mpmath.exp(X)
                m, s = scaled_k_terms(0.0, x, shift)
                assert m == 0.0
                worst = max(worst, float(abs(s - exact) / exact))
        assert worst < 2e-15

    def test_dense_grid_against_scipy(self):
        # an independent double-precision reference, itself within ~1.2e-15
        xs = np.concatenate([np.linspace(1e-6, 60.0, 6001), np.geomspace(1e-300, 1e5, 2001)])
        got = np.array([scaled_k_terms(0.0, float(x))[1] for x in xs])
        np.testing.assert_allclose(got, special.k0e(xs), rtol=4e-15, atol=0.0)
