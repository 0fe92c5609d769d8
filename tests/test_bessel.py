"""Modified Bessel function K_nu against independent references."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from dyncorr import DomainError, bessel_k


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
