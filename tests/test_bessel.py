"""Modified Bessel function K_nu against independent references."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

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


def _untabulated(nu, x):
    """The trapezoid sum at step 0.2, written out with fresh nodes."""
    h = 0.2
    lo = min(2.0 * math.asinh(math.sqrt(20.0) / math.sqrt(x)), 40.0 / nu if nu else math.inf)
    hi = (math.log(x + 2.0 * nu) - math.log(x)
          + 2.0 * math.asinh(math.sqrt(20.0) / math.sqrt(math.hypot(x, nu))))
    half_t = (0.5 * h) * np.arange(-math.ceil(lo / h), math.ceil(hi / h) + 1)
    c = math.sqrt(2.0 * x) if x < 1.0 else 2.0 * math.sqrt(0.5 * x)
    a = (2.0 * nu) * half_t - (c * np.sinh(half_t)) ** 2
    m = float(a.max()) if nu * hi > 700.0 else 0.0
    return m, 0.5 * h * float(np.exp(a - m).sum())


class TestNodeTables:
    # calls that grow the tables: tiny x widens rung 0, nu = 1e4 rung 22; the
    # second of each pair doubles a table past |t/2| = 355, where sinh would
    # overflow at the next node beyond 710 without the cap
    WIDE = [(0.0, 1e-310), (0.0, 5e-324), (1e4, 1e-300), (1e4, 5e-324)]
    NARROW = [(0.0, 1.0), (0.0, 5.0), (2.5, 0.3), (0.0, 1e4), (3.0, 100.0), (50.0, 1e-3)]

    @pytest.fixture
    def fresh(self, monkeypatch):
        """Empty tables for the test; the module's tables come back after it."""
        monkeypatch.setattr(bessel, "_NODES", {})

    def test_rung_zero_is_bitwise_the_untabulated_sum(self, fresh):
        rng = np.random.default_rng(5)
        cases = [(0.0, 1e-300), (0.0, 5e-324), (5.0, 1e-300), (0.5, 1.0), (6.25, 1e-9)]
        for _ in range(300):
            rho = 6.25 * rng.uniform() ** 0.5
            phi = rng.uniform(0.0, math.pi / 2)
            nu, x = rho * math.cos(phi), rho * math.sin(phi) * 10 ** -rng.uniform(0, 300)
            cases.append((0.0 if rng.uniform() < 0.2 else nu, x))
        for _ in range(2):   # fresh tables, then tables grown by every case
            for nu, x in cases:
                assert scaled_k_terms(nu, x) == _untabulated(nu, x), (nu, x)
        assert set(bessel._NODES) == {0}

    def test_rung_boundaries_match_mpmath(self, fresh):
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
        assert set(bessel._NODES) == set(range(14))
        # rung j, serving hypot(x, nu) up to 6.25 2^(j/2), steps 1 / (2 sqrt(that))
        for j, (K, half_t, _) in bessel._NODES.items():
            assert 2.0 * half_t[K + 1] == pytest.approx(0.2 * 2 ** (-j / 4), rel=1e-15)
        assert worst < 1e-13

    def test_tables_are_read_only(self, fresh):
        for nu, x in self.WIDE + self.NARROW:
            scaled_k_terms(nu, x)
        for _, half_t, sinh_half in bessel._NODES.values():
            for arr in (half_t, sinh_half):
                with pytest.raises(ValueError):
                    arr[...] = 0.0

    def test_grown_tables_give_fresh_values(self, monkeypatch):
        calls = self.NARROW + self.WIDE
        want = []
        for nu, x in calls:
            monkeypatch.setattr(bessel, "_NODES", {})
            want.append(scaled_k_terms(nu, x))
        monkeypatch.setattr(bessel, "_NODES", {})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for nu, x in self.WIDE:
                scaled_k_terms(nu, x)
            got = [scaled_k_terms(nu, x) for nu, x in calls]
        assert got == want
        for K, half_t, sinh_half in bessel._NODES.values():
            assert np.isfinite(sinh_half).all()
            assert np.abs(half_t).max() <= 700.0

    def test_shifted_argument_is_the_same_sum(self):
        # X = x 2^-shift carried exactly: a normal X gives the unshifted terms
        for nu, x in [(0.0, 1e-3), (0.5, 2.0), (3.0, 1e-200), (40.0, 7.0)]:
            assert scaled_k_terms(nu, math.ldexp(x, 128), 128) == scaled_k_terms(nu, x)
