"""Modified Bessel function of the second kind, K_nu(x), by the trapezoid rule.

e^x K_nu(x) = 1/2 int exp(nu t - 2x sinh^2(t/2)) dt over the real line, and
the trapezoid rule converges geometrically on this double-exponentially
decaying integrand.  Step: 0.2, or half the peak width 1/sqrt(hypot(x, nu))
if narrower; the grid ends where the exponent is 40 below its peak.
Relative error is below 1e-13 against arbitrary-precision references for
nu in [0, 200], x in [1e-300, 1e5] wherever e^x K_nu(x) < 1e300; spot checks
up to nu = 1e4 (the largest accepted: the grid grows as sqrt(nu)) give ~1e-13.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_LOG_MAX = 709.78   # e^m overflows a double above this


def scaled_k_terms(nu: float, x: float) -> tuple[float, float]:
    """(m, s) with e^x K_nu(x) = s e^m; both stay finite where K overflows."""
    rho = math.hypot(x, nu)
    h = min(0.2, 0.5 / math.sqrt(rho))
    # ends: x (cosh t - 1) = 40 at 2 asinh(sqrt(20/x)); nu t = -40; peak below log(1 + 2nu/x)
    root20 = math.sqrt(20.0)
    lo = min(2.0 * math.asinh(root20 / math.sqrt(x)), 40.0 / nu if nu else math.inf)
    hi = math.log(x + 2.0 * nu) - math.log(x) + 2.0 * math.asinh(root20 / math.sqrt(rho))
    half_t = (0.5 * h) * np.arange(-math.ceil(lo / h), math.ceil(hi / h) + 1)
    # 2x sinh^2(t/2) as (sqrt(2x) sinh(t/2))^2: finite at tiny x; 2x and x/2 are exact
    c = math.sqrt(2.0 * x) if x < 1.0 else 2.0 * math.sqrt(0.5 * x)
    a = (2.0 * nu) * half_t - (c * np.sinh(half_t)) ** 2
    m = float(a.max()) if nu * hi > 700.0 else 0.0   # max a < nu hi: else no overflow
    if m:
        a -= m
    return m, 0.5 * h * float(np.exp(a).sum())


def bessel_k(nu: float, x: float, scaled: bool = False) -> float:
    """K_nu(x) for finite x > 0, 0 <= nu <= 1e4; ``scaled`` returns e^x K_nu(x),
    which stays representable for large x, where K itself underflows."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"bessel_k requires finite x > 0, got {x!r}")
    if not 0.0 <= nu <= 1e4:
        raise DomainError(f"bessel_k requires 0 <= nu <= 1e4, got {nu!r} (K is even in nu)")
    m, s = scaled_k_terms(nu, x)
    value = s * math.exp(m) if m < _LOG_MAX else math.inf
    return value if scaled else value * math.exp(-x)
