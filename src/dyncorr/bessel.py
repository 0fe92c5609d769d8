"""Modified Bessel function of the second kind, K_nu(x).

At nu = 0, the order of the product-normal density, e^x K_0(x) is a fixed
cost in Python float arithmetic, with no numpy call: below x = 1 the series

    K_0(x) = sum_k H_k (x^2/4)^k / (k!)^2 - (ln(x/2) + gamma) I_0(x),

I_0(x) = sum_k (x^2/4)^k / (k!)^2, H_k = 1 + 1/2 + ... + 1/k, to k = 10,
where the next term is below 1e-19 of the sum (every term is positive
there); from x = 1 on, 32 Chebyshev coefficients of sqrt(x) e^x K_0(x) in
s = 2/x - 1, summed by Clenshaw's recurrence.  The coefficients come from
mpmath (1.3.0) at 40 digits, interpolating at the 128 Chebyshev nodes:

    f = lambda s: (lambda x: sqrt(x) * exp(x) * besselk(0, x))(2 / (s + 1))
    nodes = [cos(pi * (j + 0.5) / 128) for j in range(128)]
    c_k = 2/128 sum_j f(nodes[j]) cos(pi k (j + 0.5) / 128),  c_0 halved

and they fall by about 2.3 a step, so the first dropped one, c_32, is 1e-17.
Relative error is below 2e-15 against mpmath for x in [5e-324, 1e5] (4.9e-16
the worst of 1800 points log-uniform over x in [1e-300, 1e5] and 200 shifted
subnormal ones).  A call costs 1.0-1.2 us below the split and 1.7 us above
it, whatever x, against 5 us for the trapezoid below at nu = 0 and 18 us at
x = 1e-300 (Python 3.11.7, 2-core VM).  Below the normal range the caller
may pass x 2^shift: the logarithm is then formed from that exact x, and a
normal X = x 2^-shift gives bitwise the unshifted terms.

For nu > 0 the trapezoid rule is the only method: e^x K_nu(x) = 1/2 int
exp(nu t - 2x sinh^2(t/2)) dt over the real line, and the rule converges
geometrically on this double-exponentially decaying integrand.  Step: the
largest rung of the ladder h_j = 0.2 2^(-j/4) not above min(0.2, 1 / (2
sqrt(hypot(x, nu)))), half the peak width; rung 0, h = 0.2, serves every
hypot(x, nu) <= 6.25.  The grid ends where the exponent is 40 below its
peak.  Each rung's nodes t/2 = k h/2 and sinh(t/2) are tabulated once,
read-only, and grown on demand, so a call is a slice, y = sqrt(2x)
sinh(t/2), the exponent nu t - y^2, one exp and one sum, each a numpy call
on a few dozen nodes.  A node is the same number in a table of any size, so
on rung 0 the result is bitwise that of the untabulated sum with step 0.2.
Relative error is below 1e-13 against arbitrary-precision references for
nu in [0, 200], x in [1e-300, 1e5] wherever e^x K_nu(x) < 1e300; spot checks
up to nu = 1e4 (the largest accepted: the grid grows as sqrt(nu)) give ~1e-13.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError

_LOG_MAX = 709.78   # e^m overflows a double above this
_LN2 = math.log(2.0)
_ROOT20 = math.sqrt(20.0)
_TINY = sys.float_info.min   # the smallest normal double
_EULER = 0.5772156649015329  # Euler's gamma

# (1/(k!)^2, H_k/(k!)^2) for k = 10 down to 0, Horner's order for I_0 and the
# H_k sum: each a quotient of exact integers (H_k k! = sum_j k!/j), so
# correctly rounded
_K0_SERIES = tuple(
    (1 / math.factorial(k) ** 2,
     sum(math.factorial(k) // j for j in range(1, k + 1)) / math.factorial(k) ** 3)
    for k in range(10, -1, -1)
)

# Chebyshev coefficients c_0..c_31 of sqrt(x) e^x K_0(x) in 2/x - 1, c_0
# halved (see the module docstring)
_K0_CHEB = (
    1.1944330762167386, -0.053855323307629495, 0.004362000068251702,
    -0.0005521270349863234, 8.959565555755952e-05, -1.7138726856421186e-05,
    3.695146089045472e-06, -8.737284518980525e-07, 2.225046272255236e-07,
    -6.025216756376064e-08, 1.7186668629418083e-08, -5.1272057810909205e-09,
    1.5907351467912106e-09, -5.10958325791419e-10, 1.6929517419961088e-10,
    -5.7683063818637606e-11, 2.0159542597761383e-11, -7.210940065346495e-12,
    2.6349075982806445e-12, -9.819576891759296e-13, 3.72695818784577e-13,
    -1.4388149744180521e-13, 5.6436532735816866e-14, -2.2469288334596896e-14,
    9.072046991627365e-15, -3.711589997838162e-15, 1.537582290719742e-15,
    -6.445464362724762e-16, 2.7324144482527955e-16, -1.1707837700385628e-16,
    5.067869397943657e-17, -2.215087912714289e-17,
)
_K0_CHEB_DOWN = _K0_CHEB[:0:-1]   # c_31..c_1, Clenshaw's order

# rung j -> (K, t/2, sinh(t/2)) at t = k h_j for k = -K..K.  A cache, not
# state: a node's value does not depend on how far its table has grown.
_NODES: dict = {}


def _nodes(j: int, h: float, lo: int, hi: int):
    """Rung ``j``'s read-only ``(K, t/2, sinh(t/2))`` at ``t = k h`` for
    ``k = -K..K``, grown to at least twice its extent when ``lo`` or ``hi``
    exceeds ``K``; the caller slices the nodes ``-lo..hi`` it needs."""
    K, half_t, sinh_half = entry = _NODES.get(j, (-1, None, None))
    if max(lo, hi) > K:
        # stop doubling at |t/2| = 700, where sinh(t/2) would soon overflow;
        # no grid reaches |t/2| = 380
        K = max(lo, hi, min(2 * K, int(1400.0 / h)))
        half_t = (0.5 * h) * np.arange(-K, K + 1)
        sinh_half = np.sinh(half_t)
        sinh_half[:K] = -sinh_half[:K:-1]   # exactly odd, whatever the platform's sinh
        half_t.setflags(write=False)
        sinh_half.setflags(write=False)
        _NODES[j] = entry = K, half_t, sinh_half
    return entry


def scaled_k_terms(nu: float, x: float, shift: int = 0) -> tuple[float, float]:
    """(m, s) with e^X K_nu(X) = s e^m at X = x 2^-shift; both stay finite
    where K overflows.  An even ``shift`` carries an X below the normal range
    exactly, so the terms it sets are not rounded to a few bits.

    :class:`DomainError` unless 0 < x < inf and 0 <= nu <= 1e4.
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"bessel_k requires finite x > 0, got {x!r}")
    if not 0.0 <= nu <= 1e4:
        raise DomainError(f"bessel_k requires 0 <= nu <= 1e4, got {nu!r} (K is even in nu)")
    return _trapezoid(nu, x, shift) if nu else (0.0, _k0_scaled(x, shift))


def _k0_scaled(x: float, shift: int) -> float:
    """e^X K_0(X) at X = x 2^-shift: the series below X = 1, the Chebyshev
    sum from there on (see the module docstring)."""
    X = math.ldexp(x, -shift)
    if X < 1.0:
        y = 0.25 * X * X
        i0 = h = 0.0
        for c_i, c_h in _K0_SERIES:
            i0 = i0 * y + c_i
            h = h * y + c_h
        # ln X from the exact x where X is rounded; a normal X is exact
        log_x = math.log(X) if X >= _TINY else math.log(x) - shift * _LN2
        return math.exp(X) * (h - (log_x - _LN2 + _EULER) * i0)
    s = 2.0 / X - 1.0
    s2 = s + s
    b1 = b2 = 0.0
    for c in _K0_CHEB_DOWN:
        b1, b2 = s2 * b1 - b2 + c, b1
    return (_K0_CHEB[0] + s * b1 - b2) / math.sqrt(X)


def _trapezoid(nu: float, x: float, shift: int = 0) -> tuple[float, float]:
    """:func:`scaled_k_terms` by the tabulated trapezoid rule, for checked
    arguments: every ``nu > 0``, and ``nu = 0`` in the tests of the tables."""
    X = math.ldexp(x, -shift)   # rounded (or 0) under a shift: it picks the rung only
    rho = math.hypot(X, nu)
    j = math.ceil(2.0 * math.log2(rho / 6.25)) if rho > 6.25 else 0
    h = 0.2 * 2.0 ** (-0.25 * j)
    # ends: x (cosh t - 1) = 40 at 2 asinh(sqrt(20/x)); nu t = -40; peak below log(1 + 2nu/x)
    root_x = math.ldexp(math.sqrt(x), -shift // 2)   # sqrt(X), exact
    reach = 2.0 * math.asinh(_ROOT20 / root_x)
    if nu:
        lo = min(reach, 40.0 / nu)
        hi = (2.0 * math.asinh(_ROOT20 / math.sqrt(rho))
              + (math.log(X + 2.0 * nu) - (math.log(x) - shift * _LN2)))
    else:   # rho = X and the peak sits at t = 0; X itself may be 0 here
        lo = hi = reach
    k_lo, k_hi = math.ceil(lo / h), math.ceil(hi / h)
    K, half_t, sinh_half = _nodes(j, h, k_lo, k_hi)
    nodes = slice(K - k_lo, K + k_hi + 1)
    # 2x sinh^2(t/2) as (sqrt(2x) sinh(t/2))^2: finite at tiny x; 2x and x/2 are exact
    c = math.ldexp(math.sqrt(2.0 * x) if x < 1.0 else 2.0 * math.sqrt(0.5 * x), -shift // 2)
    y = np.multiply(sinh_half[nodes], c)
    a = np.subtract((2.0 * nu) * half_t[nodes], np.multiply(y, y, y), y)   # nu t - y^2
    m = float(a.max()) if nu * hi > 700.0 else 0.0   # max a < nu hi: else no overflow
    if m:
        a -= m
    return m, 0.5 * h * float(np.add.reduce(np.exp(a, a)))


def bessel_k(nu: float, x: float, scaled: bool = False) -> float:
    """K_nu(x) for finite x > 0, 0 <= nu <= 1e4; ``scaled`` returns e^x K_nu(x),
    which stays representable for large x, where K itself underflows."""
    m, s = scaled_k_terms(nu, x)
    value = s * math.exp(m) if m < _LOG_MAX else math.inf
    return value if scaled else value * math.exp(-x)
