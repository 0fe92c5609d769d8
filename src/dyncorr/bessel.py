"""Modified Bessel function of the second kind, K_nu(x), by the trapezoid rule.

e^x K_nu(x) = 1/2 int exp(nu t - 2x sinh^2(t/2)) dt over the real line, and
the trapezoid rule converges geometrically on this double-exponentially
decaying integrand.  Step: the largest rung of the ladder h_j = 0.2 2^(-j/4)
not above min(0.2, 1 / (2 sqrt(hypot(x, nu)))), half the peak width; rung 0,
h = 0.2, serves every hypot(x, nu) <= 6.25.  The grid ends where the exponent
is 40 below its peak.  Each rung's nodes t/2 = k h/2 and sinh(t/2) are
tabulated once, read-only, and grown on demand, so a call is a slice,
-(sqrt(2x) sinh(t/2))^2 (plus nu t for nu != 0), one exp and one sum.  A node
is the same number in a table of any size, so on rung 0 the result is
bitwise that of the untabulated sum with step 0.2.
Relative error is below 1e-13 against arbitrary-precision references for
nu in [0, 200], x in [1e-300, 1e5] wherever e^x K_nu(x) < 1e300; spot checks
up to nu = 1e4 (the largest accepted: the grid grows as sqrt(nu)) give ~1e-13.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_LOG_MAX = 709.78   # e^m overflows a double above this
_LN2 = math.log(2.0)
_ROOT20 = math.sqrt(20.0)

# rung j -> (K, t/2, sinh(t/2)) at t = k h_j for k = -K..K.  A cache, not
# state: a node's value does not depend on how far its table has grown.
_NODES: dict = {}


def _nodes(j: int, h: float, lo: int, hi: int):
    """Read-only ``(t/2, sinh(t/2))`` at ``t = k h`` for ``k = -lo..hi``, slices of
    rung ``j``'s table, which grows to at least twice its extent when short."""
    K, half_t, sinh_half = _NODES.get(j, (-1, None, None))
    if max(lo, hi) > K:
        # stop doubling at |t/2| = 700, where sinh(t/2) would soon overflow;
        # no grid reaches |t/2| = 380
        K = max(lo, hi, min(2 * K, int(1400.0 / h)))
        half_t = (0.5 * h) * np.arange(-K, K + 1)
        sinh_half = np.sinh(half_t)
        half_t.setflags(write=False)
        sinh_half.setflags(write=False)
        _NODES[j] = K, half_t, sinh_half
    return half_t[K - lo:K + hi + 1], sinh_half[K - lo:K + hi + 1]


def scaled_k_terms(nu: float, x: float, shift: int = 0) -> tuple[float, float]:
    """(m, s) with e^X K_nu(X) = s e^m at X = x 2^-shift; both stay finite
    where K overflows.  An even ``shift`` carries an X below the normal range
    exactly, so sqrt(2X), which sets every term, is not rounded to a few bits.

    :class:`DomainError` unless 0 < x < inf and 0 <= nu <= 1e4.
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"bessel_k requires finite x > 0, got {x!r}")
    if not 0.0 <= nu <= 1e4:
        raise DomainError(f"bessel_k requires 0 <= nu <= 1e4, got {nu!r} (K is even in nu)")
    X = math.ldexp(x, -shift)   # rounded (or 0) under a shift: it picks the rung only
    rho = math.hypot(X, nu)
    j = math.ceil(2.0 * math.log2(rho / 6.25)) if rho > 6.25 else 0
    h = 0.2 * 2.0 ** (-0.25 * j)
    # ends: x (cosh t - 1) = 40 at 2 asinh(sqrt(20/x)); nu t = -40; peak below log(1 + 2nu/x)
    root_x = math.ldexp(math.sqrt(x), -shift // 2)   # sqrt(X), exact
    lo = min(2.0 * math.asinh(_ROOT20 / root_x), 40.0 / nu if nu else math.inf)
    # at nu = 0, rho = X and the peak sits at t = 0; X itself may be 0 here
    hi = 2.0 * math.asinh(_ROOT20 / (math.sqrt(rho) if nu else root_x))
    if nu:
        hi += math.log(X + 2.0 * nu) - (math.log(x) - shift * _LN2)
    half_t, sinh_half = _nodes(j, h, math.ceil(lo / h), math.ceil(hi / h))
    # 2x sinh^2(t/2) as (sqrt(2x) sinh(t/2))^2: finite at tiny x; 2x and x/2 are exact
    c = math.ldexp(math.sqrt(2.0 * x) if x < 1.0 else 2.0 * math.sqrt(0.5 * x), -shift // 2)
    a = -(c * sinh_half) ** 2
    if nu:
        a += (2.0 * nu) * half_t
    m = float(a.max()) if nu * hi > 700.0 else 0.0   # max a < nu hi: else no overflow
    if m:
        a -= m
    return m, 0.5 * h * float(np.exp(a).sum())


def bessel_k(nu: float, x: float, scaled: bool = False) -> float:
    """K_nu(x) for finite x > 0, 0 <= nu <= 1e4; ``scaled`` returns e^x K_nu(x),
    which stays representable for large x, where K itself underflows."""
    m, s = scaled_k_terms(nu, x)
    value = s * math.exp(m) if m < _LOG_MAX else math.inf
    return value if scaled else value * math.exp(-x)
