"""Modified Bessel function of the second kind, K_nu(x).

At nu = 0, the order of the product-normal density, e^x K_0(x) is a fixed
cost in Python float arithmetic, with no numpy call and no loop (k0_scaled):
below x = 1 the series

    K_0(x) = sum_k H_k (x^2/4)^k / (k!)^2 - (ln(x/2) + gamma) I_0(x),

I_0(x) = sum_k (x^2/4)^k / (k!)^2, H_k = 1 + 1/2 + ... + 1/k, to k = 10,
where the next term is below 1e-19 of the sum (every term is positive
there), as two written-out Horner sums; from x = 1 on, one of 16 pieces of
sqrt(x) e^x K_0(x) in s = 2/x - 1, of width 1/8 in s.  Piece k = int(8 (s +
1)), taken as 15 at x = 1 (s = 1), spans x in [16/(k + 1), 16/k] (piece 0
from x = 16 on), and holds its centre c_k = -1 + (2k + 1)/16, a dyadic, and
the 11 monomial coefficients of a degree-10 polynomial in d = s - c_k, summed
as one Horner expression.  The polynomial interpolates at 11 Chebyshev
nodes; mpmath (1.3.0) at 40 digits solves for it, and each coefficient is
rounded to the nearest double:

    f = lambda s: (lambda x: sqrt(x) * exp(x) * besselk(0, x))(2 / (s + 1))
    c = -1 + mpf(2 * k + 1) / 16
    d = [cos(pi * (j + mpf(1) / 2) / 11) / 16 for j in range(11)]
    a = lu_solve(matrix([[d_j ** i for i in range(11)] for d_j in d]),
                 matrix([f(c + d_j) for d_j in d]))

The rounded table is within 8.4e-17 of f (41 points a piece, in mpmath).
Relative error is below 2e-15 against mpmath for x in [5e-324, 1e5]: 4.9e-16
the worst of 1800 points log-uniform over x in [1e-300, 1e5] and 200 shifted
subnormal ones, all of it below the split; from x = 1 on, 3.5e-16 the worst
of 20000 points (log-uniform to 1e5, and uniform over the pieces [1, 16]).
A call, its argument check included, costs about 1.4 us below the split and
1.0 us above it, whatever x (a 32-term Chebyshev sum took 2.0-2.6 us there
in the same runs; Python 3.11.7, 2-core VM).  Below the normal range the
caller may pass x 2^shift: the logarithm is then formed from that exact x,
and a normal X = x 2^-shift gives bitwise the unshifted terms.

For nu > 0 the trapezoid rule is the only method: e^x K_nu(x) = 1/2 int
exp(nu t - 2x sinh^2(t/2)) dt over the real line, and the rule converges
geometrically on this double-exponentially decaying integrand.  The step
rule: the largest step of the ladder h_j = 0.2 2^(-j/4) not above min(0.2,
1 / (2 sqrt(hypot(x, nu)))), half the peak width; h_0 = 0.2 serves every
hypot(x, nu) <= 6.25.  The grid ends where the exponent is 40 below its
peak, which keeps |t/2| below 380, where sinh(t/2) is finite.  A call builds
its nodes t/2 = k h/2 and sinh(t/2), then y = sqrt(2x) sinh(t/2), the
exponent nu t - y^2, one exp and one sum, each a numpy call on a few dozen
nodes: about 6.6 us a call for nu in {0.5, 2}, x in [0.01, 30] (same VM).
Relative error is below 1e-13 against arbitrary-precision references for
nu in [0, 200], x in [1e-300, 1e5] wherever e^x K_nu(x) < 1e300; spot checks
up to nu = 1e4 (the largest accepted: the grid grows as sqrt(nu)) give ~1e-13.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError

_LOG_MAX = 709.78   # exp overflows a double above this
_LN2 = math.log(2.0)
_ROOT20 = math.sqrt(20.0)
_TINY = sys.float_info.min   # the smallest normal double
_EULER = 0.5772156649015329  # Euler's gamma

# 1/(k!)^2 and H_k/(k!)^2 for k = 0..10, the coefficients of I_0 and of the
# H_k sum in (X/2)^2: each a quotient of exact integers (H_k k! = sum_j k!/j),
# so correctly rounded
_K0_SERIES_I = tuple(1 / math.factorial(k) ** 2 for k in range(11))
_K0_SERIES_H = tuple(sum(math.factorial(k) // j for j in range(1, k + 1)) / math.factorial(k) ** 3
                     for k in range(11))

# piece k of sqrt(X) e^X K_0(X) from X = 1 on, s = 2/X - 1 in [-1 + k/8,
# -1 + (k + 1)/8]: (c_k, a_0..a_10), its centre, exact, and the monomial
# coefficients of the degree-10 interpolant in d = s - c_k (see the module
# docstring)
_K0_PIECES = (
    (-0.9375, 1.2485017620221532, -0.07570477707577962,
     0.020065911302423762, -0.009578566400767034, 0.006543752731911286,
     -0.005761423075303177, 0.006159502758579189, -0.0076936816287185355,
     0.01093977268119239, -0.018013697481535577, 0.0316515377549801),
    (-0.8125, 1.239334928758195, -0.07109224790908684,
     0.016993456536263118, -0.007017620380462382, 0.0039983644479113165,
     -0.0028418395536071077, 0.002381887866794483, -0.0022720667924857663,
     0.0024081180983186947, -0.0028377321117805713, 0.0035479046012731616),
    (-0.6875, 1.2307011118035205, -0.06714468317822322,
     0.014688674551819676, -0.005385464564194693, 0.00265778943629373,
     -0.0016028592820730965, 0.0011201277058241837, -0.0008775480602322633,
     0.0007538239873765184, -0.0007066984159380532, 0.0006996341355529495),
    (-0.5625, 1.2225276223144117, -0.06370596661351705,
     0.012890596995376652, -0.004269662534015768, 0.0018691969056240044,
     -0.0009854801429176059, 0.0005948505190811127, -0.0003984760728644802,
     0.00029014367809574994, -0.00022804199824987204, 0.00018857903311116154),
    (-0.4375, 1.2147578812485007, -0.06066995839617232,
     0.011447413678234826, -0.003468781345998056, 0.0013696663153998864,
     -0.0006441217985190973, 0.00034371619091628196, -0.0002020446461485582,
     0.00012828712538322842, -8.727588275143569e-05, 6.228796493015886e-05),
    (-0.3125, 1.2073465432801709, -0.057960731877503856,
     0.010263587989728795, -0.002872697701184471, 0.001035738892444305,
     -0.0004408627923536521, 0.00021144342653266267, -0.00011107334046738299,
     6.272248405442373e-05, -3.7745837631497114e-05, 2.3771948171553692e-05),
    (-0.1875, 1.200256449789108, -0.055521903066125165,
     0.00927552552874948, -0.0024163063083132855, 0.0008031079642336528,
     -0.00031286397929329086, 0.00013655567391392725, -6.498103772721227e-05,
     3.311251251499054e-05, -1.7907287023143906e-05, 1.0114355791817993e-05),
    (-0.0625, 1.1934566096591825, -0.0533103702888656,
     0.008439053102813721, -0.002058806981909697, 0.0006356356465834317,
     -0.00022862815104517263, 9.170055579345615e-05, -3.9946711873001444e-05,
     1.857571189445675e-05, -9.13703438079175e-06, 4.685822098177342e-06),
    (0.0625, 1.1869208010095311, -0.0512924109835722,
     0.007722437988981355, -0.0017734425253284637, 0.0005117904439006302,
     -0.00017117680328165307, 6.358801558067733e-05, -2.5572476744937756e-05,
     1.0948881518891017e-05, -4.945179368185409e-06, 2.325228822677055e-06),
    (0.1875, 1.1806265689311604, -0.0494411311981815,
     0.007102251667365568, -0.0015420110340005266, 0.0004181301031199838,
     -0.00013081495058026233, 4.529763071229897e-05, -1.693390431571405e-05,
     6.724305781890774e-06, -2.8103611719529693e-06, 1.2211779036488593e-06),
    (0.3125, 1.1745544867288817, -0.047734735227055625,
     0.006560797952877444, -0.001351750421029288, 0.00034593482902178606,
     -0.00010174047858792309, 3.301777299101645e-05, -1.154025897422329e-05,
     4.275928848457429e-06, -1.6642650250243314e-06, 6.726860066712986e-07),
    (0.4375, 1.1686875986285379, -0.04615531486584654,
     0.0060844497652774035, -0.00119348199922406, 0.00028936386894024783,
     -8.03425121330173e-05, 2.454906040308728e-05, -8.061426639037808e-06,
     2.8014163284449383e-06, -1.0209055066139082e-06, 3.859585492675627e-07),
    (0.5625, 1.1630109910619397, -0.04468798002239959,
     0.005662537706314174, -0.001060459037289228, 0.00024439665345764045,
     -6.429810527653325e-05, 1.8571528155371128e-05, -5.7538613316674566e-06,
     1.8835860228233336e-06, -6.45666577434328e-07, 2.293889330406418e-07),
    (0.6875, 1.1575114572748817, -0.0433202204994776,
     0.005286586445419251, -0.0009476279807701085, 0.00020819959107491463,
     -5.206963816311545e-05, 1.4265845977138402e-05, -4.1853449141162625e-06,
     1.2956103259013578e-06, -4.194129072985274e-07, 1.4059905149547536e-07),
    (0.8125, 1.1521772310831941, -0.04204142844686489,
     0.004949777371555198, -0.000851140482513626, 0.0001787341535619656,
     -4.2613748629612315e-05, 1.1108343602225858e-05, -3.0959824993086383e-06,
     9.093069289641842e-07, -2.7895512198253465e-07, 8.85514325925694e-08),
    (0.9375, 1.1469977727917622, -0.040842535017602995,
     0.004646562506147168, -0.0007680228697263332, 0.0001545069742352182,
     -3.520684402141021e-05, 8.755623262533402e-06, -2.324798997372526e-06,
     6.497546535040394e-07, -1.8947989173901581e-07, 5.713553813069433e-08),
)

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
    return _trapezoid(nu, x, shift) if nu else (0.0, k0_scaled(x, shift))


def k0_scaled(x: float, shift: int = 0) -> float:
    """e^X K_0(X) at X = x 2^-shift, which never overflows: the series below
    X = 1, one piece of the table from there on (see the module docstring).
    ``shift`` as in :func:`scaled_k_terms`.

    :class:`DomainError` unless 0 < x < inf.
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"bessel_k requires finite x > 0, got {x!r}")
    X = math.ldexp(x, -shift) if shift else x
    if X < 1.0:
        y = 0.25 * X * X
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = _K0_SERIES_I
        _, g1, g2, g3, g4, g5, g6, g7, g8, g9, g10 = _K0_SERIES_H   # H_0 = 0
        i0 = c0 + y * (c1 + y * (c2 + y * (c3 + y * (c4 + y * (c5 + y * (
            c6 + y * (c7 + y * (c8 + y * (c9 + y * c10)))))))))
        h = y * (g1 + y * (g2 + y * (g3 + y * (g4 + y * (g5 + y * (
            g6 + y * (g7 + y * (g8 + y * (g9 + y * g10)))))))))
        # ln X from the exact x where X is rounded; a normal X is exact
        log_x = math.log(X) if X >= _TINY else math.log(x) - shift * _LN2
        return math.exp(X) * (h - (log_x - _LN2 + _EULER) * i0)
    s = 2.0 / X - 1.0
    k = int(8.0 * (s + 1.0))   # s = 1 at X = 1 is the top end of piece 15
    c, a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10 = _K0_PIECES[k if k < 16 else 15]
    d = s - c
    return (a0 + d * (a1 + d * (a2 + d * (a3 + d * (a4 + d * (a5 + d * (
        a6 + d * (a7 + d * (a8 + d * (a9 + d * a10)))))))))) / math.sqrt(X)


def _trapezoid(nu: float, x: float, shift: int = 0) -> tuple[float, float]:
    """:func:`scaled_k_terms` by the trapezoid rule, for checked arguments
    with ``nu > 0``."""
    X = math.ldexp(x, -shift)   # rounded (or 0) under a shift: it picks the step only
    rho = math.hypot(X, nu)
    j = math.ceil(2.0 * math.log2(rho / 6.25)) if rho > 6.25 else 0
    h = 0.2 * 2.0 ** (-0.25 * j)
    # ends: x (cosh t - 1) = 40 at 2 asinh(sqrt(20/x)); nu t = -40; peak below log(1 + 2nu/x)
    root_x = math.ldexp(math.sqrt(x), -shift // 2)   # sqrt(X), exact
    lo = min(2.0 * math.asinh(_ROOT20 / root_x), 40.0 / nu)
    hi = (2.0 * math.asinh(_ROOT20 / math.sqrt(rho))
          + (math.log(X + 2.0 * nu) - (math.log(x) - shift * _LN2)))
    half_t = (0.5 * h) * np.arange(-math.ceil(lo / h), math.ceil(hi / h) + 1)
    # 2x sinh^2(t/2) as (sqrt(2x) sinh(t/2))^2: finite at tiny x; 2x and x/2 are exact
    c = math.ldexp(math.sqrt(2.0 * x) if x < 1.0 else 2.0 * math.sqrt(0.5 * x), -shift // 2)
    y = np.sinh(half_t)
    y *= c
    a = np.subtract((2.0 * nu) * half_t, np.multiply(y, y, y), y)   # nu t - y^2
    m = float(a.max()) if nu * hi > 700.0 else 0.0   # max a < nu hi: else no overflow
    if m:
        a -= m
    return m, 0.5 * h * float(np.add.reduce(np.exp(a, a)))


def bessel_k(nu: float, x: float, scaled: bool = False) -> float:
    """K_nu(x) for finite x > 0, 0 <= nu <= 1e4; ``scaled`` returns e^x K_nu(x),
    which stays representable for large x, where K itself underflows."""
    m, s = scaled_k_terms(nu, x)
    # K = s e^(m - x): one exponent, so neither e^m nor e^-x overflows alone
    e = m if scaled else m - x
    return s * math.exp(e) if e < _LOG_MAX else math.inf
