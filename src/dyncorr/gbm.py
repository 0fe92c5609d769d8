"""Dynamic-correlation estimators for geometric Brownian pairs.

Both variants weigh deviations ``D_k = e^{sigma W_k} - e^{sigma^2 k/2}``
with exponential windows controlled by (a, b, c) and rescale by
``e^{-c sigma^2 T}``.  Variance estimates follow by substituting the same
path for both series.  ``rho_hat`` then estimates the correlation between
``R_t = e^{sigma W_t}`` and ``S_t = e^{sigma U_t}``; if the driving BM pair
has correlation ``r_t`` at time t, that target is
``rho_t = (e^{r_t sigma^2 t} - 1) / (e^{sigma^2 t} - 1)``.

Both variants are the package's one form (see ``dyncorr.form``),

    gamma = a a' A + a <c, E'> + a' <c, E> +- <E, E'>,

with the factor ``e^{-c sigma^2 T}`` folded into the weight exponents ``m``,
so nothing larger than a raw path exponential is formed:

* v1, the bracket sum ``sum_k (e^{m_k} D_k - e^{m'_k} D_t)(e^{m_k} D'_k -
  e^{m'_k} D'_t)``, expanded: ``E_k = e^{m_k + sigma W_k} - e^{m_k + sigma^2 k/2}``
  (one exponential per step), ``a = e^{top} D_t`` with ``top = max m'_k``,
  ``c_k = -e^{m'_k - top}``, ``A = <c, c>`` and the sign +;
* v2, ``D_t D'_t sum_k e^{m_anchor} - sum_k e^{m_step} D_k D'_k``:
  ``E = e^{m_step/2} D`` (scaled in place, not in the exponent: at
  ``(b, sigma, T) = (16, 0.1, 1e4)`` a quarter of those exponentials
  underflow, and ``exp`` took 6.2 ms on a (64, 1e4) block against 0.67 ms
  unscaled, numpy 2.4.6), ``a = e^{s/2} D_t`` with
  ``s = min(max m_anchor, 0)``, ``A = sum_k e^{m_anchor - s}``, no cross
  weights and the sign -.  The scale ``e^{s}`` rides on the anchors, so
  ``A >= 1`` cannot underflow to 0, and ``D_t D'_t`` is never formed
  unscaled, so it cannot overflow.

``E``, ``c`` and ``A`` do not depend on ``t``; they are built once per
``(T, params)`` behind ``simulate.frozen_cache``.  So a whole curve,
:meth:`GbmEstimatorParams.curve`, is three sums per path and the anchors of
every ``t``, O(T) and bitwise equal to ``components`` at each ``t``;
:func:`estimate_gbm` reads the pair's cached curve estimate
(``form.estimate_curve``), as ``bm.estimate_bm`` does, and every view takes
its paths by :meth:`GbmEstimatorParams.pair_paths`: ``form.pair_paths``
after one check of a ``GbmPathPair``'s sigma.  :func:`rho_hat_gbm` reads
the variance bits of ``form.variance_faults``, as the curve's codes do.
Each anchor is exponentiated per row with its scale inside the exponent,
so it neither overflows nor underflows before the product.  A block whose
exponents leave the safe double range raises :class:`NumericRange` before
any of them is exponentiated, and so do sums that still overflow.  Weight
tails that underflow are dropped (they are decaying positive factors).

The oracle is the expectation of the same form, read from the same cached
terms (see ``_expected``): one call gives the covariance and the variance,
and a non-finite one raises :class:`NumericRange`.

No limit law of ``rho_hat`` is derived here (for the Brownian estimator see
``dyncorr.bm``).  Measured: v1 with ``(a, b, c, sigma) = (1, 12, 2, 0.1)`` on a
constant profile of 0.5 gave ``|rho_hat| > 0.99`` in 99% of replications at
T = 1e3 and in 100% at T = 1e4.

v1's variances are sums of squares, so Cauchy-Schwarz bounds its
``|rho_hat|`` by 1 up to rounding.  v2's are differences and bound nothing:
with ``(1, 16, 2, 0.1)`` on ``capped:0.5,10``, at ``t = 1..200`` of seeds
1-5, ``|rho_hat|`` exceeded 1 at 978 of 1000 points at T = 200 (by up to
2.83) and at all 1000 at T = 1000 (by up to 0.109), but only by two ulps at
T = 5000.  :func:`estimate_gbm` keeps such a value and flags it
``rho_out_of_range`` beyond ``1 + 1e-12``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import DegenerateVariance, DomainError, NegativeVarianceEstimate
from .form import RHO_LIMIT  # noqa: F401  (the bound of estimate_gbm's rho_out_of_range)
from .form import (NEGATIVE_A, NEGATIVE_B, RAISES, RHO_OUT_OF_RANGE, VARIANCE_FAULTS, epilogue,
                   estimate_curve, expected_ratio, finite_moments, form_sums, pair_paths, quiet,
                   raise_again, rho_hat, rowdot, rowwise, same_shape, variance_faults)
from .profiles import CorrelationProfile
from .simulate import (MAX_EXPONENT, GbmPathPair, check_correlation, check_exponent, check_finite,
                       check_index, check_integer, check_positive, frozen_cache)


class NonconvergentSeriesWarning(UserWarning):
    """An expectation series does not converge for the given exponents."""


@dataclass(frozen=True)
class GbmEstimatorParams:
    """Window exponents (a, b, c), volatility sigma and the variant."""

    # report labels: the two series, then the key of the expectation ratio
    LABELS: ClassVar[tuple] = ("w", "u", "expected_ratio")

    a: float
    b: float
    c: float
    sigma: float
    variant: str = "v1"

    def __post_init__(self):
        check_finite(a=self.a, b=self.b, c=self.c)
        check_positive(sigma=self.sigma)
        if self.variant not in ("v1", "v2"):
            raise DomainError(f"variant must be 'v1' or 'v2', got {self.variant!r}")
        # hashed once, as CorrelationProfile: every curve and oracle cache lookup
        # hashes its params.  Only the numbers: a str hashes differently in each
        # process, and a pickled copy must stay valid.  The variant stays in ==.
        object.__setattr__(self, "_hash", hash((self.a, self.b, self.c, self.sigma)))

    def __hash__(self):
        return self._hash

    def in_consistency_range(self) -> bool:
        if self.variant == "v1":
            return self.c > self.a > 0 and self.b > self.a + 10
        return self.b > 15 and self.c > self.a > 0

    def components(self, w, u, t: int):
        """``(gamma_hat, sigma_w_sq_hat, sigma_u_sq_hat)`` of this variant at time ``t``.

        ``w`` and ``u`` are the driving Brownian paths shaped ``(..., T)``;
        each component keeps the leading axes.  The variance components are
        raw values: the second variant's can be negative.
        """
        return rowwise(w, u, t, self._kernel)

    def pair_paths(self, pair_or_w, u=None) -> tuple:
        """The two driving paths of a view's input (``form.pair_paths``), once
        a :class:`GbmPathPair`'s sigma is checked against ``self.sigma``:
        GBM's one check of its own.  Any other input has no sigma and passes
        as it is."""
        if isinstance(pair_or_w, GbmPathPair) and abs(pair_or_w.sigma - self.sigma) > 1e-12:
            raise DomainError("params.sigma does not match pair.sigma")
        return pair_paths(pair_or_w, u, "two driving-BM arrays")

    def oracle(self, profile: CorrelationProfile, t: int, T: int):
        """Exact ``(E[gamma_hat], E[sigma_sq_hat])`` of this variant at time ``t``.

        ``profile`` is the driving pair's correlation profile.  The second
        variant's expected variance can be negative at small ``T``.
        """
        return _expected(profile, t, self, T)

    @quiet   # a non-finite entry is the estimate's to resolve (see form.estimate_curve)
    def curve(self, w, u):
        """``(gamma_hat, sigma_w_sq_hat, sigma_u_sq_hat)`` of this variant at
        every time ``1..T``.

        Shape rules as in :meth:`components`, with a last axis over the time.
        ``E``, ``c`` and ``A`` do not depend on ``t``, so the curve is three
        sums per path, the anchors of every ``t`` from one exponential over
        the paths, and ``form.epilogue`` broadcast over ``t``: ``O(T)``, and
        bitwise equal to :meth:`components` at every ``t``.  Series
        exponents beyond the safe range raise :class:`NumericRange`, as
        ``components`` does at every ``t``; where only an anchor's exponent
        leaves it, and so ``components`` raises at that ``t``, the entries
        are NaN.
        """
        paths = np.stack(same_shape(w, u))
        T, sigma = paths.shape[-1], self.sigma
        m_top, m, mean, scale, shift, c, A, sign = _grid(T, self)
        E = paths * sigma
        check_exponent("intermediate exponent", m_top + E.max())
        # each anchor e^{shift} D_t as the one-t kernel forms it
        top = E + shift
        mean_top = shift + 0.5 * sigma ** 2 * np.arange(1.0, T + 1.0)
        anchors = np.exp(top) - np.exp(mean_top)
        anchors[np.maximum(top, mean_top) > MAX_EXPONENT] = np.nan
        _finish_series(E, m, mean, scale)
        sums = [s if s is None else s[..., None] for s in form_sums(E, c)]
        return epilogue(anchors, *sums, A, sign)

    def _kernel(self, paths, t: int):
        """This variant's terms at ``t`` for ``form.rowwise``; a block's
        exponents are checked before any of them is exponentiated."""
        T = paths[0].shape[-1]
        sigma = self.sigma
        m_top, m, mean, scale, shift, c, A, sign = _grid(T, self)
        mean_top = shift + 0.5 * sigma ** 2 * t   # the anchor mean's exponent
        check_exponent("intermediate exponent", mean_top)
        anchor_mean = np.exp(mean_top)

        def series(rows, out):
            for x, o in zip(paths, out):
                np.multiply(x[rows], sigma, out=o)
            check_exponent("intermediate exponent", m_top + out.max(),
                           shift + out[..., t - 1].max())
            # anchors e^{shift} D_t, with the shift inside the exponent
            anchors = [np.exp(x[rows, t - 1] * sigma + shift) - anchor_mean for x in paths]
            _finish_series(out, m, mean, scale)
            return anchors

        return series, c, A, sign


@dataclass(frozen=True, slots=True)
class GbmEstimateSeries:
    """One estimator evaluation: components, the correlation ratio and its flags."""

    gamma_hat: float
    sigma_w_sq_hat: float
    sigma_u_sq_hat: float
    rho_hat: float
    flags: tuple = ()


# estimate_gbm fills a record slot by slot, as bm.estimate_bm does
_SET_GAMMA, _SET_VAR_W, _SET_VAR_U, _SET_RHO, _SET_FLAGS = (
    getattr(GbmEstimateSeries, name).__set__ for name in GbmEstimateSeries.__slots__)


def _finish_series(out, m, mean, scale):
    """``E = (e^{m + out} - mean) scale`` in place, from ``out = sigma W``:
    ``e^{m_k} D_k`` (v1, ``e^{m_k}`` inside the exponent) or
    ``e^{m_step/2} D_k`` (v2)."""
    if m is not None:
        out += m
    np.exp(out, out=out)
    out -= mean
    if scale is not None:
        out *= scale


@frozen_cache
def _grid(T: int, params: GbmEstimatorParams):
    """The t-independent terms of ``params.variant`` at length ``T``.

    ``(m_top, m, mean, scale, shift, c, A, sign)``: the series is
    ``E = (e^{m + sigma W} - mean) scale`` (``m`` or ``scale`` None for
    none), ``m_top`` the largest step exponent, the anchor is ``e^{shift} D_t``
    and ``c``, ``A`` and ``sign`` are ``form.rowwise``'s.  v1 puts ``e^{m_k}``
    into the exponent and has ``c = -e^{m'_k - shift}``, ``A = <c, c>``,
    ``shift = max m'_k``; v2 scales by ``e^{m_step/2}`` and has no cross
    weights and ``A = sum_k e^{m_anchor - 2 shift}``, with
    ``2 shift = min(max m_anchor, 0)`` so that ``A`` cannot underflow.
    """
    s2 = params.sigma ** 2
    k = np.arange(1.0, T + 1.0)
    if params.variant == "v1":
        half_norm = 0.5 * params.c * s2 * T
        m_k = -0.5 * params.b * s2 * k - half_norm
        m_anchor = 0.5 * params.a * s2 * k - half_norm
        check_exponent("intermediate exponent", np.max(m_k + 0.5 * s2 * k))
        shift = np.max(m_anchor)
        c = -np.exp(m_anchor - shift)
        return (np.max(m_k), m_k, np.exp(m_k + 0.5 * s2 * k), None, shift, c,
                float(rowdot(c, c)), 1.0)
    m_anchor = params.a * s2 * k - params.c * s2 * T
    check_exponent("intermediate exponent", np.max(m_anchor), s2 * T)
    s = min(np.max(m_anchor), 0.0)
    return (0.0, None, np.exp(0.5 * s2 * k),
            np.exp(-0.5 * (params.b * s2 * k + params.c * s2 * T)), 0.5 * s, None,
            float(np.sum(np.exp(m_anchor - s))), -1.0)


def gamma_hat_gbm_v1(pair_or_w, u=None, *, t: int, params: GbmEstimatorParams):
    """First-variant covariance estimate (sum of bracket products).

    Accepts a pair (``form.pair_paths``: a :class:`GbmPathPair`, whose sigma
    must be ``params.sigma``, or a ``BmPathPair`` as the driving paths) or
    two driving-BM arrays of the same shape ``(..., T)``, as every GBM view.
    """
    paths = params.pair_paths(pair_or_w, u)
    return replace(params, variant="v1").components(*paths, t)[0]


def gamma_hat_gbm_v2(pair_or_w, u=None, *, t: int, params: GbmEstimatorParams):
    """Second-variant covariance estimate (anchor minus step products)."""
    paths = params.pair_paths(pair_or_w, u)
    return replace(params, variant="v2").components(*paths, t)[0]


def sigma_sq_hat_gbm(path, *, t: int, params: GbmEstimatorParams):
    """Variance estimate: the chosen variant with both series the same path.

    The first variant is a sum of squares and therefore nonnegative; the
    second is a difference of terms and can come out negative at small T.
    The raw value is returned either way so the pathology stays visible.
    """
    return params.components(path, path, t)[1]


def rho_hat_gbm(pair_or_w, u=None, *, t: int, params: GbmEstimatorParams):
    """Correlation ratio gamma_hat / (sigma_hat_W sigma_hat_U).

    The bits of ``form.variance_faults`` over every row of a batch decide:
    a negative variance raises :class:`NegativeVarianceEstimate`, and else
    one that is not positive :class:`DegenerateVariance`.
    """
    paths = params.pair_paths(pair_or_w, u)
    g, s_w, s_u = params.components(*paths, t)
    fault = np.bitwise_or.reduce(variance_faults(s_w, s_u), axis=None)
    if fault & (NEGATIVE_A | NEGATIVE_B):
        raise NegativeVarianceEstimate(f"negative variance estimate at t={t} "
                                       "(variant v2, small-T pathology)")
    if fault & VARIANCE_FAULTS:
        raise DegenerateVariance(f"zero variance estimate at t={t}")
    return rho_hat(g, s_w, s_u)


def estimate_gbm(pair: GbmPathPair, t: int, params: GbmEstimatorParams) -> GbmEstimateSeries:
    """The components and ``rho_hat`` at ``t``, with what is wrong with them as flags.

    Read from the pair's cached curve estimate (``form.estimate_curve``),
    whose build checks a :class:`GbmPathPair`'s sigma against
    ``params.sigma``; a ``BmPathPair`` serves as the driving paths.  A
    negative or zero variance gives ``rho_hat = NaN`` and the flag
    ``negative_variance`` or ``degenerate_variance``.  A ``rho_hat`` beyond
    ``RHO_LIMIT`` in magnitude, possible for v2 whose variances are
    differences, keeps its value and is flagged ``rho_out_of_range``.
    """
    gamma, var_w, var_u, rho, code = estimate_curve(pair, params).views
    i = check_index(t, len(code)) - 1
    flag = code[i]
    if flag == RAISES:
        raise_again(params, pair, i + 1)
    e = object.__new__(GbmEstimateSeries)
    _SET_GAMMA(e, gamma[i])
    _SET_VAR_W(e, var_w[i])
    _SET_VAR_U(e, var_u[i])
    _SET_RHO(e, rho[i])
    _SET_FLAGS(e, _FLAGS[flag])
    return e


def _flags(code: int) -> tuple:
    """The flags of a ``form.flag_codes`` code: a negative variance before a
    zero one, before a ratio out of range."""
    if code & (NEGATIVE_A | NEGATIVE_B):
        return ("negative_variance",)
    if code & VARIANCE_FAULTS:
        return ("degenerate_variance",)
    return ("rho_out_of_range",) if code & RHO_OUT_OF_RANGE else ()


_FLAGS = tuple(map(_flags, range(RAISES)))


# ---------------------------------------------------------------------------
# Correlation transform between the BM and GBM levels

# Below this sigma^2 t, expm1(r sigma^2 t) / expm1(sigma^2 t) is r to within
# sigma^2 t relative: the r <-> rho transform is the identity in doubles.
_IDENTITY_BELOW = 2.0 ** -53


def r_from_rho(rho_t: float, sigma: float, t: float) -> float:
    """BM correlation giving GBM correlation rho_t at time t.

    :func:`rho_from_r` maps the BM correlations ``[-1, 1]`` onto
    ``[-e^(-sigma^2 t), 1]``, increasing, so a ``rho_t`` below that floor
    raises :class:`DomainError`.  Within ``4 + sigma^2 t`` ulps of the floor,
    the result is exactly -1: ``rho_from_r(-1, sigma, t)`` rounds to within
    1.3 ulps of it (measured), and a floor formed from a ``sigma^2 t`` one ulp
    off moves by up to ``sigma^2 t`` ulps.  The inverse is ill-conditioned
    there: a relative change ``e`` in ``rho_t`` moves ``r_t`` by about ``e
    e^(sigma^2 t) / (sigma^2 t)``, and the log argument cancels, down to 0
    once ``e^(-sigma^2 t)`` is below its rounding, so the result is clamped
    to ``[-1, 1]``.  Below ``sigma^2 t = 2^-53`` both conversions return their
    input: the transform is the identity to double precision there.
    """
    check_correlation(rho_t=rho_t)
    check_positive(sigma=sigma, t=t)
    check_exponent("sigma^2 t", sigma * sigma * t)
    s2t = sigma ** 2 * t
    if s2t < _IDENTITY_BELOW:
        return float(rho_t)
    floor = math.exp(-s2t)   # -rho_from_r(-1, sigma, t)
    slack = (4 + s2t) * math.ulp(floor)
    if rho_t < -floor - slack:
        raise DomainError(f"rho_t must be >= -e^(-sigma^2 t) = {-floor!r}, the GBM "
                          f"correlation at r_t = -1, got {rho_t!r}")
    excess = rho_t * np.expm1(s2t)   # the log's argument less 1
    if rho_t <= -floor + slack or excess <= np.expm1(-s2t):
        return -1.0
    return min(1.0, max(-1.0, float(np.log1p(excess) / s2t)))


def rho_from_r(r_t: float, sigma: float, t: float) -> float:
    """GBM correlation induced by BM correlation r_t at time t; ``|r_t| <= 1``,
    which with sigma^2 t <= 700 keeps r_t sigma^2 t in the exponent range."""
    check_correlation(r_t=r_t)
    check_positive(sigma=sigma, t=t)
    check_exponent("sigma^2 t", sigma * sigma * t)
    s2t = sigma ** 2 * t
    if s2t < _IDENTITY_BELOW:
        return float(r_t)
    return float(np.expm1(r_t * s2t) / np.expm1(s2t))


# ---------------------------------------------------------------------------
# Exact expectation formulas
#
# ``profile`` is the correlation profile of the *driving BM pair*, exactly as
# passed to the simulator.  Cross moments follow its increment coupling,
# ``Cov(W_s, U_v) = m r_m`` with ``m = min(s, v)``, so the formulas are exact
# for every feasible profile.  A variance is the covariance with ``r = 1``.

@quiet   # a non-finite moment is raised below
def _expected(profile, t: int, params: GbmEstimatorParams, T: int):
    """``(E[gamma_hat], E[sigma_sq_hat])`` of ``params.variant`` for the BM-level
    correlations ``r_1..r_T`` of ``profile`` (None: r = 1), from the kernel's
    own ``_grid``.

    The expectation of the one form: a centred lognormal pair has
    ``E[(e^X - Ee^X)(e^Y - Ee^Y)] = Ee^X Ee^Y (e^{Cov(X, Y)} - 1)``, and the
    series ``E_k`` has mean part ``scale_k mean_k`` and the anchor
    ``m_a = e^{shift + sigma^2 t/2}``, so with ``x_k = expm1(sigma^2 k r_k)``

        E[gamma] = A m_a^2 x_t + 2 m_a <c mean, x_min(k,t)> + sign <(scale mean)^2, x>.
    """
    # before the cached _grid, whose entry for an int T a float equal to it hits
    T = check_integer("T", T, least=1)
    r = 1.0 if profile is None else profile.rho(T)
    s2 = params.sigma ** 2
    t = check_index(t, T)
    check_exponent("oracle exponent c sigma^2 T", params.c * s2 * T)
    check_exponent("oracle exponent a sigma^2 T", params.a * s2 * T)
    if params.variant == "v2" and params.b <= 2:
        warnings.warn(f"b = {params.b} <= 2: the step-product expectation series "
                      "grows with T instead of converging",
                      NonconvergentSeriesWarning, stacklevel=4)   # past form.quiet and oracle
    # one row per correlation: the profile's, then 1 for the variance
    rows = np.ones((2, T))
    rows[0] = r
    _, _, mean, scale, shift, c, A, sign = _grid(T, params)
    x = np.expm1(s2 * np.arange(1.0, T + 1.0) * rows)
    m_a = np.exp(shift + 0.5 * s2 * t)
    if scale is not None:
        mean = mean * scale
    moments = A * m_a * m_a * x[:, t - 1]
    if c is not None:
        # Cov(W_k, U_t) = min(k, t) r_min(k, t): x_t from the anchor time on
        cross = x.copy()
        cross[:, t:] = x[:, t - 1:t]
        moments += 2 * m_a * rowdot(cross, c * mean)
    moments += sign * rowdot(x * mean, mean)
    return finite_moments(moments.tolist(), t)


def expected_gamma_gbm_v1(
    profile: CorrelationProfile, t: int, params: GbmEstimatorParams, T: int
) -> float:
    return _expected(profile, t, replace(params, variant="v1"), T)[0]


def expected_sigma_sq_gbm_v1(t: int, params: GbmEstimatorParams, T: int) -> float:
    return _expected(None, t, replace(params, variant="v1"), T)[1]


def expected_gamma_gbm_v2(
    profile: CorrelationProfile, t: int, params: GbmEstimatorParams, T: int
) -> float:
    return _expected(profile, t, replace(params, variant="v2"), T)[0]


def expected_sigma_sq_gbm_v2(t: int, params: GbmEstimatorParams, T: int) -> float:
    return _expected(None, t, replace(params, variant="v2"), T)[1]


def expected_ratio_gbm(
    profile: CorrelationProfile, t: int, params: GbmEstimatorParams, T: int
) -> float:
    """E[gamma_hat] / sqrt(E[sigma_W^2] E[sigma_U^2]) for the chosen variant.

    Converges to the GBM correlation rho_t = rho_from_r(r_t, sigma, t) as T
    grows, in the respective consistency ranges.
    """
    return expected_ratio(profile, t, params, T)

