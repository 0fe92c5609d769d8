"""Dynamic-correlation estimators for geometric Brownian pairs.

Both variants weigh deviations ``D_k = e^{sigma W_k} - e^{sigma^2 k/2}``
with exponential windows controlled by (a, b, c) and rescale by
``e^{-c sigma^2 T}``.  Variance estimates follow by substituting the same
path for both series.  ``rho_hat`` then estimates the correlation between
``R_t = e^{sigma W_t}`` and ``S_t = e^{sigma U_t}``; if the driving BM pair
has correlation ``r_t`` at time t, that target is
``rho_t = (e^{r_t sigma^2 t} - 1) / (e^{sigma^2 t} - 1)``.

The row-block driver ``bm._rowwise`` exponentiates each path once per block,
as the v1 bracket ``e^{m_k} D_k - e^{m_t} D_t`` or the v2 deviation ``D_k``,
and reduces gamma and both variances from those arrays row by row in one pass.
The t-independent weights are cached.  The factor ``e^{-c sigma^2 T}`` is
folded into each weight exponent ``m``, so nothing larger than a raw path
exponential is formed; an exponent beyond the safe double range raises
:class:`NumericRange` first, and so do sums that still overflow.  Weight tails
that underflow are dropped (they are decaying positive factors).  An oracle
call builds its weights once for the covariance and the variance.

No limit law of ``rho_hat`` is derived here (for the Brownian estimator see
``dyncorr.bm``).  Measured: v1 with ``(a, b, c, sigma) = (1, 12, 2, 0.1)`` on a
constant profile of 0.5 gave ``|rho_hat| > 0.99`` in 99% of replications at
T = 1e3 and in 100% at T = 1e4.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .bm import _rowwise
from .errors import (
    DegenerateVariance,
    DomainError,
    NegativeVarianceEstimate,
    NumericRange,
)
from .profiles import CorrelationProfile
from .simulate import _MAX_EXPONENT, GbmPathPair, check_index


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
        if self.sigma <= 0:
            raise DomainError(f"sigma must be positive, got {self.sigma!r}")
        if self.variant not in ("v1", "v2"):
            raise DomainError(f"variant must be 'v1' or 'v2', got {self.variant!r}")

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
        return _rowwise(w, u, t, self._kernel)

    def oracle(self, profile: CorrelationProfile, t: int, T: int):
        """Exact ``(E[gamma_hat], E[sigma_sq_hat])`` of this variant at time ``t``.

        ``profile`` is the driving pair's correlation profile.  The second
        variant's expected variance can be negative at small ``T``.
        """
        return _expected(profile.rho(T), t, self, T)

    def _kernel(self, w, u, t: int):
        """Range checks on the whole batch, then this variant's series and inner product."""
        T = w.shape[-1]
        sigma, s2 = self.sigma, self.sigma ** 2
        paths = (w,) if u is w else (w, u)
        # sigma > 0 and rounding is monotone: sigma * max(x) is max(sigma * x) exactly
        if self.variant == "v1":
            m_k, m_t, mean = _grid(T, self)
            for x in paths:
                _check_exponents(np.max(m_k) + sigma * np.max(x, initial=-np.inf),
                                 np.max(m_t) + sigma * np.max(x[:, t - 1], initial=-np.inf),
                                 np.max(m_t) + 0.5 * s2 * t)
            anchor_mean = np.exp(m_t + 0.5 * s2 * t)

            def series(x, d):
                # e^{m_k + sW_k} - e^{m_k + s2 k/2} - e^{m_t + sW_t} + e^{m_t + s2 t/2}
                np.exp(np.add(m_k, np.multiply(x, sigma, out=d), out=d), out=d)
                d -= mean
                anchor = np.add(m_t, sigma * x[:, t - 1, None])
                d -= np.exp(anchor, out=anchor)
                d += anchor_mean
                return d

            return series, np.vecdot
        mean, step, anchor_weight = _grid(T, self)
        _check_exponents(*(sigma * np.max(x, initial=-np.inf) for x in paths))

        def series(x, d):
            np.exp(np.multiply(x, sigma, out=d), out=d)
            d -= mean
            return d

        def inner(x, y):
            return (x[:, t - 1] * y[:, t - 1] * anchor_weight
                    - np.einsum("ij,ij,j->i", x, y, step))

        return series, inner


@dataclass(frozen=True)
class GbmEstimateSeries:
    t: int
    gamma_hat: float
    sigma_w_sq_hat: float
    sigma_u_sq_hat: float
    rho_hat: float
    flags: tuple = ()


def _check_exponents(*tops):
    for top in tops:
        if top > _MAX_EXPONENT:
            raise NumericRange(
                f"intermediate exponent {float(top):.1f} exceeds the safe "
                "range for these (a, b, c, sigma, T)"
            )


@functools.lru_cache(maxsize=2)
def _grid(T: int, params: GbmEstimatorParams):
    """The t-independent, read-only weights of ``params.variant`` at length ``T``.

    v1: the step and anchor exponents ``m_k``, ``m_t`` (each carrying half
    the normalizer) and ``e^{m_k + s2 k/2}``; v2: ``e^{s2 k/2}``,
    ``e^{m_step}`` and the scalar ``sum_k e^{m_anchor}``.
    """
    s2 = params.sigma ** 2
    k = np.arange(1.0, T + 1.0)
    if params.variant == "v1":
        half_norm = 0.5 * params.c * s2 * T
        m_k = -0.5 * params.b * s2 * k - half_norm
        _check_exponents(np.max(m_k + 0.5 * s2 * k))
        grid = (m_k, 0.5 * params.a * s2 * k - half_norm, np.exp(m_k + 0.5 * s2 * k))
    else:
        m_anchor = params.a * s2 * k - params.c * s2 * T
        _check_exponents(np.max(m_anchor), s2 * T)
        grid = (np.exp(0.5 * s2 * k), np.exp(-params.b * s2 * k - params.c * s2 * T),
                np.sum(np.exp(m_anchor)))
    for arr in grid:
        arr.setflags(write=False)   # a numpy scalar, v2's sum, takes it as a no-op
    return grid


def gamma_hat_gbm_v1(pair_or_w, u=None, *, t: int, params: GbmEstimatorParams):
    """First-variant covariance estimate (sum of bracket products)."""
    return replace(params, variant="v1").components(*_coerce(pair_or_w, u, params), t)[0]


def gamma_hat_gbm_v2(pair_or_w, u=None, *, t: int, params: GbmEstimatorParams):
    """Second-variant covariance estimate (anchor minus step products)."""
    return replace(params, variant="v2").components(*_coerce(pair_or_w, u, params), t)[0]


def sigma_sq_hat_gbm(path, *, t: int, params: GbmEstimatorParams):
    """Variance estimate: the chosen variant with both series the same path.

    The first variant is a sum of squares and therefore nonnegative; the
    second is a difference of terms and can come out negative at small T.
    The raw value is returned either way so the pathology stays visible.
    """
    return params.components(path, path, t)[1]


def rho_hat_gbm(pair_or_w, u=None, *, t: int, params: GbmEstimatorParams):
    """Correlation ratio gamma_hat / (sigma_hat_W sigma_hat_U)."""
    g, s_w, s_u = params.components(*_coerce(pair_or_w, u, params), t)
    if np.any(np.asarray(s_w) < 0.0) or np.any(np.asarray(s_u) < 0.0):
        raise NegativeVarianceEstimate(
            f"negative variance estimate at t={t} (variant v2, small-T pathology)"
        )
    if np.any(np.asarray(s_w) == 0.0) or np.any(np.asarray(s_u) == 0.0):
        raise DegenerateVariance(f"zero variance estimate at t={t}")
    return g / np.sqrt(s_w * s_u)


def estimate_gbm(pair: GbmPathPair, t: int, params: GbmEstimatorParams) -> GbmEstimateSeries:
    g, s_w, s_u = params.components(*_coerce(pair, None, params), t)
    flags = []
    if s_w < 0 or s_u < 0:
        flags.append("negative_variance")
        rho = float("nan")
    elif s_w == 0 or s_u == 0:
        flags.append("degenerate_variance")
        rho = float("nan")
    else:
        rho = g / np.sqrt(s_w * s_u)
    return GbmEstimateSeries(
        t=t, gamma_hat=g, sigma_w_sq_hat=s_w, sigma_u_sq_hat=s_u,
        rho_hat=rho, flags=tuple(flags),
    )


def _coerce(pair_or_w, u, params):
    if isinstance(pair_or_w, GbmPathPair):
        if abs(pair_or_w.sigma - params.sigma) > 1e-12:
            raise DomainError("params.sigma does not match pair.sigma")
        return pair_or_w.w, pair_or_w.u
    if u is None:
        raise DomainError("need either a GbmPathPair or two driving-BM arrays")
    return np.asarray(pair_or_w, dtype=float), np.asarray(u, dtype=float)


# ---------------------------------------------------------------------------
# Correlation transform between the BM and GBM levels

def r_from_rho(rho_t: float, sigma: float, t: float) -> float:
    """BM correlation giving GBM correlation rho_t at time t."""
    if sigma <= 0 or t <= 0:
        raise DomainError("sigma and t must be positive")
    s2t = sigma ** 2 * t
    arg = 1.0 + rho_t * np.expm1(s2t)
    if arg <= 0.0:
        raise DomainError(
            f"log argument {arg!r} <= 0: rho_t must exceed -1/(e^(sigma^2 t)-1)"
        )
    return float(np.log(arg) / s2t)


def rho_from_r(r_t: float, sigma: float, t: float) -> float:
    """GBM correlation induced by BM correlation r_t at time t."""
    if sigma <= 0 or t <= 0:
        raise DomainError("sigma and t must be positive")
    s2t = sigma ** 2 * t
    return float(np.expm1(r_t * s2t) / np.expm1(s2t))


# ---------------------------------------------------------------------------
# Exact expectation formulas
#
# ``profile`` is the correlation profile of the *driving BM pair*, exactly as
# passed to the simulator.  Cross moments follow its increment coupling,
# ``Cov(W_s, U_v) = m r_m`` with ``m = min(s, v)``, so the formulas are exact
# for every feasible profile.  A variance is the covariance with ``r = 1``.

def _expected(r, t: int, params: GbmEstimatorParams, T: int):
    """``(E[gamma_hat], E[sigma_sq_hat])`` of ``params.variant`` for BM-level
    correlations ``r_1..r_T`` (or a scalar), from one build of the weights."""
    s2 = params.sigma ** 2
    t = check_index(t, T)
    norm = params.c * s2 * T
    if norm > _MAX_EXPONENT:
        raise NumericRange("c * sigma^2 * T too large for the expectation oracle")
    if params.a * s2 * T > _MAX_EXPONENT:
        raise NumericRange("a * sigma^2 * T too large for the expectation oracle")
    if params.variant == "v2" and params.b <= 2:
        warnings.warn(f"b = {params.b} <= 2: the step-product expectation series "
                      "grows with T instead of converging",
                      NonconvergentSeriesWarning, stacklevel=3)
    # anchor-anchor products carry the geometric weight sum sum_k e^{a s2 k}
    tail = float(np.exp(params.a * s2) * np.expm1(params.a * s2 * T) / np.expm1(params.a * s2))
    k = np.arange(1.0, T + 1.0)
    step = np.exp((1 - params.b) * s2 * k)
    if params.variant == "v1":
        # cross products: Cov(W_k, U_t) is k r_k before the anchor time, t r_t from it on
        w = np.exp(0.5 * (params.a - params.b) * s2 * k + 0.5 * s2 * (k + t))
        head = k < t

    def moment(r):
        r = np.broadcast_to(r, k.shape)
        # step-step products: e^{(1-b) s2 k} (e^{r_k s2 k} - 1)
        a_sum = np.sum(step * np.expm1(r * s2 * k))
        d_rho = np.exp(s2 * t) * np.expm1(r[t - 1] * s2 * t) * tail
        if params.variant == "v2":
            return float(np.exp(-norm) * (d_rho - a_sum))
        b_sum = np.sum(w[head] * (np.exp(r[head] * s2 * k[head]) - np.exp(r[head] * s2 * t)))
        c_sum = np.sum(w * np.expm1(np.where(head, r, r[t - 1]) * s2 * t))
        return float(np.exp(-norm) * (a_sum + d_rho - 2 * b_sum - 2 * c_sum))

    return moment(r), moment(1.0)


def expected_gamma_gbm_v1(
    profile: CorrelationProfile, t: int, params: GbmEstimatorParams, T: int
) -> float:
    return _expected(profile.rho(T), t, replace(params, variant="v1"), T)[0]


def expected_sigma_sq_gbm_v1(t: int, params: GbmEstimatorParams, T: int) -> float:
    return _expected(1.0, t, replace(params, variant="v1"), T)[1]


def expected_gamma_gbm_v2(
    profile: CorrelationProfile, t: int, params: GbmEstimatorParams, T: int
) -> float:
    return _expected(profile.rho(T), t, replace(params, variant="v2"), T)[0]


def expected_sigma_sq_gbm_v2(t: int, params: GbmEstimatorParams, T: int) -> float:
    return _expected(1.0, t, replace(params, variant="v2"), T)[1]


def expected_ratio_gbm(
    profile: CorrelationProfile, t: int, params: GbmEstimatorParams, T: int
) -> float:
    """E[gamma_hat] / sqrt(E[sigma_W^2] E[sigma_U^2]) for the chosen variant.

    Converges to the GBM correlation rho_t = rho_from_r(r_t, sigma, t) as T
    grows, in the respective consistency ranges.
    """
    num, den = params.oracle(profile, t, T)
    if den <= 0.0:
        raise DegenerateVariance(f"expected variance {den!r} not positive")
    return num / den

