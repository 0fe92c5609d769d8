"""Dynamic-correlation estimators for geometric Brownian pairs.

Both variants weigh deviation products ``(e^{sigma W_k} - e^{sigma^2 k/2})``
with exponential windows controlled by (a, b, c) and rescale by
``e^{-c sigma^2 T}``.  Variance estimates follow by substituting the same
path for both series.  ``rho_hat`` then estimates the correlation between
``R_t = e^{sigma W_t}`` and ``S_t = e^{sigma U_t}``; if the driving BM pair
has correlation ``r_t`` at time t, that target is
``rho_t = (e^{r_t sigma^2 t} - 1) / (e^{sigma^2 t} - 1)``.

All weighted sums are evaluated with the common factor ``e^{-c sigma^2 T}``
folded into each term's exponent before exponentiation, so nothing larger
than the raw path exponentials is ever formed; any exponent beyond the safe
double range raises :class:`NumericRange`.  Weight tails that underflow are
dropped (they are decaying positive factors).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    DegenerateVariance,
    DomainError,
    NegativeVarianceEstimate,
    NumericRange,
)
from .profiles import CorrelationProfile
from .simulate import GbmPathPair, check_index

_MAX_EXPONENT = 700.0


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
        gamma = gamma_hat_gbm_v1 if self.variant == "v1" else gamma_hat_gbm_v2
        return (
            gamma(w, u, t=t, params=self),
            sigma_sq_hat_gbm(w, t=t, params=self),
            sigma_sq_hat_gbm(u, t=t, params=self),
        )

    def oracle(self, profile: CorrelationProfile, t: int, T: int):
        """Exact ``(E[gamma_hat], E[sigma_sq_hat])`` of this variant at time ``t``.

        ``profile`` is the driving pair's correlation profile.  The second
        variant's expected variance can be negative at small ``T``.
        """
        if self.variant == "v1":
            return (expected_gamma_gbm_v1(profile, t, self, T),
                    expected_sigma_sq_gbm_v1(t, self, T))
        return (expected_gamma_gbm_v2(profile, t, self, T),
                expected_sigma_sq_gbm_v2(t, self, T))


@dataclass(frozen=True)
class GbmEstimateSeries:
    t: int
    gamma_hat: float
    sigma_w_sq_hat: float
    sigma_u_sq_hat: float
    rho_hat: float
    flags: tuple = ()


def _check_exponents(*arrays):
    for arr in arrays:
        if np.max(arr) > _MAX_EXPONENT:
            raise NumericRange(
                f"intermediate exponent {float(np.max(arr)):.1f} exceeds the safe "
                "range for these (a, b, c, sigma, T)"
            )


def _v1_bracket(path: np.ndarray, t: int, params: GbmEstimatorParams) -> np.ndarray:
    """exp(-c s2 T / 2)-scaled bracket series for one path (shape (..., T))."""
    T = path.shape[-1]
    s2 = params.sigma ** 2
    k = np.arange(1.0, T + 1.0)
    half_norm = 0.5 * params.c * s2 * T
    m_k = -0.5 * params.b * s2 * k - half_norm   # weight on the step-k deviation
    m_t = 0.5 * params.a * s2 * k - half_norm    # weight on the anchor deviation
    sw = params.sigma * path
    _check_exponents(m_k + sw[..., None].max(initial=-np.inf),
                     m_k + 0.5 * s2 * k,
                     m_t + sw[..., t - 1, None].max(initial=-np.inf),
                     np.atleast_1d(m_t + 0.5 * s2 * t))
    with np.errstate(under="ignore"):
        return (
            np.exp(m_k + sw)
            - np.exp(m_k + 0.5 * s2 * k)
            - np.exp(m_t + sw[..., t - 1, None])
            + np.exp(m_t + 0.5 * s2 * t)
        )


def gamma_hat_gbm_v1(pair_or_w, u=None, *, t: int, params: GbmEstimatorParams):
    """First-variant covariance estimate (sum of bracket products)."""
    w, u_path = _coerce(pair_or_w, u, params)
    t = check_index(t, w.shape[-1])
    bw = _v1_bracket(w, t, params)
    bu = _v1_bracket(u_path, t, params)
    out = np.sum(bw * bu, axis=-1)
    return float(out) if out.ndim == 0 else out


def _v2_terms(w, u_path, t, params):
    T = w.shape[-1]
    s2 = params.sigma ** 2
    k = np.arange(1.0, T + 1.0)
    norm = params.c * s2 * T
    m_anchor = params.a * s2 * k - norm
    m_step = -params.b * s2 * k - norm
    sw, su = params.sigma * w, params.sigma * u_path
    _check_exponents(np.atleast_1d(m_anchor), np.atleast_1d(sw), np.atleast_1d(su),
                     np.atleast_1d(s2 * k))
    with np.errstate(under="ignore"):
        dev_w = np.exp(sw) - np.exp(0.5 * s2 * k)
        dev_u = np.exp(su) - np.exp(0.5 * s2 * k)
        anchor = dev_w[..., t - 1, None] * dev_u[..., t - 1, None]
        return np.sum(np.exp(m_anchor) * anchor - np.exp(m_step) * dev_w * dev_u,
                      axis=-1)


def gamma_hat_gbm_v2(pair_or_w, u=None, *, t: int, params: GbmEstimatorParams):
    """Second-variant covariance estimate (anchor minus step products)."""
    w, u_path = _coerce(pair_or_w, u, params)
    t = check_index(t, w.shape[-1])
    out = _v2_terms(w, u_path, t, params)
    return float(out) if out.ndim == 0 else out


def sigma_sq_hat_gbm(path, *, t: int, params: GbmEstimatorParams):
    """Variance estimate: the chosen variant with both series the same path.

    The first variant is a sum of squares and therefore nonnegative; the
    second is a difference of terms and can come out negative at small T.
    The raw value is returned either way so the pathology stays visible.
    """
    w = np.asarray(path, dtype=float)
    t = check_index(t, w.shape[-1])
    if params.variant == "v1":
        b = _v1_bracket(w, t, params)
        out = np.sum(b * b, axis=-1)
    else:
        out = _v2_terms(w, w, t, params)
    return float(out) if out.ndim == 0 else out


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
# Exact expectation formulas (constant-profile oracles)
#
# ``profile`` is the correlation profile of the *driving BM pair*, exactly as
# passed to the simulator.  Cross moments between times use the per-index
# convention of the closed-form derivation (rho_k-indexed); under increment
# coupling that is exact for constant profiles and approximate otherwise.

def _d_tail(t: int, params: GbmEstimatorParams, T: int) -> float:
    """Geometric anchor-weight sum e^{a s2} (e^{a s2 T}-1)/(e^{a s2}-1)."""
    s2 = params.sigma ** 2
    if params.a * s2 * T > _MAX_EXPONENT:
        raise NumericRange("a * sigma^2 * T too large for the expectation oracle")
    return float(np.exp(params.a * s2) * np.expm1(params.a * s2 * T)
                 / np.expm1(params.a * s2))


def _oracle_grid(t: int, params: GbmEstimatorParams, T: int):
    """sigma^2, the checked t, k = 1..T and the normalizer exponent c sigma^2 T.

    Callers fetch ``profile.rho(T)`` first: the other order costs ~3 MB peak RSS.
    """
    s2 = params.sigma ** 2
    t = check_index(t, T)
    norm = params.c * s2 * T
    if norm > _MAX_EXPONENT:
        raise NumericRange("c * sigma^2 * T too large for the expectation oracle")
    return s2, t, np.arange(1.0, T + 1.0), norm


def expected_gamma_gbm_v1(
    profile: CorrelationProfile, t: int, params: GbmEstimatorParams, T: int
) -> float:
    r = profile.rho(T)            # BM-level correlations r_1..r_T
    s2, t, k, norm = _oracle_grid(t, params, T)
    # step-step products: e^{(1-b) s2 k} (e^{r_k s2 k} - 1)
    a_sum = np.sum(np.exp((1 - params.b) * s2 * k) * np.expm1(r * s2 * k))
    # anchor-anchor products accumulate the geometric weight sum
    d_rho = np.exp(s2 * t) * np.expm1(r[t - 1] * s2 * t) * _d_tail(t, params, T)
    # cross products, split at the anchor time
    w = np.exp(0.5 * (params.a - params.b) * s2 * k + 0.5 * s2 * (k + t))
    head = k < t
    b_sum = np.sum(w[head] * (np.exp(r[head] * s2 * k[head])
                              - np.exp(r[head] * s2 * t)))
    c_sum = np.sum(w * np.expm1(r * s2 * t))
    return float(np.exp(-norm) * (a_sum + d_rho - 2 * b_sum - 2 * c_sum))


def expected_sigma_sq_gbm_v1(t: int, params: GbmEstimatorParams, T: int) -> float:
    s2, t, k, norm = _oracle_grid(t, params, T)
    e_sum = np.sum(np.exp((1 - params.b) * s2 * k) * np.expm1(s2 * k))
    d_full = np.exp(s2 * t) * np.expm1(s2 * t) * _d_tail(t, params, T)
    w = np.exp(0.5 * (params.a - params.b) * s2 * k + 0.5 * s2 * (k + t))
    head = k < t
    f_sum = np.sum(w[head] * (np.exp(s2 * k[head]) - np.exp(s2 * t)))
    g_sum = float(np.exp(0.5 * s2 * t) * np.expm1(s2 * t)
                  * np.sum(np.exp(0.5 * (params.a - params.b + 1) * s2 * k)))
    return float(np.exp(-norm) * (e_sum + d_full - 2 * f_sum - 2 * g_sum))


def expected_gamma_gbm_v2(
    profile: CorrelationProfile, t: int, params: GbmEstimatorParams, T: int
) -> float:
    r = profile.rho(T)
    _warn_if_nonconvergent(params)
    s2, t, k, norm = _oracle_grid(t, params, T)
    d_rho = np.exp(s2 * t) * np.expm1(r[t - 1] * s2 * t) * _d_tail(t, params, T)
    a_sum = np.sum(np.exp((1 - params.b) * s2 * k) * np.expm1(r * s2 * k))
    return float(np.exp(-norm) * (d_rho - a_sum))


def expected_sigma_sq_gbm_v2(t: int, params: GbmEstimatorParams, T: int) -> float:
    s2, t, k, norm = _oracle_grid(t, params, T)
    _warn_if_nonconvergent(params)
    d_full = np.exp(s2 * t) * np.expm1(s2 * t) * _d_tail(t, params, T)
    b_sum = np.sum(np.exp((1 - params.b) * s2 * k) * np.expm1(s2 * k))
    return float(np.exp(-norm) * (d_full - b_sum))


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


def _warn_if_nonconvergent(params: GbmEstimatorParams) -> None:
    if params.b <= 2:
        warnings.warn(
            f"b = {params.b} <= 2: the step-product expectation series grows "
            "with T instead of converging",
            NonconvergentSeriesWarning,
            stacklevel=3,
        )
