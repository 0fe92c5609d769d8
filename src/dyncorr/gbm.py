"""Dynamic-correlation estimators for geometric Brownian pairs.

Both variants weigh deviations ``D_k = e^{sigma W_k} - e^{sigma^2 k/2}``
with exponential windows controlled by (a, b, c) and rescale by
``e^{-c sigma^2 T}``.  Variance estimates follow by substituting the same
path for both series.  ``rho_hat`` then estimates the correlation between
``R_t = e^{sigma W_t}`` and ``S_t = e^{sigma U_t}``; if the driving BM pair
has correlation ``r_t`` at time t, that target is
``rho_t = (e^{r_t sigma^2 t} - 1) / (e^{sigma^2 t} - 1)``.

Both variants are the one form that ``bm._rowwise`` reduces for every
estimator (see ``dyncorr.bm``),

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
``(T, params)`` and cached read-only.  Each anchor is exponentiated per row
with its scale inside the exponent, so it neither overflows nor underflows
before the product.  A block whose exponents leave the safe double range
raises :class:`NumericRange` before any of them is exponentiated, and so do
sums that still overflow.  Weight tails that underflow are dropped (they are
decaying positive factors).

The oracle is the expectation of the same form, read from the same cached
terms (see ``_expected``): one call gives the covariance and the variance,
and a non-finite one raises :class:`NumericRange`.

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

from .bm import _expected_ratio, _finite_moments, _rowdot, _rowwise
from .errors import DegenerateVariance, DomainError, NegativeVarianceEstimate
from .profiles import CorrelationProfile
from .simulate import GbmPathPair, check_exponent, check_index


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

    def _kernel(self, paths, t: int):
        """This variant's terms at ``t`` for ``bm._rowwise``; a block's
        exponents are checked before any of them is exponentiated."""
        T = paths[0].shape[-1]
        sigma = self.sigma
        m_top, m, mean, scale, shift, c, A, combine = _grid(T, self)
        mean_top = shift + 0.5 * sigma ** 2 * t   # the anchor mean's exponent
        check_exponent("intermediate exponent", mean_top)
        anchor_mean = np.exp(mean_top)

        def series(rows, out):
            for x, o in zip(paths, out):
                np.multiply(x[rows], sigma, out=o)
            # anchors e^{shift} D_t, with the shift inside the exponent
            anchors = np.add(out[:, :, t - 1], shift)
            check_exponent("intermediate exponent", m_top + out.max(), anchors.max())
            np.exp(anchors, out=anchors)
            anchors -= anchor_mean
            # E = e^{m_k} D_k (v1: e^{m_k} inside the exponent) or e^{m_step/2} D_k (v2)
            if m is not None:
                out += m
            np.exp(out, out=out)
            out -= mean
            if scale is not None:
                out *= scale
            return anchors

        return series, c, A, combine


@dataclass(frozen=True)
class GbmEstimateSeries:
    t: int
    gamma_hat: float
    sigma_w_sq_hat: float
    sigma_u_sq_hat: float
    rho_hat: float
    flags: tuple = ()


@functools.lru_cache(maxsize=2)
def _grid(T: int, params: GbmEstimatorParams):
    """The t-independent, read-only terms of ``params.variant`` at length ``T``.

    ``(m_top, m, mean, scale, shift, c, A, combine)``: the series is
    ``E = (e^{m + sigma W} - mean) scale`` (``m`` or ``scale`` None for
    none), ``m_top`` the largest step exponent, the anchor is ``e^{shift} D_t``
    and ``c``, ``A`` and ``combine`` are ``bm._rowwise``'s.  v1 puts ``e^{m_k}``
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
        grid = (np.max(m_k), m_k, np.exp(m_k + 0.5 * s2 * k), None, shift, c,
                float(_rowdot(c, c)), np.add)
    else:
        m_anchor = params.a * s2 * k - params.c * s2 * T
        check_exponent("intermediate exponent", np.max(m_anchor), s2 * T)
        s = min(np.max(m_anchor), 0.0)
        grid = (0.0, None, np.exp(0.5 * s2 * k),
                np.exp(-0.5 * (params.b * s2 * k + params.c * s2 * T)), 0.5 * s, None,
                float(np.sum(np.exp(m_anchor - s))), np.subtract)
    for arr in grid:
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
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
    correlations ``r_1..r_T`` (or a scalar), from the kernel's own ``_grid``.

    The expectation of the one form: a centred lognormal pair has
    ``E[(e^X - Ee^X)(e^Y - Ee^Y)] = Ee^X Ee^Y (e^{Cov(X, Y)} - 1)``, and the
    series ``E_k`` has mean part ``scale_k mean_k`` and the anchor
    ``m_a = e^{shift + sigma^2 t/2}``, so with ``x_k = expm1(sigma^2 k r_k)``

        E[gamma] = combine(A m_a^2 x_t + 2 m_a <c mean, x_min(k,t)>,
                           <(scale mean)^2, x>).
    """
    s2 = params.sigma ** 2
    t = check_index(t, T)
    check_exponent("oracle exponent c sigma^2 T", params.c * s2 * T)
    check_exponent("oracle exponent a sigma^2 T", params.a * s2 * T)
    if params.variant == "v2" and params.b <= 2:
        warnings.warn(f"b = {params.b} <= 2: the step-product expectation series "
                      "grows with T instead of converging",
                      NonconvergentSeriesWarning, stacklevel=3)
    # one row per correlation: the profile's, then 1 for the variance
    rows = np.ones((2, T))
    rows[0] = r
    with np.errstate(over="ignore", invalid="ignore"):   # raised below
        _, _, mean, scale, shift, c, A, combine = _grid(T, params)
        x = np.expm1(s2 * np.arange(1.0, T + 1.0) * rows)
        m_a = np.exp(shift + 0.5 * s2 * t)
        if scale is not None:
            mean = mean * scale
        moments = A * m_a * m_a * x[:, t - 1]
        if c is not None:
            # Cov(W_k, U_t) = min(k, t) r_min(k, t): x_t from the anchor time on
            cross = x.copy()
            cross[:, t:] = x[:, t - 1:t]
            moments += 2 * m_a * _rowdot(cross, c * mean)
        moments = combine(moments, _rowdot(x * mean, mean))
    return _finite_moments(moments.tolist(), t)


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
    return _expected_ratio(profile, t, params, T)

