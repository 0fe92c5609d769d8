"""Weighted dynamic-correlation estimator for Brownian pairs, with its
exact expectation formulas.

The point estimator at time ``u`` with exponents ``(q, p)`` is

    gamma_hat = (1/(T-1)) * sum_{v != u} (v^q X_u - v^-p X_v)(v^q Y_u - v^-p Y_v) / (u-v)^2

with the variance estimates obtained by squaring a single series.  The
expectation formulas below are exact under increment coupling
(``Cov(X_s, Y_t) = min(s, t) * rho_{min(s, t)}``), which is precisely how
``dyncorr.simulate`` generates pairs, so they serve as deterministic
oracles for Monte Carlo runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DegenerateVariance, DomainError
from .profiles import CorrelationProfile, TimeGrid
from .simulate import BmPathPair, check_index


@dataclass(frozen=True)
class BmEstimatorParams:
    """Weight exponents q (amplification) and p (damping), both >= 0."""

    # report labels: the two series, then the key of the expectation ratio
    LABELS: ClassVar[tuple] = ("x", "y", "expected_ratio_q")

    q: float
    p: float

    def __post_init__(self):
        if not (self.q >= 0 and self.p >= 0):
            raise DomainError(f"q and p must be >= 0, got q={self.q}, p={self.p}")

    def in_consistency_range(self) -> bool:
        """Range in which the estimator is weakly consistent (p > q = 1/2)."""
        return self.q == 0.5 and self.p > 0.5

    def in_variance_decay_range(self) -> bool:
        """Range with proven variance decay (0 < q <= 1/2, p > 1/2)."""
        return 0.0 < self.q <= 0.5 and self.p > 0.5

    def components(self, x, y, t: int):
        """``(gamma_hat, sigma_x_sq_hat, sigma_y_sq_hat)`` at time ``t``.

        ``x`` and ``y`` are arrays shaped ``(..., T)``; each component keeps
        the leading axes, so a ``(reps, T)`` batch gives ``(reps,)`` arrays.
        """
        return (
            gamma_hat_bm(x, y, u=t, params=self),
            sigma_sq_hat_bm(x, u=t, params=self),
            sigma_sq_hat_bm(y, u=t, params=self),
        )

    def oracle(self, profile: CorrelationProfile, t: int, T: int):
        """Exact ``(E[gamma_hat], E[sigma_sq_hat])`` at time ``t`` of a length-``T`` grid."""
        return expected_gamma_bm(profile, t, self, T), expected_sigma_sq_bm(t, self, T)


@dataclass(frozen=True)
class EstimateSeries:
    """One estimator evaluation: components and the correlation ratio."""

    grid: TimeGrid
    u: int
    gamma_hat: float
    sigma_x_sq_hat: float
    sigma_y_sq_hat: float
    rho_hat: float


def _weights(T: int, u: int, params: BmEstimatorParams):
    v = np.arange(1.0, T + 1.0)
    mask = v != u
    v = v[mask]
    # v >= 1 always, so exp(q*log v) is safe for any real exponents
    amp = v ** params.q
    damp = v ** -params.p
    inv_sq = 1.0 / (u - v) ** 2
    return mask, amp, damp, inv_sq


def gamma_hat_bm(pair_or_x, y=None, *, u: int, params: BmEstimatorParams) -> float:
    """Covariance component of the estimator at time ``u``.

    Accepts a :class:`BmPathPair` or two arrays shaped ``(..., T)``; with a
    batch the leading axes are preserved.
    """
    x, y = _coerce_pair(pair_or_x, y)
    T = x.shape[-1]
    u = check_index(u, T)
    mask, amp, damp, inv_sq = _weights(T, u, params)
    dx = amp * x[..., u - 1, None] - damp * x[..., mask]
    dy = amp * y[..., u - 1, None] - damp * y[..., mask]
    out = np.sum(dx * dy * inv_sq, axis=-1) / (T - 1)
    return float(out) if out.ndim == 0 else out


def sigma_sq_hat_bm(path, *, u: int, params: BmEstimatorParams) -> float:
    """Variance component: the same weighted sum with both series equal."""
    x = np.asarray(path, dtype=float)
    T = x.shape[-1]
    u = check_index(u, T)
    mask, amp, damp, inv_sq = _weights(T, u, params)
    d = amp * x[..., u - 1, None] - damp * x[..., mask]
    out = np.sum(d * d * inv_sq, axis=-1) / (T - 1)
    return float(out) if out.ndim == 0 else out


def rho_hat_bm(pair_or_x, y=None, *, u: int, params: BmEstimatorParams):
    """Correlation ratio gamma_hat / (sigma_x_hat * sigma_y_hat).

    Cauchy-Schwarz over the weighted sum bounds the result by 1 in
    magnitude whenever both variance components are positive.
    """
    g, sx, sy = params.components(*_coerce_pair(pair_or_x, y), u)
    if np.any(np.asarray(sx) <= 0.0) or np.any(np.asarray(sy) <= 0.0):
        raise DegenerateVariance(
            f"zero variance estimate at u={u}; constant path has no correlation"
        )
    return g / np.sqrt(sx * sy)


def estimate_bm(pair: BmPathPair, u: int, params: BmEstimatorParams) -> EstimateSeries:
    g, sx, sy = params.components(pair.x, pair.y, u)
    if sx <= 0.0 or sy <= 0.0:
        raise DegenerateVariance(f"zero variance estimate at u={u}")
    return EstimateSeries(
        grid=pair.grid, u=u, gamma_hat=g, sigma_x_sq_hat=sx,
        sigma_y_sq_hat=sy, rho_hat=g / np.sqrt(sx * sy),
    )


def _coerce_pair(pair_or_x, y):
    if isinstance(pair_or_x, BmPathPair):
        return pair_or_x.x, pair_or_x.y
    if y is None:
        raise DomainError("need either a BmPathPair or two arrays")
    return np.asarray(pair_or_x, dtype=float), np.asarray(y, dtype=float)


# ---------------------------------------------------------------------------
# Exact expectation formulas (deterministic oracles)

def expected_gamma_bm(
    profile: CorrelationProfile, t: int, params: BmEstimatorParams, T: int
) -> float:
    """Exact E[gamma_hat] under increment coupling.

    Evaluated as the four-group rearrangement

        (T-1) E = t*rho_t*K + A1 - 2*A2 + 2*A3

    with K the diverging weight sum, A1/A2 the damped correlation sums and
    A3 the tail correction sum_{s>t} s^{q-p} (s*rho_s - t*rho_t)/(s-t)^2.
    """
    rho = profile.rho(T)
    t = check_index(t, T)
    q, p = params.q, params.p
    s = np.arange(1.0, T + 1.0)
    mask = s != t
    sm = s[mask]
    rho_m = rho[mask]
    inv_sq = 1.0 / (sm - t) ** 2
    K = np.sum(sm ** (2 * q) * inv_sq)
    A1 = np.sum(rho_m * sm ** (1 - 2 * p) * inv_sq)
    A2 = np.sum(rho_m * sm ** (q - p + 1) * inv_sq)
    tail = s > t
    A3 = np.sum(
        s[tail] ** (q - p) * (s[tail] * rho[tail] - t * rho[t - 1]) / (s[tail] - t) ** 2
    )
    return float((t * rho[t - 1] * K + A1 - 2 * A2 + 2 * A3) / (T - 1))


def expected_sigma_sq_bm(t: int, params: BmEstimatorParams, T: int) -> float:
    """Exact E[sigma_sq_hat]; profile-independent (single-path moments)."""
    if T < 2:
        raise DomainError("T must be >= 2")
    t = check_index(t, T)
    q, p = params.q, params.p
    s = np.arange(1.0, T + 1.0)
    mask = s != t
    sm = s[mask]
    inv_sq = 1.0 / (sm - t) ** 2
    K = np.sum(sm ** (2 * q) * inv_sq)
    B1 = np.sum(sm ** (1 - 2 * p) * inv_sq)
    B2 = np.sum(sm ** (q - p + 1) * inv_sq)
    tail = sm > t
    B3 = np.sum(sm[tail] ** (q - p) / (sm[tail] - t))
    return float((t * K + B1 - 2 * B2 + 2 * B3) / (T - 1))


def expected_ratio_q(
    profile: CorrelationProfile, t: int, params: BmEstimatorParams, T: int
) -> float:
    """Expectation ratio E[gamma_hat] / sqrt(E[sigma_x^2] E[sigma_y^2]).

    Converges to rho_t as T grows when p > q >= 1/2.  For a constant
    profile the ratio equals rho exactly at every T (every cross moment
    carries the same factor rho as its variance analogue); the deterministic
    convergence trend is only visible for time-varying profiles.
    """
    num, den = params.oracle(profile, t, T)
    if den <= 0.0:
        raise DegenerateVariance(f"expected variance {den!r} not positive")
    return num / den
