"""Weighted dynamic-correlation estimator for Brownian pairs, with its
exact expectation formulas.

The point estimator at time ``u`` with exponents ``(q, p)`` is

    gamma_hat = (1/(T-1)) * sum_{v != u} (v^q X_u - v^-p X_v)(v^q Y_u - v^-p Y_v) / (u-v)^2

with the variance estimates obtained by squaring a single series.  It is
evaluated in anchor-centred form: with ``D_v = X_u - X_v``, ``a_v = v^q - v^-p``
and ``d_v = v^-p`` each term is ``(a_v X_u + d_v D_v)(a_v Y_u + d_v D'_v)/(u-v)^2``,
so

    (T-1) gamma_hat = X_u Y_u A + X_u <w_c, D'> + Y_u <w_c, D> + <w_d, D o D'>

with ``A = sum a_v^2/(u-v)^2``, ``w_c = a_v d_v/(u-v)^2``, ``w_d = d_v^2/(u-v)^2``
and every weight 0 at ``v = u``.  Expanding ``X_u - X_v`` instead would leave a
``X_u Y_u sum v^2q/(u-v)^2`` term that cancels against the others as T grows.
The inner products use ``np.vecdot`` and a three-operand ``np.einsum``, which
reduce each row independently, so a row gives bitwise the same value in a batch
of any shape (a BLAS matrix-vector product ``x @ w`` does not).

The expectation formulas below are exact under increment coupling
(``Cov(X_s, Y_t) = min(s, t) * rho_{min(s, t)}``), which is precisely how
``dyncorr.simulate`` generates pairs, so they serve as deterministic
oracles for Monte Carlo runs.
"""

from __future__ import annotations

import functools
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


# Rows per block of _centred_sum and of ``gbm._sums``: about 512 KB per
# deviation array, so a block stays in cache and its memory is reused.
# Whole-batch deviations are fresh pages on every call: one (256, 1e4)
# ``components`` call took 33 ms that way against 19 ms blocked (2 MB L2).
# Each row is reduced on its own, so the block size changes no result.
_BLOCK_ELEMENTS = 1 << 16


@functools.lru_cache(maxsize=2)
def _weights(T: int, u: int, q: float, p: float):
    """``(A, w_c, w_d)`` of the centred form; both arrays are 0 at ``v = u``.

    One ``components`` call and every chunk of a harness run share a build.
    """
    v = np.arange(1.0, T + 1.0)
    off = v != u
    inv_sq = np.zeros(T)
    inv_sq[off] = 1.0 / (u - v[off]) ** 2
    # v >= 1 always, so exp(q*log v) is safe for any real exponents
    damp = v ** -p
    anchor = v ** q - damp
    w_c = anchor * damp * inv_sq
    w_d = damp * damp * inv_sq
    w_c.setflags(write=False)
    w_d.setflags(write=False)
    return float(np.sum(anchor * anchor * inv_sq)), w_c, w_d


def _centred_sum(x, y, u: int, params: BmEstimatorParams):
    """(1/(T-1)) * [X_u Y_u A + X_u<w_c, D'> + Y_u<w_c, D> + <w_d, D o D'>]."""
    T = x.shape[-1]
    u = check_index(u, T)
    A, w_c, w_d = _weights(T, u, params.q, params.p)
    same = y is x
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    lead = x.shape[:-1]
    x = x.reshape(-1, T)
    y = x if same else y.reshape(-1, T)
    out = np.empty(len(x))
    step = max(1, _BLOCK_ELEMENTS // T)
    for i in range(0, len(x), step):
        xb = x[i:i + step]
        xu = xb[:, u - 1]
        dx = xu[:, None] - xb
        cx = np.vecdot(dx, w_c)
        if same:
            yu, dy, cy = xu, dx, cx
        else:
            yb = y[i:i + step]
            yu = yb[:, u - 1]
            dy = yu[:, None] - yb
            cy = np.vecdot(dy, w_c)
        out[i:i + step] = (
            xu * yu * A + xu * cy + yu * cx + np.einsum("ij,ij,j->i", dx, dy, w_d)
        )
    out /= T - 1
    return float(out[0]) if not lead else out.reshape(lead)


def gamma_hat_bm(pair_or_x, y=None, *, u: int, params: BmEstimatorParams) -> float:
    """Covariance component of the estimator at time ``u``.

    Accepts a :class:`BmPathPair` or two arrays shaped ``(..., T)``; with a
    batch the leading axes are preserved.
    """
    return _centred_sum(*_coerce_pair(pair_or_x, y), u, params)


def sigma_sq_hat_bm(path, *, u: int, params: BmEstimatorParams) -> float:
    """Variance component: the same weighted sum with both series equal."""
    x = np.asarray(path, dtype=float)
    return _centred_sum(x, x, u, params)


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
        label = params.LABELS[0] if sx <= 0.0 else params.LABELS[1]
        raise DegenerateVariance(f"series {label} has a zero variance estimate at u={u}")
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
