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

Nothing that depends on ``u`` is cached.  The weights at ``u`` are the read-only
products ``a_v^2``, ``a_v d_v`` and ``d_v^2``, built once per ``(T, q, p)``, times
the slice ``[T-u:2T-u]`` of one read-only lag table ``1/d^2``, built once per
``T``; a call along a curve pays only its own O(T) products and sums.

Both estimator families share one row-block driver, ``_rowwise``: it builds
each path's series (here ``X_u``, ``D``, ``<w_c, D>``) once per block, reduces
gamma and both variances in that one pass, and raises :class:`NumericRange`
on a non-finite component.

The expectation formulas below are exact under increment coupling
(``Cov(X_s, Y_t) = min(s, t) * rho_{min(s, t)}``), which is precisely how
``dyncorr.simulate`` generates pairs, so they serve as deterministic
oracles for Monte Carlo runs.  Their t-independent rows are built once per
``(profile, T, q, p)``, so ``profile.rho(T)`` runs once per curve; the sums at
``t`` are one ``np.einsum`` of those rows with the same lag slice plus a tail
sum, and the expected variance is the same moment at correlation 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DegenerateVariance, DomainError, NumericRange
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
        return _rowwise(x, y, t, self._kernel)

    def oracle(self, profile: CorrelationProfile, t: int, T: int):
        """Exact ``(E[gamma_hat], E[sigma_sq_hat])`` at time ``t`` of a length-``T`` grid."""
        return _expected(profile, t, self, T)

    def _kernel(self, x, y, t: int):
        """The series ``(X_u, D, <w_c, D>)`` of a block and the centred inner product."""
        T = x.shape[-1]
        A, w_c, w_d = _weights(T, t, self.q, self.p)

        def series(rows, d):
            xu = rows[:, t - 1]
            np.subtract(xu[:, None], rows, out=d)
            return xu, d, np.vecdot(d, w_c)

        def inner(a, b):
            # (T-1) gamma_hat = X_u Y_u A + X_u <w_c, D'> + Y_u <w_c, D> + <w_d, D o D'>
            return (a[0] * b[0] * A + a[0] * b[2] + b[0] * a[2]
                    + np.einsum("ij,ij,j->i", a[1], b[1], w_d)) / (T - 1)

        return series, inner


@dataclass(frozen=True)
class EstimateSeries:
    """One estimator evaluation: components and the correlation ratio."""

    grid: TimeGrid
    u: int
    gamma_hat: float
    sigma_x_sq_hat: float
    sigma_y_sq_hat: float
    rho_hat: float


# Rows per block of ``_rowwise``, for both families: about 512 KB per
# deviation array, so a block stays in cache and its memory is reused.
# Whole-batch deviations are fresh pages on every call: one (256, 1e4)
# ``components`` call took 33 ms that way against 19 ms blocked (2 MB L2).
# Each row is reduced on its own, so the block size changes no result.
_BLOCK_ELEMENTS = 1 << 16


@functools.lru_cache(maxsize=2)
def _lags(T: int):
    """Read-only ``1/d^2`` for lags ``d = -(T-1)..T-1``, 0 at ``d = 0``.

    ``_lags(T)[T-u:2T-u]`` is ``1/(v-u)^2`` over ``v = 1..T`` (0 at ``v = u``):
    every weight at time ``u``, of the estimator and of the oracle, is a
    u-independent row times this slice.
    """
    d = np.arange(1.0 - T, float(T))
    lags = np.zeros_like(d)
    off = d != 0
    lags[off] = 1.0 / d[off] ** 2
    lags.setflags(write=False)
    return lags


@functools.lru_cache(maxsize=2)
def _products(T: int, q: float, p: float):
    """Read-only ``(a_v^2, a_v d_v, d_v^2)`` over ``v = 1..T``.

    Every chunk of a harness run and every point of a curve shares a build.
    """
    v = np.arange(1.0, T + 1.0)
    # v >= 1 always, so exp(q*log v) is safe for any real exponents
    damp = v ** -p
    anchor = v ** q - damp
    products = (anchor * anchor, anchor * damp, damp * damp)
    for arr in products:
        arr.setflags(write=False)
    return products


def _weights(T: int, u: int, q: float, p: float):
    """``(A, w_c, w_d)`` of the centred form; both arrays are 0 at ``v = u``."""
    aa, ad, dd = _products(T, q, p)
    lag = _lags(T)[T - u:2 * T - u]
    return float(np.sum(aa * lag)), ad * lag, dd * lag


def _rowwise(x, y, t: int, kernel):
    """Per-row ``(inner(S, S'), inner(S, S), inner(S', S'))`` of two ``(..., T)`` batches.

    ``kernel(x, y, t)`` sees the whole ``(rows, T)`` batch once, to build its
    weights and check its range, and returns ``series`` and ``inner``.
    ``series(block, out)`` builds a block's series ``S`` around ``out``, a
    reused ``(len(block), T)`` buffer; ``inner`` reduces two series per row.
    """
    same = y is x
    x = np.asarray(x, dtype=float)
    y = x if same else np.asarray(y, dtype=float)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    lead, T = x.shape[:-1], x.shape[-1]
    t = check_index(t, T)
    x = x.reshape(-1, T)
    y = x if same else y.reshape(-1, T)
    rows = max(1, min(len(x), _BLOCK_ELEMENTS // T))
    buf = np.empty((2, rows, T))
    out = np.empty((3, len(x)))
    # out-of-range sums become inf or nan here and are rejected below
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        series, inner = kernel(x, y, t)
        for i in range(0, len(x), rows):
            xb, yb = x[i:i + rows], y[i:i + rows]
            sx = series(xb, buf[0, :len(xb)])
            sy = sx if same else series(yb, buf[1, :len(yb)])
            out[:, i:i + rows] = inner(sx, sy), inner(sx, sx), inner(sy, sy)
    if not np.isfinite(out).all():
        raise NumericRange(f"non-finite estimator component at time {t}: the paths "
                           "are not finite or too large for the weighted sums")
    return tuple(v.reshape(lead) if lead else float(v[0]) for v in out)


def gamma_hat_bm(pair_or_x, y=None, *, u: int, params: BmEstimatorParams) -> float:
    """Covariance component of the estimator at time ``u``.

    Accepts a :class:`BmPathPair` or two arrays shaped ``(..., T)``; with a
    batch the leading axes are preserved.
    """
    return params.components(*_coerce_pair(pair_or_x, y), u)[0]


def sigma_sq_hat_bm(path, *, u: int, params: BmEstimatorParams) -> float:
    """Variance component: the same weighted sum with both series equal."""
    return params.components(path, path, u)[1]


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

def _expected(profile, t: int, params: BmEstimatorParams, T: int):
    """Exact ``(E[gamma_hat], E[sigma_sq_hat])`` at time ``t``; ``profile=None`` means rho = 1.

    Each is the four-group rearrangement

        (T-1) E[gamma_hat] = t*rho_t*K + A1 - 2*A2 + 2*A3

    with K the diverging weight sum, A1/A2 the damped correlation sums and
    A3 the tail correction sum_{s>t} s^{q-p} (s*rho_s - t*rho_t)/(s-t)^2, taken
    from one cached build of ``_oracle_rows``; the variance is the same moment
    at rho = 1.
    """
    if T < 2:
        raise DomainError("T must be >= 2")
    t = check_index(t, T)
    sigma_sq = _moment(_oracle_rows(None, T, params.q, params.p), t, T)
    if profile is None:
        return sigma_sq, sigma_sq
    return _moment(_oracle_rows(profile, T, params.q, params.p), t, T), sigma_sq


@functools.lru_cache(maxsize=2)   # the rho = 1 build and a profile's
def _oracle_rows(profile, T: int, q: float, p: float):
    """Read-only t-independent terms of the moment: the rows ``(s^2q,
    rho_s s^{1-2p}, rho_s s^{q-p+1})`` of K, A1 and A2, the tail weights
    ``s^{q-p}`` and ``g_s = s rho_s``.  ``profile=None`` stands for rho = 1.

    A profile's build scales the rho = 1 build's powers, and runs
    ``profile.rho(T)``, with its validation, once rather than once per ``t``.
    """
    if profile is None:
        s = np.arange(1.0, T + 1.0)
        terms = (np.stack([s ** (2 * q), s ** (1 - 2 * p), s ** (q - p + 1)]), s ** (q - p), s)
    else:
        rows, damp, s = _oracle_rows(None, T, q, p)
        rho = profile.rho(T)
        rows = rows.copy()
        rows[1:] *= rho
        terms = (rows, damp, s * rho)
    for arr in terms:
        arr.setflags(write=False)
    return terms


def _moment(terms, t: int, T: int) -> float:
    """``(t rho_t K + A1 - 2 A2 + 2 A3) / (T-1)`` from one build of ``_oracle_rows``."""
    rows, damp, g = terms
    lag = _lags(T)[T - t:2 * T - t]
    # einsum, not vecdot: vecdot is BLAS ddot, which OpenBLAS threads past
    # n = 1e4; on 2 cores a call that woke the threads took ~40 ms at T = 1e5,
    # against 0.5 ms single-threaded
    K, A1, A2 = np.einsum("ij,j->i", rows, lag)
    A3 = np.einsum("i,i,i->", damp[t:], g[t:] - g[t - 1], lag[t:])
    return float((g[t - 1] * K + A1 - 2 * A2 + 2 * A3) / (T - 1))


def expected_gamma_bm(
    profile: CorrelationProfile, t: int, params: BmEstimatorParams, T: int
) -> float:
    """Exact E[gamma_hat] under increment coupling."""
    return _expected(profile, t, params, T)[0]


def expected_sigma_sq_bm(t: int, params: BmEstimatorParams, T: int) -> float:
    """Exact E[sigma_sq_hat]; profile-independent (single-path moments)."""
    return _expected(None, t, params, T)[1]


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
