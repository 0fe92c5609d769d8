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
Every per-row sum, here and in ``dyncorr.gbm``, is one helper, ``_rowdot``:
``np.vecdot`` over column chunks of at most 8192, added left to right.  A row
then gives bitwise the same value in a batch of any shape and under any BLAS
thread count.  The forms it replaces or rules out, measured with numpy 2.4.6
(OpenBLAS 0.3.31) on 2 cores:

* unchunked ``np.vecdot`` is one BLAS ``ddot`` per row, which OpenBLAS splits
  over its threads above n = 10000.  That changes the rounding with the
  thread count, and one ``estimate_bm`` call at T = 2e4 after a 50 ms pause
  took 16-18 ms against 0.9 ms on one thread (the threads' wake-up);
* a two-operand ``np.einsum`` (``"ij,ij->i"`` or ``"ij,j->i"``) is not bitwise
  equal row by row between a 6-row block and one-row calls from T = 9000 on;
* a BLAS product ``x @ w`` is not, at any T.

The weights enter through their square roots: with ``e_c = a_v/|u-v|`` and
``e_d = d_v/|u-v|`` (0 at ``v = u``), ``w_c = e_c e_d``, ``w_d = e_d^2`` and
``A = <e_c, e_c>``.  So a block's series ``E = e_d D``, scaled in place, gives
``<w_d, D o D'> = <E, E'>`` with no weighted copy and no three-operand
``einsum``.  The series of both paths sit stacked in one buffer, so both
variances are one reduction and the cross term one more.

What converges: at fixed ``u`` the ``X_u Y_u A`` term dominates, because ``A``
grows like ``log T`` at ``q = 1/2`` (like ``T^(2q-1)`` above it) while the other
terms stay bounded.  So ``rho_hat`` converges in law to ``sign(X_u Y_u)``, not
in probability to ``rho_u``; only the ratio of expectations
``E[gamma_hat] / E[sigma_sq_hat]`` converges to ``rho_u``.  On ``capped:0.5,10``
at ``u = 10``, ``(q, p) = (1/2, 1)``, ``Var(rho_hat)`` measured 0.90 / 0.88 / 0.79
at T = 1e3 / 1e4 / 1e5, against the sign law's
``1 - ((2/pi) arcsin rho_u)^2 = 0.889``.

Nothing that depends on ``u`` is cached.  The weights at ``u`` are the read-only
stacked ``(a_v, d_v)``, built once per ``(T, q, p)``, times the slice
``[T-u:2T-u]`` of one read-only lag table ``1/|d|``, built once per ``T``:
``(e_c, e_d)`` is one multiply and ``A`` one reduction, so a call along a curve
pays only its own O(T) products and sums.

Both estimator families share one row-block driver, ``_rowwise``: it builds
each path's series (here ``D``) once per block, reduces gamma and both
variances in that one pass, and raises :class:`NumericRange` on a
non-finite component.

The expectation formulas below are exact under increment coupling
(``Cov(X_s, Y_t) = min(s, t) * rho_{min(s, t)}``), which is precisely how
``dyncorr.simulate`` generates pairs, so they serve as deterministic
oracles for Monte Carlo runs.  Their t-independent rows are built once per
``(profile, T, q, p)``, so ``profile.rho(T)`` runs once per curve.  A build
stacks the profile's rows on the rows at correlation 1, whose moment is the
expected variance: at ``t`` one ``_rowdot`` with the squared lag slice gives all
six sums, one more both tails, and the rest is Python float arithmetic.
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

    def _kernel(self, paths, t: int):
        """The block reduction of the centred form, with this ``t``'s weights."""
        T = paths[0].shape[-1]
        A, (e_c, e_d) = _weights(T, t, self.q, self.p)
        anchors = np.array([p[:, t - 1] for p in paths])   # X_u of every row

        def reduce(rows, buf):
            # the scaled series E = e_d (X_u - X) of each path, stacked
            d, xu = buf[0], anchors[:, rows]
            for p, out, u in zip(paths, d, xu):
                np.subtract(u[:, None], p[rows], out=out)
            d *= e_d
            # (T-1) gamma_hat = X_u Y_u A + X_u <w_c, D'> + Y_u <w_c, D> + <w_d, D o D'>
            #                 = X_u h' + Y_u h + <E, E'>,  h = X_u A/2 + <e_c, E>
            # (A and the weights carry the 1/(T-1))
            h = xu * (0.5 * A) + _rowdot(d, e_c)
            return (xu[0] * h[-1] + xu[-1] * h[0] + _rowdot(d[0], d[-1]),
                    2.0 * xu * h + _rowdot(d, d))

        return reduce


@dataclass(frozen=True)
class EstimateSeries:
    """One estimator evaluation: components and the correlation ratio."""

    grid: TimeGrid
    u: int
    gamma_hat: float
    sigma_x_sq_hat: float
    sigma_y_sq_hat: float
    rho_hat: float


# Elements per block of ``_rowwise``, for both families, and of each
# harness simulation: about 512 KB per array, so a block stays in cache and
# its memory is reused.
# Whole-batch deviations are fresh pages on every call: one (256, 1e4)
# ``components`` call took 33 ms that way against 19 ms blocked (2 MB L2).
# Each row is reduced on its own, so the block size changes no result.
_BLOCK_ELEMENTS = 1 << 16


def _block_rows(T: int) -> int:
    """Rows of one ``(rows, T)`` block: ``_BLOCK_ELEMENTS // T``, at least one.

    Both ``_rowwise`` and the harness's simulate-and-reduce loop use it.
    """
    return max(1, _BLOCK_ELEMENTS // T)


@functools.lru_cache(maxsize=2)
def _lags(T: int):
    """Read-only ``1/|d|`` for lags ``d = -(T-1)..T-1``, 0 at ``d = 0``.

    ``_lags(T)[T-u:2T-u]`` is ``1/|v-u|`` over ``v = 1..T`` (0 at ``v = u``):
    every weight at time ``u`` is a u-independent row times this slice (the
    estimator's) or its square (the oracle's).
    """
    d = np.arange(1.0 - T, float(T))
    lags = np.zeros_like(d)
    off = d != 0
    lags[off] = 1.0 / np.abs(d[off])
    lags.setflags(write=False)
    return lags


@functools.lru_cache(maxsize=2)
def _products(T: int, q: float, p: float):
    """Read-only stacked ``(a_v, d_v)`` over ``v = 1..T``, over ``sqrt(T - 1)``.

    Every block of a harness run and every point of a curve shares a build.
    """
    v = np.arange(1.0, T + 1.0)
    # v >= 1 always, so exp(q*log v) is safe for any real exponents
    damp = v ** -p
    products = np.stack([v ** q - damp, damp]) / np.sqrt(T - 1)
    products.setflags(write=False)
    return products


def _weights(T: int, u: int, q: float, p: float):
    """``(A, (e_c, e_d))`` at ``u``, with the normalizer ``1/(T-1)`` folded in.

    ``e_c = a_v/|u-v|`` and ``e_d = d_v/|u-v|`` (0 at ``v = u``) are the square
    roots of the centred form's weights: ``e_c e_d = w_c``, ``e_d^2 = w_d`` and
    ``A = <e_c, e_c>``.
    """
    weights = _products(T, q, p) * _lags(T)[T - u:2 * T - u]
    return float(_rowdot(weights[0], weights[0])), weights


# Columns per BLAS call of ``_rowdot``.  OpenBLAS runs ``ddot`` on one thread
# up to n = 10000 and splits longer vectors over its threads, which changes
# the rounding with the thread count and pays a thread wake-up per call.
_DOT_CHUNK = 8192


def _rowdot(a, b):
    """Per-row ``sum(a * b)`` over the last axis, ``b`` broadcast against ``a``.

    The one reduction of both estimator families and the Brownian oracle.
    Each row is ``np.vecdot`` (one BLAS ``ddot``) of column chunks of at most
    ``_DOT_CHUNK``, added left to right, so a row's value is bitwise the same
    in a batch of any shape and under any BLAS thread count.
    """
    if a.shape[-1] <= _DOT_CHUNK:   # one chunk: spare the slicing
        return np.vecdot(a, b)
    acc = np.vecdot(a[..., :_DOT_CHUNK], b[..., :_DOT_CHUNK])
    for k in range(_DOT_CHUNK, a.shape[-1], _DOT_CHUNK):
        acc += np.vecdot(a[..., k:k + _DOT_CHUNK], b[..., k:k + _DOT_CHUNK])
    return acc


def _rowwise(x, y, t: int, kernel):
    """Per-row ``(gamma, var_x, var_y)`` of two ``(..., T)`` batches.

    ``kernel(paths, t)`` sees the whole ``(n, T)`` batch of each distinct
    path (one when ``y is x``) once, to build its weights and check its
    range, and returns ``reduce(rows, buf)``.  ``rows`` is the slice of one
    row block and ``buf`` a reused ``(2, len(paths), rows, T)`` buffer:
    ``buf[0]`` takes the block's series of every path, stacked, and
    ``buf[1]`` is scratch (v1's anchor terms).  ``reduce`` returns the
    block's gamma and its ``(len(paths), rows)`` variances.
    """
    same = y is x
    x = np.asarray(x, dtype=float)
    y = x if same else np.asarray(y, dtype=float)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    lead, T = x.shape[:-1], x.shape[-1]
    t = check_index(t, T)
    paths = (x.reshape(-1, T),) if same else (x.reshape(-1, T), y.reshape(-1, T))
    n, rows = len(paths[0]), _block_rows(T)
    buf = np.empty((2, len(paths), min(rows, n), T))
    out = np.empty((3, n))
    # out-of-range sums, and the empty sum over 1/(T-1) at T = 1, become inf
    # or nan here and are rejected below
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        reduce = kernel(paths, t)
        for i in range(0, n, rows):
            k = min(rows, n - i)
            out[0, i:i + k], out[1:, i:i + k] = reduce(slice(i, i + k), buf[:, :, :k])
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
    rows, damp, g = _oracle_rows(profile, T, params.q, params.p)
    lag = _lags(T)[T - t:2 * T - t] ** 2
    sums = _rowdot(rows, lag).tolist()
    tails = _rowdot(g[:, t:] - g[:, t - 1:t], damp[t:] * lag[t:]).tolist()
    # python floats from here: the scalar tail costs no numpy dispatch
    moments = [(g_t * K + A1 - 2 * A2 + 2 * A3) / (T - 1)
               for g_t, (K, A1, A2), A3 in zip(g[:, t - 1].tolist(), sums, tails)]
    return moments[0], moments[-1]


@functools.lru_cache(maxsize=2)   # the rho = 1 build and a profile's
def _oracle_rows(profile, T: int, q: float, p: float):
    """Read-only t-independent terms of the moments, one group per correlation.

    Per correlation the ``(3, T)`` rows ``(s^2q, rho_s s^{1-2p}, rho_s
    s^{q-p+1})`` of K, A1 and A2 and the row ``g_s = s rho_s``; the tail
    weights ``s^{q-p}`` are shared.
    ``profile=None`` stands for rho = 1 alone; a profile's build stacks its
    own group on top of the rho = 1 group, so one call gives the covariance
    and the variance.  It scales the rho = 1 build's powers, and runs
    ``profile.rho(T)``, with its validation, once rather than once per ``t``.
    """
    if profile is None:
        s = np.arange(1.0, T + 1.0)
        terms = (np.stack([[s ** (2 * q), s ** (1 - 2 * p), s ** (q - p + 1)]]),
                 s ** (q - p), s[None])
    else:
        ones, damp, s = _oracle_rows(None, T, q, p)
        rho = profile.rho(T)
        rows = np.concatenate([ones, ones])
        rows[0, 1:] *= rho
        terms = (rows, damp, np.concatenate([s * rho, s]))
    for arr in terms:
        arr.setflags(write=False)
    return terms


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
