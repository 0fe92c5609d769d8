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

The weights enter through their square roots: with ``e_c = a_v/|u-v|`` and
``e_d = d_v/|u-v|`` (0 at ``v = u``), ``w_c = e_c e_d``, ``w_d = e_d^2`` and
``A = <e_c, e_c>``.  So a block's series ``E = e_d D``, scaled in place, gives
``<w_d, D o D'> = <E, E'>`` with no weighted copy and no three-operand
``einsum``.  The estimator is thus the package's one form (see
``dyncorr.form``), ``gamma = a a' A + a <c, E'> + a' <c, E> +- <E, E'>``,
with ``E = e_d (X_u - X)``, ``a = X_u``, ``c = e_c`` and the sign +.

What converges: at fixed ``u`` the ``X_u Y_u A`` term dominates, because ``A``
grows like ``log T`` at ``q = 1/2`` (like ``T^(2q-1)`` above it) while the other
terms stay bounded.  So ``rho_hat`` converges in law to ``sign(X_u Y_u)``, not
in probability to ``rho_u``; only the ratio of expectations
``E[gamma_hat] / E[sigma_sq_hat]`` converges to ``rho_u``.  On ``capped:0.5,10``
at ``u = 10``, ``(q, p) = (1/2, 1)``, ``Var(rho_hat)`` measured 0.90 / 0.88 / 0.79
at T = 1e3 / 1e4 / 1e5, against the sign law's
``1 - ((2/pi) arcsin rho_u)^2 = 0.889``.

``components`` caches nothing that depends on ``u``.  Every t-independent
build, here and in ``dyncorr.gbm``, sits behind ``simulate.frozen_cache``:
two entries, every array read-only.  The weights at ``u`` are the stacked
``(a_v, d_v)``, built once per ``(T, q, p)``, times the slice ``[T-u:2T-u]``
of one lag table ``1/|d|``, built once per ``T``: ``(e_c, e_d)`` is one
multiply and ``A`` one reduction, so a call pays only its own O(T) products
and sums.  A ``(T,)`` call is a one-row batch that returns Python floats, so
it also pays the block's numpy calls on ``(1,)`` arrays: 32 us at T = 50 and
43 us at T = 2000 (numpy 2.4.6, one BLAS thread, 2-core VM).

:func:`estimate_bm` reads the pair's whole curve estimate instead
(``form.estimate_curve``, built from :meth:`BmEstimatorParams.curve`,
O(T log T) by FFT, and cached per ``(params, pair)``); any pair serves, a
``GbmPathPair``'s driving paths too (a pair holds finite 1-D paths of one
length, see ``simulate.check_paths``).  :func:`rho_hat_bm` raises
:class:`DegenerateVariance` from the bits of ``form.variance_faults``, the
rule of the curve's codes.  The curve is within 2e-12 /
2e-11 / 1e-10 of the term-magnitude sum at T = 2e3 / 2e4 / 2e5, worst at
``q = 1``.  One point of a fresh pair costs the whole curve, against one
``components`` call: 0.35 ms against 0.15 at T = 2000, 3.7 against 0.2 ms
at 1e4 and 50 against 1.4 ms at 1e5 (numpy 2.4.6, one BLAS thread, 2-core
VM).  So one ``u`` over many pairs belongs in a batch ``components`` call,
as the harness makes.

The expectation formulas below are exact under increment coupling
(``Cov(X_s, Y_t) = min(s, t) * rho_{min(s, t)}``), which is precisely how
``dyncorr.simulate`` generates pairs, so they serve as deterministic
oracles for Monte Carlo runs.  Each is the expectation of the estimator's
own form, from the same ``(a_v, d_v)``: its t-independent rows are built once
per ``(profile, T, q, p)``, so ``profile.rho(T)`` runs once per curve.  A
build stacks the profile's rows on the rows at correlation 1, whose moment is
the expected variance: at ``t`` one ``rowdot`` with the squared lag slice
before ``t`` and one after it give every sum, and the moments are the oracle
curve's expression on column ``t``.  A non-finite expectation raises
:class:`NumericRange`.

Every curve's sums over ``1/d^2`` come from one convolution,
``_convolve_lags``, against one of two cached spectra of the squared lag
table: the two-sided one for the estimator curve and ``_anchor_sums``, the
causal one (``d >= 0``) for the oracle curve.
:meth:`BmEstimatorParams.oracle_curve` gives the oracle's sums at every
``t`` by one such batch of the same rows, and :func:`expected_ratio_q`
reads the ratio curve built from it, once per ``(params, profile, T)`` and
cached as a read-only memoryview column, as the estimates' curve is (see
``dyncorr.form``); an entry that is not finite comes from the per-t oracle.
One ``t`` of a fresh ``(params, profile, T)`` costs the whole curve, against one per-t
call on a fresh grid: 0.7 against 0.11 ms at T = 2000, 6.1 against 0.35 ms
at 1e4, 76 against 4.5 ms at 1e5 and 1.4 against 0.13 s at 1e6, with a peak
RSS of 441 against 176 MB (numpy 2.4.6, one BLAS thread, 2-core VM).  So
single-``t`` callers, the harness among them, belong on ``params.oracle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DegenerateVariance, DomainError
from .form import (NOT_POSITIVE_A, RAISES, VARIANCE_FAULTS, estimate_curve, expected_ratio,
                   finite_moments, pair_paths, quiet, raise_again, rho_hat, rowdot, rowwise,
                   same_shape, variance_faults)
from .profiles import CorrelationProfile
from .simulate import BmPathPair, check_finite, check_index, check_integer, frozen_cache, read_only


@dataclass(frozen=True)
class BmEstimatorParams:
    """Weight exponents q (amplification) and p (damping), both >= 0."""

    # report labels: the two series, then the key of the expectation ratio
    LABELS: ClassVar[tuple] = ("x", "y", "expected_ratio_q")

    q: float
    p: float

    def __post_init__(self):
        check_finite(q=self.q, p=self.p)
        if not (self.q >= 0 and self.p >= 0):
            raise DomainError(f"q and p must be >= 0, got q={self.q}, p={self.p}")
        # hashed once, as CorrelationProfile: every curve and oracle cache lookup
        # hashes its params.  Numbers hash the same in every process, so a pickled
        # copy stays valid.
        object.__setattr__(self, "_hash", hash((self.q, self.p)))

    def __hash__(self):
        return self._hash

    def in_consistency_range(self) -> bool:
        """Range in which the estimator is weakly consistent (p > q = 1/2)."""
        return self.q == 0.5 and self.p > 0.5

    def components(self, x, y, t: int):
        """``(gamma_hat, sigma_x_sq_hat, sigma_y_sq_hat)`` at time ``t``.

        ``x`` and ``y`` are arrays of the same shape ``(..., T)``; each
        component keeps the leading axes, so a ``(reps, T)`` batch gives
        ``(reps,)`` arrays.
        """
        return rowwise(x, y, t, self._kernel)

    def pair_paths(self, pair_or_x, y=None) -> tuple:
        """The two paths of a view's input: ``form.pair_paths``, with no check
        of its own."""
        return pair_paths(pair_or_x, y)

    def oracle(self, profile: CorrelationProfile, t: int, T: int):
        """Exact ``(E[gamma_hat], E[sigma_sq_hat])`` at time ``t`` of a length-``T`` grid."""
        return _expected(profile, t, self, T)

    @quiet   # a non-finite entry is the view's to resolve (see expected_ratio_q)
    def oracle_curve(self, profile: CorrelationProfile, T: int):
        """:meth:`oracle` at every time ``1..T``: two ``(T,)`` arrays.

        The head sums of :func:`_expected` are causal convolutions of the
        cached ``_oracle_rows`` with the lag kernel ``1/d^2``, and its tail
        sums the same of the reversed rows, so the head and reversed tail
        rows are one batch of :func:`_convolve_lags` against the cached
        causal spectrum, and the curve costs ``O(T log T)``.  Measured
        against :meth:`oracle` over ``(q, p)`` in (1/2, 1), (0, 0), (0.3, 0.8),
        (1, 2), the moments stay within ``3.5e-12`` of their term scale up to
        T = 2e4, worst at ``q = 1``.  That scale, ``g_t C[(a+d)^2] + before +
        after`` of the rows at rho = 1, bounds the magnitudes of the terms of
        both moments, since ``|rho| <= 1`` and ``|a^2 - d^2| <= (a+d)^2``.  An
        expected variance within ``_CURVE_RTOL`` of it is not resolved, and
        is NaN, as is any entry the sums make non-finite.  A constant
        profile's covariance row is its variance row times rho, term by term
        and so through the FFT too: at rho = 1/2 the ratio is exactly 1/2.
        """
        T = check_integer("T", T, least=2)
        head, tail, g = _oracle_rows(profile, T, self.q, self.p)
        sums = _convolve_lags(np.concatenate([head, tail[:, ::-1]]), T, causal=True)
        H, R = sums[:len(head)], sums[len(head):, ::-1]   # the head and tail sums
        moments = g * (H[0] + R[0]) - H[1:] + R[1:]
        var = moments[-1]
        scale = g[-1] * _anchor_sums(T, self.q, self.p) + H[-1] + R[-1]
        var[~(var > _CURVE_RTOL * scale)] = np.nan
        return moments[0], var

    @quiet   # a non-finite entry is the estimate's to resolve (see form.estimate_curve)
    def curve(self, x, y):
        """``(gamma_hat, sigma_x_sq_hat, sigma_y_sq_hat)`` at every time ``1..T``.

        Shape rules as in :meth:`components`, with a last axis over the time:
        ``(..., T)`` paths give three ``(..., T)`` arrays.  The kernel is
        expanded into convolutions with the lag kernel ``1/d^2``,

            (T-1) gamma(u) = X_u Y_u C[v^2q] - X_u C[v^(q-p) Y] - Y_u C[v^(q-p) X] + C[v^-2p X Y]

        with ``C[f](u) = sum_{v != u} f_v/(u-v)^2``, and the same with one
        path for each variance.  ``C[v^2q]`` is cached per ``(T, q, p)``; the
        five path-dependent convolutions are one zero-padded FFT batch, so
        the whole curve costs ``O(T log T)``.  The expansion cancels where
        the centred form of :meth:`components` does not: measured on
        seeded pairs over ``(q, p)`` in (1/2, 1), (1/2, 3/4), (1/4, 1),
        (1, 2), (0, 1/2), the error stays within ``2e-12`` / ``2e-11`` /
        ``1e-10`` of the term-magnitude sum at T = 2e3 / 2e4 / 2e5, worst at
        ``q = 1`` and growing like ``T``.  So a variance within
        ``1e-8`` of its terms is not resolved, and is NaN here, as is any
        entry the sums make non-finite: ``form.estimate_curve`` takes those
        entries from :meth:`components`.
        """
        x, y = same_shape(x, y)
        T = x.shape[-1]
        a, d = _products(T, self.q, self.p)
        cross = (a + d) * d                     # v^(q-p) / (T-1)
        square = d * d                          # v^-2p / (T-1)
        cx, cy, cxx, cxy, cyy = _convolve_lags(
            np.stack([cross * x, cross * y, square * x * x, square * x * y, square * y * y]), T)
        anchor = _anchor_sums(T, self.q, self.p)
        gamma = x * (y * anchor - cy) - y * cx + cxy
        variances = []
        for path, c, cc in ((x, cx, cxx), (y, cy, cyy)):
            var = path * (path * anchor - 2.0 * c) + cc
            # X_u^2 C[v^2q] + C[v^-2p X^2] is half a bound on the terms' magnitudes
            var[~(var > _CURVE_RTOL * (path * path * anchor + cc))] = np.nan
            variances.append(var)
        return gamma, *variances

    def _kernel(self, paths, t: int):
        """The centred form's terms at ``t`` for ``form.rowwise``: the series
        ``E = e_d (X_u - X)``, anchors ``X_u``, cross weights ``e_c`` and ``A``."""
        T = paths[0].shape[-1]
        A, e_c, e_d = _weights(T, t, self.q, self.p)

        def series(rows, out):
            for p, o in zip(paths, out):
                np.subtract(p[rows, t - 1:t], p[rows], out=o)
            out *= e_d
            return [p[rows, t - 1] for p in paths]

        return series, e_c, A, 1.0


@dataclass(frozen=True, slots=True)
class EstimateSeries:
    """One estimator evaluation: components and the correlation ratio."""

    gamma_hat: float
    sigma_x_sq_hat: float
    sigma_y_sq_hat: float
    rho_hat: float


# estimate_bm fills a record slot by slot through the class's member
# descriptors, past the frozen __init__: object.__new__ and four __set__ calls
# took 370 ns against 680 ns a record (Python 3.11.7, 2-core VM)
_SET_GAMMA, _SET_VAR_X, _SET_VAR_Y, _SET_RHO = (
    getattr(EstimateSeries, name).__set__ for name in EstimateSeries.__slots__)


@frozen_cache
def _lags(T: int):
    """``1/|d|`` for lags ``d = -(T-1)..T-1``, 0 at ``d = 0``.

    ``_lags(T)[T-u:2T-u]`` is ``1/|v-u|`` over ``v = 1..T`` (0 at ``v = u``):
    every weight at time ``u`` is a u-independent row times this slice (the
    estimator's) or its square (the per-t oracle's).  Its square is also the
    lag kernel of both spectra of :func:`_lag_spectrum`.
    """
    d = np.arange(1.0 - T, float(T))
    lags = np.zeros_like(d)
    off = d != 0
    lags[off] = 1.0 / np.abs(d[off])
    return lags


@frozen_cache
def _lag_spectrum(T: int, causal: bool):
    """``(n, rfft of 1/d^2 zero-padded to n)`` over the lags of ``_lags(T)``,
    or over ``d = 0..T-1`` only when ``causal``.  ``n``, the power of two of
    at least ``2T - 1``, is long enough that the circular convolution of a
    length-``T`` row with either wraps nothing onto the outputs read."""
    n = 1 << (2 * T - 2).bit_length()
    lags = _lags(T)[T - 1:] if causal else _lags(T)
    return n, np.fft.rfft(lags ** 2, n)


def _convolve_lags(f, T: int, causal: bool = False):
    """``C[f](u) = sum_{v != u} f_v/(u-v)^2`` over ``u = 1..T`` for each row of
    ``f``, by one zero-padded FFT of the whole stack; ``causal`` sums over
    ``v <= u`` only (the term at ``v = u`` is 0).  The outputs ``T-1..2T-2``
    of the two-sided convolution, and ``0..T-1`` of the causal one, are ``u =
    1..T``."""
    n, kernel = _lag_spectrum(T, causal)
    spectrum = np.fft.rfft(f, n)
    spectrum *= kernel
    lo = 0 if causal else T - 1
    return np.fft.irfft(spectrum, n)[..., lo:lo + T]


@frozen_cache
def _anchor_sums(T: int, q: float, p: float):
    """``C[v^2q] / (T-1)``: the path-independent convolution of
    :meth:`BmEstimatorParams.curve`, and the oracle curve's term scale."""
    a, d = _products(T, q, p)
    return _convolve_lags((a + d) ** 2, T)


# A curve variance within this fraction of its terms' magnitudes is rounding
# of the expansion (see ``BmEstimatorParams.curve``), left to ``components``.
_CURVE_RTOL = 1e-8


@frozen_cache
def _products(T: int, q: float, p: float):
    """Stacked ``(a_v, d_v)`` over ``v = 1..T``, over ``sqrt(T - 1)``.

    Every block of a harness run and every point of a curve shares a build.
    Every BM entry point reads it, so it holds their one ``T >= 2`` check: at
    ``T = 1`` the sum over ``v != u`` is empty and ``1/(T-1)`` has no value.
    """
    check_integer("T", T, least=2)
    v = np.arange(1.0, T + 1.0)
    # v >= 1 always, so exp(q*log v) is safe for any real exponents
    damp = v ** -p
    return np.stack([v ** q - damp, damp]) / np.sqrt(T - 1)


def _weights(T: int, u: int, q: float, p: float):
    """``(A, e_c, e_d)`` at ``u``, with the normalizer ``1/(T-1)`` folded in.

    ``e_c = a_v/|u-v|`` and ``e_d = d_v/|u-v|`` (0 at ``v = u``) are the square
    roots of the centred form's weights: ``e_c e_d = w_c``, ``e_d^2 = w_d`` and
    ``A = <e_c, e_c>``.
    """
    e_c, e_d = _products(T, q, p) * _lags(T)[T - u:2 * T - u]
    return float(rowdot(e_c, e_c)), e_c, e_d


def gamma_hat_bm(pair_or_x, y=None, *, u: int, params: BmEstimatorParams) -> float:
    """Covariance component of the estimator at time ``u``.

    Accepts a pair (``form.pair_paths``: a :class:`BmPathPair`, or a
    ``GbmPathPair``'s driving paths) or two arrays of the same shape
    ``(..., T)``; with a batch the leading axes are preserved.
    """
    return params.components(*pair_paths(pair_or_x, y), u)[0]


def sigma_sq_hat_bm(path, *, u: int, params: BmEstimatorParams) -> float:
    """Variance component: the same weighted sum with both series equal."""
    return params.components(path, path, u)[1]


def rho_hat_bm(pair_or_x, y=None, *, u: int, params: BmEstimatorParams):
    """Correlation ratio gamma_hat / (sigma_x_hat * sigma_y_hat).

    Cauchy-Schwarz over the weighted sum bounds the result by 1 in
    magnitude whenever both variance components are positive; a variance
    that is not positive (``form.variance_faults``, anywhere in a batch)
    raises :class:`DegenerateVariance`.
    """
    g, sx, sy = params.components(*pair_paths(pair_or_x, y), u)
    if np.bitwise_or.reduce(variance_faults(sx, sy), axis=None) & VARIANCE_FAULTS:
        raise DegenerateVariance(f"zero variance estimate at u={u}; "
                                 "constant path has no correlation")
    return rho_hat(g, sx, sy)


def estimate_bm(pair: BmPathPair, u: int, params: BmEstimatorParams) -> EstimateSeries:
    """The components and ``rho_hat`` of ``pair`` at ``u``, read from the pair's
    cached curve estimate (``form.estimate_curve``); a variance that is not
    positive raises :class:`DegenerateVariance` naming its series.  A BM
    estimate keeps no flag of a ratio out of range."""
    gamma, var_x, var_y, rho, code = estimate_curve(pair, params).views
    t = check_index(u, len(code)) - 1
    fault = code[t] & (VARIANCE_FAULTS | RAISES)
    if fault:
        if fault == RAISES:
            raise_again(params, pair, t + 1)
        label = params.LABELS[0] if fault & NOT_POSITIVE_A else params.LABELS[1]
        raise DegenerateVariance(f"series {label} has a zero variance estimate at u={u}")
    e = object.__new__(EstimateSeries)
    _SET_GAMMA(e, gamma[t])
    _SET_VAR_X(e, var_x[t])
    _SET_VAR_Y(e, var_y[t])
    _SET_RHO(e, rho[t])
    return e


# ---------------------------------------------------------------------------
# Exact expectation formulas (deterministic oracles)

@quiet   # out-of-range sums are raised below
def _expected(profile, t: int, params: BmEstimatorParams, T: int):
    """Exact ``(E[gamma_hat], E[sigma_sq_hat])`` at time ``t``; ``profile=None`` means rho = 1.

    The expectation of the estimator's own form at ``u = t``.  With
    ``g_s = s rho_s``, ``Cov(X_u, Y_v) = g_min(u,v)``, so ``E[a a'] = g_u``,
    ``E[a E'_v] = e_d (g_u - g_v)`` for ``v < u`` and 0 for ``v > u``, and
    ``E[E_v E'_v] = e_d^2 (g_u - g_v) sign(u - v)``.  Collected on each side
    of ``u`` with ``L = 1/(u-v)^2``,

        E = g_u (sum_{v<u} (a+d)^2 L + sum_{v>u} (a^2-d^2) L)
            - sum_{v<u} d (2a+d) g_v L + sum_{v>u} d^2 g_v L,

    one ``rowdot`` of the cached head rows and one of the tail rows, which
    :meth:`BmEstimatorParams.oracle_curve` forms at every ``t`` at once.
    """
    # before the cached builds, whose entry for an int T a float equal to it hits
    T = check_integer("T", T, least=2)
    head, tail, g = _oracle_rows(profile, T, params.q, params.p)
    t = check_index(t, T)
    # 1/(t-v)^2 over the head v < t and over the tail v > t
    lags = _lags(T)
    H = rowdot(head[:, :t - 1], lags[T - t:T - 1] ** 2)
    R = rowdot(tail[:, t:], lags[T:2 * T - t] ** 2)
    return finite_moments((g[:, t - 1] * (H[0] + R[0]) - H[1:] + R[1:]).tolist(), t)


@frozen_cache   # the rho = 1 build and a profile's
def _oracle_rows(profile, T: int, q: float, p: float):
    """The t-independent ``(head, tail, g)`` of the moments.

    ``g`` stacks ``g_s = s rho_s`` of the profile on the row at rho = 1, so one
    call gives the covariance and the variance; ``profile=None`` stands for
    rho = 1 alone.  From the estimator's ``(a, d) = _products(T, q, p)``,
    ``head = ((a+d)^2, d (2a+d) g...)`` and ``tail = (a^2-d^2, d^2 g...)``.
    ``profile.rho(T)``, with its validation, runs once rather than once per
    ``t``.  Reached only under ``form.quiet``, from :func:`_expected` and
    :meth:`BmEstimatorParams.oracle_curve`: a term out of range makes a
    moment non-finite, which the per-t view raises.
    """
    a, d = _products(T, q, p)
    s = np.arange(1.0, T + 1.0)
    g = s[None] if profile is None else np.stack([s * profile.rho(T), s])
    return (np.concatenate([[(a + d) ** 2], d * (2 * a + d) * g]),
            np.concatenate([[(a - d) * (a + d)], d * d * g]), g)


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

    Read from the grid's cached ratio curve (:func:`_oracle_curve`), as a
    Python float by one index into its memoryview column, as
    :func:`estimate_bm` reads the estimates; an entry the curve does not
    resolve comes from :meth:`BmEstimatorParams.oracle`, which returns the ratio or
    raises.  One ``t`` of a fresh ``(params, profile, T)`` costs the whole
    curve, so single-``t`` work belongs on ``params.oracle``.  The cache
    holds two keys, so interleaving three ``(profile, T, params)`` keys
    rebuilds the curve on every call: 3 profiles x 200 ``t`` at T = 2000
    took 319 ms against 0.30 ms for 2.  Every ``t`` reads the curve, first
    call or not, so a ratio never depends on the calls made before it.
    """
    T = check_integer("T", T, least=2)
    t = check_index(t, T)
    ratio = _oracle_curve(profile, T, params)[t - 1]
    return ratio if math.isfinite(ratio) else expected_ratio(profile, t, params, T)


@frozen_cache
def _oracle_curve(profile, T: int, params: BmEstimatorParams):
    """``E[gamma_hat] / E[sigma_sq_hat]`` at every time ``1..T``, from
    :meth:`BmEstimatorParams.oracle_curve`: NaN where that curve is.  A
    read-only float64 memoryview column (``simulate.read_only``), as the
    columns of ``form.estimate_curve``."""
    num, den = params.oracle_curve(profile, T)
    return memoryview(read_only(num / den))
