"""The one estimator form of the package, and how it is reduced.

Every estimator of the package, the Brownian one (``dyncorr.bm``) and both
geometric variants (``dyncorr.gbm``), is the one form

    gamma = a a' A + a <c, E'> + a' <c, E> +- <E, E'>

of each path's series ``E``, its anchor ``a``, the cross weights ``c`` and
a scalar anchor weight ``A``; a variance is the same form with both paths
equal.  The one row-block driver, :func:`rowwise`, reduces it for two paths
or batches of one shape (it raises :class:`DomainError` on two shapes): a
family's kernel supplies only ``(series, c, A, sign)``, and the driver forms
``h = a A/2 + <c, E>``, then ``gamma = a h' + a' h + sign <E, E'>`` and
``var = 2 a h + sign <E, E>``.  The series of both paths sit stacked in one
``(2, rows, T)`` buffer, so both variances are one reduction and the cross
term one more, and the driver raises :class:`NumericRange` on a non-finite
component.  This module knows nothing of a family: it reads a params
object's ``components``, ``curve`` and ``oracle`` only.

Every per-row sum, of both estimator families and both oracles, is one
helper, :func:`rowdot`: ``np.vecdot`` over column chunks of at most 8192,
added left to right.  A row then gives bitwise the same value in a batch of
any shape and under any BLAS thread count.  The forms it replaces or rules
out, measured with numpy 2.4.6 (OpenBLAS 0.3.31) on 2 cores:

* unchunked ``np.vecdot`` is one BLAS ``ddot`` per row, which OpenBLAS splits
  over its threads above n = 10000.  That changes the rounding with the
  thread count, and one ``estimate_bm`` call at T = 2e4 after a 50 ms pause
  took 16-18 ms against 0.9 ms on one thread (the threads' wake-up);
* a two-operand ``np.einsum`` (``"ij,ij->i"`` or ``"ij,j->i"``) is not bitwise
  equal row by row between a 6-row block and one-row calls from T = 9000 on;
* a BLAS product ``x @ w`` is not, at any T.

Every view of both families takes its two paths by one rule,
:func:`pair_paths`: anything with ``paths`` (a ``BmPathPair`` or a
``GbmPathPair``) is a pair, whose paths it reads, and otherwise the view
needs two arrays.  GBM adds one check of its own, a ``GbmPathPair``'s
``sigma`` against ``params.sigma``, in its ``params.pair_paths``.

The estimate of a pair is one whole curve, :func:`estimate_curve`: a
:class:`CurveEstimate` of read-only ``(T,)`` columns, the components,
``rho_hat`` and a flag code, built once per ``(params, pair)`` from
``params.curve`` and cached.  An entry the curve does not resolve comes
from ``params.components`` at the build, and the ratio and the codes are
formed there for every time by one rule, :func:`flag_codes`, which the
harness's replications share.  Its variance bits are
:func:`variance_faults`, the one test of a variance against zero, which
both families' ``rho_hat_*`` views and the oracle ratios read too.  The
point estimates of both families,
``bm.estimate_bm`` and ``gbm.estimate_gbm``, only index the record: its
columns are held as memoryviews, as ``bm``'s cached oracle ratio curve is,
so a point is one code and four Python floats read with no numpy call.

Every correlation ratio, of the estimates, of the ``rho_hat_*`` views and of
the harness's replications, is :func:`rho_hat`,
``gamma / sqrt(var_a) / sqrt(var_b)``.  The product ``var_a var_b`` is not
formed: it underflows to 0 while both variances are positive.  The geometric
components carry the paper's ``e^{-c sigma^2 T}``, so with ``(a, b, c) =
(1, 12, 2)`` on ``constant:0.5``, ``T = 5000``, ``sigma = 0.3`` and seed 1 the
variances at ``t = 5`` are 1.0e-195 and 3.2e-195, their product is 0.0, and
the split root gives ``rho_hat = 0.9999999999999999``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, DomainError, DyncorrError, NumericRange
from .simulate import check_index, frozen_cache

# The package's one numpy error state: every reduction, curve and oracle of
# both families runs under it.  Out-of-range sums, and the empty sum over
# 1/(T-1) at T = 1, become inf or nan and are rejected by the caller.  A
# decorator is built once, where ``with np.errstate(...)`` builds one per
# call; since numpy 2.0 it keeps each call's state token local, so the
# harness's threads share it.
quiet = np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore")

# Elements per block of ``rowwise``, for both families, and of each
# harness simulation: about 512 KB per array, so a block stays in cache and
# its memory is reused.
# Whole-batch deviations are fresh pages on every call: one (256, 1e4)
# ``components`` call took 33 ms that way against 19 ms blocked (2 MB L2).
# Each row is reduced on its own, so the block size changes no result.
_BLOCK_ELEMENTS = 1 << 16


def block_rows(T: int) -> int:
    """Rows of one ``(rows, T)`` block: ``_BLOCK_ELEMENTS // T``, at least one.

    Both :func:`rowwise` and the harness's simulate-and-reduce loop use it.
    """
    return max(1, _BLOCK_ELEMENTS // T)


# Columns per BLAS call of ``rowdot``.  OpenBLAS runs ``ddot`` on one thread
# up to n = 10000 and splits longer vectors over its threads, which changes
# the rounding with the thread count and pays a thread wake-up per call.
_DOT_CHUNK = 8192


def rowdot(a, b):
    """Per-row ``sum(a * b)`` over the last axis, ``b`` broadcast against ``a``.

    The one reduction of both estimator families and both oracles.
    Each row is ``np.vecdot`` (one BLAS ``ddot``) of column chunks of at most
    ``_DOT_CHUNK``, added left to right, so a row's value is bitwise the same
    in a batch of any shape and under any BLAS thread count.
    """
    acc = np.vecdot(a[..., :_DOT_CHUNK], b[..., :_DOT_CHUNK])
    for k in range(_DOT_CHUNK, a.shape[-1], _DOT_CHUNK):
        acc += np.vecdot(a[..., k:k + _DOT_CHUNK], b[..., k:k + _DOT_CHUNK])
    return acc


@quiet
def rowwise(x, y, t: int, kernel):
    """Per-row ``(gamma, var_x, var_y)`` of two ``(..., T)`` batches of one
    shape; batches of different shapes raise :class:`DomainError`.

    The one reduction of every estimator.  ``kernel(paths, t)`` sees the
    whole ``(n, T)`` batch of each distinct path (one when ``y is x``) once,
    to build its weights, and returns ``(series, c, A, sign)``.
    ``series(rows, out)`` writes each path's series ``E`` of the row slice
    ``rows`` into ``out``, a reused ``(len(paths), rows, T)`` buffer, and
    returns each path's ``(rows,)`` anchors ``a``; GBM's ``series`` checks
    each block's exponents there, before it exponentiates them.  ``c`` is
    the cross-weight vector or None, ``A`` the scalar anchor weight and
    ``sign`` 1.0 or -1.0.  Each block takes three reductions
    (:func:`form_sums`) and :func:`epilogue` finishes it on the block's
    arrays.  A ``(T,)``
    input is a one-row batch whose components come back as Python floats.
    A non-finite component raises :class:`NumericRange`.
    """
    same = y is x
    x, y = same_shape(x, y)
    lead, T = x.shape[:-1], x.shape[-1]
    t = check_index(t, T)
    paths = (x.reshape(-1, T),) if same else (x.reshape(-1, T), y.reshape(-1, T))
    n, rows = len(paths[0]), block_rows(T)
    buf = np.empty((len(paths), min(rows, n), T))
    series, c, A, sign = kernel(paths, t)
    out = np.empty((3, n))
    for i in range(0, n, rows):
        k = min(rows, n - i)
        E = buf[:, :k]
        a = series(slice(i, i + k), E)
        for o, v in zip(out, epilogue(a, *form_sums(E, c), A, sign)):
            o[i:i + k] = v
    if not np.isfinite(out).all():
        raise NumericRange(f"non-finite estimator component at time {t}: the paths "
                           "are not finite or too large for the weighted sums")
    return tuple(v.reshape(lead) for v in out) if lead else tuple(out[:, 0].tolist())


def same_shape(x, y):
    """``x`` and ``y`` as float arrays of one shape (``y`` stays ``x`` when it
    is); two shapes raise :class:`DomainError`."""
    x = np.asarray(x, dtype=float)
    y = x if y is x else np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DomainError(f"the two paths must have the same shape, got {x.shape} and {y.shape}")
    return x, y


def form_sums(E, c):
    """``(<c, E>, <E, E>, <E, E'>)`` over the last axis of the stacked series
    ``E`` of the form: each path's cross sum (None without ``c``) and square
    sum, and the two paths' product sum (the square sum with one path)."""
    return None if c is None else rowdot(E, c), rowdot(E, E), rowdot(E[0], E[-1])


def epilogue(a, ce, ee, cross, A: float, sign: float):
    """``(gamma, var_x, var_y)`` from each path's anchor ``a`` and the sums
    of :func:`form_sums`: ``<c, E>`` (None without cross weights),
    ``<E, E>`` and ``<E, E'>``.

    Elementwise on arrays that broadcast together: a block's ``(rows,)``
    ones, or the GBM curve's anchors over ``t`` against its sums.  With
    ``h = a A/2 + <c, E>``,

        gamma = a h' + a' h + sign <E, E'>,   var = 2 a h + sign <E, E>.

    ``p + (-1.0) q`` is bitwise ``p - q``.  With one path both are its own.
    """
    half = 0.5 * A
    a0, a1 = a[0], a[-1]
    h0, h1 = (a0 * half, a1 * half) if ce is None else (a0 * half + ce[0], a1 * half + ce[-1])
    return (a0 * h1 + a1 * h0 + sign * cross,
            2.0 * a0 * h0 + sign * ee[0], 2.0 * a1 * h1 + sign * ee[-1])


def rho_hat(gamma, var_a, var_b):
    """``gamma / sqrt(var_a) / sqrt(var_b)`` for positive variances.

    The one correlation ratio of the package (see the module docstring).
    Python floats go through ``math.sqrt``, so a per-point caller makes no
    numpy call, and arrays through ``np.sqrt``: both roots are correctly
    rounded, so the two agree bitwise.
    """
    sqrt = math.sqrt if isinstance(var_a, float) else np.sqrt
    return gamma / sqrt(var_a) / sqrt(var_b)


def pair_paths(pair_or_x, y=None, arrays: str = "two arrays") -> tuple:
    """The two paths of a view's input: ``pair_or_x.paths`` of anything that
    has them (either pair type), else ``(pair_or_x, y)``; one array without a
    second raises :class:`DomainError` asking for ``arrays``.

    The one pair rule of every view of both families.
    """
    if hasattr(pair_or_x, "paths"):
        return pair_or_x.paths
    if y is None:
        raise DomainError(f"need either a path pair or {arrays}")
    return pair_or_x, y


# |rho_hat| beyond this is out of range, not rounding: v2's variances are
# differences and bound nothing (see ``dyncorr.gbm``)
RHO_LIMIT = 1.0 + 1e-12

# The bits of a point's flag code: a variance of series a or b that is not
# positive (zero, negative or NaN) or negative, set by :func:`variance_faults`,
# and a ratio beyond ``RHO_LIMIT``, set by :func:`flag_codes`.  ``RAISES``
# alone marks a curve entry whose ``params.components`` call raised.
NOT_POSITIVE_A, NEGATIVE_A, NOT_POSITIVE_B, NEGATIVE_B, RHO_OUT_OF_RANGE, RAISES = (
    1, 2, 4, 8, 16, 32)
# a point with one of these has no ratio
VARIANCE_FAULTS = NOT_POSITIVE_A | NOT_POSITIVE_B


# the variance bits as int8 scalars: a bool array times one is an int8 array
_VARIANCE_BITS = tuple(map(np.int8, (NOT_POSITIVE_A, NEGATIVE_A, NOT_POSITIVE_B, NEGATIVE_B)))


def variance_faults(var_a, var_b):
    """The ``NOT_POSITIVE_A/B`` and ``NEGATIVE_A/B`` bits of a flag code for
    two variances, as ``int8``: a numpy scalar for Python floats, an array
    for arrays of one shape.  NaN is not positive.

    The one test of a variance against zero in the package: the codes of
    :func:`flag_codes` (the curve record's and the harness's), both
    families' ``rho_hat_*`` views and the oracle ratios read it.
    """
    not_a, neg_a, not_b, neg_b = _VARIANCE_BITS
    # ``^ True`` negates a Python bool and a bool array alike
    return (((var_a > 0.0) ^ True) * not_a | (var_a < 0.0) * neg_a
            | ((var_b > 0.0) ^ True) * not_b | (var_b < 0.0) * neg_b)


@quiet   # a variance that is not positive makes its ratio NaN or inf
def flag_codes(gamma, var_a, var_b):
    """``(rho_hat, code)`` of component arrays of one shape: the one flag rule
    of both families, of the curve estimates and of the harness.

    ``rho_hat`` is :func:`rho_hat`, NaN where a variance is not positive, and
    ``code`` an ``int8`` array: the bits of :func:`variance_faults`, and
    ``RHO_OUT_OF_RANGE`` (a ratio that is NaN is not out of range).
    """
    rho = rho_hat(gamma, var_a, var_b)
    code = variance_faults(var_a, var_b)
    np.copyto(rho, np.nan, where=(code & VARIANCE_FAULTS) != 0)
    code |= (np.abs(rho) > RHO_LIMIT).view(np.int8) * RHO_OUT_OF_RANGE
    return rho, code


@dataclass(frozen=True, eq=False)
class CurveEstimate:
    """The estimate of a pair at every time ``1..T``, of either family: the
    components, ``rho_hat`` and the flag code of :func:`flag_codes`, each a
    read-only ``(T,)`` array.

    Where ``params.components`` raised, the code is ``RAISES`` and the
    values are NaN.  The record makes the arrays it is given read-only, as
    ``simulate.frozen_cache`` does, and holds each as a memoryview in
    ``views``, whose items are Python floats (ints for ``code``), so a point
    is read with no numpy call.  Records compare by identity.
    """

    __slots__ = ("gamma_hat", "sigma_a_sq_hat", "sigma_b_sq_hat", "rho_hat", "code", "views")

    gamma_hat: np.ndarray
    sigma_a_sq_hat: np.ndarray
    sigma_b_sq_hat: np.ndarray
    rho_hat: np.ndarray
    code: np.ndarray

    def __post_init__(self):
        columns = (self.gamma_hat, self.sigma_a_sq_hat, self.sigma_b_sq_hat, self.rho_hat,
                   self.code)
        for c in columns:
            c.setflags(write=False)
        object.__setattr__(self, "views", tuple(map(memoryview, columns)))

    def __reduce__(self):   # the memoryviews do not pickle: rebuild them
        return CurveEstimate, (self.gamma_hat, self.sigma_a_sq_hat, self.sigma_b_sq_hat,
                               self.rho_hat, self.code)


def estimate_curve(pair, params) -> CurveEstimate:
    """The :class:`CurveEstimate` of ``pair`` under either family's
    ``params``, built once per ``(params, pair)`` and cached (two entries).

    The one whole-curve estimate of the package, and the one source of both
    families' point estimates, ``bm.estimate_bm`` and ``gbm.estimate_gbm``.
    Pairs hash by identity and hold read-only arrays, so an entry cannot go
    stale.  The build takes the pair's paths by ``params.pair_paths`` (GBM
    checks the pair's sigma there) and reads the whole ``params.curve``.  An
    entry of it that is not finite comes from ``params.components``, once,
    and one whose ``components`` call raises is coded ``RAISES``.  Arrays in
    place of a pair, which cannot key the cache, raise :func:`pair_paths`'
    :class:`DomainError`.
    """
    try:
        return _curve_estimate(params, pair)
    except TypeError:   # an unhashable key: arrays, or a tuple of them
        pair_paths(pair)   # raises, unless ``pair`` has paths
        raise


@frozen_cache
def _curve_estimate(params, pair) -> CurveEstimate:
    """:func:`estimate_curve`'s build."""
    paths = params.pair_paths(pair)
    gamma, var_a, var_b = columns = [np.array(c, dtype=float) for c in params.curve(*paths)]
    unresolved = ~(np.isfinite(gamma) & np.isfinite(var_a) & np.isfinite(var_b))
    raised = []
    for i in np.flatnonzero(unresolved).tolist():
        try:
            gamma[i], var_a[i], var_b[i] = params.components(*paths, i + 1)
        except DyncorrError:
            raised.append(i)
            for c in columns:
                c[i] = np.nan
    rho, code = flag_codes(gamma, var_a, var_b)
    code[raised] = RAISES
    return CurveEstimate(gamma, var_a, var_b, rho, code)


def raise_again(params, pair, t: int):
    """Raise the error of ``params.components`` at ``t`` of a point coded
    ``RAISES`` by calling it again: the pair's paths are read-only, so it
    raises as it did at the build."""
    params.components(*pair.paths, t)
    raise AssertionError(f"components at time {t} raised at the curve build only")


def finite_moments(moments: list, t: int):
    """``(E[gamma_hat], E[sigma_sq_hat])``, the first and last of either
    family's ``moments``; :class:`NumericRange` if one is not finite."""
    if not all(map(math.isfinite, moments)):
        raise NumericRange(f"non-finite expectation {moments} at time {t}: the "
                           "weighted sums are too large for a double")
    return moments[0], moments[-1]


def expected_ratio(profile, t: int, params, T: int) -> float:
    """``E[gamma_hat] / E[sigma_sq_hat]`` of either family's ``params.oracle``."""
    num, den = params.oracle(profile, t, T)
    if variance_faults(den, den):
        raise DegenerateVariance(f"expected variance {den!r} not positive")
    return num / den
