"""Correlated path-pair generation on the integer grid.

RNG policy: every path pair is drawn from a Philox counter-based bit
generator keyed by ``numpy.random.SeedSequence``.  Replication ``i`` of a run
with master seed ``s`` uses the stream of
``Philox(SeedSequence(s, spawn_key=(i,)))``, so serial and parallel sweeps
produce identical streams.  One stream maker, :func:`_streams`, sets each
replication's key, ``SeedSequence(s, spawn_key=(i,)).generate_state(2,
np.uint64)``, in turn on one reused ``Philox`` through its ``state``.
Gaussians come from ``Generator.standard_normal`` (numpy's
ziggurat); given the pinned generator this is bitwise reproducible per
platform.

A pair of length ``T`` is made from the first ``2T`` normals of its stream:
x is the cumulative sum of the first ``T``, y is coupled to it through the
next ``T``.  The normals are drawn in order, so the first ``2T`` of a longer
draw are the same numbers.  One row generator, :func:`simulate_bm_blocks`,
makes the pairs of several lengths from one draw of ``2 max(T)`` normals
per replication: the harness sweeps its ``T_list`` with it, and
:func:`simulate_bm_batch` is its one-length case.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IndexOutOfRange, NumericRange, PathOverflow
from .profiles import CorrelationProfile, TimeGrid

# exp() overflows just above 709; leave headroom for products of two paths.
MAX_EXPONENT = 700.0


def check_exponent(what: str, *values, error=NumericRange) -> None:
    """Raise ``error`` on the first of ``values`` above ``MAX_EXPONENT``.

    The one guard for every exponent the package exponentiates: path
    transforms, estimator weights and series, oracles and harness checks.
    """
    for value in values:
        if value > MAX_EXPONENT:
            raise error(f"{what} = {float(value):.1f} exceeds the safe exponent range")


def check_finite(**values) -> None:
    """Raise :class:`DomainError` naming the first of ``values`` that is not
    finite: the guard of every real parameter the package takes, where a NaN
    or an infinity can pass a range check."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def check_paths(**paths) -> None:
    """Raise :class:`DomainError` naming the first of ``paths`` (arrays) that
    is not one-dimensional, is empty, differs in length from the first or is
    not finite: the one rule of the paths of both pair types."""
    T = None
    for name, path in paths.items():
        if path.ndim != 1 or not path.size:
            raise DomainError(f"{name} must be a non-empty one-dimensional path, "
                              f"got shape {path.shape}")
        T = T or len(path)
        if len(path) != T:
            raise DomainError(f"{name} has {len(path)} values where the pair's first path "
                              f"has {T}")
        bad = np.flatnonzero(~np.isfinite(path))
        if bad.size:
            raise DomainError(f"{name} must be finite, got {path[bad[0]]} at index {bad[0]}")


def check_correlation(**values) -> None:
    """Raise :class:`DomainError` naming the first of ``values`` that is not
    finite, then the first outside ``[-1, 1]``: the guard of every scalar
    correlation the package takes."""
    check_finite(**values)
    for name, value in values.items():
        if abs(value) > 1.0:
            raise DomainError(f"|{name}| must be <= 1, got {value!r}")


def check_positive(**values) -> None:
    """Raise :class:`DomainError` naming the first of ``values`` that is not
    finite, then the first that is not above 0: the one guard of every
    volatility, time and shape that must be positive."""
    check_finite(**values)
    for name, value in values.items():
        if value <= 0:
            raise DomainError(f"{name} must be positive, got {value!r}")


def read_only(values) -> np.ndarray:
    """``values`` as a read-only float array: itself if it already is one that
    owns its memory, else a copy, so that no later write by the caller
    reaches it (a read-only view can share a writable array's memory).

    The one read-only copy rule of the package: the paths of both pair
    types, and the column of ``bm``'s cached oracle ratio curve.
    """
    arr = np.asarray(values, dtype=float)
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def frozen_cache(build):
    """``build`` behind ``functools.lru_cache(maxsize=2)``, with every array of
    its result read-only: the result itself, or each member of a tuple result.

    The one cache of the package's t-independent builds (lag tables, weights,
    oracle rows, the GBM grid, the increment coupling), which every row block
    and curve point shares, so no caller can write into another's entry.  The
    cache is outermost: a hit returns the entry without entering the wrapper,
    and ``cache_clear`` works as on any ``lru_cache``.
    """
    @functools.wraps(build)
    def frozen(*args):
        result = build(*args)
        for arr in result if isinstance(result, tuple) else (result,):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        return result

    return functools.lru_cache(maxsize=2)(frozen)


# A pair hashes by identity (eq=False) and holds read-only arrays, so the
# curve estimate cached per pair (``form.estimate_curve``) cannot go stale.

@dataclass(frozen=True, eq=False)
class BmPathPair:
    """Correlated Brownian pair X_1..X_T, Y_1..Y_T, sampled or read from a file.

    The paths are stored read-only; an input array that is writable, or a
    view, is copied.  Paths that :func:`check_paths` refuses raise
    :class:`DomainError`.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", read_only(self.x))
        object.__setattr__(self, "y", read_only(self.y))
        check_paths(x=self.x, y=self.y)

    @property
    def paths(self) -> tuple:
        """The two paths the estimators read: ``(x, y)``."""
        return self.x, self.y


@dataclass(frozen=True, eq=False)
class GbmPathPair:
    """Geometric pair R = exp(sigma*W), S = exp(sigma*U) with its driving BM.

    The paths are stored read-only; an input array that is writable, or a
    view, is copied.  Paths that :func:`check_paths` refuses, and a sigma
    that is not finite and positive, raise :class:`DomainError`.
    """

    r_path: np.ndarray
    s_path: np.ndarray
    w: np.ndarray
    u: np.ndarray
    sigma: float

    def __post_init__(self):
        names = ("r_path", "s_path", "w", "u")
        for name in names:
            object.__setattr__(self, name, read_only(getattr(self, name)))
        check_paths(**{name: getattr(self, name) for name in names})
        check_positive(sigma=self.sigma)

    @property
    def paths(self) -> tuple:
        """The two driving paths the estimators read: ``(w, u)``."""
        return self.w, self.u


def _streams(seed: int, replications: range):
    """Yield, for each of ``replications`` in turn, a generator at the start of
    its stream (see the module docstring).

    The one stream maker of the package: every yield is the same
    ``Generator``, over one ``Philox`` whose key is set through its ``state``
    (counter 0, empty buffer), so a caller draws from one stream before it
    asks for the next.  A seed that is not an integer, and a negative seed
    or replication, raise :class:`DomainError`: the one seed rule of every
    stream.
    """
    seed = check_integer("seed", seed)
    if seed < 0 or replications.start < 0:
        raise DomainError("seed and replication must be >= 0, got "
                          f"seed={seed!r}, replication={replications.start!r}")
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    state = bits.state
    for i in replications:
        key = np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)
        state["state"]["key"] = key
        bits.state = state
        yield rng


def replication_rng(master_seed: int, replication: int = 0) -> np.random.Generator:
    """Deterministic per-replication generator (see module docstring).

    A seed or replication that is not an integer, or is negative, raises
    :class:`DomainError`."""
    replication = check_integer("replication", replication)
    return next(_streams(master_seed, range(replication, replication + 1)))


@frozen_cache
def _coupling(profile: CorrelationProfile, T: int):
    """Increment correlations ``r`` and ``sqrt(1 - r*r)`` of a profile.

    Built once per ``(profile, T)``, so the harness's row blocks share a build.
    """
    r = profile.increments(T)
    return r, np.sqrt(1.0 - r * r)


def simulate_bm_pair(
    profile: CorrelationProfile, grid: TimeGrid, seed: int, replication: int = 0
) -> BmPathPair:
    """Generate one correlated BM pair: the one row of a one-row
    :func:`simulate_bm_batch` at ``replication``."""
    x, y = simulate_bm_batch(profile, grid, seed, 1, replication)
    return BmPathPair(x[0], y[0])


def simulate_bm_batch(
    profile: CorrelationProfile, grid: TimeGrid, seed: int, reps: int,
    rep_offset: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack ``reps`` independent pairs into (reps, T) arrays by increment coupling.

    Row ``i`` draws only from replication ``rep_offset + i``'s stream, so it
    is bitwise the same in a batch of any size or offset, and at the same
    length of any sweep: chunked and parallel sweeps agree with serial ones,
    and :func:`simulate_bm_pair` is a one-row batch.  It is the one-length,
    one-block case of :func:`simulate_bm_blocks`.
    """
    reps = check_integer("reps", reps, 0)
    rep_offset = check_integer("rep_offset", rep_offset, 0)
    for _, x, y in simulate_bm_blocks(profile, (grid.T,), (reps,), seed,
                                      range(rep_offset, rep_offset + reps)):
        return x, y
    return np.empty((0, grid.T)), np.empty((0, grid.T))


def simulate_bm_blocks(profile: CorrelationProfile, lengths: tuple, rows: tuple, seed: int,
                       replications: range):
    """Yield ``(k, x, y)``: the ``(n, lengths[k])`` pairs of the next block of at
    most ``rows[k]`` consecutive ``replications`` at length ``lengths[k]``.

    The one row generator of the package (see the module docstring), for
    checked arguments; ``lengths`` ascend.  Each replication opens its stream
    once and draws ``2 max(lengths)`` normals into one buffer; at each length
    ``T`` its x is the cumulative sum of the first ``T`` and its y is coupled
    through the next ``T``.  A block is yielded as soon as its last row is
    written and is not held after that, so each length's blocks come in
    replication order.
    """
    couplings = [_coupling(profile, T) for T in lengths]
    z = np.empty(2 * lengths[-1])           # one replication's normals, reused
    dz = np.empty((2, lengths[-1]))         # its coupled y increments
    n = len(replications)
    blocks = [None] * len(lengths)
    for j, rng in enumerate(_streams(seed, replications)):
        rng.standard_normal(out=z)
        for k, T in enumerate(lengths):
            (r, r_perp), i = couplings[k], j % rows[k]
            if not i:
                size = min(rows[k], n - j)
                blocks[k] = np.empty((size, T)), np.empty((size, T))
            x, y = blocks[k]
            np.cumsum(z[:T], out=x[i])
            # dy = r dx + r_perp z1; r = 1 gives dy identical to dx bitwise (the r_perp term is 0)
            np.multiply(z[:T], r, out=dz[0, :T])
            np.multiply(z[T:2 * T], r_perp, out=dz[1, :T])
            dz[1, :T] += dz[0, :T]
            np.cumsum(dz[1, :T], out=y[i])
            if i + 1 == len(x):
                blocks[k] = None
                yield k, x, y


def simulate_gbm_pair(bm: BmPathPair, sigma: float) -> GbmPathPair:
    """Exponentiate a BM pair into a GBM pair, keeping the driving paths."""
    return GbmPathPair(*gbm_transform(bm.x, bm.y, sigma), bm.x, bm.y, float(sigma))


def gbm_transform(w: np.ndarray, u: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """``(e^{sigma w}, e^{sigma u})`` of two driving paths.

    ``sigma |w|`` or ``sigma |u|`` beyond ``MAX_EXPONENT``, an infinite
    value too, raises :class:`PathOverflow`, and a NaN in either path
    :class:`DomainError` naming it.
    """
    check_positive(sigma=sigma)
    top_w, top_u = np.abs(w).max(), np.abs(u).max()   # NaN where a path holds one
    check_exponent("max |sigma*W_t|", sigma * top_w, sigma * top_u, error=PathOverflow)
    check_finite(w=float(top_w), u=float(top_u))
    return np.exp(sigma * w), np.exp(sigma * u)


def check_index(u: int, T: int) -> int:
    """``u`` as a Python int; a time that is not a Python or numpy integer,
    or lies outside ``1..T``, raises :class:`IndexOutOfRange`."""
    try:
        t = operator.index(u)
    except TypeError:
        raise IndexOutOfRange(f"time index {u!r} is not an integer") from None
    if not 1 <= t <= T:
        raise IndexOutOfRange(f"time index {t} outside grid 1..{T}")
    return t


def check_integer(name: str, value, least: int | None = None, most: int | None = None) -> int:
    """``value`` as a Python int; a size, count, time or seed that is not a
    Python or numpy integer, or lies below ``least`` or above ``most``, raises
    :class:`DomainError` naming it."""
    try:
        n = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and n < least:
        raise DomainError(f"{name} must be >= {least}, got {n}")
    if most is not None and n > most:
        raise DomainError(f"{name} must be <= {most}, got {n}")
    return n
