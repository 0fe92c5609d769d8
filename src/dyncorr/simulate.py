"""Correlated path-pair generation on the integer grid.

RNG policy: every path pair is drawn from a Philox counter-based bit
generator seeded through ``numpy.random.SeedSequence``.  Replication ``i``
of a run with master seed ``s`` uses ``SeedSequence(s, spawn_key=(i,))``,
so serial and parallel sweeps produce identical streams.  Gaussians come
from ``Generator.standard_normal`` (numpy's ziggurat); given the pinned
generator this is bitwise reproducible per platform.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IndexOutOfRange, NumericRange, PathOverflow
from .profiles import CorrelationProfile, TimeGrid

# exp() overflows just above 709; leave headroom for products of two paths.
_MAX_EXPONENT = 700.0


def check_exponent(what: str, *values, error=NumericRange) -> None:
    """Raise ``error`` on the first of ``values`` above ``_MAX_EXPONENT``.

    The one guard for every exponent the package exponentiates: path
    transforms, estimator weights and series, oracles and harness checks.
    """
    for value in values:
        if value > _MAX_EXPONENT:
            raise error(f"{what} = {float(value):.1f} exceeds the safe exponent range")


@dataclass(frozen=True)
class BmPathPair:
    """Sampled correlated Brownian pair X_1..X_T, Y_1..Y_T."""

    grid: TimeGrid
    x: np.ndarray
    y: np.ndarray
    profile: CorrelationProfile | None   # None for a pair read from a file
    seed: int | None


@dataclass(frozen=True)
class GbmPathPair:
    """Geometric pair R = exp(sigma*W), S = exp(sigma*U) with its driving BM."""

    grid: TimeGrid
    r_path: np.ndarray
    s_path: np.ndarray
    w: np.ndarray
    u: np.ndarray
    sigma: float
    profile: CorrelationProfile | None   # None for a pair read from a file
    seed: int | None


def replication_rng(master_seed: int, replication: int = 0) -> np.random.Generator:
    """Deterministic per-replication generator (see module docstring)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(replication,))
    return np.random.Generator(np.random.Philox(ss))


@functools.lru_cache(maxsize=2)
def _coupling(profile: CorrelationProfile, T: int):
    """Read-only increment correlations ``r`` and ``sqrt(1 - r*r)`` of a profile.

    Built once per ``(profile, T)``, so the harness's row blocks share a build.
    """
    r = profile.increments(T)
    coupling = (r, np.sqrt(1.0 - r * r))
    for arr in coupling:
        arr.setflags(write=False)
    return coupling


def _bm_into(coupling, rng: np.random.Generator, z: np.ndarray,
             x: np.ndarray, y: np.ndarray) -> None:
    """Write one pair into ``x`` and ``y``; its normals go into the ``(2, T)`` buffer ``z``."""
    r, r_perp = coupling
    rng.standard_normal(out=z)
    np.cumsum(z[0], out=x)
    # dy = r dx + r_perp z1; r = 1 gives dy identical to dx bitwise (the r_perp term is 0)
    z[0] *= r
    z[1] *= r_perp
    z[1] += z[0]
    np.cumsum(z[1], out=y)


def simulate_bm_pair(
    profile: CorrelationProfile, grid: TimeGrid, seed: int, replication: int = 0
) -> BmPathPair:
    """Generate one correlated BM pair by increment coupling."""
    x = np.empty(grid.T)
    y = np.empty(grid.T)
    _bm_into(_coupling(profile, grid.T), replication_rng(seed, replication),
             np.empty((2, grid.T)), x, y)
    x.setflags(write=False)
    y.setflags(write=False)
    return BmPathPair(grid=grid, x=x, y=y, profile=profile, seed=seed)


def simulate_bm_batch(
    profile: CorrelationProfile, grid: TimeGrid, seed: int, reps: int,
    rep_offset: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack ``reps`` independent pairs into (reps, T) arrays.

    Row ``i`` is bitwise identical to ``simulate_bm_pair(..., replication=
    rep_offset + i)``, whatever the batching, so chunked or parallel sweeps
    agree with serial ones.
    """
    coupling = _coupling(profile, grid.T)
    z = np.empty((2, grid.T))
    x = np.empty((reps, grid.T))
    y = np.empty((reps, grid.T))
    for i in range(reps):
        _bm_into(coupling, replication_rng(seed, rep_offset + i), z, x[i], y[i])
    return x, y


def simulate_gbm_pair(bm: BmPathPair, sigma: float) -> GbmPathPair:
    """Exponentiate a BM pair into a GBM pair, keeping the driving paths."""
    r_path, s_path = gbm_transform(bm.x, bm.y, sigma)
    r_path.setflags(write=False)
    s_path.setflags(write=False)
    return GbmPathPair(
        grid=bm.grid, r_path=r_path, s_path=s_path, w=bm.x, u=bm.y,
        sigma=float(sigma), profile=bm.profile, seed=bm.seed,
    )


def gbm_transform(w: np.ndarray, u: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    check_exponent("max |sigma*W_t|", sigma * max(np.abs(w).max(), np.abs(u).max()),
                   error=PathOverflow)
    return np.exp(sigma * w), np.exp(sigma * u)


def check_index(u: int, T: int) -> int:
    if not 1 <= u <= T:
        raise IndexOutOfRange(f"time index {u} outside grid 1..{T}")
    return int(u)
