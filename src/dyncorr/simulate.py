"""Correlated path-pair generation on the integer grid.

RNG policy: every path pair is drawn from a Philox counter-based bit
generator seeded through ``numpy.random.SeedSequence``.  Replication ``i``
of a run with master seed ``s`` uses ``SeedSequence(s, spawn_key=(i,))``,
so serial and parallel sweeps produce identical streams.  Gaussians come
from ``Generator.standard_normal`` (numpy's ziggurat); given the pinned
generator this is bitwise reproducible per platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IndexOutOfRange, PathOverflow
from .profiles import CorrelationProfile, TimeGrid

# exp() overflows just above 709; leave headroom for products of two paths.
_MAX_EXPONENT = 700.0


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


def _bm_into(r: np.ndarray, r_perp: np.ndarray, rng: np.random.Generator,
             x: np.ndarray, y: np.ndarray) -> None:
    """Write one pair into ``x`` and ``y``; ``r_perp`` is ``sqrt(1 - r*r)``."""
    z = rng.standard_normal((2, len(r)))
    dx = z[0]
    # r = 1 gives dy identical to dx bitwise (sqrt(0) term vanishes exactly)
    np.cumsum(dx, out=x)
    np.cumsum(r * dx + r_perp * z[1], out=y)


def simulate_bm_pair(
    profile: CorrelationProfile, grid: TimeGrid, seed: int, replication: int = 0
) -> BmPathPair:
    """Generate one correlated BM pair by increment coupling."""
    r = profile.increments(grid.T)
    x = np.empty(grid.T)
    y = np.empty(grid.T)
    _bm_into(r, np.sqrt(1.0 - r * r), replication_rng(seed, replication), x, y)
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
    r = profile.increments(grid.T)
    r_perp = np.sqrt(1.0 - r * r)
    x = np.empty((reps, grid.T))
    y = np.empty((reps, grid.T))
    for i in range(reps):
        _bm_into(r, r_perp, replication_rng(seed, rep_offset + i), x[i], y[i])
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
    peak = sigma * max(np.abs(w).max(), np.abs(u).max())
    if peak > _MAX_EXPONENT:
        raise PathOverflow(
            f"max |sigma*W_t| = {peak:.1f} exceeds the safe exponent range; "
            "lower sigma or T"
        )
    return np.exp(sigma * w), np.exp(sigma * u)


def check_index(u: int, T: int) -> int:
    if not 1 <= u <= T:
        raise IndexOutOfRange(f"time index {u} outside grid 1..{T}")
    return int(u)
