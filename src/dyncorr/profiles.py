"""Target correlation profiles on the integer time grid.

A profile fixes the dynamic correlation ``rho_t`` between the two paths at
every grid point ``t = 1..T``.  Path pairs are generated by increment
coupling: step ``i`` uses a Gaussian increment pair with correlation

    r_i = i * rho_i - (i - 1) * rho_{i-1},        rho_0 := 0,

so that the cumulative cross-covariance is ``Cov(X_s, Y_t) =
min(s, t) * rho_{min(s, t)}`` exactly.  A profile is only usable when every
``r_i`` lies in [-1, 1]; anything else is rejected at construction.

:func:`build_profile` takes a profile or its text form, ``kind:v1,v2,...``
as :meth:`CorrelationProfile.spec_string` writes it, and validates it
against a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IncrementInfeasible, ProfileOutOfRange

# Slack for values that land on the boundary only up to rounding.
_EDGE_TOL = 1e-12

# kind: (parameter count, rho over t = 1..T from t and the parameters); a
# table profile holds its values instead.
_SHAPES = {
    "constant": (1, lambda t, c: np.full(t.size, float(c))),
    "linear": (2, lambda t, c0, c1: c0 + c1 * t),
    "capped": (2, lambda t, c, t0: c * np.minimum(t, float(t0)) / t),
}


@dataclass(frozen=True)
class TimeGrid:
    """Unit-spaced integer grid t = 1..T."""

    T: int

    def __post_init__(self):
        if not isinstance(self.T, (int, np.integer)) or self.T < 2:
            raise DomainError(f"grid length must be an integer >= 2, got {self.T!r}")

    @property
    def times(self) -> np.ndarray:
        return np.arange(1, self.T + 1)


@dataclass(frozen=True)
class CorrelationProfile:
    """Validated dynamic-correlation target.

    ``kind`` is one of ``constant``, ``linear``, ``table``, ``capped``.
    ``capped`` is the named built-in time-varying shape
    ``rho_t = c * min(t, t0) / t`` (correlation accrues at constant rate c
    up to time t0 and is frozen afterwards); it is the stock example of a
    feasible profile whose correlation genuinely changes over time.
    """

    kind: str
    params: tuple = ()
    table: tuple = field(default=(), repr=False)

    def __post_init__(self):
        # tuples keep the profile hashable: the BM oracle caches its build per profile
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "table", tuple(self.table))
        if self.kind == "table":
            if len(self.table) < 2:
                raise DomainError(f"table profile needs at least 2 values, got {len(self.table)}")
        elif self.kind not in _SHAPES:
            raise DomainError(f"unknown profile kind {self.kind!r}")
        elif len(self.params) != _SHAPES[self.kind][0]:
            raise DomainError(f"profile kind {self.kind!r} takes {_SHAPES[self.kind][0]} "
                              f"parameter(s), got {len(self.params)}")
        # hashed once: a cache lookup would otherwise walk the whole table.
        # Numbers hash the same in every process, so a pickled copy stays valid.
        object.__setattr__(self, "_hash", hash((self.params, self.table)))

    def __hash__(self):
        return self._hash

    def rho(self, T: int) -> np.ndarray:
        """Correlation values rho_1..rho_T (validated)."""
        if self.kind != "table":
            values = _SHAPES[self.kind][1](np.arange(1, T + 1, dtype=float), *self.params)
        elif T > len(self.table):
            raise DomainError(f"table profile has {len(self.table)} values, {T} requested")
        else:
            values = np.asarray(self.table[:T], dtype=float)
        _check_unit(values, ProfileOutOfRange)
        return values

    def increments(self, T: int) -> np.ndarray:
        """Per-step increment correlations r_1..r_T (validated)."""
        return _increments(self.rho(T))

    def spec_string(self) -> str:
        """Round-trippable text form, also used in manifests."""
        if self.kind == "table":
            return "table:" + ",".join(repr(v) for v in self.table)
        return self.kind + ":" + ",".join(repr(float(p)) for p in self.params)


def _increments(rho: np.ndarray) -> np.ndarray:
    t = np.arange(1, len(rho) + 1, dtype=float)
    gamma = t * rho  # cumulative covariance t * rho_t, with rho_0 := 0
    r = np.diff(gamma, prepend=0.0)
    _check_unit(r, IncrementInfeasible)
    return np.clip(r, -1.0, 1.0)


def _check_unit(values: np.ndarray, error) -> None:
    """Raise ``error(i, value)`` at the first 1-based ``i`` whose value is not
    in [-1, 1] up to rounding, a NaN included."""
    bad = np.flatnonzero(~(np.abs(values) <= 1.0 + _EDGE_TOL))
    if bad.size:
        raise error(int(bad[0]) + 1, float(values[bad[0]]))


def build_profile(spec: CorrelationProfile | str, grid: TimeGrid) -> CorrelationProfile:
    """Construct and validate a profile against a grid.

    ``spec`` is a :class:`CorrelationProfile` or its text form
    (``"constant:0.5"``, ``"linear:0.1,0.02"``, ``"capped:0.5,10"``,
    ``"table:v1,v2,..."``); a table must have one value per grid point.
    """
    if not isinstance(spec, (CorrelationProfile, str)):
        raise DomainError(f"profile must be a CorrelationProfile or a spec string, got {spec!r}")
    profile = spec if isinstance(spec, CorrelationProfile) else _parse_spec_string(spec)
    if profile.kind == "table" and len(profile.table) != grid.T:
        raise DomainError(
            f"table length {len(profile.table)} does not match grid T={grid.T}"
        )
    # Materializing runs both range and feasibility validation.
    profile.increments(grid.T)
    return profile


def _parse_spec_string(text: str) -> CorrelationProfile:
    """The profile a spec string names; any error names the spec."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    try:
        params = tuple(float(v) for v in rest.split(",")) if rest else ()
        if kind == "table":
            return CorrelationProfile("table", table=params)
        return CorrelationProfile(kind, params)
    except (DomainError, ValueError) as exc:
        raise DomainError(f"cannot parse profile spec {text!r}: {exc}") from None
