"""Variance-gamma density and moments.

The product of two zero-mean jointly normal variables is variance-gamma
distributed, which makes this family the exact law of the per-time product
``X_t * Y_t`` of a correlated Brownian pair.  The density and the moment
formulas here are used as independent validation targets for the moment
structure that the estimator modules rely on.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

# bessel_k is not called here; bench/spans.py traces dyncorr.vg.bessel_k
from .bessel import bessel_k, scaled_k_terms  # noqa: F401
from .errors import DomainError, NumericRange

_LN2 = math.log(2.0)
_TINY = sys.float_info.min   # the smallest normal double
_SUBNORMAL_SHIFT = 128       # even, and 2^-1074 2^128 is a normal double


@dataclass(frozen=True)
class VgParams:
    """Shape r > 0, asymmetry theta, scale sigma >= 0, location mu.

    sigma = 0 is a degenerate boundary (point-mass-like scale collapse);
    it is allowed so the product-of-normals map works at |rho| = 1, but the
    density is undefined there.
    """

    r: float
    theta: float
    sigma: float
    mu: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.r, self.theta, self.sigma, self.mu))):
            raise DomainError(f"VG parameters must be finite, got {self!r}")
        if self.r <= 0:
            raise DomainError(f"shape r must be positive, got {self.r!r}")
        if self.sigma < 0:
            raise DomainError(f"scale sigma must be >= 0, got {self.sigma!r}")

    @property
    def degenerate(self) -> bool:
        return self.sigma == 0.0

    @cached_property
    def _density_terms(self) -> tuple[float, float, float, float]:
        """``(nu, root / sigma^2, theta / sigma^2, log c)``, where ``root =
        sqrt(theta^2 + sigma^2)``, ``z = root |x - mu| / sigma^2`` and the density
        away from mu is ``c z^nu e^{theta (x - mu) / sigma^2} K_nu(z)``; built once
        per parameter set, not per point."""
        r, theta, sigma = self.r, self.theta, self.sigma
        nu = 0.5 * (r - 1.0)
        root = math.sqrt(theta * theta + sigma * sigma)
        # (dev / 2 root)^nu = z^nu (sigma^2 / 2 root^2)^nu, over sigma sqrt(pi) Gamma(r/2)
        log_norm = (-math.log(sigma * math.sqrt(math.pi)) - math.lgamma(0.5 * r)
                    + nu * (2.0 * (math.log(sigma) - math.log(root)) - _LN2))
        return nu, root / (sigma * sigma), theta / (sigma * sigma), log_norm


def vg_pdf(x: float, params: VgParams) -> float:
    """Density of VG(r, theta, sigma, mu) at x."""
    if params.degenerate:
        raise DomainError("density undefined at the sigma = 0 boundary")
    if math.isnan(x):
        raise DomainError("density undefined at x = nan")
    r, theta, sigma, mu = params.r, params.theta, params.sigma, params.mu
    nu, scale, tilt_scale, log_norm = params._density_terms
    dev = abs(x - mu)
    z = scale * dev
    if z == math.inf:   # x = +-inf, or a tail too far out to form the tilt
        return 0.0
    tilt = tilt_scale * (x - mu)
    # at mu, and wherever the O(z^2) correction to the tilted x = mu limit is
    # below rounding: there nu log(dev) and log K_nu(z) cancel to ~nu |log z| ulps
    if dev == 0.0 or z * z < 1e-16 * (nu - 1.0):
        if r <= 1.0:
            raise DomainError(
                f"density is singular at x = mu for r = {r} <= 1"
            )
        # limit from K_nu(z) ~ Gamma(nu) (2/z)^nu / 2 as z -> 0, nu > 0
        return math.exp(
            tilt + math.lgamma(nu) - math.lgamma(0.5 * r)
            + nu * math.log(sigma * sigma / (theta * theta + sigma * sigma))
        ) / (2.0 * sigma * math.sqrt(math.pi))
    # below the normal range z keeps only a few bits: the sum and nu log z take
    # it 2^128 larger, formed from dev exactly
    shift = _SUBNORMAL_SHIFT if z < _TINY else 0
    z_scaled = scale * math.ldexp(dev, shift)
    # next to mu for large r, K overflows before (dev / 2 root)^nu cancels it, so
    # e^z K_nu(z) stays e^m s; the tilt e^{theta dev / sigma^2} and the Bessel
    # decay e^{-root dev / sigma^2} cancel in the tails but overflow alone
    m, s = scaled_k_terms(abs(nu), z_scaled, shift)
    log_value = (tilt - z + log_norm
                 + nu * (math.log(z_scaled) - shift * _LN2) + m + math.log(s))
    if log_value <= -745.0:
        return 0.0
    try:
        return math.exp(log_value)
    except OverflowError:   # r < 1 next to mu: the density is above the largest double
        raise NumericRange(
            f"density {log_value:.1f} in log space at x = {x!r} exceeds the double range"
        ) from None


def vg_moments(params: VgParams) -> tuple[float, float]:
    """(mean, variance) = (mu + r*theta, r*(sigma^2 + 2*theta^2))."""
    mean = params.mu + params.r * params.theta
    var = params.r * (params.sigma ** 2 + 2.0 * params.theta ** 2)
    return mean, var


def product_normal_vg_params(sigma_x: float, sigma_y: float, rho: float) -> VgParams:
    """VG parameters of Z = X*Y for centered bivariate normal (X, Y).

    Z ~ VG(1, rho*sx*sy, sx*sy*sqrt(1-rho^2), 0); in particular
    E(Z) = rho*sx*sy and Var(Z) = (1 + rho^2) * sx^2 * sy^2.
    """
    if sigma_x <= 0 or sigma_y <= 0:
        raise DomainError("sigma_x and sigma_y must be positive")
    if abs(rho) > 1.0:
        raise DomainError(f"|rho| must be <= 1, got {rho!r}")
    scale = sigma_x * sigma_y
    return VgParams(1.0, rho * scale, scale * math.sqrt(1.0 - rho * rho), 0.0)
