"""Variance-gamma density and moments.

The product of two zero-mean jointly normal variables is variance-gamma
distributed, which makes this family the exact law of the per-time product
``X_t * Y_t`` of a correlated Brownian pair.  The density and the moment
formulas here are used as independent validation targets for the moment
structure that the estimator modules rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bessel import bessel_k, scaled_k_terms
from .errors import DomainError


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


def vg_pdf(x: float, params: VgParams) -> float:
    """Density of VG(r, theta, sigma, mu) at x."""
    if params.degenerate:
        raise DomainError("density undefined at the sigma = 0 boundary")
    if math.isnan(x):
        raise DomainError("density undefined at x = nan")
    r, theta, sigma, mu = params.r, params.theta, params.sigma, params.mu
    nu = 0.5 * (r - 1.0)
    dev = abs(x - mu)
    root = math.sqrt(theta * theta + sigma * sigma)
    z = root * dev / (sigma * sigma)
    if z == math.inf:   # x = +-inf, or a tail too far out to form the tilt
        return 0.0
    tilt = theta * (x - mu) / (sigma * sigma)
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
    # near mu for large r, K overflows before (dev / 2 root)^nu cancels it
    k = bessel_k(abs(nu), z, scaled=True)
    m, s = (0.0, k) if k < math.inf else scaled_k_terms(abs(nu), z)
    # log-space evaluation: the tilt e^{theta dev / sigma^2} and the Bessel
    # decay e^{-root dev / sigma^2} cancel in the tails but overflow alone
    log_value = (
        tilt
        - z
        - math.log(sigma * math.sqrt(math.pi)) - math.lgamma(0.5 * r)
        + nu * math.log(dev / (2.0 * root))
        + m + math.log(s)
    )
    return math.exp(log_value) if log_value > -745.0 else 0.0


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
