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
from .bessel import K0_PIECES, bessel_k, k0_scaled, scaled_k_terms  # noqa: F401
from .errors import DomainError, NumericRange
from .simulate import check_correlation, check_finite, check_positive

_LN2 = math.log(2.0)
_TINY = sys.float_info.min   # the smallest normal double
_SUBNORMAL_SHIFT = 128       # even, and 2^-1074 2^128 is a normal double
_MAX_SHAPE = 20001.0         # nu = (r - 1)/2 <= 1e4, the largest order K_nu accepts
_INF = math.inf              # a global, where math.inf is an attribute lookup per point


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
        check_positive(r=self.r)
        check_finite(theta=self.theta, sigma=self.sigma, mu=self.mu)
        if self.sigma < 0:
            raise DomainError(f"scale sigma must be >= 0, got {self.sigma!r}")

    @property
    def degenerate(self) -> bool:
        return self.sigma == 0.0

    @cached_property
    def _density_terms(self) -> tuple[float, float, float, float, float]:
        """``(nu, root / sigma^2, theta / sigma^2, -1 / (|theta| + root), log c)``,
        where ``root = sqrt(theta^2 + sigma^2)``, ``z = root |x - mu| / sigma^2``
        and the density away from mu is ``c z^nu e^{theta (x - mu) / sigma^2}
        K_nu(z)``; built once per parameter set, not per point.  Where theta (x -
        mu) > 0, ``theta (x - mu) / sigma^2 - z = -|x - mu| / (|theta| + root)``.

        :class:`DomainError` where the density is undefined (sigma = 0) or its
        ``K_nu`` out of range (r > 20001, nu > 1e4), whatever the point;
        :class:`NumericRange` where sigma^2 or root / sigma^2 is not a finite
        normal double.  That bounds theta / sigma^2 too (|theta| <= root), and
        its underflow costs at most 2^-1074 |x - mu| in log space."""
        r, theta, sigma = self.r, self.theta, self.sigma
        if self.degenerate:
            raise DomainError("density undefined at the sigma = 0 boundary")
        if r > _MAX_SHAPE:
            raise DomainError(f"density needs shape r <= {_MAX_SHAPE:.0f} (K_nu with "
                              f"nu = (r - 1)/2 <= 1e4), got r={r!r}")
        nu = 0.5 * (r - 1.0)
        sigma_sq = sigma * sigma
        root = math.hypot(theta, sigma)
        # sigma^2 below the normal range (a few bits, or 0) or above it, or z = inf
        # at every x != mu
        if not _TINY <= sigma_sq < math.inf or not root / sigma_sq < math.inf:
            raise NumericRange(
                f"density needs sigma^2 and sqrt(theta^2 + sigma^2)/sigma^2 finite and "
                f"normal doubles, got sigma={sigma!r}, theta={theta!r}")
        # (dev / 2 root)^nu = z^nu (sigma^2 / 2 root^2)^nu, over sigma sqrt(pi) Gamma(r/2)
        log_norm = (-math.log(sigma * math.sqrt(math.pi)) - math.lgamma(0.5 * r)
                    + nu * (2.0 * (math.log(sigma) - math.log(root)) - _LN2))
        return nu, root / sigma_sq, theta / sigma_sq, -1.0 / (abs(theta) + root), log_norm


def vg_pdf(x: float, params: VgParams) -> float:
    """Density of VG(r, theta, sigma, mu) at x."""
    nu, scale, tilt_scale, tilt_decay, log_norm = params._density_terms
    if x != x:   # NaN, without a call per point
        raise DomainError("density undefined at x = nan")
    d = x - params.mu
    dev = abs(d)
    z = scale * dev
    if z == _INF:   # x = +-inf, or a tail too far out to form the tilt
        return 0.0
    tilt = tilt_scale * d
    # at mu, and wherever the O(z^2) correction to the tilted x = mu limit is
    # below rounding: there nu log(dev) and log K_nu(z) cancel to ~nu |log z| ulps
    if dev == 0.0 or z * z < 1e-16 * (nu - 1.0):
        if params.r <= 1.0:
            raise DomainError(
                f"density is singular at x = mu for r = {params.r} <= 1"
            )
        # limit from K_nu(z) ~ Gamma(nu) (2/z)^nu / 2 as z -> 0, nu > 0
        return math.exp(tilt + log_norm + math.lgamma(nu) + (nu - 1.0) * _LN2)
    # where the tilt is positive, tilt - z = (|theta| - root) dev / sigma^2 is a
    # difference of two large terms; it is formed as -dev / (|theta| + root)
    tilt_z = dev * tilt_decay if tilt > 0.0 else tilt - z
    # below the normal range z keeps only a few bits: the sum and nu log z take
    # it 2^128 larger, formed from dev exactly; where scale is below 2^-75 that
    # can still underflow, and an even shift sized from scale carries it
    z_scaled, shift = z, 0
    if z < _TINY:
        shift = _SUBNORMAL_SHIFT
        z_scaled = scale * math.ldexp(dev, shift)
        if z_scaled < _TINY:
            # scale >= 2^(e - 1) and dev >= 2^-1074, so z 2^shift >= 2^-1021
            shift = (55 - math.frexp(scale)[1]) & ~1
            z_scaled = scale * math.ldexp(dev, shift)
    # the tilt e^{theta dev / sigma^2} and the Bessel decay e^{-root dev /
    # sigma^2} cancel in the tails but overflow alone, so K is e^-z times e^z K
    if nu:
        # next to mu for large r, K overflows before (dev / 2 root)^nu cancels
        # it, so e^z K_nu(z) stays e^m s
        m, s = scaled_k_terms(abs(nu), z_scaled, shift)
        log_value = (tilt_z + log_norm
                     + nu * (math.log(z_scaled) - shift * _LN2) + m + math.log(s))
    # r = 1, the product-normal density: the terms left out are zeros, m = 0
    elif z >= 1.0:
        # unshifted, on the table: k0_scaled's piece and Horner sum, formed here
        # without the call, so e^z K_0(z) is bitwise k0_scaled(z)
        s = 2.0 / z - 1.0
        k = int(32.0 * (s + 1.0))   # s = 1 at z = 1 is the top end of piece 63
        c, a0, a1, a2, a3, a4, a5, a6 = K0_PIECES[k if k < 64 else 63]
        h = s - c
        k0 = (a0 + h * (a1 + h * (a2 + h * (a3 + h * (a4 + h * (a5 + h * a6)))))) / math.sqrt(z)
        log_value = tilt_z + log_norm + math.log(k0)
    else:   # the series, shifted or not
        log_value = tilt_z + log_norm + math.log(k0_scaled(z_scaled, shift))
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
    check_positive(sigma_x=sigma_x, sigma_y=sigma_y)
    check_correlation(rho=rho)
    scale = sigma_x * sigma_y
    return VgParams(1.0, rho * scale, scale * math.sqrt(1.0 - rho * rho), 0.0)
