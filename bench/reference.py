"""Direct-form references and the correctness gate of the benchmark.

Every function here evaluates a quantity the library computes, written
straight from its defining sum with plain Python loops and ``math.fsum``,
so it shares no code path with ``dyncorr``.  The gate compares a library
value with its reference within ``RTOL`` of the reference's *scale*: the
sum of the absolute values of the terms.  That scale keeps the test tight
when terms cancel; a reordered or blocked summation moves the result by
about 1e-14 of it, a wrong formula by far more than 1e-10.
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-10


def within(got: float, ref: float, scale: float, rtol: float = RTOL) -> bool:
    """True when ``got`` agrees with ``ref`` to ``rtol`` of ``scale``."""
    got = float(got)
    return math.isfinite(got) and abs(got - ref) <= rtol * max(scale, abs(ref))


def profile_rho(spec: str, T: int) -> list:
    """rho_1..rho_T of a ``constant:<c>`` or ``capped:<c>,<t0>`` spec."""
    kind, _, rest = spec.partition(":")
    vals = [float(v) for v in rest.split(",")]
    if kind == "constant":
        return [vals[0]] * T
    if kind == "capped":
        c, t0 = vals
        return [c * min(t, t0) / t for t in range(1, T + 1)]
    raise ValueError(f"no reference for profile {spec!r}")


def bm_paths(spec: str, T: int, seed: int, replication: int):
    """One Brownian pair by increment coupling, drawn as the README states.

    Replication ``i`` uses Philox seeded with ``SeedSequence(seed,
    spawn_key=(i,))``; the step correlation is ``r_i = i rho_i - (i-1)
    rho_{i-1}``, and ``dy_i = r_i dx_i + sqrt(1 - r_i^2) z_i``.
    """
    rho = profile_rho(spec, T)
    gen = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(replication,)))
    )
    z = gen.standard_normal((2, T))
    x, y, sx, sy, prev = [], [], 0.0, 0.0, 0.0
    for i in range(T):
        r = (i + 1) * rho[i] - prev
        prev = (i + 1) * rho[i]
        r = min(1.0, max(-1.0, r))
        dx = float(z[0, i])
        sx += dx
        sy += r * dx + math.sqrt(1.0 - r * r) * float(z[1, i])
        x.append(sx)
        y.append(sy)
    return x, y


def gamma_bm(x, y, u: int, q: float, p: float):
    """The docstring sum of ``gamma_hat_bm``; returns (value, scale).

    (1/(T-1)) sum_{v != u} (v^q X_u - v^-p X_v)(v^q Y_u - v^-p Y_v) / (u-v)^2
    """
    T = len(x)
    xu, yu = x[u - 1], y[u - 1]
    terms = []
    for v in range(1, T + 1):
        if v != u:
            terms.append((v ** q * xu - v ** -p * x[v - 1])
                         * (v ** q * yu - v ** -p * y[v - 1]) / (u - v) ** 2)
    return math.fsum(terms) / (T - 1), math.fsum(map(abs, terms)) / (T - 1)


def expected_gamma_bm(rho, u: int, q: float, p: float):
    """E[gamma_hat] from Cov(X_s, Y_t) = m rho_m, m = min(s, t); (value, scale).

    With ``rho`` all ones this is E[sigma_sq_hat].
    """
    T = len(rho)

    def cov(s, t):
        m = min(s, t)
        return m * rho[m - 1]

    terms = []
    for v in range(1, T + 1):
        if v != u:
            terms.append((v ** (2 * q) * cov(u, u)
                          - v ** (q - p) * (cov(u, v) + cov(v, u))
                          + v ** (-2 * p) * cov(v, v)) / (u - v) ** 2)
    return math.fsum(terms) / (T - 1), math.fsum(map(abs, terms)) / (T - 1)


def gamma_gbm_v1(w, u, t: int, a: float, b: float, c: float, sigma: float):
    """First variant: the sum over k of products of two bracket series.

    bracket_k(W) = e^{-b s2 k/2} (e^{sigma W_k} - e^{s2 k/2})
                   - e^{a s2 k/2} (e^{sigma W_t} - e^{s2 t/2}),
    times e^{-c s2 T/2} each; returns (value, scale).
    """
    T, s2 = len(w), sigma * sigma

    def bracket(path, k):
        return math.exp(-0.5 * c * s2 * T) * (
            math.exp(-0.5 * b * s2 * k) * (math.exp(sigma * path[k - 1]) - math.exp(0.5 * s2 * k))
            - math.exp(0.5 * a * s2 * k) * (math.exp(sigma * path[t - 1]) - math.exp(0.5 * s2 * t))
        )

    terms = [bracket(w, k) * bracket(u, k) for k in range(1, T + 1)]
    return math.fsum(terms), math.fsum(map(abs, terms))


def gamma_gbm_v2(w, u, t: int, a: float, b: float, c: float, sigma: float):
    """Second variant: anchor products minus step products; (value, scale).

    sum_k e^{-c s2 T} [e^{a s2 k} D_t(W) D_t(U) - e^{-b s2 k} D_k(W) D_k(U)],
    with D_k(W) = e^{sigma W_k} - e^{s2 k/2}.
    """
    T, s2 = len(w), sigma * sigma
    norm = math.exp(-c * s2 * T)

    def dev(path, k):
        return math.exp(sigma * path[k - 1]) - math.exp(0.5 * s2 * k)

    anchor = dev(w, t) * dev(u, t)
    terms = []
    for k in range(1, T + 1):
        terms.append(norm * math.exp(a * s2 * k) * anchor)
        terms.append(-norm * math.exp(-b * s2 * k) * dev(w, k) * dev(u, k))
    return math.fsum(terms), math.fsum(map(abs, terms))


def product_normal_pdf(z: float, sd: float, rho: float, h: float = 0.01) -> float:
    """Density of X*Y for centred normals with sd_x = sd_y = sd, Corr = rho.

    f(z) = exp(rho z / (s (1-rho^2))) K_0(|z| / (s (1-rho^2))) / (pi s sqrt(1-rho^2)),
    s = sd^2, with e^x K_0(x) = int_0^inf exp(-x (cosh v - 1)) dv taken by
    the trapezoid rule, which converges geometrically for this integrand.
    """
    s = sd * sd
    one = 1.0 - rho * rho
    x = abs(z) / (s * one)
    v = np.arange(0.0, math.acosh(1.0 + 800.0 / x) + h, h)
    f = np.exp(-x * (np.cosh(v) - 1.0))
    k0_scaled = h * (math.fsum(f) - 0.5 * f[0])
    return math.exp(rho * z / (s * one) - x) * k0_scaled / (math.pi * s * math.sqrt(one))
