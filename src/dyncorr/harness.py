"""Seeded Monte Carlo experiment harness.

Each experiment sweeps a list of grid lengths, collects per-replication
estimates, and compares sample means against the deterministic expectation
formulas using a four-standard-error rule (false-failure probability about
6e-5 per check).  Consistency is asserted as a trend over the sweep, not as
absolute closeness at a single T, because the expectation ratio approaches
its target only logarithmically.

Replications are independent: replication ``i`` always uses the stream
``SeedSequence(master_seed, spawn_key=(i,))``, and aggregation runs in
replication order, so reports are byte-identical (runtime aside) for any
worker count.  Every path-pair simulation goes through one simulate-and-reduce
loop, ``_simulate_reduce``: it simulates one estimator row block of
``bm._block_rows(T)`` pairs (about 512 KB per path array) at a time and keeps
only what the experiment reduces it to, so a run holds one block per worker
whatever ``reps`` is.
"""

from __future__ import annotations

import dataclasses
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bm, gbm
from .errors import DomainError
from .profiles import CorrelationProfile, TimeGrid, build_profile
from .simulate import check_exponent, replication_rng, simulate_bm_batch

# Estimator experiments: the params class each needs and the GBM variant it
# requires (None: either).  The CLI reads this table to parse [params].
ESTIMATOR_EXPERIMENTS = {
    "bm_consistency": (bm.BmEstimatorParams, None),
    "bm_variance_decay": (bm.BmEstimatorParams, None),
    "bm_bias_pq0": (bm.BmEstimatorParams, None),
    "gbm_consistency_v1": (gbm.GbmEstimatorParams, "v1"),
    "gbm_consistency_v2": (gbm.GbmEstimatorParams, "v2"),
    "gbm_variance_decay": (gbm.GbmEstimatorParams, None),
}

EXPERIMENTS = (*ESTIMATOR_EXPERIMENTS, "moment_checks", "exp_abs_bound")

_SE_RULE = 4.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: sweep definition, estimator, seed.

    ``T_list`` must be nonempty and strictly ascending with ``t_eval`` no
    larger than its smallest entry.  ``params`` must be an instance of the
    class ``ESTIMATOR_EXPERIMENTS`` names for the experiment, of the required
    variant if any.  ``profile`` and ``params`` may be None for the
    experiments that do not need them (exp_abs_bound needs neither;
    moment_checks needs only the profile).  ``n_jobs`` threads map over the
    row blocks of the estimator experiments and never affect the statistics;
    the block size follows from T alone.
    """

    experiment: str
    profile: CorrelationProfile | None
    T_list: tuple
    t_eval: int
    reps: int
    params: object = None
    master_seed: int = 0
    n_jobs: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise DomainError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if self.experiment in ESTIMATOR_EXPERIMENTS:
            cls, variant = ESTIMATOR_EXPERIMENTS[self.experiment]
            if not isinstance(self.params, cls):
                raise DomainError(f"{self.experiment} needs {cls.__name__}")
            if variant and self.params.variant != variant:
                raise DomainError(f"{self.experiment} requires variant {variant!r}")
        t_list = tuple(int(T) for T in self.T_list)
        if not t_list or any(a >= c for a, c in zip(t_list, t_list[1:])):
            raise DomainError("T_list must be nonempty and strictly ascending")
        object.__setattr__(self, "T_list", t_list)
        if not 1 <= self.t_eval <= t_list[0]:
            raise DomainError(
                f"t_eval={self.t_eval} must lie in 1..min(T_list)={t_list[0]}"
            )
        if self.reps < 2:
            raise DomainError("reps must be >= 2")
        if self.n_jobs < 1:
            raise DomainError("n_jobs must be >= 1")
        if self.profile is not None:
            object.__setattr__(
                self, "profile", build_profile(self.profile, TimeGrid(t_list[-1]))
            )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one assertion with its observed/target numbers."""

    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class McReport:
    """Per-cell statistics, oracle values and assertion outcomes.

    ``cells`` is a tuple of plain dicts (one per (T, t) or parameter pair)
    with ``mean``/``var``/``se`` triples per statistic and any available
    oracle values; ``se = sqrt(var / n)``.  Everything except ``runtime_s``
    is deterministic in the config.
    """

    experiment: str
    master_seed: int
    cells: tuple
    checks: tuple
    runtime_s: float
    consistency_range: bool | None = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "master_seed": self.master_seed,
            "consistency_range": self.consistency_range,
            "cells": list(self.cells),
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "all_passed": self.all_passed,
            "runtime_s": self.runtime_s,
        }


def _stats(values: np.ndarray) -> dict:
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = float(values.mean())
    var = float(values.var(ddof=1)) if n > 1 else 0.0
    return {"mean": mean, "var": var, "se": math.sqrt(var / n), "n": n}


def _simulate_reduce(profile, T: int, seed: int, reps: int, reduce, n_jobs: int = 1):
    """``reduce(x, y)`` of ``reps`` simulated pairs, one row block at a time.

    Each block is the ``(rows, T)`` batch of replications ``off..off+rows-1``;
    ``reduce`` returns an array whose last axis runs over its rows, and the
    results are joined along that axis in replication order, whatever the
    worker count.
    """
    grid, rows = TimeGrid(T), bm._block_rows(T)

    def one(off):
        return reduce(*simulate_bm_batch(profile, grid, seed, min(rows, reps - off), off))

    offsets = range(0, reps, rows)
    if n_jobs == 1:
        parts = [one(off) for off in offsets]
    else:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            parts = list(pool.map(one, offsets))
    return np.concatenate(parts, axis=-1)


def _replicates(config: ExperimentConfig, T: int):
    """Per-replication (gamma, sigma_a_sq, sigma_b_sq) arrays at t_eval."""
    def components(x, y):
        return np.stack(config.params.components(x, y, config.t_eval))

    return tuple(_simulate_reduce(config.profile, T, config.master_seed, config.reps,
                                  components, config.n_jobs))


def oracle_values(params, profile: CorrelationProfile, t: int, T: int) -> dict:
    """Exact E[gamma_hat], E[sigma_sq_hat] and their ratio, under report keys.

    The ratio is NaN when the expected variance is not positive, which the
    second GBM variant's can be at small T.
    """
    gamma, sigma_sq = params.oracle(profile, t, T)
    return {
        "expected_gamma": gamma,
        "expected_sigma_sq": sigma_sq,
        params.LABELS[2]: gamma / sigma_sq if sigma_sq > 0.0 else float("nan"),
    }


def _se_check(name: str, mc: dict, oracle: float) -> CheckResult:
    oracle = float(oracle)
    gap = abs(mc["mean"] - oracle)
    tol = _SE_RULE * mc["se"]
    return CheckResult(
        name, bool(gap <= tol),
        {"mc_mean": mc["mean"], "oracle": oracle, "gap": gap, "tol": tol},
    )


def _monotone_check(name: str, values) -> CheckResult:
    """Passes when the values strictly decrease."""
    values = [float(v) for v in values]
    ok = all(a > c for a, c in zip(values, values[1:]))
    return CheckResult(name, ok or len(values) < 2, {"values": values})


def run_experiment(config: ExperimentConfig) -> McReport:
    """Run the configured experiment and return its report.

    Deterministic given the config (runtime field aside); simulation or
    estimation errors propagate annotated with the offending T.
    """
    start = time.perf_counter()
    if config.experiment == "exp_abs_bound":
        report = check_exp_abs_bound(
            (0.5, 1.0), config.T_list, config.reps, config.master_seed
        )
    elif config.experiment == "moment_checks":
        report = check_product_moments(
            config.profile, config.T_list, config.reps, config.master_seed
        )
    else:
        report = _run_estimator(config)
    return dataclasses.replace(report, runtime_s=time.perf_counter() - start)


def _run_estimator(config: ExperimentConfig) -> McReport:
    params, t = config.params, config.t_eval
    a, b, _ = params.LABELS
    cells, checks = [], []
    for T in config.T_list:
        try:
            g, sa, sb = _replicates(config, T)
        except Exception as exc:
            exc.args = (f"T={T}: {exc}",)
            raise
        valid = (sa > 0) & (sb > 0)
        rho = g[valid] / np.sqrt(sa[valid] * sb[valid])
        oracle = oracle_values(params, config.profile, t, T)
        cell = {
            "T": T, "t": t,
            "gamma_hat": _stats(g),
            f"sigma_{a}_sq_hat": _stats(sa),
            f"sigma_{b}_sq_hat": _stats(sb),
            "rho_hat": _stats(rho) if rho.size > 1 else {"mean": float("nan"),
                                                         "var": 0.0, "se": 0.0,
                                                         "n": int(rho.size)},
            "rho_hat_iqr": (float(np.subtract(*np.percentile(rho, [75, 25])))
                            if rho.size > 1 else float("nan")),
            "n_invalid_variance": int(np.sum(~valid)),
            "oracle": oracle,
        }
        cells.append(cell)
        if config.experiment not in ("bm_variance_decay", "gbm_variance_decay"):
            checks.append(_se_check(f"gamma_mean_vs_oracle_T{T}", cell["gamma_hat"],
                                    oracle["expected_gamma"]))
            checks.append(_se_check(f"sigma_{a}_sq_mean_vs_oracle_T{T}",
                                    cell[f"sigma_{a}_sq_hat"], oracle["expected_sigma_sq"]))
    checks.extend(_trend_checks(config, cells))
    return McReport(config.experiment, config.master_seed, tuple(cells),
                    tuple(checks), 0.0, params.in_consistency_range())


def _trend_checks(config: ExperimentConfig, cells: list) -> list:
    """The checks over the whole T sweep, by experiment."""
    name = config.experiment
    if name in ("gbm_consistency_v1", "gbm_consistency_v2", "gbm_variance_decay"):
        return [_monotone_check("rho_hat_iqr_decreasing", [c["rho_hat_iqr"] for c in cells])]
    if name == "bm_variance_decay":
        variances = [c["gamma_hat"]["var"] for c in cells]
        return [
            _monotone_check("gamma_var_decreasing", variances),
            CheckResult(
                "gamma_var_halved_endpoints",
                variances[-1] <= 0.5 * variances[0],
                {"first": variances[0], "last": variances[-1]},
            ),
        ]
    rho_target = float(config.profile.rho(config.T_list[-1])[config.t_eval - 1])
    if name == "bm_consistency":
        gaps = [abs(c["oracle"]["expected_ratio_q"] - rho_target) for c in cells]
        return [
            _monotone_check("ratio_gap_decreasing", gaps),
            _monotone_check("rho_hat_var_decreasing", [c["rho_hat"]["var"] for c in cells]),
        ]
    # bm_bias_pq0
    last = cells[-1]
    delta = abs(last["oracle"]["expected_ratio_q"] - rho_target)
    mc = last["rho_hat"]
    gap = abs(mc["mean"] - rho_target)
    return [
        CheckResult("oracle_gap_positive", delta > 0.0,
                    {"delta": delta, "target": rho_target}),
        CheckResult(
            "mc_mean_biased_beyond_3se",
            gap > 3.0 * mc["se"],
            {"mc_mean": mc["mean"], "target": rho_target, "gap": gap,
             "three_se": 3.0 * mc["se"]},
        ),
    ]


def _phi(x: float) -> float:
    """Standard normal CDF via the error function."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def check_exp_abs_bound(sigma_list, t_list, reps: int, seed: int) -> McReport:
    """Verify E(e^{sigma |W_t|}) against its bound and closed form.

    For every (sigma, t): the Monte Carlo mean must stay below the bound
    2 e^{sigma^2 t / 2} (1 + 3 relSE), and must match the exact value
    2 e^{sigma^2 t / 2} (1 - Phi(-sigma sqrt(t))) within four SE.  An
    exponent beyond the safe double range raises :class:`NumericRange` before
    it is exponentiated.
    """
    if reps < 2:
        raise DomainError("reps must be >= 2")
    cells, checks = [], []
    rng = replication_rng(seed, 0)
    for sigma in sigma_list:
        if sigma <= 0:
            raise DomainError(f"sigma must be positive, got {sigma!r}")
        for t in t_list:
            if t < 1:
                raise DomainError(f"t must be >= 1, got {t!r}")
            where = f" at sigma={sigma}, t={t}"
            check_exponent("sigma^2 t / 2" + where, 0.5 * sigma * sigma * t)
            w = math.sqrt(t) * rng.standard_normal(reps)
            exponent = sigma * np.abs(w)
            check_exponent("max sigma |W_t|" + where, np.max(exponent))
            mc = _stats(np.exp(exponent))
            bound = 2.0 * math.exp(0.5 * sigma * sigma * t)
            exact = bound * (1.0 - _phi(-sigma * math.sqrt(t)))
            rel_se = mc["se"] / mc["mean"]
            cells.append({
                "sigma": float(sigma), "t": int(t), "mc": mc,
                "oracle": {"bound": bound, "exact": exact},
            })
            checks.append(CheckResult(
                f"bound_holds_sigma{sigma}_t{t}",
                mc["mean"] <= bound * (1.0 + 3.0 * rel_se),
                {"mc_mean": mc["mean"], "bound": bound, "rel_se": rel_se},
            ))
            checks.append(_se_check(f"exact_value_sigma{sigma}_t{t}", mc, exact))
    return McReport("exp_abs_bound", seed, tuple(cells), tuple(checks), 0.0, None)


def check_product_moments(profile, t_list, reps: int, seed: int) -> McReport:
    """Verify the product-moment identities of a correlated pair.

    At each time t: E(X_t Y_t) = t rho_t and Var(X_t Y_t / t^2) =
    (1 + rho_t^2) / t^2, both within four standard errors (the variance SE
    uses the fourth-moment formula sqrt((m4 - var^2) / n)).
    """
    if reps < 2:
        raise DomainError("reps must be >= 2")
    t_list = tuple(int(t) for t in t_list)
    if not t_list or min(t_list) < 1:
        raise DomainError("t_list must be nonempty with entries >= 1")
    T = max(*t_list, 2)
    profile = build_profile(profile, TimeGrid(T))
    rho = profile.rho(T)
    cols = np.array(t_list) - 1
    products = _simulate_reduce(profile, T, seed, reps,
                                lambda x, y: (x[:, cols] * y[:, cols]).T)
    cells, checks = [], []
    for t, z in zip(t_list, products):
        mc = _stats(z)
        target_mean = float(t * rho[t - 1])
        scaled = z / (t * t)
        v = float(scaled.var(ddof=1))
        m4 = float(np.mean((scaled - scaled.mean()) ** 4))
        se_var = math.sqrt(max(m4 - v * v, 0.0) / reps)
        target_var = float(1.0 + rho[t - 1] ** 2) / (t * t)
        cells.append({
            "t": t, "product_mean": mc,
            "scaled_var": {"value": v, "se": se_var},
            "oracle": {"mean": target_mean, "scaled_var": target_var},
        })
        checks.append(_se_check(f"product_mean_t{t}", mc, target_mean))
        checks.append(CheckResult(
            f"scaled_var_t{t}",
            abs(v - target_var) <= _SE_RULE * se_var,
            {"mc_var": v, "oracle": target_var, "tol": _SE_RULE * se_var},
        ))
    return McReport("moment_checks", seed, tuple(cells), tuple(checks), 0.0, None)
