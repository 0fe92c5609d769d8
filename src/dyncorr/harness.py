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
sweep, ``_simulate_reduce``: it draws each replication's normals once for the
whole ``T_list`` (``simulate.simulate_bm_blocks``), forms its pair at every T
from them, and reduces each T in row blocks of ``form.block_rows(T)`` pairs
(about 512 KB per path array).  It keeps only what the experiment reduces the
pairs to, so a run holds one block per T per worker whatever ``reps`` is.
"""

from __future__ import annotations

import dataclasses
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bm, form, gbm
from .errors import DomainError
from .profiles import CorrelationProfile, TimeGrid, build_profile
# simulate_bm_batch is not called here; bench/spans.py traces dyncorr.harness.simulate_bm_batch
from .simulate import (check_exponent, check_integer, check_positive, replication_rng,  # noqa: F401
                       simulate_bm_batch, simulate_bm_blocks)

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

    ``T_list`` must be a nonempty, strictly ascending tuple of integers, and
    ``t_eval`` an integer in ``1..min(T_list)``; ``reps`` (at least 2),
    ``n_jobs`` (at least 1) and ``master_seed`` must be integers too.  Every
    experiment but exp_abs_bound needs a ``profile``, which is built against
    the largest grid.  ``params`` must be an instance of the class
    ``ESTIMATOR_EXPERIMENTS`` names for the experiment, of the required
    variant if any; moment_checks and exp_abs_bound take none.  Each rule
    raises :class:`DomainError` here, before anything is simulated.
    ``n_jobs`` threads map over chunks of replications and never affect the
    statistics; the block size follows from T alone.
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
        if self.profile is None and self.experiment != "exp_abs_bound":
            raise DomainError(f"{self.experiment} needs a correlation profile")
        # the experiments that take no params take None, of its own type
        cls, variant = ESTIMATOR_EXPERIMENTS.get(self.experiment, (type(None), None))
        if not isinstance(self.params, cls):
            raise DomainError(f"{self.experiment} needs {cls.__name__}, "
                              f"got {type(self.params).__name__}")
        if variant and self.params.variant != variant:
            raise DomainError(f"{self.experiment} requires variant {variant!r}")
        t_list = tuple(check_integer("T_list entry", T) for T in self.T_list)
        if not t_list or any(a >= c for a, c in zip(t_list, t_list[1:])):
            raise DomainError("T_list must be nonempty and strictly ascending")
        object.__setattr__(self, "T_list", t_list)
        object.__setattr__(self, "t_eval", check_integer("t_eval", self.t_eval, 1, t_list[0]))
        for name, least in (("reps", 2), ("n_jobs", 1), ("master_seed", None)):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), least))
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
    """Sample mean, variance and standard error; below two samples the mean
    is NaN and both spreads 0."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        return {"mean": float("nan"), "var": 0.0, "se": 0.0, "n": n}
    mean = float(values.mean())
    var = float(values.var(ddof=1))
    return {"mean": mean, "var": var, "se": math.sqrt(var / n), "n": n}


def _simulate_reduce(profile, T_list: tuple, seed: int, reps: int, reduce, n_jobs: int = 1):
    """``reduce(x, y)`` of ``reps`` simulated pairs at each T of the ascending
    ``T_list``, one row block at a time: a list with one result per T.

    Threads map over chunks of consecutive replications: at most one block of
    the shortest T, and at least ``n_jobs`` chunks where ``reps`` allows.  In a
    chunk each replication draws its normals once for every T
    (``simulate_bm_blocks``), and each T's pairs are reduced in blocks of
    ``form.block_rows(T)`` rows.  ``reduce`` returns an array whose last axis
    runs over a block's rows, and each T's results are joined along that
    axis in replication order, whatever the worker count; an error names its
    T.
    """
    rows = tuple(form.block_rows(T) for T in T_list)
    chunk = min(rows[0], -(-reps // n_jobs))

    def one(start):
        parts = [[] for _ in T_list]
        replications = range(start, min(start + chunk, reps))
        for k, x, y in simulate_bm_blocks(profile, T_list, rows, seed, replications):
            try:
                parts[k].append(reduce(x, y))
            except Exception as exc:
                exc.args = (f"T={T_list[k]}: {exc}",)
                raise
        return parts

    starts = range(0, reps, chunk)
    if n_jobs == 1:
        chunks = [one(start) for start in starts]
    else:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            chunks = list(pool.map(one, starts))
    return [np.concatenate([part for c in chunks for part in c[k]], axis=-1)
            for k in range(len(T_list))]


def _replicates(config: ExperimentConfig) -> list:
    """Per T of the sweep, per-replication (gamma, sigma_a_sq, sigma_b_sq) at t_eval."""
    def components(x, y):
        return np.stack(config.params.components(x, y, config.t_eval))

    return _simulate_reduce(config.profile, config.T_list, config.master_seed, config.reps,
                            components, config.n_jobs)


def oracle_values(params, profile: CorrelationProfile, t: int, T: int) -> dict:
    """Exact E[gamma_hat], E[sigma_sq_hat] and their ratio, under report keys.

    The ratio is NaN when the expected variance is not positive, which the
    second GBM variant's can be at small T.
    """
    gamma, sigma_sq = params.oracle(profile, t, T)
    return {
        "expected_gamma": gamma,
        "expected_sigma_sq": sigma_sq,
        params.LABELS[2]: (float("nan") if form.variance_faults(sigma_sq, sigma_sq)
                           else gamma / sigma_sq),
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
    for T, (g, sa, sb) in zip(config.T_list, _replicates(config)):
        rho, code = form.flag_codes(g, sa, sb)
        valid = (code & form.VARIANCE_FAULTS) == 0
        rho = rho[valid]
        oracle = oracle_values(params, config.profile, t, T)
        cell = {
            "T": T, "t": t,
            "gamma_hat": _stats(g),
            f"sigma_{a}_sq_hat": _stats(sa),
            f"sigma_{b}_sq_hat": _stats(sb),
            "rho_hat": _stats(rho),
            "rho_hat_iqr": (float(np.subtract(*np.percentile(rho, [75, 25])))
                            if rho.size > 1 else float("nan")),
            "n_invalid_variance": int(np.sum(~valid)),
            # v2's variances are differences, so its |rho_hat| can exceed 1
            **({"n_rho_out_of_range": int(np.count_nonzero(code & form.RHO_OUT_OF_RANGE))}
               if isinstance(params, gbm.GbmEstimatorParams) else {}),
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
    reps = check_integer("reps", reps, 2)
    t_list = [check_integer("t", t, 1) for t in t_list]
    cells, checks = [], []
    rng = replication_rng(seed, 0)
    for sigma in sigma_list:
        check_positive(sigma=sigma)
        for t in t_list:
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
                "sigma": float(sigma), "t": t, "mc": mc,
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
    reps = check_integer("reps", reps, 2)
    t_list = tuple(check_integer("t_list entry", t, 1) for t in t_list)
    if not t_list:
        raise DomainError("t_list must be nonempty")
    T = max(*t_list, 2)
    profile = build_profile(profile, TimeGrid(T))
    rho = profile.rho(T)
    cols = np.array(t_list) - 1
    products, = _simulate_reduce(profile, (T,), seed, reps,
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
