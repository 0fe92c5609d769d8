"""Experiment orchestration: validation, determinism, check logic."""

import json

import numpy as np
import pytest

from dyncorr import (
    BmEstimatorParams,
    DomainError,
    ExperimentConfig,
    GbmEstimatorParams,
    TimeGrid,
    build_profile,
    check_exp_abs_bound,
    check_product_moments,
    expected_gamma_bm,
    expected_gamma_gbm_v1,
    expected_gamma_gbm_v2,
    expected_sigma_sq_bm,
    expected_sigma_sq_gbm_v1,
    expected_sigma_sq_gbm_v2,
    gamma_hat_bm,
    gamma_hat_gbm_v1,
    gamma_hat_gbm_v2,
    run_experiment,
    sigma_sq_hat_bm,
    sigma_sq_hat_gbm,
    simulate_bm_batch,
)
from dyncorr import harness
from dyncorr.bm import _BLOCK_ELEMENTS

BM_PARAMS = BmEstimatorParams(0.5, 1.0)


def small_config(**overrides):
    base = dict(
        experiment="bm_consistency",
        profile="capped:0.5,10",
        T_list=(100, 200),
        t_eval=10,
        reps=50,
        params=BM_PARAMS,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def report_key(report):
    d = report.to_dict()
    d.pop("runtime_s")
    return json.dumps(d, sort_keys=True)


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(DomainError):
            small_config(experiment="bm_magic")

    def test_t_list_must_ascend(self):
        with pytest.raises(DomainError):
            small_config(T_list=(200, 100))

    def test_t_eval_within_smallest_grid(self):
        with pytest.raises(DomainError):
            small_config(t_eval=150)

    def test_reps_minimum(self):
        with pytest.raises(DomainError):
            small_config(reps=1)

    def test_profile_specs_are_materialized(self):
        config = small_config(profile="constant:0.5")
        assert config.profile.kind == "constant"

    @pytest.mark.parametrize("experiment, params", [
        ("bm_consistency", GbmEstimatorParams(1, 12, 2, 0.1)),
        ("bm_variance_decay", None),
        ("gbm_variance_decay", BM_PARAMS),
        ("gbm_consistency_v1", GbmEstimatorParams(1, 16, 2, 0.1, "v2")),
        ("gbm_consistency_v2", GbmEstimatorParams(1, 12, 2, 0.1, "v1")),
    ], ids=["bm-gets-gbm", "bm-gets-none", "gbm-gets-bm", "v1-gets-v2", "v2-gets-v1"])
    def test_wrong_family_or_variant_rejected_at_config(self, experiment, params):
        # rejected before any simulation runs
        with pytest.raises(DomainError):
            small_config(experiment=experiment, params=params)


class TestEstimatorPath:
    @pytest.mark.parametrize("params, gamma, sigma_sq, e_gamma, e_sigma_sq, time_kw", [
        (BM_PARAMS, gamma_hat_bm, sigma_sq_hat_bm,
         expected_gamma_bm, expected_sigma_sq_bm, "u"),
        (GbmEstimatorParams(1, 12, 2, 0.1, "v1"), gamma_hat_gbm_v1, sigma_sq_hat_gbm,
         expected_gamma_gbm_v1, expected_sigma_sq_gbm_v1, "t"),
        (GbmEstimatorParams(1, 16, 2, 0.1, "v2"), gamma_hat_gbm_v2, sigma_sq_hat_gbm,
         expected_gamma_gbm_v2, expected_sigma_sq_gbm_v2, "t"),
    ], ids=["bm", "gbm-v1", "gbm-v2"])
    def test_methods_equal_module_functions(self, params, gamma, sigma_sq,
                                            e_gamma, e_sigma_sq, time_kw):
        T, t = 120, 7
        profile = build_profile("capped:0.5,10", TimeGrid(T))
        x, y = simulate_bm_batch(profile, TimeGrid(T), 3, 6)
        at = {time_kw: t, "params": params}
        got = params.components(x, y, t)
        want = (gamma(x, y, **at), sigma_sq(x, **at), sigma_sq(y, **at))
        assert all(g.shape == (6,) and np.array_equal(g, w) for g, w in zip(got, want))
        assert params.oracle(profile, t, T) == (
            e_gamma(profile, t, params, T), e_sigma_sq(t, params, T)
        )


class TestDeterminism:
    def test_identical_config_identical_report(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert report_key(a) == report_key(b)

    def test_threads_do_not_change_statistics(self):
        # T = 20000 takes three rows per block: 17 blocks for the threads
        def key(n_jobs):
            return report_key(run_experiment(
                small_config(T_list=(100, 20000), n_jobs=n_jobs)
            ))

        baseline = key(1)
        assert key(3) == baseline
        assert key(4) == baseline

    def test_different_seeds_differ(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config(master_seed=8))
        assert report_key(a) != report_key(b)


class TestBlocks:
    def test_every_simulation_holds_one_block(self, monkeypatch):
        calls = []

        def recording(profile, grid, seed, reps, rep_offset=0):
            calls.append((reps, grid.T))
            return simulate_bm_batch(profile, grid, seed, reps, rep_offset)

        monkeypatch.setattr(harness, "simulate_bm_batch", recording)
        t_list = (100, 20000)
        for config in (
            small_config(T_list=t_list, reps=20),
            small_config(experiment="gbm_consistency_v2", T_list=t_list, t_eval=5,
                         reps=20, params=GbmEstimatorParams(1, 16, 2, 0.1, "v2")),
            small_config(experiment="moment_checks", T_list=t_list, reps=20,
                         params=None),
        ):
            calls.clear()
            run_experiment(config)
            # the calls cover every replication at each simulated T
            by_T = {}
            for n, T in calls:
                by_T[T] = by_T.get(T, 0) + n
            assert by_T[20000] == 20 and set(by_T.values()) == {20}
            assert all(n == 1 or n * T <= _BLOCK_ELEMENTS for n, T in calls)


class TestExperiments:
    def test_full_correlation_is_deterministic_estimate(self):
        config = small_config(profile="constant:1.0", T_list=(100,), reps=20)
        report = run_experiment(config)
        cell = report.cells[0]
        assert cell["rho_hat"]["mean"] == pytest.approx(1.0)
        assert cell["rho_hat"]["var"] == pytest.approx(0.0, abs=1e-28)

    def test_bm_consistency_report_structure(self):
        report = run_experiment(small_config())
        assert report.experiment == "bm_consistency"
        assert report.consistency_range is True
        assert {c["T"] for c in report.cells} == {100, 200}
        names = [c.name for c in report.checks]
        assert "ratio_gap_decreasing" in names
        assert any(n.startswith("gamma_mean_vs_oracle") for n in names)
        assert all(c["n_invalid_variance"] == 0 for c in report.cells)
        assert report.runtime_s > 0

    def test_bias_experiment_records_out_of_range(self):
        config = small_config(
            experiment="bm_bias_pq0",
            T_list=(500, 2000),
            params=BmEstimatorParams(0.0, 0.0),
            reps=100,
        )
        report = run_experiment(config)
        assert report.consistency_range is False
        assert report.all_passed

    def test_variance_decay_checks(self):
        config = small_config(
            experiment="bm_variance_decay",
            profile="constant:0.5",
            T_list=(300, 1200),
            reps=400,
        )
        report = run_experiment(config)
        names = [c.name for c in report.checks]
        assert "gamma_var_halved_endpoints" in names
        assert report.all_passed

    def test_gbm_counts_invalid_variances(self):
        config = small_config(
            experiment="gbm_consistency_v2",
            profile="constant:0.5",
            T_list=(60,),
            t_eval=5,
            reps=200,
            params=GbmEstimatorParams(1, 16, 2, 0.05, "v2"),
        )
        report = run_experiment(config)
        assert report.cells[0]["n_invalid_variance"] > 0


class TestStandaloneChecks:
    def test_exp_abs_bound_small(self):
        report = check_exp_abs_bound((0.5, 1.0), (1, 4), 20000, 3)
        assert report.all_passed
        assert len(report.cells) == 4
        # exact value at sigma=1, t=1: 2 e^{1/2} (1 - Phi(-1))
        cell = next(c for c in report.cells if c["sigma"] == 1.0 and c["t"] == 1)
        assert cell["oracle"]["exact"] == pytest.approx(2.7742860, rel=1e-6)

    def test_exp_abs_bound_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            check_exp_abs_bound((0.0,), (1,), 100, 0)

    def test_product_moment_targets(self):
        report = check_product_moments("constant:0.5", (10,), 30000, 3)
        assert report.all_passed
        oracle = report.cells[0]["oracle"]
        assert oracle["mean"] == pytest.approx(5.0)
        assert oracle["scaled_var"] == pytest.approx(1.25 / 100)

    def test_product_moments_zero_profile(self):
        report = check_product_moments("constant:0.0", (5,), 20000, 3)
        assert report.cells[0]["oracle"]["mean"] == 0.0
        assert report.all_passed

    def test_product_moments_full_correlation_chi_squared(self):
        report = check_product_moments("constant:1.0", (6,), 30000, 3)
        oracle = report.cells[0]["oracle"]
        assert oracle["mean"] == pytest.approx(6.0)
        assert oracle["scaled_var"] == pytest.approx(2.0 / 36)
        assert report.all_passed
