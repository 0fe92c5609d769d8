"""Experiment orchestration: validation, determinism, check logic."""

import dataclasses
import json
import math

import numpy as np
import pytest

from dyncorr import (
    BmEstimatorParams,
    BmPathPair,
    DomainError,
    ExperimentConfig,
    GbmEstimatorParams,
    NumericRange,
    TimeGrid,
    build_profile,
    check_exp_abs_bound,
    check_product_moments,
    estimate_bm,
    estimate_gbm,
    expected_gamma_bm,
    expected_gamma_gbm_v1,
    expected_gamma_gbm_v2,
    expected_sigma_sq_bm,
    expected_sigma_sq_gbm_v1,
    expected_sigma_sq_gbm_v2,
    gamma_hat_bm,
    gamma_hat_gbm_v1,
    gamma_hat_gbm_v2,
    rho_hat_bm,
    rho_hat_gbm,
    run_experiment,
    sigma_sq_hat_bm,
    sigma_sq_hat_gbm,
    simulate_bm_batch,
    simulate_gbm_pair,
)
from dyncorr import harness, simulate
from dyncorr.form import _BLOCK_ELEMENTS

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

    # a t_eval that is not an integer simulated every replication, then
    # failed with a bare IndexError
    @pytest.mark.parametrize("t_eval", [2.5, 10.0])
    def test_t_eval_must_be_an_integer(self, t_eval):
        with pytest.raises(DomainError, match="must be an integer"):
            small_config(t_eval=t_eval)

    # without a profile the run failed with a bare AttributeError on None
    @pytest.mark.parametrize("experiment, params", [("bm_consistency", BM_PARAMS),
                                                    ("moment_checks", None)])
    def test_profile_required_but_for_exp_abs_bound(self, experiment, params):
        with pytest.raises(DomainError, match=f"^{experiment} needs a correlation profile$"):
            small_config(experiment=experiment, profile=None, params=params)
        config = small_config(experiment="exp_abs_bound", profile=None, params=None)
        assert config.profile is None

    def test_t_eval_numpy_integer_is_stored_as_int(self):
        t_eval = small_config(t_eval=np.int64(10)).t_eval
        assert t_eval == 10 and type(t_eval) is int

    # a size, count or seed that is not an integer was truncated (T_list),
    # accepted (n_jobs), or accepted and failed in the run (reps, master_seed)
    @pytest.mark.parametrize("field, value, message", [
        ("T_list", (20.7, 40.2), "T_list entry must be an integer, got 20.7"),
        ("reps", 5.5, "reps must be an integer, got 5.5"),
        ("n_jobs", 1.5, "n_jobs must be an integer, got 1.5"),
        ("master_seed", 1.5, "master_seed must be an integer, got 1.5"),
    ])
    def test_sizes_and_counts_must_be_integers(self, field, value, message):
        with pytest.raises(DomainError, match=message):
            small_config(**{field: value})

    def test_numpy_integer_sizes_are_stored_as_ints(self):
        config = small_config(T_list=(np.int64(100), np.int32(200)), reps=np.int64(50),
                              n_jobs=np.int8(2), master_seed=np.uint32(7))
        for value in (*config.T_list, config.reps, config.n_jobs, config.master_seed):
            assert type(value) is int
        assert report_key(run_experiment(config)) == report_key(run_experiment(small_config()))

    def test_reps_minimum(self):
        with pytest.raises(DomainError):
            small_config(reps=1)

    def test_n_jobs_minimum(self):
        with pytest.raises(DomainError, match="n_jobs"):
            small_config(n_jobs=0)

    def test_profile_specs_are_materialized(self):
        config = small_config(profile="constant:0.5")
        assert config.profile.kind == "constant"

    @pytest.mark.parametrize("experiment, params", [
        ("bm_consistency", GbmEstimatorParams(1, 12, 2, 0.1)),
        ("bm_variance_decay", None),
        ("gbm_variance_decay", BM_PARAMS),
        ("gbm_consistency_v1", GbmEstimatorParams(1, 16, 2, 0.1, "v2")),
        ("gbm_consistency_v2", GbmEstimatorParams(1, 12, 2, 0.1, "v1")),
        ("moment_checks", BM_PARAMS),
        ("exp_abs_bound", GbmEstimatorParams(1, 12, 2, 0.1)),
    ], ids=["bm-gets-gbm", "bm-gets-none", "gbm-gets-bm", "v1-gets-v2", "v2-gets-v1",
            "moment-checks-gets-bm", "exp-abs-bound-gets-gbm"])
    def test_wrong_family_or_variant_rejected_at_config(self, experiment, params):
        # rejected before any simulation runs; the two experiments that take
        # no params dropped them without a word
        with pytest.raises(DomainError, match=f"^{experiment} "):
            small_config(experiment=experiment, params=params)


class TestEstimatorPath:
    @pytest.mark.parametrize(
            "params, gamma, sigma_sq, e_gamma, e_sigma_sq, time_kw, experiment", [
        (BM_PARAMS, gamma_hat_bm, sigma_sq_hat_bm,
         expected_gamma_bm, expected_sigma_sq_bm, "u", "bm_consistency"),
        (GbmEstimatorParams(1, 12, 2, 0.1, "v1"), gamma_hat_gbm_v1, sigma_sq_hat_gbm,
         expected_gamma_gbm_v1, expected_sigma_sq_gbm_v1, "t", "gbm_consistency_v1"),
        (GbmEstimatorParams(1, 16, 2, 0.1, "v2"), gamma_hat_gbm_v2, sigma_sq_hat_gbm,
         expected_gamma_gbm_v2, expected_sigma_sq_gbm_v2, "t", "gbm_consistency_v2"),
    ], ids=["bm", "gbm-v1", "gbm-v2"])
    def test_methods_equal_module_functions(self, monkeypatch, params, gamma, sigma_sq,
                                            e_gamma, e_sigma_sq, time_kw, experiment):
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
        # one ratio: the harness's per-replication rho_hat of the same six pairs
        # (form.flag_codes forms it for every pair, NaN where a variance is not
        # positive) is the rho_hat view's of each valid pair, and the estimate's
        # bitwise where its components are the batch's (GBM; BM's come from its
        # FFT curve)
        ratios = []
        ratio = harness.form.rho_hat
        monkeypatch.setattr(harness.form, "rho_hat",
                            lambda *a: ratios.append(ratio(*a)) or ratios[-1])
        run_experiment(ExperimentConfig(experiment, profile, (T,), t, 6, params, master_seed=3))
        positive = (got[1] > 0) & (got[2] > 0)
        valid = np.flatnonzero(positive)
        assert len(ratios) == 1 and len(ratios[0]) == 6 and 4 <= len(valid)
        assert np.isnan(ratios[0][~positive]).all()
        if time_kw == "u":
            pairs, estimate, view = [BmPathPair(x[i], y[i]) for i in valid], estimate_bm, rho_hat_bm
        else:
            pairs = [simulate_gbm_pair(BmPathPair(x[i], y[i]), params.sigma) for i in valid]
            estimate, view = estimate_gbm, rho_hat_gbm
        views = [view(pair, **at) for pair in pairs]
        assert np.array_equal(ratios[0][valid], views)
        for pair, rho in zip(pairs, views):
            g, var_a, var_b, got_rho = dataclasses.astuple(estimate(pair, t, params))[:4]
            assert got_rho == g / math.sqrt(var_a) / math.sqrt(var_b)
            assert got_rho == (rho if time_kw == "t" else pytest.approx(rho, rel=1e-12))


class TestDeterminism:
    def test_identical_config_identical_report(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert report_key(a) == report_key(b)

    def test_threads_do_not_change_statistics(self):
        # chunks of at most ceil(50 / n_jobs) replications: 3 or 4 for the threads
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

    def test_negative_seed_is_domain_error(self):
        with pytest.raises(DomainError, match="seed=-1"):
            run_experiment(small_config(master_seed=-1))


class TestBlocks:
    def test_every_simulation_holds_one_block(self, monkeypatch):
        # one sweep opens each replication's stream once, for every T, and
        # hands each T's pairs to the reduction in blocks within _BLOCK_ELEMENTS
        opened, blocks = [], []
        streams, make_blocks = simulate._streams, harness.simulate_bm_blocks

        def recording_streams(seed, replications):
            opened.extend(replications)
            return streams(seed, replications)

        def recording_blocks(*args):
            for k, x, y in make_blocks(*args):
                blocks.append(x.shape)
                yield k, x, y

        monkeypatch.setattr(simulate, "_streams", recording_streams)
        monkeypatch.setattr(harness, "simulate_bm_blocks", recording_blocks)
        t_list = (100, 20000)
        for config, lengths in (
            (small_config(T_list=t_list, reps=20), t_list),
            (small_config(experiment="gbm_consistency_v2", T_list=t_list, t_eval=5,
                          reps=20, params=GbmEstimatorParams(1, 16, 2, 0.1, "v2")), t_list),
            (small_config(experiment="moment_checks", T_list=t_list, reps=20,
                          params=None), (20000,)),
        ):
            opened.clear()
            blocks.clear()
            run_experiment(config)
            assert sorted(opened) == list(range(20))
            # the blocks cover every replication at each simulated T
            by_T = {}
            for n, T in blocks:
                by_T[T] = by_T.get(T, 0) + n
            assert by_T == dict.fromkeys(lengths, 20)
            assert all(n == 1 or n * T <= _BLOCK_ELEMENTS for n, T in blocks)


SWEEP_PARAMS = {
    "bm_consistency": BM_PARAMS,
    "gbm_consistency_v1": GbmEstimatorParams(1, 12, 2, 0.1, "v1"),
    "gbm_consistency_v2": GbmEstimatorParams(1, 16, 2, 0.1, "v2"),
}


class TestSweep:
    # one draw of 2 * 150 normals per replication makes its pairs at every T;
    # y's normals at T = 100 (101..200) straddle the two halves of that draw
    @pytest.mark.parametrize("n_jobs", [1, 3])
    @pytest.mark.parametrize("experiment", list(SWEEP_PARAMS))
    def test_each_length_is_its_own_batch(self, experiment, n_jobs):
        params, reps = SWEEP_PARAMS[experiment], 700
        config = small_config(experiment=experiment, T_list=(60, 100, 150), t_eval=5,
                              reps=reps, params=params, master_seed=11, n_jobs=n_jobs)
        for T, got in zip(config.T_list, harness._replicates(config)):
            x, y = simulate_bm_batch(config.profile, TimeGrid(T), 11, reps)
            want = params.components(x, y, config.t_eval)
            assert got.shape == (3, reps)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def test_products_are_the_batch_products(self):
        profile = build_profile("capped:0.5,10", TimeGrid(40))
        report = check_product_moments(profile, (3, 40), 500, 5)
        x, y = simulate_bm_batch(profile, TimeGrid(40), 5, 500)
        for cell, t in zip(report.cells, (3, 40)):
            want = x[:, t - 1] * y[:, t - 1]
            assert cell["product_mean"]["mean"] == float(want.mean())


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

    def test_gbm_counts_rho_out_of_range(self):
        # v2's variances are differences: at these sizes every valid
        # replication has |rho_hat| beyond 1, and each cell counts them
        config = ExperimentConfig("gbm_consistency_v2", "capped:0.5,10", (200, 1000), 5, 40,
                                  GbmEstimatorParams(1, 16, 2, 0.1, "v2"), 5)
        report = run_experiment(config)
        counts = [(c["n_invalid_variance"], c["n_rho_out_of_range"]) for c in report.cells]
        assert counts == [(4, 36), (0, 40)]
        for cell in report.cells:
            keys = list(cell)
            assert keys[keys.index("n_invalid_variance") + 1] == "n_rho_out_of_range"
        assert report_key(run_experiment(config)) == report_key(report)
        # BM's ratios are bounded by Cauchy-Schwarz: its cells carry no count
        assert all("n_rho_out_of_range" not in c for c in run_experiment(small_config()).cells)


class TestStats:
    @pytest.mark.parametrize("values", [[], [0.25]])
    def test_below_two_samples_the_mean_is_nan(self, values):
        stats = harness._stats(np.array(values))
        assert list(stats) == ["mean", "var", "se", "n"]
        assert math.isnan(stats["mean"])
        assert (stats["var"], stats["se"], stats["n"]) == (0.0, 0.0, len(values))


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

    # a NaN sigma passed every range check and reported NaN statistics; an
    # infinite one raised NumericRange
    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_exp_abs_bound_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(DomainError, match="sigma must be finite"):
            check_exp_abs_bound((sigma,), (1,), 50, 1)

    # a fractional seed ended in a bare TypeError from SeedSequence
    # (exp_abs_bound); product moments never checked its seed, and ended in a
    # bare AttributeError (1.5) or TypeError ('3')
    @pytest.mark.parametrize("check, first", [(check_exp_abs_bound, (0.5,)),
                                              (check_product_moments, "constant:0.5")],
                             ids=["exp_abs_bound", "product_moments"])
    @pytest.mark.parametrize("seed", [1.5, "3"])
    def test_checks_reject_non_integer_seed(self, check, first, seed):
        with pytest.raises(DomainError, match=f"seed must be an integer, got {seed!r}"):
            check(first, (1,), 5, seed)

    # a time that is not an integer was simulated at 1.5 and reported as t = 1
    # (exp_abs_bound) or truncated to 1 (product moments); reps = 5.5 failed in numpy
    @pytest.mark.parametrize("reps, t_list, message", [(1, (1,), "reps"),
                                                       (100, (1, 0), "t must be >= 1"),
                                                       (5.5, (1,), "reps must be an integer"),
                                                       (5, (1.5,), "t must be an integer")])
    def test_exp_abs_bound_rejects_bad_arguments(self, reps, t_list, message):
        with pytest.raises(DomainError, match=message):
            check_exp_abs_bound((0.5,), t_list, reps, 0)

    @pytest.mark.parametrize("reps, t_list, message", [(1, (5,), "reps"),
                                                       (100, (), "t_list"),
                                                       (100, (3, 0), "t_list"),
                                                       (5.5, (5,), "reps must be an integer"),
                                                       (5, (2, 3.0), "t_list entry must be an")])
    def test_product_moments_rejects_bad_arguments(self, reps, t_list, message):
        with pytest.raises(DomainError, match=message):
            check_product_moments("constant:0.5", t_list, reps, 0)

    def test_product_moments_rejects_missing_profile(self):
        with pytest.raises(DomainError, match="got None"):
            check_product_moments(None, (5,), 10, 0)

    def test_checks_accept_numpy_integers(self):
        for check, first in ((check_exp_abs_bound, (0.5,)), (check_product_moments, "constant:0.5")):
            got = check(first, (np.int64(2), np.int32(3)), np.int64(40), 1)
            assert got == check(first, (2, 3), 40, 1)

    def test_exp_abs_bound_rejects_overflowing_bound(self):
        # e^{sigma^2 t / 2} at sigma = 1, t = 1420 is beyond a double
        with pytest.raises(NumericRange, match="sigma\\^2 t / 2"):
            check_exp_abs_bound((1.0,), (1000, 1420), 100, 0)

    def test_exp_abs_bound_rejects_overflowing_sample(self, monkeypatch):
        # a draw of 30 standard deviations at t = 1000: sigma |W_t| = 949 > 700
        class Far:
            def standard_normal(self, n):
                return np.full(n, 30.0)

        monkeypatch.setattr(harness, "replication_rng", lambda seed, i: Far())
        with pytest.raises(NumericRange, match="max sigma \\|W_t\\|"):
            check_exp_abs_bound((1.0,), (1000,), 100, 0)

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
