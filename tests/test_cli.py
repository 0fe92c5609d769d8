"""Command-line interface: grammar, round trips, exit codes, manifests."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import dyncorr
from dyncorr import (
    BmEstimatorParams,
    GbmEstimatorParams,
    TimeGrid,
    build_profile,
    estimate_bm,
    estimate_gbm,
    simulate_bm_pair,
    simulate_gbm_pair,
)
from dyncorr.cli import _json_text, main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def test_module_runs_as_a_script():
    # ``python -m dyncorr.cli`` reaches the module's __main__ guard
    src = str(Path(dyncorr.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-m", "dyncorr.cli", "--version"],
                            capture_output=True, text=True, env=env, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"dyncorr, version {dyncorr.__version__}\n"


class TestSimulate:
    def test_bm_csv_round_trips_exactly(self, runner, tmp_path):
        out = tmp_path / "p.csv"
        result = invoke(runner, [
            "simulate", "bm", "--profile", "constant:0.5", "--T", "50",
            "--seed", "7", "--out", str(out),
        ])
        assert result.exit_code == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        pair = simulate_bm_pair(build_profile("constant:0.5", TimeGrid(50)),
                                TimeGrid(50), 7)
        assert np.array_equal(data["x"], pair.x)
        assert np.array_equal(data["y"], pair.y)

    def test_gbm_csv_has_all_columns(self, runner, tmp_path):
        out = tmp_path / "g.csv"
        result = invoke(runner, [
            "simulate", "gbm", "--profile", "constant:0.5", "--T", "30",
            "--sigma", "0.1", "--seed", "7", "--out", str(out),
        ])
        assert result.exit_code == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,r,s,w,u"

    def test_seed_env_var_default(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        env = {"DYNCORR_SEED": "99"}
        invoke(runner, ["simulate", "bm", "--profile", "constant:0.5",
                        "--T", "20", "--out", str(out1)], env=env)
        invoke(runner, ["simulate", "bm", "--profile", "constant:0.5",
                        "--T", "20", "--seed", "99", "--out", str(out2)])
        assert out1.read_text() == out2.read_text()

    @pytest.mark.parametrize("kind", ["bm", "gbm"])
    @pytest.mark.parametrize("option, env", [
        (["--seed", "-1"], {}), (["--replication", "-1"], {}), ([], {"DYNCORR_SEED": "-3"}),
    ], ids=["seed", "replication", "env-seed"])
    def test_negative_seed_is_usage_error(self, runner, tmp_path, kind, option, env):
        out = tmp_path / "x.csv"
        sigma = ["--sigma", "0.1"] if kind == "gbm" else []
        result = runner.invoke(main, ["simulate", kind, "--profile", "constant:0.5", "--T", "5",
                                      *sigma, *option, "--out", str(out)], env=env)
        assert result.exit_code == 2
        assert f"Invalid value for '{option[0] if option else '--seed'}'" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_gbm_non_finite_sigma_is_runtime_error(self, runner, tmp_path, sigma):
        # NaN once wrote nan into every r and s cell and exited 0
        out = tmp_path / "g.csv"
        result = runner.invoke(main, ["simulate", "gbm", "--profile", "constant:0.5",
                                      "--T", "5", "--sigma", sigma, "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == f"Error: sigma must be finite, got {sigma}\n"
        assert not out.exists()

    def test_infeasible_profile_is_runtime_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "bm", "--profile", "table:0.0,0.95", "--T", "2",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 1

    @pytest.mark.parametrize("spec", ["table:0.1,abc", "table:"])
    def test_unparsable_table_names_the_spec(self, runner, tmp_path, spec):
        result = runner.invoke(main, [
            "simulate", "bm", "--profile", spec, "--T", "2",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"profile spec {spec!r}" in result.output

    def test_table_profile_from_file(self, runner, tmp_path):
        table = tmp_path / "rho.csv"
        table.write_text("rho\n0.1\n0.2\n0.3\n")
        out = tmp_path / "p.csv"
        result = invoke(runner, [
            "simulate", "bm", "--profile", f"table:@{table}", "--T", "3",
            "--seed", "1", "--out", str(out),
        ])
        assert result.exit_code == 0


class TestEstimate:
    @pytest.mark.parametrize("kind, params", [
        ("bm", BmEstimatorParams(0.5, 1.0)),
        ("gbm", GbmEstimatorParams(1.0, 12.0, 2.0, 0.1, "v1")),
        ("gbm", GbmEstimatorParams(1.0, 16.0, 2.0, 0.1, "v2")),
    ], ids=["bm", "gbm-v1", "gbm-v2"])
    def test_bm_round_trip_matches_library(self, runner, tmp_path, kind, params):
        paths, est = tmp_path / "p.csv", tmp_path / "e.csv"
        pair = simulate_bm_pair(build_profile("constant:0.5", TimeGrid(100)),
                                TimeGrid(100), 3)
        if kind == "bm":
            sim_opts, est_opts = [], ["--q", "0.5", "--p", "1", "--u", "10"]
            e = estimate_bm(pair, 10, params)
            expected = [e.gamma_hat, e.sigma_x_sq_hat, e.sigma_y_sq_hat, e.rho_hat]
            flags = []
        else:
            sim_opts = ["--sigma", "0.1"]
            est_opts = ["--variant", params.variant, "--a", "1", "--b", str(params.b),
                        "--c", "2", "--sigma", "0.1", "--t", "5"]
            e = estimate_gbm(simulate_gbm_pair(pair, 0.1), 5, params)
            expected = [e.gamma_hat, e.sigma_w_sq_hat, e.sigma_u_sq_hat, e.rho_hat]
            flags = [";".join(e.flags)]   # v2 at t=5 has a negative variance
        invoke(runner, ["simulate", kind, "--profile", "constant:0.5", "--T", "100",
                        "--seed", "3", *sim_opts, "--out", str(paths)])
        result = invoke(runner, ["estimate", kind, *est_opts,
                                 "--in", str(paths), "--out", str(est)])
        assert result.exit_code == 0
        row = np.genfromtxt(est, delimiter=",", names=True)
        # 17 significant digits survive the text round trip exactly
        got = [float(row[n]) for n in row.dtype.names[1:5]]
        assert np.array_equal(got, expected, equal_nan=True)
        assert est.read_text().splitlines()[1].split(",")[5:] == flags

    @pytest.mark.parametrize("kind, text, message", [
        ("bm", "t,x,y\n1,0.5,0.1\n2,nan,0.3\n3,0.2,0.4\n", "column x has a non-finite"),
        ("bm", "t,x,y\n1,0.5,0.7\n", "need at least 2"),
        ("bm", "t,x,y\n1,0,0.5\n2,0,0.7\n3,0,0.2\n", "series x has a zero variance"),
        ("bm", "t,x,y\n1,0.5,0\n2,0.7,0\n3,0.2,0\n", "series y has a zero variance"),
        ("gbm", "t,r,s,w,u\n1,1,1,0,0\n2,1,1,inf,0\n", "column w has a non-finite"),
        # sigma * w = 700 passes the exponent check; the squared bracket overflows
        ("gbm", "t,r,s,w,u\n1,1,1,0,0\n2,1,1,7000,0\n3,1,1,0,0\n",
         "non-finite estimator component"),
        # genfromtxt warned "Empty input file", then raised IndexError
        ("bm", "", "missing column(s) t, x, y"),
        ("gbm", "\n  \n\n", "missing column(s)"),
        # the fields np.loadtxt cannot parse read as NaN, as genfromtxt read them
        ("bm", "t,x,y\n1,0.5,0.1\n2,abc,0.3\n3,0.2,0.4\n",
         "column x has a non-finite or unparsable value in data row 2"),
        ("bm", "t,x,y\n1,0.5,0.1\n2,,0.3\n3,0.2,0.4\n",
         "column x has a non-finite or unparsable value in data row 2"),
        ("bm", "t,x,y\n1,0.5,0.1\n2,inf,0.3\n3,0.2,0.4\n",
         "column x has a non-finite or unparsable value in data row 2"),
        # a ragged row is named by its line, blank lines aside and the header line 1
        ("bm", "t,x,y\n1,0.5,0.1\n\n2,0.3\n3,0.2,0.4\n", "from 3 to 2 at row 3"),
        ("bm", "t,x,y\n1,0.5,0.1\n2,0.1,0.3,9\n3,0.2,0.4\n", "from 3 to 4 at row 3"),
        ("bm", "t,x,y\n1,0.5,0.1,9\n2,0.1,0.3,9\n", "from 3 to 4 at row 2"),
    ], ids=["bm-nan", "bm-one-row", "bm-constant", "bm-constant-y", "gbm-inf",
            "gbm-overflow", "bm-empty", "gbm-blank-lines", "bm-abc", "bm-empty-field",
            "bm-inf", "bm-short-row", "bm-long-row", "bm-rows-wider-than-header"])
    @pytest.mark.filterwarnings("error")
    def test_bad_input_is_clean_runtime_error(self, runner, tmp_path, kind, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        opts = (["--q", "0.5", "--p", "1", "--u", "1"] if kind == "bm" else
                ["--a", "1", "--b", "16", "--c", "2", "--sigma", "0.1", "--t", "1"])
        result = runner.invoke(main, ["estimate", kind, *opts, "--in", str(bad),
                                      "--out", str(tmp_path / "e.csv")])
        assert result.exit_code == 1
        # a clean exit, not an escaped exception
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert str(bad) in result.output

    # spaced and quoted names, a leading "#" (as np.savetxt writes the header),
    # blank lines and comments read as the plain file does
    @pytest.mark.parametrize("header, gap", [("t, x, y", "\n\n"), ('"t","x","y"', "\n"),
                                             ("# t,x,y", "\n# a comment\n")],
                             ids=["spaced", "quoted", "savetxt"])
    @pytest.mark.filterwarnings("error")
    def test_header_forms_and_blank_lines_read_as_plain(self, runner, tmp_path, header, gap):
        plain, other = tmp_path / "p.csv", tmp_path / "o.csv"
        invoke(runner, ["simulate", "bm", "--profile", "capped:0.5,10", "--T", "40",
                        "--seed", "2", "--out", str(plain)])
        first, *rows = plain.read_text().splitlines()
        assert first == "t,x,y"
        other.write_text(header + gap + "\n".join(rows[:20]) + gap + "\n".join(rows[20:]))
        for path in (plain, other):
            result = invoke(runner, ["estimate", "bm", "--q", "0.5", "--p", "1", "--u", "all",
                                     "--in", str(path), "--out", str(path.with_suffix(".est"))])
            assert result.exit_code == 0
        assert (plain.with_suffix(".est").read_bytes()
                == other.with_suffix(".est").read_bytes())

    @pytest.mark.parametrize("kind, params", [
        ("bm", BmEstimatorParams(0.5, 1.0)),
        ("gbm", GbmEstimatorParams(1.0, 12.0, 2.0, 0.1, "v1")),
        ("gbm", GbmEstimatorParams(1.0, 16.0, 2.0, 0.1, "v2")),
    ], ids=["bm", "gbm-v1", "gbm-v2"])
    def test_all_times_write_every_point(self, runner, tmp_path, kind, params):
        T = 60
        paths, est = tmp_path / "p.csv", tmp_path / "e.csv"
        pair = simulate_bm_pair(build_profile("capped:0.5,10", TimeGrid(T)), TimeGrid(T), 2)
        if kind == "bm":
            sim_opts, est_opts = [], ["--q", "0.5", "--p", "1", "--u", "all"]
            expected = [estimate_bm(pair, u, params) for u in range(1, T + 1)]
        else:
            sim_opts = ["--sigma", "0.1"]
            est_opts = ["--variant", params.variant, "--a", "1", "--b", str(params.b),
                        "--c", "2", "--sigma", "0.1", "--t", "all"]
            gpair = simulate_gbm_pair(pair, 0.1)
            expected = [estimate_gbm(gpair, t, params) for t in range(1, T + 1)]
        invoke(runner, ["simulate", kind, "--profile", "capped:0.5,10", "--T", str(T),
                        "--seed", "2", *sim_opts, "--out", str(paths)])
        result = invoke(runner, ["estimate", kind, *est_opts, "--in", str(paths),
                                 "--out", str(est)])
        assert result.exit_code == 0
        assert f"({T} row(s))" in result.output
        lines = est.read_text().splitlines()
        assert len(lines) == T + 1
        for t, (line, e) in enumerate(zip(lines[1:], expected), start=1):
            fields = line.split(",")
            values = [getattr(e, f.name) for f in dataclasses.fields(e)]
            assert int(fields[0]) == t
            assert np.array_equal([float(v) for v in fields[1:5]], values[:4], equal_nan=True)
            assert fields[5:] == ([] if kind == "bm" else [";".join(e.flags)])

    def test_all_times_follow_the_requested_order(self, runner, tmp_path):
        paths, est = tmp_path / "p.csv", tmp_path / "e.csv"
        invoke(runner, ["simulate", "bm", "--profile", "constant:0.5", "--T", "5",
                        "--out", str(paths)])
        invoke(runner, ["estimate", "bm", "--q", "0.5", "--p", "1", "--u", "3", "--u", "all",
                        "--in", str(paths), "--out", str(est)])
        assert [line.split(",")[0] for line in est.read_text().splitlines()[1:]] == \
            ["3", "1", "2", "3", "4", "5"]

    def test_flat_path_at_all_times_is_runtime_error(self, runner, tmp_path):
        flat = tmp_path / "flat.csv"
        flat.write_text("t,x,y\n1,0,0.5\n2,0,0.7\n3,0,0.2\n")
        result = runner.invoke(main, ["estimate", "bm", "--q", "0.5", "--p", "1",
                                      "--u", "all", "--in", str(flat),
                                      "--out", str(tmp_path / "e.csv")])
        assert result.exit_code == 1
        assert "series x has a zero variance" in result.output

    @pytest.mark.parametrize("value", ["al", "1.5", ""])
    def test_time_neither_integer_nor_all_is_usage_error(self, runner, tmp_path, value):
        paths = tmp_path / "p.csv"
        invoke(runner, ["simulate", "bm", "--profile", "constant:0.5", "--T", "5",
                        "--out", str(paths)])
        result = runner.invoke(main, ["estimate", "bm", "--q", "0.5", "--p", "1",
                                      "--u", value, "--in", str(paths),
                                      "--out", str(tmp_path / "e.csv")])
        assert result.exit_code == 2

    def test_gbm_reads_only_the_driving_paths(self, runner, tmp_path):
        full, bare = tmp_path / "full.csv", tmp_path / "bare.csv"
        invoke(runner, ["simulate", "gbm", "--profile", "constant:0.5", "--T", "50",
                        "--sigma", "0.1", "--seed", "4", "--out", str(full)])
        cols = np.genfromtxt(full, delimiter=",", names=True)
        np.savetxt(bare, np.column_stack([cols["t"], cols["w"], cols["u"]]),
                   delimiter=",", header="t,w,u", comments="", fmt="%.17g")
        outs = []
        for name, path in [("full", full), ("bare", bare)]:
            outs.append(tmp_path / f"e-{name}.csv")
            invoke(runner, ["estimate", "gbm", "--variant", "v2", "--a", "1", "--b", "16",
                            "--c", "2", "--sigma", "0.1", "--t", "5", "--t", "30",
                            "--in", str(path), "--out", str(outs[-1])])
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_bm_negative_exponent_is_usage_error(self, runner, tmp_path):
        paths = tmp_path / "p.csv"
        invoke(runner, ["simulate", "bm", "--profile", "constant:0.5",
                        "--T", "30", "--out", str(paths)])
        result = runner.invoke(main, ["estimate", "bm", "--q", "-1", "--p", "1",
                                      "--u", "5", "--in", str(paths),
                                      "--out", str(tmp_path / "e.csv")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["oracle", "bm", "--profile", "constant:0.5", "--q", "-1", "--p", "1",
         "--t", "5", "--T", "30"],
        ["oracle", "gbm", "--profile", "constant:0.5", "--a", "1", "--b", "16",
         "--c", "2", "--sigma", "0", "--t", "5", "--T", "30"],
    ], ids=["bm-negative-q", "gbm-zero-sigma"])
    def test_oracle_out_of_range_option_is_usage_error(self, runner, args):
        # the same options exit 2 on estimate and oracle commands alike
        assert runner.invoke(main, args).exit_code == 2

    @pytest.mark.parametrize("kind, option, value", [
        ("bm", "q", "inf"), ("bm", "p", "inf"),
        ("gbm", "a", "nan"), ("gbm", "b", "inf"), ("gbm", "c", "-inf"), ("gbm", "sigma", "inf"),
    ])
    def test_oracle_non_finite_parameter_names_it(self, runner, kind, option, value):
        # these once exited 1 blaming sums too large for a double
        base = ({"q": "0.5", "p": "1"} if kind == "bm"
                else {"a": "1", "b": "16", "c": "2", "sigma": "0.1"})
        base[option] = value
        args = [a for k, v in base.items() for a in (f"--{k}", v)]
        result = runner.invoke(main, ["oracle", kind, "--profile", "constant:0.5", *args,
                                      "--t", "5", "--T", "30"])
        assert result.exit_code == 1
        assert result.output == f"Error: {option} must be finite, got {float(value)!r}\n"

    def test_bm_out_of_range_warns_on_stderr(self, runner, tmp_path):
        paths = tmp_path / "p.csv"
        invoke(runner, ["simulate", "bm", "--profile", "constant:0.5",
                        "--T", "30", "--out", str(paths)])
        result = invoke(runner, ["estimate", "bm", "--q", "0", "--p", "0",
                                 "--u", "5", "--in", str(paths),
                                 "--out", str(tmp_path / "e.csv")])
        assert result.exit_code == 0
        assert "outside the consistency range" in result.output

    def test_gbm_estimate_with_flags_column(self, runner, tmp_path):
        paths, est = tmp_path / "g.csv", tmp_path / "e.csv"
        invoke(runner, ["simulate", "gbm", "--profile", "constant:0.5",
                        "--T", "80", "--sigma", "0.1", "--seed", "3",
                        "--out", str(paths)])
        result = invoke(runner, ["estimate", "gbm", "--variant", "v2",
                                 "--a", "1", "--b", "16", "--c", "2",
                                 "--sigma", "0.1", "--t", "5",
                                 "--in", str(paths), "--out", str(est)])
        assert result.exit_code == 0
        header = est.read_text().splitlines()[0]
        assert header == "t,gamma_hat,sigma_w_sq,sigma_u_sq,rho_hat,flags"

    def test_gbm_out_of_range_notes_on_stderr(self, runner, tmp_path):
        paths = tmp_path / "g.csv"
        invoke(runner, ["simulate", "gbm", "--profile", "constant:0.5", "--T", "40",
                        "--sigma", "0.1", "--out", str(paths)])
        result = invoke(runner, ["estimate", "gbm", "--a", "1", "--b", "10", "--c", "2",
                                 "--sigma", "0.1", "--t", "5", "--in", str(paths),
                                 "--out", str(tmp_path / "e.csv")])
        assert result.exit_code == 0
        assert "note: (a=1.0, b=10.0, c=2.0) lies outside the v1 consistency range" \
            in result.output

    def test_gbm_rho_beyond_one_is_flagged(self, runner, tmp_path):
        # v2 at T = 1000: rho_hat exceeds 1 in magnitude, kept and flagged
        paths, est = tmp_path / "g.csv", tmp_path / "e.csv"
        invoke(runner, ["simulate", "gbm", "--profile", "capped:0.5,10", "--T", "1000",
                        "--sigma", "0.1", "--seed", "1", "--out", str(paths)])
        invoke(runner, ["estimate", "gbm", "--variant", "v2", "--a", "1", "--b", "16",
                        "--c", "2", "--sigma", "0.1", "--t", "1", "--t", "10",
                        "--in", str(paths), "--out", str(est)])
        for line in est.read_text().splitlines()[1:]:
            *values, flags = line.split(",")
            assert abs(float(values[4])) > 1.0 + 1e-12
            assert flags == "rho_out_of_range"

    def test_gbm_variances_whose_product_underflows(self, runner, tmp_path):
        # at T = 5000, sigma = 0.3 both variances are about 1e-195 and their
        # product is 0.0: rho_hat once divided by it and exited with a traceback
        paths, est = tmp_path / "g.csv", tmp_path / "e.csv"
        invoke(runner, ["simulate", "gbm", "--profile", "constant:0.5", "--T", "5000",
                        "--sigma", "0.3", "--seed", "1", "--out", str(paths)])
        result = invoke(runner, ["estimate", "gbm", "--variant", "v1", "--a", "1", "--b", "12",
                                 "--c", "2", "--sigma", "0.3", "--t", "5",
                                 "--in", str(paths), "--out", str(est)])
        assert result.exit_code == 0
        header, row = est.read_text().splitlines()
        *values, flags = row.split(",")
        assert math.isfinite(float(values[4])) and flags == ""

    def test_missing_column_is_clear_error(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x\n1,0.5\n2,0.7\n")
        result = runner.invoke(main, ["estimate", "bm", "--q", "0.5", "--p", "1",
                                      "--u", "1", "--in", str(bad),
                                      "--out", str(tmp_path / "e.csv")])
        assert result.exit_code == 1
        assert "missing column" in result.output

    def test_missing_input_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["estimate", "bm", "--q", "0.5", "--p", "1",
                                      "--u", "1", "--in", str(tmp_path / "no.csv"),
                                      "--out", str(tmp_path / "e.csv")])
        assert result.exit_code == 2


class TestOracleAndVg:
    def test_oracle_bm_prints_three_values(self, runner):
        result = invoke(runner, ["oracle", "bm", "--profile", "constant:0.5",
                                 "--q", "0.5", "--p", "1", "--t", "10",
                                 "--T", "500"])
        assert result.exit_code == 0
        lines = dict(l.split() for l in result.output.strip().splitlines())
        assert float(lines["expected_ratio_q"]) == pytest.approx(0.5, abs=1e-12)

    def test_oracle_gbm_matches_library(self, runner):
        result = invoke(runner, ["oracle", "gbm", "--variant", "v2",
                                 "--profile", "constant:0.5", "--a", "1",
                                 "--b", "16", "--c", "2", "--sigma", "0.1",
                                 "--t", "5", "--T", "200"])
        assert result.exit_code == 0
        assert "expected_ratio" in result.output

    def test_vg_moments(self, runner):
        result = invoke(runner, ["vg", "moments", "--r", "2", "--theta", "0.5",
                                 "--sigma", "1", "--mu", "0"])
        lines = dict(l.split() for l in result.output.strip().splitlines())
        assert float(lines["mean"]) == pytest.approx(1.0)
        assert float(lines["variance"]) == pytest.approx(3.0)

    def test_vg_pdf_domain_error_is_runtime_error(self, runner):
        result = runner.invoke(main, ["vg", "pdf", "--r", "1", "--theta", "0",
                                      "--sigma", "1", "--mu", "0", "--x", "0"])
        assert result.exit_code == 1

    def test_vg_pdf_shape_beyond_bessel_range_is_runtime_error(self, runner):
        # the point next to mu fails like the one that needs K_nu, naming r
        for x in ("1e-30", "1"):
            result = runner.invoke(main, ["vg", "pdf", "--r", "30001", "--theta", "0",
                                          "--sigma", "1", "--mu", "0", "--x", x])
            assert result.exit_code == 1
            assert result.output == ("Error: density needs shape r <= 20001 (K_nu with "
                                     "nu = (r - 1)/2 <= 1e4), got r=30001.0\n")

    def test_vg_pdf_nan_point_is_runtime_error(self, runner):
        result = runner.invoke(main, ["vg", "pdf", "--r", "2", "--theta", "0",
                                      "--sigma", "1", "--mu", "0", "--x", "nan"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("command", [["pdf", "--x", "1"], ["moments"]])
    @pytest.mark.parametrize("option", [("--r", "0"), ("--r", "-1"), ("--sigma", "-1")])
    def test_vg_out_of_range_option_is_usage_error(self, runner, command, option):
        # the last of a repeated option wins
        result = runner.invoke(main, ["vg", *command, "--r", "1", "--theta", "0",
                                      "--sigma", "1", "--mu", "0", *option])
        assert result.exit_code == 2
        assert option[0] in result.output

    def test_vg_zero_scale_parses_and_pdf_is_runtime_error(self, runner):
        base = ["--r", "1", "--theta", "0.5", "--sigma", "0", "--mu", "0"]
        assert invoke(runner, ["vg", "moments", *base]).exit_code == 0
        result = runner.invoke(main, ["vg", "pdf", *base, "--x", "1"])
        assert result.exit_code == 1
        assert "sigma = 0" in result.output

    def test_vg_pdf_scale_outside_the_double_range_is_runtime_error(self, runner):
        # sigma^2 = 0 was a ZeroDivisionError traceback
        result = runner.invoke(main, ["vg", "pdf", "--r", "1", "--theta", "0.3",
                                      "--sigma", "1e-300", "--mu", "0", "--x", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: density needs sigma^2")
        assert "sigma=1e-300" in result.output

    def test_vg_pdf_at_subnormal_distance(self, runner):
        # the console-script line of CI: the tabulated sum and the subnormal distance
        result = invoke(runner, ["vg", "pdf", "--r", "1", "--theta", "0.3", "--sigma", "1",
                                 "--mu", "0", "--x", "5e-324", "--x", "1", "--x", "40"])
        root = math.sqrt(1.09)
        k0 = -(math.log(root) + math.log(5e-324) - math.log(2.0) + np.euler_gamma)
        values = [float(v) for v in result.output.split()]
        assert values[0] == pytest.approx(k0 / math.pi, rel=1e-12)
        # e^{0.3 x} K_0(sqrt(1.09) x) / pi, by mpmath at 40 digits
        assert values[1:] == [pytest.approx(v, rel=1e-13) for v in (
            0.16992850657617492, 7.313115960296517e-15)]


# a failed allocation (numpy raises a MemoryError subclass naming the shape)
# ended in a traceback; nothing large is allocated here, the callee raises
@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000000000,) "
                 "and data type float64"),
     "out of memory: Unable to allocate 7.45 GiB for an array with shape (1000000000,) "
     "and data type float64"),
    (MemoryError(), "out of memory: allocation failed"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("callee, command", [("vg_pdf", ["pdf", "--x", "1"]),
                                             ("vg_moments", ["moments"])])
def test_memory_error_exits_1_with_one_line(runner, monkeypatch, callee, command, exc, message):
    def fail(*_):
        raise exc

    monkeypatch.setattr(f"dyncorr.cli.{callee}", fail)
    result = runner.invoke(main, ["vg", *command, "--r", "1", "--theta", "0", "--sigma", "1",
                                  "--mu", "0"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {message}\n"


class TestOracleRange:
    def test_bm_non_finite_expectation_exits_1(self, runner):
        # v^{2q} overflows for q = 100: an error, not "expected_gamma nan"
        result = runner.invoke(main, ["oracle", "bm", "--profile", "constant:0.5",
                                      "--q", "100", "--p", "0", "--t", "10",
                                      "--T", "10000"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "non-finite expectation" in result.output

    @pytest.mark.parametrize("variant", ["v1", "v2"])
    def test_gbm_large_expected_variance_is_finite(self, runner, variant):
        # both variants: 1.1431322185623711e87 from a 60-digit mpmath sum;
        # the grouped sum once overflowed here and printed inf and a ratio of 0
        result = invoke(runner, ["oracle", "gbm", "--variant", variant,
                                 "--profile", "constant:0.5", "--a", "1", "--b", "16",
                                 "--c", "1.5", "--sigma", "1", "--t", "200", "--T", "400"])
        lines = dict(line.split() for line in result.output.strip().splitlines())
        assert float(lines["expected_sigma_sq"]) == pytest.approx(1.1431322185623711e87,
                                                                  rel=1e-13)
        assert float(lines["expected_ratio"]) == pytest.approx(3.72e-44, rel=1e-3)


class TestExperimentRun:
    CONFIG = (
        "[experiment]\n"
        "profile = capped:0.5,10\n"
        "T_list = 100,200\n"
        "t_eval = 10\n"
        "reps = 60\n"
        "seed = 7\n"
        "\n"
        "[params]\n"
        "q = 0.5\n"
        "p = 1\n"
    )

    def write_config(self, tmp_path, text=None):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text or self.CONFIG)
        return cfg

    def test_writes_report_curves_manifest(self, runner, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run"
        result = invoke(runner, ["experiment", "run", "--name", "bm_consistency",
                                 "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        assert {c["T"] for c in report["cells"]} == {100, 200}
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0] == "T,statistic,value"
        assert len(curves) > 10

    def test_manifest_checksums_match_files(self, runner, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run"
        invoke(runner, ["experiment", "run", "--name", "bm_consistency",
                        "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["files"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert actual == digest
        assert manifest["config"]["profile"] == "capped:0.5,10.0"
        assert manifest["seeds"]["master_seed"] == 7

    def test_reruns_are_byte_identical(self, runner, tmp_path):
        cfg = self.write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            invoke(runner, ["experiment", "run", "--name", "bm_consistency",
                            "--config", str(cfg), "--out", str(out)])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()

    def test_old_chunk_size_key_is_ignored(self, runner, tmp_path):
        # INI files written for the removed chunk_size option still run
        old = self.CONFIG.replace("seed = 7\n", "seed = 7\nchunk_size = 7\n")
        results = {}
        for label, text in (("old", old), ("new", self.CONFIG)):
            cfg = tmp_path / f"{label}.ini"
            cfg.write_text(text)
            out = tmp_path / label
            result = invoke(runner, ["experiment", "run", "--name", "bm_consistency",
                                     "--config", str(cfg), "--out", str(out)])
            results[label] = (result.exit_code, (out / "report.json").read_bytes())
            manifest = json.loads((out / "manifest.json").read_text())
            assert "chunk_size" not in manifest["config"]
        assert results["old"] == results["new"]

    # misspelled keys were dropped: rep = 3 and n_job = 2 ran the default 500
    # replications on one thread, and sigmaa = 3 was never read
    @pytest.mark.parametrize("name, old, new, message", [
        ("bm_consistency", "reps = 60\n", "rep = 3\nn_job = 2\n",
         "unknown [experiment] key(s) 'rep', 'n_job'"),
        ("bm_consistency", "p = 1\n", "p = 1\nsigmaa = 3\n", "unknown [params] key(s) 'sigmaa'"),
        ("gbm_consistency_v2", "q = 0.5\np = 1\n", "a = 1\nb = 16\nc = 2\nsigma = 0.1\nq = 1\n",
         "unknown [params] key(s) 'q'"),
        # experiments that take no params: sigma = 3 ran sigma 0.5 and 1.0
        ("exp_abs_bound", "q = 0.5\np = 1\n", "sigma = 3\n", "unknown [params] key(s) 'sigma'"),
        ("moment_checks", "q = 0.5\np = 1\n", "q = 1\n", "unknown [params] key(s) 'q'"),
    ])
    def test_unknown_keys_exit_naming_key_and_file(self, runner, tmp_path, name, old, new,
                                                   message):
        cfg = self.write_config(tmp_path, self.CONFIG.replace(old, new))
        out = tmp_path / "run"
        result = runner.invoke(main, ["experiment", "run", "--name", name,
                                      "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {cfg}: {message}\n" in result.output
        assert not out.exists()

    def test_variant_defaults_to_the_experiments(self, runner, tmp_path):
        # gbm_consistency_v2 without a variant key runs v2, as with the key
        text = ("[experiment]\nprofile = constant:0.5\nT_list = 20,40\nt_eval = 5\n"
                "reps = 8\nseed = 3\n\n[params]\na = 1\nb = 16\nc = 2\nsigma = 0.1\n")
        reports = []
        for label, body in (("bare", text), ("keyed", text + "variant = v2\n")):
            cfg = tmp_path / f"{label}.ini"
            cfg.write_text(body)
            out = tmp_path / label
            result = runner.invoke(main, ["experiment", "run", "--name", "gbm_consistency_v2",
                                          "--config", str(cfg), "--out", str(out)])
            assert result.exit_code in (0, 3), result.output
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_explicit_wrong_variant_is_runtime_error(self, runner, tmp_path):
        text = ("[experiment]\nprofile = constant:0.5\nT_list = 20,40\nt_eval = 5\n"
                "reps = 8\n\n[params]\na = 1\nb = 16\nc = 2\nsigma = 0.1\nvariant = v1\n")
        cfg = self.write_config(tmp_path, text)
        result = runner.invoke(main, ["experiment", "run", "--name", "gbm_consistency_v2",
                                      "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert result.exit_code == 1
        assert "requires variant 'v2'" in result.output

    def test_exp_abs_bound_beyond_double_range_is_runtime_error(self, runner, tmp_path):
        # e^{sigma^2 t / 2} at t = 20000 overflows a double: exit 1, no traceback
        text = "[experiment]\nT_list = 200,20000\nt_eval = 5\nreps = 40\nseed = 5\n"
        cfg = self.write_config(tmp_path, text)
        result = runner.invoke(main, ["experiment", "run", "--name", "exp_abs_bound",
                                      "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "exceeds the safe exponent range" in result.output

    def test_estimator_error_names_the_grid_length(self, runner, tmp_path):
        # sigma^2 T = 20000 leaves the exponent range only on the second grid
        text = ("[experiment]\nprofile = constant:0.5\nT_list = 10,20000\nt_eval = 5\n"
                "reps = 4\nseed = 7\n\n"
                "[params]\na = 1\nb = 16\nc = 2\nsigma = 1\nvariant = v2\n")
        cfg = self.write_config(tmp_path, text)
        result = runner.invoke(main, ["experiment", "run", "--name", "gbm_consistency_v2",
                                      "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "T=20000: intermediate exponent" in result.output

    def test_nan_statistic_is_written_as_nan(self, runner, tmp_path):
        # at t = 1 the v2 expected variance is not positive: the expected
        # ratio is NaN, written as the bare JSON token NaN
        text = ("[experiment]\nprofile = constant:0.5\nT_list = 10,40\nt_eval = 1\n"
                "reps = 20\nseed = 7\n\n"
                "[params]\na = 1\nb = 16\nc = 2\nsigma = 0.02\nvariant = v2\n")
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "run"
        runner.invoke(main, ["experiment", "run", "--name", "gbm_consistency_v2",
                             "--config", str(cfg), "--out", str(out)])
        text = (out / "report.json").read_text()
        assert '"expected_ratio": NaN' in text
        report = json.loads(text)
        assert any(math.isnan(cell["oracle"]["expected_ratio"]) for cell in report["cells"])

    @pytest.mark.parametrize("option, env", [(["--seed", "-1"], {}), ([], {"DYNCORR_SEED": "-3"})],
                             ids=["flag", "env"])
    def test_negative_seed_flag_is_usage_error(self, runner, tmp_path, option, env):
        cfg = self.write_config(tmp_path)
        result = runner.invoke(main, ["experiment", "run", "--name", "bm_consistency",
                                      "--config", str(cfg), "--out", str(tmp_path / "run"),
                                      *option], env=env)
        assert result.exit_code == 2
        assert "Invalid value for '--seed'" in result.output
        assert not (tmp_path / "run").exists()

    def test_seed_flag_overrides_config(self, runner, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run"
        invoke(runner, ["experiment", "run", "--name", "bm_consistency",
                        "--config", str(cfg), "--out", str(out),
                        "--seed", "11"])
        report = json.loads((out / "report.json").read_text())
        assert report["master_seed"] == 11

    def test_failing_assertions_exit_code_3(self, runner, tmp_path):
        # an out-of-range, tiny-rep bias run on a trend experiment fails checks
        text = self.CONFIG.replace("T_list = 100,200", "T_list = 100,101")
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "run"
        result = runner.invoke(main, ["experiment", "run", "--name",
                                      "bm_consistency", "--config", str(cfg),
                                      "--out", str(out), "--seed", "5"])
        if result.exit_code == 0:
            pytest.skip("adjacent grids happened to pass; covered elsewhere")
        assert result.exit_code == 3

    def test_missing_section_is_runtime_error(self, runner, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[wrong]\nkey = 1\n")
        result = runner.invoke(main, ["experiment", "run", "--name",
                                      "bm_consistency", "--config", str(cfg),
                                      "--out", str(tmp_path / "run")])
        assert result.exit_code == 1

    @pytest.mark.parametrize("old, new, message", [
        ("T_list = 100,200", "T_list = 100,two", "bad [experiment] section"),
        ("reps = 60", "reps = many", "bad [experiment] section"),
        ("p = 1\n", "", "missing [params] key 'p'"),
        ("seed = 7", "seed = -1", "seed and replication must be >= 0"),
        ("q = 0.5", "q = inf", "q must be finite"),
    ], ids=["T_list", "reps", "params-p", "seed", "params-q"])
    def test_bad_config_value_is_runtime_error(self, runner, tmp_path, old, new, message):
        cfg = self.write_config(tmp_path, self.CONFIG.replace(old, new))
        result = runner.invoke(main, ["experiment", "run", "--name", "bm_consistency",
                                      "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert message in result.output

    def test_manifest_config_lists_every_run_setting(self, runner, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run"
        invoke(runner, ["experiment", "run", "--name", "bm_consistency",
                        "--config", str(cfg), "--out", str(out)])
        text = (out / "manifest.json").read_text()
        config = text[text.index('"config": '):text.index(', "seeds"')]
        assert config == (
            '"config": {"file": "cfg.ini", "profile": "capped:0.5,10.0", '
            '"T_list": [100, 200], "t_eval": 10, "reps": 60, '
            '"params": {"q": 0.5, "p": 1.0}, "master_seed": 7, "n_jobs": 1}')

    # without a profile the run ended in a traceback (AttributeError on None)
    @pytest.mark.parametrize("name", ["bm_consistency", "moment_checks"])
    def test_missing_profile_is_runtime_error(self, runner, tmp_path, name):
        text = self.CONFIG.replace("profile = capped:0.5,10\n", "")
        if name == "moment_checks":   # which takes no [params] section
            text = text[:text.index("[params]")]
        cfg = self.write_config(tmp_path, text)
        result = runner.invoke(main, ["experiment", "run", "--name", name, "--config", str(cfg),
                                      "--out", str(tmp_path / "run")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"Error: {name} needs a correlation profile\n"
        assert not (tmp_path / "run").exists()

    def test_manifest_config_without_profile_or_params(self, runner, tmp_path):
        text = "[experiment]\nT_list = 2,4\nt_eval = 1\nreps = 20\nseed = 5\n"
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "run"
        runner.invoke(main, ["experiment", "run", "--name", "exp_abs_bound",
                             "--config", str(cfg), "--out", str(out)])
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["profile"] is None and config["params"] is None
        assert "experiment" not in config

    def test_json_text_writes_non_finite_floats_as_tokens(self):
        assert _json_text({"a": -math.inf, "b": [math.inf, math.nan, 0.1], "c": None}) == (
            '{"a": -Infinity, "b": [Infinity, NaN, 0.1], "c": null}')

    # %.17g wrote integral floats as integer tokens: 1.0 read back as 1, -0.0 as 0
    def test_json_text_floats_keep_type_and_sign(self):
        values = [0.0, -0.0, 1.0, 1e16, 0.1, math.nan, math.inf, -math.inf, np.float64(1.0)]
        back = json.loads(_json_text(values))
        assert [type(v) for v in back] == [float] * len(values)
        assert [math.copysign(1.0, v) for v in back] == [math.copysign(1.0, v) for v in values]
        assert back[:5] + back[6:] == values[:5] + values[6:]
        assert math.isnan(back[5])

    def test_integral_floats_read_back_as_floats(self, runner, tmp_path):
        runs = {
            "exp_abs_bound": "[experiment]\nT_list = 2,4\nt_eval = 1\nreps = 20\nseed = 5\n",
            "gbm_consistency_v1": ("[experiment]\nprofile = constant:0.5\nT_list = 10,20\n"
                                   "t_eval = 5\nreps = 4\nseed = 7\n\n"
                                   "[params]\na = 1\nb = 16\nc = 2\nsigma = 0.1\n"),
        }
        for name, text in runs.items():
            cfg = self.write_config(tmp_path, text)
            runner.invoke(main, ["experiment", "run", "--name", name, "--config", str(cfg),
                                 "--out", str(tmp_path / name)])
        cells = json.loads((tmp_path / "exp_abs_bound" / "report.json").read_text())["cells"]
        assert [cell["sigma"] for cell in cells] == [0.5, 0.5, 1.0, 1.0]
        assert all(type(cell["sigma"]) is float for cell in cells)
        manifest = json.loads((tmp_path / "gbm_consistency_v1" / "manifest.json").read_text())
        params = manifest["config"]["params"]
        assert [(params[k], type(params[k])) for k in "abc"] == [
            (1.0, float), (16.0, float), (2.0, float)]

    def test_unknown_name_is_usage_error(self, runner, tmp_path):
        cfg = self.write_config(tmp_path)
        result = runner.invoke(main, ["experiment", "run", "--name", "nope",
                                      "--config", str(cfg),
                                      "--out", str(tmp_path / "run")])
        assert result.exit_code == 2


# Every command's option surface as the CLI first declared it, one option per
# command: name -> (flags, type, default, required, multiple, envvar).  Sharing
# one declaration between commands must not move any of these; help text may.
_BOOL = {"name": "boolean", "param_type": "Bool"}
_TEXT = {"name": "text", "param_type": "String"}
_INT = {"name": "integer", "param_type": "Int"}
_FLOAT = {"name": "float", "param_type": "Float"}
_TIME = {"name": "time", "param_type": "_Time"}
_NONNEGATIVE_INT = {"clamp": False, "max": None, "max_open": False, "min": 0,
                    "min_open": False, "name": "integer range", "param_type": "IntRange"}
_NONNEGATIVE = {"clamp": False, "max": None, "max_open": False, "min": 0,
                "min_open": False, "name": "float range", "param_type": "FloatRange"}
_POSITIVE = {**_NONNEGATIVE, "min_open": True}
_IN_FILE = {"allow_dash": False, "dir_okay": False, "exists": True, "file_okay": True,
            "name": "file", "param_type": "Path", "readable": True, "writable": False}
_OUT_FILE = {**_IN_FILE, "exists": False, "writable": True}
_OUT_DIR = {**_IN_FILE, "exists": False, "dir_okay": True, "file_okay": False,
            "name": "directory"}
_VARIANT = {"case_sensitive": True, "choices": ["v1", "v2"], "name": "choice",
            "param_type": "Choice"}
_EXPERIMENT = {**_VARIANT, "choices": [
    "bm_consistency", "bm_variance_decay", "bm_bias_pq0", "gbm_consistency_v1",
    "gbm_consistency_v2", "gbm_variance_decay", "moment_checks", "exp_abs_bound"]}

_REQUIRED = {name: ([f"--{name}"], kind, None, True, False, None) for name, kind in [
    ("profile", _TEXT), ("T", _INT), ("t", _INT), ("sigma", _POSITIVE), ("out", _OUT_FILE),
    ("q", _NONNEGATIVE), ("p", _NONNEGATIVE), ("a", _FLOAT), ("b", _FLOAT), ("c", _FLOAT),
    ("r", _POSITIVE), ("theta", _FLOAT), ("mu", _FLOAT)]}
_SEED = (["--seed"], _NONNEGATIVE_INT, 0, False, False, "DYNCORR_SEED")
_REPLICATION = (["--replication"], _NONNEGATIVE_INT, 0, False, False, None)
_VARIANT_OPTION = (["--variant"], _VARIANT, "v1", False, False, None)
_IN = (["--in"], _IN_FILE, None, True, False, None)


def _pick(*names):
    return {name: _REQUIRED[name] for name in names}


OPTION_SURFACE = {
    "": {"version": (["--version"], _BOOL, False, False, False, None)},
    "simulate": {},
    "simulate bm": {**_pick("profile", "T"), "seed": _SEED, "replication": _REPLICATION,
                    **_pick("out")},
    "simulate gbm": {**_pick("profile", "T", "sigma"), "seed": _SEED,
                     "replication": _REPLICATION, **_pick("out")},
    "estimate": {},
    "estimate bm": {**_pick("q", "p"), "u_list": (["--u"], _TIME, None, True, True, None),
                    "in_path": _IN, **_pick("out")},
    "estimate gbm": {"variant": _VARIANT_OPTION, **_pick("a", "b", "c", "sigma"),
                     "t_list": (["--t"], _TIME, None, True, True, None), "in_path": _IN,
                     **_pick("out")},
    "oracle": {},
    "oracle bm": _pick("profile", "q", "p", "t", "T"),
    "oracle gbm": {"variant": _VARIANT_OPTION, **_pick("profile", "a", "b", "c", "sigma", "t",
                                                       "T")},
    "vg": {},
    "vg pdf": {**_pick("r", "theta"),
               "sigma": (["--sigma"], _NONNEGATIVE, None, True, False, None),
               **_pick("mu"), "x": (["--x"], _FLOAT, None, True, True, None)},
    "vg moments": {**_pick("r", "theta"),
                   "sigma": (["--sigma"], _NONNEGATIVE, None, True, False, None),
                   **_pick("mu")},
    "experiment": {},
    "experiment run": {
        "name": (["--name"], _EXPERIMENT, None, True, False, None),
        "config_path": (["--config"], _IN_FILE, None, True, False, None),
        "out_dir": (["--out"], _OUT_DIR, None, True, False, None),
        "seed": (["--seed"], _NONNEGATIVE_INT, None, False, False, "DYNCORR_SEED"),
    },
}


def _commands(command, path=""):
    yield path, command
    for name, sub in getattr(command, "commands", {}).items():
        yield from _commands(sub, f"{path} {name}".strip())


def test_option_surface_is_pinned():
    surface = {}
    for path, command in _commands(main):
        surface[path] = {}
        for param in command.params:
            # JSON turns tuples into lists, whichever a click version returns
            info = json.loads(json.dumps(param.to_info_dict()))
            surface[path][param.name] = tuple(info[key] for key in (
                "opts", "type", "default", "required", "multiple", "envvar"))
    assert surface == OPTION_SURFACE
