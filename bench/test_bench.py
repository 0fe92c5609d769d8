"""Smoke test of the benchmark itself:

    python3 -m pytest bench/test_bench.py

Runs every workload at the tiny size, traced and untraced, checks that
every metric named in BENCHMARK.json is emitted with its unit, and feeds
perturbed outputs through the correctness gate.
"""

import contextlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seconds=0.5):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if trace:
        layer = {k: v["value"] for k, v in result["metrics"].items()}
        assert layer["trace.self_sum_s"] == pytest.approx(layer["trace.wall_s"], rel=0.02)
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
        text = "\n".join(lines)
        for name in ("error_rate", "wall_s_tail"):
            assert name in text


@pytest.mark.parametrize("workload", ["mc_gbm", "path_curve"])
def test_operation_counts_do_not_depend_on_run_length(workload):
    short, long = (json.loads(run(workload, 0, s)[-1]) for s in (0.2, 2))
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])


@pytest.fixture
def bm_pair():
    return ref.bm_paths("capped:0.5,10", 50, 7, 0)


def test_gate_accepts_library_output_and_rejects_a_perturbed_one(bm_pair):
    from dyncorr import bm

    x, y = bm_pair
    params = bm.BmEstimatorParams(**workloads.BM_PARAMS)
    got = bm.gamma_hat_bm(x, y, u=10, params=params)
    want = ref.gamma_bm(x, y, 10, params.q, params.p)
    assert ref.within(got, *want)
    assert not ref.within(got * (1 + 1e-8), *want)


def test_perturbed_curve_output_counts_as_a_failure(tmp_path):
    wl = workloads.make("path_curve", "tiny", 5, tmp_path)
    null = lambda name: contextlib.nullcontext()  # noqa: E731
    out = wl.iterate(null)
    tally = workloads.Tally()
    wl.gate(out, tally)
    assert tally.attempted > 0 and not tally.failed

    est, oracle, gest, dens = out
    oracle[9] *= 1 + 1e-7
    tally = workloads.Tally()
    wl.gate((est, oracle, gest, dens), tally)
    assert tally.wrong == {"path_curve/oracle_vs_reference": 1}


def test_repeat_that_differs_counts_as_a_failure(tmp_path):
    wl = workloads.make("path_curve", "tiny", 5, tmp_path)
    null = lambda name: contextlib.nullcontext()  # noqa: E731
    tally = workloads.Tally()
    wl.check(wl.iterate(null), tally)
    est, oracle, gest, dens = wl.iterate(null)
    dens[0][0] = math.nextafter(dens[0][0], math.inf)
    wl.check((est, oracle, gest, dens), tally)
    tally.close()
    assert tally.wrong == {"path_curve/vg_density_identical": 1}


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_bm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout == ""
