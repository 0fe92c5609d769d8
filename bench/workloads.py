"""The benchmark's three workloads: inputs, one timed iteration, checks.

``mc_bm`` and ``mc_gbm`` drive ``dyncorr experiment run`` in-process through
the click entry point; ``path_curve`` evaluates the dynamic-correlation
curve of one seeded pair through the library.  Each workload object has

* ``iterate(span)``: the timed work; ``span`` is the tracer's span
  factory, or a no-op when tracing is off;
* ``check(out, tally)``: compares one iteration's outputs with the first
  iteration's, and counts the experiment checks of the first iteration;
* ``gate(out, tally)``: compares a sample of outputs with the direct-form
  references of ``reference.py``;
* ``points`` and ``path_steps``: the work one iteration does;
* ``yardstick``: the kind of ``worker.Yardstick`` its kind of work is
  timed against.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np

import reference as ref

BM_PROFILE = "capped:0.5,10"
BM_PARAMS = {"q": 0.5, "p": 1.0}
GBM_V2 = ("gbm_consistency_v2", BM_PROFILE, {"a": 1.0, "b": 16.0, "c": 2.0, "sigma": 0.1,
                                              "variant": "v2"})
GBM_V1 = ("gbm_consistency_v1", "constant:0.5", {"a": 1.0, "b": 12.0, "c": 2.0, "sigma": 0.1,
                                                  "variant": "v1"})

SIZES = {
    "full": {"T_list": (1000, 10000), "reps": 500, "curve_T": 2000, "gbm_T": 1000,
             "vg_t": (5, 20, 100, 500), "vg_points": 2500},
    "tiny": {"T_list": (50, 200), "reps": 8, "curve_T": 60, "gbm_T": 40,
             "vg_t": (5, 20), "vg_points": 25},
}


def experiments(workload: str, size: dict) -> list:
    """(name, profile spec, params, t_eval, chunk_size, n_jobs) per CLI run.

    mc_gbm runs with one worker: with two, wall time and peak memory spread
    too widely between runs on a 2-core shared machine (see README.md).
    """
    if workload == "mc_bm":
        return [("bm_consistency", BM_PROFILE, BM_PARAMS, 10, 256, 1)]
    return [(name, spec, params, 5, 128, 1) for name, spec, params in (GBM_V2, GBM_V1)]


def setup(workload: str, size_name: str = "full"):
    """What ``setup_s`` times after ``import dyncorr``: profiles and params."""
    import dyncorr.cli  # noqa: F401  (the entry point the mc workloads use)
    from dyncorr import bm, gbm, profiles

    size = SIZES[size_name]
    if workload == "path_curve":
        T, gT = size["curve_T"], size["gbm_T"]
        spec, params = GBM_V2[1], GBM_V2[2]
        return (profiles.build_profile(BM_PROFILE, profiles.TimeGrid(T)),
                bm.BmEstimatorParams(**BM_PARAMS),
                profiles.build_profile(spec, profiles.TimeGrid(gT)),
                gbm.GbmEstimatorParams(**params))
    built = []
    for _, spec, params, *_ in experiments(workload, size):
        grid = profiles.TimeGrid(size["T_list"][-1])
        cls = bm.BmEstimatorParams if "q" in params else gbm.GbmEstimatorParams
        built.append((profiles.build_profile(spec, grid), cls(**params)))
    return built


class Tally:
    """Operations attempted and failed, by name.

    ``kind="check"`` marks an experiment check, a statistical verdict the
    program reports; ``kind="output"`` marks a wrong or unrepeatable output
    and makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = Counter()
        self.wrong = Counter()
        self.repeats = {}

    def op(self, name: str, ok: bool, kind: str = "output"):
        self.attempted += 1
        if not ok:
            self.failed[name] += 1
            if kind == "output":
                self.wrong[name] += 1

    def repeat(self, name: str, ok: bool):
        """One iteration's output matches the warm-up's, or not.

        ``close`` counts each name once, however many iterations a run
        makes, so that ``attempted`` and ``failed`` depend on the seed only.
        """
        self.repeats[name] = self.repeats.get(name, True) and ok

    def close(self):
        for name, ok in self.repeats.items():
            self.op(name, ok)
        self.repeats.clear()


def _sample_indices(rng: random.Random, n: int, k: int) -> list:
    """Index 0 plus k-1 seeded draws from range(n), sorted, without repeats."""
    return sorted({0, *(rng.randrange(n) for _ in range(k - 1))})


class McWorkload:
    """One or two ``dyncorr experiment run`` invocations per iteration."""

    yardstick = "numpy"

    def __init__(self, workload: str, size: dict, seed: int, workdir: Path):
        import dyncorr.cli

        self.main = dyncorr.cli.main
        self.seed, self.size = seed, size
        self.runs = []
        for name, spec, params, t_eval, chunk, jobs in experiments(workload, size):
            ini = workdir / f"{name}.ini"
            ini.write_text(
                "[experiment]\n"
                f"profile = {spec}\nT_list = {','.join(map(str, size['T_list']))}\n"
                f"t_eval = {t_eval}\nreps = {size['reps']}\n"
                f"chunk_size = {chunk}\nn_jobs = {jobs}\n\n[params]\n"
                + "".join(f"{k} = {v}\n" for k, v in params.items())
            )
            self.runs.append((name, spec, params, t_eval, ini, workdir / name))
        n_T = len(size["T_list"])
        self.points = len(self.runs) * n_T * (size["reps"] + 1)
        self.path_steps = len(self.runs) * size["reps"] * sum(size["T_list"])
        self.first_reports = None

    def iterate(self, span):
        codes = []
        for name, _, _, _, ini, out in self.runs:
            args = ["experiment", "run", "--name", name, "--config", str(ini),
                    "--out", str(out), "--seed", str(self.seed)]
            with span("cli.cmd"), contextlib.redirect_stdout(io.StringIO()):
                codes.append(self.main.main(args, prog_name="dyncorr",
                                            standalone_mode=False))
        return codes

    def check(self, codes, tally: Tally) -> dict:
        first = self.first_reports is None
        reports = []
        counts = Counter()
        for (name, *_, out), code in zip(self.runs, codes):
            raw = (out / "report.json").read_bytes()
            reports.append((raw, code))
            report = json.loads(raw)
            if first:
                tally.op(f"{name}/exit_code", code == (None if report["all_passed"] else 3))
            for c in report["checks"]:
                if first:
                    tally.op(f"{name}/{c['name']}", c["passed"], kind="check")
                counts["checks"] += 1
                counts["checks_failed"] += not c["passed"]
            for cell in report["cells"]:
                if "n_invalid_variance" in cell:
                    counts["gbm_flagged"] += cell["n_invalid_variance"]
                    counts["gbm_attempted"] += self.size["reps"]
            counts["bytes_written"] += sum(
                (out / f).stat().st_size for f in ("report.json", "curves.csv", "manifest.json")
            )
        if first:
            self.first_reports = reports
        for (name, *_), got, want in zip(self.runs, reports, self.first_reports):
            tally.repeat(f"{name}/repeat_identical", got == want)
        return counts

    def gate(self, codes, tally: Tally):
        from dyncorr import bm, gbm, simulate
        from dyncorr.profiles import TimeGrid, build_profile

        rng = random.Random(self.seed)
        for name, spec, params, t_eval, _, out in self.runs:
            report = json.loads((out / "report.json").read_bytes())
            for T, cell in zip(self.size["T_list"], report["cells"]):
                profile = build_profile(spec, TimeGrid(T))
                rows = _sample_indices(rng, self.size["reps"], 2)
                paths = [ref.bm_paths(spec, T, self.seed, i) for i in rows]
                for i, (rx, ry) in zip(rows, paths):
                    x, y = simulate.simulate_bm_batch(profile, TimeGrid(T), self.seed, 1, i)
                    scale = max(map(abs, rx + ry))
                    err = max(float(np.max(np.abs(x[0] - rx))), float(np.max(np.abs(y[0] - ry))))
                    tally.op(f"{name}/simulate_vs_reference", err <= ref.RTOL * scale)
                X = np.array([p[0] for p in paths])
                Y = np.array([p[1] for p in paths])
                for u in (t_eval, rng.randrange(1, T + 1)):
                    if "q" in params:
                        lib = (bm.gamma_hat_bm(X, Y, u=u, params=bm.BmEstimatorParams(**params)),
                               bm.sigma_sq_hat_bm(X, u=u, params=bm.BmEstimatorParams(**params)))
                        refs = [(ref.gamma_bm(x, y, u, params["q"], params["p"]),
                                 ref.gamma_bm(x, x, u, params["q"], params["p"]))
                                for x, y in paths]
                    else:
                        gp = gbm.GbmEstimatorParams(**params)
                        gamma = gbm.gamma_hat_gbm_v1 if gp.variant == "v1" else gbm.gamma_hat_gbm_v2
                        form = ref.gamma_gbm_v1 if gp.variant == "v1" else ref.gamma_gbm_v2
                        lib = (gamma(X, Y, t=u, params=gp), gbm.sigma_sq_hat_gbm(X, t=u, params=gp))
                        args = [params[k] for k in ("a", "b", "c", "sigma")]
                        refs = [(form(x, y, u, *args), form(x, x, u, *args)) for x, y in paths]
                    for j, (g_ref, s_ref) in enumerate(refs):
                        tally.op(f"{name}/gamma_vs_reference", ref.within(lib[0][j], *g_ref))
                        tally.op(f"{name}/sigma_sq_vs_reference", ref.within(lib[1][j], *s_ref))
                if "q" in params:
                    rho = ref.profile_rho(spec, T)
                    oracle = cell["oracle"]
                    tally.op(f"{name}/oracle_gamma_vs_reference", ref.within(
                        oracle["expected_gamma"],
                        *ref.expected_gamma_bm(rho, t_eval, params["q"], params["p"])))
                    tally.op(f"{name}/oracle_sigma_sq_vs_reference", ref.within(
                        oracle["expected_sigma_sq"],
                        *ref.expected_gamma_bm([1.0] * T, t_eval, params["q"], params["p"])))


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


class CurveWorkload:
    """rho_hat(u), its oracle, the v2 GBM curve and VG densities of one pair."""

    yardstick = "python"

    def __init__(self, size: dict, seed: int):
        from dyncorr import bm, gbm, simulate
        from dyncorr.profiles import TimeGrid, build_profile

        self.seed, self.size = seed, size
        T, gT = size["curve_T"], size["gbm_T"]
        self.profile = build_profile(BM_PROFILE, TimeGrid(T))
        self.params = bm.BmEstimatorParams(**BM_PARAMS)
        self.pair = simulate.simulate_bm_pair(self.profile, TimeGrid(T), seed)
        gprofile = build_profile(GBM_V2[1], TimeGrid(gT))
        self.gparams = gbm.GbmEstimatorParams(**GBM_V2[2])
        self.gpair = simulate.simulate_gbm_pair(
            simulate.simulate_bm_pair(gprofile, TimeGrid(gT), seed, replication=1),
            self.gparams.sigma,
        )
        rng = np.random.default_rng(seed)
        rho = ref.profile_rho(BM_PROFILE, max(size["vg_t"]))
        self.vg_inputs = []
        for t in size["vg_t"]:
            x = t * rng.uniform(-10.0, 10.0, size["vg_points"])
            self.vg_inputs.append((t, rho[t - 1], [float(v) for v in x if v != 0.0]))
        self.points = T + T + gT + sum(len(x) for _, _, x in self.vg_inputs)
        self.path_steps = T * T + gT * gT
        self.first = None

    def iterate(self, span):
        import dyncorr.bm as bm
        import dyncorr.gbm as gbm
        import dyncorr.vg as vg

        T, gT = self.size["curve_T"], self.size["gbm_T"]
        est = [bm.estimate_bm(self.pair, u, self.params) for u in range(1, T + 1)]
        oracle = [bm.expected_ratio_q(self.profile, u, self.params, T) for u in range(1, T + 1)]
        gest = [gbm.estimate_gbm(self.gpair, t, self.gparams) for t in range(1, gT + 1)]
        dens = []
        for t, rho, xs in self.vg_inputs:
            params = vg.product_normal_vg_params(math.sqrt(t), math.sqrt(t), rho)
            dens.append([vg.vg_pdf(x, params) for x in xs])
        return est, oracle, gest, dens

    def check(self, out, tally: Tally) -> dict:
        est, oracle, gest, dens = out
        digests = {
            "bm_curve": _digest([(e.gamma_hat, e.sigma_x_sq_hat, e.sigma_y_sq_hat) for e in est]),
            "oracle_curve": _digest(oracle),
            "gbm_curve": _digest([(e.gamma_hat, e.sigma_w_sq_hat, e.sigma_u_sq_hat) for e in gest]),
            "vg_density": _digest([d for row in dens for d in row]),
        }
        if self.first is None:
            self.first = digests
        for name, digest in digests.items():
            tally.repeat(f"path_curve/{name}_identical", digest == self.first[name])
        flagged = sum(1 for e in gest if e.flags)
        return Counter(gbm_flagged=flagged, gbm_attempted=len(gest))

    def gate(self, out, tally: Tally):
        est, oracle, gest, dens = out
        T, gT = self.size["curve_T"], self.size["gbm_T"]
        rng = random.Random(self.seed)
        q, p = BM_PARAMS["q"], BM_PARAMS["p"]
        x, y = ref.bm_paths(BM_PROFILE, T, self.seed, 0)
        err = max(float(np.max(np.abs(self.pair.x - x))), float(np.max(np.abs(self.pair.y - y))))
        tally.op("path_curve/simulate_vs_reference", err <= ref.RTOL * max(map(abs, x + y)))
        rho = ref.profile_rho(BM_PROFILE, T)
        for u in sorted({1, 10, T, *(rng.randrange(1, T + 1) for _ in range(3))}):
            e = est[u - 1]
            g, sx, sy = ref.gamma_bm(x, y, u, q, p), ref.gamma_bm(x, x, u, q, p), ref.gamma_bm(y, y, u, q, p)
            tally.op("path_curve/gamma_vs_reference", ref.within(e.gamma_hat, *g))
            tally.op("path_curve/sigma_sq_vs_reference", ref.within(e.sigma_x_sq_hat, *sx)
                     and ref.within(e.sigma_y_sq_hat, *sy))
            tally.op("path_curve/rho_vs_reference",
                     ref.within(e.rho_hat, g[0] / math.sqrt(sx[0] * sy[0]), 1.0))
            eg, es = ref.expected_gamma_bm(rho, u, q, p), ref.expected_gamma_bm([1.0] * T, u, q, p)
            tally.op("path_curve/oracle_vs_reference",
                     ref.within(oracle[u - 1], eg[0] / es[0], eg[1] / es[0]))
        w, uu = list(self.gpair.w), list(self.gpair.u)
        args = [GBM_V2[2][k] for k in ("a", "b", "c", "sigma")]
        for t in sorted({1, 5, gT, *(rng.randrange(1, gT + 1) for _ in range(3))}):
            e = gest[t - 1]
            tally.op("path_curve/gbm_gamma_vs_reference",
                     ref.within(e.gamma_hat, *ref.gamma_gbm_v2(w, uu, t, *args)))
            tally.op("path_curve/gbm_sigma_sq_vs_reference",
                     ref.within(e.sigma_w_sq_hat, *ref.gamma_gbm_v2(w, w, t, *args))
                     and ref.within(e.sigma_u_sq_hat, *ref.gamma_gbm_v2(uu, uu, t, *args)))
        for (t, rho_t, xs), row in zip(self.vg_inputs, dens):
            for j in _sample_indices(rng, len(xs), 5):
                want = ref.product_normal_pdf(xs[j], math.sqrt(t), rho_t)
                tally.op("path_curve/vg_pdf_vs_reference", ref.within(row[j], want, 0.0, 1e-9))


def make(workload: str, size_name: str, seed: int, workdir: Path):
    size = SIZES[size_name]
    if workload == "path_curve":
        return CurveWorkload(size, seed)
    return McWorkload(workload, size, seed, workdir)
