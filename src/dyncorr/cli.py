"""Command-line interface: simulation, estimation, oracles and experiments.

Exit codes: 0 success, 1 runtime or I/O error, 2 usage error, 3 experiment
assertion failure.  The master seed defaults to the decimal value of the
``DYNCORR_SEED`` environment variable, falling back to 0.

All numeric output uses 17 significant digits so files round-trip exactly;
experiment runs write ``report.json`` and ``curves.csv`` plus a
``manifest.json`` (written last) listing every output file with its sha256.
"""

from __future__ import annotations

import configparser
import dataclasses
import datetime
import functools
import hashlib
import json
import math
import os
from pathlib import Path

import click
import numpy as np

from . import __version__, bm, gbm
from .errors import DyncorrError
from .harness import (
    ESTIMATOR_EXPERIMENTS,
    EXPERIMENTS,
    ExperimentConfig,
    oracle_values,
    run_experiment,
)
from .profiles import CorrelationProfile, TimeGrid, build_profile
from .simulate import BmPathPair, simulate_bm_pair, simulate_gbm_pair

_FLOAT_FMT = "%.17g"


def _fmt(value: float) -> str:
    return _FLOAT_FMT % value


def _runtime_errors(fn):
    """Map package and I/O errors to exit code 1 with a clean message."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (DyncorrError, OSError, ValueError) as exc:
            # a package error of a command that reads a file names the file
            where = kwargs.get("in_path") if isinstance(exc, DyncorrError) else None
            raise click.ClickException(f"{where}: {exc}" if where else str(exc)) from exc

    return wrapper


def _load_profile(spec: str, grid: TimeGrid) -> CorrelationProfile:
    """Profile mini-grammar, with ``table:@file`` reading one value per line."""
    if spec.startswith("table:@"):
        path = Path(spec[len("table:@"):])
        values = [
            line.strip() for line in path.read_text().splitlines() if line.strip()
        ]
        if values and values[0].lower() in ("rho", "value"):
            values = values[1:]
        spec = "table:" + ",".join(values)
    return build_profile(spec, grid)


# estimator exponents and volatilities out of range are usage errors (exit 2)
_NONNEGATIVE = click.FloatRange(min=0)
_POSITIVE = click.FloatRange(min=0, min_open=True)


seed_option = click.option(
    "--seed", type=int, default=0, envvar="DYNCORR_SEED", show_default=True,
    help="Master seed (env DYNCORR_SEED).",
)


@click.group()
@click.version_option(__version__, prog_name="dyncorr")
def main():
    """Dynamic-correlation estimation toolkit."""


# ---------------------------------------------------------------------------
# simulate

@main.group()
def simulate():
    """Generate correlated path pairs."""


@simulate.command("bm")
@click.option("--profile", required=True, help="Profile spec, e.g. constant:0.5.")
@click.option("--T", "T", type=int, required=True, help="Grid length.")
@seed_option
@click.option("--replication", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), required=True)
@_runtime_errors
def simulate_bm_cmd(profile, T, seed, replication, out):
    """Write one Brownian pair as CSV with columns t,x,y."""
    grid = TimeGrid(T)
    pair = simulate_bm_pair(_load_profile(profile, grid), grid, seed, replication)
    rows = np.column_stack([grid.times, pair.x, pair.y])
    np.savetxt(out, rows, fmt=["%d", _FLOAT_FMT, _FLOAT_FMT], delimiter=",",
               header="t,x,y", comments="")
    click.echo(f"wrote {out} (T={T})")


@simulate.command("gbm")
@click.option("--profile", required=True, help="Profile spec of the driving pair.")
@click.option("--T", "T", type=int, required=True, help="Grid length.")
@click.option("--sigma", type=_POSITIVE, required=True, help="Volatility.")
@seed_option
@click.option("--replication", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), required=True)
@_runtime_errors
def simulate_gbm_cmd(profile, T, sigma, seed, replication, out):
    """Write one geometric pair as CSV with columns t,r,s,w,u."""
    grid = TimeGrid(T)
    pair = simulate_gbm_pair(
        simulate_bm_pair(_load_profile(profile, grid), grid, seed, replication), sigma
    )
    rows = np.column_stack([grid.times, pair.r_path, pair.s_path, pair.w, pair.u])
    np.savetxt(out, rows, fmt=["%d"] + [_FLOAT_FMT] * 4, delimiter=",",
               header="t,r,s,w,u", comments="")
    click.echo(f"wrote {out} (T={T})")


# ---------------------------------------------------------------------------
# estimate

def _read_csv_columns(path, expected: tuple) -> dict:
    """The expected columns as float arrays of at least 2 finite values."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    missing = [c for c in expected if c not in (data.dtype.names or ())]
    if missing:
        raise click.ClickException(
            f"{path}: missing column(s) {', '.join(missing)}; expected header "
            + ",".join(expected)
        )
    cols = {c: np.atleast_1d(data[c]) for c in expected}
    for name, values in cols.items():
        if values.size < 2:
            raise click.ClickException(
                f"{path}: column {name} has {values.size} row(s); need at least 2"
            )
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise click.ClickException(
                f"{path}: column {name} has a non-finite or unparsable value "
                f"in data row {bad[0] + 1}"
            )
    return cols


@main.group()
def estimate():
    """Run the estimators on path CSV files."""


@estimate.command("bm")
@click.option("--q", type=_NONNEGATIVE, required=True, help="Amplification exponent.")
@click.option("--p", type=_NONNEGATIVE, required=True, help="Damping exponent.")
@click.option("--u", "u_list", type=int, required=True, multiple=True,
              help="Evaluation time (repeatable).")
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), required=True)
@_runtime_errors
def estimate_bm_cmd(q, p, u_list, in_path, out):
    """Estimate at each requested time; CSV columns
    u,gamma_hat,sigma_x_sq,sigma_y_sq,rho_hat."""
    cols = _read_csv_columns(in_path, ("t", "x", "y"))
    params = bm.BmEstimatorParams(q, p)
    if not params.in_consistency_range():
        click.echo(f"note: (q={q}, p={p}) lies outside the consistency range", err=True)
    pair = BmPathPair(TimeGrid(cols["x"].size), cols["x"], cols["y"],
                      profile=None, seed=None)
    lines = ["u,gamma_hat,sigma_x_sq,sigma_y_sq,rho_hat"]
    for u in u_list:
        e = bm.estimate_bm(pair, u, params)
        lines.append(",".join([str(u)] + [
            _fmt(v) for v in (e.gamma_hat, e.sigma_x_sq_hat, e.sigma_y_sq_hat, e.rho_hat)
        ]))
    Path(out).write_text("\n".join(lines) + "\n")
    click.echo(f"wrote {out} ({len(u_list)} row(s))")


@estimate.command("gbm")
@click.option("--variant", type=click.Choice(["v1", "v2"]), default="v1",
              show_default=True)
@click.option("--a", type=float, required=True)
@click.option("--b", type=float, required=True)
@click.option("--c", type=float, required=True)
@click.option("--sigma", type=_POSITIVE, required=True)
@click.option("--t", "t_list", type=int, required=True, multiple=True,
              help="Evaluation time (repeatable).")
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), required=True)
@_runtime_errors
def estimate_gbm_cmd(variant, a, b, c, sigma, t_list, in_path, out):
    """Estimate at each requested time from the driving paths (columns t,w,u;
    r and s are rebuilt from them); CSV columns
    t,gamma_hat,sigma_w_sq,sigma_u_sq,rho_hat,flags."""
    cols = _read_csv_columns(in_path, ("t", "w", "u"))
    params = gbm.GbmEstimatorParams(a, b, c, sigma, variant)
    if not params.in_consistency_range():
        click.echo(
            f"note: (a={a}, b={b}, c={c}) lies outside the {variant} consistency range",
            err=True,
        )
    pair = simulate_gbm_pair(BmPathPair(TimeGrid(cols["w"].size), cols["w"], cols["u"],
                                        profile=None, seed=None), sigma)
    lines = ["t,gamma_hat,sigma_w_sq,sigma_u_sq,rho_hat,flags"]
    for t in t_list:
        e = gbm.estimate_gbm(pair, t, params)
        lines.append(",".join([str(t)] + [
            _fmt(v) for v in (e.gamma_hat, e.sigma_w_sq_hat, e.sigma_u_sq_hat, e.rho_hat)
        ] + [";".join(e.flags)]))
    Path(out).write_text("\n".join(lines) + "\n")
    click.echo(f"wrote {out} ({len(t_list)} row(s))")


# ---------------------------------------------------------------------------
# oracle

@main.group()
def oracle():
    """Print exact expectation values."""


@oracle.command("bm")
@click.option("--profile", required=True)
@click.option("--q", type=_NONNEGATIVE, required=True)
@click.option("--p", type=_NONNEGATIVE, required=True)
@click.option("--t", type=int, required=True)
@click.option("--T", "T", type=int, required=True)
@_runtime_errors
def oracle_bm_cmd(profile, q, p, t, T):
    """Expected gamma_hat, sigma_sq_hat and their ratio for a Brownian pair."""
    _echo_oracle(bm.BmEstimatorParams(q, p), profile, t, T)


@oracle.command("gbm")
@click.option("--variant", type=click.Choice(["v1", "v2"]), default="v1",
              show_default=True)
@click.option("--profile", required=True, help="Profile spec of the driving pair.")
@click.option("--a", type=float, required=True)
@click.option("--b", type=float, required=True)
@click.option("--c", type=float, required=True)
@click.option("--sigma", type=_POSITIVE, required=True)
@click.option("--t", type=int, required=True)
@click.option("--T", "T", type=int, required=True)
@_runtime_errors
def oracle_gbm_cmd(variant, profile, a, b, c, sigma, t, T):
    """Expected gamma_hat, sigma_sq_hat and their ratio for a geometric pair."""
    _echo_oracle(gbm.GbmEstimatorParams(a, b, c, sigma, variant), profile, t, T)


def _echo_oracle(params, profile: str, t: int, T: int) -> None:
    prof = _load_profile(profile, TimeGrid(T))
    for key, value in oracle_values(params, prof, t, T).items():
        click.echo(f"{key} {_fmt(value)}")


# ---------------------------------------------------------------------------
# vg

@main.group()
def vg():
    """Variance-gamma density and moments."""


_vg_options = [
    click.option("--r", type=_POSITIVE, required=True, help="Shape parameter."),
    click.option("--theta", type=float, required=True, help="Asymmetry."),
    click.option("--sigma", type=_NONNEGATIVE, required=True, help="Scale."),
    click.option("--mu", type=float, required=True, help="Location."),
]


def _with_vg_options(fn):
    for opt in reversed(_vg_options):
        fn = opt(fn)
    return fn


@vg.command("pdf")
@_with_vg_options
@click.option("--x", type=float, required=True, multiple=True,
              help="Evaluation point (repeatable).")
@_runtime_errors
def vg_pdf_cmd(r, theta, sigma, mu, x):
    from .vg import VgParams, vg_pdf

    params = VgParams(r, theta, sigma, mu)
    for xi in x:
        click.echo(_fmt(vg_pdf(xi, params)))


@vg.command("moments")
@_with_vg_options
@_runtime_errors
def vg_moments_cmd(r, theta, sigma, mu):
    from .vg import VgParams, vg_moments

    mean, var = vg_moments(VgParams(r, theta, sigma, mu))
    click.echo(f"mean {_fmt(mean)}")
    click.echo(f"variance {_fmt(var)}")


# ---------------------------------------------------------------------------
# experiment

@main.group()
def experiment():
    """Seeded Monte Carlo experiment runs."""


def _parse_experiment_config(name: str, path: str, seed: int | None) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    with open(path) as handle:
        parser.read_file(handle)
    if "experiment" not in parser:
        raise click.ClickException(f"{path}: missing [experiment] section")
    sec = parser["experiment"]
    try:
        t_list = tuple(int(v) for v in sec["T_list"].split(","))
        kwargs = dict(
            experiment=name,
            profile=sec.get("profile", None),
            T_list=t_list,
            t_eval=sec.getint("t_eval", t_list[0] if t_list else 1),
            reps=sec.getint("reps", 500),
            master_seed=(seed if seed is not None else sec.getint("seed", 0)),
            n_jobs=sec.getint("n_jobs", 1),
        )
    except (KeyError, ValueError) as exc:
        raise click.ClickException(f"{path}: bad [experiment] section: {exc}") from exc
    if name in ESTIMATOR_EXPERIMENTS:
        # required fields are numbers; a field with a default (the GBM
        # variant) keeps its text, and falls back to the variant the
        # experiment names, if any, before its default
        cls, variant = ESTIMATOR_EXPERIMENTS[name]
        params_sec = parser["params"] if "params" in parser else {}
        try:
            kwargs["params"] = cls(**{
                f.name: (float(params_sec[f.name]) if f.default is dataclasses.MISSING
                         else params_sec.get(f.name, variant or f.default))
                for f in dataclasses.fields(cls)
            })
        except KeyError as exc:
            raise click.ClickException(f"{path}: missing [params] key {exc}") from exc
    return ExperimentConfig(**kwargs)


def _json_text(obj) -> str:
    """Deterministic JSON with fixed 17-significant-digit floats."""
    parts = []
    _write_json(obj, parts)
    return "".join(parts)


def _write_json(obj, parts):
    if isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            _write_json(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(", ")
            _write_json(value, parts)
        parts.append("]")
    elif isinstance(obj, bool) or obj is None:
        parts.append(json.dumps(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if math.isnan(obj):
            parts.append("NaN")
        elif math.isinf(obj):
            parts.append("Infinity" if obj > 0 else "-Infinity")
        else:
            parts.append(_fmt(obj))
    else:
        parts.append(json.dumps(str(obj)))


def _curves_rows(cells) -> list:
    """Flatten report cells into (T, statistic, value) rows."""
    rows = []
    for cell in cells:
        label = cell.get("T", cell.get("t", ""))
        for key, value in cell.items():
            if key in ("T", "t"):
                continue
            if isinstance(value, dict):
                for sub, v in value.items():
                    if isinstance(v, (int, float)):
                        rows.append((label, f"{key}_{sub}", float(v)))
            elif isinstance(value, (int, float)):
                rows.append((label, key, float(value)))
    return rows


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@experiment.command("run")
@click.option("--name", type=click.Choice(EXPERIMENTS), required=True)
@click.option("--config", "config_path",
              type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--seed", type=int, default=None, envvar="DYNCORR_SEED",
              help="Master seed override (env DYNCORR_SEED).")
@click.pass_context
@_runtime_errors
def experiment_run_cmd(ctx, name, config_path, out_dir, seed):
    """Run one experiment; write report.json, curves.csv and manifest.json.

    Exits 3 when any assertion in the report fails.
    """
    config = _parse_experiment_config(name, config_path, seed)
    report = run_experiment(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # report.json must be byte-identical across reruns; wall-clock data
    # lives in the manifest instead
    report_dict = report.to_dict()
    runtime_s = report_dict.pop("runtime_s")
    report_path = out / "report.json"
    report_path.write_text(_json_text(report_dict) + "\n")

    curves_path = out / "curves.csv"
    curve_lines = ["T,statistic,value"] + [
        f"{label},{stat},{_fmt(value)}" for label, stat, value in _curves_rows(report.cells)
    ]
    curves_path.write_text("\n".join(curve_lines) + "\n")

    manifest = {
        "tool": "dyncorr",
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "runtime_s": runtime_s,
        "experiment": name,
        "config": {
            "file": os.path.basename(config_path),
            "profile": (config.profile.spec_string() if config.profile else None),
            "T_list": list(config.T_list),
            "t_eval": config.t_eval,
            "reps": config.reps,
            "params": (vars(config.params) if config.params is not None else None),
            "master_seed": config.master_seed,
            "n_jobs": config.n_jobs,
        },
        "seeds": {"master_seed": config.master_seed,
                  "replications": [0, config.reps - 1]},
        "files": {
            path.name: _sha256(path) for path in (report_path, curves_path)
        },
    }
    (out / "manifest.json").write_text(_json_text(manifest) + "\n")

    status = "PASS" if report.all_passed else "FAIL"
    for check in report.checks:
        click.echo(f"{'PASS' if check.passed else 'FAIL'} {check.name}")
    click.echo(f"{status} {name} ({len(report.checks)} checks) -> {out}")
    if not report.all_passed:
        ctx.exit(3)


if __name__ == "__main__":
    main()
