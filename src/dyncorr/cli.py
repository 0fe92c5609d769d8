"""Command-line interface: simulation, estimation, oracles and experiments.

Exit codes: 0 success, 1 runtime or I/O error or a failed allocation, 2 usage
error, 3 experiment assertion failure.  The master seed defaults to the
decimal value of the ``DYNCORR_SEED`` environment variable, falling back
to 0.

CSV files and printed numbers use 17 significant digits, so each reads back
as the same double.  Experiment runs write ``report.json`` and ``curves.csv``
plus a ``manifest.json`` (written last) listing every output file with its
sha256; the two JSON files write each float in its shortest round-trip form,
so it reads back as the same float, sign and type included.
"""

from __future__ import annotations

import configparser
import dataclasses
import datetime
import functools
import hashlib
import json
import operator
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
from .vg import VgParams, vg_moments, vg_pdf

_FLOAT_FMT = "%.17g"


def _fmt(value: float) -> str:
    return _FLOAT_FMT % value


def _runtime_errors(fn):
    """Map package and I/O errors, and a failed allocation, to exit code 1
    with a clean message."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (DyncorrError, OSError, ValueError) as exc:
            # a package or parse error of a command that reads a file names the file
            where = kwargs.get("in_path") if isinstance(exc, (DyncorrError, ValueError)) else None
            raise click.ClickException(f"{where}: {exc}" if where else str(exc)) from exc
        except MemoryError as exc:
            # numpy's message names the shape it could not allocate; a bare
            # MemoryError has none
            message = str(exc) or "allocation failed"
            raise click.ClickException(f"out of memory: {message}") from exc

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


# estimator exponents and volatilities out of range, and negative seeds and
# replications, are usage errors (exit 2)
_NONNEGATIVE = click.FloatRange(min=0)
_POSITIVE = click.FloatRange(min=0, min_open=True)
_NONNEGATIVE_INT = click.IntRange(min=0)


def _options(*decorators):
    """One decorator that applies ``decorators`` as if stacked in this order."""
    def apply(fn):
        for decorator in reversed(decorators):
            fn = decorator(fn)
        return fn

    return apply


# each option that more than one command takes, declared once
_seed = click.option(
    "--seed", type=_NONNEGATIVE_INT, default=0, envvar="DYNCORR_SEED", show_default=True,
    help="Master seed (env DYNCORR_SEED).",
)
_profile = click.option("--profile", required=True, help="Profile spec, e.g. constant:0.5.")
_grid_length = click.option("--T", "T", type=int, required=True, help="Grid length.")
_volatility = click.option("--sigma", type=_POSITIVE, required=True, help="Volatility.")
_out_file = click.option("--out", type=click.Path(dir_okay=False, writable=True), required=True)
_in_out_files = _options(
    click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True),
    _out_file)
_replication = click.option("--replication", type=_NONNEGATIVE_INT, default=0, show_default=True)
_bm_params = _options(
    click.option("--q", type=_NONNEGATIVE, required=True, help="Amplification exponent."),
    click.option("--p", type=_NONNEGATIVE, required=True, help="Damping exponent."),
)
_gbm_params = _options(
    click.option("--variant", type=click.Choice(["v1", "v2"]), default="v1", show_default=True),
    *(click.option(f"--{name}", type=float, required=True) for name in "abc"),
    _volatility,
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


def _write_paths(out, header: str, grid: TimeGrid, *paths) -> None:
    """One CSV line per time of ``grid``: the time, then each path's value."""
    np.savetxt(out, np.column_stack([grid.times, *paths]),
               fmt=["%d"] + [_FLOAT_FMT] * len(paths), delimiter=",", header=header,
               comments="")
    click.echo(f"wrote {out} (T={grid.T})")


_simulate_options = _options(_profile, _grid_length, _seed, _replication, _out_file)


@simulate.command("bm")
@_simulate_options
@_runtime_errors
def simulate_bm_cmd(profile, T, seed, replication, out):
    """Write one Brownian pair as CSV with columns t,x,y."""
    grid = TimeGrid(T)
    pair = simulate_bm_pair(_load_profile(profile, grid), grid, seed, replication)
    _write_paths(out, "t,x,y", grid, pair.x, pair.y)


@simulate.command("gbm")
@_simulate_options
@_volatility
@_runtime_errors
def simulate_gbm_cmd(profile, T, sigma, seed, replication, out):
    """Write one geometric pair as CSV with columns t,r,s,w,u."""
    grid = TimeGrid(T)
    pair = simulate_gbm_pair(
        simulate_bm_pair(_load_profile(profile, grid), grid, seed, replication), sigma
    )
    _write_paths(out, "t,r,s,w,u", grid, pair.r_path, pair.s_path, pair.w, pair.u)


# ---------------------------------------------------------------------------
# estimate

def _read_csv_columns(path, expected: tuple) -> dict:
    """The expected columns as float arrays of at least 2 finite values.

    Blank lines are skipped, and the first line left is the header: names
    split at commas and stripped of blanks and quotes, after a leading
    ``#`` as ``np.savetxt`` writes one.  One ``np.loadtxt`` reads the header
    row with the data (``#`` starts a comment): a field that is not a number
    reads as NaN, so the header sets the width of every row, and a ragged
    row raises naming it.
    """
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()] or [""]
    lines[0] = lines[0].strip().removeprefix("#")
    names = [name.strip(' "') for name in lines[0].split(",")]
    missing = [c for c in expected if c not in names]
    if missing:
        raise click.ClickException(
            f"{path}: missing column(s) {', '.join(missing)}; expected header "
            + ",".join(expected)
        )
    data = np.loadtxt(lines, delimiter=",", ndmin=2, converters=_float_or_nan)[1:]
    cols = {c: data[:, names.index(c)] for c in expected}
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


def _float_or_nan(field: str) -> float:
    try:
        return float(field)
    except ValueError:
        return float("nan")


class _Time(click.ParamType):
    """An evaluation time: an integer, or ``all`` for every time of the input."""

    name = "time"

    def convert(self, value, param, ctx):
        return value if value == "all" else click.INT.convert(value, param, ctx)


def _times(values, T: int) -> list:
    """The requested times in order, ``all`` standing for ``1..T``."""
    return [t for v in values for t in (range(1, T + 1) if v == "all" else (v,))]


def _write_estimates(out, header: str, estimate, series: type, pair, times: list,
                     params) -> None:
    """The header and one CSV line per time: the time, then each field of
    ``estimate(pair, t, params)``, a ``series`` instance, in order, the GBM
    flags joined by ``;``.  The fields are read by name (``astuple`` would
    deep-copy every field of every row)."""
    values = operator.attrgetter(*(f.name for f in dataclasses.fields(series)))
    lines = [header] + [
        ",".join([str(t), *(";".join(v) if isinstance(v, tuple) else _fmt(v)
                            for v in values(estimate(pair, t, params)))])
        for t in times]
    Path(out).write_text("\n".join(lines) + "\n")
    click.echo(f"wrote {out} ({len(times)} row(s))")


_TIME_HELP = "Evaluation time, or 'all' for every time of the input (repeatable)."


@main.group()
def estimate():
    """Run the estimators on path CSV files."""


@estimate.command("bm")
@_bm_params
@click.option("--u", "u_list", type=_Time(), required=True, multiple=True, help=_TIME_HELP)
@_in_out_files
@_runtime_errors
def estimate_bm_cmd(q, p, u_list, in_path, out):
    """Estimate at each requested time; CSV columns
    u,gamma_hat,sigma_x_sq,sigma_y_sq,rho_hat."""
    cols = _read_csv_columns(in_path, ("t", "x", "y"))
    params = bm.BmEstimatorParams(q, p)
    if not params.in_consistency_range():
        click.echo(f"note: (q={q}, p={p}) lies outside the consistency range", err=True)
    pair = BmPathPair(cols["x"], cols["y"])
    _write_estimates(out, "u,gamma_hat,sigma_x_sq,sigma_y_sq,rho_hat", bm.estimate_bm,
                     bm.EstimateSeries, pair, _times(u_list, len(pair.x)), params)


@estimate.command("gbm")
@_gbm_params
@click.option("--t", "t_list", type=_Time(), required=True, multiple=True, help=_TIME_HELP)
@_in_out_files
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
    pair = simulate_gbm_pair(BmPathPair(cols["w"], cols["u"]), sigma)
    _write_estimates(out, "t,gamma_hat,sigma_w_sq,sigma_u_sq,rho_hat,flags", gbm.estimate_gbm,
                     gbm.GbmEstimateSeries, pair, _times(t_list, len(pair.w)), params)


# ---------------------------------------------------------------------------
# oracle

@main.group()
def oracle():
    """Print exact expectation values."""


_oracle_times = _options(click.option("--t", type=int, required=True, help="Evaluation time."),
                         _grid_length)


@oracle.command("bm")
@_profile
@_bm_params
@_oracle_times
@_runtime_errors
def oracle_bm_cmd(profile, q, p, t, T):
    """Expected gamma_hat, sigma_sq_hat and their ratio for a Brownian pair."""
    _echo_oracle(bm.BmEstimatorParams(q, p), profile, t, T)


@oracle.command("gbm")
@_profile
@_gbm_params
@_oracle_times
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


_vg_options = _options(
    click.option("--r", type=_POSITIVE, required=True, help="Shape parameter."),
    click.option("--theta", type=float, required=True, help="Asymmetry."),
    click.option("--sigma", type=_NONNEGATIVE, required=True, help="Scale."),
    click.option("--mu", type=float, required=True, help="Location."),
)


@vg.command("pdf")
@_vg_options
@click.option("--x", type=float, required=True, multiple=True,
              help="Evaluation point (repeatable).")
@_runtime_errors
def vg_pdf_cmd(r, theta, sigma, mu, x):
    params = VgParams(r, theta, sigma, mu)
    for xi in x:
        click.echo(_fmt(vg_pdf(xi, params)))


@vg.command("moments")
@_vg_options
@_runtime_errors
def vg_moments_cmd(r, theta, sigma, mu):
    mean, var = vg_moments(VgParams(r, theta, sigma, mu))
    click.echo(f"mean {_fmt(mean)}")
    click.echo(f"variance {_fmt(var)}")


# ---------------------------------------------------------------------------
# experiment

@main.group()
def experiment():
    """Seeded Monte Carlo experiment runs."""


# the [experiment] keys as configparser reads them, lowercased; chunk_size is
# the removed option's key, which older configs still carry, and is ignored
_EXPERIMENT_KEYS = ("profile", "t_list", "t_eval", "reps", "seed", "n_jobs", "chunk_size")


def _check_keys(path: str, section: str, keys, known) -> None:
    """Exit 1 naming every key of ``section`` that is not in ``known``, which
    would otherwise be dropped without a word."""
    unknown = ", ".join(repr(key) for key in keys if key not in known)
    if unknown:
        raise click.ClickException(f"{path}: unknown [{section}] key(s) {unknown}")


def _parse_experiment_config(name: str, path: str, seed: int | None) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    with open(path) as handle:
        parser.read_file(handle)
    if "experiment" not in parser:
        raise click.ClickException(f"{path}: missing [experiment] section")
    sec = parser["experiment"]
    _check_keys(path, "experiment", sec, _EXPERIMENT_KEYS)
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
    # an experiment that takes no params knows no [params] key
    params_sec = parser["params"] if "params" in parser else {}
    cls, variant = ESTIMATOR_EXPERIMENTS.get(name, (None, None))
    known = [f.name for f in dataclasses.fields(cls)] if cls else ()
    _check_keys(path, "params", params_sec, known)
    if cls is not None:
        # required fields are numbers; a field with a default (the GBM
        # variant) keeps its text, and falls back to the variant the
        # experiment names, if any, before its default
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
    """``obj`` as JSON: the one encoder setting of both experiment files.

    CSV files and printed numbers use ``_FLOAT_FMT`` (17 significant digits),
    as a CSV number has no int/float type to lose.  Here each float is
    written in its shortest round-trip form (``0.1``, ``1.0``, ``-0.0``) and
    reads back as the same float; NaN and the infinities are the bare tokens
    ``NaN`` and ``Infinity``, and any other object is its ``str``.
    """
    return json.dumps(obj, default=str)


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


def _config_entries(config: ExperimentConfig) -> dict:
    """Every field of ``config`` but the experiment, in field order: the
    profile as its spec string and the params as their fields."""
    forms = {"profile": CorrelationProfile.spec_string, "params": dataclasses.asdict}
    entries = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        entries[f.name] = forms[f.name](value) if f.name in forms and value is not None else value
    del entries["experiment"]   # a key of the manifest itself
    return entries


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@experiment.command("run")
@click.option("--name", type=click.Choice(EXPERIMENTS), required=True)
@click.option("--config", "config_path",
              type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--seed", type=_NONNEGATIVE_INT, default=None, envvar="DYNCORR_SEED",
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
        "config": {"file": os.path.basename(config_path), **_config_entries(config)},
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
