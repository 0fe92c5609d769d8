"""Child process of ``run.py``: runs one workload and writes its figures.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --size full|tiny --result FILE
    python3 bench/worker.py --workload W --size full --setup-only

The second form is the ``setup_s`` probe: it imports ``dyncorr`` from
this checkout's ``src/``, builds the workload's profiles and parameters and
exits.  ``run.py`` starts both with the BLAS/OpenMP thread variables at 1.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from spans import Tracer, layer_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_SAMPLES = 3


def import_dyncorr():
    """Import ``dyncorr`` from this checkout only, never an installed copy."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    import dyncorr

    if Path(dyncorr.__file__).resolve().parent != SRC / "dyncorr":
        raise SystemExit(f"dyncorr imported from {dyncorr.__file__}, not {SRC}")
    return dyncorr


class Yardstick:
    """A fixed piece of work that uses no dyncorr code, timed on its own.

    The speed of a shared machine drifts by 10-25% over minutes.  Timed
    right after each iteration, the yardstick slows down with it, so an
    iteration's time divided by the yardstick's tracks the program rather
    than the machine.  ``numpy`` is a small Monte Carlo pass on 10 MB
    arrays: normal draws and a cumulative sum, as in simulation, then an
    exponential and a product-sum, as in the estimators; ``python`` is a
    scalar interpreter loop, like the curve workload's many small calls.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self()  # warm-up

    def __call__(self) -> float:
        import numpy as np

        start = time.perf_counter()
        if self.kind == "numpy":
            rng = np.random.default_rng(0)
            for _ in range(2):
                a = rng.standard_normal((128, 10000))
                np.sum(np.exp(0.01 * a.cumsum(axis=1)) * a, axis=-1)
        else:
            s = 0.0
            for i in range(1, 500000):
                s += math.sqrt(i)
        return time.perf_counter() - start


def measure(wl, tally, seconds, span, yardstick, tracer=None):
    """Run iterations for ``seconds``.

    Returns the iteration times, the yardstick time after each iteration,
    each iteration's counts from ``wl.check`` and, when traced, each
    iteration's ``layer_totals`` and last spans.
    """
    times, sticks, counts, layers, spans = [], [], [], [], []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(times) < MIN_SAMPLES:
        start = time.perf_counter()
        with span("bench.iteration"):
            out = wl.iterate(span)
        times.append(time.perf_counter() - start)
        if tracer is not None:
            spans = tracer.take()
            layers.append(layer_totals(spans))
        sticks.append(yardstick())
        counts.append(wl.check(out, tally))
    return times, sticks, counts, layers, spans


def layer_metrics(layers, counts, untraced, traced) -> dict:
    """Per-iteration means of the per-layer figures of the traced iterations."""
    n = len(layers)
    totals = {}
    for layer in layers:
        for name, t in layer.items():
            acc = totals.setdefault(name, dict.fromkeys(t, 0))
            for key, value in t.items():
                acc[key] += value
    for acc in totals.values():
        for key in acc:
            acc[key] /= n

    def get(name, key):
        return totals.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    def count(key):
        return sum(c[key] for c in counts) / len(counts)

    steps = get("simulate.batch", "size")
    bm_s = get("bm.gamma", "busy_s") + get("bm.sigma_sq", "busy_s")
    bm_bytes = get("bm.gamma", "size") + get("bm.sigma_sq", "size")
    return {
        "simulate.batch_s": get("simulate.batch", "busy_s"),
        "simulate.path_steps": steps,
        "simulate.steps_per_s": ratio(steps, get("simulate.batch", "busy_s")),
        "simulate.out_bytes": 16.0 * steps,
        "bm.gamma_s": get("bm.gamma", "busy_s"),
        "bm.sigma_sq_s": get("bm.sigma_sq", "busy_s"),
        "bm.calls": get("bm.gamma", "calls") + get("bm.sigma_sq", "calls"),
        "bm.in_bytes": bm_bytes,
        "bm.in_gb_per_s": ratio(bm_bytes, bm_s) / 1e9,
        "bm.estimate_s": get("bm.estimate", "busy_s"),
        "bm.estimate_calls": get("bm.estimate", "calls"),
        "bm.oracle_s": get("bm.oracle", "busy_s"),
        "bm.oracle_calls": get("bm.oracle", "calls"),
        "profiles.rho_s": get("profiles.rho", "busy_s"),
        "profiles.rho_calls": get("profiles.rho", "calls"),
        "gbm.gamma_v1_s": get("gbm.gamma_v1", "busy_s"),
        "gbm.gamma_v2_s": get("gbm.gamma_v2", "busy_s"),
        "gbm.sigma_sq_s": get("gbm.sigma_sq", "busy_s"),
        "gbm.calls": sum(get(n, "calls") for n in ("gbm.gamma_v1", "gbm.gamma_v2", "gbm.sigma_sq")),
        "gbm.in_bytes": sum(get(n, "size") for n in ("gbm.gamma_v1", "gbm.gamma_v2", "gbm.sigma_sq")),
        "gbm.oracle_s": get("gbm.oracle", "busy_s"),
        "gbm.estimate_s": get("gbm.estimate", "busy_s"),
        "gbm.valid_ratio": 1.0 - ratio(count("gbm_flagged"), count("gbm_attempted"))
        if count("gbm_attempted") else 0.0,
        "gbm.flagged": count("gbm_flagged"),
        "harness.run_s": get("harness.run", "busy_s"),
        "harness.self_s": get("harness.run", "self_s"),
        "harness.chunks": get("simulate.batch", "calls"),
        "harness.checks": count("checks"),
        "harness.checks_failed": count("checks_failed"),
        "cli.cmd_s": get("cli.cmd", "busy_s"),
        "cli.self_s": get("cli.cmd", "self_s"),
        "cli.bytes_written": count("bytes_written"),
        "vg.pdf_s": get("vg.pdf", "busy_s"),
        "vg.pdf_calls": get("vg.pdf", "calls"),
        "vg.self_s": get("vg.pdf", "self_s"),
        "bessel.k_s": get("bessel.k", "busy_s"),
        "bessel.calls": get("bessel.k", "calls"),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.wall_s": get("bench.iteration", "busy_s"),
        "trace.self_sum_s": sum(t["self_s"] for t in totals.values()),
        "trace.spans": sum(t["calls"] for t in totals.values()),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--result")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_dyncorr()
    import workloads

    if args.setup_only:
        workloads.setup(args.workload, args.size)
        return 0

    workdir = ROOT / "bench" / "out" / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, args.size, args.seed, workdir)
        tally = workloads.Tally()
        null = lambda name: nullcontext()  # noqa: E731
        first = wl.iterate(null)                # warm-up, not timed
        wl.check(first, tally)
        wl.gate(first, tally)
        del first
        share = args.seconds / 2 if args.trace else args.seconds
        yardstick = Yardstick(wl.yardstick)
        times, sticks, counts, _, _ = measure(wl, tally, share, null, yardstick)
        result = {"samples": times, "yardstick_samples": sticks}
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced, _, t_counts, layers, spans = measure(wl, tally, share, tracer.span,
                                                             yardstick, tracer)
            finally:
                tracer.uninstall()
            result["traced_samples"] = traced
            result["per_layer"] = layer_metrics(layers, t_counts, times, traced)
            result["last_spans"] = spans
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally.close()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        points=wl.points,
        path_steps=wl.path_steps,
        yardstick=wl.yardstick,
        attempted=tally.attempted,
        failed=dict(tally.failed),
        wrong=dict(tally.wrong),
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        rusage={f: getattr(usage, f) for f in ("ru_utime", "ru_stime", "ru_minflt", "ru_majflt",
                                                "ru_nvcsw", "ru_nivcsw")},
        numpy=sys.modules["numpy"].__version__,
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
