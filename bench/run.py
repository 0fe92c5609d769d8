"""dyncorr benchmark: one seeded workload, its metrics, and a correctness gate.

    python3 bench/run.py --workload mc_bm|mc_gbm|path_curve --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics, with ``--trace 1`` the
per-layer metrics.  The lines above it print every figure by name with its
unit and sample count, and the full record (environment, samples, failed
operations, the last traced iteration's spans) goes to
``bench/out/<workload>-seed<N>-trace<T>.json``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("mc_bm", "mc_gbm", "path_curve")
# setup_s probes run before and after the workload, so that a slow spell
# of a shared machine weighs on half of them at most.
SETUP_PROBES = 8
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Units of every metric, from the benchmark's description.
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def worker_cmd(*args) -> list:
    return [sys.executable, str(BENCH / "worker.py"), *map(str, args)]


def setup_seconds(workload: str, size: str, probes: int) -> list:
    """Wall times of fresh interpreters that import dyncorr and build inputs.

    The first probe of a run compiles bytecode and is not kept.
    """
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run(worker_cmd("--workload", workload, "--size", size, "--setup-only"),
                       env=child_env(), check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def tail(samples: list):
    """The highest sample with at least ten samples above it, and its rank."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], k + 1


def environment() -> dict:
    def cache(index):
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        return path.read_text().strip() if path.exists() else "unknown"

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "l2": cache(2),
        "l3": cache(3),
        "commit": git_commit(),
        "threads": {v: "1" for v in THREAD_VARS},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the smoke test only")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dyncorr" / "__init__.py").is_file():
        print(f"no dyncorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"{stem}.json"
    setup = setup_seconds(args.workload, args.size, SETUP_PROBES + 1)[1:]
    proc = subprocess.run(
        worker_cmd("--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds,
                   "--trace", args.trace, "--size", args.size, "--result", result_path),
        env=child_env(), stdout=subprocess.DEVNULL, timeout=args.seconds + 120,
    )
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    setup += setup_seconds(args.workload, args.size, SETUP_PROBES)
    res = json.loads(result_path.read_text())
    env_info = {**environment(), "numpy": res.pop("numpy")}

    samples, sticks = res["samples"], res["yardstick_samples"]
    wall = statistics.median(samples)
    tail_value, rank = tail(samples)
    failed = sum(res["failed"].values())
    e2e = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters"),
        "wall_rel": (statistics.median(t / y for t, y in zip(samples, sticks)),
                     f"median over {len(samples)} iterations of iteration time / time of "
                     f"the {res['yardstick']} yardstick run after it"),
        "peak_rss_mb": (res["peak_rss_mb"], "worker process, ru_maxrss"),
    }
    # Wall-clock figures, unbounded because they drift with the machine.
    clock = {
        "wall_s": (wall, f"median of {len(samples)} iterations after 1 warm-up"),
        "wall_s_tail": (tail_value, f"sample {rank} of {len(samples)}, "
                                    f"{len(samples) - rank} above"),
        "path_steps_per_s": (res["path_steps"] / wall,
                             f"{res['path_steps']} path steps per iteration / wall_s"),
        "curve_points_per_s": (res["points"] / wall,
                               f"{res['points']} points per iteration / wall_s"),
        "yardstick_s": (statistics.median(sticks), f"median of {len(sticks)} yardstick runs"),
    }
    print(f"dyncorr benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("env  " + "  ".join(f"{k}={v}" for k, v in env_info.items() if k != "threads")
          + "  BLAS/OpenMP threads=1")
    for name, (value, note) in {**e2e, **clock}.items():
        print(f"{name:<20} {value:>14.6g} {UNITS[name]:<9} {note}")
    res.setdefault("per_layer", {}).update({k: v for k, (v, _) in clock.items()})
    print(f"{'error_rate':<20} {failed / res['attempted']:>14.6g} {'fraction':<9} "
          f"{failed} failed of {res['attempted']} operations")
    for name, n in sorted(res["failed"].items()):
        kind = "WRONG OUTPUT" if name in res["wrong"] else "experiment check"
        print(f"  failed {n}x  {name}  ({kind})")
    if args.trace:
        traced = res["traced_samples"]
        print(f"per-layer: means over {len(traced)} traced iterations "
              f"(untraced median {wall:.6g} s, traced median {statistics.median(traced):.6g} s)")
        for name, value in res["per_layer"].items():
            print(f"  {name:<24} {value:>14.6g} {UNITS[name]}")
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, (v, _) in e2e.items()}

    res.update(workload=vars(args), environment=env_info, setup_samples=setup,
               end_to_end={k: v for k, (v, _) in e2e.items()},
               error_rate=failed / res["attempted"])
    result_path.write_text(json.dumps(res, indent=1) + "\n")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not res["wrong"], "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
