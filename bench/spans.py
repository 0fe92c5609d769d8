"""Outside-in span tracing of the dyncorr layers.

The tracer replaces, for the duration of a traced run, the public names
each layer is reached through (``dyncorr.harness.simulate_bm_batch``,
``dyncorr.bm.gamma_hat_bm``, ``CorrelationProfile.rho`` and so on) with
wrappers that record a span: name, start, end, parent span and a size in
bytes or path steps.  Nothing under ``src/`` changes.  Spans stay in
memory; ``self_times`` turns one iteration's spans into exclusive times.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager

# (module, attribute, span name).  Several attributes may share a span name;
# ``layer_totals`` aggregates by span name.
WRAPS = (
    ("dyncorr.cli", "run_experiment", "harness.run"),
    ("dyncorr.harness", "simulate_bm_batch", "simulate.batch"),
    ("dyncorr.bm", "gamma_hat_bm", "bm.gamma"),
    ("dyncorr.bm", "sigma_sq_hat_bm", "bm.sigma_sq"),
    ("dyncorr.bm", "estimate_bm", "bm.estimate"),
    ("dyncorr.bm", "expected_gamma_bm", "bm.oracle"),
    ("dyncorr.bm", "expected_sigma_sq_bm", "bm.oracle"),
    ("dyncorr.bm", "expected_ratio_q", "bm.oracle"),
    ("dyncorr.gbm", "gamma_hat_gbm_v1", "gbm.gamma_v1"),
    ("dyncorr.gbm", "gamma_hat_gbm_v2", "gbm.gamma_v2"),
    ("dyncorr.gbm", "sigma_sq_hat_gbm", "gbm.sigma_sq"),
    ("dyncorr.gbm", "estimate_gbm", "gbm.estimate"),
    ("dyncorr.gbm", "expected_gamma_gbm_v1", "gbm.oracle"),
    ("dyncorr.gbm", "expected_gamma_gbm_v2", "gbm.oracle"),
    ("dyncorr.gbm", "expected_sigma_sq_gbm_v1", "gbm.oracle"),
    ("dyncorr.gbm", "expected_sigma_sq_gbm_v2", "gbm.oracle"),
    ("dyncorr.gbm", "expected_ratio_gbm", "gbm.oracle"),
    ("dyncorr.vg", "vg_pdf", "vg.pdf"),
    ("dyncorr.vg", "bessel_k", "bessel.k"),
    ("dyncorr.profiles.CorrelationProfile", "rho", "profiles.rho"),
)

# Spans whose input size is recorded; the others skip the cost.
SIZED = {"simulate.batch", "bm.gamma", "bm.sigma_sq",
         "gbm.gamma_v1", "gbm.gamma_v2", "gbm.sigma_sq"}


def _resolve(path: str):
    """Import ``a.b`` or fetch the class ``a.b.Cls``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _size(name: str, args) -> int:
    """Path steps for a simulation call, input bytes for an estimator call."""
    if name not in SIZED:
        return 0
    if name == "simulate.batch":
        _, grid, _, reps = args[:4]
        return int(reps) * int(grid.T)
    total = 0
    for arg in args:
        for part in (arg, *(getattr(arg, f, None) for f in ("x", "y", "w", "u"))):
            total += getattr(part, "nbytes", 0) if hasattr(part, "dtype") else 0
    return total


class Tracer:
    """Records spans from every thread; parents come from a per-thread stack.

    A span opened on a pool thread with an empty stack takes as parent the
    innermost open span of the thread that created the tracer, which is the
    one that submitted the work.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, size]
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, size: int = 0):
        stack = self._stack()
        outer = stack or self._main_stack
        record = [name, 0.0, 0.0, outer[-1] if outer else None, size]
        with self._lock:
            self.spans.append(record)
            stack.append(len(self.spans) - 1)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def install(self):
        for path, attr, name in WRAPS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            with self.span(name, _size(name, args)):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> list:
    """Exclusive time of every span, summing to the root spans' wall time.

    At each instant the innermost open spans (those with no open child)
    share the instant equally.  A parent therefore gets its duration minus
    the union of its children's intervals, and children that overlap on
    two pool threads split the overlap instead of counting it twice.
    """
    events = []
    for i, (_, start, end, _, _) in enumerate(spans):
        events.append((start, 1, i))
        events.append((end, 0, i))
    events.sort()
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    leaves = set()
    out = [0.0] * len(spans)
    last = events[0][0] if events else 0.0
    for now, opening, i in events:
        if leaves and now > last:
            share = (now - last) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        last = now
        parent = spans[i][3]
        if opening:
            is_open[i] = True
            leaves.add(i)
            if parent is not None and is_open[parent]:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open[i] = False
            leaves.discard(i)
            if parent is not None and is_open[parent]:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return out


def layer_totals(spans) -> dict:
    """Per span name: calls, busy time, self time and summed size.

    Busy time adds the durations of a name's outermost spans only, so an
    oracle calling another oracle is not counted twice.
    """
    own = self_times(spans)
    totals = {}
    for i, (name, start, end, parent, size) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "size": 0})
        t["calls"] += 1
        t["self_s"] += own[i]
        t["size"] += size
        if parent is None or spans[parent][0] != name:
            t["busy_s"] += end - start
    return totals
