"""The per-row reduction shared by both estimator families and the oracle.

A ``(T,)`` call is a one-row batch that returns Python floats, and must
agree bitwise with its row in any batch.  Every per-row sum goes through one
helper, ``form.rowdot``: ``np.vecdot`` over
column chunks short enough that OpenBLAS runs each ``ddot`` on one thread.
So a row's value does not depend on the batch it sits in, nor on the BLAS
thread count.  Both are checked here at lengths on either side of the chunk
and of OpenBLAS's threading threshold (n = 10000).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dyncorr
from dyncorr import (
    BmEstimatorParams,
    CorrelationProfile,
    GbmEstimatorParams,
    NumericRange,
    TimeGrid,
    simulate_bm_batch,
    simulate_bm_pair,
    simulate_gbm_pair,
)
from dyncorr import form

PROFILE = CorrelationProfile("capped", (0.5, 10.0))
# sigma = 0.01 keeps every GBM weight of a T = 50001 grid above underflow, so
# the long sums are not sums of zeros
FAMILIES = {
    "bm": BmEstimatorParams(0.5, 1.0),
    "v1": GbmEstimatorParams(1.0, 12.0, 2.0, 0.01, "v1"),
    "v2": GbmEstimatorParams(1.0, 16.0, 2.0, 0.01, "v2"),
}


class TestRowdot:
    @pytest.mark.parametrize("T", [1, 8191, 8192, 8193, 16385, 50001])
    def test_matches_exact_sum(self, T):
        rng = np.random.default_rng(T)
        a, b = rng.standard_normal((2, 3, T))
        got = form.rowdot(a, b)
        assert got.shape == (3,)
        for row, (x, y) in zip(got, zip(a, b)):
            exact = math.fsum(x * y)
            assert abs(row - exact) <= 1e-13 * np.sum(np.abs(x * y))

    @pytest.mark.parametrize("T", [9000, 20001, 50001])
    def test_row_does_not_depend_on_batch_shape(self, T):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 5, T))
        w = rng.standard_normal(T)
        stacked = form.rowdot(a, w)
        for i in range(2):
            assert np.array_equal(form.rowdot(a[i], w), stacked[i])
            for j in range(5):
                assert form.rowdot(a[i, j], w) == stacked[i, j]
                assert np.array_equal(form.rowdot(a[i, j:j + 1], a[i, j:j + 1]),
                                      form.rowdot(a[i], a[i])[j:j + 1])


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("T", [50, 9000, 20001, 50001])
def test_batch_matches_loop(family, T):
    # 23 rows span several row blocks with a partial last one from T = 9000 on;
    # at T = 50 they are one block, checked against the one-row floats at every t
    params = FAMILIES[family]
    x, y = simulate_bm_batch(PROFILE, TimeGrid(T), 6, reps=23)
    for t in (range(1, T + 1) if T == 50 else (1, 10, T)):
        batch = params.components(x, y, t)
        head = params.components(x[:5], y[:5], t)
        singles = [params.components(x[i], y[i], t) for i in range(len(x))]
        assert all(type(v) is float for s in singles for v in s)
        own = params.components(y, y, t)
        for j in range(3):
            assert np.array_equal(batch[j], [s[j] for s in singles])
            assert np.array_equal(head[j], batch[j][:5])
        assert np.array_equal(own[1], batch[2])


def test_result_fields_are_python_floats():
    grid = TimeGrid(50)
    pair = simulate_bm_pair(PROFILE, grid, 6)
    series = dyncorr.estimate_bm(pair, 10, FAMILIES["bm"])
    gpair = simulate_gbm_pair(pair, FAMILIES["v2"].sigma)
    # v1 gives a ratio; v2 at T = 50 a negative variance, flagged, and a nan ratio
    for params, flags in ((FAMILIES["v1"], ()), (FAMILIES["v2"], ("negative_variance",))):
        gseries = dyncorr.estimate_gbm(gpair, 10, params)
        assert gseries.flags == flags
        for name in ("gamma_hat", "sigma_w_sq_hat", "sigma_u_sq_hat", "rho_hat"):
            assert type(getattr(gseries, name)) is float, name
    for name in ("gamma_hat", "sigma_x_sq_hat", "sigma_y_sq_hat", "rho_hat"):
        assert type(getattr(series, name)) is float, name


# A path value per family that passes every exponent check but overflows a
# sum: X_u^2 A for BM, and as in test_gbm_estimator's overflowing sums for GBM.
_OVERFLOW = {"bm": (0, slice(None), 1e200), "v1": (0, 19, 690.0), "v2": (1, 20, 650.0)}
_RANGE_FAMILIES = {
    "bm": FAMILIES["bm"],
    "v1": GbmEstimatorParams(17.0, 12.0, 2.0, 1.0, "v1"),
    "v2": GbmEstimatorParams(1.0, 16.0, 2.0, 1.0, "v2"),
}


@pytest.mark.parametrize("family", list(_RANGE_FAMILIES))
@pytest.mark.parametrize("bad", ["nan", "inf", "overflow"])
@pytest.mark.parametrize("rows", ["one", "block"])
def test_out_of_range_path_raises(family, bad, rows):
    # RuntimeWarning is an error under the test configuration, so a warning
    # that leaks from the sums fails here too
    params, T = _RANGE_FAMILIES[family], 40
    n = form.block_rows(T) if rows == "block" else 1
    paths = np.zeros((2, n, T))
    paths[:, :, :] = np.linspace(0.0, 1.0, T)
    path, k, value = _OVERFLOW[family] if bad == "overflow" else (0, 7, float(bad))
    paths[path, n // 2, k] = value
    if rows == "one":
        paths = paths[:, 0]
    with pytest.raises(NumericRange):
        params.components(*paths, 5)


_HASH_SCRIPT = """
import hashlib
import numpy as np
from dyncorr import BmEstimatorParams, CorrelationProfile, GbmEstimatorParams, TimeGrid
from dyncorr import simulate_bm_batch
profile = CorrelationProfile("capped", (0.5, 10.0))
families = (BmEstimatorParams(0.5, 1.0), GbmEstimatorParams(1.0, 12.0, 2.0, 0.01, "v1"),
            GbmEstimatorParams(1.0, 16.0, 2.0, 0.01, "v2"))
for T in (20001, 50001):
    x, y = simulate_bm_batch(profile, TimeGrid(T), 3, reps=4)
    for params in families:
        h = hashlib.sha256()
        for t in (1, 10, T // 2, T):
            h.update(np.array(params.components(x, y, t)).tobytes())
            h.update(np.array(params.components(x[0], y[0], t)).tobytes())
            h.update(np.array(params.oracle(profile, t, T)).tobytes())
        print(T, type(params).__name__, getattr(params, "variant", ""), h.hexdigest())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one CPU: OpenBLAS runs one thread whatever it is asked for")
def test_results_do_not_depend_on_blas_threads():
    src = str(Path(dyncorr.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _HASH_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout.splitlines())
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]
