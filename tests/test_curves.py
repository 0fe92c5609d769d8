"""Whole curves of both estimator families, and the estimate views that read them.

``BmEstimatorParams.curve`` expands the kernel into FFT convolutions, so it is
held to the per-point ``components`` within 1e-10 of the term-magnitude sum;
``GbmEstimatorParams.curve`` reduces the same series as ``components`` and is
held to it bitwise.  ``estimate_curve`` builds a pair's whole estimate once
from its curve, taking an entry that is not finite from ``components``, and
``estimate_bm`` and ``estimate_gbm`` read their points from it.
"""

import dataclasses
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dyncorr
from dyncorr import (
    BmEstimatorParams,
    BmPathPair,
    CorrelationProfile,
    CurveEstimate,
    DegenerateVariance,
    DomainError,
    EstimateSeries,
    GbmEstimateSeries,
    GbmEstimatorParams,
    GbmPathPair,
    IndexOutOfRange,
    NegativeVarianceEstimate,
    NumericRange,
    TimeGrid,
    estimate_bm,
    estimate_curve,
    estimate_gbm,
    expected_ratio_gbm,
    expected_ratio_q,
    rho_hat_bm,
    rho_hat_gbm,
    simulate_bm_batch,
    simulate_bm_pair,
    simulate_gbm_pair,
)
from dyncorr import bm, form, gbm

PROFILE = CorrelationProfile("capped", (0.5, 10.0))
QP = [(0.5, 1.0), (0.5, 0.75), (0.25, 1.0), (1.0, 2.0), (0.0, 0.5)]
GBM = {"v1": GbmEstimatorParams(1.0, 12.0, 2.0, 0.1, "v1"),
       "v2": GbmEstimatorParams(1.0, 16.0, 2.0, 0.1, "v2")}


def term_scales(x, y, u, q, p):
    """Term-magnitude sums of gamma and both variances at ``u``, each over T-1."""
    T = x.shape[-1]
    v = np.arange(1.0, T + 1.0)
    lag = np.zeros(T)
    lag[v != u] = 1.0 / ((u - v[v != u]) ** 2 * (T - 1))
    dx = v ** q * x[u - 1] - v ** -p * x
    dy = v ** q * y[u - 1] - v ** -p * y
    return [float(np.sum(np.abs(a * b) * lag)) for a, b in ((dx, dy), (dx, dx), (dy, dy))]


class TestBmCurve:
    @pytest.mark.parametrize("q, p", QP)
    @pytest.mark.parametrize("T", [2, 3, 50, 2000, 20000])
    def test_matches_components(self, T, q, p):
        # every u up to T = 2000; at 2e4 every u would take minutes of direct
        # sums, so the ends and a seeded sample of 200 interior points
        pair = simulate_bm_pair(PROFILE, TimeGrid(T), 11)
        params = BmEstimatorParams(q, p)
        curve = params.curve(pair.x, pair.y)
        assert [c.shape for c in curve] == [(T,)] * 3
        times = range(1, T + 1)
        if T > 2000:
            rng = np.random.default_rng(T)
            times = sorted({1, 2, T - 1, T, *rng.integers(1, T + 1, 200).tolist()})
        for u in times:
            want = params.components(pair.x, pair.y, u)
            for got, ref, scale in zip((c[u - 1] for c in curve), want,
                                       term_scales(pair.x, pair.y, u, q, p)):
                assert abs(got - ref) <= 1e-10 * scale

    def test_batch_rows_are_their_own_curves(self):
        x, y = simulate_bm_batch(PROFILE, TimeGrid(300), 4, reps=5)
        params = BmEstimatorParams(0.5, 1.0)
        batch = params.curve(x.reshape(5, 1, 300), y.reshape(5, 1, 300))
        assert [c.shape for c in batch] == [(5, 1, 300)] * 3
        for i in range(5):
            for got, row in zip(batch, params.curve(x[i], y[i])):
                np.testing.assert_allclose(got[i, 0], row, rtol=0, atol=1e-12)

    def test_cached_terms_are_read_only(self):
        n, spectrum = bm._lag_spectrum(50, False)
        assert n >= 2 * 50 - 1
        for arr in (spectrum, bm._anchor_sums(50, 0.5, 1.0)):
            with pytest.raises(ValueError):
                arr[...] = 0.0


class TestGbmCurve:
    @pytest.mark.parametrize("variant", list(GBM))
    @pytest.mark.parametrize("T", [2, 3, 50, 1000])
    def test_bitwise_equal_to_components(self, variant, T):
        params = GBM[variant]
        pair = simulate_gbm_pair(simulate_bm_pair(PROFILE, TimeGrid(T), 5), params.sigma)
        curve = np.column_stack(params.curve(pair.w, pair.u))
        for t in range(1, T + 1):
            want = params.components(pair.w, pair.u, t)
            assert np.array_equal(curve[t - 1], want)
            got = estimate_gbm(pair, t, params)
            g, s_w, s_u = want
            ratio = g / math.sqrt(s_w) / math.sqrt(s_u) if s_w > 0 and s_u > 0 else float("nan")
            assert np.array_equal([got.gamma_hat, got.sigma_w_sq_hat, got.sigma_u_sq_hat,
                                   got.rho_hat], [*want, ratio], equal_nan=True)

    def test_batch_rows_are_their_own_curves(self):
        w, u = simulate_bm_batch(PROFILE, TimeGrid(60), 2, reps=4)
        for params in GBM.values():
            batch = params.curve(w, u)
            for i in range(4):
                for got, row in zip(batch, params.curve(w[i], u[i])):
                    assert np.array_equal(got[i], row)


def _pairs(T=40):
    bm_pair = simulate_bm_pair(PROFILE, TimeGrid(T), 2)
    return [(estimate_bm, bm_pair, BmEstimatorParams(0.5, 1.0))] + [
        (estimate_gbm, simulate_gbm_pair(bm_pair, params.sigma), params)
        for params in GBM.values()]


class TestViews:
    @pytest.mark.parametrize("case", range(3), ids=["bm", "v1", "v2"])
    @pytest.mark.parametrize("t", [0, -1, -40, 41, 2.5, 2.0])
    def test_index_outside_the_grid_raises(self, case, t):
        estimate, pair, params = _pairs()[case]
        with pytest.raises(IndexOutOfRange):
            estimate(pair, t, params)

    @pytest.mark.parametrize("case", range(3), ids=["bm", "v1", "v2"])
    def test_time_that_is_not_an_integer_raises(self, case):
        # 2.5 once answered for t = 2 in every call that takes a time
        _, pair, params = _pairs()[case]
        ratio = expected_ratio_q if case == 0 else expected_ratio_gbm
        with pytest.raises(IndexOutOfRange, match="not an integer"):
            params.components(*pair.paths, 2.5)
        with pytest.raises(IndexOutOfRange, match="not an integer"):
            ratio(PROFILE, 2.5, params, 40)
        # numpy integers are times
        assert params.components(*pair.paths, np.int64(2)) == params.components(*pair.paths, 2)

    @pytest.mark.parametrize("case", [0, 1], ids=["bm", "gbm"])
    @pytest.mark.parametrize("given", ["array", "tuple"])
    def test_arrays_in_place_of_a_pair_raise(self, case, given):
        # arrays cannot key the pair's cached curve: this was a bare TypeError
        estimate, pair, params = _pairs()[case]
        paths = pair.paths[0] if given == "array" else pair.paths
        with pytest.raises(DomainError, match="need either a path pair"):
            estimate(paths, 5, params)

    # the out-of-range paths of test_reductions: a value per family that
    # passes every exponent check but overflows a sum, a NaN and an inf
    _OVERFLOW = {"bm": (0, slice(None), 1e200), "v1": (0, 19, 690.0), "v2": (1, 20, 650.0)}
    _FAMILIES = {"bm": BmEstimatorParams(0.5, 1.0),
                 "v1": GbmEstimatorParams(17.0, 12.0, 2.0, 1.0, "v1"),
                 "v2": GbmEstimatorParams(1.0, 16.0, 2.0, 1.0, "v2")}

    @pytest.mark.parametrize("family", list(_FAMILIES))
    @pytest.mark.parametrize("bad", ["nan", "inf", "overflow"])
    def test_raise_where_components_raises(self, family, bad):
        params, T = self._FAMILIES[family], 40
        paths = np.zeros((2, T))
        paths[:] = np.linspace(0.0, 1.0, T)
        path, k, value = self._OVERFLOW[family] if bad == "overflow" else (0, 7, float(bad))
        paths[path, k] = value
        # the estimators read only a GbmPathPair's driving paths
        make = BmPathPair if family == "bm" else (
            lambda w, u: GbmPathPair(w, u, w, u, params.sigma))
        if bad != "overflow":
            # a pair refuses a non-finite path where it is made, naming it;
            # the array views still raise at every time
            name = "x" if family == "bm" else "r_path"
            with pytest.raises(DomainError, match=f"^{name} must be finite, got {bad} at index 7$"):
                make(*paths)
            for t in (1, 8, T):
                with pytest.raises(NumericRange):
                    params.components(*paths, t)
            return
        estimate, pair = (estimate_bm if family == "bm" else estimate_gbm), make(*paths)
        raised = []
        for t in range(1, T + 1):
            try:
                want = params.components(*paths, t)
            except NumericRange:
                raised.append(t)
                with pytest.raises(NumericRange):
                    estimate(pair, t, params)
                continue
            got = estimate(pair, t, params)
            assert np.array_equal(dataclasses.astuple(got)[:3], want)
        assert raised
        # the curve estimate codes exactly those times, and no others
        code = estimate_curve(pair, params).code
        assert (np.flatnonzero(code == form.RAISES) + 1).tolist() == raised

    @pytest.mark.parametrize("family", ["v1", "v2"])
    def test_a_series_beyond_the_exponent_range_raises_at_every_time(self, family):
        # finite, but sigma W = 800 is past the safe exponent of every series:
        # the whole GBM curve raises, and so does every estimate
        params = self._FAMILIES[family]
        w = np.linspace(0.0, 1.0, 40)
        w[20] = 800.0
        pair = GbmPathPair(w, w, w, w, params.sigma)
        with pytest.raises(NumericRange):
            estimate_curve(pair, params)
        for t in (1, 21, 40):
            with pytest.raises(NumericRange):
                estimate_gbm(pair, t, params)

    def test_non_finite_entry_defers_to_components(self, monkeypatch):
        pair = simulate_bm_pair(PROFILE, TimeGrid(30), 3)
        params = BmEstimatorParams(0.5, 1.0)
        real = BmEstimatorParams.curve

        def holed(self, x, y):
            curve = real(self, x, y)
            for c, u in zip(curve, (4, 9, 17)):
                c[u - 1] = (np.nan, np.inf, -np.inf)[u % 3]
            return curve

        monkeypatch.setattr(BmEstimatorParams, "curve", holed)
        for u in (4, 9, 17):
            got = estimate_bm(pair, u, params)
            assert (got.gamma_hat, got.sigma_x_sq_hat, got.sigma_y_sq_hat) == \
                params.components(pair.x, pair.y, u)

    def test_unresolved_variance_defers_to_components(self):
        # at q = p = 0 a constant path has an exactly zero variance, which the
        # expanded curve only reaches up to rounding: it is left to components
        x = np.full(50, 3.0)
        y = simulate_bm_pair(PROFILE, TimeGrid(50), 1).y
        params = BmEstimatorParams(0.0, 0.0)
        assert np.isnan(params.curve(x, y)[1]).all()
        pair = BmPathPair(x, y)
        for u in range(1, 51):
            assert params.components(x, y, u)[1] == 0.0
            with pytest.raises(DegenerateVariance, match="series x"):
                estimate_bm(pair, u, params)
        # resolved at the build: every time is a zero variance of x, none raised
        code = estimate_curve(pair, params).code
        assert (code == form.NOT_POSITIVE_A).all()

    def test_estimates_read_one_cached_curve_per_pair(self, monkeypatch):
        calls = []
        for cls in (BmEstimatorParams, GbmEstimatorParams):
            real = cls.curve
            monkeypatch.setattr(cls, "curve", lambda self, a, b, real=real:
                                calls.append(self) or real(self, a, b))
        form._curve_estimate.cache_clear()
        for estimate, pair, params in _pairs()[:2]:
            for t in range(1, 41):
                estimate(pair, t, params)
        assert len(calls) == 2

    def test_points_are_floats_bitwise_the_curve(self):
        for estimate, pair, params in _pairs():
            curve = params.curve(*pair.paths)
            for t in range(1, 41):
                got = estimate(pair, t, params)
                values = [v for v in dataclasses.astuple(got) if not isinstance(v, tuple)]
                assert all(type(v) is float for v in values)
                assert [v.hex() for v in values[:3]] == [float(c[t - 1]).hex() for c in curve]
        params = BmEstimatorParams(0.5, 1.0)
        ratio = expected_ratio_q(PROFILE, 7, params, 40)
        assert type(ratio) is float and ratio == bm._oracle_curve(PROFILE, 40, params)[6]

    def test_writes_to_the_callers_arrays_do_not_reach_the_pair(self):
        x, y = (np.array(p) for p in simulate_bm_pair(PROFILE, TimeGrid(40), 8).paths)
        bm_pair = BmPathPair(x, y)
        gbm_pair = GbmPathPair(np.exp(0.1 * x), np.exp(0.1 * y), x, y, 0.1)
        cases = [(estimate_bm, bm_pair, BmEstimatorParams(0.5, 1.0))] + [
            (estimate_gbm, gbm_pair, params) for params in GBM.values()]
        before = [estimate(pair, 12, params) for estimate, pair, params in cases]
        x[:] = 0.0
        y[:] = 5.0
        for (estimate, pair, params), old in zip(cases, before):
            assert estimate(pair, 12, params) == old
            assert not any(np.shares_memory(a, x) or np.shares_memory(a, y)
                           for a in pair.paths)
        fresh = [estimate(BmPathPair(*pair.paths) if estimate is estimate_bm else
                          GbmPathPair(pair.r_path, pair.s_path, *pair.paths, 0.1), 12, params)
                 for estimate, pair, params in cases]
        assert fresh == before

    def test_a_read_only_view_of_writable_memory_is_copied(self):
        base = np.array(simulate_bm_pair(PROFILE, TimeGrid(40), 8).x)
        view = base[:]
        view.flags.writeable = False
        pair = BmPathPair(view, base[::-1].copy())
        params = BmEstimatorParams(0.5, 1.0)
        before = estimate_bm(pair, 12, params)
        base[:] = 0.0
        assert not np.shares_memory(pair.x, base)
        assert estimate_bm(pair, 12, params) == before


def _point_rule(g, s_a, s_b):
    """``(rho_hat, flags)`` of one point by the flag rule written out: a
    negative variance, then a zero one, then a ratio beyond ``RHO_LIMIT``."""
    if s_a < 0.0 or s_b < 0.0:
        return float("nan"), ("negative_variance",)
    if s_a == 0.0 or s_b == 0.0:
        return float("nan"), ("degenerate_variance",)
    rho = g / math.sqrt(s_a) / math.sqrt(s_b)
    return rho, ("rho_out_of_range",) if abs(rho) > gbm.RHO_LIMIT else ()


def _flat_pairs(T=50):
    """A pair whose x path is flat, and its mirror: a zero BM path, and for
    GBM a driving path at its mean, ``sigma W_k = sigma^2 k / 2`` exactly
    (sigma = 1/2), whose deviations are all 0."""
    y = simulate_bm_pair(PROFILE, TimeGrid(T), 1).y
    flat = {"bm": np.zeros(T), "gbm": 0.25 * np.arange(1.0, T + 1.0)}
    return {family: (BmPathPair(x, y), BmPathPair(y, x)) for family, x in flat.items()}


class TestCurveEstimate:
    """``estimate_curve``: a pair's estimate at every time, read-only, built
    once, whose codes are the one flag rule of both families."""

    @pytest.mark.parametrize("case", range(3), ids=["bm", "v1", "v2"])
    def test_arrays_are_read_only(self, case):
        _, pair, params = _pairs()[case]
        record = estimate_curve(pair, params)
        assert type(record) is CurveEstimate and estimate_curve(pair, params) is record
        names = [f.name for f in dataclasses.fields(record)]
        assert names == ["gamma_hat", "sigma_a_sq_hat", "sigma_b_sq_hat", "rho_hat", "code"]
        for name, view in zip(names, record.views, strict=True):
            arr = getattr(record, name)
            assert arr.shape == (40,) and arr.dtype == (np.int8 if name == "code" else float)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
            assert view.readonly and np.array_equal(np.asarray(view), arr, equal_nan=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.code = np.zeros(40, np.int8)
        loaded = pickle.loads(pickle.dumps(record))
        for name in names:
            got = getattr(loaded, name)
            assert not got.flags.writeable
            assert np.array_equal(got, getattr(record, name), equal_nan=True)
        assert [v.tolist() for v in loaded.views[:3]] == [v.tolist() for v in record.views[:3]]

    @pytest.mark.parametrize("case", range(3), ids=["bm", "v1", "v2"])
    @pytest.mark.parametrize("T", [40, 200])
    def test_rho_column_is_the_point_ratio(self, case, T):
        _, pair, params = _pairs(T)[case]
        record = estimate_curve(pair, params)
        for g, s_a, s_b, rho in zip(*record.views[:4]):
            if s_a > 0.0 and s_b > 0.0:
                assert rho.hex() == (g / math.sqrt(s_a) / math.sqrt(s_b)).hex()
            else:
                assert math.isnan(rho)

    def test_v2_codes_are_the_point_rule(self):
        # at T = 200 v2 has ratios beyond 1 and negative variances of both series
        _, pair, params = _pairs(200)[2]
        record = estimate_curve(pair, params)
        seen = set()
        for t, (g, s_w, s_u, rho, code) in enumerate(zip(*record.views), 1):
            want_rho, want_flags = _point_rule(g, s_w, s_u)
            got = estimate_gbm(pair, t, params)
            assert got.flags == want_flags
            assert np.array_equal([rho, got.rho_hat], [want_rho] * 2, equal_nan=True)
            assert bool(code & form.RHO_OUT_OF_RANGE) == (want_flags == ("rho_out_of_range",))
            assert bool(code & form.NEGATIVE_A) == (s_w < 0.0)
            assert bool(code & form.NEGATIVE_B) == (s_u < 0.0)
            seen.update(want_flags)
        assert seen == {"rho_out_of_range", "negative_variance"}

    @pytest.mark.parametrize("family", ["bm", "v1", "v2"])
    def test_flat_path_codes_are_the_point_rule(self, family):
        params = BmEstimatorParams(0.5, 1.0) if family == "bm" else GbmEstimatorParams(
            1.0, 12.0 if family == "v1" else 16.0, 2.0, 0.5, family)
        for series, pair in zip("xy", _flat_pairs()["bm" if family == "bm" else "gbm"]):
            record = estimate_curve(pair, params)
            bit = form.NOT_POSITIVE_A if series == "x" else form.NOT_POSITIVE_B
            assert (record.code == bit).all()
            for t, (g, s_a, s_b) in enumerate(zip(*record.views[:3]), 1):
                assert (s_a if series == "x" else s_b) == 0.0
                if family == "bm":
                    with pytest.raises(DegenerateVariance, match=f"series {series} "):
                        estimate_bm(pair, t, params)
                else:
                    got = estimate_gbm(pair, t, params)
                    assert got.flags == _point_rule(g, s_a, s_b)[1] == ("degenerate_variance",)
                    assert math.isnan(got.rho_hat)

    @pytest.mark.parametrize("family", ["bm", "gbm"])
    def test_components_once_per_unresolved_entry(self, monkeypatch, family):
        estimate, pair, params = _pairs()[0 if family == "bm" else 2]
        cls = type(params)
        holes = (3, 9, 17, 40)
        calls = {"curve": 0, "components": []}
        real_curve, real_components = cls.curve, cls.components

        def holed(self, a, b):
            calls["curve"] += 1
            curve = [np.array(c) for c in real_curve(self, a, b)]
            for k, t in enumerate(holes):
                curve[k % 3][t - 1] = (np.nan, np.inf, -np.inf)[k % 3]
            return curve

        def components(self, a, b, t):
            calls["components"].append(t)
            return real_components(self, a, b, t)

        monkeypatch.setattr(cls, "curve", holed)
        monkeypatch.setattr(cls, "components", components)
        form._curve_estimate.cache_clear()
        record = estimate_curve(pair, params)
        assert calls == {"curve": 1, "components": list(holes)}
        for t in holes:
            assert record.views[0][t - 1] == real_components(params, *pair.paths, t)[0]
        for t in range(1, 41):
            estimate(pair, t, params)
        assert calls == {"curve": 1, "components": list(holes)}

    def test_components_once_per_entry_of_an_unresolved_curve(self, monkeypatch):
        # the q = p = 0 flat path: no variance of x is resolved by the curve
        x, y = np.full(50, 3.0), simulate_bm_pair(PROFILE, TimeGrid(50), 1).y
        pair, params = BmPathPair(x, y), BmEstimatorParams(0.0, 0.0)
        calls = []
        real = BmEstimatorParams.components
        monkeypatch.setattr(BmEstimatorParams, "components",
                            lambda self, a, b, t: calls.append(t) or real(self, a, b, t))
        estimate_curve(pair, params)
        assert calls == list(range(1, 51))
        for u in range(1, 51):
            with pytest.raises(DegenerateVariance):
                estimate_bm(pair, u, params)
        assert calls == list(range(1, 51))

    def test_a_raising_entry_raises_again_on_every_read(self, monkeypatch):
        # finite, but too large for the weighted sums at every time
        paths = np.zeros((2, 40))
        paths[:] = np.linspace(0.0, 1.0, 40)
        paths[0] = 1e200
        pair, params = BmPathPair(*paths), BmEstimatorParams(0.5, 1.0)
        calls = []
        real = BmEstimatorParams.components
        monkeypatch.setattr(BmEstimatorParams, "components",
                            lambda self, a, b, t: calls.append(t) or real(self, a, b, t))
        record = estimate_curve(pair, params)
        assert (record.code == form.RAISES).all() and calls == list(range(1, 41))
        assert np.isnan(record.gamma_hat).all() and np.isnan(record.rho_hat).all()
        for _ in range(2):
            with pytest.raises(NumericRange):
                estimate_bm(pair, 5, params)
        assert calls == list(range(1, 41)) + [5, 5]


class TestVarianceFaults:
    """``form.variance_faults`` is the one test of a variance against zero:
    ``flag_codes``, and so the curve record and the harness, and both
    ``rho_hat_*`` views read its bits."""

    _VALUES = [1.0, 5e-324, 0.0, -0.0, -5e-324, -1.0, math.inf, -math.inf, math.nan]

    def test_floats_and_arrays_give_the_same_bits(self):
        a, b = np.array(list(itertools.product(self._VALUES, repeat=2))).T
        codes = form.variance_faults(a, b)
        assert codes.dtype == np.int8 and codes.shape == a.shape
        for s_a, s_b, code in zip(a.tolist(), b.tolist(), codes.tolist()):
            got = form.variance_faults(s_a, s_b)
            assert type(got) is np.int8 and got == code
            assert bool(got & form.NOT_POSITIVE_A) == (not s_a > 0.0)
            assert bool(got & form.NEGATIVE_A) == (s_a < 0.0)
            assert bool(got & form.NOT_POSITIVE_B) == (not s_b > 0.0)
            assert bool(got & form.NEGATIVE_B) == (s_b < 0.0)
            assert not got & ~(form.VARIANCE_FAULTS | form.NEGATIVE_A | form.NEGATIVE_B)

    @staticmethod
    def _batch(family, T, sigma):
        """16 seeded pairs whose row 3 has a zero variance: a zero BM path, or
        a driving path at its GBM mean, ``sigma W_k = sigma^2 k / 2``."""
        x, y = simulate_bm_batch(PROFILE, TimeGrid(T), 1, 16)
        if family == "bm":
            x[3] = 0.0
            params = BmEstimatorParams(0.5, 1.0)
            return x, y, params, lambda a, b, t: rho_hat_bm(a, b, u=t, params=params)
        x[3] = 0.5 * sigma * np.arange(1.0, T + 1.0)
        params = GbmEstimatorParams(1.0, 16.0, 2.0, sigma, "v2")
        return x, y, params, lambda a, b, t: rho_hat_gbm(a, b, t=t, params=params)

    @staticmethod
    def _expect(family, code, t):
        """The error and message a view raises for a code, or None."""
        if family == "v2" and code & (form.NEGATIVE_A | form.NEGATIVE_B):
            return NegativeVarianceEstimate, (f"negative variance estimate at t={t} "
                                              "(variant v2, small-T pathology)")
        if code & form.VARIANCE_FAULTS:
            return DegenerateVariance, (f"zero variance estimate at t={t}" if family == "v2"
                                        else f"zero variance estimate at u={t}; "
                                        "constant path has no correlation")
        return None

    # the codes seen at t = 1, 5 and T: 1 a zero variance of x, 3 a negative
    # one, 12 a negative variance of y, 13 a zero one of x and a negative one
    # of y, 15 both negative and 16 a ratio beyond 1, which is kept
    @pytest.mark.parametrize("family, T, sigma, codes", [
        ("bm", 40, None, {0, 1}), ("v2", 40, 0.1, {1, 3, 12, 13, 15, 16}),
        ("v2", 200, 0.5, {0, 1})])
    def test_views_raise_exactly_where_the_codes_say(self, family, T, sigma, codes):
        x, y, params, view = self._batch(family, T, sigma)
        seen = set()
        for t in (1, 5, T):
            g, s_a, s_b = params.components(x, y, t)
            rho, code = form.flag_codes(g, s_a, s_b)
            seen.update(code.tolist())
            for i, c in enumerate(code.tolist()):
                expect = self._expect(family, c, t)
                if expect:
                    with pytest.raises(expect[0], match=f"^{re.escape(expect[1])}$"):
                        view(x[i], y[i], t)
                else:
                    assert view(x[i], y[i], t).hex() == float(rho[i]).hex()
            # a batch raises as its worst row, or returns every row's ratio
            expect = self._expect(family, int(np.bitwise_or.reduce(code)), t)
            if expect:
                with pytest.raises(expect[0], match=f"^{re.escape(expect[1])}$"):
                    view(x, y, t)
            else:
                assert view(x, y, t).tobytes() == rho.tobytes()
        assert seen == codes


class TestRecords:
    """The estimate records are frozen, slotted dataclasses whose slots the
    views fill one by one: each must be the record its class builds."""

    _FIELDS = {EstimateSeries: ("gamma_hat", "sigma_x_sq_hat", "sigma_y_sq_hat", "rho_hat"),
               GbmEstimateSeries: ("gamma_hat", "sigma_w_sq_hat", "sigma_u_sq_hat", "rho_hat",
                                   "flags")}

    @pytest.mark.parametrize("case", range(3), ids=["bm", "v1", "v2"])
    @pytest.mark.parametrize("t", [1, 7, 40])
    def test_a_view_record_is_the_class_record(self, case, t):
        estimate, pair, params = _pairs()[case]
        got = estimate(pair, t, params)
        cls = EstimateSeries if case == 0 else GbmEstimateSeries
        names = self._FIELDS[cls]
        values = tuple(getattr(got, name) for name in names)
        built = cls(*values)
        assert type(got) is cls
        assert tuple(f.name for f in dataclasses.fields(got)) == names
        assert dataclasses.astuple(got) == values
        assert got == built and hash(got) == hash(built)
        assert repr(got) == repr(built) == (
            f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")")
        loaded = pickle.loads(pickle.dumps(got))
        assert type(loaded) is cls and loaded == got and hash(loaded) == hash(got)
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.rho_hat = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del got.gamma_hat
        assert not hasattr(got, "__dict__")

    def test_gbm_flags_default_to_empty(self):
        record = GbmEstimateSeries(1.0, 2.0, 3.0, 0.5)
        assert record.flags == () and record == GbmEstimateSeries(1.0, 2.0, 3.0, 0.5, ())


_PICKLE_SCRIPT = """
import pickle, sys
from dyncorr import BmEstimatorParams, GbmEstimatorParams
params = [BmEstimatorParams(0.5, 1.0), GbmEstimatorParams(1.0, 12.0, 2.0, 0.1, "v1"),
          GbmEstimatorParams(1.0, 16.0, 2.0, 0.1, "v2")]
sys.stdout.buffer.write(pickle.dumps((hash("v2"), params)))
"""


class TestParamsHash:
    """Params key every curve and oracle cache, so each hashes its numbers
    once, as a profile does; GBM's variant is in ``==`` but not the hash."""

    PARAMS = [BmEstimatorParams(0.5, 1.0), *GBM.values()]

    @pytest.mark.parametrize("params", PARAMS, ids=["bm", "v1", "v2"])
    def test_equal_params_hash_equal(self, params):
        twin = type(params)(**dataclasses.asdict(params))
        assert twin is not params and twin == params and hash(twin) == hash(params)
        assert {params: 1}[twin] == 1

    @pytest.mark.parametrize("params", PARAMS, ids=["bm", "v1", "v2"])
    def test_replace_keeps_the_rule(self, params):
        name = dataclasses.fields(params)[1].name
        changed = dataclasses.replace(params, **{name: 2.5 * getattr(params, name)})
        assert changed != params
        assert hash(changed) == hash(type(params)(**dataclasses.asdict(changed)))
        back = dataclasses.replace(changed, **{name: getattr(params, name)})
        assert back == params and hash(back) == hash(params)

    def test_numbers_are_hashed_once(self):
        calls = []

        class Counted(float):
            def __hash__(self):
                calls.append(self)
                return float.__hash__(self)

        for params in (BmEstimatorParams(Counted(0.5), Counted(1.0)),
                       GbmEstimatorParams(*map(Counted, (1.0, 16.0, 2.0, 0.1)), "v2")):
            first = hash(params)
            before = len(calls)
            assert hash(params) == first and len(calls) == before

    def test_variants_of_the_same_numbers_are_unequal(self):
        v1 = GBM["v1"]
        v2 = dataclasses.replace(v1, variant="v2")
        assert v1 != v2 and hash(v1) == hash(v2)
        assert {v1: "v1", v2: "v2"}[v2] == "v2"

    def test_pickle_from_another_hash_seed_loads_equal(self):
        # a str hashes differently under another PYTHONHASHSEED; the numbers do not
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(dyncorr.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _PICKLE_SCRIPT], env=env,
                             capture_output=True, check=True)
        their_str_hash, loaded = pickle.loads(run.stdout)
        assert their_str_hash != hash("v2")
        for got, fresh in zip(loaded, self.PARAMS, strict=True):
            assert got == fresh and hash(got) == hash(fresh)
            assert {fresh: 1}[got] == 1
