"""Profile construction, validation and the increment-coupling map."""

import numpy as np
import pytest

from dyncorr import (
    CorrelationProfile,
    DomainError,
    IncrementInfeasible,
    ProfileOutOfRange,
    TimeGrid,
    build_profile,
)


class TestTimeGrid:
    def test_times_are_one_based(self):
        grid = TimeGrid(5)
        assert grid.times.tolist() == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("T", [1, 0, -3, 2.5, "10"])
    def test_rejects_bad_lengths(self, T):
        with pytest.raises(DomainError):
            TimeGrid(T)


class TestProfileValues:
    def test_constant(self):
        rho = CorrelationProfile("constant", (0.5,)).rho(4)
        assert rho.tolist() == [0.5, 0.5, 0.5, 0.5]

    def test_linear(self):
        rho = CorrelationProfile("linear", (0.1, 0.02)).rho(3)
        assert np.allclose(rho, [0.12, 0.14, 0.16])

    def test_capped_accrues_then_freezes_covariance(self):
        # rho_t = c * min(t, t0) / t keeps t * rho_t constant past t0
        prof = CorrelationProfile("capped", (0.5, 10.0))
        rho = prof.rho(20)
        assert rho[9] == pytest.approx(0.5)
        assert np.allclose(np.arange(11, 21) * rho[10:], 5.0)

    def test_table_must_cover_grid(self):
        prof = CorrelationProfile("table", table=(0.1, 0.2))
        with pytest.raises(DomainError):
            prof.rho(3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            CorrelationProfile("quadratic", (1.0,))

    def test_out_of_range_value_reports_index(self):
        prof = CorrelationProfile("linear", (0.5, 0.2))
        with pytest.raises(ProfileOutOfRange) as info:
            prof.rho(5)
        assert info.value.index == 3  # 0.5 + 0.2*3 = 1.1

    # a wrong count constructed, then rho raised a bare ValueError
    @pytest.mark.parametrize("kind, params, expected", [("constant", (0.5, 0.2), 1),
                                                        ("linear", (), 2),
                                                        ("capped", (0.5,), 2)])
    def test_parameter_count_checked_at_construction(self, kind, params, expected):
        with pytest.raises(DomainError, match=f"takes {expected} parameter\\(s\\), "
                                              f"got {len(params)}"):
            CorrelationProfile(kind, params)

    def test_table_needs_two_values(self):
        with pytest.raises(DomainError, match="at least 2 values"):
            CorrelationProfile("table", table=(0.5,))

    def test_nan_table_value_reports_index(self):
        with pytest.raises(ProfileOutOfRange) as info:
            build_profile("table:0.1,nan,0.2", TimeGrid(3))
        assert info.value.index == 2


class TestIncrements:
    def test_constant_one_gives_unit_increments(self):
        r = CorrelationProfile("constant", (1.0,)).increments(6)
        assert np.allclose(r, 1.0)

    def test_cumulative_covariance_matches_profile(self):
        prof = CorrelationProfile("capped", (0.4, 7.0))
        T = 30
        r = prof.increments(T)
        t = np.arange(1, T + 1)
        assert np.allclose(np.cumsum(r), t * prof.rho(T))

    def test_infeasible_profile_rejected_with_index(self):
        # rho jumping 0 -> 0.9 at t=5 needs r_5 = 5*0.9 - 4*0 = 4.5
        table = (0.0, 0.0, 0.0, 0.0, 0.9, 0.75)
        with pytest.raises(IncrementInfeasible) as info:
            CorrelationProfile("table", table=table).increments(6)
        assert info.value.index == 5

    def test_boundary_rounding_is_tolerated(self):
        table = (1.0 + 5e-13, 1.0)
        r = CorrelationProfile("table", table=table).increments(2)
        assert np.all(np.abs(r) <= 1.0)


class TestBuildProfile:
    @pytest.mark.parametrize("spec,kind", [
        ("constant:0.5", "constant"),
        ("linear:0.1,0.01", "linear"),
        ("capped:0.5,10", "capped"),
        ("table:0.1,0.2,0.3", "table"),
    ])
    def test_parses_spec_strings(self, spec, kind):
        grid = TimeGrid(3)
        assert build_profile(spec, grid).kind == kind

    def test_spec_string_round_trips(self):
        grid = TimeGrid(10)
        table = "table:" + ",".join(["0.25", "0.3"] * 5)
        for spec in ("constant:0.5", "linear:0.01,0.005", "capped:0.5,4.0", table):
            prof = build_profile(spec, grid)
            again = build_profile(prof.spec_string(), grid)
            assert np.array_equal(prof.rho(10), again.rho(10))
        assert prof.spec_string() == table

    def test_table_length_must_match_grid(self):
        with pytest.raises(DomainError):
            build_profile("table:0.1,0.2,0.3", TimeGrid(4))

    @pytest.mark.parametrize("spec", ["constant:", "constant:a", "capped:0.5",
                                      "mystery:1", "linear:1,2,3"])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(DomainError):
            build_profile(spec, TimeGrid(3))

    @pytest.mark.parametrize("spec, message", [
        ("table:0.1,abc", "cannot parse"),
        ("table:", "at least 2 values, got 0"),
        ("table:0.5", "at least 2 values, got 1"),
    ])
    def test_malformed_table_names_the_spec(self, spec, message):
        with pytest.raises(DomainError, match=message) as info:
            build_profile(spec, TimeGrid(2))
        assert repr(spec) in str(info.value)

    # the profile checks its kind and parameter count; the parser's message
    # adds the spec
    @pytest.mark.parametrize("spec, message", [("capped:0.5", "takes 2 parameter"),
                                               ("mystery:1", "unknown profile kind 'mystery'")])
    def test_malformed_spec_names_the_spec(self, spec, message):
        with pytest.raises(DomainError, match=message) as info:
            build_profile(spec, TimeGrid(2))
        assert repr(spec) in str(info.value)

    def test_building_validates_feasibility(self):
        with pytest.raises(IncrementInfeasible):
            build_profile("table:0.0,0.95", TimeGrid(2))

    # each ended in a bare AttributeError ('... has no attribute partition')
    @pytest.mark.parametrize("spec", [None, 0.5])
    def test_non_profile_non_string_rejected(self, spec):
        with pytest.raises(DomainError, match=f"CorrelationProfile or a spec string, got {spec}"):
            build_profile(spec, TimeGrid(5))


class TestHashing:
    def test_table_is_hashed_once(self):
        # cache lookups hash the profile; a table's values must not be
        # hashed again on every lookup
        calls = []

        class Counted(float):
            def __hash__(self):
                calls.append(self)
                return float.__hash__(self)

        profile = CorrelationProfile("table", table=tuple(Counted(0.5) for _ in range(50)))
        first = hash(profile)
        before = len(calls)
        assert hash(profile) == first
        assert len(calls) == before

    def test_equal_profiles_hash_equal(self):
        a = CorrelationProfile("table", table=(0.5, 0.25, 0.1))
        b = build_profile("table:0.5,0.25,0.1", TimeGrid(3))
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
