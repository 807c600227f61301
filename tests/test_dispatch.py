"""Dispatch model validation, solver behaviour, and derived metrics."""

import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from mgplan import (
    BatterySpec,
    HourlyProfile,
    SolveOptions,
    SolverFailure,
    UNIT_KG_PER_HOUR,
    UNIT_MW,
    ValidationError,
    baseline_emissions,
    build_instance,
    count_cycles,
    renewable_emissions,
    solve_dispatch,
    utilization,
)
from mgplan.dispatch import STATUS_OPTIMAL
from mgplan.dispatch import solver as solver_mod

from dispatch_oracle import solve_oracle
from support import random_small_instance, synthetic_year, toy_instance


def mk_instance(load, solar, carbon, e_rated=0.0):
    return build_instance(
        HourlyProfile(load, UNIT_MW),
        HourlyProfile(solar, UNIT_MW),
        HourlyProfile(carbon, UNIT_KG_PER_HOUR),
        BatterySpec(e_rated),
    )


class TestBatterySpec:
    def test_power_limit(self):
        assert BatterySpec(40.0).power_limit_mw == pytest.approx(10.0)
        assert BatterySpec(0.0).power_limit_mw == 0.0

    def test_soc_ordering(self):
        with pytest.raises(ValidationError):
            BatterySpec(10.0, soc_min_frac=0.6, initial_soc_frac=0.5)

    def test_efficiency_range(self):
        with pytest.raises(ValidationError):
            BatterySpec(10.0, roundtrip_efficiency=0.0)

    def test_usable_window(self):
        assert BatterySpec(40.0).usable_window_mwh == pytest.approx(32.0)


class TestBuildInstance:
    def test_valid(self):
        instance = mk_instance([1.0, 2.0], [0.0, 0.0], [1.0, 1.0])
        assert instance.horizon == 2

    def test_horizon_mismatch(self):
        with pytest.raises(ValidationError, match="horizon mismatch"):
            build_instance(
                HourlyProfile([1.0] * 4, UNIT_MW),
                HourlyProfile([1.0] * 3, UNIT_MW),
                HourlyProfile([1.0] * 4, UNIT_KG_PER_HOUR),
                BatterySpec(0.0),
            )

    def test_carbon_at_zero_load_hour(self):
        with pytest.raises(ValidationError, match="carbon at zero-load hour 3"):
            mk_instance([1.0, 1.0, 0.0], [0.0] * 3, [1.0, 1.0, 2.0])

    def test_unit_checks(self):
        with pytest.raises(ValidationError, match="load profile must be MW"):
            build_instance(
                HourlyProfile([1.0], UNIT_KG_PER_HOUR),
                HourlyProfile([1.0], UNIT_MW),
                HourlyProfile([1.0], UNIT_KG_PER_HOUR),
                BatterySpec(0.0),
            )


class TestBaselineEmissions:
    def test_zero(self):
        assert baseline_emissions(HourlyProfile([0.0, 0.0], UNIT_KG_PER_HOUR)) == 0.0

    def test_sum(self):
        assert baseline_emissions(HourlyProfile([5.0, 5.0], UNIT_KG_PER_HOUR)) == 10.0

    def test_bounds_hourly_max(self):
        carbon = HourlyProfile([1.0, 7.0, 2.0], UNIT_KG_PER_HOUR)
        assert baseline_emissions(carbon) >= carbon.values.max()


class TestSolveBasics:
    def test_no_solar_no_battery(self):
        instance = mk_instance([3.0, 4.0], [0.0, 0.0], [2.0, 2.0])
        result = solve_dispatch(instance)
        np.testing.assert_allclose(result.grid_to_load, [3.0, 4.0])
        assert result.reduction_pct == pytest.approx(0.0)
        assert result.status == STATUS_OPTIMAL

    def test_full_solar_coverage(self):
        instance = mk_instance([3.0, 4.0], [5.0, 4.0], [2.0, 2.0])
        result = solve_dispatch(instance)
        assert result.grid_total.max() == pytest.approx(0.0, abs=1e-9)
        assert result.reduction_pct == pytest.approx(100.0)

    def test_toy_instance_pinned(self):
        result = solve_dispatch(toy_instance())
        assert result.reduction_pct == pytest.approx(85.0, abs=1e-6)
        assert result.renewable_kg == pytest.approx(1.5, abs=1e-6)
        assert result.grid_total.sum() == pytest.approx(3.0, abs=1e-6)
        assert result.util_grid == pytest.approx(0.15, abs=1e-9)
        assert result.util_solar == pytest.approx(0.0, abs=1e-9)
        assert result.util_batt == pytest.approx(0.85, abs=1e-9)
        assert result.chg_solar == pytest.approx(1.0, abs=1e-9)
        assert result.cycles_per_year == pytest.approx(0.53125, abs=1e-9)
        assert result.status == STATUS_OPTIMAL

    def test_toy_instance_milp_backend(self):
        result = solve_dispatch(toy_instance(), SolveOptions(backend="milp"))
        assert result.reduction_pct == pytest.approx(85.0, abs=1e-6)

    def test_scale_invariance_of_reduction(self):
        base = solve_dispatch(toy_instance())
        scaled = build_instance(
            toy_instance().load,
            toy_instance().solar,
            HourlyProfile(np.array([0.0, 5.0, 0.0, 5.0]) * 37.5, UNIT_KG_PER_HOUR),
            BatterySpec(40.0),
        )
        result = solve_dispatch(scaled)
        assert result.reduction_pct == pytest.approx(base.reduction_pct, abs=1e-6)

    def test_zero_baseline_reduction_defined(self):
        instance = mk_instance([1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        result = solve_dispatch(instance)
        assert result.reduction_pct == 0.0


def assert_invariants(result, instance, tol=1e-6):
    load = instance.load.values
    solar = instance.solar.values
    batt = instance.battery
    np.testing.assert_allclose(
        result.solar_to_load + result.solar_to_batt + result.solar_curtailed,
        solar,
        atol=tol,
    )
    np.testing.assert_allclose(
        result.charge_total, result.solar_to_batt + result.grid_to_batt, atol=tol
    )
    np.testing.assert_allclose(
        result.grid_total, result.grid_to_load + result.grid_to_batt, atol=tol
    )
    np.testing.assert_allclose(
        result.grid_to_load + result.solar_to_load + result.batt_to_load,
        load,
        atol=tol,
    )
    if batt.e_rated_mwh > 0:
        prev = np.concatenate([[batt.initial_energy_mwh], result.battery_energy[:-1]])
        np.testing.assert_allclose(
            result.battery_energy,
            prev
            + batt.roundtrip_efficiency * result.charge_total
            - result.batt_to_load,
            atol=tol,
        )
        assert result.battery_energy.min() >= batt.energy_min_mwh - tol
        assert result.battery_energy.max() <= batt.energy_max_mwh + tol
        assert abs(result.battery_energy[-1] - batt.initial_energy_mwh) <= tol
        assert (result.batt_to_load * result.charge_total).max() <= tol
    zero_load = load <= 1e-9
    if zero_load.any():
        assert result.grid_total[zero_load].max() <= 1e-9
    assert 0.0 <= result.reduction_pct <= 100.0


def random_invariant_instances():
    rng = np.random.default_rng(17)
    for _ in range(25):
        T = int(rng.choice([4, 6, 8]))
        load = rng.integers(0, 6, T).astype(float)
        solar = rng.integers(0, 6, T).astype(float)
        carbon = np.where(load > 0, rng.integers(0, 5, T), 0).astype(float)
        e = float(rng.choice([0.0, 4.0, 8.0]))
        yield mk_instance(load, solar, carbon, e)


def assert_exact_sums(result):
    """Grid and charger totals are the sums of their parts, bit for bit."""
    assert np.array_equal(result.grid_total, result.grid_to_load + result.grid_to_batt)
    assert np.array_equal(
        result.charge_total, result.solar_to_batt + result.grid_to_batt
    )


class TestInvariants:
    def test_random_small_instances(self):
        for instance in random_invariant_instances():
            result = solve_dispatch(instance)
            assert_invariants(result, instance)
            assert renewable_emissions(result, instance) == pytest.approx(
                result.renewable_kg, abs=1e-9
            )

    def test_totals_are_exact_sums(self):
        for instance in random_invariant_instances():
            assert_exact_sums(solve_dispatch(instance))

    def test_fraction_sums(self):
        result = solve_dispatch(toy_instance())
        assert result.util_grid + result.util_solar + result.util_batt == pytest.approx(
            1.0, abs=1e-9
        )
        assert result.chg_grid + result.chg_solar == pytest.approx(1.0, abs=1e-9)


class TestMonotonicity:
    def test_reduction_in_battery_size(self):
        load = [0.0, 10.0, 0.0, 10.0, 0.0, 10.0]
        solar = [10.0, 0.0, 10.0, 0.0, 10.0, 0.0]
        carbon = [0.0, 5.0, 0.0, 5.0, 0.0, 5.0]
        values = [
            solve_dispatch(mk_instance(load, solar, carbon, e)).reduction_pct
            for e in (0.0, 8.0, 24.0, 60.0)
        ]
        assert all(b >= a - 1e-7 for a, b in zip(values, values[1:]))

    def test_reduction_in_nameplate(self):
        load = [5.0, 10.0, 5.0, 10.0]
        carbon = [2.0, 5.0, 2.0, 5.0]
        values = []
        for scale in (0.0, 0.5, 1.0, 2.0):
            solar = list(np.array([4.0, 4.0, 4.0, 4.0]) * scale)
            values.append(
                solve_dispatch(mk_instance(load, solar, carbon, 8.0)).reduction_pct
            )
        assert all(b >= a - 1e-7 for a, b in zip(values, values[1:]))


class TestSolveOptions:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("time_limit_s", 0.0),
            ("time_limit_s", -1.0),
            ("time_limit_s", float("inf")),
            ("time_limit_s", float("nan")),
            ("gap_tol", -1e-4),
            ("feasibility_tol", 0.0),
            ("tie_break_eps", -1e-6),
        ],
    )
    def test_invalid_options_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field.split("_")[0]):
            SolveOptions(**{field: value})


class TestMilpFallback:
    def test_violating_lp_falls_back_to_milp(self, monkeypatch):
        """Make the LP answer look 'violating' so the solver must reject
        it and hand the model to the MILP, then check the optimum."""
        instance = toy_instance()
        reference = solve_dispatch(instance).renewable_kg

        original_violations = solver_mod._DispatchLp.exclusivity_violations
        checked = []

        def inflated(self, x):
            v = original_violations(self, x) + 1e-3
            checked.append(v.max())
            return v

        original_milp = solver_mod._solve_milp
        milp_calls = []

        def counting_milp(*args, **kwargs):
            milp_calls.append(args)
            return original_milp(*args, **kwargs)

        monkeypatch.setattr(solver_mod._DispatchLp, "exclusivity_violations", inflated)
        monkeypatch.setattr(solver_mod, "_solve_milp", counting_milp)
        options = SolveOptions(feasibility_tol=5e-4, gap_tol=1e-9)
        result = solve_dispatch(instance, options)
        assert len(checked) == 1 and checked[0] > options.feasibility_tol
        assert len(milp_calls) == 1
        assert result.renewable_kg == pytest.approx(reference, abs=1e-6)
        assert result.status == STATUS_OPTIMAL

    def test_milp_backend_matches_oracle(self):
        """The MILP's binary rows, on instances with a battery, against the
        exhaustive oracle."""
        rng = np.random.default_rng(41)
        solved = 0
        while solved < 12:
            instance, load, solar, carbon, e_rated = random_small_instance(rng)
            if e_rated == 0:
                continue
            result = solve_dispatch(instance, SolveOptions(backend="milp", gap_tol=1e-9))
            oracle = solve_oracle(load, solar, carbon, e_rated)
            assert result.reduction_pct == pytest.approx(oracle.reduction_pct, abs=1e-6)
            assert result.status == STATUS_OPTIMAL
            assert (result.batt_to_load * result.charge_total).max() <= 1e-9
            solved += 1

    def test_time_limit_failure(self, monkeypatch):
        """A HiGHS call that reports its time limit (status 1) fails the
        solve rather than returning a partial answer."""

        def timed_out(*args, **kwargs):
            return SimpleNamespace(status=1, x=None, message="Time limit reached")

        monkeypatch.setattr(solver_mod, "linprog", timed_out)
        with pytest.raises(SolverFailure, match="Time limit reached"):
            solve_dispatch(toy_instance())


class TestMetricsOps:
    def test_renewable_emissions_boundaries(self):
        instance = mk_instance([2.0, 2.0], [0.0, 0.0], [3.0, 3.0])
        result = solve_dispatch(instance)
        assert renewable_emissions(result, instance) == pytest.approx(6.0)

        covered = mk_instance([2.0, 2.0], [2.0, 2.0], [3.0, 3.0])
        result = solve_dispatch(covered)
        assert renewable_emissions(result, covered) == pytest.approx(0.0, abs=1e-9)

    def test_utilization_all_grid(self):
        instance = mk_instance([2.0, 2.0], [0.0, 0.0], [3.0, 3.0])
        fractions = utilization(solve_dispatch(instance), instance)
        assert fractions.grid == pytest.approx(1.0)
        assert fractions.solar == fractions.batt_discharge == 0.0
        assert not fractions.battery_charged

    def test_utilization_undefined_without_load(self):
        instance = mk_instance([0.0, 0.0], [1.0, 1.0], [0.0, 0.0])
        result = solve_dispatch(instance)
        with pytest.raises(ValidationError, match="undefined utilization"):
            utilization(result, instance)

    def test_all_solar_charging(self):
        result = solve_dispatch(toy_instance())
        assert result.chg_solar == pytest.approx(1.0)

    def test_count_cycles_zero_discharge(self):
        instance = mk_instance([2.0, 2.0], [2.0, 2.0], [3.0, 3.0], e_rated=8.0)
        result = solve_dispatch(instance)
        assert count_cycles(result, instance.battery) == pytest.approx(0.0, abs=1e-9)

    def test_count_cycles_definition(self):
        battery = BatterySpec(40.0)
        result = solve_dispatch(toy_instance())
        assert count_cycles(result, battery) == pytest.approx(17.0 / 32.0, abs=1e-9)

    def test_count_cycles_rejects_no_battery(self):
        instance = mk_instance([2.0], [0.0], [3.0])
        result = solve_dispatch(instance)
        with pytest.raises(ValidationError):
            count_cycles(result, instance.battery)


class TestSerialization:
    def test_csv_shape(self):
        result = solve_dispatch(toy_instance())
        buf = io.StringIO()
        result.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 1 + 4
        assert lines[0].startswith("hour,grid_to_load_mw,")

    def test_summary_json(self):
        result = solve_dispatch(toy_instance())
        payload = json.loads(result.summary_json())
        assert payload["status"] == STATUS_OPTIMAL
        assert payload["reduction_pct"] == pytest.approx(85.0)
        assert payload["cycles_per_year"] == pytest.approx(0.53125)


class TestFullYear:
    def test_synthetic_year_invariants(self):
        load, solar, carbon = synthetic_year(hours=8760)
        instance = build_instance(load, solar, carbon, BatterySpec(100.0))
        result = solve_dispatch(instance)
        assert result.status == STATUS_OPTIMAL
        assert_invariants(result, instance)
        assert result.util_grid + result.util_solar + result.util_batt == pytest.approx(
            1.0, abs=1e-9
        )

    def test_noisy_year_totals_are_exact_sums(self):
        """Load in every hour and noisy emissions make grid charging pay, so
        both charger sources run in many hours."""
        rng = np.random.default_rng(0)
        hod = np.arange(8760) % 24
        load = 20.0 + 10.0 * rng.random(8760)
        cf = np.maximum(0.0, np.sin(np.pi * (hod - 6) / 14.0)) * rng.uniform(0.3, 1.0, 8760)
        carbon = load * rng.uniform(200.0, 600.0, 8760)
        instance = mk_instance(load, 60.0 * cf, carbon, e_rated=100.0)
        result = solve_dispatch(instance)
        assert result.chg_grid > 0.0 and result.chg_solar > 0.0
        assert_invariants(result, instance)
        assert_exact_sums(result)
