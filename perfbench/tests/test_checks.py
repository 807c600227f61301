"""The benchmark's own correctness checks: each passes on the program's
real output and fails on a corrupted copy of it.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

import mgplan
from mgplan.siting import catalog_from_json, catalog_to_json, load_siting_config, run_siting

from perfbench import checks, inputs, trace
from perfbench.run import nearest_rank
from perfbench.workloads import DispatchBatch


def brute_force_buffer(violated: np.ndarray, radius: int) -> np.ndarray:
    out = violated.copy()
    rows, cols = violated.shape
    for i, j in zip(*np.nonzero(violated)):
        for di in range(-radius, radius + 1):
            for dj in range(-radius, radius + 1):
                r, c = i + di, j + dj
                if di * di + dj * dj <= radius * radius and 0 <= r < rows and 0 <= c < cols:
                    out[r, c] = True
    return out


class TestBuffer:
    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 5, 9])
    def test_edt_matches_brute_force_disc(self, radius):
        rng = np.random.default_rng(radius)
        for _ in range(5):
            violated = rng.random((23, 31)) < 0.02
            np.testing.assert_array_equal(
                checks.buffer_edt(violated, radius), brute_force_buffer(violated, radius)
            )

    def test_no_violations_stays_empty(self):
        violated = np.zeros((8, 8), dtype=bool)
        assert not checks.buffer_edt(violated, 3).any()

    @pytest.mark.parametrize("distance_m", [180.0, 0.5 * inputs.METERS_PER_MILE, inputs.METERS_PER_MILE])
    def test_edt_matches_program_buffer(self, distance_m):
        rng = np.random.default_rng(7)
        violated = rng.random((60, 70)) < 0.01
        layer = mgplan.GridRaster(violated.astype(float), inputs.CELL_M)
        program = mgplan.buffer_violations(layer, distance_m).cells.astype(bool)
        radius = checks.buffer_radius_cells(distance_m)
        np.testing.assert_array_equal(checks.buffer_edt(violated, radius), program)


@pytest.fixture(scope="module")
def siting_case(tmp_path_factory):
    root = tmp_path_factory.mktemp("region")
    region = inputs.make_siting_inputs(root, seed=3, size=320)
    catalog = run_siting(load_siting_config(region.config_path))
    out = root / "catalog.json"
    catalog_to_json(catalog, out)
    return region, catalog, out, checks.expected_siting(region)


def run_catalog_check(region, expected, parcels):
    return checks.check_catalog(parcels, expected, region.members)


class TestSitingChecks:
    def test_inputs_parse_to_the_generated_values(self, siting_case):
        region, _, _, _ = siting_case
        for layer in region.layers:
            parsed = mgplan.siting.read_ascii_grid(region.config_path.parent / f"{layer.name}.asc")
            np.testing.assert_array_equal(parsed.cells, layer.values())

    def test_real_catalog_passes(self, siting_case):
        region, catalog, out, expected = siting_case
        assert len(catalog) > 10
        assert run_catalog_check(region, expected, catalog.parcels) == []
        read_back = catalog_from_json(out)
        assert checks.check_catalog_readback(catalog, read_back) == []

    def test_area_off_by_one_cell_fails(self, siting_case):
        region, catalog, _, expected = siting_case
        parcels = list(catalog.parcels)
        p = parcels[len(parcels) // 2]
        area = p.viable_area_km2 + expected.cell_area_km2
        parcels[len(parcels) // 2] = replace(
            p, viable_area_km2=area, nameplate_mw=area * expected.density
        )
        assert any("area" in e for e in run_catalog_check(region, expected, parcels))

    def test_dropped_parcel_fails(self, siting_case):
        region, catalog, _, expected = siting_case
        parcels = list(catalog.parcels[:-1])
        assert run_catalog_check(region, expected, parcels)

    def test_unsorted_sites_fail(self, siting_case):
        region, catalog, _, expected = siting_case
        parcels = list(catalog.parcels)
        first, last = parcels[0], parcels[-1]
        parcels[0] = replace(last, site_index=1)
        parcels[-1] = replace(first, site_index=last.site_index)
        assert any("nameplate" in e for e in run_catalog_check(region, expected, parcels))

    def test_wrong_representative_fails(self, siting_case):
        region, catalog, _, expected = siting_case
        other = (expected.representative + 1) % len(region.members)
        profile = mgplan.HourlyProfile(region.members[other], "cf")
        parcels = [replace(p, representative_profile=profile) for p in catalog.parcels]
        assert any("representative" in e for e in run_catalog_check(region, expected, parcels))

    def test_one_unbuffered_cell_changes_the_expected_mask(self, siting_case):
        region, catalog, _, expected = siting_case
        viable = expected.viable.copy()
        i, j = np.argwhere(~viable)[0]
        viable[i, j] = True
        shifted = replace(expected, viable=viable,
                          block_counts=checks.block_counts(viable, region.block_cells))
        assert run_catalog_check(region, shifted, catalog.parcels)

    def test_perturbed_readback_fails(self, siting_case, tmp_path):
        _, catalog, out, _ = siting_case
        payload = json.loads(out.read_text())
        payload["parcels"][0]["viable_area_km2"] += 0.0081
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert checks.check_catalog_readback(catalog, catalog_from_json(bad))


@pytest.fixture(scope="module")
def sweep_case(tmp_path_factory):
    """A 6-cell full-year sweep: one site, one scale, 0 and 40 MWh, all
    chemistries, one shift."""
    root = tmp_path_factory.mktemp("sweep")
    full = inputs.make_sweep_inputs(root, seed=5, workers=1)
    spec = json.loads(full.spec_path.read_text())
    spec.update(sites=spec["sites"][:1], nameplate_scales=[1.0],
                battery_sizes_mwh=[0.0, 40.0], shift_hours=[2])
    full.spec_path.write_text(json.dumps(spec))
    small = replace(full, site_solar={1: full.site_solar[1]}, scales=(1.0,),
                    batteries=(0.0, 40.0), shifts=(2,))
    sweep_spec = mgplan.load_sweep_spec(small.spec_path)
    results = mgplan.run_sweep(sweep_spec)
    mgplan.export_results(results, small.output_dir)
    return small


def rewrite_results(case, edit):
    path = case.output_dir / "results.json"
    original = path.read_text()
    rows = json.loads(original)
    edit(rows)
    path.write_text(json.dumps(rows))
    try:
        return checks.check_sweep(case.output_dir, case)
    finally:
        path.write_text(original)


class TestSweepChecks:
    def test_real_sweep_passes(self, sweep_case):
        assert checks.check_sweep(sweep_case.output_dir, sweep_case) == []

    def test_dropped_row_fails(self, sweep_case):
        errors = rewrite_results(sweep_case, lambda rows: rows.pop(3))
        assert any("rows" in e for e in errors)

    def test_chemistry_dependent_dispatch_fails(self, sweep_case):
        def edit(rows):
            row = next(r for r in rows if r["battery_mwh"] > 0 and r["chemistry"] == "NCA")
            row["reduction_pct"] += 1e-3
        assert any("differs across chemistries" in e for e in rewrite_results(sweep_case, edit))

    def test_wrong_no_battery_reduction_fails(self, sweep_case):
        def edit(rows):
            for r in rows:
                if r["battery_mwh"] == 0:
                    r["reduction_pct"] *= 1.001
        assert any("closed form" in e for e in rewrite_results(sweep_case, edit))

    def test_battery_below_no_battery_fails(self, sweep_case):
        def edit(rows):
            for r in rows:
                if r["battery_mwh"] > 0:
                    r["reduction_pct"] = 0.0
        errors = rewrite_results(sweep_case, edit)
        assert any("below the no-battery" in e for e in errors)

    def test_utilization_not_summing_to_one_fails(self, sweep_case):
        def edit(rows):
            rows[0]["util_grid"] += 0.01
        assert any("utilization" in e for e in rewrite_results(sweep_case, edit))

    def test_tec_outside_components_fails(self, sweep_case):
        def edit(rows):
            rows[-1]["tec_usd_per_mwh"] = 1e9
        assert any("tec" in e for e in rewrite_results(sweep_case, edit))

    def test_missing_plot_file_fails(self, sweep_case):
        victim = sorted(sweep_case.output_dir.glob("plot_grid_*.csv"))[0]
        content = victim.read_bytes()
        victim.unlink()
        try:
            assert any("plot files" in e for e in checks.check_sweep(sweep_case.output_dir, sweep_case))
        finally:
            victim.write_bytes(content)


@pytest.fixture(scope="module")
def dispatch_case(tmp_path_factory):
    root = tmp_path_factory.mktemp("dispatch")
    workload = DispatchBatch(mgplan, root, seed=11, trace=False)
    case = workload.prepare(0)
    workload.run(case)
    return case


def corrupt(case, tmp_path, column, hour, delta=0.0, value=None, summary=None):
    """Copy the case's outputs with one trajectory cell or summary field changed."""
    out = tmp_path / "case" / "out"
    out.mkdir(parents=True)
    lines = (case.out_dir / "trajectories.csv").read_text().splitlines()
    if column is not None:
        k = checks.TRAJECTORY_COLUMNS.index(column)
        parts = lines[hour + 1].split(",")
        parts[k] = repr(float(parts[k]) + delta if value is None else value)
        lines[hour + 1] = ",".join(parts)
    (out / "trajectories.csv").write_text("\n".join(lines) + "\n")
    data = json.loads((case.out_dir / "summary.json").read_text())
    data.update(summary or {})
    (out / "summary.json").write_text(json.dumps(data))
    return checks.check_dispatch(case, out / "trajectories.csv", out / "summary.json")


def first_hour(case, predicate):
    traj = checks.read_trajectory(case.out_dir / "trajectories.csv")
    return int(np.flatnonzero(predicate(traj))[0])


class TestDispatchChecks:
    def test_inputs_are_seed_deterministic(self, tmp_path):
        a = inputs.make_dispatch_case(tmp_path / "a", 4, 2)
        b = inputs.make_dispatch_case(tmp_path / "b", 4, 2)
        c = inputs.make_dispatch_case(tmp_path / "c", 5, 2)
        assert a.load_path.read_bytes() == b.load_path.read_bytes()
        assert a.load_path.read_bytes() != c.load_path.read_bytes()
        parsed = mgplan.load_profile(a.carbon_path, "kg/h")
        np.testing.assert_array_equal(parsed.values, a.carbon)

    def test_real_output_passes(self, dispatch_case):
        errors = checks.check_dispatch(
            dispatch_case,
            dispatch_case.out_dir / "trajectories.csv",
            dispatch_case.out_dir / "summary.json",
        )
        assert errors == []

    def test_perturbed_load_share_fails(self, dispatch_case, tmp_path):
        hour = first_hour(dispatch_case, lambda t: t["grid_to_load_mw"] > 1.0)
        errors = corrupt(dispatch_case, tmp_path, "grid_to_load_mw", hour, delta=0.5)
        assert any("load balance" in e for e in errors)

    def test_perturbed_solar_share_fails(self, dispatch_case, tmp_path):
        hour = first_hour(dispatch_case, lambda t: t["solar_curtailed_mw"] > 1.0)
        errors = corrupt(dispatch_case, tmp_path, "solar_curtailed_mw", hour, delta=0.5)
        assert any("solar split" in e for e in errors)

    def test_perturbed_stored_energy_fails(self, dispatch_case, tmp_path):
        errors = corrupt(dispatch_case, tmp_path, "battery_energy_mwh", 4000, delta=0.25)
        assert any("recursion" in e for e in errors)

    def test_energy_outside_window_fails(self, dispatch_case, tmp_path):
        errors = corrupt(dispatch_case, tmp_path, "battery_energy_mwh", 100,
                         value=0.95 * dispatch_case.battery_mwh)
        assert any("window" in e for e in errors)

    def test_year_end_not_cyclic_fails(self, dispatch_case, tmp_path):
        errors = corrupt(dispatch_case, tmp_path, "battery_energy_mwh", inputs.HOURS - 1,
                         delta=0.5)
        assert any("year ends" in e for e in errors)

    def test_simultaneous_charge_and_discharge_fails(self, dispatch_case, tmp_path):
        hour = first_hour(dispatch_case, lambda t: t["batt_to_load_mw"] > 0.5)
        errors = corrupt(dispatch_case, tmp_path, "charge_total_mw", hour, delta=0.3)
        assert any("charging and discharging" in e for e in errors)

    def test_grid_at_zero_load_hour_fails(self, dispatch_case, tmp_path):
        load = np.roll(dispatch_case.load, dispatch_case.shift_hours)
        hour = int(np.flatnonzero(load <= inputs.ZERO_LOAD_TOL)[0])
        errors = corrupt(dispatch_case, tmp_path, "grid_total_mw", hour, delta=1.0)
        assert any("zero-load" in e for e in errors)

    def test_wrong_renewable_kg_fails(self, dispatch_case, tmp_path):
        data = json.loads((dispatch_case.out_dir / "summary.json").read_text())
        errors = corrupt(dispatch_case, tmp_path, None, 0,
                         summary={"renewable_kg": data["renewable_kg"] * 1.0001})
        assert any("renewable_kg" in e for e in errors)


class TestFigures:
    def test_nearest_rank_leaves_a_quarter_above(self):
        values = list(range(1, 41))
        assert nearest_rank(values, 0.75) == 30
        assert sum(v > 30 for v in values) == 10

    def test_nested_spans_of_one_layer_count_once(self):
        tracer = trace.Tracer()
        op = tracer.begin_op()
        outer = tracer.open("costs.battery_capital_cost")
        inner = tracer.open("costs.configure_pack")
        tracer.close(inner)
        tracer.close(outer)
        solve = tracer.open("dispatch.solve_dispatch")
        solve.attrs["digest"] = "x"
        tracer.close(solve)
        tracer.end_op(op)
        figures = trace.layer_figures(tracer, [op.duration], None)
        assert figures["costs.s"] == pytest.approx(outer.duration)
        assert figures["dispatch.solve_calls"] == 1
        assert figures["dispatch.distinct_ratio"] == 1.0
