"""Sweep orchestration, determinism, capacity gap, and exports."""

import json

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
    build_instance,
    capacity_gap,
    export_results,
    solve_dispatch,
)
from mgplan.costs import lcopr, solar_capital_cost, total_electricity_cost
from mgplan.scenario import (
    ScenarioResult,
    SweepSite,
    SweepSpec,
    load_sweep_spec,
    run_cell,
    run_group,
    run_sweep,
)
from mgplan.scenario import sweep as sweep_mod
from mgplan.scenario.sweep import CellKey

from support import synthetic_year


def small_spec(tmp_path=None, **overrides):
    hours = 48
    load, solar, carbon = synthetic_year(hours=hours, load_mw=8.0, solar_nameplate_mw=1.0)
    site = SweepSite(
        site_index=1, label="site-1", nameplate_mw=20.0,
        profile=HourlyProfile(solar.values, UNIT_MW, "unit solar"),
    )
    defaults = dict(
        load=load,
        carbon=carbon,
        sites=(site,),
        nameplate_scales=(1.0,),
        battery_sizes_mwh=(0.0, 20.0),
        chemistries=("LFP",),
        shift_hours=(0,),
        cost_per_wdc=1.0,
        output_dir=tmp_path,
        solver=SolveOptions(time_limit_s=60.0),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestRunSweep:
    def test_single_cell_matches_direct_chain(self):
        spec = small_spec(battery_sizes_mwh=(0.0,))
        [row] = run_sweep(spec)
        site = spec.sites[0]
        instance = build_instance(
            spec.load, site.solar_at(1.0)[0], spec.carbon, BatterySpec(0.0)
        )
        direct = solve_dispatch(instance)
        assert row.reduction_pct == pytest.approx(direct.reduction_pct, abs=1e-9)
        occ_pv = solar_capital_cost(20.0, 1.0)
        assert row.occ_pv_usd == pytest.approx(occ_pv)
        assert row.lcopr_usd_per_mwh == pytest.approx(
            lcopr(occ_pv, site.solar_at(1.0)[0])
        )
        expected_tec = total_electricity_cost(
            direct.util_solar,
            direct.util_batt,
            direct.util_grid,
            row.lcopr_usd_per_mwh,
            0.0,
            0.0,
            spec.gep_usd_per_mwh,
        )
        assert row.tec_usd_per_mwh == pytest.approx(expected_tec)

    def test_cross_product_cardinality(self):
        spec = small_spec(
            battery_sizes_mwh=(0.0, 10.0, 20.0), chemistries=("LFP", "NMC811")
        )
        results = run_sweep(spec)
        assert len(results) == spec.n_cells() == 6

    def test_results_sorted_by_axis(self):
        spec = small_spec(
            battery_sizes_mwh=(20.0, 0.0), chemistries=("NMC811", "LFP")
        )
        results = run_sweep(spec)
        keys = [r.key for r in results]
        assert keys == sorted(keys)

    def test_reduction_monotone_in_battery_axis(self):
        spec = small_spec(battery_sizes_mwh=(0.0, 8.0, 24.0))
        results = run_sweep(spec)
        values = [r.reduction_pct for r in results]
        assert all(b >= a - 1e-7 for a, b in zip(values, values[1:]))

    def test_no_battery_rows_have_no_storage_costs(self):
        spec = small_spec(battery_sizes_mwh=(0.0,))
        [row] = run_sweep(spec)
        assert row.occ_batt_usd == 0.0
        assert row.lcos_usd_per_mwh is None
        assert row.cycles_per_year is None
        assert row.utility_years_op == 30.0

    def test_parallel_equals_serial(self):
        axes = dict(battery_sizes_mwh=(0.0, 10.0), chemistries=("LFP", "NMC811"))
        spec_serial = small_spec(workers=1, **axes)
        spec_parallel = small_spec(workers=2, **axes)
        a = [r.to_dict() for r in run_sweep(spec_serial)]
        b = [r.to_dict() for r in run_sweep(spec_parallel)]
        assert len(a) == len(b) == 4
        for left, right in zip(a, b):
            left.pop("wall_time_s")
            right.pop("wall_time_s")
            assert left == right

    def test_resume_skips_done_cells(self, tmp_path):
        spec = small_spec(tmp_path=tmp_path, battery_sizes_mwh=(0.0, 10.0))
        first = run_sweep(spec)
        progress = tmp_path / "cells.jsonl"
        assert progress.exists()
        lines_before = progress.read_text().count("\n")
        second = run_sweep(spec, resume=True)
        assert progress.read_text().count("\n") == lines_before
        for left, right in zip(first, second):
            assert left.to_dict() == right.to_dict()  # wall time reused too

    def test_shift_axis_applies_to_load_and_carbon(self):
        spec = small_spec(battery_sizes_mwh=(0.0,), shift_hours=(0, 6))
        rows = run_sweep(spec)
        assert rows[0].annual_load_mwh == pytest.approx(rows[1].annual_load_mwh)
        assert rows[0].baseline_kg == pytest.approx(rows[1].baseline_kg)
        assert rows[0].reduction_pct != pytest.approx(rows[1].reduction_pct)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            small_spec(battery_sizes_mwh=())

    def test_repeated_site_index_rejected(self):
        site = small_spec().sites[0]
        other = SweepSite(site.site_index, "site-1b", 10.0, site.profile)
        with pytest.raises(ValidationError, match=r"'sites' repeats \[1\]"):
            small_spec(sites=(site, other))

    def test_profile_horizon_mismatch_rejected(self):
        site = small_spec().sites[0]
        short = SweepSite(2, "short", 10.0, HourlyProfile(site.profile.values[:24], UNIT_MW))
        with pytest.raises(ValidationError, match="site 2 profile has 24 hours, the load 48"):
            small_spec(sites=(site, short))

    @pytest.mark.parametrize(
        "axis, values",
        [
            ("nameplate_scales", (1.0, 0.5, 1.0)),
            ("battery_sizes_mwh", (0.0, 20.0, 20.0)),
            ("chemistries", ("LFP", "LFP")),
            ("shift_hours", (0, 3, 0)),
        ],
    )
    def test_repeated_axis_value_rejected(self, axis, values):
        with pytest.raises(ValidationError, match=f"'{axis}' repeats"):
            small_spec(**{axis: values})


DISPATCH_FIELDS = (
    "reduction_pct", "baseline_kg", "renewable_kg", "util_grid", "util_solar",
    "util_batt", "chg_grid", "chg_solar", "cycles_per_year", "status", "gap",
)


def count_solves(monkeypatch):
    """Record every instance the sweep hands to ``solve_dispatch``."""
    solved = []

    def counting(instance, options=None):
        solved.append(instance)
        return solve_dispatch(instance, options)

    monkeypatch.setattr(sweep_mod, "solve_dispatch", counting)
    return solved


def without_wall_time(rows):
    return [{k: v for k, v in r.to_dict().items() if k != "wall_time_s"} for r in rows]


class TestDispatchGroups:
    CHEMS = ("LFP", "NMC811", "NCA")

    def test_one_solve_per_dispatch_group(self, monkeypatch):
        solved = count_solves(monkeypatch)
        rows = run_sweep(small_spec(chemistries=self.CHEMS))
        assert len(rows) == 6
        assert len(solved) == 2
        assert all(r.wall_time_s > 0 for r in rows)

    def test_dispatch_fields_shared_across_chemistries(self):
        rows = run_sweep(small_spec(chemistries=self.CHEMS))
        single = small_spec(chemistries=("LFP",))
        for battery in single.battery_sizes_mwh:
            alone = run_cell(single, CellKey(1, 1.0, battery, "LFP", 0))
            group = [r for r in rows if r.battery_mwh == battery]
            assert {r.chemistry for r in group} == set(self.CHEMS)
            for row in group:
                for name in DISPATCH_FIELDS:
                    assert getattr(row, name) == getattr(alone, name), name

    def test_costs_still_differ_by_chemistry(self):
        rows = run_sweep(small_spec(battery_sizes_mwh=(20.0,), chemistries=self.CHEMS))
        assert len({r.occ_batt_usd for r in rows}) == 3

    def test_run_group_rejects_mixed_dispatch_axes(self):
        spec = small_spec()
        keys = [CellKey(1, 1.0, 0.0, "LFP", 0), CellKey(1, 1.0, 20.0, "LFP", 0)]
        with pytest.raises(ValidationError, match="only in chemistry"):
            run_group(spec, keys)

    def test_failed_solve_marks_every_row_of_its_group(self, monkeypatch):
        def failing(instance, options=None):
            raise SolverFailure("no optimum")

        monkeypatch.setattr(sweep_mod, "solve_dispatch", failing)
        rows = run_sweep(small_spec(battery_sizes_mwh=(20.0,), chemistries=self.CHEMS))
        assert len(rows) == 3
        for row in rows:
            assert row.status == "failed: no optimum"
            assert row.reduction_pct is None and row.tec_usd_per_mwh is None
            assert row.wall_time_s > 0


class TestResume:
    def spec(self, tmp_path):
        return small_spec(tmp_path=tmp_path, chemistries=("LFP", "NMC811"))

    def test_missing_chemistry_solves_only_its_group(self, tmp_path, monkeypatch):
        spec = self.spec(tmp_path)
        first = run_sweep(spec)
        progress = tmp_path / "cells.jsonl"
        lines = progress.read_text().splitlines()
        keys = [ScenarioResult.from_dict(json.loads(line)).key for line in lines]
        gone = keys.index(CellKey(1, 1.0, 20.0, "NMC811", 0))
        kept = lines[:gone] + lines[gone + 1:]
        progress.write_text("".join(line + "\n" for line in kept))
        solved = count_solves(monkeypatch)
        second = run_sweep(spec, resume=True)
        after = progress.read_text().splitlines()
        assert after[:-1] == kept
        assert json.loads(after[-1])["chemistry"] == "NMC811"
        assert len(solved) == 1
        assert without_wall_time(second) == without_wall_time(first)

    def test_truncated_last_line_is_solved_again(self, tmp_path, monkeypatch):
        spec = self.spec(tmp_path)
        first = run_sweep(spec)
        progress = tmp_path / "cells.jsonl"
        text = progress.read_text()
        progress.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2])
        solved = count_solves(monkeypatch)
        second = run_sweep(spec, resume=True)
        lines = progress.read_text().splitlines()
        assert len(lines) == 4
        assert {ScenarioResult.from_dict(json.loads(line)).key for line in lines} == {
            r.key for r in first
        }
        assert len(solved) == 1
        assert without_wall_time(second) == without_wall_time(first)

    def test_corrupt_earlier_line_raises(self, tmp_path):
        spec = self.spec(tmp_path)
        run_sweep(spec)
        progress = tmp_path / "cells.jsonl"
        lines = progress.read_text().splitlines()
        lines[1] = lines[1][:20]
        progress.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValidationError, match="line 2"):
            run_sweep(spec, resume=True)


class TestRunCell:
    def test_capacity_factor_site(self):
        hours = 48
        load, _, carbon = synthetic_year(hours=hours, load_mw=5.0)
        cf_values = np.clip(
            np.maximum(0.0, np.sin(np.pi * (np.arange(hours) % 24 - 6) / 14.0)), 0, 1
        )
        site = SweepSite(
            site_index=1,
            label="cf-site",
            nameplate_mw=12.0,
            profile=HourlyProfile(cf_values, "cf", "cf"),
        )
        spec = small_spec(sites=(site,), battery_sizes_mwh=(0.0,), nameplate_scales=(0.5,))
        row = run_cell(spec, CellKey(1, 0.5, 0.0, "LFP", 0))
        assert row.nameplate_mw == pytest.approx(6.0)


class TestCapacityGap:
    def test_headroom(self):
        report = capacity_gap({"a": 10.0}, {"a": 20.0})
        entry = report.entries[0]
        assert entry.excess_mw == 0.0
        assert not entry.violated

    def test_boundary(self):
        entry = capacity_gap({"a": 20.0}, {"a": 20.0}).entries[0]
        assert entry.excess_mw == 0.0
        assert not entry.violated

    def test_violation(self):
        entry = capacity_gap({"a": 32.5}, {"a": 21.25}).entries[0]
        assert entry.excess_mw == pytest.approx(11.25)
        assert entry.violated

    def test_missing_limit(self):
        with pytest.raises(ValidationError, match="missing capacity limit"):
            capacity_gap({"a": 1.0, "b": 2.0}, {"a": 5.0})

    def test_json_round_trip(self, tmp_path):
        report = capacity_gap({"x": 3.0}, {"x": 1.0})
        path = tmp_path / "gap.json"
        report.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["entries"][0]["excess_mw"] == 2.0


class TestExport:
    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="no results"):
            export_results([], tmp_path)

    def test_row_count_and_files(self, tmp_path):
        spec = small_spec(
            battery_sizes_mwh=(0.0, 10.0, 20.0), chemistries=("LFP", "NMC811")
        )
        results = run_sweep(spec)
        written = export_results(results, tmp_path)
        csv_text = (tmp_path / "results.csv").read_text()
        assert csv_text.count("\n") == 1 + 6
        names = {p.name for p in written}
        assert "results.json" in names
        assert "plot_reduction_vs_site.csv" in names
        assert any(name.startswith("plot_grid_reduction_pct") for name in names)

    def test_rerun_byte_identical_modulo_wall_time(self, tmp_path):
        spec = small_spec(battery_sizes_mwh=(0.0, 10.0))

        def strip_wall(text: str) -> str:
            lines = text.strip().splitlines()
            idx = lines[0].split(",").index("wall_time_s")
            return "\n".join(
                ",".join(col for i, col in enumerate(line.split(",")) if i != idx)
                for line in lines
            )

        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        export_results(run_sweep(spec), out_a)
        export_results(run_sweep(spec), out_b)
        text_a = (out_a / "results.csv").read_text()
        text_b = (out_b / "results.csv").read_text()
        assert strip_wall(text_a) == strip_wall(text_b)
        for name in ("plot_reduction_vs_site.csv", "plot_tec_vs_site.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_round_trip_through_json(self, tmp_path):
        spec = small_spec(battery_sizes_mwh=(0.0,))
        results = run_sweep(spec)
        export_results(results, tmp_path)
        payload = json.loads((tmp_path / "results.json").read_text())
        back = [ScenarioResult.from_dict(entry) for entry in payload]
        assert [r.to_dict() for r in back] == [r.to_dict() for r in results]


def write_spec(tmp_path, **overrides):
    """Write a 24-hour sweep spec and its profiles; return the spec path."""
    hours = 24
    load, solar, carbon = synthetic_year(hours=hours, load_mw=4.0, solar_nameplate_mw=1.0)
    from mgplan import save_profile

    save_profile(load, tmp_path / "load.csv")
    save_profile(solar, tmp_path / "solar.csv")
    save_profile(carbon, tmp_path / "carbon.csv")
    spec_payload = {
        "load": "load.csv",
        "carbon": "carbon.csv",
        "hours": hours,
        "sites": [{"profile": "solar.csv", "nameplate_mw": 5.0, "label": "s1"}],
        "battery_sizes_mwh": [0.0, 4.0],
        "chemistries": ["LFP"],
        "output_dir": "out",
        "solver": {"time_limit_s": 30.0},
        **overrides,
    }
    (tmp_path / "sweep.json").write_text(json.dumps(spec_payload))
    return tmp_path / "sweep.json"


class TestSweepSpecFile:
    def test_load_from_json(self, tmp_path):
        spec = load_sweep_spec(write_spec(tmp_path))
        assert spec.n_cells() == 2
        results = run_sweep(spec)
        assert len(results) == 2
        assert (tmp_path / "out" / "cells.jsonl").exists()

    @pytest.mark.parametrize("key", ["integrality_tol", "time_limit"])
    def test_unknown_solver_key_rejected(self, tmp_path, key):
        path = write_spec(tmp_path, solver={"time_limit_s": 30.0, key: 1.0})
        with pytest.raises(ValidationError, match=f"unknown solver option.*'{key}'"):
            load_sweep_spec(path)

    def test_default_site_index_collision_rejected(self, tmp_path):
        """The second entry's default index (position + 1 = 2) collides with
        the first entry's explicit index 2; neither site may be dropped."""
        sites = [
            {"profile": "solar.csv", "nameplate_mw": 5.0, "site_index": 2},
            {"profile": "solar.csv", "nameplate_mw": 8.0},
        ]
        with pytest.raises(ValidationError, match=r"'sites' repeats \[2\]"):
            load_sweep_spec(write_spec(tmp_path, sites=sites))

    @pytest.mark.parametrize(
        "axis, values, message",
        [
            ("shift_hours", [0, 24], "shift magnitude 24"),
            ("shift_hours", [-24], "shift magnitude 24"),
            ("nameplate_scales", [1.0, -0.5], "negative nameplate scale"),
            ("battery_sizes_mwh", [0.0, -5.0], "negative battery size"),
        ],
    )
    def test_axis_ranges_rejected_before_any_solve(
        self, tmp_path, monkeypatch, axis, values, message
    ):
        solved = count_solves(monkeypatch)
        with pytest.raises(ValidationError, match=message):
            load_sweep_spec(write_spec(tmp_path, **{axis: values}))
        assert solved == []

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda p: {**p, "shift_hours": [1.5]}, "shift must be an integer, got 1.5"),
            (lambda p: {**p, "shift_hours": [0, True]}, "shift must be an integer, got True"),
            (lambda p: {**p, "hours": 24.9}, "'hours' must be a positive integer, got 24.9"),
            (lambda p: {**p, "hours": 0}, "'hours' must be a positive integer, got 0"),
            (lambda p: {**p, "shift_carbon": "false"}, "'shift_carbon' must be true or false"),
            (lambda p: {k: v for k, v in p.items() if k != "load"}, "has no 'load'"),
            (lambda p: {k: v for k, v in p.items() if k != "carbon"}, "has no 'carbon'"),
            (
                lambda p: {**p, "sites": [{"profile": "solar.csv"}]},
                "site entry 1 has no 'nameplate_mw'",
            ),
            (lambda p: {**p, "sites": [{"nameplate_mw": 5.0}]}, "site entry 1 has no 'profile'"),
            (None, "sweep.json: invalid JSON"),
        ],
        ids=[
            "fractional-shift", "bool-shift", "fractional-hours", "zero-hours",
            "string-shift-carbon", "no-load", "no-carbon", "site-without-nameplate",
            "site-without-profile", "invalid-json",
        ],
    )
    def test_bad_input_rejected(self, tmp_path, edit, match):
        path = write_spec(tmp_path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps(payload)[:-1] if edit is None else json.dumps(edit(payload)))
        with pytest.raises(ValidationError, match=match):
            load_sweep_spec(path)

    @pytest.mark.parametrize(
        "index, match", [(7, "catalog.json has no site 7"), (1.5, "site index must be")]
    )
    def test_bad_catalog_site_index_rejected(self, tmp_path, index, match):
        catalog = {
            "block_cells": 8,
            "cell_size_m": 90.0,
            "power_density_mw_per_km2": 36.0,
            "profiles": [{"unit": "cf", "label": "", "values": [0.5] * 24}],
            "parcels": [{"site_index": 1, "block_row": 0, "block_col": 0,
                         "viable_area_km2": 0.1, "nameplate_mw": 3.6, "profile": 0}],
        }
        (tmp_path / "catalog.json").write_text(json.dumps(catalog))
        path = write_spec(tmp_path, sites=[], catalog="catalog.json", site_indices=[index])
        with pytest.raises(ValidationError, match=match):
            load_sweep_spec(path)
