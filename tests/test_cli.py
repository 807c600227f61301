"""End-to-end CLI coverage via click's test runner."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from mgplan import (
    HourlyProfile,
    UNIT_CAPACITY_FACTOR,
    load_sweep_spec,
    representative_profile,
    save_profile,
)
from mgplan.cli import EXIT_IO, EXIT_VALIDATION, main
from mgplan.siting import GridRaster, write_ascii_grid

from support import synthetic_year


@pytest.fixture()
def runner():
    return CliRunner()


def write_profiles(tmp_path, hours=48):
    load, solar, carbon = synthetic_year(hours=hours, load_mw=6.0, solar_nameplate_mw=10.0)
    save_profile(load, tmp_path / "load.csv")
    save_profile(solar, tmp_path / "solar.csv")
    save_profile(carbon, tmp_path / "carbon.csv")
    return tmp_path / "load.csv", tmp_path / "solar.csv", tmp_path / "carbon.csv"


class TestDispatchCommand:
    def test_writes_outputs(self, runner, tmp_path):
        load, solar, carbon = write_profiles(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "dispatch",
                "--profile", str(load),
                "--solar", str(solar),
                "--carbon", str(carbon),
                "--battery-mwh", "8",
                "--hours", "48",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "proven-optimal"
        assert (out / "trajectories.csv").read_text().count("\n") == 49

    def test_validation_exit_code(self, runner, tmp_path):
        load, solar, carbon = write_profiles(tmp_path, hours=24)
        result = runner.invoke(
            main,
            [
                "dispatch",
                "--profile", str(load),
                "--solar", str(solar),
                "--carbon", str(carbon),
                "--hours", "48",
                "--out", str(tmp_path / "out"),
            ],
        )
        assert result.exit_code == EXIT_VALIDATION

    def test_missing_file_exit_code(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "dispatch",
                "--profile", str(tmp_path / "nope.csv"),
                "--solar", str(tmp_path / "nope.csv"),
                "--carbon", str(tmp_path / "nope.csv"),
                "--out", str(tmp_path / "out"),
            ],
        )
        assert result.exit_code == EXIT_IO


class TestCostsCommand:
    def test_pack_json(self, runner):
        result = runner.invoke(
            main, ["costs", "--battery-mwh", "100", "--chemistry", "LFP"]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["pack_spec"]["cells_parallel"] == 4167
        assert payload["pack_spec"]["cells_per_module"] == 50004
        assert payload["battery_cost_usd"]["total"] == pytest.approx(
            42_847_705.44, rel=1e-6
        )

    def test_solar_option(self, runner):
        result = runner.invoke(
            main,
            ["costs", "--battery-mwh", "10", "--solar-mw", "5", "--cost-per-wdc", "1.2"],
        )
        payload = json.loads(result.output)
        assert payload["solar_occ_usd"] == pytest.approx(6e6)


class TestGapCommand:
    def test_report(self, runner, tmp_path):
        (tmp_path / "peaks.json").write_text(json.dumps({"port": 32.5, "hub": 10.0}))
        (tmp_path / "limits.json").write_text(json.dumps({"port": 21.25, "hub": 20.0}))
        out = tmp_path / "gap.json"
        result = runner.invoke(
            main,
            [
                "gap",
                "--peaks", str(tmp_path / "peaks.json"),
                "--limits", str(tmp_path / "limits.json"),
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        by_loc = {e["location"]: e for e in payload["entries"]}
        assert by_loc["port"]["excess_mw"] == pytest.approx(11.25)
        assert by_loc["port"]["violated"] is True
        assert by_loc["hub"]["violated"] is False


class TestSiteCommand:
    def test_pipeline(self, runner, tmp_path):
        rng = np.random.default_rng(0)
        slope = GridRaster((rng.random((128, 128)) * 10).astype(float), 90.0, unit="%")
        wet = GridRaster((rng.random((128, 128)) < 0.05).astype(float), 90.0)
        write_ascii_grid(slope, tmp_path / "slope.asc")
        write_ascii_grid(wet, tmp_path / "wetlands.asc")
        config = {
            "block_cells": 64,
            "layers": [
                {"path": "slope.asc", "name": "slope", "mode": "threshold-above",
                 "threshold": 5.0, "unit": "%"},
                {"path": "wetlands.asc", "name": "wetlands", "mode": "binary",
                 "buffer_m": 90.0},
            ],
        }
        (tmp_path / "rules.json").write_text(json.dumps(config))
        out = tmp_path / "catalog.json"
        result = runner.invoke(
            main, ["site", "--config", str(tmp_path / "rules.json"), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert len(payload["parcels"]) >= 1
        nameplates = [p["nameplate_mw"] for p in payload["parcels"]]
        assert nameplates == sorted(nameplates)

    @pytest.mark.parametrize(
        "layer,extra,match",
        [
            ({"path": "slope.asc", "name": "slope"}, {}, "layer 'slope' has no 'mode'"),
            ({"path": "slope.asc", "mode": "binary"}, {"block_cells": 64.7},
             "'block_cells' must be a positive integer"),
        ],
        ids=["no-mode", "fractional-block-cells"],
    )
    def test_bad_config_exit_code(self, runner, tmp_path, layer, extra, match):
        (tmp_path / "rules.json").write_text(json.dumps({"layers": [layer], **extra}))
        result = runner.invoke(
            main,
            ["site", "--config", str(tmp_path / "rules.json"), "--out", str(tmp_path / "c.json")],
        )
        assert result.exit_code == EXIT_VALIDATION
        assert match in result.output
        assert not (tmp_path / "c.json").exists()

    def test_catalog_feeds_sweep(self, runner, tmp_path):
        hours = 48
        rng = np.random.default_rng(1)
        blocked = GridRaster((rng.random((16, 16)) < 0.3).astype(float), 90.0)
        write_ascii_grid(blocked, tmp_path / "blocked.asc")
        members = [
            HourlyProfile(0.5 * rng.random(hours), UNIT_CAPACITY_FACTOR, f"member-{k}")
            for k in range(3)
        ]
        for k, member in enumerate(members):
            save_profile(member, tmp_path / f"cf{k}.csv")
        config = {
            "block_cells": 8,
            "profile_hours": hours,
            "capacity_factor_profiles": [f"cf{k}.csv" for k in range(3)],
            "layers": [{"path": "blocked.asc", "name": "blocked", "mode": "binary"}],
        }
        (tmp_path / "rules.json").write_text(json.dumps(config))
        result = runner.invoke(
            main,
            ["site", "--config", str(tmp_path / "rules.json"),
             "--out", str(tmp_path / "catalog.json")],
        )
        assert result.exit_code == 0, result.output
        catalog = json.loads((tmp_path / "catalog.json").read_text())
        assert len(catalog["profiles"]) == 1
        assert [p["profile"] for p in catalog["parcels"]] == [0] * 4

        write_profiles(tmp_path, hours=hours)
        spec = {
            "load": "load.csv",
            "carbon": "carbon.csv",
            "hours": hours,
            "catalog": "catalog.json",
            "site_indices": [1, 4],
            "battery_sizes_mwh": [0.0, 8.0],
            "output_dir": "out",
        }
        (tmp_path / "sweep.json").write_text(json.dumps(spec))
        sites = load_sweep_spec(tmp_path / "sweep.json").sites
        assert [site.site_index for site in sites] == [1, 4]
        assert sites[0].profile is sites[1].profile
        np.testing.assert_array_equal(
            sites[0].profile.values, representative_profile(members).values
        )

        result = runner.invoke(main, ["sweep", "--spec", str(tmp_path / "sweep.json")])
        assert result.exit_code == 0, result.output
        rows = json.loads((tmp_path / "out" / "results.json").read_text())
        nameplates = {p["site_index"]: p["nameplate_mw"] for p in catalog["parcels"]}
        assert sorted({r["site_index"] for r in rows}) == [1, 4]
        assert len(rows) == 2 * 2  # sites x battery sizes
        for row in rows:
            assert row["nameplate_mw"] == pytest.approx(nameplates[row["site_index"]])


    def test_sweep_on_catalog_with_missing_field_exit_code(self, runner, tmp_path):
        write_profiles(tmp_path, hours=24)
        catalog = {
            "block_cells": 8,
            "cell_size_m": 90.0,
            "power_density_mw_per_km2": 36.0,
            "profiles": [{"unit": "cf", "label": "", "values": [0.5] * 24}],
            "parcels": [{"site_index": 1, "block_row": 0, "block_col": 0,
                         "viable_area_km2": 0.1, "nameplate_mw": 3.6}],
        }
        (tmp_path / "catalog.json").write_text(json.dumps(catalog))
        spec = {"load": "load.csv", "carbon": "carbon.csv", "hours": 24,
                "catalog": "catalog.json", "output_dir": "out"}
        (tmp_path / "sweep.json").write_text(json.dumps(spec))
        result = runner.invoke(main, ["sweep", "--spec", str(tmp_path / "sweep.json")])
        assert result.exit_code == EXIT_VALIDATION
        assert "site 1 has no 'profile'" in result.output
        assert not (tmp_path / "out").exists()


class TestSweepAndReportCommands:
    def test_sweep_then_report(self, runner, tmp_path):
        load, solar, carbon = write_profiles(tmp_path)
        spec = {
            "load": "load.csv",
            "carbon": "carbon.csv",
            "hours": 48,
            "sites": [{"profile": "solar.csv", "nameplate_mw": 10.0}],
            "battery_sizes_mwh": [0.0, 8.0],
            "output_dir": "out",
        }
        (tmp_path / "sweep.json").write_text(json.dumps(spec))
        result = runner.invoke(main, ["sweep", "--spec", str(tmp_path / "sweep.json")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "results.csv").exists()

        report_out = tmp_path / "replot"
        result = runner.invoke(
            main,
            [
                "report",
                "--results", str(tmp_path / "out" / "results.json"),
                "--out", str(report_out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert (report_out / "plot_tec_vs_site.csv").exists()
        assert (report_out / "results.csv").read_bytes() == (
            tmp_path / "out" / "results.csv"
        ).read_bytes()
