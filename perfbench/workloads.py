"""The three workloads, each driving the program's public functions the
way one ``mgplan`` command does.

A workload generates its inputs from the seed (untimed), runs the
program's loaders (timed as set-up), then repeats one operation:
``prepare`` (untimed), ``run`` (timed), ``check`` (untimed).
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import Any

from . import checks, inputs


class SitingRegion:
    """``mgplan site``: rules config to catalog JSON on disk."""

    name = "siting_region"

    def __init__(self, mg, work: Path, seed: int, trace: bool) -> None:
        self.mg = mg
        self.work = work
        self.inputs = inputs.make_siting_inputs(work / "region", seed)
        self.expected: checks.SitingExpected | None = None
        self.last: tuple[Path, Any] | None = None

    def load(self) -> None:
        self.config = self.mg.siting.load_siting_config(self.inputs.config_path)

    def prepare(self, index: int) -> Path:
        return self.work / "catalog.json"

    def run(self, out: Path):
        catalog = self.mg.siting.run_siting(self.config)
        self.mg.siting.catalog_to_json(catalog, out)
        return catalog

    def check(self, out: Path, catalog) -> list[str]:
        if self.expected is None:
            self.expected = checks.expected_siting(self.inputs)
        self.last = (out, catalog)
        return checks.check_catalog(catalog.parcels, self.expected, self.inputs.members)

    def finish(self) -> list[str]:
        """Read the last catalog back with the program's reader; run after
        peak memory is taken, since the read-back is not part of the
        operation."""
        out, catalog = self.last
        read_back = self.mg.siting.catalog_from_json(out)
        return checks.check_catalog_readback(catalog, read_back) + checks.check_catalog(
            read_back.parcels, self.expected, self.inputs.members
        )

    def busy(self, latencies: list[float]) -> tuple[float, float] | None:
        return None


class SweepYear:
    """``mgplan sweep``: run_sweep with its checkpoint file, then export."""

    name = "sweep_year"

    def __init__(self, mg, work: Path, seed: int, trace: bool) -> None:
        self.mg = mg
        # Spans inside pool workers are not visible, so the traced run
        # sweeps on one worker.
        self.workers = 1 if trace else len(os.sched_getaffinity(0))
        self.inputs = inputs.make_sweep_inputs(work / "sweep", seed, self.workers)
        self.cell_time = 0.0

    def load(self) -> None:
        self.spec = self.mg.scenario.load_sweep_spec(self.inputs.spec_path)

    def prepare(self, index: int) -> Path:
        shutil.rmtree(self.inputs.output_dir, ignore_errors=True)
        return self.inputs.output_dir

    def run(self, out: Path):
        results = self.mg.scenario.run_sweep(self.spec)
        self.mg.scenario.export_results(results, out)
        return results

    def check(self, out: Path, results) -> list[str]:
        self.cell_time += sum(r.wall_time_s for r in results)
        return checks.check_sweep(out, self.inputs)

    def finish(self) -> list[str]:
        return []

    def busy(self, latencies: list[float]) -> tuple[float, float] | None:
        return self.cell_time, self.workers * sum(latencies)


class DispatchBatch:
    """``mgplan dispatch`` in a closed loop of one client: each operation
    loads three profiles, builds and solves one distinct instance, and
    writes its trajectory CSV and summary."""

    name = "dispatch_batch"

    def __init__(self, mg, work: Path, seed: int, trace: bool) -> None:
        self.mg = mg
        self.work = work / "dispatch"
        self.seed = seed

    def load(self) -> None:
        pass

    def prepare(self, index: int) -> inputs.DispatchCase:
        return inputs.make_dispatch_case(self.work, self.seed, index)

    def run(self, case: inputs.DispatchCase):
        mg = self.mg
        hours = inputs.HOURS
        load = mg.profiles.load_profile(case.load_path, "MW", hours=hours)
        solar = mg.profiles.load_profile(case.solar_path, "MW", hours=hours)
        carbon = mg.profiles.load_profile(case.carbon_path, "kg/h", hours=hours)
        if case.shift_hours:
            load = mg.profiles.shift_profile(load, case.shift_hours)
            carbon = mg.profiles.shift_profile(carbon, case.shift_hours)
        battery = mg.dispatch.BatterySpec(case.battery_mwh, case.duration_h)
        instance = mg.dispatch.build_instance(load, solar, carbon, battery)
        options = mg.dispatch.SolveOptions(gap_tol=1e-4, time_limit_s=300.0, backend="auto")
        result = mg.dispatch.solve_dispatch(instance, options)
        case.out_dir.mkdir(parents=True, exist_ok=True)
        result.to_csv(case.out_dir / "trajectories.csv")
        result.summary_json(case.out_dir / "summary.json")
        return result

    def check(self, case: inputs.DispatchCase, result) -> list[str]:
        errors = checks.check_dispatch(
            case, case.out_dir / "trajectories.csv", case.out_dir / "summary.json"
        )
        shutil.rmtree(case.out_dir.parent)
        return errors

    def finish(self) -> list[str]:
        return []

    def busy(self, latencies: list[float]) -> tuple[float, float] | None:
        return None


WORKLOADS = {w.name: w for w in (SitingRegion, SweepYear, DispatchBatch)}
