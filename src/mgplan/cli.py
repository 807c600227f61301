"""Command-line interface.

Exit codes: 0 success, 1 validation error, 2 solver failure, 3 I/O error.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from . import costs as costs_mod
from .dispatch import BatterySpec, SolveOptions, build_instance, solve_dispatch
from .errors import SolverFailure, ValidationError
from .profiles import (
    UNIT_KG_PER_HOUR,
    UNIT_MW,
    load_profile,
    shift_profile,
)
from .scenario import (
    capacity_gap,
    export_results,
    load_sweep_spec,
    run_sweep,
)
from .scenario.sweep import ScenarioResult
from .siting import catalog_to_json, load_siting_config, run_siting

EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_IO = 3


def _exit_codes(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except ValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except SolverFailure as exc:
            click.echo(f"solver failure: {exc}", err=True)
            sys.exit(EXIT_SOLVER)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_IO)

    return wrapper


@click.group()
def main() -> None:
    """Microgrid deployment planning: siting, dispatch, costs, sweeps."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Rules config JSON.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Catalog JSON to write.")
@_exit_codes
def site(config_path: str, out_path: str) -> None:
    """Run the raster siting pipeline and write the site catalog."""
    config = load_siting_config(config_path)
    catalog = run_siting(config)
    catalog_to_json(catalog, out_path)
    click.echo(f"wrote {len(catalog)} parcels to {out_path}")


@main.command()
@click.option("--profile", "load_path", required=True, type=click.Path(), help="Excess load CSV (MW).")
@click.option("--solar", "solar_path", required=True, type=click.Path(), help="Available solar CSV (MW).")
@click.option("--carbon", "carbon_path", required=True, type=click.Path(), help="Hourly emissions CSV (kg/h).")
@click.option("--battery-mwh", default=0.0, show_default=True, help="Battery size (0 = none).")
@click.option("--duration-h", default=4.0, show_default=True, help="Battery duration in hours.")
@click.option("--shift-hours", default=0, show_default=True, help="Circular demand shift (carbon shifts too).")
@click.option("--hours", default=8760, show_default=True, help="Expected profile horizon.")
@click.option("--time-limit", default=300.0, show_default=True, help="Solver time limit (s).")
@click.option("--gap-tol", default=1e-4, show_default=True, help="Relative optimality gap.")
@click.option("--backend", default="auto", show_default=True, type=click.Choice(["auto", "milp"]))
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Output directory.")
@_exit_codes
def dispatch(
    load_path: str,
    solar_path: str,
    carbon_path: str,
    battery_mwh: float,
    duration_h: float,
    shift_hours: int,
    hours: int,
    time_limit: float,
    gap_tol: float,
    backend: str,
    out_dir: str,
) -> None:
    """Solve a single dispatch instance; write trajectories and summary."""
    load = load_profile(load_path, UNIT_MW, hours=hours)
    solar = load_profile(solar_path, UNIT_MW, hours=hours)
    carbon = load_profile(carbon_path, UNIT_KG_PER_HOUR, hours=hours)
    if shift_hours:
        load = shift_profile(load, shift_hours)
        carbon = shift_profile(carbon, shift_hours)
    instance = build_instance(load, solar, carbon, BatterySpec(battery_mwh, duration_h))
    options = SolveOptions(gap_tol=gap_tol, time_limit_s=time_limit, backend=backend)
    result = solve_dispatch(instance, options)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result.to_csv(out / "trajectories.csv")
    result.summary_json(out / "summary.json")
    click.echo(
        f"reduction {result.reduction_pct:.3f}% status {result.status} "
        f"-> {out / 'summary.json'}"
    )


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(), help="Sweep spec JSON.")
@click.option("--out", "out_dir", default=None, type=click.Path(), help="Output directory (overrides spec).")
@click.option("--workers", default=None, type=int, help="Worker processes (overrides spec).")
@click.option("--gep", default=None, type=float, help="Grid electricity price $/MWh (overrides spec).")
@click.option("--resume", is_flag=True, help="Skip cells already checkpointed and complete partly finished dispatch groups.")
@_exit_codes
def sweep(
    spec_path: str,
    out_dir: str | None,
    workers: int | None,
    gep: float | None,
    resume: bool,
) -> None:
    """Run a scenario sweep and export results plus plot data."""
    from dataclasses import replace

    spec = load_sweep_spec(spec_path)
    if out_dir is not None:
        spec = replace(spec, output_dir=Path(out_dir))
    if workers is not None:
        spec = replace(spec, workers=workers)
    if gep is not None:
        spec = replace(spec, gep_usd_per_mwh=gep)
    if spec.output_dir is None:
        raise ValidationError("no output directory (set output_dir in the spec or pass --out)")
    click.echo(f"sweep: {spec.n_cells()} cells")
    results = run_sweep(spec, resume=resume)
    written = export_results(results, spec.output_dir)
    click.echo(f"wrote {len(written)} files under {spec.output_dir}")


@main.command()
@click.option("--battery-mwh", required=True, type=float, help="Battery size (MWh).")
@click.option("--chemistry", default="LFP", show_default=True, help="NMC811, NCA, or LFP.")
@click.option("--duration-h", default=4.0, show_default=True)
@click.option("--solar-mw", default=None, type=float, help="Also cost a solar farm of this nameplate.")
@click.option("--cost-per-wdc", default=None, type=float, help="Solar unit cost ($/W DC).")
@click.option("--out", "out_path", default=None, type=click.Path(), help="Write JSON here instead of stdout.")
@_exit_codes
def costs(
    battery_mwh: float,
    chemistry: str,
    duration_h: float,
    solar_mw: float | None,
    cost_per_wdc: float | None,
    out_path: str | None,
) -> None:
    """Battery pack configuration and itemized capital-cost stack."""
    chem = costs_mod.get_chemistry(chemistry)
    pack = costs_mod.configure_pack(battery_mwh, chem, duration_h)
    breakdown = costs_mod.battery_capital_cost(pack, chem)
    payload = {
        "pack_spec": {
            "e_rated_mwh": pack.e_rated_mwh,
            "chemistry": pack.chemistry,
            "cells_parallel": pack.cells_parallel,
            "series_per_module": pack.series_per_module,
            "cells_per_module": pack.cells_per_module,
            "rated_power_mw": pack.rated_power_mw,
        },
        "battery_cost_usd": breakdown.line_items() | {"total": breakdown.total_usd},
        "lcos_usd_per_mwh": costs_mod.lcos(
            breakdown.total_usd, chem.cycles_eol, battery_mwh
        ),
    }
    if solar_mw is not None:
        occ_pv = costs_mod.solar_capital_cost(solar_mw, cost_per_wdc)
        payload["solar_occ_usd"] = occ_pv
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path is not None:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    else:
        click.echo(text)


@main.command()
@click.option("--peaks", "peaks_path", required=True, type=click.Path(), help="JSON map location -> peak MW.")
@click.option("--limits", "limits_path", required=True, type=click.Path(), help="JSON map location -> limit MW.")
@click.option("--out", "out_path", default=None, type=click.Path())
@_exit_codes
def gap(peaks_path: str, limits_path: str, out_path: str | None) -> None:
    """Compare peak demand against grid capacity limits per location."""
    peaks = json.loads(Path(peaks_path).read_text(encoding="utf-8"))
    limits = json.loads(Path(limits_path).read_text(encoding="utf-8"))
    report = capacity_gap(peaks, limits)
    if out_path is not None:
        report.to_json(out_path)
        click.echo(f"{len(report.violations())} violations -> {out_path}")
    else:
        click.echo(report.to_json())


@main.command()
@click.option("--results", "results_path", required=True, type=click.Path(), help="results.json from a sweep.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@_exit_codes
def report(results_path: str, out_dir: str) -> None:
    """Re-emit plot-data files from stored sweep results."""
    payload = json.loads(Path(results_path).read_text(encoding="utf-8"))
    results = [ScenarioResult.from_dict(entry) for entry in payload]
    written = export_results(results, out_dir)
    click.echo(f"wrote {len(written)} files under {out_dir}")


if __name__ == "__main__":
    main()
