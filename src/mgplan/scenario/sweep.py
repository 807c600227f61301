"""Sweep orchestration: run the dispatch-to-costs chain over a grid of
sites, nameplate scalings, battery sizes, chemistries, and demand shifts.

Battery chemistry enters only the cost chain, never the dispatch LP, so
the unit of work is a dispatch group: the cells that share site,
nameplate scale, battery size and shift and differ only in chemistry.
Groups are independent tasks, each solved once; their rows are
checkpointed as each group finishes so interrupted sweeps can resume,
then gathered and sorted by axis coordinates. Output content is
deterministic for a fixed spec (wall-time fields excepted).
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Sequence

from .. import costs as costs_mod
from .. import stakeholders as stake_mod
from ..dispatch import (
    BatterySpec,
    DispatchResult,
    SolveOptions,
    build_instance,
    solve_dispatch,
)
from ..errors import SolverFailure, ValidationError, json_int, read_json, require_keys
from ..profiles import (
    UNIT_CAPACITY_FACTOR,
    UNIT_KG_PER_HOUR,
    UNIT_MW,
    HourlyProfile,
    available_capacity,
    load_profile,
    scale_profile,
    shift_profile,
)
from ..siting import catalog_from_json


@dataclass(frozen=True)
class SweepSite:
    """One solar site: a capacity-factor or MW profile plus nameplate."""

    site_index: int
    label: str
    nameplate_mw: float
    profile: HourlyProfile

    def solar_at(self, scale: float) -> tuple[HourlyProfile, float]:
        nameplate = self.nameplate_mw * scale
        if self.profile.unit == UNIT_CAPACITY_FACTOR:
            return available_capacity(self.profile, nameplate), nameplate
        return scale_profile(self.profile, scale), nameplate


@dataclass(frozen=True)
class SweepSpec:
    load: HourlyProfile
    carbon: HourlyProfile
    sites: tuple[SweepSite, ...]
    nameplate_scales: tuple[float, ...] = (1.0,)
    battery_sizes_mwh: tuple[float, ...] = (0.0,)
    chemistries: tuple[str, ...] = ("LFP",)
    shift_hours: tuple[int, ...] = (0,)
    shift_carbon: bool = True
    gep_usd_per_mwh: float = costs_mod.GRID_ELECTRICITY_PRICE
    cost_per_wdc: float = 1.0
    solar_life_years: float = costs_mod.SOLAR_LIFE_YEARS
    battery_duration_h: float = 4.0
    chemistry_params: dict[str, costs_mod.ChemistryParams] = field(
        default_factory=lambda: dict(costs_mod.CHEMISTRIES)
    )
    stack: costs_mod.CostStackParams = field(default_factory=costs_mod.CostStackParams)
    fleet_electric: stake_mod.FleetParams | None = None
    fleet_partial: stake_mod.FleetParams | None = None
    solver: SolveOptions = field(default_factory=SolveOptions)
    output_dir: Path | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        for axis_name, values in (
            ("sites", [site.site_index for site in self.sites]),
            ("nameplate_scales", self.nameplate_scales),
            ("battery_sizes_mwh", self.battery_sizes_mwh),
            ("chemistries", self.chemistries),
            ("shift_hours", self.shift_hours),
        ):
            if not values:
                raise ValidationError(f"sweep axis {axis_name!r} must be non-empty")
            repeated = sorted(v for v, n in Counter(values).items() if n > 1)
            if repeated:
                raise ValidationError(f"sweep axis {axis_name!r} repeats {repeated}")
        for scale in self.nameplate_scales:
            if not scale >= 0:
                raise ValidationError(f"negative nameplate scale: {scale}")
        for size in self.battery_sizes_mwh:
            if not size >= 0:
                raise ValidationError(f"negative battery size: {size}")
        horizon = self.load.horizon
        for shift in self.shift_hours:
            if abs(shift) >= horizon:
                raise ValidationError(
                    f"shift magnitude {abs(shift)} must be < horizon {horizon}"
                )
        for name, profile in [("carbon", self.carbon)] + [
            (f"site {site.site_index}", site.profile) for site in self.sites
        ]:
            if profile.horizon != horizon:
                raise ValidationError(
                    f"{name} profile has {profile.horizon} hours, the load {horizon}"
                )
        if self.load.total() <= 0:
            raise ValidationError("sweep load profile has no positive hours")
        for chem in self.chemistries:
            if chem not in self.chemistry_params:
                costs_mod.get_chemistry(chem)

    @cached_property
    def _sites_by_index(self) -> dict[int, SweepSite]:
        return {site.site_index: site for site in self.sites}

    def n_cells(self) -> int:
        return (
            len(self.sites)
            * len(self.nameplate_scales)
            * len(self.battery_sizes_mwh)
            * len(self.chemistries)
            * len(self.shift_hours)
        )

    def cell_keys(self) -> list["CellKey"]:
        keys = []
        for site in self.sites:
            for scale in self.nameplate_scales:
                for battery in self.battery_sizes_mwh:
                    for chem in self.chemistries:
                        for shift in self.shift_hours:
                            keys.append(
                                CellKey(site.site_index, scale, battery, chem, shift)
                            )
        return sorted(keys)


@dataclass(frozen=True, order=True)
class CellKey:
    site_index: int
    nameplate_scale: float
    battery_mwh: float
    chemistry: str
    shift_hours: int


_RESULT_FIELDS = (
    "site_index",
    "nameplate_scale",
    "battery_mwh",
    "chemistry",
    "shift_hours",
    "site_label",
    "nameplate_mw",
    "annual_load_mwh",
    "reduction_pct",
    "baseline_kg",
    "renewable_kg",
    "util_grid",
    "util_solar",
    "util_batt",
    "chg_grid",
    "chg_solar",
    "cycles_per_year",
    "occ_pv_usd",
    "occ_batt_usd",
    "lcopr_usd_per_mwh",
    "lcos_usd_per_mwh",
    "coc_usd_per_mwh",
    "tec_usd_per_mwh",
    "utility_tco_usd",
    "utility_years_op",
    "utility_usd_per_kg",
    "fleet_usd_per_mile",
    "fleet_partial_usd_per_mile",
    "status",
    "gap",
    "wall_time_s",
)


@dataclass(frozen=True)
class ScenarioResult:
    """One sweep cell: axis coordinates plus every derived metric."""

    site_index: int
    nameplate_scale: float
    battery_mwh: float
    chemistry: str
    shift_hours: int
    site_label: str
    nameplate_mw: float
    annual_load_mwh: float
    reduction_pct: float | None
    baseline_kg: float | None
    renewable_kg: float | None
    util_grid: float | None
    util_solar: float | None
    util_batt: float | None
    chg_grid: float | None
    chg_solar: float | None
    cycles_per_year: float | None
    occ_pv_usd: float | None
    occ_batt_usd: float | None
    lcopr_usd_per_mwh: float | None
    lcos_usd_per_mwh: float | None
    coc_usd_per_mwh: float | None
    tec_usd_per_mwh: float | None
    utility_tco_usd: float | None
    utility_years_op: float | None
    utility_usd_per_kg: float | None
    fleet_usd_per_mile: float | None
    fleet_partial_usd_per_mile: float | None
    status: str
    gap: float
    wall_time_s: float

    @property
    def key(self) -> CellKey:
        return CellKey(
            self.site_index,
            self.nameplate_scale,
            self.battery_mwh,
            self.chemistry,
            self.shift_hours,
        )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _RESULT_FIELDS}

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioResult":
        return cls(**{name: payload[name] for name in _RESULT_FIELDS})


def result_fields() -> tuple[str, ...]:
    return _RESULT_FIELDS


def run_cell(spec: SweepSpec, key: CellKey) -> ScenarioResult:
    """Dispatch one cell and derive its cost and stakeholder metrics."""
    return run_group(spec, [key])[0]


def _dispatch_axes(key: CellKey) -> tuple[int, float, float, int]:
    """Every axis the dispatch LP depends on; chemistry enters only the costs."""
    return (key.site_index, key.nameplate_scale, key.battery_mwh, key.shift_hours)


def run_group(spec: SweepSpec, keys: Sequence[CellKey]) -> list[ScenarioResult]:
    """Dispatch one group of cells once and derive each cell's metrics.

    The cells must share site, nameplate scale, battery size and shift,
    so that they differ only in chemistry. The profiles are shifted and
    scaled and the instance built and solved once; the cost and
    stakeholder chain then runs once per cell. Rows come back in the
    order of ``keys``. Each row's ``wall_time_s`` is an equal share of the
    group's shift, build and solve time plus its own derivation time, so
    the rows of a group sum to the time spent on it. A failed solve marks
    every row of the group failed.
    """
    if not keys:
        raise ValidationError("a dispatch group needs at least one cell")
    axes = _dispatch_axes(keys[0])
    if any(_dispatch_axes(key) != axes for key in keys):
        raise ValidationError(
            f"cells of a dispatch group may differ only in chemistry: {list(keys)}"
        )
    t0 = time.perf_counter()
    site_index, scale, battery_mwh, shift = axes
    site = _site_by_index(spec, site_index)
    load = shift_profile(spec.load, shift)
    carbon = shift_profile(spec.carbon, shift) if spec.shift_carbon else spec.carbon
    solar, nameplate = site.solar_at(scale)
    battery = BatterySpec(battery_mwh, duration_h=spec.battery_duration_h)
    instance = build_instance(load, solar, carbon, battery)
    annual_load = load.total()
    try:
        result = solve_dispatch(instance, spec.solver)
        failure = None
    except SolverFailure as exc:
        result = None
        failure = {
            **{name: None for name in _RESULT_FIELDS[8:-3]},
            "status": f"failed: {exc}",
            "gap": float("nan"),
        }
    shared_s = (time.perf_counter() - t0) / len(keys)

    rows = []
    for key in keys:
        t = time.perf_counter()
        metrics = failure or _cell_metrics(
            spec, key.chemistry, battery_mwh, result, solar, nameplate, annual_load
        )
        rows.append(
            ScenarioResult(
                site_index=site_index,
                nameplate_scale=scale,
                battery_mwh=battery_mwh,
                chemistry=key.chemistry,
                shift_hours=shift,
                site_label=site.label,
                nameplate_mw=nameplate,
                annual_load_mwh=annual_load,
                **metrics,
                wall_time_s=shared_s + (time.perf_counter() - t),
            )
        )
    return rows


def _cell_metrics(
    spec: SweepSpec,
    chemistry: str,
    battery_mwh: float,
    result: DispatchResult,
    solar: HourlyProfile,
    nameplate: float,
    annual_load: float,
) -> dict:
    """Cost and stakeholder metrics of one chemistry on a solved dispatch."""
    chem = spec.chemistry_params.get(chemistry) or costs_mod.get_chemistry(chemistry)
    occ_pv = (
        costs_mod.solar_capital_cost(nameplate, spec.cost_per_wdc)
        if nameplate > 0
        else 0.0
    )
    lcopr_val = (
        costs_mod.lcopr(occ_pv, solar, spec.solar_life_years)
        if solar.total() > 0
        else None
    )
    if battery_mwh > 0:
        pack = costs_mod.configure_pack(battery_mwh, chem, spec.battery_duration_h)
        breakdown = costs_mod.battery_capital_cost(pack, chem, spec.stack)
        occ_batt = breakdown.total_usd
        lcos_val = costs_mod.lcos(occ_batt, chem.cycles_eol, battery_mwh)
        coc_val = costs_mod.cost_of_charging(
            result.chg_solar, result.chg_grid, lcopr_val or 0.0, spec.gep_usd_per_mwh
        )
        cycles_eol = chem.cycles_eol
    else:
        occ_batt = 0.0
        lcos_val = None
        coc_val = None
        cycles_eol = 0.0
    tec = costs_mod.total_electricity_cost(
        result.util_solar,
        result.util_batt,
        result.util_grid,
        lcopr_val or 0.0,
        lcos_val or 0.0,
        coc_val or 0.0,
        spec.gep_usd_per_mwh,
    )
    removed = stake_mod.co2_removed(result.baseline_kg, result.renewable_kg)
    utility = stake_mod.utility_tco(
        stake_mod.UtilityInputs(
            occ_pv_usd=occ_pv,
            occ_batt_usd=occ_batt,
            tec_usd_per_mwh=tec,
            annual_load_mwh=annual_load,
            battery_cycles_eol=cycles_eol,
            cycles_per_year=result.cycles_per_year or 0.0,
            solar_life_years=spec.solar_life_years,
        )
    )
    metric = stake_mod.utility_metric(utility.tco_usd, removed)
    fleet = (
        stake_mod.fleet_metric(spec.fleet_electric, tec, annual_load)
        if spec.fleet_electric is not None
        else None
    )
    fleet_partial = (
        stake_mod.fleet_metric(spec.fleet_partial, tec, annual_load)
        if spec.fleet_partial is not None
        else None
    )
    return dict(
        reduction_pct=result.reduction_pct,
        baseline_kg=result.baseline_kg,
        renewable_kg=result.renewable_kg,
        util_grid=result.util_grid,
        util_solar=result.util_solar,
        util_batt=result.util_batt,
        chg_grid=result.chg_grid,
        chg_solar=result.chg_solar,
        cycles_per_year=result.cycles_per_year,
        occ_pv_usd=occ_pv,
        occ_batt_usd=occ_batt,
        lcopr_usd_per_mwh=lcopr_val,
        lcos_usd_per_mwh=lcos_val,
        coc_usd_per_mwh=coc_val,
        tec_usd_per_mwh=tec,
        utility_tco_usd=utility.tco_usd,
        utility_years_op=utility.years_op,
        utility_usd_per_kg=metric,
        fleet_usd_per_mile=fleet,
        fleet_partial_usd_per_mile=fleet_partial,
        status=result.status,
        gap=result.gap,
    )


def _read_checkpoint(path: Path) -> dict[CellKey, ScenarioResult]:
    """Rows of a checkpoint file, keyed by cell.

    A sweep killed mid-write can leave a truncated last line. That line is
    dropped, so its group is solved again, and the file is rewritten
    without it before new rows are appended. An unreadable line anywhere
    else is corruption, not an interruption, and raises.
    """
    text = path.read_text(encoding="utf-8")
    lines = [
        (n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()
    ]
    done: dict[CellKey, ScenarioResult] = {}
    kept: list[str] = []
    for i, (n, line) in enumerate(lines):
        try:
            row = ScenarioResult.from_dict(json.loads(line))
        except (ValueError, KeyError, TypeError) as exc:
            if i == len(lines) - 1:
                break
            raise ValidationError(
                f"{path}: line {n} is not a checkpoint row: {exc}"
            ) from exc
        done[row.key] = row
        kept.append(line)
    if len(kept) < len(lines) or (text and not text.endswith("\n")):
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text("".join(line + "\n" for line in kept), encoding="utf-8")
        os.replace(tmp, path)
    return done


_WORKER_SPEC: SweepSpec | None = None


def _init_worker(spec: SweepSpec) -> None:
    global _WORKER_SPEC
    _WORKER_SPEC = spec


def _run_group_in_worker(keys: list[CellKey]) -> list[ScenarioResult]:
    assert _WORKER_SPEC is not None
    return run_group(_WORKER_SPEC, keys)


def run_sweep(
    spec: SweepSpec,
    resume: bool = False,
    progress_path: str | Path | None = None,
) -> list[ScenarioResult]:
    """Run every cell of the cross product and return sorted results.

    The unit of work is a dispatch group: the cells that share site,
    nameplate scale, battery size and shift and differ only in chemistry.
    Each group is solved once, on the process pool or serially, and its
    rows are checkpointed as soon as it finishes. With ``resume``, cells
    already in the checkpoint file are reused; a group with any cell
    missing is solved again and only its missing cells are derived.
    Execution order never affects output order (results are sorted by
    axis coordinates at the end).
    """
    keys = spec.cell_keys()
    if progress_path is None and spec.output_dir is not None:
        progress_path = Path(spec.output_dir) / "cells.jsonl"
    done: dict[CellKey, ScenarioResult] = {}
    if resume and progress_path is not None and Path(progress_path).exists():
        done = _read_checkpoint(Path(progress_path))
    groups: dict[tuple, list[CellKey]] = {}
    for key in keys:
        if key not in done:
            groups.setdefault(_dispatch_axes(key), []).append(key)
    pending = list(groups.values())

    writer = None
    if progress_path is not None:
        Path(progress_path).parent.mkdir(parents=True, exist_ok=True)
        writer = open(progress_path, "a" if resume else "w", encoding="utf-8")

    def record(rows: list[ScenarioResult]) -> None:
        for row in rows:
            done[row.key] = row
            if writer:
                writer.write(json.dumps(row.to_dict(), sort_keys=True) + "\n")
        if writer:
            writer.flush()

    try:
        if spec.workers > 1 and len(pending) > 1:
            with ProcessPoolExecutor(
                max_workers=spec.workers,
                initializer=_init_worker,
                initargs=(spec,),
            ) as pool:
                futures = [pool.submit(_run_group_in_worker, group) for group in pending]
                for future in as_completed(futures):
                    record(future.result())
        else:
            for group in pending:
                record(run_group(spec, group))
    finally:
        if writer:
            writer.close()
    return [done[key] for key in keys]


_SOLVER_KEYS = frozenset(f.name for f in fields(SolveOptions))


def load_sweep_spec(source: str | Path) -> SweepSpec:
    """Read a sweep spec from JSON; relative paths resolve against it."""
    path = Path(source)
    payload = read_json(path)
    require_keys(payload, ("load", "carbon"), f"{path.name}: sweep spec")
    base = path.parent
    hours = json_int(payload.get("hours", 8760), f"{path.name}: 'hours'", positive=True)
    shifts = tuple(
        json_int(h, f"{path.name}: shift") for h in payload.get("shift_hours", [0])
    )
    shift_carbon = payload.get("shift_carbon", True)
    if type(shift_carbon) is not bool:
        raise ValidationError(
            f"{path.name}: 'shift_carbon' must be true or false, got {shift_carbon!r}"
        )
    load = load_profile(base / payload["load"], UNIT_MW, hours=hours)
    carbon = load_profile(base / payload["carbon"], UNIT_KG_PER_HOUR, hours=hours)

    sites: list[SweepSite] = []
    if "catalog" in payload:
        catalog_path = base / payload["catalog"]
        catalog = catalog_from_json(catalog_path)
        indices = payload.get("site_indices") or [p.site_index for p in catalog.parcels]
        for idx in indices:
            try:
                parcel = catalog[json_int(idx, f"{path.name}: site index")]
            except KeyError:
                raise ValidationError(f"{catalog_path.name} has no site {idx}") from None
            if parcel.representative_profile is None:
                raise ValidationError(
                    f"catalog parcel {idx} carries no representative profile"
                )
            sites.append(
                SweepSite(
                    site_index=parcel.site_index,
                    label=f"site-{parcel.site_index}",
                    nameplate_mw=parcel.nameplate_mw,
                    profile=parcel.representative_profile,
                )
            )
    for n, entry in enumerate(payload.get("sites", []), start=1):
        require_keys(entry, ("profile", "nameplate_mw"), f"{path.name}: site entry {n}")
        profile = load_profile(base / entry["profile"], UNIT_MW, hours=hours)
        sites.append(
            SweepSite(
                site_index=int(entry.get("site_index", len(sites) + 1)),
                label=entry.get("label", f"site-{len(sites) + 1}"),
                nameplate_mw=float(entry["nameplate_mw"]),
                profile=profile,
            )
        )
    if not sites:
        raise ValidationError("sweep spec lists no sites")

    chemistry_params = dict(costs_mod.CHEMISTRIES)
    stack = costs_mod.CostStackParams()
    if "cost_config" in payload:
        chemistry_params, stack = costs_mod.load_cost_config(base / payload["cost_config"])

    solver_fields = payload.get("solver", {})
    unknown = sorted(set(solver_fields) - _SOLVER_KEYS)
    if unknown:
        raise ValidationError(
            f"unknown solver option(s) {unknown}; expected {sorted(_SOLVER_KEYS)}"
        )
    solver = SolveOptions(**solver_fields)

    fleet_electric = (
        stake_mod.load_fleet_params(base / payload["fleet_electric"])
        if "fleet_electric" in payload
        else None
    )
    fleet_partial = (
        stake_mod.load_fleet_params(base / payload["fleet_partial"])
        if "fleet_partial" in payload
        else None
    )
    output_dir = base / payload["output_dir"] if "output_dir" in payload else None

    return SweepSpec(
        load=load,
        carbon=carbon,
        sites=tuple(sites),
        nameplate_scales=tuple(payload.get("nameplate_scales", [1.0])),
        battery_sizes_mwh=tuple(payload.get("battery_sizes_mwh", [0.0])),
        chemistries=tuple(payload.get("chemistries", ["LFP"])),
        shift_hours=shifts,
        shift_carbon=shift_carbon,
        gep_usd_per_mwh=float(
            payload.get("gep_usd_per_mwh", costs_mod.GRID_ELECTRICITY_PRICE)
        ),
        cost_per_wdc=float(payload.get("cost_per_wdc", 1.0)),
        solar_life_years=float(
            payload.get("solar_life_years", costs_mod.SOLAR_LIFE_YEARS)
        ),
        battery_duration_h=float(payload.get("battery_duration_h", 4.0)),
        chemistry_params=chemistry_params,
        stack=stack,
        fleet_electric=fleet_electric,
        fleet_partial=fleet_partial,
        solver=solver,
        output_dir=output_dir,
        workers=int(payload.get("workers", 1)),
    )


def _site_by_index(spec: SweepSpec, site_index: int) -> SweepSite:
    site = spec._sites_by_index.get(site_index)
    if site is None:
        raise ValidationError(f"no site with index {site_index}")
    return site
