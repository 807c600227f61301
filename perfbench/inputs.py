"""Seeded input generators for the benchmark workloads.

Every file is written by this module's own writers (never the program's),
so the bytes a seed produces stay the same across commits of the program.
Numbers are written in forms that parse back to exactly the in-memory
values the checks use: rasters hold integers scaled by a power of ten,
profiles hold ``repr`` floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HOURS = 8760
CELL_M = 90.0
NODATA = -9999
CHEMISTRIES = ("NMC811", "NCA", "LFP")
METERS_PER_MILE = 1609.344
ZERO_LOAD_TOL = 1e-9


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    """Independent stream per (seed, keys) so workloads never share draws."""
    return np.random.default_rng([seed, *keys])


# --------------------------------------------------------------------------
# Writers


def write_profile_csv(path: Path, values: np.ndarray, unit: str) -> None:
    lines = [f"# unit: {unit}", "hour,value"]
    lines.extend(f"{i},{v!r}" for i, v in enumerate(values.tolist(), start=1))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_ascii_grid(path: Path, scaled: np.ndarray, decimals: int, nodata: int | None) -> None:
    """Write integer cells ``scaled`` as value = scaled / 10**decimals.

    Cells equal to ``nodata`` are written as the bare integer so the
    header's NODATA_value matches them exactly.
    """
    nrows, ncols = scaled.shape
    lo, hi = int(scaled.min()), int(scaled.max())
    div = 10**decimals
    lut = []
    for v in range(lo, hi + 1):
        if v == nodata or decimals == 0:
            lut.append(str(v))
        else:
            sign = "-" if v < 0 else ""
            q, r = divmod(abs(v), div)
            lut.append(f"{sign}{q}.{r:0{decimals}d}")
    lut_arr = np.array(lut, dtype=object)
    header = [
        f"ncols {ncols}",
        f"nrows {nrows}",
        "xllcorner 0",
        "yllcorner 0",
        f"cellsize {CELL_M:g}",
    ]
    if nodata is not None:
        header.append(f"NODATA_value {nodata}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header) + "\n")
        for row in lut_arr[scaled - lo].tolist():
            fh.write(" ".join(row))
            fh.write("\n")


# --------------------------------------------------------------------------
# Hourly profiles


def year_load_carbon(rng: np.random.Generator, grid_limit_mw: float) -> tuple[np.ndarray, np.ndarray]:
    """Excess load of a truck-charging depot over a grid limit, and its
    emissions.

    Charging demand follows a weekday evening-heavy shape with noise; the
    excess over ``grid_limit_mw`` is zero in many hours (nights, weekends),
    and emissions are the excess times an hourly marginal emission rate.
    """
    t = np.arange(HOURS)
    hod = t % 24
    dow = (t // 24) % 7
    shape = 0.55 + 0.45 * np.sin(np.pi * (hod - 8) / 14.0).clip(0.0)
    weekday = np.where(dow < 5, 1.0, 0.35)
    season = 1.0 + 0.1 * np.sin(2 * np.pi * (t - 4000) / HOURS)
    demand = 60.0 * shape * weekday * season * rng.uniform(0.8, 1.2, HOURS)
    load = np.maximum(demand - grid_limit_mw, 0.0)
    load = np.round(load, 3)
    rate = 420.0 + 160.0 * np.sin(np.pi * (hod - 12) / 12.0) + rng.uniform(-40, 40, HOURS)
    carbon = np.where(load > ZERO_LOAD_TOL, np.round(load * rate, 2), 0.0)
    return load, carbon


def year_capacity_factor(rng: np.random.Generator) -> np.ndarray:
    """Solar capacity factor with a day/night sine, seasons, and clouds."""
    t = np.arange(HOURS)
    hod = t % 24
    day = np.sin(np.pi * (hod - 6) / 13.0).clip(0.0)
    season = 0.8 + 0.15 * np.sin(2 * np.pi * (t - 2000) / HOURS)
    daily_cloud = np.repeat(rng.uniform(0.35, 1.0, HOURS // 24), 24)
    cf = day * season * daily_cloud * rng.uniform(0.85, 1.0, HOURS)
    return np.round(cf.clip(0.0, 1.0), 4)


# --------------------------------------------------------------------------
# siting_region


@dataclass(frozen=True)
class LayerSpec:
    """One raster layer as generated: integer cells, scale, and its rule."""

    name: str
    scaled: np.ndarray
    decimals: int
    nodata: int | None
    mode: str
    threshold: float | None
    buffer_key: str | None = None
    buffer_value: float = 0.0

    def values(self) -> np.ndarray:
        """Cell values as the program parses them (nodata kept as-is)."""
        values = self.scaled / float(10**self.decimals)
        if self.nodata is not None:
            values = np.where(self.scaled == self.nodata, float(self.nodata), values)
        return values

    def buffer_m(self) -> float:
        if self.buffer_key == "buffer_miles":
            return self.buffer_value * METERS_PER_MILE
        return self.buffer_value


@dataclass(frozen=True)
class SitingInputs:
    config_path: Path
    layers: tuple[LayerSpec, ...]
    members: tuple[np.ndarray, ...]
    block_cells: int
    power_density: float


SITING_SIZE = 2000
SITING_MEMBERS = 4
SITING_DENSITY = 36.0
SITING_BLOCK = 64


def smooth_field(rng: np.random.Generator, shape: tuple[int, int], knot_cells: int) -> np.ndarray:
    """Zero-mean field: bilinear interpolation of a coarse normal grid."""
    nrows, ncols = shape
    ky = nrows // knot_cells + 2
    kx = ncols // knot_cells + 2
    knots = rng.standard_normal((ky, kx))
    wy = _interp_matrix(nrows, ky)
    wx = _interp_matrix(ncols, kx)
    return wy @ knots @ wx.T


def _interp_matrix(n: int, k: int) -> np.ndarray:
    pos = np.linspace(0.0, k - 1.0, n)
    lo = np.minimum(pos.astype(np.int64), k - 2)
    frac = pos - lo
    w = np.zeros((n, k))
    w[np.arange(n), lo] = 1.0 - frac
    w[np.arange(n), lo + 1] = frac
    return w


def _quantile_mask(field: np.ndarray, share: float) -> np.ndarray:
    return field > np.quantile(field, 1.0 - share)


def make_siting_inputs(root: Path, seed: int, size: int = SITING_SIZE) -> SitingInputs:
    """Six layers over a size x size region at 90 m plus member profiles.

    Rules cover threshold-above, threshold-below, and binary modes, with
    buffers of 180 m, 0.5 mile, and 1 mile; two layers carry nodata.
    """
    rng = rng_for(seed, 1)
    shape = (size, size)
    root.mkdir(parents=True, exist_ok=True)

    def texture(coarse: int, fine: int) -> np.ndarray:
        return smooth_field(rng, shape, coarse) + 0.35 * smooth_field(rng, shape, fine)

    slope = np.clip(np.round((4.0 + 3.0 * texture(160, 24)) * 10), 0, 450).astype(np.int32)
    ghi = np.clip(np.round((4.95 + 0.22 * texture(300, 40)) * 100), 380, 600).astype(np.int32)
    ghi[_quantile_mask(smooth_field(rng, shape, 30), 0.004)] = NODATA
    wetlands = _quantile_mask(texture(50, 8), 0.05).astype(np.int32)
    protected = _quantile_mask(smooth_field(rng, shape, 220), 0.015).astype(np.int32)
    town = np.exp(1.6 * texture(120, 20))
    population = np.clip(np.round(40.0 * town), 0, 9000).astype(np.int32)
    elevation = np.clip(np.round(60.0 + 45.0 * texture(400, 60)), -5, 400).astype(np.int32)
    coast = np.zeros(shape, dtype=bool)
    coast[:, : max(1, size // 80)] = True
    elevation[coast & (rng.random(shape) < 0.5)] = NODATA

    layers = (
        LayerSpec("slope", slope, 1, None, "threshold-above", 10.0),
        LayerSpec("ghi", ghi, 2, NODATA, "threshold-below", 4.6),
        LayerSpec("wetlands", wetlands, 0, None, "binary", None, "buffer_m", 180.0),
        LayerSpec("protected", protected, 0, None, "binary", None, "buffer_miles", 1.0),
        LayerSpec("population", population, 0, None, "threshold-above", 900.0,
                  "buffer_miles", 0.5),
        LayerSpec("elevation", elevation, 0, NODATA, "threshold-below", 2.0),
    )
    entries = []
    for layer in layers:
        write_ascii_grid(root / f"{layer.name}.asc", layer.scaled, layer.decimals, layer.nodata)
        entry = {"path": f"{layer.name}.asc", "name": layer.name, "mode": layer.mode}
        if layer.threshold is not None:
            entry["threshold"] = layer.threshold
        if layer.buffer_key is not None:
            entry[layer.buffer_key] = layer.buffer_value
        entries.append(entry)

    members = tuple(year_capacity_factor(rng) for _ in range(SITING_MEMBERS))
    for k, cf in enumerate(members):
        write_profile_csv(root / f"cf_member_{k}.csv", cf, "cf")
    config = {
        "layers": entries,
        "block_cells": SITING_BLOCK,
        "power_density_mw_per_km2": SITING_DENSITY,
        "capacity_factor_profiles": [f"cf_member_{k}.csv" for k in range(SITING_MEMBERS)],
        "profile_hours": HOURS,
    }
    config_path = root / "rules.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return SitingInputs(config_path, layers, members, SITING_BLOCK, SITING_DENSITY)


# --------------------------------------------------------------------------
# sweep_year


@dataclass(frozen=True)
class SweepInputs:
    spec_path: Path
    output_dir: Path
    load: np.ndarray
    carbon: np.ndarray
    site_solar: dict[int, np.ndarray]
    site_nameplate: dict[int, float]
    scales: tuple[float, ...]
    batteries: tuple[float, ...]
    chemistries: tuple[str, ...]
    shifts: tuple[int, ...]
    gep: float


SWEEP_SCALES = (0.75, 1.25)
SWEEP_BATTERIES = (0.0, 40.0, 120.0)
SWEEP_SHIFTS = (0, 3)
SWEEP_GEP = 160.0
SWEEP_GRID_LIMIT = 27.5
SWEEP_NAMEPLATES = (40.0, 60.0)

_FLEET_ELECTRIC = {
    "n_veh": 120,
    "msrp_usd": 350000.0,
    "registration_usd": 1500.0,
    "subsidy_usd": 100000.0,
    "insurance_usd_per_year": 12000.0,
    "maintenance_usd_per_mile": 0.15,
    "residual_frac": 0.3,
    "vmt_total": 6000000.0,
    "penalty_usd_per_mile": 0.5,
}
_FLEET_PARTIAL = dict(_FLEET_ELECTRIC, n_veh=60, vmt_total=3000000.0)


def make_sweep_inputs(root: Path, seed: int, workers: int) -> SweepInputs:
    """A full-year spec: 2 sites x 2 scales x 3 batteries x 3 chemistries
    x 2 shifts = 72 cells, 48 of them with a battery."""
    rng = rng_for(seed, 2)
    root.mkdir(parents=True, exist_ok=True)
    # Sizes are fixed and only the hourly noise follows the seed: solve
    # time depends on the sizes, so fixed sizes keep sweeps comparable
    # across seeds.
    load, carbon = year_load_carbon(rng, grid_limit_mw=SWEEP_GRID_LIMIT)
    write_profile_csv(root / "load.csv", load, "MW")
    write_profile_csv(root / "carbon.csv", carbon, "kg/h")
    site_solar: dict[int, np.ndarray] = {}
    site_nameplate: dict[int, float] = {}
    sites = []
    for idx, nameplate in enumerate(SWEEP_NAMEPLATES, start=1):
        solar = np.round(year_capacity_factor(rng) * nameplate, 4)
        write_profile_csv(root / f"site_{idx}.csv", solar, "MW")
        site_solar[idx] = solar
        site_nameplate[idx] = nameplate
        sites.append({"site_index": idx, "label": f"site-{idx}",
                      "profile": f"site_{idx}.csv", "nameplate_mw": nameplate})
    (root / "fleet_electric.json").write_text(json.dumps(_FLEET_ELECTRIC) + "\n", encoding="utf-8")
    (root / "fleet_partial.json").write_text(json.dumps(_FLEET_PARTIAL) + "\n", encoding="utf-8")
    spec = {
        "hours": HOURS,
        "load": "load.csv",
        "carbon": "carbon.csv",
        "sites": sites,
        "nameplate_scales": list(SWEEP_SCALES),
        "battery_sizes_mwh": list(SWEEP_BATTERIES),
        "chemistries": list(CHEMISTRIES),
        "shift_hours": list(SWEEP_SHIFTS),
        "gep_usd_per_mwh": SWEEP_GEP,
        "fleet_electric": "fleet_electric.json",
        "fleet_partial": "fleet_partial.json",
        "output_dir": "out",
        "workers": workers,
    }
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return SweepInputs(
        spec_path=spec_path,
        output_dir=root / "out",
        load=load,
        carbon=carbon,
        site_solar=site_solar,
        site_nameplate=site_nameplate,
        scales=SWEEP_SCALES,
        batteries=SWEEP_BATTERIES,
        chemistries=CHEMISTRIES,
        shifts=SWEEP_SHIFTS,
        gep=SWEEP_GEP,
    )


# --------------------------------------------------------------------------
# dispatch_batch


@dataclass(frozen=True)
class DispatchCase:
    load_path: Path
    solar_path: Path
    carbon_path: Path
    out_dir: Path
    load: np.ndarray
    solar: np.ndarray
    carbon: np.ndarray
    battery_mwh: float
    shift_hours: int
    duration_h: float = 4.0


def make_dispatch_case(root: Path, seed: int, index: int) -> DispatchCase:
    """Instance ``index`` of the batch: its own profiles, a battery of
    10-250 MWh (never 0), and a demand shift of -6..6 hours."""
    rng = rng_for(seed, 3, index)
    case_dir = root / f"case_{index:04d}"
    case_dir.mkdir(parents=True, exist_ok=True)
    load, carbon = year_load_carbon(rng, grid_limit_mw=float(rng.uniform(20.0, 32.0)))
    nameplate = float(rng.uniform(25.0, 80.0))
    solar = np.round(year_capacity_factor(rng) * nameplate, 4)
    battery = float(np.round(rng.uniform(10.0, 250.0), 1))
    shift = int(rng.integers(-6, 7))
    paths = case_dir / "load.csv", case_dir / "solar.csv", case_dir / "carbon.csv"
    write_profile_csv(paths[0], load, "MW")
    write_profile_csv(paths[1], solar, "MW")
    write_profile_csv(paths[2], carbon, "kg/h")
    return DispatchCase(
        load_path=paths[0],
        solar_path=paths[1],
        carbon_path=paths[2],
        out_dir=case_dir / "out",
        load=load,
        solar=solar,
        carbon=carbon,
        battery_mwh=battery,
        shift_hours=shift,
    )
