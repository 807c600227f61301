"""Correctness checks computed apart from the program.

Each check returns a list of failure messages; an empty list means the
output passed. Nothing here calls into ``mgplan`` except where a check
is about the program's own reader (the catalog read-back).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .inputs import CELL_M, ZERO_LOAD_TOL, DispatchCase, LayerSpec, SitingInputs, SweepInputs

REL_TOL = 1e-9


def _close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# --------------------------------------------------------------------------
# siting_region


def rule_violations(layer: LayerSpec) -> np.ndarray:
    """Cells that violate a layer's rule; nodata cells always violate."""
    values = layer.values()
    if layer.mode == "binary":
        violated = values != 0.0
    elif layer.mode == "threshold-above":
        violated = values > layer.threshold
    elif layer.mode == "threshold-below":
        violated = values < layer.threshold
    else:
        raise ValueError(f"unknown mode {layer.mode!r}")
    if layer.nodata is not None:
        violated = violated | (layer.scaled == layer.nodata)
    return violated


def buffer_radius_cells(distance_m: float, cell_m: float = CELL_M) -> int:
    return math.ceil(distance_m / cell_m)


def buffer_edt(violated: np.ndarray, radius: int) -> np.ndarray:
    """Cells within ``radius`` cells (Euclidean) of a violation, via a
    distance transform to the nearest violating cell."""
    if radius == 0 or not violated.any():
        return violated.copy()
    # Exact integer squared distances: sqrt(k) <= r iff k <= r*r for
    # integer k and r, and the transform's sqrt is correctly rounded.
    dist = ndimage.distance_transform_edt(~violated)
    return dist <= radius


@dataclass(frozen=True)
class SitingExpected:
    viable: np.ndarray
    block_counts: dict[tuple[int, int], int]
    cell_area_km2: float
    density: float
    representative: int


def representative_index(members: tuple[np.ndarray, ...]) -> int:
    stack = np.stack(members)
    mean = stack.mean(axis=0)
    return int(np.argmin(np.linalg.norm(stack - mean, axis=1)))


def expected_siting(inputs: SitingInputs) -> SitingExpected:
    viable = None
    for layer in inputs.layers:
        violated = rule_violations(layer)
        radius = buffer_radius_cells(layer.buffer_m())
        violated = buffer_edt(violated, radius)
        viable = ~violated if viable is None else viable & ~violated
    return SitingExpected(
        viable=viable,
        block_counts=block_counts(viable, inputs.block_cells),
        cell_area_km2=(CELL_M / 1000.0) ** 2,
        density=inputs.power_density,
        representative=representative_index(inputs.members),
    )


def block_counts(viable: np.ndarray, block: int) -> dict[tuple[int, int], int]:
    """Viable cells per block keyed by the block's first (row, col),
    non-empty blocks only; edge blocks cover their actual extent."""
    nrows, ncols = viable.shape
    pr, pc = -nrows % block, -ncols % block
    padded = np.pad(viable, ((0, pr), (0, pc)))
    sums = padded.reshape(padded.shape[0] // block, block, padded.shape[1] // block, block).sum(
        axis=(1, 3)
    )
    return {
        (int(i) * block, int(j) * block): int(sums[i, j])
        for i, j in zip(*np.nonzero(sums))
    }


def check_catalog(parcels, expected: SitingExpected,
                  members: tuple[np.ndarray, ...]) -> list[str]:
    """Parcels (objects with the catalog's fields) against the mask."""
    errors: list[str] = []
    if len(parcels) != len(expected.block_counts):
        errors.append(f"parcel count {len(parcels)} != expected {len(expected.block_counts)}")
    seen = set()
    previous = -math.inf
    total = 0.0
    rep = members[expected.representative]
    for i, p in enumerate(parcels):
        if p.site_index != i + 1:
            errors.append(f"parcel {i}: site_index {p.site_index}, expected {i + 1}")
        if p.nameplate_mw < previous:
            errors.append(f"site {p.site_index}: nameplate below the previous site's")
        previous = p.nameplate_mw
        key = (p.block_row, p.block_col)
        seen.add(key)
        n = expected.block_counts.get(key)
        if n is None:
            errors.append(f"site {p.site_index}: block {key} has no viable cells")
            continue
        if not _close(p.viable_area_km2, n * expected.cell_area_km2):
            errors.append(
                f"site {p.site_index}: area {p.viable_area_km2} km2, expected "
                f"{n * expected.cell_area_km2} ({n} cells)"
            )
        if not _close(p.nameplate_mw, p.viable_area_km2 * expected.density):
            errors.append(f"site {p.site_index}: nameplate != area x density")
        total += p.viable_area_km2
        profile = p.representative_profile
        if profile is None:
            errors.append(f"site {p.site_index}: no representative profile")
        elif not np.array_equal(np.asarray(profile.values), rep):
            errors.append(f"site {p.site_index}: representative is not the member nearest the mean")
        if len(errors) > 20:
            break
    if len(seen) != len(parcels):
        errors.append("duplicate parcel blocks")
    total_expected = int(expected.viable.sum()) * expected.cell_area_km2
    if not _close(total, total_expected, rel=1e-9):
        errors.append(f"total viable area {total} km2, expected {total_expected}")
    return errors


def check_catalog_readback(written, read_back) -> list[str]:
    """The catalog read from disk carries exactly the parcels written."""
    errors: list[str] = []
    if len(written.parcels) != len(read_back.parcels):
        return [f"read back {len(read_back.parcels)} parcels, wrote {len(written.parcels)}"]
    for a, b in zip(written.parcels, read_back.parcels):
        if a != b:
            errors.append(f"site {a.site_index}: read back {b}")
        elif not np.array_equal(a.representative_profile.values, b.representative_profile.values):
            errors.append(f"site {a.site_index}: representative profile differs after read-back")
        if len(errors) > 20:
            break
    for name in ("block_cells", "cell_size_m", "power_density_mw_per_km2"):
        if getattr(written, name) != getattr(read_back, name):
            errors.append(f"catalog {name} differs after read-back")
    return errors


# --------------------------------------------------------------------------
# sweep_year


def no_battery_reduction(load: np.ndarray, solar: np.ndarray, carbon: np.ndarray) -> float:
    """Closed form without storage: solar serves load first, the grid
    covers the rest; percent reduction of grid-only emissions."""
    grid = load - np.minimum(solar, load)
    mask = load > ZERO_LOAD_TOL
    renew = float(np.sum(grid[mask] / load[mask] * carbon[mask]))
    base = float(carbon.sum())
    return 100.0 * (1.0 - renew / base) if base > 0 else 0.0


_DISPATCH_FIELDS = (
    "reduction_pct", "baseline_kg", "renewable_kg", "util_grid", "util_solar",
    "util_batt", "chg_grid", "chg_solar", "cycles_per_year", "status",
)
MONOTONE_TOL = 1e-7


def check_sweep(out_dir: Path, inputs: SweepInputs) -> list[str]:
    errors: list[str] = []
    rows = json.loads((out_dir / "results.json").read_text(encoding="utf-8"))
    n_sites = len(inputs.site_solar)
    n_cells = (n_sites * len(inputs.scales) * len(inputs.batteries)
               * len(inputs.chemistries) * len(inputs.shifts))
    csv_rows = (out_dir / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
    checkpoint = [line for line in (out_dir / "cells.jsonl").read_text(encoding="utf-8").splitlines()
                  if line.strip()]
    for label, count in (("results.json", len(rows)), ("results.csv", len(csv_rows)),
                         ("cells.jsonl", len(checkpoint))):
        if count != n_cells:
            errors.append(f"{label} has {count} rows, spec has {n_cells} cells")
    plots = sorted(p.name for p in out_dir.glob("plot_*.csv"))
    n_plots = 4 + 4 * n_sites * len(inputs.chemistries) * len(inputs.shifts)
    if len(plots) != n_plots:
        errors.append(f"{len(plots)} plot files, expected {n_plots}")

    by_key = {}
    for row in rows:
        key = (row["site_index"], row["nameplate_scale"], row["battery_mwh"],
               row["chemistry"], row["shift_hours"])
        if key in by_key:
            errors.append(f"duplicate cell {key}")
        by_key[key] = row
    for site in inputs.site_solar:
        for scale in inputs.scales:
            for shift in inputs.shifts:
                errors.extend(_check_sweep_group(by_key, inputs, site, scale, shift))
    return errors[:40]


def _check_sweep_group(by_key: dict, inputs: SweepInputs, site: int, scale: float,
                       shift: int) -> list[str]:
    errors: list[str] = []
    load = np.roll(inputs.load, shift)
    carbon = np.roll(inputs.carbon, shift)
    closed = no_battery_reduction(load, inputs.site_solar[site] * scale, carbon)
    previous = -math.inf
    for battery in inputs.batteries:
        first = None
        for chem in inputs.chemistries:
            key = (site, scale, battery, chem, shift)
            row = by_key.get(key)
            if row is None:
                errors.append(f"missing cell {key}")
                continue
            errors.extend(f"cell {key}: {msg}" for msg in _check_sweep_row(row, inputs.gep))
            if first is None:
                first = row
            else:
                for name in _DISPATCH_FIELDS:
                    a, b = first[name], row[name]
                    same = a == b if isinstance(a, str) or a is None or b is None else _close(a, b)
                    if not same:
                        errors.append(f"cell {key}: {name} {b} differs across chemistries ({a})")
        if first is None:
            continue
        reduction = first["reduction_pct"]
        if battery == 0 and not _close(reduction, closed, rel=1e-9, abs_tol=1e-9):
            errors.append(f"{(site, scale, 0.0, shift)}: reduction {reduction}, closed form {closed}")
        if reduction < closed - MONOTONE_TOL:
            errors.append(f"{(site, scale, battery, shift)}: reduction below the no-battery value")
        if reduction < previous - MONOTONE_TOL:
            errors.append(f"{(site, scale, battery, shift)}: reduction decreases with battery size")
        previous = reduction
    return errors


def _check_sweep_row(row: dict, gep: float) -> list[str]:
    errors: list[str] = []
    if row["status"] != "proven-optimal":
        errors.append(f"status {row['status']}")
        return errors
    util = row["util_grid"] + row["util_solar"] + row["util_batt"]
    if abs(util - 1.0) > 1e-6:
        errors.append(f"utilization sums to {util}")
    chg = row["chg_grid"] + row["chg_solar"]
    if row["battery_mwh"] > 0 and chg != 0.0 and abs(chg - 1.0) > 1e-6:
        errors.append(f"charging fractions sum to {chg}")
    parts = [gep]
    if row["lcopr_usd_per_mwh"] is not None:
        parts.append(row["lcopr_usd_per_mwh"])
    if row["battery_mwh"] > 0:
        parts.append(row["lcos_usd_per_mwh"] + row["coc_usd_per_mwh"])
    tec = row["tec_usd_per_mwh"]
    slack = 1e-9 * max(abs(p) for p in parts)
    if not min(parts) - slack <= tec <= max(parts) + slack:
        errors.append(f"tec {tec} outside its component costs {parts}")
    if not row["wall_time_s"] > 0:
        errors.append("non-positive wall time")
    return errors


# --------------------------------------------------------------------------
# dispatch_batch

TRAJECTORY_COLUMNS = (
    "hour", "grid_to_load_mw", "solar_to_load_mw", "batt_to_load_mw", "solar_to_batt_mw",
    "grid_to_batt_mw", "solar_curtailed_mw", "grid_total_mw", "charge_total_mw",
    "battery_energy_mwh", "discharging",
)
ROUNDTRIP = 0.85
SOC_MIN, SOC_MAX, SOC_INIT = 0.1, 0.9, 0.5
EXCLUSIVITY_TOL = 1e-6


def read_trajectory(path: Path) -> dict[str, np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = tuple(lines[0].split(","))
    if header != TRAJECTORY_COLUMNS:
        raise ValueError(f"unexpected trajectory header {lines[0]!r}")
    data = np.array(",".join(lines[1:]).split(","), dtype=np.float64)
    data = data.reshape(len(lines) - 1, len(header))
    return {name: data[:, k] for k, name in enumerate(header)}


def check_dispatch(case: DispatchCase, csv_path: Path, summary_path: Path) -> list[str]:
    errors: list[str] = []
    try:
        traj = read_trajectory(csv_path)
    except ValueError as exc:
        return [f"{csv_path.name}: {exc}"]
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    load = np.roll(case.load, case.shift_hours)
    carbon = np.roll(case.carbon, case.shift_hours)
    solar = case.solar
    T = load.size
    if traj["hour"].size != T or not np.array_equal(traj["hour"], np.arange(1, T + 1)):
        return [f"trajectory rows are not hours 1..{T}"]
    e = case.battery_mwh
    p_max = e / case.duration_h
    tol = 1e-6 * max(1.0, float(load.max()), float(solar.max()), e)

    g_l, s_l, b_l = traj["grid_to_load_mw"], traj["solar_to_load_mw"], traj["batt_to_load_mw"]
    s_b, g_b, cur = traj["solar_to_batt_mw"], traj["grid_to_batt_mw"], traj["solar_curtailed_mw"]
    grid, charge, energy = traj["grid_total_mw"], traj["charge_total_mw"], traj["battery_energy_mwh"]

    def hours(mask: np.ndarray, what: str) -> None:
        bad = np.flatnonzero(mask)
        if bad.size:
            errors.append(f"{what} at {bad.size} hours, first hour {int(bad[0]) + 1}")

    flows = np.stack([g_l, s_l, b_l, s_b, g_b, cur, grid, charge])
    hours((flows < -tol).any(axis=0), "negative flow")
    hours(np.abs(g_l + s_l + b_l - load) > tol, "load balance broken")
    hours(np.abs(s_l + s_b + cur - solar) > tol, "solar split differs from available solar")
    hours(np.abs(grid - g_l - g_b) > tol, "grid total differs from its parts")
    hours(np.abs(charge - s_b - g_b) > tol, "charge total differs from its parts")
    previous = np.concatenate([[SOC_INIT * e], energy[:-1]])
    hours(np.abs(energy - previous - ROUNDTRIP * charge + b_l) > tol,
          "stored-energy recursion broken")
    hours((energy < SOC_MIN * e - tol) | (energy > SOC_MAX * e + tol), "stored energy outside window")
    if abs(energy[-1] - SOC_INIT * e) > tol:
        errors.append(f"year ends at {energy[-1]} MWh, started at {SOC_INIT * e}")
    hours((charge > p_max + tol) | (b_l > p_max + tol), "battery power above its limit")
    hours(charge * b_l > EXCLUSIVITY_TOL, "charging and discharging in one hour")
    hours((load <= ZERO_LOAD_TOL) & (grid > tol), "grid power at a zero-load hour")

    mask = load > ZERO_LOAD_TOL
    renew = float(np.sum(grid[mask] / load[mask] * carbon[mask]))
    base = float(carbon.sum())
    if not _close(summary["renewable_kg"], renew, rel=1e-7, abs_tol=1e-6):
        errors.append(f"renewable_kg {summary['renewable_kg']}, trajectories give {renew}")
    if not _close(summary["baseline_kg"], base, rel=1e-9):
        errors.append(f"baseline_kg {summary['baseline_kg']}, profile sums to {base}")
    reduction = 100.0 * (1.0 - summary["renewable_kg"] / summary["baseline_kg"])
    if not _close(summary["reduction_pct"], reduction, rel=1e-9, abs_tol=1e-9):
        errors.append(f"reduction_pct {summary['reduction_pct']} inconsistent with emissions")
    if summary["reduction_pct"] < no_battery_reduction(load, solar, carbon) - MONOTONE_TOL:
        errors.append("reduction below the no-battery closed form")
    if summary["status"] != "proven-optimal":
        errors.append(f"status {summary['status']}")
    return [f"{csv_path.parent.parent.name}: {msg}" for msg in errors]
