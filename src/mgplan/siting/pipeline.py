"""Declarative rules config driving the raster-to-catalog pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..errors import ValidationError, json_int, read_json
from ..profiles import UNIT_CAPACITY_FACTOR, HourlyProfile, load_profile
from .exclusions import (
    METERS_PER_MILE,
    ExclusionRule,
    apply_exclusion_rule,
    buffer_violations,
    composite,
)
from .parcels import (
    DEFAULT_BLOCK_CELLS,
    DEFAULT_POWER_DENSITY_MW_PER_KM2,
    SiteCatalog,
    aggregate_parcels,
    attach_representative_profiles,
)
from .rasters import read_ascii_grid


@dataclass(frozen=True)
class SitingConfig:
    """Parsed rules config: one raster + rule per layer, plus aggregation
    settings and optional member capacity-factor profiles."""

    layers: tuple[tuple[Path, ExclusionRule, str | None], ...]
    block_cells: int = DEFAULT_BLOCK_CELLS
    power_density_mw_per_km2: float = DEFAULT_POWER_DENSITY_MW_PER_KM2
    profile_paths: tuple[Path, ...] = ()
    profile_hours: int = 8760


def load_siting_config(source: str | Path) -> SitingConfig:
    """Read a JSON rules config.

    Schema: ``layers`` is a list of ``{path, name, mode, threshold?,
    unit?, buffer_m? | buffer_miles?}``; optional ``block_cells``,
    ``power_density_mw_per_km2``, ``capacity_factor_profiles`` (list of
    CSV paths), and ``profile_hours``. Buffer distances given in miles
    use 1 mile = 1609.344 m.
    """
    path = Path(source)
    payload = read_json(path)
    if "layers" not in payload or not payload["layers"]:
        raise ValidationError(f"{path.name}: config must list at least one layer")
    base = path.parent
    layers = []
    for n, entry in enumerate(payload["layers"], start=1):
        if not isinstance(entry, dict):
            raise ValidationError(f"{path.name}: layer {n} must be an object")
        label = entry.get("name", entry.get("path", f"#{n}"))
        for key in ("path", "mode"):
            if key not in entry:
                raise ValidationError(f"{path.name}: layer {label!r} has no {key!r}")
        if "buffer_m" in entry and "buffer_miles" in entry:
            raise ValidationError(
                f"layer {label!r}: give buffer_m or buffer_miles, not both"
            )
        buffer_m = float(entry.get("buffer_m", 0.0))
        if "buffer_miles" in entry:
            buffer_m = float(entry["buffer_miles"]) * METERS_PER_MILE
        rule = ExclusionRule(
            layer_name=entry.get("name", Path(entry["path"]).stem),
            mode=entry["mode"],
            threshold=entry.get("threshold"),
            threshold_unit=entry.get("unit"),
            buffer_distance_m=buffer_m,
        )
        layers.append((base / entry["path"], rule, entry.get("unit")))
    profile_paths = tuple(
        base / p for p in payload.get("capacity_factor_profiles", [])
    )
    return SitingConfig(
        layers=tuple(layers),
        block_cells=json_int(
            payload.get("block_cells", DEFAULT_BLOCK_CELLS),
            f"{path.name}: 'block_cells'",
            positive=True,
        ),
        power_density_mw_per_km2=float(
            payload.get("power_density_mw_per_km2", DEFAULT_POWER_DENSITY_MW_PER_KM2)
        ),
        profile_paths=profile_paths,
        profile_hours=json_int(
            payload.get("profile_hours", 8760), f"{path.name}: 'profile_hours'", positive=True
        ),
    )


def run_siting(config: SitingConfig) -> SiteCatalog:
    """Apply every rule, buffer, overlay, and aggregate into a catalog."""
    decisions = []
    for raster_path, rule, unit in config.layers:
        layer = read_ascii_grid(raster_path, unit=unit, name=rule.layer_name)
        decision = apply_exclusion_rule(layer, rule)
        if rule.buffer_distance_m > 0:
            decision = buffer_violations(decision, rule.buffer_distance_m)
        decisions.append(decision)
    comp = composite(decisions)
    catalog = aggregate_parcels(
        comp,
        block_cells=config.block_cells,
        power_density_mw_per_km2=config.power_density_mw_per_km2,
    )
    if config.profile_paths:
        members: list[HourlyProfile] = [
            load_profile(p, UNIT_CAPACITY_FACTOR, hours=config.profile_hours)
            for p in config.profile_paths
        ]
        catalog = attach_representative_profiles(catalog, members)
    return catalog
