"""Parcel aggregation and the viable-site catalog.

The composite map is tiled into square blocks; the viable land within a
block becomes a candidate parcel with a technical-potential nameplate
capacity (viable area times a power-density scalar). Sites are numbered
in order of increasing nameplate capacity.

Catalog JSON, as written by ``catalog_to_json`` and read by
``catalog_from_json``::

    {
      "block_cells": int,
      "cell_size_m": float,
      "power_density_mw_per_km2": float,
      "profiles": [{"unit": str, "label": str, "values": [float, ...]}, ...],
      "parcels": [
        {"site_index": int, "block_row": int, "block_col": int,
         "viable_area_km2": float, "nameplate_mw": float,
         "profile": int | null},
        ...
      ]
    }

``profiles`` holds each distinct representative profile once. A parcel's
``profile`` is the position of its representative profile in that list,
or null when it has none. Site indices are unique.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from ..errors import ValidationError, read_json, require_keys
from ..profiles import UNIT_CAPACITY_FACTOR, HourlyProfile
from .exclusions import CompositeMap

DEFAULT_BLOCK_CELLS = 64
DEFAULT_POWER_DENSITY_MW_PER_KM2 = 36.0

_CATALOG_KEYS = ("block_cells", "cell_size_m", "power_density_mw_per_km2", "parcels")
_PARCEL_KEYS = (
    "site_index", "block_row", "block_col", "viable_area_km2", "nameplate_mw", "profile"
)


@dataclass(frozen=True)
class Parcel:
    site_index: int
    block_row: int
    block_col: int
    viable_area_km2: float
    nameplate_mw: float
    representative_profile: HourlyProfile | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SiteCatalog:
    parcels: tuple[Parcel, ...]
    block_cells: int
    cell_size_m: float
    power_density_mw_per_km2: float

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for parcel in self.parcels:
            if parcel.site_index in seen:
                raise ValidationError(f"catalog repeats site index {parcel.site_index}")
            seen.add(parcel.site_index)

    def __len__(self) -> int:
        return len(self.parcels)

    def __getitem__(self, site_index: int) -> Parcel:
        parcel = self._by_index.get(site_index)
        if parcel is None:
            raise KeyError(f"no parcel with site index {site_index}")
        return parcel

    @cached_property
    def _by_index(self) -> dict[int, Parcel]:
        return {parcel.site_index: parcel for parcel in self.parcels}


def aggregate_parcels(
    comp: CompositeMap,
    block_cells: int = DEFAULT_BLOCK_CELLS,
    power_density_mw_per_km2: float = DEFAULT_POWER_DENSITY_MW_PER_KM2,
) -> SiteCatalog:
    """Tile the composite map into blocks and build the site catalog.

    Blocks with zero viable area are dropped. Partial blocks at the
    raster edge are aggregated over their actual extent.
    """
    if block_cells < 1:
        raise ValidationError(f"block_cells must be >= 1, got {block_cells}")
    if power_density_mw_per_km2 <= 0:
        raise ValidationError(
            f"power density must be positive, got {power_density_mw_per_km2}"
        )
    viable = comp.viable_mask()
    nrows, ncols = viable.shape
    cell_area_km2 = (comp.cell_size_m / 1000.0) ** 2

    raw: list[tuple[float, int, int]] = []
    for br in range(0, nrows, block_cells):
        for bc in range(0, ncols, block_cells):
            n_viable = int(viable[br : br + block_cells, bc : bc + block_cells].sum())
            if n_viable > 0:
                raw.append((n_viable * cell_area_km2, br, bc))

    raw.sort(key=lambda item: (item[0] * power_density_mw_per_km2, item[1], item[2]))
    parcels = tuple(
        Parcel(
            site_index=i + 1,
            block_row=br,
            block_col=bc,
            viable_area_km2=area,
            nameplate_mw=area * power_density_mw_per_km2,
        )
        for i, (area, br, bc) in enumerate(raw)
    )
    return SiteCatalog(
        parcels=parcels,
        block_cells=block_cells,
        cell_size_m=comp.cell_size_m,
        power_density_mw_per_km2=power_density_mw_per_km2,
    )


def representative_profile(members: Sequence[HourlyProfile]) -> HourlyProfile:
    """Pick the member closest (L2) to the element-wise mean profile.

    Ties resolve to the lowest member index.
    """
    if not members:
        raise ValidationError("at least one member profile required")
    horizon = members[0].horizon
    for member in members:
        if member.horizon != horizon:
            raise ValidationError("member profiles must share one horizon")
    stack = np.stack([member.values for member in members])
    mean = stack.mean(axis=0)
    distances = np.sqrt(((stack - mean) ** 2).sum(axis=1))
    return members[int(np.argmin(distances))]


def attach_representative_profiles(
    catalog: SiteCatalog, members: Sequence[HourlyProfile]
) -> SiteCatalog:
    """Give every parcel the meanoid of the supplied member profiles.

    Stand-in for resource-point-to-parcel mapping: one regional pool of
    candidate capacity-factor profiles is shared by all parcels.
    """
    profile = representative_profile(members)
    parcels = tuple(
        replace(parcel, representative_profile=profile) for parcel in catalog.parcels
    )
    return replace(catalog, parcels=parcels)


def catalog_to_json(catalog: SiteCatalog, dest: str | Path | None = None) -> str:
    """Serialise the catalog (schema in the module docstring), writing each
    distinct profile object once; also write it to ``dest`` if given."""
    distinct = {
        id(p.representative_profile): p.representative_profile
        for p in catalog.parcels
        if p.representative_profile is not None
    }
    positions = {key: n for n, key in enumerate(distinct)}
    parcels = [
        {
            "site_index": p.site_index,
            "block_row": p.block_row,
            "block_col": p.block_col,
            "viable_area_km2": p.viable_area_km2,
            "nameplate_mw": p.nameplate_mw,
            "profile": (
                None if p.representative_profile is None
                else positions[id(p.representative_profile)]
            ),
        }
        for p in catalog.parcels
    ]
    payload = {
        "block_cells": catalog.block_cells,
        "cell_size_m": catalog.cell_size_m,
        "power_density_mw_per_km2": catalog.power_density_mw_per_km2,
        "profiles": [
            {"unit": profile.unit, "label": profile.label, "values": profile.values.tolist()}
            for profile in distinct.values()
        ],
        "parcels": parcels,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if dest is not None:
        Path(dest).write_text(text + "\n", encoding="utf-8")
    return text


def catalog_from_json(source: str | Path) -> SiteCatalog:
    """Read a catalog written by ``catalog_to_json``. Parcels that refer to
    one profile share one ``HourlyProfile``."""
    path = Path(source)
    payload = read_json(path)
    if "profiles" not in payload:
        raise ValidationError(
            f"{path.name}: catalog has no 'profiles' list; catalogs with an inline "
            f"'representative_profile' per parcel are no longer read, re-run "
            f"`mgplan site` to rewrite it"
        )
    require_keys(payload, _CATALOG_KEYS, f"{path.name}: catalog")
    for n, raw in enumerate(payload["profiles"]):
        require_keys(raw, ("values",), f"{path.name}: profile {n}")
    profiles = [
        HourlyProfile(
            np.asarray(raw["values"], dtype=np.float64),
            raw.get("unit", UNIT_CAPACITY_FACTOR),
            raw.get("label", ""),
        )
        for raw in payload["profiles"]
    ]
    parcels = []
    for n, entry in enumerate(payload["parcels"], start=1):
        site = entry.get("site_index", f"#{n}")
        require_keys(entry, _PARCEL_KEYS, f"{path.name}: site {site}")
        ref = entry["profile"]
        # bool is an int subclass; a JSON true is no position.
        if ref is not None and not (type(ref) is int and 0 <= ref < len(profiles)):
            raise ValidationError(
                f"{path.name}: site {site} refers to profile {ref!r}, "
                f"but the catalog lists {len(profiles)} profile(s)"
            )
        parcels.append(
            Parcel(
                site_index=int(entry["site_index"]),
                block_row=int(entry["block_row"]),
                block_col=int(entry["block_col"]),
                viable_area_km2=float(entry["viable_area_km2"]),
                nameplate_mw=float(entry["nameplate_mw"]),
                representative_profile=None if ref is None else profiles[ref],
            )
        )
    return SiteCatalog(
        parcels=tuple(parcels),
        block_cells=int(payload["block_cells"]),
        cell_size_m=float(payload["cell_size_m"]),
        power_density_mw_per_km2=float(payload["power_density_mw_per_km2"]),
    )
