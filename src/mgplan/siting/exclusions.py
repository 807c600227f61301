"""Exclusion rules, decision layers, and the composite siting map.

Each geospatial layer is converted to a binary decision layer: 0 marks a
cell suitable for siting, 1 marks a violation of that layer's criterion.
Violations can be buffered outward by a Euclidean distance, computed with
an exact distance transform whose cost does not grow with the distance,
and decision layers are summed into a composite map whose zero cells are
viable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ..errors import ValidationError
from .rasters import GridRaster

MODE_BINARY = "binary"
MODE_ABOVE = "threshold-above"
MODE_BELOW = "threshold-below"
_MODES = (MODE_BINARY, MODE_ABOVE, MODE_BELOW)

METERS_PER_MILE = 1609.344


@dataclass(frozen=True)
class ExclusionRule:
    """How one layer is turned into a decision layer.

    ``binary`` layers flag any nonzero cell as a violation; threshold
    modes flag cells strictly above/below the threshold. The threshold
    is required for threshold modes and forbidden for binary mode.
    """

    layer_name: str
    mode: str
    threshold: float | None = None
    threshold_unit: str | None = None
    buffer_distance_m: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValidationError(
                f"unknown rule mode {self.mode!r}; expected one of {_MODES}"
            )
        if self.mode == MODE_BINARY and self.threshold is not None:
            raise ValidationError("binary rules must not carry a threshold")
        if self.mode != MODE_BINARY and self.threshold is None:
            raise ValidationError(f"{self.mode} rule requires a threshold")
        if self.buffer_distance_m < 0:
            raise ValidationError(
                f"negative buffer distance: {self.buffer_distance_m}"
            )


@dataclass(frozen=True)
class CompositeMap:
    """Per-cell count of decision layers that conflict with siting."""

    counts: np.ndarray
    cell_size_m: float

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise ValidationError("composite counts must be 2-D")
        if np.any(counts < 0):
            raise ValidationError("composite counts must be non-negative")
        counts = counts.astype(np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    def viable_mask(self) -> np.ndarray:
        return self.counts == 0


def apply_exclusion_rule(layer: GridRaster, rule: ExclusionRule) -> GridRaster:
    """Convert a data layer into a binary decision layer (1 = violation).

    Nodata cells are conservatively treated as violations.
    """
    if (
        rule.threshold_unit is not None
        and layer.unit is not None
        and rule.threshold_unit != layer.unit
    ):
        raise ValidationError(
            f"unit mismatch for layer {rule.layer_name!r}: rule threshold in "
            f"{rule.threshold_unit!r}, layer in {layer.unit!r}"
        )
    cells = layer.cells
    if rule.mode == MODE_BINARY:
        violated = cells != 0.0
    elif rule.mode == MODE_ABOVE:
        violated = cells > rule.threshold
    else:
        violated = cells < rule.threshold
    violated = violated | layer.nodata_mask()
    return GridRaster(
        cells=violated.astype(np.float64),
        cell_size_m=layer.cell_size_m,
        name=f"{rule.layer_name} decision",
        xllcorner=layer.xllcorner,
        yllcorner=layer.yllcorner,
    )


def buffer_violations(binary: GridRaster, distance_m: float) -> GridRaster:
    """Mark every cell within the given Euclidean distance of a violation.

    The radius in cells is ceil(distance / cell size). A cell is marked
    when its exact Euclidean distance transform to the nearest violating
    cell is at most that radius. This is the same disc as dilating by the
    cell offsets (di, dj) with di^2 + dj^2 <= radius^2: squared distances
    are integers, so sqrt(k) <= radius exactly when k <= radius^2. The
    cost is linear in the number of cells, whatever the radius.
    """
    if distance_m < 0:
        raise ValidationError(f"negative buffer distance: {distance_m}")
    if not binary.is_binary():
        raise ValidationError("buffer_violations requires a binary decision layer")
    radius = math.ceil(distance_m / binary.cell_size_m)
    violated = binary.cells.astype(bool)
    # With no violating cell the transform has no target and returns
    # meaningless distances.
    if radius == 0 or not violated.any():
        return binary
    buffered = ndimage.distance_transform_edt(~violated) <= radius
    return GridRaster(
        cells=buffered.astype(np.float64),
        cell_size_m=binary.cell_size_m,
        name=binary.name,
        xllcorner=binary.xllcorner,
        yllcorner=binary.yllcorner,
    )


def composite(layers: list[GridRaster]) -> CompositeMap:
    """Overlay binary decision layers into a composite conflict-count map."""
    if not layers:
        raise ValidationError("at least one layer required")
    shape = layers[0].shape
    cell_size = layers[0].cell_size_m
    counts = np.zeros(shape, dtype=np.int64)
    for layer in layers:
        if layer.shape != shape:
            raise ValidationError(
                f"layer shape mismatch: {layer.shape} vs {shape}"
            )
        if layer.cell_size_m != cell_size:
            raise ValidationError(
                f"layer cell size mismatch: {layer.cell_size_m} vs {cell_size}"
            )
        if not layer.is_binary():
            raise ValidationError(
                f"composite requires binary decision layers; {layer.name!r} is not"
            )
        counts += layer.cells.astype(np.int64)
    return CompositeMap(counts=counts, cell_size_m=cell_size)
