"""Gridded raster container and ESRI ASCII grid I/O."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Union

import numpy as np

from ..errors import ValidationError

Source = Union[str, Path, IO[str], IO[bytes]]


@dataclass(frozen=True)
class GridRaster:
    """A rectangular grid of cell values at a fixed resolution.

    ``nodata`` marks missing cells (NaN cells are always treated as
    missing). ``unit`` is optional free text used to cross-check
    exclusion-rule thresholds.
    """

    cells: np.ndarray
    cell_size_m: float = 90.0
    nodata: float | None = None
    unit: str | None = None
    name: str = ""
    xllcorner: float = 0.0
    yllcorner: float = 0.0

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=np.float64)
        if cells.ndim != 2 or cells.shape[0] < 1 or cells.shape[1] < 1:
            raise ValidationError("raster must be a 2-D array with at least one cell")
        if self.cell_size_m <= 0:
            raise ValidationError(f"cell size must be positive, got {self.cell_size_m}")
        cells = cells.copy()
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @property
    def shape(self) -> tuple[int, int]:
        return self.cells.shape

    def nodata_mask(self) -> np.ndarray:
        mask = np.isnan(self.cells)
        if self.nodata is not None:
            mask |= self.cells == self.nodata
        return mask

    def is_binary(self) -> bool:
        return bool(np.all((self.cells == 0.0) | (self.cells == 1.0)))


_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "xllcenter", "yllcenter",
                "cellsize", "nodata_value")


def read_ascii_grid(source: Source, unit: str | None = None, name: str = "") -> GridRaster:
    """Parse an ESRI ASCII grid (ncols/nrows/xllcorner/yllcorner/cellsize
    header, optional NODATA_value, whitespace-separated cell values).

    The header is read from the leading tokens; the body is parsed in one
    C-level pass and may lay its values out with any whitespace.
    ``ncols`` and ``nrows`` must be positive integers.
    """
    text, default_name = _read_text(source)
    # Split off no more than a full header's worth of tokens; the last
    # piece is the unsplit rest of the text.
    tokens = text.split(maxsplit=2 * len(_HEADER_KEYS))
    header: dict[str, float] = {}
    i = 0
    while i + 1 < len(tokens) and tokens[i].lower() in _HEADER_KEYS:
        key = tokens[i].lower()
        try:
            header[key] = float(tokens[i + 1])
        except ValueError:
            raise ValidationError(
                f"ASCII grid header {key!r} is not a number: {tokens[i + 1]!r}"
            ) from None
        i += 2
    for required in ("ncols", "nrows", "cellsize"):
        if required not in header:
            raise ValidationError(f"ASCII grid header missing {required!r}")
    for key in ("ncols", "nrows"):
        if not (header[key].is_integer() and header[key] >= 1):
            raise ValidationError(
                f"ASCII grid header {key!r} must be a positive integer, got {header[key]:g}"
            )
    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    try:
        data = np.fromstring(" ".join(tokens[i:]), dtype=np.float64, sep=" ")
    except ValueError as exc:
        raise ValidationError(f"unparseable ASCII grid value: {exc}") from None
    if data.size != nrows * ncols:
        raise ValidationError(
            f"ASCII grid body has {data.size} values, expected {nrows * ncols}"
        )
    return GridRaster(
        cells=data.reshape(nrows, ncols),
        cell_size_m=header["cellsize"],
        nodata=header.get("nodata_value"),
        unit=unit,
        name=name or default_name,
        xllcorner=header.get("xllcorner", header.get("xllcenter", 0.0)),
        yllcorner=header.get("yllcorner", header.get("yllcenter", 0.0)),
    )


def write_ascii_grid(raster: GridRaster, dest: Source) -> None:
    nrows, ncols = raster.shape
    lines = [
        f"ncols {ncols}",
        f"nrows {nrows}",
        f"xllcorner {raster.xllcorner:.10g}",
        f"yllcorner {raster.yllcorner:.10g}",
        f"cellsize {raster.cell_size_m:.10g}",
    ]
    if raster.nodata is not None:
        lines.append(f"NODATA_value {raster.nodata:.10g}")
    for row in raster.cells:
        lines.append(" ".join(f"{v:.10g}" for v in row))
    text = "\n".join(lines) + "\n"
    if isinstance(dest, (str, Path)):
        Path(dest).write_text(text, encoding="utf-8")
    else:
        dest.write(text)


def _read_text(source: Source) -> tuple[str, str]:
    if isinstance(source, (str, Path)):
        path = Path(source)
        return path.read_text(encoding="utf-8"), path.stem
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return data, str(getattr(source, "name", ""))
