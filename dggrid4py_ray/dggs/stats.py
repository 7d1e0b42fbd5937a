"""Closed-form grid statistics.

Replaces the reference's OUTPUT_STATS subprocess + stdout scraping
(/root/reference/dggrid4py/dggrid_runner.py:1205-1248, grid_stats_table
:1280-1301) with pure arithmetic:

* cells(r) = 10 * aperture^r + 2 for hexagon grids (the law visible in the
  reference's stats `Cells` column, dggrid_runner.py:1297)
* average cell area = authalic earth area / cells(r)
* CLS (characteristic length scale) = diameter of the spherical cap whose
  area equals the average cell area (DGGRID's published definition).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .sphere import EARTH_RADIUS_KM, EARTH_AREA_KM2

_TOPO_CELL_FACTOR = {"HEXAGON": 10, "TRIANGLE": 20, "DIAMOND": 10}


def num_cells(res: int, aperture: int = 7, topology: str = "HEXAGON",
              mixed_aperture_level: int | None = None) -> int:
    """Number of cells at resolution `res`.

    Hexagon grids: 10*a^r + 2.  Triangle: 20*a^r.  Diamond: 10*a^r.
    ISEA43H mixed grids run aperture 4 for the first
    `mixed_aperture_level` levels then aperture 3.
    """
    if topology == "HEXAGON":
        if mixed_aperture_level:
            n4 = min(res, mixed_aperture_level)
            return 10 * (4 ** n4) * (3 ** (res - n4)) + 2
        return 10 * aperture**res + 2
    f = _TOPO_CELL_FACTOR[topology]
    return f * aperture**res


def cell_area_km2(res: int, aperture: int = 7, topology: str = "HEXAGON",
                  mixed_aperture_level: int | None = None) -> float:
    return EARTH_AREA_KM2 / num_cells(res, aperture, topology, mixed_aperture_level)


def cls_km(res: int, aperture: int = 7, topology: str = "HEXAGON",
           mixed_aperture_level: int | None = None) -> float:
    """Characteristic length scale: diameter of the spherical cap with the
    average cell area (DGGRID manual definition)."""
    area = cell_area_km2(res, aperture, topology, mixed_aperture_level)
    # cap area = 2*pi*R^2*(1-cos theta)
    cos_t = 1.0 - area / (2.0 * np.pi * EARTH_RADIUS_KM**2)
    theta = np.arccos(np.clip(cos_t, -1.0, 1.0))
    return float(2.0 * EARTH_RADIUS_KM * theta)


def grid_stats_table(dggs_type: str = "IGEO7", resolution: int = 9,
                     mixed_aperture_level: int | None = None) -> pa.Table:
    """Equivalent of the reference's `grid_stats_table` (dggrid_runner.py:1280-1301):
    one row per resolution 0..resolution with the same column names."""
    from ..config import dgselect

    dggs = dgselect(dggs_type, resolution=resolution,
                    mixed_aperture_level=mixed_aperture_level)
    rows = np.arange(resolution + 1)
    cells = np.array([num_cells(int(r), dggs.aperture, dggs.topology,
                                dggs.mixed_aperture_level) for r in rows], dtype=np.int64)
    areas = EARTH_AREA_KM2 / cells
    cls = np.array([cls_km(int(r), dggs.aperture, dggs.topology,
                           dggs.mixed_aperture_level) for r in rows])
    return pa.table({
        "Resolution": pa.array(rows, type=pa.int32()),
        "Cells": pa.array(cells, type=pa.int64()),
        "Area (km^2)": pa.array(areas, type=pa.float64()),
        "CLS (km)": pa.array(cls, type=pa.float64()),
    })


def res_for_cell_area(area_km2: float, aperture: int = 7, topology: str = "HEXAGON",
                      round_down: bool = True, max_res: int = 17) -> int:
    """Finest/closest resolution for a target cell area (reference
    `specify_resolution` CELL_AREA mode, dggrid_runner.py:2186-2228; also the
    dgconstruct 'not yet implemented' closest-res helpers :613-620)."""
    areas = np.array([cell_area_km2(r, aperture, topology) for r in range(max_res + 1)])
    if round_down:
        # coarsest res whose cell area is <= target... DGGRID semantics:
        # res with area closest from above when rounding down resolution
        ok = np.nonzero(areas <= area_km2)[0]
        return int(ok[0]) if len(ok) else max_res
    return int(np.argmin(np.abs(areas - area_km2)))


def res_for_intercell_distance(dist_km: float, aperture: int = 7,
                               topology: str = "HEXAGON", round_down: bool = True,
                               max_res: int = 17) -> int:
    """Resolution for a target intercell distance / CLS (same reference)."""
    cl = np.array([cls_km(r, aperture, topology) for r in range(max_res + 1)])
    if round_down:
        ok = np.nonzero(cl <= dist_km)[0]
        return int(ok[0]) if len(ok) else max_res
    return int(np.argmin(np.abs(cl - dist_km)))


def propose_res_for_pixel_size(pixel_edge_m: float, pix_size_factor: float = 2.0,
                               aperture: int = 7, max_res: int = 17) -> int:
    """Finest res with CLS below pixel_edge/pix_size_factor (reference
    `propose_dggs_level_for_pixel_length`, igeo7_ext.py:337-354)."""
    for r in range(max_res + 1):
        if cls_km(r, aperture) * 1000.0 < pixel_edge_m / pix_size_factor:
            return r
    return max_res
