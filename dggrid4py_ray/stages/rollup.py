"""Hierarchical multi-resolution aggregation (rollup) over grid cells.

The reference's binning operators produce ONE resolution per run
(BIN_POINT_VALS, reference dggrid_runner.py:1025-1118); analytics and
tile-serving pipelines usually want the whole pyramid (res-9 counts,
then 8, 7, ... for coarse views).  Instead of re-binning the raw points
once per level (L full input scans), ``hierarchical_rollup`` consumes
the FINEST-level aggregate once and folds it upward: each level is a
grouped reduction over the previous level's output, whose row count
shrinks geometrically (factor 7 for IGEO7 Z7 parents, 4 for a lat/lon
bisection pyramid).  Beyond the finest bin the total extra work is
~n_cells * (1/7 + 1/49 + ...) ≈ n_cells/6 rows — noise at any corpus
size.  Every fold, coarse or fine, is the sort-based ``grouped_reduce``
(stages/groupagg): one aggregation path whose working set stays bounded
even at res-12 cell universes (~10^12 Z7 cells).

Only decomposable aggregates fold correctly (sum/count via sum; min;
max); carry means as (sum, count) and divide at the end.

Semantics note for hexagonal apertures: aperture-7 hexagons are NOT
perfectly nested, so a coarser pyramid level is "finest cells grouped by
their Z7 ancestor" (the H3 hierarchical-aggregation semantic), which can
differ near cell boundaries from re-binning the raw points at the
coarser resolution.  Conservation (every level carries all points and
value mass) holds exactly; boundary reassignment does not.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..dggs import igeo7 as ig
from .groupagg import grouped_reduce


def hierarchical_rollup(ds: ray.data.Dataset, cell_col: str, sum_cols: list,
                        parent_fn, levels: int, level_col: str = "level",
                        start_level: int = 0, level_step: int = 1) -> ray.data.Dataset:
    """Fold a finest-level per-cell aggregate up ``levels`` times.

    ``ds`` holds one row per finest cell: ``cell_col`` plus the
    sum-foldable columns ``sum_cols``.  ``parent_fn(cells: np.ndarray)
    -> np.ndarray`` maps each cell id to its parent at the next coarser
    level (applied once per fold).  Returns the union of all levels with
    ``level_col`` = start_level, start_level+level_step, ... (finest
    first).  The input ``ds`` is materialized once so the finest level
    isn't recomputed per fold; each materialized fold is cell-count
    sized, never point-count sized.  Each fold is one sort-based
    ``grouped_reduce`` on ``cell_col``."""

    def tag(level: int):
        def add(batch: pa.Table) -> pa.Table:
            lv = pa.array(np.full(batch.num_rows, level, dtype=np.int64))
            return batch.append_column(level_col, lv)
        return add

    def reparent(batch: pa.Table) -> pa.Table:
        cells = batch[cell_col].to_numpy(zero_copy_only=False)
        out = parent_fn(cells)
        i = batch.schema.get_field_index(cell_col)
        return batch.set_column(i, cell_col, pa.array(out))

    cur = ds.materialize()
    out = cur.map_batches(tag(start_level), batch_format="pyarrow")
    for k in range(1, levels + 1):
        reparented = cur.map_batches(reparent, batch_format="pyarrow")
        cur = grouped_reduce(reparented, key=cell_col,
                             col_map={c: c for c in sum_cols},
                             how="sum").materialize()
        # levels shrink geometrically; keep block count proportional to
        # rows (~1M rows/block) so later folds' sorts don't pay per-block
        # fixed costs for near-empty blocks.
        want = max(1, min(cur.num_blocks(), cur.count() // 1_000_000 + 1))
        if cur.num_blocks() > 2 * want:
            cur = cur.repartition(want).materialize()
        out = out.union(cur.map_batches(tag(start_level + k * level_step),
                                        batch_format="pyarrow"))
    return out


def rollup_z7(ds: ray.data.Dataset, cell_col: str, sum_cols: list,
              from_res: int, to_res: int,
              level_col: str = "res") -> ray.data.Dataset:
    """IGEO7/Z7 pyramid: fold a per-cell aggregate at ``from_res`` up to
    ``to_res`` via the Z7 parent law (one aperture-7 digit strip per
    level — dggs/igeo7.z7_parent, pure uint64 bit math, no lookup).  The
    ``level_col`` carries the actual resolution of each output row."""
    if to_res > from_res:
        raise ValueError("to_res must be <= from_res")

    def parent(cells: np.ndarray) -> np.ndarray:
        # Z7 ids use the full 64-bit range; keep the source column's dtype
        # so folded levels union cleanly with the tagged finest level.
        z = cells.astype(np.uint64, copy=False)
        return ig.z7_parent(z).astype(cells.dtype, copy=False)

    return hierarchical_rollup(ds, cell_col, sum_cols, parent,
                               levels=from_res - to_res,
                               level_col=level_col, start_level=from_res,
                               level_step=-1)
