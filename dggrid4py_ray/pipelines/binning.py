"""Point-value and presence binning (the two DGGRID binning operations).

Reference: dgapi_point_value_binning (BIN_POINT_VALS,
dggrid_runner.py:1025-1118 — per-cell arithmetic mean + optional count) and
dgapi_pres_binning (BIN_POINT_PRESENCE, :1121-1202 — per-cell per-class
presence + counts).

Skew strategy (the north rule's explicit requirement): a *combiner* stage —
within-batch partial aggregation in ``map_batches`` before the shuffle — so a
hot cell (coastline/urban Zipf head) contributes at most one partial row per
batch instead of millions of raw rows.  The final aggregation (one range
sort on ``cell_id``) then shuffles only O(num_batches x
distinct_cells_per_batch) rows.  Mean, count, sum and presence all
decompose into partials, so every operator here takes that one
sort-then-reduce path; none uses a hash Aggregate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..config import dgselect
from ..stages.encode import CellEncoder
from ..stages.join import join_safe


def _partial_mean_combiner(value_col: str):
    def combine(batch: pa.Table) -> pa.Table:
        cell = batch["cell_id"].to_numpy(zero_copy_only=False)
        val = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        uniq, inv = np.unique(cell, return_inverse=True)
        sums = np.zeros(len(uniq))
        np.add.at(sums, inv, val)
        counts = np.bincount(inv, minlength=len(uniq))
        return pa.table({"cell_id": pa.array(uniq, type=pa.int64()),
                         "psum": pa.array(sums), "pcount": pa.array(counts.astype(np.int64))})
    return combine


def grouped_sum(ds: ray.data.Dataset, key: str, col_map: dict) -> ray.data.Dataset:
    """High-cardinality-friendly grouped sum (sort + segmented reduction;
    see stages/groupagg.grouped_reduce for the design + measurements)."""
    from ..stages.groupagg import grouped_reduce
    return grouped_reduce(ds, key, col_map, how="sum")


def bin_point_vals(ds: ray.data.Dataset, dggs_type: str = "IGEO7", resolution: int = 9,
                   value_col: str = "value", lon_col: str = "lon", lat_col: str = "lat",
                   output_count: bool = True,
                   cell_output_control: str = "OUTPUT_OCCUPIED",
                   output_sum: bool = False,
                   concurrency: int | None = None, **kw) -> ray.data.Dataset:
    """Per-cell mean of point values (+count).  OUTPUT_ALL joins the result
    onto the full cell universe with nulls for empty cells (reference
    cell_output_control semantics, dggrid_runner.py:189-190).

    One aggregation path at every resolution: the per-batch combiner,
    then the sort-then-reduce ``grouped_sum`` (one range sort on
    ``cell_id``, each sorted block reduced to final rows).  The returned
    dataset is lazy; nothing executes until it is consumed."""
    dggs = dgselect(dggs_type, resolution=resolution, **kw)
    enc = ds.map_batches(CellEncoder(dggs, lon_col=lon_col, lat_col=lat_col),
                         batch_format="pyarrow", concurrency=concurrency)
    partial = enc.map_batches(_partial_mean_combiner(value_col), batch_format="pyarrow")
    agg = grouped_sum(partial, "cell_id",
                      {"psum": "sum_value", "pcount": "count_value"})

    def finish(batch: pa.Table) -> pa.Table:
        mean = pa.array(np.asarray(batch["sum_value"]) / np.asarray(batch["count_value"]))
        out = batch.append_column("mean_value", mean)
        cols = ["cell_id", "mean_value"] + (["count_value"] if output_count else []) \
            + (["sum_value"] if output_sum else [])
        return out.select(cols)

    out = agg.map_batches(finish, batch_format="pyarrow")
    if cell_output_control.upper() == "OUTPUT_ALL":
        from .highlevel import grid_cellids_for_extent
        universe = grid_cellids_for_extent(dggs_type, resolution, **kw)
        from ..stages.join import _join_partitions
        out = join_safe(universe, out, join_type="left_outer",
                            num_partitions=_join_partitions(),
                            on=("cell_id",))
    return out


def _presence_rows(df: pd.DataFrame, output_num_classes: bool,
                   output_count: bool) -> pd.DataFrame:
    """(cell_id, cls, n) rows -> one presence row per cell (cls sorted)."""
    df = df.sort_values(["cell_id", "cls"])
    g = df.groupby("cell_id", sort=True)
    out = {"cell_id": list(g.groups),
           "classes": g["cls"].agg(lambda s: ",".join(str(c) for c in s)).tolist()}
    if output_num_classes:
        out["num_classes"] = g["cls"].size().tolist()
    if output_count:
        out["count_value"] = [int(v) for v in g["n"].sum()]
    return pd.DataFrame(out)


def bin_point_presence(ds: ray.data.Dataset, dggs_type: str = "IGEO7", resolution: int = 9,
                       class_col: str = "class_id", lon_col: str = "lon", lat_col: str = "lat",
                       output_count: bool = True, output_num_classes: bool = True,
                       concurrency: int | None = None, **kw) -> ray.data.Dataset:
    """Per-cell class presence (reference BIN_POINT_PRESENCE,
    dggrid_runner.py:1121-1202): distinct classes present per cell, their
    count, and the total point count.

    Combiner: within-batch distinct (cell, class) + counts.  Final stage,
    at every resolution: one range sort on ``cell_id`` alone, which puts
    every row of a cell into one sorted block, so each block's presence
    rows are final and per-cell work stays in vectorized pandas.  The
    returned dataset is lazy."""
    dggs = dgselect(dggs_type, resolution=resolution, **kw)
    enc = ds.map_batches(CellEncoder(dggs, lon_col=lon_col, lat_col=lat_col),
                         batch_format="pyarrow", concurrency=concurrency)

    def partial(batch: pa.Table) -> pa.Table:
        # classes are labels (reference: one class per input file) — they
        # live as strings from here on, so they order lexically
        df = pd.DataFrame({
            "cell_id": batch["cell_id"].to_numpy(zero_copy_only=False),
            "cls": pd.Series(batch[class_col].to_numpy(zero_copy_only=False)).astype(str),
        })
        g = df.groupby(["cell_id", "cls"], sort=False).size().reset_index(name="pcount")
        return pa.Table.from_pandas(g, preserve_index=False)

    p = enc.map_batches(partial, batch_format="pyarrow")

    out_cols = ["cell_id", "classes"] \
        + (["num_classes"] if output_num_classes else []) \
        + (["count_value"] if output_count else [])

    def block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # full output schema with the non-empty path's Arrow types: a
            # skewed range sort can hand a block zero rows, and empty
            # pandas object columns would infer as pa.null
            types = {"cell_id": pa.int64(), "classes": pa.string(),
                     "num_classes": pa.int64(), "count_value": pa.int64()}
            return pa.schema([(c, types[c]) for c in out_cols]).empty_table()
        df = pd.DataFrame({
            "cell_id": batch["cell_id"].to_numpy(zero_copy_only=False),
            "cls": batch["cls"].to_numpy(zero_copy_only=False),
            "n": batch["pcount"].to_numpy(zero_copy_only=False)})
        agg = df.groupby(["cell_id", "cls"], sort=True)["n"].sum().reset_index()
        done = _presence_rows(agg, output_num_classes, output_count)
        return pa.Table.from_pandas(done[out_cols], preserve_index=False)

    # ONE range sort on cell_id alone (a (cell_id, cls) range sort could
    # cut one cell's classes across two blocks); batch_size=None: the UDF
    # must see each sorted block whole
    return p.sort("cell_id").map_batches(block, batch_format="pyarrow",
                                         batch_size=None)


def zonal_mean(ds: ray.data.Dataset, dggs_type: str = "IGEO7", resolution: int = 9,
               value_col: str = "data", lon_col: str = "lon", lat_col: str = "lat",
               drop_nodata: bool = True, **kw) -> ray.data.Dataset:
    """Raster->vector zonal aggregation (reference pipeline: raster windows ->
    pixel points -> BIN_POINT_VALS; igeo7_ext.py:357-408 + dggrid_runner.py:1025).
    Nodata pixels (nulls) are dropped before encoding."""
    if drop_nodata:
        ds = ds.map_batches(lambda t: t.filter(t[value_col].combine_chunks().is_valid()
                                               if isinstance(t[value_col], pa.ChunkedArray)
                                               else t[value_col].is_valid()),
                            batch_format="pyarrow")
    return bin_point_vals(ds, dggs_type, resolution, value_col=value_col,
                          lon_col=lon_col, lat_col=lat_col, **kw)


def adaptive_bin(ds: ray.data.Dataset, coarse_fn, fine_fn, threshold: int,
                 value_col: str, lon_col: str = "lon", lat_col: str = "lat",
                 hot_cap: int = 5_000_000) -> ray.data.Dataset:
    """Adaptive (variable-resolution) binning: aggregate at the coarse
    level, then REFINE only the cells whose point count exceeds
    ``threshold`` to the fine level — the quadtree-style answer to skewed
    point densities (dense cities at fine cells, empty ocean at coarse).
    Output rows: (level 0 = coarse cell at or below threshold, level 1 =
    fine cell inside a hot coarse cell) with n_points + sum_value.

    ``coarse_fn`` / ``fine_fn``: vectorized (lon, lat) -> int64 cell ids.

    Ray shape: two passes over the points (the minimum for
    density-dependent refinement).  Pass 1: per-batch combiner +
    ``grouped_reduce`` coarse counts; the hot set (bounded by the coarse
    cell universe, NOT by the data — ``hot_cap`` guards the broadcast)
    ships once via ``ray.put``; every task reads one object-store copy.
    Pass 2: one pure map emits each point at its final (level, cell),
    then ONE grouped_reduce on (level, cell).  Points never join."""
    import ray

    from ..stages.groupagg import grouped_reduce

    def coarse_partial(t: pa.Table) -> pa.Table:
        lon = t[lon_col].to_numpy(zero_copy_only=False)
        lat = t[lat_col].to_numpy(zero_copy_only=False)
        c = coarse_fn(lon, lat)
        u, n = np.unique(c, return_counts=True)
        return pa.table({"_c": pa.array(u, pa.int64()),
                         "_n": pa.array(n.astype(np.int64))})

    counts = grouped_reduce(
        ds.map_batches(coarse_partial, batch_format="pyarrow"),
        "_c", {"_n": "_n"}, how="sum")
    hot_t = counts.filter(expr=f"_n > {int(threshold)}") \
                  .select_columns(["_c"]).to_pandas()
    if len(hot_t) > hot_cap:
        raise ValueError(
            f"adaptive_bin: {len(hot_t)} hot cells exceeds hot_cap="
            f"{hot_cap}; raise the threshold or coarsen the base level "
            "(the hot set is broadcast to every task)")
    hot_ref = ray.put(np.sort(hot_t["_c"].to_numpy().astype(np.int64)))

    def assign(t: pa.Table) -> pa.Table:
        hot = ray.get(hot_ref)
        lon = t[lon_col].to_numpy(zero_copy_only=False)
        lat = t[lat_col].to_numpy(zero_copy_only=False)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        c = coarse_fn(lon, lat)
        idx = np.searchsorted(hot, c)
        idx = np.minimum(idx, max(len(hot) - 1, 0))
        is_hot = (hot[idx] == c) if len(hot) else np.zeros(len(c), bool)
        # fine-encode ONLY the hot points (the fine encode dominates
        # per-point cost; np.where would evaluate it for every row)
        cell = c.copy()
        if is_hot.any():
            cell[is_hot] = fine_fn(lon[is_hot], lat[is_hot])
        level = is_hot.astype(np.int64)
        df = pd.DataFrame({"level": level, "cell": cell, "v": v})
        g = df.groupby(["level", "cell"], sort=False)["v"] \
              .agg(psum="sum", pcount="size").reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = grouped_reduce(ds.map_batches(assign, batch_format="pyarrow"),
                         ["level", "cell"],
                         {"psum": "sum_value", "pcount": "n_points"},
                         how="sum")
    return agg


def adaptive_bin_point_vals(ds: ray.data.Dataset, dggs_type: str = "IGEO7",
                            coarse_res: int = 4, fine_res: int = 6,
                            threshold: int = 10_000,
                            value_col: str = "value", lon_col: str = "lon",
                            lat_col: str = "lat", **kw) -> ray.data.Dataset:
    """``adaptive_bin`` over a DGGS grid pair (coarse_res -> fine_res):
    hot coarse cells re-bin their points at fine_res.  Uses the
    per-process cached grid engine inside the cell functions."""
    from ..stages.encode import grid_for

    dggs_c = dgselect(dggs_type, resolution=coarse_res, **kw)
    dggs_f = dgselect(dggs_type, resolution=fine_res, **kw)

    def coarse_fn(lon, lat, _d=dggs_c, _r=coarse_res):
        return np.asarray(grid_for(_d).encode(lon, lat, _r), np.int64)

    def fine_fn(lon, lat, _d=dggs_f, _r=fine_res):
        return np.asarray(grid_for(_d).encode(lon, lat, _r), np.int64)

    return adaptive_bin(ds, coarse_fn, fine_fn, threshold, value_col,
                        lon_col, lat_col)


def spacetime_bin(ds: ray.data.Dataset, lon_col: str, lat_col: str,
                  ts_col: str, value_col: str, deg: float = 1.0,
                  period_s: int = 604800) -> ray.data.Dataset:
    """Joint spatio-temporal cube: bin points to an equirectangular
    ``deg``-degree grid AND a ``period_s``-second epoch period in one
    pass, emitting (cell, period, n_points, sum_value).  The space-time
    twin of ``bin_point_vals``: the same within-batch combiner strategy
    (a hot (cell, week) — urban Zipf head x traffic spike — contributes
    at most one partial row per batch to the exchange).

    ``value_col`` must be integer-valued (pre-scaled cents/micros) so the
    sums are exact at any parallelism.  ``ts_col`` is a timestamp column;
    the period is ``epoch_seconds // period_s`` (SQL
    ``epoch_us(ts) // (period_s*1e6)`` parity — both floor toward -inf
    for the post-1970 domain).

    The final aggregate is the sort-based ``grouped_reduce`` on the
    (cell, period) key pair, so its working set stays bounded when
    cells x periods grows (fine grids over long histories)."""
    from ..stages.groupagg import grouped_reduce

    n_lon = int(round(360.0 / deg))

    def partial(t: pa.Table) -> pa.Table:
        lon = t[lon_col].to_numpy(zero_copy_only=False).astype(np.float64)
        lat = t[lat_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ts = t[ts_col].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        val = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cell = ((np.floor((lat + 90.0) / deg)).astype(np.int64) * n_lon
                + np.floor((lon + 180.0) / deg).astype(np.int64))
        period = ts // (int(period_s) * 1_000_000)
        df = pd.DataFrame({"cell": cell, "period": period, "v": val})
        g = df.groupby(["cell", "period"], sort=False).agg(
            n_points=("v", "size"), sum_value=("v", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    return grouped_reduce(ds.map_batches(partial, batch_format="pyarrow"),
                          ["cell", "period"],
                          {"n_points": "n_points", "sum_value": "sum_value"},
                          how="sum")
