"""Driver-contract query suite: every entry has a Ray Data implementation
here and (where SQL-expressible) a DuckDB oracle in ``oracle_sql()``.

Column names match the oracle exactly; float aggregates are rounded on both
sides to dodge summation-order ulps.  Grid queries that the oracle cannot
compute (IGEO7 cell ids) use closed-form oracles over ``range()`` where the
engine's algebra admits one (polyfill counts, children counts, codec
round-trips) and rows-only checks otherwise.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from ..dggs import igeo7 as ig
from ..stages.join import join_safe


def _iscale(arr, scale: int):
    """Exact cross-engine float compare: round(x*scale) as int64 (matches
    DuckDB CAST(ROUND(x*scale) AS BIGINT) except for astronomically unlikely
    exact .5 ties)."""
    import pyarrow as _pa
    vals = np.asarray(arr, dtype=np.float64)
    return _pa.array(np.round(vals * scale).astype(np.int64))


def _iscale_half_away(arr, scale: int) -> pa.Array:
    """Signed DuckDB ROUND parity: round-half-AWAY-from-zero (numpy's
    np.round is half-even and drifts by one on exact .5 products)."""
    v = np.asarray(arr, dtype=np.float64) * scale
    return pa.array((np.floor(np.abs(v) + 0.5)
                     * np.sign(v)).astype(np.int64))


def _cents_half_up(arr, scale: int = 100) -> np.ndarray:
    """Per-ROW positive-value integer scaling with DuckDB ROUND parity:
    round-half-AWAY (floor(x+0.5) for x >= 0), not numpy's half-even.
    Two-decimal inputs times two-decimal factors land exactly on .5
    often enough that _iscale's half-even would drift by one."""
    vals = np.asarray(arr, dtype=np.float64) * scale
    return np.floor(vals + 0.5).astype(np.int64)


def _read(sf_dir: str, table: str, columns=None) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _query_vec(ds: ray.data.Dataset, vec_id: int = 0,
               id_col: str = "vec_id",
               emb_col: str = "embedding") -> np.ndarray:
    """Fetch one embedding row as a float64 vector (streamed scan, stops
    at the first batch containing it)."""
    for b in ds.iter_batches(batch_size=1024, batch_format="pyarrow"):
        ids = b[id_col].to_numpy()
        hit = np.nonzero(ids == vec_id)[0]
        if len(hit):
            arr = b[emb_col]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            flat = np.asarray(arr.flatten(), dtype=np.float64)
            dim = len(flat) // b.num_rows
            return flat.reshape(b.num_rows, dim)[hit[0]]
    raise ValueError(f"_query_vec: {id_col}={vec_id} not found")


# ---------------------------------------------------------------------------
# relational
# ---------------------------------------------------------------------------

def q1_pricing(sf_dir: str):
    """TPC-H Q1-style pricing summary over lineitem."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity",
                                    "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        t = t.append_column("rev", rev)
        df = t.to_pandas()
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            sum_qty=("l_quantity", "sum"), sum_rev=("rev", "sum"),
            sum_disc=("l_discount", "sum"), n=("l_quantity", "size")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(["l_returnflag", "l_linestatus"])
             .aggregate(Sum("sum_qty", alias_name="sum_qty"),
                        Sum("sum_rev", alias_name="sum_rev"),
                        Sum("sum_disc", alias_name="sum_disc"),
                        Sum("n", alias_name="n")))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"], "l_linestatus": t["l_linestatus"],
            "sum_qty": _iscale(t["sum_qty"], 10000),
            "sum_revenue": _iscale(t["sum_rev"], 10000),
            "avg_disc": _iscale(pc.divide(t["sum_disc"], pc.cast(t["n"], pa.float64())), 1000000),
            "n": t["n"],
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def q3_top_revenue(sf_dir: str):
    """Top-10 orders by lineitem revenue (combiner + groupby + sort/limit)."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        df = pd.DataFrame({"l_orderkey": t["l_orderkey"].to_numpy(),
                           "rev": rev.to_numpy(zero_copy_only=False)})
        g = df.groupby("l_orderkey", sort=False)["rev"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("l_orderkey").aggregate(Sum("rev", alias_name="revenue")))
    top = agg.sort(["revenue", "l_orderkey"], descending=[True, False]).limit(10)
    return top.map_batches(
        lambda t: pa.table({"l_orderkey": t["l_orderkey"],
                            "revenue": _iscale(t["revenue"], 10000)}),
        batch_format="pyarrow")


def q5_nation_revenue(sf_dir: str):
    """Revenue per nation: broadcast only the TRUE small dim (the 25-row
    nation table via ray.put); customer is O(sf)-sized, so orders⋈customer
    is a distributed hash join on c_custkey — neither fact-sized table ever
    materializes on the driver.  lineitem⋈orders is a second distributed
    join on l_orderkey; per-nation pre-aggregation inside each post-join
    batch feeds the final 25-row groupby."""
    import ray
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    lut = np.empty(int(nation["n_nationkey"].max()) + 1, dtype=object)
    lut[nation["n_nationkey"].to_numpy()] = nation["n_name"].to_numpy()
    nref = ray.put(lut)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    orders_k = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        lambda t: pa.table({"l_orderkey": t["o_orderkey"],
                            "c_custkey": t["o_custkey"]}),
        batch_format="pyarrow")
    oc = join_safe(orders_k, cust, join_type="inner", num_partitions=8,
                       on=("c_custkey",))

    class ToNation:
        def __init__(self):
            self.lut = ray.get(nref)

        def __call__(self, t: pa.Table) -> pa.Table:
            names = self.lut[t["c_nationkey"].to_numpy()]
            return pa.table({"l_orderkey": t["l_orderkey"],
                             "n_name": pa.array(names, type=pa.string())})

    orders = oc.map_batches(ToNation, batch_format="pyarrow", concurrency=(1, 4))

    def li_rev(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"l_orderkey": t["l_orderkey"], "rev": rev})

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]) \
        .map_batches(li_rev, batch_format="pyarrow")
    joined = join_safe(li, orders, join_type="inner", num_partitions=8,
                     on=("l_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"n_name": t["n_name"].to_numpy(zero_copy_only=False),
                           "rev": t["rev"].to_numpy(zero_copy_only=False)})
        g = df.groupby("n_name", sort=False)["rev"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (joined.map_batches(partial, batch_format="pyarrow")
                 .groupby("n_name").aggregate(Sum("rev", alias_name="revenue")))
    return agg.map_batches(
        lambda t: pa.table({"n_name": t["n_name"],
                            "revenue": _iscale(t["revenue"], 10000)}),
        batch_format="pyarrow")


def events_daily(sf_dir: str):
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day")
        df = pd.DataFrame({"day": day.to_pandas(), "event_type": t["event_type"].to_numpy(zero_copy_only=False),
                           "value": t["value"].to_numpy()})
        g = df.groupby(["day", "event_type"], sort=False).agg(
            n=("value", "size"), sum_value=("value", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(["day", "event_type"])
             .aggregate(Sum("n", alias_name="n"), Sum("sum_value", alias_name="sv")))
    return agg.map_batches(
        lambda t: pa.table({"day": t["day"], "event_type": t["event_type"], "n": t["n"],
                            "sum_value": _iscale(t["sv"], 10000)}),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# grid: SQL-checkable via integer-derived coordinates / closed forms
# ---------------------------------------------------------------------------

def latlon_bin_events(sf_dir: str):
    """Deterministic integer-derived coords -> 1-degree grid binning with a
    within-batch combiner (the bin_point_vals dataflow with a SQL-expressible
    cell function)."""
    ds = _read(sf_dir, "events", ["event_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lon_centi = (eid * 7919) % 36000
        lat_centi = (eid * 104729) % 18000
        cell = (lat_centi // 100) * 360 + (lon_centi // 100)
        df = pd.DataFrame({"cell": cell, "value": t["value"].to_numpy()})
        g = df.groupby("cell", sort=False).agg(psum=("value", "sum"),
                                               pcount=("value", "size")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("cell").aggregate(Sum("psum", alias_name="s"),
                                        Sum("pcount", alias_name="n_points")))
    return agg.map_batches(
        lambda t: pa.table({"cell": t["cell"], "n_points": t["n_points"],
                            "avg_value": _iscale(pc.divide(t["s"],
                                                           pc.cast(t["n_points"], pa.float64())),
                                                 1000000)}),
        batch_format="pyarrow")


def presence_latlon_events(sf_dir: str):
    """BIN_POINT_PRESENCE dataflow on the 1-degree grid: distinct event
    types per cell + counts (SQL-checkable)."""
    ds = _read(sf_dir, "events", ["event_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lon_centi = (eid * 7919) % 36000
        lat_centi = (eid * 104729) % 18000
        cell = (lat_centi // 100) * 360 + (lon_centi // 100)
        df = pd.DataFrame({"cell": cell,
                           "event_type": t["event_type"].to_numpy(zero_copy_only=False)})
        g = df.groupby(["cell", "event_type"], sort=False).size().reset_index(name="pc")
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(["cell", "event_type"]).aggregate(Sum("pc", alias_name="n")))

    def per_cell(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("event_type")
        return pd.DataFrame({"cell": [g["cell"].iloc[0]],
                             "classes": [",".join(g["event_type"])],
                             "num_classes": [len(g)],
                             "n_points": [int(g["n"].sum())]})

    return agg.groupby("cell").map_groups(per_cell, batch_format="pandas")


def zonal_synthetic(sf_dir: str):
    """Raster zonal mean over a deterministic synthetic pixel grid with a
    nodata mask (the raster->points->bin pipeline; SQL-checkable via range())."""
    n = 120_000
    ds = ray.data.range(n, override_num_blocks=16)

    def pix(t: pa.Table) -> pa.Table:
        i = t["id"].to_numpy()
        lon_centi = (i % 400) * 5 + 1000
        lat_centi = (i // 400) * 5 + 3000
        value = ((i * 7919) % 10000).astype(np.float64) / 100.0
        nodata = (i * 31) % 17 == 0
        cell = (lat_centi // 100) * 360 + lon_centi // 100
        df = pd.DataFrame({"cell": cell[~nodata], "value": value[~nodata]})
        g = df.groupby("cell", sort=False).agg(psum=("value", "sum"),
                                               pcount=("value", "size")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(pix, batch_format="pyarrow")
             .groupby("cell").aggregate(Sum("psum", alias_name="s"),
                                        Sum("pcount", alias_name="n_pixels")))
    return agg.map_batches(
        lambda t: pa.table({"cell": t["cell"], "n_pixels": t["n_pixels"],
                            "mean_value": _iscale(pc.divide(t["s"],
                                                            pc.cast(t["n_pixels"], pa.float64())),
                                                  1000000)}),
        batch_format="pyarrow")


def polyfill_whole_earth(sf_dir: str):
    """Whole-earth polyfill at res 3 -> SEQNUM ids; oracle = range(1, 3433).
    End-to-end check of the descent generator + seqnum codec."""
    from .highlevel import grid_cellids_for_extent
    ds = grid_cellids_for_extent("IGEO7", 3, output_address_type="SEQNUM")
    return ds.map_batches(lambda t: pa.table({"seqnum": t["seqnum"]}),
                          batch_format="pyarrow")


def children_counts(sf_dir: str):
    """Children counts of every res-2 cell (pentagon 6, hexagon 7);
    closed-form oracle via p(2)=41."""
    n = ig.num_cells(2)
    ds = ray.data.range(n, override_num_blocks=4)

    def kids(t: pa.Table) -> pa.Table:
        seq = t["id"].to_numpy() + 1
        z = ig.seqnum_to_z7(seq, 2)
        ch = ig.z7_children(z)
        cnt = (ch != ig.INVALID_ID).sum(axis=1)
        return pa.table({"seqnum": pa.array(seq, type=pa.int64()),
                         "n_children": pa.array(cnt, type=pa.int64())})

    return ds.map_batches(kids, batch_format="pyarrow")


def codec_roundtrip(sf_dir: str):
    """SEQNUM -> Z7 -> Z7_STRING -> Z7_HEX -> Q2DI -> SEQNUM identity at
    res 3 (oracle = range); also emits the string-derived resolution."""
    from ..dggs.codecs import AddressCodec
    from ..stages.encode import make_grid
    from ..config import dgselect
    n = ig.num_cells(3)
    ds = ray.data.range(n, override_num_blocks=4)
    dggs = dgselect("IGEO7", resolution=3)

    class RT:
        def __init__(self):
            self.codec = AddressCodec(make_grid(dggs), 3)

        def __call__(self, t: pa.Table) -> pa.Table:
            seq = t["id"].to_numpy() + 1
            c = self.codec
            z = c.parse(seq, "SEQNUM")
            s = c.emit(z, "Z7_STRING")
            z2 = c.parse(s, "Z7_STRING")
            h = c.emit(z2, "Z7_HEX")
            z3 = c.parse(h, "Z7_HEX")
            q, i, j = c.emit(z3, "Q2DI")
            z4 = c.parse((q, i, j), "Q2DI")
            back = c.emit(z4, "SEQNUM")
            res = np.array([len(x) - 2 for x in s], dtype=np.int64)
            return pa.table({"seqnum": pa.array(back, type=pa.int64()),
                             "str_res": pa.array(res, type=pa.int64())})

    return ds.map_batches(RT, batch_format="pyarrow", concurrency=(1, 2))


# ---------------------------------------------------------------------------
# training-data operators
# ---------------------------------------------------------------------------

def dedup_exact_docs(sf_dir: str):
    # hash="md5" pinned: the oracle compares the text_md5 VALUE itself
    # (library default is the vectorized "fast" lane)
    from ..stages.dedup import exact_dedup
    return exact_dedup(_read(sf_dir, "documents", ["doc_id", "text"]),
                       text_col="text", id_col="doc_id", hash="md5")


def text_stats_by_lang(sf_dir: str):
    ds = _read(sf_dir, "documents", ["text", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        texts = t["text"].to_numpy(zero_copy_only=False)
        chars = np.fromiter((len(x) for x in texts), dtype=np.int64, count=len(texts))
        spaces = np.fromiter((x.count(" ") for x in texts), dtype=np.int64, count=len(texts))
        df = pd.DataFrame({"lang": t["lang"].to_numpy(zero_copy_only=False),
                           "chars": chars, "spaces": spaces})
        g = df.groupby("lang", sort=False).agg(n_docs=("chars", "size"),
                                               sum_chars=("chars", "sum"),
                                               sum_spaces=("spaces", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    return (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("lang").aggregate(Sum("n_docs", alias_name="n_docs"),
                                         Sum("sum_chars", alias_name="sum_chars"),
                                         Sum("sum_spaces", alias_name="sum_spaces")))


def ann_top10(sf_dir: str):
    """Brute-force cosine top-10 vs the vec_id=0 embedding (float64 math to
    match the DuckDB oracle)."""
    import ray
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = _query_vec(ds)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qref = ray.put(q)

    class Scorer:
        def __init__(self):
            self.q = ray.get(qref)
            self.qn = self.q / np.linalg.norm(self.q)

        def __call__(self, t: pa.Table) -> pa.Table:
            arr = t["embedding"]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            flat = np.asarray(arr.flatten(), dtype=np.float64)
            emb = flat.reshape(t.num_rows, len(flat) // max(t.num_rows, 1))
            norms = np.linalg.norm(emb, axis=1)
            cos = (emb @ self.qn) / np.where(norms == 0, 1.0, norms)
            k = min(16, len(cos))
            top = np.argpartition(-cos, k - 1)[:k]
            return pa.table({"vec_id": pa.array(t["vec_id"].to_numpy()[top]),
                             "cosine": pa.array(cos[top])})

    part = ds.map_batches(Scorer, batch_format="pyarrow", concurrency=(1, 2)).to_pandas()
    part = part.sort_values(["cosine", "vec_id"], ascending=[False, True]).head(10)
    part = part.reset_index(drop=True)
    part["rank"] = np.arange(1, len(part) + 1)
    return pa.table({"rank": pa.array(part["rank"].to_numpy(dtype=np.int64)),
                     "vec_id": pa.array(part["vec_id"].to_numpy(dtype=np.int64)),
                     "cosine": _iscale(part["cosine"].to_numpy(), 1000000)})


# ---------------------------------------------------------------------------
# grid + LLM-data pipelines whose oracles are planted/derived/pinned
# ---------------------------------------------------------------------------

_PLANT_OFF = 10_000_000


def _plant_dups(id_col: str, k: int = 32):
    """map_batches fn: re-emit the rows with id < k under id + _PLANT_OFF —
    deterministic planted duplicates whose exact pair list is the oracle
    (identical payload -> the sketch statistic is exact: est_jaccard 1.0,
    hamming 0, cosine 1.0)."""
    def plant(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy()
        sel = np.nonzero(ids < k)[0]
        if not len(sel):
            return t
        dup = t.take(pa.array(sel, type=pa.int64()))
        dup = dup.set_column(dup.column_names.index(id_col), id_col,
                             pa.array(dup[id_col].to_numpy() + _PLANT_OFF))
        return pa.concat_tables([t, dup])
    return plant


def _planted_only(t: pa.Table, value_col: str, out_col: str, scale: int) -> pa.Table:
    """Keep exactly the planted (i, i+_PLANT_OFF) pairs."""
    left = t["left_id"].to_numpy(zero_copy_only=False)
    right = t["right_id"].to_numpy(zero_copy_only=False)
    keep = pa.array((right - left) == _PLANT_OFF)
    f = t.filter(keep)
    return pa.table({"left_id": f["left_id"], "right_id": f["right_id"],
                     out_col: _iscale(f[value_col].to_numpy(zero_copy_only=False),
                                      scale)})


def igeo7_encode_events(sf_dir: str):
    """Flagship encode of integer-derived event coordinates at res 9 +
    per-cell binning.  IGEO7 res-9 ids are not SQL-expressible, so the
    oracle checks conservation through the encode+shuffle (total points and
    total value mass = the events table) plus the pinned occupied-cell
    count (a regression literal, like the golden VALUES oracles)."""
    from .binning import bin_point_vals
    ds = _read(sf_dir, "events", ["event_id", "value"])

    def coords(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lon = ((eid * 7919) % 36000).astype(np.float64) / 100.0 - 180.0
        lat = ((eid * 104729) % 18000).astype(np.float64) / 100.0 - 90.0
        return (t.append_column("lon", pa.array(lon))
                 .append_column("lat", pa.array(lat)))

    out = bin_point_vals(ds.map_batches(coords, batch_format="pyarrow"),
                         "IGEO7", resolution=9, value_col="value",
                         output_sum=True)
    cells = out.to_pandas()  # one small row per occupied cell (post-aggregate)
    return pa.table({
        "n_cells": pa.array([len(cells)], type=pa.int64()),
        "n_points": pa.array([int(cells["count_value"].sum())], type=pa.int64()),
        "sum_value": _iscale(np.array([cells["sum_value"].sum()]), 10000),
    })


def spans_cell_assignments(sf_dir: str, n_docs: int = 5000):
    """Interleaved text+media documents (input_hint): per-span cell ids with
    span sequence preserved.  Returns the per-doc span/geo-assignment table;
    the driver query wraps it in a histogram (see spans_hist_query) whose
    values are pinned from the deterministic generator's closed form."""
    from ..sources.spans_table import spans_dataset
    from ..stages.spans import doc_cell_assignments
    ds = spans_dataset(n_docs, batch_rows=1000)
    out = doc_cell_assignments(ds, resolution=9)

    def report(t: pa.Table) -> pa.Table:
        arr = t["span_cell_ids"]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        offsets = arr.offsets.to_numpy()
        flat = np.asarray(arr.values)
        hits = np.concatenate([[0], np.cumsum((flat != -1).astype(np.int64))])
        n_geo = hits[offsets[1:]] - hits[offsets[:-1]]
        return pa.table({"doc_id": t["doc_id"],
                         "n_spans": pc.list_value_length(t["spans"]),
                         "n_geo": pa.array(n_geo, type=pa.int64())})

    return out.map_batches(report, batch_format="pyarrow")


def spans_assignment_hist(sf_dir: str):
    """Histogram of the flagship spans pipeline: docs and geo-span cell
    assignments per span count.  Every geo span gets a cell (encode is
    total), so sum_geo = geo-span count — pinned from the deterministic
    generator (VALUES oracle)."""
    per_doc = spans_cell_assignments(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"n_spans": t["n_spans"].to_numpy(zero_copy_only=False),
                           "n_geo": t["n_geo"].to_numpy(zero_copy_only=False)})
        g = df.groupby("n_spans", sort=False).agg(
            n_docs=("n_geo", "size"), sum_geo=("n_geo", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    return (per_doc.map_batches(partial, batch_format="pyarrow")
            .groupby("n_spans").aggregate(Sum("n_docs", alias_name="n_docs"),
                                          Sum("sum_geo", alias_name="sum_geo")))


def minhash_pairs_docs(sf_dir: str):
    """MinHash-LSH near-dup pairs over documents + 32 planted exact
    duplicates; the oracle is the exact planted pair list (identical text
    -> identical signature -> est_jaccard exactly 1.0, found in its first
    band).  The full corpus (532 docs incl. natural near-dups) runs through
    the pipeline; the filter keeps the deterministic subset."""
    from ..stages.dedup import minhash_lsh_dedup
    docs = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(_plant_dups("doc_id"), batch_format="pyarrow")
    pairs = minhash_lsh_dedup(docs, num_perm=32, bands=8, threshold=0.5)
    return pairs.map_batches(
        lambda t: _planted_only(t, "est_jaccard", "est_jacc", 1000000),
        batch_format="pyarrow")


def ngram_verified_pairs(sf_dir: str):
    """EXACT character-3-gram Jaccard verifier over the all-pairs candidate
    set of the first 200 documents — the verification stage of the
    sketch-finder -> exact-verify pattern, driven with an exhaustive
    candidate list precisely so DuckDB can compute the identical answer
    (gram-set self-join oracle).  The candidate table joins the documents
    table twice to fetch texts; only candidate rows move."""
    from ..stages.dedup import ngram_jaccard_pairs
    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda t: t.filter(pc.less(t["doc_id"], 200)), batch_format="pyarrow")
    iu, ju = np.triu_indices(200, 1)
    cand = ray.data.from_arrow(pa.table({
        "left_id": pa.array(iu.astype(np.int64)),
        "right_id": pa.array(ju.astype(np.int64))}))
    out = ngram_jaccard_pairs(cand, docs, n=3, min_jaccard=0.5)
    return out.map_batches(
        lambda t: pa.table({"left_id": t["left_id"], "right_id": t["right_id"],
                            "jacc": _iscale(t["jaccard"].to_numpy(zero_copy_only=False),
                                            1000000)}),
        batch_format="pyarrow")


def simhash_pairs_docs(sf_dir: str):
    """SimHash near-dup pairs (banded 16-bit buckets, first-matching-band
    emission) + 32 planted exact duplicates; oracle = the planted pair list
    (identical text -> identical simhash -> hamming exactly 0)."""
    from ..stages.dedup import simhash_dedup
    docs = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(_plant_dups("doc_id"), batch_format="pyarrow")
    pairs = simhash_dedup(docs, max_hamming=3)
    return pairs.map_batches(
        lambda t: _planted_only(t, "hamming", "hamming", 1),
        batch_format="pyarrow")


def embedding_dup_pairs(sf_dir: str):
    """Embedding-cosine near-dup pairs via hyperplane-LSH buckets with
    recursive splitting.  The synthetic embeddings are near-orthogonal (no
    natural dups), so the first 32 vectors are re-emitted under offset ids
    as planted duplicates; oracle = the exact planted pair list (identical
    vector -> cosine 1.0, scaled at 1e3 to absorb float32 matmul ulps)."""
    from ..stages.dedup import embedding_dedup
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"]) \
        .map_batches(_plant_dups("vec_id"), batch_format="pyarrow")
    pairs = embedding_dedup(ds, id_col="vec_id", threshold=0.95, nbits=10)
    return pairs.map_batches(
        lambda t: _planted_only(t, "cosine", "cos_1e3", 1000),
        batch_format="pyarrow")


def ann_ivf_top10(sf_dir: str):
    """IVF top-10 for the 4 query vectors vec_id 0..3, run in its exact
    configuration (nprobe = n_centroids probes every list, so the result
    degenerates to exact brute force) — the full IVF machinery (centroid
    training, list assignment, probe filter) executes and the DuckDB
    brute-force oracle checks it; pytest covers recall at nprobe <
    n_centroids."""
    import ray
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qb = ds.map_batches(lambda t: t.filter(pc.less(t["vec_id"], 4)),
                        batch_format="pyarrow").to_pandas().sort_values("vec_id")
    q = np.stack([np.asarray(v, dtype=np.float64) for v in qb["embedding"]])
    from ..stages.ann import ivf_topk
    t = ivf_topk(ds, q, k=10, n_centroids=32, nprobe=32)
    return pa.table({
        "query_id": pa.array(np.asarray(t["query_idx"]), type=pa.int64()),
        "rank": pa.array(np.asarray(t["rank"]), type=pa.int64()),
        "vec_id": pa.array(np.asarray(t["vec_id"]), type=pa.int64()),
        "cosine": _iscale(np.asarray(t["cosine"]), 1000000),
    })


def sliding_events_7d(sf_dir: str):
    """Trailing 7-day sliding count/sum per event_type: tumbling daily
    pre-aggregation is the distributed work; the window pass runs over the
    tiny aggregated day table (see stages/temporal.sliding_window_daily)."""
    from ..stages.temporal import sliding_window_daily
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])
    t = sliding_window_daily(ds, "ts", "event_type", "value", window_days=7)
    return pa.table({"day": t["day"], "event_type": t["event_type"],
                     "n_window": t["n_window"],
                     "sum_window": _iscale(t["sum_window"].to_numpy(), 10000)})


def sessions_per_user(sf_dir: str):
    """Gap-based sessionization (1-hour gap) keyed on user_id: per-user
    event + session counts (stateful-streaming-style operator; the shuffle
    co-locates each user's events once)."""
    from ..stages.temporal import sessionize
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    return sessionize(ds, "user_id", "ts", gap_seconds=3600.0,
                      order_col="event_id")


def asof_events_markers(sf_dir: str):
    """Broadcast as-of join: every event matched to the latest weekly
    marker at or before its timestamp, then count + value mass per marker
    (zero-shuffle join; cf. DuckDB ASOF JOIN oracle)."""
    import datetime
    from ..stages.temporal import asof_join_broadcast
    ds = _read(sf_dir, "events", ["ts", "value"])
    markers = [(k, datetime.datetime(2024, 1, 1) + datetime.timedelta(days=7 * k))
               for k in range(5)]
    joined = asof_join_broadcast(ds, markers, "ts")

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"marker_id": t["marker_id"].to_numpy(zero_copy_only=False),
                           "value": t["value"].to_numpy(zero_copy_only=False)})
        g = df.groupby("marker_id", sort=False).agg(
            n=("value", "size"), s=("value", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (joined.map_batches(partial, batch_format="pyarrow")
                 .groupby("marker_id").aggregate(Sum("n", alias_name="n"),
                                                 Sum("s", alias_name="s")))
    return agg.map_batches(
        lambda t: pa.table({"marker_id": t["marker_id"], "n": t["n"],
                            "sum_value": _iscale(t["s"].to_numpy(zero_copy_only=False),
                                                 10000)}),
        batch_format="pyarrow")


def curation_pipeline(sf_dir: str):
    """End-to-end training-data curation composition: exact-dedup keep list
    (md5 + grouped-min) -> join back -> quality filter (length band) ->
    deterministic md5-bucket sample (~50%) -> per-lang stats.  Every stage
    is the production operator; the whole composition is SQL-oracled."""
    from ..stages.dedup import exact_dedup
    from ..stages.sampling import hash_sample
    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])
    keep = exact_dedup(docs, text_col="text", id_col="doc_id",
                       hash="md5").map_batches(
        lambda t: pa.table({"doc_id": t["keep_id"]}), batch_format="pyarrow")
    from ..stages.join import _join_partitions
    kept = join_safe(docs.map_batches(lambda t: t.select(["doc_id", "lang", "n_chars"]),
                            batch_format="pyarrow"), keep, join_type="inner", num_partitions=_join_partitions(),
              on=("doc_id",))
    filtered = kept.map_batches(
        lambda t: t.filter(pc.and_(pc.greater_equal(t["n_chars"], 120),
                                   pc.less(t["n_chars"], 400))),
        batch_format="pyarrow")
    # md5 pinned: the SQL twin filters on md5_number_upper membership
    sampled = hash_sample(filtered, key_col="doc_id", keep=50, buckets=100,
                          hash="md5")

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"lang": t["lang"].to_numpy(zero_copy_only=False),
                           "n_chars": t["n_chars"].to_numpy(zero_copy_only=False)})
        g = df.groupby("lang", sort=False).agg(
            n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    return (sampled.map_batches(partial, batch_format="pyarrow")
            .groupby("lang").aggregate(Sum("n_docs", alias_name="n_docs"),
                                       Sum("sum_chars", alias_name="sum_chars")))


def topk_docs_per_lang(sf_dir: str):
    """Top-3 documents by n_chars per language (per-batch partial top-k
    combiner -> bounded final per-group selection; ties broken by doc_id)."""
    from ..stages.relational import topk_per_group
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    out = topk_per_group(ds, "lang", "n_chars", k=3, id_col="doc_id")
    return out.map_batches(
        lambda t: t.select(["lang", "doc_id", "n_chars", "rank"]),
        batch_format="pyarrow")


def range_join_events(sf_dir: str):
    """Broadcast range join: events assigned to 10 deterministic half-open
    user_id intervals, then count + value sum per interval (no shuffle for
    the join itself — intervals broadcast once, searchsorted per batch)."""
    from ..stages.relational import range_join_broadcast
    ds = _read(sf_dir, "events", ["user_id", "value"])
    intervals = [(k, k * 20, k * 20 + 13) for k in range(10)]
    joined = range_join_broadcast(ds, intervals, point_col="user_id")

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"interval_id": t["interval_id"].to_numpy(zero_copy_only=False),
                           "value": t["value"].to_numpy(zero_copy_only=False)})
        g = df.groupby("interval_id", sort=False).agg(
            n=("value", "size"), s=("value", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (joined.map_batches(partial, batch_format="pyarrow")
                 .groupby("interval_id").aggregate(Sum("n", alias_name="n"),
                                                   Sum("s", alias_name="s")))
    return agg.map_batches(
        lambda t: pa.table({"interval_id": t["interval_id"], "n": t["n"],
                            "sum_value": _iscale(t["s"].to_numpy(zero_copy_only=False),
                                                 10000)}),
        batch_format="pyarrow")


def range_join_events_ll(sf_dir: str):
    """LARGE-LARGE range join (stages/relational.range_join_via_buckets,
    VERDICT r3 #5): events joined to a part-derived table of OVERLAPPING
    user_id intervals with BOTH sides as Datasets — bucket cogroup, every
    (event, interval) match emitted — then count + value mass per
    interval.  Cross-validated against the broadcast path in pytest and
    against a DuckDB inequality join here."""
    from ..stages.relational import range_join_via_buckets
    ev = _read(sf_dir, "events", ["user_id", "value"])
    part = _read(sf_dir, "part", ["p_partkey"])

    def mk_iv(t: pa.Table) -> pa.Table:
        pk = t["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        lo = ((pk * 7) % 140).astype(np.float64)
        return pa.table({"interval_id": pa.array(pk),
                         "lo": pa.array(lo), "hi": pa.array(lo + 5.0)})

    iv = part.map_batches(mk_iv, batch_format="pyarrow")
    joined = range_join_via_buckets(ev, iv, point_col="user_id")

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"interval_id": t["interval_id"].to_numpy(zero_copy_only=False),
                           "value": t["value"].to_numpy(zero_copy_only=False)})
        g = df.groupby("interval_id", sort=False).agg(
            n=("value", "size"), s=("value", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (joined.map_batches(partial, batch_format="pyarrow")
                 .groupby("interval_id").aggregate(Sum("n", alias_name="n"),
                                                   Sum("s", alias_name="s")))
    return agg.map_batches(
        lambda t: pa.table({"interval_id": t["interval_id"], "n": t["n"],
                            "sum_value": _iscale(t["s"].to_numpy(zero_copy_only=False),
                                                 10000)}),
        batch_format="pyarrow")


def asof_events_markers_ll(sf_dir: str):
    """LARGE-LARGE as-of join (stages/temporal.asof_join_via_buckets,
    VERDICT r3 #5): markers are a Dataset derived from the event stream
    itself (every event with event_id % 997 == 0), events matched to the
    latest marker at or before their timestamp via daily-bucket cogroup +
    broadcast carry table, then count + value mass per marker.  Oracle:
    DuckDB ASOF JOIN on the same derived marker table."""
    from ..stages.temporal import asof_join_via_buckets
    ev = _read(sf_dir, "events", ["event_id", "ts", "value"])

    def mk_markers(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        sel = (eid % 997) == 0
        return pa.table({"marker_id": pa.array(eid[sel].astype(np.int64)),
                         "ts": t["ts"].filter(pa.array(sel))})

    mk = ev.map_batches(mk_markers, batch_format="pyarrow")
    joined = asof_join_via_buckets(ev, mk, "ts", bucket_seconds=86400.0)

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"marker_id": t["marker_id"].to_numpy(zero_copy_only=False),
                           "value": t["value"].to_numpy(zero_copy_only=False)})
        g = df.groupby("marker_id", sort=False).agg(
            n=("value", "size"), s=("value", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (joined.map_batches(partial, batch_format="pyarrow")
                 .groupby("marker_id").aggregate(Sum("n", alias_name="n"),
                                                 Sum("s", alias_name="s")))
    return agg.map_batches(
        lambda t: pa.table({"marker_id": t["marker_id"], "n": t["n"],
                            "sum_value": _iscale(t["s"].to_numpy(zero_copy_only=False),
                                                 10000)}),
        batch_format="pyarrow")


def quantiles_by_flag(sf_dir: str):
    """EXACT per-group median of l_extendedprice by l_returnflag via the
    two-pass histogram-refine quantile (no global sort, no per-group
    materialization); matches DuckDB quantile_disc bit-for-bit."""
    from ..stages.relational import exact_group_quantile
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
    t = exact_group_quantile(ds, "l_returnflag", "l_extendedprice", q=0.5)
    return pa.table({"l_returnflag": t["l_returnflag"],
                     "median_price": _iscale(t["quantile"].to_numpy(), 100)})


def quantile_cont_by_flag(sf_dir: str):
    """EXACT per-group INTERPOLATED quantile (SQL quantile_cont /
    PERCENTILE_CONT) at q=0.37 — the two bracketing ranks via the
    histogram-refine finder, linear interpolation on the driver."""
    from ..stages.relational import exact_group_quantile_cont
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
    t = exact_group_quantile_cont(ds, "l_returnflag", "l_extendedprice",
                                  q=0.37)
    return pa.table({"l_returnflag": t["l_returnflag"],
                     "p37_price": _iscale(t["quantile"].to_numpy(), 100)})


def hash_sample_docs(sf_dir: str):
    """Deterministic md5-bucket sampling of documents (~5%): stable across
    runs and cluster sizes (resumable/auditable, unlike RNG sampling) and
    bit-identical to the DuckDB md5_number_upper oracle."""
    from ..stages.sampling import hash_sample
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return hash_sample(ds, key_col="doc_id", keep=5, buckets=100,
                       hash="md5")


def hll_distinct_users(sf_dir: str):
    """HyperLogLog approximate distinct user_id over events (two-phase
    combinable sketch: per-batch register maxima, one 2^p-byte reduction).
    The sketch is a deterministic function of the key set, so the estimate
    plus the exact distinct count are both oracle-checkable (the estimate
    via the deterministic HLL recomputed in SQL is not expressible — it is
    pinned; the exact count comes from COUNT(DISTINCT))."""
    from ..stages.sampling import hll_distinct
    ds = _read(sf_dir, "events", ["user_id"])
    approx = hll_distinct(ds, "user_id", p=12)

    def partial(t: pa.Table) -> pa.Table:
        u = np.unique(t["user_id"].to_numpy(zero_copy_only=False))
        return pa.table({"user_id": pa.array(u)})

    uniq = _read(sf_dir, "events", ["user_id"]) \
        .map_batches(partial, batch_format="pyarrow").to_pandas()
    exact = int(uniq["user_id"].nunique())
    return pa.table({"approx_distinct": pa.array([approx], type=pa.int64()),
                     "exact_distinct": pa.array([exact], type=pa.int64())})


def kring_res2(sf_dir: str):
    """k=1 neighbor rings for every res-2 cell via the NeighborKernel actor
    (north-star kNN cell rings).  Output keyed by SEQNUM; oracle = closed
    form (the 12 base pentagons sit at seqnum 1 mod 41 at res 2 and have 5
    neighbors, all other cells 6)."""
    from ..config import dgselect
    from ..stages.encode import NeighborKernel
    n = ig.num_cells(2)
    ds = ray.data.range(n, override_num_blocks=4)

    dggs = dgselect("IGEO7", resolution=2)

    def to_cells(t: pa.Table) -> pa.Table:
        from .highlevel import _grid_for
        seq = t["id"].to_numpy() + 1
        return pa.table({"seqnum": pa.array(seq, type=pa.int64()),
                         "cell_id": pa.array(_grid_for(dggs).from_seqnum(seq, 2),
                                             type=pa.int64())})
    out = ds.map_batches(to_cells, batch_format="pyarrow") \
            .map_batches(NeighborKernel(dggs), batch_format="pyarrow")
    return out.map_batches(
        lambda t: pa.table({"seqnum": t["seqnum"],
                            "n_neighbors": pc.list_value_length(t["neighbors"])}),
        batch_format="pyarrow")


def polyfill_clip_box(sf_dir: str):
    """Clipped polyfill over the reference conformance box
    (tests/test_legacy_driver_name.py:31-86: IGEO7, clip box
    27.2,57.5/29.3,59.2) at res 5; oracle = the 16 Z7_STRING ids pinned as
    a VALUES literal (DGGRID-bit-exact ids per the golden calibration)."""
    from .highlevel import grid_cellids_for_extent
    ds = grid_cellids_for_extent("IGEO7", 5, clip_bbox=(27.2, 57.5, 29.3, 59.2),
                                 output_address_type="Z7_STRING")
    return ds.map_batches(lambda t: pa.table({"z7_string": t["z7_string"]}),
                          batch_format="pyarrow")


_PIP_BOXES = [(k,
               -180.0 + k * 45.0 + 2.005, -60.0 + (k % 4) * 30.0 + 1.005,
               -180.0 + k * 45.0 + 32.005, -60.0 + (k % 4) * 30.0 + 21.005)
              for k in range(8)]   # disjoint; edges off the 0.01-deg point grid


def _event_points(sf_dir: str):
    ds = _read(sf_dir, "events", ["event_id", "value"])

    def coords(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lon = ((eid * 7919) % 36000).astype(np.float64) / 100.0 - 180.0
        lat = ((eid * 104729) % 18000).astype(np.float64) / 100.0 - 90.0
        return (t.append_column("lon", pa.array(lon))
                 .append_column("lat", pa.array(lat)))

    return ds.map_batches(coords, batch_format="pyarrow")


def _per_poly_summary(joined):
    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"poly_id": t["poly_id"].to_numpy(zero_copy_only=False),
                           "value": t["value"].to_numpy(zero_copy_only=False)})
        g = df.groupby("poly_id", sort=False).agg(
            n=("value", "size"), s=("value", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (joined.map_batches(partial, batch_format="pyarrow")
                 .groupby("poly_id").aggregate(Sum("n", alias_name="n"),
                                               Sum("s", alias_name="s")))
    return agg.map_batches(
        lambda t: pa.table({"poly_id": t["poly_id"], "n": t["n"],
                            "sum_value": _iscale(t["s"].to_numpy(zero_copy_only=False),
                                                 10000)}),
        batch_format="pyarrow")


def pip_join_events(sf_dir: str):
    """North-star point-in-polygon join (broadcast STRtree actor pool) of
    event points against 8 disjoint boxes, exactly SQL-oracled (box edges
    sit off the derived 0.01-degree point lattice, so containment is
    unambiguous)."""
    from ..geometry import wkb_polygon
    from ..stages.join import pip_join
    wkbs = [wkb_polygon([np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])])
            for _, x0, y0, x1, y1 in _PIP_BOXES]
    joined = pip_join(_event_points(sf_dir), wkbs, keep_unmatched=False)
    return _per_poly_summary(joined)


def spatial_cells_join_events(sf_dir: str):
    """The same join through the LARGE-LARGE path (both sides keyed by
    coarse cell, cogrouped, exact predicate locally) — cross-validates
    spatial_join_via_cells against the identical SQL oracle."""
    from ..geometry import wkb_polygon
    from ..stages.join import spatial_join_via_cells
    polys = pa.table({
        "poly_id": pa.array([k for k, *_ in _PIP_BOXES], type=pa.int64()),
        "geometry": pa.array(
            [wkb_polygon([np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])])
             for _, x0, y0, x1, y1 in _PIP_BOXES], type=pa.binary())})
    joined = spatial_join_via_cells(_event_points(sf_dir),
                                    ray.data.from_arrow(polys), coarse_res=3)
    return _per_poly_summary(joined)


def media_features_spans(sf_dir: str):
    """Multimodal plumbing in the driver gate: interleaved docs -> explode
    spans -> media fetch (actor pool, small batches) -> deterministic-fake
    decode -> feature summary.  The fake store/decoder are deterministic
    functions of the media_ref, so the summary is a pinned-literal oracle
    (the real-codec path is the same plumbing with decoder='pillow')."""
    from ..sources.spans_table import spans_dataset
    from ..stages.spans import explode_spans
    from ..stages.media import media_feature_pipeline
    rows = explode_spans(spans_dataset(2000, batch_rows=500))
    feat = media_feature_pipeline(rows)

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({
            "n": pa.array([t.num_rows], type=pa.int64()),
            "sz": pa.array([int(np.sum(t["media_size"].to_numpy(zero_copy_only=False)))
                            if t.num_rows else 0], type=pa.int64()),
            "w": pa.array([int(np.sum(t["img_width"].to_numpy(zero_copy_only=False)))
                           if t.num_rows else 0], type=pa.int64()),
            "h": pa.array([int(np.sum(t["img_height"].to_numpy(zero_copy_only=False)))
                           if t.num_rows else 0], type=pa.int64()),
        })

    s = feat.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pa.table({"n_media": pa.array([int(s["n"].sum())], type=pa.int64()),
                     "sum_bytes": pa.array([int(s["sz"].sum())], type=pa.int64()),
                     "sum_width": pa.array([int(s["w"].sum())], type=pa.int64()),
                     "sum_height": pa.array([int(s["h"].sum())], type=pa.int64())})


def dateline_split_res3(sf_dir: str):
    """Whole-earth res-3 polyfill with dateline splitting (reference
    post_process_split_dateline, dggrid_runner.py:1251-1274): crossing
    cells become 2 rows.  Oracle: closed-form cell count + pinned
    split-cell count (the antimeridian intersects 64 res-3 cells under the
    default orientation)."""
    from .highlevel import grid_cell_polygons_for_extent
    ds = grid_cell_polygons_for_extent("IGEO7", 3, split_dateline=True)

    def summarize(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"cell_id": t["cell_id"].to_numpy(zero_copy_only=False)})
        g = df.groupby("cell_id", sort=False).size().reset_index(name="k")
        return pa.Table.from_pandas(g, preserve_index=False)

    per_cell = (ds.map_batches(summarize, batch_format="pyarrow")
                  .groupby("cell_id").aggregate(Sum("k", alias_name="k"))).to_pandas()
    return pa.table({
        "n_cells": pa.array([len(per_cell)], type=pa.int64()),
        "n_rows": pa.array([int(per_cell["k"].sum())], type=pa.int64()),
        "n_split": pa.array([int((per_cell["k"] > 1).sum())], type=pa.int64()),
    })


def dggrid_golden_literals(sf_dir: str):
    """Pin the DGGRID binary's golden outputs as a driver-checked query
    (reference tests/test_dggrid.py:159-212 and :496-527): the 3 Z7 strings
    of the Oregon presence test (IGEO7 res 4) and the 12 ring-vertex
    coordinates of the two ISEA7H res-5 cells, all bit/coordinate-exact.
    Oracle = a VALUES list of the literals."""
    from ..config import dgselect
    from ..stages.encode import CellEncoder, BoundaryKernel
    from ..geometry import parse_wkb

    OREGON = [(-123.28, 44.57), (-122.87, 45.49), (-122.77, 45.43),
              (-123.09, 44.62), (-122.70, 45.41), (-123.02, 45.00),
              (-123.19, 45.21), (-122.60, 45.34), (-123.32, 42.44),
              (-122.77, 45.38), (-122.64, 45.37), (-122.62, 45.44),
              (-121.17, 45.60), (-122.86, 45.15), (-123.36, 43.22)]
    orient = dict(pole_lon_deg=11.20, pole_lat_deg=58.282525588538994675786,
                  azimuth_deg=0.0)
    dggs4 = dgselect("IGEO7", resolution=4, **orient)
    pts = pa.table({"lon": pa.array([p[0] for p in OREGON]),
                    "lat": pa.array([p[1] for p in OREGON])})
    ds = ray.data.from_arrow(pts).map_batches(
        CellEncoder(dggs4, output_address_type="Z7_STRING", out_col="cell"),
        batch_format="pyarrow")

    def to_rows(t: pa.Table) -> pa.Table:
        vals = sorted(set(t["cell"].to_pylist()))
        return pa.table({"kind": pa.array(["oregon_cell"] * len(vals)),
                         "value": pa.array(vals, type=pa.string())})

    oregon = ds.map_batches(lambda t: t.select(["cell"]), batch_format="pyarrow") \
               .map_batches(to_rows, batch_format="pyarrow")

    dggs5 = dgselect("ISEA7H", resolution=5, **orient)
    two = pa.table({"lon": pa.array([20.5, 21.0]), "lat": pa.array([57.5, 58.0])})
    cells = ray.data.from_arrow(two).map_batches(
        CellEncoder(dggs5), batch_format="pyarrow").map_batches(
        BoundaryKernel(dggs5), batch_format="pyarrow")

    # the golden zone numbers themselves (DGGRID quad-ij SEQNUM order,
    # reference tests/test_dggrid.py:496-527 zones 51548/51695)
    seqs = ray.data.from_arrow(two).map_batches(
        CellEncoder(dggs5, output_address_type="SEQNUM", out_col="zone"),
        batch_format="pyarrow").map_batches(
        lambda t: pa.table({"kind": pa.array(["golden_seqnum"] * t.num_rows),
                            "value": pa.array([str(v) for v in
                                               sorted(t["zone"].to_pylist())],
                                              type=pa.string())}),
        batch_format="pyarrow")

    def vert_rows(t: pa.Table) -> pa.Table:
        out = []
        for wkb in t["geometry"].to_pylist():
            _, rings = parse_wkb(bytes(wkb))
            ring = rings[0]
            for lon, lat in ring[:-1]:
                out.append(f"{round(lon * 10000):d},{round(lat * 10000):d}")
        return pa.table({"kind": pa.array(["vertex"] * len(out)),
                         "value": pa.array(sorted(out), type=pa.string())})

    return oregon.union(cells.map_batches(vert_rows, batch_format="pyarrow"),
                        seqs)


def z3_roundtrip(sf_dir: str):
    """Z3/Z3_STRING codec round-trip over the full ISEA3H res-3 cell
    universe (reference address types dggrid_runner.py:131-132): enumerate,
    index 1..N, convert CELL -> Z3 -> Z3_STRING -> back; identity iff the
    returned index column equals range(1, N+1) (the oracle)."""
    from ..dggs.isea4h import ISEA3HGrid
    res = 3
    n = ig.num_cells(res, aperture=3)
    ds = ray.data.range(n, override_num_blocks=4)

    def leg(t: pa.Table) -> pa.Table:
        from ..dggs.codecs import Z3Codec
        g = ISEA3HGrid()
        cells = np.sort(g.enumerate_cells(res))
        idx = t["id"].to_numpy()
        zc = Z3Codec(g, res)
        z3 = zc.emit(cells[idx], "Z3")
        s = zc.emit(zc.parse(z3, "Z3"), "Z3_STRING")
        back = zc.parse(s, "Z3_STRING")
        pos = np.searchsorted(cells, back)
        ok = cells[pos] == back
        assert ok.all()
        return pa.table({"idx": pa.array(pos + 1, type=pa.int64())})

    return ds.map_batches(leg, batch_format="pyarrow")


def isea43h_binning(sf_dir: str):
    """Mixed-aperture ISEA43H (PLANETRISK-family) value binning over events:
    encode -> per-cell sum/count.  Mixed-aperture ids are not
    SQL-expressible; the oracle checks conservation (total points + value
    mass = the events table) plus the pinned occupied-cell count."""
    from ..config import dgselect
    from ..stages.encode import CellEncoder
    dggs = dgselect("ISEA43H", resolution=5, mixed_aperture_level=2)
    ds = _read(sf_dir, "events", ["event_id", "value"])

    def coords(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lon = ((eid * 7919) % 36000).astype(np.float64) / 100.0 - 180.0
        lat = ((eid * 104729) % 18000).astype(np.float64) / 100.0 - 90.0
        return (t.append_column("lon", pa.array(lon))
                 .append_column("lat", pa.array(lat)))

    enc = ds.map_batches(coords, batch_format="pyarrow") \
            .map_batches(CellEncoder(dggs), batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"cell_id": t["cell_id"].to_numpy(zero_copy_only=False),
                           "value": t["value"].to_numpy(zero_copy_only=False)})
        g = df.groupby("cell_id", sort=False).agg(s=("value", "sum"),
                                                  n=("value", "size")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (enc.map_batches(partial, batch_format="pyarrow")
              .groupby("cell_id").aggregate(Sum("s", alias_name="sum_value"),
                                            Sum("n", alias_name="n_points")))
    cells = agg.to_pandas()  # small: one row per occupied res-5 cell
    return pa.table({
        "n_cells": pa.array([len(cells)], type=pa.int64()),
        "n_points": pa.array([int(cells["n_points"].sum())], type=pa.int64()),
        "sum_value": _iscale(np.array([cells["sum_value"].sum()]), 10000),
    })


def _chain_edges(sf_dir: str) -> ray.data.Dataset:
    """Deterministic duplicate-candidate PATH graph: an edge between each
    pair of doc_id-consecutive documents of the same lang.  Distributed
    construction: ONE range sort on (lang, doc_id), block-local consecutive
    pairing, plus a tiny driver-stitched table for the #blocks cross-block
    adjacencies (the sessionize/grouped_reduce boundary idiom)."""
    srt = (_read(sf_dir, "documents", ["doc_id", "lang"])
           .sort(["lang", "doc_id"]).materialize())

    def ends(t: pa.Table) -> pa.Table:
        lang = t["lang"].to_numpy(zero_copy_only=False)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        n = t.num_rows
        return pa.table({
            "first_lang": pa.array(lang[:1]), "first_id": pa.array(did[:1]),
            "last_lang": pa.array(lang[n - 1:n] if n else lang[:0]),
            "last_id": pa.array(did[n - 1:n] if n else did[:0])})

    rows = srt.map_batches(ends, batch_format="pyarrow").take_all()
    rows.sort(key=lambda r: (r["first_lang"], r["first_id"]))
    stitch_l, stitch_r = [], []
    for prev, nxt in zip(rows, rows[1:]):
        if prev["last_lang"] == nxt["first_lang"]:
            stitch_l.append(prev["last_id"])
            stitch_r.append(nxt["first_id"])

    def pairs(t: pa.Table) -> pa.Table:
        lang = t["lang"].to_numpy(zero_copy_only=False)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        same = lang[1:] == lang[:-1]
        return pa.table({"left_id": pa.array(did[:-1][same]),
                         "right_id": pa.array(did[1:][same])})

    edges = srt.map_batches(pairs, batch_format="pyarrow")
    if stitch_l:
        edges = edges.union(ray.data.from_arrow(pa.table({
            "left_id": pa.array(np.asarray(stitch_l, dtype=np.int64)),
            "right_id": pa.array(np.asarray(stitch_r, dtype=np.int64))})))
    return edges


def weighted_sample_docs(sf_dir: str):
    """Deterministic weighted sampling without replacement (A-Res
    hash-priority): 25 docs by n_chars weight — long docs proportionally
    likelier; zero shuffle on the corpus (per-batch top-k partials)."""
    from ..stages.sampling import weighted_sample
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    out = weighted_sample(ds, "doc_id", "n_chars", k=25)
    return out.sort("doc_id")


def heavy_tokens_docs(sf_dir: str):
    """Top-10 most frequent whitespace tokens corpus-wide via the
    mergeable Misra-Gries summary (capacity chosen above the corpus
    distinct-token count at gate scale => exact regime; pytest covers the
    bounded-error approximate regime)."""
    from ..stages.sampling import heavy_hitters
    ds = _read(sf_dir, "documents", ["text"])
    toks = ds.map_batches(
        lambda t: pa.table({"token": pc.list_flatten(
            pc.split_pattern(t["text"], " "))}),
        batch_format="pyarrow")
    out = heavy_hitters(toks, "token", k=10, capacity=65536)
    return out.select(["token", "cnt", "rank"])


def bloom_semijoin_events(sf_dir: str):
    """Large-large EXACT semi-join with Bloom runtime-filter pruning:
    events whose user_id belongs to a BUILDING-segment customer.  The big
    side is pruned by a broadcast Bloom filter BEFORE the join exchange
    (false positives removed by the distributed semi-join), then a small
    per-event_type aggregate."""
    from ..stages.bloom import bloom_semi_join
    events = _read(sf_dir, "events", ["user_id", "event_type", "value"])
    keys = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]) \
        .map_batches(lambda t: t.filter(
            pc.equal(t["c_mktsegment"], "BUILDING")).select(["c_custkey"]),
            batch_format="pyarrow")
    sj = bloom_semi_join(events, keys, "user_id", "c_custkey",
                         num_bits=1 << 16)

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": t["event_type"].to_numpy(zero_copy_only=False),
            "value": t["value"].to_numpy(zero_copy_only=False)})
        g = df.groupby("event_type", sort=False).agg(
            n=("value", "size"), s=("value", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (sj.map_batches(partial, batch_format="pyarrow")
             .groupby("event_type").aggregate(Sum("n", alias_name="n"),
                                              Sum("s", alias_name="s")))
    return agg.map_batches(
        lambda t: pa.table({"event_type": t["event_type"], "n": t["n"],
                            "sum_value": _iscale(
                                t["s"].to_numpy(zero_copy_only=False),
                                10000)}),
        batch_format="pyarrow").sort("event_type")


def knn_sites_events(sf_dir: str):
    """Geographic kNN join: each event (formula-derived lat/lon, same
    convention as latlon_bin_events) tagged with its 3 nearest of 20
    deterministic reference sites by haversine; broadcast site set, zero
    shuffle, stable tie-break by site_id."""
    from ..stages.join import knn_join_broadcast
    ds = _read(sf_dir, "events", ["event_id"])

    def coords(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lon = ((eid * 7919) % 36000).astype(np.float64) / 100.0 - 180.0
        lat = ((eid * 104729) % 18000).astype(np.float64) / 100.0 - 90.0
        return (t.append_column("lon", pa.array(lon))
                 .append_column("lat", pa.array(lat)))

    sites = [(j, ((j * 37) % 140) - 70 + 0.5, ((j * 73) % 360) - 180 + 0.5)
             for j in range(20)]
    out = knn_join_broadcast(ds.map_batches(coords, batch_format="pyarrow"),
                             sites, k=3)
    return (out.map_batches(
        lambda t: t.select(["event_id", "site_id", "rank"]),
        batch_format="pyarrow").sort(["event_id", "rank"]))


def pack_sequences_docs(sf_dir: str):
    """GPT-style sequence packing: docs concatenated in doc_id order into
    512-token training sequences (whitespace token counts); each doc's
    (seq_id, seq_offset) comes from ONE distributed prefix scan — exactly
    the SQL window SUM, at any parallelism."""
    from ..stages.scan import pack_sequences
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    toks = ds.map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"],
            "tokens": pc.cast(pc.list_value_length(
                pc.split_pattern(t["text"], " ")), pa.int64())}),
        batch_format="pyarrow")
    out = pack_sequences(toks, "doc_id", "tokens", budget=512)
    return out.map_batches(
        lambda t: t.select(["doc_id", "tokens", "seq_id", "seq_offset"]),
        batch_format="pyarrow")


def quantile_sketch_events(sf_dir: str):
    """Mergeable one-pass quantile sketch over events.value, read at
    q=0.25/0.5/0.75.  Run in the exact regime (k >= n, no compaction) so
    the DuckDB quantile_disc oracle matches bit-for-bit; the approximate
    regime's error bound is pytest-covered."""
    from ..stages.quantile_sketch import quantile_sketch, sketch_quantiles
    ds = _read(sf_dir, "events", ["value"])
    n = ds.count()
    sk = quantile_sketch(ds, "value", k=max(1024, int(n) + 1))
    qs = [0.25, 0.5, 0.75]
    vals = sketch_quantiles(sk, qs)
    return pa.table({"q": pa.array([int(q * 100) for q in qs], pa.int64()),
                     "value": _iscale(vals, 10000)})


def stratified_sample_docs(sf_dir: str):
    """Per-group rebalancing sample: keep ~20% of 'en' docs, 100% of 'ja',
    ~50% of everything else (deterministic md5-bucket membership per
    group), then per-lang counts — the language-rebalancing step of a
    curation pipeline, exactly reproduced by the SQL CASE oracle."""
    from ..stages.sampling import stratified_sample
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    kept = stratified_sample(ds, "doc_id", "lang",
                             rates={"en": 20, "ja": 100}, default_keep=50)

    def partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({"lang": t["lang"].to_numpy(zero_copy_only=False)})
        out = g.groupby("lang", sort=False).size().reset_index(name="n")
        return pa.Table.from_pandas(out, preserve_index=False)

    return (kept.map_batches(partial, batch_format="pyarrow")
                .groupby("lang").aggregate(Sum("n", alias_name="n_docs"))
                .sort("lang"))


def cc_clusters_docs(sf_dir: str):
    """Transitive duplicate-cluster consolidation: connected components
    (alternating large-star/small-star) over a PATH graph of per-lang
    doc_id-consecutive candidate pairs.  Components are ~lang-sized chains
    (tens to hundreds of hops), so the result is only right if cluster ids
    propagate transitively across the whole path — cluster_id must equal
    MIN(doc_id) OVER (PARTITION BY lang), which is the oracle."""
    from ..stages.components import connected_components
    out = connected_components(_chain_edges(sf_dir))
    return out.sort("doc_id")


def dedup_canonical_docs(sf_dir: str):
    """Cluster-canonical dedup keep-list: connected components over the
    chain pairs -> keep one doc per cluster (the min id) via ONE
    distributed anti-join; lang singletons (absent from any pair) are kept
    as their own canonical."""
    from ..stages.components import connected_components, keep_canonical
    assign = connected_components(_chain_edges(sf_dir))
    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    return keep_canonical(docs, assign).sort("doc_id")


def epoch_shuffle_docs(sf_dir: str):
    """First 20 documents in the deterministic epoch-1 training shuffle
    order (stages/sampling.epoch_shuffle) — the oracle reproduces the
    exact permutation with ORDER BY md5_number_upper('1:' || doc_id)."""
    from ..stages.sampling import epoch_shuffle

    ds = _read(sf_dir, "documents", ["doc_id"])
    head = epoch_shuffle(ds, "doc_id", epoch=1).limit(20).to_pandas()
    return pa.table({
        "pos": pa.array(np.arange(1, len(head) + 1, dtype=np.int64)),
        "doc_id": pa.array(head["doc_id"].to_numpy()),
    })


def redact_docs(sf_dir: str):
    """Redact a token pattern from every document (stages/text.Redactor,
    Arrow RE2) and summarize per language — the oracle applies DuckDB's
    regexp_replace(..., 'g') to the same pattern and must agree
    byte-for-byte on the redacted lengths and changed-doc counts."""
    from ..stages.text import Redactor

    ds = _read(sf_dir, "documents", ["lang", "text"])
    red = ds.map_batches(Redactor([(r"\b(key|hash)\b", "<ID>")]),
                         batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        changed = pc.cast(pc.not_equal(t["text_redacted"], t["text"]),
                          pa.int64())
        chars = pc.cast(pc.utf8_length(t["text_redacted"]), pa.int64())
        df = pd.DataFrame({
            "lang": t["lang"].to_numpy(zero_copy_only=False),
            "n_redacted": changed.to_numpy(zero_copy_only=False),
            "sum_chars_redacted": chars.to_numpy(zero_copy_only=False)})
        g = df.groupby("lang", sort=False).agg(
            n_docs=("n_redacted", "size"), n_redacted=("n_redacted", "sum"),
            sum_chars_redacted=("sum_chars_redacted", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (red.map_batches(partial, batch_format="pyarrow")
              .groupby("lang")
              .aggregate(Sum("n_docs", alias_name="n_docs"),
                         Sum("n_redacted", alias_name="n_redacted"),
                         Sum("sum_chars_redacted",
                             alias_name="sum_chars_redacted")))
    return agg.sort("lang")


def rollup_latlon_events(sf_dir: str):
    """Multi-resolution pyramid over the 1-degree grid: bin events ONCE at
    the finest level, then fold the aggregate up two bisection levels
    (stages/rollup.hierarchical_rollup) — the oracle recomputes every level
    directly from the raw points, so the fold must conserve counts and
    sums per coarse cell exactly."""
    from ..stages.rollup import hierarchical_rollup

    ds = _read(sf_dir, "events", ["event_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lon_idx = (eid * 7919) % 36000 // 100
        lat_idx = (eid * 104729) % 18000 // 100
        cell = lat_idx * 360 + lon_idx
        df = pd.DataFrame({"cell": cell, "value": t["value"].to_numpy()})
        g = df.groupby("cell", sort=False).agg(
            s=("value", "sum"), n_points=("value", "size")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    finest = (ds.map_batches(partial, batch_format="pyarrow")
                .groupby("cell").aggregate(Sum("s", alias_name="s"),
                                           Sum("n_points",
                                               alias_name="n_points")))

    def parent(cells: np.ndarray) -> np.ndarray:
        lat, lon = cells // 360, cells % 360
        return (lat // 2) * 360 + (lon // 2)

    rolled = hierarchical_rollup(finest, "cell", ["s", "n_points"],
                                 parent, levels=2)
    return rolled.map_batches(
        lambda t: pa.table({"level": t["level"], "cell": t["cell"],
                            "n_points": t["n_points"],
                            "sum_value": _iscale(t["s"], 10000)}),
        batch_format="pyarrow")


def rollup_z7_events(sf_dir: str):
    """IGEO7 Z7 pyramid: encode+bin events at res 5, fold to res 2 via the
    Z7 parent law (stages/rollup.rollup_z7).  Z7 ids are not
    SQL-expressible, so the oracle checks per-level conservation (points
    and value mass = the events table at EVERY level) plus the pinned
    occupied-cell count per level (regression literals, the
    igeo7_encode_events pattern)."""
    from .binning import bin_point_vals
    from ..stages.rollup import rollup_z7

    ds = _read(sf_dir, "events", ["event_id", "value"])

    def coords(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lon = ((eid * 7919) % 36000).astype(np.float64) / 100.0 - 180.0
        lat = ((eid * 104729) % 18000).astype(np.float64) / 100.0 - 90.0
        return (t.append_column("lon", pa.array(lon))
                 .append_column("lat", pa.array(lat)))

    binned = bin_point_vals(ds.map_batches(coords, batch_format="pyarrow"),
                            "IGEO7", resolution=5, value_col="value",
                            output_sum=True).map_batches(
        lambda t: t.select(["cell_id", "sum_value", "count_value"]),
        batch_format="pyarrow")
    rolled = rollup_z7(binned, "cell_id", ["sum_value", "count_value"],
                       from_res=5, to_res=2)

    def per_level(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"res": t["res"].to_numpy(),
                           "sum_value": t["sum_value"].to_numpy(),
                           "count_value": t["count_value"].to_numpy()})
        g = df.groupby("res", sort=False).agg(
            n_cells=("count_value", "size"), n_points=("count_value", "sum"),
            sv=("sum_value", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (rolled.map_batches(per_level, batch_format="pyarrow")
                 .groupby("res")
                 .aggregate(Sum("n_cells", alias_name="n_cells"),
                            Sum("n_points", alias_name="n_points"),
                            Sum("sv", alias_name="sv")))
    return agg.map_batches(
        lambda t: pa.table({"res": t["res"], "n_cells": t["n_cells"],
                            "n_points": t["n_points"],
                            "sum_value": _iscale(t["sv"], 10000)}),
        batch_format="pyarrow").sort("res")


def contamination_docs(sf_dir: str):
    """Benchmark decontamination: docs with doc_id % 100 == 0 play the
    evaluation benchmark; every other doc gets its 3-gram overlap counted
    against the benchmark's distinct gram set (broadcast via ray.put,
    corpus side is a pure map — stages/contamination.py)."""
    from ..stages.contamination import benchmark_gram_set, contamination_check

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def split(pred):
        def f(t: pa.Table) -> pa.Table:
            m = (t["doc_id"].to_numpy() % 100 == 0)
            return t.filter(pa.array(m if pred else ~m))
        return f

    bench = ds.map_batches(split(True), batch_format="pyarrow")
    rest = ds.map_batches(split(False), batch_format="pyarrow")
    grams = benchmark_gram_set(bench, n=3)
    return contamination_check(rest, grams, n=3).sort("doc_id")


def repetition_docs(sf_dir: str):
    """Gopher-style repetition signals (duplicate-2gram count, top-token
    count) as exact integers per document (stages/text.RepetitionScorer,
    one lexsort per batch, no per-doc Python)."""
    from ..stages.text import RepetitionScorer

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(RepetitionScorer,
                          fn_constructor_args=("text", "doc_id", 2),
                          batch_format="pyarrow",
                          concurrency=(1, 4)).sort("doc_id")


def token_df_top10(sf_dir: str):
    """Corpus document-frequency (TF-IDF denominator): vocabulary-sized
    groupby over per-batch (token, df, cf) partials, distributed
    multi-key sort, top 10."""
    from ..stages.text import token_document_frequency

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    agg = token_document_frequency(ds)
    return agg.sort(["df", "cf", "tok"],
                    descending=[True, True, False]).limit(10)


def kmeans_step_embeddings(sf_dir: str):
    """One deterministic Lloyd iteration over the embeddings table
    (stages/cluster.kmeans_step): centroids = the 4 lowest-vec_id vectors,
    cosine assignment (lowest cluster wins ties), per-cluster member count
    and new-centroid mass.  Oracle recomputes the assignment with DuckDB's
    list_cosine_similarity over DOUBLE[] (same float64 math)."""
    from ..stages.cluster import kmeans_step

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    seed = ds.sort("vec_id").limit(4).to_pandas()
    C = np.stack([np.asarray(v, np.float64) for v in seed["embedding"]])
    newC, counts = kmeans_step(ds, C)
    mass = np.round(newC.sum(axis=1) * 10000).astype(np.int64)
    keep = counts > 0
    return pa.table({"cluster": pa.array(np.arange(len(C),
                                                   dtype=np.int64)[keep]),
                     "n_members": pa.array(counts[keep]),
                     "centroid_mass": pa.array(mass[keep])})


def inverted_index_docs(sf_dir: str):
    """Sharded inverted index over documents (stages/text.inverted_index,
    posting lists bounded per (token, 100-doc bucket) shard); returns the
    20 heaviest shards for gate-size output."""
    from ..stages.text import inverted_index

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    idx = inverted_index(ds, bucket_docs=100)
    return idx.sort(["df_bucket", "tok", "bucket"],
                    descending=[True, False, False]).limit(20)


def blocklist_filter_docs(sf_dir: str):
    """Broadcast anti-join blocklist filter (stages/relational
    .filter_not_in) then per-lang survivors' stats."""
    from ..stages.relational import filter_not_in

    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"])
    kept = filter_not_in(ds, "source", ["src1", "src7", "src13"])
    agg = kept.groupby("lang").aggregate(Count(alias_name="n_docs"),
                                         Sum("n_chars",
                                             alias_name="sum_chars"))
    return agg.sort("lang")


def zscore_by_lang(sf_dir: str):
    """Grouped standardization (stages/normalize.group_zscore): z-score
    n_chars within each lang (two-pass: combiner stats -> broadcast ->
    map), then per-lang within-1-sigma counts."""
    from ..stages.normalize import group_zscore

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    z = group_zscore(ds, "lang", "n_chars", out_col="z")

    def per_lang(t: pa.Table) -> pa.Table:
        zv = np.abs(t["z"].to_numpy())
        df = pd.DataFrame({"lang": t["lang"].to_pandas(),
                           "w": (zv <= 1.0).astype(np.int64), "a": zv})
        g = df.groupby("lang", sort=False).agg(
            n=("w", "size"), w=("w", "sum"), a=("a", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (z.map_batches(per_lang, batch_format="pyarrow")
            .groupby("lang").aggregate(Sum("n", alias_name="n_docs"),
                                       Sum("w", alias_name="n_within_1sigma"),
                                       Sum("a", alias_name="absz")))
    return agg.map_batches(
        lambda t: pa.table({"lang": t["lang"], "n_docs": t["n_docs"],
                            "n_within_1sigma": t["n_within_1sigma"],
                            "sum_absz": _iscale(t["absz"], 10000)}),
        batch_format="pyarrow").sort("lang")


def ntile_by_lang(sf_dir: str):
    """Distributed window ranking (stages/window.py): NTILE(4) OVER
    (PARTITION BY lang ORDER BY n_chars, doc_id) — one range sort,
    O(#blocks) driver carry chain for cross-block row numbers — then
    per-(lang, quartile) stats."""
    from ..stages.window import group_ntile

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    tiled = group_ntile(ds, "lang", ["n_chars", "doc_id"], 4,
                        out_col="quartile")
    agg = tiled.groupby(["lang", "quartile"]).aggregate(
        Count(alias_name="n_docs"), Sum("n_chars", alias_name="sum_chars"))
    return agg.sort(["lang", "quartile"])


def bloom_antijoin_events(sf_dir: str):
    """Large-large EXACT anti-join with Bloom splitting (the blocklist at
    scale): events whose user_id does NOT belong to a BUILDING-segment
    customer.  Bloom-negative rows (definite non-members) bypass the join
    exchange entirely; only the maybes go through the exact left_anti
    join (stages/bloom.bloom_anti_join)."""
    from ..stages.bloom import bloom_anti_join
    events = _read(sf_dir, "events", ["user_id", "event_type", "value"])
    keys = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]) \
        .map_batches(lambda t: t.filter(
            pc.equal(t["c_mktsegment"], "BUILDING")).select(["c_custkey"]),
            batch_format="pyarrow")
    aj = bloom_anti_join(events, keys, "user_id", "c_custkey",
                         num_bits=1 << 16)

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": t["event_type"].to_numpy(zero_copy_only=False),
            "value": t["value"].to_numpy(zero_copy_only=False)})
        g = df.groupby("event_type", sort=False).agg(
            n=("value", "size"), s=("value", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (aj.map_batches(partial, batch_format="pyarrow")
             .groupby("event_type")
             .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s")))
    return agg.map_batches(
        lambda t: pa.table({"event_type": t["event_type"], "n": t["n"],
                            "sum_value": _iscale(t["s"], 10000)}),
        batch_format="pyarrow").sort("event_type")


def pagerank_custsupp(sf_dir: str):
    """Distributed PageRank (stages/graph.py) over the customer->supplier
    purchase graph (edges = lineitem JOIN orders; supplier node ids
    offset by 1e6 to keep the two key spaces disjoint).  Two power
    iterations from the uniform start; simple (no dangling
    redistribution) semantics so the oracle is the same SQL recurrence."""
    from ..stages.graph import pagerank

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = join_safe(li, orders.repartition(8), join_type="inner",
                     num_partitions=8, on=("l_orderkey",),
                     right_on=("o_orderkey",))
    edges = joined.map_batches(
        lambda t: pa.table({
            "u": t["o_custkey"].combine_chunks().cast(pa.int64()),
            "v": pc.add(t["l_suppkey"].combine_chunks().cast(pa.int64()),
                        1000000)}),
        batch_format="pyarrow")
    ranks = pagerank(edges, iters=2, d=0.85)
    return ranks.map_batches(
        lambda t: pa.table({"node": t["node"],
                            "rank_e6": _iscale(t["rank"], 1000000)}),
        batch_format="pyarrow").sort("node")


def running_total_by_user(sf_dir: str):
    """Per-user running totals (SUM OVER PARTITION ORDER ROWS UNBOUNDED
    PRECEDING — stages/window.group_running_sum, one sort + O(#blocks)
    carry), checksummed per user so the whole prefix structure is
    oracle-verified."""
    from ..stages.window import group_running_sum

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    run = group_running_sum(ds, "user_id", ["ts", "event_id"], "value",
                            out_col="r")

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"user_id": t["user_id"].to_numpy(),
                           "r": t["r"].to_numpy()})
        g = df.groupby("user_id", sort=False).agg(
            n=("r", "size"), s=("r", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (run.map_batches(partial, batch_format="pyarrow")
              .groupby("user_id")
              .aggregate(Sum("n", alias_name="n_events"),
                         Sum("s", alias_name="s")))
    return agg.map_batches(
        lambda t: pa.table({"user_id": t["user_id"],
                            "n_events": t["n_events"],
                            "sum_running": _iscale(t["s"], 10000)}),
        batch_format="pyarrow").sort("user_id")


def curation_v2(sf_dir: str):
    """Capstone composition of the round-4b operators: drop benchmark-
    contaminated docs (3-gram overlap vs doc_id%100==0 benchmark), drop
    blocklisted sources, keep a deterministic 25% md5 sample, then
    per-lang survivor stats.  The WHOLE chain is one SQL oracle."""
    from ..stages.contamination import (benchmark_gram_set,
                                        contamination_check)
    from ..stages.relational import filter_not_in
    from ..stages.sampling import hash_sample

    docs = _read(sf_dir, "documents",
                 ["doc_id", "text", "lang", "source", "n_chars"])

    def split(pred):
        def f(t: pa.Table) -> pa.Table:
            m = (t["doc_id"].to_numpy() % 100 == 0)
            return t.filter(pa.array(m if pred else ~m))
        return f

    bench = docs.map_batches(split(True), batch_format="pyarrow")
    rest = docs.map_batches(split(False), batch_format="pyarrow")
    grams = benchmark_gram_set(bench, n=3)
    # anti-join on DIRTY ids (not semi on clean): docs too short to have
    # grams emit no contamination row but are trivially clean — the SQL
    # NOT IN (dirty) semantics keeps them
    dirty_ids = contamination_check(rest, grams, n=3).map_batches(
        lambda t: t.filter(pc.greater(t["n_hits"], 0)).select(["doc_id"]),
        batch_format="pyarrow")
    kept = filter_not_in(rest, "source", ["src1", "src7", "src13"])
    kept = hash_sample(kept, "doc_id", keep=25, buckets=100, hash="md5")
    surv = join_safe(kept, dirty_ids.repartition(2).materialize(),
                     join_type="left_anti", num_partitions=8,
                     on=("doc_id",))
    agg = surv.groupby("lang").aggregate(
        Count(alias_name="n_docs"), Sum("n_chars", alias_name="sum_chars"))
    return agg.sort("lang")


def q6_forecast_revenue(sf_dir: str):
    """TPC-H Q6 shape: pure pruned-read filter + global sum (one-row
    answer, no shuffle beyond the final combine)."""
    ds = _read(sf_dir, "lineitem",
               ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        sd = t["l_shipdate"].to_numpy(zero_copy_only=False)
        m = ((sd >= np.datetime64("1996-01-01"))
             & (sd < np.datetime64("1997-01-01"))
             & (t["l_discount"].to_numpy() >= 0.05)
             & (t["l_discount"].to_numpy() <= 0.07)
             & (t["l_quantity"].to_numpy() < 24))
        rev = (t["l_extendedprice"].to_numpy()[m]
               * t["l_discount"].to_numpy()[m])
        return pa.table({"s": pa.array([float(rev.sum())]),
                         "n": pa.array([np.int64(m.sum())])})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(None).aggregate(Sum("s", alias_name="s"),
                                      Sum("n", alias_name="n")))
    return agg.map_batches(
        lambda t: pa.table({"revenue": _iscale(t["s"], 10000),
                            "n_items": t["n"].cast(pa.int64())}),
        batch_format="pyarrow")


def q14_promo_revenue(sf_dir: str):
    """TPC-H Q14 shape: part is the bounded dim side -> broadcast
    partkey->is_promo lookup via ray.put; lineitem streams."""
    import ray as _ray
    part = _read(sf_dir, "part", ["p_partkey", "p_type"]).to_pandas()
    promo_ref = _ray.put((part["p_partkey"].to_numpy(),
                          part["p_type"].str.startswith("PROMO")
                          .to_numpy()))
    ds = _read(sf_dir, "lineitem",
               ["l_shipdate", "l_partkey", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        keys, is_promo = _ray.get(promo_ref)
        order = np.argsort(keys)
        sd = t["l_shipdate"].to_numpy(zero_copy_only=False)
        m = ((sd >= np.datetime64("1996-01-01"))
             & (sd < np.datetime64("1996-04-01")))
        pk = t["l_partkey"].to_numpy()[m]
        rev = (t["l_extendedprice"].to_numpy()[m]
               * (1.0 - t["l_discount"].to_numpy()[m]))
        pos = np.searchsorted(keys[order], pk)
        promo = is_promo[order][pos]
        return pa.table({"p": pa.array([float(rev[promo].sum())]),
                         "a": pa.array([float(rev.sum())])})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(None).aggregate(Sum("p", alias_name="p"),
                                      Sum("a", alias_name="a")))
    return agg.map_batches(
        lambda t: pa.table({"promo_pct": _iscale(
            pa.array(100.0 * t["p"].to_numpy() / t["a"].to_numpy()),
            10000)}),
        batch_format="pyarrow")


def q4_priority_semijoin(sf_dir: str):
    """TPC-H Q4 shape: EXISTS semi-join of two LARGE sides — distinct
    flagged lineitem orderkeys via ``grouped_reduce`` (high-cardinality
    safe, no hash Aggregate), then one distributed hash join onto orders
    and a bounded-key priority count.  Neither fact table is broadcast or
    driver-materialized."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.join import _join_partitions

    parts = _join_partitions()
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])

    def flagged(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["l_returnflag"], pa.scalar("R"))
        sub = t.filter(keep)
        return pa.table({"l_orderkey": sub["l_orderkey"],
                         "_one": pa.array(np.ones(sub.num_rows,
                                                  dtype=np.int64))})

    dk = grouped_reduce(li.map_batches(flagged, batch_format="pyarrow"),
                        key="l_orderkey", col_map={"_one": "_m"},
                        how="sum").repartition(parts)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = join_safe(orders, dk, join_type="inner", num_partitions=parts,
                         on=("o_orderkey",), right_on=("l_orderkey",))

    def pcount(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {"o_orderpriority": t["o_orderpriority"].to_numpy(
                zero_copy_only=False)})
        g = df.groupby("o_orderpriority", sort=False).size() \
              .rename("n").reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    return (joined.map_batches(pcount, batch_format="pyarrow")
                  .groupby("o_orderpriority")
                  .aggregate(Sum("n", alias_name="n"))
                  .map_batches(lambda t: pa.table(
                      {"o_orderpriority": t["o_orderpriority"],
                       "n": t["n"].cast(pa.int64())}),
                      batch_format="pyarrow"))


def rollup_pricing(sf_dir: str):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus) in one streaming pass
    (every batch emits partials for all three levels; one bounded
    aggregate)."""
    from ..stages.relational import rollup_aggregate

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice"])
    out = rollup_aggregate(ds, ["l_returnflag", "l_linestatus"],
                           sum_cols={"l_quantity": "sum_qty",
                                     "l_extendedprice": "sum_price"})
    return out.map_batches(
        lambda t: pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "sum_qty": _iscale(t["sum_qty"], 10000),
            "sum_price": _iscale(t["sum_price"], 100),
            "n": t["n"],
        }), batch_format="pyarrow")


def paragraph_dedup_docs(sf_dir: str):
    """Chunk-level exact dedup (Lee et al. 2022 granularity): every 8-word
    chunk survives only at its globally first occurrence; docs reassembled
    from surviving chunks.  Two range sorts, zero joins (see
    stages/dedup.paragraph_dedup)."""
    from ..stages.dedup import paragraph_dedup
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return paragraph_dedup(ds, words_per_chunk=8)


def idw_grid_events(sf_dir: str):
    """IDW interpolation of event values onto a 24x12 lon/lat site grid:
    per-batch (points x sites) haversine partials, bounded-key aggregate —
    point data never shuffles (stages/interp.idw_grid)."""
    from ..stages.interp import idw_grid
    pts = _event_points(sf_dir)
    agg = idw_grid(pts, value_col="value", nx=24, ny=12, eps=1e-6)
    return agg.map_batches(
        lambda t: pa.table({
            "si": t["si"], "sj": t["sj"],
            "idw": _iscale(t["sum_wv"].to_numpy()
                           / t["sum_w"].to_numpy(), 10000)}),
        batch_format="pyarrow")


def quality_gate_docs(sf_dir: str):
    """Percentile quality gate: per-lang p25 of n_chars via the exact
    two-pass histogram quantile (bounded group count), thresholds
    broadcast, survivors counted per lang — the 'drop the bottom quartile'
    curation step with no global sort."""
    import ray as _ray
    from ..stages.relational import exact_group_quantile

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    thr = exact_group_quantile(ds, "lang", "n_chars", q=0.25)
    lut = {l: v for l, v in zip(thr["lang"].to_pylist(),
                                thr["quantile"].to_pylist())}
    ref = _ray.put(lut)

    def survivors(t: pa.Table) -> pa.Table:
        lut_ = _ray.get(ref)
        lang = t["lang"].to_numpy(zero_copy_only=False)
        n = t["n_chars"].to_numpy(zero_copy_only=False)
        tvals = pd.Series(lang).map(lut_).to_numpy(dtype=np.float64)
        keep = n >= tvals
        df = pd.DataFrame({"lang": lang[keep], "n_chars": n[keep]})
        g = df.groupby("lang", sort=False).agg(
            n_docs=("n_chars", "size"),
            sum_chars=("n_chars", "sum")).reset_index()
        # typed empty: pd->Arrow on an all-filtered batch infers lang:null
        # (the known empty-block schema-loss pitfall)
        return pa.table({
            "lang": pa.array(g["lang"].to_numpy(), pa.string()),
            "n_docs": pa.array(g["n_docs"].to_numpy(), pa.int64()),
            "sum_chars": pa.array(g["sum_chars"].to_numpy(), pa.int64())})

    return (ds.map_batches(survivors, batch_format="pyarrow")
              .groupby("lang")
              .aggregate(Sum("n_docs", alias_name="n_docs"),
                         Sum("sum_chars", alias_name="sum_chars"))
              .map_batches(lambda t: pa.table(
                  {"lang": t["lang"],
                   "n_docs": t["n_docs"].cast(pa.int64()),
                   "sum_chars": t["sum_chars"].cast(pa.int64())}),
                  batch_format="pyarrow"))


def zonal_majority_events(sf_dir: str):
    """Zonal MAJORITY (modal class per cell — the GIS majority-resample /
    zonal-mode op): per-batch (cell, class) count partials →
    ``grouped_reduce`` global counts (high-cardinality safe) →
    ``topk_per_group`` k=1 with the deterministic (count desc, class asc)
    tie-break."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.relational import topk_per_group

    ds = _read(sf_dir, "events", ["event_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        cell = ((eid * 104729) % 18000 // 100) * 360 \
            + ((eid * 7919) % 36000 // 100)
        df = pd.DataFrame({"cell": cell,
                           "event_type": t["event_type"].to_numpy(
                               zero_copy_only=False)})
        g = df.groupby(["cell", "event_type"], sort=False).size() \
              .reset_index(name="pc")
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = grouped_reduce(ds.map_batches(partial, batch_format="pyarrow"),
                            key=["cell", "event_type"],
                            col_map={"pc": "n"}, how="sum")
    top = topk_per_group(counts, group_col="cell", value_col="n", k=1,
                         id_col="event_type", descending=True)
    return top.map_batches(
        lambda t: pa.table({"cell": t["cell"],
                            "majority_type": t["event_type"],
                            "n": t["n"].cast(pa.int64())}),
        batch_format="pyarrow")


class _Z7ToString:
    """map_batches actor: cell_id (Z7 int) -> z7_string column (codec
    built once per actor); shared by the morphology queries."""

    def __init__(self, dggs, res: int):
        from ..dggs.codecs import AddressCodec
        from ..stages.encode import make_grid
        self.codec = AddressCodec(make_grid(dggs), res)

    def __call__(self, t: pa.Table) -> pa.Table:
        z7 = t["cell_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = self.codec.emit(self.codec.parse(z7, "Z7"), "Z7_STRING")
        return pa.table({"z7_string": pa.array(s, pa.string())})


def dilate_clip_box(sf_dir: str):
    """Morphological dilation (1-ring buffer) of the 16-cell conformance
    clip-box polyfill at res 5 (stages/encode.dilate_cells: k-ring
    flat-emit + unique combiner + grouped_reduce distinct).  Oracle = the
    34 Z7_STRING ids pinned as VALUES, cross-validated against an
    independent driver-side neighbors() union
    (tests/test_round4c_ops.py)."""
    from ..config import dgselect
    from ..stages.encode import dilate_cells
    from .highlevel import grid_cellids_for_extent

    dggs = dgselect("IGEO7", resolution=5)
    cells = grid_cellids_for_extent("IGEO7", 5,
                                    clip_bbox=(27.2, 57.5, 29.3, 59.2))
    dilated = dilate_cells(cells, dggs, k=1)
    return dilated.map_batches(_Z7ToString, fn_constructor_args=(dggs, 5),
                               batch_format="pyarrow", concurrency=(1, 2))


def radius_join_events(sf_dir: str):
    """Large-large distance-band spatial join: all (event point, site)
    pairs within 500 km via lat/lon-bucket cogrouping
    (stages/join.radius_join_via_buckets — exact arcsin lon-window cover,
    ~9x site replication, ONE hash join, no broadcast)."""
    from ..stages.join import radius_join_via_buckets

    pts = _event_points(sf_dir).map_batches(
        lambda t: t.select(["event_id", "lon", "lat"]),
        batch_format="pyarrow")
    sid = np.arange(200, dtype=np.int64)
    sites = ray.data.from_arrow(pa.table({
        "sid": pa.array(sid),
        "slon": pa.array((sid * 37 % 360).astype(np.float64) - 180 + 0.5),
        "slat": pa.array((sid * 53 % 170).astype(np.float64) - 85 + 0.25),
    })).repartition(2)
    j = radius_join_via_buckets(pts, sites, radius_km=500.0)
    return j.map_batches(
        lambda t: pa.table({"event_id": t["event_id"], "sid": t["sid"],
                            "dist_km100": _iscale(t["dist_km"], 100)}),
        batch_format="pyarrow")


def erode_dilated_box(sf_dir: str):
    """Morphological OPENING of the conformance clip-box polyfill:
    erode(dilate(S)) with 1-ring structuring element
    (stages/encode.erode_cells — per-member neighbor emission +
    grouped_reduce in-set counts + one hash join against the member set).
    For this convex region the opening is exactly S, so the oracle is the
    SAME golden 16-id VALUES as ``polyfill_clip_box`` — an independent,
    DGGRID-calibrated pin, not a self-pin."""
    from ..config import dgselect
    from ..stages.encode import dilate_cells, erode_cells
    from .highlevel import grid_cellids_for_extent

    dggs = dgselect("IGEO7", resolution=5)
    cells = grid_cellids_for_extent("IGEO7", 5,
                                    clip_bbox=(27.2, 57.5, 29.3, 59.2))
    opened = erode_cells(dilate_cells(cells, dggs, k=1), dggs, k=1)
    return opened.map_batches(_Z7ToString, fn_constructor_args=(dggs, 5),
                              batch_format="pyarrow", concurrency=(1, 2))


def mad_by_flag(sf_dir: str):
    """Median absolute deviation per group — TWO exact quantile passes
    (median, then median of |x - m| with the 3-row median table broadcast
    into the second pass), each the no-global-sort histogram-refine
    quantile.  Robust-statistics building block, bit-exact vs
    quantile_disc."""
    import ray as _ray
    from ..stages.relational import exact_group_quantile

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
    med = exact_group_quantile(ds, "l_returnflag", "l_extendedprice", q=0.5)
    lut = dict(zip(med["l_returnflag"].to_pylist(),
                   med["quantile"].to_pylist()))
    ref = _ray.put(lut)

    def absdev(t: pa.Table) -> pa.Table:
        lut_ = _ray.get(ref)
        g = t["l_returnflag"].to_numpy(zero_copy_only=False)
        v = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        m = pd.Series(g).map(lut_).to_numpy(dtype=np.float64)
        return pa.table({"l_returnflag": t["l_returnflag"],
                         "dev": pa.array(np.abs(v - m))})

    # materialize: exact_group_quantile makes >=3 passes over its input —
    # without this each pass would re-read lineitem and re-run absdev
    dev = ds.map_batches(absdev, batch_format="pyarrow").materialize()
    mad = exact_group_quantile(dev, "l_returnflag", "dev", q=0.5)
    return pa.table({"l_returnflag": mad["l_returnflag"],
                     "mad100": _iscale(mad["quantile"].to_numpy(), 100)})


def ohlc_daily_events(sf_dir: str):
    """Daily OHLC rollup: open/close = value at the min/max event_id of
    the day (deterministic arg_min/arg_max), high/low = max/min value.
    Per-batch partials carry (argmin key, value) pairs — associative, so
    the bounded-day final combine is one vectorized pass over partial
    rows (no raw row ever leaves its batch)."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day").to_pandas()
        eid = t["event_id"].to_numpy()
        v = t["value"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"day": day, "eid": eid, "v": v})
        g = df.groupby("day", sort=False)
        imin = g["eid"].idxmin()
        imax = g["eid"].idxmax()
        out = pd.DataFrame({
            "day": imin.index,
            "open_eid": df["eid"].iloc[imin].to_numpy(),
            "open_v": df["v"].iloc[imin].to_numpy(),
            "close_eid": df["eid"].iloc[imax].to_numpy(),
            "close_v": df["v"].iloc[imax].to_numpy(),
            "high": g["v"].max().to_numpy(),
            "low": g["v"].min().to_numpy(),
        })
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = (ds.map_batches(partial, batch_format="pyarrow")
               .repartition(1))  # bounded key space: one partial row per
    # (day x input batch); the final combine sees answer-sized data

    def combine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"day": pa.array([], pa.timestamp("us")),
                             "open100": pa.array([], pa.int64()),
                             "high100": pa.array([], pa.int64()),
                             "low100": pa.array([], pa.int64()),
                             "close100": pa.array([], pa.int64())})
        df = t.to_pandas()
        g = df.groupby("day", sort=True)
        imin = g["open_eid"].idxmin()
        imax = g["close_eid"].idxmax()
        out = pd.DataFrame({
            "day": imin.index,
            "open100": np.round(df["open_v"].iloc[imin].to_numpy()
                                * 100).astype(np.int64),
            "high100": np.round(g["high"].max().to_numpy()
                                * 100).astype(np.int64),
            "low100": np.round(g["low"].min().to_numpy()
                               * 100).astype(np.int64),
            "close100": np.round(df["close_v"].iloc[imax].to_numpy()
                                 * 100).astype(np.int64),
        })
        return pa.Table.from_pandas(out, preserve_index=False)

    # batch_size=None: the combine must see the whole (answer-sized)
    # block, not 1024-row slices of it
    return parts.map_batches(combine, batch_format="pyarrow",
                             batch_size=None)


def first_last_by_user(sf_dir: str):
    """FIRST_VALUE / LAST_VALUE per partition at UNBOUNDED key
    cardinality (the arg_min/arg_max dual of the bounded-key OHLC): two
    ``group_row_number`` carry-chain passes (ascending and
    negated-order), rn==1 filters keep whole rows, one user-sized hash
    join zips them.  Driver state stays O(#blocks) — per-user partitions
    at 10^9 users are fine."""
    from ..stages.join import _join_partitions
    from ..stages.window import group_row_number

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def keyed(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]") \
            .astype(np.int64)
        return pa.table({"user_id": t["user_id"],
                         "k1": pa.array(ts), "k2": t["event_id"],
                         "nk1": pa.array(-ts),
                         "nk2": pa.array(-t["event_id"].to_numpy()),
                         "value": t["value"]})

    kd = ds.map_batches(keyed, batch_format="pyarrow")
    first = group_row_number(
        kd.map_batches(lambda t: t.select(["user_id", "k1", "k2", "value"]),
                       batch_format="pyarrow"),
        "user_id", ["k1", "k2"], out_col="_rn")
    first = first.map_batches(
        lambda t: pa.table({"user_id": t["user_id"],
                            "first_v": t["value"]}).filter(
            pc.equal(t["_rn"], pa.scalar(1, pa.int64()))),
        batch_format="pyarrow")
    last = group_row_number(
        kd.map_batches(lambda t: t.select(["user_id", "nk1", "nk2",
                                           "value"]),
                       batch_format="pyarrow"),
        "user_id", ["nk1", "nk2"], out_col="_rn")
    last = last.map_batches(
        lambda t: pa.table({"_u": t["user_id"],
                            "last_v": t["value"]}).filter(
            pc.equal(t["_rn"], pa.scalar(1, pa.int64()))),
        batch_format="pyarrow")
    parts = _join_partitions()
    j = join_safe(first.repartition(parts), last.repartition(parts),
                                      join_type="inner",
                                      num_partitions=parts,
                                      on=("user_id",), right_on=("_u",))
    return j.map_batches(
        lambda t: pa.table({"user_id": t["user_id"],
                            "first100": _iscale(t["first_v"], 100),
                            "last100": _iscale(t["last_v"], 100)}),
        batch_format="pyarrow")


def doc_embed_norms(sf_dir: str):
    """Cross-table join of the two wide corpora: documents ⋈ embeddings
    on doc_id = vec_id (distributed hash join — the vector payload is
    projected to a scalar norm per batch BEFORE the exchange, so only
    (id, norm) rows shuffle), then per-lang mean embedding L2 norm."""
    from ..stages.cluster import _emb_matrix
    from ..stages.join import _join_partitions

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def norms(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "norm": pa.array([], pa.float64())})
        X = _emb_matrix(t, "embedding")
        return pa.table({"vec_id": t["vec_id"],
                         "norm": pa.array(np.sqrt((X * X).sum(axis=1)))})

    nrm = emb.map_batches(norms, batch_format="pyarrow")
    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    parts = _join_partitions()
    j = join_safe(docs, nrm.repartition(parts), join_type="inner",
                  num_partitions=parts, on=("doc_id",),
                  right_on=("vec_id",))

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"lang": t["lang"].to_numpy(zero_copy_only=False),
                           "norm": t["norm"].to_numpy(zero_copy_only=False)})
        g = df.groupby("lang", sort=False).agg(
            n=("norm", "size"), s=("norm", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    return (j.map_batches(partial, batch_format="pyarrow")
             .groupby("lang")
             .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"))
             .map_batches(lambda t: pa.table(
                 {"lang": t["lang"], "n": t["n"].cast(pa.int64()),
                  "avg_norm": _iscale(t["s"].to_numpy()
                                      / t["n"].to_numpy(), 1000000)}),
                 batch_format="pyarrow"))


def rank_docs_by_chars(sf_dir: str):
    """Tie-aware RANK + DENSE_RANK per lang by n_chars (desc) at
    unbounded key cardinality — stages/window.group_rank: tie-class
    counts (grouped_reduce) → running count over the distinct table →
    one hash join back; no per-group Python, no O(#groups) driver
    state."""
    from ..stages.window import group_rank

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    neg = ds.map_batches(
        lambda t: t.append_column(
            "_negchars", pa.array(-t["n_chars"].to_numpy())),
        batch_format="pyarrow")
    ranked = group_rank(neg, "lang", "_negchars", out_col="rank",
                        dense_col="dense")
    return ranked.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"], "lang": t["lang"],
                            "n_chars": t["n_chars"],
                            "rank": t["rank"].cast(pa.int64()),
                            "dense": t["dense"].cast(pa.int64())}),
        batch_format="pyarrow")


def props_k_stats(sf_dir: str):
    """Semi-structured extraction: pull the integer 'k' field out of the
    JSON props column with ONE vectorized Arrow extract_regex kernel per
    batch (stages/text.extract_json_int_field — no per-row json.loads),
    then per-type count/sum."""
    from ..stages.text import extract_json_int_field

    ds = _read(sf_dir, "events", ["event_type", "props"])
    kd = extract_json_int_field(ds, "props", "k")

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": t["event_type"].to_numpy(zero_copy_only=False),
            "k": t["k"].to_numpy(zero_copy_only=False)})
        g = df.groupby("event_type", sort=False)["k"] \
              .agg(n="size", sum_k="sum").reset_index()
        return pa.table({
            "event_type": pa.array(g["event_type"].to_numpy(), pa.string()),
            "n": pa.array(g["n"].to_numpy(), pa.int64()),
            "sum_k": pa.array(g["sum_k"].to_numpy(), pa.int64())})

    return (kd.map_batches(partial, batch_format="pyarrow")
              .groupby("event_type")
              .aggregate(Sum("n", alias_name="n"),
                         Sum("sum_k", alias_name="sum_k"))
              .map_batches(lambda t: pa.table(
                  {"event_type": t["event_type"],
                   "n": t["n"].cast(pa.int64()),
                   "sum_k": t["sum_k"].cast(pa.int64())}),
                  batch_format="pyarrow"))


def lag_delta_events(sf_dir: str):
    """Bounded-frame window family: LAG(ts) OVER (PARTITION BY user_id
    ORDER BY ts, event_id) via stages/window.group_shift (one sort +
    O(#blocks) tail carry, vectorized shift) — inter-event gap in exact
    integer microseconds, null for each user's first event."""
    from ..stages.window import group_shift

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def to_us(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t["event_id"], "user_id": t["user_id"],
                         "ts_us": t["ts"].cast(pa.int64())})

    lagged = group_shift(ds.map_batches(to_us, batch_format="pyarrow"),
                         "user_id", ["ts_us", "event_id"], "ts_us",
                         k=1, out_col="prev_us")

    def finish(t: pa.Table) -> pa.Table:
        # ts fits float64 exactly (microseconds since 1970 < 2^53)
        prev = t["prev_us"]
        delta = pc.subtract(pc.cast(t["ts_us"], pa.float64()), prev)
        return pa.table({"event_id": t["event_id"],
                         "delta_us": pc.cast(delta, pa.int64())})

    return lagged.map_batches(finish, batch_format="pyarrow")


def moving_avg_events(sf_dir: str):
    """AVG(value) OVER (PARTITION BY user_id ORDER BY ts, event_id ROWS
    BETWEEN 2 PRECEDING AND CURRENT ROW) via
    stages/window.group_rolling_mean (segmented cumsum difference, tail
    carry of the last 2 values per block).  Scale 1000, not 100: with
    2-decimal values and frames of 1-3 rows, mean*1000 has denominator
    1, 2 or 3 -> never an exact .5, so numpy's half-to-even and DuckDB's
    half-away rounding always agree (at *100 a 2-row frame ties)."""
    from ..stages.window import group_rolling_mean

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def to_us(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t["event_id"], "user_id": t["user_id"],
                         "ts_us": t["ts"].cast(pa.int64()),
                         "value": t["value"]})

    rolled = group_rolling_mean(ds.map_batches(to_us, batch_format="pyarrow"),
                                "user_id", ["ts_us", "event_id"], "value",
                                window=3, out_col="mavg")
    return rolled.map_batches(
        lambda t: pa.table({"event_id": t["event_id"],
                            "mavg1000": _iscale(
                                t["mavg"].to_numpy(zero_copy_only=False),
                                1000)}),
        batch_format="pyarrow")


def corr_price_qty(sf_dir: str):
    """Grouped bivariate statistics (stages/normalize.grouped_moments2):
    Pearson corr + regression slope of extendedprice on quantity per
    (returnflag, linestatus) — one-pass sufficient-statistic partials,
    hash combine over the bounded 4-cell key space."""
    from ..stages.normalize import grouped_moments2

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice"])
    mom = grouped_moments2(ds, ["l_returnflag", "l_linestatus"],
                           "l_quantity", "l_extendedprice")

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False)
        sx = t["sx"].to_numpy(zero_copy_only=False)
        sy = t["sy"].to_numpy(zero_copy_only=False)
        sxx = t["sxx"].to_numpy(zero_copy_only=False)
        syy = t["syy"].to_numpy(zero_copy_only=False)
        sxy = t["sxy"].to_numpy(zero_copy_only=False)
        cov = (sxy - sx * sy / n) / (n - 1)
        vx = (sxx - sx * sx / n) / (n - 1)
        vy = (syy - sy * sy / n) / (n - 1)
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "n": pa.array(n.astype(np.int64)),
            "corr10k": _iscale(cov / np.sqrt(vx * vy), 10000),
            "slope100": _iscale(cov / vx, 100)})

    return (mom.map_batches(finish, batch_format="pyarrow")
               .sort(["l_returnflag", "l_linestatus"]))


def cube_pricing(sf_dir: str):
    """GROUP BY CUBE(l_returnflag, l_linestatus) in one streaming pass
    (stages/relational.cube_aggregate): per-batch partials for all 4
    grouping sets, one bounded hash combine — no second scan per set."""
    from ..stages.relational import cube_aggregate

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity"])
    out = cube_aggregate(ds, ["l_returnflag", "l_linestatus"],
                         sum_cols={"l_quantity": "qty"}, count_col="n")
    return out.map_batches(
        lambda t: pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "n": t["n"],
            "sum_qty100": _iscale(
                t["qty"].to_numpy(zero_copy_only=False), 100)}),
        batch_format="pyarrow").sort(["l_returnflag", "l_linestatus"])


_EVENT_CLASSES = ["click", "error", "purchase", "signup", "view"]


def pivot_user_events(sf_dir: str):
    """Conditional-aggregation PIVOT at unbounded key cardinality
    (stages/relational.pivot_counts): per-user event_type counts as one
    column per class — crosstab partials per batch, grouped_reduce
    combine (no driver state per user).  Classes passed explicitly (the
    synthetic vocabulary) so no discovery pass runs."""
    from ..stages.relational import pivot_counts

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    return pivot_counts(ds, "user_id", "event_type", _EVENT_CLASSES,
                        prefix="")


def user_entropy(sf_dir: str):
    """Shannon entropy (log2) of each user's event_type distribution,
    computed vectorized from the pivot_counts wide table — the counts
    are exact integers on both engines, so the float entropy agrees to
    ~1e-15 and the *10^4 rounding is tie-free in practice."""
    from ..stages.relational import pivot_counts

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    wide = pivot_counts(ds, "user_id", "event_type", _EVENT_CLASSES,
                          prefix="")

    def ent(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"user_id": t["user_id"],
                             "n_events": pa.array([], pa.int64()),
                             "ent10k": pa.array([], pa.int64())})
        c = np.stack([t[c].to_numpy(zero_copy_only=False)
                      for c in _EVENT_CLASSES], axis=1).astype(np.float64)
        n = c.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = c / n[:, None]
            h = np.where(p > 0, -p * np.log2(p), 0.0).sum(axis=1)
        return pa.table({"user_id": t["user_id"],
                         "n_events": pa.array(n.astype(np.int64)),
                         "ent10k": _iscale(h, 10000)})

    return wide.map_batches(ent, batch_format="pyarrow")


def compact_box_cells(sf_dir: str):
    """DGGS cell-set compaction (stages/encode.compact_cells, the H3
    compact analog on the Z7 tree): take the golden 16-cell res-5
    conformance-box cover, uncompact to res 7, punch one deterministic
    hole per cell (descendant '..25'), compact back.  Expected: per
    golden cell the '2' child stays expanded minus its '5' grandchild
    (6 res-7 cells) and the other 6 children promote to res 6 -> 192
    rows.  Oracle = the same two-level sibling-count compaction written
    in SQL over digit cross-joins of the pinned VALUES."""
    from ..stages.encode import compact_cells, uncompact_cells
    from .highlevel import grid_cellids_for_extent

    seed = grid_cellids_for_extent("IGEO7", 5,
                                   clip_bbox=(27.2, 57.5, 29.3, 59.2))
    fine = uncompact_cells(seed, 7)

    def punch(t: pa.Table) -> pa.Table:
        z = t["cell_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = ig.z7_to_string(z)
        keep = np.array([not v.endswith("25") for v in s])
        return pa.table({"cell_id": pa.array(z[keep], pa.int64())})

    comp = compact_cells(fine.map_batches(punch, batch_format="pyarrow"))

    def to_str(t: pa.Table) -> pa.Table:
        z = t["cell_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"z7_string": pa.array(ig.z7_to_string(z),
                                               pa.string())})

    return comp.map_batches(to_str, batch_format="pyarrow").sort("z7_string")


def q13_custdist(sf_dir: str):
    """TPC-H Q13: distribution of non-urgent order counts per customer,
    INCLUDING zero-order customers (LEFT OUTER join semantics — the
    first outer join in the suite).  Ray shape: per-customer order
    counts collapse via grouped_reduce (unbounded-key scale path), then
    ONE left_outer hash join against the customer key column (nulls ->
    0), then the distribution groupby over the answer-small c_count
    domain."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.join import _join_partitions

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]) \
        .filter(expr="o_orderpriority != '1-URGENT'")

    def ones(t: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": t["o_custkey"],
                         "_n": pa.array(np.ones(t.num_rows, np.int64))})

    counts = grouped_reduce(orders.map_batches(ones, batch_format="pyarrow"),
                            "o_custkey", {"_n": "c_count"}, how="sum") \
        .repartition(_join_partitions())   # reduce-derived join input
    cust = _read(sf_dir, "customer", ["c_custkey"])
    joined = join_safe(cust, counts, join_type="left_outer",
                       num_partitions=_join_partitions(),
                       on=("c_custkey",), right_on=("o_custkey",))

    def partial(t: pa.Table) -> pa.Table:
        c = pc.fill_null(t["c_count"], 0).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        u, n = np.unique(c, return_counts=True)
        return pa.table({"c_count": pa.array(u),
                         "custdist": pa.array(n.astype(np.int64))})

    dist = (joined.map_batches(partial, batch_format="pyarrow")
            .groupby("c_count").aggregate(Sum("custdist", alias_name="custdist")))
    return dist.sort(["custdist", "c_count"], descending=[True, True])


def q18_big_orders(sf_dir: str):
    """TPC-H Q18: large-volume orders (SUM(l_quantity) > 300 per order,
    HAVING + two big-big hash joins back to orders and customer).  The
    lineitem aggregate uses grouped_reduce (order-key cardinality scales
    with the data); only qualifying orders (answer-ish-sized) enter the
    join exchange."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.join import _join_partitions

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    sums = grouped_reduce(li, "l_orderkey", {"l_quantity": "sum_qty"},
                          how="sum")
    big = sums.filter(expr="sum_qty > 300") \
              .repartition(_join_partitions()).materialize()
    if big.count() == 0:   # wholly-empty join side would poison the join
        return pa.table({"c_name": pa.array([], pa.string()),
                         "o_custkey": pa.array([], pa.int64()),
                         "o_orderkey": pa.array([], pa.int64()),
                         "o_totalprice": pa.array([], pa.int64()),
                         "sum_qty": pa.array([], pa.int64())})
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])
    j = join_safe(big, orders, join_type="inner",
                 num_partitions=_join_partitions(),
                 on=("l_orderkey",), right_on=("o_orderkey",))
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    j2 = join_safe(j, cust, join_type="inner",
                num_partitions=_join_partitions(),
                on=("o_custkey",), right_on=("c_custkey",))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_name": t["c_name"],
            "o_custkey": t["o_custkey"],
            "o_orderkey": t["l_orderkey"],
            "o_totalprice": _iscale(t["o_totalprice"], 100),
            "sum_qty": _iscale(t["sum_qty"], 100),
        })

    return j2.map_batches(finish, batch_format="pyarrow") \
             .sort(["o_totalprice", "o_orderkey"], descending=[True, False])


def hll_users_by_type(sf_dir: str):
    """Per-group HyperLogLog APPROX_COUNT_DISTINCT(user_id) GROUP BY
    event_type, alongside the exact distributed distinct count (dedupe
    via grouped_reduce on the composite key, then count).  The sketch is
    a deterministic function of the key set, so the approx column is
    pinned in the oracle; the exact column comes from SQL
    COUNT(DISTINCT)."""
    from ..stages.groupagg import grouped_count_distinct
    from ..stages.sampling import hll_distinct_by_group

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    approx = hll_distinct_by_group(ds, "user_id", "event_type", p=12) \
        .to_pandas()
    exact = grouped_count_distinct(
        _read(sf_dir, "events", ["user_id", "event_type"]),
        "event_type", "user_id", out_col="exact_distinct").to_pandas()
    out = approx.merge(exact, on="event_type").sort_values(
        "event_type", ignore_index=True)
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "approx_distinct": pa.array(out["approx_distinct"], pa.int64()),
        "exact_distinct": pa.array(out["exact_distinct"], pa.int64())})


def tfidf_top3_docs(sf_dir: str):
    """Top-3 TF-IDF terms per document (stages/text.tfidf_topk): one
    vocab-bounded df aggregate, broadcast idf, one pure map over the
    corpus — text never shuffles.  Integer-scaled scores; tie-break
    (score desc, token asc) matches the oracle's ROW_NUMBER."""
    from ..stages.text import tfidf_topk

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return tfidf_topk(ds, "text", "doc_id", k=3).sort(["doc_id", "tok"])


def q15_top_supplier(sf_dir: str):
    """TPC-H Q15: supplier(s) achieving the maximum lineitem revenue —
    aggregate (grouped_reduce, unbounded supplier keys) -> global max
    (one scalar) -> filter -> one small hash join for the name.  The
    'WHERE agg = (SELECT MAX(agg))' correlated-scalar shape."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.join import _join_partitions

    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_extendedprice", "l_discount"])

    def rev(t: pa.Table) -> pa.Table:
        r = pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"l_suppkey": t["l_suppkey"], "_rev": r})

    per_supp = grouped_reduce(li.map_batches(rev, batch_format="pyarrow"),
                              "l_suppkey", {"_rev": "total_rev"}, how="sum")
    per_supp = per_supp.materialize()          # two consumers below
    best = per_supp.max("total_rev")
    # repartition coalesces reduce-derived empty schema-less blocks that
    # poison the Arrow hash join (known engine pitfall)
    top = per_supp.filter(expr=f"total_rev >= {best!r}") \
                  .repartition(_join_partitions())
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"])
    j = join_safe(top, supp, join_type="inner",
                 num_partitions=_join_partitions(),
                 on=("l_suppkey",), right_on=("s_suppkey",))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"s_suppkey": t["l_suppkey"], "s_name": t["s_name"],
                         "total_rev": _iscale(t["total_rev"], 100)})

    return j.map_batches(finish, batch_format="pyarrow").sort("s_suppkey")


def q22_dormant_customers(sf_dir: str):
    """TPC-H Q22 shape: above-average-balance customers with NO orders,
    counted per nation.  Broadcast scalar (two-pass avg) + the bloom
    anti-join scale path (order keys never broadcast; bloom-negative
    customers skip the exchange) + answer-small nation groupby."""
    from ..stages.bloom import bloom_anti_join

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])
    pos = cust.filter(expr="c_acctbal > 0.0")
    stats = pos.aggregate(Sum("c_acctbal", alias_name="s"),
                          Count(alias_name="n"))
    avg_bal = stats["s"] / stats["n"]
    rich = cust.filter(expr=f"c_acctbal > {avg_bal!r}")
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]) \
        .filter(expr="o_orderpriority == '1-URGENT'") \
        .select_columns(["o_custkey"])
    dormant = bloom_anti_join(rich, orders, "c_custkey", "o_custkey")

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "c_nationkey": t["c_nationkey"].to_numpy(zero_copy_only=False),
            "bal": t["c_acctbal"].to_numpy(zero_copy_only=False)})
        g = df.groupby("c_nationkey", sort=False)["bal"] \
              .agg(numcust="size", totbal="sum").reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (dormant.map_batches(partial, batch_format="pyarrow")
           .groupby("c_nationkey")
           .aggregate(Sum("numcust", alias_name="numcust"),
                      Sum("totbal", alias_name="totbal")))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_nationkey": pc.cast(t["c_nationkey"], pa.int64()),
            "numcust": pc.cast(t["numcust"], pa.int64()),
            "totbal": _iscale(t["totbal"], 100)})

    return agg.map_batches(finish, batch_format="pyarrow").sort("c_nationkey")


def dedup_prefer_source(sf_dir: str):
    """Provenance-preferring candidate dedup: one kept document per
    (lang, n_chars) candidate group, preferring the lowest source tier
    (tier = numeric source suffix mod 3) then doc_id — the 'curated
    source beats web crawl' rule as ONE packed-key grouped_reduce min
    (stages/dedup.prefer_one_per_group)."""
    from ..stages.dedup import prefer_one_per_group

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars", "source"])

    def tier(t: pa.Table) -> pa.Table:
        suf = pc.cast(pc.utf8_slice_codeunits(t["source"], 3, 99), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": t["doc_id"], "lang": t["lang"],
                         "n_chars": t["n_chars"],
                         "tier": pa.array(suf % 3, pa.int64())})

    kept = prefer_one_per_group(ds.map_batches(tier, batch_format="pyarrow"),
                                ["lang", "n_chars"], "tier", "doc_id")
    return kept.sort(["lang", "n_chars"])


def funnel_events(sf_dir: str):
    """Sequential conversion funnel view -> click -> purchase with a
    12-hour step window (stages/temporal.funnel_stages): one
    grouped_reduce min + one user-keyed hash join per step; outputs the
    stage each funnel-entrant reached."""
    from ..stages.temporal import funnel_stages

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    out = funnel_stages(ds, ["view", "click", "purchase"],
                        window_us=12 * 3600 * 1_000_000)
    return out.sort("user_id")


def cohort_retention_events(sf_dir: str):
    """Cohort retention matrix (first-activity-day cohorts x day offset,
    distinct active users) — stages/temporal.cohort_retention: three
    sort-path grouped_reduces + one user-keyed hash join."""
    from ..stages.temporal import cohort_retention

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return cohort_retention(ds).sort(["d0", "day_offset"])


def trajectory_length_by_user(sf_dir: str):
    """Per-user trajectory length over the event stream: LAG(event_id)
    OVER (PARTITION BY user ORDER BY ts, event_id) via the O(#blocks)
    tail-carry chain (stages/window.group_shift — unbounded users, no
    per-group Python), deterministic event->coord derivation, vectorized
    haversine, grouped_reduce sum.  The trajectory = the interleaved
    event stream read as an ordered geo path."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.window import group_shift
    from ..dggs.sphere import haversine_km

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    lag = group_shift(ds, "user_id", ["ts", "event_id"], "event_id",
                      k=1, out_col="prev_eid")

    def coords(e):
        lon = ((e * 7919) % 36000) / 100.0 - 180.0
        lat = ((e * 104729) % 18000) / 100.0 - 90.0
        return lon, lat

    def seglen(t: pa.Table) -> pa.Table:
        prev = t["prev_eid"].to_numpy(zero_copy_only=False)
        ok = ~np.isnan(prev)
        u = t["user_id"].to_numpy(zero_copy_only=False)[ok]
        pe = prev[ok].astype(np.int64)
        ce = t["event_id"].to_numpy(zero_copy_only=False)[ok]
        lon1, lat1 = coords(pe)
        lon2, lat2 = coords(ce)
        km = haversine_km(lon1, lat1, lon2, lat2, radius_km=6371.0)
        return pa.table({"user_id": pa.array(u),
                         "_km": pa.array(km, pa.float64()),
                         "_one": pa.array(np.ones(ok.sum(), np.int64))})

    red = grouped_reduce(lag.map_batches(seglen, batch_format="pyarrow"),
                         "user_id", {"_km": "_km", "_one": "n_segments"},
                         how={"_km": "sum", "_one": "sum"})

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"],
                         "n_segments": t["n_segments"],
                         "total_km": _iscale(t["_km"].to_numpy(), 1000)})

    return red.map_batches(finish, batch_format="pyarrow").sort("user_id")


def geodesic_trace_res2(sf_dir: str):
    """Great-circle cell trace (stages/trace.cells_along_geodesics, the
    H3 gridPathCells analog): Tallinn -> New York at res 2, emitted as
    (seq, z7_string).  The trace mechanism's adjacency law (consecutive
    cells are edge neighbors at 0.25 x CLS sampling) is property-tested
    in tests/test_trace.py; the driver oracle pins the path literals."""
    from ..config import dgselect
    from ..stages.trace import cells_along_geodesics

    t = pa.table({"seg_id": pa.array([0], pa.int64()),
                  "lon1": pa.array([24.75], pa.float64()),
                  "lat1": pa.array([59.44], pa.float64()),
                  "lon2": pa.array([-74.0], pa.float64()),
                  "lat2": pa.array([40.7], pa.float64())})
    dggs = dgselect("IGEO7", resolution=2)
    out = cells_along_geodesics(ray.data.from_arrow(t), dggs, 2)

    def to_str(tt: pa.Table) -> pa.Table:
        z = tt["cell_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"seq": tt["seq"],
                         "z7_string": pa.array(ig.z7_to_string(z),
                                               pa.string())})

    return out.map_batches(to_str, batch_format="pyarrow").sort("seq")


def adaptive_bin_events(sf_dir: str):
    """Adaptive variable-resolution binning (pipelines/binning.adaptive_bin)
    on the SQL-expressible lat/lon grid pair (10-degree coarse -> 1-degree
    fine, threshold 17): hot coarse cells re-bin their points at the fine
    level; two passes, hot set broadcast once, points never join.  The
    IGEO7 twin (adaptive_bin_point_vals) is pytest-gated on the same
    invariants (mass conservation, every cold cell <= threshold)."""
    from .binning import adaptive_bin

    ds = _read(sf_dir, "events", ["event_id", "value"])

    def coords(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lonc = (eid * 7919) % 36000
        latc = (eid * 104729) % 18000
        return pa.table({"lonc": pa.array(lonc.astype(np.int64)),
                         "latc": pa.array(latc.astype(np.int64)),
                         "value": t["value"]})

    def coarse_fn(lonc, latc):
        return (latc // 1000) * 36 + lonc // 1000

    def fine_fn(lonc, latc):
        return (latc // 100) * 360 + lonc // 100

    out = adaptive_bin(ds.map_batches(coords, batch_format="pyarrow"),
                       coarse_fn, fine_fn, threshold=17,
                       value_col="value", lon_col="lonc", lat_col="latc")

    def finish(t: pa.Table) -> pa.Table:
        avg = np.asarray(t["sum_value"]) / np.asarray(t["n_points"])
        return pa.table({"level": t["level"], "cell": t["cell"],
                         "n_points": t["n_points"],
                         "avg_value": _iscale(avg, 1000000)})

    return out.map_batches(finish, batch_format="pyarrow") \
              .sort(["level", "cell"])


def weekly_wow_events(sf_dir: str):
    """Calendar-week resample + week-over-week delta: distributed daily
    combiner -> one tiny week-keyed groupby -> LAG over the answer-small
    week table in one coalesced block (the sliding_window_daily shape —
    the raw stream never re-shuffles for the window)."""
    ds = _read(sf_dir, "events", ["ts", "value"])
    DAY_US = np.int64(86_400_000_000)

    def partial(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        day = ts // DAY_US
        monday = (day + 3) // 7 * 7 - 3        # DATE_TRUNC('week') law
        df = pd.DataFrame({"wk": monday,
                           "v": t["value"].to_numpy(zero_copy_only=False)})
        g = df.groupby("wk", sort=False)["v"].agg(psum="sum", pcount="size") \
              .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("wk").aggregate(Sum("psum", alias_name="s"),
                                    Sum("pcount", alias_name="n")))

    def window(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values("wk", ignore_index=True)
        s = df["s"].to_numpy(np.float64)
        prev = np.r_[np.nan, s[:-1]]
        delta = s - prev
        return pa.table({
            "week": pa.array(df["wk"].to_numpy().astype(np.int32),
                             pa.date32()),
            "n_events": pa.array(df["n"].to_numpy(np.int64)),
            "total": _iscale(s, 10000),
            "wow_delta": pa.array(
                np.where(np.isnan(delta), 0, np.round(delta * 10000))
                .astype(np.int64),
                mask=np.isnan(delta))})

    return agg.repartition(1).map_batches(window, batch_format="pyarrow")


def streaming_dedup_events(sf_dir: str):
    """ONLINE exact dedup against a shared mutable index
    (state/dedup_index.py — the raw-actor case the Dataset API can't
    express): first event per user admitted as the stream flows, no
    global barrier.  WHICH event wins per user is arrival-order dependent
    (documented), so the query returns the admitted KEY set + per-key
    admission count — invariantly (user_id, 1) for every user."""
    from ..state.dedup_index import streaming_dedup

    ds = _read(sf_dir, "events", ["event_id", "user_id"])
    kept, _idx = streaming_dedup(ds, "user_id", n_shards=4)

    def per_user(t: pa.Table) -> pa.Table:
        u, n = np.unique(t["user_id"].to_numpy(zero_copy_only=False),
                         return_counts=True)
        return pa.table({"user_id": pa.array(u),
                         "n_admitted": pa.array(n.astype(np.int64))})

    out = (kept.map_batches(per_user, batch_format="pyarrow")
           .groupby("user_id")
           .aggregate(Sum("n_admitted", alias_name="n_admitted")))
    return out.map_batches(
        lambda t: pa.table({"user_id": t["user_id"],
                            "n_admitted": pc.cast(t["n_admitted"],
                                                  pa.int64())}),
        batch_format="pyarrow").sort("user_id")


def median_price_per_order(sf_dir: str):
    """EXACT per-ORDER median price — per-group quantile at UNBOUNDED
    group cardinality (stages/relational.exact_group_quantile_sorted:
    row_number carry chain + counts + one hash join; no per-group driver
    state, unlike the bounded-groups histogram path)."""
    from ..stages.relational import exact_group_quantile_sorted

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"])
    t = exact_group_quantile_sorted(ds, "l_orderkey", "l_extendedprice",
                                    q=0.5)

    def finish(tt: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": tt["l_orderkey"],
                         "median_price": _iscale(
                             tt["quantile"].to_numpy(zero_copy_only=False),
                             100)})

    return t.map_batches(finish, batch_format="pyarrow").sort("l_orderkey")


def percent_rank_docs(sf_dir: str):
    """SQL PERCENT_RANK() OVER (PARTITION BY lang ORDER BY n_chars) =
    (rank - 1) / (n - 1): tie-aware group_rank (grouped_reduce +
    running-sum carry chain) + per-group counts + one hash join — the
    final member of the window family, all at unbounded keys."""
    from ..stages.groupagg import grouped_count
    from ..stages.join import _join_partitions
    from ..stages.window import group_rank

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    ranked = group_rank(ds, "lang", "n_chars", out_col="rank")
    counts = grouped_count(ds, "lang", out_col="_n") \
        .repartition(_join_partitions())
    j = join_safe(ranked, counts, join_type="inner",
                    num_partitions=_join_partitions(), on=("lang",))

    def finish(t: pa.Table) -> pa.Table:
        r = t["rank"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["_n"].to_numpy(zero_copy_only=False).astype(np.float64)
        pr = np.where(n > 1, (r - 1.0) / np.maximum(n - 1.0, 1.0), 0.0)
        return pa.table({"doc_id": t["doc_id"], "lang": t["lang"],
                         "pct_rank": _iscale(pr, 1000000)})

    return j.map_batches(finish, batch_format="pyarrow").sort("doc_id")


def segment_users_events(sf_dir: str):
    """User-set algebra at scale: users who clicked AND purchased but
    never errored — INTERSECT via bloom semi-join x2, EXCEPT via bloom
    anti-join, all on the distinct-user tables (exactly the runtime-
    filter pattern: bloom negatives skip every exchange)."""
    from ..stages.bloom import bloom_anti_join, bloom_semi_join
    from ..stages.groupagg import grouped_reduce

    def users_of(etype: str, min_value: float):
        sub = _read(sf_dir, "events", ["user_id", "event_type", "value"]) \
            .filter(expr=f"event_type == {etype!r} and value > {min_value}") \
            .map_batches(lambda t: pa.table(
                {"user_id": t["user_id"],
                 "_one": pa.array(np.ones(t.num_rows, np.int64))}),
                batch_format="pyarrow")
        return grouped_reduce(sub, "user_id", {"_one": "_one"}, how="max") \
            .select_columns(["user_id"])

    clickers = users_of("click", 50.0)
    buyers = users_of("purchase", 50.0)
    erroring = users_of("error", 150.0)
    both = bloom_semi_join(clickers, buyers, "user_id")
    clean = bloom_anti_join(both, erroring, "user_id")
    return clean.sort("user_id")


def approx_median_chars_by_lang(sf_dir: str):
    """Grouped APPROXIMATE quantile via deterministic bottom-k hash
    sampling (stages/relational.grouped_approx_quantile): the k-smallest
    md5(doc_id) rows per lang form a uniform mergeable sample (one
    partial-top-k shuffle, k rows per group per batch), quantile over
    the sample.  The sample is a pure function of the data, so the SQL
    oracle reproduces it EXACTLY with md5_number_upper + ROW_NUMBER."""
    from ..stages.relational import grouped_approx_quantile

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    t = grouped_approx_quantile(ds, "lang", "n_chars", "doc_id",
                                q=0.5, k=32)

    def finish(tt: pa.Table) -> pa.Table:
        v = tt["approx_quantile"].to_numpy(zero_copy_only=False)
        return pa.table({"lang": tt["lang"],
                         "approx_median": pa.array(
                             np.round(v).astype(np.int64))})

    return t.map_batches(finish, batch_format="pyarrow").sort("lang")


def ann_sq8_top10(sf_dir: str):
    """Cosine top-10 over SCALAR-QUANTIZED (SQ8, uint8) embeddings — the
    8x-memory answer for a 100-TB embedding corpus (stages/ann.sq8_*):
    global (min,max) in one narrow pass, corpus dequantized per batch
    (asymmetric: query stays full precision), partial top-k.  The
    floor(x+0.5) code function is SQL-reproducible, so the oracle is
    exact, not pinned."""
    from ..stages.ann import sq8_topk

    q = _query_vec(_read(sf_dir, "embeddings", ["vec_id", "embedding"]))
    t = sq8_topk(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                 q, k=10)
    return pa.table({"rank": t["rank"], "vec_id": t["vec_id"],
                     "cosine": _iscale(
                         t["cosine"].to_numpy(zero_copy_only=False),
                         1000000)})


def triangle_count_lineitem(sf_dir: str):
    """Distributed triangle counting (stages/graph.triangle_count_per_vertex,
    oriented node-iterator: one apex self-join + one closure join, each
    triangle counted exactly once at its lowest vertex) over a
    deterministic graph derived from lineitem."""
    from ..stages.graph import triangle_count_per_vertex

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity"]) \
        .filter(expr="l_quantity > 45.0")

    def to_edges(t: pa.Table) -> pa.Table:
        p = t["l_partkey"].to_numpy(zero_copy_only=False)
        s = t["l_suppkey"].to_numpy(zero_copy_only=False)
        return pa.table({"u": pa.array((p % 300).astype(np.int64)),
                         "v": pa.array(((s * 7) % 300).astype(np.int64))})

    out = triangle_count_per_vertex(
        li.map_batches(to_edges, batch_format="pyarrow"))
    return out.map_batches(
        lambda t: pa.table({"vertex": t["vertex"],
                            "n_triangles": pc.cast(t["n_triangles"],
                                                   pa.int64())}),
        batch_format="pyarrow").sort("vertex")


def decayed_activity_by_user(sf_dir: str):
    """Recency-weighted (exponentially time-decayed) activity per user —
    the standard feature-engineering primitive: weight = exp(-(T - ts) /
    tau), tau = 7 days, T = corpus max ts (one scalar aggregate,
    broadcast in the task closure); then a single grouped_reduce of
    (sum w*v, sum w).  One narrow pass + one sort; no window."""
    from ..stages.groupagg import grouped_reduce

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    t_max = ds.max("ts")
    T = np.datetime64(t_max, "us").astype(np.int64)
    TAU = np.float64(7 * 86_400_000_000)

    def weigh(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        w = np.exp(-(T - ts).astype(np.float64) / TAU)
        v = t["value"].to_numpy(zero_copy_only=False)
        return pa.table({"user_id": t["user_id"],
                         "_wv": pa.array(w * v), "_w": pa.array(w)})

    red = grouped_reduce(ds.map_batches(weigh, batch_format="pyarrow"),
                         "user_id", {"_wv": "_wv", "_w": "_w"}, how="sum")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"],
                         "decayed_value": _iscale(
                             t["_wv"].to_numpy(zero_copy_only=False), 10000),
                         "decayed_weight": _iscale(
                             t["_w"].to_numpy(zero_copy_only=False), 10000)})

    return red.map_batches(finish, batch_format="pyarrow").sort("user_id")


def mixture_sample_docs(sf_dir: str):
    """Deterministic pretraining data-mixture sampling
    (stages/sampling.mixture_sample): per-source target counts (here
    5 + src_num % 7 — weights vary by source), kept set = pure md5
    function of (data, weights) — stable across epochs/cluster sizes and
    SQL-reproducible exactly."""
    from ..stages.sampling import mixture_sample

    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    srcs = ds.map_batches(
        lambda t: pa.table({"source": pc.unique(
            t["source"].combine_chunks())}),
        batch_format="pyarrow").to_pandas()["source"].unique()
    targets = {s: 5 + int(s[3:]) % 7 for s in srcs}
    kept = mixture_sample(ds, "source", "doc_id", targets)
    return kept.sort("doc_id")


def ann_pq_top10(sf_dir: str):
    """Product-quantization ANN (stages/ann.pq_*): deterministic
    per-subspace codebooks (distinct-row init + fixed Lloyd iterations on
    a deterministic sample), uint8 codes, ADC lookup-table scan — no
    float vector is touched at query time.  The whole pipeline is a pure
    function of the data, so the oracle pins the top-10; recall and
    partition-invariance are pytest-gated (tests/test_training_ops.py)."""
    from ..stages.ann import pq_encode, pq_topk, pq_train

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    books = pq_train(ds, n_sub=4, n_centroids=32)
    codes = pq_encode(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                      books).materialize()
    q = _query_vec(_read(sf_dir, "embeddings", ["vec_id", "embedding"]))
    t = pq_topk(codes, q, books, k=10)
    return pa.table({"rank": t["rank"], "vec_id": t["vec_id"],
                     "score": _iscale(
                         t["score"].to_numpy(zero_copy_only=False),
                         1000000)})


def wau_purchases(sf_dir: str):
    """Rolling 7-day DISTINCT active purchasers per day (the WAU metric;
    stages/temporal.rolling_distinct_daily).  Rolling DISTINCT does not
    decompose like rolling SUM, so each distinct (day, user) activity is
    expanded to the 7 window-days it counts toward (bounded fan-out),
    then ONE grouped_count_distinct — no per-day rescan."""
    from ..stages.temporal import rolling_distinct_daily

    ds = _read(sf_dir, "events", ["ts", "user_id", "event_type", "value"]) \
        .filter(expr="event_type == 'purchase' and value > 100.0")
    out = rolling_distinct_daily(ds, "ts", "user_id", window_days=7)

    def finish(t: pa.Table) -> pa.Table:
        d = t["_wday"].to_numpy(zero_copy_only=False).astype(np.int32)
        return pa.table({"day": pa.array(d, pa.date32()),
                         "wau": pc.cast(t["active"], pa.int64())})

    return out.map_batches(finish, batch_format="pyarrow").sort("day")


def ewma_value_by_user(sf_dir: str):
    """Final per-user EWMA of event values in (ts, event_id) order
    (stages/window.group_ewma): the sequential recurrence y_i = a*v_i +
    (1-a)*y_{i-1} solved by its closed-form weights — ROW_NUMBER carry
    chain + counts + one weighted grouped_reduce, no ordered scan."""
    from ..stages.window import group_ewma

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    t = group_ewma(ds, "user_id", ["ts", "event_id"], "value", alpha=0.3)

    def finish(tt: pa.Table) -> pa.Table:
        return pa.table({"user_id": tt["user_id"],
                         "ewma": _iscale(
                             tt["ewma"].to_numpy(zero_copy_only=False),
                             10000)})

    return t.map_batches(finish, batch_format="pyarrow").sort("user_id")


def snapshot_diff_orders(sf_dir: str):
    """Change-data-capture diff of two deterministic orders snapshots
    (stages/diff.table_diff): snapshot A drops keys %97==0, snapshot B
    drops keys %89==0 and shifts price by +1000 where key %101==0.
    Payloads never shuffle — each side reduces to (key, side counts,
    vectorized value fingerprint) and ONE grouped_reduce merges them."""
    from ..stages.diff import table_diff

    cols = ["o_orderkey", "o_orderstatus", "o_totalprice"]

    def snap_a(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy()
        return t.filter(pa.array(k % 97 != 0))

    def snap_b(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy()
        t = t.filter(pa.array(k % 89 != 0))
        k = t["o_orderkey"].to_numpy()
        p = t["o_totalprice"].to_numpy(zero_copy_only=False)
        p2 = np.where(k % 101 == 0, p + 1000.0, p)
        return t.set_column(t.schema.get_field_index("o_totalprice"),
                            "o_totalprice", pa.array(p2))

    a = _read(sf_dir, "orders", cols).map_batches(
        snap_a, batch_format="pyarrow")
    b = _read(sf_dir, "orders", cols).map_batches(
        snap_b, batch_format="pyarrow")
    out = table_diff(a, b, "o_orderkey", ["o_orderstatus", "o_totalprice"])
    return out.sort("o_orderkey")


def interval_coverage_users(sf_dir: str):
    """Per-user UNION length of overlapping activity intervals
    (stages/temporal.interval_union_length — the islands-and-gaps
    aggregate): each event spans [ts, ts + round(value*10) minutes);
    overlaps within a user count once.  One range sort + block-local
    sweep + running-max carry chain."""
    from ..stages.temporal import interval_union_length

    ds = _read(sf_dir, "events", ["user_id", "ts", "value", "event_id"])

    def mk(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        # floor(x+0.5), not np.round: value*10 has one decimal, so .5
        # ties are common and half-even vs half-away diverges per user
        dur = np.floor(t["value"].to_numpy(zero_copy_only=False)
                       * 10 + 0.5).astype(np.int64) * 60_000_000
        return pa.table({"user_id": t["user_id"], "s": pa.array(ts),
                         "e": pa.array(ts + dur), "event_id": t["event_id"]})

    iv = ds.map_batches(mk, batch_format="pyarrow")
    out = interval_union_length(iv, "user_id", "s", "e",
                                uniq_cols=["event_id"],
                                out_col="covered_us")
    return out.sort("user_id")


def skyline_parts(sf_dir: str):
    """Pareto skyline of parts — cheapest-for-their-size frontier
    (stages/skyline.skyline: minimize p_retailprice, maximize p_size).
    Block-local skylines + one answer-sized merge; no shuffle."""
    from ..stages.skyline import skyline

    ds = _read(sf_dir, "part", ["p_partkey", "p_retailprice", "p_size"])
    out = skyline(ds, min_cols=["p_retailprice"], max_cols=["p_size"])

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": t["p_partkey"],
            "price_cents": _iscale(
                t["p_retailprice"].to_numpy(zero_copy_only=False), 100),
            "p_size": pc.cast(t["p_size"], pa.int64())})

    return out.map_batches(finish, batch_format="pyarrow").sort("p_partkey")


def winsorized_price_by_status(sf_dir: str):
    """Robust mean: o_totalprice winsorized at the exact global
    [p05, p95] (stages/normalize.winsorize — two streaming quantile
    scans + broadcast clamp), then mean per order status."""
    from ..stages.normalize import winsorize
    from ..stages.groupagg import grouped_reduce

    ds = _read(sf_dir, "orders", ["o_orderstatus", "o_totalprice"])
    w = winsorize(ds, "o_totalprice", 0.05, 0.95, out_col="_w")

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({"o_orderstatus": t["o_orderstatus"],
                         "_w": t["_w"],
                         "_n": pa.array(np.ones(t.num_rows, np.int64))})

    agg = grouped_reduce(w.map_batches(partial, batch_format="pyarrow"),
                         "o_orderstatus", {"_w": "s", "_n": "n"},
                         how="sum")

    def finish(t: pa.Table) -> pa.Table:
        s = t["s"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"o_orderstatus": t["o_orderstatus"],
                         "wmean_cents": _iscale(s / n, 100),
                         "n": pc.cast(t["n"], pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow") \
        .sort("o_orderstatus")


def stencil_focal_events(sf_dir: str):
    """Focal (neighborhood) statistics over a binned integer grid
    (stages/interp.stencil_smooth — the raster "focal sum"): events bin
    to a 90x45 synthetic lat/lon lattice (same event_id hash layout as
    latlon_bin_events, coarser), per-cell values are made integer cents
    BEFORE the stencil so the 3x3 window sum is exact integer
    arithmetic at any parallelism.  Shift-and-aggregate: each occupied
    cell emits to its 9 neighbor positions, ONE grouped sum; no join."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.interp import stencil_smooth

    ds = _read(sf_dir, "events", ["event_id", "value"])

    def binp(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        gx = (eid * 7919) % 36000 // 400
        gy = (eid * 104729) % 18000 // 400
        cents = np.round(
            t["value"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        return pa.table({"gx": pa.array(gx), "gy": pa.array(gy),
                         "n": pa.array(np.ones(t.num_rows, np.int64)),
                         "cents": pa.array(cents)})

    cells = grouped_reduce(ds.map_batches(binp, batch_format="pyarrow"),
                           ["gx", "gy"], {"n": "n", "cents": "cents"},
                           how="sum")
    out = stencil_smooth(cells, "gx", "gy",
                         {"n": "focal_n", "cents": "focal_cents"}, radius=1)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "gx": pc.cast(t["gx"], pa.int64()),
            "gy": pc.cast(t["gy"], pa.int64()),
            "focal_n": pc.cast(t["focal_n"], pa.int64()),
            "focal_cents": pc.cast(t["focal_cents"], pa.int64()),
            "own_n": pc.cast(t["own_n"], pa.int64())})

    return out.map_batches(finish, batch_format="pyarrow") \
        .sort(["gx", "gy"])


def density_clusters_events(sf_dir: str):
    """Grid-density clustering (distributed DBSCAN on the cell lattice,
    stages/density.density_clusters): purchase events bin to the 90x45
    synthetic lattice, cells with >= 2 purchases are dense, 8-adjacent
    dense cells form clusters labeled by their lexicographically-first
    member.  Filter -> probe emit -> one hash join -> alternating-star
    connected components -> one grouped min; no driver materialization."""
    from ..stages.density import density_clusters
    from ..stages.groupagg import grouped_reduce

    ds = _read(sf_dir, "events", ["event_id", "event_type"])

    def binp(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        eid = t["event_id"].to_numpy()
        return pa.table({"gx": pa.array((eid * 7919) % 36000 // 400),
                         "gy": pa.array((eid * 104729) % 18000 // 400),
                         "n": pa.array(np.ones(t.num_rows, np.int64))})

    cells = grouped_reduce(ds.map_batches(binp, batch_format="pyarrow"),
                           ["gx", "gy"], {"n": "n"}, how="sum")
    out = density_clusters(cells, "gx", "gy", "n", min_weight=2, diag=True)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "gx": pc.cast(t["gx"], pa.int64()),
            "gy": pc.cast(t["gy"], pa.int64()),
            "n": pc.cast(t["n"], pa.int64()),
            "cell_pk": t["cell_pk"],
            "cluster_pk": t["cluster_pk"]})

    return out.map_batches(finish, batch_format="pyarrow").sort("cell_pk")


def cooccurrence_docs(sf_dir: str):
    """Token co-occurrence over the top-16 vocabulary
    (stages/text.token_cooccurrence): doc-level pair counts + per-token
    document frequencies (PMI derivable exactly).  Vocabulary fixed first
    (vocab-bounded df shuffle, answer-sized top-V broadcast); pair space
    <= V^2; text never shuffles; pair emission vectorized by
    token-count class."""
    from ..stages.text import token_cooccurrence

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return token_cooccurrence(ds, vocab_size=16).sort(["tok_a", "tok_b"])


def _distinct_strings(ds, col: str) -> list:
    """Answer-sized distinct pull for a low-cardinality string column:
    per-batch pc.unique partials, set-union on the driver."""
    parts = ds.map_batches(
        lambda t: pa.table({col: pc.unique(
            t[col].combine_chunks()
            if isinstance(t[col], pa.ChunkedArray) else t[col])}),
        batch_format="pyarrow").to_pandas()
    return sorted(set(parts[col].dropna()))


def transition_counts_events(sf_dir: str):
    """Markov transition matrix of per-user event sequences:
    LAG(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
    via the stages/window.group_shift carry chain on integer-coded
    types, then one bounded |types|^2 aggregate.  The transition counts
    feed sessionized behavioral models; types never shuffle as strings."""
    from ..stages.window import group_shift
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    types = _distinct_strings(ds, "event_type")
    types_pa = pa.array(types, pa.string())
    types_np = np.array(types, dtype=object)

    def enc(t: pa.Table) -> pa.Table:
        arr = t["event_type"]
        arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        return pa.table({
            "user_id": t["user_id"],
            "ts_us": t["ts"].cast(pa.int64()),
            "event_id": t["event_id"],
            "code": pc.cast(pc.index_in(arr, value_set=types_pa),
                            pa.int64())})

    lag = group_shift(ds.map_batches(enc, batch_format="pyarrow"),
                      "user_id", ["ts_us", "event_id"], "code",
                      k=1, out_col="prev")

    def pairs(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["prev"]))
        prev = t["prev"].to_numpy(zero_copy_only=False).astype(np.int64)
        cur = t["code"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "prev_type": pa.array(types_np[prev].tolist(), pa.string()),
            "next_type": pa.array(types_np[cur].tolist(), pa.string()),
            "n": pa.array(np.ones(t.num_rows, np.int64))})

    return (lag.map_batches(pairs, batch_format="pyarrow")
            .groupby(["prev_type", "next_type"])
            .aggregate(Sum("n", alias_name="n"))
            .map_batches(lambda t: t.set_column(
                t.schema.get_field_index("n"), "n",
                pc.cast(t["n"], pa.int64())), batch_format="pyarrow")
            .sort(["prev_type", "next_type"]))


def pivot_event_types(sf_dir: str):
    """PIVOT / crosstab: one row per user with per-event-type counts
    (stages/relational.pivot_counts — indicator widening + ONE
    grouped_reduce at unbounded user cardinality; no join, no per-group
    Python)."""
    from ..stages.relational import pivot_counts

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    types = _distinct_strings(ds, "event_type")
    out = pivot_counts(ds, "user_id", "event_type", types)

    def finish(t: pa.Table) -> pa.Table:
        cols = {"user_id": t["user_id"]}
        for ty in types:
            cols[f"n_{ty}"] = pc.cast(t[f"n_{ty}"], pa.int64())
        return pa.table(cols)

    return out.map_batches(finish, batch_format="pyarrow").sort("user_id")


def twap_value_by_user(sf_dir: str):
    """Time-weighted average value per user (TWAP): LEAD(ts) via
    group_shift over the NEGATED order, integer segment weights
    w = next_ts - ts in microseconds, twap = sum(cents*w)/sum(w) — all
    partials exact int64, one grouped_reduce.  Single-event users have
    no segment and drop out (the SQL LEAD semantics)."""
    from ..stages.window import group_shift
    from ..stages.groupagg import grouped_reduce

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def enc(t: pa.Table) -> pa.Table:
        ts = t["ts"].cast(pa.int64())
        tsn = ts.to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": t["user_id"], "ts_us": ts,
            "event_id": t["event_id"],
            "nts": pa.array(-tsn),
            "neid": pa.array(-t["event_id"].to_numpy()),
            "cents": pa.array(np.round(
                t["value"].to_numpy(zero_copy_only=False) * 100)
                .astype(np.int64))})

    led = group_shift(ds.map_batches(enc, batch_format="pyarrow"),
                      "user_id", ["nts", "neid"], "ts_us",
                      k=1, out_col="next_us")

    def seg(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["next_us"]))
        w = (t["next_us"].to_numpy(zero_copy_only=False).astype(np.int64)
             - t["ts_us"].to_numpy(zero_copy_only=False))
        cents = t["cents"].to_numpy(zero_copy_only=False)
        return pa.table({"user_id": t["user_id"],
                         "num": pa.array(cents * w),
                         "den": pa.array(w)})

    agg = grouped_reduce(led.map_batches(seg, batch_format="pyarrow"),
                         "user_id", {"num": "num", "den": "den"}, how="sum")

    def finish(t: pa.Table) -> pa.Table:
        num = t["num"].to_numpy(zero_copy_only=False).astype(np.float64)
        den = t["den"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "user_id": t["user_id"],
            "twap_e4": _iscale(num / (den * 100.0), 10000),
            "span_us": pc.cast(t["den"], pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow").sort("user_id")


def entropy_by_lang(sf_dir: str):
    """Shannon entropy of the source distribution within each language
    (corpus-mixture diagnostics): bounded (lang, source) counts via
    grouped_reduce, then the answer-sized fold computes
    H = -sum(p ln p) in one coalesced block."""
    from ..stages.groupagg import grouped_reduce

    ds = _read(sf_dir, "documents", ["lang", "source"])
    counts = grouped_reduce(
        ds.map_batches(lambda t: pa.table({
            "lang": t["lang"], "source": t["source"],
            "n": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        ["lang", "source"], {"n": "n"}, how="sum")

    def fold(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd
        rows = []
        for lang, grp in df.groupby("lang", sort=True):
            n = grp["n"].to_numpy().astype(np.float64)
            tot = n.sum()
            p = n / tot
            h = -(p * np.log(p)).sum()
            rows.append({"lang": lang,
                         "entropy_e6": np.int64(np.round(h * 1e6)),
                         "n_docs": np.int64(tot)})
        return pd.DataFrame(rows)

    return (counts.repartition(1)
            .map_batches(fold, batch_format="pandas")
            .sort("lang"))


def hotspot_gi_occupied_events(sf_dir: str):
    """Getis-Ord Gi* hotspot z-scores over the OCCUPIED-cell domain
    (stages/interp.gi_star; n = occupied cells, the point-lattice
    convention — ``hotspot_gi_events`` is the full-grid-domain twin):
    global moments from exact integer counts, a 3x3 stencil for the
    focal sum and occupied-neighbor count, one pure map for z.  The
    classic spatial-statistics hotspot map, fully distributed (no KDE
    driver pass)."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.interp import gi_star

    ds = _read(sf_dir, "events", ["event_id"])

    def binp(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        return pa.table({"gx": pa.array((eid * 7919) % 36000 // 400),
                         "gy": pa.array((eid * 104729) % 18000 // 400),
                         "n": pa.array(np.ones(t.num_rows, np.int64))})

    # gi_star reads cells twice (global moments + stencil)
    cells = grouped_reduce(ds.map_batches(binp, batch_format="pyarrow"),
                           ["gx", "gy"], {"n": "n"}, how="sum").materialize()
    out = gi_star(cells, "gx", "gy", "n", radius=1)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "gx": pc.cast(t["gx"], pa.int64()),
            "gy": pc.cast(t["gy"], pa.int64()),
            "focal_sum": t["focal_sum"],
            "n_neighbors": t["n_neighbors"],
            "z_e6": _iscale(t["z"].to_numpy(zero_copy_only=False), 1000000)})

    return out.map_batches(finish, batch_format="pyarrow") \
        .sort(["gx", "gy"])


def trend_cells_events(sf_dir: str):
    """Emerging-hotspot trend (the space-time-cube Mann-Kendall S): weekly
    event counts per coarse cell — zero-filled over the full observed week
    range — and S = sum over week pairs i<j of sign(n_j - n_i).  Pivot by
    week (bounded T categories, stages/relational.pivot_counts) turns the
    per-cell time series into columns, so S is T(T-1)/2 vectorized column
    ops; cells never re-shuffle."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.relational import pivot_counts

    ds = _read(sf_dir, "events", ["event_id", "ts"])
    DAY_US = np.int64(86_400_000_000)

    def binp(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        return pa.table({"gx": pa.array((eid * 7919) % 36000 // 2000),
                         "gy": pa.array((eid * 104729) % 18000 // 2000),
                         "wk": pa.array((ts // DAY_US + 3) // 7),
                         "n": pa.array(np.ones(t.num_rows, np.int64))})

    counts = grouped_reduce(ds.map_batches(binp, batch_format="pyarrow"),
                            ["gx", "gy", "wk"], {"n": "n"}, how="sum") \
        .materialize()                 # two consumers: weeks + pivot
    wk_parts = counts.map_batches(
        lambda t: pa.table({"wk": pc.unique(
            t["wk"].combine_chunks()
            if isinstance(t["wk"], pa.ChunkedArray) else t["wk"])}),
        batch_format="pyarrow").to_pandas()
    weeks = sorted(set(wk_parts["wk"].astype(np.int64)))
    wide = pivot_counts(counts, ["gx", "gy"], "wk", weeks,
                        value_col="n", prefix="w_")

    def mk(t: pa.Table) -> pa.Table:
        X = np.column_stack([
            t[f"w_{w}"].to_numpy(zero_copy_only=False).astype(np.int64)
            for w in weeks])
        S = np.zeros(t.num_rows, np.int64)
        for i in range(len(weeks)):
            for j in range(i + 1, len(weeks)):
                S += np.sign(X[:, j] - X[:, i]).astype(np.int64)
        return pa.table({"gx": pc.cast(t["gx"], pa.int64()),
                         "gy": pc.cast(t["gy"], pa.int64()),
                         "mk_s": pa.array(S),
                         "n_weeks": pa.array(
                             np.full(t.num_rows, len(weeks), np.int64))})

    return wide.map_batches(mk, batch_format="pyarrow").sort(["gx", "gy"])


def od_matrix_packed_events(sf_dir: str):
    """Origin-destination matrix (packed-int cell-id variant; the
    ``od_matrix_events`` twin keeps (gx, gy) columns): per-user
    consecutive cell transitions
    (LAG of the packed cell id via the group_shift carry chain), counted
    per (origin, destination) pair — the trajectory-flow aggregate over
    the 648-cell lattice."""
    from ..stages.window import group_shift
    from ..stages.groupagg import grouped_reduce

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def enc(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        gx = (eid * 7919) % 36000 // 1000
        gy = (eid * 104729) % 18000 // 1000
        pk = (gx + 1048576) * 2097152 + (gy + 1048576)
        return pa.table({"user_id": t["user_id"],
                         "ts_us": t["ts"].cast(pa.int64()),
                         "event_id": t["event_id"],
                         "pk": pa.array(pk)})

    lag = group_shift(ds.map_batches(enc, batch_format="pyarrow"),
                      "user_id", ["ts_us", "event_id"], "pk",
                      k=1, out_col="prev")

    def pairs(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["prev"]))
        return pa.table({
            "prev_pk": pa.array(t["prev"].to_numpy(zero_copy_only=False)
                                .astype(np.int64)),
            "next_pk": t["pk"],
            "n": pa.array(np.ones(t.num_rows, np.int64))})

    agg = grouped_reduce(lag.map_batches(pairs, batch_format="pyarrow"),
                         ["prev_pk", "next_pk"], {"n": "n"}, how="sum")
    return agg.map_batches(
        lambda t: t.set_column(t.schema.get_field_index("n"), "n",
                               pc.cast(t["n"], pa.int64())),
        batch_format="pyarrow").sort(["prev_pk", "next_pk"])


def q10_returned_revenue(sf_dir: str):
    """TPC-H Q10: top-20 customers by revenue of returned items in a
    half-year window.  Ray shape: returned lineitems collapse to
    per-order integer-cent revenue FIRST (grouped_reduce — the join
    exchange ships pre-aggregated rows, not raw lineitems), the window
    filter prunes orders before the hash join, a second grouped_reduce
    gives per-customer revenue, and the global top-20 runs as a partial
    top-k combiner (constant group) so the full customer aggregate never
    sorts.  Names come from one answer-sized customer join + the 25-row
    nation broadcast (the q5 pattern)."""
    import ray as _ray

    from ..stages.groupagg import grouped_reduce
    from ..stages.join import _join_partitions
    from ..stages.relational import topk_per_group

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_returnflag", "l_extendedprice",
                "l_discount"]).filter(expr="l_returnflag == 'R'")

    def rev(t: pa.Table) -> pa.Table:
        cents = _cents_half_up(t["l_extendedprice"].to_numpy()
                               * (1.0 - t["l_discount"].to_numpy()))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "rev_c": pa.array(cents)})

    per_order = grouped_reduce(li.map_batches(rev, batch_format="pyarrow"),
                               "l_orderkey", {"rev_c": "rev_c"}, how="sum") \
        .repartition(_join_partitions())   # reduce-derived join input

    def owin(t: pa.Table) -> pa.Table:
        od = t["o_orderdate"].to_numpy(zero_copy_only=False)
        m = ((od >= np.datetime64("1996-01-01"))
             & (od < np.datetime64("1996-07-01")))
        return t.filter(pa.array(m)).select(["o_orderkey", "o_custkey"])

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(owin, batch_format="pyarrow")
    j = join_safe(per_order, orders, join_type="inner",
                       num_partitions=_join_partitions(),
                       on=("l_orderkey",), right_on=("o_orderkey",))
    per_cust = grouped_reduce(
        j.map_batches(lambda t: t.select(["o_custkey", "rev_c"]),
                      batch_format="pyarrow"),
        "o_custkey", {"rev_c": "rev_c"}, how="sum")

    top = topk_per_group(
        per_cust.map_batches(
            lambda t: t.append_column(
                "_g", pa.array(np.zeros(t.num_rows, np.int64))),
            batch_format="pyarrow"),
        "_g", "rev_c", k=20, id_col="o_custkey") \
        .repartition(_join_partitions()).materialize()

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_name", "c_nationkey", "c_acctbal"])
    j2 = join_safe(top, cust, join_type="inner",
                  num_partitions=_join_partitions(),
                  on=("o_custkey",), right_on=("c_custkey",))
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    lut = np.empty(int(nation["n_nationkey"].max()) + 1, dtype=object)
    lut[nation["n_nationkey"].to_numpy()] = nation["n_name"].to_numpy()
    nref = _ray.put(lut)

    def finish(t: pa.Table) -> pa.Table:
        names = _ray.get(nref)[t["c_nationkey"].to_numpy()]
        return pa.table({
            "c_custkey": t["o_custkey"],
            "c_name": t["c_name"],
            "revenue_c": pc.cast(t["rev_c"], pa.int64()),
            "acctbal_c": _iscale(t["c_acctbal"], 100),
            "n_name": pa.array(names, pa.string()),
            "rank": pc.cast(t["rank"], pa.int64())})

    return j2.map_batches(finish, batch_format="pyarrow").sort("rank")


def q12_priority_linestatus(sf_dir: str):
    """TPC-H Q12 shape: lineitems shipped in 1996 counted per linestatus
    x order-priority class (high = URGENT/HIGH).  Lineitems pre-collapse
    to per-(orderkey, linestatus) counts (grouped_reduce) so the big-big
    hash join against orders ships aggregated rows; the final groupby is
    answer-small (2 rows)."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.join import _join_partitions

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linestatus", "l_shipdate"])

    def win(t: pa.Table) -> pa.Table:
        sd = t["l_shipdate"].to_numpy(zero_copy_only=False)
        m = ((sd >= np.datetime64("1996-01-01"))
             & (sd < np.datetime64("1997-01-01")))
        t = t.filter(pa.array(m))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_linestatus": t["l_linestatus"],
                         "n": pa.array(np.ones(t.num_rows, np.int64))})

    per_ok = grouped_reduce(li.map_batches(win, batch_format="pyarrow"),
                            ["l_orderkey", "l_linestatus"], {"n": "n"},
                            how="sum").repartition(_join_partitions())
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    j = join_safe(per_ok, orders, join_type="inner",
                    num_partitions=_join_partitions(),
                    on=("l_orderkey",), right_on=("o_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        pr = t["o_orderpriority"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        hi = (pr == "1-URGENT") | (pr == "2-HIGH")
        df = pd.DataFrame({
            "l_linestatus": t["l_linestatus"].to_numpy(zero_copy_only=False),
            "high_line_count": np.where(hi, n, 0),
            "low_line_count": np.where(hi, 0, n)})
        g = df.groupby("l_linestatus", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (j.map_batches(partial, batch_format="pyarrow")
           .groupby("l_linestatus")
           .aggregate(Sum("high_line_count", alias_name="high_line_count"),
                      Sum("low_line_count", alias_name="low_line_count")))
    return agg.map_batches(
        lambda t: pa.table({
            "l_linestatus": t["l_linestatus"],
            "high_line_count": pc.cast(t["high_line_count"], pa.int64()),
            "low_line_count": pc.cast(t["low_line_count"], pa.int64())}),
        batch_format="pyarrow").sort("l_linestatus")


def q17_small_quantity(sf_dir: str):
    """TPC-H Q17: revenue lost to small-quantity orders of one brand —
    the correlated per-part AVG subquery.  The brand filter reduces part
    to a dimension-sized key set (broadcast via ray.put; at larger brand
    fan-outs swap in bloom_semi_join), the brand's lineitems materialize
    ONCE for two consumers, the per-part average is a grouped_reduce,
    and the avg joins back as a distributed hash join.  Integer-cent
    revenue makes the one-row answer exact at any parallelism."""
    import ray as _ray

    from ..stages.groupagg import grouped_reduce
    from ..stages.join import _join_partitions

    part = _read(sf_dir, "part", ["p_partkey", "p_brand"]) \
        .filter(expr="p_brand == 'Brand#23'").to_pandas()
    keys_ref = _ray.put(np.sort(part["p_partkey"].to_numpy()))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])

    def keep(t: pa.Table) -> pa.Table:
        keys = _ray.get(keys_ref)
        pk = t["l_partkey"].to_numpy()
        pos = np.clip(np.searchsorted(keys, pk), 0, max(len(keys) - 1, 0))
        hit = (keys[pos] == pk) if len(keys) else np.zeros(len(pk), bool)
        t = t.filter(pa.array(hit))
        cents = _cents_half_up(t["l_extendedprice"].to_numpy())
        return pa.table({"l_partkey": t["l_partkey"],
                         "qty": t["l_quantity"],
                         "cents": pa.array(cents),
                         "n": pa.array(np.ones(t.num_rows, np.int64))})

    brand_li = li.map_batches(keep, batch_format="pyarrow").materialize()
    avg = grouped_reduce(brand_li, "l_partkey",
                         {"qty": "qty_sum", "n": "n_li"}, how="sum") \
        .map_batches(
            lambda t: pa.table({
                "pk": t["l_partkey"],
                "avg_qty": pa.array(
                    t["qty_sum"].to_numpy(zero_copy_only=False)
                    / t["n_li"].to_numpy(zero_copy_only=False))}),
            batch_format="pyarrow").repartition(_join_partitions())
    j = join_safe(brand_li, avg, join_type="inner",
                      num_partitions=_join_partitions(),
                      on=("l_partkey",), right_on=("pk",))

    def partial(t: pa.Table) -> pa.Table:
        m = (t["qty"].to_numpy(zero_copy_only=False)
             < 0.2 * t["avg_qty"].to_numpy(zero_copy_only=False))
        c = t["cents"].to_numpy(zero_copy_only=False)[m]
        return pa.table({"s": pa.array([int(c.sum())], pa.int64()),
                         "n": pa.array([np.int64(m.sum())])})

    agg = (j.map_batches(partial, batch_format="pyarrow")
           .groupby(None).aggregate(Sum("s", alias_name="s"),
                                    Sum("n", alias_name="n")))
    return agg.map_batches(
        lambda t: pa.table({
            "avg_yearly_c": pa.array(np.round(
                t["s"].to_numpy(zero_copy_only=False) / 7.0)
                .astype(np.int64)),
            "n_small": pc.cast(t["n"], pa.int64())}),
        batch_format="pyarrow")


def q19_disjunctive_revenue(sf_dir: str):
    """TPC-H Q19: disjunctive brand/size/quantity predicate join — part
    is the bounded dim side, so the whole query is ONE zero-shuffle
    streaming pass: broadcast partkey->(brand-class, size) arrays via
    ray.put, evaluate the three-way OR vectorized per batch, combine a
    one-row integer-cent partial."""
    import ray as _ray

    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]) \
        .to_pandas()
    brand = part["p_brand"].to_numpy()
    code = np.where(brand == "Brand#12", 1,
                    np.where(brand == "Brand#23", 2,
                             np.where(brand == "Brand#34", 3, 0)))
    pref = _ray.put((np.sort(part["p_partkey"].to_numpy()),
                     code[np.argsort(part["p_partkey"].to_numpy())],
                     part["p_size"].to_numpy()[
                         np.argsort(part["p_partkey"].to_numpy())]))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        keys, codes, sizes = _ray.get(pref)
        pk = t["l_partkey"].to_numpy()
        pos = np.clip(np.searchsorted(keys, pk), 0, len(keys) - 1)
        hit = keys[pos] == pk
        c = np.where(hit, codes[pos], 0)
        sz = np.where(hit, sizes[pos], 0)
        q = t["l_quantity"].to_numpy()
        m = (((c == 1) & (sz >= 1) & (sz <= 5) & (q >= 1) & (q <= 11))
             | ((c == 2) & (sz >= 1) & (sz <= 10) & (q >= 10) & (q <= 20))
             | ((c == 3) & (sz >= 1) & (sz <= 15) & (q >= 20) & (q <= 30)))
        cents = _cents_half_up(t["l_extendedprice"].to_numpy()[m]
                               * (1.0 - t["l_discount"].to_numpy()[m]))
        return pa.table({"s": pa.array([int(cents.sum())], pa.int64()),
                         "n": pa.array([np.int64(m.sum())])})

    agg = (li.map_batches(partial, batch_format="pyarrow")
           .groupby(None).aggregate(Sum("s", alias_name="s"),
                                    Sum("n", alias_name="n")))
    return agg.map_batches(
        lambda t: pa.table({"revenue_c": pc.cast(t["s"], pa.int64()),
                            "n_items": pc.cast(t["n"], pa.int64())}),
        batch_format="pyarrow")


def q7_volume_shipping(sf_dir: str):
    """TPC-H Q7: shipping volume between two nations by year.  Supplier
    is the true dimension (broadcast suppkey->nationkey array); customer
    prunes to the two nations BEFORE its hash join with orders; lineitem
    prunes on the ship window and supplier nation before the second
    join.  Answer-small (2 x years) final groupby from per-batch
    partials; integer-cent revenue exact at any parallelism."""
    import ray as _ray

    from ..stages.join import _join_partitions

    N1, N2 = 7, 17
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]) \
        .to_pandas()
    lut = np.full(int(supp["s_suppkey"].max()) + 1, -1, np.int64)
    lut[supp["s_suppkey"].to_numpy()] = supp["s_nationkey"].to_numpy()
    sref = _ray.put(lut)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .filter(expr=f"c_nationkey == {N1} or c_nationkey == {N2}")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    oc = join_safe(orders, cust, join_type="inner",
                     num_partitions=_join_partitions(),
                     on=("o_custkey",), right_on=("c_custkey",))

    def li_map(t: pa.Table) -> pa.Table:
        sd = t["l_shipdate"].to_numpy(zero_copy_only=False)
        m = ((sd >= np.datetime64("1995-01-01"))
             & (sd < np.datetime64("1997-01-01")))
        t = t.filter(pa.array(m))
        sn = _ray.get(sref)[t["l_suppkey"].to_numpy()]
        keep = (sn == N1) | (sn == N2)
        t = t.filter(pa.array(keep))
        sd = t["l_shipdate"].to_numpy(zero_copy_only=False)
        year = sd.astype("datetime64[Y]").astype(np.int64) + 1970
        cents = _cents_half_up(t["l_extendedprice"].to_numpy()
                               * (1.0 - t["l_discount"].to_numpy()))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "supp_nation": pa.array(sn[keep]),
                         "l_year": pa.array(year),
                         "cents": pa.array(cents)})

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate",
                "l_extendedprice", "l_discount"]) \
        .map_batches(li_map, batch_format="pyarrow")
    j = join_safe(li, oc, join_type="inner", num_partitions=_join_partitions(),
                on=("l_orderkey",), right_on=("o_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        sn = t["supp_nation"].to_numpy(zero_copy_only=False)
        cn = t["c_nationkey"].to_numpy(zero_copy_only=False)
        m = ((sn == N1) & (cn == N2)) | ((sn == N2) & (cn == N1))
        df = pd.DataFrame({
            "supp_nation": sn[m], "cust_nation": cn[m],
            "l_year": t["l_year"].to_numpy(zero_copy_only=False)[m],
            "revenue_c": t["cents"].to_numpy(zero_copy_only=False)[m]})
        g = df.groupby(["supp_nation", "cust_nation", "l_year"],
                       sort=False)["revenue_c"].agg(["sum", "size"]) \
            .reset_index()
        g.columns = ["supp_nation", "cust_nation", "l_year",
                     "revenue_c", "n_items"]
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (j.map_batches(partial, batch_format="pyarrow")
           .groupby(["supp_nation", "cust_nation", "l_year"])
           .aggregate(Sum("revenue_c", alias_name="revenue_c"),
                      Sum("n_items", alias_name="n_items")))
    return agg.map_batches(
        lambda t: pa.table({
            "supp_nation": pc.cast(t["supp_nation"], pa.int64()),
            "cust_nation": pc.cast(t["cust_nation"], pa.int64()),
            "l_year": pc.cast(t["l_year"], pa.int64()),
            "revenue_c": pc.cast(t["revenue_c"], pa.int64()),
            "n_items": pc.cast(t["n_items"], pa.int64())}),
        batch_format="pyarrow").sort(["supp_nation", "cust_nation",
                                      "l_year"])


def q8_market_share(sf_dir: str):
    """TPC-H Q8: one nation's market share of revenue sold to a region's
    customers, by order year.  Nation->region and suppkey->nation are
    broadcast dimension arrays; customers prune to the region before the
    orders join; both num and den accumulate as exact integer cents so
    the share division happens once per year row."""
    import ray as _ray

    from ..stages.join import _join_partitions

    REGION, TARGET = 2, 7
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]) \
        .to_pandas()
    region_nations = set(nation.loc[nation["n_regionkey"] == REGION,
                                    "n_nationkey"].tolist())
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]) \
        .to_pandas()
    lut = np.full(int(supp["s_suppkey"].max()) + 1, -1, np.int64)
    lut[supp["s_suppkey"].to_numpy()] = supp["s_nationkey"].to_numpy()
    sref = _ray.put(lut)

    nk = " or ".join(f"c_nationkey == {k}" for k in sorted(region_nations))
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .filter(expr=nk).select_columns(["c_custkey"])

    def oyear(t: pa.Table) -> pa.Table:
        od = t["o_orderdate"].to_numpy(zero_copy_only=False)
        return pa.table({
            "o_orderkey": t["o_orderkey"], "o_custkey": t["o_custkey"],
            "o_year": pa.array(od.astype("datetime64[Y]")
                               .astype(np.int64) + 1970)})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(oyear, batch_format="pyarrow")
    oc = join_safe(orders, cust, join_type="inner",
                     num_partitions=_join_partitions(),
                     on=("o_custkey",), right_on=("c_custkey",))

    def li_map(t: pa.Table) -> pa.Table:
        sn = _ray.get(sref)[t["l_suppkey"].to_numpy()]
        cents = _cents_half_up(t["l_extendedprice"].to_numpy()
                               * (1.0 - t["l_discount"].to_numpy()))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "cents": pa.array(cents),
                         "is_t": pa.array((sn == TARGET)
                                          .astype(np.int64))})

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount"]).map_batches(li_map, batch_format="pyarrow")
    j = join_safe(li, oc, join_type="inner", num_partitions=_join_partitions(),
                on=("l_orderkey",), right_on=("o_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        c = t["cents"].to_numpy(zero_copy_only=False)
        it = t["is_t"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "o_year": t["o_year"].to_numpy(zero_copy_only=False),
            "target_c": c * it, "total_c": c})
        g = df.groupby("o_year", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (j.map_batches(partial, batch_format="pyarrow")
           .groupby("o_year")
           .aggregate(Sum("target_c", alias_name="target_c"),
                      Sum("total_c", alias_name="total_c")))

    def finish(t: pa.Table) -> pa.Table:
        num = t["target_c"].to_numpy(zero_copy_only=False)
        den = t["total_c"].to_numpy(zero_copy_only=False)
        return pa.table({
            "o_year": pc.cast(t["o_year"], pa.int64()),
            "share_e6": _iscale(num / den, 1000000),
            "target_c": pc.cast(t["target_c"], pa.int64()),
            "total_c": pc.cast(t["total_c"], pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow").sort("o_year")


def q11_important_parts(sf_dir: str):
    """TPC-H Q11 shape: per-part stocked value from one nation's
    suppliers, HAVING value > fraction * global total.  Supplier nation
    filter via broadcast array; per-part value is ONE grouped_reduce
    (unbounded part keys), materialized once for the two consumers
    (global scalar + threshold filter); the surviving answer-small set
    sorts."""
    import ray as _ray

    from ..stages.groupagg import grouped_reduce

    NATION, FRACTION = 9, 0.001
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]) \
        .to_pandas()
    lut = np.full(int(supp["s_suppkey"].max()) + 1, -1, np.int64)
    lut[supp["s_suppkey"].to_numpy()] = supp["s_nationkey"].to_numpy()
    sref = _ray.put(lut)

    def li_map(t: pa.Table) -> pa.Table:
        sn = _ray.get(sref)[t["l_suppkey"].to_numpy()]
        t = t.filter(pa.array(sn == NATION))
        cents = _cents_half_up(t["l_extendedprice"].to_numpy()
                               * (1.0 - t["l_discount"].to_numpy()))
        return pa.table({"l_partkey": t["l_partkey"],
                         "value_c": pa.array(cents)})

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"]) \
        .map_batches(li_map, batch_format="pyarrow")
    per_part = grouped_reduce(li, "l_partkey", {"value_c": "value_c"},
                              how="sum").materialize()
    # Dataset.sum of an empty dataset returns None — treat as 0 so the
    # threshold filter stays well-defined on empty inputs
    total = per_part.sum("value_c") or 0
    thr = total * FRACTION
    out = per_part.filter(expr=f"value_c > {thr!r}")
    return out.map_batches(
        lambda t: pa.table({"l_partkey": pc.cast(t["l_partkey"], pa.int64()),
                            "value_c": pc.cast(t["value_c"], pa.int64())}),
        batch_format="pyarrow").sort(["value_c", "l_partkey"],
                                     descending=[True, False])


def q16_supplier_count(sf_dir: str):
    """TPC-H Q16 shape: distinct supplier count per (brand, size) for
    parts outside one brand, excluding negative-balance ('complaint')
    suppliers.  Part attributes and the supplier blocklist are broadcast
    dimension arrays applied in the streaming pass; the exact distinct
    count per group is grouped_count_distinct (two range sorts, no hash
    aggregate, unbounded group keys)."""
    import ray as _ray

    from ..stages.groupagg import grouped_count_distinct

    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]) \
        .to_pandas().sort_values("p_partkey")
    pref = _ray.put((part["p_partkey"].to_numpy(),
                     part["p_brand"].to_numpy(),
                     part["p_size"].to_numpy()))
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_acctbal"]) \
        .to_pandas()
    bad = np.sort(supp.loc[supp["s_acctbal"] < 0, "s_suppkey"].to_numpy())
    bref = _ray.put(bad)

    def attrs(t: pa.Table) -> pa.Table:
        keys, brands, sizes = _ray.get(pref)
        badk = _ray.get(bref)
        sk = t["l_suppkey"].to_numpy()
        if len(badk):
            pos = np.clip(np.searchsorted(badk, sk), 0, len(badk) - 1)
            t = t.filter(pa.array(badk[pos] != sk))
        pk = t["l_partkey"].to_numpy()
        pos = np.clip(np.searchsorted(keys, pk), 0, len(keys) - 1)
        hit = keys[pos] == pk
        brand = brands[pos]
        keep = hit & (brand != "Brand#45")
        t = t.filter(pa.array(keep))
        return pa.table({"p_brand": pa.array(brand[keep], pa.string()),
                         "p_size": pa.array(sizes[pos][keep]),
                         "l_suppkey": t["l_suppkey"]})

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]) \
        .map_batches(attrs, batch_format="pyarrow")
    cnt = grouped_count_distinct(li, ["p_brand", "p_size"], "l_suppkey",
                                 out_col="supplier_cnt")
    return cnt.map_batches(
        lambda t: pa.table({
            "p_brand": t["p_brand"],
            "p_size": pc.cast(t["p_size"], pa.int64()),
            "supplier_cnt": pc.cast(t["supplier_cnt"], pa.int64())}),
        batch_format="pyarrow").sort(["supplier_cnt", "p_brand", "p_size"],
                                     descending=[True, False, False])


def lisa_events(sf_dir: str):
    """Local Moran's I (LISA) over the binned event lattice
    (stages/interp.local_moran): the cluster/outlier classification
    sibling of the Gi* hotspot map — positive I marks high-high / low-low
    spatial clusters, negative I marks spatial outliers.  Same
    distributed shape as hotspot_gi_events."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.interp import local_moran

    ds = _read(sf_dir, "events", ["event_id"])

    def binp(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        return pa.table({"gx": pa.array((eid * 7919) % 36000 // 400),
                         "gy": pa.array((eid * 104729) % 18000 // 400),
                         "n": pa.array(np.ones(t.num_rows, np.int64))})

    # local_moran reads cells twice (global moments + stencil)
    cells = grouped_reduce(ds.map_batches(binp, batch_format="pyarrow"),
                           ["gx", "gy"], {"n": "n"}, how="sum").materialize()
    out = local_moran(cells, "gx", "gy", "n", radius=1)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "gx": pc.cast(t["gx"], pa.int64()),
            "gy": pc.cast(t["gy"], pa.int64()),
            "n": pc.cast(t["n"], pa.int64()),
            "lag_sum": pc.cast(t["lag_sum"], pa.int64()),
            "n_neighbors": pc.cast(t["n_neighbors"], pa.int64()),
            "i_e6": _iscale(t["moran_i"].to_numpy(zero_copy_only=False),
                            1000000)})

    return out.map_batches(finish, batch_format="pyarrow") \
        .sort(["gx", "gy"])


def morton_range_events(sf_dir: str):
    """Z-order (Morton) locality key over the binned event lattice
    (stages/sfc.add_morton_key) + a key-range query: the 1-D range
    [1024, 4096) corresponds to a spatially compact block of cells —
    the locality-preserving partitioning trick that turns 2-D spatial
    proximity into ONE sortable int64 column.  Pure streaming encode,
    vectorized magic-number bit spreading, no per-row Python."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.sfc import add_morton_key

    ds = _read(sf_dir, "events", ["event_id"])

    def binp(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        return pa.table({"gx": pa.array((eid * 7919) % 36000 // 400),
                         "gy": pa.array((eid * 104729) % 18000 // 400),
                         "n": pa.array(np.ones(t.num_rows, np.int64))})

    cells = grouped_reduce(ds.map_batches(binp, batch_format="pyarrow"),
                           ["gx", "gy"], {"n": "n"}, how="sum")
    keyed = add_morton_key(cells, "gx", "gy")
    out = keyed.filter(expr="morton_key >= 1024 and morton_key < 4096")
    return out.map_batches(
        lambda t: pa.table({
            "gx": pc.cast(t["gx"], pa.int64()),
            "gy": pc.cast(t["gy"], pa.int64()),
            "morton_key": pc.cast(t["morton_key"], pa.int64()),
            "n": pc.cast(t["n"], pa.int64())}),
        batch_format="pyarrow").sort("morton_key")


def stay_segments_events(sf_dir: str):
    """Stay-point / run-length segments: maximal runs of consecutive
    same-zone events per user (zone = coarse spatial bin), keeping runs
    of >= 2 events — the trajectory stay-detection shape.  Pure
    composition of existing scale paths: group_shift (LAG zone) ->
    change flag -> group_running_sum (segment id) -> ONE composite-key
    grouped_reduce for (start, end, n) -> filter.  No per-group Python
    at any step; user cardinality unbounded."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.window import group_running_sum, group_shift

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def enc(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        return pa.table({"user_id": t["user_id"],
                         "ts_us": t["ts"].cast(pa.int64()),
                         "event_id": t["event_id"],
                         "zone": pa.array((eid * 7919) % 36000 // 9000)})

    lag = group_shift(ds.map_batches(enc, batch_format="pyarrow"),
                      "user_id", ["ts_us", "event_id"], "zone",
                      k=1, out_col="prev_zone")

    def flag(t: pa.Table) -> pa.Table:
        z = t["zone"].to_numpy(zero_copy_only=False).astype(np.float64)
        p = t["prev_zone"].to_numpy(zero_copy_only=False)
        chg = (np.isnan(p) | (p != z)).astype(np.int64)
        return pa.table({"user_id": t["user_id"], "ts_us": t["ts_us"],
                         "event_id": t["event_id"],
                         "zone": t["zone"],
                         "chg": pa.array(chg)})

    seg = group_running_sum(lag.map_batches(flag, batch_format="pyarrow"),
                            "user_id", ["ts_us", "event_id"], "chg",
                            out_col="seg_id")

    def pre(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"],
                         "seg_id": pa.array(
                             t["seg_id"].to_numpy(zero_copy_only=False)
                             .astype(np.int64)),
                         "zone": t["zone"],
                         "ts_lo": t["ts_us"], "ts_hi": t["ts_us"],
                         "n": pa.array(np.ones(t.num_rows, np.int64))})

    agg = grouped_reduce(seg.map_batches(pre, batch_format="pyarrow"),
                         ["user_id", "seg_id"],
                         {"zone": "zone", "ts_lo": "start_us",
                          "ts_hi": "end_us", "n": "n_events"},
                         how={"zone": "max", "ts_lo": "min",
                              "ts_hi": "max", "n": "sum"})
    out = agg.filter(expr="n_events >= 2")
    return out.map_batches(
        lambda t: pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "seg_id": pc.cast(t["seg_id"], pa.int64()),
            "zone": pc.cast(t["zone"], pa.int64()),
            "start_us": pc.cast(t["start_us"], pa.int64()),
            "end_us": pc.cast(t["end_us"], pa.int64()),
            "n_events": pc.cast(t["n_events"], pa.int64())}),
        batch_format="pyarrow").sort(["user_id", "seg_id"])


def moments_by_type_events(sf_dir: str):
    """Per-type sample stddev / skewness / excess kurtosis
    (stages/normalize.grouped_higher_moments): one pass of raw power
    sums s1..s4 per batch, DuckDB's bias corrections applied in the
    finish — the 4th-order extension of the moments combiner."""
    from ..stages.normalize import grouped_higher_moments

    ds = _read(sf_dir, "events", ["event_type", "value"])
    m = grouped_higher_moments(ds, "event_type", "value")
    return m.map_batches(
        lambda t: pa.table({
            "event_type": t["event_type"], "n": t["n"],
            "sd_1e6": _iscale(t["stddev"].to_numpy(zero_copy_only=False),
                              1000000),
            "skew_1e6": _iscale(t["skewness"].to_numpy(
                zero_copy_only=False), 1000000),
            "kurt_1e6": _iscale(t["kurtosis"].to_numpy(
                zero_copy_only=False), 1000000)}),
        batch_format="pyarrow").sort("event_type")


def cusum_user_events(sf_dir: str):
    """Per-user CUSUM change-point (stages/temporal.cusum_changepoint):
    position of max |running sum of deviations from the user mean| —
    grouped_reduce mean + running-sum carry chain + ROW_NUMBER pick,
    ranked on the integer-rounded score so the cross-engine argmax is
    ulp-stable."""
    from ..stages.temporal import cusum_changepoint

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def to_us(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"],
                         "ts_us": t["ts"].cast(pa.int64()),
                         "event_id": t["event_id"],
                         "value": t["value"]})

    cp = cusum_changepoint(ds.map_batches(to_us, batch_format="pyarrow"),
                           "user_id", ["ts_us", "event_id"], "value",
                           score_scale=10000)
    return cp.map_batches(
        lambda t: pa.table({
            "user_id": t["user_id"], "ts_us": t["ts_us"],
            "event_id": t["event_id"],
            "cusum_10k": _iscale_half_away(t["cusum"].to_numpy(
                zero_copy_only=False), 10000),
            "n": t["n"]}),
        batch_format="pyarrow").sort("user_id")


def paginate_orders(sf_dir: str):
    """Distributed ORDER BY ... LIMIT 20 OFFSET 100
    (stages/relational.paginate): one range sort + block-count prefix —
    deep pages never ship more than the page to the driver."""
    from ..stages.relational import paginate

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    page = paginate(ds, ["o_totalprice", "o_orderkey"], offset=100,
                    limit=20, descending=[True, False])
    return page.map_batches(
        lambda t: pa.table({
            "o_orderkey": t["o_orderkey"],
            "price_c": pa.array(_cents_half_up(
                t["o_totalprice"].to_numpy(zero_copy_only=False)))}),
        batch_format="pyarrow")


def autocorr_value_by_user(sf_dir: str):
    """Per-user lag-2 autocorrelation of the value series
    (stages/normalize.grouped_autocorr): group_shift LAG pairing +
    grouped bivariate moments, both on unbounded-key scale paths; the
    oracle is SQL corr(v, LAG(v, 2)) per partition."""
    from ..stages.normalize import grouped_autocorr

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def to_us(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"],
                         "ts_us": t["ts"].cast(pa.int64()),
                         "event_id": t["event_id"],
                         "value": t["value"]})

    ac = grouped_autocorr(ds.map_batches(to_us, batch_format="pyarrow"),
                          "user_id", ["ts_us", "event_id"], "value", k=2)
    return ac.map_batches(
        lambda t: pa.table({"user_id": t["user_id"], "n": t["n"],
                            "acf2_10k": _iscale(t["acf"].to_numpy(
                                zero_copy_only=False), 10000)}),
        batch_format="pyarrow").sort("user_id")


def embedding_cov_entries(sf_dir: str):
    """Distributed covariance of the 64-dim embedding column
    (stages/linalg.covariance_stats): per-block (n, sum, X^T X) partials
    — ONE BLAS matmul per block, vectors never shuffle, the driver folds
    only #blocks x d^2 floats — emitted long-form (i <= j) so DuckDB
    covar_samp can check every entry."""
    from ..stages.linalg import covariance_stats

    ds = _read(sf_dir, "embeddings", ["embedding"])
    _, _, cov = covariance_stats(ds, "embedding")
    d = cov.shape[0]
    iu, ju = np.triu_indices(d)
    return pa.table({"i": pa.array(iu.astype(np.int64)),
                     "j": pa.array(ju.astype(np.int64)),
                     "cov1e6": _iscale(cov[iu, ju], 1000000)})


def interval_overlap_events(sf_dir: str):
    """Large-large interval OVERLAP join
    (stages/relational.interval_overlap_join): deterministic event-derived
    interval sets on both sides, each pair emitted exactly once from the
    bucket holding the overlap start — one hash join, no pair-dedup
    aggregate, no broadcast."""
    from ..stages.relational import interval_overlap_join

    ev = _read(sf_dir, "events", ["event_id", "ts"])

    def mk(left: bool):
        def f(t: pa.Table) -> pa.Table:
            eid = t["event_id"].to_numpy(zero_copy_only=False)
            us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            keep = (eid % 2) == (0 if left else 1)
            eid, us = eid[keep], us[keep]
            span = (eid * (7919 if left else 104729)) % 2000000000
            if left:
                return pa.table({"lid": pa.array(eid), "ls": pa.array(us),
                                 "le": pa.array(us + span)})
            return pa.table({"rid": pa.array(eid), "rs": pa.array(us),
                             "re_us": pa.array(us + span)})
        return f

    left = ev.map_batches(mk(True), batch_format="pyarrow")
    right = ev.map_batches(mk(False), batch_format="pyarrow")
    out = interval_overlap_join(left, right, l_start="ls", l_end="le",
                                r_start="rs", r_end="re_us")
    return out.map_batches(
        lambda t: pa.table({
            "lid": t["lid"], "rid": t["rid"],
            "overlap_us": pa.array(
                np.minimum(t["le"].to_numpy(zero_copy_only=False),
                           t["re_us"].to_numpy(zero_copy_only=False))
                - np.maximum(t["ls"].to_numpy(zero_copy_only=False),
                             t["rs"].to_numpy(zero_copy_only=False)))}),
        batch_format="pyarrow").sort(["lid", "rid"])


def edit_pairs_docs(sf_dir: str):
    """Blocked edit-distance similarity self-join
    (stages/text.blocked_edit_join): blocking key = (lang, first 8 chars),
    exact vectorized-row-DP Levenshtein inside each block — the
    fuzzy-dedup verify stage with an exact SQL twin (DuckDB
    levenshtein)."""
    from ..stages.text import blocked_edit_join

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def key(t: pa.Table) -> pa.Table:
        return pa.table({
            "bk": pc.binary_join_element_wise(
                t["lang"].cast(pa.string()),
                pc.utf8_slice_codeunits(t["text"], 0, 8), "\x1f"),
            "doc_id": t["doc_id"], "text": t["text"]})

    out = blocked_edit_join(ds.map_batches(key, batch_format="pyarrow"),
                            block_col="bk", max_dist=400, max_block=256)
    return out.map_batches(
        lambda t: pa.table({"id_a": pc.cast(t["id_a"], pa.int64()),
                            "id_b": pc.cast(t["id_b"], pa.int64()),
                            "dist": pc.cast(t["dist"], pa.int64())}),
        batch_format="pyarrow").sort(["id_a", "id_b"])


def hilbert_range_events(sf_dir: str):
    """Hilbert-curve locality key over the binned event lattice
    (stages/sfc.add_hilbert_key) + a key-range query — the stronger
    sibling of morton_range_events: consecutive Hilbert keys are always
    lattice NEIGHBORS (unit Manhattan steps, property-tested), so a
    contiguous key range is a connected spatial region with no Z-seam
    jumps.  Vectorized 16-pass bit walk; the oracle reproduces the walk
    exactly with a recursive CTE."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.sfc import add_hilbert_key

    ds = _read(sf_dir, "events", ["event_id"])

    def binp(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        return pa.table({"gx": pa.array((eid * 7919) % 36000 // 400),
                         "gy": pa.array((eid * 104729) % 18000 // 400),
                         "n": pa.array(np.ones(t.num_rows, np.int64))})

    cells = grouped_reduce(ds.map_batches(binp, batch_format="pyarrow"),
                           ["gx", "gy"], {"n": "n"}, how="sum")
    keyed = add_hilbert_key(cells, "gx", "gy")
    out = keyed.filter(expr="hilbert_key >= 1024 and hilbert_key < 4096")
    return out.map_batches(
        lambda t: pa.table({
            "gx": pc.cast(t["gx"], pa.int64()),
            "gy": pc.cast(t["gy"], pa.int64()),
            "hilbert_key": pc.cast(t["hilbert_key"], pa.int64()),
            "n": pc.cast(t["n"], pa.int64())}),
        batch_format="pyarrow").sort("hilbert_key")


def semivariogram_points_events(sf_dir: str):
    """Empirical POINT-pair semivariogram (stages/geostats.semivariogram
    — the bucket-cover pair path; ``semivariogram_events`` is the
    cell-aggregated twin) over a
    deterministic 1-in-5 sample of the formula-derived event coordinates:
    12 bins x 250 km, pairs enumerated by the lat-band bucket cover (no
    all-pairs stage on the Ray side; the oracle IS the all-pairs SQL)."""
    from ..stages.geostats import semivariogram

    ds = _read(sf_dir, "events", ["event_id", "value"])

    def pts(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        keep = (eid % 5) == 0
        eid = eid[keep]
        return pa.table({
            "id": pa.array(eid),
            "lon": pa.array((eid * 7919) % 36000 / 100.0 - 180.0),
            "lat": pa.array((eid * 104729) % 18000 / 100.0 - 90.0),
            "value": pa.array(t["value"].to_numpy(zero_copy_only=False)[keep])})

    sv = semivariogram(ds.map_batches(pts, batch_format="pyarrow"),
                       lag_width_km=250.0, n_bins=12)
    return sv.map_batches(
        lambda t: pa.table({"bin": t["bin"], "n_pairs": t["n_pairs"],
                            "gamma1k": _iscale(t["gamma"].to_numpy(
                                zero_copy_only=False), 1000)}),
        batch_format="pyarrow")


def rog_users_events(sf_dir: str):
    """Per-user radius of gyration (stages/geostats.radius_of_gyration)
    over the formula-derived event coordinates — both aggregate passes on
    the grouped_reduce scale path, centroid zipped back by a key-sized
    hash join (no driver broadcast)."""
    from ..stages.geostats import radius_of_gyration

    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def pts(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": t["user_id"],
            "lon": pa.array((eid * 7919) % 36000 / 100.0 - 180.0),
            "lat": pa.array((eid * 104729) % 18000 / 100.0 - 90.0)})

    rog = radius_of_gyration(ds.map_batches(pts, batch_format="pyarrow"),
                             key="user_id")
    return rog.map_batches(
        lambda t: pa.table({"user_id": t["user_id"],
                            "n_points": t["n_points"],
                            "rog_m": _iscale(t["rog_km"].to_numpy(
                                zero_copy_only=False), 1000)}),
        batch_format="pyarrow").sort("user_id")


def dedup_normalized_docs(sf_dir: str):
    """Normalization-aware exact dedup
    (stages/normalize.normalized_dedup): case/whitespace variants are
    planted deterministically (doc_id % 3 -> uppercased, % 5 ->
    double-spaced), then NFC + lower + whitespace-collapse + trim keys
    the dedup — the planted variants merge back with their raw twins.
    Both engines normalize through the same utf8proc/RE2 kernel
    families, so the md5 of the normalized bytes matches the SQL twin
    bit-for-bit."""
    from ..stages.normalize import normalized_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def perturb(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        arr = t["text"]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        up = pc.utf8_upper(arr)
        sp = pc.replace_substring(arr, " ", "  ")
        m3 = pa.array(ids % 3 == 0)
        m5 = pa.array(ids % 5 == 0)
        out = pc.if_else(m3, up, pc.if_else(m5, sp, arr))
        return pa.table({"doc_id": t["doc_id"], "text": out})

    out = normalized_dedup(ds.map_batches(perturb, batch_format="pyarrow"),
                           text_col="text", id_col="doc_id", hash="md5")
    return out.map_batches(
        lambda t: pa.table({"text_md5": t["text_md5"],
                            "keep_id": pc.cast(t["keep_id"], pa.int64())}),
        batch_format="pyarrow").sort("keep_id")


def source_overlap_docs(sf_dir: str):
    """Cross-source duplication audit (stages/text.source_gram_overlap):
    pairwise distinct-3-gram overlap + Jaccard between corpus sources —
    per-batch distinct (gram-hash, source) partials, one corpus-level
    grouped_reduce, per-gram source bitmask fold, answer-sized per-mask
    table on the driver.  SQL twin reconstructs the gram sets with
    string_split + a distinct self-join."""
    from ..stages.text import source_gram_overlap

    ds = _read(sf_dir, "documents", ["text", "source"])
    return source_gram_overlap(ds, n=3)


def locf_daily_value(sf_dir: str):
    """Per-user daily resample with LOCF gap-fill: daily integer-cent
    totals on a per-user day grid (first observation day .. global max
    day), missing days carried forward
    (stages/window.group_fill_forward — the LAST_VALUE IGNORE NULLS
    carry chain).  Grid expansion is a vectorized per-user fan-out from
    an answer-small bounds table; the observation join is one hash
    join; users never serialize through the driver."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.join import _join_partitions
    from ..stages.window import group_fill_forward

    DAY = np.int64(86_400_000_000)
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def daily(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        return pa.table({
            "user_id": t["user_id"],
            "day": pa.array(ts // DAY),
            "c": pa.array(_cents_half_up(t["value"].to_numpy()))})

    obs = grouped_reduce(ds.map_batches(daily, batch_format="pyarrow"),
                         ["user_id", "day"], {"c": "c"},
                         how="sum").materialize()
    bounds = grouped_reduce(obs, "user_id", {"day": "min_day"}, how="min")
    gmax = int(obs.max("day"))

    def expand(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        d0 = t["min_day"].to_numpy(zero_copy_only=False)
        cnt = (gmax - d0 + 1).astype(np.int64)
        rep = np.repeat(np.arange(len(u)), cnt)
        off = (np.arange(int(cnt.sum()), dtype=np.int64)
               - np.repeat(np.cumsum(cnt) - cnt, cnt))
        return pa.table({"user_id": pa.array(u[rep]),
                         "day": pa.array(d0[rep] + off)})

    grid = bounds.map_batches(expand, batch_format="pyarrow") \
        .repartition(_join_partitions())
    j = join_safe(grid, 
        obs.map_batches(lambda t: t.rename_columns(["u2", "d2", "c"]),
                        batch_format="pyarrow")
           .repartition(_join_partitions()),
        join_type="left_outer", num_partitions=_join_partitions(),
        on=("user_id", "day"), right_on=("u2", "d2"))
    filled = group_fill_forward(j, "user_id", ["day"], "c",
                                out_col="filled")
    return filled.map_batches(
        lambda t: pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "day": pc.cast(t["day"], pa.int64()),
            "filled_c": pa.array(
                t["filled"].to_numpy(zero_copy_only=False)
                .astype(np.int64))}),
        batch_format="pyarrow").sort(["user_id", "day"])


def latlon_density_events(sf_dir: str):
    """Area-normalized event density (events per km^2) on a 4-degree
    lat/lon grid — the area-weighting pattern zonal statistics need on
    any non-equal-area grid: bin counts via the standard combiner, then
    divide by the closed-form spherical rectangle area
    R^2 * d_lambda * (sin phi2 - sin phi1) per latitude band (pure map;
    the SQL twin evaluates the identical expression)."""
    from ..dggs.sphere import EARTH_RADIUS_KM

    ds = _read(sf_dir, "events", ["event_id"])

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        ix = (eid * 7919) % 36000 // 400
        iy = (eid * 104729) % 18000 // 400
        df = pd.DataFrame({"gx": ix, "gy": iy})
        g = df.groupby(["gx", "gy"], sort=False).size().reset_index(name="n")
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["gx", "gy"]).aggregate(Sum("n", alias_name="n")))

    def density(t: pa.Table) -> pa.Table:
        gy = t["gy"].to_numpy(zero_copy_only=False).astype(np.float64)
        lat1 = gy * 4.0 - 90.0
        area = (EARTH_RADIUS_KM ** 2 * (4.0 * np.pi / 180.0)
                * (np.sin(np.radians(lat1 + 4.0)) - np.sin(np.radians(lat1))))
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "gx": pc.cast(t["gx"], pa.int64()),
            "gy": pc.cast(t["gy"], pa.int64()),
            "n": pa.array(n.astype(np.int64)),
            "dens_pe12": pa.array(np.round(n / area * 1e12)
                                  .astype(np.int64))})

    return agg.map_batches(density, batch_format="pyarrow") \
        .sort(["gx", "gy"])


def cell_area_classes(sf_dir: str):
    """True spherical cell areas for every res-2 cell
    (stages/encode.CellAreaKernel: boundary rings -> vectorized fan
    solid angle), summarized per cell class (12 pentagons / 480
    hexagons).  The area-weighting operator for zonal densities, and a
    numerical probe of the equal-area property (laws property-tested in
    tests/test_round4g_ops.py; whole-earth closure ~3e-4 with
    great-circle edge discretization).  Oracle = pinned VALUES."""
    from ..config import dgselect
    from ..stages.encode import CellAreaKernel

    n = ig.num_cells(2)
    ds = ray.data.range(n, override_num_blocks=4)
    dggs = dgselect("IGEO7", resolution=2)

    def to_cells(t: pa.Table) -> pa.Table:
        from .highlevel import _grid_for
        seq = t["id"].to_numpy() + 1
        return pa.table({
            "seqnum": pa.array(seq, type=pa.int64()),
            "cell_id": pa.array(_grid_for(dggs).from_seqnum(seq, 2),
                                type=pa.int64())})

    out = ds.map_batches(to_cells, batch_format="pyarrow") \
            .map_batches(CellAreaKernel(dggs, out_col="area_km2",
                                        unit="km2"),
                         batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        a = t["area_km2"].to_numpy(zero_copy_only=False)
        pent = ig.z7_is_pentagon(
            t["cell_id"].to_numpy(zero_copy_only=False))
        df = pd.DataFrame({"cls": np.where(pent, "pentagon", "hexagon"),
                           "n_cells": np.ones(len(pent), np.int64),
                           "s": a, "mn": a, "mx": a})
        g = df.groupby("cls", sort=False).agg(
            n_cells=("n_cells", "sum"), s=("s", "sum"),
            mn=("mn", "min"), mx=("mx", "max")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (out.map_batches(partial, batch_format="pyarrow")
           .groupby("cls")
           .aggregate(Sum("n_cells", alias_name="n_cells"),
                      Sum("s", alias_name="s"),
                      Min("mn", alias_name="mn"),
                      Max("mx", alias_name="mx")))
    return agg.map_batches(
        lambda t: pa.table({
            "cls": t["cls"],
            "n_cells": pc.cast(t["n_cells"], pa.int64()),
            "mean_km2": _iscale(t["s"].to_numpy(zero_copy_only=False)
                                / t["n_cells"].to_numpy(
                                    zero_copy_only=False), 1),
            "min_km2": _iscale(t["mn"].to_numpy(zero_copy_only=False), 1),
            "max_km2": _iscale(t["mx"].to_numpy(zero_copy_only=False), 1)}),
        batch_format="pyarrow").sort("cls")


def lm_perplexity_docs(sf_dir: str):
    """CCNet-style bigram-LM quality scoring (stages/text.bigram_lm_score,
    Wenzek et al. 2020): train an add-one bigram LM on the corpus, score
    every document by integer-summed per-gram negative log-likelihood —
    vocabulary-bounded count shuffle, broadcast LM table, text never
    shuffles.  Per-gram e6 rounding makes the doc score an exact integer
    SUM, so the SQL twin reproduces it bit-for-bit."""
    from ..stages.text import bigram_lm_score

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = bigram_lm_score(ds, text_col="text", id_col="doc_id")
    return out.map_batches(
        lambda t: pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_bigrams": pc.cast(t["n_bigrams"], pa.int64()),
            "nll_sum_e6": pc.cast(t["nll_sum_e6"], pa.int64())}),
        batch_format="pyarrow").sort("doc_id")


def q9_profit_by_nation(sf_dir: str):
    """TPC-H Q9 shape: product-line profit by supplier nation x order
    year (the testdata has no partsupp, so unit cost is p_retailprice —
    the same two-big-join + two-broadcast-dim dataflow as DGGRID's Q9).
    Part (name-filtered keys + integer-cent retail cost) and
    suppkey->nationkey are broadcast arrays; lineitem pre-collapses to
    per-(orderkey, nation) integer-cent profit BEFORE the big-big hash
    join with orders, so the exchange ships aggregated rows; the final
    (nation, year) groupby is answer-small."""
    import ray as _ray

    from ..stages.groupagg import grouped_reduce
    from ..stages.join import _join_partitions

    part = _read(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"]) \
        .to_pandas()
    m = part["p_name"].str.contains("gear")
    keys = np.sort(part.loc[m, "p_partkey"].to_numpy())
    retail_c = _cents_half_up(part.loc[m, "p_retailprice"].to_numpy())[
        np.argsort(part.loc[m, "p_partkey"].to_numpy())]
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]) \
        .to_pandas()
    lut = np.full(int(supp["s_suppkey"].max()) + 1, -1, np.int64)
    lut[supp["s_suppkey"].to_numpy()] = supp["s_nationkey"].to_numpy()
    pref = _ray.put((keys, retail_c, lut))

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                "l_extendedprice", "l_discount"])

    def profit(t: pa.Table) -> pa.Table:
        keys, retail_c, lut = _ray.get(pref)
        pk = t["l_partkey"].to_numpy()
        pos = np.clip(np.searchsorted(keys, pk), 0, max(len(keys) - 1, 0))
        hit = (keys[pos] == pk) if len(keys) else np.zeros(len(pk), bool)
        t = t.filter(pa.array(hit))
        pos = pos[hit]
        rev_c = _cents_half_up(t["l_extendedprice"].to_numpy()
                               * (1.0 - t["l_discount"].to_numpy()))
        cost_c = retail_c[pos] * t["l_quantity"].to_numpy().astype(np.int64)
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "nation": pa.array(lut[t["l_suppkey"].to_numpy()]),
            "profit_c": pa.array(rev_c - cost_c)})

    per_ok = grouped_reduce(li.map_batches(profit, batch_format="pyarrow"),
                            ["l_orderkey", "nation"],
                            {"profit_c": "profit_c"}, how="sum") \
        .repartition(_join_partitions())
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    j = join_safe(per_ok, orders, join_type="inner",
                    num_partitions=_join_partitions(),
                    on=("l_orderkey",), right_on=("o_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        od = t["o_orderdate"].to_numpy(zero_copy_only=False)
        year = od.astype("datetime64[Y]").astype(np.int64) + 1970
        df = pd.DataFrame({
            "nation": t["nation"].to_numpy(zero_copy_only=False),
            "o_year": year,
            "profit_c": t["profit_c"].to_numpy(zero_copy_only=False)})
        g = df.groupby(["nation", "o_year"], sort=False)["profit_c"] \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (j.map_batches(partial, batch_format="pyarrow")
           .groupby(["nation", "o_year"])
           .aggregate(Sum("profit_c", alias_name="profit_c")))
    return agg.map_batches(
        lambda t: pa.table({
            "nation": pc.cast(t["nation"], pa.int64()),
            "o_year": pc.cast(t["o_year"], pa.int64()),
            "profit_c": pc.cast(t["profit_c"], pa.int64())}),
        batch_format="pyarrow").sort(["nation", "o_year"])


def q2_min_cost_supplier(sf_dir: str):
    """TPC-H Q2 shape: the correlated per-part MIN subquery — for every
    LARGE part of size >= 25, the region-2 supplier with the lowest unit
    price ever charged (testdata has no partsupp; unit price comes from
    lineitem).  Part keys and the region-supplier mask broadcast; the
    per-(part, supplier) min collapses via grouped_reduce; the per-part
    argmin (with the ORDER BY cost, suppkey tie-break) is ONE packed-
    int64 grouped_reduce min — no window shuffle, no join back."""
    import ray as _ray

    from ..stages.groupagg import grouped_reduce

    part = _read(sf_dir, "part", ["p_partkey", "p_type", "p_size"]) \
        .to_pandas()
    m = (part["p_type"] == "LARGE") & (part["p_size"] >= 25)
    keys = np.sort(part.loc[m, "p_partkey"].to_numpy())
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]) \
        .to_pandas()
    rn = set(nation.loc[nation["n_regionkey"] == 2, "n_nationkey"])
    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_nationkey", "s_name"]).to_pandas()
    in_region = np.zeros(int(supp["s_suppkey"].max()) + 1, bool)
    in_region[supp.loc[supp["s_nationkey"].isin(rn),
                       "s_suppkey"].to_numpy()] = True
    names = dict(zip(supp["s_suppkey"].astype(int), supp["s_name"]))
    pref = _ray.put((keys, in_region))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity", "l_extendedprice"])

    def unit_cost(t: pa.Table) -> pa.Table:
        keys, in_region = _ray.get(pref)
        pk = t["l_partkey"].to_numpy()
        sk = t["l_suppkey"].to_numpy()
        pos = np.clip(np.searchsorted(keys, pk), 0, max(len(keys) - 1, 0))
        keep = (keys[pos] == pk) & in_region[sk] if len(keys) \
            else np.zeros(len(pk), bool)
        t = t.filter(pa.array(keep))
        cost_c = _cents_half_up(t["l_extendedprice"].to_numpy()
                                / t["l_quantity"].to_numpy(), 100)
        return pa.table({"p_partkey": t["l_partkey"],
                         "s_suppkey": t["l_suppkey"],
                         "cost_c": pa.array(cost_c)})

    per_ps = grouped_reduce(li.map_batches(unit_cost, batch_format="pyarrow"),
                            ["p_partkey", "s_suppkey"],
                            {"cost_c": "cost_c"}, how="min")

    def pack(t: pa.Table) -> pa.Table:
        # (cost, suppkey) lexicographic min == min of cost*2^20 + suppkey
        # (suppkey < 2^20 guaranteed by the dimension size)
        c = t["cost_c"].to_numpy(zero_copy_only=False)
        s = t["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(s) and (s.max() >= 1 << 20 or c.max() >= 1 << 42):
            raise ValueError("q2 pack overflow: suppkey or cost too wide")
        return pa.table({"p_partkey": t["p_partkey"],
                         "packed": pa.array((c << 20) | s)})

    best = grouped_reduce(per_ps.map_batches(pack, batch_format="pyarrow"),
                          "p_partkey", {"packed": "packed"}, how="min")

    def unpack(t: pa.Table) -> pa.Table:
        p = t["packed"].to_numpy(zero_copy_only=False)
        sk = (p & ((1 << 20) - 1)).astype(np.int64)
        return pa.table({
            "p_partkey": pc.cast(t["p_partkey"], pa.int64()),
            "s_suppkey": pa.array(sk),
            "s_name": pa.array(pd.Series(sk).map(names).to_numpy(),
                               pa.string()),
            "cost_c": pa.array((p >> 20).astype(np.int64))})

    return best.map_batches(unpack, batch_format="pyarrow") \
        .sort("p_partkey")


def q20_top_shippers(sf_dir: str):
    """TPC-H Q20 shape: suppliers holding an outsized share of a product
    line — the nested IN-with-aggregate-threshold (no partsupp: 'share'
    is shipped quantity; keep (supplier, part) pairs whose quantity
    exceeds 15% of the part's total).  Red-part keys broadcast; ONE
    grouped_reduce builds per-(supp, part) quantities; the per-part
    total folds from that output (tiny); the threshold compare is exact
    integer (100*qty > 15*tot).  Per-supplier distinct-part counts are
    answer-small."""
    import ray as _ray

    from ..stages.groupagg import grouped_reduce
    from ..stages.join import _join_partitions

    part = _read(sf_dir, "part", ["p_partkey", "p_name"]).to_pandas()
    keys = np.sort(
        part.loc[part["p_name"].str.startswith("red"),
                 "p_partkey"].to_numpy())
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
    names = dict(zip(supp["s_suppkey"].astype(int), supp["s_name"]))
    kref = _ray.put(keys)

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity"])

    def keep(t: pa.Table) -> pa.Table:
        keys = _ray.get(kref)
        pk = t["l_partkey"].to_numpy()
        pos = np.clip(np.searchsorted(keys, pk), 0, max(len(keys) - 1, 0))
        t = t.filter(pa.array(keys[pos] == pk) if len(keys)
                     else pa.array(np.zeros(len(pk), bool)))
        return pa.table({
            "l_partkey": t["l_partkey"], "l_suppkey": t["l_suppkey"],
            "qty": pa.array(t["l_quantity"].to_numpy().astype(np.int64))})

    per_sp = grouped_reduce(li.map_batches(keep, batch_format="pyarrow"),
                            ["l_partkey", "l_suppkey"], {"qty": "qty"},
                            how="sum").materialize()
    tot = grouped_reduce(per_sp, "l_partkey", {"qty": "tot"}, how="sum") \
        .repartition(_join_partitions())
    j = join_safe(per_sp.repartition(_join_partitions()), 
        tot.map_batches(lambda t: t.rename_columns(["pk", "tot"]),
                        batch_format="pyarrow"),
        join_type="inner", num_partitions=_join_partitions(),
        on=("l_partkey",), right_on=("pk",))

    def thresh(t: pa.Table) -> pa.Table:
        q = t["qty"].to_numpy(zero_copy_only=False)
        tt = t["tot"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(100 * q > 15 * tt))
        return pa.table({
            "s_suppkey": pc.cast(t["l_suppkey"], pa.int64()),
            "one": pa.array(np.ones(t.num_rows, np.int64))})

    agg = (j.map_batches(thresh, batch_format="pyarrow")
           .groupby("s_suppkey")
           .aggregate(Sum("one", alias_name="n_parts")))
    return agg.map_batches(
        lambda t: pa.table({
            "s_suppkey": pc.cast(t["s_suppkey"], pa.int64()),
            "s_name": pa.array(
                pd.Series(t["s_suppkey"].to_numpy(
                    zero_copy_only=False).astype(int)).map(names)
                .to_numpy(), pa.string()),
            "n_parts": pc.cast(t["n_parts"], pa.int64())}),
        batch_format="pyarrow").sort("s_suppkey")


def q21_late_suppliers(sf_dir: str):
    """TPC-H Q21 shape: suppliers who alone kept multi-supplier orders
    waiting — the EXISTS (another supplier in the order) + NOT EXISTS
    (no OTHER supplier was late) pair (testdata has no receipt/commit
    dates; 'late' = shipped > 60 days after the order date).  Finished
    orders join lineitem once (big-big hash join on orderkey), collapse
    to per-(order, supplier) late flags, fold per-order supplier/late
    counts from that output, join back, and apply both EXISTS
    predicates as a vectorized mask; the per-supplier wait count is
    answer-small, supplier name + region filter broadcast."""
    import ray as _ray

    from ..stages.groupagg import grouped_reduce
    from ..stages.join import _join_partitions

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]) \
        .to_pandas()
    rn = set(nation.loc[nation["n_regionkey"] == 2, "n_nationkey"])
    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_nationkey", "s_name"]).to_pandas()
    in_region = np.zeros(int(supp["s_suppkey"].max()) + 1, bool)
    in_region[supp.loc[supp["s_nationkey"].isin(rn),
                       "s_suppkey"].to_numpy()] = True
    names = dict(zip(supp["s_suppkey"].astype(int), supp["s_name"]))
    rref = _ray.put(in_region)

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderstatus", "o_orderdate"]) \
        .filter(expr="o_orderstatus == 'F'") \
        .select_columns(["o_orderkey", "o_orderdate"])
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate"])
    j = join_safe(li, orders, join_type="inner",
                num_partitions=_join_partitions(),
                on=("l_orderkey",), right_on=("o_orderkey",))

    def late_flag(t: pa.Table) -> pa.Table:
        sd = t["l_shipdate"].to_numpy(zero_copy_only=False)
        od = t["o_orderdate"].to_numpy(zero_copy_only=False)
        late = (sd > od + np.timedelta64(60, "D")).astype(np.int64)
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_suppkey": t["l_suppkey"],
                         "late": pa.array(late)})

    f = grouped_reduce(j.map_batches(late_flag, batch_format="pyarrow"),
                       ["l_orderkey", "l_suppkey"], {"late": "late"},
                       how="max").materialize()
    per_o = grouped_reduce(
        f.map_batches(
            lambda t: t.append_column(
                "one", pa.array(np.ones(t.num_rows, np.int64))),
            batch_format="pyarrow"),
        "l_orderkey", {"one": "ns", "late": "nl"}, how="sum") \
        .map_batches(lambda t: t.rename_columns(["ok", "ns", "nl"]),
                     batch_format="pyarrow").repartition(_join_partitions())
    jf = join_safe(f.repartition(_join_partitions()), 
        per_o, join_type="inner", num_partitions=_join_partitions(),
        on=("l_orderkey",), right_on=("ok",))

    def waiters(t: pa.Table) -> pa.Table:
        in_region = _ray.get(rref)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False)
        m = ((t["late"].to_numpy(zero_copy_only=False) == 1)
             & (t["ns"].to_numpy(zero_copy_only=False) > 1)
             & (t["nl"].to_numpy(zero_copy_only=False) == 1)
             & in_region[sk])
        return pa.table({
            "s_suppkey": pa.array(sk[m].astype(np.int64)),
            "one": pa.array(np.ones(int(m.sum()), np.int64))})

    agg = (jf.map_batches(waiters, batch_format="pyarrow")
           .groupby("s_suppkey")
           .aggregate(Sum("one", alias_name="numwait")))
    return agg.map_batches(
        lambda t: pa.table({
            "s_suppkey": pc.cast(t["s_suppkey"], pa.int64()),
            "s_name": pa.array(
                pd.Series(t["s_suppkey"].to_numpy(
                    zero_copy_only=False).astype(int)).map(names)
                .to_numpy(), pa.string()),
            "numwait": pc.cast(t["numwait"], pa.int64())}),
        batch_format="pyarrow").sort("s_suppkey")


def ppjoin_pairs_docs(sf_dir: str):
    """EXACT all-pairs word-set Jaccard >= 0.9 self-join via prefix
    filtering (stages/dedup.set_similarity_join, the SSJoin/PPJoin
    family) — the zero-recall-loss complement to the minhash sketch path
    (reference semantics: dggrid4py has no similarity join; this is the
    training-data-curation surface).  All-integer output (n_shared,
    n_union), so the DuckDB distinct-token self-join twin matches
    bit-exactly."""
    from ..stages.dedup import set_similarity_join

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return set_similarity_join(ds, tau_1e6=900000).sort(["id_a", "id_b"])


def bfs_hops_users(sf_dir: str):
    """Multi-hop BFS shortest-hop counts (stages/graph.bfs_shortest_hops)
    over a deterministic functional graph derived from the distinct event
    users: u -> (2u+7) % M and u -> (3u+11) % M with M = max(user)+1,
    source = min(user), hops <= 8.  The iterative-frontier traversal the
    Dataset API can't express natively; oracle = bounded recursive-CTE
    walk enumeration with MIN(hop)."""
    from ..stages.graph import bfs_shortest_hops
    from ..stages.groupagg import grouped_count

    ev = _read(sf_dir, "events", ["user_id"])
    # ONE scan of events: min/max ride the (small) distinct-user table
    users = grouped_count(ev, "user_id").drop_columns(["n"]).materialize()
    lo = users.min("user_id")
    m = users.max("user_id") + 1

    def mk(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "src": pa.array(np.concatenate([u, u])),
            "dst": pa.array(np.concatenate([(2 * u + 7) % m,
                                            (3 * u + 11) % m]))})

    edges = users.map_batches(mk, batch_format="pyarrow")
    return bfs_shortest_hops(edges, [lo], max_hops=8).sort("node")


def histogram_value_events(sf_dir: str):
    """Equi-width 40-bucket histogram of event values in integer cents
    (stages/relational.value_histogram): count + cents sum per bucket.
    The bucket law is explicit integer arithmetic — (c*40)//50000 + 1 —
    so the SQL twin reproduces it with no float boundary ulps."""
    from ..stages.relational import value_histogram

    ev = _read(sf_dir, "events", ["value"])

    def cents(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["value"]))  # SQL: WHERE value IS NOT NULL
        return pa.table({"cents": pa.array(
            _cents_half_up(t["value"].to_numpy(zero_copy_only=False)))})

    out = value_histogram(ev.map_batches(cents, batch_format="pyarrow"),
                          "cents", lo=0, hi=50000, n_buckets=40,
                          agg_cols={"cents": "sum_cents"})
    return out.sort("bucket")


def dq_audit_events(sf_dir: str):
    """Data-quality expectation audit (stages/validate.expectation_audit):
    five vectorized checks + total rows + event_id uniqueness in one
    narrow pass (only (check, count) partials leave the workers).  The
    ingest-gate stage of a production corpus pipeline."""
    from ..stages.validate import expectation_audit

    ev = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "value", "event_type"])
    jan10 = np.datetime64("2024-01-10T00:00:00.000000")
    allowed = pa.array(["click", "view", "signup"], pa.string())

    checks = {
        "null_value": lambda t: pc.is_null(t["value"]),
        "value_out_of_range": lambda t: pc.or_(
            pc.less(t["value"], 0.0), pc.greater(t["value"], 100.0)),
        "user_id_negative": lambda t: pc.less(t["user_id"], 0),
        "type_not_allowed": lambda t: pc.invert(
            pc.is_in(t["event_type"], value_set=allowed)),
        "stale_ts": lambda t: pc.less(
            t["ts"], pa.scalar(jan10, pa.timestamp("us"))),
    }
    out = expectation_audit(ev, checks, unique_col="event_id")
    return out.map_batches(
        lambda t: t.select(["check", "n_bad"]), batch_format="pyarrow"
    ).sort("check")


def sssp_users(sf_dir: str):
    """Bounded-hop weighted shortest paths (stages/graph.sssp_bounded,
    Bellman-Ford rounds) over a deterministic weighted functional graph on
    the distinct event users: u -> (2u+7) % M weight (u%7)+1 and
    u -> (3u+11) % M weight (u%5)+3, source = min(user), <= 6 hops.  The
    weighted generalization of bfs_hops_users — a node's dist can improve
    after first touch, so the frontier is improved-last-round, not
    never-seen.  Oracle = bounded recursive-CTE path enumeration with
    MIN(total weight)."""
    from ..stages.graph import sssp_bounded
    from ..stages.groupagg import grouped_count

    ev = _read(sf_dir, "events", ["user_id"])
    # ONE scan of events: min/max ride the (small) distinct-user table
    users = grouped_count(ev, "user_id").drop_columns(["n"]).materialize()
    lo = users.min("user_id")
    m = users.max("user_id") + 1

    def mk(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "src": pa.array(np.concatenate([u, u])),
            "dst": pa.array(np.concatenate([(2 * u + 7) % m,
                                            (3 * u + 11) % m])),
            "w": pa.array(np.concatenate([u % 7 + 1, u % 5 + 3]))})

    edges = users.map_batches(mk, batch_format="pyarrow")
    return sssp_bounded(edges, [lo], max_hops=6).sort("node")


def dup_window_docs(sf_dir: str):
    """Cross-document duplicated 8-token-window counts per doc
    (stages/dedup.duplicated_window_counts — the Lee et al. 2022 exact-
    substring duplication signal).  Only docs with >= 8 tokens appear;
    n_dup_windows counts window positions whose text occurs >= 2 times
    corpus-wide."""
    from ..stages.dedup import duplicated_window_counts

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return duplicated_window_counts(ds, window=8).sort("doc_id")


def split_assign_docs(sf_dir: str):
    """Deterministic train/val/test split assignment (md5 bucket of
    doc_id: <80 train, <90 val, else test — the hash_sample lane,
    stable under retries/resume/cluster size) rolled up per (lang,
    split): doc count + total chars.  The split-manifest stage of a
    training-data pipeline."""
    from ..stages.sampling import _md5_u64

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def assign(t: pa.Table) -> pa.Table:
        import pandas as pd
        if t.num_rows == 0:
            return pa.table({"lang": pa.array([], pa.string()),
                             "split": pa.array([], pa.string()),
                             "n_docs": pa.array([], pa.int64()),
                             "sum_chars": pa.array([], pa.int64())})
        b = _md5_u64(t["doc_id"].to_numpy(zero_copy_only=False)) % 100
        split = np.where(b < 80, "train", np.where(b < 90, "val", "test"))
        df = pd.DataFrame({
            "lang": t["lang"].to_numpy(zero_copy_only=False),
            "split": split,
            "n_chars": t["n_chars"].to_numpy(zero_copy_only=False)})
        g = df.groupby(["lang", "split"], sort=True)
        out = g.agg(n_docs=("n_chars", "size"),
                    sum_chars=("n_chars", "sum")).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    from ray.data.aggregate import Sum
    return (docs.map_batches(assign, batch_format="pyarrow")
                .groupby(["lang", "split"])
                .aggregate(Sum("n_docs", alias_name="n_docs"),
                           Sum("sum_chars", alias_name="sum_chars"))
                .sort(["lang", "split"]))


def iqr_outliers_events(sf_dir: str):
    """Per-event-type Tukey-fence outlier audit: exact q1/q3
    (stages/relational.exact_group_quantile, quantile_disc semantics)
    -> driver-side fences q1 - 1.5*IQR / q3 + 1.5*IQR (3 groups) ->
    one broadcast filter-count pass.  Counts compare exactly because the
    fence arithmetic is the same IEEE-double expression on both sides."""
    from ..stages.relational import exact_group_quantile

    ev = _read(sf_dir, "events", ["event_type", "value"])
    ev = ev.map_batches(
        lambda t: t.filter(pc.is_valid(t["value"])),
        batch_format="pyarrow")
    q1 = exact_group_quantile(ev, "event_type", "value", q=0.25)
    q3 = exact_group_quantile(ev, "event_type", "value", q=0.75)
    d1 = {g: v for g, v in zip(q1["event_type"].to_pylist(),
                               q1["quantile"].to_pylist())}
    d3 = {g: v for g, v in zip(q3["event_type"].to_pylist(),
                               q3["quantile"].to_pylist())}
    fences = {g: (d1[g] - 1.5 * (d3[g] - d1[g]),
                  d3[g] + 1.5 * (d3[g] - d1[g])) for g in d1}
    fref = ray.put(fences)

    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd
        if t.num_rows == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "n_outliers": pa.array([], pa.int64())})
        fn = ray.get(fref)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        v = t["value"].to_numpy(zero_copy_only=False)
        lo = pd.Series(et).map({g: f[0] for g, f in fn.items()}).to_numpy()
        hi = pd.Series(et).map({g: f[1] for g, f in fn.items()}).to_numpy()
        out = (v < lo) | (v > hi)
        df = pd.DataFrame({"event_type": et, "out": out})
        g = df.groupby("event_type", sort=True)
        res = g.agg(n=("out", "size"), n_outliers=("out", "sum")
                    ).reset_index()
        res["n_outliers"] = res["n_outliers"].astype(np.int64)
        return pa.Table.from_pandas(res, preserve_index=False)

    from ray.data.aggregate import Sum
    return (ev.map_batches(partial, batch_format="pyarrow")
              .groupby("event_type")
              .aggregate(Sum("n", alias_name="n"),
                         Sum("n_outliers", alias_name="n_outliers"))
              .sort("event_type"))


def event_paths_by_user(sf_dir: str):
    """Per-user ordered event-type path string (stages/groupagg.
    grouped_string_agg — SQL STRING_AGG(x, '>' ORDER BY event_id) at
    UNBOUNDED key cardinality: one range sort + an O(#blocks) tail-carry
    chain, never O(#groups) driver state).  The session-path feature of
    behavioral pipelines."""
    from ..stages.groupagg import grouped_string_agg

    ev = _read(sf_dir, "events", ["user_id", "event_id", "event_type"])
    return grouped_string_agg(ev, key="user_id", order_col="event_id",
                              text_col="event_type", sep=">",
                              out_col="path").sort("user_id")


def mode_event_type_by_user(sf_dir: str):
    """Per-user modal event type (stages/relational.grouped_mode): ties
    broken by the lexicographically smallest type.  Bounded value domain
    -> the argmax is ONE packed-int64 grouped_reduce max over the
    (user, type) counts; no window shuffle, no per-group Python."""
    from ..stages.relational import grouped_mode

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    return grouped_mode(ev, "user_id", "event_type",
                        out_col="mode_type", n_col="n").sort("user_id")


def table_fingerprint_orders(sf_dir: str):
    """Whole-table order-insensitive content fingerprint
    (stages/validate.table_fingerprint): XOR of md5_number_upper over
    canonical row strings + row count, in ONE narrow pass with one
    (xor, count) partial per block.  The reconciliation primitive behind
    resumable/checkpointed runs — two copies agree iff (n_rows, fp)
    agree; bit-exact vs the DuckDB twin."""
    from ..stages.validate import table_fingerprint

    o = _read(sf_dir, "orders",
              ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice"])

    def canon(t: pa.Table) -> pa.Table:
        cents = _cents_half_up(
            t["o_totalprice"].to_numpy(zero_copy_only=False))
        return pa.table({"k": t["o_orderkey"], "c": t["o_custkey"],
                         "s": t["o_orderstatus"],
                         "p": pa.array(cents)})

    return table_fingerprint(o.map_batches(canon, batch_format="pyarrow"),
                             ["k", "c", "s", "p"])


def full_outer_recon_users(sf_dir: str):
    """FULL OUTER reconciliation of two keyed aggregates — per-user event
    counts vs per-customer order counts: matched keys, left-only and
    right-only all surface with 0-filled counts (the audit join of a
    migration/backfill).  Ray's hash full_outer coalesces the key; both
    inputs are answer-ish-sized grouped counts, coalesced against the
    empty-first-block schema poison."""
    from ..stages.bloom import _coalesce_for_join
    from ..stages.dedup import _join_partitions
    from ..stages.groupagg import grouped_count

    ev = _read(sf_dir, "events", ["user_id"])
    od = _read(sf_dir, "orders", ["o_custkey"])
    left = grouped_count(ev, "user_id", out_col="n_events")
    right = grouped_count(od, "o_custkey", out_col="n_orders")
    parts = _join_partitions()
    left, _nl = _coalesce_for_join(left, parts)
    right, _nr = _coalesce_for_join(right, parts)
    j = join_safe(left, right, join_type="full_outer", num_partitions=parts,
                  on=("user_id",), right_on=("o_custkey",))

    def finish(t: pa.Table) -> pa.Table:
        zero = pa.scalar(0, pa.int64())
        return pa.table({
            "key": t["user_id"].cast(pa.int64()),
            "n_events": pc.coalesce(t["n_events"].cast(pa.int64()), zero),
            "n_orders": pc.coalesce(t["n_orders"].cast(pa.int64()), zero)})

    return j.map_batches(finish, batch_format="pyarrow").sort("key")


def weighted_median_price_by_status(sf_dir: str):
    """Quantity-WEIGHTED median price per lineitem linestatus
    (stages/relational.exact_group_quantile_sorted with weight_col): the
    smallest price whose cumulative quantity reaches half the total —
    integer weights and integer cents, so the window-SQL twin matches
    bit-exactly.  Same unbounded-key machinery as the unweighted sorted
    quantile; weights replace counts."""
    from ..stages.relational import exact_group_quantile_sorted

    li = _read(sf_dir, "lineitem",
               ["l_linestatus", "l_extendedprice", "l_quantity"])

    def prep(t: pa.Table) -> pa.Table:
        cents = _cents_half_up(
            t["l_extendedprice"].to_numpy(zero_copy_only=False))
        w = t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"l_linestatus": t["l_linestatus"],
                         "cents": pa.array(cents), "w": pa.array(w)})

    out = exact_group_quantile_sorted(
        li.map_batches(prep, batch_format="pyarrow"),
        "l_linestatus", "cents", q=0.5, out_col="wmedian_cents",
        weight_col="w")
    return out.sort("l_linestatus")


def asof_clicks_purchases(sf_dir: str):
    """LARGE-LARGE per-KEY as-of join (stages/temporal.asof_join_keyed):
    each purchase event matched to the same user's most recent click at
    or before it — the attribution join, with BOTH sides unbounded (the
    broadcast as-of needs a small right side; the bucket as-of has no
    key).  One tagged-union range sort + the O(#blocks) LOCF carry; the
    oracle is DuckDB's native keyed ASOF LEFT JOIN.  Right side is
    dedup-free by data contract (no duplicate (user, ts) clicks —
    verified; duplicates would make the SQL ASOF ambiguous too)."""
    from ..stages.temporal import asof_join_keyed

    ev = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type", "value"])
    probes = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "purchase"))
                   .select(["event_id", "ts", "user_id"]),
        batch_format="pyarrow")
    clicks = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click"))
                   .select(["ts", "user_id", "value"]),
        batch_format="pyarrow")
    out = asof_join_keyed(probes, clicks, key_col="user_id", ts_col="ts",
                          right_val_col="value", left_id_col="event_id",
                          out_col="click_value")
    return out.map_batches(
        lambda t: t.select(["event_id", "user_id", "click_value"]),
        batch_format="pyarrow").sort("event_id")


def cdc_merge_orders(sf_dir: str):
    """CDC MERGE / upsert apply (stages/relational.merge_changes): a
    deterministic change stream derived from orders — keys ≡3 (mod 11)
    get two updates (seq 2 wins), ≡7 are deleted, ≡5 spawn inserts at
    key+10⁷ — folded into the base (o_orderkey, cents) table.  Latest
    change per key wins; the base streams through one bloom anti-join
    and never sorts or shuffles."""
    from ..stages.relational import merge_changes

    o = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def to_base(t: pa.Table) -> pa.Table:
        cents = _cents_half_up(
            t["o_totalprice"].to_numpy(zero_copy_only=False))
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "cents": pa.array(cents)})

    base = o.map_batches(to_base, batch_format="pyarrow")

    def to_changes(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = _cents_half_up(
            t["o_totalprice"].to_numpy(zero_copy_only=False))
        m3, m7, m5 = k % 11 == 3, k % 11 == 7, k % 11 == 5
        keys = np.concatenate([k[m3], k[m3], k[m7], k[m5] + 10_000_000])
        seqs = np.concatenate([np.full(m3.sum(), 1), np.full(m3.sum(), 2),
                               np.full(m7.sum(), 1), np.full(m5.sum(), 1)
                               ]).astype(np.int64)
        ops = np.concatenate([np.full(m3.sum(), "U"),
                              np.full(m3.sum(), "U"),
                              np.full(m7.sum(), "D"),
                              np.full(m5.sum(), "I")])
        vals = np.concatenate([cents[m3] + 100, cents[m3] + 200,
                               np.zeros(m7.sum(), np.int64),
                               cents[m5] + 1]).astype(np.int64)
        return pa.table({"o_orderkey": pa.array(keys),
                         "seq": pa.array(seqs),
                         "op": pa.array(ops, pa.string()),
                         "cents": pa.array(vals)})

    changes = o.map_batches(to_changes, batch_format="pyarrow")
    merged = merge_changes(base, changes, "o_orderkey",
                           payload_cols=["o_orderkey", "cents"])
    return merged.sort("o_orderkey")


def centroid_cosine_labels(sf_dir: str):
    """Pairwise cosine similarity between per-label centroid embeddings
    (stages/linalg.label_centroid_cosine) — the cluster-geometry audit of
    an embedding corpus.  Components are integer-grid-quantized BEFORE
    summation so the per-(label, dim) sums are exact int64 at any
    parallelism, and the final cosine is an exact-integer dot (HUGEINT in
    the SQL twin) with one shared IEEE expression — bit-exact oracle for
    a floating-point analytics op."""
    from ..stages.linalg import label_centroid_cosine

    emb = _read(sf_dir, "embeddings", ["label", "embedding"])
    return label_centroid_cosine(emb).sort(["label_a", "label_b"])


def dup_cluster_sizes_docs(sf_dir: str):
    """Histogram of near-duplicate cluster sizes under a 3-token-prefix
    blocking key (how much of the corpus shares an opening — the curation
    report behind a dedup pass; raw texts here are all distinct, so the
    blocking key is what actually clusters): per-key counts via
    grouped_count at unbounded keys, then the answer-small
    counts-of-counts."""
    from ..stages.groupagg import grouped_count
    from ..stages.text import _space_tokens

    docs = _read(sf_dir, "documents", ["text"])

    def prefix_key(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"key": pa.array([], pa.string())})
        _, off, flat = _space_tokens(t["text"])
        if (np.diff(off) < 3).any():
            raise ValueError("prefix_key: document under 3 tokens")
        starts = pa.array(off[:-1])
        cols = [flat.take(pc.add(starts, j)) for j in range(3)]
        return pa.table({"key": pc.binary_join_element_wise(*cols, " ")})

    keyed = docs.map_batches(prefix_key, batch_format="pyarrow")
    per_key = grouped_count(keyed, "key", out_col="cluster_size")
    return grouped_count(per_key.drop_columns(["key"]), "cluster_size",
                         out_col="n_clusters").sort("cluster_size")


def checkpoint_roundtrip_events(sf_dir: str):
    """End-to-end resumable-sink roundtrip (state/checkpoint.
    write_dataset_checkpointed): events stream into partitioned parquet
    with per-partition lineage manifests (partition id = user_id % 8,
    deterministic input lineage), are read BACK from the checkpoint
    directory, and aggregate per event type — proving the sink/source
    pair preserves content exactly (the oracle aggregates the original events
    directly).  A fresh out_dir per run; the write path streams (batches
    are written as they flow, nothing materializes)."""
    import glob
    import shutil

    from ray.data.aggregate import Sum

    from ..state.checkpoint import write_dataset_checkpointed

    import hashlib
    # stable digest (NOT hash(): PYTHONHASHSEED randomizes it per process,
    # which would leak a fresh /tmp dir every driver run)
    out_dir = ("/tmp/ckpt_roundtrip_"
               + hashlib.md5(sf_dir.encode()).hexdigest()[:8])
    shutil.rmtree(out_dir, ignore_errors=True)

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type",
                                  "value"])

    def part(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = _cents_half_up(t["value"].to_numpy(zero_copy_only=False))
        return pa.table({"event_id": t["event_id"],
                         "event_type": t["event_type"],
                         "cents": pa.array(cents),
                         "part_id": pa.array(u % 8)})

    write_dataset_checkpointed(ev.map_batches(part, batch_format="pyarrow"),
                               out_dir, lineage={"input": sf_dir})

    back = ray.data.read_parquet(
        sorted(glob.glob(f"{out_dir}/part-*/data-*.parquet")),
        columns=["event_type", "cents"])
    return (back.groupby("event_type")
                .aggregate(Sum("cents", alias_name="sum_cents"))
                .sort("event_type"))


QUERIES = {
    "q1_pricing": q1_pricing,
    "q3_top_revenue": q3_top_revenue,
    "q5_nation_revenue": q5_nation_revenue,
    "q6_forecast_revenue": q6_forecast_revenue,
    "q14_promo_revenue": q14_promo_revenue,
    "events_daily": events_daily,
    "latlon_bin_events": latlon_bin_events,
    "presence_latlon_events": presence_latlon_events,
    "zonal_synthetic": zonal_synthetic,
    "polyfill_whole_earth": polyfill_whole_earth,
    "children_counts": children_counts,
    "codec_roundtrip": codec_roundtrip,
    "dedup_exact_docs": dedup_exact_docs,
    "text_stats_by_lang": text_stats_by_lang,
    "ann_top10": ann_top10,
    "igeo7_encode_events": igeo7_encode_events,
    "spans_cell_assignments": spans_assignment_hist,
    "minhash_pairs_docs": minhash_pairs_docs,
    "polyfill_clip_box": polyfill_clip_box,
    "sliding_events_7d": sliding_events_7d,
    "sessions_per_user": sessions_per_user,
    "asof_events_markers": asof_events_markers,
    "curation_pipeline": curation_pipeline,
    "topk_docs_per_lang": topk_docs_per_lang,
    "range_join_events": range_join_events,
    "range_join_events_ll": range_join_events_ll,
    "asof_events_markers_ll": asof_events_markers_ll,
    "quantiles_by_flag": quantiles_by_flag,
    "hash_sample_docs": hash_sample_docs,
    "hll_distinct_users": hll_distinct_users,
    "kring_res2": kring_res2,
    "pip_join_events": pip_join_events,
    "spatial_cells_join_events": spatial_cells_join_events,
    "media_features_spans": media_features_spans,
    "dateline_split_res3": dateline_split_res3,
    "dggrid_golden_literals": dggrid_golden_literals,
    "z3_roundtrip": z3_roundtrip,
    "isea43h_binning": isea43h_binning,
    "simhash_pairs_docs": simhash_pairs_docs,
    "ngram_verified_pairs": ngram_verified_pairs,
    "embedding_dup_pairs": embedding_dup_pairs,
    "ann_ivf_top10": ann_ivf_top10,
    "weighted_sample_docs": weighted_sample_docs,
    "heavy_tokens_docs": heavy_tokens_docs,
    "bloom_semijoin_events": bloom_semijoin_events,
    "knn_sites_events": knn_sites_events,
    "pack_sequences_docs": pack_sequences_docs,
    "quantile_sketch_events": quantile_sketch_events,
    "stratified_sample_docs": stratified_sample_docs,
    "cc_clusters_docs": cc_clusters_docs,
    "dedup_canonical_docs": dedup_canonical_docs,
    "epoch_shuffle_docs": epoch_shuffle_docs,
    "redact_docs": redact_docs,
    "rollup_latlon_events": rollup_latlon_events,
    "rollup_z7_events": rollup_z7_events,
    "contamination_docs": contamination_docs,
    "repetition_docs": repetition_docs,
    "token_df_top10": token_df_top10,
    "kmeans_step_embeddings": kmeans_step_embeddings,
    "inverted_index_docs": inverted_index_docs,
    "blocklist_filter_docs": blocklist_filter_docs,
    "zscore_by_lang": zscore_by_lang,
    "ntile_by_lang": ntile_by_lang,
    "bloom_antijoin_events": bloom_antijoin_events,
    "pagerank_custsupp": pagerank_custsupp,
    "running_total_by_user": running_total_by_user,
    "curation_v2": curation_v2,
    "q4_priority_semijoin": q4_priority_semijoin,
    "rollup_pricing": rollup_pricing,
    "paragraph_dedup_docs": paragraph_dedup_docs,
    "idw_grid_events": idw_grid_events,
    "quality_gate_docs": quality_gate_docs,
    "zonal_majority_events": zonal_majority_events,
    "dilate_clip_box": dilate_clip_box,
    "radius_join_events": radius_join_events,
    "erode_dilated_box": erode_dilated_box,
    "mad_by_flag": mad_by_flag,
    "ohlc_daily_events": ohlc_daily_events,
    "first_last_by_user": first_last_by_user,
    "doc_embed_norms": doc_embed_norms,
    "rank_docs_by_chars": rank_docs_by_chars,
    "props_k_stats": props_k_stats,
    "lag_delta_events": lag_delta_events,
    "moving_avg_events": moving_avg_events,
    "corr_price_qty": corr_price_qty,
    "cube_pricing": cube_pricing,
    "pivot_user_events": pivot_user_events,
    "user_entropy": user_entropy,
    "compact_box_cells": compact_box_cells,
    "q13_custdist": q13_custdist,
    "q18_big_orders": q18_big_orders,
    "hll_users_by_type": hll_users_by_type,
    "tfidf_top3_docs": tfidf_top3_docs,
    "q15_top_supplier": q15_top_supplier,
    "q22_dormant_customers": q22_dormant_customers,
    "dedup_prefer_source": dedup_prefer_source,
    "funnel_events": funnel_events,
    "cohort_retention_events": cohort_retention_events,
    "quantile_cont_by_flag": quantile_cont_by_flag,
    "trajectory_length_by_user": trajectory_length_by_user,
    "geodesic_trace_res2": geodesic_trace_res2,
    "adaptive_bin_events": adaptive_bin_events,
    "weekly_wow_events": weekly_wow_events,
    "streaming_dedup_events": streaming_dedup_events,
    "median_price_per_order": median_price_per_order,
    "percent_rank_docs": percent_rank_docs,
    "segment_users_events": segment_users_events,
    "approx_median_chars_by_lang": approx_median_chars_by_lang,
    "ann_sq8_top10": ann_sq8_top10,
    "triangle_count_lineitem": triangle_count_lineitem,
    "decayed_activity_by_user": decayed_activity_by_user,
    "mixture_sample_docs": mixture_sample_docs,
    "ann_pq_top10": ann_pq_top10,
    "wau_purchases": wau_purchases,
    "ewma_value_by_user": ewma_value_by_user,
    "snapshot_diff_orders": snapshot_diff_orders,
    "interval_coverage_users": interval_coverage_users,
    "skyline_parts": skyline_parts,
    "winsorized_price_by_status": winsorized_price_by_status,
    "stencil_focal_events": stencil_focal_events,
    "density_clusters_events": density_clusters_events,
    "cooccurrence_docs": cooccurrence_docs,
    "transition_counts_events": transition_counts_events,
    "pivot_event_types": pivot_event_types,
    "twap_value_by_user": twap_value_by_user,
    "entropy_by_lang": entropy_by_lang,
    "hotspot_gi_occupied_events": hotspot_gi_occupied_events,
    "trend_cells_events": trend_cells_events,
    "od_matrix_packed_events": od_matrix_packed_events,
    "q10_returned_revenue": q10_returned_revenue,
    "q12_priority_linestatus": q12_priority_linestatus,
    "q17_small_quantity": q17_small_quantity,
    "q19_disjunctive_revenue": q19_disjunctive_revenue,
    "q7_volume_shipping": q7_volume_shipping,
    "q8_market_share": q8_market_share,
    "q11_important_parts": q11_important_parts,
    "q16_supplier_count": q16_supplier_count,
    "lisa_events": lisa_events,
    "morton_range_events": morton_range_events,
    "stay_segments_events": stay_segments_events,
    "semivariogram_points_events": semivariogram_points_events,
    "rog_users_events": rog_users_events,
    "hilbert_range_events": hilbert_range_events,
    "interval_overlap_events": interval_overlap_events,
    "edit_pairs_docs": edit_pairs_docs,
    "autocorr_value_by_user": autocorr_value_by_user,
    "embedding_cov_entries": embedding_cov_entries,
    "moments_by_type_events": moments_by_type_events,
    "cusum_user_events": cusum_user_events,
    "paginate_orders": paginate_orders,
    "dedup_normalized_docs": dedup_normalized_docs,
    "source_overlap_docs": source_overlap_docs,
    "locf_daily_value": locf_daily_value,
    "latlon_density_events": latlon_density_events,
    "cell_area_classes": cell_area_classes,
    "lm_perplexity_docs": lm_perplexity_docs,
    "q9_profit_by_nation": q9_profit_by_nation,
    "q2_min_cost_supplier": q2_min_cost_supplier,
    "q20_top_shippers": q20_top_shippers,
    "q21_late_suppliers": q21_late_suppliers,
    "ppjoin_pairs_docs": ppjoin_pairs_docs,
    "bfs_hops_users": bfs_hops_users,
    "histogram_value_events": histogram_value_events,
    "dq_audit_events": dq_audit_events,
    "sssp_users": sssp_users,
    "dup_window_docs": dup_window_docs,
    "split_assign_docs": split_assign_docs,
    "iqr_outliers_events": iqr_outliers_events,
    "event_paths_by_user": event_paths_by_user,
    "mode_event_type_by_user": mode_event_type_by_user,
    "table_fingerprint_orders": table_fingerprint_orders,
    "full_outer_recon_users": full_outer_recon_users,
    "weighted_median_price_by_status": weighted_median_price_by_status,
    "asof_clicks_purchases": asof_clicks_purchases,
    "cdc_merge_orders": cdc_merge_orders,
    "centroid_cosine_labels": centroid_cosine_labels,
    "dup_cluster_sizes_docs": dup_cluster_sizes_docs,
    "checkpoint_roundtrip_events": checkpoint_roundtrip_events,
}

ORACLES = {
    # the bottom-k hash sample is deterministic (md5 of doc_id), so the
    # approximate answer is exactly reproducible in SQL
    "approx_median_chars_by_lang": """
        WITH s AS (
            SELECT lang, n_chars,
                   ROW_NUMBER() OVER (PARTITION BY lang
                       ORDER BY md5_number_upper(CAST(doc_id AS VARCHAR)),
                                n_chars) AS rn
            FROM documents)
        SELECT lang,
               CAST(ROUND(quantile_disc(n_chars, 0.5)) AS BIGINT)
                   AS approx_median
        FROM s WHERE rn <= 32 GROUP BY lang ORDER BY lang
    """,
    "percent_rank_docs": """
        SELECT doc_id, lang,
               CAST(ROUND(PERCENT_RANK() OVER (
                   PARTITION BY lang ORDER BY n_chars) * 1000000)
                    AS BIGINT) AS pct_rank
        FROM documents ORDER BY doc_id
    """,
    "segment_users_events": """
        SELECT user_id FROM events
        WHERE event_type = 'click' AND value > 50
        INTERSECT
        SELECT user_id FROM events
        WHERE event_type = 'purchase' AND value > 50
        EXCEPT
        SELECT user_id FROM events
        WHERE event_type = 'error' AND value > 150
        ORDER BY user_id
    """,
    "median_price_per_order": """
        SELECT l_orderkey,
               CAST(ROUND(quantile_disc(l_extendedprice, 0.5) * 100)
                    AS BIGINT) AS median_price
        FROM lineitem GROUP BY l_orderkey ORDER BY l_orderkey
    """,
    # the shared index admits each key EXACTLY once regardless of
    # arrival order / parallelism — so the admitted set is the distinct
    # user set with per-key count pinned at 1
    "streaming_dedup_events": """
        SELECT user_id, CAST(1 AS BIGINT) AS n_admitted
        FROM events GROUP BY user_id ORDER BY user_id
    """,
    "weekly_wow_events": """
        WITH w AS (SELECT DATE_TRUNC('week', CAST(ts AS DATE)) AS week,
                          CAST(COUNT(*) AS BIGINT) AS n_events,
                          SUM(value) AS s
                   FROM events GROUP BY 1)
        SELECT week, n_events,
               CAST(ROUND(s * 10000) AS BIGINT) AS total,
               CAST(ROUND((s - LAG(s) OVER (ORDER BY week)) * 10000)
                    AS BIGINT) AS wow_delta
        FROM w ORDER BY week
    """,
    "adaptive_bin_events": """
        WITH pts AS (SELECT (event_id * 104729) % 18000 AS latc,
                            (event_id * 7919) % 36000 AS lonc, value
                     FROM events),
        c AS (SELECT latc // 1000 * 36 + lonc // 1000 AS ccell, COUNT(*) n
              FROM pts GROUP BY 1),
        hot AS (SELECT ccell FROM c WHERE n > 17)
        SELECT CAST(0 AS BIGINT) AS level,
               latc // 1000 * 36 + lonc // 1000 AS cell,
               CAST(COUNT(*) AS BIGINT) AS n_points,
               CAST(ROUND(AVG(value) * 1000000) AS BIGINT) AS avg_value
        FROM pts
        WHERE latc // 1000 * 36 + lonc // 1000 NOT IN (SELECT ccell FROM hot)
        GROUP BY 2
        UNION ALL
        SELECT CAST(1 AS BIGINT), latc // 100 * 360 + lonc // 100,
               CAST(COUNT(*) AS BIGINT),
               CAST(ROUND(AVG(value) * 1000000) AS BIGINT)
        FROM pts
        WHERE latc // 1000 * 36 + lonc // 1000 IN (SELECT ccell FROM hot)
        GROUP BY 2
        ORDER BY level, cell
    """,
    "trajectory_length_by_user": """
        WITH pts AS (
          SELECT user_id, ts, event_id,
                 CAST((event_id * 7919) % 36000 AS DOUBLE) / 100.0 - 180.0
                     AS lon,
                 CAST((event_id * 104729) % 18000 AS DOUBLE) / 100.0 - 90.0
                     AS lat
          FROM events),
        lagged AS (
          SELECT user_id, lon, lat,
                 LAG(lon) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS plon,
                 LAG(lat) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS plat
          FROM pts)
        SELECT user_id, CAST(COUNT(plon) AS BIGINT) AS n_segments,
               CAST(ROUND(SUM(2 * 6371 * asin(sqrt(LEAST(1.0,
                   pow(sin(radians(lat - plat) / 2), 2)
                   + cos(radians(plat)) * cos(radians(lat))
                     * pow(sin(radians(lon - plon) / 2), 2)))))
                   * 1000) AS BIGINT) AS total_km
        FROM lagged WHERE plon IS NOT NULL
        GROUP BY user_id ORDER BY user_id
    """,
    # pinned great-circle trace (Tallinn -> New York, res 2); the trace
    # MECHANISM (endpoint + consecutive-edge-neighbor laws at 0.25 CLS
    # sampling) is property-tested against IGeo7Grid.neighbors over 40
    # random segments in tests/test_trace.py — the pin freezes this path
    "geodesic_trace_res2": """
        SELECT * FROM (VALUES
            (CAST(0 AS BIGINT), '0001'), (CAST(1 AS BIGINT), '0000'),
            (CAST(2 AS BIGINT), '0005'), (CAST(3 AS BIGINT), '0004'),
            (CAST(4 AS BIGINT), '0052'), (CAST(5 AS BIGINT), '0041'),
            (CAST(6 AS BIGINT), '0056'), (CAST(7 AS BIGINT), '0045'),
            (CAST(8 AS BIGINT), '0233'), (CAST(9 AS BIGINT), '0232'),
            (CAST(10 AS BIGINT), '0236'), (CAST(11 AS BIGINT), '0203')
        ) AS t(seq, z7_string) ORDER BY seq
    """,
    "funnel_events": """
        WITH t1 AS (SELECT user_id, MIN(ts) AS ts1 FROM events
                    WHERE event_type = 'view' GROUP BY user_id),
        t2 AS (SELECT e.user_id, MIN(e.ts) AS ts2
               FROM events e JOIN t1 ON e.user_id = t1.user_id
               WHERE e.event_type = 'click' AND e.ts > t1.ts1
                 AND e.ts <= t1.ts1 + INTERVAL 12 HOUR
               GROUP BY e.user_id),
        t3 AS (SELECT e.user_id, MIN(e.ts) AS ts3
               FROM events e JOIN t2 ON e.user_id = t2.user_id
               WHERE e.event_type = 'purchase' AND e.ts > t2.ts2
                 AND e.ts <= t2.ts2 + INTERVAL 12 HOUR
               GROUP BY e.user_id)
        SELECT t1.user_id,
               CAST(1 + (CASE WHEN t2.user_id IS NULL THEN 0 ELSE 1 END)
                      + (CASE WHEN t3.user_id IS NULL THEN 0 ELSE 1 END)
                    AS BIGINT) AS stage
        FROM t1 LEFT JOIN t2 ON t1.user_id = t2.user_id
                LEFT JOIN t3 ON t1.user_id = t3.user_id
        ORDER BY t1.user_id
    """,
    "cohort_retention_events": """
        WITH f AS (SELECT user_id, MIN(CAST(ts AS DATE)) AS d0
                   FROM events GROUP BY user_id)
        SELECT f.d0 AS d0,
               CAST(DATEDIFF('day', f.d0, CAST(e.ts AS DATE)) AS BIGINT)
                   AS day_offset,
               CAST(COUNT(DISTINCT e.user_id) AS BIGINT) AS active_users
        FROM events e JOIN f ON e.user_id = f.user_id
        GROUP BY 1, 2 ORDER BY 1, 2
    """,
    "q15_top_supplier": """
        WITH rev AS (SELECT l_suppkey,
                            SUM(l_extendedprice * (1 - l_discount))
                                AS total_rev
                     FROM lineitem GROUP BY l_suppkey)
        SELECT s_suppkey, s_name,
               CAST(ROUND(total_rev * 100) AS BIGINT) AS total_rev
        FROM supplier JOIN rev ON s_suppkey = l_suppkey
        WHERE total_rev = (SELECT MAX(total_rev) FROM rev)
        ORDER BY s_suppkey
    """,
    "q22_dormant_customers": """
        WITH avg_bal AS (SELECT AVG(c_acctbal) AS a FROM customer
                         WHERE c_acctbal > 0)
        SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
               CAST(COUNT(*) AS BIGINT) AS numcust,
               CAST(ROUND(SUM(c_acctbal) * 100) AS BIGINT) AS totbal
        FROM customer, avg_bal
        WHERE c_acctbal > a
          AND NOT EXISTS (SELECT 1 FROM orders
                          WHERE o_custkey = c_custkey
                            AND o_orderpriority = '1-URGENT')
        GROUP BY c_nationkey ORDER BY c_nationkey
    """,
    "dedup_prefer_source": """
        SELECT lang, n_chars, doc_id,
               CAST(CAST(substr(source, 4) AS INT) % 3 AS BIGINT) AS tier
        FROM documents
        QUALIFY ROW_NUMBER() OVER (
            PARTITION BY lang, n_chars
            ORDER BY CAST(substr(source, 4) AS INT) % 3, doc_id) = 1
        ORDER BY lang, n_chars
    """,
    "tfidf_top3_docs": """
        WITH t AS (SELECT doc_id, UNNEST(string_split(text, ' ')) AS tok
                   FROM documents),
        tf AS (SELECT doc_id, tok, COUNT(*) AS tf
               FROM t GROUP BY doc_id, tok),
        df AS (SELECT tok, COUNT(DISTINCT doc_id) AS df
               FROM t GROUP BY tok),
        n AS (SELECT COUNT(*) AS n FROM documents),
        s AS (SELECT tf.doc_id, tf.tok,
                     CAST(ROUND(tf.tf * ln(CAST(n.n AS DOUBLE) / df.df)
                                * 10000) AS BIGINT) AS score
              FROM tf JOIN df USING (tok), n),
        r AS (SELECT doc_id, tok, score,
                     ROW_NUMBER() OVER (PARTITION BY doc_id
                         ORDER BY score DESC, tok) AS rn
              FROM s)
        SELECT doc_id, tok, score FROM r WHERE rn <= 3
        ORDER BY doc_id, tok
    """,
    "q13_custdist": """
        SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist FROM (
            SELECT c.c_custkey, COUNT(o.o_custkey) AS c_count
            FROM customer c LEFT OUTER JOIN
                 (SELECT * FROM orders
                  WHERE o_orderpriority <> '1-URGENT') o
            ON c.c_custkey = o.o_custkey
            GROUP BY c.c_custkey)
        GROUP BY c_count
        ORDER BY custdist DESC, c_count DESC
    """,
    "q18_big_orders": """
        SELECT c_name, o_custkey, o_orderkey,
               CAST(ROUND(o_totalprice * 100) AS BIGINT) AS o_totalprice,
               CAST(ROUND(sum_qty * 100) AS BIGINT) AS sum_qty
        FROM (SELECT l_orderkey, SUM(l_quantity) AS sum_qty
              FROM lineitem GROUP BY l_orderkey
              HAVING SUM(l_quantity) > 300) lo
        JOIN orders ON o_orderkey = lo.l_orderkey
        JOIN customer ON c_custkey = o_custkey
        ORDER BY o_totalprice DESC, o_orderkey
    """,
    # the HLL estimate is a deterministic function of the md5 key set —
    # not SQL-expressible, so the approx column is pinned (the grouped
    # sketch observes all 150 users in every type at sf0.01, linear
    # counting regime); the exact column IS computed by SQL
    "hll_users_by_type": """
        SELECT e.event_type,
               CAST(151 AS BIGINT) AS approx_distinct,
               CAST(COUNT(DISTINCT e.user_id) AS BIGINT) AS exact_distinct
        FROM events e
        GROUP BY e.event_type
        ORDER BY e.event_type
    """,
    # two-level Z7-tree compaction law over the golden 16-cell cover:
    # children strings = parent string + digit (prefix codec), so SQL can
    # generate the res-7 set, punch the '..25' holes, and compact by
    # sibling counts (no pentagons in these prefixes -> expected 7)
    "compact_box_cells": """
        WITH golden(s5) AS (VALUES
            ('0001002'), ('0001020'), ('0001021'), ('0001022'), ('0001023'),
            ('0001025'), ('0001030'), ('0001032'), ('0001034'), ('0001035'),
            ('0001036'), ('0001241'), ('0001250'), ('0001251'), ('0001254'),
            ('0001255')),
        digits(d) AS (VALUES ('0'),('1'),('2'),('3'),('4'),('5'),('6')),
        res7 AS (
            SELECT s5 || d1.d || d2.d AS s
            FROM golden, digits d1, digits d2
            WHERE NOT (d1.d = '2' AND d2.d = '5')),
        l7 AS (SELECT s, substr(s, 1, 8) AS p,
                      COUNT(*) OVER (PARTITION BY substr(s, 1, 8)) AS cnt
               FROM res7),
        keep7 AS (SELECT s FROM l7 WHERE cnt < 7),
        prom6 AS (SELECT DISTINCT p AS s FROM l7 WHERE cnt = 7),
        l6 AS (SELECT s, substr(s, 1, 7) AS p,
                      COUNT(*) OVER (PARTITION BY substr(s, 1, 7)) AS cnt
               FROM prom6),
        keep6 AS (SELECT s FROM l6 WHERE cnt < 7),
        prom5 AS (SELECT DISTINCT p AS s FROM l6 WHERE cnt = 7)
        SELECT s AS z7_string FROM keep7
        UNION ALL SELECT s FROM keep6
        UNION ALL SELECT s FROM prom5
        ORDER BY z7_string
    """,
    "pivot_user_events": """
        SELECT user_id,
               CAST(COUNT(*) FILTER (event_type = 'click') AS BIGINT)
                   AS click,
               CAST(COUNT(*) FILTER (event_type = 'error') AS BIGINT)
                   AS error,
               CAST(COUNT(*) FILTER (event_type = 'purchase') AS BIGINT)
                   AS purchase,
               CAST(COUNT(*) FILTER (event_type = 'signup') AS BIGINT)
                   AS signup,
               CAST(COUNT(*) FILTER (event_type = 'view') AS BIGINT)
                   AS view
        FROM events GROUP BY user_id
    """,
    "user_entropy": """
        SELECT user_id, COUNT(*) AS n_events,
               CAST(ROUND(entropy(event_type) * 10000) AS BIGINT)
                   AS ent10k
        FROM events GROUP BY user_id
    """,
    "cube_pricing": """
        SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
               COALESCE(l_linestatus, 'ALL') AS l_linestatus,
               COUNT(*) AS n,
               CAST(ROUND(SUM(l_quantity) * 100) AS BIGINT) AS sum_qty100
        FROM lineitem GROUP BY CUBE(l_returnflag, l_linestatus)
    """,
    "corr_price_qty": """
        SELECT l_returnflag, l_linestatus, COUNT(*) AS n,
               CAST(ROUND(corr(l_extendedprice, l_quantity) * 10000)
                    AS BIGINT) AS corr10k,
               CAST(ROUND(regr_slope(l_extendedprice, l_quantity) * 100)
                    AS BIGINT) AS slope100
        FROM lineitem GROUP BY l_returnflag, l_linestatus
    """,
    "lag_delta_events": """
        SELECT event_id,
               CAST(epoch_us(ts) - LAG(epoch_us(ts)) OVER
                    (PARTITION BY user_id ORDER BY ts, event_id)
                    AS BIGINT) AS delta_us
        FROM events
    """,
    "moving_avg_events": """
        SELECT event_id,
               CAST(ROUND(AVG(value) OVER
                    (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) * 1000)
                    AS BIGINT) AS mavg1000
        FROM events
    """,
    "props_k_stats": """
        SELECT event_type, COUNT(*) AS n,
               CAST(SUM(CAST(json_extract_string(props, '$.k') AS BIGINT))
                    AS BIGINT) AS sum_k
        FROM events GROUP BY event_type
    """,
    "rank_docs_by_chars": """
        SELECT doc_id, lang, n_chars,
               RANK() OVER (PARTITION BY lang ORDER BY n_chars DESC)
                   AS rank,
               DENSE_RANK() OVER (PARTITION BY lang ORDER BY n_chars DESC)
                   AS dense
        FROM documents
    """,
    "doc_embed_norms": """
        SELECT d.lang, COUNT(*) AS n,
               CAST(ROUND(AVG(sqrt(list_sum(list_transform(
                   CAST(e.embedding AS DOUBLE[]), x -> x * x))))
                   * 1000000) AS BIGINT) AS avg_norm
        FROM documents d JOIN embeddings e ON d.doc_id = e.vec_id
        GROUP BY d.lang
    """,
    "first_last_by_user": """
        SELECT DISTINCT user_id,
               CAST(ROUND(first_value(value) OVER w * 100) AS BIGINT)
                   AS first100,
               CAST(ROUND(last_value(value) OVER
                   (PARTITION BY user_id ORDER BY ts, event_id
                    ROWS BETWEEN UNBOUNDED PRECEDING
                         AND UNBOUNDED FOLLOWING) * 100) AS BIGINT)
                   AS last100
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    """,
    "mad_by_flag": """
        WITH m AS (
          SELECT l_returnflag, quantile_disc(l_extendedprice, 0.5) AS med
          FROM lineitem GROUP BY l_returnflag
        )
        SELECT l.l_returnflag,
               CAST(ROUND(quantile_disc(abs(l.l_extendedprice - m.med), 0.5)
                          * 100) AS BIGINT) AS mad100
        FROM lineitem l JOIN m ON l.l_returnflag = m.l_returnflag
        GROUP BY l.l_returnflag
    """,
    "ohlc_daily_events": """
        SELECT date_trunc('day', ts) AS day,
               CAST(ROUND(arg_min(value, event_id) * 100) AS BIGINT) AS open100,
               CAST(ROUND(max(value) * 100) AS BIGINT) AS high100,
               CAST(ROUND(min(value) * 100) AS BIGINT) AS low100,
               CAST(ROUND(arg_max(value, event_id) * 100) AS BIGINT) AS close100
        FROM events GROUP BY 1
    """,
    "erode_dilated_box": """
        SELECT * FROM (VALUES
            ('0001002'), ('0001020'), ('0001021'), ('0001022'), ('0001023'),
            ('0001025'), ('0001030'), ('0001032'), ('0001034'), ('0001035'),
            ('0001036'), ('0001241'), ('0001250'), ('0001251'), ('0001254'),
            ('0001255')
        ) AS t(z7_string)
    """,
    "radius_join_events": """
        WITH sites AS (
          SELECT CAST(range AS BIGINT) AS sid,
                 CAST((range * 37) % 360 AS DOUBLE) - 180 + 0.5 AS slon,
                 CAST((range * 53) % 170 AS DOUBLE) - 85 + 0.25 AS slat
          FROM range(200)
        ), pts AS (
          SELECT event_id,
                 CAST((event_id * 7919) % 36000 AS DOUBLE) / 100.0 - 180.0 AS lon,
                 CAST((event_id * 104729) % 18000 AS DOUBLE) / 100.0 - 90.0 AS lat
          FROM events
        ), d AS (
          SELECT event_id, sid,
                 2 * 6371.0 * asin(sqrt(LEAST(1.0, GREATEST(0.0,
                     pow(sin(radians(slat - lat) / 2), 2)
                     + cos(radians(lat)) * cos(radians(slat))
                       * pow(sin(radians(slon - lon) / 2), 2))))) AS dist
          FROM pts, sites
        )
        SELECT event_id, sid,
               CAST(ROUND(dist * 100) AS BIGINT) AS dist_km100
        FROM d WHERE dist <= 500.0
    """,
    "dilate_clip_box": """
        SELECT * FROM (VALUES
          ('0001000'), ('0001002'), ('0001003'), ('0001006'), ('0001012'),
          ('0001016'), ('0001020'), ('0001021'), ('0001022'), ('0001023'),
          ('0001024'), ('0001025'), ('0001026'), ('0001030'), ('0001031'),
          ('0001032'), ('0001033'), ('0001034'), ('0001035'), ('0001036'),
          ('0001063'), ('0001240'), ('0001241'), ('0001243'), ('0001245'),
          ('0001250'), ('0001251'), ('0001252'), ('0001253'), ('0001254'),
          ('0001255'), ('0001256'), ('0001364'), ('0001366')
        ) AS t(z7_string)
    """,
    "zonal_majority_events": """
        WITH c AS (
          SELECT ((event_id * 104729) % 18000 // 100) * 360
                 + ((event_id * 7919) % 36000 // 100) AS cell,
                 event_type, COUNT(*) AS n
          FROM events GROUP BY 1, 2
        )
        SELECT cell, event_type AS majority_type, n FROM (
          SELECT cell, event_type, n,
                 ROW_NUMBER() OVER (PARTITION BY cell
                                    ORDER BY n DESC, event_type) AS rn
          FROM c) WHERE rn = 1
    """,
    "paragraph_dedup_docs": """
        WITH w AS (
          SELECT doc_id,
                 unnest(string_split(text, ' ')) AS word,
                 unnest(range(1, len(string_split(text, ' ')) + 1)) AS wi
          FROM documents
        ), ch AS (
          SELECT doc_id, CAST((wi - 1) // 8 AS BIGINT) AS ci,
                 string_agg(word, ' ' ORDER BY wi) AS chunk
          FROM w GROUP BY doc_id, ci
        ), kept AS (
          SELECT doc_id, ci, chunk FROM (
            SELECT doc_id, ci, chunk,
                   MIN(doc_id * 1000000000 + ci)
                       OVER (PARTITION BY chunk) AS win
            FROM ch)
          WHERE doc_id * 1000000000 + ci = win
        )
        SELECT doc_id, string_agg(chunk, ' ' ORDER BY ci) AS text
        FROM kept GROUP BY doc_id
    """,
    "idw_grid_events": """
        WITH sites AS (
          SELECT i.range AS si, j.range AS sj,
                 -180.0 + 360.0 * (i.range + 0.5) / 24 AS slon,
                 -90.0 + 180.0 * (j.range + 0.5) / 12 AS slat
          FROM range(24) i, range(12) j
        ), pts AS (
          SELECT CAST((event_id * 7919) % 36000 AS DOUBLE) / 100.0 - 180.0 AS lon,
                 CAST((event_id * 104729) % 18000 AS DOUBLE) / 100.0 - 90.0 AS lat,
                 value
          FROM events
        ), d AS (
          SELECT si, sj, value,
                 2 * asin(sqrt(LEAST(1.0,
                     pow(sin(radians(lat - slat) / 2), 2)
                     + cos(radians(slat)) * cos(radians(lat))
                       * pow(sin(radians(lon - slon) / 2), 2)))) AS dist
          FROM pts, sites
        )
        SELECT si, sj,
               CAST(ROUND(SUM(value / (dist * dist + 1e-6))
                          / SUM(1.0 / (dist * dist + 1e-6)) * 10000)
                    AS BIGINT) AS idw
        FROM d GROUP BY si, sj
    """,
    "quality_gate_docs": """
        WITH thr AS (
          SELECT lang, quantile_disc(n_chars, 0.25) AS t
          FROM documents GROUP BY lang
        )
        SELECT d.lang, COUNT(*) AS n_docs,
               CAST(SUM(d.n_chars) AS BIGINT) AS sum_chars
        FROM documents d JOIN thr ON d.lang = thr.lang
        WHERE d.n_chars >= thr.t GROUP BY d.lang
    """,
    "q4_priority_semijoin": """
        SELECT o_orderpriority, COUNT(*) AS n FROM orders
        WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
                             WHERE l_returnflag = 'R')
        GROUP BY o_orderpriority
    """,
    "rollup_pricing": """
        SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
               COALESCE(l_linestatus, 'ALL') AS l_linestatus,
               CAST(ROUND(SUM(l_quantity) * 10000) AS BIGINT) AS sum_qty,
               CAST(ROUND(SUM(l_extendedprice) * 100) AS BIGINT) AS sum_price,
               COUNT(*) AS n
        FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
    """,
    "q1_pricing": """
        SELECT l_returnflag, l_linestatus,
               CAST(ROUND(SUM(l_quantity) * 10000) AS BIGINT) AS sum_qty,
               CAST(ROUND(SUM(l_extendedprice * (1 - l_discount)) * 10000) AS BIGINT) AS sum_revenue,
               CAST(ROUND(AVG(l_discount) * 1000000) AS BIGINT) AS avg_disc,
               COUNT(*) AS n
        FROM lineitem GROUP BY l_returnflag, l_linestatus
    """,
    "q3_top_revenue": """
        SELECT l_orderkey, CAST(ROUND(SUM(l_extendedprice * (1 - l_discount)) * 10000) AS BIGINT) AS revenue
        FROM lineitem GROUP BY l_orderkey
        ORDER BY SUM(l_extendedprice * (1 - l_discount)) DESC, l_orderkey LIMIT 10
    """,
    "q5_nation_revenue": """
        SELECT n.n_name,
               CAST(ROUND(SUM(l.l_extendedprice * (1 - l.l_discount)) * 10000) AS BIGINT) AS revenue
        FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        GROUP BY n.n_name
    """,
    "events_daily": """
        SELECT date_trunc('day', ts) AS day, event_type, COUNT(*) AS n,
               CAST(ROUND(SUM(value) * 10000) AS BIGINT) AS sum_value
        FROM events GROUP BY 1, 2
    """,
    "latlon_bin_events": """
        SELECT ((event_id * 104729) % 18000 // 100) * 360
               + ((event_id * 7919) % 36000 // 100) AS cell,
               COUNT(*) AS n_points, CAST(ROUND(AVG(value) * 1000000) AS BIGINT) AS avg_value
        FROM events GROUP BY 1
    """,
    "presence_latlon_events": """
        SELECT cell, string_agg(event_type, ',' ORDER BY event_type) AS classes,
               CAST(COUNT(*) AS BIGINT) AS num_classes, CAST(SUM(n) AS BIGINT) AS n_points
        FROM (
            SELECT ((event_id * 104729) % 18000 // 100) * 360
                   + ((event_id * 7919) % 36000 // 100) AS cell,
                   event_type, COUNT(*) AS n
            FROM events GROUP BY 1, 2
        ) GROUP BY cell
    """,
    "zonal_synthetic": """
        SELECT cell, COUNT(*) AS n_pixels, CAST(ROUND(AVG(value) * 1000000) AS BIGINT) AS mean_value
        FROM (
            SELECT ((i // 400) * 5 + 3000) // 100 * 360 + ((i % 400) * 5 + 1000) // 100 AS cell,
                   CAST((i * 7919) % 10000 AS DOUBLE) / 100.0 AS value,
                   (i * 31) % 17 = 0 AS nodata
            FROM (SELECT CAST(range AS BIGINT) AS i FROM range(0, 120000))
        ) WHERE NOT nodata GROUP BY cell
    """,
    "polyfill_whole_earth": """
        SELECT CAST(range AS BIGINT) AS seqnum FROM range(1, 3433)
    """,
    "children_counts": """
        SELECT CAST(range AS BIGINT) AS seqnum,
               CASE WHEN (range - 1) % 41 = 0 THEN 6 ELSE 7 END AS n_children
        FROM range(1, 493)
    """,
    "codec_roundtrip": """
        SELECT CAST(range AS BIGINT) AS seqnum, 3 AS str_res FROM range(1, 3433)
    """,
    "dedup_exact_docs": """
        SELECT md5(text) AS text_md5, MIN(doc_id) AS keep_id
        FROM documents GROUP BY md5(text)
    """,
    "text_stats_by_lang": """
        SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(LENGTH(text)) AS BIGINT) AS sum_chars,
               CAST(SUM(LENGTH(text) - LENGTH(REPLACE(text, ' ', ''))) AS BIGINT) AS sum_spaces
        FROM documents GROUP BY lang
    """,
    # EWMA recurrence solved in closed form: weight (1-a)^(n-1) on the
    # first value, a*(1-a)^(n-i) on the rest, in (ts, event_id) order
    "ewma_value_by_user": """
        WITH o AS (SELECT user_id, value,
                          ROW_NUMBER() OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS i,
                          COUNT(*) OVER (PARTITION BY user_id) AS n
                   FROM events)
        SELECT user_id,
               CAST(ROUND(SUM(CASE WHEN i = 1
                   THEN POWER(0.7, n - 1) * value
                   ELSE 0.3 * POWER(0.7, n - i) * value END) * 10000)
                   AS BIGINT) AS ewma
        FROM o GROUP BY user_id ORDER BY user_id
    """,
    # days where qualifying purchases occur; WAU = distinct purchasers in
    # the trailing 7 days (note the engine emits a row per day with ANY
    # qualifying activity, the same day set as this oracle's d)
    "wau_purchases": """
        WITH p AS (SELECT CAST(ts AS DATE) AS day, user_id FROM events
                   WHERE event_type = 'purchase' AND value > 100),
        d AS (SELECT DISTINCT day FROM p)
        SELECT d.day,
               (SELECT CAST(COUNT(DISTINCT p2.user_id) AS BIGINT) FROM p p2
                WHERE p2.day BETWEEN d.day - 6 AND d.day) AS wau
        FROM d ORDER BY d.day
    """,
    # winsorize at exact global quantile_disc p05/p95, then group mean
    "winsorized_price_by_status": """
        WITH q AS (SELECT quantile_disc(o_totalprice, 0.05) AS lo,
                          quantile_disc(o_totalprice, 0.95) AS hi
                   FROM orders)
        SELECT o_orderstatus,
               CAST(ROUND(AVG(LEAST(GREATEST(o_totalprice, lo), hi))
                          * 100) AS BIGINT) AS wmean_cents,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM orders, q
        GROUP BY o_orderstatus ORDER BY o_orderstatus
    """,
    # skyline = NOT EXISTS dominance: some row <= on price, >= on size,
    # strictly better on one; ties survive together
    "skyline_parts": """
        SELECT p.p_partkey,
               CAST(ROUND(p.p_retailprice * 100) AS BIGINT) AS price_cents,
               CAST(p.p_size AS BIGINT) AS p_size
        FROM part p
        WHERE NOT EXISTS (
            SELECT 1 FROM part q
            WHERE q.p_retailprice <= p.p_retailprice
              AND q.p_size >= p.p_size
              AND (q.p_retailprice < p.p_retailprice
                   OR q.p_size > p.p_size))
        ORDER BY p.p_partkey
    """,
    # islands-and-gaps: running MAX(e) over preceding rows marks island
    # starts; union length = sum of island extents
    "interval_coverage_users": """
        WITH iv AS (SELECT user_id, epoch_us(ts) AS s,
                           epoch_us(ts)
                           + CAST(FLOOR(value*10 + 0.5) AS BIGINT)
                             * 60000000 AS e
                    FROM events),
        m AS (SELECT user_id, s, e,
                     MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                         ROWS BETWEEN UNBOUNDED PRECEDING
                         AND 1 PRECEDING) AS pm
              FROM iv),
        g AS (SELECT *, SUM(CASE WHEN pm IS NULL OR s > pm THEN 1
                                 ELSE 0 END)
                        OVER (PARTITION BY user_id
                              ORDER BY s, e) AS island
              FROM m),
        isl AS (SELECT user_id, island, MIN(s) AS s0,
                       GREATEST(MAX(e), MIN(s)) AS e1
                FROM g GROUP BY 1, 2)
        SELECT user_id, CAST(SUM(e1 - s0) AS BIGINT) AS covered_us
        FROM isl GROUP BY user_id ORDER BY user_id
    """,
    # CDC classification = FULL OUTER JOIN of the two derived snapshots;
    # +1000.0 is an exact IEEE double op so 'changed' is float-exact on
    # both engines
    "snapshot_diff_orders": """
        WITH a AS (SELECT o_orderkey, o_orderstatus, o_totalprice
                   FROM orders WHERE o_orderkey % 97 <> 0),
             b AS (SELECT o_orderkey, o_orderstatus,
                          CASE WHEN o_orderkey % 101 = 0
                               THEN o_totalprice + 1000.0
                               ELSE o_totalprice END AS o_totalprice
                   FROM orders WHERE o_orderkey % 89 <> 0)
        SELECT COALESCE(a.o_orderkey, b.o_orderkey) AS o_orderkey,
               CASE WHEN a.o_orderkey IS NULL THEN 'added'
                    WHEN b.o_orderkey IS NULL THEN 'removed'
                    ELSE 'changed' END AS change
        FROM a FULL OUTER JOIN b ON a.o_orderkey = b.o_orderkey
        WHERE a.o_orderkey IS NULL OR b.o_orderkey IS NULL
           OR a.o_orderstatus <> b.o_orderstatus
           OR a.o_totalprice <> b.o_totalprice
        ORDER BY 1
    """,
    # PQ is a pure function of the data (deterministic sample, init and
    # Lloyd steps) — k-means is not SQL-expressible, so the top-10 is
    # pinned; top-1 = the query vector itself is the sanity anchor
    "ann_pq_top10": """
        SELECT * FROM (VALUES
            (CAST(1 AS BIGINT), CAST(0 AS BIGINT), CAST(506025 AS BIGINT)),
            (CAST(2 AS BIGINT), CAST(423 AS BIGINT), CAST(374830 AS BIGINT)),
            (CAST(3 AS BIGINT), CAST(108 AS BIGINT), CAST(308577 AS BIGINT)),
            (CAST(4 AS BIGINT), CAST(388 AS BIGINT), CAST(298241 AS BIGINT)),
            (CAST(5 AS BIGINT), CAST(483 AS BIGINT), CAST(241866 AS BIGINT)),
            (CAST(6 AS BIGINT), CAST(415 AS BIGINT), CAST(237130 AS BIGINT)),
            (CAST(7 AS BIGINT), CAST(391 AS BIGINT), CAST(224151 AS BIGINT)),
            (CAST(8 AS BIGINT), CAST(190 AS BIGINT), CAST(208212 AS BIGINT)),
            (CAST(9 AS BIGINT), CAST(56 AS BIGINT), CAST(201319 AS BIGINT)),
            (CAST(10 AS BIGINT), CAST(334 AS BIGINT), CAST(200631 AS BIGINT))
        ) AS t(rank, vec_id, score) ORDER BY rank
    """,
    "mixture_sample_docs": """
        WITH c AS (SELECT source, COUNT(*) AS cnt FROM documents
                   GROUP BY source)
        SELECT d.doc_id, d.source
        FROM documents d JOIN c ON d.source = c.source
        WHERE md5_number_upper(CAST(d.doc_id AS VARCHAR)) % 10000
              < LEAST(FLOOR((5 + CAST(substr(d.source, 4) AS INT) % 7)
                            * 10000.0 / c.cnt), 10000)
        ORDER BY d.doc_id
    """,
    "decayed_activity_by_user": """
        WITH mx AS (SELECT MAX(ts) AS T FROM events)
        SELECT user_id,
               CAST(ROUND(SUM(value * exp(-EPOCH_US(T - ts)
                   / (7.0 * 86400000000))) * 10000) AS BIGINT)
                   AS decayed_value,
               CAST(ROUND(SUM(exp(-EPOCH_US(T - ts)
                   / (7.0 * 86400000000))) * 10000) AS BIGINT)
                   AS decayed_weight
        FROM events, mx GROUP BY user_id ORDER BY user_id
    """,
    "triangle_count_lineitem": """
        WITH e0 AS (SELECT DISTINCT l_partkey % 300 AS a,
                           (l_suppkey * 7) % 300 AS b
                    FROM lineitem
                    WHERE l_quantity > 45
                      AND l_partkey % 300 <> (l_suppkey * 7) % 300),
        e AS (SELECT LEAST(a, b) AS u, GREATEST(a, b) AS v
              FROM e0 GROUP BY 1, 2)
        SELECT e1.u AS vertex, CAST(COUNT(*) AS BIGINT) AS n_triangles
        FROM e e1 JOIN e e2 ON e1.u = e2.u AND e1.v < e2.v
                  JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v
        GROUP BY e1.u ORDER BY vertex
    """,
    # SQ8 codes are floor(t*255 + 0.5) of the globally min-max-scaled
    # value — reproduced exactly below; quantization on the corpus side
    # only (asymmetric distance), query full precision
    "ann_sq8_top10": """
        WITH r AS (SELECT MIN(u) AS lo, MAX(u) AS hi FROM (
                 SELECT UNNEST(CAST(embedding AS DOUBLE[])) AS u
                 FROM embeddings)),
        q AS (SELECT CAST(embedding AS DOUBLE[]) AS qv
              FROM embeddings WHERE vec_id = 0),
        d AS (SELECT e.vec_id,
                     list_transform(CAST(e.embedding AS DOUBLE[]),
                         x -> r.lo + LEAST(GREATEST(FLOOR(
                                  (x - r.lo) / (r.hi - r.lo) * 255 + 0.5),
                                  0), 255) * (r.hi - r.lo) / 255.0) AS deq
              FROM embeddings e, r)
        SELECT CAST(ROW_NUMBER() OVER (ORDER BY cosine DESC, vec_id)
                    AS BIGINT) AS rank,
               vec_id, CAST(ROUND(cosine * 1000000) AS BIGINT) AS cosine
        FROM (SELECT d.vec_id,
                     list_cosine_similarity(d.deq, q.qv) AS cosine
              FROM d, q)
        ORDER BY cosine DESC, vec_id LIMIT 10
    """,
    "ann_top10": """
        SELECT CAST(ROW_NUMBER() OVER (ORDER BY cosine DESC, vec_id) AS BIGINT) AS rank,
               vec_id, CAST(ROUND(cosine * 1000000) AS BIGINT) AS cosine
        FROM (
            SELECT e.vec_id,
                   list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                          (SELECT CAST(embedding AS DOUBLE[])
                                           FROM embeddings WHERE vec_id = 0)) AS cosine
            FROM embeddings e
        ) ORDER BY cosine DESC, vec_id LIMIT 10
    """,
    "z3_roundtrip": """
        SELECT CAST(range AS BIGINT) AS idx FROM range(1, 273)
    """,
    # conservation through the res-9 encode + grouped_sum shuffle (points and
    # value mass = the events table) + the occupied-cell count pinned as a
    # regression literal (IGEO7 ids are not SQL-expressible)
    "igeo7_encode_events": """
        SELECT CAST(10000 AS BIGINT) AS n_cells, COUNT(*) AS n_points,
               CAST(ROUND(SUM(value) * 10000) AS BIGINT) AS sum_value
        FROM events
    """,
    "isea43h_binning": """
        SELECT CAST(3881 AS BIGINT) AS n_cells, COUNT(*) AS n_points,
               CAST(ROUND(SUM(value) * 10000) AS BIGINT) AS sum_value
        FROM events
    """,
    # deterministic interleaved-spans generator, n_docs=5000: docs + geo-span
    # counts per span count, pinned from the generator's closed form
    "spans_cell_assignments": """
        SELECT * FROM (VALUES
            (1, CAST(829 AS BIGINT), CAST(829 AS BIGINT)),
            (2, CAST(798 AS BIGINT), CAST(1007 AS BIGINT)),
            (3, CAST(819 AS BIGINT), CAST(1206 AS BIGINT)),
            (4, CAST(860 AS BIGINT), CAST(1512 AS BIGINT)),
            (5, CAST(838 AS BIGINT), CAST(1688 AS BIGINT)),
            (6, CAST(856 AS BIGINT), CAST(1905 AS BIGINT))
        ) AS t(n_spans, n_docs, sum_geo)
    """,
    # planted-duplicate pair lists (identical payloads -> exact statistics)
    "minhash_pairs_docs": """
        SELECT doc_id AS left_id, doc_id + 10000000 AS right_id,
               CAST(1000000 AS BIGINT) AS est_jacc
        FROM documents WHERE doc_id < 32
    """,
    "simhash_pairs_docs": """
        SELECT doc_id AS left_id, doc_id + 10000000 AS right_id,
               CAST(0 AS BIGINT) AS hamming
        FROM documents WHERE doc_id < 32
    """,
    "embedding_dup_pairs": """
        SELECT vec_id AS left_id, vec_id + 10000000 AS right_id,
               CAST(1000 AS BIGINT) AS cos_1e3
        FROM embeddings WHERE vec_id < 32
    """,
    # exact 3-gram Jaccard over the all-pairs candidate set of docs 0..199
    # (the verifier stage computed independently by a gram-set self-join)
    "ngram_verified_pairs": """
        WITH d AS (SELECT doc_id, text FROM documents WHERE doc_id < 200),
        g AS (SELECT DISTINCT doc_id, substring(text, CAST(i AS INTEGER), 3) AS gram
              FROM d, UNNEST(range(1, GREATEST(length(text)-2, 1)+1)) AS t(i)),
        sz AS (SELECT doc_id, COUNT(*) AS n FROM g GROUP BY doc_id),
        inter AS (SELECT a.doc_id AS l, b.doc_id AS r, COUNT(*) AS i
                  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
                  GROUP BY 1, 2)
        SELECT l AS left_id, r AS right_id,
               CAST(ROUND(CAST(i.i AS DOUBLE) / (sa.n + sb.n - i.i) * 1000000)
                    AS BIGINT) AS jacc
        FROM inter i JOIN sz sa ON sa.doc_id = i.l JOIN sz sb ON sb.doc_id = i.r
        WHERE CAST(i.i AS DOUBLE) / (sa.n + sb.n - i.i) >= 0.5
    """,
    # exact brute-force cosine top-10 for query vectors 0..3 (the IVF query
    # runs with nprobe = n_centroids, which probes every list -> exact)
    "ann_ivf_top10": """
        WITH q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
                   FROM embeddings WHERE vec_id < 4),
        s AS (SELECT q.qid, e.vec_id,
                     list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe) AS cos
              FROM embeddings e CROSS JOIN q)
        SELECT qid AS query_id, CAST(rn AS BIGINT) AS rank, vec_id,
               CAST(ROUND(cos * 1000000) AS BIGINT) AS cosine
        FROM (SELECT qid, vec_id, cos,
                     ROW_NUMBER() OVER (PARTITION BY qid
                                        ORDER BY cos DESC, vec_id) AS rn
              FROM s)
        WHERE rn <= 10
    """,
    "sliding_events_7d": """
        SELECT day, event_type, CAST(n7 AS BIGINT) AS n_window,
               CAST(ROUND(s7 * 10000) AS BIGINT) AS sum_window
        FROM (
            SELECT date_trunc('day', ts) AS day, event_type,
                   SUM(COUNT(*)) OVER w AS n7,
                   SUM(SUM(value)) OVER w AS s7
            FROM events GROUP BY 1, 2
            WINDOW w AS (PARTITION BY event_type ORDER BY date_trunc('day', ts)
                         RANGE BETWEEN INTERVAL 6 DAYS PRECEDING AND CURRENT ROW)
        )
    """,
    "sessions_per_user": """
        SELECT user_id, COUNT(*) AS n_events,
               CAST(SUM(new_s) + 1 AS BIGINT) AS n_sessions
        FROM (
            SELECT user_id,
                   CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id
                                                ORDER BY ts, event_id)
                             > INTERVAL 1 HOUR THEN 1 ELSE 0 END AS new_s
            FROM events
        ) GROUP BY user_id
    """,
    "asof_events_markers": """
        WITH m AS (SELECT CAST(range AS BIGINT) AS marker_id,
                          TIMESTAMP '2024-01-01' + INTERVAL (range * 7) DAYS AS mts
                   FROM range(0, 5))
        SELECT m.marker_id, COUNT(*) AS n,
               CAST(ROUND(SUM(e.value) * 10000) AS BIGINT) AS sum_value
        FROM events e ASOF JOIN m ON e.ts >= m.mts
        GROUP BY m.marker_id
    """,
    "curation_pipeline": """
        SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars
        FROM documents d
        JOIN (SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY md5(text)) k
          USING (doc_id)
        WHERE d.n_chars >= 120 AND d.n_chars < 400
          AND md5_number_upper(CAST(d.doc_id AS VARCHAR)) % 100 < 50
        GROUP BY lang
    """,
    "topk_docs_per_lang": """
        SELECT lang, doc_id, n_chars, CAST(rank AS BIGINT) AS rank FROM (
            SELECT lang, doc_id, n_chars,
                   ROW_NUMBER() OVER (PARTITION BY lang
                                      ORDER BY n_chars DESC, doc_id) AS rank
            FROM documents
        ) WHERE rank <= 3
    """,
    "range_join_events": """
        SELECT iv.k AS interval_id, COUNT(*) AS n,
               CAST(ROUND(SUM(e.value) * 10000) AS BIGINT) AS sum_value
        FROM events e
        JOIN (SELECT CAST(range AS BIGINT) AS k FROM range(0, 10)) iv
          ON e.user_id >= iv.k * 20 AND e.user_id < iv.k * 20 + 13
        GROUP BY iv.k
    """,
    "range_join_events_ll": """
        WITH iv AS (SELECT p_partkey AS interval_id,
                           CAST((p_partkey * 7) % 140 AS DOUBLE) AS lo,
                           CAST((p_partkey * 7) % 140 + 5 AS DOUBLE) AS hi
                    FROM part)
        SELECT iv.interval_id, COUNT(*) AS n,
               CAST(ROUND(SUM(e.value) * 10000) AS BIGINT) AS sum_value
        FROM events e
        JOIN iv ON e.user_id >= iv.lo AND e.user_id < iv.hi
        GROUP BY iv.interval_id
    """,
    "asof_events_markers_ll": """
        WITH m AS (SELECT event_id AS marker_id, ts AS mts
                   FROM events WHERE event_id % 997 = 0)
        SELECT m.marker_id, COUNT(*) AS n,
               CAST(ROUND(SUM(e.value) * 10000) AS BIGINT) AS sum_value
        FROM events e ASOF JOIN m ON e.ts >= m.mts
        GROUP BY m.marker_id
    """,
    "quantile_cont_by_flag": """
        SELECT l_returnflag,
               CAST(ROUND(quantile_cont(l_extendedprice, 0.37) * 100)
                    AS BIGINT) AS p37_price
        FROM lineitem GROUP BY l_returnflag
    """,
    "quantiles_by_flag": """
        SELECT l_returnflag,
               CAST(ROUND(quantile_disc(l_extendedprice, 0.5) * 100) AS BIGINT)
                   AS median_price
        FROM lineitem GROUP BY l_returnflag
    """,
    # deterministic md5-bucket sample: our hash is bit-identical to
    # DuckDB's md5_number_upper, so the sampled row set matches exactly
    "hash_sample_docs": """
        SELECT doc_id, lang, n_chars FROM documents
        WHERE md5_number_upper(CAST(doc_id AS VARCHAR)) % 100 < 5
    """,
    # HLL estimate pinned (deterministic function of the key set; the
    # register algebra is not SQL-expressible) + exact COUNT DISTINCT
    "hll_distinct_users": """
        SELECT CAST(151 AS BIGINT) AS approx_distinct,
               CAST(COUNT(DISTINCT user_id) AS BIGINT) AS exact_distinct
        FROM events
    """,
    # closed form: the 12 base pentagons (seqnum 1 mod 41 at res 2) have 5
    # neighbors, every other res-2 cell 6
    "kring_res2": """
        SELECT CAST(range AS BIGINT) AS seqnum,
               CASE WHEN (range - 1) % 41 = 0 THEN 5 ELSE 6 END AS n_neighbors
        FROM range(1, 493)
    """,
    # PIP joins against 8 disjoint boxes: containment is pure inequalities
    # (both implementations share this oracle — broadcast STRtree and the
    # coarse-cell cogroup path must agree with it AND each other)
    "pip_join_events": """
        WITH b AS (SELECT CAST(range AS BIGINT) AS k,
                          -180 + range * 45 + 2.005 AS x0,
                          -60 + (range % 4) * 30 + 1.005 AS y0,
                          -180 + range * 45 + 32.005 AS x1,
                          -60 + (range % 4) * 30 + 21.005 AS y1
                   FROM range(0, 8)),
        e AS (SELECT CAST((event_id * 7919) % 36000 AS DOUBLE) / 100.0 - 180.0 AS lon,
                     CAST((event_id * 104729) % 18000 AS DOUBLE) / 100.0 - 90.0 AS lat,
                     value
              FROM events)
        SELECT b.k AS poly_id, COUNT(*) AS n,
               CAST(ROUND(SUM(e.value) * 10000) AS BIGINT) AS sum_value
        FROM e JOIN b ON e.lon > b.x0 AND e.lon < b.x1
                     AND e.lat > b.y0 AND e.lat < b.y1
        GROUP BY b.k
    """,
    "spatial_cells_join_events": """
        WITH b AS (SELECT CAST(range AS BIGINT) AS k,
                          -180 + range * 45 + 2.005 AS x0,
                          -60 + (range % 4) * 30 + 1.005 AS y0,
                          -180 + range * 45 + 32.005 AS x1,
                          -60 + (range % 4) * 30 + 21.005 AS y1
                   FROM range(0, 8)),
        e AS (SELECT CAST((event_id * 7919) % 36000 AS DOUBLE) / 100.0 - 180.0 AS lon,
                     CAST((event_id * 104729) % 18000 AS DOUBLE) / 100.0 - 90.0 AS lat,
                     value
              FROM events)
        SELECT b.k AS poly_id, COUNT(*) AS n,
               CAST(ROUND(SUM(e.value) * 10000) AS BIGINT) AS sum_value
        FROM e JOIN b ON e.lon > b.x0 AND e.lon < b.x1
                     AND e.lat > b.y0 AND e.lat < b.y1
        GROUP BY b.k
    """,
    # deterministic fake media store/decoder -> pinned summary literals
    "media_features_spans": """
        SELECT CAST(2478 AS BIGINT) AS n_media,
               CAST(7635157 AS BIGINT) AS sum_bytes,
               CAST(197826 AS BIGINT) AS sum_width,
               CAST(189325 AS BIGINT) AS sum_height
    """,
    # closed-form cell count (10*7^3+2) + pinned antimeridian-crossing count
    "dateline_split_res3": """
        SELECT CAST(3432 AS BIGINT) AS n_cells, CAST(3496 AS BIGINT) AS n_rows,
               CAST(64 AS BIGINT) AS n_split
    """,
    # the reference conformance clip box (tests/test_legacy_driver_name.py:
    # 31-86) at IGEO7 res 5: the 16 covering Z7_STRING ids pinned
    "polyfill_clip_box": """
        SELECT * FROM (VALUES
            ('0001002'), ('0001020'), ('0001021'), ('0001022'), ('0001023'),
            ('0001025'), ('0001030'), ('0001032'), ('0001034'), ('0001035'),
            ('0001036'), ('0001241'), ('0001250'), ('0001251'), ('0001254'),
            ('0001255')
        ) AS t(z7_string)
    """,
    # the DGGRID binary's golden literals (reference tests/test_dggrid.py:
    # :177-182 Z7 strings at IGEO7 res 4; :496-527 ISEA7H res-5 ring vertex
    # coordinates, x1e4 rounded) — pure VALUES oracle
    "dggrid_golden_literals": """
        SELECT * FROM (VALUES
            ('oregon_cell', '014626'),
            ('oregon_cell', '021114'),
            ('oregon_cell', '021116'),
            ('vertex', '204301,580182'),
            ('vertex', '202025,577280'),
            ('vertex', '204913,574218'),
            ('vertex', '210013,574050'),
            ('vertex', '212330,576944'),
            ('vertex', '209506,580014'),
            ('vertex', '211895,582894'),
            ('vertex', '209506,580014'),
            ('vertex', '212330,576944'),
            ('vertex', '217478,576746'),
            ('vertex', '219908,579616'),
            ('vertex', '217149,582694'),
            ('golden_seqnum', '51548'),
            ('golden_seqnum', '51695')
        ) AS t(kind, value)
    """,
    "stratified_sample_docs": """
        SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs
        FROM documents
        WHERE md5_number_upper(CAST(doc_id AS VARCHAR)) % 100 <
              CASE lang WHEN 'en' THEN 20 WHEN 'ja' THEN 100 ELSE 50 END
        GROUP BY lang
        ORDER BY lang
    """,
    "quantile_sketch_events": """
        SELECT q, CAST(ROUND(v * 10000) AS BIGINT) AS value FROM (
            SELECT 25 AS q, quantile_disc(value, 0.25) AS v FROM events
            UNION ALL
            SELECT 50, quantile_disc(value, 0.50) FROM events
            UNION ALL
            SELECT 75, quantile_disc(value, 0.75) FROM events
        ) ORDER BY q
    """,
    "pack_sequences_docs": """
        WITH t AS (
            SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS tokens
            FROM documents
        ), p AS (
            SELECT doc_id, tokens,
                   CAST(COALESCE(SUM(tokens) OVER (ORDER BY doc_id
                        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                        0) AS BIGINT) AS pre
            FROM t
        )
        SELECT doc_id, tokens, pre // 512 AS seq_id, pre % 512 AS seq_offset
        FROM p ORDER BY doc_id
    """,
    "knn_sites_events": """
        WITH pts AS (
            SELECT event_id,
                   ((event_id * 104729) % 18000) / 100.0 - 90.0 AS lat,
                   ((event_id * 7919) % 36000) / 100.0 - 180.0 AS lon
            FROM events
        ), sites(site_id, slat, slon) AS (VALUES
            (0, -69.5, -179.5),
            (1, -32.5, -106.5),
            (2, 4.5, -33.5),
            (3, 41.5, 39.5),
            (4, -61.5, 112.5),
            (5, -24.5, -174.5),
            (6, 12.5, -101.5),
            (7, 49.5, -28.5),
            (8, -53.5, 44.5),
            (9, -16.5, 117.5),
            (10, 20.5, -169.5),
            (11, 57.5, -96.5),
            (12, -45.5, -23.5),
            (13, -8.5, 49.5),
            (14, 28.5, 122.5),
            (15, 65.5, -164.5),
            (16, -37.5, -91.5),
            (17, -0.5, -18.5),
            (18, 36.5, 54.5),
            (19, -66.5, 127.5)
        ), d AS (
            SELECT event_id, site_id,
                   2 * 6371.0 * ASIN(SQRT(
                       POWER(SIN(RADIANS(slat - lat) / 2), 2)
                       + COS(RADIANS(lat)) * COS(RADIANS(slat))
                         * POWER(SIN(RADIANS(slon - lon) / 2), 2))) AS dist
            FROM pts, sites
        ), r AS (
            SELECT event_id, site_id,
                   ROW_NUMBER() OVER (PARTITION BY event_id
                                      ORDER BY dist, site_id) AS rank
            FROM d
        )
        SELECT event_id, site_id, CAST(rank AS BIGINT) AS rank
        FROM r WHERE rank <= 3
        ORDER BY event_id, rank
    """,
    "bloom_semijoin_events": """
        SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(ROUND(SUM(value) * 10000) AS BIGINT) AS sum_value
        FROM events
        WHERE user_id IN (SELECT c_custkey FROM customer
                          WHERE c_mktsegment = 'BUILDING')
        GROUP BY event_type
        ORDER BY event_type
    """,
    "heavy_tokens_docs": """
        SELECT token, CAST(COUNT(*) AS BIGINT) AS cnt,
               CAST(ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, token)
                    AS BIGINT) AS rank
        FROM (SELECT unnest(string_split(text, ' ')) AS token FROM documents)
        GROUP BY token
        ORDER BY cnt DESC, token
        LIMIT 10
    """,
    "weighted_sample_docs": """
        SELECT doc_id, lang, n_chars FROM (
            SELECT * FROM documents
            ORDER BY ln((CAST(md5_number_upper(CAST(doc_id AS VARCHAR)) AS DOUBLE)
                         + 0.5) / 18446744073709551616.0) / n_chars DESC
            LIMIT 25
        ) ORDER BY doc_id
    """,
    "cc_clusters_docs": """
        SELECT doc_id, MIN(doc_id) OVER (PARTITION BY lang) AS cluster_id
        FROM documents
        WHERE lang IN (SELECT lang FROM documents
                       GROUP BY lang HAVING COUNT(*) > 1)
        ORDER BY doc_id
    """,
    "dedup_canonical_docs": """
        SELECT doc_id, lang FROM documents
        WHERE doc_id IN (SELECT MIN(doc_id) FROM documents GROUP BY lang)
        ORDER BY doc_id
    """,
    "epoch_shuffle_docs": """
        SELECT pos, doc_id FROM (
            SELECT CAST(ROW_NUMBER() OVER (
                       ORDER BY md5_number_upper('1:' || CAST(doc_id AS VARCHAR)),
                                doc_id) AS BIGINT) AS pos,
                   doc_id
            FROM documents
        ) WHERE pos <= 20 ORDER BY pos
    """,
    "redact_docs": r"""
        SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(CASE WHEN r <> text THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_redacted,
               CAST(SUM(LENGTH(r)) AS BIGINT) AS sum_chars_redacted
        FROM (SELECT lang, text,
                     regexp_replace(text, '\b(key|hash)\b', '<ID>', 'g') AS r
              FROM documents)
        GROUP BY lang ORDER BY lang
    """,
    "rollup_latlon_events": """
        WITH pts AS (
            SELECT ((event_id * 104729) % 18000) // 100 AS la,
                   ((event_id * 7919) % 36000) // 100 AS lo,
                   value
            FROM events
        )
        SELECT CAST(0 AS BIGINT) AS level, la * 360 + lo AS cell,
               CAST(COUNT(*) AS BIGINT) AS n_points,
               CAST(ROUND(SUM(value) * 10000) AS BIGINT) AS sum_value
        FROM pts GROUP BY 2
        UNION ALL
        SELECT CAST(1 AS BIGINT), (la // 2) * 360 + (lo // 2),
               CAST(COUNT(*) AS BIGINT),
               CAST(ROUND(SUM(value) * 10000) AS BIGINT)
        FROM pts GROUP BY 2
        UNION ALL
        SELECT CAST(2 AS BIGINT), (la // 4) * 360 + (lo // 4),
               CAST(COUNT(*) AS BIGINT),
               CAST(ROUND(SUM(value) * 10000) AS BIGINT)
        FROM pts GROUP BY 2
    """,
    "rollup_z7_events": """
        -- Z7 ids are not SQL-expressible; the oracle checks the pyramid's
        -- conservation law (every level carries ALL events' count and value
        -- mass) plus the pinned occupied-cell count per level (regression
        -- literals at sf0.01, the igeo7_encode_events pattern).
        WITH tot AS (
            SELECT CAST(COUNT(*) AS BIGINT) AS n_points,
                   CAST(ROUND(SUM(value) * 10000) AS BIGINT) AS sum_value
            FROM events
        )
        SELECT v.res, v.n_cells, tot.n_points, tot.sum_value
        FROM (VALUES (CAST(2 AS BIGINT), CAST(492 AS BIGINT)),
                     (CAST(3 AS BIGINT), CAST(3292 AS BIGINT)),
                     (CAST(4 AS BIGINT), CAST(8330 AS BIGINT)),
                     (CAST(5 AS BIGINT), CAST(9452 AS BIGINT)))
             AS v(res, n_cells), tot
        ORDER BY v.res
    """,
    "contamination_docs": """
        WITH w AS (SELECT doc_id, string_split(text, ' ') AS w
                   FROM documents),
        g AS (SELECT doc_id,
                     UNNEST(list_transform(range(1, len(w) - 1),
                         i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) AS gram
              FROM w),
        bench AS (SELECT DISTINCT gram FROM g WHERE doc_id % 100 = 0)
        SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_grams,
               CAST(SUM(CASE WHEN gram IN (SELECT gram FROM bench)
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_hits
        FROM g WHERE doc_id % 100 <> 0
        GROUP BY doc_id ORDER BY doc_id
    """,
    "repetition_docs": """
        WITH w AS (SELECT doc_id, string_split(text, ' ') AS w
                   FROM documents),
        t AS (SELECT doc_id, UNNEST(w) AS tok FROM w),
        g2 AS (SELECT doc_id,
                      UNNEST(list_transform(range(1, len(w)),
                          i -> w[i] || ' ' || w[i+1])) AS gram
               FROM w),
        tt AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_tokens,
                      CAST(MAX(c) AS BIGINT) AS top_token_count
               FROM (SELECT doc_id, tok, COUNT(*) AS c
                     FROM t GROUP BY doc_id, tok)
               GROUP BY doc_id),
        gg AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_grams,
                      CAST(COUNT(*) - COUNT(DISTINCT gram) AS BIGINT)
                          AS n_dup_grams
               FROM g2 GROUP BY doc_id)
        SELECT tt.doc_id, tt.n_tokens, gg.n_grams, gg.n_dup_grams,
               tt.top_token_count
        FROM tt JOIN gg USING (doc_id) ORDER BY doc_id
    """,
    "token_df_top10": """
        WITH t AS (SELECT doc_id, UNNEST(string_split(text, ' ')) AS tok
                   FROM documents)
        SELECT tok, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df,
               CAST(COUNT(*) AS BIGINT) AS cf
        FROM t GROUP BY tok
        ORDER BY df DESC, cf DESC, tok LIMIT 10
    """,
    "kmeans_step_embeddings": """
        WITH cent AS (SELECT vec_id AS cluster,
                             CAST(embedding AS DOUBLE[]) AS c
                      FROM embeddings WHERE vec_id < 4),
        sims AS (SELECT e.vec_id, cent.cluster,
                        list_cosine_similarity(
                            CAST(e.embedding AS DOUBLE[]), cent.c) AS sim,
                        list_sum(CAST(e.embedding AS DOUBLE[])) AS mass
                 FROM embeddings e, cent),
        best AS (SELECT vec_id, cluster, mass FROM (
                    SELECT vec_id, cluster, mass,
                           ROW_NUMBER() OVER (PARTITION BY vec_id
                               ORDER BY sim DESC, cluster) AS rn
                    FROM sims) WHERE rn = 1)
        SELECT cluster, CAST(COUNT(*) AS BIGINT) AS n_members,
               CAST(ROUND(SUM(mass) / COUNT(*) * 10000) AS BIGINT)
                   AS centroid_mass
        FROM best GROUP BY cluster ORDER BY cluster
    """,
    "inverted_index_docs": """
        WITH t0 AS (SELECT doc_id, UNNEST(string_split(text, ' ')) AS tok
                    FROM documents),
        t AS (SELECT DISTINCT doc_id, tok FROM t0),
        idx AS (SELECT tok, CAST(doc_id // 100 AS BIGINT) AS bucket,
                       STRING_AGG(CAST(doc_id AS VARCHAR), ','
                                  ORDER BY doc_id) AS postings,
                       CAST(COUNT(*) AS BIGINT) AS df_bucket
                FROM t GROUP BY tok, bucket)
        SELECT * FROM idx
        ORDER BY df_bucket DESC, tok, bucket LIMIT 20
    """,
    "blocklist_filter_docs": """
        SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars
        FROM documents
        WHERE source NOT IN ('src1', 'src7', 'src13')
        GROUP BY lang ORDER BY lang
    """,
    "zscore_by_lang": """
        -- CASE sd > 0 encodes the operator's documented z=0 semantics
        -- for zero-variance groups (plain division would yield NULL and
        -- diverge on constant-valued groups)
        WITH s AS (SELECT lang, AVG(n_chars) AS m,
                          STDDEV_POP(n_chars) AS sd
                   FROM documents GROUP BY lang),
        z AS (SELECT d.lang,
                     CASE WHEN s.sd > 0
                          THEN ABS((d.n_chars - s.m) / s.sd)
                          ELSE 0 END AS az
              FROM documents d JOIN s USING (lang))
        SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(CASE WHEN az <= 1 THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_within_1sigma,
               CAST(ROUND(SUM(az) * 10000) AS BIGINT) AS sum_absz
        FROM z GROUP BY lang ORDER BY lang
    """,
    "ntile_by_lang": """
        SELECT lang, CAST(quartile AS BIGINT) AS quartile,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars
        FROM (SELECT lang, n_chars,
                     NTILE(4) OVER (PARTITION BY lang
                                    ORDER BY n_chars, doc_id) AS quartile
              FROM documents)
        GROUP BY lang, quartile ORDER BY lang, quartile
    """,
    "bloom_antijoin_events": """
        SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(ROUND(SUM(value) * 10000) AS BIGINT) AS sum_value
        FROM events
        WHERE user_id NOT IN (SELECT c_custkey FROM customer
                              WHERE c_mktsegment = 'BUILDING')
        GROUP BY event_type
        ORDER BY event_type
    """,
    "pagerank_custsupp": """
        WITH e AS (SELECT o_custkey AS u, l_suppkey + 1000000 AS v
                   FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
        nodes AS (SELECT DISTINCT u AS n FROM e
                  UNION SELECT DISTINCT v FROM e),
        cnt AS (SELECT CAST(COUNT(*) AS DOUBLE) AS c FROM nodes),
        deg AS (SELECT u, CAST(COUNT(*) AS DOUBLE) AS dout
                FROM e GROUP BY u),
        r0 AS (SELECT n, 1.0 / (SELECT c FROM cnt) AS r FROM nodes),
        s1 AS (SELECT e.v AS n, SUM(r0.r / deg.dout) AS contrib
               FROM e JOIN r0 ON e.u = r0.n JOIN deg ON e.u = deg.u
               GROUP BY e.v),
        r1 AS (SELECT nodes.n,
                      (1 - 0.85) / (SELECT c FROM cnt)
                          + 0.85 * COALESCE(s1.contrib, 0) AS r
               FROM nodes LEFT JOIN s1 ON nodes.n = s1.n),
        s2 AS (SELECT e.v AS n, SUM(r1.r / deg.dout) AS contrib
               FROM e JOIN r1 ON e.u = r1.n JOIN deg ON e.u = deg.u
               GROUP BY e.v),
        r2 AS (SELECT nodes.n,
                      (1 - 0.85) / (SELECT c FROM cnt)
                          + 0.85 * COALESCE(s2.contrib, 0) AS r
               FROM nodes LEFT JOIN s2 ON nodes.n = s2.n)
        SELECT n AS node, CAST(ROUND(r * 1000000) AS BIGINT) AS rank_e6
        FROM r2 ORDER BY node
    """,
    "q6_forecast_revenue": """
        SELECT CAST(ROUND(SUM(l_extendedprice * l_discount) * 10000)
                    AS BIGINT) AS revenue,
               CAST(COUNT(*) AS BIGINT) AS n_items
        FROM lineitem
        WHERE l_shipdate >= DATE '1996-01-01'
          AND l_shipdate < DATE '1997-01-01'
          AND l_discount BETWEEN 0.05 AND 0.07
          AND l_quantity < 24
    """,
    "q14_promo_revenue": """
        SELECT CAST(ROUND(100.0
                 * SUM(CASE WHEN p_type LIKE 'PROMO%' THEN
                            l_extendedprice * (1 - l_discount) ELSE 0 END)
                 / SUM(l_extendedprice * (1 - l_discount)) * 10000)
               AS BIGINT) AS promo_pct
        FROM lineitem JOIN part ON l_partkey = p_partkey
        WHERE l_shipdate >= DATE '1996-01-01'
          AND l_shipdate < DATE '1996-04-01'
    """,
    "running_total_by_user": """
        SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
               CAST(ROUND(SUM(r) * 10000) AS BIGINT) AS sum_running
        FROM (SELECT user_id,
                     SUM(value) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id
                                      ROWS UNBOUNDED PRECEDING) AS r
              FROM events)
        GROUP BY user_id ORDER BY user_id
    """,
    "curation_v2": """
        WITH w AS (SELECT doc_id, string_split(text, ' ') AS w
                   FROM documents),
        g AS (SELECT doc_id,
                     UNNEST(list_transform(range(1, len(w) - 1),
                         i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) AS gram
              FROM w),
        bench AS (SELECT DISTINCT gram FROM g WHERE doc_id % 100 = 0),
        dirty AS (SELECT DISTINCT doc_id FROM g
                  WHERE doc_id % 100 <> 0
                    AND gram IN (SELECT gram FROM bench))
        SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars
        FROM documents
        WHERE doc_id % 100 <> 0
          AND doc_id NOT IN (SELECT doc_id FROM dirty)
          AND source NOT IN ('src1', 'src7', 'src13')
          AND md5_number_upper(CAST(doc_id AS VARCHAR)) % 100 < 25
        GROUP BY lang ORDER BY lang
    """,
    # focal sum = self-join of the binned grid on the 9 (dx, dy) window
    # offsets; per-cell cents are integers before the window sum so the
    # comparison is exact (non-periodic lattice on both sides)
    "stencil_focal_events": """
        WITH b AS (
            SELECT (event_id * 7919) % 36000 // 400 AS gx,
                   (event_id * 104729) % 18000 // 400 AS gy,
                   COUNT(*) AS n,
                   SUM(CAST(ROUND(value * 100) AS BIGINT)) AS cents
            FROM events GROUP BY 1, 2),
        o AS (SELECT dxr.range AS dx, dyr.range AS dy
              FROM range(-1, 2) dxr, range(-1, 2) dyr)
        SELECT CAST(c.gx AS BIGINT) AS gx, CAST(c.gy AS BIGINT) AS gy,
               CAST(SUM(nb.n) AS BIGINT) AS focal_n,
               CAST(SUM(nb.cents) AS BIGINT) AS focal_cents,
               CAST(c.n AS BIGINT) AS own_n
        FROM b c
        CROSS JOIN o
        JOIN b nb ON nb.gx = c.gx + o.dx AND nb.gy = c.gy + o.dy
        GROUP BY c.gx, c.gy, c.n
        ORDER BY gx, gy
    """,
    # DBSCAN-on-the-lattice: dense cells, 8-neighbor adjacency, cluster =
    # MIN pk reachable (recursive transitive closure; components are small)
    "density_clusters_events": """
        WITH RECURSIVE d AS (
            SELECT gx, gy, n, (gx + 1048576) * 2097152 + (gy + 1048576) AS pk
            FROM (SELECT (event_id * 7919) % 36000 // 400 AS gx,
                         (event_id * 104729) % 18000 // 400 AS gy,
                         COUNT(*) AS n
                  FROM events WHERE event_type = 'purchase'
                  GROUP BY 1, 2 HAVING COUNT(*) >= 2)),
        e AS (SELECT a.pk AS src, c.pk AS dst
              FROM d a JOIN d c
                ON abs(a.gx - c.gx) <= 1 AND abs(a.gy - c.gy) <= 1
               AND a.pk <> c.pk),
        reach AS (
            SELECT pk AS src, pk AS dst FROM d
            UNION
            SELECT r.src, e.dst FROM reach r JOIN e ON e.src = r.dst)
        SELECT CAST(d.gx AS BIGINT) AS gx, CAST(d.gy AS BIGINT) AS gy,
               CAST(d.n AS BIGINT) AS n, d.pk AS cell_pk, m.cluster_pk
        FROM d JOIN (SELECT src AS pk, MIN(dst) AS cluster_pk
                     FROM reach GROUP BY src) m ON m.pk = d.pk
        ORDER BY cell_pk
    """,
    # doc-level pair counts over the top-16 vocabulary (df desc, cf desc,
    # tok asc — the token_df_top10 ordering), pairs lexicographic
    "cooccurrence_docs": """
        WITH raw AS (SELECT doc_id, UNNEST(string_split(text, ' ')) AS tok
                     FROM documents),
        stats AS (SELECT tok, COUNT(DISTINCT doc_id) AS df, COUNT(*) AS cf
                  FROM raw GROUP BY tok),
        top AS (SELECT tok, df FROM stats
                ORDER BY df DESC, cf DESC, tok LIMIT 16),
        dt AS (SELECT DISTINCT doc_id, tok FROM raw
               WHERE tok IN (SELECT tok FROM top))
        SELECT a.tok AS tok_a, b.tok AS tok_b,
               CAST(sa.df AS BIGINT) AS df_a, CAST(sb.df AS BIGINT) AS df_b,
               CAST(COUNT(*) AS BIGINT) AS n_both
        FROM dt a
        JOIN dt b ON a.doc_id = b.doc_id AND a.tok < b.tok
        JOIN top sa ON sa.tok = a.tok
        JOIN top sb ON sb.tok = b.tok
        GROUP BY a.tok, b.tok, sa.df, sb.df
        ORDER BY tok_a, tok_b
    """,
    # Markov transitions: LAG window, bounded |types|^2 output
    "transition_counts_events": """
        WITH o AS (SELECT user_id, event_type,
                          LAG(event_type) OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS prev
                   FROM events)
        SELECT prev AS prev_type, event_type AS next_type,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM o WHERE prev IS NOT NULL
        GROUP BY 1, 2 ORDER BY 1, 2
    """,
    # crosstab via conditional aggregation (type set pinned to testdata)
    "pivot_event_types": """
        SELECT user_id,
               CAST(SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
               CAST(SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
               CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
               CAST(SUM(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
               CAST(SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view
        FROM events GROUP BY user_id ORDER BY user_id
    """,
    # TWAP: LEAD segment weights, exact integer partials, one division
    "twap_value_by_user": """
        WITH o AS (SELECT user_id, value, epoch_us(ts) AS ts_us,
                          LEAD(epoch_us(ts)) OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS next_us
                   FROM events)
        SELECT user_id,
               CAST(ROUND(SUM(CAST(ROUND(value * 100) AS BIGINT)
                              * (next_us - ts_us))
                          / (SUM(next_us - ts_us) * 100.0) * 10000)
                    AS BIGINT) AS twap_e4,
               CAST(SUM(next_us - ts_us) AS BIGINT) AS span_us
        FROM o WHERE next_us IS NOT NULL
        GROUP BY user_id ORDER BY user_id
    """,
    # Shannon entropy of the source mixture per language
    "entropy_by_lang": """
        WITH c AS (SELECT lang, source, COUNT(*) AS n
                   FROM documents GROUP BY 1, 2),
        t AS (SELECT lang, SUM(n) AS tot FROM c GROUP BY 1)
        SELECT c.lang,
               CAST(ROUND(-SUM((n / (1.0 * tot)) * LN(n / (1.0 * tot)))
                          * 1000000) AS BIGINT) AS entropy_e6,
               CAST(t.tot AS BIGINT) AS n_docs
        FROM c JOIN t USING (lang)
        GROUP BY c.lang, t.tot ORDER BY lang
    """,
    # Getis-Ord Gi* over occupied cells: global moments from exact integer
    # counts, binary 3x3 weights incl. self — the z expression mirrors the
    # numpy evaluation order term by term (IEEE ops on identical doubles)
    "hotspot_gi_occupied_events": """
        WITH b AS (
            SELECT (event_id * 7919) % 36000 // 400 AS gx,
                   (event_id * 104729) % 18000 // 400 AS gy,
                   COUNT(*) AS n
            FROM events GROUP BY 1, 2),
        m AS (SELECT COUNT(*) AS cnt, SUM(n) AS s, SUM(n * n) AS ss FROM b),
        o AS (SELECT dxr.range AS dx, dyr.range AS dy
              FROM range(-1, 2) dxr, range(-1, 2) dyr),
        f AS (SELECT c.gx, c.gy, SUM(nb.n) AS g, COUNT(*) AS w
              FROM b c
              CROSS JOIN o
              JOIN b nb ON nb.gx = c.gx + o.dx AND nb.gy = c.gy + o.dy
              GROUP BY c.gx, c.gy)
        SELECT CAST(f.gx AS BIGINT) AS gx, CAST(f.gy AS BIGINT) AS gy,
               CAST(f.g AS BIGINT) AS focal_sum,
               CAST(f.w AS BIGINT) AS n_neighbors,
               CAST(ROUND(
                   (f.g - (m.s / (1.0 * m.cnt)) * f.w)
                   / (SQRT(m.ss / (1.0 * m.cnt)
                           - (m.s / (1.0 * m.cnt)) * (m.s / (1.0 * m.cnt)))
                      * SQRT((m.cnt * f.w - f.w * f.w) / (m.cnt - 1.0)))
                   * 1000000) AS BIGINT) AS z_e6
        FROM f, m ORDER BY gx, gy
    """,
    # Mann-Kendall S per coarse cell over weekly counts zero-filled across
    # the globally observed week range (the space-time-cube trend input)
    "trend_cells_events": """
        WITH b AS (
            SELECT (event_id * 7919) % 36000 // 2000 AS gx,
                   (event_id * 104729) % 18000 // 2000 AS gy,
                   (epoch_us(ts) // 86400000000 + 3) // 7 AS wk,
                   COUNT(*) AS n
            FROM events GROUP BY 1, 2, 3),
        w AS (SELECT DISTINCT wk FROM b),
        c AS (SELECT DISTINCT gx, gy FROM b),
        f AS (SELECT c.gx, c.gy, w.wk, COALESCE(b.n, 0) AS n
              FROM c CROSS JOIN w
              LEFT JOIN b ON b.gx = c.gx AND b.gy = c.gy AND b.wk = w.wk),
        p AS (SELECT a.gx, a.gy,
                     SUM(CASE WHEN x.n > a.n THEN 1
                              WHEN x.n < a.n THEN -1 ELSE 0 END) AS s
              FROM f a
              JOIN f x ON x.gx = a.gx AND x.gy = a.gy AND x.wk > a.wk
              GROUP BY a.gx, a.gy)
        SELECT CAST(c.gx AS BIGINT) AS gx, CAST(c.gy AS BIGINT) AS gy,
               CAST(COALESCE(p.s, 0) AS BIGINT) AS mk_s,
               CAST((SELECT COUNT(*) FROM w) AS BIGINT) AS n_weeks
        FROM c LEFT JOIN p ON p.gx = c.gx AND p.gy = c.gy
        ORDER BY gx, gy
    """,
    # origin-destination flows: LAG of the packed cell id per user
    "od_matrix_packed_events": """
        WITH e AS (
            SELECT user_id, ts, event_id,
                   ((event_id * 7919) % 36000 // 1000 + 1048576) * 2097152
                   + ((event_id * 104729) % 18000 // 1000 + 1048576) AS pk
            FROM events),
        o AS (SELECT pk, LAG(pk) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id) AS prev
              FROM e)
        SELECT prev AS prev_pk, pk AS next_pk,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM o WHERE prev IS NOT NULL
        GROUP BY 1, 2 ORDER BY 1, 2
    """,
    # TPC-H Q10: integer-cent revenue per row keeps the distributed sum
    # exact; top-20 tie-break (revenue desc, custkey asc) = ROW_NUMBER
    "q10_returned_revenue": """
        WITH rev AS (
            SELECT o_custkey,
                   SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                            AS BIGINT)) AS rev_c
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            WHERE l_returnflag = 'R'
              AND o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate < TIMESTAMP '1996-07-01'
            GROUP BY o_custkey),
        top AS (
            SELECT o_custkey, rev_c,
                   ROW_NUMBER() OVER (ORDER BY rev_c DESC, o_custkey)
                       AS rank
            FROM rev ORDER BY rev_c DESC, o_custkey LIMIT 20)
        SELECT c_custkey, c_name, CAST(rev_c AS BIGINT) AS revenue_c,
               CAST(ROUND(c_acctbal * 100) AS BIGINT) AS acctbal_c,
               n_name, CAST(rank AS BIGINT) AS rank
        FROM top
        JOIN customer ON c_custkey = o_custkey
        JOIN nation ON n_nationkey = c_nationkey
        ORDER BY rank
    """,
    # TPC-H Q12 shape: linestatus x priority-class line counts
    "q12_priority_linestatus": """
        SELECT l_linestatus,
               CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                             THEN 1 ELSE 0 END) AS BIGINT)
                   AS high_line_count,
               CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                             THEN 0 ELSE 1 END) AS BIGINT)
                   AS low_line_count
        FROM lineitem JOIN orders ON l_orderkey = o_orderkey
        WHERE l_shipdate >= DATE '1996-01-01'
          AND l_shipdate < DATE '1997-01-01'
        GROUP BY l_linestatus ORDER BY l_linestatus
    """,
    # TPC-H Q17: correlated per-part AVG; quantities are integral so the
    # distributed avg is bit-exact against SQL AVG
    "q17_small_quantity": """
        WITH a AS (
            SELECT l_partkey AS pk, AVG(l_quantity) AS avg_qty
            FROM lineitem
            WHERE l_partkey IN (SELECT p_partkey FROM part
                                WHERE p_brand = 'Brand#23')
            GROUP BY 1)
        SELECT CAST(ROUND(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT))
                          / 7.0) AS BIGINT) AS avg_yearly_c,
               CAST(COUNT(*) AS BIGINT) AS n_small
        FROM lineitem JOIN a ON a.pk = l_partkey
        WHERE l_quantity < 0.2 * avg_qty
    """,
    # TPC-H Q19: three-way disjunctive brand/size/quantity predicate
    "q19_disjunctive_revenue": """
        SELECT CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                             AS BIGINT)) AS BIGINT) AS revenue_c,
               CAST(COUNT(*) AS BIGINT) AS n_items
        FROM lineitem JOIN part ON p_partkey = l_partkey
        WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5
               AND l_quantity BETWEEN 1 AND 11)
           OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 10
               AND l_quantity BETWEEN 10 AND 20)
           OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 15
               AND l_quantity BETWEEN 20 AND 30)
    """,
    # TPC-H Q7: volume between nations 7 and 17 by ship year
    "q7_volume_shipping": """
        SELECT CAST(s_nationkey AS BIGINT) AS supp_nation,
               CAST(c_nationkey AS BIGINT) AS cust_nation,
               CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
               CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                             AS BIGINT)) AS BIGINT) AS revenue_c,
               CAST(COUNT(*) AS BIGINT) AS n_items
        FROM lineitem
        JOIN orders ON l_orderkey = o_orderkey
        JOIN customer ON o_custkey = c_custkey
        JOIN supplier ON l_suppkey = s_suppkey
        WHERE l_shipdate >= DATE '1995-01-01'
          AND l_shipdate < DATE '1997-01-01'
          AND ((s_nationkey = 7 AND c_nationkey = 17)
               OR (s_nationkey = 17 AND c_nationkey = 7))
        GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
    """,
    # TPC-H Q8: nation 7's share of revenue to ASIA-region customers
    "q8_market_share": """
        WITH f AS (
            SELECT EXTRACT(year FROM o_orderdate) AS o_year,
                   CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                        AS BIGINT) AS cents,
                   CASE WHEN s_nationkey = 7 THEN 1 ELSE 0 END AS is_t
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            JOIN supplier ON l_suppkey = s_suppkey
            WHERE n_regionkey = 2)
        SELECT CAST(o_year AS BIGINT) AS o_year,
               CAST(ROUND(CAST(SUM(cents * is_t) AS BIGINT)
                          / (1.0 * CAST(SUM(cents) AS BIGINT))
                          * 1000000) AS BIGINT) AS share_e6,
               CAST(SUM(cents * is_t) AS BIGINT) AS target_c,
               CAST(SUM(cents) AS BIGINT) AS total_c
        FROM f GROUP BY o_year ORDER BY o_year
    """,
    # TPC-H Q11 shape: per-part value from nation 9's suppliers, HAVING
    # value > 0.001 * global total
    "q11_important_parts": """
        WITH v AS (
            SELECT l_partkey,
                   SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                            AS BIGINT)) AS value_c
            FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
            WHERE s_nationkey = 9
            GROUP BY 1)
        SELECT CAST(l_partkey AS BIGINT) AS l_partkey,
               CAST(value_c AS BIGINT) AS value_c
        FROM v
        WHERE value_c > (SELECT CAST(SUM(value_c) AS BIGINT) * 0.001
                         FROM v)
        ORDER BY value_c DESC, l_partkey
    """,
    # TPC-H Q16 shape: distinct suppliers per (brand, size), one brand
    # excluded, negative-balance suppliers blocklisted
    "q16_supplier_count": """
        SELECT p_brand, CAST(p_size AS BIGINT) AS p_size,
               CAST(COUNT(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
        FROM lineitem JOIN part ON p_partkey = l_partkey
        WHERE p_brand != 'Brand#45'
          AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                                WHERE s_acctbal < 0)
        GROUP BY p_brand, p_size
        ORDER BY supplier_cnt DESC, p_brand, p_size
    """,
    # Local Moran's I over occupied cells, self excluded; the expression
    # mirrors the numpy evaluation order term by term
    "lisa_events": """
        WITH b AS (
            SELECT (event_id * 7919) % 36000 // 400 AS gx,
                   (event_id * 104729) % 18000 // 400 AS gy,
                   COUNT(*) AS n
            FROM events GROUP BY 1, 2),
        m AS (SELECT COUNT(*) AS cnt, SUM(n) AS s, SUM(n * n) AS ss FROM b),
        o AS (SELECT dxr.range AS dx, dyr.range AS dy
              FROM range(-1, 2) dxr, range(-1, 2) dyr),
        f AS (SELECT c.gx, c.gy, c.n AS x, SUM(nb.n) AS g, COUNT(*) AS w
              FROM b c
              CROSS JOIN o
              JOIN b nb ON nb.gx = c.gx + o.dx AND nb.gy = c.gy + o.dy
              GROUP BY c.gx, c.gy, c.n)
        SELECT CAST(f.gx AS BIGINT) AS gx, CAST(f.gy AS BIGINT) AS gy,
               CAST(f.x AS BIGINT) AS n,
               CAST(f.g - f.x AS BIGINT) AS lag_sum,
               CAST(f.w - 1 AS BIGINT) AS n_neighbors,
               CAST(ROUND(
                   (f.x - m.s / (1.0 * m.cnt))
                   * ((f.g - f.x) - (m.s / (1.0 * m.cnt)) * (f.w - 1))
                   / (m.ss / (1.0 * m.cnt)
                      - (m.s / (1.0 * m.cnt)) * (m.s / (1.0 * m.cnt)))
                   * 1000000) AS BIGINT) AS i_e6
        FROM f, m ORDER BY gx, gy
    """,
    # Morton key = bit interleave; reconstructed in SQL by summing the
    # per-bit contributions over range(16)
    "morton_range_events": """
        WITH b AS (
            SELECT (event_id * 7919) % 36000 // 400 AS gx,
                   (event_id * 104729) % 18000 // 400 AS gy,
                   COUNT(*) AS n
            FROM events GROUP BY 1, 2),
        bits AS (SELECT CAST(range AS BIGINT) AS i FROM range(0, 16)),
        k AS (SELECT gx, gy, n,
                     CAST(SUM((((gx >> i) & 1) << (2 * i))
                              + (((gy >> i) & 1) << (2 * i + 1)))
                          AS BIGINT) AS morton_key
              FROM b CROSS JOIN bits GROUP BY gx, gy, n)
        SELECT CAST(gx AS BIGINT) AS gx, CAST(gy AS BIGINT) AS gy,
               morton_key, CAST(n AS BIGINT) AS n
        FROM k WHERE morton_key >= 1024 AND morton_key < 4096
        ORDER BY morton_key
    """,
    # run-length stay segments: LAG change flag -> window SUM segment id
    "stay_segments_events": """
        WITH z AS (
            SELECT user_id, epoch_us(ts) AS ts_us, event_id,
                   (event_id * 7919) % 36000 // 9000 AS zone
            FROM events),
        l AS (SELECT *, LAG(zone) OVER (PARTITION BY user_id
                                        ORDER BY ts_us, event_id) AS pz
              FROM z),
        s AS (SELECT *, SUM(CASE WHEN pz IS NULL OR pz != zone
                                 THEN 1 ELSE 0 END)
                        OVER (PARTITION BY user_id
                              ORDER BY ts_us, event_id
                              ROWS UNBOUNDED PRECEDING) AS seg_id
              FROM l)
        SELECT user_id, CAST(seg_id AS BIGINT) AS seg_id,
               CAST(MAX(zone) AS BIGINT) AS zone,
               CAST(MIN(ts_us) AS BIGINT) AS start_us,
               CAST(MAX(ts_us) AS BIGINT) AS end_us,
               CAST(COUNT(*) AS BIGINT) AS n_events
        FROM s GROUP BY user_id, seg_id
        HAVING COUNT(*) >= 2
        ORDER BY user_id, seg_id
    """,
    # all-pairs brute force over the 1-in-5 sample (2k pts at sf0.01) —
    # the Ray side enumerates the same pair set via the lat-band bucket
    # cover, so value equality proves the cover is exhaustive too
    "semivariogram_points_events": """
        WITH pts AS (
          SELECT event_id AS id, value,
                 CAST((event_id * 7919) % 36000 AS DOUBLE) / 100.0 - 180.0
                     AS lon,
                 CAST((event_id * 104729) % 18000 AS DOUBLE) / 100.0 - 90.0
                     AS lat
          FROM events WHERE event_id % 5 = 0),
        pairs AS (
          SELECT a.value - b.value AS dz,
                 2 * 6371.0 * asin(sqrt(LEAST(1.0, GREATEST(0.0,
                     pow(sin(radians(b.lat - a.lat) / 2), 2)
                     + cos(radians(a.lat)) * cos(radians(b.lat))
                       * pow(sin(radians(b.lon - a.lon) / 2), 2))))) AS d
          FROM pts a, pts b WHERE a.id < b.id)
        SELECT LEAST(CAST(FLOOR(d / 250.0) AS BIGINT), 11) AS bin,
               CAST(COUNT(*) AS BIGINT) AS n_pairs,
               CAST(ROUND(SUM(dz * dz) / (2 * COUNT(*)) * 1000) AS BIGINT)
                   AS gamma1k
        FROM pairs WHERE d <= 3000.0
        GROUP BY 1 ORDER BY 1
    """,
    "rog_users_events": """
        WITH pts AS (
          SELECT user_id,
                 CAST((event_id * 7919) % 36000 AS DOUBLE) / 100.0 - 180.0
                     AS lon,
                 CAST((event_id * 104729) % 18000 AS DOUBLE) / 100.0 - 90.0
                     AS lat
          FROM events),
        cent AS (
          SELECT user_id, AVG(lat) AS clat, AVG(lon) AS clon,
                 COUNT(*) AS n
          FROM pts GROUP BY user_id),
        d AS (
          SELECT p.user_id,
                 2 * 6371.0 * asin(sqrt(LEAST(1.0, GREATEST(0.0,
                     pow(sin(radians(c.clat - p.lat) / 2), 2)
                     + cos(radians(p.lat)) * cos(radians(c.clat))
                       * pow(sin(radians(c.clon - p.lon) / 2), 2))))) AS dk
          FROM pts p JOIN cent c USING (user_id))
        SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_points,
               CAST(ROUND(sqrt(AVG(dk * dk)) * 1000) AS BIGINT) AS rog_m
        FROM d GROUP BY user_id ORDER BY user_id
    """,
    # exact recursive-CTE replay of the iterative xy2d Hilbert bit walk
    # (order 16, n-1 = 65535): rx=(x//s)%2, ry=(y//s)%2, d += s^2 *
    # ((3 rx) XOR ry), then the reflect-and-swap rotation
    "hilbert_range_events": """
        WITH RECURSIVE b AS (
            SELECT (event_id * 7919) % 36000 // 400 AS gx,
                   (event_id * 104729) % 18000 // 400 AS gy,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM events GROUP BY 1, 2),
        h(gx, gy, n, x, y, s, d) AS (
            SELECT gx, gy, n, gx, gy, CAST(32768 AS BIGINT),
                   CAST(0 AS BIGINT)
            FROM b
            UNION ALL
            SELECT gx, gy, n,
                CASE WHEN (y // s) % 2 = 0 THEN
                     CASE WHEN (x // s) % 2 = 1 THEN 65535 - y ELSE y END
                     ELSE x END,
                CASE WHEN (y // s) % 2 = 0 THEN
                     CASE WHEN (x // s) % 2 = 1 THEN 65535 - x ELSE x END
                     ELSE y END,
                s // 2,
                d + s * s * xor(3 * ((x // s) % 2), (y // s) % 2)
            FROM h WHERE s > 0)
        SELECT CAST(gx AS BIGINT) AS gx, CAST(gy AS BIGINT) AS gy,
               d AS hilbert_key, n
        FROM h WHERE s = 0 AND d >= 1024 AND d < 4096
        ORDER BY hilbert_key
    """,
    "interval_overlap_events": """
        WITH l AS (
          SELECT event_id AS lid, epoch_us(ts) AS ls,
                 epoch_us(ts) + (event_id * 7919) % 2000000000 AS le
          FROM events WHERE event_id % 2 = 0),
        r AS (
          SELECT event_id AS rid, epoch_us(ts) AS rs,
                 epoch_us(ts) + (event_id * 104729) % 2000000000 AS re_us
          FROM events WHERE event_id % 2 = 1)
        SELECT lid, rid,
               LEAST(le, re_us) - GREATEST(ls, rs) AS overlap_us
        FROM l, r WHERE ls <= re_us AND rs <= le
        ORDER BY lid, rid
    """,
    # mirrors the engine's documented max_block=256 recall cap: only the
    # 256 smallest doc_ids per blocking key enter the pair DP
    "edit_pairs_docs": """
        WITH d AS (SELECT doc_id, text, lang,
                          ROW_NUMBER() OVER (
                              PARTITION BY lang, substr(text, 1, 8)
                              ORDER BY doc_id) AS rn
                   FROM documents)
        SELECT a.doc_id AS id_a, b.doc_id AS id_b,
               CAST(levenshtein(a.text, b.text) AS BIGINT) AS dist
        FROM d a JOIN d b
          ON a.lang = b.lang
         AND substr(a.text, 1, 8) = substr(b.text, 1, 8)
         AND a.doc_id < b.doc_id
        WHERE a.rn <= 256 AND b.rn <= 256
          AND levenshtein(a.text, b.text) <= 400
        ORDER BY id_a, id_b
    """,
    "autocorr_value_by_user": """
        WITH l AS (
          SELECT user_id, value,
                 LAG(value, 2) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS pv
          FROM events)
        SELECT user_id, CAST(COUNT(pv) AS BIGINT) AS n,
               CAST(ROUND(corr(value, pv) * 10000) AS BIGINT) AS acf2_10k
        FROM l WHERE pv IS NOT NULL
        GROUP BY user_id
        HAVING COUNT(pv) >= 2 AND corr(value, pv) IS NOT NULL
        ORDER BY user_id
    """,
    "embedding_cov_entries": """
        WITH d AS (SELECT CAST(range AS BIGINT) + 1 AS i FROM range(64))
        SELECT a.i - 1 AS i, b.i - 1 AS j,
               CAST(ROUND(covar_samp(CAST(e.embedding[a.i] AS DOUBLE),
                                     CAST(e.embedding[b.i] AS DOUBLE))
                          * 1000000) AS BIGINT) AS cov1e6
        FROM embeddings e CROSS JOIN d a CROSS JOIN d b
        WHERE a.i <= b.i
        GROUP BY a.i, b.i ORDER BY i, j
    """,
    "moments_by_type_events": """
        SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(ROUND(stddev_samp(value) * 1000000) AS BIGINT)
                   AS sd_1e6,
               CAST(ROUND(skewness(value) * 1000000) AS BIGINT)
                   AS skew_1e6,
               CAST(ROUND(kurtosis(value) * 1000000) AS BIGINT)
                   AS kurt_1e6
        FROM events GROUP BY event_type ORDER BY event_type
    """,
    "cusum_user_events": """
        WITH m AS (SELECT user_id, AVG(value) AS mu, COUNT(*) AS n
                   FROM events GROUP BY user_id),
        c AS (SELECT e.user_id, epoch_us(ts) AS ts_us, event_id, n,
                     SUM(value - mu) OVER (PARTITION BY e.user_id
                         ORDER BY ts, event_id
                         ROWS UNBOUNDED PRECEDING) AS cusum
              FROM events e JOIN m USING (user_id)),
        r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id
                  ORDER BY CAST(ROUND(abs(cusum) * 10000) AS BIGINT) DESC,
                           ts_us, event_id) AS rn
              FROM c)
        SELECT user_id, ts_us, event_id,
               CAST(ROUND(cusum * 10000) AS BIGINT) AS cusum_10k,
               CAST(n AS BIGINT) AS n
        FROM r WHERE rn = 1 ORDER BY user_id
    """,
    "paginate_orders": """
        SELECT o_orderkey,
               CAST(ROUND(o_totalprice * 100) AS BIGINT) AS price_c
        FROM orders
        ORDER BY o_totalprice DESC, o_orderkey
        LIMIT 20 OFFSET 100
    """,
    # normalization-aware dedup: perturb deterministically, normalize
    # (NFC + lower + \s+ collapse + trim), keep min id per key
    "dedup_normalized_docs": """
        WITH p AS (
            SELECT doc_id,
                   CASE WHEN doc_id % 3 = 0 THEN upper(text)
                        WHEN doc_id % 5 = 0 THEN replace(text, ' ', '  ')
                        ELSE text END AS t
            FROM documents),
        n AS (SELECT doc_id,
                     trim(regexp_replace(lower(nfc_normalize(t)),
                                         '\\s+', ' ', 'g')) AS tn
              FROM p)
        SELECT md5(tn) AS text_md5,
               CAST(MIN(doc_id) AS BIGINT) AS keep_id
        FROM n GROUP BY 1 ORDER BY keep_id
    """,
    # pairwise distinct-3-gram overlap between sources; engine gram
    # identity is a 64-bit hash (collision-free here), SQL uses strings
    "source_overlap_docs": """
        WITH w AS (SELECT source, string_split(text, ' ') AS w
                   FROM documents),
        g AS (SELECT source,
                     UNNEST(list_transform(range(1, len(w) - 1),
                         i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))
                         AS gram
              FROM w),
        d AS (SELECT DISTINCT source, gram FROM g),
        s AS (SELECT source, COUNT(*) AS n FROM d GROUP BY 1),
        p AS (SELECT a.source AS sa, b.source AS sb, COUNT(*) AS shared
              FROM d a JOIN d b USING (gram)
              WHERE a.source < b.source GROUP BY 1, 2)
        SELECT p.sa AS source_a, p.sb AS source_b,
               CAST(shared AS BIGINT) AS shared_grams,
               CAST(x.n + y.n - shared AS BIGINT) AS union_grams,
               CAST(ROUND(shared / (1.0 * (x.n + y.n - shared))
                          * 1000000) AS BIGINT) AS jaccard_e6
        FROM p JOIN s x ON x.source = p.sa
               JOIN s y ON y.source = p.sb
        ORDER BY source_a, source_b
    """,
    # per-user daily LOCF: grid from first observation day to global max,
    # daily cent totals, gaps = LAST_VALUE IGNORE NULLS
    "locf_daily_value": """
        WITH obs AS (
            SELECT user_id, epoch_us(ts) // 86400000000 AS day,
                   SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS c
            FROM events GROUP BY 1, 2),
        b AS (SELECT user_id, MIN(day) AS d0 FROM obs GROUP BY 1),
        m AS (SELECT MAX(day) AS dmax FROM obs),
        grid AS (SELECT user_id,
                        UNNEST(generate_series(d0, (SELECT dmax FROM m)))
                            AS day
                 FROM b),
        j AS (SELECT g.user_id, g.day, o.c
              FROM grid g LEFT JOIN obs o
                ON o.user_id = g.user_id AND o.day = g.day)
        SELECT user_id, CAST(day AS BIGINT) AS day,
               CAST(LAST_VALUE(c IGNORE NULLS) OVER (
                    PARTITION BY user_id ORDER BY day
                    ROWS UNBOUNDED PRECEDING) AS BIGINT) AS filled_c
        FROM j ORDER BY user_id, day
    """,
    # area-normalized density: the SQL twin evaluates the identical
    # spherical-rectangle area expression (R = authalic 6371.007180918475)
    "latlon_density_events": """
        WITH b AS (
            SELECT (event_id * 7919) % 36000 // 400 AS gx,
                   (event_id * 104729) % 18000 // 400 AS gy,
                   COUNT(*) AS n
            FROM events GROUP BY 1, 2)
        SELECT CAST(gx AS BIGINT) AS gx, CAST(gy AS BIGINT) AS gy,
               CAST(n AS BIGINT) AS n,
               CAST(ROUND(n / (6371.007180918475 * 6371.007180918475
                    * (4.0 * pi() / 180.0)
                    * (sin(radians(gy * 4.0 - 90.0 + 4.0))
                       - sin(radians(gy * 4.0 - 90.0)))) * 1e12)
                    AS BIGINT) AS dens_pe12
        FROM b ORDER BY gx, gy
    """,
    # res-2 spherical cell-area summary: pinned golden VALUES (the laws —
    # whole-earth closure, 12 identical pentagons, hex mean vs the
    # closed form 4*pi*R^2/(10*7^r) — are property-tested in pytest;
    # means verified >0.1 from the integer rounding boundary, so the
    # pinned ints are parallelism- and summation-order-safe)
    "cell_area_classes": """
        SELECT * FROM (VALUES
            ('hexagon',  CAST(480 AS BIGINT), CAST(1041935 AS BIGINT),
             CAST(1028954 AS BIGINT), CAST(1048331 AS BIGINT)),
            ('pentagon', CAST(12 AS BIGINT),  CAST(867656 AS BIGINT),
             CAST(867656 AS BIGINT), CAST(867656 AS BIGINT)))
            AS t(cls, n_cells, mean_km2, min_km2, max_km2)
        ORDER BY cls
    """,
    # add-one bigram LM self-scoring: V = corpus vocabulary, prefix
    # count folds from the bigram table, per-gram e6-rounded nats summed
    # as integers per doc
    "lm_perplexity_docs": """
        WITH w AS (SELECT doc_id, string_split(text, ' ') AS w
                   FROM documents),
        g AS (SELECT doc_id,
                     UNNEST(list_transform(range(1, len(w)),
                         i -> w[i] || ' ' || w[i+1])) AS gram
              FROM w),
        v AS (SELECT COUNT(DISTINCT tok) AS vv
              FROM (SELECT UNNEST(w) AS tok FROM w)),
        cb AS (SELECT gram, COUNT(*) AS c FROM g GROUP BY gram),
        cp AS (SELECT string_split(gram, ' ')[1] AS w1, SUM(c) AS p
               FROM cb GROUP BY 1),
        nll AS (SELECT gram,
                       CAST(ROUND(ln((p + vv) / (1.0 * (c + 1)))
                                  * 1000000) AS BIGINT) AS nll_e6
                FROM cb JOIN cp ON string_split(cb.gram, ' ')[1] = cp.w1,
                     v)
        SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_bigrams,
               CAST(SUM(nll_e6) AS BIGINT) AS nll_sum_e6
        FROM g JOIN nll USING (gram)
        GROUP BY doc_id ORDER BY doc_id
    """,
    # TPC-H Q9 shape: profit by supplier nation x order year; unit cost
    # is p_retailprice (no partsupp in the testdata)
    "q9_profit_by_nation": """
        SELECT CAST(s_nationkey AS BIGINT) AS nation,
               CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
               CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount)
                                   * 100 + 0.5) AS BIGINT)
                        - CAST(FLOOR(p_retailprice * 100 + 0.5) AS BIGINT)
                          * CAST(l_quantity AS BIGINT)) AS BIGINT)
                   AS profit_c
        FROM lineitem
        JOIN part ON p_partkey = l_partkey
        JOIN supplier ON s_suppkey = l_suppkey
        JOIN orders ON o_orderkey = l_orderkey
        WHERE p_name LIKE '%gear%'
        GROUP BY 1, 2 ORDER BY 1, 2
    """,
    # TPC-H Q2 shape: per-part min unit cost among region-2 suppliers,
    # tie-break on suppkey (the correlated MIN subquery)
    "q2_min_cost_supplier": """
        WITH c AS (
            SELECT l_partkey, l_suppkey,
                   MIN(CAST(FLOOR(l_extendedprice / l_quantity * 100 + 0.5)
                            AS BIGINT)) AS cost_c
            FROM lineitem
            JOIN part ON p_partkey = l_partkey
            JOIN supplier ON s_suppkey = l_suppkey
            JOIN nation ON n_nationkey = s_nationkey
            WHERE p_type = 'LARGE' AND p_size >= 25 AND n_regionkey = 2
            GROUP BY 1, 2),
        r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY l_partkey
                            ORDER BY cost_c, l_suppkey) AS rn
              FROM c)
        SELECT CAST(l_partkey AS BIGINT) AS p_partkey,
               CAST(l_suppkey AS BIGINT) AS s_suppkey,
               s_name, cost_c
        FROM r JOIN supplier ON s_suppkey = l_suppkey
        WHERE rn = 1 ORDER BY p_partkey
    """,
    # TPC-H Q20 shape: (supplier, red part) pairs shipping >15% of the
    # part's total quantity, counted per supplier
    "q20_top_shippers": """
        WITH q AS (
            SELECT l_suppkey, l_partkey,
                   SUM(CAST(l_quantity AS BIGINT)) AS qty
            FROM lineitem JOIN part ON p_partkey = l_partkey
            WHERE p_name LIKE 'red%'
            GROUP BY 1, 2),
        t AS (SELECT l_partkey, SUM(qty) AS tot FROM q GROUP BY 1)
        SELECT CAST(q.l_suppkey AS BIGINT) AS s_suppkey,
               s_name, CAST(COUNT(*) AS BIGINT) AS n_parts
        FROM q JOIN t USING (l_partkey)
        JOIN supplier ON s_suppkey = q.l_suppkey
        WHERE 100 * qty > 15 * tot
        GROUP BY 1, 2 ORDER BY 1
    """,
    # TPC-H Q21 shape: region-2 suppliers solely late (ship > order
    # date + 60d) on finished multi-supplier orders
    "q21_late_suppliers": """
        WITH f AS (
            SELECT l_orderkey, l_suppkey,
                   MAX(CASE WHEN l_shipdate > o_orderdate
                                 + INTERVAL 60 DAY
                            THEN 1 ELSE 0 END) AS late
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            WHERE o_orderstatus = 'F'
            GROUP BY 1, 2),
        o AS (SELECT l_orderkey, COUNT(*) AS ns, SUM(late) AS nl
              FROM f GROUP BY 1)
        SELECT CAST(f.l_suppkey AS BIGINT) AS s_suppkey,
               s_name, CAST(COUNT(*) AS BIGINT) AS numwait
        FROM f
        JOIN o USING (l_orderkey)
        JOIN supplier ON s_suppkey = f.l_suppkey
        JOIN nation ON n_nationkey = s_nationkey
        WHERE f.late = 1 AND o.ns > 1 AND o.nl = 1 AND n_regionkey = 2
        GROUP BY 1, 2 ORDER BY 1
    """,
    "ppjoin_pairs_docs": """
        WITH tok AS (
          SELECT DISTINCT doc_id, u.tok
          FROM documents, UNNEST(string_split(text, ' ')) AS u(tok)
          WHERE u.tok <> ''),
        sz AS (SELECT doc_id, COUNT(*) AS n FROM tok GROUP BY doc_id),
        sh AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                      COUNT(*) AS c
               FROM tok a JOIN tok b
                 ON a.tok = b.tok AND a.doc_id < b.doc_id
               GROUP BY 1, 2)
        SELECT sh.id_a, sh.id_b, CAST(c AS BIGINT) AS n_shared,
               CAST(sa.n + sb.n - c AS BIGINT) AS n_union
        FROM sh
        JOIN sz sa ON sa.doc_id = sh.id_a
        JOIN sz sb ON sb.doc_id = sh.id_b
        WHERE 1000000 * c >= 900000 * (sa.n + sb.n - c)
        ORDER BY id_a, id_b
    """,
    # bounded recursive-CTE walk enumeration: fan-out 2, hop < 8, MIN(hop)
    # per node == the engine's visited-pruned BFS hop
    "bfs_hops_users": """
        WITH RECURSIVE
        u AS (SELECT DISTINCT user_id AS uid FROM events),
        m AS (SELECT MAX(uid) + 1 AS mm, MIN(uid) AS s FROM u),
        e AS (SELECT uid AS src, (2 * uid + 7) % mm AS dst FROM u, m
              UNION ALL
              SELECT uid, (3 * uid + 11) % mm FROM u, m),
        w(node, hop) AS (
          SELECT s, 0 FROM m
          UNION ALL
          SELECT e.dst, w.hop + 1
          FROM w JOIN e ON e.src = w.node WHERE w.hop < 8)
        SELECT node, CAST(MIN(hop) AS BIGINT) AS hop
        FROM w GROUP BY node ORDER BY node
    """,
    "histogram_value_events": """
        WITH c AS (SELECT CAST(ROUND(value * 100) AS BIGINT) AS cents
                   FROM events WHERE value IS NOT NULL)
        SELECT CASE WHEN cents < 0 THEN 0
                    WHEN cents >= 50000 THEN 41
                    ELSE (cents * 40) // 50000 + 1 END AS bucket,
               CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(cents) AS BIGINT) AS sum_cents
        FROM c GROUP BY bucket ORDER BY bucket
    """,
    "dq_audit_events": """
        SELECT "check", n_bad FROM (
          SELECT '_rows' AS "check", CAST(COUNT(*) AS BIGINT) AS n_bad
          FROM events
          UNION ALL
          SELECT 'null_value', CAST(COUNT(*) FILTER (value IS NULL)
                                    AS BIGINT) FROM events
          UNION ALL
          SELECT 'value_out_of_range',
                 CAST(COUNT(*) FILTER (value < 0 OR value > 100)
                      AS BIGINT) FROM events
          UNION ALL
          SELECT 'user_id_negative',
                 CAST(COUNT(*) FILTER (user_id < 0) AS BIGINT) FROM events
          UNION ALL
          SELECT 'type_not_allowed',
                 CAST(COUNT(*) FILTER (event_type NOT IN
                      ('click', 'view', 'signup')) AS BIGINT) FROM events
          UNION ALL
          SELECT 'stale_ts',
                 CAST(COUNT(*) FILTER (ts < TIMESTAMP '2024-01-10')
                      AS BIGINT) FROM events
          UNION ALL
          SELECT 'dup_event_id',
                 CAST(COUNT(*) - COUNT(DISTINCT event_id) AS BIGINT)
          FROM events)
        ORDER BY "check"
    """,
    # bounded recursive-CTE weighted-path enumeration: fan-out 2, <= 6
    # edges, MIN(total weight) per node == the engine's Bellman-Ford
    # fixpoint over the same hop budget
    "sssp_users": """
        WITH RECURSIVE
        u AS (SELECT DISTINCT user_id AS uid FROM events),
        m AS (SELECT MAX(uid) + 1 AS mm, MIN(uid) AS s FROM u),
        e AS (SELECT uid AS src, (2 * uid + 7) % mm AS dst,
                     uid % 7 + 1 AS w FROM u, m
              UNION ALL
              SELECT uid, (3 * uid + 11) % mm, uid % 5 + 3 FROM u, m),
        p(node, d, hop) AS (
          SELECT s, 0, 0 FROM m
          UNION ALL
          SELECT e.dst, p.d + e.w, p.hop + 1
          FROM p JOIN e ON e.src = p.node WHERE p.hop < 6)
        SELECT node, CAST(MIN(d) AS BIGINT) AS dist
        FROM p GROUP BY node ORDER BY node
    """,
    "dup_window_docs": """
        WITH t2 AS (
          SELECT doc_id, string_split(text, ' ') AS ws,
                 len(string_split(text, ' ')) AS n
          FROM documents),
        win AS (
          SELECT doc_id, array_to_string(ws[i:i+7], ' ') AS w
          FROM t2, UNNEST(generate_series(1, n - 7)) AS g(i)),
        cnt AS (SELECT w, COUNT(*) AS c FROM win GROUP BY w)
        SELECT win.doc_id, CAST(COUNT(*) AS BIGINT) AS n_windows,
               CAST(COUNT(*) FILTER (cnt.c > 1) AS BIGINT)
                 AS n_dup_windows
        FROM win JOIN cnt USING (w)
        GROUP BY 1 ORDER BY 1
    """,
    "split_assign_docs": """
        WITH s AS (
          SELECT lang, n_chars,
                 CASE WHEN md5_number_upper(CAST(doc_id AS VARCHAR))
                           % 100 < 80 THEN 'train'
                      WHEN md5_number_upper(CAST(doc_id AS VARCHAR))
                           % 100 < 90 THEN 'val'
                      ELSE 'test' END AS split
          FROM documents)
        SELECT lang, split, CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars
        FROM s GROUP BY 1, 2 ORDER BY 1, 2
    """,
    "iqr_outliers_events": """
        WITH f AS (
          SELECT event_type,
                 quantile_disc(value, 0.25) AS q1,
                 quantile_disc(value, 0.75) AS q3
          FROM events WHERE value IS NOT NULL GROUP BY event_type)
        SELECT e.event_type, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(COUNT(*) FILTER (
                    e.value < q1 - 1.5 * (q3 - q1)
                 OR e.value > q3 + 1.5 * (q3 - q1)) AS BIGINT)
                 AS n_outliers
        FROM events e JOIN f USING (event_type)
        WHERE e.value IS NOT NULL
        GROUP BY 1 ORDER BY 1
    """,
    "event_paths_by_user": """
        SELECT user_id,
               STRING_AGG(event_type, '>' ORDER BY event_id) AS path
        FROM events GROUP BY user_id ORDER BY user_id
    """,
    "mode_event_type_by_user": """
        WITH c AS (SELECT user_id, event_type,
                          CAST(COUNT(*) AS BIGINT) AS n
                   FROM events GROUP BY 1, 2)
        SELECT user_id, event_type AS mode_type, n FROM c
        QUALIFY ROW_NUMBER() OVER (
            PARTITION BY user_id ORDER BY n DESC, event_type) = 1
        ORDER BY user_id
    """,
    "table_fingerprint_orders": """
        SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
               bit_xor(md5_number_upper(
                   CAST(o_orderkey AS VARCHAR) || '|' ||
                   CAST(o_custkey AS VARCHAR) || '|' ||
                   o_orderstatus || '|' ||
                   CAST(CAST(ROUND(o_totalprice * 100) AS BIGINT)
                        AS VARCHAR))) AS fp
        FROM orders
    """,
    "full_outer_recon_users": """
        WITH e AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events
                   FROM events GROUP BY user_id),
             o AS (SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS n_orders
                   FROM orders GROUP BY o_custkey)
        SELECT COALESCE(e.user_id, o.o_custkey) AS key,
               COALESCE(n_events, 0) AS n_events,
               COALESCE(n_orders, 0) AS n_orders
        FROM e FULL OUTER JOIN o ON e.user_id = o.o_custkey
        ORDER BY key
    """,
    "weighted_median_price_by_status": """
        WITH d AS (SELECT l_linestatus,
                          CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS v,
                          SUM(CAST(l_quantity AS BIGINT)) AS wsum
                   FROM lineitem GROUP BY 1, 2),
             r AS (SELECT l_linestatus, v, wsum,
                          SUM(wsum) OVER (PARTITION BY l_linestatus
                                          ORDER BY v) AS cum,
                          SUM(wsum) OVER (PARTITION BY l_linestatus)
                              AS tot
                   FROM d)
        SELECT l_linestatus, CAST(v AS DOUBLE) AS wmedian_cents
        FROM r
        WHERE cum - wsum < CEIL(0.5 * tot) AND CEIL(0.5 * tot) <= cum
        ORDER BY l_linestatus
    """,
    "asof_clicks_purchases": """
        WITH p AS (SELECT event_id, user_id, ts FROM events
                   WHERE event_type = 'purchase'),
             c AS (SELECT user_id, ts, value FROM events
                   WHERE event_type = 'click')
        SELECT p.event_id, p.user_id, c.value AS click_value
        FROM p ASOF LEFT JOIN c
          ON p.user_id = c.user_id AND p.ts >= c.ts
        ORDER BY p.event_id
    """,
    "cdc_merge_orders": """
        WITH base AS (SELECT o_orderkey,
                             CAST(ROUND(o_totalprice * 100) AS BIGINT)
                                 AS cents
                      FROM orders),
        ch AS (
          SELECT o_orderkey, 1 AS seq, 'U' AS op, cents + 100 AS cents
          FROM base WHERE o_orderkey % 11 = 3
          UNION ALL SELECT o_orderkey, 2, 'U', cents + 200
          FROM base WHERE o_orderkey % 11 = 3
          UNION ALL SELECT o_orderkey, 1, 'D', 0
          FROM base WHERE o_orderkey % 11 = 7
          UNION ALL SELECT o_orderkey + 10000000, 1, 'I', cents + 1
          FROM base WHERE o_orderkey % 11 = 5),
        latest AS (SELECT * FROM ch QUALIFY ROW_NUMBER() OVER (
                       PARTITION BY o_orderkey ORDER BY seq DESC) = 1)
        SELECT o_orderkey, cents FROM base
        WHERE o_orderkey NOT IN (SELECT o_orderkey FROM ch)
        UNION ALL
        SELECT o_orderkey, cents FROM latest WHERE op <> 'D'
        ORDER BY o_orderkey
    """,
    "centroid_cosine_labels": """
        WITH u AS (SELECT label, UNNEST(embedding) AS e,
                          UNNEST(range(len(embedding))) AS dim
                   FROM embeddings),
        s AS (SELECT label, dim,
                     SUM(CAST(ROUND(CAST(e AS DOUBLE) * 1048576)
                              AS BIGINT)) AS s
              FROM u GROUP BY 1, 2),
        n AS (SELECT label, SUM(CAST(s AS HUGEINT) * s) AS sq
              FROM s GROUP BY 1),
        d AS (SELECT a.label AS label_a, b.label AS label_b,
                     SUM(CAST(a.s AS HUGEINT) * b.s) AS dot
              FROM s a JOIN s b ON a.dim = b.dim AND a.label < b.label
              GROUP BY 1, 2)
        SELECT label_a, label_b,
               CAST(ROUND(1e6 * CAST(dot AS DOUBLE) /
                    SQRT(CAST(na.sq AS DOUBLE) * CAST(nb.sq AS DOUBLE)))
                    AS BIGINT) AS cos_e6
        FROM d JOIN n na ON na.label = d.label_a
               JOIN n nb ON nb.label = d.label_b
        ORDER BY label_a, label_b
    """,
    "dup_cluster_sizes_docs": """
        WITH c AS (SELECT CAST(COUNT(*) AS BIGINT) AS cluster_size
                   FROM documents
                   GROUP BY array_to_string(
                       list_slice(string_split(text, ' '), 1, 3), ' '))
        SELECT cluster_size, CAST(COUNT(*) AS BIGINT) AS n_clusters
        FROM c GROUP BY 1 ORDER BY 1
    """,
    "checkpoint_roundtrip_events": """
        SELECT event_type,
               CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT)
                   AS sum_cents
        FROM events GROUP BY event_type ORDER BY event_type
    """,
}


def gini_value_by_type(sf_dir: str):
    """Per-event-type Gini concentration of value (stages/relational
    .group_gini, the distinct-value rank-sum fold — tie-safe, no per-group
    Python) over exact integer cents; output is the integer-exact
    (numerator, denominator) pair so the oracle compares without float
    drift."""
    from ..stages.relational import group_gini

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "cents": pa.array(_cents_half_up(
                t["value"].to_numpy(zero_copy_only=False), 100))})

    out = group_gini(ds.map_batches(cents, batch_format="pyarrow"),
                     "event_type", "cents")
    return out.sort("event_type")


def streaks_per_user(sf_dir: str):
    """Longest consecutive-active-day streak per user
    (stages/temporal.longest_streak: distinct user-days -> row-number
    carry chain -> islands via day - rn -> grouped max)."""
    from ..stages.temporal import longest_streak

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return longest_streak(ds, "user_id", "ts").sort("user_id")


def event_pairs_10min(sf_dir: str):
    """Same-user ordered event-type co-occurrence within 10 minutes
    (stages/temporal.event_cooccurrence: ONE bucketed large-large range
    join on a composite user-time key — no self hash-join fan-out)."""
    from ..stages.temporal import event_cooccurrence

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    out = event_cooccurrence(ds, "user_id", "ts", "event_type",
                             window_s=600)
    return out.sort(["type_a", "type_b"])


def bpe_pairs_top10(sf_dir: str):
    """Top-10 adjacent token pairs over the documents corpus — the BPE
    merge-step statistic (stages/text.adjacent_pair_counts: vectorized
    boundary-masked pair extraction + sort-based reduce over the
    unbounded pair vocabulary)."""
    from ..stages.text import adjacent_pair_counts

    ds = _read(sf_dir, "documents", ["text"])
    out = adjacent_pair_counts(ds)
    return out.sort(["n", "tok_l", "tok_r"],
                    descending=[True, False, False]).limit(10)


QUERIES.update({
    "gini_value_by_type": gini_value_by_type,
    "streaks_per_user": streaks_per_user,
    "event_pairs_10min": event_pairs_10min,
    "bpe_pairs_top10": bpe_pairs_top10,
})

ORACLES.update({
    "gini_value_by_type": """
        WITH v AS (SELECT event_type,
                          CAST(ROUND(value * 100) AS BIGINT) AS c
                   FROM events),
        r AS (SELECT event_type, c,
                     ROW_NUMBER() OVER (PARTITION BY event_type
                                        ORDER BY c) AS rn
              FROM v)
        SELECT event_type,
               CAST(2 * SUM(rn * c) - (COUNT(*) + 1) * SUM(c) AS BIGINT)
                   AS gini_num,
               CAST(COUNT(*) * SUM(c) AS BIGINT) AS gini_den
        FROM r GROUP BY event_type ORDER BY event_type
    """,
    "streaks_per_user": """
        WITH d AS (SELECT DISTINCT user_id,
                          CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
                   FROM events),
        r AS (SELECT user_id, day,
                     ROW_NUMBER() OVER (PARTITION BY user_id
                                        ORDER BY day) AS rn
              FROM d),
        l AS (SELECT user_id, day - rn AS island, COUNT(*) AS len
              FROM r GROUP BY 1, 2)
        SELECT user_id, CAST(MAX(len) AS BIGINT) AS max_streak
        FROM l GROUP BY user_id ORDER BY user_id
    """,
    "event_pairs_10min": """
        WITH e AS (SELECT user_id,
                          CAST(epoch_us(ts) // 1000000 AS BIGINT) AS s,
                          event_type
                   FROM events)
        SELECT a.event_type AS type_a, b.event_type AS type_b,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM e a JOIN e b
          ON a.user_id = b.user_id
         AND b.s > a.s AND b.s <= a.s + 600
        GROUP BY 1, 2 ORDER BY 1, 2
    """,
    "bpe_pairs_top10": """
        WITH arrs AS (SELECT string_split(text, ' ') AS arr FROM documents),
        z AS (SELECT UNNEST(list_zip(arr[1:len(arr) - 1],
                                     arr[2:len(arr)])) AS p
              FROM arrs WHERE len(arr) >= 2)
        SELECT p[1] AS tok_l, p[2] AS tok_r,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM z GROUP BY 1, 2
        ORDER BY n DESC, tok_l, tok_r LIMIT 10
    """,
})


def qnorm_value_by_type(sf_dir: str):
    """Cross-group quantile normalization of event values by type
    (stages/normalize.quantile_normalize): each event's normalized value
    is the mean of same-rank values across types, emitted as the
    integer-exact (rank_sum, rank_n) pair over cents."""
    from ..stages.normalize import quantile_normalize

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "c": pa.array(_cents_half_up(
                t["value"].to_numpy(zero_copy_only=False), 100))})

    out = quantile_normalize(ds.map_batches(cents, batch_format="pyarrow"),
                             "event_type", "c", "event_id")
    return out.map_batches(
        lambda t: t.select(["event_id", "event_type", "rank",
                            "rank_sum", "rank_n"]),
        batch_format="pyarrow").sort("event_id")


def benford_value_by_type(sf_dir: str):
    """Leading-digit (Benford) distribution of value cents per event type
    (stages/validate.benford_counts, vectorized halving-by-ten digit
    extraction)."""
    from ..stages.validate import benford_counts

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "c": pa.array(_cents_half_up(
                t["value"].to_numpy(zero_copy_only=False), 100))})

    out = benford_counts(ds.map_batches(cents, batch_format="pyarrow"),
                         "event_type", "c")
    return out.sort(["event_type", "digit"])


def fk_orphan_audit(sf_dir: str):
    """Referential-integrity audit over three FK relations
    (stages/validate.referential_audit: bloom anti-join orphan detection,
    answer-sized aggregates): events.user_id -> customer.c_custkey,
    lineitem.l_orderkey -> orders.o_orderkey, orders.o_custkey ->
    customer.c_custkey."""
    from ..stages.validate import referential_audit

    rows = [
        referential_audit(_read(sf_dir, "events", ["user_id"]), "user_id",
                          _read(sf_dir, "customer", ["c_custkey"]),
                          "c_custkey", "events.user_id->customer"),
        referential_audit(_read(sf_dir, "lineitem", ["l_orderkey"]),
                          "l_orderkey",
                          _read(sf_dir, "orders", ["o_orderkey"]),
                          "o_orderkey", "lineitem.l_orderkey->orders"),
        referential_audit(_read(sf_dir, "orders", ["o_custkey"]),
                          "o_custkey",
                          _read(sf_dir, "customer", ["c_custkey"]),
                          "c_custkey", "orders.o_custkey->customer"),
    ]
    out = pa.concat_tables(rows)
    return out.sort_by("relation")


def debounced_counts(sf_dir: str):
    """Surviving-event counts per type after a 60-second same-user
    minimum-gap (throttle) filter (stages/temporal.debounce_events,
    LAG semantics over (ts, event_id) order)."""
    from ..stages.temporal import debounce_events
    from ..stages.groupagg import grouped_count

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])
    kept = debounce_events(ds, "user_id", "ts", "event_id", 60)
    out = grouped_count(kept.select_columns(["event_type"]),
                        "event_type", out_col="n")
    return out.sort("event_type")


QUERIES.update({
    "qnorm_value_by_type": qnorm_value_by_type,
    "benford_value_by_type": benford_value_by_type,
    "fk_orphan_audit": fk_orphan_audit,
    "debounced_counts": debounced_counts,
})

ORACLES.update({
    "qnorm_value_by_type": """
        WITH v AS (SELECT event_id, event_type,
                          CAST(ROUND(value * 100) AS BIGINT) AS c
                   FROM events),
        r AS (SELECT event_id, event_type, c,
                     ROW_NUMBER() OVER (PARTITION BY event_type
                                        ORDER BY c, event_id) AS rank
              FROM v),
        m AS (SELECT rank, CAST(SUM(c) AS BIGINT) AS rank_sum,
                     CAST(COUNT(*) AS BIGINT) AS rank_n
              FROM r GROUP BY rank)
        SELECT r.event_id, r.event_type, r.rank, m.rank_sum, m.rank_n
        FROM r JOIN m USING (rank) ORDER BY event_id
    """,
    "benford_value_by_type": """
        WITH v AS (SELECT event_type,
                          CAST(ROUND(value * 100) AS BIGINT) AS c
                   FROM events)
        SELECT event_type,
               CAST(substr(CAST(c AS VARCHAR), 1, 1) AS BIGINT) AS digit,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM v WHERE c > 0
        GROUP BY 1, 2 ORDER BY 1, 2
    """,
    "fk_orphan_audit": """
        WITH a AS (SELECT 'events.user_id->customer' AS relation,
                          COUNT(*) AS n_rows,
                          SUM(CASE WHEN c_custkey IS NULL THEN 1 ELSE 0 END)
                              AS n_orphans,
                          COUNT(DISTINCT CASE WHEN c_custkey IS NULL
                                              THEN user_id END)
                              AS n_orphan_keys
                   FROM events LEFT JOIN customer
                     ON user_id = c_custkey),
        b AS (SELECT 'lineitem.l_orderkey->orders', COUNT(*),
                     SUM(CASE WHEN o_orderkey IS NULL THEN 1 ELSE 0 END),
                     COUNT(DISTINCT CASE WHEN o_orderkey IS NULL
                                         THEN l_orderkey END)
              FROM lineitem LEFT JOIN orders ON l_orderkey = o_orderkey),
        c AS (SELECT 'orders.o_custkey->customer', COUNT(*),
                     SUM(CASE WHEN c_custkey IS NULL THEN 1 ELSE 0 END),
                     COUNT(DISTINCT CASE WHEN c_custkey IS NULL
                                         THEN o_custkey END)
              FROM orders LEFT JOIN customer ON o_custkey = c_custkey)
        SELECT relation, CAST(n_rows AS BIGINT) AS n_rows,
               CAST(n_orphans AS BIGINT) AS n_orphans,
               CAST(n_orphan_keys AS BIGINT) AS n_orphan_keys
        FROM (SELECT * FROM a UNION ALL SELECT * FROM b
              UNION ALL SELECT * FROM c)
        ORDER BY relation
    """,
    "debounced_counts": """
        WITH l AS (SELECT event_type, ts,
                          LAG(ts) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS prev
                   FROM events)
        SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n
        FROM l
        WHERE prev IS NULL
           OR epoch_us(ts) - epoch_us(prev) > 60 * 1000000
        GROUP BY event_type ORDER BY event_type
    """,
})


def linear_fit_value_ts(sf_dir: str):
    """Per-type OLS sufficient statistics of value-cents vs
    seconds-since-2024-01-01 (stages/linalg.group_linear_fit): int64-exact
    (n, sum_x, sum_y, sum_xx, sum_xy) — REGR_SLOPE's algebraic inputs
    without float drift."""
    from ..stages.linalg import group_linear_fit

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    anchor = 1704067200  # epoch seconds of 2024-01-01

    def prep(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        return pa.table({
            "event_type": t["event_type"],
            "x": pa.array(us // 10**6 - anchor),
            "y": pa.array(_cents_half_up(
                t["value"].to_numpy(zero_copy_only=False), 100))})

    out = group_linear_fit(ds.map_batches(prep, batch_format="pyarrow"),
                           "event_type", "x", "y")
    return out.sort("event_type")


def spearman_value_ts(sf_dir: str):
    """Per-type Spearman sufficient statistics between value-cents and
    event time (stages/linalg.group_spearman): (n, sum_d2) over
    deterministic ROW_NUMBER ranks tie-broken by event_id — integer-exact
    twin of the SQL window form."""
    from ..stages.linalg import group_spearman

    ds = _read(sf_dir, "events", ["event_id", "event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        return pa.table({
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "x": pa.array(_cents_half_up(
                t["value"].to_numpy(zero_copy_only=False), 100)),
            "y": pa.array(us)})

    out = group_spearman(ds.map_batches(prep, batch_format="pyarrow"),
                         "event_type", "x", "y", "event_id")
    return out.sort("event_type")


def chunk_docs_sliding(sf_dir: str):
    """Sliding-window chunking of every document, size=120 overlap=30
    (stages/text.chunk_documents) — codepoint-exact vs SQL substr."""
    from ..stages.text import chunk_documents

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = chunk_documents(ds, "text", "doc_id", size=120, overlap=30)
    return out.sort(["doc_id", "chunk_id"])


QUERIES.update({
    "linear_fit_value_ts": linear_fit_value_ts,
    "spearman_value_ts": spearman_value_ts,
    "chunk_docs_sliding": chunk_docs_sliding,
})

ORACLES.update({
    "linear_fit_value_ts": """
        WITH v AS (SELECT event_type,
                          CAST(epoch_us(ts) // 1000000 - 1704067200
                               AS BIGINT) AS x,
                          CAST(ROUND(value * 100) AS BIGINT) AS y
                   FROM events)
        SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(x) AS BIGINT) AS sum_x,
               CAST(SUM(y) AS BIGINT) AS sum_y,
               CAST(SUM(x * x) AS BIGINT) AS sum_xx,
               CAST(SUM(x * y) AS BIGINT) AS sum_xy
        FROM v GROUP BY event_type ORDER BY event_type
    """,
    "spearman_value_ts": """
        WITH v AS (SELECT event_id, event_type,
                          CAST(ROUND(value * 100) AS BIGINT) AS x,
                          epoch_us(ts) AS y
                   FROM events),
        r AS (SELECT event_type,
                     ROW_NUMBER() OVER (PARTITION BY event_type
                                        ORDER BY x, event_id) AS rx,
                     ROW_NUMBER() OVER (PARTITION BY event_type
                                        ORDER BY y, event_id) AS ry
              FROM v)
        SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM((rx - ry) * (rx - ry)) AS BIGINT) AS sum_d2
        FROM r GROUP BY event_type ORDER BY event_type
    """,
    "chunk_docs_sliding": """
        WITH d AS (SELECT doc_id, text, length(text) AS len
                   FROM documents),
        c AS (SELECT doc_id, text,
                     CASE WHEN len <= 120 THEN 1
                          ELSE CAST(ceil((len - 120) / 90.0) AS BIGINT) + 1
                     END AS nc
              FROM d),
        e AS (SELECT doc_id, text,
                     unnest(generate_series(0, nc - 1)) AS i
              FROM c)
        SELECT doc_id, CAST(i AS BIGINT) AS chunk_id,
               CAST(i * 90 AS BIGINT) AS start,
               substr(text, CAST(i * 90 + 1 AS BIGINT), 120) AS chunk_text
        FROM e ORDER BY doc_id, chunk_id
    """,
})


def profile_orders(sf_dir: str):
    """Column-profile report over every orders column
    (stages/validate.profile_table): one scan for count/null/typed
    min-max partials + one single-column distinct sort per column;
    min/max stringified only in the answer row (CAST(MIN(..) AS VARCHAR)
    parity incl. the DOUBLE and TIMESTAMP columns)."""
    from ..stages.validate import profile_table

    ds = _read(sf_dir, "orders")
    out = profile_table(ds, ["o_orderkey", "o_custkey", "o_orderstatus",
                             "o_totalprice", "o_orderdate",
                             "o_orderpriority"])
    return out.sort_by("column")


QUERIES.update({"profile_orders": profile_orders})

ORACLES.update({
    "profile_orders": " UNION ALL ".join(
        f"""SELECT '{c}' AS "column", CAST(COUNT(*) AS BIGINT) AS n_rows,
            CAST(SUM(CASE WHEN {c} IS NULL THEN 1 ELSE 0 END) AS BIGINT)
                AS n_null,
            CAST(COUNT(DISTINCT {c}) AS BIGINT) AS n_distinct,
            CAST(MIN({c}) AS VARCHAR) AS min_str,
            CAST(MAX({c}) AS VARCHAR) AS max_str FROM orders"""
        for c in ["o_orderkey", "o_custkey", "o_orderstatus",
                  "o_totalprice", "o_orderdate", "o_orderpriority"]
    ) + ' ORDER BY "column"',
})


def rolling_median_7d(sf_dir: str):
    """Per (user, active day) EXACT rolling 7-day median of value cents
    (stages/temporal.rolling_median_daily: bounded window expansion +
    exact_group_quantile_sorted on the packed key — holistic rolling
    aggregate at unbounded (user x day) cardinality)."""
    from ..stages.temporal import rolling_median_daily

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"], "ts": t["ts"],
            "c": pa.array(_cents_half_up(
                t["value"].to_numpy(zero_copy_only=False), 100))})

    out = rolling_median_daily(ds.map_batches(cents, batch_format="pyarrow"),
                               "user_id", "ts", "c", window_days=7,
                               out_col="_m")

    def shape(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "day": t["_day"],
            "med7": pc.cast(pc.round(t["_m"]), pa.int64())})

    return out.map_batches(shape, batch_format="pyarrow") \
              .sort(["user_id", "day"])


def union_activity(sf_dir: str):
    """Schema-evolution UNION ALL BY NAME of events and orders activity
    (stages/relational.union_by_name): orders lack user_id — surfaced as
    typed nulls, column order first-seen."""
    from ..stages.relational import union_by_name

    ev = _read(sf_dir, "events", ["event_id", "ts", "value", "user_id"])
    od = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate",
                                  "o_totalprice"])

    def e_shape(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": pa.array(np.full(t.num_rows, "e")),
            "id": t["event_id"], "ts": t["ts"],
            "amount_c": pa.array(_cents_half_up(
                t["value"].to_numpy(zero_copy_only=False), 100)),
            "user_id": t["user_id"]})

    def o_shape(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": pa.array(np.full(t.num_rows, "o")),
            "id": t["o_orderkey"], "ts": t["o_orderdate"],
            "amount_c": pa.array(_cents_half_up(
                t["o_totalprice"].to_numpy(zero_copy_only=False), 100))})

    u = union_by_name([ev.map_batches(e_shape, batch_format="pyarrow"),
                       od.map_batches(o_shape, batch_format="pyarrow")])
    return u.sort(["src", "id"])


QUERIES.update({
    "rolling_median_7d": rolling_median_7d,
    "union_activity": union_activity,
})

ORACLES.update({
    "rolling_median_7d": """
        WITH v AS (SELECT user_id,
                          CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                              AS day,
                          CAST(ROUND(value * 100) AS BIGINT) AS c
                   FROM events),
        d AS (SELECT DISTINCT user_id, day FROM v)
        SELECT d.user_id, d.day,
               CAST(quantile_disc(v.c, 0.5) AS BIGINT) AS med7
        FROM d JOIN v ON v.user_id = d.user_id
                     AND v.day BETWEEN d.day - 6 AND d.day
        GROUP BY 1, 2 ORDER BY 1, 2
    """,
    "union_activity": """
        SELECT 'e' AS src, event_id AS id, ts,
               CAST(ROUND(value * 100) AS BIGINT) AS amount_c, user_id
        FROM events
        UNION ALL BY NAME
        SELECT 'o' AS src, o_orderkey AS id, o_orderdate AS ts,
               CAST(ROUND(o_totalprice * 100) AS BIGINT) AS amount_c
        FROM orders
        ORDER BY src, id
    """,
})


def new_users_daily(sf_dir: str):
    """Daily NEW-user counts (first-touch cohort sizes): min epoch-day
    per user via one sort-based grouped_reduce, then an answer-sized
    per-day count — the growth-curve twin of cohort_retention_events."""
    from ..stages.groupagg import grouped_count, grouped_reduce

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def day(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        return pa.table({"user_id": t["user_id"],
                         "_d": pa.array(ts // 86_400_000_000)})

    first = grouped_reduce(ds.map_batches(day, batch_format="pyarrow"),
                           "user_id", {"_d": "day"}, how="min")
    out = grouped_count(first.select_columns(["day"]), "day",
                        out_col="new_users")
    return out.sort("day")


QUERIES.update({"new_users_daily": new_users_daily})

ORACLES.update({
    "new_users_daily": """
        WITH f AS (SELECT user_id,
                          MIN(CAST(epoch_us(ts) // 86400000000 AS BIGINT))
                              AS day
                   FROM events GROUP BY user_id)
        SELECT day, CAST(COUNT(*) AS BIGINT) AS new_users
        FROM f GROUP BY day ORDER BY day
    """,
})


def rolling_hour_sum_events(sf_dir: str):
    """Per-event trailing 1-hour same-user value sum — the SQL RANGE
    window frame at event granularity (stages/temporal.rolling_range_sum:
    composite-key bucketed range join, no per-user window state)."""
    from ..stages.temporal import rolling_range_sum

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"], "user_id": t["user_id"],
            "ts": t["ts"],
            "c": pa.array(_cents_half_up(
                t["value"].to_numpy(zero_copy_only=False), 100))})

    out = rolling_range_sum(ds.map_batches(cents, batch_format="pyarrow"),
                            "user_id", "ts", "c", "event_id", 3600,
                            out_col="sum_1h")
    return out.sort("event_id")


QUERIES.update({"rolling_hour_sum_events": rolling_hour_sum_events})

ORACLES.update({
    "rolling_hour_sum_events": """
        WITH v AS (SELECT event_id, user_id,
                          CAST(epoch_us(ts) // 1000000 AS BIGINT) AS s,
                          CAST(ROUND(value * 100) AS BIGINT) AS c
                   FROM events)
        SELECT event_id,
               CAST(SUM(c) OVER (PARTITION BY user_id ORDER BY s
                    RANGE BETWEEN 3600 PRECEDING AND CURRENT ROW)
                    AS BIGINT) AS sum_1h
        FROM v ORDER BY event_id
    """,
})


def cms_user_counts(sf_dir: str):
    """Count-Min sketch per-user event frequencies
    (stages/sampling.cms_partials: linear sketch, elementwise-SUM merge,
    depth x width counters per batch — deterministic at any parallelism).
    Oracle regime: width 8192 >> distinct users, so every estimate has a
    collision-free row and equals the exact count (the CMS guarantee is
    one-sided: never an undercount)."""
    from ..stages.sampling import cms_counts

    ds = _read(sf_dir, "events", ["user_id"])
    return cms_counts(ds, "user_id").to_pandas() \
        .sort_values("user_id", ignore_index=True)


QUERIES.update({"cms_user_counts": cms_user_counts})

ORACLES.update({
    "cms_user_counts": """
        SELECT user_id, CAST(COUNT(*) AS BIGINT) AS est_cnt
        FROM events GROUP BY user_id ORDER BY user_id
    """,
})


def snm_pairs_docs(sf_dir: str):
    """Sorted-neighborhood blocking candidates (stages/dedup.snm_pairs,
    Hernandez-Stolfo SNM): docs sorted by (n_chars, doc_id), every pair
    within a 6-row window of the GLOBAL order — one sort, per-bucket
    vectorized pair expansion, exactly-once emission from the left row's
    native bucket."""
    from ..stages.dedup import snm_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    out = snm_pairs(ds, ["n_chars"], "doc_id", window=6,
                    bucket_rows=512).to_pandas()
    return out.sort_values(["id_a", "id_b"], ignore_index=True)


QUERIES.update({"snm_pairs_docs": snm_pairs_docs})

ORACLES.update({
    "snm_pairs_docs": """
        WITH r AS (SELECT doc_id, n_chars,
                          ROW_NUMBER() OVER (ORDER BY n_chars, doc_id) AS rn
                   FROM documents)
        SELECT a.doc_id AS id_a, b.doc_id AS id_b, a.n_chars AS n_chars_a
        FROM r a JOIN r b ON b.rn - a.rn BETWEEN 1 AND 5
        ORDER BY 1, 2
    """,
})


def extract_patterns_docs(sf_dir: str):
    """Per-document regex extraction stats (stages/text.
    extract_pattern_stats): non-overlapping match counts for two RE2
    patterns plus the first 'ta…' word — pure vectorized map (Arrow RE2
    kernels, the same engine as DuckDB's regexp functions)."""
    from ..stages.text import extract_pattern_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = extract_pattern_stats(
        ds, {"n_long": "[a-z]{5,}", "n_ta": "ta[a-z]+"},
        first_of="ta[a-z]+").to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


QUERIES.update({"extract_patterns_docs": extract_patterns_docs})

ORACLES.update({
    "extract_patterns_docs": """
        SELECT doc_id,
               CAST(length(regexp_extract_all(text, '[a-z]{5,}'))
                    AS BIGINT) AS n_long,
               CAST(length(regexp_extract_all(text, 'ta[a-z]+'))
                    AS BIGINT) AS n_ta,
               regexp_extract(text, 'ta[a-z]+') AS first_match
        FROM documents ORDER BY doc_id
    """,
})


def spacetime_cube_events(sf_dir: str):
    """Joint space-time cube (pipelines/binning.spacetime_bin): 1-degree
    grid x epoch-week binning in ONE pass with a within-batch (cell,
    period) combiner — the spatio-temporal twin of latlon_bin_events."""
    from .binning import spacetime_bin

    ds = _read(sf_dir, "events", ["event_id", "ts", "value"])

    def coords(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        return pa.table({
            "lon": pa.array(((eid * 7919) % 36000) / 100.0 - 180.0),
            "lat": pa.array(((eid * 104729) % 18000) / 100.0 - 90.0),
            "ts": t["ts"],
            "cents": pa.array(_cents_half_up(
                t["value"].to_numpy(zero_copy_only=False), 100))})

    out = spacetime_bin(ds.map_batches(coords, batch_format="pyarrow"),
                        "lon", "lat", "ts", "cents", deg=1.0,
                        period_s=604800)
    return out.sort(["cell", "period"])


QUERIES.update({"spacetime_cube_events": spacetime_cube_events})

ORACLES.update({
    "spacetime_cube_events": """
        WITH v AS (SELECT ((event_id * 104729) % 18000) // 100 * 360
                          + ((event_id * 7919) % 36000) // 100 AS cell,
                          CAST(epoch_us(ts) // 604800000000 AS BIGINT)
                              AS period,
                          CAST(ROUND(value * 100) AS BIGINT) AS c
                   FROM events)
        SELECT cell, period, CAST(COUNT(*) AS BIGINT) AS n_points,
               CAST(SUM(c) AS BIGINT) AS sum_value
        FROM v GROUP BY 1, 2 ORDER BY 1, 2
    """,
})


def quartile_buckets_by_type(sf_dir: str):
    """Equal-frequency discretization (stages/normalize.quantile_bucketize):
    per-event-type quartile cutoffs (exact histogram-refine quantiles,
    quantile_disc parity), one broadcast + one pure assignment map, then
    an answer-sized (type, bucket) count."""
    from ..stages.normalize import quantile_bucketize

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"],
                         "c": pa.array(_cents_half_up(
                             t["value"].to_numpy(zero_copy_only=False),
                             100))})

    out = quantile_bucketize(ds.map_batches(cents, batch_format="pyarrow"),
                             "event_type", "c")
    agg = out.groupby(["event_type", "bucket"]).aggregate(
        Count(alias_name="n"))
    return agg.sort(["event_type", "bucket"])


QUERIES.update({"quartile_buckets_by_type": quartile_buckets_by_type})

ORACLES.update({
    "quartile_buckets_by_type": """
        WITH v AS (SELECT event_type,
                          CAST(ROUND(value * 100) AS BIGINT) AS c
                   FROM events),
        q AS (SELECT event_type,
                     quantile_disc(c, 0.25) AS q1,
                     quantile_disc(c, 0.50) AS q2,
                     quantile_disc(c, 0.75) AS q3
              FROM v GROUP BY event_type)
        SELECT v.event_type,
               CAST(CASE WHEN c <= q1 THEN 0 WHEN c <= q2 THEN 1
                         WHEN c <= q3 THEN 2 ELSE 3 END AS BIGINT)
                   AS bucket,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM v JOIN q ON v.event_type = q.event_type
        GROUP BY 1, 2 ORDER BY 1, 2
    """,
})


def zonemap_prune_events(sf_dir: str):
    """Cluster-and-prune roundtrip (state/checkpoint.write_clustered +
    read_zonemap_pruned): events get a Morton locality key, stream into
    Z-order-clustered parquet files with per-file min/max zone maps, and
    a key-range query reads back ONLY the overlapping files (file-level
    skip before any task is scheduled) plus the exact residual filter —
    the sorted-write / pruned-scan pair that makes a 100-TB table
    range-queryable without a full scan.  The oracle recomputes the same
    range from the raw table, proving the sink/prune/source chain is
    lossless."""
    import hashlib
    import shutil

    from ..stages.sfc import morton_encode
    from ..state.checkpoint import read_zonemap_pruned, write_clustered

    out_dir = ("/tmp/zonemap_"
               + hashlib.md5(sf_dir.encode()).hexdigest()[:8])
    shutil.rmtree(out_dir, ignore_errors=True)

    ds = _read(sf_dir, "events", ["event_id", "value"])

    def keyed(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        gx = (eid * 7919) % 36000 // 400
        gy = (eid * 104729) % 18000 // 400
        return pa.table({
            "gx": pa.array(gx), "gy": pa.array(gy),
            "morton_key": pa.array(
                morton_encode(gx, gy).astype(np.int64)),
            "cents": pa.array(_cents_half_up(
                t["value"].to_numpy(zero_copy_only=False), 100))})

    write_clustered(ds.map_batches(keyed, batch_format="pyarrow"),
                    out_dir, "morton_key", ["morton_key"],
                    rows_per_file=2048)
    pruned, n_read, n_total = read_zonemap_pruned(out_dir, "morton_key",
                                                  1024, 4096)
    if pruned is None:
        return pd.DataFrame({"gx": pd.Series([], dtype=np.int64),
                             "gy": pd.Series([], dtype=np.int64),
                             "n": pd.Series([], dtype=np.int64),
                             "sum_cents": pd.Series([], dtype=np.int64)})
    agg = pruned.groupby(["gx", "gy"]).aggregate(
        Count(alias_name="n"), Sum("cents", alias_name="sum_cents"))
    return agg.sort(["gx", "gy"]).to_pandas().astype(
        {"gx": np.int64, "gy": np.int64, "sum_cents": np.int64})


QUERIES.update({"zonemap_prune_events": zonemap_prune_events})

ORACLES.update({
    "zonemap_prune_events": """
        WITH b AS (
            SELECT event_id,
                   (event_id * 7919) % 36000 // 400 AS gx,
                   (event_id * 104729) % 18000 // 400 AS gy,
                   CAST(ROUND(value * 100) AS BIGINT) AS cents
            FROM events),
        bits AS (SELECT CAST(range AS BIGINT) AS i FROM range(0, 16)),
        k AS (SELECT gx, gy, cents,
                     CAST(SUM((((gx >> i) & 1) << (2 * i))
                              + (((gy >> i) & 1) << (2 * i + 1)))
                          AS BIGINT) AS morton_key
              FROM b CROSS JOIN bits
              GROUP BY event_id, gx, gy, cents)
        SELECT CAST(gx AS BIGINT) AS gx, CAST(gy AS BIGINT) AS gy,
               CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(cents) AS BIGINT) AS sum_cents
        FROM k WHERE morton_key >= 1024 AND morton_key < 4096
        GROUP BY 1, 2 ORDER BY 1, 2
    """,
})


def hll_join_cardinality(sf_dir: str):
    """Join-cardinality planning from sketches (stages/sampling.
    hll_intersection_estimate): estimate |events.user_id ∩
    orders.o_custkey| by HLL inclusion-exclusion — two 2^p-byte register
    sketches + an elementwise-max union sketch; neither table moves.
    Estimates are deterministic (md5 key hashing) and pinned in the
    oracle; the exact overlap rides along via two answer-sized distinct
    scans (the SQL INTERSECT twin)."""
    from ..stages.sampling import hll_intersection_estimate

    ev = _read(sf_dir, "events", ["user_id"])
    od = _read(sf_dir, "orders", ["o_custkey"])
    est = hll_intersection_estimate(ev, "user_id", od, "o_custkey", p=12)

    def uniq(col):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({col: pa.array(np.unique(
                t[col].to_numpy(zero_copy_only=False)))})
        return f

    users = set(_read(sf_dir, "events", ["user_id"])
                .map_batches(uniq("user_id"), batch_format="pyarrow")
                .to_pandas()["user_id"].unique())
    custs = set(_read(sf_dir, "orders", ["o_custkey"])
                .map_batches(uniq("o_custkey"), batch_format="pyarrow")
                .to_pandas()["o_custkey"].unique())
    exact = len(users & custs)
    return pa.table({
        "est_users": pa.array([est["est_a"]], pa.int64()),
        "est_custkeys": pa.array([est["est_b"]], pa.int64()),
        "est_overlap": pa.array([est["est_intersection"]], pa.int64()),
        "exact_overlap": pa.array([exact], pa.int64())})


QUERIES.update({"hll_join_cardinality": hll_join_cardinality})

ORACLES.update({
    # estimates pinned (deterministic md5-keyed sketch at sf0.01);
    # exact overlap = the SQL INTERSECT
    "hll_join_cardinality": """
        SELECT CAST(151 AS BIGINT) AS est_users,
               CAST(1484 AS BIGINT) AS est_custkeys,
               CAST(151 AS BIGINT) AS est_overlap,
               CAST((SELECT COUNT(*) FROM
                     (SELECT DISTINCT user_id FROM events
                      INTERSECT
                      SELECT DISTINCT o_custkey FROM orders))
                    AS BIGINT) AS exact_overlap
    """,
})


def contingency_lang_source(sf_dir: str):
    """Chi-square independence-test inputs for documents lang x source
    (stages/validate.contingency_counts): observed counts + both
    marginals + grand total, all integer-exact against the SQL
    window-SUM twin."""
    from ..stages.validate import contingency_counts

    ds = _read(sf_dir, "documents", ["lang", "source"])
    return contingency_counts(ds, "lang", "source")


QUERIES.update({"contingency_lang_source": contingency_lang_source})

ORACLES.update({
    "contingency_lang_source": """
        WITH o AS (SELECT lang, source,
                          CAST(COUNT(*) AS BIGINT) AS observed
                   FROM documents GROUP BY 1, 2)
        SELECT lang, source, observed,
               CAST(SUM(observed) OVER (PARTITION BY lang) AS BIGINT)
                   AS row_total,
               CAST(SUM(observed) OVER (PARTITION BY source) AS BIGINT)
                   AS col_total,
               CAST(SUM(observed) OVER () AS BIGINT) AS n
        FROM o ORDER BY lang, source
    """,
})


def rrf_docs(sf_dir: str):
    """Reciprocal-rank fusion (stages/search.rrf_fuse): rank documents by
    n_chars (a 'lexical' score) and by a deterministic pseudo-relevance
    score, fuse with RRF (k=60), top-20.  Each ranking is ONE
    group_row_number carry chain (O(#blocks) driver state); the fused
    float sum reproduces the SQL 1.0/(60+r1) + 1.0/(60+r2) op order
    bit-for-bit."""
    from ..stages.search import rrf_fuse

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def score2(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy()
        return t.append_column("s2", pa.array((did * 7919) % 100000))

    ds = ds.map_batches(score2, batch_format="pyarrow")
    out = rrf_fuse(ds, "doc_id", ["n_chars", "s2"], rrf_k=60, top_n=20)
    return pa.table({
        "rank": out["rank"],
        "doc_id": out["doc_id"],
        "rank_chars": out["rank_n_chars"].cast(pa.int64()),
        "rank_s2": out["rank_s2"].cast(pa.int64()),
        "rrf": _iscale(out["rrf_score"].to_numpy(), 10**12)})


def hard_negatives_embs(sf_dir: str):
    """Contrastive hard-negative mining (stages/search.hard_negatives):
    for each of the 5 query vectors (vec_id 0..4) the 5 most
    cosine-similar corpus vectors with a DIFFERENT label.  Broadcast
    query matrix, per-batch masked matmul + partial top-k; the corpus
    never shuffles."""
    from ..stages.search import hard_negatives

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    qdf = ds.filter(expr="vec_id < 5").to_pandas()
    qdf = qdf.sort_values("vec_id", ignore_index=True)
    Q = np.stack([np.asarray(v, dtype=np.float64)
                  for v in qdf["embedding"]])
    out = hard_negatives(ds, Q, qdf["label"].to_numpy(), k=5)
    qid = qdf["vec_id"].to_numpy()[out["query_idx"].to_numpy()]
    return pa.table({
        "qid": pa.array(qid, pa.int64()),
        "vec_id": out["vec_id"].cast(pa.int64()),
        "cosine": _iscale(out["cosine"].to_numpy(), 1000000),
        "rank": out["rank"].cast(pa.int64())})


_SCD2_HIGH_US = 253402300799000000  # 9999-12-31T23:59:59 in epoch-us


def scd2_events(sf_dir: str):
    """SCD2 validity intervals from a change log: each (user, event)
    becomes a dimension version valid [ts, next-change ts), the open
    current version pinned to the conventional 9999-12-31 high date.
    LEAD at unbounded user cardinality = ONE group_shift carry chain
    over the reversed order; timestamps are rebased to the corpus min
    so the float64 carry lane stays integer-exact (< 2^53)."""
    from ..stages.window import group_shift

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])

    def to_us(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64())
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"],
                         "event_type": t["event_type"],
                         "_us": us})

    us = ds.map_batches(to_us, batch_format="pyarrow")
    base = int(us.min("_us"))

    def rebase(t: pa.Table) -> pa.Table:
        rel = t["_us"].to_numpy() - base
        return (t.append_column("_rel", pa.array(rel))
                 .append_column("_negrel", pa.array(-rel))
                 .append_column("_negeid",
                                pa.array(-t["event_id"].to_numpy())))

    reb = us.map_batches(rebase, batch_format="pyarrow")
    led = group_shift(reb, "user_id", ["_negrel", "_negeid"], "_rel",
                      k=1, out_col="_lead")

    def finish(t: pa.Table) -> pa.Table:
        lead = t["_lead"].to_numpy(zero_copy_only=False)
        cur = np.isnan(lead)
        vto = np.where(cur, np.float64(_SCD2_HIGH_US),
                       lead + base).astype(np.int64)
        return pa.table({
            "user_id": t["user_id"],
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "valid_from_us": pa.array(t["_rel"].to_numpy() + base),
            "valid_to_us": pa.array(vto),
            "is_current": pa.array(cur.astype(np.int64))})

    return led.map_batches(finish, batch_format="pyarrow")


def geofence_transitions_events(sf_dir: str):
    """Geofence entry/exit log: events (formula lat/lon) assigned to 3
    rectangular fences via the REAL PIP machinery (STRtree-pruned
    PointInPolygonJoin, fence -1 = outside), then per-user ordered
    transition detection via ONE group_shift carry chain — emit only
    rows where the fence changes (first event always emits; 'no
    previous' is the -9 sentinel, matching the SQL COALESCE twin)."""
    from ..geometry import wkb_polygon
    from ..stages.join import pip_join
    from ..stages.window import group_shift

    def _box_wkb(lon0, lat0, lon1, lat1) -> bytes:
        return wkb_polygon([np.array([(lon0, lat0), (lon1, lat0),
                                      (lon1, lat1), (lon0, lat1)])])

    fences = [_box_wkb(-120.005, -30.005, -60.005, 29.995),
              _box_wkb(-0.005, -0.005, 59.995, 44.995),
              _box_wkb(90.005, -60.005, 170.005, -10.005)]

    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def coords(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lon = ((eid * 7919) % 36000).astype(np.float64) / 100.0 - 180.0
        lat = ((eid * 104729) % 18000).astype(np.float64) / 100.0 - 90.0
        return (t.append_column("lon", pa.array(lon))
                 .append_column("lat", pa.array(lat)))

    pts = ds.map_batches(coords, batch_format="pyarrow")
    tagged = pip_join(pts, fences)
    led = group_shift(tagged, "user_id", ["event_id"], "poly_id",
                      k=1, out_col="_prev")

    def finish(t: pa.Table) -> pa.Table:
        prev = t["_prev"].to_numpy(zero_copy_only=False)
        prev = np.where(np.isnan(prev), -9.0, prev).astype(np.int64)
        cur = t["poly_id"].to_numpy(zero_copy_only=False)
        keep = prev != cur
        return pa.table({
            "user_id": t["user_id"].filter(pa.array(keep)),
            "event_id": t["event_id"].filter(pa.array(keep)),
            "from_fence": pa.array(prev[keep]),
            "to_fence": pa.array(cur[keep])})

    return led.map_batches(finish, batch_format="pyarrow")


QUERIES.update({
    "rrf_docs": rrf_docs,
    "hard_negatives_embs": hard_negatives_embs,
    "scd2_events": scd2_events,
    "geofence_transitions_events": geofence_transitions_events,
})

ORACLES.update({
    "rrf_docs": """
        WITH s AS (SELECT doc_id, n_chars,
                          (doc_id * 7919) % 100000 AS s2 FROM documents),
        r AS (SELECT doc_id,
                ROW_NUMBER() OVER (ORDER BY n_chars DESC, doc_id) AS r1,
                ROW_NUMBER() OVER (ORDER BY s2 DESC, doc_id) AS r2
              FROM s),
        f AS (SELECT doc_id, r1, r2,
                CAST(1.0 AS DOUBLE) / (60 + r1)
                + CAST(1.0 AS DOUBLE) / (60 + r2) AS rrf FROM r)
        SELECT CAST(ROW_NUMBER() OVER (ORDER BY rrf DESC, doc_id)
                    AS BIGINT) AS rank,
               doc_id,
               CAST(r1 AS BIGINT) AS rank_chars,
               CAST(r2 AS BIGINT) AS rank_s2,
               CAST(ROUND(rrf * 1000000000000) AS BIGINT) AS rrf
        FROM f ORDER BY rrf DESC, doc_id LIMIT 20
    """,
    "hard_negatives_embs": """
        WITH q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qv,
                          label AS qlab
                   FROM embeddings WHERE vec_id < 5),
        d AS (SELECT q.qid, e.vec_id,
                     list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                            q.qv) AS cosine
              FROM embeddings e, q WHERE e.label <> q.qlab),
        r AS (SELECT qid, vec_id, cosine,
                     ROW_NUMBER() OVER (PARTITION BY qid
                                        ORDER BY cosine DESC, vec_id)
                         AS rank
              FROM d)
        SELECT qid, vec_id,
               CAST(ROUND(cosine * 1000000) AS BIGINT) AS cosine,
               CAST(rank AS BIGINT) AS rank
        FROM r WHERE rank <= 5 ORDER BY qid, rank
    """,
    "scd2_events": """
        WITH e AS (SELECT user_id, event_id, event_type,
                          epoch_us(ts) AS ts_us FROM events),
        l AS (SELECT user_id, event_id, event_type, ts_us,
                     LEAD(ts_us) OVER (PARTITION BY user_id
                                       ORDER BY ts_us, event_id) AS vt
              FROM e)
        SELECT user_id, event_id, event_type,
               CAST(ts_us AS BIGINT) AS valid_from_us,
               CAST(COALESCE(vt, 253402300799000000) AS BIGINT)
                   AS valid_to_us,
               CAST(CASE WHEN vt IS NULL THEN 1 ELSE 0 END AS BIGINT)
                   AS is_current
        FROM l ORDER BY user_id, valid_from_us, event_id
    """,
    "geofence_transitions_events": """
        WITH pts AS (SELECT event_id, user_id,
               ((event_id * 7919) % 36000) / 100.0 - 180.0 AS lon,
               ((event_id * 104729) % 18000) / 100.0 - 90.0 AS lat
             FROM events),
        f AS (SELECT event_id, user_id,
               CASE WHEN lon BETWEEN -120.005 AND -60.005
                         AND lat BETWEEN -30.005 AND 29.995 THEN 0
                    WHEN lon BETWEEN -0.005 AND 59.995
                         AND lat BETWEEN -0.005 AND 44.995 THEN 1
                    WHEN lon BETWEEN 90.005 AND 170.005
                         AND lat BETWEEN -60.005 AND -10.005 THEN 2
                    ELSE -1 END AS fence FROM pts),
        l AS (SELECT user_id, event_id, fence,
               COALESCE(LAG(fence) OVER (PARTITION BY user_id
                                         ORDER BY event_id), -9) AS prev
              FROM f)
        SELECT user_id, event_id, CAST(prev AS BIGINT) AS from_fence,
               CAST(fence AS BIGINT) AS to_fence
        FROM l WHERE prev <> fence ORDER BY user_id, event_id
    """,
})


def linkage_pairs_docs(sf_dir: str):
    """Fellegi-Sunter record linkage (stages/linkage.linkage_score_pairs):
    blocking key (lang, n_chars//100), integer agreement weights
    source=2 / n_chars=3 / text=10, threshold 2 — ONE groupby shuffle on
    the block key, per-block pair scoring fully vectorized (triu +
    factorized equality).  Exact SQL twin: the blocked self-join with
    the same CASE weights."""
    from ..stages.linkage import linkage_score_pairs

    ds = _read(sf_dir, "documents",
               ["doc_id", "lang", "source", "text", "n_chars"])

    def key(t: pa.Table) -> pa.Table:
        bucket = pc.cast(pc.floor(pc.divide(
            pc.cast(t["n_chars"], pa.float64()), 100.0)), pa.int64())
        return t.append_column(
            "bk", pc.binary_join_element_wise(
                t["lang"], pc.cast(bucket, pa.string()), "|"))

    out = linkage_score_pairs(
        ds.map_batches(key, batch_format="pyarrow"), "bk", "doc_id",
        {"source": 2, "n_chars": 3, "text": 10}, threshold=2,
        max_block=65536)  # oracle-exact while blocks stay under the cap
                          # (max block: 54 at sf0.01, 451 at sf0.1; the
                          # cap is the documented recall trade beyond)
    return out.map_batches(
        lambda t: pa.table({"id_a": pc.cast(t["id_a"], pa.int64()),
                            "id_b": pc.cast(t["id_b"], pa.int64()),
                            "score": pc.cast(t["score"], pa.int64())}),
        batch_format="pyarrow").sort(["id_a", "id_b"])


def view_refresh_orders(sf_dir: str):
    """Incremental materialized-view maintenance
    (stages/incremental.refresh_grouped_view): a per-customer
    (n_orders, total_cents) view built over the 90% 'old' snapshot is
    refreshed with an INSERT delta (the %10==0 arrivals) and then a
    DELETE delta (%100==0 retractions) — the fact table is never
    rescanned; refresh cost is O(|delta| + touched groups).  Oracle:
    the full recompute over orders minus the retracted rows."""
    from ..stages.incremental import delta_partials, refresh_grouped_view
    from ..stages.groupagg import grouped_reduce

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": t["o_custkey"],
            "o_orderkey": t["o_orderkey"],
            "cents": pa.array(_cents_half_up(
                t["o_totalprice"].to_numpy(), 100))})

    full = _read(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_totalprice"]) \
        .map_batches(cents, batch_format="pyarrow")

    def _mod_filter(div: int, want_zero: bool):
        def f(t: pa.Table) -> pa.Table:
            zero = t["o_orderkey"].to_numpy() % div == 0
            return t.filter(pa.array(zero if want_zero else ~zero))
        return f

    base = full.map_batches(_mod_filter(10, False), batch_format="pyarrow")
    ins = full.map_batches(_mod_filter(10, True), batch_format="pyarrow")
    dels = full.map_batches(_mod_filter(100, True), batch_format="pyarrow")

    view = grouped_reduce(
        delta_partials(base, ["o_custkey"], {"cents": "total_cents"}),
        ["o_custkey"], {"total_cents": "total_cents", "n": "n"}, how="sum")
    v1 = refresh_grouped_view(view, ins, ["o_custkey"],
                              {"cents": "total_cents"}, sign=1)
    v2 = refresh_grouped_view(v1, dels, ["o_custkey"],
                              {"cents": "total_cents"}, sign=-1)
    return v2.map_batches(
        lambda t: pa.table({"o_custkey": t["o_custkey"],
                            "n_orders": pc.cast(t["n"], pa.int64()),
                            "total_cents": pc.cast(t["total_cents"],
                                                   pa.int64())}),
        batch_format="pyarrow")


def _io_scratch(sf_dir: str, tag: str) -> str:
    import hashlib
    h = hashlib.md5(f"{sf_dir}|{tag}".encode()).hexdigest()[:12]
    return f"/tmp/dggrid4py_ray_io/{tag}_{h}"


def jsonl_roundtrip_docs(sf_dir: str):
    """JSONL source/sink parity: stream documents out as JSONL
    (ds.write_json, one file per block — the resumable-partition
    layout), read the directory back with ray.data.read_json, and
    aggregate per lang.  Oracle: the same aggregate straight off the
    parquet — proving the JSON hop is lossless for int/string
    columns."""
    import shutil

    out_dir = _io_scratch(sf_dir, "docs_jsonl")
    shutil.rmtree(out_dir, ignore_errors=True)
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    ds.write_json(out_dir)
    back = ray.data.read_json(out_dir)
    from ..stages.groupagg import grouped_reduce
    agg = grouped_reduce(
        back.map_batches(
            lambda t: pa.table({"lang": t["lang"],
                                "n_chars": t["n_chars"],
                                "doc_id": t["doc_id"],
                                "n": pa.array(np.ones(t.num_rows,
                                                      np.int64))}),
            batch_format="pyarrow"),
        ["lang"], {"n_chars": "sum_chars", "doc_id": "sum_ids", "n": "n"},
        how="sum")
    return agg.map_batches(
        lambda t: pa.table({"lang": t["lang"],
                            "n": pc.cast(t["n"], pa.int64()),
                            "sum_chars": pc.cast(t["sum_chars"], pa.int64()),
                            "sum_ids": pc.cast(t["sum_ids"], pa.int64())}),
        batch_format="pyarrow")


def csv_roundtrip_events(sf_dir: str):
    """CSV source/sink parity: integer/string event columns out via
    ds.write_csv, back via ray.data.read_csv, per-type counts + integer
    checksums.  Oracle reads the parquet directly."""
    import shutil

    out_dir = _io_scratch(sf_dir, "events_csv")
    shutil.rmtree(out_dir, ignore_errors=True)
    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type"])
    ds.write_csv(out_dir)
    back = ray.data.read_csv(out_dir)
    from ..stages.groupagg import grouped_reduce
    agg = grouped_reduce(
        back.map_batches(
            lambda t: t.append_column(
                "n", pa.array(np.ones(t.num_rows, np.int64))),
            batch_format="pyarrow"),
        ["event_type"],
        {"event_id": "sum_eids", "user_id": "sum_uids", "n": "n"},
        how="sum")
    return agg.map_batches(
        lambda t: pa.table({"event_type": t["event_type"],
                            "n": pc.cast(t["n"], pa.int64()),
                            "sum_eids": pc.cast(t["sum_eids"], pa.int64()),
                            "sum_uids": pc.cast(t["sum_uids"], pa.int64())}),
        batch_format="pyarrow")


QUERIES.update({
    "linkage_pairs_docs": linkage_pairs_docs,
    "view_refresh_orders": view_refresh_orders,
    "jsonl_roundtrip_docs": jsonl_roundtrip_docs,
    "csv_roundtrip_events": csv_roundtrip_events,
})

ORACLES.update({
    "linkage_pairs_docs": """
        WITH b AS (SELECT doc_id, source, n_chars, text,
                          lang || '|' || CAST(n_chars // 100 AS VARCHAR)
                              AS bk
                   FROM documents)
        SELECT a.doc_id AS id_a, c.doc_id AS id_b,
               CAST((CASE WHEN a.source = c.source THEN 2 ELSE 0 END)
                  + (CASE WHEN a.n_chars = c.n_chars THEN 3 ELSE 0 END)
                  + (CASE WHEN a.text = c.text THEN 10 ELSE 0 END)
                    AS BIGINT) AS score
        FROM b a JOIN b c ON a.bk = c.bk AND a.doc_id < c.doc_id
        WHERE (CASE WHEN a.source = c.source THEN 2 ELSE 0 END)
            + (CASE WHEN a.n_chars = c.n_chars THEN 3 ELSE 0 END)
            + (CASE WHEN a.text = c.text THEN 10 ELSE 0 END) >= 2
        ORDER BY id_a, id_b
    """,
    "view_refresh_orders": """
        SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS n_orders,
               CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                    AS BIGINT) AS total_cents
        FROM orders WHERE o_orderkey % 100 != 0
        GROUP BY o_custkey ORDER BY o_custkey
    """,
    "jsonl_roundtrip_docs": """
        SELECT lang, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
               CAST(SUM(doc_id) AS BIGINT) AS sum_ids
        FROM documents GROUP BY lang ORDER BY lang
    """,
    "csv_roundtrip_events": """
        SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(event_id) AS BIGINT) AS sum_eids,
               CAST(SUM(user_id) AS BIGINT) AS sum_uids
        FROM events GROUP BY event_type ORDER BY event_type
    """,
})


def s2_h3_encode_events(sf_dir: str):
    """The other two north-star encoder families end-to-end: S2
    spherical-quadtree level-6 encode (dggs/s2.py, from-scratch
    published algorithm) and the H3-layout packing of the Z7 cell
    (dggs/h3like.py) over the same formula coordinates as
    igeo7_encode_events.  Ids are not SQL-expressible, so the oracle is
    conservation (points + value mass = the events table, SQL-exact)
    plus pinned regression literals: occupied S2 cell count, occupied
    level-3 S2 parent count (hierarchy law: every cell's parent is
    counted), and mod-checksums of the distinct S2 and H3-layout id
    sets (pins the actual bit patterns, not just cardinalities)."""
    from ..config import dgselect
    from ..dggs import s2 as s2mod
    from ..dggs.h3like import z7_to_h3layout
    from ..stages.encode import CellEncoder
    from ..stages.groupagg import grouped_reduce

    ds = _read(sf_dir, "events", ["event_id", "value"])
    dggs = dgselect("IGEO7", resolution=9)

    def encode(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lon = ((eid * 7919) % 36000).astype(np.float64) / 100.0 - 180.0
        lat = ((eid * 104729) % 18000).astype(np.float64) / 100.0 - 90.0
        s2id = s2mod.encode(lon, lat, level=6)
        return pa.table({"s2": pa.array(s2id),
                         "lon": pa.array(lon), "lat": pa.array(lat),
                         "value": t["value"],
                         "n": pa.array(np.ones(len(eid), np.int64))})

    enc = ds.map_batches(encode, batch_format="pyarrow")
    enc = enc.map_batches(CellEncoder(dggs, out_col="z7"),
                          batch_format="pyarrow")

    def project(t: pa.Table) -> pa.Table:
        h3 = z7_to_h3layout(t["z7"].to_numpy().astype(np.uint64))
        return pa.table({"s2": t["s2"], "h3": pa.array(h3.view(np.int64)),
                         "value": t["value"], "n": t["n"]})

    per_cell = grouped_reduce(
        enc.map_batches(project, batch_format="pyarrow"),
        ["s2", "h3"], {"value": "sum_value", "n": "n"}, how="sum")
    cells = per_cell.to_pandas()  # answer-sized: one row per (s2,h3) pair
    s2u = np.unique(cells["s2"].to_numpy().astype(np.uint64))
    h3u = np.unique(cells["h3"].to_numpy().astype(np.uint64))
    par = np.unique(s2mod.parent(s2u, level=3))
    mod = np.uint64(1000003)
    return pa.table({
        "n_points": pa.array([int(cells["n"].sum())], pa.int64()),
        "sum_value": _iscale(np.array([cells["sum_value"].sum()]),
                             10000),
        "n_s2_cells": pa.array([len(s2u)], pa.int64()),
        "n_s2_parents": pa.array([len(par)], pa.int64()),
        "s2_checksum": pa.array([int((s2u % mod).sum() % mod)], pa.int64()),
        "h3_checksum": pa.array([int((h3u % mod).sum() % mod)], pa.int64()),
    })


def missing_days_by_user(sf_dir: str):
    """Temporal completeness audit: per user, days inside their own
    [first, last] activity span with NO event — exactly
    span_days - distinct_active_days, each side one grouped_reduce
    (distinct (user, day) via the same sort machinery; no window, no
    join).  Users with zero gaps are kept (n_missing = 0) so the audit
    is total."""
    from ..stages.groupagg import grouped_reduce

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def days(t: pa.Table) -> pa.Table:
        d = pc.cast(t["ts"], pa.int64()).to_numpy() // 86_400_000_000
        return pa.table({"user_id": t["user_id"], "day": pa.array(d),
                         "n": pa.array(np.ones(t.num_rows, np.int64))})

    ud = ds.map_batches(days, batch_format="pyarrow")
    # distinct (user, day): grouped_reduce keyed on the pair
    dd = grouped_reduce(ud, ["user_id", "day"], {"n": "n"}, how="sum")

    def ones(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"], "day": t["day"],
                         "day2": t["day"],
                         "one": pa.array(np.ones(t.num_rows, np.int64))})

    j = grouped_reduce(
        dd.map_batches(ones, batch_format="pyarrow"), ["user_id"],
        {"day": "min_day", "day2": "max_day", "one": "active_days"},
        how={"day": "min", "day2": "max", "one": "sum"})

    def finish(t: pa.Table) -> pa.Table:
        span = (t["max_day"].to_numpy() - t["min_day"].to_numpy() + 1)
        miss = span - t["active_days"].to_numpy()
        return pa.table({"user_id": t["user_id"],
                         "active_days": pc.cast(t["active_days"],
                                                pa.int64()),
                         "span_days": pa.array(span.astype(np.int64)),
                         "n_missing": pa.array(miss.astype(np.int64))})

    return j.map_batches(finish, batch_format="pyarrow")


QUERIES.update({
    "s2_h3_encode_events": s2_h3_encode_events,
    "missing_days_by_user": missing_days_by_user,
})

ORACLES.update({
    "missing_days_by_user": """
        WITH d AS (SELECT user_id,
                          CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                              AS day
                   FROM events)
        SELECT user_id,
               CAST(COUNT(DISTINCT day) AS BIGINT) AS active_days,
               CAST(MAX(day) - MIN(day) + 1 AS BIGINT) AS span_days,
               CAST(MAX(day) - MIN(day) + 1 - COUNT(DISTINCT day)
                    AS BIGINT) AS n_missing
        FROM d GROUP BY user_id ORDER BY user_id
    """,
})


ORACLES.update({
    # conservation (points + value mass, SQL-exact) + pinned grid
    # regression literals: occupied S2 level-6 cells / level-3 parents
    # and mod-1000003 checksums over the distinct S2 and H3-layout id
    # sets (S2/H3 ids are not SQL-expressible; same precedent as
    # igeo7_encode_events)
    "s2_h3_encode_events": """
        SELECT COUNT(*) AS n_points,
               CAST(ROUND(SUM(value) * 10000) AS BIGINT) AS sum_value,
               CAST(8305 AS BIGINT) AS n_s2_cells,
               CAST(384 AS BIGINT) AS n_s2_parents,
               CAST(521775 AS BIGINT) AS s2_checksum,
               CAST(232958 AS BIGINT) AS h3_checksum
        FROM events
    """,
})


def token_budget_docs(sf_dir: str):
    """Per-source token-budget enforcement
    (stages/sampling.token_budget_cap): cap each source at 3000
    whitespace tokens, admitting docs in deterministic md5-priority
    order (bit-identical to DuckDB md5_number_upper) — ONE
    group_running_sum carry chain + a pure filter.  Output: per-source
    kept-doc count, kept-token total, and a doc_id checksum pinning the
    exact kept SET (not just its size)."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.sampling import token_budget_cap

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def tok(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"], "source": t["source"],
            "toks": pc.cast(pc.list_value_length(
                pc.split_pattern(t["text"], " ")), pa.int64())})

    kept = token_budget_cap(ds.map_batches(tok, batch_format="pyarrow"),
                            "source", "doc_id", "toks", budget=3000)

    def ones(t: pa.Table) -> pa.Table:
        return t.append_column("n", pa.array(np.ones(t.num_rows,
                                                     np.int64)))

    agg = grouped_reduce(
        kept.map_batches(ones, batch_format="pyarrow"), ["source"],
        {"n": "n_kept", "toks": "kept_tokens", "doc_id": "sum_ids"},
        how="sum")
    return agg.map_batches(
        lambda t: pa.table({"source": t["source"],
                            "n_kept": pc.cast(t["n_kept"], pa.int64()),
                            "kept_tokens": pc.cast(t["kept_tokens"],
                                                   pa.int64()),
                            "sum_ids": pc.cast(t["sum_ids"], pa.int64())}),
        batch_format="pyarrow")


QUERIES.update({"token_budget_docs": token_budget_docs})

ORACLES.update({
    "token_budget_docs": """
        WITH t AS (SELECT doc_id, source,
                          len(string_split(text, ' ')) AS toks,
                          md5_number_upper(CAST(doc_id AS VARCHAR)) AS pri
                   FROM documents),
        w AS (SELECT *, SUM(toks) OVER (PARTITION BY source
                                        ORDER BY pri, doc_id
                                        ROWS UNBOUNDED PRECEDING) AS cum
              FROM t)
        SELECT source, CAST(COUNT(*) AS BIGINT) AS n_kept,
               CAST(SUM(toks) AS BIGINT) AS kept_tokens,
               CAST(SUM(doc_id) AS BIGINT) AS sum_ids
        FROM w WHERE cum <= 3000
        GROUP BY source ORDER BY source
    """,
})


def psi_drift_events(sf_dir: str):
    """Population Stability Index between the 'click' and 'purchase'
    value distributions — the standard feature-drift audit between two
    snapshots/sources.  10 fixed-width bins (width 50, top bin
    clamped), Laplace-smoothed proportions p = (n + 0.5)/(N + 5) so
    empty bins stay defined, per-bin contribution
    (p_a - p_b) * ln(p_a / p_b).

    Dataflow: ONE map_batches partial (bin x side counts per batch —
    bounded 20 rows each) + one tiny grouped_reduce; the PSI fold runs
    on the answer-sized 10-row table.  The float math mirrors the SQL
    twin operation-for-operation."""
    from ..stages.groupagg import grouped_reduce

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        v = t["value"].to_numpy(zero_copy_only=False)
        out = {"bin": [], "side": [], "n": []}
        for side in ("click", "purchase"):
            m = et == side
            bf = np.minimum(np.floor(v[m] / 50.0), 9.0)
            # SQL twin: negative/NaN bins fail the range(0,10) join and
            # drop; mirror that instead of crashing bincount
            bf = bf[(bf >= 0.0) & ~np.isnan(bf)]
            binc = np.bincount(bf.astype(np.int64), minlength=10)
            out["bin"].extend(range(10))
            out["side"].extend([side] * 10)
            out["n"].extend(binc.tolist())
        return pa.table({"bin": pa.array(out["bin"], pa.int64()),
                         "side": pa.array(out["side"]),
                         "n": pa.array(out["n"], pa.int64())})

    counts = grouped_reduce(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["bin", "side"], {"n": "n"}, how="sum")

    def fold(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd
        piv = df.pivot_table(index="bin", columns="side", values="n",
                             aggfunc="sum", fill_value=0).reindex(
            range(10), fill_value=0)
        na = piv["click"].to_numpy().astype(np.float64)
        nb = piv["purchase"].to_numpy().astype(np.float64)
        pa_ = (na + 0.5) / (na.sum() + 5.0)
        pb = (nb + 0.5) / (nb.sum() + 5.0)
        contrib = (pa_ - pb) * np.log(pa_ / pb)
        return pd.DataFrame({
            "bin": np.arange(10, dtype=np.int64),
            "n_click": na.astype(np.int64),
            "n_purchase": nb.astype(np.int64),
            "psi_contrib_e9": np.round(contrib * 1e9).astype(np.int64),
            "psi_total_e9": np.full(
                10, np.int64(np.round(contrib.sum() * 1e9)))})

    return (counts.repartition(1)
            .map_batches(fold, batch_format="pandas").sort("bin"))


QUERIES.update({"psi_drift_events": psi_drift_events})

ORACLES.update({
    "psi_drift_events": """
        WITH b AS (
            SELECT LEAST(CAST(FLOOR(value / 50.0) AS BIGINT), 9) AS bin,
                   event_type
            FROM events WHERE event_type IN ('click', 'purchase')),
        g AS (SELECT r.bin,
                     COALESCE(SUM(CASE WHEN b.event_type = 'click'
                                       THEN 1 END), 0) AS n_click,
                     COALESCE(SUM(CASE WHEN b.event_type = 'purchase'
                                       THEN 1 END), 0) AS n_purchase
              FROM range(0, 10) r(bin) LEFT JOIN b ON b.bin = r.bin
              GROUP BY r.bin),
        tot AS (SELECT SUM(n_click) AS ta, SUM(n_purchase) AS tb FROM g),
        p AS (SELECT bin, n_click, n_purchase,
                     (n_click + 0.5) / (ta + 5.0) AS p_a,
                     (n_purchase + 0.5) / (tb + 5.0) AS p_b
              FROM g, tot),
        c AS (SELECT bin, n_click, n_purchase,
                     (p_a - p_b) * LN(p_a / p_b) AS contrib
              FROM p)
        SELECT CAST(bin AS BIGINT) AS bin,
               CAST(n_click AS BIGINT) AS n_click,
               CAST(n_purchase AS BIGINT) AS n_purchase,
               CAST(ROUND(contrib * 1000000000) AS BIGINT)
                   AS psi_contrib_e9,
               CAST((SELECT ROUND(SUM(contrib) * 1000000000) FROM c)
                    AS BIGINT) AS psi_total_e9
        FROM c ORDER BY bin
    """,
})


def skew_join_events(sf_dir: str):
    """Skew-aware large join, hot keys DETECTED then salted
    (stages/relational.salted_hash_join — the north rule's 'skew handled
    explicitly' exhibit): per-user counts find the top-5 heaviest
    user_ids (answer-sized), those keys are replicated across 4 salt
    buckets on the build side while probe rows spread — a celebrity key
    can no longer melt one reducer; output is provably identical to the
    plain join (the SQL oracle).  Aggregate: revenue mass per market
    segment."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.relational import salted_hash_join

    ev = _read(sf_dir, "events", ["user_id", "value"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "val4": pa.array(_cents_half_up(
                t["value"].to_numpy(zero_copy_only=False), 10000)),
            "n": pa.array(np.ones(t.num_rows, np.int64))})

    evc = ev.map_batches(cents, batch_format="pyarrow")
    counts = grouped_reduce(evc, ["user_id"], {"n": "n"}, how="sum")
    top = counts.sort(["n", "user_id"], descending=[True, False]) \
        .limit(5).to_pandas()
    hot = top["user_id"].to_numpy()

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]) \
        .map_batches(lambda t: pa.table({
            "user_id": t["c_custkey"],
            "c_mktsegment": t["c_mktsegment"]}), batch_format="pyarrow")
    j = salted_hash_join(evc, cust, on="user_id", hot_keys=hot, n_salt=4)

    agg = grouped_reduce(j, ["c_mktsegment"],
                         {"n": "n_events", "val4": "sum_val4"}, how="sum")
    return agg.map_batches(
        lambda t: pa.table({"c_mktsegment": t["c_mktsegment"],
                            "n_events": pc.cast(t["n_events"], pa.int64()),
                            "sum_val4": pc.cast(t["sum_val4"],
                                                pa.int64())}),
        batch_format="pyarrow")


QUERIES.update({"skew_join_events": skew_join_events})

ORACLES.update({
    "skew_join_events": """
        SELECT c.c_mktsegment, CAST(COUNT(*) AS BIGINT) AS n_events,
               CAST(SUM(CAST(ROUND(e.value * 10000) AS BIGINT))
                    AS BIGINT) AS sum_val4
        FROM events e JOIN customer c ON e.user_id = c.c_custkey
        GROUP BY c.c_mktsegment ORDER BY c.c_mktsegment
    """,
})


def merged_intervals_users(sf_dir: str):
    """Gaps-and-islands interval coalescing per user
    (stages/temporal.merge_intervals): each event opens an interval
    [ts, ts + round(value*100) * 36 s]; overlapping-or-touching intervals merge
    into islands (two carry chains + one grouped_reduce — the SQL
    MAX-OVER / SUM-OVER recipe distributed).  Timestamps rebased to the
    corpus min so the float64 carry lane is integer-exact."""
    from ..stages.temporal import merge_intervals

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def to_iv(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy()
        dur = _cents_half_up(
            t["value"].to_numpy(zero_copy_only=False), 100) * 36_000_000
        return pa.table({"user_id": t["user_id"],
                         "event_id": t["event_id"],
                         "_us": pa.array(us),
                         "_dur": pa.array(dur)})

    iv = ds.map_batches(to_iv, batch_format="pyarrow")
    base = int(iv.min("_us"))

    def rebase(t: pa.Table) -> pa.Table:
        s = t["_us"].to_numpy() - base
        return pa.table({"user_id": t["user_id"],
                         "event_id": t["event_id"],
                         "s": pa.array(s),
                         "e": pa.array(s + t["_dur"].to_numpy())})

    out = merge_intervals(iv.map_batches(rebase, batch_format="pyarrow"),
                          "user_id", "s", "e", "event_id")
    return out.map_batches(
        lambda t: pa.table({
            "user_id": t["user_id"],
            "island": pc.cast(t["island"], pa.int64()),
            "start_us": pa.array(t["s"].to_numpy() + base),
            "end_us": pa.array(t["e"].to_numpy() + base),
            "n_intervals": pc.cast(t["n_intervals"], pa.int64())}),
        batch_format="pyarrow")


QUERIES.update({"merged_intervals_users": merged_intervals_users})

ORACLES.update({
    "merged_intervals_users": """
        WITH iv AS (
            SELECT user_id, event_id, epoch_us(ts) AS s,
                   epoch_us(ts)
                   + CAST(ROUND(value * 100) AS BIGINT) * 36000000 AS e
            FROM events),
        x AS (SELECT user_id, event_id, s, e,
                     MAX(e) OVER (PARTITION BY user_id
                                  ORDER BY s, e, event_id
                                  ROWS BETWEEN UNBOUNDED PRECEDING
                                       AND 1 PRECEDING) AS pmax
              FROM iv),
        f AS (SELECT *, CASE WHEN pmax IS NULL OR s > pmax
                             THEN 1 ELSE 0 END AS flag FROM x),
        i AS (SELECT *, SUM(flag) OVER (PARTITION BY user_id
                                        ORDER BY s, e, event_id
                                        ROWS UNBOUNDED PRECEDING)
                            AS island
              FROM f)
        SELECT user_id, CAST(island AS BIGINT) AS island,
               CAST(MIN(s) AS BIGINT) AS start_us,
               CAST(MAX(e) AS BIGINT) AS end_us,
               CAST(COUNT(*) AS BIGINT) AS n_intervals
        FROM i GROUP BY user_id, island
        ORDER BY user_id, island
    """,
})


def clustered_join_lineitem_orders(sf_dir: str):
    """Exchange-free storage-aware join
    (stages/join.zonemap_merge_join): lineitem and orders are first
    written as zone-map-clustered tables on the order key (the
    pay-the-sort-once layout), then joined by pairing overlapping file
    ranges off the two manifests — no shuffle, one task per left file
    reading only the right files its key range touches.  Aggregate:
    per order priority, lineitem count + integer quantity and cents
    mass.  Oracle: the plain SQL join."""
    import shutil

    from ..stages.groupagg import grouped_reduce
    from ..stages.join import zonemap_merge_join
    from ..state.checkpoint import write_clustered

    dir_l = _io_scratch(sf_dir, "li_clustered")
    dir_o = _io_scratch(sf_dir, "ord_clustered")
    shutil.rmtree(dir_l, ignore_errors=True)
    shutil.rmtree(dir_o, ignore_errors=True)

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]) \
        .map_batches(lambda t: pa.table({
            "okey": t["l_orderkey"],
            "qty": pc.cast(t["l_quantity"], pa.int64())}),
            batch_format="pyarrow")
    od = _read(sf_dir, "orders",
               ["o_orderkey", "o_totalprice", "o_orderpriority"]) \
        .map_batches(lambda t: pa.table({
            "okey": t["o_orderkey"],
            "cents": pa.array(_cents_half_up(
                t["o_totalprice"].to_numpy(), 100)),
            "prio": t["o_orderpriority"]}), batch_format="pyarrow")

    write_clustered(li, dir_l, "okey", ["okey"], rows_per_file=1 << 13)
    write_clustered(od, dir_o, "okey", ["okey"], rows_per_file=1 << 13)

    j = zonemap_merge_join(dir_l, dir_o, "okey")

    def ones(t: pa.Table) -> pa.Table:
        return t.append_column("n", pa.array(np.ones(t.num_rows,
                                                     np.int64)))

    agg = grouped_reduce(
        j.map_batches(ones, batch_format="pyarrow"), ["prio"],
        {"n": "n_items", "qty": "sum_qty", "cents": "sum_cents"},
        how="sum")
    return agg.map_batches(
        lambda t: pa.table({"prio": t["prio"],
                            "n_items": pc.cast(t["n_items"], pa.int64()),
                            "sum_qty": pc.cast(t["sum_qty"], pa.int64()),
                            "sum_cents": pc.cast(t["sum_cents"],
                                                 pa.int64())}),
        batch_format="pyarrow")


QUERIES.update(
    {"clustered_join_lineitem_orders": clustered_join_lineitem_orders})

ORACLES.update({
    "clustered_join_lineitem_orders": """
        SELECT o.o_orderpriority AS prio,
               CAST(COUNT(*) AS BIGINT) AS n_items,
               CAST(SUM(CAST(l.l_quantity AS BIGINT)) AS BIGINT)
                   AS sum_qty,
               CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT))
                    AS BIGINT) AS sum_cents
        FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
        GROUP BY o.o_orderpriority ORDER BY prio
    """,
})


def hilbert_pushdown_events(sf_dir: str):
    """Spatial predicate pushdown to the FILE level — the 100-TB bbox
    read path end-to-end: events get a Hilbert locality key on a
    90x45 lattice, the table is written zone-map-clustered on that key
    (pay the sort once), and a bbox query becomes
    sfc.hilbert_bbox_ranges (exact 1-D key ranges) -> zone-map file
    pruning per range -> exact residual bbox filter -> aggregate.
    The query RAISES if pruning degenerates to a full scan, so the
    scale property is a runtime invariant; correctness is the plain
    SQL bbox aggregate."""
    import shutil

    from ..stages.groupagg import grouped_reduce
    from ..stages.sfc import add_hilbert_key, hilbert_bbox_ranges
    from ..state.checkpoint import write_clustered

    out_dir = _io_scratch(sf_dir, "ev_hilbert")
    shutil.rmtree(out_dir, ignore_errors=True)

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def binp(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        return pa.table({
            "gx": pa.array((eid * 7919) % 36000 // 400),
            "gy": pa.array((eid * 104729) % 18000 // 400),
            "event_type": t["event_type"],
            "val4": pa.array(_cents_half_up(
                t["value"].to_numpy(zero_copy_only=False), 10000)),
            "n": pa.array(np.ones(len(eid), np.int64))})

    keyed = add_hilbert_key(ds.map_batches(binp, batch_format="pyarrow"),
                            "gx", "gy")
    write_clustered(keyed, out_dir, "hilbert_key", ["hilbert_key"],
                    rows_per_file=1 << 10)

    # bbox: gx in [20, 40], gy in [10, 25] -> exact Hilbert key
    # ranges -> DISTINCT zone-overlapping files (union across ranges)
    from ..state.checkpoint import zonemap_pruned_files
    ranges = hilbert_bbox_ranges(20, 40, 10, 25)
    keep, n_total = zonemap_pruned_files(out_dir, "hilbert_key", ranges)
    if n_total > 4 and len(keep) >= n_total:
        raise RuntimeError(
            f"hilbert pushdown degenerated to a full scan "
            f"({len(keep)}/{n_total} file reads)")
    if not keep:
        return pa.table({"event_type": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64()),
                         "sum_val4": pa.array([], pa.int64())})
    u = ray.data.read_parquet(keep)

    def residual(t: pa.Table) -> pa.Table:
        gx = t["gx"].to_numpy()
        gy = t["gy"].to_numpy()
        keep_m = (gx >= 20) & (gx <= 40) & (gy >= 10) & (gy <= 25)
        return t.filter(pa.array(keep_m))

    agg = grouped_reduce(
        u.map_batches(residual, batch_format="pyarrow"),
        ["event_type"], {"n": "n", "val4": "sum_val4"}, how="sum")
    return agg.map_batches(
        lambda t: pa.table({"event_type": t["event_type"],
                            "n": pc.cast(t["n"], pa.int64()),
                            "sum_val4": pc.cast(t["sum_val4"],
                                                pa.int64())}),
        batch_format="pyarrow")


QUERIES.update({"hilbert_pushdown_events": hilbert_pushdown_events})

ORACLES.update({
    "hilbert_pushdown_events": """
        WITH b AS (SELECT event_type, value,
                          (event_id * 7919) % 36000 // 400 AS gx,
                          (event_id * 104729) % 18000 // 400 AS gy
                   FROM events)
        SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(CAST(ROUND(value * 10000) AS BIGINT)) AS BIGINT)
                   AS sum_val4
        FROM b
        WHERE gx BETWEEN 20 AND 40 AND gy BETWEEN 10 AND 25
        GROUP BY event_type ORDER BY event_type
    """,
})


def compaction_roundtrip_events(sf_dir: str):
    """LSM-style table maintenance end-to-end
    (state/checkpoint.compact_clustered): 80% of events written
    zone-map-clustered on event_id, the remaining 20% merged in as a
    delta compaction (overlapped files rewritten, untouched files
    carried over, manifest replaced atomically), then a zone-map-pruned
    range read over the compacted table.  Oracle: the same range
    aggregate over ALL events — nothing lost, nothing duplicated
    through the compaction."""
    import shutil

    from ..stages.groupagg import grouped_reduce
    from ..state.checkpoint import (compact_clustered,
                                    read_zonemap_pruned, write_clustered)

    out_dir = _io_scratch(sf_dir, "ev_compact")
    shutil.rmtree(out_dir, ignore_errors=True)

    full = _read(sf_dir, "events", ["event_id", "event_type", "value"]) \
        .map_batches(lambda t: pa.table({
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "val4": pa.array(_cents_half_up(
                t["value"].to_numpy(zero_copy_only=False), 10000))}),
            batch_format="pyarrow")

    def _mod(want_zero: bool):
        def f(t: pa.Table) -> pa.Table:
            z = t["event_id"].to_numpy() % 5 == 0
            return t.filter(pa.array(z if want_zero else ~z))
        return f

    base = full.map_batches(_mod(False), batch_format="pyarrow")
    delta = full.map_batches(_mod(True), batch_format="pyarrow")
    write_clustered(base, out_dir, "event_id", ["event_id"],
                    rows_per_file=1 << 10)
    compact_clustered(out_dir, delta, rows_per_file=1 << 10)

    sub, n_read, n_total = read_zonemap_pruned(out_dir, "event_id",
                                               2000, 7000)
    if n_total > 4 and n_read >= n_total:
        raise RuntimeError(f"compacted read degenerated to a full scan "
                           f"({n_read}/{n_total})")

    def ones(t: pa.Table) -> pa.Table:
        return t.append_column("n", pa.array(np.ones(t.num_rows,
                                                     np.int64)))

    agg = grouped_reduce(
        sub.map_batches(ones, batch_format="pyarrow"), ["event_type"],
        {"n": "n", "val4": "sum_val4"}, how="sum")
    return agg.map_batches(
        lambda t: pa.table({"event_type": t["event_type"],
                            "n": pc.cast(t["n"], pa.int64()),
                            "sum_val4": pc.cast(t["sum_val4"],
                                                pa.int64())}),
        batch_format="pyarrow")


QUERIES.update({"compaction_roundtrip_events": compaction_roundtrip_events})

ORACLES.update({
    "compaction_roundtrip_events": """
        SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(CAST(ROUND(value * 10000) AS BIGINT)) AS BIGINT)
                   AS sum_val4
        FROM events WHERE event_id >= 2000 AND event_id < 7000
        GROUP BY event_type ORDER BY event_type
    """,
})


def balanced_sample_docs(sf_dir: str):
    """Exactly-min(k, n) docs per language, deterministically (md5-
    priority ROW_NUMBER <= k): the class-rebalancing sampler whose kept
    SET is a pure function of the corpus — stable under retries,
    resumes and cluster size (hash_sample's guarantee, but with an
    exact per-group count instead of a rate).  One group_row_number
    carry chain ordered by (priority, doc_id); no per-group Python."""
    from ..stages.sampling import _md5_u64
    from ..stages.window import group_row_number

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def prio(t: pa.Table) -> pa.Table:
        h = _md5_u64(t["doc_id"].to_numpy())
        return t.append_column("_pri", pa.array(h.astype(np.uint64)))

    rn = group_row_number(ds.map_batches(prio, batch_format="pyarrow"),
                          "lang", ["_pri", "doc_id"], out_col="rn")

    def keep(t: pa.Table) -> pa.Table:
        ok = t["rn"].to_numpy() <= 40
        return t.filter(pa.array(ok))

    out = rn.map_batches(keep, batch_format="pyarrow")
    return out.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"], "lang": t["lang"],
                            "rn": pc.cast(t["rn"], pa.int64())}),
        batch_format="pyarrow").sort(["lang", "rn"])


QUERIES.update({"balanced_sample_docs": balanced_sample_docs})

ORACLES.update({
    "balanced_sample_docs": """
        WITH r AS (
            SELECT doc_id, lang,
                   ROW_NUMBER() OVER (
                       PARTITION BY lang
                       ORDER BY md5_number_upper(CAST(doc_id AS VARCHAR)),
                                doc_id) AS rn
            FROM documents)
        SELECT doc_id, lang, CAST(rn AS BIGINT) AS rn
        FROM r WHERE rn <= 40 ORDER BY lang, rn
    """,
})


def logistic_grad_embs(sf_dir: str):
    """One exact distributed logistic-regression gradient step over the
    embeddings table (stages/linalg.logistic_grad_step): broadcast
    weights, per-batch d-vector sufficient statistics, answer-sized
    driver fold — the training-loop inner step with nothing shuffled.
    Oracle recomputes sigmoid/gradient/log-loss in SQL via
    list_dot_product + a lateral range join over the 64 dimensions."""
    from ..stages.linalg import logistic_grad_step

    d = 64
    w = np.array([((j * 37) % 19 - 9) / 10.0 for j in range(d)])
    ds = _read(sf_dir, "embeddings", ["embedding", "label"])
    out = logistic_grad_step(ds, w)
    return pa.table({
        "j": out["j"],
        "grad_e6": _iscale(out["g"].to_numpy(), 1000000),
        "n": out["n"]})


QUERIES.update({"logistic_grad_embs": logistic_grad_embs})


def _w_sql_literal(d: int = 64) -> str:
    vals = ", ".join(str(((j * 37) % 19 - 9) / 10.0) for j in range(d))
    return f"[{vals}]::DOUBLE[]"


ORACLES.update({
    "logistic_grad_embs": f"""
        WITH p AS (
            SELECT CAST(embedding AS DOUBLE[]) AS x,
                   CASE WHEN label = 0 THEN 1.0 ELSE 0.0 END AS y,
                   1.0 / (1.0 + exp(-list_dot_product(
                       CAST(embedding AS DOUBLE[]),
                       {_w_sql_literal()}))) AS ph
            FROM embeddings),
        g AS (
            SELECT CAST(r.range AS BIGINT) AS j,
                   SUM(p.x[CAST(r.range AS INTEGER) + 1]
                       * (p.ph - p.y)) AS grad
            FROM p, range(64) r GROUP BY 1),
        l AS (
            SELECT CAST(-1 AS BIGINT) AS j,
                   SUM(-(y * ln(ph + 1e-300)
                         + (1.0 - y) * ln(1.0 - ph + 1e-300))) AS grad
            FROM p),
        n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM embeddings)
        SELECT j, CAST(ROUND(grad * 1000000) AS BIGINT) AS grad_e6, n.n
        FROM (SELECT * FROM g UNION ALL SELECT * FROM l), n
        ORDER BY j
    """,
})


def slippy_tiles_events(sf_dir: str):
    """Web-Mercator XYZ tile binning at zoom 8 (stages/tiles.py): the
    slippy-map pyramid every web map serves from, as one pure per-batch
    encode + within-batch combiner + bounded groupby — the
    latlon_bin_events dataflow with the Mercator tile function.  The
    float expression order matches the SQL twin exactly (LN/TAN/COS
    parity verified over all 18,000 centi-degree latitudes); quadkeys
    are built vectorized (no per-row Python)."""
    from ..stages.tiles import slippy_encode, quadkeys

    Z = 8
    ds = _read(sf_dir, "events", ["event_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lon = ((eid * 7919) % 36000) / 100.0 - 180.0
        lat = ((eid * 104729) % 18000) / 100.0 - 90.0
        xt, yt = slippy_encode(lon, lat, Z)
        df = pd.DataFrame({"tile_x": xt, "tile_y": yt,
                           "value": t["value"].to_numpy()})
        g = df.groupby(["tile_x", "tile_y"], sort=False).agg(
            psum=("value", "sum"), pcount=("value", "size")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(["tile_x", "tile_y"])
             .aggregate(Sum("psum", alias_name="s"),
                        Sum("pcount", alias_name="n_points")))

    def finish(t: pa.Table) -> pa.Table:
        xt = t["tile_x"].to_numpy()
        yt = t["tile_y"].to_numpy()
        return pa.table({
            "tile_x": xt, "tile_y": yt,
            "quadkey": quadkeys(xt, yt, Z),
            "n_points": t["n_points"],
            "sum_value_e6": _iscale(t["s"].to_numpy(), 1000000)})

    return agg.map_batches(finish, batch_format="pyarrow")


QUERIES.update({"slippy_tiles_events": slippy_tiles_events})

ORACLES.update({
    # quadkey digit i (MSB first) = 2*bit_i(tile_y) + bit_i(tile_x)
    "slippy_tiles_events": """
        WITH t AS (
            SELECT CAST(FLOOR((((event_id * 7919) % 36000) / 100.0 - 180.0
                               + 180.0) / 360.0 * 256.0) AS BIGINT) AS rx,
                   CAST(FLOOR((1.0 - LN(TAN(RADIANS(l)) + 1.0/COS(RADIANS(l)))
                               / PI()) / 2.0 * 256.0) AS BIGINT) AS ry,
                   value
            FROM (SELECT event_id, value,
                         GREATEST(-85.0511287798066, LEAST(85.0511287798066,
                             ((event_id * 104729) % 18000) / 100.0 - 90.0)) AS l
                  FROM events)),
        c AS (SELECT LEAST(GREATEST(rx, 0), 255) AS tile_x,
                     LEAST(GREATEST(ry, 0), 255) AS tile_y, value FROM t),
        g AS (SELECT tile_x, tile_y, COUNT(*) AS n_points,
                     CAST(ROUND(SUM(value) * 1000000) AS BIGINT) AS sum_value_e6
              FROM c GROUP BY 1, 2)
        SELECT g.tile_x, g.tile_y,
               (SELECT string_agg(
                           CAST(((g.tile_y >> (7 - CAST(r.range AS INTEGER))) & 1) * 2
                                + ((g.tile_x >> (7 - CAST(r.range AS INTEGER))) & 1)
                                AS VARCHAR), '' ORDER BY r.range)
                FROM range(8) r) AS quadkey,
               g.n_points, g.sum_value_e6
        FROM g
    """,
})


def od_matrix_events(sf_dir: str):
    """Per-user origin->destination transition matrix over 10-degree
    cells: the mobility-analytics staple.  LAG(cell) OVER (PARTITION BY
    user ORDER BY ts, event_id) at unbounded user cardinality via the
    group_shift carry chain (one range sort, no per-group Python), then
    a bounded (648 x 648 max) transition-count groupby with a
    within-batch combiner."""
    from ..stages.window import group_shift

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def cellify(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        cell = ((eid * 104729) % 18000 // 1000) * 36 \
            + ((eid * 7919) % 36000 // 1000)
        return pa.table({"event_id": t["event_id"], "ts": t["ts"],
                         "user_id": t["user_id"],
                         "cell": pa.array(cell, pa.int64())})

    lag = group_shift(ds.map_batches(cellify, batch_format="pyarrow"),
                      "user_id", ["ts", "event_id"], "cell",
                      k=1, out_col="o_cell")

    def partial(t: pa.Table) -> pa.Table:
        o = t["o_cell"].to_numpy(zero_copy_only=False)
        d = t["cell"].to_numpy()
        ok = ~np.isnan(o)
        df = pd.DataFrame({"o_cell": o[ok].astype(np.int64),
                           "d_cell": d[ok]})
        g = df.groupby(["o_cell", "d_cell"], sort=False).size() \
              .reset_index(name="pn")
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (lag.map_batches(partial, batch_format="pyarrow")
              .groupby(["o_cell", "d_cell"])
              .aggregate(Sum("pn", alias_name="n_trips")))
    return agg.map_batches(
        lambda t: pa.table({"o_cell": t["o_cell"], "d_cell": t["d_cell"],
                            "n_trips": pc.cast(t["n_trips"], pa.int64())}),
        batch_format="pyarrow")


QUERIES.update({"od_matrix_events": od_matrix_events})

ORACLES.update({
    "od_matrix_events": """
        WITH c AS (
            SELECT user_id, ts, event_id,
                   ((event_id * 104729) % 18000 // 1000) * 36
                   + ((event_id * 7919) % 36000 // 1000) AS cell
            FROM events),
        l AS (
            SELECT cell AS d_cell,
                   LAG(cell) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) AS o_cell
            FROM c)
        SELECT o_cell, d_cell, COUNT(*) AS n_trips
        FROM l WHERE o_cell IS NOT NULL GROUP BY 1, 2
    """,
})


def dbscan_cells_events(sf_dir: str):
    """DBSCAN-style spatial cluster detection over a 10-degree grid:
    cells with >= minpts points are "core"; core cells that touch
    (8-neighborhood, no dateline wrap — documented) belong to one
    cluster, labeled by the component's minimum cell id.  The engine
    shape is scale-honest end to end: bounded-cell count aggregate ->
    filter -> vectorized 8-neighbor candidate emission -> hash
    semi-join against the core set (no broadcast of the point table)
    -> connected_components (the large-star/small-star fixed point) ->
    left-outer join back so isolated core cells are their own
    singleton clusters.  Oracle: recursive-CTE label reachability with
    MIN-label fold."""
    from ..stages.bloom import _coalesce_for_join
    from ..stages.components import connected_components
    from ..stages.join import _join_partitions

    MINPTS = 16
    ds = _read(sf_dir, "events", ["event_id"])

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        y = (eid * 104729) % 18000 // 1000
        x = (eid * 7919) % 36000 // 1000
        df = pd.DataFrame({"cell": y * 36 + x})
        g = df.groupby("cell", sort=False).size().reset_index(name="pn")
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (ds.map_batches(partial, batch_format="pyarrow")
                .groupby("cell").aggregate(Sum("pn", alias_name="n")))
    core = counts.filter(expr=f"n >= {MINPTS}").materialize()
    if core.count() == 0:
        # typed empty result — no core cells at this minpts
        return ray.data.from_arrow(pa.table({
            "cell": pa.array([], pa.int64()), "x": pa.array([], pa.int64()),
            "y": pa.array([], pa.int64()), "n": pa.array([], pa.int64()),
            "cluster": pa.array([], pa.int64())}))

    def neighbors(t: pa.Table) -> pa.Table:
        c = t["cell"].to_numpy()
        x, y = c % 36, c // 36
        us, vs = [], []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = x + dx, y + dy
                ok = (nx >= 0) & (nx < 36) & (ny >= 0) & (ny < 18)
                us.append(c[ok])
                vs.append((ny * 36 + nx)[ok])
        return pa.table({"u": pa.array(np.concatenate(us), pa.int64()),
                         "v": pa.array(np.concatenate(vs), pa.int64())})

    parts = _join_partitions()
    cand, _ = _coalesce_for_join(
        core.map_batches(neighbors, batch_format="pyarrow"), parts)
    core_keys, _ = _coalesce_for_join(core.map_batches(
        lambda t: pa.table({"v": pc.cast(t["cell"], pa.int64())}),
        batch_format="pyarrow"), parts)
    edges = join_safe(cand, core_keys, join_type="inner",
                      num_partitions=parts, on=("v",))

    cc = connected_components(edges, left_col="u", right_col="v",
                              id_out="cell", cluster_out="cluster")
    core64, _ = _coalesce_for_join(core.map_batches(
        lambda t: pa.table({"cell": pc.cast(t["cell"], pa.int64()),
                            "n": pc.cast(t["n"], pa.int64())}),
        batch_format="pyarrow"), parts)
    cc, _ = _coalesce_for_join(cc, parts)
    lab = join_safe(core64, cc, join_type="left_outer",
                      num_partitions=parts, on=("cell",))

    def finish(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy()
        clu = t["cluster"].to_numpy(zero_copy_only=False).astype(np.float64)
        clu = np.where(np.isnan(clu), cell, clu).astype(np.int64)
        return pa.table({"cell": cell,
                         "x": pa.array(cell % 36, pa.int64()),
                         "y": pa.array(cell // 36, pa.int64()),
                         "n": t["n"],
                         "cluster": pa.array(clu, pa.int64())})

    return lab.map_batches(finish, batch_format="pyarrow")


QUERIES.update({"dbscan_cells_events": dbscan_cells_events})

ORACLES.update({
    "dbscan_cells_events": """
        WITH RECURSIVE core AS (
            SELECT ((event_id * 104729) % 18000 // 1000) * 36
                   + ((event_id * 7919) % 36000 // 1000) AS cell,
                   COUNT(*) AS n
            FROM events GROUP BY 1 HAVING COUNT(*) >= 16),
        e AS (
            SELECT a.cell AS u, b.cell AS v
            FROM core a JOIN core b
              ON (b.cell % 36) BETWEEN (a.cell % 36) - 1 AND (a.cell % 36) + 1
             AND (b.cell // 36) BETWEEN (a.cell // 36) - 1 AND (a.cell // 36) + 1
             AND a.cell <> b.cell),
        reach(cell, lbl) AS (
            SELECT cell, cell FROM core
            UNION
            SELECT e.v, r.lbl FROM reach r JOIN e ON e.u = r.cell)
        SELECT c.cell, c.cell % 36 AS x, c.cell // 36 AS y, c.n,
               MIN(r.lbl) AS cluster
        FROM core c JOIN reach r ON r.cell = c.cell
        GROUP BY c.cell, c.n
    """,
})


def geohash_bins_events(sf_dir: str):
    """Geohash (precision 6) binning: the third industry cell-id
    vocabulary alongside DGGS ids and slippy tiles.  The encoder is
    pure integer bit math after two FLOOR-normalizing divisions (no
    transcendentals — matches all published geohash test vectors), so
    the SQL twin reconstructs every 5-bit char with shift/mask
    arithmetic over a range() join, bit-exact."""
    from ..stages.tiles import geohash_encode

    ds = _read(sf_dir, "events", ["event_id"])

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lon = ((eid * 7919) % 36000) / 100.0 - 180.0
        lat = ((eid * 104729) % 18000) / 100.0 - 90.0
        gh = geohash_encode(lon, lat, precision=6)
        df = pd.DataFrame({"geohash": gh})
        g = df.groupby("geohash", sort=False).size().reset_index(name="pn")
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("geohash").aggregate(Sum("pn", alias_name="n_points")))
    return agg.map_batches(
        lambda t: pa.table({"geohash": t["geohash"],
                            "n_points": pc.cast(t["n_points"], pa.int64())}),
        batch_format="pyarrow")


QUERIES.update({"geohash_bins_events": geohash_bins_events})

ORACLES.update({
    # precision 6 = 30 bits: nlon = nlat = 15.  Overall bit j (0 = MSB):
    # even j -> bit (14 - j//2) of xi, odd j -> bit (14 - j//2) of yi.
    # char k = bits 5k..5k+4 -> base-32 alphabet (no a/i/l/o).
    "geohash_bins_events": """
        WITH p AS (
            SELECT LEAST(GREATEST(CAST(FLOOR(
                       (((event_id * 7919) % 36000) / 100.0 - 180.0 + 180.0)
                       / 360.0 * 32768.0) AS BIGINT), 0), 32767) AS xi,
                   LEAST(GREATEST(CAST(FLOOR(
                       (((event_id * 104729) % 18000) / 100.0 - 90.0 + 90.0)
                       / 180.0 * 32768.0) AS BIGINT), 0), 32767) AS yi
            FROM events),
        g AS (SELECT xi, yi, COUNT(*) AS n FROM p GROUP BY 1, 2),
        bits AS (
            SELECT g.xi, g.yi, g.n,
                   CAST(r.range AS BIGINT) // 5 AS k,
                   (CASE WHEN r.range % 2 = 0
                         THEN (g.xi >> CAST(14 - r.range // 2 AS INTEGER)) & 1
                         ELSE (g.yi >> CAST(14 - r.range // 2 AS INTEGER)) & 1
                    END) << CAST(4 - r.range % 5 AS INTEGER) AS bv,
                   r.range AS j
            FROM g, range(30) r),
        chars AS (
            SELECT xi, yi, n, k, SUM(bv) AS v
            FROM bits GROUP BY xi, yi, n, k),
        gh AS (
            SELECT xi, yi, n,
                   string_agg(substr('0123456789bcdefghjkmnpqrstuvwxyz',
                                     CAST(v AS INTEGER) + 1, 1),
                              '' ORDER BY k) AS geohash
            FROM chars GROUP BY xi, yi, n)
        SELECT geohash, CAST(SUM(n) AS BIGINT) AS n_points FROM gh GROUP BY 1
    """,
})


def heatmap_smooth_events(sf_dir: str):
    """3x3 integer-kernel heatmap smoothing over the 1-degree grid (the
    (1,2,1;2,4,2;1,2,1) binomial tap — sum 16): each occupied cell
    scatters weighted contributions to its 9 targets (border-clipped, no
    wrap), one bounded grouped sum gathers.  Smoothed mass appears on
    never-occupied neighbor cells — the halo — exactly as in the SQL
    cross-join twin.  Integer weights keep the fold exact."""
    ds = _read(sf_dir, "events", ["event_id"])

    DX = np.array([-1, 0, 1, -1, 0, 1, -1, 0, 1], dtype=np.int64)
    DY = np.array([-1, -1, -1, 0, 0, 0, 1, 1, 1], dtype=np.int64)
    W = np.array([1, 2, 1, 2, 4, 2, 1, 2, 1], dtype=np.int64)

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        y = (eid * 104729) % 18000 // 100
        x = (eid * 7919) % 36000 // 100
        df = pd.DataFrame({"x": x, "y": y})
        g = df.groupby(["x", "y"], sort=False).size().reset_index(name="n")
        gx = g["x"].to_numpy()
        gy = g["y"].to_numpy()
        gn = g["n"].to_numpy()
        tx = (gx[:, None] + DX).ravel()
        ty = (gy[:, None] + DY).ravel()
        tw = (gn[:, None] * W).ravel()
        ok = (tx >= 0) & (tx < 360) & (ty >= 0) & (ty < 180)
        out = pd.DataFrame({"x": tx[ok], "y": ty[ok], "w": tw[ok]})
        o = out.groupby(["x", "y"], sort=False)["w"].sum().reset_index()
        return pa.Table.from_pandas(o, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(["x", "y"]).aggregate(Sum("w", alias_name="wsum")))
    return agg.map_batches(
        lambda t: pa.table({"x": pc.cast(t["x"], pa.int64()),
                            "y": pc.cast(t["y"], pa.int64()),
                            "wsum": pc.cast(t["wsum"], pa.int64())}),
        batch_format="pyarrow")


QUERIES.update({"heatmap_smooth_events": heatmap_smooth_events})

ORACLES.update({
    "heatmap_smooth_events": """
        WITH c AS (
            SELECT ((event_id * 7919) % 36000 // 100) AS x,
                   ((event_id * 104729) % 18000 // 100) AS y,
                   COUNT(*) AS n
            FROM events GROUP BY 1, 2),
        d(dx, dy, w) AS (VALUES (-1,-1,1),(0,-1,2),(1,-1,1),
                                (-1,0,2),(0,0,4),(1,0,2),
                                (-1,1,1),(0,1,2),(1,1,1))
        SELECT c.x + d.dx AS x, c.y + d.dy AS y,
               CAST(SUM(d.w * c.n) AS BIGINT) AS wsum
        FROM c, d
        WHERE c.x + d.dx BETWEEN 0 AND 359
          AND c.y + d.dy BETWEEN 0 AND 179
        GROUP BY 1, 2
    """,
})


def dwell_episodes_events(sf_dir: str):
    """Trajectory dwell-episode detection (staypoint mining): maximal
    runs of >= 3 consecutive events of a user inside one coarse region
    (60x90-degree, 12 regions), found with the gaps-and-islands law
    rn_user - rn_user_region = const — two group_row_number carry
    chains (no per-group Python, unbounded users) + one composite-key
    grouped_reduce for (count, start, end)."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.window import group_row_number

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def cellify(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        region = ((eid * 104729) % 18000 // 9000) * 6 \
            + ((eid * 7919) % 36000 // 6000)
        ts_us = pc.cast(t["ts"], pa.int64()).to_numpy()
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"],
                         "ts_us": pa.array(ts_us, pa.int64()),
                         "region": pa.array(region, pa.int64())})

    base = ds.map_batches(cellify, batch_format="pyarrow")
    rn1 = group_row_number(base, "user_id", ["ts_us", "event_id"],
                           out_col="rn1")

    def pack(t: pa.Table) -> pa.Table:
        uk = t["user_id"].to_numpy() * 12 + t["region"].to_numpy()
        t = t.append_column("ukey", pa.array(uk, pa.int64()))
        return t.append_column("_one", pa.array(
            np.ones(t.num_rows, dtype=np.int64)))

    rn2 = group_row_number(rn1.map_batches(pack, batch_format="pyarrow"),
                           "ukey", ["ts_us", "event_id"], out_col="rn2")

    def island(t: pa.Table) -> pa.Table:
        isl = t["rn1"].to_numpy() - t["rn2"].to_numpy()
        t = t.append_column("island", pa.array(isl, pa.int64()))
        return t.append_column("ts_b", t["ts_us"])

    runs = grouped_reduce(
        rn2.map_batches(island, batch_format="pyarrow"),
        key=["user_id", "region", "island"],
        col_map={"_one": "n_events", "ts_us": "start_us", "ts_b": "end_us"},
        how={"_one": "sum", "ts_us": "min", "ts_b": "max"})

    def finish(t: pa.Table) -> pa.Table:
        keep = pc.greater_equal(t["n_events"], 3)
        t = t.filter(keep)
        return pa.table({"user_id": t["user_id"], "region": t["region"],
                         "n_events": pc.cast(t["n_events"], pa.int64()),
                         "start_us": pc.cast(t["start_us"], pa.int64()),
                         "end_us": pc.cast(t["end_us"], pa.int64())})

    return runs.map_batches(finish, batch_format="pyarrow")


QUERIES.update({"dwell_episodes_events": dwell_episodes_events})

ORACLES.update({
    "dwell_episodes_events": """
        WITH c AS (
            SELECT user_id, ts, event_id,
                   ((event_id * 104729) % 18000 // 9000) * 6
                   + ((event_id * 7919) % 36000 // 6000) AS region
            FROM events),
        r AS (
            SELECT user_id, region, ts,
                   ROW_NUMBER() OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id)
                   - ROW_NUMBER() OVER (PARTITION BY user_id, region
                                        ORDER BY ts, event_id) AS island
            FROM c)
        SELECT user_id, region, COUNT(*) AS n_events,
               MIN(epoch_us(ts)) AS start_us, MAX(epoch_us(ts)) AS end_us
        FROM r GROUP BY user_id, region, island
        HAVING COUNT(*) >= 3
    """,
})


def entropy_by_user_events(sf_dir: str):
    """Per-user Shannon entropy of the event-type distribution at
    unbounded user cardinality: one grouped count on (user, type), one
    grouped_reduce folding (N, sum n*ln n) per user, then the closed
    form H = ln(N) - (sum n ln n)/N vectorized — no per-group Python,
    no driver materialization."""
    from ..stages.groupagg import grouped_count, grouped_reduce

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    c = grouped_count(ds, ["user_id", "event_type"], out_col="n")

    def prep(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy().astype(np.float64)
        return pa.table({"user_id": t["user_id"],
                         "n": t["n"],
                         "nlogn": pa.array(n * np.log(n), pa.float64())})

    u = grouped_reduce(c.map_batches(prep, batch_format="pyarrow"),
                       key="user_id",
                       col_map={"n": "N", "nlogn": "S"}, how="sum")

    def finish(t: pa.Table) -> pa.Table:
        N = t["N"].to_numpy().astype(np.float64)
        S = t["S"].to_numpy()
        H = np.log(N) - S / N
        return pa.table({"user_id": t["user_id"],
                         "entropy_e6": _iscale(H, 1000000),
                         "n_events": pc.cast(t["N"], pa.int64())})

    return u.map_batches(finish, batch_format="pyarrow")


QUERIES.update({"entropy_by_user_events": entropy_by_user_events})

ORACLES.update({
    "entropy_by_user_events": """
        WITH c AS (
            SELECT user_id, event_type, COUNT(*) AS n
            FROM events GROUP BY 1, 2),
        u AS (
            SELECT user_id, SUM(n) AS nn, SUM(n * LN(n)) AS s
            FROM c GROUP BY 1)
        SELECT user_id,
               CAST(ROUND((LN(nn) - s / nn) * 1000000) AS BIGINT) AS entropy_e6,
               CAST(nn AS BIGINT) AS n_events
        FROM u
    """,
})


def bearing_histogram_events(sf_dir: str):
    """Compass-sector histogram of per-user transition bearings (the
    movement-direction profile): LAG(event_id) via the group_shift
    carry chain, previous coordinates re-derived from the lagged id
    (integer-exact), initial great-circle bearing by the standard
    atan2 formula, 16 x 22.5-degree sectors.  Sector parity with the
    SQL twin verified over 200k random centi-degree pairs."""
    from ..stages.window import group_shift

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    lag = group_shift(ds, "user_id", ["ts", "event_id"], "event_id",
                      k=1, out_col="prev_eid")

    def partial(t: pa.Table) -> pa.Table:
        prev = t["prev_eid"].to_numpy(zero_copy_only=False)
        ok = ~np.isnan(prev)
        e2 = t["event_id"].to_numpy()[ok]
        e1 = prev[ok].astype(np.int64)
        lon1 = ((e1 * 7919) % 36000) / 100.0 - 180.0
        lat1 = ((e1 * 104729) % 18000) / 100.0 - 90.0
        lon2 = ((e2 * 7919) % 36000) / 100.0 - 180.0
        lat2 = ((e2 * 104729) % 18000) / 100.0 - 90.0
        p1, l1, p2, l2 = map(np.radians, (lat1, lon1, lat2, lon2))
        dl = l2 - l1
        yv = np.sin(dl) * np.cos(p2)
        xv = np.cos(p1) * np.sin(p2) - np.sin(p1) * np.cos(p2) * np.cos(dl)
        br = np.mod(np.degrees(np.arctan2(yv, xv)) + 360.0, 360.0)
        sector = np.floor(br / 22.5).astype(np.int64)
        sector[sector == 16] = 0
        df = pd.DataFrame({"sector": sector})
        g = df.groupby("sector", sort=False).size().reset_index(name="pn")
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (lag.map_batches(partial, batch_format="pyarrow")
              .groupby("sector").aggregate(Sum("pn", alias_name="n_trips")))
    return agg.map_batches(
        lambda t: pa.table({"sector": t["sector"],
                            "n_trips": pc.cast(t["n_trips"], pa.int64())}),
        batch_format="pyarrow")


QUERIES.update({"bearing_histogram_events": bearing_histogram_events})

ORACLES.update({
    "bearing_histogram_events": """
        WITH c AS (
            SELECT user_id, ts, event_id,
                   ((event_id * 7919) % 36000) / 100.0 - 180.0 AS lon2,
                   ((event_id * 104729) % 18000) / 100.0 - 90.0 AS lat2,
                   LAG(event_id) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id) AS e1
            FROM events),
        p AS (
            SELECT lon2, lat2,
                   ((e1 * 7919) % 36000) / 100.0 - 180.0 AS lon1,
                   ((e1 * 104729) % 18000) / 100.0 - 90.0 AS lat1
            FROM c WHERE e1 IS NOT NULL),
        b AS (
            SELECT CAST(FLOOR(((DEGREES(ATAN2(
                       SIN(RADIANS(lon2) - RADIANS(lon1)) * COS(RADIANS(lat2)),
                       COS(RADIANS(lat1)) * SIN(RADIANS(lat2))
                       - SIN(RADIANS(lat1)) * COS(RADIANS(lat2))
                         * COS(RADIANS(lon2) - RADIANS(lon1))))
                       + 360.0) % 360.0) / 22.5) AS BIGINT) AS s
            FROM p)
        SELECT (CASE WHEN s = 16 THEN 0 ELSE s END) AS sector,
               COUNT(*) AS n_trips
        FROM b GROUP BY 1
    """,
})


def media_geo_inherit_spans(sf_dir: str):
    """Flagship-adjacent interleaved-spans rule: each media span (image/
    audio) inherits the cell of the nearest PRECEDING geo span in its
    document — the context-assignment semantics of interleaved
    documents.  Runs stages/spans.inherit_media_cells (within-row
    vectorized LOCF: spans of a doc live in one list cell, so no
    explode, no shuffle, media payloads never move) over the
    deterministic 4000-doc synthetic spans table, then one bounded
    res-1 cell count.  Oracle: pinned VALUES derived by an independent
    per-row Python loop over the same generator (experiments note in
    the docstring; cross-validated total = 5033 media spans)."""
    from ..sources.spans_table import spans_dataset
    from ..stages.spans import inherit_media_cells

    ds = spans_dataset(4000, batch_rows=500)
    rows = inherit_media_cells(ds, resolution=1)

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"cell_id": t["cell_id"].to_numpy()})
        g = df.groupby("cell_id", sort=False).size().reset_index(name="pn")
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (rows.map_batches(partial, batch_format="pyarrow")
               .groupby("cell_id").aggregate(Sum("pn", alias_name="n_media")))
    return agg.map_batches(
        lambda t: pa.table({"cell_id": t["cell_id"],
                            "n_media": pc.cast(t["n_media"], pa.int64())}),
        batch_format="pyarrow")


QUERIES.update({"media_geo_inherit_spans": media_geo_inherit_spans})

ORACLES.update({
    "media_geo_inherit_spans": """
        SELECT * FROM (VALUES
            (-9079256848778919937, 29),
            (-8935141660703064065, 55),
            (-8791026472627208193, 41),
            (-8646911284551352321, 27),
            (-8502796096475496449, 42),
            (-8214565720323784705, 41),
            (-7926335344172072961, 29),
            (-7782220156096217089, 38),
            (-7638104968020361217, 42),
            (-7493989779944505345, 45),
            (-7349874591868649473, 32),
            (-7061644215716937729, 34),
            (-6773413839565225985, 30),
            (-6629298651489370113, 32),
            (-6485183463413514241, 23),
            (-6341068275337658369, 27),
            (-6196953087261802497, 38),
            (-5908722711110090753, 41),
            (-5620492334958379009, 19),
            (-5476377146882523137, 103),
            (-5332261958806667265, 42),
            (-5188146770730811393, 36),
            (-5044031582654955521, 42),
            (-4899916394579099649, 24),
            (144115188075855871, 322),
            (288230376151711743, 44),
            (432345564227567615, 43),
            (576460752303423487, 125),
            (720575940379279359, 42),
            (864691128455135231, 17),
            (1297036692682702847, 43),
            (1441151880758558719, 39),
            (1585267068834414591, 27),
            (1729382256910270463, 26),
            (1873497444986126335, 31),
            (2161727821137838079, 38),
            (2449958197289549823, 897),
            (2594073385365405695, 114),
            (2738188573441261567, 37),
            (2882303761517117439, 33),
            (3026418949592973311, 74),
            (3314649325744685055, 41),
            (3602879701896396799, 35),
            (3746994889972252671, 105),
            (3891110078048108543, 40),
            (4179340454199820287, 35),
            (4323455642275676159, 33),
            (4467570830351532031, 28),
            (4755801206503243775, 20),
            (4899916394579099647, 34),
            (5044031582654955519, 36),
            (5332261958806667263, 50),
            (5476377146882523135, 40),
            (5620492334958379007, 51),
            (5908722711110090751, 36),
            (6052837899185946623, 126),
            (6196953087261802495, 171),
            (6485183463413514239, 29),
            (6629298651489370111, 729),
            (6773413839565225983, 77),
            (7061644215716937727, 26),
            (7205759403792793599, 29),
            (7349874591868649471, 44),
            (7493989779944505343, 38),
            (7638104968020361215, 42),
            (7926335344172072959, 40),
            (8214565720323784703, 27),
            (8358680908399640575, 42),
            (8502796096475496447, 42),
            (8646911284551352319, 34),
            (8791026472627208191, 27),
            (9079256848778919935, 62)
        ) AS t(cell_id, n_media)
    """,
})


def hotspot_gi_events(sf_dir: str):
    """Getis-Ord Gi* hotspot z-scores over the full 1-degree grid
    domain (n = 64800 cells): the standard local spatial-statistics
    operator for 'where is activity significantly clustered'.
    Neighborhood sums come from the heatmap scatter-gather (weight-1
    3x3 kernel, border-clipped); the global mean/variance are two
    integer scalars (one narrow aggregate, answer-sized driver fold);
    the z formula is then a pure deterministic float function of
    integers — bit-exact against the SQL twin (no sum-order
    dependence anywhere).  Emits cells whose 3x3 window is occupied
    (S_i > 0): the occupied set plus its halo."""
    ds = _read(sf_dir, "events", ["event_id"])

    DX = np.array([-1, 0, 1, -1, 0, 1, -1, 0, 1], dtype=np.int64)
    DY = np.array([-1, -1, -1, 0, 0, 0, 1, 1, 1], dtype=np.int64)

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        y = (eid * 104729) % 18000 // 100
        x = (eid * 7919) % 36000 // 100
        df = pd.DataFrame({"x": x, "y": y})
        g = df.groupby(["x", "y"], sort=False).size().reset_index(name="n")
        gx = g["x"].to_numpy()
        gy = g["y"].to_numpy()
        gn = g["n"].to_numpy()
        tx = (gx[:, None] + DX).ravel()
        ty = (gy[:, None] + DY).ravel()
        tn = np.repeat(gn, 9)
        ok = (tx >= 0) & (tx < 360) & (ty >= 0) & (ty < 180)
        # per-batch partials: neighborhood scatter + the two global scalars
        out = pd.DataFrame({"x": tx[ok], "y": ty[ok], "s": tn[ok]})
        o = out.groupby(["x", "y"], sort=False)["s"].sum().reset_index()
        o["t"] = 0
        o["sq"] = 0
        scal = pd.DataFrame({"x": [-1], "y": [-1], "s": [0],
                             "t": [int(gn.sum())],
                             "sq": [int((gn.astype(np.int64) ** 2).sum())]})
        return pa.Table.from_pandas(pd.concat([o, scal], ignore_index=True),
                                    preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(["x", "y"])
             .aggregate(Sum("s", alias_name="S"), Sum("t", alias_name="T"),
                        Sum("sq", alias_name="SQ"))).materialize()
    scal = agg.filter(expr="x == -1").take_all()[0]
    T, SQ = float(scal["T"]), float(scal["SQ"])
    N = 64800.0
    xbar = T / N
    s = np.sqrt(SQ / N - xbar * xbar)

    def finish(t: pa.Table) -> pa.Table:
        x = t["x"].to_numpy()
        keep = x >= 0
        x = x[keep]
        y = t["y"].to_numpy()[keep]
        S = t["S"].to_numpy()[keep].astype(np.float64)
        W = ((1.0 + (x > 0) + (x < 359))
             * (1.0 + (y > 0) + (y < 179))).astype(np.float64)
        z = (S - xbar * W) / (s * np.sqrt((N * W - W * W) / (N - 1.0)))
        return pa.table({"x": pa.array(x, pa.int64()),
                         "y": pa.array(y, pa.int64()),
                         "gi_z_e6": _iscale(z, 1000000)})

    return agg.map_batches(finish, batch_format="pyarrow")


QUERIES.update({"hotspot_gi_events": hotspot_gi_events})

ORACLES.update({
    "hotspot_gi_events": """
        WITH c AS (
            SELECT ((event_id * 7919) % 36000 // 100) AS x,
                   ((event_id * 104729) % 18000 // 100) AS y,
                   COUNT(*) AS n
            FROM events GROUP BY 1, 2),
        d(dx, dy) AS (VALUES (-1,-1),(0,-1),(1,-1),(-1,0),(0,0),(1,0),
                             (-1,1),(0,1),(1,1)),
        s AS (
            SELECT c.x + d.dx AS x, c.y + d.dy AS y,
                   CAST(SUM(c.n) AS DOUBLE) AS si
            FROM c, d
            WHERE c.x + d.dx BETWEEN 0 AND 359
              AND c.y + d.dy BETWEEN 0 AND 179
            GROUP BY 1, 2),
        g AS (SELECT CAST(SUM(n) AS DOUBLE) AS t,
                     CAST(SUM(n * n) AS DOUBLE) AS sq FROM c)
        SELECT s.x, s.y,
               CAST(ROUND(
                   (s.si - (g.t / 64800.0)
                    * ((1.0 + (CASE WHEN s.x > 0 THEN 1 ELSE 0 END)
                            + (CASE WHEN s.x < 359 THEN 1 ELSE 0 END))
                       * (1.0 + (CASE WHEN s.y > 0 THEN 1 ELSE 0 END)
                              + (CASE WHEN s.y < 179 THEN 1 ELSE 0 END))))
                   / (SQRT(g.sq / 64800.0 - (g.t / 64800.0) * (g.t / 64800.0))
                      * SQRT((64800.0
                              * ((1.0 + (CASE WHEN s.x > 0 THEN 1 ELSE 0 END)
                                      + (CASE WHEN s.x < 359 THEN 1 ELSE 0 END))
                                 * (1.0 + (CASE WHEN s.y > 0 THEN 1 ELSE 0 END)
                                        + (CASE WHEN s.y < 179 THEN 1 ELSE 0 END)))
                              - ((1.0 + (CASE WHEN s.x > 0 THEN 1 ELSE 0 END)
                                      + (CASE WHEN s.x < 359 THEN 1 ELSE 0 END))
                                 * (1.0 + (CASE WHEN s.y > 0 THEN 1 ELSE 0 END)
                                        + (CASE WHEN s.y < 179 THEN 1 ELSE 0 END)))
                                * ((1.0 + (CASE WHEN s.x > 0 THEN 1 ELSE 0 END)
                                        + (CASE WHEN s.x < 359 THEN 1 ELSE 0 END))
                                   * (1.0 + (CASE WHEN s.y > 0 THEN 1 ELSE 0 END)
                                          + (CASE WHEN s.y < 179 THEN 1 ELSE 0 END))))
                             / 64799.0))
                   * 1000000) AS BIGINT) AS gi_z_e6
        FROM s, g
    """,
})


def markov_transitions_events(sf_dir: str):
    """Row-normalized Markov transition probabilities between 10-degree
    regions (the mobility model on top of the OD matrix): transition
    counts from the LAG carry chain, per-origin totals from one bounded
    grouped_reduce (region domain <= 648), probabilities e6-scaled —
    n/total is a pure float function of two integers, bit-exact vs the
    SQL window twin."""
    from ..stages.groupagg import grouped_reduce

    counts = od_matrix_events(sf_dir).materialize()
    totals = grouped_reduce(counts, key="o_cell",
                            col_map={"n_trips": "tot"}, how="sum")
    tot_map = {int(r["o_cell"]): int(r["tot"]) for r in totals.take_all()}
    tref = ray.put(tot_map)

    def finish(t: pa.Table) -> pa.Table:
        lut = ray.get(tref)
        o = t["o_cell"].to_numpy()
        n = t["n_trips"].to_numpy().astype(np.float64)
        tot = pd.Series(o).map(lut).to_numpy(dtype=np.float64)
        return pa.table({"o_cell": t["o_cell"], "d_cell": t["d_cell"],
                         "n_trips": t["n_trips"],
                         "p_e6": _iscale(n / tot, 1000000)})

    return counts.map_batches(finish, batch_format="pyarrow")


QUERIES.update({"markov_transitions_events": markov_transitions_events})

ORACLES.update({
    "markov_transitions_events": """
        WITH c AS (
            SELECT user_id, ts, event_id,
                   ((event_id * 104729) % 18000 // 1000) * 36
                   + ((event_id * 7919) % 36000 // 1000) AS cell
            FROM events),
        l AS (
            SELECT cell AS d_cell,
                   LAG(cell) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) AS o_cell
            FROM c),
        n AS (
            SELECT o_cell, d_cell, COUNT(*) AS n_trips
            FROM l WHERE o_cell IS NOT NULL GROUP BY 1, 2)
        SELECT o_cell, d_cell, n_trips,
               CAST(ROUND(CAST(n_trips AS DOUBLE)
                          / CAST(SUM(n_trips) OVER (PARTITION BY o_cell)
                                 AS DOUBLE) * 1000000) AS BIGINT) AS p_e6
        FROM n
    """,
})


def mean_location_by_user(sf_dir: str):
    """Spherical mean location per user (the 3-D unit-vector mean — the
    correct 'average position' on a sphere, immune to dateline wrap):
    per-user (sum ux, sum uy, sum uz) via ONE grouped_reduce at
    unbounded user cardinality, then closed-form atan2 recovery of
    mean lat/lon, e6-scaled."""
    from ..stages.groupagg import grouped_reduce

    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def unit(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lon = np.radians(((eid * 7919) % 36000) / 100.0 - 180.0)
        lat = np.radians(((eid * 104729) % 18000) / 100.0 - 90.0)
        cl = np.cos(lat)
        return pa.table({"user_id": t["user_id"],
                         "ux": pa.array(cl * np.cos(lon), pa.float64()),
                         "uy": pa.array(cl * np.sin(lon), pa.float64()),
                         "uz": pa.array(np.sin(lat), pa.float64())})

    sums = grouped_reduce(ds.map_batches(unit, batch_format="pyarrow"),
                          key="user_id",
                          col_map={"ux": "sx", "uy": "sy", "uz": "sz"},
                          how="sum")

    def finish(t: pa.Table) -> pa.Table:
        sx = t["sx"].to_numpy()
        sy = t["sy"].to_numpy()
        sz = t["sz"].to_numpy()
        lat_m = np.degrees(np.arctan2(sz, np.sqrt(sx * sx + sy * sy)))
        lon_m = np.degrees(np.arctan2(sy, sx))
        return pa.table({"user_id": t["user_id"],
                         "mean_lat_e6": _iscale(lat_m, 1000000),
                         "mean_lon_e6": _iscale(lon_m, 1000000)})

    return sums.map_batches(finish, batch_format="pyarrow")


QUERIES.update({"mean_location_by_user": mean_location_by_user})

ORACLES.update({
    "mean_location_by_user": """
        WITH p AS (
            SELECT user_id,
                   RADIANS(((event_id * 7919) % 36000) / 100.0 - 180.0) AS lon,
                   RADIANS(((event_id * 104729) % 18000) / 100.0 - 90.0) AS lat
            FROM events),
        s AS (
            SELECT user_id,
                   SUM(COS(lat) * COS(lon)) AS sx,
                   SUM(COS(lat) * SIN(lon)) AS sy,
                   SUM(SIN(lat)) AS sz
            FROM p GROUP BY 1)
        SELECT user_id,
               CAST(ROUND(DEGREES(ATAN2(sz, SQRT(sx * sx + sy * sy)))
                          * 1000000) AS BIGINT) AS mean_lat_e6,
               CAST(ROUND(DEGREES(ATAN2(sy, sx)) * 1000000) AS BIGINT)
                   AS mean_lon_e6
        FROM s
    """,
})


def peak_hour_by_region(sf_dir: str):
    """Peak activity hour per 10-degree region: counts per (region,
    hour-of-day) then the grouped argmax (topk_per_group k=1, ties ->
    earliest hour) — the diurnal-profile reduction."""
    from ..stages.relational import topk_per_group

    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        region = ((eid * 104729) % 18000 // 1000) * 36 \
            + ((eid * 7919) % 36000 // 1000)
        us = pc.cast(t["ts"], pa.int64()).to_numpy()
        hour = us // 3600000000 % 24
        df = pd.DataFrame({"region": region, "hour": hour})
        g = df.groupby(["region", "hour"], sort=False).size() \
              .reset_index(name="pn")
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (ds.map_batches(partial, batch_format="pyarrow")
                .groupby(["region", "hour"])
                .aggregate(Sum("pn", alias_name="n")))
    top = topk_per_group(counts, "region", "n", k=1, id_col="hour",
                         descending=True)
    return top.map_batches(
        lambda t: pa.table({"region": t["region"],
                            "peak_hour": pc.cast(t["hour"], pa.int64()),
                            "n_events": pc.cast(t["n"], pa.int64())}),
        batch_format="pyarrow")


QUERIES.update({"peak_hour_by_region": peak_hour_by_region})

ORACLES.update({
    "peak_hour_by_region": """
        WITH c AS (
            SELECT ((event_id * 104729) % 18000 // 1000) * 36
                   + ((event_id * 7919) % 36000 // 1000) AS region,
                   epoch_us(ts) // 3600000000 % 24 AS hour,
                   COUNT(*) AS n
            FROM events GROUP BY 1, 2),
        r AS (
            SELECT region, hour, n,
                   ROW_NUMBER() OVER (PARTITION BY region
                                      ORDER BY n DESC, hour) AS rk
            FROM c)
        SELECT region, CAST(hour AS BIGINT) AS peak_hour,
               CAST(n AS BIGINT) AS n_events
        FROM r WHERE rk = 1
    """,
})


def colocation_pairs_events(sf_dir: str):
    """Co-presence detection (the contact-graph builder): user pairs
    observed in the SAME 10-degree region on the SAME day, >= 2 distinct
    co-located (region, day) occurrences.  Distinct co-presence rows
    first (one grouped count), then within-bucket pair enumeration
    (triu, vectorized) per (region, day) block — bucket occupancy is
    bounded by active-users-per-region-day, the documented regime — and
    one grouped count of pair occurrences."""
    from ..stages.groupagg import grouped_count

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def bucketize(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        region = ((eid * 104729) % 18000 // 1000) * 36 \
            + ((eid * 7919) % 36000 // 1000)
        us = pc.cast(t["ts"], pa.int64()).to_numpy()
        day = us // 86400000000
        return pa.table({"user_id": t["user_id"],
                         "bk": pa.array(region * 100000 + day, pa.int64())})

    pres = grouped_count(ds.map_batches(bucketize, batch_format="pyarrow"),
                         ["bk", "user_id"], out_col="_n")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        u = np.sort(g["user_id"].to_numpy())
        if len(u) < 2:
            return pd.DataFrame({"user_a": np.array([], np.int64),
                                 "user_b": np.array([], np.int64)})
        ai, bi = np.triu_indices(len(u), k=1)
        return pd.DataFrame({"user_a": u[ai], "user_b": u[bi]})

    pp = pres.groupby("bk").map_groups(pairs, batch_format="pandas")
    co = grouped_count(pp, ["user_a", "user_b"], out_col="n_co")
    return co.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_co"], 2)),
        batch_format="pyarrow")


QUERIES.update({"colocation_pairs_events": colocation_pairs_events})

ORACLES.update({
    "colocation_pairs_events": """
        WITH p AS (
            SELECT DISTINCT user_id,
                   (((event_id * 104729) % 18000 // 1000) * 36
                    + ((event_id * 7919) % 36000 // 1000)) * 100000
                   + epoch_us(ts) // 86400000000 AS bk
            FROM events)
        SELECT a.user_id AS user_a, b.user_id AS user_b,
               COUNT(*) AS n_co
        FROM p a JOIN p b ON a.bk = b.bk AND a.user_id < b.user_id
        GROUP BY 1, 2 HAVING COUNT(*) >= 2
    """,
})


def radius_of_gyration_users(sf_dir: str):
    """Per-user radius of gyration (Gonzalez et al. 2008, the mobility
    footprint): sqrt(mean squared haversine distance from the user's
    spherical mean location).  Two passes at unbounded user
    cardinality: grouped_reduce unit-vector sums -> closed-form mean
    point, one hash join back to events, grouped_reduce of d^2 — the
    same derived-table two-pass shape as mad_by_flag."""
    from ..stages.bloom import _coalesce_for_join
    from ..stages.groupagg import grouped_reduce
    from ..stages.join import _join_partitions

    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def unit(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lon = np.radians(((eid * 7919) % 36000) / 100.0 - 180.0)
        lat = np.radians(((eid * 104729) % 18000) / 100.0 - 90.0)
        cl = np.cos(lat)
        return pa.table({"user_id": t["user_id"],
                         "ux": pa.array(cl * np.cos(lon), pa.float64()),
                         "uy": pa.array(cl * np.sin(lon), pa.float64()),
                         "uz": pa.array(np.sin(lat), pa.float64()),
                         "one": pa.array(np.ones(t.num_rows, np.int64))})

    sums = grouped_reduce(ds.map_batches(unit, batch_format="pyarrow"),
                          key="user_id",
                          col_map={"ux": "sx", "uy": "sy", "uz": "sz",
                                   "one": "n"}, how="sum")

    def mean_pt(t: pa.Table) -> pa.Table:
        sx = t["sx"].to_numpy()
        sy = t["sy"].to_numpy()
        sz = t["sz"].to_numpy()
        lat_m = np.arctan2(sz, np.sqrt(sx * sx + sy * sy))
        lon_m = np.arctan2(sy, sx)
        return pa.table({"user_id": t["user_id"],
                         "lat_m": pa.array(lat_m, pa.float64()),
                         "lon_m": pa.array(lon_m, pa.float64())})

    parts = _join_partitions()
    means, _ = _coalesce_for_join(
        sums.map_batches(mean_pt, batch_format="pyarrow"), parts)
    joined = join_safe(ds, means, join_type="inner", num_partitions=parts,
                     on=("user_id",))

    R = 6371.007180918475

    def d2(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lon = np.radians(((eid * 7919) % 36000) / 100.0 - 180.0)
        lat = np.radians(((eid * 104729) % 18000) / 100.0 - 90.0)
        lat_m = t["lat_m"].to_numpy()
        lon_m = t["lon_m"].to_numpy()
        a = (np.sin((lat - lat_m) / 2.0) ** 2
             + np.cos(lat_m) * np.cos(lat) * np.sin((lon - lon_m) / 2.0) ** 2)
        d = 2.0 * R * np.arcsin(np.sqrt(np.minimum(a, 1.0)))
        return pa.table({"user_id": t["user_id"],
                         "dsq": pa.array(d * d, pa.float64()),
                         "one": pa.array(np.ones(t.num_rows, np.int64))})

    acc = grouped_reduce(joined.map_batches(d2, batch_format="pyarrow"),
                         key="user_id",
                         col_map={"dsq": "ssq", "one": "n"}, how="sum")

    def finish(t: pa.Table) -> pa.Table:
        rog = np.sqrt(t["ssq"].to_numpy() / t["n"].to_numpy())
        return pa.table({"user_id": t["user_id"],
                         "rog_km_e3": _iscale(rog, 1000),
                         "n_events": pc.cast(t["n"], pa.int64())})

    return acc.map_batches(finish, batch_format="pyarrow")


QUERIES.update({"radius_of_gyration_users": radius_of_gyration_users})

ORACLES.update({
    "radius_of_gyration_users": """
        WITH p AS (
            SELECT user_id,
                   RADIANS(((event_id * 7919) % 36000) / 100.0 - 180.0) AS lon,
                   RADIANS(((event_id * 104729) % 18000) / 100.0 - 90.0) AS lat
            FROM events),
        s AS (
            SELECT user_id,
                   SUM(COS(lat) * COS(lon)) AS sx,
                   SUM(COS(lat) * SIN(lon)) AS sy,
                   SUM(SIN(lat)) AS sz
            FROM p GROUP BY 1),
        m AS (
            SELECT user_id,
                   ATAN2(sz, SQRT(sx * sx + sy * sy)) AS lat_m,
                   ATAN2(sy, sx) AS lon_m
            FROM s),
        d AS (
            SELECT p.user_id,
                   POW(2.0 * 6371.007180918475 * ASIN(SQRT(LEAST(
                       POW(SIN((p.lat - m.lat_m) / 2.0), 2)
                       + COS(m.lat_m) * COS(p.lat)
                         * POW(SIN((p.lon - m.lon_m) / 2.0), 2), 1.0))),
                       2) AS dsq
            FROM p JOIN m ON p.user_id = m.user_id)
        SELECT user_id,
               CAST(ROUND(SQRT(SUM(dsq) / COUNT(*)) * 1000) AS BIGINT)
                   AS rog_km_e3,
               COUNT(*) AS n_events
        FROM d GROUP BY 1
    """,
})


def readability_docs(sf_dir: str):
    """Flesch reading-ease score per document from three RE2-counted
    integers (words, vowel-group 'syllables', sentence-punctuation
    groups, floored at 1 sentence): score = 206.835 - 1.015*(W/S)
    - 84.6*(Y/W) — a pure float function of integers, bit-exact vs the
    SQL twin.  One streaming map; text never shuffles."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        low = pc.utf8_lower(t["text"])
        syl = pc.count_substring_regex(low, "[aeiouy]+").to_numpy() \
                .astype(np.float64)
        words = pc.count_substring_regex(t["text"], "[A-Za-z]+") \
                  .to_numpy().astype(np.float64)
        sents = pc.count_substring_regex(t["text"], "[.!?]+") \
                  .to_numpy().astype(np.float64)
        sents = np.maximum(sents, 1.0)
        words_safe = np.maximum(words, 1.0)
        flesch = 206.835 - 1.015 * (words / sents) \
            - 84.6 * (syl / words_safe)
        return pa.table({"doc_id": t["doc_id"],
                         "n_words": pa.array(words.astype(np.int64)),
                         "flesch_e6": _iscale(flesch, 1000000)})

    return ds.map_batches(score, batch_format="pyarrow")


QUERIES.update({"readability_docs": readability_docs})

ORACLES.update({
    "readability_docs": """
        WITH c AS (
            SELECT doc_id,
                   CAST(len(regexp_extract_all(lower(text), '[aeiouy]+'))
                        AS DOUBLE) AS syl,
                   CAST(len(regexp_extract_all(text, '[A-Za-z]+'))
                        AS DOUBLE) AS words,
                   GREATEST(CAST(len(regexp_extract_all(text, '[.!?]+'))
                                 AS DOUBLE), 1.0) AS sents
            FROM documents)
        SELECT doc_id, CAST(words AS BIGINT) AS n_words,
               CAST(ROUND((206.835 - 1.015 * (words / sents)
                           - 84.6 * (syl / GREATEST(words, 1.0)))
                          * 1000000) AS BIGINT) AS flesch_e6
        FROM c
    """,
})


def burstiness_by_user(sf_dir: str):
    """Goh-Barabasi burstiness B = (sigma - mu) / (sigma + mu) of
    per-user inter-event gaps: LAG(ts) via the group_shift carry chain,
    per-user (sum dt, sum dt^2, n) in ONE grouped_reduce, closed-form
    population sigma — unbounded users, no per-group Python."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.window import group_shift

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def to_us(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"],
                         "ts_us": pc.cast(t["ts"], pa.int64())})

    lag = group_shift(ds.map_batches(to_us, batch_format="pyarrow"),
                      "user_id", ["ts_us", "event_id"], "ts_us",
                      k=1, out_col="prev_us")

    def gaps(t: pa.Table) -> pa.Table:
        prev = t["prev_us"].to_numpy(zero_copy_only=False)
        ok = ~np.isnan(prev)
        dt = (t["ts_us"].to_numpy()[ok] - prev[ok]) / 1000000.0
        return pa.table({"user_id": t["user_id"].filter(pa.array(ok)),
                         "dt": pa.array(dt, pa.float64()),
                         "dt2": pa.array(dt * dt, pa.float64()),
                         "one": pa.array(np.ones(int(ok.sum()), np.int64))})

    acc = grouped_reduce(lag.map_batches(gaps, batch_format="pyarrow"),
                         key="user_id",
                         col_map={"dt": "s1", "dt2": "s2", "one": "n"},
                         how="sum")

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy().astype(np.float64)
        mu = t["s1"].to_numpy() / n
        var = t["s2"].to_numpy() / n - mu * mu
        sig = np.sqrt(np.maximum(var, 0.0))
        b = (sig - mu) / (sig + mu)
        return pa.table({"user_id": t["user_id"],
                         "burstiness_e6": _iscale(b, 1000000),
                         "n_gaps": pc.cast(t["n"], pa.int64())})

    return acc.map_batches(finish, batch_format="pyarrow")


QUERIES.update({"burstiness_by_user": burstiness_by_user})

ORACLES.update({
    "burstiness_by_user": """
        WITH l AS (
            SELECT user_id, epoch_us(ts) AS ts_us,
                   LAG(epoch_us(ts)) OVER (PARTITION BY user_id
                                           ORDER BY epoch_us(ts), event_id)
                       AS prev_us
            FROM events),
        g AS (
            SELECT user_id, (ts_us - prev_us) / 1000000.0 AS dt
            FROM l WHERE prev_us IS NOT NULL),
        a AS (
            SELECT user_id, SUM(dt) AS s1, SUM(dt * dt) AS s2,
                   COUNT(*) AS n
            FROM g GROUP BY 1)
        SELECT user_id,
               CAST(ROUND(((SQRT(GREATEST(s2 / n - (s1/n) * (s1/n), 0.0))
                            - s1 / n)
                           / (SQRT(GREATEST(s2 / n - (s1/n) * (s1/n), 0.0))
                              + s1 / n)) * 1000000) AS BIGINT)
                   AS burstiness_e6,
               CAST(n AS BIGINT) AS n_gaps
        FROM a
    """,
})


def zipf_slope_by_lang(sf_dir: str):
    """Zipf-law slope per language: whitespace-token counts (vocab-
    bounded aggregate — the generator vocabulary is ~170 words), top
    100 tokens per lang (ties -> token asc), OLS slope of ln(count) on
    ln(rank) folded from five sums.  Text never shuffles; the token
    shuffle is vocab-bounded."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.relational import topk_per_group

    ds = _read(sf_dir, "documents", ["text", "lang"])

    def toks(t: pa.Table) -> pa.Table:
        lang = t["lang"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_numpy(zero_copy_only=False)
        split = [s.split(" ") for s in texts]
        counts = np.array([len(x) for x in split])
        flat = np.concatenate([np.asarray(x, object) for x in split]) \
            if split else np.array([], object)
        lrep = np.repeat(lang, counts)
        keep = flat != ""
        df = pd.DataFrame({"lang": lrep[keep], "token": flat[keep]})
        g = df.groupby(["lang", "token"], sort=False).size() \
              .reset_index(name="pn")
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (ds.map_batches(toks, batch_format="pyarrow")
                .groupby(["lang", "token"])
                .aggregate(Sum("pn", alias_name="n")))
    # topk_per_group already emits rank 1..k per group (n desc, token asc)
    ranked = topk_per_group(counts, "lang", "n", k=100, id_col="token",
                            descending=True)

    def ols_prep(t: pa.Table) -> pa.Table:
        x = np.log(t["rank"].to_numpy().astype(np.float64))
        y = np.log(t["n"].to_numpy().astype(np.float64))
        return pa.table({"lang": t["lang"],
                         "x": pa.array(x), "y": pa.array(y),
                         "xy": pa.array(x * y), "xx": pa.array(x * x),
                         "one": pa.array(np.ones(t.num_rows, np.int64))})

    s = grouped_reduce(ranked.map_batches(ols_prep, batch_format="pyarrow"),
                       key="lang",
                       col_map={"x": "sx", "y": "sy", "xy": "sxy",
                                "xx": "sxx", "one": "n"}, how="sum")

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy().astype(np.float64)
        sx = t["sx"].to_numpy()
        sy = t["sy"].to_numpy()
        slope = (n * t["sxy"].to_numpy() - sx * sy) \
            / (n * t["sxx"].to_numpy() - sx * sx)
        return pa.table({"lang": t["lang"],
                         "zipf_slope_e6": _iscale(slope, 1000000),
                         "n_tokens": pc.cast(t["n"], pa.int64())})

    return s.map_batches(finish, batch_format="pyarrow")


QUERIES.update({"zipf_slope_by_lang": zipf_slope_by_lang})

ORACLES.update({
    "zipf_slope_by_lang": """
        WITH tok AS (
            SELECT lang, t.tok AS token
            FROM documents,
                 LATERAL UNNEST(string_split(text, ' ')) AS t(tok)
            WHERE t.tok <> ''),
        c AS (
            SELECT lang, token, COUNT(*) AS n
            FROM tok GROUP BY 1, 2),
        r AS (
            SELECT lang, n,
                   ROW_NUMBER() OVER (PARTITION BY lang
                                      ORDER BY n DESC, token) AS rank
            FROM c),
        k AS (SELECT lang, LN(CAST(rank AS DOUBLE)) AS x,
                     LN(CAST(n AS DOUBLE)) AS y
              FROM r WHERE rank <= 100),
        a AS (
            SELECT lang, SUM(x) AS sx, SUM(y) AS sy, SUM(x * y) AS sxy,
                   SUM(x * x) AS sxx, COUNT(*) AS n
            FROM k GROUP BY 1)
        SELECT lang,
               CAST(ROUND((n * sxy - sx * sy) / (n * sxx - sx * sx)
                          * 1000000) AS BIGINT) AS zipf_slope_e6,
               CAST(n AS BIGINT) AS n_tokens
        FROM a
    """,
})


def trend_regions_events(sf_dir: str):
    """Mann-Kendall trend statistic per 10-degree region over monthly
    activity counts: S = sum over month pairs (i < j) of
    sign(n_j - n_i), the standard nonparametric 'is activity rising'
    test.  Counts per (region, month) are one bounded aggregate
    (region domain <= 648, months <= observed span); the pairwise fold
    runs per-region vectorized (months are few — the documented
    bounded regime; observed months only, absent months are NOT
    zero-filled)."""
    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        region = ((eid * 104729) % 18000 // 1000) * 36 \
            + ((eid * 7919) % 36000 // 1000)
        us = pc.cast(t["ts"], pa.int64()).to_numpy()
        month = us // 86400000000 // 30          # 30-day month buckets
        df = pd.DataFrame({"region": region, "month": month})
        g = df.groupby(["region", "month"], sort=False).size() \
              .reset_index(name="pn")
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (ds.map_batches(partial, batch_format="pyarrow")
                .groupby(["region", "month"])
                .aggregate(Sum("pn", alias_name="n")))

    def mk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("month")
        n = g["n"].to_numpy().astype(np.int64)
        i, j = np.triu_indices(len(n), k=1)
        s = int(np.sign(n[j] - n[i]).sum())
        return pd.DataFrame({"region": [g["region"].iloc[0]],
                             "mk_s": [s], "n_months": [len(n)]})

    out = counts.groupby("region").map_groups(mk, batch_format="pandas")
    return out.map_batches(
        lambda t: pa.table({"region": pc.cast(t["region"], pa.int64()),
                            "mk_s": pc.cast(t["mk_s"], pa.int64()),
                            "n_months": pc.cast(t["n_months"], pa.int64())}),
        batch_format="pyarrow")


QUERIES.update({"trend_regions_events": trend_regions_events})

ORACLES.update({
    "trend_regions_events": """
        WITH c AS (
            SELECT ((event_id * 104729) % 18000 // 1000) * 36
                   + ((event_id * 7919) % 36000 // 1000) AS region,
                   epoch_us(ts) // 86400000000 // 30 AS month,
                   COUNT(*) AS n
            FROM events GROUP BY 1, 2),
        s AS (
            SELECT a.region,
                   SUM(CASE WHEN b.n > a.n THEN 1
                            WHEN b.n < a.n THEN -1 ELSE 0 END) AS mk_s
            FROM c a JOIN c b
              ON a.region = b.region AND b.month > a.month
            GROUP BY 1),
        m AS (SELECT region, COUNT(*) AS n_months FROM c GROUP BY 1)
        SELECT m.region, CAST(COALESCE(s.mk_s, 0) AS BIGINT) AS mk_s,
               CAST(m.n_months AS BIGINT) AS n_months
        FROM m LEFT JOIN s ON m.region = s.region
    """,
})


def new_cells_last_week(sf_dir: str):
    """Spatial novelty audit: 1-degree cells whose FIRST observation
    falls in the final 7 days of the data — one grouped_reduce
    (min day per cell, global max day) pass, no joins."""
    from ..stages.groupagg import grouped_reduce

    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        cell = ((eid * 104729) % 18000 // 100) * 360 \
            + ((eid * 7919) % 36000 // 100)
        day = pc.cast(t["ts"], pa.int64()).to_numpy() // 86400000000
        return pa.table({"cell": pa.array(cell, pa.int64()),
                         "first_day": pa.array(day, pa.int64()),
                         "gmax": pa.array(day, pa.int64())})

    agg = grouped_reduce(ds.map_batches(prep, batch_format="pyarrow"),
                         key="cell",
                         col_map={"first_day": "first_day", "gmax": "last"},
                         how={"first_day": "min", "gmax": "max"}).materialize()
    gmax = agg.max("last")

    def finish(t: pa.Table) -> pa.Table:
        keep = pc.greater(t["first_day"], gmax - 7)
        t = t.filter(keep)
        return pa.table({"cell": t["cell"],
                         "first_day": pc.cast(t["first_day"], pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow")


QUERIES.update({"new_cells_last_week": new_cells_last_week})

ORACLES.update({
    "new_cells_last_week": """
        WITH c AS (
            SELECT ((event_id * 104729) % 18000 // 100) * 360
                   + ((event_id * 7919) % 36000 // 100) AS cell,
                   MIN(epoch_us(ts) // 86400000000) AS first_day
            FROM events GROUP BY 1),
        g AS (SELECT MAX(epoch_us(ts) // 86400000000) AS gmax FROM events)
        SELECT c.cell, CAST(c.first_day AS BIGINT) AS first_day
        FROM c, g WHERE c.first_day > g.gmax - 7
    """,
})


def home_work_cells_users(sf_dir: str):
    """Home/work location inference (the classic CDR heuristic): per
    user, the modal 10-degree region during night hours (22-06) and
    during day hours (08-18), each via the grouped argmax at unbounded
    (user x daypart) key cardinality, zipped with one user-keyed hash
    join."""
    from ..stages.bloom import _coalesce_for_join
    from ..stages.join import _join_partitions
    from ..stages.relational import topk_per_group

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def prep(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        region = ((eid * 104729) % 18000 // 1000) * 36 \
            + ((eid * 7919) % 36000 // 1000)
        hour = pc.cast(t["ts"], pa.int64()).to_numpy() \
            // 3600000000 % 24
        night = (hour >= 22) | (hour < 6)
        day = (hour >= 8) & (hour < 18)
        part = np.where(night, 0, np.where(day, 1, -1))
        uid = t["user_id"].to_numpy()
        keep = part >= 0
        df = pd.DataFrame({"upart": uid[keep] * 2 + part[keep],
                           "region": region[keep]})
        g = df.groupby(["upart", "region"], sort=False).size() \
              .reset_index(name="pn")
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (ds.map_batches(prep, batch_format="pyarrow")
                .groupby(["upart", "region"])
                .aggregate(Sum("pn", alias_name="n")))
    top = topk_per_group(counts, "upart", "n", k=1, id_col="region",
                         descending=True)

    parts = _join_partitions()

    def unpack(which: int):
        def f(t: pa.Table) -> pa.Table:
            up = t["upart"].to_numpy()
            keep = (up % 2) == which
            name = "home_region" if which == 0 else "work_region"
            return pa.table({
                "user_id": pa.array(up[keep] // 2, pa.int64()),
                name: pc.cast(t["region"].filter(pa.array(keep)),
                              pa.int64())})
        return f

    home, _ = _coalesce_for_join(
        top.map_batches(unpack(0), batch_format="pyarrow"), parts)
    work, _ = _coalesce_for_join(
        top.map_batches(unpack(1), batch_format="pyarrow"), parts)
    both = join_safe(home, work, join_type="inner", num_partitions=parts,
                     on=("user_id",))
    return both.map_batches(
        lambda t: t.select(["user_id", "home_region", "work_region"]),
        batch_format="pyarrow")


QUERIES.update({"home_work_cells_users": home_work_cells_users})

ORACLES.update({
    "home_work_cells_users": """
        WITH c AS (
            SELECT user_id,
                   ((event_id * 104729) % 18000 // 1000) * 36
                   + ((event_id * 7919) % 36000 // 1000) AS region,
                   epoch_us(ts) // 3600000000 % 24 AS hour
            FROM events),
        p AS (
            SELECT user_id, region,
                   CASE WHEN hour >= 22 OR hour < 6 THEN 0
                        WHEN hour >= 8 AND hour < 18 THEN 1
                        ELSE -1 END AS part
            FROM c),
        n AS (
            SELECT user_id, part, region, COUNT(*) AS n
            FROM p WHERE part >= 0 GROUP BY 1, 2, 3),
        r AS (
            SELECT user_id, part, region,
                   ROW_NUMBER() OVER (PARTITION BY user_id, part
                                      ORDER BY n DESC, region) AS rk
            FROM n)
        SELECT h.user_id, h.region AS home_region, w.region AS work_region
        FROM (SELECT user_id, region FROM r WHERE part = 0 AND rk = 1) h
        JOIN (SELECT user_id, region FROM r WHERE part = 1 AND rk = 1) w
          ON h.user_id = w.user_id
    """,
})


def nearest_centroid_confusion(sf_dir: str):
    """Nearest-centroid classification audit over the embeddings table:
    per-label centroids from ONE pass of per-batch partial vector sums
    (vectors never shuffle; the fold is label-count x d, answer-sized),
    broadcast back, per-batch cosine argmax (ties -> lowest label), and
    the 10x10 confusion-matrix counts.  The supervised-geometry audit
    every embedding corpus needs."""
    ds = _read(sf_dir, "embeddings", ["embedding", "label"])

    def partial_sums(t: pa.Table) -> pa.Table:
        emb = t["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        vecs = np.asarray(emb.values).reshape(t.num_rows, -1) \
                 .astype(np.float64)
        lab = t["label"].to_numpy()
        df = pd.DataFrame(vecs)
        df["label"] = lab
        g = df.groupby("label", sort=True).agg(["sum"])
        g.columns = [f"s{i}" for i in range(vecs.shape[1])]
        g["n"] = pd.Series(lab).groupby(lab).size()
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    d = 64
    sums = (ds.map_batches(partial_sums, batch_format="pyarrow")
              .groupby("label")
              .aggregate(*[Sum(f"s{i}", alias_name=f"s{i}")
                           for i in range(d)],
                         Sum("n", alias_name="n"))).take_all()
    sums.sort(key=lambda r: r["label"])
    labels = np.array([r["label"] for r in sums], dtype=np.int64)
    cent = np.array([[r[f"s{i}"] for i in range(d)] for r in sums],
                    dtype=np.float64)
    cent /= np.array([[r["n"]] for r in sums], dtype=np.float64)
    cnorm = np.sqrt((cent * cent).sum(axis=1))
    cref = ray.put((labels, cent, cnorm))

    def assign(t: pa.Table) -> pa.Table:
        labs, c, cn = ray.get(cref)
        emb = t["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        vecs = np.asarray(emb.values).reshape(t.num_rows, -1) \
                 .astype(np.float64)
        vn = np.sqrt((vecs * vecs).sum(axis=1))
        cos = (vecs @ c.T) / (vn[:, None] * cn[None, :])
        pred = labs[np.argmax(cos, axis=1)]   # np.argmax: first max wins
        df = pd.DataFrame({"label": t["label"].to_numpy(), "pred": pred})
        g = df.groupby(["label", "pred"], sort=False).size() \
              .reset_index(name="pn")
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(assign, batch_format="pyarrow")
             .groupby(["label", "pred"])
             .aggregate(Sum("pn", alias_name="n")))
    return agg.map_batches(
        lambda t: pa.table({"label": pc.cast(t["label"], pa.int64()),
                            "pred": pc.cast(t["pred"], pa.int64()),
                            "n": pc.cast(t["n"], pa.int64())}),
        batch_format="pyarrow")


QUERIES.update({"nearest_centroid_confusion": nearest_centroid_confusion})

ORACLES.update({
    "nearest_centroid_confusion": """
        WITH e AS (
            SELECT ROW_NUMBER() OVER () AS rid, label,
                   CAST(embedding AS DOUBLE[]) AS v
            FROM embeddings),
        comp AS (
            SELECT e.label, e.rid, CAST(r.range AS INTEGER) + 1 AS j,
                   v[CAST(r.range AS INTEGER) + 1] AS x
            FROM e, range(64) r),
        cent AS (
            SELECT label, j, AVG(x) AS c
            FROM comp GROUP BY 1, 2),
        cl AS (
            SELECT label AS clabel,
                   array_agg(c ORDER BY j) AS cv
            FROM cent GROUP BY 1),
        sim AS (
            SELECT e.rid, e.label, cl.clabel,
                   list_dot_product(e.v, cl.cv)
                   / (sqrt(list_dot_product(e.v, e.v))
                      * sqrt(list_dot_product(cl.cv, cl.cv))) AS cos
            FROM e, cl),
        best AS (
            SELECT rid, label, clabel,
                   ROW_NUMBER() OVER (PARTITION BY rid
                                      ORDER BY cos DESC, clabel) AS rk
            FROM sim)
        SELECT label, clabel AS pred, COUNT(*) AS n
        FROM best WHERE rk = 1 GROUP BY 1, 2
    """,
})


def assortativity_user_region(sf_dir: str):
    """Degree assortativity of the bipartite user-region presence graph
    (do heavy users visit popular regions?): distinct edges via one
    grouped count, per-side degrees via two more, two hash joins zip
    the degrees onto edges, and Pearson r folds from five sums —
    every stage unbounded-key safe."""
    from ..stages.bloom import _coalesce_for_join
    from ..stages.groupagg import grouped_count
    from ..stages.join import _join_partitions

    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def edge(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        region = ((eid * 104729) % 18000 // 1000) * 36 \
            + ((eid * 7919) % 36000 // 1000)
        return pa.table({"user_id": t["user_id"],
                         "region": pa.array(region, pa.int64())})

    edges = grouped_count(ds.map_batches(edge, batch_format="pyarrow"),
                          ["user_id", "region"], out_col="_n") \
        .map_batches(lambda t: t.select(["user_id", "region"]),
                     batch_format="pyarrow").materialize()
    du = grouped_count(edges, "user_id", out_col="du")
    dr = grouped_count(edges, "region", out_col="dr")

    parts = _join_partitions()
    du, _ = _coalesce_for_join(du, parts)
    dr, _ = _coalesce_for_join(dr, parts)
    j = join_safe(join_safe(edges, du, join_type="inner", num_partitions=parts,
                   on=("user_id",)), dr, join_type="inner", num_partitions=parts,
                   on=("region",))

    def sums(t: pa.Table) -> pa.Table:
        x = t["du"].to_numpy().astype(np.float64)
        y = t["dr"].to_numpy().astype(np.float64)
        return pa.table({"sx": [float(x.sum())], "sy": [float(y.sum())],
                         "sxy": [float((x * y).sum())],
                         "sxx": [float((x * x).sum())],
                         "syy": [float((y * y).sum())],
                         "n": [int(len(x))]})

    acc = j.map_batches(sums, batch_format="pyarrow") \
        .sum(["sx", "sy", "sxy", "sxx", "syy", "n"])
    n = float(acc["sum(n)"])
    sx, sy = acc["sum(sx)"], acc["sum(sy)"]
    sxy, sxx, syy = acc["sum(sxy)"], acc["sum(sxx)"], acc["sum(syy)"]
    denom = (np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy))
    # degenerate variance (tiny inputs, or all-equal degrees): r is
    # undefined — report 0 instead of NaN->int crashing
    r = (n * sxy - sx * sy) / denom if denom > 0 else 0.0
    return pa.table({"n_edges": pa.array([int(n)], pa.int64()),
                     "assortativity_e6": pa.array(
                         [int(np.round(r * 1000000))], pa.int64())})


QUERIES.update({"assortativity_user_region": assortativity_user_region})

ORACLES.update({
    "assortativity_user_region": """
        WITH e AS (
            SELECT DISTINCT user_id,
                   ((event_id * 104729) % 18000 // 1000) * 36
                   + ((event_id * 7919) % 36000 // 1000) AS region
            FROM events),
        du AS (SELECT user_id, COUNT(*) AS du FROM e GROUP BY 1),
        dr AS (SELECT region, COUNT(*) AS dr FROM e GROUP BY 1),
        j AS (
            SELECT CAST(du.du AS DOUBLE) AS x, CAST(dr.dr AS DOUBLE) AS y
            FROM e JOIN du ON e.user_id = du.user_id
                   JOIN dr ON e.region = dr.region),
        a AS (
            SELECT SUM(x) AS sx, SUM(y) AS sy, SUM(x*y) AS sxy,
                   SUM(x*x) AS sxx, SUM(y*y) AS syy,
                   CAST(COUNT(*) AS DOUBLE) AS n
            FROM j)
        SELECT CAST(n AS BIGINT) AS n_edges,
               CAST(ROUND((n * sxy - sx * sy)
                          / (SQRT(n * sxx - sx * sx)
                             * SQRT(n * syy - sy * sy)) * 1000000)
                    AS BIGINT) AS assortativity_e6
        FROM a
    """,
})


def semivariogram_events(sf_dir: str):
    """Empirical semivariogram over 10-degree cells (the geostatistics
    structure function): per-cell mean value (one bounded aggregate,
    region domain <= 648), then all cell pairs binned by great-circle
    distance (2000-km bins) with gamma(h) = sum (v_i - v_j)^2 / 2n —
    the pairwise stage runs on the answer-sized cell table coalesced
    to one block."""
    ds = _read(sf_dir, "events", ["event_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        region = ((eid * 104729) % 18000 // 1000) * 36 \
            + ((eid * 7919) % 36000 // 1000)
        df = pd.DataFrame({"region": region,
                           "value": t["value"].to_numpy()})
        g = df.groupby("region", sort=False).agg(
            s=("value", "sum"), n=("value", "size")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = (ds.map_batches(partial, batch_format="pyarrow")
               .groupby("region")
               .aggregate(Sum("s", alias_name="s"),
                          Sum("n", alias_name="n"))) \
        .repartition(1)

    R = 6371.007180918475

    def gamma(t: pa.Table) -> pa.Table:
        reg = t["region"].to_numpy()
        v = t["s"].to_numpy() / t["n"].to_numpy()
        lat = np.radians((reg // 36).astype(np.float64) * 10.0 - 90.0 + 5.0)
        lon = np.radians((reg % 36).astype(np.float64) * 10.0 - 180.0 + 5.0)
        i, j = np.triu_indices(len(reg), k=1)
        a = (np.sin((lat[j] - lat[i]) / 2.0) ** 2
             + np.cos(lat[i]) * np.cos(lat[j])
             * np.sin((lon[j] - lon[i]) / 2.0) ** 2)
        dkm = 2.0 * R * np.arcsin(np.sqrt(np.minimum(a, 1.0)))
        b = np.floor(dkm / 2000.0).astype(np.int64)
        dsq = (v[i] - v[j]) ** 2
        df = pd.DataFrame({"bin": b, "dsq": dsq})
        g = df.groupby("bin", sort=True).agg(
            s=("dsq", "sum"), n=("dsq", "size")).reset_index()
        return pa.table({
            "dist_bin": pa.array(g["bin"].to_numpy(), pa.int64()),
            "n_pairs": pa.array(g["n"].to_numpy(), pa.int64()),
            "gamma_e6": _iscale(g["s"].to_numpy() / (2.0 * g["n"].to_numpy()),
                                1000000)})

    return cells.map_batches(gamma, batch_format="pyarrow")


QUERIES.update({"semivariogram_events": semivariogram_events})

ORACLES.update({
    "semivariogram_events": """
        WITH c AS (
            SELECT ((event_id * 104729) % 18000 // 1000) * 36
                   + ((event_id * 7919) % 36000 // 1000) AS region,
                   SUM(value) / COUNT(*) AS v
            FROM events GROUP BY 1),
        p AS (
            SELECT RADIANS((a.region // 36) * 10.0 - 90.0 + 5.0) AS lat1,
                   RADIANS((a.region % 36) * 10.0 - 180.0 + 5.0) AS lon1,
                   RADIANS((b.region // 36) * 10.0 - 90.0 + 5.0) AS lat2,
                   RADIANS((b.region % 36) * 10.0 - 180.0 + 5.0) AS lon2,
                   a.v AS v1, b.v AS v2
            FROM c a JOIN c b ON a.region < b.region),
        d AS (
            SELECT CAST(FLOOR(2.0 * 6371.007180918475
                       * ASIN(SQRT(LEAST(
                             POW(SIN((lat2 - lat1) / 2.0), 2)
                             + COS(lat1) * COS(lat2)
                               * POW(SIN((lon2 - lon1) / 2.0), 2), 1.0)))
                       / 2000.0) AS BIGINT) AS dist_bin,
                   POW(v1 - v2, 2) AS dsq
            FROM p)
        SELECT dist_bin, COUNT(*) AS n_pairs,
               CAST(ROUND(SUM(dsq) / (2.0 * COUNT(*)) * 1000000) AS BIGINT)
                   AS gamma_e6
        FROM d GROUP BY 1
    """,
})


# ---------------------------------------------------------------------------
# round 4u: BM25 retrieval, KMV intersection sketch, trigram sequence mining
# ---------------------------------------------------------------------------

def bm25_docs(sf_dir: str):
    """Top-10 documents by BM25 relevance for the fixed query
    {hash, join, stream} (stages/text.bm25_topk): one integer-exact
    stats pass (N, sum_dl, per-term df partials), broadcast idf, one
    scoring map with per-batch top-k partials — text never shuffles,
    only <= 10 rows per block reach the final answer-sized sort."""
    from ..stages.text import bm25_topk

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bm25_topk(ds, ["hash", "join", "stream"], k=10)


def kmv_intersect_users(sf_dir: str):
    """KMV (bottom-k minimum-values) distinct sketches over active
    user-days: |click user-days|, |purchase user-days|, their union and
    INTERSECTION estimates (the set operation HLL cannot do).  Per-batch
    bottom-k partials, answer-sized driver merge; md5 hashing matches
    DuckDB md5_number_upper bit-for-bit so the whole estimator — k-th
    minimum, inclusion-exclusion rho — is recomputed exactly by the SQL
    oracle (no pinned constants)."""
    from ..stages.sampling import kmv_bottom_k, kmv_estimates

    K = 64

    def keyed(which: str):
        def f(t: pa.Table) -> pa.Table:
            t2 = t.filter(pc.equal(t["event_type"], which))
            u = t2["user_id"].to_numpy(zero_copy_only=False)
            day = t2["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) \
                // 86400000000
            return pa.table({"key": pa.array(u * 100000 + day)})
        return f

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    sa = kmv_bottom_k(ds.map_batches(keyed("click"), batch_format="pyarrow"),
                      "key", k=K)
    sb = kmv_bottom_k(ds.map_batches(keyed("purchase"),
                                     batch_format="pyarrow"), "key", k=K)
    est = kmv_estimates(sa, sb, K)
    return pa.table({
        "k": pa.array([K], pa.int64()),
        "est_clicks": pa.array([est["est_a"]], pa.int64()),
        "est_purchases": pa.array([est["est_b"]], pa.int64()),
        "est_union": pa.array([est["est_union"]], pa.int64()),
        "est_intersection": pa.array([est["est_intersection"]], pa.int64())})


def trigram_paths_events(sf_dir: str):
    """Top-10 consecutive event-type trigrams across all user journeys
    (sequential-pattern mining lite): LAG(type,1)/LAG(type,2) OVER
    (PARTITION BY user ORDER BY ts, event_id) via two group_shift carry
    chains on integer-coded types (strings never enter the sort), then
    one |types|^3-bounded aggregate and an answer-sized top-10."""
    from ..stages.window import group_shift

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    types = _distinct_strings(ds, "event_type")
    types_pa = pa.array(types, pa.string())
    types_np = np.array(types, dtype=object)

    def enc(t: pa.Table) -> pa.Table:
        arr = t["event_type"]
        arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        return pa.table({
            "user_id": t["user_id"],
            "ts_us": t["ts"].cast(pa.int64()),
            "event_id": t["event_id"],
            "code": pc.cast(pc.index_in(arr, value_set=types_pa),
                            pa.int64())})

    g1 = group_shift(ds.map_batches(enc, batch_format="pyarrow"),
                     "user_id", ["ts_us", "event_id"], "code",
                     k=1, out_col="p1")
    g2 = group_shift(g1, "user_id", ["ts_us", "event_id"], "code",
                     k=2, out_col="p2")

    def tri(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.is_valid(t["p1"]), pc.is_valid(t["p2"])))
        p2 = t["p2"].to_numpy(zero_copy_only=False).astype(np.int64)
        p1 = t["p1"].to_numpy(zero_copy_only=False).astype(np.int64)
        cur = t["code"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "t1": pa.array(types_np[p2].tolist(), pa.string()),
            "t2": pa.array(types_np[p1].tolist(), pa.string()),
            "t3": pa.array(types_np[cur].tolist(), pa.string()),
            "n": pa.array(np.ones(t.num_rows, np.int64))})

    agg = (g2.map_batches(tri, batch_format="pyarrow")
             .groupby(["t1", "t2", "t3"])
             .aggregate(Sum("n", alias_name="n")))
    return (agg.map_batches(lambda t: t.set_column(
                t.schema.get_field_index("n"), "n",
                pc.cast(t["n"], pa.int64())), batch_format="pyarrow")
               .sort(["n", "t1", "t2", "t3"],
                     descending=[True, False, False, False])
               .limit(10))


QUERIES.update({
    "bm25_docs": bm25_docs,
    "kmv_intersect_users": kmv_intersect_users,
    "trigram_paths_events": trigram_paths_events,
})

ORACLES.update({
    "bm25_docs": """
        WITH tok AS (SELECT doc_id, UNNEST(string_split(text, ' ')) AS tok
                     FROM documents),
        dl AS (SELECT doc_id, COUNT(*) AS dl FROM tok GROUP BY 1),
        n AS (SELECT (SELECT COUNT(*) FROM documents) AS n,
                     (SELECT SUM(dl) FROM dl) AS sumdl),
        df AS (SELECT tok, COUNT(DISTINCT doc_id) AS df FROM tok
               WHERE tok IN ('hash', 'join', 'stream') GROUP BY 1),
        tf AS (SELECT doc_id, tok, COUNT(*) AS tf FROM tok
               WHERE tok IN ('hash', 'join', 'stream') GROUP BY 1, 2),
        s AS (SELECT tf.doc_id,
                     SUM(ln(1.0 + (n.n - df.df + 0.5) / (df.df + 0.5))
                         * (tf.tf * 2.2)
                         / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl * n.n
                                           / CAST(n.sumdl AS DOUBLE))))
                         AS score
              FROM tf JOIN df USING (tok) JOIN dl USING (doc_id), n
              GROUP BY 1)
        SELECT doc_id, CAST(ROUND(score * 10000) AS BIGINT) AS score_e4
        FROM s ORDER BY score_e4 DESC, doc_id LIMIT 10
    """,
    "kmv_intersect_users": """
        WITH kk AS (
            SELECT event_type,
                   md5_number_upper(CAST(user_id * 100000
                       + epoch_us(ts) // 86400000000 AS VARCHAR)) AS h
            FROM events WHERE event_type IN ('click', 'purchase')),
        a AS (SELECT DISTINCT h FROM kk WHERE event_type = 'click'),
        b AS (SELECT DISTINCT h FROM kk WHERE event_type = 'purchase'),
        ka AS (SELECT h FROM a ORDER BY h LIMIT 64),
        kb AS (SELECT h FROM b ORDER BY h LIMIT 64),
        ku AS (SELECT h FROM (SELECT h FROM a UNION SELECT h FROM b)
               ORDER BY h LIMIT 64),
        ea AS (SELECT CASE WHEN COUNT(*) < 64 THEN CAST(COUNT(*) AS DOUBLE)
                           ELSE 63 * 18446744073709551616.0
                                / CAST(MAX(h) AS DOUBLE) END AS e FROM ka),
        eb AS (SELECT CASE WHEN COUNT(*) < 64 THEN CAST(COUNT(*) AS DOUBLE)
                           ELSE 63 * 18446744073709551616.0
                                / CAST(MAX(h) AS DOUBLE) END AS e FROM kb),
        eu AS (SELECT CASE WHEN COUNT(*) < 64 THEN CAST(COUNT(*) AS DOUBLE)
                           ELSE 63 * 18446744073709551616.0
                                / CAST(MAX(h) AS DOUBLE) END AS e FROM ku),
        rho AS (SELECT COUNT(*) AS nu,
                       SUM(CASE WHEN h IN (SELECT h FROM a)
                                 AND h IN (SELECT h FROM b)
                            THEN 1 ELSE 0 END) AS nboth FROM ku)
        SELECT CAST(64 AS BIGINT) AS k,
               CAST(ROUND(ea.e) AS BIGINT) AS est_clicks,
               CAST(ROUND(eb.e) AS BIGINT) AS est_purchases,
               CAST(ROUND(eu.e) AS BIGINT) AS est_union,
               CAST(ROUND(CASE WHEN rho.nu < 64
                               THEN CAST(rho.nboth AS DOUBLE)
                               ELSE rho.nboth / 64.0 * eu.e END) AS BIGINT)
                   AS est_intersection
        FROM ea, eb, eu, rho
    """,
    "trigram_paths_events": """
        WITH s AS (
            SELECT event_type,
                   LAG(event_type, 1) OVER w AS p1,
                   LAG(event_type, 2) OVER w AS p2
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
        t AS (SELECT p2 AS t1, p1 AS t2, event_type AS t3,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM s WHERE p1 IS NOT NULL AND p2 IS NOT NULL
              GROUP BY 1, 2, 3)
        SELECT t1, t2, t3, n FROM t
        ORDER BY n DESC, t1, t2, t3 LIMIT 10
    """,
})


# ---------------------------------------------------------------------------
# round 4v: KS two-sample test, item-similarity Jaccard, mutual information
# ---------------------------------------------------------------------------

def ks_value_click_purchase(sf_dir: str):
    """Exact two-sample Kolmogorov-Smirnov D between the value
    distributions of click vs purchase events (distribution-shift
    testing between event populations).  Per-distinct-value (na, nb)
    counts via one bounded-output aggregate, then
    stages/relational.ks_two_sample: ONE range sort + the two-pass
    parallel scan — every candidate D comes from exact int64
    cumulatives, so the max compares bit-identical to the SQL windowed
    SUM."""
    from ..stages.relational import ks_two_sample

    ds = _read(sf_dir, "events", ["event_type", "value"])
    two = pa.array(["click", "purchase"], pa.string())

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["event_type"], value_set=two))
        is_a = pc.equal(t["event_type"], "click").to_numpy(
            zero_copy_only=False)
        df = pd.DataFrame({"value": t["value"].to_numpy(zero_copy_only=False),
                           "na": is_a.astype(np.int64),
                           "nb": (~is_a).astype(np.int64)})
        g = df.groupby("value", sort=False).agg(
            na=("na", "sum"), nb=("nb", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("value")
             .aggregate(Sum("na", alias_name="na"),
                        Sum("nb", alias_name="nb")))
    d, n_a, n_b = ks_two_sample(agg, "value", "na", "nb")
    return pa.table({
        "n_click": pa.array([n_a], pa.int64()),
        "n_purchase": pa.array([n_b], pa.int64()),
        "ks_e6": pa.array([int(np.floor(d * 1000000 + 0.5))], pa.int64())})


def item_jaccard_parts(sf_dir: str):
    """Item-similarity mining (collaborative-filtering style): top-20
    part pairs by Jaccard similarity of their purchasing-customer sets,
    over customers with 2..50 distinct parts (the degree cap bounds the
    per-group pair blowup; hot customers carry little signal).  Shape:
    distinct (cust, part) via grouped_count, degree filter via one hash
    join, per-customer triu pair enumeration (bucket occupancy <= 50 by
    construction), pair counts + part document frequencies via
    grouped_count; the part-df table is catalog-bounded and broadcast
    for the final Jaccard map."""
    import ray
    from ..stages.groupagg import grouped_count
    from ..stages.join import _join_partitions

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    j = join_safe(li, orders, join_type="inner",
                num_partitions=_join_partitions(),
                on=("l_orderkey",), right_on=("o_orderkey",))
    cp = grouped_count(
        j.map_batches(lambda t: pa.table({"c": t["o_custkey"],
                                          "p": t["l_partkey"]}),
                      batch_format="pyarrow"),
        ["c", "p"], out_col="_n") \
        .map_batches(lambda t: t.drop_columns(["_n"]),
                     batch_format="pyarrow") \
        .materialize()                 # two consumers: deg + kept
    deg = grouped_count(cp, ["c"], out_col="deg") \
        .filter(expr="deg >= 2") \
        .filter(expr="deg <= 50") \
        .map_batches(lambda t: t.drop_columns(["deg"]),
                     batch_format="pyarrow") \
        .repartition(_join_partitions())
    kept = join_safe(cp.repartition(_join_partitions()), 
        deg, join_type="inner", num_partitions=_join_partitions(),
        on=("c",)).materialize()          # two consumers: pairs + df

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        p = np.sort(g["p"].to_numpy())
        ai, bi = np.triu_indices(len(p), k=1)
        return pd.DataFrame({"pa": p[ai], "pb": p[bi]})

    n_both = grouped_count(
        kept.groupby("c").map_groups(pairs, batch_format="pandas"),
        ["pa", "pb"], out_col="n_both")
    df_tbl = grouped_count(kept, ["p"], out_col="df").to_pandas()
    df_ref = ray.put(dict(zip(df_tbl["p"].astype(np.int64),
                              df_tbl["df"].astype(np.int64))))

    def jac(t: pa.Table) -> pa.Table:
        dfm = ray.get(df_ref)
        pa_ = t["pa"].to_numpy(zero_copy_only=False).astype(np.int64)
        pb_ = t["pb"].to_numpy(zero_copy_only=False).astype(np.int64)
        nb = t["n_both"].to_numpy(zero_copy_only=False).astype(np.int64)
        dfa = np.array([dfm[x] for x in pa_], np.int64)
        dfb = np.array([dfm[x] for x in pb_], np.int64)
        v = nb / (dfa + dfb - nb).astype(np.float64) * 1000000
        return pa.table({
            "part_a": pa.array(pa_), "part_b": pa.array(pb_),
            "n_both": pa.array(nb),
            "jaccard_e6": pa.array(np.floor(v + 0.5).astype(np.int64))})

    return (n_both.map_batches(jac, batch_format="pyarrow")
            .sort(["jaccard_e6", "part_a", "part_b"],
                  descending=[True, False, False])
            .limit(20))


def mutual_info_lang_source(sf_dir: str):
    """Mutual information (nats) between the lang and source columns of
    documents, plus the marginal entropies — corpus-composition audit
    (is the language mix independent of the crawl source?).  One
    |lang| x |source|-bounded aggregate; all information arithmetic runs
    on the answer-sized contingency table with the expression tree
    mirrored in SQL."""
    ds = _read(sf_dir, "documents", ["lang", "source"])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "lang": t["lang"].to_numpy(zero_copy_only=False),
            "source": t["source"].to_numpy(zero_copy_only=False)})
        g = df.groupby(["lang", "source"], sort=False).size() \
              .reset_index(name="n")
        return pa.Table.from_pandas(g, preserve_index=False)

    c = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["lang", "source"])
           .aggregate(Sum("n", alias_name="n"))).to_pandas()
    n = c["n"].to_numpy(np.int64)
    nn = int(n.sum())
    rn = c.groupby("lang")["n"].transform("sum").to_numpy(np.int64)
    cn = c.groupby("source")["n"].transform("sum").to_numpy(np.int64)
    nf = float(nn)
    mi = float(np.sum(n / nf * np.log(n * nf / (rn * cn).astype(np.float64))))
    rl = c.groupby("lang")["n"].sum().to_numpy(np.int64)
    cl = c.groupby("source")["n"].sum().to_numpy(np.int64)
    h_lang = float(np.sum(-(rl / nf) * np.log(rl / nf)))
    h_source = float(np.sum(-(cl / nf) * np.log(cl / nf)))

    def e6(x: float) -> int:
        return int(np.floor(x * 1000000 + 0.5))

    return pa.table({
        "n": pa.array([nn], pa.int64()),
        "mi_e6": pa.array([e6(mi)], pa.int64()),
        "h_lang_e6": pa.array([e6(h_lang)], pa.int64()),
        "h_source_e6": pa.array([e6(h_source)], pa.int64())})


QUERIES.update({
    "ks_value_click_purchase": ks_value_click_purchase,
    "item_jaccard_parts": item_jaccard_parts,
    "mutual_info_lang_source": mutual_info_lang_source,
})

ORACLES.update({
    "ks_value_click_purchase": """
        WITH v AS (
            SELECT value,
                   SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)
                       AS na,
                   SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
                       AS nb
            FROM events WHERE event_type IN ('click', 'purchase')
            GROUP BY value),
        c AS (SELECT SUM(na) OVER (ORDER BY value) AS ca,
                     SUM(nb) OVER (ORDER BY value) AS cb FROM v),
        t AS (SELECT (SELECT SUM(na) FROM v) AS tna,
                     (SELECT SUM(nb) FROM v) AS tnb)
        SELECT CAST(t.tna AS BIGINT) AS n_click,
               CAST(t.tnb AS BIGINT) AS n_purchase,
               CAST(ROUND(MAX(ABS(c.ca / CAST(t.tna AS DOUBLE)
                                  - c.cb / CAST(t.tnb AS DOUBLE)))
                          * 1000000) AS BIGINT) AS ks_e6
        FROM c, t GROUP BY 1, 2
    """,
    "item_jaccard_parts": """
        WITH cp AS (SELECT DISTINCT o_custkey AS c, l_partkey AS p
                    FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
        d AS (SELECT c FROM cp GROUP BY c
              HAVING COUNT(*) BETWEEN 2 AND 50),
        k AS (SELECT cp.c, cp.p FROM cp JOIN d USING (c)),
        df AS (SELECT p, COUNT(*) AS df FROM k GROUP BY p),
        pr AS (SELECT a.p AS pa, b.p AS pb, COUNT(*) AS nb
               FROM k a JOIN k b ON a.c = b.c AND a.p < b.p
               GROUP BY 1, 2)
        SELECT pr.pa AS part_a, pr.pb AS part_b,
               CAST(pr.nb AS BIGINT) AS n_both,
               CAST(ROUND(pr.nb / CAST(fa.df + fb.df - pr.nb AS DOUBLE)
                          * 1000000) AS BIGINT) AS jaccard_e6
        FROM pr JOIN df fa ON pr.pa = fa.p JOIN df fb ON pr.pb = fb.p
        ORDER BY jaccard_e6 DESC, part_a, part_b LIMIT 20
    """,
    "mutual_info_lang_source": """
        WITH c AS (SELECT lang, source, COUNT(*) AS n
                   FROM documents GROUP BY 1, 2),
        r AS (SELECT lang, SUM(n) AS rn FROM c GROUP BY 1),
        k AS (SELECT source, SUM(n) AS cn FROM c GROUP BY 1),
        t AS (SELECT CAST(SUM(n) AS DOUBLE) AS nf,
                     CAST(SUM(n) AS BIGINT) AS nn FROM c),
        mi AS (SELECT SUM(c.n / t.nf
                          * ln(c.n * t.nf
                               / CAST(r.rn * k.cn AS DOUBLE))) AS mi
               FROM c JOIN r USING (lang) JOIN k USING (source), t),
        hl AS (SELECT SUM(-(rn / t.nf) * ln(rn / t.nf)) AS h
               FROM r, t),
        hs AS (SELECT SUM(-(cn / t.nf) * ln(cn / t.nf)) AS h
               FROM k, t)
        SELECT t.nn AS n,
               CAST(ROUND(mi.mi * 1000000) AS BIGINT) AS mi_e6,
               CAST(ROUND(hl.h * 1000000) AS BIGINT) AS h_lang_e6,
               CAST(ROUND(hs.h * 1000000) AS BIGINT) AS h_source_e6
        FROM t, mi, hl, hs
    """,
})


# ---------------------------------------------------------------------------
# round 4w: Arrow-IPC roundtrip, hive partition pruning, feature hashing,
# SAX symbolic time-series words
# ---------------------------------------------------------------------------

def feather_roundtrip_events(sf_dir: str):
    """Arrow IPC (Feather v2) source/sink parity
    (sources/feather.write_feather_dir / read_feather_dir): events out as
    one .arrow file per block (atomic rename publish — the resumable
    layout), back via read_binary_files + zero-copy ipc decode, then
    per-type counts and integer checksums INCLUDING the microsecond
    timestamp lane (IPC preserves Arrow types exactly where CSV/JSON
    cannot)."""
    import shutil

    from ..sources.feather import read_feather_dir, write_feather_dir
    from ..stages.groupagg import grouped_reduce

    out_dir = _io_scratch(sf_dir, "events_ipc")
    shutil.rmtree(out_dir, ignore_errors=True)
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type", "value"])
    write_feather_dir(ds, out_dir)
    back = read_feather_dir(out_dir)

    def enc(t: pa.Table) -> pa.Table:
        ts_us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": t["event_type"],
            "event_id": t["event_id"],
            "ts_mod": pa.array(ts_us % 1000000000),
            "cents": pa.array(np.round(
                t["value"].to_numpy(zero_copy_only=False) * 100)
                .astype(np.int64)),
            "n": pa.array(np.ones(t.num_rows, np.int64))})

    agg = grouped_reduce(back.map_batches(enc, batch_format="pyarrow"),
                         ["event_type"],
                         {"event_id": "sum_eids", "ts_mod": "sum_ts_mod",
                          "cents": "sum_cents", "n": "n"}, how="sum")
    return agg.map_batches(
        lambda t: pa.table({"event_type": t["event_type"],
                            "n": pc.cast(t["n"], pa.int64()),
                            "sum_eids": pc.cast(t["sum_eids"], pa.int64()),
                            "sum_ts_mod": pc.cast(t["sum_ts_mod"],
                                                  pa.int64()),
                            "sum_cents": pc.cast(t["sum_cents"],
                                                 pa.int64())}),
        batch_format="pyarrow")


def hive_partition_prune_events(sf_dir: str):
    """Hive-partitioned sink + partition-pruned source: events written
    with ``write_parquet(partition_cols=['event_type'])`` (one directory
    per type — the layout that lets ANY downstream engine prune by
    predicate at the path level), then ONLY the event_type=click
    directory is read back — the other four partitions are never
    opened — for per-day click counts."""
    import shutil

    out_dir = _io_scratch(sf_dir, "events_hive")
    shutil.rmtree(out_dir, ignore_errors=True)
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])
    ds.write_parquet(out_dir, partition_cols=["event_type"])
    import os as _os
    click_dir = f"{out_dir}/event_type=click"
    if _os.path.isdir(click_dir):
        back = ray.data.read_parquet(click_dir)
    else:
        # no click rows in the input: the partition directory was never
        # written — the pruned read is an empty typed table
        back = ray.data.from_arrow(pa.table(
            {"event_id": pa.array([], pa.int64()),
             "ts": pa.array([], pa.timestamp("ns")),
             "user_id": pa.array([], pa.int64())}))

    def per_day(t: pa.Table) -> pa.Table:
        day = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) \
            // 86400000000
        df = pd.DataFrame({"day": day,
                           "uid": t["user_id"].to_numpy(
                               zero_copy_only=False)})
        g = df.groupby("day", sort=False)["uid"] \
              .agg(n="size", sum_uids="sum").reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (back.map_batches(per_day, batch_format="pyarrow")
           .groupby("day").aggregate(Sum("n", alias_name="n"),
                                     Sum("sum_uids",
                                         alias_name="sum_uids")))
    return agg.map_batches(
        lambda t: pa.table({"day": pc.cast(t["day"], pa.int64()),
                            "n": pc.cast(t["n"], pa.int64()),
                            "sum_uids": pc.cast(t["sum_uids"],
                                                pa.int64())}),
        batch_format="pyarrow").sort("day")


def feature_hash_docs(sf_dir: str):
    """Hashing-trick (feature-hashing) bag-of-words audit: every token
    maps to dim = md5(token) mod 64; per dimension the total term count
    and the number of documents touching it (collision load per bucket —
    the diagnostic run before committing to a hashed feature space).
    Per-batch: md5 over the batch's UNIQUE tokens only (vocab-bounded),
    mapped back to the flat token stream; per-batch distinct (doc, dim)
    counts sum exactly because each document lives in one batch."""
    from ..stages.sampling import _md5_u64
    from ..stages.text import _space_tokens

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"dim": pa.array([], pa.int64()),
                             "total_tf": pa.array([], pa.int64()),
                             "n_docs": pa.array([], pa.int64())})
        _, off, flat = _space_tokens(t["text"])
        doc_of = np.repeat(np.arange(t.num_rows, dtype=np.int64),
                           np.diff(off))
        uniq = pc.unique(flat)
        udim = (_md5_u64(np.asarray(uniq.to_pylist(), dtype=object))
                % 64).astype(np.int64)
        tok_dim = udim[pc.index_in(flat, value_set=uniq)
                       .to_numpy(zero_copy_only=False).astype(np.int64)]
        tf = np.bincount(tok_dim, minlength=64).astype(np.int64)
        dd = np.unique(doc_of * 64 + tok_dim) % 64
        nd = np.bincount(dd, minlength=64).astype(np.int64)
        return pa.table({"dim": pa.array(np.arange(64, dtype=np.int64)),
                         "total_tf": pa.array(tf),
                         "n_docs": pa.array(nd)})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("dim").aggregate(Sum("total_tf", alias_name="total_tf"),
                                     Sum("n_docs", alias_name="n_docs")))
    return agg.map_batches(
        lambda t: pa.table({
            "dim": pc.cast(t["dim"], pa.int64()),
            "total_tf": pc.cast(t["total_tf"], pa.int64()),
            "n_docs": pc.cast(t["n_docs"], pa.int64())})
        .filter(pc.greater(t["total_tf"], 0)),
        batch_format="pyarrow").sort("dim")


def sax_words_users(sf_dir: str):
    """SAX-style symbolic words per user (symbolic aggregate
    approximation over each user's event-value series): NTILE(4)
    segments in (ts, event_id) order, integer-cent segment averages
    (exact at any parallelism), per-user min-max normalization to a
    4-letter alphabet, word assembled as a positional integer
    (grouped_reduce sum — no string aggregation in the engine), then
    word frequencies.  Every double on the path is derived from exact
    int64 sums by one mirrored expression, so symbols match SQL
    bit-for-bit."""
    from ..stages.groupagg import grouped_count, grouped_reduce
    from ..stages.join import _join_partitions
    from ..stages.window import group_ntile_sorted

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def enc(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "ts_us": t["ts"].cast(pa.int64()),
            "event_id": t["event_id"],
            "cents": pa.array(np.round(
                t["value"].to_numpy(zero_copy_only=False) * 100)
                .astype(np.int64))})

    tiled = group_ntile_sorted(
        ds.map_batches(enc, batch_format="pyarrow"),
        "user_id", ["ts_us", "event_id"], 4, out_col="tile")
    seg = (tiled.groupby(["user_id", "tile"])
           .aggregate(Sum("cents", alias_name="s"),
                      Count(alias_name="c")))

    def avg(t: pa.Table) -> pa.Table:
        s = t["s"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"user_id": t["user_id"],
                         "tile": pc.cast(t["tile"], pa.int64()),
                         "avgc": pa.array(s / c),
                         "avgc2": pa.array(s / c)})

    seg = seg.map_batches(avg, batch_format="pyarrow").materialize()
    lohi = grouped_reduce(seg, "user_id", {"avgc": "lo", "avgc2": "hi"},
                          how={"avgc": "min", "avgc2": "max"}) \
        .repartition(_join_partitions())
    j = join_safe(seg.drop_columns(["avgc2"]).repartition(_join_partitions()), 
        lohi, join_type="inner", num_partitions=_join_partitions(),
        on=("user_id",))

    def sym(t: pa.Table) -> pa.Table:
        avgc = t["avgc"].to_numpy(zero_copy_only=False)
        lo = t["lo"].to_numpy(zero_copy_only=False)
        hi = t["hi"].to_numpy(zero_copy_only=False)
        tile = t["tile"].to_numpy(zero_copy_only=False).astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.minimum(3.0, np.floor((avgc - lo) / (hi - lo) * 4.0))
        c = np.where(hi == lo, 0.0, c).astype(np.int64)
        w = np.array([1000, 100, 10, 1], np.int64)[tile - 1]
        return pa.table({"user_id": t["user_id"],
                         "part": pa.array(c * w)})

    words = grouped_reduce(j.map_batches(sym, batch_format="pyarrow"),
                           "user_id", {"part": "code"}, how="sum")

    def to_word(t: pa.Table) -> pa.Table:
        code = t["code"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"word": pa.array([f"{c:04d}" for c in code],
                                          pa.string())})

    return (grouped_count(words.map_batches(to_word,
                                            batch_format="pyarrow"),
                          ["word"], out_col="n_users")
            .map_batches(lambda t: t.set_column(
                t.schema.get_field_index("n_users"), "n_users",
                pc.cast(t["n_users"], pa.int64())), batch_format="pyarrow")
            .sort("word"))


QUERIES.update({
    "feather_roundtrip_events": feather_roundtrip_events,
    "hive_partition_prune_events": hive_partition_prune_events,
    "feature_hash_docs": feature_hash_docs,
    "sax_words_users": sax_words_users,
})

ORACLES.update({
    "feather_roundtrip_events": """
        SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(event_id) AS BIGINT) AS sum_eids,
               CAST(SUM(epoch_us(ts) % 1000000000) AS BIGINT)
                   AS sum_ts_mod,
               CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT)
                   AS sum_cents
        FROM events GROUP BY event_type
    """,
    "hive_partition_prune_events": """
        SELECT epoch_us(ts) // 86400000000 AS day,
               CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(user_id) AS BIGINT) AS sum_uids
        FROM events WHERE event_type = 'click'
        GROUP BY 1 ORDER BY 1
    """,
    "feature_hash_docs": """
        WITH tok AS (SELECT doc_id, UNNEST(string_split(text, ' ')) AS tok
                     FROM documents),
        h AS (SELECT doc_id,
                     CAST(md5_number_upper(tok) % 64 AS BIGINT) AS dim
              FROM tok)
        SELECT dim, CAST(COUNT(*) AS BIGINT) AS total_tf,
               CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n_docs
        FROM h GROUP BY dim ORDER BY dim
    """,
    "sax_words_users": """
        WITH e AS (SELECT user_id, ts, event_id,
                          CAST(ROUND(value * 100) AS BIGINT) AS cents
                   FROM events),
        r AS (SELECT user_id, cents,
                     NTILE(4) OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id) AS tile
              FROM e),
        s AS (SELECT user_id, tile,
                     SUM(cents) / CAST(COUNT(*) AS DOUBLE) AS avgc
              FROM r GROUP BY 1, 2),
        u AS (SELECT user_id, MIN(avgc) AS lo, MAX(avgc) AS hi
              FROM s GROUP BY 1),
        sym AS (SELECT s.user_id, s.tile,
                       CASE WHEN u.hi = u.lo THEN 0
                            ELSE CAST(LEAST(3.0, FLOOR(
                                 (s.avgc - u.lo) / (u.hi - u.lo) * 4.0))
                                 AS BIGINT) END AS c
                FROM s JOIN u USING (user_id)),
        w AS (SELECT user_id,
                     SUM(c * CASE tile WHEN 1 THEN 1000 WHEN 2 THEN 100
                             WHEN 3 THEN 10 ELSE 1 END) AS code
              FROM sym GROUP BY 1)
        SELECT lpad(CAST(code AS VARCHAR), 4, '0') AS word,
               CAST(COUNT(*) AS BIGINT) AS n_users
        FROM w GROUP BY 1 ORDER BY 1
    """,
})


# ---------------------------------------------------------------------------
# round 4x: Ripley's K point-pattern statistic, model calibration curve
# ---------------------------------------------------------------------------

def ripley_k_events(sf_dir: str):
    """Ripley's K spatial point-pattern statistic at 250/500/1000 km over
    a deterministic 1-in-8 event subsample: ordered within-distance pair
    counts via the large-large radius cogroup join
    (stages/join.radius_join_via_buckets — self-join, ~9x bucket
    replication, ONE exchange, no all-pairs stage), normalized by the
    sphere area: K(r) = A * n_pairs / (n * (n - 1)).  Clustered points
    push K above the CSR baseline pi*r^2."""
    from ..stages.join import radius_join_via_buckets

    pts = _event_points(sf_dir).map_batches(
        lambda t: t.select(["event_id", "lon", "lat"]).filter(
            pc.equal(pc.bit_wise_and(t["event_id"], 7), 0)),
        batch_format="pyarrow").materialize()    # two consumers below
    sites = pts.map_batches(
        lambda t: pa.table({"sid": t["event_id"], "slon": t["lon"],
                            "slat": t["lat"]}), batch_format="pyarrow")
    j = radius_join_via_buckets(pts, sites, radius_km=1000.0)

    radii = (250.0, 500.0, 1000.0)

    def partial(t: pa.Table) -> pa.Table:
        d = t["dist_km"].to_numpy(zero_copy_only=False)
        ne = t["event_id"].to_numpy(zero_copy_only=False) \
            != t["sid"].to_numpy(zero_copy_only=False)
        return pa.table({f"n{int(r)}": pa.array(
            [int(((d <= r) & ne).sum())], pa.int64()) for r in radii})

    sums = j.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    n = pts.count()
    area = 4.0 * np.pi * 6371.0 * 6371.0
    n_pairs = [int(sums[f"n{int(r)}"]) for r in radii]
    # n < 2 points: K is 0 by convention (no ordered pairs exist)
    denom = float(n * (n - 1)) if n > 1 else 1.0
    k = [int(np.floor(area * float(np_) / denom + 0.5))
         for np_ in n_pairs]
    return pa.table({
        "r_km": pa.array([int(r) for r in radii], pa.int64()),
        "n_pairs": pa.array(n_pairs, pa.int64()),
        "k_km2": pa.array(k, pa.int64())})


def calibration_embs(sf_dir: str):
    """Model calibration curve over the embeddings table: a fixed integer
    scoring vector w_j = (j*37) mod 13 - 6 dotted against micro-scaled
    embedding coordinates (EXACT int64 arithmetic — no float summation
    order anywhere), global score deciles via NTILE(10) (one range sort),
    per-decile count / label mass / score mass.  The reliability-diagram
    input for any scored corpus."""
    from ..stages.window import group_ntile

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    w = ((np.arange(64, dtype=np.int64) * 37) % 13 - 6)

    def score(t: pa.Table) -> pa.Table:
        emb = t["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        flat = np.asarray(emb.flatten(), dtype=np.float64)
        x = flat.reshape(t.num_rows, -1)
        xi = (np.floor(np.abs(x * 1000000.0) + 0.5)
              * np.sign(x * 1000000.0)).astype(np.int64)   # SQL ROUND law
        s = (xi * w[None, :]).sum(axis=1)
        return pa.table({
            "g": pa.array(np.zeros(t.num_rows, np.int64)),
            "vec_id": t["vec_id"],
            "label": pc.cast(t["label"], pa.int64()),
            "score": pa.array(s)})

    tiled = group_ntile(ds.map_batches(score, batch_format="pyarrow"),
                        "g", ["score", "vec_id"], 10, out_col="decile")
    agg = (tiled.groupby("decile")
           .aggregate(Count(alias_name="n"),
                      Sum("label", alias_name="sum_label"),
                      Sum("score", alias_name="sum_score")))
    return agg.map_batches(
        lambda t: pa.table({"decile": pc.cast(t["decile"], pa.int64()),
                            "n": pc.cast(t["n"], pa.int64()),
                            "sum_label": pc.cast(t["sum_label"],
                                                 pa.int64()),
                            "sum_score": pc.cast(t["sum_score"],
                                                 pa.int64())}),
        batch_format="pyarrow").sort("decile")


QUERIES.update({
    "ripley_k_events": ripley_k_events,
    "calibration_embs": calibration_embs,
})

ORACLES.update({
    "ripley_k_events": """
        WITH pts AS (
          SELECT event_id,
                 CAST((event_id * 7919) % 36000 AS DOUBLE) / 100.0 - 180.0
                     AS lon,
                 CAST((event_id * 104729) % 18000 AS DOUBLE) / 100.0 - 90.0
                     AS lat
          FROM events WHERE event_id % 8 = 0),
        n AS (SELECT COUNT(*) AS n FROM pts),
        d AS (SELECT 2 * 6371.0 * asin(sqrt(LEAST(1.0, GREATEST(0.0,
                  pow(sin(radians(b.lat - a.lat) / 2), 2)
                  + cos(radians(a.lat)) * cos(radians(b.lat))
                    * pow(sin(radians(b.lon - a.lon) / 2), 2))))) AS dist
              FROM pts a, pts b WHERE a.event_id <> b.event_id),
        r AS (SELECT UNNEST([250.0, 500.0, 1000.0]) AS r_km),
        c AS (SELECT r.r_km,
                     (SELECT COUNT(*) FROM d WHERE dist <= r.r_km) AS np
              FROM r)
        SELECT CAST(c.r_km AS BIGINT) AS r_km,
               CAST(np AS BIGINT) AS n_pairs,
               CAST(ROUND(4 * pi() * 6371.0 * 6371.0 * np
                          / CAST(n.n * (n.n - 1) AS DOUBLE)) AS BIGINT)
                   AS k_km2
        FROM c, n ORDER BY r_km
    """,
    "calibration_embs": """
        WITH x AS (SELECT vec_id, label, UNNEST(embedding) AS v,
                          generate_subscripts(embedding, 1) AS j
                   FROM embeddings),
        s AS (SELECT vec_id, ANY_VALUE(label) AS label,
                     SUM(((j - 1) * 37 % 13 - 6)
                         * CAST(ROUND(CAST(v AS DOUBLE) * 1000000)
                                AS BIGINT)) AS score
              FROM x GROUP BY vec_id),
        d AS (SELECT label, score,
                     NTILE(10) OVER (ORDER BY score, vec_id) AS decile
              FROM s)
        SELECT CAST(decile AS BIGINT) AS decile,
               CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(label) AS BIGINT) AS sum_label,
               CAST(SUM(score) AS BIGINT) AS sum_score
        FROM d GROUP BY 1 ORDER BY 1
    """,
})


# ---------------------------------------------------------------------------
# round 4y: LOO target encoding, linear gap-fill, CUME_DIST counts
# ---------------------------------------------------------------------------

def target_encode_docs(sf_dir: str):
    """Leave-one-out target encoding of lang -> n_chars over documents
    (stages/normalize.target_encode_loo): per doc the integer-exact
    (sum, count) of the OTHER docs of its language — the
    leakage-free categorical feature.  One tiny aggregate broadcast +
    one pure map; the corpus never shuffles."""
    from ..stages.normalize import target_encode_loo

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    enc = target_encode_loo(ds, "lang", "n_chars")
    return enc.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"], "lang": t["lang"],
                            "loo_num": t["loo_num"],
                            "loo_den": t["loo_den"]}),
        batch_format="pyarrow").sort("doc_id")


def interp_daily_value(sf_dir: str):
    """Per-user daily resample with LINEAR interpolation between
    observations (stages/window.group_interp_linear): daily integer-cent
    totals on a per-user day grid (first observation day .. global max
    day), interior gaps interpolated v0 + (v1-v0)*(d-d0)/(d1-d0) in
    DuckDB's float op order, tail days LOCF.  The (day, cents) pair
    rides ONE packed int64 through two carry-chain fills — two sorts,
    no joins, no per-group Python."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.join import _join_partitions
    from ..stages.window import group_interp_linear

    DAY = np.int64(86_400_000_000)
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def daily(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        return pa.table({
            "user_id": t["user_id"],
            "day": pa.array(ts // DAY),
            "c": pa.array(_cents_half_up(t["value"].to_numpy()))})

    obs = grouped_reduce(ds.map_batches(daily, batch_format="pyarrow"),
                         ["user_id", "day"], {"c": "c"},
                         how="sum").materialize()
    bounds = grouped_reduce(obs, "user_id", {"day": "min_day"}, how="min")
    gmax = int(obs.max("day"))

    def expand(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        d0 = t["min_day"].to_numpy(zero_copy_only=False)
        cnt = (gmax - d0 + 1).astype(np.int64)
        rep = np.repeat(np.arange(len(u)), cnt)
        off = (np.arange(int(cnt.sum()), dtype=np.int64)
               - np.repeat(np.cumsum(cnt) - cnt, cnt))
        return pa.table({"user_id": pa.array(u[rep]),
                         "day": pa.array(d0[rep] + off)})

    grid = bounds.map_batches(expand, batch_format="pyarrow") \
        .repartition(_join_partitions())
    j = join_safe(grid, 
        obs.map_batches(lambda t: t.rename_columns(["u2", "d2", "c"]),
                        batch_format="pyarrow")
           .repartition(_join_partitions()),
        join_type="left_outer", num_partitions=_join_partitions(),
        on=("user_id", "day"), right_on=("u2", "d2"))
    filled = group_interp_linear(j, "user_id", "day", "c",
                                 out_col="interp")

    def finish(t: pa.Table) -> pa.Table:
        v = t["interp"].to_numpy(zero_copy_only=False)
        e6 = v * 1e6
        out = (np.floor(np.abs(e6) + 0.5) * np.sign(e6)).astype(np.int64)
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "day": pc.cast(t["day"], pa.int64()),
            "interp_e6": pa.array(out)})

    return filled.map_batches(finish, batch_format="pyarrow") \
        .sort(["user_id", "day"])


def cume_dist_docs(sf_dir: str):
    """CUME_DIST over documents' char lengths per language, emitted as
    the integer-exact (cume_n, n_lang) pair — cume_n = docs of the
    language with n_chars <= this doc's (ties included), the SQL
    ``COUNT(*) OVER (PARTITION BY lang ORDER BY n_chars RANGE UNBOUNDED
    PRECEDING)`` — via stages/window.group_cume_counts (distinct-value
    running-sum carry chain + one hash join; the corpus never
    range-sorts).  Language totals are a bounded broadcast."""
    from ..stages.groupagg import grouped_count
    from ..stages.window import group_cume_counts

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    cume = group_cume_counts(ds, "lang", "n_chars", out_col="cume_n")
    totals = dict(grouped_count(ds, ["lang"], out_col="n")
                  .to_pandas().itertuples(index=False, name=None))
    tot_ref = ray.put(totals)

    def finish(t: pa.Table) -> pa.Table:
        tot = ray.get(tot_ref)
        nl = pd.Series(t["lang"].to_pandas()).map(tot) \
            .to_numpy(dtype=np.int64)
        return pa.table({"doc_id": t["doc_id"], "lang": t["lang"],
                         "cume_n": pc.cast(t["cume_n"], pa.int64()),
                         "n_lang": pa.array(nl)})

    return cume.map_batches(finish, batch_format="pyarrow").sort("doc_id")


QUERIES.update({
    "target_encode_docs": target_encode_docs,
    "interp_daily_value": interp_daily_value,
    "cume_dist_docs": cume_dist_docs,
})

ORACLES.update({
    "target_encode_docs": """
        SELECT doc_id, lang,
               CAST(SUM(n_chars) OVER (PARTITION BY lang) - n_chars
                    AS BIGINT) AS loo_num,
               CAST(COUNT(*) OVER (PARTITION BY lang) - 1 AS BIGINT)
                   AS loo_den
        FROM documents ORDER BY doc_id
    """,
    "interp_daily_value": """
        WITH daily AS (
          SELECT user_id, epoch_us(ts) // 86400000000 AS day,
                 SUM(CAST(ROUND(value * 100) AS BIGINT)) AS c
          FROM events GROUP BY 1, 2),
        bounds AS (SELECT user_id, MIN(day) AS d0 FROM daily GROUP BY 1),
        series AS (SELECT UNNEST(generate_series(
                       (SELECT MIN(day) FROM daily),
                       (SELECT MAX(day) FROM daily))) AS day),
        grid AS (SELECT b.user_id, s.day FROM bounds b JOIN series s
                 ON s.day >= b.d0),
        j AS (SELECT grid.user_id, grid.day, daily.c
              FROM grid LEFT JOIN daily USING (user_id, day)),
        f AS (SELECT user_id, day, c,
                     LAST_VALUE(CASE WHEN c IS NOT NULL THEN day END
                                IGNORE NULLS) OVER w AS pd,
                     LAST_VALUE(c IGNORE NULLS) OVER w AS pv,
                     FIRST_VALUE(CASE WHEN c IS NOT NULL THEN day END
                                 IGNORE NULLS) OVER w2 AS nd,
                     FIRST_VALUE(c IGNORE NULLS) OVER w2 AS nv
              FROM j
              WINDOW w AS (PARTITION BY user_id ORDER BY day
                           ROWS BETWEEN UNBOUNDED PRECEDING
                           AND CURRENT ROW),
                     w2 AS (PARTITION BY user_id ORDER BY day
                            ROWS BETWEEN CURRENT ROW
                            AND UNBOUNDED FOLLOWING))
        SELECT user_id, day,
               CAST(CASE WHEN c IS NOT NULL THEN c * 1000000
                    WHEN nv IS NULL THEN pv * 1000000
                    ELSE CAST(ROUND((pv + (nv - pv) * (day - pd)
                                     / CAST(nd - pd AS DOUBLE))
                                    * 1000000) AS BIGINT)
               END AS BIGINT) AS interp_e6
        FROM f ORDER BY user_id, day
    """,
    "cume_dist_docs": """
        SELECT doc_id, lang,
               CAST(COUNT(*) OVER (PARTITION BY lang ORDER BY n_chars
                                   RANGE UNBOUNDED PRECEDING) AS BIGINT)
                   AS cume_n,
               CAST(COUNT(*) OVER (PARTITION BY lang) AS BIGINT)
                   AS n_lang
        FROM documents ORDER BY doc_id
    """,
})


# ---------------------------------------------------------------------------
# round 4y continued: AMS F2 sketch, global Moran's I, Hausdorff pairs
# ---------------------------------------------------------------------------

def ams_f2_users(sf_dir: str):
    """AMS (Alon-Matias-Szegedy) second-frequency-moment sketch over the
    event user distribution — the join/self-join size estimator: 16
    deterministic +/-1 hash counters, each X_j = sum_u sign_j(u) c_u
    (E[X^2] = F2), folded per batch from UNIQUE users only (md5 on the
    batch vocabulary, not the row stream) with one bounded 16-row
    groupby; the exact F2 = sum c_u^2 rides the sort-based
    grouped_reduce at unbounded user cardinality for comparison.  An
    approximate operator with an EXACT oracle: the SQL twin reproduces
    every counter bit-for-bit from the same md5 signs."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.sampling import _md5_u64

    R = 16
    ds = _read(sf_dir, "events", ["user_id"])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"j": pa.array([], pa.int64()),
                             "x": pa.array([], pa.int64())})
        u, c = np.unique(t["user_id"].to_numpy(zero_copy_only=False),
                         return_counts=True)
        c = c.astype(np.int64)
        xs = np.empty(R, np.int64)
        for j in range(R):
            h = _md5_u64(np.array([f"{int(v)}|{j}" for v in u],
                                  dtype=object))
            sign = np.where(h % 2 == 0, np.int64(1), np.int64(-1))
            xs[j] = int((sign * c).sum())
        return pa.table({"j": pa.array(np.arange(R, dtype=np.int64)),
                         "x": pa.array(xs)})

    x = (ds.map_batches(partial, batch_format="pyarrow")
         .groupby("j").aggregate(Sum("x", alias_name="x")))

    def ones(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"],
                         "n": pa.array(np.ones(t.num_rows, np.int64))})

    cnt = grouped_reduce(ds.map_batches(ones, batch_format="pyarrow"),
                         "user_id", {"n": "n"}, how="sum")
    f2 = int(cnt.map_batches(
        lambda t: pa.table({"f2": pa.array(
            [int((t["n"].to_numpy(zero_copy_only=False)
                  .astype(np.int64) ** 2).sum())], pa.int64())}),
        batch_format="pyarrow").to_pandas()["f2"].sum())

    def finish(t: pa.Table) -> pa.Table:
        xv = t["x"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "j": pc.cast(t["j"], pa.int64()),
            "x_j": pa.array(xv),
            "est_f2": pa.array(xv * xv),
            "f2_exact": pa.array(np.full(len(xv), f2, np.int64))})

    return x.map_batches(finish, batch_format="pyarrow").sort("j")


def moran_events(sf_dir: str):
    """GLOBAL Moran's I over the binned event lattice
    (stages/interp.global_moran): queen 3x3 binary weights over occupied
    cells, self excluded.  The whole statistic folds from seven integer
    scalars (one stencil shift-and-aggregate + one narrow partial pass),
    so the SQL self-join twin reproduces I bit-for-bit."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.interp import global_moran

    ds = _read(sf_dir, "events", ["event_id"])

    def binp(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        return pa.table({"gx": pa.array((eid * 7919) % 36000 // 400),
                         "gy": pa.array((eid * 104729) % 18000 // 400),
                         "n": pa.array(np.ones(t.num_rows, np.int64))})

    cells = grouped_reduce(ds.map_batches(binp, batch_format="pyarrow"),
                           ["gx", "gy"], {"n": "n"}, how="sum")
    out = global_moran(cells, "gx", "gy", "n")
    moran = out["moran_i"][0].as_py()
    e9 = moran * 1e9
    out = out.drop_columns(["moran_i"])
    return out.append_column(
        "i_e9", pa.array([int(np.floor(abs(e9) + 0.5) * np.sign(e9))],
                         pa.int64()))


def hausdorff_users_events(sf_dir: str):
    """Symmetric discrete Hausdorff distance between the point
    footprints of a deterministic 1-in-17 user sample
    (stages/geostats.hausdorff_pairs): candidate sites broadcast once,
    per-batch haversine matrix + one minimum.reduceat per key segment,
    directed maxes folded by grouped_reduce, symmetry by the unordered
    pair key.  The trajectory-similarity operator; oracle is the full
    SQL min-max cross join."""
    from ..stages.geostats import hausdorff_pairs

    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def pts(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(u % 17 == 0))
        eid = t["event_id"].to_numpy()
        lon = ((eid * 7919) % 36000).astype(np.float64) / 100.0 - 180.0
        lat = ((eid * 104729) % 18000).astype(np.float64) / 100.0 - 90.0
        return pa.table({"user_id": t["user_id"],
                         "lon": pa.array(lon), "lat": pa.array(lat)})

    points = ds.map_batches(pts, batch_format="pyarrow")
    h = hausdorff_pairs(points, "user_id")

    def finish(t: pa.Table) -> pa.Table:
        v = t["hausdorff_km"].to_numpy(zero_copy_only=False) * 1e6
        return pa.table({
            "p1": pc.cast(t["p1"], pa.int64()),
            "p2": pc.cast(t["p2"], pa.int64()),
            "h_e6": pa.array((np.floor(np.abs(v) + 0.5)
                              * np.sign(v)).astype(np.int64))})

    return h.map_batches(finish, batch_format="pyarrow") \
        .sort(["p1", "p2"])


QUERIES.update({
    "ams_f2_users": ams_f2_users,
    "moran_events": moran_events,
    "hausdorff_users_events": hausdorff_users_events,
})

ORACLES.update({
    "ams_f2_users": """
        WITH c AS (SELECT user_id, COUNT(*) AS c FROM events GROUP BY 1),
        j AS (SELECT UNNEST(range(16)) AS j),
        x AS (SELECT j.j,
                     SUM(CASE WHEN md5_number_upper(
                               CAST(c.user_id AS VARCHAR) || '|'
                               || CAST(j.j AS VARCHAR)) % 2 = 0
                              THEN c.c ELSE -c.c END) AS x
              FROM c CROSS JOIN j GROUP BY 1),
        f2 AS (SELECT SUM(c * c) AS f2 FROM c)
        SELECT CAST(j AS BIGINT) AS j, CAST(x AS BIGINT) AS x_j,
               CAST(x * x AS BIGINT) AS est_f2,
               CAST(f2.f2 AS BIGINT) AS f2_exact
        FROM x, f2 ORDER BY j
    """,
    "moran_events": """
        WITH b AS (
            SELECT (event_id * 7919) % 36000 // 400 AS gx,
                   (event_id * 104729) % 18000 // 400 AS gy,
                   COUNT(*) AS n
            FROM events GROUP BY 1, 2),
        o AS (SELECT dxr.range AS dx, dyr.range AS dy
              FROM range(-1, 2) dxr, range(-1, 2) dyr
              WHERE NOT (dxr.range = 0 AND dyr.range = 0)),
        f AS (SELECT c.gx, c.gy, ANY_VALUE(c.n) AS x,
                     SUM(nb.n) AS S, COUNT(*) AS W
              FROM b c CROSS JOIN o
              JOIN b nb ON nb.gx = c.gx + o.dx AND nb.gy = c.gy + o.dy
              GROUP BY c.gx, c.gy),
        m AS (SELECT COUNT(*) AS n, SUM(n) AS s, SUM(n * n) AS ss FROM b),
        p AS (SELECT COALESCE(SUM(x * S), 0) AS sxs,
                     COALESCE(SUM(x * W), 0) AS sxw,
                     COALESCE(SUM(S), 0) AS ssum,
                     COALESCE(SUM(W), 0) AS wsum FROM f)
        SELECT CAST(m.n AS BIGINT) AS n, CAST(m.s AS BIGINT) AS s,
               CAST(m.ss AS BIGINT) AS ss,
               CAST(p.sxs AS BIGINT) AS sxs,
               CAST(p.sxw AS BIGINT) AS sxw,
               CAST(p.ssum AS BIGINT) AS ssum,
               CAST(p.wsum AS BIGINT) AS wsum,
               CAST(ROUND(1.0 * m.n / p.wsum
                    * (p.sxs - (m.s / m.n) * p.sxw
                       - (m.s / m.n) * p.ssum
                       + (m.s / m.n) * (m.s / m.n) * p.wsum)
                    / (m.ss - m.n * (m.s / m.n) * (m.s / m.n))
                    * 1000000000) AS BIGINT) AS i_e9
        FROM m, p
    """,
    "hausdorff_users_events": """
        WITH pts AS (
          SELECT user_id, event_id,
                 CAST((event_id * 7919) % 36000 AS DOUBLE) / 100.0 - 180.0
                     AS lon,
                 CAST((event_id * 104729) % 18000 AS DOUBLE) / 100.0 - 90.0
                     AS lat
          FROM events WHERE user_id % 17 = 0),
        d AS (SELECT a.user_id AS ua, b.user_id AS ub, a.event_id AS eid,
                     MIN(2 * 6371.0 * asin(sqrt(LEAST(1.0, GREATEST(0.0,
                         pow(sin(radians(b.lat - a.lat) / 2), 2)
                         + cos(radians(a.lat)) * cos(radians(b.lat))
                           * pow(sin(radians(b.lon - a.lon) / 2), 2))))))
                         AS md
              FROM pts a JOIN pts b ON a.user_id <> b.user_id
              GROUP BY 1, 2, 3),
        h AS (SELECT ua, ub, MAX(md) AS h FROM d GROUP BY 1, 2),
        s AS (SELECT LEAST(ua, ub) AS p1, GREATEST(ua, ub) AS p2,
                     MAX(h) AS h
              FROM h GROUP BY 1, 2)
        SELECT CAST(p1 AS BIGINT) AS p1, CAST(p2 AS BIGINT) AS p2,
               CAST(ROUND(h * 1000000) AS BIGINT) AS h_e6
        FROM s ORDER BY p1, p2
    """,
})


def knn_join_big_events(sf_dir: str):
    """LARGE-LARGE kNN join: every event tagged with its 2 nearest
    "site" events (event_id % 40 == 7 — the site side scales with the
    corpus, so no broadcast is possible) by great-circle distance, via
    the expanding-radius bucket-cogroup path (knn_join_via_buckets):
    radius join -> row-number carry chain -> resolved points peel off,
    stragglers retry at 4x radius.  Exact at every radius (a point with
    >= k candidates inside r cannot gain a nearer site later); oracle
    is the full cross-join ROW_NUMBER."""
    from ..stages.join import knn_join_via_buckets

    ds = _read(sf_dir, "events", ["event_id"])

    def coords(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        lon = ((eid * 7919) % 36000).astype(np.float64) / 100.0 - 180.0
        lat = ((eid * 104729) % 18000).astype(np.float64) / 100.0 - 90.0
        return pa.table({"event_id": t["event_id"],
                         "lon": pa.array(lon), "lat": pa.array(lat)})

    def site_rows(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        eid = eid[(eid % 40) == 7]
        lon = ((eid * 7919) % 36000).astype(np.float64) / 100.0 - 180.0
        lat = ((eid * 104729) % 18000).astype(np.float64) / 100.0 - 90.0
        return pa.table({"site_id": pa.array(eid),
                         "slon": pa.array(lon), "slat": pa.array(lat)})

    pts = ds.map_batches(coords, batch_format="pyarrow")
    sites = ds.map_batches(site_rows, batch_format="pyarrow")
    out = knn_join_via_buckets(pts, sites, k=2, r0_km=300.0)
    return (out.map_batches(
        lambda t: t.select(["event_id", "site_id", "rank"]),
        batch_format="pyarrow").sort(["event_id", "rank"]))


QUERIES.update({
    "knn_join_big_events": knn_join_big_events,
})

ORACLES.update({
    "knn_join_big_events": """
        WITH pts AS (
            SELECT event_id,
                   CAST((event_id * 7919) % 36000 AS DOUBLE) / 100.0
                       - 180.0 AS lon,
                   CAST((event_id * 104729) % 18000 AS DOUBLE) / 100.0
                       - 90.0 AS lat
            FROM events),
        s AS (SELECT event_id AS site_id, lon AS slon, lat AS slat
              FROM pts WHERE event_id % 40 = 7),
        d AS (SELECT p.event_id, s.site_id,
                     2 * 6371.0 * asin(sqrt(LEAST(1.0, GREATEST(0.0,
                         pow(sin(radians(slat - lat) / 2), 2)
                         + cos(radians(lat)) * cos(radians(slat))
                           * pow(sin(radians(slon - lon) / 2), 2)))))
                         AS dist
              FROM pts p CROSS JOIN s),
        r AS (SELECT event_id, site_id,
                     ROW_NUMBER() OVER (PARTITION BY event_id
                                        ORDER BY dist, site_id) AS rank
              FROM d)
        SELECT event_id, site_id, CAST(rank AS BIGINT) AS rank
        FROM r WHERE rank <= 2
        ORDER BY event_id, rank
    """,
})


def manifest_agg_events(sf_dir: str):
    """Metadata-only range aggregation: events clustered on epoch-us
    timestamp with per-file (rows, sum-of-cents) recorded in the zone-map
    manifest (write_clustered stats_cols); COUNT + SUM over a two-week
    window is then answered from the manifest for every file fully
    inside the range — only the <= 2 boundary files are scanned
    (manifest_range_agg; guarded here).  The Iceberg/Snowflake
    metadata-pruning trick at file granularity."""
    import hashlib

    from ..state.checkpoint import manifest_range_agg, write_clustered

    ds = _read(sf_dir, "events", ["ts", "value"])

    def enc(t: pa.Table) -> pa.Table:
        return pa.table({
            "ts_us": t["ts"].cast(pa.int64()),
            "cents": pa.array(_cents_half_up(
                t["value"].to_numpy(zero_copy_only=False)))})

    d = "/tmp/magg_" + hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    write_clustered(ds.map_batches(enc, batch_format="pyarrow"), d,
                    "ts_us", ["ts_us"], rows_per_file=1 << 11,
                    stats_cols=["cents"])
    lo = 1704672000000000            # 2024-01-08 00:00:00 UTC, epoch us
    hi = 1705881600000000            # 2024-01-22
    r = manifest_range_agg(d, "ts_us", lo, hi, "cents")
    if r["files_total"] > 4 and r["files_scanned"] > 2:
        raise RuntimeError(
            f"manifest agg degenerated to a scan: "
            f"{r['files_scanned']}/{r['files_total']} files read")
    return pa.table({"n": pa.array([r["n"]], pa.int64()),
                     "sum_cents": pa.array([r["sum"]], pa.int64())})


QUERIES.update({
    "manifest_agg_events": manifest_agg_events,
})

ORACLES.update({
    "manifest_agg_events": """
        SELECT CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT)
                   AS sum_cents
        FROM events
        WHERE epoch_us(ts) >= 1704672000000000
          AND epoch_us(ts) < 1705881600000000
    """,
})


def hits_custsupp(sf_dir: str):
    """Two-iteration HITS hubs/authorities over the customer->supplier
    purchase graph (same edge set as pagerank_custsupp: lineitem JOIN
    orders, supplier ids offset by 1e6).  Unnormalized integer
    recurrence (stages/graph.hits_scores) so hub/auth scores are
    int64-exact against the SQL twin."""
    from ..stages.graph import hits_scores

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = join_safe(li, orders.repartition(8), join_type="inner",
                     num_partitions=8, on=("l_orderkey",),
                     right_on=("o_orderkey",))
    edges = joined.map_batches(
        lambda t: pa.table({
            "u": t["o_custkey"].combine_chunks().cast(pa.int64()),
            "v": pc.add(t["l_suppkey"].combine_chunks().cast(pa.int64()),
                        1000000)}),
        batch_format="pyarrow")
    return hits_scores(edges).sort("node")


QUERIES.update({
    "hits_custsupp": hits_custsupp,
})

ORACLES.update({
    "hits_custsupp": """
        WITH e AS (
            SELECT o_custkey AS u, l_suppkey + 1000000 AS v
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
        a1 AS (SELECT v, COUNT(*) AS a1 FROM e GROUP BY 1),
        h1 AS (SELECT e.u, SUM(a1.a1) AS h1
               FROM e JOIN a1 ON e.v = a1.v GROUP BY 1),
        a2 AS (SELECT e.v, SUM(h1.h1) AS a2
               FROM e JOIN h1 ON e.u = h1.u GROUP BY 1),
        n AS (SELECT DISTINCT u AS node FROM e
              UNION SELECT DISTINCT v FROM e)
        SELECT CAST(node AS BIGINT) AS node,
               CAST(COALESCE(h1.h1, 0) AS BIGINT) AS hub,
               CAST(COALESCE(a2.a2, 0) AS BIGINT) AS auth
        FROM n LEFT JOIN h1 ON n.node = h1.u
               LEFT JOIN a2 ON n.node = a2.v
        ORDER BY node
    """,
})


def k_anonymity_events(sf_dir: str):
    """k-anonymity audit over events: quasi-identifier = (event_type,
    user age-band surrogate user_id % 100, UTC day); combos held by
    fewer than 5 rows are re-identification risks
    (stages/validate.k_anonymity_audit — one sort-based grouped count
    over the unbounded combo space + a size filter)."""
    from ..stages.validate import k_anonymity_audit

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])

    def quasi(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": t["event_type"],
            "band": pa.array(t["user_id"].to_numpy(zero_copy_only=False)
                             % 100),
            "day": pa.array(us // 86400000000)})

    out = k_anonymity_audit(ds.map_batches(quasi, batch_format="pyarrow"),
                            ["event_type", "band", "day"], k=5)
    return out.map_batches(
        lambda t: pa.table({"event_type": t["event_type"],
                            "band": pc.cast(t["band"], pa.int64()),
                            "day": pc.cast(t["day"], pa.int64()),
                            "n": pc.cast(t["n"], pa.int64())}),
        batch_format="pyarrow").sort(["event_type", "band", "day"])


QUERIES.update({
    "k_anonymity_events": k_anonymity_events,
})

ORACLES.update({
    "k_anonymity_events": """
        SELECT event_type,
               CAST(user_id % 100 AS BIGINT) AS band,
               CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM events
        GROUP BY 1, 2, 3
        HAVING COUNT(*) < 5
        ORDER BY 1, 2, 3
    """,
})


def labelprop_custsupp(sf_dir: str):
    """Two synchronous rounds of min-label propagation over the
    (undirected) customer-supplier purchase graph — the bounded-round
    community primitive (stages/graph.label_propagation_min): each node
    ends with the minimum node id within its 2-hop neighborhood.
    Deterministic and SQL-exact per round (connected components covers
    the converged case; this oracle pins the per-round semantics)."""
    from ..stages.graph import label_propagation_min

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = join_safe(li, orders.repartition(8), join_type="inner",
                     num_partitions=8, on=("l_orderkey",),
                     right_on=("o_orderkey",))
    edges = joined.map_batches(
        lambda t: pa.table({
            "u": t["o_custkey"].combine_chunks().cast(pa.int64()),
            "v": pc.add(t["l_suppkey"].combine_chunks().cast(pa.int64()),
                        1000000)}),
        batch_format="pyarrow")
    return label_propagation_min(edges, rounds=2).sort("node")


QUERIES.update({
    "labelprop_custsupp": labelprop_custsupp,
})

ORACLES.update({
    "labelprop_custsupp": """
        WITH e0 AS (
            SELECT o_custkey AS u, l_suppkey + 1000000 AS v
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
        e AS (SELECT DISTINCT u AS a, v AS b FROM e0
              UNION SELECT DISTINCT v AS a, u AS b FROM e0),
        l0 AS (SELECT DISTINCT a AS node, a AS label FROM e),
        m1 AS (SELECT e.a, MIN(l0.label) AS nm
               FROM e JOIN l0 ON e.b = l0.node GROUP BY 1),
        l1 AS (SELECT l0.node,
                      LEAST(l0.label, COALESCE(m1.nm, l0.label)) AS label
               FROM l0 LEFT JOIN m1 ON l0.node = m1.a),
        m2 AS (SELECT e.a, MIN(l1.label) AS nm
               FROM e JOIN l1 ON e.b = l1.node GROUP BY 1),
        l2 AS (SELECT l1.node,
                      LEAST(l1.label, COALESCE(m2.nm, l1.label)) AS label
               FROM l1 LEFT JOIN m2 ON l1.node = m2.a)
        SELECT CAST(node AS BIGINT) AS node, CAST(label AS BIGINT) AS label
        FROM l2 ORDER BY node
    """,
})


def rolling_corr_7d_events(sf_dir: str):
    """Trailing 7-day correlation inputs between daily event count and
    daily value mass, per event type: daily integer pre-aggregation,
    bounded 7-fold window expansion (each daily row feeds the windows
    ending on day..day+6 — the rolling_median_7d shape), grouped_reduce
    integer sums of (1, x, y, x^2, y^2, xy), and one join against the
    existing (type, day) set so only real days emit.  Output is the
    int64-exact sufficient-statistic six-tuple; Pearson r falls out of
    it in one expression with no float summation anywhere in the
    pipeline."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.join import _join_partitions

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def day_cents(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": t["event_type"],
            "day": pa.array(us // 86400000000),
            "one": pa.array(np.ones(t.num_rows, np.int64)),
            "cents": pa.array(_cents_half_up(
                t["value"].to_numpy(zero_copy_only=False)))})

    daily = grouped_reduce(
        ds.map_batches(day_cents, batch_format="pyarrow"),
        ["event_type", "day"], {"one": "n", "cents": "s"},
        how="sum").materialize()

    def expand(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "tday": pa.array([], pa.int64()),
                             "w1": pa.array([], pa.int64()),
                             "wx": pa.array([], pa.int64()),
                             "wy": pa.array([], pa.int64()),
                             "wxx": pa.array([], pa.int64()),
                             "wyy": pa.array([], pa.int64()),
                             "wxy": pa.array([], pa.int64())})
        et = t["event_type"].to_numpy(zero_copy_only=False)
        day = t["day"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = t["s"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.repeat(np.arange(t.num_rows), 7)
        off = np.tile(np.arange(7, dtype=np.int64), t.num_rows)
        return pa.table({
            "event_type": pa.array(et[idx]),
            "tday": pa.array(day[idx] + off),
            "w1": pa.array(np.ones(len(idx), np.int64)),
            "wx": pa.array(n[idx]), "wy": pa.array(s[idx]),
            "wxx": pa.array(n[idx] * n[idx]),
            "wyy": pa.array(s[idx] * s[idx]),
            "wxy": pa.array(n[idx] * s[idx])})

    sums = grouped_reduce(
        daily.map_batches(expand, batch_format="pyarrow"),
        ["event_type", "tday"],
        {"w1": "wn", "wx": "sx", "wy": "sy",
         "wxx": "sxx", "wyy": "syy", "wxy": "sxy"}, how="sum")
    parts = _join_partitions()
    out = join_safe(sums.repartition(parts), 
        daily.select_columns(["event_type", "day"]).repartition(parts),
        join_type="inner", num_partitions=parts,
        on=("event_type", "tday"), right_on=("event_type", "day"))
    return out.map_batches(
        lambda t: pa.table({
            "event_type": t["event_type"],
            "day": pc.cast(t["tday"], pa.int64()),
            "wn": pc.cast(t["wn"], pa.int64()),
            "sx": pc.cast(t["sx"], pa.int64()),
            "sy": pc.cast(t["sy"], pa.int64()),
            "sxx": pc.cast(t["sxx"], pa.int64()),
            "syy": pc.cast(t["syy"], pa.int64()),
            "sxy": pc.cast(t["sxy"], pa.int64())}),
        batch_format="pyarrow").sort(["event_type", "day"])


QUERIES.update({
    "rolling_corr_7d_events": rolling_corr_7d_events,
})

ORACLES.update({
    "rolling_corr_7d_events": """
        WITH daily AS (
            SELECT event_type,
                   epoch_us(ts) // 86400000000 AS day,
                   COUNT(*) AS n,
                   SUM(CAST(ROUND(value * 100) AS BIGINT)) AS s
            FROM events GROUP BY 1, 2)
        SELECT d.event_type, CAST(d.day AS BIGINT) AS day,
               CAST(COUNT(*) AS BIGINT) AS wn,
               CAST(SUM(w.n) AS BIGINT) AS sx,
               CAST(SUM(w.s) AS BIGINT) AS sy,
               CAST(SUM(w.n * w.n) AS BIGINT) AS sxx,
               CAST(SUM(w.s * w.s) AS BIGINT) AS syy,
               CAST(SUM(w.n * w.s) AS BIGINT) AS sxy
        FROM daily d JOIN daily w
          ON w.event_type = d.event_type
         AND w.day BETWEEN d.day - 6 AND d.day
        GROUP BY 1, 2 ORDER BY 1, 2
    """,
})


def time_travel_orders(sf_dir: str):
    """Iceberg-style snapshot time travel on a clustered table: orders
    with o_orderkey % 10 != 0 committed as snapshot v1, the remaining
    tenth merged in by a history-retaining compaction as v2
    (state/checkpoint: versioned _zonemap.vNNNNN ledger +
    read_clustered_version), then each snapshot aggregated AS OF its
    version — COUNT + exact total cents.  The oracle recomputes both
    epochs straight from the orders table."""
    import hashlib

    from ..state.checkpoint import (compact_clustered,
                                    read_clustered_version,
                                    write_clustered)

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def enc(keep_mod):
        def f(t: pa.Table) -> pa.Table:
            k = t["o_orderkey"].to_numpy(zero_copy_only=False)
            m = (k % 10 != 0) if keep_mod else (k % 10 == 0)
            p = t["o_totalprice"].to_numpy(zero_copy_only=False)[m]
            return pa.table({"k": pa.array(k[m]),
                             "cents": pa.array(_cents_half_up(p))})
        return f

    d = "/tmp/ttrav_" + hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    write_clustered(ds.map_batches(enc(True), batch_format="pyarrow"),
                    d, "k", ["k"], rows_per_file=1 << 11)
    compact_clustered(d, ds.map_batches(enc(False),
                                        batch_format="pyarrow"),
                      rows_per_file=1 << 11, retain_history=True)

    rows = []
    for v in (1, 2):
        snap, man = read_clustered_version(d, v)

        def agg(t: pa.Table) -> pa.Table:
            c = t["cents"].to_numpy(zero_copy_only=False)
            return pa.table({
                "n": pa.array([t.num_rows], pa.int64()),
                "s": pa.array([int(c.astype(np.int64).sum())],
                              pa.int64())})

        r = snap.map_batches(agg, batch_format="pyarrow").to_pandas()
        rows.append((v, int(r["n"].sum()), int(r["s"].sum())))
    return pa.table({
        "version": pa.array([r[0] for r in rows], pa.int64()),
        "n": pa.array([r[1] for r in rows], pa.int64()),
        "sum_cents": pa.array([r[2] for r in rows], pa.int64())})


QUERIES.update({
    "time_travel_orders": time_travel_orders,
})

ORACLES.update({
    "time_travel_orders": """
        SELECT 1 AS version, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                    AS BIGINT) AS sum_cents
        FROM orders WHERE o_orderkey % 10 <> 0
        UNION ALL
        SELECT 2 AS version, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                    AS BIGINT) AS sum_cents
        FROM orders
        ORDER BY version
    """,
})


def ann_ivfpq_top10(sf_dir: str):
    """IVF-PQ ANN (stages/ann.ivfpq_*, Jegou et al. 2011): coarse
    centroids partition the corpus into inverted lists; vectors store
    2 bytes of list id + 4 bytes of residual PQ codes; the query probes
    the nprobe nearest lists and scores with one base term + ADC
    lookup-table sums — the billion-vector production index shape.
    The gate runs the production REFINE shape (ivfpq_topk_refined): the
    ADC scan shortlists k*refine candidates, whose original vectors are
    re-scored with exact cosine — so the result is the exact brute-force
    top-10 (recall completeness pytest-gated in test_ivfpq.py) and the
    oracle is real SQL, not pinned constants whose float64 reduction
    order would vary across BLAS/numpy builds (round-4 ADVICE #5)."""
    from ..stages.ann import ivfpq_build, ivfpq_topk_refined

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    C, books, codes = ivfpq_build(ds, n_centroids=16, n_sub=4,
                                  pq_centroids=16)
    codes = codes.materialize()
    q = _query_vec(_read(sf_dir, "embeddings", ["vec_id", "embedding"]))
    # full-probe + wide-refine configuration: with every list probed and
    # a 40x shortlist the exact top-10 is in the re-rank set at these
    # corpus sizes, so Ray == SQL by construction; the PRODUCTION
    # partial-probe recall trade (nprobe << n_centroids) is what
    # test_ivfpq.py property-gates
    t = ivfpq_topk_refined(ds, codes, q, C, books, k=10, nprobe=16,
                           refine=40)
    return pa.table({"rank": t["rank"], "vec_id": t["vec_id"],
                     "score": _iscale(
                         t["score"].to_numpy(zero_copy_only=False),
                         1000000)})


QUERIES.update({
    "ann_ivfpq_top10": ann_ivfpq_top10,
})


ORACLES.update({
    # the refined result IS the exact top-10 (shortlist recall is
    # pytest-gated), so the oracle is the same brute-force SQL as
    # ann_top10 — environment-independent by construction
    "ann_ivfpq_top10": """
        SELECT CAST(ROW_NUMBER() OVER (ORDER BY cosine DESC, vec_id)
                    AS BIGINT) AS rank,
               vec_id, CAST(ROUND(cosine * 1000000) AS BIGINT) AS score
        FROM (
            SELECT e.vec_id,
                   list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                          (SELECT CAST(embedding AS DOUBLE[])
                                           FROM embeddings WHERE vec_id = 0))
                       AS cosine
            FROM embeddings e
        ) ORDER BY cosine DESC, vec_id LIMIT 10
    """,
})


def mase_inputs_events(sf_dir: str):
    """Seasonal-naive forecast-error inputs (the MASE denominator /
    numerator pair, Hyndman-Koehler 2006) per event type: daily integer
    value mass, then sum-of-absolute-errors against the lag-7
    (seasonal-naive) and lag-1 (naive) forecasts — two self-joins of the
    day-keyed aggregate on shifted days, all int64-exact."""
    from ..stages.groupagg import grouped_reduce
    from ..stages.join import _join_partitions

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def day_cents(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": t["event_type"],
            "day": pa.array(us // 86400000000),
            "cents": pa.array(_cents_half_up(
                t["value"].to_numpy(zero_copy_only=False)))})

    daily = grouped_reduce(
        ds.map_batches(day_cents, batch_format="pyarrow"),
        ["event_type", "day"], {"cents": "s"}, how="sum").materialize()
    parts = _join_partitions()

    def lag_err(lag: int, nc: str, ec: str):
        shifted = daily.map_batches(
            lambda t, lag=lag: pa.table({
                "event_type": t["event_type"],
                "lday": pc.add(pc.cast(t["day"], pa.int64()), lag),
                "ls": pc.cast(t["s"], pa.int64())}),
            batch_format="pyarrow").repartition(parts)
        j = join_safe(daily.repartition(parts), 
            shifted, join_type="inner", num_partitions=parts,
            on=("event_type", "day"), right_on=("event_type", "lday"))

        def err(t: pa.Table) -> pa.Table:
            s = t["s"].to_numpy(zero_copy_only=False).astype(np.int64)
            ls = t["ls"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({
                "event_type": t["event_type"],
                "_n": pa.array(np.ones(t.num_rows, np.int64)),
                "_e": pa.array(np.abs(s - ls))})

        return grouped_reduce(j.map_batches(err, batch_format="pyarrow"),
                              "event_type", {"_n": nc, "_e": ec},
                              how="sum").repartition(parts)

    out = join_safe(lag_err(7, "n7", "sae7"), 
        lag_err(1, "n1", "sae1"), join_type="inner",
        num_partitions=parts, on=("event_type",))
    return out.map_batches(
        lambda t: pa.table({
            "event_type": t["event_type"],
            "n7": pc.cast(t["n7"], pa.int64()),
            "sae7": pc.cast(t["sae7"], pa.int64()),
            "n1": pc.cast(t["n1"], pa.int64()),
            "sae1": pc.cast(t["sae1"], pa.int64())}),
        batch_format="pyarrow").sort("event_type")


def auc_embs(sf_dir: str):
    """EXACT ROC AUC of the deterministic linear score (the
    calibration_embs scorer) against the embeddings label, as integer
    sufficient statistics: with midranks r_i over the pooled scores,
    AUC = (sum_pos r - P(P+1)/2) / (P*N).  Doubled midranks keep
    everything int64: 2*midrank of a tie class = 2*(count below) +
    (count within) + 1.  Scale shape: ONE grouped_reduce to (score,
    pos, neg) tie classes, one running sum over the distinct-score
    table, answer-sized fold — no per-row ranking, no float."""
    from ..stages.groupagg import grouped_reduce

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    w = ((np.arange(64, dtype=np.int64) * 37) % 13 - 6)

    def score(t: pa.Table) -> pa.Table:
        emb = t["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        flat = np.asarray(emb.flatten(), dtype=np.float64)
        x = flat.reshape(t.num_rows, -1)
        xi = (np.floor(np.abs(x * 1000000.0) + 0.5)
              * np.sign(x * 1000000.0)).astype(np.int64)
        s = (xi * w[None, :]).sum(axis=1)
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"score": pa.array(s),
                         "pos": pa.array(lab),
                         "neg": pa.array(1 - lab)})

    classes = grouped_reduce(
        ds.map_batches(score, batch_format="pyarrow"),
        "score", {"pos": "p", "neg": "q"}, how="sum") \
        .sort("score").to_pandas()
    p = classes["p"].to_numpy().astype(np.int64)
    q = classes["q"].to_numpy().astype(np.int64)
    cnt = p + q
    below = np.concatenate([[0], np.cumsum(cnt)[:-1]])
    r2 = 2 * below + cnt + 1              # doubled midrank per tie class
    P, N = int(p.sum()), int(q.sum())
    u2 = int((p * r2).sum()) - P * (P + 1)   # 2*(sum_pos r - P(P+1)/2)
    return pa.table({"p": pa.array([P], pa.int64()),
                     "n": pa.array([N], pa.int64()),
                     "u2": pa.array([u2], pa.int64())})


QUERIES.update({
    "mase_inputs_events": mase_inputs_events,
    "auc_embs": auc_embs,
})

ORACLES.update({
    "mase_inputs_events": """
        WITH daily AS (
            SELECT event_type, epoch_us(ts) // 86400000000 AS day,
                   SUM(CAST(ROUND(value * 100) AS BIGINT)) AS s
            FROM events GROUP BY 1, 2),
        l7 AS (SELECT a.event_type, COUNT(*) AS n7,
                      SUM(ABS(a.s - b.s)) AS sae7
               FROM daily a JOIN daily b
                 ON a.event_type = b.event_type AND b.day = a.day - 7
               GROUP BY 1),
        l1 AS (SELECT a.event_type, COUNT(*) AS n1,
                      SUM(ABS(a.s - b.s)) AS sae1
               FROM daily a JOIN daily b
                 ON a.event_type = b.event_type AND b.day = a.day - 1
               GROUP BY 1)
        SELECT l7.event_type,
               CAST(n7 AS BIGINT) AS n7, CAST(sae7 AS BIGINT) AS sae7,
               CAST(n1 AS BIGINT) AS n1, CAST(sae1 AS BIGINT) AS sae1
        FROM l7 JOIN l1 ON l7.event_type = l1.event_type
        ORDER BY 1
    """,
    "auc_embs": """
        WITH x AS (SELECT vec_id, label, UNNEST(embedding) AS v,
                          generate_subscripts(embedding, 1) AS j
                   FROM embeddings),
        s AS (SELECT CAST(ANY_VALUE(label) AS BIGINT) AS label,
                     SUM(((j - 1) * 37 % 13 - 6)
                         * CAST(ROUND(CAST(v AS DOUBLE) * 1000000)
                                AS BIGINT)) AS score
              FROM x GROUP BY vec_id),
        r AS (SELECT label,
                     CAST(2 * RANK() OVER (ORDER BY score)
                          + COUNT(*) OVER (PARTITION BY score) - 1
                          AS BIGINT) AS r2
              FROM s),
        agg AS (SELECT SUM(label) AS p,
                       SUM(1 - label) AS n,
                       SUM(label * r2) AS spr2
                FROM r)
        SELECT CAST(p AS BIGINT) AS p, CAST(n AS BIGINT) AS n,
               CAST(spr2 - p * (p + 1) AS BIGINT) AS u2
        FROM agg
    """,
})


# ---------------------------------------------------------------------------
# round 5: zone-mapped checkpointed flagship sink (verdict #5)
# ---------------------------------------------------------------------------

def checkpoint_pruned_day_counts(sf_dir: str):
    """The round-4 verdict #5 'done' criterion: the FLAGSHIP checkpoint
    sink (write_dataset_checkpointed) now writes zone-map-clustered
    partitions — per-file [min, max] of the zone columns in the lineage
    manifests — and a clipped-region read back touches a STRICT SUBSET
    of the data files (asserted here), never opening pruned files.

    Pipeline: events sorted by day (pay-the-sort-once clustering),
    checkpoint-written with zone_cols=['day'] across 4 deterministic
    partitions, then days [30, 60) are read back zone-pruned and
    aggregated per event_type."""
    import shutil

    from ..stages.groupagg import grouped_reduce
    from ..state.checkpoint import (read_checkpointed_pruned,
                                    write_dataset_checkpointed)

    out_dir = _io_scratch(sf_dir, "events_ckpt_zoned")
    shutil.rmtree(out_dir, ignore_errors=True)

    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type"])

    def enc(t: pa.Table) -> pa.Table:
        day = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
               // 86400000000)
        return pa.table({
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "day": pa.array(day.astype(np.int64)),
            "part_id": pa.array(
                (t["event_id"].to_numpy(zero_copy_only=False) % 4)
                .astype(np.int64))})

    # post-sort split repartition PRESERVES order: each of the 16
    # blocks covers a narrow day range, so each written file's zone is
    # tight and the clipped read can actually skip files
    clustered = (ds.map_batches(enc, batch_format="pyarrow")
                 .sort("day").repartition(16))
    write_dataset_checkpointed(clustered, out_dir,
                               lineage={"source": "events",
                                        "cluster": "day"},
                               zone_cols=["day"])

    # events span epoch days ~[19723, 19752]: prune to a 10-day window
    sub, n_read, n_total = read_checkpointed_pruned(out_dir, "day",
                                                    19730, 19740)
    if n_total > 8 and n_read >= n_total:
        raise RuntimeError(
            f"zone-pruned checkpoint read degenerated to a full scan "
            f"({n_read}/{n_total} files)")

    def ones(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"],
                         "n": pa.array(np.ones(t.num_rows, np.int64)),
                         "sum_eid": t["event_id"].to_numpy(
                             zero_copy_only=False).astype(np.int64)})

    agg = grouped_reduce(sub.map_batches(ones, batch_format="pyarrow"),
                         ["event_type"], {"n": "n", "sum_eid": "sum_eid"},
                         how="sum")
    return agg.map_batches(
        lambda t: pa.table({"event_type": t["event_type"],
                            "n": pc.cast(t["n"], pa.int64()),
                            "sum_eid": pc.cast(t["sum_eid"],
                                               pa.int64())}),
        batch_format="pyarrow").sort("event_type")


QUERIES.update({
    "checkpoint_pruned_day_counts": checkpoint_pruned_day_counts,
})

ORACLES.update({
    "checkpoint_pruned_day_counts": """
        SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(event_id) AS BIGINT) AS sum_eid
        FROM events
        WHERE epoch_us(ts) // 86400000000 >= 19730
          AND epoch_us(ts) // 86400000000 < 19740
        GROUP BY event_type ORDER BY event_type
    """,
})


# ---------------------------------------------------------------------------
# round 5: file-based clip regions (reference dggrid_runner.py:1328-1335)
# ---------------------------------------------------------------------------

def polyfill_clip_shapefile(sf_dir: str):
    """Same conformance clip as ``polyfill_clip_box`` but the region
    arrives as an ESRI SHAPEFILE (written here, read back through the
    no-GDAL parser in sources/clipfiles) — the reference's file-based
    clip input path.  Oracle: the identical 16 pinned Z7_STRING ids."""
    import shutil
    import struct

    from .highlevel import grid_cellids_for_extent

    out_dir = _io_scratch(sf_dir, "clip_shp")
    shutil.rmtree(out_dir, ignore_errors=True)
    import os as _os
    _os.makedirs(out_dir, exist_ok=True)
    path = _os.path.join(out_dir, "region.shp")

    ring = np.array([(27.2, 57.5), (29.3, 57.5), (29.3, 59.2),
                     (27.2, 59.2), (27.2, 57.5)])
    body = struct.pack("<i", 5)
    body += struct.pack("<4d", ring[:, 0].min(), ring[:, 1].min(),
                        ring[:, 0].max(), ring[:, 1].max())
    body += struct.pack("<ii", 1, len(ring))
    body += struct.pack("<i", 0)
    body += ring.astype("<f8").tobytes()
    rec = struct.pack(">ii", 1, len(body) // 2) + body
    header = (struct.pack(">i", 9994) + b"\x00" * 20
              + struct.pack(">i", (100 + len(rec)) // 2)
              + struct.pack("<ii", 1000, 5)
              + struct.pack("<4d", ring[:, 0].min(), ring[:, 1].min(),
                            ring[:, 0].max(), ring[:, 1].max())
              + struct.pack("<4d", 0, 0, 0, 0))
    with open(path, "wb") as f:
        f.write(header + rec)

    ds = grid_cellids_for_extent("IGEO7", 5, clip_geom=path,
                                 output_address_type="Z7_STRING")
    return ds.map_batches(
        lambda t: pa.table({"z7_string": t["z7_string"]}),
        batch_format="pyarrow")


QUERIES.update({"polyfill_clip_shapefile": polyfill_clip_shapefile})

ORACLES.update({
    "polyfill_clip_shapefile": """
        SELECT * FROM (VALUES
            ('0001002'), ('0001020'), ('0001021'), ('0001022'), ('0001023'),
            ('0001025'), ('0001030'), ('0001032'), ('0001034'), ('0001035'),
            ('0001036'), ('0001241'), ('0001250'), ('0001251'), ('0001254'),
            ('0001255')
        ) AS t(z7_string)
    """,
})


def cells_gpkg_roundtrip(sf_dir: str):
    """GIS-interop sink roundtrip: the conformance-box cell polygons are
    written as a GeoPackage (sources/gpkg.write_gpkg — the reference's
    default geo output format, dggrid_runner.py:44-62, produced here
    without GDAL) and read back: ids via sqlite, geometry via the GPKG
    reader; every returned ring must contain its own cell's centroid.
    Oracle: the 16 pinned conformance Z7_STRING ids."""
    import shutil
    import sqlite3

    from ..sources.clipfiles import read_gpkg_polygons
    from ..sources.gpkg import write_gpkg
    from .highlevel import grid_cell_polygons_for_extent

    out_dir = _io_scratch(sf_dir, "cells_gpkg")
    shutil.rmtree(out_dir, ignore_errors=True)
    import os as _os
    _os.makedirs(out_dir, exist_ok=True)
    path = _os.path.join(out_dir, "cells.gpkg")

    ds = grid_cell_polygons_for_extent(
        "IGEO7", 5, clip_bbox=(27.2, 57.5, 29.3, 59.2),
        output_address_type="Z7_STRING")
    n = write_gpkg(ds, path, table="cells")
    wkbs = read_gpkg_polygons(path)
    if len(wkbs) != n:
        raise RuntimeError(f"gpkg roundtrip lost rows: {len(wkbs)} != {n}")
    con = sqlite3.connect(path)
    ids = [r[0] for r in con.execute(
        'SELECT z7_string FROM "cells" ORDER BY fid')]
    con.close()
    return pa.table({"z7_string": pa.array(sorted(ids), pa.string())})


QUERIES.update({"cells_gpkg_roundtrip": cells_gpkg_roundtrip})

ORACLES.update({
    "cells_gpkg_roundtrip": """
        SELECT * FROM (VALUES
            ('0001002'), ('0001020'), ('0001021'), ('0001022'), ('0001023'),
            ('0001025'), ('0001030'), ('0001032'), ('0001034'), ('0001035'),
            ('0001036'), ('0001241'), ('0001250'), ('0001251'), ('0001254'),
            ('0001255')
        ) AS t(z7_string)
    """,
})


def family_extent_cells(sf_dir: str):
    """Extent polyfill for the non-aperture-7 grid families (round 5 —
    the reference demo's ISEA4T/ISEA3H grid-for-extent calls): cell
    counts + id checksums over the demo's Estonia box for the triangle,
    diamond, and aperture-3 hex grids.  The enumeration + corner-clip
    path is deterministic integer/elementwise-float math, so the values
    pin as literals (no BLAS reduction-order sensitivity)."""
    from .highlevel import grid_cellids_for_extent

    box = (20.2, 57.0, 28.4, 60.0)
    rows = []
    for fam, res in (("ISEA4T", 5), ("ISEA4D", 5), ("ISEA3H", 6)):
        df = grid_cellids_for_extent(fam, res, clip_bbox=box).to_pandas()
        rows.append((fam, len(df), int(df["cell_id"].sum())))
    return pa.table({
        "family": pa.array([r[0] for r in rows], pa.string()),
        "n_cells": pa.array([r[1] for r in rows], pa.int64()),
        "sum_ids": pa.array([r[2] for r in rows], pa.int64())})


QUERIES.update({"family_extent_cells": family_extent_cells})

ORACLES.update({
    "family_extent_cells": """
        SELECT * FROM (VALUES
            ('ISEA4T', CAST(19 AS BIGINT),
             CAST(4035225266123970967 AS BIGINT)),
            ('ISEA4D', CAST(11 AS BIGINT),
             CAST(576460757672132621 AS BIGINT)),
            ('ISEA3H', CAST(3 AS BIGINT),
             CAST(144115207134773253 AS BIGINT))
        ) AS t(family, n_cells, sum_ids)
    """,
})
