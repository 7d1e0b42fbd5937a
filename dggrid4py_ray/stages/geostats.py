"""Geostatistics over point sets: empirical semivariogram and per-key
radius of gyration.

Semivariogram: gamma(h) = SUM (z_i - z_j)^2 / (2 N(h)) over unordered
point pairs whose great-circle separation falls in distance bin h — the
experimental variogram that IDW/kriging parameter fitting starts from
(complements ``stages/interp.idw_grid``).  Pair enumeration reuses the
closed-form lat-band bucket cover of ``join.radius_join_via_buckets``
(one hash join, ~9x replication, no all-pairs stage), so the cost is
O(pairs within max_lag), not O(n^2); at 100 TB the caller bounds the
pair count with ``max_lag`` and/or a deterministic hash sample of the
points (``sampling.hash_sample``), both of which keep the estimator
unbiased.

Radius of gyration (Gonzalez et al. 2008, "Understanding individual
human mobility patterns"): per key, sqrt(mean squared great-circle
distance of the key's points to the key's coordinate centroid) — the
standard mobility-scale statistic.  Two passes, both on the sort-based
``grouped_reduce`` scale path (unbounded key cardinality), zipped by one
key-sized hash join; points never materialize on the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..dggs.sphere import haversine_km
from .groupagg import grouped_reduce
from .join import _join_partitions, radius_join_via_buckets
from .join import join_safe

# per-temporary budget for hausdorff_pairs' dense (rows x sites)
# haversine matrices (module-level so tests can shrink it to exercise
# the row-chunking path on small inputs)
_HAUS_CHUNK_BYTES = 64 << 20


def semivariogram(points: ray.data.Dataset, lag_width_km: float,
                  n_bins: int, id_col: str = "id", lon_col: str = "lon",
                  lat_col: str = "lat", value_col: str = "value",
                  ) -> ray.data.Dataset:
    """Empirical semivariogram with ``n_bins`` equal-width distance bins
    of ``lag_width_km`` km.  Output: (bin, n_pairs, gamma) with
    bin = floor(dist / lag_width_km), pairs kept for dist <= max_lag
    (matching the ``<=`` of the radius-join cover); each unordered pair
    (i < j) is counted once.  Bins with no pairs are absent.
    """
    max_lag = lag_width_km * n_bins

    right = points.map_batches(
        lambda t: pa.table({"_rid": t[id_col], "_rlon": t[lon_col],
                            "_rlat": t[lat_col], "_rval": t[value_col]}),
        batch_format="pyarrow")
    pairs = radius_join_via_buckets(
        points, right, max_lag, point_lon=lon_col, point_lat=lat_col,
        site_lon="_rlon", site_lat="_rlat", dist_col="_d")

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"bin": pa.array([], pa.int64()),
                             "np_": pa.array([], pa.int64()),
                             "ss": pa.array([], pa.float64())})
        li = t[id_col].to_numpy(zero_copy_only=False)
        ri = t["_rid"].to_numpy(zero_copy_only=False)
        keep = li < ri                       # unordered pairs, no self
        d = t["_d"].to_numpy(zero_copy_only=False)[keep]
        dz = (t[value_col].to_numpy(zero_copy_only=False)[keep]
              - t["_rval"].to_numpy(zero_copy_only=False)[keep])
        b = np.minimum((d / lag_width_km).astype(np.int64), n_bins - 1)
        g = pd.DataFrame({"bin": b, "np_": np.int64(1), "ss": dz * dz}) \
            .groupby("bin", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum
    agg = (pairs.map_batches(partial, batch_format="pyarrow")
                .groupby("bin").aggregate(Sum("np_", alias_name="n_pairs"),
                                          Sum("ss", alias_name="ss")))

    def finish(t: pa.Table) -> pa.Table:
        n = t["n_pairs"].to_numpy(zero_copy_only=False).astype(np.float64)
        ss = t["ss"].to_numpy(zero_copy_only=False)
        return pa.table({"bin": t["bin"], "n_pairs": t["n_pairs"],
                         "gamma": pa.array(ss / (2.0 * n))})

    return agg.map_batches(finish, batch_format="pyarrow").sort("bin")


def radius_of_gyration(points: ray.data.Dataset, key: str,
                       lon_col: str = "lon", lat_col: str = "lat",
                       ) -> ray.data.Dataset:
    """Per-key radius of gyration: centroid = (AVG(lat), AVG(lon)) in
    degrees, r_g = sqrt(AVG(haversine(point, centroid)^2)).  Output:
    (key, n_points, rog_km).  Both aggregate passes use the sort-based
    ``grouped_reduce`` (safe at unbounded key cardinality); the centroid
    table joins back with one key-sized hash join rather than a driver
    broadcast, so no driver materialization at any key count."""

    def csum(t: pa.Table) -> pa.Table:
        out = t.select([key])
        n = t.num_rows
        return (out.append_column("_n", pa.array(np.ones(n, np.int64)))
                   .append_column("_slat", t[lat_col].cast(pa.float64()))
                   .append_column("_slon", t[lon_col].cast(pa.float64())))

    cent = grouped_reduce(points.map_batches(csum, batch_format="pyarrow"),
                          key=key, col_map={"_n": "_n", "_slat": "_slat",
                                            "_slon": "_slon"}, how="sum")
    cent = cent.map_batches(
        lambda t: pa.table({
            key: t[key], "_n": t["_n"],
            "_clat": pa.array(t["_slat"].to_numpy(zero_copy_only=False)
                              / t["_n"].to_numpy(zero_copy_only=False)),
            "_clon": pa.array(t["_slon"].to_numpy(zero_copy_only=False)
                              / t["_n"].to_numpy(zero_copy_only=False))}),
        batch_format="pyarrow").materialize()    # joined twice below

    parts = _join_partitions()
    withc = join_safe(points.select_columns([key, lon_col, lat_col]) \
        .repartition(parts), cent.repartition(parts), join_type="inner",
              num_partitions=parts, on=(key,))

    def sqdist(t: pa.Table) -> pa.Table:
        out = t.select([key])
        if t.num_rows == 0:
            return out.append_column("_d2", pa.array([], pa.float64()))
        d = haversine_km(t[lon_col].to_numpy(zero_copy_only=False),
                         t[lat_col].to_numpy(zero_copy_only=False),
                         t["_clon"].to_numpy(zero_copy_only=False),
                         t["_clat"].to_numpy(zero_copy_only=False))
        return out.append_column("_d2", pa.array(d * d))

    msd = grouped_reduce(withc.map_batches(sqdist, batch_format="pyarrow"),
                         key=key, col_map={"_d2": "_sd2"}, how="sum")
    parts2 = _join_partitions()
    j = join_safe(msd.repartition(parts2), 
        cent.select_columns([key, "_n"]).repartition(parts2),
        join_type="inner", num_partitions=parts2, on=(key,))

    def finish(t: pa.Table) -> pa.Table:
        n = t["_n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sd2 = t["_sd2"].to_numpy(zero_copy_only=False)
        return pa.table({key: t[key], "n_points": t["_n"],
                         "rog_km": pa.array(np.sqrt(sd2 / n))})

    return j.map_batches(finish, batch_format="pyarrow")


def hausdorff_pairs(points: ray.data.Dataset, key_col: str,
                    lon_col: str = "lon", lat_col: str = "lat",
                    max_sites: int = 200_000,
                    chunk_bytes: int = _HAUS_CHUNK_BYTES
                    ) -> ray.data.Dataset:
    """Symmetric discrete Hausdorff distance (km) between every pair of
    keys' point sets — the trajectory/footprint similarity measure:

        H(A, B) = max( max_a min_b d(a,b),  max_b min_a d(a,b) )

    Scale shape: the CANDIDATE site table (all selected keys' points —
    the caller bounds it by filtering keys first; guarded by
    ``max_sites``) is broadcast once via ray.put, sorted by key so each
    per-batch haversine matrix reduces with ONE ``minimum.reduceat``
    per key segment; the point stream itself never materializes.  Each
    batch emits partial (key_a, key_b, max-of-min) rows; one
    ``grouped_reduce`` max folds the directed distances, a packed
    unordered-pair key folds symmetry.  Both directions fall out of the
    same stream (a's rows vs B's sites gives h(A->B); b's rows vs A's
    sites gives h(B->A)).  Distances evaluate the DuckDB haversine
    expression term-for-term, so min/max of identical doubles is
    bit-exact against the SQL twin."""
    import ray

    from .groupagg import grouped_reduce

    sites = points.select_columns([key_col, lon_col, lat_col]).to_pandas()
    if len(sites) > max_sites:
        raise ValueError(f"hausdorff_pairs: {len(sites)} candidate sites "
                         f"> max_sites={max_sites}; filter keys upstream")
    sites = sites.sort_values([key_col, lon_col, lat_col],
                              ignore_index=True)
    skey = sites[key_col].to_numpy()
    if len(skey):
        seg = np.r_[True, skey[1:] != skey[:-1]]
        starts = np.flatnonzero(seg)
    else:
        # empty site table: np.r_[True, ...] would fabricate one
        # segment and index out of bounds below
        starts = np.array([], dtype=np.int64)
    keys = skey[starts]
    ref = ray.put((keys, starts,
                   sites[lon_col].to_numpy(dtype=np.float64),
                   sites[lat_col].to_numpy(dtype=np.float64)))

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"ka": pa.array([], pa.int64()),
                             "kb": pa.array([], pa.int64()),
                             "h": pa.array([], pa.float64())})
        kys, st, slon, slat = ray.get(ref)
        lon = t[lon_col].to_numpy(zero_copy_only=False)
        lat = t[lat_col].to_numpy(zero_copy_only=False)
        ka = t[key_col].to_numpy(zero_copy_only=False)
        # Row-chunk so the dense (chunk x n_sites) haversine temporaries
        # stay ~64 MB regardless of batch size or site count (max_sites
        # bounds the broadcast, not this matrix).
        chunk = max(1, chunk_bytes // (max(1, len(slon)) * 8))
        pieces = []
        for off in range(0, len(lon), chunk):
            lo, la = lon[off:off + chunk], lat[off:off + chunk]
            # DuckDB term order: pow(sin(radians(dlat)/2),2)
            #   + cos(radians(a))*cos(radians(b))
            #     *pow(sin(radians(dlon)/2),2)
            s2 = (np.sin(np.radians(slat[None, :] - la[:, None]) / 2) ** 2
                  + np.cos(np.radians(la))[:, None]
                  * np.cos(np.radians(slat))[None, :]
                  * np.sin(np.radians(slon[None, :] - lo[:, None]) / 2)
                  ** 2)
            d = 2 * 6371.0 * np.arcsin(np.sqrt(
                np.minimum(1.0, np.maximum(0.0, s2))))
            pieces.append(np.minimum.reduceat(d, st, axis=1))
        mins = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
        df = pd.DataFrame(mins, columns=range(len(kys)))  # (rows, n_keys)
        df["_ka"] = ka
        g = df.groupby("_ka", sort=False).max()
        ga = np.repeat(g.index.to_numpy(), len(kys))
        gb = np.tile(kys, len(g))
        return pa.table({"ka": pa.array(ga), "kb": pa.array(gb),
                         "h": pa.array(g.to_numpy().ravel())})

    directed = grouped_reduce(
        points.map_batches(partial, batch_format="pyarrow"),
        ["ka", "kb"], {"h": "h"}, how="max")

    def sym(t: pa.Table) -> pa.Table:
        ka = t["ka"].to_numpy(zero_copy_only=False).astype(np.int64)
        kb = t["kb"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ka != kb
        ka, kb = ka[keep], kb[keep]
        h = t["h"].to_numpy(zero_copy_only=False)[keep]
        return pa.table({"p1": pa.array(np.minimum(ka, kb)),
                         "p2": pa.array(np.maximum(ka, kb)),
                         "h": pa.array(h)})

    return grouped_reduce(directed.map_batches(sym, batch_format="pyarrow"),
                          ["p1", "p2"], {"h": "hausdorff_km"}, how="max")
