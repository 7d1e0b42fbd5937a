"""High-level grid API over Ray Datasets.

Re-expresses the reference's seven user-facing functions
(dggrid_runner.py:1280-2025) as streaming Ray Data pipelines:

* polyfill ("for_extent" family, H2/H3/H6): hierarchical coarse->fine descent
  via repeated ``map_batches`` child-expansion stages with bbox pruning and
  an exact intersects filter at the target resolution — replacing one
  monolithic single-threaded DGGRID process (dgapi_grid_gen,
  dggrid_runner.py:800-950) with data-parallel fan-out.
* from_cellids family (H4/H5) incl. COARSE_CELLS children expansion
  (:1547-1561).
* cells_for_geo_points (H7, the flagship encode).
* address_transform (H8) and dateline splitting (H9).

Cell descent carries (cell_id, flat lattice id, inherited digit-frame
shift, center vector) in Arrow columns so no per-level tree walk is ever
needed; each level is one bridge child-step (pure integer math away from
face seams) plus one batched Snyder inverse.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..config import Dggs, dgselect
from ..dggs import igeo7 as ig
from ..dggs.igeo7 import IGeo7Grid
from ..geometry import PolygonSet, box
from ..stages.encode import (CellEncoder, BoundaryKernel, CentroidDecoder,
                             AddressTransformer, make_grid)

_STATE_COLS = ["cell_id", "flat_id", "s", "px", "py", "pz"]

from ..stages.encode import grid_for as _grid_for

# rows per descent UDF call: 7x expansion of this is ~3.2 MB of int64
# cell ids + unit-vector state per call — bounded at any depth
DESCEND_BATCH_ROWS = 65536


def _state_table(z7, flat, s, pos) -> pa.Table:
    return pa.table({
        "cell_id": pa.array(z7, type=pa.int64()),
        "flat_id": pa.array(flat, type=pa.int64()),
        "s": pa.array(s, type=pa.int64()),
        "px": pa.array(pos[:, 0]), "py": pa.array(pos[:, 1]), "pz": pa.array(pos[:, 2]),
    })


def _seed_table(grid: IGeo7Grid, res: int, clip: PolygonSet | None) -> pa.Table:
    """Driver-side seed: all cells at min(res, 3), bbox-pruned against clip."""
    sres = min(res, 3)
    n = ig.num_cells(sres)
    z = grid.from_seqnum(np.arange(1, n + 1, dtype=np.int64), sres)
    flat, s = grid.bridge._flat_s_of_z7(z, sres)
    pos, _, _ = grid.decode_state(z)
    if clip is not None and sres > 0:
        keep = _bbox_prune(pos, clip, margin_rad=2.5 * ig._D[sres])
        z, flat, s, pos = z[keep], flat[keep], s[keep], pos[keep]
    return _state_table(z, flat, s, pos)


def _bbox_prune(pos: np.ndarray, clip: PolygonSet, margin_rad: float) -> np.ndarray:
    from ..dggs.sphere import unit_to_lonlat
    lon, lat = unit_to_lonlat(pos)
    minx, miny, maxx, maxy = clip.bounds
    mdeg = np.degrees(margin_rad)
    lo_lat, hi_lat = miny - mdeg, maxy + mdeg
    keep_lat = (lat >= lo_lat) & (lat <= hi_lat)
    if hi_lat >= 88.0 or lo_lat <= -88.0:
        return keep_lat | (np.abs(lat) > 85.0)
    coslat = np.cos(np.deg2rad(np.clip(np.maximum(np.abs(lo_lat), np.abs(hi_lat)), 0, 85)))
    lx = mdeg / max(coslat, 0.05)
    if clip.wrapped:
        lon = np.where(lon < 0, lon + 360.0, lon)
    keep_lon = (lon >= minx - lx) & (lon <= maxx + lx)
    return keep_lat & keep_lon


class _Descend:
    """map_batches stage: expand every cell to its children (one level),
    optionally pruning children outside the clip bbox.

    Children ids are pure Z7 algebra; child lattice positions come from the
    bridge's per-level child step (Eisenstein fast path away from face
    edges) + one batched Snyder inverse — no per-level tree walk."""

    def __init__(self, dggs: Dggs, level: int, clip: PolygonSet | None):
        self.dggs = dggs
        self.level = level    # parent resolution; children at level+1
        self.clip = clip

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..dggs.isea7h_flat import unpack as _unpack
        n = batch.num_rows
        if n == 0:
            return batch
        from ..dggs.isea7h_z7bridge import _DIGIT_Q
        grid = _grid_for(self.dggs)
        z = batch["cell_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        flat = batch["flat_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ps = batch["s"].to_numpy(zero_copy_only=False).astype(np.int64)
        level = self.level
        ch_z = grid.children(z)                 # (n, 7), -1 for pent slot 6
        fz = ch_z.reshape(-1)
        keep = np.nonzero(fz != ig.INVALID_ID)[0]
        fz = fz[keep]
        # one bridge level step per child (fast integer path away from seams)
        shift = np.uint64(57 - 3 * level)
        digit = ((fz.view(np.uint64) >> shift) & np.uint64(7)).astype(np.int64)
        prep = np.repeat(flat, 7)[keep]
        srep = np.repeat(ps, 7)[keep]
        q = np.where(digit == 0, -1, (_DIGIT_Q[digit] - srep) % 6)
        ch_flat = grid.bridge.level_child_at_q(prep, q, level + 1)
        f, a, b = _unpack(ch_flat)
        pf, _, _ = _unpack(prep)
        cs = (srep - grid.bridge._delta_table()[pf, f]) % 6
        x, y = grid.flat._plane_of(a.astype(np.float64), b.astype(np.float64),
                                   level + 1)
        fp = grid.flat.proj.inverse_unit(f, x, y)
        if self.clip is not None:
            m = _bbox_prune(fp, self.clip, margin_rad=2.0 * ig._D[level + 1])
            fz, ch_flat, cs, fp = fz[m], ch_flat[m], cs[m], fp[m]
        return _state_table(fz, ch_flat, cs, fp)


class _ExactClip:
    """Final intersects filter (DGGRID clip semantics: cell intersects
    region).  Fast paths: centroid-in-clip, bbox-disjoint; exact ring test
    only for the boundary sliver."""

    def __init__(self, dggs: Dggs, clip: PolygonSet):
        self.dggs = dggs
        self.clip = clip
        self._grid = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..dggs.sphere import unit_to_lonlat
        if batch.num_rows == 0:
            return batch
        if self._grid is None:
            self._grid = _grid_for(self.dggs)
        pos = np.column_stack([batch["px"].to_numpy(), batch["py"].to_numpy(),
                               batch["pz"].to_numpy()])
        lon, lat = unit_to_lonlat(pos)
        inside = self.clip.contains(lon, lat)
        maybe = ~inside & _bbox_prune(pos, self.clip, margin_rad=1.2 * ig._D[self.dggs.resolution])
        if maybe.any():
            z = batch["cell_id"].to_numpy(zero_copy_only=False).astype(np.int64)[maybe]
            verts = self._grid.boundary(z)
            hits = np.zeros(len(z), dtype=bool)
            for i in range(len(z)):
                ring = verts[i][~np.isnan(verts[i, :, 0])]
                hits[i] = self.clip.intersects_ring(ring)
            idx = np.nonzero(maybe)[0]
            inside[idx[hits]] = True
        return batch.filter(pa.array(inside))


def _clip_from(clip_geom=None, clip_bbox=None) -> PolygonSet | None:
    if clip_geom is None and clip_bbox is None:
        return None
    if clip_bbox is not None:
        return box(*clip_bbox)
    if isinstance(clip_geom, PolygonSet):
        return clip_geom
    if isinstance(clip_geom, (bytes, bytearray)):
        return PolygonSet.from_wkb([bytes(clip_geom)])
    if isinstance(clip_geom, (list, np.ndarray)):
        return PolygonSet.from_wkb(clip_geom)
    if isinstance(clip_geom, str):
        # file path: Shapefile / GeoJSON / GeoPackage, read without GDAL
        # (reference: gpd.read_file of the clip file,
        # dggrid_runner.py:1328-1335)
        from ..sources.clipfiles import read_clip_file
        return PolygonSet.from_wkb(read_clip_file(clip_geom))
    raise ValueError("clip_geom must be WKB bytes / list of WKB / "
                     "PolygonSet / a .shp/.geojson/.gpkg path")


def grid_cellids_for_extent(dggs_type: str = "IGEO7", resolution: int = 5,
                            clip_geom=None, clip_bbox=None,
                            output_address_type: str = "Z7", **kw) -> ray.data.Dataset:
    """Polyfill -> Dataset[cell_id] (reference grid_cellids_for_extent,
    dggrid_runner.py:1775-1856).

    Aperture-7 grids (IGEO7/ISEA7H/FULLER7H) run the hierarchical
    descent; the other families (ISEA4T/4D/4H/3H/43H) run the
    enumeration path (``_family_extent``) with exact corner clipping for
    triangles/diamonds and centroid-inclusion for the hex lattices."""
    dggs = dgselect(dggs_type, resolution=resolution, **kw)
    clip = _clip_from(clip_geom, clip_bbox)
    if _is_family(dggs):
        return _family_extent(dggs, clip, want="ids")
    return _polyfill(dggs, clip,
                     output_address_type).select_columns(_id_cols(output_address_type))


def _is_family(dggs: Dggs) -> bool:
    from ..stages.encode import _ResBoundGrid
    return isinstance(_grid_for(dggs), _ResBoundGrid)


def _family_extent(dggs: Dggs, clip: PolygonSet | None,
                   want: str = "ids") -> ray.data.Dataset:
    """Extent generation for the non-aperture-7 families: enumerate all
    cell ids at ``resolution`` (driver-side O(num_cells) — fine through
    ~res 10; the aperture-7 grids use the hierarchical descent instead),
    then clip DISTRIBUTED per batch:

    * ISEA4T / ISEA4D — exact: a cell is kept when its centroid lies in
      the clip or its (exact) corner ring intersects it;
    * hex lattices (ISEA4H/3H/43H) — centroid-inclusion semantics
      (documented deviation: DGGRID keeps boundary-intersecting hexes;
      corner geometry for these lattices is not implemented).

    ``want``: "ids" -> cell_id; "centroids" -> + lon/lat;
    "polygons" -> + WKB geometry (triangle/diamond only)."""
    from ..geometry import wkb_polygon

    grid = _grid_for(dggs)
    inner, res = grid.inner, dggs.resolution
    if not hasattr(inner, "enumerate_cells"):
        raise NotImplementedError(
            f"{dggs.dggs_type}: no extent enumeration for this family")
    has_corners = hasattr(inner, "cell_corners")
    if want == "polygons" and not has_corners:
        raise NotImplementedError(
            f"{dggs.dggs_type}: polygon boundaries are implemented for "
            "ISEA4T/ISEA4D and the aperture-7 grids; use "
            "grid_cellids_for_extent / centroids for the hex lattices")
    ids = inner.enumerate_cells(res)
    ds = ray.data.from_arrow(pa.table({"cell_id": pa.array(ids, pa.int64())}))
    ds = ds.repartition(int(min(64, max(2, len(ids) // 4096))))

    def work(t: pa.Table) -> pa.Table:
        z = t["cell_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = _grid_for(dggs)            # per-process cache
        lon, lat = g.inner.decode(z, res)
        corners = g.inner.cell_corners(z, res) if has_corners else None
        if clip is not None:
            keep = clip.contains(lon, lat)
            if corners is not None:
                lons, lats = corners
                # dateline-crossing rings (corner-lon span > 180) must be
                # tested in a continuous frame — raw [-180, 180] corners
                # would bbox-overlap EVERY clip and misfire the exact test
                crossing = (lons.max(1) - lons.min(1)) > 180.0
                lons = np.where(crossing[:, None] & (lons < 0),
                                lons + 360.0, lons)
                minx, miny, maxx, maxy = clip.bounds
                near = (~keep
                        & (lons.min(1) <= maxx + 1.0)
                        & (lons.max(1) >= minx - 1.0)
                        & (lats.min(1) <= maxy + 1.0)
                        & (lats.max(1) >= miny - 1.0))
                for i in np.flatnonzero(near):      # boundary sliver only
                    ring = np.column_stack([lons[i], lats[i]])
                    if clip.intersects_ring(ring):
                        keep[i] = True
            z, lon, lat = z[keep], lon[keep], lat[keep]
            if corners is not None:
                corners = (corners[0][keep], corners[1][keep])
        cols = {"cell_id": pa.array(z, pa.int64())}
        if want in ("centroids", "polygons"):
            cols["lon"] = pa.array(lon)
            cols["lat"] = pa.array(lat)
        if want == "polygons":
            lons, lats = corners
            wkbs = [wkb_polygon([np.column_stack([lons[i], lats[i]])])
                    for i in range(len(z))]
            cols["geometry"] = pa.array(wkbs, pa.binary())
        out = pa.table(cols)
        if want == "centroids" or want == "ids":
            return out.select(["cell_id"] if want == "ids"
                              else ["cell_id", "lon", "lat"])
        return out.select(["cell_id", "geometry"])

    return ds.map_batches(work, batch_format="pyarrow")


def _id_cols(output_address_type: str) -> list[str]:
    t = output_address_type.upper()
    return ["cell_id"] if t == "Z7" else ["cell_id", t.lower()]


def _polyfill(dggs: Dggs, clip: PolygonSet | None, output_address_type: str = "Z7",
              keep_state: bool = False) -> ray.data.Dataset:
    grid = _grid_for(dggs)
    res = dggs.resolution
    seed = _seed_table(grid, res, clip)
    ds = ray.data.from_arrow(seed)
    start = min(res, 3)
    nblocks = 1
    if res > start:
        # keep block counts healthy as the fan-out grows 7x per level
        nblocks = max(2, min(64, seed.num_rows // 8 or 2))
        ds = ds.repartition(nblocks)
    # Per-level block budget (round-4 verdict #4): each descent level
    # multiplies rows 7x.  Once the EXPECTED per-block input exceeds
    # DESCEND_BATCH_ROWS, cap the UDF batch — per-call memory stays at
    # ~7 x DESCEND_BATCH_ROWS rows and Ray's dynamic output-block
    # splitting (target_max_block_size) grows the BLOCK count with the
    # data instead of rows-per-block growing 7x per level (res-7/8
    # whole-earth scale check in BASELINE.md).  While blocks are still
    # SMALL, batch_size must stay None: Ray reuses it as
    # min_rows_per_bundled_input, and a 64-block 3432-row seed would be
    # bundled into ONE task — serializing the whole descent.
    rows_per_block = max(1, seed.num_rows // nblocks)
    for level in range(start, res):
        cap = DESCEND_BATCH_ROWS if rows_per_block > DESCEND_BATCH_ROWS \
            else None
        ds = ds.map_batches(_Descend(dggs, level, clip),
                            batch_format="pyarrow", batch_size=cap)
        rows_per_block *= 7
    if clip is not None:
        ds = ds.map_batches(_ExactClip(dggs, clip), batch_format="pyarrow")
    if output_address_type.upper() != "Z7":
        ds = ds.map_batches(AddressTransformer(dggs, "Z7", output_address_type,
                                               in_col="cell_id"),
                            batch_format="pyarrow")
    return ds


def grid_cell_centroids_for_extent(dggs_type: str = "IGEO7", resolution: int = 5,
                                   clip_geom=None, clip_bbox=None,
                                   output_address_type: str = "Z7", **kw) -> ray.data.Dataset:
    """Reference grid_cell_centroids_for_extent (dggrid_runner.py:1403-1495)."""
    dggs = dgselect(dggs_type, resolution=resolution, **kw)
    if _is_family(dggs):
        return _family_extent(dggs, _clip_from(clip_geom, clip_bbox),
                              want="centroids")
    ds = _polyfill(dggs, _clip_from(clip_geom, clip_bbox), output_address_type)

    def add_centroid(batch: pa.Table) -> pa.Table:
        from ..dggs.sphere import unit_to_lonlat
        pos = np.column_stack([batch["px"].to_numpy(), batch["py"].to_numpy(),
                               batch["pz"].to_numpy()])
        lon, lat = unit_to_lonlat(pos)
        return (batch.append_column("lon", pa.array(lon))
                     .append_column("lat", pa.array(lat)))

    return ds.map_batches(add_centroid, batch_format="pyarrow") \
             .select_columns(_id_cols(output_address_type) + ["lon", "lat"])


def grid_cell_polygons_for_extent(dggs_type: str = "IGEO7", resolution: int = 5,
                                  clip_geom=None, clip_bbox=None,
                                  split_dateline: bool = False,
                                  output_address_type: str = "Z7", **kw) -> ray.data.Dataset:
    """Reference grid_cell_polygons_for_extent (dggrid_runner.py:1304-1400)."""
    dggs = dgselect(dggs_type, resolution=resolution, **kw)
    if _is_family(dggs):
        return _family_extent(dggs, _clip_from(clip_geom, clip_bbox),
                              want="polygons")
    ds = _polyfill(dggs, _clip_from(clip_geom, clip_bbox), output_address_type)
    ds = ds.map_batches(BoundaryKernel(dggs, split_dateline=split_dateline),
                        batch_format="pyarrow", concurrency=None)
    return ds.select_columns(_id_cols(output_address_type) + ["geometry"])


def _ids_to_dataset(cell_ids, dggs: Dggs, input_address_type: str) -> ray.data.Dataset:
    from ..dggs.codecs import AddressCodec
    grid = make_grid(dggs)
    codec = AddressCodec(grid, dggs.resolution)
    if input_address_type.upper() != "Z7":
        z = codec.parse(np.asarray(cell_ids), input_address_type)
    else:
        z = np.asarray(cell_ids, dtype=np.int64)
    return ray.data.from_arrow(pa.table({"cell_id": pa.array(z, type=pa.int64())}))


def grid_cell_polygons_from_cellids(cell_ids=None, dggs_type: str = "IGEO7",
                                    resolution: int = 5,
                                    clip_subset_type: str = "WHOLE_EARTH",
                                    clip_cell_res: int = 1,
                                    input_address_type: str = "Z7",
                                    output_address_type: str = "Z7",
                                    split_dateline: bool = False,
                                    cell_id_list=None, **kw) -> ray.data.Dataset:
    """Geometry for an explicit id list (reference dggrid_runner.py:1498-1643).

    ``cell_id_list`` is accepted as an alias for ``cell_ids`` (the
    reference's COARSE_CELLS examples use that keyword).

    clip_subset_type='COARSE_CELLS': ids are at `clip_cell_res` and are
    expanded to all descendants at `resolution` (reference :1547-1561) —
    here a pure flat-map of Z7 children per level, no shuffle."""
    if cell_ids is None:
        cell_ids = cell_id_list
    if cell_ids is None:
        raise ValueError("grid_cell_polygons_from_cellids: pass cell_ids "
                         "(or the reference's cell_id_list=)")
    dggs = dgselect(dggs_type, resolution=resolution, **kw)
    ds = _cells_maybe_expand(cell_ids, dggs, clip_subset_type, clip_cell_res,
                             input_address_type)
    ds = ds.map_batches(BoundaryKernel(dggs, split_dateline=split_dateline),
                        batch_format="pyarrow")
    if output_address_type.upper() != "Z7":
        ds = ds.map_batches(AddressTransformer(dggs, "Z7", output_address_type,
                                               in_col="cell_id"), batch_format="pyarrow")
    return ds.select_columns(_id_cols(output_address_type) + ["geometry"])


def grid_cell_centroids_from_cellids(cell_ids, dggs_type: str = "IGEO7",
                                     resolution: int = 5,
                                     clip_subset_type: str = "WHOLE_EARTH",
                                     clip_cell_res: int = 1,
                                     input_address_type: str = "Z7",
                                     output_address_type: str = "Z7", **kw) -> ray.data.Dataset:
    """Reference grid_cell_centroids_from_cellids (dggrid_runner.py:1646-1772)."""
    dggs = dgselect(dggs_type, resolution=resolution, **kw)
    ds = _cells_maybe_expand(cell_ids, dggs, clip_subset_type, clip_cell_res,
                             input_address_type)
    ds = ds.map_batches(CentroidDecoder(dggs), batch_format="pyarrow")
    if output_address_type.upper() != "Z7":
        ds = ds.map_batches(AddressTransformer(dggs, "Z7", output_address_type,
                                               in_col="cell_id"), batch_format="pyarrow")
    return ds.select_columns(_id_cols(output_address_type) + ["lon", "lat"])


def _cells_maybe_expand(cell_ids, dggs: Dggs, clip_subset_type: str,
                        clip_cell_res: int, input_address_type: str) -> ray.data.Dataset:
    if clip_subset_type.upper() == "COARSE_CELLS":
        coarse = dgselect(dggs.dggs_type, resolution=clip_cell_res)
        ds = _ids_to_dataset(cell_ids, coarse, input_address_type)

        def expand(batch: pa.Table) -> pa.Table:
            grid = _grid_for(dggs)
            z = batch["cell_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            cur = z
            for _ in range(dggs.resolution - clip_cell_res):
                ch = grid.children(cur)
                cur = ch[ch != ig.INVALID_ID]
            return pa.table({"cell_id": pa.array(cur, type=pa.int64())})

        return ds.map_batches(expand, batch_format="pyarrow")
    return _ids_to_dataset(cell_ids, dggs, input_address_type)


def cells_for_geo_points(ds: ray.data.Dataset, cell_ids_only: bool = True,
                         dggs_type: str = "IGEO7", resolution: int = 9,
                         lon_col: str = "lon", lat_col: str = "lat",
                         split_dateline: bool = False,
                         output_address_type: str = "Z7",
                         concurrency: int | None = None, **kw) -> ray.data.Dataset:
    """THE flagship (reference cells_for_geo_points, dggrid_runner.py:1859-1959):
    assign every point row to its cell, appending `cell_id` (and optionally
    the cell polygon as `geometry`), preserving all input columns in place —
    no positional re-merge step, no temp files."""
    dggs = dgselect(dggs_type, resolution=resolution, **kw)
    out = ds.map_batches(CellEncoder(dggs, lon_col=lon_col, lat_col=lat_col,
                                     output_address_type="Z7"),
                         batch_format="pyarrow", concurrency=concurrency)
    if output_address_type.upper() != "Z7":
        out = out.map_batches(AddressTransformer(dggs, "Z7", output_address_type,
                                                 in_col="cell_id"),
                              batch_format="pyarrow", concurrency=concurrency)
    if not cell_ids_only:
        out = out.map_batches(BoundaryKernel(dggs, split_dateline=split_dateline),
                              batch_format="pyarrow", concurrency=concurrency)
    return out


def post_process_split_dateline(ds: ray.data.Dataset,
                                wkb_col: str = "geometry") -> ray.data.Dataset:
    """Split antimeridian-crossing polygons into east+west parts, 1 -> 2 rows
    (reference post_process_split_dateline dggrid_runner.py:1251-1274 +
    interrupt.py).  Order-stable within each batch."""
    import struct as _struct

    from ..geometry import parse_wkb, ring_crosses_dateline, split_ring_at_dateline, wkb_polygon

    def _crossing_mask(wkbs: np.ndarray) -> np.ndarray:
        """Vectorized |Δlon| > 180 test over single-ring little-endian WKB
        polygons (the engine's own writer layout: 13-byte header + f8
        pairs), grouped by byte length so each group parses as one numpy
        buffer; rows with any other layout fall back to parse_wkb."""
        n = len(wkbs)
        cross = np.zeros(n, dtype=bool)
        lens = np.fromiter((len(b) for b in wkbs), dtype=np.int64, count=n)
        for L in np.unique(lens):
            idx = np.flatnonzero(lens == L)
            m = (int(L) - 13) // 16
            hdr = np.frombuffer(_struct.pack("<BIII", 1, 3, 1, m), dtype=np.uint8) \
                if (L >= 13 + 3 * 16 and (L - 13) % 16 == 0) else None
            buf = np.frombuffer(b"".join(bytes(wkbs[i]) for i in idx),
                                dtype=np.uint8).reshape(len(idx), int(L))
            if hdr is not None and (buf[:, :13] == hdr).all():
                lon = np.ascontiguousarray(buf[:, 13:]).view("<f8") \
                    .reshape(len(idx), m, 2)[:, :, 0]
                cross[idx] = np.abs(np.diff(lon, axis=1)).max(axis=1) > 180.0
            else:       # foreign layout: exact per-row fallback
                for i in idx:
                    t, rings = parse_wkb(bytes(wkbs[i]))
                    ring = rings[0] if t == "Polygon" else rings[0][0]
                    cross[i] = ring_crosses_dateline(ring)
        return cross

    def split(batch: pa.Table) -> pa.Table:
        wkbs = batch[wkb_col].to_numpy(zero_copy_only=False)
        n = len(wkbs)
        cross = _crossing_mask(wkbs)
        if not cross.any():
            return batch
        # only crossers (O(cells touching the antimeridian)) are re-parsed
        # and clipped; everything else passes its original bytes through
        counts = np.ones(n, dtype=np.int64)
        split_wkbs: dict[int, list[bytes]] = {}
        for i in np.flatnonzero(cross):
            t, rings = parse_wkb(bytes(wkbs[i]))
            ring = rings[0] if t == "Polygon" else rings[0][0]
            parts = split_ring_at_dateline(ring)
            split_wkbs[int(i)] = [wkb_polygon([p]) for p in parts]
            counts[i] = len(parts)
        pos = np.concatenate([[0], np.cumsum(counts)])
        out = np.empty(int(pos[-1]), dtype=object)
        keep = np.flatnonzero(~cross)
        out[pos[:-1][keep]] = np.array([bytes(wkbs[i]) for i in keep], dtype=object)
        for i, parts in split_wkbs.items():
            out[pos[i]:pos[i + 1]] = parts
        taken = batch.take(pa.array(np.repeat(np.arange(n), counts),
                                    type=pa.int64())).drop_columns([wkb_col])
        return taken.append_column(wkb_col, pa.array(out.tolist(), type=pa.binary()))

    return ds.map_batches(split, batch_format="pyarrow")


def run_flagship_checkpointed(in_path: str, out_dir: str, resolution: int = 9,
                              lineage: dict | None = None,
                              zone_on_cell: bool = False) -> str:
    """The north-star pipeline with resumable output: read interleaved docs
    (parquet/Lance-shaped), per-span cell assignment, write partitioned
    parquet with per-partition lineage manifests.

    Partitions are keyed on the DETERMINISTIC input file index (not Ray
    block boundaries): a resume lists completed partitions and drops their
    input files from the read — finished work is skipped at the source and
    the streaming sink (state/checkpoint.py) overlaps writing with
    execution, never materializing the dataset."""
    import glob
    import os as _os
    from ..stages.spans import doc_cell_assignments
    from ..state.checkpoint import write_dataset_checkpointed, completed_partitions

    if _os.path.isdir(in_path):
        files = sorted(glob.glob(_os.path.join(in_path, "*.parquet")))
    else:
        files = [in_path]
    part_of_path = {f: i for i, f in enumerate(files)}
    done = completed_partitions(out_dir)
    todo = [f for f, i in part_of_path.items() if i not in done]
    if not todo:
        return out_dir
    ds = ray.data.read_parquet(todo, include_paths=True)
    if "spans" not in ds.schema().names:
        raise ValueError(
            f"{in_path}: not an interleaved-documents table — expected a "
            "'spans' list<struct<kind,text,media_ref,offset>> column "
            "(generate one with sources/spans_table.spans_dataset or "
            "bench.py --ensure-data); the plain documents table has no "
            "span structure to assign cells to")

    def add_part(batch: pa.Table) -> pa.Table:
        paths = batch["path"].to_pylist()
        pid = [part_of_path[p] if p in part_of_path
               else part_of_path.get("/" + p.lstrip("/"), 0) for p in paths]
        return (batch.drop_columns(["path"])
                     .append_column("part_id", pa.array(pid, type=pa.int64())))

    out = doc_cell_assignments(ds.map_batches(add_part, batch_format="pyarrow"),
                               resolution=resolution)
    zone_cols = None
    if zone_on_cell:
        # per-doc representative cell (first valid span cell) as the
        # zone key: files inherit the input's spatial locality and a
        # region read prunes at the file level (read_checkpointed_pruned)
        # with zero extra shuffle — zones are only as tight as the
        # input's clustering, by design
        from ..dggs.igeo7 import INVALID_ID

        def rep_cell(batch: pa.Table) -> pa.Table:
            arr = batch["span_cell_ids"]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            off = arr.offsets.to_numpy().astype(np.int64)
            off = off - off[0]
            flat = np.asarray(arr.values[arr.offsets[0].as_py():],
                              dtype=np.int64)[:off[-1]]
            n = batch.num_rows
            rep = np.full(n, INVALID_ID, dtype=np.int64)
            counts = np.diff(off)
            nz = counts > 0
            if nz.any() and len(flat):
                # first valid id per segment: min over positional index
                # with invalid slots pushed past the end (reduceat over
                # the non-empty segment starts — empty segments span
                # nothing between consecutive starts)
                sentinel = len(flat)
                midx = np.where(flat != INVALID_ID,
                                np.arange(sentinel), sentinel)
                firsts = np.minimum.reduceat(midx, off[:-1][nz])
                valid = firsts < sentinel
                rows = np.flatnonzero(nz)[valid]
                rep[rows] = flat[firsts[valid]]
            return batch.append_column("rep_cell", pa.array(rep))

        out = out.map_batches(rep_cell, batch_format="pyarrow")
        zone_cols = ["rep_cell"]
    return write_dataset_checkpointed(
        out, out_dir, dict(lineage or {}, input=in_path, resolution=resolution,
                           n_input_files=len(files),
                           pipeline="span_cell_assignment"),
        zone_cols=zone_cols)


def address_transform(cell_ids_or_values, dggs_type: str = "IGEO7", resolution: int = 9,
                      input_address_type: str = "Z7", output_address_type: str = "SEQNUM",
                      seqnum_order: str = "dggrid", **kw) -> pa.Table:
    """Driver-side codec transform for explicit lists (reference
    address_transform, dggrid_runner.py:1962-2025).  For datasets use the
    AddressTransformer stage.  ``seqnum_order="native"`` opts out of the
    DGGRID quad-ij SEQNUM numbering (whose southern quads are uncalibrated —
    see dggs/dggrid_seqnum.py) to the engine-native order."""
    from ..dggs.codecs import AddressCodec
    dggs = dgselect(dggs_type, resolution=resolution, **kw)
    codec = AddressCodec(make_grid(dggs), dggs.resolution, seqnum_order=seqnum_order)
    return codec.transform_table(cell_ids_or_values, input_address_type, output_address_type)
