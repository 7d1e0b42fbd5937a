"""Minimal vectorized planar geometry: WKB, point-in-polygon, STRtree.

shapely/geopandas are not available in this environment, and the reference
only needs a narrow slice of geometry (clip polygons for the for-extent
functions — dggrid_runner.py:1326-1335 — the intersects predicate of
DGGRID's clipping, the spatial self-join used for neighbors
(igeo7.py:125-141), and the dateline splitting of interrupt.py).  This
module implements exactly that slice on numpy arrays.

Longitude/latitude are treated as planar WGS84 coordinates (identical to the
reference's shapely usage); antimeridian-crossing polygons are supported by
the `wrap` normalization (shift to [0, 360) when a ring spans the seam,
mirroring interrupt.py:26-27 semantics).
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np
import pyarrow as pa

_WKB_POINT = 1
_WKB_LINESTRING = 2
_WKB_POLYGON = 3
_WKB_MULTIPOINT = 4
_WKB_MULTIPOLYGON = 6


# ---------------------------------------------------------------------------
# WKB
# ---------------------------------------------------------------------------

def wkb_point(lon: float, lat: float) -> bytes:
    return struct.pack("<BIdd", 1, _WKB_POINT, lon, lat)


def wkb_points(lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """Vectorized WKB Point column (object array of bytes)."""
    n = len(lon)
    buf = np.zeros((n, 21), dtype=np.uint8)
    buf[:, 0] = 1
    buf[:, 1] = _WKB_POINT
    buf[:, 5:13] = np.asarray(lon, "<f8").view(np.uint8).reshape(n, 8)
    buf[:, 13:21] = np.asarray(lat, "<f8").view(np.uint8).reshape(n, 8)
    return np.array([b.tobytes() for b in buf], dtype=object)


def wkb_polygon(rings: list[np.ndarray]) -> bytes:
    """rings: list of (k, 2) float arrays (first = exterior, closed or not)."""
    out = [struct.pack("<BII", 1, _WKB_POLYGON, len(rings))]
    for r in rings:
        r = np.asarray(r, dtype=np.float64)
        if not (r[0] == r[-1]).all():
            r = np.vstack([r, r[:1]])
        out.append(struct.pack("<I", len(r)))
        out.append(r.astype("<f8").tobytes())
    return b"".join(out)


def parse_wkb(buf: bytes):
    """-> (geom_type_str, data).  Point -> (lon, lat); Polygon -> [rings];
    MultiPolygon -> [[rings], ...]."""
    little = buf[0] == 1
    order = "<" if little else ">"
    (gtype,) = struct.unpack_from(order + "I", buf, 1)
    gtype = gtype % 1000  # tolerate EWKB-ish codes
    if gtype == _WKB_POINT:
        lon, lat = struct.unpack_from(order + "dd", buf, 5)
        return "Point", (lon, lat)
    if gtype == _WKB_POLYGON:
        return "Polygon", _parse_polygon_body(buf, 5, order)[0]
    if gtype == _WKB_MULTIPOLYGON:
        (n,) = struct.unpack_from(order + "I", buf, 5)
        off = 9
        polys = []
        for _ in range(n):
            o2 = order  # nested byte order byte
            sub_order = "<" if buf[off] == 1 else ">"
            rings, off = _parse_polygon_body(buf, off + 5, sub_order)
            polys.append(rings)
        return "MultiPolygon", polys
    raise ValueError(f"unsupported WKB geometry type {gtype}")


def _parse_polygon_body(buf, off, order):
    (nrings,) = struct.unpack_from(order + "I", buf, off)
    off += 4
    rings = []
    for _ in range(nrings):
        (npts,) = struct.unpack_from(order + "I", buf, off)
        off += 4
        arr = np.frombuffer(buf, dtype=order + "f8", count=npts * 2, offset=off).reshape(npts, 2).copy()
        off += npts * 16
        rings.append(arr)
    return rings, off


class WkbRings(NamedTuple):
    """Rings of a column of polygonal WKB, flattened GeoArrow-style: the
    points of ring ``r`` are ``xy[ring_offsets[r]:ring_offsets[r + 1]]``
    and the rings of row ``i`` are ``row_offsets[i]:row_offsets[i + 1]``
    (a MultiPolygon's polygons one after another, exterior first)."""
    xy: np.ndarray
    ring_offsets: np.ndarray
    row_offsets: np.ndarray


def wkb_polygon_rings(wkb) -> WkbRings:
    """Columnar walk of an Arrow binary column of Polygon / MultiPolygon
    WKB, either byte order (per geometry and per MultiPolygon part).

    No per-row Python: the cursors of all rows advance together, one
    vectorized step per polygon level and per ring level, so the loop
    count is the largest part/ring count, not the row count.  Raises
    ``ValueError`` on a null, a non-polygonal or a truncated geometry."""
    data, offs = _wkb_buffers(wkb)
    n = len(offs) - 1
    end = offs[1:]
    cur = offs[:-1].copy()
    le = _wkb_order(data, cur, end)
    gtype = _wkb_u32(data, cur + 1, le, end)
    cur += 5
    multi = gtype == _WKB_MULTIPOLYGON
    bad = ~multi & (gtype != _WKB_POLYGON)
    if bad.any():
        raise ValueError("non-polygonal WKB geometry type "
                         f"{int(gtype[bad][0])}")
    nparts = np.ones(n, np.int64)
    m = np.flatnonzero(multi)
    nparts[m] = _wkb_u32(data, cur[m], le[m], end[m])
    cur[m] += 4
    rec = []                        # (row, start byte, npts, little-endian)
    act = np.flatnonzero(nparts > 0)
    part = 0
    while act.size:                 # one step per MultiPolygon part
        c, e, o = cur[act], end[act], le[act].copy()
        s = np.flatnonzero(multi[act])
        if s.size:                  # a part carries its own order + type
            o[s] = _wkb_order(data, c[s], e[s])
            if (_wkb_u32(data, c[s] + 1, o[s], e[s]) != _WKB_POLYGON).any():
                raise ValueError("MultiPolygon part is not a Polygon")
            c[s] += 5
        nrings = _wkb_u32(data, c, o, e)
        c += 4
        ract = np.flatnonzero(nrings > 0)
        ring = 0
        while ract.size:            # one step per ring of the part
            cc = c[ract]
            npts = _wkb_u32(data, cc, o[ract], e[ract])
            cc += 4
            if (cc + 16 * npts > e[ract]).any():
                raise ValueError("truncated WKB")
            rec.append((act[ract], cc, npts, o[ract]))
            c[ract] = cc + 16 * npts
            ring += 1
            ract = ract[nrings[ract] > ring]
        cur[act] = c
        part += 1
        act = act[nparts[act] > part]
    if rec:
        row, start, npts, rle = (np.concatenate(a) for a in zip(*rec))
        # records come part by part, ring by ring: a stable sort on the
        # row restores each row's own ring order
        order = np.argsort(row, kind="stable")
        row, start, npts, rle = row[order], start[order], npts[order], rle[order]
    else:
        row = start = npts = np.zeros(0, np.int64)
        rle = np.zeros(0, bool)
    ring_offsets = np.zeros(len(npts) + 1, np.int64)
    np.cumsum(npts, out=ring_offsets[1:])
    row_offsets = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=row_offsets[1:])
    pt_ring = np.repeat(np.arange(len(npts)), npts)
    pos = start[pt_ring] + 16 * (np.arange(ring_offsets[-1])
                                 - ring_offsets[pt_ring])
    ple = rle[pt_ring]
    xy = np.column_stack([_wkb_f64(data, pos, ple),
                          _wkb_f64(data, pos + 8, ple)])
    return WkbRings(xy, ring_offsets, row_offsets)


def wkb_envelopes(wkb) -> np.ndarray:
    """Per-row (minx, miny, maxx, maxy) of a column of polygonal WKB, as
    an (n, 4) float64 array.  Raises ``ValueError`` on an empty one."""
    w = wkb_polygon_rings(wkb)
    starts = w.ring_offsets[w.row_offsets]
    if (starts[1:] == starts[:-1]).any():
        raise ValueError("empty polygonal WKB geometry")
    if len(starts) == 1:
        return np.zeros((0, 4))
    # a row's points are contiguous, so one reduceat per bound
    lo = np.minimum.reduceat(w.xy, starts[:-1], axis=0)
    hi = np.maximum.reduceat(w.xy, starts[:-1], axis=0)
    return np.hstack([lo, hi])


def _wkb_buffers(wkb) -> tuple[np.ndarray, np.ndarray]:
    """(data bytes, int64 row offsets) of an Arrow binary column."""
    if isinstance(wkb, pa.ChunkedArray):
        wkb = wkb.combine_chunks()
    if not (pa.types.is_binary(wkb.type) or pa.types.is_large_binary(wkb.type)):
        raise ValueError(f"expected a binary WKB column, got {wkb.type}")
    if wkb.null_count:
        raise ValueError("null geometry in the WKB column")
    if len(wkb) == 0:
        return np.zeros(0, np.uint8), np.zeros(1, np.int64)
    _, off_buf, data_buf = wkb.buffers()
    odt = np.dtype(np.int64 if pa.types.is_large_binary(wkb.type) else np.int32)
    offs = np.frombuffer(off_buf, odt, count=len(wkb) + 1,
                         offset=wkb.offset * odt.itemsize).astype(np.int64)
    data = (np.frombuffer(data_buf, np.uint8) if data_buf is not None
            else np.zeros(0, np.uint8))
    return data, offs


def _wkb_order(data, pos, end) -> np.ndarray:
    """Byte-order flags at ``pos``: True = little-endian."""
    if (pos + 5 > end).any():
        raise ValueError("truncated WKB")
    b = data[pos]
    if (b > 1).any():
        raise ValueError("bad WKB byte-order byte")
    return b == 1


def _wkb_u32(data, pos, le, end) -> np.ndarray:
    if (pos + 4 > end).any():
        raise ValueError("truncated WKB")
    v = data[pos[:, None] + np.arange(4)].view("<u4")[:, 0]
    v = np.where(le, v, v.byteswap())
    return v.astype(np.int64)


def _wkb_f64(data, pos, le) -> np.ndarray:
    """Gather float64s at arbitrary byte positions: one unaligned 8-byte
    view of the data per residue ``pos % 8``, so the index arrays stay
    O(points) rather than O(bytes)."""
    out = np.empty(len(pos), np.uint64)
    res = pos & 7
    for r in np.unique(res):
        sel = res == r
        view = np.frombuffer(data, "<u8", count=(len(data) - r) // 8, offset=r)
        out[sel] = view[pos[sel] >> 3]
    if not le.all():
        out[~le] = out[~le].byteswap()
    return out.view("<f8")


# ---------------------------------------------------------------------------
# Polygon predicates
# ---------------------------------------------------------------------------

def box(minx: float, miny: float, maxx: float, maxy: float) -> "PolygonSet":
    ring = np.array([[minx, miny], [maxx, miny], [maxx, maxy], [minx, maxy], [minx, miny]])
    return PolygonSet([[ring]])


class PolygonSet:
    """One or more polygons (each: exterior + holes) with vectorized
    contains/intersects.  Handles antimeridian-spanning rings via lon
    normalization to [0, 360) (the interrupt.py:26-27 trick)."""

    def __init__(self, polys: list[list[np.ndarray]]):
        self.polys = []
        self.wrapped = False
        for rings in polys:
            rr = [np.asarray(r, dtype=np.float64) for r in rings]
            if any(np.abs(np.diff(r[:, 0])).max(initial=0) > 180.0 for r in rr):
                self.wrapped = True
            self.polys.append(rr)
        if self.wrapped:
            self.polys = [[self._wrap(r) for r in rings] for rings in self.polys]
        allpts = np.vstack([r for rings in self.polys for r in rings])
        self.bounds = (allpts[:, 0].min(), allpts[:, 1].min(),
                       allpts[:, 0].max(), allpts[:, 1].max())

    @staticmethod
    def _wrap(r):
        r = r.copy()
        r[:, 0] = np.where(r[:, 0] < 0, r[:, 0] + 360.0, r[:, 0])
        return r

    @classmethod
    def from_wkb(cls, bufs) -> "PolygonSet":
        polys = []
        for b in np.atleast_1d(np.asarray(bufs, dtype=object)):
            t, data = parse_wkb(b)
            if t == "Polygon":
                polys.append(data)
            elif t == "MultiPolygon":
                polys.extend(data)
            else:
                raise ValueError(f"expected polygonal WKB, got {t}")
        return cls(polys)

    def contains(self, lon, lat) -> np.ndarray:
        """Vectorized point-in-polygon (even-odd rule, union over polygons)."""
        x = np.asarray(lon, dtype=np.float64)
        y = np.asarray(lat, dtype=np.float64)
        if self.wrapped:
            x = np.where(x < 0, x + 360.0, x)
        inside = np.zeros(x.shape, dtype=bool)
        for rings in self.polys:
            acc = np.zeros(x.shape, dtype=bool)
            for r in rings:
                acc ^= _ring_crossings(r, x, y)
            inside |= acc
        return inside

    def segments(self) -> np.ndarray:
        """(m, 4) array of all ring segments (x1, y1, x2, y2)."""
        segs = []
        for rings in self.polys:
            for r in rings:
                segs.append(np.hstack([r[:-1], r[1:]]))
        return np.vstack(segs)

    def intersects_ring(self, ring: np.ndarray) -> bool:
        """Polygon-ring intersects this set (``intersects_rings`` of one)."""
        return bool(self.intersects_rings(np.asarray(ring)[None])[0])

    def intersects_rings(self, rings: np.ndarray) -> np.ndarray:
        """Batched exact planar intersects test of (n, k, 2) rings against
        this set (cell-vs-clip).  A row's ring is its non-NaN vertices in
        order, with edges between consecutive ones (no implicit closing
        edge); NaN padding contributes nothing.  A row hits when any of
        its vertices is inside the set, any polygon's exterior vertex is
        inside the ring (even-odd), or any edge pair properly crosses.

        Rows go in chunks whose (rows x ring vertices x set segments)
        broadcast stays under ``_PAIR_BUDGET`` elements."""
        rings = np.asarray(rings, dtype=np.float64)
        n, k = rings.shape[:2]
        valid = ~np.isnan(rings[:, :, 0])
        if (valid[:, 1:] & ~valid[:, :-1]).any():
            # a vertex after a NaN: move each row's vertices to the front
            order = np.argsort(~valid, axis=1, kind="stable")
            rings = np.take_along_axis(rings, order[:, :, None], axis=1)
            valid = np.take_along_axis(valid, order, axis=1)
        segs = self.segments()
        ext = np.vstack([rr[0] for rr in self.polys])
        step = max(1, _PAIR_BUDGET // max(1, k * max(len(segs), len(ext))))
        hit = np.zeros(n, dtype=bool)
        for lo in range(0, n, step):
            sl = slice(lo, lo + step)
            hit[sl] = self._intersects_chunk(rings[sl], valid[sl], segs, ext)
        return hit

    def _intersects_chunk(self, rings, valid, segs, ext) -> np.ndarray:
        x, y = rings[:, :, 0], rings[:, :, 1]
        hit = np.zeros(len(rings), dtype=bool)
        # any ring vertex inside the set?
        hit[np.nonzero(valid)[0][self.contains(x[valid], y[valid])]] = True
        rest = np.flatnonzero(~hit)
        if self.wrapped:
            x = np.where(x < 0, x + 360.0, x)
        # edge j of a row runs from vertex j to j + 1; an edge into the
        # NaN padding has a NaN end, and every comparison below is False
        x1, y1 = x[rest, :-1, None], y[rest, :-1, None]
        x2, y2 = x[rest, 1:, None], y[rest, 1:, None]
        # any polygon exterior vertex inside the ring?
        par = _edge_crossings(x1, y1, x2, y2, ext[:, 0], ext[:, 1]) \
            .sum(axis=1) % 2 == 1
        inner = par.any(axis=1)
        hit[rest[inner]] = True
        keep = ~inner
        rest = rest[keep]
        x1, y1, x2, y2 = x1[keep], y1[keep], x2[keep], y2[keep]
        # any edge pair crossing?
        cross = _segments_cross(x1, y1, x2, y2, segs[:, 0], segs[:, 1],
                                segs[:, 2], segs[:, 3])
        hit[rest[cross.any(axis=(1, 2))]] = True
        return hit


# elements per broadcast temporary in ``PolygonSet.intersects_rings``
# (a few float64 temporaries of this size are alive at once)
_PAIR_BUDGET = 1 << 18


def _edge_crossings(x1, y1, x2, y2, px, py) -> np.ndarray:
    """Does the rightward ray from point (px, py) cross edge
    (x1, y1)-(x2, y2)?  Broadcasts over edges and points."""
    cond = (y1 > py) != (y2 > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x1 + (py - y1) * (x2 - x1) / np.where(y2 == y1, 1.0, (y2 - y1))
    return cond & (px < xint)


def _ring_crossings(ring: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Even-odd crossing parity of a ring for points (x, y) — vectorized over
    points and edges."""
    return _edge_crossings(ring[:-1, 0][:, None], ring[:-1, 1][:, None],
                           ring[1:, 0][:, None], ring[1:, 1][:, None],
                           x[None, :], y[None, :]).sum(axis=0) % 2 == 1


def _segments_cross(ax1, ay1, ax2, ay2, bx1, by1, bx2, by2) -> np.ndarray:
    """Does segment a properly cross segment b?  Broadcasts."""
    def orient(px, py, qx, qy, rx, ry):
        return (qx - px) * (ry - py) - (qy - py) * (rx - px)

    d1 = orient(ax1, ay1, ax2, ay2, bx1, by1)
    d2 = orient(ax1, ay1, ax2, ay2, bx2, by2)
    d3 = orient(bx1, by1, bx2, by2, ax1, ay1)
    d4 = orient(bx1, by1, bx2, by2, ax2, ay2)
    return ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))


# ---------------------------------------------------------------------------
# STRtree (sort-tile-recursive packed R-tree on bounding boxes)
# ---------------------------------------------------------------------------

class STRtree:
    """Packed R-tree over item bboxes; numpy query.  Replaces the
    geopandas .sindex usage of the reference (igeo7.py:125-141)."""

    def __init__(self, bboxes: np.ndarray, leaf_size: int = 16):
        """bboxes: (n, 4) minx miny maxx maxy."""
        bb = np.asarray(bboxes, dtype=np.float64)
        n = len(bb)
        self.item_bboxes = bb
        cx = (bb[:, 0] + bb[:, 2]) / 2
        cy = (bb[:, 1] + bb[:, 3]) / 2
        order = np.argsort(cx, kind="stable")
        nslices = max(1, int(np.ceil(np.sqrt(n / leaf_size))))
        slice_sz = int(np.ceil(n / nslices))
        leaves = []
        for s in range(0, n, slice_sz):
            sl = order[s:s + slice_sz]
            sl = sl[np.argsort(cy[sl], kind="stable")]
            for t in range(0, len(sl), leaf_size):
                leaves.append(sl[t:t + leaf_size])
        self.leaves = leaves
        self.leaf_bboxes = np.array([
            [bb[l, 0].min(), bb[l, 1].min(), bb[l, 2].max(), bb[l, 3].max()] for l in leaves
        ]) if leaves else np.zeros((0, 4))

    def query_bbox(self, minx, miny, maxx, maxy) -> np.ndarray:
        """Item indices whose bbox intersects the query bbox."""
        lb = self.leaf_bboxes
        hit = (lb[:, 0] <= maxx) & (lb[:, 2] >= minx) & (lb[:, 1] <= maxy) & (lb[:, 3] >= miny)
        if not hit.any():
            return np.zeros(0, dtype=np.int64)
        cand = np.concatenate([self.leaves[i] for i in np.nonzero(hit)[0]])
        bb = self.item_bboxes[cand]
        ok = (bb[:, 0] <= maxx) & (bb[:, 2] >= minx) & (bb[:, 1] <= maxy) & (bb[:, 3] >= miny)
        return cand[ok]

    def query_points(self, x: np.ndarray, y: np.ndarray):
        """For many points: returns (point_idx, item_idx) candidate pairs."""
        pts_i = []
        items_i = []
        lb = self.leaf_bboxes
        for li, leaf in enumerate(self.leaves):
            b = lb[li]
            m = (x >= b[0]) & (x <= b[2]) & (y >= b[1]) & (y <= b[3])
            if not m.any():
                continue
            pi = np.nonzero(m)[0]
            bb = self.item_bboxes[leaf]
            for k, item in enumerate(leaf):
                mm = (x[pi] >= bb[k, 0]) & (x[pi] <= bb[k, 2]) & (y[pi] >= bb[k, 1]) & (y[pi] <= bb[k, 3])
                if mm.any():
                    pts_i.append(pi[mm])
                    items_i.append(np.full(mm.sum(), item, dtype=np.int64))
        if not pts_i:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        return np.concatenate(pts_i), np.concatenate(items_i)


# ---------------------------------------------------------------------------
# Dateline splitting (reference post_process_split_dateline,
# dggrid_runner.py:1251-1274 + interrupt.py)
# ---------------------------------------------------------------------------

def ring_crosses_dateline(ring: np.ndarray) -> bool:
    return bool(np.abs(np.diff(np.asarray(ring)[:, 0])).max(initial=0) > 180.0)


def split_ring_at_dateline(ring: np.ndarray) -> list[np.ndarray]:
    """Split an antimeridian-crossing ring into east/west parts.

    Mirrors interrupt.interrupt_cell (interrupt.py:52-68): shift negative
    lons +360, clip against the [0,180] and [180,360] half planes, shift
    back."""
    r = np.asarray(ring, dtype=np.float64)
    if not ring_crosses_dateline(r):
        return [r]
    rr = r.copy()
    rr[:, 0] = np.where(rr[:, 0] < 0, rr[:, 0] + 360.0, rr[:, 0])
    parts = []
    for lo, hi, shift in ((0.0, 180.0, 0.0), (180.0, 360.0, -360.0)):
        clipped = _clip_ring_x(rr, lo, hi)
        if clipped is not None and len(clipped) >= 3:
            c = clipped.copy()
            c[:, 0] += shift
            parts.append(c)
    return parts if parts else [r]


def _clip_ring_x(ring: np.ndarray, lo: float, hi: float):
    """Sutherland–Hodgman clip of a ring against lo <= x <= hi."""
    pts = list(ring[:-1]) if (ring[0] == ring[-1]).all() else list(ring)
    for bound, keep_ge in ((lo, True), (hi, False)):
        out = []
        m = len(pts)
        for i in range(m):
            cur = pts[i]
            prv = pts[i - 1]
            cur_in = cur[0] >= bound if keep_ge else cur[0] <= bound
            prv_in = prv[0] >= bound if keep_ge else prv[0] <= bound
            if cur_in:
                if not prv_in:
                    out.append(_x_intersect(prv, cur, bound))
                out.append(cur)
            elif prv_in:
                out.append(_x_intersect(prv, cur, bound))
        pts = out
        if not pts:
            return None
    arr = np.array(pts)
    return np.vstack([arr, arr[:1]])


def _x_intersect(p, q, x):
    t = (x - p[0]) / (q[0] - p[0])
    return np.array([x, p[1] + t * (q[1] - p[1])])
