"""WKB / PIP / STRtree / dateline geometry kernels."""

import numpy as np
import pytest

from dggrid4py_ray.geometry import (PolygonSet, STRtree, box, parse_wkb,
                                    ring_crosses_dateline, split_ring_at_dateline,
                                    wkb_point, wkb_points, wkb_polygon)


def test_wkb_point_roundtrip():
    t, (lon, lat) = parse_wkb(wkb_point(12.5, -33.25))
    assert t == "Point" and lon == 12.5 and lat == -33.25
    pts = wkb_points(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert parse_wkb(pts[1])[1] == (2.0, 4.0)


def test_wkb_polygon_roundtrip():
    ring = np.array([[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]], dtype=float)
    t, rings = parse_wkb(wkb_polygon([ring]))
    assert t == "Polygon"
    assert np.allclose(rings[0], ring)


def test_pip_box():
    ps = box(27.2, 57.5, 29.3, 59.2)  # the reference conformance clip box
    lon = np.array([28.0, 27.0, 29.3001, 28.5])
    lat = np.array([58.0, 58.0, 58.0, 59.3])
    assert ps.contains(lon, lat).tolist() == [True, False, False, False]


def test_pip_with_hole():
    outer = np.array([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]], dtype=float)
    hole = np.array([[4, 4], [6, 4], [6, 6], [4, 6], [4, 4]], dtype=float)
    ps = PolygonSet([[outer, hole]])
    assert ps.contains(np.array([2.0]), np.array([2.0]))[0]
    assert not ps.contains(np.array([5.0]), np.array([5.0]))[0]


def test_pip_antimeridian():
    ring = np.array([[170, -10], [-170, -10], [-170, 10], [170, 10], [170, -10]], dtype=float)
    ps = PolygonSet([[ring]])
    assert ps.wrapped
    assert ps.contains(np.array([179.0, -179.0, 0.0]), np.array([0.0, 0.0, 0.0])).tolist() == [True, True, False]


def test_intersects_ring():
    ps = box(0, 0, 10, 10)
    assert ps.intersects_ring(np.array([[5, 5], [6, 5], [6, 6], [5, 5]], dtype=float))
    assert ps.intersects_ring(np.array([[9, 9], [12, 9], [12, 12], [9, 9]], dtype=float))
    assert not ps.intersects_ring(np.array([[20, 20], [21, 20], [21, 21], [20, 20]], dtype=float))
    # ring fully containing the box
    assert ps.intersects_ring(np.array([[-5, -5], [15, -5], [15, 15], [-5, 15], [-5, -5]], dtype=float))


def test_strtree():
    rng = np.random.default_rng(0)
    centers = rng.uniform(0, 100, (500, 2))
    bb = np.column_stack([centers - 0.5, centers + 0.5])
    tree = STRtree(bb)
    hits = tree.query_bbox(10, 10, 20, 20)
    expected = np.nonzero((bb[:, 0] <= 20) & (bb[:, 2] >= 10) & (bb[:, 1] <= 20) & (bb[:, 3] >= 10))[0]
    assert set(hits.tolist()) == set(expected.tolist())
    pi, ii = tree.query_points(centers[:50, 0], centers[:50, 1])
    assert set(zip(pi.tolist(), ii.tolist())) >= {(i, i) for i in range(50)}


def test_dateline_split():
    # reference interrupt.py semantics: crossing ring -> east + west parts
    ring = np.array([[179, 0], [-179, 0], [-179, 2], [179, 2], [179, 0]], dtype=float)
    assert ring_crosses_dateline(ring)
    parts = split_ring_at_dateline(ring)
    assert len(parts) == 2
    east = [p for p in parts if p[:, 0].max() <= 180 and p[:, 0].min() >= 0]
    west = [p for p in parts if p[:, 0].max() <= -178]
    assert east and west
    ok = np.array([[10, 0], [11, 0], [11, 1], [10, 0]], dtype=float)
    assert len(split_ring_at_dateline(ok)) == 1


# ------------------------------------------ batched intersects vs per-ring

def _ring_crossings_oracle(ring, x, y):
    x1, y1 = ring[:-1, 0][:, None], ring[:-1, 1][:, None]
    x2, y2 = ring[1:, 0][:, None], ring[1:, 1][:, None]
    xf, yf = x[None, :], y[None, :]
    cond = (y1 > yf) != (y2 > yf)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x1 + (yf - y1) * (x2 - x1) / np.where(y2 == y1, 1.0, (y2 - y1))
    return (cond & (xf < xint)).sum(axis=0) % 2 == 1


def _segments_cross_oracle(a, b):
    ax1, ay1, ax2, ay2 = (a[:, i][:, None] for i in range(4))
    bx1, by1, bx2, by2 = (b[:, i][None, :] for i in range(4))

    def orient(px, py, qx, qy, rx, ry):
        return (qx - px) * (ry - py) - (qy - py) * (rx - px)

    d1 = orient(ax1, ay1, ax2, ay2, bx1, by1)
    d2 = orient(ax1, ay1, ax2, ay2, bx2, by2)
    d3 = orient(bx1, by1, bx2, by2, ax1, ay1)
    d4 = orient(bx1, by1, bx2, by2, ax2, ay2)
    return bool((((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))).any())


def _intersects_ring_oracle(ps, ring):
    """The former one-ring ``PolygonSet.intersects_ring`` body."""
    def contains(x, y):
        if ps.wrapped:
            x = np.where(x < 0, x + 360.0, x)
        inside = np.zeros(x.shape, dtype=bool)
        for rings in ps.polys:
            acc = np.zeros(x.shape, dtype=bool)
            for r in rings:
                acc ^= _ring_crossings_oracle(r, x, y)
            inside |= acc
        return inside

    if contains(ring[:, 0], ring[:, 1]).any():
        return True
    rx = np.where(ring[:, 0] < 0, ring[:, 0] + 360.0, ring[:, 0]) \
        if ps.wrapped else ring[:, 0]
    for rings in ps.polys:
        ext = rings[0]
        if _ring_crossings_oracle(np.column_stack([rx, ring[:, 1]]),
                                  ext[:, 0], ext[:, 1]).any():
            return True
    a = np.column_stack([rx[:-1], ring[:-1, 1], rx[1:], ring[1:, 1]])
    segs = np.vstack([np.hstack([r[:-1], r[1:]])
                      for rings in ps.polys for r in rings])
    return _segments_cross_oracle(a, segs)


def _random_rings(rng, n, centre, spread, k_max=9):
    """NaN-padded (n, k_max, 2) rings: random star-shaped polygons of 3-8
    vertices, open or closed, some with NaN gaps inside the row."""
    out = np.full((n, k_max, 2), np.nan)
    for i in range(n):
        k = int(rng.integers(3, 9))
        c = np.asarray(centre) + rng.uniform(-spread, spread, 2)
        a = np.sort(rng.uniform(0, 2 * np.pi, k))
        rad = rng.uniform(0.2, 8.0) * rng.uniform(0.3, 1.0, k)
        r = np.column_stack([c[0] + rad * np.cos(a), c[1] + rad * np.sin(a)])
        if rng.random() < 0.5 and k < k_max:
            r = np.vstack([r, r[:1]])
        row = np.full((k_max, 2), np.nan)
        slots = np.sort(rng.choice(k_max, len(r), replace=False)) \
            if rng.random() < 0.3 else np.arange(len(r))
        row[slots] = r
        out[i] = row
    return out


_CLIPS = {
    "box": (box(0, 0, 10, 10), (5, 5)),
    "hole": (PolygonSet([[
        np.array([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]], float),
        np.array([[3, 3], [7, 3], [7, 7], [3, 7], [3, 3]], float)]]), (5, 5)),
    "antimeridian": (PolygonSet([[np.array(
        [[170, -10], [-170, -10], [-170, 10], [170, 10], [170, -10]],
        float)]]), (180, 0)),
    "two polygons": (PolygonSet([
        [np.array([[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]], float)],
        [np.array([[6, 6], [12, 7], [8, 8], [7, 12], [6, 6]], float)]]),
        (5, 5)),
}


@pytest.mark.parametrize("clip", sorted(_CLIPS))
def test_intersects_rings_matches_per_ring_oracle(clip, monkeypatch):
    from dggrid4py_ray import geometry

    ps, centre = _CLIPS[clip]
    rng = np.random.default_rng(sorted(_CLIPS).index(clip) + 100)
    rings = _random_rings(rng, 400, centre, 14.0)
    if clip == "antimeridian":       # back to [-180, 180) like cell rings
        rings[:, :, 0] = np.where(rings[:, :, 0] >= 180,
                                  rings[:, :, 0] - 360, rings[:, :, 0])
    want = np.array([_intersects_ring_oracle(
        ps, r[~np.isnan(r[:, 0])]) for r in rings])
    assert 0.1 < want.mean() < 0.9
    assert np.array_equal(ps.intersects_rings(rings), want)
    # many small chunks give the same answer
    monkeypatch.setattr(geometry, "_PAIR_BUDGET", 50)
    assert np.array_equal(ps.intersects_rings(rings), want)
    for r, w in zip(rings[:40], want[:40]):
        assert ps.intersects_ring(r[~np.isnan(r[:, 0])]) == w


def test_intersects_rings_each_clause():
    ps = box(0, 0, 10, 10)
    nan = [np.nan, np.nan]
    rings = np.array([
        [[5, 5], [6, 5], [6, 6], nan, nan],              # vertex inside
        [[-5, -5], [15, -5], [15, 15], [-5, 15], nan],   # box inside ring
        [[-1, 4], [11, 4], [11, 6], [-1, 6], nan],       # edges cross only
        [[20, 20], [21, 20], [21, 21], nan, nan],        # disjoint
        [[-5, -5], [15, -5], nan, nan, nan],             # one edge, below
    ])
    assert ps.intersects_rings(rings).tolist() == [True, True, True,
                                                   False, False]


def test_unclosed_corner_rings_as_family_extent_passes_them():
    """Triangle corners without the closing vertex: the closing edge is not
    tested, exactly as the per-ring test did."""
    ps = box(0, 0, 10, 10)
    rng = np.random.default_rng(7)
    tri = rng.uniform(-8, 18, (300, 3, 2))
    want = np.array([_intersects_ring_oracle(ps, t) for t in tri])
    assert np.array_equal(ps.intersects_rings(tri), want)


def test_rings_to_wkb_matches_wkb_polygon():
    import pyarrow as pa

    from dggrid4py_ray.stages.encode import _rings_to_wkb

    rng = np.random.default_rng(3)
    rings = _random_rings(rng, 300, (0, 0), 50.0)
    out = _rings_to_wkb(rings)
    assert out.type == pa.binary()
    assert out.to_pylist() == [wkb_polygon([r[~np.isnan(r[:, 0])]])
                               for r in rings]
    assert len(_rings_to_wkb(rings[:0])) == 0
