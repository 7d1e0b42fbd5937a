"""GeoPackage sink: write cell polygons, read back through the in-repo
GPKG reader and raw sqlite, and check the 1.3 core metadata QGIS/ogr
require."""

import sqlite3

import numpy as np
import pytest
import ray.data

from dggrid4py_ray.sources.clipfiles import read_gpkg_polygons
from dggrid4py_ray.sources.gpkg import write_gpkg


def test_cells_roundtrip(ray_session, tmp_path):
    from dggrid4py_ray.geometry import PolygonSet
    from dggrid4py_ray.pipelines.highlevel import (
        grid_cell_polygons_for_extent)

    ds = grid_cell_polygons_for_extent(
        "IGEO7", 5, clip_bbox=(27.2, 57.5, 29.3, 59.2))
    p = str(tmp_path / "cells.gpkg")
    n = write_gpkg(ds, p, table="cells")
    assert n == 16

    # metadata QGIS requires
    con = sqlite3.connect(p)
    (app_id,) = con.execute("PRAGMA application_id").fetchone()
    assert app_id == 0x47504B47
    row = con.execute("SELECT table_name, data_type, srs_id "
                      "FROM gpkg_contents").fetchone()
    assert row == ("cells", "features", 4326)
    assert con.execute("SELECT COUNT(*) FROM gpkg_spatial_ref_sys "
                       "WHERE srs_id=4326").fetchone()[0] == 1
    got_ids = sorted(r[0] for r in con.execute(
        'SELECT cell_id FROM "cells"'))
    con.close()
    want_ids = sorted(ds.to_pandas()["cell_id"])
    assert got_ids == want_ids

    # geometry survives the GP wrapper: reader returns parseable WKB
    wkbs = read_gpkg_polygons(p)
    assert len(wkbs) == 16
    ps = PolygonSet.from_wkb(wkbs)
    lo = ps.bounds
    assert lo[0] < 29.3 and lo[3] > 57.5


def test_arrow_table_input_and_attr_types(tmp_path):
    import pyarrow as pa

    from dggrid4py_ray.geometry import wkb_polygon

    ring = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)], float)
    t = pa.table({
        "cell_id": pa.array([7], pa.int64()),
        "name": pa.array(["a"]),
        "score": pa.array([0.5]),
        "geometry": pa.array([wkb_polygon([ring])], pa.binary())})
    p = str(tmp_path / "one.gpkg")
    assert write_gpkg(t, p) == 1
    con = sqlite3.connect(p)
    row = con.execute('SELECT cell_id, name, score FROM "cells"') \
        .fetchone()
    con.close()
    assert row == (7, "a", 0.5)


def test_empty_input_raises(tmp_path):
    import pyarrow as pa
    with pytest.raises(ValueError, match="empty input"):
        write_gpkg(pa.table({"geometry": pa.array([], pa.binary())}),
                   str(tmp_path / "e.gpkg"))


# ------------------------------------------------- batch blob build vs oracle

def _gp_blob_oracle(wkb: bytes, srs_id: int) -> tuple[bytes, tuple]:
    """The writer's former per-row blob build: parse, stack, reduce, pack."""
    import struct

    from dggrid4py_ray.geometry import parse_wkb
    t, data = parse_wkb(wkb)
    if t == "Polygon":
        pts = np.vstack(data)
    elif t == "MultiPolygon":
        pts = np.vstack([r for rings in data for r in rings])
    else:
        raise ValueError(f"write_gpkg: non-polygonal geometry {t}")
    env = (float(pts[:, 0].min()), float(pts[:, 0].max()),
           float(pts[:, 1].min()), float(pts[:, 1].max()))
    header = (b"GP" + bytes([0, 0b00000011])
              + struct.pack("<i", srs_id) + struct.pack("<4d", *env))
    return header + wkb, env


def _polygon_wkb(rings, order="<"):
    import struct
    out = [struct.pack(order + "BII", order == "<", 3, len(rings))]
    for r in rings:
        r = np.asarray(r, float)
        out.append(struct.pack(order + "I", len(r)))
        out.append(r.astype(order + "f8").tobytes())
    return b"".join(out)


def _multipolygon_wkb(parts, order="<"):
    """parts: [(rings, part byte order), ...]."""
    import struct
    return (struct.pack(order + "BII", order == "<", 6, len(parts))
            + b"".join(_polygon_wkb(r, o) for r, o in parts))


def _mixed_wkbs(seed=5):
    rng = np.random.default_rng(seed)

    def ring(k=None):
        k = k or int(rng.integers(3, 9))
        c = rng.uniform(-170, 170, 2)
        a = np.sort(rng.uniform(0, 2 * np.pi, k))
        r = np.column_stack([c[0] + 3 * np.cos(a), c[1] / 2 + 3 * np.sin(a)])
        return np.vstack([r, r[:1]])

    def hole(r):
        return (r - r.mean(axis=0)) * 0.3 + r.mean(axis=0)

    out = []
    for i in range(40):
        kind = i % 5
        if kind == 0:
            out.append(_polygon_wkb([ring()]))
        elif kind == 1:                        # polygon with two holes
            r = ring(7)
            out.append(_polygon_wkb([r, hole(r), hole(r)[::-1]]))
        elif kind == 2:                        # big-endian, with a hole
            r = ring()
            out.append(_polygon_wkb([r, hole(r)], ">"))
        elif kind == 3:                        # multipolygon, mixed orders
            out.append(_multipolygon_wkb(
                [([ring()], ">"), ([ring()], "<"),
                 ([(r := ring()), hole(r)], ">")], "<"))
        else:                                  # big-endian multipolygon
            out.append(_multipolygon_wkb([([ring()], "<")], ">"))
    return out


def _read_back(p):
    con = sqlite3.connect(p)
    try:
        rows = con.execute('SELECT cell_id, geometry FROM "cells" '
                           "ORDER BY fid").fetchall()
        bbox = con.execute("SELECT min_x, min_y, max_x, max_y "
                           "FROM gpkg_contents").fetchone()
    finally:
        con.close()
    return rows, bbox


def _oracle(wkbs, srs_id=4326):
    blobs, envs = zip(*(_gp_blob_oracle(w, srs_id) for w in wkbs))
    envs = np.array(envs)
    return list(blobs), (envs[:, 0].min(), envs[:, 2].min(),
                         envs[:, 1].max(), envs[:, 3].max())


def test_blobs_byte_identical_to_per_row_build(tmp_path):
    import pyarrow as pa

    wkbs = _mixed_wkbs()
    ids = np.arange(len(wkbs), dtype=np.int64)
    want_blobs, want_bbox = _oracle(wkbs)
    geom = pa.array(wkbs, pa.binary())
    tables = {
        "plain": pa.table({"cell_id": ids, "geometry": geom}),
        # chunked columns whose chunk boundaries differ
        "chunked": pa.table({
            "cell_id": pa.chunked_array([ids[:7], ids[7:]]),
            "geometry": pa.chunked_array([geom.slice(0, 23),
                                          geom.slice(23)])}),
        "large_binary": pa.table({"cell_id": ids,
                                  "geometry": geom.cast(pa.large_binary())}),
    }
    for name, t in tables.items():
        p = str(tmp_path / f"{name}.gpkg")
        assert write_gpkg(t, p) == len(wkbs)
        rows, bbox = _read_back(p)
        assert [r[0] for r in rows] == ids.tolist(), name
        assert [r[1] for r in rows] == want_blobs, name
        assert bbox == want_bbox, name
    # a sliced input: non-zero array offset into the offsets buffer
    t = pa.table({"cell_id": ids[5:31], "geometry": geom.slice(5, 26)})
    p = str(tmp_path / "sliced.gpkg")
    assert write_gpkg(t, p) == 26
    rows, bbox = _read_back(p)
    want_blobs, want_bbox = _oracle(wkbs[5:31])
    assert [r[1] for r in rows] == want_blobs
    assert bbox == want_bbox


def test_blobs_byte_identical_through_dataset(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data

    wkbs = _mixed_wkbs(seed=9) * 3
    t = pa.table({"cell_id": np.arange(len(wkbs), dtype=np.int64),
                  "geometry": pa.array(wkbs, pa.binary())})
    p = str(tmp_path / "ds.gpkg")
    assert write_gpkg(ray.data.from_arrow(t).repartition(4), p) == len(wkbs)
    rows, bbox = _read_back(p)
    want_blobs, want_bbox = _oracle(wkbs)
    assert sorted(rows) == sorted(zip(range(len(wkbs)), want_blobs))
    assert bbox == want_bbox


def test_bad_geometries_raise_value_error(tmp_path):
    import pyarrow as pa

    from dggrid4py_ray.geometry import wkb_point
    ring = np.array([(0, 0), (1, 0), (1, 1), (0, 0)], float)
    good = _polygon_wkb([ring])
    cases = {
        "non-polygonal": [good, wkb_point(1.0, 2.0)],
        "null": [good, None],
        "truncated": [good, good[:-3]],
        "empty polygon": [good, _polygon_wkb([])],
    }
    for what, wkbs in cases.items():
        t = pa.table({"geometry": pa.array(wkbs, pa.binary())})
        with pytest.raises(ValueError, match=what.split()[0]):
            write_gpkg(t, str(tmp_path / "bad.gpkg"))


def test_wkb_walker_matches_parse_wkb():
    import pyarrow as pa

    from dggrid4py_ray.geometry import parse_wkb, wkb_polygon_rings

    wkbs = _mixed_wkbs(seed=11)
    w = wkb_polygon_rings(pa.array(wkbs, pa.binary()).slice(3))
    for i, b in enumerate(wkbs[3:]):
        t, data = parse_wkb(b)
        want = data if t == "Polygon" else [r for rings in data for r in rings]
        got = [w.xy[w.ring_offsets[r]:w.ring_offsets[r + 1]]
               for r in range(w.row_offsets[i], w.row_offsets[i + 1])]
        assert len(got) == len(want)
        for g, r in zip(got, want):
            assert np.array_equal(g, r)
