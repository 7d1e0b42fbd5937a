"""Regression tests for the round-4q flagship-path review fixes."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data


def _wkb_polygon(coords) -> bytes:
    """Minimal little-endian WKB for one polygon with one ring."""
    import struct
    out = [struct.pack("<BI", 1, 3), struct.pack("<I", 1),
           struct.pack("<I", len(coords))]
    for x, y in coords:
        out.append(struct.pack("<dd", float(x), float(y)))
    return b"".join(out)


def test_pip_join_dateline_crossing_polygon():
    """Points in the western-hemisphere half of a dateline-crossing
    polygon must match (the old bbox prune missed them)."""
    from dggrid4py_ray.stages.join import pip_join

    ring = [(170, -10), (-170, -10), (-170, 10), (170, 10), (170, -10)]
    wkb = _wkb_polygon(ring)
    pts = pd.DataFrame({"lon": [175.0, -175.0, 0.0, -169.0],
                        "lat": [0.0, 0.0, 0.0, 0.0]})
    out = pip_join(ray.data.from_pandas(pts), [wkb]).to_pandas()
    assert out["poly_id"].tolist() == [0, 0, -1, -1]


def test_parse_lonlat_no_space_batch():
    from dggrid4py_ray.stages.spans import _parse_lonlat

    lon, lat = _parse_lonlat(pa.array(["12.5,42.1", "", "xyz"]))
    assert np.isnan(lat).all()


def test_explode_reassemble_keeps_zero_span_docs():
    from dggrid4py_ray.stages.spans import explode_spans, reassemble_spans

    span_t = pa.struct([("kind", pa.string()), ("text", pa.string()),
                        ("media_ref", pa.string()), ("offset", pa.int32())])
    spans = pa.array([
        [{"kind": "text", "text": "a", "media_ref": None, "offset": 0}],
        [],
        [{"kind": "geo", "text": "1 2", "media_ref": None, "offset": 0}],
    ], pa.list_(span_t))
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(["d0", "d1", "d2"]), "spans": spans}))
    rows = explode_spans(ds)
    back = reassemble_spans(rows).to_pandas().set_index("doc_id")
    assert set(back.index) == {"d0", "d1", "d2"}
    assert len(back.loc["d1", "spans"]) == 0
    assert len(back.loc["d0", "spans"]) == 1



def test_explode_reassemble_keeps_int64_doc_ids():
    from dggrid4py_ray.stages.spans import explode_spans, reassemble_spans

    span_t = pa.struct([("kind", pa.string()), ("text", pa.string()),
                        ("media_ref", pa.string()), ("offset", pa.int32())])
    spans = pa.array([
        [{"kind": "text", "text": "a", "media_ref": None, "offset": 0},
         {"kind": "text", "text": "b", "media_ref": None, "offset": 1}],
        [],
        [{"kind": "geo", "text": "1 2", "media_ref": None, "offset": 0}],
    ], pa.list_(span_t))
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([7, 11, 3], pa.int64()), "spans": spans}))
    back = reassemble_spans(explode_spans(ds)).to_pandas()
    assert back["doc_id"].dtype == np.int64
    got = {d: [s["text"] for s in sp] for d, sp in
           zip(back["doc_id"], back["spans"])}
    assert got == {7: ["a", "b"], 11: [], 3: ["1 2"]}

def test_spatial_join_string_poly_ids():
    from dggrid4py_ray.stages.join import spatial_join_via_cells

    polys = pd.DataFrame({
        "poly_id": ["alpha", "beta"],
        "geometry": [
            _wkb_polygon([(0, 0), (10, 0), (10, 10), (0, 10), (0, 0)]),
            _wkb_polygon([(20, 20), (30, 20), (30, 30), (20, 30),
                          (20, 20)])]})
    pts = pd.DataFrame({"lon": [5.0, 25.0, 50.0],
                        "lat": [5.0, 25.0, 50.0]})
    out = spatial_join_via_cells(ray.data.from_pandas(pts),
                                 ray.data.from_pandas(polys),
                                 coarse_res=2).to_pandas()
    got = dict(zip(out["lon"], out["poly_id"]))
    assert got == {5.0: "alpha", 25.0: "beta"}


def test_span_fingerprint_injective_on_separators_and_none():
    from dggrid4py_ray.stages.spans import span_sequence_fingerprint

    span_t = pa.struct([("kind", pa.string()), ("text", pa.string()),
                        ("media_ref", pa.string()), ("offset", pa.int32())])

    def mk(text, media):
        spans = pa.array([[{"kind": "t", "text": text, "media_ref": media,
                            "offset": 0}]], pa.list_(span_t))
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(["d"]), "spans": spans}))

    fp = lambda t, m: span_sequence_fingerprint(mk(t, m)) \
        .to_pandas()["span_fp"][0]
    assert fp("a\x00b", "c") != fp("a", "b\x00c")
    assert fp(None, "x") != fp("None", "x")


def test_radius_join_zero_radius_raises():
    from dggrid4py_ray.stages.join import radius_join_via_buckets

    pts = ray.data.from_pandas(pd.DataFrame({"lon": [0.0], "lat": [0.0]}))
    sites = ray.data.from_pandas(pd.DataFrame(
        {"slon": [0.0], "slat": [0.0]}))
    with pytest.raises(ValueError, match="radius_km"):
        radius_join_via_buckets(pts, sites, 0.0)
