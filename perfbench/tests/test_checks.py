"""The output checks: they accept the engine's answer and reject a
deliberately wrong one.  In-process, without Ray."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import workloads as wl
from perfbench.workloads import CheckFailed


def test_same_seed_same_inputs():
    a, b, c = wl.make_points(7, 5000), wl.make_points(7, 5000), wl.make_points(8, 5000)
    assert a.equals(b)
    assert not a.equals(c)
    assert wl.region_box(7) == wl.region_box(7) != wl.region_box(8)


def test_region_box_keeps_its_area():
    for seed in range(20):
        x0, y0, x1, y1 = wl.region_box(seed)
        lat = np.radians((y0 + y1) / 2)
        assert (x1 - x0) * np.cos(lat) == pytest.approx(2 * wl.REGION_HALF_LON)
        assert y1 - y0 == pytest.approx(2 * wl.REGION_HALF_LAT)


def test_replay_pins_the_16_cell_box():
    cells = wl.replay_extent(5, (27.2, 57.5, 29.3, 59.2))
    assert len(cells) == 16
    assert len(np.unique(cells)) == 16


# ------------------------------------------------------------------ binning

def _binned(inp: dict) -> pa.Table:
    """What a correct ``bin_point_vals(..., output_sum=True)`` returns."""
    return pa.table({"cell_id": pa.array(inp["cells"][::-1]),
                     "mean_value": pa.array((inp["sums"] / inp["counts"])[::-1]),
                     "count_value": pa.array(inp["counts"][::-1]),
                     "sum_value": pa.array(inp["sums"][::-1])})


@pytest.fixture(scope="module")
def bin_inp(tmp_path_factory):
    w = wl.BinPoints("bin_test", 5, 3000)
    inp = w.make_inputs(3, str(tmp_path_factory.mktemp("bin")))
    inp.update(w.reference(inp))
    return w, inp


def test_bin_check_accepts_the_right_answer(bin_inp):
    w, inp = bin_inp
    w.check(inp, _binned(inp))


@pytest.mark.parametrize("damage", ["count", "sum", "mean", "drop", "cell"])
def test_bin_check_rejects_a_wrong_answer(bin_inp, damage):
    w, inp = bin_inp
    out = _binned(inp)
    i = 0
    if damage == "drop":
        out = out.slice(1)
    else:
        col = {"count": "count_value", "sum": "sum_value", "mean": "mean_value",
               "cell": "cell_id"}[damage]
        v = out[col].to_numpy().copy()
        v[i] = v[i] + 1 if damage in ("count", "cell") else v[i] * (1 + 1e-7)
        out = out.set_column(out.schema.get_field_index(col), col, pa.array(v))
    with pytest.raises(CheckFailed):
        w.check(inp, out)


# -------------------------------------------------------------- span_encode

def _flagship_output(inp: dict, out_dir: str, drop: bool = False) -> str:
    """Write what ``run_flagship_checkpointed`` writes, from the engine's
    in-process encode, optionally losing one assignment."""
    grid = wl._grid()
    total = 0
    for i, f in enumerate(sorted(os.listdir(inp["src"]))):
        t = pq.read_table(os.path.join(inp["src"], f))
        spans = t["spans"].combine_chunks()
        kind = spans.flatten().field("kind").to_numpy(zero_copy_only=False)
        cell = np.full(len(kind), -1, np.int64)
        lon, lat = wl.parse_geo_spans(t)
        cell[kind == "geo"] = grid.encode(lon, lat, wl.RES_FINE)
        if drop and i == 0:
            cell[np.flatnonzero(cell != -1)[0]] = -1
        ids = pa.ListArray.from_arrays(spans.offsets, pa.array(cell))
        os.makedirs(os.path.join(out_dir, f"part-{i:05d}"))
        pq.write_table(t.append_column("span_cell_ids", ids),
                       os.path.join(out_dir, f"part-{i:05d}", "data-0.parquet"))
        total += t.num_rows
    with open(os.path.join(out_dir, "_dataset_manifest.json"), "w") as f:
        json.dump({"total_rows": total}, f)
    return out_dir


@pytest.fixture(scope="module")
def span_inp(tmp_path_factory, monkeypatch_module):
    monkeypatch_module.setattr(wl, "N_DOCS", 400)
    w = wl.SpanEncode()
    inp = w.make_inputs(5, str(tmp_path_factory.mktemp("docs")))
    inp.update(w.reference(inp))
    return w, inp


@pytest.fixture(scope="module")
def monkeypatch_module():
    mp = pytest.MonkeyPatch()
    yield mp
    mp.undo()


def test_span_check_accepts_the_right_answer(span_inp, tmp_path):
    w, inp = span_inp
    w.check(inp, _flagship_output(inp, str(tmp_path)))


def test_span_check_rejects_a_lost_assignment(span_inp, tmp_path):
    w, inp = span_inp
    with pytest.raises(CheckFailed):
        w.check(inp, _flagship_output(inp, str(tmp_path), drop=True))


# ---------------------------------------------------------- region_polygons

def _gpkg(inp: dict, cells: np.ndarray) -> int:
    from dggrid4py_ray.config import dgselect
    from dggrid4py_ray.sources.gpkg import write_gpkg
    from dggrid4py_ray.stages.encode import BoundaryKernel

    t = BoundaryKernel(dgselect("IGEO7", resolution=5))(
        pa.table({"cell_id": pa.array(cells, pa.int64())}))
    return write_gpkg(t, inp["path"])


@pytest.fixture
def region_inp(tmp_path):
    bbox = (27.2, 57.5, 29.3, 59.2)
    cells = wl.replay_extent(5, bbox)
    inp = {"bbox": bbox, "path": str(tmp_path / "cells.gpkg"),
           "cells": int(len(cells)), "digest": wl.digest(cells)}
    return inp, cells


def test_region_check_accepts_the_right_answer(region_inp):
    inp, cells = region_inp
    wl.RegionPolygons().check(inp, _gpkg(inp, cells))


def test_region_check_rejects_a_missing_cell(region_inp):
    inp, cells = region_inp
    with pytest.raises(CheckFailed):
        wl.RegionPolygons().check(inp, _gpkg(inp, cells[1:]))


def test_region_check_rejects_a_wrong_row_count(region_inp):
    inp, cells = region_inp
    n = _gpkg(inp, cells)
    with pytest.raises(CheckFailed):
        wl.RegionPolygons().check(inp, n + 1)
