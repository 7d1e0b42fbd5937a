"""The benchmark's workloads.

Each workload makes its inputs from the seed, computes the reference
answer in-process without Ray, runs one timed iteration through the
engine's public API and checks the output against the reference after the
clock stops.  The engine only ever receives the generated data.

Sizes are chosen so that one run fits a one-CPU Ray session: a warm
iteration takes 0.4-2.5 s, so a run of a few seconds times several
iterations.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import sqlite3

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

RES_FINE = 9
RES_COARSE = 4
RES_REGION = 7

N_DOCS = 24_000          # span_encode: interleaved documents
DOC_FILES = 8            # = output partitions of the checkpointed sink
N_POINTS = 200_000       # bin_fine: points; bin_coarse uses the first N_COARSE
N_COARSE = 16_000
POINT_FILES = 8
N_HOT = 24               # Zipf-weighted hot spots holding half of the points
HOT_SIGMA_DEG = 0.2
REGION_HALF_LAT = 3.0    # region box half-height, degrees
REGION_HALF_LON = 3.0    # half-width at the equator, widened by 1/cos(lat)
REGION_FACE_CENTRE = (11.25, 20.905)   # lon, lat of an ISEA icosahedron face centre
REGION_JITTER_DEG = 1.5


class CheckFailed(AssertionError):
    """The engine's output does not match the reference answer."""


def digest(ids) -> str:
    """Order-independent checksum of a set of int64 cell ids."""
    a = np.sort(np.asarray(ids, dtype=np.int64))
    return hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest()


def _grid():
    """The engine's per-process IGEO7 grid (tables loaded once)."""
    from dggrid4py_ray.config import dgselect
    from dggrid4py_ray.stages.encode import grid_for
    return grid_for(dgselect("IGEO7"))


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Workload:
    name = ""

    def make_inputs(self, seed: int, where: str) -> dict:
        """Write the seeded inputs under ``where``; the engine gets only
        these."""
        raise NotImplementedError

    def reference(self, inp: dict) -> dict:
        """The expected answer, computed in-process without Ray."""
        raise NotImplementedError

    def reset(self, inp: dict) -> None:
        """Untimed, before every iteration."""

    def run(self, inp: dict):
        """The timed call into the engine; returns what ``check`` reads."""
        raise NotImplementedError

    def check(self, inp: dict, out) -> None:
        raise NotImplementedError

    def items(self, inp: dict, out) -> int:
        raise NotImplementedError


# --------------------------------------------------------------- span_encode

def parse_geo_spans(table: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """lon/lat of every ``geo`` span, parsed with numpy (independently of
    the engine's Arrow parser)."""
    spans = table["spans"].combine_chunks()
    flat = spans.flatten()
    kind = flat.field("kind").to_numpy(zero_copy_only=False)
    text = flat.field("text").to_numpy(zero_copy_only=False)[kind == "geo"]
    vals = np.array(" ".join(text).split(), dtype=np.float64)
    return vals[0::2], vals[1::2]


class SpanEncode(Workload):
    """``run_flagship_checkpointed`` at res 9 over seeded interleaved
    documents, into a fresh output directory each iteration."""

    name = "span_encode"

    def make_inputs(self, seed, where):
        from dggrid4py_ray.sources.spans_table import spans_batch

        src = os.path.join(where, "docs")
        os.makedirs(src)
        per = N_DOCS // DOC_FILES
        for f in range(DOC_FILES):
            pq.write_table(spans_batch(f * per, per, seed=seed),
                           os.path.join(src, f"part-{f:03d}.parquet"))
        return {"src": src, "out": os.path.join(where, "out"), "docs": per * DOC_FILES}

    def reference(self, inp):
        grid = _grid()
        cells = np.concatenate([
            grid.encode(*parse_geo_spans(pq.read_table(f)), RES_FINE)
            for f in sorted(glob.glob(os.path.join(inp["src"], "*.parquet")))])
        return {"assignments": int(len(cells)), "digest": digest(cells)}

    def reset(self, inp):
        shutil.rmtree(inp["out"], ignore_errors=True)

    def run(self, inp):
        from dggrid4py_ray.pipelines import highlevel
        return highlevel.run_flagship_checkpointed(inp["src"], inp["out"],
                                                   resolution=RES_FINE)

    def check(self, inp, out):
        files = sorted(glob.glob(os.path.join(out, "part-*", "data-*.parquet")))
        _expect(bool(files), "no output files")
        tabs = [pq.read_table(f, columns=["span_cell_ids"]) for f in files]
        docs = sum(t.num_rows for t in tabs)
        ids = np.concatenate([t["span_cell_ids"].combine_chunks().flatten()
                              .to_numpy(zero_copy_only=False) for t in tabs])
        ids = ids[ids != -1]
        _expect(docs == inp["docs"], f"{docs} docs written, expected {inp['docs']}")
        _expect(len(ids) == inp["assignments"],
                f"{len(ids)} assignments, expected {inp['assignments']}")
        _expect(digest(ids) == inp["digest"], "cell-id checksum differs")
        with open(os.path.join(out, "_dataset_manifest.json")) as f:
            total = json.load(f)["total_rows"]
        _expect(total == inp["docs"], f"manifest counts {total} rows")

    def items(self, inp, out):
        return inp["assignments"]


# ------------------------------------------------------------------ binning

def make_points(seed: int, n: int) -> pa.Table:
    """Half the points in Zipf-weighted hot spots (sigma 0.2 deg of
    latitude), half uniform on the sphere, shuffled together; value
    uniform in [0, 100)."""
    rng = np.random.default_rng(seed)
    c_lon = rng.uniform(-180.0, 180.0, N_HOT)
    c_lat = np.degrees(np.arcsin(rng.uniform(-0.85, 0.85, N_HOT)))
    w = 1.0 / np.arange(1, N_HOT + 1) ** 1.2
    n_hot = n // 2
    sel = rng.choice(N_HOT, size=n_hot, p=w / w.sum())
    # longitude spread widened by 1/cos(lat): every hot spot covers the
    # same area, so the occupied-cell count barely depends on the seed
    hot_lon = c_lon[sel] + rng.normal(0.0, HOT_SIGMA_DEG, n_hot) / np.cos(np.radians(c_lat[sel]))
    hot_lat = c_lat[sel] + rng.normal(0.0, HOT_SIGMA_DEG, n_hot)
    uni_lon = rng.uniform(-180.0, 180.0, n - n_hot)
    uni_lat = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n - n_hot)))
    lon = np.concatenate([hot_lon, uni_lon])
    lat = np.clip(np.concatenate([hot_lat, uni_lat]), -89.9, 89.9)
    lon = (lon + 180.0) % 360.0 - 180.0
    order = rng.permutation(n)
    return pa.table({"lon": lon[order], "lat": lat[order],
                     "value": rng.uniform(0.0, 100.0, n)})


class BinPoints(Workload):
    """``bin_point_vals`` (IGEO7, mean + count + sum) over seeded points
    read from parquet."""

    def __init__(self, name: str, resolution: int, n_points: int):
        self.name = name
        self.resolution = resolution
        self.n_points = n_points

    def make_inputs(self, seed, where):
        pts = make_points(seed, N_POINTS).slice(0, self.n_points)
        src = os.path.join(where, "points")
        os.makedirs(src)
        per = -(-self.n_points // POINT_FILES)
        for f in range(POINT_FILES):
            pq.write_table(pts.slice(f * per, per),
                           os.path.join(src, f"part-{f:03d}.parquet"))
        return {"src": src, "points": self.n_points}

    def reference(self, inp):
        pts = pq.read_table(inp["src"])
        val = pts["value"].to_numpy()
        cells, inv = np.unique(
            _grid().encode(pts["lon"].to_numpy(), pts["lat"].to_numpy(), self.resolution),
            return_inverse=True)
        return {"cells": cells, "counts": np.bincount(inv),
                "sums": np.bincount(inv, weights=val)}

    def run(self, inp):
        import ray.data

        from dggrid4py_ray.pipelines import binning
        ds = binning.bin_point_vals(ray.data.read_parquet(inp["src"]), "IGEO7",
                                    self.resolution, value_col="value",
                                    output_sum=True)
        return pa.concat_tables(list(ds.iter_batches(batch_size=None,
                                                     batch_format="pyarrow")))

    def check(self, inp, out):
        out = out.sort_by("cell_id")
        ids = out["cell_id"].to_numpy()
        _expect(len(ids) == len(inp["cells"]),
                f"{len(ids)} cells, expected {len(inp['cells'])}")
        _expect(bool(np.array_equal(ids, inp["cells"])), "cell ids differ")
        counts = out["count_value"].to_numpy()
        _expect(bool(np.array_equal(counts, inp["counts"])), "per-cell counts differ")
        _expect(bool(np.allclose(out["sum_value"].to_numpy(), inp["sums"],
                                 rtol=1e-9, atol=0.0)), "per-cell sums differ")
        _expect(bool(np.allclose(out["mean_value"].to_numpy(), inp["sums"] / inp["counts"],
                                 rtol=1e-9, atol=0.0)), "per-cell means differ")

    def items(self, inp, out):
        return inp["points"]


# ------------------------------------------------------------ region_polygons

def region_box(seed: int) -> tuple[float, float, float, float]:
    """A box of fixed area whose centre the seed places within
    ``REGION_JITTER_DEG`` of the centre of one icosahedron face, so every
    seed's box lies inside that face: cells near face seams take the
    kernels' slow paths and would make the cost depend on the seed.  The
    longitude span widens with 1/cos(lat) so the cell count barely
    depends on the seed either."""
    rng = np.random.default_rng(seed)
    lon_c, lat_c = np.array(REGION_FACE_CENTRE) + rng.uniform(
        -REGION_JITTER_DEG, REGION_JITTER_DEG, 2)
    half_lon = REGION_HALF_LON / np.cos(np.radians(lat_c))
    return (float(lon_c - half_lon), float(lat_c - REGION_HALF_LAT),
            float(lon_c + half_lon), float(lat_c + REGION_HALF_LAT))


def replay_extent(resolution: int, bbox) -> np.ndarray:
    """The polyfill's descent and exact clip replayed in-process on one
    Arrow table, without Ray: the region's sorted cell ids."""
    from dggrid4py_ray.config import dgselect
    from dggrid4py_ray.geometry import box
    from dggrid4py_ray.pipelines import highlevel

    dggs = dgselect("IGEO7", resolution=resolution)
    clip = box(*bbox)
    grid = highlevel._grid_for(dggs)
    t = highlevel._seed_table(grid, resolution, clip)
    for level in range(min(resolution, 3), resolution):
        t = highlevel._Descend(dggs, level, clip)(t)
    t = highlevel._ExactClip(dggs, clip)(t)
    return np.sort(t["cell_id"].to_numpy())


class RegionPolygons(Workload):
    """``grid_cell_polygons_for_extent`` (IGEO7 res 7) over a seeded box,
    written with ``write_gpkg``."""

    name = "region_polygons"

    def make_inputs(self, seed, where):
        return {"bbox": region_box(seed), "path": os.path.join(where, "cells.gpkg")}

    def reference(self, inp):
        cells = replay_extent(RES_REGION, inp["bbox"])
        return {"cells": int(len(cells)), "digest": digest(cells)}

    def reset(self, inp):
        if os.path.exists(inp["path"]):
            os.remove(inp["path"])

    def run(self, inp):
        from dggrid4py_ray.pipelines import highlevel
        from dggrid4py_ray.sources import gpkg
        ds = highlevel.grid_cell_polygons_for_extent("IGEO7", RES_REGION,
                                                     clip_bbox=inp["bbox"])
        return gpkg.write_gpkg(ds, inp["path"])

    def check(self, inp, out):
        _expect(out == inp["cells"], f"write_gpkg wrote {out} rows, expected {inp['cells']}")
        con = sqlite3.connect(inp["path"])
        try:
            ids = np.array([r[0] for r in con.execute("SELECT cell_id FROM cells")],
                           dtype=np.int64)
            blobs = con.execute("SELECT count(*) FROM cells "
                                "WHERE hex(substr(geometry, 1, 2)) = '4750'").fetchone()[0]
        finally:
            con.close()
        _expect(len(ids) == inp["cells"], f"GPKG holds {len(ids)} rows")
        _expect(digest(ids) == inp["digest"], "cell-id checksum differs")
        _expect(blobs == inp["cells"], "GPKG geometry blobs missing")

    def items(self, inp, out):
        return int(out)


WORKLOADS = {w.name: w for w in (
    SpanEncode(),
    BinPoints("bin_fine", RES_FINE, N_POINTS),
    BinPoints("bin_coarse", RES_COARSE, N_COARSE),
    RegionPolygons(),
)}


def input_digest(inp: dict) -> str:
    """Digest of a build's inputs (every file under it, and the other
    values), to show that the same seed gives the same inputs."""
    h = hashlib.blake2b(digest_size=16)
    for key in sorted(inp):
        v = inp[key]
        if isinstance(v, str) and os.path.isdir(v):
            for f in sorted(glob.glob(os.path.join(v, "*"))):
                with open(f, "rb") as fh:
                    h.update(os.path.basename(f).encode() + fh.read())
        elif not isinstance(v, str):
            h.update(f"{key}={v!r}".encode())
    return h.hexdigest()
