"""Per-layer metrics of a traced run.

Every metric is computed per traced iteration and reported as the median
over the iterations.  A span's self time is its duration minus the time
its child spans (same process) cover.  Worker spans are assigned to the
iteration whose driver-side window contains them.

Layers (repo modules, plus Ray itself):

* ``dggs`` - grid kernels (``IGeo7Grid.encode/children/boundary``);
* ``stages`` - per-batch UDFs, Arrow conversion included;
* ``pipelines`` - the operator graphs of ``binning.py``/``highlevel.py``:
  the combiner, the aggregation path taken, the descent and the clip;
* ``sources`` - parquet read (Ray's ReadParquet operator) and GPKG write;
* ``state`` - the checkpoint sink's partition-file writes;
* ``ray`` - the executor, from the execution-stats summaries, and the
  time nothing of the repo runs (``ray.wait_s``).
"""

from __future__ import annotations

import statistics

from perfbench import raystats

# metric -> span whose self time it sums
SELF_TIME = {
    "dggs.encode.self_s": "dggs.encode",
    "dggs.children.self_s": "dggs.children",
    "dggs.boundary.self_s": "dggs.boundary",
    "stages.SpanCellEncoder.self_s": "stages.SpanCellEncoder",
    "stages.CellEncoder.self_s": "stages.CellEncoder",
    "stages.BoundaryKernel.self_s": "stages.BoundaryKernel",
    "pipelines.combiner.self_s": "pipelines.combiner",
    "pipelines.Descend.self_s": "pipelines.Descend",
    "pipelines.ExactClip.self_s": "pipelines.ExactClip",
    "sources.write_gpkg.self_s": "sources.write_gpkg",
    "state.write.self_s": "state.write",
}

# metric -> (span, counter summed over its spans; None counts the spans)
COUNTS = {
    "dggs.encode.calls": ("dggs.encode", None, "count"),
    "dggs.encode.points": ("dggs.encode", "n", "count"),
    "dggs.boundary.cells": ("dggs.boundary", "n", "count"),
    "stages.CellEncoder.rows": ("stages.CellEncoder", "rows_in", "count"),
    "pipelines.combiner.rows_in": ("pipelines.combiner", "rows_in", "count"),
    "pipelines.combiner.rows_out": ("pipelines.combiner", "rows_out", "count"),
    "pipelines.Descend.rows_out": ("pipelines.Descend", "rows_out", "count"),
    "pipelines.agg_path.sort": ("pipelines.agg.grouped_reduce", None, "count"),
    "state.write.bytes": ("state.write", "bytes", "bytes"),
}

# metric -> (span, numerator counter, denominator counter)
RATIOS = {
    "pipelines.combiner.reduction": ("pipelines.combiner", "rows_out", "rows_in"),
    "pipelines.ExactClip.kept_ratio": ("pipelines.ExactClip", "rows_out", "rows_in"),
}

# Ray operators by ``raystats.op_key``; anything else is ``other``
RAY_OPS = (
    "ReadParquet-write_batch", "ReadParquet-combine", "Sort", "block_reduce",
    "lambda", "Aggregate", "Repartition", "Union", "lambda-finish", "finish",
    "Descend-BoundaryKernel", "other",
)
RAY_FIELDS = {"wall_s": "s", "cpu_s": "s", "udf_s": "s",
              "rows_out": "count", "blocks_out": "count"}

REPO_LAYERS = ("dggs.", "stages.", "pipelines.", "sources.", "state.")


def metric_names() -> dict[str, str]:
    """Every per-layer metric with its unit."""
    names = {m: "s" for m in SELF_TIME}
    names.update({m: unit for m, (_, _, unit) in COUNTS.items()})
    names.update({m: "ratio" for m in RATIOS})
    names["pipelines.agg_path.hash"] = "count"
    names["sources.read.wall_s"] = "s"
    for op in RAY_OPS:
        for field, unit in RAY_FIELDS.items():
            names[f"ray.op.{op}.{field}"] = unit
    names["ray.peak_heap_mb"] = "MiB"
    names["ray.wait_s"] = "s"
    names["ray.overhead_ratio"] = "ratio"
    names["trace.overhead_s"] = "s"
    return names


# ------------------------------------------------------------ intervals

def _union(iv):
    out = []
    for a, b in sorted(iv):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def _length(u) -> int:
    return sum(b - a for a, b in u)


def _subtract(u, v):
    """Merged intervals ``u`` minus merged intervals ``v``."""
    out = []
    for a, b in u:
        cur = a
        for c, d in v:
            if d <= cur or c >= b:
                continue
            if c > cur:
                out.append([cur, c])
            cur = max(cur, d)
        if cur < b:
            out.append([cur, b])
    return out


# ---------------------------------------------------------------- spans

def self_times(spans: list[dict]) -> dict[str, int]:
    """Span id -> duration minus the time its direct children cover."""
    kids: dict[str, list] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append([s["start"], s["end"]])
    return {s["id"]: (s["end"] - s["start"]) - _length(_union(kids.get(s["id"], [])))
            for s in spans}


def _hash_aggregates(spans: list[dict]) -> int:
    """``groupby().aggregate`` calls not made inside ``grouped_reduce``
    (whose boundary pass also aggregates): the hash path."""
    by_id = {s["id"]: s for s in spans}
    n = 0
    for s in spans:
        if s["name"] != "pipelines.agg.groupby_aggregate":
            continue
        p, inside = s["parent"], False
        while p is not None and p in by_id:
            if by_id[p]["name"] == "pipelines.agg.grouped_reduce":
                inside = True
                break
            p = by_id[p]["parent"]
        n += not inside
    return n


def iteration_metrics(t0: int, t1: int, driver: list[dict], workers: list[dict],
                      stats: list[str]) -> dict[str, float]:
    drv = [s for s in driver if s["start"] >= t0 and s["end"] <= t1]
    wrk = [s for s in workers if s["start"] >= t0 and s["end"] <= t1]
    inside = drv + wrk
    selfs = self_times(inside)
    m: dict[str, float] = {}
    for metric, name in SELF_TIME.items():
        m[metric] = sum(selfs[s["id"]] for s in inside if s["name"] == name) / 1e9
    for metric, (name, counter, _) in COUNTS.items():
        m[metric] = float(sum(1 if counter is None else s["counts"][counter]
                              for s in inside if s["name"] == name))
    for metric, (name, num, den) in RATIOS.items():
        top = sum(s["counts"][num] for s in inside if s["name"] == name)
        bottom = sum(s["counts"][den] for s in inside if s["name"] == name)
        m[metric] = top / bottom if bottom else 0.0
    m["pipelines.agg_path.hash"] = float(_hash_aggregates(inside))

    ops = raystats.merge(stats)
    for op in RAY_OPS:
        for field in RAY_FIELDS:
            m[f"ray.op.{op}.{field}"] = 0.0
    for key, op in ops.items():
        slot = key if key in RAY_OPS else "other"
        for field in RAY_FIELDS:
            m[f"ray.op.{slot}.{field}"] += op[field]
    m["ray.peak_heap_mb"] = max([op["peak_heap_mb"] for op in ops.values()] or [0.0])
    m["sources.read.wall_s"] = sum(op["wall_s"] - op["udf_s"] for key, op in ops.items()
                                   if key.startswith("ReadParquet"))

    # repo time on the blocking path: worker spans, plus driver spans
    # minus the driver's waits on Ray execution
    repo_drv = _union([s["start"], s["end"]] for s in drv if s["name"].startswith(REPO_LAYERS))
    waits = _union([s["start"], s["end"]] for s in drv if s["name"] == "ray.exec")
    repo = _union(_subtract(repo_drv, waits) + [[s["start"], s["end"]] for s in wrk])
    repo_s = _length(repo) / 1e9
    job_s = (t1 - t0) / 1e9
    m["ray.wait_s"] = job_s - repo_s
    m["ray.overhead_ratio"] = job_s / repo_s if repo_s > 0 else 0.0
    return m


def per_layer_metrics(traced, plain, driver, workers, stats_between) -> dict:
    """Median over the traced iterations of each per-layer metric, plus
    ``trace.overhead_s``: traced minus untraced median ``job_s``."""
    names = metric_names()
    per_iter = [iteration_metrics(t0, t1, driver, workers, stats_between(t0, t1))
                for t0, t1, _ in traced]
    out = {}
    for name, unit in names.items():
        if name == "trace.overhead_s":
            continue
        vals = [m[name] for m in per_iter]
        out[name] = {"value": float(statistics.median(vals)) if vals else 0.0, "unit": unit}
    job = statistics.median((t1 - t0) / 1e9 for t0, t1, _ in traced) if traced else 0.0
    base = statistics.median((t1 - t0) / 1e9 for t0, t1, _ in plain) if plain else 0.0
    out["trace.overhead_s"] = {"value": float(job - base), "unit": "s"}
    return out
