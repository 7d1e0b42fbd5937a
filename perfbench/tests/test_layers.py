"""Per-layer metrics from spans: self time, the aggregation path, Ray wait
time; and the metric names the benchmark declares."""

from __future__ import annotations

import json
import os

import pytest

from perfbench import layers, tracing

MS = 1_000_000
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def span(name, sid, start, end, parent=None, **counts):
    return {"name": name, "id": sid, "parent": parent, "pid": 1,
            "start": start * MS, "end": end * MS, "counts": counts}


def test_self_time_subtracts_covered_children():
    spans = [span("a", "a", 0, 100), span("b", "b", 10, 40, "a"),
             span("c", "c", 30, 60, "a"), span("d", "d", 35, 36, "c")]
    st = layers.self_times(spans)
    assert st["a"] == 50 * MS          # children cover 10..60
    assert st["c"] == 29 * MS
    assert st["d"] == 1 * MS


def test_intervals():
    u = layers._union([[5, 7], [0, 2], [1, 3]])
    assert u == [[0, 3], [5, 7]]
    assert layers._subtract(u, [[1, 6]]) == [[0, 1], [6, 7]]
    assert layers._length(u) == 5


def test_iteration_metrics():
    driver = [
        span("pipelines.bin_point_vals", "p", 0, 100),
        span("ray.exec", "x", 10, 90, "p"),
        span("pipelines.agg.grouped_reduce", "g", 91, 95, "p"),
        span("pipelines.agg.groupby_aggregate", "h1", 92, 93, "g"),
        span("pipelines.agg.groupby_aggregate", "h2", 96, 97, "p"),
    ]
    workers = [
        span("stages.CellEncoder", "w1", 20, 50, rows_in=10, rows_out=10),
        span("dggs.encode", "w2", 25, 45, "w1", n=10),
        span("pipelines.combiner", "w3", 50, 60, rows_in=10, rows_out=4),
        span("dggs.encode", "late", 120, 130, n=99),          # after the iteration
    ]
    m = layers.iteration_metrics(0, 110 * MS, driver, workers, [])
    assert m["dggs.encode.self_s"] == pytest.approx(0.020)
    assert m["dggs.encode.points"] == 10 and m["dggs.encode.calls"] == 1
    assert m["stages.CellEncoder.self_s"] == pytest.approx(0.010)
    assert m["pipelines.combiner.reduction"] == pytest.approx(0.4)
    assert m["pipelines.agg_path.sort"] == 1
    assert m["pipelines.agg_path.hash"] == 1      # h1 is grouped_reduce's own
    # repo time: driver 0..10 and 90..100, workers 20..60 -> 60 ms of 110
    assert m["ray.wait_s"] == pytest.approx(0.050)
    assert m["ray.overhead_ratio"] == pytest.approx(110 / 60)
    assert set(m) | {"trace.overhead_s"} == set(layers.metric_names())


def test_traced_keeps_the_name_and_records_nothing_when_off():
    def combine(batch):
        return batch

    wrapped = tracing.traced("pipelines.combiner", combine)
    assert wrapped.__name__ == "combine"
    assert wrapped(3) == 3


def test_benchmark_json_declares_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == layers.metric_names()
    assert {m["name"] for m in bench["end_to_end"]} == {
        "job_s", "items_per_s", "setup_s", "driver_peak_rss_mb", "worker_peak_mb"}
    from perfbench.workloads import WORKLOADS
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
