"""Span tracing from outside the engine.

Wrappers record a span around each public entry point of the repo's
layers: name, start, end, parent and per-call counts.  They are installed
by patching attributes from the benchmark's own code, in the driver and,
through Ray's ``worker_process_setup_hook``, in every Ray worker, because
the per-batch UDFs run there.  Nothing inside ``dggrid4py_ray`` changes.

Clock: ``time.perf_counter_ns()`` reads CLOCK_MONOTONIC, which is
system-wide on Linux, so driver and worker spans share one timeline.  A
worker span belongs to the sequential iteration whose driver span contains
it.

Spans are kept in memory.  A worker appends its spans to
``<trace dir>/<pid>.jsonl`` each time an outermost wrapped call returns,
because workers can be killed at shutdown and exit hooks are unreliable.
Recording is switched on and off by a marker file, so one traced process
can also time untraced iterations and measure the tracing overhead.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

ENV_WORK = "PERFBENCH_WORK"
ENV_TRACE = "PERFBENCH_TRACE"

_local = threading.local()


class Recorder:
    """Per-process span store.  ``sink`` is the file worker spans are
    flushed to; the driver keeps its spans in memory (``sink=None``)."""

    def __init__(self, trace_dir: str, sink: str | None):
        self.on_marker = os.path.join(trace_dir, "ON")
        self.sink = sink
        self.pending: list[dict] = []
        self.kept: list[dict] = []
        self.pid = os.getpid()
        self.ids = itertools.count()

    def enabled(self) -> bool:
        return os.path.exists(self.on_marker)

    def flush(self) -> None:
        if not self.pending:
            return
        if self.sink is None:
            self.kept.extend(self.pending)
        else:
            with open(self.sink, "a") as f:
                for s in self.pending:
                    f.write(json.dumps(s) + "\n")
        self.pending = []


_recorder: Recorder | None = None


def _stack() -> list:
    st = getattr(_local, "stack", None)
    if st is None:
        st = _local.stack = []
    return st


def _call(name: str, fn, args, kwargs, counts):
    """Run ``fn`` inside a span called ``name``; ``counts(args, kwargs,
    result)`` returns the span's counters."""
    rec = _recorder
    st = _stack()
    if rec is None or (not st and not rec.enabled()):
        return fn(*args, **kwargs)
    span = {"name": name, "pid": rec.pid, "id": f"{rec.pid}:{next(rec.ids)}",
            "parent": st[-1]["id"] if st else None}
    st.append(span)
    span["start"] = time.perf_counter_ns()
    try:
        result = fn(*args, **kwargs)
    finally:
        span["end"] = time.perf_counter_ns()
        st.pop()
    if counts is not None:
        span["counts"] = counts(args, kwargs, result)
    rec.pending.append(span)
    if not st:
        rec.flush()
    return result


def traced(name: str, fn, counts=None):
    """``fn`` wrapped in a span; keeps ``fn``'s name so Ray prints the
    same operator names with and without tracing."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _call(name, fn, args, kwargs, counts)

    wrapper.__perfbench_traced__ = True
    return wrapper


def _patch(owner, attr: str, name: str, counts=None) -> None:
    fn = getattr(owner, attr)
    if getattr(fn, "__perfbench_traced__", False):
        return
    setattr(owner, attr, traced(name, fn, counts))


def _rows(t) -> int:
    return int(getattr(t, "num_rows", 0) or 0)


def _len0(args, kwargs, result):
    return {"n": int(len(args[1]))}


def _batch_rows(args, kwargs, result):
    return {"rows_in": _rows(args[1]), "rows_out": _rows(result)}


def _fn_rows(args, kwargs, result):
    return {"rows_in": _rows(args[0]), "rows_out": _rows(result)}


def _written(args, kwargs, result):
    where = args[1] if len(args) > 1 else kwargs.get("where")
    size = os.path.getsize(where) if isinstance(where, str) and os.path.exists(where) else 0
    return {"bytes": int(size)}


def install_kernel_wrappers() -> None:
    """Wrappers around the calls that run inside Ray tasks: the grid
    kernels (``dggs``), the per-batch UDFs (``stages``, the descent and
    clip stages of ``pipelines``) and the checkpoint sink's file writes
    (``state``).  Patched on the classes, so UDF instances unpickled in a
    worker pick them up."""
    import pyarrow.parquet as pq

    from dggrid4py_ray.dggs.igeo7 import IGeo7Grid
    from dggrid4py_ray.pipelines import highlevel
    from dggrid4py_ray.stages.encode import BoundaryKernel, CellEncoder
    from dggrid4py_ray.stages.spans import SpanCellEncoder

    _patch(IGeo7Grid, "encode", "dggs.encode", _len0)
    _patch(IGeo7Grid, "children", "dggs.children", _len0)
    _patch(IGeo7Grid, "boundary", "dggs.boundary", _len0)
    _patch(SpanCellEncoder, "__call__", "stages.SpanCellEncoder", _batch_rows)
    _patch(CellEncoder, "__call__", "stages.CellEncoder", _batch_rows)
    _patch(BoundaryKernel, "__call__", "stages.BoundaryKernel", _batch_rows)
    _patch(highlevel._Descend, "__call__", "pipelines.Descend", _batch_rows)
    _patch(highlevel._ExactClip, "__call__", "pipelines.ExactClip", _batch_rows)
    # the checkpoint sink's per-batch UDF is a closure; its partition
    # files are written through this module attribute
    _patch(pq, "write_table", "state.write", _written)


def install_driver_wrappers() -> None:
    """Wrappers around the calls made on the driver: the pipeline entry
    points, the GPKG and checkpoint sinks, the two aggregation paths of
    ``bin_point_vals`` and every Ray call that blocks on execution."""
    import ray.data
    from ray.data.grouped_data import GroupedData

    from dggrid4py_ray.pipelines import binning, highlevel
    from dggrid4py_ray.sources import gpkg
    from dggrid4py_ray.stages import groupagg
    from dggrid4py_ray.state import checkpoint

    _patch(highlevel, "run_flagship_checkpointed", "pipelines.run_flagship_checkpointed")
    _patch(highlevel, "grid_cell_polygons_for_extent", "pipelines.grid_cell_polygons_for_extent")
    _patch(binning, "bin_point_vals", "pipelines.bin_point_vals")
    _patch(checkpoint, "write_dataset_checkpointed", "state.sink")
    _patch(gpkg, "write_gpkg", "sources.write_gpkg")
    _patch(groupagg, "grouped_reduce", "pipelines.agg.grouped_reduce")
    _patch(GroupedData, "aggregate", "pipelines.agg.groupby_aggregate")
    _patch_combiner(binning)
    for attr in ("materialize", "count", "take_all", "schema"):
        _patch(ray.data.Dataset, attr, "ray.exec")
    _patch_iter_batches(ray.data.Dataset)


def _patch_combiner(binning) -> None:
    """The binning combiner is a closure built per call; wrap what the
    factory returns, so the span is recorded where the closure runs."""
    factory = binning._partial_mean_combiner
    if getattr(factory, "__perfbench_traced__", False):
        return

    @functools.wraps(factory)
    def combiner_factory(*args, **kwargs):
        return traced("pipelines.combiner", factory(*args, **kwargs), _fn_rows)

    combiner_factory.__perfbench_traced__ = True
    binning._partial_mean_combiner = combiner_factory


def _patch_iter_batches(cls) -> None:
    orig = cls.iter_batches
    if getattr(orig, "__perfbench_traced__", False):
        return

    @functools.wraps(orig)
    def iter_batches(self, *args, **kwargs):
        it = iter(orig(self, *args, **kwargs))
        while True:
            try:
                batch = _call("ray.exec", next, (it,), {}, None)
            except StopIteration:
                return
            yield batch

    iter_batches.__perfbench_traced__ = True
    cls.iter_batches = iter_batches


def start(work: str, trace: bool, driver: bool) -> None:
    """Per-process set-up, in the driver and (through the Ray setup hook)
    in every worker: keep the grid engine's table cache inside the work
    directory and, for a traced run, install the wrappers."""
    global _recorder
    _redirect_grid_cache(work)
    if not trace:
        return
    trace_dir = _trace_dir(work)
    os.makedirs(trace_dir, exist_ok=True)
    sink = None if driver else os.path.join(trace_dir, f"{os.getpid()}.jsonl")
    _recorder = Recorder(trace_dir, sink)
    install_kernel_wrappers()
    if driver:
        install_driver_wrappers()


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: configured through environment
    variables that the driver passes in the runtime env."""
    start(os.environ[ENV_WORK], os.environ.get(ENV_TRACE) == "1", driver=False)


def _redirect_grid_cache(work: str) -> None:
    """The IGEO7 bridge tables are cached on disk by the engine; point
    that cache into the work directory so a run writes only inside its
    checkout.  Skipped if the engine no longer has the hook."""
    from dggrid4py_ray.dggs import isea7h_z7bridge as zb

    bridge = getattr(zb, "Z7Bridge", None)
    orig = getattr(bridge, "_cache_path", None)
    if orig is None or getattr(orig, "__perfbench_cache__", False):
        return
    cache = os.path.join(work, "grid_cache")
    os.makedirs(cache, exist_ok=True)

    def _cache_path(self) -> str:
        return os.path.join(cache, os.path.basename(orig(self)))

    _cache_path.__perfbench_cache__ = True
    bridge._cache_path = _cache_path


def _trace_dir(work: str) -> str:
    return os.path.join(work, "run", "trace")


def set_enabled(work: str, on: bool) -> None:
    marker = os.path.join(_trace_dir(work), "ON")
    if on:
        open(marker, "w").close()
    elif os.path.exists(marker):
        os.remove(marker)


def driver_spans() -> list[dict]:
    return list(_recorder.kept) if _recorder is not None else []


def worker_spans(work: str) -> list[dict]:
    trace_dir = _trace_dir(work)
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans
