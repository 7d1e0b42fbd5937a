"""One benchmark run in a fresh process: a one-CPU Ray session, set-up,
the timed iterations and the result line.  Started by ``run.py``, which
owns the time limit and the clean-up of every process this one starts.

Untraced run (``--trace 0``), the end-to-end metrics:

* ``job_s`` - median wall time of a timed iteration, from the first call
  into the engine to the complete result; the output check runs after the
  clock stops.
* ``items_per_s`` - workload items / ``job_s``.
* ``setup_s`` - process start to ready-to-time: Ray init, inputs and
  reference answer, and one untimed full warm-up iteration.  The inputs
  and reference are built ``BUILDS`` times (each build must give the same
  digest) and count once, at their median.
* ``driver_peak_rss_mb`` - the driver's ``ru_maxrss``.
* ``worker_peak_mb`` - the largest peak RSS (``VmHWM``) of any Ray worker.

Traced run (``--trace 1``): untraced iterations, then traced ones; the
per-layer metrics are medians over the traced iterations.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import threading
import time

from perfbench import layers, tracing
from perfbench.workloads import WORKLOADS, input_digest

BUILDS = 3
MIN_ITERS = 3
ITER_TIMEOUT_S = 60.0
MAX_CPUS = 1     # one-core benchmark: never more than the affinity allows
OBJECT_STORE_BYTES = 400 * 1024 * 1024


class IterationTimeout(RuntimeError):
    pass


def ray_cpus() -> int:
    return max(1, min(MAX_CPUS, len(os.sched_getaffinity(0))))


def _guarded(fn, timeout: float):
    """Run ``fn`` in a thread; raise ``IterationTimeout`` if it does not
    return in time (the hung Ray call is left to the process clean-up)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:      # re-raised in the caller
            box["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise IterationTimeout(f"iteration exceeded {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


class StatsCapture:
    """Ray Data execution callback: the full stats summary (``ds.stats()``
    text) of every execution that finishes, with the time it finished."""

    def __init__(self):
        self.records: list[tuple[int, str]] = []

    def __deepcopy__(self, memo):       # DataContext copies share one capture
        return self

    def before_execution_starts(self, executor):
        pass

    def on_execution_step(self, executor):
        pass

    def after_execution_fails(self, executor, error):
        pass

    def after_execution_succeeds(self, executor):
        text = executor.get_stats().to_summary().to_string(add_global_stats=False)
        self.records.append((time.perf_counter_ns(), text))

    def between(self, t0: int, t1: int) -> list[str]:
        return [m for t, m in self.records if t0 <= t <= t1]

    def install(self, ctx) -> None:
        """Added to Ray's default callbacks, which stay installed."""
        from ray.data._internal.execution import execution_callback as ec
        ctx.set_config(ec.EXECUTION_CALLBACKS_CONFIG_KEY,
                       list(ec.get_execution_callbacks(ctx)) + [self])


def ray_worker_peaks_mb() -> list[float]:
    """Peak RSS of every Ray worker process descended from this one."""
    me = os.getpid()
    parent = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            parent[int(pid)] = int(fields[1])
        except (OSError, IndexError, ValueError):
            continue
    peaks = []
    for pid in parent:
        p, seen = pid, 0
        while p in parent and p != me and seen < 64:
            p, seen = parent[p], seen + 1
        if p != me or pid == me:
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
            if b"default_worker.py" not in cmd and not cmd.startswith(b"ray::"):
                continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peaks.append(int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return peaks


def _ray_temp_dir(work: str) -> str | None:
    """Ray's temp directory inside the checkout when its socket paths
    (``<dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store``)
    fit the 107-byte AF_UNIX limit; otherwise Ray's default."""
    path = os.path.join(work, "ray")
    return path if len(path) + 64 <= 107 else None


def init_ray(root: str, work: str, trace: bool):
    import ray

    env = {"PYTHONPATH": root, tracing.ENV_WORK: work,
           tracing.ENV_TRACE: "1" if trace else "0"}
    kwargs = {}
    tmp = _ray_temp_dir(work)
    if tmp:
        kwargs["_temp_dir"] = tmp
    ray.init(address="local", num_cpus=ray_cpus(), include_dashboard=False,
             logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES,
             runtime_env={"env_vars": env,
                          "worker_process_setup_hook": "perfbench.tracing.worker_setup"},
             **kwargs)
    import ray.data
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    return ray


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, work: str):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def iteration(self, inp: dict) -> tuple[int, int, int] | None:
        """One iteration: untimed reset, timed engine call, untimed check.
        Returns (start_ns, end_ns, items), or None if it failed."""
        self.attempted += 1
        self.w.reset(inp)
        gc.collect()                    # no collector debt carried into the clock
        try:
            t0 = time.perf_counter_ns()
            out = _guarded(lambda: self.w.run(inp), ITER_TIMEOUT_S)
            t1 = time.perf_counter_ns()
            self.w.check(inp, out)
        except IterationTimeout as e:
            self.failed += 1
            self.errors.append(str(e))
            raise
        except Exception as e:      # raised or failed the check: counted
            self.failed += 1
            self.errors.append(f"{type(e).__name__}: {e}")
            return None
        return t0, t1, self.w.items(inp, out)

    def timed(self, inp: dict, seconds: float) -> list[tuple[int, int, int]]:
        """Iterations for ``seconds`` of wall time, at least MIN_ITERS;
        returns the successful ones."""
        done, n = [], 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or n < MIN_ITERS:
            n += 1
            it = self.iteration(inp)
            if it is not None:
                done.append(it)
        return done

    def setup(self, spawned_ns: int) -> tuple[dict, float]:
        """Inputs made BUILDS times (identical each time), the reference
        answer, and one full warm-up iteration.  Returns the inputs and
        ``setup_s``, in which the input builds count once, at their
        median."""
        builds, digests = [], set()
        for k in range(BUILDS):
            where = os.path.join(self.work, "run", f"inputs-{k}")
            os.makedirs(where)
            t0 = time.perf_counter()
            inp = self.w.make_inputs(self.seed, where)
            builds.append(time.perf_counter() - t0)
            digests.add(input_digest(inp))
        if len(digests) != 1:
            raise RuntimeError("the same seed gave different inputs")
        t0 = time.perf_counter()
        inp.update(self.w.reference(inp))
        t_warm = time.perf_counter()
        self.iteration(inp)             # warm-up: worker start, grid tables
        ready = time.perf_counter_ns()
        print(f"perfbench: setup builds={[round(b, 3) for b in builds]} "
              f"reference={t_warm - t0:.3f} warm-up={ready / 1e9 - t_warm:.3f}",
              file=sys.stderr)
        setup_s = (ready - spawned_ns) / 1e9 - sum(builds) + statistics.median(builds)
        return inp, setup_s

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def _m(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    a = ap.parse_args(argv)

    trace = bool(a.trace)
    run = Run(a.workload, a.seed, a.seconds, a.work)
    tracing.start(a.work, trace, driver=True)
    capture = StatsCapture()
    t = time.perf_counter_ns()
    ray = init_ray(a.root, a.work, trace)
    if trace:
        capture.install(ray.data.DataContext.get_current())
    print(f"perfbench: start={(t - a.spawned_ns) / 1e9:.3f} ray.init={(time.perf_counter_ns() - t) / 1e9:.3f}",
          file=sys.stderr)
    hung = False
    try:
        try:
            inp, setup_s = run.setup(a.spawned_ns)
            metrics = (measure_layers(run, inp, capture) if trace
                       else measure(run, inp, setup_s))
            result = run.result(metrics)
        except IterationTimeout:
            hung = True
            result = run.result({})
    finally:
        if run.errors:
            print("perfbench: failures: " + "; ".join(run.errors[:5]), file=sys.stderr)
        if not hung:
            t = time.perf_counter()
            ray.shutdown()
            print(f"perfbench: shutdown={time.perf_counter() - t:.3f}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    if hung:
        os._exit(0)     # a Ray call is stuck; run.py stops the processes
    return 0


def measure(run: Run, inp: dict, setup_s: float) -> dict:
    done = run.timed(inp, run.seconds)
    if not done:
        return {}
    times = [(t1 - t0) / 1e9 for t0, t1, _ in done]
    job = statistics.median(times)
    items = statistics.median(n for _, _, n in done)
    peaks = ray_worker_peaks_mb()
    print(f"perfbench: {run.w.name} seed={run.seed} samples={len(times)} "
          f"job_s={[round(t, 4) for t in times]} worker_peaks_mb={[round(p) for p in peaks]}",
          file=sys.stderr)
    return {
        "job_s": _m(job, "s"),
        "items_per_s": _m(items / job, "items/s"),
        "setup_s": _m(setup_s, "s"),
        "driver_peak_rss_mb": _m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "worker_peak_mb": _m(max(peaks) if peaks else 0.0, "MiB"),
    }


def measure_layers(run: Run, inp: dict, capture: StatsCapture) -> dict:
    plain = run.timed(inp, run.seconds / 2)
    tracing.set_enabled(run.work, True)
    try:
        traced = run.timed(inp, run.seconds / 2)
    finally:
        tracing.set_enabled(run.work, False)
    with open(os.path.join(run.work, "run", "ray_stats.txt"), "w") as f:
        f.write("\n=====\n".join(m for _, m in capture.records))
    return layers.per_layer_metrics(traced, plain, tracing.driver_spans(),
                                    tracing.worker_spans(run.work), capture.between)


if __name__ == "__main__":
    sys.exit(main())
