"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each run starts a fresh session process
(``perfbench/session.py``) in its own process session, relays its result
line, and afterwards stops every process the run left behind (Ray's
raylet, GCS and workers included) and waits until they are gone.  The last
line on stdout is the JSON result; diagnostics go to stderr.

Exits non-zero without a result when the engine is not next to the
benchmark, when the session fails or when it overruns ``RUN_LIMIT_S``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170.0
WORK = os.path.join(ROOT, ".bench_build", "perfbench")


def _session_members(sid: int) -> list[int]:
    """Live processes of the process session ``sid``."""
    out = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            out.append(int(pid))
    return out


def stop_session(sid: int, grace_s: float = 10.0) -> None:
    """TERM, then KILL, every process of the session; wait until none is
    left."""
    deadline = time.monotonic() + grace_s
    sig = signal.SIGTERM
    while True:
        members = _session_members(sid)
        if not members:
            return
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
        for pid in members:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.2)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {a.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "dggrid4py_ray", "__init__.py")):
        print(f"perfbench: no dggrid4py_ray package in {ROOT}", file=sys.stderr)
        return 2

    run_dir = os.path.join(WORK, "run")
    for old in (run_dir, os.path.join(WORK, "ray")):     # the previous run's
        shutil.rmtree(old, ignore_errors=True)
    os.makedirs(run_dir)
    # fixed str hashing: the same dict layouts in every run and worker
    env = dict(os.environ, PYTHONPATH=ROOT, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, "-m", "perfbench.session",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--root", ROOT, "--work", WORK,
           "--spawned-ns", str(time.perf_counter_ns())]
    def stop(signum, frame):        # stopped from outside: clean up first
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    with open(os.path.join(run_dir, "session.log"), "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=log, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            out = None
        finally:
            stop_session(proc.pid)
            proc.wait()
    lines = [ln for ln in (out or "").splitlines() if ln.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if out is None or proc.returncode != 0 or not isinstance(result, dict):
        with open(os.path.join(run_dir, "session.log")) as f:
            sys.stderr.write(f.read()[-4000:])
        print(f"perfbench: session failed (exit {proc.returncode}, "
              f"{'timed out' if out is None else 'no result'})", file=sys.stderr)
        return 1
    with open(os.path.join(run_dir, "session.log")) as f:
        for line in f:
            if line.startswith("perfbench:"):
                sys.stderr.write(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
