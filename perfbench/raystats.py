"""Parse Ray Data's execution-stats summary (``ds.stats()`` text).

Ray prints one block per operator::

    Operator 1 ReadParquet->MapBatches(CellEncoder): 8 tasks executed, 8 blocks produced in 1.2s
    * Remote wall time: 83.7us min, 4.17ms max, 624us mean, 1.05s total
    * Remote cpu time: ...
    * UDF time: ...
    * Peak heap memory usage (MiB): 95.1 min, 100.9 max, 98 mean
    * Output num rows per block: 2500 min, 2500 max, 2500 mean, 20000 total

and all-to-all operators (sort, aggregate, repartition) as a header
``Operator 2 Sort: executed in 0.5s`` followed by tab-indented
``Suboperator`` blocks.  A sub-operator's times are added to its parent;
rows and blocks out are the last sub-operator's.

The benchmark captures one summary per execution (``materialize()``
inside an engine call is its own execution), so ``merge`` adds up the
operators of several summaries under one key.  Lines after an operator's
stats that are not ``*`` items (throughput trailers) are ignored.
"""

from __future__ import annotations

import re

FIELDS = ("wall_s", "cpu_s", "udf_s", "rows_out", "blocks_out")

_HEAD = re.compile(r"^Operator (\d+) (.+?): (.*)$")
_SUB = re.compile(r"^\tSuboperator (\d+) (.+?): (.*)$")
_BLOCKS = re.compile(r"(\d+) blocks produced")
_TIME = re.compile(r"([-\d.]+)(us|ms|s)$")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_TIME_LINES = {"Remote wall time": "wall_s", "Remote cpu time": "cpu_s",
               "UDF time": "udf_s"}


def _seconds(tok: str) -> float:
    m = _TIME.match(tok.strip())
    if not m:
        raise ValueError(f"not a Ray time: {tok!r}")
    return float(m.group(1)) * _UNIT[m.group(2)]


def _total(rest: str) -> str:
    """The ``... , X total`` figure of a stats line."""
    for part in rest.split(","):
        part = part.strip()
        if part.endswith(" total"):
            return part[: -len(" total")]
    raise ValueError(f"no total in {rest!r}")


def _empty(name: str) -> dict:
    return {"name": name, "peak_heap_mb": 0.0, **dict.fromkeys(FIELDS, 0.0)}


def parse(text: str) -> list[dict]:
    """Operators of one stats summary, in plan order."""
    ops: list[dict] = []
    cur = None          # the dict lines are added to (op or sub-op)
    for line in text.splitlines():
        m = _HEAD.match(line)
        if m:
            ops.append(_empty(m.group(2)))
            cur = {}
            _start_block(cur, m.group(3))
            ops[-1]["_parts"] = [cur]
            ops[-1]["text"] = line
            continue
        m = _SUB.match(line)
        if m and ops:
            cur = {}
            _start_block(cur, m.group(3))
            ops[-1]["_parts"].append(cur)
        body = line.strip()
        if body.startswith(("Dataset ", "Cluster ")):     # summary trailer
            cur = None
        if cur is None or not body:
            continue
        ops[-1]["text"] += "\n" + line
        if m or not body.startswith("* ") or ":" not in body:
            continue
        label, rest = body[2:].split(":", 1)
        if label in _TIME_LINES:
            cur[_TIME_LINES[label]] = _seconds(_total(rest))
        elif label == "Output num rows per block":
            cur["rows_out"] = int(float(_total(rest)))
        elif label == "Peak heap memory usage (MiB)":
            cur["peak_heap_mb"] = max(float(v.split()[0]) for v in rest.split(","))
    for op in ops:
        parts = [p for p in op.pop("_parts") if p]
        for key in ("wall_s", "cpu_s", "udf_s"):
            op[key] = sum(p.get(key, 0.0) for p in parts)
        op["peak_heap_mb"] = max([p.get("peak_heap_mb", 0.0) for p in parts] or [0.0])
        if parts:
            op["rows_out"] = parts[-1].get("rows_out", 0)
            op["blocks_out"] = parts[-1].get("blocks_out", 0)
    return ops


def _start_block(cur: dict, header_rest: str) -> None:
    m = _BLOCKS.search(header_rest)
    if m:
        cur["blocks_out"] = int(m.group(1))


def op_key(name: str) -> str:
    """Short, stable metric key for an operator as Ray prints it.

    A fused operator ``A->MapBatches(B)->...->MapBatches(Z)`` becomes
    ``A-Z`` (its first and last stage).  ``MapBatches(f)`` becomes ``f``
    with leading underscores dropped and ``<lambda>`` read as ``lambda``;
    any other stage is its leading word without an ``Operator`` suffix
    (``UnionOperator(...)`` is ``Union``).  A trailing ``Project`` (a
    column selection fused into the chain) and repeated stages are
    dropped."""
    stages = []
    for part in name.split("->"):
        m = re.match(r"^(?:MapBatches|MapRows|FlatMap|Filter)\((.*)\)$", part)
        if m:
            s = m.group(1).replace("<lambda>", "lambda").lstrip("_")
        else:
            s = re.match(r"^\w*", part).group(0)
            s = s[: -len("Operator")] if s.endswith("Operator") and s != "Operator" else s
        s = re.sub(r"[^A-Za-z0-9_.-]+", "_", s) or "op"
        if not stages or stages[-1] != s:
            stages.append(s)
    if len(stages) > 1 and stages[-1] == "Project":
        stages.pop()
    return stages[0] if len(stages) == 1 else f"{stages[0]}-{stages[-1]}"


def merge(summaries: list[str]) -> dict[str, dict]:
    """Operators of several summaries keyed by ``op_key``; times, rows and
    blocks add up, peak heap is the largest.

    A summary repeats the operators of the materialized datasets its
    execution read from, so an operator whose name and figures are
    identical to one already seen is the same execution and counts once.
    """
    out: dict[str, dict] = {}
    seen: set[str] = set()
    for text in summaries:
        for op in parse(text):
            if op["text"] in seen:
                continue
            seen.add(op["text"])
            key = op_key(op["name"])
            acc = out.setdefault(key, _empty(key) | {"names": []})
            for f in FIELDS:
                acc[f] += op[f]
            acc["peak_heap_mb"] = max(acc["peak_heap_mb"], op["peak_heap_mb"])
            if op["name"] not in acc["names"]:
                acc["names"].append(op["name"])
    return out
