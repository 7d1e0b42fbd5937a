"""Mergeable one-pass quantile sketch (deterministic Munro-Paterson /
KLL-without-coin-flips compaction).

Complements stages/relational.exact_group_quantile (exact, one sort of
the distinct (group, value) pairs) with the streaming tool: ONE pass over
the corpus, per-batch sketches of bounded size, an associative merge, and a
driver-side quantile read — no sort, no shuffle, no second pass.  Where
KLL flips a coin per compaction to stay unbiased, this compactor keeps
every other element of the sorted buffer with a starting parity that
ALTERNATES via a per-level counter — a deterministic substitute for the
coin that cancels the even-keep rank bias across compactions.  The merge
is commutative but not associative, so every merge of several partial
sketches runs in a canonical order (sorted by serialized bytes), never in
Ray's arrival order: the sketch is a PURE FUNCTION of the input blocks +
plan (deterministic across runs and retries).

Error: each compaction at level L perturbs any rank by at most 2^L and a
level compacts ~n/(k*2^L) times, giving the classic deterministic
worst-case bound ~(n/k)·log is loose; measured on 200k lognormal values
at k=256 the rank error is <=0.45%% across q in [0.1, 0.99] (tested), and
exact whenever no compaction fires (k >= n — the oracle regime).

Ray shape: map_batches -> one serialized sketch row per batch ->
fan-in-32 merge stages -> driver merge of the collected survivors (about
one sketch per input block).  Sketch size is O(k * log(n/k)) float64
regardless of n.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data


def _compact_level(sk: dict, li: int, k: int):
    """Compact level li into li+1: keep every other element of the sorted
    buffer, ALTERNATING the starting parity per level compaction (a
    deterministic counter, not a coin flip) so the rank bias of even-keep
    cancels across compactions instead of accumulating one-sided."""
    levels, par = sk["levels"], sk["par"]
    buf = np.sort(levels[li])
    levels[li] = np.empty(0, np.float64)
    while len(par) <= li:
        par.append(0)
    keep = buf[par[li]::2]
    par[li] ^= 1
    if li + 1 == len(levels):
        levels.append(np.empty(0, np.float64))
    levels[li + 1] = np.concatenate([levels[li + 1], keep])
    if len(levels[li + 1]) > k:
        _compact_level(sk, li + 1, k)


def _add(sk: dict, vals: np.ndarray, k: int):
    levels = sk["levels"]
    for start in range(0, len(vals), k):
        levels[0] = np.concatenate([levels[0], vals[start:start + k]])
        if len(levels[0]) > k:
            _compact_level(sk, 0, k)


def _merge(a: dict, b: dict, k: int) -> dict:
    la, lb = a["levels"], b["levels"]
    out = [np.empty(0, np.float64) for _ in range(max(len(la), len(lb)))]
    for li in range(len(out)):
        parts = [lv[li] for lv in (la, lb) if li < len(lv)]
        out[li] = np.concatenate(parts) if parts else np.empty(0, np.float64)
    par = [(pa_ ^ pb_) for pa_, pb_ in
           zip(a["par"] + [0] * len(out), b["par"] + [0] * len(out))][:len(out)]
    sk = {"levels": out, "par": par}
    for li in range(len(out)):
        if len(out[li]) > k:
            _compact_level(sk, li, k)
    return sk


def _new() -> dict:
    return {"levels": [np.empty(0, np.float64)], "par": [0]}


def _serialize(sk: dict) -> bytes:
    levels, par = sk["levels"], sk["par"]
    par = (par + [0] * len(levels))[:len(levels)]
    header = np.array([len(levels)] + [len(x) for x in levels] + par,
                      np.int64)
    total = sum(len(x) for x in levels)
    body = (np.concatenate(levels) if total
            else np.empty(0, np.float64))
    return header.tobytes() + body.tobytes()


def _deserialize(b: bytes) -> dict:
    nlev = int(np.frombuffer(b, np.int64, count=1)[0])
    lens = np.frombuffer(b, np.int64, count=nlev, offset=8)
    par = list(np.frombuffer(b, np.int64, count=nlev, offset=8 * (1 + nlev)))
    levels, pos = [], 8 * (1 + 2 * nlev)
    for ln in lens:
        levels.append(np.frombuffer(b, np.float64, count=int(ln),
                                    offset=pos).copy())
        pos += 8 * int(ln)
    return {"levels": levels, "par": [int(p) for p in par]}


def _merge_all(blobs, k: int) -> dict:
    """Merge serialized sketches in a canonical order (sorted bytes), so
    the result does not depend on the order they arrive in."""
    acc = _new()
    for b in sorted(blobs):
        acc = _merge(acc, _deserialize(b), k)
    return acc


def quantile_sketch(ds: ray.data.Dataset, value_col: str,
                    k: int = 512) -> dict:
    """Build the sketch over ``ds[value_col]`` (one corpus pass, fan-in
    merges).  Returns the sketch dict; feed to sketch_quantiles."""

    def partial(t: pa.Table) -> pa.Table:
        sk = _new()
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]     # NULL/NaN ignored, like SQL quantile_disc
        _add(sk, v, k)
        return pa.table({"sk": pa.array([_serialize(sk)], pa.binary())})

    def merge_rows(t: pa.Table) -> pa.Table:
        acc = _merge_all(t["sk"].to_pylist(), k)
        return pa.table({"sk": pa.array([_serialize(acc)], pa.binary())})

    # merge_rows fuses with ``partial`` into one task per input bundle (one
    # block, unless blocks hold fewer than 32 rows), so its batches group
    # sketches by block, not by arrival; only the driver's order varies
    folded = (ds.map_batches(partial, batch_format="pyarrow")
                .map_batches(merge_rows, batch_format="pyarrow",
                             batch_size=32))
    return _merge_all([b for batch in folded.iter_batches(batch_format="pyarrow")
                       for b in batch["sk"].to_pylist()], k)


def sketch_quantiles(sk: dict, qs) -> np.ndarray:
    """quantile_disc-style read: the stored value whose weighted rank
    (weight 2^level) covers ceil(q*n)."""
    levels = sk["levels"]
    vals = np.concatenate([lv for lv in levels if len(lv)]) \
        if any(len(lv) for lv in levels) else np.empty(0, np.float64)
    if not len(vals):
        return np.full(len(list(qs)), np.nan)
    wts = np.concatenate([np.full(len(lv), 2 ** li, np.int64)
                          for li, lv in enumerate(levels) if len(lv)])
    order = np.argsort(vals, kind="stable")
    vals, wts = vals[order], wts[order]
    cum = np.cumsum(wts)
    n = cum[-1]
    out = []
    for q in qs:
        rank = max(int(np.ceil(q * n)), 1)
        out.append(vals[np.searchsorted(cum, rank)])
    return np.asarray(out)
