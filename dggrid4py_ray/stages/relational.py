"""Distributed relational operators beyond Ray Data's built-ins.

* topk_per_group   — per-group top-k with deterministic tie-breaks: a
  per-batch partial top-k combiner (each group contributes <= k rows per
  batch to the shuffle) + a bounded final per-group selection.
* range_join_broadcast — point-in-interval join against a SMALL interval
  table: intervals are sorted once, broadcast via ray.put, and each batch
  resolves membership with np.searchsorted — no shuffle at all (the
  standard broadcast side of an as-of/range join; a large-large range join
  would cogroup on a coarse time bucket instead, same shape as
  join.spatial_join_via_cells).
* exact_group_quantile — EXACT per-group quantile (quantile_disc: rank
  max(ceil(q*n), 1) on the sorted group; optionally weighted) at any
  group cardinality: one sort of the distinct (group, value, count)
  table, an O(#blocks) driver carry of per-group prefixes and edge-group
  totals, and one per-block pick.  ``exact_group_quantile_cont``
  (quantile_cont) runs the same plan once and interpolates between the
  two bracketing ranks.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from .join import join_safe


def topk_per_group(ds: ray.data.Dataset, group_col: str, value_col: str,
                   k: int = 3, id_col: str | None = None,
                   descending: bool = True) -> ray.data.Dataset:
    """Top-k rows per group by ``value_col`` (ties broken by ``id_col``
    ascending).  Output: (group, id, value, rank 1..k)."""
    asc_value = not descending

    def partial(t: pa.Table) -> pa.Table:
        cols = {group_col: t[group_col].to_numpy(zero_copy_only=False),
                value_col: t[value_col].to_numpy(zero_copy_only=False)}
        if id_col:
            cols[id_col] = t[id_col].to_numpy(zero_copy_only=False)
        df = pd.DataFrame(cols)
        by = [value_col] + ([id_col] if id_col else [])
        df = df.sort_values(by, ascending=[asc_value] + [True] * (id_col is not None))
        out = df.groupby(group_col, sort=False).head(k)
        return pa.Table.from_pandas(out, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        by = [value_col] + ([id_col] if id_col else [])
        g = g.sort_values(by, ascending=[asc_value] + [True] * (id_col is not None))
        g = g.head(k).reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return (ds.map_batches(partial, batch_format="pyarrow")
              .groupby(group_col).map_groups(final, batch_format="pandas"))


def range_join_broadcast(ds: ray.data.Dataset, intervals,
                         point_col: str, out_col: str = "interval_id",
                         keep_unmatched: bool = False) -> ray.data.Dataset:
    """Join point rows to the (first matching) interval of a small
    ``intervals`` table: list of (id, lo, hi) with half-open [lo, hi).
    Intervals must be non-overlapping (sorted + searchsorted membership);
    unmatched rows get -1 (dropped unless keep_unmatched)."""
    iv = sorted(intervals, key=lambda x: x[1])
    ids = np.array([int(x[0]) for x in iv], dtype=np.int64)
    lo = np.array([x[1] for x in iv])
    hi = np.array([x[2] for x in iv])
    if (lo[1:] < hi[:-1]).any():
        raise ValueError("intervals overlap")
    ref = ray.put((ids, lo, hi))

    class Assign:
        def __init__(self):
            self.ids, self.lo, self.hi = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            p = t[point_col].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self.lo, p, side="right") - 1
            pos = np.clip(pos, 0, len(self.lo) - 1)
            inside = (p >= self.lo[pos]) & (p < self.hi[pos])
            out = np.where(inside, self.ids[pos], -1)
            res = t.append_column(out_col, pa.array(out, type=pa.int64()))
            if not keep_unmatched:
                res = res.filter(pa.array(inside))
            return res

    return ds.map_batches(Assign, batch_format="pyarrow", concurrency=(1, 4))


def range_join_via_buckets(points: ray.data.Dataset, intervals: ray.data.Dataset,
                           point_col: str, id_col: str = "interval_id",
                           lo_col: str = "lo", hi_col: str = "hi",
                           bucket_width: float | None = None,
                           num_partitions: int | None = None) -> ray.data.Dataset:
    """LARGE-LARGE point-in-interval join (VERDICT r3 #5): emits every
    (point row, interval) pair with ``lo <= point < hi`` — intervals MAY
    overlap (all matches are produced, unlike range_join_broadcast's
    first-match over a small non-overlapping set).

    Ray shape — the spatial_join_via_cells pattern on a 1-D key:

    1. both sides get a coarse bucket key ``floor(v / w)``; intervals are
       REPLICATED to every bucket they overlap (replication factor
       ~ span/w + 1, so w defaults to the mean interval span — one cheap
       narrow aggregate — keeping it ~2);
    2. ONE distributed hash join on the bucket key co-locates each point
       with exactly the intervals that can match it;
    3. the exact inequality filters locally.  Each (point, interval) match
       meets exactly once because a point owns exactly one bucket — no
       dedup pass.

    Skew note: a bucket holding p points and i intervals produces p*i
    joined rows before the filter; pathological concentrations (every
    interval covering one hot value) degrade to that product — pick
    ``bucket_width`` below the hot-spot span, or pre-split fat intervals,
    in such corpora."""
    from .dedup import _join_partitions
    from ray.data.aggregate import Mean

    if bucket_width is None:
        stats = intervals.map_batches(
            lambda t: pa.table({"_span": pa.array(
                np.asarray(t[hi_col].to_numpy(zero_copy_only=False), dtype=np.float64)
                - np.asarray(t[lo_col].to_numpy(zero_copy_only=False), dtype=np.float64))}),
            batch_format="pyarrow").aggregate(Mean("_span", alias_name="w"))
        mean_w = stats.get("w")
        # empty interval set: Mean yields None (or NaN, which is truthy —
        # `or 1.0` would NOT rescue it); any positive width works
        bucket_width = (float(mean_w)
                        if mean_w is not None and np.isfinite(float(mean_w))
                        and float(mean_w) > 0 else 1.0)
    w = float(bucket_width)

    def point_bucket(t: pa.Table) -> pa.Table:
        v = np.asarray(t[point_col].to_numpy(zero_copy_only=False), dtype=np.float64)
        return t.append_column("_rb", pa.array(
            np.floor(v / w).astype(np.int64)))

    def interval_buckets(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:     # np.repeat broadcasts fail on empty counts
            return (t.select([id_col, lo_col, hi_col])
                     .append_column("_rb", pa.array([], pa.int64())))
        lo = np.asarray(t[lo_col].to_numpy(zero_copy_only=False), dtype=np.float64)
        hi = np.asarray(t[hi_col].to_numpy(zero_copy_only=False), dtype=np.float64)
        b0 = np.floor(lo / w).astype(np.int64)
        b1 = np.floor(hi / w).astype(np.int64)   # hi bucket kept even when
        counts = b1 - b0 + 1                     # hi % w == 0: false-positive
        idx = np.repeat(np.arange(t.num_rows), counts)  # bucket, filtered below
        buckets = b0[idx] + (np.arange(len(idx))
                             - np.repeat(np.concatenate([[0], np.cumsum(counts)[:-1]]),
                                         counts))
        rep = t.select([id_col, lo_col, hi_col]).take(pa.array(idx, type=pa.int64()))
        return rep.append_column("_rb", pa.array(buckets))

    pts = points.map_batches(point_bucket, batch_format="pyarrow")
    ivs = intervals.map_batches(interval_buckets, batch_format="pyarrow")
    joined = join_safe(pts, ivs, join_type="inner",
                      num_partitions=num_partitions or _join_partitions(),
                      on=("_rb",))

    def exact(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.drop_columns([lo_col, hi_col, "_rb"])
        v = np.asarray(t[point_col].to_numpy(zero_copy_only=False), dtype=np.float64)
        lo = np.asarray(t[lo_col].to_numpy(zero_copy_only=False), dtype=np.float64)
        hi = np.asarray(t[hi_col].to_numpy(zero_copy_only=False), dtype=np.float64)
        return t.filter(pa.array((v >= lo) & (v < hi))) \
            .drop_columns([lo_col, hi_col, "_rb"])

    return joined.map_batches(exact, batch_format="pyarrow")


def interval_overlap_join(left: ray.data.Dataset, right: ray.data.Dataset,
                          l_start: str = "ls", l_end: str = "le",
                          r_start: str = "rs", r_end: str = "re",
                          bucket_width: int | None = None,
                          num_partitions: int | None = None
                          ) -> ray.data.Dataset:
    """LARGE-LARGE interval x interval OVERLAP join: every (left, right)
    row pair with ``l_start <= r_end AND r_start <= l_end`` (closed
    intervals, int64 domain — e.g. epoch microseconds).

    Both sides replicate to every coarse bucket their span touches
    (replication ~ span/w + 1 per row, w defaulting to the larger mean
    span so it stays ~2); ONE hash join on the bucket key; the exact
    predicate filters locally.  Each matching pair is emitted EXACTLY
    once — in the bucket containing the overlap start
    ``max(l_start, r_start)``, which both copies share — so no pair-dedup
    aggregate exists anywhere (the minhash first-matching-band trick on
    a 1-D key).  Output: all left columns + all right columns.

    Skew: a bucket with p left and q right spans inspects p*q candidate
    pairs; fat spans should be pre-split or w lowered, as in
    ``range_join_via_buckets``."""
    from ray.data.aggregate import Mean

    from .dedup import _join_partitions

    def _mean_span(ds_, lo, hi):
        st = ds_.map_batches(
            lambda t: pa.table({"_span": pa.array(
                t[hi].to_numpy(zero_copy_only=False).astype(np.float64)
                - t[lo].to_numpy(zero_copy_only=False).astype(np.float64))}),
            batch_format="pyarrow").aggregate(Mean("_span", alias_name="w"))
        v = st.get("w")
        return float(v) if v is not None and np.isfinite(float(v)) else 0.0

    if bucket_width is None:
        bucket_width = max(_mean_span(left, l_start, l_end),
                           _mean_span(right, r_start, r_end), 1.0)
    w = int(max(1, bucket_width))

    def _replicate(lo_col: str, hi_col: str):
        def rep(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t.append_column("_ob", pa.array([], pa.int64()))
            lo = t[lo_col].to_numpy(zero_copy_only=False).astype(np.int64)
            hi = t[hi_col].to_numpy(zero_copy_only=False).astype(np.int64)
            b0, b1 = lo // w, hi // w
            counts = b1 - b0 + 1
            idx = np.repeat(np.arange(t.num_rows), counts)
            buckets = b0[idx] + (np.arange(len(idx)) - np.repeat(
                np.concatenate([[0], np.cumsum(counts)[:-1]]), counts))
            return (t.take(pa.array(idx, type=pa.int64()))
                     .append_column("_ob", pa.array(buckets)))
        return rep

    lrep = left.map_batches(_replicate(l_start, l_end),
                            batch_format="pyarrow")
    rrep = right.map_batches(_replicate(r_start, r_end),
                             batch_format="pyarrow")
    joined = join_safe(lrep, rrep, join_type="inner",
                       num_partitions=num_partitions or _join_partitions(),
                       on=("_ob",))

    def exact(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.drop_columns(["_ob"])
        ls = t[l_start].to_numpy(zero_copy_only=False).astype(np.int64)
        le = t[l_end].to_numpy(zero_copy_only=False).astype(np.int64)
        rs = t[r_start].to_numpy(zero_copy_only=False).astype(np.int64)
        re_ = t[r_end].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["_ob"].to_numpy(zero_copy_only=False)
        keep = (ls <= re_) & (rs <= le) & (np.maximum(ls, rs) // w == b)
        return t.filter(pa.array(keep)).drop_columns(["_ob"])

    return joined.map_batches(exact, batch_format="pyarrow")


def _quantile_plan(ds: ray.data.Dataset, group_col: str, value_col: str,
                   weight_col: str | None, pick) -> ray.data.Dataset:
    """The one exact per-group quantile plan, shared by the disc, cont and
    weighted quantiles.

    1. The DISTINCT (group, value, count) table: one ``grouped_count``
       (or, with ``weight_col``, a ``grouped_reduce`` weight sum).  Its
       blocks come out range-sorted and hold each (group, value) once.
    2. One summary row per block (first key, first/last group, their
       count sums); the driver walks the summaries in key order and works
       out each block's carried prefix and the total ``n`` of the groups
       at its two edges — O(#blocks) state, nothing per group.
    3. One map over the same blocks: each row's running count within its
       group, plus the carry, and its group's ``n``; ``pick(t, run, c,
       n)`` turns them into output rows.

    Exact for any group cardinality and any group size: a group may span
    any number of blocks."""
    from .groupagg import grouped_count, grouped_reduce
    from .window import _first_key

    keys = [group_col, value_col]
    if weight_col is None:
        dist = grouped_count(ds.select_columns(keys), keys, out_col="_c")
    else:
        dist = grouped_reduce(ds.select_columns(keys + [weight_col]), keys,
                              {weight_col: "_c"}, how="sum")
    dist = dist.materialize()      # read twice: summaries, then the pick

    def summarize(t: pa.Table) -> pa.Table:
        edge = {"k0": t[group_col].slice(0, min(1, t.num_rows)),
                "k1": t[value_col].slice(0, min(1, t.num_rows)),
                "g_last": t[group_col].slice(max(t.num_rows - 1, 0), 1)}
        if t.num_rows == 0:
            return pa.table({**edge, "key": pa.array([], pa.string()),
                             "s_first": pa.array([], pa.float64()),
                             "s_last": pa.array([], pa.float64())})
        g = t[group_col].to_numpy(zero_copy_only=False)
        c = t["_c"].to_numpy(zero_copy_only=False).astype(np.float64)
        cuts = np.flatnonzero(g[1:] != g[:-1]) + 1
        first_end = cuts[0] if len(cuts) else len(g)
        last_start = cuts[-1] if len(cuts) else 0
        return pa.table({**edge, "key": [repr(_first_key(t, keys))],
                         "s_first": [float(c[:first_end].sum())],
                         "s_last": [float(c[last_start:].sum())]})

    summ = dist.map_batches(summarize, batch_format="pyarrow",
                            batch_size=None).to_pandas()
    plans = {}
    if len(summ):        # an empty input sorts to ZERO blocks: no columns
        summ = summ.sort_values(["k0", "k1"], ignore_index=True)
        # carry: the running count of the group open at the previous
        # block's end; totals: the n of every group at a block edge
        carry_g, carry, prefix, totals = None, 0.0, [], {}
        for g0, g1, s0, s1 in zip(summ["k0"], summ["g_last"],
                                  summ["s_first"], summ["s_last"]):
            pre = carry if g0 == carry_g else 0.0
            prefix.append(pre)
            totals[g0] = pre + s0
            if g1 != g0:
                totals[g1] = s1
            carry_g, carry = g1, totals[g1]
        for key, g0, g1, pre in zip(summ["key"], summ["k0"], summ["g_last"],
                                    prefix):
            plans[key] = (pre, totals[g0], totals[g1])
    plan_ref = ray.put(plans)

    def local_pick(t: pa.Table) -> pa.Table:
        c = t["_c"].to_numpy(zero_copy_only=False).astype(np.float64)
        if t.num_rows == 0:
            return pick(t, c, c, c)
        pre, n_first, n_last = ray.get(plan_ref)[repr(_first_key(t, keys))]
        g = t[group_col].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        lens = np.diff(np.append(starts, len(g)))
        csum = np.cumsum(c)
        run = csum - np.repeat(csum[starts] - c[starts], lens)
        run[:lens[0]] += pre
        n = np.repeat(np.add.reduceat(c, starts), lens)
        n[:lens[0]] = n_first
        n[len(g) - lens[-1]:] = n_last
        return pick(t, run, c, n)

    return dist.map_batches(local_pick, batch_format="pyarrow",
                            batch_size=None)


def exact_group_quantile(ds: ray.data.Dataset, group_col: str, value_col: str,
                         q: float = 0.5, out_col: str = "quantile",
                         weight_col: str | None = None) -> ray.data.Dataset:
    """Exact per-group quantile_disc(q): the value at 1-based rank
    ``max(ceil(q*n), 1)`` of the sorted group.  Returns a lazy Dataset of
    (group_col, out_col float64), one row per group.

    ``weight_col`` (integer weights > 0) switches to the WEIGHTED
    quantile: the smallest value whose cumulative weight (in value order)
    reaches ceil(q * total_weight) — e.g. the quantity-weighted median
    price.  Weight sums replace the row counts; the pick law is the same.

    One sort of the distinct (group, value) table plus an O(#blocks)
    driver carry (``_quantile_plan``); no join, no hash aggregate, no
    per-group driver state, so the group count scales with the data."""
    def pick(t, run, c, n):
        rank = np.maximum(np.ceil(q * n), 1.0)
        kept = t.filter(pa.array((run - c < rank) & (rank <= run)))
        return pa.table({group_col: kept[group_col],
                         out_col: pa.compute.cast(kept[value_col],
                                                  pa.float64())})

    return _quantile_plan(ds, group_col, value_col, weight_col, pick)


def exact_group_quantile_cont(ds: ray.data.Dataset, group_col: str,
                              value_col: str, q: float = 0.5,
                              out_col: str = "quantile") -> ray.data.Dataset:
    """Exact per-group interpolated quantile (SQL ``quantile_cont`` /
    numpy 'linear'): h = q*(n-1), result = v[floor h] + (h - floor h) *
    (v[ceil h] - v[floor h]) over the sorted group (0-based).

    One run of the ``exact_group_quantile`` plan picks the rows at both
    bracketing ranks.  They can sit in different blocks, so one
    ``grouped_reduce`` (min for the low rank, max for the high rank)
    combines the <= 2 picked rows per group before the interpolation."""
    from .groupagg import grouped_reduce

    def pick(t, run, c, n):
        h = q * (n - 1.0)
        lo, hi = np.floor(h) + 1.0, np.ceil(h) + 1.0   # 1-based ranks
        is_lo = (run - c < lo) & (lo <= run)
        is_hi = (run - c < hi) & (hi <= run)
        keep = is_lo | is_hi
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        # NaN marks "not this rank": the min/max reduce skips it
        return pa.table({group_col: t[group_col].filter(pa.array(keep)),
                         "_lo": np.where(is_lo, v, np.nan)[keep],
                         "_hi": np.where(is_hi, v, np.nan)[keep],
                         "_f": (h - np.floor(h))[keep]})

    picked = _quantile_plan(ds, group_col, value_col, None, pick)
    red = grouped_reduce(picked, group_col,
                         {"_lo": "_lo", "_hi": "_hi", "_f": "_f"},
                         how={"_lo": "min", "_hi": "max", "_f": "max"})

    def interpolate(t: pa.Table) -> pa.Table:
        lo = t["_lo"].to_numpy(zero_copy_only=False)
        hi = t["_hi"].to_numpy(zero_copy_only=False)
        f = t["_f"].to_numpy(zero_copy_only=False)
        return pa.table({group_col: t[group_col],
                         out_col: pa.array(lo + f * (hi - lo), pa.float64())})

    return red.map_batches(interpolate, batch_format="pyarrow")


def filter_not_in(ds, col: str, values, broadcast_threshold: int = 10000):
    """Broadcast anti-join filter (blocklist): drop rows whose ``col`` is
    in ``values``.  Small lists ship inside the task closure; larger sets
    go through ``ray.put`` so every task reads one object-store copy
    (zero-copy get per batch — no actor pool needed for a stateless
    filter).  The exact complement of the Bloom semi-join's keep side —
    use this when the blocklist fits memory, ``stages/bloom`` when it
    doesn't."""
    import pyarrow as _pa
    import pyarrow.compute as _pc
    import ray as _ray

    vals = list(values)
    ref = _ray.put(_pa.array(vals)) if len(vals) > broadcast_threshold \
        else None
    vset = None if ref is not None else _pa.array(vals)

    def drop(batch: _pa.Table) -> _pa.Table:
        vs = _ray.get(ref) if ref is not None else vset
        return batch.filter(_pc.invert(_pc.is_in(batch[col], value_set=vs)))

    return ds.map_batches(drop, batch_format="pyarrow")


def rollup_aggregate(ds: ray.data.Dataset, keys: list,
                     sum_cols: dict | None = None, count_col: str = "n",
                     sentinel: str = "ALL") -> ray.data.Dataset:
    """SQL ``GROUP BY ROLLUP(k1, k2, ...)`` in one streaming pass: every
    batch emits its partial aggregate for ALL prefix levels (k1..kL,
    k1..k(L-1), ..., ()) with rolled-up key columns set to ``sentinel``,
    then ONE bounded hash aggregate combines the partials.  The multi-level
    key space is the sum of the per-level cardinalities — use only for
    bounded dims (flags, languages, coarse cells); per-document keys belong
    in ``groupagg.grouped_reduce`` one level at a time.

    ``sum_cols`` maps input column -> output column (summed); ``count_col``
    is the per-level row count.  Matches
    ``GROUP BY ROLLUP(...)`` with ``COALESCE(k, sentinel)`` on the keys
    (exact when the key columns themselves contain no NULLs/sentinels).
    """
    from ray.data.aggregate import Sum

    keys = list(keys)
    sum_cols = dict(sum_cols or {})
    in_cols = list(sum_cols)

    def partial(t: pa.Table) -> pa.Table:
        cols = {k: t[k].to_numpy(zero_copy_only=False) for k in keys}
        for c in in_cols:
            cols[c] = t[c].to_numpy(zero_copy_only=False)
        df = pd.DataFrame(cols)
        outs = []
        for lvl in range(len(keys), -1, -1):
            grp = keys[:lvl]
            if grp:
                g = df.groupby(grp, sort=False).agg(
                    **{c: (c, "sum") for c in in_cols},
                    **{"_n": (keys[0], "size")}).reset_index()
            else:
                g = pd.DataFrame({**{c: [df[c].sum()] for c in in_cols},
                                  "_n": [len(df)]})
            for k in keys[lvl:]:
                g[k] = sentinel
            outs.append(g[keys + in_cols + ["_n"]])
        out = pd.concat(outs, ignore_index=True)
        return pa.Table.from_pandas(out, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(keys)
             .aggregate(*[Sum(c, alias_name=c) for c in in_cols],
                        Sum("_n", alias_name="_n")))

    def finish(t: pa.Table) -> pa.Table:
        cols = {k: t[k] for k in keys}
        for c in in_cols:
            cols[sum_cols[c]] = t[c]
        cols[count_col] = t["_n"].cast(pa.int64())
        return pa.table(cols)

    return agg.map_batches(finish, batch_format="pyarrow")


def grouping_sets_aggregate(ds: ray.data.Dataset, keys: list, sets: list,
                            sum_cols: dict | None = None,
                            count_col: str = "n",
                            sentinel: str = "ALL") -> ray.data.Dataset:
    """SQL ``GROUP BY GROUPING SETS (...)`` (and therefore CUBE — pass
    every subset) in the same one-streaming-pass shape as
    ``rollup_aggregate``: each batch emits its partial aggregate once per
    grouping set with the absent keys set to ``sentinel``, ONE bounded
    hash aggregate combines.  ``sets`` is a list of key-name tuples
    (subsets of ``keys``); the combined key space must stay bounded
    (sum of per-set cardinalities)."""
    from ray.data.aggregate import Sum

    keys = list(keys)
    sets = [tuple(s) for s in sets]
    for s in sets:
        if not set(s) <= set(keys):
            raise ValueError(f"grouping set {s} not a subset of {keys}")
    sum_cols = dict(sum_cols or {})
    in_cols = list(sum_cols)

    def partial(t: pa.Table) -> pa.Table:
        cols = {k: t[k].to_numpy(zero_copy_only=False) for k in keys}
        for c in in_cols:
            cols[c] = t[c].to_numpy(zero_copy_only=False)
        df = pd.DataFrame(cols)
        outs = []
        for s in sets:
            grp = [k for k in keys if k in s]
            if grp:
                g = df.groupby(grp, sort=False).agg(
                    **{c: (c, "sum") for c in in_cols},
                    **{"_n": (keys[0], "size")}).reset_index()
            else:
                g = pd.DataFrame({**{c: [df[c].sum()] for c in in_cols},
                                  "_n": [len(df)]})
            for k in keys:
                if k not in s:
                    g[k] = sentinel
            outs.append(g[keys + in_cols + ["_n"]])
        out = pd.concat(outs, ignore_index=True)
        return pa.Table.from_pandas(out, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(keys)
             .aggregate(*[Sum(c, alias_name=c) for c in in_cols],
                        Sum("_n", alias_name="_n")))

    def finish(t: pa.Table) -> pa.Table:
        cols = {k: t[k] for k in keys}
        for c in in_cols:
            cols[sum_cols[c]] = t[c]
        cols[count_col] = t["_n"].cast(pa.int64())
        return pa.table(cols)

    return agg.map_batches(finish, batch_format="pyarrow")


def cube_aggregate(ds: ray.data.Dataset, keys: list,
                   sum_cols: dict | None = None, count_col: str = "n",
                   sentinel: str = "ALL") -> ray.data.Dataset:
    """SQL ``GROUP BY CUBE(k1..kL)``: grouping_sets over ALL 2^L subsets."""
    from itertools import combinations

    keys = list(keys)
    sets = [c for r in range(len(keys) + 1)
            for c in combinations(keys, r)]
    return grouping_sets_aggregate(ds, keys, sets, sum_cols=sum_cols,
                                   count_col=count_col, sentinel=sentinel)


def grouped_approx_quantile(ds: ray.data.Dataset, group_col: str,
                            value_col: str, id_col: str, q: float = 0.5,
                            k: int = 64,
                            out_col: str = "approx_quantile") -> ray.data.Dataset:
    """APPROXIMATE per-group quantile at unbounded group cardinality via
    deterministic bottom-k hash sampling: each group keeps the k rows
    whose md5(id) hashes are smallest (a uniform, merge-friendly sample —
    min-k is an order statistic, so per-batch partial top-k combines
    exactly), then takes quantile_disc over the sample.  Error is the
    binomial rank error O(1/sqrt(k)); the sample — and therefore the
    answer — is a pure function of the data (stable across runs,
    partitioning and cluster size, and reproducible in SQL with
    md5_number_upper + ROW_NUMBER, which is what makes it oracle-exact).

    vs the exact path ``exact_group_quantile`` (a sort of every distinct
    (group, value) pair) — this one shuffles only k rows per group per
    batch before that same plan runs over the sample, so it is the
    cheaper choice when approximate rank is acceptable."""
    from .sampling import _md5_u64

    def hashed(t: pa.Table) -> pa.Table:
        h = _md5_u64(t[id_col].to_numpy(zero_copy_only=False))
        return pa.table({group_col: t[group_col],
                         value_col: t[value_col],
                         "_h": pa.array(h.view(np.int64))})

    # bottom-k by unsigned hash: flip sign bit so int64 order == uint64
    def flip(t: pa.Table) -> pa.Table:
        h = t["_h"].to_numpy(zero_copy_only=False).view(np.uint64)
        key = (h ^ np.uint64(1 << 63)).view(np.int64)
        return pa.table({group_col: t[group_col],
                         value_col: t[value_col],
                         "_key": pa.array(key)})

    sampled = topk_per_group(
        ds.map_batches(hashed, batch_format="pyarrow")
          .map_batches(flip, batch_format="pyarrow"),
        group_col, "_key", k=k, id_col=value_col, descending=False)

    # exact quantile_disc over the k-row-per-group sample
    return exact_group_quantile(
        sampled.select_columns([group_col, value_col]),
        group_col, value_col, q=q, out_col=out_col)


def salted_hash_join(left: ray.data.Dataset, right: ray.data.Dataset,
                     on: str, hot_keys, n_salt: int = 16,
                     num_partitions: int | None = None) -> ray.data.Dataset:
    """Skew-defeating inner hash join: rows of ``right`` whose key is in
    ``hot_keys`` are REPLICATED across ``n_salt`` salt buckets, and hot
    ``left`` rows pick one bucket by a hash of their row — so a
    celebrity key's probe rows spread over ``n_salt`` partitions instead
    of melting one reducer, while cold keys join exactly as before
    (salt 0 on both sides).  Join output is identical to the unsalted
    join (property-tested).

    ``hot_keys`` is the SMALL set of known-hot keys (find them with
    ``sampling.heavy_hitters``); it broadcasts in the task closures.
    Cost: |hot right rows| x n_salt replication — size n_salt to the
    observed skew, not higher."""
    import ray

    from .join import _join_partitions

    parts = num_partitions or _join_partitions()
    hot = np.sort(np.asarray(list(hot_keys), dtype=np.int64))
    href = ray.put(hot)

    def _is_hot(v: np.ndarray, hot_arr: np.ndarray) -> np.ndarray:
        if len(hot_arr) == 0:
            return np.zeros(len(v), dtype=bool)
        i = np.clip(np.searchsorted(hot_arr, v), 0, len(hot_arr) - 1)
        return hot_arr[i] == v

    def salt_left(t: pa.Table) -> pa.Table:
        v = t[on].to_numpy(zero_copy_only=False).astype(np.int64)
        ih = _is_hot(v, ray.get(href))
        # deterministic per-row spread: mix the row's position-free
        # content (key + a cheap value hash of the key col only would
        # collapse — use an arange over the batch, fine for spreading)
        salt = np.where(ih, np.arange(len(v), dtype=np.int64) % n_salt, 0)
        return t.append_column("_salt", pa.array(salt))

    def salt_right(t: pa.Table) -> pa.Table:
        v = t[on].to_numpy(zero_copy_only=False).astype(np.int64)
        ih = _is_hot(v, ray.get(href))
        idx_cold = np.flatnonzero(~ih)
        idx_hot = np.flatnonzero(ih)
        rep = np.concatenate([idx_cold,
                              np.repeat(idx_hot, n_salt)]).astype(np.int64)
        salts = np.concatenate([
            np.zeros(len(idx_cold), dtype=np.int64),
            np.tile(np.arange(n_salt, dtype=np.int64), len(idx_hot))])
        out = t.take(pa.array(rep))
        return out.append_column("_salt", pa.array(salts))

    lj = left.map_batches(salt_left, batch_format="pyarrow")
    rj = right.map_batches(salt_right, batch_format="pyarrow")
    j = join_safe(lj, rj, join_type="inner", num_partitions=parts,
                on=(on, "_salt"))
    return j.map_batches(lambda t: t.drop_columns(["_salt"]),
                         batch_format="pyarrow")


def pivot_counts(ds: ray.data.Dataset, key, cat_col: str,
                 categories: list, value_col: str | None = None,
                 prefix: str = "n_") -> ray.data.Dataset:
    """Crosstab / PIVOT: one output row per ``key`` with one column per
    category — counts (``value_col=None``) or value sums.  Categories must
    be a bounded KNOWN set (the SQL-PIVOT contract); rows with other
    category values are ignored.

    Scale shape: a pure map widens each batch to per-category indicator
    columns, then ONE grouped_reduce sums them — unbounded key
    cardinality, no per-group Python, no join, width = len(categories)."""
    from .groupagg import grouped_reduce

    keys = [key] if isinstance(key, str) else list(key)
    cats = list(categories)
    cat_pa = pa.array(cats)          # natural type (string, int, ...)
    cols = [f"{prefix}{c}" for c in cats]

    def widen(t: pa.Table) -> pa.Table:
        idx = pa.compute.index_in(
            t[cat_col].combine_chunks()
            if isinstance(t[cat_col], pa.ChunkedArray) else t[cat_col],
            value_set=cat_pa)
        code = idx.to_numpy(zero_copy_only=False)
        code = np.where(np.isnan(code.astype(np.float64)), -1,
                        code).astype(np.int64) if code.dtype.kind == "f" \
            else code.astype(np.int64)
        keep = code >= 0
        if not keep.all():
            # rows with out-of-set categories are ignored (the SQL-PIVOT
            # contract): a key whose rows are ALL out-of-set must not
            # surface as an all-zero row
            t = t.filter(pa.array(keep))
            code = code[keep]
        out = {k: t[k] for k in keys}
        if value_col is None:
            v = np.ones(t.num_rows, np.int64)
        else:
            v = t[value_col].to_numpy(zero_copy_only=False)
        for j, c in enumerate(cols):
            out[c] = pa.array(np.where(code == j, v, 0))
        return pa.table(out)

    return grouped_reduce(ds.map_batches(widen, batch_format="pyarrow"),
                          key, {c: c for c in cols}, how="sum")


def paginate(ds: ray.data.Dataset, order_cols: list, offset: int,
             limit: int, descending=None) -> ray.data.Dataset:
    """Distributed ``ORDER BY ... LIMIT limit OFFSET offset``: one range
    sort, per-block row counts keyed by the block's first order tuple
    (answer-sized summaries), a driver exclusive prefix over the ordered
    summaries, then a local global-rank slice — rows outside the page
    never reach the driver, so deep pagination costs the same one sort
    regardless of offset.  Requires the order tuple to be UNIQUE per row
    (include a tiebreaker column, as SQL pagination must anyway to be
    deterministic); raises if a duplicate tuple spans a block boundary."""
    descending = descending or [False] * len(order_cols)
    srt = ds.sort(order_cols, descending=descending).materialize()

    def block_meta(t: pa.Table) -> pa.Table:
        cols = {f"_k{i}": t[c].slice(0, min(1, t.num_rows))
                for i, c in enumerate(order_cols)}
        cols["_cnt"] = pa.array([] if t.num_rows == 0 else [t.num_rows],
                                pa.int64())
        return pa.table(cols)

    metas = srt.map_batches(block_meta, batch_format="pyarrow").take_all()
    metas = [m for m in metas if m["_cnt"] > 0]

    def sort_key(m):
        out = []
        for i, desc in enumerate(descending):
            v = m[f"_k{i}"]
            out.append(_NegOrder(v) if desc else v)
        return tuple(out)

    metas.sort(key=sort_key)
    firsts = [tuple(m[f"_k{i}"] for i in range(len(order_cols)))
              for m in metas]
    if len(set(firsts)) != len(firsts):
        raise ValueError("paginate requires a unique order tuple "
                         "(duplicate first rows across blocks)")
    starts = {}
    acc = 0
    for m, f in zip(metas, firsts):
        starts[f] = acc
        acc += m["_cnt"]

    lo, hi = offset, offset + limit

    def slice_page(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        f = tuple(t[c][0].as_py() for c in order_cols)
        start = starts[f]
        if start >= hi or start + t.num_rows <= lo:
            return t.slice(0, 0)
        return t.slice(max(0, lo - start),
                       min(hi, start + t.num_rows) - max(lo, start))

    return srt.map_batches(slice_page, batch_format="pyarrow")


class _NegOrder:
    """Reverses comparison order for driver-side mixed asc/desc sorting
    of block summaries (numbers, strings, any comparable)."""

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        return other.v < self.v

    def __eq__(self, other):
        return self.v == other.v


def value_histogram(ds: "ray.data.Dataset", col: str, lo: int, hi: int,
                    n_buckets: int,
                    agg_cols: dict | None = None) -> "ray.data.Dataset":
    """Equi-width histogram over an INTEGER-scaled column (the SQL
    width_bucket law, stated explicitly so the oracle can reproduce it
    bit-exactly without a width_bucket builtin):

        bucket = 0                                   if v <  lo
               = n_buckets + 1                       if v >= hi
               = (v - lo) * n_buckets // (hi - lo) + 1 otherwise

    All-integer arithmetic — no float boundary ulps.  One narrow pass
    (per-block vectorized digitize + partial counts/sums, ≤ n_buckets+2
    rows per block) folded by an answer-sized aggregate.  ``agg_cols``
    ({input_col: output_col}) optionally sums extra int64 columns per
    bucket alongside the count.

    NULL rows are EXCLUDED (the SQL twin is ``WHERE col IS NOT NULL``) —
    a NaN→int64 cast is undefined and would silently land nulls in the
    underflow bucket.
    """
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Sum

    agg_cols = agg_cols or {}
    span = hi - lo

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows:
            t = t.filter(pc.is_valid(t[col]))
        if t.num_rows == 0:
            cols = {"bucket": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64())}
            for _, oc in agg_cols.items():
                cols[oc] = pa.array([], pa.int64())
            return pa.table(cols)
        v = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = (v - lo) * n_buckets // span + 1
        b[v < lo] = 0
        b[v >= hi] = n_buckets + 1
        import pandas as pd
        df = pd.DataFrame({"bucket": b})
        for ic in agg_cols:
            df[ic] = t[ic].to_numpy(zero_copy_only=False).astype(np.int64)
        g = df.groupby("bucket", sort=True)
        out = g.size().rename("n").reset_index()
        for ic, oc in agg_cols.items():
            out[oc] = g[ic].sum().to_numpy()
        return pa.Table.from_pandas(out, preserve_index=False)

    aggs = [Sum("n", alias_name="n")]
    for _, oc in agg_cols.items():
        aggs.append(Sum(oc, alias_name=oc))
    return (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("bucket").aggregate(*aggs))


def grouped_mode(ds: "ray.data.Dataset", group_col: str, value_col: str,
                 out_col: str = "mode", n_col: str = "n"
                 ) -> "ray.data.Dataset":
    """Most frequent ``value_col`` per group, ties broken by the
    lexicographically SMALLEST value (SQL: ``QUALIFY ROW_NUMBER() OVER
    (PARTITION BY g ORDER BY COUNT(*) DESC, v) = 1``).

    Scale shape for a BOUNDED value domain (event types, languages,
    status codes — the common mode targets): per-(group, value) counts
    via ``grouped_count`` (sort-based, unbounded group cardinality), the
    small distinct-value list collected once and broadcast as a rank
    table, then the whole argmax is ONE packed-int64 ``grouped_reduce``
    max — maximize (count, -value_rank) packed as count * R + (R-1-rank).
    No per-group Python, no window shuffle.  Raises if the value domain
    exceeds ``2**20`` distinct values (use a sort-based top-1 instead).
    """
    from .groupagg import grouped_count, grouped_reduce

    cnts = grouped_count(ds.select_columns([group_col, value_col]),
                         [group_col, value_col], out_col="_c").materialize()

    # distinct value domain from the (group, value) count table — already
    # distinct-pair-sized, so this sort never re-touches the corpus
    vals_pd = grouped_count(cnts.select_columns([value_col]), value_col) \
        .to_pandas()  # bounded-domain contract: answer-sized
    vals = sorted(vals_pd[value_col].tolist())
    if len(vals) > 1 << 20:
        raise ValueError("grouped_mode: value domain too large "
                         f"({len(vals)}); bounded-domain operator")
    r = max(1, len(vals))
    rank = {v: i for i, v in enumerate(vals)}
    rank_ref = ray.put(rank)

    def pack(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({group_col: t[group_col],
                             "_p": pa.array([], pa.int64())})
        rk = ray.get(rank_ref)
        c = t["_c"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t[value_col].to_numpy(zero_copy_only=False)
        ranks = np.fromiter((rk[x] for x in v), np.int64, len(v))
        return pa.table({group_col: t[group_col],
                         "_p": pa.array(c * r + (r - 1 - ranks))})

    red = grouped_reduce(cnts.map_batches(pack, batch_format="pyarrow"),
                         group_col, {"_p": "_p"}, how="max")
    inv_ref = ray.put(np.array(vals))

    def unpack(t: pa.Table) -> pa.Table:
        inv = ray.get(inv_ref)
        if t.num_rows == 0:
            # typed empty mode column (inv's dtype, NOT hardcoded string)
            return pa.table({group_col: t[group_col],
                             out_col: pa.array(inv[:0]),
                             n_col: pa.array([], pa.int64())})
        p = t["_p"].to_numpy(zero_copy_only=False)
        return pa.table({group_col: t[group_col],
                         out_col: pa.array(inv[r - 1 - p % r]),
                         n_col: pa.array(p // r, pa.int64())})

    return red.map_batches(unpack, batch_format="pyarrow")


def merge_changes(base: "ray.data.Dataset", changes: "ray.data.Dataset",
                  key_col: str, op_col: str = "op", seq_col: str = "seq",
                  payload_cols: list | None = None) -> "ray.data.Dataset":
    """CDC apply / MERGE-upsert: fold a change stream into a base table.
    Per key the LATEST change wins (max ``seq_col``; (key, seq) must be
    unique): op 'D' deletes the key, 'I'/'U' upserts the change row's
    payload; base keys never touched by a change pass through untouched.
    The batch-apply primitive of an incrementally-maintained table.

    Ray shape (no change-key ever meets the base except through the
    bloom anti-join; the base never sorts or shuffles):

    1. winner seq per key: ONE ``grouped_reduce`` max over (key, seq) —
       unbounded key cardinality;
    2. winning rows: one answer-sized hash join changes x winners on
       (key, seq) — only the change table (<< base, by CDC contract)
       moves;
    3. survivors: ``bloom_anti_join(base, change_keys)`` — the base
       streams through a broadcast bloom filter, and only the ~|changes|
       maybe-rows reach an exact anti-join;
    4. survivors UNION (winners where op != 'D') projected to
       ``payload_cols`` (default: the base schema).
    """
    import pyarrow.compute as pc

    from .bloom import _coalesce_for_join, bloom_anti_join
    from .dedup import _join_partitions
    from .groupagg import grouped_reduce

    cols = payload_cols or base.schema().names
    parts = _join_partitions()

    mx = grouped_reduce(
        changes.select_columns([key_col, seq_col]).map_batches(
            lambda t: t.rename_columns([key_col, "_mx"]),
            batch_format="pyarrow"),
        key_col, {"_mx": "_mx"}, how="max")
    mx, n_mx = _coalesce_for_join(mx, parts)
    if n_mx == 0:
        # project exactly like the non-empty path so an empty CDC batch
        # yields the same output schema
        return base.map_batches(lambda t: t.select(cols),
                                batch_format="pyarrow")
    ch, _ = _coalesce_for_join(changes, parts)
    winners = join_safe(ch, mx, join_type="inner", num_partitions=parts,
                      on=(key_col, seq_col), right_on=(key_col, "_mx"))

    survivors = bloom_anti_join(
        base, mx.select_columns([key_col]), key_col)
    upserts = winners.map_batches(
        lambda t: t.filter(pc.invert(pc.equal(t[op_col], "D")))
                   .select(cols),
        batch_format="pyarrow")
    return survivors.map_batches(lambda t: t.select(cols),
                                 batch_format="pyarrow").union(upserts)


def group_gini(ds: ray.data.Dataset, group_col: str, value_col: str,
               num_col: str = "gini_num",
               den_col: str = "gini_den") -> ray.data.Dataset:
    """Exact per-group Gini concentration index over an INTEGER value
    column, returned as the integer-exact (numerator, denominator) pair of

        G = (2 * sum_i i * x_(i)  -  (n + 1) * sum(x)) / (n * sum(x))

    with x_(i) the group's values in ascending order (reference scope:
    the training-data quality/inequality signal family — token-count and
    source-mass concentration audits; dggrid4py has no analog).

    Tie-safe at unbounded group cardinality, no per-group Python: the
    rank sum is folded over the DISTINCT (group, value, count) table (as
    exact_group_quantile does) — a distinct value c with
    multiplicity m and S strictly-smaller values in its group occupies
    ranks S+1..S+m, so sum(rank)*c = c*(m*S + m*(m+1)/2), invariant to
    how SQL's ROW_NUMBER breaks ties.  Shape: one grouped_count (sort) ->
    one group_running_sum carry chain (sort of the answer-sized distinct
    table) -> one grouped_reduce.  All arithmetic is float64 over
    integers; exact while n*sum(x) and the rank-weighted sum stay below
    2**53 per group (raise value units / pre-scale above that)."""
    from .groupagg import grouped_count, grouped_reduce
    from .window import group_running_sum

    dist = grouped_count(ds.select_columns([group_col, value_col]),
                         [group_col, value_col], out_col="_m")
    run = group_running_sum(dist, group_col, [value_col], "_m",
                            out_col="_r")

    def contrib(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({
                group_col: t[group_col],
                "_iwx": pa.array([], pa.float64()),
                "_w": pa.array([], pa.float64()),
                "_n": pa.array([], pa.int64())})
        c = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        m = t["_m"].to_numpy(zero_copy_only=False).astype(np.float64)
        s_before = t["_r"].to_numpy(zero_copy_only=False) - m
        return pa.table({
            group_col: t[group_col],
            "_iwx": pa.array(c * (m * s_before + m * (m + 1.0) / 2.0)),
            "_w": pa.array(c * m),
            "_n": pa.array(m.astype(np.int64))})

    red = grouped_reduce(run.map_batches(contrib, batch_format="pyarrow"),
                         group_col, {"_iwx": "_iwx", "_w": "_w", "_n": "_n"},
                         how="sum")

    def finish(t: pa.Table) -> pa.Table:
        iwx = t["_iwx"].to_numpy(zero_copy_only=False)
        w = t["_w"].to_numpy(zero_copy_only=False)
        n = t["_n"].to_numpy(zero_copy_only=False).astype(np.float64)
        num = 2.0 * iwx - (n + 1.0) * w
        den = n * w
        return pa.table({
            group_col: t[group_col],
            num_col: pa.array(np.rint(num).astype(np.int64)),
            den_col: pa.array(np.rint(den).astype(np.int64))})

    return red.map_batches(finish, batch_format="pyarrow")


def union_by_name(datasets: list, strict_types: bool = True):
    """Schema-evolution UNION ALL BY NAME — the multi-source ingestion
    primitive: concatenate Datasets whose schemas differ, aligning
    columns by NAME; a column absent from an input surfaces as typed
    nulls there (DuckDB ``UNION ALL BY NAME`` semantics).  Column order =
    first-seen across inputs.

    Same-named columns must agree on type (raise; set
    ``strict_types=False`` to allow them when an explicit cast to the
    first-seen type is acceptable).  Pure streaming: one map_batches per
    input adds the missing null columns — no shuffle, no materialize
    (schemas come from Dataset metadata)."""
    import ray.data

    if not datasets:
        raise ValueError("union_by_name: empty input list")
    order: list = []
    types: dict = {}
    for ds in datasets:
        sch = ds.schema()
        for name, typ in zip(sch.names, sch.types):
            if name not in types:
                order.append(name)
                types[name] = typ
            elif types[name] != typ:
                if strict_types:
                    raise TypeError(
                        f"union_by_name: column {name!r} has conflicting "
                        f"types {types[name]} vs {typ}")

    def align(missing, cast_cols):
        def fn(t: pa.Table) -> pa.Table:
            cols = {}
            for name in order:
                if name in missing:
                    cols[name] = pa.nulls(t.num_rows, types[name])
                elif name in cast_cols:
                    cols[name] = t[name].cast(types[name])
                else:
                    cols[name] = t[name]
            return pa.table(cols)
        return fn

    aligned = []
    for ds in datasets:
        sch = ds.schema()
        have = dict(zip(sch.names, sch.types))
        missing = {n for n in order if n not in have}
        cast_cols = {n for n, t in have.items() if t != types[n]}
        aligned.append(ds.map_batches(align(missing, cast_cols),
                                      batch_format="pyarrow"))
    out = aligned[0]
    for ds in aligned[1:]:
        out = out.union(ds)
    return out


def ks_two_sample(ds: ray.data.Dataset, value_col: str,
                  a_col: str, b_col: str) -> tuple:
    """Exact two-sample Kolmogorov-Smirnov statistic from a per-distinct-
    value count table (``value_col`` ascending, ``a_col``/``b_col`` int
    counts per sample): D = max over values of |F_a(v) - F_b(v)| with F
    the inclusive ECDF.

    Scale shape: ONE range sort of the distinct-value table, then the
    two-pass parallel-scan pattern (per-block (sum_a, sum_b) summaries ->
    O(#blocks) driver prefix -> block-local cumsums + the block's max D)
    — no per-row driver work, no second sort.  Each candidate D is
    |ca/Na - cb/Nb| from exact int64 cumulatives, so the doubles compare
    bit-identical to SQL's windowed SUM formulation.

    Returns (d_max float, n_a int, n_b int).
    """
    srt = ds.sort(value_col).materialize()

    def block_sum(t: pa.Table) -> pa.Table:
        first = t[value_col]
        if isinstance(first, pa.ChunkedArray):
            first = first.combine_chunks()
        if t.num_rows == 0:
            return pa.table({"_first": first.slice(0, 0),
                             "_sa": pa.array([], pa.int64()),
                             "_sb": pa.array([], pa.int64())})
        a = t[a_col].to_numpy(zero_copy_only=False)
        b = t[b_col].to_numpy(zero_copy_only=False)
        return pa.table({"_first": first.slice(0, 1),
                         "_sa": pa.array([int(a.sum())], pa.int64()),
                         "_sb": pa.array([int(b.sum())], pa.int64())})

    summ = srt.map_batches(block_sum, batch_format="pyarrow").take_all()
    summ.sort(key=lambda r: r["_first"])
    offsets = {}
    acc_a = acc_b = 0
    for r in summ:
        if r["_first"] in offsets:
            raise ValueError(
                f"ks_two_sample requires unique {value_col!r} values "
                f"(duplicate {r['_first']!r} spans a block boundary)")
        offsets[r["_first"]] = (acc_a, acc_b)
        acc_a += r["_sa"]
        acc_b += r["_sb"]
    n_a, n_b = acc_a, acc_b
    if n_a == 0 or n_b == 0:
        raise ValueError("ks_two_sample: one sample is empty")

    def block_max(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"d": pa.array([], pa.float64())})
        key = t[value_col].to_numpy(zero_copy_only=False)[0]
        off_a, off_b = offsets[key]
        ca = off_a + np.cumsum(t[a_col].to_numpy(zero_copy_only=False))
        cb = off_b + np.cumsum(t[b_col].to_numpy(zero_copy_only=False))
        d = np.abs(ca.astype(np.float64) / float(n_a)
                   - cb.astype(np.float64) / float(n_b))
        return pa.table({"d": pa.array([float(d.max())], pa.float64())})

    d_max = srt.map_batches(block_max, batch_format="pyarrow").max("d")
    return float(d_max), int(n_a), int(n_b)
