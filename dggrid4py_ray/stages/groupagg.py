"""High-cardinality grouped reduction (sort + segmented reduce).

Ray Data's hash ``groupby().aggregate()`` burns ~150-370 CPU-s per million
distinct keys (measured, see ROUND2_NOTES) — fine for bounded key spaces
(nations, languages, coarse cells), catastrophic for per-document keys
(dedup hashes, res-9+ cell universes).  ``grouped_reduce`` keeps the same
semantics with one range sort instead:

1. ``ds.sort(key)`` — the single wide op; Ray's range sort scales with
   block count, not key cardinality.  It cuts the key range at sampled
   boundaries (``boundaries[i] <= key < boundaries[i+1]``) and merges each
   range into ONE output block, so every row of a key lands in one block.
2. per sorted block (``batch_size=None``: the whole block is the batch):
   a vectorized pandas groupby reduce (sum/min/max).  Because no key
   spans two blocks, each block's reduce is already final.

The plan is one exchange plus one map and stays lazy: nothing executes
until the caller consumes the result, and a caller that consumes it more
than once must ``materialize()`` it itself.  Ray's own
``GroupedData.map_groups`` relies on the same sort guarantee.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Max, Min, Sum

_AGGS = {"sum": Sum, "min": Min, "max": Max}


def _reduce_table(batch: pa.Table, keys: list, in_cols: list,
                  how: dict) -> pa.Table:
    """One block's groupby reduce, sorted by ``keys``; input column names."""
    if batch.num_rows == 0:
        # typed zero-row table: pd->Arrow on an empty groupby yields a
        # ZERO-COLUMN table, and such schema-less blocks poison every
        # downstream Arrow hash join ("no match for FieldRef")
        return batch.select(keys + in_cols)
    for k in keys:
        if batch[k].null_count:
            # pandas groupby would silently DROP the null group (SQL
            # GROUP BY keeps it) — refuse instead of diverging
            raise ValueError(f"grouped_reduce: null group key {k!r}; "
                             "filter or fill upstream")
    cols = {k: batch[k].to_numpy(zero_copy_only=False) for k in keys}
    for c in in_cols:
        cols[c] = batch[c].to_numpy(zero_copy_only=False)
    df = pd.DataFrame(cols)
    g = df.groupby(keys, sort=True).agg({c: how[c] for c in in_cols}).reset_index()
    return pa.Table.from_pandas(g, preserve_index=False)


def grouped_reduce(ds: ray.data.Dataset, key, col_map: dict,
                   how: dict | str = "sum",
                   presorted: bool = False) -> ray.data.Dataset:
    """Group ``ds`` on ``key`` (str or list[str]) and reduce the columns in
    ``col_map`` ({input_col: output_col}); ``how`` is a single reduction name
    or {input_col: "sum"|"min"|"max"}.  Output columns: key + renamed
    reductions.  The result is lazy (see the module docstring).

    ``presorted=True`` skips the range sort: the caller guarantees the
    input blocks TILE a global (key, ...) order (e.g. the output of
    ``group_row_number``, or of ``ds.sort`` on the key plus more columns).
    Such blocks are cut by row count or by a longer sort key, not at key
    boundaries, so a key CAN continue from one block into the next: each
    block's first and last groups are flagged as *boundary* rows and
    recombined by a hash Aggregate (≤ 2 rows per block), while interior
    rows are already final.  Blocks that are merely locally grouped do
    NOT qualify (an interior-of-block key repeated in another block would
    double-emit)."""
    keys = [key] if isinstance(key, str) else list(key)
    in_cols = list(col_map)
    if isinstance(how, str):
        how = {c: how for c in in_cols}
    out_names = keys + [col_map[c] for c in in_cols]

    if not presorted:
        def block_reduce(batch: pa.Table) -> pa.Table:
            return _reduce_table(batch, keys, in_cols, how) \
                .rename_columns(out_names)

        # batch_size=None is load-bearing: the UDF must see each sorted
        # block whole, or a key could be split across two batches
        return ds.sort(keys).map_batches(block_reduce, batch_format="pyarrow",
                                         batch_size=None)

    def block_reduce(batch: pa.Table) -> pa.Table:
        g = _reduce_table(batch, keys, in_cols, how)
        b = np.zeros(g.num_rows, bool)
        if g.num_rows:
            b[[0, -1]] = True
        return g.append_column("_b", pa.array(b))

    # the two branches below (interior filter / boundary aggregate) both
    # read the partials: materialize them once instead of re-running the
    # caller's plan twice
    parts = ds.map_batches(block_reduce, batch_format="pyarrow").materialize()
    interior = parts.map_batches(
        lambda t: t.filter(pc.invert(t["_b"])).drop_columns(["_b"]),
        batch_format="pyarrow")
    boundary = parts.map_batches(
        lambda t: t.filter(t["_b"]).drop_columns(["_b"]), batch_format="pyarrow")
    bagg = boundary.groupby(key if isinstance(key, str) else keys).aggregate(
        *[_AGGS[how[c]](c, alias_name=c) for c in in_cols])
    # boundary aggregate holds <=2 rows per block — without the coalesce
    # its dozens of near-empty aggregate output blocks union into the
    # result and compound across chained calls.  One block is always right
    # for answer-sized data.
    bagg = bagg.repartition(1)
    merged = interior.union(bagg)

    return merged.map_batches(
        lambda t: t.select(keys + in_cols).rename_columns(out_names),
        batch_format="pyarrow")


def grouped_string_agg(ds: ray.data.Dataset, key: str, order_col: str,
                       text_col: str, sep: str = " ",
                       out_col: str = "text") -> ray.data.Dataset:
    """SQL ``string_agg(text, sep ORDER BY order_col) GROUP BY key`` at
    unbounded key cardinality: ONE range sort on (key, order_col), then a
    block-local ordered join per group-run.  A group's rows are contiguous
    after the sort, so the only cross-block state is the tail text of each
    block's last group — an O(#blocks) driver carry chain (the
    ``window.group_row_number`` shape), never O(#groups).  Each group is
    emitted by the LAST block that holds any of its rows; interior blocks
    contribute their tail through the carry.

    Requires unique (key, order_col) pairs (the SQL determinism condition)
    and NON-NULL group keys (raises — fill upstream).  NULL text values
    are skipped entirely, exactly like SQL string_agg (they contribute
    neither text nor a separator); a group whose EVERY text is null is
    omitted from the output (SQL would emit it with a NULL aggregate).
    Driver state is bounded by #blocks x max-group-text — groups are
    documents here, so the carry strings are document-sized.
    """
    import numpy as np
    import pyarrow.compute as _pc
    import ray as _ray

    keys = [key, order_col]
    # SQL string_agg skips NULL inputs: drop them before the sort so they
    # contribute neither text nor separators (and never crash join())
    ds = ds.map_batches(
        lambda t: t.filter(_pc.is_valid(t[text_col])),
        batch_format="pyarrow")
    srt = ds.sort(keys).materialize()

    def summarize(t: pa.Table) -> pa.Table:
        if t.num_rows and t[key].null_count:
            raise ValueError("grouped_string_agg: null group keys are "
                             "unsupported; filter or fill upstream")
        cols = {f"_k{i}": t[c].slice(0, min(1, t.num_rows))
                for i, c in enumerate(keys)}
        if t.num_rows == 0:
            cols.update({"_key": pa.array([], pa.string()),
                         "_first_g": pa.array([], pa.string()),
                         "_last_g": pa.array([], pa.string()),
                         "_last_ko": pa.array([], pa.string()),
                         "_last_txt": pa.array([], pa.string())})
            return pa.table(cols)
        g = t[key].to_numpy(zero_copy_only=False)
        o = t[order_col].to_numpy(zero_copy_only=False)
        txt = t[text_col].to_numpy(zero_copy_only=False)
        if t.num_rows > 1 and bool(
                ((g[1:] == g[:-1]) & (o[1:] == o[:-1])).any()):
            raise ValueError("grouped_string_agg requires unique "
                             "(key, order) pairs; duplicate within block")
        last_start = 0 if g[0] == g[-1] else \
            int(np.flatnonzero(g[:-1] != g[1:])[-1] + 1)
        cols.update({
            "_key": pa.array([repr((t[key][0].as_py(),
                                    t[order_col][0].as_py()))]),
            "_first_g": pa.array([str(g[0])]),
            "_last_g": pa.array([str(g[-1])]),
            "_last_ko": pa.array([repr((t[key][-1].as_py(),
                                        t[order_col][-1].as_py()))]),
            "_last_txt": pa.array([sep.join(txt[last_start:])]),
        })
        return pa.table(cols)

    summ = (srt.map_batches(summarize, batch_format="pyarrow").to_pandas()
            .sort_values(["_k0", "_k1"], ignore_index=True))
    # blocks tile the sorted order; walk them in order and hand each block
    # (a) the accumulated text of its first group from earlier blocks and
    # (b) whether its LAST group ends here (else the next block emits it)
    plans = {}
    # carry sentinel is None, NOT "": an empty-string carry (a group whose
    # block-tail text is '') is a REAL carry and must still contribute its
    # separator downstream — truthiness would silently drop it
    carry_g, carry_txt, prev_last_ko = None, None, None
    n_blocks = len(summ)
    for i in range(n_blocks):                    # O(#blocks) driver rows
        bkey = summ["_key"].iloc[i]
        first_g, last_g = summ["_first_g"].iloc[i], summ["_last_g"].iloc[i]
        last_txt = summ["_last_txt"].iloc[i]
        prefix = carry_txt if first_g == carry_g else None
        if bkey in plans or bkey == prev_last_ko:
            raise ValueError("grouped_string_agg requires unique "
                             f"(key, order) pairs; duplicate {bkey}")
        prev_last_ko = summ["_last_ko"].iloc[i]
        emit_last = (i == n_blocks - 1
                     or summ["_first_g"].iloc[i + 1] != last_g)
        plans[bkey] = (prefix, emit_last)
        carry_txt = (prefix + sep + last_txt
                     if (prefix is not None and first_g == last_g)
                     else last_txt)
        carry_g = last_g
    plan_ref = _ray.put(plans)

    def local_agg(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({key: t[key],
                             out_col: pa.array([], pa.string())})
        plans_ = _ray.get(plan_ref)
        prefix, emit_last = plans_[repr((t[key][0].as_py(),
                                         t[order_col][0].as_py()))]
        g = t[key].to_numpy(zero_copy_only=False)
        txt = t[text_col].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        ends = np.append(starts[1:], len(g))
        out_idx, out_txt = [], []
        for ri, (s, e) in enumerate(zip(starts, ends)):
            if ri == len(starts) - 1 and not emit_last:
                break
            joined = sep.join(txt[s:e])
            if ri == 0 and prefix is not None:
                joined = prefix + sep + joined
            out_idx.append(int(s))
            out_txt.append(joined)
        return pa.table({key: t[key].take(pa.array(out_idx, pa.int64())),
                         out_col: pa.array(out_txt, pa.string())})

    return srt.map_batches(local_agg, batch_format="pyarrow")


def grouped_count_distinct(ds: ray.data.Dataset, group_cols, distinct_col: str,
                           out_col: str = "n_distinct") -> ray.data.Dataset:
    """Exact ``COUNT(DISTINCT distinct_col) GROUP BY group_cols`` at
    unbounded cardinality of both the groups and the distinct key:
    per-batch drop_duplicates combiner (only distinct tuples leave the
    batch) -> one composite-key ``grouped_reduce`` collapses the global
    distinct set -> one keys-only ``grouped_reduce`` sum counts it.  Two
    range sorts total; no hash aggregate, no per-group Python."""
    keys = [group_cols] if isinstance(group_cols, str) else list(group_cols)
    all_cols = keys + [distinct_col]

    def dedup_batch(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            # keep the INPUT's column types: pandas round-trips empty
            # object columns as null-typed, poisoning the sort/union
            return t.select(all_cols).append_column(
                "_one", pa.array([], pa.int64()))
        df = pd.DataFrame({c: t[c].to_numpy(zero_copy_only=False)
                           for c in all_cols}).drop_duplicates()
        df["_one"] = np.int64(1)
        return pa.Table.from_pandas(df, preserve_index=False)

    ded = grouped_reduce(ds.map_batches(dedup_batch, batch_format="pyarrow"),
                         all_cols, {"_one": "_one"}, how="max")

    def ones(t: pa.Table) -> pa.Table:
        cols = {k: t[k] for k in keys}
        cols["_one"] = pa.array(np.ones(t.num_rows, np.int64))
        return pa.table(cols)

    return grouped_reduce(ded.map_batches(ones, batch_format="pyarrow"),
                          keys, {"_one": out_col}, how="sum")


def grouped_count(ds: ray.data.Dataset, key, out_col: str = "n") -> ray.data.Dataset:
    """``COUNT(*) GROUP BY key`` on the sort-based scale path (unbounded
    key cardinality): typed ones column + ``grouped_reduce`` sum.  The
    shared implementation of the per-group row-count idiom."""
    keys = [key] if isinstance(key, str) else list(key)

    def ones(t: pa.Table) -> pa.Table:
        out = t.select(keys)
        return out.append_column(
            "_one", pa.array(np.ones(t.num_rows, np.int64)))

    return grouped_reduce(ds.map_batches(ones, batch_format="pyarrow"),
                          keys, {"_one": out_col}, how="sum")
