"""Distributed window ranking: ROW_NUMBER / NTILE over partitions.

``group_row_number`` is the SQL ``ROW_NUMBER() OVER (PARTITION BY g
ORDER BY ...)`` in Ray Data shape: ONE range sort on (group, *order),
then — because a partition's rows are CONTIGUOUS in the sorted order — a
group can only straddle adjacent block boundaries, so the only
cross-block state is, per block, "how many rows of the block's last
group live here".  Driver state is O(#blocks) (one carry chain over the
ordered block summaries, same shape as ``stages/scan.prefix_sum``), NOT
O(#groups) — per-user partitions at 10^9 users are fine.  The local pass
is a vectorized segment cumcount.

``group_ntile`` adds the SQL NTILE(n) law on top: bucket sizes are
``ceil(g/n)`` for the first ``g mod n`` buckets and ``floor(g/n)`` after
(the standard remainder-first rule), computed from the rank and the
group size.  Group sizes come from a ``grouped_reduce`` count; the
broadcast variant here assumes a bounded group count (documented per
call site) — for unbounded keys, join the sizes back with the cogroup
machinery in ``stages/join`` instead.

Order keys must be unique WITHIN a group (add a row id as the last order
column, exactly as SQL needs for a deterministic ROW_NUMBER).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from .join import join_safe


def _cols(t: pa.Table, names):
    return [t[c].to_numpy(zero_copy_only=False) for c in names]


def _require_clean_groups(t: pa.Table, group_col: str, op: str) -> None:
    """Carry-chain contract: group keys must be non-null and non-NaN.  The
    local segment scans compare elementwise (NaN != NaN splits every NaN
    row into its own segment) while the driver chain compares str() keys
    ('nan' == 'nan' merges them) — silently wrong offsets.  Refuse."""
    if t.num_rows == 0:
        return
    arr = t[group_col]
    if arr.null_count:
        raise ValueError(f"{op}: null group keys are unsupported; "
                         "filter or fill upstream")
    if pa.types.is_floating(arr.type):
        import pyarrow.compute as _pc
        if _pc.any(_pc.is_nan(arr)).as_py():
            raise ValueError(f"{op}: NaN group keys are unsupported; "
                             "filter or fill upstream")


def _first_key(t: pa.Table, names):
    return tuple(t[c][0].as_py() for c in names)


def group_row_number(ds: ray.data.Dataset, group_col: str, order_cols: list,
                     out_col: str = "rn") -> ray.data.Dataset:
    """Append 1-based ``out_col`` = row number within ``group_col`` in
    (order_cols) order.  Output is globally sorted by (group, *order)."""
    keys = [group_col] + list(order_cols)
    srt = ds.sort(keys).materialize()

    def summarize(t: pa.Table) -> pa.Table:
        _require_clean_groups(t, group_col, "group_row_number")
        cols = {f"_k{i}": t[c].slice(0, min(1, t.num_rows))
                for i, c in enumerate(keys)}       # typed first-row key
        if t.num_rows == 0:
            cols.update({"_key": pa.array([], pa.string()),
                         "_first_g": pa.array([], pa.string()),
                         "_last_g": pa.array([], pa.string()),
                         "_n_last": pa.array([], pa.int64())})
            return pa.table(cols)
        g = t[group_col].to_numpy(zero_copy_only=False)
        n_last = int((g == g[-1]).sum()) if g[0] == g[-1] else \
            int(len(g) - np.flatnonzero(g[:-1] != g[1:])[-1] - 1)
        cols.update({
            "_key": pa.array([repr(_first_key(t, keys))]),
            "_first_g": pa.array([str(g[0])]),
            "_last_g": pa.array([str(g[-1])]),
            "_n_last": pa.array([n_last], pa.int64()),
        })
        return pa.table(cols)

    summ = srt.map_batches(summarize, batch_format="pyarrow").to_pandas()
    if "_key" in summ.columns:
        summ = summ.sort_values([f"_k{i}" for i in range(len(keys))],
                                ignore_index=True)
    # else: a fully empty input sorted to ZERO blocks — to_pandas has no
    # columns and there are no offsets to fold
    # blocks tile the sorted (group, *order) order, so ordering the block
    # summaries by their typed first-row key IS the global block order
    offsets = {}
    carry_g, carry_n = None, 0
    for _, r in summ.iterrows():            # O(#blocks) driver rows
        off = carry_n if r["_first_g"] == carry_g else 0
        if r["_key"] in offsets:
            raise ValueError("group_row_number requires unique "
                             f"(group, order) keys; duplicate {r['_key']}")
        offsets[r["_key"]] = off
        carry_n = (off + r["_n_last"] if r["_first_g"] == r["_last_g"]
                   else int(r["_n_last"]))
        carry_g = r["_last_g"]
    off_ref = ray.put(offsets)

    def local_rank(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column(out_col, pa.array([], pa.int64()))
        offs = ray.get(off_ref)
        g = t[group_col].to_numpy(zero_copy_only=False)
        n = len(g)
        new_seg = np.r_[True, g[1:] != g[:-1]]
        starts = np.flatnonzero(new_seg)
        seg_len = np.diff(np.append(starts, n))
        rank = (np.arange(n, dtype=np.int64)
                - np.repeat(starts, seg_len) + 1)
        off = offs[repr(_first_key(t, keys))]
        if off:
            first_end = starts[1] if len(starts) > 1 else n
            rank[:first_end] += off
        return t.append_column(out_col, pa.array(rank))

    return srt.map_batches(local_rank, batch_format="pyarrow")


def _ntile_from_rank(rank: np.ndarray, size: np.ndarray,
                     n: int) -> np.ndarray:
    """SQL NTILE law: first (size mod n) buckets hold ceil(size/n) rows."""
    q, rem = size // n, size % n
    big = (q + 1) * rem                       # rows covered by big buckets
    in_big = rank <= big
    bucket = np.where(
        in_big,
        (rank + q) // np.maximum(q + 1, 1),   # ceil(rank/(q+1))
        rem + (np.maximum(rank - big, 1) + q - 1) // np.maximum(q, 1))
    return bucket.astype(np.int64)


def group_ntile(ds: ray.data.Dataset, group_col: str, order_cols: list,
                n: int, out_col: str = "bucket") -> ray.data.Dataset:
    """Append SQL ``NTILE(n) OVER (PARTITION BY group ORDER BY ...)``.
    Broadcast group-size variant: assumes a bounded number of groups."""
    from ray.data.aggregate import Sum

    ranked = group_row_number(ds, group_col, order_cols,
                              out_col="_rn").materialize()

    # group sizes: within-batch value_counts partial -> tiny hash groupby
    # (bounded group count is this function's contract; no second sort)
    def count_partial(t: pa.Table) -> pa.Table:
        _require_clean_groups(t, group_col, "group_ntile")
        vc = pd.Series(t[group_col].to_pandas()).value_counts()
        return pa.table({group_col: pa.array(vc.index),
                         "_sz": pa.array(vc.to_numpy().astype(np.int64))})

    sizes = (ranked.map_batches(count_partial, batch_format="pyarrow")
             .groupby(group_col).aggregate(Sum("_sz", alias_name="_sz"))
             .to_pandas())
    size_ref = ray.put(dict(zip(sizes[group_col], sizes["_sz"])))

    def tile(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return (t.append_column(out_col, pa.array([], pa.int64()))
                     .drop_columns(["_rn"]))
        sz_map = ray.get(size_ref)
        g = pd.Series(t[group_col].to_pandas())
        size = g.map(sz_map).to_numpy(dtype=np.int64)
        rank = t["_rn"].to_numpy(zero_copy_only=False)
        return (t.append_column(out_col,
                                pa.array(_ntile_from_rank(rank, size, n)))
                 .drop_columns(["_rn"]))

    return ranked.map_batches(tile, batch_format="pyarrow")


def group_ntile_sorted(ds: ray.data.Dataset, group_col: str,
                       order_cols: list, n: int,
                       out_col: str = "bucket",
                       num_partitions: int | None = None
                       ) -> ray.data.Dataset:
    """``NTILE(n) OVER (PARTITION BY group ORDER BY ...)`` at UNBOUNDED
    group cardinality — the scale complement to ``group_ntile``'s
    broadcast-size-dict variant: ONE range sort (the ``group_row_number``
    carry chain), per-group sizes folded from the already-sorted
    row-number output (presorted ``grouped_reduce`` max — no second
    sort), one group-sized hash join back.  Unique (group, *order) keys
    required."""
    from .groupagg import grouped_reduce
    from .join import _join_partitions

    ranked = group_row_number(ds, group_col, list(order_cols),
                              out_col="_rn").materialize()
    parts = num_partitions or _join_partitions()
    sizes = grouped_reduce(ranked.select_columns([group_col, "_rn"]),
                           group_col, {"_rn": "_sz"}, how="max",
                           presorted=True).repartition(parts)
    j = join_safe(ranked, sizes, join_type="inner", num_partitions=parts,
                    on=(group_col,))

    def tile(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return (t.append_column(out_col, pa.array([], pa.int64()))
                     .drop_columns(["_rn", "_sz"]))
        rank = t["_rn"].to_numpy(zero_copy_only=False).astype(np.int64)
        size = t["_sz"].to_numpy(zero_copy_only=False).astype(np.int64)
        return (t.append_column(out_col,
                                pa.array(_ntile_from_rank(rank, size, n)))
                 .drop_columns(["_rn", "_sz"]))

    return j.map_batches(tile, batch_format="pyarrow")


def group_running_sum(ds: ray.data.Dataset, group_col: str, order_cols: list,
                      value_col: str, out_col: str = "running") -> ray.data.Dataset:
    """SQL ``SUM(value) OVER (PARTITION BY g ORDER BY ... ROWS UNBOUNDED
    PRECEDING)`` — same one-sort + O(#blocks) carry-chain shape as
    ``group_row_number``, carrying the block's last-group VALUE SUM
    instead of its row count.  Unique (group, *order) keys required."""
    keys = [group_col] + list(order_cols)
    srt = ds.sort(keys).materialize()

    def summarize(t: pa.Table) -> pa.Table:
        _require_clean_groups(t, group_col, "group_running_sum")
        cols = {f"_k{i}": t[c].slice(0, min(1, t.num_rows))
                for i, c in enumerate(keys)}
        if t.num_rows == 0:
            cols.update({"_key": pa.array([], pa.string()),
                         "_first_g": pa.array([], pa.string()),
                         "_last_g": pa.array([], pa.string()),
                         "_s_last": pa.array([], pa.float64())})
            return pa.table(cols)
        g = t[group_col].to_numpy(zero_copy_only=False)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        last_start = 0 if g[0] == g[-1] else \
            int(np.flatnonzero(g[:-1] != g[1:])[-1] + 1)
        cols.update({
            "_key": pa.array([repr(_first_key(t, keys))]),
            "_first_g": pa.array([str(g[0])]),
            "_last_g": pa.array([str(g[-1])]),
            "_s_last": pa.array([float(v[last_start:].sum())], pa.float64()),
        })
        return pa.table(cols)

    summ = srt.map_batches(summarize, batch_format="pyarrow").to_pandas()
    if "_key" in summ.columns:
        summ = summ.sort_values([f"_k{i}" for i in range(len(keys))],
                                ignore_index=True)
    # else: a fully empty input sorted to ZERO blocks — to_pandas has no
    # columns and there are no offsets to fold
    offsets = {}
    carry_g, carry_s = None, 0.0
    for _, r in summ.iterrows():
        off = carry_s if r["_first_g"] == carry_g else 0.0
        if r["_key"] in offsets:
            raise ValueError("group_running_sum requires unique "
                             f"(group, order) keys; duplicate {r['_key']}")
        offsets[r["_key"]] = off
        carry_s = (off + r["_s_last"] if r["_first_g"] == r["_last_g"]
                   else float(r["_s_last"]))
        carry_g = r["_last_g"]
    off_ref = ray.put(offsets)

    def local_scan(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column(out_col, pa.array([], pa.float64()))
        offs = ray.get(off_ref)
        g = t[group_col].to_numpy(zero_copy_only=False)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        n = len(g)
        new_seg = np.r_[True, g[1:] != g[:-1]]
        starts = np.flatnonzero(new_seg)
        csum = np.cumsum(v)
        base = np.repeat(np.r_[0.0, csum[starts[1:] - 1]]
                         if len(starts) > 1 else [0.0],
                         np.diff(np.append(starts, n)))
        run = csum - base
        off = offs[repr(_first_key(t, keys))]
        if off:
            first_end = starts[1] if len(starts) > 1 else n
            run[:first_end] += off
        return t.append_column(out_col, pa.array(run))

    return srt.map_batches(local_scan, batch_format="pyarrow")


def group_rank(ds: ray.data.Dataset, group_col: str, order_col: str,
               out_col: str = "rank",
               dense_col: str | None = None,
               num_partitions: int | None = None) -> ray.data.Dataset:
    """SQL ``RANK() OVER (PARTITION BY g ORDER BY v)`` with TIES, at
    unbounded group cardinality — pure composition of existing scale
    paths, no new carry machinery:

    1. tie-class counts per (g, v) via ``grouped_reduce`` (one sort);
    2. inclusive running count over the DISTINCT (g, v) table via
       ``group_running_sum`` (unique keys by construction; second sort
       over answer-sized data) — rank = running - count + 1, and
       DENSE_RANK is the row number of the tie class;
    3. one hash join of the (g, v, rank) table back onto the rows.

    For descending order pass a negated order column.  Ranks are exact
    int64 (float running sums are exact below 2^53 rows per group).
    """
    import pyarrow.compute as pc

    from .groupagg import grouped_reduce

    def ones(t: pa.Table) -> pa.Table:
        return pa.table({group_col: t[group_col], order_col: t[order_col],
                         "_one": pa.array(np.ones(t.num_rows, np.int64))})

    counts = grouped_reduce(ds.map_batches(ones, batch_format="pyarrow"),
                            key=[group_col, order_col],
                            col_map={"_one": "_cnt"}, how="sum")
    run = group_running_sum(counts, group_col, [order_col], "_cnt",
                            out_col="_run")

    def finish_rank(t: pa.Table) -> pa.Table:
        run_v = t["_run"].to_numpy(zero_copy_only=False)
        cnt = t["_cnt"].to_numpy(zero_copy_only=False)
        rank = (run_v - cnt + 1).astype(np.int64)
        out = pa.table({group_col: t[group_col],
                        "_ord": t[order_col],
                        out_col: pa.array(rank)})
        return out

    ranks = run.map_batches(finish_rank, batch_format="pyarrow")
    if dense_col is not None:
        ranks = group_row_number(ranks, group_col, ["_ord"],
                                 out_col=dense_col)

    from .join import _join_partitions
    parts = num_partitions or _join_partitions()
    return join_safe(ds, ranks.repartition(parts), join_type="inner",
                   num_partitions=parts,
                   on=(group_col, order_col),
                   right_on=(group_col, "_ord"))


def _group_codes(t: pa.Table, group_col: str | None) -> np.ndarray:
    """The group column as numpy; ``None`` makes the whole table one
    group."""
    if group_col is None:
        return np.zeros(t.num_rows, np.int8)
    return t[group_col].to_numpy(zero_copy_only=False)


def _last_selected(g: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """Per row, the index of the last ``sel`` row at or before it within
    its run of equal ``g`` (-1 if none): a segmented running max of the
    selected index — monotone segment bases make one global
    ``maximum.accumulate`` exact per segment.  ``g`` must be non-empty."""
    n = len(g)
    base = (np.cumsum(np.r_[True, g[1:] != g[:-1]]) - 1) * (n + 1)
    idx = np.where(sel, np.arange(n), -1)
    return np.maximum.accumulate(base + idx + 1) - base - 1


def _tail_carry(srt: ray.data.Dataset, keys: list, group_col: str | None,
                value_col: str, k: int, keep=None):
    """Shared machinery for bounded-frame windows (LAG k / ROWS k-1
    PRECEDING) and last-row carries: per sorted block, carry the last <=k
    values of the block's LAST group down the O(#blocks) driver chain, so
    each block knows the frame prefix entering its FIRST group.  Returns
    an object ref to {block_first_key_repr: pa.Array tail}; a tail keeps
    ``value_col``'s Arrow type and its nulls.  ``keep`` (block -> numpy
    boolean mask) restricts the carry to the selected rows (the last
    non-null value for ``group_fill_forward``, the last right row for
    ``temporal.asof_join``); a last group with no selected row carries
    the incoming tail through.  ``group_col=None`` makes the whole order
    one group.  Same unique-key requirement as ``group_running_sum``,
    enforced: equal adjacent keys inside a block or across a block seam
    raise ``ValueError`` (a null never equals anything, so
    ``temporal.asof_join``'s right rows, whose id is null, are checked
    by the join itself)."""

    def summarize(t: pa.Table) -> pa.Table:
        if group_col is not None:
            _require_clean_groups(t, group_col, "bounded-frame window")
        cols = {f"_k{i}": t[c].slice(0, min(1, t.num_rows))
                for i, c in enumerate(keys)}
        cols.update({f"_l{i}": t[c].slice(max(t.num_rows - 1, 0))
                     for i, c in enumerate(keys)})
        vtype = t.schema.field(value_col).type
        if t.num_rows == 0:
            cols.update({"_key": pa.array([], pa.string()),
                         "_first_g": pa.array([], pa.string()),
                         "_last_g": pa.array([], pa.string()),
                         "_tail": pa.array([], pa.list_(vtype)),
                         "_dup": pa.array([], pa.bool_())})
            return pa.table(cols)
        g = _group_codes(t, group_col)
        last_start = 0 if g[0] == g[-1] else \
            int(np.flatnonzero(g[:-1] != g[1:])[-1] + 1)
        last = t.slice(last_start)
        seg = last[value_col].combine_chunks()
        if keep is not None:
            seg = seg.filter(pa.array(keep(last)))
        seg = seg.slice(max(len(seg) - k, 0))
        cols.update({
            "_key": pa.array([repr(_first_key(t, keys))]),
            "_first_g": pa.array([str(g[0])]),
            "_last_g": pa.array([str(g[-1])]),
            "_tail": pa.ListArray.from_arrays(
                pa.array([0, len(seg)], pa.int32()), seg),
            # equal adjacent keys inside the block
            "_dup": pa.array([bool(_equal_keys(
                t.slice(1), t.slice(0, t.num_rows - 1), keys).any())]),
        })
        return pa.table(cols)

    blocks = [b for b in srt.map_batches(summarize, batch_format="pyarrow")
              .iter_batches(batch_size=None, batch_format="pyarrow")
              if b.num_rows]
    tails = {}
    if not blocks:          # a fully empty input sorts to zero blocks
        return ray.put(tails)
    # an all-null block may type its tail as null: promote to the others
    summ = pa.concat_tables(blocks, promote_options="default")
    # blocks tile the sorted order, so ordering the block summaries by
    # their typed first-row key IS the global block order
    summ = summ.take(pc.sort_indices(
        summ, [(f"_k{i}", "ascending") for i in range(len(keys))],
        null_placement="at_end"))
    # nor across a seam: a block's first key vs the previous block's last
    firsts = summ.select([f"_k{i}" for i in range(len(keys))]).slice(1)
    lasts = summ.select([f"_l{i}" for i in range(len(keys))]) \
        .slice(0, summ.num_rows - 1)
    if pc.any(summ["_dup"]).as_py() or \
            _equal_keys(firsts, lasts, range(len(keys))).any():
        raise ValueError("bounded-frame windows require unique "
                         "(group, order) keys")
    col = summ["_tail"].combine_chunks()
    flat, off = col.flatten(), col.offsets.to_numpy()
    carry_g, carry_t = None, flat.slice(0, 0)
    for i, (key, first_g, last_g) in enumerate(zip(
            summ["_key"].to_pylist(), summ["_first_g"].to_pylist(),
            summ["_last_g"].to_pylist())):        # O(#blocks) driver rows
        inc = carry_t if first_g == carry_g else flat.slice(0, 0)
        if key in tails:
            raise ValueError("bounded-frame windows require unique "
                             f"(group, order) keys; duplicate {key}")
        tails[key] = inc
        block_tail = flat.slice(off[i], off[i + 1] - off[i])
        if first_g == last_g:
            block_tail = pa.concat_arrays([inc, block_tail])
        carry_t = block_tail.slice(max(len(block_tail) - k, 0))
        carry_g = last_g
    return ray.put(tails)


def _equal_keys(a: pa.Table, b: pa.Table, keys) -> np.ndarray:
    """Row-wise: do the equal-length tables ``a`` and ``b`` agree on every
    key column (names or positions)?  A null compares unequal."""
    eq = np.ones(a.num_rows, dtype=bool)
    for k in keys:
        eq &= pc.fill_null(pc.equal(a.column(k), b.column(k)), False) \
            .to_numpy(zero_copy_only=False)
    return eq


def _f64(a) -> np.ndarray:
    return a.to_numpy(zero_copy_only=False).astype(np.float64)


def group_shift(ds: ray.data.Dataset, group_col: str, order_cols: list,
                value_col: str, k: int = 1,
                out_col: str = "lag") -> ray.data.Dataset:
    """SQL ``LAG(value, k) OVER (PARTITION BY g ORDER BY ...)`` at
    unbounded partition cardinality: one range sort, then the
    ``_tail_carry`` chain hands each block the <=k frame values entering
    its first group; the local pass is a pure vectorized shift (no
    per-group Python).  Missing lags are Arrow nulls (float64 output).
    LEAD(k) = group_shift over the reverse order (negate numeric order
    columns).  Unique (group, *order) keys required."""
    keys = [group_col] + list(order_cols)
    srt = ds.sort(keys).materialize()
    tails_ref = _tail_carry(srt, keys, group_col, value_col, k)

    def local(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column(out_col, pa.array([], pa.float64()))
        tail = _f64(ray.get(tails_ref)[repr(_first_key(t, keys))])
        g = t[group_col].to_numpy(zero_copy_only=False)
        v = _f64(t[value_col])
        p = len(tail)
        g2 = np.concatenate([np.repeat(g[:1], p), g])
        v2 = np.concatenate([tail, v])
        n2 = len(g2)
        new_seg = np.r_[True, g2[1:] != g2[:-1]]
        seg_start = np.flatnonzero(new_seg)
        start_rep = np.repeat(seg_start,
                              np.diff(np.append(seg_start, n2)))
        idx = np.arange(n2)
        ok = idx - start_rep >= k
        lag = np.where(ok, v2[np.maximum(idx - k, 0)], np.nan)
        out_v, out_ok = lag[p:], ok[p:]
        return t.append_column(
            out_col, pa.array(out_v, pa.float64(), mask=~out_ok))

    return srt.map_batches(local, batch_format="pyarrow")


def group_rolling_mean(ds: ray.data.Dataset, group_col: str,
                       order_cols: list, value_col: str, window: int,
                       out_col: str = "mavg") -> ray.data.Dataset:
    """SQL ``AVG(value) OVER (PARTITION BY g ORDER BY ... ROWS BETWEEN
    window-1 PRECEDING AND CURRENT ROW)``: same one-sort +
    ``_tail_carry`` shape as ``group_shift`` (carry = last window-1
    values of each block's last group), local pass = segmented
    cumulative-sum difference, fully vectorized.  Frames shorter than
    ``window`` average what exists (the SQL frame semantics).  Unique
    (group, *order) keys required."""
    keys = [group_col] + list(order_cols)
    srt = ds.sort(keys).materialize()
    tails_ref = _tail_carry(srt, keys, group_col, value_col, window - 1) \
        if window > 1 else None

    def local(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column(out_col, pa.array([], pa.float64()))
        tail = _f64(ray.get(tails_ref)[repr(_first_key(t, keys))]) \
            if window > 1 else np.zeros(0, np.float64)
        g = t[group_col].to_numpy(zero_copy_only=False)
        v = _f64(t[value_col])
        p = len(tail)
        g2 = np.concatenate([np.repeat(g[:1], p), g])
        v2 = np.concatenate([tail, v])
        n2 = len(g2)
        new_seg = np.r_[True, g2[1:] != g2[:-1]]
        seg_start = np.flatnonzero(new_seg)
        start_rep = np.repeat(seg_start,
                              np.diff(np.append(seg_start, n2)))
        idx = np.arange(n2)
        lo = np.maximum(start_rep, idx - window + 1)
        csum0 = np.r_[0.0, np.cumsum(v2)]
        cnt = idx - lo + 1
        mean = (csum0[idx + 1] - csum0[lo]) / cnt
        return t.append_column(out_col, pa.array(mean[p:], pa.float64()))

    return srt.map_batches(local, batch_format="pyarrow")


def group_ewma(ds: ray.data.Dataset, group_col: str, order_cols: list,
               value_col: str, alpha: float = 0.3,
               out_col: str = "ewma") -> ray.data.Dataset:
    """FINAL exponentially-weighted moving average per group over the
    (order_cols)-ordered values: y_1 = v_1, y_i = alpha*v_i +
    (1-alpha)*y_{i-1}; returns (group, ewma=y_n).

    The recurrence has a closed form — y_n = (1-a)^(n-1) v_1 +
    sum_{i>=2} a (1-a)^(n-i) v_i — so no sequential scan is needed:
    ROW_NUMBER via the carry chain + per-group counts + ONE weighted
    grouped_reduce sum.  Unbounded group cardinality, no per-group
    Python; weights underflow harmlessly for astronomically long
    groups.  Unique (group, *order) keys required (the row-number
    contract)."""
    from .groupagg import grouped_reduce

    rn = group_row_number(
        ds.select_columns([group_col] + list(order_cols) + [value_col]),
        group_col, list(order_cols), out_col="_rn")
    from .join import _join_partitions
    # per-group n = max row number — folded from the ALREADY-sorted rn
    # output (presorted grouped_reduce), not a second full range sort
    counts = grouped_reduce(rn.select_columns([group_col, "_rn"]),
                            group_col, {"_rn": "_n"}, how="max",
                            presorted=True) \
        .repartition(_join_partitions())
    j = join_safe(rn, counts, join_type="inner",
                num_partitions=_join_partitions(), on=(group_col,))
    a = float(alpha)

    def weigh(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({group_col: t[group_col],
                             "_wv": pa.array([], pa.float64())})
        i = t["_rn"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["_n"].to_numpy(zero_copy_only=False).astype(np.float64)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        w = np.where(i == 1.0, (1.0 - a) ** (n - 1.0),
                     a * (1.0 - a) ** (n - i))
        return pa.table({group_col: t[group_col],
                         "_wv": pa.array(w * v)})

    return grouped_reduce(j.map_batches(weigh, batch_format="pyarrow"),
                          group_col, {"_wv": out_col}, how="sum")


def group_fill_forward(ds: ray.data.Dataset, group_col: str,
                       order_cols: list, value_col: str,
                       out_col: str | None = None) -> ray.data.Dataset:
    """SQL ``LAST_VALUE(value IGNORE NULLS) OVER (PARTITION BY g ORDER BY
    ... ROWS UNBOUNDED PRECEDING)`` — forward-fill nulls within each
    group (LOCF gap-filling for resampled series).  One range sort; per
    block a vectorized segmented running-max index scan (no Python per
    row); the cross-block seam carries each block's last non-null value
    of its last group down the O(#blocks) driver chain (``_tail_carry``
    keeping the observed rows).  Rows before a group's first
    observation stay null.  Unique (group, *order) keys required."""
    out_col = out_col or value_col
    keys = [group_col] + list(order_cols)
    srt = ds.sort(keys).materialize()
    tails_ref = _tail_carry(srt, keys, group_col, value_col, k=1,
                            keep=lambda t: ~np.isnan(_f64(t[value_col])))

    def local_fill(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            empty = pa.array([], pa.float64())
            if out_col == value_col:
                # keep block schemas consistent: non-empty blocks emit
                # the filled column as float64
                return t.set_column(t.schema.get_field_index(value_col),
                                    value_col, empty)
            return t.append_column(out_col, empty)
        # the carried observation enters as a virtual first row of the
        # block's first group
        seed = _f64(ray.get(tails_ref)[repr(_first_key(t, keys))])
        p = len(seed)
        g = t[group_col].to_numpy(zero_copy_only=False)
        v = np.concatenate([seed, _f64(t[value_col])])
        pos = _last_selected(np.concatenate([np.repeat(g[:1], p), g]),
                             ~np.isnan(v))[p:]
        filled = np.where(pos >= 0, v[pos], np.nan)
        # unfilled rows (no observation yet) are REAL nulls, matching the
        # SQL LAST_VALUE IGNORE NULLS contract (NaN data inputs count as
        # missing, exactly like pandas ffill)
        arr = pa.array(filled, mask=np.isnan(filled))
        if out_col == value_col:
            return t.set_column(t.schema.get_field_index(value_col),
                                value_col, arr)
        return t.append_column(out_col, arr)

    return srt.map_batches(local_fill, batch_format="pyarrow")


def group_running_max(ds: ray.data.Dataset, group_col: str,
                      order_cols: list, value_col: str,
                      out_col: str = "prevmax") -> ray.data.Dataset:
    """EXCLUSIVE running max — SQL ``MAX(value) OVER (PARTITION BY g
    ORDER BY ... ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)`` —
    at unbounded partition cardinality: the same one-sort + O(#blocks)
    carry-chain shape as ``group_running_sum``, carrying the block's
    last-group VALUE MAX (combine = max instead of +).  The first row
    of each group gets an Arrow null (the SQL empty-frame NULL); output
    is float64 (exact for integer inputs to 2^53 — rebase epoch-us
    timestamps first).  The block-local segmented cummax/shift runs in
    pandas' Cython groupby kernels — no per-group Python.  Unique
    (group, *order) keys required.

    This is the gaps-and-islands primitive: ``start > prevmax`` is the
    exact new-island flag for interval coalescing."""
    import pandas as pd

    keys = [group_col] + list(order_cols)
    srt = ds.sort(keys).materialize()

    def summarize(t: pa.Table) -> pa.Table:
        _require_clean_groups(t, group_col, "group_running_max")
        cols = {f"_k{i}": t[c].slice(0, min(1, t.num_rows))
                for i, c in enumerate(keys)}
        if t.num_rows == 0:
            cols.update({"_key": pa.array([], pa.string()),
                         "_first_g": pa.array([], pa.string()),
                         "_last_g": pa.array([], pa.string()),
                         "_m_last": pa.array([], pa.float64())})
            return pa.table(cols)
        g = t[group_col].to_numpy(zero_copy_only=False)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        last_start = 0 if g[0] == g[-1] else \
            int(np.flatnonzero(g[:-1] != g[1:])[-1] + 1)
        cols.update({
            "_key": pa.array([repr(_first_key(t, keys))]),
            "_first_g": pa.array([str(g[0])]),
            "_last_g": pa.array([str(g[-1])]),
            "_m_last": pa.array([float(v[last_start:].max())],
                                pa.float64()),
        })
        return pa.table(cols)

    summ = srt.map_batches(summarize, batch_format="pyarrow").to_pandas()
    if "_key" in summ.columns:
        summ = summ.sort_values([f"_k{i}" for i in range(len(keys))],
                                ignore_index=True)
    # else: a fully empty input sorted to ZERO blocks — to_pandas has no
    # columns and there are no offsets to fold
    offsets = {}
    carry_g, carry_m = None, None
    for _, r in summ.iterrows():            # O(#blocks) driver rows
        off = carry_m if r["_first_g"] == carry_g else None
        if r["_key"] in offsets:
            raise ValueError("group_running_max requires unique "
                             f"(group, order) keys; duplicate {r['_key']}")
        offsets[r["_key"]] = off
        m = float(r["_m_last"])
        carry_m = (max(off, m) if (off is not None
                                   and r["_first_g"] == r["_last_g"])
                   else m)
        carry_g = r["_last_g"]
    off_ref = ray.put(offsets)

    def local_scan(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column(out_col, pa.array([], pa.float64()))
        offs = ray.get(off_ref)
        g = t[group_col].to_numpy(zero_copy_only=False)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        n = len(g)
        new_seg = np.r_[True, g[1:] != g[:-1]]
        seg_id = np.cumsum(new_seg) - 1
        s = pd.Series(v)
        grp = s.groupby(seg_id)
        prev = grp.cummax().groupby(seg_id).shift(1).to_numpy()
        off = offs[repr(_first_key(t, keys))]
        if off is not None:
            first_end = int(np.flatnonzero(new_seg[1:])[0] + 1) \
                if new_seg[1:].any() else n
            seg0 = prev[:first_end]
            prev[:first_end] = np.where(np.isnan(seg0), off,
                                        np.maximum(seg0, off))
        mask = np.isnan(prev)
        return t.append_column(
            out_col, pa.array(np.where(mask, 0.0, prev), pa.float64(),
                              mask=mask))

    return srt.map_batches(local_scan, batch_format="pyarrow")


def group_interp_linear(ds: ray.data.Dataset, group_col: str,
                        order_col: str, value_col: str,
                        out_col: str = "interp") -> ray.data.Dataset:
    """Per-group LINEAR interpolation of null values over an integer
    order axis (the daily-grid gap-fill between LOCF and splines):
    a null row bracketed by observations gets

        v_prev + (v_next - v_prev) * (o - o_prev) / (o_next - o_prev)

    evaluated in DuckDB's float op order (int64 numerator product, one
    float division, one float add) so the SQL window twin is bit-exact;
    rows after a group's last observation carry the previous value
    (LOCF tail); rows before the first observation stay null.

    Shape: the (order, value) observation pair rides ONE packed-int64
    lane (order * 2^32 + value + 2^31 — exact in the float64 carry while
    0 <= order < 2^20 and |value| < 2^31, guarded) through two
    ``group_fill_forward`` carry chains — forward, and backward via the
    negated order — two sorts total, no joins, no per-group Python.
    Output ``out_col`` is float64 with real nulls for never-observed
    prefixes.  Unique (group, order) keys required."""
    import pyarrow.compute as pc

    BASE = np.int64(1) << 32
    BIAS = np.int64(1) << 31

    def pack(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            t = t.append_column("_pk", pa.array([], pa.float64()))
            return t.append_column("_no", pa.array([], pa.int64()))
        o = t[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(o) and (o.min() < 0 or o.max() >= (1 << 20)):
            raise ValueError("group_interp_linear: order values must be "
                             "in [0, 2^20) to ride the packed float64 "
                             "lane exactly; rebase upstream")
        v = t[value_col].to_numpy(zero_copy_only=False)
        v = np.asarray(v, dtype=np.float64)
        obs = ~np.isnan(v)
        if obs.any() and np.abs(v[obs]).max() >= float(BIAS):
            raise ValueError("group_interp_linear: |value| must be "
                             "< 2^31; rescale upstream")
        if obs.any() and (np.mod(v[obs], 1.0) != 0.0).any():
            raise ValueError("group_interp_linear: observation values "
                             "must be integral — the packed lane "
                             "truncates fractions silently; scale to "
                             "integers upstream (e.g. value*1000)")
        pk = np.where(obs,
                      o.astype(np.float64) * float(BASE)
                      + (v + float(BIAS)),
                      np.nan)
        t = t.append_column("_pk", pa.array(pk, mask=~obs))
        return t.append_column("_no", pa.array(-o))

    packed = ds.map_batches(pack, batch_format="pyarrow")
    fwd = group_fill_forward(packed, group_col, [order_col], "_pk",
                             out_col="_fwd")
    bwd = group_fill_forward(fwd, group_col, ["_no"], "_pk",
                             out_col="_bwd")

    def interp(t: pa.Table) -> pa.Table:
        drop = [c for c in ("_pk", "_fwd", "_bwd", "_no")
                if c in t.column_names]
        if t.num_rows == 0:
            return t.drop_columns(drop).append_column(
                out_col, pa.array([], pa.float64()))
        v = np.asarray(t[value_col].to_numpy(zero_copy_only=False),
                       dtype=np.float64)
        f = t["_fwd"].to_numpy(zero_copy_only=False)
        b = t["_bwd"].to_numpy(zero_copy_only=False)
        o = t[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        have_f = ~np.isnan(f)
        have_b = ~np.isnan(b)
        fi = np.where(have_f, f, 0.0).astype(np.int64)
        bi = np.where(have_b, b, 0.0).astype(np.int64)
        o0, v0 = fi // BASE, fi % BASE - BIAS
        o1, v1 = bi // BASE, bi % BASE - BIAS
        den = np.where(o1 > o0, o1 - o0, 1).astype(np.float64)
        num = ((v1 - v0) * (o - o0)).astype(np.float64)
        lin = v0.astype(np.float64) + num / den
        out = np.where(~np.isnan(v), v,
                       np.where(have_b, lin, v0.astype(np.float64)))
        null = ~have_f
        arr = pa.array(np.where(null, np.nan, out), pa.float64(),
                       mask=null)
        return t.drop_columns(drop).append_column(out_col, arr)

    return bwd.map_batches(interp, batch_format="pyarrow")


def group_cume_counts(ds: ray.data.Dataset, group_col: str,
                      value_col: str,
                      out_col: str = "cume_n") -> ray.data.Dataset:
    """SQL ``COUNT(*) OVER (PARTITION BY g ORDER BY v RANGE UNBOUNDED
    PRECEDING)`` — the CUME_DIST numerator (rows of the group with value
    <= this row's value, ties included) at unbounded group cardinality.

    Shape: distinct (group, value, count) table via ``grouped_count``
    (max group-size rows, sort + segmented reduce), ONE inclusive
    running-sum carry chain over the distinct table, ONE hash join back
    on (group, value) — the corpus itself never range-sorts.  Null
    values are refused (SQL sorts them as a trailing peer class; filter
    or fill upstream rather than silently diverging)."""
    import pyarrow.compute as pc

    from .bloom import _coalesce_for_join
    from .groupagg import grouped_count
    from .join import _join_partitions

    def check(t: pa.Table) -> pa.Table:
        if t.num_rows and t[value_col].null_count:
            raise ValueError("group_cume_counts: null values are "
                             "unsupported; filter or fill upstream")
        return t

    ds = ds.map_batches(check, batch_format="pyarrow")
    dv = grouped_count(ds, [group_col, value_col], out_col="_cnt")
    run = group_running_sum(dv, group_col, [value_col], "_cnt",
                            out_col="_cume")
    cume = run.map_batches(
        lambda t: pa.table({
            group_col: t[group_col],
            value_col: t[value_col],
            out_col: pc.cast(pc.round(t["_cume"]), pa.int64())}),
        batch_format="pyarrow")
    parts = _join_partitions()
    left, _ = _coalesce_for_join(ds, parts)
    right, _ = _coalesce_for_join(cume, parts)
    return join_safe(left, right, join_type="inner", num_partitions=parts,
                     on=(group_col, value_col))
