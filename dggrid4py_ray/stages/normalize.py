"""Grouped standardization (z-score) — the feature-normalization step of
a training-data pipeline, two-pass and broadcast-joined.

Pass 1 computes per-group (n, sum, sum-of-squares) with a within-batch
combiner, so the groupby shuffles one row per (group, block).  The
group-stats table is GROUP-COUNT-sized; it is collected on the driver and
broadcast via ``ray.put`` — valid for bounded group cardinality (1e6
groups = ~32 MB; for unbounded keys route through a cogroup join
instead, the ``stages/join`` shape).  Pass 2 is a pure map.

Population variance uses sumsq/n - mean^2; with float64 partials the
cancellation error is ~1e-15 relative at any realistic feature scale.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Sum
from .join import join_safe


def group_stats(ds: ray.data.Dataset, key: str, col: str) -> pd.DataFrame:
    """Per-group n/mean/std (population) via combiner + tiny groupby."""
    def partial(batch: pa.Table) -> pa.Table:
        x = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        pdf = pd.DataFrame({key: batch[key].to_pandas(), "x": x,
                            "x2": x * x, "one": np.int64(1)})
        g = pdf.groupby(key, sort=False).agg(
            s=("x", "sum"), s2=("x2", "sum"), n=("one", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(key).aggregate(Sum("s", alias_name="s"),
                                     Sum("s2", alias_name="s2"),
                                     Sum("n", alias_name="n"))).to_pandas()
    agg["mean"] = agg["s"] / agg["n"]
    agg["std"] = np.sqrt(np.maximum(agg["s2"] / agg["n"]
                                    - agg["mean"] ** 2, 0.0))
    return agg[[key, "n", "mean", "std"]]


class _ZScorer:
    def __init__(self, stats_ref, key: str, col: str, out_col: str):
        st = ray.get(stats_ref)
        self.mean = dict(zip(st[0], st[1]))
        self.std = dict(zip(st[0], st[2]))
        self.key, self.col, self.out = key, col, out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        k = pd.Series(batch[self.key].to_pandas())
        x = batch[self.col].to_numpy(zero_copy_only=False).astype(np.float64)
        m = k.map(self.mean).to_numpy(dtype=np.float64)
        s = k.map(self.std).to_numpy(dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(s > 0, (x - m) / s, 0.0)
        return batch.append_column(self.out, pa.array(z))


def group_zscore(ds: ray.data.Dataset, key: str, col: str,
                 out_col: str = "z", concurrency=None) -> ray.data.Dataset:
    """Append ``out_col`` = (col - group mean) / group std (0 for
    zero-variance groups).  Deterministic at any parallelism."""
    st = group_stats(ds, key, col)
    ref = ray.put((st[key].tolist(), st["mean"].tolist(),
                   st["std"].tolist()))
    return ds.map_batches(_ZScorer, fn_constructor_args=(ref, key, col, out_col),
                          batch_format="pyarrow",
                          concurrency=concurrency or (1, 32))


def grouped_moments2(ds: ray.data.Dataset, key, x_col: str, y_col: str,
                     unbounded_keys: bool = False) -> ray.data.Dataset:
    """Per-group bivariate moment partials (n, sx, sy, sxx, syy, sxy) —
    the one-pass sufficient statistics for covariance / Pearson
    correlation / regression slope.  Per batch ONE pandas groupby over
    derived product columns; the global combine is a hash aggregate for
    bounded key cardinality, or ``grouped_reduce`` (sort + segmented
    combine) when ``unbounded_keys=True``.  Output columns:
    key..., n, sx, sy, sxx, syy, sxy."""
    from ray.data.aggregate import Sum

    keys = [key] if isinstance(key, str) else list(key)
    cols = ["n", "sx", "sy", "sxx", "syy", "sxy"]

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            out = {k: t[k] for k in keys}
            out.update({c: pa.array([], pa.float64()) for c in cols})
            return pa.table(out)
        x = t[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        y = t[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        d = {k: t[k].to_numpy(zero_copy_only=False) for k in keys}
        d.update({"n": np.ones_like(x), "sx": x, "sy": y,
                  "sxx": x * x, "syy": y * y, "sxy": x * y})
        g = pd.DataFrame(d).groupby(keys, sort=False)[cols].sum() \
            .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    if unbounded_keys:
        from .groupagg import grouped_reduce
        return grouped_reduce(partials, key=keys,
                              col_map={c: c for c in cols}, how="sum")
    return partials.groupby(keys[0] if len(keys) == 1 else keys) \
        .aggregate(*[Sum(c, alias_name=c) for c in cols])


def grouped_corr(ds: ray.data.Dataset, key, x_col: str, y_col: str,
                 out_col: str = "corr",
                 unbounded_keys: bool = False) -> ray.data.Dataset:
    """SQL ``corr(x, y) GROUP BY key`` (sample correlation,
    covar_samp / (stddev_samp * stddev_samp)) from the
    ``grouped_moments2`` partials.  Groups with n < 2 or zero variance
    get null."""
    mom = grouped_moments2(ds, key, x_col, y_col,
                           unbounded_keys=unbounded_keys)
    keys = [key] if isinstance(key, str) else list(key)

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            out = {k: t[k] for k in keys}
            out[out_col] = pa.array([], pa.float64())
            return pa.table(out)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t["sx"].to_numpy(zero_copy_only=False)
        sy = t["sy"].to_numpy(zero_copy_only=False)
        sxx = t["sxx"].to_numpy(zero_copy_only=False)
        syy = t["syy"].to_numpy(zero_copy_only=False)
        sxy = t["sxy"].to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore", divide="ignore"):
            cov = (sxy - sx * sy / n) / (n - 1)
            vx = (sxx - sx * sx / n) / (n - 1)
            vy = (syy - sy * sy / n) / (n - 1)
            r = cov / np.sqrt(vx * vy)
        bad = (n < 2) | ~np.isfinite(r)
        out = {k: t[k] for k in keys}
        out[out_col] = pa.array(np.where(bad, np.nan, r), pa.float64(),
                                mask=bad)
        return pa.table(out)

    return mom.map_batches(finish, batch_format="pyarrow")


def winsorize(ds: ray.data.Dataset, col: str, q_lo: float = 0.05,
              q_hi: float = 0.95, out_col: str | None = None
              ) -> ray.data.Dataset:
    """Clamp ``col`` to its exact global [quantile(q_lo), quantile(q_hi)]
    (quantile_disc semantics) — the robust-statistics guard against
    outliers before means/regressions.  Two exact quantiles
    (stages/relational.exact_group_quantile with a constant group) give
    two scalars; the clamp is a pure vectorized map."""
    from .relational import exact_group_quantile

    out_col = out_col or col

    def const_g(t: pa.Table) -> pa.Table:
        return pa.table({"_g": pa.array(np.zeros(t.num_rows, np.int8)),
                         col: t[col]})

    gds = ds.map_batches(const_g, batch_format="pyarrow")
    lo, hi = (exact_group_quantile(gds, "_g", col, q=q).take_all()[0]
              ["quantile"] for q in (q_lo, q_hi))

    def clamp(t: pa.Table) -> pa.Table:
        v = np.clip(t[col].to_numpy(zero_copy_only=False), lo, hi)
        if out_col in t.column_names:
            return t.set_column(t.schema.get_field_index(out_col),
                                out_col, pa.array(v))
        return t.append_column(out_col, pa.array(v))

    return ds.map_batches(clamp, batch_format="pyarrow")


def grouped_autocorr(ds: ray.data.Dataset, key: str, order_cols: list,
                     value_col: str, k: int = 1, out_col: str = "acf",
                     min_pairs: int = 2) -> ray.data.Dataset:
    """Per-group lag-k autocorrelation: SQL ``corr(v, LAG(v, k) OVER
    (PARTITION BY key ORDER BY ...)) GROUP BY key``.  Composition of two
    proven scale paths: ``window.group_shift`` (one range sort +
    O(#blocks) tail carry) pairs each value with its k-back neighbor,
    then ``grouped_corr`` folds the bivariate moments — no per-group
    Python anywhere.  Groups with < min_pairs complete pairs or zero
    variance are dropped (where SQL corr is NULL).  Output: key, n
    (pair count), out_col."""
    import pyarrow.compute as pc

    from .window import group_shift

    lagged = group_shift(ds, key, order_cols, value_col, k=k,
                         out_col="_lagv")
    paired = lagged.map_batches(
        lambda t: t.filter(pc.is_valid(t["_lagv"])),
        batch_format="pyarrow")
    mom = grouped_moments2(paired, key, value_col, "_lagv",
                           unbounded_keys=True)

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({key: t[key], "n": pa.array([], pa.int64()),
                             out_col: pa.array([], pa.float64())})
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t["sx"].to_numpy(zero_copy_only=False)
        sy = t["sy"].to_numpy(zero_copy_only=False)
        sxx = t["sxx"].to_numpy(zero_copy_only=False)
        syy = t["syy"].to_numpy(zero_copy_only=False)
        sxy = t["sxy"].to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore", divide="ignore"):
            cov = (sxy - sx * sy / n) / (n - 1)
            vx = (sxx - sx * sx / n) / (n - 1)
            vy = (syy - sy * sy / n) / (n - 1)
            r = cov / np.sqrt(vx * vy)
        keep = (n >= min_pairs) & np.isfinite(r)
        return pa.table({key: t[key].filter(pa.array(keep)),
                         "n": pa.array(n[keep].astype(np.int64)),
                         out_col: pa.array(r[keep])})

    return mom.map_batches(finish, batch_format="pyarrow")


def grouped_higher_moments(ds: ray.data.Dataset, key, value_col: str,
                           unbounded_keys: bool = False
                           ) -> ray.data.Dataset:
    """Per-group sample stddev, skewness and excess kurtosis with
    DuckDB's bias corrections (G1 = g1 sqrt(n(n-1))/(n-2),
    G2 = ((n+1) g2 + 6)(n-1)/((n-2)(n-3))) from ONE pass of raw power
    sums s1..s4 — the same combiner + grouped_reduce shape as
    grouped_moments2, extended to 4th order.  Groups too small for a
    correction (n < 2 / 3 / 4 respectively) get null in that column.
    Output: key..., n, stddev, skewness, kurtosis."""
    from ray.data.aggregate import Sum

    keys = [key] if isinstance(key, str) else list(key)
    cols = ["n", "s1", "s2", "s3", "s4"]

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            out = {k: t[k] for k in keys}
            out.update({c: pa.array([], pa.float64()) for c in cols})
            return pa.table(out)
        x = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        d = {k: t[k].to_numpy(zero_copy_only=False) for k in keys}
        x2 = x * x
        d.update({"n": np.ones_like(x), "s1": x, "s2": x2,
                  "s3": x2 * x, "s4": x2 * x2})
        g = pd.DataFrame(d).groupby(keys, sort=False)[cols].sum() \
            .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    if unbounded_keys:
        from .groupagg import grouped_reduce
        agg = grouped_reduce(partials, key=keys,
                             col_map={c: c for c in cols}, how="sum")
    else:
        agg = partials.groupby(keys[0] if len(keys) == 1 else keys) \
            .aggregate(*[Sum(c, alias_name=c) for c in cols])

    def finish(t: pa.Table) -> pa.Table:
        out = {k: t[k] for k in keys}
        if t.num_rows == 0:
            out["n"] = pa.array([], pa.int64())
            for c in ("stddev", "skewness", "kurtosis"):
                out[c] = pa.array([], pa.float64())
            return pa.table(out)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        s1 = t["s1"].to_numpy(zero_copy_only=False)
        s2 = t["s2"].to_numpy(zero_copy_only=False)
        s3 = t["s3"].to_numpy(zero_copy_only=False)
        s4 = t["s4"].to_numpy(zero_copy_only=False)
        m = s1 / n
        with np.errstate(invalid="ignore", divide="ignore"):
            m2 = np.maximum(s2 / n - m * m, 0.0)
            m3 = s3 / n - 3 * m * s2 / n + 2 * m ** 3
            m4 = (s4 / n - 4 * m * s3 / n + 6 * m * m * s2 / n
                  - 3 * m ** 4)
            sd = np.sqrt(m2 * n / (n - 1))
            g1 = m3 / m2 ** 1.5
            g2 = m4 / (m2 * m2) - 3.0
            skew = g1 * np.sqrt(n * (n - 1)) / (n - 2)
            kurt = ((n + 1) * g2 + 6) * (n - 1) / ((n - 2) * (n - 3))
        out["n"] = pa.array(n.astype(np.int64))
        for name, v, minn in (("stddev", sd, 2), ("skewness", skew, 3),
                              ("kurtosis", kurt, 4)):
            bad = (n < minn) | ~np.isfinite(v)
            out[name] = pa.array(np.where(bad, np.nan, v), pa.float64(),
                                 mask=bad)
        return pa.table(out)

    return agg.map_batches(finish, batch_format="pyarrow")


def normalize_text_column(ds: ray.data.Dataset, text_col: str = "text",
                          out_col: str = "text_norm") -> ray.data.Dataset:
    """Canonical text-normalization key: Unicode NFC, lowercase,
    whitespace collapse, trim — the pre-key every normalization-aware
    dedup uses so 'Foo  bar' and 'foo bar' merge.

    Vectorized: lowercase + collapse + trim run as Arrow utf8proc/RE2
    kernels (the SAME libraries DuckDB's lower / regexp_replace use, so
    the bytes match the SQL twin — the trim strips ASCII space only,
    matching SQL ``trim()``; RE2's ``\\s`` is ASCII, so exotic Unicode
    whitespace passes through identically on both engines); NFC
    recomposition runs per-row unicodedata ONLY over the non-ASCII rows
    (gathered with ``take``, scattered back with ``replace_with_mask``),
    so ASCII rows stay zero-copy even in mixed batches."""
    import pyarrow.compute as pc
    import unicodedata

    def norm(t: pa.Table) -> pa.Table:
        arr = t[text_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        non_ascii = pc.invert(pc.match_substring_regex(
            arr, r"^[\x00-\x7F]*$"))
        if pc.any(non_ascii).as_py():
            mask = non_ascii.to_numpy(zero_copy_only=False)
            mask = np.asarray(mask, dtype=bool)
            idx = np.flatnonzero(mask)
            fixed = [unicodedata.normalize("NFC", v) if v is not None
                     else None
                     for v in arr.take(pa.array(idx)).to_pylist()]
            arr = pc.replace_with_mask(arr, pa.array(mask),
                                       pa.array(fixed, pa.string()))
        low = pc.utf8_lower(arr)
        coll = pc.replace_substring_regex(low, r"\s+", " ")
        return t.append_column(out_col, pc.utf8_trim(coll, " "))

    return ds.map_batches(norm, batch_format="pyarrow")


def normalized_dedup(ds: ray.data.Dataset, text_col: str = "text",
                     id_col: str = "doc_id",
                     hash: str = "fast") -> ray.data.Dataset:
    """Exact dedup modulo normalization: NFC + casefold + whitespace
    collapse first (``normalize_text_column``), then the scale-safe
    exact_dedup (sort + segmented min, no hash Aggregate).  Returns one
    row per distinct normalized text with the smallest surviving id."""
    from .dedup import exact_dedup

    normed = normalize_text_column(ds, text_col, out_col="_tn")
    return exact_dedup(normed, text_col="_tn", id_col=id_col, hash=hash)


def quantile_normalize(ds: ray.data.Dataset, group_col: str, value_col: str,
                       id_col: str, rank_col: str = "rank",
                       sum_col: str = "rank_sum",
                       n_col: str = "rank_n") -> ray.data.Dataset:
    """Cross-group quantile normalization (Bolstad et al. 2003, the
    microarray/batch-effect standard): each row's normalized value is the
    MEAN of the values sharing its within-group rank across ALL groups —
    after normalization every group has an identical value distribution.
    With unequal group sizes, rank r averages over the groups holding at
    least r rows (what the rank join naturally produces).

    Emitted as the integer-exact (rank_sum, rank_n) pair over an INTEGER
    value column (mean = rank_sum / rank_n) so oracles compare without
    float drift.  Ranks are deterministic: ordered by (value, id).

    Shape: one group_row_number carry chain (the only corpus sort), one
    sort-based grouped_reduce onto the rank table (max-group-size rows),
    ONE hash join back on rank.  No per-group Python anywhere."""
    from .bloom import _coalesce_for_join
    from .dedup import _join_partitions
    from .groupagg import grouped_reduce
    from .window import group_row_number

    rn = group_row_number(ds, group_col, [value_col, id_col],
                          out_col=rank_col).materialize()

    def partial(t: pa.Table) -> pa.Table:
        out = t.select([rank_col, value_col])
        return out.append_column(
            "_one", pa.array(np.ones(t.num_rows, np.int64)))

    ranks = grouped_reduce(rn.map_batches(partial, batch_format="pyarrow"),
                           rank_col, {value_col: sum_col, "_one": n_col},
                           how="sum")
    parts = _join_partitions()
    left, _ = _coalesce_for_join(rn, parts)
    right, _ = _coalesce_for_join(ranks, parts)
    return join_safe(left, right, join_type="inner", num_partitions=parts,
                     on=(rank_col,))


def quantile_bucketize(ds: ray.data.Dataset, group_col: str,
                       value_col: str, qs=(0.25, 0.5, 0.75),
                       out_col: str = "bucket") -> ray.data.Dataset:
    """Equal-frequency discretization (ML feature binning): per-group
    quantile cutoffs, then each row gets the bucket index of its value —
    bucket b iff cut[b-1] < v <= cut[b] (quantile_disc tie semantics, so
    the SQL CASE twin is bit-exact on integer-scaled values).

    Shape: one exact_group_quantile per cutoff (the cutoff table is
    answer-sized by definition, one row per group and cut), cutoffs
    broadcast once via ray.put, then ONE pure vectorized assignment map
    (per-group searchsorted on the 2-D cutoff matrix) — the assignment
    never shuffles the corpus."""
    import ray

    from .relational import exact_group_quantile

    cut_tbls = [pd.Series({r[group_col]: r["quantile"] for r in
                           exact_group_quantile(ds, group_col, value_col,
                                                q=q).take_all()})
                for q in qs]
    cuts = pd.DataFrame({i: t for i, t in enumerate(cut_tbls)})
    cuts_ref = ray.put(cuts)

    def assign(t: pa.Table) -> pa.Table:
        cdf = ray.get(cuts_ref)
        g = pd.Series(t[group_col].to_numpy(zero_copy_only=False))
        idx = g.map({k: i for i, k in enumerate(cdf.index)}) \
            .to_numpy(np.int64)
        cmat = cdf.to_numpy()          # (n_groups, n_cuts), ascending rows
        v = t[value_col].to_numpy(zero_copy_only=False)
        # bucket = #cuts strictly below v  (v <= cut -> stays left of it)
        b = (v[:, None] > cmat[idx]).sum(axis=1).astype(np.int64)
        return t.append_column(out_col, pa.array(b))

    return ds.map_batches(assign, batch_format="pyarrow")


def target_encode_loo(ds: ray.data.Dataset, cat_col: str, target_col: str,
                      num_col: str = "loo_num", den_col: str = "loo_den"
                      ) -> ray.data.Dataset:
    """Leave-one-out target encoding (the CatBoost/Micci-Barreca
    categorical feature): for each row, the SUM and COUNT of the integer
    target over the OTHER rows of its category, emitted as the
    integer-exact (num, den) pair — mean = num / den, den = 0 for
    singleton categories (the SQL twin is the window pair
    ``SUM(t) OVER (PARTITION BY c) - t`` / ``COUNT(*) OVER (...) - 1``).
    Excluding the row itself is what stops the encoding from leaking the
    row's own label into its feature.

    Pass 1: per-category (sum, n) via a within-batch combiner + tiny
    hash aggregate — bounded category cardinality (broadcast via
    ray.put; route through a cogroup join for unbounded keys).  Pass 2
    is a pure vectorized map; the corpus never shuffles."""
    import ray

    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({cat_col: t[cat_col],
                             "_s": pa.array([], pa.int64()),
                             "_n": pa.array([], pa.int64())})
        x = t[target_col].to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({cat_col: t[cat_col].to_pandas(), "_s": x,
                          "_n": np.int64(1)}) \
            .groupby(cat_col, sort=False)[["_s", "_n"]].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    stats = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(cat_col).aggregate(Sum("_s", alias_name="_s"),
                                         Sum("_n", alias_name="_n"))
             .to_pandas())
    ref = ray.put((dict(zip(stats[cat_col], stats["_s"].astype(np.int64))),
                   dict(zip(stats[cat_col], stats["_n"].astype(np.int64)))))

    def encode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            t = t.append_column(num_col, pa.array([], pa.int64()))
            return t.append_column(den_col, pa.array([], pa.int64()))
        sums, counts = ray.get(ref)
        k = pd.Series(t[cat_col].to_pandas())
        s = k.map(sums).to_numpy(dtype=np.int64)
        n = k.map(counts).to_numpy(dtype=np.int64)
        x = t[target_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.append_column(num_col, pa.array(s - x))
        return t.append_column(den_col, pa.array(n - 1))

    return ds.map_batches(encode, batch_format="pyarrow")
