"""Bloom-filter semi-join pruning for large-large equi-joins.

At 100 TB the expensive part of ``big JOIN keys`` is shuffling the BIG side;
when the join is selective, almost all of that shuffle is wasted on rows
with no partner.  The classic fix (runtime filters in Spark/Presto): build
a Bloom filter over the key side, broadcast it once (``ray.put``), and
filter the big side INSIDE its read/map stage — non-members never reach
the join exchange.  False positives only cost wasted shuffle for ~fp_rate
of the pruned rows; the exact join afterwards removes them, so results are
exact regardless of filter sizing.

Build shape: per-batch partial bitmaps (vectorized double hashing off the
Arrow buffer — stages/hashing.hash64, no per-row Python), a fan-in-64
OR-fold stage, then a streamed driver OR over the ≤ blocks/64 survivors.
Driver memory is ONE bitmap; at default 2^22 bits that is 512 KiB
(fp ~0.77%% at 1M keys, ~1e-5 at 100k).  Size ``num_bits`` ~ 6-10 bits per
expected distinct key.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from .hashing import hash64
from .join import join_safe

_S1, _S2 = 0xB10053ED, 0x5EED5EED


def _positions(arr, num_bits: int, num_hashes: int):
    """(num_hashes, n) bit positions via Kirsch-Mitzenmacher double
    hashing: pos_j = h1 + j*h2 mod num_bits (num_bits power of two)."""
    mask = np.uint64(num_bits - 1)
    h1 = hash64(arr, seed=_S1)
    h2 = hash64(arr, seed=_S2) | np.uint64(1)
    return [(h1 + np.uint64(j) * h2) & mask for j in range(num_hashes)]


def build_bloom(keys: ray.data.Dataset, col: str, num_bits: int = 1 << 22,
                num_hashes: int = 4) -> np.ndarray:
    """Distributed Bloom build over ``keys[col]``; returns the packed
    uint64 bitmap (caller broadcasts with ray.put)."""
    if num_bits & (num_bits - 1):
        raise ValueError("num_bits must be a power of two")
    words = num_bits // 64

    def partial(t: pa.Table) -> pa.Table:
        bmp = np.zeros(words, np.uint64)
        if t.num_rows:
            for pos in _positions(t[col], num_bits, num_hashes):
                np.bitwise_or.at(bmp, (pos >> np.uint64(6)).astype(np.int64),
                                 np.uint64(1) << (pos & np.uint64(63)))
        return pa.table({"bmp": pa.array([bmp.tobytes()], pa.binary())})

    def or_rows(t: pa.Table) -> pa.Table:
        acc = np.zeros(words, np.uint64)
        for b in t["bmp"].to_pylist():
            acc |= np.frombuffer(b, np.uint64)
        return pa.table({"bmp": pa.array([acc.tobytes()], pa.binary())})

    folded = (keys.map_batches(partial, batch_format="pyarrow")
                  .map_batches(or_rows, batch_format="pyarrow", batch_size=64))
    acc = np.zeros(words, np.uint64)
    for batch in folded.iter_batches(batch_format="pyarrow"):
        for b in batch["bmp"].to_pylist():
            acc |= np.frombuffer(b, np.uint64)
    return acc


def bloom_prune(ds: ray.data.Dataset, col: str, bloom_ref,
                num_bits: int, num_hashes: int = 4,
                invert: bool = False) -> ray.data.Dataset:
    """Drop rows whose ``col`` is definitely not in the broadcast filter
    (zero false negatives; ~fp_rate of non-members survive).
    ``invert=True`` keeps the DEFINITE non-members instead (the exact
    complement — the anti-join's bypass set)."""

    def prune(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        bmp = ray.get(bloom_ref)
        ok = np.ones(t.num_rows, bool)
        for pos in _positions(t[col], num_bits, num_hashes):
            ok &= ((bmp[(pos >> np.uint64(6)).astype(np.int64)]
                    >> (pos & np.uint64(63))) & np.uint64(1)).astype(bool)
        return t.filter(pa.array(~ok if invert else ok))

    return ds.map_batches(prune, batch_format="pyarrow")


def _coalesce_for_join(ds: ray.data.Dataset, parts: int):
    """Materialize + coalesce a hash-join input so NO empty block reaches
    the join shuffle, returning ``(ds, n_rows)``.

    Ray's hash-shuffle join disseminates each side's schema to the
    aggregators only with the FIRST shuffled block of that side
    (``hash_shuffle.py``: ``send_empty_blocks=should_broadcast_schemas``);
    an empty first block early-returns before sending anything while the
    broadcast flag is still set, so a hash partition that then receives no
    rows is finalized as a SCHEMA-LESS table and pyarrow's acero join
    fails with "No match ... for key field reference".  Repartitioning to
    ``min(parts, n_rows)`` blocks guarantees every block is non-empty
    (balanced row split), which guarantees the first block carries the
    schema broadcast.  The materialize costs one pass over a side that is
    by contract already pruned/answer-ish-sized — the join would re-execute
    that lineage anyway.  When the materialized blocks are ALREADY all
    non-empty (per-block row counts come free with the materialized
    metadata) the repartition copy is skipped entirely — the common case
    pays no exchange."""
    ds = ds.materialize()
    n = ds.count()
    if n == 0:
        return ds, 0
    try:
        rows = [m.num_rows for b in ds.iter_internal_ref_bundles()
                for m in b.metadata]
        if rows and all(r and r > 0 for r in rows):
            return ds, n
    except Exception:
        pass  # internal API moved — fall through to the safe repartition
    return ds.repartition(max(1, min(parts, n))), n


def bloom_semi_join(big: ray.data.Dataset, keys: ray.data.Dataset,
                    big_col: str, key_col: str | None = None,
                    num_bits: int = 1 << 22, num_hashes: int = 4,
                    num_partitions: int | None = None) -> ray.data.Dataset:
    """EXACT semi-join ``big WHERE big_col IN keys[key_col]`` for two large
    sides: Bloom-prune the big side before the shuffle, then one
    distributed hash semi-join over the survivors (which removes the Bloom
    false positives).  The big side's exchange carries only ~|matches| +
    fp_rate x |non-matches| rows instead of everything.

    ``keys`` feeds both the Bloom build and the join, so it is
    materialized once here (a no-op for an already-materialized side)."""
    from .dedup import _join_partitions
    key_col = key_col or big_col
    keys = keys.materialize()
    bloom = ray.put(build_bloom(keys, key_col, num_bits, num_hashes))
    pruned = bloom_prune(big, big_col, bloom, num_bits, num_hashes)
    right = keys.map_batches(lambda t: t.select([key_col]),
                             batch_format="pyarrow")
    parts = num_partitions or _join_partitions()
    # the pruned side is ~|matches|-sized by contract; coalescing both
    # sides to non-empty blocks protects the join schema broadcast
    pruned, n_left = _coalesce_for_join(pruned, parts)
    if n_left == 0:
        return pruned  # typed empty, big's schema
    right, n_right = _coalesce_for_join(right, max(2, parts // 4))
    if n_right == 0:
        return pruned.limit(0)
    return join_safe(pruned, right, join_type="left_semi", num_partitions=parts,
                       on=(big_col,), right_on=(key_col,))


def bloom_anti_join(big: ray.data.Dataset, keys: ray.data.Dataset,
                    big_col: str, key_col: str | None = None,
                    num_bits: int = 1 << 22, num_hashes: int = 4,
                    num_partitions: int | None = None) -> ray.data.Dataset:
    """EXACT anti-join ``big WHERE big_col NOT IN keys[key_col]`` — the
    dual of ``bloom_semi_join``: the Bloom filter has zero false
    negatives, so every bloom-NEGATIVE row is a definite non-member and
    bypasses the join exchange entirely; only the bloom-positive "maybes"
    (~|members| + fp_rate x |non-members|) go through the exact
    ``left_anti`` join, which readmits the false positives.  For a
    selective blocklist the big side's shuffle carries almost nothing.

    NOTE: the keep/maybe split makes ``big`` a two-consumer input, so its
    upstream lineage EXECUTES TWICE (Ray streams; no spill of the 100-TB
    side).  That trade is right when the producer is a parquet read or a
    cheap projection; if the lineage above is expensive, materialize (or
    checkpoint) it before calling.  The small ``keys`` side also feeds
    two consumers (Bloom build + join) and is materialized once here."""
    from .dedup import _join_partitions
    key_col = key_col or big_col
    keys = keys.materialize()
    bloom = ray.put(build_bloom(keys, key_col, num_bits, num_hashes))

    keep = bloom_prune(big, big_col, bloom, num_bits, num_hashes,
                       invert=True)
    maybes = bloom_prune(big, big_col, bloom, num_bits, num_hashes)
    right = keys.map_batches(lambda t: t.select([key_col]),
                             batch_format="pyarrow")
    parts = num_partitions or _join_partitions()
    # The maybes side is small (~|members| + fp-rate of the rest).  Both
    # sides are coalesced to non-empty blocks — see _coalesce_for_join for
    # why an empty block can poison the join's schema broadcast.
    maybes, n_maybe = _coalesce_for_join(maybes, max(2, parts // 4))
    if n_maybe == 0:
        return keep
    right, n_right = _coalesce_for_join(right, max(2, parts // 4))
    if n_right == 0:
        return keep.union(maybes)
    survivors = join_safe(maybes, right, join_type="left_anti",
                            num_partitions=parts,
                            on=(big_col,), right_on=(key_col,))
    return keep.union(survivors)
