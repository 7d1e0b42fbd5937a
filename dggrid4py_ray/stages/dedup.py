"""Deduplication operators for large-scale training-data pipelines.

All expressed Ray-Data-first:

* exact_dedup           — md5(key) hash-partition + per-group min(doc_id)
* minhash_lsh_dedup     — shingle -> minhash -> band-bucket groupby -> union
* simhash               — 64-bit simhash column + bucket candidate pairs
* ngram_jaccard_pairs   — exact Jaccard verification for candidate pairs
* embedding_dedup       — cosine near-dup over an embedding column

Shuffle discipline: every groupby is preceded by a within-batch projection to
the minimal columns (hashes + ids), never the raw text/media payload.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from .join import join_safe


def _join_partitions(cap: int = 16) -> int:
    """Hash-join partition count sized to the cluster: the join operator
    runs one aggregator actor per partition, so oversizing deadlocks small
    CPU budgets.  Single implementation lives in stages/join.py; this
    delegate keeps the dedup/bloom family's conservative cap=16 (their
    join sides are answer-ish-sized by contract, so fewer, fuller
    partitions beat more aggregator actors)."""
    from .join import _join_partitions as _jp
    return _jp(cap)


def _md5_hex(texts: np.ndarray) -> np.ndarray:
    return np.array([hashlib.md5(str(t).encode()).hexdigest() for t in texts], dtype=object)


def exact_dedup(ds: ray.data.Dataset, text_col: str = "text",
                id_col: str = "doc_id", hash: str = "fast") -> ray.data.Dataset:
    """Keep the smallest id per exact text.

    Ray shape: project to (hash, id) in map_batches -> grouped_reduce(min):
    sort + segmented min instead of Ray's hash Aggregate, because the hash
    key is unique-per-distinct-doc — exactly the high-cardinality regime
    where the hash Aggregate burns 150-370 CPU-s per million keys
    (measured, ROUND2_NOTES; see stages/groupagg).

    ``hash`` selects the key (VERDICT r3 #6, r4 #7):

    * ``"fast"`` (default — the 10^12-doc path never pays per-row Python) —
      stages/hashing.hash128: fully vectorized polynomial hash straight off
      the Arrow UTF-8 buffer, no per-row Python; two independent 64-bit
      lanes, so collision-merge risk stays ~1e-14 even at 10^12 docs.
      Output columns (h1, h2, keep_id).
    * ``"md5"`` — per-row hashlib (~1.5 us/row; no vectorized md5 exists in
      numpy/pyarrow), bit-identical to the DuckDB md5 oracle — pass it
      explicitly where SQL parity of the HASH VALUE matters (the driver
      gate queries do).  Output columns (text_md5, keep_id).

    The keep-SET is identical under either hash (same text <=> same
    128-bit key, up to the negligible collision bound) — only the exposed
    hash columns differ."""
    from .groupagg import grouped_reduce

    if hash == "fast":
        from .hashing import hash128

        def project_fast(batch: pa.Table) -> pa.Table:
            h1, h2 = hash128(batch[text_col])
            return pa.table({"h1": pa.array(h1.view(np.int64)),
                             "h2": pa.array(h2.view(np.int64)),
                             id_col: batch[id_col]})

        return grouped_reduce(ds.map_batches(project_fast, batch_format="pyarrow"),
                              ["h1", "h2"], {id_col: "keep_id"}, how="min")
    if hash != "md5":
        raise ValueError(f"hash must be 'md5' or 'fast', got {hash!r}")

    def project(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_numpy(zero_copy_only=False)
        return pa.table({"text_md5": pa.array(_md5_hex(texts), type=pa.string()),
                         id_col: batch[id_col]})

    return grouped_reduce(ds.map_batches(project, batch_format="pyarrow"),
                          "text_md5", {id_col: "keep_id"}, how="min")


# -- MinHash + LSH ----------------------------------------------------------

_MERSENNE = (1 << 61) - 1


class MinHasher:
    """map_batches actor: k-shingle minhash signature per document."""

    def __init__(self, text_col: str = "text", num_perm: int = 64,
                 shingle: int = 4, seed: int = 1):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
        self.text_col = text_col
        self.num_perm = num_perm
        self.shingle = shingle

    def signature(self, text: str) -> np.ndarray:
        sigs = self.signatures(np.array([text], dtype=object))
        return sigs[0]

    def signatures(self, texts: np.ndarray) -> np.ndarray:
        """Batched signatures: all documents' shingle hashes in one flat
        array, per-doc mins via np.minimum.reduceat (no per-doc Python)."""
        k = self.shingle
        bufs = [str(t).encode("utf-8", "ignore") for t in texts]
        counts = np.array([max(len(b) - k + 1, 1) for b in bufs], dtype=np.int64)
        flat = np.zeros(int(counts.sum()), dtype=np.uint64)
        off = 0
        pw = (np.uint64(257) ** np.arange(k, dtype=np.uint64))
        for b, c in zip(bufs, counts):
            if len(b) < k:
                flat[off] = np.uint64(int.from_bytes(hashlib.md5(b).digest()[:8], "big"))
            else:
                arr = np.frombuffer(b, dtype=np.uint8).astype(np.uint64)
                win = np.lib.stride_tricks.sliding_window_view(arr, k)
                flat[off:off + c] = (win * pw[None, :]).sum(axis=1)
            off += c
        starts = np.zeros(len(texts), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        sigs = np.empty((len(texts), self.num_perm), dtype=np.uint64)
        for p in range(self.num_perm):
            h = (self.a[p] * flat + self.b[p]) % np.uint64(_MERSENNE)
            sigs[:, p] = np.minimum.reduceat(h, starts)
        return sigs

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_numpy(zero_copy_only=False)
        sigs = self.signatures(texts)
        col = pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.reshape(-1).view(np.int64)), self.num_perm)
        return batch.append_column("minhash", col)


def _minhash_band_keys(sigs: np.ndarray, bands: int, rows_per_band: int) -> np.ndarray:
    """(n, bands) int64 bucket keys: FNV over each band's signature segment,
    band index packed into the top 8 bits.  A pure function of the
    signature, so any holder of two signatures can recompute every band
    bucket the pair shares."""
    n = len(sigs)
    keys = np.empty((n, bands), dtype=np.int64)
    mask = np.uint64((1 << 56) - 1)
    for bidx in range(bands):
        seg = sigs[:, bidx * rows_per_band:(bidx + 1) * rows_per_band]
        h = np.zeros(n, dtype=np.uint64)
        for c in range(rows_per_band):
            h = h * np.uint64(1099511628211) + seg[:, c]
        keys[:, bidx] = ((h & mask)
                         | (np.uint64(bidx) << np.uint64(56))).view(np.int64)
    return keys


def _oversize_bucket_keys(keyed: ray.data.Dataset, max_bucket: int) -> np.ndarray:
    """Sorted int64 array of bucket keys whose global member count exceeds
    ``max_bucket``.  ``keyed`` must have an int64 ``bkey`` column with one
    row per (doc, band).  Scale shape: per-batch partial counts (combiner)
    -> grouped_reduce sum (sort-based, high-cardinality-safe) -> distributed
    filter -> the survivors are answer-sized (<= corpus/max_bucket) and only
    they reach the driver."""
    from .groupagg import grouped_reduce

    def partial_counts(t: pa.Table) -> pa.Table:
        k = t["bkey"].to_numpy(zero_copy_only=False)
        uk, cnt = np.unique(k, return_counts=True)
        return pa.table({"bkey": pa.array(uk), "c": pa.array(cnt.astype(np.int64))})

    counts = grouped_reduce(keyed.map_batches(partial_counts, batch_format="pyarrow"),
                            "bkey", {"c": "c"}, how="sum")
    import pyarrow.compute as pc
    big = counts.map_batches(
        lambda t: t.filter(pc.greater(t["c"], max_bucket)).select(["bkey"]),
        batch_format="pyarrow").take_all()
    return np.sort(np.array([r["bkey"] for r in big], dtype=np.int64))


def minhash_lsh_dedup(ds: ray.data.Dataset, text_col: str = "text",
                      id_col: str = "doc_id", num_perm: int = 64, bands: int = 16,
                      threshold: float = 0.7, max_bucket: int = 128,
                      concurrency: int | None = None,
                      exact_band_recall: bool = False) -> ray.data.Dataset:
    """Near-dup detection: minhash signatures -> LSH band buckets -> exact
    signature-similarity check inside each bucket -> candidate pairs with
    estimated Jaccard >= threshold.

    Returns Dataset[(left_id, right_id, est_jaccard)] with left < right.

    ONE wide operation total (the groupby under map_groups; its sort is
    cheap — Ray's hash AGGREGATE on high-cardinality keys is what must be
    avoided): rows (bucket_key, id, sig) shuffle once, keyed on the bucket
    hash with the band index packed into the top bits.  Pairs are generated
    AND verified inside each bucket group, and each pair is emitted ONLY
    from its first matching band — computable locally from the two
    signatures in hand — so the output needs no global dedup at all.

    Buckets larger than ``max_bucket`` are low-information band collisions
    and are dropped (standard LSH skew practice).  With the default
    ``exact_band_recall=False`` this loses not only pairs whose every
    matching band is oversize, but ALSO pairs whose FIRST matching band is
    oversize even when a later matching band's bucket is small — the
    first-band emission rule suppresses them cross-band (the later band's
    group cannot know the earlier bucket was dropped).  Near-identical mass
    duplicates belong to exact_dedup first, which catches them exactly.

    ``exact_band_recall=True`` removes the cross-band suppression: a cheap
    narrow count pass (per-batch partial counts -> sort-based grouped_reduce
    over 8-byte keys — no text, no signatures) finds the oversize bucket
    keys, which are answer-sized and broadcast to the pair stage; each pair
    is then emitted from its first matching band whose bucket was actually
    processed.  Costs one extra wide op over (bkey) rows plus one
    materialization of the narrow (id, minhash) table; recall becomes
    exactly "some matching band's bucket is small".  The heavy text column
    never shuffles on either path."""
    rows_per_band = num_perm // bands
    assert bands <= 32
    sigged = ds.map_batches(MinHasher(text_col, num_perm), batch_format="pyarrow",
                            concurrency=concurrency)

    def emit_buckets(batch: pa.Table) -> pa.Table:
        arr = batch["minhash"]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        n = batch.num_rows
        sigs = np.asarray(arr.flatten()).reshape(n, num_perm).view(np.uint64)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        bh = _minhash_band_keys(sigs, bands, rows_per_band).T.reshape(-1)
        sig_bytes = [s.tobytes() for s in sigs]
        return pa.table({"bkey": pa.array(bh),
                         id_col: pa.array(np.tile(ids, bands)),
                         "sig": pa.array(sig_bytes * bands, type=pa.binary())})

    dropped = np.zeros(0, dtype=np.int64)
    if exact_band_recall:
        narrow = sigged.select_columns([id_col, "minhash"]).materialize()
        sigged = narrow

        def emit_keys(batch: pa.Table) -> pa.Table:
            arr = batch["minhash"]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            n = batch.num_rows
            sigs = np.asarray(arr.flatten()).reshape(n, num_perm).view(np.uint64)
            keys = _minhash_band_keys(sigs, bands, rows_per_band).reshape(-1)
            return pa.table({"bkey": pa.array(keys)})

        dropped = _oversize_bucket_keys(
            sigged.map_batches(emit_keys, batch_format="pyarrow"), max_bucket)
    dropped_ref = ray.put(dropped)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = len(g)
        empty = pd.DataFrame({"left_id": pd.Series([], dtype=g[id_col].dtype),
                              "right_id": pd.Series([], dtype=g[id_col].dtype),
                              "est_jaccard": pd.Series([], dtype=np.float64)})
        if m < 2 or m > max_bucket:
            return empty
        band = int(g["bkey"].iloc[0]) >> 56 & 0xFF
        ids = g[id_col].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        sigs = np.stack([np.frombuffer(b, dtype=np.uint64)
                         for b in g["sig"].to_numpy()[order]])
        iu, ju = np.triu_indices(m, 1)
        eqm = sigs[iu] == sigs[ju]                       # (npairs, num_perm)
        eq = eqm.mean(axis=1)
        # emit each pair only from its FIRST matching band with a processed
        # (non-oversize) bucket — global dedup without any further shuffle:
        # band equality AND the band bucket keys are pure functions of the
        # two signatures, and the oversize-key set arrives by broadcast
        band_eq = eqm.reshape(-1, bands, rows_per_band).all(axis=2)
        drop = ray.get(dropped_ref)
        if len(drop):
            key_mat = _minhash_band_keys(sigs, bands, rows_per_band)
            # a matched band's key is shared by both members; use the left's
            band_ok = band_eq & ~np.isin(key_mat[iu], drop)
        else:
            band_ok = band_eq
        any_ok = band_ok.any(axis=1)
        first_band = np.argmax(band_ok, axis=1)
        hit = (eq >= threshold) & any_ok & (first_band == band)
        if not hit.any():
            return empty
        return pd.DataFrame({"left_id": ids[iu[hit]], "right_id": ids[ju[hit]],
                             "est_jaccard": eq[hit].astype(np.float64)})

    return (sigged.map_batches(emit_buckets, batch_format="pyarrow")
                  .groupby("bkey").map_groups(pairs, batch_format="pandas"))


# -- SimHash ----------------------------------------------------------------

class SimHasher:
    """map_batches actor: 64-bit simhash over word 3-grams — fully
    vectorized: per-word polynomial hashes from the flat word-character
    buffer (reduceat), 3-gram hashes by combining consecutive word hashes,
    per-document ±1 bit votes via a (grams, 64) bit matrix + segment sums."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    @staticmethod
    def _word_hashes(texts: np.ndarray):
        """(flat word hashes (uint64), per-doc word-count offsets)."""
        split = [str(t).split() for t in texts]
        counts = np.fromiter((len(w) for w in split), dtype=np.int64,
                             count=len(split))
        words = [w for ws in split for w in ws]
        bufs = [w.encode("utf-8", "ignore") for w in words]
        wl = np.fromiter((len(b) for b in bufs), dtype=np.int64, count=len(bufs))
        flat = np.frombuffer(b"".join(bufs), dtype=np.uint8).astype(np.uint64)
        # polynomial hash per word: sum b_i * 131^i via reduceat with a
        # per-word restart of the power sequence
        pos = np.arange(len(flat), dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(wl)[:-1]]) if len(bufs) else \
            np.zeros(0, dtype=np.int64)
        rel = pos - np.repeat(starts, wl) if len(bufs) else pos
        with np.errstate(over="ignore"):
            pw = np.uint64(0x9E3779B97F4A7C15) ** (rel.astype(np.uint64) % np.uint64(31))
            terms = flat * pw
        wh = np.add.reduceat(terms, np.clip(starts, 0, max(len(terms) - 1, 0))) \
            if len(bufs) else np.zeros(0, dtype=np.uint64)
        wh[wl == 0] = 0
        # final mix so short words spread over 64 bits
        with np.errstate(over="ignore"):
            wh = (wh ^ (wh >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
            wh = wh ^ (wh >> np.uint64(33))
        woff = np.concatenate([[0], np.cumsum(counts)])
        return wh, woff

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_numpy(zero_copy_only=False)
        n = len(texts)
        wh, woff = self._word_hashes(texts)
        counts = np.diff(woff)
        # 3-gram hashes: combine consecutive word hashes; docs with < 3
        # words use the single gram of all their words
        ng = np.maximum(counts - 2, np.minimum(counts, 1))
        goff = np.concatenate([[0], np.cumsum(ng)])
        total_g = int(goff[-1])
        gh = np.zeros(total_g, dtype=np.uint64)
        P = np.uint64(1099511628211)
        with np.errstate(over="ignore"):
            for d in range(3):  # d-th word of each gram
                gi = np.arange(total_g, dtype=np.int64)
                doc = np.repeat(np.arange(n), ng)
                widx = gi - np.repeat(goff[:-1], ng) + d
                ok = widx < np.repeat(counts, ng)
                src = np.repeat(woff[:-1], ng) + np.minimum(
                    widx, np.maximum(np.repeat(counts, ng) - 1, 0))
                gh = gh * P + np.where(ok, wh[np.clip(src, 0, max(len(wh) - 1, 0))]
                                       if len(wh) else 0, np.uint64(0))
        shifts = np.arange(64, dtype=np.uint64)
        acc = np.zeros((n, 64), dtype=np.int32)
        doc_of_g = np.repeat(np.arange(n), ng)
        CH = 4096  # gram chunk: the (CH, 64) vote matrix stays cache-resident
        for s in range(0, total_g, CH):
            sub = gh[s:s + CH]
            bits = ((sub[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int32)
            np.add.at(acc, doc_of_g[s:s + CH], bits * 2 - 1)
        has = counts > 0
        bitset = (acc > 0).astype(np.uint64)
        out = (bitset << shifts[None, :]).sum(axis=1, dtype=np.uint64)
        out[~has] = 0
        return batch.append_column("simhash", pa.array(out.view(np.int64)))


_POP16 = np.unpackbits(np.arange(1 << 16, dtype=np.uint16).view(np.uint8)) \
    .reshape(-1, 16).sum(axis=1).astype(np.int64)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount via the 16-bit lookup table (numpy 1.x
    has no bitwise_count)."""
    d = np.zeros(len(x), dtype=np.int64)
    for s in range(0, 64, 16):
        d += _POP16[((x >> np.uint64(s)) & np.uint64(0xFFFF)).astype(np.int64)]
    return d


def _simhash_band_keys(h: np.ndarray) -> np.ndarray:
    """(n, 4) int64 combined (band << 16 | 16-bit segment) bucket keys — a
    pure function of the simhash, recomputable by any holder of the pair."""
    return np.stack(
        [(np.int64(b) << np.int64(16))
         | ((h >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
         for b in range(4)], axis=1)


def simhash_dedup(ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id",
                  max_hamming: int = 3, max_bucket: int = 512,
                  concurrency: int | None = None,
                  exact_band_recall: bool = False) -> ray.data.Dataset:
    """Near-dup pairs by simhash: 4 x 16-bit band buckets (any pair within
    hamming distance 3 shares at least one exact band), exact hamming check
    per bucket.

    ONE wide op, same design as minhash_lsh_dedup: each pair is emitted only
    from its FIRST matching band — band equality is the pair's xor restricted
    to that band's 16 bits, computable locally from the two hashes in hand —
    so no second high-cardinality pair-dedup Aggregate is needed.

    Buckets larger than ``max_bucket`` are low-information band collisions
    (e.g. the all-zero band of short docs) and are dropped.  With the
    default ``exact_band_recall=False`` this loses not only pairs whose
    every matching band is oversize but ALSO pairs whose FIRST matching
    band is oversize even when a later matching band's bucket is small —
    the first-band rule suppresses them cross-band (the later band's group
    cannot know the earlier bucket was dropped).  Mass-identical duplicates
    belong to exact_dedup, which catches them exactly.
    ``exact_band_recall=True`` removes the cross-band suppression exactly
    like minhash_lsh_dedup: a narrow count pass finds the oversize
    (band, bucket) keys, broadcast to the pair stage, and each pair emits
    from its first matching band whose bucket was actually processed.

    The pair loop is np.triu_indices + LUT popcount — no per-row Python."""
    hashed = ds.map_batches(SimHasher(text_col), batch_format="pyarrow",
                            concurrency=concurrency)

    def emit(batch: pa.Table) -> pa.Table:
        h = batch["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        keys = _simhash_band_keys(h)                     # (n, 4)
        band = np.repeat(np.arange(4, dtype=np.int64), len(h))
        return pa.table({"band": pa.array(band),
                         "bucket": pa.array(keys.T.reshape(-1) & np.int64(0xFFFF)),
                         id_col: pa.array(np.tile(ids, 4)),
                         "simhash": pa.array(np.tile(h.view(np.int64), 4))})

    dropped = np.zeros(0, dtype=np.int64)
    if exact_band_recall:
        hashed = hashed.select_columns([id_col, "simhash"]).materialize()

        def emit_keys(batch: pa.Table) -> pa.Table:
            h = batch["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
            return pa.table({"bkey": pa.array(_simhash_band_keys(h).reshape(-1))})

        dropped = _oversize_bucket_keys(
            hashed.map_batches(emit_keys, batch_format="pyarrow"), max_bucket)
    dropped_ref = ray.put(dropped)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"left_id": pd.Series([], dtype=g[id_col].dtype),
                              "right_id": pd.Series([], dtype=g[id_col].dtype),
                              "hamming": pd.Series([], dtype=np.int64)})
        if len(g) < 2 or len(g) > max_bucket:
            return empty
        band = int(g["band"].iloc[0])
        g = g.sort_values(id_col).drop_duplicates(id_col)
        m = len(g)
        if m < 2:
            return empty
        ids = g[id_col].to_numpy()
        h = g["simhash"].to_numpy().view(np.uint64)
        iu, ju = np.triu_indices(m, 1)
        x = h[iu] ^ h[ju]
        dist = _popcount64(x)
        # first matching band of each pair with a processed bucket (xor band
        # segment == 0; oversize keys arrive by broadcast)
        seg_eq = np.stack([(x >> np.uint64(16 * b)) & np.uint64(0xFFFF) == 0
                           for b in range(4)], axis=1)
        drop = ray.get(dropped_ref)
        if len(drop):
            band_ok = seg_eq & ~np.isin(_simhash_band_keys(h)[iu], drop)
        else:
            band_ok = seg_eq
        any_ok = band_ok.any(axis=1)
        first = np.argmax(band_ok, axis=1)
        hit = (dist <= max_hamming) & any_ok & (first == band)
        if not hit.any():
            return empty
        return pd.DataFrame({"left_id": ids[iu[hit]], "right_id": ids[ju[hit]],
                             "hamming": dist[hit]})

    return hashed.map_batches(emit, batch_format="pyarrow") \
        .groupby(["band", "bucket"]).map_groups(pairs, batch_format="pandas")


def embedding_dedup(ds: ray.data.Dataset, emb_col: str = "embedding",
                    id_col: str = "vec_id", threshold: float = 0.95,
                    nbits: int = 12, seed: int = 7,
                    max_bucket: int = 512, max_depth: int = 24) -> ray.data.Dataset:
    """Embedding cosine near-dup: random-hyperplane LSH bucket (nbits) ->
    exact cosine inside buckets -> pairs with cos >= threshold.

    Scale path: 2^nbits buckets bound the number of groups, and oversize
    groups are recursively SPLIT locally with additional seeded hyperplanes
    until each piece is <= ``max_bucket`` — so per-group work is O(max_bucket²)
    regardless of corpus size (a fixed nbits alone only bounds the group
    *count*; at 1B vectors a bucket would hold ~1M members).  Identical
    vectors project identically and never separate; near-identical pairs can
    straddle a split plane (standard LSH recall loss — raise nbits/max_bucket
    for higher recall).  A group still oversize after ``max_depth`` splits is
    a mass-duplicate cluster; its pairs are truncated to the first
    ``max_bucket`` members (exact_dedup owns mass duplicates).  The groupby
    key is the bucket hash; embeddings shuffle once."""
    state = {}

    def emit(batch: pa.Table) -> pa.Table:
        arr = batch[emb_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        flat = np.asarray(arr.flatten(), dtype=np.float64)
        dim = len(flat) // max(batch.num_rows, 1)
        emb = flat.reshape(batch.num_rows, dim)
        if "planes" not in state:
            rng = np.random.default_rng(seed)
            state["planes"] = rng.standard_normal((dim, nbits))
        proj = emb @ state["planes"]
        bits = (proj > 0).astype(np.uint64)
        bucket = np.zeros(batch.num_rows, dtype=np.uint64)
        for b in range(nbits):
            bucket |= bits[:, b] << np.uint64(b)
        norm = np.linalg.norm(emb, axis=1, keepdims=True)
        emb_n = emb / np.where(norm == 0, 1.0, norm)
        sig = [e.astype(np.float32).tobytes() for e in emb_n]
        return pa.table({"bucket": pa.array(bucket.view(np.int64)),
                         id_col: batch[id_col],
                         "emb_n": pa.array(sig, type=pa.binary())})

    def _exact_pairs(ids: np.ndarray, emb: np.ndarray) -> list[pd.DataFrame]:
        sims = emb @ emb.T
        iu, ju = np.triu_indices(len(ids), 1)
        hit = sims[iu, ju] >= threshold
        if not hit.any():
            return []
        return [pd.DataFrame({"left_id": ids[iu[hit]], "right_id": ids[ju[hit]],
                              "cosine": sims[iu[hit], ju[hit]].astype(np.float64)})]

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"left_id": pd.Series([], dtype=g[id_col].dtype),
                              "right_id": pd.Series([], dtype=g[id_col].dtype),
                              "cosine": pd.Series([], dtype=np.float64)})
        if len(g) < 2:
            return empty
        g = g.sort_values(id_col)
        ids0 = g[id_col].to_numpy()
        emb0 = np.stack([np.frombuffer(b, dtype=np.float32) for b in g["emb_n"]])
        out: list[pd.DataFrame] = []
        stack = [(ids0, emb0, 0)]
        while stack:
            ids, emb, depth = stack.pop()
            if len(ids) < 2:
                continue
            if len(ids) <= max_bucket:
                out.extend(_exact_pairs(ids, emb))
                continue
            if depth >= max_depth:
                out.extend(_exact_pairs(ids[:max_bucket], emb[:max_bucket]))
                continue
            # deterministic per-depth split plane (independent of the
            # bucketing planes: offset stream)
            rng = np.random.default_rng(seed + 100_003 * (depth + 1))
            plane = rng.standard_normal(emb.shape[1]).astype(np.float32)
            side = emb @ plane > 0
            stack.append((ids[side], emb[side], depth + 1))
            stack.append((ids[~side], emb[~side], depth + 1))
        if not out:
            return empty
        return pd.concat(out, ignore_index=True)

    return ds.map_batches(emit, batch_format="pyarrow") \
        .groupby("bucket").map_groups(pairs, batch_format="pandas")


def ngram_jaccard_pairs(pairs: ray.data.Dataset, docs: ray.data.Dataset,
                        n: int = 3, text_col: str = "text",
                        id_col: str = "doc_id",
                        min_jaccard: float = 0.0) -> ray.data.Dataset:
    """EXACT character-n-gram Jaccard for candidate pairs (the verification
    stage after a sketch-based finder like minhash_lsh_dedup).

    Ray shape: the pair table is small (O(duplicates)), so it hash-joins the
    documents table twice to fetch both texts — the full corpus never
    replicates, only the candidate rows — then a per-batch exact
    set-intersection verification.  Returns (left_id, right_id, jaccard)
    with jaccard >= ``min_jaccard``."""
    left = docs.map_batches(
        lambda t: pa.table({"left_id": t[id_col], "_lt": t[text_col]}),
        batch_format="pyarrow")
    right = docs.map_batches(
        lambda t: pa.table({"right_id": t[id_col], "_rt": t[text_col]}),
        batch_format="pyarrow")
    np_ = _join_partitions()
    j = join_safe(pairs, left, join_type="inner", num_partitions=np_, on=("left_id",))
    j = join_safe(j, right, join_type="inner", num_partitions=np_, on=("right_id",))

    def verify(t: pa.Table) -> pa.Table:
        lt = t["_lt"].to_numpy(zero_copy_only=False)
        rt = t["_rt"].to_numpy(zero_copy_only=False)
        jac = np.empty(len(lt))
        for i in range(len(lt)):
            a = {lt[i][k:k + n] for k in range(max(len(lt[i]) - n + 1, 1))}
            b = {rt[i][k:k + n] for k in range(max(len(rt[i]) - n + 1, 1))}
            u = len(a | b)
            jac[i] = (len(a & b) / u) if u else 1.0
        keep = jac >= min_jaccard
        return pa.table({"left_id": t["left_id"].filter(pa.array(keep)),
                         "right_id": t["right_id"].filter(pa.array(keep)),
                         "jaccard": pa.array(jac[keep])})

    return j.map_batches(verify, batch_format="pyarrow")


def doc_chunks(ds: ray.data.Dataset, text_col: str = "text",
               id_col: str = "doc_id",
               words_per_chunk: int = 8) -> ray.data.Dataset:
    """Explode documents into fixed-width word chunks: one row per
    (doc_id, chunk_index, chunk_text), where chunk i holds words
    [i*W, (i+1)*W).  Splitting is an Arrow kernel; the per-chunk joins are
    output-proportional pandas string aggs (no per-word Python loop)."""
    import pyarrow.compute as pc

    def explode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "chunk_idx": pa.array([], pa.int64()),
                             "chunk": pa.array([], pa.string())})
        ids = t[id_col].to_numpy(zero_copy_only=False)
        words = pc.split_pattern(t[text_col].combine_chunks(), " ")
        lens = pc.list_value_length(words).to_numpy().astype(np.int64)
        flat = np.asarray(words.flatten(), dtype=object)
        doc_pos = np.repeat(np.arange(len(ids)), lens)
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        widx = np.arange(len(flat)) - starts
        cid = widx // words_per_chunk
        df = pd.DataFrame({"_d": doc_pos, "chunk_idx": cid, "_w": flat})
        g = df.groupby(["_d", "chunk_idx"], sort=False)["_w"] \
              .agg(" ".join).reset_index()
        return pa.table({
            id_col: pa.array(ids[g["_d"].to_numpy()], pa.int64()),
            "chunk_idx": pa.array(g["chunk_idx"].to_numpy(), pa.int64()),
            "chunk": pa.array(g["_w"].to_numpy(), pa.string())})

    return ds.map_batches(explode, batch_format="pyarrow")


def paragraph_dedup(ds: ray.data.Dataset, text_col: str = "text",
                    id_col: str = "doc_id", words_per_chunk: int = 8,
                    max_chunks_per_doc: int = 10**9) -> ray.data.Dataset:
    """Chunk-level exact dedup (the Lee et al. 2022 "Deduplicating Training
    Data" granularity, on fixed word windows): every W-word chunk survives
    only at its globally FIRST occurrence (min doc_id, then min chunk_idx);
    documents are reassembled from their surviving chunks.  Docs whose
    chunks are all duplicates disappear.

    Ray shape (two range sorts, ZERO joins, no high-cardinality hash
    aggregate):
      1. explode to chunks (``doc_chunks``), pack (doc_id, chunk_idx) into
         one int64 order key;
      2. block-local combiner: keep only the min-packed row per chunk per
         batch, so a chunk duplicated 10^9 times contributes <= 1 row per
         input block to the shuffle (hot-chunk skew bound);
      3. ``window.group_row_number`` on (chunk, packed) — one range sort +
         O(#blocks) driver carry — and keep rn == 1 (the global first);
      4. reassemble with ``groupagg.grouped_string_agg`` on
         (doc_id, chunk_idx) — the second range sort.

    SQL equivalent: min(packed) OVER (PARTITION BY chunk) + string_agg.

    Packing bound: the order key is doc_id * max_chunks_per_doc +
    chunk_idx in int64, so doc_id must stay below 2^63 / max_chunks_per_doc
    (~9.2e9 at the 1e9 default — lower max_chunks_per_doc for larger id
    spaces).
    """
    from .groupagg import grouped_string_agg
    from .window import group_row_number

    chunks = doc_chunks(ds, text_col=text_col, id_col=id_col,
                        words_per_chunk=words_per_chunk)
    m = max_chunks_per_doc

    def pack_and_combine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"chunk": pa.array([], pa.string()),
                             "packed": pa.array([], pa.int64())})
        ids = t[id_col].to_numpy(zero_copy_only=False)
        cid = t["chunk_idx"].to_numpy(zero_copy_only=False)
        if cid.max(initial=0) >= m:
            raise ValueError(f"chunk_idx >= max_chunks_per_doc ({m}); "
                             "raise max_chunks_per_doc")
        df = pd.DataFrame({"chunk": t["chunk"].to_numpy(zero_copy_only=False),
                           "packed": ids * m + cid})
        g = df.groupby("chunk", sort=False)["packed"].min().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    combined = chunks.map_batches(pack_and_combine, batch_format="pyarrow")
    ranked = group_row_number(combined, "chunk", ["packed"], out_col="_rn")

    def first_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        keep = t.filter(pc.equal(t["_rn"], pa.scalar(1, pa.int64())))
        packed = keep["packed"].to_numpy(zero_copy_only=False)
        return pa.table({id_col: pa.array(packed // m, pa.int64()),
                         "chunk_idx": pa.array(packed % m, pa.int64()),
                         "chunk": keep["chunk"]})

    kept = ranked.map_batches(first_only, batch_format="pyarrow")
    return grouped_string_agg(kept, key=id_col, order_col="chunk_idx",
                              text_col="chunk", sep=" ", out_col=text_col)


def prefer_one_per_group(ds: "ray.data.Dataset", group_cols,
                         priority_col: str, id_col: str = "doc_id",
                         max_id: int = 1 << 47) -> "ray.data.Dataset":
    """Provenance-preferring dedup: keep ONE row id per group — the one
    with the smallest (priority, id) — the 'web < books < wiki' source
    preference common in corpus curation (SQL: QUALIFY ROW_NUMBER() OVER
    (PARTITION BY group ORDER BY priority, id) = 1).

    Scale shape: (priority, id) packs into one int64 (priority * 2^47 +
    id), so the whole argmin is ONE ``grouped_reduce`` min — sort-based,
    unbounded group cardinality, payload never shuffles.  Output:
    group_cols + id_col + priority_col of the kept row."""
    import pandas as pd

    from .groupagg import grouped_reduce

    keys = [group_cols] if isinstance(group_cols, str) else list(group_cols)

    def pack(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        pri = t[priority_col].to_numpy(zero_copy_only=False).astype(np.int64)
        max_pri = (np.iinfo(np.int64).max // max_id) - 1
        if len(ids) and (ids.max() >= max_id or ids.min() < 0
                         or pri.min() < 0 or pri.max() > max_pri):
            raise ValueError("prefer_one_per_group: id/priority out of "
                             f"packable range (id < {max_id}, "
                             f"0 <= priority <= {max_pri})")
        cols = {k: t[k] for k in keys}
        cols["_packed"] = pa.array(pri * np.int64(max_id) + ids, pa.int64())
        return pa.table(cols)

    red = grouped_reduce(ds.map_batches(pack, batch_format="pyarrow"),
                         keys, {"_packed": "_packed"}, how="min")

    def unpack(t: pa.Table) -> pa.Table:
        packed = t["_packed"].to_numpy(zero_copy_only=False)
        cols = {k: t[k] for k in keys}
        cols[id_col] = pa.array(packed % np.int64(max_id), pa.int64())
        cols[priority_col] = pa.array(packed // np.int64(max_id), pa.int64())
        return pa.table(cols)

    return red.map_batches(unpack, batch_format="pyarrow")


def set_similarity_join(ds: "ray.data.Dataset", text_col: str = "text",
                        id_col: str = "doc_id", tau_1e6: int = 900000,
                        max_bucket: int | None = None) -> "ray.data.Dataset":
    """EXACT all-pairs set-similarity self-join: every pair of documents
    whose distinct-word-set Jaccard >= tau_1e6/1e6, found with PREFIX
    FILTERING (the SSJoin/PPJoin family, Chaudhuri et al. 2006 / Bayardo
    et al. 2007) — no sketch, no recall loss, unlike minhash_lsh_dedup
    (dedup.py:183) whose banding can miss true pairs.

    Algorithm: under ANY global token order, two sets of sizes (sa, sb)
    with Jaccard >= t must share a token among the first
    p(s) = s - ceil(t*s) + 1 tokens of each (their "prefixes").  Ordering
    tokens by ascending document frequency makes prefixes the RAREST
    tokens, so candidate buckets stay small.

    Ray shape (one narrow pass + vocab-bounded shuffles; text never
    replicates beyond candidate rows):
      1. corpus df via token_document_frequency (vocab-bounded shuffle),
         broadcast once with ray.put — at open-vocab web scale you would
         cap to the top-K tokens and hash-order the tail (the order only
         needs to be GLOBAL and deterministic, not frequency-perfect;
         correctness never depends on df accuracy).
      2. per-batch: distinct tokens per doc, argsort by (df, token), emit
         only the p(s) prefix rows (token, id, set_size).
      3. bucket by prefix token (group count = vocab-bounded), vectorized
         in-bucket pair generation with the Jaccard length filter
         (1e6 * min_size >= tau_1e6 * max_size prunes impossible pairs).
      4. distinct candidate pairs via grouped_reduce (a pair can surface
         from several shared prefix tokens).
      5. exact verify: the candidate pairs (answer-ish-sized) hash-join
         the corpus twice for texts; per-pair exact set intersection.
    Output: (id_a, id_b, n_shared, n_union) with id_a < id_b and
    1e6 * n_shared >= tau_1e6 * n_union — all-integer, so the SQL twin
    (distinct-token self-join) matches bit-exactly.

    ``max_bucket`` (default None = exact) optionally drops oversize
    prefix-token buckets, trading exactness for skew protection; leave
    None unless a pathological token order makes a hot bucket.
    """
    import pandas as pd

    from .groupagg import grouped_reduce
    from .text import token_document_frequency

    df_tbl = token_document_frequency(ds, text_col=text_col, id_col=id_col)
    dfp = df_tbl.to_pandas()  # vocab-bounded by contract (see docstring)
    order_ref = ray.put(pd.Series(dfp["df"].to_numpy(np.int64),
                                  index=dfp["tok"].to_numpy()))

    class _Prefixes:
        """Actor stage: df Series deserialized once per actor, prefix
        emission fully vectorized (explode -> distinct -> lexsort by
        (doc, df, tok) -> cumcount < p(set_size))."""

        def __init__(self):
            self.df = ray.get(order_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            from .text import _space_tokens
            empty = pa.table({"tok": pa.array([], pa.string()),
                              "_id": pa.array([], pa.int64()),
                              "_sz": pa.array([], pa.int64())})
            if t.num_rows == 0:
                return empty
            ids = t[id_col].to_numpy(zero_copy_only=False)
            _, off, flat = _space_tokens(t[text_col])
            doc_of = np.repeat(np.arange(t.num_rows, dtype=np.int64),
                               np.diff(off))
            pdf = pd.DataFrame({"d": doc_of, "tok": flat.to_pandas()})
            pdf = pdf[pdf["tok"] != ""].drop_duplicates()
            if not len(pdf):
                return empty
            pdf["_df"] = pdf["tok"].map(self.df).to_numpy(np.int64)
            pdf = pdf.sort_values(["d", "_df", "tok"], kind="stable")
            g = pdf.groupby("d", sort=False)
            sz = g["tok"].transform("size").to_numpy(np.int64)
            rank = g.cumcount().to_numpy(np.int64)
            p = sz - ((tau_1e6 * sz + 999999) // 1000000) + 1
            keep = rank < p
            return pa.table({
                "tok": pa.array(pdf["tok"].to_numpy()[keep], pa.string()),
                "_id": pa.array(ids[pdf["d"].to_numpy()[keep]], pa.int64()),
                "_sz": pa.array(sz[keep], pa.int64())})

    # elastic pool (min 1): a fixed min-size pool larger than the
    # cluster's free CPUs can deadlock the streaming executor when a
    # downstream sort also needs CPUs (observed at num_cpus=4 in tests)
    pref = ds.map_batches(_Prefixes, batch_format="pyarrow",
                          concurrency=(1, 8))

    def bucket_pairs(g: "pd.DataFrame") -> "pd.DataFrame":
        n = len(g)
        if n < 2 or (max_bucket is not None and n > max_bucket):
            return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                                 "id_b": pd.Series([], dtype=np.int64)})
        ids = g["_id"].to_numpy()
        sz = g["_sz"].to_numpy()
        o = np.argsort(ids, kind="stable")
        ids, sz = ids[o], sz[o]
        ai, bi = np.triu_indices(n, k=1)
        # length filter: Jaccard >= t forces t*max(sa,sb) <= min(sa,sb)
        lo = np.minimum(sz[ai], sz[bi]).astype(np.int64)
        hi = np.maximum(sz[ai], sz[bi]).astype(np.int64)
        keep = (1000000 * lo >= tau_1e6 * hi) & (ids[ai] != ids[bi])
        return pd.DataFrame({"id_a": ids[ai][keep], "id_b": ids[bi][keep]})

    cand = pref.groupby("tok").map_groups(bucket_pairs, batch_format="pandas")
    cand = grouped_reduce(
        cand.map_batches(lambda t: t.append_column(
            "_one", pa.array(np.ones(t.num_rows, np.int64))),
            batch_format="pyarrow"),
        ["id_a", "id_b"], {"_one": "_one"}, how="min").drop_columns(["_one"])

    from .bloom import _coalesce_for_join

    np_ = _join_partitions()
    # answer-sized guard: zero candidate pairs must short-circuit — empty
    # blocks reaching the hash join poison its schema broadcast (see
    # _coalesce_for_join)
    cand, n_cand = _coalesce_for_join(cand, np_)
    if n_cand == 0:
        return ray.data.from_arrow(pa.table({
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "n_shared": pa.array([], pa.int64()),
            "n_union": pa.array([], pa.int64())}))

    def _sel(a_col, t_col):
        # generator map: drop empty blocks so the join's schema broadcast
        # always rides a non-empty first block (corpus never materializes)
        def g(t: pa.Table):
            if t.num_rows:
                yield pa.table({a_col: t[id_col], t_col: t[text_col]})
        return g

    left = ds.map_batches(_sel("id_a", "_lt"), batch_format="pyarrow")
    right = ds.map_batches(_sel("id_b", "_rt"), batch_format="pyarrow")
    j = join_safe(cand, left, join_type="inner", num_partitions=np_, on=("id_a",))
    j = join_safe(j, right, join_type="inner", num_partitions=np_, on=("id_b",))

    def verify(t: pa.Table) -> pa.Table:
        lt = t["_lt"].to_numpy(zero_copy_only=False)
        rt = t["_rt"].to_numpy(zero_copy_only=False)
        n = len(lt)
        shared = np.empty(n, np.int64)
        union = np.empty(n, np.int64)
        for i in range(n):
            a = set(lt[i].split(" ")); a.discard("")
            b = set(rt[i].split(" ")); b.discard("")
            shared[i] = len(a & b)
            union[i] = len(a | b)
        keep = (1000000 * shared >= tau_1e6 * union) & (union > 0)
        m = pa.array(keep)
        return pa.table({"id_a": t["id_a"].filter(m),
                         "id_b": t["id_b"].filter(m),
                         "n_shared": pa.array(shared[keep]),
                         "n_union": pa.array(union[keep])})

    return j.map_batches(verify, batch_format="pyarrow")


def duplicated_window_counts(ds: "ray.data.Dataset", window: int = 8,
                             text_col: str = "text",
                             id_col: str = "doc_id") -> "ray.data.Dataset":
    """Per-document count of ``window``-token rolling windows (stride 1)
    that occur MORE THAN ONCE in the corpus — the cross-document
    exact-substring duplication signal of Lee et al. 2022 ("Deduplicating
    Training Data Makes Language Models Better"), which catches boilerplate
    and templated near-dups that whole-document hashing misses.

    Output: (doc_id, n_windows, n_dup_windows) for every doc with at least
    one full window; n_dup_windows counts window POSITIONS whose text
    occurs >= 2 times corpus-wide (including twice within one doc).

    Ray shape:
      1. one corpus map emits (w, doc_id) per window position — window
         strings assembled zero-Python-loop with
         ``pc.binary_join_element_wise`` over ``window`` shifted takes of
         the flat token array.
      2. per-doc totals: grouped_count on doc_id.
      3. corpus window counts: grouped_count on the window string (the
         wide op; sort-based, no hash aggregate).  At open-web scale key
         on the rolling 64-bit gram hash (``text._gram_hashes``) instead
         of the string to shrink the exchange ~10x — the string key is
         kept here for bit-exact SQL-oracle parity.
      4. dup window set (count >= 2, typically corpus-small) semi-joins
         the position table via ``bloom_semi_join`` — non-duplicated
         positions never reach that exchange; then one grouped_count per
         doc and a left_outer join onto the totals (null -> 0).
    """
    import pyarrow.compute as pc

    from .bloom import _coalesce_for_join, bloom_semi_join
    from .groupagg import grouped_count
    from .text import _space_tokens

    W = window

    def windows(t: pa.Table) -> pa.Table:
        empty = pa.table({"w": pa.array([], pa.string()),
                          "doc_id": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        _, off, flat = _space_tokens(t[text_col])
        lens = np.diff(off)
        nw = np.maximum(lens - W + 1, 0)
        total = int(nw.sum())
        if total == 0:
            return empty
        doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), nw)
        cum = np.concatenate([[0], np.cumsum(nw)[:-1]])
        starts = (np.arange(total, dtype=np.int64)
                  - np.repeat(cum, nw) + np.repeat(off[:-1], nw))
        cols = [flat.take(pa.array(starts + j)) for j in range(W)]
        w = pc.binary_join_element_wise(*cols, " ")
        return pa.table({"w": w,
                         "doc_id": pa.array(ids[doc_idx], pa.int64())})

    # three consumers (per-doc totals, corpus counts, dup semi-join) —
    # materialize once so the window-assembly map runs ONE time; the
    # (w, doc_id) table is the narrowest projection all three need, and
    # the object store spills it rather than recomputing ~3x
    win = ds.map_batches(windows, batch_format="pyarrow").materialize()
    totals = grouped_count(win, "doc_id", out_col="n_windows")

    cnt = grouped_count(win, "w", out_col="_c")
    dups = cnt.map_batches(
        lambda t: t.filter(pc.greater(t["_c"], 1)).select(["w"]),
        batch_format="pyarrow")
    dup_pos = bloom_semi_join(win, dups, "w")
    dup_counts = grouped_count(dup_pos, "doc_id",
                               out_col="_nd").map_batches(
        lambda t: pa.table({"_dd": t["doc_id"], "_nd": t["_nd"]}),
        batch_format="pyarrow")

    parts = _join_partitions()
    totals, n_tot = _coalesce_for_join(totals, parts)
    if n_tot == 0:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_windows": pa.array([], pa.int64()),
            "n_dup_windows": pa.array([], pa.int64())}))
    dup_counts, n_dup = _coalesce_for_join(dup_counts, max(2, parts // 4))
    if n_dup == 0:
        return totals.map_batches(
            lambda t: t.append_column("n_dup_windows", pa.array(
                np.zeros(t.num_rows, np.int64))),
            batch_format="pyarrow")
    j = join_safe(totals, dup_counts, join_type="left_outer",
                    num_partitions=parts, on=("doc_id",), right_on=("_dd",))

    def fin(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"].cast(pa.int64()),
            "n_windows": t["n_windows"].cast(pa.int64()),
            "n_dup_windows": pc.fill_null(t["_nd"], 0).cast(pa.int64())})

    return j.map_batches(fin, batch_format="pyarrow")


def snm_pairs(ds: "ray.data.Dataset", key_cols, id_col: str = "doc_id",
              window: int = 8, bucket_rows: int = 4096) -> "ray.data.Dataset":
    """Sorted-Neighborhood Method blocking (Hernandez & Stolfo 1995, the
    classic entity-resolution candidate generator): sort the corpus by a
    blocking key, slide a ``window``-row window over the GLOBAL order and
    emit every in-window row pair.  Complements the content-sketch
    blockers (minhash/simhash/embedding LSH): recall is governed by the
    key + window, cost is exactly O(n * (window-1)) pairs — no hot-bucket
    skew by construction.

    Ray shape (ONE sort, no self-join):
      1. global row number over (key_cols..., id_col) — the group_row_number
         carry chain with a constant group (one range sort, O(#blocks)
         driver summaries);
      2. each row goes to rank-bucket ``rn // B`` and, when its rank sits
         in the first ``window-1`` slots of its bucket, also to the
         previous bucket (the only replication: window-1 rows per bucket);
      3. per-bucket vectorized pair expansion (searchsorted on rank, no
         O(B^2) triu): a pair is emitted from its LEFT row's native bucket
         — exactly once.
    Output: (id_a, id_b) plus the key columns of the LEFT row, with
    rank(id_a) < rank(id_b) and rank difference < window — bit-exact to
    the SQL ROW_NUMBER self-join twin.  Buckets are ~``bucket_rows`` rows,
    so group count is n/B (driver-light) and per-group work is O(B +
    pairs)."""
    import pandas as pd

    from .window import group_row_number

    keys = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    B = max(int(bucket_rows), int(window))

    def addg(t: pa.Table) -> pa.Table:
        return t.append_column("_g", pa.array(np.zeros(t.num_rows, np.int8)))

    rn = group_row_number(
        ds.select_columns(keys + [id_col]).map_batches(
            addg, batch_format="pyarrow"),
        "_g", keys + [id_col], out_col="_rn")

    def to_buckets(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["_g"])
        r = t["_rn"].to_numpy()
        b = r // B
        native = t.append_column("_bk", pa.array(b))
        spill = (r % B) < (window - 1)
        repl = t.filter(pa.array(spill & (b > 0)))
        if repl.num_rows:
            rb = repl["_rn"].to_numpy() // B - 1
            native = pa.concat_tables([native,
                                       repl.append_column("_bk",
                                                           pa.array(rb))])
        return native

    keyed = rn.map_batches(to_buckets, batch_format="pyarrow")

    def bucket_pairs(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values("_rn", kind="stable", ignore_index=True)
        r = g["_rn"].to_numpy(np.int64)
        bk = int(g["_bk"].iloc[0])
        n = len(g)
        native = (r // B) == bk
        hi = np.searchsorted(r, r + window, side="left")
        counts = np.where(native, hi - np.arange(n) - 1, 0)
        tot = int(counts.sum())
        cols = {f"{c}_a": pd.Series([], dtype=g[c].dtype) for c in keys}
        if tot == 0:
            return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                                 "id_b": pd.Series([], dtype=np.int64),
                                 **cols})
        li = np.repeat(np.arange(n), counts)
        base = np.repeat(np.cumsum(counts) - counts, counts)
        ri = np.arange(tot) - base + li + 1
        ids = g[id_col].to_numpy()
        out = {"id_a": ids[li], "id_b": ids[ri]}
        for c in keys:
            out[f"{c}_a"] = g[c].to_numpy()[li]
        return pd.DataFrame(out)

    return keyed.groupby("_bk").map_groups(bucket_pairs,
                                           batch_format="pandas")
