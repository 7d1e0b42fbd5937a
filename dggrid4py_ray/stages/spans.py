"""Span-aware stages for the interleaved-documents table.

The per-row invariant (driver input_hint / SURVEY.md §1.2): after any
pipeline, the span sequence (kind, text, media_ref, order) of every doc_id is
byte-equal to the input.  The default path therefore encodes geo spans
**in place** — cell ids are emitted as an aligned side column
``span_cell_ids: list<int64>`` (-1 for non-geo spans) without ever exploding
media bytes through a shuffle.  An explode/reassemble pair is provided for
pipelines that genuinely need span-level rows (and for invariant tests).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..config import Dggs, dgselect
from ..dggs.igeo7 import INVALID_ID
from ..stages.encode import make_grid


def _spans_array(batch: pa.Table, col: str = "spans") -> pa.ListArray:
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return arr


def _spans_struct(batch: pa.Table, col: str = "spans"):
    """(struct values, zero-based offsets) of the spans list column — the
    slice/renormalize idiom in ONE place (a list array sliced out of a
    larger buffer has offsets that do not start at 0)."""
    spans = _spans_array(batch, col)
    offsets = spans.offsets.to_numpy()
    struct = spans.values.slice(offsets[0], offsets[-1] - offsets[0])
    return struct, offsets - offsets[0]


def _parse_lonlat(texts) -> tuple[np.ndarray, np.ndarray]:
    """Parse "lon lat" payloads.  Fast path: pyarrow split + cast (~18x the
    pandas route); malformed batches fall back to pandas coerce-to-NaN."""
    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(texts, type=pa.string())
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    try:
        parts = pa.compute.split_pattern(texts, " ", max_splits=1)
        ln = pa.compute.list_value_length(parts).to_numpy(zero_copy_only=False)
        if (ln == 2).all():
            vals = pa.compute.cast(parts.values, pa.float64()) \
                .to_numpy(zero_copy_only=False)
            return vals[0::2].astype(np.float64), vals[1::2].astype(np.float64)
    except pa.ArrowInvalid:
        pass
    s = pd.Series(texts.to_numpy(zero_copy_only=False), dtype=object) \
        .str.split(" ", n=1, expand=True)
    lon = pd.to_numeric(s[0], errors="coerce").to_numpy(dtype=np.float64) \
        if 0 in s.columns else np.full(len(s), np.nan)
    # a batch where NO text contains a space yields a 1-column expand —
    # coerce to NaN (invalid span) instead of KeyError
    lat = pd.to_numeric(s[1], errors="coerce").to_numpy(dtype=np.float64) \
        if 1 in s.columns else np.full(len(s), np.nan)
    return lon, lat


class SpanCellEncoder:
    """map_batches actor: doc rows in -> doc rows out + span_cell_ids.

    Never mutates `spans` (the invariant column); geo spans are parsed from
    their "lon lat" text payload and encoded; non-geo spans get -1."""

    def __init__(self, dggs: Dggs | None = None, resolution: int = 9,
                 spans_col: str = "spans", out_col: str = "span_cell_ids"):
        self.dggs = dggs or dgselect("IGEO7", resolution=resolution)
        # state is resolved lazily via the per-PROCESS grid cache
        # (stages.encode.grid_for): the pickled UDF carries only the config;
        # each worker builds/loads the engine (+ /tmp-cached bridge tables)
        # once and keeps its slow-path memos warm across tasks.
        self.spans_col = spans_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        struct, offsets = _spans_struct(batch, self.spans_col)
        kind_arr = struct.field("kind")
        geo_mask = pa.compute.fill_null(pa.compute.equal(kind_arr, "geo"), False)
        geo = geo_mask.to_numpy(zero_copy_only=False).astype(bool)
        cell = np.full(len(struct), INVALID_ID, dtype=np.int64)
        if geo.any():
            lon, lat = _parse_lonlat(struct.field("text").filter(geo_mask))
            ok = ~(np.isnan(lon) | np.isnan(lat))
            z = np.full(geo.sum(), INVALID_ID, dtype=np.int64)
            if ok.any():
                from .encode import grid_for
                z[ok] = grid_for(self.dggs).encode(lon[ok], lat[ok],
                                                   self.dggs.resolution)
            cell[geo] = z
        out = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()),
                                       pa.array(cell, type=pa.int64()))
        return batch.append_column(self.out_col, out)


def explode_spans(ds: ray.data.Dataset, spans_col: str = "spans") -> ray.data.Dataset:
    """Doc rows -> span rows (doc_id, span_idx, kind, text, media_ref, offset).

    Projects media refs (strings), never media payloads, per SURVEY §7.4."""

    def explode(batch: pa.Table) -> pa.Table:
        struct, offsets = _spans_struct(batch, spans_col)
        counts = np.diff(offsets)
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        doc_t = batch.schema.field("doc_id").type
        doc_rep = np.repeat(doc, counts)
        span_idx = (np.arange(len(struct), dtype=np.int64)
                    - np.repeat(offsets[:-1], counts))
        out = pa.table({
            "doc_id": pa.array(doc_rep, type=doc_t),
            "span_idx": pa.array(span_idx, type=pa.int32()),
            "kind": struct.field("kind"),
            "text": struct.field("text"),
            "media_ref": struct.field("media_ref"),
            "offset": struct.field("offset"),
        })
        # zero-span docs must survive the explode/reassemble roundtrip:
        # emit one span_idx = -1 marker row each (reassemble turns the
        # marker back into spans=[]) instead of silently dropping the doc
        empty = np.flatnonzero(counts == 0)
        if len(empty):
            n = len(empty)
            marker = pa.table({
                "doc_id": pa.array(doc[empty], type=doc_t),
                "span_idx": pa.array(np.full(n, -1, np.int32)),
                "kind": pa.nulls(n, pa.string()),
                "text": pa.nulls(n, pa.string()),
                "media_ref": pa.nulls(n, pa.string()),
                "offset": pa.nulls(n, pa.int32()),
            })
            out = pa.concat_tables([out, marker])
        return out

    return ds.map_batches(explode, batch_format="pyarrow")


def reassemble_spans(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Span rows -> doc rows, restoring the exact span order.

    Scale shape (round-4 verdict #8 — the sessionize carry-chain
    treatment, replacing per-doc ``map_groups``): ONE range sort on
    (doc_id, span_idx), then a vectorized block-local rebuild
    (segment offsets + ``ListArray.from_arrays`` — no per-doc Python),
    then a tiny boundary pass: a doc can only straddle ADJACENT sorted
    blocks, so each block flags its first/last doc partials and only
    those (<= 2 per block, independent of doc count) are re-merged in a
    second block-count-sized grouped pass."""
    import pyarrow.compute as pc

    fields = ["kind", "text", "media_ref", "offset"]
    srt = ds.sort(["doc_id", "span_idx"])

    def local(t: pa.Table) -> pa.Table:
        doc_t = t.schema.field("doc_id").type
        if t.num_rows == 0:
            styp = pa.struct([(f, t.schema.field(f).type) for f in fields])
            return pa.table({"doc_id": pa.array([], doc_t),
                             "spans": pa.array([], pa.list_(styp)),
                             "_first": pa.array([], pa.int64()),
                             "_b": pa.array([], pa.bool_())})
        doc = t["doc_id"].to_numpy(zero_copy_only=False)
        new = np.r_[True, doc[1:] != doc[:-1]]
        starts = np.flatnonzero(new)
        nseg = len(starts)
        sidx = t["span_idx"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = sidx >= 0                   # zero-span-doc marker rows
        cnt = np.add.reduceat(keep.astype(np.int64), starts)
        offsets = np.zeros(nseg + 1, np.int64)
        np.cumsum(cnt, out=offsets[1:])
        sel = t.filter(pa.array(keep))
        struct = pa.StructArray.from_arrays(
            [sel[f].combine_chunks() for f in fields], names=fields)
        spans = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), struct)
        b = np.zeros(nseg, bool)
        b[0] = True
        b[-1] = True
        return pa.table({"doc_id": pa.array(doc[starts], doc_t),
                         "spans": spans,
                         "_first": pa.array(sidx[starts]),
                         "_b": pa.array(b)})

    parts = srt.map_batches(local, batch_format="pyarrow").materialize()
    interior = parts.map_batches(
        lambda t: t.filter(pc.invert(t["_b"]))
        .drop_columns(["_first", "_b"]), batch_format="pyarrow")
    boundary = parts.map_batches(
        lambda t: t.filter(t["_b"]).drop_columns(["_b"]),
        batch_format="pyarrow")

    def merge(g: pa.Table) -> pa.Table:
        if g.num_rows == 1:
            return g.drop_columns(["_first"])
        # partials are concatenated in ascending first-span_idx order —
        # the blocks tile the sorted order, so this IS the block order
        order = np.argsort(g["_first"].to_numpy(zero_copy_only=False),
                           kind="stable")
        lists = g["spans"].combine_chunks().take(pa.array(order))
        flat = lists.flatten()
        out = pa.ListArray.from_arrays(
            pa.array([0, len(flat)], pa.int32()), flat)
        return pa.table({"doc_id": g["doc_id"].slice(0, 1), "spans": out})

    merged = boundary.groupby("doc_id").map_groups(
        merge, batch_format="pyarrow")
    return interior.union(merged)


def doc_cell_assignments(ds: ray.data.Dataset, resolution: int = 9,
                         concurrency=None, **kw) -> ray.data.Dataset:
    """THE flagship document pipeline (north star): every geometry-bearing
    span of every document assigned to its grid cell, spans preserved
    in place.

    Task-based with the encoder state prebuilt into the UDF instance (fast
    per-task deserialization; see SpanCellEncoder.__init__ note)."""
    dggs = dgselect(kw.pop("dggs_type", "IGEO7"), resolution=resolution, **kw)
    return ds.map_batches(SpanCellEncoder(dggs), batch_format="pyarrow",
                          concurrency=concurrency)


def span_sequence_fingerprint(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Per-doc deterministic hash of the (kind, text, media_ref, order)
    sequence — the invariant check column (cheap to compare before/after any
    pipeline)."""

    def fp(batch: pa.Table) -> pa.Table:
        import hashlib
        struct, offsets = _spans_struct(batch)
        kinds = struct.field("kind").to_numpy(zero_copy_only=False)
        texts = struct.field("text").to_numpy(zero_copy_only=False)
        media = struct.field("media_ref").to_numpy(zero_copy_only=False)

        def feed(h, v):
            # length-prefixed, null-tagged encoding: injective — separator
            # bytes inside values and null vs the literal string 'None'
            # can never collide
            if v is None:
                h.update(b"N")
            else:
                b = str(v).encode()
                h.update(b"V%d:" % len(b))
                h.update(b)

        out = []
        for i in range(batch.num_rows):
            h = hashlib.md5()
            for j in range(offsets[i], offsets[i + 1]):
                feed(h, kinds[j])
                feed(h, texts[j])
                feed(h, media[j])
            out.append(h.hexdigest())
        return pa.table({"doc_id": batch["doc_id"],
                         "span_fp": pa.array(out, type=pa.string())})

    return ds.map_batches(fp, batch_format="pyarrow")


def inherit_media_cells(ds: "ray.data.Dataset", resolution: int = 1,
                        spans_col: str = "spans") -> "ray.data.Dataset":
    """Media spans inherit the cell of the NEAREST PRECEDING geo span in
    their document (the interleaved-document context-assignment rule:
    an image between two location mentions belongs to the last one
    seen).  Entirely within-row — the spans of a doc live in one list
    cell, so the last-observation-carried-forward scan is a vectorized
    running max over flat span indices with per-document resets; no
    explode, no shuffle, media payloads never move.

    Returns span rows (doc_id, span_idx, kind, cell_id) for media spans
    (kind image/audio) whose inherited cell exists; media spans before
    any geo span (impossible for the synthetic generator, whose first
    span is always geo) are dropped."""
    from .encode import grid_for
    from ..config import dgselect

    dggs = dgselect("IGEO7", resolution=resolution)

    def assign(batch: pa.Table) -> pa.Table:
        struct, offsets = _spans_struct(batch, spans_col)
        n_flat = len(struct)
        counts = np.diff(offsets)
        kind = struct.field("kind").to_numpy(zero_copy_only=False)
        cell = np.full(n_flat, INVALID_ID, dtype=np.int64)
        geo_mask = pa.compute.fill_null(
            pa.compute.equal(struct.field("kind"), "geo"), False)
        geo = geo_mask.to_numpy(zero_copy_only=False).astype(bool)
        if geo.any():
            lon, lat = _parse_lonlat(struct.field("text").filter(geo_mask))
            ok = ~(np.isnan(lon) | np.isnan(lat))
            z = np.full(int(geo.sum()), INVALID_ID, dtype=np.int64)
            if ok.any():
                z[ok] = grid_for(dggs).encode(lon[ok], lat[ok],
                                              dggs.resolution)
            cell[geo] = z
        # LOCF over flat indices with per-doc reset: running max of the
        # last valid index crosses doc boundaries only backwards, so
        # clamping at each doc's first flat index invalidates any carry
        # from a previous doc.
        idx = np.arange(n_flat, dtype=np.int64)
        valid = cell != INVALID_ID
        last = np.maximum.accumulate(np.where(valid, idx, -1))
        seg_start = np.repeat(offsets[:-1].astype(np.int64), counts)
        has = last >= seg_start
        inherited = np.where(has, cell[np.maximum(last, 0)], INVALID_ID)
        media = np.isin(kind, ("image", "audio")) & has
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        doc_rep = np.repeat(doc, counts)
        span_idx = idx - seg_start
        return pa.table({
            "doc_id": pa.array(doc_rep[media], pa.string()),
            "span_idx": pa.array(span_idx[media].astype(np.int32)),
            "kind": pa.array(kind[media], pa.string()),
            "cell_id": pa.array(inherited[media], pa.int64())})

    return ds.map_batches(assign, batch_format="pyarrow")
