"""GeoPackage SINK for cell-polygon tables (stdlib sqlite3, no GDAL).

The reference's default temp/output geo-format is GPKG when GDAL is
available (``dggrid_runner.py:44-62`` ``get_geo_out``); this writer gives
the same GIS interop — a QGIS/ogr-openable file — for answer- or
region-sized exports (cell polygons for an extent, clipped selections).
It is NOT the 100-TB sink (that's partitioned parquet via
``state/checkpoint``): sqlite is a single-writer file, so the stream is
consumed driver-side via ``iter_batches``.

Layout written (GeoPackage 1.3 core requirements):
``application_id``/``user_version`` pragmas, ``gpkg_spatial_ref_sys``
(EPSG:4326 + the two mandatory rows), ``gpkg_contents``,
``gpkg_geometry_columns``, and the feature table whose geometry blobs
carry the GP binary header (envelope indicator 1) around standard WKB.

Blobs are built a batch at a time, without per-row parsing: one columnar
walk of the batch's WKB column (``geometry.wkb_envelopes``) gives every
row's envelope, the 40-byte GP headers are filled in as one ``(n, 40)``
byte array, and the only per-row work left is joining each header to its
WKB into the ``bytes`` object sqlite binds.
"""

from __future__ import annotations

import os
import sqlite3

import numpy as np
import pyarrow as pa

from ..geometry import wkb_envelopes

_WGS84_WKT = ('GEOGCS["WGS 84",DATUM["WGS_1984",'
              'SPHEROID["WGS 84",6378137,298.257223563]],'
              'PRIMEM["Greenwich",0],UNIT["degree",0.0174532925199433]]')


def _gp_blobs(wkb: pa.Array, srs_id: int) -> tuple[list, np.ndarray]:
    """GeoPackage geometry blobs for a column of polygonal WKB, and the
    column's (minx, miny, maxx, maxy) envelopes."""
    try:
        env = wkb_envelopes(wkb)
    except ValueError as e:
        raise ValueError(f"write_gpkg: {e}") from None
    n = len(env)
    hdr = np.empty((n, 40), dtype=np.uint8)
    hdr[:, :4] = np.frombuffer(b"GP\x00\x03", np.uint8)   # v0, LE, envelope=1
    hdr[:, 4:8] = np.array([srs_id], "<i4").view(np.uint8)
    hdr[:, 8:] = np.ascontiguousarray(env[:, [0, 2, 1, 3]], "<f8") \
        .view(np.uint8)                         # minx, maxx, miny, maxy
    heads = hdr.view("V40").ravel().tolist()
    blobs = [h + w for h, w in zip(heads, wkb.to_numpy(zero_copy_only=False))]
    return blobs, env


def write_gpkg(data, path: str, table: str = "cells",
               wkb_col: str = "geometry", srs_id: int = 4326) -> int:
    """Write a Dataset / pyarrow.Table of (attributes..., wkb polygon)
    rows as a GeoPackage feature table; returns the row count.

    Attribute columns (everything except ``wkb_col``) map to sqlite
    INTEGER/REAL/TEXT by Arrow type."""
    if os.path.exists(path):
        os.remove(path)
    con = sqlite3.connect(path)
    try:
        con.executescript(f"""
            PRAGMA application_id = {0x47504B47};
            PRAGMA user_version = 10300;
            CREATE TABLE gpkg_spatial_ref_sys (
                srs_name TEXT NOT NULL, srs_id INTEGER PRIMARY KEY,
                organization TEXT NOT NULL,
                organization_coordsys_id INTEGER NOT NULL,
                definition TEXT NOT NULL, description TEXT);
            INSERT INTO gpkg_spatial_ref_sys VALUES
                ('Undefined cartesian SRS', -1, 'NONE', -1,
                 'undefined', NULL),
                ('Undefined geographic SRS', 0, 'NONE', 0,
                 'undefined', NULL),
                ('WGS 84', 4326, 'EPSG', 4326, '{_WGS84_WKT}', NULL);
            CREATE TABLE gpkg_contents (
                table_name TEXT NOT NULL PRIMARY KEY,
                data_type TEXT NOT NULL, identifier TEXT UNIQUE,
                description TEXT DEFAULT '',
                last_change DATETIME DEFAULT
                    (strftime('%Y-%m-%dT%H:%M:%fZ','now')),
                min_x DOUBLE, min_y DOUBLE, max_x DOUBLE, max_y DOUBLE,
                srs_id INTEGER);
            CREATE TABLE gpkg_geometry_columns (
                table_name TEXT NOT NULL, column_name TEXT NOT NULL,
                geometry_type_name TEXT NOT NULL, srs_id INTEGER NOT NULL,
                z TINYINT NOT NULL, m TINYINT NOT NULL,
                CONSTRAINT pk_geom_cols PRIMARY KEY
                    (table_name, column_name));
        """)

        def batches():
            if isinstance(data, pa.Table):
                yield data
            else:
                yield from data.iter_batches(batch_size=4096,
                                             batch_format="pyarrow")

        n = 0
        cols_created = False
        attr_cols: list[str] = []
        bbox = np.array([np.inf, np.inf, -np.inf, -np.inf])
        for b in batches():
            if isinstance(b, pa.RecordBatch):
                b = pa.Table.from_batches([b])
            if not cols_created:
                attr_cols = [c for c in b.column_names if c != wkb_col]
                defs = []
                for c in attr_cols:
                    f = b.schema.field(c).type
                    sq = ("INTEGER" if pa.types.is_integer(f) else
                          "REAL" if pa.types.is_floating(f) else "TEXT")
                    defs.append(f'"{c}" {sq}')
                con.execute(
                    f'CREATE TABLE "{table}" (fid INTEGER PRIMARY KEY '
                    f'AUTOINCREMENT, "{wkb_col}" BLOB'
                    + ("".join(", " + d for d in defs)) + ")")
                con.execute(
                    "INSERT INTO gpkg_geometry_columns VALUES "
                    "(?, ?, 'POLYGON', ?, 0, 0)",
                    (table, wkb_col, srs_id))
                cols_created = True
            if b.num_rows == 0:
                continue
            blobs, env = _gp_blobs(b[wkb_col].combine_chunks(), srs_id)
            bbox[:2] = np.minimum(bbox[:2], env[:, :2].min(axis=0))
            bbox[2:] = np.maximum(bbox[2:], env[:, 2:].max(axis=0))
            rows = list(zip(blobs, *(b[c].to_pylist() for c in attr_cols)))
            ph = ", ".join(["?"] * (1 + len(attr_cols)))
            con.executemany(
                f'INSERT INTO "{table}" ("{wkb_col}"'
                + "".join(f', "{c}"' for c in attr_cols)
                + f") VALUES ({ph})", rows)
            n += len(rows)
        if not cols_created or n == 0:
            raise ValueError("write_gpkg: empty input, nothing to write")
        con.execute(
            "INSERT INTO gpkg_contents (table_name, data_type, "
            "identifier, min_x, min_y, max_x, max_y, srs_id) "
            "VALUES (?, 'features', ?, ?, ?, ?, ?, ?)",
            (table, table, *bbox.tolist(), srs_id))
        con.commit()
        return n
    finally:
        con.close()
