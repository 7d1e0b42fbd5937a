"""IGEO7 / ISEA7H — hierarchical aperture-7 icosahedral hexagon grid.

This replaces the reference's external DGGRID C++ calls (the reference is a
subprocess wrapper: /root/reference/dggrid4py/dggrid_runner.py:738-794) with
an in-process, fully vectorized numpy construction designed for Ray Data
``map_batches`` over Arrow columns.

Construction (public knowledge: Sahr/White/Kimerling 2003 "Geodesic Discrete
Global Grid Systems"; Snyder 1992 equal-area polyhedral projection; H3's
published aperture-7 design):

* 12 base cells at the icosahedron vertices (orientation from the DGGRID
  default pole: lon 11.25, lat 58.28252559, azimuth 0 — reference defaults at
  dggrid_runner.py:530-532). All 12 base cells are pentagons.
* Cell POSITIONS are the projection-exact per-face Snyder lattice
  (dggs/isea7h_flat.py): centers at resolution r are the points of the
  per-face Eisenstein lattice under DGGRID's ALTERNATING Class I/II
  aperture-7 substitution (odd res x(2+omega), even res x(3-omega)) mapped
  to the sphere by the Snyder equal-area inverse — bit-for-bit DGGRID's
  ISEA7H geometry; no pentagon-seam drift at any resolution.
* Cell IDS keep the Z7 digit hierarchy via the CPI inherited-frame digit
  rule (dggs/isea7h_z7bridge.py): parent = nearest coarse center, digit =
  F7 residue of the ring position in the parent's chart corrected by the
  frame shift inherited down the ancestor chain.
* A point's cell at res r is assigned DGGRID-style: PLANAR rounding in the
  containing face's Snyder chart (not a spherical Voronoi — see
  isea7h_flat.ISEA7HFlatGrid.encode).

Cell ids use the reference's Z7 64-bit layout (reference igeo7.py:16-45):
4-bit base cell (0-11) then twenty 3-bit digits, digit 7 = "beyond
resolution" padding.  cells(r) = 10*7^r + 2 exactly.

Z7 ids are BIT-IDENTICAL to the DGGRID binary's for every DGGRID output
available in the reference (the golden literals in tests/test_dggrid.py and
all 551 res-9 ids in examples/igeo7_res_9.gpkg) — the lattice chirality,
digit convention (CPI inherited frames) and base numbering are calibrated
against them; see isea7h_z7bridge.py.  Residual parity caveats: the digit
frames of base subtrees 3-11 have no DGGRID sample to calibrate against
(documented in the bridge), and SEQNUM uses our canonical (base, digit-path)
order rather than DGGRID's quad-ij order (tests/test_golden.py tracks that
as the remaining xfail).

A consequence of the DGGRID convention: a pentagon's ring-children digit
set varies per (base, res) — use IGeo7Grid.children / to_seqnum /
from_seqnum (grid-aware) instead of the bare module functions whenever the
ids refer to real cells.
"""

from __future__ import annotations

import numpy as np

from .sphere import lonlat_to_unit, unit_to_lonlat, tangent_at_azimuth, geodesic_step

MAX_RES = 17  # 10*7^17+2 ~ 2.3e15 cells; far beyond any practical need

# Sentinel for 'no cell' slots. -1 = all ones = base field 15 (> 11), never a
# valid Z7 id.  NOTE: valid ids with base cell >= 8 are NEGATIVE int64s, so
# validity checks must be `!= INVALID_ID`, never `>= 0`.
INVALID_ID = np.int64(-1)

D0 = float(np.arctan(2.0))  # icosahedron edge arc = base-cell spacing (rad)
ALPHA = float(np.arctan2(np.sqrt(3.0) / 2.0, 2.5))  # aperture-7 rotation, 19.1066 deg
ROT_SIGN = -1.0  # children frames rotate clockwise each level (fixed convention)

# ring-child azimuth offsets by slot (slot 0 = center child, slots 1..6 = ring)
_HEX_LAM = np.array([0.0] + [np.deg2rad(60.0 * k) for k in range(6)])
_PENT_LAM = np.array([0.0] + [np.deg2rad(72.0 * k) for k in range(5)] + [0.0])
_PENT_DIGITS = np.array([0, 1, 3, 4, 5, 6, 0], dtype=np.uint64)  # slot -> digit
_HEX_DIGITS = np.array([0, 1, 2, 3, 4, 5, 6], dtype=np.uint64)

# per-level child-ring distance d_r (r = child resolution, 1-indexed)
_D = np.array([D0 * 7.0 ** (-(r) / 2.0) for r in range(0, MAX_RES + 2)])

# Z7 int64 packing helpers -------------------------------------------------

_SHIFTS = np.array([57 - 3 * k for k in range(20)], dtype=np.uint64)


def _pad_tail(res: int) -> np.uint64:
    """OR-mask setting digit slots res..19 to 7 (beyond-resolution padding)."""
    v = np.uint64(0)
    for k in range(res, 20):
        v |= np.uint64(7) << np.uint64(57 - 3 * k)
    return v


_PAD = np.array([_pad_tail(r) for r in range(21)], dtype=np.uint64)


def z7_resolution(z7: np.ndarray) -> np.ndarray:
    """Resolution = count of leading non-7 digits (reference igeo7.py:77-85)."""
    z = z7.view(np.uint64) if z7.dtype == np.int64 else z7.astype(np.uint64)
    res = np.full(z.shape, 20, dtype=np.int64)
    done = np.zeros(z.shape, dtype=bool)
    for k in range(20):
        dig = (z >> np.uint64(57 - 3 * k)) & np.uint64(7)
        hit = (~done) & (dig == 7)
        res[hit] = k
        done |= hit
    return res


def z7_base_cell(z7: np.ndarray) -> np.ndarray:
    z = z7.view(np.uint64) if z7.dtype == np.int64 else z7.astype(np.uint64)
    return (z >> np.uint64(60)).astype(np.int64)


def z7_digits(z7: np.ndarray, res: int) -> np.ndarray:
    """(N, res) array of digits 0..6."""
    z = z7.view(np.uint64) if z7.dtype == np.int64 else z7.astype(np.uint64)
    out = np.empty(z.shape + (res,), dtype=np.int64)
    for k in range(res):
        out[..., k] = ((z >> np.uint64(57 - 3 * k)) & np.uint64(7)).astype(np.int64)
    return out


def z7_parent(z7: np.ndarray, steps: int = 1) -> np.ndarray:
    """Parent id: truncate the last `steps` digits (reference igeo7.py:112-122)."""
    z = z7.view(np.uint64)
    res = np.maximum(z7_resolution(z7) - steps, 0)
    keep = np.zeros_like(z)
    for k in range(20):
        mask7 = np.uint64(7) << np.uint64(57 - 3 * k)
        keep |= np.where(k < res, z & mask7, np.uint64(0))
    base = z & (np.uint64(0xF) << np.uint64(60))
    return (base | keep | _PAD_LOOKUP(res)).view(np.int64)


def _PAD_LOOKUP(res: np.ndarray) -> np.ndarray:
    return _PAD[np.clip(res, 0, 20)]


def z7_is_pentagon(z7: np.ndarray) -> np.ndarray:
    """Pentagon iff every in-resolution digit is 0 (reference igeo7_ext.py:90-99)."""
    res = z7_resolution(z7)
    z = z7.view(np.uint64)
    pent = np.ones(z.shape, dtype=bool)
    for k in range(20):
        dig = ((z >> np.uint64(57 - 3 * k)) & np.uint64(7)).astype(np.int64)
        pent &= (k >= res) | (dig == 0)
    return pent


def z7_children(z7: np.ndarray, pent_digits=None) -> np.ndarray:
    """(N, 7) children ids at res+1; pentagon rows have 6 valid + last = -1.

    Child digit order: 0 (center) then ring digits ascending.

    ``pent_digits``: optional callable ``level -> (12, 5)`` giving each
    DGGRID base's pentagon ring digits at that digit level (the
    DGGRID-conformant sets vary per base/res — see isea7h_z7bridge).
    Default None uses the legacy {1,3,4,5,6} skip-2 convention; pass the
    grid engine's table (IGeo7Grid.children does) when the ids refer to
    real cells.
    """
    z = z7.view(np.uint64)
    res = z7_resolution(z7)
    pent = z7_is_pentagon(z7)
    shift = (np.uint64(57) - np.uint64(3) * res.astype(np.uint64))
    # strip padding of slot res, then OR in digit
    cleared = z & ~(np.uint64(7) << shift)
    cleared = cleared & ~_PAD_LOOKUP(res) | _PAD_LOOKUP(res + 1)
    out = np.full(z.shape + (7,), -1, dtype=np.int64)
    digit_sets = np.where(pent[..., None], _PENT_DIGITS[None, :],
                          _HEX_DIGITS[None, :]).astype(np.uint64)
    if pent_digits is not None and np.any(pent):
        base = z7_base_cell(z7)
        for lvl in np.unique(res[pent]):
            rows = pent & (res == lvl)
            tbl = np.asarray(pent_digits(int(lvl) + 1))     # (12, 5)
            digit_sets[rows, 1:6] = tbl[base[rows]].astype(np.uint64)
    for j in range(7):
        d = digit_sets[..., j]
        child = cleared | (d.astype(np.uint64) << shift)
        out[..., j] = child.view(np.int64)
    if np.any(pent):
        out[pent, 6] = -1
    return out


def z7_to_string(z7: np.ndarray) -> np.ndarray:
    """Z7_STRING: zero-padded 2-digit base + one char per digit (igeo7.py:48-62)."""
    res = z7_resolution(z7)
    base = z7_base_cell(z7)
    maxr = int(res.max()) if res.size else 0
    digs = z7_digits(z7, maxr) if maxr else np.zeros(z7.shape + (0,), dtype=np.int64)
    out = np.empty(z7.shape, dtype=object)
    flat = z7.reshape(-1)
    fr = res.reshape(-1)
    fb = base.reshape(-1)
    fd = digs.reshape(len(flat), -1)
    for i in range(len(flat)):
        out.reshape(-1)[i] = f"{fb[i]:02d}" + "".join(str(d) for d in fd[i, : fr[i]])
    return out


def z7_from_string(s) -> np.ndarray:
    """Inverse of z7_to_string, vectorized over a sequence of strings."""
    arr = np.asarray(s, dtype=object)
    out = np.empty(arr.shape, dtype=np.uint64)
    flat_in = arr.reshape(-1)
    flat_out = out.reshape(-1)
    for i, st in enumerate(flat_in):
        base = int(st[:2])
        v = np.uint64(base) << np.uint64(60)
        digits = st[2:]
        for k, ch in enumerate(digits):
            v |= np.uint64(int(ch)) << np.uint64(57 - 3 * k)
        v |= _PAD[len(digits)]
        flat_out[i] = v
    return out.view(np.int64)


def z7_to_hex(z7: np.ndarray) -> np.ndarray:
    """16-char lowercase hex form (reference igeo7.py:71-74)."""
    z = z7.view(np.uint64)
    out = np.empty(z.shape, dtype=object)
    fo = out.reshape(-1)
    for i, v in enumerate(z.reshape(-1)):
        fo[i] = f"{int(v):016x}"
    return out


def z7_from_hex(s) -> np.ndarray:
    arr = np.asarray(s, dtype=object)
    out = np.empty(arr.shape, dtype=np.uint64)
    fo = out.reshape(-1)
    for i, st in enumerate(arr.reshape(-1)):
        fo[i] = np.uint64(int(st, 16))
    return out.view(np.int64)


# SEQNUM codec -------------------------------------------------------------
# Canonical linear order: by (base cell, digit path); pentagon subtree sizes
# p(m) = 1 + 5*(7^m - 1)/6, hexagon subtree sizes h(m) = 7^m.  The pentagon
# (all-zero path) is always first inside its base block, so
# seqnum(pentagon b) = 1 + b*p(r).  cells(r) = 12*p(r) = 10*7^r + 2.


def _p_sizes(res: int) -> np.ndarray:
    m = np.arange(res + 1, dtype=np.float64)
    return (1 + 5 * (7.0**m - 1) / 6).astype(np.int64)


def _h_sizes(res: int) -> np.ndarray:
    return (7.0 ** np.arange(res + 1)).astype(np.int64)


_PENT_RING_LEGACY = np.array([1, 3, 4, 5, 6], dtype=np.int64)


def _pent_ring_table(pent_digits, level: int) -> np.ndarray:
    """(12, 5) sorted pentagon ring digits at `level` (legacy skip-2 rows
    when no table is provided)."""
    if pent_digits is None:
        return np.broadcast_to(_PENT_RING_LEGACY, (12, 5))
    return np.asarray(pent_digits(level))


def z7_to_seqnum(z7: np.ndarray, pent_digits=None) -> np.ndarray:
    """Canonical linear order: by (base, digit path), pentagon subtrees
    first-child-first.  A bijection onto 1..10*7^r+2 for the actual cell
    universe when ``pent_digits`` matches the grid's pentagon digit sets
    (see z7_children); IGeo7Grid.to_seqnum passes its own."""
    res_arr = z7_resolution(z7)
    if res_arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    res = int(res_arr[0])
    if not np.all(res_arr == res):
        raise ValueError("mixed-resolution ids in one seqnum batch")
    p = _p_sizes(res)
    h = _h_sizes(res)
    base = z7_base_cell(z7)
    digs = z7_digits(z7, res)
    seq = 1 + base * p[res]
    in_pent = np.ones(z7.shape, dtype=bool)
    for k in range(res):
        d = digs[..., k]
        rem = res - k - 1
        ring = _pent_ring_table(pent_digits, k + 1)        # (12, 5) sorted
        rank = (ring[base] < d[..., None]).sum(axis=-1)    # rank among ring
        off_pent = np.where(d > 0, p[rem] + rank * h[rem], 0)
        off_hex = d * h[rem]
        seq = seq + np.where(in_pent, off_pent, off_hex)
        in_pent &= d == 0
    return seq


def seqnum_to_z7(seq: np.ndarray, res: int, pent_digits=None) -> np.ndarray:
    seq = np.asarray(seq, dtype=np.int64)
    p = _p_sizes(res)
    h = _h_sizes(res)
    base = (seq - 1) // p[res]
    rem = (seq - 1) - base * p[res]
    z = base.astype(np.uint64) << np.uint64(60)
    in_pent = np.ones(seq.shape, dtype=bool)
    for k in range(res):
        r2 = res - k - 1
        ring_tbl = _pent_ring_table(pent_digits, k + 1)    # (12, 5) sorted
        # pentagon node: child blocks [p(r2)] + 5*[h(r2)] for digit 0 + ring
        is0 = rem < p[r2]
        idx = np.clip((rem - p[r2]) // h[r2], 0, 4)
        ring = ring_tbl[np.clip(base, 0, 11), idx]
        pd = np.where(is0, 0, ring)
        prem = np.where(is0, rem, rem - p[r2] - idx * h[r2])
        # hexagon node: 7 equal blocks
        hd = rem // h[r2]
        hrem = rem - hd * h[r2]
        d = np.where(in_pent, pd, hd)
        rem = np.where(in_pent, prem, hrem)
        nxt_pent = in_pent & is0
        z = z | (d.astype(np.uint64) << np.uint64(57 - 3 * k))
        in_pent = nxt_pent
    z = z | _PAD[res]
    return z.view(np.int64)


def num_cells(res: int, aperture: int = 7) -> int:
    """cells(r) = 10*a^r + 2 (reference OUTPUT_STATS law, dggrid_runner.py:1297)."""
    return 10 * aperture**res + 2


# The grid engine ----------------------------------------------------------


class IGeo7Grid:
    """Vectorized encode/decode/topology engine for the IGEO7/ISEA7H grid.

    Positions come from the projection-exact Snyder flat lattice
    (isea7h_flat.py); ids keep the Z7 hierarchy via the flat<->Z7 bridge
    (isea7h_z7bridge.py).  Construction is cheap; the bridge's level tables
    (~4 MB) are built lazily once per process (``_ensure_anchor_table``) and
    /tmp-cached per orientation, so Ray map_batches actors pay the build at
    most once per node.
    """

    def __init__(self, pole_lon: float = 11.25, pole_lat: float = 58.28252559,
                 azimuth: float = 0.0, beam: int = 4, projection: str = "ISEA"):
        from .isea7h_flat import ISEA7HFlatGrid
        from .isea7h_z7bridge import Z7Bridge
        self.pole_lon = float(pole_lon)
        self.pole_lat = float(pole_lat)
        self.azimuth = float(azimuth)
        self.beam = int(beam)  # kept for API compatibility (unused)
        self.projection = projection.upper()
        self.flat = ISEA7HFlatGrid(pole_lon=self.pole_lon, pole_lat=self.pole_lat,
                                   azimuth=self.azimuth, projection=projection)
        self.bridge = Z7Bridge(self.flat)
        self._build_base()

    def _build_base(self):
        v0 = lonlat_to_unit(self.pole_lon, self.pole_lat)
        t0 = tangent_at_azimuth(v0, self.azimuth)
        centers = np.zeros((12, 3))
        refs = np.zeros((12, 3))
        centers[0] = v0
        refs[0] = t0
        theta = D0  # atan(2): arc from pole vertex to first ring
        from .sphere import rotate_tangent
        for k in range(5):
            dirk = rotate_tangent(t0, v0, -np.deg2rad(72.0 * k))  # clockwise like compass azimuths
            p, tc = geodesic_step(v0, dirk, theta)
            centers[1 + k] = p
            refs[1 + k] = tc  # continuation direction (away from pole vertex)
        for k in range(5):
            dirk = rotate_tangent(t0, v0, -np.deg2rad(36.0 + 72.0 * k))
            p, tc = geodesic_step(v0, dirk, np.pi - theta)
            centers[6 + k] = p
            refs[6 + k] = tc
        centers[11] = -v0
        # ref at antipode: direction toward base cell 6
        d11 = centers[6] - centers[11] * np.dot(centers[6], centers[11])
        refs[11] = d11 / np.linalg.norm(d11)
        self.base_centers = centers
        self.base_refs = refs

    # -- encode ------------------------------------------------------------

    def _ensure_anchor_table(self):
        """Warm-state hook (name kept from round 1): build the bridge's
        exhaustive low-res conversion tables once per process.  Called in Ray
        actor __init__ so batches never pay the build."""
        return self.bridge.ensure_tables()

    _CHUNK = 32768  # points per flat.encode call: bounds the planar
                    # kernel's per-point temporaries (its fan competition
                    # is one call per block, with no per-face fixed cost)

    def encode(self, lon, lat, res: int, beam: int | None = None) -> np.ndarray:
        """Vectorized geo -> Z7 int64 at resolution `res` (exact nearest
        lattice center; replaces TRANSFORM_POINTS with GEO input, reference
        dggrid_runner.py:953-1022 / cells_for_geo_points :1859-1959)."""
        if res < 0 or res > MAX_RES:
            raise ValueError(f"res must be in 0..{MAX_RES}")
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        n = lon.shape[0]
        out = np.empty(n, dtype=np.int64)
        for s in range(0, n, self._CHUNK):
            flat = self.flat.encode(lon[s:s + self._CHUNK], lat[s:s + self._CHUNK], res)
            out[s:s + self._CHUNK] = self.bridge.z7_of_flat(flat, res)
        return out

    def encode_sph(self, lon, lat, res: int, beam: int | None = None) -> np.ndarray:
        """Reference encode with a widened cross-chart competition window —
        used by tests to certify that the default window loses no candidate."""
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        flat = self.flat.encode(lon, lat, res, risk_margin=5.0)
        return self.bridge.z7_of_flat(flat, res)

    # -- decode ------------------------------------------------------------

    def _flat_ids(self, z7: np.ndarray) -> np.ndarray:
        """Z7 ids (mixed resolutions allowed) -> flat lattice ids."""
        z7 = np.asarray(z7, dtype=np.int64)
        res_arr = z7_resolution(z7)
        out = np.empty(z7.shape, dtype=np.int64)
        for r in np.unique(res_arr):
            m = res_arr == r
            out[m] = self.bridge.flat_of_z7(z7[m], int(r))
        return out

    def decode_state(self, z7: np.ndarray):
        """Z7 ids -> (center unit vec (n,3), tangent frame ref (n,3), res).

        The frame is an arbitrary-but-deterministic orthonormal tangent basis
        per cell (toward the owner face's reference corner) — sufficient for
        the Voronoi/boundary machinery, which is basis-invariant.
        """
        from .isea7h_flat import unpack as _unpack
        z7 = np.asarray(z7, dtype=np.int64)
        res_arr = z7_resolution(z7)
        flat = self._flat_ids(z7)
        f, a, b = _unpack(flat)
        x = np.empty(z7.shape, dtype=np.float64)
        y = np.empty(z7.shape, dtype=np.float64)
        for r in np.unique(res_arr):
            m = res_arr == r
            xr, yr = self.flat._plane_of(a[m].astype(np.float64),
                                         b[m].astype(np.float64), int(r))
            x[m] = xr
            y[m] = yr
        pos = self.flat.proj.inverse_unit(f, x, y)
        ic = self.flat.proj.icosa
        ref = None
        for corner in (0, 1):
            c = ic.vertices[ic.face_vertices[f, corner]]
            t = c - pos * np.sum(pos * c, axis=-1, keepdims=True)
            nrm = np.sqrt(np.sum(t * t, axis=-1, keepdims=True))
            t = np.where(nrm > 1e-9, t / np.where(nrm > 0, nrm, 1.0), 0.0)
            if ref is None:
                ref = t
                ok = nrm[..., 0] > 1e-9
            else:
                ref = np.where(ok[..., None], ref, t)
        return pos, ref, res_arr

    def decode(self, z7: np.ndarray):
        """Z7 ids -> (lon, lat) of cell centers."""
        pos, _, _ = self.decode_state(z7)
        return unit_to_lonlat(pos)

    # -- grid-aware algebra (pentagon digit sets vary per base/res) ----------

    def pent_digits(self, level: int) -> np.ndarray:
        """(12, 5) pentagon ring digits at digit level `level` (DGGRID
        convention; see isea7h_z7bridge.pentagon_ring_digits)."""
        return self.bridge.pentagon_ring_digits(level)

    def children(self, z7: np.ndarray) -> np.ndarray:
        """Grid-correct z7_children (every returned id is a real cell)."""
        return z7_children(np.asarray(z7, dtype=np.int64),
                           pent_digits=self.pent_digits)

    def to_seqnum(self, z7: np.ndarray) -> np.ndarray:
        """Grid-correct canonical seqnum (bijection onto 1..10*7^r+2)."""
        return z7_to_seqnum(np.asarray(z7, dtype=np.int64),
                            pent_digits=self.pent_digits)

    def from_seqnum(self, seq: np.ndarray, res: int) -> np.ndarray:
        return seqnum_to_z7(np.asarray(seq, dtype=np.int64), res,
                            pent_digits=self.pent_digits)

    # DGGRID-order SEQNUM (quad-ij scan; the numbers the DGGRID binary
    # emits — see dggs/dggrid_seqnum.py for the calibrated layout)

    def dggrid_seqnum_layout(self):
        if getattr(self, "_dg_layout", None) is None:
            from .dggrid_seqnum import DgQuadLayout
            self._dg_layout = DgQuadLayout(self)
        return self._dg_layout

    def to_seqnum_dggrid(self, z7: np.ndarray, res: int | None = None) -> np.ndarray:
        return self.dggrid_seqnum_layout().to_seqnum(np.asarray(z7, np.int64), res)

    def from_seqnum_dggrid(self, seq: np.ndarray, res: int) -> np.ndarray:
        return self.dggrid_seqnum_layout().from_seqnum(np.asarray(seq, np.int64), res)

    # -- topology ----------------------------------------------------------

    MAX_NEIGHBORS = 12  # Voronoi edge count; hex 6, pentagon 5, seam cells up to ~8

    def _base_neighbors(self):
        """(12, MAX_NEIGHBORS) res-0 adjacency (icosahedron edges, 5 each)."""
        if getattr(self, "_base_nb", None) is None:
            ids = (np.arange(12, dtype=np.uint64) << np.uint64(60)) | _PAD[0]
            ids = ids.view(np.int64)
            dots = self.base_centers @ self.base_centers.T
            out = np.full((12, self.MAX_NEIGHBORS), INVALID_ID, dtype=np.int64)
            for i in range(12):
                nb = np.nonzero((dots[i] > 0.3) & (np.arange(12) != i))[0]
                out[i, :len(nb)] = ids[nb]
            self._base_nb = out
        return self._base_nb

    def local_voronoi(self, z7: np.ndarray):
        """Exact Voronoi region of each cell: (neighbor_ids (n, MAX_NEIGHBORS)
        INVALID_ID-padded, vertices (n, MAX_NEIGHBORS + 1, 2) NaN-padded
        closed lon/lat rings).

        Candidates = children of {parent} + neighbors(parent) (recursively
        exact), clipped by vectorized half-plane intersection in the cell
        tangent plane (see dggs/voronoi.py).  Correct and symmetric even in
        pentagon-seam distorted zones.  Replaces the reference's spatial
        self-join neighbor lookup (igeo7.py:125-162, igeo7_ext.py:103-156).
        """
        from .voronoi import voronoi_cells, NO_LABEL
        z7 = np.asarray(z7, dtype=np.int64)
        n = z7.shape[0]
        M = self.MAX_NEIGHBORS
        if n == 0:
            return (np.full((0, M), INVALID_ID, dtype=np.int64), np.zeros((0, M + 1, 2)))
        res_arr = z7_resolution(z7)
        res = int(res_arr[0])
        if not np.all(res_arr == res):
            raise ValueError("mixed resolutions in one neighbors batch")
        if res == 0:
            base = z7_base_cell(z7)
            nb = self._base_neighbors()[base]
            verts = self._verts_from_candidates(z7, nb)
            return nb, verts
        parents = z7_parent(z7)
        uniq_par, inv = np.unique(parents, return_inverse=True)
        par_nb, _ = self.local_voronoi(uniq_par)              # recursion
        # ring-2 coarse cells too: in seam-distorted zones a Voronoi neighbor's
        # parent can be two coarse hops away
        flat_nb = par_nb.reshape(-1)
        uniq_nb = np.unique(flat_nb[flat_nb != INVALID_ID])
        extra = np.setdiff1d(uniq_nb, uniq_par, assume_unique=False)
        M_ = self.MAX_NEIGHBORS
        if len(extra):
            ex_nb, _ = self.local_voronoi(extra)
            lut = {int(v): ex_nb[i] for i, v in enumerate(extra)}
            lut.update({int(v): par_nb[i] for i, v in enumerate(uniq_par)})
            rows = []
            for u in range(len(uniq_par)):
                s = set()
                for v in par_nb[u]:
                    if v != INVALID_ID:
                        s.add(int(v))
                        for w in lut[int(v)]:
                            if w != INVALID_ID:
                                s.add(int(w))
                s.discard(int(uniq_par[u]))
                rows.append(np.fromiter(s, dtype=np.int64))
            width = max(len(r) for r in rows)
            ring12 = np.full((len(uniq_par), width), INVALID_ID, dtype=np.int64)
            for u, r in enumerate(rows):
                ring12[u, :len(r)] = r
            coarse = np.concatenate([uniq_par[:, None], ring12], axis=1)
        else:
            coarse = np.concatenate([uniq_par[:, None], par_nb], axis=1)
        # distance prefilter at the coarse level: only coarse cells within
        # 3.2*d_{r-1} of the parent can own a Voronoi neighbor of the cell
        ppos, _, _ = self.decode_state(uniq_par)
        cflat = coarse.reshape(-1)
        cok = cflat != INVALID_ID
        cuniq, cuinv = np.unique(cflat[cok], return_inverse=True)
        cup, _, _ = self.decode_state(cuniq)
        cpos_coarse = np.zeros((cflat.shape[0], 3))
        cpos_coarse[cok] = cup[cuinv]
        cpos_coarse = cpos_coarse.reshape(coarse.shape + (3,))
        dots = np.einsum("uwj,uj->uw", cpos_coarse, ppos)
        dcoarse = _D[max(res - 1, 1)] if res > 1 else D0
        near = (dots > np.cos(4.5 * dcoarse)) & (coarse != INVALID_ID)
        keepw = int(near.sum(axis=1).max()) if near.size else 1
        pruned = np.full((len(uniq_par), keepw), INVALID_ID, dtype=np.int64)
        for u in range(len(uniq_par)):
            vals = coarse[u][near[u]]
            pruned[u, :len(vals)] = vals
        coarse = pruned
        flat_coarse = coarse.reshape(-1)
        uc = np.unique(flat_coarse[flat_coarse != INVALID_ID])
        ch = self.children(uc)                                 # (K, 7)
        # map: coarse id -> row in ch
        order = np.argsort(uc)
        def rows_of(ids):
            pos = np.searchsorted(uc, ids, sorter=order)
            pos = np.clip(pos, 0, len(uc) - 1)
            r = order[pos]
            r = np.where(uc[r] == ids, r, -1)
            return r
        crow = rows_of(np.where(coarse == INVALID_ID, uc[0], coarse))
        crow = np.where(coarse == INVALID_ID, -1, crow)        # (U, 1+M)
        cand_ids = np.where(crow[..., None] >= 0, ch[np.clip(crow, 0, None)], INVALID_ID)
        cand_ids = cand_ids.reshape(len(uniq_par), -1)          # (U, (1+M)*7)
        cand = cand_ids[inv]                                    # (n, C)
        cand = np.where(cand == z7[:, None], INVALID_ID, cand)
        nb, verts = self._voronoi_from_cand(z7, cand, res)
        return nb, verts

    def _voronoi_from_cand(self, z7, cand, res):
        from .voronoi import voronoi_cells, NO_LABEL
        n = z7.shape[0]
        M = self.MAX_NEIGHBORS
        d = _D[res] if res > 0 else D0
        pos, ref, _ = self.decode_state(z7)
        e2 = np.cross(pos, ref)
        # decode unique candidate centers once
        flat = cand.reshape(-1)
        ok = flat != INVALID_ID
        uniqc, cinv = np.unique(flat[ok], return_inverse=True)
        up, _, _ = self.decode_state(uniqc)
        cpos = np.zeros((flat.shape[0], 3))
        cpos[ok] = up[cinv]
        cpos = cpos.reshape(n, -1, 3)
        valid = cand != INVALID_ID
        # project into tangent plane (AEQD)
        dotc = np.einsum("ncj,nj->nc", cpos, pos)
        tx = np.einsum("ncj,nj->nc", cpos, ref)
        ty = np.einsum("ncj,nj->nc", cpos, e2)
        tn = np.sqrt(tx * tx + ty * ty)
        ang = np.arctan2(tn, np.clip(dotc, -1, 1))
        sc = np.where(tn > 1e-15, ang / np.where(tn > 1e-15, tn, 1.0), 0.0)
        qx = np.where(valid, tx * sc, 1e9)
        qy = np.where(valid, ty * sc, 1e9)
        # drop candidates beyond Voronoi influence (> 3.5 d), keep nearest 32
        far = (qx * qx + qy * qy) > (4.0 * d) ** 2
        valid2 = valid & ~far
        C = qx.shape[1]
        if C > 48:
            d2 = np.where(valid2, qx * qx + qy * qy, np.inf)
            keep = np.argsort(d2, axis=1)[:, :48]
            arr = np.arange(n)[:, None]
            qx = qx[arr, keep]
            qy = qy[arr, keep]
            valid2 = valid2[arr, keep]
            cand = cand[arr, keep]
        verts2d, count, labels = voronoi_cells(qx, qy, valid2, span=1.5 * d)
        # neighbors from surviving edge labels
        nb = np.full((n, M), INVALID_ID, dtype=np.int64)
        verts = np.full((n, M + 1, 2), np.nan)
        ar = np.arange(n)
        lab_ids = np.where(labels >= 0, cand[ar[:, None], np.clip(labels, 0, None)], INVALID_ID)
        for i in range(n):
            m = min(int(count[i]), M)
            vs = verts2d[i, :m]
            r = np.sqrt(vs[:, 0] ** 2 + vs[:, 1] ** 2)
            ca = np.where(r > 1e-15, vs[:, 0] / np.where(r > 1e-15, r, 1), 1.0)
            sa = np.where(r > 1e-15, vs[:, 1] / np.where(r > 1e-15, r, 1), 0.0)
            dirv = ca[:, None] * ref[i] + sa[:, None] * e2[i]
            pv = np.cos(r)[:, None] * pos[i] + np.sin(r)[:, None] * dirv
            lo, la = unit_to_lonlat(pv)
            verts[i, :m, 0] = lo
            verts[i, :m, 1] = la
            verts[i, m, 0] = lo[0]
            verts[i, m, 1] = la[0]
            ids = lab_ids[i, :m]
            ids = np.unique(ids[ids != INVALID_ID])
            nb[i, :min(len(ids), M)] = ids[:M]
        return nb, verts

    def _verts_from_candidates(self, z7, nb):
        """Voronoi vertices for cells given an explicit neighbor candidate set
        (res-0 path)."""
        _, verts = self._voronoi_from_cand(z7, nb, int(z7_resolution(z7)[0]))
        return verts

    # axial 1-ring offsets of the hex lattice z = c0 + (a + b*omega)*m_r,
    # omega = e^{i pi/3}: the six unit-distance steps
    _AX_OFFS = np.array([(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)],
                        dtype=np.int64)

    def neighbors(self, z7: np.ndarray) -> np.ndarray:
        """(n, MAX_NEIGHBORS) edge-neighbor ids padded with INVALID_ID.
        Hexagons have 6, pentagons 5; seam-distorted cells may have 7.

        Fast path (the ``boundary`` interior/seam split): a cell whose
        whole 1-ring sits strictly inside its face (edge margin > 2
        lattice units) has exactly the six axial lattice neighbors —
        pure (a, b) arithmetic + the flat->Z7 bridge, no Voronoi
        clipping.  Face-edge / pentagon / seam cells fall back to the
        exact local spherical Voronoi.  Equality of the two paths on the
        interior is property-tested (tests/test_round4c_ops.py)."""
        from .isea7h_flat import pack as _pack, unpack as _unpack

        z7 = np.asarray(z7, dtype=np.int64)
        n = z7.shape[0]
        M = self.MAX_NEIGHBORS
        if n == 0:
            return np.full((0, M), INVALID_ID, dtype=np.int64)
        res_arr = z7_resolution(z7)
        out = np.full((n, M), INVALID_ID, dtype=np.int64)
        flat = self._flat_ids(z7)
        f, a, b = _unpack(flat)
        for r in np.unique(res_arr):
            m = np.nonzero(res_arr == r)[0]
            if r == 0:
                interior = np.zeros(len(m), dtype=bool)
            else:
                margin = self.bridge._edge_margin(a[m], b[m], int(r))
                interior = margin > 2.0
            im = m[interior]
            if len(im):
                da = self._AX_OFFS[:, 0][None, :]
                db = self._AX_OFFS[:, 1][None, :]
                packed = _pack(np.repeat(f[im], 6),
                               (a[im][:, None] + da).ravel(),
                               (b[im][:, None] + db).ravel())
                nz = self.bridge.z7_of_flat(packed, int(r)).reshape(-1, 6)
                out[im, :6] = nz
            sm = m[~interior]
            if len(sm):
                nb, _ = self.local_voronoi(z7[sm])
                out[sm] = nb
        return out

    def k_ring(self, z7: np.ndarray, k: int) -> list[np.ndarray]:
        """Per input id, all ids within k neighbor steps (incl. self).
        Vectorized frontier expansion: per round, ONE deduped neighbors()
        call + a pandas drop_duplicates/anti-merge over (input, cell)
        pairs — no per-input Python loop."""
        import pandas as pd

        z7 = np.asarray(z7, dtype=np.int64)
        n = z7.shape[0]
        acc = pd.DataFrame({"i": np.arange(n, dtype=np.int64), "c": z7})
        frontier = acc
        for _ in range(k):
            if not len(frontier):
                break
            fc = frontier["c"].to_numpy()
            uc, uinv = np.unique(fc, return_inverse=True)
            nb_u = self.neighbors(uc)
            nb = nb_u[uinv]
            Mw = nb.shape[1]
            fi = np.repeat(frontier["i"].to_numpy(), Mw)
            cand_c = nb.ravel()
            v = cand_c != INVALID_ID
            cand = pd.DataFrame({"i": fi[v], "c": cand_c[v]}) \
                .drop_duplicates()
            merged = cand.merge(acc, how="left", indicator=True)
            fresh = merged[merged["_merge"] == "left_only"][["i", "c"]]
            acc = pd.concat([acc, fresh], ignore_index=True)
            frontier = fresh
        acc = acc.sort_values(["i", "c"], ignore_index=True)
        ci = acc["i"].to_numpy()
        cc = acc["c"].to_numpy()
        bounds = np.searchsorted(ci, np.arange(n + 1))
        return [cc[bounds[j]:bounds[j + 1]].copy() for j in range(n)]

    def boundary(self, z7: np.ndarray) -> np.ndarray:
        """(n, MAX_NEIGHBORS + 1, 2) lon/lat closed rings (NaN-padded).

        Face-interior hexagons use DGGRID's construction — the planar
        hexagon dual of the lattice (circumradius m_r/sqrt(3)) inverse-
        projected through Snyder; verified 0.00 m against the reference's
        golden rings (tests/test_dggrid.py:496-527).  Pentagon and
        face-edge-straddling cells (whose shape spans charts) fall back to
        the exact local spherical Voronoi (local_voronoi).
        """
        from .isea7h_flat import unpack as _unpack, _OMEGA
        z7 = np.asarray(z7, dtype=np.int64)
        n = z7.shape[0]
        M = self.MAX_NEIGHBORS
        verts = np.full((n, M + 1, 2), np.nan)
        if n == 0:
            return verts
        res_arr = z7_resolution(z7)
        flat = self._flat_ids(z7)
        f, a, b = _unpack(flat)
        hexv = np.exp(1j * (np.pi / 6.0 + np.arange(6) * np.pi / 3.0)) / np.sqrt(3.0)
        for r in np.unique(res_arr):
            m = np.nonzero(res_arr == r)[0]
            margin = self.bridge._edge_margin(a[m], b[m], int(r))
            interior = margin > 1.0   # full hex dual stays inside the face
            im = m[interior]
            if len(im):
                mr = self.flat.m_r(int(r))
                z0 = self.flat.c[0] + (a[im] + b[im] * _OMEGA) * mr
                vz = z0[:, None] + mr * hexv[None, :]
                pos = self.flat.proj.inverse_unit(
                    np.repeat(f[im], 6), np.real(vz).ravel(), np.imag(vz).ravel())
                lo, la = unit_to_lonlat(pos)
                lo = lo.reshape(-1, 6)
                la = la.reshape(-1, 6)
                verts[im, :6, 0] = lo
                verts[im, :6, 1] = la
                verts[im, 6, 0] = lo[:, 0]
                verts[im, 6, 1] = la[:, 0]
            sm = m[~interior]
            if len(sm):
                _, vv = self.local_voronoi(z7[sm])
                verts[sm] = vv
        return verts

    def cell_spacing_rad(self, res: int) -> float:
        """Center-to-center geodesic spacing at res (the lattice constant)."""
        return float(_D[res]) if res > 0 else D0
