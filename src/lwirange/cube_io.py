"""Bit-exact binary persistence: the LWC1 container.

Layout: 4-byte magic ``LWC1``, a little-endian uint32 byte length, a UTF-8
JSON header, then the body. Cube and omega bodies are IEEE-754 binary32,
little endian, row major [i][j][k]; map bodies are an (M, N) binary32 plane
followed by an (M, N) uint8 validity plane. Headers carry no timestamps, so
writing the same data twice produces identical files.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .closed_form import RangeMap
from .errors import ConstraintError, DimensionError, FormatError, GridError, _is_real
from .forward_model import SceneCube, SceneTruth
from .hyperspectral import EstimateMaps
from .radiometry import MICROFLICK, SpectralGrid, Temperature

MAGIC = b"LWC1"
_CREATED = "lwirange-0.1.0"
_KINDS = ("cube", "map", "omega")
_MAX_BODY_BYTES = 2 ** 62
# the cube reader streams its body in chunks of about this many bytes
_CHUNK_BYTES = 1 << 20


def _count(name, v, lo):
    try:
        if _is_real(v) and int(v) == v and v >= lo:
            return int(v)
    except (OverflowError, ValueError):  # inf, nan
        pass
    raise FormatError(f"{name} must be an integer >= {lo}, got {v!r}")


def _numbers(name, v):
    if not (isinstance(v, (list, tuple)) and all(_is_real(x) for x in v)):
        raise FormatError(f"{name} must be a list of numbers, got {v!r}")
    return tuple(float(x) for x in v)


@dataclass
class CubeHeader:
    """Self-describing metadata stored in front of every LWC1 body."""

    kind: str
    rows: int
    cols: int
    bands: int
    sectors: int | None = None
    wavelengths_um: tuple | None = None
    unit: str = MICROFLICK
    air_temperature_k: float | None = None
    noise_sigma: float | None = None
    zenith_angles_deg: tuple | None = None
    created: str = _CREATED

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise FormatError(f"unknown container kind {self.kind!r}")
        self.rows = _count("rows", self.rows, 1)
        self.cols = _count("cols", self.cols, 1)
        self.bands = _count("bands", self.bands, 0)
        for name in ("air_temperature_k", "noise_sigma"):
            v = getattr(self, name)
            if v is not None and not (_is_real(v) and abs(v) < np.inf):
                raise FormatError(f"{name} must be a finite number, got {v!r}")
        if self.kind == "map" and self.bands != 1:
            raise FormatError(f"map containers carry one band, got {self.bands}")
        if self.kind == "cube" and self.bands < 1:
            raise FormatError("cube containers need at least one band")
        if self.kind == "omega":
            if self.sectors is None:
                self.sectors = self.bands
            if self.sectors != self.bands:
                raise FormatError(
                    f"omega sectors ({self.sectors}) must equal the third dim ({self.bands})")
        if self.wavelengths_um is not None:
            w = _numbers("wavelengths_um", self.wavelengths_um)
            if len(w) != self.bands:
                raise FormatError(
                    f"header lists {len(w)} wavelengths for {self.bands} bands")
            self.wavelengths_um = w
        if self.zenith_angles_deg is not None:
            z = _numbers("zenith_angles_deg", self.zenith_angles_deg)
            if self.kind == "omega" and len(z) != self.sectors:
                raise FormatError(
                    f"header lists {len(z)} zenith angles for {self.sectors} sectors")
            self.zenith_angles_deg = z
        nbytes = self.rows * self.cols * max(self.bands, 1) * 4
        if nbytes > _MAX_BODY_BYTES:
            raise FormatError(f"dims overflow the container ({nbytes} body bytes)")

    def body_bytes(self) -> int:
        n = self.rows * self.cols
        if self.kind == "map":
            return n * 4 + n
        return n * self.bands * 4

    def to_json(self) -> bytes:
        d = asdict(self)
        d["wavelengths_um"] = (
            None if self.wavelengths_um is None else list(self.wavelengths_um))
        d["zenith_angles_deg"] = (
            None if self.zenith_angles_deg is None else list(self.zenith_angles_deg))
        return json.dumps(d, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_json(cls, raw: bytes) -> "CubeHeader":
        try:
            d = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"undecodable header: {exc}") from exc
        if not isinstance(d, dict):
            raise FormatError("header must be a JSON object")
        allowed = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - allowed
        if unknown:
            raise FormatError(f"unknown header keys: {sorted(unknown)}")
        missing = {"kind", "rows", "cols", "bands"} - set(d)
        if missing:
            raise FormatError(f"header missing keys: {sorted(missing)}")
        return cls(**d)


def _write_container(path, header: CubeHeader, *planes):
    # each body plane is written straight from its C-ordered array buffer
    hj = header.to_json()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(hj)))
        fh.write(hj)
        for plane in planes:
            fh.write(plane)


def _read_header(fh, path) -> CubeHeader:
    """Check the magic, header and body length of the LWC1 file open at its
    start in fh; returns the header, with fh at the start of the body."""
    head = fh.read(8)
    if len(head) < 8 or head[:4] != MAGIC:
        raise FormatError(
            f"{path}: bad magic {head[:4]!r}, expected {MAGIC!r}")
    (hlen,) = struct.unpack("<I", head[4:8])
    raw = fh.read(hlen)
    if len(raw) < hlen:
        raise FormatError(
            f"{path}: truncated header: expected {hlen} bytes, got {len(raw)}")
    header = CubeHeader.from_json(raw)
    expected = header.body_bytes()
    got = os.fstat(fh.fileno()).st_size - 8 - hlen
    if got != expected:
        raise FormatError(
            f"{path}: truncated body: expected {expected} bytes, got {got}")
    return header


def _read_container(path):
    """Read an LWC1 file; returns (header, planes), each body plane read
    straight from the file: ((M, N, K) float32,) for cube and omega
    containers, ((M, N) float32, (M, N) uint8) for maps."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        shape = (header.rows, header.cols)
        n = header.rows * header.cols
        if header.kind == "map":
            planes = (np.fromfile(fh, dtype="<f4", count=n).reshape(shape),
                      np.fromfile(fh, dtype=np.uint8, count=n).reshape(shape))
        else:
            planes = (np.fromfile(fh, dtype="<f4", count=n * header.bands).reshape(
                shape + (header.bands,)),)
    return header, planes


def write_cube(path, header: CubeHeader, data):
    """Write a (rows, cols, bands) float array under a cube/omega header."""
    if header.kind == "map":
        raise FormatError("write_cube cannot write map containers; use write_map")
    arr = np.asarray(data)
    if arr.shape != (header.rows, header.cols, header.bands):
        raise DimensionError(
            f"data shape {arr.shape} does not match header "
            f"({header.rows}, {header.cols}, {header.bands})")
    _write_container(path, header, np.ascontiguousarray(arr, dtype="<f4"))


def read_cube(path):
    """Read a cube/omega container; returns (header, float32 array)."""
    header, planes = _read_container(path)
    if header.kind == "map":
        raise FormatError(
            f"{path}: kind mismatch: expected 'cube' or 'omega', found 'map'")
    return header, planes[0]


def write_map(path, header: CubeHeader, values, flags):
    """Write an (M, N) scalar map with a parallel uint8 validity plane."""
    if header.kind != "map":
        raise FormatError(f"write_map needs a map header, got kind {header.kind!r}")
    val = np.asarray(values)
    flg = np.asarray(flags)
    if val.shape != (header.rows, header.cols):
        raise DimensionError(
            f"values shape {val.shape} does not match header "
            f"({header.rows}, {header.cols})")
    if flg.shape != val.shape:
        raise DimensionError(f"flags shape {flg.shape} does not match values")
    _write_container(path, header, np.ascontiguousarray(val, dtype="<f4"),
                     np.ascontiguousarray(flg, dtype=np.uint8))


def read_map(path):
    """Read a map container; returns (header, float32 values, uint8 flags)."""
    header, planes = _read_container(path)
    if header.kind != "map":
        raise FormatError(
            f"{path}: kind mismatch: expected 'map', found {header.kind!r}")
    return (header, *planes)


# ----------------------------------------------------------------------
# typed wrappers
# ----------------------------------------------------------------------

def save_scene_cube(path, cube: SceneCube):
    header = CubeHeader(
        kind="cube",
        rows=cube.radiance.shape[0],
        cols=cube.radiance.shape[1],
        bands=cube.radiance.shape[2],
        wavelengths_um=tuple(cube.grid.wavelengths),
        unit=MICROFLICK,
        air_temperature_k=cube.air_temperature.kelvin,
        noise_sigma=cube.noise_sigma,
    )
    write_cube(path, header, cube.radiance)


def _scene_cube_header(fh, path):
    """(header, grid) of the scene cube file open at its start in fh, with
    fh left at the start of the body."""
    header = _read_header(fh, path)
    if header.kind != "cube":
        raise FormatError(f"{path}: kind mismatch: expected 'cube', found {header.kind!r}")
    if header.wavelengths_um is None:
        raise FormatError(f"{path}: cube header carries no wavelength grid")
    if header.air_temperature_k is None:
        raise FormatError(f"{path}: cube header carries no air temperature")
    return header, SpectralGrid(np.array(header.wavelengths_um))


def load_cube_grid(path) -> SpectralGrid:
    """The wavelength grid of a scene cube file, read from its header after
    every header and length check :func:`load_scene_cube` makes."""
    with open(path, "rb") as fh:
        return _scene_cube_header(fh, path)[1]


def _band_indices(keep, bands):
    """keep as a sorted array of distinct band indices (every band for None)."""
    if keep is None:
        return np.arange(bands)
    keep = list(keep)
    idx = np.asarray(keep)
    if not (idx.ndim == 1 and idx.size and idx.dtype.kind in "iu"
            and 0 <= idx.min() and idx.max() < bands):
        raise GridError(f"band indices must be integers in [0, {bands}), got {keep}")
    # a mask, not np.unique, which imports numpy.ma on first use (about
    # 20 ms of a CLI launch)
    mask = np.zeros(bands, dtype=bool)
    mask[idx] = True
    return np.flatnonzero(mask)


def _read_bands(fh, path, header, idx):
    """The (M, N, len(idx)) radiance at band indices idx, as a read-only
    float64 array, from the float32 cube body at fh.

    The body streams through one reused buffer of whole spectra, about
    _CHUNK_BYTES long, and every value of it, kept or not, must be finite.
    float32 to float64 is exact, so the bands equal those of a whole read.
    """
    k = header.bands
    px = header.rows * header.cols
    step = min(px, max(1, _CHUNK_BYTES // (4 * k)))
    buf = np.empty((step, k), dtype="<f4")
    out = np.empty((header.rows, header.cols, idx.size))
    flat = out.reshape(px, idx.size)
    cols = slice(None) if idx.size == k else idx
    for start in range(0, px, step):
        chunk = buf[:min(step, px - start)]
        if fh.readinto(chunk) != chunk.nbytes:
            raise FormatError(
                f"{path}: truncated body: the file shrank while it was read")
        if not np.isfinite(chunk).all():
            raise ConstraintError("radiance must be finite")
        flat[start:start + chunk.shape[0]] = chunk[:, cols]
    out.setflags(write=False)
    return out


def load_scene_cube(path, keep=None) -> SceneCube:
    """Read a scene cube file, keeping the bands at the indices keep lists
    (every band for None).

    The cube comes back on the sub-grid of the kept bands, in grid order,
    each band once, so a closed-form estimator reads its five bands of a
    64-band cube and holds 5/64 of the float64 cube.  Every value of the
    body must be finite, kept or not (ConstraintError); a bad header, kind
    or body length raises FormatError, and an index off the grid GridError.
    """
    with open(path, "rb") as fh:
        header, grid = _scene_cube_header(fh, path)
        idx = _band_indices(keep, header.bands)
        radiance = _read_bands(fh, path, header, idx)
    # the read-only array is adopted, not copied
    return SceneCube(
        radiance=radiance,
        grid=SpectralGrid(grid.wavelengths[idx]),
        air_temperature=Temperature(header.air_temperature_k),
        noise_sigma=header.noise_sigma if header.noise_sigma is not None else 0.0,
    )


def _map_header(rows, cols, unit):
    return CubeHeader(kind="map", rows=rows, cols=cols, bands=1, unit=unit)


def save_range_map(path, rm: RangeMap):
    write_map(path, _map_header(*rm.distances.shape, "m"), rm.distances, rm.validity)


def load_range_map(path) -> RangeMap:
    _, values, flags = read_map(path)
    return RangeMap(distances=values.astype(np.float64), validity=flags)


# the two state directories, one (attribute, file, kind, unit) row per file
_EST_FILES = (
    ("distance", "distance.lwc", "map", "m"),
    ("temperature", "temperature.lwc", "map", "K"),
    ("loss", "loss.lwc", "map", "microflick^2"),
    ("iterations", "iterations.lwc", "map", "count"),
    ("emissivity", "emissivity.lwc", "cube", "dimensionless"),
    ("solid_angles", "solid_angles.lwc", "omega", "sr"),
)
_TRUTH_FILES = (
    ("distance_map", "truth_distance.lwc", "map", "m"),
    ("temperature_map", "truth_temperature.lwc", "map", "K"),
    ("emissivity_cube", "truth_emissivity.lwc", "cube", "dimensionless"),
    ("solid_angle_maps", "truth_solid_angles.lwc", "omega", "sr"),
    ("ground_ambient", "truth_ground.lwc", "cube", MICROFLICK),
)


def _save_state(dirpath, state, files, grid, zenith_angles_deg):
    m, n = state.shape
    wav = None if grid is None else tuple(grid.wavelengths)
    ang = None if zenith_angles_deg is None else tuple(zenith_angles_deg)
    # every header is built, and so checked, before the first file is written
    headers = [
        _map_header(m, n, unit) if kind == "map" else CubeHeader(
            kind=kind, rows=m, cols=n, bands=getattr(state, attr).shape[2],
            unit=unit, wavelengths_um=wav if kind == "cube" else None,
            zenith_angles_deg=ang if kind == "omega" else None)
        for attr, _, kind, unit in files]
    out = Path(dirpath)
    out.mkdir(parents=True, exist_ok=True)
    zeros = np.zeros((m, n), dtype=np.uint8)
    for (attr, fname, kind, _), header in zip(files, headers):
        if kind == "map":
            write_map(out / fname, header, getattr(state, attr), zeros)
        else:
            write_cube(out / fname, header, getattr(state, attr))


def _load_state(dirpath, files):
    """{attribute: float64 array} of a state directory."""
    src = Path(dirpath)
    parts = {}
    for attr, fname, kind, _ in files:
        if kind == "map":
            _, a, _ = read_map(src / fname)
        else:
            _, a = read_cube(src / fname)
        parts[attr] = a.astype(np.float64)
    return parts


def save_estimates(dirpath, est: EstimateMaps, grid: SpectralGrid | None = None,
                   zenith_angles_deg=None):
    """Write one EstimateMaps as a directory of LWC1 files."""
    _save_state(dirpath, est, _EST_FILES, grid, zenith_angles_deg)


def load_estimates(dirpath) -> EstimateMaps:
    parts = _load_state(dirpath, _EST_FILES)
    it = parts["iterations"]
    if not np.all(np.isfinite(it) & (it >= 0) & (it == np.floor(it))):
        raise FormatError(f"{Path(dirpath) / 'iterations.lwc'}: iteration counts "
                          "must be whole numbers >= 0")
    parts["iterations"] = it.astype(np.int64)
    return EstimateMaps(**parts)


def save_scene_truth(dirpath, truth: SceneTruth, grid: SpectralGrid,
                     zenith_angles_deg=None):
    _save_state(dirpath, truth, _TRUTH_FILES, grid, zenith_angles_deg)


def load_truth_distance(dirpath) -> np.ndarray:
    """The (M, N) truth range map of a scene directory, in meters."""
    _, d, _ = read_map(Path(dirpath) / "truth_distance.lwc")
    return d.astype(np.float64)


def load_scene_truth(dirpath) -> SceneTruth:
    parts = _load_state(dirpath, _TRUTH_FILES)
    # handed over read-only, so SceneTruth adopts the arrays uncopied
    for a in parts.values():
        a.setflags(write=False)
    return SceneTruth(**parts)
