"""Bit-exact binary persistence: the LWC1 container.

Layout: 4-byte magic ``LWC1``, a little-endian uint32 byte length, a UTF-8
JSON header, then the body. Cube and omega bodies are IEEE-754 binary32,
little endian, row major [i][j][k]; map bodies are an (M, N) binary32 plane
followed by an (M, N) uint8 validity plane. Cube and omega values are
finite, which writers and readers both check; map values may be NaN or inf.
Headers carry no timestamps, so writing the same data twice produces
identical files. Every body is read through one reused buffer, and a read
that comes up short raises FormatError. Every file is written by one save
(:func:`_save`), which sizes each of its files under a temporary name,
writes spans of rows of all their bodies by one set of workers, with the
bytes of any worker count, and renames the files into place once all are
whole.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from ._workers import _usable_cores, fork_map
from .closed_form import RangeMap
from .errors import ConstraintError, DimensionError, FormatError, GridError, _is_real
from .forward_model import EstimateMaps, SceneCube, SceneTruth, _all_finite
from .radiometry import MICROFLICK, SpectralGrid, Temperature

MAGIC = b"LWC1"
_CREATED = "lwirange-0.1.0"
_KINDS = ("cube", "map", "omega")
_MAX_BODY_BYTES = 2 ** 62
# bodies stream through one reused buffer of about this many bytes: the cube
# reader's, and each writer's when one image row is longer
_CHUNK_BYTES = 1 << 20


def _chunk_len(n, k, dtype):
    """Spectra per chunk of n spectra of k values of dtype: as many as fit
    in _CHUNK_BYTES, at least one and at most n."""
    return min(n, max(1, _CHUNK_BYTES // (np.dtype(dtype).itemsize * max(k, 1))))


def _count(name, v, lo):
    try:
        if _is_real(v) and int(v) == v and v >= lo:
            return int(v)
    except (OverflowError, ValueError):  # inf, nan
        pass
    raise FormatError(f"{name} must be an integer >= {lo}, got {v!r}")


def _finite(v):
    # v as a finite float, or None where it is not a finite real number
    if not _is_real(v):
        return None
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        return None
    return x if abs(x) < np.inf else None


def _number(name, v):
    x = _finite(v)
    if x is None:
        raise FormatError(f"{name} must be a finite number, got {v!r}")
    return x


def _numbers(name, v):
    if isinstance(v, (list, tuple)):
        out = tuple(_finite(x) for x in v)
        if None not in out:
            return out
    raise FormatError(f"{name} must be a list of finite numbers, got {v!r}")


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
            if v is not None:
                setattr(self, name, _number(name, v))
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
        elif self.sectors is not None:
            raise FormatError(
                f"{self.kind} containers carry no sectors, got {self.sectors!r}")
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
        # json writes the tuple fields as arrays
        return json.dumps(asdict(self), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

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


@contextmanager
def _container(path, header: CubeHeader):
    """The open file of an LWC1 container with its header written, for the
    body to be written after it.  The file is written beside path under a
    temporary name and renamed onto path once the block exits, so an
    exception part way (a refused value, a short disk) leaves no partial
    file, and any file already at path keeps its bytes."""
    tmp = f"{path}.{os.getpid()}.tmp"
    hj = header.to_json()
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(hj)))
            fh.write(hj)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _save(files):
    """Write the LWC1 files of one save.  files lists (path, header, bodies)
    per file, and bodies (row, shape, dtype, what) per body, in file order:
    a cube or omega body, or a map's value or validity plane as an (M, N, 1)
    body.  row(i) is row i of the (M, N, K) body of shape, an (N, K) array,
    cast to dtype; with what set, every cast value must be finite
    (ConstraintError naming what).  Every body has the save's M rows.

    Every file is opened under its temporary name and sized, then spans of
    rows of every body are written, each by one worker: one span per usable
    core and per _CHUNK_BYTES chunk the bodies fill, at most, so a save
    under two chunks is written here.  No file is renamed into place until
    every body is written: a refused value or a failed write leaves none."""
    with ExitStack() as stack:
        placed = []
        for path, header, bodies in files:
            fh = stack.enter_context(_container(path, header))
            offset = fh.tell()
            for row, shape, dtype, what in bodies:
                placed.append((fh.fileno(), offset, row, shape, dtype, what))
                offset += math.prod(shape) * np.dtype(dtype).itemsize
            fh.truncate(offset)  # flushes the header first
        m = files[0][1].rows
        size = sum(header.body_bytes() for _, header, _ in files)
        spans = max(1, min(m, size // _CHUNK_BYTES, _usable_cores()))
        edges = [m * s // spans for s in range(spans + 1)]
        fork_map(_write_span, [(placed, i, j) for i, j in zip(edges, edges[1:])])


def _write_span(bodies, first, stop):
    """Write rows first to stop - 1 of every body (fd, offset, row, shape,
    dtype, what) of :func:`_save` at its place in the open file fd.  Each
    row is cast in chunks of whole spectra, one image row or a part of one
    at most _CHUNK_BYTES long, each a view of one reused buffer; an empty
    chunk writes nothing.  A row of another shape raises DimensionError
    naming its row of the body."""
    for fd, offset, row, shape, dtype, what in bodies:
        _, n, k = shape
        offset += first * n * k * np.dtype(dtype).itemsize
        step = _chunk_len(n, k, dtype)
        buf = np.empty((step, k), dtype=dtype)
        for i in range(first, stop):
            values = np.asarray(row(i))
            if values.shape != (n, k):
                raise DimensionError(f"row {i} of shape {values.shape} does "
                                     f"not match the body {shape}")
            for j in range(0, n, step):
                chunk = buf[:min(step, n - j)]
                chunk[...] = values[j:j + step]
                if what is not None and not _all_finite(chunk):
                    raise ConstraintError(f"{what} must be finite")
                view = memoryview(chunk.reshape(-1).view(np.uint8))
                while view:
                    done = os.pwrite(fd, view, offset)
                    view, offset = view[done:], offset + done


def _read_header(fh, path, kinds) -> CubeHeader:
    """Check the magic, header, body length and kind, one of kinds, of the
    LWC1 file open at its start in fh; returns the header, with fh at the
    start of the body."""
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
    if header.kind not in kinds:
        raise FormatError(f"{path}: kind mismatch: expected "
                          f"{' or '.join(map(repr, kinds))}, found {header.kind!r}")
    return header


def _read_plane(fh, path, header, dtype, idx=None, what=None, stored="<f4"):
    """The next body plane of the LWC1 file at fh, stored as values of
    dtype stored, as a read-only array of dtype: (M, N) for a map plane,
    (M, N, len(idx)) at band indices idx (every band for None) for a cube
    or omega body.

    The plane streams through one reused buffer of whole spectra, about
    _CHUNK_BYTES long; a chunk that comes up short raises FormatError.
    With what set, every value, kept or not, must be finite (ConstraintError
    naming what).  The kept values are written straight into the array,
    whose memory no writable array shares, so SceneCube and SceneTruth
    adopt a float64 one uncopied; float32 to float64 is exact.
    """
    px = header.rows * header.cols
    k = 1 if header.kind == "map" else header.bands
    kept = k if idx is None else idx.size
    out = np.empty((header.rows, header.cols)
                   + (() if header.kind == "map" else (kept,)), dtype=dtype)
    flat = out.reshape(px, kept)
    cols = slice(None) if kept == k else idx
    step = _chunk_len(px, k, stored)
    buf = np.empty((step, k), dtype=stored)
    for start in range(0, px, step):
        chunk = buf[:min(step, px - start)]
        if fh.readinto(chunk) != chunk.nbytes:
            raise FormatError(
                f"{path}: truncated body: the file shrank while it was read")
        if what is not None and not _all_finite(chunk):
            raise ConstraintError(f"{what} must be finite")
        flat[start:start + chunk.shape[0]] = chunk[:, cols]
    out.setflags(write=False)
    return out


def _read_file(path, kinds, dtype):
    """Read the LWC1 file at path, whose kind must be one of kinds, with
    its values as a read-only array of dtype: (header, (M, N, K) values) of
    a cube or omega container, whose values must be finite
    (ConstraintError), or (header, (M, N) values, (M, N) uint8 flags) of a
    map, whose values may be NaN or inf."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path, kinds)
        if header.kind != "map":
            return header, _read_plane(fh, path, header, dtype,
                                       what=f"{header.kind} values")
        return (header, _read_plane(fh, path, header, dtype),
                _read_plane(fh, path, header, np.uint8, stored=np.uint8))


def _cube_file(path, header: CubeHeader, data):
    # (path, header, bodies) of a cube or omega file for _save
    if header.kind == "map":
        raise FormatError("write_cube cannot write map containers; use write_map")
    shape = (header.rows, header.cols, header.bands)
    if not callable(data):
        data = np.asarray(data)
        if data.shape != shape:
            raise DimensionError(
                f"data shape {data.shape} does not match header {shape}")
        data = data.__getitem__
    return path, header, [(data, shape, "<f4", f"{header.kind} values")]


def write_cube(path, header: CubeHeader, data):
    """Write a (rows, cols, bands) body under a cube/omega header.

    data is an array of that shape, or a function that returns row i, a
    (cols, bands) array, when called with i, such as
    :func:`forward_model.synthesize_rows` makes; an array is written as
    its row function, in spans by :func:`_save`, each worker holding about
    one _CHUNK_BYTES chunk.  Every value must be finite once cast to
    float32 (ConstraintError).  On any failure no file is left at path but
    the one that was there."""
    _save([_cube_file(path, header, data)])


def read_cube(path):
    """Read a cube/omega container; returns (header, read-only float32
    array).  Every value must be finite (ConstraintError)."""
    return _read_file(path, ("cube", "omega"), np.float32)


def _map_file(path, header: CubeHeader, values, flags):
    # (path, header, bodies) of a map file for _save
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
    shape = val.shape + (1,)
    return path, header, [(val[:, :, None].__getitem__, shape, "<f4", None),
                          (flg[:, :, None].__getitem__, shape, np.uint8, None)]


def write_map(path, header: CubeHeader, values, flags):
    """Write an (M, N) scalar map with a parallel uint8 validity plane,
    each plane a body of :func:`_save`."""
    _save([_map_file(path, header, values, flags)])


def read_map(path):
    """Read a map container; returns (header, float32 values, uint8 flags),
    both read-only.  Values may be NaN or inf: a closed-form map holds NaN
    at its flagged pixels."""
    return _read_file(path, ("map",), np.float32)


# ----------------------------------------------------------------------
# typed wrappers
# ----------------------------------------------------------------------

def _scene_cube_file(path, radiance, image_shape, grid: SpectralGrid,
                     air_temperature: Temperature, noise_sigma: float):
    return _cube_file(path, CubeHeader(
        kind="cube", rows=image_shape[0], cols=image_shape[1], bands=len(grid),
        wavelengths_um=tuple(grid.wavelengths), unit=MICROFLICK,
        air_temperature_k=air_temperature.kelvin, noise_sigma=noise_sigma),
        radiance)


def save_scene_cube(path, cube: SceneCube):
    _save([_scene_cube_file(path, cube.radiance, cube.shape[:2], cube.grid,
                            cube.air_temperature, cube.noise_sigma)])


def save_scene(dirpath, radiance, truth: SceneTruth, grid: SpectralGrid,
               air_temperature: Temperature, noise_sigma: float,
               zenith_angles_deg=None):
    """Write the files :func:`save_scene_cube` and :func:`save_scene_truth`
    write into dirpath, in one save: cube.lwc of radiance, an array or a
    row function (see :func:`write_cube`), and the truth files."""
    _save_state(dirpath, truth, _TRUTH_FILES, grid, zenith_angles_deg, [
        _scene_cube_file(Path(dirpath) / "cube.lwc", radiance, truth.shape,
                         grid, air_temperature, noise_sigma)])


def _scene_cube_header(fh, path):
    """(header, grid) of the scene cube file open at its start in fh, with
    fh left at the start of the body."""
    header = _read_header(fh, path, ("cube",))
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
        radiance = _read_plane(fh, path, header, np.float64, idx, "radiance")
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
    _, values, flags = _read_file(path, ("map",), np.float64)
    return RangeMap(distances=values, validity=flags)


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


def _save_state(dirpath, state, files, grid, zenith_angles_deg, more=()):
    """Write the files of a state directory, after the files more lists
    (see :func:`_save`), in one save; every header is built, and so
    checked, before any file is opened."""
    m, n = state.shape
    wav = None if grid is None else tuple(grid.wavelengths)
    ang = None if zenith_angles_deg is None else tuple(zenith_angles_deg)
    zeros = np.zeros((m, n), dtype=np.uint8)
    out = list(more)
    for attr, fname, kind, unit in files:
        path, a = Path(dirpath) / fname, getattr(state, attr)
        if kind == "map":
            out.append(_map_file(path, _map_header(m, n, unit), a, zeros))
        else:
            out.append(_cube_file(path, CubeHeader(
                kind=kind, rows=m, cols=n, bands=a.shape[2], unit=unit,
                wavelengths_um=wav if kind == "cube" else None,
                zenith_angles_deg=ang if kind == "omega" else None), a))
    Path(dirpath).mkdir(parents=True, exist_ok=True)
    _save(out)


def _load_state(dirpath, files):
    """{attribute: read-only float64 array} of a state directory."""
    return {attr: _read_file(Path(dirpath) / fname, (kind,), np.float64)[1]
            for attr, fname, kind, _ in files}


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
    return _read_file(Path(dirpath) / "truth_distance.lwc", ("map",), np.float64)[1]


def load_scene_truth(dirpath) -> SceneTruth:
    # the read-only arrays are adopted, not copied
    return SceneTruth(**_load_state(dirpath, _TRUTH_FILES))
