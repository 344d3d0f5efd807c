"""Bit-exact binary persistence: the LWC1 container.

Layout: 4-byte magic ``LWC1``, a little-endian uint32 byte length, a UTF-8
JSON header, then the body. Cube and omega bodies are IEEE-754 binary32,
little endian, row major [i][j][k]; map bodies are an (M, N) binary32 plane
followed by an (M, N) uint8 validity plane. Cube and omega values are
finite, which writers and readers both check; map values may be NaN or inf.
Every body is read, and a map body written, through one reused buffer, and
a read that comes up short raises FormatError. A cube or omega body, given
as an array or as a function of the row index, is written by span: the
file is sized first, and each contiguous span of rows is computed, cast and
written at its offset by one worker, forked where the body is longer than
one buffer, with the bytes of any worker count. Headers carry no
timestamps, so writing the same data twice produces identical files. Each
file is written under a temporary name beside its path and renamed into
place once whole.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
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
    path = os.fspath(path)
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


def _write_span(fd, offset, row, first, stop, shape, what):
    # write rows first to stop - 1 of the (M, N, K) body whose row i is
    # row(i) at offset in the open file fd, in the chunks of _body_chunks;
    # an empty chunk writes nothing
    for chunk in _body_chunks(map(row, range(first, stop)), shape, "<f4",
                              what, first):
        view = memoryview(chunk.reshape(-1).view(np.uint8))
        while view:
            done = os.pwrite(fd, view, offset)
            view, offset = view[done:], offset + done


def _write_row_spans(fh, shape, row, what, meanwhile):
    """Write the (M, N, K) body whose row i is row(i) into the open file fh,
    after what fh holds, which is flushed first: the file is sized to hold
    the body, then contiguous spans of rows are each computed, cast and
    written at their offsets by one worker.  There are as many spans as
    the body fills _CHUNK_BYTES chunks, and as usable cores, at most; one
    span is written in this process, more by forked workers, while
    meanwhile() runs here (see :func:`fork_map`)."""
    m, n, k = shape
    start = fh.tell()
    row_bytes = n * k * 4
    fh.truncate(start + m * row_bytes)
    spans = max(1, min(m, -(-m * row_bytes // _CHUNK_BYTES), _usable_cores()))
    edges = [m * s // spans for s in range(spans + 1)]
    fork_map(_write_span, [
        (fh.fileno(), start + i * row_bytes, row, i, j, shape, what)
        for i, j in zip(edges, edges[1:])], meanwhile)


def _body_chunks(rows, shape, dtype, what=None, first=0):
    """rows, an iterable of (N, K) rows of the shape = (M, N, K) body from
    its row first on, cast to dtype, in chunks of whole spectra: one image
    row, or a part of one at most _CHUNK_BYTES long, each a view of one
    reused buffer.  With what set, every cast value must be finite
    (ConstraintError naming what).  A row of another shape raises
    DimensionError naming its row of the body."""
    _, n, k = shape
    step = _chunk_len(n, k, dtype)
    buf = np.empty((step, k), dtype=dtype)
    for i, row in enumerate(rows, first):
        row = np.asarray(row)
        if row.shape != (n, k):
            raise DimensionError(
                f"row {i} of shape {row.shape} does not match the body {shape}")
        for j in range(0, n, step):
            chunk = buf[:min(step, n - j)]
            chunk[...] = row[j:j + step]
            if what is not None and not _all_finite(chunk):
                raise ConstraintError(f"{what} must be finite")
            yield chunk


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


def write_cube(path, header: CubeHeader, data, meanwhile=None):
    """Write a (rows, cols, bands) body under a cube/omega header.

    data is an array of that shape, or a function that returns row i, a
    (cols, bands) array, when called with i, such as
    :func:`forward_model.synthesize_rows` makes; an array is written as
    its row function.  The rows are computed, cast to float32 and written
    in contiguous spans at their offsets, by forked workers where the body
    is longer than one _CHUNK_BYTES chunk and there is more than one usable
    core, each worker holding about one chunk, so no float32 copy of the
    whole body is made; the bytes are the same for any number of workers.
    Every value must be finite once cast (ConstraintError).  meanwhile(),
    if given, runs in this process before the file is renamed into place,
    while the workers write.  On any failure no file is left at path but
    the one that was there."""
    if header.kind == "map":
        raise FormatError("write_cube cannot write map containers; use write_map")
    shape = (header.rows, header.cols, header.bands)
    if not callable(data):
        data = np.asarray(data)
        if data.shape != shape:
            raise DimensionError(
                f"data shape {data.shape} does not match header {shape}")
        data = data.__getitem__
    with _container(path, header) as fh:
        _write_row_spans(fh, shape, data, f"{header.kind} values", meanwhile)


def read_cube(path):
    """Read a cube/omega container; returns (header, read-only float32
    array).  Every value must be finite (ConstraintError)."""
    return _read_file(path, ("cube", "omega"), np.float32)


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
    shape = val.shape + (1,)
    with _container(path, header) as fh:
        fh.writelines(_body_chunks(val[:, :, None], shape, "<f4"))
        fh.writelines(_body_chunks(flg[:, :, None], shape, np.uint8))


def read_map(path):
    """Read a map container; returns (header, float32 values, uint8 flags),
    both read-only.  Values may be NaN or inf: a closed-form map holds NaN
    at its flagged pixels."""
    return _read_file(path, ("map",), np.float32)


# ----------------------------------------------------------------------
# typed wrappers
# ----------------------------------------------------------------------

def save_scene_cube(path, cube: SceneCube):
    save_scene_rows(path, cube.radiance, cube.shape[:2], cube.grid,
                    cube.air_temperature, cube.noise_sigma)


def save_scene_rows(path, radiance, image_shape, grid: SpectralGrid,
                    air_temperature: Temperature, noise_sigma: float,
                    meanwhile=None):
    """Write a scene cube file of image_shape = (M, N) from its radiance:
    an (M, N, K) array, or a function of the row index that returns that
    (N, K) row, such as :func:`forward_model.synthesize_rows` makes.  The
    rows are written in spans by forked workers while meanwhile(), if given,
    runs here (see :func:`write_cube`).  The file is the one
    :func:`save_scene_cube` writes of the cube those rows fill."""
    header = CubeHeader(
        kind="cube",
        rows=image_shape[0],
        cols=image_shape[1],
        bands=len(grid),
        wavelengths_um=tuple(grid.wavelengths),
        unit=MICROFLICK,
        air_temperature_k=air_temperature.kelvin,
        noise_sigma=noise_sigma,
    )
    write_cube(path, header, radiance, meanwhile)


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
