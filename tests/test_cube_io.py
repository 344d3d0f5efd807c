"""Container format tests: bit-exact roundtrips and hostile-input errors."""

import os
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from lwirange import (
    CubeHeader,
    DimensionError,
    EstimateMaps,
    FormatError,
    MICROFLICK,
    SceneCube,
    SpectralGrid,
    Temperature,
    load_cube_grid,
    load_estimates,
    load_range_map,
    load_scene_cube,
    load_scene_truth,
    load_truth_distance,
    make_default_grid,
    read_cube,
    read_map,
    save_estimates,
    save_range_map,
    save_scene_cube,
    save_scene_rows,
    save_scene_truth,
    write_cube,
    write_map,
)
from lwirange import cube_io
from lwirange._workers import fork_map
from lwirange.closed_form import RangeMap
from lwirange.errors import ConstraintError, GridError
from lwirange.forward_model import SceneTruth
from lwirange.hyperspectral import _proj_cap
from helpers import micro_scene, poke_cube, rewrite_header


def f32(rng, shape, lo=0.0, hi=1000.0):
    # values born as float32 so the on-disk cast is lossless
    span = np.float32(hi - lo)
    return (rng.random(shape, dtype=np.float32) * span + np.float32(lo))


class TestRoundTrip:
    def test_cube_bits_survive_100_random_shapes(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(100):
            if trial == 0:
                m = n = k = 1  # the degenerate single-voxel container
            else:
                m, n, k = (int(x) for x in rng.integers(1, 6, size=3))
            data = f32(rng, (m, n, k))
            path = tmp_path / f"c{trial}.lwc"
            header = CubeHeader(kind="cube", rows=m, cols=n, bands=k)
            write_cube(path, header, data)
            back_header, back = read_cube(path)
            assert back.dtype == np.float32
            npt.assert_array_equal(back, data)
            assert (back_header.rows, back_header.cols, back_header.bands) \
                == (m, n, k)

    def test_write_twice_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        data = f32(rng, (3, 4, 5))
        header = CubeHeader(kind="cube", rows=3, cols=4, bands=5,
                            wavelengths_um=tuple(np.linspace(8.0, 13.2, 5)))
        write_cube(tmp_path / "a.lwc", header, data)
        write_cube(tmp_path / "b.lwc", header, data)
        assert (tmp_path / "a.lwc").read_bytes() == (tmp_path / "b.lwc").read_bytes()

    def test_read_write_read_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        data = f32(rng, (2, 2, 3))
        write_cube(tmp_path / "a.lwc",
                   CubeHeader(kind="cube", rows=2, cols=2, bands=3), data)
        header, back = read_cube(tmp_path / "a.lwc")
        write_cube(tmp_path / "b.lwc", header, back)
        assert (tmp_path / "a.lwc").read_bytes() == (tmp_path / "b.lwc").read_bytes()

    def test_map_roundtrip_with_flags(self, tmp_path):
        rng = np.random.default_rng(3)
        values = f32(rng, (4, 7))
        flags = rng.integers(0, 4, size=(4, 7)).astype(np.uint8)
        header = CubeHeader(kind="map", rows=4, cols=7, bands=1, unit="m")
        write_map(tmp_path / "m.lwc", header, values, flags)
        back_header, v, f = read_map(tmp_path / "m.lwc")
        npt.assert_array_equal(v, values)
        npt.assert_array_equal(f, flags)
        assert f.dtype == np.uint8
        assert back_header.unit == "m"

    def test_range_map_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        rm = RangeMap(distances=f32(rng, (3, 3), 0.0, 100.0).astype(np.float64),
                      validity=rng.integers(0, 4, (3, 3)).astype(np.uint8))
        save_range_map(tmp_path / "r.lwc", rm)
        back = load_range_map(tmp_path / "r.lwc")
        npt.assert_array_equal(back.distances, rm.distances)
        npt.assert_array_equal(back.validity, rm.validity)

    def test_scene_cube_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        grid = SpectralGrid(np.linspace(8.0, 13.2, 6))
        cube = SceneCube(radiance=f32(rng, (2, 3, 6), 1.0, 900.0).astype(np.float64),
                         grid=grid, air_temperature=Temperature(291.5),
                         noise_sigma=0.75)
        save_scene_cube(tmp_path / "cube.lwc", cube)
        back = load_scene_cube(tmp_path / "cube.lwc")
        npt.assert_array_equal(back.radiance, cube.radiance)
        assert back.grid == grid
        assert back.air_temperature.kelvin == 291.5
        assert back.noise_sigma == 0.75

    def test_estimates_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        m, n, k, q = 3, 2, 5, 3
        est = EstimateMaps(
            distance=f32(rng, (m, n), 0.0, 150.0).astype(np.float64),
            temperature=f32(rng, (m, n), 280.0, 300.0).astype(np.float64),
            emissivity=f32(rng, (m, n, k), 0.0, 1.0).astype(np.float64),
            solid_angles=f32(rng, (m, n, q), 0.0, 0.9 * np.pi / q).astype(np.float64),
            loss=f32(rng, (m, n)).astype(np.float64),
            iterations=rng.integers(1, 100, (m, n)).astype(np.int64),
        )
        grid = SpectralGrid(np.linspace(8.0, 13.2, k))
        save_estimates(tmp_path / "est", est, grid, zenith_angles_deg=(0.0, 30.0, 60.0))
        back = load_estimates(tmp_path / "est")
        npt.assert_array_equal(back.distance, est.distance)
        npt.assert_array_equal(back.temperature, est.temperature)
        npt.assert_array_equal(back.emissivity, est.emissivity)
        npt.assert_array_equal(back.solid_angles, est.solid_angles)
        npt.assert_array_equal(back.loss, est.loss)
        npt.assert_array_equal(back.iterations, est.iterations)
        assert back.iterations.dtype == np.int64

    def test_scene_truth_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        m, n, k, q = 2, 3, 4, 2
        truth = SceneTruth(
            distance_map=f32(rng, (m, n), 1.0, 80.0).astype(np.float64),
            temperature_map=f32(rng, (m, n), 280.0, 310.0).astype(np.float64),
            emissivity_cube=f32(rng, (m, n, k), 0.1, 1.0).astype(np.float64),
            solid_angle_maps=f32(rng, (m, n, q), 0.0, 0.9 * np.pi / q).astype(np.float64),
            ground_ambient=f32(rng, (m, n, k), 100.0, 900.0).astype(np.float64),
        )
        grid = SpectralGrid(np.linspace(8.0, 13.2, k))
        save_scene_truth(tmp_path / "truth", truth, grid)
        back = load_scene_truth(tmp_path / "truth")
        npt.assert_array_equal(back.distance_map, truth.distance_map)
        npt.assert_array_equal(back.temperature_map, truth.temperature_map)
        npt.assert_array_equal(back.emissivity_cube, truth.emissivity_cube)
        npt.assert_array_equal(back.solid_angle_maps, truth.solid_angle_maps)
        npt.assert_array_equal(back.ground_ambient, truth.ground_ambient)
        npt.assert_array_equal(load_truth_distance(tmp_path / "truth"),
                               truth.distance_map)

    def test_sky_weights_on_the_cap_survive_float32_storage(self, tmp_path):
        # weights projected onto the cap sum to pi in float64; float32
        # storage rounds each by up to 2^-24 relative, so the loaded sums
        # land a little above pi and must still be accepted
        rng = np.random.default_rng(0)
        m, n, k, q = 8, 8, 4, 3
        om = _proj_cap(rng.uniform(0.0, 10.0, (m * n, q)).T).T.reshape(m, n, q)
        stored = om.astype(np.float32).astype(np.float64)
        assert stored.sum(axis=2).max() > np.pi * (1 + 1e-9)
        grid = SpectralGrid(np.linspace(8.0, 13.2, k))
        est = EstimateMaps(
            distance=np.full((m, n), 10.0),
            temperature=np.full((m, n), 295.0),
            emissivity=np.full((m, n, k), 0.5),
            solid_angles=om,
            loss=np.zeros((m, n)),
            iterations=np.zeros((m, n), dtype=np.int64),
        )
        save_estimates(tmp_path / "est", est, grid)
        npt.assert_array_equal(load_estimates(tmp_path / "est").solid_angles, stored)
        truth = SceneTruth(
            distance_map=est.distance,
            temperature_map=est.temperature,
            emissivity_cube=est.emissivity,
            solid_angle_maps=om,
            ground_ambient=np.full((m, n, k), 100.0),
        )
        save_scene_truth(tmp_path / "truth", truth, grid)
        npt.assert_array_equal(
            load_scene_truth(tmp_path / "truth").solid_angle_maps, stored)


class TestHeader:
    def test_json_roundtrip_keeps_every_field(self):
        header = CubeHeader(kind="cube", rows=2, cols=3, bands=4,
                            wavelengths_um=(8.0, 9.0, 10.5, 13.2),
                            unit=MICROFLICK, air_temperature_k=295.0,
                            noise_sigma=1.25)
        assert CubeHeader.from_json(header.to_json()) == header

    def test_unknown_kind_rejected(self):
        with pytest.raises(FormatError, match="unknown container kind"):
            CubeHeader(kind="tensor", rows=1, cols=1, bands=1)

    def test_map_needs_single_band(self):
        with pytest.raises(FormatError, match="one band"):
            CubeHeader(kind="map", rows=2, cols=2, bands=3)

    def test_cube_needs_bands(self):
        with pytest.raises(FormatError, match="at least one band"):
            CubeHeader(kind="cube", rows=2, cols=2, bands=0)

    def test_omega_sector_mismatch_rejected(self):
        with pytest.raises(FormatError, match="sectors"):
            CubeHeader(kind="omega", rows=2, cols=2, bands=3, sectors=4)

    def test_wavelength_count_must_match_bands(self):
        with pytest.raises(FormatError, match="wavelengths"):
            CubeHeader(kind="cube", rows=1, cols=1, bands=3,
                       wavelengths_um=(8.0, 9.0))

    def test_unknown_header_key_rejected(self):
        header = CubeHeader(kind="cube", rows=1, cols=1, bands=1)
        raw = header.to_json().replace(b'"kind"', b'"zoom":1,"kind"')
        with pytest.raises(FormatError, match="unknown header keys.*zoom"):
            CubeHeader.from_json(raw)

    def test_missing_header_key_rejected(self):
        with pytest.raises(FormatError, match="missing keys.*rows"):
            CubeHeader.from_json(b'{"kind":"cube","cols":1,"bands":1}')

    def test_undecodable_header_rejected(self):
        with pytest.raises(FormatError, match="undecodable header"):
            CubeHeader.from_json(b"{not json")
        with pytest.raises(FormatError, match="JSON object"):
            CubeHeader.from_json(b"[1,2]")


class TestMalformedHeaders:
    @pytest.mark.parametrize("key,value", [
        ("rows", "abc"), ("bands", "x"), ("rows", [1]), ("rows", None),
        ("wavelengths_um", 5), ("zenith_angles_deg", 7), ("noise_sigma", "x"),
        ("rows", 2.5), ("cols", float("inf")), ("air_temperature_k", "hot"),
        ("noise_sigma", float("nan")), ("wavelengths_um", [10 ** 400] * 8),
    ])
    def test_raises_format_error(self, tmp_path, key, value):
        path = tmp_path / "cube.lwc"
        save_scene_cube(path, micro_scene(rows=2, cols=2, bands=8)["cube"])
        rewrite_header(path, **{key: value})
        with pytest.raises(FormatError, match=key):
            load_scene_cube(path)


class TestOmegaHeader:
    @pytest.mark.parametrize("angles", [(), (0.0,), (0.0, 30.0, 60.0)])
    def test_zenith_angles_must_match_the_sectors(self, angles):
        with pytest.raises(FormatError, match="zenith angles for 2 sectors"):
            CubeHeader(kind="omega", rows=1, cols=1, bands=2,
                       zenith_angles_deg=angles)

    @pytest.mark.parametrize("angle", [float("nan"), float("inf")])
    def test_zenith_angles_must_be_finite(self, angle):
        with pytest.raises(FormatError, match="zenith_angles_deg"):
            CubeHeader(kind="omega", rows=1, cols=1, bands=1,
                       zenith_angles_deg=(angle,))

    def test_no_sectors_no_zenith_angles(self, tmp_path):
        m, n, k = 2, 2, 4
        est = EstimateMaps(
            distance=np.full((m, n), 10.0), temperature=np.full((m, n), 295.0),
            emissivity=np.full((m, n, k), 0.5), solid_angles=np.zeros((m, n, 0)),
            loss=np.zeros((m, n)), iterations=np.zeros((m, n), dtype=np.int64))
        save_estimates(tmp_path / "est", est)
        header, om = read_cube(tmp_path / "est" / "solid_angles.lwc")
        assert header.sectors == 0 and header.zenith_angles_deg is None
        assert om.shape == (m, n, 0)
        with pytest.raises(FormatError, match="1 zenith angles for 0 sectors"):
            save_estimates(tmp_path / "bad", est, zenith_angles_deg=(0.0,))
        assert not (tmp_path / "bad").exists()

    def test_a_refused_save_writes_no_file(self, tmp_path):
        # every header is checked before the first file is written, so a
        # bad zenith list leaves an existing directory as it was
        sc = micro_scene(rows=2, cols=2, bands=8, q=2)
        truth = sc["truth"]
        m, n = truth.shape
        est = EstimateMaps(
            distance=truth.distance_map, temperature=truth.temperature_map,
            emissivity=truth.emissivity_cube, solid_angles=truth.solid_angle_maps,
            loss=np.zeros((m, n)), iterations=np.zeros((m, n), dtype=np.int64))
        for name, save, state in (("est", save_estimates, est),
                                  ("truth", save_scene_truth, truth)):
            out = tmp_path / name
            out.mkdir()
            with pytest.raises(FormatError, match="3 zenith angles for 2 sectors"):
                save(out, state, sc["grid"], zenith_angles_deg=(0.0, 30.0, 60.0))
            assert list(out.iterdir()) == []


class TestHostileFiles:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.lwc"
        path.write_bytes(b"XWC1" + b"\x00" * 16)
        with pytest.raises(FormatError, match="bad magic"):
            read_cube(path)

    def test_too_short_for_magic(self, tmp_path):
        path = tmp_path / "x.lwc"
        path.write_bytes(b"LW")
        with pytest.raises(FormatError, match="bad magic"):
            read_cube(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.lwc"
        path.write_bytes(b"LWC1" + struct.pack("<I", 999) + b"{}")
        with pytest.raises(FormatError, match="truncated header: expected 999 bytes, got 2"):
            read_cube(path)

    def test_truncated_body_reports_exact_counts(self, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "x.lwc"
        write_cube(path, CubeHeader(kind="cube", rows=2, cols=2, bands=2),
                   f32(rng, (2, 2, 2)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FormatError, match="truncated body: expected 32 bytes, got 29"):
            read_cube(path)

    def test_over_long_body_rejected(self, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "x.lwc"
        write_map(path, CubeHeader(kind="map", rows=2, cols=2, bands=1),
                  f32(rng, (2, 2)), np.zeros((2, 2), dtype=np.uint8))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="expected 20 bytes, got 21"):
            read_map(path)

    def test_kind_mismatch_on_read_map(self, tmp_path):
        rng = np.random.default_rng(9)
        path = tmp_path / "c.lwc"
        write_cube(path, CubeHeader(kind="cube", rows=1, cols=1, bands=1),
                   f32(rng, (1, 1, 1)))
        with pytest.raises(FormatError, match="expected 'map'"):
            read_map(path)

    def test_kind_mismatch_on_read_cube(self, tmp_path):
        path = tmp_path / "m.lwc"
        write_map(path, CubeHeader(kind="map", rows=1, cols=1, bands=1),
                  np.zeros((1, 1)), np.zeros((1, 1), dtype=np.uint8))
        with pytest.raises(FormatError, match="found 'map'"):
            read_cube(path)

    def test_scene_cube_rejects_omega_container(self, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "o.lwc"
        write_cube(path, CubeHeader(kind="omega", rows=1, cols=1, bands=2),
                   f32(rng, (1, 1, 2)))
        with pytest.raises(FormatError, match="kind mismatch"):
            load_scene_cube(path)

    @pytest.mark.parametrize("count", [np.nan, np.inf, -1.0, 2.5])
    def test_estimates_reject_bad_iteration_counts(self, tmp_path, count):
        m, n = 2, 2
        est = EstimateMaps(
            distance=np.ones((m, n)), temperature=np.full((m, n), 300.0),
            emissivity=np.full((m, n, 3), 0.5), solid_angles=np.zeros((m, n, 1)),
            loss=np.zeros((m, n)), iterations=np.zeros((m, n), dtype=np.int64))
        save_estimates(tmp_path / "est", est)
        write_map(tmp_path / "est" / "iterations.lwc",
                  CubeHeader(kind="map", rows=m, cols=n, bands=1, unit="count"),
                  np.full((m, n), count), np.zeros((m, n), dtype=np.uint8))
        with pytest.raises(FormatError, match="iteration counts"):
            load_estimates(tmp_path / "est")

    def test_scene_cube_needs_grid_and_temperature(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "c.lwc"
        write_cube(path, CubeHeader(kind="cube", rows=1, cols=1, bands=2,
                                    air_temperature_k=295.0),
                   f32(rng, (1, 1, 2)))
        with pytest.raises(FormatError, match="no wavelength grid"):
            load_scene_cube(path)
        write_cube(path, CubeHeader(kind="cube", rows=1, cols=1, bands=2,
                                    wavelengths_um=(8.0, 9.0)),
                   f32(rng, (1, 1, 2)))
        with pytest.raises(FormatError, match="no air temperature"):
            load_scene_cube(path)


class TestStreamingReader:
    """load_scene_cube streams the body through one reused buffer and keeps
    only the bands it is asked for."""

    @pytest.fixture()
    def cube_path(self, tmp_path):
        path = tmp_path / "cube.lwc"
        save_scene_cube(path, micro_scene(rows=5, cols=7, bands=16,
                                          noise_sigma=0.5, seed=2)["cube"])
        return path

    # one spectrum per chunk; 3 spectra per chunk, so the last of the 35 is
    # a partial chunk of 2; and one chunk larger than the whole body
    @pytest.mark.parametrize("chunk_bytes", [1, 3 * 16 * 4, 1 << 30])
    @pytest.mark.parametrize("keep", [None, [3], [9, 1, 14, 1, 0]])
    def test_kept_bands_equal_the_full_read(self, cube_path, monkeypatch,
                                            chunk_bytes, keep):
        monkeypatch.setattr(cube_io, "_CHUNK_BYTES", chunk_bytes)
        header, body = read_cube(cube_path)
        idx = list(range(16)) if keep is None else sorted(set(keep))
        cube = load_scene_cube(cube_path, keep)
        assert cube.radiance.dtype == np.float64
        assert np.array_equal(cube.radiance, body[:, :, idx].astype(np.float64))
        assert cube.grid == SpectralGrid(np.array(header.wavelengths_um)[idx])
        assert cube.air_temperature.kelvin == header.air_temperature_k
        assert cube.noise_sigma == header.noise_sigma

    def test_the_cube_adopts_the_read_array(self, cube_path, monkeypatch):
        read = []

        def spy(*args):
            read.append(real(*args))
            return read[-1]

        real = cube_io._read_plane
        monkeypatch.setattr(cube_io, "_read_plane", spy)
        cube = load_scene_cube(cube_path, [2, 5])
        assert cube.radiance is read[0] and not cube.radiance.flags.writeable

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("chunk_bytes", [1, 1 << 20])
    def test_a_non_finite_value_outside_the_kept_bands_is_refused(
            self, cube_path, monkeypatch, value, chunk_bytes):
        # the last spectrum, so a one-spectrum chunk puts it in the last chunk
        monkeypatch.setattr(cube_io, "_CHUNK_BYTES", chunk_bytes)
        poke_cube(cube_path, (4, 6, 15), value)
        with pytest.raises(ConstraintError, match="radiance must be finite"):
            load_scene_cube(cube_path, [0, 1])

    def test_truncated_body_and_wrong_kind_are_refused(self, cube_path, tmp_path):
        raw = cube_path.read_bytes()
        cube_path.write_bytes(raw[:-4])
        with pytest.raises(FormatError, match="truncated body"):
            load_scene_cube(cube_path, [0])
        with pytest.raises(FormatError, match="truncated body"):
            load_cube_grid(cube_path)
        omega = tmp_path / "omega.lwc"
        write_cube(omega, CubeHeader(kind="omega", rows=1, cols=1, bands=2),
                   np.zeros((1, 1, 2)))
        with pytest.raises(FormatError, match="expected 'cube', found 'omega'"):
            load_scene_cube(omega, [0])
        with pytest.raises(FormatError, match="expected 'cube', found 'omega'"):
            load_cube_grid(omega)

    # every reader; a directory reader takes the directory of the cut file,
    # and load_estimates is cut once in a map file and once in a cube file
    @pytest.mark.parametrize("reader, cut", [
        pytest.param("load_scene_cube", "cube.lwc", id="scene"),
        pytest.param("read_cube", "cube.lwc", id="read_cube"),
        pytest.param("read_map", "range.lwc", id="read_map"),
        pytest.param("load_range_map", "range.lwc", id="range_map"),
        pytest.param("load_truth_distance", "truth/truth_distance.lwc",
                     id="truth_map"),
        pytest.param("load_scene_truth", "truth/truth_ground.lwc", id="truth"),
        pytest.param("load_estimates", "est/loss.lwc", id="est_map"),
        pytest.param("load_estimates", "est/emissivity.lwc", id="est_cube"),
    ])
    def test_a_body_that_ends_early_while_read_is_refused(
            self, cube_path, monkeypatch, reader, cut):
        # the file is cut after its length was checked: fstat still reports
        # the full length for it, but its last chunk comes up short
        root = cube_path.parent
        sc = micro_scene(rows=5, cols=7, bands=16)
        truth = sc["truth"]
        save_scene_truth(root / "truth", truth, sc["grid"])
        save_estimates(root / "est", EstimateMaps(
            distance=truth.distance_map, temperature=truth.temperature_map,
            emissivity=truth.emissivity_cube, solid_angles=truth.solid_angle_maps,
            loss=np.zeros((5, 7)), iterations=np.zeros((5, 7), dtype=np.int64)))
        save_range_map(root / "range.lwc", RangeMap(truth.distance_map,
                                                    np.zeros((5, 7), np.uint8)))
        short = root / cut
        short.write_bytes(short.read_bytes()[:-4])
        fstat, ino = os.fstat, short.stat().st_ino

        def fake_fstat(fd):
            st = fstat(fd)
            return SimpleNamespace(st_size=st.st_size + 4 * (st.st_ino == ino))

        monkeypatch.setattr(cube_io, "os", SimpleNamespace(fstat=fake_fstat))
        with pytest.raises(FormatError, match=f"{short.name}: truncated body: "
                                              "the file shrank"):
            getattr(cube_io, reader)(short.parent if "/" in cut else short)

    @pytest.mark.parametrize("kind, index, value", [
        ("cube", (4, 6, 15), np.nan), ("cube", (0, 0, 0), np.inf),
        ("cube", (2, 3, 7), -np.inf), ("omega", (1, 0, 1), np.nan)])
    def test_read_cube_refuses_a_non_finite_value(self, tmp_path, kind, index,
                                                  value):
        path = tmp_path / "c.lwc"
        write_cube(path, CubeHeader(kind=kind, rows=5, cols=7, bands=16),
                   np.ones((5, 7, 16)))
        poke_cube(path, index, value)
        with pytest.raises(ConstraintError, match=f"{kind} values must be finite"):
            read_cube(path)

    @pytest.mark.parametrize("keep", [[], [16], [-1], [1.0], [True], [[1, 2]]])
    def test_band_indices_off_the_grid_are_refused(self, cube_path, keep):
        with pytest.raises(GridError, match=r"band indices must be integers in \[0, 16\)"):
            load_scene_cube(cube_path, keep)

    def test_grid_comes_from_the_header(self, cube_path):
        assert load_cube_grid(cube_path) == load_scene_cube(cube_path).grid


class TestWriterGuards:
    def test_write_cube_rejects_map_header(self):
        with pytest.raises(FormatError, match="use write_map"):
            write_cube("/dev/null",
                       CubeHeader(kind="map", rows=1, cols=1, bands=1),
                       np.zeros((1, 1, 1)))

    def test_write_map_rejects_cube_header(self):
        with pytest.raises(FormatError, match="needs a map header"):
            write_map("/dev/null",
                      CubeHeader(kind="cube", rows=1, cols=1, bands=1),
                      np.zeros((1, 1)), np.zeros((1, 1), dtype=np.uint8))

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(DimensionError, match="does not match header"):
            write_cube(tmp_path / "x.lwc",
                       CubeHeader(kind="cube", rows=2, cols=2, bands=2),
                       np.zeros((2, 2, 3)))
        with pytest.raises(DimensionError, match="flags shape"):
            write_map(tmp_path / "x.lwc",
                      CubeHeader(kind="map", rows=2, cols=2, bands=1),
                      np.zeros((2, 2)), np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(DimensionError, match="does not match header"):
            write_map(tmp_path / "x.lwc",
                      CubeHeader(kind="map", rows=2, cols=2, bands=1),
                      np.zeros((3, 2)), np.zeros((3, 2), dtype=np.uint8))
        assert not (tmp_path / "x.lwc").exists()


class TestStreamingWriter:
    """write_cube casts and writes its body, an array or a function of the
    row index, one image row at a time, into a temporary file beside its
    path that replaces the path only once whole."""

    @pytest.fixture()
    def body(self):
        return np.random.default_rng(3).random((5, 7, 6)) * 1000.0

    def header(self, body):
        return CubeHeader(kind="cube", rows=body.shape[0], cols=body.shape[1],
                          bands=body.shape[2])

    # a spectrum per chunk; 3 spectra, so a row of 7 ends in a partial
    # chunk; and one chunk larger than the whole body
    @pytest.mark.parametrize("chunk_bytes", [1, 3 * 6 * 4, 1 << 30])
    def test_rows_and_any_chunk_size_write_the_whole_array_bytes(
            self, tmp_path, monkeypatch, body, chunk_bytes):
        write_cube(tmp_path / "want.lwc", self.header(body), body)
        want = (tmp_path / "want.lwc").read_bytes()
        monkeypatch.setattr(cube_io, "_CHUNK_BYTES", chunk_bytes)
        for name, data in (("array", body), ("rows", lambda i: body[i].copy())):
            write_cube(tmp_path / name, self.header(body), data)
            assert (tmp_path / name).read_bytes() == want, name
        assert read_cube(tmp_path / "rows")[1].tobytes() == \
            body.astype("<f4").tobytes()

    def test_an_iterator_of_rows_is_refused(self, tmp_path, body):
        with pytest.raises(DimensionError, match=r"data shape \(\) does not"):
            write_cube(tmp_path / "c.lwc", self.header(body), iter(body))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cores", [1, 2])
    def test_a_body_of_no_bands_writes_no_body_bytes(self, tmp_path,
                                                    monkeypatch, cores):
        # an omega body with no sky sectors, as a no-sky solve saves it
        monkeypatch.setattr(cube_io, "_usable_cores", lambda: cores)
        monkeypatch.setattr(cube_io, "_CHUNK_BYTES", 1)
        header = CubeHeader(kind="omega", rows=2, cols=3, bands=0)
        write_cube(tmp_path / "array.lwc", header, np.zeros((2, 3, 0)))
        write_cube(tmp_path / "rows.lwc", header, lambda i: np.zeros((3, 0)))
        assert (tmp_path / "rows.lwc").read_bytes() == \
            (tmp_path / "array.lwc").read_bytes()
        for name in ("array.lwc", "rows.lwc"):
            back_header, values = read_cube(tmp_path / name)
            assert back_header == header and values.shape == (2, 3, 0)

    def test_a_broadcast_body_is_written_without_a_whole_float32_copy(
            self, tmp_path):
        flat = np.random.default_rng(4).random((64, 64, 1))
        body = np.broadcast_to(flat, (64, 64, 64))
        header = CubeHeader(kind="cube", rows=64, cols=64, bands=64)
        write_cube(tmp_path / "warm.lwc", header, body)
        tracemalloc.start()
        try:
            write_cube(tmp_path / "e.lwc", header, body)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < body.size * 4 / 8
        assert np.array_equal(read_cube(tmp_path / "e.lwc")[1],
                              body.astype(np.float32))

    @staticmethod
    def nan_row(row):
        row[1, 2] = np.nan

    @staticmethod
    def disk_full(row):
        raise OSError(28, "No space left on device")

    @pytest.mark.parametrize("fault, error, match", [
        ("nan_row", ConstraintError, "cube values must be finite"),
        ("disk_full", OSError, "No space left"),
    ])
    @pytest.mark.parametrize("existing", [False, True])
    def test_a_failure_mid_body_leaves_no_partial_file(
            self, tmp_path, monkeypatch, body, fault, error, match, existing):
        # three spectra a chunk, so each usable core writes a span
        monkeypatch.setattr(cube_io, "_CHUNK_BYTES", 3 * 6 * 4)
        target = tmp_path / "cube.lwc"
        if existing:
            target.write_bytes(b"earlier bytes")

        def row(i):
            r = body[i].copy()
            if i == 3:
                getattr(self, fault)(r)
            return r

        for cores in (1, 2):
            monkeypatch.setattr(cube_io, "_usable_cores", lambda: cores)
            with pytest.raises(error, match=match):
                write_cube(target, self.header(body), row)
            left = sorted(p.name for p in tmp_path.iterdir())
            if existing:
                assert left == ["cube.lwc"]
                assert target.read_bytes() == b"earlier bytes"
            else:
                assert left == []
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39])
    def test_a_value_not_finite_in_float32_is_refused(self, tmp_path, body,
                                                      value):
        body[4, 6, 5] = value
        with pytest.raises(ConstraintError, match="cube values must be finite"):
            write_cube(tmp_path / "c.lwc", self.header(body), body)
        assert list(tmp_path.iterdir()) == []

    # row functions of a six-row body
    @pytest.mark.parametrize("rows, match", [
        (lambda b: lambda i: b[i, :6] if i == 5 else b[i], "row 5 of shape"),
        (lambda b: lambda i: b[i, :6], r"row 0 of shape \(6, 6\)"),
    ])
    def test_rows_must_fill_the_header_shape(self, tmp_path, body, rows,
                                             match):
        body = np.concatenate([body, body[:1]])
        with pytest.raises(DimensionError, match=match):
            write_cube(tmp_path / "c.lwc", self.header(body), rows(body))
        assert list(tmp_path.iterdir()) == []

    def test_maps_keep_their_non_finite_values(self, tmp_path):
        values = np.array([[1.5, np.nan], [np.inf, -2.0]])
        flags = np.array([[0, 1], [2, 3]], dtype=np.uint8)
        write_map(tmp_path / "m.lwc", CubeHeader(kind="map", rows=2, cols=2,
                                                  bands=1), values, flags)
        _, v, f = read_map(tmp_path / "m.lwc")
        assert np.array_equal(v, values.astype(np.float32), equal_nan=True)
        assert np.array_equal(f, flags)


class TestSpanWriter:
    """write_cube writes a body given as a function of the row index in
    contiguous spans of rows, each at its offset in the sized file: one span
    per _CHUNK_BYTES chunk the body fills and per usable core, at most, and
    more than one span in forked workers."""

    # 73 x 128 x 64 float32 is 2.3 MiB, three chunks: spans of 36 and 37
    # rows on two cores, and of 24, 24 and 25 on three
    shape = (73, 128, 64)

    @pytest.fixture()
    def body(self):
        return np.random.default_rng(5).random(self.shape) * 1000.0

    def header(self):
        return CubeHeader(kind="cube", rows=self.shape[0], cols=self.shape[1],
                          bands=self.shape[2])

    @staticmethod
    def record_spans(monkeypatch, cores):
        # the row count of each span of every write from here on
        monkeypatch.setattr(cube_io, "_usable_cores", lambda: cores)
        spans = []

        def recording(fn, jobs, meanwhile=None):
            spans.append([stop - first for _, _, _, first, stop, *_ in jobs])
            return fork_map(fn, jobs, meanwhile)

        monkeypatch.setattr(cube_io, "fork_map", recording)
        return spans

    @pytest.mark.parametrize("cores, rows", [(1, [73]), (2, [36, 37]),
                                             (3, [24, 24, 25]), (8, [24, 24, 25])])
    def test_any_worker_count_writes_the_array_bytes(
            self, tmp_path, monkeypatch, body, cores, rows):
        write_cube(tmp_path / "want.lwc", self.header(), body)
        spans = self.record_spans(monkeypatch, cores)
        write_cube(tmp_path / "rows.lwc", self.header(), body.__getitem__)
        assert spans == [rows]
        assert (tmp_path / "rows.lwc").read_bytes() == \
            (tmp_path / "want.lwc").read_bytes()

    def test_a_body_of_one_chunk_is_written_in_this_process(self, tmp_path,
                                                             monkeypatch, body):
        small = body[:8, :16]
        spans = self.record_spans(monkeypatch, 8)
        pids = set()

        def row(i):
            pids.add(os.getpid())
            return small[i]

        header = CubeHeader(kind="cube", rows=8, cols=16, bands=64)
        write_cube(tmp_path / "c.lwc", header, row)
        assert spans == [[8]] and pids == {os.getpid()}
        assert read_cube(tmp_path / "c.lwc")[1].tobytes() == \
            small.astype("<f4").tobytes()

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("existing", [False, True])
    def test_a_refused_row_in_a_worker_leaves_no_file(
            self, tmp_path, monkeypatch, body, cores, existing):
        # row 50 is in the last span on any worker count
        monkeypatch.setattr(cube_io, "_usable_cores", lambda: cores)
        target = tmp_path / "cube.lwc"
        if existing:
            target.write_bytes(b"earlier bytes")

        def row(i):
            return np.where(i == 50, np.nan, body[i])

        with pytest.raises(ConstraintError, match="cube values must be finite"):
            write_cube(target, self.header(), row)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            (["cube.lwc"] if existing else [])
        if existing:
            assert target.read_bytes() == b"earlier bytes"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_a_row_of_another_shape_is_named_by_its_body_row(
            self, tmp_path, monkeypatch, body, cores):
        # row 50 is in the last span on any worker count
        monkeypatch.setattr(cube_io, "_usable_cores", lambda: cores)

        def row(i):
            return body[i, 1:] if i == 50 else body[i]

        with pytest.raises(DimensionError, match=(
                r"^row 50 of shape \(127, 64\) does not match the body "
                r"\(73, 128, 64\)$")):
            write_cube(tmp_path / "cube.lwc", self.header(), row)
        assert list(tmp_path.iterdir()) == []

    def test_a_refused_truth_body_in_meanwhile_stops_the_cube_and_leaves_no_file(
            self, tmp_path, monkeypatch, body):
        # the array body written in meanwhile is itself longer than one
        # chunk, so its workers are forked while the cube's workers run
        monkeypatch.setattr(cube_io, "_usable_cores", lambda: 2)
        bad = body.copy()
        bad[60, 3, 7] = np.nan

        def meanwhile():
            write_cube(tmp_path / "truth.lwc", self.header(), bad)

        with pytest.raises(ConstraintError, match="cube values must be finite"):
            save_scene_rows(tmp_path / "cube.lwc", body.__getitem__,
                            self.shape[:2], make_default_grid(self.shape[2]),
                            Temperature(290.0), 0.0, meanwhile)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_meanwhile_runs_here_while_the_workers_write(self, tmp_path,
                                                          monkeypatch, body):
        monkeypatch.setattr(cube_io, "_usable_cores", lambda: 2)
        seen = []
        target = tmp_path / "cube.lwc"

        def meanwhile():
            seen.append((os.getpid(), target.exists()))

        write_cube(target, self.header(), body.__getitem__, meanwhile)
        assert seen == [(os.getpid(), False)]
        assert read_cube(target)[1].tobytes() == body.astype("<f4").tobytes()

    def test_an_error_in_meanwhile_stops_the_workers_and_leaves_no_file(
            self, tmp_path, monkeypatch, body):
        monkeypatch.setattr(cube_io, "_usable_cores", lambda: 2)

        def meanwhile():
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError, match="No space left"):
            write_cube(tmp_path / "cube.lwc", self.header(), body.__getitem__,
                       meanwhile)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestPipelineFidelity:
    def test_synthesized_cube_survives_disk_as_float32(self, tmp_path):
        sc = micro_scene(rows=3, cols=3, bands=10, q=2, noise_sigma=0.4, seed=14)
        save_scene_cube(tmp_path / "cube.lwc", sc["cube"])
        back = load_scene_cube(tmp_path / "cube.lwc")
        # float32 body: values agree to single precision, grid exactly
        npt.assert_allclose(back.radiance, sc["cube"].radiance, rtol=2e-7)
        npt.assert_array_equal(back.radiance,
                               sc["cube"].radiance.astype(np.float32))
        assert back.grid == sc["cube"].grid
