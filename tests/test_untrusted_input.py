"""Untrusted input: random bytes and byte-mutated valid files.

Every loader must return or raise a typed LwirError (config parsing: a
ConfigError), never a bare ValueError, UnicodeDecodeError or the like.
"""

import argparse
import dataclasses
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import micro_scene, rewrite_header
from lwirange.atmosphere import load_downwelling, load_spectrum, save_downwelling, save_spectrum
from lwirange.cli import _SETTINGS as _CLI_SETTINGS, resolve_settings
from lwirange.cube_io import (
    CubeHeader,
    load_cube_grid,
    load_estimates,
    load_scene_cube,
    load_scene_truth,
    read_cube,
    read_map,
    save_estimates,
    save_scene_cube,
    save_scene_truth,
)
from lwirange.errors import ConfigError, FormatError, LwirError
from lwirange.hyperspectral import EstimateMaps
from lwirange.radiometry import DB_PER_M

_SETTINGS = settings(deadline=None, max_examples=25,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])

# (offset, byte) overwrites, an optional truncation point, and an optional
# run of bytes inserted at an offset
_MUTATIONS = st.tuples(
    st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=6),
    st.none() | st.integers(0, 1 << 16),
    st.none() | st.tuples(st.integers(0, 1 << 16), st.binary(min_size=1, max_size=16)),
)
# either a mutation of the valid file or random bytes
_CONTENT = st.one_of(_MUTATIONS, st.binary(max_size=256))


def _apply(valid: bytes, content) -> bytes:
    if isinstance(content, bytes):
        return content
    overwrites, cut, insert = content
    out = bytearray(valid)
    for pos, byte in overwrites:
        out[pos % len(out)] = byte
    if insert is not None:
        pos, run = insert
        pos %= len(out) + 1
        out[pos:pos] = run
    if cut is not None:
        del out[cut % (len(out) + 1):]
    return bytes(out)


def _typed_or_returns(call, error=LwirError):
    """call()'s result, or None where it raised the typed error."""
    try:
        return call()
    except error:
        return None


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory holding one small valid file or file set of every kind."""
    root = tmp_path_factory.mktemp("valid")
    sc = micro_scene(rows=2, cols=3, bands=8, q=2, noise_sigma=0.5, seed=3)
    save_scene_cube(root / "cube.lwc", sc["cube"])
    save_spectrum(root / "attenuation.csv", sc["alpha"].spectrum)
    save_downwelling(root / "dw", sc["dw"])
    save_scene_truth(root / "truth", sc["truth"], sc["grid"])
    m, n, k = sc["cube"].shape
    save_estimates(root / "est", EstimateMaps(
        distance=sc["truth"].distance_map,
        temperature=sc["truth"].temperature_map,
        emissivity=sc["truth"].emissivity_cube,
        solid_angles=sc["truth"].solid_angle_maps,
        loss=np.zeros((m, n)),
        iterations=np.zeros((m, n), dtype=np.int64),
    ))
    return root


@pytest.fixture()
def work():
    with tempfile.TemporaryDirectory() as d:
        yield Path(d)


@_SETTINGS
@given(content=_CONTENT)
def test_cube_readers(valid, work, content):
    path = work / "cube.lwc"
    path.write_bytes(_apply((valid / "cube.lwc").read_bytes(), content))
    _typed_or_returns(lambda: read_cube(path))
    _typed_or_returns(lambda: load_scene_cube(path))
    _typed_or_returns(lambda: load_scene_cube(path, (0, 2, 5)))
    _typed_or_returns(lambda: load_cube_grid(path))


@_SETTINGS
@given(content=_CONTENT)
def test_map_reader(valid, work, content):
    path = work / "distance.lwc"
    path.write_bytes(_apply((valid / "est" / "distance.lwc").read_bytes(), content))
    _typed_or_returns(lambda: read_map(path))


@_SETTINGS
@given(name=st.sampled_from(["distance.lwc", "temperature.lwc", "loss.lwc",
                             "iterations.lwc", "emissivity.lwc", "solid_angles.lwc"]),
       content=_CONTENT)
def test_estimates_loader(valid, work, name, content):
    est = work / "est"
    shutil.copytree(valid / "est", est, dirs_exist_ok=True)
    (est / name).write_bytes(_apply((est / name).read_bytes(), content))
    _typed_or_returns(lambda: load_estimates(est))


@_SETTINGS
@given(name=st.sampled_from(["truth_distance.lwc", "truth_temperature.lwc",
                             "truth_emissivity.lwc", "truth_solid_angles.lwc",
                             "truth_ground.lwc"]),
       content=_CONTENT)
def test_scene_truth_loader(valid, work, name, content):
    truth = work / "truth"
    shutil.copytree(valid / "truth", truth, dirs_exist_ok=True)
    (truth / name).write_bytes(_apply((truth / name).read_bytes(), content))
    _typed_or_returns(lambda: load_scene_truth(truth))


# every numeric CubeHeader field, read off its annotation, so that a field
# added later is covered too
_NUMERIC_FIELDS = [f.name for f in dataclasses.fields(CubeHeader)
                   if any(t in str(f.type) for t in ("int", "float", "tuple"))]
# each file kind with its loaders; the first returns the header
_LOADERS = {"cube.lwc": (read_cube, load_scene_cube, load_cube_grid),
            "est/distance.lwc": (read_map,),
            "est/solid_angles.lwc": (read_cube,)}


@pytest.mark.parametrize("name", sorted(_LOADERS))
@pytest.mark.parametrize("field", _NUMERIC_FIELDS)
def test_header_integer_beyond_the_float_range(valid, work, name, field):
    # an integer too large for a float, alone or in a list field
    path = work / "file.lwc"
    path.write_bytes((valid / name).read_bytes())
    loaders = _LOADERS[name]
    old = getattr(loaders[0](path)[0], field)
    huge = 10 ** 400
    rewrite_header(path, **{field: [huge] * len(old) if isinstance(old, tuple) else huge})
    for load in loaders:
        with pytest.raises(FormatError):
            load(path)


def test_header_fuzz_finds_the_numeric_fields():
    assert {"rows", "cols", "bands", "sectors", "wavelengths_um",
            "air_temperature_k", "noise_sigma",
            "zenith_angles_deg"} <= set(_NUMERIC_FIELDS)


@_SETTINGS
@given(content=_CONTENT)
def test_spectrum_loader(valid, work, content):
    path = work / "attenuation.csv"
    path.write_bytes(_apply((valid / "attenuation.csv").read_bytes(), content))
    spectrum = _typed_or_returns(lambda: load_spectrum(path, DB_PER_M))
    assert spectrum is None or np.all(np.isfinite(spectrum.values))


@_SETTINGS
@given(name=st.sampled_from(["angles.csv", "angle_00.csv", "angle_01.csv"]),
       content=_CONTENT)
@example(name="angles.csv", content=b"nan,angle_00.csv\n")
def test_downwelling_loader(valid, work, name, content):
    dw = work / "dw"
    shutil.copytree(valid / "dw", dw, dirs_exist_ok=True)
    (dw / name).write_bytes(_apply((dw / name).read_bytes(), content))
    loaded = _typed_or_returns(lambda: load_downwelling(dw))
    assert loaded is None or (np.all(np.isfinite(loaded.values))
                              and np.all(np.isfinite(loaded.zenith_angles_deg)))


_KEYS = sorted(_CLI_SETTINGS)
_LINE = st.one_of(
    st.text(max_size=30),
    st.builds(lambda k, v: f"{k}={v}", st.sampled_from(_KEYS), st.text(max_size=20)),
)


@_SETTINGS
@given(lines=st.lists(_LINE, max_size=6), raw=st.none() | st.binary(max_size=64))
def test_config_file(work, lines, raw):
    path = work / "run.cfg"
    if raw is None:
        path.write_text("\n".join(lines), encoding="utf-8", errors="surrogatepass")
    else:
        path.write_bytes(raw)
    _typed_or_returns(
        lambda: resolve_settings(argparse.Namespace(config=str(path)), environ={}),
        ConfigError)


@_SETTINGS
@given(env=st.dictionaries(
    st.one_of(st.sampled_from(_KEYS).map(str.upper), st.text(max_size=12))
      .map(lambda k: "LWIRANGE_" + k),
    st.text(max_size=20), max_size=6))
def test_env_settings(env):
    _typed_or_returns(lambda: resolve_settings(argparse.Namespace(), environ=env),
                      ConfigError)
