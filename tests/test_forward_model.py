"""Scene synthesis: batch observation model, noise seeding, default fixture."""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import AIR, attenuation_from, flat_scene, micro_scene
from lwirange.atmosphere import (
    AtmosphereParams,
    DownwellingSet,
    _tau,
    make_default_grid,
    synth_attenuation,
    synth_downwelling,
)
from lwirange.errors import ConstraintError, DimensionError, DomainError
from lwirange.forward_model import (
    SceneCube,
    SceneTruth,
    _contrast,
    _mix,
    _radiance,
    default_panel_masks,
    make_default_scene,
    radiance_model_batch,
    synthesize_cube,
    synthesize_rows,
)
from lwirange.radiometry import planck


def naive_observation(wav, alpha, d, t, eps, omegas, ld, ground, b_air):
    """Scalar reference model, one band at a time, different algebra order."""
    k = len(wav)
    q = len(omegas)
    out = np.zeros(k)
    for b in range(k):
        tau = 10.0 ** (-alpha[b] * d / 10.0)
        bt = planck(float(wav[b]), t)
        sky = sum(omegas[s] * ld[s][b] for s in range(q))
        mix = (sky + (math.pi - sum(omegas)) * ground[b]) / math.pi
        out[b] = tau * (eps[b] * bt + (1.0 - eps[b]) * mix) + (1.0 - tau) * b_air[b]
    return out


def test_batch_model_matches_scalar_reference():
    rng = np.random.default_rng(3)
    grid = make_default_grid(bands=12)
    wav = grid.wavelengths
    alpha = rng.uniform(0.0, 2.0, 12)
    b_air = planck(wav, 295.0)
    ld = rng.uniform(50.0, 900.0, (3, 12))
    p = 6
    d = rng.uniform(0.0, 80.0, p)
    t = rng.uniform(270.0, 320.0, p)
    eps = rng.uniform(0.0, 1.0, (p, 12))
    om = rng.uniform(0.0, np.pi / 4, (p, 3))
    ground = rng.uniform(100.0, 1000.0, (p, 12))
    got = radiance_model_batch(wav, alpha, d, t, eps, om, ld, ground, b_air)
    assert got.shape == (p, 12)
    for i in range(p):
        want = naive_observation(wav, alpha, d[i], t[i], eps[i], om[i], ld,
                                 ground[i], b_air)
        np.testing.assert_allclose(got[i], want, rtol=1e-12)


def test_zero_distance_removes_path_terms():
    grid = make_default_grid(bands=8)
    wav = grid.wavelengths
    alpha = np.linspace(0.1, 3.0, 8)
    b_air = planck(wav, 295.0)
    eps = np.full((1, 8), 0.7)
    ground = np.zeros((1, 8))
    got = radiance_model_batch(wav, alpha, np.array([0.0]), np.array([300.0]),
                               eps, np.zeros((1, 0)), np.zeros((0, 8)),
                               ground, b_air)
    np.testing.assert_allclose(got[0], 0.7 * planck(wav, 300.0), rtol=1e-13)


def test_opaque_limit_converges_to_air_radiance():
    grid = make_default_grid(bands=8)
    wav = grid.wavelengths
    alpha = np.full(8, 5.0)
    b_air = planck(wav, 295.0)
    got = radiance_model_batch(wav, alpha, np.array([2000.0]),
                               np.array([350.0]), np.full((1, 8), 0.9),
                               np.zeros((1, 0)), np.zeros((0, 8)),
                               np.zeros((1, 8)), b_air)
    np.testing.assert_allclose(got[0], b_air, rtol=1e-12)


def test_synthesis_is_deterministic_per_seed():
    a = micro_scene(noise_sigma=1.5, seed=42)["cube"]
    b = micro_scene(noise_sigma=1.5, seed=42)["cube"]
    c = micro_scene(noise_sigma=1.5, seed=43)["cube"]
    np.testing.assert_array_equal(a.radiance, b.radiance)
    assert not np.array_equal(a.radiance, c.radiance)


def _random_truth(rng, m, n, k, q):
    om = rng.uniform(0.0, np.pi / max(q, 1), (m, n, q))
    return SceneTruth(
        distance_map=rng.uniform(0.0, 200.0, (m, n)),
        temperature_map=rng.uniform(270.0, 320.0, (m, n)),
        emissivity_cube=rng.uniform(0.0, 1.0, (m, n, k)),
        solid_angle_maps=om,
        ground_ambient=rng.uniform(100.0, 1000.0, (m, n, k)),
    )


@pytest.mark.parametrize("q", [3, 0])
def test_noiseless_cube_is_the_batch_model_over_the_flat_image(q):
    # synthesize_cube evaluates row by row; the bits must be those of one
    # whole-image batch
    rng = np.random.default_rng(30 + q)
    grid = make_default_grid(bands=12)
    params = AtmosphereParams(air_temperature=AIR)
    alpha = synth_attenuation(params, grid)
    dw = synth_downwelling(params, grid, (0.0, 40.0, 70.0)) if q else None
    m, n, k = 7, 5, len(grid)
    truth = _random_truth(rng, m, n, k, q)
    cube = synthesize_cube(truth, alpha, dw, AIR)
    p = m * n
    flat = radiance_model_batch(
        grid.wavelengths, alpha.values,
        truth.distance_map.reshape(p), truth.temperature_map.reshape(p),
        truth.emissivity_cube.reshape(p, k), truth.solid_angle_maps.reshape(p, q),
        np.zeros((0, k)) if dw is None else dw.values,
        truth.ground_ambient.reshape(p, k), planck(grid.wavelengths, AIR.kelvin))
    np.testing.assert_array_equal(cube.radiance, flat.reshape(m, n, k))


@pytest.mark.parametrize("r, c", [(1, 1), (3, 2), (7, 5)])
def test_noisy_corner_is_the_cube_of_the_corner_truth(r, c):
    # row i's noise is the first N*K draws of stream (seed, i), so a corner
    # of a scene draws exactly what the corner alone draws
    s = micro_scene(rows=7, cols=5, bands=8, q=2, noise_sigma=1.5, seed=9)
    t = s["truth"]
    corner = SceneTruth(
        distance_map=t.distance_map[:r, :c],
        temperature_map=t.temperature_map[:r, :c],
        emissivity_cube=t.emissivity_cube[:r, :c],
        solid_angle_maps=t.solid_angle_maps[:r, :c],
        ground_ambient=t.ground_ambient[:r, :c],
    )
    small = synthesize_cube(corner, s["alpha"], s["dw"], AIR, 1.5, rng_seed=9)
    np.testing.assert_array_equal(small.radiance, s["cube"].radiance[:r, :c])


def test_noise_field_is_positional_not_content_dependent():
    """The row stream (seed, i) must not shift when the truth changes."""
    s1 = micro_scene(rows=4, cols=4, bands=8, q=1, noise_sigma=2.0, seed=7)
    noise1 = s1["cube"].radiance - micro_scene(rows=4, cols=4, bands=8, q=1,
                                               noise_sigma=0.0, seed=7)["cube"].radiance
    grid = s1["grid"]
    truth2 = flat_scene(grid, 12.0, 301.0, 0.5, rows=4, cols=4, q=1, omega=0.2)
    clean2 = synthesize_cube(truth2, s1["alpha"], s1["dw"], AIR, 0.0, rng_seed=7)
    noisy2 = synthesize_cube(truth2, s1["alpha"], s1["dw"], AIR, 2.0, rng_seed=7)
    # subtraction reintroduces one rounding step, hence atol instead of equality
    np.testing.assert_allclose(noisy2.radiance - clean2.radiance, noise1,
                               rtol=0.0, atol=1e-9)


def test_noise_sigma_recorded_on_cube():
    s = micro_scene(noise_sigma=0.75)
    assert s["cube"].noise_sigma == 0.75
    assert s["cube"].air_temperature.kelvin == AIR.kelvin


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
def test_non_finite_or_negative_noise_sigma_rejected(sigma):
    s = micro_scene(rows=2, cols=2, bands=8, q=1)
    with pytest.raises(DomainError, match="noise_sigma"):
        SceneCube(s["cube"].radiance, s["grid"], AIR, noise_sigma=sigma)
    with pytest.raises(DomainError, match="noise_sigma"):
        synthesize_cube(s["truth"], s["alpha"], s["dw"], AIR, noise_sigma=sigma)


def test_scene_truth_validation():
    grid = make_default_grid(bands=8)
    good = flat_scene(grid, 10.0, 300.0, 0.5, q=1, omega=0.1)
    assert good.distance_map.shape == (2, 2)
    with pytest.raises(ConstraintError):
        flat_scene(grid, -1.0, 300.0, 0.5)
    with pytest.raises(ConstraintError):
        flat_scene(grid, 10.0, 300.0, 1.5)
    with pytest.raises(ConstraintError):
        flat_scene(grid, 10.0, 300.0, 0.5, q=2, omega=2.0)  # sums past pi


_TRUTH_FIELDS = ("distance_map", "temperature_map", "emissivity_cube",
                 "solid_angle_maps", "ground_ambient")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", _TRUTH_FIELDS)
def test_scene_truth_rejects_non_finite_values(field, bad):
    grid = make_default_grid(bands=8)
    good = flat_scene(grid, 10.0, 300.0, 0.5, q=2, omega=0.1, ground=50.0)
    maps = {f: np.array(getattr(good, f)) for f in _TRUTH_FIELDS}
    maps[field][0, 0] = bad
    with pytest.raises(ConstraintError):
        SceneTruth(**maps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
@pytest.mark.parametrize("source", [(1, 1, 8), (1, 3, 8), (2, 1, 1)])
@pytest.mark.parametrize("field", ["emissivity_cube", "ground_ambient"])
def test_a_bad_value_in_a_broadcast_source_is_refused(field, source, bad):
    # the checks reduce a stride-0 axis at its first index only, so the
    # source's last entry, which every pixel of its broadcast aliases, is
    # still read
    grid = make_default_grid(bands=8)
    good = flat_scene(grid, 10.0, 300.0, 0.5, rows=2, cols=3, q=1, omega=0.1,
                      ground=50.0)
    maps = {f: getattr(good, f) for f in _TRUTH_FIELDS}
    src = np.full(source, 0.5)
    src[-1, -1, -1] = bad
    maps[field] = np.broadcast_to(src, (2, 3, 8))
    with pytest.raises(ConstraintError):
        SceneTruth(**maps)
    maps[field] = np.broadcast_to(np.full(source, 0.5), (2, 3, 8))
    assert SceneTruth(**maps).distance_map.shape == (2, 3)


def test_default_scene_layout():
    grid = make_default_grid(bands=16)
    truth = make_default_scene(grid, q=3, rows=32, cols=32)
    panel, eps60, eps90 = default_panel_masks(32, 32)
    assert panel.sum() == eps60.sum() + eps90.sum()
    assert np.all(truth.emissivity_cube[eps60] == 0.6)
    assert np.all(truth.emissivity_cube[eps90] == 0.9)
    assert np.all(truth.emissivity_cube[~panel] == 0.98)
    assert np.all(truth.distance_map[panel] == 30.0)
    background = truth.distance_map[~panel]
    assert background.min() == 5.0 and background.max() == 60.0
    assert truth.solid_angle_maps.shape == (32, 32, 3)
    sums = truth.solid_angle_maps.sum(axis=2)
    assert np.all(sums <= np.pi * (1 + 1e-9))
    # panels see more sky than grass
    assert sums[panel].mean() < sums[~panel].mean()


def test_default_scene_respects_rows_cols_and_q():
    grid = make_default_grid(bands=8)
    truth = make_default_scene(grid, q=5, rows=12, cols=9)
    assert truth.distance_map.shape == (12, 9)
    assert truth.solid_angle_maps.shape == (12, 9, 5)
    with pytest.raises(DomainError):
        make_default_scene(grid, q=0)


def test_scene_cube_wraps_radiance():
    s = micro_scene(rows=2, cols=3, bands=8, q=1)
    cube = s["cube"]
    assert isinstance(cube, SceneCube)
    assert cube.radiance.shape == (2, 3, 8)
    assert np.all(np.isfinite(cube.radiance))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scene_cube_owns_a_read_only_float64_copy(dtype):
    s = micro_scene(rows=2, cols=3, bands=8, q=1)
    src = s["cube"].radiance.astype(dtype)
    cube = SceneCube(src, s["grid"], AIR)
    assert cube.radiance.dtype == np.float64
    assert not cube.radiance.flags.writeable
    assert not np.shares_memory(cube.radiance, src)
    np.testing.assert_array_equal(cube.radiance, src.astype(np.float64))


@pytest.mark.parametrize("shape", [(0, 4, 8), (4, 0, 8), (4, 4, 0)])
def test_scene_cube_rejects_an_empty_image(shape):
    s = micro_scene(rows=2, cols=2, bands=8, q=1)
    with pytest.raises(DimensionError, match="empty axis"):
        SceneCube(np.zeros(shape), s["grid"], AIR)


def test_default_scene_ground_is_one_read_only_spectrum():
    grid = make_default_grid(bands=8)
    truth = make_default_scene(grid, q=2, air_temperature=AIR, rows=5, cols=6)
    g = truth.ground_ambient
    assert g.shape == (5, 6, 8) and not g.flags.writeable
    # every pixel reads the same spectrum, not a copy of it
    assert np.shares_memory(g[0, 0], g[4, 5])
    np.testing.assert_array_equal(g, np.broadcast_to(planck(grid.wavelengths, AIR.kelvin),
                                                     g.shape))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scene_truth_leaves_the_callers_arrays_writable(dtype):
    t = make_default_scene(make_default_grid(bands=8), q=2, rows=3, cols=4)
    maps = [np.array(a, dtype=dtype) for a in (
        t.distance_map, t.temperature_map, t.emissivity_cube,
        t.solid_angle_maps, t.ground_ambient)]
    truth = SceneTruth(*maps)
    for a in maps:
        assert a.flags.writeable
    maps[0][0, 0] = 2.0
    assert truth.distance_map[0, 0] == t.distance_map[0, 0]
    assert not truth.distance_map.flags.writeable


def test_scene_truth_adopts_read_only_float64_arrays():
    t = make_default_scene(make_default_grid(bands=8), q=2, rows=3, cols=4)
    again = SceneTruth(t.distance_map, t.temperature_map, t.emissivity_cube,
                       t.solid_angle_maps, t.ground_ambient)
    assert again.distance_map is t.distance_map
    assert again.ground_ambient is t.ground_ambient


def test_a_read_only_view_of_writable_memory_is_copied():
    s = micro_scene(rows=3, cols=4, bands=8, q=2)
    t = s["truth"]
    g = np.array(t.ground_ambient[0, 0])
    truth = SceneTruth(t.distance_map, t.temperature_map, t.emissivity_cube,
                       t.solid_angle_maps, np.broadcast_to(g, (3, 4, 8)))
    r = np.array(s["cube"].radiance)
    view = r.view()
    view.setflags(write=False)
    cube = SceneCube(view, s["grid"], AIR)
    g[0] = r[0, 0, 0] = -5.0
    assert truth.ground_ambient[0, 0, 0] == t.ground_ambient[0, 0, 0]
    assert cube.radiance[0, 0, 0] == s["cube"].radiance[0, 0, 0]


def test_default_scene_builds_each_map_once():
    # every map is handed to SceneTruth read-only and owning its memory, so
    # the truth adopts it rather than copying it; the band-flat emissivity
    # is one (M, N, 1) map, broadcast over the bands
    grid = make_default_grid(bands=64)
    make_default_scene(grid, q=40, rows=2, cols=2)
    tracemalloc.start()
    try:
        truth = make_default_scene(grid, q=40, rows=64, cols=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    e = truth.emissivity_cube
    assert e.shape == (64, 64, 64) and e.strides[2] == 0 and not e.flags.writeable
    held = (truth.distance_map.nbytes + truth.temperature_map.nbytes
            + e[:, :, 0].nbytes + truth.solid_angle_maps.nbytes)
    assert peak < 1.25 * held


def test_synthesize_cube_holds_one_copy_of_the_cube():
    # the cube built row by row is handed to SceneCube, not copied again
    s = micro_scene(rows=48, cols=48, bands=32, q=2)
    synth = partial(synthesize_cube, s["truth"], s["alpha"], s["dw"], AIR,
                    noise_sigma=1.0, rng_seed=5)
    synth()  # the first noise draw imports modules; keep them out of the peak
    tracemalloc.start()
    try:
        cube = synth()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * cube.radiance.nbytes


@pytest.mark.parametrize("noise_sigma", [0.0, 1.5])
def test_synthesize_cube_is_filled_from_the_row_generator(noise_sigma):
    s = micro_scene(rows=5, cols=3, bands=8, q=2)
    args = (s["truth"], s["alpha"], s["dw"], AIR, noise_sigma, 4)
    row = synthesize_rows(*args)
    rows = [row(i) for i in range(5)]
    assert all(r.shape == (3, 8) for r in rows)
    assert np.array_equal(np.stack(rows), synthesize_cube(*args).radiance)


def test_synthesize_rows_checks_its_arguments_before_the_first_row():
    s = micro_scene(rows=2, cols=2, bands=8, q=2)
    with pytest.raises(DomainError, match="noise_sigma"):
        synthesize_rows(s["truth"], s["alpha"], s["dw"], AIR, noise_sigma=-1.0)
    with pytest.raises(DimensionError, match="sector count"):
        synthesize_rows(s["truth"], s["alpha"], None, AIR)


def test_scene_cube_checks_finiteness_without_a_boolean_cube():
    grid = make_default_grid(bands=64)
    r = np.full((64, 64, 64), 500.0)
    r.setflags(write=False)
    SceneCube(r[:1, :1], grid, AIR)  # warm up
    tracemalloc.start()
    try:
        cube = SceneCube(r, grid, AIR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cube.radiance is r
    assert peak < r.nbytes / 8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scene_cube_rejects_non_finite_radiance(bad):
    grid = make_default_grid(bands=8)
    r = np.full((3, 4, 8), 500.0)
    r[2, 3, 7] = bad
    with pytest.raises(ConstraintError, match="radiance must be finite"):
        SceneCube(r, grid, AIR)


@settings(deadline=None, max_examples=40)
@given(
    d=st.floats(min_value=0.0, max_value=150.0),
    t=st.floats(min_value=250.0, max_value=350.0),
    eps=st.floats(min_value=0.0, max_value=1.0),
)
def test_noiseless_radiance_always_positive(d, t, eps):
    grid = make_default_grid(bands=8)
    params = AtmosphereParams(air_temperature=AIR)
    alpha = synth_attenuation(params, grid)
    dw = synth_downwelling(params, grid, (0.0, 50.0))
    amb = planck(grid.wavelengths, AIR.kelvin)
    truth = flat_scene(grid, d, t, eps, rows=1, cols=1, q=2, omega=0.3,
                       ground=amb)
    cube = synthesize_cube(truth, alpha, dw, AIR)
    assert np.all(cube.radiance > 0.0)


@pytest.mark.parametrize("q", [0, 1, 10])
@pytest.mark.parametrize("p", [1, 2, 7, 512])
def test_mix_sums_sectors_in_order_and_the_simulator_transposes_it(p, q):
    # _mix takes (Q, P) weights and gives a C-ordered (K, P) mix with the
    # bits of an in-order loop over sectors, at any batch size; the
    # simulator's pixel-major batch is the pixel-last model transposed
    rng = np.random.default_rng(100 * p + q)
    k = 64
    wav = np.linspace(8.0, 13.0, k)
    alpha = rng.uniform(0.0, 0.05, k)
    d = rng.uniform(0.0, 200.0, p)
    t = rng.uniform(280.0, 310.0, p)
    eps = rng.uniform(0.0, 1.0, (k, p))
    om = rng.uniform(0.0, np.pi / max(q, 1), (q, p))
    ld = rng.uniform(100.0, 900.0, (q, k))
    b_air = planck(wav, AIR.kelvin)
    for ground in (rng.uniform(300.0, 600.0, (k, 1)), rng.uniform(300.0, 600.0, (k, p))):
        sky, total = np.zeros((k, p)), np.zeros(p)
        for i in range(q):
            sky += ld[i][:, None] * om[i]
            total += om[i]
        mix = _mix(om, ld, ground)
        assert mix.shape == (k, p) and mix.flags.c_contiguous
        assert mix.tobytes() == ((sky + (np.pi - total) * ground) / np.pi).tobytes()
        want = _radiance(_tau(d, alpha[:, None]),
                         _contrast(planck(wav[:, None], t), eps, mix, b_air[:, None]),
                         b_air[:, None])
        got = radiance_model_batch(wav, alpha, d, t, np.ascontiguousarray(eps.T),
                                   np.ascontiguousarray(om.T), ld,
                                   ground[:, 0] if ground.shape[1] == 1
                                   else np.ascontiguousarray(ground.T), b_air)
        assert got.shape == (p, k) and got.tobytes() == want.T.tobytes()
