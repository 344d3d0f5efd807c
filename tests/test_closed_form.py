"""Band-ratio range estimators: exact constructions, flags, slope fit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import attenuation_from, five_band_grid, flat_scene, ramp_distances
from lwirange.atmosphere import DownwellingSet
from lwirange.closed_form import (
    DENOMINATOR_TOL,
    FLAG_CLIPPED,
    FLAG_NONPOSITIVE_RATIO,
    FLAG_VALID,
    FLAG_ZERO_DENOMINATOR,
    BandSelection,
    OzoneSlope,
    RangeMap,
    _median,
    bispectral_air,
    bispectral_hot,
    estimate_air_temperature,
    fit_ozone_slope,
    quadspectral,
)
from lwirange.errors import (
    AllInvalidError,
    DegenerateFitError,
    DomainError,
    GridError,
)
from lwirange.forward_model import SceneCube, SceneTruth, synthesize_cube
from lwirange.radiometry import SpectralGrid, Temperature, planck

GRID5 = five_band_grid()
BANDS5 = BandSelection.from_grid(GRID5)
D_RAMP = (2.0, 10.0, 37.5, 80.0)
# the air-subtracting estimators difference two ~1e3 microflick signals, so
# their usable depth stops where the band contrast sinks into float rounding
D_RAMP_SHALLOW = (2.0, 10.0, 25.0, 40.0)

# temperature at which the Planck curve is flat across each band pair,
# located with 50-digit root finding on the same CODATA constants
T_FLAT_12 = 343.33922994175224562
T_FLAT_34 = 304.0720800261081687


def hot_object_cube(alpha_values=(0.3, 1.7, 0.0, 0.0, 6.0)):
    """Pure object emission: the air term is frozen out, sky and ground dark."""
    alpha = attenuation_from(GRID5, alpha_values)
    truth = flat_scene(GRID5, 0.0, T_FLAT_12, 0.75, rows=1, cols=4)
    truth = ramp_distances(truth, D_RAMP)
    cube = synthesize_cube(truth, alpha, None, Temperature(1e-3))
    return cube, alpha


def warm_air_cube():
    t_air = 300.0
    eps_star = ((planck(8.46, t_air) - planck(8.42, t_air))
                / (planck(8.46, 285.0) - planck(8.42, 285.0)))
    alpha = attenuation_from(GRID5, (0.3, 1.7, 0.0, 0.0, 6.0))
    truth = flat_scene(GRID5, 0.0, 285.0, eps_star, rows=1, cols=4)
    truth = ramp_distances(truth, D_RAMP_SHALLOW)
    cube = synthesize_cube(truth, alpha, None, Temperature(t_air))
    return cube, alpha, Temperature(t_air), eps_star


def reflective_sky_cube(slope=0.94, q=3):
    """Sky-facing scene whose downwelling family obeys the slope relation."""
    t_air = 310.0
    eps_star = ((planck(8.46, t_air) - planck(8.42, t_air))
                / (planck(8.46, T_FLAT_34) - planck(8.42, T_FLAT_34)))
    alpha = attenuation_from(GRID5, (0.12, 0.0, 0.0, 0.0, 6.0))
    rng = np.random.default_rng(5)
    ld = rng.uniform(400.0, 700.0, (q, 5))
    ld[:, 2] = rng.uniform(100.0, 250.0, q)
    ld[:, 3] = ld[:, 2] + rng.uniform(-90.0, 90.0, q)
    ld[:, 1] = ld[:, 0] + slope * (ld[:, 3] - ld[:, 2])
    dw = DownwellingSet(np.linspace(0.0, 75.0, q), ld, GRID5)
    truth = flat_scene(GRID5, 0.0, T_FLAT_34, eps_star, rows=1, cols=4,
                       q=q, omega=0.25)
    truth = ramp_distances(truth, D_RAMP)
    cube = synthesize_cube(truth, alpha, dw, Temperature(t_air))
    return cube, alpha, dw, Temperature(t_air), eps_star


def test_band_selection_snaps_to_grid():
    assert (BANDS5.index1, BANDS5.index2) == (0, 1)
    assert (BANDS5.index3, BANDS5.index4, BANDS5.index_sat) == (2, 3, 4)
    assert BANDS5.lambda1 == 8.42 and BANDS5.lambda_sat == 13.0


def test_band_selection_rejects_merged_water_pair():
    coarse = SpectralGrid(np.array([8.0, 10.0, 12.0, 13.0, 13.2, 13.4, 13.6, 14.0]))
    with pytest.raises(GridError):
        BandSelection.from_grid(coarse)


def test_bispectral_hot_exact_on_flat_planck_pair():
    cube, alpha = hot_object_cube()
    rm = bispectral_hot(cube, BANDS5, alpha)
    assert np.all(rm.validity == FLAG_VALID)
    np.testing.assert_allclose(rm.distances[0], D_RAMP, rtol=1e-9)


def test_bispectral_air_exact_with_matched_emissivity():
    cube, alpha, t_air, eps_star = warm_air_cube()
    assert 0.0 < eps_star <= 1.0
    rm = bispectral_air(cube, BANDS5, alpha, t_air)
    assert np.all(rm.validity == FLAG_VALID)
    np.testing.assert_allclose(rm.distances[0], D_RAMP_SHALLOW, rtol=1e-8)


def test_bispectral_hot_biased_when_air_glows():
    """Every pixel must be either flagged or far from the truth."""
    cube, alpha, t_air, _ = warm_air_cube()
    rm = bispectral_hot(cube, BANDS5, alpha)
    truth = np.asarray(D_RAMP_SHALLOW)
    wrong = (rm.validity[0] != FLAG_VALID) | (np.abs(rm.distances[0] - truth) > 1.0)
    assert np.all(wrong)


def test_quadspectral_exact_with_sky_reflection():
    cube, alpha, dw, t_air, eps_star = reflective_sky_cube()
    assert 0.0 < eps_star <= 1.0
    slope = fit_ozone_slope(dw, BANDS5)
    rm = quadspectral(cube, BANDS5, alpha, t_air, slope)
    assert np.all(rm.validity == FLAG_VALID)
    np.testing.assert_allclose(rm.distances[0], D_RAMP, rtol=1e-9)


def test_bispectral_air_ghosts_on_reflective_scene():
    """Neglecting the reflected sky term must push the range estimate off."""
    cube, alpha, dw, t_air, _ = reflective_sky_cube()
    truth = np.asarray(D_RAMP)
    bi = bispectral_air(cube, BANDS5, alpha, t_air)
    quad = quadspectral(cube, BANDS5, alpha, t_air, fit_ozone_slope(dw, BANDS5))
    bi_err = np.abs(bi.distances[0] - truth).max()
    quad_err = np.abs(quad.distances[0] - truth).max()
    assert bi_err > 0.01
    assert bi_err > 10.0 * quad_err


def test_quadspectral_accepts_plain_float_slope():
    cube, alpha, dw, t_air, _ = reflective_sky_cube()
    s = fit_ozone_slope(dw, BANDS5)
    a = quadspectral(cube, BANDS5, alpha, t_air, s)
    b = quadspectral(cube, BANDS5, alpha, t_air, s.s)
    np.testing.assert_array_equal(a.distances, b.distances)
    np.testing.assert_array_equal(a.validity, b.validity)


def test_quadspectral_reduces_to_bispectral_air_on_copied_ozone_band():
    cube, alpha, dw, t_air, _ = reflective_sky_cube()
    rad = cube.radiance.copy()
    rad[:, :, BANDS5.index4] = rad[:, :, BANDS5.index3]
    copied = SceneCube(rad, cube.grid, cube.air_temperature, cube.noise_sigma)
    quad = quadspectral(copied, BANDS5, alpha, t_air, 0.94)
    bi = bispectral_air(copied, BANDS5, alpha, t_air)
    np.testing.assert_array_equal(quad.distances, bi.distances)
    np.testing.assert_array_equal(quad.validity, bi.validity)


def crafted_cube(l1, l2, t_air=300.0):
    rad = np.zeros((1, 1, 5))
    rad[0, 0, 0] = l1
    rad[0, 0, 1] = l2
    rad[0, 0, 4] = planck(13.0, t_air)
    return SceneCube(rad, GRID5, Temperature(t_air))


def test_flag_zero_denominator():
    t_air = 300.0
    b1 = planck(8.42, t_air)
    cube = crafted_cube(b1 + 0.5 * DENOMINATOR_TOL, 900.0, t_air)
    alpha = attenuation_from(GRID5, (0.3, 1.7, 0.0, 0.0, 6.0))
    rm = bispectral_air(cube, BANDS5, alpha, Temperature(t_air))
    assert rm.validity[0, 0] == FLAG_ZERO_DENOMINATOR
    assert np.isnan(rm.distances[0, 0])


def test_flag_nonpositive_ratio():
    t_air = 300.0
    b1 = planck(8.42, t_air)
    b2 = planck(8.46, t_air)
    cube = crafted_cube(b1 + 50.0, b2 - 10.0, t_air)
    alpha = attenuation_from(GRID5, (0.3, 1.7, 0.0, 0.0, 6.0))
    rm = bispectral_air(cube, BANDS5, alpha, Temperature(t_air))
    assert rm.validity[0, 0] == FLAG_NONPOSITIVE_RATIO
    assert np.isnan(rm.distances[0, 0])


def test_flag_clipped_keeps_negative_estimate():
    # gamma < 1 with these attenuations implies a negative distance
    cube = crafted_cube(800.0, 700.0, 1e-3)
    alpha = attenuation_from(GRID5, (1.7, 0.3, 0.0, 0.0, 6.0))
    rm = bispectral_hot(cube, BANDS5, alpha)
    assert rm.validity[0, 0] == FLAG_CLIPPED
    assert rm.distances[0, 0] < 0.0
    assert not rm.valid_mask[0, 0]


def test_equal_attenuation_rejected():
    cube, alpha = hot_object_cube()
    flat = attenuation_from(GRID5, (0.5, 0.5, 0.0, 0.0, 6.0))
    with pytest.raises(DomainError):
        bispectral_hot(cube, BANDS5, flat)


def test_grid_mismatch_rejected():
    cube, _ = hot_object_cube()
    other = attenuation_from(SpectralGrid(np.array([8.0, 8.5, 9.0, 9.5, 13.0])),
                             (0.3, 1.7, 0.0, 0.0, 6.0))
    with pytest.raises(GridError):
        bispectral_hot(cube, BANDS5, other)


def saturated_cube(t_air=302.0):
    # alpha_sat = 6 dB/m at d = 30 m leaves 10^-18 of the object signal
    alpha = attenuation_from(GRID5, (0.3, 1.7, 0.0, 0.0, 6.0))
    truth = flat_scene(GRID5, 30.0, 325.0, 0.8, rows=2, cols=2)
    return synthesize_cube(truth, alpha, None, Temperature(t_air))


def test_estimate_air_temperature_reads_saturated_band():
    est = estimate_air_temperature(saturated_cube(), lambda_sat=13.0)
    assert est.kelvin == pytest.approx(302.0, rel=1e-9)


def test_estimate_air_temperature_all_dark_raises():
    rad = np.zeros((2, 2, 5))
    rad[:, :, 0] = 500.0
    cube = SceneCube(rad, GRID5, Temperature(300.0))
    with pytest.raises(AllInvalidError):
        estimate_air_temperature(cube, lambda_sat=13.0)


def test_fit_ozone_slope_recovers_construction():
    rng = np.random.default_rng(11)
    ld = rng.uniform(400.0, 600.0, (6, 5))
    ld[:, 2] = rng.uniform(100.0, 250.0, 6)
    ld[:, 3] = ld[:, 2] + rng.uniform(-90.0, 90.0, 6)
    ld[:, 1] = ld[:, 0] + 0.94 * (ld[:, 3] - ld[:, 2])
    dw = DownwellingSet(np.linspace(0.0, 85.0, 6), ld, GRID5)
    fit = fit_ozone_slope(dw, BANDS5)
    assert fit.s == pytest.approx(0.94, abs=1e-12)
    assert fit.residual < 1e-10


def test_fit_ozone_slope_zero_when_water_bands_match():
    rng = np.random.default_rng(12)
    ld = rng.uniform(50.0, 600.0, (4, 5))
    ld[:, 1] = ld[:, 0]
    dw = DownwellingSet(np.linspace(0.0, 60.0, 4), ld, GRID5)
    assert fit_ozone_slope(dw, BANDS5).s == 0.0


def test_fit_ozone_slope_degenerate_cases():
    ld = np.full((1, 5), 100.0)
    dw = DownwellingSet(np.array([0.0]), ld, GRID5)
    with pytest.raises(DegenerateFitError):
        fit_ozone_slope(dw, BANDS5)
    ld2 = np.full((3, 5), 100.0)
    ld2[:, 0] = (1.0, 2.0, 3.0)
    dw2 = DownwellingSet(np.array([0.0, 30.0, 60.0]), ld2, GRID5)
    with pytest.raises(DegenerateFitError):
        fit_ozone_slope(dw2, BANDS5)


def test_ozone_slope_rejects_nonfinite():
    with pytest.raises(DomainError):
        OzoneSlope(float("nan"), 0.0)


def test_range_map_validation():
    with pytest.raises(GridError):
        RangeMap(np.zeros((2, 2)), np.zeros((3, 2), dtype=np.uint8))
    with pytest.raises(GridError):
        RangeMap(np.zeros(4), np.zeros(4, dtype=np.uint8))


@settings(deadline=None, max_examples=60)
@given(scale=st.floats(min_value=1e-3, max_value=1e3))
def test_bispectral_hot_is_scale_invariant(scale):
    cube, alpha = hot_object_cube()
    scaled = SceneCube(cube.radiance * scale, cube.grid, cube.air_temperature)
    a = bispectral_hot(cube, BANDS5, alpha)
    b = bispectral_hot(scaled, BANDS5, alpha)
    np.testing.assert_allclose(b.distances, a.distances, rtol=1e-9)
    np.testing.assert_array_equal(b.validity, a.validity)


@settings(deadline=None, max_examples=40)
@given(
    d=st.floats(min_value=0.5, max_value=60.0),
    a1=st.floats(min_value=0.05, max_value=1.0),
    gap=st.floats(min_value=0.2, max_value=2.0),
)
def test_bispectral_hot_exact_for_random_geometry(d, a1, gap):
    # d * a1 stays below 60, keeping the denominator above the contrast guard
    alpha = attenuation_from(GRID5, (a1, a1 + gap, 0.0, 0.0, 6.0))
    truth = flat_scene(GRID5, d, T_FLAT_12, 0.6, rows=1, cols=1)
    cube = synthesize_cube(truth, alpha, None, Temperature(1e-3))
    rm = bispectral_hot(cube, BANDS5, alpha)
    assert rm.validity[0, 0] == FLAG_VALID
    assert rm.distances[0, 0] == pytest.approx(d, rel=1e-8)


_RNG = np.random.default_rng(17)


@pytest.mark.parametrize("values", [
    [3.0],
    [np.nan],
    [5.0, 1.0],
    [2.0, 9.0, 4.0],
    [-0.0, 0.0],
    [np.inf, -np.inf],
    [1.0, np.nan, 3.0],
    [np.nan, 2.0, 0.5, 7.0],
    [4.0, -np.nan],
    [[1.0, 8.0], [2.5, 2.5]],
    *(_RNG.normal(size=n) * 10.0 ** _RNG.integers(-3, 4) for n in range(1, 12)),
    _RNG.integers(0, 4, size=(8, 8)).astype(np.float64),
])
def test_median_has_the_bits_of_np_median(values):
    a = np.array(values)
    with np.errstate(invalid="ignore"):  # inf + -inf
        want = np.float64(np.median(a)).tobytes()
        assert np.float64(_median(a)).tobytes() == want
