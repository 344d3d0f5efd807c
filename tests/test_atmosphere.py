"""Synthetic attenuation/downwelling generators and their CSV persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwirange.atmosphere import (
    DEFAULT_ZENITH_ANGLES,
    AtmosphereParams,
    AttenuationSpectrum,
    DownwellingSet,
    load_downwelling,
    load_spectrum,
    make_default_grid,
    save_downwelling,
    save_spectrum,
    synth_attenuation,
    synth_downwelling,
    transmittance,
)
from lwirange.errors import (
    DomainError,
    GridError,
    SpectrumParseError,
    UnitMismatchError,
)
from lwirange.radiometry import (
    DB_PER_M,
    MICROFLICK,
    SpectralGrid,
    Spectrum,
    Temperature,
    planck,
)

GRID = make_default_grid()
PARAMS = AtmosphereParams()


def test_default_grid_shape_and_span():
    w = GRID.wavelengths
    assert len(w) == 64
    assert w[0] == 8.0 and w[-1] == 13.2
    assert np.all(np.diff(w) > 0)


def test_attenuation_nonnegative_and_tagged():
    alpha = synth_attenuation(PARAMS, GRID)
    assert alpha.spectrum.unit == DB_PER_M
    assert np.all(alpha.values >= 0.0)
    assert alpha.grid == GRID


def test_attenuation_water_scales_with_strength():
    weak = synth_attenuation(AtmosphereParams(water_vapor_strength=0.5), GRID)
    strong = synth_attenuation(AtmosphereParams(water_vapor_strength=2.0), GRID)
    assert strong.values.max() > weak.values.max()


def test_ozone_absent_from_ground_attenuation():
    # the ozone layer sits far above the ground path, so its strength must
    # not move ground-level attenuation at all
    base = synth_attenuation(AtmosphereParams(ozone_strength=1.0), GRID)
    doubled = synth_attenuation(AtmosphereParams(ozone_strength=5.0), GRID)
    np.testing.assert_array_equal(base.values, doubled.values)


def test_attenuation_unit_enforced():
    bad = Spectrum(GRID, np.ones(64), MICROFLICK)
    with pytest.raises(UnitMismatchError):
        AttenuationSpectrum(bad)


def test_attenuation_rejects_negative_values():
    with pytest.raises(DomainError):
        AttenuationSpectrum(Spectrum(GRID, np.full(64, -0.1), DB_PER_M))


def test_transmittance_identity_at_zero_distance():
    alpha = synth_attenuation(PARAMS, GRID)
    tau = transmittance(alpha, 0.0)
    np.testing.assert_array_equal(tau.values, np.ones(64))


def test_transmittance_decays_with_distance():
    alpha = synth_attenuation(PARAMS, GRID)
    t10 = transmittance(alpha, 10.0).values
    t50 = transmittance(alpha, 50.0).values
    assert np.all(t10 <= 1.0) and np.all(t10 > 0.0)
    mask = alpha.values > 0
    assert np.all(t50[mask] < t10[mask])


def test_transmittance_matches_explicit_formula():
    alpha = synth_attenuation(PARAMS, GRID)
    d = 37.5
    expected = np.power(10.0, -d / 10.0 * alpha.values)
    np.testing.assert_array_equal(transmittance(alpha, d).values, expected)


def test_downwelling_shape_and_positivity():
    dw = synth_downwelling(PARAMS, GRID, DEFAULT_ZENITH_ANGLES)
    assert len(dw) == len(DEFAULT_ZENITH_ANGLES)
    assert dw.values.shape == (len(dw), 64)
    assert np.all(dw.values >= 0.0)
    assert np.all(np.isfinite(dw.values))


def test_downwelling_brightens_toward_horizon():
    """Longer slant path through the absorbing column means a brighter sky."""
    dw = synth_downwelling(PARAMS, GRID, (0.0, 60.0, 85.0))
    band_mean = dw.values.mean(axis=1)
    assert band_mean[2] > band_mean[1] > band_mean[0]


def test_downwelling_bounded_by_sky_blackbody():
    dw = synth_downwelling(PARAMS, GRID, (0.0, 45.0))
    ceiling = planck(GRID.wavelengths, PARAMS.air_temperature.kelvin)
    assert np.all(dw.values <= ceiling * (1.0 + 1e-12))


def test_downwelling_angle_validation():
    vals = np.ones((2, 64))
    with pytest.raises(DomainError):
        DownwellingSet(np.array([10.0, 5.0]), vals, GRID)
    with pytest.raises(DomainError):
        DownwellingSet(np.array([0.0, 95.0]), vals, GRID)
    with pytest.raises(DomainError):
        DownwellingSet(np.array([np.nan]), vals[:1], GRID)
    with pytest.raises(GridError):
        DownwellingSet(np.array([0.0, 30.0]), np.ones((3, 64)), GRID)
    for bad in (-1.0, np.nan):
        block = vals.copy()
        block[1, 5] = bad
        with pytest.raises(DomainError, match="finite and >= 0"):
            DownwellingSet(np.array([0.0, 30.0]), block, GRID)
    # synth_downwelling checks its angles by DownwellingSet's rule before it
    # indexes them, a scalar angle included
    for angles in ((0.0, 95.0), (0.0, np.nan)):
        with pytest.raises(DomainError, match=r"\[0, 90\) degrees"):
            synth_downwelling(PARAMS, GRID, angles)
    with pytest.raises(DomainError, match="at least one zenith angle"):
        synth_downwelling(PARAMS, GRID, 10.0)


def test_params_validation():
    with pytest.raises(DomainError):
        AtmosphereParams(water_vapor_strength=-1.0)
    with pytest.raises(DomainError):
        AtmosphereParams(air_temperature=Temperature(30.0), sky_temperature_drop=35.0)
    assert AtmosphereParams().sky_temperature == 260.0


def test_spectrum_csv_roundtrip_is_bit_identical(tmp_path):
    alpha = synth_attenuation(PARAMS, GRID)
    p = tmp_path / "a.csv"
    save_spectrum(p, alpha.spectrum)
    back = load_spectrum(p, DB_PER_M)
    np.testing.assert_array_equal(back.values, alpha.values)
    np.testing.assert_array_equal(back.grid.wavelengths, GRID.wavelengths)
    save_spectrum(tmp_path / "b.csv", back)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_spectrum_csv_unit_mismatch(tmp_path):
    p = tmp_path / "a.csv"
    save_spectrum(p, Spectrum(GRID, np.ones(64), MICROFLICK))
    with pytest.raises(UnitMismatchError):
        load_spectrum(p, DB_PER_M)


def test_spectrum_csv_parse_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# unit: dB/m\n8.0,0.1\n9.0,0.2,extra\n")
    with pytest.raises(SpectrumParseError) as exc:
        load_spectrum(p, DB_PER_M)
    assert "3" in str(exc.value)

    p2 = tmp_path / "bad2.csv"
    p2.write_text("# unit: dB/m\n8.0,zap\n")
    with pytest.raises(SpectrumParseError):
        load_spectrum(p2, DB_PER_M)

    p3 = tmp_path / "empty.csv"
    p3.write_text("# unit: dB/m\n")
    with pytest.raises(SpectrumParseError):
        load_spectrum(p3, DB_PER_M)


def test_spectrum_csv_rejects_non_utf8_and_non_finite(tmp_path):
    p = tmp_path / "bin.csv"
    p.write_bytes(b"\xff\xfe")
    with pytest.raises(SpectrumParseError, match="not UTF-8"):
        load_spectrum(p, DB_PER_M)
    for line_no, body in ((2, "# unit: dB/m\n8.0,nan\n"), (1, "8.0,1e400\n9.0,0.1\n")):
        p.write_text(body)
        with pytest.raises(SpectrumParseError, match="non-finite") as exc:
            load_spectrum(p, DB_PER_M)
        assert exc.value.line_no == line_no


def test_downwelling_index_errors_name_the_index_line(tmp_path):
    dw = synth_downwelling(PARAMS, GRID, (0.0, 42.0))
    save_downwelling(tmp_path / "dw", dw)
    index = tmp_path / "dw" / "angles.csv"
    index.write_bytes(b"0.0,angle_00.csv\n\xff,angle_01.csv\n")
    with pytest.raises(SpectrumParseError, match="not UTF-8"):
        load_downwelling(tmp_path / "dw")
    for name in ("missing.csv", "", "angle_\x0000.csv"):
        index.write_text(f"# zenith_deg,filename\n0.0,angle_00.csv\n42.0,{name}\n")
        with pytest.raises(SpectrumParseError) as exc:
            load_downwelling(tmp_path / "dw")
        assert exc.value.path == str(index) and exc.value.line_no == 3
    # names of readable spectrum files that are not bare names in the directory
    (tmp_path / "dw" / "sub").mkdir()
    (tmp_path / "dw" / "sub" / "x.csv").write_bytes(
        (tmp_path / "dw" / "angle_01.csv").read_bytes())
    for name in (tmp_path / "dw" / "angle_01.csv", "../dw/angle_01.csv",
                 "sub/x.csv"):
        index.write_text(f"0.0,angle_00.csv\n42.0,{name}\n")
        with pytest.raises(SpectrumParseError, match="bad file name") as exc:
            load_downwelling(tmp_path / "dw")
        assert exc.value.path == str(index) and exc.value.line_no == 2
    for angle in ("nan", "inf"):
        index.write_text(f"0.0,angle_00.csv\n{angle},angle_01.csv\n")
        with pytest.raises(SpectrumParseError, match="non-finite zenith angle") as exc:
            load_downwelling(tmp_path / "dw")
        assert exc.value.path == str(index) and exc.value.line_no == 2
    for text, message, line_no in (
            ("0.0,angle_00.csv\n42.0,angle_01.csv,x\n", "expected 2 columns, got 3", 2),
            ("0.0,angle_00.csv\nhigh,angle_01.csv\n", "bad zenith angle 'high'", 2),
            ("# zenith_deg,filename\n\n", "no angle rows", 0)):
        index.write_text(text)
        with pytest.raises(SpectrumParseError, match=message) as exc:
            load_downwelling(tmp_path / "dw")
        assert exc.value.path == str(index) and exc.value.line_no == line_no


def test_downwelling_roundtrip(tmp_path):
    dw = synth_downwelling(PARAMS, GRID, (0.0, 42.0, 80.0))
    save_downwelling(tmp_path / "dw", dw)
    back = load_downwelling(tmp_path / "dw")
    np.testing.assert_array_equal(back.values, dw.values)
    np.testing.assert_array_equal(back.zenith_angles_deg, dw.zenith_angles_deg)
    assert back.grid == dw.grid


@settings(deadline=None, max_examples=50)
@given(d=st.floats(min_value=0.0, max_value=500.0))
def test_transmittance_always_in_unit_interval(d):
    alpha = synth_attenuation(PARAMS, GRID)
    tau = transmittance(alpha, d).values
    assert np.all(tau >= 0.0) and np.all(tau <= 1.0)


@settings(deadline=None, max_examples=30)
@given(
    drop=st.floats(min_value=5.0, max_value=80.0),
    strength=st.floats(min_value=0.1, max_value=3.0),
)
def test_downwelling_never_exceeds_air_blackbody(drop, strength):
    params = AtmosphereParams(sky_temperature_drop=drop,
                              water_vapor_strength=strength)
    dw = synth_downwelling(params, GRID, (0.0, 50.0))
    ceiling = planck(GRID.wavelengths, params.air_temperature.kelvin)
    assert np.all(dw.values <= ceiling * (1.0 + 1e-12))
