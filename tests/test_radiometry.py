"""Planck kernel, brightness temperature, grids, units."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwirange.errors import DomainError, GridError, UnitMismatchError
from lwirange.radiometry import (
    _C,
    _H,
    _KB,
    DB_PER_M,
    MICROFLICK,
    SpectralGrid,
    Spectrum,
    Temperature,
    as_kelvin,
    brightness_temperature,
    planck,
    planck_dT,
)

# spectral radiance in microflick, computed with 50-digit arithmetic from
# the same defining constants the package uses
PLANCK_TABLE = [
    (10.0, 300.0, 992.40333300706946661),
    (8.42, 300.0, 948.73182357901421029),
    (12.0, 250.0, 398.82464192992439341),
    (8.0, 400.0, 4099.0439140867560196),
]

DPLANCK_10_300 = 15.997156725132193944


@pytest.mark.parametrize("lam,tk,expected", PLANCK_TABLE)
def test_planck_reference_values(lam, tk, expected):
    got = planck(lam, tk)
    assert got == pytest.approx(expected, rel=1e-12)


def test_planck_dT_reference_value():
    assert planck_dT(10.0, 300.0) == pytest.approx(DPLANCK_10_300, rel=1e-10)


def test_planck_vectorizes_over_wavelength():
    lams = np.array([8.0, 10.0, 12.0])
    vals = planck(lams, 300.0)
    assert vals.shape == (3,)
    for lam, v in zip(lams, vals):
        assert v == planck(float(lam), 300.0)


def test_planck_rejects_nonpositive_inputs():
    with pytest.raises(DomainError):
        planck(0.0, 300.0)
    with pytest.raises(DomainError):
        planck(10.0, -5.0)
    with pytest.raises(DomainError):
        planck_dT(-1.0, 300.0)


def test_planck_tiny_temperature_underflows_to_zero():
    # exp argument overflows; the radiance must come back 0, not raise
    assert planck(10.0, 1e-3) == 0.0


def test_brightness_temperature_scalar_matches_root():
    t = brightness_temperature(10.0, 992.40333300706946661)
    assert isinstance(t, Temperature)
    assert t.kelvin == pytest.approx(300.0, rel=1e-12)


def test_brightness_temperature_array():
    lams = np.array([9.0, 10.0, 11.0])
    tk = np.array([280.0, 300.0, 320.0])
    rad = planck(lams, tk)
    back = brightness_temperature(lams, rad)
    assert isinstance(back, np.ndarray)
    np.testing.assert_allclose(back, tk, rtol=1e-10)


def test_brightness_temperature_rejects_nonpositive_radiance():
    with pytest.raises(DomainError):
        brightness_temperature(10.0, 0.0)
    with pytest.raises(DomainError):
        brightness_temperature(10.0, -3.0)


@settings(deadline=None, max_examples=200)
@given(
    lam=st.floats(min_value=8.0, max_value=13.2),
    tk=st.floats(min_value=150.0, max_value=500.0),
)
def test_planck_brightness_roundtrip(lam, tk):
    rad = planck(lam, tk)
    assert rad > 0.0
    assert brightness_temperature(lam, rad).kelvin == pytest.approx(tk, rel=1e-9)


@settings(deadline=None, max_examples=100)
@given(
    lam=st.floats(min_value=8.0, max_value=13.2),
    t1=st.floats(min_value=150.0, max_value=499.0),
    bump=st.floats(min_value=0.01, max_value=50.0),
)
def test_planck_strictly_increasing_in_temperature(lam, t1, bump):
    assert planck(lam, t1 + bump) > planck(lam, t1)


def test_planck_dT_positive_and_matches_difference_quotient():
    for lam in (8.0, 10.5, 13.2):
        for tk in (220.0, 300.0, 380.0):
            h = 1e-3
            fd = (planck(lam, tk + h) - planck(lam, tk - h)) / (2 * h)
            an = planck_dT(lam, tk)
            assert an > 0.0
            assert an == pytest.approx(fd, rel=1e-7)


def test_temperature_validation():
    assert Temperature(295.0).kelvin == 295.0
    with pytest.raises(DomainError):
        Temperature(0.0)
    with pytest.raises(DomainError):
        Temperature(float("nan"))


def test_as_kelvin_accepts_both_forms():
    assert as_kelvin(Temperature(300.0)) == 300.0
    assert as_kelvin(287.5) == 287.5


def test_spectral_grid_requires_increasing_wavelengths():
    with pytest.raises(GridError):
        SpectralGrid(np.array([10.0, 9.0]))
    with pytest.raises(GridError):
        SpectralGrid(np.array([10.0, 10.0]))
    with pytest.raises(GridError, match="finite and positive"):
        SpectralGrid(np.array([9.0, np.nan]))
    with pytest.raises(GridError, match="non-empty"):
        SpectralGrid(np.array([]))


def test_spectral_grid_nearest_index():
    g = SpectralGrid(np.array([8.0, 9.0, 10.0, 11.0]))
    assert g.nearest_index(9.1) == 1
    assert g.nearest_index(10.6) == 3
    assert g.nearest_index(8.0) == 0


def test_spectral_grid_equality_is_by_value():
    a = SpectralGrid(np.array([8.0, 9.0]))
    b = SpectralGrid(np.array([8.0, 9.0]))
    c = SpectralGrid(np.array([8.0, 9.5]))
    assert a == b
    assert a != c


def test_spectrum_unit_tag_and_length_check():
    g = SpectralGrid(np.array([8.0, 9.0]))
    s = Spectrum(g, np.array([1.0, 2.0]), MICROFLICK)
    assert s.unit == MICROFLICK
    with pytest.raises(GridError):
        Spectrum(g, np.array([1.0, 2.0, 3.0]), DB_PER_M)


def test_constants_are_exact_si_definitions():
    assert _H == 6.62607015e-34
    assert _C == 2.99792458e8
    assert _KB == 1.380649e-23
