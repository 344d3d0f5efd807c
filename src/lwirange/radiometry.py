"""Blackbody physics in instrument units.

Spectral radiance is expressed in microflicks (uW sr^-1 cm^-2 um^-1)
throughout the package; wavelengths are in micrometers. The conversion
from the SI Planck form (W sr^-1 m^-2 um^-1) is a single factor of 100
applied once, here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError, UnitMismatchError

__all__ = [
    "Temperature",
    "SpectralGrid",
    "Spectrum",
    "MICROFLICK",
    "DB_PER_M",
    "DIMENSIONLESS",
    "planck",
    "brightness_temperature",
    "planck_dT",
]


# CODATA 2018 exact values
_H = 6.62607015e-34   # J s
_C = 2.99792458e8     # m / s
_KB = 1.380649e-23    # J / K

# SI spectral radiance per um -> microflick
_SI_TO_MICROFLICK = 100.0
# 2 h c^2 / lambda^5 with lambda in m gives W sr^-1 m^-2 per m of wavelength;
# the 1e-6 per-um step and the microflick factor collapse to 1e-4.
_RADIANCE_SCALE = 1e-6 * _SI_TO_MICROFLICK


@dataclass(frozen=True)
class Temperature:
    """Absolute temperature in kelvin."""

    kelvin: float

    def __post_init__(self):
        k = float(self.kelvin)
        if not np.isfinite(k) or k <= 0.0:
            raise DomainError(f"temperature must be finite and > 0 K, got {self.kelvin!r}")
        object.__setattr__(self, "kelvin", k)


def as_kelvin(t):
    """Accept Temperature, float, or ndarray; return kelvins as float/ndarray."""
    if isinstance(t, Temperature):
        return t.kelvin
    return t


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Ordered wavelength samples in micrometers, shared by spectra and cubes."""

    wavelengths: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.wavelengths, dtype=np.float64).copy()
        if w.ndim != 1 or w.size < 1:
            raise GridError("wavelength grid must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise GridError("wavelengths must be finite and positive")
        if w.size > 1 and not np.all(np.diff(w) > 0.0):
            raise GridError("wavelengths must be strictly increasing")
        w.setflags(write=False)
        object.__setattr__(self, "wavelengths", w)

    def __len__(self):
        return self.wavelengths.size

    def __eq__(self, other):
        if not isinstance(other, SpectralGrid):
            return NotImplemented
        return np.array_equal(self.wavelengths, other.wavelengths)

    __hash__ = None

    def nearest_index(self, lam_um: float) -> int:
        return int(np.argmin(np.abs(self.wavelengths - lam_um)))


MICROFLICK = "microflick"
DB_PER_M = "dB/m"
DIMENSIONLESS = "dimensionless"
_UNITS = (MICROFLICK, DB_PER_M, DIMENSIONLESS)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Per-band values on a SpectralGrid with an immutable unit tag."""

    grid: SpectralGrid
    values: np.ndarray
    unit: str

    def __post_init__(self):
        if self.unit not in _UNITS:
            raise UnitMismatchError(f"unknown unit {self.unit!r}, expected one of {_UNITS}")
        v = np.asarray(self.values, dtype=np.float64).copy()
        if v.shape != (len(self.grid),):
            raise GridError(
                f"value count {v.shape} does not match grid length {len(self.grid)}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _check_positive(lam_um, t_kelvin):
    lam = np.asarray(lam_um, dtype=np.float64)
    t = np.asarray(t_kelvin, dtype=np.float64)
    if np.any(lam <= 0.0) or not np.all(np.isfinite(lam)):
        raise DomainError("wavelength must be finite and > 0 um")
    if np.any(t <= 0.0) or not np.all(np.isfinite(t)):
        raise DomainError("temperature must be finite and > 0 K")
    return lam, t


def _planck_core(lam, tk):
    # unvalidated kernel shared by the simulator and the solver hot loops
    lam_m = lam * 1e-6
    x = _H * _C / (lam_m * _KB * tk)
    with np.errstate(over="ignore"):
        return (
            2.0 * _H * _C**2 / lam_m**5 / np.expm1(x)
        ) * _RADIANCE_SCALE


def _planck_dT_core(lam, tk):
    lam_m = lam * 1e-6
    x = _H * _C / (lam_m * _KB * tk)
    scale = 2.0 * _H * _C**2 / lam_m**5 * _RADIANCE_SCALE
    v = np.exp(-x)
    return scale * v / np.expm1(-x) ** 2 * (x / tk)


def planck(lam_um, t):
    """Blackbody spectral radiance B(lambda; T) in microflicks.

    lam_um : wavelength in um, scalar or array
    t      : Temperature, kelvin scalar, or array (broadcast against lam_um)
    """
    lam, tk = _check_positive(lam_um, as_kelvin(t))
    out = _planck_core(lam, tk)
    if np.isscalar(lam_um) and np.isscalar(as_kelvin(t)):
        return float(out)
    return out


def brightness_temperature(lam_um, radiance_microflick):
    """Invert Planck's law at one wavelength.

    Returns a Temperature for scalar input, an array of kelvins otherwise.
    """
    lam = np.asarray(lam_um, dtype=np.float64)
    rad = np.asarray(radiance_microflick, dtype=np.float64)
    if np.any(lam <= 0.0):
        raise DomainError("wavelength must be > 0 um")
    if np.any(rad <= 0.0) or not np.all(np.isfinite(rad)):
        raise DomainError("radiance must be finite and > 0 for inversion")
    lam_m = lam * 1e-6
    rad_si = rad / _RADIANCE_SCALE
    x = np.log1p(2.0 * _H * _C**2 / (lam_m**5 * rad_si))
    kelvin = _H * _C / (lam_m * _KB * x)
    if np.isscalar(lam_um) and np.isscalar(radiance_microflick):
        return Temperature(float(kelvin))
    return kelvin


def planck_dT(lam_um, t):
    """Temperature derivative dB/dT in microflick per kelvin.

    Evaluated as B_scale * e^-x / expm1(-x)^2 * x / T, which stays finite
    for arbitrarily large x (cold/short-wave limit underflows to 0).
    """
    lam, tk = _check_positive(lam_um, as_kelvin(t))
    out = _planck_dT_core(lam, tk)
    if np.isscalar(lam_um) and np.isscalar(as_kelvin(t)):
        return float(out)
    return out
