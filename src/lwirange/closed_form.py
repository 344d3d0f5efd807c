"""Closed-form per-pixel range estimators.

All three share the log-ratio skeleton

    d_hat = (-10 / (alpha2 - alpha1)) * log10(gamma)

and differ in how gamma is assembled from the two water-vapor bands:
raw radiance ratio, air-emission-corrected ratio, or the ozone-corrected
ratio that additionally subtracts an estimate of the reflected
downwelling difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atmosphere import _DEFAULT_BAND_TARGETS, AttenuationSpectrum, DownwellingSet
from .errors import AllInvalidError, DegenerateFitError, DomainError, GridError
from .forward_model import SceneCube
from .radiometry import SpectralGrid, Temperature, brightness_temperature, planck

__all__ = [
    "FLAG_VALID",
    "FLAG_NONPOSITIVE_RATIO",
    "FLAG_ZERO_DENOMINATOR",
    "FLAG_CLIPPED",
    "DENOMINATOR_TOL",
    "BandSelection",
    "RangeMap",
    "OzoneSlope",
    "estimate_air_temperature",
    "bispectral_hot",
    "bispectral_air",
    "fit_ozone_slope",
    "quadspectral",
]

FLAG_VALID = 0
FLAG_NONPOSITIVE_RATIO = 1
FLAG_ZERO_DENOMINATOR = 2
FLAG_CLIPPED = 3

# |denominator| below this (microflick) marks a pixel as contrast-starved
DENOMINATOR_TOL = 1e-6


@dataclass(frozen=True)
class BandSelection:
    """Water-vapor pair, ozone pair, and saturated band, tied to grid indices."""

    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    lambda_sat: float
    index1: int
    index2: int
    index3: int
    index4: int
    index_sat: int

    @classmethod
    def from_grid(
        cls,
        grid: SpectralGrid,
        lambda1: float = _DEFAULT_BAND_TARGETS[0],
        lambda2: float = _DEFAULT_BAND_TARGETS[1],
        lambda3: float = _DEFAULT_BAND_TARGETS[2],
        lambda4: float = _DEFAULT_BAND_TARGETS[3],
        lambda_sat: float = _DEFAULT_BAND_TARGETS[4],
    ) -> "BandSelection":
        idx = [grid.nearest_index(l) for l in (lambda1, lambda2, lambda3, lambda4, lambda_sat)]
        if idx[0] == idx[1]:
            raise GridError("water-vapor bands resolve to the same grid sample")
        w = grid.wavelengths
        return cls(
            float(w[idx[0]]), float(w[idx[1]]), float(w[idx[2]]), float(w[idx[3]]),
            float(w[idx[4]]), idx[0], idx[1], idx[2], idx[3], idx[4],
        )


@dataclass(frozen=True, eq=False)
class RangeMap:
    """Per-pixel distances with validity flags; flagged entries may be NaN."""

    distances: np.ndarray
    validity: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=np.float64)
        v = np.asarray(self.validity, dtype=np.uint8)
        if d.shape != v.shape or d.ndim != 2:
            raise GridError("distances and validity must be matching 2-D maps")
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "validity", v)

    @property
    def valid_mask(self) -> np.ndarray:
        return self.validity == FLAG_VALID


@dataclass(frozen=True)
class OzoneSlope:
    """Through-origin slope of the water difference on the ozone difference."""

    s: float
    residual: float

    def __post_init__(self):
        if not (np.isfinite(self.s) and np.isfinite(self.residual)):
            raise DomainError("slope fit must be finite")


def _band_values(cube: SceneCube, index: int) -> np.ndarray:
    return cube.radiance[:, :, index]


def _check_alpha(cube: SceneCube, alpha: AttenuationSpectrum, bands: BandSelection):
    if alpha.grid != cube.grid:
        raise GridError("attenuation grid does not match the cube grid")
    a1 = alpha.values[bands.index1]
    a2 = alpha.values[bands.index2]
    if a1 == a2:
        raise DomainError("water-vapor bands have equal attenuation; ratio carries no range")
    return a1, a2


def _log_ratio_map(num: np.ndarray, den: np.ndarray, coef: float) -> RangeMap:
    flags = np.zeros(num.shape, dtype=np.uint8)
    dist = np.full(num.shape, np.nan)

    zden = np.abs(den) < DENOMINATOR_TOL
    flags[zden] = FLAG_ZERO_DENOMINATOR
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = num / den
    nonpos = ~zden & ~(gamma > 0.0)
    flags[nonpos] = FLAG_NONPOSITIVE_RATIO
    ok = ~zden & ~nonpos
    dist[ok] = coef * np.log10(gamma[ok])
    # any overflow corner still ends up flagged, never silently numeric
    bad = ok & ~np.isfinite(dist)
    flags[bad] = FLAG_NONPOSITIVE_RATIO
    ok &= ~bad
    # negative estimates keep their value for diagnostics but are flagged
    clipped = ok & (dist < 0.0)
    flags[clipped] = FLAG_CLIPPED
    return RangeMap(dist, flags)


def _median(a) -> float:
    """np.median of the values of a non-empty array, bit for bit: the middle
    value, or the mean of the two middle values for an even count, and the
    NaN a holds where it holds one.  np.median's NaN check imports numpy.ma
    on first use, about 20 ms of a CLI launch; this partition does not."""
    a = np.asarray(a, dtype=np.float64).ravel()
    h = a.size // 2
    odd = a.size % 2
    # partition sorts NaN last, so the last value shows whether there is one
    part = np.partition(a, [h, -1] if odd else [h - 1, h, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(part[h] if odd else (part[h - 1] + part[h]) / 2)


def estimate_air_temperature(cube: SceneCube,
                             lambda_sat: float = _DEFAULT_BAND_TARGETS[4]) -> Temperature:
    """Median brightness temperature at the saturated band."""
    idx = cube.grid.nearest_index(float(lambda_sat))
    lam = float(cube.grid.wavelengths[idx])
    radiance = _band_values(cube, idx)
    valid = radiance > 0.0
    if not valid.any():
        raise AllInvalidError("no pixel has positive radiance at the saturated band")
    kelvins = brightness_temperature(np.full(valid.sum(), lam), radiance[valid])
    return Temperature(_median(kelvins))


def bispectral_hot(
    cube: SceneCube, bands: BandSelection, alpha: AttenuationSpectrum
) -> RangeMap:
    """Raw two-band ratio; assumes the object outshines air and sky."""
    a1, a2 = _check_alpha(cube, alpha, bands)
    num = _band_values(cube, bands.index2)
    den = _band_values(cube, bands.index1)
    return _log_ratio_map(num, den, -10.0 / (a2 - a1))


def bispectral_air(
    cube: SceneCube,
    bands: BandSelection,
    alpha: AttenuationSpectrum,
    air_temperature: Temperature,
) -> RangeMap:
    """Two-band ratio after subtracting path air emission: the quadspectral
    estimate at slope 0, whose zero bias leaves every bit as it is."""
    return quadspectral(cube, bands, alpha, air_temperature, 0.0)


def fit_ozone_slope(dw: DownwellingSet, bands: BandSelection) -> OzoneSlope:
    """Least-squares slope, through the origin, of the water-band difference
    on the ozone-band difference across the downwelling family."""
    if len(dw) < 2:
        raise DegenerateFitError("need at least two zenith angles to fit a slope")
    dwater = dw.values[:, bands.index2] - dw.values[:, bands.index1]
    dozone = dw.values[:, bands.index4] - dw.values[:, bands.index3]
    denom = float(np.dot(dozone, dozone))
    if denom == 0.0:
        raise DegenerateFitError("ozone-band differences are all zero")
    s = float(np.dot(dwater, dozone)) / denom
    resid = float(np.sqrt(np.mean((dwater - s * dozone) ** 2)))
    return OzoneSlope(s, resid)


def quadspectral(
    cube: SceneCube,
    bands: BandSelection,
    alpha: AttenuationSpectrum,
    air_temperature: Temperature,
    slope,
) -> RangeMap:
    """Air-corrected ratio with the reflected-downwelling bias removed.

    The bias estimate b_hat = s * (L(lambda4) - L(lambda3)) is subtracted
    from the numerator as-is, with no transmittance factor.
    """
    a1, a2 = _check_alpha(cube, alpha, bands)
    s = slope.s if isinstance(slope, OzoneSlope) else float(slope)
    b1, b2 = (planck(float(cube.grid.wavelengths[i]), air_temperature.kelvin)
              for i in (bands.index1, bands.index2))
    b_hat = s * (_band_values(cube, bands.index4) - _band_values(cube, bands.index3))
    num = _band_values(cube, bands.index2) - b2 - b_hat
    den = _band_values(cube, bands.index1) - b1
    return _log_ratio_map(num, den, -10.0 / (a2 - a1))
