"""Ground-level attenuation, transmittance, and synthetic sky radiance.

The generator is a desk-scale stand-in for line-by-line radiative
transfer: Gaussian absorption lines for two species, Beer-Lambert
transmittance in dB/m, and a plane-parallel sec(theta) air-mass model
for the downwelling set. Strengths are abstract scalings, not physical
column densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DomainError,
    GridError,
    SpectrumParseError,
    UnitMismatchError,
)
from .radiometry import (
    DB_PER_M,
    DIMENSIONLESS,
    MICROFLICK,
    SpectralGrid,
    Spectrum,
    Temperature,
    planck,
)

__all__ = [
    "AttenuationSpectrum",
    "DownwellingSet",
    "AtmosphereParams",
    "DEFAULT_WATER_LINES",
    "DEFAULT_OZONE_LINES",
    "DEFAULT_ZENITH_ANGLES",
    "make_default_grid",
    "transmittance",
    "synth_attenuation",
    "synth_downwelling",
    "load_spectrum",
    "save_spectrum",
    "load_downwelling",
    "save_downwelling",
]

# (center um, width um, peak dB/m). The 8.42/8.465 doublet gives the
# water-vapor contrast pair; the 13 um shoulder saturates short paths
# and anchors air-temperature estimation.
DEFAULT_WATER_LINES = (
    (8.42, 0.012, 0.12),
    (8.465, 0.011, 0.009),
    (8.80, 0.030, 0.055),
    (8.90, 0.025, 0.0090),
    (9.10, 0.025, 0.028),
    (9.80, 0.030, 0.0045),
    (9.95, 0.030, 0.016),
    (10.20, 0.030, 0.150),
    (10.5, 3.0, 2.8e-4),
    (10.60, 0.035, 0.040),
    (10.90, 0.028, 0.075),
    (11.05, 0.025, 0.0022),
    (11.25, 0.040, 0.070),
    (11.50, 0.030, 0.0375),
    (11.90, 0.035, 0.045),
    (12.10, 0.028, 0.018),
    (12.30, 0.025, 0.0011),
    (12.45, 0.050, 0.30),
    (12.75, 0.040, 0.60),
    (13.0, 0.08, 6.0),
)
DEFAULT_OZONE_LINES = ((9.49, 0.035, 0.62),)

DEFAULT_ZENITH_ANGLES = (0.0, 30.0, 60.0, 70.0, 80.0, 82.0, 84.0, 86.0, 88.0, 89.0)

_ZENITH_CAP_DEG = 89.9
_DEFAULT_BAND_TARGETS = (8.42, 8.46, 9.49, 9.57, 13.0)

# the sky columns scale opacity along the vertical path relative to one
# meter of ground path; the ozone layer radiates at its own temperature
_WATER_SKY_COLUMN = 10.0
_OZONE_SKY_COLUMN = 1.94
_OZONE_LAYER_TEMPERATURE = 235.0


def make_default_grid(bands: int = 64) -> SpectralGrid:
    """Uniform 8-13.2 um grid with the estimator bands snapped onto exact
    samples."""
    if bands < 8:
        raise GridError("default grid needs at least 8 bands")
    w = np.linspace(8.0, 13.2, bands)
    for lb in _DEFAULT_BAND_TARGETS:
        w[int(np.argmin(np.abs(w - lb)))] = lb
    return SpectralGrid(w)


@dataclass(frozen=True, eq=False)
class AttenuationSpectrum:
    """Ground-level attenuation alpha(lambda) in dB/m; values >= 0."""

    spectrum: Spectrum

    def __post_init__(self):
        if self.spectrum.unit != DB_PER_M:
            raise UnitMismatchError(
                f"attenuation must be tagged {DB_PER_M!r}, got {self.spectrum.unit!r}"
            )
        if np.any(self.spectrum.values < 0.0):
            raise DomainError("attenuation values must be >= 0")

    @property
    def grid(self) -> SpectralGrid:
        return self.spectrum.grid

    @property
    def values(self) -> np.ndarray:
        return self.spectrum.values


def _zenith_angles(angles):
    """A float64 copy of a zenith-angle list, refused with DomainError unless
    it is 1-d and non-empty, in [0, 90) degrees and strictly increasing."""
    ang = np.asarray(angles, dtype=np.float64).copy()
    if ang.ndim != 1 or ang.size < 1:
        raise DomainError("need at least one zenith angle")
    if not np.all((ang >= 0.0) & (ang < 90.0)):
        raise DomainError("zenith angles must lie in [0, 90) degrees")
    if ang.size > 1 and not np.all(np.diff(ang) > 0.0):
        raise DomainError("zenith angles must be strictly increasing")
    return ang


@dataclass(frozen=True, eq=False)
class DownwellingSet:
    """Q sky radiance spectra indexed by zenith angle, on a shared grid."""

    zenith_angles_deg: np.ndarray
    values: np.ndarray          # (Q, K) microflick
    grid: SpectralGrid

    def __post_init__(self):
        ang = _zenith_angles(self.zenith_angles_deg)
        val = np.asarray(self.values, dtype=np.float64).copy()
        if val.shape != (ang.size, len(self.grid)):
            raise GridError(
                f"radiance block {val.shape} does not match (Q={ang.size}, K={len(self.grid)})"
            )
        if np.any(val < 0.0) or not np.all(np.isfinite(val)):
            raise DomainError("downwelling radiances must be finite and >= 0")
        ang.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "zenith_angles_deg", ang)
        object.__setattr__(self, "values", val)

    def __len__(self):
        return self.zenith_angles_deg.size

    def spectra(self):
        return [Spectrum(self.grid, row, MICROFLICK) for row in self.values]


@dataclass(frozen=True)
class AtmosphereParams:
    """Knobs of the synthetic atmosphere generator.

    Strengths scale the peaks of the default water and ozone lines. The
    ozone species never contributes to ground-level attenuation.
    """

    air_temperature: Temperature = Temperature(295.0)
    water_vapor_strength: float = 1.0
    ozone_strength: float = 1.0
    sky_temperature_drop: float = 35.0

    def __post_init__(self):
        if self.water_vapor_strength < 0 or self.ozone_strength < 0:
            raise DomainError("species strengths must be >= 0")
        if self.air_temperature.kelvin - self.sky_temperature_drop <= 0:
            raise DomainError("sky temperature drop exceeds the air temperature")

    @property
    def sky_temperature(self) -> float:
        return self.air_temperature.kelvin - self.sky_temperature_drop


def _line_profile(grid: SpectralGrid, lines, strength: float) -> np.ndarray:
    w = grid.wavelengths
    out = np.zeros(len(grid))
    for c0, width, peak in lines:
        out += peak * np.exp(-0.5 * ((w - c0) / width) ** 2)
    return strength * out


def _tau(d, alpha):
    """Unvalidated Beer-Lambert kernel 10^(-alpha d / 10), shared by the
    simulator and the solver. d and alpha broadcast: a (P,) d and a (K, 1)
    alpha give the pixel-last (K, P) path of P pixels."""
    # exponent grouped as (-d/10) * alpha so integer-dB cases stay exact
    return np.power(10.0, (-d / 10.0) * alpha)


def transmittance(alpha: AttenuationSpectrum, d: float) -> Spectrum:
    """Beer-Lambert path transmittance 10^(-alpha d / 10), per band."""
    if d < 0:
        raise DomainError(f"path length must be >= 0 m, got {d}")
    return Spectrum(alpha.grid, _tau(d, alpha.values), DIMENSIONLESS)


def _check_line_coverage(grid: SpectralGrid, lines, species: str):
    w = grid.wavelengths
    missing = [c0 for c0, _, _ in lines if not (w[0] <= c0 <= w[-1])]
    if missing:
        raise GridError(f"grid does not cover {species} line centers: {missing}")


def synth_attenuation(params: AtmosphereParams, grid: SpectralGrid) -> AttenuationSpectrum:
    """Ground-level alpha(lambda): water lines only, ozone weight forced to zero."""
    _check_line_coverage(grid, DEFAULT_WATER_LINES, "water")
    values = _line_profile(grid, DEFAULT_WATER_LINES, params.water_vapor_strength)
    return AttenuationSpectrum(Spectrum(grid, values, DB_PER_M))


def synth_downwelling(
    params: AtmosphereParams, grid: SpectralGrid, zenith_angles_deg
) -> DownwellingSet:
    """Sky radiance family over zenith angles.

    Per angle: (1 - t_water) B(lambda; T_sky) + (1 - t_ozone) B(lambda; T_oz)
    with path opacity growing as sec(theta), capped near grazing.
    """
    angles = _zenith_angles(zenith_angles_deg)
    _check_line_coverage(grid, DEFAULT_WATER_LINES, "water")
    _check_line_coverage(grid, DEFAULT_OZONE_LINES, "ozone")

    wp = _line_profile(grid, DEFAULT_WATER_LINES, params.water_vapor_strength)
    op = _line_profile(grid, DEFAULT_OZONE_LINES, params.ozone_strength)
    airmass = 1.0 / np.cos(np.radians(np.minimum(angles, _ZENITH_CAP_DEG)))[:, None]

    b_sky = planck(grid.wavelengths, params.sky_temperature)
    b_oz = planck(grid.wavelengths, _OZONE_LAYER_TEMPERATURE)
    t_water = np.power(10.0, -wp[None, :] * _WATER_SKY_COLUMN * airmass / 10.0)
    t_ozone = np.power(10.0, -op[None, :] * _OZONE_SKY_COLUMN * airmass / 10.0)
    radiances = (1.0 - t_water) * b_sky[None, :] + (1.0 - t_ozone) * b_oz[None, :]
    return DownwellingSet(angles, radiances, grid)


# ---------------------------------------------------------------------------
# CSV persistence. Two columns (wavelength_um, value), '#' comments, unit
# declared in a '# unit:' header. Floats are written with repr() so a
# load -> save -> load cycle is bit-identical.
# ---------------------------------------------------------------------------

def save_spectrum(path, spectrum: Spectrum) -> None:
    lines = [f"# unit: {spectrum.unit}"]
    for w, v in zip(spectrum.grid.wavelengths, spectrum.values):
        lines.append(f"{float(w)!r},{float(v)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_utf8(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SpectrumParseError(path, 0, f"not UTF-8 text: {exc}") from None


def load_spectrum(path, expected_unit: str) -> Spectrum:
    path = Path(path)
    unit = None
    wavelengths, values = [], []
    for line_no, raw in enumerate(_read_utf8(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("unit:"):
                unit = body[5:].strip()
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise SpectrumParseError(path, line_no, f"expected 2 columns, got {len(parts)}")
        try:
            wavelengths.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError:
            raise SpectrumParseError(path, line_no, f"non-numeric field in {line!r}") from None
        if not np.isfinite(values[-1]):
            raise SpectrumParseError(path, line_no, f"non-finite value in {line!r}")
    if not wavelengths:
        raise SpectrumParseError(path, 0, "no data rows")
    if unit is not None and unit != expected_unit:
        raise UnitMismatchError(f"{path}: file unit {unit!r} != expected {expected_unit!r}")
    grid = SpectralGrid(np.array(wavelengths))
    return Spectrum(grid, np.array(values), expected_unit)


def save_downwelling(dir_path, dw: DownwellingSet) -> None:
    """Directory layout: angles.csv (zenith_deg, filename) plus per-angle CSVs."""
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    rows = ["# zenith_deg,filename"]
    for i, (ang, sp) in enumerate(zip(dw.zenith_angles_deg, dw.spectra())):
        name = f"angle_{i:02d}.csv"
        save_spectrum(d / name, sp)
        rows.append(f"{float(ang)!r},{name}")
    (d / "angles.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def load_downwelling(dir_path) -> DownwellingSet:
    d = Path(dir_path)
    index = d / "angles.csv"
    angles, names = [], []
    for line_no, raw in enumerate(_read_utf8(index).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise SpectrumParseError(index, line_no, f"expected 2 columns, got {len(parts)}")
        try:
            angles.append(float(parts[0]))
        except ValueError:
            raise SpectrumParseError(index, line_no, f"bad zenith angle {parts[0]!r}") from None
        if not np.isfinite(angles[-1]):
            raise SpectrumParseError(index, line_no, f"non-finite zenith angle {parts[0]!r}")
        name = parts[1].strip()
        # a bare file name in the directory, so the index reads nothing else
        if "\x00" in name or name == ".." or Path(name).name != name:
            raise SpectrumParseError(index, line_no, f"bad file name {name!r}")
        names.append((line_no, name))
    if not angles:
        raise SpectrumParseError(index, 0, "no angle rows")
    spectra = []
    for line_no, name in names:
        try:
            spectra.append(load_spectrum(d / name, MICROFLICK))
        except OSError as exc:
            # the index names a file that cannot be read: the index is at fault
            raise SpectrumParseError(index, line_no, f"cannot read {name!r}: {exc}") from None
    grid = spectra[0].grid
    for (_, name), s in zip(names[1:], spectra[1:]):
        if s.grid != grid:
            raise GridError(f"{d / name}: grid differs from the first angle file")
    block = np.stack([s.values for s in spectra])
    return DownwellingSet(np.array(angles), block, grid)
