"""Passive LWIR absorption ranging: forward simulation and range inversion.

Thermal photons crossing the 8-13.2 um window are absorbed by water vapor
and ozone at rates that grow with path length, so the spectral shape of an
object's radiance encodes how far away it is. This package synthesizes
hyperspectral thermal cubes of scenes with known geometry and inverts them
back to per-pixel distance, temperature, emissivity, and sky contribution
with closed-form band-ratio estimators and a constrained least-squares
solver.
"""

from .atmosphere import (
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
from .closed_form import (
    DENOMINATOR_TOL,
    FLAG_CLIPPED,
    FLAG_NONPOSITIVE_RATIO,
    FLAG_VALID,
    FLAG_ZERO_DENOMINATOR,
    BandSelection,
    OzoneSlope,
    RangeMap,
    bispectral_air,
    bispectral_hot,
    estimate_air_temperature,
    fit_ozone_slope,
    quadspectral,
)
from .cube_io import (
    CubeHeader,
    load_cube_grid,
    load_estimates,
    load_range_map,
    load_scene_cube,
    load_scene_truth,
    load_truth_distance,
    read_cube,
    read_map,
    save_estimates,
    save_range_map,
    save_scene,
    save_scene_cube,
    save_scene_truth,
    write_cube,
    write_map,
)
from .errors import (
    AllInvalidError,
    ConfigError,
    ConstraintError,
    DegenerateFitError,
    DimensionError,
    DomainError,
    FormatError,
    GridError,
    LwirError,
    SpectrumParseError,
    UnitMismatchError,
)
from .evaluation import (
    PATCH_CSV_COLUMNS,
    PatchSpec,
    default_patches,
    patch_stats,
    render_map,
    write_patch_stats_csv,
)
from .forward_model import (
    EstimateMaps,
    SceneCube,
    SceneTruth,
    SolverConfig,
    default_panel_masks,
    make_default_scene,
    radiance_model_batch,
    synthesize_cube,
    synthesize_rows,
)
from .radiometry import (
    DB_PER_M,
    DIMENSIONLESS,
    MICROFLICK,
    SpectralGrid,
    Spectrum,
    Temperature,
    as_kelvin,
    brightness_temperature,
    planck,
    planck_dT,
)

__version__ = "0.1.0"

# the public names: those imported above and the solver's functions, which
# __getattr__ resolves; not the submodule names the imports bind
__all__ = [
    "DEFAULT_ZENITH_ANGLES", "AtmosphereParams", "AttenuationSpectrum",
    "DownwellingSet", "load_downwelling", "load_spectrum",
    "make_default_grid", "save_downwelling", "save_spectrum",
    "synth_attenuation", "synth_downwelling", "transmittance",
    "DENOMINATOR_TOL", "FLAG_CLIPPED", "FLAG_NONPOSITIVE_RATIO",
    "FLAG_VALID", "FLAG_ZERO_DENOMINATOR", "BandSelection", "OzoneSlope",
    "RangeMap", "bispectral_air", "bispectral_hot",
    "estimate_air_temperature", "fit_ozone_slope", "quadspectral",
    "CubeHeader", "load_cube_grid", "load_estimates", "load_range_map",
    "load_scene_cube", "load_scene_truth", "load_truth_distance",
    "read_cube", "read_map", "save_estimates", "save_range_map",
    "save_scene", "save_scene_cube", "save_scene_truth", "write_cube",
    "write_map",
    "AllInvalidError", "ConfigError", "ConstraintError",
    "DegenerateFitError", "DimensionError", "DomainError", "FormatError",
    "GridError", "LwirError", "SpectrumParseError", "UnitMismatchError",
    "PATCH_CSV_COLUMNS", "PatchSpec", "default_patches", "patch_stats",
    "render_map", "write_patch_stats_csv",
    "EstimateMaps", "SceneCube", "SceneTruth", "SolverConfig",
    "default_panel_masks", "make_default_scene", "radiance_model_batch",
    "synthesize_cube", "synthesize_rows",
    "DB_PER_M", "DIMENSIONLESS", "MICROFLICK", "SpectralGrid", "Spectrum",
    "Temperature", "as_kelvin", "brightness_temperature", "planck",
    "planck_dT",
    "data_loss", "emissivity_smoothness", "gradients", "project", "solve",
    "tv_distance",
]


def __getattr__(name):
    # the solver's functions resolve on first use, so that importing the
    # package, or the CLI for a launch that runs no solver, does not load it
    if name in ("data_loss", "emissivity_smoothness", "gradients", "project",
                "solve", "tv_distance"):
        from . import hyperspectral

        return getattr(hyperspectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
