"""Builders shared across test modules."""

import json
import struct

import numpy as np

from lwirange.atmosphere import (
    AtmosphereParams,
    AttenuationSpectrum,
    DownwellingSet,
    make_default_grid,
    synth_attenuation,
    synth_downwelling,
)
from lwirange.forward_model import SceneTruth, make_default_scene, synthesize_cube
from lwirange.radiometry import DB_PER_M, SpectralGrid, Spectrum, Temperature

AIR = Temperature(295.0)


def attenuation_from(grid, values):
    return AttenuationSpectrum(Spectrum(grid, np.asarray(values, dtype=np.float64), DB_PER_M))


def micro_scene(rows=4, cols=4, bands=16, q=2, noise_sigma=0.0, seed=0):
    """Small default scene plus everything needed to invert it."""
    grid = make_default_grid(bands=bands)
    params = AtmosphereParams(air_temperature=AIR)
    alpha = synth_attenuation(params, grid)
    angles = tuple(np.linspace(0.0, 80.0, q)) if q else ()
    dw = synth_downwelling(params, grid, angles) if q else None
    truth = make_default_scene(grid, q=max(q, 1), air_temperature=AIR,
                               rows=rows, cols=cols)
    if q == 0:
        truth = SceneTruth(
            distance_map=truth.distance_map,
            temperature_map=truth.temperature_map,
            emissivity_cube=truth.emissivity_cube,
            solid_angle_maps=np.zeros((rows, cols, 0)),
            ground_ambient=truth.ground_ambient,
        )
    cube = synthesize_cube(truth, alpha, dw, AIR, noise_sigma=noise_sigma,
                           rng_seed=seed)
    return {"grid": grid, "alpha": alpha, "dw": dw, "truth": truth, "cube": cube}


def flat_scene(grid, d, t_kelvin, eps, rows=2, cols=2, q=0, omega=0.0,
               ground=None):
    """Uniform scene: one distance, one temperature, flat emissivity."""
    k = len(grid.wavelengths)
    if ground is None:
        ground = np.zeros(k)
    ground = np.broadcast_to(np.asarray(ground, dtype=np.float64),
                             (rows, cols, k)).copy()
    return SceneTruth(
        distance_map=np.full((rows, cols), float(d)),
        temperature_map=np.full((rows, cols), float(t_kelvin)),
        emissivity_cube=np.full((rows, cols, k), float(eps)),
        solid_angle_maps=np.full((rows, cols, q), float(omega)),
        ground_ambient=ground,
    )


def ramp_distances(truth, d_values):
    """Copy of truth with the distance map replaced column-by-column."""
    m, n = truth.distance_map.shape
    d = np.tile(np.asarray(d_values, dtype=np.float64), (m, 1))[:, :n]
    return SceneTruth(
        distance_map=d,
        temperature_map=truth.temperature_map,
        emissivity_cube=truth.emissivity_cube,
        solid_angle_maps=truth.solid_angle_maps,
        ground_ambient=truth.ground_ambient,
    )


def five_band_grid():
    return SpectralGrid(np.array([8.42, 8.46, 9.49, 9.57, 13.0]))


def poke_cube(path, index, value):
    """Overwrite one voxel of the LWC1 cube file at path in place.

    write_cube refuses a non-finite value, so a test of what the readers
    make of one writes it into the file body here: index is (i, j, k).
    """
    with open(path, "r+b") as fh:
        head = fh.read(8)
        (hlen,) = struct.unpack("<I", head[4:8])
        header = json.loads(fh.read(hlen))
        shape = (header["rows"], header["cols"], header["bands"])
        fh.seek(8 + hlen + 4 * int(np.ravel_multi_index(index, shape)))
        fh.write(struct.pack("<f", value))
