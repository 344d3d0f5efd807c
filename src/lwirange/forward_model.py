"""Synthesize observed radiance cubes from ground-truth scene maps.

The single-pixel observation model, in microflicks:

    L_obs = tau(d) * (eps * B(T) + (1 - eps) * mix - B(T_air)) + B(T_air)
    mix   = (sum_q Omega_q L_D,q + (pi - sum_q Omega_q) * L_G) / pi

with tau(d) = 10^(-alpha d / 10). The model is written once, as four
unvalidated kernels: ``atmosphere._tau`` for the path, :func:`_mix` for the
sky-plus-ground light a pixel reflects, :func:`_contrast` for the surface
term less B(T_air), and :func:`_radiance` for the sensor radiance. The
simulator (:func:`radiance_model_batch`) and every objective, block update
and gradient of the solver in :mod:`lwirange.hyperspectral` call these same
kernels, so a solver fed the noiseless truth reproduces the cube bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atmosphere import AttenuationSpectrum, DownwellingSet, _tau
from .errors import ConstraintError, DimensionError, DomainError, GridError
from .radiometry import SpectralGrid, Temperature, planck

__all__ = [
    "SceneTruth",
    "SceneCube",
    "synthesize_rows",
    "synthesize_cube",
    "make_default_scene",
    "radiance_model_batch",
]

# float32 storage (LWC1) rounds each sky weight by at most 2^-24 relative,
# so weights built on the pi cap may sum this far above it once loaded
_OMEGA_CAP = np.pi * (1.0 + 2.0 ** -23)


def _state_maps(distance, temperature, emissivity, sky_weights):
    """The four state maps as float64 arrays: distance and temperature
    (M, N), emissivity (M, N, K), sky weights (M, N, Q).

    Checks shapes only, and raises DimensionError where they disagree.
    """
    d, t, e, o = (np.asarray(a, dtype=np.float64)
                  for a in (distance, temperature, emissivity, sky_weights))
    if d.ndim != 2:
        raise DimensionError(f"distance map must be 2-D, got shape {d.shape}")
    if t.shape != d.shape:
        raise DimensionError(f"temperature map shape {t.shape} != {d.shape}")
    if e.ndim != 3 or e.shape[:2] != d.shape:
        raise DimensionError(f"emissivity must be (M, N, K), got {e.shape}")
    if o.ndim != 3 or o.shape[:2] != d.shape:
        raise DimensionError(f"sky weights must be (M, N, Q), got {o.shape}")
    return d, t, e, o


def _span(a):
    # (min, max) of a: NaN where a holds a NaN, (inf, -inf) where a is empty
    return a.min(initial=np.inf), a.max(initial=-np.inf)


def _all_finite(a):
    # a min/max reduction carries a NaN through without a boolean temporary;
    # an empty a is finite
    lo, hi = _span(a)
    return -np.inf < lo and hi < np.inf


def _check_feasible(d, t, e, o):
    """Raise ConstraintError unless the state maps are feasible.

    Every value is finite, distance >= 0, emissivity in [0, 1], and sky
    weights >= 0 with per-pixel sums <= pi * (1 + 2^-23), the allowance
    being float32 rounding.  Each check is a min/max reduction, which
    carries a NaN through without a full-size boolean temporary.
    """
    for name, a, low, high in (("distance", d, 0.0, np.inf),
                               ("temperature", t, -np.inf, np.inf),
                               ("emissivity", e, 0.0, 1.0),
                               ("sky weights", o, 0.0, np.inf)):
        lo, hi = _span(a)
        if not (-np.inf < lo and hi < np.inf):
            raise ConstraintError(f"{name} must be finite")
        if not (low <= lo and hi <= high):
            raise ConstraintError(f"{name} must lie in [{low}, {high}]")
    if not _span(o.sum(axis=2))[1] <= _OMEGA_CAP:
        raise ConstraintError("per-pixel sky weights must sum to at most pi")


def _read_only_f64(a):
    """a as a read-only float64 array.  A read-only float64 array whose
    memory no writable array shares is taken over as given; anything else
    is copied, so the result never aliases a caller's writable array."""
    b = a
    while isinstance(b, np.ndarray) and not b.flags.writeable:
        b = b.base
    if (isinstance(a, np.ndarray) and a.dtype == np.float64
            and not isinstance(b, np.ndarray)):
        return a
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SceneTruth:
    """Per-pixel ground truth driving the simulator.

    distance_map     (M, N) meters, >= 0
    temperature_map  (M, N) kelvin, > 0
    emissivity_cube  (M, N, K) in [0, 1]
    solid_angle_maps (M, N, Q) projected solid angles, >= 0, per-pixel sums
                     <= pi * (1 + 2^-23), which allows for float32 storage
    ground_ambient   (M, N, K) microflick, >= 0, smooth in wavelength

    Every value must be finite; a violation raises ConstraintError.  The
    maps are held as read-only float64 arrays (see :func:`_read_only_f64`),
    so the truth never freezes or aliases a caller's writable array.
    """

    distance_map: np.ndarray
    temperature_map: np.ndarray
    emissivity_cube: np.ndarray
    solid_angle_maps: np.ndarray
    ground_ambient: np.ndarray

    def __post_init__(self):
        for name in ("distance_map", "temperature_map", "emissivity_cube",
                     "solid_angle_maps", "ground_ambient"):
            object.__setattr__(self, name, _read_only_f64(getattr(self, name)))
        d, t, e, o = _state_maps(self.distance_map, self.temperature_map,
                                 self.emissivity_cube, self.solid_angle_maps)
        g = self.ground_ambient
        if g.shape != e.shape:
            raise DimensionError("ground_ambient shape mismatch")
        _check_feasible(d, t, e, o)
        if not _span(t)[0] > 0.0:
            raise ConstraintError("temperatures must be > 0 K")
        lo, hi = _span(g)
        if not (0.0 <= lo and hi < np.inf):
            raise ConstraintError("ground ambient radiance must be finite and >= 0")

    @property
    def shape(self):
        return self.distance_map.shape


@dataclass(frozen=True, eq=False)
class SceneCube:
    """Observed radiance cube plus acquisition metadata.

    The cube holds its radiance as a read-only float64 array (see
    :func:`_read_only_f64`), so it never aliases a caller's writable array.
    """

    radiance: np.ndarray        # (M, N, K) microflick
    grid: SpectralGrid
    air_temperature: Temperature
    noise_sigma: float = 0.0

    def __post_init__(self):
        r = _read_only_f64(self.radiance)
        if r.ndim != 3:
            raise DimensionError("radiance cube must be 3-D (M, N, K)")
        if 0 in r.shape:
            raise DimensionError(f"radiance cube has an empty axis: {r.shape}")
        if r.shape[2] != len(self.grid):
            raise GridError("cube band count does not match the grid")
        if not _all_finite(r):
            raise ConstraintError("radiance must be finite")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise DomainError(
                f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        object.__setattr__(self, "radiance", r)

    @property
    def shape(self):
        return self.radiance.shape


def _mix(omegas: np.ndarray, ld: np.ndarray, ground: np.ndarray,
         band_major: bool = False) -> np.ndarray:
    """Light a Lambertian pixel reflects, per unit (1 - eps): (P, K), or
    (K, P) when band_major.

    omegas: (P, Q) projected solid angles; ld: (Q, K) downwelling radiance;
    ground: ambient radiance filling the rest of the hemisphere, broadcast
    against the result: (K,) or (P, K), or (K, 1) or (K, P) when band_major.
    """
    # einsum keeps per-row bit patterns independent of the batch size;
    # matmul does not, which would break the thread-count determinism
    # contract. Both layouts sum over q in the same order, so they agree bit
    # for bit up to the transpose. order="C" keeps a band-major result
    # C-ordered, where einsum would follow the pixel-major operands.
    rest = np.pi - omegas.sum(axis=1)
    if band_major:
        sky = np.einsum("pq,qk->kp", omegas, ld, optimize=False, order="C")
        return (sky + rest * ground) / np.pi
    sky = np.einsum("pq,qk->pk", omegas, ld, optimize=False)
    return (sky + rest[:, None] * ground) / np.pi


def _contrast(bt: np.ndarray, eps: np.ndarray, mix: np.ndarray,
              b_air: np.ndarray) -> np.ndarray:
    """Surface-leaving radiance less the air blackbody: eps*B(T) + (1-eps)*mix - B_air."""
    return eps * bt + (1.0 - eps) * mix - b_air


def _radiance(tau: np.ndarray, contrast: np.ndarray, b_air: np.ndarray) -> np.ndarray:
    """Sensor radiance: the contrast attenuated along the path, plus B_air."""
    return tau * contrast + b_air


def radiance_model_batch(
    wavelengths: np.ndarray,
    alpha_values: np.ndarray,
    d: np.ndarray,
    t_kelvin: np.ndarray,
    eps: np.ndarray,
    omegas: np.ndarray,
    ld: np.ndarray,
    ground: np.ndarray,
    b_air: np.ndarray,
) -> np.ndarray:
    """Evaluate the observation model for P pixels at once.

    d, t_kelvin: (P,); eps: (P, K); omegas: (P, Q); ld: (Q, K);
    ground: (K,) or (P, K); b_air: (K,). Returns (P, K).
    """
    bt = planck(wavelengths, t_kelvin[:, None])
    contrast = _contrast(bt, eps, _mix(omegas, ld, ground), b_air)
    return _radiance(_tau(d[:, None], alpha_values), contrast, b_air)


def synthesize_rows(
    truth: SceneTruth,
    alpha: AttenuationSpectrum,
    dw: DownwellingSet,
    air_temperature: Temperature,
    noise_sigma: float = 0.0,
    rng_seed: int = 0,
):
    """The observed cube of truth, one image row at a time: an iterator of
    M (N, K) float64 rows, each the observation model plus i.i.d. Gaussian
    noise.

    dw may be None for a scene with no sky sectors (Q = 0). The arguments
    are checked here, before the first row is made. Row i's noise is drawn
    as one (N, K) block from a substream seeded by (seed, i): pixel (i, j)
    takes draws j*K to (j+1)*K - 1 of it. So reruns agree bit for bit, and
    the top-left corner of a cube equals the cube synthesized from that
    corner of the truth.
    """
    if not 0.0 <= noise_sigma < np.inf:
        raise DomainError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    k = len(alpha.grid)
    q = 0 if dw is None else len(dw)
    if truth.emissivity_cube.shape[2] != k:
        raise DimensionError("emissivity band count does not match the grid")
    if truth.solid_angle_maps.shape[2] != q:
        raise DimensionError("solid-angle sector count does not match the downwelling set")
    if dw is not None and dw.grid != alpha.grid:
        raise GridError("attenuation and downwelling grids differ")

    b_air = planck(alpha.grid.wavelengths, air_temperature.kelvin)
    ld = np.zeros((0, k)) if dw is None else dw.values
    m, n = truth.shape

    def rows():
        # every kernel is elementwise or a row-stable einsum, so each row
        # carries the bits it would carry in a whole-image batch
        for i in range(m):
            y = radiance_model_batch(
                alpha.grid.wavelengths,
                alpha.values,
                truth.distance_map[i],
                truth.temperature_map[i],
                truth.emissivity_cube[i],
                truth.solid_angle_maps[i],
                ld,
                truth.ground_ambient[i],
                b_air,
            )
            if noise_sigma > 0:
                rng = np.random.default_rng(np.random.SeedSequence([rng_seed, i]))
                y += noise_sigma * rng.standard_normal((n, k))
            yield y

    return rows()


def synthesize_cube(
    truth: SceneTruth,
    alpha: AttenuationSpectrum,
    dw: DownwellingSet,
    air_temperature: Temperature,
    noise_sigma: float = 0.0,
    rng_seed: int = 0,
) -> SceneCube:
    """The whole observed cube of truth, filled from :func:`synthesize_rows`
    with the same arguments; the rows and their noise are its."""
    rows = synthesize_rows(truth, alpha, dw, air_temperature, noise_sigma,
                           rng_seed)
    y = np.empty(truth.shape + (len(alpha.grid),))
    for i, row in enumerate(rows):
        y[i] = row
    # read-only, so the cube holds this array rather than a copy of it
    y.setflags(write=False)
    return SceneCube(y, alpha.grid, air_temperature, noise_sigma)


# ---------------------------------------------------------------------------
# Shipped reflective-panel scene: a grass ramp with two vertical panels
# whose cells alternate between eps = 0.6 (reflecting 0.4, the shiny cells)
# and eps = 0.9 (reflecting 0.1, the dull ones). Panels see the sky mostly
# near grazing angles; grass sees it near zenith.
# ---------------------------------------------------------------------------

_PANEL_SKY_PROFILE = np.array([0.0, 0.0, 0.02, 0.05, 0.10, 0.12, 0.14, 0.16, 0.20, 0.21])
_GRASS_SKY_PROFILE = np.array([0.30, 0.25, 0.20, 0.10, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def _resample_profile(profile: np.ndarray, q: int, total: float) -> np.ndarray:
    src = np.linspace(0.0, 1.0, profile.size)
    dst = np.linspace(0.0, 1.0, q)
    out = np.interp(dst, src, profile)
    s = out.sum()
    if s <= 0:
        out = np.full(q, 1.0 / q)
        s = 1.0
    return out * (total / s)


def make_default_scene(
    grid: SpectralGrid,
    q: int = 10,
    air_temperature: Temperature = Temperature(295.0),
    rows: int = 32,
    cols: int = 32,
) -> SceneTruth:
    """Reflective-panel fixture used by the acceptance experiments.

    Emissivity is flat in wavelength and the ground is one ambient
    spectrum, so both are read-only broadcast views: the emissivity of an
    (M, N, 1) map, the ground of one (K,) spectrum. The maps the scene holds
    are (M, N) range, temperature and emissivity, and (M, N, Q) sky weights.
    """
    if q < 1:
        raise DomainError("default scene needs at least one sky sector")
    k = len(grid)
    om_panel = _resample_profile(_PANEL_SKY_PROFILE, q, 0.5 * np.pi)
    om_grass = _resample_profile(_GRASS_SKY_PROFILE, q, 0.85 * np.pi)

    # each map owns its memory (np.tile would return a view of a writable
    # array), so SceneTruth adopts it once it is read-only
    d = np.repeat(np.linspace(5.0, 60.0, rows)[:, None], cols, axis=1)
    t = np.full((rows, cols), 295.5)
    eps = np.full((rows, cols, 1), 0.98)
    om = np.broadcast_to(om_grass, (rows, cols, q)).copy()

    panel, eps60, eps90 = default_panel_masks(rows, cols)
    d[panel] = 30.0
    t[panel] = 296.0
    eps[eps60] = 0.6
    eps[eps90] = 0.9
    om[panel] = om_panel

    # one emissivity per pixel and one ambient spectrum at every pixel:
    # read-only broadcast views, not (M, N, K) copies of them
    ambient = planck(grid.wavelengths, air_temperature.kelvin)
    for a in (d, t, eps, om, ambient):
        a.setflags(write=False)
    return SceneTruth(d, t, np.broadcast_to(eps, (rows, cols, k)), om,
                      np.broadcast_to(ambient, (rows, cols, k)))


def default_panel_masks(rows: int = 32, cols: int = 32):
    """Masks for the fixture: (panel cells, eps = 0.6 cells, eps = 0.9 cells).

    The eps = 0.6 cells reflect 0.4 of the incident sky, the eps = 0.9 cells 0.1.
    """
    panel = np.zeros((rows, cols), dtype=bool)
    r0, r1 = int(rows * 4 / 32), int(rows * 20 / 32)
    panel[r0:r1, int(cols * 4 / 32):int(cols * 14 / 32)] = True
    panel[r0:r1, int(cols * 18 / 32):int(cols * 28 / 32)] = True
    checker = (np.add.outer(np.arange(rows), np.arange(cols)) % 2) == 0
    return panel, panel & checker, panel & ~checker
