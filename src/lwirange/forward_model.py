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
The kernels take one layout, pixel-last: per-band arrays are (K, P), K bands
by P pixels, and sky weights (Q, P).  :func:`radiance_model_batch` keeps a
pixel-major signature and converts at its boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atmosphere import AttenuationSpectrum, DownwellingSet, _tau
from .errors import (
    ConstraintError,
    DimensionError,
    DomainError,
    GridError,
    _is_int,
    _is_real,
)
from .radiometry import SpectralGrid, Temperature, planck

__all__ = [
    "EstimateMaps",
    "SolverConfig",
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
    # (min, max) of a: NaN where a holds a NaN, (inf, -inf) where a is empty.
    # An axis of stride 0, as a broadcast has, is reduced at its first index
    # only: every entry along it aliases that one
    a = a[tuple(slice(None if s else 1) for s in a.strides)]
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


@dataclass
class EstimateMaps:
    """Solver output: per-pixel state plus final per-pixel objective.

    distance (M,N) m, >= 0; temperature (M,N) K; emissivity (M,N,K) in
    [0,1]; solid_angles (M,N,Q) sr with non-negative entries summing to at
    most pi * (1 + 2^-23) per pixel, which allows for float32 storage; loss
    (M,N) is the per-pixel data misfit plus the weighted
    emissivity-smoothness penalty; iterations (M,N) counts the refinement
    sweeps the pixel ran, the refinement budget at every pixel of a
    :func:`lwirange.hyperspectral.solve`.  history, which that solve always
    fills, holds ``(stage, step, objective, feasible)`` per "refine" sweep
    and per "polish", "armijo" and "tv" round, for any number of sky sectors
    ("tv" only when rho_d > 0), with the objective that stage guards: data
    misfit plus smoothness, summed over the image, plus rho_d * TV on "tv"
    entries, the first of which is the state the TV stage received.  The
    four state maps and the loss must be finite; a violation raises
    ConstraintError.
    """

    distance: np.ndarray
    temperature: np.ndarray
    emissivity: np.ndarray
    solid_angles: np.ndarray
    loss: np.ndarray
    iterations: np.ndarray
    history: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        d, t, e, o = _state_maps(self.distance, self.temperature,
                                 self.emissivity, self.solid_angles)
        ls = np.asarray(self.loss, dtype=float)
        it = np.asarray(self.iterations)
        if ls.shape != d.shape or it.shape != d.shape:
            raise DimensionError("loss/iterations shape mismatch")
        _check_feasible(d, t, e, o)
        if not np.isfinite(ls).all():
            raise ConstraintError("loss must be finite")
        self.distance = d
        self.temperature = t
        self.emissivity = e
        self.solid_angles = o
        self.loss = ls
        self.iterations = it

    @property
    def shape(self):
        return self.distance.shape


@dataclass
class SolverConfig:
    """Knobs for :func:`lwirange.hyperspectral.solve`.

    rho_eps / rho_d are the emissivity-smoothness and range-TV weights (the
    TV of :func:`lwirange.hyperspectral.tv_distance`, over every adjacent
    pixel pair), d_max the range box bound.  No setting picks the sky
    sectors: the model has one per spectrum of the downwelling set passed
    to the solve, and none when that is None.  threads caps the number of
    pixel blocks whose per-pixel stages each run in their own worker
    process; there are never more blocks than pixels or usable cores, and
    the TV rounds run once on the whole map in the calling process.
    warmup_iterations, warmup_d_freeze (warmup sweeps before the range block
    first runs), refine_iterations and max_iterations (a cap on both) set
    the sweep counts; every warmup start (each range start times each emissivity
    start) runs the whole warmup budget, then each pixel's lowest-loss start
    runs the whole refinement budget.  polish_rounds counts the joint (d, T)
    Gauss-Newton steps after the refinement, each followed by a sky refit;
    armijo_iterations counts the range-only Gauss-Newton steps after them,
    each within the solver's _POLISH_SPAN with T held.  The class lives here,
    beside :class:`EstimateMaps`, so that reading or checking the solver's
    settings, as the CLI does at every launch, does not load the solver.

    The step and scan spans, scan sizes, warmup starts and temperature box
    are module constants (``_T_SPAN0`` and the names after it at the top of
    :mod:`lwirange.hyperspectral`).  The hemisphere the sky sectors leave is
    filled with ambient ground radiance, B(T_air).
    """

    rho_eps: float = 1e5
    rho_d: float = 0.0
    d_max: float = 200.0
    max_iterations: int = 2000
    warmup_iterations: int = 14
    warmup_d_freeze: int = 6
    refine_iterations: int = 40
    polish_rounds: int = 3
    armijo_iterations: int = 2
    threads: int = 1

    def validate(self) -> list[str]:
        v = []
        if not (_is_real(self.rho_eps) and 0.0 <= self.rho_eps < np.inf):
            v.append(f"rho_eps must be finite and >= 0, got {self.rho_eps!r}")
        if not (_is_real(self.rho_d) and 0.0 <= self.rho_d < np.inf):
            v.append(f"rho_d must be finite and >= 0, got {self.rho_d!r}")
        if not (_is_real(self.d_max) and 0.0 < self.d_max < np.inf):
            v.append(f"d_max must be finite and > 0, got {self.d_max!r}")
        for name, low in (("max_iterations", 1), ("warmup_iterations", 1),
                          ("refine_iterations", 1), ("warmup_d_freeze", 0),
                          ("polish_rounds", 0), ("armijo_iterations", 0),
                          ("threads", 1)):
            x = getattr(self, name)
            if not (_is_int(x) and x >= low):
                v.append(f"{name} must be an integer >= {low}, got {x!r}")
        return v


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


def _band_sum(a):
    # per-pixel sum of a pixel-last (X, P) array over its X rows, in row
    # order for any P, and 0 for X = 0.  numpy adds the rows of a C-ordered
    # array one by one, but reduces a single column, or a column-major
    # array, pairwise, which would tie a pixel's bits to its batch size or
    # its operands' memory order.  The pi cap on the sky weights is tested
    # on this one sum and _mix's ground share reads it: summed pairwise,
    # about 14% of weight vectors scaled onto the cap land on the other side
    # of pi, so another order could reflect a negative share of the ground
    a = np.ascontiguousarray(a)
    if a.shape[1] == 1 and len(a):
        return np.add.accumulate(a, 0)[-1]
    return a.sum(0)


def _mix(omegas: np.ndarray, ld: np.ndarray, ground: np.ndarray) -> np.ndarray:
    """Light a Lambertian pixel reflects, per unit (1 - eps): C-ordered (K, P).

    omegas: C-ordered (Q, P) projected solid angles; ld: (Q, K) downwelling
    radiance; ground: ambient radiance filling the rest of the hemisphere,
    (K, 1) or (K, P).
    """
    # einsum keeps per-pixel bit patterns independent of the batch size;
    # matmul does not, which would break the thread-count determinism
    # contract.  It sums over q in order, each of its Q steps along
    # contiguous pixels; the ground share reads the same in-order sum
    sky = np.einsum("qp,qk->kp", omegas, ld, optimize=False)
    return (sky + (np.pi - _band_sum(omegas)) * ground) / np.pi


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
    ground: (K,) or (P, K); b_air: (K,). Returns (P, K), C-ordered: the
    transpose of the kernels' pixel-last (K, P) result.
    """
    col = b_air[:, None]
    mix = _mix(np.ascontiguousarray(omegas.T), ld, np.atleast_2d(ground).T)
    contrast = _contrast(planck(wavelengths[:, None], t_kelvin), eps.T, mix, col)
    y = _radiance(_tau(d, alpha_values[:, None]), contrast, col)
    return np.ascontiguousarray(y.T)


def synthesize_rows(
    truth: SceneTruth,
    alpha: AttenuationSpectrum,
    dw: DownwellingSet,
    air_temperature: Temperature,
    noise_sigma: float = 0.0,
    rng_seed: int = 0,
):
    """The observed cube of truth as its row function: row(i) is row i, an
    (N, K) float64 array, the observation model plus i.i.d. Gaussian noise.

    dw may be None for a scene with no sky sectors (Q = 0). The arguments
    are checked here, before any row is made. Row i's noise is drawn as one
    (N, K) block from a substream seeded by (seed, i): pixel (i, j) takes
    draws j*K to (j+1)*K - 1 of it. So reruns agree bit for bit, the
    top-left corner of a cube equals the cube synthesized from that corner
    of the truth, and any row can be made apart from the others: ``synth``
    hands the row function to :func:`lwirange.cube_io.save_scene`, so
    that workers make and write contiguous spans of rows at once.
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
    n = truth.shape[1]

    def row(i):
        # every kernel is elementwise or a row-stable einsum, so each row
        # carries the bits it would carry in a whole-image batch
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
        return y

    return row


def synthesize_cube(
    truth: SceneTruth,
    alpha: AttenuationSpectrum,
    dw: DownwellingSet,
    air_temperature: Temperature,
    noise_sigma: float = 0.0,
    rng_seed: int = 0,
) -> SceneCube:
    """The whole observed cube of truth, filled row by row from the row
    function :func:`synthesize_rows` returns for the same arguments; the
    rows and their noise are its."""
    row = synthesize_rows(truth, alpha, dw, air_temperature, noise_sigma,
                          rng_seed)
    y = np.empty(truth.shape + (len(alpha.grid),))
    for i in range(truth.shape[0]):
        y[i] = row(i)
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
