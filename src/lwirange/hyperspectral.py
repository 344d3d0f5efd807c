"""Joint per-pixel range / temperature / emissivity / sky-view inversion.

Minimizes, per pixel, the squared radiance misfit of the path-attenuated
emission-plus-reflection model, evaluated by the simulator's kernels in
:mod:`lwirange.forward_model`, plus a band-smoothness penalty on emissivity
and an optional anisotropic TV penalty on the range map.  The engine is a
block-coordinate scheme: a warmup from each pixel's closed-form range
estimate (quadspectral at the sky set's ozone slope, or at slope 0, which
is bispectral-air, when the sky term is off or fits no slope) and two flat
emissivity starts, then refinement of each pixel's lowest-loss start, a
(d, T) polish, an Armijo pass (a projected-gradient line search on range,
then an emissivity refit) and, when the TV weight is positive, proximal TV
rounds.  On a grid where the water-band pair does not resolve, the warmup
starts from a ladder of flat ranges.  The TV rounds are the one stage that
couples pixels: :func:`solve` runs every other stage in pixel blocks and
the TV rounds once on the whole map.  Every phase runs a fixed number of
sweeps, and every sector count, zero included, runs the same stages: with
no sky sectors the sky block returns the weights it was given.

A sweep refits the sky weights, then scans temperature and, once the
warmup's range freeze is over, range.
Each temperature candidate refits emissivity by one banded least-squares
solve, clipped to [0, 1].  The temperature and range scans rank their
candidates by cheaper forms of the misfit, equal to it up to rounding: the
residual of the model, which is linear in emissivity, and the path
tau(d) tau(o) factored about the current range.  Only each scan's winner is
scored with the exact objective.  Once both scan spans have decayed to
their floor, _MIN_SPAN, where the scans are a local search at a fixed
resolution, a sweep takes one joint Gauss-Newton step in (d, T) in their
place.  The step works on the objective profiled over the linear
emissivity, which is variable projection (Golub & Pereyra, SIAM J. Numer.
Anal. 1973): the (d, T) system is the 2 x 2 Schur complement of the
(d, T, eps) normal equations, and the emissivity is refit at the moved
(d, T).  Each polish round takes one such step with wider move bounds, then
refits the sky weights.

Every step is accept-guarded: a candidate is kept only if it does not raise
the objective its stage enforces, which is the data misfit plus emissivity
smoothness up to the Armijo pass and that plus the TV term in the TV
rounds; the Armijo line search also asks for a sufficient decrease.  The
search draws no random numbers, and all array reductions are per pixel,
which makes results byte-identical for any pixel partitioning (worker
count) and, when the TV weight is zero, for any edit to other pixels' data.

The solver holds its per-band state band-major: observed radiance,
emissivity, B(T), path transmittance, reflected light, residuals and every
emissivity candidate are C-contiguous (K, P) arrays, K bands by P pixels,
so each Thomas step, Planck and path evaluation and per-pixel sum over bands
runs along contiguous rows of P values.  Range and temperature are (P,) and
the sky weights (P, Q).  Only :func:`solve`, :func:`gradients` and
:func:`data_loss` see the public (M, N, K) maps.

Each sweep carries the model terms beside the state: path transmittance
tau(d), B(T), the reflected mix(om) and the per-pixel loss.  A block takes
the terms it reads and returns the ones it changed with the loss at the
accepted state, so a sweep evaluates each term once, not once per block.
Every kernel is elementwise or per pixel, so a carried term has the bits a
recomputation at the same state would have.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .atmosphere import _tau
from .closed_form import (
    FLAG_VALID,
    BandSelection,
    fit_ozone_slope,
    quadspectral,
)
from .errors import (
    ConfigError,
    ConstraintError,
    DegenerateFitError,
    DimensionError,
    DomainError,
    GridError,
    _is_int,
    _is_real,
)
from .forward_model import (
    _check_feasible,
    _contrast,
    _mix,
    _radiance,
    _state_maps,
)
from .radiometry import (
    _planck_core,
    _planck_dT_core,
    as_kelvin,
    brightness_temperature,
)

_PI = np.pi
_LOG10 = np.log(10.0)

# scan schedules (spans in meters / kelvin, geometric decay per iteration)
_T_SPAN0 = 8.0
_D_SPAN0 = 4.0
_SPAN_DECAY = 0.8
_MIN_SPAN = 0.02
_GLOBAL_SCAN_POINTS = 41       # range candidates across [0, d_max]
_LOCAL_SCAN_POINTS = 17        # range candidates across the local span
_TEMPERATURE_SCAN_POINTS = 9
_SKY_ADMM_ITERATIONS = 50

# temperature box: air temperature +- _T_SPAN kelvin
_T_SPAN = 12.0

# warmup starts: flat ranges, as fractions of d_max, where no closed-form
# range resolves, and flat emissivities; each pixel's lowest-loss warmup
# state is refined
_D_LADDER = (0.025, 0.1, 0.4, 0.5, 0.8)
_EPS_STARTS = (0.95, 0.6)

# the range block scans the whole box on every 10th sweep before this one
_GLOBAL_SCAN_UNTIL = 25

# range polish: round r moves range by at most _POLISH_SPAN / (r + 1) meters
_POLISH_SPAN = 3.0

# projected-gradient Armijo line search
_ARMIJO_FACTOR = 0.5
_ARMIJO_C = 1e-4
_ARMIJO_BACKTRACKS = 12

# proximal TV rounds when rho_d > 0
_TV_ROUNDS = 2


@dataclass
class SolverConfig:
    """Knobs for :func:`solve`.

    rho_eps / rho_d are the emissivity-smoothness and range-TV weights,
    d_max the range box bound.  No setting picks the sky sectors: the
    model has one per spectrum of the downwelling set passed to
    :func:`solve`, and none when that is None.  threads caps the number of
    pixel blocks whose per-pixel stages each run in their own worker
    process; there are never more blocks than pixels or usable cores, and
    the TV rounds run once on the whole map in the calling process.
    warmup_iterations, warmup_d_freeze (warmup sweeps before the range block
    first runs), refine_iterations and max_iterations (a cap on both) set
    the sweep counts; every warmup start (each range start times each emissivity
    start) runs the whole warmup budget, then each pixel's lowest-loss start
    runs the whole refinement budget.  polish_rounds counts the joint (d, T)
    Gauss-Newton steps after the refinement, each followed by a sky refit;
    armijo_iterations counts the Armijo passes after them, each one
    projected-gradient line search on range and an emissivity refit.

    The scan sizes, warmup starts, line-search constants and
    temperature box are module constants (``_T_SPAN0`` and the names after
    it at the top of this module).  The hemisphere the sky sectors leave is
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


@dataclass
class EstimateMaps:
    """Solver output: per-pixel state plus final per-pixel objective.

    distance (M,N) m, >= 0; temperature (M,N) K; emissivity (M,N,K) in
    [0,1]; solid_angles (M,N,Q) sr with non-negative entries summing to at
    most pi * (1 + 2^-23) per pixel, which allows for float32 storage; loss
    (M,N) is the per-pixel data misfit plus the weighted
    emissivity-smoothness penalty; iterations (M,N) counts the refinement
    sweeps the pixel ran, the refinement budget at every pixel of a
    :func:`solve`.  history, which :func:`solve` always fills, holds
    ``(stage, step, objective, feasible)`` per "refine" sweep and per
    "polish", "armijo" and "tv" round, for any number of sky sectors
    ("tv" only when rho_d > 0), with the objective that stage
    guards: data misfit plus smoothness, summed over the image, plus
    rho_d * TV on "tv" entries, the first of which is the state the TV
    stage received.  The four state maps and the loss must be finite; a
    violation raises ConstraintError.
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


# ----------------------------------------------------------------------
# flat problem container and shared numeric kernels
# ----------------------------------------------------------------------

@dataclass
class _Problem:
    # per-band vectors are (K, 1) columns, which broadcast against the
    # band-major (K, P) state
    wav: np.ndarray      # (K, 1) um
    alpha: np.ndarray    # (K, 1) dB/m
    y: np.ndarray        # (K, P) observed, C-contiguous
    sky: np.ndarray      # (Qe, K) downwelling rows; empty when the sky term is off
    b_air: np.ndarray    # (K, 1) B(T_air), also the ambient ground fill
    rho_eps: float
    d_max: float
    t_lo: float
    t_hi: float


def _band_sum(a):
    # per-pixel sum of a (K, P) array over bands, in band order for any P.
    # numpy adds the rows of a C-ordered array one by one, but reduces a
    # single column, or a column-major array, pairwise, which would tie a
    # pixel's bits to its batch size or its operands' memory order
    a = np.ascontiguousarray(a)
    return a.sum(0) if a.shape[1] > 1 else np.add.accumulate(a, 0)[-1]


def _band_dot(a, b):
    # sum over bands of a (K, P) times b (K, X): (P, X), in band order.
    # einsum, not matmul, for the reason forward_model._mix gives; for a
    # single pixel einsum may sum the bands in another order, so that case
    # sums the rows of the (K, X) products instead
    if a.shape[1] == 1:
        return _band_sum(a * b)[None, :]
    return np.einsum("kp,kx->px", a, b, optimize=False)


def _penalty(pr, eps):
    return pr.rho_eps * _band_sum(np.diff(eps, axis=0) ** 2)


def _misfit(pr, tau, bt, eps, mix):
    # per-pixel objective from a precomputed path, B(T) and mix
    r = _radiance(tau, _contrast(bt, eps, mix, pr.b_air), pr.b_air) - pr.y
    return _band_sum(r * r) + _penalty(pr, eps)


def _mix_of(pr, om):
    return _mix(om, pr.sky, pr.b_air, band_major=True)


def _sky_contrast(pr):
    # (K, Q) downwelling less the ambient fill, C-ordered like the state
    return np.ascontiguousarray(pr.sky.T - pr.b_air)


def _loss(pr, d, t, eps, mix):
    return _misfit(pr, _tau(d, pr.alpha), _planck_core(pr.wav, t), eps, mix)


def _thomas(dm, off, b):
    # batched tridiagonal solve down the band axis: diagonal dm (K, P), every
    # off-diagonal entry the scalar off, and right side b, (K, P) or
    # (K, R, P) for R right sides per pixel, which share the elimination
    # factors of dm.  Every step writes into a row, so the sweeps allocate
    # no temporaries; x holds the forward sweep's right side, then the
    # solution.
    n = b.shape[0]
    cp = np.empty_like(dm)
    x = np.empty_like(b)
    den = dm[0].copy()
    tmp = np.empty_like(den)
    tmp_x = np.empty_like(b[0])
    np.divide(b[0], den, out=x[0])
    for i in range(1, n):
        np.divide(off, den, out=cp[i - 1])
        np.subtract(dm[i], np.multiply(off, cp[i - 1], out=tmp), out=den)
        np.subtract(b[i], np.multiply(off, x[i - 1], out=tmp_x), out=x[i])
        x[i] /= den
    for i in range(n - 2, -1, -1):
        x[i] -= np.multiply(cp[i], x[i + 1], out=tmp_x)
    return x


def _eps_quick(pr, tau, bt, mix, rb=None, a=None):
    # the model is linear in eps, a * eps + b with b the model at eps = 0, so
    # the refit solves the banded normal equations
    # (diag(a^2) + rho_eps D'D) eps = a (y - b) once and clips to [0, 1];
    # callers accept-guard the result.  rb = y - b does not depend on T, so
    # a temperature scan passes it in once for all its candidates; the scan
    # also passes each candidate's a = tau (B(T) - mix), which it ranks by
    if a is None:
        a = tau * (bt - mix)
    if rb is None:
        rb = pr.y - _radiance(tau, mix - pr.b_air, pr.b_air)
    x = _thomas(_eps_diagonal(pr, a), -pr.rho_eps, a * rb)
    return np.clip(x, 0.0, 1.0, out=x)


def _eps_diagonal(pr, a):
    # diagonal of diag(a^2) + rho_eps D'D, whose off-diagonal entries are all
    # -rho_eps: the emissivity block of the normal equations
    rho = pr.rho_eps
    dm = a * a + rho * 2.0
    dm[0] -= rho
    dm[-1] -= rho
    return dm


def _dtd(eps):
    # D'D eps, D the (K - 1, K) difference operator along the band axis
    lap = np.zeros_like(eps)
    lap[:-1] += eps[:-1] - eps[1:]
    lap[1:] += eps[1:] - eps[:-1]
    return lap


def _proj_cap_simplex(v):
    """Euclidean projection of rows of v onto {x >= 0, sum(x) <= pi}."""
    z = np.maximum(v, 0.0)
    over = z.sum(1) > _PI
    if not over.any():
        return z
    # only the rows over the cap move, so only they are projected and checked
    zo = z[over]
    u = np.sort(zo, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - _PI
    idx = np.arange(1, zo.shape[1] + 1)
    cond = u * idx > css
    rmax = cond.shape[1] - 1 - cond[:, ::-1].argmax(1)
    th = css[np.arange(zo.shape[0]), rmax] / (rmax + 1)
    zo = np.maximum(zo - th[:, None], 0.0)
    # roundoff can leave sums a few ulp above the cap; pull them inside
    for _ in range(4):
        s = zo.sum(1)
        bad = s > _PI
        if not bad.any():
            break
        zo[bad] *= ((_PI * (1.0 - 1e-16)) / s[bad])[:, None]
    z[over] = zo
    return z


def _pick(imp, new, old):
    # per-pixel choice between two tuples of terms: the (P,) mask broadcasts
    # along the pixel axis of (P,) and band-major (K, P) arrays
    return tuple(np.where(imp, a, b) for a, b in zip(new, old))


def _sky_gram(w2, ekq):
    # per-pixel Gram matrices (P, Q, Q) of the sky columns, sum over bands of
    # w2 e_q e_r: the products with q <= r, mirrored, since e_q e_r and
    # e_r e_q have the same bits
    p, q = w2.shape[1], ekq.shape[1]
    iq, ir = np.triu_indices(q)
    g = _band_dot(w2, ekq[:, iq] * ekq[:, ir])
    gm = np.empty((p, q, q))
    gm[:, iq, ir] = g
    gm[:, ir, iq] = g
    return gm


def _sky_block(pr, tau, bt, eps, om, mix, loss):
    # per-pixel box/cap-constrained quadratic in the sky weights via ADMM;
    # returns the accepted (om, mix, loss), the carried ones untouched when
    # the model has no sky sectors
    q = om.shape[1]
    if q == 0:
        return om, mix, loss
    w = tau * (1.0 - eps) / _PI
    y0 = _radiance(tau, _contrast(bt, eps, pr.b_air, pr.b_air), pr.b_air)
    base = pr.y - y0
    ekq = _sky_contrast(pr)
    gm = _sky_gram(w * w, ekq)
    rhs = _band_dot(w * base, ekq)
    tr = np.einsum("pqq->p", gm)
    rho_a = tr / q + 1e-30
    a = 2.0 * gm + rho_a[:, None, None] * np.eye(q)[None, :, :]
    minv = np.linalg.inv(a)
    z = om.copy()
    u = np.zeros_like(om)
    rhs2, rho_c = 2.0 * rhs, rho_a[:, None]
    for _ in range(_SKY_ADMM_ITERATIONS):
        x = np.einsum("pqr,pr->pq", minv, rhs2 + rho_c * (z - u), optimize=False)
        z = _proj_cap_simplex(x + u)
        u = u + x - z
    mz = _mix_of(pr, z)
    lz = _misfit(pr, tau, bt, eps, mz)
    acc = lz <= loss
    return np.where(acc[:, None], z, om), np.where(acc, mz, mix), np.where(acc, lz, loss)


def _linear_loss(pr, a, rb, eps):
    # the misfit plus penalty of eps where the model is linear in eps,
    # a * eps + b with rb = y - b: _misfit up to rounding, for ranking
    r = a * eps - rb
    return _band_sum(r * r) + _penalty(pr, eps)


def _temp_candidates(pr, t, span):
    # the temperature scan's (T, B(T)) candidates around t, one at a time
    for o in np.linspace(-span, span, _TEMPERATURE_SCAN_POINTS):
        tc = np.clip(t + o, pr.t_lo, pr.t_hi)
        yield tc, _planck_core(pr.wav, tc)


def _temp_block(pr, tau, t, eps, bt, mix, loss, span):
    # scan T around the current value, re-fitting emissivity per candidate;
    # returns the accepted (T, eps, B(T), loss).  Candidates are ranked by
    # _linear_loss; only the winner pays the exact misfit, and it is
    # accepted where that does not exceed the carried loss
    rb = pr.y - _radiance(tau, mix - pr.b_air, pr.b_air)
    best = None
    for tc, btc in _temp_candidates(pr, t, span):
        a = tau * (btc - mix)
        ec = _eps_quick(pr, tau, btc, mix, rb, a)
        lc = _linear_loss(pr, a, rb, ec)
        if best is None:
            best = (tc, ec, btc, lc)
            continue
        imp = lc < best[3]
        for dst, src in zip(best, (tc, ec, btc, lc)):
            np.copyto(dst, src, where=imp)
    tb, eb, bb, _ = best
    lb = _misfit(pr, tau, bb, eb, mix)
    return _pick(lb <= loss, (tb, eb, bb, lb), (t, eps, bt, loss))


def _shifted_path(pr, d, tau, o):
    # the range candidate d + o, clipped to [0, d_max], and the path it is
    # ranked by: tau(d) tau(o), which is tau(d + o) up to rounding, or the
    # exact path of the clipped range where d + o leaves the box
    shifted = d + o
    dc = np.clip(shifted, 0.0, pr.d_max)
    path = tau * _tau(o, pr.alpha)
    clipped = dc != shifted
    if clipped.any():
        path[:, clipped] = _tau(dc[clipped], pr.alpha)
    return dc, path


def _dist_block(pr, d, tau, bt, eps, mix, loss, local_span):
    # scan d with everything else fixed: only the path term varies; returns
    # the accepted (d, tau, loss).  Only the winner pays the exact path and
    # misfit, and it is accepted where that does not exceed the carried loss
    core = _contrast(bt, eps, mix, pr.b_air)
    pen = _penalty(pr, eps)

    def score(path):
        r = _radiance(path, core, pr.b_air) - pr.y
        return _band_sum(r * r) + pen

    if local_span is None:
        # one range for every pixel, so each candidate's path is a (K, 1) column
        cands = ((dc, _tau(dc, pr.alpha))
                 for dc in np.linspace(0.0, pr.d_max, _GLOBAL_SCAN_POINTS))
    else:
        cands = (_shifted_path(pr, d, tau, o)
                 for o in np.linspace(-local_span, local_span, _LOCAL_SCAN_POINTS))
    dc, path = next(cands)
    best_d, best_l = np.broadcast_to(dc, d.shape), score(path)
    for dc, path in cands:
        lc = score(path)
        best_d, best_l = _pick(lc < best_l, (dc, lc), (best_d, best_l))
    tau_b = _tau(best_d, pr.alpha)
    loss_b = score(tau_b)
    return _pick(loss_b <= loss, (best_d, tau_b, loss_b), (d, tau, loss))


def _feasible(d, eps, om, d_max):
    return bool(np.all(d >= 0.0) and np.all(d <= d_max)
                and np.all(eps >= 0.0) and np.all(eps <= 1.0)
                and np.all(om >= 0.0) and np.all(om.sum(1) <= _PI))


def _gn_step(pr, d, tau, t, eps, bt, mix, loss, d_span, t_span):
    # one Gauss-Newton step in (d, T) on the objective profiled over the
    # linear eps (variable projection); returns the accepted
    # (d, tau, T, eps, B(T), loss).  The (d, T, eps) normal equations reduce
    # to their 2 x 2 Schur complement in (d, T): the eps block is
    # _eps_quick's tridiagonal matrix, so its three right sides, the eps
    # coupling of each of the two columns and the eps gradient, share one
    # Thomas solve and its factors.  Each move is clipped to its span, eps
    # is refit at the moved (d, T), and the step is accepted where the
    # misfit does not exceed the carried loss.  A pixel whose reduced matrix
    # is singular, such as one with eps = 0, where the misfit does not
    # depend on T, does not move
    core = _contrast(bt, eps, mix, pr.b_air)
    r = _radiance(tau, core, pr.b_air) - pr.y
    a = tau * (bt - mix)
    jd = -(_LOG10 / 10.0) * pr.alpha * tau * core
    jt = tau * eps * _planck_dT_core(pr.wav, t)
    ajd, ajt = a * jd, a * jt
    xd, xt, xe = _thomas(_eps_diagonal(pr, a), -pr.rho_eps,
                         np.stack((ajd, ajt, a * r + pr.rho_eps * _dtd(eps)), 1)
                         ).transpose(1, 0, 2)
    s_dd = _band_sum(jd * jd - ajd * xd)
    s_dt = _band_sum(jd * jt - ajd * xt)
    s_tt = _band_sum(jt * jt - ajt * xt)
    g_d = _band_sum(jd * r - ajd * xe)
    g_t = _band_sum(jt * r - ajt * xe)
    det = s_dd * s_tt - s_dt * s_dt
    ok = det > 0.0
    det = np.where(ok, det, 1.0)
    step_d = np.where(ok, (s_dt * g_t - s_tt * g_d) / det, 0.0)
    step_t = np.where(ok, (s_dt * g_d - s_dd * g_t) / det, 0.0)
    dn = np.clip(d + np.clip(step_d, -d_span, d_span), 0.0, pr.d_max)
    tn = np.clip(t + np.clip(step_t, -t_span, t_span), pr.t_lo, pr.t_hi)
    taun, btn = _tau(dn, pr.alpha), _planck_core(pr.wav, tn)
    en = _eps_quick(pr, taun, btn, mix)
    ln = _misfit(pr, taun, btn, en, mix)
    return _pick(ok & (ln <= loss), (dn, taun, tn, en, btn, ln),
                 (d, tau, t, eps, bt, loss))


def _phase(pr, d, t, eps, om, iters, *, d_freeze, record=None):
    # runs iters sweeps; returns the state and its per-pixel loss.  record,
    # if given, is called after each sweep as record(it, d, eps, om, loss).
    # A sweep whose temperature and local range spans have both decayed to
    # _MIN_SPAN takes one joint (d, T) step in place of the two scans
    tau, bt, mix = _tau(d, pr.alpha), _planck_core(pr.wav, t), _mix_of(pr, om)
    loss = _misfit(pr, tau, bt, eps, mix)
    for it in range(iters):
        om, mix, loss = _sky_block(pr, tau, bt, eps, om, mix, loss)
        scan_d = it >= d_freeze
        t_span = max(_T_SPAN0 * _SPAN_DECAY ** it, _MIN_SPAN)
        if it % 10 == 0 and it < _GLOBAL_SCAN_UNTIL:
            d_span = None
        else:
            d_span = max(_D_SPAN0 * _SPAN_DECAY ** (it - d_freeze), _MIN_SPAN)
        if scan_d and t_span == d_span == _MIN_SPAN:
            d, tau, t, eps, bt, loss = _gn_step(pr, d, tau, t, eps, bt, mix, loss,
                                                _MIN_SPAN, _MIN_SPAN)
        else:
            t, eps, bt, loss = _temp_block(pr, tau, t, eps, bt, mix, loss, t_span)
            if scan_d:
                d, tau, loss = _dist_block(pr, d, tau, bt, eps, mix, loss, d_span)
        if record is not None:
            record(it, d, eps, om, loss)
    return d, t, eps, om, loss


def _polish_distance(pr, d, tau, t, eps, bt, mix, loss, span):
    # one joint (d, T) step, range within span and T within 1 K; returns the
    # accepted (d, tau, T, eps, B(T), loss)
    return _gn_step(pr, d, tau, t, eps, bt, mix, loss, span, 1.0)


def _gradients_flat(pr, d, t, eps, om):
    tau, bt, mix = _tau(d, pr.alpha), _planck_core(pr.wav, t), _mix_of(pr, om)
    core = _contrast(bt, eps, mix, pr.b_air)
    r = _radiance(tau, core, pr.b_air) - pr.y
    dtau = -(_LOG10 / 10.0) * pr.alpha * tau
    g_d = _band_sum(2.0 * r * dtau * core)
    dbt = _planck_dT_core(pr.wav, t)
    g_t = _band_sum(2.0 * r * tau * eps * dbt)
    g_e = 2.0 * r * tau * (bt - mix) + 2.0 * pr.rho_eps * _dtd(eps)
    g_o = _band_dot(2.0 * r * tau * (1.0 - eps) / _PI, _sky_contrast(pr))
    return g_d, g_t, g_e, g_o


def _armijo_pass(pr, d, t, eps, om):
    # one projected-gradient line search on range: the step s starts at
    # 0.5 / |g_d| and shrinks by _ARMIJO_FACTOR until the clipped candidate
    # meets L(d+) <= L(d) - c/s |d+ - d|^2, so every move strictly lowers the
    # loss.  eps is then refit at the new range, kept where the misfit does
    # not rise; T and om pass through, since the (d, T) steps and the sky
    # block refit them.  Returns the state and its per-pixel loss
    bt, mix = _planck_core(pr.wav, t), _mix_of(pr, om)
    l0 = _misfit(pr, _tau(d, pr.alpha), bt, eps, mix)
    g_d = _gradients_flat(pr, d, t, eps, om)[0]
    step = 0.5 / (np.abs(g_d) + 1e-30)
    dn, ln = d, l0
    done = np.zeros(d.shape, dtype=bool)
    for _ in range(_ARMIJO_BACKTRACKS):
        dc = np.clip(d - step * g_d, 0.0, pr.d_max)
        lc = _misfit(pr, _tau(dc, pr.alpha), bt, eps, mix)
        dx2 = (dc - d) ** 2
        need = l0 - _ARMIJO_C * dx2 / np.maximum(step, 1e-300)
        acc = ~done & (lc <= need) & (dx2 > 0.0)
        dn, ln = _pick(acc, (dc, lc), (dn, ln))
        done |= acc
        if done.all():
            break
        step = step * _ARMIJO_FACTOR
    tau = _tau(dn, pr.alpha)
    en = _eps_quick(pr, tau, bt, mix)
    le = _misfit(pr, tau, bt, en, mix)
    eps, ln = _pick(le <= ln, (en, le), (eps, ln))
    return dn, t, eps, om, ln


def _tv1d_denoise(y, lam, iters=200):
    # prox of lam*TV along each row of the 2-d y, solved on the
    # box-constrained dual (FISTA).  Every step is elementwise, so each row
    # gets the bits it would get alone
    u = np.zeros((y.shape[0], y.shape[1] - 1))
    v = u.copy()
    tk = 1.0
    for _ in range(iters):
        x = y.copy()
        x[:, :-1] += v
        x[:, 1:] -= v
        un = np.clip(v + 0.25 * (x[:, 1:] - x[:, :-1]), -lam, lam)
        tn = (1.0 + np.sqrt(1.0 + 4.0 * tk * tk)) / 2.0
        v = un + ((tk - 1.0) / tn) * (un - u)
        u, tk = un, tn
    x = y.copy()
    x[:, :-1] += u
    x[:, 1:] -= u
    return x


def _tv_denoise_map(d2, lam):
    # anisotropic split matching tv_distance's truncated index ranges:
    # horizontal terms exist on rows 0..M-2, vertical terms on cols 0..N-2
    out = d2.copy()
    out[:-1] = _tv1d_denoise(out[:-1], lam)
    out[:, :-1] = _tv1d_denoise(out[:, :-1].T, lam).T
    return out


# ----------------------------------------------------------------------
# public loss / gradient / projection operations
# ----------------------------------------------------------------------

def _build_problem(cube, alpha, dw, air_temperature, rho_eps, d_max, t_span):
    # one sky sector per downwelling spectrum; none when dw is None
    if alpha.grid != cube.grid:
        raise GridError("attenuation grid does not match cube grid")
    wav = cube.grid.wavelengths
    k = wav.size
    if dw is None:
        sky = np.zeros((0, k))
    elif dw.grid != cube.grid:
        raise GridError("downwelling grid does not match cube grid")
    else:
        sky = np.asarray(dw.values, dtype=float)
    t_air = as_kelvin(air_temperature)
    col = wav.reshape(k, 1)
    m, n = cube.radiance.shape[:2]
    y = np.ascontiguousarray(cube.radiance.reshape(m * n, k).T, dtype=float)
    t_lo = max(t_air - t_span, 1e-2)
    return _Problem(wav=col, alpha=np.asarray(alpha.values, float).reshape(k, 1),
                    y=y, sky=sky, b_air=_planck_core(col, t_air), rho_eps=rho_eps,
                    d_max=d_max, t_lo=t_lo, t_hi=t_air + t_span), m, n


def _param_arrays(params):
    """Pull the four parameter maps out of an EstimateMaps, a mapping, or
    any object carrying the attributes. Values need not be feasible."""
    names = ("distance", "temperature", "emissivity", "solid_angles")
    if isinstance(params, dict):
        return _state_maps(*(params[k] for k in names))
    return _state_maps(*(getattr(params, k) for k in names))


def _flatten_maps(params, pr, m, n):
    # the four maps as solver state: (P,), (P,), band-major (K, P), (P, Q);
    # the one check that a caller's maps fit the (M, N) image and the
    # problem's bands and sky sectors
    d, t, e, o = _param_arrays(params)
    k, q = pr.wav.shape[0], pr.sky.shape[0]
    if d.shape != (m, n):
        raise DimensionError(
            f"params of shape {d.shape} do not fit the cube image shape {(m, n)}")
    if e.shape[2] != k:
        raise DimensionError(f"params carry {e.shape[2]} bands, cube has {k}")
    if o.shape[2] != q:
        raise DimensionError(f"params carry {o.shape[2]} sky sectors, model has {q}")
    return (d.reshape(m * n), t.reshape(m * n),
            np.ascontiguousarray(e.reshape(m * n, k).T), o.reshape(m * n, q))


def _band_maps(a, m, n):
    # a band-major (K, P) array as a C-contiguous (M, N, K) map
    return np.ascontiguousarray(a.T).reshape(m, n, a.shape[0])


def data_loss(params, cube, alpha, dw, air_temperature):
    """Total squared radiance misfit of the model at params (no penalties)."""
    pr, m, n = _build_problem(cube, alpha, dw, air_temperature, 0.0, np.inf, 1.0)
    d, t, eps, om = _flatten_maps(params, pr, m, n)
    core = _contrast(_planck_core(pr.wav, t), eps, _mix_of(pr, om), pr.b_air)
    r = _radiance(_tau(d, pr.alpha), core, pr.b_air) - pr.y
    return float((r * r).sum())


def emissivity_smoothness(eps):
    """Sum over pixels of squared adjacent-band emissivity differences."""
    e = np.asarray(eps, dtype=float)
    return float((np.diff(e, axis=-1) ** 2).sum())


def tv_distance(d):
    """Anisotropic total variation of a range map, truncated index ranges."""
    dd = np.asarray(d, dtype=float)
    if dd.ndim != 2:
        raise DimensionError(f"range map must be 2-d, got shape {dd.shape}")
    return float(np.abs(dd[1:, :-1] - dd[:-1, :-1]).sum()
                 + np.abs(dd[:-1, 1:] - dd[:-1, :-1]).sum())


def gradients(params, cube, alpha, dw, air_temperature, rho_eps):
    """Analytic partials of data_loss + rho_eps*emissivity_smoothness.

    The TV term is excluded by design; it is handled by a proximal step,
    not by gradient descent.
    """
    pr, m, n = _build_problem(cube, alpha, dw, air_temperature, rho_eps,
                              np.inf, 1.0)
    d, t, eps, om = _flatten_maps(params, pr, m, n)
    g_d, g_t, g_e, g_o = _gradients_flat(pr, d, t, eps, om)
    return {
        "distance": g_d.reshape(m, n),
        "temperature": g_t.reshape(m, n),
        "emissivity": _band_maps(g_e, m, n),
        "solid_angles": g_o.reshape(m, n, om.shape[1]),
    }


def project(params, d_max):
    """Euclidean projection onto the feasible set, one field at a time.

    Accepts possibly-infeasible values (EstimateMaps, mapping, or any object
    with the four maps): distance clips to [0, d_max], emissivity to [0, 1],
    and each pixel's solid angles land on the capped simplex
    {w >= 0, sum(w) <= pi}. Temperature passes through untouched.
    """
    if not (d_max > 0.0):
        raise DomainError(f"d_max must be > 0, got {d_max}")
    d, t, e, o = _param_arrays(params)
    m, n = d.shape
    q = o.shape[2]
    om = _proj_cap_simplex(o.reshape(m * n, q))

    def _carry(name, default):
        v = params.get(name) if isinstance(params, dict) else getattr(params, name, None)
        return default if v is None else np.asarray(v).copy()

    return EstimateMaps(
        distance=np.clip(d, 0.0, d_max),
        temperature=t.copy(),
        emissivity=np.clip(e, 0.0, 1.0),
        solid_angles=om.reshape(m, n, q),
        loss=_carry("loss", np.zeros((m, n))),
        iterations=_carry("iterations", np.zeros((m, n), dtype=np.int64)),
    )


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def _range_starts(cube, alpha, dw, air_temperature, d_max):
    """The warmup's (P,) range starts.

    One start where the default band selection's water pair resolves on the
    grid: the quadspectral estimate at the ozone slope dw fits, or at slope
    0, which is the bispectral-air estimate, when dw is None or fits no
    slope; clipped to [1, d_max] and d_max / 2 at flagged pixels.  Where the
    water pair does not resolve, the flat _D_LADDER starts.
    """
    try:
        bands = BandSelection.from_grid(cube.grid)
        try:
            slope = 0.0 if dw is None else fit_ozone_slope(dw, bands)
        except DegenerateFitError:
            slope = 0.0
        rm = quadspectral(cube, bands, alpha, air_temperature, slope)
    except (GridError, DomainError):
        m, n = cube.radiance.shape[:2]
        return [np.full(m * n, f * d_max) for f in _D_LADDER]
    d0 = np.where(rm.validity == FLAG_VALID,
                  np.clip(rm.distances, 1.0, d_max), d_max / 2.0)
    return [d0.reshape(-1)]


def _default_temperature_init(pr):
    # brightness temperature at the most transparent band, clipped to bounds
    bidx = int(np.argmin(pr.alpha))
    lb = pr.y[bidx]
    t0 = np.full(lb.size, 0.5 * (pr.t_lo + pr.t_hi))
    pos = lb > 0.0
    if pos.any():
        t0[pos] = brightness_temperature(float(pr.wav[bidx, 0]), lb[pos])
    return np.clip(t0, pr.t_lo, pr.t_hi)


def _warm_start(pr, cfg, d_starts, t0):
    # warm up every (emissivity, range) start; return each pixel's best,
    # the first start on a tie
    k, p = pr.y.shape
    sn = len(_EPS_STARTS) * len(d_starts)
    ds = np.concatenate(d_starts * len(_EPS_STARTS))
    es = np.tile(np.repeat(_EPS_STARTS, len(d_starts) * p), (k, 1))
    ts = np.tile(t0, sn)
    os_ = np.zeros((sn * p, pr.sky.shape[0]))
    prs = replace(pr, y=np.tile(pr.y, (1, sn)))
    ds, ts, es, os_, ls = _phase(prs, ds, ts, es, os_,
                                 min(cfg.warmup_iterations, cfg.max_iterations),
                                 d_freeze=cfg.warmup_d_freeze)
    best = np.argmin(ls.reshape(sn, p), axis=0) * p + np.arange(p)
    return ds[best], ts[best], es[:, best], os_[best]


def _solve_flat(pr, cfg, d_starts, t0, init_state):
    # the per-pixel stages of one pixel block: warmup, refine, polish and
    # Armijo; returns the state, its per-pixel loss and the block's history
    hist = []

    def record(label, it, d, eps, om, loss):
        # the objective these stages guard: data misfit plus smoothness
        hist.append((label, it, float(loss.sum()), _feasible(d, eps, om, pr.d_max)))

    if init_state is None:
        init_state = _warm_start(pr, cfg, d_starts, t0)
    d, t, eps, om, loss = _phase(pr, *init_state,
                                 min(cfg.refine_iterations, cfg.max_iterations),
                                 d_freeze=0, record=partial(record, "refine"))

    tau, bt, mix = _tau(d, pr.alpha), _planck_core(pr.wav, t), _mix_of(pr, om)
    for rep in range(cfg.polish_rounds):
        d, tau, t, eps, bt, loss = _polish_distance(
            pr, d, tau, t, eps, bt, mix, loss, span=_POLISH_SPAN / (rep + 1))
        om, mix, loss = _sky_block(pr, tau, bt, eps, om, mix, loss)
        record("polish", rep, d, eps, om, loss)

    for i in range(cfg.armijo_iterations):
        d, t, eps, om, loss = _armijo_pass(pr, d, t, eps, om)
        record("armijo", i, d, eps, om, loss)

    return d, t, eps, om, loss, hist


def _tv_rounds(pr, rho_d, d, t, eps, om, loss, shape):
    # the one stage that couples pixels, run on the whole (M, N) map: each
    # round takes the TV prox of the range map where that does not raise the
    # full objective, data + smoothness + rho_d * TV, then refits the other
    # blocks.  Returns the state, its per-pixel loss and the "tv" history,
    # whose first entry is the state received
    def full_objective(d, loss):
        return float(loss.sum()) + rho_d * tv_distance(d.reshape(shape))

    tot = full_objective(d, loss)
    hist = [("tv", 0, tot, _feasible(d, eps, om, pr.d_max))]
    for rnd in range(_TV_ROUNDS):
        dn = np.clip(_tv_denoise_map(d.reshape(shape), rho_d),
                     0.0, pr.d_max).reshape(-1)
        if full_objective(dn, _loss(pr, dn, t, eps, _mix_of(pr, om))) > tot:
            break
        d, t, eps, om, loss = _phase(pr, dn, t, eps, om, 2, d_freeze=2)
        tot = full_objective(d, loss)
        hist.append(("tv", rnd + 1, tot, _feasible(d, eps, om, pr.d_max)))
    return d, t, eps, om, loss, hist


def _usable_cores():
    """Cores this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def solve(cube, alpha, dw, air_temperature, config=None, initial=None):
    """Estimate per-pixel range, temperature, emissivity and sky weights.

    cube/alpha/dw must share one spectral grid. The model fits one sky
    weight per spectrum of the downwelling set dw; dw=None turns the sky
    term off. air_temperature feeds both the path term and the ambient
    ground fill. Each pixel warms up from its closed-form range estimate
    (see _range_starts) with every emissivity start; initial optionally
    replaces that warmup with a caller-supplied state, an EstimateMaps or
    a mapping of its four maps, whose sky weights must carry one sector per
    downwelling spectrum.
    The per-pixel stages run on min(threads, pixels, usable cores) blocks
    of consecutive row-major pixels, one worker process per block, forked
    from the caller; a single block runs in the calling process.  The
    blocks' histories are summed entry by entry.  When rho_d > 0 the TV
    rounds then run once on the whole map in the calling process.
    Deterministic (the search draws no random numbers), and the maps are
    independent of the number of blocks and of workers; the history's sums
    may differ in their last bits.
    """
    cfg = config if config is not None else SolverConfig()
    violations = cfg.validate()
    if violations:
        raise ConfigError(violations)
    pr, m, n = _build_problem(cube, alpha, dw, air_temperature,
                              cfg.rho_eps, cfg.d_max, _T_SPAN)
    init_state = None if initial is None else _flatten_maps(initial, pr, m, n)
    d_starts = _range_starts(cube, alpha, dw, air_temperature, cfg.d_max)
    t0 = _default_temperature_init(pr)

    def job(px):
        # _solve_flat's arguments for one pixel block, all picklable
        sel = slice(px[0], px[-1] + 1)
        ini = None
        if init_state is not None:
            d_i, t_i, e_i, o_i = init_state
            ini = (d_i[sel], t_i[sel], np.ascontiguousarray(e_i[:, sel]), o_i[sel])
        return (replace(pr, y=np.ascontiguousarray(pr.y[:, sel])), cfg,
                [d[sel] for d in d_starts], t0[sel], ini)

    blocks = min(cfg.threads, m * n, _usable_cores())
    jobs = [job(px) for px in np.array_split(np.arange(m * n), blocks)]
    if len(jobs) == 1:
        parts = [_solve_flat(*jobs[0])]
    else:
        import concurrent.futures
        import multiprocessing

        # fork, so that the workers inherit the loaded modules and do not
        # re-import a caller's __main__, which may lack a main guard
        with concurrent.futures.ProcessPoolExecutor(
                len(jobs), mp_context=multiprocessing.get_context("fork")) as ex:
            parts = list(ex.map(_solve_flat, *zip(*jobs)))
    d, t, eps, om, loss, hists = zip(*parts)
    d, t, om, loss = (np.concatenate(a) for a in (d, t, om, loss))
    eps = np.concatenate(eps, axis=1)
    # every block runs the same fixed schedule, so entry i is the same stage
    # and step in each: the objectives add, in block order, and the flags AND
    history = [row[0][:2] + (sum(e[2] for e in row), all(e[3] for e in row))
               for row in zip(*hists)]
    if cfg.rho_d > 0.0:
        d, t, eps, om, loss, tv_hist = _tv_rounds(pr, cfg.rho_d, d, t, eps, om,
                                                  loss, (m, n))
        history += tv_hist

    return EstimateMaps(
        distance=d.reshape(m, n),
        temperature=t.reshape(m, n),
        emissivity=_band_maps(eps, m, n),
        solid_angles=om.reshape(m, n, om.shape[1]),
        loss=loss.reshape(m, n),
        iterations=np.full((m, n), min(cfg.refine_iterations, cfg.max_iterations),
                           dtype=np.int64),
        history=history,
    )


def solve_no_sky(cube, alpha, air_temperature, config=None):
    """Downwelling-neglecting baseline: :func:`solve` with no downwelling
    set, which turns the sky term off (zero sky sectors)."""
    return solve(cube, alpha, None, air_temperature, config)
