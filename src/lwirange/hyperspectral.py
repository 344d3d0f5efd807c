"""Joint per-pixel range / temperature / emissivity / sky-view inversion.

Minimizes, per pixel, the squared radiance misfit of the path-attenuated
emission-plus-reflection model, evaluated by the simulator's kernels in
:mod:`lwirange.forward_model`, plus a band-smoothness penalty on emissivity
and an optional anisotropic TV penalty on the range map, summed over every
adjacent pixel pair.  The engine is a block-coordinate scheme: a warmup
from each pixel's closed-form range estimate (quadspectral at the sky set's
ozone slope, or at slope 0, which is bispectral-air, when the sky term is
off or fits no slope) and two flat emissivity starts, then refinement of
each pixel's lowest-loss start, a (d, T) polish, range-only steps (the
"armijo" stage) and, when the TV weight is positive, proximal TV rounds,
each taking the 2-D prox of the TV penalty.  On a grid where the water-band
pair does not resolve, the warmup starts from a ladder of flat ranges.
The TV rounds are the one stage that couples pixels: :func:`solve` runs
every other stage in pixel blocks and the TV rounds once on the whole map.
Every phase runs a fixed number of sweeps, and every sector count, zero
included, runs the same stages: with no sky sectors the sky block returns
the weights it was given.

The one local move is a Gauss-Newton step in (d, T) on the objective
profiled over the linear emissivity (variable projection, Golub & Pereyra,
SIAM J. Numer. Anal. 1973), with emissivity refit by one banded
least-squares solve, clipped to [0, 1].  Its reduced system in the free
coordinates goes through the sky block's Gauss-Jordan inverse, which masks
the pixels where it is not positive definite.  A span bounds each coordinate's
move, and a span of 0 freezes it.  A sweep refits the sky weights, steps
T alone and, once the warmup's range freeze is over, scans range.  With
everything but the path t fixed, a candidate's misfit is sum (t a - y_b)^2
over bands, y_b = y - B(T_air), which is sum t^2 a^2 - 2 t a y_b up to a
per-pixel constant.  So the scan ranks all its candidates by two band dots
of (K, P) pixel terms with (K, X) path columns: a is the contrast and t
tau(c) on the global scan's grid, and a is tau(d) times the contrast and t
tau(o) for the local scan's offsets, as tau(d + o) is tau(d) tau(o) up to
rounding; a local candidate that leaves [0, d_max] is ranked by the path
of the bound it is clipped to.  Only the winner is scored exactly.  Once
both spans have decayed to _MIN_SPAN, a sweep takes one joint (d, T) step
in place of the two.  Each polish round takes a wider joint step, then
refits the sky weights.

Every step is accept-guarded: a candidate is kept only if it does not raise
the objective its stage enforces, which is the data misfit plus emissivity
smoothness up to the range-only steps and that plus the TV term in the TV
rounds.  The search draws no random numbers, and all array reductions are
per pixel, which makes results byte-identical for any pixel partitioning
(worker count) and, when the TV weight is zero, for any edit to other
pixels' data.

The solver holds every per-pixel array pixel-last, the one layout of the
:mod:`lwirange.forward_model` kernels: observed radiance, emissivity, B(T),
path transmittance, reflected light, residuals and every emissivity
candidate are C-contiguous (K, P) arrays, K bands by P pixels, the sky
weights (Q, P), and range and temperature (P,).  So each Thomas step,
Planck and path evaluation and per-pixel sum over bands or sectors runs
along contiguous rows of P values.  Every product summed over bands is
(X, P), an einsum on C-ordered operands, which sums the bands in order
whatever the batch, and the sky block's ADMM runs on the (Q, P) weights
beside (Q, Q, P) matrices: its inverse is Gauss-Jordan elimination
elementwise along pixels and each sweep one einsum product, so the solver
makes no BLAS or LAPACK call, whose bits could depend on the batch.  The
public (M, N, K) and (M, N, Q) maps are converted only where they enter
(:func:`_pixel_last`) and leave (:func:`_band_maps`).

The solver state is one pixel-last record, ``_State``: the maps d, T, eps
and om, and beside them the model terms tau(d), B(T), mix(om), the
emissivity penalty and the per-pixel loss.  ``_state`` builds it from the
maps, taken C-ordered, the one place every term is evaluated from scratch.
Every block takes a record and returns one: it evaluates only the terms of
the fields it moves, the penalty only where eps is refit, and guards only
those fields, so a sweep evaluates each term once, not once per block.
Every kernel is elementwise or per pixel, so a carried term has the bits a
recomputation at the same state would have.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ._workers import _usable_cores, fork_map
from .atmosphere import _tau
from .closed_form import (
    FLAG_VALID,
    BandSelection,
    fit_ozone_slope,
    quadspectral,
)
from .errors import (
    ConfigError,
    DegenerateFitError,
    DimensionError,
    DomainError,
    GridError,
)
from .forward_model import (
    EstimateMaps,
    SolverConfig,
    _band_sum,
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

# step and scan spans (meters / kelvin, geometric decay per iteration)
_T_SPAN0 = 8.0
_D_SPAN0 = 4.0
_SPAN_DECAY = 0.8
_MIN_SPAN = 0.02
_GLOBAL_SCAN_POINTS = 41       # range candidates across [0, d_max]
_LOCAL_SCAN_POINTS = 17        # range candidates across the local span
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

# range polish: round r moves range by at most _POLISH_SPAN / (r + 1) meters,
# and each range-only step after the polish by at most _POLISH_SPAN
_POLISH_SPAN = 3.0

# proximal TV rounds when rho_d > 0
_TV_ROUNDS = 2


# ----------------------------------------------------------------------
# flat problem container and shared numeric kernels
# ----------------------------------------------------------------------

@dataclass
class _Problem:
    # per-band vectors are (K, 1) columns, which broadcast against the
    # pixel-last (K, P) state
    wav: np.ndarray      # (K, 1) um
    alpha: np.ndarray    # (K, 1) dB/m
    y: np.ndarray        # (K, P) observed, C-contiguous
    sky: np.ndarray      # (Qe, K) downwelling rows; empty when the sky term is off
    b_air: np.ndarray    # (K, 1) B(T_air), also the ambient ground fill
    rho_eps: float
    d_max: float
    t_lo: float
    t_hi: float


def _band_dot(a, b):
    # sum over bands of a (K, P) times b (K, X): (X, P), pixel-last, in band
    # order.  einsum, not matmul, for the reason forward_model._mix gives, on
    # operands read C-ordered, as _band_sum does: on a column-major one it
    # may sum the bands in another order, as it may for a single pixel,
    # which sums the rows of the (K, X) products instead
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a.shape[1] == 1:
        return _band_sum(a * b)[:, None]
    return np.einsum("kx,kp->xp", b, a, optimize=False)


def _penalty(pr, eps):
    return pr.rho_eps * _band_sum(np.diff(eps, axis=0) ** 2)


def _data(pr, tau, core):
    # per-pixel data misfit of the model tau * core + B_air
    r = _radiance(tau, core, pr.b_air) - pr.y
    return _band_sum(r * r)


def _mix_of(pr, om):
    return _mix(om, pr.sky, pr.b_air)


# one pixel block's solver state, pixels last: the maps, (P,) range d and
# temperature t, (K, P) emissivity eps and (Q, P) sky weights om, and the
# terms _state evaluates at them, (K, P) tau(d), B(T) bt and mix(om), the
# (P,) emissivity penalty pen and the (P,) loss, data misfit plus pen
_State = namedtuple("_State", "d t eps om tau bt mix pen loss")


def _state(pr, d, t, eps, om):
    # the record of the maps, C-ordered, its every term evaluated from scratch
    eps, om = np.ascontiguousarray(eps), np.ascontiguousarray(om)
    tau, bt, mix = _tau(d, pr.alpha), _planck_core(pr.wav, t), _mix_of(pr, om)
    pen = _penalty(pr, eps)
    loss = _data(pr, tau, _contrast(bt, eps, mix, pr.b_air)) + pen
    return _State(d, t, eps, om, tau, bt, mix, pen, loss)


def _accept(s, ok, **new):
    # s with the named fields replaced by new values where the (P,) mask ok
    # holds, which broadcasts along the pixel axis of every field
    return s._replace(**{f: np.where(ok, v, getattr(s, f)) for f, v in new.items()})


def _sky_contrast(pr):
    # (K, Q) downwelling less the ambient fill, C-ordered like the state
    return np.ascontiguousarray(pr.sky.T - pr.b_air)


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


def _eps_quick(pr, tau, bt, mix):
    # the model is linear in eps, a * eps + b with b the model at eps = 0, so
    # the refit solves the banded normal equations
    # (diag(a^2) + rho_eps D'D) eps = a (y - b) once and clips to [0, 1];
    # callers accept-guard the result
    a = tau * (bt - mix)
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


def _proj_cap(v):
    """Euclidean projection of the columns of a (Q, P) array onto
    {x >= 0, sum(x) <= pi}."""
    z = np.maximum(v, 0.0)
    over = _band_sum(z) > _PI
    if not over.any():
        return z
    # only the columns over the cap move, so only they are projected and checked
    zo = z[:, over]
    u = np.sort(zo, axis=0)[::-1]
    css = np.cumsum(u, axis=0) - _PI
    idx = np.arange(1, zo.shape[0] + 1)[:, None]
    cond = u * idx > css
    rmax = cond.shape[0] - 1 - cond[::-1].argmax(0)
    th = css[rmax, np.arange(zo.shape[1])] / (rmax + 1)
    zo = np.maximum(zo - th, 0.0)
    # roundoff can leave sums a few ulp above the cap; pull them inside
    for _ in range(4):
        s = _band_sum(zo)
        bad = s > _PI
        if not bad.any():
            break
        zo[:, bad] *= (_PI * (1.0 - 1e-16)) / s[bad]
    z[:, over] = zo
    return z


def _sky_gram(w2, ekq):
    # per-pixel Gram matrices (Q, Q, P) of the sky columns, sum over bands of
    # w2 e_q e_r: the products with q <= r, mirrored, since e_q e_r and
    # e_r e_q have the same bits
    p, q = w2.shape[1], ekq.shape[1]
    iq, ir = np.triu_indices(q)
    g = _band_dot(w2, ekq[:, iq] * ekq[:, ir])
    gm = np.empty((q, q, p))
    gm[iq, ir] = g
    gm[ir, iq] = g
    return gm


def _spd_inverse(a):
    # inverse of every (n, n) matrix of an (n, n, P) stack, in place, by
    # Gauss-Jordan elimination without pivoting, and the (P,) mask ok of the
    # positive definite ones, whose every pivot is > 0.  Any other goes on
    # as the identity, so its steps stay finite; callers drop it by ok.
    # Every step is elementwise along pixels, so a pixel's bits do not
    # depend on its batch.  The sky block's 2G + rho I, rho = tr G / Q, is
    # positive definite with condition number at most 2Q + 1
    n = a.shape[0]
    tmp = np.empty_like(a)
    ok = np.ones(a.shape[2], dtype=bool)
    for k in range(n):
        ok &= a[k, k] > 0.0
        if not ok.all():
            a[:, :, ~ok] = np.eye(n)[:, :, None]
        piv = 1.0 / a[k, k]
        a[k, k] = 1.0
        a[k] *= piv
        f = a[:, k].copy()
        f[k] = 0.0
        a[:, k] = 0.0
        a[k, k] = piv
        a -= np.multiply(f[:, None], a[k], out=tmp)
    return a, ok


def _matvec(m, v):
    # m v per pixel for an (n, n, P) stack and (n, P) columns, summing r in
    # order: einsum does for P >= 2 but may reorder a single pixel's sum,
    # which accumulates the products instead, as _band_dot does
    if v.shape[1] == 1:
        return np.add.accumulate(m * v, axis=1)[:, -1]
    return np.einsum("qrp,rp->qp", m, v, optimize=False)


def _sky_block(pr, s):
    # per-pixel box/cap-constrained quadratic in the (Q, P) sky weights via
    # ADMM; s itself when the model has no sky sectors
    q = s.om.shape[0]
    if q == 0:
        return s
    w = s.tau * (1.0 - s.eps) / _PI
    y0 = _radiance(s.tau, _contrast(s.bt, s.eps, pr.b_air, pr.b_air), pr.b_air)
    base = pr.y - y0
    ekq = _sky_contrast(pr)
    a = _sky_gram(w * w, ekq)
    diag = np.arange(q)
    rho = _band_sum(a[diag, diag]) / q + 1e-30
    a *= 2.0
    a[diag, diag] += rho
    # x = (2G + rho I)^-1 (2 rhs + rho (z - u)) = c + m (z - u)
    m, _ = _spd_inverse(a)
    c = _matvec(m, 2.0 * _band_dot(w * base, ekq))
    m *= rho
    z = s.om
    u = np.zeros_like(z)
    for _ in range(_SKY_ADMM_ITERATIONS):
        x = _matvec(m, z - u)
        x += c
        u += x
        z = _proj_cap(u)
        u -= z
    mz = _mix_of(pr, z)
    lz = _data(pr, s.tau, _contrast(s.bt, s.eps, mz, pr.b_air)) + s.pen
    return _accept(s, lz <= s.loss, om=z, mix=mz, loss=lz)


def _path_scores(a, yb, paths):
    # (X, P) ranking scores of X candidate path columns (K, X) for pixels
    # whose model is paths * a + B_air: the misfit sum (t a - yb)^2 over
    # bands less its candidate-free part yb^2, as two band dots
    return _band_dot(a * a, paths * paths) - 2.0 * _band_dot(a * yb, paths)


def _dist_block(pr, s, local_span):
    # scan d with everything else fixed: only the path term varies.  The
    # candidates are ranked by _path_scores, as the module docstring sets
    # out; the first of the lowest wins, and only it pays the exact path and
    # misfit, accepted where that does not exceed the carried loss
    core = _contrast(s.bt, s.eps, s.mix, pr.b_air)
    yb = pr.y - pr.b_air
    if local_span is None:
        cands = np.linspace(0.0, pr.d_max, _GLOBAL_SCAN_POINTS)
        scores = _path_scores(core, yb, _tau(cands, pr.alpha))
    else:
        offs = np.linspace(-local_span, local_span, _LOCAL_SCAN_POINTS)
        shifted = s.d + offs[:, None]
        cands = np.clip(shifted, 0.0, pr.d_max)
        scores = _path_scores(s.tau * core, yb, _tau(offs, pr.alpha))
        low, high = shifted < 0.0, shifted > pr.d_max
        if low.any() or high.any():
            bounds = _path_scores(core, yb, _tau(np.array([0.0, pr.d_max]), pr.alpha))
            scores = np.where(low, bounds[0], np.where(high, bounds[1], scores))
    win = np.argmin(scores, axis=0)
    best_d = cands[win] if cands.ndim == 1 else cands[win, np.arange(s.d.size)]
    tau_b = _tau(best_d, pr.alpha)
    loss_b = _data(pr, tau_b, core) + s.pen
    return _accept(s, loss_b <= s.loss, d=best_d, tau=tau_b, loss=loss_b)


def _feasible(d, eps, om, d_max):
    return bool(np.all(d >= 0.0) and np.all(d <= d_max)
                and np.all(eps >= 0.0) and np.all(eps <= 1.0)
                and np.all(om >= 0.0) and np.all(_band_sum(om) <= _PI))


def _jacobian(pr, s, d_free=True, t_free=True):
    # the residual r at s, the model minus y, and the model's columns there,
    # each (K, P): a = tau (B - mix), the diagonal of the eps block, and the
    # list of the free range and temperature columns, range first.  The one
    # place the solver forms them
    core = _contrast(s.bt, s.eps, s.mix, pr.b_air)
    cols = []
    if d_free:
        cols.append(-(_LOG10 / 10.0) * pr.alpha * s.tau * core)
    if t_free:
        cols.append(s.tau * s.eps * _planck_dT_core(pr.wav, s.t))
    return _radiance(s.tau, core, pr.b_air) - pr.y, s.tau * (s.bt - s.mix), cols


def _gn_moves(pr, s, d_free, t_free):
    # the (n, P) moves of the n free coordinates, range first, and a (P,)
    # mask of the pixels whose reduced matrix is positive definite; 0
    # elsewhere.  The (d, T, eps) normal equations reduce to their Schur
    # complement in the free coordinates: the eps block is _eps_quick's
    # tridiagonal matrix, so the right sides, the eps coupling of each free
    # column and the eps gradient, share one Thomas solve, and the reduced
    # system goes through _spd_inverse.  Its own function, so that its
    # (K, P) temporaries are freed before the caller's refit
    r, a, cols = _jacobian(pr, s, d_free, t_free)
    n = len(cols)
    # right side i < n is a times column i, right side n the eps gradient
    rhs = np.empty((a.shape[0], n + 1, a.shape[1]))
    for i, c in enumerate(cols + [r]):
        np.multiply(a, c, out=rhs[:, i])
    rhs[:, n] += pr.rho_eps * _dtd(s.eps)
    x = _thomas(_eps_diagonal(pr, a), -pr.rho_eps, rhs)
    # the reduced matrix's entries with i <= j, mirrored, as _sky_gram's
    iu, ju = np.triu_indices(n)
    sm = np.empty((n, n, a.shape[1]))
    sm[iu, ju] = sm[ju, iu] = [_band_sum(cols[i] * cols[j] - rhs[:, i] * x[:, j])
                               for i, j in zip(iu, ju)]
    g = np.array([_band_sum(c * r - rhs[:, i] * x[:, n]) for i, c in enumerate(cols)])
    m, ok = _spd_inverse(sm)
    return ok, np.where(ok, -_matvec(m, g), 0.0)


def _gn_step(pr, s, d_span, t_span):
    # one Gauss-Newton step in (d, T) on the objective profiled over eps.  A
    # span of 0 freezes its coordinate, whose carried tau or B(T) passes
    # through.  Each move is clipped to its span, eps is refit at the moved
    # (d, T), and the step is accepted where the misfit does not exceed the
    # carried loss.  A pixel whose reduced matrix is singular, such as one
    # with eps = 0, where the misfit does not depend on T, does not move
    ok, moves = _gn_moves(pr, s, d_span > 0.0, t_span > 0.0)
    new = {}
    if d_span:
        d = np.clip(s.d + np.clip(moves[0], -d_span, d_span), 0.0, pr.d_max)
        new.update(d=d, tau=_tau(d, pr.alpha))
    if t_span:
        t = np.clip(s.t + np.clip(moves[-1], -t_span, t_span), pr.t_lo, pr.t_hi)
        new.update(t=t, bt=_planck_core(pr.wav, t))
    tau, bt = new.get("tau", s.tau), new.get("bt", s.bt)
    eps = _eps_quick(pr, tau, bt, s.mix)
    pen = _penalty(pr, eps)
    loss = _data(pr, tau, _contrast(bt, eps, s.mix, pr.b_air)) + pen
    return _accept(s, ok & (loss <= s.loss), **new, eps=eps, pen=pen, loss=loss)


def _temp_block(pr, s, span):
    # the step in T alone, within span; range and tau pass through
    return _gn_step(pr, s, 0.0, span)


def _phase(pr, s, iters, *, d_freeze, record=None):
    # runs iters sweeps from s.  record, if given, is called after each
    # sweep as record(it, s).  A sweep takes a step in T alone within its
    # span, then, once d_freeze sweeps have run, scans range; a sweep whose
    # T and local range spans have both decayed to _MIN_SPAN takes one joint
    # (d, T) step in place of the two
    for it in range(iters):
        s = _sky_block(pr, s)
        scan_d = it >= d_freeze
        t_span = max(_T_SPAN0 * _SPAN_DECAY ** it, _MIN_SPAN)
        if it % 10 == 0 and it < _GLOBAL_SCAN_UNTIL:
            d_span = None
        else:
            d_span = max(_D_SPAN0 * _SPAN_DECAY ** (it - d_freeze), _MIN_SPAN)
        if scan_d and t_span == d_span == _MIN_SPAN:
            s = _gn_step(pr, s, _MIN_SPAN, _MIN_SPAN)
        else:
            s = _temp_block(pr, s, t_span)
            if scan_d:
                s = _dist_block(pr, s, d_span)
        if record is not None:
            record(it, s)
    return s


def _polish_distance(pr, s, span):
    # one joint (d, T) step, range within span and T within 1 K
    return _gn_step(pr, s, span, 1.0)


def _armijo_pass(pr, s):
    # the step in range alone, within _POLISH_SPAN; T and B(T) pass through
    return _gn_step(pr, s, _POLISH_SPAN, 0.0)


def _gradients_flat(pr, s):
    # the partials of the loss at s in d, T, eps and om, from _jacobian's
    # columns
    r, a, (c_d, c_t) = _jacobian(pr, s)
    g_e = 2.0 * r * a + 2.0 * pr.rho_eps * _dtd(s.eps)
    g_o = _band_dot(2.0 * r * s.tau * (1.0 - s.eps) / _PI, _sky_contrast(pr))
    return 2.0 * _band_sum(r * c_d), 2.0 * _band_sum(r * c_t), g_e, g_o


def _tv_denoise_map(d2, lam, iters=200):
    # prox of lam * tv_distance over every adjacent pair: FISTA (Beck &
    # Teboulle 2009) on the box-constrained dual (Chambolle 2004), with p on
    # the vertical pairs and q on the horizontal ones, step 1/8 as |D|^2 <= 8.
    # Every step is elementwise
    def primal(p, q):
        x = d2.copy()
        x[:-1] += p
        x[1:] -= p
        x[:, :-1] += q
        x[:, 1:] -= q
        return x

    m, n = d2.shape
    p, q = np.zeros((m - 1, n)), np.zeros((m, n - 1))
    vp, vq, tk = p, q, 1.0
    for _ in range(iters):
        x = primal(vp, vq)
        pn = np.clip(vp + 0.125 * (x[1:] - x[:-1]), -lam, lam)
        qn = np.clip(vq + 0.125 * (x[:, 1:] - x[:, :-1]), -lam, lam)
        tn = (1.0 + np.sqrt(1.0 + 4.0 * tk * tk)) / 2.0
        w = (tk - 1.0) / tn
        vp, vq = pn + w * (pn - p), qn + w * (qn - q)
        p, q, tk = pn, qn, tn
    return primal(p, q)


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
    t_lo = max(t_air - t_span, 1e-2)
    return _Problem(wav=col, alpha=np.asarray(alpha.values, float).reshape(k, 1),
                    y=_pixel_last(cube.radiance), sky=sky,
                    b_air=_planck_core(col, t_air), rho_eps=rho_eps,
                    d_max=d_max, t_lo=t_lo, t_hi=t_air + t_span), m, n


def _param_arrays(params):
    """Pull the four parameter maps out of an EstimateMaps, a mapping, or
    any object carrying the attributes. Values need not be feasible."""
    names = ("distance", "temperature", "emissivity", "solid_angles")
    if isinstance(params, dict):
        return _state_maps(*(params[k] for k in names))
    return _state_maps(*(getattr(params, k) for k in names))


def _pixel_last(a):
    # an (M, N, X) map as a C-contiguous pixel-last (X, P) array, P = M N
    m, n, x = a.shape
    return np.ascontiguousarray(a.reshape(m * n, x).T)


def _flatten_maps(params, pr, m, n):
    # the four maps as solver state: (P,) range and temperature, (K, P)
    # emissivity and (Q, P) sky weights; the one check that a caller's maps
    # fit the (M, N) image and the problem's bands and sky sectors
    d, t, e, o = _param_arrays(params)
    k, q = pr.wav.shape[0], pr.sky.shape[0]
    if d.shape != (m, n):
        raise DimensionError(
            f"params of shape {d.shape} do not fit the cube image shape {(m, n)}")
    if e.shape[2] != k:
        raise DimensionError(f"params carry {e.shape[2]} bands, cube has {k}")
    if o.shape[2] != q:
        raise DimensionError(f"params carry {o.shape[2]} sky sectors, model has {q}")
    return d.reshape(m * n), t.reshape(m * n), _pixel_last(e), _pixel_last(o)


def _band_maps(a, m, n):
    # a pixel-last (K, P) or (Q, P) array as a C-contiguous (M, N, K) or
    # (M, N, Q) map
    return np.ascontiguousarray(a.T).reshape(m, n, a.shape[0])


def data_loss(params, cube, alpha, dw, air_temperature):
    """Total squared radiance misfit of the model at params (no penalties)."""
    pr, m, n = _build_problem(cube, alpha, dw, air_temperature, 0.0, np.inf, 1.0)
    return float(_state(pr, *_flatten_maps(params, pr, m, n)).loss.sum())


def emissivity_smoothness(eps):
    """Sum over pixels of squared adjacent-band emissivity differences."""
    e = np.asarray(eps, dtype=float)
    return float((np.diff(e, axis=-1) ** 2).sum())


def tv_distance(d):
    """Anisotropic total variation of a range map: the sum of |d_i - d_j|
    over every vertically and every horizontally adjacent pixel pair."""
    dd = np.asarray(d, dtype=float)
    if dd.ndim != 2:
        raise DimensionError(f"range map must be 2-d, got shape {dd.shape}")
    return float(np.abs(np.diff(dd, axis=0)).sum() + np.abs(np.diff(dd, axis=1)).sum())


def gradients(params, cube, alpha, dw, air_temperature, rho_eps):
    """Analytic partials of data_loss + rho_eps*emissivity_smoothness.

    The TV term is excluded by design; it is handled by a proximal step,
    not by gradient descent.
    """
    pr, m, n = _build_problem(cube, alpha, dw, air_temperature, rho_eps,
                              np.inf, 1.0)
    g_d, g_t, g_e, g_o = _gradients_flat(pr, _state(pr, *_flatten_maps(params, pr, m, n)))
    return {
        "distance": g_d.reshape(m, n),
        "temperature": g_t.reshape(m, n),
        "emissivity": _band_maps(g_e, m, n),
        "solid_angles": _band_maps(g_o, m, n),
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

    def _carry(name, default):
        v = params.get(name) if isinstance(params, dict) else getattr(params, name, None)
        return default if v is None else np.asarray(v).copy()

    return EstimateMaps(
        distance=np.clip(d, 0.0, d_max),
        temperature=t.copy(),
        emissivity=np.clip(e, 0.0, 1.0),
        solid_angles=_band_maps(_proj_cap(_pixel_last(o)), m, n),
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
    # warm up every (emissivity, range) start; the state of each pixel's
    # best, the first start on a tie
    k, p = pr.y.shape
    sn = len(_EPS_STARTS) * len(d_starts)
    ds = np.concatenate(d_starts * len(_EPS_STARTS))
    es = np.tile(np.repeat(_EPS_STARTS, len(d_starts) * p), (k, 1))
    os_ = np.zeros((pr.sky.shape[0], sn * p))
    prs = replace(pr, y=np.tile(pr.y, (1, sn)))
    s = _phase(prs, _state(prs, ds, np.tile(t0, sn), es, os_),
               min(cfg.warmup_iterations, cfg.max_iterations),
               d_freeze=cfg.warmup_d_freeze)
    best = np.argmin(s.loss.reshape(sn, p), axis=0) * p + np.arange(p)
    return _state(pr, s.d[best], s.t[best], s.eps[:, best], s.om[:, best])


def _solve_flat(pr, cfg, d_starts, t0, init):
    # the per-pixel stages of one pixel block, from the warmup or from the
    # maps init: refine, polish and range-only steps; returns the final maps
    # and loss, all that solve reads of the state, and the block's history
    hist = []

    def record(label, it, s):
        # the objective these stages guard: data misfit plus smoothness
        hist.append((label, it, float(s.loss.sum()),
                     _feasible(s.d, s.eps, s.om, pr.d_max)))

    s = _warm_start(pr, cfg, d_starts, t0) if init is None else _state(pr, *init)
    s = _phase(pr, s, min(cfg.refine_iterations, cfg.max_iterations),
               d_freeze=0, record=partial(record, "refine"))
    for rep in range(cfg.polish_rounds):
        s = _sky_block(pr, _polish_distance(pr, s, span=_POLISH_SPAN / (rep + 1)))
        record("polish", rep, s)
    for i in range(cfg.armijo_iterations):
        s = _armijo_pass(pr, s)
        record("armijo", i, s)
    return (s.d, s.t, s.eps, s.om, s.loss), hist


def _tv_rounds(pr, s, rho_d, shape, hist):
    # the one stage that couples pixels, run on the whole (M, N) map: each
    # round takes the TV prox of the range map where that does not raise the
    # full objective, data + smoothness + rho_d * TV, then refits the other
    # blocks.  Appends the "tv" history to hist, its first entry the state
    # received
    def full_objective(s):
        return float(s.loss.sum()) + rho_d * tv_distance(s.d.reshape(shape))

    tot = full_objective(s)
    hist.append(("tv", 0, tot, _feasible(s.d, s.eps, s.om, pr.d_max)))
    for rnd in range(_TV_ROUNDS):
        dn = np.clip(_tv_denoise_map(s.d.reshape(shape), rho_d),
                     0.0, pr.d_max).reshape(-1)
        sn = _state(pr, dn, s.t, s.eps, s.om)
        if full_objective(sn) > tot:
            break
        s = _phase(pr, sn, 2, d_freeze=2)
        tot = full_objective(s)
        hist.append(("tv", rnd + 1, tot, _feasible(s.d, s.eps, s.om, pr.d_max)))
    return s


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
    from the caller by :func:`lwirange._workers.fork_map`, which sends each
    block's maps back pickled and re-raises a worker's exception as itself;
    a single block runs in the calling process.  The blocks' histories are
    summed entry by entry.  When rho_d > 0 the TV rounds then run once on
    the whole map in the calling process.
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
    init = None if initial is None else _flatten_maps(initial, pr, m, n)
    d_starts = _range_starts(cube, alpha, dw, air_temperature, cfg.d_max)
    t0 = _default_temperature_init(pr)

    def block(px):
        # the per-pixel stages of one pixel block, cut from the whole
        # problem in the worker that solves it
        sel = slice(px[0], px[-1] + 1)
        ini = None if init is None else tuple(a[..., sel] for a in init)
        return _solve_flat(replace(pr, y=np.ascontiguousarray(pr.y[:, sel])), cfg,
                           [d[sel] for d in d_starts], t0[sel], ini)

    blocks = min(cfg.threads, m * n, _usable_cores())
    parts = fork_map(block, [(px,) for px in np.array_split(np.arange(m * n), blocks)])
    maps, hists = zip(*parts)
    # pixels are the last axis of every map
    d, t, eps, om, loss = (np.concatenate(a, axis=-1) for a in zip(*maps))
    # every block runs the same fixed schedule, so entry i is the same stage
    # and step in each: the objectives add, in block order, and the flags AND
    history = [row[0][:2] + (sum(e[2] for e in row), all(e[3] for e in row))
               for row in zip(*hists)]
    if cfg.rho_d > 0.0:
        s = _tv_rounds(pr, _state(pr, d, t, eps, om), cfg.rho_d, (m, n), history)
        d, t, eps, om, loss = s.d, s.t, s.eps, s.om, s.loss

    return EstimateMaps(
        distance=d.reshape(m, n),
        temperature=t.reshape(m, n),
        emissivity=_band_maps(eps, m, n),
        solid_angles=_band_maps(om, m, n),
        loss=loss.reshape(m, n),
        iterations=np.full((m, n), min(cfg.refine_iterations, cfg.max_iterations),
                           dtype=np.int64),
        history=history,
    )


def solve_no_sky(cube, alpha, air_temperature, config=None):
    """Downwelling-neglecting baseline: :func:`solve` with no downwelling
    set, which turns the sky term off (zero sky sectors)."""
    return solve(cube, alpha, None, air_temperature, config)
