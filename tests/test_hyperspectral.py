"""Tests for the full-spectrum constrained solver and its building blocks."""

from dataclasses import replace
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from lwirange import (
    ConfigError,
    DimensionError,
    EstimateMaps,
    GridError,
    SolverConfig,
    Temperature,
    data_loss,
    emissivity_smoothness,
    gradients,
    planck,
    project,
    solve,
    solve_no_sky,
    tv_distance,
)
from lwirange.atmosphere import _tau
from lwirange.closed_form import (
    FLAG_VALID,
    BandSelection,
    bispectral_air,
    fit_ozone_slope,
    quadspectral,
)
from lwirange import hyperspectral
from lwirange.hyperspectral import (
    _ARMIJO_BACKTRACKS,
    _ARMIJO_C,
    _ARMIJO_FACTOR,
    _armijo_pass,
    _band_dot,
    _build_problem,
    _dist_block,
    _eps_quick,
    _linear_loss,
    _loss,
    _misfit,
    _flatten_maps,
    _gn_step,
    _gradients_flat,
    _mix_of,
    _phase,
    _Problem,
    _range_starts,
    _shifted_path,
    _sky_block,
    _sky_gram,
    _temp_block,
    _temp_candidates,
    _thomas,
    _tv_denoise_map,
)
from lwirange.forward_model import _contrast, _radiance
from lwirange.radiometry import _planck_core, _planck_dT_core
from helpers import AIR, micro_scene


def naive_data_loss(params, cube, alpha, dw, t_air_kelvin):
    """Scalar triple-loop mirror of the data term, different algebra order."""
    d = params["distance"]
    t = params["temperature"]
    eps = params["emissivity"]
    om = params["solid_angles"]
    wav = cube.grid.wavelengths
    ld = dw.values if dw is not None else np.zeros((0, wav.size))
    total = 0.0
    for i in range(d.shape[0]):
        for j in range(d.shape[1]):
            for k in range(wav.size):
                tau = 10.0 ** (-float(d[i, j]) * float(alpha.values[k]) / 10.0)
                b_air = float(planck(wav[k], Temperature(t_air_kelvin)))
                bt = float(planck(wav[k], Temperature(float(t[i, j]))))
                sky = sum(float(om[i, j, q]) * float(ld[q, k])
                          for q in range(om.shape[2]))
                wsum = float(om[i, j].sum())
                mix = (sky + (np.pi - wsum) * b_air) / np.pi
                pred = tau * float(eps[i, j, k]) * bt \
                    + tau * (1.0 - float(eps[i, j, k])) * mix \
                    + (1.0 - tau) * b_air
                r = pred - float(cube.radiance[i, j, k])
                total += r * r
    return total


def project_capped_simplex_oracle(w0, cap=np.pi):
    """KKT solve of min ||w - w0||^2 s.t. w >= 0, sum w <= cap, by bisection."""
    w0 = np.asarray(w0, dtype=float)
    base = np.maximum(w0, 0.0)
    if base.sum() <= cap:
        return base
    lo, hi = 0.0, float(w0.max())
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        if np.maximum(w0 - mu, 0.0).sum() > cap:
            lo = mu
        else:
            hi = mu
    return np.maximum(w0 - 0.5 * (lo + hi), 0.0)


def random_params(rng, m, n, k, q, t_air=AIR.kelvin):
    # interior points, away from the box bounds so FD stencils stay one-sided-free
    return {
        "distance": rng.uniform(5.0, 60.0, (m, n)),
        "temperature": rng.uniform(t_air - 8.0, t_air + 8.0, (m, n)),
        "emissivity": rng.uniform(0.3, 0.97, (m, n, k)),
        "solid_angles": rng.uniform(0.05, 1.2, (m, n, q)),
    }


def record_pool_sizes(monkeypatch):
    """The worker count of every process pool started from here on."""
    import concurrent.futures

    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return sizes


def as_maps(truth):
    m, n = truth.distance_map.shape
    return EstimateMaps(
        distance=truth.distance_map.copy(),
        temperature=truth.temperature_map.copy(),
        emissivity=truth.emissivity_cube.copy(),
        solid_angles=truth.solid_angle_maps.copy(),
        loss=np.zeros((m, n)),
        iterations=np.zeros((m, n), dtype=np.int64),
    )


class TestDataLoss:
    def test_matches_naive_loops(self):
        sc = micro_scene(rows=2, cols=3, bands=8, q=2, noise_sigma=0.0, seed=2)
        rng = np.random.default_rng(0)
        params = random_params(rng, 2, 3, 8, 2)
        got = data_loss(params, sc["cube"], sc["alpha"], sc["dw"], AIR)
        want = naive_data_loss(params, sc["cube"], sc["alpha"], sc["dw"], AIR.kelvin)
        npt.assert_allclose(got, want, rtol=1e-12)

    def test_zero_at_truth(self):
        sc = micro_scene(rows=3, cols=3, bands=12, q=2, noise_sigma=0.0, seed=6)
        tr = sc["truth"]
        params = {
            "distance": tr.distance_map,
            "temperature": tr.temperature_map,
            "emissivity": tr.emissivity_cube,
            "solid_angles": tr.solid_angle_maps,
        }
        assert data_loss(params, sc["cube"], sc["alpha"], sc["dw"], AIR) == 0.0

    @pytest.mark.parametrize("q, with_dw", [(0, True), (2, False), (3, True)])
    def test_sky_weights_must_match_the_downwelling_set(self, q, with_dw):
        # one sky sector per downwelling spectrum: a set given with
        # zero-sector params is refused, not ignored
        sc = micro_scene(rows=2, cols=2, bands=8, q=2, seed=0)
        dw = sc["dw"] if with_dw else None
        params = random_params(np.random.default_rng(1), 2, 2, 8, q)
        want = f"params carry {q} sky sectors, model has {2 if with_dw else 0}"
        with pytest.raises(DimensionError, match=want):
            data_loss(params, sc["cube"], sc["alpha"], dw, AIR)
        with pytest.raises(DimensionError, match=want):
            gradients(params, sc["cube"], sc["alpha"], dw, AIR, rho_eps=1.0)

    @pytest.mark.parametrize("fn", [data_loss, partial(gradients, rho_eps=1.0)],
                             ids=["data_loss", "gradients"])
    @pytest.mark.parametrize("rows, cols", [(1, 1), (2, 4)])
    def test_maps_must_match_the_cube_image_shape(self, fn, rows, cols):
        # 1x1 maps would broadcast against the 2x2 cube and 2x4 maps would
        # not; both are refused as maps of another image
        sc = micro_scene(rows=2, cols=2, bands=8, q=2, seed=0)
        params = random_params(np.random.default_rng(1), rows, cols, 8, 2)
        with pytest.raises(DimensionError):
            fn(params, sc["cube"], sc["alpha"], sc["dw"], AIR)

    def test_grid_mismatch_rejected(self):
        sc = micro_scene(rows=2, cols=2, bands=8, q=2, seed=0)
        other = micro_scene(rows=2, cols=2, bands=9, q=2, seed=0)
        params = random_params(np.random.default_rng(2), 2, 2, 8, 2)
        with pytest.raises(GridError):
            data_loss(params, sc["cube"], other["alpha"], sc["dw"], AIR)


class TestPenalties:
    def test_smoothness_naive(self):
        rng = np.random.default_rng(3)
        e = rng.uniform(0.0, 1.0, (3, 4, 6))
        want = 0.0
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    want += (e[i, j, k + 1] - e[i, j, k]) ** 2
        npt.assert_allclose(emissivity_smoothness(e), want, rtol=1e-13)

    def test_smoothness_flat_is_zero(self):
        assert emissivity_smoothness(np.full((2, 2, 7), 0.37)) == 0.0

    def test_tv_known_value(self):
        # both forward differences anchor at the top-left pixel:
        # down |4-0| = 4, right |3-0| = 3
        d = np.array([[0.0, 3.0], [4.0, 0.0]])
        assert tv_distance(d) == 7.0

    def test_tv_naive(self):
        rng = np.random.default_rng(4)
        d = rng.uniform(0.0, 50.0, (5, 6))
        want = 0.0
        for i in range(4):
            for j in range(5):
                want += abs(d[i + 1, j] - d[i, j])
                want += abs(d[i, j + 1] - d[i, j])
        npt.assert_allclose(tv_distance(d), want, rtol=1e-13)


def tv1d_reference(y, lam, iters=200):
    # one row at a time: the FISTA prox the batched _tv_denoise_map must match
    n = y.size
    if n < 2 or lam <= 0.0:
        return y.copy()
    u = np.zeros(n - 1)
    v = u.copy()
    tk = 1.0
    for _ in range(iters):
        x = y.copy()
        x[:-1] += v
        x[1:] -= v
        un = np.clip(v + 0.25 * (x[1:] - x[:-1]), -lam, lam)
        tn = (1.0 + np.sqrt(1.0 + 4.0 * tk * tk)) / 2.0
        v = un + ((tk - 1.0) / tn) * (un - u)
        u, tk = un, tn
    x = y.copy()
    x[:-1] += u
    x[1:] -= u
    return x


class TestTvProx:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (3, 5),
                                       (6, 4), (9, 9)])
    @pytest.mark.parametrize("lam", [0.3, 1.0, 25.0])
    def test_batched_prox_equals_the_per_row_loop(self, shape, lam):
        d = np.random.default_rng(sum(shape)).uniform(0.0, 80.0, shape)
        want = d.copy()
        for i in range(shape[0] - 1):
            want[i, :] = tv1d_reference(want[i, :], lam)
        for j in range(shape[1] - 1):
            want[:, j] = tv1d_reference(want[:, j], lam)
        npt.assert_array_equal(_tv_denoise_map(d, lam), want)


class TestGradients:
    def test_matches_central_differences(self):
        sc = micro_scene(rows=2, cols=2, bands=8, q=2, noise_sigma=0.0, seed=7)
        rng = np.random.default_rng(11)
        params = random_params(rng, 2, 2, 8, 2)
        rho = 37.0

        def f(p):
            return data_loss(p, sc["cube"], sc["alpha"], sc["dw"], AIR) \
                + rho * emissivity_smoothness(p["emissivity"])

        grads = gradients(params, sc["cube"], sc["alpha"], sc["dw"], AIR,
                          rho_eps=rho)
        assert set(grads) == {"distance", "temperature", "emissivity",
                              "solid_angles"}
        for key, g in grads.items():
            arr = params[key]
            assert g.shape == arr.shape
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                h = 1e-6 * max(1.0, abs(float(arr[ix])))
                pp = {kk: vv.copy() for kk, vv in params.items()}
                pp[key][ix] += h
                fp = f(pp)
                pp[key][ix] -= 2.0 * h
                fm = f(pp)
                fd = (fp - fm) / (2.0 * h)
                if abs(g[ix]) > 1e-8:
                    npt.assert_allclose(fd, g[ix], rtol=1e-4,
                                        err_msg=f"{key}{ix}")


class TestEmissivityRefit:
    # operands are band-major, (K, P), as the solver holds them
    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    def test_thomas_matches_dense_solve(self, k):
        rng = np.random.default_rng(20 + k)
        p = 6
        off = -rng.uniform(0.1, 4.0)
        dm = 2.0 * abs(off) + rng.uniform(0.1, 5.0, (p, k)).T
        b = rng.normal(0.0, 3.0, (p, k)).T.copy()
        x = _thomas(dm, off, b)
        for i in range(p):
            a = np.diag(dm[:, i]) + off * (np.eye(k, k=1) + np.eye(k, k=-1))
            npt.assert_allclose(x[:, i], np.linalg.solve(a, b[:, i]),
                                rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_thomas_right_sides_have_the_bits_of_separate_solves(self, k):
        rng = np.random.default_rng(30 + k)
        dm = rng.uniform(2.0, 5.0, (k, 7))
        b = rng.normal(0.0, 3.0, (k, 3, 7))
        x = _thomas(dm, -0.7, b)
        for j in range(3):
            one = _thomas(dm, -0.7, np.ascontiguousarray(b[:, j]))
            assert x[:, j].tobytes() == one.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_eps_quick_is_clipped_dense_least_squares(self, k):
        rng = np.random.default_rng(40 + k)
        p = 64
        wav = np.linspace(8.0, 13.0, k)[:, None]
        rho = 30.0
        pr = _Problem(wav=wav, alpha=np.zeros((k, 1)),
                      y=rng.uniform(200.0, 900.0, (p, k)).T.copy(),
                      sky=np.zeros((0, k)), b_air=rng.uniform(300.0, 600.0, (k, 1)),
                      rho_eps=rho, d_max=200.0, t_lo=280.0, t_hi=310.0)
        tau = rng.uniform(0.5, 1.0, (p, k)).T
        bt = rng.uniform(500.0, 1000.0, (p, k)).T
        mix = rng.uniform(100.0, 400.0, (p, k)).T
        got = _eps_quick(pr, tau, bt, mix)
        a = tau * (bt - mix)
        r = pr.y - (tau * (mix - pr.b_air) + pr.b_air)
        dtd = np.diff(np.eye(k), axis=0).T @ np.diff(np.eye(k), axis=0)
        free = np.array([np.linalg.solve(np.diag(a[:, i] ** 2) + rho * dtd, a[:, i] * r[:, i])
                         for i in range(p)]).T
        # the draw must exercise the clip on both sides and the interior
        assert (free < 0.0).any() and (free > 1.0).any()
        assert ((free > 0.0) & (free < 1.0)).any()
        npt.assert_allclose(got, np.clip(free, 0.0, 1.0), rtol=1e-10, atol=1e-12)


class TestBatchIndependence:
    # each block's result for a pixel must not depend on which other pixels
    # share its batch: the thread-count contract rests on this, and a BLAS
    # product (matmul) in place of an einsum would break it
    @pytest.mark.parametrize("cols", [[4], [0, 9], [1, 2, 6, 7, 11]])
    def test_blocks_match_on_a_column_subset(self, cols):
        sc = micro_scene(rows=3, cols=4, bands=12, q=3, noise_sigma=0.5, seed=21)
        pr, m, n = _build_problem(sc["cube"], sc["alpha"], sc["dw"], AIR,
                                  1e5, 200.0, 12.0)
        p, k = m * n, 12
        rng = np.random.default_rng(7)
        d = rng.uniform(5.0, 60.0, p)
        t = rng.uniform(290.0, 300.0, p)
        eps = rng.uniform(0.5, 1.0, (k, p))
        om = rng.uniform(0.0, 0.9, (p, 3))
        tau, bt, mix = _tau(d, pr.alpha), _planck_core(pr.wav, t), _mix_of(pr, om)
        loss = _loss(pr, d, t, eps, mix)

        def part(a):
            return np.ascontiguousarray(a[..., cols])

        def assert_terms_match(got, want):
            # every returned term; the (P, Q) sky weights have pixels first
            for g, w in zip(got, want, strict=True):
                npt.assert_array_equal(g, w[cols] if w.shape == om.shape else part(w))

        sub = replace(pr, y=part(pr.y))
        ds, ts, es, oms = d[cols], t[cols], part(eps), om[cols]
        taus, bts, mixs, ls = part(tau), part(bt), part(mix), loss[cols]
        npt.assert_array_equal(_eps_quick(sub, taus, bts, mixs),
                               _eps_quick(pr, tau, bt, mix)[:, cols])
        assert_terms_match(_sky_block(sub, taus, bts, es, oms, mixs, ls),
                           _sky_block(pr, tau, bt, eps, om, mix, loss))
        assert_terms_match(_temp_block(sub, taus, ts, es, bts, mixs, ls, span=2.0),
                           _temp_block(pr, tau, t, eps, bt, mix, loss, span=2.0))
        for span in (None, 3.0):
            assert_terms_match(_dist_block(sub, ds, taus, bts, es, mixs, ls, span),
                               _dist_block(pr, d, tau, bt, eps, mix, loss, span))
        assert_terms_match(_gn_step(sub, ds, taus, ts, es, bts, mixs, ls, 3.0, 1.0),
                           _gn_step(pr, d, tau, t, eps, bt, mix, loss, 3.0, 1.0))
        assert_terms_match(_armijo_pass(sub, ds, ts, es, oms),
                           _armijo_pass(pr, d, t, eps, om))

    @pytest.mark.parametrize("p", [1, 7, 512])
    def test_sky_gram_has_the_bits_of_every_product(self, p):
        # the Gram is built from its upper triangle and mirrored; the full
        # set of Q^2 products gives the same bits
        rng = np.random.default_rng(p)
        k, q = 64, 10
        w2 = rng.uniform(0.0, 1e-3, (k, p))
        ekq = rng.normal(0.0, 300.0, (k, q))
        full = _band_dot(w2, (ekq[:, :, None] * ekq[:, None, :]).reshape(k, q * q))
        assert _sky_gram(w2, ekq).tobytes() == full.reshape(p, q, q).tobytes()


class TestCarriedTerms:
    # the blocks and _phase carry tau, B(T), mix and the loss beside the
    # state; each carried term must have the bits of a recomputation
    def _problem(self, noise_sigma, seed):
        sc = micro_scene(rows=3, cols=3, bands=12, q=2, noise_sigma=noise_sigma,
                         seed=seed)
        pr, _, _ = _build_problem(sc["cube"], sc["alpha"], sc["dw"], AIR,
                                  1e5, 200.0, 12.0)
        return sc, pr

    def test_blocks_return_terms_of_their_state(self):
        _, pr = self._problem(0.5, 21)
        rng = np.random.default_rng(8)
        p, k = pr.y.shape[1], pr.y.shape[0]
        d = rng.uniform(5.0, 60.0, p)
        t = rng.uniform(290.0, 300.0, p)
        eps = rng.uniform(0.5, 1.0, (k, p))
        om = rng.uniform(0.0, 0.9, (p, 2))
        tau, bt, mix = _tau(d, pr.alpha), _planck_core(pr.wav, t), _mix_of(pr, om)
        loss = _loss(pr, d, t, eps, mix)
        om, mix, loss = _sky_block(pr, tau, bt, eps, om, mix, loss)
        npt.assert_array_equal(mix, _mix_of(pr, om))
        npt.assert_array_equal(loss, _loss(pr, d, t, eps, mix))
        t, eps, bt, loss = _temp_block(pr, tau, t, eps, bt, mix, loss, span=2.0)
        npt.assert_array_equal(bt, _planck_core(pr.wav, t))
        npt.assert_array_equal(loss, _loss(pr, d, t, eps, mix))
        for span in (None, 3.0):
            d, tau, loss = _dist_block(pr, d, tau, bt, eps, mix, loss, span)
            npt.assert_array_equal(tau, _tau(d, pr.alpha))
            npt.assert_array_equal(loss, _loss(pr, d, t, eps, mix))
        moved = d.copy()
        d, tau, t, eps, bt, loss = _gn_step(pr, d, tau, t, eps, bt, mix, loss, 3.0, 1.0)
        assert not np.array_equal(d, moved)
        npt.assert_array_equal(tau, _tau(d, pr.alpha))
        npt.assert_array_equal(bt, _planck_core(pr.wav, t))
        npt.assert_array_equal(loss, _loss(pr, d, t, eps, mix))

    def test_warmup_phase_loss_is_loss_of_its_state(self):
        _, pr = self._problem(0.5, 4)
        p, k = pr.y.shape[1], pr.y.shape[0]
        d, t, eps, om, loss = _phase(
            pr, np.full(p, 20.0), np.full(p, 296.0), np.full((k, p), 0.95),
            np.zeros((p, 2)), 14, d_freeze=6)
        npt.assert_array_equal(loss, _loss(pr, d, t, eps, _mix_of(pr, om)))

    def test_refine_phase_loss_is_loss_of_its_state(self):
        # 30 sweeps with the range block on from the start run the global
        # range scans of sweeps 0, 10 and 20, the local scans between and
        # the joint (d, T) steps of sweeps 27 to 29
        _, pr = self._problem(1.0, 11)
        p, k = pr.y.shape[1], pr.y.shape[0]
        d, t, eps, om, loss = _phase(
            pr, np.full(p, 40.0), np.full(p, 296.0), np.full((k, p), 0.9),
            np.zeros((p, 2)), 30, d_freeze=0)
        npt.assert_array_equal(loss, _loss(pr, d, t, eps, _mix_of(pr, om)))

    def test_armijo_loss_is_loss_of_its_state(self):
        _, pr = self._problem(1.0, 11)
        p, k = pr.y.shape[1], pr.y.shape[0]
        state = _phase(pr, np.full(p, 40.0), np.full(p, 296.0),
                       np.full((k, p), 0.9), np.zeros((p, 2)), 6, d_freeze=0)[:4]
        d, t, eps, om, loss = _armijo_pass(pr, *state)
        npt.assert_array_equal(loss, _loss(pr, d, t, eps, _mix_of(pr, om)))

    @pytest.mark.parametrize("rho_d", [0.0, 1.0])
    def test_solve_loss_is_loss_of_its_maps(self, rho_d):
        # solve returns the loss carried through the polish, Armijo and TV
        # stages, not a recomputation
        sc, pr = self._problem(1.0, 13)
        est = solve(sc["cube"], sc["alpha"], sc["dw"], AIR, SolverConfig(rho_d=rho_d))
        d, t, eps, om = _flatten_maps(est, pr, 3, 3)
        npt.assert_array_equal(est.loss.reshape(-1),
                               _loss(pr, d, t, eps, _mix_of(pr, om)))


class TestCandidateScans:
    # the temperature and range scans rank their candidates by a cheaper
    # form of the objective and guard only the winner with the exact one
    def _state(self, seed):
        sc = micro_scene(rows=3, cols=4, bands=12, q=3, noise_sigma=0.5, seed=21)
        pr, _, _ = _build_problem(sc["cube"], sc["alpha"], sc["dw"], AIR,
                                  1e5, 200.0, 12.0)
        rng = np.random.default_rng(seed)
        p, k = pr.y.shape[1], pr.y.shape[0]
        d = rng.uniform(5.0, 60.0, p)
        t = rng.uniform(290.0, 300.0, p)
        eps = rng.uniform(0.5, 1.0, (k, p))
        om = rng.uniform(0.0, 0.9, (p, 3))
        mix = _mix_of(pr, om)
        return pr, d, t, eps, mix, _loss(pr, d, t, eps, mix)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ranking_loss_is_the_misfit(self, seed):
        pr, d, t, eps, mix, _ = self._state(seed)
        tau, bt = _tau(d, pr.alpha), _planck_core(pr.wav, t)
        a = tau * (bt - mix)
        rb = pr.y - _radiance(tau, mix - pr.b_air, pr.b_air)
        # at a random emissivity and at the refit one
        for e in (eps, _eps_quick(pr, tau, bt, mix)):
            npt.assert_allclose(_linear_loss(pr, a, rb, e),
                                _misfit(pr, tau, bt, e, mix), rtol=1e-9)

    def test_temperature_winner_is_the_exact_argmin(self):
        pr, d, t, eps, mix, _ = self._state(3)
        tau, bt = _tau(d, pr.alpha), _planck_core(pr.wav, t)
        exact = []
        for tc, bc in _temp_candidates(pr, t, 2.0):
            ec = _eps_quick(pr, tau, bc, mix)
            exact.append((tc, _misfit(pr, tau, bc, ec, mix)))
        win = np.argmin([lc for _, lc in exact], axis=0)
        cols = np.arange(t.size)
        got_t, _, got_bt, got_l = _temp_block(pr, tau, t, eps, bt, mix,
                                              np.full(t.size, np.inf), 2.0)
        npt.assert_array_equal(got_t, np.array([tc for tc, _ in exact])[win, cols])
        npt.assert_array_equal(got_l, np.array([lc for _, lc in exact])[win, cols])
        npt.assert_array_equal(got_bt, _planck_core(pr.wav, got_t))

    def test_factored_local_path(self):
        pr, d, *_ = self._state(4)
        d[:3] = (0.5, 3.0, 198.5)   # near the box, so some candidates clip
        tau = _tau(d, pr.alpha)
        n_clipped = 0
        for o in np.linspace(-4.0, 4.0, 17):
            dc, path = _shifted_path(pr, d, tau, o)
            npt.assert_array_equal(dc, np.clip(d + o, 0.0, pr.d_max))
            exact = _tau(dc, pr.alpha)
            clipped = (d + o < 0.0) | (d + o > pr.d_max)
            n_clipped += clipped.sum()
            npt.assert_array_equal(path[:, clipped], exact[:, clipped])
            # the product rounds the exponents of tau(d) and tau(o) apart, so
            # its relative error grows with the exponent: 1e-14 down to
            # tau = 1e-10, and 1e-14 per ten decades on near-opaque bands
            rel = np.abs(path / exact - 1.0)[:, ~clipped]
            decades = -np.log10(exact[:, ~clipped])
            assert (rel <= 1e-14 * np.maximum(1.0, decades / 10.0)).all()
        assert n_clipped > 0

    def test_blocks_keep_the_carried_state_where_no_candidate_improves(self):
        pr, d, t, eps, mix, loss = self._state(5)
        tau, bt = _tau(d, pr.alpha), _planck_core(pr.wav, t)
        # a carried loss of 0 at every other pixel, which no candidate reaches
        keep = np.arange(t.size) % 2 == 0
        floor = np.where(keep, 0.0, loss)

        def check(got, free, carried):
            for g, f, c in zip(got, free, carried, strict=True):
                assert g[..., keep].tobytes() == np.ascontiguousarray(c[..., keep]).tobytes()
                assert g[..., ~keep].tobytes() == np.ascontiguousarray(f[..., ~keep]).tobytes()
            # the guard is what kept those pixels: unguarded, they move
            assert not np.array_equal(free[-1][keep], loss[keep])

        check(_temp_block(pr, tau, t, eps, bt, mix, floor, 2.0),
              _temp_block(pr, tau, t, eps, bt, mix, loss, 2.0), (t, eps, bt, floor))
        for span in (None, 3.0):
            check(_dist_block(pr, d, tau, bt, eps, mix, floor, span),
                  _dist_block(pr, d, tau, bt, eps, mix, loss, span), (d, tau, floor))
        check(_gn_step(pr, d, tau, t, eps, bt, mix, floor, 3.0, 1.0),
              _gn_step(pr, d, tau, t, eps, bt, mix, loss, 3.0, 1.0),
              (d, tau, t, eps, bt, floor))


class TestGaussNewtonStep:
    # one Gauss-Newton step in (d, T) on the objective profiled over eps
    @staticmethod
    def _random_problem(k, seed, p=6, q=2):
        # noise-free data of flat-emissivity pixels, and a start near them
        rng = np.random.default_rng(seed)
        wav = np.linspace(8.0, 13.0, k)[:, None]
        alpha = rng.uniform(0.005, 0.1, (k, 1))
        b_air = _planck_core(wav, AIR.kelvin)
        sky = (b_air * rng.uniform(0.3, 0.9, (k, q))).T.copy()
        d = rng.uniform(10.0, 60.0, p)
        t = rng.uniform(290.0, 300.0, p)
        eps = np.tile(rng.uniform(0.5, 0.95, p), (k, 1))
        om = rng.uniform(0.0, 0.3, (p, q))
        pr = _Problem(wav=wav, alpha=alpha, y=np.zeros((k, p)), sky=sky,
                      b_air=b_air, rho_eps=1e3, d_max=200.0, t_lo=283.0,
                      t_hi=307.0)
        mix = _mix_of(pr, om)
        pr.y = _radiance(_tau(d, alpha), _contrast(_planck_core(wav, t), eps, mix,
                                                   b_air), b_air)
        return (pr, d + rng.uniform(-0.3, 0.3, p), t + rng.uniform(-0.1, 0.1, p),
                eps + rng.uniform(-0.01, 0.01, eps.shape), mix)

    @pytest.mark.parametrize("k", [3, 12, 64])
    def test_move_solves_the_dense_normal_equations(self, k):
        pr, d, t, eps, mix = self._random_problem(k, 30 + k)
        tau, bt = _tau(d, pr.alpha), _planck_core(pr.wav, t)
        p = d.size
        dn, _, tn, *_ = _gn_step(pr, d, tau, t, eps, bt, mix, np.full(p, np.inf),
                                 1e3, 1e3)
        dtd = np.diff(np.eye(k), axis=0).T @ np.diff(np.eye(k), axis=0)
        reg = np.zeros((k + 2, k + 2))
        reg[2:, 2:] = pr.rho_eps * dtd
        for i in range(p):
            core = _contrast(bt[:, i], eps[:, i], mix[:, i], pr.b_air[:, 0])
            r = tau[:, i] * core + pr.b_air[:, 0] - pr.y[:, i]
            jac = np.column_stack([
                -np.log(10.0) / 10.0 * pr.alpha[:, 0] * tau[:, i] * core,
                tau[:, i] * eps[:, i] * _planck_dT_core(pr.wav[:, 0], t[i]),
                np.diag(tau[:, i] * (bt[:, i] - mix[:, i]))])
            g = jac.T @ r
            g[2:] += pr.rho_eps * dtd @ eps[:, i]
            want = -np.linalg.solve(jac.T @ jac + reg, g)[:2]
            # the move stays inside the box, so nothing clipped it
            assert 0.0 < dn[i] < pr.d_max and pr.t_lo < tn[i] < pr.t_hi
            npt.assert_allclose([dn[i] - d[i], tn[i] - t[i]], want, rtol=1e-9)

    @pytest.mark.parametrize("q", [1, 10])
    def test_two_steps_return_to_the_truth(self, q):
        # noise-free data: from the truth with T moved by 0.3 K and eps
        # refit, the block scans stall in the d-T valley; two joint steps
        # reach the truth
        sc = micro_scene(rows=6, cols=6, bands=64, q=q)
        pr, m, n = _build_problem(sc["cube"], sc["alpha"], sc["dw"], AIR,
                                  1e5, 200.0, 12.0)
        d0, t0, _, om = _flatten_maps(as_maps(sc["truth"]), pr, m, n)
        mix = _mix_of(pr, om)
        d, t = d0, t0 + 0.3
        tau, bt = _tau(d, pr.alpha), _planck_core(pr.wav, t)
        eps = _eps_quick(pr, tau, bt, mix)
        loss = _misfit(pr, tau, bt, eps, mix)
        assert loss.sum() > 1.0
        for _ in range(2):
            d, tau, t, eps, bt, loss = _gn_step(pr, d, tau, t, eps, bt, mix, loss,
                                                3.0, 1.0)
        npt.assert_allclose(d, d0, rtol=0.0, atol=1e-3)
        npt.assert_allclose(t, t0, rtol=0.0, atol=1e-3)
        assert loss.sum() < 1e-6

    def test_zero_emissivity_pixel_does_not_move(self):
        # at eps = 0 the misfit does not depend on T, so the reduced matrix
        # is singular; the other pixels move
        pr, d, t, eps, mix = self._random_problem(12, 5)
        eps[:, 2] = 0.0
        tau, bt = _tau(d, pr.alpha), _planck_core(pr.wav, t)
        loss = np.full(d.size, np.inf)
        got = _gn_step(pr, d, tau, t, eps, bt, mix, loss, 1e3, 1e3)
        for g, w in zip(got, (d, tau, t, eps, bt, loss), strict=True):
            assert g[..., 2].tobytes() == np.ascontiguousarray(w[..., 2]).tobytes()
        others = np.arange(d.size) != 2
        assert (got[0][others] != d[others]).all()
        assert (got[2][others] != t[others]).all()


class TestArmijoPass:
    # one projected-gradient line search on range, then an emissivity refit.
    # The states come from a few refine sweeps, near enough to a minimum
    # that most pixels backtrack: after 12 sweeps, pixels take the first to
    # the eighth step, and one takes none
    @staticmethod
    def _state(sweeps):
        sc = micro_scene(rows=3, cols=4, bands=12, q=3, noise_sigma=0.5, seed=21)
        pr, _, _ = _build_problem(sc["cube"], sc["alpha"], sc["dw"], AIR,
                                  1e5, 200.0, 12.0)
        p, k = pr.y.shape[1], pr.y.shape[0]
        return (pr, *_phase(pr, np.full(p, 40.0), np.full(p, 296.0),
                            np.full((k, p), 0.9), np.zeros((p, 3)), sweeps,
                            d_freeze=0)[:4])

    @pytest.mark.parametrize("sweeps", [6, 12])
    def test_temperature_and_sky_weights_pass_through(self, sweeps):
        pr, d, t, eps, om = self._state(sweeps)
        _, tn, en, omn, _ = _armijo_pass(pr, d, t, eps, om)
        assert tn.tobytes() == t.tobytes()
        assert omn.tobytes() == om.tobytes()
        assert not np.array_equal(en, eps)

    @pytest.mark.parametrize("sweeps", [6, 12])
    def test_no_pixel_loss_rises(self, sweeps):
        pr, d, t, eps, om = self._state(sweeps)
        before = _loss(pr, d, t, eps, _mix_of(pr, om))
        loss = _armijo_pass(pr, d, t, eps, om)[4]
        assert (loss <= before).all()
        assert (loss < before).any()

    @pytest.mark.parametrize("sweeps", [6, 12])
    def test_moved_ranges_meet_the_armijo_condition(self, sweeps):
        # a per-pixel replay of the backtracking: each pixel takes the first
        # step, halving from 0.5 / |g_d|, whose range meets the Armijo
        # condition at the carried T, eps and sky weights, or stays put
        pr, d, t, eps, om = self._state(sweeps)
        mix = _mix_of(pr, om)
        l0 = _loss(pr, d, t, eps, mix)
        g_d = _gradients_flat(pr, d, t, eps, om)[0]
        dn = _armijo_pass(pr, d, t, eps, om)[0]
        taken = []
        for i in range(d.size):
            want = d[i]
            step = 0.5 / (abs(g_d[i]) + 1e-30)
            for j in range(_ARMIJO_BACKTRACKS):
                cand = np.clip(d - step * g_d, 0.0, pr.d_max)
                lc = _loss(pr, cand, t, eps, mix)[i]
                dx2 = (cand[i] - d[i]) ** 2
                if dx2 > 0.0 and lc <= l0[i] - _ARMIJO_C * dx2 / step:
                    want = cand[i]
                    taken.append(j)
                    break
                step *= _ARMIJO_FACTOR
            assert dn[i] == want, i
        # some pixels move, and some only after backtracking
        assert taken and max(taken) > 0


class TestZeroSectors:
    # with no sky sectors only the sky block branches: it returns what it
    # was given, and every other stage runs its one schedule on (P, 0) weights
    def test_sky_block_returns_its_inputs(self):
        sc = micro_scene(rows=2, cols=3, bands=12, q=0, noise_sigma=0.5, seed=2)
        pr, m, n = _build_problem(sc["cube"], sc["alpha"], None, AIR,
                                  1e5, 200.0, 12.0)
        rng = np.random.default_rng(3)
        p, k = m * n, 12
        d, t = rng.uniform(5.0, 60.0, p), rng.uniform(290.0, 300.0, p)
        eps, om = rng.uniform(0.5, 1.0, (k, p)), np.zeros((p, 0))
        tau, bt, mix = _tau(d, pr.alpha), _planck_core(pr.wav, t), _mix_of(pr, om)
        loss = _misfit(pr, tau, bt, eps, mix)
        got = _sky_block(pr, tau, bt, eps, om, mix, loss)
        for g, w in zip(got, (om, mix, loss), strict=True):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("rows, cols", [(1, 1), (2, 3)])
    def test_gradients_have_no_solid_angle_entries(self, rows, cols):
        sc = micro_scene(rows=rows, cols=cols, bands=8, q=0, noise_sigma=0.5, seed=9)
        params = random_params(np.random.default_rng(4), rows, cols, 8, 0)
        grads = gradients(params, sc["cube"], sc["alpha"], None, AIR, rho_eps=37.0)
        assert grads["solid_angles"].shape == (rows, cols, 0)
        for key in ("distance", "temperature", "emissivity"):
            assert grads[key].shape == params[key].shape
            assert np.isfinite(grads[key]).all()


class TestProject:
    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            q = int(rng.integers(1, 7))
            m, n = 1, 1
            params = {
                "distance": rng.uniform(-50.0, 300.0, (m, n)),
                "temperature": rng.uniform(250.0, 340.0, (m, n)),
                "emissivity": rng.uniform(-0.5, 1.5, (m, n, 4)),
                "solid_angles": rng.uniform(-2.0, 3.0, (m, n, q)),
            }
            out = project(params, d_max=200.0)
            want = project_capped_simplex_oracle(params["solid_angles"][0, 0])
            npt.assert_allclose(out.solid_angles[0, 0], want, atol=1e-9)
            npt.assert_allclose(out.distance,
                                np.clip(params["distance"], 0.0, 200.0))
            npt.assert_allclose(out.emissivity,
                                np.clip(params["emissivity"], 0.0, 1.0))
            npt.assert_array_equal(out.temperature, params["temperature"])

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        params = {
            "distance": rng.uniform(-10.0, 400.0, (3, 3)),
            "temperature": rng.uniform(250.0, 340.0, (3, 3)),
            "emissivity": rng.uniform(-1.0, 2.0, (3, 3, 5)),
            "solid_angles": rng.uniform(-1.0, 2.5, (3, 3, 4)),
        }
        once = project(params, d_max=120.0)
        twice = project(once, d_max=120.0)
        npt.assert_array_equal(once.distance, twice.distance)
        npt.assert_array_equal(once.temperature, twice.temperature)
        npt.assert_array_equal(once.emissivity, twice.emissivity)
        npt.assert_array_equal(once.solid_angles, twice.solid_angles)

    def test_feasible_input_untouched(self):
        sc = micro_scene(rows=3, cols=2, bands=8, q=3, seed=8)
        maps = as_maps(sc["truth"])
        out = project(maps, d_max=200.0)
        npt.assert_array_equal(out.distance, maps.distance)
        npt.assert_array_equal(out.emissivity, maps.emissivity)
        npt.assert_array_equal(out.solid_angles, maps.solid_angles)

    def test_rejects_bad_d_max(self):
        sc = micro_scene(rows=2, cols=2, bands=8, q=2, seed=9)
        with pytest.raises(Exception):
            project(as_maps(sc["truth"]), d_max=0.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), q=st.integers(1, 8),
           scale=st.floats(0.1, 10.0))
    def test_always_feasible(self, seed, q, scale):
        rng = np.random.default_rng(seed)
        params = {
            "distance": rng.uniform(-100.0, 500.0, (2, 2)) * scale,
            "temperature": rng.uniform(200.0, 400.0, (2, 2)),
            "emissivity": rng.uniform(-3.0, 3.0, (2, 2, 4)),
            "solid_angles": rng.uniform(-3.0, 3.0, (2, 2, q)) * scale,
        }
        out = project(params, d_max=200.0)
        assert out.distance.min() >= 0.0 and out.distance.max() <= 200.0
        assert out.emissivity.min() >= 0.0 and out.emissivity.max() <= 1.0
        assert out.solid_angles.min() >= 0.0
        assert out.solid_angles.sum(axis=2).max() <= np.pi + 1e-9


class TestConfig:
    def test_default_config_is_clean(self):
        assert SolverConfig().validate() == []

    def test_short_d_max_is_clean(self):
        # the warmup's flat range starts scale with d_max, so any positive
        # bound is valid
        assert SolverConfig(d_max=100.0).validate() == []

    def test_collects_every_violation(self):
        # rho_d > 0 with many threads is valid: no rule reads two fields
        cfg = SolverConfig(rho_eps=-1.0, d_max=0.0, armijo_iterations=-1,
                           polish_rounds=-1, warmup_iterations=0,
                           rho_d=1.0, threads=4)
        msgs = cfg.validate()
        for frag in ("rho_eps", "d_max", "armijo_iterations",
                     "polish_rounds", "warmup_iterations"):
            assert any(frag in v for v in msgs), frag
        assert len(msgs) == 5

    @pytest.mark.parametrize("key,value", [
        ("d_max", np.inf), ("d_max", np.nan), ("rho_eps", np.inf),
        ("rho_d", np.inf), ("rho_d", np.nan),
    ])
    def test_rejects_non_finite_weights_and_bound(self, key, value):
        msgs = SolverConfig(**{key: value}).validate()
        assert any(key in v and "finite" in v for v in msgs), msgs

    @pytest.mark.parametrize("key,value", [
        ("rho_d", "1"), ("rho_eps", None),
        ("d_max", "200"), ("threads", 2.5), ("warmup_iterations", 2.5),
        ("refine_iterations", "40"), ("polish_rounds", 1.0),
    ])
    def test_reports_malformed_values(self, key, value):
        msgs = SolverConfig(**{key: value}).validate()
        assert any(v.startswith(f"{key} must") for v in msgs), msgs

    def test_solve_rejects_non_integer_count(self):
        sc = micro_scene(rows=2, cols=2, bands=8, q=2, seed=10)
        with pytest.raises(ConfigError, match="warmup_iterations"):
            solve(sc["cube"], sc["alpha"], sc["dw"], AIR,
                  SolverConfig(warmup_iterations=2.5))

    def test_solve_raises_config_error(self):
        sc = micro_scene(rows=2, cols=2, bands=8, q=2, seed=10)
        with pytest.raises(ConfigError) as exc:
            solve(sc["cube"], sc["alpha"], sc["dw"], AIR,
                  SolverConfig(d_max=-5.0, refine_iterations=0))
        assert "d_max" in str(exc.value) and "refine_iterations" in str(exc.value)


class TestEstimateMaps:
    def test_rejects_negative_distance(self):
        sc = micro_scene(rows=2, cols=2, bands=8, q=2, seed=0)
        maps = as_maps(sc["truth"])
        bad = maps.distance.copy()
        bad[0, 0] = -1.0
        with pytest.raises(Exception):
            EstimateMaps(distance=bad, temperature=maps.temperature,
                         emissivity=maps.emissivity,
                         solid_angles=maps.solid_angles,
                         loss=maps.loss, iterations=maps.iterations)

    def test_rejects_overfull_sky(self):
        sc = micro_scene(rows=2, cols=2, bands=8, q=2, seed=0)
        maps = as_maps(sc["truth"])
        bad = maps.solid_angles.copy()
        bad[0, 0, :] = 2.0  # sums past pi
        with pytest.raises(Exception):
            EstimateMaps(distance=maps.distance, temperature=maps.temperature,
                         emissivity=maps.emissivity, solid_angles=bad,
                         loss=maps.loss, iterations=maps.iterations)

    def test_rejects_shape_mismatch(self):
        sc = micro_scene(rows=2, cols=2, bands=8, q=2, seed=0)
        maps = as_maps(sc["truth"])
        with pytest.raises(Exception):
            EstimateMaps(distance=maps.distance[:1], temperature=maps.temperature,
                         emissivity=maps.emissivity,
                         solid_angles=maps.solid_angles,
                         loss=maps.loss, iterations=maps.iterations)


class TestRangeStarts:
    D_MAX = 200.0

    @staticmethod
    def flag_one_pixel(sc):
        # a pixel whose first water band equals the air radiance there has a
        # zero bispectral-air and quadspectral denominator, so it is flagged
        cube = sc["cube"]
        bands = BandSelection.from_grid(cube.grid)
        rad = cube.radiance.copy()
        rad[1, 2, bands.index1] = planck(
            float(cube.grid.wavelengths[bands.index1]), AIR)
        return replace(cube, radiance=rad), bands

    def check_one_start(self, starts, rm):
        assert len(starts) == 1
        ok = rm.validity == FLAG_VALID
        assert not ok[1, 2] and ok.sum() == ok.size - 1
        want = np.where(ok, np.clip(rm.distances, 1.0, self.D_MAX), self.D_MAX / 2.0)
        npt.assert_array_equal(starts[0], want.reshape(-1))

    def test_quadspectral_start_with_the_sky_term(self):
        sc = micro_scene(rows=3, cols=4, bands=64, q=2, noise_sigma=0.5, seed=2)
        cube, bands = self.flag_one_pixel(sc)
        starts = _range_starts(cube, sc["alpha"], sc["dw"], AIR, self.D_MAX)
        rm = quadspectral(cube, bands, sc["alpha"], AIR,
                          fit_ozone_slope(sc["dw"], bands))
        self.check_one_start(starts, rm)

    def test_bispectral_air_start_without_the_sky_term(self):
        sc = micro_scene(rows=3, cols=4, bands=64, q=0, noise_sigma=0.5, seed=2)
        cube, bands = self.flag_one_pixel(sc)
        starts = _range_starts(cube, sc["alpha"], None, AIR, self.D_MAX)
        self.check_one_start(starts, bispectral_air(cube, bands, sc["alpha"], AIR))

    def test_bispectral_air_start_with_one_sky_sector(self):
        # one sky sector fits no ozone slope, so the start is the
        # quadspectral estimate at slope 0
        sc = micro_scene(rows=3, cols=4, bands=64, q=1, noise_sigma=0.5, seed=2)
        cube, bands = self.flag_one_pixel(sc)
        starts = _range_starts(cube, sc["alpha"], sc["dw"], AIR, self.D_MAX)
        self.check_one_start(starts, bispectral_air(cube, bands, sc["alpha"], AIR))

    @pytest.mark.parametrize("bands, q", [(16, 2)])
    def test_ladder_where_no_closed_form_resolves(self, bands, q):
        # 16 bands put both water bands on one grid sample
        sc = micro_scene(rows=2, cols=3, bands=bands, q=q, seed=0)
        starts = _range_starts(sc["cube"], sc["alpha"], sc["dw"], AIR, self.D_MAX)
        assert len(starts) == 5
        for start, want in zip(starts, (5.0, 20.0, 80.0, 100.0, 160.0)):
            npt.assert_array_equal(start, np.full(6, want))

    def test_solve_with_one_sky_sector(self):
        sc = micro_scene(rows=2, cols=2, bands=64, q=1, noise_sigma=0.5, seed=4)
        est = solve(sc["cube"], sc["alpha"], sc["dw"], AIR)
        assert est.solid_angles.shape == (2, 2, 1)
        assert np.all((est.distance >= 0.0) & (est.distance <= 200.0))


class TestSolve:
    def test_recovers_noiseless_scene(self):
        sc = micro_scene(rows=4, cols=4, bands=16, q=2, noise_sigma=0.0, seed=3)
        tr = sc["truth"]
        est = solve(sc["cube"], sc["alpha"], sc["dw"], AIR)
        rel = np.abs(est.distance - tr.distance_map) / tr.distance_map
        assert rel.max() < 0.08
        assert np.median(rel) < 0.01
        assert est.loss.max() < 1e-2
        npt.assert_array_equal(est.iterations, SolverConfig().refine_iterations)

    def test_recovers_noiseless_scene_from_the_quadspectral_start(self):
        # 64 bands resolve the closed forms, so each pixel warms up from its
        # quadspectral range; test_recovers_noiseless_scene covers the ladder
        sc = micro_scene(rows=4, cols=4, bands=64, q=2, noise_sigma=0.0, seed=3)
        tr = sc["truth"]
        est = solve(sc["cube"], sc["alpha"], sc["dw"], AIR)
        rel = np.abs(est.distance - tr.distance_map) / tr.distance_map
        assert rel.max() < 0.02

    @pytest.mark.parametrize("q", [0, 2])
    def test_truth_is_a_fixed_point(self, q):
        sc = micro_scene(rows=3, cols=3, bands=16, q=q, noise_sigma=0.0, seed=1)
        tr = sc["truth"]
        est = solve(sc["cube"], sc["alpha"], sc["dw"], AIR,
                    initial=as_maps(tr))
        npt.assert_array_equal(est.distance, tr.distance_map)
        npt.assert_array_equal(est.temperature, tr.temperature_map)
        npt.assert_array_equal(est.emissivity, tr.emissivity_cube)
        npt.assert_allclose(est.solid_angles, tr.solid_angle_maps, atol=1e-12)
        assert est.loss.max() == 0.0

    def test_no_sky_equals_zero_q_config(self):
        sc = micro_scene(rows=3, cols=3, bands=12, q=0, noise_sigma=0.0, seed=5)
        a = solve_no_sky(sc["cube"], sc["alpha"], AIR)
        b = solve(sc["cube"], sc["alpha"], None, AIR)
        npt.assert_array_equal(a.distance, b.distance)
        npt.assert_array_equal(a.temperature, b.temperature)
        npt.assert_array_equal(a.emissivity, b.emissivity)
        npt.assert_array_equal(a.loss, b.loss)
        npt.assert_array_equal(a.iterations, b.iterations)
        assert a.solid_angles.shape == (3, 3, 0)

    @pytest.mark.parametrize("rho_d", [0.0, 1.0])
    def test_thread_count_does_not_change_bits(self, rho_d, monkeypatch):
        # on two usable cores, threads=3 on a 4x3 image and threads=2 on a
        # 1x7 one each run two pixel blocks in two workers, then with
        # rho_d > 0 the TV rounds on the whole map in this process
        sizes = record_pool_sizes(monkeypatch)
        monkeypatch.setattr(hyperspectral, "_usable_cores", lambda: 2)
        for rows, cols, threads in ((4, 3, 3), (1, 7, 2)):
            sc = micro_scene(rows=rows, cols=cols, bands=12, q=2, noise_sigma=0.5,
                             seed=12)
            one = solve(sc["cube"], sc["alpha"], sc["dw"], AIR,
                        SolverConfig(rho_d=rho_d, threads=1))
            two = solve(sc["cube"], sc["alpha"], sc["dw"], AIR,
                        SolverConfig(rho_d=rho_d, threads=threads))
            assert sizes == [2]
            sizes.clear()
            for name in ("distance", "temperature", "emissivity", "solid_angles",
                         "loss", "iterations"):
                npt.assert_array_equal(getattr(one, name), getattr(two, name), name)

    @pytest.mark.parametrize("rows, threads", [(5, 3), (3, 8)])
    def test_uneven_and_oversized_splits_do_not_change_bits(self, rows, threads,
                                                            monkeypatch):
        # 10 pixels in blocks of 4, 3 and 3; 6 pixels in 6 blocks, not 8; the
        # core count is raised so that these splits run on any machine
        sc = micro_scene(rows=rows, cols=2, bands=12, q=2, noise_sigma=0.5, seed=14)
        one = solve(sc["cube"], sc["alpha"], sc["dw"], AIR, SolverConfig(threads=1))
        monkeypatch.setattr(hyperspectral, "_usable_cores", lambda: 8)
        many = solve(sc["cube"], sc["alpha"], sc["dw"], AIR,
                     SolverConfig(threads=threads))
        for name in ("distance", "temperature", "emissivity", "solid_angles",
                     "loss", "iterations"):
            npt.assert_array_equal(getattr(one, name), getattr(many, name))

    def test_pool_is_capped_at_the_usable_cores(self, monkeypatch):
        # threads=3 on one usable core: one pixel block, solved in this process
        # without a pool; on two usable cores, two blocks and two workers
        sc = micro_scene(rows=5, cols=2, bands=12, q=2, noise_sigma=0.5, seed=14)
        one = solve(sc["cube"], sc["alpha"], sc["dw"], AIR, SolverConfig(threads=1))
        sizes = record_pool_sizes(monkeypatch)
        for cores, pools in ((1, []), (2, [2])):
            monkeypatch.setattr(hyperspectral, "_usable_cores", lambda: cores)
            three = solve(sc["cube"], sc["alpha"], sc["dw"], AIR,
                          SolverConfig(threads=3))
            assert sizes == pools
            for name in ("distance", "temperature", "emissivity", "solid_angles",
                         "loss", "iterations"):
                npt.assert_array_equal(getattr(one, name), getattr(three, name))

    @pytest.mark.parametrize("rho_d", [0.0, 1.0])
    def test_history_is_feasible_and_monotone(self, rho_d, monkeypatch):
        sc = micro_scene(rows=3, cols=3, bands=12, q=2, noise_sigma=1.0, seed=13)
        est = solve(sc["cube"], sc["alpha"], sc["dw"], AIR, SolverConfig(rho_d=rho_d))
        self.check_history(est, rho_d)
        # two pixel blocks record the same stages and steps; their objectives
        # are summed, so only the last bits may differ
        monkeypatch.setattr(hyperspectral, "_usable_cores", lambda: 2)
        two = solve(sc["cube"], sc["alpha"], sc["dw"], AIR,
                    SolverConfig(rho_d=rho_d, threads=2))
        self.check_history(two, rho_d)
        assert [h[:2] for h in two.history] == [h[:2] for h in est.history]
        npt.assert_allclose([h[2] for h in two.history],
                            [h[2] for h in est.history], rtol=1e-12)

    @staticmethod
    def check_history(est, rho_d):
        hist = est.history
        assert hist and len(hist[0]) == 4
        labels = {h[0] for h in hist}
        assert labels <= {"refine", "polish", "armijo", "tv"}
        assert ("tv" in labels) == (rho_d > 0.0)
        assert all(h[3] for h in hist)
        # each stage non-increasing on its own; the accepted chain from the
        # last refine sweep to the last armijo pass is non-increasing across
        # stages too.
        # The tv entries carry the full objective, TV included, and start at
        # the state the TV stage receives.
        by_label = {}
        for lab, step, tot, ok in hist:
            by_label.setdefault(lab, []).append(tot)
        for lab, seq in by_label.items():
            for a, b in zip(seq, seq[1:]):
                assert b <= a + 1e-12, lab
        last_refine = max(i for i, h in enumerate(hist) if h[0] == "refine")
        chain = [tot for lab, _, tot, _ in hist[last_refine:]
                 if lab in ("refine", "polish", "armijo")]
        for a, b in zip(chain, chain[1:]):
            assert b <= a + 1e-12
        if rho_d > 0.0:
            # at least one TV round was accepted, and the last entry is the
            # full objective of the returned maps
            assert len(by_label["tv"]) > 1
            assert by_label["tv"][-1] == pytest.approx(
                est.loss.sum() + rho_d * tv_distance(est.distance), rel=1e-12)

    @pytest.mark.parametrize("q", [0, 2])
    def test_default_solve_records_history(self, q):
        # every sector count runs the same stages, the polish included
        sc = micro_scene(rows=2, cols=3, bands=12, q=q, noise_sigma=0.5, seed=6)
        cfg = SolverConfig()
        est = solve(sc["cube"], sc["alpha"], sc["dw"], AIR, cfg)
        labels = [h[0] for h in est.history]
        assert labels == (["refine"] * cfg.refine_iterations
                          + ["polish"] * cfg.polish_rounds
                          + ["armijo"] * cfg.armijo_iterations)
        assert est.history[-1][2] == pytest.approx(est.loss.sum(), rel=1e-12)

    def test_rejected_tv_round_keeps_the_per_pixel_solve(self, monkeypatch):
        # a prox that returns a checkerboard of 0 and d_max raises the full
        # objective, so the guard rejects the first round and stops
        sc = micro_scene(rows=3, cols=4, bands=12, q=2, noise_sigma=1.0, seed=13)
        base = solve(sc["cube"], sc["alpha"], sc["dw"], AIR, SolverConfig())
        calls = []

        def checkerboard(d2, lam):
            calls.append(lam)
            return (np.indices(d2.shape).sum(0) % 2) * 200.0

        monkeypatch.setattr(hyperspectral, "_tv_denoise_map", checkerboard)
        est = solve(sc["cube"], sc["alpha"], sc["dw"], AIR, SolverConfig(rho_d=1.0))
        assert calls == [1.0]
        for name in ("distance", "temperature", "emissivity", "solid_angles",
                     "loss", "iterations"):
            npt.assert_array_equal(getattr(est, name), getattr(base, name), name)
        assert [h[0] for h in est.history].count("tv") == 1
        assert est.history[:-1] == base.history

    def test_grid_mismatch_rejected(self):
        sc = micro_scene(rows=2, cols=2, bands=8, q=2, seed=0)
        other = micro_scene(rows=2, cols=2, bands=9, q=2, seed=0)
        with pytest.raises(GridError):
            solve(sc["cube"], other["alpha"], sc["dw"], AIR)

    def test_missing_downwelling_rejected(self):
        # without a downwelling set the model has no sky sectors, so initial
        # maps that carry two do not fit it
        sc = micro_scene(rows=2, cols=2, bands=8, q=2, seed=0)
        with pytest.raises(DimensionError, match="2 sky sectors, model has 0"):
            solve(sc["cube"], sc["alpha"], None, AIR,
                  initial=as_maps(sc["truth"]))

    def test_initial_shape_mismatch_rejected(self):
        sc = micro_scene(rows=2, cols=2, bands=8, q=2, seed=0)
        big = as_maps(micro_scene(rows=3, cols=3, bands=8, q=2, seed=0)["truth"])
        names = ("distance", "temperature", "emissivity", "solid_angles")
        for initial in (big, {k: getattr(big, k) for k in names}):
            with pytest.raises(DimensionError, match="cube image shape"):
                solve(sc["cube"], sc["alpha"], sc["dw"], AIR, initial=initial)

    def test_a_mapping_initial_equals_the_estimate_maps_one(self):
        sc = micro_scene(rows=2, cols=3, bands=12, q=2, noise_sigma=0.5, seed=4)
        start = as_maps(sc["truth"])
        start.distance *= 1.2
        names = ("distance", "temperature", "emissivity", "solid_angles")
        want = solve(sc["cube"], sc["alpha"], sc["dw"], AIR, initial=start)
        got = solve(sc["cube"], sc["alpha"], sc["dw"], AIR,
                    initial={k: getattr(start, k) for k in names})
        for name in names + ("loss", "iterations"):
            npt.assert_array_equal(getattr(got, name), getattr(want, name), name)
