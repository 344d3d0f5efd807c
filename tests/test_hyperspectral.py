"""Tests for the full-spectrum constrained solver and its building blocks."""

import os
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from lwirange import (
    ConfigError,
    DimensionError,
    DomainError,
    DownwellingSet,
    EstimateMaps,
    GridError,
    SceneCube,
    SolverConfig,
    Temperature,
    data_loss,
    emissivity_smoothness,
    estimate_air_temperature,
    gradients,
    planck,
    project,
    solve,
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
from lwirange._workers import fork_map
from lwirange.hyperspectral import (
    _MIN_SPAN,
    _armijo_pass,
    _band_dot,
    _build_problem,
    _dist_block,
    _eps_quick,
    _feasible,
    _flatten_maps,
    _gn_moves,
    _gn_step,
    _jacobian,
    _matvec,
    _mix_of,
    _phase,
    _proj_cap,
    _Problem,
    _range_starts,
    _sky_block,
    _sky_gram,
    _spd_inverse,
    _state,
    _State,
    _temp_block,
    _thomas,
    _tv_denoise_map,
)
from lwirange.forward_model import _band_sum, _contrast, _mix, _radiance
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
    """The worker count of every solve from here on that forks workers:
    fork_map runs a single job in the calling process."""
    sizes = []

    def recording(fn, jobs):
        if len(jobs) > 1:
            sizes.append(len(jobs))
        return fork_map(fn, jobs)

    monkeypatch.setattr(hyperspectral, "fork_map", recording)
    return sizes


def assert_state_of_its_maps(pr, s):
    """Every field of the state s, the carried terms included, has the bits
    _state gives at the maps of s."""
    want = _state(pr, s.d, s.t, s.eps, s.om)
    for name, got, w in zip(_State._fields, s, want, strict=True):
        assert got.shape == w.shape and got.tobytes() == w.tobytes(), name


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
        # every adjacent pair counts: down |4-0| + |0-3|, right |3-0| + |0-4|
        d = np.array([[0.0, 3.0], [4.0, 0.0]])
        assert tv_distance(d) == 14.0

    def test_tv_naive(self):
        rng = np.random.default_rng(4)
        d = rng.uniform(0.0, 50.0, (5, 6))
        want = 0.0
        for i in range(5):
            for j in range(6):
                if i + 1 < 5:
                    want += abs(d[i + 1, j] - d[i, j])
                if j + 1 < 6:
                    want += abs(d[i, j + 1] - d[i, j])
        npt.assert_allclose(tv_distance(d), want, rtol=1e-13)


def tv_prox_reference(d, lam, iters=200):
    # the FISTA on the 2-d dual one image row at a time, each value summed
    # in the batched order: the batched _tv_denoise_map must match it
    m, n = d.shape
    p, q = np.zeros((m - 1, n)), np.zeros((m, n - 1))
    vp, vq, tk = p, q, 1.0

    def primal(p, q):
        x = d.copy()
        for i in range(m):
            if i < m - 1:
                x[i] += p[i]
            if i > 0:
                x[i] -= p[i - 1]
            x[i, :-1] += q[i]
            x[i, 1:] -= q[i]
        return x

    for _ in range(iters):
        x = primal(vp, vq)
        pn, qn = np.empty_like(p), np.empty_like(q)
        for i in range(m):
            if i < m - 1:
                pn[i] = np.clip(vp[i] + 0.125 * (x[i + 1] - x[i]), -lam, lam)
            qn[i] = np.clip(vq[i] + 0.125 * (x[i, 1:] - x[i, :-1]), -lam, lam)
        tn = (1.0 + np.sqrt(1.0 + 4.0 * tk * tk)) / 2.0
        w = (tk - 1.0) / tn
        vp, vq = pn + w * (pn - p), qn + w * (qn - q)
        p, q, tk = pn, qn, tn
    return primal(p, q)


def prox_objective(x, d, lam):
    return 0.5 * float(((x - d) ** 2).sum()) + lam * tv_distance(x)


SHAPES = [(1, 1), (1, 7), (7, 1), (2, 2), (3, 5), (6, 4), (9, 9)]


class TestTvProx:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("lam", [0.3, 1.0, 25.0])
    def test_batched_prox_equals_the_per_row_loop(self, shape, lam):
        d = np.random.default_rng(sum(shape)).uniform(0.0, 80.0, shape)
        npt.assert_array_equal(_tv_denoise_map(d, lam), tv_prox_reference(d, lam))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("lam", [0.3, 1.0, 25.0])
    def test_prox_objective_converges(self, shape, lam):
        # the default 200 iterations against a 5000-iteration run
        d = np.random.default_rng(sum(shape)).uniform(0.0, 80.0, shape)
        got = prox_objective(_tv_denoise_map(d, lam), d, lam)
        best = prox_objective(_tv_denoise_map(d, lam, iters=5000), d, lam)
        assert got <= prox_objective(d, d, lam)
        assert abs(got - best) <= (1e-8 if lam <= 1.0 else 1e-3) * best

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1)])
    def test_one_row_or_column_is_smoothed(self, shape):
        d = np.array([10.0, 50.0, 10.0, 50.0, 10.0]).reshape(shape)
        x = _tv_denoise_map(d, 25.0)
        assert tv_distance(x) < tv_distance(d)
        npt.assert_allclose(x, np.full(shape, 26.0), atol=1e-9)

    def test_corner_outlier_is_pulled_in(self):
        # the bottom-right pixel has two neighbours, like every 2x2 corner
        d = np.array([[10.0, 10.0], [10.0, 50.0]])
        x = _tv_denoise_map(d, 5.0)
        assert x[1, 1] == pytest.approx(40.0, abs=1e-9)
        npt.assert_allclose(x[d == 10.0], 10.0 + 10.0 / 3.0, atol=1e-9)


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

    @pytest.mark.parametrize("rows, cols", [(1, 1), (2, 3)])
    def test_range_and_temperature_partials_read_the_solver_columns(self, rows, cols):
        # the partials are 2 sum r * column of the columns the Gauss-Newton
        # step solves with, bit for bit
        sc = micro_scene(rows=rows, cols=cols, bands=8, q=2, noise_sigma=0.5, seed=7)
        params = random_params(np.random.default_rng(12), rows, cols, 8, 2)
        grads = gradients(params, sc["cube"], sc["alpha"], sc["dw"], AIR, rho_eps=37.0)
        pr, m, n = _build_problem(sc["cube"], sc["alpha"], sc["dw"], AIR,
                                  37.0, np.inf)
        r, _, cols_ = _jacobian(pr, _state(pr, *_flatten_maps(params, pr, m, n)))
        for key, c in zip(("distance", "temperature"), cols_, strict=True):
            want = 2.0 * _band_sum(r * c)
            assert grads[key].tobytes() == want.reshape(m, n).tobytes(), key


class TestEmissivityRefit:
    # operands are pixel-last, (K, P), as the solver holds them
    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    def test_thomas_matches_dense_solve(self, k):
        rng = np.random.default_rng(20 + k)
        p = 6
        off = -rng.uniform(0.1, 4.0)
        dm = 2.0 * abs(off) + rng.uniform(0.1, 5.0, (p, k)).T
        b = rng.normal(0.0, 3.0, (p, k)).T.copy()
        x, ok = _thomas(dm, off, b)
        assert ok.all()
        for i in range(p):
            a = np.diag(dm[:, i]) + off * (np.eye(k, k=1) + np.eye(k, k=-1))
            npt.assert_allclose(x[:, i], np.linalg.solve(a, b[:, i]),
                                rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("off", [0.0, -1e-310, -1e-3, -1.0, -1e3, -1e7])
    @pytest.mark.parametrize("k", [1, 2, 9, 64])
    def test_thomas_matches_dense_solve_at_any_coupling(self, k, off):
        # every off rho_eps can give, from none (rho_eps = 0) and a
        # subnormal one to strong, on the emissivity block's diagonal and on
        # a diagonally dominant one, for (K, P) and (K, R, P) right sides;
        # the error bound scales with the condition number, which reaches
        # 3e7 on the emissivity block at off = -1e7
        rng = np.random.default_rng(50 + k)
        p = 6
        a = rng.uniform(0.0, 3.0, (k, p))
        dm_eps = a * a + 2.0 * abs(off)
        dm_eps[0] -= abs(off)
        dm_eps[-1] -= abs(off)
        for dm in (dm_eps, 2.0 * abs(off) + rng.uniform(0.1, 5.0, (k, p))):
            for b in (rng.normal(0.0, 3.0, (k, p)), rng.normal(0.0, 3.0, (k, 2, p))):
                x, ok = _thomas(dm, off, b)
                assert x.shape == b.shape and ok.all()
                for i in range(p):
                    m = np.diag(dm[:, i]) + off * (np.eye(k, k=1) + np.eye(k, k=-1))
                    want = np.linalg.solve(m, b[..., i])
                    tol = 1e-14 * np.linalg.cond(m) * np.abs(want).max()
                    npt.assert_allclose(x[..., i], want, rtol=0.0, atol=tol)

    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_thomas_right_sides_have_the_bits_of_separate_solves(self, k):
        rng = np.random.default_rng(30 + k)
        dm = rng.uniform(2.0, 5.0, (k, 7))
        b = rng.normal(0.0, 3.0, (k, 3, 7))
        x, _ = _thomas(dm, -0.7, b)
        for j in range(3):
            one, _ = _thomas(dm, -0.7, np.ascontiguousarray(b[:, j]))
            assert x[:, j].tobytes() == one.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_thomas_flags_a_zero_pivot_and_solves_the_rest(self, k):
        # a = 0 in every band leaves rho_eps D'D, singular with a zero last
        # pivot: that pixel is flagged and its x stays finite, and every
        # other pixel has the bits of its solve alone
        rng = np.random.default_rng(60 + k)
        rho = 2.0
        a = rng.uniform(0.5, 3.0, (k, 5))
        a[:, 1] = 0.0
        dm = a * a + 2.0 * rho
        dm[0] -= rho
        dm[-1] -= rho
        b = rng.normal(0.0, 3.0, (k, 2, 5))
        with np.errstate(all="raise"):
            x, ok = _thomas(dm, -rho, b)
        npt.assert_array_equal(ok, np.arange(5) != 1)
        assert np.isfinite(x).all()
        for i in (0, 2, 3, 4):
            one, one_ok = _thomas(dm[:, i:i + 1].copy(), -rho, b[..., i:i + 1].copy())
            assert one_ok.all() and one.tobytes() == x[..., i:i + 1].copy().tobytes()

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
        got, ok = _eps_quick(pr, tau, bt, mix)
        assert ok.all()
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
                                  1e5, 200.0)
        p, k = m * n, 12
        rng = np.random.default_rng(7)
        d = rng.uniform(5.0, 60.0, p)
        t = rng.uniform(290.0, 300.0, p)
        eps = rng.uniform(0.5, 1.0, (k, p))
        om = rng.uniform(0.0, 0.9, (3, p))
        s = _state(pr, d, t, eps, om)

        def part(a):
            return np.ascontiguousarray(a[..., cols])

        def assert_states_match(got, want):
            # every field of the returned state, each with pixels last
            for g, w in zip(got, want, strict=True):
                npt.assert_array_equal(g, part(w))

        sub, ss = replace(pr, y=part(pr.y)), _State(*map(part, s))
        part_eps, part_ok = _eps_quick(sub, ss.tau, ss.bt, ss.mix)
        eps, ok = _eps_quick(pr, s.tau, s.bt, s.mix)
        npt.assert_array_equal(part_eps, eps[:, cols])
        npt.assert_array_equal(part_ok, ok[cols])
        assert_states_match(_sky_block(sub, ss), _sky_block(pr, s))
        assert_states_match(_temp_block(sub, ss, span=2.0), _temp_block(pr, s, span=2.0))
        for span in (None, 3.0):
            assert_states_match(_dist_block(sub, ss, span), _dist_block(pr, s, span))
        assert_states_match(_gn_step(sub, ss, 3.0, 1.0), _gn_step(pr, s, 3.0, 1.0))
        assert_states_match(_armijo_pass(sub, ss), _armijo_pass(pr, s))

    @pytest.mark.parametrize("p", [1, 7, 512])
    def test_sky_gram_has_the_bits_of_every_product(self, p):
        # the Gram is built from its upper triangle and mirrored; the full
        # set of Q^2 products gives the same bits
        rng = np.random.default_rng(p)
        k, q = 64, 10
        w2 = rng.uniform(0.0, 1e-3, (k, p))
        ekq = rng.normal(0.0, 300.0, (k, q))
        full = _band_dot(w2, (ekq[:, :, None] * ekq[:, None, :]).reshape(k, q * q))
        want = full.reshape(q, q, p)
        assert _sky_gram(w2, ekq).tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [1, 2, 7, 512])
    def test_band_dot_sums_the_bands_in_order(self, p):
        # pixel-last (X, P) products with the bits of an in-order loop over
        # bands, at any batch size and for operands in either memory order,
        # such as a gather along the pixel axis or the sky block's pair
        # products of the (K, Q) sky columns, Q = 10, X = 55
        rng = np.random.default_rng(p)
        k, x = 64, 55
        iq, ir = np.triu_indices(10)
        ekq = rng.normal(0.0, 1.0, (k, 10))
        for order in ("C", "F"):
            a = np.asarray(rng.normal(0.0, 1.0, (k, p)), order=order)
            b = np.asarray(rng.normal(0.0, 1.0, (k, x)), order=order)
            for cols in (b, ekq[:, iq] * ekq[:, ir]):
                want = np.zeros((x, p))
                for i in range(k):
                    want += cols[i][:, None] * a[i]
                got = _band_dot(a, cols)
                assert got.shape == (x, p)
                assert got.tobytes() == want.tobytes(), order


class TestSkyKernels:
    # the sky block runs its ADMM on (Q, P) weights and (Q, Q, P) matrices;
    # each kernel is elementwise along pixels or sums in one fixed order, so
    # a pixel's bits are those of its own one-pixel batch
    @staticmethod
    def _sky_matrices(rng, q, p):
        # the matrices the sky block inverts: 2G + rho I, G a Gram matrix
        # and rho = tr G / Q
        b = rng.normal(0.0, 1.0, (q, 64, p))
        g = np.einsum("qkp,rkp->qrp", b, b)
        a = 2.0 * g
        a[np.arange(q), np.arange(q)] += np.trace(g) / q
        return a

    @pytest.mark.parametrize("p", [1, 7, 512])
    def test_spd_inverse_matches_lapack(self, p):
        rng = np.random.default_rng(p)
        a = self._sky_matrices(rng, 10, p)
        got = _spd_inverse(a.copy())[0]
        want = np.linalg.inv(a.transpose(2, 0, 1)).transpose(1, 2, 0)
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        for j in range(p):
            one = _spd_inverse(np.ascontiguousarray(a[:, :, [j]]))[0]
            assert one.tobytes() == np.ascontiguousarray(got[:, :, [j]]).tobytes()

    @staticmethod
    def _mixed_matrices(rng, n, p):
        # a batch of PD matrices, of the sky block's kind, with a singular
        # one (row and column 1 zeroed, so its second pivot is exactly 0)
        # and an indefinite one (entry (1, 1) negated) at every third pixel
        # from 1 and 2; the (P,) mask of the PD pixels
        a = TestSkyKernels._sky_matrices(rng, n, p)
        kind = np.arange(p) % 3
        a[1, :, kind == 1] = 0.0
        a[:, 1, kind == 1] = 0.0
        a[1, 1, kind == 2] *= -1.0
        return a, kind == 0

    @pytest.mark.parametrize("n", [2, 10])
    @pytest.mark.parametrize("p", [1, 7, 512])
    def test_spd_inverse_masks_the_pixels_that_are_not_pd(self, n, p):
        # ok is false exactly where a pivot is not > 0, no warning is raised
        # there, and every PD pixel has the bits of its one-pixel call.  At
        # P = 1 each kind is its own batch
        a, pd = self._mixed_matrices(np.random.default_rng(40 + p), n, max(p, 3))
        batches = ([(a, pd)] if p > 1
                   else [(a[:, :, [j]].copy(), pd[[j]]) for j in range(3)])
        for b, want in batches:
            with np.errstate(all="raise"):
                got, ok = _spd_inverse(b.copy())
            npt.assert_array_equal(ok, want)
            for j in np.flatnonzero(want):
                one, one_ok = _spd_inverse(np.ascontiguousarray(b[:, :, [j]]))
                assert one_ok.all()
                assert one.tobytes() == np.ascontiguousarray(got[:, :, [j]]).tobytes()

    @pytest.mark.parametrize("p", [2, 7, 512])
    def test_matvec_sums_in_order_at_any_batch_size(self, p):
        # the batch sums r in order, as the loop does, and a single pixel,
        # which takes the accumulate path, has the bits of its column
        rng = np.random.default_rng(p)
        q = 10
        m = rng.normal(0.0, 1.0, (q, q, p))
        v = rng.normal(0.0, 1.0, (q, p))
        got = _matvec(m, v)
        want = np.zeros((q, p))
        for r in range(q):
            want += m[:, r] * v[r]
        assert got.tobytes() == want.tobytes()
        for j in range(p):
            one = _matvec(np.ascontiguousarray(m[:, :, [j]]),
                          np.ascontiguousarray(v[:, [j]]))
            assert one.tobytes() == np.ascontiguousarray(got[:, [j]]).tobytes()

    @staticmethod
    def _cap_disagreements():
        # (Q, P) weights scaled onto the cap whose in-order and pairwise sums
        # fall on opposite sides of pi, about 1 in 7 of those drawn, and
        # their in-order sums
        rng = np.random.default_rng(3)
        w = rng.uniform(0.0, 1.0, (4000, 10))
        w *= (np.pi / w.sum(1))[:, None]
        in_order = np.add.accumulate(w, axis=1)[:, -1]
        w = w[(in_order <= np.pi) != (w.sum(1) <= np.pi)]
        assert len(w) > 100
        return np.ascontiguousarray(w.T), np.add.accumulate(w, axis=1)[:, -1]

    def test_cap_is_tested_on_one_sum(self):
        # the projection, project and _feasible must all read the in-order
        # sum, or a weight vector the projection leaves in place could be
        # recorded as infeasible
        w, in_order = self._cap_disagreements()
        inside = in_order <= np.pi
        assert inside.any() and not inside.all()
        npt.assert_array_equal(_band_sum(w), in_order)
        proj = _proj_cap(w)
        npt.assert_array_equal(proj[:, inside], w[:, inside])
        assert (_band_sum(proj) <= np.pi).all()
        q, p = w.shape
        maps = {"distance": np.zeros((1, p)), "temperature": np.full((1, p), 295.0),
                "emissivity": np.zeros((1, p, 1)), "solid_angles": w.T.reshape(1, p, q)}
        got = project(maps, d_max=1.0).solid_angles
        assert got.tobytes() == np.ascontiguousarray(proj.T).tobytes()
        # with no sectors the sum is 0, for one pixel too
        for om in (w[:, inside], proj, np.zeros((0, 1)), np.zeros((0, 2))):
            p = om.shape[1]
            assert _feasible(np.zeros(p), np.zeros((1, p)), om, 1.0)
            assert all(_feasible(np.zeros(1), np.zeros((1, 1)), om[:, [j]], 1.0)
                       for j in range(p))

    def test_ground_share_is_never_negative(self):
        # _mix's ground share pi - sum(w) reads the sum the cap is tested
        # on, so weights the projection puts on or inside the cap never
        # reflect a negative share of the ground, in a batch or alone
        w, _ = self._cap_disagreements()
        proj = _proj_cap(w)
        q, p = proj.shape
        share = _mix(proj, np.zeros((q, 1)), np.ones((1, 1)))
        assert share.shape == (1, p) and (share >= 0.0).all()
        for j in range(p):
            one = _mix(np.ascontiguousarray(proj[:, [j]]), np.zeros((q, 1)),
                       np.ones((1, 1)))
            assert one.tobytes() == np.ascontiguousarray(share[:, [j]]).tobytes()


class TestCarriedTerms:
    # the blocks and _phase carry tau, B(T), mix, the penalty and the loss
    # beside the maps; each carried term must have the bits of a
    # recomputation
    def _problem(self, noise_sigma, seed):
        sc = micro_scene(rows=3, cols=3, bands=12, q=2, noise_sigma=noise_sigma,
                         seed=seed)
        pr, _, _ = _build_problem(sc["cube"], sc["alpha"], sc["dw"], AIR,
                                  1e5, 200.0)
        return sc, pr

    def test_blocks_return_terms_of_their_state(self):
        _, pr = self._problem(0.5, 21)
        rng = np.random.default_rng(8)
        p, k = pr.y.shape[1], pr.y.shape[0]
        d = rng.uniform(5.0, 60.0, p)
        t = rng.uniform(290.0, 300.0, p)
        eps = rng.uniform(0.5, 1.0, (k, p))
        om = rng.uniform(0.0, 0.9, (2, p))
        s = _sky_block(pr, _state(pr, d, t, eps, om))
        assert not np.array_equal(s.om, om)
        assert_state_of_its_maps(pr, s)
        held = s.d.copy()
        s = _temp_block(pr, s, span=2.0)
        assert s.d.tobytes() == held.tobytes()
        assert_state_of_its_maps(pr, s)
        for span in (None, 3.0):
            s = _dist_block(pr, s, span)
            assert_state_of_its_maps(pr, s)
        moved = s.d.copy()
        s = _gn_step(pr, s, 3.0, 1.0)
        assert not np.array_equal(s.d, moved)
        assert_state_of_its_maps(pr, s)

    def test_warmup_phase_loss_is_loss_of_its_state(self):
        _, pr = self._problem(0.5, 4)
        p, k = pr.y.shape[1], pr.y.shape[0]
        s = _phase(pr, _state(pr, np.full(p, 20.0), np.full(p, 296.0),
                              np.full((k, p), 0.95), np.zeros((2, p))),
                   14, d_freeze=6)
        assert_state_of_its_maps(pr, s)

    def test_refine_phase_loss_is_loss_of_its_state(self):
        # 30 sweeps with the range block on from the start run the global
        # range scans of sweeps 0, 10 and 20, the local scans between and
        # sweeps 27 to 29 at the floor spans
        _, pr = self._problem(1.0, 11)
        p, k = pr.y.shape[1], pr.y.shape[0]
        s = _phase(pr, _state(pr, np.full(p, 40.0), np.full(p, 296.0),
                              np.full((k, p), 0.9), np.zeros((2, p))),
                   30, d_freeze=0)
        assert_state_of_its_maps(pr, s)

    def test_armijo_loss_is_loss_of_its_state(self):
        _, pr = self._problem(1.0, 11)
        p, k = pr.y.shape[1], pr.y.shape[0]
        s = _phase(pr, _state(pr, np.full(p, 40.0), np.full(p, 296.0),
                              np.full((k, p), 0.9), np.zeros((2, p))),
                   6, d_freeze=0)
        assert_state_of_its_maps(pr, _armijo_pass(pr, s))

    @pytest.mark.parametrize("rho_d", [0.0, 1.0])
    def test_solve_loss_is_loss_of_its_maps(self, rho_d):
        # solve returns the loss carried through the polish, Armijo and TV
        # stages, not a recomputation
        sc, pr = self._problem(1.0, 13)
        est = solve(sc["cube"], sc["alpha"], sc["dw"], AIR, SolverConfig(rho_d=rho_d))
        npt.assert_array_equal(est.loss.reshape(-1),
                               _state(pr, *_flatten_maps(est, pr, 3, 3)).loss)


class TestCandidateScans:
    # the range scans rank their candidates by a cheaper form of the
    # objective and guard only the winner with the exact one; every block
    # keeps the carried state where its candidate does not improve it
    @staticmethod
    def _random_state(seed):
        sc = micro_scene(rows=3, cols=4, bands=12, q=3, noise_sigma=0.5, seed=21)
        pr, _, _ = _build_problem(sc["cube"], sc["alpha"], sc["dw"], AIR,
                                  1e5, 200.0)
        rng = np.random.default_rng(seed)
        p, k = pr.y.shape[1], pr.y.shape[0]
        d = rng.uniform(5.0, 60.0, p)
        t = rng.uniform(290.0, 300.0, p)
        eps = rng.uniform(0.5, 1.0, (k, p))
        om = rng.uniform(0.0, 0.9, (3, p))
        return pr, _state(pr, d, t, eps, om)

    def test_scan_picks_the_exact_argmin(self):
        # noise-free data of flat-emissivity pixels, three at range 0, three
        # at d_max and six inside; the carried ranges sit just inside the
        # box, so that the clipped candidate, at the truth, beats the nearest
        # one inside the box, while ranked by its unclipped path it would not
        pr, s = self._random_state(4)
        t, om, mix = s.t, s.om, s.mix
        rng = np.random.default_rng(9)
        p, k = t.size, pr.y.shape[0]
        eps = np.tile(rng.uniform(0.5, 1.0, p), (k, 1))
        bt = _planck_core(pr.wav, t)
        truth = np.array([0.0] * 3 + [pr.d_max] * 3
                         + [25.0, 40.0, 60.0, 80.0, 110.0, 150.0])
        pr.y = _radiance(_tau(truth, pr.alpha), _contrast(bt, eps, mix, pr.b_air),
                         pr.b_air)

        def misfits(ranges):
            return np.array([_state(pr, r, t, eps, om).loss for r in ranges])

        for span in (None, 3.0, _MIN_SPAN):
            if span is None:
                d = truth + rng.uniform(-10.0, 10.0, p).clip(-truth, pr.d_max - truth)
                cands = np.repeat(np.linspace(0.0, pr.d_max, 41)[:, None], p, axis=1)
            else:
                offs = np.linspace(-span, span, 17)[:, None]
                step = offs[1, 0] - offs[0, 0]
                inside = step * np.array([0.25, 0.1, 0.4])
                d = truth + np.concatenate([inside, -inside,
                                            rng.uniform(-span, span, 6)])
                cands = np.clip(d + offs, 0.0, pr.d_max)
            start = _state(pr, d, t, eps, om)._replace(loss=np.full(p, np.inf))
            got = _dist_block(pr, start, span).d
            scores = misfits(cands)
            best = cands[np.argmin(scores, axis=0), np.arange(p)]
            assert np.isin(got, cands).all()
            lg, lb = misfits([got])[0], misfits([best])[0]
            tie = np.abs(lg - lb) <= 1e-9 * lb
            assert ((got == best) | tie).all(), span
            npt.assert_array_equal(got[:6], truth[:6])
            if span is not None:
                # ranked by the path of the unclipped range, the clipped
                # candidates would lose at the boundary pixels
                naive = misfits(d + offs)
                pick = cands[np.argmin(naive, axis=0), np.arange(p)]
                assert (pick[:6] != truth[:6]).all()

    def test_blocks_keep_the_carried_state_where_no_candidate_improves(self):
        pr, s = self._random_state(5)
        # a carried loss of 0 at every other pixel, which no candidate reaches
        keep = np.arange(s.t.size) % 2 == 0
        floor = s._replace(loss=np.where(keep, 0.0, s.loss))

        def check(block, *args):
            # every field: the carried one where kept, the free step's elsewhere
            got, free = block(pr, floor, *args), block(pr, s, *args)
            for g, f, c in zip(got, free, floor, strict=True):
                assert g[..., keep].tobytes() == np.ascontiguousarray(c[..., keep]).tobytes()
                assert g[..., ~keep].tobytes() == np.ascontiguousarray(f[..., ~keep]).tobytes()
            # the guard is what kept those pixels: unguarded, they move
            assert not np.array_equal(free.loss[keep], s.loss[keep])

        check(_temp_block, 2.0)
        check(_armijo_pass)
        for span in (None, 3.0):
            check(_dist_block, span)
        check(_gn_step, 3.0, 1.0)
        check(_sky_block)


class TestGaussNewtonStep:
    # one Gauss-Newton step in (d, T) on the objective profiled over eps
    @staticmethod
    def _random_problem(k, seed, p=6, q=2, held=""):
        # noise-free data of flat-emissivity pixels, and a start near them
        # that holds the coordinates named in held ("d", "T") at the truth
        rng = np.random.default_rng(seed)
        wav = np.linspace(8.0, 13.0, k)[:, None]
        alpha = rng.uniform(0.005, 0.1, (k, 1))
        b_air = _planck_core(wav, AIR.kelvin)
        sky = (b_air * rng.uniform(0.3, 0.9, (k, q))).T.copy()
        d = rng.uniform(10.0, 60.0, p)
        t = rng.uniform(290.0, 300.0, p)
        eps = np.tile(rng.uniform(0.5, 0.95, p), (k, 1))
        om = rng.uniform(0.0, 0.3, (q, p))
        pr = _Problem(wav=wav, alpha=alpha, y=np.zeros((k, p)), sky=sky,
                      b_air=b_air, rho_eps=1e3, d_max=200.0, t_lo=283.0,
                      t_hi=307.0)
        pr.y = _radiance(_tau(d, alpha), _contrast(_planck_core(wav, t), eps,
                                                   _mix_of(pr, om), b_air), b_air)
        dd, dt = rng.uniform(-0.3, 0.3, p), rng.uniform(-0.1, 0.1, p)
        return (pr, d + ("d" not in held) * dd, t + ("T" not in held) * dt,
                eps + rng.uniform(-0.01, 0.01, eps.shape), om)

    @staticmethod
    def _dense_moves(pr, s, free):
        # per pixel, the moves of the free coordinates ("d", "T") that solve
        # the dense Gauss-Newton normal equations in them and the K eps
        tau, t, eps, bt, mix = s.tau, s.t, s.eps, s.bt, s.mix
        k, n = eps.shape[0], len(free)
        dtd = np.diff(np.eye(k), axis=0).T @ np.diff(np.eye(k), axis=0)
        reg = np.zeros((k + n, k + n))
        reg[n:, n:] = pr.rho_eps * dtd
        moves = []
        for i in range(t.size):
            core = _contrast(bt[:, i], eps[:, i], mix[:, i], pr.b_air[:, 0])
            r = tau[:, i] * core + pr.b_air[:, 0] - pr.y[:, i]
            cols = {"d": -np.log(10.0) / 10.0 * pr.alpha[:, 0] * tau[:, i] * core,
                    "T": tau[:, i] * eps[:, i] * _planck_dT_core(pr.wav[:, 0], t[i])}
            jac = np.column_stack([cols[c] for c in free]
                                  + [np.diag(tau[:, i] * (bt[:, i] - mix[:, i]))])
            g = jac.T @ r
            g[n:] += pr.rho_eps * dtd @ eps[:, i]
            moves.append(-np.linalg.solve(jac.T @ jac + reg, g)[:n])
        return np.array(moves)

    @pytest.mark.parametrize("k", [3, 12, 64])
    def test_move_solves_the_dense_normal_equations(self, k):
        pr, d, t, eps, om = self._random_problem(k, 30 + k)
        s = _state(pr, d, t, eps, om)._replace(loss=np.full(d.size, np.inf))
        dn, tn = _gn_step(pr, s, 1e3, 1e3)[:2]
        # the move stays inside the box, so nothing clipped it
        assert ((0.0 < dn) & (dn < pr.d_max) & (pr.t_lo < tn) & (tn < pr.t_hi)).all()
        npt.assert_allclose(np.column_stack([dn - d, tn - t]),
                            self._dense_moves(pr, s, "dT"), rtol=1e-9)

    @pytest.mark.parametrize("frozen", ["d", "T"])
    @pytest.mark.parametrize("k", [3, 12, 64])
    def test_a_zero_span_freezes_its_coordinate(self, k, frozen, monkeypatch):
        # the frozen coordinate and its carried term come back bit for bit,
        # without a recomputation of the term, and the free one takes the
        # move of the dense normal equations in it and the K eps
        pr, d, t, eps, om = self._random_problem(k, 30 + k, held=frozen)
        s = _state(pr, d, t, eps, om)._replace(loss=np.full(d.size, np.inf))
        d_span, t_span = (0.0, 1e3) if frozen == "d" else (1e3, 0.0)

        def refused(*args):
            raise AssertionError("a frozen coordinate's term was recomputed")

        for name in (("_tau",) if frozen == "d" else ("_planck_core", "_planck_dT_core")):
            monkeypatch.setattr(hyperspectral, name, refused)
        got = _gn_step(pr, s, d_span, t_span)
        if frozen == "d":
            carried, move, free = ("d", "tau"), got.t - t, "T"
        else:
            carried, move, free = ("t", "bt"), got.d - d, "d"
        for name in carried:
            assert getattr(got, name).tobytes() == getattr(s, name).tobytes()
        assert (move != 0.0).all()
        dn, tn = got.d, got.t
        assert ((0.0 < dn) & (dn < pr.d_max) & (pr.t_lo < tn) & (tn < pr.t_hi)).all()
        npt.assert_allclose(move, self._dense_moves(pr, s, free)[:, 0], rtol=1e-9)

    @pytest.mark.parametrize("q", [1, 10])
    def test_two_steps_return_to_the_truth(self, q):
        # noise-free data: from the truth with T moved by 0.3 K and eps
        # refit, the block scans stall in the d-T valley; two joint steps
        # reach the truth
        sc = micro_scene(rows=6, cols=6, bands=64, q=q)
        pr, m, n = _build_problem(sc["cube"], sc["alpha"], sc["dw"], AIR,
                                  1e5, 200.0)
        d0, t0, _, om = _flatten_maps(as_maps(sc["truth"]), pr, m, n)
        mix = _mix_of(pr, om)
        d, t = d0, t0 + 0.3
        tau, bt = _tau(d, pr.alpha), _planck_core(pr.wav, t)
        s = _state(pr, d, t, _eps_quick(pr, tau, bt, mix)[0], om)
        assert s.loss.sum() > 1.0
        for _ in range(2):
            s = _gn_step(pr, s, 3.0, 1.0)
        npt.assert_allclose(s.d, d0, rtol=0.0, atol=1e-3)
        npt.assert_allclose(s.t, t0, rtol=0.0, atol=1e-3)
        assert s.loss.sum() < 1e-6

    def test_zero_emissivity_pixel_does_not_move(self):
        # at eps = 0 the misfit does not depend on T, so the reduced matrix
        # is singular; the other pixels move
        pr, d, t, eps, om = self._random_problem(12, 5)
        eps[:, 2] = 0.0
        s = _state(pr, d, t, eps, om)._replace(loss=np.full(d.size, np.inf))
        got = _gn_step(pr, s, 1e3, 1e3)
        for g, w in zip(got, s, strict=True):
            assert g[..., 2].tobytes() == np.ascontiguousarray(w[..., 2]).tobytes()
        others = np.arange(d.size) != 2
        assert (got.d[others] != d[others]).all()
        assert (got.t[others] != t[others]).all()

    @pytest.mark.parametrize("k", [3, 12, 64])
    def test_zero_emissivity_pixel_is_masked_in_the_reduced_solve(self, k):
        # at eps = 0 the temperature column is 0, so the reduced matrix is
        # singular: the pixel is masked and takes no move, and the other
        # pixels' moves are still those of the dense normal equations
        pr, d, t, eps, om = self._random_problem(k, 30 + k)
        eps[:, 2] = 0.0
        s = _state(pr, d, t, eps, om)
        assert not _jacobian(pr, s)[2][1][:, 2].any()
        with np.errstate(all="raise"):
            ok, moves = _gn_moves(pr, s, True, True)
        others = np.arange(d.size) != 2
        npt.assert_array_equal(ok, others)
        assert not moves[:, 2].any()
        rest = _State(*(np.ascontiguousarray(f[..., others]) for f in s))
        npt.assert_allclose(moves[:, others].T, self._dense_moves(
            replace(pr, y=pr.y[:, others]), rest, "dT"), rtol=1e-9)


class TestArmijoPass:
    # the range-only Gauss-Newton step within _POLISH_SPAN.  The states come
    # from a few refine sweeps
    @staticmethod
    def _refined(sweeps):
        sc = micro_scene(rows=3, cols=4, bands=12, q=3, noise_sigma=0.5, seed=21)
        pr, _, _ = _build_problem(sc["cube"], sc["alpha"], sc["dw"], AIR,
                                  1e5, 200.0)
        p, k = pr.y.shape[1], pr.y.shape[0]
        return pr, _phase(pr, _state(pr, np.full(p, 40.0), np.full(p, 296.0),
                                     np.full((k, p), 0.9), np.zeros((3, p))),
                          sweeps, d_freeze=0)

    @pytest.mark.parametrize("sweeps", [6, 12])
    def test_temperature_and_sky_weights_pass_through(self, sweeps):
        # T, B(T) and the sky terms come back bit for bit; eps is refit
        pr, s = self._refined(sweeps)
        sky = s.mix.tobytes()
        got = _armijo_pass(pr, s)
        for name in ("t", "bt", "om", "mix"):
            assert getattr(got, name).tobytes() == getattr(s, name).tobytes(), name
        assert s.mix.tobytes() == sky
        assert not np.array_equal(got.eps, s.eps)

    @pytest.mark.parametrize("sweeps", [6, 12])
    def test_no_pixel_loss_rises(self, sweeps):
        pr, s = self._refined(sweeps)
        got = _armijo_pass(pr, s)
        assert (got.loss <= s.loss).all()
        assert (got.loss < s.loss).any()
        assert (np.abs(got.d - s.d) <= hyperspectral._POLISH_SPAN).all()


class TestZeroSectors:
    # with no sky sectors only the sky block branches: it returns what it
    # was given, and every other stage runs its one schedule on (0, P) weights
    def test_sky_block_returns_its_inputs(self):
        sc = micro_scene(rows=2, cols=3, bands=12, q=0, noise_sigma=0.5, seed=2)
        pr, m, n = _build_problem(sc["cube"], sc["alpha"], None, AIR,
                                  1e5, 200.0)
        rng = np.random.default_rng(3)
        p, k = m * n, 12
        d, t = rng.uniform(5.0, 60.0, p), rng.uniform(290.0, 300.0, p)
        eps, om = rng.uniform(0.5, 1.0, (k, p)), np.zeros((0, p))
        s = _state(pr, d, t, eps, om)
        got = _sky_block(pr, s)
        for g, w in zip(got, s, strict=True):
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

    def test_a_subnormal_rho_eps_solves_as_no_smoothing_does(self):
        # rho_eps = 1e-310 passes validation; its emissivity solves must
        # stay finite, so the solve matches rho_eps = 0 up to rounding
        sc = micro_scene(rows=3, cols=3, bands=16, q=2, noise_sigma=0.5, seed=4)
        args = (sc["cube"], sc["alpha"], sc["dw"], AIR)
        tiny = solve(*args, SolverConfig(rho_eps=1e-310))
        none = solve(*args, SolverConfig(rho_eps=0.0))
        for name in ("distance", "temperature", "emissivity", "solid_angles", "loss"):
            got, want = getattr(tiny, name), getattr(none, name)
            assert np.isfinite(got).all(), name
            npt.assert_allclose(got, want, rtol=1e-9, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("d_max", [1e6, 1e20, 1e308])
    def test_a_far_d_max_solves_without_a_zero_pivot(self, d_max):
        # far ranges take tau to 0, and with it every band of the eps
        # block's a, whose Thomas solve then meets a zero pivot; the pixel
        # is masked, not divided by 0, and the maps stay in their box
        sc = micro_scene(rows=2, cols=2, bands=16, q=2, noise_sigma=1.0)
        est = solve(sc["cube"], sc["alpha"], sc["dw"], AIR, SolverConfig(d_max=d_max))
        assert ((est.distance >= 0.0) & (est.distance <= d_max)).all()
        assert np.isfinite(est.loss).all()

    @pytest.mark.parametrize("value", [1e-40, 1e-300])
    def test_a_near_zero_cube_solves_without_a_zero_pivot(self, value):
        # radiance near 0 puts the air temperature, and so B(T) and a, near
        # 0 in every band
        sc = micro_scene(rows=2, cols=2, bands=64, q=2)
        cube = SceneCube(np.full((2, 2, 64), value), sc["grid"], AIR)
        t_air = estimate_air_temperature(cube)
        est = solve(cube, sc["alpha"], sc["dw"], t_air)
        assert np.isfinite(est.loss).all()

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

    def test_no_sky_equals_an_air_temperature_sky(self):
        # with no downwelling set the model has no sky sector, and it fits
        # what a sky radiating B(T_air), the ambient fill, would give
        sc = micro_scene(rows=3, cols=3, bands=12, q=0, noise_sigma=0.0, seed=5)
        a = solve(sc["cube"], sc["alpha"], None, AIR)
        sky = np.tile(planck(sc["grid"].wavelengths, AIR), (2, 1))
        b = solve(sc["cube"], sc["alpha"],
                  DownwellingSet((0.0, 60.0), sky, sc["grid"]), AIR)
        npt.assert_array_equal(a.distance, b.distance)
        npt.assert_array_equal(a.temperature, b.temperature)
        npt.assert_array_equal(a.emissivity, b.emissivity)
        npt.assert_array_equal(a.loss, b.loss)
        npt.assert_array_equal(a.iterations, b.iterations)
        assert a.solid_angles.shape == (3, 3, 0)

    @pytest.mark.parametrize("rho_d", [0.0, 1.0])
    def test_thread_count_does_not_change_bits(self, rho_d, monkeypatch):
        # on two usable cores, threads=3 on a 4x3 image and threads=2 on a
        # 1x7 and a 16x32 one each run two pixel blocks in two workers, then
        # with rho_d > 0 the TV rounds on the whole map in this process.  The
        # 16x32 scene's 64 bands and 10 sky sectors give the band sums long
        # rows, where an operand in another memory order would sum the bands
        # in an order that depends on the block
        sizes = record_pool_sizes(monkeypatch)
        monkeypatch.setattr(hyperspectral, "_usable_cores", lambda: 2)
        small = dict(bands=12, q=2, noise_sigma=0.5, seed=12)
        for threads, scene in ((3, dict(rows=4, cols=3, **small)),
                               (2, dict(rows=1, cols=7, **small)),
                               (2, dict(rows=16, cols=32, bands=64, q=10,
                                        noise_sigma=1.0, seed=0))):
            sc = micro_scene(**scene)
            one = solve(sc["cube"], sc["alpha"], sc["dw"], AIR,
                        SolverConfig(rho_d=rho_d, threads=1))
            two = solve(sc["cube"], sc["alpha"], sc["dw"], AIR,
                        SolverConfig(rho_d=rho_d, threads=threads))
            assert sizes == [2]
            sizes.clear()
            for name in ("distance", "temperature", "emissivity", "solid_angles",
                         "loss", "iterations"):
                assert getattr(one, name).tobytes() == getattr(two, name).tobytes(), name

    @pytest.mark.parametrize("rows, threads", [(5, 3), (3, 8)])
    def test_uneven_and_oversized_splits_do_not_change_bits(self, rows, threads,
                                                            monkeypatch):
        # 10 pixels in blocks of 3, 3 and 4; 6 pixels in 6 blocks, not 8; the
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

    def test_a_worker_error_reaches_the_caller_as_itself(self, monkeypatch):
        # each of two pixel blocks, of 1 and 2 pixels, raises in its forked
        # worker; the first block's error is raised here, and both workers
        # are reaped
        sc = micro_scene(rows=1, cols=3, bands=12, q=2, noise_sigma=0.5, seed=14)
        caller = os.getpid()

        def failing(pr, *args):
            assert os.getpid() != caller
            raise DomainError(f"pixels {pr.y.shape[1]} in worker {os.getpid()}")

        monkeypatch.setattr(hyperspectral, "_solve_flat", failing)
        monkeypatch.setattr(hyperspectral, "_usable_cores", lambda: 2)
        with pytest.raises(DomainError, match="pixels 1 in worker") as info:
            solve(sc["cube"], sc["alpha"], sc["dw"], AIR, SolverConfig(threads=2))
        assert str(caller) not in str(info.value).split()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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

    def test_every_sweep_has_one_shape(self, monkeypatch):
        # each warmup and refine sweep refits the sky and steps T alone, and
        # scans range once its freeze is over; the polish rounds take the
        # only joint (d, T) steps and the Armijo rounds the range-only ones
        sc = micro_scene(rows=2, cols=3, bands=12, q=2, noise_sigma=0.5, seed=6)
        cfg = SolverConfig()
        calls = []
        for name in ("_gn_step", "_dist_block", "_sky_block"):
            def spy(pr, s, *spans, _name=name, _fn=getattr(hyperspectral, name)):
                calls.append((_name,) + tuple(x is None or x > 0 for x in spans))
                return _fn(pr, s, *spans)
            monkeypatch.setattr(hyperspectral, name, spy)
        solve(sc["cube"], sc["alpha"], sc["dw"], AIR, cfg)
        sweeps = cfg.warmup_iterations + cfg.refine_iterations
        assert Counter(calls) == {
            ("_sky_block",): sweeps + cfg.polish_rounds,
            ("_gn_step", False, True): sweeps,
            ("_dist_block", True): sweeps - cfg.warmup_d_freeze,
            ("_gn_step", True, True): cfg.polish_rounds,
            ("_gn_step", True, False): cfg.armijo_iterations,
        }

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
