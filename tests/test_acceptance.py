"""End-to-end acceptance checks.

Each test prints one `[criterion NN] ...: PASS/FAIL` line so a suite run
doubles as a checklist. The assertions fire after the print: a failing
criterion stays visible instead of vanishing into a traceback.
"""

import time

import numpy as np
import numpy.testing as npt
import pytest

from lwirange import (
    AtmosphereParams,
    BandSelection,
    DownwellingSet,
    EstimateMaps,
    SolverConfig,
    SpectralGrid,
    Temperature,
    bispectral_air,
    bispectral_hot,
    brightness_temperature,
    data_loss,
    default_panel_masks,
    emissivity_smoothness,
    estimate_air_temperature,
    fit_ozone_slope,
    gradients,
    make_default_grid,
    make_default_scene,
    planck,
    planck_dT,
    project,
    quadspectral,
    read_cube,
    solve,
    synth_attenuation,
    synth_downwelling,
    synthesize_cube,
    write_cube,
)
from lwirange.atmosphere import DEFAULT_ZENITH_ANGLES
from lwirange.cli import main
from lwirange.closed_form import FLAG_VALID
from lwirange.cube_io import CubeHeader
from lwirange.hyperspectral import _T_SPAN
from helpers import attenuation_from, five_band_grid, flat_scene, micro_scene, ramp_distances

GRID5 = five_band_grid()
BANDS5 = BandSelection.from_grid(GRID5)

# object temperatures at which the Planck curve is flat across a band pair,
# found by 50-digit root solving on the same CODATA constants
T_FLAT_12 = 343.33922994175224562
T_FLAT_34 = 304.0720800261081687

SIZE = 32
# the air-subtracting estimators lose their band contrast to float rounding
# past ~45 m at these attenuation slopes, so the shallow ramp stops at 40
RAMP_DEEP = np.linspace(2.0, 78.0, SIZE)
RAMP_SHALLOW = np.linspace(2.0, 40.0, SIZE)


def report(num, desc, ok):
    print(f"[criterion {num:02d}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} failed: {desc}"


def hot_object_cube():
    alpha = attenuation_from(GRID5, (0.3, 1.7, 0.0, 0.0, 6.0))
    truth = flat_scene(GRID5, 0.0, T_FLAT_12, 0.75, rows=SIZE, cols=SIZE)
    truth = ramp_distances(truth, RAMP_DEEP)
    cube = synthesize_cube(truth, alpha, None, Temperature(1e-3))
    return cube, alpha, truth


def warm_air_cube():
    t_air = 300.0
    eps_star = ((planck(8.46, t_air) - planck(8.42, t_air))
                / (planck(8.46, 285.0) - planck(8.42, 285.0)))
    alpha = attenuation_from(GRID5, (0.3, 1.7, 0.0, 0.0, 6.0))
    truth = flat_scene(GRID5, 0.0, 285.0, eps_star, rows=SIZE, cols=SIZE)
    truth = ramp_distances(truth, RAMP_SHALLOW)
    cube = synthesize_cube(truth, alpha, None, Temperature(t_air))
    return cube, alpha, Temperature(t_air), truth


def reflective_sky_cube(slope=0.94, q=3):
    t_air = 310.0
    eps_star = ((planck(8.46, t_air) - planck(8.42, t_air))
                / (planck(8.46, T_FLAT_34) - planck(8.42, T_FLAT_34)))
    alpha = attenuation_from(GRID5, (0.12, 0.0, 0.0, 0.0, 6.0))
    rng = np.random.default_rng(5)
    ld = rng.uniform(400.0, 700.0, (q, 5))
    ld[:, 2] = rng.uniform(100.0, 250.0, q)
    ld[:, 3] = ld[:, 2] + rng.uniform(-90.0, 90.0, q)
    ld[:, 1] = ld[:, 0] + slope * (ld[:, 3] - ld[:, 2])
    dw = DownwellingSet(np.linspace(0.0, 75.0, q), ld, GRID5)
    truth = flat_scene(GRID5, 0.0, T_FLAT_34, eps_star, rows=SIZE, cols=SIZE,
                       q=q, omega=0.25)
    truth = ramp_distances(truth, RAMP_DEEP)
    cube = synthesize_cube(truth, alpha, dw, Temperature(t_air))
    return cube, alpha, dw, Temperature(t_air), truth


@pytest.fixture(scope="module")
def panel():
    """32x32x64 default panel scene under 1 microflick of shot noise."""
    air = Temperature(295.0)
    grid = make_default_grid()
    params = AtmosphereParams(air_temperature=air)
    alpha = synth_attenuation(params, grid)
    dw = synth_downwelling(params, grid, DEFAULT_ZENITH_ANGLES)
    truth = make_default_scene(grid, q=10, air_temperature=air,
                               rows=SIZE, cols=SIZE)
    cube = synthesize_cube(truth, alpha, dw, air, noise_sigma=1.0, rng_seed=0)
    _, eps60, _ = default_panel_masks(SIZE, SIZE)
    bands = BandSelection.from_grid(grid)
    t_air = estimate_air_temperature(cube, lambda_sat=bands.lambda_sat)
    return {"grid": grid, "alpha": alpha, "dw": dw, "truth": truth,
            "cube": cube, "eps60": eps60, "bands": bands, "t_air": t_air}


def patch_error(distances, valid, mask, truth_m=30.0):
    ok = mask & valid
    return abs(float(distances[ok].mean()) - truth_m) / truth_m


def test_criterion_01_closed_form_exactness():
    t0 = time.perf_counter()

    cube_h, alpha_h, truth_h = hot_object_cube()
    rm_h = bispectral_hot(cube_h, BANDS5, alpha_h)

    cube_a, alpha_a, t_air_a, truth_a = warm_air_cube()
    rm_a = bispectral_air(cube_a, BANDS5, alpha_a, t_air_a)

    cube_q, alpha_q, dw_q, t_air_q, truth_q = reflective_sky_cube()
    rm_q = quadspectral(cube_q, BANDS5, alpha_q, t_air_q,
                        fit_ozone_slope(dw_q, BANDS5))

    elapsed = time.perf_counter() - t0
    errs = []
    for rm, truth in ((rm_h, truth_h), (rm_a, truth_a), (rm_q, truth_q)):
        all_valid = bool(np.all(rm.validity == FLAG_VALID))
        rel = np.abs(rm.distances - truth.distance_map) / truth.distance_map
        errs.append((all_valid, float(rel.max())))
    ok = all(v and e <= 1e-6 for v, e in errs) and elapsed < 1.0
    report(1, "closed-form estimators exact on noiseless 32x32 scenes "
              f"(worst rel {max(e for _, e in errs):.2e}, {elapsed:.2f}s)", ok)


def test_criterion_02_reduction_chain():
    # zero ozone contrast: copying the second ozone band into the cube makes
    # the four-band estimator's correction vanish identically
    cube_q, alpha_q, dw_q, t_air_q, _ = reflective_sky_cube()
    rad = cube_q.radiance.copy()
    rad[:, :, BANDS5.index4] = rad[:, :, BANDS5.index3]
    from lwirange import SceneCube
    cube0 = SceneCube(radiance=rad, grid=cube_q.grid,
                      air_temperature=cube_q.air_temperature,
                      noise_sigma=cube_q.noise_sigma)
    rm_bi = bispectral_air(cube0, BANDS5, alpha_q, t_air_q)
    rm_qd = quadspectral(cube0, BANDS5, alpha_q, t_air_q, 0.94)
    quad_matches = (np.array_equal(rm_bi.distances, rm_qd.distances,
                                   equal_nan=True)
                    and np.array_equal(rm_bi.validity, rm_qd.validity))

    # zero sky sectors: the solve with the sky term off equals, bit for bit,
    # a solve whose every sky sector radiates B(T_air), the hemisphere fill
    # of the model, so that each sector's weight multiplies a zero contrast
    air = Temperature(295.0)
    sc = micro_scene(rows=6, cols=6, bands=16, q=0, noise_sigma=0.5, seed=21)
    a = solve(sc["cube"], sc["alpha"], None, air)
    b_air = planck(sc["grid"].wavelengths, air)
    hyper_matches = True
    for q in (1, 3, 10):
        dw = DownwellingSet(np.linspace(0.0, 80.0, q), np.tile(b_air, (q, 1)),
                            sc["grid"])
        b = solve(sc["cube"], sc["alpha"], dw, air)
        hyper_matches &= all(
            np.array_equal(getattr(a, name), getattr(b, name))
            for name in ("distance", "temperature", "emissivity", "loss",
                         "iterations"))
    report(2, "quadspectral with zero ozone contrast reduces to bispectral-air"
              " and the zero-sector solver to a solve under a sky at B(T_air),"
              " bit for bit",
           quad_matches and hyper_matches)


def test_criterion_03_ghosting_on_reflective_panel(panel):
    t0 = time.perf_counter()
    rm_bi = bispectral_air(panel["cube"], panel["bands"], panel["alpha"],
                           panel["t_air"])
    slope = fit_ozone_slope(panel["dw"], panel["bands"])
    rm_qd = quadspectral(panel["cube"], panel["bands"], panel["alpha"],
                         panel["t_air"], slope)
    elapsed = time.perf_counter() - t0
    bi_err = patch_error(rm_bi.distances, rm_bi.validity == FLAG_VALID,
                         panel["eps60"])
    qd_err = patch_error(rm_qd.distances, rm_qd.validity == FLAG_VALID,
                         panel["eps60"])
    ok = bi_err > 3.0 * qd_err and qd_err < 0.25 and elapsed < 5.0
    report(3, "sky-glint ghosting on the shiny eps=0.6 cells: bispectral-air error "
              f"{bi_err:.1%} vs quadspectral {qd_err:.1%} "
              f"({bi_err / qd_err:.0f}x, {elapsed:.2f}s)", ok)


def test_criterion_04_full_solver_beats_sky_free_baseline(panel):
    t0 = time.perf_counter()
    est10 = solve(panel["cube"], panel["alpha"], panel["dw"], panel["t_air"],
                  SolverConfig(threads=1))
    est0 = solve(panel["cube"], panel["alpha"], None, panel["t_air"],
                 SolverConfig(threads=1))
    elapsed = time.perf_counter() - t0
    eps60 = panel["eps60"]
    err10 = abs(float(est10.distance[eps60].mean()) - 30.0) / 30.0
    err0 = abs(float(est0.distance[eps60].mean()) - 30.0) / 30.0
    d_max = SolverConfig().d_max
    baseline_breaks = err0 > 1.0 or float(est0.distance[eps60].mean()) >= 0.999 * d_max
    ok = err10 < 0.10 and baseline_breaks and elapsed < 120.0
    report(4, "sky-aware solver holds the shiny eps=0.6 cells to "
              f"{err10:.1%} range error while the sky-free baseline drifts "
              f"{err0:.0%} ({elapsed:.0f}s single-threaded)", ok)


def test_criterion_05_analytic_gradients_match_finite_differences():
    worst = 0.0
    air = Temperature(295.0)
    for inst in range(10):
        sc = micro_scene(rows=2, cols=2, bands=8, q=2, noise_sigma=0.0,
                         seed=100 + inst)
        rng = np.random.default_rng(inst)
        params = {
            "distance": rng.uniform(5.0, 60.0, (2, 2)),
            "temperature": rng.uniform(287.0, 303.0, (2, 2)),
            "emissivity": rng.uniform(0.3, 0.97, (2, 2, 8)),
            "solid_angles": rng.uniform(0.05, 1.2, (2, 2, 2)),
        }
        rho = 11.0

        def f(p):
            return data_loss(p, sc["cube"], sc["alpha"], sc["dw"], air) \
                + rho * emissivity_smoothness(p["emissivity"])

        grads = gradients(params, sc["cube"], sc["alpha"], sc["dw"], air,
                          rho_eps=rho)
        for key, g in grads.items():
            arr = params[key]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                # h sits at the bottom of the FD error V: smaller steps sink
                # into rounding against loss values of ~1e6, larger ones into
                # the h^2 truncation term
                h = 1e-4 * max(1.0, abs(float(arr[ix])))
                pp = {k: v.copy() for k, v in params.items()}
                pp[key][ix] += h
                fp = f(pp)
                pp[key][ix] -= 2.0 * h
                fm = f(pp)
                fd = (fp - fm) / (2.0 * h)
                if abs(g[ix]) > 1e-8:
                    worst = max(worst, abs(fd - g[ix]) / abs(g[ix]))
    ok = worst <= 1e-4
    report(5, "analytic gradients match central differences on 10 random "
              f"instances (worst rel {worst:.2e})", ok)


def project_oracle(w0, cap=np.pi):
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


def test_criterion_06_projection_matches_qp_oracle():
    rng = np.random.default_rng(6)
    worst = 0.0
    for trial in range(100):
        q = int(rng.integers(1, 9))
        params = {
            "distance": rng.uniform(-50.0, 400.0, (1, 1)),
            "temperature": rng.uniform(250.0, 340.0, (1, 1)),
            "emissivity": rng.uniform(-0.5, 1.5, (1, 1, 4)),
            "solid_angles": rng.uniform(-2.0, 3.0, (1, 1, q)),
        }
        out = project(params, d_max=200.0)
        want = project_oracle(params["solid_angles"][0, 0])
        worst = max(worst, float(np.abs(out.solid_angles[0, 0] - want).max()))
        worst = max(worst, float(np.abs(
            out.distance - np.clip(params["distance"], 0.0, 200.0)).max()))
        worst = max(worst, float(np.abs(
            out.emissivity - np.clip(params["emissivity"], 0.0, 1.0)).max()))
    ok = worst <= 1e-8
    report(6, "feasible-set projection matches the QP oracle on 100 random "
              f"infeasible points (worst abs {worst:.2e})", ok)


def test_criterion_07_iterates_feasible_and_objective_monotone():
    sc = micro_scene(rows=6, cols=6, bands=16, q=2, noise_sigma=1.0, seed=23)
    est = solve(sc["cube"], sc["alpha"], sc["dw"], Temperature(295.0),
                SolverConfig())
    hist = est.history
    all_feasible = bool(hist) and all(entry[3] for entry in hist)
    worst_rise = 0.0
    by_label = {}
    for label, _step, total, _ok in hist:
        by_label.setdefault(label, []).append(total)
    for seq in by_label.values():
        for a, b in zip(seq, seq[1:]):
            worst_rise = max(worst_rise, b - a)
    last_refine = max(i for i, entry in enumerate(hist) if entry[0] == "refine")
    chain = [total for label, _s, total, _ok in hist[last_refine:]
             if label in ("refine", "polish", "armijo", "tv")]
    for a, b in zip(chain, chain[1:]):
        worst_rise = max(worst_rise, b - a)
    ok = all_feasible and worst_rise <= 1e-12
    report(7, "every recorded iterate feasible; accepted steps never raise "
              f"the objective (worst rise {worst_rise:.2e})", ok)


def test_criterion_08_planck_inversion_identity():
    lam = np.linspace(8.0, 13.2, 100)
    tk = np.linspace(200.0, 400.0, 100)
    ll, tt = np.meshgrid(lam, tk)
    rad = planck(ll, tt)
    back = brightness_temperature(ll, rad)
    worst_t = float(np.max(np.abs(back - tt) / tt))

    h = 0.01
    fd = (planck(ll, tt + h) - planck(ll, tt - h)) / (2.0 * h)
    an = planck_dT(ll, tt)
    worst_g = float(np.max(np.abs(fd - an) / np.abs(an)))
    ok = worst_t <= 1e-9 and worst_g <= 1e-6
    report(8, "Planck inversion identity to "
              f"{worst_t:.2e} and dB/dT to {worst_g:.2e} on a 100x100 grid", ok)


def test_criterion_09_ozone_slope_fit():
    rng = np.random.default_rng(9)
    q = 6
    ld = rng.uniform(400.0, 700.0, (q, 5))
    ld[:, 2] = rng.uniform(100.0, 250.0, q)
    ld[:, 3] = ld[:, 2] + rng.uniform(-90.0, 90.0, q)
    ld[:, 1] = ld[:, 0] + 0.94 * (ld[:, 3] - ld[:, 2])
    dw = DownwellingSet(np.linspace(0.0, 80.0, q), ld, GRID5)
    got = fit_ozone_slope(dw, BANDS5)

    dwater = ld[:, BANDS5.index2] - ld[:, BANDS5.index1]
    dozone = ld[:, BANDS5.index4] - ld[:, BANDS5.index3]
    oracle = float(np.linalg.lstsq(dozone[:, None], dwater, rcond=None)[0][0])

    ok = abs(got.s - 0.94) <= 1e-9 and abs(got.s - oracle) <= 1e-12
    report(9, f"ozone-water slope fit returns {got.s!r} on an exact "
              "proportional family and matches the least-squares oracle", ok)


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_criterion_10_cli_runs_are_reproducible(tmp_path, capsys):
    atmo = tmp_path / "atmo"
    assert main(["atmo", "--out", str(atmo)]) == 0

    scenes = [tmp_path / "s1", tmp_path / "s2"]
    for out in scenes:
        assert main(["synth", "--atmo", str(atmo), "--out", str(out),
                     "--rows", "6", "--cols", "6", "--seed", "11",
                     "--noise-sigma", "0.5"]) == 0
    synth_same = (scenes[0] / "cube.lwc").read_bytes() \
        == (scenes[1] / "cube.lwc").read_bytes()

    outs = [tmp_path / "e1", tmp_path / "e2", tmp_path / "e4"]
    for out, threads in zip(outs, ("1", "1", "4")):
        assert main(["range", "--cube", str(scenes[0] / "cube.lwc"),
                     "--atmo", str(atmo), "--out", str(out),
                     "--mode", "hyper", "--threads", threads]) == 0
    capsys.readouterr()
    rerun_same = read_tree(outs[0]) == read_tree(outs[1])
    threads_same = read_tree(outs[0]) == read_tree(outs[2])
    ok = synth_same and rerun_same and threads_same
    report(10, "CLI reruns byte-identical for a fixed seed and independent "
               "of the thread count", ok)


def test_criterion_11_container_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    ok = True
    for trial in range(100):
        if trial == 0:
            m = n = k = 1
        else:
            m, n, k = (int(x) for x in rng.integers(1, 7, size=3))
        data = (rng.random((m, n, k), dtype=np.float32)
                * np.float32(1000.0))
        first = tmp_path / f"a{trial}.lwc"
        second = tmp_path / f"b{trial}.lwc"
        write_cube(first, CubeHeader(kind="cube", rows=m, cols=n, bands=k),
                   data)
        header, back = read_cube(first)
        write_cube(second, header, back)
        ok = ok and np.array_equal(back, data) \
            and first.read_bytes() == second.read_bytes()
    report(11, "LWC1 containers round-trip bit-identically over 100 random "
               "cubes including 1x1x1", ok)


def test_criterion_12_noise_free_solve_converges():
    # on noise-free data the truth has zero loss, so a range error is the
    # optimizer's.  16x16 default panel scene, ten sky sectors, no noise
    size = 16
    air = Temperature(295.0)
    grid = make_default_grid()
    params = AtmosphereParams(air_temperature=air)
    alpha = synth_attenuation(params, grid)
    dw = synth_downwelling(params, grid, DEFAULT_ZENITH_ANGLES)
    truth = make_default_scene(grid, q=10, air_temperature=air, rows=size, cols=size)
    cube = synthesize_cube(truth, alpha, dw, air, noise_sigma=0.0, rng_seed=0)
    t_air = estimate_air_temperature(
        cube, lambda_sat=BandSelection.from_grid(grid).lambda_sat)
    est = solve(cube, alpha, dw, t_air, SolverConfig(threads=1))

    panel, eps60, eps90 = default_panel_masks(size, size)
    err = np.abs(est.distance - truth.distance_map)
    mae = {"eps=0.6": float(err[eps60].mean()), "eps=0.9": float(err[eps90].mean()),
           "near": float(err[~panel & (truth.distance_map < 40.0)].mean()),
           "far": float(err[~panel & (truth.distance_map >= 40.0)].mean())}
    t = est.temperature
    on_bound = float(((t <= t_air.kelvin - _T_SPAN) | (t >= t_air.kelvin + _T_SPAN)).mean())
    # near is left unbounded: it ends about 1.1 m off (ROADMAP item 10)
    ok = (mae["eps=0.9"] < 1.0 and mae["eps=0.6"] < 0.25 and mae["far"] < 0.25
          and on_bound == 0.0)
    report(12, "noise-free 16x16 solve converges: range MAE "
               + ", ".join(f"{k} {v:.2f} m" for k, v in mae.items())
               + f"; {on_bound:.0%} of pixels on the temperature bound", ok)
