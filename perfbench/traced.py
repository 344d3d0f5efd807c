"""Traced replay of one workload in one process, for the per-layer metrics.

The replay calls each lwirange module through its public functions in
pipeline order: atmosphere -> forward_model -> cube_io -> closed_form /
hyperspectral -> evaluation. Every call runs inside a span (name, start,
end, parent, counts) kept in memory and written to _work/ at the end; the
full solve also runs under cProfile, and allocation peaks come from separate
tracemalloc passes so that they do not slow the timed calls.

The solver layer runs on the workload's image for hyper32-t2 and, because
quad512 runs no solver, on an 8 x 8 sample of its image (every 64th row and
column). The traced solve always uses one thread, so that the profiler sees
all of its work.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

import pipeline
import reference as ref

MIB = 2.0 ** 20
SOLVER_SAMPLE = 8
# (metric, function, statistic) read from the profile of the traced solve
PROFILE = (
    ("solver.phase.cum_s", "_phase", "cum"),
    ("solver.temp_block.cum_s", "_temp_block", "cum"),
    ("solver.eps_quick.cum_s", "_eps_quick", "cum"),
    ("solver.thomas.self_s", "_thomas", "self"),
    ("solver.thomas.calls", "_thomas", "calls"),
    ("solver.sky_block.cum_s", "_sky_block", "cum"),
    ("solver.dist_block.cum_s", "_dist_block", "cum"),
    ("solver.polish.cum_s", "_polish_distance", "cum"),
    ("solver.armijo.cum_s", "_armijo_pass", "cum"),
    ("solver.tau.self_s", "_tau", "self"),
    ("solver.planck_core.self_s", "_planck_core", "self"),
)


class Tracer:
    """Spans kept in memory: id, name, parent id, start, end, counts."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, **counts):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": counts}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def timed(self, name, fn, min_s=0.2, max_reps=9, **counts):
        """Call fn in spans until min_s has passed or max_reps calls; return
        (median seconds per call, last result)."""
        times = []
        while True:
            with self.span(name, **counts) as rec:
                out = fn()
            times.append(rec["end"] - rec["start"])
            if sum(times) >= min_s or len(times) >= max_reps:
                return statistics.median(times), out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def alloc_peak_mb(fn):
    """Peak of memory allocated while fn runs, by tracemalloc, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def _import_program(root):
    """Import lwirange from the checkout's src/, never from an installed copy."""
    src = str(Path(root) / "src")
    sys.path.insert(0, src)
    import lwirange
    if not Path(lwirange.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"lwirange imported from {lwirange.__file__}, not {src}")


def _profile_metrics(prof):
    stats = pstats.Stats(prof).stats
    out = {}
    for metric, func, stat in PROFILE:
        rows = [v for (fname, _, name), v in stats.items()
                if name == func and "lwirange" in fname]
        if stat == "calls":
            out[metric] = (float(sum(r[1] for r in rows)), "count")
        else:
            out[metric] = (float(sum(r[2 if stat == "self" else 3] for r in rows)), "s")
    return out


def replay(root, wl, seed, work, cli_metrics, spans_path):
    """Per-layer metrics of the workload, as {name: (value, unit)}."""
    _import_program(root)
    from lwirange import (atmosphere, closed_form, cube_io, evaluation,
                          forward_model, hyperspectral, radiometry)

    tr = Tracer()
    m = {}
    s = wl.size
    air = radiometry.Temperature(295.0)
    work = Path(work) / "replay"
    work.mkdir(parents=True, exist_ok=True)

    with tr.span("replay", workload=f"{s}x{s}"):
        with tr.span("atmosphere"):
            grid = atmosphere.make_default_grid()
            params = atmosphere.AtmosphereParams(air_temperature=air)
            t, alpha = tr.timed("synth_attenuation",
                                lambda: atmosphere.synth_attenuation(params, grid))
            m["atmosphere.synth_attenuation_s"] = (t, "s")
            t, dw = tr.timed("synth_downwelling", lambda: atmosphere.synth_downwelling(
                params, grid, atmosphere.DEFAULT_ZENITH_ANGLES))
            m["atmosphere.synth_downwelling_s"] = (t, "s")
            atmosphere.save_downwelling(work / "downwelling", dw)
            t, _ = tr.timed("load_downwelling",
                            lambda: atmosphere.load_downwelling(work / "downwelling"))
            m["atmosphere.load_downwelling_s"] = (t, "s")

        p, k = s * s, len(grid)
        scene_seed = pipeline.scene_seed(seed, 0)
        with tr.span("forward_model", pixels=p, bands=k):
            t, truth = tr.timed("make_default_scene", lambda: forward_model.make_default_scene(
                grid, q=len(dw), air_temperature=air, rows=s, cols=s))
            m["forward_model.make_default_scene_s"] = (t, "s")
            b_air = radiometry.planck(grid.wavelengths, air.kelvin)
            batch = (grid.wavelengths, alpha.values, truth.distance_map.reshape(p),
                     truth.temperature_map.reshape(p), truth.emissivity_cube.reshape(p, k),
                     truth.solid_angle_maps.reshape(p, -1), dw.values,
                     truth.ground_ambient.reshape(p, k), b_air)
            t, _ = tr.timed("radiance_model_batch",
                            lambda: forward_model.radiance_model_batch(*batch), values=p * k)
            m["forward_model.radiance_model_batch.ns_per_value"] = (t / (p * k) * 1e9, "ns")

            def synth(sigma):
                return forward_model.synthesize_cube(truth, alpha, dw, air,
                                                     noise_sigma=sigma, rng_seed=scene_seed)

            t1, cube = tr.timed("synthesize_cube", lambda: synth(1.0))
            t0, _ = tr.timed("synthesize_cube.noiseless", lambda: synth(0.0))
            m["forward_model.synthesize_cube_s"] = (t1, "s")
            m["forward_model.synthesize_cube.noise_s"] = (t1 - t0, "s")
            m["forward_model.synthesize_cube.alloc_peak_mb"] = (
                alloc_peak_mb(lambda: synth(1.0)), "MB")

        with tr.span("cube_io"):
            cpath, tdir, edir = work / "cube.lwc", work / "truth", work / "est"
            t, _ = tr.timed("save_scene_cube", lambda: cube_io.save_scene_cube(cpath, cube))
            m["cube_io.save_scene_cube_s"] = (t, "s")
            t, _ = tr.timed("save_scene_truth", lambda: cube_io.save_scene_truth(
                tdir, truth, grid, zenith_angles_deg=dw.zenith_angles_deg))
            m["cube_io.save_scene_truth_s"] = (t, "s")
            t, cube = tr.timed("load_scene_cube", lambda: cube_io.load_scene_cube(cpath),
                               bytes=cpath.stat().st_size)
            m["cube_io.load_scene_cube_s"] = (t, "s")
            m["cube_io.load_scene_cube.mb_per_s"] = (cpath.stat().st_size / MIB / t, "MB/s")
            m["cube_io.load_scene_cube.alloc_peak_mb"] = (
                alloc_peak_mb(lambda: cube_io.load_scene_cube(cpath)), "MB")
            t, _ = tr.timed("load_scene_truth", lambda: cube_io.load_scene_truth(tdir))
            m["cube_io.load_scene_truth_s"] = (t, "s")
            m["cube_io.load_scene_truth.alloc_peak_mb"] = (
                alloc_peak_mb(lambda: cube_io.load_scene_truth(tdir)), "MB")
            zeros = np.zeros((s, s))
            truth_maps = hyperspectral.EstimateMaps(
                distance=truth.distance_map, temperature=truth.temperature_map,
                emissivity=truth.emissivity_cube, solid_angles=truth.solid_angle_maps,
                loss=zeros, iterations=zeros.astype(np.int64))
            t, _ = tr.timed("save_estimates", lambda: cube_io.save_estimates(
                edir, truth_maps, grid=grid, zenith_angles_deg=dw.zenith_angles_deg))
            m["cube_io.save_estimates_s"] = (t, "s")
            t, _ = tr.timed("load_estimates", lambda: cube_io.load_estimates(edir))
            m["cube_io.load_estimates_s"] = (t, "s")

        regions = ref.regions({"distance": truth.distance_map,
                               "emissivity": truth.emissivity_cube})
        with tr.span("closed_form", pixels=p):
            bands = closed_form.BandSelection.from_grid(cube.grid)
            t, t_air = tr.timed("estimate_air_temperature", lambda: (
                closed_form.estimate_air_temperature(cube, lambda_sat=bands.lambda_sat)))
            m["closed_form.estimate_air_temperature_s"] = (t, "s")
            t, slope = tr.timed("fit_ozone_slope",
                                lambda: closed_form.fit_ozone_slope(dw, bands))
            m["closed_form.fit_ozone_slope_s"] = (t, "s")
            estimators = {
                "bi-hot": lambda: closed_form.bispectral_hot(cube, bands, alpha),
                "bi-air": lambda: closed_form.bispectral_air(cube, bands, alpha, t_air),
                "quad": lambda: closed_form.quadspectral(cube, bands, alpha, t_air, slope),
            }
            maps = {}
            for mode, fn in estimators.items():
                t, rm = tr.timed(mode, fn)
                maps[mode] = rm
                m[f"closed_form.{mode}_s"] = (t, "s")
                m[f"closed_form.{mode}.valid_px"] = (float(rm.valid_mask.sum()), "count")
                # over every pixel with a value, clipped ones too: bi-hot clips
                # every eps = 0.6 cell, which would leave no valid pixel
                m[f"closed_form.{mode}.mae_panel60_m"] = (ref.region_mae(
                    rm.distances, np.isfinite(rm.distances), truth.distance_map,
                    regions["panel60"]), "m")

        # the solver's image: the whole image, or a sample of a large one
        stride = max(1, s // SOLVER_SAMPLE) if s > 32 else 1
        sl = (slice(None, None, stride), slice(None, None, stride))
        scube = forward_model.SceneCube(cube.radiance[sl], cube.grid,
                                        cube.air_temperature, cube.noise_sigma)
        sp = scube.radiance.shape[0] * scube.radiance.shape[1]

        with tr.span("radiometry"):
            rng = np.random.default_rng(seed)
            temps = rng.uniform(280.0, 310.0, size=(14 * sp, 1))
            t, _ = tr.timed("planck", lambda: radiometry.planck(grid.wavelengths, temps),
                            values=14 * sp * k)
            m["radiometry.planck.ns_per_value"] = (t / (14 * sp * k) * 1e9, "ns")
            isat = bands.index_sat
            rad = cube.radiance[:, :, isat].reshape(-1)
            lam = np.full(rad.size, grid.wavelengths[isat])
            t, _ = tr.timed("brightness_temperature",
                            lambda: radiometry.brightness_temperature(lam, rad), values=p)
            m["radiometry.brightness_temperature.ns_per_value"] = (t / p * 1e9, "ns")

        with tr.span("hyperspectral", pixels=sp):
            solver_metrics, est = _solver_layer(tr, hyperspectral, closed_form, wl, scube,
                                                alpha, dw, truth, sl, cli_metrics)
            m.update(solver_metrics)

        if wl.headline == "hyper":
            head, tmap = est.distance, truth.distance_map[sl]
        else:
            head, tmap = maps[wl.headline], truth.distance_map
        with tr.span("evaluation"):
            patches = evaluation.default_patches(tmap.shape, pipeline.PATCH)
            t, _ = tr.timed("patch_stats",
                            lambda: evaluation.patch_stats(head, tmap, patches))
            m["evaluation.patch_stats_s"] = (t, "s")
            t, _ = tr.timed("render_map", lambda: evaluation.render_map(
                head, "gray", work / "range.pgm"))
            m["evaluation.render_map_s"] = (t, "s")

    m["trace.spans"] = (float(len(tr.spans)), "count")
    tr.write(spans_path)
    return m


def _solver_layer(tr, hs, cf, wl, scube, alpha, dw, truth, sl, cli_metrics):
    """Solver metrics on scube (truth sampled by sl), and the traced estimate."""
    m = {}
    m_, n_, k = scube.radiance.shape
    p = m_ * n_
    t_air = cf.estimate_air_temperature(scube)
    cfg = hs.SolverConfig(threads=1)
    # tracing overhead: one warm-up and one refine iteration, traced against untraced
    quick = replace(cfg, warmup_iterations=1, refine_iterations=1, polish_rounds=0,
                    armijo_iterations=0)
    # two warm-up iterations with the range block unfrozen run every block at
    # the full solve's batch size: the allocation peak matches the full
    # solve's (49.6 MiB at 16 x 16)
    short = replace(quick, warmup_iterations=2, warmup_d_freeze=0)

    t0 = time.perf_counter()
    hs.solve(scube, alpha, dw, t_air, config=quick)
    plain = time.perf_counter() - t0
    prof = cProfile.Profile()
    with tr.span("solve.quick", pixels=p) as rec:
        prof.enable()
        hs.solve(scube, alpha, dw, t_air, config=quick)
        prof.disable()
    m["trace.solve_overhead"] = ((rec["end"] - rec["start"]) / plain, "ratio")
    m["hyperspectral.solve.alloc_peak_mb"] = (alloc_peak_mb(
        lambda: hs.solve(scube, alpha, dw, t_air, config=short)), "MB")

    prof = cProfile.Profile()
    with tr.span("solve", pixels=p) as rec:
        prof.enable()
        est = hs.solve(scube, alpha, dw, t_air, config=cfg)
        prof.disable()
    t1 = rec["end"] - rec["start"]
    m.update(_profile_metrics(prof))
    m["hyperspectral.solve_s"] = (t1, "s")
    m["hyperspectral.solve.px"] = (float(p), "count")
    m["hyperspectral.solve.ms_per_px"] = (t1 / p * 1e3, "ms")
    if wl.headline == "hyper":
        t2 = cli_metrics["cli.range.headline_s"][0]
    else:
        with tr.span("solve.threads2", pixels=p) as rec:
            hs.solve(scube, alpha, dw, t_air,
                     config=replace(cfg, threads=pipeline.HYPER_THREADS))
        t2 = rec["end"] - rec["start"]
    m["hyperspectral.solve.two_thread_s"] = (t2, "s")
    m["hyperspectral.solve.parallel_efficiency"] = (t1 / (2.0 * t2), "ratio")

    t, _ = tr.timed("data_loss", lambda: hs.data_loss(est, scube, alpha, dw, t_air))
    m["hyperspectral.data_loss_s"] = (t, "s")
    t, _ = tr.timed("gradients", lambda: hs.gradients(est, scube, alpha, dw, t_air,
                                                       cfg.rho_eps))
    m["hyperspectral.gradients_s"] = (t, "s")
    t, _ = tr.timed("project", lambda: hs.project(est, cfg.d_max))
    m["hyperspectral.project_s"] = (t, "s")

    # outcomes, against the reference objective at the truth
    y = scube.radiance.reshape(p, k)
    wav, av = scube.grid.wavelengths, alpha.values
    at_truth = ref.objective(
        y, wav, av, truth.distance_map[sl].reshape(p), truth.temperature_map[sl].reshape(p),
        truth.emissivity_cube[sl].reshape(p, k), truth.solid_angle_maps[sl].reshape(p, -1),
        dw.values, ref.planck(wav, t_air.kelvin), cfg.rho_eps)
    loss = est.loss.reshape(p)
    budget = min(cfg.refine_iterations, cfg.max_iterations)
    m["hyperspectral.solve.loss_total"] = (float(loss.sum()), "uflick2")
    m["hyperspectral.solve.reduced_chi2"] = (
        float(loss.sum()) / (k * scube.noise_sigma ** 2 * p), "ratio")
    m["hyperspectral.solve.iterations_mean"] = (float(est.iterations.mean()), "count")
    m["hyperspectral.solve.at_budget_px"] = (float((est.iterations == budget).sum()), "count")
    m["hyperspectral.solve.above_truth_px"] = (float((loss > at_truth).sum()), "count")
    return m, est
