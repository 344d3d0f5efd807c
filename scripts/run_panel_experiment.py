#!/usr/bin/env python3
"""Run every range estimator on the default panel scene and tabulate errors.

Writes patch statistics per estimator (CSV) plus rendered range maps into
--out, and prints a compact table of panel / background errors.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from lwirange import (
    AtmosphereParams,
    BandSelection,
    SolverConfig,
    Temperature,
    bispectral_air,
    bispectral_hot,
    default_panel_masks,
    estimate_air_temperature,
    fit_ozone_slope,
    make_default_grid,
    make_default_scene,
    quadspectral,
    render_map,
    solve,
    synth_attenuation,
    synth_downwelling,
    synthesize_cube,
)
from lwirange.atmosphere import DEFAULT_ZENITH_ANGLES
from lwirange.closed_form import FLAG_VALID


def patch_line(name, distances, valid, mask, truth):
    ok = mask & valid
    if not ok.any():
        return f"{name:<10} all pixels flagged"
    est = distances[ok]
    t = float(np.median(truth[mask]))
    return (f"{name:<10} mean {est.mean():7.2f} m   std {est.std():6.2f}   "
            f"truth {t:6.2f}   err {abs(est.mean() - t) / t:7.2%}   "
            f"n={int(ok.sum())}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=32)
    ap.add_argument("--cols", type=int, default=32)
    ap.add_argument("--noise-sigma", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--skip-hyper", action="store_true",
                    help="closed-form estimators only")
    ap.add_argument("--out", default=None, help="directory for maps and CSVs")
    args = ap.parse_args(argv)

    air = Temperature(295.0)
    grid = make_default_grid()
    params = AtmosphereParams(air_temperature=air)
    alpha = synth_attenuation(params, grid)
    dw = synth_downwelling(params, grid, DEFAULT_ZENITH_ANGLES)
    truth = make_default_scene(grid, q=len(dw), air_temperature=air,
                               rows=args.rows, cols=args.cols)
    cube = synthesize_cube(truth, alpha, dw, air,
                           noise_sigma=args.noise_sigma, rng_seed=args.seed)
    panel, eps60, eps90 = default_panel_masks(args.rows, args.cols)
    background = ~panel

    bands = BandSelection.from_grid(grid)
    t_air = estimate_air_temperature(cube, lambda_sat=bands.lambda_sat)
    slope = fit_ozone_slope(dw, bands)
    print(f"scene {args.rows}x{args.cols}x{len(grid.wavelengths)}  "
          f"noise {args.noise_sigma} microflick  seed {args.seed}")
    print(f"estimated air temperature {t_air.kelvin:.3f} K  "
          f"ozone slope {slope.s:.4f}")

    results = {}
    t0 = time.perf_counter()
    results["bi-hot"] = bispectral_hot(cube, bands, alpha)
    results["bi-air"] = bispectral_air(cube, bands, alpha, t_air)
    results["quad"] = quadspectral(cube, bands, alpha, t_air, slope)
    print(f"closed-form estimators: {time.perf_counter() - t0:.2f}s")

    maps = {name: (rm.distances, rm.validity == FLAG_VALID)
            for name, rm in results.items()}

    if not args.skip_hyper:
        t0 = time.perf_counter()
        est = solve(cube, alpha, dw, t_air, SolverConfig(threads=args.threads))
        print(f"full-spectrum solver:   {time.perf_counter() - t0:.2f}s "
              f"({args.threads} thread{'s' if args.threads > 1 else ''})")
        maps["hyper"] = (est.distance, np.ones_like(panel, dtype=bool))

    for region, mask in (("shiny panel cells (eps=0.6)", eps60),
                         ("dull panel cells (eps=0.9)", eps90),
                         ("background", background)):
        print(f"\n{region}:")
        for name, (distances, valid) in maps.items():
            print("  " + patch_line(name, distances, valid, mask,
                                    truth.distance_map))

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        lo, hi = truth.distance_map.min(), truth.distance_map.max()
        for name, (distances, valid) in maps.items():
            d = np.where(valid, distances, np.nan)
            render_map(d, "fire", out / f"{name}.ppm", vmin=lo, vmax=hi)
        render_map(truth.distance_map, "fire", out / "truth.ppm",
                   vmin=lo, vmax=hi)
        print(f"\nwrote maps to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
