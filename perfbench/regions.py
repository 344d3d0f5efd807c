"""Per-region range error of every estimator on one default panel scene.

    python3 perfbench/regions.py --size 16 --seed 0

Runs the CLI estimators bi-hot, bi-air, quad, hyper and hyper without sky
reflection (`range --mode hyper --q 0`, the "reflection not modelled" case)
and prints the mean absolute error per region over valid pixels, with the
valid pixel count. `--no-hyper` skips both solves, for large images.
"""

from __future__ import annotations

import argparse
import os
import shutil
from pathlib import Path

import pipeline
import reference as ref

ROOT = Path(__file__).resolve().parent.parent

RUNS = (("bi-hot", ()), ("bi-air", ()), ("quad", ()), ("hyper", ()),
        ("hyper q=0", ("--q", 0)))


def _run(cli, *args):
    st = cli.run(*args)
    if not st.ok:
        raise SystemExit(f"lwirange {args[0]} failed:\n{cli.log.read_text()}")
    return st


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--no-hyper", action="store_true")
    args = ap.parse_args()
    work = Path(__file__).resolve().parent / "_work" / f"regions-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cli = pipeline.Cli(ROOT, work)
        _run(cli, "atmo", "--out", work / "atmo")
        _run(cli, "synth", "--atmo", work / "atmo", "--out", work / "scene",
             "--rows", args.size, "--cols", args.size,
             "--noise-sigma", pipeline.NOISE_SIGMA, "--seed", args.seed)
        truth = ref.read_truth(work / "scene")
        regions = ref.regions(truth)
        print(f"| estimator | {' | '.join(regions)} | wall s |")
        print("|---" * (len(regions) + 2) + "|")
        for name, extra in RUNS:
            mode = name.split()[0]
            if mode == "hyper" and args.no_hyper:
                continue
            out = work / name.replace(" ", "").replace("=", "")
            if mode != "hyper":
                out = out.with_suffix(".lwc")
            st = _run(cli, "range", "--cube", work / "scene" / "cube.lwc",
                      "--atmo", work / "atmo", "--out", out, "--mode", mode, *extra)
            dist, valid = pipeline.read_headline(out, mode)
            cells = []
            for region in regions.values():
                n = int((region & valid).sum())
                mae = ref.region_mae(dist, valid, truth["distance"], region)
                cells.append(f"{mae:.2f} ({n})" if n else f"- (0 of {int(region.sum())})")
            print(f"| {name} | {' | '.join(cells)} | {st.wall_s:.1f} |")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
