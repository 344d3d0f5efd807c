"""Benchmark of the lwirange CLI pipeline, end to end and per layer.

    python3 perfbench/run.py --workload hyper32-t2 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Runs whole rounds of the workload's pipeline (see pipeline.py) until
--seconds have passed, checks every output against reference.py, and prints
one JSON object as the last line of standard output: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1 (see traced.py). With
`--workload all` it runs every workload, lists each metric by name and unit,
and ends with one JSON object keyed by workload. Run from the root of a
source checkout; the program is taken from its src/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

import pipeline
import traced

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "_work"


def _result(tally, metrics):
    return {
        "correct": not any(f.startswith("check ") for f in tally.failures),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }


def run_workload(name, seed, seconds, trace):
    """The result object of one workload, or None when no scene got through."""
    wl = pipeline.WORKLOADS[name]
    if trace:
        # the traced run needs one pass of each stage for its cli.* timings;
        # the replay after it is the long part
        wl = replace(wl, setups=1, repeats=1)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cli = pipeline.Cli(ROOT, work)
        tally = pipeline.Tally()
        samples = pipeline.Samples()
        t0 = time.perf_counter()
        while True:
            pipeline.run_round(cli, wl, seed, work, tally, samples)
            if time.perf_counter() - t0 >= seconds:
                break
        for line in tally.failures:
            print(f"{name}: {line}", file=sys.stderr)
        if not samples.complete:
            print(f"error: {name}: no scene ran the whole pipeline", file=sys.stderr)
            return None
        if trace:
            metrics = pipeline.cli_layer(cli, wl, samples)
            spans = WORK / f"spans-{name}-{seed}.json"
            metrics.update(traced.replay(ROOT, wl, seed, work, metrics, spans))
        else:
            metrics = pipeline.end_to_end(wl, samples)
        return _result(tally, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(pipeline.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "lwirange" / "cli.py").is_file():
        print(f"error: no lwirange sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    results = {}
    for name in pipeline.WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric} {v['value']:.6g} {v['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
