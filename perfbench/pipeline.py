"""The CLI pipeline atmo -> synth -> range -> eval -> render, run as child
processes and checked against reference.py.

A round sets up `setups` scenes (atmo + synth, each checked) and runs the
workload's range modes (each `repeats` times), eval and render on the first
of them. Each stage launch and each output check is one
operation; an operation whose input failed counts as failed without running,
so every round attempts the same operations.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import reference as ref

NOISE_SIGMA = 1.0
PATCH = 8
HYPER_THREADS = 2
# a child still running after this is killed and counted as failed
STAGE_TIMEOUT_S = 170.0


@dataclass(frozen=True)
class Workload:
    size: int           # image is size x size pixels
    modes: tuple        # range modes, headline last
    setups: int         # scenes set up per round; the first runs the pipeline
    repeats: int        # launches of each range stage

    @property
    def headline(self):
        return self.modes[-1]


WORKLOADS = {
    # four times the pixels of a 16 x 16 image, so the solver's warm-up
    # arrays spill out of a core's L2; the hyper stage runs HYPER_THREADS
    # row-split threads
    "hyper32-t2": Workload(32, ("bi-air", "quad", "hyper"), 7, 1),
    # simulator and I/O scale, closed-form estimators only; its half-second
    # range stages vary by +-30% from launch to launch on a shared machine,
    # so each is launched seven times
    "quad512": Workload(512, ("bi-hot", "bi-air", "quad"), 3, 7),
}


def scene_seed(seed, k):
    return seed * 16 + k


@dataclass
class Stage:
    wall_s: float
    rss_mb: float
    ok: bool


class Cli:
    """Runs `python -m lwirange.cli` from the checkout's src/ in child processes."""

    def __init__(self, root, work):
        self.work = Path(work)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("LWIRANGE_")}
        src = str(Path(root) / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.log = self.work / "stages.log"

    def run(self, *args):
        cmd = [sys.executable, "-m", "lwirange.cli", *map(str, args)]
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdout=log, stderr=log,
                                    cwd=self.work)
            killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Stage(wall, usage.ru_maxrss / 1024.0, proc.returncode == 0)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def stage(self, name, result):
        self.attempted += 1
        if not result.ok:
            self.failed += 1
            self.failures.append(f"stage {name} failed")
        return result

    def check(self, name, fn, *args):
        """Run one output check; an exception counts as a failed check."""
        self.attempted += 1
        try:
            ok, detail = fn(*args)
        except Exception as exc:  # a malformed output must not stop the run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name}: {detail}")
        return ok

    def skip(self, name, count=1):
        self.attempted += count
        self.failed += count
        self.failures.append(f"{name}: skipped after an earlier failure")


@dataclass
class Samples:
    """Per-stage timings and pooled region errors of one run."""

    setup_s: list = field(default_factory=list)
    synth_s: list = field(default_factory=list)
    synth_rss: list = field(default_factory=list)
    complete: bool = False      # a scene ran the whole pipeline
    range_s: dict = field(default_factory=dict)
    range_rss: dict = field(default_factory=dict)
    eval_s: list = field(default_factory=list)
    eval_rss: list = field(default_factory=list)
    render_s: list = field(default_factory=list)
    render_rss: list = field(default_factory=list)
    err_sum: dict = field(default_factory=dict)
    err_n: dict = field(default_factory=dict)

    def add_errors(self, dist, valid, truth, regions):
        for name, region in regions.items():
            sel = region & valid
            self.err_sum[name] = self.err_sum.get(name, 0.0) + float(
                np.abs(dist[sel].astype(np.float64) - truth[sel]).sum())
            self.err_n[name] = self.err_n.get(name, 0) + int(sel.sum())

    def mae(self, name):
        return self.err_sum[name] / self.err_n[name]


def _out_path(work, mode):
    return work / ("hyper" if mode == "hyper" else f"{mode}.lwc")


def read_headline(path, mode):
    """(values, valid) of a range output as eval and render read it."""
    if mode == "hyper":
        d = ref.read_lwc(Path(path) / "distance.lwc")[1]
        return d, np.isfinite(d)
    _, d, flags = ref.read_lwc(path)
    return d, flags == ref.FLAG_VALID


def _check_count(mode):
    return 2 if mode == "hyper" else 1


def image_ops(wl):
    """Operations of one image: each launch of a range stage and its checks,
    the ordering check, and eval and render with one check each."""
    return wl.repeats * sum(1 + _check_count(m) for m in wl.modes) + 1 + 4


def _check_range(tally, mode, out, cube, atmo, t_air, slope, truth):
    if mode == "hyper":
        ok = tally.check("hyper feasibility", checks.check_hyper_feasible, out, t_air)
        return tally.check("hyper objective", checks.check_hyper_objective,
                           out, cube, atmo, t_air, truth) and ok
    return tally.check(f"{mode} map", checks.check_closed_form, out, mode,
                       cube, atmo, t_air, slope)


def run_image(cli, wl, work, atmo_dir, scene, tally, samples):
    """Range, eval and render on one scene, with their output checks."""
    atmo = ref.read_atmo(atmo_dir)
    _, cube, _ = ref.read_lwc(scene / "cube.lwc")
    truth = ref.read_truth(scene)
    regions = ref.regions(truth)
    t_air = ref.air_temperature(cube, atmo[0])
    slope = ref.ozone_slope(atmo[3], atmo[0])

    panel60 = {}
    for mode in wl.modes:
        out = _out_path(work, mode)
        extra = ("--threads", HYPER_THREADS) if mode == "hyper" else ()
        good = 0
        for _ in range(wl.repeats):
            st = tally.stage(f"range {mode}", cli.run(
                "range", "--cube", scene / "cube.lwc", "--atmo", atmo_dir,
                "--out", out, "--mode", mode, *extra))
            samples.range_s.setdefault(mode, []).append(st.wall_s)
            samples.range_rss.setdefault(mode, []).append(st.rss_mb)
            if not st.ok:
                tally.skip(f"checks of {mode}", _check_count(mode))
            elif _check_range(tally, mode, out, cube, atmo, t_air, slope, truth):
                good += 1
        if good < wl.repeats:
            continue
        dist, valid = read_headline(out, mode)
        panel60[mode] = ref.region_mae(dist, valid, truth["distance"], regions["panel60"])
        if mode == wl.headline:
            samples.add_errors(dist, valid, truth["distance"], regions)

    tally.check("paper ordering", checks.check_ordering, panel60)
    if wl.headline not in panel60:
        tally.skip("eval and render", 4)
        return
    head = _out_path(work, wl.headline)
    values, valid = read_headline(head, wl.headline)
    st = tally.stage("eval", cli.run("eval", "--est", head, "--truth", scene,
                                      "--out", work / "stats.csv", "--patches", PATCH))
    samples.eval_s.append(st.wall_s)
    samples.eval_rss.append(st.rss_mb)
    if st.ok:
        tally.check("eval csv", checks.check_eval, work / "stats.csv", values,
                    valid, truth["distance"], PATCH)
    else:
        tally.skip("check eval")
    st = tally.stage("render", cli.run("render", "--map", head, "--out", work / "range.pgm"))
    samples.render_s.append(st.wall_s)
    samples.render_rss.append(st.rss_mb)
    if st.ok:
        tally.check("render pgm", checks.check_render, work / "range.pgm", values, valid)
    else:
        tally.skip("check render")
    samples.complete = True


def run_round(cli, wl, seed, work, tally, samples):
    for k in range(wl.setups):
        sdir = work / f"setup{k}"
        sdir.mkdir(parents=True, exist_ok=True)
        atmo_dir, scene = sdir / "atmo", sdir / "scene"
        a = tally.stage("atmo", cli.run("atmo", "--out", atmo_dir))
        if a.ok:
            s = tally.stage("synth", cli.run(
                "synth", "--atmo", atmo_dir, "--out", scene, "--rows", wl.size,
                "--cols", wl.size, "--noise-sigma", NOISE_SIGMA,
                "--seed", scene_seed(seed, k)))
        else:
            tally.skip("synth")
            s = Stage(0.0, 0.0, False)
        if a.ok and s.ok:
            samples.setup_s.append(a.wall_s + s.wall_s)
            samples.synth_s.append(s.wall_s)
            samples.synth_rss.append(s.rss_mb)
            ok = tally.check("synth cube", checks.check_synth, scene,
                             ref.read_atmo(atmo_dir), NOISE_SIGMA)
        else:
            tally.skip("check synth")
            ok = False
        if k == 0:
            if ok:
                run_image(cli, wl, sdir, atmo_dir, scene, tally, samples)
            else:
                tally.skip("pipeline", image_ops(wl))
        shutil.rmtree(sdir, ignore_errors=True)


def end_to_end(wl, samples):
    med = statistics.median
    head = wl.headline
    # one pass through every stage, each at its median wall time
    pipeline_s = (med(samples.setup_s) + med(samples.eval_s) + med(samples.render_s)
                  + sum(med(samples.range_s[m]) for m in wl.modes))
    return {
        "setup_s": (med(samples.setup_s), "s"),
        "setup_peak_rss_mb": (med(samples.synth_rss), "MB"),
        "pipeline_s": (pipeline_s, "s"),
        "range_px_per_s": (wl.size ** 2 / med(samples.range_s[head]), "px/s"),
        "range_peak_rss_mb": (med(samples.range_rss[head]), "MB"),
        "mae_panel60_m": (samples.mae("panel60"), "m"),
        "mae_panel90_m": (samples.mae("panel90"), "m"),
        "mae_near_m": (samples.mae("near"), "m"),
        "mae_far_m": (samples.mae("far"), "m"),
    }


def cli_layer(cli, wl, samples):
    """cli.* per-layer metrics from the child-process timings of the round."""
    med = statistics.median
    startup = med(cli.run("config-dump").wall_s for _ in range(3))
    out = {
        "cli.startup_s": (startup, "s"),
        "cli.synth_s": (med(samples.synth_s), "s"),
        "cli.synth.peak_rss_mb": (med(samples.synth_rss), "MB"),
    }
    for name, mode in (("bi-air", "bi-air"), ("quad", "quad"), ("headline", wl.headline)):
        out[f"cli.range.{name}_s"] = (med(samples.range_s[mode]), "s")
        out[f"cli.range.{name}.peak_rss_mb"] = (med(samples.range_rss[mode]), "MB")
    for name, t, r in (("eval", samples.eval_s, samples.eval_rss),
                       ("render", samples.render_s, samples.render_rss)):
        out[f"cli.{name}_s"] = (med(t), "s")
        out[f"cli.{name}.peak_rss_mb"] = (med(r), "MB")
    return out
