"""Tests of the benchmark itself: the reference Planck value, and that every
output check passes on real CLI output and fails on a corrupted copy.

    python3 perfbench/selftest.py

Builds a 4 x 4 scene with the CLI under _work/ and removes it afterwards.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import sys
import unittest
from pathlib import Path

import numpy as np

import checks
import pipeline
import reference as ref

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "_work" / f"selftest-{os.getpid()}"
SIZE = 4


def write_lwc(path, header, values, flags=None):
    hj = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = np.asarray(values, dtype="<f4").tobytes()
    if flags is not None:
        body += np.asarray(flags, dtype=np.uint8).tobytes()
    Path(path).write_bytes(b"LWC1" + struct.pack("<I", len(hj)) + hj + body)


def copy_tree(src, name):
    dst = WORK / name
    shutil.copytree(src, dst)
    return dst


def setUpModule():
    WORK.mkdir(parents=True)
    cli = pipeline.Cli(ROOT, WORK)
    runs = [("atmo", "--out", WORK / "atmo")]
    for sigma, name in ((1, "scene"), (2, "scene2")):
        runs.append(("synth", "--atmo", WORK / "atmo", "--out", WORK / name,
                     "--rows", SIZE, "--cols", SIZE, "--noise-sigma", sigma, "--seed", 3))
    for mode in ("bi-air", "quad"):
        runs.append(("range", "--cube", WORK / "scene" / "cube.lwc", "--atmo", WORK / "atmo",
                     "--out", WORK / f"{mode}.lwc", "--mode", mode))
    runs.append(("range", "--cube", WORK / "scene" / "cube.lwc", "--atmo", WORK / "atmo",
                 "--out", WORK / "hyper", "--mode", "hyper"))
    for args in runs:
        if not cli.run(*args).ok:
            raise RuntimeError(f"lwirange {args[0]} failed; see {cli.log}")


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)


class Fixture(unittest.TestCase):
    def setUp(self):
        self.atmo = ref.read_atmo(WORK / "atmo")
        _, self.cube, _ = ref.read_lwc(WORK / "scene" / "cube.lwc")
        self.truth = ref.read_truth(WORK / "scene")
        self.t_air = ref.air_temperature(self.cube, self.atmo[0])
        self.slope = ref.ozone_slope(self.atmo[3], self.atmo[0])


class ReferenceTest(unittest.TestCase):
    def test_planck_at_10um_300k(self):
        self.assertAlmostEqual(ref.planck(10.0, 300.0), 992.4033330070695, delta=1e-10)

    def test_brightness_temperature_inverts_planck(self):
        self.assertAlmostEqual(ref.brightness_temperature(10.0, 992.4033330070695),
                               300.0, delta=1e-9)


class SynthCheckTest(Fixture):
    def test_passes_on_cli_output(self):
        ok, detail = checks.check_synth(WORK / "scene", self.atmo, 1.0)
        self.assertTrue(ok, detail)

    def test_fails_on_sigma2_noise_labelled_sigma1(self):
        scene = copy_tree(WORK / "scene2", "scene2-relabelled")
        header, values, _ = ref.read_lwc(scene / "cube.lwc")
        header["noise_sigma"] = 1.0
        write_lwc(scene / "cube.lwc", header, values)
        ok, detail = checks.check_synth(scene, self.atmo, 1.0)
        self.assertFalse(ok, detail)


class ClosedFormCheckTest(Fixture):
    def test_passes_on_cli_output(self):
        for mode in ("bi-air", "quad"):
            ok, detail = checks.check_closed_form(WORK / f"{mode}.lwc", mode, self.cube,
                                                  self.atmo, self.t_air, self.slope)
            self.assertTrue(ok, detail)

    def test_fails_on_map_shifted_by_1m(self):
        header, values, flags = ref.read_lwc(WORK / "quad.lwc")
        path = WORK / "quad-shifted.lwc"
        write_lwc(path, header, values + 1.0, flags)
        ok, detail = checks.check_closed_form(path, "quad", self.cube, self.atmo,
                                              self.t_air, self.slope)
        self.assertFalse(ok, detail)


class HyperCheckTest(Fixture):
    def test_passes_on_cli_output(self):
        ok, detail = checks.check_hyper_feasible(WORK / "hyper", self.t_air)
        self.assertTrue(ok, detail)
        ok, detail = checks.check_hyper_objective(WORK / "hyper", self.cube, self.atmo,
                                                  self.t_air, self.truth)
        self.assertTrue(ok, detail)

    def test_objective_fails_on_distance_shifted_by_1m(self):
        est = copy_tree(WORK / "hyper", "hyper-shifted")
        header, values, flags = ref.read_lwc(est / "distance.lwc")
        write_lwc(est / "distance.lwc", header, values + 1.0, flags)
        ok, detail = checks.check_hyper_objective(est, self.cube, self.atmo,
                                                  self.t_air, self.truth)
        self.assertFalse(ok, detail)

    def test_feasibility_fails_on_emissivity_above_1(self):
        est = copy_tree(WORK / "hyper", "hyper-eps")
        header, values, _ = ref.read_lwc(est / "emissivity.lwc")
        bad = values.copy()
        bad[1, 2, 5] = 1.2
        write_lwc(est / "emissivity.lwc", header, bad)
        ok, detail = checks.check_hyper_feasible(est, self.t_air)
        self.assertFalse(ok, detail)


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1], verbosity=2)
