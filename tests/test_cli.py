"""Command-line layering, validation, and the end-to-end file pipeline."""

import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lwirange.atmosphere import AttenuationSpectrum, load_downwelling, load_spectrum
from lwirange.cli import main, resolve_settings, build_parser
from lwirange.closed_form import (
    BandSelection,
    bispectral_air,
    bispectral_hot,
    estimate_air_temperature,
    fit_ozone_slope,
    quadspectral,
)
from lwirange.cube_io import (
    load_estimates,
    load_scene_cube,
    read_cube,
    save_range_map,
    save_scene_cube,
    save_scene_truth,
)
from lwirange.errors import LwirError
from lwirange.forward_model import make_default_scene, synthesize_cube
from lwirange.hyperspectral import solve_no_sky
from lwirange.radiometry import DB_PER_M
from helpers import AIR, poke_cube


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def dump(capsys, argv=()):
    code, out, err = run(capsys, ["config-dump", *argv])
    assert code == 0, err
    return dict(line.split("=", 1) for line in out.strip().splitlines())


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    # keep ambient LWIRANGE_* variables out of the layering tests
    for name in list(os.environ):
        if name.startswith("LWIRANGE_"):
            monkeypatch.delenv(name)
    return monkeypatch


class TestLayering:
    def test_defaults(self, capsys):
        s = dump(capsys)
        assert s["mode"] == "hyper"
        assert s["seed"] == "0"
        assert s["threads"] == "1"
        assert s["q"] == "none"
        assert s["rho_eps"] == "100000.0"
        assert s["d_max"] == "200.0"
        assert s["palette"] == "gray"

    def test_config_file_overrides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("# comment\n\nseed=5\nmode=quad\n")
        s = dump(capsys, ["--config", str(cfg)])
        assert s["seed"] == "5" and s["mode"] == "quad"

    def test_env_overrides_config(self, capsys, tmp_path, clean_env):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("seed=5\nmode=quad\n")
        clean_env.setenv("LWIRANGE_SEED", "7")
        s = dump(capsys, ["--config", str(cfg)])
        assert s["seed"] == "7"
        assert s["mode"] == "quad"  # untouched layer survives

    def test_flag_overrides_env(self, capsys, clean_env):
        clean_env.setenv("LWIRANGE_SEED", "7")
        s = dump(capsys, ["--seed", "9"])
        assert s["seed"] == "9"

    def test_none_literal_clears_a_value(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("vmin=3.5\n")
        s = dump(capsys, ["--config", str(cfg), "--vmin", "none"])
        assert s["vmin"] == "none"

    def test_bands_roundtrip_through_dump(self, capsys):
        s = dump(capsys, ["--bands", "8.42,8.46,9.49,9.57,13.0"])
        assert s["bands"] == "8.42,8.46,9.49,9.57,13.0"

    def test_resolve_settings_accepts_env_mapping(self):
        args = build_parser().parse_args(["config-dump"])
        s = resolve_settings(args, environ={"LWIRANGE_THREADS": "4"})
        assert s["threads"] == 4


class TestValidation:
    def test_violations_are_aggregated_one_line_exit_2(self, capsys):
        code, out, err = run(capsys, ["config-dump", "--threads", "0",
                                      "--noise-sigma", "-1"])
        assert code == 2
        assert err.startswith("error[ConfigError]: ")
        assert err.count("\n") == 1
        assert "threads" in err and "noise_sigma" in err

    def test_unknown_env_key_rejected(self, capsys, clean_env):
        clean_env.setenv("LWIRANGE_BOGUS", "1")
        code, out, err = run(capsys, ["config-dump"])
        assert code == 2
        assert "env LWIRANGE_BOGUS: unknown key 'bogus'" in err

    def test_unknown_config_key_carries_path_and_line(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("seed=1\nzoom=3\n")
        code, out, err = run(capsys, ["config-dump", "--config", str(cfg)])
        assert code == 2
        assert f"{cfg}:2: unknown key 'zoom'" in err

    def test_malformed_config_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("justtext\n")
        code, out, err = run(capsys, ["config-dump", "--config", str(cfg)])
        assert code == 2
        assert "expected key=value" in err

    def test_unreadable_config_rejected(self, capsys, tmp_path):
        code, out, err = run(capsys, ["config-dump", "--config",
                                      str(tmp_path / "missing.ini")])
        assert code == 2
        assert "config: cannot read" in err

    def test_non_utf8_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"rows=4\n\xff=1\n")
        code, out, err = run(capsys, ["config-dump", "--config", str(cfg)])
        assert code == 2
        assert err.startswith("error[ConfigError]: ")
        assert "is not UTF-8 text" in err

    def test_bad_value_names_source_and_key(self, capsys, clean_env):
        clean_env.setenv("LWIRANGE_SEED", "abc")
        code, out, err = run(capsys, ["config-dump"])
        assert code == 2
        assert "env LWIRANGE_SEED: bad value for seed: 'abc'" in err

    def test_bad_mode_rejected(self, capsys):
        code, out, err = run(capsys, ["config-dump", "--mode", "sonar"])
        assert code == 2
        assert "mode must be one of" in err

    def test_vmin_vmax_ordering(self, capsys):
        code, out, err = run(capsys, ["config-dump", "--vmin", "5", "--vmax", "2"])
        assert code == 2
        assert "vmax must exceed vmin" in err

    def test_bands_need_distinct_water_pair(self, capsys):
        code, out, err = run(capsys, ["config-dump", "--bands",
                                      "8.42,8.42,9.49,9.57,13.0"])
        assert code == 2
        assert "first two band wavelengths must differ" in err


    @pytest.mark.parametrize("flag,value", [
        ("--noise-sigma", "nan"), ("--noise-sigma", "inf"), ("--rho-d", "nan"),
        ("--rho-eps", "nan"), ("--rho-eps", "inf"), ("--d-max", "inf"),
        ("--d-max", "nan"), ("--bands", "8.42,8.46,9.49,9.57,nan"),
        ("--vmin", "-inf"),
    ])
    def test_non_finite_value_rejected(self, capsys, flag, value):
        code, out, err = run(capsys, ["config-dump", f"{flag}={value}"])
        assert code == 2
        assert err.startswith("error[ConfigError]: ")
        assert "finite" in err and out == ""


class TestStartup:
    def test_importing_the_cli_leaves_out_the_process_pool(self):
        # every stage pays for what `import lwirange.cli` loads; only the
        # multi-block solve needs concurrent.futures (and its logging)
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, lwirange.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing')"
             " if m in sys.modules))"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]"


    def test_quad_range_and_eval_leave_out_numpy_ma(self, capsys, tmp_path):
        # np.median would import numpy.ma, about 20 ms of each launch
        atmo, scene = tmp_path / "atmo", tmp_path / "scene"
        assert run(capsys, ["atmo", "--out", str(atmo)])[0] == 0
        assert run(capsys, ["synth", "--atmo", str(atmo), "--out", str(scene),
                            "--rows", "8", "--cols", "8"])[0] == 0
        rm = str(tmp_path / "quad.lwc")
        stages = [["range", "--mode", "quad", "--cube", str(scene / "cube.lwc"),
                   "--atmo", str(atmo), "--out", rm],
                  ["eval", "--est", rm, "--truth", str(scene),
                   "--out", str(tmp_path / "stats.csv")]]
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; from lwirange.cli import main; "
             f"codes = [main(argv) for argv in {stages!r}]; "
             "print(codes, 'numpy.ma' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert out.strip().splitlines()[-1] == "[0, 0] False"


class TestUsageErrors:
    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys, [])[0] == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(capsys, ["sonar"])[0] == 2

    def test_missing_required_path_is_usage_error(self, capsys):
        assert run(capsys, ["synth"])[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, ["--help"])[0] == 0


class TestRuntimeErrors:
    def test_missing_cube_exits_1(self, capsys, tmp_path):
        code, out, err = run(capsys, [
            "range", "--cube", str(tmp_path / "nope.lwc"),
            "--atmo", str(tmp_path), "--out", str(tmp_path / "o.lwc")])
        assert code == 1
        assert err.startswith("error[")
        assert err.count("\n") == 1

    def test_malformed_cube_header_exits_1(self, capsys, tmp_path):
        cube = tmp_path / "cube.lwc"
        hj = b'{"kind":"cube","rows":"abc","cols":1,"bands":1}'
        cube.write_bytes(b"LWC1" + struct.pack("<I", len(hj)) + hj)
        code, out, err = run(capsys, [
            "range", "--cube", str(cube),
            "--atmo", str(tmp_path), "--out", str(tmp_path / "o.lwc")])
        assert code == 1
        assert err.startswith("error[FormatError]: rows must be an integer")
        assert err.count("\n") == 1

    def test_synth_rejects_q_that_does_not_match_atmo(self, capsys, tmp_path):
        # the same mismatch range --mode hyper rejects; an unset --q takes
        # the downwelling set's sector count
        atmo = tmp_path / "atmo"
        assert run(capsys, ["atmo", "--out", str(atmo)])[0] == 0
        code, out, err = run(capsys, [
            "synth", "--atmo", str(atmo), "--out", str(tmp_path / "s3"),
            "--rows", "2", "--cols", "2", "--q", "3"])
        assert code == 2
        assert err.startswith("error[ConfigError]: config q=3 does not match")
        assert err.count("\n") == 1
        assert not (tmp_path / "s3").exists()
        for q in ([], ["--q", "10"]):
            code, _, err = run(capsys, [
                "synth", "--atmo", str(atmo), "--out", str(tmp_path / "s10"),
                "--rows", "2", "--cols", "2", *q])
            assert code == 0, err

    def test_hyper_range_rejects_q_that_does_not_match_atmo(self, capsys, tmp_path):
        atmo, scene = tmp_path / "atmo", tmp_path / "scene"
        assert run(capsys, ["atmo", "--out", str(atmo)])[0] == 0
        assert run(capsys, ["synth", "--atmo", str(atmo), "--out", str(scene),
                            "--rows", "2", "--cols", "2"])[0] == 0
        code, _, err = run(capsys, [
            "range", "--mode", "hyper", "--cube", str(scene / "cube.lwc"),
            "--atmo", str(atmo), "--out", str(tmp_path / "est"), "--q", "3"])
        assert code == 2
        assert err == ("error[ConfigError]: config q=3 does not match the "
                       "downwelling set (10 sectors)\n")
        assert not (tmp_path / "est").exists()

    def test_synth_with_q_0_has_no_sky_sector_to_build(self, capsys, tmp_path):
        # q = 0 turns the sky term off, and the default scene needs a sector
        atmo = tmp_path / "atmo"
        assert run(capsys, ["atmo", "--out", str(atmo)])[0] == 0
        code, _, err = run(capsys, [
            "synth", "--atmo", str(atmo), "--out", str(tmp_path / "s0"),
            "--rows", "2", "--cols", "2", "--q", "0"])
        assert code == 1
        assert err.startswith("error[DomainError]: default scene needs at least "
                              "one sky sector")
        assert not (tmp_path / "s0").exists()

    def test_quad_range_takes_the_q_rule_of_hyper(self, capsys, tmp_path):
        # quad mode reads the downwelling set under the same q rule: a q
        # that does not match is refused, and q = 0, which turns the sky
        # term off, leaves quad nothing to fit its ozone slope from
        atmo, scene = tmp_path / "atmo", tmp_path / "scene"
        assert run(capsys, ["atmo", "--out", str(atmo)])[0] == 0
        assert run(capsys, ["synth", "--atmo", str(atmo), "--out", str(scene),
                            "--rows", "2", "--cols", "2"])[0] == 0
        argv = ["range", "--mode", "quad", "--cube", str(scene / "cube.lwc"),
                "--atmo", str(atmo)]
        code, _, err = run(capsys, [*argv, "--out", str(tmp_path / "q3.lwc"),
                                    "--q", "3"])
        assert code == 2
        assert err == ("error[ConfigError]: config q=3 does not match the "
                       "downwelling set (10 sectors)\n")
        code, _, err = run(capsys, [*argv, "--out", str(tmp_path / "q0.lwc"),
                                    "--q", "0"])
        assert code == 2
        assert err.startswith("error[ConfigError]: config q=0 turns the sky "
                              "term off")
        assert not (tmp_path / "q3.lwc").exists()
        assert not (tmp_path / "q0.lwc").exists()
        for q in ([], ["--q", "10"]):
            code, _, err = run(capsys, [*argv, "--out",
                                        str(tmp_path / f"q{len(q)}.lwc"), *q])
            assert code == 0, err
        assert ((tmp_path / "q0.lwc").read_bytes()
                == (tmp_path / "q2.lwc").read_bytes())

    @pytest.mark.parametrize("mode", ["bi-hot", "bi-air", "quad"])
    def test_closed_form_range_checks_the_bands_it_does_not_read(
            self, capsys, tmp_path, mode):
        # band 0 (8.0 um) is none of the five bands the estimators read, yet
        # a NaN there and an attenuation grid that differs there are refused
        atmo, scene = tmp_path / "atmo", tmp_path / "scene"
        assert run(capsys, ["atmo", "--out", str(atmo)])[0] == 0
        assert run(capsys, ["synth", "--atmo", str(atmo), "--out", str(scene),
                            "--rows", "3", "--cols", "3"])[0] == 0
        argv = ["range", "--mode", mode, "--cube", str(scene / "cube.lwc"),
                "--atmo", str(atmo), "--out", str(tmp_path / "r.lwc")]

        csv = atmo / "attenuation.csv"
        good = csv.read_text()
        csv.write_text(good.replace("\n8.0,", "\n8.001,", 1))
        code, _, err = run(capsys, argv)
        assert code == 1
        assert err == ("error[GridError]: attenuation grid does not match the "
                       "cube grid\n")
        csv.write_text(good)
        if mode == "quad":
            for angle in (atmo / "downwelling").glob("angle_*.csv"):
                angle.write_text(angle.read_text().replace("\n8.0,", "\n8.001,", 1))
            code, _, err = run(capsys, argv)
            assert code == 1
            assert err == ("error[GridError]: downwelling grid does not match "
                           "the cube grid\n")

        poke_cube(scene / "cube.lwc", (2, 2, 0), np.nan)
        code, _, err = run(capsys, argv)
        assert code == 1
        assert err == "error[ConstraintError]: radiance must be finite\n"
        assert not (tmp_path / "r.lwc").exists()

    def test_missing_map_exits_1(self, capsys, tmp_path):
        code, out, err = run(capsys, [
            "render", "--map", str(tmp_path / "nope.lwc"),
            "--out", str(tmp_path / "o.pgm")])
        assert code == 1
        assert err.startswith("error[")


class TestPipeline:
    @pytest.mark.parametrize("bands", [None, "8.5,8.9,9.4,9.6,12.5"])
    def test_closed_form_maps_equal_those_of_the_full_cube(
            self, capsys, tmp_path, bands):
        # the stages read only the bands they use, and write the map that
        # the estimators give on the whole cube
        atmo, scene = tmp_path / "atmo", tmp_path / "scene"
        assert run(capsys, ["atmo", "--out", str(atmo)])[0] == 0
        assert run(capsys, ["synth", "--atmo", str(atmo), "--out", str(scene),
                            "--rows", "6", "--cols", "5", "--seed", "4",
                            "--noise-sigma", "1"])[0] == 0
        cube = load_scene_cube(scene / "cube.lwc")
        alpha = AttenuationSpectrum(load_spectrum(atmo / "attenuation.csv", DB_PER_M))
        targets = () if bands is None else [float(b) for b in bands.split(",")]
        sel = BandSelection.from_grid(cube.grid, *targets)
        t_air = estimate_air_temperature(cube, lambda_sat=sel.lambda_sat)
        slope = fit_ozone_slope(load_downwelling(atmo / "downwelling"), sel)
        want = {"bi-hot": bispectral_hot(cube, sel, alpha),
                "bi-air": bispectral_air(cube, sel, alpha, t_air),
                "quad": quadspectral(cube, sel, alpha, t_air, slope)}
        extra = [] if bands is None else ["--bands", bands]
        for mode, rm in want.items():
            got = tmp_path / f"{mode}.lwc"
            code, _, err = run(capsys, [
                "range", "--mode", mode, "--cube", str(scene / "cube.lwc"),
                "--atmo", str(atmo), "--out", str(got), *extra])
            assert code == 0, err
            save_range_map(tmp_path / "want.lwc", rm)
            assert got.read_bytes() == (tmp_path / "want.lwc").read_bytes(), mode

    def test_atmo_synth_range_eval_render(self, capsys, tmp_path):
        atmo = tmp_path / "atmo"
        scene = tmp_path / "scene"
        est = tmp_path / "est.lwc"
        csv = tmp_path / "stats.csv"
        img = tmp_path / "map.pgm"

        code, out, err = run(capsys, ["atmo", "--out", str(atmo)])
        assert code == 0, err
        assert (atmo / "attenuation.csv").exists()
        assert (atmo / "downwelling" / "angles.csv").exists()

        code, out, err = run(capsys, [
            "synth", "--atmo", str(atmo), "--out", str(scene),
            "--rows", "8", "--cols", "8", "--seed", "3"])
        assert code == 0, err
        assert (scene / "cube.lwc").exists()
        assert (scene / "truth_distance.lwc").exists()

        code, out, err = run(capsys, [
            "range", "--cube", str(scene / "cube.lwc"), "--atmo", str(atmo),
            "--out", str(est), "--mode", "bi-air"])
        assert code == 0, err
        assert est.exists()

        code, out, err = run(capsys, [
            "eval", "--est", str(est), "--truth", str(scene),
            "--out", str(csv)])
        assert code == 0, err
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "label,mean_m,std_m,truth_median_m,n_valid"
        assert len(lines) == 2  # one full 8x8 tile on an 8x8 scene
        assert lines[1].startswith("p0_0,")

        code, out, err = run(capsys, [
            "render", "--map", str(est), "--out", str(img)])
        assert code == 0, err
        assert img.read_bytes().startswith(b"P5\n8 8\n255\n")

    @pytest.mark.parametrize("q", [2, None])
    @pytest.mark.parametrize("sigma", ["0", "1.5"])
    def test_streamed_synth_writes_the_files_of_the_whole_cube(
            self, capsys, tmp_path, q, sigma):
        atmo, scene, want = tmp_path / "atmo", tmp_path / "scene", tmp_path / "want"
        qarg = [] if q is None else ["--q", str(q)]
        assert run(capsys, ["atmo", "--out", str(atmo), *qarg])[0] == 0
        code, _, err = run(capsys, [
            "synth", "--atmo", str(atmo), "--out", str(scene), "--rows", "5",
            "--cols", "4", "--seed", "7", "--noise-sigma", sigma])
        assert code == 0, err
        alpha = AttenuationSpectrum(load_spectrum(atmo / "attenuation.csv", DB_PER_M))
        dw = load_downwelling(atmo / "downwelling")
        truth = make_default_scene(alpha.grid, q=len(dw), air_temperature=AIR,
                                   rows=5, cols=4)
        save_scene_truth(want, truth, alpha.grid, zenith_angles_deg=dw.zenith_angles_deg)
        save_scene_cube(want / "cube.lwc", synthesize_cube(
            truth, alpha, dw, AIR, noise_sigma=float(sigma), rng_seed=7))
        names = sorted(p.name for p in want.iterdir())
        assert sorted(p.name for p in scene.iterdir()) == names
        for name in names:
            assert (scene / name).read_bytes() == (want / name).read_bytes(), name

    def test_synth_holds_under_half_a_float64_cube(self, capsys, tmp_path):
        # the cube streams to disk row by row; the truth writes make no
        # whole-body float32 copy
        argv = ["synth", "--out", str(tmp_path / "s"), "--rows", "96",
                "--cols", "96", "--noise-sigma", "1"]
        assert run(capsys, argv)[0] == 0  # imports stay out of the peak
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 96 * 96 * 64 * 8 / 2

    def test_synth_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _, err = run(capsys, [
                "synth", "--out", str(out), "--rows", "4", "--cols", "4",
                "--seed", "11", "--noise-sigma", "0.5", "--q", "3"])
            assert code == 0, err
        assert (a / "cube.lwc").read_bytes() == (b / "cube.lwc").read_bytes()

    def test_hyper_range_is_independent_of_seed(self, capsys, tmp_path):
        # the solver draws no random numbers: --seed only seeds synth
        atmo, scene = tmp_path / "atmo", tmp_path / "scene"
        assert run(capsys, ["atmo", "--out", str(atmo)])[0] == 0
        assert run(capsys, ["synth", "--atmo", str(atmo), "--out", str(scene),
                            "--rows", "4", "--cols", "4",
                            "--noise-sigma", "0.5"])[0] == 0
        for seed in ("0", "7"):
            code, _, err = run(capsys, [
                "range", "--mode", "hyper", "--cube", str(scene / "cube.lwc"),
                "--atmo", str(atmo), "--out", str(tmp_path / f"est{seed}"),
                "--seed", seed])
            assert code == 0, err
        names = sorted(p.name for p in (tmp_path / "est0").iterdir())
        assert len(names) == 6
        for name in names:
            assert ((tmp_path / "est0" / name).read_bytes()
                    == (tmp_path / "est7" / name).read_bytes()), name

    def test_hyper_range_with_tv_is_independent_of_threads(
            self, capsys, tmp_path, monkeypatch):
        # the TV rounds run on the whole map after the row blocks, so a
        # positive --rho-d runs on two workers with the bits of one
        atmo, scene = tmp_path / "atmo", tmp_path / "scene"
        assert run(capsys, ["atmo", "--out", str(atmo)])[0] == 0
        assert run(capsys, ["synth", "--atmo", str(atmo), "--out", str(scene),
                            "--rows", "4", "--cols", "3",
                            "--noise-sigma", "0.5"])[0] == 0
        monkeypatch.setattr("lwirange.hyperspectral._usable_cores", lambda: 2)
        for threads in ("1", "2"):
            code, _, err = run(capsys, [
                "range", "--mode", "hyper", "--cube", str(scene / "cube.lwc"),
                "--atmo", str(atmo), "--out", str(tmp_path / f"est{threads}"),
                "--rho-d", "1", "--threads", threads])
            assert code == 0, err
        names = sorted(p.name for p in (tmp_path / "est1").iterdir())
        assert len(names) == 6
        for name in names:
            assert ((tmp_path / "est1" / name).read_bytes()
                    == (tmp_path / "est2" / name).read_bytes()), name

    def test_hyper_range_keeps_to_a_short_d_max(self, capsys, tmp_path):
        atmo, scene = tmp_path / "atmo", tmp_path / "scene"
        assert run(capsys, ["atmo", "--out", str(atmo)])[0] == 0
        assert run(capsys, ["synth", "--atmo", str(atmo), "--out", str(scene),
                            "--rows", "3", "--cols", "3",
                            "--noise-sigma", "0.5"])[0] == 0
        code, _, err = run(capsys, [
            "range", "--mode", "hyper", "--cube", str(scene / "cube.lwc"),
            "--atmo", str(atmo), "--out", str(tmp_path / "est"),
            "--d-max", "100"])
        assert code == 0, err
        d = load_estimates(tmp_path / "est").distance
        assert d.shape == (3, 3) and d.max() <= 100.0

    def test_hyper_range_with_q_0_is_the_no_sky_solve(self, capsys, tmp_path):
        atmo, scene, est = tmp_path / "atmo", tmp_path / "scene", tmp_path / "est"
        assert run(capsys, ["atmo", "--out", str(atmo)])[0] == 0
        assert run(capsys, ["synth", "--atmo", str(atmo), "--out", str(scene),
                            "--rows", "3", "--cols", "3",
                            "--noise-sigma", "0.5"])[0] == 0
        code, _, err = run(capsys, [
            "range", "--mode", "hyper", "--cube", str(scene / "cube.lwc"),
            "--atmo", str(atmo), "--out", str(est), "--q", "0"])
        assert code == 0, err
        header, _ = read_cube(est / "solid_angles.lwc")
        assert header.sectors == 0 and header.zenith_angles_deg is None
        cube = load_scene_cube(scene / "cube.lwc")
        alpha = AttenuationSpectrum(load_spectrum(atmo / "attenuation.csv", DB_PER_M))
        want = solve_no_sky(cube, alpha,
                            estimate_air_temperature(cube, lambda_sat=13.0))
        got = load_estimates(est)
        for name in ("distance", "temperature", "emissivity", "solid_angles",
                     "loss"):
            np.testing.assert_array_equal(
                getattr(got, name),
                getattr(want, name).astype(np.float32).astype(np.float64), name)

    def test_hyper_range_estimates_air_temperature_at_bands(
            self, capsys, tmp_path, monkeypatch):
        atmo, scene = tmp_path / "atmo", tmp_path / "scene"
        assert run(capsys, ["atmo", "--out", str(atmo)])[0] == 0
        assert run(capsys, ["synth", "--atmo", str(atmo), "--out", str(scene),
                            "--rows", "2", "--cols", "2"])[0] == 0
        seen = []

        def fake_solve(cube, alpha, dw, air_temperature, config=None):
            seen.append(air_temperature.kelvin)
            raise LwirError("stop after the air temperature")

        monkeypatch.setattr("lwirange.cli.solve", fake_solve)
        cube = load_scene_cube(scene / "cube.lwc")
        for bands, lam in ((None, 13.0), ("8.42,8.46,9.49,9.57,12.0", 12.0)):
            extra = [] if bands is None else ["--bands", bands]
            code, _, err = run(capsys, [
                "range", "--mode", "hyper", "--cube", str(scene / "cube.lwc"),
                "--atmo", str(atmo), "--out", str(tmp_path / "est"), *extra])
            assert code == 1 and "stop after" in err
            want = estimate_air_temperature(cube, lambda_sat=lam).kelvin
            assert seen[-1] == want
        assert seen[0] != seen[1]
