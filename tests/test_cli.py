"""Command-line layering, validation, and the end-to-end file pipeline."""

import os
import re
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
    load_range_map,
    load_scene_cube,
    load_truth_distance,
    read_cube,
    save_estimates,
    save_range_map,
    save_scene_cube,
    save_scene_truth,
)
from lwirange.errors import LwirError
from lwirange.evaluation import default_patches, patch_stats, write_patch_stats_csv
from lwirange.forward_model import EstimateMaps, make_default_scene, synthesize_cube
from lwirange.hyperspectral import solve
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
        code, out, err = run(capsys, ["config-dump", "--seed", "-1", "--rows", "0",
                                      "--patches", "0", "--q", "-1"])
        assert code == 2 and out == "" and err.count("\n") == 1
        for message in ("seed must be an integer >= 0, got -1",
                        "rows must be an integer >= 1, got 0",
                        "patches must be an integer >= 1, got 0",
                        "q must be >= 0 or none, got -1"):
            assert message in err

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
    @staticmethod
    def python(code):
        # the last line code prints, in a fresh interpreter
        src = Path(__file__).resolve().parent.parent / "src"
        return subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True).stdout.strip().splitlines()[-1]

    def test_importing_the_cli_leaves_out_the_process_pool(self):
        # every stage pays for what `import lwirange.cli` loads; only the
        # multi-block solve needs concurrent.futures (and its logging)
        assert self.python(
            "import sys, lwirange.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing')"
            " if m in sys.modules))") == "[]"

    def test_a_launch_that_runs_no_solver_leaves_the_solver_unloaded(self):
        # `import lwirange`, `import lwirange.cli` and a config-dump launch
        # read the solver's settings but not the solver, which the package
        # resolves on first use
        assert self.python(
            "import sys, lwirange; "
            "loaded = ['lwirange.hyperspectral' in sys.modules]; "
            "import lwirange.cli; "
            "assert lwirange.cli.main(['config-dump']) == 0; "
            "loaded.append('lwirange.hyperspectral' in sys.modules); "
            "from lwirange import solve; "
            "print(loaded, solve.__module__)"
        ) == "[False, False] lwirange.hyperspectral"

    def test_a_star_import_binds_the_declared_names_and_no_submodule(self):
        # every name of __all__ resolves, the solver's lazy ones too, and the
        # submodule names the package's own imports bind stay out
        assert self.python(
            "import pkgutil, lwirange\n"
            "ns = {}\n"
            "exec('from lwirange import *', ns)\n"
            "subs = {m.name for m in pkgutil.iter_modules(lwirange.__path__)}\n"
            "print(sorted(set(lwirange.__all__) - set(ns)),"
            " sorted(subs & set(ns)), sorted(subs & set(lwirange.__all__)),"
            " ns['solve'].__module__, len(subs) > 7)"
        ) == "[] [] [] lwirange.hyperspectral True"

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


# the settings each subcommand reads, and so takes flags for; config-dump
# takes every flag
OWN = {
    "atmo": {"q"},
    "synth": {"q", "rows", "cols", "noise_sigma", "seed"},
    "range": {"mode", "q", "threads", "rho_eps", "rho_d", "d_max", "bands"},
    "eval": {"patches"},
    "render": {"palette", "vmin", "vmax"},
}
# a valid value of every setting, as text
VALUE = {"mode": "quad", "seed": "3", "threads": "2", "q": "3", "rho_eps": "7.0",
         "rho_d": "0.5", "d_max": "50.0", "bands": "8.42,8.46,9.49,9.57,13.0",
         "rows": "3", "cols": "4", "noise_sigma": "0.25", "palette": "fire",
         "vmin": "1.0", "vmax": "9.0", "patches": "2"}
# each subcommand's path flags
PATHS = {"atmo": ["--out"], "synth": ["--atmo", "--out"],
         "range": ["--cube", "--atmo", "--out"],
         "eval": ["--est", "--truth", "--out"], "render": ["--map", "--out"],
         "config-dump": []}


def flag(key):
    return "--" + key.replace("_", "-")


def resolved(argv, environ=None):
    return resolve_settings(build_parser().parse_args(argv), environ=environ or {})


def with_paths(command, tmp_path):
    return [command] + [a for f in PATHS[command]
                        for a in (f, str(tmp_path / f.strip("-")))]


STRAY = [(c, k) for c in OWN for k in sorted(VALUE) if k not in OWN[c]]
TAKEN = [(c, k) for c in OWN for k in sorted(OWN[c])] + \
    [("config-dump", k) for k in sorted(VALUE)]


class TestPerCommandSettings:
    def test_the_tables_cover_every_setting(self, capsys):
        assert set(VALUE) == set(dump(capsys))
        assert len(STRAY) == 58 and len(TAKEN) == 17 + 15

    @pytest.mark.parametrize("command, key", STRAY)
    def test_a_flag_the_command_does_not_read_is_a_usage_error(
            self, capsys, tmp_path, command, key):
        code, out, err = run(capsys, with_paths(command, tmp_path)
                             + [flag(key), VALUE[key]])
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag(key)} {VALUE[key]}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, key", TAKEN)
    def test_a_flag_the_command_reads_sets_its_value(self, tmp_path, command,
                                                     key):
        want = resolved(["config-dump", flag(key), VALUE[key]])[key]
        assert resolved(with_paths(command, tmp_path)
                        + [flag(key), VALUE[key]])[key] == want
        assert want != resolved(["config-dump"])[key]

    @pytest.mark.parametrize("command, key", STRAY)
    def test_a_config_file_and_the_environment_set_any_key(
            self, tmp_path, command, key):
        # one settings file serves every command
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={VALUE[key]}\n")
        want = resolved(["config-dump", flag(key), VALUE[key]])[key]
        assert resolved(with_paths(command, tmp_path)
                        + ["--config", str(cfg)])[key] == want
        assert resolved(with_paths(command, tmp_path),
                        {"LWIRANGE_" + key.upper(): VALUE[key]})[key] == want

    @pytest.mark.parametrize("command", [*OWN, "config-dump"])
    def test_help_lists_only_the_settings_the_command_reads(self, capsys,
                                                            command):
        code, out, _ = run(capsys, [command, "--help"])
        assert code == 0
        listed = set(re.findall(r"^  (--[a-z-]+)", out, re.M))
        own = OWN.get(command, set(VALUE))
        assert listed == {flag(k) for k in own} | {"--config"} | set(PATHS[command])


# the settings each range mode reads, and so takes flags for
MODE_OWN = {"bi-hot": {"mode", "bands"}, "bi-air": {"mode", "bands"},
            "quad": {"mode", "bands", "q"}, "hyper": OWN["range"]}
MODE_STRAY = [(m, k) for m in MODE_OWN for k in sorted(OWN["range"])
              if k not in MODE_OWN[m]]
MODE_TAKEN = [(m, k) for m in MODE_OWN for k in sorted(MODE_OWN[m]) if k != "mode"]


def mode_argv(mode, tmp_path):
    return with_paths("range", tmp_path) + ["--mode", mode]


class TestPerModeSettings:
    def test_the_table_covers_every_range_flag(self):
        assert set().union(*MODE_OWN.values()) == OWN["range"]
        assert [len(MODE_OWN[m]) for m in MODE_OWN] == [2, 2, 3, 7]
        assert len(MODE_STRAY) == 14

    @pytest.mark.parametrize("mode, key", MODE_STRAY)
    def test_a_flag_the_mode_does_not_read_is_a_config_error(
            self, capsys, tmp_path, mode, key):
        code, out, err = run(capsys, mode_argv(mode, tmp_path)
                             + [flag(key), VALUE[key]])
        assert code == 2 and out == ""
        assert err.startswith(f"error[ConfigError]: {flag(key)}: range mode "
                              f"{mode} does not read {key} (read by the ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode, key", MODE_TAKEN)
    def test_a_flag_the_mode_reads_sets_its_value(self, tmp_path, mode, key):
        want = resolved(["config-dump", flag(key), VALUE[key]])[key]
        got = resolved(mode_argv(mode, tmp_path) + [flag(key), VALUE[key]])
        assert got[key] == want and got["mode"] == mode

    def test_the_mode_violations_join_the_others(self, capsys, tmp_path):
        code, out, err = run(capsys, mode_argv("bi-air", tmp_path)
                             + ["--q", "3", "--threads", "abc", "--d-max", "-1"])
        assert code == 2 and out == "" and err.count("\n") == 1
        for message in ("--threads: bad value for threads: 'abc'",
                        "--q: range mode bi-air does not read q (read by the "
                        "quad and hyper modes)",
                        "--threads: range mode bi-air does not read threads "
                        "(read by the hyper mode)",
                        "--d-max: range mode bi-air does not read d_max",
                        "d_max must be"):
            assert message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode, key", MODE_STRAY)
    def test_a_config_file_and_the_environment_set_any_key(
            self, tmp_path, mode, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={VALUE[key]}\n")
        want = resolved(["config-dump", flag(key), VALUE[key]])[key]
        assert resolved(mode_argv(mode, tmp_path) + ["--config", str(cfg)])[key] == want
        assert resolved(mode_argv(mode, tmp_path),
                        {"LWIRANGE_" + key.upper(): VALUE[key]})[key] == want

    def test_a_key_the_mode_does_not_read_leaves_its_map_as_it_is(
            self, capsys, tmp_path, clean_env):
        atmo, scene = tmp_path / "atmo", tmp_path / "scene"
        assert run(capsys, ["atmo", "--out", str(atmo)])[0] == 0
        assert run(capsys, ["synth", "--atmo", str(atmo), "--out", str(scene),
                            "--rows", "3", "--cols", "3", "--noise-sigma", "1"])[0] == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rho_eps=7\nd_max=5\nrho_d=3\n")
        argv = ["range", "--mode", "quad", "--cube", str(scene / "cube.lwc"),
                "--atmo", str(atmo)]
        assert run(capsys, [*argv, "--out", str(tmp_path / "a.lwc")])[0] == 0
        assert run(capsys, [*argv, "--out", str(tmp_path / "b.lwc"),
                            "--config", str(cfg)])[0] == 0
        clean_env.setenv("LWIRANGE_THREADS", "2")
        assert run(capsys, [*argv, "--out", str(tmp_path / "c.lwc")])[0] == 0
        want = (tmp_path / "a.lwc").read_bytes()
        assert (tmp_path / "b.lwc").read_bytes() == want
        assert (tmp_path / "c.lwc").read_bytes() == want

    def test_help_names_the_modes_of_a_flag_some_modes_read(self, capsys):
        code, out, _ = run(capsys, ["range", "--help"])
        assert code == 0
        text = " ".join(out.split())
        for key in sorted(OWN["range"]):
            modes = [m for m in MODE_OWN if key in MODE_OWN[m]]
            if len(modes) == len(MODE_OWN):
                assert f"{flag(key)} {key.upper()} --" in text, key
            else:
                noun = "modes" if len(modes) > 1 else "mode"
                note = f"{flag(key)} {key.upper()} {' and '.join(modes)} {noun} only"
                assert note in text, key


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

    def test_unallocatable_scene_exits_1(self, capsys, tmp_path):
        # numpy refuses a 7 TiB array at once, before anything is written
        code, out, err = run(capsys, [
            "synth", "--rows", "1000000000000", "--cols", "2",
            "--out", str(tmp_path / "x")])
        assert code == 1
        assert err.startswith("error[MemoryError]: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "x").exists()

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

    def test_atmo_q_beyond_the_default_angles_spreads_them(self, capsys, tmp_path):
        # the default set has ten zenith angles; more sectors span 0..89 degrees
        atmo = tmp_path / "atmo"
        code, out, err = run(capsys, ["atmo", "--out", str(atmo), "--q", "12"])
        assert code == 0, err
        assert out == f"wrote attenuation + 12 downwelling spectra to {atmo}\n"
        dw = load_downwelling(atmo / "downwelling")
        np.testing.assert_array_equal(dw.zenith_angles_deg, np.linspace(0.0, 89.0, 12))

    def test_synth_with_q_0_has_no_sky_sector_to_build(self, capsys, tmp_path):
        # q = 0 turns the sky term off, with a loaded downwelling set or the
        # built-in one, and the default scene needs a sector
        assert run(capsys, ["atmo", "--out", str(tmp_path / "atmo")])[0] == 0
        for atmo in (["--atmo", str(tmp_path / "atmo")], []):
            code, _, err = run(capsys, [
                "synth", *atmo, "--out", str(tmp_path / "s0"), "--rows", "2",
                "--cols", "2", "--q", "0"])
            assert code == 1
            assert err == ("error[DomainError]: default scene needs at least "
                           "one sky sector\n")
            assert not (tmp_path / "s0").exists()

    def test_atmo_with_q_0_has_no_set_to_write(self, capsys, tmp_path):
        code, _, err = run(capsys, ["atmo", "--out", str(tmp_path / "a0"), "--q", "0"])
        assert code == 1
        assert err == "error[DomainError]: atmo needs at least one sky sector, got q=0\n"
        assert not (tmp_path / "a0").exists()

    def test_non_finite_zenith_angle_exits_1(self, capsys, tmp_path):
        # a NaN angle in the downwelling index is refused at the index line,
        # before any stage writes a file
        atmo, scene = tmp_path / "atmo", tmp_path / "scene"
        assert run(capsys, ["atmo", "--out", str(atmo), "--q", "1"])[0] == 0
        assert run(capsys, ["synth", "--atmo", str(atmo), "--out", str(scene),
                            "--rows", "2", "--cols", "2"])[0] == 0
        index = atmo / "downwelling" / "angles.csv"
        index.write_text(index.read_text().replace("0.0,", "nan,"))
        for argv in (["synth", "--atmo", str(atmo), "--out", str(tmp_path / "s"),
                      "--rows", "2", "--cols", "2"],
                     ["range", "--mode", "hyper", "--cube", str(scene / "cube.lwc"),
                      "--atmo", str(atmo), "--out", str(tmp_path / "est")]):
            code, _, err = run(capsys, argv)
            assert code == 1
            assert err.startswith("error[SpectrumParseError]: ")
            assert "non-finite zenith angle" in err and err.count("\n") == 1
        assert not (tmp_path / "s").exists() and not (tmp_path / "est").exists()

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

    def test_synth_noise_beyond_float32_is_refused_alone(self, capsys, tmp_path):
        # the noisy cube is finite in float64 but not in its stored float32;
        # the refusal is the one line on stderr
        code, out, err = run(capsys, ["synth", "--rows", "2", "--cols", "2",
                                      "--noise-sigma", "1e200",
                                      "--out", str(tmp_path / "s")])
        assert code == 1
        assert err == "error[ConstraintError]: cube values must be finite\n"

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
        truth = load_truth_distance(scene)

        # bi-air writes one map file, hyper an estimate directory; eval and
        # render read either
        for mode, est in (("bi-air", tmp_path / "est.lwc"), ("hyper", tmp_path / "est")):
            csv, img = tmp_path / f"{mode}.csv", tmp_path / f"{mode}.pgm"
            code, out, err = run(capsys, [
                "range", "--cube", str(scene / "cube.lwc"), "--atmo", str(atmo),
                "--out", str(est), "--mode", mode])
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
            distance = (load_estimates(est).distance if mode == "hyper"
                        else load_range_map(est))
            want = tmp_path / "want.csv"
            write_patch_stats_csv(
                want, patch_stats(distance, truth, default_patches(truth.shape)))
            assert csv.read_bytes() == want.read_bytes(), mode

            code, out, err = run(capsys, [
                "render", "--map", str(est), "--out", str(img)])
            assert code == 0, err
            assert img.read_bytes().startswith(b"P5\n8 8\n255\n"), mode

    def test_eval_and_render_read_only_the_distance_of_an_estimates_dir(
            self, capsys, tmp_path):
        # a truncated emissivity.lwc beside an intact distance.lwc changes
        # neither output
        scene = tmp_path / "scene"
        assert run(capsys, ["synth", "--out", str(scene), "--rows", "8",
                            "--cols", "8", "--q", "2"])[0] == 0
        truth = load_truth_distance(scene)
        m, n = truth.shape
        est = EstimateMaps(
            distance=truth + np.random.default_rng(1).normal(0.0, 2.0, (m, n)),
            temperature=np.full((m, n), 290.0), emissivity=np.full((m, n, 4), 0.9),
            solid_angles=np.full((m, n, 2), 0.1), loss=np.zeros((m, n)),
            iterations=np.zeros((m, n), dtype=np.int64))
        intact, cut = tmp_path / "intact", tmp_path / "cut"
        for d in (intact, cut):
            save_estimates(d, est)
        emis = cut / "emissivity.lwc"
        emis.write_bytes(emis.read_bytes()[:-5])
        for d in (intact, cut):
            for argv in (["eval", "--est", str(d), "--truth", str(scene),
                          "--out", str(d / "p.csv")],
                         ["render", "--map", str(d), "--out", str(d / "d.pgm"),
                          "--palette", "fire"]):
                code, _, err = run(capsys, argv)
                assert code == 0, err
        for name in ("p.csv", "d.pgm"):
            assert (cut / name).read_bytes() == (intact / name).read_bytes(), name

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

    @pytest.mark.parametrize("q", [2, 10])
    @pytest.mark.parametrize("sigma", ["0", "1.5"])
    def test_synth_in_row_spans_writes_the_files_of_the_whole_cube(
            self, capsys, tmp_path, monkeypatch, q, sigma):
        # a 73 x 128 x 64 float32 body fills three 1 MiB chunks, so synth
        # writes it in as many row spans as usable cores, up to three, of
        # uneven length on three, in forked workers beside the truth files
        atmo, want = tmp_path / "atmo", tmp_path / "want"
        assert run(capsys, ["atmo", "--out", str(atmo), "--q", str(q)])[0] == 0
        alpha = AttenuationSpectrum(load_spectrum(atmo / "attenuation.csv", DB_PER_M))
        dw = load_downwelling(atmo / "downwelling")
        truth = make_default_scene(alpha.grid, q=q, air_temperature=AIR,
                                   rows=73, cols=128)
        save_scene_truth(want, truth, alpha.grid, zenith_angles_deg=dw.zenith_angles_deg)
        save_scene_cube(want / "cube.lwc", synthesize_cube(
            truth, alpha, dw, AIR, noise_sigma=float(sigma), rng_seed=7))
        names = sorted(p.name for p in want.iterdir())
        for cores in (1, 2, 3):
            monkeypatch.setattr("lwirange.cube_io._usable_cores", lambda: cores)
            scene = tmp_path / f"scene{cores}"
            code, _, err = run(capsys, [
                "synth", "--atmo", str(atmo), "--out", str(scene), "--rows", "73",
                "--cols", "128", "--seed", "7", "--noise-sigma", sigma])
            assert code == 0, err
            assert sorted(p.name for p in scene.iterdir()) == names
            for name in names:
                assert (scene / name).read_bytes() == (want / name).read_bytes(), \
                    (cores, name)

    def test_synth_holds_under_half_a_float64_cube(self, capsys, tmp_path,
                                                   monkeypatch):
        # the cube streams to disk in chunks; the truth writes make no
        # whole-body float32 copy.  On one usable core the span writer runs
        # in this process, where tracemalloc sees what it holds; forked
        # workers would hide it
        monkeypatch.setattr("lwirange.cube_io._usable_cores", lambda: 1)
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

    def test_hyper_range_is_independent_of_seed(self, capsys, tmp_path,
                                                clean_env):
        # the solver draws no random numbers: the seed only seeds synth, so
        # range takes no --seed flag, and a seed set in the environment, as
        # a settings file shared by every command may set it, changes nothing
        atmo, scene = tmp_path / "atmo", tmp_path / "scene"
        assert run(capsys, ["atmo", "--out", str(atmo)])[0] == 0
        assert run(capsys, ["synth", "--atmo", str(atmo), "--out", str(scene),
                            "--rows", "4", "--cols", "4",
                            "--noise-sigma", "0.5"])[0] == 0
        for seed in ("0", "7"):
            clean_env.setenv("LWIRANGE_SEED", seed)
            code, _, err = run(capsys, [
                "range", "--mode", "hyper", "--cube", str(scene / "cube.lwc"),
                "--atmo", str(atmo), "--out", str(tmp_path / f"est{seed}")])
            assert code == 0, err
        names = sorted(p.name for p in (tmp_path / "est0").iterdir())
        assert len(names) == 6
        for name in names:
            assert ((tmp_path / "est0" / name).read_bytes()
                    == (tmp_path / "est7" / name).read_bytes()), name

    def test_hyper_range_with_tv_is_independent_of_threads(
            self, capsys, tmp_path, monkeypatch):
        # the TV rounds run on the whole map after the pixel blocks, so a
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
        want = solve(cube, alpha, None,
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

        # cmd_range imports solve from the solver module when it runs
        monkeypatch.setattr("lwirange.hyperspectral.solve", fake_solve)
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
