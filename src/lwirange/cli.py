"""Command line front end.

Subcommands: atmo (synthesize attenuation + downwelling), synth (build a
scene cube), range (run an estimator), eval (patch statistics CSV), render
(PGM/PPM image), config-dump (print the resolved settings).

Settings resolve in precedence order: command line flags beat LWIRANGE_*
environment variables, which beat `key=value` lines in --config, which beat
built-in defaults. Each subcommand takes flags only for the settings it
reads (see _SETTINGS), so a stray flag is a usage error, and a range run
takes only the flags its mode reads, so another range flag is a
ConfigError; a config file or environment variable may set any key.
Unknown keys anywhere are rejected, and every violation is reported at once
rather than just the first.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .atmosphere import (
    _DEFAULT_BAND_TARGETS,
    DEFAULT_ZENITH_ANGLES,
    AtmosphereParams,
    AttenuationSpectrum,
    DownwellingSet,
    load_downwelling,
    load_spectrum,
    make_default_grid,
    save_downwelling,
    save_spectrum,
    synth_attenuation,
    synth_downwelling,
)
from .closed_form import (
    BandSelection,
    bispectral_air,
    bispectral_hot,
    estimate_air_temperature,
    fit_ozone_slope,
    quadspectral,
)
from .cube_io import (
    load_cube_grid,
    load_range_map,
    load_scene_cube,
    load_truth_distance,
    save_estimates,
    save_range_map,
    save_scene,
)
from .errors import ConfigError, DomainError, GridError, LwirError
from .evaluation import (
    _PALETTES,
    default_patches,
    patch_stats,
    render_map,
    write_patch_stats_csv,
)
from .forward_model import SolverConfig, make_default_scene, synthesize_rows
from .radiometry import DB_PER_M, Spectrum, Temperature

_MODES = ("bi-hot", "bi-air", "quad", "hyper")
_ENV_PREFIX = "LWIRANGE_"

_SOLVER = SolverConfig()


def _to_bands(text):
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError("expected 5 comma-separated wavelengths")
    return tuple(float(p) for p in parts)


class _Setting(NamedTuple):
    default: object
    convert: Callable[[str], object]
    commands: tuple = ()  # the subcommands but range that read it
    modes: tuple = ()     # the range modes that read it
    help: str | None = None


# one row per setting.  A subcommand's parser takes the flags of the settings
# it reads, range's those that any mode reads and config-dump's every flag;
# a range run takes only the flags its mode reads.  A config file or
# LWIRANGE_* variable may set any key, so that one file serves every command
# and mode
_SETTINGS = {
    "mode": _Setting("hyper", str, modes=_MODES),
    "seed": _Setting(0, int, ("synth",)),
    "threads": _Setting(
        _SOLVER.threads, int, modes=("hyper",),
        help="the most pixel blocks the solver runs at once, one worker "
        "process each, capped at the pixels and the usable cores (default "
        "1, in this process); the --rho-d TV rounds run once on the whole "
        "map in this process"),
    "q": _Setting(None, int, ("atmo", "synth"), ("quad", "hyper")),
    "rho_eps": _Setting(_SOLVER.rho_eps, float, modes=("hyper",)),
    "rho_d": _Setting(_SOLVER.rho_d, float, modes=("hyper",)),
    "d_max": _Setting(_SOLVER.d_max, float, modes=("hyper",)),
    "bands": _Setting(None, _to_bands, modes=_MODES),
    "rows": _Setting(32, int, ("synth",)),
    "cols": _Setting(32, int, ("synth",)),
    "noise_sigma": _Setting(0.0, float, ("synth",)),
    "palette": _Setting("gray", str, ("render",)),
    "vmin": _Setting(None, float, ("render",)),
    "vmax": _Setting(None, float, ("render",)),
    "patches": _Setting(8, int, ("eval",)),
}


def _flag(key):
    return f"--{key.replace('_', '-')}"


def _modes_text(modes):
    return " and ".join(modes) + (" modes" if len(modes) > 1 else " mode")


def _flag_help(row, command):
    # a range flag that only some modes read names them, ahead of its help
    if command != "range" or row.modes == _MODES:
        return row.help
    note = _modes_text(row.modes) + " only"
    return note if row.help is None else f"{note}: {row.help}"


def _apply(settings, key, text, source, violations):
    if key not in _SETTINGS:
        violations.append(f"{source}: unknown key {key!r}")
        return
    text = text.strip()
    if text.lower() == "none":
        settings[key] = None
        return
    try:
        settings[key] = _SETTINGS[key].convert(text)
    except ValueError:
        violations.append(f"{source}: bad value for {key}: {text!r}")


def _read_config_file(path, settings, violations):
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        violations.append(f"config: cannot read {path}: {exc}")
        return
    except UnicodeDecodeError as exc:
        violations.append(f"config: {path} is not UTF-8 text: {exc}")
        return
    for line_no, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            violations.append(f"{path}:{line_no}: expected key=value, got {line!r}")
            continue
        key, _, value = line.partition("=")
        _apply(settings, key.strip(), value, f"{path}:{line_no}", violations)


def _read_env(settings, violations, environ):
    for name in sorted(environ):
        if not name.startswith(_ENV_PREFIX):
            continue
        key = name[len(_ENV_PREFIX):].lower()
        _apply(settings, key, environ[name], f"env {name}", violations)


def _solver_config(s):
    """The hyper solver's settings; SolverConfig.validate owns their rules."""
    return SolverConfig(rho_eps=s["rho_eps"], rho_d=s["rho_d"],
                        d_max=s["d_max"], threads=s["threads"])


def _validate(s):
    v = []
    if s["mode"] not in _MODES:
        v.append(f"mode must be one of {_MODES}, got {s['mode']!r}")
    if s["palette"] not in _PALETTES:
        v.append(f"palette must be one of {_PALETTES}, got {s['palette']!r}")
    for key, low in (("seed", 0), ("rows", 1), ("cols", 1), ("patches", 1)):
        if s[key] is None or s[key] < low:
            v.append(f"{key} must be an integer >= {low}, got {s[key]!r}")
    if s["noise_sigma"] is None or not 0.0 <= s["noise_sigma"] < np.inf:
        v.append(f"noise_sigma must be finite and >= 0, got {s['noise_sigma']!r}")
    v.extend(_solver_config(s).validate())
    if s["q"] is not None and s["q"] < 0:
        v.append(f"q must be >= 0 or none, got {s['q']!r}")
    if s["bands"] is not None:
        b = s["bands"]
        if not all(0.0 < x < np.inf for x in b):
            v.append(f"bands must be finite positive wavelengths, got {b}")
        elif b[0] == b[1]:
            v.append("the first two band wavelengths must differ")
    for key in ("vmin", "vmax"):
        if s[key] is not None and not np.isfinite(s[key]):
            v.append(f"{key} must be finite or none, got {s[key]!r}")
    if s["vmin"] is not None and s["vmax"] is not None and not s["vmax"] > s["vmin"]:
        v.append(f"vmax must exceed vmin, got vmin={s['vmin']!r} vmax={s['vmax']!r}")
    return v


def resolve_settings(args, environ=None):
    """Layer defaults <- config file <- environment <- flags, then validate;
    a range flag that the resolved mode does not read is a violation."""
    settings = {key: row.default for key, row in _SETTINGS.items()}
    violations = []
    if getattr(args, "config", None):
        _read_config_file(args.config, settings, violations)
    _read_env(settings, violations, os.environ if environ is None else environ)
    given = [key for key in _SETTINGS if getattr(args, key, None) is not None]
    for key in given:
        _apply(settings, key, getattr(args, key), _flag(key), violations)
    mode = settings["mode"]
    if getattr(args, "command", None) == "range" and mode in _MODES:
        violations.extend(
            f"{_flag(key)}: range mode {mode} does not read {key} (read by "
            f"the {_modes_text(_SETTINGS[key].modes)})"
            for key in given if mode not in _SETTINGS[key].modes)
    violations.extend(_validate(settings))
    if violations:
        raise ConfigError(violations)
    return settings


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_AIR_DEFAULT = Temperature(295.0)


def _sector_angles(q):
    if q <= len(DEFAULT_ZENITH_ANGLES):
        return tuple(DEFAULT_ZENITH_ANGLES[:q])
    return tuple(np.linspace(0.0, 89.0, q))


def _load_attenuation(atmo_dir):
    return AttenuationSpectrum(
        load_spectrum(Path(atmo_dir) / "attenuation.csv", DB_PER_M))


def _default_atmosphere(q):
    """The built-in attenuation and downwelling set, with q sky sectors:
    one per default zenith angle for q = none, and no set, the sky term
    off as in :func:`_downwelling_set`, for q = 0."""
    grid = make_default_grid()
    params = AtmosphereParams(air_temperature=_AIR_DEFAULT)
    if q is None:
        q = len(DEFAULT_ZENITH_ANGLES)
    dw = synth_downwelling(params, grid, _sector_angles(q)) if q else None
    return synth_attenuation(params, grid), dw


def cmd_atmo(s, args):
    alpha, dw = _default_atmosphere(s["q"])
    if dw is None:
        raise DomainError("atmo needs at least one sky sector, got q=0")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_spectrum(out / "attenuation.csv", alpha.spectrum)
    save_downwelling(out / "downwelling", dw)
    print(f"wrote attenuation + {len(dw)} downwelling spectra to {out}")
    return 0


def _downwelling_set(s, atmo_dir):
    """The downwelling set in atmo_dir under the q setting: as loaded for
    q = none, None (the sky term off) for q = 0, and any other q must be
    the set's sector count."""
    dw = load_downwelling(Path(atmo_dir) / "downwelling")
    if s["q"] == 0:
        return None
    if s["q"] is not None and s["q"] != len(dw):
        raise ConfigError([f"config q={s['q']} does not match the downwelling "
                           f"set ({len(dw)} sectors)"])
    return dw


def cmd_synth(s, args):
    if args.atmo:
        alpha = _load_attenuation(args.atmo)
        dw = _downwelling_set(s, args.atmo)
    else:
        alpha, dw = _default_atmosphere(s["q"])
    grid = alpha.grid
    # the default scene needs a sky sector, so q = 0 raises DomainError here
    truth = make_default_scene(grid, q=0 if dw is None else len(dw),
                               air_temperature=_AIR_DEFAULT,
                               rows=s["rows"], cols=s["cols"])
    row = synthesize_rows(truth, alpha, dw, _AIR_DEFAULT, s["noise_sigma"], s["seed"])
    out = Path(args.out)
    # the same workers make the cube's rows and write them in spans, each
    # holding about one chunk, and write the truth files' rows
    save_scene(out, row, truth, grid, _AIR_DEFAULT, s["noise_sigma"],
               zenith_angles_deg=dw.zenith_angles_deg)
    print(f"wrote {s['rows']}x{s['cols']}x{len(grid.wavelengths)} cube to {out}")
    return 0


def _band_targets(s):
    return _DEFAULT_BAND_TARGETS if s["bands"] is None else s["bands"]


def _closed_form_range(s, args):
    """The range map of a bi-hot, bi-air or quad run, from only the bands
    the estimator reads: the band selection is made on the cube's full
    grid, and the cube, the attenuation spectrum and (quad) the downwelling
    set are cut to those at most five bands.  Every estimator works per
    band and per pixel, so the map is the one the full cube gives."""
    grid = load_cube_grid(args.cube)
    targets = _band_targets(s)
    full = BandSelection.from_grid(grid, *targets)
    keep = sorted({full.index1, full.index2, full.index3, full.index4,
                   full.index_sat})
    cube = load_scene_cube(args.cube, keep)
    alpha = _load_attenuation(args.atmo)
    if alpha.grid != grid:
        raise GridError("attenuation grid does not match the cube grid")
    alpha = AttenuationSpectrum(Spectrum(cube.grid, alpha.values[keep], DB_PER_M))
    bands = BandSelection.from_grid(cube.grid, *targets)
    if s["mode"] == "bi-hot":
        return bispectral_hot(cube, bands, alpha)
    t_air = estimate_air_temperature(cube, lambda_sat=bands.lambda_sat)
    if s["mode"] == "bi-air":
        return bispectral_air(cube, bands, alpha, t_air)
    dw = _downwelling_set(s, args.atmo)
    if dw is None:
        raise ConfigError(["config q=0 turns the sky term off, and quad mode "
                           "needs the downwelling set"])
    if dw.grid != grid:
        raise GridError("downwelling grid does not match the cube grid")
    dw = DownwellingSet(dw.zenith_angles_deg, dw.values[:, keep], cube.grid)
    return quadspectral(cube, bands, alpha, t_air, fit_ozone_slope(dw, bands))


def cmd_range(s, args):
    if s["mode"] == "hyper":
        # imported here, so that no other launch loads the solver
        from .hyperspectral import solve

        cube = load_scene_cube(args.cube)
        alpha = _load_attenuation(args.atmo)
        dw = _downwelling_set(s, args.atmo)
        # --bands sets only the saturation line here, which resolves on any
        # grid; the water pair may not.  The solver's range start reads the
        # default water and ozone bands whatever --bands says, and falls
        # back to flat starts where they do not resolve
        t_air = estimate_air_temperature(cube, lambda_sat=_band_targets(s)[4])
        est = solve(cube, alpha, dw, t_air, config=_solver_config(s))
        # zenith angles only where there are sky sectors to label
        save_estimates(args.out, est, grid=cube.grid,
                       zenith_angles_deg=None if dw is None else dw.zenith_angles_deg)
        print(f"wrote estimate maps to {args.out}")
        return 0
    rm = _closed_form_range(s, args)
    save_range_map(args.out, rm)
    n_ok = int(rm.valid_mask.sum())
    print(f"wrote range map to {args.out} ({n_ok}/{rm.distances.size} valid)")
    return 0


def _load_distance_input(path):
    # a range map file, or an estimates directory's distance.lwc alone
    p = Path(path)
    return load_range_map(p / "distance.lwc" if p.is_dir() else p)


def cmd_eval(s, args):
    estimate = _load_distance_input(args.est)
    truth = load_truth_distance(args.truth)
    patches = default_patches(truth.shape, s["patches"])
    rows = patch_stats(estimate, truth, patches)
    write_patch_stats_csv(args.out, rows)
    print(f"wrote {len(rows)} patch rows to {args.out}")
    return 0


def cmd_render(s, args):
    estimate = _load_distance_input(args.map)
    render_map(estimate, s["palette"], args.out, vmin=s["vmin"], vmax=s["vmax"])
    print(f"wrote {s['palette']} image to {args.out}")
    return 0


def _format_value(v):
    if v is None:
        return "none"
    if isinstance(v, tuple):
        return ",".join(repr(float(x)) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def cmd_config_dump(s, args):
    for key in sorted(_SETTINGS):
        print(f"{key}={_format_value(s[key])}")
    return 0


# one row per subcommand: its function, its help and its path flags, each
# with whether it is required
_COMMANDS = {
    "atmo": (cmd_atmo, "synthesize attenuation and downwelling spectra",
             {"out": True}),
    "synth": (cmd_synth, "synthesize a scene cube plus ground truth",
              {"atmo": False, "out": True}),
    "range": (cmd_range, "estimate per-pixel range",
              {"cube": True, "atmo": True, "out": True}),
    "eval": (cmd_eval, "patch statistics against ground truth",
             {"est": True, "truth": True, "out": True}),
    "render": (cmd_render, "render a map to PGM/PPM", {"map": True, "out": True}),
    "config-dump": (cmd_config_dump, "print the resolved settings", {}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lwirange",
        description="passive LWIR absorption ranging toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, paths) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key, row in _SETTINGS.items():
            if (command in row.commands or command == "config-dump"
                    or command == "range" and row.modes):
                p.add_argument(_flag(key), default=None,
                               help=_flag_help(row, command))
        p.add_argument("--config", default=None, help="key=value settings file")
        for name, required in paths.items():
            p.add_argument(f"--{name}", required=required, default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        settings = resolve_settings(args)
        return _COMMANDS[args.command][0](settings, args)
    except ConfigError as exc:
        print(f"error[ConfigError]: {exc}", file=sys.stderr)
        return 2
    except (LwirError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy raises a private subclass; the public name says what failed
        print(f"error[MemoryError]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
