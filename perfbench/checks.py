"""Output checks: each compares one CLI output with reference.py.

Every check returns (ok, detail). Tolerances are stated where they are set,
with the rounding they allow for.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import reference as ref

# solver defaults the CLI runs with (SolverConfig / cli._DEFAULTS)
D_MAX = 200.0
T_SPAN = 12.0
RHO_EPS = 1e5
# storing a value as float32 rounds it by at most 2^-24 relative; allow twice that
F32_REL = 2.0 ** -23


def check_synth(scene_dir, atmo, sigma):
    """cube - model(saved truth) has mean ~ 0 and std ~ sigma within sampling error."""
    wav, alpha, _, sky = atmo
    hdr, cube, _ = ref.read_lwc(Path(scene_dir) / "cube.lwc")
    truth = ref.read_truth(scene_dir)
    if not np.array_equal(np.array(hdr["wavelengths_um"]), wav):
        return False, "cube grid differs from the attenuation grid"
    if hdr["noise_sigma"] != sigma:
        return False, f"cube labelled sigma={hdr['noise_sigma']}, expected {sigma}"
    b_air = ref.planck(wav, hdr["air_temperature_k"])
    m, n, k = cube.shape
    s = ss = 0.0
    for i in range(0, m, 32):   # 32 rows at a time bound the memory at 512 x 512
        sl = slice(i, min(i + 32, m))
        p = (sl.stop - sl.start) * n
        model = ref.observed(
            wav, alpha,
            truth["distance"][sl].reshape(p), truth["temperature"][sl].reshape(p),
            truth["emissivity"][sl].reshape(p, k).astype(np.float64),
            truth["omegas"][sl].reshape(p, -1).astype(np.float64), sky,
            truth["ground"][sl].reshape(p, k).astype(np.float64), b_air)
        r = cube[sl].reshape(p, k).astype(np.float64) - model
        s += float(r.sum())
        ss += float((r * r).sum())
    count = m * n * k
    mean = s / count
    std = math.sqrt(ss / count - mean * mean)
    # five standard errors of the sample mean / std of `count` normal draws;
    # 1e-3 covers the float32 rounding of cube and truth maps (~1e-4 microflick)
    ok = (abs(mean) <= 5.0 * sigma / math.sqrt(count) + 1e-3
          and abs(std / sigma - 1.0) <= 5.0 / math.sqrt(2.0 * count) + 1e-3)
    return ok, f"residual mean {mean:.3g}, std {std:.4g} (sigma {sigma}, n {count})"


def check_closed_form(map_path, mode, cube, atmo, t_air, slope):
    """Saved map equals the reference log-ratio on valid pixels; flags match."""
    wav, alpha, _, _ = atmo
    _, values, flags = ref.read_lwc(map_path)
    d_ref, f_ref = ref.log_ratio(mode, cube, wav, alpha, t_air, slope)
    if not np.array_equal(flags, f_ref):
        bad = int((flags != f_ref).sum())
        return False, f"{mode}: {bad} flags differ from the reference"
    sel = (f_ref == ref.FLAG_VALID) | (f_ref == ref.FLAG_CLIPPED)
    err = np.abs(values[sel].astype(np.float64) - d_ref[sel])
    tol = F32_REL * np.abs(d_ref[sel]) + 1e-6
    if not np.all(err <= tol):
        return False, f"{mode}: max deviation {err.max():.3g} m from the reference"
    return True, f"{mode}: {int(sel.sum())} values within float32 rounding"


def read_estimates(est_dir):
    e = Path(est_dir)
    out = {name: ref.read_lwc(e / f"{name}.lwc")[1].astype(np.float64)
           for name in ("distance", "temperature", "loss", "iterations",
                        "emissivity", "solid_angles")}
    return out


def hyper_objectives(est, cube, atmo, t_air, truth):
    """Reference objective per pixel at the saved estimate and at the truth."""
    wav, alpha, _, sky = atmo
    m, n, k = cube.shape
    p = m * n
    y = cube.reshape(p, k).astype(np.float64)
    b_air = ref.planck(wav, t_air)

    def obj(d, t, eps, om):
        return ref.objective(y, wav, alpha, d.reshape(p), t.reshape(p),
                             eps.reshape(p, k).astype(np.float64),
                             om.reshape(p, -1).astype(np.float64), sky, b_air,
                             RHO_EPS)

    at_est = obj(est["distance"], est["temperature"], est["emissivity"],
                 est["solid_angles"])
    at_truth = obj(truth["distance"], truth["temperature"], truth["emissivity"],
                   truth["omegas"])
    return at_est, at_truth


def check_hyper_feasible(est_dir, t_air):
    est = read_estimates(est_dir)
    d, t, e, o = (est["distance"], est["temperature"], est["emissivity"],
                  est["solid_angles"])
    problems = []
    if not (np.all(d >= 0.0) and np.all(d <= D_MAX)):
        problems.append("distance outside [0, d_max]")
    if not (np.all(e >= 0.0) and np.all(e <= 1.0)):
        problems.append("emissivity outside [0, 1]")
    if not np.all(o >= 0.0):
        problems.append("negative solid angle")
    # ten float32-rounded weights may sum a few ulp above pi
    if not np.all(o.sum(axis=2) <= np.pi * (1.0 + 1e-6)):
        problems.append("solid angles sum above pi")
    # float32 storage of ~300 K rounds by ~2e-5 K
    if not (np.all(t >= t_air - T_SPAN - 1e-3) and np.all(t <= t_air + T_SPAN + 1e-3)):
        problems.append("temperature outside the solver box")
    return not problems, "; ".join(problems) or "feasible"


def check_hyper_objective(est_dir, cube, atmo, t_air, truth):
    """Saved loss equals the reference objective at the saved maps; the total
    objective at the estimate is no higher than at the truth.

    The saved parameter maps are float32 roundings of the solver's float64
    state; re-evaluating the objective at them moves it by about 1e-5 of its
    value, so the comparison allows 1e-4 relative plus 1e-3 absolute.
    """
    est = read_estimates(est_dir)
    at_est, at_truth = hyper_objectives(est, cube, atmo, t_air, truth)
    loss = est["loss"].reshape(-1)
    err = np.abs(at_est - loss)
    if not np.all(err <= 1e-4 * np.abs(loss) + 1e-3):
        i = int(np.argmax(err))
        return False, f"saved loss {loss[i]:.6g} != reference {at_est[i]:.6g} at pixel {i}"
    if not at_est.sum() <= at_truth.sum():
        return False, f"objective {at_est.sum():.6g} above truth {at_truth.sum():.6g}"
    return True, f"objective {at_est.sum():.6g} <= truth {at_truth.sum():.6g}"


def check_ordering(panel60):
    """The paper's ordering on reflective cells: quad and hyper beat bi-air."""
    base = panel60.get("bi-air")
    worse = [m for m in ("quad", "hyper") if m in panel60 and not panel60[m] < base]
    if worse:
        return False, f"{worse} not below bi-air on eps=0.6 cells: {panel60}"
    return True, f"eps=0.6 errors {panel60}"


def check_eval(csv_path, values, valid, truth_distance, size):
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    if lines[0] != "label,mean_m,std_m,truth_median_m,n_valid":
        return False, f"unexpected CSV header {lines[0]!r}"
    expected = ref.patch_stats(values, valid, truth_distance, size)
    if len(lines) - 1 != len(expected):
        return False, f"{len(lines) - 1} patch rows, expected {len(expected)}"
    for line, (label, mean, std, med, cnt) in zip(lines[1:], expected):
        f = line.split(",")
        if f[0] != label or int(f[4]) != cnt:
            return False, f"row {line!r} != {label},{cnt}"
        for got, want in zip(map(float, f[1:4]), (mean, std, med)):
            same = (math.isnan(got) and math.isnan(want)) or \
                abs(got - want) <= 1e-9 * max(1.0, abs(want))
            if not same:
                return False, f"row {line!r}: {got} != {want}"
    return True, f"{len(expected)} patch rows match"


def check_render(pgm_path, values, valid):
    """Gray PGM of the map scaled between its valid min and max."""
    raw = Path(pgm_path).read_bytes()
    m, n = values.shape
    head = f"P5\n{n} {m}\n255\n".encode("ascii")
    if not raw.startswith(head) or len(raw) != len(head) + m * n:
        return False, "PGM header or size differs"
    pix = np.frombuffer(raw[len(head):], dtype=np.uint8).reshape(m, n).astype(int)
    v = values.astype(np.float64)
    lo, hi = v[valid].min(), v[valid].max()
    want = np.where(valid, np.round(np.clip((v - lo) / (hi - lo), 0.0, 1.0) * 255.0), 0)
    # a value on a .5 boundary may round either way after float32 storage
    if np.abs(pix - want).max() > 1:
        return False, "PGM pixels differ from the scaled map"
    return True, "PGM matches"
