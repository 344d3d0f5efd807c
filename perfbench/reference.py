"""Reference computations written apart from lwirange.

Everything the output checks compare against is computed here from the
physics and the file formats alone: the LWC1 container and the spectrum
CSVs are parsed by hand, Planck's law uses its own CODATA constants, and
the estimators are the formulas stated in the lwirange docstrings. Nothing
in this module imports lwirange.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

# CODATA 2018 exact values
H = 6.62607015e-34      # J s
C = 2.99792458e8        # m / s
KB = 1.380649e-23       # J / K
# W m^-2 sr^-1 m^-1 -> microflick (uW cm^-2 sr^-1 um^-1)
_TO_MICROFLICK = 1e-6 * 100.0

# default estimator bands (um): water pair, ozone pair, saturated band
BANDS_UM = (8.42, 8.46, 9.49, 9.57, 13.0)
# |denominator| below this (microflick) is a zero denominator
DENOMINATOR_TOL = 1e-6
FLAG_VALID, FLAG_NONPOSITIVE, FLAG_ZERO_DEN, FLAG_CLIPPED = 0, 1, 2, 3


# ----------------------------------------------------------------------
# file formats
# ----------------------------------------------------------------------

def read_lwc(path):
    """Parse an LWC1 container: (header dict, float32 body, uint8 flags or None).

    Layout: b"LWC1", little-endian uint32 header length, JSON header, then
    a float32 body; map containers append a uint8 validity plane.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != b"LWC1":
        raise ValueError(f"{path}: not an LWC1 file")
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8:8 + hlen].decode("utf-8"))
    body = memoryview(raw)[8 + hlen:]
    m, n, k = header["rows"], header["cols"], header["bands"]
    if header["kind"] == "map":
        values = np.frombuffer(body[:m * n * 4], dtype="<f4").reshape(m, n)
        flags = np.frombuffer(body[m * n * 4:], dtype=np.uint8).reshape(m, n)
        if flags.size != m * n:
            raise ValueError(f"{path}: truncated map body")
        return header, values, flags
    values = np.frombuffer(body, dtype="<f4").reshape(m, n, k)
    return header, values, None


def read_spectrum_csv(path):
    """Two-column `wavelength,value` CSV with '#' comment lines."""
    w, v = [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        a, b = line.split(",")
        w.append(float(a))
        v.append(float(b))
    return np.array(w), np.array(v)


def read_atmo(atmo_dir):
    """(wavelengths, alpha dB/m, zenith angles, sky radiance (Q, K))."""
    d = Path(atmo_dir)
    wav, alpha = read_spectrum_csv(d / "attenuation.csv")
    angles, rows = [], []
    for line in (d / "downwelling" / "angles.csv").read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        ang, name = line.split(",")
        angles.append(float(ang))
        w, v = read_spectrum_csv(d / "downwelling" / name.strip())
        if not np.array_equal(w, wav):
            raise ValueError(f"{name}: grid differs from attenuation.csv")
        rows.append(v)
    return wav, alpha, np.array(angles), np.array(rows)


def read_truth(scene_dir):
    """Truth maps as float32 arrays: distance, temperature, emissivity, omegas, ground."""
    s = Path(scene_dir)
    out = {}
    for key, name in (("distance", "truth_distance.lwc"),
                      ("temperature", "truth_temperature.lwc"),
                      ("emissivity", "truth_emissivity.lwc"),
                      ("omegas", "truth_solid_angles.lwc"),
                      ("ground", "truth_ground.lwc")):
        out[key] = read_lwc(s / name)[1]
    return out


# ----------------------------------------------------------------------
# physics
# ----------------------------------------------------------------------

def planck(lam_um, t_kelvin):
    """Blackbody spectral radiance in microflick."""
    lam = np.asarray(lam_um, dtype=np.float64) * 1e-6
    t = np.asarray(t_kelvin, dtype=np.float64)
    x = H * C / (lam * KB * t)
    with np.errstate(over="ignore"):
        return 2.0 * H * C ** 2 / lam ** 5 / np.expm1(x) * _TO_MICROFLICK


def brightness_temperature(lam_um, radiance):
    """Inverse of planck at one wavelength, in kelvin."""
    lam = np.asarray(lam_um, dtype=np.float64) * 1e-6
    rad_si = np.asarray(radiance, dtype=np.float64) / _TO_MICROFLICK
    return H * C / (lam * KB * np.log1p(2.0 * H * C ** 2 / (lam ** 5 * rad_si)))


def transmittance(alpha, d):
    """tau = 10^(-alpha d / 10) for distances d (...,) and alpha (K,)."""
    return 10.0 ** (-np.asarray(alpha)[None, :] * np.asarray(d).reshape(-1, 1) / 10.0)


def observed(wav, alpha, d, t, eps, om, sky, ground, b_air):
    """The observation model of the forward_model docstring, P pixels at once.

        L = tau (eps B(T) + L_ref - B(T_air)) + B(T_air)
        L_ref = ((1 - eps) / pi) (sum_q Omega_q L_D,q + (pi - sum_q Omega_q) L_G)

    d, t: (P,); eps: (P, K); om: (P, Q); sky: (Q, K); ground: (K,) or (P, K).
    """
    tau = transmittance(alpha, d)
    bt = planck(wav[None, :], np.asarray(t).reshape(-1, 1))
    wsum = om.sum(axis=1, keepdims=True)
    sky_part = om @ sky if om.shape[1] else 0.0
    l_ref = (1.0 - eps) / np.pi * (sky_part + (np.pi - wsum) * ground)
    return tau * (eps * bt + l_ref - b_air) + b_air


def band_indices(wav, targets=BANDS_UM):
    return [int(np.argmin(np.abs(wav - lam))) for lam in targets]


def air_temperature(cube, wav, lam_sat=BANDS_UM[4]):
    """Median brightness temperature over positive pixels of the band nearest lam_sat."""
    i = int(np.argmin(np.abs(wav - lam_sat)))
    band = np.asarray(cube[:, :, i], dtype=np.float64)
    return float(np.median(brightness_temperature(wav[i], band[band > 0.0])))


def ozone_slope(sky, wav):
    """Through-origin least-squares slope of the water difference on the ozone difference."""
    i1, i2, i3, i4, _ = band_indices(wav)
    dwater = sky[:, i2] - sky[:, i1]
    dozone = sky[:, i4] - sky[:, i3]
    return float(dwater @ dozone / (dozone @ dozone))


def log_ratio(mode, cube, wav, alpha, t_air=None, slope=None):
    """Reference closed-form map and flags.

    d = -10 / (alpha2 - alpha1) * log10(gamma), with gamma
      bi-hot: L2 / L1
      bi-air: (L2 - B2) / (L1 - B1)
      quad:   (L2 - B2 - s (L4 - L3)) / (L1 - B1)
    where B_i = B(lambda_i; T_air). Flags: zero denominator, non-positive
    (or non-finite) ratio, negative range (value kept), else valid.
    """
    i1, i2, i3, i4, _ = band_indices(wav)

    def band(i):
        return np.asarray(cube[:, :, i], dtype=np.float64)

    num, den = band(i2), band(i1)
    if mode != "bi-hot":
        num = num - planck(wav[i2], t_air)
        den = den - planck(wav[i1], t_air)
    if mode == "quad":
        num = num - slope * (band(i4) - band(i3))
    coef = -10.0 / (alpha[i2] - alpha[i1])
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = num / den
        d = coef * np.log10(np.where(gamma > 0.0, gamma, 1.0))
    flags = np.full(num.shape, FLAG_VALID, dtype=np.uint8)
    zden = np.abs(den) < DENOMINATOR_TOL
    nonpos = ~zden & ~(gamma > 0.0)
    nonpos |= ~zden & ~nonpos & ~np.isfinite(d)
    flags[zden] = FLAG_ZERO_DEN
    flags[nonpos] = FLAG_NONPOSITIVE
    flags[(flags == FLAG_VALID) & (d < 0.0)] = FLAG_CLIPPED
    return d, flags


def objective(y, wav, alpha, d, t, eps, om, sky, b_air, rho_eps):
    """Per-pixel solver objective: squared misfit plus rho_eps * sum (d eps / d band)^2.

    The ground term is the ambient fill B(T_air), as the solver uses it.
    """
    r = observed(wav, alpha, d, t, eps, om, sky, b_air, b_air) - y
    return (r * r).sum(axis=1) + rho_eps * (np.diff(eps, axis=1) ** 2).sum(axis=1)


def patch_stats(values, valid, truth, size):
    """Rows of (label, mean, population std, truth median, n_valid) over the
    non-overlapping size x size tiling; partial edge tiles are skipped."""
    m, n = values.shape
    rows = []
    for i in range(0, m - size + 1, size):
        for j in range(0, n - size + 1, size):
            ok = valid[i:i + size, j:j + size]
            v = values[i:i + size, j:j + size][ok].astype(np.float64)
            cnt = int(ok.sum())
            mean = float(v.sum() / cnt) if cnt else float("nan")
            std = float(np.sqrt(((v - mean) ** 2).sum() / cnt)) if cnt else float("nan")
            rows.append((f"p{i // size}_{j // size}", mean, std,
                         float(np.median(truth[i:i + size, j:j + size].astype(np.float64))),
                         cnt))
    return rows


# ----------------------------------------------------------------------
# scene regions
# ----------------------------------------------------------------------

def regions(truth):
    """Evaluation regions named by emissivity, read off the truth maps.

    panel60 / panel90: panel cells with eps = 0.6 / 0.9; near / far:
    background (eps = 0.98) with truth range below / at or above 40 m.
    """
    eps = truth["emissivity"][:, :, 0]
    d = truth["distance"]
    bg = np.abs(eps - 0.98) < 1e-6
    return {
        "panel60": np.abs(eps - 0.6) < 1e-6,
        "panel90": np.abs(eps - 0.9) < 1e-6,
        "near": bg & (d < 40.0),
        "far": bg & (d >= 40.0),
    }


def region_mae(dist, valid, truth_distance, region):
    """Mean |estimate - truth| over the region's valid pixels (nan if none)."""
    sel = region & valid
    if not sel.any():
        return float("nan")
    return float(np.abs(dist[sel].astype(np.float64) - truth_distance[sel]).mean())
