"""Patch statistics of range maps against truth, and map rendering."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .closed_form import RangeMap, _median
from .errors import DimensionError, DomainError, _is_int

PATCH_CSV_COLUMNS = ("label", "mean_m", "std_m", "truth_median_m", "n_valid")


@dataclass(frozen=True)
class PatchSpec:
    """A rectangular evaluation window anchored at its top-left pixel."""

    i: int
    j: int
    rows: int = 8
    cols: int = 8
    label: str = ""

    def __post_init__(self):
        for name in ("i", "j", "rows", "cols"):
            v = getattr(self, name)
            if not _is_int(v):
                raise DomainError(f"patch {name} must be an integer, got {v!r}")
        if self.i < 0 or self.j < 0:
            raise DomainError(f"patch origin must be non-negative, got ({self.i}, {self.j})")
        if self.rows < 1 or self.cols < 1:
            raise DomainError(f"patch size must be positive, got ({self.rows}, {self.cols})")

    def slices(self):
        return slice(self.i, self.i + self.rows), slice(self.j, self.j + self.cols)


def default_patches(shape, size=8):
    """Non-overlapping size x size tiling; partial edge tiles are skipped."""
    if not _is_int(size) or size < 1:
        raise DomainError(f"patch size must be an integer >= 1, got {size!r}")
    m, n = shape
    out = []
    for i in range(0, m - size + 1, size):
        for j in range(0, n - size + 1, size):
            out.append(PatchSpec(i=i, j=j, rows=size, cols=size,
                                 label=f"p{i // size}_{j // size}"))
    return out


def _as_values_and_mask(estimate):
    # a NaN is never a range, whatever its flag says
    if isinstance(estimate, RangeMap):
        return estimate.distances, estimate.valid_mask & np.isfinite(estimate.distances)
    arr = np.asarray(estimate, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"estimate map must be 2-D, got shape {arr.shape}")
    return arr, np.isfinite(arr)


def patch_stats(estimate, truth, patches):
    """Per-patch mean/std of valid estimates plus the truth median.

    estimate: RangeMap (validity-aware) or a plain 2-D array; flagged and
    non-finite entries are skipped. truth: 2-D array. Returns one dict per
    patch; an all-flagged patch is reported with n_valid = 0 and NaN stats.
    Std is the population form (divide by n), stated here once so the CSV
    is unambiguous.
    """
    values, mask = _as_values_and_mask(estimate)
    tr = np.asarray(truth, dtype=np.float64)
    if tr.shape != values.shape:
        raise DimensionError(
            f"truth shape {tr.shape} does not match estimate {values.shape}")
    rows = []
    for p in patches:
        si, sj = p.slices()
        if p.i + p.rows > values.shape[0] or p.j + p.cols > values.shape[1]:
            raise DomainError(
                f"patch {p.label or (p.i, p.j)} exceeds image bounds {values.shape}")
        ok = mask[si, sj]
        vals = values[si, sj][ok]
        n = int(ok.sum())
        rows.append({
            "label": p.label or f"p@{p.i},{p.j}",
            "mean_m": float(vals.mean()) if n else float("nan"),
            "std_m": float(vals.std()) if n else float("nan"),
            "truth_median_m": _median(tr[si, sj]),
            "n_valid": n,
        })
    return rows


def write_patch_stats_csv(path, rows):
    lines = [",".join(PATCH_CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join([
            str(r["label"]),
            repr(r["mean_m"]),
            repr(r["std_m"]),
            repr(r["truth_median_m"]),
            str(r["n_valid"]),
        ]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_PALETTES = ("gray", "fire")


def _fire_rgb(u):
    # piecewise black->red->yellow->white ramp on u in [0,1]
    r = np.clip(3.0 * u, 0.0, 1.0)
    g = np.clip(3.0 * u - 1.0, 0.0, 1.0)
    b = np.clip(3.0 * u - 2.0, 0.0, 1.0)
    return np.stack([r, g, b], axis=-1)


def render_map(estimate, palette, path, vmin=None, vmax=None):
    """Write a PGM (gray) or PPM (fire) image of a scalar map.

    Values scale linearly between vmin/vmax (defaults: min/max over valid
    pixels) and clamp outside; flagged pixels render black.
    """
    if palette not in _PALETTES:
        raise DomainError(f"palette must be one of {_PALETTES}, got {palette!r}")
    values, mask = _as_values_and_mask(estimate)
    if mask.any():
        lo = float(values[mask].min()) if vmin is None else float(vmin)
        hi = float(values[mask].max()) if vmax is None else float(vmax)
    else:
        lo = 0.0 if vmin is None else float(vmin)
        hi = 1.0 if vmax is None else float(vmax)
    span = hi - lo
    if span <= 0.0:
        u = np.where(mask, 1.0, 0.0)
    else:
        # clipped before the division, so that a subnormal span cannot
        # overflow it; each u has the bits of clip((values - lo) / span)
        u = np.clip(values - lo, 0.0, span) / span
        u = np.where(mask, u, 0.0)
    m, n = values.shape
    try:
        if palette == "gray":
            pix = np.round(u * 255.0).astype(np.uint8)
            header = f"P5\n{n} {m}\n255\n".encode("ascii")
            Path(path).write_bytes(header + pix.tobytes(order="C"))
        else:
            rgb = np.round(_fire_rgb(u) * 255.0).astype(np.uint8)
            rgb[~mask] = 0
            header = f"P6\n{n} {m}\n255\n".encode("ascii")
            Path(path).write_bytes(header + rgb.tobytes(order="C"))
    except OSError as exc:
        raise OSError(f"cannot write image {path}: {exc}") from exc
    return Path(path)
