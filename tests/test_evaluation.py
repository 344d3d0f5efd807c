"""Patch tiling and statistics, the patch CSV, and map rendering."""

import numpy as np
import numpy.testing as npt
import pytest

from lwirange import (
    DimensionError,
    DomainError,
    PATCH_CSV_COLUMNS,
    PatchSpec,
    default_patches,
    patch_stats,
    render_map,
    write_patch_stats_csv,
)
from lwirange.closed_form import FLAG_VALID, FLAG_ZERO_DENOMINATOR, RangeMap


def small_range_map():
    d = np.arange(16, dtype=np.float64).reshape(4, 4)
    v = np.full((4, 4), FLAG_VALID, dtype=np.uint8)
    return RangeMap(distances=d, validity=v)


class TestPatchSpec:
    def test_slices(self):
        p = PatchSpec(i=2, j=3, rows=4, cols=5, label="x")
        si, sj = p.slices()
        assert (si.start, si.stop) == (2, 6)
        assert (sj.start, sj.stop) == (3, 8)

    def test_rejects_negative_origin(self):
        with pytest.raises(DomainError, match="origin"):
            PatchSpec(i=-1, j=0)

    def test_rejects_empty_size(self):
        with pytest.raises(DomainError, match="size"):
            PatchSpec(i=0, j=0, rows=0, cols=3)

    @pytest.mark.parametrize("field, value", [
        ("rows", 2.5), ("cols", 2.0), ("i", "0"), ("j", None), ("i", 1.0),
        ("rows", True), ("j", np.float64(3.0)),
    ])
    def test_rejects_non_integer_fields(self, field, value):
        kw = {"i": 0, "j": 0, "rows": 2, "cols": 2, field: value}
        with pytest.raises(DomainError, match=f"patch {field} must be an integer"):
            PatchSpec(**kw)

    def test_accepts_numpy_integers(self):
        p = PatchSpec(np.int64(1), np.int32(2), rows=np.uint8(3), cols=np.int64(4))
        assert p.slices() == (slice(1, 4), slice(2, 6))

    def test_default_patches_skip_partial_tiles(self):
        patches = default_patches((17, 9), size=8)
        assert [p.label for p in patches] == ["p0_0", "p1_0"]
        assert all(p.rows == p.cols == 8 for p in patches)
        assert patches[1].i == 8 and patches[1].j == 0

    @pytest.mark.parametrize("size", [0, -1, 2.5, "8", True])
    def test_default_patches_reject_bad_size(self, size):
        with pytest.raises(DomainError, match="patch size"):
            default_patches((16, 16), size=size)


class TestPatchStats:
    def test_hand_computed_values(self):
        rm = small_range_map()
        truth = np.full((4, 4), 7.0)
        truth[0, 0] = 1.0
        rows = patch_stats(rm, truth, [PatchSpec(0, 0, 2, 2, label="ul")])
        assert len(rows) == 1
        r = rows[0]
        # estimate block is [[0,1],[4,5]]: mean 2.5, population std sqrt(4.25)
        assert r["label"] == "ul"
        assert r["mean_m"] == 2.5
        npt.assert_allclose(r["std_m"], np.sqrt(4.25), rtol=1e-15)
        assert r["truth_median_m"] == 7.0
        assert r["n_valid"] == 4

    def test_flagged_pixels_are_excluded(self):
        rm = small_range_map()
        rm.validity[0, 0] = FLAG_ZERO_DENOMINATOR
        rows = patch_stats(rm, np.zeros((4, 4)), [PatchSpec(0, 0, 2, 2)])
        assert rows[0]["n_valid"] == 3
        npt.assert_allclose(rows[0]["mean_m"], (1 + 4 + 5) / 3.0)

    def test_all_flagged_patch_reports_nan(self):
        rm = small_range_map()
        rm.validity[:2, :2] = FLAG_ZERO_DENOMINATOR
        rows = patch_stats(rm, np.zeros((4, 4)), [PatchSpec(0, 0, 2, 2)])
        assert rows[0]["n_valid"] == 0
        assert np.isnan(rows[0]["mean_m"]) and np.isnan(rows[0]["std_m"])

    def test_range_map_nan_is_flagged_whatever_its_flag(self):
        rm = small_range_map()
        rm.distances[0, 0] = np.nan
        rows = patch_stats(rm, np.zeros((4, 4)), [PatchSpec(0, 0, 2, 2)])
        assert rows[0]["n_valid"] == 3
        npt.assert_allclose(rows[0]["mean_m"], (1 + 4 + 5) / 3.0)

    def test_plain_array_uses_nan_as_flag(self):
        est = np.ones((4, 4))
        est[1, 1] = np.nan
        rows = patch_stats(est, np.zeros((4, 4)), [PatchSpec(0, 0, 2, 2)])
        assert rows[0]["n_valid"] == 3

    def test_out_of_bounds_patch_rejected(self):
        rm = small_range_map()
        with pytest.raises(DomainError, match="exceeds image bounds"):
            patch_stats(rm, np.zeros((4, 4)), [PatchSpec(2, 2, 4, 4)])

    def test_truth_shape_must_match(self):
        rm = small_range_map()
        with pytest.raises(DimensionError, match="truth shape"):
            patch_stats(rm, np.zeros((3, 4)), [PatchSpec(0, 0, 2, 2)])

    def test_csv_exact_text(self, tmp_path):
        rows = [{"label": "a", "mean_m": 2.5, "std_m": 0.5,
                 "truth_median_m": 7.0, "n_valid": 4}]
        out = tmp_path / "stats.csv"
        write_patch_stats_csv(out, rows)
        assert out.read_text() == (
            "label,mean_m,std_m,truth_median_m,n_valid\n"
            "a,2.5,0.5,7.0,4\n")
        assert ",".join(PATCH_CSV_COLUMNS) == "label,mean_m,std_m,truth_median_m,n_valid"

    def test_patch_order_is_preserved_not_sorted(self):
        rm = small_range_map()
        pats = [PatchSpec(2, 2, 2, 2, label="z"), PatchSpec(0, 0, 2, 2, label="a")]
        rows = patch_stats(rm, np.zeros((4, 4)), pats)
        assert [r["label"] for r in rows] == ["z", "a"]


class TestRender:
    def test_gray_header_and_payload(self, tmp_path):
        rm = small_range_map()
        out = render_map(rm, "gray", tmp_path / "d.pgm")
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n4 4\n255\n")
        pix = raw[len(b"P5\n4 4\n255\n"):]
        assert len(pix) == 16
        assert pix[0] == 0 and pix[-1] == 255  # min->0, max->255

    def test_fire_payload_size_and_black_flags(self, tmp_path):
        rm = small_range_map()
        rm.validity[0, 0] = FLAG_ZERO_DENOMINATOR
        out = render_map(rm, "fire", tmp_path / "d.ppm")
        raw = out.read_bytes()
        assert raw.startswith(b"P6\n4 4\n255\n")
        pix = raw[len(b"P6\n4 4\n255\n"):]
        assert len(pix) == 48
        assert pix[0:3] == b"\x00\x00\x00"  # flagged pixel renders black

    def test_range_map_nan_renders_black_and_out_of_the_scale(self, tmp_path):
        rm = small_range_map()
        rm.distances[0, 0] = np.nan
        raw = render_map(rm, "gray", tmp_path / "n.pgm").read_bytes()
        pix = raw[len(b"P5\n4 4\n255\n"):]
        assert pix[0] == 0 and pix[1] == 0 and pix[-1] == 255  # scale 1..15

    def test_all_flagged_map_renders_black(self, tmp_path):
        # no valid pixel to take vmin/vmax from: the default 0..1 range
        rm = small_range_map()
        rm.validity[:] = FLAG_ZERO_DENOMINATOR
        for palette, magic, size in (("gray", b"P5", 16), ("fire", b"P6", 48)):
            raw = render_map(rm, palette, tmp_path / f"a.{palette}").read_bytes()
            header = magic + b"\n4 4\n255\n"
            assert raw == header + bytes(size), palette

    def test_explicit_range_clamps(self, tmp_path):
        est = np.array([[0.0, 5.0], [10.0, 20.0]])
        out = render_map(est, "gray", tmp_path / "c.pgm", vmin=5.0, vmax=10.0)
        pix = out.read_bytes()[len(b"P5\n2 2\n255\n"):]
        assert pix[0] == 0      # below vmin clamps to 0
        assert pix[1] == 0      # at vmin
        assert pix[2] == 255    # at vmax
        assert pix[3] == 255    # above vmax clamps

    def test_a_subnormal_span_renders_without_overflow(self, tmp_path):
        # values far beyond a subnormal span clamp, as any value above vmax
        est = np.array([[0.0, 1e-320], [1.0, 20.0]])
        for palette, magic, size in (("gray", b"P5", 4), ("fire", b"P6", 12)):
            raw = render_map(est, palette, tmp_path / f"s.{palette}",
                             vmin=0.0, vmax=1e-320).read_bytes()
            header = magic + b"\n2 2\n255\n"
            assert raw == header + bytes(size // 4) + b"\xff" * (size * 3 // 4), palette

    def test_zero_span_renders_valid_as_full(self, tmp_path):
        est = np.full((2, 2), 3.0)
        out = render_map(est, "gray", tmp_path / "z.pgm")
        pix = out.read_bytes()[len(b"P5\n2 2\n255\n"):]
        assert set(pix) == {255}

    def test_unknown_palette_rejected(self, tmp_path):
        with pytest.raises(DomainError, match="palette"):
            render_map(small_range_map(), "viridis", tmp_path / "x.pgm")

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError, match="cannot write image"):
            render_map(small_range_map(), "gray", tmp_path / "no" / "dir" / "x.pgm")
