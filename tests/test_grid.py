from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyppg import (
    PoseKeypoints,
    PulseRateSeries,
    SubregionGrid,
    WindowPlan,
    aggregate_heatmap,
    average_pose,
    homography_from_poses,
    score_grid,
    upsample_frame,
    warp_error_frame,
)
from bodyppg.grid import _BAND_PIXELS, ErrorFrame, grid_geometry
from bodyppg.session import open_grid_store, read_grid, write_grid
from bodyppg.signals import window_starts
from bodyppg.synth import PulseModel, constant_rate, synth_pulse

import loop_reference

FS = 90.0


def flat_reference(bpm, duration_s):
    times = np.arange(5.0, duration_s - 5.0 + 1e-9, 1.0)
    return PulseRateSeries(times, np.full(times.size, bpm), 10.0, (40.0, 180.0))


def make_grid(rows=2, cols=3, duration_s=30.0, noise_cells=(), seed=1, skin_fraction=None):
    pulse = synth_pulse(
        PulseModel(
            fs_hz=FS,
            duration_s=duration_s,
            rate_profile=constant_rate(72.0),
            harmonics=((1.0, 1.0, 0.0), (2.0, 0.3, 1.1)),
            seed=seed,
        )
    )
    n = len(pulse)
    rng = np.random.default_rng(seed + 1)
    base = (0.66, 0.50, 0.42)
    mod = (0.002, 0.006, 0.004)
    values = np.empty((n, rows, cols, 3))
    for r in range(rows):
        for c in range(cols):
            for ch in range(3):
                if (r, c) in noise_cells:
                    values[:, r, c, ch] = base[ch] + rng.normal(0.0, 0.003, n)
                else:
                    values[:, r, c, ch] = base[ch] * (
                        1.0 + mod[ch] * pulse.samples
                    ) + rng.normal(0.0, 0.0008, n)
    if skin_fraction is None:
        skin_fraction = np.ones((rows, cols))
    return SubregionGrid(
        values=values,
        sample_rate_hz=FS,
        start_time_s=0.0,
        origin_px=(100, 50),
        cell_px=20,
        skin_fraction=skin_fraction,
    )


class TestGeometry:
    def test_cell_tiling(self):
        assert grid_geometry(100, 60, 20) == (5, 3)

    def test_partial_cells_dropped(self):
        assert grid_geometry(39, 39, 20) == (1, 1)


class TestScoreGrid:
    def test_clean_cells_score_well(self):
        grid = make_grid()
        frames = score_grid(grid, flat_reference(72.0, 30.0))
        assert len(frames) == 3
        for frame in frames:
            assert np.nanmax(frame.mae_map) < 0.5
            assert np.nanmin(frame.snr_map) > 3.0

    def test_noise_cells_flagged_bad(self):
        grid = make_grid(noise_cells=((1, 1),), duration_s=60.0)
        frames = score_grid(grid, flat_reference(72.0, 60.0))
        noise_mae = np.mean([f.mae_map[1, 1] for f in frames])
        noise_snr = np.mean([f.snr_map[1, 1] for f in frames])
        assert noise_mae > 2.0
        assert noise_snr < 0.0
        # clean cells score exactly as they do without the noise cell present
        baseline = score_grid(make_grid(duration_s=60.0), flat_reference(72.0, 60.0))
        for fa, fb in zip(frames, baseline):
            diff = fa.mae_map != fb.mae_map
            assert not np.any(np.delete(diff.ravel(), 4))

    def test_no_cross_cell_leakage(self):
        base = make_grid(duration_s=30.0, seed=7)
        frames_a = score_grid(base, flat_reference(72.0, 30.0))
        perturbed = make_grid(duration_s=30.0, seed=7, noise_cells=((0, 1),))
        frames_b = score_grid(perturbed, flat_reference(72.0, 30.0))
        for fa, fb in zip(frames_a, frames_b):
            diff = np.abs(fa.mae_map - fb.mae_map)
            others = np.delete(diff.ravel(), 1)
            assert np.all(others == 0.0)

    def test_error_frame_count(self):
        grid = make_grid(duration_s=90.0)
        frames = score_grid(grid, flat_reference(72.0, 90.0))
        assert len(frames) == 9

    def test_unmasked_cells_stay_undefined(self):
        fraction = np.ones((2, 3))
        fraction[0, 0] = 0.3
        grid = make_grid(skin_fraction=fraction)
        frames = score_grid(grid, flat_reference(72.0, 30.0))
        for frame in frames:
            assert not frame.skin_mask[0, 0]
            assert np.isnan(frame.mae_map[0, 0])
            assert not np.isnan(frame.mae_map[1, 1])

    def test_short_signal_empty(self):
        grid = make_grid(duration_s=8.0)
        assert score_grid(grid, flat_reference(72.0, 30.0)) == []


class TestBadCellMeans:
    """A grid built in memory is checked where its skin cells are scored."""

    @staticmethod
    def grid_with(value, cell=(1, 2), skin_fraction=None):
        grid = make_grid(rows=2, cols=3, duration_s=20.0, skin_fraction=skin_fraction)
        values = grid.values.copy()
        values[1000, cell[0], cell[1], 1] = value  # frame 1000, in the second window
        return replace(grid, values=values)

    @pytest.mark.parametrize("value, cause", [(-0.1, "negative"), (np.nan, "finite")])
    def test_a_bad_skin_cell_mean_fails(self, value, cause):
        with pytest.raises(ValueError, match=cause):
            score_grid(self.grid_with(value), flat_reference(72.0, 20.0))

    @pytest.mark.parametrize("value", [-0.1, np.nan, np.inf])
    def test_the_error_names_the_cell_its_channel_and_time(self, value):
        with pytest.raises(ValueError) as error:
            score_grid(self.grid_with(value), flat_reference(72.0, 20.0))
        assert str(error.value) == (f"cell (1, 2) has a G mean of {value!r} at 11.1111 s; "
                                    "cell means must be finite and non-negative")

    def test_a_cell_below_the_skin_threshold_is_not_read(self):
        fraction = np.ones((2, 3))
        fraction[1, 2] = 0.2
        bad = self.grid_with(np.nan, skin_fraction=fraction)
        good = replace(bad, values=make_grid(rows=2, cols=3, duration_s=20.0).values)
        ref = flat_reference(72.0, 20.0)
        TestScoreGridOracle.assert_frames_equal(score_grid(bad, ref), score_grid(good, ref))


class TestScoreGridOracle:
    """Batched scoring equals the per-cell loop exactly, edge cells included."""

    @staticmethod
    def edge_grid(start_time_s=0.0):
        grid = make_grid(rows=3, cols=4, duration_s=40.0, noise_cells=((1, 0),), seed=3)
        values = grid.values.copy()
        values[:, 0, 0, 0] = 0.0  # zero red mean: POS raises in every window
        values[:, 0, 1, :] = (0.5, 0.4, 0.3)  # constant: an all-zero pulse
        values[: int(12 * FS), 2, 3, 1] = 0.0  # zero green mean in early windows only
        fraction = np.ones((3, 4))
        fraction[0, 2] = 0.3  # below the skin threshold
        return SubregionGrid(values, FS, start_time_s, (0, 0), 20, fraction)

    @staticmethod
    def assert_frames_equal(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.window_index, g.window_start_s) == (w.window_index, w.window_start_s)
            np.testing.assert_array_equal(g.mae_map, w.mae_map)
            np.testing.assert_array_equal(g.snr_map, w.snr_map)
            np.testing.assert_array_equal(g.skin_mask, w.skin_mask)

    @pytest.mark.parametrize("plan", [None, WindowPlan(10.0, 4.0), WindowPlan(7.3, 3.1)])
    def test_equals_per_cell_loop(self, plan):
        grid = self.edge_grid(start_time_s=2.5)
        times = np.arange(5.0, 45.0, 1.0)
        ref = PulseRateSeries(times, np.linspace(65.0, 80.0, times.size), 10.0, (40.0, 180.0))
        got = score_grid(grid, ref, plan)
        self.assert_frames_equal(got, loop_reference.score_grid(grid, ref, plan))
        assert np.isnan(got[0].mae_map[[0, 0, 0, 2], [0, 1, 2, 3]]).all()
        assert np.isfinite(got[-1].mae_map[2, 3])

    @pytest.mark.parametrize("plan", [WindowPlan(10.0, 10.0), WindowPlan(10.0, 4.0),
                                      WindowPlan(7.3, 3.1), WindowPlan(6.0, 9.5)])
    def test_one_window_grids_score_as_the_whole_grid(self, plan):
        # Each window of a grid, placed by its start time and scored as one
        # non-overlapping window, scores as that window of the whole grid.
        grid = self.edge_grid(start_time_s=2.5)
        times = np.arange(5.0, 45.0, 1.0)
        ref = PulseRateSeries(times, np.linspace(65.0, 80.0, times.size), 10.0, (40.0, 180.0))
        want = score_grid(grid, ref, plan)
        starts = window_starts(grid.n_frames, FS, plan).tolist()
        got = []
        for widx, window in enumerate(grid.windows(starts, plan.length_samples(FS))):
            assert np.shares_memory(window.values, grid.values)
            (frame,) = score_grid(window, ref, WindowPlan(plan.length_s, plan.length_s))
            got.append(replace(frame, window_index=widx))
        self.assert_frames_equal(got, want)

    @pytest.mark.parametrize("plan", [WindowPlan(10.0, 10.0), WindowPlan(10.0, 4.0),
                                      WindowPlan(7.3, 3.1), WindowPlan(6.0, 9.5)])
    def test_store_read_a_window_at_a_time_scores_as_the_whole_grid(self, tmp_path, plan):
        # A grid store gives score_grid one window of cell means at a time, a
        # grid read whole gives it views; the store holds the grid's own bits.
        grid = self.edge_grid(start_time_s=2.5)
        paths = (tmp_path / "grid.rgm", tmp_path / "grid.json")
        write_grid(*paths, grid)
        times = np.arange(5.0, 45.0, 1.0)
        ref = PulseRateSeries(times, np.linspace(65.0, 80.0, times.size), 10.0, (40.0, 180.0))
        want = score_grid(read_grid(*paths), ref, plan)
        assert len(want) == len(window_starts(grid.n_frames, FS, plan))
        self.assert_frames_equal(score_grid(open_grid_store(*paths), ref, plan), want)
        self.assert_frames_equal(score_grid(grid, ref, plan), want)

    def test_band_beyond_nyquist_leaves_every_cell_undefined(self):
        grid = self.edge_grid()
        ref = flat_reference(72.0, 40.0)
        band = (40.0, 3000.0)  # Nyquist is 2700 bpm at 90 Hz
        with mock.patch("bodyppg.grid.DEFAULT_BAND_BPM", band):
            got = score_grid(grid, ref)
        self.assert_frames_equal(got, loop_reference.score_grid(grid, ref, band_bpm=band))
        assert len(got) == 4
        assert all(np.isnan(f.mae_map).all() and np.isnan(f.snr_map).all() for f in got)


class TestUpsample:
    def make_frame(self, mae):
        mae = np.asarray(mae, dtype=float)
        return ErrorFrame(
            window_index=0,
            window_start_s=0.0,
            mae_map=mae,
            snr_map=mae.copy(),
            skin_mask=np.ones(mae.shape, dtype=bool),
        )

    def test_constant_map(self):
        up = upsample_frame(self.make_frame(np.full((2, 2), 3.0)), 20)
        assert up["mae"].shape == (40, 40)
        assert np.allclose(up["mae"], 3.0)

    def test_factor_one_identity(self):
        m = np.arange(6.0).reshape(2, 3)
        up = upsample_frame(self.make_frame(m), 1)
        assert np.allclose(up["mae"], m)

    def test_gradient_closed_form(self):
        up = upsample_frame(self.make_frame([[0.0, 1.0], [0.0, 1.0]]), 20)
        out = up["mae"]
        # each row runs linearly from 0 to 1
        expected = np.linspace(0.0, 1.0, 40)
        for row in out:
            assert np.allclose(row, expected, atol=1e-12)


class TestPoses:
    def make_pose(self, offset=(0.0, 0.0), vis=None):
        names = ("a", "b", "c", "d", "e")
        xy = np.array(
            [[0.0, 0.0], [100.0, 0.0], [100.0, 100.0], [0.0, 100.0], [40.0, 60.0]]
        ) + np.asarray(offset)
        visibility = np.ones(5) if vis is None else np.asarray(vis, dtype=float)
        return PoseKeypoints(names=names, xy=xy, visibility=visibility)

    def test_average_identical(self):
        p = self.make_pose()
        avg = average_pose([p, p, p])
        assert np.allclose(avg.xy, p.xy)

    def test_average_midpoint(self):
        avg = average_pose([self.make_pose((-10.0, 0.0)), self.make_pose((10.0, 0.0))])
        assert np.allclose(avg.xy, self.make_pose().xy)

    def test_invisible_keypoint_excluded_from_mean(self):
        lo_vis = self.make_pose((20.0, 0.0), vis=[1, 1, 1, 1, 0.2])
        avg = average_pose([self.make_pose(), lo_vis])
        assert avg.xy[avg.names.index("e")] == pytest.approx([40.0, 60.0])
        assert avg.xy[avg.names.index("a")] == pytest.approx([10.0, 0.0])

    def test_keypoint_visible_nowhere_dropped(self):
        a = self.make_pose(vis=[1, 1, 1, 1, 0.1])
        b = self.make_pose(vis=[1, 1, 1, 1, 0.2])
        avg = average_pose([a, b])
        assert "e" not in avg.names


class TestHomography:
    def pose_pair(self, h):
        names = tuple("abcdefgh")
        src_xy = np.array(
            [
                [0.0, 0.0],
                [100.0, 0.0],
                [100.0, 100.0],
                [0.0, 100.0],
                [50.0, 20.0],
                [20.0, 80.0],
                [80.0, 60.0],
                [40.0, 40.0],
            ]
        )
        homog = np.column_stack([src_xy, np.ones(len(src_xy))])
        mapped = (h @ homog.T).T
        dst_xy = mapped[:, :2] / mapped[:, 2:3]
        vis = np.ones(len(src_xy))
        return (
            PoseKeypoints(names, src_xy, vis),
            PoseKeypoints(names, dst_xy, vis),
        )

    def test_identity(self):
        src, dst = self.pose_pair(np.eye(3))
        h = homography_from_poses(src, dst)
        assert np.allclose(h, np.eye(3), atol=1e-9)

    def test_translation(self):
        true = np.array([[1.0, 0.0, 10.0], [0.0, 1.0, 5.0], [0.0, 0.0, 1.0]])
        src, dst = self.pose_pair(true)
        h = homography_from_poses(src, dst)
        assert np.allclose(h, true, atol=1e-9)

    def test_random_projective_recovery(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            true = np.eye(3) + rng.normal(0.0, 0.05, (3, 3)) * np.array(
                [[1, 1, 20], [1, 1, 20], [1e-3, 1e-3, 0]]
            )
            true /= true[2, 2]
            src, dst = self.pose_pair(true)
            h = homography_from_poses(src, dst)
            rel = np.linalg.norm(h - true) / np.linalg.norm(true)
            assert rel < 1e-6

    def test_composition_consistency(self):
        rng = np.random.default_rng(15)
        h_ab = np.eye(3) + rng.normal(0.0, 0.03, (3, 3)) * np.array(
            [[1, 1, 10], [1, 1, 10], [1e-3, 1e-3, 0]]
        )
        h_bc = np.eye(3) + rng.normal(0.0, 0.03, (3, 3)) * np.array(
            [[1, 1, 10], [1, 1, 10], [1e-3, 1e-3, 0]]
        )
        a, b = self.pose_pair(h_ab)
        _, c = self.pose_pair(h_bc @ h_ab)
        hab = homography_from_poses(a, b)
        hbc = homography_from_poses(b, c)
        hac = homography_from_poses(a, c)
        composed = hbc @ hab
        composed /= composed[2, 2]
        rel = np.linalg.norm(hac - composed) / np.linalg.norm(hac)
        assert rel < 1e-4

    def test_too_few_points_rejected(self):
        names = ("a", "b", "c", "d")
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        src = PoseKeypoints(names, xy, np.array([1.0, 1.0, 1.0, 0.1]))
        dst = PoseKeypoints(names, xy, np.ones(4))
        with pytest.raises(ValueError):
            homography_from_poses(src, dst)

    def test_collinear_points_rejected(self):
        names = ("a", "b", "c", "d", "e")
        xy = np.column_stack([np.arange(5.0), 2.0 * np.arange(5.0)])
        src = PoseKeypoints(names, xy, np.ones(5))
        dst = PoseKeypoints(names, xy + 3.0, np.ones(5))
        with pytest.raises(ValueError):
            homography_from_poses(src, dst)


class TestWarp:
    def test_identity(self):
        m = np.add.outer(np.linspace(0, 1, 30), np.linspace(0, 2, 40))
        out = warp_error_frame(m, np.eye(3), (40, 30))
        assert np.allclose(out, m, atol=1e-12)

    def test_translation_leaves_undefined_band(self):
        m = np.ones((20, 20))
        h = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        out = warp_error_frame(m, h, (20, 20))
        assert np.all(np.isnan(out[:, :5]))
        assert np.allclose(out[:, 5:], 1.0)

    def test_round_trip(self):
        m = np.add.outer(np.linspace(0, 1, 60), np.linspace(0, 2, 80))
        h = np.array([[1.02, 0.03, 5.0], [-0.02, 0.98, -3.0], [1e-4, -5e-5, 1.0]])
        there = warp_error_frame(m, h, (80, 60))
        back = warp_error_frame(there, np.linalg.inv(h), (80, 60))
        both = np.isfinite(back) & np.isfinite(m)
        mad = np.mean(np.abs(back - m)[both])
        assert mad < 0.02 * (m.max() - m.min())

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            warp_error_frame(np.ones((10, 10)), np.zeros((3, 3)), (10, 10))


def nan_scattered_map(rng, shape, nan_fraction=0.1):
    m = rng.uniform(0.0, 30.0, shape)
    m[rng.random(shape) < nan_fraction] = np.nan
    return m


class TestBilinearOracle:
    """The one bilinear kernel against the two samplers it replaced."""

    @pytest.mark.parametrize("factor", [1, 2, 20])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (3, 4), (15, 20)])
    def test_upsample_equals_resize(self, shape, factor):
        rng = np.random.default_rng(factor * 100 + shape[0] * 10 + shape[1])
        frame = ErrorFrame(0, 0.0, nan_scattered_map(rng, shape), nan_scattered_map(rng, shape),
                           rng.random(shape) < 0.7)
        got = upsample_frame(frame, factor)
        want = loop_reference.upsample_frame(frame, factor)
        for key in ("mae", "snr", "mask"):
            np.testing.assert_array_equal(got[key], want[key])

    @pytest.mark.parametrize("seed", range(6))
    def test_warp_matches_four_term_sum(self, seed):
        rng = np.random.default_rng(seed)
        m = nan_scattered_map(rng, (60, 80), nan_fraction=0.05)
        h = np.eye(3)
        h[:2, :2] += rng.normal(0.0, 0.03, (2, 2))
        h[:2, 2] = rng.normal(0.0, 4.0, 2)
        h[2, :2] = rng.normal(0.0, 1e-4, 2)
        for hom in (h, np.eye(3), np.array([[1.0, 0, 3], [0, 1, -2], [0, 0, 1]])):
            got = warp_error_frame(m, hom, (80, 60))
            want = loop_reference.warp_error_frame(m, hom, (80, 60))
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            assert np.isfinite(got).sum() > 1000


@st.composite
def warp_cases(draw):
    """A warp of 1 to 3 maps, or of one 2-D map, whose output is below, at or
    above one band of rows; its pre-images may cross the line where the
    homography's denominator changes sign."""
    out_w = draw(st.integers(300, 1200))
    band = _BAND_PIXELS // out_w
    out_h = draw(st.sampled_from([1, band - 1, band, band + 1, 2 * band, 3 * band - 1])
                 | st.integers(1, 3 * band))
    src_h, src_w = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    k = draw(st.sampled_from([None, 1, 2, 3]))
    nan_fraction = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = rng.uniform(-30.0, 30.0, (src_h, src_w) if k is None else (k, src_h, src_w))
    src[..., rng.random((src_h, src_w)) < nan_fraction] = np.nan
    # The inverse map: output pixels onto the source, scaled, sheared and
    # shifted, with a projective row.
    m = np.diag([(src_w - 1) / out_w, (src_h - 1) / max(out_h, 1), 1.0])
    m[:2, :2] += rng.normal(0.0, 0.05, (2, 2)) * m[:2, :2].diagonal()
    m[:2, 2] = rng.normal(0.0, 0.1, 2) * (src_w, src_h)
    if draw(st.booleans()):
        # 1 at the origin and 0 at a pixel inside the output: the denominator
        # changes sign on a line through that pixel.
        px, py = rng.uniform(1, out_w), rng.uniform(0, out_h)
        u, v = rng.uniform(0.0, 1.0, 2)
        m[2, :2] = (u, v) / -(u * px + v * py)
    else:
        m[2, :2] = rng.normal(0.0, 1e-4, 2)
    return src, np.linalg.inv(m), (out_w, out_h)


class TestBandedWarpOracle:
    @settings(max_examples=60, deadline=None)
    @given(warp_cases())
    def test_equals_the_whole_frame_warp_bit_for_bit(self, case):
        src, h, size = case
        got = warp_error_frame(src, h, size)
        want = loop_reference.whole_frame_warp_error_frame(src, h, size)
        assert got.shape == want.shape == src.shape[:-2] + size[::-1]
        # The int64 views compare every bit, NaN layout and payloads included.
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestAggregate:
    def test_single_frame(self):
        m = np.arange(12.0).reshape(3, 4)
        mean, count = aggregate_heatmap([m])
        assert np.allclose(mean, m)
        assert np.all(count == 1)

    def test_undefined_pixels_excluded(self):
        a = np.ones((2, 2))
        b = np.ones((2, 2)) * 3.0
        b[0, 0] = np.nan
        mean, count = aggregate_heatmap([a, b])
        assert mean[0, 0] == 1.0
        assert count[0, 0] == 1
        assert mean[1, 1] == 2.0
        assert count[1, 1] == 2

    def test_identical_frames(self):
        m = np.arange(6.0).reshape(2, 3)
        mean, count = aggregate_heatmap([m] * 5)
        assert np.allclose(mean, m)
        assert np.all(count == 5)

    def test_never_defined_stays_undefined(self):
        a = np.full((2, 2), np.nan)
        mean, count = aggregate_heatmap([a, a])
        assert np.all(np.isnan(mean))
        assert np.all(count == 0)

    def test_no_frames_rejected(self):
        with pytest.raises(ValueError, match="need at least one frame"):
            aggregate_heatmap(iter([]))

    def test_frames_of_another_shape_rejected(self):
        # Adding a (1, 4) map to (3, 4) sums would broadcast, not fail.
        with pytest.raises(ValueError, match=r"one shape: \(1, 4\) after \(3, 4\)"):
            aggregate_heatmap([np.ones((3, 4)), np.ones((1, 4))])


def stacked_aggregate(frames):
    """The aggregation the running sums replaced: one stack of every map,
    summed along its first axis."""
    stack = np.stack(frames)
    defined = np.isfinite(stack)
    count = defined.sum(axis=0)
    total = np.where(defined, stack, 0.0).sum(axis=0)
    with np.errstate(invalid="ignore"):
        mean = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    return mean, count


class TestRunningAggregate:
    """Running sums, fed one map at a time, give the stacked sum's bits."""

    def test_equals_the_stacked_sum_for_1_to_40_maps(self):
        rng = np.random.default_rng(11)
        # Magnitudes over six decades, so the order of the additions shows in
        # the last bits; -0.0 and whole NaN rows are in as well.
        maps = []
        for _ in range(40):
            m = nan_scattered_map(rng, (300, 400), nan_fraction=0.3)
            m *= 10.0 ** rng.uniform(-3.0, 3.0, m.shape)
            m[rng.random(m.shape) < 0.01] = -0.0
            m[rng.integers(300)] = np.nan
            maps.append(m)
        for k in range(1, 41):
            mean, count = aggregate_heatmap(iter(maps[:k]))
            want_mean, want_count = stacked_aggregate(maps[:k])
            assert mean.view(np.int64).tolist() == want_mean.view(np.int64).tolist(), k
            assert count.dtype == want_count.dtype
            np.testing.assert_array_equal(count, want_count)

    def test_a_stack_aggregates_as_its_maps_alone(self):
        rng = np.random.default_rng(12)
        pairs = [np.stack([nan_scattered_map(rng, (30, 40)) for _ in range(2)])
                 for _ in range(7)]
        mean, count = aggregate_heatmap(pairs)
        for i in range(2):
            want_mean, want_count = stacked_aggregate([p[i] for p in pairs])
            assert mean[i].view(np.int64).tolist() == want_mean.view(np.int64).tolist()
            np.testing.assert_array_equal(count[i], want_count)


class TestStackedWarp:
    """A (k, H, W) stack warps to exactly the maps warped one at a time."""

    @pytest.mark.parametrize("seed", range(4))
    def test_stack_equals_single_warps(self, seed):
        rng = np.random.default_rng(100 + seed)
        mae = nan_scattered_map(rng, (60, 80))
        snr = nan_scattered_map(rng, (60, 80))
        h = np.eye(3)
        h[:2, :2] += rng.normal(0.0, 0.03, (2, 2))
        h[:2, 2] = rng.normal(0.0, 4.0, 2)
        h[2, :2] = rng.normal(0.0, 1e-4, 2)
        stacked = warp_error_frame(np.stack([mae, snr]), h, (80, 60))
        assert stacked.shape == (2, 60, 80)
        for got, single in zip(stacked, (mae, snr)):
            np.testing.assert_array_equal(got, warp_error_frame(single, h, (80, 60)))
        assert np.isfinite(stacked).sum() > 2000

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_other_dtypes_sample_as_float64(self, dtype):
        rng = np.random.default_rng(7)
        m = rng.uniform(0.0, 30.0, (2, 5, 6)).astype(dtype)
        h = np.array([[1.01, 0.02, 0.3], [-0.01, 0.99, 0.2], [0.0, 0.0, 1.0]])
        got = warp_error_frame(m, h, (6, 5))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, warp_error_frame(m.astype(np.float64), h, (6, 5)))
        frame = ErrorFrame(0, 0.0, m[0], m[1], np.ones((5, 6), dtype=bool))
        up = upsample_frame(frame, 3)
        want = loop_reference.upsample_frame(frame, 3)
        np.testing.assert_array_equal(up["mae"], want["mae"])
