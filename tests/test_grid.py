import numpy as np
import pytest

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
from bodyppg.grid import ErrorFrame, grid_geometry, grid_traces
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

    def test_missing_frames_listed(self):
        with pytest.raises(ValueError, match="missing frames"):
            grid_traces(
                np.ones((3, 2, 2, 3)),
                FS,
                (0, 0),
                20,
                frame_indices=np.array([0, 2, 3]),
            )


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

    def test_band_beyond_nyquist_leaves_every_cell_undefined(self):
        grid = self.edge_grid()
        ref = flat_reference(72.0, 40.0)
        band = (40.0, 3000.0)  # Nyquist is 2700 bpm at 90 Hz
        got = score_grid(grid, ref, band_bpm=band)
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
