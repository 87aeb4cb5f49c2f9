import numpy as np
import pytest

from bodyppg import PoseKeypoints, PulseRateSeries, RGBTrace, SubregionGrid, Waveform, session
from bodyppg.session import (
    SessionManifest,
    extract_traces,
    read_frame_dump,
    read_grid,
    read_oximeter_csv,
    read_pgm,
    read_rate_csv,
    read_sensor_csv,
    read_trace_csv,
    read_waveform_csv,
    write_frame_dump,
    write_grid,
    write_pgm,
    write_rate_csv,
    write_trace_csv,
    write_waveform_csv,
)
from bodyppg.synthetic_session import SyntheticSessionConfig, build_synthetic_session


class TestWaveformCsv:
    def test_round_trip(self, tmp_path):
        w = Waveform(np.sin(np.arange(400) / 7.0), 90.0, start_time_s=2.0)
        path = tmp_path / "w.csv"
        write_waveform_csv(path, w)
        back = read_waveform_csv(path, declared_rate_hz=90.0)
        assert np.allclose(back.samples, w.samples, atol=1e-9)
        assert back.sample_rate_hz == 90.0
        assert back.start_time_s == pytest.approx(2.0)

    def test_rate_mismatch_rejected(self, tmp_path):
        w = Waveform(np.ones(100) * 1.5, 90.0)
        path = tmp_path / "w.csv"
        write_waveform_csv(path, w)
        with pytest.raises(ValueError, match="declared"):
            read_waveform_csv(path, declared_rate_hz=60.0)

    def test_within_tolerance_accepted(self, tmp_path):
        w = Waveform(np.ones(1000) * 1.5, 90.0)
        path = tmp_path / "w.csv"
        write_waveform_csv(path, w)
        back = read_waveform_csv(path, declared_rate_hz=90.005)
        assert back.sample_rate_hz == 90.005


class TestOtherCsv:
    def test_sensor_channels(self, tmp_path):
        t = np.arange(100) / 400.0
        red = np.sin(t)
        ir = np.cos(t)
        path = tmp_path / "s.csv"
        np.savetxt(
            path,
            np.column_stack([t, red, ir]),
            delimiter=",",
            header="time_s,red,ir",
            comments="",
        )
        assert np.allclose(read_sensor_csv(path, "ir").samples, ir, atol=1e-6)
        assert np.allclose(read_sensor_csv(path, "red").samples, red, atol=1e-6)
        with pytest.raises(ValueError):
            read_sensor_csv(path, "green")

    def test_oximeter_ignores_spo2(self, tmp_path):
        t = np.arange(60) / 60.0
        path = tmp_path / "ox.csv"
        np.savetxt(
            path,
            np.column_stack([t, np.full(60, 72.0), np.full(60, 98.0)]),
            delimiter=",",
            header="time_s,bpm,spo2",
            comments="",
        )
        series = read_oximeter_csv(path, declared_rate_hz=60.0)
        assert np.all(series.rates_bpm == 72.0)

    def test_rate_series_round_trip(self, tmp_path):
        series = PulseRateSeries(
            np.array([5.0, 6.0, 7.0]), np.array([70.0, 71.0, 72.0]), 10.0, (40.0, 180.0), 2
        )
        path = tmp_path / "r.csv"
        write_rate_csv(path, series)
        back = read_rate_csv(path)
        assert np.allclose(back.rates_bpm, series.rates_bpm)
        assert back.window_length_s == 10.0
        assert back.band_bpm == (40.0, 180.0)
        assert back.n_skipped == 2

    def test_trace_round_trip(self, tmp_path):
        n = 200
        rng = np.random.default_rng(0)
        trace = RGBTrace(
            Waveform(rng.uniform(0.4, 0.6, n), 90.0),
            Waveform(rng.uniform(0.4, 0.6, n), 90.0),
            Waveform(rng.uniform(0.4, 0.6, n), 90.0),
            roi_label="face",
        )
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace)
        back = read_trace_csv(path, roi_label="face", declared_rate_hz=90.0)
        assert np.allclose(back.channel_matrix(), trace.channel_matrix(), atol=1e-9)


class TestGridCsv:
    """Grid CSVs must hold whole frames, cells in row-major order, one time per frame."""

    @pytest.fixture(autouse=True, params=[None, 6, 12], ids=["default", "1-frame", "2-frame"])
    def check_block(self, request, monkeypatch):
        # The check walks blocks of whole frames; small blocks put each error
        # case into a later block.
        if request.param is not None:
            monkeypatch.setattr(session, "_GRID_CHECK_LINES", request.param)

    @staticmethod
    def write(tmp_path, n_frames=4, rows=2, cols=3):
        rng = np.random.default_rng(5)
        grid = SubregionGrid(
            rng.uniform(0.2, 0.8, (n_frames, rows, cols, 3)), 30.0, 1.5, (4, 8), 20,
            rng.uniform(0.0, 1.0, (rows, cols)),
        )
        write_grid(tmp_path / "grid.csv", tmp_path / "grid.json", grid)
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        return grid, lines

    @staticmethod
    def read(tmp_path, lines):
        (tmp_path / "grid.csv").write_text("\n".join(lines) + "\n")
        return read_grid(tmp_path / "grid.csv", tmp_path / "grid.json")

    def test_round_trip(self, tmp_path):
        grid, lines = self.write(tmp_path)
        back = self.read(tmp_path, lines)
        np.testing.assert_allclose(back.values, grid.values, rtol=1e-11)
        np.testing.assert_array_equal(back.skin_fraction, grid.skin_fraction)
        assert (back.sample_rate_hz, back.start_time_s) == (30.0, 1.5)

    def test_short_file_names_the_incomplete_frame(self, tmp_path):
        _, lines = self.write(tmp_path)
        with pytest.raises(ValueError, match=r"grid\.csv: 22 data lines do not fill whole "
                           r"frames of 2x3 cells; the frame starting at line 20 is incomplete"):
            self.read(tmp_path, lines[:-2])

    def test_swapped_cell_rows_rejected(self, tmp_path):
        _, lines = self.write(tmp_path)
        lines[9], lines[10] = lines[10], lines[9]  # frame 1, cells (0, 2) and (1, 0)
        with pytest.raises(
            ValueError, match=r"grid\.csv, line 10: expected row 0, col 2 .* found row 1, col 0$"
        ):
            self.read(tmp_path, lines)

    def test_wrong_col_value_rejected(self, tmp_path):
        _, lines = self.write(tmp_path)
        fields = lines[15].split(",")
        fields[2] = "7"
        lines[15] = ",".join(fields)
        wanted = r"line 16: expected row 0, col 2 .* found row 0, col 7$"
        with pytest.raises(ValueError, match=wanted):
            self.read(tmp_path, lines)

    def test_time_must_be_constant_within_a_frame(self, tmp_path):
        _, lines = self.write(tmp_path)
        fields = lines[5].split(",")
        fields[0] = "1.51"
        lines[5] = ",".join(fields)
        wanted = r"line 6: time_s 1.51 differs from its frame's time_s 1.5$"
        with pytest.raises(ValueError, match=wanted):
            self.read(tmp_path, lines)

    def test_frame_times_must_increase(self, tmp_path):
        _, lines = self.write(tmp_path)
        lines[1:7], lines[7:13] = lines[7:13], lines[1:7]  # frames 0 and 1 swapped
        with pytest.raises(ValueError, match=r"line 8: frame time_s 1.5 does not increase"):
            self.read(tmp_path, lines)


class TestRasters:
    def test_pgm_round_trip(self, tmp_path):
        mask = np.zeros((12, 17), dtype=bool)
        mask[3:9, 5:14] = True
        path = tmp_path / "m.pgm"
        write_pgm(path, mask)
        assert np.array_equal(read_pgm(path), mask)

    def test_frame_dump_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = rng.integers(0, 256, size=(5, 3, 8, 10), dtype=np.uint8)
        path = tmp_path / "f.rfd"
        write_frame_dump(path, frames, 90.0)
        back, fps = read_frame_dump(path)
        assert fps == 90.0
        assert np.array_equal(back, frames)

    def test_truncated_dump_rejected(self, tmp_path):
        path = tmp_path / "f.rfd"
        write_frame_dump(path, np.zeros((2, 3, 4, 4), dtype=np.uint8), 90.0)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(ValueError, match="truncated"):
            read_frame_dump(path)


class TestExtractTraces:
    def test_uniform_gray(self):
        frames = np.full((4, 3, 6, 6), 128, dtype=np.uint8)
        mask = np.zeros((6, 6), dtype=bool)
        mask[2:5, 2:5] = True
        traces, _ = extract_traces(frames, 90.0, {"roi": mask})
        assert np.all(traces["roi"].channel_matrix() == 128.0)

    def test_single_pixel_mask(self):
        frames = np.zeros((3, 3, 4, 4), dtype=np.uint8)
        frames[:, 0, 1, 2] = 200
        frames[:, 1, 1, 2] = 100
        frames[:, 2, 1, 2] = 50
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = True
        traces, _ = extract_traces(frames, 90.0, {"pixel": mask})
        assert np.all(traces["pixel"].r.samples == 200.0)
        assert np.all(traces["pixel"].g.samples == 100.0)
        assert np.all(traces["pixel"].b.samples == 50.0)

    def test_checkerboard_mean(self):
        frames = np.zeros((2, 3, 4, 4), dtype=np.uint8)
        checker = np.indices((4, 4)).sum(axis=0) % 2 == 0
        frames[:, :, checker] = 255
        traces, _ = extract_traces(frames, 90.0, {"all": np.ones((4, 4), dtype=bool)})
        assert np.all(traces["all"].channel_matrix() == 127.5)

    def test_empty_mask_rejected(self):
        frames = np.zeros((2, 3, 4, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="no pixels"):
            extract_traces(frames, 90.0, {"empty": np.zeros((4, 4), dtype=bool)})

    def test_dimension_mismatch_rejected(self):
        frames = np.zeros((2, 3, 4, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="shape"):
            extract_traces(frames, 90.0, {"bad": np.ones((5, 5), dtype=bool)})

    def test_grid_cells_and_skin_fraction(self):
        frames = np.full((3, 3, 8, 12), 100, dtype=np.uint8)
        mask = np.zeros((8, 12), dtype=bool)
        mask[0:8, 0:8] = True  # bbox 8x8 -> 2x2 cells of 4px
        mask[4:8, 4:8] = False  # lower-right cell has no skin
        _, grids = extract_traces(frames, 90.0, {"roi": mask}, grid_cell_px=4)
        grid = grids["roi"]
        assert (grid.rows, grid.cols) == (2, 2)
        assert grid.skin_fraction[0, 0] == 1.0
        assert grid.skin_fraction[1, 1] == 0.0
        assert np.all(grid.values == 100.0)


class TestManifest:
    def test_synthetic_session_loads(self, tmp_path):
        cfg = SyntheticSessionConfig(seed=3, duration_s=20.0)
        manifest_path = build_synthetic_session(tmp_path, cfg)
        manifest = SessionManifest.load(manifest_path)
        assert manifest.fps == 90.0
        assert len(manifest.sensors) == 9
        assert sorted(manifest.trace_paths) == [
            "face",
            "left-arm",
            "left-leg",
            "palm",
            "right-arm",
            "right-leg",
        ]
        trace = manifest.load_trace("face")
        assert trace.duration_s == pytest.approx(20.0)
        bank = manifest.load_sensor_bank()
        assert len(bank.channels) == 9
        grid = manifest.load_grid("face")
        assert (grid.rows, grid.cols) == (3, 4)
        assert len(manifest.load_poses()) == 2

    def test_missing_file_rejected(self, tmp_path):
        manifest_path = build_synthetic_session(
            tmp_path, SyntheticSessionConfig(seed=3, duration_s=20.0)
        )
        (tmp_path / "oximeter.csv").unlink()
        with pytest.raises(FileNotFoundError):
            SessionManifest.load(manifest_path)

    def test_unknown_roi_names_valid_labels(self, tmp_path):
        manifest_path = build_synthetic_session(
            tmp_path, SyntheticSessionConfig(seed=3, duration_s=20.0)
        )
        manifest = SessionManifest.load(manifest_path)
        with pytest.raises(KeyError, match="face"):
            manifest.load_trace("forehead")

    def test_portion_beyond_duration_rejected(self, tmp_path):
        import json

        manifest_path = build_synthetic_session(
            tmp_path, SyntheticSessionConfig(seed=3, duration_s=20.0)
        )
        doc = json.loads(manifest_path.read_text())
        doc["portions"] = [{"name": "late", "start_s": 0.0, "end_s": 500.0}]
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="portion"):
            SessionManifest.load(manifest_path)

    def test_frame_dump_ingestion(self, tmp_path):
        import json

        rng = np.random.default_rng(6)
        n_frames, h, w = 40, 30, 44
        frames = rng.integers(40, 200, size=(n_frames, 3, h, w), dtype=np.uint8)
        write_frame_dump(tmp_path / "frames.rfd", frames, 90.0)
        mask = np.zeros((h, w), dtype=bool)
        mask[4:28, 2:42]= True
        write_pgm(tmp_path / "mask_face.pgm", mask)
        t_ox = np.arange(60) / 60.0
        np.savetxt(
            tmp_path / "oximeter.csv",
            np.column_stack([t_ox, np.full(60, 72.0), np.full(60, 98.0)]),
            delimiter=",",
            header="time_s,bpm,spo2",
            comments="",
        )
        doc = {
            "session_id": "frames-only",
            "video": {"fps": 90.0, "width": w, "height": h, "frames": "frames.rfd"},
            "sensors": [],
            "oximeter": {"path": "oximeter.csv", "rate_hz": 60.0},
            "rois": [{"label": "face", "mask": "mask_face.pgm"}],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        manifest = SessionManifest.load(tmp_path / "manifest.json")
        trace = manifest.load_trace("face")
        assert len(trace) == n_frames
        expected = frames[:, :, mask].astype(float).mean(axis=2)
        assert np.allclose(trace.channel_matrix(), expected)
        grid = manifest.load_grid("face", cell_px=10)
        assert (grid.rows, grid.cols) == (2, 4)
        assert np.all(grid.skin_fraction == 1.0)
