import hashlib
import io
import json
import shutil
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import bodyppg.session
import loop_reference
from bodyppg.cli import _COMMANDS, _FLAGS, main, ptt_window_rows, run_pipeline
from bodyppg.grid import DEFAULT_CELL_PX, SubregionGrid, score_grid
from bodyppg.pulse_rate import PulseRateSeries
from bodyppg.session import (
    SessionManifest,
    read_grid,
    read_rate_csv,
    write_csv,
    write_frame_dump,
    write_oximeter_csv,
    write_pgm,
    write_rate_csv,
)
from bodyppg.signals import Waveform, WindowPlan
from bodyppg.synth import PulseModel, constant_rate, synth_pulse, synth_rgb_trace
from bodyppg.transit_time import PTTMatrix


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    root = tmp_path_factory.mktemp("session")
    assert main(["synth", "--out-dir", str(root), "--seed", "3", "--duration-s", "30"]) == 0
    return root


def digest_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSynthCommand:
    def test_emits_complete_session(self, session):
        names = {p.name for p in session.iterdir()}
        assert "manifest.json" in names
        assert "oximeter.csv" in names
        assert "poses.json" in names
        assert "grid_face.rgm" in names and "grid_face.json" in names
        assert sum(1 for n in names if n.startswith("sensor_")) == 9
        assert sum(1 for n in names if n.startswith("trace_")) == 6


class TestEstimateCommand:
    def test_outputs_and_score(self, session, tmp_path):
        out = tmp_path / "est"
        rc = main(
            ["estimate", "--manifest", str(session / "manifest.json"),
             "--roi", "face", "--method", "pos", "--out-dir", str(out)]
        )
        assert rc == 0
        assert (out / "pulse_face_pos.csv").exists()
        assert (out / "rates_face_pos.csv").exists()
        score = json.loads((out / "score_face_pos.json").read_text())
        assert score["mae_bpm"] < 0.5
        assert score["pearson_r"] > 0.99

    def test_unknown_roi_structured_error(self, session, tmp_path, capsys):
        out = tmp_path / "bad"
        rc = main(
            ["estimate", "--manifest", str(session / "manifest.json"),
             "--roi", "forehead", "--out-dir", str(out)]
        )
        assert rc == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"]["type"] == "KeyError"
        assert "face" in report["error"]["message"]
        # partial outputs removed
        assert not out.exists() or not any(out.iterdir())


class TestPttCommand:
    def test_matrix_matches_injected_delays(self, session, tmp_path):
        out = tmp_path / "ptt"
        rc = main(
            ["ptt", "--manifest", str(session / "manifest.json"), "--out-dir", str(out),
             "--window-s", "5", "--stride-s", "1.0", "--max-lag-s", "0.3"]
        )
        assert rc == 0
        doc = json.loads((out / "ptt_matrix.json").read_text())
        truth = json.loads((session / "ground_truth.json").read_text())["sensor_delays_s"]
        sites = doc["sites"]
        mean = np.array(doc["mean_lag_ms"])
        assert np.max(np.abs(mean + mean.T)) == 0.0
        for i, si in enumerate(sites):
            for j, sj in enumerate(sites):
                expected_ms = (truth[sj] - truth[si]) * 1000.0
                assert abs(mean[i, j] - expected_ms) <= 2.6  # one 400 Hz sample
        windows_csv = (out / "ptt_windows.csv").read_text().splitlines()
        assert windows_csv[0] == "window_center_time_s,site_a_index,site_b_index,lag_ms"
        assert len(windows_csv) > 1


class TestFuseAndRate:
    def test_fuse_then_pulse_rate_then_score(self, session, tmp_path):
        fuse_dir = tmp_path / "fuse"
        rc = main(["fuse-gt", "--manifest", str(session / "manifest.json"),
                   "--out-dir", str(fuse_dir)])
        assert rc == 0
        assert (fuse_dir / "fused.csv").exists()
        diag = json.loads((fuse_dir / "fused_diagnostics.json").read_text())
        assert diag["n_windows"] > 0

        rate_dir = tmp_path / "rates"
        rc = main(["pulse-rate", "--input", str(fuse_dir / "fused.csv"),
                   "--out-dir", str(rate_dir)])
        assert rc == 0

        score_dir = tmp_path / "score"
        rc = main(["score", "--pred", str(rate_dir / "rates.csv"),
                   "--ref", str(fuse_dir / "fused_rates.csv"), "--out-dir", str(score_dir)])
        assert rc == 0
        score = json.loads((score_dir / "score.json").read_text())
        assert score["mae_bpm"] < 0.5


def assert_frame_csvs(out: Path, frames, scratch: Path) -> None:
    """``out`` holds one MAE and one SNR CSV per frame of ``frames``, each with
    the bytes of that frame's map, and the count in its grid meta."""
    assert json.loads((out / "grid_meta.json").read_text())["n_error_frames"] == len(frames)
    for frame in frames:
        for name, m in (("mae", frame.mae_map), ("snr", frame.snr_map)):
            write_csv(scratch, [m])
            got = out / f"frame_{frame.window_index:03d}_{name}.csv"
            assert got.read_bytes() == scratch.read_bytes(), got.name


def _frame_grid_session(root: Path) -> tuple[Path, Path]:
    """A 30 s frame dump at 30 fps whose 'face' mask tiles 2 x 3 whole cells of
    20 px, no keypoints, and a reference rate CSV; returns the manifest and
    rate CSV paths."""
    fps, duration_s, h, w = 30.0, 30.0, 48, 64
    pulse = synth_pulse(PulseModel(fs_hz=fps, duration_s=duration_s,
                                   rate_profile=constant_rate(72.0), seed=5))
    levels = synth_rgb_trace(pulse, baseline=(0.6, 0.45, 0.4), modulation=(0.02, 0.06, 0.04),
                             seed=6).channel_matrix() * 255.0
    dither = np.random.default_rng(9).random((h, w))
    frames = np.floor(levels[:, :, None, None] + dither).astype(np.uint8)
    write_frame_dump(root / "frames.rfd", frames, fps)
    mask = np.zeros((h, w), dtype=bool)
    mask[4:44, 2:62] = True
    write_pgm(root / "mask_face.pgm", mask)
    t_ox = np.arange(int(duration_s)) * 1.0
    write_oximeter_csv(root / "oximeter.csv", t_ox, np.full(t_ox.size, 72.0))
    times = np.arange(5.0, duration_s - 4.0)
    write_rate_csv(root / "rates.csv",
                   PulseRateSeries(times, np.full(times.size, 72.0), 10.0, (40.0, 180.0)))
    doc = {
        "session_id": "frame-grid",
        "video": {"fps": fps, "width": w, "height": h, "frames": "frames.rfd"},
        "oximeter": {"path": "oximeter.csv", "rate_hz": 1.0},
        "rois": [{"label": "face", "mask": "mask_face.pgm"}],
    }
    (root / "manifest.json").write_text(json.dumps(doc))
    return root / "manifest.json", root / "rates.csv"


class TestGridMapCommand:
    def test_outputs(self, session, tmp_path):
        out = tmp_path / "gm"
        rc = main(["grid-map", "--manifest", str(session / "manifest.json"),
                   "--roi", "face", "--out-dir", str(out)])
        assert rc == 0
        meta = json.loads((out / "grid_meta.json").read_text())
        assert meta["n_error_frames"] == 3  # 30 s at 10 s windows
        assert meta["aligned_to_average_pose"] is True
        agg = np.loadtxt(out / "aggregate_mae.csv", delimiter=",")
        assert agg.shape == (3 * 20, 4 * 20)
        count = np.loadtxt(out / "aggregate_count.csv", delimiter=",")
        assert count.max() <= meta["n_error_frames"]

    def test_frame_maps_match_grid_shape(self, session, tmp_path):
        out = tmp_path / "gm2"
        assert main(["grid-map", "--manifest", str(session / "manifest.json"),
                     "--roi", "face", "--out-dir", str(out)]) == 0
        m = np.loadtxt(out / "frame_000_mae.csv", delimiter=",")
        assert m.shape == (3, 4)
        # masked corner cell stays undefined
        assert np.isnan(m[2, 3])

    @pytest.mark.parametrize("stride", ["4", "10", "13"])
    def test_windows_read_one_at_a_time_score_as_the_whole_grid(self, session, tmp_path,
                                                                 stride):
        rates = tmp_path / "rates"
        assert main(["fuse-gt", "--manifest", str(session / "manifest.json"),
                     "--out-dir", str(rates)]) == 0
        out = tmp_path / "gm"
        assert main(["grid-map", "--manifest", str(session / "manifest.json"),
                     "--ref-rates", str(rates / "fused_rates.csv"), "--stride-s", stride,
                     "--out-dir", str(out)]) == 0
        grid = read_grid(session / "grid_face.rgm", session / "grid_face.json")
        frames = score_grid(grid, read_rate_csv(rates / "fused_rates.csv"),
                            WindowPlan(10.0, float(stride)))
        assert_frame_csvs(out, frames, tmp_path / "want.csv")

    @pytest.mark.parametrize("stride", ["4", "10", "13"])
    def test_frame_dump_windows_score_as_the_whole_grid(self, tmp_path, stride):
        manifest, rates = _frame_grid_session(tmp_path)
        out = tmp_path / "gm"
        assert main(["grid-map", "--manifest", str(manifest), "--ref-rates", str(rates),
                     "--stride-s", stride, "--out-dir", str(out)]) == 0
        grid = SessionManifest.load(manifest).load_grid("face")
        assert (grid.rows, grid.cols) == (2, 3)
        frames = score_grid(grid, read_rate_csv(rates), WindowPlan(10.0, float(stride)))
        assert np.isfinite(frames[0].mae_map).all()
        assert_frame_csvs(out, frames, tmp_path / "want.csv")

    def test_frame_dump_extracts_only_the_grid(self, tmp_path, monkeypatch):
        manifest, rates = _frame_grid_session(tmp_path)
        extract, calls = bodyppg.session.extract_traces, []

        def spy(frames, fps, masks, grid_cell_px=None):
            result = extract(frames, fps, masks, grid_cell_px)
            calls.append((list(masks), grid_cell_px, result))
            return result

        monkeypatch.setattr(bodyppg.session, "extract_traces", spy)
        traces = _count_calls(monkeypatch, bodyppg.session, "RGBTrace")
        assert main(["grid-map", "--manifest", str(manifest), "--ref-rates", str(rates),
                     "--out-dir", str(tmp_path / "gm")]) == 0
        ((labels, cell_px, result),) = calls
        assert labels == ["face"] and cell_px == DEFAULT_CELL_PX
        assert list(result) == ["face"] and isinstance(result["face"], SubregionGrid)
        assert traces == []

    def test_mask_provenance_names_the_skin_source(self, session, tmp_path):
        manifest, rates = _frame_grid_session(tmp_path)
        runs = {"manifest grid meta": session / "manifest.json", "mask mask_face.pgm": manifest}
        for source, path in runs.items():
            out = tmp_path / source
            assert main(["grid-map", "--manifest", str(path), "--ref-rates", str(rates),
                         "--out-dir", str(out)]) == 0
            meta = json.loads((out / "grid_meta.json").read_text())
            assert meta["mask_provenance"] == f"skin_fraction >= 0.5 from {source}"

    def test_bad_cell_mean_fails_naming_the_frame_and_cell(self, session, tmp_path, capsys):
        root = tmp_path / "session"
        shutil.copytree(session, root)
        store = root / "grid_face.rgm"
        data = bytearray(store.read_bytes())
        # Frame 1500 (in the second window), cell (1, 2) of 3x4, green.
        offset = 16 + 8 * (((1500 * 3 + 1) * 4 + 2) * 3 + 1)
        data[offset : offset + 8] = struct.pack("<d", -0.5)
        store.write_bytes(bytes(data))
        capsys.readouterr()
        out = tmp_path / "gm"
        assert main(["grid-map", "--manifest", str(root / "manifest.json"),
                     "--out-dir", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError", "message": (
            f"{store}: frame 1500, cell (1, 2) has a G mean of -0.5; "
            "cell means must be finite and non-negative")}
        # Every window is scored before any output is written.
        assert not out.exists()

    def test_sidecar_rate_other_than_the_video_fps_fails(self, session, tmp_path, capsys):
        # Scored at 45 Hz, the 30 s store of a 90 fps video would read as 60 s
        # and give frame_005_*.csv.
        root = tmp_path / "session"
        shutil.copytree(session, root)
        sidecar = root / "grid_face.json"
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**meta, "sample_rate_hz": 45.0}))
        capsys.readouterr()
        out = tmp_path / "gm"
        assert main(["grid-map", "--manifest", str(root / "manifest.json"),
                     "--out-dir", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError", "message": (
            f"{sidecar}: sample_rate_hz 45 Hz deviates more than 0.1% from video.fps 90 "
            f"of {root / 'manifest.json'}")}
        assert not out.exists()

    def test_window_longer_than_the_grid_named_before_any_output(self, session, tmp_path,
                                                                 capsys):
        capsys.readouterr()
        out = tmp_path / "gm"
        assert main(["grid-map", "--manifest", str(session / "manifest.json"),
                     "--window-s", "35", "--out-dir", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError", "message": (
            "the 'face' grid holds 30 s (2700 frames), shorter than one 35 s window")}
        assert not out.exists()


class TestNoWindowNoOutput:
    """A window longer than the input fails before any output, naming both."""

    @pytest.mark.parametrize("command, input_name", [
        ("fuse-gt", "sensor streams of 30 s are"), ("ptt", "site waveforms of 30 s are"),
        ("estimate", "waveform of 30 s is"), ("pulse-rate", "waveform of 30 s is"),
    ], ids=["fuse-gt", "ptt", "estimate", "pulse-rate"])
    def test_window_longer_than_the_input(self, session, tmp_path, capsys, command, input_name):
        if command == "pulse-rate":
            wave = tmp_path / "w.csv"
            bodyppg.session.write_waveform_csv(wave, synth_pulse(PulseModel(
                fs_hz=90.0, duration_s=30.0, rate_profile=constant_rate(72.0), seed=1)))
            argv = [command, "--input", str(wave)]
        else:
            argv = [command, "--manifest", str(session / "manifest.json")]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--window-s", "35", "--out-dir", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError",
                         "message": f"{input_name} shorter than one 35 s window"}
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pulse-rate", "fuse-gt", "estimate", "grid-map"])
    def test_every_rate_window_skipped(self, session, tmp_path, capsys, command):
        """A rate series with no rows is an error naming its input, not a
        header-only CSV that ``score`` rejects or a bare "empty series": a
        zero waveform, or sensors of constant ``ir`` fused as the reference."""
        if command == "pulse-rate":
            source = tmp_path / "zeros.csv"
            bodyppg.session.write_waveform_csv(source, Waveform(np.zeros(2700), 90.0))
            argv = [command, "--input", str(source)]
        else:
            root = tmp_path / "session"
            shutil.copytree(session, root)
            for sensor in root.glob("sensor_*.csv"):
                lines = sensor.read_text().splitlines()
                sensor.write_text("\n".join([lines[0], *(line.rsplit(",", 1)[0] + ",5000"
                                                         for line in lines[1:])]) + "\n")
            source = f"fused sensors of {root / 'manifest.json'}"
            argv = [command, "--manifest", str(root / "manifest.json")]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--out-dir", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        message = f"{source}: all 21 pulse-rate windows were skipped as constant"
        assert error == {"type": "ValueError", "message": message}
        assert not out.exists()

    def test_ptt_pair_with_no_retained_window_has_no_mean_lag(self, session, tmp_path):
        out = tmp_path / "ptt"
        assert main(["ptt", "--manifest", str(session / "manifest.json"), "--stride-s", "5",
                     "--min-peak-corr", "0.9999", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "ptt_matrix.json").read_text())
        mean = np.array(doc["mean_lag_ms"])
        off_diagonal = ~np.eye(len(doc["sites"]), dtype=bool)
        assert np.all(np.array(doc["n_excluded_low_corr"])[off_diagonal] == doc["n_windows"])
        assert np.all(np.isnan(mean[off_diagonal]))
        assert np.all(np.diagonal(mean) == 0.0)


class TestConfigHandling:
    def test_config_file_with_cli_override(self, session, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"roi": "left-arm", "method": "chrom"}))
        out = tmp_path / "est"
        rc = main(["estimate", "--manifest", str(session / "manifest.json"),
                   "--config", str(cfg_path), "--roi", "face", "--out-dir", str(out)])
        assert rc == 0
        # CLI --roi overrides config; method comes from the config file
        assert (out / "score_face_chrom.json").exists()

    def test_echo_round_trip(self, session, tmp_path):
        out_a = tmp_path / "a"
        assert main(["estimate", "--manifest", str(session / "manifest.json"),
                     "--roi", "palm", "--method", "pos", "--out-dir", str(out_a)]) == 0
        echo = json.loads((out_a / "estimate_config.json").read_text())
        params = dict(echo["parameters"])
        params["out_dir"] = str(tmp_path / "b")
        run_pipeline("estimate", params)
        a = digest_tree(out_a)
        b = digest_tree(tmp_path / "b")
        assert a == b

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline("transmogrify", {})

    @pytest.mark.parametrize("text, problem", [
        ("{", "not a JSON config file: Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1)"),
        ("[1]", "a config file must hold a flat JSON object"),
    ], ids=["not-json", "not-an-object"])
    def test_bad_config_file_named(self, session, tmp_path, capsys, text, problem):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        capsys.readouterr()
        assert main(["estimate", "--manifest", str(session / "manifest.json"),
                     "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError", "message": f"{cfg_path}: {problem}"}

    @pytest.mark.parametrize("text, problem", [
        ("{", "not a JSON manifest: Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1)"),
        ('{"session_id": "s"}', "the manifest has no key 'video'"),
    ], ids=["not-json", "no-video"])
    def test_bad_manifest_named(self, tmp_path, capsys, text, problem):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        capsys.readouterr()
        assert main(["estimate", "--manifest", str(manifest),
                     "--out-dir", str(tmp_path / "out")]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError", "message": f"{manifest}: {problem}"}


class TestParameterTable:
    """Each command takes exactly the parameters it reads, from flags or --config."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--manifest", "m.json", "--seed", "3"],
            ["grid-map", "--manifest", "m.json", "--band-bpm", "50:150"],
            ["score", "--pred", "p.csv", "--ref", "r.csv", "--window-s", "5"],
            ["ptt", "--manifest", "m.json", "--seed", "99"],
            ["synth", "--stride-s", "1"],
            ["grid-map", "--manifest", "m.json", "--grid-cell-px", "10"],
        ],
    )
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--out-dir", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["stride", "seed", "band_bpm", "config"])
    def test_config_key_the_command_does_not_read_rejected(self, session, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        out = tmp_path / "out"
        rc = main(["ptt", "--manifest", str(session / "manifest.json"), "--config", str(cfg),
                   "--out-dir", str(out)])
        assert rc == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"]["type"] == "ValueError"
        assert f"ptt: unknown parameter {key!r}" in report["error"]["message"]
        assert "'stride_s'" in report["error"]["message"]
        assert not out.exists()

    def test_programmatic_call_checked_against_the_same_table(self, session, tmp_path):
        with pytest.raises(ValueError, match=r"ptt: unknown parameter 'seed'; valid parameters"):
            run_pipeline("ptt", {"manifest": str(session / "manifest.json"), "seed": 99,
                                 "out_dir": str(tmp_path / "out")})

    @pytest.mark.parametrize(
        "command, params, message",
        [
            ("synth", {"seed": 3.7, "duration_s": 12},
             "config key 'seed' must be an integer, got 3.7"),
            ("pulse-rate", {"input": Path("w.csv")}, "config key 'input' must be a string, got"),
        ],
    )
    def test_programmatic_values_checked_before_running(self, tmp_path, command, params,
                                                        message):
        # out_dir comes first and may be a path object; the bad value after it is named.
        with pytest.raises(ValueError) as error:
            run_pipeline(command, {"out_dir": tmp_path / "out", **params})
        assert str(error.value).startswith(message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fuse-gt", "estimate", "grid-map", "ptt"])
    def test_missing_manifest_named(self, tmp_path, capsys, command):
        rc = main([command, "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith(f"{command}: missing parameter 'manifest'; valid parameters: [")

    def test_config_supplies_every_path(self, session, tmp_path):
        manifest = str(session / "manifest.json")
        fused = tmp_path / "fused"
        assert main(["fuse-gt", "--manifest", manifest, "--out-dir", str(fused)]) == 0
        rates = str(fused / "fused_rates.csv")
        cases = [
            ("fuse-gt", {"manifest": manifest}),
            ("pulse-rate", {"input": str(fused / "fused.csv")}),
            ("score", {"pred": rates, "ref": rates}),
        ]
        for command, paths in cases:
            flags = [arg for key, value in paths.items() for arg in ("--" + key, value)]
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps(paths))
            by_flag, by_config = tmp_path / command / "flag", tmp_path / command / "config"
            assert main([command, *flags, "--out-dir", str(by_flag)]) == 0
            assert main([command, "--config", str(cfg), "--out-dir", str(by_config)]) == 0
            # out_dir is not echoed, so the two runs write the same bytes.
            assert digest_tree(by_flag) == digest_tree(by_config)

    def test_empty_roi_is_not_face(self, session, tmp_path, capsys):
        out = tmp_path / "est"
        rc = main(["estimate", "--manifest", str(session / "manifest.json"), "--roi", "",
                   "--out-dir", str(out)])
        assert rc == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"]["type"] == "KeyError"
        assert report["error"]["message"].startswith("unknown ROI ''; valid labels: [")
        assert not out.exists() or not any(out.iterdir())

    def test_empty_out_dir_is_not_the_working_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--out-dir", "", "--duration-s", "12"]) == 1
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith("synth: parameter 'out_dir' is empty")
        assert list(tmp_path.iterdir()) == []


class TestConfigValueTypes:
    """--config values get the checks argparse gives the same flags."""

    @staticmethod
    def _run_config(tmp_path, command, doc, *flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        return main([command, "--config", str(cfg), *flags, "--out-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("synth", {"seed": 3.7}, "config key 'seed' must be an integer, got 3.7"),
            ("synth", {"seed": True}, "config key 'seed' must be an integer, got true"),
            ("synth", {"seed": "3"}, "config key 'seed' must be an integer, got \"3\""),
            ("synth", {"duration_s": False}, "config key 'duration_s' must be a number, got false"),
            ("synth", {"corrupt_sites": "neck"},
             "config key 'corrupt_sites' must be a list of strings, got \"neck\""),
            ("synth", {"corrupt_sites": ["neck", 3]},
             "config key 'corrupt_sites' must be a list of strings"),
            ("synth", {"out_dir": 5}, "config key 'out_dir' must be a string, got 5"),
            ("pulse-rate", {"input": ["w.csv"]}, "config key 'input' must be a string"),
            ("pulse-rate", {"input": "w.csv", "band_bpm": [50.0]},
             "config key 'band_bpm' must be a 'lo:hi' string or a list of two numbers"),
            ("estimate", {"manifest": "m.json", "method": "green"},
             "config key 'method' must be one of ['chrom', 'pos'], got \"green\""),
            ("estimate", {"manifest": "m.json", "roi": 5}, "config key 'roi' must be a string"),
            ("ptt", {"manifest": "m.json", "source": "video"},
             "config key 'source' must be one of ['sensors', 'rppg']"),
        ],
    )
    def test_wrong_type_named_before_running(self, tmp_path, capsys, command, doc, message):
        assert self._run_config(tmp_path, command, doc) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"]["type"] == "ValueError"
        assert report["error"]["message"].startswith(message)
        assert not (tmp_path / "out").exists()

    def test_valid_values_echoed_as_given(self, tmp_path):
        doc = {"seed": 4, "duration_s": 12, "corrupt_sites": ["neck"], "out_dir": None}
        assert self._run_config(tmp_path, "synth", doc) == 0
        echo = json.loads((tmp_path / "out" / "synth_config.json").read_text())
        assert echo["parameters"] == {"seed": 4, "duration_s": 12, "corrupt_sites": ["neck"]}

    @pytest.mark.parametrize("band", ["50:150", [50, 150.0]])
    def test_band_as_string_or_pair(self, tmp_path, band):
        wave = tmp_path / "w.csv"
        bodyppg.session.write_waveform_csv(wave, synth_pulse(
            PulseModel(fs_hz=90.0, duration_s=20.0, rate_profile=constant_rate(72.0), seed=1)))
        assert self._run_config(tmp_path, "pulse-rate", {"input": str(wave), "band_bpm": band}) == 0
        echo = json.loads((tmp_path / "out" / "pulse_rate_config.json").read_text())
        assert echo["parameters"]["band_bpm"] == [50, 150]


class TestCorruptSites:
    @pytest.mark.parametrize(
        "how", [["--corrupt-sites", "neck", "nose"], ["--config", '{"corrupt_sites": ["nose"]}']]
    )
    def test_unknown_site_named_with_the_valid_ones(self, tmp_path, capsys, how):
        if how[0] == "--config":
            (tmp_path / "cfg.json").write_text(how[1])
            how = ["--config", str(tmp_path / "cfg.json")]
        rc = main(["synth", *how, "--duration-s", "12", "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith("unknown corrupt site(s) ['nose']; sensor sites: [")
        assert "'left-arm-lower'" in message and "'neck'" in message
        assert not (tmp_path / "out").exists()

    def test_named_sites_corrupted_and_recorded(self, tmp_path):
        out = tmp_path / "out"
        assert main(["synth", "--corrupt-sites", "neck", "--duration-s", "12", "--seed", "2",
                     "--out-dir", str(out)]) == 0
        assert main(["synth", "--duration-s", "12", "--seed", "2",
                     "--out-dir", str(tmp_path / "clean")]) == 0
        truth = json.loads((out / "ground_truth.json").read_text())
        assert truth["corrupt_sites"] == ["neck"]
        corrupted, clean = digest_tree(out), digest_tree(tmp_path / "clean")
        assert corrupted["sensor_neck.csv"] != clean["sensor_neck.csv"]
        assert corrupted["sensor_left-arm-lower.csv"] == clean["sensor_left-arm-lower.csv"]


class TestDeterminism:
    def test_rerun_in_place_byte_identical(self, tmp_path):
        root = tmp_path / "run"

        def pipeline():
            assert main(["synth", "--out-dir", str(root / "sess"), "--seed", "11",
                         "--duration-s", "30"]) == 0
            assert main(["estimate", "--manifest", str(root / "sess" / "manifest.json"),
                         "--roi", "face", "--method", "pos",
                         "--out-dir", str(root / "est")]) == 0

        pipeline()
        first = digest_tree(root)
        pipeline()
        second = digest_tree(root)
        assert first == second


class TestStatedDefaults:
    """Each number, band and choice a command's --help states as its default
    is the value it uses: giving all of them as flags changes no artifact
    but the config echo."""

    @pytest.fixture(scope="class")
    def short_session(self, tmp_path_factory):
        # 15 s keeps ptt at its default 10 ms stride to about a thousand windows.
        root = tmp_path_factory.mktemp("short")
        assert main(["synth", "--out-dir", str(root / "session"), "--seed", "4",
                     "--duration-s", "15"]) == 0
        assert main(["fuse-gt", "--manifest", str(root / "session" / "manifest.json"),
                     "--out-dir", str(root / "fused")]) == 0
        return root

    @staticmethod
    def flag_takes(options: dict, value: str) -> bool:
        if "choices" in options:
            return value in options["choices"]
        try:
            options["type"](value)
        except (KeyError, ValueError):
            return False  # a path, a site list, or words such as "the window length"
        return True

    @classmethod
    def stated_flags(cls, command: str) -> list[str]:
        flags = []
        for key, stated in _COMMANDS[command][2].items():
            # "0.01 for sensors, ..." states 0.01 for the default source.
            value = stated.split()[0] if stated is not None else None
            if value is not None and cls.flag_takes(_FLAGS[key], value):
                flags += ["--" + key.replace("_", "-"), value]
        return flags

    @pytest.mark.parametrize("command", ["synth", "fuse-gt", "estimate", "pulse-rate",
                                         "grid-map", "ptt"])
    def test_stated_defaults_change_no_artifact(self, short_session, tmp_path, command):
        required = {"manifest": str(short_session / "session" / "manifest.json"),
                    "input": str(short_session / "fused" / "fused.csv")}
        base = [command]
        for key, stated in _COMMANDS[command][2].items():
            if stated is None:
                base += ["--" + key, required[key]]
        stated = self.stated_flags(command)
        assert stated, f"{command} states no default to give"
        trees = []
        for name, argv in (("omitted", base), ("stated", base + stated)):
            assert main(argv + ["--out-dir", str(tmp_path / name)]) == 0
            tree = digest_tree(tmp_path / name)
            trees.append({k: v for k, v in tree.items() if not k.endswith("_config.json")})
        assert trees[0] == trees[1] and len(trees[0]) > 0


class TestExplicitZeroFlags:
    """A flag given as 0 is used as 0, never replaced by the default."""

    def test_seed_zero_is_not_seed_seven(self, tmp_path):
        for seed in ("0", "7"):
            assert main(["synth", "--out-dir", str(tmp_path / seed), "--seed", seed,
                         "--duration-s", "12"]) == 0
        zero, seven = digest_tree(tmp_path / "0"), digest_tree(tmp_path / "7")
        assert zero["sensor_neck.csv"] != seven["sensor_neck.csv"]
        echo = json.loads((tmp_path / "0" / "synth_config.json").read_text())
        assert echo["parameters"]["seed"] == 0
        manifest = json.loads((tmp_path / "0" / "manifest.json").read_text())
        assert manifest["session_id"] == "synthetic-0"

    def test_min_peak_corr_zero_excludes_nothing(self, session, tmp_path):
        out = tmp_path / "ptt"
        assert main(["ptt", "--manifest", str(session / "manifest.json"), "--out-dir", str(out),
                     "--stride-s", "1.0", "--min-peak-corr", "0"]) == 0
        doc = json.loads((out / "ptt_matrix.json").read_text())
        assert doc["min_peak_corr"] == 0.0
        assert np.all(np.array(doc["n_excluded_low_corr"]) == 0)

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["ptt", "--stride-s", "1.0", "--max-lag-s", "0"], "max_lag_s"),
            (["fuse-gt", "--delta-y-bpm", "0"], "delta_y_bpm"),
            (["ptt", "--stride-s", "0"], "stride_s"),
            (["fuse-gt", "--stride-s", "0"], "stride_s"),
        ],
    )
    def test_zero_reaches_validation(self, session, tmp_path, capsys, argv, name):
        out = tmp_path / "zero"
        rc = main(argv + ["--manifest", str(session / "manifest.json"), "--out-dir", str(out)])
        assert rc == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"]["type"] == "ValueError"
        assert name in report["error"]["message"]
        assert not out.exists() or not any(out.iterdir())


def _ptt_windows_csv(table: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.savetxt(buf, table, delimiter=",", header="window_center_time_s,site_a_index,"
               "site_b_index,lag_ms", comments="", fmt=["%.12g", "%d", "%d", "%.12g"])
    return buf.getvalue()


def _ptt_matrix(per_window_lag_s: np.ndarray) -> PTTMatrix:
    n_windows, n_sites, _ = per_window_lag_s.shape
    square = np.zeros((n_sites, n_sites))
    return PTTMatrix(
        sites=tuple(f"site{k}" for k in range(n_sites)),
        mean_lag_s=square,
        per_window_lag_s=per_window_lag_s,
        window_times_s=2.5 + 0.01 * np.arange(n_windows),
        peak_corr=square,
        n_excluded_low_corr=square.astype(int),
        n_failed=square.astype(int),
        min_peak_corr=0.5,
    )


class TestPttWindowRows:
    """``ptt_windows.csv`` rows equal the window x i x j loop byte for byte."""

    def test_matches_loop_with_excluded_windows(self):
        rng = np.random.default_rng(4)
        lags = rng.normal(0.0, 0.03, (40, 9, 9))
        lags[rng.random(lags.shape) < 0.2] = np.nan  # scattered exclusions
        lags[[0, 7, 39]] = np.nan  # windows with nothing retained
        lags[:, np.arange(9), np.arange(9)] = 0.0  # a finite diagonal is never a row
        matrix = _ptt_matrix(lags)
        columns = ptt_window_rows(matrix)
        assert [np.issubdtype(c.dtype, np.integer) for c in columns] == [False, True, True, False]
        fast, slow = np.column_stack(columns), loop_reference.ptt_window_rows(matrix)
        assert fast.shape == slow.shape and len(fast) > 0
        assert _ptt_windows_csv(fast) == _ptt_windows_csv(slow)

    def test_no_window_retained(self):
        matrix = _ptt_matrix(np.full((5, 4, 4), np.nan))
        fast = np.column_stack(ptt_window_rows(matrix))
        slow = loop_reference.ptt_window_rows(matrix)
        assert fast.shape == slow.shape == (0, 4)
        assert _ptt_windows_csv(fast) == _ptt_windows_csv(slow)


MASK_DELAY_FRAMES = 2


def _mask_only_session(root: Path, duration_s: float = 8.0) -> Path:
    """Frame dump plus two PGM-masked ROIs and no trace CSVs; the right half's
    pulse lags the left half's by MASK_DELAY_FRAMES frames."""
    fps, h, w = 90.0, 12, 16
    region = np.zeros((h, w), dtype=int)
    region[:, w // 2 :] = 1
    levels = []
    for k in range(2):
        pulse = synth_pulse(PulseModel(fs_hz=fps, duration_s=duration_s,
                                       rate_profile=constant_rate(72.0),
                                       delay_s=k * MASK_DELAY_FRAMES / fps, seed=5))
        trace = synth_rgb_trace(pulse, baseline=(0.6, 0.45, 0.4),
                                modulation=(0.02, 0.06, 0.04), seed=6 + k)
        levels.append(trace.channel_matrix() * 255.0)
    levels = np.stack(levels, axis=-1)  # (frames, channel, roi)
    dither = np.random.default_rng(9).random((h, w))
    frames = np.floor(levels[:, :, region] + dither).astype(np.uint8)
    write_frame_dump(root / "frames.rfd", frames, fps)
    for k, label in enumerate(("left", "right")):
        write_pgm(root / f"mask_{label}.pgm", region == k)
    t_ox = np.arange(int(duration_s * 60)) / 60.0
    write_oximeter_csv(root / "oximeter.csv", t_ox, np.full(t_ox.size, 72.0))
    doc = {
        "session_id": "masks-only",
        "video": {"fps": fps, "width": w, "height": h, "frames": "frames.rfd"},
        "sensors": [],
        "oximeter": {"path": "oximeter.csv", "rate_hz": 60.0},
        "rois": [{"label": label, "mask": f"mask_{label}.pgm"} for label in ("right", "left")],
    }
    (root / "manifest.json").write_text(json.dumps(doc))
    return root / "manifest.json"


def _count_calls(monkeypatch, module, name: str) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0] if args else None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestPttMaskOnlyRois:
    def test_rppg_uses_every_mask_roi_from_one_dump_read(self, tmp_path, monkeypatch):
        manifest = _mask_only_session(tmp_path)
        dump_reads = _count_calls(monkeypatch, bodyppg.session, "read_frame_dump")
        extractions = _count_calls(monkeypatch, bodyppg.session, "extract_traces")
        out = tmp_path / "ptt"
        assert main(["ptt", "--source", "rppg", "--manifest", str(manifest),
                     "--window-s", "5", "--stride-s", "1.0", "--max-lag-s", "0.3",
                     "--out-dir", str(out)]) == 0
        assert len(dump_reads) == 1 and len(extractions) == 1
        doc = json.loads((out / "ptt_matrix.json").read_text())
        assert doc["sites"] == ["left", "right"]
        expected_ms = MASK_DELAY_FRAMES / 90.0 * 1000.0
        assert abs(doc["mean_lag_ms"][0][1] - expected_ms) <= 1000.0 / 90.0


class TestEachInputParsedOnce:
    """A command parses exactly the CSVs it uses, each once, and its echo
    hashes exactly the files it read."""

    @pytest.fixture(scope="class")
    def ref_rates(self, session, tmp_path_factory):
        out = tmp_path_factory.mktemp("ref")
        assert main(["fuse-gt", "--manifest", str(session / "manifest.json"),
                     "--out-dir", str(out)]) == 0
        return out / "fused_rates.csv"

    @pytest.mark.parametrize(
        "argv, parsed, also_hashed",
        [
            (["fuse-gt"], {"SENSORS"}, set()),
            (["estimate", "--roi", "face"], {"trace_face.csv", "SENSORS"}, set()),
            (["estimate", "--roi", "palm", "--method", "chrom", "--ref-rates", "REF"],
             {"trace_palm.csv", "fused_rates.csv"}, {"ref_rates"}),
            (["grid-map", "--roi", "face"], {"grid_face.rgm", "SENSORS"},
             {"grid_face.json", "poses.json"}),
            (["ptt", "--source", "rppg", "--stride-s", "1.0"], {"TRACES"}, set()),
        ],
        ids=["fuse-gt", "estimate", "estimate-ref-rates", "grid-map", "ptt-rppg"],
    )
    def test_csv_session(self, session, ref_rates, tmp_path, monkeypatch, argv, parsed,
                         also_hashed):
        argv = [str(ref_rates) if a == "REF" else a for a in argv]
        names = [p.name for p in session.iterdir()]
        groups = {
            "SENSORS": {n for n in names if n.startswith("sensor_")} | {"oximeter.csv"},
            "TRACES": {n for n in names if n.startswith("trace_")},
        }
        want = set().union(*(groups.get(n, {n}) for n in parsed))
        reads = _count_calls(monkeypatch, bodyppg.session, "_load_csv")
        grid_reads = _count_calls(monkeypatch, bodyppg.session, "open_grid_store")
        out = tmp_path / "out"
        assert main(argv + ["--manifest", str(session / "manifest.json"),
                            "--out-dir", str(out)]) == 0
        # The grid store's header and sidecar are checked once by open_grid_store,
        # which then reads it window by window; CSVs are parsed by _load_csv.
        grids = {n for n in want if n.endswith(".rgm")}
        assert Counter(Path(p).name for p in reads) == dict.fromkeys(want - grids, 1)
        assert Counter(Path(p).name for p in grid_reads) == dict.fromkeys(grids, 1)
        (echo,) = out.glob("*_config.json")
        hashed = set(json.loads(echo.read_text())["inputs"])
        # Flag files are keyed by their parameter, manifest-listed ones by name.
        assert hashed == (want - {ref_rates.name}) | also_hashed | {"manifest"}

    def test_frame_dump_session(self, tmp_path, monkeypatch):
        manifest = _mask_only_session(tmp_path)
        reads = _count_calls(monkeypatch, bodyppg.session, "_load_csv")
        assert main(["ptt", "--source", "rppg", "--manifest", str(manifest),
                     "--stride-s", "1.0", "--out-dir", str(tmp_path / "out")]) == 0
        assert reads == []


class TestUnreadInputs:
    """A file a command does not read neither fails it nor enters its echo."""

    @pytest.fixture
    def copied(self, session, tmp_path):
        """A copy of the session, its reference rates and the first sensor CSV."""
        root = tmp_path / "session"
        shutil.copytree(session, root)
        assert main(["fuse-gt", "--manifest", str(root / "manifest.json"),
                     "--out-dir", str(tmp_path / "ref")]) == 0
        return root, tmp_path / "ref" / "fused_rates.csv", sorted(root.glob("sensor_*.csv"))[0]

    def test_corrupt_sensor_fails_only_the_commands_that_read_it(self, copied, tmp_path,
                                                                capsys):
        root, ref, sensor = copied
        runs = {
            "estimate": ["estimate", "--roi", "palm", "--ref-rates", str(ref)],
            "ptt": ["ptt", "--source", "rppg", "--stride-s", "1.0"],
        }

        def run_all(tag):
            for name, argv in runs.items():
                assert main(argv + ["--manifest", str(root / "manifest.json"),
                                    "--out-dir", str(tmp_path / tag / name)]) == 0
            return digest_tree(tmp_path / tag)

        clean = run_all("clean")
        with open(sensor, "a") as fh:
            fh.write("1e9,not-a-number,0\n")
        assert run_all("corrupt") == clean
        capsys.readouterr()
        assert main(["fuse-gt", "--manifest", str(root / "manifest.json"),
                     "--out-dir", str(tmp_path / "fused")]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValueError" and sensor.name in error["message"]

    def test_estimate_echo_hashes_the_trace_and_the_reference_rates(self, copied, tmp_path):
        root, ref, sensor = copied

        def echo(tag):
            out = tmp_path / tag
            assert main(["estimate", "--manifest", str(root / "manifest.json"), "--roi", "palm",
                         "--ref-rates", str(ref), "--out-dir", str(out)]) == 0
            return json.loads((out / "estimate_config.json").read_text())["inputs"]

        first = echo("a")
        assert sorted(first) == ["manifest", "ref_rates", "trace_palm.csv"]
        sensor.write_text(sensor.read_text().replace("\n0,", "\n0.0,", 1))
        assert echo("b") == first
        rates = read_rate_csv(ref)
        write_rate_csv(ref, PulseRateSeries(rates.times_s, rates.rates_bpm + 1.0,
                                            rates.window_length_s, rates.band_bpm))
        changed = echo("c")
        assert changed["ref_rates"] != first["ref_rates"]
        assert {k: v for k, v in changed.items() if k != "ref_rates"} == {
            k: v for k, v in first.items() if k != "ref_rates"
        }


class TestMaskProvenance:
    """Each mask a frame-dump extraction reads enters the echo."""

    def test_masks_differing_in_one_pixel_give_different_estimate_echoes(self, tmp_path):
        ref = tmp_path / "ref.csv"
        write_rate_csv(ref, PulseRateSeries(np.arange(12.0), 71.0 + np.arange(12.0) % 3, 4.0,
                                            (40.0, 180.0)))
        echoes = []
        for flip in (False, True):
            root = tmp_path / f"flip_{flip}"
            root.mkdir()
            manifest = _mask_only_session(root, duration_s=12.0)
            if flip:
                mask = bodyppg.session.read_pgm(root / "mask_left.pgm")
                mask[0, 0] = False
                write_pgm(root / "mask_left.pgm", mask)
            out = root / "out"
            assert main(["estimate", "--manifest", str(manifest), "--roi", "left",
                         "--ref-rates", str(ref), "--window-s", "4", "--out-dir", str(out)]) == 0
            echoes.append(json.loads((out / "estimate_config.json").read_text())["inputs"])
        clean, flipped = echoes
        assert sorted(clean) == ["manifest", "mask_left.pgm", "ref_rates"]
        assert clean["mask_left.pgm"] == hashlib.sha256(
            (tmp_path / "flip_False" / "mask_left.pgm").read_bytes()).hexdigest()
        assert flipped["mask_left.pgm"] != clean["mask_left.pgm"]
        assert {k: v for k, v in flipped.items() if k != "mask_left.pgm"} == {
            k: v for k, v in clean.items() if k != "mask_left.pgm"}


class TestDamagedSensorTimes:
    """A sensor stream whose time column was damaged fails ``fuse-gt``, naming
    the file and its first bad line (line 1 is the header)."""

    @pytest.fixture(scope="class")
    def seed7(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("seed7")
        assert main(["synth", "--out-dir", str(root), "--seed", "7"]) == 0
        return root

    @pytest.mark.parametrize("drop", [False, True], ids=["swap-repeat", "swap-repeat-drop"])
    def test_fuse_gt_names_the_file_and_line(self, seed7, tmp_path, capsys, drop):
        root = tmp_path / "session"
        shutil.copytree(seed7, root)
        sensor = root / "sensor_left-arm-lower.csv"
        # Indices count the header as 0: file line i + 1 is lines[i].
        lines = sensor.read_text().splitlines(keepends=True)
        lines[5000], lines[5001] = lines[5001], lines[5000]
        lines[15000] = lines[14999]
        if drop:
            del lines[10000:10020]
        sensor.write_text("".join(lines))
        capsys.readouterr()
        assert main(["fuse-gt", "--manifest", str(root / "manifest.json"),
                     "--out-dir", str(tmp_path / "out")]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValueError"
        # Line 5,001 now holds line 5,002's sample, two periods after line 5,000's.
        assert error["message"] == (
            f"{sensor}, line 5001: time_s 12.5 follows 12.495 on the line before; "
            "intervals must be within 0.1% of the median 0.0025 s"
        )


def test_score_names_a_header_only_prediction(tmp_path, capsys):
    pred, ref = tmp_path / "hdr.csv", tmp_path / "ref.csv"
    pred.write_text("time_s,bpm\n# window_length_s=10 band_bpm=40:180 n_skipped=0\n")
    write_rate_csv(ref, PulseRateSeries(np.arange(20.0), np.full(20, 70.0), 10.0, (40.0, 180.0)))
    capsys.readouterr()
    assert main(["score", "--pred", str(pred), "--ref", str(ref),
                 "--out-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "Warning" not in captured.err
    assert json.loads(captured.err)["error"] == {
        "type": "ValueError", "message": f"{pred}: no data rows below the header"}


class TestEchoKeys:
    """No two inputs share a key in the config echo, whatever their base names."""

    def test_flag_files_keyed_by_parameter(self, tmp_path):
        for name, shift in (("a", 0.0), ("b", 1.0)):
            (tmp_path / name).mkdir()
            write_rate_csv(tmp_path / name / "fused_rates.csv", PulseRateSeries(
                np.arange(20.0), 70.0 + shift + np.arange(20.0) % 3, 10.0, (40.0, 180.0)))
        pred, ref = tmp_path / "b" / "fused_rates.csv", tmp_path / "a" / "fused_rates.csv"
        out = tmp_path / "out"
        assert main(["score", "--pred", str(pred), "--ref", str(ref),
                     "--out-dir", str(out)]) == 0
        inputs = json.loads((out / "score_config.json").read_text())["inputs"]
        assert inputs == {"pred": hashlib.sha256(pred.read_bytes()).hexdigest(),
                          "ref": hashlib.sha256(ref.read_bytes()).hexdigest()}

    def test_manifest_files_keyed_by_relative_path(self, session, tmp_path):
        root = tmp_path / "session"
        shutil.copytree(session, root)
        doc = json.loads((root / "manifest.json").read_text())
        moved = []
        for entry in doc["sensors"][:2]:
            (root / entry["site"]).mkdir()
            (root / entry["path"]).rename(root / entry["site"] / "ppg.csv")
            entry["path"] = f"{entry['site']}/ppg.csv"
            moved.append(entry["path"])
        (root / "manifest.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["fuse-gt", "--manifest", str(root / "manifest.json"),
                     "--out-dir", str(out)]) == 0
        inputs = json.loads((out / "fuse_gt_config.json").read_text())["inputs"]
        for rel in moved:
            assert inputs[rel] == hashlib.sha256((root / rel).read_bytes()).hexdigest()
        assert len(inputs) == len(doc["sensors"]) + 2  # and the oximeter and the manifest
