import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bodyppg.cli import main, run_pipeline


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
        assert "grid_face.csv" in names and "grid_face.json" in names
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
