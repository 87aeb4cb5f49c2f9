"""Batch command-line interface orchestrating the analysis pipelines.

Subcommands: synth, fuse-gt, estimate, pulse-rate, score, grid-map, ptt.
Every run writes a JSON config echo (all parameters, tool version, input
digests) next to its artifacts, re-running a command on identical inputs and
configuration reproduces the outputs byte for byte, and failed runs remove
whatever partial outputs they created.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fusion import (
    DELTA_Y_BPM_DEFAULT,
    fuse_ground_truth_report,
    reference_pulse_rate,
)
from .grid import (
    aggregate_heatmap,
    average_pose,
    homography_from_poses,
    score_grid,
    upsample_frame,
)
from .metrics import score_series
from .pulse_rate import DEFAULT_BAND_BPM, stft_pulse_rate
from .rppg import MethodConfig, extract_pulse
from .session import (
    _FLOAT_FMT,
    SessionManifest,
    read_rate_csv,
    read_waveform_csv,
    write_csv,
    write_json,
    write_rate_csv,
    write_waveform_csv,
)
from .signals import WindowPlan
from .synthetic_session import SyntheticSessionConfig, build_synthetic_session
from .transit_time import DEFAULT_MAX_LAG_S, DEFAULT_MIN_PEAK_CORR, PTTMatrix, ptt_matrix


class _OutputStage:
    """Tracks files written by one command so failures leave no partial output."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.created: list[Path] = []

    def path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        p = self.out_dir / name
        self.created.append(p)
        return p

    def discard(self) -> None:
        for p in self.created:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_echo(
    stage: _OutputStage, command: str, params: dict, inputs: list[Path]
) -> None:
    # out_dir is where artifacts land, not part of what they contain; leaving
    # it out keeps echoes byte-identical across output locations.
    echo = {
        "command": command,
        "version": __version__,
        "parameters": {k: v for k, v in sorted(params.items()) if k != "out_dir"},
        "inputs": {p.name: _sha256(p) for p in sorted(set(inputs))},
    }
    write_json(stage.path(f"{command.replace('-', '_')}_config.json"), echo)


def _parse_band(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    return (float(lo), float(hi))


def _param(params: dict, key: str, default):
    """``params[key]``, or ``default`` when it is absent or None.

    An explicit zero is kept, so it reaches validation instead of quietly
    turning into the default.
    """
    value = params.get(key)
    return default if value is None else value


def _plan(params: dict, default_length: float, default_stride: float) -> WindowPlan:
    return WindowPlan(
        length_s=_param(params, "window_s", default_length),
        stride_s=_param(params, "stride_s", default_stride),
    )


def _manifest_inputs(manifest: SessionManifest) -> list[Path]:
    inputs = [manifest.root / "manifest.json"]
    inputs += [p for p in manifest.trace_paths.values()]
    inputs += [p for _, p, _ in manifest.sensors]
    inputs.append(manifest.oximeter_path)
    for means, meta in manifest.grid_paths.values():
        inputs += [means, meta]
    if manifest.keypoints_path:
        inputs.append(manifest.keypoints_path)
    return [p for p in inputs if p.exists()]


def cmd_synth(params: dict, stage: _OutputStage) -> None:
    cfg = SyntheticSessionConfig(
        seed=int(_param(params, "seed", 7)),
        duration_s=_param(params, "duration_s", 60.0),
        corrupt_sites=tuple(params.get("corrupt_sites") or ()),
    )
    build_synthetic_session(stage.out_dir, cfg)
    _config_echo(stage, "synth", params, [])


def cmd_fuse_gt(params: dict, stage: _OutputStage) -> None:
    manifest = SessionManifest.load(params["manifest"])
    bank = manifest.load_sensor_bank(
        delta_y_bpm=_param(params, "delta_y_bpm", DELTA_Y_BPM_DEFAULT)
    )
    plan = _plan(params, 10.0, 0.25)
    fused, diags = fuse_ground_truth_report(bank, plan)
    write_waveform_csv(stage.path("fused.csv"), fused)
    rates = reference_pulse_rate(fused)
    write_rate_csv(stage.path("fused_rates.csv"), rates)
    write_json(stage.path("fused_diagnostics.json"), diags.to_dict())
    _config_echo(stage, "fuse-gt", params, _manifest_inputs(manifest))


def _reference_rates(manifest: SessionManifest, params: dict):
    if params.get("ref_rates"):
        return read_rate_csv(params["ref_rates"])
    bank = manifest.load_sensor_bank()
    fused, _ = fuse_ground_truth_report(bank)
    return reference_pulse_rate(fused)


def cmd_estimate(params: dict, stage: _OutputStage) -> None:
    manifest = SessionManifest.load(params["manifest"])
    roi = params.get("roi") or "face"
    method = params.get("method") or "pos"
    trace = manifest.load_trace(roi)
    cfg = MethodConfig(method=method)
    pulse = extract_pulse(trace, cfg)
    band = params.get("band_bpm") or DEFAULT_BAND_BPM
    plan = _plan(params, 10.0, 1.0)
    rates = stft_pulse_rate(pulse, plan, band)
    ref = _reference_rates(manifest, params)
    report = score_series(rates, ref, waveform=pulse)
    write_waveform_csv(stage.path(f"pulse_{roi}_{method}.csv"), pulse)
    write_rate_csv(stage.path(f"rates_{roi}_{method}.csv"), rates)
    write_json(
        stage.path(f"score_{roi}_{method}.json"),
        {
            "roi": roi,
            "method": method,
            "band_bpm": list(band),
            "window_s": plan.length_s,
            "stride_s": plan.stride_s,
            **report.to_dict(),
        },
    )
    _config_echo(stage, "estimate", params, _manifest_inputs(manifest))


def cmd_pulse_rate(params: dict, stage: _OutputStage) -> None:
    wave = read_waveform_csv(params["input"])
    band = params.get("band_bpm") or DEFAULT_BAND_BPM
    plan = _plan(params, 10.0, 1.0)
    rates = stft_pulse_rate(wave, plan, band)
    write_rate_csv(stage.path("rates.csv"), rates)
    _config_echo(stage, "pulse-rate", params, [Path(params["input"])])


def cmd_score(params: dict, stage: _OutputStage) -> None:
    pred = read_rate_csv(params["pred"])
    ref = read_rate_csv(params["ref"])
    report = score_series(pred, ref)
    write_json(stage.path("score.json"), report.to_dict())
    _config_echo(stage, "score", params, [Path(params["pred"]), Path(params["ref"])])


def cmd_grid_map(params: dict, stage: _OutputStage) -> None:
    manifest = SessionManifest.load(params["manifest"])
    roi = params.get("roi") or "face"
    grid = manifest.load_grid(roi)
    plan = _plan(params, 10.0, _param(params, "window_s", 10.0))
    ref = _reference_rates(manifest, params)
    frames = score_grid(grid, ref, plan)

    factor = int(_param(params, "grid_cell_px", grid.cell_px))
    poses = manifest.load_poses()
    target = average_pose(poses) if poses else None

    mae_maps, snr_maps = [], []
    for frame in frames:
        write_csv(stage.path(f"frame_{frame.window_index:03d}_mae.csv"), [frame.mae_map])
        write_csv(stage.path(f"frame_{frame.window_index:03d}_snr.csv"), [frame.snr_map])
        up = upsample_frame(frame, factor)
        mae_px = np.where(up["mask"], up["mae"], np.nan)
        snr_px = np.where(up["mask"], up["snr"], np.nan)
        if target is not None and poses:
            center = frame.window_start_s + plan.length_s / 2.0
            nearest = min(poses, key=lambda p: abs(p.frame_time_s - center))
            h = homography_from_poses(nearest, target)
            size = (mae_px.shape[1], mae_px.shape[0])
            from .grid import warp_error_frame

            mae_px = warp_error_frame(mae_px, h, size)
            snr_px = warp_error_frame(snr_px, h, size)
        mae_maps.append(mae_px)
        snr_maps.append(snr_px)

    mae_mean, count = aggregate_heatmap(mae_maps)
    snr_mean, _ = aggregate_heatmap(snr_maps)
    write_csv(stage.path("aggregate_mae.csv"), [mae_mean])
    write_csv(stage.path("aggregate_snr.csv"), [snr_mean])
    write_csv(stage.path("aggregate_count.csv"), [count], fmt="%d")
    write_json(
        stage.path("grid_meta.json"),
        {
            "roi": roi,
            "rows": grid.rows,
            "cols": grid.cols,
            "cell_px": grid.cell_px,
            "origin_px": list(grid.origin_px),
            "window_s": plan.length_s,
            "n_error_frames": len(frames),
            "upsample_factor": factor,
            "aligned_to_average_pose": bool(target is not None),
            "mask_provenance": "skin_fraction >= 0.5 from manifest grid meta",
        },
    )
    _config_echo(stage, "grid-map", params, _manifest_inputs(manifest))


def ptt_window_rows(matrix: PTTMatrix) -> np.ndarray:
    """``ptt_windows.csv`` rows (window center time, site a < site b, lag ms) in C order."""
    lags = matrix.per_window_lag_s
    upper = np.triu(np.ones(lags.shape[1:], dtype=bool), k=1)
    widx, i, j = np.nonzero(np.isfinite(lags) & upper)
    return np.column_stack([matrix.window_times_s[widx], i, j, lags[widx, i, j] * 1000.0])


def cmd_ptt(params: dict, stage: _OutputStage) -> None:
    manifest = SessionManifest.load(params["manifest"])
    source = params.get("source") or "sensors"
    if source == "sensors":
        waves = list(manifest.load_sensor_bank().channels)
        plan = _plan(params, 5.0, 0.010)
    elif source == "rppg":
        cfg = MethodConfig(method=params.get("method") or "pos")
        waves = [
            (roi, extract_pulse(trace, cfg))
            for roi, trace in manifest.load_traces(manifest.trace_rois()).items()
        ]
        plan = _plan(params, 5.0, 1.0 / manifest.fps)
    else:
        raise ValueError(f"unknown ptt source {source!r}; expected 'sensors' or 'rppg'")

    matrix = ptt_matrix(
        waves,
        plan,
        max_lag_s=_param(params, "max_lag_s", DEFAULT_MAX_LAG_S),
        min_peak_corr=_param(params, "min_peak_corr", DEFAULT_MIN_PEAK_CORR),
    )
    write_json(stage.path("ptt_matrix.json"), matrix.to_dict())

    write_csv(
        stage.path("ptt_windows.csv"),
        [ptt_window_rows(matrix)],
        "window_center_time_s,site_a_index,site_b_index,lag_ms",
        fmt=[_FLOAT_FMT, "%d", "%d", _FLOAT_FMT],
    )
    _config_echo(stage, "ptt", params, _manifest_inputs(manifest))


_COMMANDS = {
    "synth": cmd_synth,
    "fuse-gt": cmd_fuse_gt,
    "estimate": cmd_estimate,
    "pulse-rate": cmd_pulse_rate,
    "score": cmd_score,
    "grid-map": cmd_grid_map,
    "ptt": cmd_ptt,
}


def run_pipeline(command: str, params: dict) -> Path:
    """Run one subcommand programmatically; returns the output directory.

    On any error the partially written outputs are removed and the exception
    re-raised.
    """
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}; expected one of {sorted(_COMMANDS)}")
    out_dir = Path(params.get("out_dir") or "out")
    stage = _OutputStage(out_dir)
    try:
        _COMMANDS[command](params, stage)
    except Exception:
        stage.discard()
        raise
    return out_dir


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bodyppg",
        description="Full-body PPG / remote-PPG analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, manifest: bool = True):
        if manifest:
            p.add_argument("--manifest", help="session manifest JSON")
        p.add_argument("--config", help="flat JSON config file; CLI flags override it")
        p.add_argument("--out-dir", dest="out_dir", help="output directory (default: out)")
        p.add_argument("--window-s", dest="window_s", type=float, help="window length, seconds")
        p.add_argument("--stride-s", dest="stride_s", type=float, help="window stride, seconds")
        p.add_argument(
            "--band-bpm",
            dest="band_bpm",
            type=_parse_band,
            help="analysis band as lo:hi in bpm (default 40:180)",
        )
        p.add_argument("--seed", type=int, help="random seed (synthetic data)")

    p = sub.add_parser("synth", help="emit a complete synthetic session")
    common(p, manifest=False)
    p.add_argument("--duration-s", dest="duration_s", type=float)
    p.add_argument(
        "--corrupt-sites",
        dest="corrupt_sites",
        nargs="*",
        help="sensor sites to corrupt with motion bursts",
    )

    p = sub.add_parser("fuse-gt", help="fuse contact sensors into a reference pulse")
    common(p)
    p.add_argument("--delta-y-bpm", dest="delta_y_bpm", type=float)

    p = sub.add_parser("estimate", help="extract a pulse from one ROI and score it")
    common(p)
    p.add_argument("--roi", help="ROI label from the manifest")
    p.add_argument("--method", choices=["chrom", "pos"])
    p.add_argument("--ref-rates", dest="ref_rates", help="reference rate CSV (else fuse sensors)")

    p = sub.add_parser("pulse-rate", help="pulse-rate series from a waveform CSV")
    common(p, manifest=False)
    p.add_argument("--input", required=True, help="waveform CSV (time_s,value)")

    p = sub.add_parser("score", help="score a predicted rate CSV against a reference")
    common(p, manifest=False)
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)

    p = sub.add_parser("grid-map", help="local quality maps over grid cell traces")
    common(p)
    p.add_argument("--roi", help="gridded ROI label")
    p.add_argument("--grid-cell-px", dest="grid_cell_px", type=int, help="upsample factor")
    p.add_argument("--ref-rates", dest="ref_rates")

    p = sub.add_parser("ptt", help="pairwise pulse-transit-time matrix")
    common(p)
    p.add_argument("--source", choices=["sensors", "rppg"])
    p.add_argument("--method", choices=["chrom", "pos"], help="rppg method for --source rppg")
    p.add_argument("--max-lag-s", dest="max_lag_s", type=float)
    p.add_argument("--min-peak-corr", dest="min_peak_corr", type=float)

    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    params: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a flat JSON object")
        params.update(loaded)
        if "band_bpm" in params and isinstance(params["band_bpm"], str):
            params["band_bpm"] = _parse_band(params["band_bpm"])
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        params[key] = value
    return params


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        params = _merge_config(args)
        run_pipeline(args.command, params)
    except Exception as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        report = {
            "error": {"type": type(exc).__name__, "message": message},
            "command": args.command,
        }
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
