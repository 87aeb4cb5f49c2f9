"""Batch command-line interface orchestrating the analysis pipelines.

Subcommands: synth, fuse-gt, estimate, pulse-rate, score, grid-map, ptt.
Each takes exactly the parameters it reads, from flags or a JSON config file.
Every run writes a JSON config echo (its parameters, tool version, input
digests) next to its artifacts, re-running a command on identical inputs and
configuration reproduces the outputs byte for byte, and failed runs remove
whatever partial outputs they created.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fusion import (
    DEFAULT_FUSION_PLAN,
    DELTA_Y_BPM_DEFAULT,
    fuse_ground_truth_report,
    reference_pulse_rate,
)
# warp_error_frame is called through the module, where perfbench's tracer wraps it.
from . import grid as grid_module
from .grid import (
    aggregate_heatmap,
    average_pose,
    homography_from_poses,
    score_grid,
    upsample_frame,
)
from .metrics import DEFAULT_SCORE_PLAN, score_series
from .pulse_rate import DEFAULT_BAND_BPM, DEFAULT_RATE_PLAN, PulseRateSeries, stft_pulse_rate
from .rppg import MethodConfig, extract_pulse
from .session import (
    SessionManifest,
    _is_int,
    _is_number,
    _load_json,
    read_rate_csv,
    read_waveform_csv,
    write_csv,
    write_json,
    write_rate_csv,
    write_waveform_csv,
)
from .signals import WindowPlan
from .synthetic_session import SyntheticSessionConfig, build_synthetic_session
from .transit_time import (
    DEFAULT_MAX_LAG_S,
    DEFAULT_MIN_PEAK_CORR,
    DEFAULT_PTT_PLAN,
    PTTMatrix,
    ptt_matrix,
)


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


# Parameters that name an input file; each one given is read by its command.
_INPUT_FILES = ("manifest", "input", "pred", "ref", "ref_rates")


def _config_echo(
    stage: _OutputStage, command: str, params: dict, manifest: SessionManifest | None = None
) -> None:
    """The command's parameters, and the digest of every file it read: each
    file its parameters name, keyed by the parameter, and each file ``manifest``
    lists in ``files_read``, keyed by its path relative to the manifest."""
    inputs = {k: Path(params[k]) for k in _INPUT_FILES if _param(params, k) is not None}
    for p in manifest.files_read if manifest else []:
        inputs[p.relative_to(manifest.root).as_posix()] = p
    # out_dir is where artifacts land, not part of what they contain; leaving
    # it out keeps echoes byte-identical across output locations.
    echo = {
        "command": command,
        "version": __version__,
        "parameters": {k: v for k, v in sorted(params.items()) if k != "out_dir"},
        "inputs": {key: _sha256(p) for key, p in inputs.items()},
    }
    write_json(stage.path(f"{command.replace('-', '_')}_config.json"), echo)


def _parse_band(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    return (float(lo), float(hi))


def _param(params: dict, key: str, default=None):
    """``params[key]``, or ``default`` when it is absent or None.

    An explicit zero or empty value is kept, so it reaches validation instead
    of quietly turning into the default.
    """
    value = params.get(key)
    return default if value is None else value


def _plan(params: dict, default: WindowPlan) -> WindowPlan:
    return WindowPlan(
        length_s=_param(params, "window_s", default.length_s),
        stride_s=_param(params, "stride_s", default.stride_s),
    )


def cmd_synth(params: dict, stage: _OutputStage) -> None:
    cfg = SyntheticSessionConfig(
        seed=_param(params, "seed", SyntheticSessionConfig.seed),
        duration_s=_param(params, "duration_s", SyntheticSessionConfig.duration_s),
        corrupt_sites=tuple(_param(params, "corrupt_sites", SyntheticSessionConfig.corrupt_sites)),
    )
    build_synthetic_session(stage.out_dir, cfg)
    _config_echo(stage, "synth", params)


def _rated(rates: PulseRateSeries, source) -> PulseRateSeries:
    """``rates``, unless every window was skipped: a series with no rows can
    be neither scored nor written as a CSV that ``read_rate_csv`` accepts."""
    if len(rates) == 0:
        raise ValueError(f"{source}: all {rates.n_skipped} pulse-rate windows were skipped "
                         "as constant")
    return rates


def cmd_fuse_gt(params: dict, stage: _OutputStage) -> None:
    manifest = SessionManifest.load(_param(params, "manifest"))
    bank = manifest.load_sensor_bank(
        delta_y_bpm=_param(params, "delta_y_bpm", DELTA_Y_BPM_DEFAULT)
    )
    plan = _plan(params, DEFAULT_FUSION_PLAN)
    fused, diags = fuse_ground_truth_report(bank, plan)
    rates = _rated(reference_pulse_rate(fused), f"fused sensors of {_param(params, 'manifest')}")
    write_waveform_csv(stage.path("fused.csv"), fused)
    write_rate_csv(stage.path("fused_rates.csv"), rates)
    write_json(stage.path("fused_diagnostics.json"), diags.to_dict())
    _config_echo(stage, "fuse-gt", params, manifest)


def _reference_rates(manifest: SessionManifest, params: dict):
    if _param(params, "ref_rates") is not None:
        return read_rate_csv(_param(params, "ref_rates"))
    bank = manifest.load_sensor_bank()
    fused, _ = fuse_ground_truth_report(bank)
    return _rated(reference_pulse_rate(fused), f"fused sensors of {_param(params, 'manifest')}")


def cmd_estimate(params: dict, stage: _OutputStage) -> None:
    manifest = SessionManifest.load(_param(params, "manifest"))
    roi = _param(params, "roi", "face")
    method = _param(params, "method", MethodConfig.method)
    trace = manifest.load_trace(roi)
    cfg = MethodConfig(method=method)
    pulse = extract_pulse(trace, cfg)
    band = _param(params, "band_bpm", DEFAULT_BAND_BPM)
    plan = _plan(params, DEFAULT_RATE_PLAN)
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
    _config_echo(stage, "estimate", params, manifest)


def cmd_pulse_rate(params: dict, stage: _OutputStage) -> None:
    wave = read_waveform_csv(_param(params, "input"))
    band = _param(params, "band_bpm", DEFAULT_BAND_BPM)
    plan = _plan(params, DEFAULT_RATE_PLAN)
    rates = _rated(stft_pulse_rate(wave, plan, band), _param(params, "input"))
    write_rate_csv(stage.path("rates.csv"), rates)
    _config_echo(stage, "pulse-rate", params)


def cmd_score(params: dict, stage: _OutputStage) -> None:
    pred = read_rate_csv(_param(params, "pred"))
    ref = read_rate_csv(_param(params, "ref"))
    report = score_series(pred, ref)
    write_json(stage.path("score.json"), report.to_dict())
    _config_echo(stage, "score", params)


def cmd_grid_map(params: dict, stage: _OutputStage) -> None:
    manifest = SessionManifest.load(_param(params, "manifest"))
    roi = _param(params, "roi", "face")
    grid = manifest.load_grid(roi)
    length_s = _param(params, "window_s", DEFAULT_SCORE_PLAN.length_s)
    plan = WindowPlan(length_s, _param(params, "stride_s", length_s))
    if plan.length_samples(grid.sample_rate_hz) > grid.n_frames:
        raise ValueError(
            f"the {roi!r} grid holds {grid.n_frames / grid.sample_rate_hz:g} s "
            f"({grid.n_frames} frames), shorter than one {plan.length_s:g} s window"
        )
    skin_source = ("manifest grid meta" if roi in manifest.grid_paths
                   else f"mask {manifest.mask_path(roi).relative_to(manifest.root).as_posix()}")
    ref = _reference_rates(manifest, params)
    poses = manifest.load_poses()
    target = average_pose(poses) if poses else None
    # Every window is scored before any is written: a store's window buffer
    # is freed before the warps, and a bad cell mean fails with no output.
    frames = score_grid(grid, ref, plan)

    def warped_maps():
        """Per window: its two CSVs, then its MAE and SNR maps as one stack,
        upsampled and warped, so a window warps through one homography once."""
        for frame in frames:
            write_csv(stage.path(f"frame_{frame.window_index:03d}_mae.csv"), [frame.mae_map])
            write_csv(stage.path(f"frame_{frame.window_index:03d}_snr.csv"), [frame.snr_map])
            up = upsample_frame(frame, grid.cell_px)
            maps = up["maps"]
            maps[:, ~up["mask"]] = np.nan
            if target is not None:
                center = frame.window_start_s + plan.length_s / 2.0
                nearest = min(poses, key=lambda p: abs(p.frame_time_s - center))
                h = homography_from_poses(nearest, target)
                size = (maps.shape[2], maps.shape[1])
                maps = grid_module.warp_error_frame(maps, h, size)
            yield maps

    # Running sums over the windows: one window's maps exist at a time.
    means, counts = aggregate_heatmap(warped_maps())
    write_csv(stage.path("aggregate_mae.csv"), [means[0]])
    write_csv(stage.path("aggregate_snr.csv"), [means[1]])
    write_csv(stage.path("aggregate_count.csv"), [counts[0]])
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
            "upsample_factor": grid.cell_px,
            "aligned_to_average_pose": bool(target is not None),
            "mask_provenance": (f"skin_fraction >= {grid_module.SKIN_FRACTION_THRESHOLD:g} "
                                f"from {skin_source}"),
        },
    )
    _config_echo(stage, "grid-map", params, manifest)


def ptt_window_rows(matrix: PTTMatrix) -> list[np.ndarray]:
    """``ptt_windows.csv`` columns: window center time, site a < site b as
    integers, lag ms; rows in C order of (window, a, b)."""
    lags = matrix.per_window_lag_s
    upper = np.triu(np.ones(lags.shape[1:], dtype=bool), k=1)
    widx, i, j = np.nonzero(np.isfinite(lags) & upper)
    return [matrix.window_times_s[widx], i, j, lags[widx, i, j] * 1000.0]


def cmd_ptt(params: dict, stage: _OutputStage) -> None:
    manifest = SessionManifest.load(_param(params, "manifest"))
    source = _param(params, "source", "sensors")
    if source == "sensors":
        waves = list(manifest.load_sensor_bank().channels)
        plan = _plan(params, DEFAULT_PTT_PLAN)
    elif source == "rppg":
        cfg = MethodConfig(method=_param(params, "method", MethodConfig.method))
        waves = [
            (roi, extract_pulse(trace, cfg))
            for roi, trace in manifest.load_traces(manifest.trace_rois()).items()
        ]
        plan = _plan(params, WindowPlan(DEFAULT_PTT_PLAN.length_s, 1.0 / manifest.fps))
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
        ptt_window_rows(matrix),
        "window_center_time_s,site_a_index,site_b_index,lag_ms",
    )
    _config_echo(stage, "ptt", params, manifest)


def _plan_help(plan: WindowPlan) -> dict:
    return {"window_s": f"{plan.length_s:g}", "stride_s": f"{plan.stride_s:g}"}


# command -> (function, help, {parameter: its default as --help states it}).
# A command takes exactly the parameters in its row, plus out_dir, from flags
# or from --config; a None default marks a parameter that must be given.
_COMMANDS = {
    "synth": (cmd_synth, "emit a complete synthetic session",
              {"seed": f"{SyntheticSessionConfig.seed}",
               "duration_s": f"{SyntheticSessionConfig.duration_s:g}", "corrupt_sites": "none"}),
    "fuse-gt": (cmd_fuse_gt, "fuse contact sensors into a reference pulse",
                {"manifest": None, "delta_y_bpm": f"{DELTA_Y_BPM_DEFAULT:g}",
                 **_plan_help(DEFAULT_FUSION_PLAN)}),
    "estimate": (cmd_estimate, "extract a pulse from one ROI and score it",
                 {"manifest": None, "roi": "face", "method": MethodConfig.method,
                  "ref_rates": "fuse the contact sensors", "band_bpm": "%g:%g" % DEFAULT_BAND_BPM,
                  **_plan_help(DEFAULT_RATE_PLAN)}),
    "pulse-rate": (cmd_pulse_rate, "pulse-rate series from a waveform CSV",
                   {"input": None, "band_bpm": "%g:%g" % DEFAULT_BAND_BPM,
                    **_plan_help(DEFAULT_RATE_PLAN)}),
    "score": (cmd_score, "score a predicted rate CSV against a reference",
              {"pred": None, "ref": None}),
    "grid-map": (cmd_grid_map, "local quality maps over grid cell traces",
                 {"manifest": None, "roi": "face", "ref_rates": "fuse the contact sensors",
                  "window_s": f"{DEFAULT_SCORE_PLAN.length_s:g}",
                  "stride_s": "the window length"}),
    "ptt": (cmd_ptt, "pairwise pulse-transit-time matrix",
            {"manifest": None, "source": "sensors", "method": MethodConfig.method,
             "window_s": f"{DEFAULT_PTT_PLAN.length_s:g}",
             "stride_s": f"{DEFAULT_PTT_PLAN.stride_s:g} for sensors, one frame for rppg",
             "max_lag_s": f"{DEFAULT_MAX_LAG_S:g}", "min_peak_corr": f"{DEFAULT_MIN_PEAK_CORR:g}"}),
}

# argparse options of each parameter's flag, --<key with dashes>.
_FLAGS = {
    "manifest": {"help": "session manifest JSON"},
    "input": {"help": "waveform CSV (time_s,value)"},
    "pred": {"help": "predicted rate CSV"},
    "ref": {"help": "reference rate CSV"},
    "seed": {"type": int, "help": "random seed"},
    "duration_s": {"type": float, "help": "session length, seconds"},
    "corrupt_sites": {"nargs": "*", "help": "sensor sites to corrupt with motion bursts"},
    "delta_y_bpm": {"type": float, "help": "half-width of the oximeter-guided band, bpm"},
    "roi": {"help": "ROI label from the manifest"},
    "method": {"choices": ["chrom", "pos"], "help": "rPPG method"},
    "ref_rates": {"help": "reference rate CSV"},
    "band_bpm": {"type": _parse_band, "help": "analysis band as lo:hi in bpm"},
    "window_s": {"type": float, "help": "window length, seconds"},
    "stride_s": {"type": float, "help": "window stride, seconds"},
    "source": {"choices": ["sensors", "rppg"], "help": "signals to compare"},
    "max_lag_s": {"type": float, "help": "largest lag scanned, seconds"},
    "min_peak_corr": {"type": float, "help": "smallest peak correlation a window keeps"},
}


def _checked(command: str, params: dict, required=()) -> dict:
    """``params`` once each key is in the command's row or ``out_dir``, each ``required``
    key is given and each value has its flag's type; a None value counts as absent."""
    valid = sorted([*_COMMANDS[command][2], "out_dir"])
    for key in params:
        if key not in valid:
            raise ValueError(f"{command}: unknown parameter {key!r}; valid parameters: {valid}")
    for key in required:
        if _param(params, key) is None:
            raise ValueError(f"{command}: missing parameter {key!r}; valid parameters: {valid}")
    return {k: v if v is None else _config_value(k, v) for k, v in params.items()}


def run_pipeline(command: str, params: dict) -> Path:
    """Run one subcommand programmatically; returns the output directory.

    ``params`` must hold the command's required parameters, nothing outside
    its row of ``_COMMANDS``, and values of the types its flags take. On any
    error the partially written outputs are removed and the exception re-raised.
    """
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}; expected one of {sorted(_COMMANDS)}")
    run, _, row = _COMMANDS[command]
    params = _checked(command, params, [key for key, default in row.items() if default is None])
    if _param(params, "out_dir") == "":
        raise ValueError(f"{command}: parameter 'out_dir' is empty; omit it to write to 'out'")
    out_dir = Path(_param(params, "out_dir", "out"))
    stage = _OutputStage(out_dir)
    try:
        run(params, stage)
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
    for command, (_, help_text, row) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat JSON config file; CLI flags override it")
        p.add_argument("--out-dir", dest="out_dir", help="output directory (default: out)")
        for key, default in row.items():
            options = dict(_FLAGS[key])
            options["help"] += " (required)" if default is None else f" (default: {default})"
            p.add_argument("--" + key.replace("_", "-"), dest=key, **options)
    return parser


def _config_value(key: str, value):
    """A parameter held to its flag's type and choices, as argparse holds the
    flag; ``band_bpm`` may also be two numbers and ``out_dir`` a path."""
    options = _FLAGS.get(key, {})
    kind = options.get("type")
    if kind is _parse_band and isinstance(value, str):
        return _parse_band(value)
    if kind is int:
        ok, expected = _is_int(value), "an integer"
    elif kind is float:
        ok, expected = _is_number(value), "a number"
    elif kind is _parse_band:
        ok = isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value))
        expected = "a 'lo:hi' string or a list of two numbers"
    elif options.get("nargs") == "*":
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        expected = "a list of strings"
    else:
        ok = isinstance(value, str) or (key == "out_dir" and isinstance(value, os.PathLike))
        expected = "a string"
    choices = options.get("choices")
    if ok and choices is not None and value not in choices:
        ok, expected = False, f"one of {choices}"
    if not ok:
        shown = json.dumps(value, default=repr)
        raise ValueError(f"config key {key!r} must be {expected}, got {shown}")
    return value


def _merge_config(args: argparse.Namespace) -> dict:
    params: dict = {}
    if args.config is not None:
        params = _load_json(args.config, "config file")
        if not isinstance(params, dict):
            raise ValueError(f"{args.config}: a config file must hold a flat JSON object")
        # Checked before the flags override it, so every value it holds is checked.
        params = _checked(args.command, params)
    params.update((k, v) for k, v in vars(args).items()
                  if k not in ("command", "config") and v is not None)
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
