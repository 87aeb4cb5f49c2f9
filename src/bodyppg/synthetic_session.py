"""Generate a complete synthetic recording session on disk.

Produces everything a real capture would: nine contact-sensor CSVs with
per-site pulse arrival delays, a fingertip oximeter CSV, per-region RGB trace
CSVs carrying a chromatic pulse, grid cell means for one region, pose
keypoints, and a manifest tying it together. Entirely deterministic per seed,
so end-to-end pipeline runs are reproducible and checkable against the
generator's ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .grid import PoseKeypoints, SubregionGrid
from .session import (
    write_grid,
    write_json,
    write_oximeter_csv,
    write_poses_json,
    write_sensor_csv,
    write_trace_csv,
)
from .synth import (
    Burst,
    PulseModel,
    motion_burst_noise,
    ramp_rate,
    synth_pulse,
    synth_rgb_trace,
)

__all__ = ["SyntheticSessionConfig", "build_synthetic_session"]

# Pulse arrival delay per contact-sensor site, seconds. All values are exact
# multiples of the 400 Hz sample period so correlation scans can recover them
# exactly.
SENSOR_DELAYS_S = {
    "neck": 0.0000,
    "right-arm-upper": 0.0100,
    "left-arm-upper": 0.0125,
    "right-arm-lower": 0.0200,
    "left-arm-lower": 0.0225,
    "right-leg-upper": 0.0300,
    "left-leg-upper": 0.0325,
    "right-leg-lower": 0.0475,
    "left-leg-lower": 0.0500,
}

ROI_DELAYS_S = {
    "face": 0.0000,
    "palm": 1.0 / 90.0,
    "right-arm": 2.0 / 90.0,
    "left-arm": 2.0 / 90.0,
    "right-leg": 4.0 / 90.0,
    "left-leg": 4.0 / 90.0,
}

ROI_BASELINES = {
    "face": (0.66, 0.50, 0.42),
    "palm": (0.70, 0.55, 0.47),
    "right-arm": (0.60, 0.46, 0.38),
    "left-arm": (0.60, 0.46, 0.38),
    "right-leg": (0.55, 0.42, 0.35),
    "left-leg": (0.55, 0.42, 0.35),
}

DEFAULT_MODULATION = (0.002, 0.006, 0.004)

POSE_POINT_NAMES = (
    "nose",
    "left-shoulder",
    "right-shoulder",
    "left-elbow",
    "right-elbow",
    "left-hip",
    "right-hip",
    "left-knee",
    "right-knee",
    "left-ankle",
    "right-ankle",
)

POSE_BASE_XY = np.array(
    [
        [160.0, 40.0],
        [120.0, 80.0],
        [200.0, 80.0],
        [100.0, 130.0],
        [220.0, 130.0],
        [130.0, 160.0],
        [190.0, 160.0],
        [125.0, 210.0],
        [195.0, 210.0],
        [120.0, 260.0],
        [200.0, 260.0],
    ]
)


@dataclass(frozen=True)
class SyntheticSessionConfig:
    """Knobs for the generated session; the class constants are fixed for
    every session."""

    seed: int = 7
    duration_s: float = 60.0
    grid_rows: int = 3
    grid_cols: int = 4
    corrupt_sites: tuple[str, ...] = ()

    video_fps: ClassVar[float] = 90.0
    sensor_rate_hz: ClassVar[float] = 400.0
    oximeter_rate_hz: ClassVar[float] = 60.0
    rate_start_bpm: ClassVar[float] = 66.0
    rate_end_bpm: ClassVar[float] = 78.0
    sensor_noise_std: ClassVar[float] = 0.08
    trace_noise_std: ClassVar[float] = 0.0008
    grid_roi: ClassVar[str] = "face"
    grid_cell_px: ClassVar[int] = 20
    burst_span_s: ClassVar[tuple[float, float]] = (2.0, 5.0)
    burst_amplitude: ClassVar[float] = 8.0
    harmonics: ClassVar[tuple[tuple[float, float, float], ...]] = (
        (1.0, 1.0, 0.0),
        (2.0, 0.30, 1.1),
        (3.0, 0.12, 2.3),
    )

    def __post_init__(self):
        unknown = [site for site in self.corrupt_sites if site not in SENSOR_DELAYS_S]
        if unknown:
            raise ValueError(
                f"unknown corrupt site(s) {unknown}; sensor sites: {sorted(SENSOR_DELAYS_S)}"
            )

    def rate_profile(self):
        return ramp_rate(self.rate_start_bpm, self.rate_end_bpm, self.duration_s)


def build_synthetic_session(
    out_dir: Path | str, cfg: SyntheticSessionConfig | None = None
) -> Path:
    """Write a full synthetic session into ``out_dir``; returns the manifest path.

    A ``ground_truth.json`` sidecar records the generator's own answers
    (rate profile endpoints, per-site delays) for downstream verification; the
    analysis pipeline never reads it.
    """
    if cfg is None:
        cfg = SyntheticSessionConfig()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    profile = cfg.rate_profile()

    # Contact sensors at 400 Hz, one pulse model per site with its own noise.
    sensor_entries = []
    for i, (site, delay) in enumerate(sorted(SENSOR_DELAYS_S.items())):
        model = PulseModel(
            fs_hz=cfg.sensor_rate_hz,
            duration_s=cfg.duration_s,
            rate_profile=profile,
            harmonics=cfg.harmonics,
            delay_s=delay,
            noise_std=cfg.sensor_noise_std,
            seed=cfg.seed * 1000 + i,
        )
        pulse = synth_pulse(model).samples
        if site in cfg.corrupt_sites:
            pulse = pulse + motion_burst_noise(
                cfg.sensor_rate_hz,
                cfg.duration_s,
                [Burst(cfg.burst_span_s[0], cfg.burst_span_s[1], cfg.burst_amplitude)],
                seed=cfg.seed * 2000 + i,
            )
        t = np.arange(pulse.size) / cfg.sensor_rate_hz
        ir = 5000.0 + 80.0 * pulse
        red = 4000.0 + 50.0 * pulse
        path = out_dir / f"sensor_{site}.csv"
        write_sensor_csv(path, t, red, ir)
        sensor_entries.append({"site": site, "path": path.name, "channel": "ir"})

    # Oximeter rate stream at 60 Hz with slow jitter around the true profile.
    n_ox = int(round(cfg.duration_s * cfg.oximeter_rate_hz))
    t_ox = np.arange(n_ox) / cfg.oximeter_rate_hz
    rng = np.random.default_rng(cfg.seed + 17)
    jitter = np.interp(
        t_ox,
        np.linspace(0.0, cfg.duration_s, 13),
        rng.normal(0.0, 0.8, 13),
    )
    write_oximeter_csv(out_dir / "oximeter.csv", t_ox, profile(t_ox) + jitter)

    # Per-region RGB traces at video rate.
    trace_entries = {}
    for i, (roi, delay) in enumerate(sorted(ROI_DELAYS_S.items())):
        model = PulseModel(
            fs_hz=cfg.video_fps,
            duration_s=cfg.duration_s,
            rate_profile=profile,
            harmonics=cfg.harmonics,
            delay_s=delay,
            noise_std=0.0,
            seed=cfg.seed * 3000 + i,
        )
        pulse = synth_pulse(model)
        trace = synth_rgb_trace(
            pulse,
            baseline=ROI_BASELINES[roi],
            modulation=DEFAULT_MODULATION,
            noise_std=cfg.trace_noise_std,
            seed=cfg.seed * 4000 + i,
            roi_label=roi,
        )
        path = out_dir / f"trace_{roi}.csv"
        write_trace_csv(path, trace)
        trace_entries[roi] = path.name

    # Grid cell means for one region: every cell carries the region's pulse
    # with per-cell noise; one corner cell is mostly background.
    grid_model = PulseModel(
        fs_hz=cfg.video_fps,
        duration_s=cfg.duration_s,
        rate_profile=profile,
        harmonics=cfg.harmonics,
        delay_s=ROI_DELAYS_S[cfg.grid_roi],
        seed=cfg.seed * 5000,
    )
    grid_pulse = synth_pulse(grid_model)
    n_frames = len(grid_pulse)
    values = np.empty((n_frames, cfg.grid_rows, cfg.grid_cols, 3))
    rng = np.random.default_rng(cfg.seed + 29)
    pulsed = 1.0 + np.multiply(DEFAULT_MODULATION, grid_pulse.samples[:, None])
    clean = np.multiply(ROI_BASELINES[cfg.grid_roi], pulsed)
    for row in range(cfg.grid_rows):
        # The noise fills cells in row, col, channel order, n_frames values
        # each; drawing one grid row at a time keeps the temporary small.
        noise = rng.normal(0.0, cfg.trace_noise_std, (cfg.grid_cols, 3, n_frames))
        np.add(clean[:, None, :], noise.transpose(2, 0, 1), out=values[:, row])
    fraction = np.ones((cfg.grid_rows, cfg.grid_cols))
    fraction[-1, -1] = 0.3
    grid = SubregionGrid(
        values=values,
        sample_rate_hz=cfg.video_fps,
        start_time_s=0.0,
        origin_px=(120, 40),
        cell_px=cfg.grid_cell_px,
        skin_fraction=fraction,
    )
    write_grid(out_dir / "grid_face.rgm", out_dir / "grid_face.json", grid)

    # One pose per 10-second window, jittered around a fixed skeleton.
    rng = np.random.default_rng(cfg.seed + 41)
    poses = []
    for widx in range(int(cfg.duration_s // 10)):
        xy = POSE_BASE_XY + rng.normal(0.0, 2.0, POSE_BASE_XY.shape)
        vis = np.full(len(POSE_POINT_NAMES), 0.95)
        poses.append(
            PoseKeypoints(
                names=POSE_POINT_NAMES,
                xy=xy,
                visibility=vis,
                frame_time_s=widx * 10.0 + 5.0,
            )
        )
    write_poses_json(out_dir / "poses.json", poses)

    manifest = {
        "session_id": f"synthetic-{cfg.seed}",
        "video": {
            "fps": cfg.video_fps,
            "width": 320,
            "height": 320,
            "traces": trace_entries,
            "grids": {
                cfg.grid_roi: {"means": "grid_face.rgm", "meta": "grid_face.json"}
            },
        },
        "sensors": sensor_entries,
        "oximeter": {"path": "oximeter.csv", "rate_hz": cfg.oximeter_rate_hz},
        "rois": [{"label": roi, "bbox": [0, 0, 320, 320]} for roi in sorted(ROI_DELAYS_S)],
        "keypoints": "poses.json",
        "portions": [{"name": "relaxed", "start_s": 0.0, "end_s": cfg.duration_s}],
    }
    manifest_path = out_dir / "manifest.json"
    write_json(manifest_path, manifest)

    truth = {
        "rate_start_bpm": cfg.rate_start_bpm,
        "rate_end_bpm": cfg.rate_end_bpm,
        "duration_s": cfg.duration_s,
        "sensor_delays_s": dict(sorted(SENSOR_DELAYS_S.items())),
        "roi_delays_s": dict(sorted(ROI_DELAYS_S.items())),
        "corrupt_sites": list(cfg.corrupt_sites),
        "seed": cfg.seed,
    }
    write_json(out_dir / "ground_truth.json", truth)
    return manifest_path
