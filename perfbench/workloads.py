"""The benchmark's workloads: how each builds its inputs, which CLI jobs it
runs, and how each job's outputs are checked against the generator's truth.

Every input is built from the workload seed with the library's own generator;
the CLI sees only the files written here. Job arguments are relative to the
run directory, which is the working directory of every job, so the config
echo the CLI writes (and with it every artifact digest) does not depend on
where the checkout lives.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from bodyppg.cli import main as cli_main
from bodyppg.session import write_frame_dump, write_pgm
from bodyppg.synth import PulseModel, synth_pulse, synth_rgb_trace
from bodyppg.synthetic_session import (
    DEFAULT_MODULATION,
    ROI_BASELINES,
    ROI_DELAYS_S,
    SyntheticSessionConfig,
    build_synthetic_session,
)

MANIFEST = "session/manifest.json"
SETUP_RATES = "rates/fused_rates.csv"
CORRUPT_SITES = ("left-arm-lower", "right-leg-upper")
GRID_WINDOW_S = 10.0  # grid-map's default non-overlapping window
SENSOR_FS = 400.0
VIDEO_FS = 90.0

# Output checks; today's code meets them with a wide margin (estimate MAE
# about 0.15-0.18 bpm, r about 0.998).
MAX_RATE_MAE_BPM = 1.0
MIN_RATE_R = 0.99


@dataclass(frozen=True)
class Facts:
    """What a workload's checks need to know about the inputs it built."""

    duration_s: float
    build_s: float  # seconds the session generator took, without the setup fuse-gt
    grid_shape: tuple[int, int] = (0, 0)
    # Cells below the skin-fraction threshold: the only ones allowed to be NaN.
    background_cells: tuple[tuple[int, int], ...] = ()

    @property
    def skin_cells(self) -> int:
        rows, cols = self.grid_shape
        return rows * cols - len(self.background_cells)

    @property
    def grid_windows(self) -> int:
        return int(self.duration_s // GRID_WINDOW_S)

    @property
    def sizes(self) -> dict:
        return {"duration_s": self.duration_s, "grid_rows": self.grid_shape[0],
                "grid_cols": self.grid_shape[1]}


@dataclass(frozen=True)
class Job:
    """One CLI command of a workload pass."""

    name: str  # output directory under out/, and the key of its digests
    metric: str  # end-to-end metric its time inside main() adds to
    argv: tuple[str, ...]
    check: Callable[[Path, Path, Facts], list[str]]  # (out dir, session dir, facts) -> problems

    def command_line(self) -> list[str]:
        return [*self.argv, "--out-dir", f"out/{self.name}"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[Path, int, bool], Facts]  # (run dir, seed, smoke) -> facts
    jobs: tuple[Job, ...]


# ----------------------------------------------------------------------------
# Input builders


def _timed(build, *args) -> float:
    t0 = time.perf_counter()
    build(*args)
    return time.perf_counter() - t0


def _setup_rates(run_dir: Path) -> None:
    """The reference-rate CSV, made by one ``fuse-gt`` as a user would."""
    code = cli_main(["fuse-gt", "--manifest", str(run_dir / MANIFEST),
                     "--out-dir", str(run_dir / "rates")])
    if code != 0:
        raise RuntimeError("setup fuse-gt failed")


def build_ptt(run_dir: Path, seed: int, smoke: bool) -> Facts:
    duration = 20.0 if smoke else 60.0
    cfg = SyntheticSessionConfig(seed=seed, duration_s=duration)
    return Facts(duration, _timed(build_synthetic_session, run_dir / "session", cfg))


def build_reference(run_dir: Path, seed: int, smoke: bool) -> Facts:
    duration = 40.0 if smoke else 300.0
    cfg = SyntheticSessionConfig(seed=seed, duration_s=duration, corrupt_sites=CORRUPT_SITES)
    return Facts(duration, _timed(build_synthetic_session, run_dir / "session", cfg))


def build_grid(run_dir: Path, seed: int, smoke: bool) -> Facts:
    duration, rows, cols = (20.0, 6, 8) if smoke else (60.0, 15, 20)
    cfg = SyntheticSessionConfig(seed=seed, duration_s=duration, grid_rows=rows, grid_cols=cols)
    build_s = _timed(build_synthetic_session, run_dir / "session", cfg)
    _setup_rates(run_dir)
    # The generator gives the last cell a skin fraction of 0.3.
    return Facts(duration, build_s, (rows, cols), ((rows - 1, cols - 1),))


FRAME_W, FRAME_H, CELL_PX = 160, 120, 20
# (x0, y0, width, height) of each ROI in the frame. The face tiles to 5 x 4
# cells of CELL_PX; its bottom-right cell keeps only its top 6 pixel rows of
# skin (fraction 0.3), so it is the one cell grid scoring must leave NaN.
ROI_RECTS = {
    "face": (0, 0, 100, 80),
    "palm": (100, 0, 60, 40),
    "right-arm": (100, 40, 60, 40),
    "left-arm": (0, 80, 50, 40),
    "right-leg": (50, 80, 50, 40),
    "left-leg": (100, 80, 60, 40),
}
BACKGROUND_LEVEL = 0.3
FRAME_CHUNK = 90


def _roi_masks() -> dict[str, np.ndarray]:
    masks = {}
    for roi, (x0, y0, w, h) in ROI_RECTS.items():
        mask = np.zeros((FRAME_H, FRAME_W), dtype=bool)
        mask[y0 : y0 + h, x0 : x0 + w] = True
        masks[roi] = mask
    x0, y0, w, h = ROI_RECTS["face"]
    masks["face"][y0 + h - CELL_PX + 6 : y0 + h, x0 + w - CELL_PX : x0 + w] = False
    return masks


def build_frame_session(session_dir: Path, cfg: SyntheticSessionConfig) -> Path:
    """A session whose video is a raw frame dump plus one PGM mask per ROI.

    Sensors, oximeter, poses and ``ground_truth.json`` come from
    ``build_synthetic_session``; its trace and grid CSVs are dropped, so the
    CLI must ingest the frames. Each ROI's pixels carry the same pulse the
    generator puts in that ROI's trace (same seeds and delays), scaled to
    8 bits over a fixed uniform dither field so that spatial means recover
    the sub-level modulation. Returns the manifest path.
    """
    manifest_path = build_synthetic_session(session_dir, cfg)
    doc = json.loads(manifest_path.read_text())
    for rel in doc["video"]["traces"].values():
        (session_dir / rel).unlink()
    for entry in doc["video"]["grids"].values():
        (session_dir / entry["means"]).unlink()
        (session_dir / entry["meta"]).unlink()

    labels = sorted(ROI_RECTS)
    n = int(round(cfg.duration_s * cfg.video_fps))
    # levels[frame, channel, k]: ROI k's intensity; index len(labels) is background.
    levels = np.full((n, 3, len(labels) + 1), BACKGROUND_LEVEL)
    for i, roi in enumerate(sorted(ROI_DELAYS_S)):
        pulse = synth_pulse(PulseModel(
            fs_hz=cfg.video_fps, duration_s=cfg.duration_s, rate_profile=cfg.rate_profile(),
            harmonics=cfg.harmonics, delay_s=ROI_DELAYS_S[roi], seed=cfg.seed * 3000 + i,
        ))
        trace = synth_rgb_trace(pulse, baseline=ROI_BASELINES[roi],
                                modulation=DEFAULT_MODULATION,
                                noise_std=cfg.trace_noise_std, seed=cfg.seed * 4000 + i)
        levels[:, :, labels.index(roi)] = trace.channel_matrix()
    levels *= 255.0

    masks = _roi_masks()
    region = np.full((FRAME_H, FRAME_W), len(labels))
    for k, roi in enumerate(labels):
        x0, y0, w, h = ROI_RECTS[roi]
        region[y0 : y0 + h, x0 : x0 + w] = k
    dither = np.random.default_rng(cfg.seed + 53).random((FRAME_H, FRAME_W))
    frames = np.empty((n, 3, FRAME_H, FRAME_W), dtype=np.uint8)
    for f0 in range(0, n, FRAME_CHUNK):
        chunk = levels[f0 : f0 + FRAME_CHUNK][:, :, region] + dither
        frames[f0 : f0 + FRAME_CHUNK] = np.clip(np.floor(chunk), 0, 255)
    write_frame_dump(session_dir / "frames.rfd", frames, cfg.video_fps)
    for roi, mask in masks.items():
        write_pgm(session_dir / f"mask_{roi}.pgm", mask)

    doc["video"] = {"fps": cfg.video_fps, "width": FRAME_W, "height": FRAME_H,
                    "frames": "frames.rfd"}
    doc["rois"] = [{"label": roi, "bbox": list(ROI_RECTS[roi]), "mask": f"mask_{roi}.pgm"}
                   for roi in labels]
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return manifest_path


def build_frames(run_dir: Path, seed: int, smoke: bool) -> Facts:
    duration = 20.0 if smoke else 30.0
    cfg = SyntheticSessionConfig(seed=seed, duration_s=duration)
    build_s = _timed(build_frame_session, run_dir / "session", cfg)
    _setup_rates(run_dir)
    _, _, w, h = ROI_RECTS["face"]
    rows, cols = h // CELL_PX, w // CELL_PX
    return Facts(duration, build_s, (rows, cols), ((rows - 1, cols - 1),))


# ----------------------------------------------------------------------------
# Output checks. Each returns a list of problems; an empty list is a pass.


def _truth(session_dir: Path) -> dict:
    return json.loads((session_dir / "ground_truth.json").read_text())


def _true_rate(truth: dict, times_s: np.ndarray) -> np.ndarray:
    frac = np.clip(times_s / truth["duration_s"], 0.0, 1.0)
    return truth["rate_start_bpm"] + (truth["rate_end_bpm"] - truth["rate_start_bpm"]) * frac


def _check_rates_csv(path: Path, truth: dict) -> list[str]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)
    if data.shape[0] < 2:
        return [f"{path.name}: {data.shape[0]} rate windows"]
    err = float(np.mean(np.abs(data[:, 1] - _true_rate(truth, data[:, 0]))))
    if not err < MAX_RATE_MAE_BPM:
        return [f"{path.name}: MAE {err:.3f} bpm against the generator's rate profile"]
    return []


def check_fuse(out: Path, session: Path, facts: Facts) -> list[str]:
    problems = _check_rates_csv(out / "fused_rates.csv", _truth(session))
    diags = json.loads((out / "fused_diagnostics.json").read_text())
    if diags["empty_window_times_s"]:
        problems.append(f"fusion left {len(diags['empty_window_times_s'])} windows empty")
    return problems


def check_estimate(roi: str, method: str):
    def check(out: Path, session: Path, facts: Facts) -> list[str]:
        problems = _check_rates_csv(out / f"rates_{roi}_{method}.csv", _truth(session))
        score = json.loads((out / f"score_{roi}_{method}.json").read_text())
        if not score["mae_bpm"] < MAX_RATE_MAE_BPM:
            problems.append(f"estimate {roi}/{method}: MAE {score['mae_bpm']:.3f} bpm")
        if not score["pearson_r"] > MIN_RATE_R:
            problems.append(f"estimate {roi}/{method}: r {score['pearson_r']:.4f}")
        return problems

    return check


def check_ptt(source: str):
    delays_key, fs = ("sensor_delays_s", SENSOR_FS) if source == "sensors" else ("roi_delays_s", VIDEO_FS)

    def check(out: Path, session: Path, facts: Facts) -> list[str]:
        doc = json.loads((out / "ptt_matrix.json").read_text())
        delays = _truth(session)[delays_key]
        if sorted(doc["sites"]) != sorted(delays):
            return [f"ptt {source}: sites {doc['sites']} differ from {sorted(delays)}"]
        d = np.array([delays[s] for s in doc["sites"]]) * 1000.0
        expected = d[None, :] - d[:, None]  # [i][j] > 0 when site i leads site j
        worst = float(np.max(np.abs(np.asarray(doc["mean_lag_ms"]) - expected)))
        problems = []
        if not worst <= 1000.0 / fs + 1e-9:
            problems.append(f"ptt {source}: mean lag off by {worst:.3f} ms, more than one sample")
        if np.any(np.asarray(doc["n_failed"])):
            problems.append(f"ptt {source}: n_failed is not all zero")
        return problems

    return check


def check_grid(out: Path, session: Path, facts: Facts) -> list[str]:
    meta = json.loads((out / "grid_meta.json").read_text())
    if meta["n_error_frames"] != facts.grid_windows:
        return [f"grid-map: {meta['n_error_frames']} error frames, expected {facts.grid_windows}"]
    expected = np.zeros(facts.grid_shape, dtype=bool)
    for cell in facts.background_cells:
        expected[cell] = True
    problems = []
    for widx in range(facts.grid_windows):
        mae = np.loadtxt(out / f"frame_{widx:03d}_mae.csv", delimiter=",", ndmin=2)
        if mae.shape != expected.shape or not np.array_equal(np.isnan(mae), expected):
            problems.append(f"grid-map frame {widx}: NaN cells differ from the background cells")
    return problems


# ----------------------------------------------------------------------------
# The workloads. Each ``why`` is the one-line reason the workload exists.

_PTT_SENSORS = Job("ptt_sensors", "ptt_sensors_s",
                   ("ptt", "--manifest", MANIFEST, "--source", "sensors", "--stride-s", "0.25"),
                   check_ptt("sensors"))
_PTT_RPPG = Job("ptt_rppg", "ptt_rppg_s",
                ("ptt", "--manifest", MANIFEST, "--source", "rppg", "--stride-s", "0.1"),
                check_ptt("rppg"))
_FUSE = Job("fuse_gt", "fuse_gt_s", ("fuse-gt", "--manifest", MANIFEST), check_fuse)


def _estimate(roi: str, method: str, ref_rates: str | None) -> Job:
    argv = ["estimate", "--manifest", MANIFEST, "--roi", roi, "--method", method]
    if ref_rates:
        argv += ["--ref-rates", ref_rates]
    return Job(f"estimate_{roi}_{method}", "estimate_s", tuple(argv), check_estimate(roi, method))


_GRID_MAP = Job("grid_map_face", "grid_map_s",
                ("grid-map", "--manifest", MANIFEST, "--roi", "face", "--ref-rates", SETUP_RATES),
                check_grid)

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "ptt",
            "PTT lag scan dominates; two shapes (9 sites at 400 Hz, 6 at 90 Hz) so a lag-scan change tuned to one cannot slow the other",
            build_ptt,
            (_PTT_SENSORS, _PTT_RPPG),
        ),
        Workload(
            "reference",
            "300 s session with two corrupted sensors: fusion, signal filtering, CSV parsing and long-trace rPPG do the work",
            build_reference,
            (_FUSE, _estimate("face", "pos", None),
             _estimate("palm", "chrom", "out/fuse_gt/fused_rates.csv")),
        ),
        Workload(
            "grid",
            "15x20 face grid: per-cell scoring over about 1,800 cell-windows plus a 100 MB grid CSV parse",
            build_grid,
            (_GRID_MAP,),
        ),
        Workload(
            "frames",
            "the only raw frame-dump input (30 s, 160x120, 90 fps); frame ingestion and peak memory are at stake",
            build_frames,
            (_estimate("face", "pos", SETUP_RATES), _estimate("palm", "chrom", SETUP_RATES),
             _GRID_MAP),
        ),
    )
}
