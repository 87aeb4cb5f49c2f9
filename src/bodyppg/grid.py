"""Local signal-quality mapping over a grid of pixel subregions.

A region of interest is tiled into fixed-size cells; each cell's spatially
averaged RGB trace is scored per time window (rate error and harmonic SNR),
masked to skin, linearly upsampled to pixel resolution, aligned across
recordings by a pose-keypoint homography, and averaged into a heatmap.
Cell-level pixel averaging happens upstream in trace extraction, so this
module never touches raw frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import harmonic_snrs
from .pulse_rate import PulseRateSeries, spectral_peaks
# Not called here: score_grid batches what these do for one pulse. The names
# stay importable from this module because perfbench's tracer wraps them here.
from .metrics import snr_harmonics  # noqa: F401
from .pulse_rate import stft_pulse_rate  # noqa: F401
from .rppg import MethodConfig, RGBTrace, pos
from .signals import Waveform, WindowPlan, window_starts

__all__ = [
    "SubregionGrid",
    "ErrorFrame",
    "PoseKeypoints",
    "grid_traces",
    "score_grid",
    "upsample_frame",
    "average_pose",
    "homography_from_poses",
    "warp_error_frame",
    "aggregate_heatmap",
    "DEFAULT_CELL_PX",
    "SKIN_FRACTION_THRESHOLD",
    "VISIBILITY_THRESHOLD",
]

DEFAULT_CELL_PX = 20
# A cell participates in scoring only when at least this fraction of its
# pixels are skin.
SKIN_FRACTION_THRESHOLD = 0.5
VISIBILITY_THRESHOLD = 0.5


@dataclass(frozen=True)
class SubregionGrid:
    """Per-cell RGB traces over a tiling of a region's bounding box.

    ``values`` has shape (n_frames, rows, cols, 3) holding the mean R, G, B of
    each cell per frame. ``skin_fraction`` is the per-cell fraction of skin
    pixels from the region mask.
    """

    values: np.ndarray
    sample_rate_hz: float
    start_time_s: float
    origin_px: tuple[int, int]
    cell_px: int
    skin_fraction: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 4 or values.shape[3] != 3:
            raise ValueError("values must have shape (n_frames, rows, cols, 3)")
        frac = np.asarray(self.skin_fraction, dtype=np.float64)
        if frac.shape != values.shape[1:3]:
            raise ValueError("skin_fraction must be a rows x cols array")
        if self.cell_px < 1:
            raise ValueError("cell_px must be at least 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "skin_fraction", frac)

    @property
    def rows(self) -> int:
        return self.values.shape[1]

    @property
    def cols(self) -> int:
        return self.values.shape[2]

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def duration_s(self) -> float:
        return self.n_frames / self.sample_rate_hz

    def cell_trace(
        self, row: int, col: int, start: int = 0, stop: int | None = None
    ) -> RGBTrace:
        """RGB trace of one cell over frames ``start`` to ``stop`` (default: all)."""
        rgb = self.values[start:stop, row, col, :]
        start_time_s = self.start_time_s + start / self.sample_rate_hz
        return RGBTrace(
            Waveform(rgb[:, 0], self.sample_rate_hz, start_time_s),
            Waveform(rgb[:, 1], self.sample_rate_hz, start_time_s),
            Waveform(rgb[:, 2], self.sample_rate_hz, start_time_s),
            roi_label=f"cell-{row}-{col}",
        )


@dataclass(frozen=True)
class ErrorFrame:
    """Per-cell rate error and SNR maps for one time window.

    Map entries are NaN outside the skin mask and for cells whose window
    could not be scored (zero variance); undefined never means zero.
    """

    window_index: int
    window_start_s: float
    mae_map: np.ndarray
    snr_map: np.ndarray
    skin_mask: np.ndarray

    @property
    def defined_mask(self) -> np.ndarray:
        return np.isfinite(self.mae_map)


@dataclass(frozen=True)
class PoseKeypoints:
    """Named 2-D body keypoints with visibility scores for one time instant."""

    names: tuple[str, ...]
    xy: np.ndarray
    visibility: np.ndarray
    frame_time_s: float = 0.0

    def __post_init__(self):
        xy = np.asarray(self.xy, dtype=np.float64)
        vis = np.asarray(self.visibility, dtype=np.float64)
        if xy.shape != (len(self.names), 2) or vis.shape != (len(self.names),):
            raise ValueError("xy must be (n, 2) and visibility (n,) for n names")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "visibility", vis)

    def visible(self, threshold: float = VISIBILITY_THRESHOLD) -> dict[str, np.ndarray]:
        return {
            name: self.xy[i]
            for i, name in enumerate(self.names)
            if self.visibility[i] >= threshold
        }


def grid_geometry(bbox_w: int, bbox_h: int, cell_px: int = DEFAULT_CELL_PX) -> tuple[int, int]:
    """(cols, rows) of whole cells tiling a bounding box; partial cells drop."""
    if cell_px < 1:
        raise ValueError("cell_px must be at least 1")
    return bbox_w // cell_px, bbox_h // cell_px


def grid_traces(
    cell_means: np.ndarray,
    sample_rate_hz: float,
    origin_px: tuple[int, int],
    cell_px: int,
    skin_fraction: np.ndarray | None = None,
    start_time_s: float = 0.0,
    frame_indices: np.ndarray | None = None,
) -> SubregionGrid:
    """Assemble per-cell traces from per-frame, per-cell RGB means.

    ``frame_indices``, when given, must be contiguous; gaps raise an error
    listing the missing frames.
    """
    cell_means = np.asarray(cell_means, dtype=np.float64)
    if frame_indices is not None:
        idx = np.asarray(frame_indices)
        expected = np.arange(idx[0], idx[0] + len(idx))
        missing = sorted(set(expected.tolist()) - set(idx.tolist()))
        if missing:
            raise ValueError(f"missing frames: {missing}")
    if skin_fraction is None:
        skin_fraction = np.ones(cell_means.shape[1:3])
    return SubregionGrid(
        values=cell_means,
        sample_rate_hz=sample_rate_hz,
        start_time_s=start_time_s,
        origin_px=origin_px,
        cell_px=cell_px,
        skin_fraction=skin_fraction,
    )


def score_grid(
    grid: SubregionGrid,
    ref_rate: PulseRateSeries,
    plan: WindowPlan | None = None,
    band_bpm: tuple[float, float] = (40.0, 180.0),
) -> list[ErrorFrame]:
    """Score every grid cell per non-overlapping window.

    Each cell window runs single-segment POS, band-passing, and spectral-peak
    rate estimation; the absolute rate error against the reference fills the
    MAE map and the harmonic SNR the SNR map. Cells below the skin-fraction
    threshold, or with an unusable window, stay NaN. Cells never interact, so
    perturbing one cell's trace changes only that cell's scores.

    POS runs once per skin cell and window; the pulses of one window are then
    rated and scored as the rows of one batch, exactly as
    :func:`stft_pulse_rate` and :func:`snr_harmonics` rate and score a
    single-window pulse. A band outside (0, Nyquist) leaves every cell NaN.
    """
    if plan is None:
        plan = WindowPlan(10.0, 10.0)
    fs = grid.sample_rate_hz
    n_len = plan.length_samples(fs)
    frames: list[ErrorFrame] = []
    skin_mask = grid.skin_fraction >= SKIN_FRACTION_THRESHOLD
    cells = np.argwhere(skin_mask)
    cfg = MethodConfig(method="pos", internal_window_s=plan.length_s)

    for widx, start in enumerate(window_starts(grid.n_frames, fs, plan).tolist()):
        window_start_s = grid.start_time_s + start / fs
        ref_bpm = ref_rate.rate_at(window_start_s + plan.length_s / 2.0)
        pulses = np.zeros((len(cells), n_len))
        extracted = np.zeros(len(cells), dtype=bool)
        for i, (row, col) in enumerate(cells.tolist()):
            trace = grid.cell_trace(row, col, start, start + n_len)
            try:
                pulses[i] = pos(trace, cfg).samples
            except ValueError:
                continue
            extracted[i] = True
        rates = np.full(len(cells), np.nan)
        try:
            rates[extracted] = spectral_peaks(pulses[extracted], fs, band_bpm)
        except ValueError:
            pass  # the band admits no rate at this sample rate: no cell is scored
        scored = np.isfinite(rates)
        mae_map = np.full((grid.rows, grid.cols), np.nan)
        snr_map = np.full((grid.rows, grid.cols), np.nan)
        rows, cols = cells[scored].T
        mae_map[rows, cols] = np.abs(rates[scored] - ref_bpm)
        snr_map[rows, cols] = harmonic_snrs(pulses[scored], fs, ref_bpm)
        frames.append(
            ErrorFrame(
                window_index=widx,
                window_start_s=window_start_s,
                mae_map=mae_map,
                snr_map=snr_map,
                skin_mask=skin_mask.copy(),
            )
        )
    return frames


def _bilinear_resize(values: np.ndarray, out_rows: int, out_cols: int) -> np.ndarray:
    """Separable bilinear resize with corner alignment (factor 1 is identity)."""
    rows, cols = values.shape
    r = (
        np.linspace(0.0, rows - 1.0, out_rows)
        if out_rows > 1
        else np.zeros(1)
    )
    c = (
        np.linspace(0.0, cols - 1.0, out_cols)
        if out_cols > 1
        else np.zeros(1)
    )
    r0 = np.clip(np.floor(r).astype(int), 0, rows - 1)
    r1 = np.clip(r0 + 1, 0, rows - 1)
    c0 = np.clip(np.floor(c).astype(int), 0, cols - 1)
    c1 = np.clip(c0 + 1, 0, cols - 1)
    fr = (r - r0)[:, None]
    fc = (c - c0)[None, :]
    top = values[np.ix_(r0, c0)] * (1 - fc) + values[np.ix_(r0, c1)] * fc
    bot = values[np.ix_(r1, c0)] * (1 - fc) + values[np.ix_(r1, c1)] * fc
    return top * (1 - fr) + bot * fr


def upsample_frame(frame: ErrorFrame, factor: int = DEFAULT_CELL_PX) -> dict[str, np.ndarray]:
    """Bilinearly interpolate cell maps up to pixel resolution.

    Maps grow by ``factor`` along each axis; the skin mask is upsampled by
    nearest neighbor. NaN cells spread to the pixels they influence, keeping
    undefined regions undefined.
    """
    if factor < 1:
        raise ValueError("factor must be at least 1")
    rows, cols = frame.mae_map.shape
    out_rows, out_cols = rows * factor, cols * factor
    r = np.linspace(0.0, rows - 1.0, out_rows) if out_rows > 1 else np.zeros(1)
    c = np.linspace(0.0, cols - 1.0, out_cols) if out_cols > 1 else np.zeros(1)
    nearest = frame.skin_mask[np.ix_(np.round(r).astype(int), np.round(c).astype(int))]
    return {
        "mae": _bilinear_resize(frame.mae_map, out_rows, out_cols),
        "snr": _bilinear_resize(frame.snr_map, out_rows, out_cols),
        "mask": nearest,
    }


def average_pose(poses: list[PoseKeypoints]) -> PoseKeypoints:
    """Mean position per keypoint over poses where it is visible.

    Keypoints visible in no pose are left out of the result; visibility of
    the survivors is the mean over their contributing poses.
    """
    if not poses:
        raise ValueError("need at least one pose")
    names = poses[0].names
    for p in poses[1:]:
        if p.names != names:
            raise ValueError("poses must share one keypoint name set")
    keep_names, keep_xy, keep_vis = [], [], []
    for i, name in enumerate(names):
        pts = [p.xy[i] for p in poses if p.visibility[i] >= VISIBILITY_THRESHOLD]
        if not pts:
            continue
        vis = [p.visibility[i] for p in poses if p.visibility[i] >= VISIBILITY_THRESHOLD]
        keep_names.append(name)
        keep_xy.append(np.mean(pts, axis=0))
        keep_vis.append(float(np.mean(vis)))
    if not keep_names:
        raise ValueError("no keypoint is visible in any pose")
    return PoseKeypoints(
        names=tuple(keep_names),
        xy=np.asarray(keep_xy),
        visibility=np.asarray(keep_vis),
        frame_time_s=float(np.mean([p.frame_time_s for p in poses])),
    )


def homography_from_poses(src: PoseKeypoints, dst: PoseKeypoints) -> np.ndarray:
    """3x3 projective transform mapping src keypoints onto dst keypoints.

    Uses the normalized direct linear transform over all keypoints visible in
    both poses, minimizing algebraic error in the least-squares sense; the
    result is scaled so H[2, 2] = 1.

    Raises:
        ValueError: with fewer than four shared visible keypoints or a
            degenerate (e.g. collinear) configuration.
    """
    src_pts = src.visible()
    dst_pts = dst.visible()
    shared = [name for name in src.names if name in src_pts and name in dst_pts]
    if len(shared) < 4:
        raise ValueError(
            f"need at least 4 shared visible keypoints, got {len(shared)}"
        )
    p = np.asarray([src_pts[name] for name in shared])
    q = np.asarray([dst_pts[name] for name in shared])

    def normalize(pts):
        centroid = pts.mean(axis=0)
        d = np.sqrt(((pts - centroid) ** 2).sum(axis=1)).mean()
        if d < 1e-12:
            raise ValueError("degenerate keypoint configuration: points coincide")
        s = np.sqrt(2.0) / d
        t = np.array([[s, 0, -s * centroid[0]], [0, s, -s * centroid[1]], [0, 0, 1.0]])
        homog = np.column_stack([pts, np.ones(len(pts))])
        return (t @ homog.T).T, t

    pn, tp = normalize(p)
    qn, tq = normalize(q)

    rows = []
    for (x, y, _), (u, v, _) in zip(pn, qn):
        rows.append([-x, -y, -1, 0, 0, 0, u * x, u * y, u])
        rows.append([0, 0, 0, -x, -y, -1, v * x, v * y, v])
    a = np.asarray(rows)
    _, s, vt = np.linalg.svd(a)
    if s[-2] < 1e-9 * s[0]:
        raise ValueError("degenerate keypoint configuration: homography not unique")
    h_norm = vt[-1].reshape(3, 3)
    h = np.linalg.inv(tq) @ h_norm @ tp
    if abs(h[2, 2]) < 1e-12:
        raise ValueError("degenerate homography (vanishing scale)")
    return h / h[2, 2]


def warp_error_frame(
    pixel_map: np.ndarray, h: np.ndarray, out_size: tuple[int, int]
) -> np.ndarray:
    """Warp a pixel-resolution map through a homography by inverse mapping.

    Output pixel (x, y) takes the bilinearly sampled source value at
    H^-1 (x, y); pixels whose pre-image falls outside the source, or touches
    an undefined (NaN) source pixel, stay undefined.

    Raises:
        ValueError: if the homography is singular.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (3, 3):
        raise ValueError("homography must be a 3x3 matrix")
    try:
        h_inv = np.linalg.inv(h)
    except np.linalg.LinAlgError as exc:
        raise ValueError("homography is singular and cannot be inverted") from exc

    out_w, out_h = out_size
    src = np.asarray(pixel_map, dtype=np.float64)
    rows, cols = src.shape
    xs, ys = np.meshgrid(np.arange(out_w, dtype=np.float64), np.arange(out_h, dtype=np.float64))
    denom = h_inv[2, 0] * xs + h_inv[2, 1] * ys + h_inv[2, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        sx = (h_inv[0, 0] * xs + h_inv[0, 1] * ys + h_inv[0, 2]) / denom
        sy = (h_inv[1, 0] * xs + h_inv[1, 1] * ys + h_inv[1, 2]) / denom

    out = np.full((out_h, out_w), np.nan)
    inside = (
        np.isfinite(sx)
        & np.isfinite(sy)
        & (sx >= 0)
        & (sy >= 0)
        & (sx <= cols - 1)
        & (sy <= rows - 1)
    )
    if not np.any(inside):
        return out
    sxi = sx[inside]
    syi = sy[inside]
    x0 = np.clip(np.floor(sxi).astype(int), 0, cols - 1)
    y0 = np.clip(np.floor(syi).astype(int), 0, rows - 1)
    x1 = np.clip(x0 + 1, 0, cols - 1)
    y1 = np.clip(y0 + 1, 0, rows - 1)
    fx = sxi - x0
    fy = syi - y0
    val = (
        src[y0, x0] * (1 - fx) * (1 - fy)
        + src[y0, x1] * fx * (1 - fy)
        + src[y1, x0] * (1 - fx) * fy
        + src[y1, x1] * fx * fy
    )
    out[inside] = val
    return out


def aggregate_heatmap(
    frames: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel mean over defined values only, plus a contribution count map.

    Pixels defined in zero frames stay NaN rather than being zero-filled.
    """
    if not frames:
        raise ValueError("need at least one frame to aggregate")
    stack = np.stack([np.asarray(f, dtype=np.float64) for f in frames])
    defined = np.isfinite(stack)
    count = defined.sum(axis=0)
    total = np.where(defined, stack, 0.0).sum(axis=0)
    with np.errstate(invalid="ignore"):
        mean = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    return mean, count
