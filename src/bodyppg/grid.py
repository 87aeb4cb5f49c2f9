"""Local signal-quality mapping over a grid of pixel subregions.

A region of interest is tiled into fixed-size cells; each cell's spatially
averaged RGB trace is scored per time window (rate error and harmonic SNR),
masked to skin, linearly upsampled to pixel resolution, aligned across
recordings by a pose-keypoint homography, and averaged into a heatmap.
Cell-level pixel averaging happens upstream in trace extraction, so this
module never touches raw frames.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .metrics import DEFAULT_SCORE_PLAN, harmonic_snrs
from .pulse_rate import DEFAULT_BAND_BPM, PulseRateSeries, spectral_peaks
# Not called here: score_grid batches what these do for one pulse. The names
# stay importable from this module because perfbench's tracer wraps them here.
from .metrics import snr_harmonics  # noqa: F401
from .pulse_rate import stft_pulse_rate  # noqa: F401
from .rppg import MethodConfig, RGBTrace, pos
from .signals import WindowPlan, window_starts

if TYPE_CHECKING:
    from .session import GridStore

__all__ = [
    "SubregionGrid",
    "ErrorFrame",
    "PoseKeypoints",
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
# Output pixels per band of rows that upsample_frame and warp_error_frame
# compute at once. The warp's temporaries take about 160 bytes per pixel of a
# two-map stack, so a band's 2.6 MB stays in cache; a 1080x1920 stack warps
# in 8-row bands.
_BAND_PIXELS = 1 << 14


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

    def at_frame(self, start: int, values: np.ndarray) -> "SubregionGrid":
        """This grid's cells over ``values``, the frames from this grid's frame
        ``start`` on: the result starts at that frame's time."""
        return replace(
            self, values=values, start_time_s=self.start_time_s + start / self.sample_rate_hz
        )

    def windows(self, starts: Iterable[int], n: int) -> Iterator["SubregionGrid"]:
        """For each of ``starts``, the grid of frames [start, start + n), a view
        of this grid's values."""
        for start in starts:
            yield self.at_frame(start, self.values[start : start + n])

    def cell_traces(self, cells: np.ndarray) -> list[RGBTrace]:
        """RGB traces over all of this grid's frames of the cells at the
        (row, col) pairs ``cells``, in their order.

        The cell means are copied once, channel-major, and checked once: each
        trace's channels are read-only contiguous rows of that copy, the
        (3, n) layout in which ``rppg._overlap_add`` stacks them.

        Raises:
            ValueError: naming the first of ``cells`` with a mean that is not
                finite and non-negative.
        """
        rows, cols = np.asarray(cells, dtype=int).reshape(-1, 2).T
        channel_major = np.ascontiguousarray(self.values.transpose(1, 2, 3, 0))
        # Only a failing window is searched, and only the cells asked for count.
        if first_bad_cell_mean(channel_major) is not None:
            bad = first_bad_cell_mean(channel_major[rows, cols])
            if bad is not None:
                i, ch, f = bad
                raise ValueError(
                    f"cell ({rows[i]}, {cols[i]}) has a {'RGB'[ch]} mean of "
                    f"{float(channel_major[rows[i], cols[i], ch, f])!r} at "
                    f"{self.start_time_s + f / self.sample_rate_hz:.6g} s; "
                    "cell means must be finite and non-negative"
                )
        channel_major.flags.writeable = False
        return [
            RGBTrace.of_rows(channel_major[row, col], self.sample_rate_hz, self.start_time_s,
                             f"cell-{row}-{col}")
            for row, col in zip(rows.tolist(), cols.tolist())
        ]


def first_bad_cell_mean(values: np.ndarray) -> tuple[int, ...] | None:
    """The index of the first value of ``values`` that is not finite and
    non-negative, as an average of pixel intensities is; None if there is none."""
    # min() is NaN if any value is; only a failing array is searched.
    if not values.size or (values.min() >= 0 and np.isfinite(values.max())):
        return None
    return tuple(np.argwhere(~(values >= 0) | np.isinf(values))[0].tolist())


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

    def visible(self) -> dict[str, np.ndarray]:
        """Positions of the keypoints visible at ``VISIBILITY_THRESHOLD`` or above."""
        return {
            name: self.xy[i]
            for i, name in enumerate(self.names)
            if self.visibility[i] >= VISIBILITY_THRESHOLD
        }


def grid_geometry(bbox_w: int, bbox_h: int, cell_px: int) -> tuple[int, int]:
    """(cols, rows) of whole cells tiling a bounding box; partial cells drop."""
    if cell_px < 1:
        raise ValueError("cell_px must be at least 1")
    return bbox_w // cell_px, bbox_h // cell_px


def score_grid(
    grid: SubregionGrid | GridStore,
    ref_rate: PulseRateSeries,
    plan: WindowPlan | None = None,
) -> list[ErrorFrame]:
    """Score every grid cell in each window of ``plan``.

    ``plan`` (default ``DEFAULT_SCORE_PLAN``) sets the window length and the
    stride between window starts, so windows may overlap or leave gaps.
    ``grid`` is a :class:`SubregionGrid` or a
    :class:`~bodyppg.session.GridStore`: either gives its windows through
    ``windows(starts, n)``, each a grid of its own that is scored whole, and
    a store holds only one window's cell means at a time.

    Each cell window runs single-segment POS, band-passing, and spectral-peak
    rate estimation; the absolute rate error against the reference fills the
    MAE map and the harmonic SNR the SNR map. Cells below the skin-fraction
    threshold, or with an unusable window, stay NaN. Cells never interact, so
    perturbing one cell's trace changes only that cell's scores.

    POS runs once per skin cell and window; the pulses of one window are then
    rated and scored as the rows of one batch, exactly as
    :func:`stft_pulse_rate` and :func:`snr_harmonics` rate and score a
    single-window pulse. A ``DEFAULT_BAND_BPM`` past Nyquist leaves every cell NaN.
    """
    if plan is None:
        plan = DEFAULT_SCORE_PLAN
    fs = grid.sample_rate_hz
    n_len = plan.length_samples(fs)
    frames: list[ErrorFrame] = []
    skin_mask = grid.skin_fraction >= SKIN_FRACTION_THRESHOLD
    cells = np.argwhere(skin_mask)
    cfg = MethodConfig(method="pos", internal_window_s=plan.length_s)

    starts = window_starts(grid.n_frames, fs, plan).tolist()
    for widx, window in enumerate(grid.windows(starts, n_len)):
        window_start_s = window.start_time_s
        ref_bpm = ref_rate.rate_at(window_start_s + plan.length_s / 2.0)
        pulses = np.zeros((len(cells), n_len))
        extracted = np.zeros(len(cells), dtype=bool)
        for i, trace in enumerate(window.cell_traces(cells)):
            try:
                pulses[i] = pos(trace, cfg).samples
            except ValueError:
                continue
            extracted[i] = True
        rates = np.full(len(cells), np.nan)
        try:
            rates[extracted] = spectral_peaks(pulses[extracted], fs, DEFAULT_BAND_BPM)
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


def _bilinear(src: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bilinear samples of ``src`` at fractional rows ``y`` and columns ``x``.

    ``src`` is one (rows, cols) map or a stack of them along leading axes,
    which keep their place in the result. ``y`` and ``x`` broadcast together
    and lie within the map. Values are interpolated along x, then along y, so
    a NaN at any of the four neighbours gives NaN; each map of a stack gets
    the bits it would get alone.
    """
    # float64 first, as the products would promote it, so the in-place
    # products below keep full precision for any input dtype.
    src = np.asarray(src, dtype=np.float64)
    rows, cols = src.shape[-2:]
    flat = src.reshape(src.shape[:-2] + (rows * cols,))
    y0 = np.clip(np.floor(y).astype(int), 0, rows - 1)
    x0 = np.clip(np.floor(x).astype(int), 0, cols - 1)
    y1, x1 = np.minimum(y0 + 1, rows - 1), np.minimum(x0 + 1, cols - 1)
    fy, fx = y - y0, x - x0

    def weighted(yi, xi, weight):
        # A flat-index take along the last axis gathers several times faster
        # than fancy indexing over two axes, and far faster with a stack.
        v = np.take(flat, yi * cols + xi, axis=-1)
        v *= weight
        return v

    # In place, with the operations and their order of (v00 * (1 - fx) +
    # v01 * fx) * (1 - fy) + (...) * fy, so fewer stack-sized temporaries
    # are alive at once.
    top = weighted(y0, x0, 1 - fx)
    top += weighted(y0, x1, fx)
    bot = weighted(y1, x0, 1 - fx)
    bot += weighted(y1, x1, fx)
    top *= 1 - fy
    bot *= fy
    top += bot
    return top


def upsample_frame(frame: ErrorFrame, factor: int) -> dict[str, np.ndarray]:
    """Bilinearly interpolate cell maps up to pixel resolution.

    Maps grow by ``factor`` along each axis on a corner-aligned grid; the
    skin mask is upsampled by nearest neighbor. NaN cells spread to the
    pixels they influence, keeping undefined regions undefined.

    ``"maps"`` is the MAE and SNR maps as one (2, rows, cols) stack, and
    ``"mae"`` and ``"snr"`` are its two maps, views that share its memory.
    """
    if factor < 1:
        raise ValueError("factor must be at least 1")
    rows, cols = frame.mae_map.shape
    out_rows, out_cols = rows * factor, cols * factor
    r = (np.linspace(0.0, rows - 1.0, out_rows) if out_rows > 1 else np.zeros(1))[:, None]
    c = (np.linspace(0.0, cols - 1.0, out_cols) if out_cols > 1 else np.zeros(1))[None, :]
    cell_maps = np.stack([frame.mae_map, frame.snr_map])
    maps = np.empty((2, out_rows, out_cols))
    band_rows = max(1, _BAND_PIXELS // max(out_cols, 1))
    for top in range(0, out_rows, band_rows):
        maps[:, top : top + band_rows] = _bilinear(cell_maps, r[top : top + band_rows], c)
    return {
        "maps": maps,
        "mae": maps[0],
        "snr": maps[1],
        "mask": frame.skin_mask[np.round(r).astype(int), np.round(c).astype(int)],
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
    an undefined (NaN) source pixel, stay undefined. A (k, H, W) stack of
    maps is warped through one set of pre-images and comes back as a
    (k, out_h, out_w) stack, each map as it would be warped alone.

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
    rows, cols = src.shape[-2:]
    out = np.full(src.shape[:-2] + (out_h, out_w), np.nan)
    # A row and a column that broadcast: the same values as a meshgrid,
    # without two output-sized coordinate arrays.
    xs = np.arange(out_w, dtype=np.float64)[None, :]
    all_ys = np.arange(out_h, dtype=np.float64)[:, None]
    # Each output pixel depends on its own pre-image alone, so bands of rows
    # give the bits of the whole frame with temporaries the size of a band.
    band_rows = max(1, _BAND_PIXELS // max(out_w, 1))
    for top in range(0, out_h, band_rows):
        ys = all_ys[top : top + band_rows]
        denom = h_inv[2, 0] * xs + h_inv[2, 1] * ys + h_inv[2, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            sx = (h_inv[0, 0] * xs + h_inv[0, 1] * ys + h_inv[0, 2]) / denom
            sy = (h_inv[1, 0] * xs + h_inv[1, 1] * ys + h_inv[1, 2]) / denom
        inside = np.isfinite(sx) & np.isfinite(sy)
        inside &= (sx >= 0) & (sy >= 0) & (sx <= cols - 1) & (sy <= rows - 1)
        out[..., top : top + band_rows, :][..., inside] = _bilinear(src, sy[inside], sx[inside])
    return out


def aggregate_heatmap(
    frames: Iterable[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel mean over defined values only, plus a contribution count map.

    ``frames`` may be any iterable of equally shaped maps, or stacks of maps,
    a generator included: each is added to running sums and counts as it
    comes, so only one needs to exist at a time. The sums add the maps in
    order, the same bits as a sum of their stack along its first axis.
    Pixels defined in zero frames stay NaN rather than being zero-filled.
    """
    total = count = None
    for frame in frames:
        frame = np.asarray(frame, dtype=np.float64)
        if total is None:
            total, count = np.zeros(frame.shape), np.zeros(frame.shape, dtype=int)
        elif frame.shape != total.shape:
            raise ValueError(f"frames must share one shape: {frame.shape} after {total.shape}")
        defined = np.isfinite(frame)
        # In place, with no frame-sized temporary; a total that starts at +0.0
        # never becomes -0.0, so skipping undefined pixels adds what 0.0 would.
        np.add(total, frame, out=total, where=defined)
        count += defined
    if total is None:
        raise ValueError("need at least one frame to aggregate")
    with np.errstate(invalid="ignore"):
        mean = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    return mean, count
