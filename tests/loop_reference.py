"""Slow per-window, per-cell and per-channel loops that the batched paths replace.

Each function is the loop form of a batched computation in ``bodyppg``, kept
as the oracle for tests that require the batched results to be exactly equal.
The rPPG functions are the per-segment loop with ``np.std`` and ``np.mean``
that ``bodyppg.rppg`` ran before it took a one-segment shortcut and did those
operations itself. ``write_csv`` formats every value with Python's ``%``, the
writer that ``bodyppg.session.write_csv`` replaced with digit tables.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sps

from bodyppg.fusion import (
    FUSION_FILTER_ORDER,
    MIN_LOW_CUTOFF_BPM,
    FusionDiagnostics,
    _crop_to_common_span,
)
from bodyppg.grid import SKIN_FRACTION_THRESHOLD, ErrorFrame, SubregionGrid, _bilinear
from bodyppg.metrics import NOISE_BAND_BPM, SNR_CAP_DB
from bodyppg.pulse_rate import _fft_length
from bodyppg.rppg import _NUMERICAL_FLOOR, DEFAULT_POST_FILTER, MethodConfig, RGBTrace
from bodyppg.signals import (
    Waveform,
    WindowPlan,
    bandpass_zero_phase,
    design_bandpass,
    divide_by_envelope,
)


def _chrom_segment(cn: np.ndarray) -> np.ndarray:
    """CHROM combination of one mean-normalized segment, by np.std and np.mean."""
    x = 3.0 * cn[:, 0] - 2.0 * cn[:, 1]
    y = 1.5 * cn[:, 0] + cn[:, 1] - 1.5 * cn[:, 2]
    sy = np.std(y)
    if sy <= _NUMERICAL_FLOOR:
        return np.zeros(cn.shape[0])
    s = (np.std(x) / sy) * y - x
    ss = np.std(s)
    if ss <= _NUMERICAL_FLOOR:
        return np.zeros(cn.shape[0])
    return (s - np.mean(s)) / ss


def _pos_segment(cn: np.ndarray) -> np.ndarray:
    """POS combination of one mean-normalized segment, by np.std and np.mean."""
    s1 = cn[:, 1] - cn[:, 2]
    s2 = cn[:, 1] + cn[:, 2] - 2.0 * cn[:, 0]
    sd2 = np.std(s2)
    if sd2 <= _NUMERICAL_FLOOR:
        return np.zeros(cn.shape[0])
    h = s1 + (np.std(s1) / sd2) * s2
    if np.std(h) <= _NUMERICAL_FLOOR:
        return np.zeros(cn.shape[0])
    return h - np.mean(h)


def _overlap_add(trace: RGBTrace, cfg: MethodConfig, combine) -> np.ndarray:
    """Overlap-add over segments, one loop step per segment, the single
    segment included."""
    values = trace.channel_matrix()
    n = values.shape[0]
    fs = trace.sample_rate_hz
    if trace.duration_s < cfg.internal_window_s - 1e-9:
        raise ValueError(
            f"trace of {trace.duration_s:g} s is shorter than the "
            f"{cfg.internal_window_s:g} s segment"
        )
    seg_len = min(int(round(cfg.internal_window_s * fs)), n)
    hop = max(1, seg_len // 2)
    starts = list(range(0, n - seg_len + 1, hop))
    if starts[-1] + seg_len < n:
        starts.append(n - seg_len)

    taper = np.hanning(seg_len) if len(starts) > 1 else np.ones(seg_len)
    out = np.zeros(n)
    weight = np.zeros(n)
    for s in starts:
        seg = values[s : s + seg_len]
        means = seg.mean(axis=0)
        if np.any(means <= 0.0):
            raise ValueError(
                f"zero channel mean in segment starting at sample {s} "
                f"(t={trace.start_time_s + s / fs:.3f} s)"
            )
        piece = combine(seg / means)
        out[s : s + seg_len] += taper * piece
        weight[s : s + seg_len] += taper
    return out / np.maximum(weight, 1e-12)


def _finish(trace: RGBTrace, raw: np.ndarray) -> Waveform:
    """Band-pass through waveforms, then z-normalize by np.std and np.mean."""
    coeffs = design_bandpass(DEFAULT_POST_FILTER, trace.sample_rate_hz)
    filtered = bandpass_zero_phase(
        Waveform(raw, trace.sample_rate_hz, trace.start_time_s), coeffs
    )
    std = float(np.std(filtered.samples))
    if std == 0.0:
        return filtered
    return filtered.with_samples((filtered.samples - np.mean(filtered.samples)) / std)


def extract_pulse(trace: RGBTrace, cfg: MethodConfig) -> Waveform:
    """CHROM or POS by the per-segment loop and np.std."""
    combine = _chrom_segment if cfg.method == "chrom" else _pos_segment
    return _finish(trace, _overlap_add(trace, cfg, combine))


def window_peak_rate(x: np.ndarray, sample_rate_hz: float, band) -> float:
    """Spectral-peak rate of one window; NaN for an all-zero window."""
    x = x - np.mean(x)
    if not np.any(x):
        return np.nan
    nfft = _fft_length(x.size, sample_rate_hz)
    mag = np.abs(np.fft.rfft(x * np.hanning(x.size), nfft))
    bpm = np.arange(mag.size) * (60.0 * sample_rate_hz / nfft)
    idx = np.flatnonzero((bpm >= band[0]) & (bpm <= band[1]))
    if idx.size < 2:
        raise ValueError(f"band {band} covers fewer than two spectrum bins")
    return float(bpm[idx[np.argmax(mag[idx])]])


def window_snr(x: np.ndarray, sample_rate_hz: float, rate: float, half_band_bpm=6.0) -> float:
    """Harmonic SNR in dB of one window against one reference rate."""
    f_bpm = np.fft.rfftfreq(x.size, 1.0 / sample_rate_hz) * 60.0
    support = (f_bpm >= NOISE_BAND_BPM[0] - 1e-9) & (f_bpm <= NOISE_BAND_BPM[1] + 1e-9)
    x = x - np.mean(x)
    power = np.abs(np.fft.rfft(x * np.hanning(x.size))) ** 2
    sig = (np.abs(f_bpm - rate) <= half_band_bpm + 1e-9) | (
        np.abs(f_bpm - 2.0 * rate) <= half_band_bpm + 1e-9
    )
    signal_power = float(np.sum(power[sig]))
    noise_power = float(np.sum(power[support & ~sig]))
    if signal_power <= 0.0:
        return -SNR_CAP_DB
    if noise_power <= 0.0:
        return SNR_CAP_DB
    return float(np.clip(10.0 * np.log10(signal_power / noise_power), -SNR_CAP_DB, SNR_CAP_DB))


def window_starts(n: int, sample_rate_hz: float, plan: WindowPlan) -> list[int]:
    """Window starts as the enumeration loop of ``windows`` produced them."""
    n_len = plan.length_samples(sample_rate_hz)
    step = plan.stride_s * sample_rate_hz
    starts, k = [], 0
    while True:
        start = int(round(k * step))
        if start + n_len > n:
            return starts
        starts.append(start)
        k += 1


def cell_trace(grid: SubregionGrid, row: int, col: int) -> RGBTrace:
    """RGB trace of one cell over all of the grid's frames, each channel
    copied out of the strided values into a checked Waveform of its own."""
    rgb = grid.values[:, row, col, :]
    return RGBTrace(
        Waveform(rgb[:, 0], grid.sample_rate_hz, grid.start_time_s),
        Waveform(rgb[:, 1], grid.sample_rate_hz, grid.start_time_s),
        Waveform(rgb[:, 2], grid.sample_rate_hz, grid.start_time_s),
        roi_label=f"cell-{row}-{col}",
    )


def score_grid(grid, ref_rate, plan=None, band_bpm=(40.0, 180.0)) -> list[ErrorFrame]:
    """Per-cell, per-window grid scoring."""
    if plan is None:
        plan = WindowPlan(10.0, 10.0)
    fs = grid.sample_rate_hz
    n_len = plan.length_samples(fs)
    skin_mask = grid.skin_fraction >= SKIN_FRACTION_THRESHOLD
    cfg = MethodConfig(method="pos", internal_window_s=plan.length_s)
    nyquist_bpm = fs / 2.0 * 60.0
    frames = []
    for widx, start in enumerate(window_starts(grid.n_frames, fs, plan)):
        mae_map = np.full((grid.rows, grid.cols), np.nan)
        snr_map = np.full((grid.rows, grid.cols), np.nan)
        window_start_s = grid.start_time_s + start / fs
        ref_bpm = ref_rate.rate_at(window_start_s + plan.length_s / 2.0)
        for row in range(grid.rows):
            for col in range(grid.cols):
                if not skin_mask[row, col]:
                    continue
                trace = cell_trace(grid, row, col).slice(start, start + n_len)
                try:
                    pulse = extract_pulse(trace, cfg)
                    if not 0 < band_bpm[0] < band_bpm[1] < nyquist_bpm:
                        raise ValueError("band outside (0, Nyquist)")
                    rate = window_peak_rate(pulse.samples, fs, band_bpm)
                except ValueError:
                    continue
                if np.isnan(rate):
                    continue
                mae_map[row, col] = abs(rate - ref_bpm)
                snr_map[row, col] = window_snr(pulse.samples, fs, ref_bpm)
        frames.append(ErrorFrame(widx, window_start_s, mae_map, snr_map, skin_mask.copy()))
    return frames


def _fuse(bank, plan, filter_window) -> tuple[Waveform, FusionDiagnostics]:
    """Fusion loop over windows; ``filter_window(b, a, padlen, z_by_site)``
    turns one window's z-scored live channels into its filtered sum."""
    channels = _crop_to_common_span(bank)
    first = channels[0][1]
    fs, n = first.sample_rate_hz, len(first)
    ox = np.interp(first.times(), bank.oximeter_rate.times_s, bank.oximeter_rate.rates_bpm)
    diags = FusionDiagnostics()
    accum, counts = np.zeros(n), np.zeros(n)
    starts = window_starts(n, fs, plan)
    diags.n_windows = len(starts)
    n_len = plan.length_samples(fs)
    nyquist_bpm = fs / 2.0 * 60.0
    for start in starts:
        center = start + n_len // 2
        y_bpm = float(ox[min(center, n - 1)])
        low = max(y_bpm - bank.delta_y_bpm, MIN_LOW_CUTOFF_BPM)
        high = min(y_bpm + bank.delta_y_bpm, 0.99 * nyquist_bpm)
        b, a = sps.butter(FUSION_FILTER_ORDER, [low / 60.0, high / 60.0], btype="bandpass", fs=fs)
        z_by_site = {}
        for site, wave in channels:
            seg = wave.samples[start : start + n_len]
            std = float(np.std(seg))
            if std == 0.0:
                skipped = diags.skipped_channel_windows
                skipped[site] = skipped.get(site, 0) + 1
                continue
            z_by_site[site] = (seg - np.mean(seg)) / std
        if z_by_site:
            accum[start : start + n_len] += filter_window(b, a, 3 * (len(a) - 1), z_by_site)
        else:
            diags.empty_window_times_s.append(first.start_time_s + center / fs)
        counts[start : start + n_len] += 1.0
    combined = Waveform(accum / np.maximum(counts, 1.0), fs, first.start_time_s)
    return divide_by_envelope(combined), diags


def fuse_ground_truth_report(bank, plan) -> tuple[Waveform, FusionDiagnostics]:
    """Fusion that adds each window's z-scored channels in site order and
    makes one filtfilt call on the sum."""

    def filter_sum(b, a, padlen, z_by_site):
        z_sum = np.zeros_like(next(iter(z_by_site.values())))
        for site in sorted(z_by_site):
            z_sum += z_by_site[site]
        return sps.filtfilt(b, a, z_sum, padtype="odd", padlen=padlen)

    return _fuse(bank, plan, filter_sum)


def fuse_ground_truth_report_per_channel(bank, plan) -> tuple[Waveform, FusionDiagnostics]:
    """Fusion with one filtfilt per channel and window, the filtered channels
    added in bank order: the definition before filtering moved after the sum."""

    def sum_filtered(b, a, padlen, z_by_site):
        out = np.zeros_like(next(iter(z_by_site.values())))
        for z in z_by_site.values():
            out += sps.filtfilt(b, a, z, padtype="odd", padlen=padlen)
        return out

    return _fuse(bank, plan, sum_filtered)


def ptt_window_rows(matrix) -> np.ndarray:
    """``ptt_windows.csv`` rows by the window x site a x site b loop."""
    rows = []
    n_sites = len(matrix.sites)
    for widx in range(matrix.per_window_lag_s.shape[0]):
        for i in range(n_sites):
            for j in range(i + 1, n_sites):
                lag = matrix.per_window_lag_s[widx, i, j]
                if np.isfinite(lag):
                    rows.append((matrix.window_times_s[widx], i, j, lag * 1000.0))
    return np.asarray(rows) if rows else np.empty((0, 4))


def extract_traces(frames, fps, masks, grid_cell_px=None):
    """ROI and grid-cell means from a float64 copy of the frames, boolean-mask
    gathers and a per-cell loop."""
    pixels = np.asarray(frames).astype(np.float64)
    traces, grids = {}, {}
    for label, mask in masks.items():
        mask = np.asarray(mask, dtype=bool)
        means = pixels[:, :, mask].mean(axis=2)
        traces[label] = RGBTrace(
            Waveform(means[:, 0], fps),
            Waveform(means[:, 1], fps),
            Waveform(means[:, 2], fps),
            roi_label=label,
        )
        if grid_cell_px is not None:
            ys, xs = np.nonzero(mask)
            x0, y0 = int(xs.min()), int(ys.min())
            bw, bh = int(xs.max()) - x0 + 1, int(ys.max()) - y0 + 1
            cols, rows = bw // grid_cell_px, bh // grid_cell_px
            values = np.empty((pixels.shape[0], rows, cols, 3))
            fraction = np.empty((rows, cols))
            for row in range(rows):
                for col in range(cols):
                    y = y0 + row * grid_cell_px
                    x = x0 + col * grid_cell_px
                    cell = pixels[:, :, y : y + grid_cell_px, x : x + grid_cell_px]
                    values[:, row, col, :] = cell.mean(axis=(2, 3))
                    fraction[row, col] = mask[y : y + grid_cell_px, x : x + grid_cell_px].mean()
            grids[label] = SubregionGrid(
                values=values,
                sample_rate_hz=fps,
                start_time_s=0.0,
                origin_px=(x0, y0),
                cell_px=grid_cell_px,
                skin_fraction=fraction,
            )
    return traces, grids


def bilinear_resize(values: np.ndarray, out_rows: int, out_cols: int) -> np.ndarray:
    """Separable bilinear resize with corner alignment (factor 1 is identity)."""
    rows, cols = values.shape
    r = np.linspace(0.0, rows - 1.0, out_rows) if out_rows > 1 else np.zeros(1)
    c = np.linspace(0.0, cols - 1.0, out_cols) if out_cols > 1 else np.zeros(1)
    r0 = np.clip(np.floor(r).astype(int), 0, rows - 1)
    r1 = np.clip(r0 + 1, 0, rows - 1)
    c0 = np.clip(np.floor(c).astype(int), 0, cols - 1)
    c1 = np.clip(c0 + 1, 0, cols - 1)
    fr = (r - r0)[:, None]
    fc = (c - c0)[None, :]
    top = values[np.ix_(r0, c0)] * (1 - fc) + values[np.ix_(r0, c1)] * fc
    bot = values[np.ix_(r1, c0)] * (1 - fc) + values[np.ix_(r1, c1)] * fc
    return top * (1 - fr) + bot * fr


def upsample_frame(frame: ErrorFrame, factor: int) -> dict[str, np.ndarray]:
    """Cell maps resized one by one; the skin mask by nearest neighbour."""
    rows, cols = frame.mae_map.shape
    out_rows, out_cols = rows * factor, cols * factor
    r = np.linspace(0.0, rows - 1.0, out_rows) if out_rows > 1 else np.zeros(1)
    c = np.linspace(0.0, cols - 1.0, out_cols) if out_cols > 1 else np.zeros(1)
    nearest = frame.skin_mask[np.ix_(np.round(r).astype(int), np.round(c).astype(int))]
    return {
        "mae": bilinear_resize(frame.mae_map, out_rows, out_cols),
        "snr": bilinear_resize(frame.snr_map, out_rows, out_cols),
        "mask": nearest,
    }


def scattered_upsample_frame(frame: ErrorFrame, factor: int, band_pixels: int) -> dict:
    """The MAE and SNR maps upsampled as one stack in bands of rows of
    ``band_pixels`` output pixels, each band through ``_bilinear`` at every
    output pixel's four neighbours, without using that the grid is separable."""
    rows, cols = frame.mae_map.shape
    out_rows, out_cols = rows * factor, cols * factor
    r = (np.linspace(0.0, rows - 1.0, out_rows) if out_rows > 1 else np.zeros(1))[:, None]
    c = (np.linspace(0.0, cols - 1.0, out_cols) if out_cols > 1 else np.zeros(1))[None, :]
    cell_maps = np.stack([frame.mae_map, frame.snr_map])
    maps = np.empty((2, out_rows, out_cols))
    band_rows = max(1, band_pixels // max(out_cols, 1))
    for top in range(0, out_rows, band_rows):
        maps[:, top : top + band_rows] = _bilinear(cell_maps, r[top : top + band_rows], c)
    return {
        "maps": maps,
        "mae": maps[0],
        "snr": maps[1],
        "mask": frame.skin_mask[np.round(r).astype(int), np.round(c).astype(int)],
    }


def warp_error_frame(pixel_map: np.ndarray, h: np.ndarray, out_size) -> np.ndarray:
    """Inverse-mapped warp with the four corner weights summed in one expression."""
    h_inv = np.linalg.inv(np.asarray(h, dtype=np.float64))
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
        np.isfinite(sx) & np.isfinite(sy)
        & (sx >= 0) & (sy >= 0) & (sx <= cols - 1) & (sy <= rows - 1)
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
    out[inside] = (
        src[y0, x0] * (1 - fx) * (1 - fy)
        + src[y0, x1] * fx * (1 - fy)
        + src[y1, x0] * (1 - fx) * fy
        + src[y1, x1] * fx * fy
    )
    return out


def whole_frame_warp_error_frame(pixel_map: np.ndarray, h: np.ndarray, out_size) -> np.ndarray:
    """The warp over the whole output at once: the pre-images of every output
    pixel, then one bilinear sample of every map at those inside the source."""
    h_inv = np.linalg.inv(np.asarray(h, dtype=np.float64))
    out_w, out_h = out_size
    src = np.asarray(pixel_map, dtype=np.float64)
    rows, cols = src.shape[-2:]
    xs = np.arange(out_w, dtype=np.float64)[None, :]
    ys = np.arange(out_h, dtype=np.float64)[:, None]
    denom = h_inv[2, 0] * xs + h_inv[2, 1] * ys + h_inv[2, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        sx = (h_inv[0, 0] * xs + h_inv[0, 1] * ys + h_inv[0, 2]) / denom
        sy = (h_inv[1, 0] * xs + h_inv[1, 1] * ys + h_inv[1, 2]) / denom
    out = np.full(src.shape[:-2] + (out_h, out_w), np.nan)
    inside = np.isfinite(sx) & np.isfinite(sy)
    inside &= (sx >= 0) & (sy >= 0) & (sx <= cols - 1) & (sy <= rows - 1)
    out[..., inside] = _bilinear(src, sy[inside], sx[inside])
    return out


def write_csv(path, columns: list, header: str = "") -> None:
    """Columns (1-D arrays, or 2-D blocks of columns) side by side as CSV,
    ``%d`` for integer columns and ``%.12g`` for the others: each block of
    1,024 rows is stacked and formatted by one ``%`` over its values."""
    columns = [np.asarray(c) for c in columns]
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"{path}: columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    fmts = []
    for c in columns:
        fmt = "%d" if np.issubdtype(c.dtype, np.integer) else "%.12g"
        fmts += [fmt] * (c.shape[1] if c.ndim == 2 else 1)
    row_fmt = ",".join(fmts) + "\n"
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for i in range(0, n_rows, 1024):
            block = np.column_stack([c[i : i + 1024] for c in columns])
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))
