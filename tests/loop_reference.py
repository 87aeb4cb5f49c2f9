"""Slow per-window, per-cell and per-channel loops that the batched paths replace.

Each function is the loop form of a batched computation in ``bodyppg``, kept
as the oracle for tests that require the batched results to be exactly equal.
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
from bodyppg.grid import SKIN_FRACTION_THRESHOLD, ErrorFrame
from bodyppg.metrics import NOISE_BAND_BPM, SNR_CAP_DB
from bodyppg.pulse_rate import _fft_length
from bodyppg.rppg import MethodConfig, pos
from bodyppg.signals import BandpassSpec, Waveform, WindowPlan, design_bandpass, divide_by_envelope


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
                trace = grid.cell_trace(row, col).slice(start, start + n_len)
                try:
                    pulse = pos(trace, cfg)
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


def fuse_ground_truth_report(bank, plan) -> tuple[Waveform, FusionDiagnostics]:
    """Fusion with one z-normalization and one filtfilt per channel and window."""
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
        coeffs = design_bandpass(BandpassSpec(FUSION_FILTER_ORDER, low, high), fs)
        window_sum = np.zeros(n_len)
        any_ok = False
        for site, wave in channels:
            seg = wave.samples[start : start + n_len]
            std = float(np.std(seg))
            if std == 0.0:
                skipped = diags.skipped_channel_windows
                skipped[site] = skipped.get(site, 0) + 1
                continue
            z = (seg - np.mean(seg)) / std
            window_sum += sps.filtfilt(
                coeffs.b, coeffs.a, z, padtype="odd", padlen=coeffs.pad_length
            )
            any_ok = True
        if not any_ok:
            diags.empty_window_times_s.append(first.start_time_s + center / fs)
        accum[start : start + n_len] += window_sum
        counts[start : start + n_len] += 1.0
    combined = Waveform(accum / np.maximum(counts, 1.0), fs, first.start_time_s)
    return divide_by_envelope(combined), diags
