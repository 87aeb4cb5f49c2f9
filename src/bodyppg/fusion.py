"""Fusion of multiple contact-PPG channels into one robust reference pulse.

Individual body-site sensors pick up motion noise at different times, but the
pulse is usually clean somewhere. In each sliding window the channels are
z-normalized and summed in site-name order, and the sum is band-passed once
around the fingertip oximeter's rate estimate; overlapping window outputs are
averaged per sample and the result is flattened by its Hilbert envelope.
Filtering is linear, so this is the sum of the filtered channels up to
rounding: on a 300 s, 9-channel session the two differ by at most 1.5e-9 in
the unit-amplitude output. Every window's filter is designed in one batch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .pulse_rate import (
    DEFAULT_BAND_BPM,
    DEFAULT_RATE_PLAN,
    DEFAULT_WINDOW_LENGTH_S,
    PulseRateSeries,
    stft_pulse_rate,
)
from .signals import (
    Waveform,
    WindowPlan,
    design_bandpasses,
    deviations,
    divide_by_envelope,
    windows,
)
# Not called here: fusion designs every window's filter with
# design_bandpasses. The name stays importable from this module because
# perfbench's tracer wraps it here.
from .signals import design_bandpass  # noqa: F401

__all__ = [
    "SensorBank",
    "channel_conflict",
    "FusionDiagnostics",
    "fuse_ground_truth_report",
    "reference_pulse_rate",
    "FUSION_FILTER_ORDER",
    "DELTA_Y_BPM_DEFAULT",
    "DEFAULT_FUSION_PLAN",
]

logger = logging.getLogger(__name__)

FUSION_FILTER_ORDER = 2
DELTA_Y_BPM_DEFAULT = 30.0
MIN_LOW_CUTOFF_BPM = 20.0
OXIMETER_BAND_BPM = (30.0, 240.0)

# Stride below is a tractable stand-in for a one-sample stride: every output
# sample is still the average of all windows covering it, and on synthetic
# banks the fused signal differs from the one-sample-stride result by well
# under 1e-3 RMS while costing orders of magnitude less filtering.
DEFAULT_FUSION_PLAN = WindowPlan(length_s=DEFAULT_WINDOW_LENGTH_S, stride_s=0.25)


def channel_conflict(
    channels: tuple[tuple[str, Waveform], ...]
) -> tuple[str, str, str] | None:
    """Two sites whose channels cannot share a sensor bank, and why, or None.

    The channels must share the first channel's sample rate, and their time
    spans must overlap; the latest start must come before the earliest end.
    """
    first, first_wave = channels[0]
    fs = first_wave.sample_rate_hz
    for site, wave in channels:
        if abs(wave.sample_rate_hz - fs) > 1e-9 * fs:
            return first, site, (
                f"channels {first!r} and {site!r} differ in sample rate: "
                f"{fs:.9g} Hz and {wave.sample_rate_hz:.9g} Hz"
            )
    late, late_wave = max(channels, key=lambda channel: channel[1].start_time_s)
    early, early_wave = min(channels, key=lambda channel: channel[1].end_time_s)
    if early_wave.end_time_s <= late_wave.start_time_s:
        return late, early, (
            f"channel time spans do not overlap: {late!r} starts at "
            f"{late_wave.start_time_s:.9g} s, {early!r} ends at {early_wave.end_time_s:.9g} s"
        )
    return None


@dataclass(frozen=True)
class SensorBank:
    """Contact-PPG channels plus the oximeter rate series that guides filtering."""

    channels: tuple[tuple[str, Waveform], ...]
    oximeter_rate: PulseRateSeries
    delta_y_bpm: float = DELTA_Y_BPM_DEFAULT

    def __post_init__(self):
        channels = tuple(self.channels)
        if not channels:
            raise ValueError("sensor bank needs at least one channel")
        seen = set()
        for site, _ in channels:
            if site in seen:
                raise ValueError(f"site {site!r} appears more than once in the sensor bank")
            seen.add(site)
        conflict = channel_conflict(channels)
        if conflict is not None:
            raise ValueError(conflict[2])
        if len(self.oximeter_rate) == 0:
            raise ValueError("oximeter rate series is empty")
        rates = self.oximeter_rate.rates_bpm
        if rates.min() < OXIMETER_BAND_BPM[0] or rates.max() > OXIMETER_BAND_BPM[1]:
            raise ValueError(f"oximeter rates must lie within {OXIMETER_BAND_BPM} bpm")
        if not self.delta_y_bpm > 0:
            raise ValueError("delta_y_bpm must be positive")
        object.__setattr__(self, "channels", channels)

    @property
    def sample_rate_hz(self) -> float:
        return self.channels[0][1].sample_rate_hz


@dataclass
class FusionDiagnostics:
    """Bookkeeping for windows that contributed nothing to the fused signal."""

    n_windows: int = 0
    skipped_channel_windows: dict[str, int] = field(default_factory=dict)
    empty_window_times_s: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_windows": self.n_windows,
            "skipped_channel_windows": dict(sorted(self.skipped_channel_windows.items())),
            "empty_window_times_s": list(self.empty_window_times_s),
        }


def _crop_to_common_span(bank: SensorBank) -> list[tuple[str, Waveform]]:
    start = max(wave.start_time_s for _, wave in bank.channels)
    end = min(wave.end_time_s for _, wave in bank.channels)
    out = []
    for site, wave in bank.channels:
        i0 = int(round((start - wave.start_time_s) * wave.sample_rate_hz))
        i1 = int(round((end - wave.start_time_s) * wave.sample_rate_hz))
        out.append((site, wave.slice(i0, min(i1, len(wave)))))
    n = min(len(wave) for _, wave in out)
    return [(site, wave if len(wave) == n else wave.slice(0, n)) for site, wave in out]


def _warn_if_oximeter_short(ox_times: np.ndarray, sensors: Waveform) -> None:
    """Warn when the oximeter misses part of the sensors' common span.

    Beyond its first and last sample the interpolated oximeter rate is held
    constant. A gap of up to one oximeter sample interval at either end is
    how a sampled stream ends; anything longer means the stream is short.
    """
    interval = float(np.median(np.diff(ox_times))) if ox_times.size > 1 else 0.0
    last_sample_s = sensors.start_time_s + (len(sensors) - 1) / sensors.sample_rate_hz
    if ox_times[0] - sensors.start_time_s > interval or last_sample_s - ox_times[-1] > interval:
        logger.warning(
            "oximeter stream covers %.3f-%.3f s, less than the sensors' common span "
            "%.3f-%.3f s; its end rates are held constant outside its span",
            ox_times[0], ox_times[-1], sensors.start_time_s, sensors.end_time_s,
        )


def fuse_ground_truth_report(
    bank: SensorBank, plan: WindowPlan | None = None
) -> tuple[Waveform, FusionDiagnostics]:
    """Fuse a sensor bank and also return skipped-window diagnostics.

    Per window the oximeter rate Y at the window center sets a pass band of
    [Y - delta, Y + delta] bpm (low edge clamped to stay usable). The
    channels are z-normalized and added in site-name order, and the sum is
    band-passed once with a 2nd-order zero-phase Butterworth: the filter is
    linear, so this equals summing filtered channels up to rounding (about
    1e-9 on a 9-channel bank), and the bank's channel order does not matter.
    Zero-variance channel windows are skipped; windows where every channel was
    skipped emit zeros and are flagged. Overlapping windows are averaged per
    sample and the combined waveform is divided by its Hilbert envelope, so
    the output rides at roughly unit amplitude. Streams shorter than one
    window are a ValueError.
    """
    if plan is None:
        plan = DEFAULT_FUSION_PLAN
    channels = sorted(_crop_to_common_span(bank), key=lambda channel: channel[0])
    first = channels[0][1]
    fs = first.sample_rate_hz
    n = len(first)
    _warn_if_oximeter_short(bank.oximeter_rate.times_s, first)

    diags = FusionDiagnostics()
    spans = windows(first, plan)
    if not spans:
        raise ValueError(f"sensor streams of {first.duration_s:g} s are shorter than one "
                         f"{plan.length_s:g} s window")
    diags.n_windows = len(spans)
    n_len = plan.length_samples(fs)
    starts = np.array([start for start, _ in spans], dtype=np.int64)
    # Each window's band centres on the oximeter rate, interpolated at the
    # sensor sample nearest the window centre.
    centers = starts + n_len // 2
    center_times = first.start_time_s + np.minimum(centers, n - 1) / fs
    y_bpm = np.interp(center_times, bank.oximeter_rate.times_s, bank.oximeter_rate.rates_bpm)
    designs = design_bandpasses(
        FUSION_FILTER_ORDER,
        np.maximum(y_bpm - bank.delta_y_bpm, MIN_LOW_CUTOFF_BPM),
        np.minimum(y_bpm + bank.delta_y_bpm, 0.99 * (fs / 2.0 * 60.0)),
        fs,
    )

    accum = np.zeros(n)
    skipped = np.zeros(len(channels), dtype=np.int64)
    for start, center, coeffs in zip(starts.tolist(), centers.tolist(), designs):
        dev, std = deviations(np.stack([w.samples[start : start + n_len] for _, w in channels]))
        live = std != 0.0
        skipped += ~live
        if live.any():
            # Summing over the outer axis adds the rows one by one, in site order.
            z_sum = (dev[live] / std[live, None]).sum(axis=0)
            accum[start : start + n_len] += coeffs.zero_phase(z_sum)
        else:
            diags.empty_window_times_s.append(first.start_time_s + center / fs)
    diags.skipped_channel_windows = {
        site: count for (site, _), count in zip(channels, skipped.tolist()) if count
    }
    # Windows covering each sample: +1 where a window starts, -1 past its end.
    edges = np.bincount(starts, minlength=n + 1) - np.bincount(starts + n_len, minlength=n + 1)
    counts = np.cumsum(edges[:n])

    if diags.skipped_channel_windows:
        logger.info(
            "fusion skipped zero-variance channel windows: %s",
            diags.skipped_channel_windows,
        )
    if diags.empty_window_times_s:
        logger.warning(
            "fusion emitted %d all-skipped windows as zeros", len(diags.empty_window_times_s)
        )

    combined = Waveform(accum / np.maximum(counts, 1.0), fs, first.start_time_s)
    return divide_by_envelope(combined), diags


def reference_pulse_rate(fused: Waveform) -> PulseRateSeries:
    """Pulse rate of the fused reference, via the same estimator used for rPPG.

    Exists so reference and prediction are always scored through an identical
    code path and settings: ``DEFAULT_RATE_PLAN`` and ``DEFAULT_BAND_BPM``.
    """
    return stft_pulse_rate(fused, DEFAULT_RATE_PLAN, DEFAULT_BAND_BPM)
