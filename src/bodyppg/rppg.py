"""Pulse extraction from RGB skin-pixel traces: the CHROM and POS methods.

Both methods normalize each color channel by its short-segment mean, project
the normalized channels onto fixed chrominance directions, and tune the final
1-D combination by a ratio of standard deviations. Segments are recombined by
Hann-weighted overlap-add, band-passed, and z-normalized; only relative
waveform morphology matters downstream.

A segment as long as the trace (how grid scoring runs, once per cell and
window) skips the overlap-add bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import BandpassSpec, Waveform, design_bandpass, deviations

__all__ = ["RGBTrace", "MethodConfig", "chrom", "pos", "extract_pulse", "DEFAULT_POST_FILTER"]

DEFAULT_POST_FILTER = BandpassSpec(order=4, low_bpm=40.0, high_bpm=180.0)
DEFAULT_INTERNAL_WINDOW_S = 1.6

# Projection spreads at or below this are cancellation residue of the
# mean-normalized channels (which sit at 1 +- modulation), not signal; real
# pulsatile modulation is orders of magnitude above it. Treating such
# segments as zero keeps achromatic inputs from being renormalized into
# unit-variance numerical noise.
_NUMERICAL_FLOOR = 1e-10


@dataclass(frozen=True)
class RGBTrace:
    """Spatially averaged R, G, B intensities for one region of interest."""

    r: Waveform
    g: Waveform
    b: Waveform
    roi_label: str = ""

    def __post_init__(self):
        ref = self.r
        for name, ch in (("g", self.g), ("b", self.b)):
            if len(ch) != len(ref) or ch.sample_rate_hz != ref.sample_rate_hz:
                raise ValueError(f"channel {name} does not match r in length or rate")
            if abs(ch.start_time_s - ref.start_time_s) > 1e-9:
                raise ValueError(f"channel {name} does not share r's start time")
        for name, ch in (("r", self.r), ("g", self.g), ("b", self.b)):
            if ch.samples.min() < 0:
                raise ValueError(f"channel {name} has negative intensities")

    @classmethod
    def of_rows(cls, rows: np.ndarray, sample_rate_hz: float, start_time_s: float,
                roi_label: str) -> "RGBTrace":
        """The trace whose R, G and B channels are the three rows of ``rows``,
        a read-only (3, n) float64 array, as views that are neither copied
        nor checked, the way :meth:`Waveform.slice` makes one: the caller has
        found every value finite and non-negative."""
        trace = object.__new__(cls)
        for name, row in zip("rgb", rows):
            object.__setattr__(trace, name, Waveform._view(row, sample_rate_hz, start_time_s))
        object.__setattr__(trace, "roi_label", roi_label)
        return trace

    def __len__(self) -> int:
        return len(self.r)

    @property
    def sample_rate_hz(self) -> float:
        return self.r.sample_rate_hz

    @property
    def start_time_s(self) -> float:
        return self.r.start_time_s

    @property
    def duration_s(self) -> float:
        return self.r.duration_s

    def channel_matrix(self) -> np.ndarray:
        """Channels stacked as an (n_samples, 3) array in R, G, B order."""
        return np.column_stack([self.r.samples, self.g.samples, self.b.samples])

    def slice(self, start_index: int, stop_index: int) -> "RGBTrace":
        return RGBTrace(
            self.r.slice(start_index, stop_index),
            self.g.slice(start_index, stop_index),
            self.b.slice(start_index, stop_index),
            self.roi_label,
        )


@dataclass(frozen=True)
class MethodConfig:
    """Extraction settings shared by both color-transformation methods.

    ``internal_window_s`` is the overlap-add segment length; a value at least
    as long as the trace collapses processing to a single segment, which is
    how per-window grid scoring runs. Both methods band-pass their output
    with ``DEFAULT_POST_FILTER``.
    """

    method: str = "pos"
    internal_window_s: float = DEFAULT_INTERNAL_WINDOW_S

    def __post_init__(self):
        if self.method not in ("chrom", "pos"):
            raise ValueError(f"unknown method {self.method!r}; expected 'chrom' or 'pos'")
        if self.internal_window_s < 0.5:
            raise ValueError("internal_window_s must be at least 0.5 s")


def _chrom_segment(cn: np.ndarray) -> np.ndarray:
    """CHROM combination of one mean-normalized (3, samples) segment, z-normalized.

    X and Y are the standard chrominance projections. The combined signal is
    oriented so that it rises with the pulse for green-dominant pulsatility,
    matching the sign of contact-PPG style references.
    """
    x = 3.0 * cn[0] - 2.0 * cn[1]
    y = 1.5 * cn[0] + cn[1] - 1.5 * cn[2]
    _, sy = deviations(y)
    if sy <= _NUMERICAL_FLOOR:
        return np.zeros(cn.shape[1])
    s = (deviations(x)[1] / sy) * y - x
    dev, ss = deviations(s)
    if ss <= _NUMERICAL_FLOOR:
        return np.zeros(cn.shape[1])
    return dev / ss


def _pos_segment(cn: np.ndarray) -> np.ndarray:
    """POS combination of one mean-normalized (3, samples) segment, mean-subtracted."""
    s1 = cn[1] - cn[2]
    s2 = cn[1] + cn[2] - 2.0 * cn[0]
    _, sd2 = deviations(s2)
    if sd2 <= _NUMERICAL_FLOOR:
        return np.zeros(cn.shape[1])
    h = s1 + (deviations(s1)[1] / sd2) * s2
    dev, sh = deviations(h)
    if sh <= _NUMERICAL_FLOOR:
        return np.zeros(cn.shape[1])
    return dev


def _overlap_add(trace: RGBTrace, cfg: MethodConfig, combine) -> np.ndarray:
    """Run a per-segment combiner over Hann-weighted 50%-overlap segments.

    Output samples are renormalized by the accumulated window weight, so edge
    regions and the single-segment case keep their amplitude.
    """
    values = np.stack((trace.r.samples, trace.g.samples, trace.b.samples))
    n = values.shape[1]
    fs = trace.sample_rate_hz
    if trace.duration_s < cfg.internal_window_s - 1e-9:
        raise ValueError(
            f"trace of {trace.duration_s:g} s is shorter than the "
            f"{cfg.internal_window_s:g} s segment"
        )
    seg_len = min(int(round(cfg.internal_window_s * fs)), n)

    def normalized(s: int) -> np.ndarray:
        seg = values[:, s : s + seg_len]
        # The running sum adds the samples in order, as the mean over the
        # first axis of a (samples, 3) matrix does, in a fraction of its time.
        means = np.add.accumulate(seg, axis=-1)[:, -1] / seg_len
        if (means <= 0.0).any():
            raise ValueError(
                f"zero channel mean in segment starting at sample {s} "
                f"(t={trace.start_time_s + s / fs:.3f} s)"
            )
        return seg / means[:, None]

    if seg_len == n:
        # One segment under unit weight: the loop below would give
        # (0 + 1 * piece) / 1, and adding 0.0 turns -0.0 into 0.0 as that does.
        return combine(normalized(0)) + 0.0
    hop = max(1, seg_len // 2)
    starts = list(range(0, n - seg_len + 1, hop))
    if starts[-1] + seg_len < n:
        starts.append(n - seg_len)

    taper = np.hanning(seg_len)
    out = np.zeros(n)
    weight = np.zeros(n)
    for s in starts:
        out[s : s + seg_len] += taper * combine(normalized(s))
        weight[s : s + seg_len] += taper
    return out / np.maximum(weight, 1e-12)


def _finish(trace: RGBTrace, raw: np.ndarray) -> Waveform:
    """Band-pass ``raw`` and z-normalize it, unless it is constant."""
    coeffs = design_bandpass(DEFAULT_POST_FILTER, trace.sample_rate_hz)
    filtered = coeffs.zero_phase(raw)
    dev, std = deviations(filtered)
    samples = filtered if std == 0.0 else dev / std
    return Waveform(samples, trace.sample_rate_hz, trace.start_time_s)


def chrom(trace: RGBTrace, cfg: MethodConfig | None = None) -> Waveform:
    """Extract a pulse waveform with the chrominance (CHROM) method.

    Equal relative modulation on all three channels cancels exactly, so
    achromatic intensity changes (lighting, shadow flicker) are rejected.

    Raises:
        ValueError: if a segment has a zero channel mean or the trace is
            shorter than one internal segment.
    """
    if cfg is None:
        cfg = MethodConfig(method="chrom")
    return _finish(trace, _overlap_add(trace, cfg, _chrom_segment))


def pos(trace: RGBTrace, cfg: MethodConfig | None = None) -> Waveform:
    """Extract a pulse waveform with the plane-orthogonal-to-skin (POS) method.

    Projects mean-normalized channels onto a plane orthogonal to the skin-tone
    direction, then tunes the two projections into one signal by their
    standard-deviation ratio. Same error behavior as :func:`chrom`.
    """
    if cfg is None:
        cfg = MethodConfig(method="pos")
    return _finish(trace, _overlap_add(trace, cfg, _pos_segment))


def extract_pulse(trace: RGBTrace, cfg: MethodConfig) -> Waveform:
    """Dispatch to :func:`chrom` or :func:`pos` based on ``cfg.method``."""
    return chrom(trace, cfg) if cfg.method == "chrom" else pos(trace, cfg)
