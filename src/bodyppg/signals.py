"""Core 1-D signal types and conditioning primitives.

Everything downstream (pulse extraction, sensor fusion, rate estimation,
transit times) works on the Waveform type defined here: a uniformly sampled
real-valued signal carrying its sample rate and a session-clock start time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

__all__ = [
    "Waveform",
    "BandpassSpec",
    "FilterCoefficients",
    "WindowPlan",
    "design_bandpass",
    "bandpass_zero_phase",
    "z_normalize",
    "hilbert_envelope",
    "divide_by_envelope",
    "resample_linear",
    "window_starts",
    "windows",
]

# Relative floor applied to Hilbert envelopes before dividing by them, so a
# near-zero envelope sample cannot blow up the quotient.
ENVELOPE_FLOOR_FRACTION = 1e-6


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled 1-D signal.

    Sample ``i`` sits at ``start_time_s + i / sample_rate_hz`` on the shared
    session clock. Samples are stored as a read-only float64 array; all
    operations in this package return new Waveforms rather than mutating.
    """

    samples: np.ndarray
    sample_rate_hz: float
    start_time_s: float = 0.0

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must all be finite")
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        """Nominal covered time span: sample count times the sample period."""
        return self.samples.size / self.sample_rate_hz

    @property
    def end_time_s(self) -> float:
        return self.start_time_s + self.duration_s

    def times(self) -> np.ndarray:
        return self.start_time_s + np.arange(self.samples.size) / self.sample_rate_hz

    def with_samples(self, samples: np.ndarray) -> "Waveform":
        """New waveform with the same rate and start time."""
        return Waveform(samples, self.sample_rate_hz, self.start_time_s)

    def slice(self, start_index: int, stop_index: int) -> "Waveform":
        if not 0 <= start_index < stop_index <= len(self):
            raise ValueError(f"bad slice [{start_index}, {stop_index}) for length {len(self)}")
        return Waveform(
            self.samples[start_index:stop_index],
            self.sample_rate_hz,
            self.start_time_s + start_index / self.sample_rate_hz,
        )


@dataclass(frozen=True)
class BandpassSpec:
    """Butterworth band-pass description with cutoffs given in beats/min."""

    order: int
    low_bpm: float
    high_bpm: float

    def __post_init__(self):
        if int(self.order) != self.order or self.order <= 0:
            raise ValueError(f"filter order must be a positive integer, got {self.order}")
        if not 0 < self.low_bpm < self.high_bpm:
            raise ValueError(
                f"need 0 < low_bpm < high_bpm, got ({self.low_bpm}, {self.high_bpm})"
            )

    @property
    def cutoffs_hz(self) -> tuple[float, float]:
        return (self.low_bpm / 60.0, self.high_bpm / 60.0)

    def validate_for(self, sample_rate_hz: float) -> None:
        nyquist = sample_rate_hz / 2.0
        if self.cutoffs_hz[1] >= nyquist:
            raise ValueError(
                f"high cutoff {self.cutoffs_hz[1]:g} Hz must be below the Nyquist "
                f"frequency {nyquist:g} Hz"
            )


@dataclass(frozen=True)
class FilterCoefficients:
    """Digital IIR transfer-function coefficients tied to a sample rate.

    ``b`` and ``a`` are read-only, so one design can be shared by every
    caller that asks for it.
    """

    b: np.ndarray
    a: np.ndarray
    sample_rate_hz: float
    spec: BandpassSpec

    def __post_init__(self):
        for name in ("b", "a"):
            coeffs = np.array(getattr(self, name), dtype=np.float64)
            coeffs.flags.writeable = False
            object.__setattr__(self, name, coeffs)

    def poles(self) -> np.ndarray:
        return np.roots(self.a)

    def response_db(self, freqs_hz) -> np.ndarray:
        """Single-pass magnitude response in dB at the given frequencies."""
        freqs_hz = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
        w = freqs_hz / (self.sample_rate_hz / 2.0) * np.pi
        _, h = sps.freqz(self.b, self.a, worN=w)
        return 20.0 * np.log10(np.abs(h))

    @property
    def pad_length(self) -> int:
        return 3 * (max(len(self.b), len(self.a)) - 1)


@dataclass(frozen=True)
class WindowPlan:
    """Sliding-window schedule in seconds. Partial tail windows are dropped."""

    length_s: float
    stride_s: float

    def __post_init__(self):
        if not self.length_s > 0:
            raise ValueError(f"window length_s must be positive, got {self.length_s}")
        if not self.stride_s > 0:
            raise ValueError(f"window stride_s must be positive, got {self.stride_s}")

    def length_samples(self, sample_rate_hz: float) -> int:
        return int(round(self.length_s * sample_rate_hz))


@functools.lru_cache(maxsize=256)
def design_bandpass(spec: BandpassSpec, sample_rate_hz: float) -> FilterCoefficients:
    """Design a digital Butterworth band-pass for the given sample rate.

    The analog Butterworth prototype is mapped through the bilinear transform
    with frequency pre-warping, so the magnitude response crosses -3 dB at
    each cutoff. Designs are cached on the exact (spec, rate) pair; the
    coefficients are read-only, so sharing them is safe.

    Raises:
        ValueError: if the high cutoff reaches the Nyquist frequency.
    """
    spec.validate_for(sample_rate_hz)
    b, a = sps.butter(spec.order, list(spec.cutoffs_hz), btype="bandpass", fs=sample_rate_hz)
    return FilterCoefficients(b=b, a=a, sample_rate_hz=sample_rate_hz, spec=spec)


def bandpass_zero_phase(w: Waveform, coeffs: FilterCoefficients) -> Waveform:
    """Forward-backward filter a waveform, leaving zero net phase shift.

    Edges are padded with an odd-symmetric reflection three times the realized
    filter order long, then trimmed, so transients stay confined near the ends.

    Raises:
        ValueError: if the signal is too short for the edge padding, or the
            coefficients were designed for a different sample rate.
    """
    if abs(coeffs.sample_rate_hz - w.sample_rate_hz) > 1e-9 * coeffs.sample_rate_hz:
        raise ValueError(
            f"filter designed for {coeffs.sample_rate_hz:g} Hz, waveform is "
            f"{w.sample_rate_hz:g} Hz"
        )
    padlen = coeffs.pad_length
    if len(w) <= padlen:
        raise ValueError(f"signal length {len(w)} too short; need more than {padlen} samples")
    filtered = sps.filtfilt(coeffs.b, coeffs.a, w.samples, padtype="odd", padlen=padlen)
    return w.with_samples(filtered)


def z_normalize(w: Waveform) -> Waveform:
    """Shift and scale to zero mean and unit (population) standard deviation.

    Raises:
        ValueError: on fewer than two samples or zero variance; the caller
            decides whether to drop the offending window.
    """
    if len(w) < 2:
        raise ValueError("z-normalization needs at least two samples")
    std = float(np.std(w.samples))
    if std == 0.0:
        raise ValueError("z-normalization undefined for a zero-variance signal")
    return w.with_samples((w.samples - np.mean(w.samples)) / std)


def hilbert_envelope(w: Waveform) -> Waveform:
    """Instantaneous amplitude: magnitude of the FFT-based analytic signal.

    Negative frequencies are zeroed and positive ones doubled over the full
    signal length, so for a pure in-band tone the envelope is flat away from
    the edges.
    """
    if len(w) < 8:
        raise ValueError("hilbert envelope needs at least 8 samples")
    analytic = sps.hilbert(w.samples)
    return w.with_samples(np.abs(analytic))


def divide_by_envelope(w: Waveform) -> Waveform:
    """Divide a waveform by its Hilbert envelope, flattening its amplitude.

    The envelope is floored at ``ENVELOPE_FLOOR_FRACTION`` times its median so
    near-zero stretches cannot explode the quotient.
    """
    env = hilbert_envelope(w).samples
    floor = ENVELOPE_FLOOR_FRACTION * float(np.median(env))
    return w.with_samples(w.samples / np.maximum(env, max(floor, np.finfo(float).tiny)))


def resample_linear(w: Waveform, new_rate_hz: float) -> Waveform:
    """Linearly interpolate onto a uniform grid at a new rate.

    The output spans the same nominal duration (sample count / rate) and keeps
    the start time. Up to one source sample period at the tail is linearly
    extrapolated from the final segment, which keeps ramps exactly linear.
    """
    if not new_rate_hz > 0:
        raise ValueError(f"new_rate_hz must be positive, got {new_rate_hz}")
    n = len(w)
    n_new = max(1, int(round(n * new_rate_hz / w.sample_rate_hz)))
    t_old = np.arange(n) / w.sample_rate_hz
    t_new = np.arange(n_new) / new_rate_hz
    out = np.interp(t_new, t_old, w.samples)
    if n >= 2:
        beyond = t_new > t_old[-1]
        if np.any(beyond):
            slope = (w.samples[-1] - w.samples[-2]) * w.sample_rate_hz
            out[beyond] = w.samples[-1] + slope * (t_new[beyond] - t_old[-1])
    return Waveform(out, new_rate_hz, w.start_time_s)


def window_starts(n: int, sample_rate_hz: float, plan: WindowPlan) -> np.ndarray:
    """Start indices of the sliding windows over ``n`` samples.

    Window k starts at sample ``round(k * step)`` (half to even), where
    ``step = stride_s * sample_rate_hz``, and holds
    ``plan.length_samples(sample_rate_hz)`` samples; a window that would run
    past sample ``n`` ends the schedule, so fewer than one window's worth of
    samples yields no starts.

    Raises:
        ValueError: if the window holds no samples at this rate.
    """
    n_len = plan.length_samples(sample_rate_hz)
    if n_len < 1:
        raise ValueError(f"window of {plan.length_s} s is empty at {sample_rate_hz} Hz")
    step = plan.stride_s * sample_rate_hz
    # Starts never decrease in k, so the windows that fit are a prefix of any
    # range of k reaching one past the last start at or below n - n_len.
    k_max = int(np.floor((n - n_len + 0.5) / step)) + 2 if n >= n_len else 0
    starts = np.rint(np.arange(k_max) * step).astype(np.int64)
    return starts[starts <= n - n_len]


def windows(w: Waveform, plan: WindowPlan) -> list[tuple[int, Waveform]]:
    """Enumerate sliding windows as (start_index, waveform) pairs.

    Starts follow :func:`window_starts`; each window holds exactly
    ``round(length_s * sample_rate_hz)`` samples and windows that would run
    past the end of the signal are dropped, so a signal shorter than the
    window yields an empty list.
    """
    n_len = plan.length_samples(w.sample_rate_hz)
    return [
        (start, w.slice(start, start + n_len))
        for start in window_starts(len(w), w.sample_rate_hz, plan).tolist()
    ]
