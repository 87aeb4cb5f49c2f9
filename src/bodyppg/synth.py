"""Synthetic physiological signal generation.

Deterministic generators for pulse waveforms with controllable rate profiles,
harmonic content, per-site delays, chromatic RGB modulation, and motion-noise
bursts. These serve as the independent ground truth for every analysis path
in the package: the generator knows the answer, the pipeline has to find it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import signal as sps

from .rppg import RGBTrace
from .signals import Waveform

__all__ = [
    "PulseModel",
    "constant_rate",
    "ramp_rate",
    "synth_pulse",
    "synth_rgb_trace",
    "motion_burst_noise",
    "Burst",
]

RATE_LIMITS_BPM = (40.0, 180.0)
# Motion bursts fill the pulse band, so filtering alone cannot remove them.
BURST_BAND_HZ = (0.5, 4.0)


def constant_rate(bpm: float) -> Callable[[np.ndarray], np.ndarray]:
    """Rate profile fixed at one value, defined for all times."""

    def profile(t):
        return np.full_like(np.asarray(t, dtype=np.float64), bpm)

    return profile


def ramp_rate(
    bpm_start: float, bpm_end: float, duration_s: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Linear rate ramp over [0, duration], held constant outside it."""

    def profile(t):
        t = np.asarray(t, dtype=np.float64)
        frac = np.clip(t / duration_s, 0.0, 1.0)
        return bpm_start + (bpm_end - bpm_start) * frac

    return profile


@dataclass(frozen=True)
class PulseModel:
    """Recipe for one synthetic pulse waveform.

    ``harmonics`` lists (frequency multiple, amplitude, phase) terms on top of
    the instantaneous rate; the fundamental must carry positive amplitude.
    ``delay_s`` shifts the whole waveform later in time, emulating pulse
    arrival at a more distal site. Output is reproducible per seed.
    """

    fs_hz: float
    duration_s: float
    rate_profile: Callable[[np.ndarray], np.ndarray] = field(
        default_factory=lambda: constant_rate(72.0)
    )
    harmonics: tuple[tuple[float, float, float], ...] = ((1.0, 1.0, 0.0),)
    delay_s: float = 0.0
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (self.fs_hz > 0 and self.duration_s > 0):
            raise ValueError("fs_hz and duration_s must be positive")
        fundamentals = [a for mult, a, _ in self.harmonics if mult == 1.0]
        if not fundamentals or fundamentals[0] <= 0:
            raise ValueError("harmonics must include a positive-amplitude fundamental")
        if self.delay_s < 0 or self.noise_std < 0:
            raise ValueError("delay_s and noise_std must be non-negative")


def _phase_cycles(model: PulseModel, eval_times: np.ndarray) -> np.ndarray:
    """Integrated instantaneous rate, in cycles, at the given (shifted) times.

    The integral runs from time zero, so negative evaluation times (early
    samples of a delayed signal) get a negative phase offset.
    """
    rate = np.asarray(model.rate_profile(eval_times), dtype=np.float64)
    lo, hi = RATE_LIMITS_BPM
    if rate.min() < lo - 1e-9 or rate.max() > hi + 1e-9:
        raise ValueError(f"rate profile leaves the {RATE_LIMITS_BPM} bpm range")
    phi = np.concatenate(
        [[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(eval_times))]
    )
    if eval_times[0] != 0.0:
        head = np.linspace(0.0, eval_times[0], 65)
        head_rate = np.asarray(model.rate_profile(head), dtype=np.float64)
        phi += np.trapezoid(head_rate, head)
    return phi / 60.0


def synth_pulse(model: PulseModel) -> Waveform:
    """Render a pulse waveform from its model.

    The waveform is a sum of sinusoidal harmonics of the integrated rate
    profile evaluated at ``t - delay_s``, plus white Gaussian noise drawn from
    the model's seed. Identical models produce bit-identical output.
    """
    n = int(round(model.duration_s * model.fs_hz))
    t = np.arange(n) / model.fs_hz
    phi = _phase_cycles(model, t - model.delay_s)
    out = np.zeros(n)
    for mult, amp, phase in model.harmonics:
        out += amp * np.sin(2.0 * np.pi * mult * phi + phase)
    if model.noise_std > 0:
        rng = np.random.default_rng(model.seed)
        out = out + rng.normal(0.0, model.noise_std, n)
    return Waveform(out, model.fs_hz, 0.0)


@dataclass(frozen=True)
class Burst:
    """One motion-noise burst: in-band noise over [start_s, end_s)."""

    start_s: float
    end_s: float
    amplitude: float


def motion_burst_noise(
    fs_hz: float,
    duration_s: float,
    bursts: tuple[Burst, ...] | list[Burst],
    seed: int = 0,
) -> np.ndarray:
    """Band-limited noise bursts, the way body movement corrupts a PPG channel.

    White noise is band-passed into BURST_BAND_HZ, normalized to unit
    standard deviation, scaled per burst, and gated to each burst interval
    with short cosine ramps.
    """
    n = int(round(duration_s * fs_hz))
    out = np.zeros(n)
    if not bursts:
        return out
    rng = np.random.default_rng(seed)
    b, a = sps.butter(2, list(BURST_BAND_HZ), btype="bandpass", fs=fs_hz)
    base = sps.filtfilt(b, a, rng.standard_normal(n))
    base /= max(base.std(), np.finfo(float).tiny)
    t = np.arange(n) / fs_hz
    ramp_s = 0.1
    for burst in bursts:
        gate = np.clip(
            np.minimum(t - burst.start_s, burst.end_s - t) / ramp_s, 0.0, 1.0
        )
        gate = 0.5 - 0.5 * np.cos(np.pi * gate)
        out += burst.amplitude * base * gate
    return out


def synth_rgb_trace(
    pulse: Waveform,
    baseline: tuple[float, float, float],
    modulation: tuple[float, float, float],
    noise_std: float = 0.0,
    motion_bursts: tuple[Burst, ...] | list[Burst] = (),
    seed: int = 0,
    roi_label: str = "synthetic",
) -> RGBTrace:
    """Modulate a baseline color by a pulse, channel by channel.

    Channel c follows ``baseline_c * (1 + modulation_c * pulse)`` plus
    independent sensor noise per channel and achromatic motion bursts added
    equally to all channels. Modulation depths around 0.1-1% of baseline mimic
    real skin-pixel pulsatility.
    """
    if min(baseline) <= 0:
        raise ValueError("baseline components must be positive")
    rng = np.random.default_rng(seed)
    n = len(pulse)
    burst = motion_burst_noise(pulse.sample_rate_hz, pulse.duration_s, motion_bursts, seed=seed + 1)
    channels = []
    for base, mod in zip(baseline, modulation):
        ch = base * (1.0 + mod * pulse.samples)
        if noise_std > 0:
            ch = ch + rng.normal(0.0, noise_std, n)
        channels.append(ch + burst)
    r, g, b = (
        Waveform(ch, pulse.sample_rate_hz, pulse.start_time_s) for ch in channels
    )
    return RGBTrace(r, g, b, roi_label=roi_label)
