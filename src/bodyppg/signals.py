"""Core 1-D signal types and conditioning primitives.

Everything downstream (pulse extraction, sensor fusion, rate estimation,
transit times) works on the Waveform type defined here: a uniformly sampled
real-valued signal carrying its sample rate and a session-clock start time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft
from scipy import signal as sps

__all__ = [
    "Waveform",
    "BandpassSpec",
    "FilterCoefficients",
    "WindowPlan",
    "design_bandpass",
    "design_bandpasses",
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
        # Always a copy: a read-only view of a writeable array can still change.
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
        """Samples ``start_index`` to ``stop_index`` as a waveform that shares
        this one's read-only buffer.

        Nothing is copied or checked again: these samples were copied and
        found finite when this waveform was made. The view keeps the whole
        parent buffer alive for as long as it lives.
        """
        if not 0 <= start_index < stop_index <= len(self):
            raise ValueError(f"bad slice [{start_index}, {stop_index}) for length {len(self)}")
        view = object.__new__(Waveform)
        object.__setattr__(view, "samples", self.samples[start_index:stop_index])
        object.__setattr__(view, "sample_rate_hz", self.sample_rate_hz)
        object.__setattr__(
            view, "start_time_s", self.start_time_s + start_index / self.sample_rate_hz
        )
        return view


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

    ``zi`` is the filter's steady state under a unit step, as
    ``scipy.signal.lfilter_zi`` returns it; :func:`design_bandpasses` solves
    it for every design in one batch. ``b``, ``a`` and ``zi`` are read-only,
    so one design can be shared by every caller that asks for it.
    """

    b: np.ndarray
    a: np.ndarray
    sample_rate_hz: float
    spec: BandpassSpec
    zi: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        for name in ("b", "a", "zi"):
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

    def zero_phase(self, x) -> np.ndarray:
        """Forward-backward filter along the last axis, with zero net phase.

        Bit for bit what ``scipy.signal.filtfilt(b, a, x, padtype="odd",
        padlen=self.pad_length)`` returns: the same odd extension and the same
        two ``lfilter`` passes, each started from the stored steady state
        instead of a fresh ``lfilter_zi`` solve.

        Raises:
            ValueError: if the last axis is not longer than the padding.
        """
        x = np.asarray(x)
        n = self.pad_length
        if x.shape[-1] <= n:
            raise ValueError(f"signal length {x.shape[-1]} too short; need more than {n} samples")
        ext = np.concatenate(
            (2 * x[..., :1] - x[..., n:0:-1], x, 2 * x[..., -1:] - x[..., -2 : -(n + 2) : -1]),
            axis=-1,
        )
        y, _ = sps.lfilter(self.b, self.a, ext, zi=self.zi * ext[..., :1])
        y, _ = sps.lfilter(self.b, self.a, y[..., ::-1], zi=self.zi * y[..., -1:])
        return y[..., ::-1][..., n:-n]


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


def _poly(roots: np.ndarray) -> np.ndarray:
    """Monic polynomial with the given complex roots, made as scipy's own
    ``poly`` makes it: one ``convolve`` per root, real when the roots' imaginary
    parts are symmetric."""
    coeffs = np.ones((1,), dtype=roots.dtype)
    for root in roots:
        coeffs = np.convolve(coeffs, np.array((1.0, -root), dtype=roots.dtype), mode="full")
    if np.all(np.sort(np.imag(roots)) == np.sort(np.imag(np.conj(roots)))):
        coeffs = np.real(coeffs).copy()
    return coeffs


def _butter_bandpass(order: int, low_hz: np.ndarray, high_hz: np.ndarray, fs: float):
    """``scipy.signal.butter(order, [low, high], "bandpass", fs=fs)`` for every
    pair ``(low_hz[i], high_hz[i])``, as rows of ``b`` and ``a``.

    A transcription of scipy's chain (``buttap``, ``lp2bp_zpk``,
    ``bilinear_zpk``, ``zpk2tf``) with the same operations in the same order,
    so every row is the same bits as scipy's design, without its per-call
    array-API dispatch and checks. Elementwise steps run over all pairs at
    once. Three steps stay per design, because their batched forms round
    differently: the gain's power of the bandwidth is a Python ``float``
    power, the pole product is a 1-D ``np.prod``, and each polynomial is built
    by ``np.convolve``.
    """
    # iirfilter: normalise, then pre-warp with the bilinear transform's fs = 2.
    wn = np.stack((low_hz, high_hz), axis=-1) / (fs / 2)
    warped = 2 * 2.0 * np.tan(np.pi * wn / 2.0)
    bw = warped[:, 1] - warped[:, 0]
    wo = np.sqrt(warped[:, 0] * warped[:, 1])
    # buttap: no zeros, unit gain, poles on the left half of the unit circle.
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * order))
    # lp2bp_zpk: order zeros at the origin, each pole split in two.
    p_lp = (p * bw[:, None] / 2).astype(np.complex128)
    shift = np.sqrt(p_lp**2 - np.array([w**2 for w in wo.tolist()])[:, None])
    p_bp = np.concatenate((p_lp + shift, p_lp - shift), axis=1)
    z_bp = np.zeros(order, dtype=np.complex128)
    k_bp = [1.0 * w**order for w in bw.tolist()]
    # bilinear_zpk with fs = 2 (fs2 = 4): the zeros at infinity go to z = -1.
    z_z = np.concatenate(((4.0 + z_bp) / (4.0 - z_bp), -np.ones(order)))
    p_z = (4.0 + p_bp) / (4.0 - p_bp)
    zeros_gain = np.prod(4.0 - z_bp)
    k_z = [k * np.real(zeros_gain / np.prod(row)) for k, row in zip(k_bp, 4.0 - p_bp)]
    # zpk2tf
    b = np.multiply(np.asarray(k_z, dtype=np.float64)[:, None], _poly(z_z))
    return b, np.array([_poly(roots) for roots in p_z])


def _steady_states(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``scipy.signal.lfilter_zi(b[i], a[i])`` for every row, in one batched solve.

    Rows of ``b`` and ``a`` share one length and every ``a[i, 0]`` is 1, as
    in each Butterworth design. ``zi`` solves ``zi = A zi + B`` for the
    companion matrix ``A`` of ``a``, by the ``np.linalg.solve`` that scipy
    runs for one design.
    """
    k, m = a.shape
    companion = np.zeros((k, m - 1, m - 1))
    companion[:, 0, :] = -a[:, 1:]
    companion[:, np.arange(1, m - 1), np.arange(m - 2)] = 1.0
    i_minus_a = np.eye(m - 1) - companion.transpose(0, 2, 1)
    rhs = b[:, 1:] - a[:, 1:] * b[:, :1]
    return np.linalg.solve(i_minus_a, rhs[:, :, None])[:, :, 0]


def design_bandpasses(
    order: int, low_bpm, high_bpm, sample_rate_hz: float
) -> list[FilterCoefficients]:
    """Butterworth band-passes for paired cutoffs, designed as array work.

    Design ``i`` has cutoffs ``low_bpm[i]`` and ``high_bpm[i]`` and is bit
    for bit what ``scipy.signal.butter`` and ``scipy.signal.lfilter_zi``
    give for them, as :func:`design_bandpass` is.

    Raises:
        ValueError: for the first pair that :class:`BandpassSpec` rejects or
            whose high cutoff reaches the Nyquist frequency.
    """
    low_bpm = np.asarray(low_bpm, dtype=np.float64)
    high_bpm = np.asarray(high_bpm, dtype=np.float64)
    specs = [BandpassSpec(order, lo, hi) for lo, hi in zip(low_bpm.tolist(), high_bpm.tolist())]
    for spec in specs:
        spec.validate_for(sample_rate_hz)
    if not specs:
        return []
    fs = float(sample_rate_hz)
    b, a = _butter_bandpass(int(order), low_bpm / 60.0, high_bpm / 60.0, fs)
    zi = _steady_states(b, a)
    return [
        FilterCoefficients(b=b_i, a=a_i, zi=zi_i, sample_rate_hz=sample_rate_hz, spec=spec)
        for b_i, a_i, zi_i, spec in zip(b, a, zi, specs)
    ]


@functools.lru_cache(maxsize=256)
def design_bandpass(spec: BandpassSpec, sample_rate_hz: float) -> FilterCoefficients:
    """Design a digital Butterworth band-pass for the given sample rate.

    The analog Butterworth prototype is mapped through the bilinear transform
    with frequency pre-warping, so the magnitude response crosses -3 dB at
    each cutoff. The coefficients are bit for bit those of
    ``scipy.signal.butter``. Designs are cached on the exact (spec, rate)
    pair; the coefficients are read-only, so sharing them is safe.

    Raises:
        ValueError: if the high cutoff reaches the Nyquist frequency.
    """
    return design_bandpasses(spec.order, [spec.low_bpm], [spec.high_bpm], sample_rate_hz)[0]


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
    return w.with_samples(coeffs.zero_phase(w.samples))


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
    n = len(w)
    if n < 8:
        raise ValueError("hilbert envelope needs at least 8 samples")
    # The steps of scipy.signal.hilbert: keep DC (and Nyquist when n is
    # even), double the positive frequencies, zero the negative ones.
    spectrum = sp_fft.fft(w.samples)
    spectrum[1 : (n + 1) // 2] *= 2.0
    spectrum[n // 2 + 1 :] = 0.0
    return w.with_samples(np.abs(sp_fft.ifft(spectrum)))


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
    window yields an empty list. Each window is a :meth:`Waveform.slice`
    view of ``w``'s samples, so enumerating copies nothing.
    """
    n_len = plan.length_samples(w.sample_rate_hz)
    return [
        (start, w.slice(start, start + n_len))
        for start in window_starts(len(w), w.sample_rate_hz, plan).tolist()
    ]
