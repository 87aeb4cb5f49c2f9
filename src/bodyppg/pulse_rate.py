"""Pulse-rate estimation by short-time Fourier spectral-peak picking.

The spectral kernel, :func:`tapered_spectra`, transforms many equal-length
rows at once (the windows of one signal, or one window of many grid cells)
with one real FFT along the last axis per chunk of rows. Chunks hold at most
``_CHUNK_SAMPLES`` FFT input samples, a fixed budget that bounds memory.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .signals import Waveform, WindowPlan, windows

__all__ = [
    "PulseRateSeries",
    "stft_pulse_rate",
    "spectral_peak",
    "spectral_peaks",
    "tapered_spectra",
    "DEFAULT_WINDOW_LENGTH_S",
    "DEFAULT_STRIDE_S",
    "DEFAULT_BAND_BPM",
]

DEFAULT_WINDOW_LENGTH_S = 10.0
DEFAULT_STRIDE_S = 1.0
DEFAULT_BAND_BPM = (40.0, 180.0)

# Zero-padding keeps the FFT bin spacing at or below this many bpm, so peak
# quantization error stays negligible next to real-world rate errors.
MAX_BIN_SPACING_BPM = 0.5
# The spectral kernel takes rows in chunks of at most this many FFT input
# samples (one row at the least), whatever the number of rows.
_CHUNK_SAMPLES = 1 << 18


@dataclass(frozen=True)
class PulseRateSeries:
    """Timestamped pulse-rate estimates in beats per minute.

    ``times_s`` are window-center times on the session clock, strictly
    increasing. ``n_skipped`` counts windows whose rate could not be estimated
    (all-zero content); they carry no entry here and are excluded downstream.
    """

    times_s: np.ndarray
    rates_bpm: np.ndarray
    window_length_s: float
    band_bpm: tuple[float, float]
    n_skipped: int = 0

    def __post_init__(self):
        times = np.array(self.times_s, dtype=np.float64)
        rates = np.array(self.rates_bpm, dtype=np.float64)
        if times.shape != rates.shape or times.ndim != 1:
            raise ValueError("times_s and rates_bpm must be 1-D arrays of equal length")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("entry times must be strictly increasing")
        lo, hi = self.band_bpm
        if rates.size and (rates.min() < lo - 1e-9 or rates.max() > hi + 1e-9):
            raise ValueError(f"rates fall outside the stated band {self.band_bpm}")
        times.flags.writeable = False
        rates.flags.writeable = False
        object.__setattr__(self, "times_s", times)
        object.__setattr__(self, "rates_bpm", rates)

    def __len__(self) -> int:
        return self.times_s.size

    @property
    def entries(self) -> list[tuple[float, float]]:
        return list(zip(self.times_s.tolist(), self.rates_bpm.tolist()))

    def rate_at(self, time_s: float) -> float:
        """Rate of the entry nearest in time."""
        if len(self) == 0:
            raise ValueError("empty pulse-rate series")
        return float(self.rates_bpm[int(np.argmin(np.abs(self.times_s - time_s)))])


def _fft_length(n_window: int, sample_rate_hz: float) -> int:
    """Power of two giving bin spacing <= MAX_BIN_SPACING_BPM."""
    needed = max(n_window, int(np.ceil(60.0 * sample_rate_hz / MAX_BIN_SPACING_BPM)))
    return 1 << (needed - 1).bit_length()


def tapered_spectra(
    rows: np.ndarray | Sequence[np.ndarray], n_fft: int | None = None
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Magnitude spectra of mean-removed, Hann-tapered rows, chunk by chunk.

    ``rows`` is a 2-D array or a sequence of equal-length 1-D arrays; each is
    centred on its mean, multiplied by a Hann taper, zero-padded to ``n_fft``
    samples (default: the row length) and transformed with a real FFT.
    Yields ``(first_row, magnitude, nonzero)`` per chunk: the index of the
    chunk's first row, ``|rfft|`` of shape (chunk rows, n_fft // 2 + 1), and
    whether each mean-removed row has any non-zero sample.
    """
    if len(rows) == 0:
        return
    n_len = len(rows[0])
    if n_fft is None:
        n_fft = n_len
    taper = np.hanning(n_len)
    step = max(1, _CHUNK_SAMPLES // n_fft)
    for i in range(0, len(rows), step):
        chunk = np.asarray(rows[i : i + step], dtype=np.float64)
        x = chunk - chunk.mean(axis=-1, keepdims=True)
        yield i, np.abs(np.fft.rfft(x * taper, n_fft, axis=-1)), x.any(axis=-1)


def _peak_rates(
    magnitude: np.ndarray, bin_spacing_bpm: float, band: tuple[float, float]
) -> np.ndarray:
    """Rate in bpm of the strongest in-band bin of each row (lower bin on ties)."""
    bpm = np.arange(magnitude.shape[-1]) * bin_spacing_bpm
    idx = np.flatnonzero((bpm >= band[0]) & (bpm <= band[1]))
    if idx.size < 2:
        raise ValueError(f"band {band} covers fewer than two spectrum bins")
    # The band is one run of bins, because bin frequencies increase.
    return bpm[idx[0] + np.argmax(magnitude[..., idx[0] : idx[-1] + 1], axis=-1)]


def spectral_peak(
    spectrum: np.ndarray, bin_spacing_bpm: float, band: tuple[float, float]
) -> float:
    """Rate in bpm of the strongest in-band bin; ties go to the lower frequency.

    Raises:
        ValueError: if fewer than two spectrum bins fall inside the band.
    """
    spectrum = np.asarray(spectrum, dtype=np.float64)
    return float(_peak_rates(spectrum, bin_spacing_bpm, band))


def spectral_peaks(
    rows: np.ndarray | Sequence[np.ndarray],
    sample_rate_hz: float,
    band: tuple[float, float] = DEFAULT_BAND_BPM,
) -> np.ndarray:
    """Spectral-peak rate of every row, as :func:`stft_pulse_rate` takes it.

    Rows are mean-removed, Hann-tapered and zero-padded until FFT bins are at
    most 0.5 bpm apart (:func:`tapered_spectra`); each row's strongest bin
    inside ``band`` gives its rate in bpm. Rows that are all zero after mean
    removal have no rate and come out NaN.

    Raises:
        ValueError: if the band does not sit inside (0, Nyquist) or covers
            fewer than two spectrum bins.
    """
    lo, hi = band
    nyquist_bpm = sample_rate_hz / 2.0 * 60.0
    if not 0 < lo < hi < nyquist_bpm:
        raise ValueError(f"band {band} must sit inside (0, {nyquist_bpm:g}) bpm")
    rates = np.full(len(rows), np.nan)
    if len(rows) == 0:
        return rates
    n_fft = _fft_length(len(rows[0]), sample_rate_hz)
    bin_spacing_bpm = 60.0 * sample_rate_hz / n_fft
    for i, magnitude, nonzero in tapered_spectra(rows, n_fft):
        peaks = _peak_rates(magnitude, bin_spacing_bpm, band)
        rates[i : i + len(peaks)] = np.where(nonzero, peaks, np.nan)
    return rates


def stft_pulse_rate(
    w: Waveform,
    plan: WindowPlan | None = None,
    band: tuple[float, float] = DEFAULT_BAND_BPM,
) -> PulseRateSeries:
    """Track pulse rate as the dominant spectral peak per sliding window.

    Each window is mean-subtracted, Hann-tapered, and zero-padded far enough
    that FFT bins are at most 0.5 bpm apart; the in-band magnitude peak is
    reported at the window-center time. All-zero windows are skipped and
    counted in ``n_skipped``. The windows go through :func:`spectral_peaks`
    as the rows of one batch.
    """
    if plan is None:
        plan = WindowPlan(DEFAULT_WINDOW_LENGTH_S, DEFAULT_STRIDE_S)
    segs = windows(w, plan)
    rates = spectral_peaks([seg.samples for _, seg in segs], w.sample_rate_hz, band)
    found = np.isfinite(rates)
    times = [seg.start_time_s + 0.5 * plan.length_s for _, seg in segs]
    return PulseRateSeries(
        times_s=np.asarray(times)[found],
        rates_bpm=rates[found],
        window_length_s=plan.length_s,
        band_bpm=band,
        n_skipped=int(np.count_nonzero(~found)),
    )
