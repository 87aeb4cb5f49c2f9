"""Pulse-rate estimation by short-time Fourier spectral-peak picking.

The spectral kernels transform many equal-length rows at once (the windows of
one signal, or one window of many grid cells), chunk by chunk, along the last
axis. :func:`tapered_spectra` gives whole zero-padded real-FFT spectra; chunks
hold at most ``_CHUNK_SAMPLES`` FFT input samples, a fixed budget that bounds
memory. :func:`spectral_peaks` reads only the bins inside the rate band,
through a Bluestein chirp-z transform (Rabiner, Schafer & Rader 1969) on a
short FFT, and sends back to :func:`tapered_spectra` the rare row whose two
strongest band bins are too close to tell apart, so its rate is the bin the
full spectrum picks.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .signals import Waveform, WindowPlan, smooth_length, windows

__all__ = [
    "PulseRateSeries",
    "stft_pulse_rate",
    "spectral_peaks",
    "tapered_spectra",
    "DEFAULT_WINDOW_LENGTH_S",
    "DEFAULT_STRIDE_S",
    "DEFAULT_BAND_BPM",
    "DEFAULT_RATE_PLAN",
]

DEFAULT_WINDOW_LENGTH_S = 10.0
DEFAULT_STRIDE_S = 1.0
DEFAULT_BAND_BPM = (40.0, 180.0)
DEFAULT_RATE_PLAN = WindowPlan(DEFAULT_WINDOW_LENGTH_S, DEFAULT_STRIDE_S)

# Zero-padding keeps the FFT bin spacing at or below this many bpm, so peak
# quantization error stays negligible next to real-world rate errors.
MAX_BIN_SPACING_BPM = 0.5
# The spectral kernels take rows in chunks of at most this many FFT input
# samples (one row at the least), whatever the number of rows.
_CHUNK_SAMPLES = 1 << 18
# A row whose two strongest band magnitudes differ by at most this fraction of
# the sum of its tapered samples' magnitudes is rated from its full spectrum.
# Either transform's magnitudes err by about 1e-16 of that sum at 90 and
# 400 Hz, so any other row has the same strongest bin in both.
_TIE_MARGIN = 1e-9


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

    def rate_at(self, time_s: float) -> float:
        """Rate of the entry nearest in time."""
        if len(self) == 0:
            raise ValueError("empty pulse-rate series")
        return float(self.rates_bpm[int(np.argmin(np.abs(self.times_s - time_s)))])


def _fft_length(n_window: int, sample_rate_hz: float) -> int:
    """Power of two giving bin spacing <= MAX_BIN_SPACING_BPM."""
    needed = max(n_window, int(np.ceil(60.0 * sample_rate_hz / MAX_BIN_SPACING_BPM)))
    return 1 << (needed - 1).bit_length()


def _tapered_rows(
    rows: np.ndarray | Sequence[np.ndarray], step: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """``(first_row, tapered, nonzero)`` per chunk of ``step`` rows: the rows
    centred on their means and multiplied by a Hann taper, and whether each
    mean-removed row has any non-zero sample."""
    taper = np.hanning(len(rows[0]))
    for i in range(0, len(rows), step):
        x = np.asarray(rows[i : i + step], dtype=np.float64)
        # Rebinding frees a chunk copied from a sequence; the taper goes on in place.
        x = x - x.mean(axis=-1, keepdims=True)
        nonzero = x.any(axis=-1)
        x *= taper
        yield i, x, nonzero


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
    if n_fft is None:
        n_fft = len(rows[0])
    for i, x, nonzero in _tapered_rows(rows, max(1, _CHUNK_SAMPLES // n_fft)):
        yield i, np.abs(np.fft.rfft(x, n_fft, axis=-1)), nonzero


def _band_bins(
    n_bins: int, bin_spacing_bpm: float, band: tuple[float, float]
) -> tuple[np.ndarray, int, int]:
    """Rates in bpm of ``n_bins`` spectrum bins, and the first and last bin
    inside ``band``."""
    bpm = np.arange(n_bins) * bin_spacing_bpm
    idx = np.flatnonzero((bpm >= band[0]) & (bpm <= band[1]))
    if idx.size < 2:
        raise ValueError(f"band {band} covers fewer than two spectrum bins")
    # The band is one run of bins, because bin frequencies increase.
    return bpm, int(idx[0]), int(idx[-1])


def _peak_rates(
    magnitude: np.ndarray, bin_spacing_bpm: float, band: tuple[float, float]
) -> np.ndarray:
    """Rate in bpm of the strongest in-band bin of each row (lower bin on ties)."""
    bpm, first, last = _band_bins(magnitude.shape[-1], bin_spacing_bpm, band)
    return bpm[first + np.argmax(magnitude[..., first : last + 1], axis=-1)]


@lru_cache(maxsize=16)
def _band_plan(n_len: int, n_fft: int, k0: int, m: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Bluestein plan for bins ``k0 .. k0 + m - 1`` of the ``n_fft``-point DFT
    of ``n_len`` samples: the convolution length, the chirp that multiplies
    the samples, and the FFT of the chirp they are convolved with.

    With ``j t = (j^2 + t^2 - (j - t)^2) / 2``, bin ``k0 + j`` is, up to a
    unit-modulus factor that no magnitude sees, the sum over ``t`` of
    ``x[t] exp(-i pi (t^2 + 2 k0 t) / n_fft)`` times ``exp(i pi (j - t)^2 / n_fft)``.
    Phases are reduced exactly in integers before they become angles.
    """
    n_conv = smooth_length(n_len + m - 1)
    t = np.arange(n_len, dtype=np.int64)
    phase = (t * t % (2 * n_fft) + 2 * (k0 * t % n_fft)) % (2 * n_fft)
    pre = np.exp(-1j * np.pi / n_fft * phase)
    lag = np.arange(-(n_len - 1), m, dtype=np.int64)
    chirp = np.exp(1j * np.pi / n_fft * (lag * lag % (2 * n_fft)))
    # Lags 0 .. m - 1 first, negative lags wrapped to the end.
    kernel = np.zeros(n_conv, dtype=np.complex128)
    kernel[:m] = chirp[n_len - 1 :]
    kernel[n_conv - (n_len - 1) :] = chirp[: n_len - 1]
    pre.flags.writeable = False
    kernel_spectrum = np.fft.fft(kernel)
    kernel_spectrum.flags.writeable = False
    return n_conv, pre, kernel_spectrum


def spectral_peaks(
    rows: np.ndarray | Sequence[np.ndarray], sample_rate_hz: float, band: tuple[float, float]
) -> np.ndarray:
    """Spectral-peak rate of every row, as :func:`stft_pulse_rate` takes it.

    Rows are mean-removed, Hann-tapered and zero-padded until FFT bins are at
    most 0.5 bpm apart; each row's strongest bin inside ``band`` gives its
    rate in bpm (the lower bin on ties). Only the in-band bins are computed,
    by a chirp-z transform; a row whose two strongest of them are within
    ``_TIE_MARGIN`` is rated from its whole spectrum (:func:`tapered_spectra`)
    instead, so every rate is the one the whole spectrum gives. Rows that are
    all zero after mean removal have no rate and come out NaN.

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
    n_len = len(rows[0])
    n_fft = _fft_length(n_len, sample_rate_hz)
    bin_spacing_bpm = 60.0 * sample_rate_hz / n_fft
    bpm, first, last = _band_bins(n_fft // 2 + 1, bin_spacing_bpm, band)
    m = last - first + 1
    n_conv, pre, kernel_spectrum = _band_plan(n_len, n_fft, first, m)
    tied = []
    # About four complex arrays of n_conv samples per row are alive at once;
    # a chunk keeps them within _CHUNK_SAMPLES samples.
    for i, x, nonzero in _tapered_rows(rows, max(1, _CHUNK_SAMPLES // (4 * n_conv))):
        spectrum = np.fft.fft(x * pre, n_conv, axis=-1)
        spectrum *= kernel_spectrum
        magnitude = np.abs(np.fft.ifft(spectrum, axis=-1, out=spectrum)[:, :m])
        top_two = np.partition(magnitude, m - 2, axis=-1)[:, m - 2 :]
        close = top_two[:, 1] - top_two[:, 0] <= _TIE_MARGIN * np.abs(x).sum(axis=-1)
        peaks = bpm[first + np.argmax(magnitude, axis=-1)]
        rates[i : i + len(x)] = np.where(nonzero, peaks, np.nan)
        tied.extend((i + np.flatnonzero(nonzero & close)).tolist())
    if tied:
        exact = [rows[k] for k in tied]
        for i, magnitude, _ in tapered_spectra(exact, n_fft):
            peaks = _peak_rates(magnitude, bin_spacing_bpm, band)
            rates[tied[i : i + len(peaks)]] = peaks
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
    counted in ``n_skipped``; a waveform shorter than one window is a
    ValueError. The windows go through :func:`spectral_peaks` as the rows of
    one batch.
    """
    if plan is None:
        plan = DEFAULT_RATE_PLAN
    segs = windows(w, plan)
    if not segs:
        raise ValueError(f"waveform of {w.duration_s:g} s is shorter than one "
                         f"{plan.length_s:g} s window")
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
