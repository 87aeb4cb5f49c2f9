"""Differential pulse-transit-time estimation between body-site waveforms.

Pulse waves arrive at different body sites with small time offsets. Pairwise
offsets are estimated per sliding window by a normalized cross-correlation
scan over integer-sample lags, assembled into a skew-symmetric site-by-site
matrix, and summarized with boxplot statistics.

The scan runs over all site pairs and a chunk of windows at once. Each window
is centred and scaled; the overlap sums at every lag come from per-window
prefix sums, and the cross products from one zero-padded real FFT per site
and window and one inverse FFT per pair, of which only the lags -L..L are
read (the normalized cross-correlation of Lewis, 1995). Chunks hold at most
``_CHUNK_SAMPLES`` pair-window samples, a fixed budget that bounds memory.
The FFTs are numpy.fft's, the package's only one (scipy stays for ``lfilter``,
``freqz`` and ``synth.motion_burst_noise``); ``TestScanFftEqualsScipy`` and
``test_smooth_length_equals_scipy_next_fast_len`` pin them to scipy's bits.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .signals import Waveform, WindowPlan, deviations, smooth_length, windows

__all__ = [
    "LagEstimate",
    "PTTMatrix",
    "LagStats",
    "xcorr_lag",
    "ptt_matrix",
    "phase_angle_deg",
    "lag_distribution_stats",
    "DEFAULT_PTT_PLAN",
    "DEFAULT_MAX_LAG_S",
    "DEFAULT_MIN_PEAK_CORR",
]

DEFAULT_PTT_PLAN = WindowPlan(length_s=5.0, stride_s=0.010)
DEFAULT_MAX_LAG_S = 0.300
# Waveform pairs correlating below this in a window are too unreliable for a
# lag estimate and are excluded from aggregation (counts are reported).
DEFAULT_MIN_PEAK_CORR = 0.5
# The lag scan takes windows in chunks of at most this many pair-window
# samples (one window at the least), which bounds its working set whatever
# the stride, duration or number of sites.
_CHUNK_SAMPLES = 1 << 17

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LagEstimate:
    """One pairwise lag: positive means the first signal leads the second."""

    lag_s: float
    peak_corr: float
    window_center_time_s: float


@dataclass(frozen=True)
class PTTMatrix:
    """Pairwise lag matrices over named sites.

    ``mean_lag_s`` is exactly skew-symmetric with a zero diagonal: each
    unordered pair is estimated once and mirrored with negation.
    ``per_window_lag_s`` keeps every retained window estimate (NaN where a
    window was excluded) for distribution statistics. A pair with no
    retained window has a NaN mean lag and peak correlation.
    """

    sites: tuple[str, ...]
    mean_lag_s: np.ndarray
    per_window_lag_s: np.ndarray
    window_times_s: np.ndarray
    peak_corr: np.ndarray
    n_excluded_low_corr: np.ndarray
    n_failed: np.ndarray
    min_peak_corr: float

    def site_index(self, site: str) -> int:
        try:
            return self.sites.index(site)
        except ValueError:
            raise KeyError(f"unknown site {site!r}; known sites: {list(self.sites)}") from None

    def pair_lags_s(self, site_a: str, site_b: str) -> np.ndarray:
        """Retained per-window lags for one ordered pair, NaNs dropped."""
        i, j = self.site_index(site_a), self.site_index(site_b)
        lags = self.per_window_lag_s[:, i, j]
        return lags[np.isfinite(lags)]

    def to_dict(self) -> dict:
        return {
            "sites": list(self.sites),
            "mean_lag_ms": (self.mean_lag_s * 1000.0).tolist(),
            "peak_corr": self.peak_corr.tolist(),
            "n_windows": int(self.per_window_lag_s.shape[0]),
            "n_excluded_low_corr": self.n_excluded_low_corr.tolist(),
            "n_failed": self.n_failed.tolist(),
            "min_peak_corr": self.min_peak_corr,
        }


@dataclass(frozen=True)
class LagStats:
    """Tukey five-number summary of per-window lags for one site pair."""

    median_s: float
    q1_s: float
    q3_s: float
    whisker_low_s: float
    whisker_high_s: float
    outliers_s: tuple[float, ...]
    n_windows: int


def _scan_lags(
    segs: np.ndarray, first: np.ndarray, second: np.ndarray, max_lag: int
) -> tuple[np.ndarray, np.ndarray]:
    """Best lag and peak correlation for site pairs over a batch of windows.

    ``segs`` has shape (sites, windows, n); pair p scans site ``first[p]``
    (x) against site ``second[p]`` (y) in every window. At
    every integer lag k in [-max_lag, max_lag] the Pearson correlation of the
    overlap, ``x[:n-k]`` with ``y[k:]`` (k >= 0) or ``x[-k:]`` with
    ``y[:n+k]`` (k < 0), is evaluated; the highest wins, ties going to the
    smaller |k| and then to the smaller k.

    Returns the lag in samples and the peak correlation, each of shape
    (pairs, windows); both are NaN where every overlap has zero variance on
    one side.
    """
    n = segs.shape[-1]
    ks = np.arange(-max_lag, max_lag + 1)
    abs_ks = np.abs(ks)
    leads = ks >= 0
    m = (n - abs_ks).astype(np.float64)

    # Pearson is invariant to shifting and scaling each window as a whole;
    # conditioning every window this way keeps the cancellation error of the
    # prefix-sum variances negligible, whatever DC offset the signal carries.
    dev, std = deviations(segs)
    z = dev / np.where(std == 0.0, 1.0, std)[..., None]

    def overlap_sums(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Per-window prefix sums give the sum over the overlap at every lag:
        # the first n - |k| samples of x and the last n - |k| of y for k >= 0,
        # the other way round for k < 0. Returns the sums for the x and the y
        # role of each site.
        cum = np.zeros(v.shape[:-1] + (n + 1,))
        np.cumsum(v, axis=-1, out=cum[..., 1:])
        head = cum[..., n - abs_ks]
        tail = cum[..., n:] - cum[..., abs_ks]
        return np.where(leads, head, tail), np.where(leads, tail, head)

    s_x, s_y = overlap_sums(z)
    q_x, q_y = overlap_sums(z * z)
    sx, sy = s_x[first], s_y[second]
    var_x = (q_x - s_x * s_x / m)[first]
    var_y = (q_y - s_y * s_y / m)[second]

    # Sum of x[i] * y[i + k] over the overlap, from one spectrum per site and
    # window. Zero-padding to at least n + max_lag keeps the circular
    # correlation free of wrap-around at the lags that are read.
    n_fft = smooth_length(n + max_lag)
    spec = np.fft.rfft(z, n_fft, axis=-1)
    cross = spec[first]
    np.conjugate(cross, out=cross)
    cross *= spec[second]
    sxy = np.fft.irfft(cross, n_fft, axis=-1)[..., ks % n_fft]

    cov = sxy - sx * sy / m
    eps = 1e-12 * m
    valid = (var_x > eps) & (var_y > eps)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(valid, cov / np.sqrt(var_x * var_y), -np.inf)

    order = np.lexsort((ks, abs_ks))
    best = order[np.argmax(corr[..., order], axis=-1)]
    peak = np.take_along_axis(corr, best[..., None], axis=-1)[..., 0]
    lag = ks[best].astype(np.float64)

    failed = ~valid.any(axis=-1)
    lag[failed] = np.nan
    peak = np.where(failed, np.nan, np.clip(peak, -1.0, 1.0))
    return lag, peak


def xcorr_lag(x: Waveform, y: Waveform, max_lag_s: float) -> LagEstimate:
    """Best integer-sample lag between two waveforms by correlation scan.

    For every integer lag k in [-L, L] the Pearson correlation between the
    overlapping parts of x and y (y shifted by k) is evaluated; the lag with
    the maximum correlation wins, ties going to the smaller |k|. A positive
    result means x leads y; the lag is a whole number of samples.

    This is the batched scan of :func:`ptt_matrix` run on one window and one
    pair: the overlap sums come from prefix sums and the cross products from
    one zero-padded FFT per waveform, and only the lags -L..L are read off.

    Raises:
        ValueError: on mismatched rates/lengths, a max lag of at least half
            the duration, or zero variance at every tested alignment.
    """
    if abs(x.sample_rate_hz - y.sample_rate_hz) > 1e-9 * x.sample_rate_hz:
        raise ValueError("waveforms must share a sample rate")
    if len(x) != len(y):
        raise ValueError(f"waveforms must have equal length, got {len(x)} and {len(y)}")
    fs = x.sample_rate_hz
    if not 0 < max_lag_s < x.duration_s / 2.0:
        raise ValueError(
            f"max_lag_s must sit in (0, {x.duration_s / 2.0:g}) s, got {max_lag_s}"
        )
    segs = np.stack([x.samples, y.samples])[:, None, :]
    lag, peak = _scan_lags(segs, np.array([0]), np.array([1]), int(round(max_lag_s * fs)))
    if np.isnan(lag[0, 0]):
        raise ValueError("zero variance in every tested overlap; no lag defined")
    return LagEstimate(
        lag_s=float(lag[0, 0]) / fs,
        peak_corr=float(peak[0, 0]),
        window_center_time_s=x.start_time_s + x.duration_s / 2.0,
    )


def ptt_matrix(
    waves: list[tuple[str, Waveform]],
    plan: WindowPlan | None = None,
    max_lag_s: float = DEFAULT_MAX_LAG_S,
    min_peak_corr: float = DEFAULT_MIN_PEAK_CORR,
) -> PTTMatrix:
    """Pairwise transit-time matrix over sliding windows.

    Each unordered site pair is estimated once per window and mirrored with
    negation, so every per-window matrix and the mean matrix are exactly
    skew-symmetric. Windows whose peak correlation falls below
    ``min_peak_corr``, or where a pair has zero variance, are dropped for that
    pair only, with counts reported and logged. Waveforms shorter than one
    window are a ValueError.

    All pairs are scanned together over chunks of windows holding at most
    ``_CHUNK_SAMPLES`` pair-window samples; see :func:`xcorr_lag`.
    """
    if plan is None:
        plan = DEFAULT_PTT_PLAN
    if len(waves) < 2:
        raise ValueError("need at least two sites for a transit-time matrix")
    sites = tuple(site for site, _ in waves)
    if len(set(sites)) != len(sites):
        raise ValueError("site names must be unique")
    fs = waves[0][1].sample_rate_hz
    n = len(waves[0][1])
    for site, wave in waves:
        if abs(wave.sample_rate_hz - fs) > 1e-9 * fs:
            raise ValueError(f"site {site!r} has a different sample rate")
        if len(wave) != n:
            raise ValueError(f"site {site!r} has a different length")
    if not 0 < max_lag_s < plan.length_s / 2.0:
        raise ValueError(f"max_lag_s {max_lag_s} must sit in (0, {plan.length_s / 2.0}) s")

    spans = windows(waves[0][1], plan)
    if not spans:
        raise ValueError(f"site waveforms of {waves[0][1].duration_s:g} s are shorter than one "
                         f"{plan.length_s:g} s window")
    max_lag = int(round(max_lag_s * fs))
    n_sites, n_windows = len(sites), len(spans)
    n_len = plan.length_samples(fs)
    times = np.array([seg.start_time_s for _, seg in spans]) + plan.length_s / 2.0
    starts = np.array([start for start, _ in spans], dtype=np.intp)
    signals = np.stack([wave.samples for _, wave in waves])
    first, second = np.triu_indices(n_sites, 1)

    lag = np.empty((first.size, n_windows))
    peak = np.empty((first.size, n_windows))
    chunk = max(1, _CHUNK_SAMPLES // (first.size * n_len))
    offsets = np.arange(n_len)
    for c in range(0, n_windows, chunk):
        segs = signals[:, starts[c : c + chunk, None] + offsets]
        lag[:, c : c + chunk], peak[:, c : c + chunk] = _scan_lags(segs, first, second, max_lag)

    failed = np.isnan(lag)
    low = peak < min_peak_corr  # False where failed: NaN compares False
    keep = ~(failed | low)
    lag_s = np.where(keep, lag / fs, np.nan)
    logger.info(
        "ptt scored %d pairs x %d windows: %d below min_peak_corr %g, %d zero-variance, "
        "%d pairs with no retained window",
        first.size, n_windows, int(low.sum()), min_peak_corr, int(failed.sum()),
        int((~keep.any(axis=1)).sum()),
    )

    def mirrored(upper: np.ndarray, diagonal, sign=1) -> np.ndarray:
        out = np.full((n_sites, n_sites), diagonal, dtype=upper.dtype)
        out[first, second] = upper
        out[second, first] = sign * upper
        return out

    per_window = np.full((n_windows, n_sites, n_sites), np.nan)
    per_window[:, np.arange(n_sites), np.arange(n_sites)] = 0.0
    per_window[:, first, second] = lag_s.T
    per_window[:, second, first] = -lag_s.T
    # np.mean over each pair's retained lags alone: a sum over the zero-filled
    # row would group the terms differently and change the last bits.
    mean_lag = np.array([row[ok].mean() if ok.any() else np.nan for row, ok in zip(lag_s, keep)])
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_corr = np.where(keep, peak, 0.0).sum(axis=1) / keep.sum(axis=1)

    return PTTMatrix(
        sites=sites,
        mean_lag_s=mirrored(mean_lag, 0.0, sign=-1),
        per_window_lag_s=per_window,
        window_times_s=times,
        peak_corr=mirrored(mean_corr, 1.0),
        n_excluded_low_corr=mirrored(low.sum(axis=1), 0),
        n_failed=mirrored(failed.sum(axis=1), 0),
        min_peak_corr=min_peak_corr,
    )


def phase_angle_deg(lag_s: float, rate_bpm: float) -> float:
    """Phase angle of a time lag at a given pulse rate, in degrees.

    A lag of one full period (60 / rate_bpm seconds) maps to 360 degrees.
    For example, 51 ms is 55.1 degrees at 180 bpm and 27.5 degrees at 90 bpm.
    """
    if not rate_bpm > 0:
        raise ValueError(f"rate_bpm must be positive, got {rate_bpm}")
    return 360.0 * lag_s * rate_bpm / 60.0


def lag_distribution_stats(m: PTTMatrix, pair: tuple[str, str]) -> LagStats:
    """Tukey boxplot summary of per-window lags for one site pair.

    Whiskers extend to the most extreme values within 1.5 interquartile ranges
    of the quartiles; values beyond are listed as outliers.

    Raises:
        ValueError: with fewer than five retained window estimates.
    """
    lags = m.pair_lags_s(pair[0], pair[1])
    if lags.size < 5:
        raise ValueError(
            f"pair {pair} has only {lags.size} retained windows; need at least 5"
        )
    q1, med, q3 = np.percentile(lags, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    lo_limit = q1 - 1.5 * iqr
    hi_limit = q3 + 1.5 * iqr
    inside = lags[(lags >= lo_limit) & (lags <= hi_limit)]
    outliers = lags[(lags < lo_limit) | (lags > hi_limit)]
    return LagStats(
        median_s=float(med),
        q1_s=float(q1),
        q3_s=float(q3),
        whisker_low_s=float(inside.min()),
        whisker_high_s=float(inside.max()),
        outliers_s=tuple(sorted(outliers.tolist())),
        n_windows=int(lags.size),
    )
