"""Differential pulse-transit-time estimation between body-site waveforms.

Pulse waves arrive at different body sites with small time offsets. Pairwise
offsets are estimated per sliding window by a normalized cross-correlation
scan over integer-sample lags, assembled into a skew-symmetric site-by-site
matrix, and summarized with boxplot statistics.

``_scan_lags`` scans all site pairs over all windows with one of two kernels,
which find the same lags:

- The FFT kernel takes a chunk of windows at once. Each window is centred
  and scaled; the overlap sums at every lag come from per-window prefix sums,
  and the cross products from one zero-padded real FFT per site and window
  and one inverse FFT per pair, of which only the lags -L..L are read (the
  normalized cross-correlation of Lewis, 1995). Chunks hold at most
  ``_CHUNK_SAMPLES`` pair-window samples.
- The sliding-sum kernel takes one lag at a time over a chunk of windows
  spanning a bounded stretch of samples. Every window's overlap sums of x,
  x², y, y² and x[t] * y[t + k] come from prefix sums over that stretch,
  which adjacent windows share (the sliding dot products of Zhu et al. 2016,
  "Matrix Profile II"); constant overlaps are found from integer counts of
  sample-to-sample changes.

The FFT kernel costs about ``pairs * windows * n_fft * log2(n_fft)`` and the
sliding one about ``(2L+1) * pairs * samples``, so the sliding sums win
where windows overlap densely. ``_lag_kernel`` weighs the two costs with one
constant, ``_SLIDING_UNIT_COST``, and the INFO line of :func:`ptt_matrix`
names the kernel that ran. The FFTs are numpy.fft's, the package's only one
(scipy stays for ``lfilter``, ``freqz`` and ``synth.motion_burst_noise``);
``TestScanFftEqualsScipy`` and ``test_smooth_length_equals_scipy_next_fast_len``
pin them to scipy's bits.
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
# The FFT lag scan takes windows in chunks of at most this many pair-window
# samples (one window at the least), which bounds its working set whatever
# the stride, duration or number of sites.
_CHUNK_SAMPLES = 1 << 17
# The sliding lag scan takes windows in chunks spanning at most this many
# pair-samples and at most this many window lengths (two at the least), which
# bound its working set and the cancellation in its prefix sums.
_SLIDING_SPAN_PAIR_SAMPLES = 1 << 19
_SLIDING_SPAN_WINDOWS = 16
# The cost of one sliding-sum unit (one lag of one pair at one sample) in FFT
# units (one sample of one pair-window's transform, times log2(n_fft)). The
# break-even table of BENCH_ptt_sliding.json puts it between 2.1 (0.1 s
# stride at 400 Hz, where the FFT is faster) and 4.2 (0.05 s, where the
# sliding sums are).
_SLIDING_UNIT_COST = 3.0

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
    signals: np.ndarray, starts: np.ndarray, n_len: int, max_lag: int
) -> tuple[np.ndarray, np.ndarray, str]:
    """Best lag and peak correlation for every site pair in every window.

    ``signals`` has shape (sites, samples); window w is
    ``signals[:, starts[w] : starts[w] + n_len]`` and ``starts`` never
    decrease. Pairs are the site pairs i < j in ``np.triu_indices`` order,
    site i as x and site j as y. At every integer lag k in
    [-max_lag, max_lag] the Pearson correlation of the overlap, ``x[:n-k]``
    with ``y[k:]`` (k >= 0) or ``x[-k:]`` with ``y[:n+k]`` (k < 0), is
    evaluated; the highest wins, ties going to the smaller |k| and then to
    the smaller k.

    :func:`_lag_kernel` picks the kernel from the shape: :func:`_fft_scan`
    over chunks of at most ``_CHUNK_SAMPLES`` pair-window samples, or
    :func:`_sliding_scan` over the chunks of :func:`_sliding_chunks`.

    Returns the lag in samples and the peak correlation, each of shape
    (pairs, windows), both NaN where every overlap has zero variance on one
    side, and the name of the kernel that ran.
    """
    first, second = np.triu_indices(signals.shape[0], 1)
    lag = np.empty((first.size, starts.size))
    peak = np.empty((first.size, starts.size))
    kernel = _lag_kernel(first.size, starts, n_len, max_lag)
    if kernel == "sliding-sum":
        for lo, hi in _sliding_chunks(starts, n_len, first.size):
            lag[:, lo:hi], peak[:, lo:hi] = _sliding_scan(
                signals, starts[lo:hi], n_len, max_lag, first, second)
        return lag, peak, kernel
    chunk = max(1, _CHUNK_SAMPLES // (first.size * n_len))
    offsets = np.arange(n_len)
    for c in range(0, starts.size, chunk):
        segs = signals[:, starts[c : c + chunk, None] + offsets]
        lag[:, c : c + chunk], peak[:, c : c + chunk] = _fft_scan(segs, first, second, max_lag)
    return lag, peak, kernel


def _lag_kernel(n_pairs: int, starts: np.ndarray, n_len: int, max_lag: int) -> str:
    """The lag-scan kernel for this shape: ``"sliding-sum"`` or ``"fft"``.

    The sliding sums cost about ``(2L+1) * pairs * samples``, the samples
    being those the sliding chunks span, and the FFT about
    ``pairs * windows * n_fft * log2(n_fft)``. The sliding kernel runs when
    ``_SLIDING_UNIT_COST`` times its cost is the lower, which it is where the
    windows overlap densely.
    """
    samples = sum(int(starts[hi - 1] - starts[lo]) + n_len
                  for lo, hi in _sliding_chunks(starts, n_len, n_pairs))
    n_fft = smooth_length(n_len + max_lag)
    sliding = _SLIDING_UNIT_COST * (2 * max_lag + 1) * n_pairs * samples
    return "sliding-sum" if sliding < n_pairs * starts.size * n_fft * np.log2(n_fft) else "fft"


def _fft_scan(
    segs: np.ndarray, first: np.ndarray, second: np.ndarray, max_lag: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_scan_lags` over the windows ``segs``, shape (sites, windows, n).

    Each window is centred and scaled; the overlap sums at every lag come
    from per-window prefix sums, and the cross products from one zero-padded
    real FFT per site and window and one inverse FFT per pair, of which only
    the lags -L..L are read (the normalized cross-correlation of Lewis, 1995).
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


def _sliding_chunks(starts: np.ndarray, n_len: int, n_pairs: int) -> list[tuple[int, int]]:
    """Index ranges of the windows :func:`_sliding_scan` takes at once.

    Each chunk spans at most ``_SLIDING_SPAN_PAIR_SAMPLES // n_pairs``
    samples, rounded down to whole window lengths, and at most
    ``_SLIDING_SPAN_WINDOWS`` and at least two window lengths.
    """
    span = n_len * max(2, min(_SLIDING_SPAN_WINDOWS,
                              _SLIDING_SPAN_PAIR_SAMPLES // (n_pairs * n_len)))
    chunks, lo = [], 0
    while lo < starts.size:
        hi = int(np.searchsorted(starts, starts[lo] + span - n_len, side="right"))
        chunks.append((lo, hi))
        lo = hi
    return chunks


def _sliding_scan(
    signals: np.ndarray, starts: np.ndarray, n: int, max_lag: int,
    first: np.ndarray, second: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_scan_lags` over windows of n samples at ``starts``, by sliding
    sums over the samples they span (Zhu et al. 2016, "Matrix Profile II").

    The lags are taken one at a time in the tie-break order (|k|, then k),
    keeping a running best. Each window's sums of x, x², y and y² over the
    overlap come from per-site prefix sums, and its sum of x[t] * y[t + k]
    from a prefix sum of the lagged products. The sums start at the first
    window and run over each site's deviations from its mean over the span,
    so their cancellation stays as small as the span is short, whatever the
    offset or the length of the recording. An overlap is constant when it
    holds no sample-to-sample change, which integer prefix counts find
    exactly; a constant overlap, and one whose variance does not come out
    positive, is never the best.
    """
    a = int(starts[0])
    seg = signals[:, a : int(starts[-1]) + n]
    n_sites, span = seg.shape
    z = seg - seg.mean(axis=1, keepdims=True)
    r = starts - a

    def prefix(v: np.ndarray, dtype=np.float64) -> np.ndarray:
        out = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,), dtype=dtype)
        np.cumsum(v, axis=-1, out=out[..., 1:])
        return out

    c1, c2 = prefix(z), prefix(z * z)
    # changes[:, i] counts the sample-to-sample changes before sample i; the
    # samples [p, q) are all equal when changes[:, q - 1] == changes[:, p].
    changes = prefix(seg[:, 1:] != seg[:, :-1], np.intp)
    m_min = n - max_lag
    flats = bool((changes[:, m_min - 1 :] == changes[:, : span - m_min + 1]).any())

    # The lagged products of each pair run as two lanes of one complex prefix
    # sum, the first and the second half of the span, which halves the
    # sequential additions. halves[:, u, h] is sample h * half + u, zero past
    # the span.
    half = (span + 1) // 2
    padded = np.zeros((n_sites, 2 * half + max_lag))
    padded[:, :span] = z
    halves = np.stack([padded[:, : half + max_lag], padded[:, half:]], axis=-1)
    rows = np.concatenate(([0], np.cumsum(np.arange(n_sites - 1, 0, -1))))
    lanes = np.zeros((first.size, half + 1, 2))
    cum = lanes.view(np.complex128)[..., 0]
    flat = lanes.reshape(first.size, -1)

    def lane_index(t: np.ndarray) -> np.ndarray:
        # Where the prefix sum up to sample t sits in ``flat``; past the first
        # half it is the second lane's, plus the whole first half.
        return np.where(t <= half, 2 * t, 2 * (t - half) + 1)

    def overlap(j: int, m: int):
        # Per site: 1 / the standard deviation (NaN where constant or not
        # positive) and the mean of the samples [r + j, r + j + m).
        s1 = c1[:, r + j + m] - c1[:, r + j]
        var = c2[:, r + j + m] - c2[:, r + j] - s1 * s1 / m
        if flats:
            var[changes[:, r + j + m - 1] == changes[:, r + j]] = np.nan
        inv = 1.0 / np.sqrt(np.where(var > 0.0, var, np.nan))
        return inv, s1 / m

    best = np.full((first.size, starts.size), -np.inf)
    best_k = np.zeros((first.size, starts.size))
    low = lane_index(r)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(max_lag + 1):
            m = n - j
            head, tail = overlap(0, m), overlap(j, m)
            high = lane_index(r + m)
            # Windows that start in the first half and end in the second.
            straddle = slice(np.searchsorted(r + m, half, side="right"),
                             np.searchsorted(r, half, side="right"))
            for k in ((0,) if j == 0 else (-j, j)):
                (ix, mx), (iy, my) = (head, tail) if k >= 0 else (tail, head)
                for i in range(n_sites - 1):
                    x, y = (halves[i, :half], halves[i + 1 :, j : j + half]) if k >= 0 else (
                        halves[i, j : j + half], halves[i + 1 :, :half])
                    np.multiply(x, y, out=lanes[rows[i] : rows[i + 1], 1:])
                np.cumsum(cum, axis=1, out=cum)
                corr = flat[:, high] - flat[:, low]
                corr[:, straddle] += lanes[:, half, :1]
                corr -= mx[first] * (my[second] * m)
                corr *= ix[first]
                corr *= iy[second]
                better = corr > best
                np.copyto(best, corr, where=better)
                np.copyto(best_k, k, where=better)

    failed = best == -np.inf
    best_k[failed] = np.nan
    return best_k, np.where(failed, np.nan, np.clip(best, -1.0, 1.0))


def xcorr_lag(x: Waveform, y: Waveform, max_lag_s: float) -> LagEstimate:
    """Best integer-sample lag between two waveforms by correlation scan.

    For every integer lag k in [-L, L] the Pearson correlation between the
    overlapping parts of x and y (y shifted by k) is evaluated; the lag with
    the maximum correlation wins, ties going to the smaller |k|. A positive
    result means x leads y; the lag is a whole number of samples.

    This is the scan of :func:`ptt_matrix` run on one window and one pair,
    with the same rule for the kernel (see the module docstring). On one
    window that is the FFT kernel unless the max lag is a sample or two: the
    overlap sums come from prefix sums and the cross products from one
    zero-padded FFT per waveform, and only the lags -L..L are read off.

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
    signals = np.stack([x.samples, y.samples])
    lag, peak, _ = _scan_lags(signals, np.zeros(1, dtype=np.intp), len(x),
                              int(round(max_lag_s * fs)))
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

    All pairs are scanned together by the FFT or the sliding-sum kernel,
    whichever the shape makes cheaper (see the module docstring); the INFO
    line names it.
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
    lag, peak, kernel = _scan_lags(signals, starts, n_len, max_lag)

    failed = np.isnan(lag)
    low = peak < min_peak_corr  # False where failed: NaN compares False
    keep = ~(failed | low)
    lag_s = np.where(keep, lag / fs, np.nan)
    logger.info(
        "ptt scored %d pairs x %d windows (%s kernel): %d below min_peak_corr %g, "
        "%d zero-variance, %d pairs with no retained window",
        first.size, n_windows, kernel, int(low.sum()), min_peak_corr, int(failed.sum()),
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
