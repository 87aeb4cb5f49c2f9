"""Differential pulse-transit-time estimation between body-site waveforms.

Pulse waves arrive at different body sites with small time offsets. Pairwise
offsets are estimated per sliding window by a normalized cross-correlation
scan over integer-sample lags, assembled into a skew-symmetric site-by-site
matrix, and summarized with boxplot statistics.

``_scan_lags`` scans all site pairs over all windows with one of two kernels,
which find the same lags. Both scan a :class:`_Chunk` of windows at a time,
with its overlaps' means and variances, its exact test for constant overlaps
and its running best over the lags in the tie-break order; they differ in
how they sum x[t] * y[t + k] over each overlap (the normalized
cross-correlation of Lewis, 1995):

- The block-FFT kernel cuts the span at every window start and end into
  blocks of at most L samples, so that overlapping windows share each
  block's cross-spectrum (Stockham 1966, "High-speed convolution and
  correlation"). A window's spectrum is a difference of prefix sums of its
  blocks' spectra, less the terms that reach past its edges, and one inverse
  FFT of about 3L samples per pair-window gives its sums at every lag.
- The sliding-sum kernel takes one lag at a time, with prefix sums of the
  lagged products over the span, which adjacent windows share (the sliding
  dot products of Zhu et al. 2016, "Matrix Profile II").

The block FFTs cost about ``pairs * windows * n_fft * log2(n_fft)`` and the
sliding sums about ``(2L+1) * pairs * samples``, so the sliding sums win
where windows overlap densely. ``_lag_kernel`` weighs the two costs with one
constant, ``_SLIDING_UNIT_COST``, and the INFO line of :func:`ptt_matrix`
names the kernel that ran (``fft`` or ``sliding-sum``). The FFTs are
numpy.fft's, the package's only one (scipy stays for ``lfilter``, ``freqz``
and ``synth.motion_burst_noise``); ``TestScanFftEqualsScipy`` and
``test_smooth_length_equals_scipy_next_fast_len`` pin them to scipy's bits.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .signals import Waveform, WindowPlan, smooth_length, windows

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
# Lag-scan chunks span at most _SPAN_WINDOWS window lengths, which bounds the
# cancellation in their prefix sums. A sliding-sum chunk also spans at most
# _SLIDING_SPAN_PAIR_SAMPLES pair-samples, and a block chunk holds at most
# _BLOCK_CHUNK_BYTES of cross sums, one float per pair, window and lag, which
# bound their working sets.
_SPAN_WINDOWS = 16
_SLIDING_SPAN_PAIR_SAMPLES = 1 << 19
_BLOCK_CHUNK_BYTES = 1 << 20
# The cost of one sliding-sum unit (one lag of one pair at one sample) in FFT
# units (one sample of one pair-window's inverse transform, times
# log2(n_fft)). The break-even table of BENCH_ptt_block.json puts it between
# 0.54 (a 0.05 s stride at 400 Hz, where the block FFTs are faster) and 0.95
# (0.1 s at 90 Hz, where the sliding sums are).
_SLIDING_UNIT_COST = 0.7

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

    :func:`_lag_kernel` picks the kernel from the shape, :func:`_block_sums`
    or :func:`_sliding_sums`, which each scan a :class:`_Chunk` of the
    windows of :func:`_chunks` at a time.

    Returns the lag in samples and the peak correlation, each of shape
    (pairs, windows), both NaN where every overlap has zero variance on one
    side, and the name of the kernel that ran.
    """
    first, second = np.triu_indices(signals.shape[0], 1)
    lag = np.empty((first.size, starts.size))
    peak = np.empty((first.size, starts.size))
    kernel = _lag_kernel(first.size, starts, n_len, max_lag)
    sums = _sliding_sums if kernel == "sliding-sum" else _block_sums
    for lo, hi in _chunks(kernel, starts, n_len, max_lag, first.size):
        chunk = _Chunk(signals, starts[lo:hi], n_len, max_lag, first.size)
        with np.errstate(invalid="ignore", divide="ignore"):
            sums(chunk, first, second)
        lag[:, lo:hi], peak[:, lo:hi] = chunk.result()
    return lag, peak, kernel


def _lag_kernel(n_pairs: int, starts: np.ndarray, n_len: int, max_lag: int) -> str:
    """The lag-scan kernel for this shape: ``"sliding-sum"`` or ``"fft"``.

    The sliding sums cost about ``(2L+1) * pairs * samples``, the samples
    being those the sliding chunks span. The block FFTs cost about
    ``pairs * windows * n_fft * log2(n_fft)``, one inverse FFT of about 3L
    samples per pair-window (adjacent windows share the per-block work). The
    sliding kernel runs when ``_SLIDING_UNIT_COST`` times its cost is the
    lower, which it is where the windows overlap densely.
    """
    samples = sum(int(starts[hi - 1] - starts[lo]) + n_len
                  for lo, hi in _chunks("sliding-sum", starts, n_len, max_lag, n_pairs))
    n_fft = smooth_length(max(max_lag, 1) + 2 * max_lag)
    sliding = _SLIDING_UNIT_COST * (2 * max_lag + 1) * n_pairs * samples
    return "sliding-sum" if sliding < n_pairs * starts.size * n_fft * np.log2(n_fft) else "fft"


def _chunks(kernel: str, starts: np.ndarray, n_len: int, max_lag: int,
            n_pairs: int) -> list[tuple[int, int]]:
    """Index ranges of the windows ``kernel`` takes at once.

    Each chunk spans at most ``_SPAN_WINDOWS`` window lengths. A sliding-sum
    chunk also spans at most ``_SLIDING_SPAN_PAIR_SAMPLES // n_pairs``
    samples, rounded down to whole window lengths but two at the least; a
    block chunk holds at most ``_BLOCK_CHUNK_BYTES`` of cross sums, one window
    at the least.
    """
    if kernel == "sliding-sum":
        count = starts.size
        span = n_len * max(2, min(_SPAN_WINDOWS, _SLIDING_SPAN_PAIR_SAMPLES // (n_pairs * n_len)))
    else:
        count = max(1, _BLOCK_CHUNK_BYTES // (8 * (2 * max_lag + 1) * n_pairs))
        span = n_len * _SPAN_WINDOWS
    chunks, lo = [], 0
    while lo < starts.size:
        hi = int(np.searchsorted(starts, starts[lo] + span - n_len, side="right"))
        chunks.append((lo, min(hi, lo + count)))
        lo = chunks[-1][1]
    return chunks


def _prefix(v: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,), dtype=dtype)
    np.cumsum(v, axis=-1, out=out[..., 1:])
    return out


class _Chunk:
    """A chunk of windows of n samples at ``starts``, as both kernels scan it:
    the samples they span as each site's deviations from its mean there, so
    that the cancellation in their prefix sums stays as small as the span is
    short, whatever the offset or the length of the recording, and the
    running best (``best``, ``best_k``) of every pair-window."""

    def __init__(self, signals: np.ndarray, starts: np.ndarray, n: int, max_lag: int,
                 n_pairs: int):
        a = int(starts[0])
        seg = signals[:, a : int(starts[-1]) + n]
        self.z = seg - seg.mean(axis=1, keepdims=True)
        self.r, self.n, self.max_lag = starts - a, n, max_lag
        self.c1, self.c2 = _prefix(self.z), _prefix(self.z * self.z)
        # changes[:, i] counts the sample-to-sample changes before sample i; the
        # samples [p, q) are all equal when changes[:, q - 1] == changes[:, p].
        self.changes = _prefix(seg[:, 1:] != seg[:, :-1], np.intp)
        m_min, span = n - max_lag, seg.shape[1]
        self.flats = bool((self.changes[:, m_min - 1 :]
                           == self.changes[:, : span - m_min + 1]).any())
        self.best = np.full((n_pairs, starts.size), -np.inf)
        self.best_k = np.zeros((n_pairs, starts.size))

    def overlap(self, j, m) -> tuple[np.ndarray, np.ndarray]:
        """Per site, 1 / the standard deviation and the mean of the samples
        [r + j, r + j + m) of every window start r, j and m numbers or arrays
        of shape (lags, 1). An overlap is constant when it holds no
        sample-to-sample change, which integer counts find exactly; a
        constant one, or one whose variance is not positive, gets NaN, which
        is never the best."""
        lo, hi = self.r + j, self.r + j + m
        s1 = self.c1[:, hi] - self.c1[:, lo]
        var = self.c2[:, hi] - self.c2[:, lo] - s1 * s1 / m
        if self.flats:
            var[self.changes[:, hi - 1] == self.changes[:, lo]] = np.nan
        return 1.0 / np.sqrt(np.where(var > 0.0, var, np.nan)), s1 / m

    @staticmethod
    def correlate(cross: np.ndarray, m, x: tuple, y: tuple, x_at=..., y_at=...) -> None:
        """Turn the sums of x[t] * y[t + k] over overlaps of m samples into
        Pearson correlations, in place, from the overlaps' (1 / standard
        deviation, mean) of x and of y, taken at ``x_at`` and ``y_at``."""
        (ix, mx), (iy, my) = x, y
        cross -= mx[x_at] * (my[y_at] * m)
        cross *= ix[x_at]
        cross *= iy[y_at]

    def keep_best(self, corrs, ks) -> None:
        """Fold the correlations ``corrs[q]`` at the lags ``ks[q]``, given in
        the tie-break order (|k|, then k), into the running best."""
        for corr, k in zip(corrs, ks):
            better = corr > self.best
            np.copyto(self.best, corr, where=better)
            np.copyto(self.best_k, k, where=better)

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        failed = self.best == -np.inf
        self.best_k[failed] = np.nan
        return self.best_k, np.where(failed, np.nan, np.clip(self.best, -1.0, 1.0))


def _block_sums(chunk: _Chunk, first: np.ndarray, second: np.ndarray) -> None:
    """Scan a chunk by block FFTs, all lags of a pair-window at once.

    A block's sums of x[t] * y[t + k] over its t come from the spectra of x
    on the block and of y on the block widened by L on either side, of
    ``n_fft`` >= 3L samples, which keeps the lags -L..L free of wrap-around.
    A window's spectrum is a difference of prefix sums of its blocks' ones,
    less the terms whose y lies outside the window: x on the L samples before
    its end times y on the L after it (k > 0), and the mirror terms at its
    start (k < 0), from spectra of the L samples on either side of the edge.
    """
    z, r, n, L = chunk.z, chunk.r, chunk.n, chunk.max_lag
    n_sites, span = z.shape
    ks = np.arange(-L, L + 1)
    m = n - np.abs(ks)
    # Every site's overlaps as the x side, shape (sites, windows, lags); the y
    # side at lag k is the x side at -k.
    inv, mean = (np.ascontiguousarray(v.transpose(0, 2, 1)) for v in
                 chunk.overlap(np.where(ks < 0, -ks, 0)[:, None], m[:, None]))

    # The span cut at every window start and end, and into blocks of at most
    # `longest` samples; window w is the covered blocks [lo[w], hi[w]).
    longest = max(L, 1)
    bounds = np.unique(np.concatenate([r, r + n]))
    pieces = -(-np.diff(bounds) // longest)
    offsets = np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    cuts = np.append(np.repeat(bounds[:-1], pieces) + longest * offsets, bounds[-1])
    covered = (np.searchsorted(r, cuts[:-1], side="right")
               > np.searchsorted(r + n, cuts[:-1], side="right"))
    before = np.concatenate(([0], np.cumsum(covered)))
    lo, hi = before[np.searchsorted(cuts, r)], before[np.searchsorted(cuts, r + n)]
    b0, width = cuts[:-1][covered], np.diff(cuts)[covered]

    n_fft = smooth_length(longest + 2 * L)
    padded = np.zeros((n_sites, L + span + n_fft))
    padded[:, L : L + span] = z
    # frames[:, o] holds the samples [o - L, o - L + n_fft).
    frames = np.lib.stride_tricks.sliding_window_view(padded, n_fft, axis=-1)
    t = np.arange(n_fft)
    head, tail = t < L, (t >= L) & (t < 2 * L)

    def spectra(v: np.ndarray) -> np.ndarray:
        return np.fft.rfft(v.reshape(-1, n_fft), axis=-1).reshape(v.shape[:-1] + (-1,))

    # The y side of sites 1 onwards, the x side of one site at a time.
    ys = np.arange(1, n_sites)[:, None]
    y_blocks = spectra(frames[ys, b0])
    y_ends, y_starts = spectra(frames[ys, r + n] * tail), spectra(frames[ys, r] * head)
    x_mask = (t >= L) & (t < L + width[:, None])
    acc = np.zeros((b0.size + 1, y_blocks.shape[-1]), dtype=complex)
    sums = np.empty((first.size, r.size, ks.size))
    for p, (i, j) in enumerate(zip(first, second)):
        if j == i + 1:
            x_blocks = np.conj(spectra(frames[i, b0] * x_mask))
            x_ends = np.conj(spectra(frames[i, r + n] * head))
            x_starts = np.conj(spectra(frames[i, r] * tail))
        np.multiply(x_blocks, y_blocks[j - 1], out=acc[1:])
        np.cumsum(acc, axis=0, out=acc)
        spec = acc[hi]
        spec -= acc[lo]
        spec -= x_ends * y_ends[j - 1]
        spec -= x_starts * y_starts[j - 1]
        lagged = np.fft.irfft(spec, n_fft, axis=-1)
        sums[p, :, :L], sums[p, :, L:] = lagged[:, n_fft - L :], lagged[:, : L + 1]
    rows = np.concatenate(([0], np.cumsum(np.arange(n_sites - 1, 0, -1))))
    for i in range(n_sites - 1):
        chunk.correlate(sums[rows[i] : rows[i + 1]], m, (inv[i], mean[i]),
                        (inv[i + 1 :, :, ::-1], mean[i + 1 :, :, ::-1]))
    order = np.argsort(np.abs(ks), kind="stable")
    chunk.keep_best((sums[..., q] for q in order), ks[order])


def _sliding_sums(chunk: _Chunk, first: np.ndarray, second: np.ndarray) -> None:
    """Scan a chunk by sliding sums over the samples it spans (Zhu et al.
    2016, "Matrix Profile II"), one lag at a time in the tie-break order.

    Each window's sum of x[t] * y[t + k] over the overlap comes from a prefix
    sum of the lagged products, which adjacent windows share.
    """
    z, r, n, max_lag = chunk.z, chunk.r, chunk.n, chunk.max_lag
    n_sites, span = z.shape
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

    low = lane_index(r)
    for j in range(max_lag + 1):
        m = n - j
        head, tail = chunk.overlap(0, m), chunk.overlap(j, m)
        high = lane_index(r + m)
        # Windows that start in the first half and end in the second.
        straddle = slice(np.searchsorted(r + m, half, side="right"),
                         np.searchsorted(r, half, side="right"))
        for k in ((0,) if j == 0 else (-j, j)):
            x_y = (head, tail) if k >= 0 else (tail, head)
            for i in range(n_sites - 1):
                x, y = (halves[i, :half], halves[i + 1 :, j : j + half]) if k >= 0 else (
                    halves[i, j : j + half], halves[i + 1 :, :half])
                np.multiply(x, y, out=lanes[rows[i] : rows[i + 1], 1:])
            np.cumsum(cum, axis=1, out=cum)
            corr = flat[:, high] - flat[:, low]
            corr[:, straddle] += lanes[:, half, :1]
            chunk.correlate(corr, m, *x_y, first, second)
            chunk.keep_best((corr,), (k,))


def xcorr_lag(x: Waveform, y: Waveform, max_lag_s: float) -> LagEstimate:
    """Best integer-sample lag between two waveforms by correlation scan.

    For every integer lag k in [-L, L] the Pearson correlation between the
    overlapping parts of x and y (y shifted by k) is evaluated; the lag with
    the maximum correlation wins, ties going to the smaller |k|. A positive
    result means x leads y; the lag is a whole number of samples.

    This is the scan of :func:`ptt_matrix` run on one window and one pair,
    with the same rule for the kernel (see the module docstring). On one
    window that is the block-FFT kernel unless the max lag is a sample or
    two: the window's blocks of at most L samples sum to its cross-spectrum,
    and one inverse FFT of about 3L samples gives its sums at every lag.

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

    All pairs are scanned together by the block-FFT or the sliding-sum
    kernel, whichever the shape makes cheaper (see the module docstring); the
    INFO line names it.
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
