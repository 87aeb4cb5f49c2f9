"""Scoring of predicted pulse against a reference: MAE, Pearson r, harmonic SNR."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, asdict

import numpy as np

from .pulse_rate import PulseRateSeries, tapered_spectra
from .signals import Waveform, WindowPlan, windows

__all__ = [
    "ScoreReport",
    "mae",
    "pearson_r",
    "snr_harmonics",
    "harmonic_snrs",
    "score_series",
    "pooled_score",
    "NOISE_BAND_BPM",
]

# Outer support for the SNR noise sum: brackets the 40-180 bpm analysis band
# with margin on both sides.
NOISE_BAND_BPM = (24.0, 240.0)

SNR_CAP_DB = 60.0


@dataclass(frozen=True)
class ScoreReport:
    """Prediction-vs-reference summary for one scoring run."""

    mae_bpm: float
    pearson_r: float
    n_windows: int
    snr_db: float | None = None
    scope: str = "per-session"

    def to_dict(self) -> dict:
        return asdict(self)


def _matched_pairs(
    pred: PulseRateSeries, ref: PulseRateSeries
) -> tuple[np.ndarray, np.ndarray, int]:
    """Pair prediction entries with the nearest reference entry in time.

    A pair counts as matched when the center times differ by at most half the
    reference stride; unmatched predictions are dropped and counted.
    """
    if abs(pred.window_length_s - ref.window_length_s) > 1e-9:
        raise ValueError(
            "prediction and reference series were computed with different window "
            f"lengths ({pred.window_length_s} s vs {ref.window_length_s} s); "
            "score both sides with the same estimator settings"
        )
    if len(pred) == 0 or len(ref) == 0:
        raise ValueError("cannot match an empty rate series")
    if len(ref) > 1:
        tol = 0.5 * float(np.median(np.diff(ref.times_s)))
    else:
        tol = 0.5 * ref.window_length_s
    idx = np.clip(np.searchsorted(ref.times_s, pred.times_s), 1, len(ref) - 1)
    left = ref.times_s[idx - 1]
    right = ref.times_s[idx]
    nearest = np.where(
        np.abs(pred.times_s - left) <= np.abs(pred.times_s - right), idx - 1, idx
    )
    ok = np.abs(pred.times_s - ref.times_s[nearest]) <= tol + 1e-9
    return pred.rates_bpm[ok], ref.rates_bpm[nearest[ok]], int(np.count_nonzero(~ok))


def mae(pred: PulseRateSeries, ref: PulseRateSeries) -> float:
    """Mean absolute rate error in bpm over matched window pairs."""
    p, r, _ = _matched_pairs(pred, ref)
    if p.size == 0:
        raise ValueError("no prediction window matched a reference window")
    return float(np.mean(np.abs(p - r)))


def pearson_r(pred: PulseRateSeries, ref: PulseRateSeries) -> float:
    """Pearson product-moment correlation of matched rates.

    Raises:
        ValueError: with fewer than two matched pairs, or when either side has
            zero variance (the correlation is undefined, not zero).
    """
    p, r, _ = _matched_pairs(pred, ref)
    if p.size < 2:
        raise ValueError("pearson r needs at least two matched pairs")
    if np.std(p) == 0.0 or np.std(r) == 0.0:
        raise ValueError("pearson r undefined: one side has zero variance")
    return float(np.corrcoef(p, r)[0, 1])


def harmonic_snrs(
    rows: np.ndarray | Sequence[np.ndarray],
    sample_rate_hz: float,
    rates_bpm: float | Sequence[float] | np.ndarray,
    half_band_bpm: float = 6.0,
) -> np.ndarray:
    """Harmonic SNR in dB of every row against its own reference rate.

    Rows are mean-removed and Hann-tapered (:func:`tapered_spectra`, no
    zero-padding); spectral power within +-half_band_bpm of the row's rate
    and of its second harmonic counts as signal, everything else inside
    NOISE_BAND_BPM as noise. Results are clipped to +-SNR_CAP_DB.
    ``rates_bpm`` is one rate per row, or one rate for all rows.
    """
    rates = np.broadcast_to(np.asarray(rates_bpm, dtype=np.float64), (len(rows),))
    out = np.empty(len(rows))
    if len(rows) == 0:
        return out
    f_bpm = np.fft.rfftfreq(len(rows[0]), 1.0 / sample_rate_hz) * 60.0
    support = (f_bpm >= NOISE_BAND_BPM[0] - 1e-9) & (f_bpm <= NOISE_BAND_BPM[1] + 1e-9)
    for i, magnitude, _ in tapered_spectra(rows):
        for k, power in enumerate(magnitude**2, start=i):
            sig = (np.abs(f_bpm - rates[k]) <= half_band_bpm + 1e-9) | (
                np.abs(f_bpm - 2.0 * rates[k]) <= half_band_bpm + 1e-9
            )
            # Per-row sums keep the summation order of a single window.
            signal_power = float(np.sum(power[sig]))
            noise_power = float(np.sum(power[support & ~sig]))
            if signal_power <= 0.0:
                out[k] = -SNR_CAP_DB
            elif noise_power <= 0.0:
                out[k] = SNR_CAP_DB
            else:
                out[k] = np.clip(
                    10.0 * np.log10(signal_power / noise_power), -SNR_CAP_DB, SNR_CAP_DB
                )
    return out


def snr_harmonics(
    w: Waveform,
    ref_rate: PulseRateSeries,
    half_band_bpm: float = 6.0,
    plan: WindowPlan | None = None,
) -> float:
    """Harmonic signal-to-noise ratio of a waveform against a reference rate.

    Per window, spectral power within +-half_band_bpm of the reference rate
    and of its second harmonic counts as signal; everything else inside
    NOISE_BAND_BPM counts as noise. Window SNRs in dB are clipped to
    +-SNR_CAP_DB and averaged; the windows go through :func:`harmonic_snrs`
    as the rows of one batch.
    """
    if plan is None:
        plan = WindowPlan(10.0, 10.0)
    if len(ref_rate) == 0:
        raise ValueError("reference rate series is empty")
    segs = windows(w, plan)
    if not segs:
        raise ValueError(
            f"waveform of {w.duration_s:g} s is shorter than one {plan.length_s:g} s window"
        )
    rates = [ref_rate.rate_at(seg.start_time_s + 0.5 * plan.length_s) for _, seg in segs]
    snrs = harmonic_snrs([seg.samples for _, seg in segs], w.sample_rate_hz, rates, half_band_bpm)
    return float(np.mean(snrs))


def score_series(
    pred: PulseRateSeries,
    ref: PulseRateSeries,
    waveform: Waveform | None = None,
    scope: str = "per-session",
) -> ScoreReport:
    """Bundle MAE, Pearson r, and (optionally) waveform SNR into one report."""
    p, r, _ = _matched_pairs(pred, ref)
    snr = snr_harmonics(waveform, ref) if waveform is not None else None
    return ScoreReport(
        mae_bpm=mae(pred, ref),
        pearson_r=pearson_r(pred, ref),
        n_windows=int(p.size),
        snr_db=snr,
        scope=scope,
    )


def pooled_score(pairs: list[tuple[PulseRateSeries, PulseRateSeries]]) -> ScoreReport:
    """Score several sessions as one pool of matched window pairs.

    Complements per-session reports: per-session numbers weight every session
    equally, pooled numbers weight every window equally.
    """
    preds, refs = [], []
    for pred, ref in pairs:
        p, r, _ = _matched_pairs(pred, ref)
        preds.append(p)
        refs.append(r)
    p = np.concatenate(preds)
    r = np.concatenate(refs)
    if p.size < 2:
        raise ValueError("pooled scoring needs at least two matched pairs")
    if np.std(p) == 0.0 or np.std(r) == 0.0:
        raise ValueError("pooled pearson r undefined: zero variance")
    return ScoreReport(
        mae_bpm=float(np.mean(np.abs(p - r))),
        pearson_r=float(np.corrcoef(p, r)[0, 1]),
        n_windows=int(p.size),
        snr_db=None,
        scope="pooled",
    )
