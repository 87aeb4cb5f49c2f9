from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyppg import Waveform, WindowPlan, snr_harmonics, stft_pulse_rate
from bodyppg.metrics import harmonic_snrs
from bodyppg.pulse_rate import PulseRateSeries, _peak_rates, spectral_peaks
from bodyppg.synth import PulseModel, ramp_rate, synth_pulse

import loop_reference


def make_tone(bpm, fs=90.0, duration_s=60.0):
    t = np.arange(int(duration_s * fs)) / fs
    return Waveform(np.sin(2 * np.pi * (bpm / 60.0) * t), fs)


class TestStftPulseRate:
    def test_pure_tone_every_window(self):
        series = stft_pulse_rate(make_tone(72.0))
        assert len(series) == 51
        assert np.max(np.abs(series.rates_bpm - 72.0)) < 0.5

    def test_dominant_peak_wins(self):
        fs = 90.0
        t = np.arange(int(60 * fs)) / fs
        x = np.sin(2 * np.pi * (70 / 60) * t) + 2.0 * np.sin(2 * np.pi * (100 / 60) * t)
        series = stft_pulse_rate(Waveform(x, fs))
        assert np.max(np.abs(series.rates_bpm - 100.0)) < 0.5

    def test_window_is_900_samples_at_90hz(self):
        assert WindowPlan(10.0, 1.0).length_samples(90.0) == 900

    def test_ramp_tracked(self):
        profile = ramp_rate(60.0, 90.0, 120.0)
        w = synth_pulse(
            PulseModel(fs_hz=90.0, duration_s=120.0, rate_profile=profile, seed=2)
        )
        series = stft_pulse_rate(w)
        truth = profile(series.times_s)
        assert np.max(np.abs(series.rates_bpm - truth)) < 2.0

    def test_amplitude_invariance(self):
        w = make_tone(95.0)
        a = stft_pulse_rate(w)
        b = stft_pulse_rate(w.with_samples(w.samples * 123.4))
        assert np.array_equal(a.rates_bpm, b.rates_bpm)

    def test_rates_stay_in_band(self):
        rng = np.random.default_rng(4)
        w = Waveform(rng.standard_normal(int(60 * 90)), 90.0)
        series = stft_pulse_rate(w, band=(40.0, 180.0))
        assert np.all(series.rates_bpm >= 40.0)
        assert np.all(series.rates_bpm <= 180.0)

    def test_bin_spacing_contract(self):
        # zero-padding must keep quantization below half the tolerance
        from bodyppg.pulse_rate import _fft_length

        for fs in (30.0, 90.0, 400.0):
            nfft = _fft_length(int(10 * fs), fs)
            assert 60.0 * fs / nfft <= 0.5

    def test_all_zero_windows_skipped(self):
        w = Waveform(np.zeros(int(30 * 90)), 90.0)
        series = stft_pulse_rate(w)
        assert len(series) == 0
        assert series.n_skipped == 21

    def test_window_longer_than_signal(self):
        series = stft_pulse_rate(make_tone(72.0, duration_s=5.0))
        assert len(series) == 0

    def test_band_outside_nyquist_rejected(self):
        with pytest.raises(ValueError):
            stft_pulse_rate(make_tone(72.0), band=(40.0, 4000.0))


class TestSpectralPeak:
    """The in-band peak of one magnitude spectrum, as spectral_peaks takes it per row."""

    def test_delta_spectrum(self):
        spectrum = np.zeros(100)
        spectrum[37] = 1.0
        assert _peak_rates(spectrum, 0.5, (10.0, 40.0)) == pytest.approx(18.5)

    def test_flat_spectrum_lowest_bin(self):
        spectrum = np.ones(100)
        assert _peak_rates(spectrum, 1.0, (20.0, 50.0)) == pytest.approx(20.0)

    def test_out_of_band_peak_ignored(self):
        spectrum = np.zeros(200)
        spectrum[150] = 10.0  # global max outside the band
        spectrum[60] = 1.0
        assert _peak_rates(spectrum, 1.0, (40.0, 100.0)) == pytest.approx(60.0)

    def test_band_outside_spectrum_rejected(self):
        with pytest.raises(ValueError, match="fewer than two spectrum bins"):
            _peak_rates(np.ones(10), 1.0, (500.0, 600.0))


class TestPulseRateSeries:
    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            PulseRateSeries(
                np.array([1.0, 1.0]), np.array([60.0, 61.0]), 10.0, (40.0, 180.0)
            )

    def test_rates_within_band(self):
        with pytest.raises(ValueError):
            PulseRateSeries(np.array([1.0]), np.array([30.0]), 10.0, (40.0, 180.0))

    def test_rate_at_nearest(self):
        s = PulseRateSeries(
            np.array([1.0, 2.0, 3.0]), np.array([60.0, 70.0, 80.0]), 10.0, (40.0, 180.0)
        )
        assert s.rate_at(2.2) == 70.0
        assert s.rate_at(-5.0) == 60.0


class TestBatchedSpectralKernel:
    """Rows rated and scored in one batch equal the per-window loops exactly."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 24),
        n_len=st.integers(16, 400),
        fs=st.sampled_from([30.0, 90.0, 400.0]),
        offset=st.sampled_from([0.0, 1.0, 5000.0]),
        chunk_samples=st.sampled_from([1, 3 * 2**14, 2**18]),
    )
    def test_rows_equal_per_window_loops(self, seed, n_rows, n_len, fs, offset, chunk_samples):
        rng = np.random.default_rng(seed)
        t = np.arange(n_len) / fs
        rates = rng.uniform(40.0, 180.0, n_rows)
        tones = np.sin(2 * np.pi * rates[:, None] / 60.0 * t)
        rows = offset + tones + rng.normal(0.0, 0.5, (n_rows, n_len))
        rows[rng.random(n_rows) < 0.2] = offset  # constant rows have no rate
        band = (40.0, 180.0)
        with mock.patch("bodyppg.pulse_rate._CHUNK_SAMPLES", chunk_samples):
            peaks = spectral_peaks(rows, fs, band)
            snrs = harmonic_snrs(rows, fs, rates)
        np.testing.assert_array_equal(
            peaks, [loop_reference.window_peak_rate(r, fs, band) for r in rows]
        )
        np.testing.assert_array_equal(
            snrs, [loop_reference.window_snr(r, fs, rate) for r, rate in zip(rows, rates)]
        )

        # stft_pulse_rate and snr_harmonics take the windows of one signal as rows
        w = Waveform(rows.ravel(), fs, start_time_s=2.0)
        plan = WindowPlan(n_len / fs, 0.37 * n_len / fs)
        segs = [w.samples[s : s + n_len] for s in loop_reference.window_starts(len(w), fs, plan)]
        want = np.array([loop_reference.window_peak_rate(x, fs, band) for x in segs])
        series = stft_pulse_rate(w, plan, band)
        np.testing.assert_array_equal(series.rates_bpm, want[np.isfinite(want)])
        assert series.n_skipped == np.count_nonzero(np.isnan(want))
        ref = PulseRateSeries(np.array([0.0, 1e4]), np.array([72.0, 90.0]), plan.length_s, band)
        centers = [
            w.start_time_s + s / fs + 0.5 * plan.length_s
            for s in loop_reference.window_starts(len(w), fs, plan)
        ]
        want_snr = [
            loop_reference.window_snr(x, fs, ref.rate_at(c)) for x, c in zip(segs, centers)
        ]
        with mock.patch("bodyppg.metrics.DEFAULT_SCORE_PLAN", plan):
            assert snr_harmonics(w, ref) == float(np.mean(want_snr))
