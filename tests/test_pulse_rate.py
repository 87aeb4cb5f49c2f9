from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyppg import Waveform, WindowPlan, snr_harmonics, stft_pulse_rate
from bodyppg import pulse_rate
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
        with pytest.raises(ValueError, match="waveform of 5 s is shorter than one 10 s window"):
            stft_pulse_rate(make_tone(72.0, duration_s=5.0))

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


class TestBandLimitedPeaks:
    """spectral_peaks computes only the in-band bins and rates a row from its
    whole spectrum only when its two strongest band bins are too close to tell."""

    BAND = (40.0, 180.0)

    @staticmethod
    def noisy_rows(n_rows, n_len, fs, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(n_len) / fs
        rates = rng.uniform(45.0, 175.0, n_rows)
        rows = 50.0 + np.sin(2 * np.pi * rates[:, None] / 60.0 * t)
        return rows + rng.normal(0.0, 2.0, (n_rows, n_len))

    @staticmethod
    def spy_on_full_spectra(monkeypatch):
        seen = []
        original = pulse_rate.tapered_spectra

        def spy(rows, n_fft=None):
            seen.extend(np.asarray(r) for r in rows)
            return original(rows, n_fft)

        monkeypatch.setattr(pulse_rate, "tapered_spectra", spy)
        return seen

    def test_full_spectra_for_every_row_give_the_same_rates(self, monkeypatch):
        rows = self.noisy_rows(30, 900, 90.0, seed=8)
        rows[[4, 17]] = 50.0  # constant rows have no rate, in either path
        want = spectral_peaks(rows, 90.0, self.BAND)
        assert np.isnan(want).sum() == 2
        seen = self.spy_on_full_spectra(monkeypatch)
        # No bin's magnitude exceeds the sum of the tapered magnitudes, so no
        # gap between two of them does either.
        monkeypatch.setattr(pulse_rate, "_TIE_MARGIN", 2.0)
        got = spectral_peaks(rows, 90.0, self.BAND)
        np.testing.assert_array_equal(got, want)
        assert len(seen) == 28

    def test_only_rows_with_close_peaks_take_the_full_spectrum(self, monkeypatch):
        fs, n_len = 90.0, 900
        rows = self.noisy_rows(40, n_len, fs, seed=9)
        # Each row's gap between its two strongest band bins, as a fraction of
        # the sum of its tapered magnitudes; the margin splits the rows in two.
        x = (rows - rows.mean(axis=-1, keepdims=True)) * np.hanning(n_len)
        n_fft = pulse_rate._fft_length(n_len, fs)
        bpm = np.arange(n_fft // 2 + 1) * (60.0 * fs / n_fft)
        band = (bpm >= self.BAND[0]) & (bpm <= self.BAND[1])
        top = np.sort(np.abs(np.fft.rfft(x, n_fft))[:, band], axis=-1)[:, -2:]
        gap = (top[:, 1] - top[:, 0]) / np.abs(x).sum(axis=-1)
        order = np.sort(gap)
        margin = np.sqrt(order[19] * order[20])
        assert order[20] > 1.001 * order[19]
        seen = self.spy_on_full_spectra(monkeypatch)
        monkeypatch.setattr(pulse_rate, "_TIE_MARGIN", margin)
        got = spectral_peaks(rows, fs, self.BAND)
        np.testing.assert_array_equal(seen, rows[gap <= margin])
        np.testing.assert_array_equal(
            got, [loop_reference.window_peak_rate(r, fs, self.BAND) for r in rows]
        )

    def test_ordinary_rows_need_no_full_spectrum(self, monkeypatch):
        seen = self.spy_on_full_spectra(monkeypatch)
        rows = self.noisy_rows(50, 900, 90.0, seed=10)
        got = spectral_peaks(rows, 90.0, self.BAND)
        assert seen == []
        np.testing.assert_array_equal(
            got, [loop_reference.window_peak_rate(r, 90.0, self.BAND) for r in rows]
        )

    def test_400hz_windows_equal_the_full_spectrum_loop(self):
        # 4,000-sample windows zero-padded to 65,536 bins, as the fused
        # contact-sensor reference is rated.
        fs, n_len = 400.0, 4000
        assert pulse_rate._fft_length(n_len, fs) == 65536
        rows = self.noisy_rows(12, n_len, fs, seed=11)
        got = spectral_peaks(list(rows), fs, self.BAND)
        np.testing.assert_array_equal(
            got, [loop_reference.window_peak_rate(r, fs, self.BAND) for r in rows]
        )

    def test_band_of_one_bin_rejected(self):
        with pytest.raises(ValueError, match="fewer than two spectrum bins"):
            spectral_peaks(np.ones((2, 900)), 90.0, (60.0, 60.2))
