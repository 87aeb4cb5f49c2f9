import numpy as np
import pytest

from bodyppg import PulseRateSeries, Waveform, mae, pearson_r, score_series, snr_harmonics


def series(times, rates, window_length_s=10.0):
    return PulseRateSeries(
        np.asarray(times, dtype=float),
        np.asarray(rates, dtype=float),
        window_length_s,
        (40.0, 180.0),
    )


class TestMae:
    def test_identical_series(self):
        s = series([5.0, 6.0, 7.0], [70.0, 71.0, 72.0])
        assert mae(s, s) == 0.0

    def test_constant_offset(self):
        ref = series([5.0, 6.0, 7.0], [70.0, 71.0, 72.0])
        pred = series([5.0, 6.0, 7.0], [72.0, 73.0, 74.0])
        assert mae(pred, ref) == pytest.approx(2.0)

    def test_no_matches_rejected(self):
        ref = series([5.0, 6.0], [70.0, 71.0])
        pred = series([50.0, 60.0], [70.0, 71.0])
        with pytest.raises(ValueError):
            mae(pred, ref)

    def test_unmatched_windows_dropped(self):
        ref = series([5.0, 6.0, 7.0], [70.0, 70.0, 70.0])
        pred = series([5.0, 6.0, 30.0], [71.0, 71.0, 160.0])
        assert mae(pred, ref) == pytest.approx(1.0)

    def test_window_length_mismatch_rejected(self):
        ref = series([5.0, 6.0], [70.0, 71.0], window_length_s=10.0)
        pred = series([5.0, 6.0], [70.0, 71.0], window_length_s=5.0)
        with pytest.raises(ValueError):
            mae(pred, ref)


class TestPearson:
    def test_identical(self):
        s = series([5.0, 6.0, 7.0], [70.0, 75.0, 72.0])
        assert pearson_r(s, s) == pytest.approx(1.0)

    def test_negated(self):
        ref = series([5.0, 6.0, 7.0], [70.0, 75.0, 72.0])
        pred = series([5.0, 6.0, 7.0], [150.0 - 70.0, 150.0 - 75.0, 150.0 - 72.0])
        assert pearson_r(pred, ref) == pytest.approx(-1.0)

    def test_offset_invariance(self):
        ref = series([5.0, 6.0, 7.0], [70.0, 75.0, 72.0])
        pred = series([5.0, 6.0, 7.0], [72.0, 77.0, 74.0])
        assert pearson_r(pred, ref) == pytest.approx(1.0)

    def test_zero_variance_rejected(self):
        ref = series([5.0, 6.0, 7.0], [70.0, 70.0, 70.0])
        pred = series([5.0, 6.0, 7.0], [70.0, 75.0, 72.0])
        with pytest.raises(ValueError):
            pearson_r(pred, ref)


class TestSnrHarmonics:
    def test_pure_tone_at_reference_capped(self):
        fs = 90.0
        t = np.arange(900) / fs
        tone = Waveform(np.sin(2 * np.pi * 1.2 * t), fs)
        ref = series([5.0], [72.0])
        assert snr_harmonics(tone, ref) == pytest.approx(60.0)

    def test_equal_power_interferer(self):
        fs = 90.0
        t = np.arange(900) / fs
        x = np.sin(2 * np.pi * 1.2 * t) + np.sin(2 * np.pi * (92.0 / 60.0) * t)
        ref = series([5.0], [72.0])
        assert abs(snr_harmonics(Waveform(x, fs), ref)) < 1.0

    def test_white_noise_negative(self):
        fs = 90.0
        negatives = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noise = Waveform(rng.standard_normal(900), fs)
            ref = series([5.0], [float(rng.uniform(45.0, 170.0))])
            if snr_harmonics(noise, ref) < 0.0:
                negatives += 1
        assert negatives == 100

    def test_amplitude_invariance(self):
        fs = 90.0
        rng = np.random.default_rng(9)
        x = np.sin(2 * np.pi * 1.2 * np.arange(2700) / fs) + 0.1 * rng.standard_normal(2700)
        ref = series([5.0, 15.0, 25.0], [72.0, 72.0, 72.0])
        a = snr_harmonics(Waveform(x, fs), ref)
        b = snr_harmonics(Waveform(42.0 * x, fs), ref)
        assert a == pytest.approx(b, abs=1e-9)

    def test_signal_shorter_than_window_rejected(self):
        ref = series([5.0], [72.0])
        with pytest.raises(ValueError):
            snr_harmonics(Waveform(np.ones(100), 90.0), ref)


class TestReports:
    def test_score_series_bundle(self):
        ref = series([5.0, 6.0, 7.0], [70.0, 75.0, 72.0])
        pred = series([5.0, 6.0, 7.0], [71.0, 76.0, 73.0])
        report = score_series(pred, ref)
        assert report.mae_bpm == pytest.approx(1.0)
        assert report.pearson_r == pytest.approx(1.0)
        assert report.n_windows == 3
        assert report.scope == "per-session"
        assert report.to_dict()["mae_bpm"] == pytest.approx(1.0)

