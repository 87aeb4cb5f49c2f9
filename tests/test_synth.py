import numpy as np
import pytest

from bodyppg import (
    PulseRateSeries,
    snr_harmonics,
    stft_pulse_rate,
    xcorr_lag,
)
from bodyppg.synth import (
    Burst,
    PulseModel,
    constant_rate,
    motion_burst_noise,
    ramp_rate,
    synth_pulse,
    synth_rgb_trace,
)
from bodyppg.rppg import pos


class TestSynthPulse:
    def test_deterministic(self):
        model = PulseModel(
            fs_hz=90.0, duration_s=20.0, rate_profile=constant_rate(72.0), noise_std=0.1, seed=42
        )
        a = synth_pulse(model)
        b = synth_pulse(model)
        assert np.array_equal(a.samples, b.samples)

    def test_periodicity_at_60_bpm(self):
        w = synth_pulse(
            PulseModel(fs_hz=90.0, duration_s=10.0, rate_profile=constant_rate(60.0), seed=0)
        )
        x = w.samples - np.mean(w.samples)
        ac = np.correlate(x, x, mode="full")[len(x) - 1 :]
        # strongest off-zero autocorrelation peak sits at one period
        assert int(np.argmax(ac[45:180])) + 45 == 90

    def test_delay_recovered_by_xcorr(self):
        kw = dict(fs_hz=400.0, duration_s=20.0, rate_profile=constant_rate(72.0),
                  harmonics=((1.0, 1.0, 0.0), (2.0, 0.3, 0.7)), noise_std=0.02)
        a = synth_pulse(PulseModel(seed=1, **kw))
        b = synth_pulse(PulseModel(seed=1, delay_s=0.050, **kw))
        est = xcorr_lag(a, b, 0.3)
        assert est.lag_s == pytest.approx(0.050, abs=2.5e-3)

    def test_delay_matches_time_shift(self):
        kw = dict(fs_hz=400.0, duration_s=20.0, rate_profile=constant_rate(64.0))
        delayed = synth_pulse(PulseModel(seed=0, delay_s=0.1, **kw)).samples
        plain = synth_pulse(PulseModel(seed=0, **kw)).samples
        shift = int(0.1 * 400.0)
        assert np.allclose(delayed[shift:], plain[:-shift], atol=1e-6)

    def test_ramp_profile_tracked(self):
        profile = ramp_rate(60.0, 90.0, 120.0)
        w = synth_pulse(PulseModel(fs_hz=90.0, duration_s=120.0, rate_profile=profile, seed=2))
        series = stft_pulse_rate(w)
        assert np.max(np.abs(series.rates_bpm - profile(series.times_s))) < 2.0

    def test_out_of_range_profile_rejected(self):
        model = PulseModel(fs_hz=90.0, duration_s=10.0, rate_profile=constant_rate(30.0))
        with pytest.raises(ValueError):
            synth_pulse(model)

    def test_fundamental_required(self):
        with pytest.raises(ValueError):
            PulseModel(fs_hz=90.0, duration_s=10.0, harmonics=((2.0, 1.0, 0.0),))


class TestSynthRgbTrace:
    def make_pulse(self, seed=0):
        return synth_pulse(
            PulseModel(fs_hz=90.0, duration_s=60.0, rate_profile=constant_rate(72.0), seed=seed)
        )

    def test_no_modulation_no_pulse(self):
        trace = synth_rgb_trace(
            self.make_pulse(),
            baseline=(0.6, 0.5, 0.4),
            modulation=(0.0, 0.0, 0.0),
            noise_std=0.001,
            seed=1,
        )
        out = pos(trace)
        ref = PulseRateSeries(np.array([30.0]), np.array([72.0]), 10.0, (40.0, 180.0))
        assert snr_harmonics(out, ref) < 0.0

    def test_achromatic_bursts_rejected(self):
        pulse = self.make_pulse(seed=2)
        trace = synth_rgb_trace(
            pulse,
            baseline=(0.6, 0.5, 0.4),
            modulation=(0.002, 0.006, 0.004),
            noise_std=0.0005,
            motion_bursts=[Burst(10.0, 14.0, 0.05), Burst(30.0, 33.0, 0.05)],
            seed=3,
        )
        out = pos(trace)
        r = np.corrcoef(out.samples, pulse.samples)[0, 1]
        assert r >= 0.95

    def test_deterministic(self):
        pulse = self.make_pulse(seed=4)
        kw = dict(
            baseline=(0.6, 0.5, 0.4),
            modulation=(0.002, 0.006, 0.004),
            noise_std=0.001,
            seed=5,
        )
        a = synth_rgb_trace(pulse, **kw)
        b = synth_rgb_trace(pulse, **kw)
        assert np.array_equal(a.channel_matrix(), b.channel_matrix())

    def test_positive_baseline_required(self):
        with pytest.raises(ValueError):
            synth_rgb_trace(self.make_pulse(), baseline=(0.0, 0.5, 0.4), modulation=(0, 0, 0))


class TestMotionBurstNoise:
    def test_zero_outside_bursts(self):
        out = motion_burst_noise(400.0, 10.0, [Burst(2.0, 4.0, 5.0)], seed=0)
        t = np.arange(out.size) / 400.0
        assert np.all(out[t < 1.9] == 0.0)
        assert np.all(out[t > 4.1] == 0.0)
        inside = out[(t > 2.2) & (t < 3.8)]
        assert np.std(inside) > 1.0

    def test_no_bursts_all_zero(self):
        assert np.all(motion_burst_noise(400.0, 5.0, [], seed=0) == 0.0)
