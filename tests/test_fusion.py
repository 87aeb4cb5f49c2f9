import numpy as np
import pytest

from bodyppg import (
    BandpassSpec,
    PulseRateSeries,
    SensorBank,
    Waveform,
    WindowPlan,
    bandpass_zero_phase,
    design_bandpass,
    divide_by_envelope,
    fuse_ground_truth,
    fuse_ground_truth_report,
    hilbert_envelope,
    reference_pulse_rate,
    z_normalize,
)
from bodyppg.synth import Burst, PulseModel, constant_rate, motion_burst_noise, ramp_rate, synth_pulse

import loop_reference

FS = 400.0


def oximeter_series(bpm, duration_s, rate_hz=60.0):
    n = int(duration_s * rate_hz)
    times = np.arange(n) / rate_hz
    return PulseRateSeries(times, np.full(n, bpm), 0.0, (30.0, 240.0))


def make_bank(n_channels=9, duration_s=60.0, noise=0.05, corrupt=(), burst_amp=8.0, seed0=100):
    channels = []
    for i in range(n_channels):
        model = PulseModel(
            fs_hz=FS,
            duration_s=duration_s,
            rate_profile=constant_rate(72.0),
            harmonics=((1.0, 1.0, 0.0), (2.0, 0.3, 1.1)),
            noise_std=noise,
            seed=seed0 + i,
        )
        x = synth_pulse(model).samples
        if i in corrupt:
            x = x + motion_burst_noise(FS, duration_s, [Burst(2.0, 5.0, burst_amp)], seed=200 + i)
        channels.append((f"site{i}", Waveform(x, FS)))
    return SensorBank(channels=tuple(channels), oximeter_rate=oximeter_series(72.0, duration_s))


def clean_reference(duration_s=60.0):
    clean = synth_pulse(
        PulseModel(
            fs_hz=FS,
            duration_s=duration_s,
            rate_profile=constant_rate(72.0),
            harmonics=((1.0, 1.0, 0.0), (2.0, 0.3, 1.1)),
            seed=0,
        )
    )
    coeffs = design_bandpass(BandpassSpec(2, 42.0, 102.0), FS)
    return divide_by_envelope(bandpass_zero_phase(z_normalize(clean), coeffs))


class TestFusion:
    def test_identical_clean_channels(self):
        bank = make_bank(noise=0.02)
        fused = fuse_ground_truth(bank)
        rates = reference_pulse_rate(fused)
        assert np.max(np.abs(rates.rates_bpm - 72.0)) < 0.5
        env = hilbert_envelope(fused).samples
        lo, hi = int(0.1 * len(env)), int(0.9 * len(env))
        assert np.max(np.abs(env[lo:hi] - 1.0)) < 0.05

    def test_robust_to_corrupted_channels(self):
        bank = make_bank(corrupt=(1, 4, 7))
        fused = fuse_ground_truth(bank)
        ref = clean_reference()
        r_fused = np.corrcoef(fused.samples, ref.samples)[0, 1]
        assert r_fused >= 0.95
        for i in (1, 4, 7):
            channel = z_normalize(bank.channels[i][1])
            r_chan = np.corrcoef(channel.samples, ref.samples)[0, 1]
            assert r_chan < 0.8

    def test_single_channel_bank(self):
        bank = make_bank(n_channels=1, duration_s=30.0)
        site, wave = bank.channels[0]
        # one window covering the whole signal reduces fusion to the direct
        # band-pass + envelope normalization of that channel
        fused = fuse_ground_truth(bank, WindowPlan(30.0, 30.0))
        coeffs = design_bandpass(BandpassSpec(2, 42.0, 102.0), FS)
        direct = divide_by_envelope(bandpass_zero_phase(z_normalize(wave), coeffs))
        assert np.max(np.abs(fused.samples - direct.samples)) < 1e-12

    def test_channel_order_invariance(self):
        bank = make_bank(n_channels=4, duration_s=20.0)
        shuffled = SensorBank(
            channels=tuple(reversed(bank.channels)), oximeter_rate=bank.oximeter_rate
        )
        a = fuse_ground_truth(bank)
        b = fuse_ground_truth(shuffled)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-9

    def test_channel_scale_invariance(self):
        bank = make_bank(n_channels=3, duration_s=20.0)
        site0, wave0 = bank.channels[0]
        scaled = SensorBank(
            channels=((site0, wave0.with_samples(wave0.samples * 37.0)),) + bank.channels[1:],
            oximeter_rate=bank.oximeter_rate,
        )
        a = fuse_ground_truth(bank)
        b = fuse_ground_truth(scaled)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-9

    def test_envelope_flat_for_noisy_banks(self):
        bank = make_bank(n_channels=5, duration_s=30.0, noise=0.3, seed0=400)
        fused = fuse_ground_truth(bank)
        env = hilbert_envelope(fused).samples
        lo, hi = int(0.1 * len(env)), int(0.9 * len(env))
        assert np.max(np.abs(env[lo:hi] - 1.0)) < 0.1

    def test_zero_variance_channel_windows_skipped(self):
        model = PulseModel(
            fs_hz=FS, duration_s=30.0, rate_profile=constant_rate(72.0), noise_std=0.05, seed=1
        )
        good = synth_pulse(model).samples
        dead = np.zeros_like(good)
        bank = SensorBank(
            channels=(("good", Waveform(good, FS)), ("dead", Waveform(dead, FS))),
            oximeter_rate=oximeter_series(72.0, 30.0),
        )
        fused, diags = fuse_ground_truth_report(bank)
        assert diags.skipped_channel_windows["dead"] == diags.n_windows
        assert "good" not in diags.skipped_channel_windows
        assert not diags.empty_window_times_s

    def test_all_channels_dead_flagged(self):
        dead = Waveform(np.zeros(int(30 * FS)), FS)
        bank = SensorBank(
            channels=(("a", dead), ("b", dead)),
            oximeter_rate=oximeter_series(72.0, 30.0),
        )
        fused, diags = fuse_ground_truth_report(bank)
        assert len(diags.empty_window_times_s) == diags.n_windows
        assert np.all(fused.samples == 0.0)

    def test_coarse_stride_matches_per_sample_stride(self):
        # the default 0.25 s stride stands in for a one-sample stride; away
        # from the first and last half window the two agree to well under
        # 1e-3 RMS (edge regions differ in window coverage)
        bank = make_bank(n_channels=3, duration_s=14.0, noise=0.05, seed0=300)
        fine = fuse_ground_truth(bank, WindowPlan(10.0, 1.0 / FS))
        coarse = fuse_ground_truth(bank, WindowPlan(10.0, 0.25))
        half_window = int(5.0 * FS)
        d = fine.samples[half_window:-half_window] - coarse.samples[half_window:-half_window]
        assert np.sqrt(np.mean(d**2)) < 1e-3


class TestFusionOracle:
    """Batched per-window filtering equals the per-channel loop exactly."""

    def test_equals_per_channel_loop(self):
        bank = make_bank(n_channels=4, duration_s=40.0, corrupt=(2,), seed0=500)
        channels = [wave.samples.copy() for _, wave in bank.channels]
        channels[1][int(5 * FS) : int(20 * FS)] = 3.0  # flat for 15 s
        for c in channels:  # every channel flat from 24 s to 36 s
            c[int(24 * FS) : int(36 * FS)] = -1.5
        times = np.arange(0.0, 40.0, 1.0 / 60.0)
        oximeter = PulseRateSeries(times, np.linspace(60.0, 110.0, times.size), 0.0, (30.0, 240.0))
        bank = SensorBank(
            channels=tuple(
                (site, Waveform(c, FS, 0.5))
                for (site, _), c in zip(bank.channels, channels)
            ),
            oximeter_rate=oximeter,
        )
        plan = WindowPlan(10.0, 0.25)
        fused, diags = fuse_ground_truth_report(bank, plan)
        want, want_diags = loop_reference.fuse_ground_truth_report(bank, plan)
        np.testing.assert_array_equal(fused.samples, want.samples)
        assert fused.start_time_s == want.start_time_s
        assert diags.to_dict() == want_diags.to_dict()
        assert diags.skipped_channel_windows["site1"] > len(diags.empty_window_times_s) > 0


class TestOximeterCoverage:
    def test_short_stream_warns_naming_both_spans(self, caplog):
        bank = make_bank(n_channels=2, duration_s=30.0)
        short = SensorBank(bank.channels, oximeter_series(72.0, 10.0))
        with caplog.at_level("WARNING", logger="bodyppg.fusion"):
            fused, diags = fuse_ground_truth_report(short)
        messages = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(messages) == 1
        assert "oximeter stream covers 0.000-9.983 s" in messages[0]
        assert "sensors' common span 0.000-30.000 s" in messages[0]
        # the diagnostics are the same as with a full-length stream
        _, full_diags = fuse_ground_truth_report(bank)
        assert diags.to_dict() == full_diags.to_dict()

    def test_full_stream_is_silent(self, caplog):
        with caplog.at_level("WARNING", logger="bodyppg.fusion"):
            fuse_ground_truth_report(make_bank(n_channels=2, duration_s=30.0))
        assert not [r for r in caplog.records if r.levelname == "WARNING"]


class TestReferencePulseRate:
    def test_constant_rate(self):
        bank = make_bank(n_channels=3, duration_s=30.0, noise=0.02)
        series = reference_pulse_rate(fuse_ground_truth(bank))
        assert np.max(np.abs(series.rates_bpm - 72.0)) < 0.5

    def test_ramp_tracked(self):
        profile = ramp_rate(60.0, 90.0, 120.0)
        channels = []
        for i in range(3):
            model = PulseModel(
                fs_hz=FS, duration_s=120.0, rate_profile=profile, noise_std=0.05, seed=500 + i
            )
            channels.append((f"s{i}", synth_pulse(model)))
        n_ox = int(60 * 120.0)
        t_ox = np.arange(n_ox) / 60.0
        ox = PulseRateSeries(t_ox, profile(t_ox), 0.0, (30.0, 240.0))
        bank = SensorBank(channels=tuple(channels), oximeter_rate=ox)
        series = reference_pulse_rate(fuse_ground_truth(bank))
        truth = profile(series.times_s)
        assert np.max(np.abs(series.rates_bpm - truth)) < 2.0

    def test_window_longer_than_signal(self):
        bank = make_bank(n_channels=1, duration_s=12.0)
        fused = fuse_ground_truth(bank)
        series = reference_pulse_rate(fused, WindowPlan(60.0, 1.0))
        assert len(series) == 0


class TestSensorBank:
    def test_needs_a_channel(self):
        with pytest.raises(ValueError):
            SensorBank(channels=(), oximeter_rate=oximeter_series(72.0, 10.0))

    def test_oximeter_range_enforced(self):
        wave = Waveform(np.random.default_rng(0).standard_normal(4000), FS)
        bad = PulseRateSeries(np.array([0.0, 1.0]), np.array([10.0, 72.0]), 0.0, (5.0, 240.0))
        with pytest.raises(ValueError):
            SensorBank(channels=(("a", wave),), oximeter_rate=bad)

    def test_mismatched_rates_rejected(self):
        a = Waveform(np.ones(400), 400.0)
        b = Waveform(np.ones(90), 90.0)
        with pytest.raises(ValueError):
            SensorBank(channels=(("a", a), ("b", b)), oximeter_rate=oximeter_series(72.0, 1.0))
