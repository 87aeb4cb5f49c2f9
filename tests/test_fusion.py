import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from bodyppg.fusion import _crop_to_common_span
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
        # Channels are added in site-name order, so any permutation of the
        # bank fuses to the same bits, with flat (skipped) windows too.
        bank = make_bank(n_channels=4, duration_s=20.0, corrupt=(1,))
        channels = list(bank.channels)
        site, wave = channels[2]
        flat = wave.samples.copy()
        flat[int(3 * FS) : int(15 * FS)] = 2.0
        channels[2] = (site, Waveform(flat, FS))
        fused, diags = fuse_ground_truth_report(SensorBank(tuple(channels), bank.oximeter_rate))
        assert diags.skipped_channel_windows[site] > 0
        for order in ([3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]):
            permuted = SensorBank(tuple(channels[i] for i in order), bank.oximeter_rate)
            fused_p, diags_p = fuse_ground_truth_report(permuted)
            np.testing.assert_array_equal(fused_p.samples, fused.samples)
            assert diags_p.to_dict() == diags.to_dict()

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


def oracle_bank():
    """Four channels with a motion burst, a flat stretch in one channel, a
    span where all are flat, a ramping oximeter and a late start."""
    bank = make_bank(n_channels=4, duration_s=40.0, corrupt=(2,), seed0=500)
    channels = [wave.samples.copy() for _, wave in bank.channels]
    channels[1][int(5 * FS) : int(20 * FS)] = 3.0  # flat for 15 s
    for c in channels:  # every channel flat from 24 s to 36 s
        c[int(24 * FS) : int(36 * FS)] = -1.5
    times = np.arange(0.0, 40.0, 1.0 / 60.0)
    oximeter = PulseRateSeries(times, np.linspace(60.0, 110.0, times.size), 0.0, (30.0, 240.0))
    return SensorBank(
        channels=tuple(
            (site, Waveform(c, FS, 0.5)) for (site, _), c in zip(bank.channels, channels)
        ),
        oximeter_rate=oximeter,
    )


class TestFusionOracle:
    """Batched per-window filtering equals the per-window loop exactly."""

    def test_equals_sum_first_loop(self):
        bank = oracle_bank()
        plan = WindowPlan(10.0, 0.25)
        fused, diags = fuse_ground_truth_report(bank, plan)
        want, want_diags = loop_reference.fuse_ground_truth_report(bank, plan)
        np.testing.assert_array_equal(fused.samples, want.samples)
        assert fused.start_time_s == want.start_time_s
        assert diags.to_dict() == want_diags.to_dict()
        assert diags.skipped_channel_windows["site1"] > len(diags.empty_window_times_s) > 0

    def test_equals_sum_first_loop_with_clamped_bands(self):
        # At 5.1 Hz the oximeter's 40-140 bpm ramp drives both band edges
        # into their clamps: the 20 bpm floor and 0.99 of Nyquist (151.47 bpm).
        fs = 5.1
        rng = np.random.default_rng(11)
        t = np.arange(int(60 * fs)) / fs
        channels = tuple(
            (f"s{i}", Waveform(np.sin(2 * np.pi * 1.5 * t) + 0.3 * rng.standard_normal(t.size), fs))
            for i in range(3)
        )
        times = np.arange(0.0, 60.0, 0.5)
        oximeter = PulseRateSeries(times, np.linspace(40.0, 140.0, times.size), 0.0, (30.0, 240.0))
        bank = SensorBank(channels, oximeter)
        plan = WindowPlan(10.0, 0.25)
        fused, diags = fuse_ground_truth_report(bank, plan)
        want, want_diags = loop_reference.fuse_ground_truth_report(bank, plan)
        np.testing.assert_array_equal(fused.samples, want.samples)
        assert diags.to_dict() == want_diags.to_dict()

    @pytest.mark.parametrize("nine_channels", [False, True], ids=["flat-stretches", "nine-channels"])
    def test_within_rounding_of_filtering_each_channel(self, nine_channels):
        # Filtering the channel sum instead of each channel only reorders
        # rounding: 4.7e-10 on nine channels and 5.4e-9 where flat stretches
        # leave a small envelope to divide by, against unit-amplitude output.
        bank = make_bank(corrupt=(2, 5), seed0=900) if nine_channels else oracle_bank()
        plan = WindowPlan(10.0, 0.25)
        fused, diags = fuse_ground_truth_report(bank, plan)
        want, want_diags = loop_reference.fuse_ground_truth_report_per_channel(bank, plan)
        np.testing.assert_allclose(fused.samples, want.samples, rtol=0.0, atol=1e-8)
        assert diags.to_dict() == want_diags.to_dict()


class TestChannelOrderProperty:
    """Fusion does not depend on the order of the bank's channels.

    Each window adds its filtered rows in channel order, so a permutation
    changes only the rounding of those sums: the fused samples agree to
    within CHANNEL_ORDER_ATOL, and the diagnostics agree exactly.
    """

    CHANNEL_ORDER_ATOL = 1e-12

    @settings(max_examples=15, deadline=None)
    @given(
        order=st.permutations(range(5)),
        seed0=st.integers(0, 10_000),
        flat_channel=st.sampled_from([None, 0, 3]),
    )
    def test_permuted_channels_fuse_alike(self, order, seed0, flat_channel):
        bank = make_bank(n_channels=5, duration_s=20.0, corrupt=(1,), seed0=seed0)
        channels = list(bank.channels)
        if flat_channel is not None:  # flat for 12 s: skipped in the windows inside it
            site, wave = channels[flat_channel]
            flat = wave.samples.copy()
            flat[int(4 * FS) : int(16 * FS)] = 2.0
            channels[flat_channel] = (site, Waveform(flat, FS))
        times = np.arange(0.0, 20.0, 1.0 / 60.0)
        oximeter = PulseRateSeries(times, np.linspace(65.0, 85.0, times.size), 0.0, (30.0, 240.0))
        plan = WindowPlan(10.0, 0.5)
        fused, diags = fuse_ground_truth_report(SensorBank(tuple(channels), oximeter), plan)
        permuted = SensorBank(tuple(channels[i] for i in order), oximeter)
        fused_p, diags_p = fuse_ground_truth_report(permuted, plan)
        np.testing.assert_allclose(fused_p.samples, fused.samples, rtol=0.0,
                                   atol=self.CHANNEL_ORDER_ATOL)
        assert diags_p.to_dict() == diags.to_dict()


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


class TestCropToCommonSpan:
    def test_crops_are_views_of_the_channels(self):
        rng = np.random.default_rng(3)
        a = Waveform(rng.standard_normal(4000), FS, start_time_s=0.0)
        b = Waveform(rng.standard_normal(4200), FS, start_time_s=0.25)
        bank = SensorBank((("a", a), ("b", b)), oximeter_series(72.0, 12.0))
        (_, ca), (_, cb) = _crop_to_common_span(bank)
        assert len(ca) == len(cb) == 3900
        assert ca.start_time_s == cb.start_time_s == 0.25
        np.testing.assert_array_equal(ca.samples, a.samples[100:])
        np.testing.assert_array_equal(cb.samples, b.samples[:3900])
        assert np.shares_memory(ca.samples, a.samples)
        assert np.shares_memory(cb.samples, b.samples)


class TestSensorBank:
    def test_needs_a_channel(self):
        with pytest.raises(ValueError):
            SensorBank(channels=(), oximeter_rate=oximeter_series(72.0, 10.0))

    def test_oximeter_range_enforced(self):
        wave = Waveform(np.random.default_rng(0).standard_normal(4000), FS)
        bad = PulseRateSeries(np.array([0.0, 1.0]), np.array([10.0, 72.0]), 0.0, (5.0, 240.0))
        with pytest.raises(ValueError):
            SensorBank(channels=(("a", wave),), oximeter_rate=bad)

    def test_duplicate_sites_rejected_by_name(self):
        wave = Waveform(np.random.default_rng(0).standard_normal(4000), FS)
        with pytest.raises(ValueError, match="'wrist'"):
            SensorBank(
                channels=(("wrist", wave), ("ear", wave), ("wrist", wave)),
                oximeter_rate=oximeter_series(72.0, 10.0),
            )

    def test_mismatched_rates_rejected(self):
        a = Waveform(np.ones(400), 400.0)
        b = Waveform(np.ones(90), 90.0)
        with pytest.raises(ValueError):
            SensorBank(channels=(("a", a), ("b", b)), oximeter_rate=oximeter_series(72.0, 1.0))
