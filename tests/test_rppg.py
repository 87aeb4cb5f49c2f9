import numpy as np
import pytest

from bodyppg import (
    BandpassSpec,
    MethodConfig,
    RGBTrace,
    Waveform,
    bandpass_zero_phase,
    chrom,
    design_bandpass,
    extract_pulse,
    pos,
    stft_pulse_rate,
)
from bodyppg.rppg import DEFAULT_POST_FILTER
from bodyppg.synth import PulseModel, constant_rate, synth_pulse, synth_rgb_trace

import loop_reference


@pytest.fixture(scope="module")
def pulse():
    return synth_pulse(
        PulseModel(fs_hz=90.0, duration_s=60.0, rate_profile=constant_rate(72.0), seed=3)
    )


@pytest.fixture(scope="module")
def chromatic_trace(pulse):
    # pulse injected along an unequal per-channel direction
    return synth_rgb_trace(
        pulse,
        baseline=(0.6, 0.5, 0.4),
        modulation=(0.003, 0.008, 0.005),
        noise_std=0.0005,
        seed=4,
    )


def banded_reference(pulse):
    coeffs = design_bandpass(BandpassSpec(4, 40.0, 180.0), pulse.sample_rate_hz)
    return bandpass_zero_phase(pulse, coeffs)


@pytest.mark.parametrize("method", [chrom, pos])
class TestBothMethods:
    def test_chromatic_pulse_recovered(self, method, pulse, chromatic_trace):
        out = method(chromatic_trace)
        ref = banded_reference(pulse)
        r = np.corrcoef(out.samples, ref.samples)[0, 1]
        assert r >= 0.99

    def test_achromatic_modulation_rejected(self, method, pulse):
        trace = synth_rgb_trace(
            pulse, baseline=(0.6, 0.5, 0.4), modulation=(0.005, 0.005, 0.005), seed=5
        )
        out = method(trace)
        assert np.max(np.abs(out.samples)) < 1e-9

    def test_constant_trace_zero_output(self, method):
        const = Waveform(np.full(2000, 0.5), 90.0)
        trace = RGBTrace(const, const, const)
        out = method(trace)
        assert np.all(out.samples == 0.0)

    def test_gain_invariance(self, method, chromatic_trace):
        scaled = RGBTrace(
            chromatic_trace.r.with_samples(chromatic_trace.r.samples * 3.7),
            chromatic_trace.g.with_samples(chromatic_trace.g.samples * 3.7),
            chromatic_trace.b.with_samples(chromatic_trace.b.samples * 3.7),
            chromatic_trace.roi_label,
        )
        a = method(chromatic_trace)
        b = method(scaled)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-6

    def test_channel_permutation_changes_output(self, method, chromatic_trace):
        swapped = RGBTrace(
            chromatic_trace.g, chromatic_trace.r, chromatic_trace.b, "swapped"
        )
        a = method(chromatic_trace)
        b = method(swapped)
        assert np.max(np.abs(a.samples - b.samples)) > 0.1

    def test_output_rate_and_duration(self, method, chromatic_trace):
        out = method(chromatic_trace)
        assert out.sample_rate_hz == chromatic_trace.sample_rate_hz
        assert len(out) == len(chromatic_trace)
        assert out.start_time_s == chromatic_trace.start_time_s

    def test_zero_channel_mean_names_segment(self, method):
        fs = 90.0
        n = 900
        zero_tail = np.ones(n)
        zero_tail[720:] = 0.0
        trace = RGBTrace(
            Waveform(zero_tail, fs), Waveform(np.ones(n), fs), Waveform(np.ones(n), fs)
        )
        with pytest.raises(ValueError, match="segment"):
            method(trace)

    def test_trace_shorter_than_segment_rejected(self, method, pulse):
        trace = synth_rgb_trace(
            pulse, baseline=(0.6, 0.5, 0.4), modulation=(0.003, 0.008, 0.005), seed=6
        )
        short = trace.slice(0, 90)  # 1 s < 1.6 s segment
        with pytest.raises(ValueError):
            method(short)


class TestPosSpecifics:
    def test_downstream_rate_recovery(self, pulse, chromatic_trace):
        out = pos(chromatic_trace)
        series = stft_pulse_rate(out)
        assert np.max(np.abs(series.rates_bpm - 72.0)) < 0.5

    def test_single_segment_mode(self, pulse, chromatic_trace):
        ten_s = chromatic_trace.slice(0, 900)
        cfg = MethodConfig(method="pos", internal_window_s=10.0)
        out = pos(ten_s, cfg)
        series = stft_pulse_rate(out, None)
        assert len(series) == 1
        assert abs(series.rates_bpm[0] - 72.0) < 0.5


@pytest.mark.parametrize("method", ["pos", "chrom"])
class TestPerSegmentOracle:
    """Both methods give the bits of the per-segment loop with np.std and np.mean
    that ``loop_reference`` keeps, in the one-segment and the overlap-add case."""

    @staticmethod
    def assert_same_bits(trace, cfg):
        got = extract_pulse(trace, cfg)
        want = loop_reference.extract_pulse(trace, cfg)
        assert got.samples.tobytes() == want.samples.tobytes()
        assert (got.sample_rate_hz, got.start_time_s) == (want.sample_rate_hz, want.start_time_s)

    def test_grid_cell_window(self, method, chromatic_trace):
        # 900 samples at 90 Hz under a 10 s segment: one segment, as grid
        # scoring runs each cell window.
        for start in (0, 900, 2700):
            cell = chromatic_trace.slice(start, start + 900)
            self.assert_same_bits(cell, MethodConfig(method=method, internal_window_s=10.0))

    def test_long_trace_in_short_segments(self, method, chromatic_trace):
        assert chromatic_trace.duration_s == 60.0
        self.assert_same_bits(chromatic_trace, MethodConfig(method=method))

    @pytest.mark.parametrize("window_s", [1.6, 10.0])
    def test_constant_and_achromatic_traces(self, method, pulse, window_s):
        const = Waveform(np.full(900, 0.5), 90.0)
        achromatic = synth_rgb_trace(
            pulse, baseline=(0.6, 0.5, 0.4), modulation=(0.005, 0.005, 0.005), seed=5
        ).slice(0, 900)
        cfg = MethodConfig(method=method, internal_window_s=window_s)
        self.assert_same_bits(RGBTrace(const, const, const), cfg)
        self.assert_same_bits(achromatic, cfg)

    @pytest.mark.parametrize("window_s, zero_from", [(1.6, 720), (10.0, 0)])
    def test_zero_channel_mean_message(self, method, window_s, zero_from):
        red = np.ones(900)
        red[zero_from:] = 0.0
        ones = Waveform(np.ones(900), 90.0, 2.5)
        trace = RGBTrace(Waveform(red, 90.0, 2.5), ones, ones)
        cfg = MethodConfig(method=method, internal_window_s=window_s)
        with pytest.raises(ValueError) as got:
            extract_pulse(trace, cfg)
        with pytest.raises(ValueError) as want:
            loop_reference.extract_pulse(trace, cfg)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"zero channel mean in segment starting at sample {zero_from} ")

    def test_too_short_trace_message(self, method, chromatic_trace):
        short = chromatic_trace.slice(0, 90)
        cfg = MethodConfig(method=method)
        with pytest.raises(ValueError) as got:
            extract_pulse(short, cfg)
        with pytest.raises(ValueError) as want:
            loop_reference.extract_pulse(short, cfg)
        assert str(got.value) == str(want.value) == "trace of 1 s is shorter than the 1.6 s segment"


class TestConfig:
    def test_defaults(self):
        assert DEFAULT_POST_FILTER == BandpassSpec(4, 40.0, 180.0)
        assert MethodConfig().internal_window_s == pytest.approx(1.6)

    def test_dispatch(self, chromatic_trace):
        a = extract_pulse(chromatic_trace, MethodConfig(method="chrom"))
        b = chrom(chromatic_trace)
        assert np.array_equal(a.samples, b.samples)

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            MethodConfig(method="ica")

    def test_too_short_segment_rejected(self):
        with pytest.raises(ValueError):
            MethodConfig(internal_window_s=0.2)


class TestRGBTrace:
    def test_channel_mismatch_rejected(self):
        a = Waveform(np.ones(100), 90.0)
        b = Waveform(np.ones(101), 90.0)
        with pytest.raises(ValueError):
            RGBTrace(a, b, a)

    def test_negative_values_rejected(self):
        a = Waveform(np.ones(100), 90.0)
        bad = Waveform(np.concatenate([[-0.1], np.ones(99)]), 90.0)
        with pytest.raises(ValueError):
            RGBTrace(a, a, bad)

    def test_slice_shares_channel_samples(self):
        t = np.arange(300) / 90.0
        trace = RGBTrace(*(Waveform(1.0 + 0.1 * np.sin(t + k), 90.0, 2.0) for k in range(3)))
        part = trace.slice(90, 180)
        assert (len(part), part.start_time_s) == (90, 3.0)
        for whole, view in zip((trace.r, trace.g, trace.b), (part.r, part.g, part.b)):
            assert np.shares_memory(view.samples, whole.samples)
            np.testing.assert_array_equal(view.samples, whole.samples[90:180])
