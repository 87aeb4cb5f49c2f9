import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps
from scipy.fft import next_fast_len

from bodyppg import (
    BandpassSpec,
    Waveform,
    WindowPlan,
    bandpass_zero_phase,
    design_bandpass,
    design_bandpasses,
    divide_by_envelope,
    hilbert_envelope,
    resample_linear,
    window_starts,
    windows,
    z_normalize,
)
from bodyppg.signals import deviations, smooth_length

import loop_reference


class TestWaveform:
    def test_validation(self):
        with pytest.raises(ValueError):
            Waveform(np.array([]), 90.0)
        with pytest.raises(ValueError):
            Waveform(np.array([1.0, np.nan]), 90.0)
        with pytest.raises(ValueError):
            Waveform(np.ones(10), 0.0)

    def test_samples_read_only(self):
        w = Waveform(np.ones(10), 90.0)
        with pytest.raises(ValueError):
            w.samples[0] = 5.0

    def test_time_axis(self):
        w = Waveform(np.zeros(90), 90.0, start_time_s=2.0)
        assert w.duration_s == pytest.approx(1.0)
        assert w.times()[0] == 2.0
        assert w.times()[-1] == pytest.approx(2.0 + 89 / 90.0)

    def test_outside_arrays_copied(self):
        # A read-only view of a writeable array can still change under it.
        base = np.arange(10.0)
        view = base[:]
        view.flags.writeable = False
        w = Waveform(view, 90.0)
        base[0] = 99.0
        assert w.samples[0] == 0.0
        assert not np.shares_memory(w.samples, base)


class TestViews:
    """Slices and windows share their parent's read-only buffer."""

    @staticmethod
    def assert_read_only_view(view, parent):
        assert np.shares_memory(view.samples, parent.samples)
        assert not view.samples.flags.writeable
        with pytest.raises(ValueError):
            view.samples[0] = 5.0

    def test_slice_shares_parent_samples(self):
        w = Waveform(np.arange(100.0), 50.0, start_time_s=3.0)
        part = w.slice(10, 40)
        self.assert_read_only_view(part, w)
        np.testing.assert_array_equal(part.samples, np.arange(10.0, 40.0))
        assert (len(part), part.sample_rate_hz, part.start_time_s) == (30, 50.0, 3.2)
        self.assert_read_only_view(part.slice(5, 6), w)

    @pytest.mark.parametrize("bounds", [(-1, 5), (5, 5), (6, 5), (0, 101), (100, 101)])
    def test_bad_slice_bounds_raise(self, bounds):
        w = Waveform(np.arange(100.0), 50.0)
        with pytest.raises(ValueError, match="bad slice"):
            w.slice(*bounds)

    def test_every_window_is_a_view(self):
        w = Waveform(np.sin(np.arange(2000) / 7.0), 100.0, start_time_s=1.0)
        wins = windows(w, WindowPlan(2.0, 0.37))
        assert len(wins) > 40
        for start, seg in wins:
            self.assert_read_only_view(seg, w)
            np.testing.assert_array_equal(seg.samples, w.samples[start : start + 200])
            assert seg.start_time_s == 1.0 + start / 100.0


class TestDesignBandpass:
    def test_minus_3db_at_cutoffs_order4_90hz(self):
        # oracle: evaluate the transfer function directly at the cutoffs
        coeffs = design_bandpass(BandpassSpec(4, 40.0, 180.0), 90.0)
        response = coeffs.response_db([40.0 / 60.0, 180.0 / 60.0])
        assert np.all(np.abs(response - (-3.0)) < 0.5)

    def test_minus_3db_at_cutoffs_order2_400hz(self):
        coeffs = design_bandpass(BandpassSpec(2, 72.0 - 30.0, 72.0 + 30.0), 400.0)
        response = coeffs.response_db([0.7, 1.7])
        assert np.all(np.abs(response - (-3.0)) < 0.5)

    def test_cutoff_at_nyquist_rejected(self):
        with pytest.raises(ValueError):
            design_bandpass(BandpassSpec(4, 40.0, 180.0), 1.0)

    def test_non_positive_order_rejected(self):
        with pytest.raises(ValueError):
            BandpassSpec(0, 40.0, 180.0)
        with pytest.raises(ValueError):
            BandpassSpec(-2, 40.0, 180.0)

    def test_band_ordering_rejected(self):
        with pytest.raises(ValueError):
            BandpassSpec(4, 180.0, 40.0)

    def test_poles_inside_unit_circle(self):
        for order in (2, 4):
            for fs in (60.0, 90.0, 400.0):
                coeffs = design_bandpass(BandpassSpec(order, 40.0, 180.0), fs)
                assert np.max(np.abs(coeffs.poles())) < 1.0


    def test_designs_are_shared_and_read_only(self):
        spec = BandpassSpec(4, 40.0, 180.0)
        coeffs = design_bandpass(spec, 90.0)
        assert design_bandpass(BandpassSpec(4, 40.0, 180.0), 90.0) is coeffs
        b, a = sps.butter(4, [40.0 / 60.0, 3.0], btype="bandpass", fs=90.0)
        np.testing.assert_array_equal(coeffs.b, b)
        np.testing.assert_array_equal(coeffs.a, a)
        for arr in (coeffs.b, coeffs.a):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.parametrize("fs", [30.0, 90.0, 400.0])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_equals_scipy_butter(self, fs, order):
        # 1,000 designs per rate and order, 12,000 in all, made in one batch;
        # the first 25 also one at a time through design_bandpass.
        rng = np.random.default_rng(int(fs) * 10 + order)
        nyquist_bpm = fs / 2.0 * 60.0
        pairs = np.sort(rng.uniform(1.0, 0.99 * nyquist_bpm, (1000, 2)), axis=1)
        batch = design_bandpasses(order, pairs[:, 0], pairs[:, 1], fs)
        assert len(batch) == len(pairs)
        for i, ((low, high), batched) in enumerate(zip(pairs.tolist(), batch)):
            spec = BandpassSpec(order, low, high)
            b, a = sps.butter(order, [low / 60.0, high / 60.0], btype="bandpass", fs=fs)
            zi = sps.lfilter_zi(b, a)
            single = [design_bandpass(spec, fs)] if i < 25 else []
            for coeffs in [batched, *single]:
                assert coeffs.spec == spec
                np.testing.assert_array_equal(coeffs.b, b)
                np.testing.assert_array_equal(coeffs.a, a)
                np.testing.assert_array_equal(coeffs.zi, zi)

    def test_batch_rejects_a_bad_pair(self):
        with pytest.raises(ValueError, match="low_bpm < high_bpm"):
            design_bandpasses(2, [40.0, 90.0], [100.0, 80.0], 400.0)
        with pytest.raises(ValueError, match="Nyquist"):
            design_bandpasses(2, [40.0, 40.0], [100.0, 1500.0], 50.0)
        assert design_bandpasses(2, [], [], 400.0) == []


class TestZeroPhaseFilter:
    def test_in_band_tone_zero_lag_and_amplitude(self):
        fs = 90.0
        t = np.arange(int(30 * fs)) / fs
        w = Waveform(np.sin(2 * np.pi * 1.2 * t), fs)
        coeffs = design_bandpass(BandpassSpec(4, 40.0, 180.0), fs)
        y = bandpass_zero_phase(w, coeffs)
        trim = int(2 * fs)
        xs = w.samples[trim:-trim]
        ys = y.samples[trim:-trim]
        # brute-force oracle: the lag of maximum cross-correlation must be 0
        corr = np.correlate(ys, xs, mode="full")
        lag = int(np.argmax(corr)) - (xs.size - 1)
        assert lag == 0
        assert abs(np.max(np.abs(ys)) - 1.0) < 0.05

    def test_dc_rejected(self):
        fs = 90.0
        w = Waveform(np.full(int(30 * fs), 3.7), fs)
        coeffs = design_bandpass(BandpassSpec(4, 40.0, 180.0), fs)
        y = bandpass_zero_phase(w, coeffs)
        trim = int(2 * fs)
        assert np.max(np.abs(y.samples[trim:-trim])) < 1e-6

    def test_out_of_band_tone_attenuated(self):
        fs = 90.0
        t = np.arange(int(30 * fs)) / fs
        w = Waveform(np.sin(2 * np.pi * 5.0 * t), fs)
        coeffs = design_bandpass(BandpassSpec(4, 40.0, 180.0), fs)
        y = bandpass_zero_phase(w, coeffs)
        trim = int(2 * fs)
        rms_in = np.sqrt(np.mean(w.samples[trim:-trim] ** 2))
        rms_out = np.sqrt(np.mean(y.samples[trim:-trim] ** 2))
        assert rms_out < 0.05 * rms_in

    def test_too_short_signal(self):
        coeffs = design_bandpass(BandpassSpec(4, 40.0, 180.0), 90.0)
        with pytest.raises(ValueError):
            bandpass_zero_phase(Waveform(np.ones(10), 90.0), coeffs)

    def test_rate_mismatch_rejected(self):
        coeffs = design_bandpass(BandpassSpec(4, 40.0, 180.0), 90.0)
        with pytest.raises(ValueError):
            bandpass_zero_phase(Waveform(np.ones(1000), 400.0), coeffs)

    @pytest.mark.parametrize("shape", [(700,), (5, 700), (2, 3, 61)])
    def test_equals_scipy_filtfilt(self, shape):
        rng = np.random.default_rng(len(shape))
        x = 3.0 + rng.standard_normal(shape).cumsum(axis=-1)
        for order, fs in ((1, 30.0), (2, 400.0), (4, 90.0)):
            coeffs = design_bandpass(BandpassSpec(order, 45.0, 170.0), fs)
            want = sps.filtfilt(coeffs.b, coeffs.a, x, padtype="odd", padlen=coeffs.pad_length)
            np.testing.assert_array_equal(coeffs.zero_phase(x), want)
            if x.ndim == 1:
                filtered = bandpass_zero_phase(Waveform(x, fs), coeffs)
                np.testing.assert_array_equal(filtered.samples, want)

    def test_zero_phase_needs_more_than_the_padding(self):
        coeffs = design_bandpass(BandpassSpec(2, 45.0, 170.0), 90.0)
        assert coeffs.pad_length == 12
        coeffs.zero_phase(np.ones((3, 13)))
        with pytest.raises(ValueError, match="need more than 12 samples"):
            coeffs.zero_phase(np.ones((3, 12)))


class TestZNormalize:
    def test_basic(self):
        z = z_normalize(Waveform(np.array([1.0, 2.0, 3.0]), 1.0))
        assert abs(np.mean(z.samples)) < 1e-9
        assert abs(np.std(z.samples) - 1.0) < 1e-9

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        a = z_normalize(Waveform(x, 10.0))
        b = z_normalize(Waveform(2.5 * x + 7.0, 10.0))
        assert np.allclose(a.samples, b.samples, atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        w = Waveform(rng.standard_normal(300) * 4 + 2, 10.0)
        once = z_normalize(w)
        twice = z_normalize(once)
        assert np.allclose(once.samples, twice.samples, atol=1e-9)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            z_normalize(Waveform(np.full(100, 2.0), 10.0))


class TestDeviations:
    @pytest.mark.parametrize("shape", [(1000,), (9, 2000), (6, 19, 450)])
    @pytest.mark.parametrize("reversed_view", [False, True], ids=["contiguous", "reversed"])
    def test_equals_numpy_mean_and_std(self, shape, reversed_view):
        x = np.random.default_rng(len(shape)).standard_normal(shape) * 40.0 + 5000.0
        if reversed_view:
            # zero_phase returns its rows as reversed views.
            x = x[..., ::-1]
        dev, std = deviations(x)
        np.testing.assert_array_equal(dev, x - x.mean(axis=-1, keepdims=True))
        np.testing.assert_array_equal(std, x.std(axis=-1))


def test_smooth_length_equals_scipy_next_fast_len():
    n = range(1, 20_001)
    assert [smooth_length(k) for k in n] == [next_fast_len(k, real=True) for k in n]


@pytest.mark.parametrize("n", [0, -1])
def test_smooth_length_rejects_lengths_below_one(n):
    with pytest.raises(ValueError, match=f"at least 1, got {n}$"):
        smooth_length(n)


class TestHilbertEnvelope:
    def test_pure_tone_flat(self):
        fs = 400.0
        t = np.arange(int(10 * fs)) / fs
        env = hilbert_envelope(Waveform(np.sin(2 * np.pi * 1.0 * t), fs))
        edge = int(0.5 * fs)
        assert np.max(np.abs(env.samples[edge:-edge] - 1.0)) < 0.02

    def test_tracks_amplitude_modulation(self):
        fs = 400.0
        t = np.arange(int(10 * fs)) / fs
        a = 1 + 0.5 * np.sin(2 * np.pi * 0.05 * t)
        env = hilbert_envelope(Waveform(a * np.sin(2 * np.pi * 1.2 * t), fs))
        edge = int(0.5 * fs)
        rel = np.abs(env.samples[edge:-edge] - a[edge:-edge]) / a[edge:-edge]
        assert np.max(rel) < 0.05

    @pytest.mark.parametrize("n", [8, 9, 10, 11, 64, 127, 1000, 4025, 120_000, 120_001])
    def test_equals_scipy_hilbert(self, n):
        x = np.random.default_rng(n).standard_normal(n) * 5.0 + 3.0
        env = hilbert_envelope(Waveform(x, 400.0)).samples
        np.testing.assert_array_equal(env, np.abs(sps.hilbert(x)))

    def test_zero_signal(self):
        env = hilbert_envelope(Waveform(np.zeros(100), 10.0))
        assert np.all(env.samples == 0.0)

    def test_scales_with_amplitude(self):
        fs = 100.0
        t = np.arange(1000) / fs
        x = np.sin(2 * np.pi * 2.0 * t)
        e1 = hilbert_envelope(Waveform(x, fs)).samples
        e2 = hilbert_envelope(Waveform(-3.0 * x, fs)).samples
        assert np.allclose(e2, 3.0 * e1, atol=1e-9)

    def test_divide_by_envelope_flattens(self):
        fs = 400.0
        t = np.arange(int(20 * fs)) / fs
        a = 1 + 0.5 * np.sin(2 * np.pi * 0.05 * t)
        flat = divide_by_envelope(Waveform(a * np.sin(2 * np.pi * 1.2 * t), fs))
        env = hilbert_envelope(flat).samples
        n = len(env)
        mid = env[int(0.1 * n) : int(0.9 * n)]
        assert np.max(np.abs(mid - 1.0)) < 0.1


class TestResampleLinear:
    def test_duration_arithmetic(self):
        w = Waveform(np.sin(np.arange(600)), 60.0)
        out = resample_linear(w, 400.0)
        assert abs(len(out) - 4000) <= 1

    def test_identity(self):
        rng = np.random.default_rng(2)
        w = Waveform(rng.standard_normal(777), 60.0)
        out = resample_linear(w, 60.0)
        assert np.allclose(out.samples, w.samples, atol=1e-12)

    def test_ramp_stays_ramp(self):
        w = Waveform(0.5 * np.arange(600) + 3.0, 60.0)
        for rate in (17.0, 90.0, 173.0, 400.0):
            out = resample_linear(w, rate)
            expected = 0.5 * 60.0 * out.times() + 3.0
            assert np.allclose(out.samples, expected, atol=1e-9)

    def test_start_time_preserved(self):
        w = Waveform(np.arange(100.0), 60.0, start_time_s=5.5)
        out = resample_linear(w, 90.0)
        assert out.start_time_s == 5.5


class TestWindows:
    def test_non_overlapping_count(self):
        w = Waveform(np.zeros(8100), 90.0)
        wins = windows(w, WindowPlan(10.0, 10.0))
        assert len(wins) == 9
        assert all(len(seg) == 900 for _, seg in wins)

    def test_dense_stride_count(self):
        w = Waveform(np.zeros(4000), 400.0)
        wins = windows(w, WindowPlan(5.0, 0.01))
        assert len(wins) == 501
        assert all(len(seg) == 2000 for _, seg in wins)
        assert wins[1][0] - wins[0][0] == 4

    def test_signal_shorter_than_window(self):
        w = Waveform(np.zeros(100), 90.0)
        assert windows(w, WindowPlan(10.0, 1.0)) == []

    def test_count_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            fs = float(rng.choice([30.0, 60.0, 90.0, 400.0]))
            n = int(rng.integers(200, 5000))
            length = float(rng.integers(1, 4))
            stride = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
            w = Waveform(np.zeros(n), fs)
            got = len(windows(w, WindowPlan(length, stride)))
            duration = n / fs
            expected = (
                int(np.floor((duration - length) / stride + 1e-9)) + 1
                if duration >= length
                else 0
            )
            assert got == expected

    def test_window_start_times(self):
        w = Waveform(np.zeros(900), 90.0, start_time_s=3.0)
        wins = windows(w, WindowPlan(2.0, 1.5))
        assert [seg.start_time_s for _, seg in wins] == pytest.approx(
            [3.0, 4.5, 6.0, 7.5, 9.0, 10.5]
        )

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 5000),
        fs=st.sampled_from([30.0, 60.0, 90.0, 400.0, 29.97]),
        length_s=st.floats(0.01, 12.0),
        stride_s=st.floats(0.001, 5.0),
    )
    def test_window_starts_follow_the_rounding_loop(self, n, fs, length_s, stride_s):
        plan = WindowPlan(length_s, stride_s)
        if plan.length_samples(fs) < 1:
            with pytest.raises(ValueError, match="empty"):
                window_starts(n, fs, plan)
            return
        got = window_starts(n, fs, plan)
        assert got.tolist() == loop_reference.window_starts(n, fs, plan)
        if n:
            w = Waveform(np.zeros(n), fs)
            assert [start for start, _ in windows(w, plan)] == got.tolist()
