import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sp_fft

from bodyppg import (
    Waveform,
    WindowPlan,
    lag_distribution_stats,
    phase_angle_deg,
    ptt_matrix,
    xcorr_lag,
)
from bodyppg.transit_time import (
    DEFAULT_MAX_LAG_S,
    DEFAULT_MIN_PEAK_CORR,
    DEFAULT_PTT_PLAN,
    PTTMatrix,
    _lag_kernel,
    _scan_lags,
)
from bodyppg.signals import window_starts, windows
from bodyppg.synth import PulseModel, constant_rate, synth_pulse

FS = 400.0


def noisy_pulse(duration_s, seed, rate=72.0, fs=FS, delay_s=0.0, noise=0.05):
    model = PulseModel(
        fs_hz=fs,
        duration_s=duration_s,
        rate_profile=constant_rate(rate),
        harmonics=((1.0, 1.0, 0.0), (2.0, 0.3, 0.7)),
        delay_s=delay_s,
        noise_std=noise,
        seed=seed,
    )
    return synth_pulse(model)


def brute_force_lag(x, y, max_lag):
    """Independent oracle: per-lag Pearson via numpy, smaller |k| on ties."""
    n = len(x)
    best_k, best_c = None, -np.inf
    for k in sorted(range(-max_lag, max_lag + 1), key=lambda k: (abs(k), k)):
        if k >= 0:
            xs, ys = x[: n - k], y[k:]
        else:
            xs, ys = x[-k:], y[: n + k]
        if np.std(xs) == 0 or np.std(ys) == 0:
            continue
        c = np.corrcoef(xs, ys)[0, 1]
        if c > best_c:
            best_c, best_k = c, k
    return best_k, best_c


class TestXcorrLag:
    def test_identical_signals(self):
        w = noisy_pulse(10.0, seed=1)
        est = xcorr_lag(w, w, 0.3)
        assert est.lag_s == 0.0
        assert est.peak_corr == pytest.approx(1.0, abs=1e-9)

    def test_known_integer_delay(self):
        base = noisy_pulse(12.0, seed=2).samples
        n = int(10 * FS)
        x = Waveform(base[100 : 100 + n], FS)
        y = Waveform(base[80 : 80 + n], FS)  # y[m] = x[m - 20]
        est = xcorr_lag(x, y, 0.3)
        assert est.lag_s == pytest.approx(+0.050)
        assert est.peak_corr > 0.99

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(15):
            rate = float(rng.uniform(50.0, 170.0))
            base = noisy_pulse(8.0, seed=300 + trial, rate=rate, noise=0.3).samples
            n = int(6 * FS)
            d = int(rng.integers(-60, 61))
            x = base[80 : 80 + n]
            y = base[80 - d : 80 - d + n]
            max_lag = 80
            oracle_k, oracle_c = brute_force_lag(x, y, max_lag)
            est = xcorr_lag(Waveform(x, FS), Waveform(y, FS), max_lag / FS)
            assert round(est.lag_s * FS) == oracle_k
            assert est.peak_corr == pytest.approx(oracle_c, abs=1e-9)

    def test_90hz_quantization(self):
        a = noisy_pulse(30.0, seed=5, fs=90.0, noise=0.02)
        b = noisy_pulse(30.0, seed=5, fs=90.0, delay_s=0.055, noise=0.02)
        est = xcorr_lag(a, b, 0.3)
        assert round(est.lag_s * 90.0) == 5
        assert est.lag_s == pytest.approx(5.0 / 90.0)

    def test_integer_sample_lags_only(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            base = noisy_pulse(8.0, seed=600 + trial, noise=0.2).samples
            n = int(6 * FS)
            d = int(rng.integers(-100, 101))
            x = Waveform(base[120 : 120 + n], FS)
            y = Waveform(base[120 - d : 120 - d + n], FS)
            est = xcorr_lag(x, y, 0.3)
            assert est.lag_s * FS == pytest.approx(round(est.lag_s * FS), abs=1e-12)

    def test_swapping_negates_lag(self):
        base = noisy_pulse(12.0, seed=7).samples
        n = int(10 * FS)
        x = Waveform(base[100 : 100 + n], FS)
        y = Waveform(base[60 : 60 + n], FS)
        ab = xcorr_lag(x, y, 0.3)
        ba = xcorr_lag(y, x, 0.3)
        assert ab.lag_s == -ba.lag_s

    def test_zero_variance_rejected(self):
        w = Waveform(np.ones(4000), FS)
        with pytest.raises(ValueError):
            xcorr_lag(w, w, 0.3)

    def test_max_lag_bound(self):
        w = noisy_pulse(1.0, seed=8)
        with pytest.raises(ValueError):
            xcorr_lag(w, w, 0.6)


class TestPttMatrix:
    def make_waves(self, delays_ms=(0.0, 20.0, 50.0), duration_s=30.0):
        waves = []
        for i, d in enumerate(delays_ms):
            waves.append(
                (f"site{i}", noisy_pulse(duration_s, seed=900 + i, delay_s=d / 1000.0))
            )
        return waves

    def test_recovers_injected_delays(self):
        waves = self.make_waves()
        mtx = ptt_matrix(waves, WindowPlan(5.0, 0.5))
        expected = np.array(
            [[0.0, 0.020, 0.050], [-0.020, 0.0, 0.030], [-0.050, -0.030, 0.0]]
        )
        assert np.max(np.abs(mtx.mean_lag_s - expected)) <= 2.5e-3  # one sample

    def test_exact_skew_symmetry(self):
        waves = self.make_waves()
        mtx = ptt_matrix(waves, WindowPlan(5.0, 1.0))
        assert np.max(np.abs(mtx.mean_lag_s + mtx.mean_lag_s.T)) == 0.0
        per = mtx.per_window_lag_s
        sums = per + np.transpose(per, (0, 2, 1))
        assert np.nanmax(np.abs(sums)) == 0.0
        assert np.all(np.diagonal(mtx.mean_lag_s) == 0.0)

    def test_both_orderings_negate(self):
        waves = self.make_waves()
        fwd = ptt_matrix(waves, WindowPlan(5.0, 1.0))
        rev = ptt_matrix(list(reversed(waves)), WindowPlan(5.0, 1.0))
        for i, si in enumerate(fwd.sites):
            for j, sj in enumerate(fwd.sites):
                ri = rev.site_index(si)
                rj = rev.site_index(sj)
                assert fwd.mean_lag_s[i, j] == pytest.approx(
                    rev.mean_lag_s[ri, rj], abs=1e-12
                )

    def test_low_correlation_windows_excluded(self):
        rng = np.random.default_rng(10)
        good = noisy_pulse(30.0, seed=11)
        noise = Waveform(rng.standard_normal(len(good)), FS)
        mtx = ptt_matrix(
            [("pulse", good), ("noise", noise)], WindowPlan(5.0, 1.0), min_peak_corr=0.5
        )
        n_windows = mtx.per_window_lag_s.shape[0]
        assert mtx.n_excluded_low_corr[0, 1] == n_windows
        assert np.isnan(mtx.peak_corr[0, 1])
        # No retained window: no lag, rather than a zero one that reads as in sync.
        assert np.isnan(mtx.mean_lag_s[0, 1]) and np.isnan(mtx.mean_lag_s[1, 0])

    def test_failed_pairs_counted(self):
        good = noisy_pulse(30.0, seed=12)
        dead = Waveform(np.zeros(len(good)), FS)
        mtx = ptt_matrix([("pulse", good), ("dead", dead)], WindowPlan(5.0, 1.0))
        assert mtx.n_failed[0, 1] == mtx.per_window_lag_s.shape[0]
        assert np.isnan(mtx.mean_lag_s[0, 1]) and np.isnan(mtx.mean_lag_s[1, 0])

    def test_defaults(self):
        assert DEFAULT_PTT_PLAN.length_s == 5.0
        assert DEFAULT_PTT_PLAN.stride_s == pytest.approx(0.010)
        assert DEFAULT_MAX_LAG_S == pytest.approx(0.300)
        assert DEFAULT_MIN_PEAK_CORR == 0.5


class TestPhaseAngle:
    def test_zero_lag(self):
        assert phase_angle_deg(0.0, 150.0) == 0.0

    def test_full_cycle_is_360(self):
        for bpm in (60.0, 90.0, 180.0):
            period_s = 60.0 / bpm
            assert phase_angle_deg(period_s, bpm) == pytest.approx(360.0)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            phase_angle_deg(0.05, 0.0)


class TestLagStats:
    def make_matrix(self, lags_s):
        n = len(lags_s)
        per = np.zeros((n, 2, 2))
        per[:, 0, 1] = lags_s
        per[:, 1, 0] = -np.asarray(lags_s)
        return PTTMatrix(
            sites=("a", "b"),
            mean_lag_s=np.array([[0.0, np.mean(lags_s)], [-np.mean(lags_s), 0.0]]),
            per_window_lag_s=per,
            window_times_s=np.arange(n, dtype=float),
            peak_corr=np.ones((2, 2)),
            n_excluded_low_corr=np.zeros((2, 2), dtype=int),
            n_failed=np.zeros((2, 2), dtype=int),
            min_peak_corr=0.5,
        )

    def test_constant_lags(self):
        stats = lag_distribution_stats(self.make_matrix([0.030] * 8), ("a", "b"))
        assert stats.median_s == stats.q1_s == stats.q3_s == pytest.approx(0.030)
        assert stats.outliers_s == ()

    def test_symmetric_lags(self):
        stats = lag_distribution_stats(
            self.make_matrix([-0.010, -0.010, 0.0, 0.010, 0.010]), ("a", "b")
        )
        assert stats.median_s == pytest.approx(0.0)

    def test_gaussian_jitter_median(self):
        rng = np.random.default_rng(13)
        lags = 0.040 + rng.normal(0.0, 0.005, 200)
        stats = lag_distribution_stats(self.make_matrix(lags), ("a", "b"))
        assert abs(stats.median_s - 0.040) < 0.002
        assert stats.whisker_low_s >= stats.q1_s - 1.5 * (stats.q3_s - stats.q1_s) - 1e-12
        assert stats.whisker_high_s <= stats.q3_s + 1.5 * (stats.q3_s - stats.q1_s) + 1e-12

    def test_too_few_windows_rejected(self):
        with pytest.raises(ValueError):
            lag_distribution_stats(self.make_matrix([0.01] * 4), ("a", "b"))


class TestScanFftEqualsScipy:
    """The lag scan transforms on numpy.fft. At its shapes, (sites, windows of
    a chunk, samples) padded to the 5-smooth length, the transforms equal
    scipy.fft's bit for bit, so a numpy or scipy upgrade that parts them
    fails here."""

    @pytest.mark.parametrize("shape, n_fft", [
        ((9, 1, 2000), 2160), ((6, 19, 450), 480), ((2, 1, 4000), 4050),
    ], ids=["sensors", "rppg", "xcorr_lag"])
    def test_rfft_and_irfft(self, shape, n_fft):
        z = np.random.default_rng(n_fft).standard_normal(shape)
        spec = np.fft.rfft(z, n_fft, axis=-1)
        np.testing.assert_array_equal(spec, sp_fft.rfft(z, n_fft, axis=-1))
        first, second = np.triu_indices(shape[0], 1)
        cross = np.conjugate(spec[first]) * spec[second]
        np.testing.assert_array_equal(np.fft.irfft(cross, n_fft, axis=-1),
                                      sp_fft.irfft(cross, n_fft, axis=-1))


class TestPttMatrixOracle:
    """ptt_matrix against a brute-force scan of every window slice."""

    @staticmethod
    def sensor_like_waves(fs, duration_s=12.0):
        # Three sites 30 ms apart on the 5000-count offset the sensor CSVs
        # carry; the middle site drops out flat for longer than one window
        # from a third of the way in, and the last turns to noise for a
        # stretch from two thirds of the way in, so windows fail and fall
        # below the correlation threshold as well as pass.
        waves = []
        for i in range(3):
            samples = 5000.0 + 40.0 * noisy_pulse(
                duration_s, seed=40 + i, fs=fs, delay_s=0.03 * i, noise=0.2
            ).samples
            waves.append(samples)
        t = np.arange(waves[0].size) / fs
        flat_s, burst_s = duration_s / 3.0, 2.0 * duration_s / 3.0
        waves[1][(t >= flat_s) & (t < flat_s + 2.2)] = 5000.0
        burst = (t >= burst_s) & (t < burst_s + 2.0)
        waves[2][burst] = 5000.0 + 40.0 * np.random.default_rng(41).standard_normal(burst.sum())
        return [(f"site{i}", Waveform(w, fs)) for i, w in enumerate(waves)]

    @pytest.mark.parametrize("fs, max_lag", [(400.0, 120), (90.0, 27)])
    def test_every_window_matches_brute_force(self, fs, max_lag):
        waves = self.sensor_like_waves(fs)
        self.assert_matches_brute_force(waves, WindowPlan(1.5, 0.75), max_lag)

    def test_ten_minute_recording_matches_brute_force(self):
        # Ten minutes on the 5000-count offset, where cancellation in a scan
        # would show first; the 50 s stride keeps it to 12 windows, two of
        # them on the dropout and the noise burst.
        waves = self.sensor_like_waves(400.0, duration_s=600.0)
        self.assert_matches_brute_force(waves, WindowPlan(1.5, 50.0), 120)

    @pytest.mark.parametrize("fs, max_lag, stride_s", [(400.0, 120, 0.01), (90.0, 27, 1 / 90)],
                             ids=["400Hz", "90Hz"])
    def test_dense_stride_matches_brute_force(self, fs, max_lag, stride_s):
        # Three seconds at a stride of a few samples, which the sliding-sum
        # kernel scans: the dropout covers whole windows from 1 s on, and the
        # burst the last second.
        waves = self.sensor_like_waves(fs, duration_s=3.0)
        plan = WindowPlan(1.5, stride_s)
        starts = window_starts(len(waves[0][1]), fs, plan)
        assert _lag_kernel(3, starts, plan.length_samples(fs), max_lag) == "sliding-sum"
        self.assert_matches_brute_force(waves, plan, max_lag)

    def test_ten_minute_recording_at_a_dense_stride(self):
        # Ten minutes on the 5000-count offset at a 0.02 s stride, scanned by
        # the sliding sums, which restart in every chunk: every lag equals the
        # FFT kernel's, and a sample of windows, with the dropout and the
        # burst among them, equals the brute-force scan.
        waves = self.sensor_like_waves(400.0, duration_s=600.0)
        signals = np.stack([wave.samples for _, wave in waves])
        starts = window_starts(signals.shape[1], 400.0, WindowPlan(1.5, 0.02))
        lag, peak, kernel = _scan_lags(signals, starts, 600, 120)
        with mock.patch("bodyppg.transit_time._SLIDING_UNIT_COST", math.inf):
            fft_lag, fft_peak, fft_kernel = _scan_lags(signals, starts, 600, 120)
        assert (kernel, fft_kernel) == ("sliding-sum", "fft")
        np.testing.assert_array_equal(lag, fft_lag)
        # The peaks agree to 1e-12; sums run over the whole recording from
        # its first sample would part them by 1.6e-10.
        np.testing.assert_allclose(peak, fft_peak, rtol=0, atol=1e-11)
        assert np.isnan(lag).any() and (peak < 0.5).any()
        flat, burst = np.searchsorted(starts, [200 * 400, 400 * 400 - 300])
        sample = np.r_[flat - 2 : flat + 3, burst : burst + 3,
                       np.random.default_rng(5).choice(starts.size, 8, replace=False)]
        for w in sample:
            for p, (i, j) in enumerate(zip(*np.triu_indices(3, 1))):
                x, y = signals[i, starts[w] : starts[w] + 600], signals[j, starts[w] : starts[w] + 600]
                k, c = brute_force_lag(x, y, 120)
                if k is None:
                    assert np.isnan(lag[p, w])
                else:
                    assert lag[p, w] == k and peak[p, w] == pytest.approx(c, abs=1e-9)

    @staticmethod
    def assert_matches_brute_force(waves, plan, max_lag):
        fs = waves[0][1].sample_rate_hz
        min_peak_corr = 0.5
        mtx = ptt_matrix(waves, plan, max_lag_s=max_lag / fs, min_peak_corr=min_peak_corr)
        spans = windows(waves[0][1], plan)
        assert mtx.per_window_lag_s.shape == (len(spans), 3, 3)
        n_len = plan.length_samples(fs)
        n_failed = np.zeros((3, 3), dtype=int)
        n_excluded = np.zeros((3, 3), dtype=int)
        peaks = {(0, 1): [], (0, 2): [], (1, 2): []}
        for widx, (start, _) in enumerate(spans):
            for i, j in peaks:
                x = waves[i][1].samples[start : start + n_len]
                y = waves[j][1].samples[start : start + n_len]
                k, c = brute_force_lag(x, y, max_lag)
                got = mtx.per_window_lag_s[widx, i, j]
                if k is None:
                    n_failed[i, j] += 1
                    assert np.isnan(got)
                    continue
                if c < min_peak_corr:
                    n_excluded[i, j] += 1
                    assert np.isnan(got)
                    continue
                assert got == k / fs
                peaks[i, j].append(c)
        assert n_failed.sum() > 0 and n_excluded.sum() > 0
        np.testing.assert_array_equal(mtx.n_failed, n_failed + n_failed.T)
        np.testing.assert_array_equal(mtx.n_excluded_low_corr, n_excluded + n_excluded.T)
        for (i, j), retained in peaks.items():
            assert mtx.peak_corr[i, j] == pytest.approx(np.mean(retained), abs=1e-9)
            assert mtx.peak_corr[j, i] == mtx.peak_corr[i, j]


@pytest.mark.parametrize("fs, n_sites, stride_s, kernel", [
    (400.0, 9, 0.25, "fft"),
    (400.0, 9, 0.1, "fft"),
    (400.0, 9, 0.05, "sliding-sum"),
    (400.0, 9, DEFAULT_PTT_PLAN.stride_s, "sliding-sum"),
    (90.0, 6, 0.1, "sliding-sum"),
    (90.0, 6, 1 / 90.0, "sliding-sum"),
    (400.0, 9, 0.5, "fft"),
], ids=["sensors-0.25s", "sensors-0.1s", "sensors-0.05s", "sensors-default", "rppg-0.1s",
        "rppg-default", "demo-0.5s"])
def test_kernel_picked_for_each_shape(fs, n_sites, stride_s, kernel):
    # A 60 s session with the CLI's window and max lag: 9 sensors at 400 Hz, 6
    # ROI pulses at 90 Hz. The benchmark's sensors job (0.25 s) and demo 06
    # (0.5 s) stay on the FFT scan, the benchmark's rppg job (0.1 s) and both
    # CLI defaults (0.01 s, one frame) take the sliding sums; 0.1 s and
    # 0.05 s at 400 Hz bracket the break-even.
    plan = WindowPlan(DEFAULT_PTT_PLAN.length_s, stride_s)
    starts = window_starts(int(60 * fs), fs, plan)
    n_pairs = n_sites * (n_sites - 1) // 2
    max_lag = round(DEFAULT_MAX_LAG_S * fs)
    assert _lag_kernel(n_pairs, starts, plan.length_samples(fs), max_lag) == kernel


class TestSlidingConstantOverlaps:
    """The sliding sums find constant overlaps from counts of sample-to-sample
    changes, not from a variance threshold."""

    def test_flat_stretches_fail_as_in_the_fft_kernel(self):
        # Flat stretches at 5000.1, whose running sums round, so that their
        # prefix-sum variances are rounding noise rather than zero: one site
        # flat for longer than a window, another for less than one.
        signals = 5000.0 + 40.0 * np.stack([
            noisy_pulse(8.0, seed=60 + i, delay_s=0.02 * i, noise=0.2).samples for i in range(3)])
        signals[1, 800:1800] = 5000.1
        signals[2, 2000:2400] = 5000.1
        starts = window_starts(signals.shape[1], FS, WindowPlan(1.5, 0.01))
        lag, peak, kernel = _scan_lags(signals, starts, 600, 120)
        with mock.patch("bodyppg.transit_time._SLIDING_UNIT_COST", math.inf):
            fft_lag, fft_peak, _ = _scan_lags(signals, starts, 600, 120)
        assert kernel == "sliding-sum"
        failed = np.isnan(lag)
        assert failed[[0, 2]].any(axis=1).all() and not failed[1].any()
        np.testing.assert_array_equal(lag, fft_lag)
        np.testing.assert_allclose(peak, fft_peak, rtol=0, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(delays=st.lists(st.integers(0, 27), min_size=2, max_size=4),
           scale=st.sampled_from([1e-9, 1.0, 1e6]), offset=st.sampled_from([0.0, 5000.0]))
    def test_dense_stride_shift_theorem_at_any_amplitude(self, delays, scale, offset):
        # Sites cut from one pulse, scaled to any amplitude on any offset, at a
        # one-frame stride: every window finds the injected delays exactly.
        waves = [(site, Waveform(offset + scale * wave.samples, FS_PROP))
                 for site, wave in delayed_sites(delays)]
        plan = WindowPlan(3.0, 1.0 / FS_PROP)
        starts = window_starts(len(waves[0][1]), FS_PROP, plan)
        n_pairs = len(delays) * (len(delays) - 1) // 2
        assert _lag_kernel(n_pairs, starts, plan.length_samples(FS_PROP), MAX_LAG_PROP) == "sliding-sum"
        mtx = ptt_matrix(waves, plan)
        expected = np.subtract.outer(delays, delays).T / FS_PROP
        assert np.all(mtx.per_window_lag_s == expected)


FS_PROP = 90.0
MAX_LAG_PROP = 27  # 0.3 s at 90 Hz
_BASE_PROP = noisy_pulse(14.0, seed=77, fs=FS_PROP, noise=0.1).samples


def delayed_sites(delays):
    """Sites cut from one pulse so that site s lags the base by delays[s] samples."""
    n = int(10.0 * FS_PROP)
    off = 2 * MAX_LAG_PROP
    return [
        (f"s{s}", Waveform(_BASE_PROP[off - d : off - d + n], FS_PROP))
        for s, d in enumerate(delays)
    ]


_PROP_PLAN = WindowPlan(3.0, 1.0)
_delays = st.lists(st.integers(0, MAX_LAG_PROP), min_size=2, max_size=5)


class TestPttProperties:
    @settings(max_examples=25, deadline=None)
    @given(delays=_delays)
    def test_shift_theorem_and_skew_symmetry(self, delays):
        mtx = ptt_matrix(delayed_sites(delays), _PROP_PLAN)
        expected = np.subtract.outer(delays, delays).T / FS_PROP
        per = mtx.per_window_lag_s
        assert np.all(per == expected)
        assert np.all(mtx.mean_lag_s == expected)
        assert np.all(per + np.transpose(per, (0, 2, 1)) == 0.0)
        assert np.all(mtx.mean_lag_s + mtx.mean_lag_s.T == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(delays=_delays, data=st.data())
    def test_permuting_sites_permutes_matrix(self, delays, data):
        perm = data.draw(st.permutations(range(len(delays))))
        waves = delayed_sites(delays)
        base = ptt_matrix(waves, _PROP_PLAN)
        shuffled = ptt_matrix([waves[p] for p in perm], _PROP_PLAN)
        idx = np.ix_(perm, perm)
        assert shuffled.sites == tuple(base.sites[p] for p in perm)
        np.testing.assert_array_equal(shuffled.per_window_lag_s, base.per_window_lag_s[:, perm][:, :, perm])
        np.testing.assert_array_equal(shuffled.mean_lag_s, base.mean_lag_s[idx])
        np.testing.assert_allclose(shuffled.peak_corr, base.peak_corr[idx], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(shuffled.n_failed, base.n_failed[idx])


def test_ptt_matrix_logs_a_run_summary(caplog):
    good = noisy_pulse(30.0, seed=12)
    noise = Waveform(np.random.default_rng(10).standard_normal(len(good)), FS)
    dead = Waveform(np.zeros(len(good)), FS)
    waves = [("pulse", good), ("noise", noise), ("dead", dead)]
    with caplog.at_level(logging.INFO, logger="bodyppg.transit_time"):
        mtx = ptt_matrix(waves, WindowPlan(5.0, 1.0))
    n_windows = mtx.per_window_lag_s.shape[0]
    records = [r for r in caplog.records if r.name == "bodyppg.transit_time"]
    assert len(records) == 1
    message = records[0].getMessage()
    assert f"3 pairs x {n_windows} windows" in message
    assert f"{mtx.n_excluded_low_corr[0, 1]} below min_peak_corr" in message
    assert f"{2 * n_windows} zero-variance" in message
    empty = int(np.isnan(mtx.mean_lag_s[np.triu_indices(3, 1)]).sum())
    assert empty >= 2 and f"{empty} pairs with no retained window" in message
    assert "(fft kernel)" in message
    # A dense stride runs the sliding sums, and the line names them.
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="bodyppg.transit_time"):
        dense = ptt_matrix(waves, WindowPlan(5.0, 0.05))
    records = [r for r in caplog.records if r.name == "bodyppg.transit_time"]
    assert len(records) == 1
    message = records[0].getMessage()
    assert f"3 pairs x {dense.per_window_lag_s.shape[0]} windows (sliding-sum kernel)" in message
    assert f"{2 * dense.per_window_lag_s.shape[0]} zero-variance" in message
