"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from bodyppg import (
    BandpassSpec,
    PoseKeypoints,
    PulseRateSeries,
    SensorBank,
    Waveform,
    WindowPlan,
    bandpass_zero_phase,
    chrom,
    design_bandpass,
    divide_by_envelope,
    fuse_ground_truth_report,
    hilbert_envelope,
    homography_from_poses,
    mae,
    pearson_r,
    phase_angle_deg,
    pos,
    ptt_matrix,
    score_grid,
    snr_harmonics,
    stft_pulse_rate,
    warp_error_frame,
    xcorr_lag,
    z_normalize,
)
from bodyppg.fusion import DELTA_Y_BPM_DEFAULT, FUSION_FILTER_ORDER
from bodyppg.grid import SubregionGrid
from bodyppg.pulse_rate import DEFAULT_BAND_BPM, DEFAULT_WINDOW_LENGTH_S
from bodyppg.rppg import DEFAULT_POST_FILTER
from bodyppg.cli import main as cli_main
from bodyppg.synth import (
    Burst,
    PulseModel,
    constant_rate,
    motion_burst_noise,
    ramp_rate,
    synth_pulse,
    synth_rgb_trace,
)
from bodyppg.transit_time import DEFAULT_MAX_LAG_S, DEFAULT_PTT_PLAN


def test_criterion_01_end_to_end_synthetic_session():
    """POS and CHROM recover the generated rate profile: MAE < 0.5 bpm,
    r > 0.99, full analysis under 10 s."""
    t0 = time.perf_counter()
    profile = ramp_rate(66.0, 78.0, 60.0)
    pulse = synth_pulse(
        PulseModel(
            fs_hz=90.0,
            duration_s=60.0,
            rate_profile=profile,
            harmonics=((1.0, 1.0, 0.0), (2.0, 0.3, 1.1)),
            seed=7,
        )
    )
    trace = synth_rgb_trace(
        pulse,
        baseline=(0.66, 0.50, 0.42),
        modulation=(0.002, 0.006, 0.004),
        noise_std=0.0008,
        seed=8,
    )
    # 400 Hz sensor path exercised alongside the video-rate path
    sensor = synth_pulse(
        PulseModel(fs_hz=400.0, duration_s=60.0, rate_profile=profile, noise_std=0.05, seed=9)
    )
    assert len(sensor) == 24000

    for method in (pos, chrom):
        out = method(trace)
        pred = stft_pulse_rate(out)
        truth = PulseRateSeries(
            pred.times_s, profile(pred.times_s), pred.window_length_s, pred.band_bpm
        )
        assert mae(pred, truth) < 0.5
        assert pearson_r(pred, truth) > 0.99
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_achromatic_rejection():
    """Equal-channel intensity modulation yields pulse-band SNR < 0 dB."""
    pulse = synth_pulse(
        PulseModel(fs_hz=90.0, duration_s=60.0, rate_profile=constant_rate(72.0), seed=11)
    )
    ref = PulseRateSeries(np.array([30.0]), np.array([72.0]), 10.0, (40.0, 180.0))
    for noise in (0.0, 0.001):
        trace = synth_rgb_trace(
            pulse,
            baseline=(0.6, 0.5, 0.4),
            modulation=(0.004, 0.004, 0.004),
            noise_std=noise,
            seed=12,
        )
        for method in (pos, chrom):
            out = method(trace)
            assert snr_harmonics(out, ref) < 0.0


def test_criterion_03_fusion_robustness():
    """3 of 9 sensors corrupted in seconds 2-5: fused r >= 0.95 while the
    worst corrupted channel scores < 0.8; fused envelope within 1 +- 0.1."""
    fs, duration = 400.0, 60.0
    kw = dict(
        fs_hz=fs,
        duration_s=duration,
        rate_profile=constant_rate(72.0),
        harmonics=((1.0, 1.0, 0.0), (2.0, 0.3, 1.1)),
    )
    channels = []
    for i in range(9):
        x = synth_pulse(PulseModel(noise_std=0.05, seed=100 + i, **kw)).samples
        if i in (1, 4, 7):
            x = x + motion_burst_noise(fs, duration, [Burst(2.0, 5.0, 8.0)], seed=200 + i)
        channels.append((f"site{i}", Waveform(x, fs)))
    n_ox = int(60 * duration)
    oximeter = PulseRateSeries(
        np.arange(n_ox) / 60.0, np.full(n_ox, 72.0), 0.0, (30.0, 240.0)
    )
    bank = SensorBank(channels=tuple(channels), oximeter_rate=oximeter)

    clean = synth_pulse(PulseModel(seed=0, **kw))
    coeffs = design_bandpass(BandpassSpec(2, 42.0, 102.0), fs)
    reference = divide_by_envelope(bandpass_zero_phase(z_normalize(clean), coeffs))

    fused = fuse_ground_truth_report(bank)[0]
    assert np.corrcoef(fused.samples, reference.samples)[0, 1] >= 0.95
    worst = min(
        np.corrcoef(z_normalize(bank.channels[i][1]).samples, reference.samples)[0, 1]
        for i in (1, 4, 7)
    )
    assert worst < 0.8
    env = hilbert_envelope(fused).samples
    lo, hi = int(0.1 * len(env)), int(0.9 * len(env))
    assert np.max(np.abs(env[lo:hi] - 1.0)) <= 0.1


def test_criterion_04_parameter_fidelity():
    """Documented defaults: 900-sample windows at 90 Hz, 5 s / 2000-point
    transit windows with 10 ms / 4-point stride and 300 ms max lag, order-2
    fusion filter at +-30 bpm, order-4 rPPG filter at 40-180 bpm."""
    assert WindowPlan(DEFAULT_WINDOW_LENGTH_S, 1.0).length_samples(90.0) == 900
    assert DEFAULT_PTT_PLAN.length_s == 5.0
    assert DEFAULT_PTT_PLAN.length_samples(400.0) == 2000
    assert DEFAULT_PTT_PLAN.stride_s == pytest.approx(0.010)
    assert int(round(DEFAULT_PTT_PLAN.stride_s * 400.0)) == 4
    assert DEFAULT_MAX_LAG_S == pytest.approx(0.300)
    assert FUSION_FILTER_ORDER == 2
    assert DELTA_Y_BPM_DEFAULT == pytest.approx(30.0)
    assert DEFAULT_POST_FILTER == BandpassSpec(order=4, low_bpm=40.0, high_bpm=180.0)
    assert DEFAULT_BAND_BPM == (40.0, 180.0)


def test_criterion_05_shift_theorem_and_skew_symmetry():
    """Integer delays up to 120 samples at 400 Hz recovered exactly over 200
    random pulses; matrices exactly skew-symmetric; 55 ms at 90 Hz lands on
    5 frames."""
    fs = 400.0
    rng = np.random.default_rng(0)
    n = int(10 * fs)
    margin = 120
    for trial in range(200):
        rate = float(rng.uniform(45.0, 175.0))
        model = PulseModel(
            fs_hz=fs,
            duration_s=10.0 + 2 * margin / fs,
            rate_profile=constant_rate(rate),
            harmonics=((1.0, 1.0, 0.0), (2.0, 0.3, 0.7)),
            noise_std=0.1,
            seed=int(rng.integers(1 << 30)),
        )
        base = synth_pulse(model).samples
        d = int(rng.integers(-margin, margin + 1))
        x = Waveform(base[margin : margin + n], fs)
        y = Waveform(base[margin - d : margin - d + n], fs)
        est = xcorr_lag(x, y, 0.3)
        assert round(est.lag_s * fs) == d, f"trial {trial}: expected {d}"

    waves = [
        (
            f"s{i}",
            synth_pulse(
                PulseModel(
                    fs_hz=fs,
                    duration_s=20.0,
                    rate_profile=constant_rate(72.0),
                    harmonics=((1.0, 1.0, 0.0), (2.0, 0.3, 0.7)),
                    delay_s=delay,
                    noise_std=0.05,
                    seed=50 + i,
                )
            ),
        )
        for i, delay in enumerate((0.0, 0.020, 0.050))
    ]
    mtx = ptt_matrix(waves, WindowPlan(5.0, 1.0))
    assert np.max(np.abs(mtx.mean_lag_s + mtx.mean_lag_s.T)) == 0.0

    kw = dict(
        fs_hz=90.0,
        duration_s=30.0,
        rate_profile=constant_rate(72.0),
        harmonics=((1.0, 1.0, 0.0), (2.0, 0.3, 0.7)),
        noise_std=0.02,
    )
    a = synth_pulse(PulseModel(seed=5, **kw))
    b = synth_pulse(PulseModel(seed=5, delay_s=0.055, **kw))
    est = xcorr_lag(a, b, 0.3)
    assert round(est.lag_s * 90.0) == 5


def test_criterion_06_phase_angle_paper_figure():
    """A 51 ms lag is 55.1 deg at 180 bpm and 27.5 deg at 90 bpm, +- 0.5.

    One full period (60 / rate_bpm seconds) maps to 360 degrees, the
    definition in `phase_angle_deg`'s docstring and the README. The paper
    figure's 27.5 deg is where that definition puts 51 ms at 90 bpm; at the
    criterion's 180 bpm operating point the same lag spans twice the arc.
    """
    angle = phase_angle_deg(0.051, 180.0)
    # 0.051 s * 3 Hz * 360 deg = 55.08 deg
    assert abs(angle - 55.08) <= 0.5, f"phase_angle_deg(0.051 s, 180 bpm) = {angle:.2f} deg"
    angle = phase_angle_deg(0.051, 90.0)
    # 0.051 s * 1.5 Hz * 360 deg = 27.54 deg
    assert abs(angle - 27.54) <= 0.5, f"phase_angle_deg(0.051 s, 90 bpm) = {angle:.2f} deg"


def test_criterion_07_stft_accuracy():
    """Tones at 45, 72, 120, 175 bpm within +-0.5 in every window; a
    60->90 bpm ramp tracked within +-2."""
    for bpm in (45.0, 72.0, 120.0, 175.0):
        w = synth_pulse(
            PulseModel(fs_hz=90.0, duration_s=60.0, rate_profile=constant_rate(bpm), seed=1)
        )
        series = stft_pulse_rate(w)
        assert len(series) > 0
        assert np.max(np.abs(series.rates_bpm - bpm)) < 0.5

    profile = ramp_rate(60.0, 90.0, 120.0)
    w = synth_pulse(PulseModel(fs_hz=90.0, duration_s=120.0, rate_profile=profile, seed=2))
    series = stft_pulse_rate(w)
    assert np.max(np.abs(series.rates_bpm - profile(series.times_s))) < 2.0


def test_criterion_08_filter_contract():
    """Designed band-passes sit at -3 dB +- 0.5 at their cutoffs; filtering
    is zero-phase on in-band tones."""
    for order, lo, hi, fs in ((4, 40.0, 180.0, 90.0), (2, 42.0, 102.0, 400.0)):
        coeffs = design_bandpass(BandpassSpec(order, lo, hi), fs)
        response = coeffs.response_db([lo / 60.0, hi / 60.0])
        assert np.all(np.abs(response - (-3.0)) < 0.5)

    fs = 90.0
    t = np.arange(int(30 * fs)) / fs
    for freq in (0.8, 1.2, 2.0):
        w = Waveform(np.sin(2 * np.pi * freq * t), fs)
        y = bandpass_zero_phase(w, design_bandpass(BandpassSpec(4, 40.0, 180.0), fs))
        trim = int(2 * fs)
        xs, ys = w.samples[trim:-trim], y.samples[trim:-trim]
        corr = np.correlate(ys, xs, mode="full")
        assert int(np.argmax(corr)) - (xs.size - 1) == 0


def test_criterion_09_homography_suite():
    """Identity, translation, and random projective recovery to 1e-6; warp
    round-trip within 2%; composition consistency within 1e-4."""
    names = tuple("abcdefgh")
    src_xy = np.array(
        [
            [0.0, 0.0],
            [100.0, 0.0],
            [100.0, 100.0],
            [0.0, 100.0],
            [50.0, 20.0],
            [20.0, 80.0],
            [80.0, 60.0],
            [40.0, 40.0],
        ]
    )
    vis = np.ones(len(src_xy))

    def apply_h(h, pts):
        mapped = (h @ np.column_stack([pts, np.ones(len(pts))]).T).T
        return mapped[:, :2] / mapped[:, 2:3]

    def pose(pts):
        return PoseKeypoints(names, pts, vis)

    assert np.allclose(
        homography_from_poses(pose(src_xy), pose(src_xy)), np.eye(3), atol=1e-9
    )

    translation = np.array([[1.0, 0.0, 10.0], [0.0, 1.0, 5.0], [0.0, 0.0, 1.0]])
    h = homography_from_poses(pose(src_xy), pose(apply_h(translation, src_xy)))
    assert np.linalg.norm(h - translation) / np.linalg.norm(translation) < 1e-6

    rng = np.random.default_rng(3)
    scale = np.array([[1, 1, 20], [1, 1, 20], [1e-3, 1e-3, 0]])
    for _ in range(10):
        true = np.eye(3) + rng.normal(0.0, 0.05, (3, 3)) * scale
        true /= true[2, 2]
        h = homography_from_poses(pose(src_xy), pose(apply_h(true, src_xy)))
        assert np.linalg.norm(h - true) / np.linalg.norm(true) < 1e-6

    m = np.add.outer(np.linspace(0.0, 1.0, 60), np.linspace(0.0, 2.0, 80))
    h = np.array([[1.02, 0.03, 5.0], [-0.02, 0.98, -3.0], [1e-4, -5e-5, 1.0]])
    there = warp_error_frame(m, h, (80, 60))
    back = warp_error_frame(there, np.linalg.inv(h), (80, 60))
    both = np.isfinite(back) & np.isfinite(m)
    assert np.mean(np.abs(back - m)[both]) < 0.02 * (m.max() - m.min())

    h_ab = np.eye(3) + rng.normal(0.0, 0.03, (3, 3)) * scale
    h_bc = np.eye(3) + rng.normal(0.0, 0.03, (3, 3)) * scale
    a_pts = src_xy
    b_pts = apply_h(h_ab, a_pts)
    c_pts = apply_h(h_bc, b_pts)
    hab = homography_from_poses(pose(a_pts), pose(b_pts))
    hbc = homography_from_poses(pose(b_pts), pose(c_pts))
    hac = homography_from_poses(pose(a_pts), pose(c_pts))
    composed = hbc @ hab
    composed /= composed[2, 2]
    assert np.linalg.norm(hac - composed) / np.linalg.norm(hac) < 1e-4


def test_criterion_10_grid_isolation_and_frame_count():
    """Perturbing one cell changes only that cell's scores; a 90 s session
    yields exactly 9 error frames at 10 s non-overlapping windows."""
    fs, duration = 90.0, 90.0
    pulse = synth_pulse(
        PulseModel(
            fs_hz=fs,
            duration_s=duration,
            rate_profile=constant_rate(72.0),
            harmonics=((1.0, 1.0, 0.0), (2.0, 0.3, 1.1)),
            seed=21,
        )
    )
    n = len(pulse)
    rng = np.random.default_rng(22)
    base = (0.66, 0.50, 0.42)
    mod = (0.002, 0.006, 0.004)
    values = np.empty((n, 2, 3, 3))
    for r in range(2):
        for c in range(3):
            for ch in range(3):
                values[:, r, c, ch] = base[ch] * (1.0 + mod[ch] * pulse.samples) + rng.normal(
                    0.0, 0.0008, n
                )

    def grid_of(v):
        return SubregionGrid(
            values=v,
            sample_rate_hz=fs,
            start_time_s=0.0,
            origin_px=(0, 0),
            cell_px=20,
            skin_fraction=np.ones((2, 3)),
        )

    times = np.arange(5.0, duration - 5.0 + 1e-9, 1.0)
    ref = PulseRateSeries(times, np.full(times.size, 72.0), 10.0, (40.0, 180.0))

    frames = score_grid(grid_of(values), ref)
    assert len(frames) == 9

    perturbed = values.copy()
    perturbed[:, 0, 1, :] = np.asarray(base) + rng.normal(0.0, 0.003, (n, 3))
    frames_p = score_grid(grid_of(perturbed), ref)
    for fa, fb in zip(frames, frames_p):
        mae_diff = fa.mae_map != fb.mae_map
        snr_diff = fa.snr_map != fb.snr_map
        assert mae_diff[0, 1] or snr_diff[0, 1]
        assert not np.any(np.delete(mae_diff.ravel(), 1))
        assert not np.any(np.delete(snr_diff.ravel(), 1))


def test_criterion_11_cli_determinism(tmp_path):
    """Two full CLI pipeline runs on the same manifest and seed produce
    byte-identical outputs."""
    root = tmp_path / "run"

    def digest_tree(path: Path) -> dict[str, str]:
        return {
            str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*"))
            if p.is_file()
        }

    def pipeline():
        manifest = str(root / "sess" / "manifest.json")
        assert cli_main(["synth", "--out-dir", str(root / "sess"), "--seed", "13",
                         "--duration-s", "30"]) == 0
        assert cli_main(["fuse-gt", "--manifest", manifest,
                         "--out-dir", str(root / "fuse")]) == 0
        assert cli_main(["estimate", "--manifest", manifest, "--roi", "face",
                         "--method", "pos", "--out-dir", str(root / "est")]) == 0
        assert cli_main(["ptt", "--manifest", manifest, "--window-s", "5",
                         "--stride-s", "1.0", "--max-lag-s", "0.3",
                         "--out-dir", str(root / "ptt")]) == 0
        assert cli_main(["grid-map", "--manifest", manifest, "--roi", "face",
                         "--out-dir", str(root / "grid")]) == 0

    pipeline()
    first = digest_tree(root)
    pipeline()
    second = digest_tree(root)
    assert first.keys() == second.keys()
    differing = [k for k in first if first[k] != second[k]]
    assert differing == []
