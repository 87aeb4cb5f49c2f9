"""Traced allocation ceilings for the stages that work on whole sessions.

Windows, crops and CSV blocks are views or bounded buffers; a stage that
copies every window or stacks a whole table again fails these ceilings.
"""

import tracemalloc

import numpy as np

from bodyppg import PulseRateSeries, SensorBank, Waveform, WindowPlan, fuse_ground_truth_report
from bodyppg.cli import main
from bodyppg.grid import ErrorFrame, aggregate_heatmap, upsample_frame, warp_error_frame
from bodyppg.pulse_rate import spectral_peaks
from bodyppg.session import write_csv
from bodyppg.synthetic_session import SyntheticSessionConfig, build_synthetic_session
from bodyppg.transit_time import ptt_matrix

FS = 400.0
MB = 1e6


def traced_peak(fn) -> float:
    """Bytes allocated at the peak of ``fn()`` beyond what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def sensor_bank(duration_s: float, n_channels: int = 9) -> SensorBank:
    rng = np.random.default_rng(0)
    t = np.arange(int(duration_s * FS)) / FS
    pulse = np.sin(2 * np.pi * 1.2 * t)
    channels = tuple(
        (f"site{i}", Waveform(pulse + 0.1 * rng.standard_normal(t.size), FS))
        for i in range(n_channels)
    )
    ox_t = np.arange(int(duration_s), dtype=float)
    return SensorBank(channels, PulseRateSeries(ox_t, np.full(ox_t.size, 72.0), 0.0, (30.0, 240.0)))


def test_fusion_of_a_300s_bank_holds_no_window_copies():
    # 1,161 windows of 9 channels: copying each window peaked at about 56 MB;
    # views leave the stage's own arrays, about 10 MB.
    bank = sensor_bank(300.0)
    assert traced_peak(lambda: fuse_ground_truth_report(bank)) < 16 * MB


def test_write_csv_holds_one_block(tmp_path):
    # Stacking the whole 200,000 x 6 table first allocated 9.7 MB. Small
    # integers keep tolist() from allocating, so tracing stays quick.
    table = np.arange(200_000 * 6).reshape(200_000, 6) % 200
    peak = traced_peak(lambda: write_csv(tmp_path / "t.csv", [table]))
    assert peak < 1 * MB


def test_ptt_matrix_holds_no_window_copies():
    # 6 s at 400 Hz, 5 s windows every 2.5 ms: 401 windows of 9 sites. The
    # scan's chunk buffers peak at 2.7 MB; the ceiling leaves 50% above that.
    # Copying every window peaked at 9.1 MB.
    waves = list(sensor_bank(6.0).channels)
    peak = traced_peak(lambda: ptt_matrix(waves, WindowPlan(5.0, 0.0025)))
    assert peak < 4 * MB


def test_spectral_peaks_of_400hz_windows_hold_no_more_than_full_spectra():
    # 291 windows of 4,000 samples, as the fused reference of a 300 s session
    # is rated. Whole 65,536-point spectra, four rows per chunk, peaked at
    # 4.36 MB for an array and 4.49 MB for a list of windows; the band-limited
    # transform peaks at 3.75 MB for either.
    rng = np.random.default_rng(1)
    t = np.arange(4000) / FS
    rows = np.sin(2 * np.pi * 1.2 * t) + 0.5 * rng.standard_normal((291, t.size))
    band = (40.0, 180.0)
    spectral_peaks(rows[:1], FS, band)  # the transform's plan is made before tracing
    for given in (rows, list(rows)):
        assert traced_peak(lambda: spectral_peaks(given, FS, band)) <= 4.36 * MB


def test_grid_map_holds_one_window_of_cell_means(tmp_path):
    # A 6x8 grid at 90 fps: one 10 s window of cell means is 900 x 48 x 3
    # float64, 1.04 MB, and the 60 s store six of them. Reading the store
    # whole made the 60 s peak 4.3 MB above the 20 s one (11.4 against
    # 7.2 MB); one window at a time, both peak at about 7.5 MB, most of it
    # the spectra of one window's 47 skin cells.
    window_bytes = 900 * 6 * 8 * 3 * 8
    argv = {}
    for duration_s in (20.0, 60.0):
        cfg = SyntheticSessionConfig(seed=5, duration_s=duration_s, grid_rows=6, grid_cols=8)
        manifest = str(build_synthetic_session(tmp_path / f"session{duration_s:g}", cfg))
        rates = tmp_path / f"rates{duration_s:g}"
        assert main(["fuse-gt", "--manifest", manifest, "--out-dir", str(rates)]) == 0
        argv[duration_s] = ["grid-map", "--manifest", manifest, "--out-dir", str(tmp_path / "out"),
                            "--ref-rates", str(rates / "fused_rates.csv")]

    def grid_map(args):
        assert main(args) == 0

    grid_map(argv[20.0])  # whatever a first run loads is loaded before tracing
    peaks = {d: traced_peak(lambda: grid_map(args)) for d, args in argv.items()}
    assert abs(peaks[60.0] - peaks[20.0]) < window_bytes, peaks
    assert max(peaks.values()) < 10 * MB, peaks


def test_aggregate_step_holds_only_the_sums_counts_and_mask():
    # One (2, 540, 960) step: the float64 sums, the int counts and the
    # defined mask. Adding np.where(defined, frame, 0.0) made one more
    # frame-sized float64 temporary, 8.3 MB here.
    frame = np.full((2, 540, 960), 1.5)
    frame[:, ::3] = np.nan
    peaks = []

    def frames():
        # Traces the first step alone: the mean at the end is not a step's.
        before = tracemalloc.get_traced_memory()[0]
        yield frame
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        tracemalloc.stop()

    tracemalloc.start()
    try:
        mean, _ = aggregate_heatmap(frames())
    finally:
        tracemalloc.stop()
    assert np.array_equal(mean, np.where(np.isnan(frame), np.nan, 1.5), equal_nan=True)
    assert peaks[0] <= frame.size * (8 + 8 + 1) + 1 * MB


def _full_hd_stack(rng) -> np.ndarray:
    """A (2, 1080, 1920) stack of MAE and SNR maps, 33.2 MB, a tenth NaN."""
    maps = rng.uniform(0.0, 30.0, (2, 1080, 1920))
    maps[:, rng.random((1080, 1920)) < 0.1] = np.nan
    return maps


def test_warp_of_a_full_hd_stack_peaks_below_twice_its_output():
    # Pre-images of the whole frame at once peaked at 9.9x the output
    # (328 MB). In bands of rows only a band's temporaries join the output:
    # about 1.07x.
    src = _full_hd_stack(np.random.default_rng(0))
    h = np.array([[1.01, 0.02, 3.0], [-0.015, 0.99, -2.0], [1e-5, -2e-5, 1.0]])
    out = []
    peak = traced_peak(lambda: out.append(warp_error_frame(src, h, (1920, 1080))))
    assert out[0].shape == src.shape
    assert peak <= 2 * out[0].nbytes, peak / out[0].nbytes


def test_upsampling_a_window_to_full_hd_allocates_one_stack():
    # 54 x 96 cells of 20 px. Each map upsampled alone, then np.stack'ed,
    # held 2.5 stacks at the peak of the upsample and 2 after it; the stack
    # upsampled in bands of rows holds one, its mask and a band, 1.07 stacks.
    rng = np.random.default_rng(1)
    cells = rng.uniform(0.0, 30.0, (2, 54, 96))
    cells[:, rng.random((54, 96)) < 0.1] = np.nan
    frame = ErrorFrame(0, 0.0, cells[0], cells[1], rng.random((54, 96)) < 0.8)
    ups = []
    peak = traced_peak(lambda: ups.append(upsample_frame(frame, 20)))
    (up,) = ups
    stack_bytes = 2 * 1080 * 1920 * 8
    assert up["maps"].shape == (2, 1080, 1920) and up["maps"].nbytes == stack_bytes
    assert np.shares_memory(up["mae"], up["maps"]) and np.shares_memory(up["snr"], up["maps"])
    assert peak <= 1.15 * stack_bytes, peak / stack_bytes
