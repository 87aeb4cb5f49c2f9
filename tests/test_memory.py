"""Traced allocation ceilings for the stages that work on whole sessions.

Windows, crops and CSV blocks are views or bounded buffers; a stage that
copies every window or stacks a whole table again fails these ceilings.
"""

import tracemalloc

import numpy as np

from bodyppg import PulseRateSeries, SensorBank, Waveform, WindowPlan, fuse_ground_truth_report
from bodyppg.session import write_csv
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
