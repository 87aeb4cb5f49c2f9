"""Full-body PPG and remote-PPG analysis toolkit.

Fuses multi-site contact PPG into a robust reference pulse, extracts pulse
waveforms from RGB skin-pixel traces (CHROM / POS), tracks pulse rate,
scores signal quality globally and on spatial grids, and estimates
differential pulse transit times between body sites.
"""

from .signals import (
    BandpassSpec,
    FilterCoefficients,
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
from .rppg import MethodConfig, RGBTrace, chrom, extract_pulse, pos
from .fusion import SensorBank, fuse_ground_truth_report, reference_pulse_rate
from .pulse_rate import PulseRateSeries, stft_pulse_rate
from .metrics import ScoreReport, mae, pearson_r, score_series, snr_harmonics
from .transit_time import (
    LagEstimate,
    PTTMatrix,
    lag_distribution_stats,
    phase_angle_deg,
    ptt_matrix,
    xcorr_lag,
)
from .grid import (
    ErrorFrame,
    PoseKeypoints,
    SubregionGrid,
    aggregate_heatmap,
    average_pose,
    homography_from_poses,
    score_grid,
    upsample_frame,
    warp_error_frame,
)
from .synth import (
    Burst,
    PulseModel,
    constant_rate,
    motion_burst_noise,
    ramp_rate,
    synth_pulse,
    synth_rgb_trace,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Waveform",
    "BandpassSpec",
    "FilterCoefficients",
    "WindowPlan",
    "design_bandpass",
    "design_bandpasses",
    "bandpass_zero_phase",
    "z_normalize",
    "hilbert_envelope",
    "divide_by_envelope",
    "resample_linear",
    "window_starts",
    "windows",
    "RGBTrace",
    "MethodConfig",
    "chrom",
    "pos",
    "extract_pulse",
    "SensorBank",
    "fuse_ground_truth_report",
    "reference_pulse_rate",
    "PulseRateSeries",
    "stft_pulse_rate",
    "ScoreReport",
    "mae",
    "pearson_r",
    "snr_harmonics",
    "score_series",
    "LagEstimate",
    "PTTMatrix",
    "xcorr_lag",
    "ptt_matrix",
    "phase_angle_deg",
    "lag_distribution_stats",
    "SubregionGrid",
    "ErrorFrame",
    "PoseKeypoints",
    "score_grid",
    "upsample_frame",
    "average_pose",
    "homography_from_poses",
    "warp_error_frame",
    "aggregate_heatmap",
    "PulseModel",
    "Burst",
    "constant_rate",
    "ramp_rate",
    "synth_pulse",
    "synth_rgb_trace",
    "motion_burst_noise",
]
