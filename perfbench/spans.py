"""Spans around the calls into each bodyppg layer, and the per-layer numbers
derived from them.

The tracer wraps public functions from outside the library: each wrapper
records a span (name, start, end, parent) and, where the call does countable
work, the count. Modules import names directly (``bodyppg.cli`` calls its own
``extract_pulse``, ``bodyppg.grid`` its own ``pos``), so every function is
wrapped under each name through which a caller reaches it; patching only the
defining module would miss those calls.

A span's self time is its duration minus the durations of its direct child
spans. Spans nest strictly (one thread), so the self times of a job add up to
its root span, the traced ``main()`` call.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time

import numpy as np

ROOT_SPAN = "cli.main"


def _csv_bytes(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _frames(result, frames, *args, **kwargs):
    return {"frames": len(frames)}


def _windows(result, *args, **kwargs):
    return {"windows": len(result)}


def _segments(result, trace, cfg=None, *args, **kwargs):
    # The overlap-add segment plan of bodyppg.rppg, counted from the inputs.
    from bodyppg.rppg import DEFAULT_INTERNAL_WINDOW_S

    n, fs = len(trace), trace.sample_rate_hz
    window_s = cfg.internal_window_s if cfg is not None else DEFAULT_INTERNAL_WINDOW_S
    seg_len = min(int(round(window_s * fs)), n)
    hop = max(1, seg_len // 2)
    starts = len(range(0, n - seg_len + 1, hop))
    if (starts - 1) * hop + seg_len < n:
        starts += 1
    return {"segments": starts}


def _fusion(result, bank, *args, **kwargs):
    _, diags = result
    return {"channels": len(bank.channels),
            "skipped": sum(diags.skipped_channel_windows.values())}


def _stft(result, *args, **kwargs):
    return {"skipped": result.n_skipped}


def _ptt(result, waves, *args, **kwargs):
    i, j = np.triu_indices(len(waves), 1)
    return {"pairs": int(i.size),
            "retained": int(np.isfinite(result.per_window_lag_s[:, i, j]).sum()),
            "failed": int(result.n_failed[i, j].sum())}


def _score_grid(result, grid, *args, **kwargs):
    return {"defined": sum(int(frame.defined_mask.sum()) for frame in result),
            "skin": sum(int(frame.skin_mask.sum()) for frame in result)}


# span name -> (names through which callers reach the function, counter)
LAYERS = {
    "session.parse": (("bodyppg.session.read_trace_csv", "bodyppg.session.read_sensor_csv",
                       "bodyppg.session.read_oximeter_csv", "bodyppg.session.read_grid",
                       "bodyppg.cli.read_rate_csv", "bodyppg.cli.read_waveform_csv"), _csv_bytes),
    "session.validate": (("bodyppg.session.SessionManifest.validate",), None),
    "session.dump": (("bodyppg.session.read_frame_dump",), None),
    "session.ingest": (("bodyppg.session.extract_traces",), _frames),
    "signals.design": (("bodyppg.fusion.design_bandpass", "bodyppg.rppg.design_bandpass"), None),
    "signals.windows": (("bodyppg.fusion.windows", "bodyppg.pulse_rate.windows",
                         "bodyppg.metrics.windows", "bodyppg.transit_time.windows"), _windows),
    "fusion.fuse": (("bodyppg.cli.fuse_ground_truth_report",), _fusion),
    "fusion.rate": (("bodyppg.cli.reference_pulse_rate",), None),
    "rppg.extract": (("bodyppg.cli.extract_pulse",), None),
    "rppg.method": (("bodyppg.rppg.chrom", "bodyppg.rppg.pos", "bodyppg.grid.pos"), _segments),
    "pulse_rate.stft": (("bodyppg.cli.stft_pulse_rate", "bodyppg.grid.stft_pulse_rate",
                         "bodyppg.fusion.stft_pulse_rate"), _stft),
    "metrics.score": (("bodyppg.cli.score_series",), None),
    "metrics.snr": (("bodyppg.grid.snr_harmonics", "bodyppg.metrics.snr_harmonics"), None),
    "transit_time.matrix": (("bodyppg.cli.ptt_matrix",), _ptt),
    "grid.score": (("bodyppg.cli.score_grid",), _score_grid),
    "grid.align": (("bodyppg.cli.upsample_frame", "bodyppg.cli.average_pose",
                    "bodyppg.cli.homography_from_poses", "bodyppg.cli.aggregate_heatmap",
                    "bodyppg.grid.warp_error_frame"), None),
}


class Tracer:
    """Records spans in memory; ``spans`` is written out when the job ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "parent": parent, "start": time.perf_counter()})
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx]['name']} closed out of order")

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.spans[idx]["units"] = counter(result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        """Replace every function named in LAYERS by its traced wrapper."""
        for name, (targets, counter) in LAYERS.items():
            for target in targets:
                owner, attr = _resolve(target)
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, counter))


def _resolve(dotted: str):
    """(object holding the attribute, attribute name) for a dotted name."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for part in parts[split:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]
    raise ValueError(f"cannot resolve {dotted}")


# ----------------------------------------------------------------------------
# Arithmetic on recorded spans


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def nesting_errors(spans: list[dict]) -> list[str]:
    """Spans that are unclosed, or that reach outside their parent."""
    errors = []
    for i, s in enumerate(spans):
        if "end" not in s:
            errors.append(f"span {i} ({s['name']}) never closed")
            continue
        p = s["parent"]
        if p is not None and not (spans[p]["start"] <= s["start"] <= s["end"] <= spans[p]["end"]):
            errors.append(f"span {i} ({s['name']}) reaches outside its parent {p}")
    return errors


def job_layer_totals(spans: list[dict]) -> dict:
    """Per-job sums: self seconds and span count per span name, plus units.

    ``windows_under[name]`` counts the windows that window enumerations made
    directly inside spans of that name; ``methods_under_grid`` counts rPPG
    method calls made directly by grid scoring (one per scored cell-window).
    """
    selfs = self_times(spans)
    totals: dict = {"self_s": {}, "calls": {}, "units": {}, "windows_under": {},
                    "inclusive_s": {}, "methods_under_grid": 0, "fusion_channel_windows": 0,
                    "pair_windows": 0}
    for i, s in enumerate(spans):
        name = s["name"]
        totals["self_s"][name] = totals["self_s"].get(name, 0.0) + selfs[i]
        totals["inclusive_s"][name] = totals["inclusive_s"].get(name, 0.0) + s["end"] - s["start"]
        totals["calls"][name] = totals["calls"].get(name, 0) + 1
        for key, value in s.get("units", {}).items():
            slot = totals["units"].setdefault(name, {})
            slot[key] = slot.get(key, 0) + value
        parent = spans[s["parent"]] if s["parent"] is not None else None
        if parent is None:
            continue
        if name == "signals.windows":
            # A call that raised has no units; its job fails on its own account.
            n = s.get("units", {}).get("windows", 0)
            parent_units = parent.get("units", {})
            under = totals["windows_under"]
            under[parent["name"]] = under.get(parent["name"], 0) + n
            if parent["name"] == "fusion.fuse":
                totals["fusion_channel_windows"] += n * parent_units.get("channels", 0)
            elif parent["name"] == "transit_time.matrix":
                totals["pair_windows"] += n * parent_units.get("pairs", 0)
        elif name == "rppg.method" and parent["name"] == "grid.score":
            totals["methods_under_grid"] += 1
    return totals


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(jobs: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    ``jobs`` holds, per job, its ``totals`` (from :func:`job_layer_totals`),
    ``startup_s`` and ``bytes_written``. Every ``*_s`` is self time, except
    ``session.validate_s``, which is the whole validation call: the parse
    calls it makes also count in ``session.parse_s``.
    """
    def add(section, name):
        return sum(j["totals"][section].get(name, 0) for j in jobs)

    def unit(name, key):
        return sum(j["totals"]["units"].get(name, {}).get(key, 0) for j in jobs)

    def count(key):
        return sum(j["totals"][key] for j in jobs)

    def busy(layer):
        return sum(v for j in jobs for k, v in j["totals"]["self_s"].items()
                   if k.split(".")[0] == layer)

    parse_s, parse_mb = add("self_s", "session.parse"), unit("session.parse", "bytes") / 1e6
    ingest_s = add("self_s", "session.dump") + add("self_s", "session.ingest")
    frames = unit("session.ingest", "frames")
    fusion_s, channel_windows = busy("fusion"), count("fusion_channel_windows")
    rppg_s, segments = busy("rppg"), unit("rppg.method", "segments")
    stft_windows = sum(j["totals"]["windows_under"].get("pulse_rate.stft", 0) for j in jobs)
    pr_s = busy("pulse_rate")
    tt_s, pair_windows = busy("transit_time"), count("pair_windows")
    cell_windows, score_s = count("methods_under_grid"), add("self_s", "grid.score")
    return {
        "cli.startup_s": (statistics.median(j["startup_s"] for j in jobs), "s"),
        "cli.self_s": (add("self_s", ROOT_SPAN), "s"),
        "cli.bytes_written": (sum(j["bytes_written"] for j in jobs), "bytes"),
        "session.parse_calls": (add("calls", "session.parse"), "count"),
        "session.parse_mb": (parse_mb, "MB"),
        "session.parse_s": (parse_s, "s"),
        "session.parse_us_per_mb": (_ratio(parse_s, parse_mb, 1e6), "us/MB"),
        "session.validate_s": (add("inclusive_s", "session.validate"), "s"),
        "session.dump_reads": (add("calls", "session.dump"), "count"),
        "session.frames_ingested": (frames, "count"),
        "session.ingest_s": (ingest_s, "s"),
        "session.ingest_us_per_frame": (_ratio(ingest_s, frames, 1e6), "us"),
        "signals.design_calls": (add("calls", "signals.design"), "count"),
        "signals.design_s": (add("self_s", "signals.design"), "s"),
        "signals.windows_calls": (add("calls", "signals.windows"), "count"),
        "signals.windows_s": (add("self_s", "signals.windows"), "s"),
        "fusion.busy_s": (fusion_s, "s"),
        "fusion.channel_windows": (channel_windows, "count"),
        "fusion.us_per_channel_window": (_ratio(fusion_s, channel_windows, 1e6), "us"),
        "fusion.skipped_channel_windows": (unit("fusion.fuse", "skipped"), "count"),
        "rppg.calls": (add("calls", "rppg.method"), "count"),
        "rppg.segments": (segments, "count"),
        "rppg.busy_s": (rppg_s, "s"),
        "rppg.us_per_segment": (_ratio(rppg_s, segments, 1e6), "us"),
        "pulse_rate.windows": (stft_windows, "count"),
        "pulse_rate.skipped": (unit("pulse_rate.stft", "skipped"), "count"),
        "pulse_rate.busy_s": (pr_s, "s"),
        "pulse_rate.us_per_window": (_ratio(pr_s, stft_windows, 1e6), "us"),
        "metrics.snr_windows": (sum(j["totals"]["windows_under"].get("metrics.snr", 0)
                                    for j in jobs), "count"),
        "metrics.busy_s": (busy("metrics"), "s"),
        "transit_time.pair_windows": (pair_windows, "count"),
        "transit_time.busy_s": (tt_s, "s"),
        "transit_time.us_per_pair_window": (_ratio(tt_s, pair_windows, 1e6), "us"),
        "transit_time.retained_ratio": (
            _ratio(unit("transit_time.matrix", "retained"), pair_windows), "ratio"),
        "transit_time.failed": (unit("transit_time.matrix", "failed"), "count"),
        "grid.cell_windows": (cell_windows, "count"),
        "grid.score_s": (score_s, "s"),
        "grid.us_per_cell_window": (_ratio(score_s, cell_windows, 1e6), "us"),
        "grid.defined_ratio": (_ratio(unit("grid.score", "defined"), unit("grid.score", "skin")),
                               "ratio"),
        "grid.align_s": (add("self_s", "grid.align"), "s"),
    }
