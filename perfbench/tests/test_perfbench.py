"""Tests of the CLI benchmark: its definition, span arithmetic and smoke mode."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Per-layer metrics every traced run reports; BENCHMARK.json lists those that
# are counts, ratios, or times no workload leaves at zero.
LAYER_METRICS = {
    "cli.startup_s": "s", "cli.self_s": "s", "cli.bytes_written": "bytes",
    "session.parse_calls": "count", "session.parse_mb": "MB", "session.parse_s": "s",
    "session.parse_us_per_mb": "us/MB", "session.validate_s": "s",
    "session.dump_reads": "count", "session.frames_ingested": "count", "session.ingest_s": "s",
    "session.ingest_us_per_frame": "us",
    "signals.design_calls": "count", "signals.design_s": "s", "signals.windows_calls": "count",
    "signals.windows_s": "s",
    "fusion.busy_s": "s", "fusion.channel_windows": "count", "fusion.us_per_channel_window": "us",
    "fusion.skipped_channel_windows": "count",
    "rppg.calls": "count", "rppg.segments": "count", "rppg.busy_s": "s", "rppg.us_per_segment": "us",
    "pulse_rate.windows": "count", "pulse_rate.skipped": "count", "pulse_rate.busy_s": "s",
    "pulse_rate.us_per_window": "us",
    "metrics.snr_windows": "count", "metrics.busy_s": "s",
    "transit_time.pair_windows": "count", "transit_time.busy_s": "s",
    "transit_time.us_per_pair_window": "us", "transit_time.retained_ratio": "ratio",
    "transit_time.failed": "count",
    "grid.cell_windows": "count", "grid.score_s": "s", "grid.us_per_cell_window": "us",
    "grid.defined_ratio": "ratio", "grid.align_s": "s",
    "synthetic_session.build_s": "s", "trace.overhead_s": "s",
}
# End-to-end metrics each workload reports beyond those BENCHMARK.json bounds.
COMMAND_METRICS = {
    "ptt": ("ptt_sensors_s", "ptt_rppg_s"),
    "reference": ("fuse_gt_s", "estimate_s"),
    "grid": ("grid_map_s",),
    "frames": ("estimate_s", "grid_map_s"),
}


def test_benchmark_definition_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[section]]
        for m in SPEC[section]:
            assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(LAYER_METRICS[m["name"]] == m["unit"] for m in SPEC["per_layer"])

    from workloads import WORKLOADS

    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        n: w.why for n, w in WORKLOADS.items()}


def test_every_traced_name_resolves_to_a_function():
    for targets, _ in spans.LAYERS.values():
        for target in targets:
            owner, attr = spans._resolve(target)
            assert callable(getattr(owner, attr)), target


def _span(name, parent, start, end, **units):
    s = {"name": name, "parent": parent, "start": start, "end": end}
    if units:
        s["units"] = units
    return s


def test_self_times_add_up_to_the_root_span():
    recorded = [
        _span("cli.main", None, 0.0, 10.0),
        _span("fusion.fuse", 0, 1.0, 6.0, channels=9, skipped=2),
        _span("signals.windows", 1, 1.5, 2.0, windows=40),
        _span("signals.design", 1, 2.0, 2.25),
        _span("transit_time.matrix", 0, 6.0, 9.0, pairs=36, retained=700, failed=0),
        _span("signals.windows", 4, 6.5, 7.0, windows=20),
        _span("grid.score", 0, 9.0, 9.75, defined=3, skin=4),
        _span("rppg.method", 6, 9.0, 9.5, segments=1),
    ]
    selfs = spans.self_times(recorded)
    assert selfs == pytest.approx([1.25, 4.25, 0.5, 0.25, 2.5, 0.5, 0.25, 0.5])
    assert sum(selfs) == pytest.approx(10.0)
    assert spans.nesting_errors(recorded) == []

    totals = spans.job_layer_totals(recorded)
    assert totals["fusion_channel_windows"] == 40 * 9
    assert totals["pair_windows"] == 20 * 36
    assert totals["methods_under_grid"] == 1
    layers = spans.layer_metrics([{"totals": totals, "startup_s": 1.0, "bytes_written": 5}])
    assert layers["fusion.busy_s"] == (pytest.approx(4.25), "s")
    assert layers["fusion.us_per_channel_window"][0] == pytest.approx(4.25 / 360 * 1e6)
    assert layers["fusion.skipped_channel_windows"] == (2, "count")
    assert layers["transit_time.retained_ratio"] == (pytest.approx(700 / 720), "ratio")
    assert layers["signals.windows_s"][0] == pytest.approx(1.0)
    assert layers["grid.defined_ratio"] == (0.75, "ratio")
    assert layers["cli.self_s"][0] == pytest.approx(1.25)


def test_spans_reaching_outside_their_parent_are_reported():
    recorded = [_span("cli.main", None, 0.0, 1.0), _span("rppg.method", 0, 0.5, 1.5)]
    assert len(spans.nesting_errors(recorded)) == 1
    assert len(spans.nesting_errors([{"name": "cli.main", "parent": None, "start": 0.0}])) == 1


@pytest.mark.parametrize("n, window_s", [(900, 1.6), (900, 10.0), (145, 1.6), (1000, 1.6)])
def test_segment_count_matches_the_overlap_add_plan(monkeypatch, n, window_s):
    import numpy as np

    from bodyppg import rppg
    from bodyppg.signals import Waveform

    calls = []
    original = rppg._pos_segment
    monkeypatch.setattr(rppg, "_pos_segment", lambda cn: calls.append(1) or original(cn))
    rng = np.random.default_rng(0)
    trace = rppg.RGBTrace(*(Waveform(1.0 + 0.01 * rng.random(n), 90.0) for _ in range(3)))
    cfg = rppg.MethodConfig(internal_window_s=window_s)
    result = rppg.pos(trace, cfg)
    assert spans._segments(result, trace, cfg) == {"segments": len(calls)}


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "ptt", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "2"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    reports = {
        name: json.loads((BENCH / ".work" / "results" / f"smoke-{name}-seed2-trace1.json").read_text())
        for name in COMMAND_METRICS
    }
    return last, reports


def test_smoke_runs_every_workload_and_its_outputs_pass_their_checks(smoke):
    last, reports = smoke
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for name, report in reports.items():
        assert report["correct"], (name, report["problems"], report["cross_check_problems"])
        assert report["end_to_end"]["error_rate"]["value"] == 0.0
        assert report["digests"]["unstable_across_passes"] == []


def test_smoke_emits_every_metric_with_its_unit(smoke):
    last, reports = smoke
    for name, report in reports.items():
        wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        wanted.update({m: "s" for m in COMMAND_METRICS[name]}, error_rate="ratio")
        for section, names in (("end_to_end", wanted), ("per_layer", LAYER_METRICS)):
            got = {k: m["unit"] for k, m in report[section].items()}
            assert {k: got.get(k) for k in names} == names, (name, section)
            for k in names:
                assert last["metrics"][f"{name}.{k}"] == report[section][k]
        env = report["environment"]
        assert {"python", "numpy", "scipy", "nproc", "cpu_model", "thread_vars", "seed"} <= set(env)


def test_smoke_traced_counts_match_the_work_each_workload_does(smoke):
    _, reports = smoke
    layer = {name: {k: m["value"] for k, m in r["per_layer"].items()} for name, r in reports.items()}
    assert layer["ptt"]["transit_time.pair_windows"] > 0
    assert layer["ptt"]["transit_time.failed"] == 0
    assert layer["reference"]["fusion.channel_windows"] > 0
    assert layer["grid"]["grid.cell_windows"] == 2 * (6 * 8 - 1)
    assert layer["frames"]["grid.cell_windows"] == 2 * (5 * 4 - 1)
    assert layer["frames"]["session.dump_reads"] == 3
    for name in ("ptt", "reference", "grid"):
        assert layer[name]["session.frames_ingested"] == 0
        assert layer[name]["session.dump_reads"] == 0
    for name in ("ptt", "grid", "frames"):
        assert layer[name]["fusion.channel_windows"] == 0
