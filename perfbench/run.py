"""Benchmark of the bodyppg batch CLI over four session workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all      every workload in turn
    python3 perfbench/run.py --smoke             every workload once, reduced inputs, traced
    python3 perfbench/run.py --record-digests    keep the artifact digests of saved results

Each job is one CLI command, run in its own Python process by ``child.py``.
The load is a closed loop from one client: one job at a time, the next
launched only after the previous one exits. A pass runs every job of the
workload once; passes repeat until ``--seconds`` have gone by (at least one)
and each timing is the median over passes. Set-up, which builds the inputs
from the seed, runs SETUP_REPEATS times and reports its median.

With ``--trace 1`` untraced and traced passes alternate: traced passes give
the per-layer metrics, and the difference in ``run_s`` is the tracing
overhead. End-to-end metrics always come from untraced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are those
BENCHMARK.json lists for the trace mode. The full report (environment, every
end-to-end and per-layer metric, output checks, digests, cross-checks) is
saved under ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"

SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # every job of a run must have exited by then
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "main_s": "s",
    "fuse_gt_s": "s",
    "estimate_s": "s",
    "grid_map_s": "s",
    "ptt_sensors_s": "s",
    "ptt_rppg_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


# ----------------------------------------------------------------------------
# One job, one pass


def _tree_digests(path: Path) -> dict[str, str]:
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def _run_job(job, run_dir: Path, trace: bool, timeout_s: float) -> dict:
    """Launch one job and wait for it to exit; returns its raw record."""
    timings = run_dir / "timings" / f"{job.name}.json"
    timings.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(timings.relative_to(run_dir)),
           "1" if trace else "0", "--", *job.command_line()]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    record = {"job": job, "problems": []}
    with open(run_dir / "logs" / f"{job.name}.log", "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=run_dir, env=env, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=max(timeout_s, 1.0))
        except subprocess.TimeoutExpired:
            record["problems"].append(f"{job.name}: killed after {timeout_s:.0f} s")
            return record
    if proc.returncode != 0:
        record["problems"].append(f"{job.name}: exit code {proc.returncode}")
    if timings.is_file():
        record["timings"] = json.loads(timings.read_text())
    else:
        record["problems"].append(f"{job.name}: no timings written")
    return record


def _cross_checks(job, out: Path, totals: dict, timings: dict, facts) -> list[str]:
    """Traced counts against the counts in the job's own outputs."""
    problems = spans.nesting_errors(timings["spans"])
    self_sum = sum(totals["self_s"].values())
    if abs(self_sum - timings["main_s"]) > 1e-3 + 1e-3 * timings["main_s"]:
        problems.append(f"{job.name}: self times add to {self_sum:.6f} s, "
                        f"main() took {timings['main_s']:.6f} s")
    command = job.argv[0]
    if command == "ptt":
        doc = json.loads((out / "ptt_matrix.json").read_text())
        n = len(doc["sites"])
        expected, traced = doc["n_windows"] * n * (n - 1) // 2, totals["pair_windows"]
    elif command == "grid-map":
        meta = json.loads((out / "grid_meta.json").read_text())
        expected, traced = meta["n_error_frames"] * facts.skin_cells, totals["methods_under_grid"]
    elif command == "fuse-gt":
        diags = json.loads((out / "fused_diagnostics.json").read_text())
        manifest = json.loads((out.parents[1] / "session" / "manifest.json").read_text())
        expected = diags["n_windows"] * len(manifest["sensors"])
        traced = totals["fusion_channel_windows"]
    else:
        return problems
    if traced != expected:
        problems.append(f"{job.name}: traced {traced} units of work, outputs say {expected}")
    return problems


def _run_pass(workload, run_dir: Path, facts, trace: bool, deadline: float) -> dict:
    for sub in ("out", "timings", "logs"):
        _clear(run_dir / sub)
        (run_dir / sub).mkdir(parents=True)
    t0 = time.perf_counter()
    records = [_run_job(job, run_dir, trace, deadline - time.perf_counter())
               for job in workload.jobs]
    run_s = time.perf_counter() - t0

    session = run_dir / "session"
    cross = []
    for rec in records:
        job, out = rec["job"], run_dir / "out" / rec["job"].name
        if not rec["problems"]:
            try:
                rec["problems"] += job.check(out, session, facts)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                rec["problems"].append(f"{job.name}: output check raised {exc!r}")
        rec["digests"] = {f"{job.name}/{k}": v for k, v in _tree_digests(out).items()}
        rec["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        if trace and "timings" in rec:
            rec["totals"] = spans.job_layer_totals(rec["timings"]["spans"])
            if not rec["problems"]:
                cross += _cross_checks(job, out, rec["totals"], rec["timings"], facts)
    return {"trace": trace, "run_s": run_s, "records": records, "cross_check_problems": cross}


def _pass_e2e(p: dict) -> dict[str, float]:
    timed = [r for r in p["records"] if "timings" in r]
    out = {"run_s": p["run_s"], "main_s": sum(r["timings"]["main_s"] for r in timed)}
    for r in timed:
        out[r["job"].metric] = out.get(r["job"].metric, 0.0) + r["timings"]["main_s"]
    return out


def _pass_layers(p: dict) -> dict[str, tuple[float, str]]:
    jobs = [{"totals": r["totals"], "startup_s": r["timings"]["startup_s"],
             "bytes_written": r["bytes_written"]} for r in p["records"] if "totals" in r]
    return spans.layer_metrics(jobs)


# ----------------------------------------------------------------------------
# One run of one workload


def _clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def _set_up(workload, run_dir: Path, seed: int, smoke: bool, repeats: int):
    """Build the inputs ``repeats`` times; the first copy is kept."""
    times, builds, digests, facts = [], [], None, None
    stable = True
    for k in range(repeats):
        target = run_dir if k == 0 else run_dir / "repeat"
        t0 = time.perf_counter()
        built = workload.build(target, seed, smoke)
        times.append(time.perf_counter() - t0)
        builds.append(built.build_s)
        d = _tree_digests(target / "session")
        if k == 0:
            facts, digests = built, d
        else:
            stable = stable and d == digests
            _clear(target)
    sizes = {"session_bytes": sum(p.stat().st_size for p in (run_dir / "session").rglob("*")),
             "session_files": len(digests), **facts.sizes}
    return facts, times, builds, stable, sizes


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
    }


def _collect(passes: list[dict], fn) -> dict:
    values: dict[str, list] = {}
    for p in passes:
        for k, v in fn(p).items():
            values.setdefault(k, []).append(v)
    return values


def _key(name: str, smoke: bool) -> str:
    return f"smoke-{name}" if smoke else name


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload and return its full report."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    run_dir = WORK / _key(name, smoke)
    _clear(run_dir)
    run_dir.mkdir(parents=True)
    start = time.perf_counter()
    facts, setup_times, build_times, inputs_stable, sizes = _set_up(
        workload, run_dir, seed, smoke, 1 if smoke else SETUP_REPEATS)

    deadline = start + RUN_LIMIT_S
    passes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        passes.append(_run_pass(workload, run_dir, facts, False, deadline))
        if trace:
            passes.append(_run_pass(workload, run_dir, facts, True, deadline))
        if time.perf_counter() - t0 >= seconds:
            break

    plain = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    records = [r for p in passes for r in p["records"]]
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])

    e2e = {"setup_s": (statistics.median(setup_times), "s")}
    for k, vals in _collect(plain, _pass_e2e).items():
        e2e[k] = (statistics.median(vals), E2E_UNITS[k])
    e2e["peak_rss_mb"] = (max((r["timings"]["peak_rss_mb"] for p in plain for r in p["records"]
                               if "timings" in r), default=0.0), "MB")
    e2e["error_rate"] = (failed / attempted, "ratio")

    layers = {}
    cross = [c for p in traced for c in p["cross_check_problems"]]
    if any("totals" in r for p in traced for r in p["records"]):
        for k, vals in _collect(traced, _pass_layers).items():
            layers[k] = (statistics.median(v for v, _ in vals), vals[0][1])
        layers["synthetic_session.build_s"] = (statistics.median(build_times), "s")
        layers["trace.overhead_s"] = (statistics.median(p["run_s"] for p in traced)
                                      - e2e["run_s"][0], "s")

    digests = _digest_report(name, seed, smoke, passes)
    problems = sorted({p for r in records for p in r["problems"]})
    if not inputs_stable:
        problems.append("set-up built different inputs from the same seed")
    report = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "smoke": smoke,
        "seconds": seconds,
        "trace": trace,
        "environment": _environment(seed),
        "input_sizes": sizes,
        "setup_s_samples": setup_times,
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_run_s": [p["run_s"] for p in passes],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "cross_check_problems": cross,
        "digests": digests,
        "correct": failed == 0 and inputs_stable and not cross,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{_key(name, smoke)}-seed{seed}-trace{int(trace)}"
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if report["correct"]:
        _clear(run_dir)
    return report


def _digest_report(name: str, seed: int, smoke: bool, passes: list[dict]) -> dict:
    """Artifact digests: stable across passes, and against the recorded set?"""
    first = {k: v for r in passes[0]["records"] for k, v in r["digests"].items()}
    unstable = sorted({k for p in passes[1:] for r in p["records"]
                       for k, v in r["digests"].items() if first.get(k) != v})
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    recorded = table.get(_key(name, smoke), {}).get(str(seed))
    changed = None
    if recorded is not None:
        changed = sorted(k for k in recorded.keys() | first.keys() if recorded.get(k) != first.get(k))
    return {"artifacts": first, "unstable_across_passes": unstable,
            "recorded": recorded is not None, "changed_vs_recorded": changed}


def record_digests() -> int:
    """Store the artifact digests of every correct saved result in digests.json."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for path in sorted((WORK / "results").glob("*.json")):
        report = json.loads(path.read_text())
        if report["correct"] and not report["digests"]["unstable_across_passes"]:
            key = _key(report["workload"], report["smoke"])
            table.setdefault(key, {})[str(report["seed"])] = report["digests"]["artifacts"]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded digests for {sum(len(v) for v in table.values())} runs in {DIGESTS}")
    return 0


# ----------------------------------------------------------------------------
# Command line


def _print_report(report: dict) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, {report['passes']} passes, "
          f"{report['traced_passes']} traced): {report['why']}")
    for section in ("end_to_end", "per_layer"):
        for k, m in report[section].items():
            print(f"  {k:34s} {m['value']:14.6g} {m['unit']}")
    for problem in report["problems"] + report["cross_check_problems"]:
        print(f"  PROBLEM: {problem}")
    d = report["digests"]
    changed = "not recorded" if not d["recorded"] else f"{len(d['changed_vs_recorded'])} changed"
    print(f"  digests: {len(d['artifacts'])} artifacts, {changed} vs recorded, "
          f"{len(d['unstable_across_passes'])} unstable across passes")


def _headline(report: dict, trace: bool, spec: dict) -> dict:
    section = "per_layer" if trace else "end_to_end"
    wanted = spec[section]
    missing = [m["name"] for m in wanted if m["name"] not in report[section]]
    if missing:
        raise RuntimeError(f"report lacks metrics {missing}")
    return {m["name"]: report[section][m["name"]] for m in wanted}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once on reduced inputs, traced")
    parser.add_argument("--record-digests", action="store_true",
                        help="store the artifact digests of the saved results and exit")
    args = parser.parse_args(argv)
    if args.record_digests:
        return record_digests()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "bodyppg" / "cli.py").is_file():
        print(f"error: no bodyppg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        names, seconds, trace = list(WORKLOADS), 0.0, True
    else:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        seconds, trace = args.seconds, bool(args.trace)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)} or all")

    reports = [run_workload(n, args.seed, seconds, trace, args.smoke) for n in names]
    for report in reports:
        _print_report(report)
    if len(reports) == 1:
        metrics = _headline(reports[0], trace, spec)
    else:
        metrics = {f"{r['workload']}.{k}": m for r in reports
                   for section in ("end_to_end", "per_layer") for k, m in r[section].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
