"""The facetor benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json records why each exists): tor-ladder,
ring-products, maz-faces, verify-sweep.  The benchmark is a closed loop
with one client: each pass runs the workload's CLI jobs one after
another, in-process through ``facetor.cli.main``, in a fresh
interpreter with ``FACE_TOR_THREADS=1``, and every job starts with a
cold ``taylor_complex`` cache.  Passes are repeated until ``--seconds``
have gone by; each reported figure is a median over passes.  Set-up
time is also sampled by SETUP_SAMPLES extra interpreters that stop once
the first job is ready.

The end-to-end times are speed-adjusted (see speed.py): this host's
speed drifts by a quarter or more for tens of seconds at a time, which
raw wall time cannot tell apart from a change in the program.  Raw
times are printed beside them and kept in the results file.

Every job is checked: fixed jobs against the golden record in
golden.json, byte for byte with their exit code, and verify-sweep jobs
by the Hochster oracle's summary line.  A job that differs, raises or
overruns its time limit counts as failed.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are
reported from untraced passes.  With ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics are reported from the traced
ones; the spans of the last traced pass are written under results/.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402

# No job starts after this many seconds, and a pass still running at
# RUN_LIMIT_S is killed, so a run ends well inside three minutes.
LAST_JOB_START_S = 100.0
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 5


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, by name."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def spawn_pass(
    workload: str, seed: int, trace: bool, started: float, spans_path: Path | None = None, setup_only: bool = False
) -> dict | None:
    """Run one pass in a fresh interpreter; None if it was killed at
    the run's time limit."""
    spawned = time.monotonic()
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(trace)),
        "--spawned", repr(spawned),
        "--deadline", repr(started + LAST_JOB_START_S),
    ]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, FACE_TOR_THREADS="1")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, started + RUN_LIMIT_S - spawned),
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise BenchmarkError(f"pass exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[dict], int]:
    """Set-up samples, then passes until `seconds` have gone by.  In a
    traced run, untraced and traced passes alternate and the run ends
    after a traced one.  Returns the set-up samples, the passes and the
    number of jobs lost to a killed pass."""
    started = time.monotonic()
    n_jobs = len(workloads.build(workload, seed)[1])
    setups = []
    for _ in range(SETUP_SAMPLES):
        result = spawn_pass(workload, seed, False, started, setup_only=True)
        if result is None:
            return setups, [], n_jobs
        setups.append(result)
    started = time.monotonic()
    passes: list[dict] = []
    traced = False
    while True:
        spans = RESULTS_DIR / f"{workload}-seed{seed}-spans.json" if traced else None
        result = spawn_pass(workload, seed, traced, started, spans)
        if result is None:
            return setups, passes, n_jobs
        passes.append(result)
        elapsed = time.monotonic() - started
        if elapsed >= LAST_JOB_START_S:
            break
        if elapsed >= seconds and (traced or not trace):
            break
        traced = trace and not traced
    return setups, passes, 0


def end_to_end(setups: list[dict], untraced: list[dict], suffix: str = "adj_s") -> dict[str, float]:
    """The end-to-end metrics, from speed-adjusted times (suffix
    "adj_s") or raw ones (suffix "s")."""
    # each job's latency is its median over passes; the percentiles are
    # taken across jobs, so every run ranks the same number of samples,
    # and interpolate inside the sample, which is small on fixed workloads
    latencies = [
        statistics.median(job[suffix] for job in same if suffix in job)
        for same in zip(*(p["jobs"] for p in untraced))
        if any(suffix in job for job in same)
    ]
    return {
        "wall_s": statistics.median(p["wall_" + suffix] for p in untraced),
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "setup_s": statistics.median(p["setup_" + suffix] for p in setups + untraced),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]
    }
    metrics["trace.overhead_ratio"] = statistics.median(
        p["wall_adj_s"] for p in traced
    ) / statistics.median(p["wall_adj_s"] for p in untraced)
    return metrics


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "FACE_TOR_THREADS": "1",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "facetor").is_dir():
        print("benchmark: src/facetor not found; run from a full checkout", file=sys.stderr)
        return 2
    units_e2e, units_layer = declared_metrics()
    RESULTS_DIR.mkdir(exist_ok=True)
    try:
        setups, passes, lost = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    untraced = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    if not untraced or (args.trace and not traced):
        print("benchmark: no complete pass within the run's time limit", file=sys.stderr)
        return 1

    jobs = [job for p in passes for job in p["jobs"]]
    attempted = len(jobs) + lost
    failures = [job for job in jobs if job["fail"]]
    failed = len(failures) + lost
    if args.trace:
        values, units = per_layer(untraced, traced), units_layer
    else:
        values, units = end_to_end(setups, untraced), units_e2e
    if set(values) != set(units):
        raise SystemExit(f"benchmark: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes, {len(jobs)} jobs")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if not args.trace:
        print(f"job latency samples: {len(untraced[0]['jobs'])} jobs, each a median of "
              f"{len(untraced)} passes; set-up samples: {len(setups) + len(untraced)}")
        raw = end_to_end(setups, untraced, "s")
        print(f"  {'metric':42s} {'adjusted':>12s} {'raw':>12s}")
        for name, value in values.items():
            print(f"  {name:42s} {value:12.6g} {raw[name]:12.6g} {units[name]}")
    else:
        for name, value in values.items():
            print(f"  {name:42s} {value:.6g} {units[name]}")
    print(f"  {'fail_ratio':42s} {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    for job in failures[:10]:
        print(f"FAILED {job['job']}: {job['fail']}", file=sys.stderr)
    if lost:
        print(f"FAILED {lost} jobs of a pass killed at the run's time limit", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "metrics": values, "setups": setups, "passes": passes}
    with open(RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
