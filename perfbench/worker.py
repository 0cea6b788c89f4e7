"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \\
        --spawned T --deadline T [--spans PATH] [--setup-only]

``--spawned`` is the ``time.monotonic()`` reading of the parent just
before it started this process, so set-up time covers the interpreter
start, ``import facetor``, input generation and loading the golden
record.  The pass drives the CLI in-process through
``facetor.cli.main``, one job after another, and prints one JSON object
with its per-job results as the last line of stdout.  Every time is
reported raw and speed-adjusted (see speed.py).  ``--setup-only`` stops
once the first job is ready.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import signal
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
WORK_DIR = BENCH_DIR / "work"

# A job that runs longer than this is stopped and counted as failed, so
# a hang cannot stall the benchmark.  The slowest job takes about 16 s.
JOB_LIMIT_S = 60.0

VERIFY_SUMMARY = re.compile(r"^checked \d+ \(q, sigma\) blocks over .*: \d+ passed, 0 failed$")

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from facetor import cli  # noqa: E402
from facetor.taylor import taylor_complex  # noqa: E402

import workloads  # noqa: E402
from speed import MIN_PROBES, PROBES_PER_JOB, SpeedProbe  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


class JobTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise JobTimeout


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class DocumentFiles(dict):
    """Document name -> path of its JSON file in `directory`.  A file is
    written on first lookup, just before the first job that reads it, so
    that set-up time does not grow with the number of documents."""

    def __init__(self, docs: dict[str, dict], directory: str):
        super().__init__()
        self.docs = docs
        self.directory = directory

    def __missing__(self, name: str) -> str:
        path = os.path.join(self.directory, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.docs[name], fh)
        self[name] = path
        return path


def write_documents(docs: dict[str, dict], directory: str) -> dict[str, str]:
    files = DocumentFiles(docs, directory)
    return {name: files[name] for name in docs}


def run_job(argv: list[str], tracer: Tracer | None = None) -> tuple[int | None, str, str | None]:
    """(exit code, stdout, error) of one in-process CLI call.  error is
    None unless the call raised or overran JOB_LIMIT_S."""
    out = io.StringIO()
    rc, error = None, None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = tracer.job(cli.main, argv) if tracer else cli.main(argv)
    except JobTimeout:
        error = f"exceeded {JOB_LIMIT_S:g} s"
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a job that raises is a failed job, not a failed pass
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return rc, out.getvalue(), error


def check(label: str, rc: int | None, stdout: str, error: str | None, golden: dict | None) -> str | None:
    """Why the job failed, or None.  Fixed jobs must match the golden
    record byte for byte; sweep jobs must pass the oracle cross-check."""
    if error is not None:
        return error
    if golden is None:
        lines = stdout.splitlines()
        if rc != 0 or not lines or not VERIFY_SUMMARY.match(lines[-1]):
            return f"exit {rc}, oracle summary {lines[-1] if lines else '(none)'!r}"
        return None
    want = golden.get(label)
    if want is None:
        return "no golden record"
    if rc != want["exit"]:
        return f"exit {rc}, recorded {want['exit']}"
    if stdout.encode() != want["stdout"].encode():
        return "stdout differs from the golden record"
    return None


def run_jobs(jobs, paths, golden, tracer=None, deadline=None, probe=None) -> tuple[list[dict], int, int]:
    """Run the jobs cold, in order.  Returns per-job records (with the
    perf_counter interval of each job) and the taylor_complex cache hits
    and misses summed over the jobs.  A speed probe, when given, is also
    sampled just before each job, so that short jobs have probes close
    by."""
    records, hits, misses = [], 0, 0
    for job in jobs:
        label = workloads.label(job)
        if deadline is not None and time.monotonic() > deadline:
            records.append({"job": label, "fail": "not started before the deadline"})
            continue
        if probe is not None:
            for _ in range(PROBES_PER_JOB):
                probe.sample()
        argv = workloads.argv(job, paths)
        taylor_complex.cache_clear()
        start = time.perf_counter()
        rc, stdout, error = run_job(argv, tracer)
        end = time.perf_counter()
        info = taylor_complex.cache_info()
        hits += info.hits
        misses += info.misses
        records.append(
            {"job": label, "start": start, "end": end, "fail": check(label, rc, stdout, error, golden)}
        )
    return records, hits, misses


def run_pass(
    workload: str,
    seed: int,
    trace: bool,
    spawned: float,
    deadline: float,
    spans_path: str | None = None,
    setup_only: bool = False,
) -> dict:
    probe = SpeedProbe()
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        docs, jobs = workloads.build(workload, seed)
        paths = DocumentFiles(docs, tmp)
        workloads.argv(jobs[0], paths)
        golden = None if workload == "verify-sweep" else load_golden()
        setup = time.monotonic() - spawned
        ready = time.perf_counter()
        for _ in range(MIN_PROBES):
            probe.sample()
        result = {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "setup_s": setup,
            "setup_adj_s": probe.adjust(ready - setup, ready),
        }
        if setup_only:
            return result
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
        probe.start()
        start = time.perf_counter()
        try:
            records, hits, misses = run_jobs(jobs, paths, golden, tracer, deadline, probe)
        finally:
            wall = time.perf_counter() - start
            probe.stop()
            if tracer:
                tracer.uninstall()
    for record in records:
        if "start" in record:
            start, end = record.pop("start"), record.pop("end")
            record["s"] = end - start
            record["adj_s"] = probe.adjust(start, end)
    result.update(
        {
            "wall_s": wall,
            "wall_adj_s": sum(record.get("adj_s", 0.0) for record in records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "probes": len(probe.times),
            "jobs": records,
        }
    )
    if tracer:
        result["layers"] = layer_metrics(tracer, hits, misses)
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "parent", "name", "start", "end"], "spans": tracer.spans}, fh)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--spans", help="write the spans of a traced pass here")
    parser.add_argument("--setup-only", action="store_true", help="stop once the first job is ready")
    args = parser.parse_args()
    os.environ["FACE_TOR_THREADS"] = "1"  # one client, no threads
    result = run_pass(
        args.workload, args.seed, bool(args.trace), args.spawned, args.deadline, args.spans, args.setup_only
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
