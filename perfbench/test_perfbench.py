"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check that the correctness gate counts a corrupted golden record
as a failure, that tracing leaves stdout byte-identical, and that the
spans of a traced pass nest with self times that fit in the job.
"""

from __future__ import annotations

import copy

import pytest

import worker
import workloads
from facetor import cli
from speed import REFERENCE_PROBE_S, SpeedProbe
from tracer import HOOK, JOB, Tracer, layer_metrics, self_times

SMALL_JOBS = [
    ("tor", "fig1", "--coeff", "z"),
    ("tor", "rp2", "--coeff", "f:2"),
    ("ring", "fig1", "--coeff", "q"),
    ("maz", "ex513", "--preset", "s2s1"),
    ("maz", "c5", "--preset", "d2s1"),
    ("link", "c6", "--omega", "1"),
]


@pytest.fixture(autouse=True)
def one_thread(monkeypatch):
    monkeypatch.setenv("FACE_TOR_THREADS", "1")


@pytest.fixture
def paths(tmp_path):
    docs = dict(workloads.FIXED_DOCUMENTS)
    docs.update(list(workloads.sweep_documents(seed=3).items())[:12])
    return worker.write_documents(docs, str(tmp_path))


def sweep_jobs():
    return [("verify", name) for name in list(workloads.sweep_documents(seed=3))[:12]]


def test_corrupted_golden_line_is_a_failure(paths):
    golden = worker.load_golden()
    records, _, _ = worker.run_jobs(SMALL_JOBS, paths, golden)
    assert [r["fail"] for r in records] == [None] * len(SMALL_JOBS)

    label = workloads.label(SMALL_JOBS[0])
    corrupt = copy.deepcopy(golden)
    lines = corrupt[label]["stdout"].splitlines(keepends=True)
    lines[1] = lines[1].replace("rank=", "rank=9")
    corrupt[label]["stdout"] = "".join(lines)
    corrupt[workloads.label(SMALL_JOBS[2])]["exit"] = 4
    records, _, _ = worker.run_jobs(SMALL_JOBS, paths, corrupt)
    failed = {r["job"]: r["fail"] for r in records if r["fail"]}
    assert failed == {
        label: "stdout differs from the golden record",
        workloads.label(SMALL_JOBS[2]): "exit 0, recorded 4",
    }


def test_sweep_job_fails_unless_the_oracle_agrees(paths):
    records, _, _ = worker.run_jobs(sweep_jobs(), paths, None)
    assert all(r["fail"] is None for r in records)
    bad = "checked 5 (q, sigma) blocks over Q, F2, Z: 4 passed, 1 failed\n"
    assert worker.check("verify x", 4, bad, None, None) is not None
    good = "checked 5 (q, sigma) blocks over Q, F2, Z: 5 passed, 0 failed\n"
    assert worker.check("verify x", 0, good, None, None) is None
    assert worker.check("verify x", 0, good, "exceeded 60 s", None) == "exceeded 60 s"


def test_traced_and_untraced_stdout_are_identical(paths):
    golden = worker.load_golden()
    original = cli.load_input
    for job in SMALL_JOBS + sweep_jobs():
        argv = workloads.argv(job, paths)
        untraced = worker.run_job(argv)
        tracer = Tracer()
        tracer.install()
        try:
            traced = worker.run_job(argv, tracer)
        finally:
            tracer.uninstall()
        assert traced == untraced, job
        assert traced[2] is None
        if job[0] != "verify":
            assert traced[1] == golden[workloads.label(job)]["stdout"]
    assert cli.load_input is original


def test_spans_nest_and_self_times_fit_in_the_job(paths):
    tracer = Tracer()
    tracer.install()
    try:
        records, hits, misses = worker.run_jobs(SMALL_JOBS, paths, worker.load_golden(), tracer)
        sweep_records, sweep_hits, sweep_misses = worker.run_jobs(sweep_jobs(), paths, None, tracer)
    finally:
        tracer.uninstall()
    records += sweep_records
    assert all(r["fail"] is None for r in records)

    by_id = {sid: (parent, name, start, end) for sid, parent, name, start, end in tracer.spans}
    roots = [sid for sid, (parent, name, _, _) in by_id.items() if parent is None]
    assert len(roots) == len(records)
    assert all(by_id[sid][1] == JOB for sid in roots)
    for sid, (parent, name, start, end) in by_id.items():
        assert start <= end
        if parent is not None:
            _, _, p_start, p_end = by_id[parent]
            assert p_start <= start and end <= p_end, (name, by_id[parent][1])

    own = self_times(tracer.spans)
    assert min(own.values()) >= -1e-6
    root_of = {}
    for sid in sorted(by_id):
        parent = by_id[sid][0]
        root_of[sid] = sid if parent is None else root_of[parent]
    per_job = dict.fromkeys(roots, 0.0)
    for sid, t in own.items():
        per_job[root_of[sid]] += t
    for root, record in zip(sorted(roots), records):
        assert per_job[root] <= record["end"] - record["start"] + 1e-6

    metrics = layer_metrics(tracer, hits + sweep_hits, misses + sweep_misses)
    assert metrics["linalg.homology_at.Q.calls"] > 0
    assert metrics["hochster.cohomology.s"] > 0
    assert metrics["linalg.reduce_cycle.calls"] > 0
    assert metrics["moment_angle.faces"] > 0
    assert 0 < metrics["complexes.minimal_ratio"] < 1  # maz compresses ex513 and c5
    assert any(name == HOOK for _, _, name, _, _ in tracer.spans)


def test_speed_adjustment_excludes_probe_time():
    probe = SpeedProbe()
    probe.times = [float(i) for i in range(20)]
    probe.durations = [0.5] * 20
    # [2, 5] holds probes 2..5: 2 s of probe time, a third of nominal speed
    assert probe.adjust(2.0, 5.0) == pytest.approx((3.0 - 2.0) * REFERENCE_PROBE_S / 0.5)
    # a short interval borrows the nearest probes
    assert probe.adjust(10.1, 10.2) == pytest.approx(0.1 * REFERENCE_PROBE_S / 0.5)
