"""Workload definitions: input documents and the CLI jobs run on them.

Everything here is built by the benchmark itself, never by the package
under test, so a change to the package cannot change a workload.  A job
is a tuple ``(command, document, *options)``; the document name is
replaced by the path of the generated JSON file when the job runs.
"""

from __future__ import annotations

import random


def cycle(n: int) -> dict:
    """The n-cycle C_n as a facet list (its minimal non-faces are the
    n(n-3)/2 non-edges)."""
    return {"m": n, "facets": [[i, i % n + 1] for i in range(1, n + 1)]}


# The worked examples: the pentagon with two triangles (FIG1), the
# octahedron sphere (EX513) and the minimal 6-vertex triangulation of
# the real projective plane, whose integer Tor has 2-torsion.
FIXED_DOCUMENTS = {
    "fig1": {"m": 5, "complement": [[1, 5], [2, 4], [1, 2, 3], [3, 4, 5]]},
    "ex513": {"m": 6, "complement": [[1, 2], [3, 4], [5, 6]]},
    "c5": cycle(5),
    "c6": cycle(6),
    "rp2": {
        "m": 6,
        "facets": [
            [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
            [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6],
        ],
    },
}

TOR_COEFFS = ("q", "z", "f:2")
RING_COEFFS = ("q", "f:2")

# Each pass starts with a large job, so that the one-time cost of the
# first CLI call in a fresh interpreter does not land on a small job
# whose latency sets a percentile.  RP^2 over Q (about 14 s, four fifths
# of a pass) and maz s2s1 on C6 (about 16 s) are left out: with them a
# run holds one or two passes, too few for a median on this host.
FIXED_JOBS = {
    "tor-ladder": [("tor", "c6", "--coeff", "q"), ("zk", "c6")]
    + [
        ("tor", doc, "--coeff", coeff)
        for doc in ("fig1", "ex513", "c5", "c6", "rp2")
        for coeff in TOR_COEFFS
        if (doc, coeff) not in (("c6", "q"), ("rp2", "q"))
    ],
    "ring-products": [
        ("ring", doc, "--coeff", coeff)
        for doc in ("c6", "fig1", "ex513", "c5")
        for coeff in RING_COEFFS
    ],
    "maz-faces": [
        ("star", "c6", "--omega", "1"),
        ("star", "c6", "--omega", "1,2"),
        ("link", "c6", "--omega", "1"),
    ]
    + [
        ("maz", doc, "--preset", preset)
        for doc in ("fig1", "ex513", "c5")
        for preset in ("s2s1", "d2s1")
    ],
}

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = ("tor-ladder", "ring-products", "maz-faces", "verify-sweep")

# verify-sweep draws its complements once, from a fixed stream, with
# every (m, s) pair of the grid equally often.  The --seed then draws a
# relabelling of the vertices and an order of the members for each one.
# Each seed hands the oracle different documents, but the cost of a pass
# does not depend on which complements happened to be drawn, so runs
# with different seeds measure the same amount of work.  m = 7 is left
# out: its few, slow blocks form a sparse tail, and the p90 latency fell
# there and moved by a fifth with the relabelling.
SWEEP_M = (2, 3, 4, 5, 6)
SWEEP_S = (1, 2, 3, 4, 5, 6)
SWEEP_ROUNDS = 25
SWEEP_BASE_SEED = 20100621


def random_clutter(rng: random.Random, m: int, s: int) -> list[int]:
    """Up to s distinct non-empty subsets of [m], none containing
    another: the minimal non-faces of a random complex, so the
    presentation is already minimal.  Stops early when [m] admits no
    further member."""
    members: list[int] = []
    for _ in range(50 * s):
        if len(members) == s:
            break
        mask = rng.randrange(1, 1 << m)
        if all(mask & ~k and k & ~mask for k in members):
            members.append(mask)
    return members


def sweep_documents(seed: int) -> dict[str, dict]:
    base = random.Random(SWEEP_BASE_SEED)
    rng = random.Random(seed)
    docs = {}
    for r in range(SWEEP_ROUNDS):
        for s in SWEEP_S:
            for m in SWEEP_M:
                members = random_clutter(base, m, s)
                relabel = rng.sample(range(1, m + 1), m)
                complement = [
                    sorted(relabel[b] for b in range(m) if mask >> b & 1) for mask in members
                ]
                rng.shuffle(complement)
                docs[f"r{r}-m{m}-s{s}"] = {"m": m, "complement": complement}
    return docs


def build(workload: str, seed: int) -> tuple[dict[str, dict], list[tuple[str, ...]]]:
    """Documents and jobs of one pass.  Only verify-sweep depends on the
    seed; the fixed workloads are compared against recorded output."""
    if workload == "verify-sweep":
        docs = sweep_documents(seed)
        return docs, [("verify", name) for name in docs]
    if workload not in FIXED_JOBS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return dict(FIXED_DOCUMENTS), list(FIXED_JOBS[workload])


def label(job: tuple[str, ...]) -> str:
    """Stable name of a job: its argv with the document name in place
    of the generated path."""
    return " ".join(job)


def argv(job: tuple[str, ...], paths: dict[str, str]) -> list[str]:
    command, doc, *options = job
    return [command, paths[doc], *options]
