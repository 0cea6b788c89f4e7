#!/usr/bin/env python3
"""Run the three worked examples end to end and print everything.

  python scripts/worked_examples.py

Covers the pentagon-with-triangles complex on five vertices (bigraded
table, ring, series), the octahedron sphere on six vertices (classical
and sphere-pair series), and the minimal projective-plane triangulation
(integer torsion on both computation paths).
"""

import sys
from pathlib import Path

try:
    import facetor
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import facetor  # noqa: F401

from facetor import (
    CochainComplex,
    Complement,
    QQ,
    ZZ,
    SimplicialComplex,
    TorRing,
    complement_from_complex,
    set_str,
    taylor_complex,
    tor_bigraded,
    zk_poincare,
)
from facetor.bitsets import full_mask, popcount, vertices
from facetor.moment_angle import PairSpec, maz_cohomology
from facetor.polynomials import pstr


def show_tor(P, coeff=QQ):
    t = tor_bigraded(P, coeff)
    for (q, sigma), g in t.blocks():
        line = f"  q={q} sigma={set_str(sigma)} deg={2 * popcount(sigma) - q} rank={g.rank}"
        if g.torsion:
            line += " torsion=" + ",".join(map(str, g.torsion))
        print(line)
    print(f"  total rank {t.total_rank()}")


def pentagon():
    print("== pentagon complex: complement {(1,5), (2,4), (1,2,3), (3,4,5)} on [5]")
    P = Complement.from_vertex_lists(5, [[1, 5], [2, 4], [1, 2, 3], [3, 4, 5]])
    show_tor(P)
    series = zk_poincare(P, QQ)
    print(f"  series: {pstr(series)} (total {sum(series.values())})")
    ring = TorRing(P, QQ)
    print("  basis:", ", ".join(name for name, _ in ring.basis))
    for e in ring.multiplication_table():
        if e["terms"] and ring.class_by_name(e["left"]).q > 0 and ring.class_by_name(e["right"]).q > 0:
            combo = " + ".join(n if c == 1 else f"{c}*{n}" for n, c in e["terms"])
            print(f"  [{e['left']}] * [{e['right']}] = {combo}")


def octahedron():
    print("== octahedron sphere: complement {(1,2), (3,4), (5,6)} on [6]")
    P = Complement.from_vertex_lists(6, [[1, 2], [3, 4], [5, 6]])
    series = zk_poincare(P, QQ)
    print(f"  classical series: {pstr(series)} (total {sum(series.values())})")
    spheres = maz_cohomology(P, PairSpec.spheres_s2_s1(6), QQ)
    print(f"  sphere-pair series: {pstr(spheres)} (total {sum(spheres.values())})")


def projective_plane():
    print("== minimal projective plane on [6]")
    facets = [
        [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
        [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6],
    ]
    K = SimplicialComplex.from_facets(6, facets)
    P = complement_from_complex(K)
    print("  missing faces:", [list(vertices(m)) for m in P.members])
    block = taylor_complex(P).block_homology(full_mask(6), 3, ZZ)
    oracle = CochainComplex(K).cohomology(2, ZZ)
    print(f"  block (q=3, sigma=[6]) over Z: {block}")
    print(f"  independent cohomology in degree 2 over Z: {oracle}")


if __name__ == "__main__":
    pentagon()
    print()
    octahedron()
    print()
    projective_plane()
