"""Acceptance suite: one test per shipping criterion, run at the stated
scale and tolerance (everything here is exact arithmetic, so tolerance
means literal equality).  Each test prints a PASS line; pytest -v gives
the per-criterion verdict."""

import json
import random
import time
from itertools import combinations

from facetor import (
    Complement,
    complement_from_complex,
    complex_from_complement,
    compress,
    full_subcomplex,
    link,
    minimalize,
    star,
    tor_bigraded,
    zk_poincare,
)
from facetor.bitsets import full_mask, popcount, vertices
from facetor.cli import main
from facetor.linalg import QQ, ZZ, PrimeField
from facetor.moment_angle import PairSpec, maz_cohomology, star_tor
from facetor.polynomials import padd, pmul
from facetor.sampling import random_complement
from facetor.taylor import taylor_complex
from facetor.tor import TorRing

from helpers import (
    EX513,
    FIG1,
    bareiss_determinant,
    boundary_column,
    full_differential,
    full_signature,
    has_face,
    nonface_blocks,
    random_matrix,
    reduced_cohomology,
    rp2_complex,
    s2s1_poincare,
    signature,
    smith_normal_form,
)
from support import SupportFunction, char_fn, compress_fn, delta, mu, one_fn

FIELDS_AND_Z = (QQ, PrimeField(2), ZZ)


def test_criterion_01_pentagon_golden(capsys, tmp_path):
    start = time.monotonic()
    t = tor_bigraded(FIG1, QQ)
    assert t.total_rank() == 12
    bidegrees = sorted(
        (q, tuple(vertices(sigma)))
        for (q, sigma), g in t.entries.items()
        for _ in range(g.rank)
    )
    assert bidegrees == sorted(
        [
            (0, ()),
            (1, (1, 5)),
            (1, (2, 4)),
            (1, (1, 2, 3)),
            (1, (3, 4, 5)),
            (2, (1, 2, 4, 5)),
            (2, (1, 2, 3, 5)),
            (2, (1, 3, 4, 5)),
            (2, (1, 2, 3, 4)),
            (2, (2, 3, 4, 5)),
            (3, (1, 2, 3, 4, 5)),
            (3, (1, 2, 3, 4, 5)),
        ]
    )
    assert all(g.torsion == () for g in t.entries.values())
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps({"m": 5, "complement": [[1, 5], [2, 4], [1, 2, 3], [3, 4, 5]]}))
    assert main(["zk", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "1 + 2x^3 + 2x^5 + 5x^6 + 2x^7 (total 12)\n"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 01 PASS pentagon Tor rank 12 and series exact ({elapsed:.2f}s)")


def test_criterion_02_pentagon_ring():
    ring = TorRing(FIG1, QQ)
    table = ring.multiplication_table()
    nonzero = [
        e
        for e in table
        if e["terms"]
        and ring.class_by_name(e["left"]).q > 0
        and ring.class_by_name(e["right"]).q > 0
    ]
    assert len(nonzero) == 1
    entry = nonzero[0]
    assert {entry["left"], entry["right"]} == {"s1", "s2"}
    assert len(entry["terms"]) == 1
    name, coeff = entry["terms"][0]
    assert name == "s1*s2" and coeff in (1, -1)
    print("ACCEPTANCE 02 PASS pentagon ring has the single product [s1][s2] = +/-[s1*s2]")


def test_criterion_03_octahedron_classic(capsys, tmp_path):
    start = time.monotonic()
    path = tmp_path / "ex513.json"
    path.write_text(json.dumps({"m": 6, "complement": [[1, 2], [3, 4], [5, 6]]}))
    assert main(["zk", str(path)]) == 0
    assert capsys.readouterr().out == "1 + 3x^3 + 3x^6 + x^9 (total 8)\n"
    ring = TorRing(EX513, QQ)
    by_name = dict(ring.basis)
    gens = ["s1", "s2", "s3"]
    # the full exterior-algebra table on three generators
    for r in range(4):
        for combo in combinations(gens, r):
            name = "*".join(combo) if combo else "1"
            assert name in by_name
    for a in gens:
        for b in gens:
            prod = ring.product(by_name[a], by_name[b])
            if a == b:
                assert not any(prod.coords)
            else:
                assert tuple(abs(c) for c in prod.coords) == (1,)
                assert prod.sigma == by_name[a].sigma | by_name[b].sigma
    top = ring.product(ring.product(by_name["s1"], by_name["s2"]), by_name["s3"])
    assert tuple(abs(c) for c in top.coords) == (1,)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 03 PASS octahedron series and exterior table exact ({elapsed:.2f}s)")


def test_criterion_04_octahedron_sphere_pair(capsys, tmp_path):
    start = time.monotonic()
    path = tmp_path / "ex513.json"
    path.write_text(json.dumps({"m": 6, "complement": [[1, 2], [3, 4], [5, 6]]}))
    assert main(["maz", str(path), "--preset", "s2s1"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "1 + 6x^2 + 9x^3 + 12x^4 + 36x^5 + 35x^6 + 36x^7 + 54x^8 + 27x^9 (total 216)\n"
    )
    # the four per-face families, with multiplicities 1, 6, 12, 8
    families = {
        0: {0: 1, 3: 3, 6: 3, 9: 1},
        1: {2: 1, 3: 1, 5: 2, 6: 2, 8: 1, 9: 1},
        2: {4: 1, 5: 2, 6: 1, 7: 1, 8: 2, 9: 1},
        3: {6: 1, 7: 3, 8: 3, 9: 1},
    }
    counts = {0: 0, 1: 0, 2: 0, 3: 0}
    K = complex_from_complement(EX513)
    for omega in K.faces():
        t = star_tor(EX513, omega, QQ)
        sub = {}
        for (q, tau), g in t.entries.items():
            deg = 2 * popcount(omega) + 2 * popcount(tau) - q
            sub[deg] = sub.get(deg, 0) + g.rank
        assert sub == families[popcount(omega)]
        counts[popcount(omega)] += 1
    assert counts == {0: 1, 1: 6, 2: 12, 3: 8}
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 04 PASS sphere-pair series totals 216 with exact families ({elapsed:.2f}s)")


def test_criterion_05_randomized_oracle_sweep(capsys):
    start = time.monotonic()
    code = main(
        ["verify", "--random", "--trials", "200", "--seed", "11", "--max-m", "7", "--max-s", "5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failures" in out
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 05 PASS 200-trial oracle sweep over Q, F2, Z ({elapsed:.2f}s)")


def test_criterion_06_projective_plane_torsion():
    K = rp2_complex()
    P = complement_from_complex(K)
    taylor_side = taylor_complex(P).block_homology(full_mask(6), 3, ZZ)
    oracle_side = reduced_cohomology(K, 2, ZZ)
    assert taylor_side.signature == (0, (2,))
    assert oracle_side.signature == (0, (2,))
    assert taylor_side.signature == oracle_side.signature
    print("ACCEPTANCE 06 PASS projective-plane block (3, [6]) carries Z/2 on both paths")


def test_criterion_07_chain_complex_properties():
    start = time.monotonic()
    rng = random.Random(2024)
    for _ in range(500):
        P = random_complement(rng, 6, 5)
        tc = taylor_complex(P)
        zero_exp = (0,) * P.m
        for u in range(1 << P.s):
            # reduced differential squares to zero
            acc = {}
            for v, c in boundary_column(tc, u).items():
                for w, c2 in boundary_column(tc, v).items():
                    acc[w] = acc.get(w, 0) + c * c2
            assert not any(acc.values())
        # full differential squares to zero and specializes to the reduced one
        u = rng.getrandbits(P.s) if P.s else 0
        exps = tuple(rng.randint(0, 1) for _ in range(P.m))
        t = {(u, exps): 1}
        assert full_differential(tc, full_differential(tc, t)) == {}
        full = full_differential(tc, {(u, zero_exp): 1})
        killed = {gu: c for (gu, e), c in full.items() if not any(e)}
        assert killed == boundary_column(tc, u)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 07 PASS d.d = 0 and full/reduced agreement on 500 complements ({elapsed:.2f}s)")


def test_criterion_08_support_identities_exhaustive():
    start = time.monotonic()
    m = 5
    size = 1 << m
    mus = [mu(m, sigma) for sigma in range(size)]
    ones = one_fn(m)

    # characteristic-function identities over every complement with up
    # to four distinct members of 2^[5] (order and duplicates cannot
    # affect any of these identities)
    checked = 0
    for s in range(5):
        for combo in combinations(range(size), s):
            P = Complement(m, combo)
            f = char_fn(complex_from_complement(P))
            prod = ones
            for mem in combo:
                prod = prod * (ones + mus[mem])
            assert f == prod
            tc = taylor_complex(P)
            bits = 0
            for sigma in tc.supports():
                if sum(tc.block_dims(sigma).values()) % 2:
                    bits ^= mus[sigma].bits
            assert SupportFunction(m, bits) == f
            checked += 1
    assert checked == 41449

    # compression of the superset indicators: exhaustive over all pairs
    for sigma in range(size):
        for omega in range(size):
            assert compress_fn(mus[sigma], omega) == mus[sigma & ~omega]

    # compression is an algebra homomorphism: bilinearity makes the
    # basis pairs exhaustive for arbitrary arguments
    deltas = [delta(m, sigma) for sigma in range(size)]
    for omega in range(size):
        compressed = [compress_fn(d, omega) for d in deltas]
        for a in range(size):
            for b in range(size):
                assert compress_fn(deltas[a] + deltas[b], omega) == compressed[a] + compressed[b]
                assert compress_fn(deltas[a] * deltas[b], omega) == compressed[a] * compressed[b]

    # characteristic functions commute with compression: exhaustive at
    # m = 4, s <= 3, and a deterministic sample of the m = 5 family
    for s in range(4):
        for combo in combinations(range(16), s):
            P4 = Complement(4, combo)
            f4 = char_fn(complex_from_complement(P4))
            for omega in range(16):
                assert compress_fn(f4, omega) == char_fn(
                    complex_from_complement(compress(P4, omega))
                )
    rng = random.Random(5)
    for _ in range(400):
        P5 = Complement(m, tuple(rng.randrange(size) for _ in range(4)))
        f5 = char_fn(complex_from_complement(P5))
        for omega in range(size):
            assert compress_fn(f5, omega) == char_fn(
                complex_from_complement(compress(P5, omega))
            )
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE 08 PASS support-algebra identities, ambient 5, 41449 complements ({elapsed:.2f}s)")


def test_criterion_09_star_link_dual_path():
    rng = random.Random(3001)
    trials = 0
    while trials < 200:
        P = random_complement(rng, 6, 5)
        K = complex_from_complement(P)
        if K.is_void:
            continue
        trials += 1
        omega = rng.getrandbits(P.m)
        compressed = compress(P, omega)
        K_comp = complex_from_complement(compressed)
        assert star(K, omega) == K_comp
        L = link(K, omega)
        if K_comp.is_void:
            assert L.is_void
            continue
        rest = full_mask(P.m) & ~omega
        assert L == full_subcomplex(K_comp, rest)
        # link cohomology through the compressed blocks matches the oracle
        if has_face(K, omega):
            t = tor_bigraded(compressed, QQ)
            for n in range(-1, popcount(rest)):
                q = popcount(rest) - n - 1
                assert t.group(q, rest).signature == reduced_cohomology(L, n, QQ).signature
    print("ACCEPTANCE 09 PASS star/link equal their compression forms on 200 samples")


def test_criterion_10_moment_angle_consistency():
    rng = random.Random(77)
    for _ in range(100):
        P = random_complement(rng, 6, 4)
        assert maz_cohomology(P, PairSpec.disks_d2_s1(P.m), QQ) == zk_poincare(P, QQ)
    x_poly = ((2, 1), (4, 1))
    for _ in range(100):
        P = random_complement(rng, 5, 4)
        got = maz_cohomology(P, PairSpec.uniform(P.m, x_poly, ()), QQ)
        expected = {}
        K = complex_from_complement(P)
        for omega in K.faces():
            term = {0: 1}
            for _v in vertices(omega):
                term = pmul(term, dict(x_poly))
            expected = padd(expected, term)
        assert got == dict(sorted(expected.items()))
    for _ in range(100):
        P = random_complement(rng, 5, 3)
        # compression by a non-face kills every block, so summing over
        # faces alone loses nothing
        assert nonface_blocks(P, QQ) == {}
        assert maz_cohomology(P, PairSpec.spheres_s2_s1(P.m), QQ) == s2s1_poincare(P, QQ)
    print("ACCEPTANCE 10 PASS disk/circle equals classic series; contractible and all-omega laws hold")


def test_criterion_11_presentation_independence():
    rng = random.Random(88)
    for _ in range(100):
        P = random_complement(rng, 6, 5)
        Q = minimalize(P)
        for coeff in (QQ, ZZ):
            # the full complex on P against the Lyubeznik one on Q
            assert full_signature(P, coeff) == signature(tor_bigraded(Q, coeff))
    print("ACCEPTANCE 11 PASS 100 random presentations give identical block tables")


def test_criterion_12_snf_contract():
    rng = random.Random(424242)
    for _ in range(1000):
        M = random_matrix(rng, max_dim=12, lo=-9, hi=9)
        U, D, V = smith_normal_form(M)
        assert (U @ M) @ V == D
        diag = [D.rows[i][i] for i in range(min(M.nrows, M.ncols))]
        for i in range(D.nrows):
            for j in range(D.ncols):
                if i != j:
                    assert D.rows[i][j] == 0
        nonzero = [d for d in diag if d]
        assert diag[: len(nonzero)] == nonzero
        assert all(d > 0 for d in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert bareiss_determinant(U.rows) in (-1, 1)
        assert bareiss_determinant(V.rows) in (-1, 1)
    print("ACCEPTANCE 12 PASS SNF contract on 1000 random integer matrices")
