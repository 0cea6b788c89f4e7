import random
from collections import Counter

import pytest

from hypothesis import example, given, strategies as st

from facetor import (
    CochainComplex,
    Complement,
    SimplicialComplex,
    TorClass,
    TorRing,
    complement_from_complex,
    complex_from_complement,
    full_subcomplex,
    minimalize,
    tor_bigraded,
    zk_poincare,
)
from facetor.bitsets import full_mask, mask_of, popcount
from facetor.linalg import QQ, ZZ, PrimeField, homology_representatives
from facetor.sampling import random_complement
from facetor.taylor import TaylorComplex, taylor_complex

from helpers import EX513, FIG1, full_signature, rp2_complex


class TestBigradedTable:
    def test_pentagon_complement_bidegrees(self):
        t = tor_bigraded(FIG1, QQ)
        assert t.total_rank() == 12
        expected = {
            (0, 0): 1,
            (1, mask_of([1, 5], 5)): 1,
            (1, mask_of([2, 4], 5)): 1,
            (1, mask_of([1, 2, 3], 5)): 1,
            (1, mask_of([3, 4, 5], 5)): 1,
            (2, mask_of([1, 2, 3, 4], 5)): 1,
            (2, mask_of([1, 2, 3, 5], 5)): 1,
            (2, mask_of([1, 2, 4, 5], 5)): 1,
            (2, mask_of([1, 3, 4, 5], 5)): 1,
            (2, mask_of([2, 3, 4, 5], 5)): 1,
            (3, full_mask(5)): 2,
        }
        assert {k: g.rank for k, g in t.entries.items()} == expected
        assert all(g.torsion == () for g in t.entries.values())

    def test_three_disjoint_edges_is_exterior(self):
        t = tor_bigraded(EX513, QQ)
        assert t.total_rank() == 8
        for (q, sigma), g in t.entries.items():
            assert g.rank == 1
            assert popcount(sigma) == 2 * q

    def test_unit_ideal_kills_everything(self):
        t = tor_bigraded(Complement(2, (0,)), QQ)
        assert t.entries == {}
        assert t.total_rank() == 0

    def test_unit_block_present_iff_nonvoid(self):
        rng = random.Random(21)
        for _ in range(40):
            P = random_complement(rng, 5, 4)
            t = tor_bigraded(P, QQ)
            if any(mem == 0 for mem in P.members):
                assert t.entries == {}
            else:
                assert t.group(0, 0).rank == 1

    def test_presentation_independence(self):
        # the full complex on the given presentation against the
        # Lyubeznik subcomplex of the minimal one
        rng = random.Random(31)
        for _ in range(25):
            P = random_complement(rng, 6, 5)
            for coeff in (QQ, ZZ):
                assert full_signature(P, coeff) == tor_bigraded(minimalize(P), coeff).signature()


def _oracle_signature(P: Complement, coeff) -> dict:
    """Nonzero Hochster blocks: the cohomology of every full subcomplex."""
    K = complex_from_complement(P)
    out = {}
    if K.is_void:
        return out
    for sigma in range(1 << P.m):
        oracle = CochainComplex(full_subcomplex(K, sigma))
        for q in range(popcount(sigma) + 1):
            group = oracle.cohomology(popcount(sigma) - q - 1, coeff)
            if not group.is_zero:
                out[(q, sigma)] = group.signature
    return out


@st.composite
def redundant_presentations(draw):
    """Up to 5 drawn members (the empty one included), then possibly a
    duplicate and a member containing another, in a random order."""
    m = draw(st.integers(1, 6))
    members = draw(st.lists(st.integers(0, (1 << m) - 1), max_size=5))
    if members and draw(st.booleans()):
        members.append(draw(st.sampled_from(members)))
    if members and draw(st.booleans()):
        members.append(draw(st.sampled_from(members)) | draw(st.integers(0, (1 << m) - 1)))
    return Complement(m, tuple(draw(st.permutations(members))))


@given(redundant_presentations())
@example(Complement(4, (0b0011, 0b0011, 0b0111, 0b1100)))
@example(Complement(3, (0b011, 0, 0b110)))
def test_lyubeznik_taylor_and_oracle_agree(P):
    reversed_P = Complement(P.m, P.members[::-1])
    for coeff in (QQ, PrimeField(2), ZZ):
        oracle = _oracle_signature(P, coeff)
        assert tor_bigraded(P, coeff).signature() == oracle
        assert full_signature(P, coeff) == oracle
        assert tor_bigraded(reversed_P, coeff).signature() == oracle


def test_lyubeznik_keeps_rp2_torsion():
    P = complement_from_complex(rp2_complex())
    lyubeznik = tor_bigraded(P, ZZ)
    assert lyubeznik.taylor.s == P.s == 10
    assert len(lyubeznik.taylor.totals) < 1 << P.s
    assert lyubeznik.group(3, full_mask(6)).signature == (0, (2,))
    assert lyubeznik.signature() == full_signature(P, ZZ) == _oracle_signature(P, ZZ)


def test_ring_takes_blocks_from_the_lyubeznik_build(monkeypatch):
    # TorRing reads block ranks off tor_bigraded and the full complex
    # only for chains: no block homology of the full complex is taken
    P = complement_from_complex(SimplicialComplex.from_facets(6, [[i, i % 6 + 1] for i in range(1, 7)]))
    called = []
    block_homology = TaylorComplex.block_homology

    def recording(self, sigma, q, coeff):
        called.append(self)
        return block_homology(self, sigma, q, coeff)

    monkeypatch.setattr(TaylorComplex, "block_homology", recording)
    TorRing(P, QQ).multiplication_table()
    assert called
    assert all(tc is not taylor_complex(P) for tc in called)


@given(redundant_presentations())
@example(Complement(4, (0b0011, 0b0011, 0b0111, 0b1100)))
def test_ring_basis_matches_tor_bigraded(P):
    full = taylor_complex(P)
    for coeff in (QQ, PrimeField(2)):
        tor = tor_bigraded(P, coeff)
        for (q, sigma), group in tor.entries.items():
            reps = homology_representatives(
                full.boundary_matrix(sigma, q + 1), full.boundary_matrix(sigma, q), coeff
            ).representatives
            assert len(reps) == group.rank
        basis = Counter((tc.q, tc.sigma) for _, tc in TorRing(P, coeff).basis)
        assert basis == {key: group.rank for key, group in tor.entries.items()}


class TestPoincare:
    def test_pentagon_series(self):
        assert zk_poincare(FIG1, QQ) == {0: 1, 3: 2, 5: 2, 6: 5, 7: 2}

    def test_octahedron_series(self):
        assert zk_poincare(EX513, QQ) == {0: 1, 3: 3, 6: 3, 9: 1}

    def test_no_members(self):
        assert zk_poincare(Complement(3, ()), QQ) == {0: 1}

    def test_needs_field(self):
        with pytest.raises(ValueError):
            zk_poincare(FIG1, ZZ)


class TestProducts:
    def test_pentagon_unique_nonzero_product(self):
        ring = TorRing(FIG1, QQ)
        s1 = ring.class_by_name("s1")
        s2 = ring.class_by_name("s2")
        s12 = ring.class_by_name("s1*s2")
        prod = ring.product(s1, s2)
        assert prod.coords in ((1,), (-1,))
        assert (prod.q, prod.sigma) == (s12.q, s12.sigma)
        table = ring.multiplication_table()
        nonzero = [
            e
            for e in table
            if e["terms"]
            and ring.class_by_name(e["left"]).q > 0
            and ring.class_by_name(e["right"]).q > 0
        ]
        assert len(nonzero) == 1
        assert {nonzero[0]["left"], nonzero[0]["right"]} == {"s1", "s2"}

    def test_delta_condition_zero(self):
        ring = TorRing(FIG1, QQ)
        prod = ring.product(ring.class_by_name("s1"), ring.class_by_name("s3"))
        assert prod.is_zero

    def test_unit_law(self):
        ring = TorRing(FIG1, QQ)
        unit = ring.unit()
        for name, tc in ring.basis:
            assert ring.product(unit, tc).coords == tc.coords

    def test_exterior_algebra_table(self):
        ring = TorRing(EX513, QQ)
        names = {name for name, _ in ring.basis}
        assert names == {
            "1",
            "s1",
            "s2",
            "s3",
            "s1*s2",
            "s1*s3",
            "s2*s3",
            "s1*s2*s3",
        }
        by_name = dict(ring.basis)
        gens = {"s1": 0b001, "s2": 0b010, "s3": 0b100}
        for a, ua in gens.items():
            for b, ub in gens.items():
                prod = ring.product(by_name[a], by_name[b])
                if ua == ub:
                    assert prod.is_zero
                else:
                    assert prod.coords in ((1,), (-1,))
                    assert prod.sigma == by_name[a].sigma | by_name[b].sigma

    def test_graded_commutativity_sign(self):
        ring = TorRing(EX513, QQ)
        a = ring.class_by_name("s1")
        b = ring.class_by_name("s2")
        ab = ring.product(a, b)
        ba = ring.product(b, a)
        assert ab.coords == tuple(-c for c in ba.coords)

    def test_degree_additivity(self):
        ring = TorRing(EX513, QQ)
        for name_a, a in ring.basis:
            for name_b, b in ring.basis:
                prod = ring.product(a, b)
                if not prod.is_zero:
                    deg_a = 2 * popcount(a.sigma) - a.q
                    deg_b = 2 * popcount(b.sigma) - b.q
                    assert 2 * popcount(prod.sigma) - prod.q == deg_a + deg_b

    def test_all_members_pairwise_intersecting(self):
        # pairwise-intersecting members force every pair of positive
        # supports to intersect, so all positive-degree products vanish
        P = Complement.from_vertex_lists(4, [[1, 2], [1, 3], [1, 4], [2, 3, 4]])
        ring = TorRing(P, QQ)
        for e in ring.multiplication_table():
            if ring.class_by_name(e["left"]).q > 0 and ring.class_by_name(e["right"]).q > 0:
                assert not e["terms"]

    def test_table_asserts_laws_on_random_inputs(self):
        rng = random.Random(13)
        for _ in range(10):
            # random_complement(rng, 5, 4) with every empty member
            # redrawn as a single vertex, so no complex is void
            m, s = rng.randint(1, 5), rng.randint(0, 4)
            P = Complement(m, tuple(rng.getrandbits(m) or 1 << rng.randrange(m) for _ in range(s)))
            TorRing(P, QQ).multiplication_table()
            TorRing(P, PrimeField(3)).multiplication_table()

    def test_broken_commutativity_raises(self, monkeypatch):
        # the laws are contracts: they must fail loudly under python -O too
        product = TorRing.product

        def lopsided(self, a, b):
            result = product(self, a, b)
            if a.sigma == 0 and b.sigma != 0:
                return TorClass(result.q, result.sigma, tuple(2 * c for c in result.coords), result.chain)
            return result

        monkeypatch.setattr(TorRing, "product", lopsided)
        with pytest.raises(AssertionError, match="graded commutativity fails"):
            TorRing(FIG1, QQ).multiplication_table()


class TestFieldChoice:
    def test_f2_matches_q_when_torsion_free(self):
        a = tor_bigraded(FIG1, QQ).signature()
        b = tor_bigraded(FIG1, PrimeField(2)).signature()
        assert a == b


def test_total_rank_matches_oracle_census():
    # the total rank over Q equals the sum of full-subcomplex reduced
    # Betti numbers over every subset and degree
    from facetor import complex_from_complement, full_subcomplex, reduced_cohomology

    rng = random.Random(71)
    for _ in range(15):
        P = random_complement(rng, 5, 4)
        K = complex_from_complement(P)
        if K.is_void:
            assert tor_bigraded(P, QQ).total_rank() == 0
            continue
        census = 0
        for sigma in range(1 << P.m):
            sub = full_subcomplex(K, sigma)
            for q in range(popcount(sigma) + 1):
                census += reduced_cohomology(sub, popcount(sigma) - q - 1, QQ).rank
        assert tor_bigraded(P, QQ).total_rank() == census
