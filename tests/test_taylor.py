import random
from itertools import combinations
from math import comb

from hypothesis import given, strategies as st

from facetor import QQ, BigradedTor, Complement, TorRing, minimalize, tor_bigraded
from facetor.bitsets import bit_positions, popcount
from facetor.taylor import (
    chain_product,
    generator_sign,
    taylor_complex,
)
from facetor.sampling import random_complement

from helpers import FIG1, boundary_matrices, full_differential, total_subset

S1, S2, S3, S4 = 0b0001, 0b0010, 0b0100, 0b1000
FULL5 = 0b11111


class TestReducedDifferential:
    def test_top_generator(self):
        tc = taylor_complex(FIG1)
        d = tc.reduced_differential(S1 | S2 | S3 | S4)
        assert d == {
            S2 | S3 | S4: -1,
            S1 | S3 | S4: 1,
            S1 | S2 | S4: -1,
            S1 | S2 | S3: 1,
        }

    def test_triple_134(self):
        tc = taylor_complex(FIG1)
        assert tc.reduced_differential(S1 | S3 | S4) == {S3 | S4: -1}

    def test_triple_234_forced_by_square_zero(self):
        # d of the top generator must itself die under d, which forces
        # this second nonzero triple differential
        tc = taylor_complex(FIG1)
        assert tc.reduced_differential(S2 | S3 | S4) == {S3 | S4: -1}

    def test_pair_vanishes(self):
        tc = taylor_complex(FIG1)
        assert tc.reduced_differential(S1 | S2) == {}

    def test_empty_generator(self):
        tc = taylor_complex(FIG1)
        assert tc.reduced_differential(0) == {}

    @given(st.integers(1, 5), st.lists(st.integers(0, 31), max_size=5))
    def test_square_zero(self, m, members):
        P = Complement(m, tuple(mem & ((1 << m) - 1) for mem in members))
        tc = taylor_complex(P)
        for u in range(1 << P.s):
            acc = {}
            for v, c in tc.reduced_differential(u).items():
                for w, c2 in tc.reduced_differential(v).items():
                    acc[w] = acc.get(w, 0) + c * c2
            assert all(x == 0 for x in acc.values())

    def test_grading_preserved(self):
        tc = taylor_complex(FIG1)
        for u in range(16):
            for v in tc.reduced_differential(u):
                assert total_subset(tc, v) == total_subset(tc, u)
                assert popcount(v) == popcount(u) - 1


class TestFullDifferential:
    def test_single_member(self):
        tc = taylor_complex(FIG1)
        z = (0,) * 5
        out = full_differential(tc, {(S1, z): 1})
        assert out == {(0, (1, 0, 0, 0, 1)): -1}

    def test_square_zero_random(self):
        rng = random.Random(9)
        for _ in range(60):
            P = random_complement(rng, 5, 4)
            tc = taylor_complex(P)
            u = rng.getrandbits(P.s) if P.s else 0
            exps = tuple(rng.randint(0, 2) for _ in range(P.m))
            t = {(u, exps): rng.choice([1, -1, 2])}
            assert full_differential(tc, full_differential(tc, t)) == {}

    def test_specialization_reproduces_reduced(self):
        rng = random.Random(10)
        for _ in range(60):
            P = random_complement(rng, 5, 4)
            tc = taylor_complex(P)
            u = rng.getrandbits(P.s) if P.s else 0
            z = (0,) * P.m
            full = full_differential(tc, {(u, z): 1})
            killed = {gu: c for (gu, e), c in full.items() if not any(e)}
            assert killed == tc.reduced_differential(u)


class TestSupports:
    def test_disjoint_members(self):
        P = Complement.from_vertex_lists(4, [[1, 2], [3, 4]])
        tc = taylor_complex(P)
        assert tc.supports() == [0, 0b0011, 0b1100, 0b1111]
        assert all(len(tc.generators(s, q)) == 1 for s in tc.supports() for q in tc.block_dims(s))

    def test_overlapping_members(self):
        P = Complement.from_vertex_lists(3, [[1, 2], [1, 3]])
        tc = taylor_complex(P)
        assert tc.supports() == [0, 0b011, 0b101, 0b111]

    def test_pentagon_complement_top_support(self):
        tc = taylor_complex(FIG1)
        carriers = [u for u in range(16) if total_subset(tc, u) == FULL5]
        # one pair, all four triples, and the top generator
        assert sorted(carriers) == sorted([S3 | S4, 0b0111, 0b1011, 0b1101, 0b1110, 0b1111])
        assert sum(tc.block_dims(FULL5).values()) == 6

    @given(st.integers(1, 5), st.lists(st.integers(0, 31), max_size=5))
    def test_partition_of_generators(self, m, members):
        P = Complement(m, tuple(mem & ((1 << m) - 1) for mem in members))
        tc = taylor_complex(P)
        total = sum(sum(tc.block_dims(s).values()) for s in tc.supports())
        assert total == 1 << P.s
        for q in range(P.s + 1):
            assert sum(len(tc.generators(s, q)) for s in tc.supports()) == comb(P.s, q)


def _l_admissible(members: tuple[int, ...], u: int) -> bool:
    """Every tail {i_j, ..., i_p} of u avoids multiples of the members
    before i_j (the definition, tail by tail)."""
    positions = bit_positions(u)
    for j, i in enumerate(positions):
        lcm = 0
        for b in positions[j:]:
            lcm |= members[b]
        if any(mem & ~lcm == 0 for mem in members[:i]):
            return False
    return True


class TestLyubeznik:
    @given(st.integers(1, 5), st.lists(st.integers(0, 31), max_size=7))
    def test_generators_are_the_admissible_subsets(self, m, members):
        P = Complement(m, tuple(mem & ((1 << m) - 1) for mem in members))
        tc = taylor_complex(P, True)
        minimal = minimalize(P).members
        assert tc.complement.members == minimal
        expected = {u for u in range(1 << len(minimal)) if _l_admissible(minimal, u)}
        assert set(tc.totals) == expected
        for u in expected:
            assert all(u & ~(1 << b) in expected for b in bit_positions(u))
        for sigma in tc.supports():
            for q in tc.block_dims(sigma):
                assert all(total_subset(tc, u) == sigma and popcount(u) == q for u in tc.generators(sigma, q))

    def test_cycle_generator_counts(self):
        from facetor import SimplicialComplex, complement_from_complex

        for n, s, count in ((5, 5, 24), (6, 9, 100), (7, 14, 368), (8, 20, 1296)):
            cycle = SimplicialComplex.from_facets(n, [[i, i % n + 1] for i in range(1, n + 1)])
            tc = taylor_complex(complement_from_complex(cycle), True)
            assert (tc.s, len(tc.totals)) == (s, count)

    def test_builds_are_cached_apart(self):
        P = Complement.from_vertex_lists(3, [[1, 2], [1, 2], [1, 2, 3]])
        full, lyubeznik = taylor_complex(P), taylor_complex(P, True)
        assert full is not lyubeznik
        assert taylor_complex(P, True) is lyubeznik
        assert BigradedTor(P, QQ).taylor is lyubeznik
        assert tor_bigraded(P, QQ).taylor is lyubeznik
        assert TorRing(P, QQ).taylor is full
        assert (full.s, len(full.totals)) == (3, 8)
        assert (lyubeznik.s, len(lyubeznik.totals)) == (1, 2)


class TestBoundaryMatrices:
    def test_single_generator_blocks_are_zero(self):
        P = Complement.from_vertex_lists(4, [[1, 2], [3, 4]])
        tc = taylor_complex(P)
        for sigma in tc.supports():
            for M in boundary_matrices(tc, sigma):
                assert M.is_zero()

    def test_pentagon_top_block_matrices(self):
        tc = taylor_complex(FIG1)
        mats = boundary_matrices(tc, FULL5)
        # nonzero dims sit at q = 2..4: 1, 4, 1
        assert [(M.nrows, M.ncols) for M in mats] == [(0, 0), (0, 1), (1, 4), (4, 1)]
        d3, d4 = mats[2], mats[3]
        assert d3.rows == [[0, 0, -1, -1]]
        assert [row[0] for row in d4.rows] == [1, -1, 1, -1]
        assert (d3 @ d4).is_zero()

    def test_consecutive_compose_to_zero_random(self):
        rng = random.Random(4)
        for _ in range(80):
            P = random_complement(rng, 6, 5)
            tc = taylor_complex(P)
            for sigma in tc.supports():
                mats = boundary_matrices(tc, sigma)
                for a, b in zip(mats, mats[1:]):
                    assert (a @ b).is_zero()


class TestExteriorProduct:
    def test_overlap_kills(self):
        assert generator_sign(S1, S1) == 0
        assert chain_product({S1: 1}, {S1 | S2: 1}) == {}

    def test_koszul_signs(self):
        assert generator_sign(S1, S2) == 1
        assert generator_sign(S2, S1) == -1
        assert generator_sign(S1 | S3, S2) == -1

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_graded_anticommutation(self, u, v):
        su, sv = generator_sign(u, v), generator_sign(v, u)
        if u & v:
            assert su == sv == 0
        else:
            expected = -1 if (popcount(u) * popcount(v)) % 2 else 1
            assert su == expected * sv

    def test_total_subset_additivity(self):
        tc = taylor_complex(FIG1)
        for u, v in combinations(range(16), 2):
            if not u & v:
                assert total_subset(tc, u | v) == total_subset(tc, u) | total_subset(tc, v)

    def test_leibniz_rule(self):
        # d(uv) = d(u) v + (-1)^q u d(v); the truncated product is only a
        # chain map when the total subsets are disjoint, so restrict there
        rng = random.Random(2)
        for _ in range(200):
            P = random_complement(rng, 6, 5)
            tc = taylor_complex(P)
            u = rng.getrandbits(P.s) if P.s else 0
            v = rng.getrandbits(P.s) if P.s else 0
            if u & v or total_subset(tc, u) & total_subset(tc, v):
                continue
            uv = chain_product({u: 1}, {v: 1})
            left = {}
            for w, c in uv.items():
                for x, c2 in tc.reduced_differential(w).items():
                    left[x] = left.get(x, 0) + c * c2
            right = chain_product(tc.reduced_differential(u), {v: 1})
            sign = -1 if popcount(u) % 2 else 1
            for w, c in chain_product({u: 1}, tc.reduced_differential(v)).items():
                right[w] = right.get(w, 0) + sign * c
            left = {k: c for k, c in left.items() if c}
            right = {k: c for k, c in right.items() if c}
            assert left == right


def test_generator_cap():
    import pytest

    from facetor.linalg import CapabilityError

    with pytest.raises(CapabilityError, match="25 members exceed the supported maximum 24"):
        taylor_complex(Complement(1, (1,) * 25))
    # checked on the given presentation, before it is minimalized
    with pytest.raises(CapabilityError, match="25 members exceed the supported maximum 24"):
        taylor_complex(Complement(1, (1,) * 25), True)


def test_c7_largest_slice_matrices_stay_small():
    # the 7-cycle's largest sigma slice has 19.8M matrix cells, 0.26% of
    # them nonzero; storing only the nonzeros keeps the build in a few MB
    import tracemalloc

    from facetor import SimplicialComplex, complement_from_complex
    from facetor.taylor import TaylorComplex

    c7 = SimplicialComplex.from_facets(7, [[i, i % 7 + 1] for i in range(1, 8)])
    tc = TaylorComplex(complement_from_complex(c7))
    sigma = max(tc.supports(), key=lambda s: sum(tc.block_dims(s).values()))
    tracemalloc.start()
    try:
        mats = boundary_matrices(tc, sigma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(M.nrows * M.ncols for M in mats) > 19_000_000
    assert peak < 20 * 2**20
