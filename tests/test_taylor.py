import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from facetor import (
    QQ,
    ZZ,
    BigradedTor,
    Complement,
    HomologyGroup,
    Matrix,
    PrimeField,
    SimplicialComplex,
    TorRing,
    complement_from_complex,
    minimalize,
    tor_bigraded,
)
from facetor.bitsets import bit_positions, popcount
from facetor.linalg import homology_at
from facetor.moment_angle import PairSpec, maz_cohomology
from facetor.taylor import (
    TaylorComplex,
    chain_product,
    generator_sign,
    taylor_complex,
)
from facetor.sampling import random_complement

from helpers import (
    EX513,
    FIG1,
    block_dims,
    boundary_column,
    boundary_matrices,
    full_differential,
    generator_set,
    reduced_differential,
    redundant_presentations,
    rp2_complex,
    supports,
    total_subset,
)

S1, S2, S3, S4 = 0b0001, 0b0010, 0b0100, 0b1000
FULL5 = 0b11111


class TestReducedDifferential:
    # each example reads the generator's column of its block's boundary matrix
    def test_top_generator(self):
        tc = TaylorComplex(FIG1)
        d = boundary_column(tc, S1 | S2 | S3 | S4)
        assert d == {
            S2 | S3 | S4: -1,
            S1 | S3 | S4: 1,
            S1 | S2 | S4: -1,
            S1 | S2 | S3: 1,
        }

    def test_triple_134(self):
        tc = TaylorComplex(FIG1)
        assert boundary_column(tc, S1 | S3 | S4) == {S3 | S4: -1}

    def test_triple_234_forced_by_square_zero(self):
        # d of the top generator must itself die under d, which forces
        # this second nonzero triple differential
        tc = TaylorComplex(FIG1)
        assert boundary_column(tc, S2 | S3 | S4) == {S3 | S4: -1}

    def test_pair_vanishes(self):
        tc = TaylorComplex(FIG1)
        assert boundary_column(tc, S1 | S2) == {}

    def test_empty_generator(self):
        tc = TaylorComplex(FIG1)
        assert boundary_column(tc, 0) == {}

    @given(st.integers(1, 5), st.lists(st.integers(0, 31), max_size=5))
    def test_square_zero(self, m, members):
        P = Complement(m, tuple(mem & ((1 << m) - 1) for mem in members))
        tc = TaylorComplex(P)
        for u in range(1 << P.s):
            acc = {}
            for v, c in boundary_column(tc, u).items():
                for w, c2 in boundary_column(tc, v).items():
                    acc[w] = acc.get(w, 0) + c * c2
            assert all(x == 0 for x in acc.values())

    def test_grading_preserved(self):
        tc = TaylorComplex(FIG1)
        for u in range(16):
            for v in boundary_column(tc, u):
                assert total_subset(tc, v) == total_subset(tc, u)
                assert popcount(v) == popcount(u) - 1

    @given(redundant_presentations(), st.booleans())
    def test_columns_follow_the_definition(self, P, lyubeznik):
        # every deletion keeping the total is a generator of the block
        # below, on the admissible subsets as on all of them
        tc = TaylorComplex(P, lyubeznik)
        for u in generator_set(tc):
            assert boundary_column(tc, u) == reduced_differential(tc, u)


class TestFullDifferential:
    def test_single_member(self):
        tc = TaylorComplex(FIG1)
        z = (0,) * 5
        out = full_differential(tc, {(S1, z): 1})
        assert out == {(0, (1, 0, 0, 0, 1)): -1}

    def test_square_zero_random(self):
        rng = random.Random(9)
        for _ in range(60):
            P = random_complement(rng, 5, 4)
            tc = TaylorComplex(P)
            u = rng.getrandbits(P.s) if P.s else 0
            exps = tuple(rng.randint(0, 2) for _ in range(P.m))
            t = {(u, exps): rng.choice([1, -1, 2])}
            assert full_differential(tc, full_differential(tc, t)) == {}

    def test_specialization_reproduces_reduced(self):
        rng = random.Random(10)
        for _ in range(60):
            P = random_complement(rng, 5, 4)
            tc = TaylorComplex(P)
            u = rng.getrandbits(P.s) if P.s else 0
            z = (0,) * P.m
            full = full_differential(tc, {(u, z): 1})
            killed = {gu: c for (gu, e), c in full.items() if not any(e)}
            assert killed == boundary_column(tc, u)


class TestSupports:
    def test_disjoint_members(self):
        P = Complement.from_vertex_lists(4, [[1, 2], [3, 4]])
        tc = TaylorComplex(P)
        assert supports(tc) == [0, 0b0011, 0b1100, 0b1111]
        assert all(len(tc.generators(s, q)) == 1 for s in supports(tc) for q in block_dims(tc, s))

    def test_overlapping_members(self):
        P = Complement.from_vertex_lists(3, [[1, 2], [1, 3]])
        tc = TaylorComplex(P)
        assert supports(tc) == [0, 0b011, 0b101, 0b111]

    def test_pentagon_complement_top_support(self):
        tc = TaylorComplex(FIG1)
        carriers = [u for u in range(16) if total_subset(tc, u) == FULL5]
        # one pair, all four triples, and the top generator
        assert sorted(carriers) == sorted([S3 | S4, 0b0111, 0b1011, 0b1101, 0b1110, 0b1111])
        assert sum(block_dims(tc, FULL5).values()) == 6

    @given(st.integers(1, 5), st.lists(st.integers(0, 31), max_size=5), st.booleans())
    def test_partition_of_generators(self, m, members, lyubeznik):
        P = Complement(m, tuple(mem & ((1 << m) - 1) for mem in members))
        tc = TaylorComplex(P, lyubeznik)
        members = tc.complement.members
        expected = [u for u in range(1 << tc.s) if not lyubeznik or _l_admissible(members, u)]
        blocks = [tc.generators(s, q) for s in supports(tc) for q in block_dims(tc, s)]
        assert sorted(u for block in blocks for u in block) == expected
        for s in supports(tc):
            for q in block_dims(tc, s):
                assert all(total_subset(tc, u) == s and popcount(u) == q for u in tc.generators(s, q))
        for q in range(tc.s + 1):
            count = sum(len(tc.generators(s, q)) for s in supports(tc))
            assert count == (sum(popcount(u) == q for u in expected) if lyubeznik else comb(tc.s, q))
        # nothing sorts a block: the reversed enumeration lists it in this order
        for block in blocks:
            assert block == sorted(block, key=bit_positions)

    def test_chain_terms_rejects_terms_outside_the_block(self):
        tc = TaylorComplex(FIG1)
        assert tc.chain_terms({S1 | S3 | S4: 2}, FULL5, 3) == [(2, 2)]
        assert tc.chain_terms({S2 | S3 | S4: -1, S1 | S2 | S3: 3}, FULL5, 3) == [(3, -1), (0, 3)]
        with pytest.raises(ValueError, match="outside the requested block"):
            tc.chain_terms({S1 | S3 | S4: 2, S1 | S2 | S3 | S4: 1}, FULL5, 3)  # wrong degree
        with pytest.raises(ValueError, match="outside the requested block"):
            tc.chain_terms({S1 | S2: 1}, FULL5, 2)  # support {1,2,4,5}
        lyubeznik = taylor_complex(FIG1)
        u = next(u for u in range(1 << lyubeznik.s) if u not in generator_set(lyubeznik))
        with pytest.raises(ValueError, match="outside the requested block"):
            lyubeznik.chain_terms({u: 1}, total_subset(tc, u), popcount(u))

    @given(redundant_presentations(), st.booleans(), st.randoms(use_true_random=False))
    def test_chain_boundary_follows_the_definition(self, P, lyubeznik, rng):
        # d of a sparse chain equals the definition's differential summed
        # over its terms and the boundary matrix applied to the chain's
        # (position, value) pairs; on a boundary every term cancels
        tc = TaylorComplex(P, lyubeznik)
        for sigma, blocks in tc.slices():
            for q, gens in blocks.items():
                chain = {u: c for u in rng.sample(gens, min(3, len(gens))) if (c := rng.randint(-2, 2))}
                want: dict = {}
                for u, c in chain.items():
                    for v, x in reduced_differential(tc, u).items():
                        want[v] = want.get(v, 0) + c * x
                want = {v: x for v, x in want.items() if x}
                assert tc.chain_boundary(chain, sigma, q) == want
                terms, below = dict(tc.chain_terms(chain, sigma, q)), tc.generators(sigma, q - 1)
                image = {
                    below[i]: value
                    for i, row in enumerate(tc.boundary_matrix(sigma, q)._entries)
                    if (value := sum(x * terms.get(j, 0) for j, x in row.items()))
                }
                assert image == want
                if q + 1 in blocks:
                    u = rng.choice(blocks[q + 1])
                    assert tc.chain_boundary(reduced_differential(tc, u), sigma, q) == {}

    def test_block_index_built_once(self, monkeypatch):
        # boundary_matrix places its terms, and chain_terms its chains,
        # by one index per block, built on first use
        tc = TaylorComplex(FIG1)
        real = tc.generators
        calls = []
        monkeypatch.setattr(tc, "generators", lambda sigma, q: calls.append((sigma, q)) or real(sigma, q))
        tc.boundary_matrix(FULL5, 4)
        for _ in range(3):
            assert tc.chain_terms({S1 | S3 | S4: 2}, FULL5, 3) == [(2, 2)]
        assert calls.count((FULL5, 3)) == 1


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
        tc = taylor_complex(P)
        minimal = minimalize(P).members
        assert tc.complement.members == minimal
        expected = {u for u in range(1 << len(minimal)) if _l_admissible(minimal, u)}
        assert generator_set(tc) == expected
        for u in expected:
            assert all(u & ~(1 << b) in expected for b in bit_positions(u))
        for sigma in supports(tc):
            for q in block_dims(tc, sigma):
                assert all(total_subset(tc, u) == sigma and popcount(u) == q for u in tc.generators(sigma, q))

    def test_cycle_generator_counts(self):
        from facetor import SimplicialComplex, complement_from_complex

        for n, s, count in ((5, 5, 24), (6, 9, 100), (7, 14, 368), (8, 20, 1296)):
            cycle = SimplicialComplex.from_facets(n, [[i, i % n + 1] for i in range(1, n + 1)])
            tc = taylor_complex(complement_from_complex(cycle))
            assert (tc.s, len(generator_set(tc))) == (s, count)

    def test_builds_are_cached_apart(self):
        # the cache keeps one Lyubeznik build; each ring builds its own full one
        P = Complement.from_vertex_lists(3, [[1, 2], [1, 2], [1, 2, 3]])
        lyubeznik = taylor_complex(P)
        assert taylor_complex(P) is lyubeznik
        assert BigradedTor(P, QQ).taylor is lyubeznik
        assert tor_bigraded(P, QQ).taylor is lyubeznik
        full = TorRing(P, QQ).taylor
        assert full is not lyubeznik and full is not TorRing(P, QQ).taylor
        assert taylor_complex(P) is tor_bigraded(P, QQ).taylor
        assert taylor_complex.cache_info().maxsize == 1
        with pytest.raises(TypeError):
            taylor_complex(P, True)  # the build switch is gone
        assert (full.s, len(generator_set(full))) == (3, 8)
        assert (lyubeznik.s, len(generator_set(lyubeznik))) == (1, 2)


class TestBoundaryMatrices:
    def test_single_generator_blocks_are_zero(self):
        P = Complement.from_vertex_lists(4, [[1, 2], [3, 4]])
        tc = TaylorComplex(P)
        for sigma in supports(tc):
            for M in boundary_matrices(tc, sigma):
                assert M.is_zero()

    def test_pentagon_top_block_matrices(self):
        tc = TaylorComplex(FIG1)
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
            tc = TaylorComplex(P)
            for sigma in supports(tc):
                mats = boundary_matrices(tc, sigma)
                for a, b in zip(mats, mats[1:]):
                    assert (a @ b).is_zero()


class TestEmptyEdges:
    """A map out of or into an empty block is the zero matrix of its
    shape, assembled from nothing and placed by no index."""

    @given(redundant_presentations())
    def test_indexes_serve_only_assembled_maps_and_chains(self, P):
        built, read = [], []
        index, chain_terms = TaylorComplex._index, TaylorComplex.chain_terms

        def spy_index(tc, sigma, q):
            built.append((tc, sigma, q))
            return index(tc, sigma, q)

        def spy_chain_terms(tc, chain, sigma, q):
            read.append((tc, sigma, q))
            return chain_terms(tc, chain, sigma, q)

        taylor_complex.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TaylorComplex, "_index", spy_index)
            mp.setattr(TaylorComplex, "chain_terms", spy_chain_terms)
            # the Lyubeznik build for every ring, the full build for chains
            tor_bigraded(P, ZZ)
            rings = [TorRing(P, coeff) for coeff in (QQ, PrimeField(2))]
            for ring in rings:
                ring.multiplication_table()
        for tc in (taylor_complex(P), *(ring.taylor for ring in rings)):
            for (sigma, q), M in tc._matrices.items():
                shape = (len(tc.generators(sigma, q - 1)), len(tc.generators(sigma, q)))
                assert (M.nrows, M.ncols) == shape
                if not all(shape):
                    assert M == Matrix(*shape)
        for tc, sigma, q in built:
            assert (tc, sigma, q) in read or (tc.generators(sigma, q) and tc.generators(sigma, q + 1))

    def test_empty_blocks_are_zero_groups(self):
        tc = TaylorComplex(FIG1)
        # FULL5 has generators at q = 2..4 only; {1,2} is no support
        empty = [(0, -1), (FULL5, -1), (FULL5, 0), (FULL5, 1), (FULL5, 5), (S1 | S2, 1)]
        for coeff in (QQ, PrimeField(2), ZZ):
            for sigma, q in empty:
                assert not tc.generators(sigma, q)
                assert tc.block_homology(sigma, q, coeff) == HomologyGroup(0)
        assert tc.block_homology(FULL5, 3, QQ) == HomologyGroup(2)


class TestIsolatedBlocks:
    """A block with no generators at q - 1 or q + 1 reads its group off
    its size; every other block goes through homology_at."""

    @staticmethod
    def _assert_blocks_match_homology_at(tc: TaylorComplex, coeffs) -> None:
        for sigma in supports(tc):
            dims = block_dims(tc, sigma)
            for q in range(min(dims) - 1, max(dims) + 2):
                d_in, d_out = tc.boundary_matrix(sigma, q + 1), tc.boundary_matrix(sigma, q)
                for coeff in coeffs:
                    assert tc.block_homology(sigma, q, coeff) == homology_at(d_in, d_out, coeff)

    @given(redundant_presentations(), st.booleans())
    def test_groups_equal_homology_at(self, P, lyubeznik):
        tc = TaylorComplex(P, lyubeznik)
        self._assert_blocks_match_homology_at(tc, (QQ, PrimeField(2), ZZ))

    def test_rp2_torsion_over_integers(self):
        P = complement_from_complex(rp2_complex())
        for lyubeznik in (False, True):
            tc = TaylorComplex(P, lyubeznik)
            self._assert_blocks_match_homology_at(tc, (ZZ,))
        # the Z/2 of RP^2 comes from a map into its block, so the path with maps is covered
        assert any(g.torsion == (2,) for g in tor_bigraded(P, ZZ).entries.values())

    @staticmethod
    def _count_calls(monkeypatch):
        import facetor.taylor as taylor_mod

        calls = {"homology_at": 0, "boundary_matrix": 0}
        real_homology_at, real_boundary_matrix = taylor_mod.homology_at, TaylorComplex.boundary_matrix

        def spy_homology_at(*args):
            calls["homology_at"] += 1
            return real_homology_at(*args)

        def spy_boundary_matrix(tc, sigma, q):
            calls["boundary_matrix"] += 1
            return real_boundary_matrix(tc, sigma, q)

        monkeypatch.setattr(taylor_mod, "homology_at", spy_homology_at)
        monkeypatch.setattr(TaylorComplex, "boundary_matrix", spy_boundary_matrix)
        return calls

    def test_isolated_blocks_build_no_map(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        for coeff in (QQ, PrimeField(2), ZZ):
            assert tor_bigraded(FIG1, coeff).total_rank() == 12
        for pairs in (PairSpec.spheres_s2_s1(EX513.m), PairSpec.disks_d2_s1(EX513.m)):
            maz_cohomology(EX513, pairs, QQ)
        assert calls == {"homology_at": 0, "boundary_matrix": 0}

    def test_one_homology_at_call_per_block_with_a_neighbour(self, monkeypatch):
        c6 = SimplicialComplex.from_facets(6, [[i, i % 6 + 1] for i in range(1, 7)])
        P = complement_from_complex(c6)
        calls = self._count_calls(monkeypatch)
        tc = tor_bigraded(P, ZZ).taylor
        slices = [block_dims(tc, sigma) for sigma in supports(tc)]
        connected = sum(q - 1 in dims or q + 1 in dims for dims in slices for q in dims)
        assert 0 < connected < sum(map(len, slices))
        assert calls["homology_at"] == connected


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
        # the union of two generators is filed under the union of their totals
        tc = TaylorComplex(FIG1)
        for u, v in combinations(range(16), 2):
            if not u & v:
                sigma = total_subset(tc, u) | total_subset(tc, v)
                assert u | v in tc.generators(sigma, popcount(u | v))

    def test_leibniz_rule(self):
        # d(uv) = d(u) v + (-1)^q u d(v); the truncated product is only a
        # chain map when the total subsets are disjoint, so restrict there
        rng = random.Random(2)
        for _ in range(200):
            P = random_complement(rng, 6, 5)
            tc = TaylorComplex(P)
            u = rng.getrandbits(P.s) if P.s else 0
            v = rng.getrandbits(P.s) if P.s else 0
            if u & v or total_subset(tc, u) & total_subset(tc, v):
                continue
            uv = chain_product({u: 1}, {v: 1})
            left = {}
            for w, c in uv.items():
                for x, c2 in boundary_column(tc, w).items():
                    left[x] = left.get(x, 0) + c * c2
            right = chain_product(boundary_column(tc, u), {v: 1})
            sign = -1 if popcount(u) % 2 else 1
            for w, c in chain_product({u: 1}, boundary_column(tc, v)).items():
                right[w] = right.get(w, 0) + sign * c
            left = {k: c for k, c in left.items() if c}
            right = {k: c for k, c in right.items() if c}
            assert left == right


def test_generator_cap():
    from facetor import SimplicialComplex, complement_from_complex
    from facetor.linalg import CapabilityError

    many = Complement(1, (1,) * 25)
    # the full build caps the given presentation
    with pytest.raises(CapabilityError, match="25 members exceed the supported maximum 24"):
        TaylorComplex(many)
    # the Lyubeznik build caps the minimal one, a single member here
    assert TaylorComplex(many, True).s == taylor_complex(many).s == 1
    c9 = complement_from_complex(SimplicialComplex.from_facets(9, [[i, i % 9 + 1] for i in range(1, 10)]))
    with pytest.raises(CapabilityError, match="27 members exceed the supported maximum 24"):
        taylor_complex(c9)


def test_c7_largest_slice_matrices_stay_small():
    # the 7-cycle's largest sigma slice has 19.8M matrix cells, 0.26% of
    # them nonzero; storing only the nonzeros keeps the build in a few MB
    import tracemalloc

    from facetor import SimplicialComplex, complement_from_complex
    from facetor.taylor import TaylorComplex

    c7 = SimplicialComplex.from_facets(7, [[i, i % 7 + 1] for i in range(1, 8)])
    tc = TaylorComplex(complement_from_complex(c7))
    sigma = max(supports(tc), key=lambda s: sum(block_dims(tc, s).values()))
    tracemalloc.start()
    try:
        mats = boundary_matrices(tc, sigma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(M.nrows * M.ncols for M in mats) > 19_000_000
    assert peak < 20 * 2**20
