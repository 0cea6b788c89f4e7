import random

import pytest
from hypothesis import example, given, strategies as st

from facetor import (
    Complement,
    SimplicialComplex,
    complement_from_complex,
    complex_from_complement,
    link,
    tor_bigraded,
    zk_poincare,
)
from facetor.bitsets import bit_positions, full_mask, mask_of, popcount, vertices
from facetor import moment_angle
from facetor.linalg import QQ, ZZ, PrimeField
from facetor.moment_angle import (
    PairSpec,
    link_cohomology,
    maz_cohomology,
    star_tor,
)
from facetor.polynomials import padd, pmul
from facetor.sampling import random_complement
from facetor.taylor import taylor_complex

from helpers import (
    EX513,
    FIG1,
    has_face,
    maz_by_links,
    nonface_blocks,
    reduced_cohomology,
    rp2_complex,
    s2s1_poincare,
    signature,
    unsplit_series,
)

RP2 = complement_from_complex(rp2_complex())


def _random_pair_poly(rng: random.Random) -> tuple[tuple[int, int], ...]:
    """Distinct reduced degrees 1-3, each with a rank 0-2."""
    degrees = sorted(rng.sample((1, 2, 3), rng.randint(0, 3)))
    return tuple((deg, rng.randint(0, 2)) for deg in degrees)


def _random_pairs(rng: random.Random, m: int) -> PairSpec:
    return PairSpec(
        tuple(_random_pair_poly(rng) for _ in range(m)),
        tuple(_random_pair_poly(rng) for _ in range(m)),
    )


class TestPairSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PairSpec((((0, 1),),), (((1, 1),),))
        with pytest.raises(ValueError):
            PairSpec((((1, -1),),), (((1, 1),),))
        with pytest.raises(ValueError):
            PairSpec(((), ()), ((),))
        for repeated in (((2, 1), (2, 1)), ((2, 1), (3, 1), (2, 0))):
            with pytest.raises(ValueError, match="repeated"):
                PairSpec((repeated,), ((),))
            with pytest.raises(ValueError, match="repeated"):
                PairSpec(((),), (repeated,))
        # the first bad pair is named, vertex by vertex, X before A
        for xs, ans, message in [
            ((((0, 1),), ()), ((), ((1, -1),)), "pairs[0].X[0]: degree 0 must be >= 1"),
            (((), ((2, 1), (2, 0))), (((1, -1),), ()), "pairs[0].A[0]: rank -1 must be >= 0"),
            (((), ((2, 1), (2, 0))), ((), ()), "pairs[1].X[1]: degree 2 is repeated"),
        ]:
            with pytest.raises(ValueError) as info:
                PairSpec(xs, ans)
            assert str(info.value) == message

    def test_presets(self):
        s = PairSpec.spheres_s2_s1(3)
        assert s.x_poly(0) == {2: 1} and s.a_poly(0) == {1: 1}
        d = PairSpec.disks_d2_s1(3)
        assert d.x_poly(0) == {} and d.a_poly(0) == {1: 1}


class TestSphereCirclePair:
    def test_octahedron_total_216(self):
        series = maz_cohomology(EX513, PairSpec.spheres_s2_s1(6), QQ)
        assert series == {
            0: 1, 2: 6, 3: 9, 4: 12, 5: 36, 6: 35, 7: 36, 8: 54, 9: 27,
        }
        assert sum(series.values()) == 216

    def test_octahedron_per_face_families(self):
        # contributions grouped by the size of the compressed face
        families = {
            0: {0: 1, 3: 3, 6: 3, 9: 1},
            1: {2: 1, 3: 1, 5: 2, 6: 2, 8: 1, 9: 1},
            2: {4: 1, 5: 2, 6: 1, 7: 1, 8: 2, 9: 1},
            3: {6: 1, 7: 3, 8: 3, 9: 1},
        }
        counts = {0: 1, 1: 6, 2: 12, 3: 8}
        K = complex_from_complement(EX513)
        by_size: dict[int, list] = {0: [], 1: [], 2: [], 3: []}
        for omega in K.faces():
            t = star_tor(EX513, omega, QQ)
            sub = {}
            for (q, tau), g in t.entries.items():
                deg = 2 * popcount(omega) + 2 * popcount(tau) - q
                sub[deg] = sub.get(deg, 0) + g.rank
            by_size[popcount(omega)].append(sub)
        total = {}
        for size, subs in by_size.items():
            assert len(subs) == counts[size]
            for sub in subs:
                assert sub == families[size]
                total = padd(total, sub)
        assert sum(total.values()) == 216

    def test_matching_keeps_one_complex(self):
        # six disjoint edges on [12]: six join parts of 3 faces each,
        # each face with its own star complex, of which the cache keeps
        # the last one
        P = Complement(12, tuple(mask_of([2 * i - 1, 2 * i], 12) for i in range(1, 7)))
        series = maz_cohomology(P, PairSpec.spheres_s2_s1(12), QQ)
        assert sum(series.values()) == 46_656
        assert taylor_complex.cache_info().currsize <= 1

    def test_path_keeps_one_complex(self):
        # the path's complement [[1,2],[2,3],...,[11,12]] on [12] is one
        # part with 377 faces, each with its own star complex
        P = Complement(12, tuple(mask_of([i, i + 1], 12) for i in range(1, 12)))
        series = maz_cohomology(P, PairSpec.spheres_s2_s1(12), QQ)
        assert sum(series.values()) == 47_458
        assert taylor_complex.cache_info().currsize <= 1

    def test_wrapper_equals_pair_spec_path(self):
        assert s2s1_poincare(EX513, QQ) == maz_cohomology(EX513, PairSpec.spheres_s2_s1(6), QQ)

    def test_single_vertex_full_simplex(self):
        # one allowed vertex, no relations: the sphere itself
        assert s2s1_poincare(Complement(1, ()), QQ) == {0: 1, 2: 1}

    def test_random_dual_path(self):
        rng = random.Random(41)
        for _ in range(15):
            P = random_complement(rng, 5, 4)
            assert s2s1_poincare(P, QQ) == maz_cohomology(P, PairSpec.spheres_s2_s1(P.m), QQ)


class TestClassicalCorollaries:
    def test_disk_circle_equals_zk(self):
        rng = random.Random(43)
        for _ in range(15):
            P = random_complement(rng, 5, 4)
            assert maz_cohomology(P, PairSpec.disks_d2_s1(P.m), QQ) == unsplit_series(P, QQ)

    def test_contractible_a_counts_star_products(self):
        rng = random.Random(47)
        x_poly = ((2, 1), (3, 2))
        for _ in range(12):
            P = random_complement(rng, 5, 3)
            pairs = PairSpec.uniform(P.m, x_poly, ())
            got = maz_cohomology(P, pairs, QQ)
            K = complex_from_complement(P)
            expected = {}
            for omega in K.faces():
                term = {0: 1}
                for _v in vertices(omega):
                    term = pmul(term, dict(x_poly))
                expected = padd(expected, term)
            assert got == {d: c for d, c in sorted(expected.items())}

    def test_all_omega_debug_mode(self):
        rng = random.Random(53)
        for _ in range(8):
            P = random_complement(rng, 4, 3)
            assert nonface_blocks(P, QQ) == {}
            assert maz_cohomology(P, PairSpec.spheres_s2_s1(P.m), QQ) == s2s1_poincare(P, QQ)

    def test_mixed_pairs_match_link_sum(self):
        # a different (X_i, A_i) on each vertex, so a series that reads
        # one vertex's pair for another's differs from the link sum
        rng = random.Random(7)
        checked = 0
        while checked < 100:
            P = random_complement(rng, 5, 4)
            if complex_from_complement(P).is_void:
                continue
            pairs = _random_pairs(rng, P.m)
            assert maz_cohomology(P, pairs, QQ) == maz_by_links(P, pairs, QQ)
            checked += 1
        for coeff in (QQ, PrimeField(2)):
            pairs = _random_pairs(rng, 6)
            assert maz_cohomology(RP2, pairs, coeff) == maz_by_links(RP2, pairs, coeff)

    def test_void_complement_gives_nothing(self):
        assert maz_cohomology(Complement(2, (0,)), PairSpec.spheres_s2_s1(2), QQ) == {}


class TestFaceWalk:
    """maz reads one star Tor per face it walks, each through compress,
    and walks only the faces on the vertices whose X~ is nonzero."""

    @staticmethod
    def _faces_read(monkeypatch, P, pairs) -> list[int]:
        read = []
        original = moment_angle.compress

        def spy(Q, omega):
            read.append(omega)
            return original(Q, omega)

        monkeypatch.setattr(moment_angle, "compress", spy)
        maz_cohomology(P, pairs, QQ)
        return read

    def test_disk_pairs_read_the_empty_face_alone(self, monkeypatch):
        # the path on [12] is one part with 377 faces
        path = Complement(12, tuple(mask_of([i, i + 1], 12) for i in range(1, 12)))
        assert self._faces_read(monkeypatch, path, PairSpec.disks_d2_s1(12)) == [0]
        read = self._faces_read(monkeypatch, path, PairSpec.spheres_s2_s1(12))
        assert len(read) == len(set(read)) == 377

    def test_faces_on_zero_x_vertices_are_not_read(self, monkeypatch):
        # X~ nonzero on the odd vertices of the 7-cycle: of its 15 faces,
        # the empty face, 1, 3, 5, 7 and the edge {1, 7}
        c7 = complement_from_complex(SimplicialComplex.from_facets(7, [[i, i % 7 + 1] for i in range(1, 8)]))
        pairs = PairSpec(
            tuple(((2, 1),) if i % 2 else () for i in range(1, 8)),
            tuple(((1, 1),) if i <= 4 else ((1, 1), (2, 1)) for i in range(1, 8)),
        )
        read = self._faces_read(monkeypatch, c7, pairs)
        assert sorted(read) == [0, *(mask_of([v], 7) for v in (1, 3, 5, 7)), mask_of([1, 7], 7)]


@st.composite
def joins(draw):
    """A join on at most 7 vertices: each vertex is drawn into one of
    three blocks or left as a cone vertex, so the labels interleave, and
    each block holds 1-2 drawn non-empty members, in a drawn order."""
    m = draw(st.integers(2, 7))
    labels = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    members = []
    for block in range(3):
        verts = [v for v in range(m) if labels[v] == block]
        for _ in range(draw(st.integers(1, 2)) if verts else 0):
            picked = draw(st.integers(1, (1 << len(verts)) - 1))
            members.append(sum(1 << verts[b] for b in bit_positions(picked)))
    return Complement(m, tuple(draw(st.permutations(members))))


# RP^2 on [6], joined with the edge {7, 8}
RP2_JOIN_EDGE = Complement(8, RP2.members + (mask_of([7, 8], 8),))
FIELDS = st.sampled_from([QQ, PrimeField(2)])


class TestJoins:
    @given(joins(), st.randoms(use_true_random=False), FIELDS)
    @example(RP2_JOIN_EDGE, random.Random(3), QQ)
    @example(RP2_JOIN_EDGE, random.Random(3), PrimeField(2))
    def test_maz_is_the_link_sum(self, P, rng, coeff):
        pairs = _random_pairs(rng, P.m)
        assert maz_cohomology(P, pairs, coeff) == maz_by_links(P, pairs, coeff)

    @given(joins(), FIELDS)
    @example(RP2_JOIN_EDGE, QQ)
    @example(RP2_JOIN_EDGE, PrimeField(2))
    def test_zk_is_the_unsplit_series(self, P, coeff):
        assert zk_poincare(P, coeff) == unsplit_series(P, coeff)

    def test_parts_within_the_member_cap(self):
        # C7 * C7 has 28 members, past the cap of 24, but 14 in each part
        c7 = [mask_of([i, j], 7) for i in range(1, 8) for j in range(i + 2, 8) if (i, j) != (1, 7)]
        P = Complement(14, tuple(c7) + tuple(mem << 7 for mem in c7))
        C7 = Complement(7, tuple(c7))
        assert zk_poincare(P, QQ) == pmul(zk_poincare(C7, QQ), zk_poincare(C7, QQ))
        for preset in (PairSpec.spheres_s2_s1, PairSpec.disks_d2_s1):
            series = maz_cohomology(C7, preset(7), QQ)
            assert maz_cohomology(P, preset(14), QQ) == pmul(series, series)


class TestStarTor:
    def test_empty_face_recovers_whole(self):
        assert signature(star_tor(FIG1, 0, QQ)) == signature(tor_bigraded(FIG1, QQ))

    def test_octahedron_vertex_link_block(self):
        t = star_tor(EX513, mask_of([1], 6), QQ)
        tau = mask_of([2, 3, 4, 5, 6], 6)
        assert t.group(3, tau).rank == 1
        # that block is exactly the top reduced cohomology of the link
        K = complex_from_complement(EX513)
        L = link(K, mask_of([1], 6))
        assert reduced_cohomology(L, 1, QQ).signature == (1, ())
        assert link_cohomology(EX513, mask_of([1], 6), 1, QQ).signature == (1, ())

    def test_nonface_compression_vanishes(self):
        t = star_tor(EX513, mask_of([1, 2], 6), QQ)
        assert t.entries == {}

    def test_link_cohomology_matches_oracle(self):
        rng = random.Random(61)
        checked = 0
        for _ in range(20):
            P = random_complement(rng, 5, 4)
            K = complex_from_complement(P)
            if K.is_void:
                continue
            omega = rng.getrandbits(P.m)
            if not has_face(K, omega):
                continue
            L = link(K, omega)
            rest = popcount(full_mask(P.m) & ~omega)
            for n in range(-1, rest):
                for coeff in (QQ, ZZ, PrimeField(2)):
                    got = link_cohomology(P, omega, n, coeff)
                    want = reduced_cohomology(L, n, coeff)
                    assert got.signature == want.signature
                    checked += 1
        assert checked > 0

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_link_cohomology_matches_star_route(self, seed):
        # the link's Tor against the star's ([m] minus omega)-supported
        # blocks, for every omega (faces and non-faces) and every degree
        rng = random.Random(seed)
        inputs = [random_complement(rng, 6, 5) for _ in range(40)] + [RP2]
        for P in inputs:
            for omega in range(1 << P.m):
                sigma = full_mask(P.m) & ~omega
                rest = popcount(sigma)
                for coeff in (QQ, ZZ, PrimeField(2)):
                    star = star_tor(P, omega, coeff)
                    for n in range(-2, rest + 1):
                        want = star.group(rest - n - 1, sigma)
                        assert link_cohomology(P, omega, n, coeff).signature == want.signature

    def test_supports_avoid_compressed_face(self):
        rng = random.Random(67)
        for _ in range(20):
            P = random_complement(rng, 5, 4)
            omega = rng.getrandbits(P.m)
            t = star_tor(P, omega, QQ)
            for (q, tau) in t.entries:
                assert tau & omega == 0


def test_field_required():
    with pytest.raises(ValueError):
        maz_cohomology(FIG1, PairSpec.spheres_s2_s1(5), ZZ)
    with pytest.raises(ValueError):
        s2s1_poincare(FIG1, ZZ)


def test_pair_spec_length_checked():
    with pytest.raises(ValueError):
        maz_cohomology(FIG1, PairSpec.spheres_s2_s1(4), QQ)
