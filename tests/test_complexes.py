from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from facetor import (
    Complement,
    SimplicialComplex,
    complement_from_complex,
    complex_from_complement,
    compress,
    equivalent,
    full_subcomplex,
    link,
    minimalize,
    star,
)
from facetor.bitsets import full_mask, mask_of, sort_key
from facetor.complexes import join_parts, minimal_transversals

from helpers import (
    EX513,
    FIG1,
    brute_force_faces,
    brute_force_link,
    brute_force_minimal_nonfaces,
    brute_force_star,
    redundant_presentations,
)


def complements(max_m=6, max_s=4):
    return st.integers(1, max_m).flatmap(
        lambda m: st.lists(st.integers(0, (1 << m) - 1), max_size=max_s).map(
            lambda mem: Complement(m, tuple(mem))
        )
    )


@st.composite
def facet_presentations(draw):
    """The minimal non-faces of a drawn non-void facet list."""
    m = draw(st.integers(1, 6))
    facets = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=6))
    return complement_from_complex(SimplicialComplex(m, tuple(facets)))


class TestComplexFromComplement:
    def test_octahedron(self):
        K = complex_from_complement(EX513)
        expected = [[i, j, k] for i in (1, 2) for j in (3, 4) for k in (5, 6)]
        assert K.facet_vertex_lists() == sorted(expected)

    def test_no_members_gives_full_simplex(self):
        K = complex_from_complement(Complement(3, ()))
        assert K == SimplicialComplex.full(3)

    def test_empty_member_gives_void(self):
        K = complex_from_complement(Complement(2, (0,)))
        assert K.is_void
        assert not K.has_face(0)

    @given(complements())
    def test_faces_match_brute_force(self, P):
        K = complex_from_complement(P)
        assert K.faces() == brute_force_faces(P)

    @given(complements())
    def test_presentation_invariance(self, P):
        assert complex_from_complement(P) == complex_from_complement(minimalize(P))


class TestComplementFromComplex:
    def test_square_boundary(self):
        K = SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
        Q = complement_from_complex(K)
        assert Q.member_vertex_lists() == [[1, 3], [2, 4]]
        assert [mask_of(v, 4) for v in Q.member_vertex_lists()] == brute_force_minimal_nonfaces(K)

    def test_full_simplex_has_no_missing_faces(self):
        assert complement_from_complex(SimplicialComplex.full(4)).members == ()

    def test_empty_complex(self):
        Q = complement_from_complex(SimplicialComplex.empty(3))
        assert Q.member_vertex_lists() == [[1], [2], [3]]

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            complement_from_complex(SimplicialComplex.void(3))

    def test_round_trip_on_pentagon_complex(self):
        K = complex_from_complement(FIG1)
        Q = complement_from_complex(K)
        assert Q.member_vertex_lists() == [[1, 5], [2, 4], [1, 2, 3], [3, 4, 5]]
        assert equivalent(Q, FIG1)

    @given(complements())
    def test_round_trip_everywhere(self, P):
        K = complex_from_complement(P)
        if K.is_void:
            return
        Q = complement_from_complex(K)
        assert complex_from_complement(Q) == K
        assert [m for m in Q.members] == brute_force_minimal_nonfaces(K)
        assert minimalize(Q) == Q


class TestMinimalizeEquivalent:
    def test_contained_member_dropped(self):
        P = Complement.from_vertex_lists(3, [[1, 2], [1, 2, 3]])
        assert minimalize(P).member_vertex_lists() == [[1, 2]]

    def test_duplicates_dropped(self):
        P = Complement.from_vertex_lists(2, [[1], [1]])
        assert minimalize(P).member_vertex_lists() == [[1]]

    def test_empty_member_wins(self):
        P = Complement(3, (0, 0b011))
        assert minimalize(P).members == (0,)

    def test_equivalence_examples(self):
        a = Complement.from_vertex_lists(3, [[1, 2]])
        b = Complement.from_vertex_lists(3, [[1, 2], [1, 2, 3]])
        c = Complement.from_vertex_lists(3, [[1, 3]])
        assert equivalent(a, b)
        assert not equivalent(a, c)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            equivalent(Complement(2, ()), Complement(3, ()))

    @given(complements())
    def test_minimalize_is_equivalent(self, P):
        assert equivalent(P, minimalize(P))

    @given(complements(max_m=5, max_s=3), complements(max_m=5, max_s=3))
    def test_equivalence_iff_same_complex(self, P, Q):
        if P.m != Q.m:
            return
        assert equivalent(P, Q) == (complex_from_complement(P) == complex_from_complement(Q))


class TestCompress:
    def test_examples(self):
        P = Complement.from_vertex_lists(5, [[1, 5], [2, 4]])
        assert compress(P, mask_of([1], 5)).member_vertex_lists() == [[5], [2, 4]]
        Q = Complement.from_vertex_lists(2, [[1, 2]])
        assert compress(Q, 0b11).members == (0,)
        assert compress(P, 0) == P

    def test_keeps_order_and_multiplicity(self):
        P = Complement(4, (0b0011, 0b0011, 0b1100))
        assert compress(P, 0b0001).members == (0b0010, 0b0010, 0b1100)


class TestJoinParts:
    def test_empty_member_keeps_one_part(self):
        P = Complement.from_vertex_lists(5, [[1, 2], [], [4]])
        assert join_parts(P) == [mask_of([1, 2, 4], 5)]
        assert join_parts(Complement(3, (0,))) == [0]

    def test_connected_members_are_one_part(self):
        assert join_parts(FIG1) == [full_mask(5)]

    def test_cone_vertices_only(self):
        assert join_parts(Complement(4, ())) == []

    def test_parts_ordered_by_least_vertex(self):
        P = Complement.from_vertex_lists(8, [[5, 6], [1, 7], [2, 3], [3, 4]])
        assert join_parts(P) == [mask_of([1, 7], 8), mask_of([2, 3, 4], 8), mask_of([5, 6], 8)]
        assert join_parts(EX513) == [0b000011, 0b001100, 0b110000]

    def test_member_order_does_not_matter(self):
        # [2, 3] meets two parts only once both are found: the pass merges them
        lists = [[1, 2], [3, 4], [2, 3], [6, 7], [7]]
        want = [mask_of([1, 2, 3, 4], 7), mask_of([6, 7], 7)]
        for order in permutations(lists):
            assert join_parts(Complement.from_vertex_lists(7, order)) == want


class TestFullSubcomplex:
    def test_full_simplex_restricts_to_simplex(self):
        K = SimplicialComplex.full(4)
        sub = full_subcomplex(K, 0b0101)
        assert sub.facets == (0b0101,)
        assert sub.m == 4

    def test_pentagon_complex_on_1_2(self):
        K = complex_from_complement(FIG1)
        sub = full_subcomplex(K, mask_of([1, 2], 5))
        assert sub.facets == (mask_of([1, 2], 5),)

    def test_empty_restriction(self):
        K = complex_from_complement(FIG1)
        assert full_subcomplex(K, 0).is_empty_complex

    @given(complements())
    def test_faces_are_filtered_faces(self, P):
        K = complex_from_complement(P)
        if K.is_void:
            return
        sigma = 0b0101 & full_mask(P.m)
        sub = full_subcomplex(K, sigma)
        assert sub.faces() == [t for t in K.faces() if t & ~sigma == 0]


class TestStarLink:
    def test_star_of_empty_face_is_whole_complex(self):
        K = complex_from_complement(FIG1)
        assert star(K, 0) == K

    def test_octahedron_link_of_vertex(self):
        K = complex_from_complement(EX513)
        L = link(K, mask_of([1], 6))
        assert L.facet_vertex_lists() == [[3, 5], [3, 6], [4, 5], [4, 6]]
        assert L.faces() == brute_force_link(K.faces(), 1)

    def test_star_of_nonface_is_void(self):
        K = complex_from_complement(EX513)
        assert star(K, mask_of([1, 2], 6)).is_void
        assert link(K, mask_of([1, 2], 6)).is_void

    @given(complements(), st.integers(0, 63))
    def test_matches_definition(self, P, omega_bits):
        K = complex_from_complement(P)
        if K.is_void:
            return
        omega = omega_bits & full_mask(P.m)
        faces = K.faces()
        assert star(K, omega).faces() == brute_force_star(faces, omega)
        assert link(K, omega).faces() == brute_force_link(faces, omega)

    @given(complements(), st.integers(0, 63))
    def test_compression_dual_path(self, P, omega_bits):
        # star and link through facets equal the compressed-complement route
        K = complex_from_complement(P)
        if K.is_void:
            return
        omega = omega_bits & full_mask(P.m)
        K_comp = complex_from_complement(compress(P, omega))
        assert star(K, omega) == K_comp
        if not K_comp.is_void:
            assert link(K, omega) == full_subcomplex(K_comp, full_mask(P.m) & ~omega)


    @given(st.one_of(redundant_presentations(), facet_presentations()))
    def test_link_complement_from_compression(self, P):
        # the link's minimal non-faces are the minimal sets among the
        # omega-compressed members and omega's vertices; off a face the
        # empty set is one of them
        K = complex_from_complement(P)
        if K.is_void:
            return
        for omega in range(1 << P.m):
            singletons = tuple(1 << b for b in range(P.m) if omega >> b & 1)
            got = minimalize(Complement(P.m, compress(P, omega).members + singletons))
            if K.has_face(omega):
                assert got == complement_from_complex(link(K, omega))
            else:
                assert got == Complement(P.m, (0,))


class TestRepresentation:
    def test_void_vs_empty_distinct(self):
        void = SimplicialComplex.void(2)
        empty = SimplicialComplex.empty(2)
        assert void != empty
        assert void.is_void and not empty.is_void
        assert not void.has_face(0) and empty.has_face(0)

    def test_facets_normalized(self):
        K = SimplicialComplex(3, (0b011, 0b001, 0b011, 0b100))
        assert K.facets == (0b100, 0b011)
        assert K.facets == tuple(sorted(K.facets, key=sort_key))

    def test_ghost_vertices_representable(self):
        K = SimplicialComplex.from_facets(5, [[1, 2]])
        assert K.m == 5
        assert not K.has_face(mask_of([5], 5))

    def test_ambient_cap(self):
        with pytest.raises(ValueError):
            Complement(25, ())

    def test_transversals_of_nothing(self):
        assert minimal_transversals([], 4) == [0]
