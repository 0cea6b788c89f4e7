import random

from facetor import (
    Complement,
    SimplicialComplex,
    compare_blocks,
    complex_from_complement,
    full_subcomplex,
    reduced_cohomology,
)
from facetor.bitsets import full_mask, mask_of
from facetor.hochster import CochainComplex
from facetor.linalg import QQ, ZZ, PrimeField
from facetor.sampling import random_complement

from helpers import FIG1, EX513, field_rank, rp2_complex


class TestConventions:
    def test_empty_complex_has_unit_in_degree_minus_one(self):
        K = SimplicialComplex.empty(3)
        for coeff in (QQ, ZZ, PrimeField(2)):
            assert reduced_cohomology(K, -1, coeff).signature == (1, ())
            assert reduced_cohomology(K, 0, coeff).is_zero

    def test_void_complex_vanishes_everywhere(self):
        K = SimplicialComplex.void(3)
        for n in range(-2, 3):
            assert reduced_cohomology(K, n, QQ).is_zero

    def test_full_simplex_is_acyclic(self):
        K = SimplicialComplex.full(4)
        for n in range(-1, 5):
            assert reduced_cohomology(K, n, ZZ).is_zero

    def test_out_of_range_degrees(self):
        K = SimplicialComplex.full(2)
        assert reduced_cohomology(K, -3, QQ).is_zero
        assert reduced_cohomology(K, 7, QQ).is_zero


class TestKnownSpaces:
    def test_four_cycle_is_a_circle(self):
        K = SimplicialComplex.from_facets(6, [[3, 5], [3, 6], [4, 5], [4, 6]])
        assert reduced_cohomology(K, 1, QQ).signature == (1, ())
        assert reduced_cohomology(K, 0, QQ).is_zero
        # the middle coboundary has rank 3, pinning dim H^1 = 4 - 3
        cc = CochainComplex(K)
        d = cc.delta(0)
        assert (d.nrows, d.ncols) == (4, 4)
        assert field_rank(d, QQ) == 3

    def test_octahedron_is_a_two_sphere(self):
        K = complex_from_complement(EX513)
        assert reduced_cohomology(K, 2, ZZ).signature == (1, ())
        for n in (-1, 0, 1):
            assert reduced_cohomology(K, n, ZZ).is_zero

    def test_projective_plane(self):
        K = rp2_complex()
        assert reduced_cohomology(K, 2, ZZ).signature == (0, (2,))
        assert reduced_cohomology(K, 1, ZZ).is_zero
        assert reduced_cohomology(K, 1, PrimeField(2)).signature == (1, ())
        assert reduced_cohomology(K, 2, PrimeField(2)).signature == (1, ())
        assert reduced_cohomology(K, 2, QQ).is_zero


class TestComplexStructure:
    def test_coboundary_squares_to_zero_including_augmentation(self):
        for P in (FIG1, EX513):
            cc = CochainComplex(complex_from_complement(P))
            for n in range(-1, cc.top + 1):
                assert (cc.delta(n) @ cc.delta(n - 1)).is_zero()

    def test_euler_characteristic_matches_betti_numbers(self):
        rng = random.Random(17)
        for _ in range(40):
            P = random_complement(rng, 6, 4)
            K = complex_from_complement(P)
            if K.is_void:
                continue
            cc = CochainComplex(K)
            chi_faces = cc.euler_characteristic()
            chi_betti = sum(
                (-1 if n % 2 else 1) * cc.cohomology(n, QQ).rank
                for n in range(-1, cc.top + 1)
            )
            assert chi_faces == chi_betti

    def test_ghost_vertices_ignored(self):
        K = SimplicialComplex.from_facets(5, [[1, 2]])
        sub = full_subcomplex(K, mask_of([1, 2, 5], 5))
        # vertex 5 is not a face, so the restriction is still an edge
        assert reduced_cohomology(sub, n=-1, coeff=QQ).is_zero
        assert reduced_cohomology(sub, n=0, coeff=QQ).is_zero


def _disagreements(blocks) -> list:
    return [(q, sigma) for q, sigma, pairs in blocks if any(full != oracle for full, oracle in pairs)]


class TestBaskakov:
    def test_trivial_complement(self):
        assert compare_blocks(Complement(1, ()), (QQ,)) == [(0, 0, (((1, ()), (1, ())),))]

    def test_pentagon_block_both_sides_rank_one(self):
        sigma = mask_of([1, 2, 4, 5], 5)
        pairs = {(q, s): p for q, s, p in compare_blocks(FIG1, (QQ,))}
        assert pairs[(2, sigma)] == (((1, ()), (1, ())),)
        K = full_subcomplex(complex_from_complement(FIG1), sigma)
        # the full subcomplex is the 4-cycle 1-2-5-4
        assert sorted(K.facet_vertex_lists()) == [[1, 2], [1, 4], [2, 5], [4, 5]]
        assert reduced_cohomology(K, 1, QQ).signature == (1, ())

    def test_void_complement(self):
        blocks = compare_blocks(Complement(2, (0,)), (ZZ,), all_sigma=True)
        # sigma in (card, lex) order, then q up to max(top degree 1, |sigma|)
        assert [(q, sigma) for q, sigma, _ in blocks] == [
            (0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)
        ]
        assert all(pairs == (((0, ()), (0, ())),) for _, _, pairs in blocks)

    def test_random_sweep(self):
        rng = random.Random(99)
        for _ in range(25):
            P = random_complement(rng, 6, 4)
            assert _disagreements(compare_blocks(P, (QQ, PrimeField(2), ZZ))) == []

    def test_full_complex_side_is_read(self):
        # four copies of {1,2}: the full complex has degrees up to 4 on
        # sigma = {1,2}, the Lyubeznik build (one member) only up to 1
        blocks = compare_blocks(Complement.from_vertex_lists(2, [[1, 2]] * 4), (QQ, ZZ))
        assert [(q, sigma) for q, sigma, _ in blocks] == [(0, 0)] + [(q, 3) for q in range(5)]
        assert _disagreements(blocks) == []

    def test_projective_plane_torsion_block(self):
        from facetor import complement_from_complex

        P = complement_from_complex(rp2_complex())
        pairs = {(q, s): p for q, s, p in compare_blocks(P, (ZZ,))}
        assert pairs[(3, full_mask(6))] == (((0, (2,)), (0, (2,))),)
