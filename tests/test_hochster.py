import random

from facetor import (
    Complement,
    SimplicialComplex,
    baskakov_check,
    complex_from_complement,
    full_subcomplex,
    reduced_cohomology,
)
from facetor.bitsets import full_mask, mask_of, popcount
from facetor.hochster import CochainComplex
from facetor.linalg import QQ, ZZ, PrimeField
from facetor.sampling import random_complement
from facetor.taylor import taylor_complex

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


class TestBaskakov:
    def test_trivial_complement(self):
        assert baskakov_check(Complement(1, ()), 0, 0, QQ)

    def test_pentagon_block_both_sides_rank_one(self):
        sigma = mask_of([1, 2, 4, 5], 5)
        assert baskakov_check(FIG1, sigma, 2, QQ)
        left = taylor_complex(FIG1).block_homology(sigma, 2, QQ)
        K = full_subcomplex(complex_from_complement(FIG1), sigma)
        # the full subcomplex is the 4-cycle 1-2-5-4
        assert sorted(K.facet_vertex_lists()) == [[1, 2], [1, 4], [2, 5], [4, 5]]
        right = reduced_cohomology(K, 1, QQ)
        assert left.signature == right.signature == (1, ())

    def test_void_complement(self):
        P = Complement(2, (0,))
        for q in range(3):
            for sigma in range(4):
                assert baskakov_check(P, sigma, q, ZZ)

    def test_random_sweep(self):
        rng = random.Random(99)
        for _ in range(25):
            P = random_complement(rng, 6, 4)
            tc = taylor_complex(P)
            for sigma in tc.supports():
                for q in range(0, max(tc.max_degree(sigma), popcount(sigma)) + 1):
                    for coeff in (QQ, PrimeField(2), ZZ):
                        assert baskakov_check(P, sigma, q, coeff)

    def test_projective_plane_torsion_block(self):
        from facetor import complement_from_complex

        P = complement_from_complex(rp2_complex())
        assert baskakov_check(P, full_mask(6), 3, ZZ)
