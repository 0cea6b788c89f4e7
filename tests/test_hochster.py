import contextlib
import io
import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, strategies as st

from facetor import (
    Complement,
    SimplicialComplex,
    compare_blocks,
    complement_from_complex,
    complex_from_complement,
    full_subcomplex,
    tor_bigraded,
)
from facetor.bitsets import full_mask, mask_of, popcount, sort_key, subsets_of
from facetor.cli import VERIFY_COEFFS, _render_verify_results
from facetor.hochster import CochainComplex
from facetor.linalg import QQ, ZERO_GROUP, ZZ, HomologyGroup, Matrix, PrimeField, factors_at_rows, homology_at
from facetor.sampling import random_complement
from facetor.taylor import TaylorComplex, taylor_complex

from helpers import (
    FIG1,
    EX513,
    compare_blocks_per_sigma,
    field_rank,
    has_face,
    reduced_cohomology,
    rp2_complex,
    smith_normal_form,
)


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
            for n in range(-1, max(cc.faces, default=-2) + 1):
                assert (cc.delta(n) @ cc.delta(n - 1)).is_zero()

    def test_euler_characteristic_matches_betti_numbers(self):
        rng = random.Random(17)
        for _ in range(40):
            P = random_complement(rng, 6, 4)
            K = complex_from_complement(P)
            if K.is_void:
                continue
            cc = CochainComplex(K)
            chi_faces = sum((-1 if n % 2 else 1) * len(fs) for n, fs in cc.faces.items())
            chi_betti = sum(
                (-1 if n % 2 else 1) * cc.cohomology(n, QQ).rank
                for n in range(-1, max(cc.faces, default=-2) + 1)
            )
            assert chi_faces == chi_betti

    def test_ghost_vertices_ignored(self):
        K = SimplicialComplex.from_facets(5, [[1, 2]])
        sub = full_subcomplex(K, mask_of([1, 2, 5], 5))
        # vertex 5 is not a face, so the restriction is still an edge
        assert reduced_cohomology(sub, n=-1, coeff=QQ).is_zero
        assert reduced_cohomology(sub, n=0, coeff=QQ).is_zero


def _dense_factors(M: Matrix) -> tuple[int, ...]:
    _, D, _ = smith_normal_form(M)
    return tuple(x for i, row in enumerate(D.rows) if i < M.ncols and (x := row[i]))


def _disagreements(result) -> list:
    """The (q, sigma) that compare_blocks reports as failing, after
    checking that every listed block has a nonzero side and is ok
    exactly when each ring's pair agrees."""
    _, blocks = result
    for _, _, pairs, ok in blocks:
        assert any(side != (0, ()) for pair in pairs for side in pair)
        assert ok == all(full == oracle for full, oracle in pairs)
    return [(q, sigma) for q, sigma, _, ok in blocks if not ok]


def _pairs_at(result) -> dict:
    return {(q, sigma): pairs for q, sigma, pairs, _ in result[1]}


class TestBaskakov:
    def test_trivial_complement(self):
        assert compare_blocks(Complement(1, ()), (QQ,)) == (1, [(0, 0, (((1, ()), (1, ())),), True)])

    def test_pentagon_block_both_sides_rank_one(self):
        sigma = mask_of([1, 2, 4, 5], 5)
        pairs = _pairs_at(compare_blocks(FIG1, (QQ,)))
        assert pairs[(2, sigma)] == (((1, ()), (1, ())),)
        K = full_subcomplex(complex_from_complement(FIG1), sigma)
        # the full subcomplex is the 4-cycle 1-2-5-4
        assert sorted(K.facet_vertex_lists()) == [[1, 2], [1, 4], [2, 5], [4, 5]]
        assert reduced_cohomology(K, 1, QQ).signature == (1, ())

    def test_void_complement(self):
        # q up to max(top degree 1, |sigma|) on each of the four sigma:
        # 2 + 2 + 2 + 3 blocks, every one zero on both sides, so none listed
        assert compare_blocks(Complement(2, (0,)), (ZZ,), all_sigma=True) == (9, [])

    def test_random_sweep(self):
        rng = random.Random(99)
        for _ in range(25):
            P = random_complement(rng, 6, 4)
            assert _disagreements(compare_blocks(P, (QQ, PrimeField(2), ZZ))) == []

    def test_q_range_follows_full_slice(self):
        # four copies of {1,2}: the full complex's slice on sigma = {1,2}
        # has degrees up to 4, and q still runs that far, while the left
        # side comes from the Lyubeznik build (one member, degrees up to 1)
        result = compare_blocks(Complement.from_vertex_lists(2, [[1, 2]] * 4), (QQ, ZZ))
        # q runs 0 on sigma = 0 and 0..4 on {1,2}; only K_0's unit and the
        # member's block are nonzero
        assert result[0] == 1 + 5
        assert [(q, sigma) for q, sigma, _, _ in result[1]] == [(0, 0), (1, 3)]
        assert _disagreements(result) == []

    def test_reads_tor_bigraded(self, monkeypatch):
        # the left side is the Tor that tor_bigraded reports: no full
        # complex is built, and every nonzero block appears with its
        # signature
        built = []
        init = TaylorComplex.__init__

        def spy(self, complement, lyubeznik=False):
            built.append(lyubeznik)
            init(self, complement, lyubeznik)

        monkeypatch.setattr(TaylorComplex, "__init__", spy)
        coeffs = (QQ, PrimeField(2), ZZ)
        for P in (FIG1, EX513, Complement.from_vertex_lists(3, [[1], [1, 2], [1, 2, 3], [2]])):
            taylor_complex.cache_clear()
            blocks = _pairs_at(compare_blocks(P, coeffs))
            for i, coeff in enumerate(coeffs):
                for (q, sigma), group in tor_bigraded(P, coeff).entries.items():
                    assert blocks[(q, sigma)][i][0] == group.signature
        assert built and all(built)

    def test_projective_plane_torsion_block(self):
        P = complement_from_complex(rp2_complex())
        pairs = _pairs_at(compare_blocks(P, (ZZ,)))
        assert pairs[(3, full_mask(6))] == (((0, (2,)), (0, (2,))),)

    def test_projective_plane_over_every_ring(self):
        # reduced H^2(RP^2) (q = 3) is Z/2 over Z, and H^1 (q = 4) is 0;
        # over F2 each is one class, over Q neither is
        P = complement_from_complex(rp2_complex())
        coeffs = (QQ, PrimeField(2), ZZ)
        results = compare_blocks(P, coeffs)
        pairs = _pairs_at(results)
        zero, one = ((0, ()), (0, ())), ((1, ()), (1, ()))
        assert pairs[(3, full_mask(6))] == (zero, one, ((0, (2,)), (0, (2,))))
        assert pairs[(4, full_mask(6))] == (zero, one, zero)
        assert results == compare_blocks_per_sigma(P, coeffs)


ORACLE_CASES = {
    "void": Complement(3, (0,)),
    "empty complex": Complement.from_vertex_lists(3, [[1], [2], [3]]),
    "no members": Complement(3, ()),
    "ghost vertices": Complement.from_vertex_lists(5, [[2], [1, 3], [5]]),
    "duplicate and non-minimal": Complement.from_vertex_lists(
        5, [[1, 2], [3, 4], [1, 2], [1, 2, 3], [2, 3, 4, 5]]
    ),
    "two edges": Complement.from_vertex_lists(5, [[1, 2], [3, 4]]),
    "fig1": FIG1,
    "ex513": EX513,
}


def _union(P: Complement, all_sigma: bool) -> int:
    return full_mask(P.m) if all_sigma else reduce(or_, P.members, 0)


def _non_faces(K: SimplicialComplex, union: int) -> list[int]:
    return [t for t in subsets_of(union) if not has_face(K, t)]


def test_oracle_cases_take_both_families():
    # U's faces are fewer on some cases and its non-faces on others
    chosen = {
        CochainComplex(P, _union(P, all_sigma)).relative
        for P in ORACLE_CASES.values()
        for all_sigma in (False, True)
    }
    assert chosen == {False, True}


@pytest.mark.parametrize("all_sigma", [False, True])
@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
class TestOracleFaces:
    """compare_blocks reads each sigma's full subcomplex off one cochain
    complex on U, on the inputs where sigma, U and K are degenerate."""

    def test_each_sigma_gets_its_full_subcomplex_faces(self, name, all_sigma, monkeypatch):
        # one cochain complex, on U's faces or on its non-faces, serves
        # every sigma; per degree, each sigma's set count and the
        # invariant factors of its restricted coboundaries are those of
        # sigma's own complex on the same family (its faces, or its
        # non-faces inside sigma), factored by the dense Smith form
        P = ORACLE_CASES[name]
        built, read = [], {}
        init, restrict = CochainComplex.__init__, CochainComplex._restrict

        def spy_init(self, *args):
            init(self, *args)
            built.append(self)

        def spy_restrict(self, sigma):
            sizes, factors = restrict(self, sigma)
            read[sigma] = (dict(sizes), dict(factors))
            return sizes, factors

        monkeypatch.setattr(CochainComplex, "__init__", spy_init)
        monkeypatch.setattr(CochainComplex, "_restrict", spy_restrict)
        _, blocks = compare_blocks(P, (QQ, ZZ), all_sigma)
        assert len(built) == 1
        monkeypatch.undo()
        K = complex_from_complement(P)
        assert list(read) == sorted(_sigmas(P, all_sigma), key=sort_key)
        assert {sigma for _, sigma, _, _ in blocks} <= set(read)
        for sigma, (sizes, factors) in read.items():
            if built[0].relative and sigma:
                own = CochainComplex(P, sigma, relative=True)
                assert sorted(f for fs in own.faces.values() for f in fs) == sorted(_non_faces(K, sigma))
            else:
                own = CochainComplex(K if K.is_void else full_subcomplex(K, sigma))
            assert sizes == {n: len(fs) for n, fs in own.faces.items()}
            degrees = range(-2, max([max(own.faces, default=-2), *factors]) + 1)
            assert [factors.get(n, ()) for n in degrees] == [_dense_factors(own.delta(n)) for n in degrees]

    def test_blocks_match_a_full_subcomplex_per_sigma(self, name, all_sigma):
        P = ORACLE_CASES[name]
        coeffs = (QQ, PrimeField(2), ZZ)
        result = compare_blocks(P, coeffs, all_sigma)
        assert result == compare_blocks_per_sigma(P, coeffs, all_sigma)
        assert _disagreements(result) == []


def _flip_first_entry(M: Matrix) -> Matrix:
    """A copy of M with the first nonzero entry of its first row negated."""
    rows = M.rows
    c = next(j for j, x in enumerate(rows[0]) if x)
    rows[0][c] = -rows[0][c]
    return Matrix(M.nrows, M.ncols, rows)


class TestOracleOnUnion:
    """The one cochain complex on U: its pair checks, its agreement with
    a complex per sigma, and its maps at empty degrees."""

    @pytest.mark.parametrize("all_sigma", [False, True])
    @pytest.mark.parametrize("n", [0, 1])
    def test_flipped_sign_in_a_union_coboundary_is_caught(self, n, all_sigma, monkeypatch):
        # the per-sigma restrictions are never composed, so the check on
        # U's own pairs must catch a broken coboundary; FIG1 has vertices,
        # edges and triangles, so both flips break a nonzero pair
        real = CochainComplex.delta

        def flipped(self, k):
            if k == n and k not in self._matrices:
                self._matrices[k] = _flip_first_entry(real(self, k))
            return real(self, k)

        monkeypatch.setattr(CochainComplex, "delta", flipped)
        with pytest.raises(ValueError, match="not a chain complex"):
            compare_blocks(FIG1, (QQ, PrimeField(2), ZZ), all_sigma)

    def test_a_failed_check_leaves_no_sigma_read(self):
        # a sigma whose reading stopped at a bad pair is read again, and
        # raises again, rather than answering from what was kept
        cc = CochainComplex(complex_from_complement(FIG1))
        cc._matrices[0] = _flip_first_entry(cc.delta(0))
        for _ in range(2):
            with pytest.raises(ValueError, match="not a chain complex"):
                cc.cohomology(1, QQ, full_mask(FIG1.m))

    @given(st.randoms(use_true_random=False), st.booleans())
    def test_matches_a_complex_per_sigma_on_random_complements(self, rng, all_sigma):
        P = random_complement(rng, 7, 6)
        coeffs = (QQ, PrimeField(2), ZZ)
        assert compare_blocks(P, coeffs, all_sigma) == compare_blocks_per_sigma(P, coeffs, all_sigma)

    def test_maps_at_empty_degrees_are_zero_matrices(self):
        complexes = [
            SimplicialComplex.void(3),
            SimplicialComplex.empty(3),
            SimplicialComplex.full(3),
            complex_from_complement(FIG1),
        ]
        for K in complexes:
            cc = CochainComplex(K)
            for n in range(-3, max(cc.faces, default=-2) + 3):
                shape = (len(cc.faces.get(n + 1, [])), len(cc.faces.get(n, [])))
                M = cc.delta(n)
                assert (M.nrows, M.ncols) == shape
                if not all(shape):
                    assert M == Matrix(*shape)


def _sigmas(P: Complement, all_sigma: bool) -> list[int]:
    closure = {0}
    for member in P.members:
        closure |= {c | member for c in closure}
    return list(range(1 << P.m)) if all_sigma else sorted(closure)


@pytest.mark.parametrize("all_sigma", [False, True])
@pytest.mark.parametrize("relative", [False, True])
@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_restriction_factors_one_degree_at_a_time(name, relative, all_sigma, monkeypatch):
    # a sigma's restriction factors once per degree that holds sets inside
    # sigma, on the rows of that degree's sets alone, and keeps what it
    # returns as the last sigma read; at every degree where sigma has no
    # sets the oracle reads zero, so compare_blocks may read it there
    P = ORACLE_CASES[name]
    cc = CochainComplex(P, _union(P, all_sigma), relative)
    calls = []
    real = factors_at_rows

    def spy(M, positions):
        calls.append((M, list(positions)))
        return real(M, positions)

    monkeypatch.setattr("facetor.hochster.factors_at_rows", spy)
    for sigma in _sigmas(P, all_sigma):
        calls.clear()
        sizes, factors = cc._restrict(sigma)
        inside = {n: [i for i, f in enumerate(fs) if f & ~sigma == 0] for n, fs in cc.faces.items()}
        inside = {n: rows for n, rows in inside.items() if rows and (sigma or not relative)}
        got = {next(n + 1 for n, D in cc._matrices.items() if D is M): sorted(rows) for M, rows in calls}
        assert len(got) == len(calls)
        assert got == inside
        if sigma or not relative:
            assert sizes == {n: len(rows) for n, rows in inside.items()}
        assert cc._last == (sigma, sizes, factors)
        for n in range(-2, popcount(sigma) + 1):
            if n not in sizes:
                for coeff in (QQ, PrimeField(2), ZZ):
                    assert cc.cohomology(n, coeff, sigma) is ZERO_GROUP


def test_blocks_zero_on_both_sides_are_counted_not_listed():
    # zero blocks off sigma's degrees and at them alike are counted: {1, 2, 3}
    # holds the non-faces {1, 2} and {1, 2, 3}, and its relative complex is
    # acyclic.  Of the 6,144 blocks only K_0's unit and the edge's are listed
    P = Complement.from_vertex_lists(10, [[1, 2]])
    checked, blocks = compare_blocks(P, VERIFY_COEFFS, all_sigma=True)
    assert checked == 6144
    assert [(q, sigma, ok) for q, sigma, _, ok in blocks] == [(0, 0, True), (1, mask_of([1, 2], 10), True)]


def test_a_tor_block_where_sigma_has_no_sets_still_disagrees(monkeypatch):
    # the oracle is read as zero at a degree where sigma has no sets, so a
    # nonzero Tor block planted there must still come out as a disagreement
    real = tor_bigraded

    def planted(P, coeff):
        tor = real(P, coeff)
        tor.entries[(0, full_mask(P.m))] = HomologyGroup(1)
        return tor

    monkeypatch.setattr("facetor.hochster.tor_bigraded", planted)
    assert _disagreements(compare_blocks(FIG1, (QQ, ZZ))) == [(0, full_mask(FIG1.m))]


@given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
def test_report_reads_the_same_off_a_complex_per_sigma(rng, all_sigma, as_json):
    P = random_complement(rng, 7, 6)
    header = {"command": "verify", "mode": "file", "m": P.m}
    reports = []
    for checked, blocks in (
        compare_blocks(P, VERIFY_COEFFS, all_sigma),
        compare_blocks_per_sigma(P, VERIFY_COEFFS, all_sigma),
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = _render_verify_results(checked, blocks, as_json, header)
        reports.append((code, out.getvalue()))
    assert reports[0] == reports[1]


class TestNonFaceFamily:
    """The cochain complex on the non-faces of K inside U: each sigma is
    read off the relative complex C*(Delta_sigma, K_sigma), and agrees
    with the one on U's faces."""

    @given(st.randoms(use_true_random=False), st.booleans())
    def test_matches_the_face_family_per_sigma(self, rng, all_sigma):
        P = random_complement(rng, 7, 6)
        union = _union(P, all_sigma)
        faces, non_faces = (CochainComplex(P, union, relative=r) for r in (False, True))
        for sigma in _sigmas(P, all_sigma):
            for n in range(-2, popcount(sigma) + 1):
                for coeff in (QQ, PrimeField(2), ZZ):
                    assert non_faces.cohomology(n, coeff, sigma) == faces.cohomology(n, coeff, sigma)

    @pytest.mark.parametrize("all_sigma", [False, True])
    def test_families_grown_from_the_members(self, all_sigma):
        rng = random.Random(23)
        for _ in range(60):
            P = random_complement(rng, 7, 6)
            union = _union(P, all_sigma)
            K = complex_from_complement(P)
            faces, non_faces = (CochainComplex(P, union, relative=r) for r in (False, True))
            grown = [f for fs in faces.faces.values() for f in fs]
            assert grown == ([] if K.is_void else full_subcomplex(K, union).faces())
            assert sorted(f for fs in non_faces.faces.values() for f in fs) == sorted(_non_faces(K, union))
            # the complex that compare_blocks builds is on the smaller family
            chosen = CochainComplex(P, union)
            assert chosen.relative == (len(non_faces._position) < len(faces._position))

    def test_projective_plane_torsion_block(self):
        P = complement_from_complex(rp2_complex())
        cc = CochainComplex(P, full_mask(6), relative=True)
        assert cc.cohomology(2, ZZ, full_mask(6)).signature == (0, (2,))
        assert cc.cohomology(1, ZZ, full_mask(6)).is_zero
        assert cc.cohomology(2, PrimeField(2), full_mask(6)).signature == (1, ())
        assert cc.cohomology(1, PrimeField(2), full_mask(6)).signature == (1, ())
        assert cc.cohomology(2, QQ, full_mask(6)).is_zero

    def test_empty_sigma_and_void_complex(self):
        # the duality needs sigma nonempty: K_0 is read directly, the
        # empty complex (the ring in degree -1) unless K is void
        cc = CochainComplex(FIG1, full_mask(FIG1.m), relative=True)
        # every subset of [3] is a non-face of the void complex: the
        # relative complex is the full simplex's own, acyclic
        void = CochainComplex(Complement(3, (0,)), full_mask(3), relative=True)
        assert max(void.faces, default=-2) == 1 and len(void._position) == 8
        for coeff in (QQ, PrimeField(2), ZZ):
            assert [cc.cohomology(n, coeff, 0).signature for n in (-2, -1, 0)] == [(0, ()), (1, ()), (0, ())]
            for sigma in range(8):
                assert all(void.cohomology(n, coeff, sigma).is_zero for n in range(-3, 4))

    @given(st.randoms(use_true_random=False), st.booleans())
    def test_whole_read_is_the_read_on_the_union(self, rng, relative):
        # without sigma, cohomology restricts to the complex's own vertex
        # set; read off the whole coboundary pair, it gives the same groups
        P = random_complement(rng, 7, 6)
        union = reduce(or_, P.members, 0) if rng.random() < 0.5 else full_mask(P.m)
        complexes = [CochainComplex(P, union, relative), CochainComplex(complex_from_complement(P))]
        for cc in complexes:
            if cc.relative and not cc.union:
                continue  # K_0 is read directly, below
            for n in range(-3, max(cc.faces, default=-2) + 3):
                for coeff in (QQ, PrimeField(2), ZZ):
                    assert cc.cohomology(n, coeff) == homology_at(cc.delta(n - 1), cc.delta(n), coeff)

    def test_whole_read_on_an_empty_union(self):
        # the relative complex on U = 0 is read as K_0, like sigma = 0:
        # the ring in degree -1, or nothing when K is void
        for members, unit in (((0b011,), (1, ())), ((0,), (0, ()))):
            cc = CochainComplex(Complement(3, members), 0, relative=True)
            for coeff in (QQ, PrimeField(2), ZZ):
                assert [cc.cohomology(n, coeff).signature for n in (-2, -1, 0)] == [(0, ()), unit, (0, ())]

    def test_ghost_vertices(self):
        # 2 and 5 are no faces, so K on {2, 5} is the empty complex and K
        # on {1, 2, 3} is two points
        P = ORACLE_CASES["ghost vertices"]
        cc = CochainComplex(P, full_mask(5), relative=True)
        for coeff in (QQ, ZZ):
            assert cc.cohomology(-1, coeff, mask_of([2, 5], 5)).signature == (1, ())
            assert cc.cohomology(0, coeff, mask_of([2, 5], 5)).is_zero
            assert cc.cohomology(0, coeff, mask_of([1, 2, 3], 5)).signature == (1, ())
            assert cc.cohomology(-1, coeff, mask_of([1, 2, 3], 5)).is_zero

    @pytest.mark.parametrize("all_sigma", [False, True])
    @pytest.mark.parametrize("n", [0, 1])
    def test_flipped_sign_in_a_relative_coboundary_is_caught(self, n, all_sigma, monkeypatch):
        # two edges take U's non-faces; their relative complex has maps
        # out of degrees 0 and 1 that compose with a nonzero neighbour
        P = ORACLE_CASES["two edges"]
        real = CochainComplex.delta

        def flipped(self, k):
            if k == n and k not in self._matrices:
                assert self.relative
                self._matrices[k] = _flip_first_entry(real(self, k))
            return real(self, k)

        monkeypatch.setattr(CochainComplex, "delta", flipped)
        with pytest.raises(ValueError, match="not a chain complex"):
            compare_blocks(P, (QQ, PrimeField(2), ZZ), all_sigma)
