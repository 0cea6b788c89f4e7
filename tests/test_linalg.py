import random
import time
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, strategies as st

from facetor import linalg
from facetor.linalg import (
    QQ,
    ZZ,
    CapabilityError,
    HomologyBasis,
    HomologyGroup,
    Integers,
    Matrix,
    PrimeField,
    Rationals,
    homology_at,
    homology_representatives,
    reduce_cycle,
    snf_diagonal,
    _PRIME_LIMIT,
    _echelon,
    _null_vector,
)

from helpers import (
    EX513,
    FIG1,
    bareiss_determinant,
    field_rank,
    fraction_field_basis,
    fraction_rref,
    random_matrix,
    rowwise_reduce_cycle,
    smith_normal_form,
)


def int_matrices(max_dim=6, bound=9, entries=None):
    entries = st.integers(-bound, bound) if entries is None else entries
    return st.tuples(st.integers(0, max_dim), st.integers(0, max_dim)).flatmap(
        lambda shape: st.lists(
            st.lists(entries, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ).map(lambda rows: Matrix(shape[0], shape[1], rows))
    )


def assert_snf_contract(M):
    U, D, V = smith_normal_form(M)
    assert (U @ M) @ V == D
    diag = [D.rows[i][i] for i in range(min(M.nrows, M.ncols))]
    for i in range(M.nrows):
        for j in range(M.ncols):
            if i != j:
                assert D.rows[i][j] == 0
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    assert diag[: len(nonzero)] == nonzero, "zeros must trail"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert bareiss_determinant(U.rows) in (-1, 1)
    assert bareiss_determinant(V.rows) in (-1, 1)
    return diag


class TestSmithNormalForm:
    def test_identity(self):
        _, D, _ = smith_normal_form(Matrix.identity(3))
        assert D == Matrix.identity(3)

    def test_zero(self):
        _, D, _ = smith_normal_form(Matrix(2, 3))
        assert D.is_zero()

    def test_worked_2x2(self):
        M = Matrix(2, 2, [[2, 4], [6, 8]])
        diag = assert_snf_contract(M)
        assert diag == [2, 4]
        assert diag[0] == gcd(gcd(2, 4), gcd(6, 8))
        assert diag[0] * diag[1] == abs(bareiss_determinant(M.rows))

    @given(int_matrices())
    def test_contract_random(self, M):
        assert_snf_contract(M)

    @pytest.mark.parametrize(
        "diagonal, factors",
        [([2, 3], [1, 6]), ([4, 6], [2, 12]), ([6, 10, 15], [1, 30, 30])],
    )
    def test_out_of_order_diagonal(self, diagonal, factors):
        # the first pivot divides no later entry: it must be shrunk before
        # it is placed, and a unit-free map goes to the dense form whole
        n = len(diagonal)
        M = Matrix(n, n, [[x if i == j else 0 for j in range(n)] for i, x in enumerate(diagonal)])
        assert assert_snf_contract(M) == factors
        assert snf_diagonal(M) == factors

    def test_diagonal_helper(self):
        assert snf_diagonal(Matrix(2, 2, [[2, 4], [6, 8]])) == [2, 4]
        assert snf_diagonal(Matrix(2, 2)) == []
        assert snf_diagonal(Matrix(3, 1, [[0], [4], [-6]])) == [2]
        assert snf_diagonal(Matrix(1, 4, [[0, 6, 0, -9]])) == [3]


class TestMatrixStorage:
    @given(int_matrices(), st.data())
    def test_entries_match_dense_rows(self, M, data):
        # zero values given to Matrix.sparse are dropped, so equal
        # matrices store equal dicts
        dense = M.rows
        N = Matrix.sparse(M.nrows, M.ncols, [dict(enumerate(row)) for row in dense])
        assert N == M and N.rows == dense and N.is_zero() == M.is_zero()
        nonzero = [(i, j) for i, row in enumerate(dense) for j, x in enumerate(row) if x]
        if nonzero:
            i, j = data.draw(st.sampled_from(nonzero))
            rows = [dict(enumerate(row)) for row in dense]
            rows[i][j] = 0
            N = Matrix.sparse(M.nrows, M.ncols, rows)
            dense[i][j] = 0
            expected = Matrix(M.nrows, M.ncols, dense)
            assert N == expected and N.rows == dense and N.is_zero() == expected.is_zero()
        empty = [{} for _ in range(M.nrows)]
        with pytest.raises(IndexError):
            Matrix.sparse(M.nrows, M.ncols, empty + [{0: 1}])
        for j in (M.ncols, -1):
            with pytest.raises(IndexError):
                Matrix.sparse(M.nrows + 1, M.ncols, empty + [{j: 1}])

    @given(int_matrices(), st.integers(0, 6), st.data())
    def test_product_matches_dense(self, A, b, data):
        rows_b = data.draw(
            st.lists(st.lists(st.integers(-9, 9), min_size=b, max_size=b), min_size=A.ncols, max_size=A.ncols)
        )
        rows_a = A.rows
        expected = [
            [sum(rows_a[i][t] * rows_b[t][j] for t in range(A.ncols)) for j in range(b)]
            for i in range(A.nrows)
        ]
        product = A @ Matrix(A.ncols, b, rows_b)
        assert product == Matrix(A.nrows, b, expected) and product.rows == expected

    @given(int_matrices())
    def test_rows_is_a_copy(self, M):
        before = M.rows
        expected = snf_diagonal(Matrix(M.nrows, M.ncols, before))
        copy = M.rows
        for row in copy:
            for j in range(len(row)):
                row[j] += 1
        assert M.rows == before
        assert snf_diagonal(M) == expected


# Boundary matrices are mostly 0 and +-1; the larger entries and the
# unit-free block leave a residual for the dense Smith form.
MOSTLY_UNIT_ENTRIES = (0,) * 8 + (1, -1) * 3 + (2, -2, 3, -3, 4, -4, 6)
UNIT_FREE_ENTRIES = (0, 0, 0, 2, -2, 3, -3, 4, -4, 6)


@st.composite
def mostly_unit_matrices(draw):
    """A mostly 0/+-1 matrix beside a unit-free block, with rows and
    columns shuffled."""
    a = draw(int_matrices(max_dim=7, entries=st.sampled_from(MOSTLY_UNIT_ENTRIES)))
    b = draw(int_matrices(max_dim=3, entries=st.sampled_from(UNIT_FREE_ENTRIES)))
    rows = [r + [0] * b.ncols for r in a.rows] + [[0] * a.ncols + r for r in b.rows]
    nrows, ncols = a.nrows + b.nrows, a.ncols + b.ncols
    row_order = draw(st.permutations(range(nrows)))
    col_order = draw(st.permutations(range(ncols)))
    return Matrix(nrows, ncols, [[rows[i][j] for j in col_order] for i in row_order])


@given(mostly_unit_matrices())
@example(Matrix(0, 0))
@example(Matrix(0, 4))
@example(Matrix(3, 0))
@example(Matrix(3, 3, [[1, 0, 0], [0, 0, 0], [1, 0, 0]]))
@example(Matrix(2, 2, [[2, 4], [6, 8]]))
@example(Matrix(4, 4, [[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 2, 4], [0, 0, 6, 8]]))
def test_snf_diagonal_matches_dense_snf(M):
    # unit pivots first, then the dense SNF on the residual, must give
    # the diagonal of the retained dense SNF
    _, D, _ = smith_normal_form(M)
    dense = [D.rows[i][i] for i in range(min(M.nrows, M.ncols)) if D.rows[i][i]]
    assert snf_diagonal(M) == dense


@st.composite
def one_line_matrices(draw):
    """A map of any shape whose nonzero entries, if any, all lie in one
    row or in one column."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = [[0] * ncols for _ in range(nrows)]
    entries = st.integers(-12, 12)
    line = draw(st.sampled_from(["zero", "row", "column"]))
    if line == "row" and nrows:
        rows[draw(st.integers(0, nrows - 1))] = draw(st.lists(entries, min_size=ncols, max_size=ncols))
    elif line == "column" and ncols:
        j = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[j] = draw(entries)
    return Matrix(nrows, ncols, rows)


@given(one_line_matrices())
@example(Matrix(0, 4))
@example(Matrix(4, 0))
@example(Matrix(3, 5))
@example(Matrix(3, 1, [[0], [4], [-6]]))
@example(Matrix(1, 4, [[0, 6, 0, -9]]))
@example(Matrix(2, 2, [[0, 0], [0, -5]]))
def test_snf_diagonal_of_one_line_maps(M):
    # a map with entries in one row or one column has the gcd of its
    # entries as its one factor, and a zero map has none
    _, D, _ = smith_normal_form(M)
    dense = [D.rows[i][i] for i in range(min(M.nrows, M.ncols)) if D.rows[i][i]]
    assert snf_diagonal(M) == dense


@pytest.mark.parametrize(
    "rows",
    [[[Fraction(1, 2)]], [[0, Fraction(4, 2)]], [[1, 0], [0, Fraction(1, 2)]], [[0.5], [1]]],
    ids=["single", "one-row", "two-lines", "float"],
)
def test_snf_diagonal_needs_integer_entries(rows):
    with pytest.raises(ValueError, match="integer entries"):
        snf_diagonal(Matrix(len(rows), len(rows[0]), rows))


@pytest.mark.parametrize("diag", [[0], [-2], [2, 3], [1, -2], [2, 0], [1, 2, 6, 3]], ids=str)
def test_faulty_factors_are_rejected(monkeypatch, diag):
    # every result is checked, under python -O too, and a bad one is not kept
    monkeypatch.setattr(linalg, "_invariant_factors", lambda rows: list(diag))
    M = Matrix(2, 2, [[1, 1], [1, -1]])
    with pytest.raises(AssertionError, match="out of order"):
        snf_diagonal(M)
    assert M.factors is None
    linalg._check_invariant_factors([])
    linalg._check_invariant_factors((1, 2, 6, 12))


def _on_one_line(M):
    """True when M's nonzero entries all lie in one row or one column."""
    cells = [(i, j) for i, row in enumerate(M.rows) for j, x in enumerate(row) if x]
    return len({i for i, _ in cells}) <= 1 or len({j for _, j in cells}) <= 1


def _chain_pair(rng, n_mid=5):
    """Random pair (d_in, d_out) with d_out @ d_in == 0: d_in factors
    through an integer kernel basis of d_out."""
    from facetor.linalg import _snf_state

    a = rng.randint(0, 4)
    b = rng.randint(0, 4)
    d_out = Matrix(a, n_mid, [[rng.randint(-3, 3) for _ in range(n_mid)] for _ in range(a)])
    st_, rank = _snf_state(d_out, track_u=False, track_v=True)
    ker = [[st_.v[i][j] for i in range(n_mid)] for j in range(rank, n_mid)]
    in_rows = [[0] * b for _ in range(n_mid)]
    for j in range(b):
        for vec in ker:
            c = rng.randint(-2, 2)
            if c:
                for i in range(n_mid):
                    in_rows[i][j] += c * vec[i]
    return Matrix(n_mid, b, in_rows), d_out


class TestHomologyAt:
    def test_zero_maps_free_module(self):
        signature_only = homology_at(Matrix(3, 0), Matrix(0, 3), ZZ)
        assert signature_only.signature == (3, ())
        with pytest.raises(AttributeError):
            signature_only.representatives
        g = homology_representatives(Matrix(3, 0), Matrix(0, 3), ZZ)
        assert g.rank == 3 and g.torsion == ()
        assert list(g.representatives) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_empty_middle_is_the_zero_group(self):
        # 0x0 maps, and maps from or to nothing, take the general path
        pairs = [(Matrix(0, 0), Matrix(0, 0)), (Matrix(0, 3), Matrix(2, 0)), (Matrix(0, 0), Matrix(4, 0))]
        for d_in, d_out in pairs:
            for coeff in (QQ, PrimeField(2), ZZ):
                assert homology_at(d_in, d_out, coeff) == HomologyGroup(0)

    def test_multiplication_by_two(self):
        # 0 -> Z --x2--> Z -> 0 at the target gives Z/2
        g = homology_at(Matrix(1, 1, [[2]]), Matrix(0, 1), ZZ)
        assert g.rank == 0 and g.torsion == (2,)

    def test_field_vs_integers(self):
        d_in = Matrix(2, 1, [[2], [0]])
        d_out = Matrix(0, 2)
        assert homology_at(d_in, d_out, QQ).rank == 1
        assert homology_at(d_in, d_out, PrimeField(2)).rank == 2
        g = homology_at(d_in, d_out, ZZ)
        assert (g.rank, g.torsion) == (1, (2,))

    def test_not_a_chain_complex(self):
        for route in (homology_at, homology_representatives):
            with pytest.raises(ValueError, match="not a chain complex"):
                route(Matrix(1, 1, [[1]]), Matrix(1, 1, [[1]]), QQ)

    def test_chain_check_sums_products(self):
        # [1, 1] . [1, -1]^T cancels to 0; [1, 1, 1] . [1, -1, 1]^T cancels
        # only partly
        for route in (homology_at, homology_representatives):
            g = route(Matrix(2, 1, [[1], [-1]]), Matrix(1, 2, [[1, 1]]), ZZ)
            assert g.signature == (0, ())
            with pytest.raises(ValueError, match="not a chain complex: d_out composed with d_in is nonzero"):
                route(Matrix(3, 1, [[1], [-1], [1]]), Matrix(1, 3, [[1, 1, 1]]), ZZ)

    def test_shape_mismatch(self):
        # zero maps are checked for shape before a zero map passes the pair
        for route in (homology_at, homology_representatives):
            for d_in, d_out in [
                (Matrix(3, 1), Matrix(1, 2)),
                (Matrix(3, 1), Matrix(1, 2, [[1, 1]])),
                (Matrix(3, 1, [[1], [0], [0]]), Matrix(1, 2)),
            ]:
                with pytest.raises(ValueError, match="shape mismatch: d_out is 1x2, d_in is 3x1"):
                    route(d_in, d_out, QQ)

    def test_nonzero_one_line_maps_are_composed(self):
        # both maps lie on one line, neither is zero: the pair is still checked
        d_in, d_out = Matrix(2, 1, [[0], [3]]), Matrix(1, 2, [[0, 2]])
        for route in (homology_at, homology_representatives):
            for coeff in (QQ, PrimeField(2), ZZ):
                with pytest.raises(ValueError, match="not a chain complex"):
                    route(d_in, d_out, coeff)

    def test_each_map_factored_once(self, monkeypatch):
        # the three rings read the same two maps' factors, kept on the
        # matrices: a map with entries off one row and one column is
        # eliminated once, a map on one line never; fresh copies must
        # give the same groups
        real = linalg._invariant_factors
        calls = []
        monkeypatch.setattr(linalg, "_invariant_factors", lambda rows: calls.append(1) or real(rows))
        rng = random.Random(17)
        seen = set()
        for _ in range(20):
            d_in, d_out = _chain_pair(rng)
            eliminated = sum(not _on_one_line(M) for M in (d_in, d_out))
            seen.add(eliminated)
            calls.clear()
            groups = [homology_at(d_in, d_out, coeff) for coeff in (QQ, PrimeField(2), ZZ)]
            assert len(calls) == eliminated
            assert snf_diagonal(d_out) == list(d_out.factors) and len(calls) == eliminated
            for coeff, group in zip((QQ, PrimeField(2), ZZ), groups):
                fresh_in = Matrix(d_in.nrows, d_in.ncols, d_in.rows)
                fresh_out = Matrix(d_out.nrows, d_out.ncols, d_out.rows)
                assert homology_at(fresh_in, fresh_out, coeff) == group
        assert seen == {0, 1, 2}

    def test_each_pair_composed_once(self, monkeypatch):
        # the three rings, and the representatives after them, share one
        # d_out @ d_in, or none when either map is zero; a fresh copy of
        # either map is composed again
        real = Matrix.__matmul__
        calls = []
        monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: calls.append((a, b)) or real(a, b))
        rng = random.Random(19)
        seen = set()
        for _ in range(20):
            d_in, d_out = _chain_pair(rng)
            nonzero = not (d_in.is_zero() or d_out.is_zero())
            seen.add(nonzero)
            calls.clear()
            for coeff in (QQ, PrimeField(2), ZZ):
                homology_at(d_in, d_out, coeff)
            for coeff in (QQ, PrimeField(2)):
                homology_representatives(d_in, d_out, coeff)
            assert calls == [(d_out, d_in)] * nonzero
            fresh_in = Matrix(d_in.nrows, d_in.ncols, d_in.rows)
            homology_at(fresh_in, d_out, QQ)
            homology_at(fresh_in, d_out, ZZ)
            assert calls == [(d_out, d_in), (d_out, fresh_in)] * nonzero
        assert seen == {False, True}

    def test_each_pair_composed_once_by_compare_blocks(self, monkeypatch):
        # the oracle builds one cochain complex, on U's faces or on its
        # non-faces, and checks U's pairs instead of each sigma's
        # restrictions: over Q, F2 and Z, each pair of two nonzero maps
        # of the chosen family and of the Tor side is composed exactly
        # once, a pair with a zero map never, and no other product is
        # taken; FIG1 and EX513 take U's faces, the clutter its non-faces
        from facetor import hochster
        from facetor.complexes import Complement
        from facetor.hochster import CochainComplex, compare_blocks
        from facetor.taylor import taylor_complex
        from facetor.tor import tor_bigraded

        real_matmul, real_check, real_init = Matrix.__matmul__, linalg.check_chain_pair, CochainComplex.__init__
        composed, checked, built = [], [], []
        monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: composed.append((a, b)) or real_matmul(a, b))

        def spy_check(d_in, d_out):
            checked.append((d_out, d_in))
            real_check(d_in, d_out)

        def spy_init(self, *args):
            real_init(self, *args)
            built.append(self)

        for module in (linalg, hochster):
            monkeypatch.setattr(module, "check_chain_pair", spy_check)
        monkeypatch.setattr(CochainComplex, "__init__", spy_init)
        key = lambda pair: (id(pair[0]), id(pair[1]))
        nonzero = lambda pairs: [pair for pair in pairs if not (pair[0].is_zero() or pair[1].is_zero())]
        # a clutter on which one Tor-side pair has two nonzero maps
        clutter = Complement.from_vertex_lists(6, [[1, 4, 5], [3, 5, 6], [3, 4, 6], [2, 3, 5], [1, 2, 3, 6], [4, 5, 6]])
        seen = set()
        for P in (FIG1, EX513, clutter):
            for all_sigma in (False, True):
                taylor_complex.cache_clear()
                for calls in (composed, checked, built):
                    calls.clear()
                compare_blocks(P, (QQ, PrimeField(2), ZZ), all_sigma)
                assert len(built) == 1
                union = built[0]
                union_pairs = nonzero([(union.delta(n), union.delta(n - 1)) for n in union.faces])
                tor_maps = {id(M) for M in tor_bigraded(P, QQ).taylor._matrices.values()}
                tor_pairs = [pair for pair in composed if id(pair[0]) in tor_maps and id(pair[1]) in tor_maps]
                assert sorted(map(key, composed)) == sorted(set(map(key, nonzero(checked))))
                assert sorted(map(key, composed)) == sorted(map(key, union_pairs + tor_pairs))
                seen.add((union.relative, bool(union_pairs), bool(tor_pairs)))
        assert seen == {(False, True, False), (True, True, True)}

    @pytest.mark.parametrize("side", ["d_in", "d_out"])
    @pytest.mark.parametrize("coeff", [QQ, PrimeField(2), ZZ], ids=str)
    def test_setting_an_entry_checks_the_pair_again(self, side, coeff):
        # d_out remembers the d_in object it passed with, so a flipped
        # copy of either map is a new pair and is composed again
        d_in, d_out = Matrix(2, 1, [[1], [-1]]), Matrix(1, 2, [[1, 1]])
        assert homology_at(d_in, d_out, coeff).rank == 0
        assert homology_representatives(d_in, d_out, coeff).rank == 0
        assert d_out._zero_with is d_in
        if side == "d_in":
            pair = (Matrix(2, 1, [[1], [1]]), d_out)
        else:
            pair = (d_in, Matrix(1, 2, [[1, -1]]))
        for _ in range(2):
            for route in (homology_at, homology_representatives):
                with pytest.raises(ValueError, match="not a chain complex"):
                    route(*pair, coeff)
        # the pair that passed still passes
        assert homology_at(d_in, d_out, coeff).rank == 0

    def test_rank_nullity_over_fields(self):
        rng = random.Random(5)
        for _ in range(40):
            d_in, d_out = _chain_pair(rng)
            for coeff in (QQ, PrimeField(3)):
                g = homology_at(d_in, d_out, coeff)
                expected = d_out.ncols - field_rank(d_out, coeff) - field_rank(d_in, coeff)
                assert g.rank == expected

    def test_universal_coefficients(self):
        # dim over F_p = Z-rank + p-torsion of this block + p-torsion one below
        rng = random.Random(11)
        for _ in range(40):
            d_in, d_out = _chain_pair(rng)
            gz = homology_at(d_in, d_out, ZZ)
            assert homology_at(d_in, d_out, QQ).rank == gz.rank
            lower_torsion = [d for d in snf_diagonal(d_out) if d > 1]
            for p in (2, 3):
                gp = homology_at(d_in, d_out, PrimeField(p))
                expected = (
                    gz.rank
                    + sum(1 for t in gz.torsion if t % p == 0)
                    + sum(1 for t in lower_torsion if t % p == 0)
                )
                assert gp.rank == expected

    def test_representatives_are_cycles_mod_boundaries(self):
        rng = random.Random(23)
        for _ in range(30):
            d_in, d_out = _chain_pair(rng)
            for coeff in (QQ, ZZ, PrimeField(2)):
                g = homology_representatives(d_in, d_out, coeff)
                assert len(g.representatives) == g.rank
                p = coeff.p if isinstance(coeff, PrimeField) else None
                for rep in g.representatives:
                    image = [
                        sum(d_out.rows[i][j] * rep[j] for j in range(d_out.ncols))
                        for i in range(d_out.nrows)
                    ]
                    if p:
                        image = [x % p for x in image]
                    assert all(x == 0 for x in image)


def test_lyubeznik_maps_skip_the_eliminator(monkeypatch):
    # The Lyubeznik blocks that maz and tor read are close to a minimal
    # resolution: almost every map is zero or lies on one line, so few
    # maps are eliminated and no pair is composed.  These counts change
    # legitimately when the blocks built change (ROADMAP item 6, a
    # smaller complex) or when pairs are checked elsewhere (item 3, one
    # check on the union's maps).  When every map was eliminated and
    # every pair composed, the same runs made 432 and 216 calls on
    # EX513, 197 and 101 on C5, and 108 and 63 on C6.
    from facetor.complexes import SimplicialComplex, complement_from_complex
    from facetor.moment_angle import PairSpec, maz_cohomology
    from facetor.taylor import taylor_complex
    from facetor.tor import tor_bigraded

    real_factors, real_matmul = linalg._invariant_factors, Matrix.__matmul__
    calls = []
    monkeypatch.setattr(linalg, "_invariant_factors", lambda rows: calls.append("eliminate") or real_factors(rows))
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: calls.append("compose") or real_matmul(a, b))

    def counts(run, P, *args):
        taylor_complex.cache_clear()
        calls.clear()
        run(P, *args)
        return calls.count("eliminate"), calls.count("compose")

    def cycle(n):
        return complement_from_complex(SimplicialComplex.from_facets(n, [[i, i % n + 1] for i in range(1, n + 1)]))

    c5 = cycle(5)
    for preset in (PairSpec.spheres_s2_s1, PairSpec.disks_d2_s1):
        assert counts(maz_cohomology, EX513, preset(6), QQ) == (0, 0)
        assert counts(maz_cohomology, c5, preset(5), QQ) == (1, 0)
    assert counts(tor_bigraded, cycle(6), ZZ) == (6, 0)


def _terms(z) -> list[tuple[int, int]]:
    """The (position, value) pairs of a dense vector's nonzeros."""
    return [(j, x) for j, x in enumerate(z) if x]


class TestReduceCycle:
    def setup_method(self):
        self.d_in = Matrix(3, 1, [[1], [-1], [0]])
        self.d_out = Matrix(0, 3)
        self.group = homology_representatives(self.d_in, self.d_out, QQ)

    def test_representative_reduces_to_unit_vector(self):
        assert len(self.group.representatives) == self.group.rank == 2
        for i, rep in enumerate(self.group.representatives):
            coords = reduce_cycle(_terms(rep), self.group, QQ)
            assert [int(c) for c in coords] == [1 if j == i else 0 for j in range(self.group.rank)]

    def test_boundary_reduces_to_zero(self):
        coords = reduce_cycle(_terms([2, -2, 0]), self.group, QQ)
        assert len(coords) == 2 and all(c == 0 for c in coords)

    def test_zero_homology_block_with_cycles(self):
        # ker d_out = im d_in = span(1, -1), or d_in onto a block of one
        # generator: no homology, so no representatives and no forms,
        # and a boundary reads no coordinates.  Non-cycles are refused
        # by d applied to the chain (test_tor's product tests)
        pairs = (
            (Matrix(2, 1, [[1], [-1]]), Matrix(1, 2, [[1, 1]]), [3, -3]),
            (Matrix(1, 1, [[1]]), Matrix(0, 1), [5]),
        )
        for d_in, d_out, z in pairs:
            for coeff in (QQ, PrimeField(2), PrimeField(3), ZZ):
                group = homology_representatives(d_in, d_out, coeff)
                assert (group.rank, group.representatives, group.coordinates) == (0, (), ())
                assert reduce_cycle(_terms(z), group, coeff) == ()

    def test_torsion_over_integers_rejected(self):
        group = HomologyBasis(0, (2,), ())
        with pytest.raises(CapabilityError, match="torsion"):
            reduce_cycle([(0, 1)], group, ZZ)

    def test_integer_coordinates(self):
        group = homology_representatives(self.d_in, self.d_out, ZZ)
        assert len(group.representatives) == group.rank == 2
        coords = reduce_cycle(_terms([1, 0, 1]), group, ZZ)
        assert all(isinstance(c, int) for c in coords)
        combo = [0, 0, 0]
        for c, rep in zip(coords, group.representatives):
            for i in range(3):
                combo[i] += c * rep[i]
        # difference must be a boundary, i.e. a multiple of (1, -1, 0)
        diff = [a - b for a, b in zip([1, 0, 1], combo)]
        assert diff[2] == 0 and diff[0] == -diff[1]


class TestGroupValues:
    """Groups are immutable values: ZERO_GROUP and the entries of every
    BigradedTor share instances."""

    def test_equal_groups_compare_and_hash_equal(self):
        a, b = HomologyGroup(2, (2, 4)), HomologyGroup(rank=2, torsion=(2, 4))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, HomologyGroup(2, (2, 4))}) == 1
        assert HomologyGroup(3) == HomologyGroup(3, ()) and hash(HomologyGroup(3)) == hash(HomologyGroup(3, ()))
        assert {HomologyGroup(0): "zero"}[linalg.ZERO_GROUP] == "zero"

    def test_rank_or_torsion_tells_groups_apart(self):
        group = HomologyGroup(1, (2,))
        for other in (HomologyGroup(2, (2,)), HomologyGroup(1, (4,)), HomologyGroup(1), HomologyGroup(1, (2, 2))):
            assert group != other and not group == other
        assert HomologyGroup(0) != HomologyGroup(0, (2,))
        # a basis is not a bare group, even with the same rank and torsion
        assert HomologyGroup(0, (2,)) != HomologyBasis(0, (2,), ())

    @pytest.mark.parametrize(
        "group, text, signature, zero",
        [
            (HomologyGroup(0), "0", (0, ()), True),
            (HomologyGroup(1), "Z", (1, ()), False),
            (HomologyGroup(0, (2,)), "Z/2", (0, (2,)), False),
            (HomologyGroup(3, (2, 6)), "Z^3 + Z/2 + Z/6", (3, (2, 6)), False),
            (HomologyBasis(2, (), ((1, 0), (0, 1))), "Z^2", (2, ()), False),
        ],
    )
    def test_str_signature_and_is_zero(self, group, text, signature, zero):
        assert (str(group), group.signature, group.is_zero) == (text, signature, zero)

    def test_fields_cannot_be_set(self):
        basis = HomologyBasis(1, (), ((1,),), (((0, 1),),))
        cases = [
            (HomologyGroup(1, (2,)), ("rank", "torsion")),
            (linalg.ZERO_GROUP, ("rank", "torsion")),
            (basis, ("rank", "torsion", "representatives", "coordinates")),
        ]
        for group, names in cases:
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(group, name, 5)
                with pytest.raises(AttributeError):
                    delattr(group, name)
        assert (basis.rank, basis.representatives, basis.coordinates) == (1, ((1,),), (((0, 1),),))
        assert linalg.ZERO_GROUP == HomologyGroup(0)

    def test_reading_blocks_leaves_zero_group_zero(self):
        from facetor.hochster import compare_blocks

        for P in (FIG1, EX513):
            compare_blocks(P, (QQ, PrimeField(2), ZZ), all_sigma=True)
        assert linalg.ZERO_GROUP == HomologyGroup(0)
        assert (linalg.ZERO_GROUP.rank, linalg.ZERO_GROUP.torsion) == (0, ())

    @pytest.mark.parametrize("coeff", [QQ, PrimeField(2), ZZ], ids=str)
    def test_zero_reads_share_zero_group(self, coeff):
        # every zero group read off factors is the one shared instance,
        # whether factors lie on both sides, on one side, or on neither
        for n, out_factors, in_factors in ((0, (), ()), (2, (1,), (1,)), (1, (1,), ()), (1, (), (1,))):
            assert linalg.group_from_factors(n, out_factors, in_factors, coeff) is linalg.ZERO_GROUP
        d_in, d_out = Matrix(2, 1, [[1], [-1]]), Matrix(1, 2, [[1, 1]])
        assert homology_at(d_in, d_out, coeff) is linalg.ZERO_GROUP

    def test_basis_constructs_positionally(self):
        group = HomologyBasis(0, (2,), ())
        fields = (group.rank, group.torsion, group.representatives, group.coordinates)
        assert fields == (0, (2,), (), ())
        assert group.signature == (0, (2,)) and not group.is_zero
        assert group == HomologyBasis(0, (2,), (), ())
        assert hash(group) == hash(HomologyBasis(0, (2,), (), ()))
        assert group != HomologyBasis(0, (2,), (), (((0, 1),),))


class TestAcceptanceScaleSNF:
    def test_thousand_random_contracts_sample(self):
        # the full 1000-matrix sweep lives in the acceptance suite; keep
        # a fast smoke version here
        rng = random.Random(0)
        for _ in range(50):
            assert_snf_contract(random_matrix(rng, max_dim=6))


def test_representatives_reduce_to_unit_vectors():
    # the representative basis must be self-consistent under reduction,
    # over fields always and over Z in torsion-free blocks
    rng = random.Random(37)
    for _ in range(30):
        d_in, d_out = _chain_pair(rng)
        for coeff in (QQ, PrimeField(3), ZZ):
            g = homology_representatives(d_in, d_out, coeff)
            assert len(g.representatives) == g.rank
            if isinstance(coeff, type(ZZ)) and g.torsion:
                continue
            for i, rep in enumerate(g.representatives):
                coords = reduce_cycle(_terms(rep), g, coeff)
                expected = [1 if j == i else 0 for j in range(g.rank)]
                assert [int(c) for c in coords] == expected


@given(st.randoms(use_true_random=False))
def test_reduce_cycle_reads_coordinates(rng):
    # sum(c_i rep_i) + d_in y reduces to exactly c
    d_in, d_out = _chain_pair(rng)
    n = d_out.ncols
    for coeff in (QQ, PrimeField(2), PrimeField(3), ZZ):
        g = homology_representatives(d_in, d_out, coeff)
        if g.torsion:
            continue
        p = coeff.p if isinstance(coeff, PrimeField) else 0
        c = [rng.randrange(p) if p else rng.randint(-3, 3) for _ in range(g.rank)]
        y = [rng.randint(-3, 3) for _ in range(d_in.ncols)]
        z = [
            sum(ci * rep[i] for ci, rep in zip(c, g.representatives))
            + sum(d_in.rows[i][j] * y[j] for j in range(d_in.ncols))
            for i in range(n)
        ]
        assert list(reduce_cycle(_terms(z), g, coeff)) == c


# d_out's rows lead with 2 and 3, and the image's row with 2: every
# elimination over Q scales by 1 / Fraction(lead)
_NON_UNIT_PAIR = (Matrix(5, 1, [[0], [0], [0], [2], [4]]), Matrix(2, 5, [[2, 1, 0, 0, 0], [0, 3, 1, 0, 0]]))


def _outcome(route, z, group, coeff):
    """The values route reads, each with its type, or the error it raises."""
    try:
        return [(type(x), x) for x in route(z, group, coeff)]
    except (ValueError, CapabilityError) as e:
        return (type(e), str(e))


@given(st.randoms(use_true_random=False))
def test_reduce_cycle_matches_rowwise_reference(rng):
    # one pass over the terms through the column index reads every
    # coordinate with the value and the type (a Fraction over Q where a
    # form holds one) of each form evaluated on its own, on cycles and
    # on the mostly non-cycle random vectors alike, and refuses the same
    # torsion blocks with the same error
    for d_in, d_out in (_chain_pair(rng, rng.randint(1, 7)), _NON_UNIT_PAIR):
        n = d_out.ncols
        for coeff in (QQ, PrimeField(2), PrimeField(3), ZZ):
            g = homology_representatives(d_in, d_out, coeff)
            vectors = []
            for _ in range(3):
                c = [rng.randint(-3, 3) for _ in g.representatives]
                y = [rng.randint(-3, 3) for _ in range(d_in.ncols)]
                vectors.append(
                    [
                        sum(ci * rep[i] for ci, rep in zip(c, g.representatives))
                        + sum(d_in.rows[i][j] * y[j] for j in range(d_in.ncols))
                        for i in range(n)
                    ]
                )
                vectors.append([rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)])
            for z in vectors:
                terms = _terms(z)
                assert _outcome(reduce_cycle, terms, g, coeff) == _outcome(rowwise_reduce_cycle, terms, g, coeff)


def _mod(x, p: int):
    return x % p if p else x


@given(int_matrices(max_dim=5, bound=6))
def test_rank_matches_over_q_and_fraction_free(M):
    # the sparse echelon form over Q (p == 0) and F_p has 1 at each lead,
    # nothing left of it and nothing at the lead of an earlier row; its
    # leads are the reference RREF's pivots, and as many as the invariant
    # factors p does not divide: the identity F_p block signatures rely
    # on.  The null vector back-substituted at each free column f is
    # minus column f of the reference, with 1 at f, and d kills it
    diag = snf_diagonal(M)
    dense = M.rows
    for p in (0, 2, 3, 5):
        leads = _echelon(M._entries, p)
        rr = fraction_rref(M._entries, p)
        assert set(leads) == set(rr)
        earlier: set[int] = set()
        for c, row in leads.items():
            assert row[c] == 1 and min(row) == c
            assert not earlier.intersection(row)
            assert all(0 < x < p if p else x for x in row.values())
            earlier.add(c)
        assert len(leads) == (sum(d % p != 0 for d in diag) if p else len(diag))
        for f in range(M.ncols):
            if f in rr:
                continue
            null = _null_vector(leads, f, p)
            assert null == {f: 1} | {c: _mod(-row[f], p) for c, row in rr.items() if f in row}
            assert all(_mod(sum(x * null.get(j, 0) for j, x in enumerate(row)), p) == 0 for row in dense)
    assert M.rows == dense


@given(int_matrices(max_dim=6, bound=6))
@example(Matrix(2, 3, [[2, 1, 0], [0, 3, 1]]))
@example(Matrix(2, 3, [[-4, 2, 6], [2, 1, 0]]))
@example(Matrix(2, 2, [[1, 1], [1, -1]]))
@example(Matrix(3, 3, [[3, 0, 0], [0, -2, 0], [6, 4, 1]]))
def test_rref_over_q_matches_fraction_reference(M):
    # over Q the echelon form keeps ints until a non-unit lead; it finds
    # the all-Fraction reference RREF's pivots as its leads, in the same
    # order, and its null vectors are the reference's columns by value,
    # with no float anywhere, and the input rows stay untouched
    before = [dict(row) for row in M._entries]
    leads = _echelon(M._entries, 0)
    want = fraction_rref(M._entries, 0)
    assert list(leads) == list(want)
    assert all(type(x) in (int, Fraction) for row in leads.values() for x in row.values())
    for f in range(M.ncols):
        if f not in want:
            null = _null_vector(leads, f, 0)
            assert null == {f: 1} | {c: -row[f] for c, row in want.items() if f in row}
            assert all(type(x) in (int, Fraction) for x in null.values())
    assert M._entries == before
    assert all(type(x) is int for row in M._entries for x in row.values())


@given(st.data())
def test_rref_over_q_unit_leads_stay_ints(data):
    # rows that lead with +-1, with nothing left of the lead, meet only
    # unit leads in any order, so the echelon form over Q has int
    # entries alone, and every column is a lead
    n = data.draw(st.integers(0, 6))
    rows = []
    for i in range(n):
        tail = data.draw(st.lists(st.integers(-9, 9), min_size=n - i - 1, max_size=n - i - 1))
        rows.append([0] * i + [data.draw(st.sampled_from((1, -1)))] + tail)
    order = data.draw(st.permutations(range(n)))
    leads = _echelon(Matrix(n, n, [rows[i] for i in order])._entries, 0)
    assert sorted(leads) == list(range(n))
    assert all(type(x) is int for row in leads.values() for x in row.values())


def test_representatives_over_q_through_non_unit_leads():
    d_in, d_out = _NON_UNIT_PAIR
    g = homology_representatives(d_in, d_out, QQ)
    assert g.representatives == ((1, -2, 6, 0, 0), (0, 0, 0, 0, 1))
    for rep in g.representatives:
        assert all(type(x) is int for x in rep)
        assert next(x for x in rep if x) > 0
        assert gcd(*rep) == 1
    assert all(type(x) is Fraction for form in g.coordinates for _, x in form)
    assert any(type(x) is Fraction for row in _echelon(d_out._entries, 0).values() for x in row.values())
    for i, rep in enumerate(g.representatives):
        assert reduce_cycle(_terms(rep), g, QQ) == tuple(int(j == i) for j in range(g.rank))
    # 2 e_3 + 4 e_4 bounds, so 2 e_3 is -4 times the second class
    assert reduce_cycle([(3, 2)], g, QQ) == (0, -4)
    assert g == fraction_field_basis(d_in, d_out, QQ)


@given(st.randoms(use_true_random=False))
def test_representatives_over_q_match_fraction_reference(rng):
    # the whole field basis equals the one read off the all-Fraction
    # RREF, over F_p too, and over Q the coordinate forms keep their
    # Fraction entries and the representatives are primitive ints
    d_in, d_out = _chain_pair(rng)
    for coeff in (QQ, PrimeField(2), PrimeField(3)):
        assert homology_representatives(d_in, d_out, coeff) == fraction_field_basis(d_in, d_out, coeff)
    got = homology_representatives(d_in, d_out, QQ)
    assert all(type(x) is int for rep in got.representatives for x in rep)
    assert all(type(x) is Fraction for form in got.coordinates for _, x in form)


@given(st.randoms(use_true_random=False))
def test_signature_matches_representatives_route(rng):
    # homology_at reads (rank, torsion) off invariant factors alone; the
    # elimination that builds representatives must agree on every ring
    d_in, d_out = _chain_pair(rng)
    for coeff in (QQ, PrimeField(2), PrimeField(3), ZZ):
        g = homology_representatives(d_in, d_out, coeff)
        assert len(g.representatives) == g.rank
        assert homology_at(d_in, d_out, coeff).signature == g.signature


def test_coefficient_rings_carry_their_modulus():
    # p is 0 for exact arithmetic, a class constant and not a field, so
    # equality, hashing and names are those of the field-free dataclasses
    assert QQ.p == ZZ.p == 0
    assert PrimeField(2).p == 2
    assert (QQ, ZZ, PrimeField(2)) == (Rationals(), Integers(), PrimeField(2))
    assert QQ != ZZ and QQ != PrimeField(2) and ZZ != PrimeField(2)
    assert (hash(QQ), hash(ZZ), hash(PrimeField(2))) == (hash(()), hash(()), hash((2,)))
    assert [str(c) for c in (QQ, ZZ, PrimeField(2))] == ["Q", "Z", "F2"]
    assert [repr(c) for c in (QQ, ZZ)] == ["Rationals()", "Integers()"]


def _accepted(n):
    try:
        PrimeField(n)
    except ValueError:
        return False
    return True


class TestPrimeField:
    def test_agrees_with_trial_division(self):
        for n in range(10_000):
            is_prime = n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
            assert _accepted(n) == is_prime, n

    def test_large_prime_accepted_quickly(self):
        start = time.perf_counter()
        assert PrimeField(2**61 - 1).p == 2**61 - 1
        assert time.perf_counter() - start < 1.0

    def test_pseudoprimes_rejected(self):
        # 561 is a Carmichael number; 3215031751 is a strong pseudoprime
        # to the bases 2, 3, 5 and 7
        for n in (561, 3215031751):
            with pytest.raises(ValueError, match="not a prime"):
                PrimeField(n)

    def test_beyond_exact_range_rejected(self):
        # the bound is the least composite that passes all 13 bases; the
        # prime 2^89 - 1 lies above it too
        assert _PRIME_LIMIT == 1287836182261 * 2575672364521
        for n in (_PRIME_LIMIT, 2**89 - 1):
            with pytest.raises(ValueError, match="too large"):
                PrimeField(n)
