"""Shared fixtures-by-import: worked inputs and brute-force oracles.

The brute-force functions here deliberately avoid the library's clever
paths (transversal dualities, facet calculus) so tests compare two
independent routes to the same answer.  The verification-only paths
the package does not ship live here too: the monomial full differential,
the (S^2, S^1) series, the accessors only tests read (field_rank,
total_subset, generator_set, boundary_matrices, boundary_column,
full_signature, signature, has_face), the ideal-equivalence check
equivalent, reduced_cohomology off the cochain complex on a complex's
faces, the tracked dense smith_normal_form that the invariant-factor
kernel is checked against, the reduced differential from its
definition, the redundant-presentation strategy, the moment-angle
series summed over links without a Taylor complex, the per-bit loop
the bitset tables replaced, compare_blocks with one full subcomplex
built per sigma, and the field RREF that turned every entry over Q
into a Fraction.  Helpers return values or raise and never check with
a bare assert, which python -O would strip outside test modules.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from hypothesis import strategies as st
from facetor import (
    Complement,
    SimplicialComplex,
    complex_from_complement,
    compress,
    full_subcomplex,
    link,
    tor_bigraded,
)
from facetor.bitsets import bit_positions, check_subset, full_mask, popcount, sort_key, vertices
from facetor.hochster import CochainComplex, check_all_sigma
from facetor.linalg import ZERO_GROUP, HomologyGroup, Matrix, _rref, _snf_state, _subtract, is_field
from facetor.moment_angle import PairSpec
from facetor.polynomials import padd, pmul
from facetor.taylor import TaylorComplex, taylor_complex
from facetor.tor import BigradedTor

# pentagon-with-two-triangles complex on 5 vertices
FIG1 = Complement.from_vertex_lists(5, [[1, 5], [2, 4], [1, 2, 3], [3, 4, 5]])

# three disjoint missing edges on 6 vertices: the octahedron sphere
EX513 = Complement.from_vertex_lists(6, [[1, 2], [3, 4], [5, 6]])

# minimal 6-vertex triangulation of the real projective plane
RP2_FACETS = [
    [1, 2, 3],
    [1, 2, 4],
    [1, 3, 5],
    [1, 4, 6],
    [1, 5, 6],
    [2, 3, 6],
    [2, 4, 5],
    [2, 5, 6],
    [3, 4, 5],
    [3, 4, 6],
]


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


def rp2_complex() -> SimplicialComplex:
    return SimplicialComplex.from_facets(6, RP2_FACETS)


def brute_force_faces(P: Complement) -> list[int]:
    """Faces of the complex of P straight from the definition: subsets
    containing no member."""
    out = []
    for tau in range(1 << P.m):
        if not any(mem & ~tau == 0 for mem in P.members):
            out.append(tau)
    return sorted(out, key=sort_key)


def equivalent(P: Complement, Q: Complement) -> bool:
    """Do P and Q generate the same square-free monomial ideal?

    Containment criterion: every member of each must contain some
    member of the other.
    """
    if P.m != Q.m:
        raise ValueError(f"ambient mismatch: {P.m} != {Q.m}")
    return all(any(q & ~p == 0 for q in Q.members) for p in P.members) and all(
        any(p & ~q == 0 for p in P.members) for q in Q.members
    )


def has_face(K: SimplicialComplex, tau: int) -> bool:
    """Does some facet of K hold tau?  Never, for the VOID complex."""
    check_subset(tau, K.m)
    return any(tau & ~f == 0 for f in K.facets)


def bit_loop_positions(mask: int) -> tuple[int, ...]:
    """0-based set-bit positions, ascending, one lowest bit at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def compare_blocks_per_sigma(P: Complement, coeffs, all_sigma: bool = False) -> list[tuple]:
    """hochster.compare_blocks with the oracle's faces enumerated anew
    for every sigma, from its own full subcomplex."""
    if all_sigma:
        check_all_sigma(P.m)
    tors = [tor_bigraded(P, coeff) for coeff in coeffs]
    K = complex_from_complement(P)
    closure = {0}
    for member in P.members:
        closure |= {c | member for c in closure}
    out = []
    for sigma in sorted(range(1 << P.m) if all_sigma else closure, key=sort_key):
        n = popcount(sigma)
        top = sum(member & ~sigma == 0 for member in P.members) if sigma in closure else 0
        oracle = None if K.is_void else CochainComplex(full_subcomplex(K, sigma))
        for q in range(max(n, top) + 1):
            pairs = []
            for tor in tors:
                right = ZERO_GROUP if oracle is None else oracle.cohomology(n - q - 1, tor.coeff)
                pairs.append((tor.group(q, sigma).signature, right.signature))
            out.append((q, sigma, tuple(pairs)))
    return out


def reduced_cohomology(K: SimplicialComplex, n: int, coeff) -> HomologyGroup:
    """Reduced H^n(K) over coeff, off the cochain complex on K's faces."""
    return CochainComplex(K).cohomology(n, coeff)


def brute_force_minimal_nonfaces(K: SimplicialComplex) -> list[int]:
    """Minimal non-faces by scanning all of 2^[m]."""
    nonfaces = [tau for tau in range(1 << K.m) if not has_face(K, tau)]
    minimal = []
    for tau in nonfaces:
        proper_subsets_are_faces = True
        for b in range(K.m):
            if tau >> b & 1 and not has_face(K, tau & ~(1 << b)):
                proper_subsets_are_faces = False
                break
        if proper_subsets_are_faces:
            minimal.append(tau)
    return sorted(minimal, key=sort_key)


def brute_force_star(faces: list[int], omega: int) -> list[int]:
    face_set = set(faces)
    return sorted((t for t in faces if (t | omega) in face_set), key=sort_key)


def brute_force_link(faces: list[int], omega: int) -> list[int]:
    face_set = set(faces)
    return sorted(
        (t for t in faces if (t | omega) in face_set and t & omega == 0), key=sort_key
    )


def total_subset(tc: TaylorComplex, u: int) -> int:
    """Union of the members of tc's complement that u selects."""
    total = 0
    for b in bit_positions(u):
        total |= tc.complement.members[b]
    return total


def generator_set(tc: TaylorComplex) -> set[int]:
    """Every generator of tc: the union of its blocks."""
    return {u for sigma in tc.supports() for q in tc.block_dims(sigma) for u in tc.generators(sigma, q)}


def reduced_differential(tc: TaylorComplex, u: int) -> dict:
    """d(u) from its definition: the i-th deletion, signed (-1)^i, kept
    when the total subset is unchanged; zero for the empty generator."""
    total = total_subset(tc, u)
    return {
        u & ~(1 << b): -1 if i % 2 else 1
        for i, b in enumerate(bit_positions(u), start=1)
        if total_subset(tc, u & ~(1 << b)) == total
    }


def boundary_column(tc: TaylorComplex, u: int) -> dict:
    """The column of generator u in its block's boundary matrix, read as
    a chain on the generators of the block below."""
    sigma, q = total_subset(tc, u), popcount(u)
    j = tc.generators(sigma, q).index(u)
    rows = tc.generators(sigma, q - 1)
    return {rows[i]: row[j] for i, row in enumerate(tc.boundary_matrix(sigma, q)._entries) if j in row}


def boundary_matrices(tc: TaylorComplex, sigma: int) -> list[Matrix]:
    """Matrices of d for q = 1 .. top degree of the sigma block."""
    top = max(tc.block_dims(sigma), default=0)
    return [tc.boundary_matrix(sigma, q) for q in range(1, top + 1)]


def full_signature(P: Complement, coeff) -> dict:
    """Nonzero block signatures of the full complex on the given
    presentation, the side the Lyubeznik build is checked against."""
    tc = taylor_complex(P)
    out = {}
    for sigma in tc.supports():
        for q in tc.block_dims(sigma):
            group = tc.block_homology(sigma, q, coeff)
            if not group.is_zero:
                out[(q, sigma)] = group.signature
    return out


def signature(tor: BigradedTor) -> dict:
    """(q, sigma) -> (rank, torsion) of every nonzero block of tor."""
    return {key: g.signature for key, g in tor.entries.items()}


def fraction_rref(rows: Sequence[dict], p: int) -> dict[int, dict]:
    """Reduced row echelon form over F_p, or over Q when p == 0, of the
    matrix with these sparse rows, which are left unchanged.

    The result maps each pivot column to the nonzeros of its row: 1 at
    the pivot, and no entry left of it or at another pivot column.
    Each row is reduced by the pivot rows found so far, scaled to 1 on
    its least column, and that column is cleared from the other pivot
    rows.  Entries are residues mod p or Fractions.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        r = {j: x % p for j, x in row.items() if x % p} if p else {j: Fraction(x) for j, x in row.items()}
        for c in [c for c in r if c in pivots]:
            _subtract(r, r[c], pivots[c], p)
        if not r:
            continue
        lead = min(r)
        inv = pow(r[lead], -1, p) if p else 1 / r[lead]
        r = {j: x * inv % p if p else x * inv for j, x in r.items()}
        for other in pivots.values():
            if lead in other:
                _subtract(other, other[lead], r, p)
        pivots[lead] = r
    return pivots


def field_rank(M: Matrix, coeff) -> int:
    return len(_rref(M._entries, coeff.p))


def smith_normal_form(M: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """(U, D, V) with U M V = D diagonal, d_1 | d_2 | ..., U and V
    unimodular: the tracked dense SNF the invariant-factor kernel is
    checked against.  Up to 40 x 40, U M V = D and the tracked inverses
    of U and V are checked too, raising AssertionError."""
    st, _ = _snf_state(M, track_u=True, track_v=True)
    U = Matrix(M.nrows, M.nrows, st.u)
    D = Matrix(M.nrows, M.ncols, st.d)
    V = Matrix(M.ncols, M.ncols, st.v)
    if M.nrows <= 40 and M.ncols <= 40:
        if (U @ M) @ V != D:
            raise AssertionError("U M V != D")
        if Matrix(M.nrows, M.nrows, st.uinv) @ U != Matrix.identity(M.nrows):
            raise AssertionError("Uinv U != I")
        if V @ Matrix(M.ncols, M.ncols, st.vinv) != Matrix.identity(M.ncols):
            raise AssertionError("V Vinv != I")
    return U, D, V


def full_differential(tc: TaylorComplex, t: dict) -> dict:
    """Differential of the exterior complex tensored with monomials: t
    maps (generator mask, exponent tuple) to a coefficient, and each
    deletion keeps its term, weighted by the monomial on the vertices
    the total subset loses."""
    m = tc.complement.m
    out: dict = {}
    for (u, exps), coeff in t.items():
        total = total_subset(tc, u)
        for i, b in enumerate(bit_positions(u), start=1):
            v = u & ~(1 << b)
            lost = total & ~total_subset(tc, v)
            new_exps = tuple(e + (1 if lost >> k & 1 else 0) for k, e in enumerate(exps))
            if len(new_exps) != m:
                raise ValueError("exponent vector does not match the ambient size")
            key = (v, new_exps)
            c = out.get(key, 0) + (-coeff if i % 2 else coeff)
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def s2s1_poincare(P: Complement, coeff) -> dict[int, int]:
    """(S^2, S^1) graded dimensions straight from the degree rule
    2|omega| + 2|tau| - q, as a second path to maz_cohomology with the
    sphere pair spec."""
    if not is_field(coeff):
        raise ValueError("graded dimensions need field coefficients")
    acc: dict[int, int] = {}
    for omega in complex_from_complement(P).faces():
        for (q, tau), group in tor_bigraded(compress(P, omega), coeff).entries.items():
            acc = padd(acc, {2 * popcount(omega) + 2 * popcount(tau) - q: group.rank})
    return dict(sorted(acc.items()))


def maz_by_links(P: Complement, pairs: PairSpec, coeff) -> dict[int, int]:
    """Moment-angle graded dimensions summed from link cohomology: each
    face omega of K and each tau outside it add rank H~^j(lk(omega)_tau)
    x^(j+1), times one reduced X class per vertex of omega and one
    reduced A class per vertex of tau.  H~ is read off the cochain
    complex of each full subcomplex of the link; no Taylor complex is
    built, and the faces come from the facets."""
    K = complex_from_complement(P)
    acc: dict[int, int] = {}
    for omega in K.faces():
        L = link(K, omega)
        x_factor = {0: 1}
        for v in vertices(omega):
            x_factor = pmul(x_factor, pairs.x_poly(v - 1))
        rest = full_mask(P.m) & ~omega
        tau = rest
        while True:
            term = x_factor
            for v in vertices(tau):
                term = pmul(term, pairs.a_poly(v - 1))
            cc = CochainComplex(full_subcomplex(L, tau))
            for j in range(-1, popcount(tau)):
                acc = padd(acc, pmul({j + 1: cc.cohomology(j, coeff).rank}, term))
            if tau == 0:
                break
            tau = (tau - 1) & rest
    return dict(sorted(acc.items()))


def nonface_blocks(P: Complement, coeff) -> dict:
    """Nonzero Tor blocks of P compressed by each non-face omega, keyed
    by omega; compression by a non-face must leave none."""
    K = complex_from_complement(P)
    out = {}
    for omega in range(1 << P.m):
        if not has_face(K, omega):
            entries = tor_bigraded(compress(P, omega), coeff).entries
            if entries:
                out[omega] = entries
    return out


def bareiss_determinant(rows: list[list[int]]) -> int:
    """Fraction-free determinant, used as an independent unimodularity check."""
    n = len(rows)
    if n == 0:
        return 1
    a = [row.copy() for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def random_matrix(rng, max_dim: int = 12, lo: int = -9, hi: int = 9):
    nr = rng.randint(0, max_dim)
    nc = rng.randint(0, max_dim)
    return Matrix(nr, nc, [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)])
