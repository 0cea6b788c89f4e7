"""Shared fixtures-by-import: worked inputs and brute-force oracles.

The brute-force functions here deliberately avoid the library's clever
paths (transversal dualities, facet calculus) so tests compare two
independent routes to the same answer.  The verification-only paths
the package does not ship live here too: the monomial full differential,
the (S^2, S^1) series, and the accessors only tests read (field_rank,
total_subset, boundary_matrices, full_signature).  Helpers return
values or raise and never check with a bare assert, which python -O
would strip outside test modules.
"""

from __future__ import annotations

from facetor import Complement, SimplicialComplex, complex_from_complement, compress, tor_bigraded
from facetor.bitsets import bit_positions, popcount, sort_key
from facetor.linalg import Matrix, _modulus, _rref, is_field
from facetor.polynomials import padd
from facetor.taylor import TaylorComplex, taylor_complex

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


def brute_force_minimal_nonfaces(K: SimplicialComplex) -> list[int]:
    """Minimal non-faces by scanning all of 2^[m]."""
    nonfaces = [tau for tau in range(1 << K.m) if not K.has_face(tau)]
    minimal = []
    for tau in nonfaces:
        proper_subsets_are_faces = True
        for b in range(K.m):
            if tau >> b & 1 and not K.has_face(tau & ~(1 << b)):
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
    return tc.totals[u]


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


def field_rank(M: Matrix, coeff) -> int:
    _, pivots = _rref(M.rows, M.ncols, _modulus(coeff))
    return len(pivots)


def full_differential(tc: TaylorComplex, t: dict) -> dict:
    """Differential of the exterior complex tensored with monomials: t
    maps (generator mask, exponent tuple) to a coefficient, and each
    deletion keeps its term, weighted by the monomial on the vertices
    the total subset loses."""
    m = tc.complement.m
    out: dict = {}
    for (u, exps), coeff in t.items():
        total = tc.totals[u]
        for i, b in enumerate(bit_positions(u), start=1):
            v = u & ~(1 << b)
            lost = total & ~tc.totals[v]
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


def nonface_blocks(P: Complement, coeff) -> dict:
    """Nonzero Tor blocks of P compressed by each non-face omega, keyed
    by omega; compression by a non-face must leave none."""
    K = complex_from_complement(P)
    out = {}
    for omega in range(1 << P.m):
        if not K.has_face(omega):
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
