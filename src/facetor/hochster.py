"""Reduced simplicial cohomology and the full-subcomplex cross-check.

The cochain complex is augmented: the empty face sits in dimension -1,
so the degree -1 cohomology of the EMPTY complex {phi} is the ground
ring, and the VOID complex has zero cohomology everywhere.  Reduced
cohomology of a full subcomplex on sigma in degree |sigma| - q - 1 must
agree with the (q, sigma) block homology of the complement's exterior
complex; baskakov_check compares the two sides as abstract groups.
The two paths share no linear-algebra input: one reduces generator
masks of the complement, the other coboundaries of actual faces.  A
coboundary matrix is built from its nonzero entries alone, one face and
coface pair at a time, and kept with its invariant factors.
"""

from __future__ import annotations

from .bitsets import popcount, vertices
from .complexes import Complement, SimplicialComplex, complex_from_complement, full_subcomplex
from .linalg import CoefficientSpec, HomologyGroup, Matrix, ZERO_GROUP, homology_at
from .taylor import taylor_complex


class CochainComplex:
    """Augmented cochain complex of a simplicial complex.

    faces[n] lists the n-dimensional faces (n = -1 holds the empty
    face); delta(n) is the coboundary matrix C^n -> C^(n+1), the signed
    transpose of the face/coface incidence.
    """

    def __init__(self, K: SimplicialComplex):
        self.void = K.is_void
        faces: dict[int, list[int]] = {}
        for f in K.faces():
            faces.setdefault(popcount(f) - 1, []).append(f)
        self.faces = faces  # lists arrive sorted (card, lex) from K.faces()
        self.top = max(faces) if faces else -2
        self._matrices: dict[int, Matrix] = {}

    def delta(self, n: int) -> Matrix:
        cached = self._matrices.get(n)
        if cached is not None:
            return cached
        src = self.faces.get(n, [])
        dst = self.faces.get(n + 1, [])
        index = {tau: i for i, tau in enumerate(src)}
        M = Matrix(len(dst), len(src))
        for r, rho in enumerate(dst):
            verts = vertices(rho)
            for j, v in enumerate(verts):
                tau = rho & ~(1 << (v - 1))
                c = index.get(tau)
                if c is not None:
                    M[r, c] = -1 if j % 2 else 1
        self._matrices[n] = M
        return M

    def cohomology(self, n: int, coeff: CoefficientSpec) -> HomologyGroup:
        if self.void or n < -1 or n > self.top:
            return ZERO_GROUP
        return homology_at(self.delta(n - 1), self.delta(n), coeff)

    def euler_characteristic(self) -> int:
        """Reduced Euler characteristic, alternating sum over n >= -1."""
        return sum((-1 if n % 2 else 1) * len(fs) for n, fs in self.faces.items())


def reduced_cohomology(K: SimplicialComplex, n: int, coeff: CoefficientSpec) -> HomologyGroup:
    return CochainComplex(K).cohomology(n, coeff)


def baskakov_check(P: Complement, sigma: int, q: int, coeff: CoefficientSpec) -> bool:
    """Do the (q, sigma) block homology and the full-subcomplex
    cohomology in degree |sigma| - q - 1 agree as abstract groups?"""
    left = taylor_complex(P).block_homology(sigma, q, coeff)
    K = complex_from_complement(P)
    if K.is_void:
        right = ZERO_GROUP
    else:
        right = reduced_cohomology(full_subcomplex(K, sigma), popcount(sigma) - q - 1, coeff)
    return left.signature == right.signature
