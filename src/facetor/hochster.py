"""Reduced simplicial cohomology and the full-subcomplex cross-check.

The cochain complex is augmented: the empty face sits in dimension -1,
so the degree -1 cohomology of the EMPTY complex {phi} is the ground
ring, and the VOID complex has zero cohomology everywhere.  Reduced
cohomology of a full subcomplex on sigma in degree |sigma| - q - 1 must
agree with the (q, sigma) block homology of the complement's exterior
complex; compare_blocks reads both sides' signatures (rank, torsion),
the full complex on the given presentation against the oracle.
The two paths share no linear-algebra input: one reduces generator
masks of the complement, the other coboundaries of actual faces.  A
coboundary matrix is built from its nonzero entries alone, one face and
coface pair at a time, and kept with its invariant factors.
"""

from __future__ import annotations

from .bitsets import popcount, sort_key, vertices
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


def compare_blocks(
    P: Complement, coeffs: tuple[CoefficientSpec, ...], all_sigma: bool = False
) -> list[tuple]:
    """(q, sigma, pairs) for every sigma (the supports of the full
    complex, or with all_sigma every subset of [m]) and every q up to
    max(top degree, |sigma|); pairs holds, per ring of coeffs, the
    (q, sigma) block signature of the full complex and the oracle's in
    degree |sigma| - q - 1.  Blocks come in (card, lex) order of sigma,
    then q."""
    tc = taylor_complex(P)
    K = complex_from_complement(P)
    sigmas = sorted(range(1 << P.m), key=sort_key) if all_sigma else tc.supports()
    out = []
    for sigma in sigmas:
        n = popcount(sigma)
        oracle = None if K.is_void else CochainComplex(full_subcomplex(K, sigma))
        for q in range(max([n, *tc.block_dims(sigma)]) + 1):
            pairs = []
            for coeff in coeffs:
                left = tc.block_homology(sigma, q, coeff)
                right = ZERO_GROUP if oracle is None else oracle.cohomology(n - q - 1, coeff)
                pairs.append((left.signature, right.signature))
            out.append((q, sigma, tuple(pairs)))
    return out
