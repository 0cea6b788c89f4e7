"""Reduced simplicial cohomology and the full-subcomplex cross-check.

The cochain complex is augmented: the empty face sits in dimension -1,
so the degree -1 cohomology of the EMPTY complex {phi} is the ground
ring, and the VOID complex has zero cohomology everywhere.  Reduced
cohomology of a full subcomplex on sigma in degree |sigma| - q - 1 must
agree with the (q, sigma) block homology of the complement's exterior
complex; compare_blocks reads both sides' signatures (rank, torsion):
the Tor that tor_bigraded reports, off the Lyubeznik build (any free
resolution of the ideal gives the same blocks), against the oracle.
The two paths share no linear-algebra input: one reduces generator
masks of the complement, the other coboundaries of actual faces.  The
faces are enumerated once per complement: compare_blocks lists the
faces of the full subcomplex on the union of the members (on [m] when
every subset is swept), and each sigma's full subcomplex takes the
subsets of sigma from that list, which keeps their (card, lex) order.
A coboundary matrix is built from its nonzero entries alone, one face
and coface pair at a time, and kept with its invariant factors.
"""

from __future__ import annotations

from .bitsets import full_mask, popcount, sort_key, vertices
from .complexes import Complement, SimplicialComplex, complex_from_complement, full_subcomplex
from .linalg import CapabilityError, CoefficientSpec, HomologyGroup, Matrix, ZERO_GROUP, homology_at
from .tor import tor_bigraded

# The all_sigma sweep reads every subset of [m]; its cost grows about
# threefold per vertex and reaches seconds at m = 12.
ALL_SIGMA_MAX_M = 12


def check_all_sigma(m: int) -> None:
    """Raise CapabilityError when an all_sigma sweep on m vertices is
    beyond ALL_SIGMA_MAX_M."""
    if m > ALL_SIGMA_MAX_M:
        raise CapabilityError(
            f"sweeping all 2^{m} subsets exceeds the supported maximum m = {ALL_SIGMA_MAX_M}"
        )


class CochainComplex:
    """Augmented cochain complex of a simplicial complex.

    faces[n] lists the n-dimensional faces (n = -1 holds the empty
    face); delta(n) is the coboundary matrix C^n -> C^(n+1), the signed
    transpose of the face/coface incidence.
    """

    def __init__(self, K: SimplicialComplex, faces: list[int] | None = None):
        """faces, when given, replaces K.faces(): the faces of a full
        subcomplex of K, sorted (card, lex)."""
        by_dim: dict[int, list[int]] = {}
        for f in K.faces() if faces is None else faces:
            by_dim.setdefault(popcount(f) - 1, []).append(f)
        self.faces = by_dim  # lists arrive sorted (card, lex)
        self.top = max(by_dim) if by_dim else -2
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
        if n < -1 or n > self.top:  # a void complex has top -2
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
    """(q, sigma, pairs) for every sigma (the union-closure of the given
    members, 0 included, or with all_sigma every subset of [m]) and
    every q up to the top degree of the full complex's sigma slice, at
    least |sigma|; pairs holds, per ring of coeffs, the (q, sigma)
    signature of tor_bigraded and the oracle's in degree |sigma| - q - 1.
    Blocks come in (card, lex) order of sigma, then q.  With all_sigma,
    m above ALL_SIGMA_MAX_M raises CapabilityError before any block is
    built."""
    if all_sigma:
        check_all_sigma(P.m)
    tors = [tor_bigraded(P, coeff) for coeff in coeffs]
    K = complex_from_complement(P)
    closure = {0}
    for member in P.members:
        closure |= {c | member for c in closure}
    # every sigma lies inside U, the union of the members or [m]
    union = full_mask(P.m) if all_sigma else max(closure)
    faces = [] if K.is_void else full_subcomplex(K, union).faces()
    out = []
    for sigma in sorted(range(1 << P.m) if all_sigma else closure, key=sort_key):
        n = popcount(sigma)
        # the full slice's top generator selects every member inside sigma
        top = sum(member & ~sigma == 0 for member in P.members) if sigma in closure else 0
        oracle = None if K.is_void else CochainComplex(K, [f for f in faces if not f & ~sigma])
        for q in range(max(n, top) + 1):
            pairs = []
            for tor in tors:
                right = ZERO_GROUP if oracle is None else oracle.cohomology(n - q - 1, tor.coeff)
                pairs.append((tor.group(q, sigma).signature, right.signature))
            out.append((q, sigma, tuple(pairs)))
    return out
