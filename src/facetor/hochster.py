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
masks of the complement, the other coboundaries of actual faces.
compare_blocks builds one cochain complex, on the full subcomplex on
U, the union of the members (on [m] when every subset is swept), and
reads every sigma off it.  A face of a face inside sigma lies inside
sigma, so sigma's coboundaries are U's on the rows of the faces inside
sigma, found by growing faces from the empty one within sigma.  Their
invariant factors are read off those rows as they stand, and only U's
pairs are checked to compose to zero, each with one product, which
covers every restriction.  A coboundary matrix is built from its
nonzero entries alone, one face and coface pair at a time; a map out
of or into an empty degree is the zero matrix of its shape.
"""

from __future__ import annotations

from .bitsets import full_mask, popcount, sort_key, vertices
from .complexes import Complement, SimplicialComplex, complex_from_complement, full_subcomplex
from .linalg import (
    CapabilityError,
    CoefficientSpec,
    HomologyGroup,
    Matrix,
    ZERO_GROUP,
    check_chain_pair,
    factors_at_rows,
    group_from_factors,
    homology_at,
)
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
    transpose of the face/coface incidence.  cohomology reads the whole
    complex, or the full subcomplex on a vertex set sigma, off these
    matrices.
    """

    def __init__(self, K: SimplicialComplex):
        by_dim: dict[int, list[int]] = {}
        for f in K.faces():
            by_dim.setdefault(popcount(f) - 1, []).append(f)
        self.faces = by_dim  # lists arrive sorted (card, lex)
        self.top = max(by_dim) if by_dim else -2
        self._matrices: dict[int, Matrix] = {}
        # each face's position in faces[its dimension]
        self._position = {f: i for fs in by_dim.values() for i, f in enumerate(fs)}
        # the full subcomplex last read by cohomology
        self._sigma: int | None = None
        self._sigma_sizes: dict[int, int] = {}
        self._sigma_factors: dict[int, tuple[int, ...]] = {}

    def delta(self, n: int) -> Matrix:
        cached = self._matrices.get(n)
        if cached is not None:
            return cached
        src = self.faces.get(n, [])
        dst = self.faces.get(n + 1, [])
        M = Matrix(len(dst), len(src))
        for r, rho in enumerate(dst):
            for j, v in enumerate(vertices(rho)):
                c = self._position.get(rho & ~(1 << (v - 1)))
                if c is not None:
                    M[r, c] = -1 if j % 2 else 1
        self._matrices[n] = M
        return M

    def cohomology(self, n: int, coeff: CoefficientSpec, sigma: int | None = None) -> HomologyGroup:
        """H^n over coeff of the complex or, given sigma, of its full
        subcomplex on sigma, read off the complex's coboundary rows at
        the faces inside sigma.  The sizes and factors of the last sigma
        read are kept, so its degrees over several rings factor each map
        once."""
        if n < -1 or n > self.top:  # a void complex has top -2
            return ZERO_GROUP
        if sigma is None:
            return homology_at(self.delta(n - 1), self.delta(n), coeff)
        if sigma != self._sigma:
            self._restrict(sigma)
        factors = self._sigma_factors
        return group_from_factors(self._sigma_sizes.get(n, 0), factors.get(n, ()), factors.get(n - 1, ()), coeff)

    def _restrict(self, sigma: int) -> None:
        """Keep the face counts and the coboundaries' invariant factors of
        the full subcomplex on sigma, per degree.

        Its faces grow from the empty one, each by the vertices of sigma
        above its own; a set that is no face lies in none, so only faces
        are visited.  Every face of a face inside sigma lies inside
        sigma, so the full subcomplex's coboundary C^(n-1) -> C^n is
        delta(n - 1) on the rows of the n-faces inside sigma, and those
        rows have no entry off the (n-1)-faces inside sigma: its factors
        are read off the rows as they stand.  d o d = 0 on the complex's
        own pair implies it on every restriction, so that pair is checked
        instead, and its product is taken once however many sigmas read
        it."""
        position = self._position
        sizes: dict[int, int] = {}
        factors: dict[int, tuple[int, ...]] = {}
        level = [0] if 0 in position else []  # a void complex has no faces
        n = -1
        while level:
            d_in = self.delta(n - 1)
            check_chain_pair(d_in, self.delta(n))
            sizes[n] = len(level)
            factors[n - 1] = factors_at_rows(d_in, [position[f] for f in level])
            grown = []
            for f in level:
                above = sigma & -(1 << f.bit_length())
                while above:
                    low = above & -above
                    above ^= low
                    if (g := f | low) in position:
                        grown.append(g)
            level = grown
            n += 1
        # kept only once every pair has passed its check
        self._sigma, self._sigma_sizes, self._sigma_factors = sigma, sizes, factors

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
    oracle = CochainComplex(K if K.is_void else full_subcomplex(K, union))
    out = []
    for sigma in sorted(range(1 << P.m) if all_sigma else closure, key=sort_key):
        n = popcount(sigma)
        # the full slice's top generator selects every member inside sigma
        top = sum(member & ~sigma == 0 for member in P.members) if sigma in closure else 0
        for q in range(max(n, top) + 1):
            pairs = []
            for tor in tors:
                right = oracle.cohomology(n - q - 1, tor.coeff, sigma)
                pairs.append((tor.group(q, sigma).signature, right.signature))
            out.append((q, sigma, tuple(pairs)))
    return out
