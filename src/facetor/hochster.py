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
masks of the complement, the other coboundaries of vertex sets read
straight off the members.

compare_blocks builds one cochain complex on U, the union of the
members (on [m] when every subset is swept), and reads every sigma off
it.  It is spanned by whichever family of subsets of U is smaller: the
faces of K, which hold no member, or its non-faces, which hold one.
Both grow from the members by bitsets.grow, and the first family to
be complete is built, so at most twice the smaller is visited.  The
faces inside sigma span the cochains of K_sigma.  The non-faces inside
sigma span the relative cochains C*(Delta_sigma, K_sigma), and since
the full simplex Delta_sigma on a nonempty sigma is acyclic, the long
exact sequence of the pair makes their H^(n+1) the reduced H^n(K_sigma)
over Z, torsion included (the duality behind Hochster's formula; see
Miller and Sturmfels, Combinatorial Commutative Algebra, Thm 1.34 and
Cor. 1.40).  sigma = 0 is read directly.  Faces are closed downward and
non-faces upward, so either way sigma's coboundaries are U's on the
rows of the sets inside sigma, and those rows meet no column outside
them.  They are walked one degree at a time, whose rows are factored
as they stand and dropped.  Only U's pairs are checked to compose to
zero, each with one product, which covers every restriction.  The
oracle is read where sigma has sets or the Tor side is nonzero, and a
block zero on both sides is counted but not listed.  A coboundary
matrix is built from its nonzero entries alone, one set and one-larger
set at a time; a map out of or into an empty degree is the zero matrix
of its shape.
"""

from __future__ import annotations

from collections.abc import Iterable

from .bitsets import full_mask, grow, popcount, sort_key, vertices
from .complexes import (
    Complement,
    SimplicialComplex,
    complex_from_complement,  # unused here; perfbench/tracer.py patches it by this name
    full_subcomplex,  # unused here; perfbench/tracer.py patches it by this name
)
from .linalg import (
    CapabilityError,
    CoefficientSpec,
    HomologyGroup,
    Matrix,
    check_chain_pair,
    factors_at_rows,
    group_from_factors,
    homology_at,  # unused here; perfbench/tracer.py patches it by this name
)
from .tor import tor_bigraded

# The all_sigma sweep reads every subset of [m], visiting up to 3^m sets
# of the smaller family in all.  In a fresh process on a 2-core machine,
# verify --all-sigma on {1, 2} in [m] takes 0.13, 0.21 and 0.42 s at
# m = 10, 11 and 12, and on random 12-vertex complements 0.14-0.26 s
# (medians of 7 runs).
ALL_SIGMA_MAX_M = 12


def check_all_sigma(m: int) -> None:
    """Raise CapabilityError when an all_sigma sweep on m vertices is
    beyond ALL_SIGMA_MAX_M."""
    if m > ALL_SIGMA_MAX_M:
        raise CapabilityError(
            f"sweeping all 2^{m} subsets exceeds the supported maximum m = {ALL_SIGMA_MAX_M}"
        )


class CochainComplex:
    """Augmented cochain complex of a simplicial complex, spanned by its
    faces or, relative to the full simplex, by its non-faces.

    CochainComplex(K) is built on K's faces: faces[n] lists the
    n-dimensional ones (n = -1 holds the empty face).  CochainComplex(P,
    U, relative) is built on a family of subsets of U ([m] by default)
    for the complex K of the complement P: the faces (relative False),
    the non-faces (True), or by default whichever is smaller.
    The non-faces span the relative complex C*(Delta_U, K_U), and
    faces[n] lists those of dimension n + 1, so that degree n reads
    H^(n+1)(Delta_U, K_U), which is reduced H^n(K_U) when U is nonempty.
    Either way delta(n) is the coboundary matrix C^n -> C^(n+1), the
    signed transpose of the incidence of the family's sets and their
    one-larger sets, and cohomology reads the full subcomplex on a
    vertex set sigma inside union (U, or [m] for K), union itself by
    default, off these matrices.
    """

    def __init__(self, K: SimplicialComplex | Complement, union: int | None = None, relative: bool | None = None):
        if isinstance(K, SimplicialComplex):
            sets, relative, union = K.faces(), False, full_mask(K.m)
        else:
            union = full_mask(K.m) if union is None else union
            sets, relative = _family_within(K.members, union, relative)
            sets.sort(key=sort_key)
        self.union = union
        self.relative = relative
        by_dim: dict[int, list[int]] = {}
        for f in sets:
            by_dim.setdefault(popcount(f) - 1 - relative, []).append(f)
        self.faces = by_dim  # lists arrive sorted (card, lex)
        self._matrices: dict[int, Matrix] = {}
        # each set's position in faces[its degree]
        self._position = {f: i for fs in by_dim.values() for i, f in enumerate(fs)}
        # the full subcomplex last restricted to: (sigma, sizes, factors)
        self._last: tuple[int | None, dict[int, int], dict[int, tuple[int, ...]]] = (None, {}, {})

    def delta(self, n: int) -> Matrix:
        cached = self._matrices.get(n)
        if cached is not None:
            return cached
        dst = self.faces.get(n + 1, [])
        rows: list[dict] = [{} for _ in dst]
        for row, rho in zip(rows, dst):
            for j, v in enumerate(vertices(rho)):
                c = self._position.get(rho & ~(1 << (v - 1)))
                if c is not None:
                    row[c] = -1 if j % 2 else 1
        M = self._matrices[n] = Matrix.sparse(len(dst), len(self.faces.get(n, ())), rows)
        return M

    def cohomology(self, n: int, coeff: CoefficientSpec, sigma: int | None = None) -> HomologyGroup:
        """Reduced H^n over coeff of the full subcomplex on sigma, which
        defaults to the complex's own vertex set (union), so that the
        whole complex is read the same way: off the complex's coboundary
        rows at the sets inside sigma.  The sizes and factors of the
        last sigma read are kept, so its degrees over several rings
        factor each map once."""
        if sigma is None:
            sigma = self.union
        last, sizes, factors = self._last
        if sigma != last:
            sizes, factors = self._restrict(sigma)
        return group_from_factors(sizes.get(n, 0), factors.get(n, ()), factors.get(n - 1, ()), coeff)

    def _restrict(self, sigma: int) -> tuple[dict[int, int], dict[int, tuple[int, ...]]]:
        """The set counts and the coboundaries' invariant factors of the
        full subcomplex on sigma, per degree, kept as the last record.

        The sets inside sigma, base ^ G with base 0 on faces and sigma on
        non-faces, are walked level by level: the G of one size, each
        reached from G minus its highest vertex, as bitsets.grow would.
        A level is one degree: its pair is checked and its rows factored
        once it is complete, then dropped.  Rows are factored in the
        complex's order, the cheapest measured: lex order of G is that
        order on faces and its reverse on non-faces.

        On faces, a set that is no face lies in none.  Every face of a
        face inside sigma lies inside sigma, so the full subcomplex's
        coboundary C^(n-1) -> C^n is delta(n - 1) on the rows of the
        n-faces inside sigma, with no entry off the (n-1)-faces inside
        sigma: its factors are read off the rows as they stand.  On
        non-faces, a set holding a non-face is one, so the rows at the
        non-faces inside sigma have no entry off them.  They span
        C*(Delta_sigma, K_sigma), whose degree n + 1, read as degree n,
        is reduced H^n(K_sigma) for nonempty sigma.

        d o d = 0 on the complex's own pair implies it on every
        restriction, so that pair is checked instead, and its product is
        taken once however many sigmas read it."""
        position, relative = self._position, self.relative
        base = sigma if relative else 0
        n, step = (popcount(sigma) - 2, -1) if relative else (-1, 1)
        level, rows = ([0], [position[base]]) if base in position and (sigma or not relative) else ([], [])
        sizes, factors = {}, {}
        while level:
            sizes[n] = len(level)
            d_in = self.delta(n - 1)
            check_chain_pair(d_in, self.delta(n))
            factors[n - 1] = factors_at_rows(d_in, reversed(rows) if relative else rows)
            grown, rows = [], []
            for g in level:
                above = sigma & -(1 << g.bit_length())
                while above:
                    low = above & -above
                    above ^= low
                    if (i := position.get(base ^ (g | low))) is not None:
                        grown.append(g | low)
                        rows.append(i)
            level, n = grown, n + step
        if relative and not sigma:
            # Delta_0 is not acyclic: K_0 is the empty complex, or void
            sizes = {} if 0 in position else {-1: 1}
        # kept only once every pair has passed its check
        self._last = (sigma, sizes, factors)
        return sizes, factors


def _family_within(members: Iterable[int], union: int, relative: bool | None) -> tuple[list[int], bool]:
    """The faces of the members' complex inside union (relative False),
    its non-faces there (True), or, for None, whichever family is done
    first when both grow one set at a time, faces on a tie, so at most
    twice the smaller is visited.  A face holds no member; a non-face,
    written union minus G, holds one that misses G."""
    inside = {mem for mem in members if mem & ~union == 0}
    families = (
        grow(union, lambda g: all(mem & ~g for mem in inside)),
        grow(union, lambda g: any(not mem & g for mem in inside)),
    )
    if relative is None:
        grown: tuple[list[int], list[int]] = ([], [])
        which = 0
        while (g := next(families[which], None)) is not None:
            grown[which].append(g)
            which ^= 1
        relative, found = bool(which), grown[which]
    else:
        found = list(families[relative])
    return ([union ^ g for g in found] if relative else found), relative


def compare_blocks(
    P: Complement, coeffs: tuple[CoefficientSpec, ...], all_sigma: bool = False
) -> tuple[int, list[tuple]]:
    """(checked, blocks).  checked counts the (q, sigma) compared: every
    sigma (the union-closure of the given members, 0 included, or with
    all_sigma every subset of [m]) and every q up to the top degree of
    the full complex's sigma slice, at least |sigma|.  blocks lists, in
    (card, lex) order of sigma, then q, the (q, sigma, pairs, ok) with a
    nonzero side on some ring: pairs holds, per ring of coeffs, the
    (q, sigma) signature of tor_bigraded and the oracle's in degree
    |sigma| - q - 1, read where sigma has sets or the Tor side is
    nonzero, and ok is whether every pair agrees.  With all_sigma, m
    above ALL_SIGMA_MAX_M raises CapabilityError first."""
    if all_sigma:
        check_all_sigma(P.m)
    tors = [tor_bigraded(P, coeff) for coeff in coeffs]
    nonzero = {key for tor in tors for key in tor.entries}
    zero = (((0, ()), (0, ())),) * len(tors)
    closure = {0}
    for member in P.members:
        closure |= {c | member for c in closure}
    # every sigma lies inside U, the union of the members or [m]
    union = full_mask(P.m) if all_sigma else max(closure)
    oracle = CochainComplex(P, union)
    checked, blocks = 0, []
    for sigma in sorted(range(1 << P.m) if all_sigma else closure, key=sort_key):
        n = popcount(sigma)
        # the full slice's top generator selects every member inside sigma
        top = sum(member & ~sigma == 0 for member in P.members) if sigma in closure else 0
        sizes, _ = oracle._restrict(sigma)
        qs = range(max(n, top) + 1)
        checked += len(qs)
        for q in qs:
            d = n - q - 1
            if d not in sizes and (q, sigma) not in nonzero:
                continue
            pairs = tuple(
                (tor.group(q, sigma).signature, oracle.cohomology(d, tor.coeff, sigma).signature) for tor in tors
            )
            if pairs != zero:  # a block zero on both sides is only counted
                blocks.append((q, sigma, pairs, all(left == right for left, right in pairs)))
    return checked, blocks
