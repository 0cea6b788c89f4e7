"""Graded cohomology of generalized moment-angle complexes, and the Tor
of a face's star and link.

The input is a complement plus, for each vertex, the reduced Poincare
polynomials of a pair (X_i, A_i).  The members split into the connected
parts of their overlap graph (complexes.join_parts), and K is the join
of the parts' complexes and a simplex on the vertices in no member.  A
polyhedral product over a join is the product of the polyhedral
products, so over a field the series is the product of the parts'
series, times the series 1 + X~_v of X_v for each vertex v in no
member.  A part's series is assembled face by face: each face omega of
the part contributes its star's Tor, the block homology of the
omega-compressed members inside the part (ambient m kept, nothing
relabelled), shifted by |tau| - q and tensored with one reduced X class
per vertex of omega and one reduced A class per vertex of tau.  The
terms are summed per tau, and each sum takes its A classes once.
Summation is pruned to faces because compressing by a non-face puts the
empty set into the complement and kills every block.  The faces, the
subsets of the part that hold no member, are walked straight off the
members by bitsets.grow, with no facet or face list.
The link's Tor is read off the minimal sets among the compressed
members and omega's vertices.  Only block ranks enter, so every star
and link reads its blocks through tor_bigraded, off the Lyubeznik
subcomplex of the minimalized complement; compression makes members
redundant (one contains another, or two coincide), and minimalizing
drops them.
"""

from __future__ import annotations

from .bitsets import bit_positions, full_mask, grow, popcount, vertices
from .complexes import (
    Complement,
    complex_from_complement,  # unused here; perfbench/tracer.py patches it by this name
    compress,
    join_parts,
    minimalize,
)
from .linalg import CoefficientSpec, HomologyGroup, Value, ZERO_GROUP, is_field
from .polynomials import Poly, padd, pmul
from .tor import BigradedTor, tor_bigraded

DegreeRank = tuple[int, int]


class PairSpec(Value):
    """Per-vertex reduced Poincare polynomials of (X_i, A_i), stored as
    tuples of (degree >= 1, rank >= 0) pairs with distinct degrees."""

    __slots__ = ("x_polys", "a_polys")

    def __init__(self, x_polys: tuple[tuple[DegreeRank, ...], ...], a_polys: tuple[tuple[DegreeRank, ...], ...]):
        """Checks each pair in order, vertex by vertex, X before A; a
        message names the pair as pairs[i].X[j] or pairs[i].A[j]."""
        if len(x_polys) != len(a_polys):
            raise ValueError("X and A lists must have the same length")
        for i, polys in enumerate(zip(x_polys, a_polys)):
            for key, poly in zip("XA", polys):
                for j, (deg, rank) in enumerate(poly):
                    if deg < 1:
                        raise ValueError(f"pairs[{i}].{key}[{j}]: degree {deg} must be >= 1")
                    if rank < 0:
                        raise ValueError(f"pairs[{i}].{key}[{j}]: rank {rank} must be >= 0")
                    if any(deg == d for d, _ in poly[:j]):
                        raise ValueError(f"pairs[{i}].{key}[{j}]: degree {deg} is repeated")
        _set_x_polys(self, x_polys)
        _set_a_polys(self, a_polys)

    def _values(self) -> tuple:
        return (self.x_polys, self.a_polys)

    @property
    def m(self) -> int:
        return len(self.x_polys)

    @classmethod
    def uniform(cls, m: int, x_poly, a_poly) -> "PairSpec":
        return cls((tuple(x_poly),) * m, (tuple(a_poly),) * m)

    @classmethod
    def spheres_s2_s1(cls, m: int) -> "PairSpec":
        """X_i a 2-sphere, A_i a circle."""
        return cls.uniform(m, ((2, 1),), ((1, 1),))

    @classmethod
    def disks_d2_s1(cls, m: int) -> "PairSpec":
        """X_i a disk (contractible), A_i a circle: the classical case."""
        return cls.uniform(m, (), ((1, 1),))

    def x_poly(self, i: int) -> Poly:
        return {deg: rank for deg, rank in self.x_polys[i] if rank}

    def a_poly(self, i: int) -> Poly:
        return {deg: rank for deg, rank in self.a_polys[i] if rank}


_set_x_polys = PairSpec.x_polys.__set__
_set_a_polys = PairSpec.a_polys.__set__


def maz_cohomology(P: Complement, pairs: PairSpec, coeff: CoefficientSpec) -> Poly:
    """Graded dimensions of the moment-angle cohomology, degree -> rank:
    the product of the join parts' series, times 1 + X~_v for each
    vertex v in no member."""
    if not is_field(coeff):
        raise ValueError("graded dimensions need field coefficients")
    if pairs.m != P.m:
        raise ValueError(f"pair spec covers {pairs.m} vertices, ambient is {P.m}")
    series: Poly = {0: 1}
    cone = full_mask(P.m)
    for part in join_parts(P):
        cone &= ~part
        series = pmul(series, _part_series(P, part, pairs, coeff))
    for v in vertices(cone):
        series = pmul(series, padd({0: 1}, pairs.x_poly(v - 1)))
    return dict(sorted(series.items()))


def _part_series(P: Complement, part: int, pairs: PairSpec, coeff: CoefficientSpec) -> Poly:
    """The series of one join part: each of its faces omega adds, per
    block (q, tau) of its star's Tor, rank x^(|tau| - q) X~_omega A~_tau.
    The terms are summed per tau, and each sum is multiplied by A~_tau
    once."""
    inside = Complement(P.m, tuple(mem for mem in P.members if mem & ~part == 0))
    by_tau: dict[int, Poly] = {}
    for omega in grow(part, lambda g: all(mem & ~g for mem in inside.members)):
        tor = star_tor(inside, omega, coeff)
        x_factor: Poly = {0: 1}
        for v in vertices(omega):
            x_factor = pmul(x_factor, pairs.x_poly(v - 1))
        if not x_factor:
            continue
        for (q, tau), group in tor.entries.items():
            if tau & omega:
                raise AssertionError("block support meets the compressed face")
            shift = popcount(tau) - q
            terms = by_tau.setdefault(tau, {})
            for deg, rank in x_factor.items():
                terms[deg + shift] = terms.get(deg + shift, 0) + group.rank * rank
    series: Poly = {}
    for tau, terms in by_tau.items():
        for v in vertices(tau):
            terms = pmul(terms, pairs.a_poly(v - 1))
        series = padd(series, terms)
    return series


def star_tor(P: Complement, omega: int, coeff: CoefficientSpec) -> BigradedTor:
    """Bigraded Tor of the star of omega, via the compressed complement."""
    return tor_bigraded(compress(P, omega), coeff)


def link_tor(P: Complement, omega: int, coeff: CoefficientSpec) -> BigradedTor:
    """Bigraded Tor of the link of omega.  The link's minimal non-faces
    are the minimal sets among the omega-compressed members and omega's
    vertices: just the empty set when omega is not a face."""
    singletons = tuple(1 << b for b in bit_positions(omega))
    return tor_bigraded(minimalize(Complement(P.m, compress(P, omega).members + singletons)), coeff)


def link_cohomology(P: Complement, omega: int, n: int, coeff: CoefficientSpec) -> HomologyGroup:
    """Reduced cohomology of the link of omega in degree n, read off the
    ([m] minus omega)-supported blocks of the link's Tor."""
    sigma = full_mask(P.m) & ~omega
    q = popcount(sigma) - n - 1
    if q < 0:
        return ZERO_GROUP
    return link_tor(P, omega, coeff).group(q, sigma)
