"""Graded cohomology of generalized moment-angle complexes, and the Tor
of a face's star and link.

The input is a complement plus, for each vertex, the reduced Poincare
polynomials of a pair (X_i, A_i).  The answer is assembled face by
face: each face omega contributes its star's Tor, the block homology of
the omega-compressed complement, shifted by |tau| - q and tensored with
one reduced X class per vertex of omega and one reduced A class per
vertex of tau.  Summation is pruned to faces because compressing by a
non-face puts the empty set into the complement and kills every block.
The faces, the subsets of [m] that hold no member, are walked straight
off the members by bitsets.grow, with no facet or face list.
The link's Tor is read off the minimal sets among the compressed
members and omega's vertices.  Only block ranks enter, so every star
and link reads its blocks through tor_bigraded, off the Lyubeznik
subcomplex of the minimalized complement; compression makes members
redundant (one contains another, or two coincide), and minimalizing
drops them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import bit_positions, full_mask, grow, popcount, vertices
from .complexes import (
    Complement,
    complex_from_complement,  # unused here; perfbench/tracer.py patches it by this name
    compress,
    minimalize,
)
from .linalg import CoefficientSpec, HomologyGroup, ZERO_GROUP, is_field
from .polynomials import Poly, padd, pmul
from .tor import BigradedTor, tor_bigraded

DegreeRank = tuple[int, int]


@dataclass(frozen=True)
class PairSpec:
    """Per-vertex reduced Poincare polynomials of (X_i, A_i), stored as
    tuples of (degree >= 1, rank >= 0) pairs with distinct degrees."""

    x_polys: tuple[tuple[DegreeRank, ...], ...]
    a_polys: tuple[tuple[DegreeRank, ...], ...]

    def __post_init__(self) -> None:
        if len(self.x_polys) != len(self.a_polys):
            raise ValueError("X and A lists must have the same length")
        for side in (self.x_polys, self.a_polys):
            for poly in side:
                for k, (deg, rank) in enumerate(poly):
                    if deg < 1:
                        raise ValueError(f"reduced degree must be >= 1, got {deg}")
                    if rank < 0:
                        raise ValueError(f"rank must be >= 0, got {rank}")
                    if any(deg == d for d, _ in poly[:k]):
                        raise ValueError(f"degree {deg} is repeated")

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


def maz_cohomology(P: Complement, pairs: PairSpec, coeff: CoefficientSpec) -> Poly:
    """Graded dimensions of the moment-angle cohomology, degree -> rank."""
    if not is_field(coeff):
        raise ValueError("graded dimensions need field coefficients")
    if pairs.m != P.m:
        raise ValueError(f"pair spec covers {pairs.m} vertices, ambient is {P.m}")
    acc: Poly = {}
    for omega in grow(full_mask(P.m), lambda g: all(mem & ~g for mem in P.members)):
        tor = star_tor(P, omega, coeff)
        x_factor: Poly = {0: 1}
        for v in vertices(omega):
            x_factor = pmul(x_factor, pairs.x_poly(v - 1))
        if not x_factor:
            continue
        rest = full_mask(P.m) & ~omega
        for (q, tau), group in tor.entries.items():
            if tau & ~rest:
                raise AssertionError("block support meets the compressed face")
            contrib = pmul({popcount(tau) - q: group.rank}, x_factor)
            for v in vertices(tau):
                contrib = pmul(contrib, pairs.a_poly(v - 1))
            acc = padd(acc, contrib)
    return dict(sorted(acc.items()))


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
