"""Simplicial complements and simplicial complexes, and the calculus
between them.

A complement is an ordered sequence of subsets of [m]; it presents the
square-free monomial ideal generated by its members.  The associated
complex has as faces exactly the subsets containing no member.  Order
and multiplicity of members are kept because downstream sign
conventions depend on generator positions.

Two degenerate complexes are distinguished: the VOID complex with no
faces at all (which arises when the empty set is a member of the
complement) and the EMPTY complex whose single face is the empty face.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .bitsets import (
    bit_positions,
    check_ambient,
    check_subset,
    full_mask,
    mask_of,
    set_str,
    sort_key,
    subsets_of,
    vertices,
)
from .linalg import Value


class Complement(Value):
    """Ordered sequence of vertex subsets over ambient [m]."""

    __slots__ = ("m", "members")

    def __init__(self, m: int, members: Iterable[int]):
        check_ambient(m)
        members = tuple(members)
        for mem in members:
            check_subset(mem, m)
        _set_complement_m(self, m)
        _set_complement_members(self, members)

    def _values(self) -> tuple:
        return (self.m, self.members)

    @classmethod
    def from_vertex_lists(cls, m: int, lists: Iterable[Iterable[int]]) -> "Complement":
        check_ambient(m)
        return cls(m, tuple(mask_of(vs, m) for vs in lists))

    @property
    def s(self) -> int:
        return len(self.members)

    def member_vertex_lists(self) -> list[list[int]]:
        return [list(vertices(mem)) for mem in self.members]

    def __str__(self) -> str:
        return "{" + ", ".join(set_str(mem) for mem in self.members) + "}"


_set_complement_m = Complement.m.__set__
_set_complement_members = Complement.members.__set__


class SimplicialComplex(Value):
    """Simplicial complex over ambient [m], stored by its facets.

    facets == () encodes the VOID complex (no faces); facets == (0,)
    encodes the EMPTY complex whose only face is the empty face.
    Construction normalizes: duplicates and dominated facets are
    dropped and the rest sorted by (cardinality, lex).
    """

    __slots__ = ("m", "facets")

    def __init__(self, m: int, facets: Sequence[int]):
        check_ambient(m)
        for f in facets:
            check_subset(f, m)
        _set_complex_m(self, m)
        _set_complex_facets(self, _maximal_antichain(facets))

    def _values(self) -> tuple:
        return (self.m, self.facets)

    @classmethod
    def void(cls, m: int) -> "SimplicialComplex":
        return cls(m, ())

    @classmethod
    def empty(cls, m: int) -> "SimplicialComplex":
        return cls(m, (0,))

    @classmethod
    def full(cls, m: int) -> "SimplicialComplex":
        return cls(m, (full_mask(m),))

    @classmethod
    def from_facets(cls, m: int, facet_lists: Iterable[Iterable[int]]) -> "SimplicialComplex":
        return cls(m, tuple(mask_of(vs, m) for vs in facet_lists))

    @property
    def is_void(self) -> bool:
        return not self.facets

    def faces(self) -> list[int]:
        """All faces, sorted by (cardinality, lex).  Empty for VOID."""
        seen: set[int] = set()
        for f in self.facets:
            for sub in subsets_of(f):
                seen.add(sub)
        return sorted(seen, key=sort_key)

    def facet_vertex_lists(self) -> list[list[int]]:
        return [list(vertices(f)) for f in self.facets]


_set_complex_m = SimplicialComplex.m.__set__
_set_complex_facets = SimplicialComplex.facets.__set__


def _maximal_antichain(masks: Sequence[int]) -> tuple[int, ...]:
    distinct = sorted(set(masks), key=sort_key, reverse=True)
    kept: list[int] = []
    for c in distinct:
        if not any(c & ~k == 0 for k in kept):
            kept.append(c)
    return tuple(sorted(kept, key=sort_key))


def _minimal_antichain(masks: Iterable[int]) -> list[int]:
    distinct = sorted(set(masks), key=sort_key)
    kept: list[int] = []
    for c in distinct:
        if not any(k & ~c == 0 for k in kept):
            kept.append(c)
    return kept


def minimal_transversals(sets: Sequence[int], m: int) -> list[int]:
    """Minimal hitting sets of a family of subsets of [m].

    Incremental construction: a transversal of the first k+1 sets is a
    transversal of the first k that already meets the new set, or such
    a transversal extended by one vertex of the new set; prune to the
    minimal elements after each step.  No transversal exists when some
    set is empty.
    """
    trans: list[int] = [0]
    for s in sets:
        if s == 0:
            return []
        cand: set[int] = set()
        for t in trans:
            if t & s:
                cand.add(t)
            else:
                for b in bit_positions(s):
                    cand.add(t | (1 << b))
        trans = _minimal_antichain(cand)
    return trans


def complex_from_complement(P: Complement) -> SimplicialComplex:
    """The complex whose faces are the subsets containing no member of P.

    A facet is the complement of a minimal transversal of P's members.
    An empty member kills every subset, giving the VOID complex.
    """
    full = full_mask(P.m)
    trans = minimal_transversals(P.members, P.m)
    return SimplicialComplex(P.m, tuple(full & ~t for t in trans))


def complement_from_complex(K: SimplicialComplex) -> Complement:
    """Minimal non-faces of K, sorted by (cardinality, lex).

    A subset is a non-face iff it meets the complement of every facet,
    so the minimal non-faces are the minimal transversals of the facet
    complements.
    """
    if K.is_void:
        raise ValueError(
            "void complex has no missing-face presentation; use Complement(m, (0,))"
        )
    full = full_mask(K.m)
    covers = [full & ~f for f in K.facets]
    members = minimal_transversals(covers, K.m)
    return Complement(K.m, tuple(sorted(members, key=sort_key)))


def minimalize(P: Complement) -> Complement:
    """Drop duplicate members and members containing another member."""
    return Complement(P.m, tuple(_minimal_antichain(P.members)))


def join_parts(P: Complement) -> list[int]:
    """Vertex sets of the connected parts of P's members, two members
    being joined when they share a vertex, ordered by least vertex.

    K is the join of the parts' complexes and a simplex on the vertices
    in no member.  Parts stay disjoint, so one pass that merges every
    part a member meets finds them.  An empty member makes K void, and
    then nothing splits: one part holds every member.
    """
    if 0 in P.members:
        union = 0
        for mem in P.members:
            union |= mem
        return [union]
    parts: list[int] = []
    for mem in P.members:
        met = [part for part in parts if part & mem]
        for part in met:
            parts.remove(part)
            mem |= part
        parts.append(mem)
    return sorted(parts, key=lambda part: part & -part)


def compress(P: Complement, omega: int) -> Complement:
    """Remove omega from every member, preserving order and multiplicity."""
    check_subset(omega, P.m)
    return Complement(P.m, tuple(mem & ~omega for mem in P.members))


def full_subcomplex(K: SimplicialComplex, sigma: int) -> SimplicialComplex:
    """Faces of K contained in sigma.  Ambient m is kept, not relabeled."""
    if K.is_void:
        raise ValueError("full subcomplex of the void complex is undefined")
    check_subset(sigma, K.m)
    return SimplicialComplex(K.m, tuple(f & sigma for f in K.facets))


def star(K: SimplicialComplex, omega: int) -> SimplicialComplex:
    """Faces tau with tau | omega still a face.  VOID when omega is not a face."""
    if K.is_void:
        raise ValueError("star within the void complex is undefined")
    check_subset(omega, K.m)
    return SimplicialComplex(K.m, tuple(f for f in K.facets if omega & ~f == 0))


def link(K: SimplicialComplex, omega: int) -> SimplicialComplex:
    """Faces tau disjoint from omega with tau | omega a face."""
    if K.is_void:
        raise ValueError("link within the void complex is undefined")
    check_subset(omega, K.m)
    return SimplicialComplex(K.m, tuple(f & ~omega for f in K.facets if omega & ~f == 0))
