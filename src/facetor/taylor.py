"""The bigraded exterior complex on a complement's members.

A generator is an s-bit mask selecting members; its total subset is the
union of the selected members and its bidegree is (popcount, total).
The reduced differential deletes one selected member at a time, keeps
only the terms whose total subset is unchanged, and signs the i-th
deletion (1-based, members in increasing position order) with (-1)^i.
A term keeps its total exactly when the smaller set is a generator of
the same block: generators are closed under taking subsets, and each is
filed under its own total.  So the totals only file generators into
blocks, and the complex drops them once it is built.

The full complex (the reduced Taylor resolution) has all 2^s subsets
as generators; TorRing alone builds it, for chains on the given
presentation, and caps the given members at MAX_GENERATORS.  The
Lyubeznik build minimalizes the presentation first, caps the minimal
members, and keeps only the L-admissible subsets: a set may take a new
smallest member i when no earlier member lies in the union of the set
and i.  Admissible sets are closed under taking subsets, and they span
a subcomplex that is still a free resolution over Z (Lyubeznik 1988),
so every sigma slice has the homology of the Taylor slice, torsion
included, from far fewer generators (368 against 16,384 for the
7-cycle).  tor_bigraded reads its blocks, and with it every rank-only
command (tor, zk, star, link, maz and verify), so this build is the one
place that minimalizes and caps for all of them.

Blocks are indexed by (homological degree q, total subset sigma); the
reduced differential preserves sigma, so each sigma slice is a finite
chain complex of free modules with integer matrices.  A block lists its
generators in ascending order of their bit positions (as tuples); the
enumeration reaches each block in exactly the reverse order, so the
complex reads it backwards and sorts nothing.  A complex builds each
boundary matrix on first request, from its nonzero entries alone (a
slice is mostly zeros); a map out of or into an empty block is the
zero matrix of its shape and is not assembled.  A block with no
generators at q - 1 or q + 1 has zero maps on both sides, so its group
is free on its generators, over Z, Q and F_p alike, and block_homology
reads it off the block's size without building either map; every other
block goes through linalg.homology_at.  It keeps each matrix,
together with the invariant factors linalg computes for it, for as long
as the complex lives; taylor_complex keeps the last Lyubeznik build,
which only verify reads again, and TorRing owns its full one.
The position index of a block, which places boundary terms and chain
terms alike, is built once, on first use, and kept the same way.
chain_terms reads a sparse chain's (position, value) pairs through it,
and chain_boundary applies d to a sparse chain by the rule the matrices
follow, through the index of the block below, and builds no matrix.
"""

from __future__ import annotations

from functools import lru_cache

from .bitsets import bit_positions, popcount
from .complexes import Complement, minimalize
from .linalg import CapabilityError, CoefficientSpec, HomologyGroup, Matrix, homology_at

MAX_GENERATORS = 24

# chains are dicts generator-mask -> coefficient

Chain = dict


class TaylorComplex:
    """All bigraded data derived from one complement, on all subsets of
    its members or, with lyubeznik, on the admissible subsets of its
    minimal members."""

    def __init__(self, complement: Complement, lyubeznik: bool = False):
        if lyubeznik:
            complement = minimalize(complement)
        if complement.s > MAX_GENERATORS:
            raise CapabilityError(
                f"{complement.s} members exceed the supported maximum {MAX_GENERATORS}"
            )
        self.complement = complement
        self.s = complement.s
        by_support: dict[int, dict[int, list[int]]] = {}
        for u, sigma in reversed(_generator_totals(complement.members, lyubeznik).items()):
            by_support.setdefault(sigma, {}).setdefault(popcount(u), []).append(u)
        self._by_support = by_support
        self._matrices: dict[tuple[int, int], Matrix] = {}
        self._indexes: dict[tuple[int, int], dict[int, int]] = {}

    def slices(self):
        """(sigma, {q: generators of the (q, sigma) block}) per total
        subset with generators, as the build stored them, in no set
        order; the caller must not change them."""
        return self._by_support.items()

    def generators(self, sigma: int, q: int) -> list[int]:
        return self._by_support.get(sigma, {}).get(q, [])

    def _index(self, sigma: int, q: int) -> dict[int, int]:
        """Generator -> position in the (q, sigma) block."""
        key = (sigma, q)
        index = self._indexes.get(key)
        if index is None:
            index = self._indexes[key] = {u: i for i, u in enumerate(self.generators(sigma, q))}
        return index

    def boundary_matrix(self, sigma: int, q: int) -> Matrix:
        """Matrix of d on the (q, sigma) block, mapping into (q - 1, sigma);
        the zero matrix of its shape when either block is empty."""
        key = (sigma, q)
        cached = self._matrices.get(key)
        if cached is not None:
            return cached
        blocks = self._by_support.get(sigma, {})
        src = blocks.get(q, [])
        nrows = len(blocks.get(q - 1, ()))
        if not (nrows and src):
            M = Matrix(nrows, len(src))
        else:
            index = self._index(sigma, q - 1)
            rows: list[dict] = [{} for _ in range(nrows)]
            for j, u in enumerate(src):
                for i, b in enumerate(bit_positions(u), start=1):
                    r = index.get(u & ~(1 << b))
                    if r is not None:
                        rows[r][j] = -1 if i % 2 else 1
            M = Matrix.sparse(nrows, len(src), rows)
        self._matrices[key] = M
        return M

    def block_homology(self, sigma: int, q: int, coeff: CoefficientSpec) -> HomologyGroup:
        """Homology at the (q, sigma) block.  With both neighbouring blocks
        empty, d into and out of it is zero, so the group is free on the
        block's generators over every ring and no map is built."""
        blocks = self._by_support.get(sigma, {})
        if q - 1 not in blocks and q + 1 not in blocks:
            return HomologyGroup(len(blocks.get(q, ())))
        return homology_at(
            self.boundary_matrix(sigma, q + 1), self.boundary_matrix(sigma, q), coeff
        )

    def chain_terms(self, chain: Chain, sigma: int, q: int) -> list[tuple[int, int]]:
        """The (position, value) pairs of a chain in the (q, sigma) block,
        placed by the block's index; a term outside the block raises
        ValueError."""
        index = self._index(sigma, q)
        try:
            return [(index[u], c) for u, c in chain.items()]
        except KeyError:
            raise ValueError("chain term outside the requested block") from None

    def chain_boundary(self, chain: Chain, sigma: int, q: int) -> Chain:
        """d of a chain in the (q, sigma) block, by boundary_matrix's
        rule: the i-th deletion is signed (-1)^i and kept when it lies in
        the (q - 1, sigma) block.  Terms that cancel are dropped, and d
        into an empty block is zero, placed by no index."""
        if not self.generators(sigma, q - 1):
            return {}
        index = self._index(sigma, q - 1)
        out: Chain = {}
        for u, c in chain.items():
            for i, b in enumerate(bit_positions(u), start=1):
                v = u & ~(1 << b)
                if v in index:
                    x = out.get(v, 0) + (-c if i % 2 else c)
                    if x:
                        out[v] = x
                    else:
                        del out[v]
        return out


def _generator_totals(members: tuple[int, ...], lyubeznik: bool) -> dict[int, int]:
    """Generator mask -> total subset.  Sets grow by a new smallest
    member, last member first, so each set is reached once; with
    lyubeznik only admissible sets grow."""
    totals = {0: 0}
    for i in reversed(range(len(members))):
        member, earlier = members[i], members[:i]
        for u in list(totals):
            t = totals[u] | member
            if not (lyubeznik and any(mem & ~t == 0 for mem in earlier)):
                totals[u | 1 << i] = t
    return totals


# one: only verify reads a build again (its Q, F2 and Z reads of one
# presentation: 1 miss, 2 hits); tor, ring and maz read each build once
@lru_cache(maxsize=1)
def taylor_complex(P: Complement) -> TaylorComplex:
    """The Lyubeznik build of P, the one tor_bigraded reads."""
    return TaylorComplex(P, True)


def generator_sign(u: int, v: int) -> int:
    """Koszul sign of merging two ordered generator monomials; 0 on overlap."""
    if u & v:
        return 0
    inversions = 0
    for b in bit_positions(v):
        inversions += popcount(u >> (b + 1))
    return -1 if inversions % 2 else 1


def chain_product(a: Chain, b: Chain) -> Chain:
    """Bilinear extension of the signed exterior product of generators."""
    out: Chain = {}
    for u, cu in a.items():
        for v, cv in b.items():
            sign = generator_sign(u, v)
            if sign:
                w = u | v
                c = out.get(w, 0) + sign * cu * cv
                if c:
                    out[w] = c
                else:
                    out.pop(w, None)
    return out
