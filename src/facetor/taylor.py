"""The bigraded exterior complex on a complement's members.

A generator is an s-bit mask selecting members; its total subset is the
union of the selected members and its bidegree is (popcount, total).
The reduced differential deletes one selected member at a time, keeps
only the terms whose total subset is unchanged, and signs the i-th
deletion (1-based, members in increasing position order) with (-1)^i.

The full complex (the reduced Taylor resolution) has all 2^s subsets
as generators; TorRing takes its chains and the oracle comparison its
blocks from it, on the given presentation.  The Lyubeznik build
minimalizes the presentation first and keeps only the L-admissible
subsets: a set may take a new smallest member i when no earlier member
lies in the union of the set and i.  Admissible sets are closed under
taking subsets, and they span a subcomplex that is still a free
resolution over Z (Lyubeznik 1988), so every sigma slice has the
homology of the Taylor slice, torsion included, from far fewer
generators (368 against 16,384 for the 7-cycle).  tor_bigraded reads
its blocks, and with it every command but verify.

Blocks are indexed by (homological degree q, total subset sigma); the
reduced differential preserves sigma, so each sigma slice is a finite
chain complex of free modules with integer matrices.  A complex builds
each boundary matrix on first request, setting only its nonzero entries
(a slice is mostly zeros), and keeps it, together with the invariant
factors linalg computes for it, for as long as the complex lives;
taylor_complex keeps recently used complexes.
"""

from __future__ import annotations

from functools import lru_cache

from .bitsets import bit_positions, popcount, sort_key
from .complexes import Complement, minimalize
from .linalg import CapabilityError, CoefficientSpec, HomologyGroup, Matrix, ZERO_GROUP, homology_at

MAX_GENERATORS = 24

# chains are dicts generator-mask -> coefficient

Chain = dict


class TaylorComplex:
    """All bigraded data derived from one complement, on all subsets of
    its members or, with lyubeznik, on the admissible subsets of its
    minimal members."""

    def __init__(self, complement: Complement, lyubeznik: bool = False):
        if complement.s > MAX_GENERATORS:
            raise CapabilityError(
                f"{complement.s} members exceed the supported maximum {MAX_GENERATORS}"
            )
        if lyubeznik:
            complement = minimalize(complement)
        self.complement = complement
        self.s = complement.s
        self.totals = _generator_totals(complement.members, lyubeznik)
        by_support: dict[int, dict[int, list[int]]] = {}
        for u, sigma in self.totals.items():
            by_support.setdefault(sigma, {}).setdefault(popcount(u), []).append(u)
        for blocks in by_support.values():
            for gens in blocks.values():
                gens.sort(key=bit_positions)
        self._by_support = by_support
        self._matrices: dict[tuple[int, int], Matrix] = {}

    def supports(self) -> list[int]:
        return sorted(self._by_support, key=sort_key)

    def generators(self, sigma: int, q: int) -> list[int]:
        return self._by_support.get(sigma, {}).get(q, [])

    def block_dims(self, sigma: int) -> dict[int, int]:
        return {q: len(g) for q, g in sorted(self._by_support.get(sigma, {}).items())}

    def reduced_differential(self, u: int) -> Chain:
        """d(u) as a chain; zero for the empty generator."""
        total = self.totals[u]
        out: Chain = {}
        for i, b in enumerate(bit_positions(u), start=1):
            v = u & ~(1 << b)
            if self.totals[v] == total:
                out[v] = out.get(v, 0) + (-1 if i % 2 else 1)
        return {v: c for v, c in out.items() if c}

    def boundary_matrix(self, sigma: int, q: int) -> Matrix:
        """Matrix of d on the (q, sigma) block, mapping into (q - 1, sigma)."""
        key = (sigma, q)
        cached = self._matrices.get(key)
        if cached is not None:
            return cached
        src = self.generators(sigma, q)
        dst = self.generators(sigma, q - 1) if q >= 1 else []
        index = {u: i for i, u in enumerate(dst)}
        M = Matrix(len(dst), len(src))
        for j, u in enumerate(src):
            for v, c in self.reduced_differential(u).items():
                M[index[v], j] = c
        self._matrices[key] = M
        return M

    def block_homology(self, sigma: int, q: int, coeff: CoefficientSpec) -> HomologyGroup:
        if q < 0 or not self.generators(sigma, q):
            return ZERO_GROUP
        return homology_at(
            self.boundary_matrix(sigma, q + 1), self.boundary_matrix(sigma, q), coeff
        )

    def chain_vector(self, chain: Chain, sigma: int, q: int) -> list[int]:
        gens = self.generators(sigma, q)
        index = {u: i for i, u in enumerate(gens)}
        vec = [0] * len(gens)
        for u, c in chain.items():
            if popcount(u) != q or self.totals[u] != sigma:
                raise ValueError("chain term outside the requested block")
            vec[index[u]] = c
        return vec


def _generator_totals(members: tuple[int, ...], lyubeznik: bool) -> dict[int, int]:
    """Generator mask -> total subset.  Sets grow by a new smallest
    member, last member first, so each set is reached once; with
    lyubeznik only admissible sets grow."""
    totals = {0: 0}
    for i in reversed(range(len(members))):
        member, earlier = members[i], members[:i]
        for u, total in list(totals.items()):
            t = total | member
            if not (lyubeznik and any(mem & ~t == 0 for mem in earlier)):
                totals[u | 1 << i] = t
    return totals


@lru_cache(maxsize=256)
def taylor_complex(P: Complement, lyubeznik: bool = False) -> TaylorComplex:
    return TaylorComplex(P, lyubeznik)


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
