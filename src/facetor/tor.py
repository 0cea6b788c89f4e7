"""Bigraded Tor of the face ring, assembled from exterior-complex blocks.

Each block (q, sigma) is the homology of the sigma slice of the reduced
exterior complex; BigradedTor keeps only its signature (rank, torsion).
It reads the blocks off the Lyubeznik subcomplex of the minimalized
presentation; the signatures depend only on the ideal, so they equal
those of the full complex.  compare_blocks checks these blocks against
the oracle.  TorRing takes its block list and ranks from tor_bigraded
too, and is the one builder of the full complex on the given
presentation, for chains alone, because admissible sets are not closed
under the exterior product and its basis names follow member order.
TorRing alone builds representative cycles, and only for the blocks
tor_bigraded reads as nonzero.  The product of two classes is zero
unless their supports are disjoint, in which case it is represented by
the exterior product of representative cycles.  d applied to that chain,
with no boundary matrix, rejects a product that is not a cycle, in
every target block.  In a nonzero block the cycle is then reduced back
to coordinates in the block's basis by the block's coordinate forms,
read off its (position, value) pairs; in a zero block it has no
coordinates and no basis is built.  Over Z the product is offered only
in torsion-free blocks: a block with torsion is not zero, so a cycle
into it goes to reduce_cycle, which refuses it.  The product table
forms products for the support-disjoint pairs alone and writes every
other entry as a zero.  The ring laws are checked on those products:
graded commutativity on each disjoint pair, the unit law on the unit's
row, and associativity, read off the table by bilinearity, on every
triple of pairwise disjoint supports.
"""

from __future__ import annotations

from .bitsets import popcount, sort_key
from .complexes import Complement, join_parts
from .linalg import (
    CoefficientSpec,
    HomologyBasis,
    HomologyGroup,
    Value,
    ZERO_GROUP,
    homology_representatives,
    is_field,
    reduce_cycle,
)
from .polynomials import pmul
from .taylor import Chain, TaylorComplex, chain_product, taylor_complex

NOT_A_CYCLE = "not a cycle: no expression in representatives modulo boundaries"


class BigradedTor:
    """Map (q, sigma) -> homology group, over a fixed coefficient ring,
    read off the Lyubeznik subcomplex."""

    def __init__(self, complement: Complement, coeff: CoefficientSpec):
        self.complement = complement
        self.coeff = coeff
        taylor = self.taylor = taylor_complex(complement, True)
        # in the order the build stored the slices: every reader sorts or sums
        entries: dict[tuple[int, int], HomologyGroup] = {}
        for sigma, blocks in taylor.slices():
            for q in blocks:
                group = taylor.block_homology(sigma, q, coeff)
                if not group.is_zero:
                    entries[(q, sigma)] = group
        self.entries = entries

    def group(self, q: int, sigma: int) -> HomologyGroup:
        return self.entries.get((q, sigma), ZERO_GROUP)

    def blocks(self) -> list[tuple[tuple[int, int], HomologyGroup]]:
        """Nonzero blocks sorted by (q, cardinality of sigma, lex)."""
        return sorted(self.entries.items(), key=lambda kv: (kv[0][0], sort_key(kv[0][1])))

    def total_rank(self) -> int:
        return sum(g.rank for g in self.entries.values())


def tor_bigraded(P: Complement, coeff: CoefficientSpec) -> BigradedTor:
    return BigradedTor(P, coeff)


def zk_poincare(P: Complement, coeff: CoefficientSpec) -> dict[int, int]:
    """Poincare polynomial sum(rank * x^(2|sigma| - q)) as degree -> rank.

    K is the join of its parts' complexes (complexes.join_parts) and a
    simplex, and the Tor of a join is the tensor product of the parts'
    Tor, so the series is the product of the parts' series; the simplex
    contributes 1."""
    if not is_field(coeff):
        raise ValueError("Poincare polynomials need field coefficients")
    series: dict[int, int] = {0: 1}
    for part in join_parts(P):
        inside = Complement(P.m, tuple(mem for mem in P.members if mem & ~part == 0))
        part_series: dict[int, int] = {}
        for (q, sigma), group in tor_bigraded(inside, coeff).entries.items():
            deg = 2 * popcount(sigma) - q
            part_series[deg] = part_series.get(deg, 0) + group.rank
        series = pmul(series, part_series)
    return dict(sorted(series.items()))


def _chain_key(chain: Chain) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(chain.items()))


class TorClass(Value):
    """A homology class: block, coordinates in the block basis, and a
    representative cycle (kept as a chain for further products)."""

    __slots__ = ("q", "sigma", "coords", "chain")

    def __init__(self, q: int, sigma: int, coords: tuple, chain: tuple[tuple[int, int], ...]):
        _set_q(self, q)
        _set_sigma(self, sigma)
        _set_coords(self, coords)
        _set_chain(self, chain)

    def _values(self) -> tuple:
        return (self.q, self.sigma, self.coords, self.chain)

    def chain_dict(self) -> Chain:
        return dict(self.chain)


_set_q = TorClass.q.__set__
_set_sigma = TorClass.sigma.__set__
_set_coords = TorClass.coords.__set__
_set_chain = TorClass.chain.__set__


def _monomial_name(u: int) -> str:
    if u == 0:
        return "1"
    return "*".join(f"s{b + 1}" for b in range(u.bit_length()) if u >> b & 1)


class TorRing:
    """Basis of Tor classes with the support-disjoint product."""

    def __init__(self, complement: Complement, coeff: CoefficientSpec):
        self.tor = tor_bigraded(complement, coeff)
        self.coeff = coeff
        self.taylor: TaylorComplex = taylor_complex(complement)
        self._groups: dict[tuple[int, int], HomologyBasis] = {}
        # (q, sigma) -> the basis positions of that block, in basis order
        self._blocks: dict[tuple[int, int], range] = {}
        basis: list[tuple[str, TorClass]] = []
        self._name_index: dict[str, int] = {}
        for (q, sigma), block in self.tor.blocks():
            if block.rank == 0:  # a torsion block over Z
                continue
            group = self._group(q, sigma)
            gens = self.taylor.generators(sigma, q)
            start = len(basis)
            for idx, rep in enumerate(group.representatives):
                chain = {gens[i]: c for i, c in enumerate(rep) if c}
                coords = tuple(int(i == idx) for i in range(len(group.representatives)))
                name = self._name_for(chain, self._name_index)
                self._name_index[name] = len(basis)
                basis.append((name, TorClass(q, sigma, coords, _chain_key(chain))))
            self._blocks[(q, sigma)] = range(start, len(basis))
        self.basis = basis

    @staticmethod
    def _name_for(chain: Chain, used: dict[str, int]) -> str:
        # the chain lists its generators in block order
        lead = name = _monomial_name(next(iter(chain)))
        k = 1
        while name in used:
            k += 1
            name = f"{lead}#{k}"
        return name

    def _group(self, q: int, sigma: int) -> HomologyBasis:
        """Representatives and forms of a block that tor_bigraded reads
        as nonzero; product builds no basis for a zero block."""
        group = self._groups.get((q, sigma))
        if group is None:
            group = self._groups[(q, sigma)] = homology_representatives(
                self.taylor.boundary_matrix(sigma, q + 1),
                self.taylor.boundary_matrix(sigma, q),
                self.coeff,
            )
        return group

    def class_by_name(self, name: str) -> TorClass:
        return self.basis[self._name_index[name]][1]

    def product(self, a: TorClass, b: TorClass) -> TorClass:
        q, sigma = a.q + b.q, a.sigma | b.sigma
        chain = {} if a.sigma & b.sigma else chain_product(a.chain_dict(), b.chain_dict())
        block = self.tor.group(q, sigma)
        if not chain:
            return TorClass(q, sigma, (0,) * block.rank, ())
        p = self.coeff.p
        if any(c % p if p else c for c in self.taylor.chain_boundary(chain, sigma, q).values()):
            raise ValueError(NOT_A_CYCLE)
        coords = () if block.is_zero else reduce_cycle(
            self.taylor.chain_terms(chain, sigma, q), self._group(q, sigma), self.coeff
        )
        return TorClass(q, sigma, coords, _chain_key(chain))

    def multiplication_table(self) -> list[dict]:
        """All pairwise products of basis classes, in basis coordinates.

        Entries are reported for unordered pairs (i <= j).  product runs
        only on the ordered pairs whose supports are disjoint; every
        other entry is the zero of its block, written without a product.
        The ring laws are checked on the products, raising AssertionError
        on a failure: graded commutativity on every disjoint pair, the
        unit law on the unit's row, and associativity on the basis
        triples of pairwise disjoint supports, as every other triple
        gives zero on both sides.  Associativity is read off the table by
        bilinearity: with c the coordinates of i*j, (i*j)*k is the sum of
        c_l (l*k) over the basis classes l of i*j's block, and i*(j*k)
        likewise.
        """
        n = len(self.basis)
        classes = [tc for _, tc in self.basis]
        products = {
            (i, j): self.product(a, b)
            for i, a in enumerate(classes)
            for j, b in enumerate(classes)
            if not a.sigma & b.sigma
        }
        self._assert_laws(products)
        table = []
        for i, (left, a) in enumerate(self.basis):
            for j in range(i, n):
                right, b = self.basis[j]
                result = products.get((i, j))
                table.append(
                    {
                        "left": left,
                        "right": right,
                        "q": a.q + b.q,
                        "sigma": a.sigma | b.sigma,
                        "terms": [] if result is None else self._coords_terms(result),
                    }
                )
        return table

    def _coords_terms(self, cls: TorClass) -> list[tuple[str, object]]:
        names = [self.basis[i][0] for i in self._blocks.get((cls.q, cls.sigma), ())]
        return [(name, c) for name, c in zip(names, cls.coords, strict=True) if c]

    def _scaled(self, coords, sign: int) -> tuple:
        if sign == 1:
            return tuple(coords)
        if self.coeff.p:
            return tuple((-c) % self.coeff.p for c in coords)
        return tuple(-c for c in coords)

    def _table_sum(self, cls: TorClass, rows: list[TorClass], rank: int) -> list:
        """The sum of c_l * rows[l] over the coordinates c of cls, as a
        vector of length rank (mod p over F_p)."""
        total = [0] * rank
        for c, row in zip(cls.coords, rows, strict=True):
            if c:
                for t, x in enumerate(row.coords):
                    total[t] += c * x
        return [x % self.coeff.p for x in total] if self.coeff.p else total

    def _assert_laws(self, products: dict[tuple[int, int], TorClass]) -> None:
        n = len(self.basis)
        classes = [tc for _, tc in self.basis]
        for (i, j), ab in products.items():
            sign = -1 if (classes[i].q * classes[j].q) % 2 else 1
            if ab.coords != self._scaled(products[(j, i)].coords, sign):
                raise AssertionError(
                    f"graded commutativity fails at ({self.basis[i][0]}, {self.basis[j][0]})"
                )
        if self.basis and classes[0].q == 0 and classes[0].sigma == 0:
            for j in range(n):
                if products[(0, j)].coords != classes[j].coords:
                    raise AssertionError("unit law fails")
        positive = [i for i in range(n) if classes[i].q > 0]
        for i in positive:
            for j in positive:
                if classes[i].sigma & classes[j].sigma:
                    continue
                ij = products[(i, j)]
                for k in positive:
                    if ij.sigma & classes[k].sigma:
                        continue
                    # i, j and k are pairwise disjoint, so l * k and i * l are in the table
                    jk = products[(j, k)]
                    rank = self.tor.group(ij.q + classes[k].q, ij.sigma | classes[k].sigma).rank
                    left = [products[(l, k)] for l in self._blocks.get((ij.q, ij.sigma), ())]
                    right = [products[(i, l)] for l in self._blocks.get((jk.q, jk.sigma), ())]
                    if self._table_sum(ij, left, rank) != self._table_sum(jk, right, rank):
                        raise AssertionError(f"associativity fails at triple ({i}, {j}, {k})")
