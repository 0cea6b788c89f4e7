"""Bigraded Tor of the face ring, assembled from exterior-complex blocks.

Each block (q, sigma) is the homology of the sigma slice of the reduced
exterior complex; BigradedTor keeps only its signature (rank, torsion).
It reads the blocks off the Lyubeznik subcomplex of the minimalized
presentation; the signatures depend only on the ideal, so they equal
those of the full complex.  TorRing takes its block list and ranks from
tor_bigraded too, and builds the full complex on the given presentation
for chains alone, because admissible sets are not closed under the
exterior product and its basis names follow member order.
TorRing alone builds representative cycles, for the nonzero blocks and
for every block a product lands in.  The product of two classes is zero
unless their supports are disjoint, in which case it is represented by
the exterior product of representative cycles, reduced back to
coordinates in the target block's basis by the block's linear forms,
which also reject a product that is not a cycle.  Over Z the product is
offered only in torsion-free blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import bit_positions, popcount, set_str, sort_key
from .complexes import Complement
from .linalg import (
    CoefficientSpec,
    HomologyBasis,
    HomologyGroup,
    PrimeField,
    ZERO_GROUP,
    homology_representatives,
    is_field,
    reduce_cycle,
)
from .taylor import Chain, TaylorComplex, chain_product, taylor_complex


class BigradedTor:
    """Map (q, sigma) -> homology group, over a fixed coefficient ring,
    read off the Lyubeznik subcomplex."""

    def __init__(self, complement: Complement, coeff: CoefficientSpec):
        self.complement = complement
        self.coeff = coeff
        self.taylor = taylor_complex(complement, True)
        entries: dict[tuple[int, int], HomologyGroup] = {}
        for sigma in self.taylor.supports():
            for q in self.taylor.block_dims(sigma):
                group = self.taylor.block_homology(sigma, q, coeff)
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

    def signature(self) -> dict[tuple[int, int], tuple]:
        return {key: g.signature for key, g in self.entries.items()}


def tor_bigraded(P: Complement, coeff: CoefficientSpec) -> BigradedTor:
    return BigradedTor(P, coeff)


def zk_poincare(P: Complement, coeff: CoefficientSpec) -> dict[int, int]:
    """Poincare polynomial sum(rank * x^(2|sigma| - q)) as degree -> rank."""
    if not is_field(coeff):
        raise ValueError("Poincare polynomials need field coefficients")
    series: dict[int, int] = {}
    for (q, sigma), group in tor_bigraded(P, coeff).entries.items():
        deg = 2 * popcount(sigma) - q
        series[deg] = series.get(deg, 0) + group.rank
    return dict(sorted(series.items()))


def _chain_key(chain: Chain) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(chain.items()))


@dataclass(frozen=True)
class TorClass:
    """A homology class: block, coordinates in the block basis, and a
    representative cycle (kept as a chain for further products)."""

    q: int
    sigma: int
    coords: tuple
    chain: tuple[tuple[int, int], ...]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def chain_dict(self) -> Chain:
        return dict(self.chain)


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
        basis: list[tuple[str, TorClass]] = []
        names_used: set[str] = set()
        for (q, sigma), block in self.tor.blocks():
            if block.rank == 0:  # a torsion block over Z
                continue
            group = self._group(q, sigma)
            gens = self.taylor.generators(sigma, q)
            for idx, rep in enumerate(group.representatives):
                chain = {gens[i]: c for i, c in enumerate(rep) if c}
                coords = tuple(
                    1 if i == idx else 0 for i in range(len(group.representatives))
                )
                name = self._name_for(chain, names_used)
                names_used.add(name)
                basis.append((name, TorClass(q, sigma, coords, _chain_key(chain))))
        self.basis = basis
        self._name_index = {name: i for i, (name, _) in enumerate(basis)}

    @staticmethod
    def _name_for(chain: Chain, used: set[str]) -> str:
        lead = min(chain, key=bit_positions)
        name = _monomial_name(lead)
        if name in used:
            k = 2
            while f"{name}#{k}" in used:
                k += 1
            name = f"{name}#{k}"
        return name

    def _group(self, q: int, sigma: int) -> HomologyBasis:
        """Representatives and forms of any block, zero blocks included,
        so that reduce_cycle can always reject a non-cycle."""
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

    def unit(self) -> TorClass:
        return self.basis[0][1] if self.basis else TorClass(0, 0, (), ())

    def product(self, a: TorClass, b: TorClass) -> TorClass:
        q, sigma = a.q + b.q, a.sigma | b.sigma
        if a.sigma & b.sigma:
            return self._zero_class(q, sigma)
        chain = chain_product(a.chain_dict(), b.chain_dict())
        if not chain:
            return self._zero_class(q, sigma)
        group = self._group(q, sigma)
        vec = self.taylor.chain_vector(chain, sigma, q)
        coords = reduce_cycle(vec, group, self.coeff)
        return TorClass(q, sigma, coords, _chain_key(chain))

    def class_from_coords(self, q: int, sigma: int, coords) -> TorClass:
        """Rebuild a class whose chain is the coordinate combination of
        the block representatives (used to test representative
        independence of products)."""
        group = self._group(q, sigma)
        gens = self.taylor.generators(sigma, q)
        chain: Chain = {}
        for c, rep in zip(coords, group.representatives):
            if c:
                for i, r in enumerate(rep):
                    if r:
                        u = gens[i]
                        val = chain.get(u, 0) + c * r
                        if val:
                            chain[u] = val
                        else:
                            chain.pop(u, None)
        return TorClass(q, sigma, tuple(coords), _chain_key(chain))

    def _zero_class(self, q: int, sigma: int) -> TorClass:
        rank = self.tor.group(q, sigma).rank
        return TorClass(q, sigma, (0,) * rank, ())

    def multiplication_table(self) -> list[dict]:
        """All pairwise products of basis classes, in basis coordinates.

        Entries are reported for unordered pairs (i <= j); graded
        commutativity, the unit law, and associativity on basis triples
        are checked along the way, raising AssertionError on a failure
        (associativity is skipped above a desk-scale cap on the number of
        triples).
        """
        n = len(self.basis)
        products: dict[tuple[int, int], TorClass] = {}
        for i in range(n):
            for j in range(n):
                products[(i, j)] = self.product(self.basis[i][1], self.basis[j][1])
        self._assert_laws(products)
        table = []
        for i in range(n):
            for j in range(i, n):
                result = products[(i, j)]
                table.append(
                    {
                        "left": self.basis[i][0],
                        "right": self.basis[j][0],
                        "q": result.q,
                        "sigma": result.sigma,
                        "terms": self._coords_terms(result),
                    }
                )
        return table

    def _coords_terms(self, cls: TorClass) -> list[tuple[str, object]]:
        names = [
            name
            for name, tc in self.basis
            if tc.q == cls.q and tc.sigma == cls.sigma
        ]
        if len(names) != len(cls.coords):
            names = [f"<{cls.q},{set_str(cls.sigma)}>[{i}]" for i in range(len(cls.coords))]
        return [(names[i], c) for i, c in enumerate(cls.coords) if c]

    def _scaled(self, coords, sign: int) -> tuple:
        if sign == 1:
            return tuple(coords)
        if isinstance(self.coeff, PrimeField):
            p = self.coeff.p
            return tuple((-c) % p for c in coords)
        return tuple(-c for c in coords)

    def _assert_laws(self, products: dict[tuple[int, int], TorClass]) -> None:
        n = len(self.basis)
        classes = [tc for _, tc in self.basis]
        for i in range(n):
            for j in range(n):
                ab = products[(i, j)]
                ba = products[(j, i)]
                sign = -1 if (classes[i].q * classes[j].q) % 2 else 1
                if ab.coords != self._scaled(ba.coords, sign):
                    raise AssertionError(
                        f"graded commutativity fails at ({self.basis[i][0]}, {self.basis[j][0]})"
                    )
        if self.basis and classes[0].q == 0 and classes[0].sigma == 0:
            for j in range(n):
                if products[(0, j)].coords != classes[j].coords:
                    raise AssertionError("unit law fails")
        positive = [i for i in range(n) if classes[i].q > 0]
        if len(positive) ** 3 > 20000:
            return
        for i in positive:
            for j in positive:
                for k in positive:
                    left = self.product(
                        self.class_from_coords(
                            products[(i, j)].q, products[(i, j)].sigma, products[(i, j)].coords
                        ),
                        classes[k],
                    )
                    right = self.product(
                        classes[i],
                        self.class_from_coords(
                            products[(j, k)].q, products[(j, k)].sigma, products[(j, k)].coords
                        ),
                    )
                    if left.coords != right.coords:
                        raise AssertionError(f"associativity fails at triple ({i}, {j}, {k})")

