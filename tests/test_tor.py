import gc
import hashlib
import random
import weakref
from collections import Counter

import pytest

from hypothesis import example, given, strategies as st

from facetor import (
    CochainComplex,
    Complement,
    SimplicialComplex,
    TorClass,
    TorRing,
    complement_from_complex,
    complex_from_complement,
    full_subcomplex,
    minimalize,
    tor_bigraded,
    zk_poincare,
)
from facetor.bitsets import full_mask, mask_of, popcount
from facetor.linalg import (
    QQ,
    ZZ,
    CapabilityError,
    HomologyBasis,
    HomologyGroup,
    PrimeField,
    homology_representatives,
)
from facetor.sampling import random_complement
from facetor.taylor import TaylorComplex, chain_product

from helpers import (
    EX513,
    FIG1,
    baskakov_product_ranks,
    f2_rank,
    fraction_rref,
    full_signature,
    generator_set,
    redundant_presentations,
    reduced_cohomology,
    reduced_differential,
    rp2_complex,
    signature,
)


class TestBigradedTable:
    def test_pentagon_complement_bidegrees(self):
        t = tor_bigraded(FIG1, QQ)
        assert t.total_rank() == 12
        expected = {
            (0, 0): 1,
            (1, mask_of([1, 5], 5)): 1,
            (1, mask_of([2, 4], 5)): 1,
            (1, mask_of([1, 2, 3], 5)): 1,
            (1, mask_of([3, 4, 5], 5)): 1,
            (2, mask_of([1, 2, 3, 4], 5)): 1,
            (2, mask_of([1, 2, 3, 5], 5)): 1,
            (2, mask_of([1, 2, 4, 5], 5)): 1,
            (2, mask_of([1, 3, 4, 5], 5)): 1,
            (2, mask_of([2, 3, 4, 5], 5)): 1,
            (3, full_mask(5)): 2,
        }
        assert {k: g.rank for k, g in t.entries.items()} == expected
        assert all(g.torsion == () for g in t.entries.values())

    def test_three_disjoint_edges_is_exterior(self):
        t = tor_bigraded(EX513, QQ)
        assert t.total_rank() == 8
        for (q, sigma), g in t.entries.items():
            assert g.rank == 1
            assert popcount(sigma) == 2 * q

    def test_unit_ideal_kills_everything(self):
        t = tor_bigraded(Complement(2, (0,)), QQ)
        assert t.entries == {}
        assert t.total_rank() == 0

    def test_unit_block_present_iff_nonvoid(self):
        rng = random.Random(21)
        for _ in range(40):
            P = random_complement(rng, 5, 4)
            t = tor_bigraded(P, QQ)
            if any(mem == 0 for mem in P.members):
                assert t.entries == {}
            else:
                assert t.group(0, 0).rank == 1

    def test_presentation_independence(self):
        # the full complex on the given presentation against the
        # Lyubeznik subcomplex of the minimal one
        rng = random.Random(31)
        for _ in range(25):
            P = random_complement(rng, 6, 5)
            for coeff in (QQ, ZZ):
                assert full_signature(P, coeff) == signature(tor_bigraded(minimalize(P), coeff))


def _oracle_signature(P: Complement, coeff) -> dict:
    """Nonzero Hochster blocks: the cohomology of every full subcomplex."""
    K = complex_from_complement(P)
    out = {}
    if K.is_void:
        return out
    for sigma in range(1 << P.m):
        oracle = CochainComplex(full_subcomplex(K, sigma))
        for q in range(popcount(sigma) + 1):
            group = oracle.cohomology(popcount(sigma) - q - 1, coeff)
            if not group.is_zero:
                out[(q, sigma)] = group.signature
    return out


@given(redundant_presentations())
@example(Complement(4, (0b0011, 0b0011, 0b0111, 0b1100)))
@example(Complement(3, (0b011, 0, 0b110)))
def test_lyubeznik_taylor_and_oracle_agree(P):
    reversed_P = Complement(P.m, P.members[::-1])
    for coeff in (QQ, PrimeField(2), ZZ):
        oracle = _oracle_signature(P, coeff)
        assert signature(tor_bigraded(P, coeff)) == oracle
        assert full_signature(P, coeff) == oracle
        assert signature(tor_bigraded(reversed_P, coeff)) == oracle


def test_lyubeznik_keeps_rp2_torsion():
    P = complement_from_complex(rp2_complex())
    lyubeznik = tor_bigraded(P, ZZ)
    assert lyubeznik.taylor.s == P.s == 10
    assert len(generator_set(lyubeznik.taylor)) < 1 << P.s
    assert lyubeznik.group(3, full_mask(6)).signature == (0, (2,))
    assert signature(lyubeznik) == full_signature(P, ZZ) == _oracle_signature(P, ZZ)


def test_ring_takes_blocks_from_the_lyubeznik_build(monkeypatch):
    # TorRing reads block ranks off tor_bigraded and the full complex
    # only for chains: no block homology of the full complex is taken
    P = complement_from_complex(SimplicialComplex.from_facets(6, [[i, i % 6 + 1] for i in range(1, 7)]))
    called = []
    block_homology = TaylorComplex.block_homology

    def recording(self, sigma, q, coeff):
        called.append(self)
        return block_homology(self, sigma, q, coeff)

    monkeypatch.setattr(TaylorComplex, "block_homology", recording)
    ring = TorRing(P, QQ)
    ring.multiplication_table()
    assert called
    assert all(tc is not ring.taylor for tc in called)


def test_ring_complex_dies_with_the_ring():
    # no cache holds the ring's full complex, so it is freed with the ring
    ring = TorRing(_cycle(6), QQ)
    ring.multiplication_table()
    full = weakref.ref(ring.taylor)
    del ring
    gc.collect()
    assert full() is None


@given(redundant_presentations())
@example(Complement(4, (0b0011, 0b0011, 0b0111, 0b1100)))
def test_ring_basis_matches_tor_bigraded(P):
    full = TaylorComplex(P)
    for coeff in (QQ, PrimeField(2)):
        tor = tor_bigraded(P, coeff)
        for (q, sigma), group in tor.entries.items():
            reps = homology_representatives(
                full.boundary_matrix(sigma, q + 1), full.boundary_matrix(sigma, q), coeff
            ).representatives
            assert len(reps) == group.rank
        basis = Counter((tc.q, tc.sigma) for _, tc in TorRing(P, coeff).basis)
        assert basis == {key: group.rank for key, group in tor.entries.items()}


class TestPoincare:
    def test_pentagon_series(self):
        assert zk_poincare(FIG1, QQ) == {0: 1, 3: 2, 5: 2, 6: 5, 7: 2}

    def test_octahedron_series(self):
        assert zk_poincare(EX513, QQ) == {0: 1, 3: 3, 6: 3, 9: 1}

    def test_no_members(self):
        assert zk_poincare(Complement(3, ()), QQ) == {0: 1}

    def test_needs_field(self):
        with pytest.raises(ValueError):
            zk_poincare(FIG1, ZZ)


class TestProducts:
    def test_pentagon_unique_nonzero_product(self):
        ring = TorRing(FIG1, QQ)
        s1 = ring.class_by_name("s1")
        s2 = ring.class_by_name("s2")
        s12 = ring.class_by_name("s1*s2")
        prod = ring.product(s1, s2)
        assert prod.coords in ((1,), (-1,))
        assert (prod.q, prod.sigma) == (s12.q, s12.sigma)
        table = ring.multiplication_table()
        nonzero = [
            e
            for e in table
            if e["terms"]
            and ring.class_by_name(e["left"]).q > 0
            and ring.class_by_name(e["right"]).q > 0
        ]
        assert len(nonzero) == 1
        assert {nonzero[0]["left"], nonzero[0]["right"]} == {"s1", "s2"}

    def test_delta_condition_zero(self):
        ring = TorRing(FIG1, QQ)
        prod = ring.product(ring.class_by_name("s1"), ring.class_by_name("s3"))
        assert not any(prod.coords)

    def test_unit_law(self):
        ring = TorRing(FIG1, QQ)
        unit = ring.basis[0][1]
        assert (unit.q, unit.sigma) == (0, 0)
        for name, tc in ring.basis:
            assert ring.product(unit, tc).coords == tc.coords

    def test_exterior_algebra_table(self):
        ring = TorRing(EX513, QQ)
        names = {name for name, _ in ring.basis}
        assert names == {
            "1",
            "s1",
            "s2",
            "s3",
            "s1*s2",
            "s1*s3",
            "s2*s3",
            "s1*s2*s3",
        }
        by_name = dict(ring.basis)
        gens = {"s1": 0b001, "s2": 0b010, "s3": 0b100}
        for a, ua in gens.items():
            for b, ub in gens.items():
                prod = ring.product(by_name[a], by_name[b])
                if ua == ub:
                    assert not any(prod.coords)
                else:
                    assert prod.coords in ((1,), (-1,))
                    assert prod.sigma == by_name[a].sigma | by_name[b].sigma

    def test_graded_commutativity_sign(self):
        ring = TorRing(EX513, QQ)
        a = ring.class_by_name("s1")
        b = ring.class_by_name("s2")
        ab = ring.product(a, b)
        ba = ring.product(b, a)
        assert ab.coords == tuple(-c for c in ba.coords)

    def test_degree_additivity(self):
        ring = TorRing(EX513, QQ)
        for name_a, a in ring.basis:
            for name_b, b in ring.basis:
                prod = ring.product(a, b)
                if any(prod.coords):
                    deg_a = 2 * popcount(a.sigma) - a.q
                    deg_b = 2 * popcount(b.sigma) - b.q
                    assert 2 * popcount(prod.sigma) - prod.q == deg_a + deg_b

    def test_all_members_pairwise_intersecting(self):
        # pairwise-intersecting members force every pair of positive
        # supports to intersect, so all positive-degree products vanish
        P = Complement.from_vertex_lists(4, [[1, 2], [1, 3], [1, 4], [2, 3, 4]])
        ring = TorRing(P, QQ)
        for e in ring.multiplication_table():
            if ring.class_by_name(e["left"]).q > 0 and ring.class_by_name(e["right"]).q > 0:
                assert not e["terms"]

    def test_table_asserts_laws_on_random_inputs(self):
        rng = random.Random(13)
        for _ in range(10):
            # random_complement(rng, 5, 4) with every empty member
            # redrawn as a single vertex, so no complex is void
            m, s = rng.randint(1, 5), rng.randint(0, 4)
            P = Complement(m, tuple(rng.getrandbits(m) or 1 << rng.randrange(m) for _ in range(s)))
            TorRing(P, QQ).multiplication_table()
            TorRing(P, PrimeField(3)).multiplication_table()

    def test_broken_commutativity_raises(self, monkeypatch):
        # the laws are contracts: they must fail loudly under python -O too
        product = TorRing.product

        def lopsided(self, a, b):
            result = product(self, a, b)
            if a.sigma == 0 and b.sigma != 0:
                return TorClass(result.q, result.sigma, tuple(2 * c for c in result.coords), result.chain)
            return result

        monkeypatch.setattr(TorRing, "product", lopsided)
        with pytest.raises(AssertionError, match="graded commutativity fails"):
            TorRing(FIG1, QQ).multiplication_table()

    def test_broken_associativity_raises(self, monkeypatch):
        # doubling every positive product with an s1*s2 factor keeps
        # commutativity and the unit law but breaks (s1*s2)*s3 = s1*(s2*s3)
        product = TorRing.product
        s12 = TorRing(EX513, QQ).class_by_name("s1*s2").sigma

        def lopsided(self, a, b):
            result = product(self, a, b)
            if a.q > 0 and b.q > 0 and s12 in (a.sigma, b.sigma):
                return TorClass(result.q, result.sigma, tuple(2 * c for c in result.coords), result.chain)
            return result

        monkeypatch.setattr(TorRing, "product", lopsided)
        with pytest.raises(AssertionError, match="associativity fails"):
            TorRing(EX513, QQ).multiplication_table()

    def test_associativity_checked_past_old_cap(self, monkeypatch):
        # the join of C5 with a square: 47 positive classes give 103,823
        # triples, far above the 20,000 that once skipped the check.
        # Doubling every positive product with a factor supported on x*y,
        # for disjoint x, y in the C5 part, breaks (x*y)*z = x*(y*z)
        P = Complement.from_vertex_lists(9, [[1, 3], [1, 4], [2, 4], [2, 5], [3, 5], [6, 8], [7, 9]])
        ring = TorRing(P, QQ)
        positive = [tc for _, tc in ring.basis if tc.q > 0]
        assert len(positive) ** 3 == 103823
        c5 = mask_of([1, 2, 3, 4, 5], 9)
        target = next(
            a.sigma | b.sigma
            for a in positive
            for b in positive
            if (a.sigma | b.sigma) & ~c5 == 0
            and not a.sigma & b.sigma
            and any(ring.product(a, b).coords)
        )
        product = TorRing.product

        def lopsided(self, a, b):
            result = product(self, a, b)
            if a.q > 0 and b.q > 0 and target in (a.sigma, b.sigma):
                return TorClass(result.q, result.sigma, tuple(2 * c for c in result.coords), result.chain)
            return result

        monkeypatch.setattr(TorRing, "product", lopsided)
        with pytest.raises(AssertionError, match="associativity fails"):
            TorRing(P, QQ).multiplication_table()

    def test_products_are_bilinear_on_chains(self):
        # a chain combining a block's representatives multiplies to the
        # same combination of basis products: the identity that lets the
        # associativity check read (i*j)*k and i*(j*k) off the table
        rng = random.Random(17)
        for _ in range(30):
            m, s = rng.randint(1, 5), rng.randint(0, 4)
            P = Complement(m, tuple(rng.getrandbits(m) or 1 << rng.randrange(m) for _ in range(s)))
            for coeff in (QQ, PrimeField(3), ZZ):
                if coeff is ZZ and any(g.torsion for g in tor_bigraded(P, ZZ).entries.values()):
                    continue
                p = coeff.p if isinstance(coeff, PrimeField) else 0
                ring = TorRing(P, coeff)
                positive = [tc for _, tc in ring.basis if tc.q > 0]
                for q, sigma in {(tc.q, tc.sigma) for tc in positive}:
                    block = [tc for _, tc in ring.basis if (tc.q, tc.sigma) == (q, sigma)]
                    reps = ring._group(q, sigma).representatives
                    gens = ring.taylor.generators(sigma, q)
                    cs = [rng.randint(-2, 2) % p if p else rng.randint(-2, 2) for _ in reps]
                    chain = {}
                    for i, u in enumerate(gens):
                        value = sum(c * rep[i] for c, rep in zip(cs, reps))
                        if p:
                            value %= p
                        if value:
                            chain[u] = value
                    x = TorClass(q, sigma, tuple(cs), tuple(sorted(chain.items())))
                    for b in positive:
                        sides = (
                            (ring.product(x, b).coords, [ring.product(tc, b).coords for tc in block]),
                            (ring.product(b, x).coords, [ring.product(b, tc).coords for tc in block]),
                        )
                        for got, rows in sides:
                            want = tuple(sum(c * row[t] for c, row in zip(cs, rows)) for t in range(len(rows[0])))
                            if p:
                                want = tuple(v % p for v in want)
                            assert got == want


def _cycle(n: int) -> Complement:
    return complement_from_complex(SimplicialComplex.from_facets(n, [[i, i % n + 1] for i in range(1, n + 1)]))


@pytest.mark.parametrize(
    "P, digest",
    [
        (FIG1, "22436fd62ba4d2a43f75cff78ba6b7d996b696355b915f5a3c5af6ac41cb7de1"),
        (EX513, "3762957153d82a305019ddc2f6941a75833f1e40aa50cf40fb76c17001aed733"),
        (_cycle(5), "51e5b24e5ec7bc60ff6c02c17c62942b4e93c7b2686ebcbe6c468fb9bf1bb38d"),
        (_cycle(6), "30b3ec665fbfd77b216a062bdfd2e308efe6af72324f6d9827797520ff3ed75a"),
    ],
    ids=["fig1", "ex513", "c5", "c6"],
)
def test_integer_table_pinned(P, digest):
    # recorded repr of the Z product table, coefficient types included:
    # the integer route's forms must keep reducing to the same ints
    table = repr(TorRing(P, ZZ).multiplication_table())
    assert hashlib.sha256(table.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "P, coeff, digest",
    [
        (FIG1, QQ, "b8c5d90b6eb3e633aac69c7262fb86637f39009e4adaf629ea5ae32e9ce40281"),
        (FIG1, PrimeField(3), "9b56fd4cc740e6b13a1ee0e8bf33650e3034cbdf9c908a0ee21e0789fe90bbd9"),
        (EX513, QQ, "eef8a6604fa5aab7296f93a51d0ac6b673e1ff20c2cf32e2e9b337d2ce331e50"),
        (EX513, PrimeField(3), "73ab01aff2844d73fe60ed64b049a56cd3b5d000a8624de72d95d248a40a351b"),
        (_cycle(5), QQ, "3079ea07c97fc8864871ffa9a34dc37f3a4297be5b6456b03da2520e01143dd1"),
        (_cycle(5), PrimeField(3), "f0734a887c14f10c1eeeeb7b79d2b160e6089710d3e9ae499fadb802211401ed"),
        (_cycle(6), QQ, "4d2f41bb07c7312c36c2e6d14e5182d11124c93b211831b550bbb19f77905f77"),
        (_cycle(6), PrimeField(3), "eabf9b736543855fa0a199453032a2291742c177cc541c3f998ceab52ce3e03b"),
    ],
    ids=["fig1-q", "fig1-f3", "ex513-q", "ex513-f3", "c5-q", "c5-f3", "c6-q", "c6-f3"],
)
def test_field_table_pinned(P, coeff, digest):
    # recorded repr of the field product tables, coefficient types
    # included: over Q every coordinate stays a Fraction however the
    # elimination represents its rows
    table = repr(TorRing(P, coeff).multiplication_table())
    assert hashlib.sha256(table.encode()).hexdigest() == digest


_rng = random.Random(2024)
_TABLE_INPUTS = [FIG1, EX513, _cycle(5), _cycle(6), complement_from_complex(rp2_complex())]
_TABLE_INPUTS += [random_complement(_rng, 6, 5) for _ in range(20)]


@pytest.mark.parametrize(
    "P", _TABLE_INPUTS, ids=["fig1", "ex513", "c5", "c6", "rp2", *(f"random{k}" for k in range(20))]
)
def test_table_entries_are_products(P):
    # the table forms products on support-disjoint pairs only; every
    # entry, those it writes as zero included, must read as product does
    torsion = any(g.torsion for g in tor_bigraded(P, ZZ).entries.values())
    for coeff in (QQ, PrimeField(2), PrimeField(3)) + (() if torsion else (ZZ,)):
        ring = TorRing(P, coeff)
        n = len(ring.basis)
        table = ring.multiplication_table()
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        assert len(table) == len(pairs)
        for (i, j), entry in zip(pairs, table):
            (left, a), (right, b) = ring.basis[i], ring.basis[j]
            prod = ring.product(a, b)
            want = {"left": left, "right": right, "q": prod.q, "sigma": prod.sigma, "terms": ring._coords_terms(prod)}
            assert repr(entry) == repr(want)


def test_table_forms_only_support_disjoint_products(monkeypatch):
    # every other pair is zero by the support condition, so product
    # runs once per ordered disjoint pair and on nothing else
    ring = TorRing(_cycle(6), QQ)
    index = {id(tc): k for k, (_, tc) in enumerate(ring.basis)}
    calls = Counter()
    product = TorRing.product

    def counting(self, a, b):
        calls[(index[id(a)], index[id(b)])] += 1
        return product(self, a, b)

    monkeypatch.setattr(TorRing, "product", counting)
    ring.multiplication_table()
    classes = [tc for _, tc in ring.basis]
    disjoint = {
        (i, j): 1 for i, a in enumerate(classes) for j, b in enumerate(classes) if not a.sigma & b.sigma
    }
    assert len(classes) ** 2 == 1296
    assert calls == disjoint
    assert len(disjoint) == 217


def _products(ring: TorRing):
    """(a, b, a * b) for the ordered support-disjoint basis pairs whose
    product chain is nonempty."""
    classes = [tc for _, tc in ring.basis]
    for a in classes:
        for b in classes:
            if not a.sigma & b.sigma and (c := ring.product(a, b)).chain:
                yield a, b, c


def test_ring_builds_representatives_for_its_blocks_alone(monkeypatch):
    # on C6 over Q the products reach 55 blocks, 21 of them zero; a
    # product into a zero block builds no basis there, so
    # homology_representatives runs once per block of the ring's basis
    calls = []
    real = homology_representatives
    monkeypatch.setattr(
        "facetor.tor.homology_representatives", lambda *args: calls.append(args) or real(*args)
    )
    ring = TorRing(_cycle(6), QQ)
    ring.multiplication_table()
    reached = {(c.q, c.sigma) for _, _, c in _products(ring)}
    assert (len(reached), sum(ring.tor.group(q, sigma).is_zero for q, sigma in reached)) == (55, 21)
    assert len(calls) == len(ring._blocks) == 34
    assert set(ring._groups) == set(ring._blocks)


@pytest.mark.parametrize("coeff", [QQ, PrimeField(2), PrimeField(3), ZZ], ids=str)
def test_product_rejects_a_non_cycle(monkeypatch, coeff):
    # a stray generator with a nonzero boundary makes a product chain a
    # non-cycle; d applied to the chain refuses it in every target block,
    # a zero one, where no basis is built, and a nonzero one alike
    ring = TorRing(_STRAY_P, coeff)
    cases = _stray_cases(ring)
    assert set(cases) == {True, False}
    for a, b, u in cases.values():
        _add_stray(monkeypatch, u)
        with pytest.raises(ValueError, match="not a cycle"):
            ring.product(a, b)


# The redundant member {1,2,5} gives a zero target block a generator with
# a nonzero boundary; the zero blocks that C5's and C6's products reach
# have none
_STRAY_P = Complement.from_vertex_lists(5, [[4, 5], [1, 5], [3, 4], [2, 3], [1, 2, 5], [1, 3]])


def _stray_cases(ring: TorRing) -> dict:
    """Whether the target block is zero -> (a, b, u) for the first product
    a * b whose target block holds a generator u with a nonzero boundary."""
    cases = {}
    for a, b, c in _products(ring):
        strays = [u for u in ring.taylor.generators(c.sigma, c.q) if reduced_differential(ring.taylor, u)]
        if strays:
            cases.setdefault(ring.tor.group(c.q, c.sigma).is_zero, (a, b, strays[0]))
    return cases


def _add_stray(monkeypatch, u: int) -> None:
    """Make every product chain carry u once more."""

    def with_stray(x, y):
        out = chain_product(x, y)
        out[u] = out.get(u, 0) + 1
        return out

    monkeypatch.setattr("facetor.tor.chain_product", with_stray)


def _with_torsion(monkeypatch, ring: TorRing, q: int, sigma: int) -> None:
    """Stand in a Z/2 for the block (q, sigma): tor_bigraded reads it, and
    every basis built carries the same torsion."""
    real = homology_representatives

    def with_torsion(*args):
        g = real(*args)
        return HomologyBasis(g.rank, (2,), g.representatives, g.coordinates)

    monkeypatch.setitem(ring.tor.entries, (q, sigma), HomologyGroup(0, (2,)))
    monkeypatch.setattr("facetor.tor.homology_representatives", with_torsion)


@pytest.mark.parametrize("coeff", [QQ, PrimeField(2), PrimeField(3), ZZ], ids=str)
def test_product_rejects_a_term_outside_its_block(monkeypatch, coeff):
    # the empty generator has no deletions, so as a stray term in degree
    # q > 0 it adds nothing to d of the chain and the product passes as a
    # cycle; placing its terms in the nonzero target block refuses it
    ring = TorRing(_STRAY_P, coeff)
    a, b, c = next(t for t in _products(ring) if t[2].q and not ring.tor.group(t[2].q, t[2].sigma).is_zero)
    _add_stray(monkeypatch, 0)
    with pytest.raises(ValueError, match="outside the requested block"):
        ring.product(a, b)


@pytest.mark.parametrize("coeff", [QQ, PrimeField(2)], ids=str)
def test_every_product_chain_meets_one_boundary_check(monkeypatch, coeff):
    # the one cycle check: d is applied once to each nonempty product
    # chain, in zero and nonzero target blocks alike, and never to an
    # empty one
    ring = TorRing(_cycle(6), coeff)
    checked = []
    real = TaylorComplex.chain_boundary

    def spy(tc, chain, sigma, q):
        checked.append((q, sigma))
        return real(tc, chain, sigma, q)

    monkeypatch.setattr(TaylorComplex, "chain_boundary", spy)
    targets = [(c.q, c.sigma) for _, _, c in _products(ring)]
    assert {ring.tor.group(q, sigma).is_zero for q, sigma in targets} == {True, False}
    assert checked == targets
    checked.clear()
    ring.multiplication_table()
    assert checked == targets


def test_integer_product_into_a_torsion_block_is_refused(monkeypatch):
    # a block with torsion is not zero, so a product into one is reduced
    # there and refused over Z.  No input small enough for the full build
    # over Z has such a product, so C5 stands in: tor_bigraded reads a
    # zero target as Z/2, and that block's basis carries the same torsion
    ring = TorRing(_cycle(5), ZZ)
    a, b, c = next(t for t in _products(ring) if ring.tor.group(t[2].q, t[2].sigma).is_zero)
    assert c.coords == ()
    _with_torsion(monkeypatch, ring, c.q, c.sigma)
    with pytest.raises(CapabilityError, match="torsion"):
        ring.product(a, b)


def test_integer_non_cycle_into_a_torsion_block_is_an_internal_fault(monkeypatch):
    # the cycle test comes before the torsion refusal, so a non-cycle
    # product into a block with torsion is a ValueError (exit 1, an
    # internal fault), not a CapabilityError (exit 3, out of range).
    # The stray generator's zero target block stands in for one with torsion
    ring = TorRing(_STRAY_P, ZZ)
    a, b, u = _stray_cases(ring)[True]
    c = ring.product(a, b)
    _with_torsion(monkeypatch, ring, c.q, c.sigma)
    with pytest.raises(CapabilityError, match="torsion"):
        ring.product(a, b)
    _add_stray(monkeypatch, u)
    with pytest.raises(ValueError, match="not a cycle"):
        ring.product(a, b)


def _product_ranks(ring: TorRing) -> dict:
    """Rank over Q of the coordinates of the products of positive-degree
    basis pairs, per target block (q, sigma) and per pair of factor
    blocks (q, sigma, q', sigma'): neither depends on the basis."""
    positive = [tc for _, tc in ring.basis if tc.q > 0]
    spans: dict = {}
    for a in positive:
        for b in positive:
            c = ring.product(a, b)
            row = {i: x for i, x in enumerate(c.coords) if x}
            for key in ((c.q, c.sigma), (a.q, a.sigma, b.q, b.sigma)):
                spans.setdefault(key, []).append(row)
    return {key: len(fraction_rref(rows, 0)) for key, rows in spans.items()}


def _small_members(rng: random.Random) -> Complement:
    """4 to 8 members of 2 or 3 vertices on 5 or 6 vertices.  Only
    classes with disjoint supports multiply to nonzero, and such members
    are common here: about a third of draws have a nonzero product,
    against a sixth of random_complement(rng, 6, 5).  Redundant members
    are common too, so blocks above degree 1 have nonzero maps out and
    their representatives come from a nontrivial Smith form."""
    m = rng.randint(5, 6)
    return Complement.from_vertex_lists(
        m, [rng.sample(range(1, m + 1), rng.randint(2, 3)) for _ in range(rng.randint(4, 8))]
    )


@given(st.integers(0, 2**32 - 1).map(lambda seed: _small_members(random.Random(seed))))
@example(FIG1)
@example(EX513)
@example(_cycle(5))
@example(_cycle(6))
def test_integer_product_ranks_match_rationals(P):
    # Z's representatives and forms come from the tracked Smith form, Q's
    # from reduced row echelon forms; on torsion-free inputs the two
    # rings have the same products up to a change of basis
    try:
        integer = _product_ranks(TorRing(P, ZZ))
    except CapabilityError:
        return  # a product lands in a torsion block
    assert integer == _product_ranks(TorRing(P, QQ))


def _table_product_ranks(ring: TorRing) -> dict:
    """Rank over F2 of the table's products of each pair of blocks with
    disjoint supports, keyed by the sorted pair of blocks (q, sigma)."""
    classes, bits = {}, {}
    for k, (name, tc) in enumerate(ring.basis):
        classes[name], bits[name] = tc, 1 << k
    spans: dict = {}
    for entry in ring.multiplication_table():
        a, b = classes[entry["left"]], classes[entry["right"]]
        if not a.sigma & b.sigma:
            key = tuple(sorted(((a.q, a.sigma), (b.q, b.sigma))))
            spans.setdefault(key, []).append(sum(bits[name] for name, c in entry["terms"] if c % 2))
    return {key: f2_rank(vectors) for key, vectors in spans.items()}


_BASKAKOV_RNG = random.Random(11)
_BASKAKOV_DRAWS = [
    P for P in (random_complement(_BASKAKOV_RNG, 6, 5) for _ in range(40)) if not complex_from_complement(P).is_void
]


@pytest.mark.parametrize(
    "P",
    [FIG1, EX513, _cycle(5), _cycle(6), _cycle(7), complement_from_complex(rp2_complex()), *_BASKAKOV_DRAWS],
    ids=["fig1", "ex513", "c5", "c6", "c7", "rp2", *(f"random{k}" for k in range(len(_BASKAKOV_DRAWS)))],
)
def test_f2_product_ranks_match_baskakov(P):
    # an outside reference for the products: Hochster's isomorphism
    # carries Baskakov's cochain product on full subcomplexes to the
    # Tor product, so the rank of the products of each pair of blocks
    # agrees; a zeroed product shows wherever it lowers its pair's rank
    ring_ranks = _table_product_ranks(TorRing(P, PrimeField(2)))
    assert ring_ranks == baskakov_product_ranks(complex_from_complement(P))


class TestFieldChoice:
    def test_f2_matches_q_when_torsion_free(self):
        a = signature(tor_bigraded(FIG1, QQ))
        b = signature(tor_bigraded(FIG1, PrimeField(2)))
        assert a == b


def test_total_rank_matches_oracle_census():
    # the total rank over Q equals the sum of full-subcomplex reduced
    # Betti numbers over every subset and degree
    from facetor import complex_from_complement, full_subcomplex

    rng = random.Random(71)
    for _ in range(15):
        P = random_complement(rng, 5, 4)
        K = complex_from_complement(P)
        if K.is_void:
            assert tor_bigraded(P, QQ).total_rank() == 0
            continue
        census = 0
        for sigma in range(1 << P.m):
            sub = full_subcomplex(K, sigma)
            for q in range(popcount(sigma) + 1):
                census += reduced_cohomology(sub, popcount(sigma) - q - 1, QQ).rank
        assert tor_bigraded(P, QQ).total_rank() == census
