import pytest
from hypothesis import given, strategies as st

from facetor import (
    SimplicialComplex,
    complex_from_complement,
    compress,
    star,
)
from support import (
    SupportFunction,
    char_fn,
    compress_fn,
    delta,
    mu,
    one_fn,
    zero_fn,
)

from helpers import FIG1


def functions(m=4):
    return st.integers(0, (1 << (1 << m)) - 1).map(lambda bits: SupportFunction(m, bits))


class TestBasisFunctions:
    def test_delta_of_empty_set(self):
        f = delta(3, 0)
        assert f.support() == [0]

    def test_mu_of_empty_set_is_one(self):
        assert mu(3, 0) == one_fn(3)

    def test_mu_support_example(self):
        f = mu(3, 0b011)
        assert f.support() == [0b011, 0b111]

    def test_pointwise_definitions(self):
        for sigma in range(8):
            d, u = delta(3, sigma), mu(3, sigma)
            for tau in range(8):
                assert d(tau) == (1 if tau == sigma else 0)
                assert u(tau) == (1 if sigma & ~tau == 0 else 0)


class TestAlgebra:
    @given(functions())
    def test_self_inverse(self, f):
        assert (f + f) == zero_fn(4)

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_mu_multiplicative(self, a, b):
        assert mu(4, a) * mu(4, b) == mu(4, a | b)

    @given(functions())
    def test_delta_reconstruction(self, f):
        acc = zero_fn(4)
        for sigma in f.support():
            acc = acc + delta(4, sigma)
        assert acc == f

    def test_mismatched_ambient(self):
        with pytest.raises(ValueError):
            delta(2, 0) + delta(3, 0)

    def test_ambient_cap(self):
        with pytest.raises(ValueError):
            zero_fn(21)


class TestCharacteristicFunction:
    def test_empty_complex(self):
        assert char_fn(SimplicialComplex.empty(3)).support() == [0]

    def test_full_simplex(self):
        assert char_fn(SimplicialComplex.full(3)) == one_fn(3)

    def test_void(self):
        assert char_fn(SimplicialComplex.void(3)) == zero_fn(3)

    def test_product_formula(self):
        prod = one_fn(5)
        for mem in FIG1.members:
            prod = prod * (one_fn(5) + mu(5, mem))
        assert prod == char_fn(complex_from_complement(FIG1))


class TestCompression:
    @given(st.integers(0, 15), st.integers(0, 15))
    def test_mu_compresses_by_difference(self, sigma, omega):
        assert compress_fn(mu(4, sigma), omega) == mu(4, sigma & ~omega)

    @given(functions())
    def test_identity_compression(self, f):
        assert compress_fn(f, 0) == f

    @given(functions(), functions(), st.integers(0, 15))
    def test_algebra_homomorphism(self, f, g, omega):
        assert compress_fn(f + g, omega) == compress_fn(f, omega) + compress_fn(g, omega)
        assert compress_fn(f * g, omega) == compress_fn(f, omega) * compress_fn(g, omega)

    def test_characteristic_commutes_with_compression(self):
        f = char_fn(complex_from_complement(FIG1))
        for omega in (0, 0b00001, 0b10010, 0b01110):
            lhs = compress_fn(f, omega)
            rhs = char_fn(complex_from_complement(compress(FIG1, omega)))
            assert lhs == rhs

    def test_star_via_compression(self):
        K = complex_from_complement(FIG1)
        f = char_fn(K)
        for omega in range(1 << 5):
            assert char_fn(star(K, omega)) == compress_fn(f, omega)
