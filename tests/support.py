"""The Z/2 algebra of functions on the power set of [m].

A function is stored as a 2**m-bit table packed into one int: bit
index(tau) holds f(tau), where index(tau) is tau's subset mask.
Addition is XOR, multiplication is AND.  The tests use this algebra
for identity checks against the facet and Taylor machinery, so the
exhaustive tables are fine; m is capped at 20.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from facetor.bitsets import check_subset, sort_key, subsets_of
from facetor.complexes import SimplicialComplex

MAX_SUPPORT_AMBIENT = 20


def _check_m(m: int) -> int:
    if not 0 <= m <= MAX_SUPPORT_AMBIENT:
        raise ValueError(f"support tables need 0 <= m <= {MAX_SUPPORT_AMBIENT}, got {m}")
    return m


def _table_mask(m: int) -> int:
    return (1 << (1 << m)) - 1


@dataclass(frozen=True)
class SupportFunction:
    """Z/2 valued function on subsets of [m], packed as a 2**m-bit int."""

    m: int
    bits: int

    def __post_init__(self) -> None:
        _check_m(self.m)
        if not 0 <= self.bits <= _table_mask(self.m):
            raise ValueError("table does not fit 2**m bits")

    def __call__(self, tau: int) -> int:
        check_subset(tau, self.m)
        return self.bits >> tau & 1

    def __add__(self, other: "SupportFunction") -> "SupportFunction":
        self._check_same(other)
        return SupportFunction(self.m, self.bits ^ other.bits)

    def __mul__(self, other: "SupportFunction") -> "SupportFunction":
        self._check_same(other)
        return SupportFunction(self.m, self.bits & other.bits)

    def _check_same(self, other: "SupportFunction") -> None:
        if not isinstance(other, SupportFunction) or other.m != self.m:
            raise ValueError("mismatched ambient sizes")

    def support(self) -> list[int]:
        """Subsets where the function is 1, sorted (card, lex)."""
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return sorted(out, key=sort_key)

    @property
    def is_zero(self) -> bool:
        return self.bits == 0


def zero_fn(m: int) -> SupportFunction:
    return SupportFunction(m, 0)


def one_fn(m: int) -> SupportFunction:
    return SupportFunction(m, _table_mask(m))


def delta(m: int, sigma: int) -> SupportFunction:
    """Indicator of the single subset sigma."""
    check_subset(sigma, _check_m(m))
    return SupportFunction(m, 1 << sigma)


@lru_cache(maxsize=None)
def _mu_single(m: int, i: int) -> int:
    # bit tau is set iff vertex bit i is set in tau: a periodic pattern
    # of period 2**(i+1) with the high half of each period set
    period_high = (2 ** (2**i) - 1) << (2**i)
    repunit = _table_mask(m) // (2 ** (2 ** (i + 1)) - 1)
    return period_high * repunit


def mu(m: int, sigma: int) -> SupportFunction:
    """Indicator of the supersets of sigma."""
    check_subset(sigma, _check_m(m))
    bits = _table_mask(m)
    for i in range(m):
        if sigma >> i & 1:
            bits &= _mu_single(m, i)
    return SupportFunction(m, bits)


def char_fn(K: SimplicialComplex) -> SupportFunction:
    """Characteristic function of face membership; all zeros for VOID."""
    _check_m(K.m)
    bits = 0
    for f in K.facets:
        for sub in subsets_of(f):
            bits |= 1 << sub
    return SupportFunction(K.m, bits)


def compress_fn(f: SupportFunction, omega: int) -> SupportFunction:
    """Precompose with tau -> tau | omega."""
    check_subset(omega, f.m)
    bits = 0
    src = f.bits
    for tau in range(1 << f.m):
        if src >> (tau | omega) & 1:
            bits |= 1 << tau
    return SupportFunction(f.m, bits)
