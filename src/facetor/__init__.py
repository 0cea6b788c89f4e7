"""facetor: exact bigraded Tor of Stanley-Reisner face rings.

Complements of simplicial complexes are presented as ordered sequences
of vertex subsets; the package computes the bigraded Tor of the
associated face ring through the exterior complex on the members,
equips it with its product, evaluates star/link and compression
calculus, derives graded cohomology of (generalized) moment-angle
complexes, and cross-checks everything against an independent reduced
simplicial cohomology oracle.
"""

from .bitsets import full_mask, mask_of, popcount, set_str, vertices
from .complexes import (
    Complement,
    SimplicialComplex,
    complement_from_complex,
    complex_from_complement,
    compress,
    full_subcomplex,
    link,
    minimalize,
    star,
)
from .hochster import CochainComplex, compare_blocks
from .linalg import (
    QQ,
    ZZ,
    CapabilityError,
    CoefficientSpec,
    HomologyGroup,
    Integers,
    Matrix,
    PrimeField,
    Rationals,
    homology_at,
    reduce_cycle,
)
from .moment_angle import PairSpec, link_cohomology, link_tor, maz_cohomology, star_tor
from .taylor import (
    TaylorComplex,
    chain_product,
    taylor_complex,
)
from .tor import BigradedTor, TorClass, TorRing, tor_bigraded, zk_poincare

__version__ = "0.1.0"

__all__ = [
    "BigradedTor",
    "CapabilityError",
    "CochainComplex",
    "CoefficientSpec",
    "Complement",
    "HomologyGroup",
    "Integers",
    "Matrix",
    "PairSpec",
    "PrimeField",
    "QQ",
    "Rationals",
    "SimplicialComplex",
    "TaylorComplex",
    "TorClass",
    "TorRing",
    "ZZ",
    "chain_product",
    "compare_blocks",
    "complement_from_complex",
    "complex_from_complement",
    "compress",
    "full_mask",
    "full_subcomplex",
    "homology_at",
    "link",
    "link_cohomology",
    "link_tor",
    "mask_of",
    "maz_cohomology",
    "minimalize",
    "popcount",
    "reduce_cycle",
    "set_str",
    "star",
    "star_tor",
    "taylor_complex",
    "tor_bigraded",
    "vertices",
    "zk_poincare",
]
