"""The immutable value classes: Complement, SimplicialComplex, the three
coefficient rings, TorClass, PairSpec and HomologyGroup compare, hash,
print, pickle and copy by their fields, refuse assignment and deletion,
and reject bad fields with the same messages."""

import copy
import pickle

import pytest

from facetor import (
    Complement,
    HomologyGroup,
    Integers,
    PairSpec,
    PrimeField,
    Rationals,
    SimplicialComplex,
    TorClass,
)

# (value, its fields in order, its repr)
VALUES = [
    (Complement(5, (3, 12)), (5, (3, 12)), "Complement(m=5, members=(3, 12))"),
    (SimplicialComplex(5, (3, 12)), (5, (3, 12)), "SimplicialComplex(m=5, facets=(3, 12))"),
    (Rationals(), (), "Rationals()"),
    (Integers(), (), "Integers()"),
    (PrimeField(3), (3,), "PrimeField(p=3)"),
    (
        TorClass(1, 3, (1, 0), ((1, 1), (2, -1))),
        (1, 3, (1, 0), ((1, 1), (2, -1))),
        "TorClass(q=1, sigma=3, coords=(1, 0), chain=((1, 1), (2, -1)))",
    ),
    (
        PairSpec((((2, 1),),), (((1, 1),),)),
        ((((2, 1),),), (((1, 1),),)),
        "PairSpec(x_polys=(((2, 1),),), a_polys=(((1, 1),),))",
    ),
    (HomologyGroup(1, (2,)), (1, (2,)), "HomologyGroup(1, (2,))"),
]
IDS = [type(value).__name__ for value, _, _ in VALUES]
FIELD_NAMES = ("m", "members", "facets", "p", "q", "sigma", "coords", "chain", "x_polys", "a_polys", "rank", "torsion")


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_equal_fields_compare_and_hash_equal(value, fields, text):
    twin = type(value)(*fields)
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(fields)
    assert repr(value) == repr(twin) == text


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_pickle_and_copy_round_trip(value, fields, text):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and repr(twin) == text


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(value, fields, text):
    for name in FIELD_NAMES:
        if not hasattr(value, name):
            continue
        with pytest.raises(AttributeError):
            setattr(value, name, 5)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


def test_equality_holds_within_one_class_only():
    assert Complement(5, (3, 12)) != SimplicialComplex(5, (3, 12))
    assert Rationals() != Integers() and Integers() != Rationals()
    assert TorClass(0, 0, (1,), ()) != (0, 0, (1,), ())
    assert PrimeField(2) != 2 and HomologyGroup(1) != (1, ())
    assert Complement(5, [3, 12]) == Complement(5, (3, 12))
    assert Complement(5, (3, 12)) != Complement(5, (12, 3))
    assert SimplicialComplex(5, (12, 3, 3, 1)) == SimplicialComplex(5, (3, 12))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Complement(-1, ()), "ambient size must be a nonnegative integer, got -1"),
        (lambda: Complement(25, ()), "ambient size 25 exceeds the supported maximum 24"),
        (lambda: Complement(2, (1, 4)), "mask 4 is not a subset of [2]"),
        (lambda: Complement(2, ("a",)), "mask 'a' is not a subset of [2]"),
        (lambda: SimplicialComplex(3, (8,)), "mask 8 is not a subset of [3]"),
        (lambda: PrimeField(1), "1 is not a prime"),
        (lambda: PrimeField("7"), "'7' is not a prime"),
        (lambda: PrimeField(561), "561 is not a prime"),
        (
            lambda: PrimeField(2**82),
            f"{2**82} is too large: primes are checked exactly only below 3317044064679887385961981",
        ),
        (lambda: PairSpec(((),), ()), "X and A lists must have the same length"),
        (lambda: PairSpec((((0, 1),),), ((),)), "pairs[0].X[0]: degree 0 must be >= 1"),
        (lambda: PairSpec(((), ()), ((), ((1, -1),))), "pairs[1].A[0]: rank -1 must be >= 0"),
        (lambda: PairSpec((((1, 1), (1, 2)),), ((),)), "pairs[0].X[1]: degree 1 is repeated"),
    ],
)
def test_bad_fields_keep_their_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
