import pytest
from hypothesis import given, strategies as st

from facetor.bitsets import (
    bit_positions,
    full_mask,
    mask_of,
    popcount,
    set_str,
    sort_key,
    subsets_of,
    vertices,
)

from helpers import bit_loop_positions


def test_round_trip():
    assert mask_of([1, 3, 5], 5) == 0b10101
    assert vertices(0b10101) == (1, 3, 5)
    assert bit_positions(0b10101) == (0, 2, 4)


def test_out_of_range_vertex():
    with pytest.raises(ValueError):
        mask_of([0], 3)
    with pytest.raises(ValueError):
        mask_of([4], 3)


def test_set_str():
    assert set_str(0) == "{}"
    assert set_str(0b1011) == "{1,2,4}"


@given(st.integers(0, 255))
def test_subsets_count(mask):
    subs = list(subsets_of(mask))
    assert len(subs) == 1 << popcount(mask)
    assert len(set(subs)) == len(subs)
    assert all(s & ~mask == 0 for s in subs)


@given(st.integers(0, 255), st.integers(0, 255))
def test_sort_key_orders_by_cardinality_then_lex(a, b):
    if popcount(a) != popcount(b):
        assert (sort_key(a) < sort_key(b)) == (popcount(a) < popcount(b))
    else:
        assert (sort_key(a) < sort_key(b)) == (vertices(a) < vertices(b))


def test_full_mask():
    assert full_mask(0) == 0
    assert full_mask(3) == 0b111


def _check_against_bit_loop(mask):
    positions = bit_loop_positions(mask)
    assert bit_positions(mask) == positions
    assert vertices(mask) == tuple(b + 1 for b in positions)
    assert sort_key(mask) == (len(positions), tuple(b + 1 for b in positions))


def test_tables_match_bit_loop_below_2_16():
    for mask in range(1 << 16):
        _check_against_bit_loop(mask)


@given(st.integers(0, (1 << 24) - 1))
def test_tables_match_bit_loop_up_to_24_bits(mask):
    _check_against_bit_loop(mask)


@pytest.mark.parametrize(
    "mask", [256, 1 << 16, 1 << 23, 0x808080, *[(1 << 8 * k) - 1 for k in (1, 2, 3)]]
)
def test_tables_match_bit_loop_at_byte_edges(mask):
    _check_against_bit_loop(mask)


@given(st.lists(st.integers(0, (1 << 24) - 1), max_size=40))
def test_sort_key_sorts_as_the_bit_loop(masks):
    def loop_key(mask):
        return (popcount(mask), tuple(b + 1 for b in bit_loop_positions(mask)))

    assert sorted(masks, key=sort_key) == sorted(masks, key=loop_key)
