"""Bitmask encoding of vertex subsets.

Vertices are 1-indexed; vertex i occupies bit (i - 1).  A subset of
[m] = {1, ..., m} is a plain int in [0, 2**m), so subset algebra is
&, |, ^ on machine words.  Ambient sizes are capped at MAX_AMBIENT = 24
so every subset fits comfortably in one word.

bit_positions and vertices are table lookups: two 256-entry tables
hold the set bits of every byte, as positions and as vertices.  A mask
below 256 is one lookup; bit_positions of a wider one joins the entries
of its bytes, each offset by its byte's place, and vertices adds 1 to
those.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

MAX_AMBIENT = 24


def check_ambient(m: int) -> int:
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"ambient size must be a nonnegative integer, got {m!r}")
    if m > MAX_AMBIENT:
        raise ValueError(f"ambient size {m} exceeds the supported maximum {MAX_AMBIENT}")
    return m


def full_mask(m: int) -> int:
    return (1 << m) - 1


def check_subset(mask: int, m: int) -> int:
    if not isinstance(mask, int) or mask < 0 or mask & ~full_mask(m):
        raise ValueError(f"mask {mask!r} is not a subset of [{m}]")
    return mask


def popcount(mask: int) -> int:
    return mask.bit_count()


# the set bits of every byte, as 0-based positions and as 1-based vertices
_BYTE_POSITIONS = tuple(tuple(b for b in range(8) if byte >> b & 1) for byte in range(256))
_BYTE_VERTICES = tuple(tuple(b + 1 for b in bits) for bits in _BYTE_POSITIONS)


def bit_positions(mask: int) -> tuple[int, ...]:
    """0-based positions of the set bits, ascending."""
    if mask < 0x100:
        return _BYTE_POSITIONS[mask]
    out = _BYTE_POSITIONS[mask & 0xFF]
    offset = 8
    mask >>= 8
    while mask:
        out += tuple([b + offset for b in _BYTE_POSITIONS[mask & 0xFF]])
        mask >>= 8
        offset += 8
    return out


def vertices(mask: int) -> tuple[int, ...]:
    """1-indexed vertex labels, ascending."""
    if mask < 0x100:
        return _BYTE_VERTICES[mask]
    return tuple([b + 1 for b in bit_positions(mask)])


def mask_of(verts: Iterable[int], m: int) -> int:
    mask = 0
    for v in verts:
        if not isinstance(v, int) or not 1 <= v <= m:
            raise ValueError(f"vertex {v!r} out of range 1..{m}")
        mask |= 1 << (v - 1)
    return mask


def subsets_of(mask: int) -> Iterator[int]:
    """All submasks of mask, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def grow(union: int, keep: Callable[[int], bool]) -> Iterator[int]:
    """The subsets G of union with keep(G), depth first from the empty
    set, each by the vertices of union above its own.  keep must hold
    on every subset of a set it holds on; then each such G is reached
    once, and only those are yielded."""
    stack = [0] if keep(0) else []
    while stack:
        g = stack.pop()
        yield g
        above = union & -(1 << g.bit_length())
        while above:
            low = above & -above
            above ^= low
            if keep(g | low):
                stack.append(g | low)


def sort_key(mask: int) -> tuple:
    """Deterministic (cardinality, lexicographic-on-vertices) order."""
    return (mask.bit_count(), vertices(mask))


def set_str(mask: int) -> str:
    return "{" + ",".join(str(v) for v in vertices(mask)) + "}"
