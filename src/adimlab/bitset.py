"""Vertex sets as immutable int-backed bitsets.

A ``VertexSet`` is the common currency for neighborhoods, generators and
distinguishing sets.  The payload is a plain Python int, so a single machine
word covers n <= 64 and larger universes degrade gracefully to multi-word
ints behind the same interface.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import OutOfRange


def mask_of(vertices: Iterable[int], n: int) -> int:
    """Pack vertex indices into a bitmask, checking bounds."""
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise OutOfRange(f"vertex {v} not in 0..{n - 1}")
        mask |= 1 << v
    return mask


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class VertexSet:
    """Immutable subset of the vertices 0..n-1."""

    __slots__ = ("mask", "n")

    def __init__(self, n: int, mask: int = 0):
        if mask < 0 or mask >> n:
            raise OutOfRange(f"mask {mask:#x} does not fit universe of size {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, *_):
        raise AttributeError("VertexSet is immutable")

    def __reduce__(self):
        # through the constructor: __setattr__ refuses restored slot state
        return VertexSet, (self.n, self.mask)

    @classmethod
    def from_iterable(cls, n: int, vertices: Iterable[int]) -> "VertexSet":
        return cls(n, mask_of(vertices, n))

    def members(self) -> tuple[int, ...]:
        """Vertices in ascending index order."""
        return tuple(bits_of(self.mask))

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.mask >> v) & 1 == 1

    def _check(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise OutOfRange(f"universe mismatch: {self.n} vs {other.n}")

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask & other.mask)

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask | other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask & ~other.mask)

    def __xor__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask ^ other.mask)

    def complement(self) -> "VertexSet":
        """All vertices of the universe not in this set."""
        return VertexSet(self.n, ~self.mask & ((1 << self.n) - 1))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet({self.n}, {{{', '.join(map(str, self))}}})"

    def to_list(self) -> list[int]:
        """JSON-friendly ascending member list."""
        return list(bits_of(self.mask))
