"""The degree monoid N^k of a higher-rank graph.

Degrees are compared coordinatewise, and every pair has a least upper
bound.  Group elements q = m - n are not materialised as objects:
callers work with plain integer tuples in Z^k (see :meth:`Degree.minus`).
"""

from __future__ import annotations

from dataclasses import dataclass


class DegreeError(ValueError):
    """Raised on rank mismatches or invalid coordinates."""


@dataclass(frozen=True)
class Degree:
    """An element of N^k, compared coordinatewise."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.coords):
            raise DegreeError(f"negative coordinate in degree {self.coords}")

    @property
    def rank(self) -> int:
        return len(self.coords)

    @staticmethod
    def zero(rank: int) -> Degree:
        return Degree((0,) * rank)

    @staticmethod
    def unit(rank: int, color: int) -> Degree:
        """The generator for one color; colors are 1-based."""
        if not 1 <= color <= rank:
            raise DegreeError(f"color {color} out of range for rank {rank}")
        return Degree(tuple(1 if i == color - 1 else 0 for i in range(rank)))

    def _check_rank(self, other: Degree) -> None:
        if self.rank != other.rank:
            raise DegreeError(f"rank mismatch: {self.coords} vs {other.coords}")

    def add(self, other: Degree) -> Degree:
        self._check_rank(other)
        return Degree(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def leq(self, other: Degree) -> bool:
        """p <= r iff r = p + q for some q in N^k."""
        self._check_rank(other)
        return all(a <= b for a, b in zip(self.coords, other.coords))

    def lub(self, other: Degree) -> Degree:
        """Least common upper bound; always exists in N^k."""
        self._check_rank(other)
        return Degree(tuple(max(a, b) for a, b in zip(self.coords, other.coords)))

    def minus(self, other: Degree) -> tuple[int, ...]:
        """Difference in the group Z^k; may have negative entries."""
        self._check_rank(other)
        return tuple(a - b for a, b in zip(self.coords, other.coords))

    def sub(self, other: Degree) -> Degree:
        """Difference within N^k; requires other <= self."""
        if not other.leq(self):
            raise DegreeError(f"{other.coords} is not below {self.coords}")
        return Degree(tuple(a - b for a, b in zip(self.coords, other.coords)))

    @property
    def total(self) -> int:
        return sum(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def downset(self) -> list[Degree]:
        """All degrees <= self, in lexicographic order."""
        out = [()]
        for c in self.coords:
            out = [pre + (i,) for pre in out for i in range(c + 1)]
        return [Degree(t) for t in out]

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"
