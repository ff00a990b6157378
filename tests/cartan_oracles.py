"""The dense Cartan matrix and the set-based leaf peel, kept as oracles.

The library holds a Cartan matrix as valued adjacency lists and finds a
tree's centres by a degree countdown (`diagrams.CartanMatrix`,
`diagrams._walk`). This module keeps the routes those replaced: d x d
rows read entry by entry, and a peel that rescans every remaining vertex
on each round.
"""

from __future__ import annotations

from typing import Sequence


class DenseCartanMatrix:
    """A Cartan matrix as its d x d integer rows."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[int]]):
        self.entries = tuple(map(tuple, entries))

    @property
    def d(self) -> int:
        return len(self.entries)

    def edges(self) -> list[tuple[int, int]]:
        n = self.d
        return [(i, j) for i in range(n) for j in range(i + 1, n) if self.entries[i][j]]

    def valuation(self, i: int, j: int) -> tuple[int, int]:
        return (-self.entries[i][j], -self.entries[j][i])

    def neighbors(self, j: int) -> list[int]:
        return [i for i in range(self.d) if i != j and self.entries[i][j]]

    def exponent(self, neighbor: int, vertex: int) -> int:
        """What `Quiver.exponent` reads: |C_ij|, i the neighbour."""
        return -self.entries[neighbor][vertex]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DenseCartanMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)


def dense_rows(c) -> list[list[int]]:
    """The d x d rows of a Cartan matrix, read through its edges."""
    rows = [[2 if i == j else 0 for j in range(c.d)] for i in range(c.d)]
    for i, j in c.edges():
        a, b = c.valuation(i, j)
        rows[i][j], rows[j][i] = -a, -b
    return rows


def centres_by_set_peel(nbrs: list[list[int]]) -> list[int]:
    """A tree's one or two centres: peel every leaf at once, counting each
    remaining vertex's remaining neighbours afresh on every round."""
    centres = set(range(len(nbrs)))
    while len(centres) > 2:
        centres -= {v for v in centres if sum(u in centres for u in nbrs[v]) <= 1}
    return sorted(centres)
