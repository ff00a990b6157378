"""The dense Cartan matrix, the set-based leaf peel and the dense JSON
reader, kept as oracles.

The library holds a Cartan matrix as valued adjacency lists, finds a
tree's centres by a degree countdown and checks quiver JSON on its edges
(`diagrams.CartanMatrix`, `diagrams._walk`, `diagrams.quiver_from_json`).
This module keeps the routes those replaced: d x d rows read entry by
entry, a peel that rescans every remaining vertex on each round, and JSON
edges written into d x d rows for `validate_cartan`.
"""

from __future__ import annotations

from typing import Sequence

from artifact.diagrams import Quiver, validate_cartan


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


def quiver_from_json_by_rows(obj: object) -> Quiver:
    """`quiver_from_json` through d x d rows and `validate_cartan`."""
    if not (isinstance(obj, dict) and type(obj.get("vertices")) is int
            and obj["vertices"] >= 1 and isinstance(obj.get("edges"), list)):
        raise ValueError('quiver JSON must be {"vertices": d >= 1, "edges": [...]}')
    d, edges = obj["vertices"], obj["edges"]
    m = [[2 if i == j else 0 for j in range(d)] for i in range(d)]
    arrows: dict[tuple[int, int], None] = {}  # in input order
    for e in edges:
        fields = e if isinstance(e, dict) else {}
        i, j, val = fields.get("from"), fields.get("to"), fields.get("val", [1, 1])
        if not (isinstance(val, list) and len(val) == 2 and i != j
                and all(type(x) is int and x >= 0 for x in (i, j, *val)) and max(i, j) < d):
            raise ValueError('edge %r is not {"from": i, "to": j, "val": [a, b]} with '
                             "vertices i != j below %d and naturals a, b" % (e, d))
        if (j, i) in arrows or (i, j) in arrows:
            raise ValueError("edge {%d,%d} listed twice" % (min(i, j), max(i, j)))
        a, b = val
        m[j][i] = -a
        m[i][j] = -b
        arrows[(i, j)] = None
    return Quiver(validate_cartan(m), arrows)
