"""Valued diagrams, Cartan matrices, acyclic quivers, and their classification.

A Cartan matrix here is a generalized (integer, symmetrizable-zero-pattern)
one: 2 on the diagonal, nonpositive off the diagonal, C[i][j] = 0 iff
C[j][i] = 0, connected underlying graph. Classification compares a canonical
key with those of the finite (Dynkin) and affine (Euclidean) catalogs, whose
members are valued trees, keyed by centre-rooted AHU strings with each edge
read as its valuation, and simply-laced cycles. The additive certificate is
computed for trees and simply-laced cycles on the key's walk of the graph;
every other graph has none by Vinberg's theorem (`find_additive_function`).

A `CartanMatrix` is held as valued adjacency lists, so every walk costs
O(edges). Dense rows are only ever input: `validate_cartan` reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import compress
from typing import Iterable, Iterator, Optional, Sequence


class CartanValidationError(ValueError):
    axiom = "invalid"


class DiagonalNotTwo(CartanValidationError):
    axiom = "diagonal"


class PositiveOffDiagonal(CartanValidationError):
    axiom = "off-diagonal sign"


class AsymmetricZeroPattern(CartanValidationError):
    axiom = "zero pattern"


class Disconnected(CartanValidationError):
    axiom = "connectivity"


ADDITIVE = "Additive"
STRICTLY_SUBADDITIVE = "StrictlySubadditive"
VIOLATED = "Violated"


class CartanMatrix:
    """Validated Cartan matrix of a connected valued diagram, held as d and
    one dict per vertex i from each neighbour j (ascending) to |C_ij|."""

    __slots__ = ("d", "_adj")

    def __init__(self, adj: list[dict[int, int]]):
        # every caller passes ascending dicts of a validated matrix
        self.d = len(adj)
        self._adj = adj

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges {i,j}, i < j, of the underlying graph."""
        return [(i, j) for i, row in enumerate(self._adj) for j in row if j > i]

    def valuation(self, i: int, j: int) -> tuple[int, int]:
        """(|C_ij|, |C_ji|) for the edge {i,j}."""
        return (self._adj[i][j], self._adj[j][i])

    def neighbors(self, j: int) -> list[int]:
        return list(self._adj[j])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CartanMatrix) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(tuple(tuple(row.items()) for row in self._adj))

    def __repr__(self) -> str:
        return "CartanMatrix(d=%d, edges=%r)" % (
            self.d, {(i, j): self.valuation(i, j) for i, j in self.edges()})


def validate_cartan(matrix: Sequence[Sequence[int]]) -> CartanMatrix:
    """Check the four axioms and return the validated matrix.

    Raises ValueError unless the matrix is a nonempty square of integers,
    then DiagonalNotTwo, PositiveOffDiagonal, AsymmetricZeroPattern, or
    Disconnected, naming the first offending entries in row-major order.
    """
    if not (isinstance(matrix, (list, tuple)) and matrix and all(
            isinstance(row, (list, tuple)) and len(row) == len(matrix)
            and {int}.issuperset(map(type, row)) for row in matrix)):
        raise ValueError("Cartan matrix must be a nonempty square list of integer rows")
    n = len(matrix)
    for i in range(n):
        if matrix[i][i] != 2:
            raise DiagonalNotTwo("entry (%d,%d) = %d" % (i, i, matrix[i][i]))
    index = range(n)
    nbrs = [list(compress(index, row)) for row in matrix]  # nonzero entries by row
    back = [[] for _ in index]  # and by column
    for i, row in enumerate(matrix):
        for j in nbrs[i]:
            if row[j] > 0 and j != i:
                raise PositiveOffDiagonal("entry (%d,%d) = %d" % (i, j, row[j]))
            back[j].append(i)
    # the first row whose two lists differ first differs at some j > i
    # (a j < i would show in row j first)
    for i in index:
        if nbrs[i] != back[i]:
            j = min(set(nbrs[i]).symmetric_difference(back[i]))
            raise AsymmetricZeroPattern("entries (%d,%d)/(%d,%d)" % (i, j, j, i))
    seen = {0}
    stack = [0]
    while stack:
        for u in nbrs[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != n:
        raise Disconnected("reached %d of %d vertices" % (len(seen), n))
    return CartanMatrix([{j: -row[j] for j in nbrs[i] if j != i} for i, row in enumerate(matrix)])


class CyclicOrientation(ValueError):
    """The arrow set contains a directed cycle."""


class Quiver:
    """A Cartan matrix with an acyclic orientation of its edges."""

    __slots__ = ("cartan", "arrows", "topological_order", "_out", "_in")

    def __init__(self, cartan: CartanMatrix, arrows: Iterable[tuple[int, int]]):
        self.cartan = cartan
        arrow_set = set()
        for i, j in arrows:
            if j not in cartan._adj[i]:
                raise ValueError("arrow %d->%d has no underlying edge" % (i, j))
            if (j, i) in arrow_set:
                raise ValueError("edge {%d,%d} oriented twice" % (i, j))
            arrow_set.add((i, j))
        for i, j in cartan.edges():
            if (i, j) not in arrow_set and (j, i) not in arrow_set:
                raise ValueError("edge {%d,%d} left unoriented" % (i, j))
        self.arrows = frozenset(arrow_set)
        self._out: list[list[int]] = [[] for _ in range(cartan.d)]
        self._in: list[list[int]] = [[] for _ in range(cartan.d)]
        for i, j in sorted(arrow_set):
            self._out[i].append(j)
            self._in[j].append(i)
        self.topological_order = self._toposort()

    def _toposort(self) -> tuple[int, ...]:
        """Kahn's order, always taking the least ready vertex."""
        indeg = [len(sources) for sources in self._in]
        ready = [v for v, k in enumerate(indeg) if not k]  # ascending, so a heap
        order = []
        while ready:
            v = heappop(ready)
            order.append(v)
            for b in self._out[v]:
                indeg[b] -= 1
                if not indeg[b]:
                    heappush(ready, b)
        if len(order) != self.cartan.d:
            raise CyclicOrientation("orientation has a directed cycle")
        return tuple(order)

    def out_neighbors(self, j: int) -> list[int]:
        return list(self._out[j])

    def in_neighbors(self, j: int) -> list[int]:
        return list(self._in[j])

    def exponent(self, neighbor: int, vertex: int) -> int:
        """|C_ij| with i the neighbor and j the vertex whose step is computed."""
        return self.cartan._adj[neighbor].get(vertex, 0)

    def __repr__(self) -> str:
        return "Quiver(d=%d, arrows=%s)" % (self.cartan.d, sorted(self.arrows))


@dataclass(frozen=True)
class DiagramClass:
    tag: str          # "Dynkin" | "Euclidean" | "Indefinite"
    kind: Optional[str] = None
    m: Optional[int] = None

    def __str__(self) -> str:
        if self.tag == "Indefinite":
            return "Indefinite"
        return "%s(%s,%d)" % (self.tag, self.kind, self.m)


# ----------------------------------------------------------------------
# catalog construction
#
# Diagrams are given as edge lists {i,j} -> (|C_ij|, |C_ji|). The Dynkin
# catalog: paths A_m, the (1,2)/(2,1)-tailed paths B_m/C_m, forked paths
# D_m, the T-shapes E6-E8, F4, G2. The Euclidean catalog (X̃_m has m+1
# vertices): cycles Ã_m, single- and double-forked and valued-tailed paths
# B̃/C̃/D̃/B̃C/B̃D/C̃D, plus nine exceptional diagrams.


def _edges_to_cartan(d: int, edges: dict[tuple[int, int], tuple[int, int]]) -> CartanMatrix:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    for (i, j), (a, b) in edges.items():
        adj[i].append((j, a))
        adj[j].append((i, b))
    return CartanMatrix([dict(sorted(row)) for row in adj])


def _path_edges(d: int) -> dict:
    return {(i, i + 1): (1, 1) for i in range(d - 1)}


def catalog_diagram(kind: str, m: int) -> CartanMatrix:
    """Build the catalog member named kind with index m."""
    if kind == "A":
        if m < 1:
            raise ValueError("A_m needs m >= 1")
        return _edges_to_cartan(m, _path_edges(m))
    if kind == "B":
        if m < 2:
            raise ValueError("B_m needs m >= 2")
        e = _path_edges(m)
        e[(m - 2, m - 1)] = (1, 2)
        return _edges_to_cartan(m, e)
    if kind == "C":
        if m < 3:
            raise ValueError("C_m needs m >= 3 (C_2 is B_2)")
        e = _path_edges(m)
        e[(m - 2, m - 1)] = (2, 1)
        return _edges_to_cartan(m, e)
    if kind == "D":
        if m < 4:
            raise ValueError("D_m needs m >= 4")
        e = _path_edges(m - 2)
        e[(m - 3, m - 2)] = (1, 1)
        e[(m - 3, m - 1)] = (1, 1)
        return _edges_to_cartan(m, e)
    if kind in ("E6", "E7", "E8"):
        arms = {"E6": (2, 2, 1), "E7": (3, 2, 1), "E8": (4, 2, 1)}[kind]
        return _edges_to_cartan(*_t_shape(arms))
    if kind == "F4":
        e = _path_edges(4)
        e[(1, 2)] = (1, 2)
        return _edges_to_cartan(4, e)
    if kind == "G2":
        return _edges_to_cartan(2, {(0, 1): (1, 3)})

    if kind == "Atilde":
        if m < 2:
            raise ValueError("Atilde_m needs m >= 2 (m=1 is the Kronecker diagram Atilde11)")
        e = _path_edges(m + 1)
        e[(0, m)] = (1, 1)
        return _edges_to_cartan(m + 1, e)
    if kind == "Btilde":
        if m < 3:
            raise ValueError("Btilde_m needs m >= 3")
        e = {(0, 2): (1, 1), (1, 2): (1, 1)}
        e.update({(i, i + 1): (1, 1) for i in range(2, m)})
        e[(m - 1, m)] = (1, 2)
        return _edges_to_cartan(m + 1, e)
    if kind == "Ctilde":
        if m < 2:
            raise ValueError("Ctilde_m needs m >= 2")
        e = _path_edges(m + 1)
        e[(0, 1)] = (2, 1)
        e[(m - 1, m)] = (1, 2)
        return _edges_to_cartan(m + 1, e)
    if kind == "Dtilde":
        if m < 4:
            raise ValueError("Dtilde_m needs m >= 4")
        e = {(0, 2): (1, 1), (1, 2): (1, 1), (m - 2, m - 1): (1, 1), (m - 2, m): (1, 1)}
        e.update({(i, i + 1): (1, 1) for i in range(2, m - 2)})
        return _edges_to_cartan(m + 1, e)
    if kind == "BCtilde":
        if m < 2:
            raise ValueError("BCtilde_m needs m >= 2")
        e = _path_edges(m + 1)
        e[(0, 1)] = (1, 2)
        e[(m - 1, m)] = (1, 2)
        return _edges_to_cartan(m + 1, e)
    if kind == "BDtilde":
        if m < 3:
            raise ValueError("BDtilde_m needs m >= 3")
        e = {(0, 2): (1, 1), (1, 2): (1, 1)}
        e.update({(i, i + 1): (1, 1) for i in range(2, m)})
        e[(m - 1, m)] = (2, 1)
        return _edges_to_cartan(m + 1, e)
    if kind == "CDtilde":
        if m < 2:
            raise ValueError("CDtilde_m needs m >= 2")
        e = _path_edges(m + 1)
        e[(0, 1)] = (1, 2)
        e[(m - 1, m)] = (2, 1)
        return _edges_to_cartan(m + 1, e)
    if kind == "Atilde11":
        return _edges_to_cartan(2, {(0, 1): (2, 2)})
    if kind == "Atilde12":
        return _edges_to_cartan(2, {(0, 1): (1, 4)})
    if kind in ("Etilde6", "Etilde7", "Etilde8"):
        arms = {"Etilde6": (2, 2, 2), "Etilde7": (3, 3, 1), "Etilde8": (5, 2, 1)}[kind]
        return _edges_to_cartan(*_t_shape(arms))
    if kind == "Ftilde41":
        e = _path_edges(5)
        e[(2, 3)] = (2, 1)
        return _edges_to_cartan(5, e)
    if kind == "Ftilde42":
        e = _path_edges(5)
        e[(2, 3)] = (1, 2)
        return _edges_to_cartan(5, e)
    if kind == "Gtilde21":
        e = _path_edges(3)
        e[(1, 2)] = (3, 1)
        return _edges_to_cartan(3, e)
    if kind == "Gtilde22":
        e = _path_edges(3)
        e[(1, 2)] = (1, 3)
        return _edges_to_cartan(3, e)
    raise ValueError("unknown diagram kind %r" % (kind,))


def _t_shape(arms: tuple[int, int, int]) -> tuple[int, dict]:
    # vertex 0 is the branch point; arms are attached as paths
    edges = {}
    nxt = 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges[(min(prev, nxt), max(prev, nxt))] = (1, 1)
            prev = nxt
            nxt += 1
    return nxt, edges


DYNKIN_KINDS = ("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2")
EUCLIDEAN_SERIES = ("Atilde", "Btilde", "Ctilde", "Dtilde", "BCtilde", "BDtilde", "CDtilde")
EUCLIDEAN_EXCEPTIONAL = (
    "Atilde11", "Atilde12", "Etilde6", "Etilde7", "Etilde8",
    "Ftilde41", "Ftilde42", "Gtilde21", "Gtilde22",
)

_FIXED_INDEX = {
    "E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2,
    "Etilde6": 6, "Etilde7": 7, "Etilde8": 8,
    "Ftilde41": 4, "Ftilde42": 4, "Gtilde21": 2, "Gtilde22": 2,
    "Atilde11": 1, "Atilde12": 1,
}

_MIN_INDEX = {"A": 1, "B": 2, "C": 3, "D": 4,
              "Atilde": 2, "Btilde": 3, "Ctilde": 2, "Dtilde": 4,
              "BCtilde": 2, "BDtilde": 3, "CDtilde": 2}


def _members(d: int) -> Iterator[tuple[str, str, int, CartanMatrix]]:
    """The catalog diagrams on exactly d vertices, each built when reached."""
    for kind in ("A", "B", "C", "D"):
        if d >= _MIN_INDEX[kind]:
            yield "Dynkin", kind, d, catalog_diagram(kind, d)
    for kind in ("E6", "E7", "E8", "F4", "G2"):
        if _FIXED_INDEX[kind] == d:
            yield "Dynkin", kind, d, catalog_diagram(kind, d)
    m = d - 1
    for kind in EUCLIDEAN_SERIES:
        if m >= _MIN_INDEX[kind]:
            yield "Euclidean", kind, m, catalog_diagram(kind, m)
    for kind in EUCLIDEAN_EXCEPTIONAL:
        if _FIXED_INDEX[kind] + 1 == d:
            yield "Euclidean", kind, _FIXED_INDEX[kind], catalog_diagram(kind, _FIXED_INDEX[kind])


def catalog_members(d: int) -> list[tuple[str, str, int, CartanMatrix]]:
    """All catalog diagrams on exactly d vertices, as (tag, kind, m, C)."""
    return list(_members(d))


def _walk(c: CartanMatrix) -> tuple[Optional[str], list[tuple[dict, list]]]:
    """c's shape, "cycle" (simply-laced, at least 3 vertices), "tree" or None
    for neither, and for a tree a breadth-first (parent map, order) from each
    centre, the root its own parent. Assumes c is connected."""
    d, adj = c.d, c._adj
    if d >= 3 and all(list(row.values()) == [1, 1] for row in adj):
        return "cycle", []  # connected, every vertex on two simple edges
    degree = [len(row) for row in adj]
    if sum(degree) != 2 * d - 2:
        return None, []
    # peel every leaf at once; a vertex is a leaf of the next round when the
    # leaves removed drop its count of live neighbours to 1
    centres, left = [v for v, k in enumerate(degree) if k <= 1], d
    while left > 2:
        left -= len(centres)
        leaves, centres = centres, []
        for v in leaves:
            for u in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    centres.append(u)
    searches = []
    for root in sorted(centres):
        parent, order = {root: root}, [root]
        for v in order:
            fresh = [u for u in adj[v] if u not in parent]
            parent.update(dict.fromkeys(fresh, v))
            order += fresh
        searches.append((parent, order))
    return "tree", searches


def canonical_key(c: CartanMatrix):
    """("cycle",) for a simply-laced cycle on at least 3 vertices; for a tree,
    its least valued AHU string rooted at a centre, built bottom-up over
    breadth-first order; None for anything else. Assumes c is connected."""
    shape, searches = _walk(c)
    if shape != "tree":
        return ("cycle",) if shape == "cycle" else None
    keys = []
    for parent, order in searches:
        tokens: list[list[str]] = [[] for _ in range(c.d)]
        for v in reversed(order[1:]):
            p = parent[v]
            tokens[p].append("%d.%d(%s)" % (*c.valuation(p, v), "".join(sorted(tokens[v]))))
        keys.append("".join(sorted(tokens[order[0]])))
    return min(keys)


def classify(c: CartanMatrix) -> DiagramClass:
    """The catalog member on c.d vertices with c's canonical_key, else
    Indefinite. The key is complete on the catalog: every member is a valued
    tree or a simply-laced cycle, and two valued trees are isomorphic exactly
    when their centre-rooted encodings agree (an isomorphism carries centres
    to centres, and an AHU string determines its rooted tree)."""
    key = canonical_key(c)
    if key is not None:
        for tag, kind, m, member in _members(c.d):
            if canonical_key(member) == key:
                return DiagramClass(tag, kind, m)
    return DiagramClass("Indefinite")


# ----------------------------------------------------------------------
# additive / subadditive certificates


def find_additive_function(c: CartanMatrix) -> Optional[dict[int, Fraction]]:
    """The strictly positive f with sum_i f(i) C_ij = 0 and least value 1, or
    None. Assumes c is connected.

    Computed on a simply-laced cycle (all ones) and on a tree, eliminating
    leaves bottom-up over a breadth-first order from a centre: v with parent p
    gets ratio(v) = f(v)/f(p) = |C_pv| / slack(v), slack(v) = 2 - sum over its
    children u of |C_uv| ratio(u); f exists iff every non-root slack is > 0
    and the root's is 0, and is then unique up to scale. Every other graph
    gets None by Vinberg's trichotomy (Kac, Infinite-dimensional Lie algebras,
    Thm 4.3, Tables Aff 1-3): a connected generalized Cartan matrix has a
    positive null vector exactly when it is affine, and every affine diagram
    is a valued tree or the simply-laced cycle Atilde_m, m >= 2.
    """
    shape, searches = _walk(c)
    if shape != "tree":
        return {i: Fraction(1) for i in range(c.d)} if shape == "cycle" else None
    parent, order = searches[0]
    load = [Fraction(0)] * c.d  # sum over v's children u of |C_uv| ratio(u)
    f = [Fraction(1)] * c.d  # ratio(v) until the top-down pass
    for v in reversed(order[1:]):
        slack = 2 - load[v]
        if slack <= 0:
            return None
        p = parent[v]
        f[v] = c._adj[p][v] / slack
        load[p] += c._adj[v][p] * f[v]
    if load[order[0]] != 2:
        return None
    for v in order[1:]:
        f[v] *= f[parent[v]]
    lo = min(f)
    return {i: x / lo for i, x in enumerate(f)}


def check_subadditive(c: CartanMatrix, f: dict[int, Fraction]) -> str:
    """Classify f as Additive, StrictlySubadditive, or Violated for C."""
    if any(Fraction(f[v]) <= 0 for v in range(c.d)):
        raise ValueError("vertex function must be strictly positive")
    strict = False
    for j in range(c.d):
        lhs = 2 * Fraction(f[j])
        rhs = sum(Fraction(f[i]) * c._adj[i][j] for i in c._adj[j])
        if lhs < rhs:
            return VIOLATED
        if lhs > rhs:
            strict = True
    return STRICTLY_SUBADDITIVE if strict else ADDITIVE


# ----------------------------------------------------------------------
# orientations and input formats


def default_quiver(kind: str, m: int) -> Quiver:
    """Catalog diagram with its documented default orientation.

    Paths, forks and T-shapes orient every edge from the lower vertex id to
    the higher. Atilde_m uses the cycle orientation encoded by the word
    x^m y (arrows 0->1->...->m plus 0->m). Dtilde_m uses the fork
    convention of the nine-step construction: 0->2, 1->2, middle path
    2->3->...->(m-2), far fork (m-2)->(m-1) and m->(m-2).
    """
    c = catalog_diagram(kind, m)
    if kind == "Atilde":
        arrows = [(i, i + 1) for i in range(m)] + [(0, m)]
        return Quiver(c, arrows)
    if kind == "Dtilde":
        arrows = [(0, 2), (1, 2), (m - 2, m - 1), (m, m - 2)]
        arrows += [(i, i + 1) for i in range(2, m - 2)]
        return Quiver(c, arrows)
    return Quiver(c, list(c.edges()))


_SHORTHAND_ALIASES = {"kronecker": ("Atilde11", 1)}


def parse_shorthand(text: str) -> Quiver:
    """Resolve names like A3, Atilde3, Dtilde7, BCtilde4, kronecker."""
    name = text.strip()
    if name.lower() in _SHORTHAND_ALIASES:
        kind, m = _SHORTHAND_ALIASES[name.lower()]
        return default_quiver(kind, m)
    if name in _FIXED_INDEX:
        return default_quiver(name, _FIXED_INDEX[name])
    for kind in sorted(_MIN_INDEX, key=len, reverse=True):
        if name.startswith(kind):
            suffix = name[len(kind):]
            if suffix.isdigit():
                return default_quiver(kind, int(suffix))
    raise ValueError("unrecognized diagram shorthand %r" % (text,))


def quiver_from_json(obj: object) -> Quiver:
    """Read {"vertices": d, "edges": [{"from": i, "to": j, "val": [a, b]}]}.

    For an arrow i->j, val[0] = |C_ji| (exponent of the target's value in
    the source's own step) and val[1] = |C_ij|. Malformed input, and an
    edge {i,j} listed twice in either direction, raise ValueError.
    """
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
