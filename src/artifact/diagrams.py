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
O(edges). Dense rows are only ever input: `validate_cartan` reads them, and
checks their zero pattern and connectivity on the lists, as
`quiver_from_json` does for its edges. The catalog is one table, a row per
kind (`_CATALOG`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import compress
from typing import Callable, Iterable, NamedTuple, Optional, Sequence


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
    adj = [{j: -row[j] for j in compress(index, row) if j != i} for i, row in enumerate(matrix)]
    for i, row in enumerate(adj):
        for j, a in row.items():
            if a < 0:
                raise PositiveOffDiagonal("entry (%d,%d) = %d" % (i, j, -a))
    return _checked(adj)


def _checked(adj: list[dict[int, int]]) -> CartanMatrix:
    """The matrix with ascending adjacency lists adj (i's nonzero entries
    off the diagonal, j -> -C_ij), once its zero pattern is symmetric and
    its graph connected; else AsymmetricZeroPattern, naming the first
    offending pair in row-major order, or Disconnected."""
    back: list[list[int]] = [[] for _ in adj]  # the nonzero entries by column
    for i, row in enumerate(adj):
        for j in row:
            back[j].append(i)
    # the first row whose two lists differ first differs at some j > i
    # (a j < i would show in row j first)
    for i, row in enumerate(adj):
        if list(row) != back[i]:
            j = min(set(row).symmetric_difference(back[i]))
            raise AsymmetricZeroPattern("entries (%d,%d)/(%d,%d)" % (i, j, j, i))
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != len(adj):
        raise Disconnected("reached %d of %d vertices" % (len(seen), len(adj)))
    return CartanMatrix(adj)


def _adjacency(d: int, edges: dict[tuple[int, int], tuple[int, int]]) -> list[dict[int, int]]:
    """Ascending valued adjacency lists of the edges {i,j} -> (|C_ij|, |C_ji|),
    zero entries left out."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    for (i, j), (a, b) in edges.items():
        if a:
            adj[i].append((j, a))
        if b:
            adj[j].append((i, b))
    return [dict(sorted(row)) for row in adj]


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
# the catalog (Kac, Infinite-dimensional Lie algebras, Tables Fin, Aff 1-3)
#
# One row per kind: its name, its tag, its index rule and its edges
# {i,j} -> (|C_ij|, |C_ji|) as a function of the index m. A series has every
# m from its least index up, a fixed kind only its own m. A Dynkin member
# has m vertices, a Euclidean one m + 1.


class _Kind(NamedTuple):
    name: str
    tag: str  # "Dynkin" | "Euclidean"
    m: int  # a series' least index, or a fixed kind's only one
    series: bool
    edges: Callable[[int], dict[tuple[int, int], tuple[int, int]]]
    note: str = ""  # ends a series' index error

    def admits(self, m: int) -> bool:
        return m >= self.m if self.series else m == self.m

    def build(self, m: int) -> CartanMatrix:
        return CartanMatrix(_adjacency(m + (self.tag == "Euclidean"), self.edges(m)))


def _path(n: int) -> dict:
    """The simple path 0-1-...-(n-1)."""
    return {(i, i + 1): (1, 1) for i in range(n - 1)}


def _fork(n: int) -> dict:
    """The simple path 1-2-...-(n-1) with vertex 0 also on 2."""
    return {(0, 2): (1, 1), **{(i, i + 1): (1, 1) for i in range(1, n - 1)}}


def _t_shape(*arms: int) -> dict:
    """Simple paths of the given lengths out of vertex 0, numbered arm by arm."""
    edges, nxt = {}, 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges[(prev, nxt)] = (1, 1)
            prev, nxt = nxt, nxt + 1
    return edges


_CATALOG = (
    _Kind("A", "Dynkin", 1, True, _path),
    _Kind("B", "Dynkin", 2, True, lambda m: {**_path(m), (m - 2, m - 1): (1, 2)}),
    _Kind("C", "Dynkin", 3, True, lambda m: {**_path(m), (m - 2, m - 1): (2, 1)},
          " (C_2 is B_2)"),
    _Kind("D", "Dynkin", 4, True, lambda m: {**_path(m - 1), (m - 3, m - 1): (1, 1)}),
    _Kind("E6", "Dynkin", 6, False, lambda m: _t_shape(2, 2, 1)),
    _Kind("E7", "Dynkin", 7, False, lambda m: _t_shape(3, 2, 1)),
    _Kind("E8", "Dynkin", 8, False, lambda m: _t_shape(4, 2, 1)),
    _Kind("F4", "Dynkin", 4, False, lambda m: {**_path(4), (1, 2): (1, 2)}),
    _Kind("G2", "Dynkin", 2, False, lambda m: {(0, 1): (1, 3)}),
    _Kind("Atilde", "Euclidean", 2, True, lambda m: {**_path(m + 1), (0, m): (1, 1)},
          " (m=1 is the Kronecker diagram Atilde11)"),
    _Kind("Btilde", "Euclidean", 3, True, lambda m: {**_fork(m + 1), (m - 1, m): (1, 2)}),
    _Kind("Ctilde", "Euclidean", 2, True,
          lambda m: {**_path(m + 1), (0, 1): (2, 1), (m - 1, m): (1, 2)}),
    _Kind("Dtilde", "Euclidean", 4, True, lambda m: {**_fork(m), (m - 2, m): (1, 1)}),
    _Kind("BCtilde", "Euclidean", 2, True,
          lambda m: {**_path(m + 1), (0, 1): (1, 2), (m - 1, m): (1, 2)}),
    _Kind("BDtilde", "Euclidean", 3, True, lambda m: {**_fork(m + 1), (m - 1, m): (2, 1)}),
    _Kind("CDtilde", "Euclidean", 2, True,
          lambda m: {**_path(m + 1), (0, 1): (1, 2), (m - 1, m): (2, 1)}),
    _Kind("Atilde11", "Euclidean", 1, False, lambda m: {(0, 1): (2, 2)}),
    _Kind("Atilde12", "Euclidean", 1, False, lambda m: {(0, 1): (1, 4)}),
    _Kind("Etilde6", "Euclidean", 6, False, lambda m: _t_shape(2, 2, 2)),
    _Kind("Etilde7", "Euclidean", 7, False, lambda m: _t_shape(3, 3, 1)),
    _Kind("Etilde8", "Euclidean", 8, False, lambda m: _t_shape(5, 2, 1)),
    _Kind("Ftilde41", "Euclidean", 4, False, lambda m: {**_path(5), (2, 3): (2, 1)}),
    _Kind("Ftilde42", "Euclidean", 4, False, lambda m: {**_path(5), (2, 3): (1, 2)}),
    _Kind("Gtilde21", "Euclidean", 2, False, lambda m: {**_path(3), (1, 2): (3, 1)}),
    _Kind("Gtilde22", "Euclidean", 2, False, lambda m: {**_path(3), (1, 2): (1, 3)}),
)
_KINDS = {row.name: row for row in _CATALOG}
EUCLIDEAN_SERIES = tuple(row.name for row in _CATALOG if row.series and row.tag == "Euclidean")


def catalog_diagram(kind: str, m: int) -> CartanMatrix:
    """Build the catalog member named kind with index m."""
    row = _KINDS.get(kind)
    if row is None:
        raise ValueError("unknown diagram kind %r" % (kind,))
    if not row.admits(m):
        raise ValueError("%s_m needs m >= %d%s" % (kind, row.m, row.note) if row.series
                         else "%s needs m = %d" % (kind, row.m))
    return row.build(m)


def catalog_members(d: int) -> list[tuple[str, str, int, CartanMatrix]]:
    """All catalog diagrams on exactly d vertices, as (tag, kind, m, C)."""
    members = []
    for row in _CATALOG:
        m = d - (row.tag == "Euclidean")
        if row.admits(m):
            members.append((row.tag, row.name, m, row.build(m)))
    return members


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


@lru_cache(maxsize=512)  # every rank up to the default ARTIFACT_MAX_VERTICES
def _member_keys(d: int) -> dict:
    """The canonical_key of each catalog member on d vertices, mapped to the
    (tag, kind, m) of the first member with it."""
    keys: dict = {}
    for tag, kind, m, member in catalog_members(d):
        keys.setdefault(canonical_key(member), (tag, kind, m))
    return keys


def classify(c: CartanMatrix) -> DiagramClass:
    """The catalog member on c.d vertices with c's canonical_key, else
    Indefinite. The key is complete on the catalog: every member is a valued
    tree or a simply-laced cycle, and two valued trees are isomorphic exactly
    when their centre-rooted encodings agree (an isomorphism carries centres
    to centres, and an AHU string determines its rooted tree)."""
    member = _member_keys(c.d).get(canonical_key(c))  # no member's key is None
    return DiagramClass(*member) if member else DiagramClass("Indefinite")


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
#
# An orientation word w over {x, y} orients the cycle on len(w) vertices:
# letter v is x when the arrow is v -> v+1 (mod len(w)), y when it is
# v+1 -> v.


def validate_orientation_word(w: str) -> str:
    """An admissible cyclic orientation: three or more letters, both used."""
    if set(w) - {"x", "y"}:
        raise ValueError("orientation word must use only the letters x and y")
    if len(w) < 3:
        raise ValueError("orientation word needs at least three letters")
    if "x" not in w or "y" not in w:
        raise ValueError("a one-letter alphabet orients the cycle cyclically")
    return w


def cycle_quiver(w: str) -> Quiver:
    """The cycle Atilde_m, m = len(w) - 1, oriented letterwise by w."""
    validate_orientation_word(w)
    d = len(w)
    arrows = [(v, (v + 1) % d) if ch == "x" else ((v + 1) % d, v) for v, ch in enumerate(w)]
    return Quiver(catalog_diagram("Atilde", d - 1), arrows)


def _cycle_word(quiver: Quiver) -> Optional[str]:
    """The orientation word of a quiver on the cycle 0-1-...-(d-1)-0 with
    d >= 3 and every edge simple (so cycle_quiver inverts it), else None."""
    d = quiver.cartan.d
    if not (d >= 3 and quiver.cartan == catalog_diagram("Atilde", d - 1)):
        return None
    return "".join("x" if (v, (v + 1) % d) in quiver.arrows else "y" for v in range(d))


def default_quiver(kind: str, m: int) -> Quiver:
    """Catalog diagram with its documented default orientation.

    Paths, forks and T-shapes orient every edge from the lower vertex id to
    the higher. Atilde_m is cycle_quiver of the word x^m y (arrows
    0->1->...->m plus 0->m). Dtilde_m uses the fork convention of the
    nine-step construction: 0->2, 1->2, middle path 2->3->...->(m-2), far
    fork (m-2)->(m-1) and m->(m-2).
    """
    c = catalog_diagram(kind, m)
    if kind == "Atilde":
        return cycle_quiver("x" * m + "y")
    if kind == "Dtilde":
        return _fork_quiver(m, "x" * (m - 3))
    return Quiver(c, list(c.edges()))


def _fork_quiver(m: int, word: str) -> Quiver:
    """Dtilde_m with arrows 0->2, 1->2, (m-2)->(m-1) and m->(m-2), and the
    path edge {i, i+1} oriented i->i+1 when word[i-1] is x, else i+1->i
    (2 <= i <= m-3; word[0] orients no edge)."""
    arrows = [(0, 2), (1, 2), (m - 2, m - 1), (m, m - 2)]
    arrows += [(i, i + 1) if word[i - 1] == "x" else (i + 1, i) for i in range(2, m - 2)]
    return Quiver(catalog_diagram("Dtilde", m), arrows)


def parse_shorthand(text: str) -> Quiver:
    """Resolve a catalog name in its default orientation: a fixed kind by its
    name (E6, Atilde12), a series by its name and index in ASCII digits (A3,
    Atilde3, BCtilde4), and kronecker for Atilde11.

    Fixed names win, so Atilde11 and Atilde12 are the two-vertex Euclidean
    diagrams, not the 12- and 13-cycles; those are reached as Cartan matrices
    or quiver JSON.
    """
    name = text.strip()
    if name.lower() == "kronecker":
        name = "Atilde11"
    row = _KINDS.get(name)
    if row is not None and not row.series:
        return default_quiver(name, row.m)
    kind = name.rstrip("0123456789")
    row = _KINDS.get(kind)
    if row is not None and row.series and kind != name:
        return default_quiver(kind, int(name[len(kind):]))
    raise ValueError("unrecognized diagram shorthand %r" % (text,))


def quiver_from_json(obj: object) -> Quiver:
    """Read {"vertices": d, "edges": [{"from": i, "to": j, "val": [a, b]}]}.

    For an arrow i->j, val[0] = |C_ji| (exponent of the target's value in
    the source's own step) and val[1] = |C_ij|. Malformed input, and an
    edge {i,j} listed twice in either direction, raise ValueError; the
    axioms are checked on the edges as validate_cartan checks dense rows,
    with the same errors.
    """
    if not (isinstance(obj, dict) and type(obj.get("vertices")) is int
            and obj["vertices"] >= 1 and isinstance(obj.get("edges"), list)):
        raise ValueError('quiver JSON must be {"vertices": d >= 1, "edges": [...]}')
    d, edges = obj["vertices"], obj["edges"]
    valued: dict[tuple[int, int], tuple[int, int]] = {}  # arrow -> (|C_ij|, |C_ji|)
    for e in edges:
        fields = e if isinstance(e, dict) else {}
        i, j, val = fields.get("from"), fields.get("to"), fields.get("val", [1, 1])
        if not (isinstance(val, list) and len(val) == 2 and i != j
                and all(type(x) is int and x >= 0 for x in (i, j, *val)) and max(i, j) < d):
            raise ValueError('edge %r is not {"from": i, "to": j, "val": [a, b]} with '
                             "vertices i != j below %d and naturals a, b" % (e, d))
        if (j, i) in valued or (i, j) in valued:
            raise ValueError("edge {%d,%d} listed twice" % (min(i, j), max(i, j)))
        valued[(i, j)] = (val[1], val[0])
    return Quiver(_checked(_adjacency(d, valued)), valued)
