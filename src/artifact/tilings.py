"""SL2-tilings of the discrete plane attached to an admissible frontier.

A frontier is a bi-infinite word over {x,y}, encoded ultimately
periodically as (left block)^inf CENTER (right block)^inf. Its embedding
walks x as (+1,0) and y as (0,+1); every path vertex gets value 1, and
each lattice point strictly below the path gets the value

    t(P) = (1,1) M(x_2) ... M(x_n) (1,1)^T,  M(x)=[[1,1],[0,1]], M(y)=[[1,0],[1,1]]

where x_1..x_{n+1} is the frontier factor cut out by projecting P onto the
path (first and last letters dropped). Points above the path go through
the mirrored embedding. tile_values, the one route of tile_value,
tile_grid and ray_values, pairs two prefix products of one letter walk per
side (Embedding.locate gives a point's side and word span one at a time).
brute_fill recomputes grids purely from the unimodularity of 2x2 blocks
and is kept as an independent oracle.

The adjacent-diagonal relation everywhere: with A=t(u,v), B=t(u+1,v),
C=t(u,v+1), D=t(u+1,v+1) it reads C*B - D*A = 1, and verify_sl2 is its one
check, on grids of integers and of Laurent polynomials (`cluster`) alike,
through laurent.products_differ_by_one, which frises.verify_recursion uses too.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Optional, Sequence, Union

from .laurent import Scalar, products_differ_by_one

Point = tuple[int, int]
Mat2 = tuple[tuple[int, int], tuple[int, int]]
Region = tuple[int, int, int, int]


class InadmissibleFrontier(ValueError):
    """A frontier tail misses one of the letters x, y."""


class PointOnOrAboveFrontier(ValueError):
    """word_of_point is defined only strictly below the path."""


class NonIntegralCompletion(ArithmeticError):
    """A 2x2 completion produced a non-integer or nonpositive value."""


class UnreachableCell(RuntimeError):
    """brute_fill could not determine a requested cell."""


class InconsistentGeometry(ArithmeticError):
    """Two descriptions of the same frontier geometry disagree."""


class NotPythagorean(ArithmeticError):
    """A square-lemma triple fails a^2 = b^2 + c^2."""


def transpose_word(w: str) -> str:
    """Reverse the word and swap x with y."""
    return "".join("x" if ch == "y" else "y" for ch in reversed(w))


def swap_word(w: str) -> str:
    """Swap x with y, keeping the order."""
    return "".join("x" if ch == "y" else "y" for ch in w)


def _check_letters(w: str, what: str) -> str:
    if any(ch not in "xy" for ch in w):
        raise ValueError("%s must use only letters x and y, got %r" % (what, w))
    return w


def _cycle(block: str, start: int, stop: int) -> str:
    """Letters start..stop-1 of block repeated both ways from index 0."""
    if start >= stop:
        return ""
    r = start % len(block)
    return (block * ((stop - start) // len(block) + 2))[r:r + stop - start]


class Frontier:
    """Ultimately periodic bi-infinite word; center starts at index 0."""

    __slots__ = ("left", "center", "right")

    def __init__(self, left: str, center: str, right: str):
        self.left = _check_letters(left, "left block")
        self.center = _check_letters(center, "center")
        self.right = _check_letters(right, "right block")
        if not left or not right:
            raise InadmissibleFrontier("tail blocks must be nonempty")
        for block, side in ((left, "left"), (right, "right")):
            if "x" not in block or "y" not in block:
                raise InadmissibleFrontier("%s tail is ultimately constant: %r" % (side, block))

    def letter(self, i: int) -> str:
        if 0 <= i < len(self.center):
            return self.center[i]
        if i >= len(self.center):
            return self.right[(i - len(self.center)) % len(self.right)]
        return self.left[i % len(self.left)]

    def factor(self, start: int, stop: int) -> str:
        """Letters start..stop-1: slices of the left tail, the center and
        the right tail, each tail repeated just enough to cover its part."""
        n = len(self.center)
        return (_cycle(self.left, start, min(stop, 0)) + self.center[max(start, 0):max(stop, 0)]
                + _cycle(self.right, max(start, n) - n, stop - n))

    def swapped(self) -> "Frontier":
        return Frontier(swap_word(self.left), swap_word(self.center), swap_word(self.right))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frontier):
            return NotImplemented
        return (self.left, self.center, self.right) == (other.left, other.center, other.right)

    def __repr__(self) -> str:
        return "Frontier(%r, %r, %r)" % (self.left, self.center, self.right)


_FRONTIER_RE = re.compile(r"^\s*\[([xy]+)\]\*\s*([xy]*)\s*\[([xy]+)\]\*\s*$")


def parse_frontier(text: str) -> Frontier:
    """Parse the ASCII form `[LEFT]* CENTER [RIGHT]*` (center may be empty)."""
    m = _FRONTIER_RE.match(text)
    if not m:
        raise ValueError("cannot parse frontier spec %r" % (text,))
    return Frontier(m.group(1), m.group(2), m.group(3))


def frontier_to_text(fr: Frontier) -> str:
    mid = " %s " % fr.center if fr.center else " "
    return "[%s]*%s[%s]*" % (fr.left, mid, fr.right)


class Embedding:
    """Frontier laid into the plane; vertex i sits between letters i-1, i.

    The word is ultimately periodic, so every query is index arithmetic on
    its three blocks, with no walk. Vertex 0 is the origin and vertex i is
    the letter counts from index 0 to i (center, whole tail blocks by one
    divmod, and a block prefix), so it lies on the antidiagonal u + v = i.
    The vertices on column (row) t run from just after the t-th x (y) up
    to the (t+1)-th, found the same way from letter positions.
    locate and tile_values read side and word span off them.
    """

    def __init__(self, frontier: Frontier):
        self.frontier = frontier
        self._mirror: Optional["Embedding"] = None
        blocks = (frontier.left, frontier.center, frontier.right)
        # per block: the x counts of its prefixes, and the index just after
        # each x and after each y
        self._xs = [list(accumulate((ch == "x" for ch in w), initial=0)) for w in blocks]
        self._ends = [[[k + 1 for k, ch in enumerate(w) if ch == a] for w in blocks] for a in "xy"]

    def vertex(self, i: int) -> Point:
        left, center, right = self._xs
        n = len(center) - 1
        if 0 <= i <= n:
            x = center[i]
        elif i > n:
            q, r = divmod(i - n, len(right) - 1)
            x = center[n] + q * right[-1] + right[r]
        else:
            q, r = divmod(i, len(left) - 1)
            x = q * left[-1] + left[r]
        return (x, i - x)

    def _after(self, t: int, axis: int) -> int:
        """Index just after the t-th x (axis 0) or y (axis 1), counting the
        first such letter at index >= 0 as t = 1 and the last before it as 0."""
        left, center, right = self._ends[axis]
        if 0 < t <= len(center):
            return center[t - 1]
        if t > 0:
            q, r = divmod(t - 1 - len(center), len(right))
            return len(self.frontier.center) + q * len(self.frontier.right) + right[r]
        q, r = divmod(t - 1, len(left))
        return q * len(self.frontier.left) + left[r]

    def column_run(self, u: int) -> tuple[int, int]:
        """Vertex indices entering and leaving column u: the u-th x enters
        it and the next x leaves it."""
        return self._after(u, 0), self._after(u + 1, 0) - 1

    def row_run(self, v: int) -> tuple[int, int]:
        return self._after(v, 1), self._after(v + 1, 1) - 1

    def locate(self, p: Point) -> tuple[str, int, int]:
        """p's side of the path, and the letter span (first, last) of its word.

        Below, the span runs from the y leaving row v's last vertex to the x
        entering column u's first. Above, it is the span of (v, u) in
        mirror(), whose indices are the same. On the path it is (i, i), for
        vertex i. Two lookups below the path, three on or above it.
        """
        u, v = p
        i = u + v  # the index of vertices on p's antidiagonal
        ilo = self._after(u, 0)
        if i < ilo:
            return "below", self._after(v + 1, 1) - 1, ilo - 1
        ihi = self._after(u + 1, 0) - 1
        if i <= ihi:
            return "on", i, i
        return "above", ihi, self._after(v, 1) - 1

    def mirror(self) -> "Embedding":
        """Letter-swapped frontier: reflecting across the main diagonal
        carries this path onto it and swaps the two sides of the plane."""
        if self._mirror is None:
            self._mirror = Embedding(self.frontier.swapped())
        return self._mirror


def word_span(e: Embedding, p: Point) -> tuple[int, int]:
    """Letter indices (first, last) of the word of a below point."""
    side, first, last = e.locate(p)
    if side != "below":
        raise PointOnOrAboveFrontier("point %r is not strictly below the frontier" % (p,))
    return first, last


def word_of_point(e: Embedding, p: Point) -> str:
    """Frontier factor between the two projections of a below point."""
    first, last = word_span(e, p)
    word = e.frontier.factor(first, last + 1)
    if len(word) < 2 or word[0] != "y" or word[-1] != "x":
        raise InconsistentGeometry("word %r of point %r is not y...x" % (word, p))
    return word


def step_product(word: str, m: Mat2 = ((1, 0), (0, 1))) -> Mat2:
    """m M(w_1) ... M(w_k), with M(x)=[[1,1],[0,1]] and M(y)=[[1,0],[1,1]]."""
    (p, q), (r, s) = m
    for ch in word:
        if ch == "x":
            q, s = p + q, r + s
        else:
            p, r = p + q, r + s
    return (p, q), (r, s)


def tile_values(e: Embedding, points: list[Point]) -> list[int]:
    """Tiling values at a list of points, by one letter walk per side.

    On each side of the path (in mirror()'s letters above it), let base be
    the least first index of the points' words and A_i the product of the
    step matrices of letters base+1..i-1. Every M is in SL2(N), so the word
    f..l has the value (1,1) A_{f+1}^-1 A_l (1,1)^T; with the integer
    adjugate as the inverse, A_{f+1} = [[a,b],[c,d]] and A_l = [[x,y],[z,w]],
    that is (d-c)(x+y) + (a-b)(z+w): the walk keeps the row (d-c, a-b) from
    each f+1 and pairs it at l. Size: on each side of a rectangle, or of a
    ray with a*b <= 0, one word spans all the others, so the walk is no
    longer than it, and each A_i, entrywise at most that word's product,
    stays below the square of the largest value.
    """
    cols = {u: e.column_run(u) for u in {p[0] for p in points}}
    rows = {v: e.row_run(v) for v in {p[1] for p in points}}
    vals, sides = [1] * len(points), ([], [])
    for n, (u, v) in enumerate(points):
        (clo, chi), (rlo, rhi) = cols[u], rows[v]
        i = u + v  # the index of the vertices on p's antidiagonal
        if i < clo:
            sides[0].append((rhi, clo - 1, n))  # (first, last, n) below
        elif i > chi:
            sides[1].append((chi, rlo - 1, n))  # and above, in mirror()'s indices
    for spans, mirrored in zip(sides, (False, True)):
        if not spans:
            continue
        fr = e.mirror().frontier if mirrored else e.frontier
        base = min(s[0] for s in spans)
        word = fr.factor(base, max(s[1] for s in spans) + 1)
        ends: dict[int, list[tuple[int, int]]] = {}  # l -> (f, n) of its words
        for f, l, n in spans:
            if f >= l or word[f - base] != "y" or word[l - base] != "x":
                raise InconsistentGeometry("word %r of point %r is not y...x"
                                           % (fr.factor(f, l + 1), points[n]))
            ends.setdefault(l, []).append((f, n))
        starts = {s[0] + 1 for s in spans}
        left, m, at = {}, ((1, 0), (0, 1)), base + 1
        for k in sorted(starts | ends.keys()):
            (a, b), (c, d) = m = step_product(word[at - base:k - base], m)
            at = k
            if k in starts:
                left[k] = (d - c, a - b)
            for f, n in ends.get(k, ()):
                dc, ab = left[f + 1]
                vals[n] = dc * (a + b) + ab * (c + d)
    return vals


def tile_value(e: Embedding, p: Point) -> int:
    """The tiling value at any lattice point; frontier vertices give 1."""
    return tile_values(e, [p])[0]


# ----------------------------------------------------------------------
# independent oracle: fill a rectangle from the frontier by 2x2 completions


def brute_fill_box(e: Embedding, region: Region) -> tuple[int, int, Region]:
    """Vertex indices lo..hi that brute_fill seeds, and the box it fills.

    lo is the last index <= 0 whose vertex is more than one cell left of
    and below the region, hi the first >= 0 more than one cell right of
    and above it, both read off the runs since coordinates never decrease
    along the path; the box spans the region and vertices lo..hi.
    """
    u0, v0, u1, v1 = region
    lo = min(0, e.column_run(u0 - 1)[0] - 1, e.row_run(v0 - 1)[0] - 1)
    hi = max(0, e.column_run(u1 + 1)[1] + 1, e.row_run(v1 + 1)[1] + 1)
    (a, b), (c, d) = e.vertex(lo), e.vertex(hi)
    return lo, hi, (min(a, u0), min(b, v0), max(c, u1), max(d, v1))


def brute_fill(e: Embedding, region: Region) -> dict[Point, int]:
    """Fill region (u0,v0,u1,v1) inclusive using only unimodular 2x2 blocks.

    Seeds 1 on every frontier vertex of brute_fill_box's box, then
    repeatedly solves any 2x2 block with exactly one unknown corner. The
    values share no code with tile_value: the runs size only the box, so
    an error in them leaves cells unreachable, not wrong.
    """
    u0, v0, u1, v1 = region
    if u0 > u1 or v0 > v1:
        raise ValueError("empty region %r" % (region,))
    lo, hi, (bu0, bv0, bu1, bv1) = brute_fill_box(e, region)
    walk = [e.vertex(i) for i in range(lo, hi + 1)]

    known: dict[Point, int] = {p: 1 for p in walk}
    pending = deque(known)

    def corners(a: int, b: int) -> tuple[Point, Point, Point, Point]:
        return (a, b), (a + 1, b), (a, b + 1), (a + 1, b + 1)

    def solve(a: int, b: int) -> None:
        sq = corners(a, b)
        missing = [q for q in sq if q not in known]
        if len(missing) != 1:
            return
        pa, pb, pc, pd = sq
        target = missing[0]
        va, vb, vc, vd = (known.get(q) for q in sq)
        # C*B - D*A = 1 with A,B the bottom and C,D the top corners
        if target == pa:
            num, den = vc * vb - 1, vd
        elif target == pd:
            num, den = vc * vb - 1, va
        elif target == pc:
            num, den = 1 + vd * va, vb
        else:
            num, den = 1 + vd * va, vc
        q, r = divmod(num, den)
        if r or q < 1:
            raise NonIntegralCompletion(
                "cell %r: %d / %d is not a positive integer" % (target, num, den)
            )
        known[target] = q
        pending.append(target)

    while pending:
        u, v = pending.popleft()
        for a in (u - 1, u):
            for b in (v - 1, v):
                if bu0 <= a and a + 1 <= bu1 and bv0 <= b and b + 1 <= bv1:
                    solve(a, b)

    missing = [(u, v) for u in range(u0, u1 + 1) for v in range(v0, v1 + 1) if (u, v) not in known]
    if missing:
        raise UnreachableCell("cells not determined: %s..." % (missing[:4],))
    return {(u, v): known[(u, v)] for u in range(u0, u1 + 1) for v in range(v0, v1 + 1)}


def tile_grid(e: Embedding, region: Region) -> dict[Point, int]:
    """The same rectangle as brute_fill, by one tile_values call."""
    u0, v0, u1, v1 = region
    if u0 > u1 or v0 > v1:
        raise ValueError("empty region %r" % (region,))
    points = [(u, v) for u in range(u0, u1 + 1) for v in range(v0, v1 + 1)]
    return dict(zip(points, tile_values(e, points)))


def verify_sl2(grid: Mapping[Point, Scalar]) -> int:
    """Check C*B - D*A = 1 on every complete 2x2 block; return their number.

    Each block of integers or Laurent polynomials goes through
    products_differ_by_one, so no ring product is formed; the first failing
    one raises ArithmeticError naming its corner A."""
    checked = 0
    for (u, v), va in grid.items():
        vb = grid.get((u + 1, v))
        vc = grid.get((u, v + 1))
        vd = grid.get((u + 1, v + 1))
        if vb is None or vc is None or vd is None:
            continue
        if not products_differ_by_one(vc, vb, vd, va):
            raise ArithmeticError("unimodularity fails at the block with corner %r" % ((u, v),))
        checked += 1
    return checked


# ----------------------------------------------------------------------
# rays


@dataclass(frozen=True)
class Ray:
    origin: Point
    direction: Point
    values: tuple[int, ...]


def ray_values(e: Embedding, origin: Point, direction: Point, count: int) -> Ray:
    """Values t(origin + n*direction) for n = 0..count-1.

    One tile_values call; on each side of the frontier the ray's words are
    nested, so the walk is no longer than the word at its end on that side.
    """
    a, b = direction
    if (a, b) == (0, 0):
        raise ValueError("direction must be nonzero")
    if a * b > 0:
        raise ValueError("direction (%d,%d) must satisfy a*b <= 0" % (a, b))
    if count < 0:
        raise ValueError("count must be at least 0, got %d" % count)
    points = [(origin[0] + n * a, origin[1] + n * b) for n in range(count)]
    return Ray(origin, direction, tuple(tile_values(e, points)))


# ----------------------------------------------------------------------
# frontiers with a distinguished corner: perfect squares and triples


class SquareEmbedding(Embedding):
    """Embedding of ts . y x^h y . s with the corner vertices exposed.

    The ray i runs right from the corner, and j and k run diagonally below
    it. s may be a plain block (purely periodic) or a (head, block) pair
    for an ultimately periodic right side.
    """

    def __init__(self, s: Union[str, tuple[str, str]], h: int):
        if h < 0:
            raise ValueError("h must be a natural number")
        head, block = ("", s) if isinstance(s, str) else s
        _check_letters(head, "head")
        center = transpose_word(head) + "y" + "x" * h + "y" + head
        super().__init__(Frontier(transpose_word(block), center, block))
        self.h = h
        self._corner_index = len(head) + h + 1

    @property
    def point_i(self) -> Point:
        return self.vertex(self._corner_index)

    @property
    def point_j(self) -> Point:
        u, v = self.point_i
        return (u, v - 1)

    @property
    def point_k(self) -> Point:
        u, v = self.point_i
        return (u, v - 2)

    def i_values(self, count: int) -> tuple[int, ...]:
        return ray_values(self, self.point_i, (1, 0), count).values

    def j_values(self, count: int) -> tuple[int, ...]:
        return ray_values(self, self.point_j, (1, -1), count).values

    def k_values(self, count: int) -> tuple[int, ...]:
        return ray_values(self, self.point_k, (1, -1), count).values

    def k_right_values(self, count: int) -> tuple[int, ...]:
        u, v = self.point_j
        return ray_values(self, (u + 1, v), (1, -1), count).values


def _square_checks(i: Sequence[int], j: Sequence[int], k: Sequence[int], w: int,
                   n_max: int) -> list[dict]:
    """j_n = w i_n^2 and k_n + 1 = w i_n i_{n+1}, for each n <= n_max."""
    return [{"n": n, "square_ok": j[n] == w * i[n] ** 2,
             "product_ok": k[n] + 1 == w * i[n] * i[n + 1]} for n in range(n_max + 1)]


def verify_square_lemma(e: SquareEmbedding, n_max: int) -> list[dict]:
    """Check j_n = (h+1) i_n^2 and k_n + 1 = (h+1) i_n i_{n+1} for n <= n_max."""
    return _square_checks(e.i_values(n_max + 2), e.j_values(n_max + 1), e.k_values(n_max + 1),
                          e.h + 1, n_max)


def pythagorean_triple(e: SquareEmbedding, n: int) -> tuple[int, int, int]:
    """(j_{n+1}+j_n, j_{n+1}-j_n, k_n+k'_n), a Pythagorean triple."""
    j = e.j_values(n + 2)
    k = e.k_values(n + 1)
    kr = e.k_right_values(n + 1)
    a, b, c = j[n + 1] + j[n], j[n + 1] - j[n], k[n] + kr[n]
    if a * a != b * b + c * c:
        raise NotPythagorean("(%d, %d, %d) at n = %d" % (a, b, c, n))
    return (a, b, c)


# ----------------------------------------------------------------------
# the periodic frontier of the quadratic construction


class PeriodicFrontier(Frontier):
    """Frontier ^inf(w x y^h x tw x y^h' x)(w y x^h y tw y x^h' y)^inf.

    It is transpose-symmetric about both corners by construction, for every
    (w, h, h'): the transposed left block y x^h' y . w . y x^h y . tw is a
    rotation of the right block, so the letters leftward from k - 1 (k = |w|)
    transpose to those rightward from the upper corner k + h + 2, and those
    leftward from the lower corner -(h' + 3) to those rightward from 0.
    """

    __slots__ = ("w", "h", "hp")

    def __init__(self, w: str, h: int, hp: int):
        _check_letters(w, "w")
        if h < 0 or hp < 0:
            raise ValueError("h and h' must be natural numbers")
        tw = transpose_word(w)
        left = w + "x" + "y" * h + "x" + tw + "x" + "y" * hp + "x"
        right = w + "y" + "x" * h + "y" + tw + "y" + "x" * hp + "y"
        super().__init__(left, "", right)
        self.w = w
        self.h = h
        self.hp = hp


def verify_quadratic_lemma(e: Embedding, n_max: int) -> dict:
    """Check the four-case diagonal recursion along w, plus the primed
    square and product identities, on the periodic frontier embedding."""
    fr = e.frontier
    if not isinstance(fr, PeriodicFrontier):
        raise TypeError("embedding must come from a PeriodicFrontier")
    k = len(fr.w)
    b = [ray_values(e, e.vertex(j), (1, -1), n_max + 2).values for j in range(k + 1)]
    cases = []
    for j in range(1, k):
        pair = fr.w[j - 1] + fr.w[j]
        for n in range(n_max + 1):
            # the frise rule on the path oriented by w: in-neighbours at n + 1, out at n
            rhs = b[j - 1][n + (pair[0] == "x")] * b[j + 1][n + (pair[1] == "y")]
            cases.append(
                {"j": j, "n": n, "pair": pair, "ok": b[j][n] * b[j][n + 1] == 1 + rhs}
            )
    iu, iv = e.vertex(-(fr.hp + 1))
    ip = ray_values(e, (iu, iv), (0, -1), n_max + 2).values
    jp = ray_values(e, (iu + 1, iv), (1, -1), n_max + 1).values
    kp = ray_values(e, (iu + 2, iv), (1, -1), n_max + 1).values
    primed = _square_checks(ip, jp, kp, fr.hp + 1, n_max)
    all_ok = all(c["ok"] for c in cases) and all(
        p["square_ok"] and p["product_ok"] for p in primed
    )
    return {"cases": cases, "primed": primed, "all_ok": all_ok}
