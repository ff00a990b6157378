"""Laurent-polynomial tilings, the cross construction, and small cluster types.

The matrix form of a below-point value generalizes from integers to
variables: a frontier word a0 l1 a1 ... l_{n+1} a_{n+1} evaluates to a
bordered product of per-letter 2x2 steps divided by the interior
variables, and the result is always a Laurent polynomial with natural
coefficients. Every value here is one word, so one route computes it: the
single-word walk `laurent.bordered_word_value`, which carries a row vector
of two packed entries from left to right (exponent shifts and additions on
packed keys, one canonical LaurentPoly per value). `variable_tile_value`
sends a tile's word through it, and so does every cell of the cross
construction, whose labels may be the constant 1 and whose north-east
region closes with a swapped column. The other step kernel,
`laurent.nested_word_values`, keeps the full 2x2 product for the frise
rays of `frises`, whose words grow at both ends.

The cross construction turns one variable word into a partial frieze:
the word and its transpose are laid out as two parallel staircases, two
diagonals of 1s close the figure, and the four regions delimited by the
central cross are filled by four bordered matrix products that agree on
the overlaps. Every figure passes `tilings.verify_sl2`, the one 2x2 check
of the package, once, with its cells keyed (c, -r). Repeating the
construction with the transposed word tiles a diagonal band whose
translation period is measured empirically (`frieze_period`); the
transposed word's figure is the figure transposed, so one is built.

The doubled-edge frise in two variables has a closed matrix-power form
and satisfies a subtraction-free linear recurrence; one period of a
symbolic type-A frise, or a window of an affine one, enumerates distinct
cluster variables with certified positivity (`enumerate_cluster_vars`).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

from .diagrams import default_quiver
from .frises import WindowTooShort, check_variable_budget, frise_extend_vars
from .laurent import LaurentPoly, bordered_word_value, sorted_distinct
from .tilings import Embedding, InconsistentGeometry, Point, transpose_word, verify_sl2


class RegionOutsideComponents(ValueError):
    """A requested cell is not part of the constructed figure."""


class InconsistentOverlap(ArithmeticError):
    """Two computations of the same frieze cell disagree."""


class NonNaturalVariable(ArithmeticError):
    """An enumerated cluster variable has a non-natural coefficient."""


def _scalar(name: str) -> LaurentPoly:
    return LaurentPoly.nat(1) if name == "1" else LaurentPoly.var(name)


def variable_tile_value(e: Embedding, names: Callable[[int], str], p: Point) -> LaurentPoly:
    """Laurent value at p of the tiling whose frontier holds variables.

    names(i) is the name of the variable sitting on frontier vertex i (a
    str; "1" is a variable name here, not the constant). Vertices give
    their own variable; a below point's word goes through
    `bordered_word_value`; above points go through the mirrored frontier
    exactly as in the integer tiling.
    """
    side, first, last = e.locate(p)
    if side == "on":
        if e.vertex(first) != p:
            raise InconsistentGeometry("point %r is on the frontier but not vertex %d" % (p, first))
        return LaurentPoly.var(names(first))
    if side == "above":
        e = e.mirror()
    return bordered_word_value([names(i) for i in range(first, last + 2)],
                               e.frontier.factor(first, last + 1))


# ----------------------------------------------------------------------
# the cross construction


@dataclass(frozen=True)
class CrossSeed:
    """A word of variables: names[0] letters[0] names[1] ... names[-1].

    Letters range over x and y; a name of "1" stands for the constant 1,
    anything else is a variable label.
    """

    letters: str
    names: tuple[str, ...]

    def __post_init__(self):
        if not self.letters or set(self.letters) - {"x", "y"}:
            raise ValueError("letters must be a nonempty word over x and y")
        if len(self.names) != len(self.letters) + 1:
            raise ValueError("need one more name than letters")
        for name in self.names:
            if not name or name in ("x", "y"):
                raise ValueError("bad variable name %r" % (name,))

    @classmethod
    def parse(cls, word: str) -> "CrossSeed":
        """Split an alternating single-character word like 'aybycxd'."""
        if len(word) < 3 or len(word) % 2 == 0:
            raise ValueError("word must alternate names and letters")
        return cls(word[1::2], tuple(word[0::2]))

    @classmethod
    def ones(cls, letters: str) -> "CrossSeed":
        return cls(letters, ("1",) * (len(letters) + 1))

    def transposed(self) -> "CrossSeed":
        return CrossSeed(transpose_word(self.letters), tuple(reversed(self.names)))

    @property
    def x_count(self) -> int:
        return self.letters.count("x")

    @property
    def y_count(self) -> int:
        return self.letters.count("y")


@dataclass(eq=False)
class FriezePattern:
    """A seed's figure: its partial grid of Laurent values, and the number of
    filled 2x2 blocks of det 1 that `cross_construct`'s minor check counted."""

    seed: CrossSeed
    cells: dict
    minors: int

    def value(self, row: int, col: int) -> LaurentPoly:
        try:
            return self.cells[(row, col)]
        except KeyError:
            raise RegionOutsideComponents("cell (%d, %d) is empty" % (row, col)) from None

    def minor_check(self) -> int:
        """Verify det = 1 on every fully filled 2x2 block; return the count.

        Rows grow downward, so cell (r, c) is the tiling point (c, -r), and a
        failing block is named by its lower-left cell in those coordinates."""
        return verify_sl2({(c, -r): v for (r, c), v in self.cells.items()})


class _CrossFigure:
    """Geometry of one cross figure: two staircases, hits, and regions.

    Rows grow downward. The seed word climbs from (y_count+1, 0) up to
    (0, x_count+1) once extended by a leading and trailing 1; the
    transposed word climbs the parallel staircase from (size, x_count+2)
    to (y_count+2, size), with its own two 1s. Two diagonals of 1s close
    the figure at the top right and bottom left.
    """

    def __init__(self, seed: CrossSeed):
        self.X, self.Y = seed.x_count, seed.y_count
        self.S = self.X + self.Y + 2
        self.K = len(seed.letters) + 2
        # the seed's names with the two closing 1s; the south-east staircase
        # carries them in reverse, so read backwards it has the same labels
        self.names = ("1",) + seed.names + ("1",)
        self.labels = [None if name == "1" else name for name in self.names]  # None: the constant 1

        self.nw_letters = "y" + seed.letters + "x"
        self.nw_pos = self._walk((self.Y + 1, 0), self.nw_letters)

        self.se_letters = "x" + transpose_word(seed.letters) + "y"
        self.se_pos = self._walk((self.S, self.X + 1), self.se_letters)
        self.se_reversed = self.se_letters[::-1]

        self.nw_row_hit = {}
        self.nw_col_hit = {}
        for i, (r, c) in enumerate(self.nw_pos):
            self.nw_row_hit[r] = max(i, self.nw_row_hit.get(r, i))
            self.nw_col_hit.setdefault(c, i)
        self.se_row_hit = {}
        self.se_col_hit = {}
        for t, (r, c) in enumerate(self.se_pos):
            self.se_row_hit.setdefault(r, t)
            self.se_col_hit[c] = max(t, self.se_col_hit.get(c, t))

    @staticmethod
    def _walk(start, letters):
        pos = [start]
        for ch in letters:
            r, c = pos[-1]
            pos.append((r - 1, c) if ch == "y" else (r, c + 1))
        return pos

    def boundary(self) -> dict:
        one = LaurentPoly.nat(1)
        cells = {}
        for p, name in zip(self.nw_pos, self.names):
            cells[p] = _scalar(name)
        for p, name in zip(self.se_pos, reversed(self.names)):
            cells[p] = _scalar(name)
        for m in range(self.Y + 2):  # top-right diagonal of 1s
            cells[(m, self.X + 1 + m)] = one
        for m in range(self.X + 2):  # bottom-left diagonal of 1s
            cells[(self.Y + 1 + m, m)] = one
        return cells

    # Each region reads a factor of one staircase between the two hits of
    # the cell's projections, as one word of the single-word walk. The inner
    # region keeps both plain borders, the right one swaps the closing
    # column, and the south-east one reads the transposed staircase backwards.

    def _word(self, letters: str, f: int, l: int, col_swap: bool = False) -> LaurentPoly:
        return bordered_word_value(self.labels[f:l + 2], letters[f:l + 1], col_swap)

    def nw_cells(self):
        for c in range(self.X + 2):
            floor = self.nw_pos[self.nw_col_hit[c]][0]
            for r in range(floor + 1, self.Y + 2):
                yield r, c

    def nw_value(self, r: int, c: int) -> LaurentPoly:
        return self._word(self.nw_letters, self.nw_row_hit[r], self.nw_col_hit[c] - 1)

    def ne_cells(self):
        for r in range(1, self.Y + 2):
            for c in range(self.X + 1, self.X + r + 1):
                yield r, c

    def ne_value(self, r: int, c: int) -> LaurentPoly:
        return self._word(self.nw_letters, self.nw_row_hit[r], self.K - self.se_col_hit[c] - 1,
                          col_swap=True)

    def se_cells(self):
        for c in range(self.X + 1, self.S + 1):
            top = self.se_pos[self.se_col_hit[c]][0]
            for r in range(self.Y + 1, top):
                yield r, c

    def se_value(self, r: int, c: int) -> LaurentPoly:
        # vertex t of the south-east staircase is vertex K - t read backwards
        return self._word(self.se_reversed, self.K - self.se_row_hit[r],
                          self.K - self.se_col_hit[c] - 1)


def cross_construct(seed: CrossSeed) -> FriezePattern:
    """Fill the figure of a seed word.

    Overlaps between the four regions are recomputed and compared, and the
    whole grid passes the unimodularity check before being returned.
    """
    fig = _CrossFigure(seed)
    mirrored = _CrossFigure(seed.transposed())
    cells = fig.boundary()

    def put(p, v):
        old = cells.get(p)
        if old is not None and old != v:
            raise InconsistentOverlap("inconsistent overlap at %r" % (p,))
        cells[p] = v

    for r, c in fig.nw_cells():
        put((r, c), fig.nw_value(r, c))
    for r, c in fig.ne_cells():
        put((r, c), fig.ne_value(r, c))
    for r, c in fig.se_cells():
        put((r, c), fig.se_value(r, c))
    for r, c in mirrored.ne_cells():  # the far-left region, seen transposed
        put((c, r), mirrored.ne_value(r, c))

    pattern = FriezePattern(seed, cells, 0)
    pattern.minors = pattern.minor_check()
    return pattern


def frieze_period(pattern: FriezePattern, stages: int = 4) -> dict:
    """Repeat the construction with transposed words and measure its period.

    Consecutive figures share a staircase: the transposed word of one is
    the seed of the next, and transposing twice gives the seed back. The
    transposed seed's figure is the pattern with cell (r, c) moved to
    (c, r), so no figure is built here: its boundary (two staircases and two
    diagonals of 1s) is this boundary transposed, transposition keeps the
    C*B - D*A of every 2x2 block, and every other cell is the unique 2x2
    completion from the boundary (the brute refill of the tests). The
    smallest diagonal translation (p, p) that matches every overlapping
    cell, with at least one figure's worth of evidence, is reported next to
    the book-keeping candidate letters+3 (the same number as variables+2).
    """
    if stages < 3:
        raise ValueError("need at least three figures to certify a period")
    seed = pattern.seed
    step_r, step_c = seed.y_count + 2, seed.x_count + 2
    # each figure's cells and the offset from its corner to the next one's
    figures = [(pattern.cells, step_r, step_c),
               ({(c, r): v for (r, c), v in pattern.cells.items()}, step_c, step_r)]
    union: dict = {}
    off_r = off_c = 0
    for stage in range(stages):
        cells, step_r, step_c = figures[stage % 2]
        for (r, c), v in cells.items():
            p = (r + off_r, c + off_c)
            old = union.get(p)
            if old is not None and old != v:
                raise InconsistentOverlap("stitch mismatch at %r" % (p,))
            union[p] = v
        off_r += step_r
        off_c += step_c
    figure_cells = len(figures[0][0])

    k = len(seed.letters)
    for p in range(1, max(r for r, _ in union) + 1):
        pairs = [(q, (q[0] + p, q[1] + p)) for q in union if (q[0] + p, q[1] + p) in union]
        if len(pairs) < figure_cells:
            break
        if all(union[a] == union[b] for a, b in pairs):
            return {
                "period": p,
                "letters": k,
                "variables": k + 1,
                "candidate_letters_plus_3": k + 3,
                "matches_letters_plus_3": p == k + 3,
                "anti_palindrome": transpose_word(seed.letters) == seed.letters,
                "stages": stages,
                "cells": len(union),
            }
    raise WindowTooShort("no translation period certified within %d stages" % stages)


# ----------------------------------------------------------------------
# the doubled edge in two variables


def kronecker_closed_form(n: int) -> LaurentPoly:
    """n-th value of the doubled-edge frise seeded with the pair (u1, u2).

    A power of one fixed 2x2 matrix bordered by (1, u2) on both sides,
    divided by u1^(n-1) u2^(n-2); it satisfies u_{n+2} u_n = 1 + u_{n+1}^2
    with u_0 = u1 and u_1 = u2. It is the last value of `_kronecker_values`.
    """
    if n < 2:
        raise ValueError("the closed form starts at n = 2")
    return deque(_kronecker_values(n), maxlen=1)[0]


def _kronecker_values(bound: int) -> Iterator[LaurentPoly]:
    """The closed form at n = 2, ..., bound, from one walk over the powers."""
    pa, pb = LaurentPoly.var("u1"), LaurentPoly.var("u2")
    m0, m1, m2 = pa * pa + 1, pb, pb * pb  # the matrix [[m0, m1], [m1, m2]]
    # its powers are symmetric too, so [[p, q], [q, s]] holds the product
    p, q, s = LaurentPoly.nat(1), LaurentPoly.nat(0), LaurentPoly.nat(1)
    for n in range(2, bound + 1):
        if n > 2:
            p, q, s = p * m0 + q * m1, p * m1 + q * m2, q * m1 + s * m2
        bordered = p + (q + q) * pb + s * m2
        yield bordered.monomial_div(LaurentPoly.monomial(1, {"u1": n - 1, "u2": n - 2}))


# ----------------------------------------------------------------------
# cluster variables of the small types


def enumerate_cluster_vars(kind: str, bound: int = 8) -> list:
    """Distinct cluster variables of type A(n) or Atilde(m) as Laurent polys.

    kind is A<n>, Atilde<m> or kronecker, with the catalog's meaning
    (`diagrams.parse_shorthand`): Atilde<m> is the (m+1)-cycle, except
    that Atilde11 is the Kronecker diagram and Atilde12, the other
    two-vertex Euclidean diagram, is refused. A(n) is finite: one full
    period of the symbolic frise visits every variable. Atilde(m) is
    infinite, so the frise is windowed to `bound` steps (for the doubled
    edge m = 1, the closed form supplies the sequence). The frise runs on
    `diagrams.default_quiver` of the type, and the rank is held to the
    variable budget of `frise_extend_vars` before that quiver is built.
    Every returned value has natural coefficients over a monomial
    denominator. The list is duplicate-free and sorted by variable tuple,
    then by terms in lexicographic exponent order (`sorted_distinct`).
    """
    name = kind.strip().lower().replace(" ", "").replace("(", "").replace(")", "")
    if name == "atilde12":
        raise ValueError("Atilde12 is the two-vertex Euclidean diagram with valuation (1, 4), "
                         "not a cycle; cluster-vars takes A<n>, Atilde<m> or kronecker")
    name = "atilde1" if name in ("kronecker", "atilde11") else name
    matched = re.fullmatch(r"(atilde|a)([0-9]+)", name)
    if not matched:
        raise ValueError("unrecognized type %r" % (kind,))
    series, m = "Atilde" if matched.group(1) == "atilde" else "A", int(matched.group(2))
    if m < 1:
        raise ValueError("rank must be at least 1")
    if bound < 1:
        raise ValueError("bound must be at least 1")

    if series == "Atilde" and m == 1:
        found = [LaurentPoly.var("u1"), LaurentPoly.var("u2"), *_kronecker_values(bound)]
        bad = [v for v in found if not v.is_natural()]  # no frise check covers the closed form
        if bad:
            raise NonNaturalVariable("cluster variable %s has a non-natural coefficient" % bad[0])
    else:
        check_variable_budget(m if series == "A" else m + 1)
        quiver = default_quiver(series, m)
        # one period of A(n) is n + 3 columns; frise_extend_vars checks every
        # cell for natural coefficients
        table = frise_extend_vars(quiver, m + 2 if series == "A" else bound).table
        found = [v for row in table for v in row]
    return sorted_distinct(found)
