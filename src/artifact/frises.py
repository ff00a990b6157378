"""Frise sequences attached to an acyclic valued quiver.

Every vertex j carries a sequence with a(j,0) = 1 and

    a(j,n) * a(j,n+1) = 1 + prod_{j->i} a(i,n)^e(i,j) * prod_{i->j} a(i,n+1)^e(i,j)

where e(i,j) is the valuation the neighbor i carries in j's own relation.
Out-neighbors contribute at the current step, in-neighbors at the next one,
so computing step n+1 in topological order needs no iteration. Acyclicity
makes the table well-defined; exactness of every division is checked rather
than assumed; verify_recursion rechecks it via products_differ_by_one.

Symbolic frises (u_1..u_d in row 0) take one of two routes:

- the ray route, for simply-laced oriented cycles: the Cartan matrix is
  the d-cycle 0-1-...-(d-1)-0 with d >= 3 and no valued edge (every
  Atilde_m with m >= 2 and every cycle_quiver). With w the quiver's
  orientation word (`diagrams.cycle_quiver`), row v is the variable
  tiling ray of ^inf(w)(w)^inf from vertex V_v in direction (1,-1),
  frontier vertex i carrying u_{(i mod d)+1}: bordered 2x2 step
  products over the initial variables, divided by a monomial, with no
  polynomial division (laurent.nested_word_values);
- the division route, for every other quiver: the relation above, one
  exact Laurent division per cell.
"""

from __future__ import annotations

from functools import reduce
from operator import mul
from typing import Optional, Sequence

from .diagrams import Quiver, _cycle_word
from .laurent import ExactDivisionError, LaurentPoly, nested_word_values, products_differ_by_one
from .tilings import Embedding, Frontier, word_span


class NonIntegralStep(ArithmeticError):
    """An integer frise division left a remainder."""

    def __init__(self, vertex: int, step: int, numerator: int, divisor: int):
        super().__init__(
            "vertex %d, step %d: %d is not divisible by %d" % (vertex, step, numerator, divisor)
        )
        self.vertex = vertex
        self.step = step


class NonMonomialDenominator(ArithmeticError):
    """A variable frise cell is not a Laurent polynomial."""

    def __init__(self, vertex: int, step: int):
        super().__init__("vertex %d, step %d: denominator is not a monomial" % (vertex, step))
        self.vertex = vertex
        self.step = step


class NegativeCoefficient(ArithmeticError):
    """A variable frise cell has a non-natural coefficient."""

    def __init__(self, vertex: int, step: int):
        super().__init__("vertex %d, step %d: negative coefficient" % (vertex, step))
        self.vertex = vertex
        self.step = step


class WindowTooShort(ValueError):
    """The computed window cannot certify three repetitions of the period."""


class Frise:
    """Integer frise table over 0..steps for each vertex."""

    __slots__ = ("quiver", "steps", "table")

    def __init__(self, quiver: Quiver, table: list[list[int]]):
        self.quiver = quiver
        self.steps = len(table[0]) - 1
        self.table = tuple(tuple(row) for row in table)

    def value(self, vertex: int, step: int) -> int:
        return self.table[vertex][step]

    def column(self, step: int) -> tuple:
        return tuple(row[step] for row in self.table)

    def row(self, vertex: int) -> tuple:
        return self.table[vertex]


def initial_variables(d: int) -> list[LaurentPoly]:
    return [LaurentPoly.var("u%d" % (j + 1)) for j in range(d)]


def _relations(quiver: Quiver, rows: Sequence[Sequence]) -> list[tuple[int, Sequence, list]]:
    """The relation of each vertex j, in topological order: (j, rows[j],
    factors), where a factor (rows[i], e(i,j), s) stands for
    rows[i][n + s] ** e(i,j) in the product at step n, s = 0 for an
    out-neighbor i and s = 1 for an in-neighbor."""
    plan = []
    for j in quiver.topological_order:
        factors = [(rows[i], quiver.exponent(i, j), 0) for i in quiver.out_neighbors(j)]
        factors += [(rows[i], quiver.exponent(i, j), 1) for i in quiver.in_neighbors(j)]
        plan.append((j, rows[j], factors))
    return plan


def _extend(quiver: Quiver, steps: int, first, mul_unit, divide):
    rows = [[first(j)] for j in range(quiver.cartan.d)]
    plan = _relations(quiver, rows)
    for n in range(steps):
        for j, row, factors in plan:
            prod = mul_unit
            for other, e, s in factors:
                prod = prod * other[n + s] ** e
            row.append(divide(1 + prod, row[n], j, n + 1))
    return rows


def frise_extend(quiver: Quiver, steps: int) -> Frise:
    """Integer frise over 0..steps, every division checked exact."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")

    def divide(num: int, den: int, j: int, n: int) -> int:
        q, r = divmod(num, den)
        if r:
            raise NonIntegralStep(j, n, num, den)
        return q

    return Frise(quiver, _extend(quiver, steps, lambda j: 1, 1, divide))


def _natural(val: LaurentPoly, j: int, n: int) -> LaurentPoly:
    if not val.is_natural():
        raise NegativeCoefficient(j, n)
    return val


def _cycle_rows(w: str, steps: int) -> list[list[LaurentPoly]]:
    """Row v is the ray of ^inf(w)(w)^inf from V_v in direction (1,-1),
    with frontier vertex i carrying u_{(i mod d)+1}."""
    d = len(w)
    names = tuple("u%d" % (j + 1) for j in range(d))
    e = Embedding(Frontier(w, "", w))
    rows = []
    for v in range(d):
        u0, v0 = e.vertex(v)
        spans = [word_span(e, (u0 + n, v0 - n)) for n in range(1, steps + 1)]
        values = nested_word_values(names, lambda i: w[i % d], lambda i: i % d, spans)
        rows.append([LaurentPoly.var(names[v])]
                    + [_natural(val, v, n) for n, val in enumerate(values, 1)])
    return rows


def _division_rows(quiver: Quiver, steps: int) -> list[list[LaurentPoly]]:
    """The frise recursion itself, one exact Laurent division per cell."""
    init = initial_variables(quiver.cartan.d)

    def divide(num: LaurentPoly, den: LaurentPoly, j: int, n: int) -> LaurentPoly:
        try:
            val = num.exact_div(den)
        except ExactDivisionError as exc:
            raise NonMonomialDenominator(j, n) from exc
        return _natural(val, j, n)

    return _extend(quiver, steps, lambda j: init[j], LaurentPoly.nat(1), divide)


def check_variable_budget(d: int) -> None:
    """Refuse a symbolic frise of more than 16 initial variables; callers
    that know d from a rank call it before building the quiver."""
    if d > 16:
        raise ValueError("%d vertices exceeds the variable budget 16" % d)


def frise_extend_vars(quiver: Quiver, steps: int) -> Frise:
    """Frise with the initial row replaced by variables u_1..u_d.

    Each cell must come out as a Laurent polynomial with natural
    coefficients and a monomial denominator; any violation aborts loudly
    since it would falsify positivity for this input. Simply-laced
    oriented cycles take the ray route, every other quiver the division
    route (see the module docstring).
    """
    check_variable_budget(quiver.cartan.d)
    w = _cycle_word(quiver)
    rows = _division_rows(quiver, steps) if w is None else _cycle_rows(w, steps)
    return Frise(quiver, rows)


def verify_recursion(fr: Frise) -> None:
    """Recheck the defining relation at every computed cell; raise on failure.

    Each relation, integer or Laurent, is one products_differ_by_one call:
    with its factors flattened to powers (e copies of a factor of exponent
    e), s is the last power (1 for A1) and r the ring product of the rest,
    so r*s is the right-hand product and two powers or fewer form none."""
    plan = _relations(fr.quiver, fr.table)
    for n in range(fr.steps):
        for j, row, factors in plan:
            powers = [other[n + s] for other, e, s in factors for _ in range(e)]
            last = powers.pop() if powers else 1
            rest = reduce(mul, powers) if powers else 1
            if not products_differ_by_one(row[n], row[n + 1], rest, last):
                raise ValueError("relation fails at vertex %d, step %d" % (j, n))


def specialize_at_one(vf: Frise) -> Frise:
    """Set every variable to 1, reproducing the integer frise cell by cell."""
    table = [[cell.at_ones() for cell in row] for row in vf.table]
    return Frise(vf.quiver, table)


def detect_period(fr: Frise) -> Optional[tuple[int, int]]:
    """Smallest (preperiod n0, period p) visible in the table, certified.

    Certification needs three full repetitions of the period inside the
    window: n0 + 3p <= steps + 1. A visible but uncertifiable match raises
    WindowTooShort; no visible match returns None.
    """
    N = fr.steps
    cols = list(zip(*fr.table))
    uncertified = None
    for p in range(1, N + 1):
        n = N - p  # scan back to the last mismatch; n0 is the step after it
        while n >= 0 and cols[n] == cols[n + p]:
            n -= 1
        n0 = n + 1
        if n0 > N - p:
            continue  # vacuous for this p
        if n0 + 3 * p <= N + 1:
            return (n0, p)
        if uncertified is None:
            uncertified = (n0, p)
    if uncertified is not None:
        n0, p = uncertified
        raise WindowTooShort(
            "period %d from step %d needs %d columns to certify, have %d"
            % (p, n0, n0 + 3 * p, N + 1)
        )
    return None
