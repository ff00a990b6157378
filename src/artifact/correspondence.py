"""Frise tables on affine quivers realized as rays inside SL2-tilings.

An orientation word w over {x, y} of length m+1 turns the (m+1)-cycle
into an acyclic quiver, and the frise row of vertex v equals the
(1,-1)-diagonal ray of the tiling with frontier ^inf(w) (w)^inf starting
at the frontier vertex V_v. cycle_check verifies this cell by cell.

The forked diagram on m+1 vertices (two short arms at each end of a
path) is covered the same way through the notched periodic frontier
built from the interior word: fork_table assembles the frise table from
corner and diagonal rays of that frontier, certified by verify_recursion,
and fork_check compares it with frise_extend. probe_conjecture runs the
growth/linear recurrence dichotomy on any quiver and reports whether the
outcome is consistent with its diagram class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagrams import EUCLIDEAN_SERIES, Quiver, _fork_quiver, classify, cycle_quiver
from .frises import Frise, WindowTooShort, detect_period, frise_extend, verify_recursion
from .recurrences import find_min_recurrence
from .tilings import Embedding, Frontier, PeriodicFrontier, ray_values


def cycle_check(w: str, steps: int = 12) -> dict:
    """Frise rows of cycle_quiver(w) against diagonal rays of ^inf(w)(w)^inf.

    Row v must equal the ray from frontier vertex V_v in direction
    (1, -1), value for value. Any mismatch raises.
    """
    quiver = cycle_quiver(w)
    fr = frise_extend(quiver, steps)
    e = Embedding(Frontier(w, "", w))
    for v in range(len(w)):
        ray = ray_values(e, e.vertex(v), (1, -1), steps + 1).values
        if ray != fr.row(v):
            raise AssertionError(
                "vertex %d of %r: frise row %s != ray %s" % (v, w, fr.row(v), ray)
            )
    return {"word": w, "vertices": len(w), "steps": steps, "ok": True}


# ----------------------------------------------------------------------
# forked diagrams through the notched periodic frontier


class ForkRelationFails(ArithmeticError):
    """An assembled fork table breaks one of its own step relations."""


@dataclass(frozen=True)
class ForkSpec:
    """Forked diagram on m+1 vertices with interior word of length m-3.

    Vertices 0 and 1 fork into 2, a path runs 2..m-2, and m-1, m hang off
    m-2. The first letter is fixed to x (it records the near-fork choice);
    letter i of the word orients the path edge {i, i+1} for 2 <= i <= m-3.
    """

    m: int
    word: str

    def __post_init__(self):
        if self.m < 4:
            raise ValueError("forked diagram needs m >= 4")
        if set(self.word) - {"x", "y"}:
            raise ValueError("interior word must use only the letters x and y")
        if len(self.word) != self.m - 3:
            raise ValueError("interior word must have m - 3 letters")
        if self.word[0] != "x":
            raise ValueError("first interior letter is fixed to x")

    def frontier(self) -> PeriodicFrontier:
        return PeriodicFrontier(self.word, 1, 0)


def fork_quiver(spec: ForkSpec) -> Quiver:
    """The orientation of the forked diagram encoded by spec.word."""
    return _fork_quiver(spec.m, spec.word)


def fork_table(spec: ForkSpec, steps: int) -> tuple[tuple[int, ...], ...]:
    """Assemble the frise table of fork_quiver(spec) from tiling rays.

    On the h=1, h'=0 periodic frontier of the interior word: the two near
    branches both read the vertical ray i' at the lower corner, interior
    vertex j reads the diagonal ray from V_{j-1}, and the two far branches
    interleave the horizontal corner ray i with its double, offset by one
    step against each other. verify_recursion certifies every relation of
    the table; ForkRelationFails names the vertex and step of a failure.
    The doubled square a(m-1, n) * a(m, n+1) = 2 * i_n^2 holds by
    construction (its factors are i_n and 2 * i_n), so
    acceptance.check_correspondences checks it on frise_extend rows.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    e = Embedding(spec.frontier())
    i_vals = ray_values(e, e.vertex(len(spec.word) + 2), (1, 0), steps + 1).values
    ip_vals = ray_values(e, e.vertex(-1), (0, -1), steps + 1).values
    rows = [ip_vals, ip_vals]
    rows += [ray_values(e, e.vertex(j), (1, -1), steps + 1).values
             for j in range(1, len(spec.word) + 1)]
    rows.append(tuple(i_vals[n] * (1 + n % 2) for n in range(steps + 1)))
    rows.append((1,) + tuple(i_vals[n - 1] * (1 + n % 2) for n in range(1, steps + 1)))
    fr = Frise(fork_quiver(spec), rows)
    try:
        verify_recursion(fr)
    except ValueError as exc:
        raise ForkRelationFails("%r: %s" % (spec, exc)) from exc
    return fr.table


def fork_check(spec: ForkSpec, steps: int = 10) -> dict:
    """fork_table against the frise of fork_quiver, cell by cell."""
    table = fork_table(spec, steps)
    fr = frise_extend(fork_quiver(spec), steps)
    for v in range(spec.m + 1):
        if table[v] != fr.row(v):
            raise AssertionError(
                "vertex %d of %s: frise row %s != assembled row %s"
                % (v, spec, fr.row(v), table[v])
            )
    return {"m": spec.m, "word": spec.word, "steps": steps, "ok": True}


# ----------------------------------------------------------------------
# growth / recurrence dichotomy probe


def probe_conjecture(quiver: Quiver, steps: int = 16, max_order: int = 6) -> dict:
    """Run the boundedness and linear-recurrence probes on one quiver.

    Dynkin diagrams are expected to give a certified periodic (hence
    bounded) frise; the seven Euclidean series are expected to give an
    unbounded frise whose rows all satisfy a short linear recurrence.
    For exceptional Euclidean diagrams and everything indefinite the
    probe only reports what it saw: "consistent" is None there, True or
    False where an expectation exists, and None if an expected observation
    is: "bounded" is None when the window cannot certify a visible period.
    """
    diagram = classify(quiver.cartan)
    fr = frise_extend(quiver, steps)
    try:
        period = detect_period(fr)
        bounded = period is not None
    except WindowTooShort:
        period = bounded = None
    recs = [find_min_recurrence(fr.row(v), max_order) for v in range(quiver.cartan.d)]
    report = {
        "diagram": str(diagram),
        "tag": diagram.tag,
        "kind": diagram.kind,
        "m": diagram.m,
        "bounded": bounded,
        "period": period,
        "recurrence_orders": [r.order if r else None for r in recs],
        "recurrence_found": all(r is not None for r in recs),
    }
    expected: Optional[dict] = None
    if diagram.tag == "Dynkin":
        expected = {"bounded": True}
    elif diagram.tag == "Euclidean" and diagram.kind in EUCLIDEAN_SERIES:
        expected = {"bounded": False, "recurrence_found": True}
    report["expected"] = expected
    report["consistent"] = (
        None if expected is None or any(report[k] is None for k in expected)
        else all(report[k] == v for k, v in expected.items())
    )
    return report
