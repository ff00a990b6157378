"""The four benchmark workloads: inputs made from a seed, operations, oracles.

Each workload is a list of operations built once per run. An operation is
one call into the library (through module attributes, so a traced run sees
the wrapped functions) and an oracle that checks its answer without
redoing the same computation:

- probe: ``probe_conjecture`` on every catalog diagram of rank 1..6. The
  oracle reruns the recurrence search with Berlekamp-Massey, an
  independent algorithm, and checks its recurrence with
  ``verify_recurrence``.
- symbolic-frise: symbolic frises and cluster variables. The oracle checks
  positivity and compares each value at all ones (its coefficient sum)
  with the integer frise.
- symbolic-tiles: 8x8 windows of variable tilings with all their 2x2
  minors, each placed where it straddles its frontier most tightly. The
  oracle checks positivity, monomial denominators, minors equal to 1 and
  the value at all ones against the integer tiling.
- integer-tiles: 12x12 integer windows, checked against ``brute_fill``,
  and long rays, checked against digests recorded once with
  ``brute_fill`` (see record_rays.py).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from artifact import cluster, correspondence, diagrams, frises, laurent, recurrences, tilings

HERE = Path(__file__).resolve().parent
RAYS_FILE = HERE / "rays.json"

PROBE_STEPS = 60
PROBE_MAX_ORDER = 16


@dataclass(frozen=True)
class Op:
    """One timed call and the oracle for its answer (None when right)."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


# ----------------------------------------------------------------------
# probe


def _berlekamp_massey(seq: list[int]) -> list[Fraction]:
    """Shortest recurrence u[n] = c[0] u[n-1] + ... + c[L-1] u[n-L] over Q."""
    s = [Fraction(x) for x in seq]
    conn, prev = [Fraction(1)], [Fraction(1)]
    length, shift, last = 0, 1, Fraction(1)
    for n in range(len(s)):
        d = s[n] + sum(conn[i] * s[n - i] for i in range(1, length + 1))
        if d == 0:
            shift += 1
            continue
        saved = conn[:]
        conn = conn + [Fraction(0)] * max(0, len(prev) + shift - len(conn))
        for i, x in enumerate(prev):
            conn[i + shift] -= d / last * x
        if 2 * length <= n:
            length, prev, last, shift = n + 1 - length, saved, d, 1
        else:
            shift += 1
    conn = conn + [Fraction(0)] * (length + 1 - len(conn))
    return [-c for c in conn[1:length + 1]]


def _check_probe(kind: str, m: int, quiver, report: dict) -> Optional[str]:
    if (report["kind"], report["m"]) != (kind, m):
        return "classified as %s, expected %s%d" % (report["diagram"], kind, m)
    if report["consistent"] is False:
        return "outcome inconsistent with the diagram class"
    fr = frises.frise_extend(quiver, PROBE_STEPS)
    for v, got in enumerate(report["recurrence_orders"]):
        row = fr.row(v)
        coeffs = _berlekamp_massey(list(row))
        want = len(coeffs) if len(coeffs) <= PROBE_MAX_ORDER else None
        if got != want:
            return "row %d: recurrence order %s, Berlekamp-Massey gives %s" % (v, got, want)
        if want is not None and not recurrences.verify_recurrence(
            row, recurrences.LinearRecurrence(tuple(coeffs))
        ):
            return "row %d: the order-%d recurrence does not reproduce the row" % (v, want)
    return None


def _probe_ops(seed: int, size: str) -> list[Op]:
    max_rank = 6 if size == "full" else 3
    ops = []
    for d in range(1, max_rank + 1):
        for _, kind, m, _ in diagrams.catalog_members(d):
            q = diagrams.default_quiver(kind, m)
            ops.append(Op(
                "%s%d" % (kind, m),
                lambda q=q: correspondence.probe_conjecture(
                    q, steps=PROBE_STEPS, max_order=PROBE_MAX_ORDER),
                lambda rep, kind=kind, m=m, q=q: _check_probe(kind, m, q, rep),
            ))
    return ops


# ----------------------------------------------------------------------
# symbolic-frise


def _coefficient_sum(p) -> int:
    return sum(p.terms.values())


def _check_value_set(values, integer_cells: set[int]) -> Optional[str]:
    if not all(v.is_natural() for v in values):
        return "a cluster variable has a non-natural coefficient"
    if {_coefficient_sum(v) for v in values} != integer_cells:
        return "values at all ones differ from the integer frise"
    return None


def _check_enumerate_a(n: int, values) -> Optional[str]:
    if len(values) != n * (n + 3) // 2:
        return "A%d gives %d cluster variables, expected %d" % (n, len(values), n * (n + 3) // 2)
    fr = frises.frise_extend(diagrams.default_quiver("A", n), n + 2)
    return _check_value_set(values, {c for row in fr.table for c in row})


def _check_enumerate_atilde(m: int, bound: int, values) -> Optional[str]:
    if m == 1:
        fr = frises.frise_extend(diagrams.parse_shorthand("kronecker"), bound // 2 + 1)
        cells = {fr.value(n % 2, n // 2) for n in range(bound + 1)}
    else:
        fr = frises.frise_extend(diagrams.default_quiver("Atilde", m), bound)
        cells = {c for row in fr.table for c in row}
    return _check_value_set(values, cells)


def _check_var_table(quiver, steps: int, table) -> Optional[str]:
    fr = frises.frise_extend(quiver, steps)
    for v, row in enumerate(table):
        for n, cell in enumerate(row):
            if not cell.is_natural():
                return "vertex %d, step %d: non-natural coefficient" % (v, n)
            if _coefficient_sum(cell) != fr.value(v, n):
                return "vertex %d, step %d: value at all ones differs from the integer frise" % (
                    v, n)
    return None


def _symbolic_frise_ops(seed: int, size: str) -> list[Op]:
    if size == "full":
        a_ranks, atilde, bound = range(1, 6), (1, 2, 3), 10
        words = ("xxy", "xyy", "xxyy", "xyxy", "xxxy")
    else:
        a_ranks, atilde, bound, words = range(1, 4), (1, 2), 4, ("xxy",)
    ops = []
    for n in a_ranks:
        ops.append(Op(
            "A%d" % n,
            lambda n=n: cluster.enumerate_cluster_vars("A%d" % n),
            lambda vs, n=n: _check_enumerate_a(n, vs),
        ))
    for m in atilde:
        ops.append(Op(
            "Atilde%d" % m,
            lambda m=m: cluster.enumerate_cluster_vars("Atilde%d" % m, bound=bound),
            lambda vs, m=m: _check_enumerate_atilde(m, bound, vs),
        ))
    for w in words:
        q = correspondence.cycle_quiver(w)
        ops.append(Op(
            "cycle-" + w,
            lambda q=q: frises.frise_extend_vars(q, bound).table,
            lambda table, q=q: _check_var_table(q, bound, table),
        ))
    return ops


# ----------------------------------------------------------------------
# random frontiers (the generator of the verify suite)


def random_frontier(rng: random.Random) -> tilings.Frontier:
    def block() -> str:
        n = rng.randint(2, 5)
        letters = ["x", "y"] + [rng.choice("xy") for _ in range(n - 2)]
        rng.shuffle(letters)
        return "".join(letters)

    center = "".join(rng.choice("xy") for _ in range(rng.randint(0, 4)))
    return tilings.Frontier(block(), center, block())


# ----------------------------------------------------------------------
# symbolic-tiles

SIDE = 8  # windows are SIDE x SIDE cells
OFFSETS = range(-8, 2)  # candidate lower-left corners, as in the verify suite
SYMBOLIC_WINDOWS = {"full": 72, "tiny": 1}


def _runs(frontier: tilings.Frontier, lo: int, hi: int):
    """Walk the frontier across [lo, hi] in both coordinates.

    Returns the vertex positions by index and, per column and per row, the
    first and last vertex index on it. Vertex 0 sits at (0, 0); x steps
    (1, 0) and y steps (0, 1), as in tilings.Embedding.
    """
    pos = {0: (0, 0)}
    i, (u, v) = 0, (0, 0)
    while u <= hi + 1 or v <= hi + 1:
        u, v = (u + 1, v) if frontier.letter(i) == "x" else (u, v + 1)
        i += 1
        pos[i] = (u, v)
    i, (u, v) = 0, (0, 0)
    while u >= lo - 1 or v >= lo - 1:
        u, v = (u - 1, v) if frontier.letter(i - 1) == "x" else (u, v - 1)
        i -= 1
        pos[i] = (u, v)
    cols, rows = {}, {}
    for i in sorted(pos):
        u, v = pos[i]
        cols.setdefault(u, [i, i])[1] = i
        rows.setdefault(v, [i, i])[1] = i
    return pos, cols, rows


def tight_window(frontier: tilings.Frontier) -> tuple[int, int]:
    """Lower-left corner of the SIDE x SIDE window that straddles the frontier
    with the shortest longest word, by the rule of the verify suite.

    Computed from the frontier walk here, not by the library, so that
    building the inputs costs almost nothing.
    """
    lo, hi = OFFSETS[0], OFFSETS[-1] + SIDE - 1
    pos, cols, rows = _runs(frontier, lo, hi)
    span = range(lo, hi + 1)
    side = np.zeros((len(span), len(span)), dtype=np.int64)
    length = np.zeros_like(side)
    for a, u in enumerate(span):
        for b, v in enumerate(span):
            if v < pos[cols[u][0]][1]:  # below: word from row v to column u
                side[a, b], length[a, b] = -1, cols[u][0] - rows[v][1]
            elif v > pos[cols[u][1]][1]:  # above: the mirrored word
                side[a, b], length[a, b] = 1, rows[v][0] - cols[u][1]
    windows = np.lib.stride_tricks.sliding_window_view(side, (SIDE, SIDE))
    straddles = (windows.max(axis=(2, 3)) == 1) & (windows.min(axis=(2, 3)) == -1)
    worst = np.lib.stride_tricks.sliding_window_view(length, (SIDE, SIDE)).max(axis=(2, 3))
    worst = np.where(straddles, worst, np.iinfo(np.int64).max)
    a, b = np.unravel_index(np.argmin(worst), worst.shape)
    return lo + int(a), lo + int(b)


def _symbolic_window(frontier: tilings.Frontier, corner: tuple[int, int], nv: int):
    e = tilings.Embedding(frontier)

    def names(k: int) -> str:
        return "u%d" % (k % nv + 1)

    us = range(corner[0], corner[0] + SIDE)
    vs = range(corner[1], corner[1] + SIDE)
    grid = {(u, v): cluster.variable_tile_value(e, names, (u, v)) for u in us for v in vs}
    minors = [
        laurent.products_differ_by_one(
            grid[(u, v + 1)], grid[(u + 1, v)], grid[(u, v)], grid[(u + 1, v + 1)])
        for u in us[:-1] for v in vs[:-1]
    ]
    return grid, minors


def _check_symbolic_window(frontier: tilings.Frontier, answer) -> Optional[str]:
    grid, minors = answer
    if not all(minors):
        return "a 2x2 minor differs from 1"
    e = tilings.Embedding(frontier)
    for p, val in grid.items():
        num, den = val.numerator_denominator()
        if not (num.is_natural() and den.is_monomial()):
            return "tile %r: not natural over a monomial denominator" % (p,)
        if _coefficient_sum(val) != tilings.tile_value(e, p):
            return "tile %r: value at all ones differs from the integer tiling" % (p,)
    return None


def _symbolic_tiles_ops(seed: int, size: str) -> list[Op]:
    # the number of variables cycles through 3..8 so that every seed gives
    # each count the same share of the windows
    rng = random.Random(seed)
    ops = []
    for i in range(SYMBOLIC_WINDOWS[size]):
        fr, nv = random_frontier(rng), 3 + i % 6
        corner = tight_window(fr)
        ops.append(Op(
            "%s@%d,%d/%dvars" % (tilings.frontier_to_text(fr), corner[0], corner[1], nv),
            lambda fr=fr, corner=corner, nv=nv: _symbolic_window(fr, corner, nv),
            lambda ans, fr=fr: _check_symbolic_window(fr, ans),
        ))
    return ops


# ----------------------------------------------------------------------
# integer-tiles

INTEGER_WINDOWS = {"full": 48, "tiny": 3}


def ray_digest(values) -> str:
    return hashlib.sha256("\n".join(map(str, values)).encode()).hexdigest()


def load_rays(size: str) -> list[dict]:
    return json.loads(RAYS_FILE.read_text())[size]


def _ray(spec: dict):
    e = tilings.Embedding(tilings.parse_frontier(spec["frontier"]))
    origin = e.vertex(spec["vertex"])
    return tilings.ray_values(e, origin, tuple(spec["direction"]), spec["count"]).values


def _check_ray(spec: dict, values) -> Optional[str]:
    if len(values) != spec["count"] or ray_digest(values) != spec["sha256"]:
        return "ray values differ from the recorded brute_fill digest"
    return None


def _integer_window(frontier: tilings.Frontier, region):
    return tilings.tile_grid(tilings.Embedding(frontier), region)


def _check_integer_window(frontier: tilings.Frontier, region, grid) -> Optional[str]:
    if grid != tilings.brute_fill(tilings.Embedding(frontier), region):
        return "window differs from brute_fill"
    return None


def _integer_tiles_ops(seed: int, size: str) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for _ in range(INTEGER_WINDOWS[size]):
        fr = random_frontier(rng)
        du, dv = rng.randint(-10, 1), rng.randint(-10, 1)
        region = (du, dv, du + 11, dv + 11)
        ops.append(Op(
            "%s@%d,%d" % (tilings.frontier_to_text(fr), du, dv),
            lambda fr=fr, region=region: _integer_window(fr, region),
            lambda grid, fr=fr, region=region: _check_integer_window(fr, region, grid),
        ))
    for spec in load_rays(size):
        ops.append(Op(
            "ray %s V%d %r x%d" % (
                spec["frontier"], spec["vertex"], spec["direction"], spec["count"]),
            lambda spec=spec: _ray(spec),
            lambda values, spec=spec: _check_ray(spec, values),
        ))
    return ops


# ----------------------------------------------------------------------

BUILDERS = {
    "probe": _probe_ops,
    "symbolic-frise": _symbolic_frise_ops,
    "symbolic-tiles": _symbolic_tiles_ops,
    "integer-tiles": _integer_tiles_ops,
}

# Every run makes at least MIN_PASSES passes. op_tail_ms is the
# nearest-rank TAIL_PERCENTILE of the pooled op times, chosen as the highest
# multiple of 5 that keeps at least ten samples beyond it at MIN_PASSES.
# Fixing it per workload keeps it on the same operations however many
# passes a run fits. integer-tiles needs four passes for its p95, which
# falls on the fixed rays rather than on the boundary between windows and
# rays.
MIN_PASSES = {"probe": 2, "symbolic-frise": 2, "symbolic-tiles": 2, "integer-tiles": 4}
TAIL_PERCENTILE = {"probe": 90, "symbolic-frise": 60, "symbolic-tiles": 90, "integer-tiles": 95}


def build(workload: str, seed: int, size: str) -> list[Op]:
    return BUILDERS[workload](seed, size)
