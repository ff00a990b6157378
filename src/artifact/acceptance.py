"""The reproducibility suite behind ``verify``: twelve self-contained checks.

Each check function takes no mandatory arguments, runs exact assertions on
a fixed input set (fuzz checks take a seed), and returns a report dict with
``name``, ``ok`` and ``detail``. ``run_suite`` executes a named selection
in order and never lets one crashed check hide the others.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterable

from .cluster import (
    CrossSeed,
    cross_construct,
    enumerate_cluster_vars,
    frieze_period,
    variable_tile_value,
)
from .correspondence import ForkSpec, cycle_check, fork_check, fork_quiver, probe_conjecture
from .diagrams import (
    Quiver,
    catalog_diagram,
    catalog_members,
    check_subadditive,
    classify,
    default_quiver,
    find_additive_function,
    parse_shorthand,
    validate_cartan,
)
from .frises import detect_period, frise_extend
from .laurent import LaurentPoly
from .recurrences import find_min_recurrence, verify_recurrence
from .tilings import (
    Embedding,
    Frontier,
    PeriodicFrontier,
    SquareEmbedding,
    brute_fill,
    parse_frontier,
    pythagorean_triple,
    ray_values,
    tile_grid,
    transpose_word,
    verify_quadratic_lemma,
    verify_square_lemma,
    verify_sl2,
    word_of_point,
)

DEFAULT_SEED = 20240817

# Head of the right tail of the big staircase grid; the left tail is the
# transposed word, and the middle valley is yy.
GRID_PREFIX = "xyxxxyyyyyxyyyx"


def _grid_embedding() -> Embedding:
    return Embedding(
        Frontier("xy", transpose_word(GRID_PREFIX) + "yy" + GRID_PREFIX, "xy")
    )


def _random_frontier(rng: random.Random) -> Frontier:
    def block() -> str:
        n = rng.randint(2, 5)
        letters = ["x", "y"] + [rng.choice("xy") for _ in range(n - 2)]
        rng.shuffle(letters)
        return "".join(letters)

    center = "".join(rng.choice("xy") for _ in range(rng.randint(0, 4)))
    return Frontier(block(), center, block())


class NoStraddlingWindow(ValueError):
    """No candidate window has points on both sides of the frontier."""


def _report(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


# ----------------------------------------------------------------------
# 1. the doubled edge grows like every second Fibonacci number

def check_kronecker() -> dict:
    fr = frise_extend(parse_shorthand("kronecker"), 7)
    merged = [fr.value(n % 2, n // 2) for n in range(15)]
    fib = [1, 1]
    while len(fib) < 2 * len(merged):
        fib.append(fib[-1] + fib[-2])
    ok = merged[:6] == [1, 1, 2, 5, 13, 34]
    # after the leading 1 the zigzag walks the even-indexed Fibonacci numbers
    ok = ok and all(merged[n] == fib[2 * (n - 1)] for n in range(1, 15))
    return _report(
        "kronecker", ok,
        "zigzag %s, ... equals F_(2n) for 15 terms" % ", ".join(map(str, merged[:6])),
    )


# ----------------------------------------------------------------------
# 2. the big staircase grid, cell for cell

GRID_NAMED_VALUES = (2, 5, 8, 11, 3, 13, 18, 4, 25, 64, 121,
                     119, 332, 545, 758, 576, 1607, 2638, 3669, 14)

# The printed display, top row first; printed row r, column c is the tile
# at (u, v) = (c, 9 - r).
INTRO_GRID_PRINTED = {
    0: (10, [1, 1, 1, 1]),
    1: (9, [1, 1, 2, 3, 4]),
    2: (9, [1, 2, 5, 8, 11]),
    3: (9, [1, 3, 8, 13, 18]),
    4: (8, [1, 1, 4, 11, 18, 25]),
    5: (8, [1, 2, 9, 25, 41, 57]),
    6: (8, [1, 3, 14, 39, 64, 89]),
    7: (3, [1, 1, 1, 1, 1, 1, 4, 19, 53, 87, 121]),
    8: (0, [1, 1, 1, 1, 2, 3, 4, 5, 6, 25, 119, 332, 545, 758]),
    9: (0, [1, 2, 3, 4, 9, 14, 19, 24, 29, 121, 576, 1607, 2638, 3669]),
}


def check_intro_grid() -> dict:
    e = _grid_embedding()
    region = (0, 0, 13, 9)
    grid = tile_grid(e, region)
    ok = grid == brute_fill(e, region)
    verify_sl2(grid)
    for r, (c0, vals) in INTRO_GRID_PRINTED.items():
        ok = ok and [grid[(c0 + k, 9 - r)] for k in range(len(vals))] == vals
    ok = ok and word_of_point(e, (10, 3)) == "yyxyyyx" and grid[(10, 3)] == 14
    present = set(grid.values())
    ok = ok and all(v in present for v in GRID_NAMED_VALUES)
    # 1607, 2638, 3669 step by 1031 twice; the printed middle term swaps two
    # digits (2368), which no determinant-one completion can produce
    ok = ok and grid[(12, 0)] == 2638
    ok = ok and grid[(13, 0)] - grid[(12, 0)] == grid[(12, 0)] - grid[(11, 0)]
    return _report(
        "intro-grid", ok,
        "%d printed cells reproduced from the frontier; 2368 in the source "
        "display is the digit-swapped 2638 (progression 1607, 2638, 3669)"
        % sum(len(v) for _, v in INTRO_GRID_PRINTED.values()),
    )


# ----------------------------------------------------------------------
# 3. closed form against determinant completion

def check_tile_oracle() -> dict:
    rng = random.Random(DEFAULT_SEED)
    for i in range(200):
        e = Embedding(_random_frontier(rng))
        du, dv = rng.randint(-10, 1), rng.randint(-10, 1)
        region = (du, dv, du + 11, dv + 11)
        if tile_grid(e, region) != brute_fill(e, region):
            return _report("tile-oracle", False, "mismatch on frontier %d" % i)
    return _report("tile-oracle", True,
                   "200 ultimately periodic frontiers, 12x12 windows, 0 mismatches")


# ----------------------------------------------------------------------
# 4. squares under the notch, and the Pythagorean triples they force

def check_squares() -> dict:
    ok = True
    for h in (0, 1, 2):
        for s in ("xy", "xxy", "xyxxy", (GRID_PREFIX, "xy")):
            checks = verify_square_lemma(SquareEmbedding(s, h), 20)
            ok = ok and all(c["square_ok"] and c["product_ok"] for c in checks)
    e = SquareEmbedding((GRID_PREFIX, "xy"), 0)
    ok = ok and pythagorean_triple(e, 0) == (5, 3, 4)
    ok = ok and pythagorean_triple(e, 1) == (29, 21, 20)
    return _report("squares", ok,
                   "notch heights 0..2, n <= 20; triples (5,3,4), (29,21,20)")


# ----------------------------------------------------------------------
# 5. the four-case diagonal recursion on every short periodic frontier

def check_quadratic() -> dict:
    ran = 0
    for length in range(6):
        for bits in range(2 ** length):
            w = "".join("xy"[(bits >> i) & 1] for i in range(length))
            for h in (0, 1, 2):
                for hp in (0, 1, 2):
                    if not w and h == 0 and hp == 0:
                        continue  # constant frontier, inadmissible
                    res = verify_quadratic_lemma(Embedding(PeriodicFrontier(w, h, hp)), 10)
                    if not res["all_ok"]:
                        return _report(
                            "quadratic", False,
                            "failure at w=%r h=%d h'=%d" % (w, h, hp),
                        )
                    ran += 1
    return _report("quadratic", True,
                   "%d periodic frontiers (|w| <= 5, h,h' <= 2), n <= 10" % ran)


# ----------------------------------------------------------------------
# 6. recurrence detection and certified frise periods

def check_recurrences() -> dict:
    rec = find_min_recurrence([1, 1, 2, 5, 13, 34, 89, 233], 2)
    ok = (rec is not None and rec.order == 2
          and rec.coeffs == (Fraction(3), Fraction(-1)))

    e = Embedding(parse_frontier("[xxxy]* [xxxy]*"))
    orders = []
    for j in range(4):
        prefix = ray_values(e, e.vertex(j), (1, -1), 40).values
        r = find_min_recurrence(prefix, 8)
        ok = ok and r is not None and verify_recurrence(prefix, r)
        orders.append(r.order if r is not None else None)

    uncertified = []
    for d in range(1, 9):
        for tag, kind, m, _ in catalog_members(d):
            if tag != "Dynkin":
                continue
            if detect_period(frise_extend(default_quiver(kind, m), 64)) is None:
                uncertified.append("%s%d" % (kind, m))
    ok = ok and not uncertified
    return _report(
        "recurrences", ok,
        "zigzag fits order 2 with coefficients (3, -1); 40-term diagonal "
        "rays fit orders %s; all Dynkin quivers <= 8 vertices certified "
        "periodic within 64 steps%s"
        % (orders, "" if not uncertified else "; FAILED: %s" % uncertified),
    )


# ----------------------------------------------------------------------
# 7. frises against tiling rays, exhaustively at small size

def check_correspondences() -> dict:
    n_cycles = 0
    for length in range(3, 9):
        for bits in range(2 ** length):
            w = "".join("xy"[(bits >> i) & 1] for i in range(length))
            if len(set(w)) < 2:
                continue  # one-letter words orient the cycle cyclically
            cycle_check(w, steps=12)
            n_cycles += 1

    n_forks = 0
    for m in range(4, 10):
        for bits in range(2 ** (m - 4)):
            word = "x" + "".join("xy"[(bits >> i) & 1] for i in range(m - 4))
            spec = ForkSpec(m, word)
            fork_check(spec, steps=10)
            # the doubled-square identity, straight from the frise rows
            e = Embedding(spec.frontier())
            i_vals = ray_values(e, e.vertex(m - 1), (1, 0), 12).values
            fr = frise_extend(fork_quiver(spec), 11)
            for n in range(11):
                if fr.value(m - 1, n) * fr.value(m, n + 1) != 2 * i_vals[n] ** 2:
                    return _report(
                        "correspondences", False,
                        "doubled-square identity fails at n=%d for %s" % (n, spec),
                    )
            n_forks += 1
    return _report(
        "correspondences", True,
        "%d cycle words (lengths 3..8, 12 steps) and %d forked diagrams "
        "(m=4..9, 10 steps) match their frises; doubled-square identity "
        "holds for n <= 10" % (n_cycles, n_forks),
    )


# ----------------------------------------------------------------------
# 8. symbolic unimodularity on fuzzed variable frontiers

def _best_window(e: Embedding) -> tuple[int, int]:
    """Offset of the 8x8 window straddling the frontier most tightly.

    A window's cost is its worst projection-word length, and only windows
    with points on both sides count; ties keep the first offset in (du, dv)
    order. Each cell of the windows' 17x17 union is measured once.
    """
    cells = {}
    for u in range(-8, 9):
        for v in range(-8, 9):
            side, first, last = e.locate((u, v))
            if side != "on":
                cells[(u, v)] = (side, last - first + 1)
    best = None
    for du in range(-8, 2):
        for dv in range(-8, 2):
            window = [cells[(u, v)] for u in range(du, du + 8) for v in range(dv, dv + 8)
                      if (u, v) in cells]
            if {side for side, _ in window} == {"above", "below"}:
                cost = max(length for _, length in window)
                if best is None or cost < best[0]:
                    best = (cost, du, dv)
    if best is None:
        raise NoStraddlingWindow("no 8x8 window near the origin meets both sides of the frontier")
    return best[1], best[2]


def check_symbolic_sl2() -> dict:
    rng = random.Random(DEFAULT_SEED)
    for i in range(50):
        e = Embedding(_random_frontier(rng))
        nv = rng.randint(3, 8)
        names = lambda k: "u%d" % (k % nv + 1)
        du, dv = _best_window(e)
        grid = {
            (u, v): variable_tile_value(e, names, (u, v))
            for u in range(du, du + 8)
            for v in range(dv, dv + 8)
        }
        # a Laurent value's denominator is always a monomial, and its
        # numerator has the value's coefficients
        if not all(val.is_natural() for val in grid.values()):
            return _report("symbolic-sl2", False,
                           "non-natural or non-monomial-denominator value on frontier %d" % i)
        verify_sl2(grid)  # a failing minor raises, and the suite reports it
    return _report("symbolic-sl2", True,
                   "50 variable frontiers (3..8 variables), every tile "
                   "natural with monomial denominator, 49 polynomial "
                   "minors each all exactly 1")


# ----------------------------------------------------------------------
# 9. the repeated cross construction

FRIEZE_LETTERS = "yyxxxxyyy"
FRIEZE_SYMBOLIC = "aybycxdxexfxgyhyiyj"

FRIEZE_ROWS_PRINTED = {
    0: (4, [1, 1]),
    1: (4, [1, 2, 1]),
    2: (4, [1, 3, 2, 1]),
    3: (0, [1, 1, 1, 1, 1, 4, 3, 2, 1]),
    4: (0, [1, 2, 3, 4, 5, 21, 16, 11, 6, 1]),
    5: (0, [1, 3, 5, 7, 9, 38, 29, 20, 11, 2, 1]),
    6: (0, [1, 4, 7, 10, 13, 55, 42, 29, 16, 3, 2, 1]),
    7: (1, [1, 2, 3, 4, 17, 13, 9, 5, 1, 1, 1]),
    8: (2, [1, 2, 3, 13, 10, 7, 4, 1]),
    9: (3, [1, 2, 9, 7, 5, 3, 1]),
    10: (4, [1, 5, 4, 3, 2, 1]),
    11: (5, [1, 1, 1, 1, 1]),
}


def check_frieze() -> dict:
    pattern = cross_construct(CrossSeed.ones(FRIEZE_LETTERS))
    ok = pattern.minors == 65
    ok = ok and len(pattern.cells) == sum(len(v) for _, v in FRIEZE_ROWS_PRINTED.values())
    for r, (c0, vals) in FRIEZE_ROWS_PRINTED.items():
        got = [pattern.value(r, c0 + k).as_int() for k in range(len(vals))]
        ok = ok and got == vals

    symbolic = cross_construct(CrossSeed.parse(FRIEZE_SYMBOLIC))
    _, den = symbolic.value(4, 7).numerator_denominator()
    ok = ok and den == LaurentPoly.monomial(1, {v: 1 for v in "cdefgh"})

    # Conway-Coxeter: a frieze of n variables has period n + 3, or a divisor of it
    period = frieze_period(pattern)
    p, n3 = period["period"], period["variables"] + 3
    return _report(
        "frieze", ok and n3 % p == 0,
        "all 12 printed rows reproduced; denominator at the marked point is cdefgh; "
        "translation period %d %s variables+3 = %d"
        % (p, "does not divide" if n3 % p else "divides", n3),
    )


# ----------------------------------------------------------------------
# 10. enumerated cluster variables stay subtraction-free

def check_cluster_vars() -> dict:
    ok = True
    counts = []
    for n in range(1, 6):
        vs = enumerate_cluster_vars("A%d" % n)
        counts.append(len(vs))
        ok = ok and len(vs) == n * (n + 3) // 2
        ok = ok and all(v.is_natural() for v in vs)
    affine = 0
    for m in (1, 2, 3):
        vs = enumerate_cluster_vars("Atilde%d" % m, bound=12)
        affine += len(vs)
        ok = ok and all(v.is_natural() for v in vs)
    return _report(
        "cluster-vars", ok,
        "A(n) counts %s equal n(n+3)/2; %d affine variables to bound 12 "
        "all subtraction-free" % (counts, affine),
    )


# ----------------------------------------------------------------------
# 11. diagram classification and additive certificates

def check_classification() -> dict:
    ok = True
    n = 0
    for d in range(1, 13):
        for tag, kind, m, c in catalog_members(d):
            got = classify(c)
            ok = ok and (got.tag, got.kind, got.m) == (tag, kind, m)
            f = find_additive_function(c)
            if tag == "Euclidean":
                ok = ok and f is not None and check_subadditive(c, f) == "Additive"
            else:
                ok = ok and f is None
            n += 1
    kron = parse_shorthand("kronecker").cartan
    ok = ok and check_subadditive(kron, {0: Fraction(1), 1: Fraction(1)}) == "Additive"
    for m in range(2, 12):
        c = catalog_diagram("Atilde", m)
        ones = {i: Fraction(1) for i in range(c.d)}
        ok = ok and check_subadditive(c, ones) == "Additive"
    return _report(
        "classification", ok,
        "%d catalog diagrams <= 12 vertices classified; additive functions "
        "exact on the Euclidean ones; all-ones certificates on the doubled "
        "edge and the cycles" % n,
    )


# ----------------------------------------------------------------------
# 12. growth dichotomy probe

def check_probe() -> dict:
    inconsistent = []
    reports = 0
    for d in range(1, 7):
        for tag, kind, m, _ in catalog_members(d):
            rep = probe_conjecture(default_quiver(kind, m), steps=60, max_order=16)
            reports += 1
            if rep["consistent"] is False:
                inconsistent.append("%s%d" % (kind, m))
    wild = Quiver(validate_cartan([[2, -3], [-3, 2]]), [(0, 1)])
    rep = probe_conjecture(wild, steps=6, max_order=1)
    reports += 1
    ok = not inconsistent and rep["expected"] is None and rep["consistent"] is None
    return _report(
        "probe", ok,
        "%d probe reports; bounded iff Dynkin, unbounded with a recurrence "
        "on the Euclidean series; exceptional and indefinite report-only%s"
        % (reports, "" if not inconsistent else "; INCONSISTENT: %s" % inconsistent),
    )


# ----------------------------------------------------------------------
# the runner

CHECKS: tuple[tuple[str, Callable[[], dict]], ...] = (
    ("kronecker", check_kronecker),
    ("intro-grid", check_intro_grid),
    ("tile-oracle", check_tile_oracle),
    ("squares", check_squares),
    ("quadratic", check_quadratic),
    ("recurrences", check_recurrences),
    ("correspondences", check_correspondences),
    ("symbolic-sl2", check_symbolic_sl2),
    ("frieze", check_frieze),
    ("cluster-vars", check_cluster_vars),
    ("classification", check_classification),
    ("probe", check_probe),
)

SUITE_NAMES = tuple(name for name, _ in CHECKS)


def run_suite(names: Iterable[str] = ("all",)) -> list[dict]:
    """Run the selected checks in order; unknown names raise KeyError."""
    wanted = [n for name in (list(names) or ["all"])
              for n in (SUITE_NAMES if name == "all" else (name,))]
    by_name = dict(CHECKS)
    for name in wanted:
        if name not in by_name:
            raise KeyError("unknown check %r; choose from %s or 'all'"
                           % (name, ", ".join(SUITE_NAMES)))
    results = []
    for name in wanted:
        try:
            results.append(by_name[name]())
        except Exception as exc:  # a crashed check is a failed check
            results.append(_report(name, False, "%s: %s" % (type(exc).__name__, exc)))
    return results
