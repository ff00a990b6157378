import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from artifact import cluster, frises
from artifact.cluster import (
    CrossSeed,
    FriezePattern,
    RegionOutsideComponents,
    cross_construct,
    enumerate_cluster_vars,
    frieze_period,
    kronecker_closed_form,
    variable_tile_value,
)
from artifact.diagrams import parse_shorthand
from artifact.frises import detect_period, frise_extend
from artifact.laurent import LaurentPoly
from artifact.tilings import (
    Embedding,
    Frontier,
    InconsistentGeometry,
    tile_value,
    transpose_word,
    word_span,
)
from bordered_oracles import word_value_vars
from laurent_oracles import subst, subst_pattern

ONE = LaurentPoly.nat(1)


def V(name: str) -> LaurentPoly:
    return LaurentPoly.var(name)


# ----------------------------------------------------------------------
# doubled edge


def test_kronecker_ones_is_even_fibonacci():
    assert [kronecker_closed_form(n).at_ones() for n in range(2, 8)] == [2, 5, 13, 34, 89, 233]


def test_kronecker_symbolic_start():
    a, b = V("u1"), V("u2")
    assert kronecker_closed_form(2) == (ONE + b * b).exact_div(a)


def test_kronecker_closed_form_equals_recursion_symbolically():
    a, b = V("u1"), V("u2")
    us = [a, b]
    for _ in range(39):
        us.append((ONE + us[-1] * us[-1]).exact_div(us[-2]))
    for n in range(2, 13):
        assert kronecker_closed_form(n) == us[n]
    # from n = 32 on, the values need 16-bit fields
    assert list(cluster._kronecker_values(40)) == us[2:]


def test_kronecker_closed_form_rejects_small_n():
    with pytest.raises(ValueError):
        kronecker_closed_form(1)


def test_kronecker_linear_recurrence_explicit_first_identity():
    # ab u_2 + ab u_0 = b(1 + b^2) + a^2 b = (a^2 + b^2 + 1) b
    a, b = V("a"), V("b")
    u2 = (ONE + b * b).exact_div(a)
    assert a * b * u2 + a * b * a == (a * a + b * b + ONE) * b


def kronecker_linear_recurrence_check(n_max: int, a="u1", b="u2") -> dict:
    """Check ab u_{n+2} + ab u_n = (a^2 + b^2 + 1) u_{n+1} for n <= n_max - 2.

    Both sides are computed as stated, without subtraction, so the
    identity is verified inside the natural-coefficient semiring.
    """
    if n_max < 4:
        raise ValueError("need n_max >= 4")
    pa, pb = (V(x) if isinstance(x, str) else LaurentPoly.nat(x) for x in (a, b))
    us = [pa, pb]
    while len(us) <= n_max:
        us.append((ONE + us[-1] * us[-1]).exact_div(us[-2]))
    ab = pa * pb
    coefficient = pa * pa + pb * pb + ONE
    for n in range(n_max - 1):
        if ab * us[n + 2] + ab * us[n] != coefficient * us[n + 1]:
            return {"n_max": n_max, "ok": False, "failed_at": n}
    return {"n_max": n_max, "ok": True, "identities": n_max - 1, "coefficient": str(coefficient)}


def test_kronecker_linear_recurrence_check():
    assert kronecker_linear_recurrence_check(10, 1, 1)["ok"]
    report = kronecker_linear_recurrence_check(8)
    assert report["ok"] and report["identities"] == 7
    with pytest.raises(ValueError):
        kronecker_linear_recurrence_check(3)


# ----------------------------------------------------------------------
# words with variables


def test_word_value_vars_shortest_word():
    assert word_value_vars(["a", "b", "c"], "yx") == (ONE + V("a") * V("c")).exact_div(V("b"))


def test_word_value_vars_rejects_malformed():
    with pytest.raises(ValueError):
        word_value_vars(["a", "b"], "y")
    with pytest.raises(ValueError):
        word_value_vars(["a", "b", "c"], "y")


def test_variable_tile_value_specializes_to_integers():
    e = Embedding(Frontier("xy", "xxy", "yx"))
    names = lambda i: "u%d" % (i % 5 + 1)
    ones = {"u%d" % (j + 1): 1 for j in range(5)}
    for u in range(-3, 4):
        for v in range(-3, 4):
            val = variable_tile_value(e, names, (u, v))
            assert val.is_natural()
            assert subst(val, ones).as_int() == tile_value(e, (u, v))


def test_variable_tile_value_on_vertex_returns_its_variable():
    e = Embedding(Frontier("xy", "", "yx"))
    assert variable_tile_value(e, lambda i: "u%d" % (i % 4 + 1), e.vertex(2)) == V("u3")


def _random_frontier(rng: random.Random) -> Frontier:
    def block() -> str:
        n = rng.randint(2, 5)
        letters = ["x", "y"] + [rng.choice("xy") for _ in range(n - 2)]
        rng.shuffle(letters)
        return "".join(letters)

    center = "".join(rng.choice("xy") for _ in range(rng.randint(0, 4)))
    return Frontier(block(), center, block())


def test_fuzz_variable_tilings_are_unimodular_and_positive():
    rng = random.Random(23)
    for _ in range(5):
        e = Embedding(_random_frontier(rng))
        names = lambda i: "u%d" % (i % 8 + 1)
        grid = {
            (u, v): variable_tile_value(e, names, (u, v))
            for u in range(-3, 4)
            for v in range(-3, 4)
        }
        for val in grid.values():
            assert val.is_natural()
        for u in range(-3, 3):
            for v in range(-3, 3):
                det = grid[(u, v + 1)] * grid[(u + 1, v)] - grid[(u, v)] * grid[(u + 1, v + 1)]
                assert det == ONE, (u, v)


def _tile_by_word_value_vars(e: Embedding, names, p) -> LaurentPoly:
    # the per-cell form variable_tile_value replaced: one LaurentPoly per step
    side = e.locate(p)[0]
    if side == "on":
        return V(names(p[0] + p[1]))
    if side == "above":
        return _tile_by_word_value_vars(e.mirror(), names, (p[1], p[0]))
    first, last = word_span(e, p)
    return word_value_vars([names(i) for i in range(first, last + 2)],
                           e.frontier.factor(first, last + 1))


blocks = st.text(alphabet="xy", min_size=2, max_size=6).filter(lambda w: "x" in w and "y" in w)
NAME_POOL = ("u10", "u2", "a", "b1", "zz", "u1", "c", "q7")


@settings(max_examples=60, deadline=None)
@given(blocks, st.text(alphabet="xy", max_size=5), blocks,
       st.integers(-8, 8), st.permutations(NAME_POOL), st.integers(1, 8))
def test_variable_tile_value_matches_word_value_vars(left, center, right, k, pool, period):
    e = Embedding(Frontier(left, center, right))
    names = lambda i: pool[i % period]
    u0, v0 = e.vertex(k)
    sides = set()
    for u in range(u0 - 3, u0 + 4):
        for v in range(v0 - 3, v0 + 4):
            sides.add(e.locate((u, v))[0])
            got = variable_tile_value(e, names, (u, v))
            assert got == _tile_by_word_value_vars(e, names, (u, v))
            assert got.variables == tuple(sorted(got.variables, key=lambda n: (len(n), n)))
    assert sides == {"below", "on", "above"}


# ----------------------------------------------------------------------
# cross construction


def test_cross_seed_parse_and_transpose():
    s = CrossSeed.parse("aybycxdxexfxgyhyiyj")
    assert s.letters == "yyxxxxyyy"
    assert s.names == tuple("abcdefghij")
    assert s.x_count == 4 and s.y_count == 5
    t = s.transposed()
    assert t.letters == transpose_word(s.letters) == "xxxyyyyxx"
    assert t.names == tuple("jihgfedcba")
    assert t.transposed() == s


def test_cross_seed_validation():
    with pytest.raises(ValueError):
        CrossSeed("xz", ("a", "b", "c"))
    with pytest.raises(ValueError):
        CrossSeed("xy", ("a", "b"))
    with pytest.raises(ValueError):
        CrossSeed("xy", ("a", "x", "b"))
    with pytest.raises(ValueError):
        CrossSeed.parse("axby")


GRID_ONES = {
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


def test_cross_all_ones_grid_matches_the_figure():
    fp = cross_construct(CrossSeed.ones("yyxxxxyyy"))
    by_row = {}
    for (r, c), v in fp.cells.items():
        by_row.setdefault(r, {})[c] = v.as_int()
    assert sorted(by_row) == sorted(GRID_ONES)
    for r, (start, values) in GRID_ONES.items():
        cols = sorted(by_row[r])
        assert cols == list(range(start, start + len(values)))
        assert [by_row[r][c] for c in cols] == values
    assert fp.minor_check() == 65
    with pytest.raises(RegionOutsideComponents):
        fp.value(0, 0)  # row 0 starts at column 4


def test_cross_symbolic_seed_value_and_denominator():
    fp = cross_construct(CrossSeed.parse("aybycxdxexfxgyhyiyj"))
    val = fp.value(4, 7)
    _, den = val.numerator_denominator()
    assert den == LaurentPoly.monomial(1, {v: 1 for v in "cdefgh"})
    assert subst(val, {v: 1 for v in "abcdefghij"}).as_int() == 11
    assert fp.minor_check() == 65


def test_cross_symbolic_spot_values_from_determinants():
    # frozen from solving the bordering 2x2 blocks by hand
    a, b, c, d = (V(ch) for ch in "abcd")
    fp = cross_construct(CrossSeed.parse("axbycyd"))
    assert fp.value(3, 4) == (b + ONE + a * c).exact_div(a * b)
    assert fp.value(4, 4) == (ONE + a * c).exact_div(b)
    g = cross_construct(CrossSeed.parse("ayb"))
    assert g.value(1, 1) == (ONE + V("a")).exact_div(V("b"))
    assert g.value(2, 2) == (ONE + V("b")).exact_div(V("a"))


def _brute_cross(seed: CrossSeed) -> dict:
    """Independent refill: seed the two staircases and the two diagonals
    of 1s, then solve unimodular 2x2 blocks to a fixpoint."""
    X, Y = seed.x_count, seed.y_count
    size = X + Y + 2
    polys = [LaurentPoly.nat(1) if n == "1" else V(n) for n in seed.names]
    known = {}

    def walk(start, letters, vals):
        p = start
        known[p] = vals[0]
        for ch, v in zip(letters, vals[1:]):
            r, c = p
            p = (r - 1, c) if ch == "y" else (r, c + 1)
            known[p] = v

    walk((Y + 1, 0), "y" + seed.letters + "x", [ONE] + polys + [ONE])
    walk((size, X + 1), "x" + transpose_word(seed.letters) + "y", [ONE] + polys[::-1] + [ONE])
    for m in range(Y + 2):
        known[(m, X + 1 + m)] = ONE
    for m in range(X + 2):
        known[(Y + 1 + m, m)] = ONE

    dom = set(cross_construct(seed).cells)  # positions only, never values
    assert set(known) <= dom
    changed = True
    while changed:
        changed = False
        for r, c in dom:
            square = [(r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)]
            if any(p not in dom for p in square):
                continue
            missing = [p for p in square if p not in known]
            if len(missing) != 1:
                continue
            a, b, lo, d = (known.get(p) for p in square)
            if a is None:
                known[square[0]] = (ONE + b * lo).exact_div(d)
            elif d is None:
                known[square[3]] = (ONE + b * lo).exact_div(a)
            elif b is None:
                known[square[1]] = (a * d - ONE).exact_div(lo)
            else:
                known[square[2]] = (a * d - ONE).exact_div(b)
            changed = True
    assert set(known) == dom
    return known


@pytest.mark.parametrize(
    "seed",
    [
        CrossSeed.ones("yyxxxxyyy"),
        CrossSeed.parse("axb"),
        CrossSeed.parse("axbyc"),
        CrossSeed.parse("aybxc"),
        CrossSeed.parse("axbycyd"),
        CrossSeed.parse("aybxcxdye"),
        CrossSeed("xyxy", ("a", "1", "b", "c", "1")),
    ],
    ids=lambda s: s.letters + "-" + "".join(s.names),
)
def test_cross_matches_brute_refill(seed):
    assert cross_construct(seed).cells == _brute_cross(seed)


def _regions_by_word_value_vars(seed: CrossSeed) -> list:
    """(cell, value) for every cell of the four regions, read as in the figure
    but evaluated with the LaurentPoly oracle; cells on overlaps repeat."""
    out = []

    def read(fig, r, c, swapped):
        # the inner region, or with the swapped closing column the right one
        lo = fig.nw_row_hit[r]
        hi = fig.K - fig.se_col_hit[c] if swapped else fig.nw_col_hit[c]
        return word_value_vars(list(fig.names[lo : hi + 1]), fig.nw_letters[lo:hi], swapped)

    fig = cluster._CrossFigure(seed)
    out += [((r, c), read(fig, r, c, False)) for r, c in fig.nw_cells()]
    out += [((r, c), read(fig, r, c, True)) for r, c in fig.ne_cells()]
    se_names = fig.names[::-1]
    for r, c in fig.se_cells():  # the transposed staircase, walked backwards
        th, tv = fig.se_row_hit[r], fig.se_col_hit[c]
        letters = "".join(fig.se_letters[t - 1] for t in range(th, tv, -1))
        out.append(((r, c), word_value_vars([se_names[t] for t in range(th, tv - 1, -1)], letters)))
    mirrored = cluster._CrossFigure(seed.transposed())
    out += [((c, r), read(mirrored, r, c, True)) for r, c in mirrored.ne_cells()]
    return out


@st.composite
def cross_seeds(draw, max_letters=8):
    letters = draw(st.text(alphabet="xy", min_size=1, max_size=max_letters))
    names = st.sampled_from(("1", "a", "b", "c", "d", "e"))
    return CrossSeed(letters, tuple(draw(st.lists(names, min_size=len(letters) + 1,
                                                  max_size=len(letters) + 1))))


@settings(max_examples=60, deadline=None)
@given(cross_seeds())
def test_cross_regions_match_word_value_vars(seed):
    cells = cross_construct(seed).cells
    for p, value in _regions_by_word_value_vars(seed):
        assert cells[p] == value, p


@settings(max_examples=80, deadline=None)
@given(cross_seeds(max_letters=9))
def test_transposed_seed_figure_is_the_figure_transposed(seed):
    # frieze_period reads the transposed seed's figure this way
    cells = cross_construct(seed).cells
    transposed = cross_construct(seed.transposed()).cells
    assert set(transposed) == {(c, r) for r, c in cells}
    assert transposed == {(c, r): v for (r, c), v in cells.items()}


def test_cross_specializing_ones_reproduces_integer_grid():
    symbolic = cross_construct(CrossSeed.parse("aybxcxdye"))
    ones = cross_construct(CrossSeed.ones("yxxy"))
    mapping = {v: 1 for v in "abcde"}
    assert subst_pattern(symbolic, mapping).cells == ones.cells


def test_frieze_pattern_minor_check_rejects_bad_grid():
    cells = {(0, 0): ONE, (0, 1): ONE, (1, 0): ONE, (1, 1): ONE}
    bad = FriezePattern(CrossSeed.ones("x"), cells, 0)
    with pytest.raises(ArithmeticError):
        bad.minor_check()


@pytest.mark.parametrize("cell, corner", [
    ((0, 5), (4, -1)),  # the top-right cell: only the block of rows 0-1, columns 4-5
    ((11, 5), (5, -11)),  # the bottom-left cell: only the block of rows 10-11, columns 5-6
], ids=["top-right", "bottom-left"])
def test_minor_check_names_the_broken_block_at_c_minus_r(cell, corner):
    cells = dict(cross_construct(CrossSeed.ones("yyxxxxyyy")).cells)
    cells[cell] = cells[cell] * V("a")
    # frieze cell (r, c) is the tiling point (c, -r); a block is named by
    # its lower-left cell
    with pytest.raises(ArithmeticError, match=re.escape(repr(corner))):
        FriezePattern(CrossSeed.ones("yyxxxxyyy"), cells, 0).minor_check()


# ----------------------------------------------------------------------
# repetition and its period


def test_frieze_period_reports_the_candidate():
    report = frieze_period(cross_construct(CrossSeed.ones("yyxxxxyyy")))
    assert report["period"] == 13
    assert report["variables"] == report["letters"] + 1 == 10
    assert report["candidate_letters_plus_3"] == 12
    assert not report["matches_letters_plus_3"]
    assert "candidate_variables_plus_2" not in report
    assert not report["anti_palindrome"]


@pytest.mark.parametrize("letters", range(1, 7))
def test_frieze_period_divides_variables_plus_3(letters):
    # Conway-Coxeter: a frieze of n variables repeats after n + 3 columns,
    # here letters + 4, and its least period divides that
    for word in map("".join, itertools.product("xy", repeat=letters)):
        report = frieze_period(cross_construct(CrossSeed.ones(word)))
        assert (report["variables"] + 3) % report["period"] == 0, word


@pytest.mark.parametrize("fmt", ["text", "tsv", "json"])
def test_frieze_builds_one_figure_and_checks_it_once(monkeypatch, fmt):
    from artifact import cli

    calls = {"cli": [], "period": [], "minors": []}

    def counting(key, fn):
        def wrapped(*args):
            calls[key].append(args)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(cli, "cross_construct", counting("cli", cross_construct))
    monkeypatch.setattr(cluster, "cross_construct", counting("period", cross_construct))
    monkeypatch.setattr(cluster, "verify_sl2", counting("minors", cluster.verify_sl2))
    result = _cli(["frieze", "--letters", "yyxxxxyyy", "--stages", "8", "--format", fmt])
    assert result.exit_code == 0
    assert calls["cli"] == [(CrossSeed.ones("yyxxxxyyy"),)]
    assert calls["period"] == []  # frieze_period transposes, it never builds
    assert len(calls["minors"]) == 1


def _period_by_rebuilding(seed, stages):
    # every stage built afresh from the previous stage's transposed seed
    union, off_r, off_c, stage_seed, first = {}, 0, 0, seed, None
    for _ in range(stages):
        cells = cross_construct(stage_seed).cells
        for (r, c), v in cells.items():
            p = (r + off_r, c + off_c)
            assert union.setdefault(p, v) == v, p
        first = first or len(cells)
        off_r += stage_seed.y_count + 2
        off_c += stage_seed.x_count + 2
        stage_seed = stage_seed.transposed()
    for p in range(1, max(r for r, _ in union) + 1):
        pairs = [(q, (q[0] + p, q[1] + p)) for q in union if (q[0] + p, q[1] + p) in union]
        if len(pairs) < first:
            return None, len(union)
        if all(union[a] == union[b] for a, b in pairs):
            return p, len(union)
    return None, len(union)


@settings(max_examples=40, deadline=None)
@given(cross_seeds(), st.integers(3, 5))
def test_frieze_period_matches_rebuilding_every_stage(seed, stages):
    want, cells = _period_by_rebuilding(seed, stages)
    if want is None:
        with pytest.raises(frises.WindowTooShort):
            frieze_period(cross_construct(seed), stages)
    else:
        report = frieze_period(cross_construct(seed), stages)
        assert (report["period"], report["cells"]) == (want, cells)


def test_frieze_period_halves_on_anti_palindrome():
    report = frieze_period(cross_construct(CrossSeed.ones("xy")))
    assert report["anti_palindrome"]
    assert report["period"] == 3  # half of the generic letters + 4


def test_frieze_period_symbolic_needs_palindromic_names():
    assert frieze_period(cross_construct(CrossSeed("xy", ("a", "b", "a"))))["period"] == 3
    assert frieze_period(cross_construct(CrossSeed("xy", ("a", "b", "c"))))["period"] == 6


def test_frieze_period_single_letter_matches_frise_period():
    report = frieze_period(cross_construct(CrossSeed.ones("x")))
    fr = frise_extend(parse_shorthand("A2"), 20)
    assert detect_period(fr) == (0, report["period"]) == (0, 5)


def test_frieze_period_rejects_short_runs():
    with pytest.raises(ValueError):
        frieze_period(cross_construct(CrossSeed.ones("xy")), stages=2)


# ----------------------------------------------------------------------
# enumeration


def test_enumerate_a2_exactly():
    u1, u2 = V("u1"), V("u2")
    expected = {
        u1,
        u2,
        (ONE + u2).exact_div(u1),
        (u1 + u2 + ONE).exact_div(u1 * u2),
        (ONE + u1).exact_div(u2),
    }
    assert set(enumerate_cluster_vars("A2")) == expected


def test_enumerate_a_counts():
    for n in range(1, 6):
        assert len(enumerate_cluster_vars("A%d" % n)) == n * (n + 3) // 2


def test_enumerate_affine_windows_are_positive_and_distinct():
    for name, bound, rows in [("Atilde2", 6, 3), ("Atilde3", 5, 4)]:
        vs = enumerate_cluster_vars(name, bound)
        assert len(vs) == rows * (bound + 1)
        assert all(v.is_natural() for v in vs)


def test_enumerate_kronecker_alias():
    vs = enumerate_cluster_vars("kronecker", 8)
    assert vs == enumerate_cluster_vars("Atilde1", 8)
    assert len(vs) == 9
    assert V("u1") in vs and kronecker_closed_form(5) in vs


def _exponent_order(vs):
    return sorted(set(vs), key=lambda v: (v.variables, tuple(sorted(v.terms.items()))))


@pytest.mark.parametrize("kind, bound", [("kronecker", 32), ("Atilde2", 30)])
def test_enumerate_orders_mixed_widths_by_exponent_tuples(kind, bound):
    # exponents past 31 widen a value's fields from 8 to 16 bits; the
    # order is still that of the decoded exponent tuples
    if kind == "kronecker":
        found = [V("u1"), V("u2"), *cluster._kronecker_values(bound)]
    else:
        table = frises.frise_extend_vars(cluster.default_quiver("Atilde", 2), bound).table
        found = [v for row in table for v in row]
    vs = enumerate_cluster_vars(kind, bound)
    assert vs == _exponent_order(found)
    widths = {}
    for v in vs:
        widths.setdefault(v.variables, set()).add(v._width)
    assert {8, 16} in widths.values()


@pytest.mark.parametrize("kind", ["A\u0663", "Atilde\u0663"])
def test_enumerate_reads_ascii_digits_only(kind):
    # U+0663 is the Arabic-Indic digit three, which the catalog does not read
    with pytest.raises(ValueError, match="unrecognized type"):
        enumerate_cluster_vars(kind, 4)
    _cli_fails_cleanly(["cluster-vars", "--kind", kind, "--bound", "4"])
    _cli_fails_cleanly(["frise", "--quiver", kind])


def test_enumerate_rejects_unknown_type():
    with pytest.raises(ValueError):
        enumerate_cluster_vars("E8")
    with pytest.raises(ValueError):
        enumerate_cluster_vars("A2", bound=0)


@pytest.mark.parametrize("kind, d", [("A1000000", 1000000), ("A17", 17), ("Atilde16", 17)])
def test_enumerate_holds_the_rank_to_the_budget_before_building(monkeypatch, kind, d):
    def built(*args):
        raise AssertionError("a quiver was built")

    monkeypatch.setattr(cluster, "default_quiver", built)
    with pytest.raises(ValueError, match="^%d vertices exceeds the variable budget 16$" % d):
        enumerate_cluster_vars(kind, 4)
    _cli_fails_cleanly(["cluster-vars", "--kind", kind, "--bound", "4"])


def test_enumerate_reads_the_two_vertex_names_as_the_catalog_does():
    # Atilde11 and Atilde12 name the two-vertex Euclidean diagrams, as in
    # parse_shorthand; Atilde13 is still the 14-cycle
    assert parse_shorthand("Atilde11").cartan.d == parse_shorthand("Atilde12").cartan.d == 2
    assert enumerate_cluster_vars("Atilde11", 6) == enumerate_cluster_vars("kronecker", 6)
    assert enumerate_cluster_vars("atilde (11)", 3) == enumerate_cluster_vars("kronecker", 3)
    with pytest.raises(ValueError, match="Atilde12 is the two-vertex Euclidean diagram"):
        enumerate_cluster_vars("Atilde12", 6)
    assert len(enumerate_cluster_vars("Atilde13", 1)) == 14 * 2
    for fmt in ("text", "tsv", "json"):
        got, want = (_cli(["cluster-vars", "--kind", kind, "--bound", "6", "--format", fmt])
                     for kind in ("Atilde11", "kronecker"))
        assert got.exit_code == want.exit_code == 0
        if fmt == "json":  # the kind is echoed as given
            got, want = json.loads(got.stdout), json.loads(want.stdout)
            assert got.pop("kind") == "Atilde11" and want.pop("kind") == "kronecker"
        else:
            got, want = got.stdout, want.stdout
        assert got == want
    _cli_fails_cleanly(["cluster-vars", "--kind", "Atilde12", "--bound", "6"])


# ----------------------------------------------------------------------
# the consistency and positivity checks are exceptions, so they survive
# python -O and reach the CLI as one error line


NOT_NATURAL = V("u1") - V("u2")


def _cli(args):
    from click.testing import CliRunner

    from artifact.cli import cli

    return CliRunner().invoke(cli, args)


def _cli_fails_cleanly(args):
    result = _cli(args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and result.output.rstrip().splitlines()[-1] == errors[0]


@pytest.mark.parametrize("kind", ["A3", "Atilde2"])
def test_non_natural_frise_cell_raises_arithmetic_error(monkeypatch, kind):
    # the symbolic frise checks each cell (A3 by divisions, the cycle
    # Atilde2 by its rays), and the cluster variables are not checked again
    monkeypatch.setattr(LaurentPoly, "exact_div", lambda self, divisor: NOT_NATURAL)
    monkeypatch.setattr(frises, "nested_word_values",
                        lambda names, letter, label, spans: [NOT_NATURAL for _ in spans])
    with pytest.raises(ArithmeticError, match="negative coefficient"):
        enumerate_cluster_vars(kind, 4)
    _cli_fails_cleanly(["cluster-vars", "--kind", kind, "--bound", "4"])


def test_non_natural_kronecker_value_raises_arithmetic_error(monkeypatch):
    monkeypatch.setattr(cluster, "_kronecker_values", lambda bound: [NOT_NATURAL])
    with pytest.raises(ArithmeticError, match="non-natural"):
        enumerate_cluster_vars("kronecker", 4)
    _cli_fails_cleanly(["cluster-vars", "--kind", "kronecker", "--bound", "4"])


def test_cross_overlap_mismatch_raises_arithmetic_error(monkeypatch):
    monkeypatch.setattr(cluster._CrossFigure, "ne_value", lambda self, r, c: LaurentPoly.nat(7))
    with pytest.raises(ArithmeticError, match="inconsistent overlap"):
        cross_construct(CrossSeed.ones("xxyy"))


def test_frieze_stitch_mismatch_raises_arithmetic_error():
    # cell (r, c) holds r, so the transposed figure holds c there, and the
    # two disagree where the second figure lands on the first
    cells = {(r, c): LaurentPoly.nat(r) for r in range(12) for c in range(12)}
    with pytest.raises(ArithmeticError, match="stitch mismatch"):
        frieze_period(FriezePattern(CrossSeed.ones("xxyy"), cells, 0))


def test_off_frontier_vertex_raises_arithmetic_error(monkeypatch):
    e = Embedding(Frontier("xy", "", "yx"))
    p = e.vertex(2)
    monkeypatch.setattr(Embedding, "vertex", lambda self, i: (99, 99))
    with pytest.raises(InconsistentGeometry, match="not vertex 2"):
        variable_tile_value(e, lambda i: "u%d" % (i % 4 + 1), p)
