"""Frise tables against a direct rational-recursion oracle."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.diagrams import (
    Quiver,
    _cycle_word,
    catalog_diagram,
    catalog_members,
    cycle_quiver,
    default_quiver,
    parse_shorthand,
    quiver_from_json,
)
from artifact.frises import (
    Frise,
    WindowTooShort,
    _division_rows,
    _relations,
    detect_period,
    frise_extend,
    frise_extend_vars,
    initial_variables,
    specialize_at_one,
    verify_recursion,
)
from artifact.laurent import LaurentPoly, bordered_word_value, nested_word_values
from artifact.tilings import Embedding, Frontier, word_span
from bordered_oracles import word_value_vars
from laurent_oracles import subst


# ----------------------------------------------------------------------
# oracle: evaluate the defining relation by fixpoint iteration over exact
# rationals, with no topological bookkeeping shared with the implementation


def _oracle_table(q: Quiver, steps: int) -> list[list[Fraction]]:
    d = q.cartan.d
    table: list[list] = [[Fraction(1)] + [None] * steps for _ in range(d)]
    for n in range(steps):
        remaining = set(range(d))
        while remaining:
            progressed = False
            for j in sorted(remaining):
                if any(table[i][n + 1] is None for i in q.in_neighbors(j)):
                    continue
                prod = Fraction(1)
                for i in q.out_neighbors(j):
                    prod *= table[i][n] ** q.exponent(i, j)
                for i in q.in_neighbors(j):
                    prod *= table[i][n + 1] ** q.exponent(i, j)
                table[j][n + 1] = (1 + prod) / table[j][n]
                remaining.discard(j)
                progressed = True
            assert progressed, "oracle stuck; orientation not acyclic?"
    return table


def _assert_matches_oracle(q: Quiver, steps: int) -> Frise:
    fr = frise_extend(q, steps)
    oracle = _oracle_table(q, steps)
    for j in range(q.cartan.d):
        for n in range(steps + 1):
            assert oracle[j][n].denominator == 1
            assert fr.value(j, n) == oracle[j][n]
    verify_recursion(fr)
    return fr


def test_single_vertex_alternates():
    # empty neighbor products leave a(n)a(n+1) = 2
    fr = _assert_matches_oracle(default_quiver("A", 1), 3)
    assert fr.row(0) == (1, 2, 1, 2)


def test_kronecker_values():
    fr = _assert_matches_oracle(parse_shorthand("kronecker"), 2)
    assert fr.row(0) == (1, 2, 13)
    assert fr.row(1) == (1, 5, 34)


def test_kronecker_merged_sequence_is_even_fibonacci():
    fr = frise_extend(parse_shorthand("kronecker"), 7)
    merged = [fr.value(j, n) for n in range(8) for j in (0, 1)][:15]
    fib = [1, 1]
    while len(fib) < 30:
        fib.append(fib[-1] + fib[-2])
    expected = [1] + [fib[2 * k] for k in range(14)]
    assert merged == expected


def test_oracle_agreement_across_catalog():
    for d in range(2, 7):
        for tag, kind, m, c in catalog_members(d):
            q = default_quiver(kind, m)
            _assert_matches_oracle(q, 8)


def test_all_orientations_of_a3():
    c = catalog_diagram("A", 3)
    edges = c.edges()
    for flips in itertools.product((False, True), repeat=len(edges)):
        arrows = [(j, i) if f else (i, j) for (i, j), f in zip(edges, flips)]
        _assert_matches_oracle(Quiver(c, arrows), 10)


def test_variable_frise_small_cases():
    u1, u2 = initial_variables(2)
    vf = frise_extend_vars(default_quiver("A", 2), 1)
    assert vf.value(0, 1) == (1 + u2).monomial_div(u1)
    assert vf.value(1, 1) == (u1 + u2 + 1).monomial_div(u1 * u2)
    kf = frise_extend_vars(parse_shorthand("kronecker"), 1)
    assert kf.value(0, 1) == (1 + u2 ** 2).monomial_div(u1)


def _to_sympy(p: LaurentPoly, syms: dict):
    expr = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        term = sympy.Integer(coeff)
        for name, e in zip(p.variables, exps):
            term *= syms[name] ** e
        expr += term
    return expr


def _sympy_oracle(q: Quiver, steps: int):
    d = q.cartan.d
    syms = {("u%d" % (j + 1)): sympy.Symbol("u%d" % (j + 1), positive=True) for j in range(d)}
    table = [[syms["u%d" % (j + 1)]] for j in range(d)]
    for n in range(steps):
        for j in q.topological_order:
            prod = sympy.Integer(1)
            for i in q.out_neighbors(j):
                prod *= table[i][n] ** q.exponent(i, j)
            for i in q.in_neighbors(j):
                prod *= table[i][n + 1] ** q.exponent(i, j)
            table[j].append(sympy.cancel((1 + prod) / table[j][n]))
    return syms, table


@pytest.mark.parametrize("name,steps", [("A2", 4), ("A3", 4), ("kronecker", 3), ("G2", 3), ("B2", 3)])
def test_variable_frise_matches_symbolic_oracle(name, steps):
    q = parse_shorthand(name)
    vf = frise_extend_vars(q, steps)
    syms, oracle = _sympy_oracle(q, steps)
    for j in range(q.cartan.d):
        for n in range(steps + 1):
            diff = sympy.cancel(_to_sympy(vf.value(j, n), syms) - oracle[j][n])
            assert diff == 0, (name, j, n)
    verify_recursion(vf)


def test_specialization_at_one():
    for name in ("A3", "B3", "Atilde2", "kronecker"):
        q = parse_shorthand(name)
        vf = frise_extend_vars(q, 4)
        fr = frise_extend(q, 4)
        assert specialize_at_one(vf).table == fr.table


def test_specialization_at_one_matches_the_subst_oracle():
    for d in range(1, 5):
        for _, kind, m, _ in catalog_members(d):
            vf = frise_extend_vars(default_quiver(kind, m), 3)
            ones = {"u%d" % (j + 1): 1 for j in range(d)}
            want = tuple(tuple(subst(cell, ones).as_int() for cell in row) for row in vf.table)
            assert specialize_at_one(vf).table == want, (kind, m)


# ----------------------------------------------------------------------
# verify_recursion against the ring-product check it replaced


def _verify_recursion_by_products(fr: Frise) -> None:
    """Each relation as ring products of its cell pair and its factors."""
    plan = _relations(fr.quiver, fr.table)
    for n in range(fr.steps):
        for j, row, factors in plan:
            prod = 1
            for other, e, s in factors:
                prod = prod * other[n + s] ** e
            if row[n] * row[n + 1] != 1 + prod:
                raise ValueError("relation fails at vertex %d, step %d" % (j, n))


_SWEEP = [(kind, m) for d in range(1, 7) for _, kind, m, _ in catalog_members(d)]


@st.composite
def recursion_tables(draw) -> Frise:
    """A catalog quiver of rank <= 6 in a random acyclic orientation (edges
    run up a random vertex order), as an integer table of 12 steps or a
    Laurent table of 3, intact or with one cell moved by +-1 or multiplied
    by a variable."""
    kind, m = draw(st.sampled_from(_SWEEP))
    c = catalog_diagram(kind, m)
    rank = {v: i for i, v in enumerate(draw(st.permutations(range(c.d))))}
    q = Quiver(c, [(i, j) if rank[i] < rank[j] else (j, i) for i, j in c.edges()])
    fr = frise_extend_vars(q, 3) if draw(st.booleans()) else frise_extend(q, 12)
    table = [list(row) for row in fr.table]
    change = draw(st.sampled_from([None, 1, -1, "u1"]))
    if change is not None:
        j, n = draw(st.integers(0, c.d - 1)), draw(st.integers(0, fr.steps))
        if change == "u1":
            table[j][n] = table[j][n] * LaurentPoly.var("u1")
        else:
            table[j][n] += change
    return Frise(q, table)


@settings(max_examples=200, deadline=None)
@given(recursion_tables())
def test_verify_recursion_agrees_with_the_ring_products(fr):
    verdicts = []
    for check in (verify_recursion, _verify_recursion_by_products):
        try:
            check(fr)
            verdicts.append(None)
        except ValueError as exc:
            verdicts.append(str(exc))
    assert verdicts[0] == verdicts[1]


def test_every_catalog_quiver_of_rank_at_most_6_passes_its_symbolic_relations():
    # relations of three or more powers: D, E, the Euclidean types, valued edges
    for kind, m in _SWEEP:
        q = default_quiver(kind, m)
        vf = frise_extend_vars(q, 4)
        verify_recursion(vf)
        assert specialize_at_one(vf).table == frise_extend(q, 4).table, (kind, m)


def test_detect_period_dynkin_rank_two():
    assert detect_period(frise_extend(parse_shorthand("A2"), 20)) == (0, 5)
    assert detect_period(frise_extend(parse_shorthand("B2"), 20)) == (0, 3)
    assert detect_period(frise_extend(parse_shorthand("G2"), 20)) == (0, 4)


def test_detect_period_growth_returns_none():
    assert detect_period(frise_extend(parse_shorthand("kronecker"), 20)) is None


def test_detect_period_window_too_short():
    with pytest.raises(WindowTooShort):
        detect_period(frise_extend(default_quiver("A", 1), 3))
    assert detect_period(frise_extend(default_quiver("A", 1), 5)) == (0, 2)


def _period_by_mismatch_lists(fr: Frise):
    """detect_period's forward route: for each p, list every n with
    column n != column n + p; n0 is one past the last of them."""
    N = fr.steps
    cols = [fr.column(n) for n in range(N + 1)]
    uncertified = None
    for p in range(1, N + 1):
        mismatch = [n for n in range(0, N - p + 1) if cols[n] != cols[n + p]]
        n0 = mismatch[-1] + 1 if mismatch else 0
        if n0 > N - p:
            continue
        if n0 + 3 * p <= N + 1:
            return (n0, p)
        if uncertified is None:
            uncertified = (n0, p)
    if uncertified is not None:
        return "WindowTooShort"
    return None


@st.composite
def eventually_periodic_tables(draw):
    """A random preperiod, then a random block of p columns repeated, cut
    to N + 1 columns; entries from a small alphabet, so columns repeat by
    chance too and the smallest (n0, p) can be shorter than the one drawn."""
    width = draw(st.integers(1, 3))
    pre, p = draw(st.integers(0, 8)), draw(st.integers(1, 6))
    N = draw(st.integers(0, 30))
    column = st.tuples(*[st.integers(0, 2)] * width)
    cols = draw(st.lists(column, min_size=pre, max_size=pre))
    block = draw(st.lists(column, min_size=p, max_size=p))
    cols = (cols + block * (N // p + 1))[:N + 1]
    return Frise(default_quiver("A", width), [list(row) for row in zip(*cols)])


@settings(max_examples=400)
@given(eventually_periodic_tables())
def test_detect_period_matches_the_mismatch_lists(fr):
    try:
        got = detect_period(fr)
    except WindowTooShort:
        got = "WindowTooShort"
    assert got == _period_by_mismatch_lists(fr)


def test_every_dynkin_orientation_is_periodic():
    for d in range(1, 9):
        for tag, kind, m, c in catalog_members(d) if d > 1 else [("Dynkin", "A", 1, catalog_diagram("A", 1))]:
            if tag != "Dynkin":
                continue
            edges = c.edges()
            for flips in itertools.product((False, True), repeat=len(edges)):
                arrows = [(j, i) if f else (i, j) for (i, j), f in zip(edges, flips)]
                fr = frise_extend(Quiver(c, arrows), 64)
                assert detect_period(fr) is not None, (kind, m, flips)


# ----------------------------------------------------------------------
# oriented cycles: the ray route against the division route


def _assert_routes_agree(q: Quiver, steps: int) -> None:
    rays = frise_extend_vars(q, steps).table
    division = _division_rows(q, steps)
    for v in range(q.cartan.d):
        for n in range(steps + 1):
            assert rays[v][n] == division[v][n], (v, n)


@st.composite
def orientation_words(draw) -> tuple[str, int]:
    w = draw(st.text(alphabet="xy", min_size=3, max_size=7).filter(lambda w: "x" in w and "y" in w))
    # the division oracle costs seconds past d + steps = 10
    return w, draw(st.integers(0, min(6, 10 - len(w))))


@settings(max_examples=40, deadline=None)
@given(orientation_words())
def test_cycle_ray_route_matches_division_route(case):
    w, steps = case
    q = cycle_quiver(w)
    assert _cycle_word(q) == w
    _assert_routes_agree(q, steps)


@pytest.mark.parametrize("m, steps", [(2, 6), (3, 6), (4, 5), (5, 4)])
def test_atilde_ray_route_matches_division_route(m, steps):
    q = default_quiver("Atilde", m)
    assert _cycle_word(q) == "x" * m + "y"
    _assert_routes_agree(q, steps)


def test_cycle_word_only_reads_simply_laced_cycles_in_vertex_order():
    relabelled = quiver_from_json({"vertices": 4, "edges": [
        {"from": 0, "to": 2}, {"from": 2, "to": 1}, {"from": 3, "to": 1}, {"from": 0, "to": 3}]})
    doubled = quiver_from_json({"vertices": 3, "edges": [
        {"from": 0, "to": 1, "val": [2, 2]}, {"from": 1, "to": 2}, {"from": 0, "to": 2}]})
    chord = quiver_from_json({"vertices": 4, "edges": [
        {"from": 0, "to": 1}, {"from": 1, "to": 2}, {"from": 2, "to": 3}, {"from": 0, "to": 3},
        {"from": 0, "to": 2}]})
    for q in (relabelled, doubled, chord, parse_shorthand("kronecker"), parse_shorthand("A3"),
              parse_shorthand("Dtilde4")):
        assert _cycle_word(q) is None
    assert _cycle_word(cycle_quiver("xyy")) == "xyy"
    assert frise_extend_vars(relabelled, 3).table == tuple(
        tuple(row) for row in _division_rows(relabelled, 3))


blocks = st.text(alphabet="xy", min_size=2, max_size=6).filter(lambda w: "x" in w and "y" in w)


# a fixed draw, so that this slow test's time does not move from run to run
@settings(max_examples=60, deadline=None, derandomize=True)
@given(blocks, st.text(alphabet="xy", max_size=5), blocks, st.integers(-6, 6),
       st.integers(1, 5), st.integers(1, 7), st.sets(st.integers(0, 6)), st.booleans())
def test_nested_word_values_match_word_value_vars(left, center, right, k, period, count, ones,
                                                  col_swap):
    # a diagonal ray below vertex k gives nested words, with labels repeating
    # with the period; the longest word is also read alone by the single-word
    # walk, with the residues in ``ones`` carrying the constant 1
    e = Embedding(Frontier(left, center, right))
    u, v = e.vertex(k)
    spans = [word_span(e, (u + n, v - n)) for n in range(1, count + 1)]
    names = tuple("u%d" % (j + 1) for j in reversed(range(period)))
    label = lambda i: i % period
    got = nested_word_values(names, e.frontier.letter, label, spans)
    for (f, l), value in zip(spans, got):
        labels = [names[label(i)] for i in range(f, l + 2)]
        assert value == word_value_vars(labels, e.frontier.factor(f, l + 1))
    walk = [None if i % period in ones else name for i, name in enumerate(labels, f)]
    assert bordered_word_value(walk, e.frontier.factor(f, l + 1), col_swap) == word_value_vars(
        ["1" if name is None else name for name in walk], e.frontier.factor(f, l + 1), col_swap)


def test_nested_word_values_need_nested_spans():
    names = ("u1", "u2")
    with pytest.raises(ValueError):
        nested_word_values(names, lambda i: "xy"[i % 2], lambda i: i % 2, [(0, 3), (1, 4)])
    with pytest.raises(ValueError):
        nested_word_values(names, lambda i: "xy"[i % 2], lambda i: i % 2, [(2, 2)])
    assert nested_word_values(names, lambda i: "xy"[i % 2], lambda i: i % 2, []) == []
