import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Optional, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact.acceptance import _random_frontier
from artifact.diagrams import parse_shorthand
from artifact import recurrences
from artifact.frises import detect_period, frise_extend
from artifact.recurrences import (
    LinearRecurrence,
    PrefixTooShort,
    find_min_recurrence,
    human_form,
    verify_recurrence,
)
from artifact.tilings import (
    Embedding,
    Frontier,
    Ray,
    parse_frontier,
    ray_values,
    step_product,
    tile_value,
    word_span,
)
import witness_oracles
from witness_oracles import (
    BadDirection,
    InconsistentWitness,
    LinearRep,
    NonNaturalEntry,
    nrational_witness,
    tensor_hadamard,
)

EVEN_FIB = [1, 1, 2, 5, 13, 34, 89, 233]


# ----------------------------------------------------------------------
# Gauss-Jordan reference fitter: one overdetermined Fraction system per
# order k = 1..max_order, free variables set to zero.


def _solve_exact(rows: list[list[Fraction]]) -> Optional[list[Fraction]]:
    """Particular solution of an overdetermined system, or None.

    rows are [a_1..a_k | rhs]; free variables are set to zero and the
    solution is checked against every input row.
    """
    if not rows:
        return None
    k = len(rows[0]) - 1
    work = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    if any(all(x == 0 for x in row[:-1]) and row[-1] != 0 for row in work):
        return None
    sol = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        sol[col] = work[i][-1]
    for row in rows:
        if sum(c * s for c, s in zip(row[:-1], sol)) != row[-1]:
            return None
    return sol


def _fit_order(seq: Sequence[Fraction], k: int) -> Optional[list[Fraction]]:
    rows = [
        [seq[n + k - 1 - j] for j in range(k)] + [seq[n + k]]
        for n in range(len(seq) - k)
    ]
    return _solve_exact(rows)


def gauss_jordan_min_recurrence(prefix: Sequence[int], max_order: int):
    seq = [Fraction(v) for v in prefix]
    for k in range(1, max_order + 1):
        sol = _fit_order(seq, k)
        if sol is not None:
            return tuple(sol)
    return None


def fraction_verify(prefix: Sequence[int], coeffs) -> bool:
    k = len(coeffs)
    seq = [Fraction(v) for v in prefix]
    return all(
        seq[n + k] == sum(c * seq[n + k - 1 - j] for j, c in enumerate(coeffs))
        for n in range(len(seq) - k)
    )


@st.composite
def fit_cases(draw):
    """A prefix and an order cap: recurrence-generated or random terms.

    Generated recurrences have order 0..max_order+2, so complexities just
    above the cap occur; zero initial terms give leading zeros.
    """
    max_order = draw(st.integers(1, 5))
    n = draw(st.integers(2 * max_order + 4, 2 * max_order + 9))
    if draw(st.booleans()):
        k = draw(st.integers(0, max_order + 2))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        seq = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
        while len(seq) < n:
            seq.append(sum(c * seq[-1 - j] for j, c in enumerate(coeffs)))
    else:
        seq = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return seq[:n], max_order


@settings(max_examples=400, deadline=None)
@given(fit_cases())
@example(([0] * 6, 1))
@example(([0, 0, 0, 1] + [0] * 8, 4))
@example(([0, 0, 0, 1] + [0] * 10, 5))
@example(([0, 0, 0, 1] + [0] * 6, 3))
@example(([1] + [0] * 11, 3))
@example(([32, 48, 72, 108, 162, 243], 1))
@example((EVEN_FIB, 2))
@example(([1, 2, 6, 24, 120, 720, 5040, 40320], 2))
def test_find_min_recurrence_matches_gauss_jordan(case):
    prefix, max_order = case
    rec = find_min_recurrence(prefix, max_order)
    want = gauss_jordan_min_recurrence(prefix, max_order)
    assert (None if rec is None else rec.coeffs) == want


# ----------------------------------------------------------------------
# the certificate: Berlekamp-Massey's zero discrepancies after its last
# update, and the direct recheck of find_min_recurrence before it


def field_discrepancies(prefix: Sequence[int]) -> list[Fraction]:
    """The discrepancy of every step of Berlekamp-Massey over Q.

    The fraction-free pass keeps a nonzero multiple of this connection
    polynomial, so its discrepancies are zero at the same steps.
    """
    s = [Fraction(v) for v in prefix]
    conn, prev = [Fraction(1)], [Fraction(1)]
    length, shift, last = 0, 1, Fraction(1)
    out = []
    for n in range(len(s)):
        d = s[n] + sum(conn[i] * s[n - i] for i in range(1, length + 1))
        out.append(d)
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
    return out


@st.composite
def perturbed_cases(draw):
    """A prefix from a random recurrence with at most one term moved.

    The moved term may be any one, the last included; zero initial terms
    and zero coefficients give all-zero prefixes and leading zeros.
    """
    max_order = draw(st.integers(1, 6))
    n = draw(st.integers(2 * max_order + 4, 2 * max_order + 14))
    k = draw(st.integers(1, max_order + 2))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    seq = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
    while len(seq) < n:
        seq.append(sum(c * seq[-1 - j] for j, c in enumerate(coeffs)))
    seq = seq[:n]
    if draw(st.booleans()):
        seq[draw(st.integers(0, n - 1))] += draw(st.sampled_from([-2, -1, 1, 2]))
    return seq, max_order


@settings(max_examples=400, deadline=None)
@given(perturbed_cases())
@example(([0] * 8, 2))
@example(([0] * 7 + [1], 2))
@example(([0, 0, 0, 1, 1, 2, 3, 5, 8, 13], 3))
@example(([1, 1, 2, 5, 13, 34, 89, 234], 2))
@example(([1, 1, 2, 5, 13, 34, 89, 233, 611, 1597], 3))
def test_every_fit_passes_the_independent_check(case):
    prefix, max_order = case
    rec = find_min_recurrence(prefix, max_order)
    if rec is not None:
        assert verify_recurrence(prefix, rec)
    conn, changed = recurrences._connection_polynomial(list(prefix), len(prefix))
    steps = [n for n, d in enumerate(field_discrepancies(prefix)) if d]
    assert changed == (steps[-1] if steps else -1)
    k = len(conn) - 1
    assert all(sum(c * prefix[n - i] for i, c in enumerate(conn)) == 0
               for n in range(k, len(prefix)))


def test_a_wrong_polynomial_missing_a_rechecked_position_raises(monkeypatch):
    # [1, -2, 0] fits EVEN_FIB at position 2 but not at 3 <= changed
    monkeypatch.setattr(recurrences, "_connection_polynomial", lambda seq, m: ([1, -2, 0], 3))
    with pytest.raises(RuntimeError, match="misses the prefix"):
        find_min_recurrence(EVEN_FIB, 2)


def test_the_certificate_miss_raises_under_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path.insert(0, %r)\n"
            "from artifact import recurrences\n"
            "recurrences._connection_polynomial = lambda seq, m: ([1, -2, 0], 3)\n"
            "print(__debug__)\n"
            "try:\n    recurrences.find_min_recurrence(%r, 2)\n"
            "except RuntimeError as exc:\n    print(exc)" % (src, EVEN_FIB))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\nBerlekamp-Massey result misses the prefix\n"


def test_find_min_recurrence_examples():
    rec = find_min_recurrence(EVEN_FIB, 2)
    assert rec.order == 2 and rec.coeffs == (3, -1)

    ones = find_min_recurrence([1] * 6, 1)
    assert ones.order == 1 and ones.coeffs == (1,)

    doubling = find_min_recurrence([2**n for n in range(8)], 2)
    assert doubling.order == 1 and doubling.coeffs == (2,)

    ratio = find_min_recurrence([32, 48, 72, 108, 162, 243], 1)
    assert ratio.coeffs == (Fraction(3, 2),)

    factorials = [1, 1, 2, 6, 24, 120, 720, 5040]
    assert find_min_recurrence(factorials, 2) is None

    with pytest.raises(PrefixTooShort):
        find_min_recurrence([1, 1, 2], 1)


def test_minimality_certified_on_window():
    assert find_min_recurrence(EVEN_FIB, 1) is None
    assert not verify_recurrence(EVEN_FIB, LinearRecurrence((Fraction(3),)))


def test_verify_recurrence():
    assert verify_recurrence([1, 1, 2, 5, 13, 34], LinearRecurrence((3, -1)))
    assert not verify_recurrence([1, 1, 2, 5, 13, 34], LinearRecurrence((2, 1)))
    with pytest.raises(ValueError):
        verify_recurrence([1, 2], LinearRecurrence((1, 1)))


@st.composite
def verify_cases(draw):
    """Integer prefix from a rational recurrence, sometimes perturbed.

    Terms are generated over Q and scaled by their common denominator,
    which keeps the recurrence; coefficients arrive as int or Fraction.
    """
    k = draw(st.integers(1, 4))
    coeffs = draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=k, max_size=k))
    seq = [Fraction(v) for v in draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))]
    while len(seq) < k + draw(st.integers(1, 8)):
        seq.append(sum(c * seq[-1 - j] for j, c in enumerate(coeffs)))
    den = lcm(*(v.denominator for v in seq))
    prefix = [int(v * den) for v in seq]
    if draw(st.booleans()):
        prefix[draw(st.integers(0, len(prefix) - 1))] += draw(st.sampled_from([-1, 1]))
    as_int = draw(st.booleans())
    coeffs = [int(c) if as_int and c.denominator == 1 else c for c in coeffs]
    return prefix, tuple(coeffs)


@settings(max_examples=300, deadline=None)
@given(verify_cases())
@example(([32, 48, 72, 108, 162, 243], (Fraction(3, 2),)))
@example(([32, 48, 72, 108, 162, 244], (Fraction(3, 2),)))
@example(([1, 1, 2, 5, 13, 34], (3, -1)))
@example(([1, 1, 2, 5, 13, 34], (Fraction(3), Fraction(-1))))
@example(([4, 3, 0, 0, 0], (Fraction(3, 4), Fraction(0))))
def test_verify_recurrence_matches_fraction_form(case):
    prefix, coeffs = case
    assert verify_recurrence(prefix, LinearRecurrence(coeffs)) == fraction_verify(prefix, coeffs)


def test_round_trip_on_periodic_columns():
    for name in ("A2", "B2", "G2", "A3"):
        fr = frise_extend(parse_shorthand(name), 24)
        n0, p = detect_period(fr)
        assert n0 == 0
        for vertex in range(fr.quiver.cartan.d):
            row = [fr.value(vertex, n) for n in range(25)]
            rec = find_min_recurrence(row, p)
            assert rec is not None and rec.order <= p
            assert verify_recurrence(row, rec)


def test_human_form():
    assert human_form(LinearRecurrence((3, -1))) == "u[n+2] = 3 u[n+1] - u[n]"
    assert human_form(LinearRecurrence((Fraction(1),))) == "u[n+1] = u[n]"
    assert human_form(LinearRecurrence((Fraction(2),))) == "u[n+1] = 2 u[n]"
    assert human_form(LinearRecurrence((Fraction(0),))) == "u[n+1] = 0"
    assert human_form(LinearRecurrence((Fraction(3, 2),))) == "u[n+1] = 3/2 u[n]"
    assert human_form(LinearRecurrence((-1, 0, 2))) == "u[n+3] = -u[n+2] + 2 u[n]"


def test_witness_staircase_row():
    e = Embedding(parse_frontier("[xy]* [xy]*"))
    w = nrational_witness(e, (0, -1), (1, 0))
    assert w.q == 1
    assert [w.value(n) for n in range(6)] == [1, 2, 5, 13, 34, 89]
    assert [w.value(n) for n in range(20)] == list(
        ray_values(e, (0, -1), (1, 0), 20).values
    )


def test_witness_staircase_diagonal():
    e = Embedding(parse_frontier("[xy]* [xy]*"))
    w = nrational_witness(e, (1, -1), (1, -1))
    assert w.q == 1
    # starts strictly below, so no delay line is needed
    assert len(w.residues[0].lam) == 2
    assert [w.value(n) for n in range(4)] == [2, 13, 89, 610]


def test_witness_atilde3_row():
    e = Embedding(parse_frontier("[xxxy]* [xxxy]*"))
    w = nrational_witness(e, (-2, -1), (1, 0))
    assert w.q == 3
    assert [w.value(3 * k) for k in range(4)] == [1, 2, 9, 43]
    assert [w.value(n) for n in range(24)] == list(
        ray_values(e, (-2, -1), (1, 0), 24).values
    )


def test_witness_upward_ray_uses_mirror():
    e = Embedding(parse_frontier("[xy]* [xy]*"))
    w = nrational_witness(e, (0, 1), (0, 1))
    assert [w.value(n) for n in range(3)] == [
        tile_value(e, (0, 1 + n)) for n in range(3)
    ]
    with pytest.raises(BadDirection):
        nrational_witness(e, (0, 0), (1, 1))
    with pytest.raises(BadDirection):
        nrational_witness(e, (0, 0), (0, 0))


def test_witness_entries_are_natural():
    e = Embedding(parse_frontier("[xxxy]* [xxxy]*"))
    w = nrational_witness(e, (0, -2), (2, -1))
    for res in w.residues:
        for mat in (res.mprime, res.core, res.m):
            assert all(x >= 0 for row in mat for x in row)
        assert all(x >= 0 for x in res.lam) and all(x >= 0 for x in res.gamma)


def test_two_power_to_single_power():
    e = Embedding(parse_frontier("[xy]* [xy]*"))
    w = nrational_witness(e, (0, -1), (1, 0))
    res = w.residues[0]
    single = res.to_linear()
    assert [single.value(n) for n in range(12)] == [res.value(n) for n in range(12)]


# Rays whose first candidate pumping point has a word with an end on the
# center's first or last letter, from where a step of the residue class
# is not a whole number of tail blocks.
PUMP_START_RAYS = [
    (parse_frontier("[xy]* yyx [xxy]*"), (1, -1), (1, -1)),
    (Frontier("yxx", "x", "xy"), (0, 0), (1, -1)),
    (Frontier("yx", "x", "yxxxy"), (-1, 0), (2, -1)),
]


@pytest.mark.parametrize("fr, origin, direction", PUMP_START_RAYS)
def test_witness_pumps_only_from_words_inside_both_tails(fr, origin, direction):
    e = Embedding(fr)
    w = nrational_witness(e, origin, direction)
    assert w.values(60) == list(ray_values(e, origin, direction, 60).values)


WITNESS_DIRECTIONS = [(1, 0), (0, -1), (1, -1), (2, -1), (1, -2), (-1, 0), (0, 1), (-1, 2)]


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(WITNESS_DIRECTIONS),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_witness_reproduces_far_ray_terms(rng, direction, origin):
    # the witness reaches term n by matrix powers of the pump words, not by
    # tile_values' prefix pairing, so this checks Embedding's block
    # arithmetic many tail blocks out
    e = Embedding(_random_frontier(rng))
    w = nrational_witness(e, origin, direction)
    want = ray_values(e, origin, direction, 300).values
    assert w.values(300) == list(want)
    assert w.value(299) == want[299]


def test_tensor_hadamard():
    twos = LinearRep((1,), ((2,),), (1,))
    threes = LinearRep((1,), ((3,),), (1,))
    sixes = tensor_hadamard(twos, threes)
    assert [sixes.value(n) for n in range(10)] == [6**n for n in range(10)]

    count = LinearRep((1, 0), ((1, 1), (0, 1)), (1, 1))
    assert [count.value(n) for n in range(5)] == [1, 2, 3, 4, 5]
    squares = tensor_hadamard(count, count)
    assert [squares.value(n) for n in range(10)] == [(n + 1) ** 2 for n in range(10)]


# ----------------------------------------------------------------------
# the witness self-checks are exceptions, so they survive python -O


def test_non_natural_witness_entry_raises_arithmetic_error(monkeypatch):
    e = Embedding(parse_frontier("[xy]* [xy]*"))
    monkeypatch.setattr(witness_oracles, "step_product",
                        lambda w: tuple(tuple(-x for x in row) for row in step_product(w)))
    with pytest.raises(NonNaturalEntry, match="not natural"):
        nrational_witness(e, (1, -1), (1, -1))


def test_unpumped_cut_word_raises_arithmetic_error(monkeypatch):
    e = Embedding(parse_frontier("[xy]* [xy]*"))
    # the third point of the ray reports one letter too many on its left
    monkeypatch.setattr(witness_oracles, "word_span",
                        lambda e, p: (lambda f, l: (f - (p == (3, -3)), l))(*word_span(e, p)))
    with pytest.raises(InconsistentWitness, match="does not pump"):
        nrational_witness(e, (1, -1), (1, -1))


def test_witness_disagreeing_with_ray_raises_arithmetic_error(monkeypatch):
    e = Embedding(parse_frontier("[xy]* [xy]*"))
    monkeypatch.setattr(witness_oracles, "ray_values", lambda e, o, d, n: Ray(
        o, d, tuple(v + 1 for v in ray_values(e, o, d, n).values)))
    with pytest.raises(InconsistentWitness, match="witness gives"):
        nrational_witness(e, (1, -1), (1, -1))
