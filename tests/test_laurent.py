"""Exact arithmetic in the Laurent semiring and its 2x2 matrices."""

from __future__ import annotations

import ast
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import artifact.laurent as laurent_mod
from artifact.laurent import (
    ExactDivisionError,
    LaurentPoly,
    NonMonomialDivisor,
    bordered_word_value,
    nested_word_values,
    products_differ_by_one,
    sorted_distinct,
)
from bordered_oracles import (Mat2, row_times_mat, step_matrix, vec_dot, verify_det_identities,
                              word_value_vars)
from laurent_oracles import TupleLaurent, subst
from artifact.tilings import Embedding, Frontier, word_span

a = LaurentPoly.var("a")
b = LaurentPoly.var("b")


def test_canonical_form_prunes_unused_variables():
    p = LaurentPoly(("a", "b"), {(2, 0): 3, (1, 0): -3, (0, 0): 1})
    assert p.variables == ("a",)
    q = LaurentPoly(("a",), {(2,): 3, (1,): -3, (0,): 1})
    assert p == q and hash(p) == hash(q)


def test_zero_coefficients_vanish():
    assert LaurentPoly(("a",), {(1,): 0}) == 0
    assert (a - a).is_zero()


@pytest.mark.parametrize("build, want", [
    # a coefficient strictly between -1 and 1 once became a stored zero term
    (lambda: LaurentPoly(("a",), {(1,): 0.5}), TypeError),
    (lambda: LaurentPoly.nat(Fraction(1, 2)), TypeError),
    (lambda: products_differ_by_one(LaurentPoly.nat(1.9), 1, 0, 0), TypeError),
    # numpy ints and bools are integers; their zeros drop after the conversion
    (lambda: LaurentPoly(("a", "b"), {(1, 0): np.int64(3), (0, 1): np.int64(0)}), 3 * a),
    (lambda: LaurentPoly.nat(True) + LaurentPoly(("a",), {(1,): False}), 1),
])
def test_coefficients_are_integers(build, want):
    if want is TypeError:
        with pytest.raises(TypeError):
            build()
        return
    got = build()
    assert got == want and all(type(c) is int for c in got.terms.values())
    assert got.is_zero() == (want == 0)


def test_variable_order_is_length_then_name():
    p = LaurentPoly.var("u10") * LaurentPoly.var("u2")
    assert p.variables == ("u2", "u10")


@pytest.mark.parametrize("variables", [("a", "a"), ("b", "a", "c", "a"), ("a", "b", "a")])
def test_a_repeated_variable_name_is_refused(variables):
    # one exponent per name: ("a", "a") would print as a*a yet differ from a**2
    exponents = (1,) * len(variables)
    with pytest.raises(ValueError, match="repeated variable name 'a'"):
        LaurentPoly(variables, {exponents: 1})
    with pytest.raises(ValueError, match="repeated variable name 'a'"):
        LaurentPoly(variables, {})


def test_natural_and_int_views():
    assert (a + 1).is_natural()
    assert not (a - 1).is_natural()
    # the zero polynomial has no coefficient, so none fails
    assert LaurentPoly.nat(0).is_natural() and (a - a).is_natural()
    # one negative coefficient among many, at neither end of the term order
    many = LaurentPoly(("a", "b"), {(i, j): 1 + i + j for i in range(6) for j in range(6)})
    assert many.is_natural()
    assert not (many - 7 * a ** 2 * b ** 3).is_natural()  # 6 - 7 at a^2 b^3
    assert LaurentPoly.nat(7).as_int() == 7
    with pytest.raises(ValueError):
        (a + 1).as_int()


def test_numerator_denominator_split():
    p = (1 + a * b).monomial_div(a)
    num, den = p.numerator_denominator()
    assert num == 1 + a * b
    assert den == a
    assert str(p) == "(a*b + 1)/a"


def test_rendering():
    assert str(a + 1) == "a + 1"
    assert str((1 + b).monomial_div(a)) == "(b + 1)/a"
    assert str(2 * a * b - 3) == "2*a*b - 3"
    assert str(LaurentPoly.nat(0)) == "0"
    assert str(a ** 2) == "a^2"


def test_monomial_division_shifts_exponents():
    p = (a ** 3) * b
    assert p.monomial_div(a ** 2) == a * b
    assert (2 * p).monomial_div(2 * a) == a ** 2 * b
    with pytest.raises(ExactDivisionError):
        (2 * a + 1).monomial_div(LaurentPoly.nat(2))
    with pytest.raises(NonMonomialDivisor):
        p.monomial_div(a + 1)


def test_exact_division_polynomial_case():
    assert (a ** 2 - b ** 2).exact_div(a - b) == a + b
    assert (a ** 2 + 2 * a * b + b ** 2).exact_div(a + b) == a + b
    with pytest.raises(ExactDivisionError):
        (a ** 2 + 1).exact_div(a + 1)
    with pytest.raises(ExactDivisionError):
        (2 * a + 1).exact_div(LaurentPoly.nat(2))


def test_exact_division_handles_laurent_content():
    # (a^-1 + b) / (1 + a*b) = a^-1
    p = a ** -1 + b
    q = 1 + a * b
    assert p.exact_div(q) == a ** -1
    assert (p * q).exact_div(p) == q


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        (a + 1).exact_div(LaurentPoly.nat(0))
    assert LaurentPoly.nat(0).exact_div(a + 1) == 0


def test_negative_powers_need_unit_monomials():
    assert (a * b) ** -1 == a ** -1 * b ** -1
    assert (-a) ** -1 == -(a ** -1)
    assert (-a) ** -2 == a ** -2
    with pytest.raises(NonMonomialDivisor):
        (a + b) ** -1
    with pytest.raises(NonMonomialDivisor):
        (2 * a) ** -1


def test_substitution_integral_values():
    p = (1 + a ** 2).monomial_div(a)
    assert subst(p, {"a": 1}) == 2
    q = (1 + a * b).monomial_div(a)
    assert subst(q, {"a": 1}) == 1 + b
    assert subst(q, {"a": 1, "b": 4}) == 5


def test_substitution_requires_exactness():
    p = (1 + a ** 2).monomial_div(a)
    with pytest.raises(ExactDivisionError):
        subst(p, {"a": 2})


def test_substitution_by_polynomial():
    p = a ** 2 + 1
    assert subst(p, {"a": b + 1}) == b ** 2 + 2 * b + 2


small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def laurent_polys(draw, names=("a", "b")):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(st.integers(min_value=-2, max_value=3)) for _ in names)
        c = draw(small_ints)
        terms[e] = terms.get(e, 0) + c
    return LaurentPoly(names, terms)


@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p + 0 == p and p * 1 == p


@given(laurent_polys(), laurent_polys())
def test_products_divide_exactly(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


@given(laurent_polys())
def test_all_ones_substitution_sums_coefficients(p):
    assert subst(p, {"a": 1, "b": 1}) == sum(p.terms.values())


def test_step_matrices():
    mx = step_matrix(1, "x", 1)
    my = step_matrix(1, "y", 1)
    assert (mx.a, mx.b, mx.c, mx.d) == (1, 1, 0, 1)
    assert (my.a, my.b, my.c, my.d) == (1, 0, 1, 1)
    assert step_matrix(a, "x", b).det() == a * b
    assert step_matrix(a, "y", b).det() == a * b
    with pytest.raises(ValueError):
        step_matrix(1, "z", 1)


def test_mat2_algebra():
    m = step_matrix(a, "x", b) * step_matrix(b, "y", a)
    assert m.det() == a ** 2 * b ** 2
    assert Mat2.identity() * m == m
    row = row_times_mat((1, 1), step_matrix(1, "x", 1))
    assert vec_dot(row, (1, 1)) == 3


def test_products_differ_by_one_agrees_with_plain_arithmetic():
    one = LaurentPoly.nat(1)
    assert products_differ_by_one(2, 3, 1, 5)
    assert not products_differ_by_one(2, 3, 1, 4)
    assert products_differ_by_one(one + a * b, 1, a, b)
    assert not products_differ_by_one(one + a * b, 1, a, a)
    # a genuinely Laurent instance with negative exponents on both sides
    p = (one + a * b).monomial_div(a * b)
    assert products_differ_by_one(p, a * b, a ** -1 * b, a ** 2)


@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_products_differ_by_one_matches_subtraction(p, q, r):
    expected = (p * q - r) == LaurentPoly.nat(1)
    assert products_differ_by_one(p, q, r, 1) == expected


huge_ints = st.integers(-(1 << 70), 1 << 70)


@st.composite
def int_minors(draw):
    """[[p, r], [s, q]] of rank one, unimodular or of determinant 2, so
    p*q - r*s is 0, 1 or 2, with entries past 2^63; or four arbitrary ints."""
    kind = draw(st.sampled_from(("rank one", "unimodular", "det 2", "any")))
    if kind == "any":
        return tuple(draw(huge_ints) for _ in range(4))
    if kind == "rank one":
        u1, u2, v1, v2 = (draw(huge_ints) for _ in range(4))
        return u1 * v1, u2 * v2, u1 * v2, u2 * v1
    p, r, s, q = 1, 0, 0, 1
    for i, t in enumerate(draw(st.lists(huge_ints, max_size=4))):
        if i % 2:  # row 2 += t * row 1
            s, q = s + t * p, q + t * r
        else:  # column 1 += t * column 2
            p, s = p + t * r, s + t * q
    return (p, 2 * q, 2 * r, s) if kind == "det 2" else (p, q, r, s)


@given(int_minors())
def test_products_differ_by_one_on_ints_matches_the_laurent_route(minor):
    p, q, r, s = minor
    got = products_differ_by_one(p, q, r, s)
    assert got is products_differ_by_one(*(LaurentPoly.nat(v) for v in minor))
    assert got == (p * q - r * s == 1)


def test_det_identity_sweep_is_clean():
    report = verify_det_identities(instances=60, rng_seed=5)
    assert report["all_ok"]
    assert report["factorization_failures"] == 0
    assert report["bordered_rows_failures"] == 0
    assert report["crossing_failures"] == 0


def test_bordered_row_determinant_orientation():
    # k = 1: the bordered row (1,a).M(b1,y,b) over the plain row (1,b1)
    one = LaurentPoly.nat(1)
    b1 = LaurentPoly.var("b1")
    lamp = row_times_mat((one, a), step_matrix(b1, "y", b))
    lam = (one, b1)
    assert lamp[0] * lam[1] - lamp[1] * lam[0] == b1 * b
    assert lam[0] * lamp[1] - lam[1] * lamp[0] == -(b1 * b)


# ----------------------------------------------------------------------
# the ring's product and division against the tuple-dict oracle


def _from_oracle(t: TupleLaurent) -> LaurentPoly:
    return LaurentPoly(t.variables, t.terms)


def oracle_mul(p, q):
    return _from_oracle(TupleLaurent.of(p) * TupleLaurent.of(q))


def oracle_div(p, q):
    """Strip both monomial contents, long-divide, shift the quotient back."""
    return _from_oracle(TupleLaurent.of(p).exact_div(TupleLaurent.of(q)))


def _division_outcome(divide, p, q):
    try:
        return divide(p, q)
    except ExactDivisionError:
        return "raise"


BIG = 10 ** 19  # coefficients and their products beyond 64-bit integers


def _scaled(p, k):
    return LaurentPoly(p.variables, {e: c * k for e, c in p.terms.items()})


@st.composite
def one_term(draw, names=("a", "b")):
    """A monomial with any nonzero coefficient, or a nonzero constant."""
    e = tuple(draw(st.integers(min_value=-2, max_value=3)) for _ in names)
    return LaurentPoly(names, {e: draw(st.sampled_from([1, -1, 2, -3, 5]))})


# operands over two overlapping variable sets, so products and quotients
# also realign their terms
operands = st.one_of(laurent_polys(("a", "b")), laurent_polys(("b", "c")), one_term(("a", "c")),
                     small_ints.map(LaurentPoly.nat))


@given(operands, operands)
def test_products_match_the_pairwise_oracle(p, q):
    want = oracle_mul(p, q)
    assert p * q == want and q * p == want
    assert _scaled(p, BIG) * _scaled(q, BIG) == _scaled(want, BIG * BIG)


@given(laurent_polys(("a", "b")), one_term(("b", "c")), small_ints)
def test_one_term_factors_shift_exponents(p, m, k):
    want = oracle_mul(p, m)
    assert p * m == want and m * p == want
    assert p * k == k * p == oracle_mul(p, LaurentPoly.nat(k))
    assert p * 0 == 0 * p == LaurentPoly.nat(0) * m == 0


@given(operands, operands)
def test_exact_division_matches_the_long_division_oracle(p, q):
    if q.is_zero():
        return
    prod = oracle_mul(p, q)
    assert prod.exact_div(q) == oracle_div(prod, q) == p
    big = _scaled(prod, BIG)
    assert big.exact_div(q) == oracle_div(big, q) == _scaled(p, BIG)
    assert big.exact_div(_scaled(q, BIG)) == p


@given(operands, operands)
def test_division_raises_exactly_when_the_oracle_does(p, q):
    if q.is_zero():
        return
    target = p * q + 1
    assert (_division_outcome(LaurentPoly.exact_div, target, q)
            == _division_outcome(oracle_div, target, q))


def test_huge_coefficient_division():
    huge = 10 ** 25
    p = (a + b) * huge + a * b
    q = (a + 1) * (b + 1) * huge + 3
    prod = oracle_mul(p, q)
    assert prod.exact_div(q) == oracle_div(prod, q) == p


def test_packed_division_skips_stale_heap_entries(monkeypatch):
    # a^6*b^2 cancels at the first step and comes back at the second, so it
    # is pushed again and one of its two heap entries is popped stale
    num = (a + b) ** 5 * (a - b) ** 3
    den = (a - b) ** 2 * (a + b) ** 3
    want = oracle_div(num, den)
    assert want == (a + b) ** 2 * (a - b)
    popped = []
    heappop = laurent_mod.heappop
    monkeypatch.setattr(laurent_mod, "heappop", lambda h: popped.append(heappop(h)) or popped[-1])
    assert num.exact_div(den) == want
    assert len(popped) > len(set(popped))
    for target in (num + a * b ** 7, num + 1):
        with pytest.raises(ExactDivisionError):
            oracle_div(target, den)
        with pytest.raises(ExactDivisionError):
            target.exact_div(den)


@pytest.mark.parametrize("num, den", [
    (-a ** 3 + 2 * a + b, a * b ** 2 + b ** 3),
    (a ** 2 * b ** 3 + a * b, a ** 3 - a ** 2 * b ** 2 + a ** 2),
])
def test_packed_division_refuses_inexact_quotients(num, den):
    # the remainder outgrows the exponent box before the division fails;
    # fields with no room beyond the box would carry and fake a quotient
    with pytest.raises(ExactDivisionError):
        oracle_div(num, den)
    with pytest.raises(ExactDivisionError):
        num.exact_div(den)


def test_power_short_circuits_and_matches_repeated_product():
    p = a + 2 * b + 1
    assert p ** 1 is p
    assert p ** 0 == 1
    assert p ** 4 == p * p * p * p


# ----------------------------------------------------------------------
# every packed route's result comes out canonical: products, quotients
# and the values of both word kernels


def _canonical(r: LaurentPoly) -> bool:
    rebuilt = LaurentPoly(r.variables, r.terms)
    return (r.variables, r.terms) == (rebuilt.variables, rebuilt.terms) and r == rebuilt


def multi_term(names):
    """A polynomial of two or more terms over names."""
    return st.dictionaries(st.tuples(*[st.integers(-2, 3)] * len(names)), small_ints.filter(bool),
                           min_size=2, max_size=4).map(lambda terms: LaurentPoly(names, terms))


content = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
    lambda e: LaurentPoly(("c", "u10"), {e: 1}))


def _product(p, q):
    return [(p * q, oracle_mul(p, q))]


def _quotient(num, den):
    return [(num.exact_div(den), oracle_div(num, den))]


def _kernel(names, letters, labels, spans):
    got = nested_word_values(names, letters.__getitem__, labels.__getitem__, spans)
    return [(value, word_value_vars([names[labels[i]] for i in range(f, l + 2)], letters[f:l + 1]))
            for (f, l), value in zip(spans, got)]


def _walk(names, letters, col_swap):
    return [(bordered_word_value(names, letters, col_swap),
             word_value_vars(["1" if v is None else v for v in names], letters, col_swap))]


# m times m^-1 cancels m's variables from the product unless n brings them back
products = st.builds(lambda p, q, m, n: (_product, p * m, q * m ** -1 * n),
                     multi_term(("a", "b")), multi_term(("b", "c")), content, content)
# content m on the numerator and n on the divisor; equal exponents cancel
quotients = st.builds(lambda p, q, m, n: (_quotient, p * q * m, q * n),
                      st.one_of(multi_term(("a", "c")), one_term(("a", "c"))),
                      multi_term(("b", "c")), content, content)


@st.composite
def kernel_spans(draw):
    # nested spans over random letters; each vertex carries one of four
    # names, so some names of the universe go unused
    n = draw(st.integers(2, 8))
    letters = draw(st.text("xy", min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1))
    f = draw(st.integers(0, n - 2))
    l = draw(st.integers(f + 1, n - 1))
    spans = [(f, l)]
    for _ in range(draw(st.integers(0, 3))):
        f, l = draw(st.integers(0, f)), draw(st.integers(l, n - 1))
        spans.append((f, l))
    return _kernel, ("u10", "u2", "u3", "u1"), letters, labels, spans


@st.composite
def single_words(draw, min_letters=2, max_letters=8):
    # one word whose vertices carry one of four names or the constant 1,
    # closed by either column
    n = draw(st.integers(min_letters, max_letters))
    letters = draw(st.text("xy", min_size=n, max_size=n))
    names = draw(st.lists(st.sampled_from((None, "u10", "u2", "u3", "u1")), min_size=n + 1,
                          max_size=n + 1))
    return _walk, names, letters, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.one_of(products, quotients, kernel_spans(), single_words()))
def test_packed_results_are_canonical_and_match_the_oracles(case):
    route, *args = case
    for got, want in route(*args):
        assert _canonical(got) and got == want


# the single-word walk against the LaurentPoly matrix oracle, on words long
# enough that names repeat, and against the nested kernel on one span


@settings(max_examples=100, deadline=None)
@given(single_words(2, 20))
def test_bordered_word_value_matches_word_value_vars(case):
    route, *args = case
    for got, want in route(*args):
        assert _canonical(got) and got == want and got.is_natural()


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 20).flatmap(lambda n: st.tuples(
    st.text("xy", min_size=n, max_size=n),
    st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1))))
def test_bordered_word_value_matches_nested_word_values_on_one_span(word):
    letters, labels = word
    names = ("u10", "u2", "u3", "u1")
    (nested,) = nested_word_values(names, letters.__getitem__, labels.__getitem__,
                                   [(0, len(letters) - 1)])
    assert bordered_word_value([names[j] for j in labels], letters) == nested


@st.composite
def reused_names(draw):
    # words over one names tuple, a permutation of it (None labels move) or
    # a copy with one more None: one layout, or layouts of one universe
    n = draw(st.integers(2, 10))
    names = draw(st.lists(st.sampled_from((None, "u10", "u2", "u3", "u1")), min_size=n + 1,
                          max_size=n + 1))
    words = []
    for _ in range(draw(st.integers(2, 5))):
        i = draw(st.integers(0, n))
        variant = draw(st.sampled_from((names, draw(st.permutations(names)),
                                        names[:i] + [None] + names[i + 1:])))
        words.append((tuple(variant), draw(st.text("xy", min_size=n, max_size=n)),
                      draw(st.booleans())))
    return words


@settings(max_examples=100, deadline=None)
@given(reused_names())
def test_bordered_word_value_takes_its_layout_from_the_names_tuple(words):
    laurent_mod._walk_layout.cache_clear()
    for names, letters, col_swap in words + words[::-1]:
        got = bordered_word_value(names, letters, col_swap)
        want = word_value_vars(["1" if v is None else v for v in names], letters, col_swap)
        assert _canonical(got) and got == want


def test_both_word_kernels_need_at_least_two_letters():
    with pytest.raises(ValueError, match="at least two letters"):
        bordered_word_value(["a", None], "x")
    with pytest.raises(ValueError, match="at least two letters"):
        nested_word_values(("a",), lambda i: "x", lambda i: 0, [(2, 2)])
    with pytest.raises(ValueError, match="one more name than letters"):
        bordered_word_value(["a", "b", "c"], "xyx")


# sums and one-term shifts come out canonical too; a sum can cancel whole
# variables, and a shift by an inverse monomial the variables it shifts

SUM_NAMES = ("a", "b", "u10", "c")


def _summed(*parts: dict) -> dict:
    out: dict = {}
    for part in parts:
        for e, c in part.items():
            out[e] = out.get(e, 0) + c
    return out


def oracle_add(p, q):
    return _from_oracle(TupleLaurent.of(p) + TupleLaurent.of(q))


def _sum(p, q):
    want = oracle_add(p, q)
    return [(p + q, want), (q + p, want)]


def _shift(p, m):
    want = oracle_mul(p, m)
    return [(p * m, want), (m * p, want)]


def _masked_terms(draw, mask):
    """Up to four terms over SUM_NAMES, 0 in every column mask leaves out."""
    keys = st.tuples(*[st.integers(-2, 3)] * len(SUM_NAMES)).map(
        lambda e: tuple(x if keep else 0 for x, keep in zip(e, mask)))
    return draw(st.dictionaries(keys, small_ints.filter(bool), max_size=4))


@st.composite
def cancelling_sums(draw):
    """p = x + y and q = z - x, y and z 0 outside a random set of columns,
    so p + q = y + z loses every variable of x that y and z do not use."""
    mask = draw(st.tuples(*[st.booleans()] * len(SUM_NAMES)))
    x = _masked_terms(draw, [True] * len(SUM_NAMES))
    y, z = _masked_terms(draw, mask), _masked_terms(draw, mask)
    neg_x = {e: -c for e, c in x.items()}
    return _sum, LaurentPoly(SUM_NAMES, _summed(x, y)), LaurentPoly(SUM_NAMES, _summed(neg_x, z))


@st.composite
def inverse_shifts(draw):
    """p = r times the monomial of exponents e, and m = c x^-e: p * m = c r
    loses every variable of e that r does not use."""
    r = _masked_terms(draw, draw(st.tuples(*[st.booleans()] * len(SUM_NAMES))))
    e = draw(st.tuples(*[st.integers(-2, 3)] * len(SUM_NAMES)))
    p = LaurentPoly(SUM_NAMES, {tuple(x + y for x, y in zip(k, e)): c for k, c in r.items()})
    m = LaurentPoly(SUM_NAMES, {tuple(-y for y in e): draw(st.sampled_from([1, -1, 2, -3]))})
    return _shift, p, m


@settings(max_examples=200, deadline=None)
@given(st.one_of(cancelling_sums(), inverse_shifts()))
def test_sums_and_shifts_are_canonical_and_match_the_oracles(case):
    route, *args = case
    for got, want in route(*args):
        assert _canonical(got) and got == want


# ----------------------------------------------------------------------
# numerator/denominator split and the int64 minor check, against the
# routes they replace


def _min_exponents(p: LaurentPoly) -> dict[str, int]:
    """Per-variable minimum exponent over all terms (the monomial content)."""
    return {v: min(e[i] for e in p.terms) for i, v in enumerate(p.variables)}


def _numerator_denominator_by_product(p):
    # multiply by the denominator monomial, as the split used to
    mins = _min_exponents(p)
    den_exps = {v: -m for v, m in mins.items() if m < 0}
    den = LaurentPoly.monomial(1, den_exps) if den_exps else LaurentPoly.nat(1)
    return p * den, den


def _str_by_product(p):
    num, den = _numerator_denominator_by_product(p)
    s = laurent_mod._poly_str(num)
    if den == LaurentPoly.nat(1):
        return s
    if len(num.terms) > 1:
        s = "(%s)" % s
    d = laurent_mod._poly_str(den)
    return "%s/%s" % (s, "(%s)" % d if "*" in d else d)


@given(laurent_polys(names=("a", "b", "u10")))
def test_numerator_denominator_matches_multiplying_by_the_denominator(p):
    num, den = p.numerator_denominator()
    want_num, want_den = _numerator_denominator_by_product(p)
    assert num == want_num and den == want_den
    assert num == p * den
    assert num.variables == want_num.variables
    assert all(x >= 0 for e in num.terms for x in e)
    assert str(p) == _str_by_product(p)


def test_numerator_drops_a_variable_common_to_every_term():
    p = (1 + a).monomial_div(b ** 2)
    num, den = p.numerator_denominator()
    assert num.variables == ("a",) and den == b ** 2
    assert str(p) == "(a + 1)/b^2"
    assert a.numerator_denominator() == (a, 1)


def _products_differ_by_one_by_dicts(p, q, r, s):
    # the dict convolution over packed keys that the int64 pass replaced
    p, q, r, s = (LaurentPoly.coerce(v) for v in (p, q, r, s))
    polys = (p, q, r, s)
    union = sorted({v for f in polys for v in f.variables}, key=laurent_mod._var_key)
    pos = {v: i for i, v in enumerate(union)}
    n = len(union)
    lo, hi = [0] * n, [0] * n
    for f in polys:
        for e in f.terms:
            for v, ex in zip(f.variables, e):
                lo[pos[v]] = min(lo[pos[v]], ex)
                hi[pos[v]] = max(hi[pos[v]], ex)
    shifts, shift = [], 0
    for j in range(n):
        shifts.append(shift)
        shift += (2 * (hi[j] - lo[j]) + 1).bit_length() + 1

    def pack(f):
        out = {}
        for e, c in f.terms.items():
            full = [0] * n
            for v, ex in zip(f.variables, e):
                full[pos[v]] = ex
            out[sum((full[j] - lo[j]) << shifts[j] for j in range(n))] = c
        return out

    acc = {}
    for left, right, sign in ((p, q, 1), (r, s, -1)):
        for k1, c1 in pack(left).items():
            for k2, c2 in pack(right).items():
                acc[k1 + k2] = acc.get(k1 + k2, 0) + sign * c1 * c2
    acc = {k: c for k, c in acc.items() if c}
    return acc == {sum(-2 * lo[j] << shifts[j] for j in range(n)): 1}


def _agrees(p, q, r, s):
    got = products_differ_by_one(p, q, r, s)
    assert type(got) is bool
    assert got == _products_differ_by_one_by_dicts(p, q, r, s) == (p * q - r * s == 1)
    return got


c = LaurentPoly.var("c")
NINE = tuple("u%d" % i for i in range(1, 10))
wide_coeffs = st.one_of(small_ints, st.integers(-(1 << 40), 1 << 40))
abc = ("a", "b", "c")


@given(laurent_polys(abc), laurent_polys(abc), laurent_polys(abc), laurent_polys(abc))
def test_products_differ_by_one_matches_the_dict_route(p, q, r, s):
    _agrees(p, q, r, s)


@given(wide_coeffs, wide_coeffs, wide_coeffs, wide_coeffs)
def test_products_differ_by_one_on_constants(p, q, r, s):
    _agrees(p, q, r, s)
    _agrees(p, q, p * q - 1, 1)


@st.composite
def unimodular(draw):
    """(p, q, r, s) with p*q - r*s = 1: a product of elementary matrices."""
    m = Mat2.identity()
    for i in range(draw(st.integers(0, 4))):
        t = draw(laurent_polys(abc))
        m = m * (Mat2(1, t, 0, 1) if i % 2 else Mat2(1, 0, t, 1))
    return m.a, m.d, m.b, m.c


@given(unimodular(), st.integers(0, 3), laurent_polys(abc))
def test_products_differ_by_one_on_true_and_perturbed_minors(minor, slot, delta):
    assert _agrees(*minor)
    perturbed = list(minor)
    perturbed[slot] = perturbed[slot] + delta
    _agrees(*perturbed)


@contextmanager
def dict_pairs(threshold):
    """Run products_differ_by_one with its size threshold set to threshold,
    and record the verdicts of its int64 pass (calls that did not return
    None), each as (route, verdict): "repack" where _repacked made the key
    parts, else "direct" (the keys less the bias)."""
    saved = laurent_mod._DICT_PAIRS, laurent_mod._differ_by_one_int64, laurent_mod._repacked
    verdicts, repacks = [], []

    def repacking(*args):
        repacks.append(args)
        return saved[2](*args)

    def counting(*args):
        repacks.clear()
        verdict = saved[1](*args)
        if verdict is not None:
            verdicts.append(("repack" if repacks else "direct", verdict))
        return verdict

    laurent_mod._DICT_PAIRS, laurent_mod._differ_by_one_int64 = threshold, counting
    laurent_mod._repacked = repacking
    try:
        yield verdicts
    finally:
        laurent_mod._DICT_PAIRS, laurent_mod._differ_by_one_int64, laurent_mod._repacked = saved


# cbits = (2 * cmax^2).bit_length(): 54 at cmax = 2^26, 55 from 94906266, the
# least cmax with cmax^2 >= 2^53
u8 = reduce(mul, map(LaurentPoly.var, NINE[:8]))
big = (1 << 26, 94906266)


@pytest.mark.parametrize("p, q, r, s, moved, route, want", [
    # one variable at width 8: nW + cbits = 8 + 54 = 62 is direct, 63 repacks
    (big[0] * a, a ** -1, big[0] - 1, 1, 2, "direct", True),
    (big[0] * a, a ** -1, big[0] - 2, 1, 2, "direct", False),
    (big[1] * a, a ** -1, big[1] - 1, 1, 2, "repack", True),
    (big[1] * a, a ** -1, big[1], 1, 2, "repack", False),
    # eight variables at width 8: nW = 64 repacks even at cmax = 1
    (u8 + 1, 1, u8, 1, 2, "repack", True),
    (u8 + 1, u8 ** -1, 1, u8 ** -1, 1, "repack", True),
    (u8 + 1, u8 ** -1, 1, u8 ** -1 + 1, 1, "repack", False),
    # all four in one layout of width 16, read in place
    (a ** 40 * b + 1, a ** -40 * b ** -1, a ** -80 * b, a ** 40 * b ** -2, 0, "direct", True),
    (a ** 40 * b + 1, a ** -40 * b ** -1, a ** -80 * b, a ** 40 * b ** -3, 0, "direct", False),
    # s alone has another layout, so only its keys move
    (a * b * c + c, (a * b * c) ** -1, a ** -1 * b ** -1 * c, c ** -1, 1, "direct", True),
    (a * b * c + c, (a * b * c) ** -1, a ** -1 * b ** -1 * c, 2 * c ** -1, 1, "direct", False),
])
def test_the_int64_pass_takes_the_direct_key_route_within_its_bound(p, q, r, s, moved, route,
                                                                    want):
    p, q, r, s = (LaurentPoly.coerce(v) for v in (p, q, r, s))
    _, moves, _, _ = laurent_mod._minor_operands(p, q, r, s)
    assert sum(m is not None for m in moves) == moved
    with dict_pairs(0) as verdicts:
        got = products_differ_by_one(p, q, r, s)
    assert verdicts == [(route, want)]
    assert got == want == _products_differ_by_one_by_dicts(p, q, r, s) == (p * q - r * s == 1)


# one variable up to |exponent| 3 (w = 4, kbits = 4) and coefficients up to
# 2^28 (cbits = 58): 7 x 7 pairs, plus 14 or 15 for r*s
seven = LaurentPoly(("a",), {(i,): 1 for i in range(-3, 4)})


@pytest.mark.parametrize("p, q, r, s, falls_back", [
    # coefficients past 2^30: cbits passes 62
    (LaurentPoly.nat(1 << 31) + a, 1 - a, (1 << 31) - 1, LaurentPoly.nat(1) + a, True),
    (LaurentPoly.nat(1 << 31), 1, (1 << 31) - 1, 1, True),
    ((1 << 40) * a, a ** -1, (1 << 40) - 1, 1, True),
    (LaurentPoly.nat(1 << 30), 1, (1 << 30) - 1, 1, False),  # kbits + cbits = 0 + 62
    # exponents past 62 packed bits: one wide field, or several
    (a ** (1 << 61), a ** -(1 << 61), 0, 0, True),
    (a ** (1 << 60) + 1, 1, a ** (1 << 60), 1, True),  # kbits 63
    (a ** (1 << 31) + 1, a ** -(1 << 31), a ** -(1 << 31), 1, False),
    ((a * b * c) ** (1 << 20) + 1, 1, (a * b * c) ** (1 << 20), 1, True),
    (a ** 1000 * b ** 1000 * c ** 1000 + 1, 1, a ** 1000 * b ** 1000 * c ** 1000, 1, False),
    ((a * b * c) ** (1 << 10) + 1, 1, (a * b * c) ** (1 << 10), 1, False),
    ((a * b * c) ** (1 << 10) + 1, 1, (a * b * c) ** (1 << 10), 2, False),
    (LaurentPoly.monomial(1, {"u%d" % i: 1 << 6 for i in range(9)}), 1, 0, 0, True),
    # kbits + cbits at 62 (4 + 58), and one past it (5 + 58)
    ((1 << 28) * a ** 2, a ** -2, (1 << 28) - 1, 1, False),
    ((1 << 28) * a ** 4, a ** -4, (1 << 28) - 1, 1, True),
    # cmax^2 * pairs one step below 2^62 (63 pairs), and at it (64 pairs):
    # kbits + cbits <= 62 alone bounds the sums of a run of equal keys
    ((1 << 28) * seven, seven, 1 + a, seven, False),
    ((1 << 28) * seven, seven, a ** -1 + 1 + a, a ** -2 + a ** -1 + 1 + a + a ** 2, False),
    # -2^63 fits int64 but is its own negation there: the bounds read 2^63
    (LaurentPoly.nat(-(1 << 63)), 1, 0, 0, True),
    (LaurentPoly.nat(-(1 << 63)), -1, (1 << 62) - 1, 2, True),
    (a ** -(1 << 63) + 1, 1, a ** -(1 << 63), 1, True),
    # 2^63 and past: the values do not fit int64
    (LaurentPoly.nat(1 << 63), 1, (1 << 63) - 1, 1, True),
    (LaurentPoly.nat(1 << 63) + a, 1 + a, 1 << 63, 1, True),
    (a ** (1 << 63) + 1, 1, a ** (1 << 63), 1, True),
    (a ** (1 << 64) * b, a ** -(1 << 64), b - 1, 1, True),
    # no terms at all, or none on one side
    (0, 0, 0, 0, False),
    (0, a, 1, -1, False),
    (LaurentPoly.nat(1), 1, 0, b, False),
])
def test_products_differ_by_one_falls_back_outside_the_int64_bounds(p, q, r, s, falls_back):
    p, q, r, s = (LaurentPoly.coerce(v) for v in (p, q, r, s))
    with dict_pairs(0) as verdicts:
        got = products_differ_by_one(p, q, r, s)
    assert (not verdicts) == falls_back
    assert got == _products_differ_by_one_by_dicts(p, q, r, s) == (p * q - r * s == 1)


near_2_31 = st.builds(lambda sign, x: sign * x, st.sampled_from([1, -1]),
                      st.integers((1 << 31) - 2, (1 << 31) + 2))
near_2_28 = st.builds(lambda sign, x: sign * x, st.sampled_from([1, -1]),
                      st.integers((1 << 28) - 2, (1 << 28) + 2))
pass_coeffs = st.one_of(small_ints.filter(bool), near_2_28, near_2_31)


@st.composite
def pass_polys(draw, names=abc, exps=st.integers(-3, 3), max_terms=6, coeffs=pass_coeffs):
    terms = draw(st.dictionaries(st.tuples(*[exps] * len(names)), coeffs, max_size=max_terms))
    return LaurentPoly(names, terms)


@st.composite
def cancelling_quads(draw):
    # q is p with some terms negated: the pairs (i, j) and (j, i) of p*q share
    # a key and cancel whenever exactly one of the two terms was negated
    p = draw(pass_polys())
    flips = draw(st.lists(st.booleans(), min_size=len(p.terms), max_size=len(p.terms)))
    q = LaurentPoly(p.variables, {e: -x if f else x for (e, x), f in zip(p.terms.items(), flips)})
    return p, q, draw(pass_polys()), draw(pass_polys())


@st.composite
def carry_quads(draw):
    # p*q - r*s = 1 + c*(x^(a1+a2) - x^y), where y is a1+a2 less 2^t in one
    # variable and plus 1 in the next (one carry between fields of width t),
    # or y = a1+a2 when t = 0; r and s split y in halves, so that their
    # exponents, and the field width, stay small
    vec = st.tuples(*[st.integers(-3, 3)] * 3)
    a1, a2 = draw(vec), draw(vec)
    t, i = draw(st.integers(0, 5)), draw(st.integers(0, 1))
    y = [u + v for u, v in zip(a1, a2)]
    if t:
        y[i] -= 1 << t
        y[i + 1] += 1
    b1 = tuple(x // 2 for x in y)
    b2 = tuple(x - h for x, h in zip(y, b1))
    coeff = draw(pass_coeffs)
    p = LaurentPoly(abc, {a1: coeff}) + LaurentPoly(abc, {tuple(-x for x in a2): 1})
    return p, LaurentPoly(abc, {a2: 1}), LaurentPoly(abc, {b1: coeff}), LaurentPoly(abc, {b2: 1})


disjoint_quads = st.tuples(pass_polys(("a", "b")), pass_polys(("a", "b")),
                           pass_polys(("c", "u10")), pass_polys(("c", "u10")))
# up to eight names at width 8, so that n * W passes 62 from eight names on,
# and n * W + cbits from two (cmax 2^20, cbits 42) or five (cmax 2^12, cbits
# 26) on; in one layout, or each operand in its own
key_coeffs = st.one_of(small_ints.filter(bool), st.sampled_from([1 << 12, -(1 << 20)]))
wide_polys = st.integers(1, 8).flatmap(lambda k: pass_polys(NINE[:k], coeffs=key_coeffs))
wide_quads = st.one_of(st.integers(1, 8).flatmap(
    lambda k: st.tuples(*[pass_polys(NINE[:k], coeffs=key_coeffs)] * 4)), st.tuples(*[wide_polys] * 4))
constant_quads = st.tuples(*[pass_coeffs] * 4)


def _passes_agree(p, q, r, s):
    p, q, r, s = (LaurentPoly.coerce(v) for v in (p, q, r, s))
    got = []
    for threshold in (0, laurent_mod._MAX_PAIRS + 1):
        with dict_pairs(threshold):
            got.append(products_differ_by_one(p, q, r, s))
    assert got[0] == got[1] == _products_differ_by_one_by_dicts(p, q, r, s) == (p * q - r * s == 1)
    return got[0]


@settings(max_examples=300)
@given(st.one_of(st.tuples(*[pass_polys()] * 4), disjoint_quads, cancelling_quads(),
                 constant_quads, unimodular(), wide_quads))
def test_the_dict_and_int64_passes_agree(quad):
    _passes_agree(*quad)


@settings(max_examples=200)
@given(carry_quads())
def test_the_passes_agree_on_pair_sums_one_carry_apart(quad):
    _passes_agree(*quad)


@given(st.lists(st.tuples(st.integers(-(1 << 33), 1 << 33), st.integers(-3, 3)),
                min_size=1, max_size=3), wide_coeffs)
def test_products_differ_by_one_with_wide_exponents(exps, c):
    p = LaurentPoly(("a", "b"), {e: 1 for e in exps})
    q = LaurentPoly(("a", "b"), {tuple(-x for x in exps[0]): 1})
    _agrees(p, q, p * q - 1, 1)
    _agrees(p, q, p * q - c, 1)


@pytest.mark.parametrize("p, q, r, s, want", [
    (a, 1, 0, 0, False),  # one term, coefficient 1, but not at exponent 0
    (a ** -1, b, 0, 0, False),
    (a, a, b - 1, 1, False),  # a^2 - b + 1: a field too narrow for a^2 would carry into b
    (a ** 3, a, b ** 2 * c - 1, c ** -1, False),
    (a ** 3, a ** -3, 0, 0, True),
    (a * b, a ** -1 * b ** -1, 0, 0, True),
    (a ** -2, a, a ** -1 - 1, 1, True),
    (a ** 2 + 1, 1, a, a, True),
    (a ** 2 + 2, 1, a, a, False),
    (-a, -(a ** -1), 0, 0, True),
    (0, 0, -1, 1, True),
])
def test_products_differ_by_one_near_misses(p, q, r, s, want):
    p, q, r, s = (LaurentPoly.coerce(v) for v in (p, q, r, s))
    assert _agrees(p, q, r, s) == want


@given(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
       st.sampled_from([1, -1, 2]))
def test_products_differ_by_one_on_lone_monomials(exps, coeff):
    m = LaurentPoly(abc, {exps: coeff})
    assert _agrees(m, 1, 0, 0) == (m == 1)
    assert _agrees(m, LaurentPoly(abc, {tuple(-x for x in exps): 1}), 0, 0) == (coeff == 1)


def _plus_by_key_sets(a, b):
    # the entry addition the accumulation loop replaced: shift the smaller
    # dict's keys, then add the common keys found by a set intersection
    if len(a[1]) < len(b[1]):
        a, b = b, a
    (off, big), (delta, small) = a, b
    delta -= off
    if delta:
        small = {key + delta: c for key, c in small.items()}
    out = dict(big)
    out.update(small)
    for key in big.keys() & small.keys():
        out[key] = big[key] + small[key]
    return off, out


kernel_terms = st.dictionaries(st.integers(-12, 12), st.integers(1, 1 << 70), max_size=10)


@given(st.integers(-16, 16), kernel_terms, st.integers(-16, 16), kernel_terms, st.booleans())
def test_kernel_plus_matches_the_key_set_route(off_a, terms_a, off_b, terms_b, shared):
    # kernel entries are (offset, terms) with natural coefficients, and
    # _shifted lets two entries share one terms dict
    if shared:
        terms_b = terms_a
    a, b = (off_a, terms_a), (off_b, terms_b)
    before = (dict(terms_a), dict(terms_b))
    got = laurent_mod._plus(a, b)
    assert got == _plus_by_key_sets(a, b)
    assert all(c > 0 for c in got[1].values())
    assert (terms_a, terms_b) == before


# the nested kernel's two entry forms: dicts throughout, or int64 arrays
# from the switch on while the int64 bounds hold


@contextmanager
def array_terms(threshold):
    """Run nested_word_values with its switch set to threshold, and count
    the conversions of its entries to the int64 form."""
    saved = laurent_mod._ARRAY_TERMS, laurent_mod._as_arrays
    calls = []

    def counting(entries):
        calls.append(1)
        return saved[1](entries)

    laurent_mod._ARRAY_TERMS, laurent_mod._as_arrays = threshold, counting
    try:
        yield calls
    finally:
        laurent_mod._ARRAY_TERMS, laurent_mod._as_arrays = saved


def _both_forms(names, letter, label, spans):
    """The kernel's values with the switch at 0 and out of reach, checked
    equal; the int64 form's values keep their terms in lexicographic order.
    Returns the values and whether the int64 form ran."""
    with array_terms(0) as calls:
        arrays = nested_word_values(names, letter, label, spans)
    with array_terms(1 << 62) as never:
        dicts = nested_word_values(names, letter, label, spans)
    assert not never and arrays == dicts
    assert all(_canonical(v) and v.is_natural() for v in arrays)
    if calls:
        assert all(list(v.terms) == sorted(v.terms) for v in arrays)
    return arrays, bool(calls)


@settings(max_examples=40, deadline=None)
@given(st.text("xy", min_size=3, max_size=6).filter(lambda w: "x" in w and "y" in w),
       st.integers(1, 12), st.integers(0, 5), st.data())
def test_nested_word_values_agree_in_both_entry_forms_on_cycle_rays(w, steps, start, data):
    # the frise ray of ^inf(w)(w)^inf from one vertex, as frises reads it
    d = len(w)
    names = tuple("u%d" % (j + 1) for j in range(d))
    e = Embedding(Frontier(w, "", w))
    u0, v0 = e.vertex(start % d)
    spans = [word_span(e, (u0 + n, v0 - n)) for n in range(1, steps + 1)]
    values, arrays = _both_forms(names, e.frontier.letter, lambda i: i % d, spans)
    assert arrays
    k = data.draw(st.integers(0, min(steps, 6) - 1))
    (f, l), value = spans[k], values[k]
    assert value == word_value_vars([names[i % d] for i in range(f, l + 2)],
                                    e.frontier.factor(f, l + 1))


def _interior_at_ones(total):
    """Interior letters of a short word whose value at all ones is total.

    The walk from (1, 1) maps (x, y) to (x, x + y) on an x letter and to
    (x + y, y) on a y letter, and the value is x + y at its end; so it is
    read backwards by subtraction from a coprime pair (total - y, y), with
    y near total / phi, where the words are shortest.
    """
    best = None
    middle = int(total / 1.618033988749895)
    for y in range(middle - 64, middle + 64):
        x, out = total - y, []
        while (x, y) != (1, 1) and min(x, y) > 0 and len(out) < 200:
            x, y, letter = (x - y, y, "y") if x > y else (x, y - x, "x")
            out.append(letter)
        if (x, y) == (1, 1) and (best is None or len(out) < len(best)):
            best = out
    return "".join(reversed(best))


def _names(k):
    return tuple("u%d" % j for j in range(1, k + 1))


@pytest.mark.parametrize("names, letters, total, arrays", [
    # key bits: the last word's n + 1 vertices carry the names in turn. 7
    # names in fields of 8 bits is 56; 3 names in fields of 16 bits (one
    # name on 32 vertices) is 48, and 4 names on 31 vertices each take
    # fields of 8 bits again. Past 62 bits the walk narrows its fields to
    # the vertex count's bit_length + 3: 8 and 15 names on one vertex each
    # to 4 bits (32 and 60 key bits), 4 names on 32 vertices each to 9 bits
    # (36); 16 names on one vertex each need 64 even so, and 7 names on 32
    # vertices each 63. An x letter then a y letter take their shared
    # vertex's name twice in an entry: alternating words on 2 names of 31
    # vertices each (8 bits) and on 8 names of 3 vertices each (narrow, 5
    # bits) take entry exponents of 60 and 6, about twice the vertex count
    (_names(7), "xyxyxy", None, True),
    (_names(3), "x" * 94, None, True),
    (_names(4), "x" * 123, None, True),
    (_names(8), "xyxyxyx", None, True),
    (_names(15), "xy" * 7, None, True),
    (_names(4), "x" * 127, None, True),
    (_names(16), "xy" * 7 + "x", None, False),
    (_names(7), "x" * 223, None, False),
    (_names(2), "xy" * 30 + "x", None, True),
    (_names(8), "xy" * 11 + "x", None, True),
    # the value at all ones one below 2^62, at it and one past it, with every
    # vertex on one name so that the coefficients are large
    (("u1",), "x%sx" % _interior_at_ones((1 << 62) - 1), (1 << 62) - 1, True),
    (("u1",), "x%sx" % _interior_at_ones(1 << 62), 1 << 62, False),
    (("u1",), "x%sx" % _interior_at_ones((1 << 62) + 1), (1 << 62) + 1, False),
], ids=["56 key bits", "48 key bits", "32 key bits", "narrow 32 key bits",
        "narrow 60 key bits", "narrow 36 key bits", "narrow 64 key bits", "narrow 63 key bits",
        "alternating 16 key bits", "alternating narrow 40 key bits", "at ones 2^62-1",
        "at ones 2^62", "at ones 2^62+1"])
def test_nested_word_values_fall_back_to_dicts_outside_the_int64_bounds(names, letters, total,
                                                                        arrays):
    n = len(letters)
    spans = [(1, n - 2), (0, n - 1)] if n > 3 else [(0, n - 1)]
    label = lambda i: i % len(names)
    values, took_arrays = _both_forms(names, letters.__getitem__, label, spans)
    assert took_arrays == arrays
    for (f, l), value in zip(spans, values):
        assert value == word_value_vars([names[label(i)] for i in range(f, l + 2)],
                                        letters[f:l + 1])
    if total is not None:
        assert sum(values[-1].terms.values()) == total


@st.composite
def packed_values(draw):
    """A value as _over_monomial reads it: the layout of _layout for 1-7
    names on 1-31 vertices each (fields of 8 bits), or for 1-3 names, one
    on 32-40 vertices (fields of 16 bits); distinct rows of unbiased
    fields, each at most its name's vertex count, with natural int64
    coefficients, one field constant in every row, at the denominator's
    value (so dropped) or not, and an offset below every key, positive
    unless a key is 0. Returns the layout, the rows, the dict entry, the
    denominator's fields and the constant field's position and whether it
    is dropped."""
    wide = draw(st.booleans())
    n = draw(st.integers(1, 3 if wide else 7))
    counts = [draw(st.integers(1, 31)) for _ in range(n)]
    if wide:
        counts[draw(st.integers(0, n - 1))] = draw(st.integers(32, 40))
    names = ["u%d" % (j + 1) for j in range(n)]
    universe, width, unit = laurent_mod._layout(v for v, c in zip(names, counts) for _ in range(c))
    assert universe == tuple(names) and width == (16 if wide else 8)
    fields = [st.integers(0, c) for c in counts]
    const, dropped = draw(st.integers(0, n - 1)), draw(st.booleans())
    at = draw(fields[const])
    rows = list(dict.fromkeys(row[:const] + (at,) + row[const + 1:] for row in
                              draw(st.lists(st.tuples(*fields), min_size=1, max_size=40))))
    den = [draw(f) for f in fields]
    den[const] = at if dropped else draw(fields[const].filter(lambda x: x != at))
    keys = [sum(x * unit[v] for x, v in zip(row, names)) for row in rows]
    off = draw(st.integers(min(1, min(keys)), min(keys)))
    coeffs = draw(st.lists(st.integers(1, (1 << 63) - 1), min_size=len(keys), max_size=len(keys)))
    terms = {k - off: c for k, c in zip(keys, coeffs)}
    den_key = sum(x * unit[v] for x, v in zip(den, names))
    return (universe, width), rows, (off, terms), den, den_key, const, dropped


@settings(max_examples=200, deadline=None)
@given(packed_values())
def test_over_monomial_reads_int64_keys_as_the_dict_branch_does(case):
    import numpy as np

    (universe, width), rows, (off, terms), den, den_key, const, dropped = case
    keys = sorted(terms)
    arrays = (off, (np.array(keys, dtype=np.int64),
                    np.array([terms[k] for k in keys], dtype=np.int64)))
    got = laurent_mod._over_monomial(universe, width, arrays, den_key)
    want = laurent_mod._over_monomial(universe, width, (off, terms), den_key)
    assert got == want and _canonical(got)
    assert got == LaurentPoly(universe, {tuple(x - d for x, d in zip(row, den)): c
                                         for row, c in zip(rows, terms.values())})
    assert list(got.terms) == sorted(got.terms)  # lexicographic, as the keys were sorted
    assert (universe[const] in got.variables) != dropped


# ----------------------------------------------------------------------
# the ring against the tuple-dict oracle, on operands over other variables,
# with negative and wide exponents (fields of up to 41 bits in the packed
# product and division), constants and zero

DIFF_NAMES = [(), ("a",), ("b",), ("a", "b"), ("b", "u10"), ("a", "b", "u10")]


@st.composite
def ring_polys(draw, exps=st.one_of(st.integers(-3, 3), st.integers(-(1 << 40), 1 << 40)),
               names=st.sampled_from(DIFF_NAMES)):
    names = draw(names)
    terms = draw(st.dictionaries(st.tuples(*[exps] * len(names)), st.integers(-4, 4),
                                 max_size=4))
    return LaurentPoly(names, terms)


def _outcome(fn, *args):
    """The result of fn as a TupleLaurent, or the class of what it raised."""
    try:
        got = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return got if isinstance(got, TupleLaurent) else TupleLaurent.of(got)


def _matches(got: LaurentPoly, want: TupleLaurent) -> None:
    assert TupleLaurent.of(got) == want
    assert got == _from_oracle(want) and hash(got) == hash(_from_oracle(want))
    assert str(got) == str(want)


@settings(max_examples=300, deadline=None)
@given(ring_polys(), ring_polys(), st.integers(0, 3))
def test_ring_operations_match_the_tuple_dict_oracle(p, q, n):
    tp, tq = TupleLaurent.of(p), TupleLaurent.of(q)
    _matches(p, tp)
    _matches(p + q, tp + tq)
    _matches(p - q, tp - tq)
    _matches(p * q, tp * tq)
    _matches(p ** n, tp ** n)
    num, den = p.numerator_denominator()
    want_num, want_den = tp.numerator_denominator()
    _matches(num, want_num)
    _matches(den, want_den)
    assert (p == q) == (tp == tq)
    assert _outcome(p.monomial_div, q) == _outcome(tp.monomial_div, tq)
    assert _outcome(p.__pow__, -1) == _outcome(tp.__pow__, -1)
    if not q.is_zero():
        prod = p * q
        assert _outcome(prod.exact_div, q) == _outcome(TupleLaurent.of(prod).exact_div, tq) == tp


@settings(max_examples=200, deadline=None)
@given(ring_polys(exps=st.integers(-2, 3)), ring_polys(exps=st.integers(-2, 3)))
def test_inexact_division_raises_as_the_oracle_does(p, q):
    if q.is_zero():
        return
    target = p * q + LaurentPoly.var("a")
    assert (_outcome(target.exact_div, q)
            == _outcome(TupleLaurent.of(target).exact_div, TupleLaurent.of(q)))


@settings(max_examples=200, deadline=None)
@given(ring_polys(), ring_polys())
@example(LaurentPoly.nat(0), a - a)
def test_at_ones_sums_the_decoded_coefficients(p, q):
    for value in (p, q, p * q):
        assert value.at_ones() == sum(value.terms.values())
    assert (a - a).at_ones() == 0 and ((1 + a + b) ** 5).monomial_div(a ** 3).at_ones() == 243


def test_a_constant_hashes_as_its_integer():
    for n in (0, 1, 5, -7, 1 << 70):
        assert LaurentPoly.nat(n) == n and hash(LaurentPoly.nat(n)) == hash(n)
    assert len({5, LaurentPoly.nat(5)}) == 1
    assert len({0, LaurentPoly.nat(0), a - a}) == 1


@settings(max_examples=100, deadline=None)
@given(single_words(2, 12))
def test_one_value_built_three_ways_is_one_object(case):
    # by a kernel, by ring products, and by the constructor from its terms
    _, names, letters, col_swap = case
    by_kernel = bordered_word_value(names, letters, col_swap)
    by_products = word_value_vars(["1" if v is None else v for v in names], letters, col_swap)
    by_constructor = LaurentPoly(tuple(reversed(by_kernel.variables)),
                                 {tuple(reversed(e)): c for e, c in by_kernel.terms.items()})
    assert by_kernel == by_products == by_constructor
    assert hash(by_kernel) == hash(by_products) == hash(by_constructor)


def test_only_laurent_reads_the_term_layout():
    private = {"_vars", "_width", "_terms", "_trusted"}
    src = Path(laurent_mod.__file__).parent
    readers = {}
    for path in sorted(src.glob("*.py")):
        if path.name == "laurent.py":
            continue
        names = {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr in private}
        if names:
            readers[path.name] = sorted(names)
    assert readers == {}


# ----------------------------------------------------------------------
# the packed form at the boundary of its 8-bit fields: exponents from -32
# to 31 fit 8 bits, and -33 or 32 take 16


boundary_exps = st.one_of(st.integers(-3, 3), st.sampled_from([-33, -32, -31, 31, 32, 33]))


def _canonical_width(p: LaurentPoly) -> int:
    exps = [x for e in p.terms for x in e]
    return 8 if -32 <= min(exps, default=0) and max(exps, default=0) <= 31 else 16


@settings(max_examples=300, deadline=None)
@given(ring_polys(exps=boundary_exps), ring_polys(exps=boundary_exps), st.integers(0, 2))
def test_the_packed_form_matches_the_tuple_oracle_across_the_width_boundary(p, q, n):
    tp, tq = TupleLaurent.of(p), TupleLaurent.of(q)
    # a product can widen its fields, a quotient narrow them, and a sum or
    # difference drop a variable whose exponent cancels to 0 in every term
    cases = [(p, tp), (p + q, tp + tq), (p - q, tp - tq), (p * q, tp * tq), (p ** n, tp ** n),
             (p + q - q, tp), (-p - q + p, -tq)]
    if not q.is_zero():
        cases.append(((p * q).exact_div(q), tp))
    num, den = p.numerator_denominator()
    want_num, want_den = tp.numerator_denominator()
    cases += [(num, want_num), (den, want_den)]
    for got, want in cases:
        _matches(got, want)
        assert got._width == _canonical_width(got)
        assert got == LaurentPoly(got.variables, got.terms)
        if not got.variables:  # a constant equals and hashes as its integer
            assert got == got.as_int() and hash(got) == hash(got.as_int())
    assert (p == q) == (tp == tq)
    if p == q:
        assert hash(p) == hash(q)
    assert [TupleLaurent.of(v) for v in sorted_distinct([q, p, q])] == sorted(
        {tp, tq}, key=TupleLaurent.sort_key)


@st.composite
def repeated_polys(draw):
    """A shuffled list of values over one to three variables, some drawn
    twice or more, with exponents on both sides of the 8/16-bit boundary."""
    vs = draw(st.lists(ring_polys(exps=boundary_exps, names=st.sampled_from(DIFF_NAMES[1:])),
                       min_size=1, max_size=10))
    return draw(st.permutations(vs + draw(st.lists(st.sampled_from(vs), max_size=6))))


@settings(max_examples=200, deadline=None)
@given(repeated_polys())
@example([a ** 32 + a, a ** 31, b, a ** 32 + a, a ** -32 + a * a, a ** -33, a])
def test_sorted_distinct_matches_the_decoded_order(vs):
    want = sorted(set(vs), key=lambda v: (v.variables, tuple(sorted(v.terms.items()))))
    assert sorted_distinct(vs) == want


@st.composite
def mixed_minors(draw):
    """(p, q, r, s) with p*q - r*s = 1 from elementary matrices whose
    entries have different variable sets, some in fields of 16 bits and
    some over five or nine variables (keys past 64 bits, in fields of 16 or
    8 bits), and a slot whose partner (q for p, p for q, s for r, r for s)
    is nonzero, with a term of its operand to perturb."""
    m = Mat2.identity()
    names = st.sampled_from(DIFF_NAMES + [NINE[:5], NINE])
    for i in range(draw(st.integers(1, 3))):
        t = draw(ring_polys(exps=boundary_exps, names=names))
        m = m * (Mat2(1, t, 0, 1) if i % 2 else Mat2(1, 0, t, 1))
    minor = [m.a, m.d, m.b, m.c]
    slots = [i for i in range(4) if not minor[i].is_zero() and not minor[i ^ 1].is_zero()]
    return minor, draw(st.sampled_from(slots)) if slots else None, draw(st.integers(0, 1 << 10))


@settings(max_examples=200, deadline=None)
@given(mixed_minors(), st.sampled_from([1, -1, 2, -7]))
def test_minors_of_mixed_layouts_hold_and_one_perturbed_coefficient_breaks_them(case, delta):
    minor, slot, pick = case
    assert _passes_agree(*minor)
    if slot is None:
        return
    operand = minor[slot]
    terms = operand.terms
    e = sorted(terms)[pick % len(terms)]
    terms[e] += delta
    # p*q - r*s moves by delta x^e times the partner, which is not 0
    perturbed = list(minor)
    perturbed[slot] = LaurentPoly(operand.variables, terms)
    assert not _passes_agree(*perturbed)

