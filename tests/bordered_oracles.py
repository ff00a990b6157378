"""Bordered products over LaurentPoly entries, kept as test oracles.

The library computes every bordered product (1, a0) M ... M (1, a_last)^T
with one of two packed kernels: `laurent.bordered_word_value` walks a
single word as a row vector (the tiles and cross-construction cells of
`cluster`), and `laurent.nested_word_values` extends one 2x2 product over
nested words (the frise rays of `frises`). This module keeps the plain
route they replaced: 2x2 matrices whose entries are LaurentPoly values,
multiplied step by step, with the monomial denominator divided out exactly
at the end. It also keeps the determinant identities that make the word
formula SL2, checked on random draws.
"""

from __future__ import annotations

import random
from typing import Iterable

from artifact.laurent import LaurentPoly, Scalar


class Mat2:
    """2x2 matrix with Laurent (or integer) entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Scalar, b: Scalar, c: Scalar, d: Scalar):
        self.a = LaurentPoly.coerce(a)
        self.b = LaurentPoly.coerce(b)
        self.c = LaurentPoly.coerce(c)
        self.d = LaurentPoly.coerce(d)

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> LaurentPoly:
        return self.a * self.d - self.b * self.c

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __repr__(self) -> str:
        return "Mat2[[%s, %s], [%s, %s]]" % (self.a, self.b, self.c, self.d)


def step_matrix(a: Scalar, letter: str, b: Scalar) -> Mat2:
    """M(a,x,b) = [[a,1],[0,b]]; M(a,y,b) = [[b,0],[1,a]].

    Setting a = b = 1 recovers the integer step matrices
    M(x) = [[1,1],[0,1]] and M(y) = [[1,0],[1,1]].
    """
    if letter == "x":
        return Mat2(a, 1, 0, b)
    if letter == "y":
        return Mat2(b, 0, 1, a)
    raise ValueError("letter must be 'x' or 'y', got %r" % (letter,))


def row_times_mat(row: tuple[Scalar, Scalar], m: Mat2) -> tuple[LaurentPoly, LaurentPoly]:
    r0, r1 = LaurentPoly.coerce(row[0]), LaurentPoly.coerce(row[1])
    return (r0 * m.a + r1 * m.c, r0 * m.b + r1 * m.d)


def vec_dot(row: tuple[LaurentPoly, LaurentPoly], col: tuple[Scalar, Scalar]) -> LaurentPoly:
    return row[0] * LaurentPoly.coerce(col[0]) + row[1] * LaurentPoly.coerce(col[1])


def _scalar(name: str) -> LaurentPoly:
    return LaurentPoly.nat(1) if name == "1" else LaurentPoly.var(name)


def word_value_vars(variables: list, letters: str, col_swap: bool = False) -> LaurentPoly:
    """Value of the word variables[0] letters[0] variables[1] ... variables[-1].

    A name "1" is the constant 1. Border rows (1, a0) and (1, a_last) close
    a product of step matrices over the interior letters; the first and
    last letters only delimit the word and never enter the product.
    ``col_swap`` closes with the column (a_last, 1) instead, as the
    north-east region of the cross needs.
    """
    if len(variables) < 3 or len(letters) != len(variables) - 1:
        raise ValueError("need a0 .. a_{n+1} with n >= 1 and one letter per gap")
    vs = [_scalar(v) for v in variables]
    one = LaurentPoly.nat(1)
    acc = (one, vs[0])
    for i in range(1, len(vs) - 2):
        acc = row_times_mat(acc, step_matrix(vs[i], letters[i], vs[i + 1]))
    col = (vs[-1], one) if col_swap else (one, vs[-1])
    value = vec_dot(acc, col)
    denom = one
    for v in vs[1:-1]:
        denom = denom * v
    return value.exact_div(denom)


# ----------------------------------------------------------------------
# bordered-product determinant identities

def _det_rows(top: tuple[Scalar, Scalar], bottom: tuple[Scalar, Scalar]) -> LaurentPoly:
    t0, t1 = (LaurentPoly.coerce(v) for v in top)
    b0, b1 = (LaurentPoly.coerce(v) for v in bottom)
    return t0 * b1 - t1 * b0


def _chain(row: tuple[Scalar, Scalar], mats: Iterable[Mat2]) -> tuple[LaurentPoly, LaurentPoly]:
    acc = (LaurentPoly.coerce(row[0]), LaurentPoly.coerce(row[1]))
    for m in mats:
        acc = row_times_mat(acc, m)
    return acc


def _run(labels: list, letter: str) -> list[Mat2]:
    return [step_matrix(labels[i], letter, labels[i + 1]) for i in range(len(labels) - 1)]


def verify_det_identities(instances: int = 100, rng_seed: int = 17,
                          max_param: int = 5, max_chain: int = 3) -> dict:
    """Random exact checks of the bordered-product determinant identities.

    Three identities over a commutative ring, each checked on ``instances``
    random draws of naturals and small monomials:

    * factorization: with p = l.A.g, q = l.A.g', r = l'.A.g, s = l'.A.g',
      det [[p,q],[r,s]] = det(A) * det(rows l, l') * det(cols g, g');
    * bordered rows: for l' = (1,a).M(b1,x,b2)...M(b_{k-1},x,b_k).M(b_k,y,b)
      and l = (1,b_k), det with l' on top is b1...b_k*b (the opposite row
      order flips the sign; the positive orientation here was fixed by a
      direct k=1 computation);
    * crossing: the four products p = (1,b_k).A.(1,c1)^T, ...,
      s = (1,a).[x-run].M(b_k,y,b).A.M(c,x,c1).[y-run].(1,d)^T satisfy
      det [[p,q],[r,s]] = b1...b_k * b * c * c1...c_l * det(A).

    Failures are counted, not raised; callers treat any failure as fatal.
    """
    rng = random.Random(rng_seed)

    def scalar() -> LaurentPoly:
        if rng.random() < 0.5:
            return LaurentPoly.nat(rng.randint(1, max_param))
        name = rng.choice("efgh")
        return LaurentPoly.monomial(rng.randint(1, 3), {name: rng.choice((-1, 1))})

    def vec2() -> tuple[LaurentPoly, LaurentPoly]:
        return (scalar(), scalar())

    def mat() -> Mat2:
        return Mat2(scalar(), scalar(), scalar(), scalar())

    report = {"instances": instances, "factorization_failures": 0,
              "bordered_rows_failures": 0, "crossing_failures": 0}
    for _ in range(instances):
        # factorization
        A, lam, lamp, gam, gamp = mat(), vec2(), vec2(), vec2(), vec2()
        pp = vec_dot(row_times_mat(lam, A), gam)
        qq = vec_dot(row_times_mat(lam, A), gamp)
        rr = vec_dot(row_times_mat(lamp, A), gam)
        ss = vec_dot(row_times_mat(lamp, A), gamp)
        lhs = pp * ss - qq * rr
        rhs = A.det() * _det_rows(lam, lamp) * _det_rows(gam, gamp)
        if lhs != rhs:
            report["factorization_failures"] += 1

        # bordered rows
        k = rng.randint(1, max_chain)
        a = scalar()
        bs = [scalar() for _ in range(k)]
        b = scalar()
        lamp = _chain((LaurentPoly.nat(1), a), _run(bs, "x") + [step_matrix(bs[-1], "y", b)])
        lam = (LaurentPoly.nat(1), bs[-1])
        prod = b
        for f in bs:
            prod = prod * f
        if _det_rows(lamp, lam) != prod:
            report["bordered_rows_failures"] += 1

        # crossing
        l = rng.randint(1, max_chain)
        c = scalar()
        cs = [scalar() for _ in range(l)]
        d = scalar()
        A = mat()
        left_full = _run(bs, "x") + [step_matrix(bs[-1], "y", b)]
        right_full = [step_matrix(c, "x", cs[0])] + _run(cs, "y")

        def col_through(mats: list[Mat2], tail: tuple[LaurentPoly, LaurentPoly]):
            col = (LaurentPoly.coerce(tail[0]), LaurentPoly.coerce(tail[1]))
            for m in reversed(mats):
                col = (m.a * col[0] + m.b * col[1], m.c * col[0] + m.d * col[1])
            return col

        one = LaurentPoly.nat(1)
        g = (one, cs[0])
        gp = col_through(right_full, (one, d))
        lam = (one, bs[-1])
        lamp = _chain((one, a), left_full)
        pp = vec_dot(row_times_mat(lam, A), g)
        qq = vec_dot(row_times_mat(lam, A), gp)
        rr = vec_dot(row_times_mat(lamp, A), g)
        ss = vec_dot(row_times_mat(lamp, A), gp)
        rhs = prod * c * A.det()
        for f in cs:
            rhs = rhs * f
        if pp * ss - qq * rr != rhs:
            report["crossing_failures"] += 1

    report["all_ok"] = not (report["factorization_failures"]
                            or report["bordered_rows_failures"]
                            or report["crossing_failures"])
    return report
