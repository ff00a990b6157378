"""Oracles for Laurent values.

The library reads a Laurent polynomial at all ones as the sum of its
coefficients (`frises.specialize_at_one`). This module keeps the general
substitution that route replaced: each term is built by ring products and
the shifts of negative exponents are divided out once at the end. It also
keeps `TupleLaurent`, a Laurent polynomial whose every operation is a plain
loop over exponent tuples: the oracle of `LaurentPoly`'s routes over packed
keys and of its exponent shifts.
"""

from __future__ import annotations

from typing import Mapping

from artifact.cluster import FriezePattern
from artifact.laurent import ExactDivisionError, LaurentPoly, NonMonomialDivisor, Scalar


def subst(p: LaurentPoly, mapping: Mapping[str, Scalar]) -> LaurentPoly:
    """Substitute variables by naturals or Laurent polynomials.

    Values for variables that occur with negative exponents are divided
    out exactly at the end (one common division), so substituting a
    tiling value at 1 never meets a fractional intermediate.
    """
    if p.is_zero():
        return LaurentPoly.nat(0)
    names, terms = p.variables, p.terms
    values = {v: LaurentPoly.coerce(mapping[v]) for v in names if v in mapping}
    shift = {}
    for i, v in enumerate(names):
        if v in values:
            low = min(e[i] for e in terms)
            shift[v] = max(0, -low)
    total = LaurentPoly.nat(0)
    for e, c in terms.items():
        term = LaurentPoly.nat(c)
        exps = {}
        for i, v in enumerate(names):
            if v in values:
                term = term * values[v] ** (e[i] + shift[v])
            else:
                exps[v] = e[i]
        if exps:
            term = term * LaurentPoly.monomial(1, exps)
        total = total + term
    divisor = LaurentPoly.nat(1)
    for v, s in shift.items():
        if s:
            divisor = divisor * values[v] ** s
    return total.exact_div(divisor)


def subst_pattern(fp: FriezePattern, mapping: Mapping[str, Scalar]) -> FriezePattern:
    return FriezePattern(fp.seed, {p: subst(v, mapping) for p, v in fp.cells.items()}, fp.minors)


# ----------------------------------------------------------------------
# the tuple-dict Laurent polynomial


def _var_key(name: str) -> tuple[int, str]:
    return (len(name), name)


class TupleLaurent:
    """LaurentPoly's canonical form, the sorted variables that occur with a
    nonzero exponent and a dict from dense exponent tuples to nonzero
    coefficients, with every operation a plain loop over exponent tuples;
    the two operands of a binary operation are first written over the
    union of their variables.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables=(), terms=None):
        vs = tuple(variables)
        tm = {tuple(e): int(c) for e, c in (terms or {}).items() if c}
        used = [i for i in range(len(vs)) if any(e[i] for e in tm)]
        order = sorted(used, key=lambda i: _var_key(vs[i]))
        self.variables = tuple(vs[i] for i in order)
        self.terms = {}
        for e, c in tm.items():
            key = tuple(e[i] for i in order)
            self.terms[key] = self.terms.get(key, 0) + c
        self.terms = {e: c for e, c in self.terms.items() if c}

    @staticmethod
    def of(p: LaurentPoly) -> "TupleLaurent":
        return TupleLaurent(p.variables, p.terms)

    def _aligned(self, other: "TupleLaurent") -> tuple[tuple[str, ...], dict, dict]:
        union = tuple(sorted(set(self.variables) | set(other.variables), key=_var_key))

        def remap(p: "TupleLaurent") -> dict:
            idx = [union.index(v) for v in p.variables]
            out = {}
            for e, c in p.terms.items():
                key = [0] * len(union)
                for i, x in zip(idx, e):
                    key[i] = x
                out[tuple(key)] = c
            return out

        return union, remap(self), remap(other)

    def __add__(self, other: "TupleLaurent") -> "TupleLaurent":
        vs, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + c
        return TupleLaurent(vs, out)

    def __neg__(self) -> "TupleLaurent":
        return TupleLaurent(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "TupleLaurent") -> "TupleLaurent":
        return self + (-other)

    def __mul__(self, other: "TupleLaurent") -> "TupleLaurent":
        vs, a, b = self._aligned(other)
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return TupleLaurent(vs, out)

    def __pow__(self, n: int) -> "TupleLaurent":
        if n < 0:
            if len(self.terms) != 1 or list(self.terms.values())[0] not in (1, -1):
                raise NonMonomialDivisor("negative power of a non-unit-monomial")
            ((e, c),) = self.terms.items()
            return TupleLaurent(self.variables, {tuple(x * n for x in e): c ** -n})
        out = TupleLaurent((), {(): 1})
        for _ in range(n):
            out = out * self
        return out

    def monomial_div(self, divisor: "TupleLaurent") -> "TupleLaurent":
        if len(divisor.terms) != 1:
            raise NonMonomialDivisor("divisor has %d terms" % len(divisor.terms))
        vs, a, b = self._aligned(divisor)
        ((de, dc),) = b.items()
        out = {}
        for e, c in a.items():
            if c % dc:
                raise ExactDivisionError("coefficient %d not divisible by %d" % (c, dc))
            out[tuple(x - y for x, y in zip(e, de))] = c // dc
        return TupleLaurent(vs, out)

    def exact_div(self, divisor: "TupleLaurent") -> "TupleLaurent":
        """Both operands less their monomial contents, long division under
        lex order, the quotient shifted back."""
        if not divisor.terms:
            raise ZeroDivisionError("Laurent division by zero")
        if not self.terms:
            return TupleLaurent()
        if len(divisor.terms) == 1:
            return self.monomial_div(divisor)
        vs, a, b = self._aligned(divisor)
        a_min, b_min = [min(col) for col in zip(*a)], [min(col) for col in zip(*b)]
        rem = {tuple(x - m for x, m in zip(e, a_min)): c for e, c in a.items()}
        den = {tuple(x - m for x, m in zip(e, b_min)): c for e, c in b.items()}
        lead_d = max(den)
        quo: dict = {}
        while rem:
            lead_r = max(rem)
            diff = tuple(x - y for x, y in zip(lead_r, lead_d))
            if any(d < 0 for d in diff):
                raise ExactDivisionError("no exact quotient (monomial obstruction)")
            if rem[lead_r] % den[lead_d]:
                raise ExactDivisionError("no exact quotient (coefficient obstruction)")
            q = rem[lead_r] // den[lead_d]
            quo[diff] = q
            for e, c in den.items():
                key = tuple(x + y for x, y in zip(e, diff))
                val = rem.get(key, 0) - q * c
                if val:
                    rem[key] = val
                else:
                    rem.pop(key, None)
        return TupleLaurent(vs, {tuple(x + m - n for x, m, n in zip(e, a_min, b_min)): c
                                 for e, c in quo.items()})

    def numerator_denominator(self) -> tuple["TupleLaurent", "TupleLaurent"]:
        lows = [min(0, min(col)) for col in zip(*self.terms)]
        den = TupleLaurent(self.variables, {tuple(-m for m in lows): 1})
        return self * den, den

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TupleLaurent):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.terms.items())))

    def sort_key(self) -> tuple:
        return (self.variables, tuple(sorted(self.terms.items())))

    def __str__(self) -> str:
        num, den = self.numerator_denominator()
        s = _tuple_str(num)
        if den == TupleLaurent((), {(): 1}):
            return s
        if len(num.terms) > 1:
            s = "(%s)" % s
        d = _tuple_str(den)
        return "%s/%s" % (s, "(%s)" % d if "*" in d else d)


def _tuple_str(p: TupleLaurent) -> str:
    if not p.terms:
        return "0"
    parts = []
    for e, c in sorted(p.terms.items(), reverse=True):
        factors = [name if ex == 1 else "%s^%d" % (name, ex)
                   for name, ex in zip(p.variables, e) if ex]
        if not factors:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(("-" if c < 0 else "") + "*".join(factors))
        else:
            parts.append("%d*%s" % (c, "*".join(factors)))
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out
