"""Substitution into Laurent values, kept as an oracle.

The library reads a Laurent polynomial at all ones as the sum of its
coefficients (`frises.specialize_at_one`). This module keeps the general
substitution that route replaced: each term is built by ring products and
the shifts of negative exponents are divided out once at the end.
"""

from __future__ import annotations

from typing import Mapping

from artifact.cluster import FriezePattern
from artifact.laurent import LaurentPoly, Scalar


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
    return FriezePattern({p: subst(v, mapping) for p, v in fp.cells.items()})
