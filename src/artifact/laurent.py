"""Laurent polynomials with integer coefficients over named variables.

The intended carrier is the semiring of Laurent polynomials with natural
coefficients; subtraction exists on the type for the ring API and for
reference checks such as ``p*q - r*s`` in the tests, but every value meant
to be a tiling entry or a cluster variable must satisfy ``is_natural()``
(checked at the producing call sites).
Denominators are always monomials, absorbed as negative exponents.

A value has one form, canonical by construction: its sorted variables,
each with a nonzero exponent in some term; one field width W, the smallest
of 8, 16, 32, ... bits with -2^(W-3) <= e < 2^(W-3) for every exponent e;
and a dict from key to nonzero coefficient, where the key of an exponent
vector is the sum of (e_i + 2^(W-2)) << W*(n-1-i). The first variable
holds the most significant field, so integer order on keys is
lexicographic order on exponent tuples. W is a function of the value, so
``==``, ``hash`` and ``sorted_distinct`` (which orders on sorted keys) read
the variables and the dict; ``terms`` and ``str`` decode the keys.

Two keys of one layout (variables and width) add without a carry between
fields, so every route works on keys: a one-term factor or divisor is one
key shift, other products run ``_mul_keys`` and divisions ``_div_keys``.
Operands of different layouts are realigned once (``_relaid``: per run of
fields that stay adjacent, one shift and mask of each key); results leave
through ``_canonical``, which repacks only when a variable cancels out or
the width changes.

Bordered products of 2x2 step matrices over words whose vertices carry one
variable or 1 have two kernels: ``bordered_word_value`` walks one word as a
row vector (tiles below the frontier and cells of the cross construction,
``cluster``), and ``nested_word_values`` keeps the whole 2x2 product, so a
word can grow at both ends (frise rays of oriented cycles, ``frises``).
Both walk in their values' layout, so a value leaves with one constant
added to each key (the single-word walk, its layout cached per names tuple,
adds it in its last sum); the ray kernel moves large entries to int64 arrays.

``products_differ_by_one`` (p*q - r*s == 1), the one relation check of
``tilings.verify_sl2`` and ``frises.verify_recursion``, forms no ring
product: it sums each term pair at the sum of its keys, read in place when
the four operands share a layout, else moved as ``_relaid`` moves them. From
``_DICT_PAIRS`` pairs on, within its bounds, an int64 pass sorts one word per
pair (the keys themselves in it where they fit); else a dict pass decides.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain
from operator import and_, index, itemgetter, or_
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

Scalar = Union[int, "LaurentPoly"]


class NonMonomialDivisor(ValueError):
    """Raised when monomial division is attempted with a non-monomial."""


class ExactDivisionError(ArithmeticError):
    """Raised when an exact Laurent division leaves a remainder."""


def _var_key(name: str) -> tuple[int, str]:
    # (length, text) so u2 sorts before u10
    return (len(name), name)


@lru_cache(maxsize=4096)
def _union(*variables: tuple[str, ...]) -> tuple[str, ...]:
    """The sorted union of sorted variable tuples."""
    return tuple(sorted(set().union(*variables), key=_var_key))


def _ones(n: int, width: int) -> int:
    """The key with 1 in each of n fields of the given width."""
    return ((1 << n * width) - 1) // ((1 << width) - 1)


def _width(lo: int, hi: int) -> int:
    """The smallest field width 8, 16, 32, ... whose exponents,
    -2^(W-3) to 2^(W-3) - 1, hold lo and hi."""
    width = 8
    while hi >= 1 << width - 3 or lo < -(1 << width - 3):
        width *= 2
    return width


def _columns(n: int, width: int, keys: Iterable[int], fields: Iterable[int]) -> list[list[int]]:
    """The exponents of the given fields (positions among n), one list per field."""
    keys, mask, bias = list(keys), (1 << width) - 1, 1 << width - 2
    return [[((k >> width * (n - 1 - i)) & mask) - bias for k in keys] for i in fields]


class LaurentPoly:
    """Immutable Laurent polynomial in its one packed, canonical form (see
    the module docstring). A value with no variables is a constant, equal
    to its integer and hashed as it.
    """

    __slots__ = ("_vars", "_width", "_terms")

    def __init__(self, variables: Iterable[str] = (), terms: Mapping[tuple[int, ...], int] | None = None):
        vs = tuple(variables)
        if len(set(vs)) < len(vs):
            raise ValueError("repeated variable name %r"
                             % next(v for i, v in enumerate(vs) if v in vs[:i]))
        # index refuses 0.5 and Fraction, keeps True and numpy ints; zeros go after it
        tm = {e: c for e, c in ((tuple(e), index(c)) for e, c in (terms or {}).items()) if c}
        if any(len(e) != len(vs) for e in tm):
            raise ValueError("exponent tuple length does not match variable count")
        order = sorted(range(len(vs)), key=lambda i: _var_key(vs[i]))
        columns = [[e[i] for e in tm] for i in order]
        width = _width(min(chain(*columns), default=0), max(chain(*columns), default=0))
        keys = [_ones(len(vs), width) << width - 2] * len(tm)
        for j, col in enumerate(columns):
            keys = [k + (x << width * (len(vs) - 1 - j)) for k, x in zip(keys, col)]
        # _canonical drops the variables with exponent 0 in every term
        p = _canonical(tuple(vs[i] for i in order), width, dict(zip(keys, tm.values())))
        self._vars, self._width, self._terms = p._vars, p._width, p._terms

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def nat(n: int) -> "LaurentPoly":
        return LaurentPoly._trusted((), 8, {0: n} if (n := index(n)) else {})

    @staticmethod
    def var(name: str) -> "LaurentPoly":
        return LaurentPoly._trusted((name,), 8, {(1 << 6) + 1: 1})

    @staticmethod
    def monomial(coeff: int, exponents: Mapping[str, int]) -> "LaurentPoly":
        names = tuple(exponents)
        return LaurentPoly(names, {tuple(exponents[v] for v in names): coeff})

    @staticmethod
    def _trusted(variables: tuple[str, ...], width: int, terms: dict) -> "LaurentPoly":
        # the caller guarantees the canonical form: sorted, all used, the
        # canonical width, no zeros
        out = LaurentPoly.__new__(LaurentPoly)
        out._vars, out._width, out._terms = variables, width, terms
        return out

    @staticmethod
    def coerce(value: Scalar) -> "LaurentPoly":
        if isinstance(value, LaurentPoly):
            return value
        return LaurentPoly.nat(value)

    # ------------------------------------------------------------------
    # introspection

    @property
    def variables(self) -> tuple[str, ...]:
        return self._vars

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        return dict(zip(self._exponents(self._terms), self._terms.values()))

    def _exponents(self, keys: Iterable[int]) -> list[tuple[int, ...]]:
        n = len(self._vars)
        keys = list(keys)
        return list(zip(*_columns(n, self._width, keys, range(n)))) if n else [()] * len(keys)

    def is_zero(self) -> bool:
        return not self._terms

    def is_natural(self) -> bool:
        """True when every coefficient is a positive integer (vacuously for 0)."""
        return min(self._terms.values(), default=1) > 0

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def as_int(self) -> int:
        if self._vars:
            raise ValueError("not a constant: %s" % self)
        return self._terms.get(0, 0)

    def at_ones(self) -> int:
        """The value with every variable at 1: the sum of the coefficients."""
        return sum(self._terms.values())

    def numerator_denominator(self) -> tuple["LaurentPoly", "LaurentPoly"]:
        """Split into (polynomial numerator, monomial denominator).

        The numerator is a key shift of every term; a variable whose
        exponent is the same negative number in every term leaves it.
        """
        n, width = len(self._vars), self._width
        lows = [min(0, min(col)) for col in _columns(n, width, self._terms, range(n))]
        if not any(lows):
            return self, LaurentPoly.nat(1)
        shift = sum(-low << width * (n - 1 - i) for i, low in enumerate(lows))
        num = _canonical(self._vars, width, {k + shift: c for k, c in self._terms.items()})
        return num, LaurentPoly.monomial(1, {v: -m for v, m in zip(self._vars, lows) if m})

    # ------------------------------------------------------------------
    # ring operations

    def _aligned(self, other: "LaurentPoly") -> tuple[tuple[str, ...], int, dict, dict]:
        """Both operands' terms in one layout: the union of their variables
        at the wider of their widths."""
        if self._vars == other._vars and self._width == other._width:
            return self._vars, self._width, self._terms, other._terms
        vs, width = _union(self._vars, other._vars), max(self._width, other._width)
        return (vs, width, _relaid(self._terms, self._vars, self._width, vs, width),
                _relaid(other._terms, other._vars, other._width, vs, width))

    def __add__(self, other: Scalar) -> "LaurentPoly":
        other = LaurentPoly.coerce(other)
        vs, width, a, b = self._aligned(other)
        out = dict(a)
        for k, c in b.items():
            out[k] = out.get(k, 0) + c
        return _canonical(vs, width, {k: c for k, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self._vars, self._width, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: Scalar) -> "LaurentPoly":
        return self + (-LaurentPoly.coerce(other))

    def __rsub__(self, other: Scalar) -> "LaurentPoly":
        return LaurentPoly.coerce(other) + (-self)

    def __mul__(self, other: Scalar) -> "LaurentPoly":
        other = LaurentPoly.coerce(other)
        vs, width, a, b = self._aligned(other)
        if len(a) < len(b):
            a, b = b, a
        bias = _ones(len(vs), width) << width - 2
        if len(b) > 1:
            return _canonical(vs, width, _mul_keys(a, b, bias))
        if not b:
            return LaurentPoly.nat(0)
        ((k0, c0),) = b.items()  # one term: shift the keys
        k0 -= bias
        return _canonical(vs, width, {k + k0: c * c0 for k, c in a.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if not self.is_monomial():
                raise NonMonomialDivisor("negative power of a non-monomial")
            ((k, c),) = self._terms.items()
            if c not in (1, -1):
                raise NonMonomialDivisor("negative power needs unit coefficient")
            (e,) = self._exponents([k])
            return LaurentPoly(self._vars, {tuple(x * n for x in e): c ** -n})
        if n == 1:
            return self
        result = LaurentPoly.nat(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def monomial_div(self, divisor: Scalar) -> "LaurentPoly":
        """Exact division by a single-term divisor (a key shift)."""
        divisor = LaurentPoly.coerce(divisor)
        if not divisor.is_monomial():
            raise NonMonomialDivisor("divisor has %d terms" % len(divisor._terms))
        vs, width, a, b = self._aligned(divisor)
        ((kd, dc),) = b.items()
        if any(c % dc for c in a.values()):
            raise ExactDivisionError("a coefficient is not divisible by %d" % dc)
        shift = (_ones(len(vs), width) << width - 2) - kd
        return _canonical(vs, width, {k + shift: c // dc for k, c in a.items()})

    def exact_div(self, divisor: Scalar) -> "LaurentPoly":
        """Exact division by an arbitrary Laurent polynomial (``_div_keys``);
        raises ExactDivisionError when no exact Laurent quotient exists."""
        divisor = LaurentPoly.coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("Laurent division by zero")
        if self.is_zero():
            return LaurentPoly.nat(0)
        if divisor.is_monomial():
            return self.monomial_div(divisor)
        return _div_keys(*self._aligned(divisor))

    # ------------------------------------------------------------------
    # comparison, hashing, rendering

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return not self._vars and self._terms.get(0, 0) == other
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._vars == other._vars and self._terms == other._terms

    def __hash__(self) -> int:
        if not self._vars:  # a constant hashes as the integer it equals
            return hash(self._terms.get(0, 0))
        return hash((self._vars, frozenset(self._terms.items())))

    def __str__(self) -> str:
        num, den = self.numerator_denominator()
        s = _poly_str(num)
        if den == 1:
            return s
        if len(num._terms) > 1:
            s = "(%s)" % s
        d = _poly_str(den)
        if "*" in d:  # keep the monomial denominator one visual unit
            d = "(%s)" % d
        return "%s/%s" % (s, d)

    def __repr__(self) -> str:
        return "LaurentPoly(%s)" % self


def sorted_distinct(values: Iterable[LaurentPoly]) -> list[LaurentPoly]:
    """The distinct values by variable tuple, then by sorted (exponent tuple,
    coefficient) pairs, read as sorted (key, coefficient) items at the tuple's
    widest width, where key order is exponent order; equal values sort together."""
    values, width = list(values), {}
    for v in values:
        width[v._vars] = max(v._width, width.get(v._vars, 8))
    ranked = sorted((((v._vars, sorted(_relaid(v._terms, v._vars, v._width, v._vars,
                                               width[v._vars]).items())), v) for v in values),
                    key=itemgetter(0))
    return [v for i, (key, v) in enumerate(ranked) if not i or key != ranked[i - 1][0]]


def _relaid(terms: dict, vs: tuple[str, ...], width: int, to_vs: tuple[str, ...], to_width: int) -> dict:
    """terms of the layout (vs, width) in the layout (to_vs, to_width). Each
    variable of vs missing from to_vs must have exponent 0 in every term,
    and every exponent must fit to_width."""
    if vs == to_vs and width == to_width:
        return terms
    return dict(zip(_moved(terms, *_moves(vs, width, to_vs, to_width)), terms.values()))


def _moved(terms: dict, add: int, runs: tuple) -> list[int]:
    """The keys of terms moved as ``_moves`` says, in their order."""
    keys = [add] * len(terms)
    for down, mask, up in runs:
        keys = [x + (((k >> down) & mask) << up) for x, k in zip(keys, terms)]
    return keys


@lru_cache(maxsize=4096)
def _moves(vs: tuple[str, ...], width: int, to_vs: tuple[str, ...], to_width: int) -> tuple:
    """How ``_relaid`` moves keys: each run of fields that stay adjacent at
    one width as one bit block (shift down, mask, shift up), and the new
    bias less the old bias of the moved fields as one constant."""
    n, m = len(vs), len(to_vs)
    at = {v: i for i, v in enumerate(vs)}
    add, runs = _ones(m, to_width) << to_width - 2, []  # runs: [last i, last j, fields]
    for j, v in enumerate(to_vs):
        i = at.get(v)
        if i is None:
            continue
        add -= (1 << width - 2) << to_width * (m - 1 - j)
        if runs and width == to_width and runs[-1][:2] == [i - 1, j - 1]:
            runs[-1] = [i, j, runs[-1][2] + 1]
        else:
            runs.append([i, j, 1])
    return add, tuple((width * (n - 1 - i), (1 << width * count) - 1, to_width * (m - 1 - j))
                      for i, j, count in runs)


def _canonical(vs: tuple[str, ...], width: int, terms: dict, keys=None) -> LaurentPoly:
    """The LaurentPoly of terms: nonzero coefficients at distinct keys over
    the sorted variables vs, fields of width bits holding exponents e in
    [-2^(width-2), 2^(width-2)) as e + 2^(width-2).

    Each key plus a constant holds e + 2^(width-1) + 2^(width-3) in each
    field, without a carry. The or and the and of those sums show the
    variables with exponent 0 in every term (5 * 2^(width-3) in both) and
    whether every exponent fits the width (bit width-1 set and bit width-2
    clear in every field). ``_relaid`` repacks only when a variable goes or
    the width changes. keys, when given, is the dict's keys as an int64
    array, for numpy to reduce.
    """
    if not vs or not terms:
        return LaurentPoly._trusted((), 8, terms)
    n, mask, ones = len(vs), (1 << width) - 1, _ones(len(vs), width)
    add, zero = ones * (3 << width - 3), ones * (5 << width - 3)
    if keys is None:
        sums = [k + add for k in terms]
        ors, ands = reduce(or_, sums), reduce(and_, sums)
    else:
        import numpy as np

        sums = keys + add
        ors, ands = int(np.bitwise_or.reduce(sums)), int(np.bitwise_and.reduce(sums))
    fits = ands & (ones << width - 1) == ones << width - 1 and not ors & (ones << width - 2)
    varies = (ors ^ ands) | (ands ^ zero)  # a field is 0 where its variable is unused
    keep = [i for i in range(n) if (varies >> width * (n - 1 - i)) & mask]
    to_width = width
    if width != 8 or not fits:
        columns = _columns(n, width, terms, keep)
        to_width = _width(min(map(min, columns), default=0), max(map(max, columns), default=0))
    if len(keep) == n and to_width == width:
        return LaurentPoly._trusted(vs, width, terms)
    to_vs = tuple(vs[i] for i in keep)
    return LaurentPoly._trusted(to_vs, to_width, _relaid(terms, vs, width, to_vs, to_width))


def _mul_keys(a: dict, b: dict, bias: int) -> dict:
    """The product of two term dicts of one layout whose fields are biased
    by bias: each key pair sums less bias. Coefficients are Python
    integers, so the product is exact for any coefficient size."""
    if len(a) > len(b):
        a, b = b, a
    packed: dict[int, int] = {}
    get = packed.get
    for k1, c1 in a.items():
        k1 -= bias
        for k2, c2 in b.items():
            k = k1 + k2
            v = get(k, 0) + c1 * c2
            if v:
                packed[k] = v
            elif k in packed:
                del packed[k]
    return packed


def _div_keys(vs: tuple[str, ...], width: int, num: dict, den: dict) -> LaurentPoly:
    """Long division of two term dicts of one layout under lexicographic
    order on keys: the route of ``LaurentPoly.exact_div`` when the divisor
    has two or more terms.

    Per variable, an exact quotient's exponents lie between the numerator's
    minimum less the divisor's and its maximum less the divisor's. Each
    quotient exponent is checked against that box before it is used (one
    outside it proves that no exact quotient exists), so every remainder
    exponent stays within the numerator's range and key arithmetic never
    carries or borrows between fields. Coefficients are Python integers.

    The lead remainder term comes from a lazy max-heap of negated keys.
    Invariant: every key of the remainder has at least one heap entry, and
    a key is pushed only when it newly enters the remainder. An entry
    whose key has since left the remainder is stale and skipped when
    popped; a key that cancels and reappears is pushed again. A processed
    lead cancels and never returns, since later keys are strictly smaller.
    """
    n, mask, key_bias = len(vs), (1 << width) - 1, _ones(len(vs), width) << width - 2
    cols_num, cols_den = _columns(n, width, num, range(n)), _columns(n, width, den, range(n))
    lead_d, c_d = max(den.items())
    bias = 1 << width - 2
    # per variable: the shift of its field and the bounds of that field in a
    # lead remainder key whose quotient exponent lies in the box
    fields = [(width * (n - 1 - i), bias + e + min(cn) - min(cd), bias + e + max(cn) - max(cd))
              for i, ((e,), cn, cd) in enumerate(zip(_columns(n, width, [lead_d], range(n)),
                                                    cols_num, cols_den))]
    rem, den_list = dict(num), list(den.items())

    heap = [-k for k in rem]
    heapify(heap)
    quo: dict[int, int] = {}
    get = rem.get
    while rem:
        lead_r = -heappop(heap)
        c_r = get(lead_r)
        if c_r is None:
            continue  # stale: the key left the remainder after its push
        for shift, lo, hi in fields:
            if not lo <= (lead_r >> shift) & mask <= hi:
                raise ExactDivisionError("no exact quotient (exponent out of range)")
        if c_r % c_d:
            raise ExactDivisionError("no exact quotient (coefficient obstruction)")
        q = c_r // c_d
        diff = lead_r - lead_d
        quo[diff + key_bias] = q
        for k0, c in den_list:
            key = k0 + diff
            qc = q * c
            old = get(key)
            if old is None:
                rem[key] = -qc
                heappush(heap, -key)
            elif old == qc:
                del rem[key]
            else:
                rem[key] = old - qc
    return _canonical(vs, width, quo)


def _poly_str(p: LaurentPoly) -> str:
    if not p._terms:
        return "0"
    parts = []
    keys = sorted(p._terms, reverse=True)
    for e, c in zip(p._exponents(keys), map(p._terms.__getitem__, keys)):
        factors = []
        for name, ex in zip(p._vars, e):
            if ex == 1:
                factors.append(name)
            elif ex:
                factors.append("%s^%d" % (name, ex))
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append("%d*%s" % (c, "*".join(factors)))
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


# ----------------------------------------------------------------------
# bordered products over words whose labels are single variables or 1
#
# An entry of a step-matrix product is a pair (offset, terms): the key of
# each term is offset + key, so multiplying by a variable only moves the
# offset. Keys are packed as LaurentPoly's without its bias, so fields hold
# natural exponents. The terms are a dict, or in the int64 form of
# ``nested_word_values`` a pair of arrays (sorted keys, coefficients).
# ``_shifted`` shares terms, so ``_plus`` and ``_array_plus`` mutate neither
# operand; coefficients are natural and only added, so no sum is 0 to prune.
#
# A term of a step-matrix product takes one entry from each step matrix,
# and both matrices beside a vertex may take its variable: in
# M(a1,x,a2) M(a2,y,a3) = [[a1 a3 + 1, a2], [a2, a2^2]] an x letter then
# a y letter take a2 twice. So with c the number of the word's vertices
# that carry a name, its exponent in an entry is at most 2c, and in a
# value or its denominator at most c in absolute value. ``_layout`` keeps
# c < 2^(W-3): 2c < 2^(W-2) keeps unbiased keys free of carries and each
# of their fields below 2^(W-2), and a value's biased fields below 2^(W-1).


def _shifted(entry: tuple, k: int) -> tuple:
    return entry[0] + k, entry[1]


def _plus(a: tuple[int, dict], b: tuple[int, dict], shift: Optional[int] = None) -> tuple:
    """a + b; with a shift, at offset 0, each key moved by its offset and shift."""
    if len(a[1]) < len(b[1]):
        a, b = b, a
    (off, big), (delta, small) = a, b
    if shift is None:
        out = dict(big)
    else:
        out = {k + off + shift: c for k, c in big.items()}
        off, delta = 0, delta + shift
    delta -= off
    for key, c in small.items():
        key += delta
        out[key] = out.get(key, 0) + c
    return off, out


# From this many terms in one entry of P on, ``nested_word_values`` sums
# sorted int64 arrays instead of dicts (while its int64 bounds hold). On the
# sums of the symbolic-frise benchmark's frise rays the two forms cost the
# same between 64 and 128 terms.
_ARRAY_TERMS = 128


def _as_arrays(entries: tuple) -> list:
    """Dict entries in the int64 form, each offset moved into its keys."""
    import numpy as np  # here, so that a run below the switch never loads numpy

    out = []
    for off, terms in entries:
        keys = np.fromiter((k + off for k in terms), dtype=np.int64, count=len(terms))
        order = keys.argsort()
        coeffs = np.fromiter(terms.values(), dtype=np.int64, count=len(terms))
        out.append((0, (keys[order], coeffs[order])))
    return out


def _array_plus(a: tuple, b: tuple) -> tuple:
    """The sum of two int64 entries: one concatenation of both sorted key
    runs at the lower offset, one stable sort (a merge of the two runs) and
    one ``reduceat`` over each run of equal keys. A nonempty entry keeps
    0 <= offset <= offset + key < 2^62 for each key, so no key here leaves
    int64; an empty one's offset is unbounded, so it returns the other."""
    import numpy as np

    (off_a, (ka, ca)), (off_b, (kb, cb)) = a, b
    if not len(kb):
        return a
    if not len(ka):
        return b
    off = min(off_a, off_b)
    keys = np.concatenate((ka + (off_a - off), kb + (off_b - off)))
    order = keys.argsort(kind="stable")
    keys = keys[order]
    starts = _run_starts(keys).nonzero()[0]
    return off, (keys[starts], np.add.reduceat(np.concatenate((ca, cb))[order], starts))


def _run_starts(keys):
    """The mask of the first of each run of equal keys in a sorted array."""
    import numpy as np

    return np.concatenate(([True], keys[1:] != keys[:-1]))


def _at_ones(letter: Callable[[int], str], f: int, l: int) -> int:
    """The value of the word (f, l) with every vertex at 1."""
    x, y = 1, 1
    for i in range(f + 1, l):
        x, y = (x, x + y) if letter(i) == "x" else (x + y, y)
    return x + y


def _layout(names: Iterable[str], narrow: bool = False) -> tuple[tuple[str, ...], int, dict]:
    """The layout of the walk over words whose vertices carry names (one
    name a vertex, repeats counted): the sorted universe of names, the
    field width and each name's unbiased key.

    The most vertices one name carries bounds every exponent and sets the
    width. With ``narrow``, where that width takes over 62 key bits and the
    count's bit_length + 3 at most 62, fields are that narrow, so that the
    walk can run in int64, and ``_over_monomial`` repacks each value.
    """
    counts = Counter(names)
    universe = tuple(sorted(counts, key=_var_key))
    most = max(counts.values(), default=0)
    width = _width(-most, most)
    if narrow and len(universe) * width > 62 >= len(universe) * (most.bit_length() + 3):
        width = most.bit_length() + 3
    return universe, width, {v: 1 << width * (len(universe) - 1 - i) for i, v in enumerate(universe)}


def _over_monomial(universe: tuple, width: int, entry: tuple, den: int) -> LaurentPoly:
    """The value of entry (either form) divided by the monomial whose
    unbiased key is den: each key plus one constant, the bias less den."""
    off, terms = entry
    shift = off + (_ones(len(universe), width) << width - 2) - den
    if isinstance(terms, dict):
        return _canonical(universe, width, {k + shift: c for k, c in terms.items()})
    keys, to_width = terms[0] + shift, _width(-(1 << width - 3), (1 << width - 3) - 1)
    if to_width == width:  # the values' own width
        return _canonical(universe, width, dict(zip(keys.tolist(), terms[1].tolist())), keys)
    import numpy as np  # a narrow walk: rebias each field at the values' width

    n = len(universe)
    fields = (keys[:, None] >> np.arange(n - 1, -1, -1) * width) & (1 << width) - 1
    fields += (1 << to_width - 2) - (1 << width - 2)
    # a row of big-endian unsigned fields is the bytes of its key
    raw, step = fields.astype(">u%d" % (to_width // 8)).tobytes(), n * to_width // 8
    keys = [int.from_bytes(raw[i:i + step], "big") for i in range(0, len(raw), step)]
    return _canonical(universe, to_width, dict(zip(keys, terms[1].tolist())))


def bordered_word_value(names: Sequence[Optional[str]], letters: str,
                        col_swap: bool = False) -> LaurentPoly:
    """Value of the single word names[0] letters[0] names[1] ... names[-1].

    Vertex i carries a_i = names[i], or the constant 1 when names[i] is
    None. With n letters the value is

        (1, a_0) M(a_1, x_1, a_2) ... M(a_{n-2}, x_{n-2}, a_{n-1}) (1, a_n)^T
        / (a_1 ... a_{n-1}),

    where M(a,x,b) = [[a,1],[0,b]] and M(a,y,b) = [[b,0],[1,a]]; the first
    and last letters only delimit the word. With ``col_swap`` the closing
    column is (a_n, 1)^T instead, as the north-east region of the cross
    construction needs. A single word never grows on the left, so only the
    row vector (x, y) = (1, a_0) is carried from left to right: an x letter
    maps it to (a x, x + b y), a y letter to (b x + y, a y), and the close
    is x + a_n y (a_n x + y with ``col_swap``). A constant vertex is a zero
    shift, with no field and no factor in the denominator.
    """
    n = len(letters)
    if n < 2:
        raise ValueError("word %r needs at least two letters" % (letters,))
    if len(names) != n + 1:
        raise ValueError("need one more name than letters")
    universe, width, units, shift = _walk_layout(tuple(names))
    x, y = (0, {0: 1}), (units[0], {0: 1})
    for i in range(1, n - 1):
        a, b = units[i], units[i + 1]
        if letters[i] == "x":
            x, y = _shifted(x, a), _plus(x, _shifted(y, b))
        else:
            x, y = _plus(_shifted(x, b), y), _shifted(y, a)
    last = units[n]
    x, y = (_shifted(x, last), y) if col_swap else (x, _shifted(y, last))
    return _canonical(universe, width, _plus(x, y, shift)[1])


@lru_cache(maxsize=4096)
def _walk_layout(names: tuple[Optional[str], ...]) -> tuple[tuple[str, ...], int, tuple, int]:
    """``_layout`` of the walk, each vertex's unbiased key (0 for None), and
    the shift of its values' keys: the bias less the denominator's key."""
    universe, width, key = _layout(v for v in names if v is not None)
    units = tuple(key.get(v, 0) for v in names)
    return universe, width, units, (_ones(len(universe), width) << width - 2) - sum(units[1:-1])


def nested_word_values(names: tuple[str, ...], letter: Callable[[int], str],
                       label: Callable[[int], int],
                       spans: Iterable[tuple[int, int]]) -> list[LaurentPoly]:
    """Values of nested words whose vertices each carry one variable.

    The word (f, l) holds the letters f..l, and vertex i (before letter i)
    carries a_i = names[label(i)]. Its value is

        (1, a_f) P (1, a_{l+1})^T / (a_{f+1} ... a_l),
        P = M(a_{f+1}, x_{f+1}, a_{f+2}) ... M(a_{l-1}, x_{l-1}, a_l),

    with M as in ``bordered_word_value``. Each span must contain the one
    before it, so the frise rays keep P and extend it by the step matrices
    of the new letters at each end: a step multiplies entries by one
    variable or adds two of them. P's entries have natural coefficients
    over unbiased keys in the layout of ``_layout`` (of the last word's
    vertices), and each value leaves with one constant, the bias less its
    denominator's key, added to each key.

    An entry is (offset, terms), every key offset + key, so a product by a
    variable is an offset move. Its terms are a dict summed by ``_plus``,
    and from the span at which one of P's four entries has
    ``_ARRAY_TERMS`` terms on, sorted int64 keys and coefficients summed by
    ``_array_plus``; the values then leave with their terms in
    lexicographic order. The int64 form is exact, and is used, only within
    two bounds decided before the walk:

    - (distinct names) * width <= 62 bits: every field of a key of an
      entry or a value is below 2^(width-1), so every such key, and every
      key and offset of ``_array_plus``, is below 2^61;
    - the last span's value at all ones is below 2^62: at all ones every
      step matrix is natural with ones on its diagonal, so P grows
      entrywise from span to span, and every coefficient, entry, sum and
      value along the way is at most the last value at all ones. Then no
      coefficient, and no partial sum of ``reduceat``, leaves int64.
    """
    spans = list(spans)
    if not spans:
        return []
    f, l = spans[-1]
    small = _at_ones(letter, f, l) < 1 << 62
    universe, width, key = _layout((names[label(i)] for i in range(f, l + 2)), narrow=small)
    unit = [key.get(v, 0) for v in names]  # a name no word carries has no field
    exact = len(universe) * width <= 62 and small

    plus = _plus
    p, q, r, s = (0, {0: 1}), (0, {}), (0, {}), (0, {0: 1})  # P = identity
    lo = hi = spans[0][0] + 1  # P covers the letters lo..hi-1
    out = []
    for f, l in spans:
        if l <= f:
            raise ValueError("word (%d, %d) needs at least two letters" % (f, l))
        if f >= lo or l < hi:
            raise ValueError("span (%d, %d) does not contain the previous one" % (f, l))
        if plus is _plus and exact and max(len(e[1]) for e in (p, q, r, s)) >= _ARRAY_TERMS:
            plus = _array_plus
            p, q, r, s = _as_arrays((p, q, r, s))
        for i in range(lo - 1, f, -1):  # M_i P, innermost letter first
            a, b = unit[label(i)], unit[label(i + 1)]
            if letter(i) == "x":
                p, q, r, s = (plus(_shifted(p, a), r), plus(_shifted(q, a), s),
                              _shifted(r, b), _shifted(s, b))
            else:
                p, q, r, s = (_shifted(p, b), _shifted(q, b),
                              plus(p, _shifted(r, a)), plus(q, _shifted(s, a)))
        for i in range(hi, l):  # P M_i
            a, b = unit[label(i)], unit[label(i + 1)]
            if letter(i) == "x":
                p, q, r, s = (_shifted(p, a), plus(p, _shifted(q, b)),
                              _shifted(r, a), plus(r, _shifted(s, b)))
            else:
                p, q, r, s = (plus(_shifted(p, b), q), _shifted(q, a),
                              plus(_shifted(r, b), s), _shifted(s, a))
        lo, hi = f + 1, l
        first, last = unit[label(f)], unit[label(l + 1)]
        value = plus(plus(p, _shifted(q, last)), _shifted(plus(r, _shifted(s, last)), first))
        den = sum(unit[label(i)] for i in range(f + 1, l + 1))
        out.append(_over_monomial(universe, width, value, den))
    return out


# ----------------------------------------------------------------------
# the minor check

# Below this many term pairs the minor check is one dict pass; from it on,
# while the int64 bounds hold, one sort of int64 words: the crossover in the
# band table of tools/time_kernel.py at seeds 1 and 24 (dict 42-45 us a minor
# against int64 44-49 at 192-255 pairs, 61-67 against 50-55 at 256-383).
_DICT_PAIRS = 256
# The int64 pass holds 24 bytes per pair at its peak (numpy buffers, read
# with tracemalloc): about 100 MB at this cap.
_MAX_PAIRS = 1 << 22


def products_differ_by_one(p: Scalar, q: Scalar, r: Scalar, s: Scalar) -> bool:
    """Exact check that p*q - r*s == 1.

    Four int operands take the integer route, p*q - r*s == 1 itself. Else
    the operands' keys are read in one layout of n variables at width W:
    their dicts in place when the four share it, else moved (``_moves``).
    Two keys sum without a carry, each field below 2^W, to the key of the
    exponent sum plus twice the bias. The dict pass sums each pair of p*q
    and of -r*s at the sum of its keys and 1 less at twice the bias, and
    the check holds when every sum is 0: exact for every input.

    From ``_DICT_PAIRS`` pairs on an int64 pass comes first. It reads cmax
    (the largest |coefficient|, at least 1) as a Python integer, so -2^63
    counts as 2^63. Each pair is one word, its key part shifted left by
    cbits = (2 * cmax^2).bit_length() plus c1*c2 + cmax^2; one sort puts
    equal key parts together and ``reduceat`` sums each run. Where
    nW + cbits <= 62 the key part is the key sum less twice the bias, below
    2^(nW) in absolute value. Else the exponents are decoded (emax, the
    largest |exponent|) and repacked by one int64 product into signed
    fields of width w = (2 * emax).bit_length() + 1, injective on sums of
    two vectors, and wn + cbits <= 62 must hold instead. The pass also
    needs pairs <= ``_MAX_PAIRS`` (a memory cap). Within these bounds every
    word fits int64 and words sort by key part first; a run of one key
    part holds at most 2^(nW) words per product (one per first key), plus
    the 1, each below 2^(cbits-1) in absolute value, so its partial sums
    stay below 2^(nW+cbits) + 2^(cbits-1) < 2^63 (wn for nW if repacked).
    """
    if type(p) is type(q) is type(r) is type(s) is int:
        return p * q - r * s == 1
    operands = _minor_operands(p, q, r, s)
    tp, tq, tr, ts = map(len, operands[0])
    pairs = tp * tq + tr * ts
    verdict = _differ_by_one_int64(*operands) if _DICT_PAIRS <= pairs <= _MAX_PAIRS else None
    return _differ_by_one_dicts(*operands) if verdict is None else verdict


def _minor_operands(*operands: Scalar) -> tuple[list[dict], tuple, int, int]:
    """The operands' term dicts, the ``_moves`` of each into one layout (None
    where it has that layout), and the layout's variable count and width."""
    polys = [LaurentPoly.coerce(v) for v in operands]
    return ([f._terms for f in polys], *_minor_layout(*[(f._vars, f._width) for f in polys]))


@lru_cache(maxsize=4096)
def _minor_layout(*layouts: tuple[tuple[str, ...], int]) -> tuple[tuple, int, int]:
    """The moves of ``_minor_operands`` into the union of the layouts."""
    vs, width = _union(*(v for v, _ in layouts)), max(w for _, w in layouts)
    return tuple(None if layout == (vs, width) else _moves(*layout, vs, width)
                 for layout in layouts), len(vs), width


def _differ_by_one_dicts(terms: list, moves: tuple, n: int, width: int) -> bool:
    """The dict pass of ``products_differ_by_one``, exact for every input."""
    tp, tq, tr, ts = [t.items() if m is None else list(zip(_moved(t, *m), t.values()))
                      for t, m in zip(terms, moves)]
    acc = {_ones(n, width) << width - 1: -1}  # the 1, at twice the bias
    get = acc.get
    for t1, t2, sign in ((tp, tq, 1), (tr, ts, -1)):
        for k1, c1 in t1:
            c1 *= sign
            for k2, c2 in t2:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    return not any(acc.values())


def _differ_by_one_int64(terms: list, moves: tuple, n: int, width: int) -> Optional[bool]:
    """The int64 pass of ``products_differ_by_one``, or None when a
    coefficient leaves int64 or the bounds fail."""
    import numpy as np  # here, so that importing artifact does not load numpy

    sizes = [len(t) for t in terms]
    try:
        coeffs = np.fromiter(chain.from_iterable(t.values() for t in terms), dtype=np.int64,
                             count=sum(sizes))
    except OverflowError:
        return None
    bias = max(int(coeffs.max(initial=1)), -int(coeffs.min(initial=-1))) ** 2  # cmax^2
    cbits = (2 * bias).bit_length()
    keys = chain.from_iterable(t if m is None else _moved(t, *m) for t, m in zip(terms, moves))
    if n * width + cbits <= 62:  # the keys less the bias are the key parts
        packed = np.fromiter(keys, dtype=np.int64, count=sum(sizes))
        packed = packed - (_ones(n, width) << width - 2) << cbits
    elif (packed := _repacked(keys, sum(sizes), n, width, cbits)) is None:
        return None
    (kp, cp), (kq, cq), (kr, cr), (ks, cs) = [(packed[i - m:i], coeffs[i - m:i])
                                              for i, m in zip(accumulate(sizes), sizes)]
    n_pq = len(kp) * len(kq)
    words = np.empty(n_pq + len(kr) * len(ks) + 1, dtype=np.int64)
    words[-1] = bias - 1  # the 1 subtracted at key part 0
    for k1s, c1s, k2s, c2s, out in ((kp, cp, kq, cq, words[:n_pq]),
                                    (kr, -cr, ks, cs, words[n_pq:-1])):
        out = out.reshape(len(k1s), len(k2s))
        np.add.outer(k1s + bias, k2s, out=out)
        out += np.multiply.outer(c1s, c2s)  # freed before the next block: the memory peak
    words.sort()
    starts = _run_starts(words >> cbits).nonzero()[0]  # the key parts are freed first
    words &= (1 << cbits) - 1
    words -= bias
    return not np.add.reduceat(words, starts).any()


def _repacked(keys: Iterable[int], count: int, n: int, width: int, cbits: int):
    """The count keys as int64 key parts, exponents in signed fields of width
    w shifted left by cbits, or None when w * n + cbits passes 62."""
    import numpy as np

    if width > 64:  # exponents of 2^61 or more: w passes 62
        return None
    if n * width <= 64 and width < 64:  # below 2^63: a top field is below 2^(width-1)
        keys = np.fromiter(keys, dtype=np.int64, count=count)
        exps = keys[:, None] >> np.arange(n - 1, -1, -1) * width & (1 << width) - 1
    else:  # big-endian bytes: the fields as unsigned ints
        raw = b"".join([k.to_bytes(n * width // 8, "big") for k in keys])
        exps = np.frombuffer(raw, dtype=">u%d" % (width // 8)).reshape(count, n)
    exps = exps.astype(np.int64, copy=False) - (1 << width - 2)
    emax = max(int(exps.max(initial=0)), -int(exps.min(initial=0)))
    w = (2 * emax).bit_length() + 1
    if w * n + cbits > 62:
        return None
    return exps @ np.array([1 << w * (n - 1 - i) + cbits for i in range(n)], dtype=np.int64)
