"""Laurent polynomials with integer coefficients over named variables.

The intended carrier is the semiring of Laurent polynomials with natural
coefficients; subtraction exists on the type because determinant checks
need it, but every value meant to be a tiling entry or a cluster variable
must satisfy ``is_natural()`` (checked at the producing call sites).
Denominators are always monomials, absorbed as negative exponents.

Each ring operation has one route. A product with a one-term factor (a
monomial or a nonzero constant) is an exponent shift; any other product
of two nonzero values runs ``_mul_packed``. Division by a one-term divisor
is the shift ``monomial_div``; any other exact division runs
``_div_packed``.

Bordered products of 2x2 step matrices over words whose vertices carry one
variable or 1 have two kernels. ``bordered_word_value`` walks one word as
a row vector, two entries per step: the tiles below the frontier and the
cells of the cross construction (``cluster``) use it. ``nested_word_values``
keeps the whole 2x2 product, so a word can grow at both ends: the frise
rays of oriented cycles (``frises``) use it.

The packed routes and both kernels work on exponent vectors packed into
one integer, a bit field per variable, and each result leaves through
``_unpacked``, which builds its canonical LaurentPoly once. The kernels'
entries are dicts from packed key to coefficient; ``nested_word_values``
switches to sorted int64 key and coefficient arrays once an entry has
``_ARRAY_TERMS`` terms, where two bounds decided before its walk (62 key
bits, and the last word's value at all ones below 2^62) make int64 exact.
The kernels put the first variable in the most significant field, so
sorted keys are lexicographic exponent tuples, and the values of the int64
form leave with their terms in that order. How a value leaves follows its
form: ``_unpacked`` reads a list of Python keys one term at a time, and an
int64 key array with numpy, one column of exponents per kept field.

The minor check ``products_differ_by_one`` (p*q - r*s == 1) forms no ring
product: it packs exponent vectors into signed fields of one common width
and sums the term pairs in one of two passes. From ``_DICT_PAIRS`` pairs on,
the four operands' exponents and coefficients go into two int64 arrays,
whose max() and min() give the bounds that make one sort of int64 words
exact; below that size, and for values outside int64 or the bounds, a dict
pass over Python integers decides.
"""

from __future__ import annotations

from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import and_, lshift, neg, or_
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

Scalar = Union[int, "LaurentPoly"]


class NonMonomialDivisor(ValueError):
    """Raised when monomial division is attempted with a non-monomial."""


class ExactDivisionError(ArithmeticError):
    """Raised when an exact Laurent division leaves a remainder."""


def _var_key(name: str) -> tuple[int, str]:
    # (length, text) so u2 sorts before u10
    return (len(name), name)


class LaurentPoly:
    """Immutable Laurent polynomial, canonical on construction.

    Canonical form: the variable universe is the sorted tuple of variables
    that actually occur with a nonzero exponent; terms map dense exponent
    tuples to nonzero integer coefficients. A value with no variables is a
    constant, equal to its integer and hashed as it.
    """

    __slots__ = ("_vars", "_terms")

    def __init__(self, variables: Iterable[str] = (), terms: Mapping[tuple[int, ...], int] | None = None):
        vs = tuple(variables)
        if len(set(vs)) < len(vs):
            raise ValueError("repeated variable name %r"
                             % next(v for i, v in enumerate(vs) if v in vs[:i]))
        tm = {tuple(e): int(c) for e, c in (terms or {}).items() if c}
        for e in tm:
            if len(e) != len(vs):
                raise ValueError("exponent tuple length does not match variable count")
        # prune variables with exponent 0 in every term, then sort the rest
        used = [i for i in range(len(vs)) if any(e[i] for e in tm)]
        vs_used = [vs[i] for i in used]
        order = sorted(range(len(vs_used)), key=lambda i: _var_key(vs_used[i]))
        self._vars = tuple(vs_used[i] for i in order)
        self._terms = {}
        for e, c in tm.items():
            key = tuple(e[used[i]] for i in order)
            self._terms[key] = self._terms.get(key, 0) + c
        for key in [k for k, c in self._terms.items() if c == 0]:
            del self._terms[key]

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def nat(n: int) -> "LaurentPoly":
        return LaurentPoly._trusted((), {(): int(n)} if n else {})

    @staticmethod
    def var(name: str) -> "LaurentPoly":
        return LaurentPoly._trusted((name,), {(1,): 1})

    @staticmethod
    def monomial(coeff: int, exponents: Mapping[str, int]) -> "LaurentPoly":
        names = tuple(exponents)
        return LaurentPoly(names, {tuple(exponents[v] for v in names): coeff})

    @staticmethod
    def _trusted(variables: tuple[str, ...], terms: dict) -> "LaurentPoly":
        # the caller guarantees the canonical form: sorted, all used, no zeros
        out = LaurentPoly.__new__(LaurentPoly)
        out._vars, out._terms = variables, terms
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
        return dict(self._terms)

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
        if not self._terms:
            return 0
        return self._terms[()]

    def numerator_denominator(self) -> tuple["LaurentPoly", "LaurentPoly"]:
        """Split into (polynomial numerator, monomial denominator).

        The numerator is an exponent shift of every term; a variable whose
        exponent is the same negative number in every term leaves it.
        """
        columns = list(zip(*self._terms))
        lows = [min(0, min(col)) for col in columns]
        if not any(lows):
            return self, LaurentPoly.nat(1)
        keep = [j for j, col in enumerate(columns) if not lows[j] or max(col) != lows[j]]
        shifted = [[x - lows[j] for x in columns[j]] if lows[j] else columns[j] for j in keep]
        # with no variable kept, every term had the same exponents: one term
        num = LaurentPoly._trusted(
            tuple(self._vars[j] for j in keep),
            dict(zip(zip(*shifted) if keep else [()], self._terms.values())))
        return num, LaurentPoly.monomial(1, {v: -m for v, m in zip(self._vars, lows) if m})

    # ------------------------------------------------------------------
    # ring operations

    def _aligned(self, other: "LaurentPoly") -> tuple[tuple[str, ...], dict, dict]:
        if self._vars == other._vars:
            return self._vars, self._terms, other._terms
        union = sorted(set(self._vars) | set(other._vars), key=_var_key)
        pos = {v: i for i, v in enumerate(union)}

        def remap(p: "LaurentPoly") -> dict:
            idx = [pos[v] for v in p._vars]
            out = {}
            for e, c in p._terms.items():
                key = [0] * len(union)
                for i, ex in zip(idx, e):
                    key[i] = ex
                out[tuple(key)] = c
            return out

        return tuple(union), remap(self), remap(other)

    def __add__(self, other: Scalar) -> "LaurentPoly":
        other = LaurentPoly.coerce(other)
        vs, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + c
        return _pruned(vs, {e: c for e, c in out.items() if c}, range(len(vs)))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self._vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: Scalar) -> "LaurentPoly":
        return self + (-LaurentPoly.coerce(other))

    def __rsub__(self, other: Scalar) -> "LaurentPoly":
        return LaurentPoly.coerce(other) + (-self)

    def __mul__(self, other: Scalar) -> "LaurentPoly":
        other = LaurentPoly.coerce(other)
        vs, a, b = self._aligned(other)
        if len(a) < len(b):
            a, b = b, a
        if len(b) > 1:
            return _mul_packed(vs, a, b)
        if not b:
            return LaurentPoly.nat(0)
        ((e0, c0),) = b.items()  # one term: shift the exponents
        # a column can cancel only where the shift is nonzero: with e0[j]
        # zero it is a's own column, and a uses every variable b does not
        return _pruned(vs, {tuple(x + y for x, y in zip(e, e0)): c * c0 for e, c in a.items()},
                       [j for j, x in enumerate(e0) if x])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if not self.is_monomial():
                raise NonMonomialDivisor("negative power of a non-monomial")
            ((e, c),) = self._terms.items()
            if c not in (1, -1):
                raise NonMonomialDivisor("negative power needs unit coefficient")
            return LaurentPoly._trusted(self._vars, {tuple(x * n for x in e): c ** -n})
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
        """Exact division by a single-term divisor (an exponent shift)."""
        divisor = LaurentPoly.coerce(divisor)
        if not divisor.is_monomial():
            raise NonMonomialDivisor("divisor has %d terms" % len(divisor._terms))
        vs, a, b = self._aligned(divisor)
        ((de, dc),) = b.items()
        out = {}
        for e, c in a.items():
            if c % dc:
                raise ExactDivisionError("coefficient %d not divisible by %d" % (c, dc))
            out[tuple(x - y for x, y in zip(e, de))] = c // dc
        return LaurentPoly(vs, out)

    def exact_div(self, divisor: Scalar) -> "LaurentPoly":
        """Exact division by an arbitrary Laurent polynomial.

        Divides under lexicographic term order, each operand taken less its
        monomial content, and applies the content quotient while unpacking
        the result. Raises ExactDivisionError when no exact Laurent quotient
        exists.
        """
        divisor = LaurentPoly.coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("Laurent division by zero")
        if self.is_zero():
            return LaurentPoly.nat(0)
        if divisor.is_monomial():
            return self.monomial_div(divisor)
        return _div_packed(*self._aligned(divisor))

    # ------------------------------------------------------------------
    # comparison, hashing, rendering

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return not self._vars and self._terms.get((), 0) == other
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._vars == other._vars and self._terms == other._terms

    def __hash__(self) -> int:
        if not self._vars:  # a constant hashes as the integer it equals
            return hash(self._terms.get((), 0))
        return hash((self._vars, frozenset(self._terms.items())))

    def sort_key(self) -> tuple:
        return (self._vars, tuple(sorted(self._terms.items())))

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


def _pruned(vs: tuple[str, ...], terms: dict, cols: Iterable[int]) -> LaurentPoly:
    """terms over the sorted variables vs, every coefficient nonzero, as a
    canonical LaurentPoly: the columns among cols that are 0 in every key
    are dropped, and the result is returned through _trusted."""
    drop = {j for j in cols if not any(e[j] for e in terms)}
    if not drop:
        return LaurentPoly._trusted(vs, terms)
    keep = [j for j in range(len(vs)) if j not in drop]
    return LaurentPoly._trusted(tuple(vs[j] for j in keep),
                                {tuple(e[j] for j in keep): c for e, c in terms.items()})


def _packed_keys(columns: list, lows: list, shifts: list) -> list[int]:
    """One integer per term: exponent j less lows[j], in the field at shifts[j]."""
    keys = [0] * len(columns[0])
    for col, low, shift in zip(columns, lows, shifts):
        keys = [k | ((x - low) << shift) for k, x in zip(keys, col)]
    return keys


def _unpacked(vs: tuple[str, ...], keys: Sequence[int], coeffs: Iterable[int], lows: list, shifts: list,
              widths: list) -> LaurentPoly:
    """LaurentPoly of packed keys: exponent j is the field at shifts[j] plus lows[j].

    Callers pass sorted variables, distinct keys and nonzero coefficients,
    so the one canonical step left is to drop each variable whose exponent
    is 0 in every term. Keys are a list of integers, or an int64 array
    whose or/and reductions and kept fields numpy reads, one ``tolist`` a
    column.
    """
    arrays = not isinstance(keys, list)
    if arrays:
        import numpy as np  # only int64 keys get here, so a dict-only run never loads numpy

        ors, ands = int(np.bitwise_or.reduce(keys)), int(np.bitwise_and.reduce(keys))
    else:
        ors, ands = reduce(or_, keys), reduce(and_, keys)
    fields = []
    for v, low, shift, width in zip(vs, lows, shifts, widths):
        mask = (1 << width) - 1
        top = (ors >> shift) & mask
        # a field is the same in every key when its bits agree in the or and the and
        if top != (ands >> shift) & mask or top + low:
            fields.append((v, shift, mask, low))
    columns = ([(((keys >> shift) & mask) + low).tolist() for _, shift, mask, low in fields]
               if arrays else
               [[((k >> shift) & mask) + low for k in keys] for _, shift, mask, low in fields])
    return LaurentPoly._trusted(
        tuple(field[0] for field in fields),
        dict(zip(zip(*columns) if fields else [()] * len(keys), coeffs)))


def _mul_packed(vs: tuple[str, ...], a: dict, b: dict) -> LaurentPoly:
    """Multiply two term dicts over the sorted variables vs via packed keys.

    The route of ``LaurentPoly.__mul__`` when both factors have two or more
    terms. Every exponent vector, less its factor's componentwise minimum,
    is packed into one integer, one bit field per variable, each field wide
    enough for the sum of both factors' spans, so key addition never
    carries between fields. Keys and coefficients are Python integers, so
    the run is exact for any coefficient size; ``_unpacked`` adds the minima.
    """
    cols_a, cols_b = list(zip(*a)), list(zip(*b))
    lo_a, lo_b = [min(col) for col in cols_a], [min(col) for col in cols_b]
    widths = [(max(ca) - la + max(cb) - lb).bit_length() + 1
              for ca, la, cb, lb in zip(cols_a, lo_a, cols_b, lo_b)]
    shifts = [sum(widths[:j]) for j in range(len(widths))]
    pa = dict(zip(_packed_keys(cols_a, lo_a, shifts), a.values()))
    pb = dict(zip(_packed_keys(cols_b, lo_b, shifts), b.values()))
    if len(pa) > len(pb):
        pa, pb = pb, pa
    packed: dict[int, int] = {}
    get = packed.get
    for k1, c1 in pa.items():
        for k2, c2 in pb.items():
            k = k1 + k2
            v = get(k, 0) + c1 * c2
            if v:
                packed[k] = v
            elif k in packed:
                del packed[k]
    lows = [la + lb for la, lb in zip(lo_a, lo_b)]
    return _unpacked(vs, list(packed), packed.values(), lows, shifts, widths)


def _div_packed(vs: tuple[str, ...], num: dict, den: dict) -> LaurentPoly:
    """Long division of term dicts over the sorted variables vs via packed keys.

    The route of ``LaurentPoly.exact_div`` when the divisor has two or more
    terms. Each operand is packed less its column minima (its monomial
    content), and ``_unpacked`` adds the numerator's minima less the
    divisor's to the quotient. Fields are laid out most-significant-first,
    so integer order on packed keys equals lex order on exponent tuples.
    Every quotient exponent is range-checked before it is used: each
    component must be nonnegative (the monomial obstruction) and no larger
    than the combined exponent span, which no exact quotient can exceed.
    Within those bounds a field of a remainder key holds at most twice the
    span, which its width leaves room for, so key arithmetic never carries
    or borrows between fields and the packed run is exact; coefficients are
    Python integers. The same bound ends a non-exact division as soon as a
    quotient exponent leaves the box, instead of letting the remainder run.

    The lead remainder term comes from a lazy max-heap of negated keys.
    Invariant: every key of the remainder has at least one heap entry, and
    a key is pushed only when it newly enters the remainder. An entry
    whose key has since left the remainder is stale and skipped when
    popped; a key that cancels and reappears is pushed again. A processed
    lead cancels and never returns, since later keys are strictly smaller.
    """
    cols_num, cols_den = list(zip(*num)), list(zip(*den))
    lo_num, lo_den = [min(col) for col in cols_num], [min(col) for col in cols_den]
    spans = [max(max(cn) - ln, max(cd) - ld)
             for cn, ln, cd, ld in zip(cols_num, lo_num, cols_den, lo_den)]
    widths = [(2 * span).bit_length() + 1 for span in spans]
    # slot 0 most significant: lex order
    shifts = [sum(widths[j + 1:]) for j in range(len(widths))]
    rem = dict(zip(_packed_keys(cols_num, lo_num, shifts), num.values()))
    den_list = list(zip(_packed_keys(cols_den, lo_den, shifts), den.values()))
    lead_d, c_d = max(den_list)
    ld_slots = [(lead_d >> shift) & ((1 << width) - 1) for shift, width in zip(shifts, widths)]
    fields = list(zip(shifts, widths, ld_slots, spans))

    heap = [-k for k in rem]
    heapify(heap)
    quo: dict[int, int] = {}
    get = rem.get
    while rem:
        lead_r = -heappop(heap)
        c_r = get(lead_r)
        if c_r is None:
            continue  # stale: the key left the remainder after its push
        for shift, width, slot, span in fields:
            d = ((lead_r >> shift) & ((1 << width) - 1)) - slot
            if d < 0:
                raise ExactDivisionError("no exact quotient (monomial obstruction)")
            if d > span:
                raise ExactDivisionError("no exact quotient (exponent out of range)")
        if c_r % c_d:
            raise ExactDivisionError("no exact quotient (coefficient obstruction)")
        q = c_r // c_d
        diff = lead_r - lead_d
        quo[diff] = q
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
    lows = [ln - ld for ln, ld in zip(lo_num, lo_den)]
    return _unpacked(vs, list(quo), quo.values(), lows, shifts, widths)


def _poly_str(p: LaurentPoly) -> str:
    if not p._terms:
        return "0"
    parts = []
    for e, c in sorted(p._terms.items(), reverse=True):
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
# An entry of a step-matrix product is a pair (offset, terms): the packed
# exponent key of each term is offset + key, so multiplying by a variable
# only moves the offset. The terms are a dict, or in the int64 form of
# ``nested_word_values`` a pair of arrays (sorted keys, coefficients).
# ``_shifted`` shares terms, so ``_plus`` and ``_array_plus`` mutate neither
# operand; coefficients are natural and only added, so no sum is 0 to prune.
#
# Every term of a word's value has total degree at most the word's letter
# count, so one field of that count's bit_length per name never carries.


def _shifted(entry: tuple, k: int) -> tuple:
    return entry[0] + k, entry[1]


def _plus(a: tuple[int, dict], b: tuple[int, dict]) -> tuple[int, dict]:
    if len(a[1]) < len(b[1]):
        a, b = b, a
    (off, big), (delta, small) = a, b
    delta -= off
    out = dict(big)
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
    one ``reduceat`` over each run of equal keys.

    A nonempty entry keeps 0 <= offset <= offset + key < 2^62 for each of
    its keys, so no key here leaves int64. An empty entry's offset, moved by
    every shift, is unbounded, so an empty operand returns the other one.
    """
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
    starts = np.empty(len(keys), dtype=bool)  # first of each run of equal keys
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    starts = starts.nonzero()[0]
    return off, (keys[starts], np.add.reduceat(np.concatenate((ca, cb))[order], starts))


def _at_ones(letter: Callable[[int], str], f: int, l: int) -> int:
    """The value of the word (f, l) with every vertex at 1."""
    x, y = 1, 1
    for i in range(f + 1, l):
        x, y = (x, x + y) if letter(i) == "x" else (x + y, y)
    return x + y


def _fields(names: Iterable[str], letters: int) -> tuple[tuple[str, ...], list, int, dict]:
    """The one layout of packed keys for words of up to ``letters`` letters:
    the sorted universe of names, their field shifts, the field width and
    each name's packed key.

    universe[0] takes the most significant field, so integer order on
    packed keys is lexicographic order on exponent tuples, and terms whose
    keys leave ``_over_monomial`` in increasing order leave ``_unpacked``
    in lexicographic order.
    """
    universe = tuple(sorted(set(names), key=_var_key))
    width = letters.bit_length()
    shifts = [(len(universe) - 1 - pos) * width for pos in range(len(universe))]
    return universe, shifts, width, {v: 1 << shift for v, shift in zip(universe, shifts)}


def _over_monomial(universe: tuple, shifts: list, width: int, entry: tuple, den: int) -> LaurentPoly:
    """The value of entry (either form) divided by the monomial whose packed
    key is den, unpacked once into its canonical LaurentPoly."""
    off, terms = entry
    if isinstance(terms, dict):
        keys, coeffs = [k + off for k in terms], terms.values()
    else:
        keys, coeffs = terms[0] + off, terms[1].tolist()
    mask = (1 << width) - 1
    lows = [-((den >> shift) & mask) for shift in shifts]
    return _unpacked(universe, keys, coeffs, lows, shifts, [width] * len(universe))


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
    is x + a_n y (a_n x + y with ``col_swap``). That is one entry sum per
    letter and one at the close, on the packed entries of the nested kernel
    below; a constant vertex is a zero shift, with no field and no factor
    in the denominator.
    """
    n = len(letters)
    if n < 2:
        raise ValueError("word %r needs at least two letters" % (letters,))
    if len(names) != n + 1:
        raise ValueError("need one more name than letters")
    universe, shifts, width, key = _fields((v for v in names if v is not None), n)
    key[None] = 0
    units = [key[v] for v in names]
    x, y = (0, {0: 1}), (units[0], {0: 1})
    for i in range(1, n - 1):
        a, b = units[i], units[i + 1]
        if letters[i] == "x":
            x, y = _shifted(x, a), _plus(x, _shifted(y, b))
        else:
            x, y = _plus(_shifted(x, b), y), _shifted(y, a)
    last = units[n]
    value = _plus(_shifted(x, last), y) if col_swap else _plus(x, _shifted(y, last))
    return _over_monomial(universe, shifts, width, value, sum(units[1:n]))


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
    of the new letters at each end. A step multiplies entries by one
    variable or adds two of them, so P's entries live over packed exponent
    keys (one field per name, wide enough for the longest word's degree,
    laid out by ``_fields``) with natural coefficients and no division. The
    monomial denominator is subtracted while each value is unpacked, once,
    into its canonical LaurentPoly.

    An entry has one of two forms, both (offset, terms) with every packed
    key offset + key, so a product by a variable is an offset move:

    - a dict from key to coefficient, summed by ``_plus``;
    - from the span at which the largest of P's four entries has
      ``_ARRAY_TERMS`` terms on, sorted int64 keys with their int64
      coefficients, summed by ``_array_plus`` (one concatenation, one
      stable sort of two sorted runs, one ``reduceat``). The four entries
      are converted once, and the values leave with their terms in
      lexicographic order.

    The int64 form is exact, and is used, only when two bounds decided
    before the walk hold; outside them the dicts run throughout:

    - (distinct names) * width <= 62 bits: every exponent of a term of an
      entry or a value is at most the longest word's letter count, below
      2^width, so a packed key is below 2^62, and so is every key and
      offset of ``_array_plus``;
    - the last span's value at all ones (one integer walk over its
      letters) is below 2^62: coefficients are natural, so each is at most
      the coefficient sum of its entry, which is that entry at all ones. At
      all ones every step matrix is natural with ones on its diagonal, so
      P grows entrywise from span to span, and every entry, sum of entries
      and value formed along the way is at most the last value at all ones.
      Then no coefficient, and no partial sum of ``reduceat``, leaves int64.
    """
    spans = list(spans)
    if not spans:
        return []
    universe, shifts, width, key = _fields(names, max(l - f + 1 for f, l in spans))
    unit = [key[v] for v in names]
    exact = len(universe) * width <= 62 and _at_ones(letter, *spans[-1]) < 1 << 62

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
        out.append(_over_monomial(universe, shifts, width, value, den))
    return out


# ----------------------------------------------------------------------
# the minor check

# Below this many term pairs the minor check is one dict pass; from it on,
# while the int64 bounds hold, one sort of int64 words. Both cost the same at
# 96-127 pairs on symbolic-tiles' minors, seeds 1 and 24 (tools/time_kernel.py).
_DICT_PAIRS = 128
# The int64 pass holds 24 bytes per pair at its peak (numpy buffers, read
# with tracemalloc): about 100 MB at this cap.
_MAX_PAIRS = 1 << 22


def products_differ_by_one(p: Scalar, q: Scalar, r: Scalar, s: Scalar) -> bool:
    """Exact check that p*q - r*s == 1.

    Each exponent vector e packs into one integer, the sum of e_v << (w * i_v)
    over its variables v, with i_v the position of v among the variables of
    all four operands and one signed field width w = (2 * emax).bit_length()
    + 1 for all of them (emax the largest |exponent|). The map is linear, so
    a term pair's key is the sum of its two keys, and the zero vector packs
    to 0. It is injective on sums of two operand vectors: each component of
    such a sum lies in [-2 * emax, 2 * emax], so two of them differ by less
    than 2^w per component, and sum d_v 2^(w * i_v) with every |d_v| < 2^w is
    0 only when every d_v is. Every pair of p*q and of -r*s is summed at its
    key, 1 is subtracted at key 0, and the check holds when every sum is 0.

    From ``_DICT_PAIRS`` pairs on, an int64 pass comes first: the exponents
    of all four operands go into one int64 array and their coefficients into
    another, and emax and cmax (the largest |coefficient|, at least 1) are
    read off each array's max() and min() as exact Python integers, so -2^63
    counts as 2^63. Each pair is one int64 word (key << cbits) + (c1*c2 +
    cmax^2); one in-place sort puts equal keys together, and ``reduceat``
    sums each run of them. Below ``_DICT_PAIRS`` pairs, and whenever a
    value does not fit int64, the check is one dict pass over Python
    integers, which is exact for every input. So it is outside either of
    the two bounds under which the int64 pass is exact:

    - kbits + cbits <= 62, with kbits = w * n for n variables and cbits =
      (2 * cmax^2).bit_length(): a key lies strictly between -2^(kbits-1)
      and 2^(kbits-1), and a biased coefficient in [0, 2^cbits), so every
      word fits in an int64 and words sort by key first. A run of one key
      holds at most 2^(kbits+1) + 1 words, the subtracted 1 included (each
      product has at most one pair per first exponent vector in the box
      [-emax, emax]^n, and 2 * emax + 1 <= 2^(w-1)), each of size at most
      cmax^2 < 2^(cbits-1), so its partial sums stay below 2^63;
    - pairs <= ``_MAX_PAIRS``, which caps the pass's memory.
    """
    polys = [LaurentPoly.coerce(v) for v in (p, q, r, s)]
    pos = {v: i for i, v in enumerate(dict.fromkeys(chain.from_iterable(f._vars for f in polys)))}
    tp, tq, tr, ts = (f._terms for f in polys)
    pairs = len(tp) * len(tq) + len(tr) * len(ts)
    verdict = _differ_by_one_int64(polys, pos) if _DICT_PAIRS <= pairs <= _MAX_PAIRS else None
    return _differ_by_one_dicts(polys, pos) if verdict is None else verdict


def _differ_by_one_dicts(polys: list, pos: dict) -> bool:
    """The dict pass of ``products_differ_by_one``, exact for every input."""
    tp, tq, tr, ts = (f._terms for f in polys)
    emax = max(map(abs, chain.from_iterable(chain.from_iterable(f._terms for f in polys))),
               default=0)
    w = (2 * emax).bit_length() + 1
    shifts = [[w * pos[v] for v in f._vars] for f in polys]
    acc = {0: -1}
    get = acc.get
    kp, kq, kr, ks = ([sum(map(lshift, e, sh)) for e in t] for t, sh in zip((tp, tq, tr, ts), shifts))
    for k1s, c1s, k2s, c2s in ((kp, tp.values(), kq, tq.values()),
                               (kr, map(neg, tr.values()), ks, ts.values())):
        for k1, c1 in zip(k1s, c1s):
            for k2, c2 in zip(k2s, c2s):
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    return not any(acc.values())


def _differ_by_one_int64(polys: list, pos: dict) -> Optional[bool]:
    """The int64 pass of ``products_differ_by_one``, or None when a value
    leaves int64 or the bounds fail.

    The keys are the same packing shifted left by cbits, taken as one int64
    product of each operand's exponent rows with its field weights
    2^(w * i_v + cbits); within the bounds no key, and no partial sum of
    one, leaves the int64 range.
    """
    import numpy as np  # here, so that importing artifact does not load numpy

    sizes = [len(f._terms) for f in polys]
    try:
        exps = np.fromiter(chain.from_iterable(chain.from_iterable(f._terms for f in polys)),
                           dtype=np.int64, count=sum(n * len(f._vars) for n, f in zip(sizes, polys)))
        coeffs = np.fromiter(chain.from_iterable(f._terms.values() for f in polys),
                             dtype=np.int64, count=sum(sizes))
    except OverflowError:
        return None
    emax = max(int(exps.max(initial=0)), -int(exps.min(initial=0)))
    bias = max(int(coeffs.max(initial=1)), -int(coeffs.min(initial=-1))) ** 2  # cmax^2
    w, cbits = (2 * emax).bit_length() + 1, (2 * bias).bit_length()
    if w * len(pos) + cbits > 62:
        return None
    packed, at, ct = [], 0, 0
    for f, n in zip(polys, sizes):
        m = n * len(f._vars)
        weights = np.array([1 << w * pos[v] + cbits for v in f._vars], dtype=np.int64)
        packed.append((exps[at:at + m].reshape(n, len(f._vars)) @ weights, coeffs[ct:ct + n]))
        at, ct = at + m, ct + n
    (kp, cp), (kq, cq), (kr, cr), (ks, cs) = packed
    n_pq = len(kp) * len(kq)
    words = np.empty(n_pq + len(kr) * len(ks) + 1, dtype=np.int64)
    words[-1] = bias - 1  # the 1 subtracted at key 0
    for k1s, c1s, k2s, c2s, out in ((kp, cp, kq, cq, words[:n_pq]),
                                    (kr, -cr, ks, cs, words[n_pq:-1])):
        out = out.reshape(len(k1s), len(k2s))
        np.add.outer(k1s, k2s, out=out)
        prods = np.multiply.outer(c1s, c2s)
        prods += bias
        out += prods
        del prods  # freed before the next block and the sort: the memory peak
    words.sort()
    keys = words >> cbits
    starts = np.empty(len(words), dtype=bool)  # first of each run of equal keys
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    del keys
    starts = starts.nonzero()[0]
    words &= (1 << cbits) - 1
    words -= bias
    return not np.add.reduceat(words, starts).any()
