"""Exact minimal linear recurrences of integer sequences.

find_min_recurrence fits the smallest-order recurrence over the rationals
that reproduces a whole prefix, by one fraction-free Berlekamp-Massey pass
in integer arithmetic (Massey 1969); no floats anywhere. verify_recurrence
checks a recurrence against a prefix in integers, and human_form renders
it. Each fit is certified once at every position n >= k, its order: the
pass found its final polynomial F zero at each step after its last update
`changed`, and find_min_recurrence evaluates F at k..changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import index, mul
from typing import Optional, Sequence


class PrefixTooShort(ValueError):
    """Too few terms to certify minimality at the requested order."""


@dataclass(frozen=True)
class LinearRecurrence:
    """u[n+k] = coeffs[0] u[n+k-1] + ... + coeffs[k-1] u[n]."""

    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs)


def _connection_polynomial(seq: list[int], max_order: int) -> Optional[tuple[list[int], int]]:
    """Berlekamp-Massey over Z: ([c_0..c_L], changed), sum_i c_i seq[n-i] = 0 for n >= L.

    Where the field algorithm subtracts (d/b) x^m B from C, this scales C
    by b instead and then divides out the content, so the entries stay
    small integers. Returns None as soon as L passes max_order; pads to
    length max(L, 1) + 1, so an all-zero sequence gives [1, 0].

    The discrepancy at step n pairs conn with seq[n], seq[n-1], ..., read
    from the reversed sequence, and conn has at most n + 1 entries there,
    so the window never reaches before seq[0]. prev is conn as it stood
    at the start of some step m < n (at most m + 1 entries), or the
    initial [1] (m = -1), and shift = n - m; so an update at step n is at
    most len(prev) + shift <= n + 2 long, and is first read at step n + 1.

    changed is the last step with a nonzero discrepancy (-1 if none): each
    later step evaluated the returned polynomial, whole by that bound, at n.
    """
    rev = seq[::-1]
    conn, prev = [1], [1]
    length, shift, last, changed = 0, 1, 1, -1
    for n in range(len(seq)):
        start = len(seq) - 1 - n  # rev[start] is seq[n]
        d = sum(map(mul, conn, rev[start:start + len(conn)]))
        if d == 0:
            shift += 1
            continue
        changed = n
        old = conn
        conn = [last * c for c in conn] + [0] * (len(prev) + shift - len(conn))
        for i, x in enumerate(prev):
            conn[i + shift] -= d * x
        g = gcd(*conn)
        conn = [c // g for c in conn]
        if 2 * length <= n:
            length, prev, last, shift = n + 1 - length, old, d, 1
            if length > max_order:
                return None
        else:
            shift += 1
    return conn + [0] * (max(length, 1) + 1 - len(conn)), changed


def find_min_recurrence(prefix: Sequence[int], max_order: int) -> Optional[LinearRecurrence]:
    """Smallest-order exact recurrence fitting the whole integer prefix, if any.

    Berlekamp-Massey gives the linear complexity L; orders above max_order
    give None. Minimality is certified on the given window only: with
    N >= 2L terms the shortest recurrence is unique, and N >= 2*max_order+4
    makes that hold for every order reported. An all-zero prefix (L = 0)
    gives order 1 with coefficient 0.

    The pass found its final polynomial F zero at each step after
    `changed`, and here F is evaluated at k..changed, k the order, so each
    n = k..N-1 is checked once; a miss raises RuntimeError.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if len(prefix) < 2 * max_order + 4:
        raise PrefixTooShort(
            "need at least %d terms to certify order %d, got %d"
            % (2 * max_order + 4, max_order, len(prefix))
        )
    seq = [index(v) for v in prefix]
    fit = _connection_polynomial(seq, max_order)
    if fit is None:
        return None
    conn, changed = fit
    k = len(conn) - 1
    back = conn[::-1]  # back[t] multiplies seq[n - k + t]
    if any(sum(map(mul, back, seq[n - k:n + 1])) for n in range(k, changed + 1)):
        raise RuntimeError("Berlekamp-Massey result misses the prefix")
    return LinearRecurrence(coeffs=tuple(Fraction(-c, conn[0]) for c in conn[1:]))


def verify_recurrence(prefix: Sequence[int], rec: LinearRecurrence) -> bool:
    """Check D u[n+k] = sum_j (D c_j) u[n+k-1-j] in integers, D the lcm of denominators."""
    k = rec.order
    if len(prefix) <= k:
        raise ValueError("prefix no longer than the recurrence order")
    den = lcm(*(c.denominator for c in rec.coeffs))
    scaled = [c.numerator * (den // c.denominator) for c in rec.coeffs]
    scaled.reverse()  # scaled[t] now multiplies u[n+t]
    seq = [index(v) for v in prefix]
    return all(den * seq[n + k] == sum(map(mul, scaled, seq[n:n + k]))
               for n in range(len(seq) - k))


def human_form(rec: LinearRecurrence) -> str:
    """Render like `u[n+2] = 3 u[n+1] - u[n]`."""
    k = rec.order
    parts: list[str] = []
    for j, c in enumerate(rec.coeffs):
        if c == 0:
            continue
        shift = k - 1 - j
        term = "u[n+%d]" % shift if shift else "u[n]"
        mag = abs(c)
        if mag != 1:
            term = "%s %s" % (mag, term)
        parts.append(("- " if c < 0 else "+ ") + term)
    if not parts:
        rhs = "0"
    else:
        rhs = " ".join(parts)
        rhs = rhs[2:] if rhs.startswith("+ ") else "-" + rhs[2:]
    return "u[n+%d] = %s" % (k, rhs)
