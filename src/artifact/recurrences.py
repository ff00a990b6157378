"""Exact linear recurrences and natural matrix representations for rays.

find_min_recurrence fits the smallest-order recurrence over the rationals
that reproduces a whole prefix, by one fraction-free Berlekamp-Massey pass
in integer arithmetic (Massey 1969); no floats anywhere.

nrational_witness turns a ray on an SL2-tiling into matrix data with
natural entries: per residue class i mod q the cut words pump as
u'^n v u^n, so the values are lam * M(u')^n * M(v) * M(u)^n * gamma.
A short irregular stretch near the frontier's aperiodic middle is carried
by a nilpotent delay line glued to the pumping matrices, keeping every
entry a natural number. The two-power form converts to a single matrix
power by tensoring, which also gives Hadamard products of sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import index, mul
from typing import Optional, Sequence

from .tilings import Embedding, Point, ray_values, step_product, tile_values, word_span

Mat = tuple[tuple[int, ...], ...]
Vec = tuple[int, ...]


class PrefixTooShort(ValueError):
    """Too few terms to certify minimality at the requested order."""


class NotUltimatelyPeriodic(ValueError):
    """The frontier does not settle into periodic tails."""


class BadDirection(ValueError):
    """Ray directions must satisfy a*b <= 0."""


class NonNaturalEntry(ArithmeticError):
    """A witness matrix or vector has an entry that is not a natural number."""


class InconsistentWitness(ArithmeticError):
    """A witness disagrees with the frontier words or ray values it models."""


# ----------------------------------------------------------------------
# minimal linear recurrences over Q


@dataclass(frozen=True)
class LinearRecurrence:
    """u[n+k] = coeffs[0] u[n+k-1] + ... + coeffs[k-1] u[n]."""

    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs)


def _connection_polynomial(seq: list[int], max_order: int) -> Optional[list[int]]:
    """Berlekamp-Massey over Z: [c_0..c_L] with sum_i c_i seq[n-i] = 0 for n >= L.

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
    """
    rev = seq[::-1]
    conn, prev = [1], [1]
    length, shift, last = 0, 1, 1
    for n in range(len(seq)):
        start = len(seq) - 1 - n  # rev[start] is seq[n]
        d = sum(map(mul, conn, rev[start:start + len(conn)]))
        if d == 0:
            shift += 1
            continue
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
    return conn + [0] * (max(length, 1) + 1 - len(conn))


def find_min_recurrence(prefix: Sequence[int], max_order: int) -> Optional[LinearRecurrence]:
    """Smallest-order exact recurrence fitting the whole integer prefix, if any.

    Berlekamp-Massey gives the linear complexity L; orders above max_order
    give None. Minimality is certified on the given window only: with
    N >= 2L terms the shortest recurrence is unique, and N >= 2*max_order+4
    makes that hold for every order reported. An all-zero prefix (L = 0)
    gives order 1 with coefficient 0.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if len(prefix) < 2 * max_order + 4:
        raise PrefixTooShort(
            "need at least %d terms to certify order %d, got %d"
            % (2 * max_order + 4, max_order, len(prefix))
        )
    seq = [index(v) for v in prefix]
    conn = _connection_polynomial(seq, max_order)
    if conn is None:
        return None
    rec = LinearRecurrence(coeffs=tuple(Fraction(-c, conn[0]) for c in conn[1:]))
    if not verify_recurrence(seq, rec):
        raise RuntimeError("Berlekamp-Massey result misses the prefix")
    return rec


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


# ----------------------------------------------------------------------
# integer matrix scaffolding


def _vec_mat(v: Vec, m: Mat) -> Vec:
    return tuple(sum(v[t] * m[t][j] for t in range(len(v))) for j in range(len(m[0])))


def _mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(sum(m[i][t] * v[t] for t in range(len(v))) for i in range(len(m)))


def _kron(a: Mat, b: Mat) -> Mat:
    return tuple(
        tuple(a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0])))
        for i in range(len(a))
        for k in range(len(b))
    )


def _check_natural(*mats: Sequence) -> None:
    for m in mats:
        rows = m if m and isinstance(m[0], tuple) else (m,)
        for row in rows:
            for x in row:
                if not (isinstance(x, int) and x >= 0):
                    raise NonNaturalEntry("entry %r is not natural" % (x,))


# ----------------------------------------------------------------------
# N-rational witnesses for tiling rays


@dataclass(frozen=True)
class LinearRep:
    """Single-power form a_n = lam * m^n * gamma."""

    lam: Vec
    m: Mat
    gamma: Vec

    def value(self, n: int) -> int:
        row = self.lam
        for _ in range(n):
            row = _vec_mat(row, self.m)
        return sum(a * g for a, g in zip(row, self.gamma))


@dataclass(frozen=True)
class ResidueWitness:
    """Two-power form a_n = lam * mprime^n * core * m^n * gamma."""

    lam: Vec
    mprime: Mat
    core: Mat
    m: Mat
    gamma: Vec

    def value(self, n: int) -> int:
        row = self.lam
        for _ in range(n):
            row = _vec_mat(row, self.mprime)
        col = self.gamma
        for _ in range(n):
            col = _mat_vec(self.m, col)
        return sum(a * g for a, g in zip(_vec_mat(row, self.core), col))

    def to_linear(self) -> LinearRep:
        """Tensor the two powers into one: vec(M' X M) = (M' (x) M^T) vec(X)."""
        mt = tuple(zip(*self.m))
        lam = tuple(a * g for a in self.lam for g in self.gamma)
        gamma = tuple(x for row in self.core for x in row)
        return LinearRep(lam=lam, m=_kron(self.mprime, mt), gamma=gamma)


@dataclass(frozen=True)
class NRationalWitness:
    origin: Point
    direction: Point
    q: int
    residues: tuple[ResidueWitness, ...]

    def value(self, index: int) -> int:
        return self.residues[index % self.q].value(index // self.q)


def _delay_line(steady: Mat, boundary: Vec, tape: int, left: bool) -> Mat:
    """Nilpotent tape of the given length feeding into the steady block."""
    d = tape + len(steady)
    rows = [[0] * d for _ in range(d)]
    for t in range(tape - 1):
        if left:
            rows[t][t + 1] = 1
        else:
            rows[t + 1][t] = 1
    for s, val in enumerate(boundary):
        if left:
            rows[tape - 1][tape + s] = val
        else:
            rows[tape + s][tape - 1] = val
    for i, row in enumerate(steady):
        for j, val in enumerate(row):
            rows[tape + i][tape + j] = val
    return tuple(tuple(r) for r in rows)


def nrational_witness(e: Embedding, origin: Point, direction: Point) -> NRationalWitness:
    """Natural matrix representation of n -> t(origin + n*direction).

    The frontier's periodic tails make the cut words of each residue class
    pump as u'^n v u^n once the class has left the aperiodic middle; the
    finitely many earlier values ride on a delay line.
    """
    a, b = direction
    if (a, b) == (0, 0) or a * b > 0:
        raise BadDirection("direction (%d,%d) must be nonzero with a*b <= 0" % (a, b))
    if a < 0 or b > 0:
        inner = nrational_witness(e.mirror(), (origin[1], origin[0]), (b, a))
        return NRationalWitness(origin, direction, inner.q, inner.residues)

    fr = e.frontier
    lc = len(fr.center)
    left_rise = fr.left.count("y")
    right_run = fr.right.count("x")
    parts = []
    if b:
        parts.append(left_rise // gcd(left_rise, -b))
    if a:
        parts.append(right_run // gcd(right_run, a))
    q = lcm(*parts) if parts else 1

    def point(idx: int) -> Point:
        return (origin[0] + idx * a, origin[1] + idx * b)

    residues = []
    for i in range(q):
        base = None
        for n in range(256):
            side, first, last = e.locate(point(i + n * q))
            if side == "below" and (b == 0 or first <= 0) and (a == 0 or last >= lc - 1):
                base = n
                break
        if base is None:
            raise NotUltimatelyPeriodic(
                "residue %d of the ray never reaches the periodic tails" % i
            )
        tape_vals = tile_values(e, [point(i + n * q) for n in range(base)])

        f0, l0 = word_span(e, point(i + base * q))
        f1, l1 = word_span(e, point(i + (base + 1) * q))
        pump_left = fr.factor(f1, f0)
        pump_right = fr.factor(l0 + 1, l1 + 1)
        core_word = fr.factor(f0, l0 + 1)
        for extra in (1, 2):
            fn, ln = word_span(e, point(i + (base + extra) * q))
            grown = fr.factor(fn, ln + 1)
            if grown != pump_left * extra + core_word + pump_right * extra:
                raise InconsistentWitness(
                    "residue %d: cut word %r does not pump as u'^n v u^n" % (i, grown))

        mprime, m = step_product(pump_left), step_product(pump_right)
        core = step_product(core_word)
        lam: Vec = (0, 1)
        gamma: Vec = (0, 1)
        if base:
            mprime = _delay_line(mprime, (0, 1), base, left=True)
            m = _delay_line(m, (0, 1), base, left=False)
            d = base + 2
            core_rows = [[0] * d for _ in range(d)]
            for t, val in enumerate(tape_vals):
                core_rows[t][t] = val
            for r in range(2):
                for c in range(2):
                    core_rows[base + r][base + c] = core[r][c]
            core = tuple(tuple(r) for r in core_rows)
            lam = (1,) + (0,) * (d - 1)
            gamma = (1,) + (0,) * (d - 1)
        _check_natural(lam, mprime, core, m, gamma)
        residues.append(ResidueWitness(lam, mprime, core, m, gamma))

    witness = NRationalWitness(origin, direction, q, tuple(residues))
    deepest = max(len(r.lam) - 2 for r in residues)
    # at least 16 terms, and three per residue class past the longest delay line
    terms = max(16, (deepest + 3) * q)
    expected = ray_values(e, origin, direction, terms).values
    for idx, want in enumerate(expected):
        got = witness.value(idx)
        if got != want:
            raise InconsistentWitness("term %d: witness gives %d, the ray %d" % (idx, got, want))
    return witness


def tensor_hadamard(w1: LinearRep, w2: LinearRep) -> LinearRep:
    """Witness for the termwise product of two single-power sequences."""
    lam = tuple(x * y for x in w1.lam for y in w2.lam)
    gamma = tuple(x * y for x in w1.gamma for y in w2.gamma)
    return LinearRep(lam=lam, m=_kron(w1.m, w2.m), gamma=gamma)
