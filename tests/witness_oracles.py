"""N-rational witnesses for tiling rays, kept as a far-term oracle of ray_values.

nrational_witness turns a ray on an SL2-tiling into matrix data with
natural entries: per residue class i mod q the cut words pump as
u'^n v u^n, so the values are lam * M(u')^n * M(v) * M(u)^n * gamma.
A short irregular stretch near the frontier's aperiodic middle is carried
by a nilpotent delay line glued to the pumping matrices, keeping every
entry a natural number. The two-power form converts to a single matrix
power by tensoring, which also gives Hadamard products of sequences.

This is the certificate behind the paper's N-rationality of the frise
sequences. No library command calls it yet, so it lives here: it reaches
far terms of a ray by powers of the pump words' matrices, with no prefix
pairing, which makes it an independent check of tilings.tile_values many
tail blocks out from the frontier's middle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Sequence

from artifact.tilings import Embedding, Point, ray_values, step_product, tile_values, word_span

Mat = tuple[tuple[int, ...], ...]
Vec = tuple[int, ...]


class NotUltimatelyPeriodic(ValueError):
    """The frontier does not settle into periodic tails."""


class BadDirection(ValueError):
    """Ray directions must satisfy a*b <= 0."""


class NonNaturalEntry(ArithmeticError):
    """A witness matrix or vector has an entry that is not a natural number."""


class InconsistentWitness(ArithmeticError):
    """A witness disagrees with the frontier words or ray values it models."""


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

    def values(self, count: int) -> list[int]:
        """Terms 0..count-1 in one pass: each class's two matrix powers
        advance one step a term, where value(n) raises them from scratch."""
        out = [0] * count
        for i, r in enumerate(self.residues):
            row, col = r.lam, r.gamma
            for n in range(i, count, self.q):
                out[n] = sum(x * g for x, g in zip(_vec_mat(row, r.core), col))
                row, col = _vec_mat(row, r.mprime), _mat_vec(r.m, col)
        return out


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

    # A class pumps from its first point whose word starts in the left tail
    # (index < 0) and ends in the right tail (index >= len(center)): from
    # there, one step of the class moves each end by whole tail blocks. An
    # end at index 0 or len(center) - 1 lies outside its tail, so the step
    # from it need not be a whole number of blocks.
    residues = []
    for i in range(q):
        base = None
        for n in range(256):
            side, first, last = e.locate(point(i + n * q))
            if side == "below" and (b == 0 or first < 0) and (a == 0 or last >= lc):
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
    for idx, (got, want) in enumerate(zip(witness.values(terms), expected)):
        if got != want:
            raise InconsistentWitness("term %d: witness gives %d, the ray %d" % (idx, got, want))
    return witness


def tensor_hadamard(w1: LinearRep, w2: LinearRep) -> LinearRep:
    """Witness for the termwise product of two single-power sequences."""
    lam = tuple(x * y for x in w1.lam for y in w2.lam)
    gamma = tuple(x * y for x in w1.gamma for y in w2.gamma)
    return LinearRep(lam=lam, m=_kron(w1.m, w2.m), gamma=gamma)
