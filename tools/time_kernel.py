"""Best-of-five seconds of the two word kernels' callers and of the division route.

    python3 tools/time_kernel.py

Neither word kernel is a traced span, so a traced benchmark run shows
their time inside the span of their caller. The ray kernel
(``laurent.nested_word_values``, one 2x2 product extended at both ends)
shows in ``frises.extend_vars.self_s``. Its entries are dicts from packed
key to coefficient until one of them reaches ``laurent._ARRAY_TERMS``
terms, and sorted int64 arrays from there on (while its int64 bounds
hold); this command times it through:

- ``frise_extend_vars`` on Atilde3 at 14 steps and on the cycle quiver of
  ``xxxy`` at 10 steps, whose entries pass the switch;
- ``frise_extend_vars`` on Atilde5 at 12 steps, whose values are so
  large that moving them out of the int64 form (``laurent._over_monomial``:
  one constant added to each key, then one ``tolist``) is a large part of
  the kernel;
- ``frise_extend_vars`` on the cycle quiver of ``xxy`` at 10 steps, whose
  entries pass it only on the last spans of its rays;
- ``frise_extend_vars`` on Atilde7 at 10 steps, whose rays carry 8 names:
  their layouts pass 62 bits, so the walk narrows its fields to stay in
  int64 and ``laurent._over_monomial`` repacks each value to its own
  width with numpy.

The single-word walk (``laurent.bordered_word_value``, a row vector of two
entries) shows in ``cluster.tile_vars.self_s``; this command times it
through the 4,608 ``variable_tile_value`` calls of one symbolic-tiles pass
of perfbench at seed 1 (72 windows of 8x8 cells). The frontiers, windows
and embeddings are built before the clock starts.

Symbolic frises of diagrams that are not cycles take the division route
instead: every cell is one exact Laurent division of ring products
(``LaurentPoly.__mul__`` and ``exact_div`` over packed exponent keys). In
the benchmark only the A1-A5 ops of symbolic-frise run it, 54 polynomial
divisions a pass, a few percent of the pass, so three more lines time it
on larger diagrams:

- ``frise_extend_vars`` on Btilde3 at 6 steps (a valued edge, so powers);
- ``frise_extend_vars`` on Dtilde4 at 8 steps;
- ``frise_extend_vars`` on E6 at 6 steps.

The relation check of frises (``frises.verify_recursion``: one
``products_differ_by_one`` call a cell, with a ring product only of
relations of three or more powers) runs in no workload either. Two lines
time it on the default quivers of the 51 catalog diagrams of rank 1..6,
the tables built before the clock starts: their symbolic frises at 4
steps, and their integer frises at 40 steps (four ints, so the integer
route of ``products_differ_by_one``).

The cross construction sends every cell through the single-word walk,
and no benchmark workload runs it:

- ``cross_construct`` on the 12-letter symbolic seed
  ``aybycxdxexfxgyhyiyjxkylxm``;
- ``frieze_period`` of the all-ones seed ``yyxxxxyyy`` over 32 figures,
  its pattern built before the clock starts;
- ``cross_construct`` and ``frieze_period`` (4 figures, as ``frieze``
  runs them) on the 17-letter symbolic seed
  ``aybycxdxexfxgyhyiyjxkylxmxnyoypxqxr``.

The cluster variables (``cluster.enumerate_cluster_vars``: a symbolic
frise table or one walk over the Kronecker matrix powers, then
``laurent.sorted_distinct``, which orders and deduplicates on packed keys)
get two lines:

- ``enumerate_cluster_vars`` on Atilde3 at bound 12, the size of verify's
  cluster-vars check;
- ``enumerate_cluster_vars`` on kronecker at bound 32, whose values mix
  fields of 8 and 16 bits over one variable tuple.

The minor check has two lines of its own, on the 3,528
``products_differ_by_one`` calls of one symbolic-tiles pass at seed 1 (49
minors of each window), with every tile value built before the clock
starts: the minors of fewer than ``laurent._DICT_PAIRS`` term pairs (the
dict pass) and the rest (the int64 pass, where its bounds hold). A table
after the lines places that threshold: for each band of 32 to 511 pairs,
the microseconds a minor of its dict pass and of its int64 pass, both run
on every minor of the band. Each pass gets the operands as the check gives
them (``laurent._minor_operands``: the term dicts and the moves into one
layout) and moves the keys itself, and the int64 pass takes the route the
check takes (the keys less their bias as the key parts where they fit,
else repacked exponents). The bands and passes take turns within each of
15 rounds in one process, and each keeps its best round, so load that
comes and goes during the run falls on both passes alike.

The probe gets five lines, on the inputs of one probe pass of perfbench:
the default quivers of the 51 catalog diagrams of rank 1..6, their frises
at 60 steps and the 219 rows of those frises. The first is the probe op
end to end, the other four its layers:

- ``probe_conjecture`` of the 51 quivers at 60 steps and max order 16;
- ``frise_extend`` of the 51 quivers at 60 steps;
- ``find_min_recurrence`` of the 219 rows at max order 16;
- ``detect_period`` of the 51 frises (a ``WindowTooShort`` counts as a
  result, as in ``probe_conjecture``);
- ``classify`` of the 51 Cartan matrices.

Classification at the vertex cap gets two lines of its own, with the
Cartan matrices built before the clock starts: ``classify`` on Dtilde511
and on A512 (512 vertices each), one tree walk and one catalog scan. A
third line times the input gate of ``--quiver-json`` at the cap:
``quiver_from_json`` on the 512-vertex path, the JSON object built before
the clock starts.

Integer tiles (``tilings.tile_values``: side and word span from one
``column_run``/``row_run`` per distinct coordinate, then one letter walk
per side of the frontier whose prefix products are paired per point) get
two lines, on the inputs of one integer-tiles pass of perfbench at seed 1,
with every embedding built before the clock starts:

- ``tile_grid`` over its 48 windows of 12x12 cells;
- ``ray_values`` over the rays of ``perfbench/rays.json``.

Each line is the best of five runs in one process. Run from the root of a
checkout; the library is imported from ./src. ``--seed N`` draws the
symbolic-tiles and integer-tiles inputs at seed N instead of 1.

    python3 tools/time_kernel.py [--seed N]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from artifact import (  # noqa: E402
    cluster, correspondence, diagrams, frises, laurent, recurrences, tilings)
from perfbench import workloads  # noqa: E402

RUNS = 5
BAND_ROUNDS = 15
BAND_EDGES = (32, 64, 96, 128, 192, 256, 384, 512)
CROSS_SEED = "aybycxdxexfxgyhyiyjxkylxm"
LONG_CROSS_SEED = "aybycxdxexfxgyhyiyjxkylxmxnyoypxqxr"


def best(fn) -> float:
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def tile_calls(seed: int) -> list:
    """(embedding, names, point) of every tile of one symbolic-tiles pass,
    drawn as perfbench's workload draws its windows."""
    rng = random.Random(seed)
    calls = []
    for i in range(workloads.SYMBOLIC_WINDOWS["full"]):
        fr, nv = workloads.random_frontier(rng), 3 + i % 6
        u0, v0 = workloads.tight_window(fr)
        e = tilings.Embedding(fr)

        def names(k: int, nv: int = nv) -> str:
            return "u%d" % (k % nv + 1)

        calls += [(e, names, (u, v)) for u in range(u0, u0 + workloads.SIDE)
                  for v in range(v0, v0 + workloads.SIDE)]
    return calls


def minor_calls(calls: list) -> list:
    """(p, q, r, s) of every 2x2 minor of the windows of tile_calls, as
    perfbench's workload passes them to products_differ_by_one."""
    minors = []
    for start in range(0, len(calls), workloads.SIDE ** 2):
        window = calls[start:start + workloads.SIDE ** 2]
        grid = {c[2]: cluster.variable_tile_value(*c) for c in window}
        (u0, v0), side = window[0][2], range(workloads.SIDE - 1)
        minors += [(grid[(u0 + i, v0 + j + 1)], grid[(u0 + i + 1, v0 + j)],
                    grid[(u0 + i, v0 + j)], grid[(u0 + i + 1, v0 + j + 1)])
                   for i in side for j in side]
    return minors


def geometry_calls(seed: int) -> tuple[list, list]:
    """(embedding, region) of every window and (embedding, origin,
    direction, count) of every ray of one integer-tiles pass, drawn as
    perfbench's workload draws them."""
    rng = random.Random(seed)
    windows = []
    for _ in range(workloads.INTEGER_WINDOWS["full"]):
        fr = workloads.random_frontier(rng)
        du, dv = rng.randint(-10, 1), rng.randint(-10, 1)
        windows.append((tilings.Embedding(fr), (du, dv, du + 11, dv + 11)))
    rays = []
    for spec in workloads.load_rays("full"):
        e = tilings.Embedding(tilings.parse_frontier(spec["frontier"]))
        rays.append((e, e.vertex(spec["vertex"]), tuple(spec["direction"]), spec["count"]))
    return windows, rays


def period(fr: frises.Frise):
    try:
        return frises.detect_period(fr)
    except frises.WindowTooShort:
        return None


def probe_pass(quivers: list) -> list:
    """probe_conjecture of each quiver, as one probe pass of perfbench runs it."""
    return [correspondence.probe_conjecture(q, steps=workloads.PROBE_STEPS,
                                            max_order=workloads.PROBE_MAX_ORDER)
            for q in quivers]


def pairs(minor: tuple) -> int:
    p, q, r, s = minor
    return len(p.terms) * len(q.terms) + len(r.terms) * len(s.terms)


def pass_bands(minors: list) -> list:
    """(lo, hi, minors, dict µs, int64 µs) for each band [lo, hi) of
    BAND_EDGES: each pass's best of BAND_ROUNDS rounds over the band's
    minors, per minor, with the bands and passes taking turns in each round."""
    bands = []
    for lo, hi in zip(BAND_EDGES, BAND_EDGES[1:]):
        args = [laurent._minor_operands(*m) for m in minors if lo <= pairs(m) < hi]
        bands.append((lo, hi, args, [float("inf")] * 2))
    passes = (laurent._differ_by_one_dicts, laurent._differ_by_one_int64)
    for r in range(BAND_ROUNDS):
        for _, _, args, times in bands:
            for i in ((0, 1) if r % 2 else (1, 0)):
                start = time.perf_counter()
                for a in args:
                    passes[i](*a)
                times[i] = min(times[i], time.perf_counter() - start)
    return [(lo, hi, len(args), *(1e6 * t / max(len(args), 1) for t in times))
            for lo, hi, args, times in bands]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the symbolic-tiles and integer-tiles inputs")
    seed = parser.parse_args().seed
    atilde3, atilde5, atilde7 = (diagrams.parse_shorthand(name)
                                 for name in ("Atilde3", "Atilde5", "Atilde7"))
    xxxy = correspondence.cycle_quiver("xxxy")
    xxy = correspondence.cycle_quiver("xxy")
    calls = tile_calls(seed)
    minors = minor_calls(calls)
    small = [m for m in minors if pairs(m) < laurent._DICT_PAIRS]
    large = [m for m in minors if pairs(m) >= laurent._DICT_PAIRS]
    division = [(name, steps, diagrams.parse_shorthand(name))
                for name, steps in (("Btilde3", 6), ("Dtilde4", 8), ("E6", 6))]
    quivers = [diagrams.default_quiver(kind, m) for d in range(1, 7)
               for _, kind, m, _ in diagrams.catalog_members(d)]
    sweep = [frises.frise_extend_vars(q, 4) for q in quivers]
    int_sweep = [frises.frise_extend(q, 40) for q in quivers]
    probe_frises = [frises.frise_extend(q, workloads.PROBE_STEPS) for q in quivers]
    probe_rows = [fr.row(v) for fr in probe_frises for v in range(fr.quiver.cartan.d)]
    windows, rays = geometry_calls(seed)
    caps = [(name, diagrams.parse_shorthand(name).cartan) for name in ("Dtilde511", "A512")]
    ones_pattern = cluster.cross_construct(cluster.CrossSeed.ones("yyxxxxyyy"))
    path_json = {"vertices": 512, "edges": [{"from": i, "to": i + 1} for i in range(511)]}
    rows = [
        ("frise_extend_vars Atilde3, 14 steps",
         best(lambda: frises.frise_extend_vars(atilde3, 14))),
        ("frise_extend_vars Atilde5, 12 steps",
         best(lambda: frises.frise_extend_vars(atilde5, 12))),
        ("frise_extend_vars cycle xxxy, 10 steps",
         best(lambda: frises.frise_extend_vars(xxxy, 10))),
        ("frise_extend_vars cycle xxy, 10 steps",
         best(lambda: frises.frise_extend_vars(xxy, 10))),
        ("frise_extend_vars Atilde7, 10 steps",
         best(lambda: frises.frise_extend_vars(atilde7, 10))),
        ("variable_tile_value x %d, symbolic-tiles seed %d" % (len(calls), seed),
         best(lambda: [cluster.variable_tile_value(*c) for c in calls])),
    ] + [("products_differ_by_one x %d %s %d pairs, symbolic-tiles seed %d"
          % (len(group), side, laurent._DICT_PAIRS, seed),
          best(lambda: [laurent.products_differ_by_one(*m) for m in group]))
         for side, group in (("<", small), (">=", large))] + [
        ("frise_extend_vars %s, %d steps (division)" % (name, steps),
         best(lambda: frises.frise_extend_vars(q, steps))) for name, steps, q in division] + [
        ("verify_recursion x %d symbolic frises, 4 steps" % len(sweep),
         best(lambda: [frises.verify_recursion(fr) for fr in sweep])),
        ("verify_recursion x %d integer frises, 40 steps" % len(int_sweep),
         best(lambda: [frises.verify_recursion(fr) for fr in int_sweep])),
        ("cross_construct %s" % CROSS_SEED,
         best(lambda: cluster.cross_construct(cluster.CrossSeed.parse(CROSS_SEED)))),
        ("frieze_period yyxxxxyyy, 32 figures",
         best(lambda: cluster.frieze_period(ones_pattern, 32))),
        ("cross_construct + frieze_period %s" % LONG_CROSS_SEED,
         best(lambda: cluster.frieze_period(
             cluster.cross_construct(cluster.CrossSeed.parse(LONG_CROSS_SEED))))),
        ("enumerate_cluster_vars Atilde3, bound 12",
         best(lambda: cluster.enumerate_cluster_vars("Atilde3", bound=12))),
        ("enumerate_cluster_vars kronecker, bound 32",
         best(lambda: cluster.enumerate_cluster_vars("kronecker", 32))),
        ("probe_conjecture x %d quivers, %d steps, max order %d"
         % (len(quivers), workloads.PROBE_STEPS, workloads.PROBE_MAX_ORDER),
         best(lambda: probe_pass(quivers))),
        ("frise_extend x %d probe quivers, %d steps" % (len(quivers), workloads.PROBE_STEPS),
         best(lambda: [frises.frise_extend(q, workloads.PROBE_STEPS) for q in quivers])),
        ("find_min_recurrence x %d probe rows, max order %d"
         % (len(probe_rows), workloads.PROBE_MAX_ORDER),
         best(lambda: [recurrences.find_min_recurrence(row, workloads.PROBE_MAX_ORDER)
                       for row in probe_rows])),
        ("detect_period x %d probe frises" % len(probe_frises),
         best(lambda: [period(fr) for fr in probe_frises])),
        ("classify x %d probe Cartans" % len(quivers),
         best(lambda: [diagrams.classify(q.cartan) for q in quivers])),
    ] + [("classify %s" % name, best(lambda: diagrams.classify(c))) for name, c in caps] + [
        ("quiver_from_json 512-vertex path", best(lambda: diagrams.quiver_from_json(path_json))),
        ("tile_grid x %d windows, integer-tiles seed %d" % (len(windows), seed),
         best(lambda: [tilings.tile_grid(*w) for w in windows])),
        ("ray_values x %d rays, integer-tiles seed %d" % (len(rays), seed),
         best(lambda: [tilings.ray_values(*r) for r in rays])),
    ]
    for label, seconds in rows:
        print("%-66s %8.4f s" % (label, seconds))
    print("minor check passes by term pairs, symbolic-tiles seed %d, µs a minor:" % seed)
    for lo, hi, n, dicts, int64 in pass_bands(minors):
        print("  %4d-%-4d pairs x %4d   dict %6.1f   int64 %6.1f" % (lo, hi - 1, n, dicts, int64))


if __name__ == "__main__":
    main()
