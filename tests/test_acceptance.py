"""One gate per published claim bundle; the details live in artifact.acceptance."""

from __future__ import annotations

import random

import pytest

from artifact import acceptance
from artifact.diagrams import catalog_diagram
from artifact.tilings import Embedding, Frontier, word_span


def _passes(check) -> None:
    report = check()
    assert report["ok"], "%s: %s" % (report["name"], report["detail"])


def test_zigzag_values_extend_to_even_indexed_fibonacci():
    _passes(acceptance.check_kronecker)


def test_published_tiling_grid_reproduced_from_its_frontier():
    _passes(acceptance.check_intro_grid)


def test_tile_values_match_brute_fill_on_fuzzed_frontiers():
    _passes(acceptance.check_tile_oracle)


def test_square_identities_hold_and_yield_pythagorean_triples():
    _passes(acceptance.check_squares)


def test_four_case_recursion_holds_on_short_periodic_frontiers():
    _passes(acceptance.check_quadratic)


def test_linear_recurrences_are_certified_at_minimal_order():
    _passes(acceptance.check_recurrences)


def test_cycle_and_fork_diagrams_match_their_frises():
    _passes(acceptance.check_correspondences)


def test_symbolic_windows_are_natural_with_unit_minors():
    _passes(acceptance.check_symbolic_sl2)


def test_cross_construction_reproduces_published_frieze_rows():
    _passes(acceptance.check_frieze)


def test_cluster_variable_counts_and_laurent_positivity():
    _passes(acceptance.check_cluster_vars)


def test_catalog_classification_and_additive_certificates():
    _passes(acceptance.check_classification)


def test_classification_certifies_the_cycles_on_3_to_12_vertices(monkeypatch):
    # Atilde11 names the Kronecker diagram, so the cycles are built by kind
    checked = []
    real = acceptance.check_subadditive

    def recording(c, f):
        checked.append(c)
        return real(c, f)

    monkeypatch.setattr(acceptance, "check_subadditive", recording)
    _passes(acceptance.check_classification)
    assert checked[-10:] == [catalog_diagram("Atilde", m) for m in range(2, 12)]
    assert [c.d for c in checked[-10:]] == list(range(3, 13))


def test_growth_probe_reports_are_consistent():
    _passes(acceptance.check_probe)


def test_no_straddling_window_raises_value_error(monkeypatch):
    # with every point below the frontier no window meets both sides
    monkeypatch.setattr(Embedding, "locate", lambda self, p: ("below", 0, 1))
    with pytest.raises(acceptance.NoStraddlingWindow):
        acceptance._best_window(Embedding(Frontier("xy", "", "xy")))
    # the suite reports the raise as a failed check rather than crashing
    (report,) = acceptance.run_suite(["symbolic-sl2"])
    assert not report["ok"] and "NoStraddlingWindow" in report["detail"]


def _window_span(e, du, dv, size=8):
    """Worst projection-word length over the window; None if one-sided."""
    worst = 0
    has_above = has_below = False
    for u in range(du, du + size):
        for v in range(dv, dv + size):
            side = e.locate((u, v))[0]
            if side == "on":
                continue
            if side == "above":
                has_above = True
                first, last = word_span(e.mirror(), (v, u))
            else:
                has_below = True
                first, last = word_span(e, (u, v))
            worst = max(worst, last - first + 1)
    return worst if (has_above and has_below) else None


def _best_window_by_scan(e):
    """Oracle: score each window cell by cell, keep the first least cost."""
    best = None
    for du in range(-8, 2):
        for dv in range(-8, 2):
            cost = _window_span(e, du, dv)
            if cost is not None and (best is None or cost < best[0]):
                best = (cost, du, dv)
    return best[1], best[2]


def test_best_window_matches_the_cell_by_cell_scan():
    rng = random.Random(7)
    for _ in range(200):
        e = Embedding(acceptance._random_frontier(rng))
        assert acceptance._best_window(e) == _best_window_by_scan(e)
