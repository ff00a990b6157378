"""One gate per published claim bundle; the details live in artifact.acceptance."""

from __future__ import annotations

import pytest

from artifact import acceptance
from artifact.tilings import Embedding, Frontier


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


def test_growth_probe_reports_are_consistent():
    _passes(acceptance.check_probe)


def test_no_straddling_window_raises_value_error(monkeypatch):
    monkeypatch.setattr(acceptance, "_window_span", lambda e, du, dv: None)
    with pytest.raises(acceptance.NoStraddlingWindow):
        acceptance._best_window(Embedding(Frontier("xy", "", "xy")))
    # the suite reports the raise as a failed check rather than crashing
    (report,) = acceptance.run_suite(["symbolic-sl2"])
    assert not report["ok"] and "NoStraddlingWindow" in report["detail"]
