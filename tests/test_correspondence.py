"""Cycle and fork quivers realized as tiling rays, plus the dichotomy probe."""

import itertools

import pytest

from artifact import correspondence
from artifact.correspondence import (
    ForkRelationFails,
    ForkSpec,
    cycle_check,
    cycle_quiver,
    fork_check,
    fork_quiver,
    fork_table,
    probe_conjecture,
)
from artifact.diagrams import (
    Quiver,
    catalog_diagram,
    default_quiver,
    parse_shorthand,
    validate_cartan,
    validate_orientation_word,
)
from artifact.frises import frise_extend
from artifact.tilings import Embedding


def all_words(length):
    for bits in itertools.product("xy", repeat=length):
        yield "".join(bits)


def test_orientation_word_validation():
    assert validate_orientation_word("xxy") == "xxy"
    for bad in ("xy", "xxx", "yyyy", "xzy", ""):
        with pytest.raises(ValueError):
            validate_orientation_word(bad)


def test_cycle_quiver_arrows():
    q = cycle_quiver("xxxy")
    assert sorted(q.arrows) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    # the all-forward-but-one word is the catalog's default cycle orientation
    assert sorted(default_quiver("Atilde", 3).arrows) == sorted(q.arrows)


def test_cycle_frise_values():
    fr = frise_extend(cycle_quiver("xxxy"), 2)
    assert fr.column(1) == (2, 3, 4, 9)
    assert fr.column(2) == (14, 19, 43, 67)


def test_cycle_check_smallest_and_mixed():
    assert cycle_check("xxy", 12)["ok"]
    assert cycle_check("xxxy", 12)["ok"]
    assert cycle_check("xyxy", 12)["ok"]
    assert cycle_check("yyx", 12)["ok"]


def test_cycle_check_sweep_short_words():
    for length in (3, 4, 5):
        for w in all_words(length):
            if "x" in w and "y" in w:
                assert cycle_check(w, 8)["ok"]


def test_fork_spec_validation():
    ForkSpec(4, "x")
    ForkSpec(7, "xyxx")
    with pytest.raises(ValueError):
        ForkSpec(3, "")
    with pytest.raises(ValueError):
        ForkSpec(7, "xyx")
    with pytest.raises(ValueError):
        ForkSpec(7, "yxxx")
    with pytest.raises(ValueError):
        ForkSpec(7, "xyxz")


def test_fork_quiver_shape():
    q = fork_quiver(ForkSpec(7, "xyxx"))
    assert sorted(q.arrows) == [(0, 2), (1, 2), (3, 2), (3, 4), (4, 5), (5, 6), (7, 5)]
    assert sorted(fork_quiver(ForkSpec(4, "x")).arrows) == [(0, 2), (1, 2), (2, 3), (4, 2)]


@pytest.mark.parametrize("m", range(4, 13))
def test_default_dtilde_orientation_is_the_all_x_fork(m):
    assert default_quiver("Dtilde", m).arrows == fork_quiver(ForkSpec(m, "x" * (m - 3))).arrows


def test_fork_frise_spot_values():
    fr = frise_extend(fork_quiver(ForkSpec(7, "xyxx")), 3)
    assert fr.column(1) == (2, 2, 9, 2, 3, 7, 8, 2)
    assert fr.value(6, 2) == 19
    assert fr.value(7, 2) == 4
    assert fr.value(7, 3) == 38


def test_fork_table_rays():
    table = fork_table(ForkSpec(7, "xyxx"), 3)
    assert table[6] == (1, 8, 19, 106)
    assert table[7] == (1, 2, 4, 38)
    assert [row[1] for row in table] == [2, 2, 9, 2, 3, 7, 8, 2]


@pytest.mark.parametrize("spec", [ForkSpec(4, "x"), ForkSpec(7, "xyxx")])
def test_broken_fork_relation_raises_arithmetic_error(monkeypatch, spec):
    # the horizontal corner ray, off by one, breaks the far-branch relations
    rays = correspondence.ray_values

    def off_by_one(e, origin, direction, count):
        ray = rays(e, origin, direction, count)
        shift = direction == (1, 0)
        return type(ray)(ray.origin, ray.direction, tuple(v + shift for v in ray.values))

    monkeypatch.setattr(correspondence, "ray_values", off_by_one)
    with pytest.raises(ForkRelationFails, match=r"relation fails at vertex \d+, step 0$"):
        fork_table(spec, 3)


@pytest.mark.parametrize("m, word, j, step", [
    (6, "xxy", 3, 4), (7, "xyxy", 4, 4), (8, "xyxyx", 4, 2), (9, "xxyyxx", 5, 3),
])
def test_broken_interior_ray_raises_at_its_step(monkeypatch, m, word, j, step):
    # interior vertex j reads the diagonal ray from V_{j-1}; its value at
    # step, off by one, first enters the relations from step - 1 to step
    spec, rays = ForkSpec(m, word), correspondence.ray_values
    origin = Embedding(spec.frontier()).vertex(j - 1)

    def off_by_one(e, o, direction, count):
        ray = rays(e, o, direction, count)
        if (o, direction) != (origin, (1, -1)):
            return ray
        values = tuple(v + (n == step) for n, v in enumerate(ray.values))
        return type(ray)(ray.origin, ray.direction, values)

    monkeypatch.setattr(correspondence, "ray_values", off_by_one)
    with pytest.raises(ForkRelationFails, match=r"vertex \d+, step %d$" % (step - 1)):
        fork_table(spec, 4)


def test_fork_check_examples():
    assert fork_check(ForkSpec(7, "xyxx"), 8)["ok"]
    assert fork_check(ForkSpec(4, "x"), 8)["ok"]
    assert fork_check(ForkSpec(5, "xy"), 8)["ok"]
    assert fork_check(ForkSpec(5, "xx"), 8)["ok"]


def test_fork_check_sweep_small():
    for m in (4, 5, 6):
        for tail in all_words(m - 4):
            assert fork_check(ForkSpec(m, "x" + tail), 6)["ok"]


def test_probe_dynkin_is_bounded():
    report = probe_conjecture(parse_shorthand("A3"), steps=20, max_order=6)
    assert report["tag"] == "Dynkin"
    assert report["bounded"]
    assert report["period"] == (0, 6)
    assert report["consistent"] is True


def test_probe_euclidean_series_recurrent():
    report = probe_conjecture(parse_shorthand("Atilde3"), steps=24, max_order=8)
    assert report["tag"] == "Euclidean"
    assert report["kind"] == "Atilde"
    assert not report["bounded"]
    assert report["recurrence_found"]
    assert report["consistent"] is True


def test_probe_exceptional_reports_only():
    report = probe_conjecture(parse_shorthand("kronecker"), steps=16, max_order=6)
    assert report["kind"] == "Atilde11"
    assert report["expected"] is None
    assert report["consistent"] is None
    assert not report["bounded"]
    assert report["recurrence_found"]
    assert report["recurrence_orders"] == [2, 2]


def test_probe_indefinite_reports_only():
    # values grow doubly exponentially here, so keep the window tiny
    wild = Quiver(validate_cartan([[2, -3], [-3, 2]]), [(0, 1)])
    report = probe_conjecture(wild, steps=6, max_order=1)
    assert report["tag"] == "Indefinite"
    assert report["expected"] is None
    assert report["consistent"] is None
    assert not report["bounded"]
    assert not report["recurrence_found"]


def test_folding_golden():
    # Folding the symmetrically oriented 11-vertex fork diagram along its
    # mirror symmetry gives the doubled-ends path on five vertices; the
    # frise values must agree orbitwise, step for step.
    big = Quiver(
        catalog_diagram("Dtilde", 10),
        [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (6, 5), (7, 6), (8, 7), (9, 8), (10, 8)],
    )
    small = Quiver(catalog_diagram("BCtilde", 4), [(4, 3), (3, 2), (2, 1), (1, 0)])
    fold = {5: 0, 4: 1, 6: 1, 3: 2, 7: 2, 2: 3, 8: 3, 0: 4, 1: 4, 9: 4, 10: 4}
    big_fr = frise_extend(big, 12)
    small_fr = frise_extend(small, 12)
    for v, image in fold.items():
        assert big_fr.row(v) == small_fr.row(image)
