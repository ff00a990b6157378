"""The ok / worse / unresolved labels of tools/bench_pairs.py on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("parent, change, want", [
    ([1.0, 1.01, 0.99], [1.02, 1.03, 1.01], "ok"),  # tight runs, 2% slower
    ([1.0, 1.01, 0.99], [1.3, 1.2, 1.28], "worse"),  # median 28% slower
    ([1.0, 1.01, 0.99], [0.5, 0.6, 0.55], "ok"),  # faster
    ([1.0, 1.4, 0.9], [1.1, 1.0, 1.2], "unresolved"),  # parent spreads 50%
    ([1.0, 1.4, 0.9], [0.8, 0.85, 0.7], "ok"),  # wide, but every change run beats every parent run
    ([1.0, 1.4, 0.9], [0.8, 0.85, 0.9], "unresolved"),  # a tie with the best parent run is no win
    ([1.0, 1.4, 0.9], [1.3, 1.5, 1.4], "worse"),  # worse wins over unresolved
])
def test_label_lower_is_better(parent, change, want):
    assert bench_pairs.label(parent, change, 0.25, "lower") == want


@pytest.mark.parametrize("parent, change, want", [
    ([1.0, 1.01, 0.99], [0.7, 0.72, 0.71], "worse"),  # 30% lower where higher is better
    ([1.0, 1.01, 0.99], [1.3, 1.2, 1.28], "ok"),
    ([1.0, 1.4, 0.9], [1.05, 1.0, 0.95], "unresolved"),
    ([1.0, 1.4, 0.9], [1.5, 1.6, 1.45], "ok"),
])
def test_label_higher_is_better(parent, change, want):
    assert bench_pairs.label(parent, change, 0.25, "higher") == want


def test_the_bound_is_relative_to_the_parent_median():
    # 0.1 above a median of 1 is 10%, inside 0.25 and outside 0.05
    assert bench_pairs.label([1.0] * 10, [1.1] * 10, 0.25, "lower") == "ok"
    assert bench_pairs.label([1.0] * 10, [1.1] * 10, 0.05, "lower") == "worse"


def test_labels_cover_every_end_to_end_metric_of_the_benchmark():
    bounds = bench_pairs.end_to_end_bounds()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bounds == {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    def runs(values):
        return [{"metrics": {name: v for name in bounds}} for v in values]

    got = bench_pairs.labels({"parent": runs([1.0, 1.0, 1.0]), "change": runs([2.0, 2.0, 2.0])},
                             bounds)
    assert got == {name: "worse" for name in bounds}


def test_traced_runs_alternate_sides_and_record_per_layer_medians(monkeypatch):
    calls = []

    def fake_run(tree, workload, seed, trace):
        calls.append((tree, trace))
        return {"correct": True, "metrics": {"layer.laurent.self_s": float(len(calls))}}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    got = bench_pairs.with_medians(bench_pairs.alternating(
        {"parent": "P", "change": "C"}, "symbolic-tiles", 1, bench_pairs.TRACED_RUNS, trace=1))
    assert calls == [("P", 1), ("C", 1), ("C", 1), ("P", 1), ("P", 1), ("C", 1)]
    assert got["parent"]["median"] == {"layer.laurent.self_s": 4.0}  # runs 1, 4 and 5
    assert got["change"]["median"] == {"layer.laurent.self_s": 3.0}  # runs 2, 3 and 6
    assert [len(side["runs"]) for side in got.values()] == [3, 3]

