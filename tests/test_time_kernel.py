"""tools/time_kernel.py on one symbolic-tiles window and one probe quiver:
its tile, minor, band-table and probe helpers call the library by name, so
a renamed kernel fails here rather than in the tool."""

import importlib.util
import math
from pathlib import Path

from artifact import cluster, diagrams, laurent

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("time_kernel", ROOT / "tools" / "time_kernel.py")
time_kernel = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(time_kernel)


def test_the_tile_minor_and_band_lines_run_on_one_window():
    side = time_kernel.workloads.SIDE
    calls = time_kernel.tile_calls(1)[:side * side]
    assert len({id(e) for e, _, _ in calls}) == 1
    assert all(cluster.variable_tile_value(*c).is_natural() for c in calls)
    minors = time_kernel.minor_calls(calls)
    assert len(minors) == (side - 1) ** 2
    assert all(laurent.products_differ_by_one(*m) for m in minors)
    bands = time_kernel.pass_bands(minors)
    edges = time_kernel.BAND_EDGES
    assert [(lo, hi) for lo, hi, *_ in bands] == list(zip(edges, edges[1:]))
    assert sum(n for _, _, n, _, _ in bands) == sum(
        edges[0] <= time_kernel.pairs(m) < edges[-1] for m in minors)
    assert any(n for _, _, n, _, _ in bands)
    for _, _, n, dicts, int64 in bands:
        if n:
            assert 0 < dicts < math.inf and 0 < int64 < math.inf
    # the passes that the band table times give the check's verdict
    for m in minors:
        operands = laurent._minor_operands(*m)
        assert laurent._differ_by_one_dicts(*operands)
        assert laurent._differ_by_one_int64(*operands) in (True, None)


def test_the_probe_line_runs_on_one_quiver():
    (report,) = time_kernel.probe_pass([diagrams.default_quiver("Dtilde", 4)])
    assert (report["kind"], report["m"], report["consistent"]) == ("Dtilde", 4, True)
    assert report["recurrence_found"] and report["bounded"] is False
