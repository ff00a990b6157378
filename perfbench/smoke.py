"""Smoke tests of the benchmark itself, at tiny size (about a minute).

    python3 perfbench/smoke.py

Checks that every workload runs at tiny size with and without tracing and
prints exactly the metric names and units of BENCHMARK.json; that no span
has negative self time and the self times of a traced pass sum to at
most its wall time; that perfbench/design.json covers every workload and
per-layer metric; that a wrong oracle input makes the command exit
nonzero; and that a traced run whose counts differ from an earlier
traced run of the same code and seed is reported as an error.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def bench(workload: str, trace: int) -> tuple[int, dict | None, Path | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    result_file = next((ROOT / ln.split(": ", 1)[1] for ln in lines
                        if ln.startswith("result file: ")), None)
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        last = None
    return proc.returncode, last, result_file


def check_declarations(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the contract's keys")
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(run.WORKLOADS) == list(workloads.BUILDERS),
           "BENCHMARK.json lists the four workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "end-to-end names and units match run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "per-layer names and units match run.py")
    design = json.loads((HERE / "design.json").read_text())
    expect(set(design["workloads"]) == set(run.WORKLOADS), "design.json covers every workload")
    expect(set(design["per_layer"]) == set(run.PER_LAYER),
           "design.json covers every per-layer metric")


def check_workload(spec: dict, workload: str) -> None:
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        code, last, result_file = bench(workload, trace)
        tag = "%s --trace %d" % (workload, trace)
        expect(code == 0 and last is not None and last["correct"], "%s runs and is correct" % tag)
        if last is None:
            continue
        keys = {"correct", "attempted", "failed", "metrics"}
        expect(set(last) == keys and last["attempted"] >= 1,
               "%s prints the four result keys" % tag)
        printed = {k: v["unit"] for k, v in last["metrics"].items()}
        expect(printed == {m["name"]: m["unit"] for m in declared},
               "%s prints the declared metric names and units" % tag)
        if trace and result_file is not None:
            record = json.loads(result_file.read_text())
            passes = record["traced_passes"]
            walls = record["traced_pass_wall_s"]
            expect(all(p["min_self_ns"] >= 0 for p in passes), "%s: no negative self time" % tag)
            expect(all(p["self_total_ns"] <= w * 1e9 for p, w in zip(passes, walls)),
                   "%s: self times sum to at most the pass wall time" % tag)


def check_wrong_oracle() -> None:
    """A corrupted ray digest must make integer-tiles fail."""
    original = workloads.load_rays
    workloads.load_rays = lambda size: [dict(r, sha256="0" * 64) for r in original(size)]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "integer-tiles", "--seed", str(SEED),
                             "--seconds", "0.5", "--size", "tiny"])
    finally:
        workloads.load_rays = original
    last = json.loads(out.getvalue().splitlines()[-1])
    expect(code != 0 and not last["correct"] and last["failed"] >= 1,
           "a wrong oracle input exits nonzero and counts failed ops")


def check_count_mismatch() -> None:
    """A traced run compares its counts with the newest earlier one."""
    code, _, result_file = bench("integer-tiles", 1)
    expect(code == 0 and result_file is not None, "integer-tiles traced run for the count check")
    if result_file is None:
        return
    record = json.loads(result_file.read_text())
    record["counts"]["tilings.vertex.calls"] += 1
    result_file.write_text(json.dumps(record))
    try:
        code, last, _ = bench("integer-tiles", 1)
        expect(code != 0 and last is not None and not last["correct"],
               "counts that differ from an earlier traced run are an error")
    finally:
        result_file.unlink()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_declarations(spec)
    for workload in run.WORKLOADS:
        check_workload(spec, workload)
    check_wrong_oracle()
    check_count_mismatch()
    print("%d failed" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
