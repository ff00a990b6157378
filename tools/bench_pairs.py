"""Paired benchmark runs of two commits, written to one BENCH_<n>.json.

    python3 tools/bench_pairs.py --base 4cea5d5 --change HEAD --workload probe \\
        --seed 3 --out BENCH_2.json

Both commits are exported with `git archive` into a temporary directory,
and perfbench/run.py runs in each export, so every side measures its own
committed library with its own committed benchmark, at that benchmark's
own run length. Ten pairs run, alternating which side runs first. After
them, every other workload runs three times per side, and the paired
workload three times per side traced, again alternating which side runs
first.

The output holds each run's metrics. For the paired workload it also
holds, per metric and side, the median and quartiles, and the number of
pairs the change won (ties count for neither side); for every other
workload, and for the traced runs (whose metrics include the per-layer
ones), per metric and side, the median of the three runs.

Each end-to-end metric of BENCHMARK.json (which is only read) gets a label
per workload, written to the output and printed:

- worse: the change's median is worse than the parent's by more than the
  metric's bound, relative to the parent's median;
- unresolved: not worse, but the parent's own runs spread (max - min) by
  more than the bound relative to their median, and not every change run
  beats every parent run;
- ok: otherwise.

SIGTERM and SIGINT end the run as SystemExit, so the running benchmark
child is killed and both exported trees are removed.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("probe", "symbolic-frise", "symbolic-tiles", "integer-tiles")
TIMEOUT_S = 1800
PAIRS = 10
OTHER_RUNS = 3
TRACED_RUNS = 3


def export(rev: str, dest: Path) -> str:
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    dest.mkdir()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=TIMEOUT_S)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit("%s tree, workload %s (trace %d): perfbench/run.py exited %d with no JSON "
                 "last line on stdout; its stderr ends:\n%s"
                 % (tree.name, workload, trace, proc.returncode,
                    "\n".join(proc.stderr.splitlines()[-20:])))
    result["exit_code"] = proc.returncode
    values = {name: m["value"] for name, m in result.pop("metrics").items()}
    print("%-8s %-15s trace %d: %s" % (tree.name, workload, trace,
          {k: round(v, 4) for k, v in values.items() if k in ("wall_s", "op_p50_ms")}),
          flush=True)
    return {**result, "metrics": values}


def alternating(trees: dict, workload: str, seed: int, count: int,
                trace: int = 0) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(count):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(run(trees[side], workload, seed, trace))
    return runs


def with_medians(runs: dict[str, list[dict]]) -> dict:
    return {side: {"median": medians(r), "runs": r} for side, r in runs.items()}


def medians(runs: list[dict]) -> dict:
    return {name: statistics.median(r["metrics"][name] for r in runs) for name in runs[0]["metrics"]}


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        q1, median, q3 = statistics.quantiles([r["metrics"][name] for r in runs], n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3}
    return out


def end_to_end_bounds() -> dict[str, tuple[float, str]]:
    """Metric name -> (bound, "lower" or "higher" is better)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def label(parent: list[float], change: list[float], bound: float, better: str) -> str:
    """'worse', 'unresolved' or 'ok' for one metric's runs on each side."""
    sign = 1 if better == "lower" else -1
    p, c = [sign * v for v in parent], [sign * v for v in change]  # now lower is better
    base = statistics.median(p)
    if statistics.median(c) - base > bound * abs(base):
        return "worse"
    if max(p) - min(p) > bound * abs(base) and max(c) >= min(p):
        return "unresolved"
    return "ok"


def labels(runs: dict[str, list[dict]], bounds: dict[str, tuple[float, str]]) -> dict[str, str]:
    """Label every end-to-end metric of one workload's parent and change runs."""
    return {name: label([r["metrics"][name] for r in runs["parent"]],
                        [r["metrics"][name] for r in runs["change"]], bound, better)
            for name, (bound, better) in bounds.items()}


def exit_on_signal(signum: int, frame) -> None:
    sys.exit(128 + signum)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="Parent revision.")
    parser.add_argument("--change", default="HEAD", help="Changed revision.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, exit_on_signal)
    bounds = end_to_end_bounds()

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        commits = {side: export(rev, trees[side])
                   for side, rev in (("parent", args.base), ("change", args.change))}
        runs = alternating(trees, args.workload, args.seed, PAIRS)
        others = {w: with_medians(alternating(trees, w, args.seed, OTHER_RUNS))
                  for w in WORKLOADS if w != args.workload}
        traced = with_medians(alternating(trees, args.workload, args.seed, TRACED_RUNS, trace=1))

    verdicts = {args.workload: labels(runs, bounds)}
    verdicts.update((w, labels({side: r["runs"] for side, r in sides.items()}, bounds))
                    for w, sides in others.items())
    for w, by_metric in verdicts.items():
        print("%-15s %s" % (w, "  ".join("%s %s" % item for item in by_metric.items())))

    wins = {name: sum(c["metrics"][name] < p["metrics"][name]
                      for p, c in zip(runs["parent"], runs["change"]))
            for name in runs["parent"][0]["metrics"]}
    record = {
        "command": " ".join(["python3", "tools/bench_pairs.py"] + sys.argv[1:]),
        "commits": commits,
        "workload": args.workload,
        "seed": args.seed,
        "summary": {side: summary(r) for side, r in runs.items()},
        "change_wins": wins,
        "labels": verdicts,
        "runs": runs,
        "other_workloads": others,
        "traced": traced,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    every = [*runs["parent"], *runs["change"],
             *(r for sides in [traced, *others.values()] for side in sides.values()
               for r in side["runs"])]
    return 0 if all(r["correct"] for r in every) else 1


if __name__ == "__main__":
    sys.exit(main())
