"""Benchmark of the artifact library: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload probe --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src. The
workload runs in this process on one thread (numpy's thread pools are
pinned to 1). Passes over the workload's fixed input set repeat while the
next one is expected to end within --seconds, and at least MIN_PASSES
times (workloads.py). Every answer is checked by the workload's oracle
(see workloads.py); an exception or a wrong answer counts as a failed
operation and makes the exit code 1.

With --trace 0 the end-to-end metrics are reported:

    wall_s       median over passes of the time of one pass over the
                 input set (the sum of its ops' times)
    op_p50_ms    median time of one operation, pooled over passes
    op_tail_ms   a fixed high percentile of the same pool (workloads.py)
    setup_s      median of five cold starts: a fresh interpreter imports
                 artifact.cli and builds the inputs (coldstart.py)
    peak_rss_mb  peak resident memory of this process

The four times are in reference-speed units (see CAL_REF_NS below).

With --trace 1 untraced passes are followed by traced passes, which
record spans around the library's public functions (tracing.py), and
then by one pass that only counts Embedding.vertex calls. The per-layer
metrics are per pass. Two traced passes, and a traced run of the same
code and seed made earlier in this checkout, must agree on every count.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A result file with the environment stamp,
the seed and the raw figures goes to perfbench/results/, and a traced
run also writes its spans there.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("probe", "symbolic-frise", "symbolic-tiles", "integer-tiles")
SETUP_REPEATS = 5

# On the shared 2-vCPU VM this benchmark was built on, CPU speed drifted
# by up to a third within minutes, and a fixed pure-Python loop slowed in
# step with the workloads (18% spread between 4 s blocks of integer-tiles
# ops, 3% after scaling).
# End-to-end times are therefore reported in reference-speed units: each
# op's (and each cold start's) measured time times CAL_REF_NS over the
# mean of the loop times just before and after it; a pass's wall time is
# the sum over its ops. On a machine where the loop takes CAL_REF_NS they
# are seconds; the result file keeps the raw times and the loop times.
CAL_LOOPS = 10_000
CAL_REF_NS = 650_000
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "recurrences.fit.calls": "count",
    "recurrences.fit.s": "s",
    "recurrences.fit.orders_tried": "count",
    "recurrences.fit.found_frac": "ratio",
    "laurent.mul.calls": "count",
    "laurent.mul.s": "s",
    "laurent.mul.pairs": "count",
    "laurent.mul.big_calls": "count",
    "laurent.div.calls": "count",
    "laurent.div.s": "s",
    "laurent.div.poly_calls": "count",
    "laurent.terms_out": "count",
    "laurent.minor.calls": "count",
    "laurent.minor.s": "s",
    "tilings.classify.calls": "count",
    "tilings.classify.s": "s",
    "tilings.word_span.calls": "count",
    "tilings.word_span.s": "s",
    "tilings.tile_value.calls": "count",
    "tilings.tile_value.s": "s",
    "tilings.ray_values.s": "s",
    "tilings.vertex.calls": "count",
    "frises.extend.s": "s",
    "frises.extend.cells": "count",
    "frises.extend_vars.self_s": "s",
    "frises.detect_period.s": "s",
    "cluster.enumerate.s": "s",
    "cluster.tile_vars.calls": "count",
    "cluster.tile_vars.self_s": "s",
    "cluster.word_value_vars.self_s": "s",
    "correspondence.probe.calls": "count",
    "correspondence.probe.self_s": "s",
    "diagrams.classify.calls": "count",
    "diagrams.classify.s": "s",
    "cli.import_s": "s",
    "cli.import.networkx_s": "s",
    "cli.import.numpy_s": "s",
    "layer.recurrences.self_s": "s",
    "layer.laurent.self_s": "s",
    "layer.tilings.self_s": "s",
    "layer.frises.self_s": "s",
    "layer.cluster.self_s": "s",
    "layer.correspondence.self_s": "s",
    "layer.diagrams.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

# metric -> (span name, field); "calls" counts spans, the others are
# seconds per pass: incl = outermost spans' durations, self = self time
SPAN_METRICS = {
    "recurrences.fit.calls": ("recurrences.fit", "calls"),
    "recurrences.fit.s": ("recurrences.fit", "incl_ns"),
    "laurent.mul.calls": ("laurent.mul", "calls"),
    "laurent.mul.s": ("laurent.mul", "incl_ns"),
    "laurent.div.calls": ("laurent.div", "calls"),
    "laurent.div.s": ("laurent.div", "incl_ns"),
    "laurent.minor.calls": ("laurent.minor", "calls"),
    "laurent.minor.s": ("laurent.minor", "incl_ns"),
    "tilings.classify.calls": ("tilings.classify", "calls"),
    "tilings.classify.s": ("tilings.classify", "incl_ns"),
    "tilings.word_span.calls": ("tilings.word_span", "calls"),
    "tilings.word_span.s": ("tilings.word_span", "incl_ns"),
    "tilings.tile_value.calls": ("tilings.tile_value", "calls"),
    "tilings.tile_value.s": ("tilings.tile_value", "incl_ns"),
    "tilings.ray_values.s": ("tilings.ray_values", "incl_ns"),
    "frises.extend.s": ("frises.extend", "incl_ns"),
    "frises.extend_vars.self_s": ("frises.extend_vars", "self_ns"),
    "frises.detect_period.s": ("frises.detect_period", "incl_ns"),
    "cluster.enumerate.s": ("cluster.enumerate", "incl_ns"),
    "cluster.tile_vars.calls": ("cluster.tile_vars", "calls"),
    "cluster.tile_vars.self_s": ("cluster.tile_vars", "self_ns"),
    "cluster.word_value_vars.self_s": ("cluster.word_value_vars", "self_ns"),
    "correspondence.probe.calls": ("correspondence.probe", "calls"),
    "correspondence.probe.self_s": ("correspondence.probe", "self_ns"),
    "diagrams.classify.calls": ("diagrams.classify", "calls"),
    "diagrams.classify.s": ("diagrams.classify", "incl_ns"),
}

# counter hooks in tracing.py -> metric
HOOK_COUNTS = ("recurrences.fit.orders_tried", "laurent.mul.pairs", "laurent.mul.big_calls",
               "laurent.div.poly_calls", "laurent.terms_out", "frises.extend.cells")


class _Missing:
    """Placeholder answer of an operation that raised."""


MISSING = _Missing()


# ----------------------------------------------------------------------
# running passes


def calibrate() -> int:
    """Nanoseconds of a fixed pure-Python loop: the machine's current speed.

    The fastest of three runs, so that one interrupted run does not count.
    """
    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        s = 0
        for i in range(CAL_LOOPS):
            s += i * i % 7
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def run_pass(ops, tracer=None, first_op_id: int = 0):
    """One pass over the ops: (wall_ns, per-op ns, answers, errors, loop ns).

    The reference loop runs before the first op and after every op, so
    each op lies between two loop times; the loop's time is left out of
    the wall time.
    """
    clock = time.perf_counter_ns
    times, answers, errors, cals = [], [], {}, [calibrate()]
    start = clock()
    in_loop = 0  # ns spent in the reference loop after start
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_op_id + i
        t0 = clock()
        try:
            answer = op.run()
        except Exception as exc:  # a raising op is a failed op; keep going
            answer = MISSING
            errors[i] = "%s: %s" % (type(exc).__name__, exc)
        t1 = clock()
        times.append(t1 - t0)
        answers.append(answer)
        cals.append(calibrate())
        in_loop += clock() - t1
    return clock() - start - in_loop, times, answers, errors, cals


class Phase:
    """Passes over the ops, with the answers of each checked against the first."""

    def __init__(self, ops, reference):
        self.ops = ops
        self.reference = reference  # answers of the first pass of the run
        self.walls: list[int] = []
        self.op_times: list[int] = []  # pass after pass
        self.scaled_walls: list[float] = []  # reference-speed ns (CAL_REF_NS)
        self.scaled_times: list[float] = []
        self.cals: list[list[int]] = []  # reference loop ns, per pass
        self.attempted = 0
        self.bad: dict[int, int] = {}  # op index -> passes that raised or disagreed
        self.errors: dict[int, str] = {}

    def run(self, seconds: float, min_passes: int, tracer=None) -> None:
        """Passes until min_passes ran and the next one would end after `seconds`."""
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        while len(self.walls) < min_passes or (
                time.perf_counter_ns() + statistics.median(self.walls) <= deadline):
            if tracer is not None:
                tracer.begin_pass()
            wall, times, answers, errors, cal = run_pass(
                self.ops, tracer, len(self.walls) * len(self.ops))
            if tracer is not None:
                tracer.end_pass()
            if self.reference is None:
                self.reference = answers
            self.walls.append(wall)
            self.op_times.extend(times)
            self.cals.append(cal)
            # each op at the machine speed of the loops just before and after it
            scaled = [t * 2 * CAL_REF_NS / (a + b) for t, a, b in zip(times, cal, cal[1:])]
            self.scaled_times.extend(scaled)
            self.scaled_walls.append(sum(scaled))
            self.attempted += len(self.ops)
            for i, answer in enumerate(answers):
                if i in errors:
                    self.errors.setdefault(i, errors[i])
                elif answer != self.reference[i]:
                    self.errors.setdefault(i, "answer differs from the first pass")
                else:
                    continue
                self.bad[i] = self.bad.get(i, 0) + 1
            answers = answer = None  # hold at most the reference and the pass running


def check_answers(ops, reference) -> dict[int, str]:
    """Oracle verdicts on the first pass: {op index: what is wrong}."""
    wrong = {}
    for i, (op, answer) in enumerate(zip(ops, reference)):
        if answer is MISSING:
            continue  # already counted as raised
        try:
            problem = op.check(answer)
        except Exception as exc:  # an oracle that cannot check is a failure
            problem = "oracle raised %s: %s" % (type(exc).__name__, exc)
        if problem:
            wrong[i] = problem
    return wrong


def nearest_rank(samples: list[int], percentile: float) -> int:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def tail_percentile(target: int, n: int) -> int:
    """The target, or lower when fewer than ten samples would lie beyond it."""
    highest = math.floor(100 * (n - 10) / n) if n > 10 else 0
    return max(0, min(target, highest))


# ----------------------------------------------------------------------
# cold start and imports, in fresh interpreters


def _child(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          check=True, **kwargs)


def measure_setup(workload: str, seed: int, size: str) -> tuple[list[float], list[int]]:
    """Seconds of SETUP_REPEATS cold starts after one warm-up, and the
    reference loop's ns measured before the first and after each.

    Each runs from just before the interpreter is started to the moment
    the child reports, on the system-wide monotonic clock, that its
    inputs are built; waiting for the child to exit is not counted.
    """
    args = [str(HERE / "coldstart.py"), workload, str(seed), size]
    _child(args, stdout=subprocess.DEVNULL)
    samples, cals = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        start = time.monotonic_ns()
        done = int(_child(args, capture_output=True, text=True).stdout)
        samples.append((done - start) / 1e9)
        cals.append(calibrate())
    return samples, cals


def measure_imports() -> dict[str, float]:
    """Cumulative import seconds from `python -X importtime`, medians."""
    code = "import sys; sys.path.insert(0, %r); import artifact.cli" % str(SRC)
    wanted = {"artifact.cli": "cli.import_s", "networkx": "cli.import.networkx_s",
              "numpy": "cli.import.numpy_s"}
    samples: dict[str, list[float]] = {m: [] for m in wanted.values()}
    for _ in range(IMPORT_REPEATS):
        proc = _child(["-X", "importtime", "-c", code], capture_output=True, text=True)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in wanted:
                seen[wanted[parts[2]]] = int(parts[1]) / 1e6
        for metric in samples:
            samples[metric].append(seen.get(metric, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


# ----------------------------------------------------------------------
# environment stamp


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def code_digest() -> str:
    """sha256 over the library and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")) + [HERE / "rays.json"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def env_stamp(seed: int, traced: bool, size: str, seconds: float) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "networkx": _version("networkx"),
        "click": _version("click"),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "code_sha256": code_digest(),
        "seed": seed,
        "traced": traced,
        "size": size,
        "seconds": seconds,
    }


# ----------------------------------------------------------------------
# one workload


def _per_layer(summaries, counts, vertex_calls, imports, traced: Phase, untraced: Phase):
    passes = len(summaries)
    first = summaries[0]["names"]
    metrics = {}
    for metric, (span, field) in SPAN_METRICS.items():
        if field == "calls":
            metrics[metric] = first.get(span, {}).get("calls", 0)
        else:
            total = sum(s["names"].get(span, {}).get(field, 0) for s in summaries)
            metrics[metric] = total / passes / 1e9
    for name in HOOK_COUNTS:
        metrics[name] = counts[0].get(name, 0)
    fits = metrics["recurrences.fit.calls"]
    found = counts[0].get("recurrences.fit.found", 0)
    metrics["recurrences.fit.found_frac"] = found / fits if fits else 0.0
    metrics["tilings.vertex.calls"] = vertex_calls
    metrics.update(imports)
    for layer in tracing.LAYERS:
        metrics["layer.%s.self_s" % layer] = sum(
            s["layers"].get(layer, 0) for s in summaries) / passes / 1e9
    # pass times at reference speed, so that drift does not pass for overhead
    traced_s = statistics.median(traced.scaled_walls) / 1e9
    untraced_s = statistics.median(untraced.scaled_walls) / 1e9
    metrics["trace.wall_s"] = traced_s
    metrics["trace.untraced_wall_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.coverage"] = sum(s["self_total_ns"] for s in summaries) / sum(traced.walls)
    return metrics


def _previous_counts(stem_key: dict) -> tuple[str, dict] | None:
    """Counts of the newest earlier traced result for the same code and inputs."""
    best = None
    for path in RESULTS.glob("*.json"):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if data.get("key") == stem_key and "counts" in data:
            if best is None or data["finished"] > best[1]["finished"]:
                best = (path.name, data)
    return None if best is None else (best[0], best[1]["counts"])


def _measure_end_to_end(workload: str, ops, seed: int, size: str, seconds: float,
                        min_passes: int, tail_target: int):
    setup, setup_cals = measure_setup(workload, seed, size)
    main = Phase(ops, None)
    main.run(seconds, min_passes)
    walls, op_times = main.scaled_walls, main.scaled_times
    n = len(op_times)
    pct = tail_percentile(tail_target, n)
    metrics = {
        "wall_s": statistics.median(walls) / 1e9,
        "op_p50_ms": statistics.median(op_times) / 1e6,
        "op_tail_ms": nearest_rank(op_times, pct) / 1e6,
        "setup_s": statistics.median(
            s * 2 * CAL_REF_NS / (a + b) for s, a, b in zip(setup, setup_cals, setup_cals[1:])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_op = [op_times[i::len(ops)] for i in range(len(ops))]
    extra = {
        "passes": len(main.walls), "op_samples": n, "op_tail_percentile": pct,
        "raw": {
            "pass_wall_s": [w / 1e9 for w in main.walls],
            "op_p50_ms": statistics.median(main.op_times) / 1e6,
            "setup_samples_s": setup,
            "reference_loop_median_ms": [statistics.median(c) / 1e6 for c in main.cals],
            "setup_reference_loop_ms": [c / 1e6 for c in setup_cals],
        },
        "op_median_ms": {op.label: statistics.median(t) / 1e6 for op, t in zip(ops, per_op)},
    }
    return [main], metrics, extra, []


def _measure_traced(workload: str, ops, seed: int, size: str, seconds: float, code_sha: str):
    imports = measure_imports()
    untraced = Phase(ops, None)
    untraced.run(seconds / 2, 1)
    traced = Phase(ops, untraced.reference)
    tracer = tracing.Tracer()
    missing = tracer.install()
    try:
        traced.run(seconds / 2, 2, tracer)
    finally:
        tracer.uninstall()
    counter = tracing.CallCounter("tilings", "Embedding.vertex")
    counted = Phase(ops, untraced.reference)
    try:
        counted.run(0, 1)
    finally:
        counter.uninstall()

    problems = []
    summaries = [tracing.summarize(tracer.spans, lo, hi) for lo, hi, _ in tracer.passes]
    counts = [c for _, _, c in tracer.passes]
    calls = [{k: v["calls"] for k, v in s["names"].items()} for s in summaries]
    if any(c != calls[0] for c in calls) or any(c != counts[0] for c in counts):
        problems.append("traced passes disagree on their counts")
    if any(s["min_self_ns"] < 0 for s in summaries):
        problems.append("a span has negative self time")
    if any(s["self_total_ns"] > wall for s, wall in zip(summaries, traced.walls)):
        problems.append("span self time exceeds the pass wall time")
    metrics = _per_layer(summaries, counts, counter.calls, imports, traced, untraced)
    count_metrics = {k: v for k, v in metrics.items() if PER_LAYER[k] == "count"}
    key = {"workload": workload, "seed": seed, "size": size, "code_sha256": code_sha}
    previous = _previous_counts(key)
    if previous is not None and previous[1] != count_metrics:
        diff = sorted(k for k in count_metrics if previous[1].get(k) != count_metrics[k])
        problems.append("counts differ from the earlier traced run %s: %s"
                        % (previous[0], ", ".join(diff)))
    extra = {
        "key": key, "counts": count_metrics, "missing_spans": missing,
        "untraced_pass_wall_s": [w / 1e9 for w in untraced.walls],
        "traced_pass_wall_s": [w / 1e9 for w in traced.walls],
        "traced_passes": [{"self_total_ns": s["self_total_ns"], "min_self_ns": s["min_self_ns"],
                           "layers_ns": s["layers"]} for s in summaries],
        "spans": len(tracer.spans),
    }
    return [untraced, traced, counted], metrics, extra, problems, tracer.spans


def run_workload(workload: str, seed: int, seconds: float, traced: bool, size: str):
    """Returns (final line, result record, spans of a traced run or None)."""
    import workloads

    env = env_stamp(seed, traced, size, seconds)
    ops = workloads.build(workload, seed, size)
    if traced:
        phases, metrics, extra, problems, spans = _measure_traced(
            workload, ops, seed, size, seconds, env["code_sha256"])
        units = PER_LAYER
    else:
        phases, metrics, extra, problems = _measure_end_to_end(
            workload, ops, seed, size, seconds,
            workloads.MIN_PASSES[workload], workloads.TAIL_PERCENTILE[workload])
        spans, units = None, END_TO_END
    record: dict = {"workload": workload, "env": env, "ops": len(ops), **extra}

    reference = phases[0].reference
    wrong = check_answers(ops, reference)
    attempted = sum(p.attempted for p in phases)
    # a wrong first answer makes every pass of that op wrong
    failed = sum(len(p.walls) if i in wrong else p.bad.get(i, 0)
                 for p in phases for i in range(len(ops)))
    failures = {ops[i].label: msg for p in phases for i, msg in p.errors.items()}
    failures.update({ops[i].label: msg for i, msg in wrong.items()})
    correct = not failures and not problems
    record.update({
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "failures": failures, "problems": problems,
    })
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return line, record, spans


def _write_results(workload: str, line: dict, record: dict, spans) -> Path:
    RESULTS.mkdir(exist_ok=True)
    env = record["env"]
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    stem = "%s-seed%d-%s-trace%d-%s-%d" % (workload, env["seed"], env["size"],
                                          int(env["traced"]), stamp, os.getpid())
    if spans is not None:
        spans_path = RESULTS / (stem + ".spans.jsonl.gz")
        with gzip.open(spans_path, "wt") as fh:
            fh.write('["name", "start_ns", "end_ns", "parent", "op"]\n')
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        record["spans_file"] = spans_path.name
    record["finished"] = time.time()
    record["metrics"] = line["metrics"]
    record["correct"] = line["correct"]
    path = RESULTS / (stem + ".json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def _print_human(workload: str, line: dict, record: dict, path: Path) -> None:
    env = record["env"]
    print("workload %s  seed %d  size %s  traced %s" % (workload, env["seed"], env["size"],
                                                        env["traced"]))
    print("env: nproc %s, Python %s, numpy %s, networkx %s, click %s, commit %s"
          % (env["nproc"], env["python"], env["numpy"], env["networkx"], env["click"],
             env["git_commit"][:12]))
    if "passes" in record:
        print("passes %d, %d op samples, op_tail_ms is p%d"
              % (record["passes"], record["op_samples"], record["op_tail_percentile"]))
    for name, m in line["metrics"].items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print("attempted %d, failed %d, fail_frac %.6g"
          % (record["attempted"], record["failed"], record["fail_frac"]))
    for label, msg in list(record["failures"].items())[:10]:
        print("FAILED %s: %s" % (label, msg), file=sys.stderr)
    for msg in record["problems"]:
        print("ERROR %s" % msg, file=sys.stderr)
    print("result file: %s" % path.relative_to(ROOT))


# ----------------------------------------------------------------------
# all workloads, one after another, each in its own process


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 60)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"]["%s/%s" % (workload, name)] = m
    print(json.dumps(combined))
    return code or (0 if combined["correct"] else 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few small operations, for smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "artifact" / "__init__.py").is_file():
        print("perfbench: no library at %s; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import artifact

    if Path(artifact.__file__).resolve().parent != SRC / "artifact":
        print("perfbench: imported artifact from %s, not from %s" % (artifact.__file__, SRC),
              file=sys.stderr)
        return 2
    line, record, spans = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                       args.size)
    path = _write_results(args.workload, line, record, spans)
    _print_human(args.workload, line, record, path)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
