import ast
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import artifact.cli as cli_module
from artifact.acceptance import SUITE_NAMES
from artifact.cli import cli
from artifact.frises import WindowTooShort


def _run(*args: str):
    return CliRunner().invoke(cli, list(args))


def _fails_cleanly(result) -> None:
    """Exit 1 through click's error path, not an escaped exception."""
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output.rstrip().splitlines()[-1].startswith("Error: ")


@pytest.mark.parametrize("quiver_json", [
    '{"vertices": 2}',
    '{"vertices": 2, "edges": [{"from": 0, "to": 5}]}',
    '[1,2]',
    '{"vertices": 0, "edges": []}',
    '{"vertices": true, "edges": []}',
    '{"vertices": 2.5, "edges": []}',
    '{"vertices": 2, "edges": [3]}',
    '{"vertices": 2, "edges": [{"from": -1, "to": 1}]}',
    '{"vertices": 2, "edges": [{"from": 0, "to": 0}]}',
    '{"vertices": 2, "edges": [{"from": 0, "to": 1, "val": [1]}]}',
    '{"vertices": 2, "edges": [{"from": 0, "to": 1, "val": "ab"}]}',
    '{"vertices": 2, "edges": [{"from": 0, "to": 1, "val": [1.5, 1]}]}',
])
@pytest.mark.parametrize("command", ["frise", "probe"])
def test_malformed_quiver_json_exits_1_without_traceback(command, quiver_json):
    _fails_cleanly(_run(command, "--quiver-json", quiver_json, "--steps", "2"))


@pytest.mark.parametrize("second", ['{"from": 0, "to": 1, "val": [2, 2]}', '{"from": 1, "to": 0}'])
@pytest.mark.parametrize("command", ["frise", "probe"])
def test_quiver_json_edge_listed_twice_exits_1_without_traceback(command, second):
    quiver_json = '{"vertices": 2, "edges": [{"from": 0, "to": 1, "val": [1, 1]}, %s]}' % second
    result = _run(command, "--quiver-json", quiver_json, "--steps", "2")
    _fails_cleanly(result)
    assert "edge {0,1} listed twice" in result.output


LONG_PATH = json.dumps({"vertices": 20000,
                        "edges": [{"from": i, "to": i + 1} for i in range(19999)]})


@pytest.mark.parametrize("option, value", [
    ("--quiver-json", '{"vertices": 100000000000, "edges": []}'),
    ("--quiver-json", LONG_PATH),
    ("--quiver", "A20000"),
    ("--quiver", "Dtilde513"),
])
@pytest.mark.parametrize("command", ["frise", "probe"])
def test_oversized_diagram_exits_3_before_building(command, option, value):
    result = _run(command, option, value, "--steps", "2")
    assert result.exit_code == 3
    assert "exceeds ARTIFACT_MAX_VERTICES=512" in result.output


def test_vertex_cap_is_read_from_the_environment():
    path = json.dumps({"vertices": 3, "edges": [{"from": 0, "to": 1}, {"from": 1, "to": 2}]})
    result = CliRunner(env={"ARTIFACT_MAX_VERTICES": "2"}).invoke(
        cli, ["frise", "--quiver-json", path, "--steps", "2"])
    assert result.exit_code == 3
    assert _run("frise", "--quiver-json", path, "--steps", "2").stdout == _run(
        "frise", "--quiver", "A3", "--steps", "2").stdout


def test_quiver_json_still_reads_valued_arrows():
    q = '{"vertices": 2, "edges": [{"from": 0, "to": 1, "val": [1, 2]}]}'
    assert _run("frise", "--quiver-json", q, "--steps", "2").stdout == _run(
        "frise", "--cartan", "[[2,-2],[-1,2]]", "--steps", "2").stdout


RECUR_FOUND = ("--seq", "1,1,2,5,13,34,89,233", "--max-order", "2")
RECUR_NONE = ("--seq", "1,2,6,24,120,720,5040,40320", "--max-order", "2")


@pytest.mark.parametrize("args, fmt, stdout", [
    (RECUR_FOUND, "text", "u[n+2] = 3 u[n+1] - u[n]\nwindow: 8 terms\n"),
    (RECUR_FOUND, "json",
     '{"window": 8, "max_order": 2, "order": 2, "coeffs": [[3, 1], [-1, 1]]}\n'),
    (RECUR_FOUND, "tsv", "order\t2\ncoeffs\t3\t-1\nwindow\t8\n"),
    (RECUR_NONE, "text", "no linear recurrence of order <= 2 certified on 8 terms\n"),
    (RECUR_NONE, "json",
     '{"window": 8, "max_order": 2, "order": null, "coeffs": null}\n'),
    (RECUR_NONE, "tsv", "order\tnone\nwindow\t8\n"),
    (("--seq", "1,0,0,0,0,0,0,0,0,0,0,0", "--max-order", "3"), "text",
     "u[n+1] = 0\nwindow: 12 terms\n"),
    (("--seq", "-1,3,-9,27,-81,243", "--max-order", "1"), "text",
     "u[n+1] = -3 u[n]\nwindow: 6 terms\n"),
    (("--seq", "32,48,72,108,162,243", "--max-order", "1"), "json",
     '{"window": 6, "max_order": 1, "order": 1, "coeffs": [[3, 2]]}\n'),
])
def test_recur_golden(args, fmt, stdout):
    result = _run("recur", *args, "--format", fmt)
    assert result.exit_code == 0
    assert result.stdout == stdout
    if fmt == "json":
        json.loads(result.stdout)


@pytest.mark.parametrize("fmt", ["text", "json", "tsv"])
def test_recur_prefix_too_short_exits_1(fmt):
    result = _run("recur", "--seq", "1,1,2", "--max-order", "1", "--format", fmt)
    _fails_cleanly(result)
    assert result.stdout == ""
    assert "need at least 6 terms" in result.output


@pytest.mark.parametrize("command", ["frise", "probe", "classify"])
@pytest.mark.parametrize("cartan", [
    "5",
    "[]",
    '[[2,"a"],[-1,2]]',
    '[{"a":1}]',
    "[[2,-1.5],[-1,2]]",
    "[[2,-1],[-1]]",
    "[[true,-1],[-1,2]]",
    '"22"',
])
def test_malformed_cartan_exits_1_without_traceback(command, cartan):
    steps = () if command == "classify" else ("--steps", "2")
    _fails_cleanly(_run(command, "--cartan", cartan, *steps))


@pytest.mark.parametrize("args", [
    ("--name", "A3", "--cartan", "[[2,-1],[-1,2]]"),
    (),
])
def test_classify_needs_exactly_one_source(args):
    result = _run("classify", *args)
    assert result.exit_code == 2 and "Traceback" not in result.output
    assert "give exactly one of --name or --cartan" in result.output


small = st.integers(-4, 3)
square = st.integers(1, 6).flatmap(lambda d: st.lists(
    st.lists(small, min_size=d, max_size=d), min_size=d, max_size=d))
# diagonal 2 and a symmetric zero pattern, so most of these pass validation
cartan_like = square.map(lambda m: [
    [2 if i == j else -abs(x) * bool(m[j][i]) for j, x in enumerate(row)]
    for i, row in enumerate(m)])
ragged = st.lists(st.lists(small, max_size=6), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.one_of(square, cartan_like, ragged))
def test_classify_cartan_fuzz_exits_cleanly(rows):
    result = _run("classify", "--cartan", json.dumps(rows))
    assert result.exit_code in (0, 1, 2, 3)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


def _exits_cleanly(result) -> None:
    assert result.exit_code in (0, 1, 2, 3)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


block = st.text("xy", max_size=5)
# a tail block is admissible when it holds both letters
tail = st.one_of(st.builds("{}xy{}".format, block, block), st.text("xy", min_size=1, max_size=5))
# well-formed frontier text, admissible or not, and text near that form
frontier_text = st.one_of(
    st.builds("[{}]* {} [{}]*".format, tail, block, tail),
    st.text("xy[]* ", max_size=16),
)


@settings(max_examples=100, deadline=None)
@given(frontier_text)
def test_tile_frontier_fuzz_exits_cleanly(frontier):
    _exits_cleanly(_run("tile", "--frontier", frontier, "--region", "-2", "-2", "2", "2"))


@settings(max_examples=100, deadline=None)
@given(frontier_text, st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
       st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-1, 8))
def test_rays_frontier_fuzz_exits_cleanly(frontier, origin, direction, count):
    _exits_cleanly(_run("rays", "--frontier", frontier, "--origin", "%d,%d" % origin,
                        "--dir", "%d,%d" % direction, "--n", str(count)))


@st.composite
def recurrent_seq(draw):
    # terms of u[n+k] = c_1 u[n+k-1] + ... + c_k u[n], so that a fit exists
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    terms = draw(st.lists(st.integers(-9, 9), min_size=len(coeffs), max_size=len(coeffs)))
    length = draw(st.integers(6, 16))
    while len(terms) < length:
        terms.append(sum(c * t for c, t in zip(coeffs, reversed(terms))))
    return terms


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    recurrent_seq(),
    st.lists(st.integers(-(1 << 70), 1 << 70), max_size=24),
    st.text("0123456789-+, x.", max_size=40),
), st.integers(0, 5))
def test_recur_seq_fuzz_exits_cleanly(seq, max_order):
    if isinstance(seq, list):
        seq = ",".join(map(str, seq))
    _exits_cleanly(_run("recur", "--seq", seq, "--max-order", str(max_order)))


@pytest.mark.parametrize("command", ["frise", "probe", "classify"])
def test_cartan_row_count_is_capped(command):
    steps = () if command == "classify" else ("--steps", "2")
    result = _run(command, "--cartan", json.dumps([[2]] * 513), *steps)
    assert result.exit_code == 3
    assert "Cartan rows 513 exceeds ARTIFACT_MAX_VERTICES=512" in result.output


# byte-exact stdout in all three formats: tile and rays, the symbolic
# frise, cluster-vars and cross-construction frieze tables, classify, the
# integer frise and probe, and the verify checks that run the ray kernel
with open(Path(__file__).with_name("cli_goldens.json")) as fh:
    GOLDENS = json.load(fh)
GEOMETRY_GOLDENS = [c for c in GOLDENS if c["args"][0] in ("tile", "rays")]
SYMBOLIC_GOLDENS = [c for c in GOLDENS
                    if c["args"][0] in ("cluster-vars", "frieze") or "--vars" in c["args"]]
INTEGER_GOLDENS = [c for c in GOLDENS
                   if c["args"][0] in ("frise", "probe") and "--vars" not in c["args"]]
CLASSIFY_GOLDENS = [c for c in GOLDENS if c["args"][0] == "classify"]
VERIFY_GOLDENS = [c for c in GOLDENS if c["args"][0] == "verify"]


@pytest.mark.parametrize("case", GEOMETRY_GOLDENS, ids=lambda c: " ".join(c["args"][3:]))
def test_tile_and_rays_golden(case):
    result = _run(*case["args"])
    assert result.exit_code == 0
    assert result.stdout == case["stdout"]


@pytest.mark.parametrize("case", SYMBOLIC_GOLDENS, ids=lambda c: " ".join(c["args"]))
def test_symbolic_golden(case):
    result = _run(*case["args"])
    assert result.exit_code == 0
    assert result.stdout == case["stdout"]


@pytest.mark.parametrize("case", CLASSIFY_GOLDENS, ids=lambda c: " ".join(c["args"][1:]))
def test_classify_golden(case):
    result = _run(*case["args"])
    assert result.exit_code == 0
    assert result.stdout == case["stdout"]


@pytest.mark.parametrize("case", INTEGER_GOLDENS, ids=lambda c: " ".join(c["args"]))
def test_integer_frise_and_probe_golden(case):
    result = _run(*case["args"])
    assert result.exit_code == 0
    assert result.stdout == case["stdout"]


@pytest.mark.parametrize("case", VERIFY_GOLDENS, ids=lambda c: " ".join(c["args"][2:]))
def test_verify_golden(case):
    result = _run(*case["args"])
    assert result.exit_code == 0
    assert result.stdout == case["stdout"]


def test_classify_at_the_vertex_cap_prints_the_marks():
    result = _run("classify", "--name", "Dtilde511")
    assert result.exit_code == 0
    marks = ["1", "1"] + ["2"] * 508 + ["1", "1"]
    assert result.stdout == "Euclidean(Dtilde,511)\nadditive: %s\n" % " ".join(marks)


def _loaded_after_importing_the_cli(module: str) -> str:
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys; sys.path.insert(0, %r); import artifact.cli; print(%r in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code % (src, module)],
                          capture_output=True, text=True, check=True)
    return proc.stdout


def test_importing_the_cli_leaves_numpy_unloaded():
    assert _loaded_after_importing_the_cli("numpy") == "False\n"


def test_a_small_symbolic_frise_leaves_numpy_unloaded():
    # every entry of the ray kernel stays below its switch to int64 arrays
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path.insert(0, %r); sys.argv[1:] = %r\n"
            "from artifact.cli import main\n"
            "try:\n    main()\n"
            "finally:\n    print('numpy' in sys.modules, file=sys.stderr)")
    proc = subprocess.run(
        [sys.executable, "-c", code % (src, ["frise", "--vars", "--quiver", "Atilde2", "--steps", "4"])],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stderr.splitlines()[-1]) == (0, "False")
    assert proc.stdout.count("\n") == 3  # one row per vertex


def test_importing_the_cli_leaves_acceptance_unloaded():
    assert _loaded_after_importing_the_cli("artifact.acceptance") == "False\n"


@pytest.mark.parametrize("args", [
    ("rays", "--origin", "1000000000,0", "--dir", "1,0", "--n", "3"),
    ("rays", "--origin", "0,0", "--dir", "-1,0", "--n", "40000"),
    ("rays", "--origin", "0,-40000", "--dir", "1,-1", "--n", "512"),
    ("tile", "--region", "1000000000", "0", "1000000000", "0"),
    ("tile", "--region", "-40000", "-1", "-39999", "0"),
    ("tile", "--oracle", "--region", "0", "-400", "0", "-400"),
    ("tile", "--oracle", "--region", "1000000", "1000000", "1000000", "1000000"),
])
def test_far_requests_exit_3_before_work(args):
    env = {"ARTIFACT_MAX_STEPS": "100000"}
    start = time.perf_counter()
    result = CliRunner(env=env).invoke(cli, [*args, "--frontier", "[xy]* [xy]*"])
    assert time.perf_counter() - start < 5
    assert result.exit_code == 3
    assert "exceeds ARTIFACT_MAX_REGION=65536" in result.output


def test_far_along_the_frontier_is_cheap_without_the_oracle():
    result = _run("tile", "--frontier", "[xy]* [xy]*",
                  "--region", "1000000000", "1000000000", "1000000001", "1000000001")
    assert result.exit_code == 0
    assert result.stdout == "2  1\n1  1\n"


def test_word_cap_is_read_from_the_environment():
    # the word of (3,-3) under the staircase, yxyxyxyxyx, has 10 letters
    args = ["rays", "--frontier", "[xy]* [xy]*", "--origin", "1,-1", "--dir", "1,-1", "--n", "3"]
    result = CliRunner(env={"ARTIFACT_MAX_REGION": "9"}).invoke(cli, args)
    assert result.exit_code == 3
    assert "frontier word length 10 exceeds ARTIFACT_MAX_REGION=9" in result.output
    result = CliRunner(env={"ARTIFACT_MAX_REGION": "10"}).invoke(cli, args)
    assert result.exit_code == 0
    assert result.stdout == "2\n13\n89\n"


@pytest.mark.parametrize("direction", ["1,1", "0,0", "-2,-1"])
def test_rays_bad_direction_exits_1(direction):
    _fails_cleanly(_run("rays", "--frontier", "[xy]* [xy]*", "--origin", "1,1",
                        "--dir", direction, "--n", "3"))


@pytest.mark.parametrize("fmt", ["text", "tsv", "json"])
def test_frieze_without_a_certified_period_exits_1_without_traceback(monkeypatch, fmt):
    def too_short(pattern, stages):
        raise WindowTooShort("no translation period certified within %d stages" % stages)

    monkeypatch.setattr("artifact.cli.frieze_period", too_short)
    result = _run("frieze", "--letters", "yyxxxxyyy", "--format", fmt)
    _fails_cleanly(result)
    assert "no translation period certified within 4 stages" in result.output
    assert result.stdout == ""  # no grid without its period


@pytest.mark.parametrize("fmt", ["text", "tsv", "json"])
def test_frieze_of_the_empty_word_exits_1_without_traceback(fmt):
    result = _run("frieze", "--letters", "", "--format", fmt)
    _fails_cleanly(result)
    assert "letters must be a nonempty word over x and y" in result.output


def _stdout_writes(node: ast.AST) -> list[str]:
    """json.dumps, print, sys.stdout and click.echo without err=True under node."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and ast.unparse(sub) == "sys.stdout":
            found.append("sys.stdout at line %d" % sub.lineno)
        if not isinstance(sub, ast.Call):
            continue
        name = ast.unparse(sub.func)
        to_stderr = any(k.arg == "err" and ast.unparse(k.value) == "True" for k in sub.keywords)
        if name in ("json.dumps", "print") or (name == "click.echo" and not to_stderr):
            found.append("%s at line %d" % (name, sub.lineno))
    return found


def test_emit_is_the_only_output_path():
    tree = ast.parse(Path(cli_module.__file__).read_text())
    emit = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_emit"]
    inside = [w for n in emit for w in _stdout_writes(n)]
    assert [w for w in _stdout_writes(tree) if w not in inside] == []
    assert {w.split(" ")[0] for w in inside} == {"json.dumps", "click.echo"}


def _env_reads(tree: ast.AST) -> list[int]:
    """Lines that name os.environ or os.getenv, or import either from os."""
    lines = []
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and ast.unparse(sub) in ("os.environ", "os.getenv"):
            lines.append(sub.lineno)
        elif isinstance(sub, ast.ImportFrom) and sub.module == "os" and any(
                a.name in ("environ", "getenv") for a in sub.names):
            lines.append(sub.lineno)
    return lines


def test_limits_are_the_only_environment_reads():
    src = Path(cli_module.__file__).parent
    reads = {p.name: _env_reads(ast.parse(p.read_text())) for p in sorted(src.rglob("*.py"))}
    assert [name for name, lines in reads.items() if lines] == ["cli.py"]
    tree = ast.parse((src / "cli.py").read_text())
    (limit,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_limit"]
    assert all(limit.lineno <= line <= limit.end_lineno for line in reads["cli.py"])
    # the names read are the string constants handed to _limit and _check_limit
    read = {a.value for call in ast.walk(tree) if isinstance(call, ast.Call)
            and ast.unparse(call.func) in ("_limit", "_check_limit")
            for a in call.args if isinstance(a, ast.Constant) and isinstance(a.value, str)
            and a.value.startswith("ARTIFACT_")}
    assert read == set(cli_module._LIMIT_DEFAULTS)


def test_verify_expands_all_where_it_appears():
    result = _run("verify", "--suite", "all", "--suite", "kronecker", "--format", "tsv")
    assert result.exit_code == 0
    names = [line.split("\t")[0] for line in result.stdout.splitlines()]
    assert names == list(SUITE_NAMES) + ["kronecker"]


def test_verify_unknown_suite_names_it_once():
    result = _run("verify", "--suite", "nope")
    assert result.exit_code == 2
    assert result.stdout == ""
    (line,) = [l for l in result.output.splitlines() if l.startswith("Error: ")]
    assert line.startswith("Error: unknown check 'nope'; choose from kronecker, ")
    assert line.endswith(" or 'all'")
    assert line.count("nope") == 1 and '"' not in line


def test_verify_runs_from_a_copy_of_the_package(tmp_path):
    site = tmp_path / "site"
    shutil.copytree(Path(cli_module.__file__).parent, site / "artifact",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "-m", "artifact.cli", "verify", "--suite", "intro-grid"],
        cwd=tmp_path, env={"PYTHONPATH": str(site), "PATH": ""},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "PASS" in result.stdout and "76 printed cells" in result.stdout
