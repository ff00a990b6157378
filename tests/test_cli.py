import json

import pytest
from click.testing import CliRunner

from artifact.cli import cli


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
