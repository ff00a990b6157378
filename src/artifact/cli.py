"""Command-line entry point: one executable over all the library modules.

Every command writes its result to stdout once, through `_emit`, in the
selected format; the version banner goes to stderr so stdout stays
byte-identical for identical inputs. Exit codes: 0 success, 1 failed
computation or failed verification, 2 usage error, 3 resource-limit abort.

Default resource limits come from environment variables, all positive
integers: ARTIFACT_MAX_STEPS (frise/ray/window lengths, default 512),
ARTIFACT_MAX_REGION (tile region cell count, the cells the --oracle fill
covers, and the longest frontier word a tile or ray value is read from,
default 65536),
ARTIFACT_MAX_ORDER (recurrence order bound, default 32), and
ARTIFACT_MAX_VERTICES (diagram vertex count or catalog index, default 512).
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import __version__
from .cluster import CrossSeed, cross_construct, enumerate_cluster_vars, frieze_period
from .correspondence import probe_conjecture
from .diagrams import (
    Quiver,
    classify,
    check_subadditive,
    find_additive_function,
    parse_shorthand,
    quiver_from_json,
    validate_cartan,
)
from .frises import frise_extend, frise_extend_vars
from .recurrences import find_min_recurrence, human_form
from .tilings import Embedding, brute_fill, brute_fill_box, parse_frontier, ray_values, tile_grid

_LIMIT_DEFAULTS = {
    "ARTIFACT_MAX_STEPS": 512,
    "ARTIFACT_MAX_REGION": 65536,
    "ARTIFACT_MAX_ORDER": 32,
    "ARTIFACT_MAX_VERTICES": 512,
}

# json consumers read numbers as doubles; anything wider ships as a string
_JSON_SAFE = 1 << 53


class ResourceLimit(click.ClickException):
    exit_code = 3


def _limit(name: str) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return _LIMIT_DEFAULTS[name]
    try:
        value = int(raw)
    except ValueError:
        raise click.UsageError("%s must be a positive integer, got %r" % (name, raw))
    if value <= 0:
        raise click.UsageError("%s must be positive, got %d" % (name, value))
    return value


def _check_limit(what: str, value: int, env: str) -> None:
    cap = _limit(env)
    if value > cap:
        raise ResourceLimit("%s %d exceeds %s=%d" % (what, value, env, cap))


def _data(fn, *args, **kwargs):
    """Run a library call, turning its validation errors into exit code 1."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        raise click.ClickException(str(exc) or exc.__class__.__name__)


def _json_int(v):
    if isinstance(v, bool) or not isinstance(v, int):
        return v
    return v if -_JSON_SAFE < v < _JSON_SAFE else str(v)


def _pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        a, b = (int(p.strip()) for p in parts)
    except ValueError:
        raise click.UsageError("%s must be two integers 'a,b', got %r" % (what, text))
    return a, b


def _aligned(rows: list[list[str]]) -> list[str]:
    widths = [max((len(r[i]) for r in rows if i < len(r)), default=0)
              for i in range(max(len(r) for r in rows))]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def _emit(fmt: str, obj, rows: list[list[str]], lines: list[str] | None = None) -> None:
    """Write a command's result to stdout, the only place that does.

    json: obj as one line. tsv: rows, tab-separated. text: lines if
    given, else rows right-aligned in columns two spaces apart.
    """
    if fmt == "json":
        out = [json.dumps(obj)]
    elif fmt == "tsv":
        out = ["\t".join(row) for row in rows]
    else:
        out = _aligned(rows) if lines is None else lines
    for line in out:
        click.echo(line)


def _word_length(e: Embedding, p: tuple[int, int]) -> int:
    """Letters in the frontier word that p's value is read from; 0 on the path."""
    side, first, last = e.locate(p)
    return 0 if side == "on" else last - first + 1


def _check_words(e: Embedding, ends: list[tuple[int, int]]) -> None:
    # words grow away from the frontier, so a rectangle's or a ray's longest
    # word on each side is at a corner or an end, and tile_values walks no
    # more letters per side than that word has: the cap bounds the real work
    _check_limit("frontier word length", max(_word_length(e, p) for p in ends),
                 "ARTIFACT_MAX_REGION")


def _quiver_from_options(name: str | None, cartan: str | None, quiver_json: str | None):
    given = [o for o in (name, cartan, quiver_json) if o is not None]
    if len(given) != 1:
        raise click.UsageError("give exactly one of --quiver, --cartan, --quiver-json")
    # d bounds the input (--cartan and --quiver-json are checked as d x d
    # rows) and the frise work, so it is capped before anything is built
    if name is not None:
        digits = name.strip()[len(name.strip().rstrip("0123456789")):]
        if digits:
            _check_limit("diagram index", _data(int, digits), "ARTIFACT_MAX_VERTICES")
        return _data(parse_shorthand, name)
    if cartan is not None:
        try:
            rows = json.loads(cartan)
        except json.JSONDecodeError as exc:
            raise click.UsageError("--cartan is not valid JSON: %s" % exc)
        if isinstance(rows, list):
            _check_limit("Cartan rows", len(rows), "ARTIFACT_MAX_VERTICES")
        c = _data(validate_cartan, rows)
        # default orientation: every edge from the lower vertex id up
        return _data(Quiver, c, list(c.edges()))
    try:
        obj = json.loads(quiver_json)
    except json.JSONDecodeError as exc:
        raise click.UsageError("--quiver-json is not valid JSON: %s" % exc)
    vertices = obj.get("vertices") if isinstance(obj, dict) else None
    if type(vertices) is int:
        _check_limit("vertices", vertices, "ARTIFACT_MAX_VERTICES")
    return _data(quiver_from_json, obj)


# the exceptional names win over the Atilde series in parse_shorthand
_SHADOWED = ("Atilde11 and Atilde12 are the rank-2 exceptional diagrams; "
            "give the 12- and 13-cycles by %s.")

format_option = click.option(
    "--format", "fmt", type=click.Choice(("tsv", "json", "text")),
    default="text", show_default=True, help="Output encoding.")


@click.group()
def cli() -> None:
    """Frises, SL2-tilings, recurrences, and the verification suite."""
    click.echo("artifact %s" % __version__, err=True)


@cli.command("classify")
@click.option("--name", help="Catalog shorthand, e.g. A4, Atilde3, Dtilde6, kronecker. "
              + _SHADOWED % "--cartan")
@click.option("--cartan", help="Cartan matrix as a JSON list of rows.")
@format_option
def classify_cmd(name: str | None, cartan: str | None, fmt: str) -> None:
    """Classify a valued diagram and print its additive certificate."""
    if (name is None) == (cartan is None):
        raise click.UsageError("give exactly one of --name or --cartan")
    c = _quiver_from_options(name, cartan, None).cartan
    diagram = _data(classify, c)
    f = _data(find_additive_function, c)
    cert = None if f is None else [str(f[i]) for i in range(c.d)]
    status = None if f is None else _data(check_subadditive, c, f)
    obj = {"classification": str(diagram), "tag": diagram.tag, "kind": diagram.kind,
           "m": diagram.m, "additive": cert, "certificate": status}
    rows, lines = [[str(diagram)]], [str(diagram)]
    if cert is not None:
        rows.append(["additive"] + cert)
        lines.append("additive: %s" % " ".join(cert))
    _emit(fmt, obj, rows, lines)


@cli.command("frise")
@click.option("--quiver", "name", help="Catalog shorthand, e.g. A4, Atilde3, kronecker. "
              + _SHADOWED % "--cartan or --quiver-json")
@click.option("--cartan", help="Cartan matrix as a JSON list of rows.")
@click.option("--quiver-json", help='{"vertices": d, "edges": [{"from": i, "to": j, "val": [a, b]}]}.')
@click.option("--steps", type=int, default=8, show_default=True, help="Last step index.")
@click.option("--vars", "symbolic", is_flag=True, help="Laurent values over initial variables.")
@format_option
def frise_cmd(name, cartan, quiver_json, steps, symbolic, fmt) -> None:
    """Frise table: one row per vertex, one column per step."""
    if steps < 0:
        raise click.UsageError("--steps must be nonnegative")
    _check_limit("steps", steps, "ARTIFACT_MAX_STEPS")
    q = _quiver_from_options(name, cartan, quiver_json)
    fr = _data(frise_extend_vars if symbolic else frise_extend, q, steps)
    table = [fr.row(v) for v in range(q.cartan.d)]
    rows = [[str(x) for x in row] for row in table]
    values = rows if symbolic else [[_json_int(x) for x in row] for row in table]
    _emit(fmt, {"vertices": q.cartan.d, "steps": steps, "rows": values}, rows)


@cli.command("tile")
@click.option("--frontier", required=True, help="Frontier text '[LEFT]* CENTER [RIGHT]*'.")
@click.option("--region", nargs=4, type=int, required=True, metavar="U0 V0 U1 V1",
              help="Inclusive rectangle corners.")
@click.option("--oracle", is_flag=True, help="Fill by 2x2 completions instead of the word formula.")
@format_option
def tile_cmd(frontier, region, oracle, fmt) -> None:
    """Tiling values on a rectangle, top row = largest v."""
    u0, v0, u1, v1 = region
    if u0 > u1 or v0 > v1:
        raise click.UsageError("empty region: need U0<=U1 and V0<=V1")
    _check_limit("region cells", (u1 - u0 + 1) * (v1 - v0 + 1), "ARTIFACT_MAX_REGION")
    e = Embedding(_data(parse_frontier, frontier))
    _check_words(e, [(u, v) for u in (u0, u1) for v in (v0, v1)])
    if oracle:
        bu0, bv0, bu1, bv1 = brute_fill_box(e, region)[2]
        _check_limit("oracle box cells", (bu1 - bu0 + 1) * (bv1 - bv0 + 1), "ARTIFACT_MAX_REGION")
    grid = _data(brute_fill if oracle else tile_grid, e, region)
    table = [[grid[(u, v)] for u in range(u0, u1 + 1)] for v in range(v1, v0 - 1, -1)]
    _emit(fmt, {"region": list(region), "rows": [[_json_int(x) for x in row] for row in table]},
          [[str(x) for x in row] for row in table])


@cli.command("rays")
@click.option("--frontier", required=True, help="Frontier text '[LEFT]* CENTER [RIGHT]*'.")
@click.option("--origin", required=True, help="Start point 'u,v'.")
@click.option("--dir", "direction", required=True, help="Step 'a,b' with a*b <= 0.")
@click.option("--n", "count", type=int, default=16, show_default=True, help="Number of values.")
@format_option
def rays_cmd(frontier, origin, direction, count, fmt) -> None:
    """Tiling values along origin + n*dir."""
    if count < 1:
        raise click.UsageError("--n must be positive")
    _check_limit("ray length", count, "ARTIFACT_MAX_STEPS")
    e = Embedding(_data(parse_frontier, frontier))
    o = _pair(origin, "--origin")
    d = _pair(direction, "--dir")
    _check_words(e, [o, (o[0] + (count - 1) * d[0], o[1] + (count - 1) * d[1])])
    ray = _data(ray_values, e, o, d, count)
    values = [str(x) for x in ray.values]
    _emit(fmt, {"origin": list(o), "direction": list(d),
                "values": [_json_int(x) for x in ray.values]}, [values], values)


@cli.command("recur")
@click.option("--seq", help="Comma-separated integers.")
@click.option("--file", "source", type=click.File("r"),
              help="File of integers, '-' for stdin (also the default).")
@click.option("--max-order", type=int, default=8, show_default=True)
@format_option
def recur_cmd(seq, source, max_order, fmt) -> None:
    """Fit the minimal linear recurrence a window certifies."""
    if max_order < 1:
        raise click.UsageError("--max-order must be positive")
    _check_limit("order", max_order, "ARTIFACT_MAX_ORDER")
    if seq is None:
        text = (source or click.get_text_stream("stdin")).read()
    else:
        text = seq
    try:
        values = [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise click.UsageError("sequence entries must be integers")
    if not values:
        raise click.UsageError("empty sequence")
    rec = _data(find_min_recurrence, values, max_order)
    window = len(values)
    obj = {"window": window, "max_order": max_order, "order": None, "coeffs": None}
    if rec is None:
        rows = [["order", "none"], ["window", str(window)]]
        lines = ["no linear recurrence of order <= %d certified on %d terms"
                 % (max_order, window)]
    else:
        obj.update({"order": rec.order,
                    "coeffs": [[_json_int(c.numerator), _json_int(c.denominator)]
                               for c in rec.coeffs]})
        rows = [["order", str(rec.order)],
                ["coeffs"] + [str(c) for c in rec.coeffs],
                ["window", str(window)]]
        lines = [human_form(rec), "window: %d terms" % window]
    _emit(fmt, obj, rows, lines)


@cli.command("frieze")
@click.option("--letters", help="All-ones cross seed, e.g. yyxxxxyyy.")
@click.option("--seed", "seed_word", help="Symbolic seed, letters interleaved with names.")
@click.option("--stages", type=int, default=4, show_default=True,
              help="Figures stitched when measuring the translation period.")
@format_option
def frieze_cmd(letters, seed_word, stages, fmt) -> None:
    """Cross-construction frieze: the grid, plus its period in text/json."""
    if (letters is None) == (seed_word is None):
        raise click.UsageError("give exactly one of --letters or --seed")
    if stages < 3:
        raise click.UsageError("--stages must be at least 3")
    _check_limit("stages", stages, "ARTIFACT_MAX_STEPS")
    seed = _data(CrossSeed.parse, seed_word) if letters is None else _data(CrossSeed.ones, letters)
    pattern = _data(cross_construct, seed)
    rs = sorted({r for r, _ in pattern.cells})
    cs = sorted({c for _, c in pattern.cells})
    rows = [[str(pattern.cells[(r, c)]) if (r, c) in pattern.cells else ""
             for c in range(cs[0], cs[-1] + 1)] for r in range(rs[0], rs[-1] + 1)]
    period = _data(frieze_period, pattern, stages)
    _emit(fmt, {"rows": rows, "minors_checked": pattern.minors, "period": period}, rows,
          _aligned(rows) + ["period: %s" % period["period"],
                            "candidate: letters+3=%d" % period["candidate_letters_plus_3"]])


@cli.command("cluster-vars")
@click.option("--kind", required=True,
              help="A<n>, Atilde<m> (the (m+1)-cycle), or kronecker. As in the catalog, "
              "Atilde11 is kronecker and Atilde12 is refused.")
@click.option("--bound", type=int, default=8, show_default=True,
              help="Window length for the infinite families.")
@format_option
def cluster_vars_cmd(kind, bound, fmt) -> None:
    """Enumerate distinct cluster variables as Laurent polynomials."""
    if bound < 1:
        raise click.UsageError("--bound must be positive")
    _check_limit("bound", bound, "ARTIFACT_MAX_STEPS")
    vals = [str(v) for v in _data(enumerate_cluster_vars, kind, bound)]
    _emit(fmt, {"kind": kind, "bound": bound, "count": len(vals), "variables": vals},
          [[v] for v in vals], vals)


@cli.command("probe")
@click.option("--quiver", "name", help="Catalog shorthand, e.g. A4, Atilde3, kronecker. "
              + _SHADOWED % "--cartan or --quiver-json")
@click.option("--cartan", help="Cartan matrix as a JSON list of rows.")
@click.option("--quiver-json", help="Quiver as JSON (see frise --help).")
@click.option("--steps", type=int, default=64, show_default=True,
              help="Window; 64 certifies every catalog diagram of rank <= 8.")
@click.option("--max-order", type=int, default=16, show_default=True)
@format_option
def probe_cmd(name, cartan, quiver_json, steps, max_order, fmt) -> None:
    """Boundedness/recurrence probe against the classification."""
    if steps < 1 or max_order < 1:
        raise click.UsageError("--steps and --max-order must be positive")
    _check_limit("steps", steps, "ARTIFACT_MAX_STEPS")
    _check_limit("order", max_order, "ARTIFACT_MAX_ORDER")
    q = _quiver_from_options(name, cartan, quiver_json)
    report = _data(probe_conjecture, q, steps=steps, max_order=max_order)
    keys = ("diagram", "bounded", "period", "recurrence_orders",
            "recurrence_found", "expected", "consistent")
    _emit(fmt, report, [[k, str(report[k])] for k in keys],
          ["%s: %s" % (k, report[k]) for k in keys])


@cli.command("verify")
@click.option("--suite", "suites", multiple=True, default=("all",), show_default=True,
              help="Check names, or 'all'. Repeatable.")
@format_option
@click.pass_context
def verify_cmd(ctx, suites, fmt) -> None:
    """Run the reproducibility suite; exit 0 iff every check passes."""
    from .acceptance import run_suite  # here, so that the other commands start faster

    try:
        reports = run_suite(suites)
    except KeyError as exc:
        raise click.UsageError(exc.args[0])
    _emit(fmt, reports, [[r["name"], "PASS" if r["ok"] else "FAIL", r["detail"]]
                         for r in reports])
    if not all(r["ok"] for r in reports):
        ctx.exit(1)


def main() -> None:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2000000)
    cli(prog_name="artifact")


if __name__ == "__main__":
    main()
