import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artifact.acceptance import INTRO_GRID_PRINTED
from artifact.cli import _word_length
from artifact.cluster import variable_tile_value
from artifact.laurent import LaurentPoly
from artifact.tilings import (
    Embedding,
    Frontier,
    InadmissibleFrontier,
    InconsistentGeometry,
    NotPythagorean,
    PeriodicFrontier,
    PointOnOrAboveFrontier,
    Ray,
    SquareEmbedding,
    brute_fill,
    brute_fill_box,
    frontier_to_text,
    parse_frontier,
    pythagorean_triple,
    ray_values,
    step_product,
    swap_word,
    tile_grid,
    tile_value,
    tile_values,
    transpose_word,
    verify_quadratic_lemma,
    verify_sl2,
    verify_square_lemma,
    word_of_point,
)
from tiling_oracles import brute_fill_box_by_walk, ray_values_nested, tile_value_by_word

# The big staircase grid: head of the right tail, continued by an xy zigzag.
PREFIX = "xyxxxyyyyyxyyyx"

words = st.text(alphabet="xy", min_size=0, max_size=10)


def test_transpose_and_swap():
    assert transpose_word("xxxy") == "xyyy"
    assert transpose_word("xy") == "xy"
    assert swap_word("xxxy") == "yyyx"
    assert transpose_word(PREFIX) == "yxxxyxxxxxyyyxy"


@given(words)
def test_transpose_involution(w):
    assert transpose_word(transpose_word(w)) == w
    assert swap_word(swap_word(w)) == w
    assert transpose_word(w) == swap_word(w[::-1])


def test_frontier_parse_and_render():
    fr = parse_frontier("[xy]* yyx [xxy]*")
    assert (fr.left, fr.center, fr.right) == ("xy", "yyx", "xxy")
    assert frontier_to_text(fr) == "[xy]* yyx [xxy]*"
    empty = parse_frontier("[xxxy]*   [xxxy]*")
    assert empty.center == ""
    assert frontier_to_text(empty) == "[xxxy]* [xxxy]*"
    assert parse_frontier(frontier_to_text(empty)) == empty
    with pytest.raises(ValueError):
        parse_frontier("[xy] yx [xy]*")
    with pytest.raises(ValueError):
        Frontier("xz", "", "xy")


def test_frontier_admissibility():
    with pytest.raises(InadmissibleFrontier):
        Frontier("xx", "y", "xy")
    with pytest.raises(InadmissibleFrontier):
        Frontier("xy", "y", "yyy")
    with pytest.raises(InadmissibleFrontier):
        Frontier("", "y", "xy")


def test_frontier_letter_indexing():
    fr = Frontier("xy", "yx", "xxy")
    assert [fr.letter(i) for i in range(2, 8)] == list("xxyxxy")
    assert fr.letter(-1) == "y" and fr.letter(-2) == "x" and fr.letter(-3) == "y"
    assert fr.factor(-2, 4) == "xyyxxx"


def test_word_of_point_corner():
    e = Embedding(parse_frontier("[xy]* [xy]*"))
    assert word_of_point(e, (1, -1)) == "yx"
    assert tile_value(e, (1, -1)) == 2
    with pytest.raises(PointOnOrAboveFrontier):
        word_of_point(e, (0, 0))
    with pytest.raises(PointOnOrAboveFrontier):
        word_of_point(e, (0, 5))


def test_illustration_point():
    # lone zigzag bump: the cut factor of the point under its far corner
    e = Embedding(Frontier("xy", "yyyxxyx", "xy"))
    assert word_of_point(e, (3, 0)) == "yyyxxyx"
    assert tile_value(e, (3, 0)) == 17
    region = (0, -2, 5, 2)
    assert tile_grid(e, region) == brute_fill(e, region)


def word_value(word: str) -> int:
    """(0,1) M(word) (0,1)^T over all letters of the word."""
    return step_product(word)[1][1]


@given(st.text(alphabet="xy", min_size=0, max_size=12))
def test_word_value_matches_stripped_form(mid):
    # absorbing the leading y and trailing x into the boundary vectors
    w = "y" + mid + "x"
    a, b = 1, 1
    for ch in mid:
        a, b = (a, a + b) if ch == "x" else (a + b, b)
    assert word_value(w) == a + b


@given(words.filter(bool))
def test_word_value_transpose_invariant(w):
    assert word_value(w) == word_value(transpose_word(w))


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def load_grid(name):
    """Read a TSV grid; keys are (row, column) of the nonempty cells."""
    lines = (FIXTURES / name).read_text().splitlines()
    return {(r, c): int(cell) for r, line in enumerate(lines)
            for c, cell in enumerate(line.split("\t")) if cell.strip()}


def _check_fixture(name, to_uv, e, region):
    printed = load_grid(name)
    assert printed
    grid = tile_grid(e, region)
    assert grid == brute_fill(e, region)
    verify_sl2(grid)
    for (r, c), val in printed.items():
        assert grid[to_uv(r, c)] == val, ((r, c), val)
    return grid


def intro_embedding() -> Embedding:
    return Embedding(Frontier("xy", transpose_word(PREFIX) + "yy" + PREFIX, "xy"))


def test_intro_grid():
    e = intro_embedding()
    grid = _check_fixture("intro_grid.tsv", lambda r, c: (c, 9 - r), e, (0, 0, 13, 9))
    assert grid[(10, 0)] == 576
    assert word_of_point(e, (10, 3)) == "yyxyyyx"
    assert grid[(10, 3)] == 14


def test_intro_grid_literal_matches_the_fixture():
    literal = {(r, c0 + k): val for r, (c0, vals) in INTRO_GRID_PRINTED.items()
               for k, val in enumerate(vals)}
    assert literal == load_grid("intro_grid.tsv")


def test_atilde3_grid():
    e = Embedding(parse_frontier("[xxxy]* [xxxy]*"))
    _check_fixture("atilde3_grid.tsv", lambda r, c: (c - 3, 3 - r), e, (-3, -2, 9, 3))
    diags = [ray_values(e, e.vertex(j), (1, -1), 3).values for j in range(4)]
    assert diags == [(1, 2, 14), (1, 3, 19), (1, 4, 43), (1, 9, 67)]


def test_quadratic_grid():
    e = Embedding(PeriodicFrontier("xyxx", 1, 0))
    _check_fixture("quadratic_grid.tsv", lambda r, c: (c - 4, 8 - r), e, (-4, -3, 6, 8))
    # corner rays on both corners of the period
    assert ray_values(e, (4, 2), (1, 0), 3).values == (1, 4, 19)
    assert ray_values(e, (4, 1), (1, -1), 3).values == (2, 32, 722)
    assert ray_values(e, (4, 0), (1, -1), 2).values == (7, 151)
    assert ray_values(e, (-1, 0), (0, -1), 4).values == (1, 2, 5, 8)
    assert ray_values(e, (0, 0), (1, -1), 3).values == (1, 4, 25)
    assert ray_values(e, (1, 0), (1, -1), 3).values == (1, 9, 39)


def test_staircase_diagonal_ray():
    e = Embedding(parse_frontier("[xy]* [xy]*"))
    region = (-1, -4, 4, 1)
    assert tile_grid(e, region) == brute_fill(e, region)
    # hugging diagonal: grows fast rather than staying constant
    assert ray_values(e, (1, -1), (1, -1), 3).values == (2, 13, 89)


def test_mirror_side():
    e = Embedding(parse_frontier("[xy]* [xy]*"))
    assert e.locate((0, 2))[0] == "above"
    assert tile_value(e, (0, 1)) == 2
    assert tile_value(e, (0, 2)) == 5
    assert tile_value(e, (-1, 1)) == 5


def test_intro_square_lemma():
    e = SquareEmbedding((PREFIX, "xy"), 0)
    assert e.frontier == intro_embedding().frontier
    assert e.point_i == (9, 7)
    assert e.i_values(5) == (1, 2, 5, 8, 11)
    assert e.j_values(5) == (1, 4, 25, 64, 121)
    assert e.k_values(4) == (1, 9, 39, 87)
    assert e.k_right_values(4) == (3, 11, 41, 89)
    checks = verify_square_lemma(e, 8)
    assert all(c["square_ok"] and c["product_ok"] for c in checks)
    i = e.i_values(5)
    assert all(kr == i[n] * i[n + 1] + 1 for n, kr in enumerate(e.k_right_values(4)))
    assert pythagorean_triple(e, 0) == (5, 3, 4)
    assert pythagorean_triple(e, 1) == (29, 21, 20)


def test_square_lemma_rotated_quadratic_block():
    # the right period block of the h=1, h'=0 frontier, rotated to start just
    # past its upper corner, exposes the doubled-square diagonal
    fr = PeriodicFrontier("xyxx", 1, 0)
    cut = len(fr.w) + fr.h + 2
    e = SquareEmbedding(fr.right[cut:] + fr.right[:cut], fr.h)
    assert e.frontier.center == "yxy"
    assert e.j_values(3) == (2, 32, 722)
    assert e.k_values(1) == (7,)
    assert all(c["square_ok"] and c["product_ok"] for c in verify_square_lemma(e, 5))
    assert pythagorean_triple(e, 0) == (34, 30, 16)


def test_square_lemma_deeper_notch():
    e = SquareEmbedding("xxyy", 2)
    iu, iv = e.point_i
    region = (iu - 2, iv - 5, iu + 5, iv + 1)
    assert tile_grid(e, region) == brute_fill(e, region)
    assert all(c["square_ok"] and c["product_ok"] for c in verify_square_lemma(e, 4))
    assert e.j_values(1) == (3 * e.i_values(1)[0] ** 2,)


def test_periodic_frontier_blocks():
    fr = PeriodicFrontier("xyxx", 1, 0)
    assert fr.left == "xyxxxyxyyxyxx"
    assert fr.right == "xyxxyxyyyxyyy"
    assert fr.center == ""
    # both-letter degeneracy only happens for the empty seed with no notch
    with pytest.raises(InadmissibleFrontier):
        PeriodicFrontier("", 0, 0)
    PeriodicFrontier("x", 0, 0)
    PeriodicFrontier("", 1, 0)
    with pytest.raises(ValueError):
        PeriodicFrontier("xy", -1, 0)


def test_quadratic_lemma_checks():
    e = Embedding(PeriodicFrontier("xyxx", 1, 0))
    res = verify_quadratic_lemma(e, 4)
    assert res["all_ok"]
    assert {c["pair"] for c in res["cases"]} == {"xy", "yx", "xx"}
    assert len(res["primed"]) == 5

    # a single-letter seed has no interior positions to check
    res1 = verify_quadratic_lemma(Embedding(PeriodicFrontier("x", 1, 1)), 3)
    assert res1["cases"] == [] and res1["all_ok"]

    with pytest.raises(TypeError):
        verify_quadratic_lemma(Embedding(parse_frontier("[xy]* [xy]*")), 2)


def test_quadratic_lemma_sweep():
    from itertools import product

    seeds = ["".join(p) for n in range(4) for p in product("xy", repeat=n)]
    for w in seeds:
        for h in range(3):
            for hp in range(3):
                if w == "" and h == 0 and hp == 0:
                    continue
                res = verify_quadratic_lemma(Embedding(PeriodicFrontier(w, h, hp)), 3)
                assert res["all_ok"], (w, h, hp)


def _random_frontier(rng: random.Random) -> Frontier:
    def block() -> str:
        n = rng.randint(2, 6)
        letters = ["x", "y"] + [rng.choice("xy") for _ in range(n - 2)]
        rng.shuffle(letters)
        return "".join(letters)

    center = "".join(rng.choice("xy") for _ in range(rng.randint(0, 6)))
    return Frontier(block(), center, block())


def test_fuzz_tile_matches_brute_fill():
    rng = random.Random(7)
    for _ in range(30):
        e = Embedding(_random_frontier(rng))
        du, dv = rng.randint(-6, 1), rng.randint(-6, 1)
        region = (du, dv, du + 7, dv + 7)
        grid = tile_grid(e, region)
        assert grid == brute_fill(e, region)
        verify_sl2(grid)
        assert min(grid.values()) >= 1


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(-12, 12), st.integers(-12, 12),
       st.integers(0, 8), st.integers(0, 8))
def test_brute_fill_box_matches_the_vertex_walk(rng, u0, v0, du, dv):
    e = Embedding(_random_frontier(rng))
    region = (u0, v0, u0 + du, v0 + dv)
    assert brute_fill_box(e, region) == brute_fill_box_by_walk(e, region)


@pytest.mark.parametrize("kind", ["integer", "laurent"])
def test_verify_sl2_counts_the_blocks_and_names_a_broken_one(kind):
    e = Embedding(parse_frontier("[xxy]* yx [xyy]*"))
    points = [(u, v) for u in range(-4, 4) for v in range(-4, 4)]
    if kind == "integer":
        grid = tile_grid(e, (-4, -4, 3, 3))
    else:
        grid = {p: variable_tile_value(e, lambda i: "u%d" % (i % 5 + 1), p) for p in points}
    assert list(grid) == points
    assert {e.locate(p)[0] for p in points} == {"below", "on", "above"}
    assert verify_sl2(grid) == 49
    # (0, 1) is vertex 1; of its four blocks, the one at corner (-1, 0) comes first
    grid[(0, 1)] = grid[(0, 1)] + 1 if kind == "integer" else grid[(0, 1)] * LaurentPoly.var("z")
    with pytest.raises(ArithmeticError, match=re.escape("corner (-1, 0)")):
        verify_sl2(grid)


def test_ray_validation():
    e = Embedding(parse_frontier("[xy]* [xy]*"))
    with pytest.raises(ValueError):
        ray_values(e, (0, 0), (1, 1), 3)
    with pytest.raises(ValueError):
        ray_values(e, (0, 0), (0, 0), 3)
    with pytest.raises(ValueError, match="count must be at least 0"):
        ray_values(e, (0, 0), (1, 0), -1)
    assert ray_values(e, (0, 0), (1, 0), 0) == Ray((0, 0), (1, 0), ())
    ray = ray_values(e, (2, 0), (1, 0), 4)
    assert isinstance(ray, Ray)
    assert ray.values[0] == tile_value(e, (2, 0))


@pytest.mark.parametrize("region", [(1, 0, 0, 0), (0, 1, 0, 0), (3, 3, -3, -3)])
def test_empty_region_raises_like_brute_fill(region):
    e = Embedding(parse_frontier("[xy]* [xy]*"))
    for fill in (tile_grid, brute_fill):
        with pytest.raises(ValueError, match=r"empty region \(%d, %d, %d, %d\)" % region):
            fill(e, region)


# ----------------------------------------------------------------------
# differential oracle: the walking embedding that the closed form replaced

_STEP = {"x": (1, 0), "y": (0, 1)}


class WalkingEmbedding:
    """Vertices by stepping out from index 0, runs by scanning past them."""

    def __init__(self, frontier: Frontier):
        self.frontier = frontier
        self._fwd = [(0, 0)]  # V_0, V_1, ...
        self._bwd = [(0, 0)]  # V_0, V_-1, ...

    def vertex(self, i: int):
        if i >= 0:
            while len(self._fwd) <= i:
                k = len(self._fwd)
                u, v = self._fwd[k - 1]
                du, dv = _STEP[self.frontier.letter(k - 1)]
                self._fwd.append((u + du, v + dv))
            return self._fwd[i]
        while len(self._bwd) <= -i:
            k = len(self._bwd)
            u, v = self._bwd[k - 1]
            du, dv = _STEP[self.frontier.letter(-k)]
            self._bwd.append((u - du, v - dv))
        return self._bwd[-i]

    def _index_range_covering(self, coord: int, axis: int):
        lo = 0
        while self.vertex(lo)[axis] >= coord:
            lo -= 1
        hi = 0
        while self.vertex(hi)[axis] <= coord:
            hi += 1
        return lo, hi

    def _run(self, coord: int, axis: int):
        lo, hi = self._index_range_covering(coord, axis)
        hits = [i for i in range(lo, hi + 1) if self.vertex(i)[axis] == coord]
        return hits[0], hits[-1]

    def column_run(self, u: int):
        return self._run(u, 0)

    def row_run(self, v: int):
        return self._run(v, 1)

    def classify(self, p):
        u, v = p
        ilo, ihi = self.column_run(u)
        if v < self.vertex(ilo)[1]:
            return "below"
        if v <= self.vertex(ihi)[1]:
            return "on"
        return "above"


blocks = st.text(alphabet="xy", min_size=2, max_size=7).filter(lambda w: "x" in w and "y" in w)


@st.composite
def embeddings(draw) -> Embedding:
    """Random frontiers with and without a center, square and periodic
    frontiers, and their mirrors."""
    kind = draw(st.sampled_from(["plain", "centered", "square", "periodic"]))
    if kind == "square":
        s = draw(st.one_of(blocks, st.tuples(words, blocks)))
        e = SquareEmbedding(s, draw(st.integers(0, 3)))
    else:
        if kind == "periodic":
            fr = PeriodicFrontier(draw(st.text(alphabet="xy", max_size=4)),
                                  draw(st.integers(1, 3)), draw(st.integers(0, 3)))
        else:
            center = ""
            if kind == "centered":
                center = draw(st.text(alphabet="xy", min_size=1, max_size=8))
            fr = Frontier(draw(blocks), center, draw(blocks))
        e = Embedding(fr)
    return e.mirror() if draw(st.booleans()) else e


@settings(max_examples=150, deadline=None)
@given(embeddings(), st.integers(-200, 200))
def test_closed_form_geometry_matches_walk(e, far):
    walk = WalkingEmbedding(e.frontier)
    for i in list(range(-30, 31)) + [far]:
        assert e.vertex(i) == walk.vertex(i), i
    (ulo, vlo), (uhi, vhi) = walk.vertex(-30), walk.vertex(30)
    for u in range(ulo, uhi + 1):
        assert e.column_run(u) == walk.column_run(u), u
    for v in range(vlo, vhi + 1):
        assert e.row_run(v) == walk.row_run(v), v
    (ulo, vlo), (uhi, vhi) = walk.vertex(-10), walk.vertex(10)
    for u in range(ulo - 2, uhi + 3):
        for v in range(vlo - 2, vhi + 3):
            assert e.locate((u, v))[0] == walk.classify((u, v)), (u, v)


def _walk_span(walk: WalkingEmbedding, p):
    # from the y leaving the last vertex on row v to the x entering column u
    u, v = p
    return walk.row_run(v)[1], walk.column_run(u)[0] - 1


@settings(max_examples=150, deadline=None)
@given(embeddings())
def test_locate_matches_walk(e):
    walk = WalkingEmbedding(e.frontier)
    walk_mirror = WalkingEmbedding(e.frontier.swapped())
    (ulo, vlo), (uhi, vhi) = walk.vertex(-10), walk.vertex(10)
    for u in range(ulo - 2, uhi + 3):
        for v in range(vlo - 2, vhi + 3):
            side, first, last = e.locate((u, v))
            assert side == walk.classify((u, v)), (u, v)
            if side == "below":
                assert (first, last) == _walk_span(walk, (u, v)), (u, v)
            elif side == "above":
                assert (first, last) == _walk_span(walk_mirror, (v, u)), (u, v)
            else:
                assert first == last and walk.vertex(first) == (u, v), (u, v)


@settings(max_examples=150, deadline=None)
@given(embeddings(), st.integers(-10, 10), st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
       st.sampled_from([(1, -1), (-1, 1), (1, 0), (0, -1), (-1, 0), (0, 1)]),
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 24))
def test_ray_values_match_pointwise_tile_value(e, k, offset, signs, a, b, count):
    # start near vertex k, so that rays often start on or above the frontier
    # and cross it
    (u, v), d = e.vertex(k), (signs[0] * a, signs[1] * b)
    origin = (u + offset[0], v + offset[1])
    expected = tuple(tile_value_by_word(e, (origin[0] + n * d[0], origin[1] + n * d[1]))
                     for n in range(count))
    assert ray_values(e, origin, d, count).values == expected
    assert ray_values_nested(e, origin, d, count) == expected


@pytest.mark.parametrize("origin, direction, sides", [
    ((-3, 3), (1, -1), ["above", "on", "below"]),
    ((6, -6), (-1, 1), ["below", "on", "above"]),
    ((1, 6), (0, -1), ["above", "on", "below"]),
    ((4, 3), (-1, 0), ["on", "above"]),
    ((0, 0), (2, -1), ["on", "below"]),
])
def test_rays_crossing_the_frontier_match_tile_value(origin, direction, sides):
    e = Embedding(parse_frontier("[xy]* yy [xxy]*"))
    points = [(origin[0] + n * direction[0], origin[1] + n * direction[1]) for n in range(14)]
    seen = [e.locate(p)[0] for p in points]
    assert [s for i, s in enumerate(seen) if i == 0 or s != seen[i - 1]] == sides
    expected = tuple(tile_value_by_word(e, p) for p in points)
    assert ray_values(e, origin, direction, 14).values == expected
    assert ray_values(e, origin, direction, 1).values == expected[:1]


def _tile_grid_by_cells(e, region):
    """One word product per cell."""
    u0, v0, u1, v1 = region
    return {(u, v): tile_value_by_word(e, (u, v))
            for u in range(u0, u1 + 1) for v in range(v0, v1 + 1)}


@settings(max_examples=150, deadline=None)
@given(embeddings(), st.integers(-10, 10), st.tuples(st.integers(-8, 4), st.integers(-8, 4)),
       st.integers(0, 6), st.integers(0, 6))
def test_tile_grid_matches_cellwise_tile_value(e, k, offset, width, height):
    # regions near vertex k straddle the frontier, so columns cross it
    u, v = e.vertex(k)
    region = (u + offset[0], v + offset[1], u + offset[0] + width, v + offset[1] + height)
    grid = tile_grid(e, region)
    expected = _tile_grid_by_cells(e, region)
    assert grid == expected
    assert list(grid) == list(expected)


DIRECTIONS = sorted({(sa * a, sb * b) for a in range(4) for b in range(4)
                     for sa, sb in ((1, -1), (-1, 1)) if (a, b) != (0, 0)})


@settings(max_examples=100, deadline=None)
@given(embeddings(), st.integers(-10, 10), st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
       st.sampled_from(DIRECTIONS), st.integers(0, 200))
def test_long_rays_match_the_nested_transfer_matrices(e, k, offset, d, count):
    # every direction with a*b <= 0 and |a|, |b| <= 3, long enough that the
    # prefix products and the pairing's terms run to hundreds of digits
    u, v = e.vertex(k)
    origin = (u + offset[0], v + offset[1])
    assert ray_values(e, origin, d, count).values == ray_values_nested(e, origin, d, count)


@settings(max_examples=150, deadline=None)
@given(embeddings(), st.integers(-10, 10),
       st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=12))
def test_tile_values_match_the_word_product(e, k, offsets):
    # scattered points on both sides of the path and on it, repeats allowed
    u, v = e.vertex(k)
    points = [(u + du, v + dv) for du, dv in offsets]
    expected = [tile_value_by_word(e, p) for p in points]
    assert tile_values(e, points) == expected
    assert [tile_value(e, p) for p in points] == expected


@settings(max_examples=150, deadline=None)
@given(embeddings(), st.integers(-40, 40), st.integers(-40, 40))
def test_factor_slices_match_the_letters(e, start, stop):
    # ranges start and stop in either tail or the center, cross it, or are empty
    fr = e.frontier
    assert fr.factor(start, stop) == "".join(fr.letter(i) for i in range(start, stop))


@settings(max_examples=150, deadline=None)
@given(embeddings(), st.integers(-10, 10), st.tuples(st.integers(-8, 4), st.integers(-8, 4)),
       st.integers(0, 6), st.integers(0, 6), st.sampled_from(DIRECTIONS), st.integers(1, 40))
def test_walks_stay_within_the_cli_word_budget(e, k, offset, width, height, d, count):
    # the CLI caps the words at a tile rectangle's corners and a ray's ends;
    # each side's walk reads one factor, which that cap must bound
    u, v = e.vertex(k)
    u0, v0 = u + offset[0], v + offset[1]
    u1, v1 = u0 + width, v0 + height
    corners = [(u0, v0), (u0, v1), (u1, v0), (u1, v1)]
    end = (u0 + (count - 1) * d[0], v0 + (count - 1) * d[1])
    factor = Frontier.factor
    for fill, ends in ((lambda: tile_grid(e, (u0, v0, u1, v1)), corners),
                       (lambda: ray_values(e, (u0, v0), d, count), [(u0, v0), end])):
        walked = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Frontier, "factor",
                       lambda self, a, b: walked.append(b - a) or factor(self, a, b))
            fill()
        assert len(walked) <= 2
        assert max(walked, default=0) <= max(_word_length(e, p) for p in ends) + 2


# ----------------------------------------------------------------------
# the geometry self-checks are exceptions, so they survive python -O


def test_malformed_point_word_raises_arithmetic_error(monkeypatch):
    import artifact.tilings as tilings_mod

    e = Embedding(parse_frontier("[xy]* [xy]*"))
    monkeypatch.setattr(tilings_mod, "word_span", lambda e, p: (0, 1))  # letters "xy"
    with pytest.raises(InconsistentGeometry, match="not y...x"):
        word_of_point(e, (1, -1))


def test_broken_square_triple_raises_arithmetic_error(monkeypatch):
    e = SquareEmbedding("xxy", 1)
    k = SquareEmbedding.k_values
    monkeypatch.setattr(SquareEmbedding, "k_values",
                        lambda self, count: tuple(v + 1 for v in k(self, count)))
    with pytest.raises(NotPythagorean):
        pythagorean_triple(e, 0)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="xy", max_size=8), st.integers(0, 5), st.integers(0, 5))
def test_periodic_frontier_is_transpose_symmetric_about_both_corners(w, h, hp):
    # over two full tail periods: rightward from the upper corner against
    # leftward from the end of w, leftward from the lower corner against
    # rightward from 0
    assume(w or h or hp)  # else both tails are constant
    fr = PeriodicFrontier(w, h, hp)
    k, upper, lower, n = len(w), len(w) + h + 2, -(hp + 3), 2 * len(fr.right)
    assert transpose_word(fr.factor(upper, upper + n)) == fr.factor(k - n, k)
    assert transpose_word(fr.factor(lower - n + 1, lower + 1)) == fr.factor(0, n)


@pytest.mark.parametrize("axis, step, fill", [
    # every row run one vertex early: a row's words start with an x
    (1, -1, lambda e: tile_grid(e, (1, -4, 4, -1))),
    # every column run one vertex late: a column's words end with a y
    (0, 1, lambda e: ray_values(e, (0, -3), (1, 0), 5)),
    (0, 1, lambda e: tile_value(e, (1, -1))),
])
def test_inconsistent_runs_raise_arithmetic_error(monkeypatch, axis, step, fill):
    e = Embedding(parse_frontier("[xy]* [xy]*"))
    after = Embedding._after
    monkeypatch.setattr(Embedding, "_after", lambda self, t, a: after(self, t, a) + step * (a == axis))
    with pytest.raises(InconsistentGeometry, match="not y...x"):
        fill(e)
