"""Integer tiling values by the routes tile_values replaced, kept as oracles.

The library computes every integer value as one bilinear pairing of two
prefix products of step matrices (`tilings.tile_values`). This module
keeps the two routes it replaced: one step product over each point's own
word, and the ray kernel that extends nested transfer matrices from the
shortest word out. It also keeps the vertex-by-vertex walk that found
brute_fill's box before `tilings.brute_fill_box` read it off the runs.
"""

from __future__ import annotations

from artifact.tilings import Embedding, Mat2, Point, Region, step_product, word_of_point


def tile_value_by_word(e: Embedding, p: Point) -> int:
    """(1,1) M(x_2) ... M(x_n) (1,1)^T over p's own word; path points give 1.

    Above the path the word is that of the swapped point below the mirror.
    """
    side = e.locate(p)[0]
    if side == "on":
        return 1
    word = word_of_point(e, p) if side == "below" else word_of_point(e.mirror(), p[::-1])
    (a, b), (c, d) = step_product(word[1:-1])
    return a + b + c + d


def _mul2(a: Mat2, b: Mat2) -> Mat2:
    (p, q), (r, s) = a
    (t, u), (v, w) = b
    return (p * t + q * v, p * u + q * w), (r * t + s * v, r * u + s * w)


def ray_values_nested(e: Embedding, origin: Point, direction: Point, count: int) -> tuple:
    """t(origin + n*direction) for n < count, by nested transfer matrices.

    On each side the ray's words are nested, so the points are taken from
    the shortest word out and each value extends the previous inner product
    by the step matrices of the new letters at each end.
    """
    a, b = direction
    vals = [1] * count
    spans: dict[str, list[tuple[int, int, int]]] = {}
    for n in range(count):
        side, first, last = e.locate((origin[0] + n * a, origin[1] + n * b))
        if side != "on":
            spans.setdefault(side, []).append((first, last, n))
    for side, points in spans.items():
        fr = (e.mirror() if side == "above" else e).frontier
        m = None
        for f2, l2, n in sorted(points, key=lambda s: s[1] - s[0]):
            if m is not None and f2 <= f and l <= l2:
                m = step_product(fr.factor(l, l2), _mul2(step_product(fr.factor(f2 + 1, f + 1)), m))
            else:
                m = step_product(fr.factor(f2 + 1, l2))
            f, l = f2, l2
            vals[n] = sum(m[0]) + sum(m[1])
    return tuple(vals)


def brute_fill_box_by_walk(e: Embedding, region: Region) -> tuple[int, int, Region]:
    """tilings.brute_fill_box by stepping out from vertex 0 one vertex at a
    time until the walk is past the region on both axes, each way."""
    u0, v0, u1, v1 = region
    lo = 0
    while not (e.vertex(lo)[0] < u0 - 1 and e.vertex(lo)[1] < v0 - 1):
        lo -= 1
    hi = 0
    while not (e.vertex(hi)[0] > u1 + 1 and e.vertex(hi)[1] > v1 + 1):
        hi += 1
    walk = [e.vertex(i) for i in range(lo, hi + 1)]
    us = [p[0] for p in walk] + [u0, u1]
    vs = [p[1] for p in walk] + [v0, v1]
    return lo, hi, (min(us), min(vs), max(us), max(vs))
