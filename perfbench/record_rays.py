"""Record the ray digests that the integer-tiles oracle checks against.

Each ray is recomputed with ``brute_fill`` on the smallest rectangle that
covers it, which shares no code with ``tile_value``/``ray_values``. A
full fill takes minutes, too slow for every benchmark run, so the digests
are stored in rays.json. Run from the repository root after changing the
ray list:

    python3 perfbench/record_rays.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from artifact.tilings import Embedding, brute_fill, parse_frontier  # noqa: E402

from workloads import RAYS_FILE, ray_digest  # noqa: E402

RAYS = {
    "full": [
        ("[xxy]* [xyy]*", 0, (1, -1), 320),
        ("[xy]* [xxyy]*", 3, (1, 0), 448),
        ("[xxxy]* [xxxy]*", 0, (0, -1), 384),
        ("[xyy]* yx [xxy]*", 2, (2, -1), 224),
        ("[xyxxy]* yy [xyy]*", -2, (1, -2), 160),
    ],
    "tiny": [
        ("[xxy]* [xyy]*", 0, (1, -1), 24),
    ],
}


def brute_ray(frontier: str, vertex: int, direction: tuple[int, int], count: int) -> list[int]:
    e = Embedding(parse_frontier(frontier))
    u0, v0 = e.vertex(vertex)
    a, b = direction
    points = [(u0 + n * a, v0 + n * b) for n in range(count)]
    us, vs = [p[0] for p in points], [p[1] for p in points]
    grid = brute_fill(e, (min(us), min(vs), max(us), max(vs)))
    return [grid[p] for p in points]


def main() -> None:
    out: dict[str, list[dict]] = {}
    for size, rays in RAYS.items():
        out[size] = []
        for frontier, vertex, direction, count in rays:
            start = time.perf_counter()
            values = brute_ray(frontier, vertex, direction, count)
            print("%s V%d %r x%d: %.1f s" % (frontier, vertex, direction, count,
                                            time.perf_counter() - start), file=sys.stderr)
            out[size].append({
                "frontier": frontier, "vertex": vertex, "direction": list(direction),
                "count": count, "sha256": ray_digest(values),
            })
    RAYS_FILE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
