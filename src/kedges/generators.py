"""Deterministic point-set generators.

Every generator is a pure function of (kind, n, seed, scale): the
seeded kinds draw from Python's Mersenne Twister (``random.Random``),
whose integer output is stable across platforms and versions, so equal
specs always reproduce identical sets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb

from .bounds import crossing_lower_bound_exact
from .crossings import is_convex_quadrilateral
from .geometry import Point, PointSet, extends_general_position

KINDS = ("random-disc", "convex", "three-cluster", "grid-search")

# largest number of candidate subsets the grid-search kind will walk
# exhaustively before falling back to seeded random sampling
_EXHAUSTIVE_BUDGET = 300_000

_RANDOM_DISC_TRIES = 200_000
_RANDOM_SEARCH_TRIALS = 4_000
# general-position checks the grid-search kind spends on its row-by-row
# backtracking search when no random sample is in general position
_BACKTRACK_BUDGET = 200_000


class GenerationError(RuntimeError):
    """A generator exhausted its retry budget without a valid set."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a reproducible point set.

    ``scale`` bounds the coordinate radius; 0 picks a per-kind default
    (1000 for random-disc, 1 for convex, the cluster-separation formula
    for three-cluster, 2 for grid-search).
    """

    kind: str
    n: int
    seed: int = 0
    scale: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown generator kind %r (choose from %s)" % (self.kind, ", ".join(KINDS)))
        if self.n < 3:
            raise ValueError("need n >= 3, got %d" % self.n)
        if self.seed < 0 or self.seed >= 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")


def _random_disc(n: int, seed: int, scale: int) -> PointSet:
    """Points drawn uniformly from the integer disc of radius scale,
    rejecting draws that break general position."""
    r = scale or 1000
    rng = random.Random(seed)
    pts = []
    drawn = set()
    for _ in range(_RANDOM_DISC_TRIES):
        if len(pts) == n:
            break
        x = rng.randint(-r, r)
        y = rng.randint(-r, r)
        if x * x + y * y > r * r or (x, y) in drawn:
            continue
        # pts only grows, so a draw rejected once is rejected for good
        drawn.add((x, y))
        cand = Point(x, y)
        if extends_general_position(pts, cand):
            pts.append(cand)
    if len(pts) < n:
        raise GenerationError(
            "could not place %d points in general position in a disc of radius %d" % (n, r)
        )
    return PointSet(pts)


def _convex(n: int, scale: int) -> PointSet:
    # points of a parabola are in convex and general position; the
    # spread keeps coordinates symmetric about the y axis
    s = scale or 1
    pts = []
    for i in range(n):
        dx = 2 * i - (n - 1)
        pts.append((s * dx, s * dx * dx))
    return PointSet(pts)


def _three_cluster(n: int, scale: int) -> PointSet:
    """Three tight, nearly radial strings of points near the corners of
    a huge triangle.

    The corner separation dwarfs the cluster extent, so a line through
    two different clusters splits each remaining cluster trivially; the
    shallow edge depths are then realized exclusively by corner-to-
    corner pairs, one count per split of the depth between the two
    outer tails.
    """
    L = max(scale, 512 * n ** 4)
    step = 8 * n ** 3
    corners = ((0, 2 * L), (-2 * L, -L), (2 * L, -L))
    radial = ((0, -1), (2, 1), (-2, 1))
    perp = ((1, 0), (-1, 2), (1, 2))
    third = n // 3
    # the first cluster takes the ceiling share, the last the floor
    sizes = ((n + 2) // 3, n - (n + 2) // 3 - third, third)
    pts = []
    for c in range(3):
        cx, cy = corners[c]
        rx, ry = radial[c]
        px, py = perp[c]
        for i in range(1, sizes[c] + 1):
            wiggle = (c + 1) * (i - 1) ** 2
            pts.append((cx + step * i * rx + wiggle * px, cy + step * i * ry + wiggle * py))
    return PointSet(pts)


def _grid_search(n: int, seed: int, scale: int) -> PointSet:
    """A crossing-minimal (or heuristically low-crossing) set on the
    integer grid [-scale, scale]^2.

    When the n-subsets fit the exhaustive budget the grid is walked
    depth first, cells in increasing order, so sets arise in
    ``itertools.combinations`` order.  A prefix grows only by a cell
    that keeps it in general position, and its count by the new point's
    convex quadruples.  Adding a point never removes one, so a prefix
    with as many crossings as the best set is cut: no completion could
    replace the first set of least crossings.  Otherwise seeded samples
    in general position are counted the same way, and if none is in
    general position a row-by-row backtracking search supplies the set.
    Both stop at a set meeting ``crossing_lower_bound_exact(n)``, which
    no n-point set beats.  So the result is the set a full count of
    every subset (or sample) would pick.
    """
    r = scale or 2
    if n > 2 * (2 * r + 1):
        raise ValueError(
            "n=%d exceeds %d: the %d rows of the grid of radius %d hold at most two points each"
            " in general position" % (n, 2 * (2 * r + 1), 2 * r + 1, r)
        )
    cells = [Point(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)]
    floor = crossing_lower_bound_exact(n) if n >= 4 else 0
    # no n-point set has more than C(n, 4) crossings
    best, found = comb(n, 4) + 1, None
    if comb(len(cells), n) <= _EXHAUSTIVE_BUDGET:

        def walk(start: int, pts: list, count: int) -> None:
            """Complete pts from cells[start:] until a set meets floor."""
            nonlocal best, found
            for i in range(start, len(cells) - n + len(pts) + 1):
                p = cells[i]
                if not extends_general_position(pts, p):
                    continue
                c = count + _new_crossings(pts, p, best - count)
                if c >= best:
                    continue
                if len(pts) + 1 < n:
                    walk(i + 1, pts + [p], c)
                else:
                    best, found = c, pts + [p]
                if best == floor:
                    return

        walk(0, [], 0)
        if found is None:
            raise GenerationError("no valid %d-point set on the grid of radius %d" % (n, r))
        return PointSet(found)
    rng = random.Random(seed)
    for _ in range(_RANDOM_SEARCH_TRIALS):
        pts = rng.sample(cells, n)
        if not all(extends_general_position(pts[:i], pts[i]) for i in range(2, n)):
            continue
        c = 0
        for i in range(3, n):
            c += _new_crossings(pts[:i], pts[i], best - c)
            if c >= best:
                break
        else:
            best, found = c, pts
            if c == floor:
                break
    if found is None:
        return _row_backtrack(n, r)
    return PointSet(found)


def _new_crossings(pts: list, p: Point, cap: int) -> int:
    """The convex quadruples p forms with triples of pts, counted up to
    cap: a caller drops a set once its count reaches the best one."""
    k = 0
    for a, b, c in itertools.combinations(pts, 3):
        if is_convex_quadrilateral(a, b, c, p):
            k += 1
            if k >= cap:
                break
    return k


def _row_backtrack(n: int, r: int) -> PointSet:
    """The first n-point set in general position on the grid of radius
    r, placing rows y = -r, ..., r in turn with two, one or no points
    each (a row holds at most two), pairs and singles in lexicographic
    order.  The search grows exponentially with r, so it gives up after
    _BACKTRACK_BUDGET general-position checks."""
    xs = range(-r, r + 1)
    pts: list = []
    checks = 0
    failure = "no valid %d-point set found on the grid of radius %d" % (n, r)

    def place(y: int) -> bool:
        nonlocal checks
        need = n - len(pts)
        if need == 0:
            return True
        if need > 2 * (r - y + 1):
            return False
        for k in range(min(need, 2), -1, -1):
            for row in itertools.combinations(xs, k):
                added = 0
                for x in row:
                    checks += 1
                    if checks > _BACKTRACK_BUDGET:
                        raise GenerationError(failure)
                    if not extends_general_position(pts, Point(x, y)):
                        break
                    pts.append(Point(x, y))
                    added += 1
                if added == k and place(y + 1):
                    return True
                del pts[len(pts) - added:]
        return False

    if not place(-r):
        raise GenerationError(failure)
    return PointSet(pts)


def generate(spec: GeneratorSpec) -> PointSet:
    """The point set described by ``spec`` (see GeneratorSpec)."""
    if spec.kind == "random-disc":
        return _random_disc(spec.n, spec.seed, spec.scale)
    if spec.kind == "convex":
        return _convex(spec.n, spec.scale)
    if spec.kind == "three-cluster":
        return _three_cluster(spec.n, spec.scale)
    return _grid_search(spec.n, spec.seed, spec.scale)
