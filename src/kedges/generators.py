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

from .crossings import crossings_bruteforce
from .geometry import Point, PointSet, extends_general_position

KINDS = ("random-disc", "convex", "three-cluster", "grid-search")

# largest number of candidate subsets the grid-search kind will walk
# exhaustively before falling back to seeded random sampling
_EXHAUSTIVE_BUDGET = 300_000

_RANDOM_DISC_TRIES = 200_000
_RANDOM_SEARCH_TRIALS = 4_000


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

    When the number of n-subsets fits the exhaustive budget the grid is
    searched completely in lexicographic order and the first minimum is
    returned; otherwise seeded random subsets are sampled and the best
    one kept.
    """
    r = scale or 2
    if n > 2 * (2 * r + 1):
        raise ValueError(
            "n=%d exceeds %d: the %d rows of the grid of radius %d hold at most two points each"
            " in general position" % (n, 2 * (2 * r + 1), 2 * r + 1, r)
        )
    cells = [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)]
    if comb(len(cells), n) <= _EXHAUSTIVE_BUDGET:
        best = None
        for combo in itertools.combinations(cells, n):
            try:
                S = PointSet(combo)
            except ValueError:
                continue
            c = crossings_bruteforce(S).crossings
            if best is None or c < best[0]:
                best = (c, S)
        if best is None:
            raise GenerationError("no valid %d-point set on the grid of radius %d" % (n, r))
        return best[1]
    rng = random.Random(seed)
    best = None
    for _ in range(_RANDOM_SEARCH_TRIALS):
        combo = rng.sample(cells, n)
        try:
            S = PointSet(combo)
        except ValueError:
            continue
        c = crossings_bruteforce(S).crossings
        if best is None or c < best[0]:
            best = (c, S)
    if best is None:
        raise GenerationError("no valid %d-point set found on the grid of radius %d" % (n, r))
    return best[1]


def generate(spec: GeneratorSpec) -> PointSet:
    """The point set described by ``spec`` (see GeneratorSpec)."""
    if spec.kind == "random-disc":
        return _random_disc(spec.n, spec.seed, spec.scale)
    if spec.kind == "convex":
        return _convex(spec.n, spec.scale)
    if spec.kind == "three-cluster":
        return _three_cluster(spec.n, spec.scale)
    return _grid_search(spec.n, spec.seed, spec.scale)
