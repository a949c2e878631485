"""Shared test utilities: seeded random configurations and slow oracles."""

import random
from functools import cmp_to_key
from itertools import combinations
from math import comb
from typing import Tuple

from kedges import (
    GeneralPositionError,
    GenerationError,
    Orientation,
    PointSet,
    crossings_bruteforce,
    max_depth,
    orientation,
    strictly_inside_triangle,
)
from kedges.generators import _EXHAUSTIVE_BUDGET, _RANDOM_SEARCH_TRIALS, _row_backtrack


def bound_refined_sum(n, k):
    """Oracle for bound_refined: the simple bound plus the excess sum
    sum_{j=floor(n/3)}^{k} (3j - n + 3), summed directly."""
    if not (0 <= k < max_depth(n)):
        raise ValueError("k=%d out of range for n=%d" % (k, n))
    return 3 * comb(k + 2, 2) + sum(3 * j - n + 3 for j in range(n // 3, k + 1))


def random_point_set(rng, n, radius=50):
    """A random n-point set in general position on the integer square
    [-radius, radius]^2, by rejection sampling.

    The point order is normalized (sorted) so that a set is determined
    by the sampled coordinates alone.
    """
    while True:
        pts = set()
        while len(pts) < n:
            pts.add((rng.randint(-radius, radius), rng.randint(-radius, radius)))
        try:
            return PointSet(sorted(pts))
        except GeneralPositionError:
            continue


def convex_polygon(n, scale=1):
    """n points in convex position (on the parabola y = x^2)."""
    return PointSet(
        [(scale * d, scale * d * d) for d in (2 * i - (n - 1) for i in range(n))]
    )


def brute_is_interior(S, i):
    """Whether point i lies strictly inside a triangle of other points."""
    idx = [j for j in range(len(S)) if j != i]
    for a, b, c in combinations(idx, 3):
        if strictly_inside_triangle(S[i], (S[a], S[b], S[c])):
            return True
    return False


def comparator_angular_order(S, p):
    """Oracle for angular_order: the vectors (dx, dy, j) from point p,
    sorted counterclockwise from angle 0 by an exact comparator (half
    plane, then the sign of the cross product)."""
    o = S[p]
    vecs = [(q.x - o.x, q.y - o.y, j) for j, q in enumerate(S) if j != p]

    def half(v):
        dx, dy, _ = v
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cmp(u, v):
        hu, hv = half(u), half(v)
        if hu != hv:
            return -1 if hu < hv else 1
        c = u[0] * v[1] - u[1] * v[0]
        if c == 0:
            raise GeneralPositionError(tuple(sorted((p, u[2], v[2]))))
        return -1 if c > 0 else 1

    return sorted(vecs, key=cmp_to_key(cmp))


class OrderType:
    """The orientation of every ordered triple of a point set.

    Internally one orientation is stored per sorted index triple; the
    orientation of an arbitrary ordered triple follows by permutation
    parity, so antisymmetry holds by construction.
    """

    __slots__ = ("n", "_o")

    def __init__(self, n: int, orientations):
        self.n = n
        self._o = dict(orientations)

    @classmethod
    def of(cls, S: PointSet) -> "OrderType":
        n = len(S)
        o = {}
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    o[(i, j, k)] = orientation(S[i], S[j], S[k])
        return cls(n, o)

    def __getitem__(self, triple: Tuple[int, int, int]) -> Orientation:
        i, j, k = triple
        if len({i, j, k}) != 3:
            raise ValueError("triple must have three distinct indices")
        key = tuple(sorted((i, j, k)))
        base = self._o[key]
        # parity of the permutation taking sorted order to (i, j, k)
        perm = (i, j, k)
        inversions = sum(
            1 for a in range(3) for b in range(a + 1, 3) if perm[a] > perm[b]
        )
        return base if inversions % 2 == 0 else Orientation(-base)

    def triples(self):
        return self._o.items()

    def __eq__(self, other) -> bool:
        return isinstance(other, OrderType) and self.n == other.n and self._o == other._o

    def diff(self, other: "OrderType"):
        """Sorted triples on which the two order types disagree."""
        if self.n != other.n:
            raise ValueError("order types of different sizes")
        return {t for t, v in self._o.items() if other._o[t] != v}


def order_type(S: PointSet) -> OrderType:
    return OrderType.of(S)


def grid_search_oracle(n, seed, r):
    """Oracle for the grid-search generator on the grid of radius r: the
    first subset of least crossings in ``itertools.combinations`` order
    when the subsets fit the exhaustive budget, else the first of least
    crossings among the seeded samples.  Every subset is validated as a
    PointSet and counted by crossings_bruteforce, with no pruning."""
    cells = [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)]
    if comb(len(cells), n) <= _EXHAUSTIVE_BUDGET:
        best = None
        for combo in combinations(cells, n):
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
        return _row_backtrack(n, r)
    return best[1]
