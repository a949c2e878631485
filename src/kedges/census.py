"""j-edge and (<=k)-edge censuses of a planar point set.

A segment spanned by two points of the set is a j-edge when exactly j
points lie strictly on its smaller side.  The census collects the
counts e_0..e_m with m = floor((n-2)/2); their prefix sums are the
cumulative counts E_0..E_m.  Two independent routes are provided: a
quadratic-per-point brute force and an O(n^2 log n) rotational sweep
that swaps each pair of points once, in the order of their directions
(``oriented_edge_counts``).  The sweep sorts directions, in two
sectors of about n^2/4 pairs each, by the exact integer key that
validation and line_order share (geometry._key_shift); the key grows
with the coordinates, and so do the sweep's memory and time.
``left_counts`` gives the sides of the lines through one point, by
rank over one exact sort of them (``line_order``); a matrix of its
rows gives the census again (``oriented_counts_from_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from .geometry import (
    Orientation,
    Point,
    PointSet,
    cross,
    line_order,
    orientation,
    sweep_frame,
)


def max_depth(n: int) -> int:
    """Largest possible edge depth m = floor((n-2)/2)."""
    return (n - 2) // 2


@dataclass(frozen=True)
class EdgeVector:
    """Unoriented depth counts (e_0, ..., e_m) of an n-point set."""

    n: int
    e: Tuple[int, ...]

    def __post_init__(self):
        m = max_depth(self.n)
        if len(self.e) != m + 1:
            raise ValueError("expected %d entries for n=%d, got %d" % (m + 1, self.n, len(self.e)))
        if any(v < 0 for v in self.e):
            raise ValueError("negative edge count in %r" % (self.e,))
        if sum(self.e) != comb(self.n, 2):
            raise ValueError("edge counts sum to %d, expected C(%d,2)=%d" % (sum(self.e), self.n, comb(self.n, 2)))

    @property
    def m(self) -> int:
        return max_depth(self.n)

    @property
    def halving(self) -> int:
        """Number of edges at the deepest level (halving edges)."""
        return self.e[-1]

    def cumulative(self) -> "CumulativeEdgeVector":
        total = 0
        out = []
        for v in self.e:
            total += v
            out.append(total)
        return CumulativeEdgeVector(self.n, tuple(out))


@dataclass(frozen=True)
class CumulativeEdgeVector:
    """Prefix sums (E_0, ..., E_m); E_m always equals C(n,2)."""

    n: int
    E: Tuple[int, ...]

    def __post_init__(self):
        m = max_depth(self.n)
        if len(self.E) != m + 1:
            raise ValueError("expected %d entries for n=%d, got %d" % (m + 1, self.n, len(self.E)))
        prev = 0
        for v in self.E:
            if v < prev:
                raise ValueError("cumulative counts must be nondecreasing: %r" % (self.E,))
            prev = v
        if self.E[-1] != comb(self.n, 2):
            raise ValueError("E_m is %d, expected C(%d,2)=%d" % (self.E[-1], self.n, comb(self.n, 2)))

    @property
    def m(self) -> int:
        return max_depth(self.n)

    def edge_vector(self) -> EdgeVector:
        prev = 0
        out = []
        for v in self.E:
            out.append(v - prev)
            prev = v
        return EdgeVector(self.n, tuple(out))


def cumulative(e: EdgeVector) -> CumulativeEdgeVector:
    return e.cumulative()


def edge_depth(S: PointSet, p: int, q: int) -> int:
    """Depth of the segment (p, q): the size of its smaller open side,
    by one integer cross product per point (p and q are on no side)."""
    if p == q:
        raise ValueError("edge needs two distinct indices")
    (ax, ay), (bx, by) = S[p], S[q]
    ux, uy = bx - ax, by - ay
    left = len([c for c in S.points if ux * (c.y - ay) > uy * (c.x - ax)])
    return min(left, len(S) - 2 - left)


def edge_vector_bruteforce(S: PointSet) -> EdgeVector:
    """Depth histogram by direct side counting over all pairs, O(n^3)."""
    n = len(S)
    counts = [0] * (max_depth(n) + 1)
    for p in range(n):
        for q in range(p + 1, n):
            counts[edge_depth(S, p, q)] += 1
    return EdgeVector(n, tuple(counts))


def left_counts(S: PointSet, p: int) -> List[Optional[int]]:
    """The row L with L[j] the number of points strictly left of the
    directed line p -> j, for every j != p (L[p] is None).

    Counted by rank over line_order(S, p), with no products.  Left of
    p -> j lie the directions less than a half turn counterclockwise of
    it: when p -> j is up, the up entries after j and the other entries
    before j (their true angles are a half turn more); otherwise the up
    entries before j and the other entries after j.  A tie would be a
    collinear triple, which line_order rejects.  So with U up entries
    and D others, and t the up entries minus the other entries up to
    and including j in line order, L[j] = U - t when j is up and
    L[j] = D + t otherwise.
    """
    order = line_order(S, p)
    U = sum(v[4] for v in order)
    D = len(order) - U
    L: List[Optional[int]] = [None] * len(S)
    t = 0
    for _, _, _, j, up in order:
        if up:
            t += 1
            L[j] = U - t
        else:
            t -= 1
            L[j] = D + t
    return L


def oriented_edge_counts(S: PointSet) -> Tuple[int, ...]:
    """Histogram H where H[r] counts ordered pairs (p, q) with exactly r
    points strictly to the right of the directed line p -> q, by one
    rotational sweep that visits each pair once, O(n^2 log n).

    Sorted by (y, x) (sweep_frame), every pair i < j points into
    [0, pi) and the order is that of the points along the normal of a
    direction just below 0.  Turning the direction counterclockwise to
    pi swaps each pair once, when the direction reaches i -> j; the
    pair is then adjacent, at ranks a and a + 1, so a points lie right
    of i -> j and n - 2 - a left of it.  G[a] counts these swaps, and
    H[r] = G[r] + G[n - 2 - r].  Parallel pairs are disjoint, so they
    swap in either order.

    The pairs are walked in two sectors of [0, pi), cut at the vertical
    and told apart by one comparison of x: in [0, pi/2) dx > 0 and the
    direction grows with dy/dx, in [pi/2, pi) dx <= 0 < dy and it grows
    with -dx/dy.  Each sector is sorted by the exact integer key of
    that fraction (geometry._key_shift, whose shift sweep_frame gives),
    so keys tie exactly for parallel pairs.
    The walk still checks that every swap is of adjacent points.

    Memory is traded for time: the sweep holds one sector at a time,
    about n^2/4 entries (key, i, j), all n(n-1)/2 at worst (a convex
    curve rising to the right).  A key has up to about 3b bits, b the
    bit length of max(w, h).  On random-disc sets the peak traced
    allocation of a call at radius 2^10 and 2^1100 is 716 KB and 2.5 MB
    at n = 160, 3.3 and 10.7 MB at n = 320 and 14.8 and 43.5 MB at
    n = 640 (Python 3.11, 2 CPUs), about twice that of four sectors.
    """
    n = len(S)
    if n < 3:
        raise ValueError("census needs at least 3 points")
    yx, ys, xs, s = sweep_frame(S)
    pos = list(range(n))
    G = [0] * (n - 1)
    for flat in (True, False):
        sector = []
        for i in range(n - 1):
            y_i, x_i = yx[i]
            if flat:  # [0, pi/2): dx > 0, keyed by dy/dx
                sector += [(((ys[j] - y_i) << s) // (xs[j] - x_i), i, j)
                           for j in range(i + 1, n) if xs[j] > x_i]
            else:  # [pi/2, pi): dx <= 0 < dy, keyed by -dx/dy
                sector += [(((x_i - xs[j]) << s) // (ys[j] - y_i), i, j)
                           for j in range(i + 1, n) if xs[j] <= x_i]
        sector.sort(key=itemgetter(0))
        _walk(sector, pos, G)
    return tuple(G[r] + G[n - 2 - r] for r in range(n - 1))


def _walk(sector, pos, G) -> None:
    """Swap the pairs of ``sector`` in turn, updating the ranks ``pos``
    and the counts G of oriented_edge_counts in place.  In direction
    order each pair is adjacent when it swaps; a pair that is not
    raises RuntimeError."""
    for _, i, j in sector:
        a = pos[i]
        if pos[j] != a + 1:
            raise RuntimeError("internal: non-adjacent swap in the sweep")
        G[a] += 1
        pos[i] = a + 1
        pos[j] = a


def oriented_counts_from_rows(L) -> Tuple[int, ...]:
    """The histogram H of oriented_edge_counts from the left-count
    matrix L of the set (L[i] = left_counts(S, i)): i -> j has
    n - 2 - L[i][j] points on its right."""
    n = len(L)
    H = [0] * (n - 1)
    for row in L:
        for left in row:
            if left is not None:
                H[n - 2 - left] += 1
    return tuple(H)


def edge_vector_from_oriented_counts(n: int, H: Sequence[int]) -> EdgeVector:
    """The depth histogram of an n-point set from its oriented counts H
    (oriented_edge_counts): an edge of depth j has j points on its right
    in one orientation only, unless it halves an even set."""
    m = max_depth(n)
    e = [H[j] for j in range(m + 1)]
    if n % 2 == 0:
        # at the deepest level both orientations of an edge see m points
        # on their right, so the ordered count is exactly twice e_m
        if e[m] % 2 != 0:
            raise RuntimeError("internal: odd ordered count at the halving level")
        e[m] //= 2
    return EdgeVector(n, tuple(e))


def edge_vector_sweep(S: PointSet) -> EdgeVector:
    """Depth histogram via the rotational sweep, O(n^2 log n)."""
    return edge_vector_from_oriented_counts(len(S), oriented_edge_counts(S))


def _normalize_ccw(tri: Sequence[Point]) -> Tuple[Point, Point, Point]:
    a, b, c = tri
    o = orientation(a, b, c)
    if o == Orientation.COLLINEAR:
        raise ValueError("triangle corners are collinear")
    if o == Orientation.CW:
        b, c = c, b
    return a, b, c


def strictly_inside_triangle(p: Point, tri: Sequence[Point]) -> bool:
    a, b, c = _normalize_ccw(tri)
    return (
        orientation(a, b, p) == Orientation.CCW
        and orientation(b, c, p) == Orientation.CCW
        and orientation(c, a, p) == Orientation.CCW
    )


def good_k_edge_count(S: PointSet, triangle: Sequence[Point], k: int) -> int:
    """Count ordered pairs (p, q) of S that have exactly k points of S
    strictly to the right of the directed line p -> q and exactly one
    corner of the enclosing triangle strictly to the right (the "good"
    oriented k-edges relative to that triangle).

    The whole set must lie strictly inside the triangle, and k must lie
    in the window floor(n/3) <= k <= n/2 - 1 where the count is studied.

    Each point's left_counts row gives the sides: S is in general
    position, so L[q] points lie left of p -> q and n - 2 - L[q] right.
    Corners are tested only at depth k, so a call costs O(n^2 log n),
    not the O(n^3) of recounting every pair.
    """
    n = len(S)
    tri = _normalize_ccw(triangle)
    for i, p in enumerate(S):
        if not strictly_inside_triangle(p, tri):
            raise ValueError("point %d is not strictly inside the triangle" % i)
    if not (n // 3 <= k and 2 * k <= n - 2):
        raise ValueError("k=%d outside the window [floor(n/3), n/2-1] for n=%d" % (k, n))
    count = 0
    for p, a in enumerate(S):
        for q, left in enumerate(left_counts(S, p)):
            if left is not None and n - 2 - left == k:
                b = S[q]
                if sum(cross(a.x, a.y, b.x, b.y, v.x, v.y) < 0 for v in tri) == 1:
                    count += 1
    return count
