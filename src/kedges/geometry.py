"""Exact primitives for planar point sets in general position.

Coordinates are Python integers, so every orientation determinant is
computed exactly (arbitrary precision, no overflow is possible).
Rational coordinates are accepted only at point-set construction time
and are cleared to integers by a uniform positive scaling, which
preserves every orientation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import IntEnum
from math import atan2, gcd, lcm
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


class Orientation(IntEnum):
    CW = -1
    COLLINEAR = 0
    CCW = 1


class GeneralPositionError(ValueError):
    """Raised when three points of a set are collinear.

    The offending index triple is stored in ``triple``.
    """

    def __init__(self, triple: Tuple[int, int, int]):
        self.triple = triple
        super().__init__("collinear triple at indices %r" % (triple,))


class DuplicatePointError(ValueError):
    """Raised when a point occurs twice; ``pair`` holds the indices of
    its first two occurrences."""

    def __init__(self, pair: Tuple[int, int]):
        self.pair = pair
        super().__init__("duplicate point at indices %r" % (pair,))


@dataclass(frozen=True)
class Point:
    x: int
    y: int

    def __post_init__(self):
        if not isinstance(self.x, int) or not isinstance(self.y, int):
            raise TypeError("coordinates must be int, got (%r, %r)" % (self.x, self.y))

    def __iter__(self):
        yield self.x
        yield self.y


def cross(ox: int, oy: int, ax: int, ay: int, bx: int, by: int) -> int:
    """Signed area determinant of the triangle (o, a, b), doubled."""
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def orientation(a: Point, b: Point, c: Point) -> Orientation:
    """Orientation of the ordered triple (a, b, c): CCW, CW or COLLINEAR."""
    d = cross(a.x, a.y, b.x, b.y, c.x, c.y)
    if d > 0:
        return Orientation.CCW
    if d < 0:
        return Orientation.CW
    return Orientation.COLLINEAR


def extends_general_position(points: Sequence[Point], p: Point) -> bool:
    """True when p is none of ``points`` and lies on no line through two
    of them.

    Each difference vector q - p is reduced by its gcd to a primitive
    direction with a fixed sign; p is collinear with two points exactly
    when two of these directions coincide.  Costs len(points) integer
    gcds and one set.  Its callers test one point, so unlike
    validate_general_position they have no (y, x) sort to share.
    """
    px, py = p.x, p.y
    seen = set()
    for q in points:
        dx = q.x - px
        dy = q.y - py
        g = gcd(dx, dy)
        if g == 0:
            return False
        if dx < 0 or (dx == 0 and dy < 0):
            g = -g
        d = (dx // g, dy // g)
        if d in seen:
            return False
        seen.add(d)
    return True


def _first_collinear_triple(points: Sequence[Point]) -> Optional[Tuple[int, int, int]]:
    """The lexicographically first collinear index triple, by the cubic scan."""
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if orientation(points[i], points[j], points[k]) == Orientation.COLLINEAR:
                    return (i, j, k)
    return None


def sweep_frame(points: Sequence[Point]) -> Tuple[List[Tuple[int, int]], List[int], List[int], int]:
    """The points as (y, x) pairs in (y, x) order, so that every pair
    i < j points into [0, pi), their ys and xs, and the shift s = 2b, b
    the bit length of max(w, h, 1) for the w x h box around them.  A
    fraction num/den with 0 < den <= max(w, h) has the exact key
    (num << s) // den: two such fractions are equal or differ by at
    least 1/(den*den') > 2^-s, so their keys are equal exactly when
    they are, and otherwise in their order."""
    yx = sorted((p.y, p.x) for p in points)
    ys = [y for y, _ in yx]
    xs = [x for _, x in yx]
    return yx, ys, xs, 2 * max(max(xs) - min(xs), ys[-1] - ys[0], 1).bit_length()


def validate_general_position(points: Sequence[Point]) -> Optional[Tuple[int, int, int]]:
    """Return a witnessing collinear index triple, or None if the set is fine.

    Duplicate points raise DuplicatePointError naming the first repeated
    pair of indices.  Collinearity is decided in O(n^2) on the census's
    frame (sweep_frame: one sort and an exact key) instead of by a gcd
    per pair: in (y, x) order three points are collinear exactly when
    three share a y or when two points of greater y give one point i
    equal keys ((x - x_i) << s) // (y - y_i).  Only then does the cubic
    scan run, so the witness is the lexicographically first collinear
    index triple.
    """
    seen = {}
    for i, p in enumerate(points):
        key = (p.x, p.y)
        if key in seen:
            raise DuplicatePointError((seen[key], i))
        seen[key] = i
    n = len(points)
    if n < 3:
        return None
    yx, ys, _, s = sweep_frame(points)
    for i, (y_i, x_i) in enumerate(yx):
        k = bisect_right(ys, y_i)  # the first point of greater y
        if k > i + 2 or len({((x - x_i) << s) // (y - y_i) for y, x in yx[k:]}) < n - k:
            return _first_collinear_triple(points)
    return None


def _clear_denominators(coords) -> Tuple[Point, ...]:
    """Scale rational coordinates to integers by one uniform positive
    factor: the least common denominator of the non-integer ones.
    Integer coordinates are only multiplied by it."""
    from fractions import Fraction

    pairs = [
        (x if isinstance(x, int) else Fraction(x), y if isinstance(y, int) else Fraction(y))
        for x, y in coords
    ]
    scale = 1
    for xy in pairs:
        for v in xy:
            if not isinstance(v, int):
                scale = lcm(scale, v.denominator)

    def scaled(v):
        return v * scale if isinstance(v, int) else v.numerator * (scale // v.denominator)

    return tuple(Point(scaled(x), scaled(y)) for x, y in pairs)


def _integer_points(coords: Iterable) -> List[Point]:
    """The coords as Points, rational ones cleared by _clear_denominators."""
    items = list(coords)
    pts = []
    for item in items:
        if isinstance(item, Point):
            pts.append(item)
            continue
        x, y = item
        if not (isinstance(x, int) and isinstance(y, int)):
            return list(_clear_denominators(
                tuple(p) if isinstance(p, Point) else (p[0], p[1]) for p in items
            ))
        pts.append(Point(x, y))
    return pts


class PointSet:
    """An ordered planar point set in general position.

    Construction validates the set: duplicate points or a collinear
    triple raise (DuplicatePointError carries the repeated pair of
    indices, GeneralPositionError the witnessing triple).
    Points are addressed by 0-based index throughout the library.
    """

    __slots__ = ("points",)

    def __init__(self, coords: Iterable):
        pts = _integer_points(coords)
        bad = validate_general_position(pts)
        if bad is not None:
            raise GeneralPositionError(bad)
        object.__setattr__(self, "points", tuple(pts))

    def __setattr__(self, name, value):
        raise AttributeError("PointSet is immutable")

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return "PointSet(%r)" % (list((p.x, p.y) for p in self.points),)

    def replace(self, i: int, p) -> "PointSet":
        """A copy with point i moved to p (p may have rational coordinates).

        Clearing denominators rescales every point by one positive
        factor, which keeps the unmoved points in general position, so
        only the moved point is checked against the others.  A move that
        breaks general position raises exactly as the constructor does.
        """
        coords = list(self.points)
        coords[i] = p if isinstance(p, Point) else (p[0], p[1])
        pts = _integer_points(coords)
        i %= len(pts)
        if not extends_general_position(pts[:i] + pts[i + 1:], pts[i]):
            return PointSet(pts)
        moved = object.__new__(PointSet)
        object.__setattr__(moved, "points", tuple(pts))
        return moved


def line_order(S: PointSet, p: int) -> List[Tuple[float, int, int, int, bool]]:
    """The lines from point p to every other point j, as tuples
    (hint, cx, cy, j, up) sorted counterclockwise by the angle of (cx, cy).

    (cx, cy) is p -> j when that points into [0, pi) (``up``), and its
    negation otherwise; on [0, pi) the sign of cx*cy' - cy*cx' is a
    strict total order.  The float ``hint`` atan2(cy, cx) presorts the
    list; a float holds integers of up to 1024 bits, so for longer
    vectors both components are first shifted right by one common
    amount, to at most 1000 bits.  One pass then checks the
    integer sign of each adjacent pair; only if some sign is not
    positive does an insertion pass settle the list by those signs.  A
    zero sign means p is on a line with two points, perhaps between
    them: GeneralPositionError, sorted triple.
    """
    ox, oy = S[p]
    hint = atan2
    while True:  # at most twice: shifted vectors fit a float
        vs = []
        try:
            for j, q in enumerate(S):
                if j != p:
                    cx, cy = q.x - ox, q.y - oy
                    if cy > 0 or (cy == 0 and cx > 0):
                        vs.append((hint(cy, cx), cx, cy, j, True))
                    else:
                        vs.append((hint(-cy, -cx), -cx, -cy, j, False))
            break
        except OverflowError:
            s = max(max(abs(q.x - ox), abs(q.y - oy)) for q in S).bit_length() - 1000

            def hint(y, x):
                return atan2(y >> s, x >> s)
    vs.sort(key=itemgetter(0))
    for (_, ux, uy, _, _), (_, vx, vy, _, _) in zip(vs, vs[1:]):
        if ux * vy - uy * vx <= 0:
            _settle(vs, p)
            break
    return vs


def _settle(vs: List[Tuple[float, int, int, int, bool]], p: int) -> None:
    """Sort presorted line_order(S, p) entries in place by integer signs."""
    for i in range(1, len(vs)):
        v = vs[i]
        _, vx, vy, vj, _ = v
        k = i
        while k > 0:
            _, ux, uy, uj, _ = vs[k - 1]
            c = ux * vy - uy * vx
            if c > 0:
                break
            if c == 0:
                raise GeneralPositionError(tuple(sorted((p, uj, vj))))
            vs[k] = vs[k - 1]
            k -= 1
        vs[k] = v


def angular_order(S: PointSet, p: int) -> List[Tuple[int, int, int]]:
    """The vectors (dx, dy, j) from point p to every other point j,
    sorted counterclockwise from angle 0.

    A split of line_order(S, p): its ``up`` entries, then the others
    turned back by a half turn, each part in line order, which within
    one half plane is angular order.  Every order decision is an
    integer sign.
    """
    vs = line_order(S, p)
    return [v[1:4] for v in vs if v[4]] + [(-cx, -cy, j) for _, cx, cy, j, up in vs if not up]


def convex_hull(S: PointSet) -> Tuple[int, ...]:
    """Indices of the extreme points, counterclockwise.

    The walk starts at the lexicographically smallest point.  Under
    general position no hull edge contains a third point, so the hull
    is exactly the set of extreme points.
    """
    n = len(S)
    if n < 3:
        raise ValueError("hull needs at least 3 points")
    xy = [(q.x, q.y) for q in S]
    idx = sorted(range(n), key=xy.__getitem__)
    chains = []
    for order in (idx, idx[::-1]):
        chain = []
        for i in order:
            x, y = xy[i]
            while len(chain) >= 2:
                ax, ay = xy[chain[-2]]
                bx, by = xy[chain[-1]]
                if cross(ax, ay, bx, by, x, y) > 0:
                    break
                chain.pop()
            chain.append(i)
        chains.append(chain[:-1])
    return tuple(chains[0] + chains[1])


def hull_size(S: PointSet) -> int:
    return len(convex_hull(S))


def coord_bits(S: PointSet) -> int:
    """The largest bit length of a coordinate of S."""
    return max(max(abs(p.x).bit_length(), abs(p.y).bit_length()) for p in S)
