"""Shared test utilities: seeded random configurations and slow oracles."""

import importlib.util
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import atan2, comb, gcd
from pathlib import Path
from typing import Tuple

from hypothesis import reject, strategies

from kedges import (
    GeneralPositionError,
    GenerationError,
    GeneratorSpec,
    Orientation,
    Point,
    PointSet,
    cross,
    crossings_bruteforce,
    extends_general_position,
    generate,
    max_depth,
    orientation,
    strictly_inside_triangle,
)
from kedges.census import _normalize_ccw
from kedges.geometry import line_order
from kedges.generators import _EXHAUSTIVE_BUDGET, _RANDOM_SEARCH_TRIALS, _row_backtrack


def load_demo(name):
    """The module demos/<name>.py, loaded without running its main()."""
    path = Path(__file__).resolve().parents[1] / "demos" / (name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


def bound_refined_sum(n, k):
    """Oracle for bound_refined: the simple bound plus the excess sum
    sum_{j=floor(n/3)}^{k} (3j - n + 3), summed directly."""
    if not (0 <= k < max_depth(n)):
        raise ValueError("k=%d out of range for n=%d" % (k, n))
    return 3 * comb(k + 2, 2) + sum(3 * j - n + 3 for j in range(n // 3, k + 1))


def clear_denominators_by_fractions(coords):
    """Oracle for geometry._clear_denominators: every coordinate made a
    Fraction, the scale the least common multiple of all denominators,
    each point the product as an int."""
    fracs = []
    for x, y in coords:
        fx = Fraction(x) if not isinstance(x, int) else Fraction(x, 1)
        fy = Fraction(y) if not isinstance(y, int) else Fraction(y, 1)
        fracs.append((fx, fy))
    scale = 1
    for fx, fy in fracs:
        scale = scale * fx.denominator // gcd(scale, fx.denominator)
        scale = scale * fy.denominator // gcd(scale, fy.denominator)
    return tuple(
        Point(int(fx * scale), int(fy * scale)) for fx, fy in fracs
    )


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


def farey_points(rng, b, m, image, collinear=False):
    """A near-collinear triple A, A + (q, p), A + (q', p') with
    q*p' - p*q' = 1 and q, q' below 2^b, among m random points of the
    square [0, 2^b - 1]^2, mapped by one of the 8 symmetries of that
    square, as a shuffled list of (x, y).  The triple's three directions
    differ by 1/(q*q') or less, the least gap the census's sort key and
    validation must still resolve.  With ``collinear`` the third point
    is A + 2(q, p) instead, so the triple is exactly collinear (and the
    only collinear triple)."""
    N = 2 ** b - 1
    while True:
        q2 = rng.randint(N - N // 16, N)
        p2 = rng.randint(q2 // 8, q2 // 2)
        if gcd(p2, q2) != 1:
            continue
        q = pow(p2, -1, q2)  # p2 * q = 1 (mod q2)
        if q > N // 2:
            break
    p = (p2 * q - 1) // q2
    ax, ay = rng.randint(0, N - q2), rng.randint(0, N - p2)
    third = Point(ax + 2 * q, ay + 2 * p) if collinear else Point(ax + q2, ay + p2)
    pts = [Point(ax, ay), Point(ax + q, ay + p), third]
    while len(pts) < 3 + m:
        c = Point(rng.randint(0, N), rng.randint(0, N))
        if extends_general_position(pts, c):
            pts.append(c)
    swap, fx, fy = image >> 2, image >> 1 & 1, image & 1
    out = []
    for c in pts:
        x, y = (c.y, c.x) if swap else (c.x, c.y)
        out.append((N - x if fx else x, N - y if fy else y))
    rng.shuffle(out)
    return out


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


def fan_point_set(rng, B, m):
    """Origin plus two shuffled fans of m points near the directions
    (1, 1) and (-1, -1) at distance about B: from the origin their
    vectors differ in angle by about 1/B."""
    pts = [(B + i * i, B + i * i + i) for i in range(1, m + 1)]
    pts += [(-B - i * i, -B - i * i - i) for i in range(m + 1, 2 * m + 1)]
    rng.shuffle(pts)
    return PointSet([(0, 0)] + pts)


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


def window_left_counts(S, p):
    """Oracle for left_counts: a window slides counterclockwise over
    comparator_angular_order(S, p), read twice around, and holds the
    vectors less than a half turn ahead of each direction."""
    vs = comparator_angular_order(S, p)
    t = len(vs)
    xs = [v[0] for v in vs] * 2
    ys = [v[1] for v in vs] * 2
    L = [None] * len(S)
    k = 0
    for i in range(t):
        ux, uy, j = vs[i]
        if k <= i:
            k = i + 1
        # stops at the latest on u's own copy, xs[i + t], ys[i + t]
        while ux * ys[k] > uy * xs[k]:
            k += 1
        L[j] = k - i - 1
    return L


def insertion_line_order(S, p):
    """Oracle for line_order, its entries without the key: the float
    atan2 presort, then an insertion pass by integer signs that always
    runs."""
    o = S[p]
    vs = []
    for j, q in enumerate(S):
        if j != p:
            cx, cy = q.x - o.x, q.y - o.y
            if cy > 0 or (cy == 0 and cx > 0):
                vs.append((cx, cy, j, True))
            else:
                vs.append((-cx, -cy, j, False))
    try:
        hints = [atan2(cy, cx) for cx, cy, _, _ in vs]
    except OverflowError:
        s = max(max(abs(v[0]), abs(v[1])).bit_length() for v in vs) - 1000
        hints = [atan2(cy >> s, cx >> s) for cx, cy, _, _ in vs]
    vs = [vs[i] for i in sorted(range(len(vs)), key=hints.__getitem__)]
    for i in range(1, len(vs)):
        v = vs[i]
        vx, vy, vj, _ = v
        k = i
        while k > 0:
            ux, uy, uj, _ = vs[k - 1]
            c = ux * vy - uy * vx
            if c > 0:
                break
            if c == 0:
                raise GeneralPositionError(tuple(sorted((p, uj, vj))))
            vs[k] = vs[k - 1]
            k -= 1
        vs[k] = v
    return vs


def per_point_oriented_counts(S):
    """Oracle for oriented_edge_counts: one line_order per point, read
    by the rule of left_counts, so each pair is counted from both ends.
    An up entry of line_order(S, p) has n - 2 - (U - t) points on its
    right and any other entry U - 1 - t."""
    n = len(S)
    H = [0] * (n - 1)
    for p in range(n):
        ups = [v[4] for v in line_order(S, p)]
        U = sum(ups)
        t = 0
        for up in ups:
            if up:
                t += 1
                H[n - 2 - U + t] += 1
            else:
                t -= 1
                H[U - 1 - t] += 1
    return tuple(H)


def row_oriented_counts(n, rows):
    """Oracle for oriented_edge_counts: the histogram of the left_counts
    rows of an n-point set by right side, n - 2 - L[j]."""
    H = [0] * (n - 1)
    for row in rows:
        for left in row:
            if left is not None:
                H[n - 2 - left] += 1
    return tuple(H)


@strategies.composite
def line_order_sets(draw):
    """A random-disc set of 4 to 40 points with a radius of 16 to 2^200,
    or one of radius 16 to 2^10 with every other point moved by
    (2^200, 2^200): from one cluster the vectors to the other differ in
    angle by about 2^-200, far below a float's resolution, so the order
    rests on the exactness of the key."""
    n = draw(strategies.integers(4, 40))
    seed = draw(strategies.integers(0, 2 ** 32))
    if draw(strategies.booleans()):
        e = draw(strategies.integers(5, 200))
        radius = draw(strategies.integers(2 ** (e - 1), 2 ** e))
        return generate(GeneratorSpec("random-disc", n, seed, scale=radius))
    S = generate(GeneratorSpec("random-disc", n, seed, scale=draw(strategies.integers(16, 2 ** 10))))
    B = 2 ** 200
    try:
        return PointSet([(q.x + B, q.y + B) if j % 2 else (q.x, q.y) for j, q in enumerate(S)])
    except GeneralPositionError:
        reject()


def pairwise_crossings(S, ray):
    """Oracle for motion._crossings with no stop: each pair's A = cross(a, b)
    and B = cross(b - a, d) computed from the points' coordinates, with
    no per-point offsets, as (num, den, (i, j), centre, side).

    The centre is the middle point of the collinear triple, found from
    the moving point's position P at t = num/den by its projection
    mu = (P - a).(b - a) / |b - a|^2 onto line ij, compared exactly in
    integers scaled by den * |b - a|^2: p when 0 < mu < 1, i when
    mu < 0, j when mu > 1 (mu = 0 or 1 puts P on a point, and j is
    named, as the kernel does).  The side is whether p starts left of
    i -> j, by the sign of cross(b - a, p - a).
    """
    p = ray.anchor
    p0 = S[p]
    dx, dy = ray.direction
    out = []
    n = len(S)
    for i in range(n):
        if i == p:
            continue
        ax, ay = S[i].x - p0.x, S[i].y - p0.y
        for j in range(i + 1, n):
            if j == p:
                continue
            bx, by = S[j].x - p0.x, S[j].y - p0.y
            A = ax * by - ay * bx
            B = (bx - ax) * dy - (by - ay) * dx
            if B == 0:
                continue
            if (A > 0) == (B > 0):
                continue
            num, den = (-A, B) if B > 0 else (A, -B)
            a, b = S[i], S[j]
            ux, uy = b.x - a.x, b.y - a.y
            # mu scaled by den * |b - a|^2 > 0: den * P = den * p + num * d
            m = (den * (p0.x - a.x) + num * dx) * ux + (den * (p0.y - a.y) + num * dy) * uy
            scale = den * (ux * ux + uy * uy)
            centre = p if 0 < m < scale else i if m < 0 else j
            side = ux * (p0.y - a.y) - uy * (p0.x - a.x) > 0
            out.append((num, den, (i, j), centre, side))
    return out


def indexed_convex_hull(S):
    """Oracle for convex_hull: the monotone chain indexing S and reading
    Point attributes at every step."""
    n = len(S)
    idx = sorted(range(n), key=lambda i: (S[i].x, S[i].y))
    lower = []
    for i in idx:
        while len(lower) >= 2 and cross(
            S[lower[-2]].x, S[lower[-2]].y, S[lower[-1]].x, S[lower[-1]].y, S[i].x, S[i].y
        ) <= 0:
            lower.pop()
        lower.append(i)
    upper = []
    for i in reversed(idx):
        while len(upper) >= 2 and cross(
            S[upper[-2]].x, S[upper[-2]].y, S[upper[-1]].x, S[upper[-1]].y, S[i].x, S[i].y
        ) <= 0:
            upper.pop()
        upper.append(i)
    return tuple(lower[:-1] + upper[:-1])


def fraction_line_intersection_inside_hull(S, hull, rp, rq):
    """Oracle for motion._line_intersection_inside_hull: the meeting
    point z of the two ray lines built as a Fraction point and tested
    against every hull edge."""
    p, q = S[rp.anchor], S[rq.anchor]
    dp, dq = rp.direction, rq.direction
    denom = dp[0] * dq[1] - dp[1] * dq[0]
    if denom == 0:
        return False
    s = Fraction((q.x - p.x) * dq[1] - (q.y - p.y) * dq[0], denom)
    zx = p.x + s * dp[0]
    zy = p.y + s * dp[1]
    for i in range(len(hull)):
        a = S[hull[i]]
        b = S[hull[(i + 1) % len(hull)]]
        if cross(a.x, a.y, b.x, b.y, zx, zy) <= 0:
            return False
    return True


def orientation_is_convex_quadrilateral(a, b, c, d):
    """Oracle for is_convex_quadrilateral: the parity of the
    counterclockwise turns among the four triples omitting one point
    each, from four orientation calls."""
    signs = []
    for t in ((a, b, c), (a, b, d), (a, c, d), (b, c, d)):
        o = orientation(*t)
        if o == Orientation.COLLINEAR:
            raise ValueError("collinear triple among quadrilateral corners")
        signs.append(o)
    ccw = sum(1 for s in signs if s == Orientation.CCW)
    return ccw % 2 == 0


def recount_good_k_edge_count(S, triangle, k):
    """Oracle for good_k_edge_count: every ordered pair's right side
    recounted with orientation calls, O(n^3)."""
    n = len(S)
    tri = _normalize_ccw(triangle)
    for i, p in enumerate(S):
        if not strictly_inside_triangle(p, tri):
            raise ValueError("point %d is not strictly inside the triangle" % i)
    if not (n // 3 <= k and 2 * k <= n - 2):
        raise ValueError("k=%d outside the window [floor(n/3), n/2-1] for n=%d" % (k, n))
    count = 0
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            a, b = S[p], S[q]
            right = 0
            for i in range(n):
                if i == p or i == q:
                    continue
                if orientation(a, b, S[i]) == Orientation.CW:
                    right += 1
            if right != k:
                continue
            corners_right = sum(
                1 for v in tri if orientation(a, b, v) == Orientation.CW
            )
            if corners_right == 1:
                count += 1
    return count


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
