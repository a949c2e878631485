"""Continuous motion of a single point with exact event tracking.

Moving one point p along a ray p0 + t*d keeps every orientation
determinant linear in t, so the parameter values where some triple
through p becomes collinear (the mutation events) are exact rationals.
Crossing such a line through two other points flips exactly one
orientation; if the point playing the center role sees k other points
on its side before the flip, the crossing count changes by 2k - n + 3
and the depth census shifts by one unit between adjacent levels.

One integer kernel, ``_crossings``, finds the lines a motion crosses:
in one pass over the pairs it gives each crossing's parameter, centre
and side, keeps those up to a stop and returns the next parameter
beyond it.  ``_sorted_events`` orders them exactly and reads k from the
left-count rows; the reduction, ``motion_events`` and
``halving_ray_stable`` all go through the kernel.

A halving ray of an extreme point splits the remaining points as
evenly as possible and is oriented away from the set.  Motion along a
halving ray only ever decreases the crossing count, which drives the
hull reduction: repeatedly moving a suitable pair of extreme points
outward along crossing halving rays shrinks the convex hull until only
a triangle remains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import count, islice
from math import gcd
from typing import Iterator, List, Optional, Tuple

from .census import (
    EdgeVector,
    edge_vector_from_oriented_counts,
    left_counts,
    oriented_counts_from_rows,
)
from .crossings import crossings_from_census
from .geometry import (
    PointSet,
    angular_order,
    convex_hull,
    cross,
)


class SimultaneousEventError(RuntimeError):
    """Two mutation events share a parameter value.

    ``moving`` is the anchor of the ray whose motion hit them, so the
    caller knows which ray to retry with a direction nudged inside the
    same angular gap; only finitely many directions are degenerate.
    """

    def __init__(self, t: Fraction, pairs, moving: int):
        self.t = t
        self.pairs = tuple(pairs)
        self.moving = moving
        super().__init__("events for pairs %r coincide at t=%s" % (self.pairs, t))


@dataclass(frozen=True)
class Ray:
    """A motion ray: point ``anchor`` moves along anchor + t*direction."""

    anchor: int
    direction: Tuple[int, int]

    def __post_init__(self):
        dx, dy = self.direction
        if not isinstance(dx, int) or not isinstance(dy, int) or (dx == 0 and dy == 0):
            raise ValueError("direction must be a nonzero integer vector")


class HalvingRay(Ray):
    """A ray whose line splits the other points as evenly as possible,
    anchored at an extreme point and oriented away from the set."""


@dataclass(frozen=True)
class MutationEvent:
    moving: int
    pair: Tuple[int, int]
    t: Fraction
    center: int
    k: int
    crossing_delta: int


@dataclass(frozen=True)
class ConfigSummary:
    crossings: int
    edge_vector: EdgeVector
    hull_size: int

    @property
    def halving(self) -> int:
        return self.edge_vector.halving


@dataclass(frozen=True)
class MotionStep:
    moved: int
    ray: Ray
    stop: Fraction
    events: Tuple[MutationEvent, ...]


@dataclass(frozen=True)
class ReductionTrace:
    steps: Tuple[MotionStep, ...]
    before: ConfigSummary
    after: ConfigSummary


def _primitive(dx: int, dy: int) -> Tuple[int, int]:
    g = gcd(abs(dx), abs(dy))
    return (dx // g, dy // g)


def _farey_weights() -> Iterator[Tuple[int, int]]:
    """Deterministic enumeration (1,1), (1,2), (2,1), (1,3), (3,1), ...

    of coprime positive weight pairs, used to pick (and re-pick) a
    direction strictly inside an angular gap.
    """
    for s in count(2):
        for a in range(1, s):
            if gcd(a, s - a) == 1:
                yield (a, s - a)


def _wedge_sorted(S: PointSet, p: int) -> List[Tuple[int, int, int]]:
    """Vectors to the other points, sorted counterclockwise.

    Requires p extreme: the vectors then fit in an open half plane, so
    exactly one gap of angular_order(S, p) is reflex, and the wedge
    order is that list rotated to start just after it.
    """
    vs = angular_order(S, p)
    for i in range(len(vs)):
        u, w = vs[i - 1], vs[i]
        if u[0] * w[1] - u[1] * w[0] < 0:
            return vs[i:] + vs[:i]
    raise ValueError("point %d is not extreme" % p)


def _tail_ray(
    S: PointSet, p: int, attempt: int, side: Optional[Tuple[int, int]] = None
) -> HalvingRay:
    """The ``attempt``-th halving ray for the extreme point p.

    The other points are sorted by angle around p; the tail direction
    is taken strictly inside a median angular gap (splitting the points
    (n-1)/2 : (n-1)/2 for odd n and (n-2)/2 : n/2 for even n) and the
    head points the opposite way, leaving the set.  Unconstrained, the
    gap after (n-1)//2 points is used with the ``attempt``-th weight
    pair.  Given ``side`` h, the tail must also enter the left side of
    h (cross(h, tail) > 0): a median gap whose whole cone lies on the
    wrong side is skipped, and only weight pairs whose combination
    crosses into that side are counted.
    """
    n = len(S)
    vs = _wedge_sorted(S, p)
    for g in range((n - 1) // 2, n // 2 + 1):
        u, w = vs[g - 1], vs[g]
        if side is None:
            cu = cw = 1
        else:
            cu = side[0] * u[1] - side[1] * u[0]
            cw = side[0] * w[1] - side[1] * w[0]
            if cu <= 0 and cw <= 0:
                continue
        admissible = ((a, b) for a, b in _farey_weights() if a * cu + b * cw > 0)
        a, b = next(islice(admissible, attempt, None))
        return HalvingRay(p, _primitive(-(a * u[0] + b * w[0]), -(a * u[1] + b * w[1])))
    raise RuntimeError("internal: no admissible tail direction found")


def halving_ray(S: PointSet, p: int, attempt: int = 0) -> HalvingRay:
    """A halving ray for the extreme point p, oriented away from the
    set; ``attempt`` selects progressively different directions inside
    the same median angular gap."""
    return _tail_ray(S, p, attempt)


def is_halving_ray(S: PointSet, ray: Ray) -> bool:
    """Check the halving-ray invariants of ``ray`` against S.

    The anchor must be extreme, the supporting line must avoid all
    other points and split them as evenly as possible, and the head
    must point away from the set (the tail direction lies strictly
    inside the angular wedge spanned by the other points).
    """
    try:
        vs = _wedge_sorted(S, ray.anchor)
    except ValueError:
        return False
    tx, ty = -ray.direction[0], -ray.direction[1]
    sides = [tx * v[1] - ty * v[0] for v in vs]
    if 0 in sides:
        return False
    left = sum(1 for c in sides if c > 0)
    n = len(S)
    if min(left, n - 1 - left) != (n - 1) // 2:
        return False
    # head away from the set: the tail must lie strictly inside the
    # angular wedge, i.e. strictly between its two boundary vectors
    first = vs[0]
    last = vs[-1]
    return (
        first[0] * ty - first[1] * tx > 0
        and tx * last[1] - ty * last[0] > 0
    )


def _heavy_side(S: PointSet, p: int, q: int, left: int) -> Tuple[int, int]:
    """The direction of line pq, oriented so that its left side holds
    at least as many of the other points as its right side; ``left``
    counts the points left of p -> q."""
    hx, hy = S[q].x - S[p].x, S[q].y - S[p].y
    return (hx, hy) if 2 * left >= len(S) - 2 else (-hx, -hy)


def _line_intersection_inside_hull(
    S: PointSet, hull: Tuple[int, ...], rp: Ray, rq: Ray
) -> bool:
    """Whether the supporting lines of the two rays meet strictly
    inside the convex hull ``hull`` of S.

    The lines meet at z = p + (num/den)*dp.  With den > 0, den*z is an
    integer point and each hull edge ab is tested by the sign of
    den * cross(a, b, z), in integers.
    """
    p, q = S[rp.anchor], S[rq.anchor]
    dp, dq = rp.direction, rq.direction
    den = dp[0] * dq[1] - dp[1] * dq[0]
    if den == 0:
        return False
    num = (q.x - p.x) * dq[1] - (q.y - p.y) * dq[0]
    if den < 0:
        num, den = -num, -den
    zx = den * p.x + num * dp[0]
    zy = den * p.y + num * dp[1]
    xy = [(S[i].x, S[i].y) for i in hull]
    for (ax, ay), (bx, by) in zip(xy, xy[1:] + xy[:1]):
        if (bx - ax) * (zy - den * ay) - (by - ay) * (zx - den * ax) <= 0:
            return False
    return True


def _ray_pair(
    S: PointSet, hull: Tuple[int, ...], p: int, q: int, h: Tuple[int, int],
    attempt_p: int, attempt_q: int,
) -> Tuple[HalvingRay, HalvingRay]:
    ray_p = _tail_ray(S, p, attempt_p, h)
    ray_q = _tail_ray(S, q, attempt_q, h)
    if not _line_intersection_inside_hull(S, hull, ray_p, ray_q):
        raise RuntimeError("internal: ray lines do not cross inside the hull")
    return ray_p, ray_q


def _crossings(
    S: PointSet, ray: Ray, stop: Optional[Fraction]
) -> Tuple[List[Tuple[int, int, Tuple[int, int], int, bool]], Optional[Fraction]]:
    """The lines through two other points that the ray's anchor p crosses
    for parameters t in (0, stop] (every t > 0 when ``stop`` is None),
    unsorted, as (num, den, (i, j), centre, A > 0) with t = num/den,
    den > 0; and the least parameter beyond ``stop`` (None if there is
    none, or no stop).  One pass over the pairs, in integers.

    With a = x_i - p and b = x_j - p, p + t*d is on line ij when
    cross(a - t*d, b - t*d) = 0, at t = -A/B with A = cross(a, b) and
    B = cross(b - a, d).  Each point's offset across the ray line,
    w_i = cross(a, d), is taken once, and B = w_j - w_i, so only A needs
    products per pair.  B = 0 (line ij parallel to the ray): no event.
    The crossing lies at x_i + lam*(x_j - x_i) with lam = -w_i/B; the
    centre, the middle point of the collinear triple, is p when
    0 < lam < 1, i when lam < 0 and j otherwise.  A > 0 says that p
    starts left of i -> j.
    """
    p = ray.anchor
    dx, dy = ray.direction
    ox, oy = S[p].x, S[p].y
    rel = [(i, q.x - ox, q.y - oy) for i, q in enumerate(S) if i != p]
    rel = [(i, ax, ay, ax * dy - ay * dx) for i, ax, ay in rel]
    if stop is not None:
        sn, sd = stop.numerator, stop.denominator
    kept = []
    nxt = None
    for k, (i, ax, ay, wi) in enumerate(rel):
        for j, bx, by, wj in rel[k + 1:]:
            B = wj - wi
            if B == 0:
                continue
            A = ax * by - ay * bx
            if (A > 0) == (B > 0):
                continue
            num, den, lam = (-A, B, -wi) if B > 0 else (A, -B, wi)
            if stop is None or num * sd <= sn * den:
                centre = p if 0 < lam < den else i if lam < 0 else j
                kept.append((num, den, (i, j), centre, A > 0))
            elif nxt is None or num * nxt[1] < nxt[0] * den:
                nxt = (num, den)
    return kept, None if nxt is None else Fraction(*nxt)


def _sorted_events(S: PointSet, ray: Ray, raw, L) -> List[MutationEvent]:
    """The crossings ``raw`` (from _crossings) as events, in increasing
    order of parameter, with k read from the left-count rows L of S.

    The parameters num/den are ordered exactly by the sign of
    num * den' - num' * den, with no Fraction built for the comparison;
    two equal ones raise SimultaneousEventError.  Only the events get a
    Fraction.

    Before the event no other point changes side of the line through
    the two non-centre points (that would be an earlier event), and at
    the event that line is the line through the pair.  So k counts the
    points of S on the moving point's side of that line when it is the
    centre, and on the other side otherwise: both are read from
    L[i][j], the points left of the directed line i -> j.  L holds
    left_counts rows of S, the set before the motion: the reduction's
    matrix, advanced only after the whole step (``_advance``), or the
    rows motion_events builds.  The moving point crosses line ij only at
    this event, so L[i][j] still holds the count just before it.
    """
    raw = sorted(raw, key=cmp_to_key(lambda u, v: u[0] * v[1] - v[0] * u[1]))
    for u, v in zip(raw, raw[1:]):
        if u[0] * v[1] == v[0] * u[1]:
            raise SimultaneousEventError(Fraction(u[0], u[1]), [u[2], v[2]], ray.anchor)
    p, n = ray.anchor, len(S)
    events = []
    for num, den, (i, j), centre, p_left in raw:
        pos = L[i][j]
        neg = n - 2 - pos
        if centre == p:
            k = (pos if p_left else neg) - 1
        else:
            k = neg if p_left else pos
        events.append(MutationEvent(p, (i, j), Fraction(num, den), centre, k, 2 * k - n + 3))
    return events


def motion_events(S: PointSet, p: int, ray: Ray, stop) -> List[MutationEvent]:
    """Mutation events for moving p along the ray, for parameters in
    (0, stop], sorted ascending.  Events sharing a parameter raise
    SimultaneousEventError (the caller retries with a nudged ray)."""
    if ray.anchor != p:
        raise ValueError("ray is anchored at %d, not %d" % (ray.anchor, p))
    stop = Fraction(stop)
    if stop <= 0:
        raise ValueError("stop must be positive")
    raw, _ = _crossings(S, ray, stop)
    # only the rows of the pairs' first points are read
    rows = {i: left_counts(S, i) for i in {pair[0] for _, _, pair, _, _ in raw}}
    return _sorted_events(S, ray, raw, rows)


def apply_motion(S: PointSet, p: int, ray: Ray, stop) -> PointSet:
    """The set with p moved to its exact position at parameter ``stop``.

    The moved coordinates are rational; the whole set is rescaled by
    their least common denominator, one positive integer, which
    preserves the order type.  For a primitive direction that factor is
    the stop's denominator.  An integer stop (most reduction landings)
    is applied as an int, so ``PointSet.replace`` keeps the other points
    and rescales nothing.  A stop landing on an event raises the
    general-position error.
    """
    if ray.anchor != p:
        raise ValueError("ray is anchored at %d, not %d" % (ray.anchor, p))
    stop = Fraction(stop)
    if stop <= 0:
        raise ValueError("stop must be positive")
    o, (dx, dy) = S[p], ray.direction
    s = stop.numerator if stop.denominator == 1 else stop
    return S.replace(p, (o.x + s * dx, o.y + s * dy))


def config_summary(S: PointSet) -> ConfigSummary:
    return _matrix_summary([left_counts(S, i) for i in range(len(S))], convex_hull(S))


def _matrix_summary(L, hull: Tuple[int, ...]) -> ConfigSummary:
    """The summary of the set with left-count matrix L and hull
    ``hull``, its census read off L."""
    e = edge_vector_from_oriented_counts(len(L), oriented_counts_from_rows(L))
    return ConfigSummary(crossings=crossings_from_census(e), edge_vector=e, hull_size=len(hull))


def _advance(L, S: PointSet, step: MotionStep) -> list:
    """The left-count matrix after ``step``, from L, the matrix of S,
    the set before it (L itself is left as it is).

    Each event flips the one triple (i, j, p) of the pair and the moving
    point, so six entries move by one: with s = 1 when p was left of
    i -> j, else -1, L[i][j], L[j][p] and L[p][i] fall by s and L[j][i],
    L[i][p] and L[p][j] rise by s.  Rescaling keeps the order type, so
    nothing else changes.
    """
    L = [row[:] for row in L]
    p = step.moved
    c = S[p]
    for ev in step.events:
        i, j = ev.pair
        a, b = S[i], S[j]
        s = 1 if cross(a.x, a.y, b.x, b.y, c.x, c.y) > 0 else -1
        L[i][j] -= s
        L[j][p] -= s
        L[p][i] -= s
        L[j][i] += s
        L[i][p] += s
        L[p][j] += s
    return L


_MAX_ATTEMPTS = 64


def _simplest_between(lo: Fraction, hi: Optional[Fraction]) -> Fraction:
    """The simplest rational strictly between lo >= 0 and hi > lo (None
    for no upper end): the least denominator, then the least numerator.

    It is the first node of the Stern-Brocot tree inside the interval
    (Graham, Knuth and Patashnik, Concrete Mathematics, section 4.5).
    The walk takes each run of steps in one direction at once: if an
    integer lies strictly inside, the least one, floor(lo) + 1, is the
    answer; otherwise both ends share the integer part a, and the
    answer is a + 1/y with y the simplest rational strictly between
    1/(hi - a) and 1/(lo - a) (no upper end when lo = a).  The terms a
    are the continued fraction the two ends share.
    """
    terms = []
    while True:
        a = lo.numerator // lo.denominator
        if hi is None or a + 1 < hi:
            terms.append(a + 1)
            break
        terms.append(a)
        lo, hi = 1 / (hi - a), (None if lo == a else 1 / (lo - a))
    x = Fraction(terms.pop())
    while terms:
        x = terms.pop() + 1 / x
    return x


def _land(
    S: PointSet, L, ray: Ray, h: Tuple[int, int], pair: Tuple[int, int]
) -> Tuple[PointSet, list, MotionStep]:
    """Move the ray's anchor a to just beyond the far offset across h.

    The far offset is the least signed offset cross(h, x - a) over the
    points x of S outside ``pair``.  The anchor reaches it at t_low, and
    its first event after t_low is at t_next (none: no upper end).  The
    stop is the simplest rational in (t_low, t_next).  One _crossings
    pass gives t_next and the step's crossings, those up to t_low, which
    _sorted_events orders and reads against L, the left-count matrix of
    S.  Returns the moved set, its matrix (a new one, ``_advance``) and
    the step.

    The landing a' keeps general position.  The stop lies strictly
    between event parameters, so a' is on no line through two other
    points.  Nor can a' coincide with a point x: a' would then lie on
    line xy for every other point y, and each such line is an event:
    one parallel to the ray would be the ray's own line, making a, x
    and y collinear.
    """
    ax, ay = S[ray.anchor].x, S[ray.anchor].y
    low = min(h[0] * (x.y - ay) - h[1] * (x.x - ax) for j, x in enumerate(S) if j not in pair)
    dx, dy = ray.direction
    rate = h[0] * dy - h[1] * dx
    if rate >= 0 or low >= 0:
        raise RuntimeError("internal: the ray does not head past the far side of the set")
    t_low = Fraction(low, rate)
    kept, t_next = _crossings(S, ray, t_low)
    stop = _simplest_between(t_low, t_next)
    events = _sorted_events(S, ray, kept, L)
    step = MotionStep(ray.anchor, ray, stop, tuple(events))
    return apply_motion(S, ray.anchor, ray, stop), _advance(L, S, step), step


def reduce_to_triangle(S: PointSet) -> Tuple[PointSet, ReductionTrace]:
    """Shrink the convex hull to a triangle without ever increasing the
    crossing count.

    Each round pairs the first hull point p with the opposite one
    q = hull[len(hull) // 2] (never adjacent to it on a hull of four or
    more points) and equips both with halving rays whose tails enter the
    heavier side of line pq; the two ray lines meet in their tails at a
    point z strictly inside the hull, on that side, and the heads leave
    across line pq.  The
    far offset is the least signed offset across pq of the points other
    than p and q.  First p, then q, moves outward along its ray to the
    simplest rational parameter beyond the far offset and before its
    next event (``_land``): with primitive directions most landings are
    lattice points, and a fractional one rescales the set by a small
    denominator, so coordinates stay near the input size.  Every
    mutation on the way strictly decreases the crossing count and
    shifts one census unit downward.

    Why q's ray survives p's landing.  Take the frame with origin z and
    axes along the heads d_p and d_q, scaled so that p = (1, 0) and
    q = (0, 1); affine maps keep sides and cones.  The light side of
    line pq is x + y > 1.  (a) Every light point w other than p, q has
    y_w > 0: if w - p = (a, b) with b <= 0 < a + b, then
    (w - p) - b(q - p) = (a + b, 0), a positive multiple of p's head,
    lies in p's wedge (weights 1 and -b >= 0 on two of its vectors),
    which a halving ray excludes.  (b) At t_low p is at
    P = w + y_w(p - q), with w a deepest light point, so
    P - q = (w - q) + y_w(p - q) lies strictly inside q's wedge, as p
    is not q's hull neighbour.  (c) No event lies between t_low and the
    stop, so p' crosses neither hull-edge line at q and q keeps its
    wedge; the ray lines meet only at z, so p' also stays on its side
    of q's ray line.  So q's ray is still a halving ray of the moved
    set; a round where it is not contradicts this argument and raises
    RuntimeError as an internal error.

    Why the hull shrinks.  p lies between z and its landing p', and z
    is in the old hull, so z is a convex combination of p' and the
    points that stay: the hull only grows, no interior point becomes
    extreme, and z stays inside; the same holds for q.  A hull point c
    strictly between p and q on the side the heads cross to is inside
    the angle of the two rays at z, because segment zc crosses line pq
    within segment pq.  The offset falls linearly along both rays from
    z, and c's offset is at least the far offset while p' and q' lie
    beyond it, so c is strictly inside the triangle z p' q' (it is on
    neither ray line) and becomes interior.  The new hull vertices are
    thus p', q' and old ones other than p, q and every such c; at least
    one c exists, so the hull shrinks, whether or not p' and q' share a
    line parallel to pq.  A round whose hull does not shrink therefore
    contradicts this argument and raises RuntimeError as an internal
    error; it is not retried.

    If a motion hits simultaneous events, that point's ray is nudged.
    p's landing depends only on its ray, so when q's ray is nudged,
    only q lands again.

    The order type is kept across moves: the left-count matrix of the
    set (``left_counts`` rows, one per point) is built once and advanced
    by each landing's events (``_advance``).  It classifies the events,
    orients line pq and gives the census of ``before`` and ``after``.
    """
    steps: List[MotionStep] = []
    L = [left_counts(S, i) for i in range(len(S))]
    hull = convex_hull(S)
    before = _matrix_summary(L, hull)
    while len(hull) > 3:
        p, q = hull[0], hull[len(hull) // 2]
        h = _heavy_side(S, p, q, L[p][q])
        pair = (p, q)
        attempt = {p: 0, q: 0}
        landed_p = None
        for _ in range(_MAX_ATTEMPTS):
            try:
                ray_p, ray_q = _ray_pair(S, hull, p, q, h, attempt[p], attempt[q])
                if landed_p is None:
                    landed_p = _land(S, L, ray_p, h, pair)
                S1, L1, step_p = landed_p
                if not is_halving_ray(S1, ray_q):
                    raise RuntimeError("internal: q's ray is no longer a halving ray after p's landing")
                S2, L2, step_q = _land(S1, L1, ray_q, h, pair)
            except SimultaneousEventError as exc:
                attempt[exc.moving] += 1
                continue
            hull2 = convex_hull(S2)
            if len(hull2) >= len(hull):
                raise RuntimeError("internal: the hull did not shrink in a round")
            S, L, hull = S2, L2, hull2
            steps += [step_p, step_q]
            break
        else:
            raise RuntimeError("internal: hull reduction failed to make progress")
    return S, ReductionTrace(tuple(steps), before, _matrix_summary(L, hull))


def halving_ray_stable(S: PointSet) -> bool:
    """For a set with a triangular hull: whether no motion of an
    extreme point along its halving ray can ever change the order type.

    For each hull vertex p, one _crossings pass with no stop lists every
    line through two other points that p crosses at some t > 0 on its
    first halving ray, ``halving_ray(S, p)``; the set is stable when all
    three lists are empty.  Equivalently, the angular order of the other
    points around p coincides with their order in the direction
    orthogonal to the ray: a pair disagreeing between the two orders is
    exactly a pending mutation event.
    """
    hull = convex_hull(S)
    if len(hull) != 3:
        raise ValueError("defined for sets with a triangular hull")
    return not any(_crossings(S, halving_ray(S, p), None)[0] for p in hull)
