"""Continuous motion of a single point with exact event tracking.

Moving one point p along a ray p0 + t*d keeps every orientation
determinant linear in t, so the parameter values where some triple
through p becomes collinear (the mutation events) are exact rationals.
Crossing such a line through two other points flips exactly one
orientation; if the point playing the center role sees k other points
on its side before the flip, the crossing count changes by 2k - n + 3
and the depth census shifts by one unit between adjacent levels.

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
from itertools import count, islice
from math import gcd
from typing import Dict, Iterator, List, Optional, Tuple

from .census import EdgeVector, edge_vector_sweep, left_counts
from .crossings import crossings_from_census
from .geometry import (
    GeneralPositionError,
    Point,
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


def _heavy_side(S: PointSet, p: int, q: int) -> Tuple[int, int]:
    """The direction of line pq, oriented so that its left side holds
    at least as many of the other points as its right side."""
    left = left_counts(S, p)[q]
    hx, hy = S[q].x - S[p].x, S[q].y - S[p].y
    return (hx, hy) if 2 * left >= len(S) - 2 else (-hx, -hy)


def _line_intersection_inside_hull(
    S: PointSet, hull: Tuple[int, ...], rp: Ray, rq: Ray
) -> bool:
    """Whether the supporting lines of the two rays meet strictly
    inside the convex hull ``hull`` of S."""
    p, q = S[rp.anchor], S[rq.anchor]
    dp, dq = rp.direction, rq.direction
    denom = dp[0] * dq[1] - dp[1] * dq[0]
    if denom == 0:
        return False
    # solve p + s*dp = q + t*dq
    s = Fraction((q.x - p.x) * dq[1] - (q.y - p.y) * dq[0], denom)
    zx = p.x + s * dp[0]
    zy = p.y + s * dp[1]
    for i in range(len(hull)):
        a = S[hull[i]]
        b = S[hull[(i + 1) % len(hull)]]
        if cross(a.x, a.y, b.x, b.y, zx, zy) <= 0:
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


def halving_ray_pair(
    S: PointSet, p: int, q: int, attempt_p: int = 0, attempt_q: int = 0
) -> Tuple[HalvingRay, HalvingRay]:
    """Halving rays for two non-consecutive extreme points whose tails
    enter the side of the line pq holding at least ceil((n-2)/2) points
    and whose supporting lines therefore cross inside the hull.
    """
    hull = convex_hull(S)
    if p not in hull or q not in hull:
        raise ValueError("both points must be extreme")
    ip, iq = hull.index(p), hull.index(q)
    if (ip - iq) % len(hull) in (1, len(hull) - 1):
        raise ValueError("points %d and %d are consecutive on the hull" % (p, q))
    return _ray_pair(S, hull, p, q, _heavy_side(S, p, q), attempt_p, attempt_q)


def _event_parameters(S: PointSet, ray: Ray) -> List[Tuple[Fraction, Tuple[int, int]]]:
    """All positive parameters where the moving point crosses a line
    through two other points, with the pair, unsorted."""
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
            out.append((Fraction(-A, B), (i, j)))
    return out


def _classify(
    S: PointSet, ray: Ray, t: Fraction, pair: Tuple[int, int], rows: Dict[int, list]
) -> MutationEvent:
    """The event at parameter t where the moving point crosses the line
    through ``pair``, decided by integer signs alone.

    The center is the middle point of the collinear triple at t.  Before
    t no other point changes side of the line through the two non-center
    points (that would be an earlier event), and at t that line is the
    line through ``pair``.  So k counts the points of S on the moving
    point's side of that line when it is the center, and on the other
    side otherwise: both are read from the left_counts row of the pair's
    first point, which ``rows`` caches per anchor for S, the set before
    the motion.
    """
    p = ray.anchor
    dx, dy = ray.direction
    i, j = pair
    a, b, p0 = S[i], S[j], S[p]
    # the event lies at a + lam*(b - a) with lam = num / den
    num = (p0.x - a.x) * dy - (p0.y - a.y) * dx
    den = (b.x - a.x) * dy - (b.y - a.y) * dx
    if den < 0:
        num, den = -num, -den
    if 0 < num < den:
        center = p
    elif num < 0:
        center = i
    else:
        center = j
    if i not in rows:
        rows[i] = left_counts(S, i)
    n = len(S)
    pos = rows[i][j]
    neg = n - 2 - pos
    p_pos = cross(a.x, a.y, b.x, b.y, p0.x, p0.y) > 0
    if center == p:
        k = (pos if p_pos else neg) - 1
    else:
        k = neg if p_pos else pos
    return MutationEvent(
        moving=p, pair=pair, t=t, center=center, k=k, crossing_delta=2 * k - n + 3
    )


def _events(S: PointSet, ray: Ray, stop: Optional[Fraction]) -> List[MutationEvent]:
    raw = _event_parameters(S, ray)
    if stop is not None:
        raw = [ev for ev in raw if ev[0] <= stop]
    raw.sort(key=lambda ev: ev[0])
    for a, b in zip(raw, raw[1:]):
        if a[0] == b[0]:
            raise SimultaneousEventError(a[0], [a[1], b[1]], ray.anchor)
    rows: Dict[int, list] = {}
    return [_classify(S, ray, t, pair, rows) for t, pair in raw]


def motion_events(S: PointSet, p: int, ray: Ray, stop) -> List[MutationEvent]:
    """Mutation events for moving p along the ray, for parameters in
    (0, stop], sorted ascending.  Events sharing a parameter raise
    SimultaneousEventError (the caller retries with a nudged ray)."""
    if ray.anchor != p:
        raise ValueError("ray is anchored at %d, not %d" % (ray.anchor, p))
    stop = Fraction(stop)
    if stop <= 0:
        raise ValueError("stop must be positive")
    return _events(S, ray, stop)


def apply_motion(S: PointSet, p: int, ray: Ray, stop) -> PointSet:
    """The set with p moved to its exact position at parameter ``stop``.

    The moved coordinate is rational; the whole set is rescaled by one
    positive integer factor (the cleared denominator), which preserves
    the order type.  A stop landing on an event raises the
    general-position error; callers retry with a different stop.
    """
    if ray.anchor != p:
        raise ValueError("ray is anchored at %d, not %d" % (ray.anchor, p))
    stop = Fraction(stop)
    if stop <= 0:
        raise ValueError("stop must be positive")
    nx = S[p].x + stop * ray.direction[0]
    ny = S[p].y + stop * ray.direction[1]
    return S.replace(p, (nx, ny))


def config_summary(S: PointSet) -> ConfigSummary:
    e = edge_vector_sweep(S)
    return ConfigSummary(
        crossings=crossings_from_census(e),
        edge_vector=e,
        hull_size=len(convex_hull(S)),
    )


_MAX_ATTEMPTS = 64


class _RoundRetry(Exception):
    """The parallel stop line was not placed close enough to the set."""


def _signed_offset(h, origin: Point, x, y):
    """Signed distance surrogate of (x, y) across the line through
    ``origin`` with direction h; positive on its left (tail) side."""
    return h[0] * (y - origin.y) - h[1] * (x - origin.x)


def _stop_at_offset(S: PointSet, ray: Ray, h, origin: Point, target) -> Fraction:
    """Parameter at which the ray's anchor reaches signed offset
    ``target``; the head must be driving the offset down."""
    a = S[ray.anchor]
    start = _signed_offset(h, origin, a.x, a.y)
    dx, dy = ray.direction
    rate = h[0] * dy - h[1] * dx
    if rate >= 0:
        raise RuntimeError("internal: ray head does not leave across the pair line")
    t = Fraction(target - start, rate)
    if t <= 0:
        raise RuntimeError("internal: stop parameter is not positive")
    return t


def _land(S: PointSet, ray: Ray, stop: Fraction) -> Tuple[PointSet, MotionStep]:
    """Move the ray's anchor to ``stop``, with the events on the way;
    a stop on an event raises _RoundRetry."""
    events = _events(S, ray, stop)
    if events and events[-1].t == stop:
        raise _RoundRetry
    return apply_motion(S, ray.anchor, ray, stop), MotionStep(ray.anchor, ray, stop, tuple(events))


def _round_once(
    S0: PointSet, hull: Tuple[int, ...], p: int, q: int, h: Tuple[int, int],
    attempt: Dict[int, int], target: Fraction,
) -> Tuple[PointSet, List[MotionStep]]:
    """One reduction round: move p, then q, onto the common line
    parallel to their connecting line at signed offset ``target``
    across h (the heavy-side direction of line pq), beyond the set.

    ``hull`` is the hull of S0 and ``attempt`` maps p and q to the
    tail-direction attempt of their rays.  Raises
    SimultaneousEventError (whose ``moving`` names the ray to nudge)
    and _RoundRetry when the stop line has to move closer to the set.
    """
    ray_p, ray_q = _ray_pair(S0, hull, p, q, h, attempt[p], attempt[q])
    S1, step_p = _land(S0, ray_p, _stop_at_offset(S0, ray_p, h, S0[p], target))
    # moving p never crosses the line of q's ray (the two lines meet in
    # their tails, inside the hull), so the split is untouched; only q's
    # extremality could degrade, in which case the stop line moves closer
    if not is_halving_ray(S1, ray_q):
        raise _RoundRetry
    S2, step_q = _land(S1, ray_q, _stop_at_offset(S1, ray_q, h, S1[p], Fraction(0)))
    return S2, [step_p, step_q]


def reduce_to_triangle(S: PointSet) -> Tuple[PointSet, ReductionTrace]:
    """Shrink the convex hull to a triangle without ever increasing the
    crossing count.

    Each round pairs the first hull point with the opposite one,
    hull[len(hull) // 2] (never adjacent to it on a hull of four or
    more points), equips both with halving rays whose tails share the
    heavier side of their connecting line, and moves first one and then
    the other point onto a common stop line parallel to that connecting
    line, placed just beyond the far side of the set.  Every mutation on
    the way strictly decreases the crossing count and shifts one census
    unit downward, and the hull points between the pair on the
    stop-line side become interior, so the hull shrinks every round; the
    opposite pair puts about half of the hull on that side.  Every
    landing rescales the whole set, so few rounds also keep the
    coordinates short.  If a stop line turns
    out to sit too deep (a landing hits an event, or the hull fails to
    shrink), it is retried exponentially closer to the set; if a motion
    hits simultaneous events, that point's ray is nudged.
    """
    steps: List[MotionStep] = []
    before = config_summary(S)
    hull = convex_hull(S)
    while len(hull) > 3:
        p, q = hull[0], hull[len(hull) // 2]
        h = _heavy_side(S, p, q)
        low = min(
            _signed_offset(h, S[p], pt.x, pt.y) for j, pt in enumerate(S) if j != p and j != q
        )
        attempt = {p: 0, q: 0}
        depth_exp = 0
        for _ in range(_MAX_ATTEMPTS):
            try:
                S2, new_steps = _round_once(
                    S, hull, p, q, h, attempt, low - Fraction(1, 2 ** depth_exp)
                )
            except SimultaneousEventError as exc:
                attempt[exc.moving] += 1
                continue
            except (_RoundRetry, GeneralPositionError):
                depth_exp += 1
                continue
            hull2 = convex_hull(S2)
            if len(hull2) >= len(hull):
                depth_exp += 1
                continue
            S, hull = S2, hull2
            steps.extend(new_steps)
            break
        else:
            raise RuntimeError("internal: hull reduction failed to make progress")
    after = config_summary(S)
    return S, ReductionTrace(tuple(steps), before, after)


def halving_ray_stable(S: PointSet) -> bool:
    """For a set with a triangular hull: whether no motion of an
    extreme point along its halving ray can ever change the order type.

    Equivalent to requiring, for every extreme p, that the angular
    order of the other points around p coincides with their order in
    the direction orthogonal to p's halving ray: a pair disagreeing
    between the two orders is exactly a pending mutation event.
    """
    hull = convex_hull(S)
    if len(hull) != 3:
        raise ValueError("defined for sets with a triangular hull")
    for p in hull:
        ray = halving_ray(S, p)
        if _event_parameters(S, ray):
            return False
    return True
