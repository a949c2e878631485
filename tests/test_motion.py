"""Motion events, halving rays, mutations and the hull reduction."""

import random
from fractions import Fraction
from math import comb

import pytest

from kedges import (
    GeneralPositionError,
    PointSet,
    Ray,
    SimultaneousEventError,
    apply_motion,
    convex_hull,
    crossings_bruteforce,
    cumulative,
    edge_vector_bruteforce,
    halving_ray,
    halving_ray_pair,
    halving_ray_stable,
    hull_size,
    is_extreme,
    is_halving_ray,
    motion_events,
    order_type,
    orientation,
    reduce_to_triangle,
)
from helpers import convex_polygon, random_point_set


def cr(S):
    return crossings_bruteforce(S).crossings


def expected_transfer(e, n, k):
    """Edge vector after one k-mutation, per the unit transfer law."""
    out = list(e)
    if 2 * k == n - 3:
        return tuple(out)
    if 2 * k < n - 3:
        out[k] -= 1
        out[k + 1] += 1
    else:
        kk = n - 3 - k
        out[kk] += 1
        out[kk + 1] -= 1
    return tuple(out)


def all_events_stop(S):
    """A stop parameter past every possible event of any motion on S.

    Event parameters are ratios |A|/|B| with |B| >= 1 and |A| at most
    twice the squared coordinate range, so this always suffices.
    """
    r = max(max(abs(p.x), abs(p.y)) for p in S)
    return Fraction(8 * r * r + 1)


# ---------------------------------------------------------------- rays


def test_halving_ray_rejects_interior_anchor():
    S = PointSet([(0, 0), (10, 0), (0, 10), (2, 3)])
    with pytest.raises(ValueError):
        halving_ray(S, 3)


def test_halving_ray_square_plus_center():
    S = PointSet([(0, 0), (10, 0), (10, 10), (0, 10), (4, 5)])
    for corner in range(4):
        ray = halving_ray(S, corner)
        assert ray.anchor == corner
        assert is_halving_ray(S, ray)


def test_halving_ray_invariants_random():
    rng = random.Random(111)
    checked = 0
    while checked < 150:
        S = random_point_set(rng, rng.randint(4, 10))
        hull = convex_hull(S)
        p = hull[rng.randrange(len(hull))]
        ray = halving_ray(S, p)
        assert ray.anchor == p
        assert is_halving_ray(S, ray)
        # the ray's line avoids the others and splits them almost evenly
        n = len(S)
        dx, dy = ray.direction
        o = S[p]
        left = sum(
            1
            for i in range(n)
            if i != p and dx * (S[i].y - o.y) - dy * (S[i].x - o.x) > 0
        )
        assert {left, n - 1 - left} == (
            {(n - 1) // 2} if n % 2 == 1 else {(n - 2) // 2, n // 2}
        )
        checked += 1


def test_is_halving_ray_rejections_return_false():
    S = PointSet([(0, 0), (10, 0), (10, 10), (0, 10), (4, 5)])
    ray = halving_ray(S, 0)
    assert is_halving_ray(S, ray)
    # an interior anchor
    assert not is_halving_ray(S, Ray(4, ray.direction))
    # a line through another point: the diagonal leaves (10, 0) on one
    # side and (0, 10), (4, 5) on the other, a 2 : 2 split without it
    assert not is_halving_ray(S, Ray(0, (-1, -1)))
    # an unbalanced 1 : 3 split, the tail still inside the wedge
    assert not is_halving_ray(S, Ray(0, (-10, -1)))
    # a valid halving ray with its head turned into the set
    assert not is_halving_ray(S, Ray(0, (-ray.direction[0], -ray.direction[1])))


def test_halving_ray_pair_requires_non_consecutive():
    S = convex_polygon(6)
    hull = convex_hull(S)
    with pytest.raises(ValueError):
        halving_ray_pair(S, hull[0], hull[1])


def _line_meet(S, ra, rb):
    """Intersection point of the two ray lines (exact, or None)."""
    a, b = S[ra.anchor], S[rb.anchor]
    d, e = ra.direction, rb.direction
    den = d[0] * e[1] - d[1] * e[0]
    if den == 0:
        return None
    t = Fraction((b.x - a.x) * e[1] - (b.y - a.y) * e[0], den)
    return (a.x + t * d[0], a.y + t * d[1])


def _strictly_inside_hull(S, pt):
    hull = convex_hull(S)
    h = len(hull)
    for i in range(h):
        a, b = S[hull[i]], S[hull[(i + 1) % h]]
        side = (b.x - a.x) * (pt[1] - a.y) - (b.y - a.y) * (pt[0] - a.x)
        if side <= 0:
            return False
    return True


def test_halving_ray_pair_crosses_inside_hull():
    rng = random.Random(222)
    checked = 0
    while checked < 80:
        S = random_point_set(rng, rng.randint(5, 10))
        hull = convex_hull(S)
        if len(hull) < 4:
            continue
        p, q = hull[0], hull[2]
        rp, rq = halving_ray_pair(S, p, q)
        assert is_halving_ray(S, rp) and is_halving_ray(S, rq)
        meet = _line_meet(S, rp, rq)
        assert meet is not None
        assert _strictly_inside_hull(S, meet)
        checked += 1


def test_halving_ray_pair_named_examples():
    square = PointSet([(0, 0), (12, 0), (12, 12), (0, 12), (5, 4), (7, 9)])
    hull = convex_hull(square)
    rp, rq = halving_ray_pair(square, hull[0], hull[2])
    assert _strictly_inside_hull(square, _line_meet(square, rp, rq))
    hexagon = PointSet([(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2), (0, 1)])
    hull = convex_hull(hexagon)
    rp, rq = halving_ray_pair(hexagon, hull[0], hull[2])
    assert is_halving_ray(hexagon, rp) and is_halving_ray(hexagon, rq)


# ------------------------------------------------------------- events


GOLDEN = PointSet([(0, 0), (10, 0), (0, 10), (1, 1)])
DIAG = Ray(anchor=3, direction=(1, 1))


def test_motion_events_golden_crossing():
    events = motion_events(GOLDEN, 3, DIAG, 10)
    assert len(events) == 1
    ev = events[0]
    assert ev.t == Fraction(4)
    assert ev.pair == (1, 2)
    assert ev.moving == 3 and ev.center == 3
    assert ev.k == 1
    assert ev.crossing_delta == 2 * ev.k - 4 + 3 == 1


def test_motion_events_stop_before_first_is_empty():
    assert motion_events(GOLDEN, 3, DIAG, 3) == []
    with pytest.raises(ValueError):
        motion_events(GOLDEN, 3, DIAG, 0)
    with pytest.raises(ValueError):
        motion_events(GOLDEN, 0, DIAG, 5)


def test_golden_crossing_delta_against_brute_force():
    before = apply_motion(GOLDEN, 3, DIAG, 3)
    after = apply_motion(GOLDEN, 3, DIAG, 5)
    assert cr(after) - cr(before) == 1
    assert cr(before) == cr(GOLDEN) == 0


def test_single_event_flips_one_triple():
    before = order_type(GOLDEN)
    after = order_type(apply_motion(GOLDEN, 3, DIAG, 5))
    assert before.diff(after) == {(1, 2, 3)}


def test_apply_motion_without_events_preserves_order_type():
    moved = apply_motion(GOLDEN, 3, DIAG, Fraction(7, 2))
    assert order_type(moved).diff(order_type(GOLDEN)) == set()


def test_apply_motion_landing_on_event_is_degenerate():
    with pytest.raises(GeneralPositionError):
        apply_motion(GOLDEN, 3, DIAG, 4)


def test_simultaneous_events_raise():
    S = PointSet([(0, 0), (2, 1), (2, -1), (4, 1), (4, -1)])
    ray = Ray(anchor=0, direction=(1, 0))
    with pytest.raises(SimultaneousEventError) as exc:
        motion_events(S, 0, ray, 10)
    assert exc.value.moving == 0


def test_halving_ray_events_always_improve():
    rng = random.Random(333)
    checked = 0
    while checked < 60:
        S = random_point_set(rng, rng.randint(5, 10))
        n = len(S)
        hull = convex_hull(S)
        p = hull[rng.randrange(len(hull))]
        for attempt in range(8):
            try:
                events = motion_events(S, p, halving_ray(S, p, attempt), all_events_stop(S))
                break
            except SimultaneousEventError:
                continue
        else:
            continue
        for ev in events:
            assert 2 * ev.k <= n - 4
            assert ev.crossing_delta < 0
        checked += 1


def test_event_laws_verified_by_replay():
    rng = random.Random(444)
    checked = 0
    while checked < 25:
        S = random_point_set(rng, rng.randint(5, 9), radius=30)
        n = len(S)
        hull = convex_hull(S)
        p = hull[rng.randrange(len(hull))]
        for attempt in range(8):
            ray = halving_ray(S, p, attempt)
            try:
                events = motion_events(S, p, ray, all_events_stop(S))
                break
            except SimultaneousEventError:
                continue
        else:
            continue
        if not events:
            continue
        prev_t = Fraction(0)
        for pos, ev in enumerate(events):
            mid_before = (prev_t + ev.t) / 2
            if pos + 1 < len(events):
                mid_after = (ev.t + events[pos + 1].t) / 2
            else:
                mid_after = ev.t + 1
            A = apply_motion(S, p, ray, mid_before)
            B = apply_motion(S, p, ray, mid_after)
            assert cr(B) - cr(A) == ev.crossing_delta
            assert edge_vector_bruteforce(B).e == expected_transfer(
                edge_vector_bruteforce(A).e, n, ev.k
            )
            assert order_type(A).diff(order_type(B)) == {tuple(sorted((p,) + ev.pair))}
            prev_t = ev.t
        checked += 1


def _recount_events(S, ray, events):
    """Assert each event's center and k against an independent recount.

    The center is the middle point, in (x, y) order, of the collinear
    triple at the exact event position.  k is recounted with
    ``orientation`` on the set moved to the midpoint of the previous and
    current event parameters: the points other than the triple on the
    center's side of the line through the other two.
    """
    p = ray.anchor
    dx, dy = ray.direction
    prev_t = Fraction(0)
    for ev in events:
        i, j = ev.pair
        at = {i: (S[i].x, S[i].y), j: (S[j].x, S[j].y)}
        at[p] = (S[p].x + ev.t * dx, S[p].y + ev.t * dy)
        center = sorted(at, key=at.get)[1]
        A = apply_motion(S, p, ray, (prev_t + ev.t) / 2)
        a, b = (A[x] for x in (p, i, j) if x != center)
        side = orientation(a, b, A[center])
        k = sum(
            1
            for x in range(len(A))
            if x not in (p, i, j) and orientation(a, b, A[x]) == side
        )
        assert (ev.center, ev.k) == (center, k), (S, ray, ev)
        prev_t = ev.t


def test_event_center_and_k_match_recount():
    rng = random.Random(555)
    rays = 0
    for _ in range(40):
        S = random_point_set(rng, rng.randint(4, 11), radius=30)
        candidates = [halving_ray(S, p, a) for p in convex_hull(S) for a in range(2)]
        for _ in range(3):
            d = (rng.randint(-7, 7), rng.randint(-7, 7))
            if d != (0, 0):
                candidates.append(Ray(rng.randrange(len(S)), d))
        for ray in candidates:
            try:
                events = motion_events(S, ray.anchor, ray, all_events_stop(S))
            except SimultaneousEventError:
                continue
            _recount_events(S, ray, events)
            rays += 1
    assert rays > 300


# ---------------------------------------------------------- reduction


def test_reduce_triangle_hull_is_identity():
    S = PointSet([(0, 0), (20, 0), (0, 20), (3, 4), (7, 5), (5, 9)])
    assert hull_size(S) == 3
    T, trace = reduce_to_triangle(S)
    assert T == S
    assert trace.steps == ()
    assert trace.before == trace.after


def test_reduce_convex_hexagon():
    T, trace = reduce_to_triangle(convex_polygon(6))
    assert hull_size(T) == 3
    assert cr(T) < comb(6, 4)
    assert trace.before.crossings == comb(6, 4)
    assert len(trace.steps) >= 1


def test_reduce_postconditions_random():
    rng = random.Random(555)
    for _ in range(30):
        S = random_point_set(rng, rng.randint(4, 10), radius=40)
        T, trace = reduce_to_triangle(S)
        assert hull_size(T) == 3
        assert trace.after.hull_size == 3
        assert trace.before.crossings == cr(S)
        assert trace.after.crossings == cr(T)
        assert trace.after.crossings <= trace.before.crossings
        Eb = cumulative(edge_vector_bruteforce(S)).E
        Ea = cumulative(edge_vector_bruteforce(T)).E
        assert all(a <= b for a, b in zip(Ea, Eb))
        if hull_size(S) > 3:
            assert any(a < b for a, b in zip(Ea, Eb))
        assert edge_vector_bruteforce(T).halving >= edge_vector_bruteforce(S).halving
        for st in trace.steps:
            for ev in st.events:
                assert ev.crossing_delta < 0
                assert ev.crossing_delta == 2 * ev.k - len(S) + 3


def test_reduce_trace_replays_to_output():
    rng = random.Random(666)
    for _ in range(10):
        S = random_point_set(rng, rng.randint(5, 9), radius=40)
        T, trace = reduce_to_triangle(S)
        R = S
        for st in trace.steps:
            R = apply_motion(R, st.moved, st.ray, st.stop)
        assert R == T


# Sets whose reduction hits simultaneous events: in A the motion of q
# in the first round, in B the motion of p in the third.
NUDGE_CASES = [
    (
        [(-6, -5), (-6, 3), (-5, 6), (-2, -6), (0, -1), (1, 0), (1, 1), (2, -3),
         (3, 3), (4, 0), (5, -5)],
        [(0, (-13, -9)), (10, (20, -19)), (0, (-13, -9)), (8, (5, 7))],
        180,
        (0, 1),
    ),
    (
        [(-6, -3), (-5, -3), (-4, -4), (-3, 0), (-3, 4), (1, -6), (3, 5), (4, -5),
         (4, 1), (5, 0), (5, 4)],
        [(0, (-3, -1)), (5, (2, -21)), (0, (-3, -1)), (7, (1, -1)),
         (0, (-290669811, -101413969)), (10, (19, 15))],
        196,
        (2, 0),
    ),
]


def test_reduce_nudges_the_ray_that_hit_simultaneous_events():
    for pts, expected_steps, crossings_after, (nudged_round, nudged) in NUDGE_CASES:
        S = PointSet(pts)
        T, trace = reduce_to_triangle(S)
        assert [(st.moved, st.ray.direction) for st in trace.steps] == expected_steps
        assert hull_size(T) == 3
        assert trace.before.crossings == cr(S)
        assert trace.after.crossings == cr(T) == crossings_after
        for st in trace.steps:
            for ev in st.events:
                assert ev.crossing_delta < 0
        R = S
        for i, st in enumerate(trace.steps):
            if i == 2 * nudged_round:
                # the nudged ray is the second direction of its point;
                # the other ray of the round keeps its first
                hull = convex_hull(R)
                attempts = [0, 0]
                attempts[nudged] = 1
                pair = halving_ray_pair(R, hull[0], hull[2], *attempts)
                assert pair == (st.ray, trace.steps[i + 1].ray)
                assert halving_ray_pair(R, hull[0], hull[2])[nudged] != pair[nudged]
            R = apply_motion(R, st.moved, st.ray, st.stop)
        assert R == T


# ------------------------------------------------------- stability


def test_halving_ray_stable_requires_triangle_hull():
    with pytest.raises(ValueError):
        halving_ray_stable(convex_polygon(5))


def test_four_point_sets_are_always_stable():
    assert halving_ray_stable(GOLDEN)
    rng = random.Random(777)
    checked = 0
    while checked < 40:
        S = random_point_set(rng, 4)
        if hull_size(S) != 3:
            continue
        # an event would need 2k-1 < 0 crossings; there are none to lose
        assert halving_ray_stable(S)
        checked += 1


def test_known_unstable_configuration():
    S = PointSet([(-28, 9), (-12, 12), (-2, 3), (20, 17), (25, -30), (30, 24)])
    assert hull_size(S) == 3
    assert not halving_ray_stable(S)


def exhaust_ray_motions(S, max_rounds=400):
    """Reduce, then keep moving extremes past their remaining events."""
    T = S
    for _ in range(max_rounds):
        if hull_size(T) != 3:
            T, _tr = reduce_to_triangle(T)
        moved = False
        for p in convex_hull(T):
            for attempt in range(12):
                ray = halving_ray(T, p, attempt)
                try:
                    events = motion_events(T, p, ray, all_events_stop(T))
                except SimultaneousEventError:
                    continue
                break
            else:
                raise RuntimeError("no usable ray direction")
            if events:
                T = apply_motion(T, p, ray, events[-1].t + 1)
                moved = True
                break
        if not moved and hull_size(T) == 3:
            return T
    raise RuntimeError("ray motions did not stabilize")


def test_exhaustive_ray_motion_reaches_stability():
    rng = random.Random(888)
    for _ in range(8):
        S = random_point_set(rng, rng.randint(5, 8), radius=30)
        T = exhaust_ray_motions(S)
        assert hull_size(T) == 3
        assert halving_ray_stable(T)
        assert cr(T) <= cr(S)
