"""Motion events, halving rays, mutations and the hull reduction."""

import random
from fractions import Fraction
from functools import cmp_to_key
from math import comb

import pytest
from hypothesis import given, settings, strategies

from kedges import (
    GeneralPositionError,
    GeneratorSpec,
    PointSet,
    Ray,
    SimultaneousEventError,
    apply_motion,
    config_summary,
    convex_hull,
    coord_bits,
    crossings_bruteforce,
    crossings_via_identity,
    cumulative,
    edge_vector_bruteforce,
    generate,
    halving_ray,
    halving_ray_stable,
    hull_size,
    is_halving_ray,
    motion_events,
    orientation,
    reduce_to_triangle,
)
from kedges import census, motion
from kedges.census import left_counts
from kedges.geometry import Point, extends_general_position, line_order
from kedges.motion import _simplest_between
from helpers import (
    convex_polygon,
    fraction_line_intersection_inside_hull,
    indexed_convex_hull,
    order_type,
    pairwise_crossings,
    random_point_set,
)


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


def ray_pair(S, p, q, attempt_p=0, attempt_q=0):
    """The reduction's halving rays for the hull points p and q: tails
    into the heavier side of line pq, lines meeting inside the hull."""
    h = motion._heavy_side(S, p, q, left_counts(S, p)[q])
    return motion._ray_pair(S, convex_hull(S), p, q, h, attempt_p, attempt_q)


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
        rp, rq = ray_pair(S, p, q)
        assert is_halving_ray(S, rp) and is_halving_ray(S, rq)
        meet = _line_meet(S, rp, rq)
        assert meet is not None
        assert _strictly_inside_hull(S, meet)
        checked += 1


def test_halving_ray_pair_named_examples():
    square = PointSet([(0, 0), (12, 0), (12, 12), (0, 12), (5, 4), (7, 9)])
    hull = convex_hull(square)
    rp, rq = ray_pair(square, hull[0], hull[2])
    assert _strictly_inside_hull(square, _line_meet(square, rp, rq))
    hexagon = PointSet([(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2), (0, 1)])
    hull = convex_hull(hexagon)
    rp, rq = ray_pair(hexagon, hull[0], hull[2])
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


def _event_oracle(S, ray):
    """(t, pair) of every event of the ray, each t solved from the
    collinearity of the moving point with the pair as a Fraction,
    sorted."""
    p, (dx, dy) = ray.anchor, ray.direction
    o = S[p]
    out = []
    for i in range(len(S)):
        for j in range(i + 1, len(S)):
            if p in (i, j):
                continue
            a, b = S[i], S[j]
            ex, ey = b.x - a.x, b.y - a.y
            den = ex * dy - ey * dx
            if den:
                t = Fraction(ey * (o.x - a.x) - ex * (o.y - a.y), den)
                if t > 0:
                    out.append((t, (i, j)))
    return sorted(out)


def _near_tie_set(rng, X, m):
    """The origin and m points at x = X + 1..1000, y = +-1..1000."""
    while True:
        pts = [(X + rng.randint(1, 1000), rng.choice((1, -1)) * rng.randint(1, 1000))
               for _ in range(m)]
        try:
            return PointSet([(0, 0)] + pts)
        except ValueError:
            continue


def test_motion_events_are_sorted_exactly():
    # moving the origin along (1, 0) past points at x = X + O(1000): at
    # X = 2^100 the event parameters tie as floats, and at X = 2^1100
    # their quotients overflow a float
    rng = random.Random(999)
    for X in (2 ** 100, 2 ** 1100):
        for _ in range(5):
            S = _near_tie_set(rng, X, 10)
            ray = Ray(0, (1, 0))
            events = motion_events(S, 0, ray, all_events_stop(S))
            assert [(ev.t, ev.pair) for ev in events] == _event_oracle(S, ray)
    for _ in range(20):
        S = random_point_set(rng, rng.randint(4, 10), radius=2 ** 200)
        ray = Ray(rng.randrange(len(S)), (rng.randint(-9, 9), rng.randint(1, 9)))
        events = motion_events(S, ray.anchor, ray, all_events_stop(S))
        assert [(ev.t, ev.pair) for ev in events] == _event_oracle(S, ray)


def _simplest_by_search(lo, hi):
    """The least denominator d with a fraction strictly between lo and
    hi (None: no upper end), with the least such numerator."""
    d = 1
    while True:
        num = lo.numerator * d // lo.denominator + 1
        if hi is None or Fraction(num, d) < hi:
            return Fraction(num, d)
        d += 1


def test_simplest_between_matches_search():
    rng = random.Random(1234)
    for _ in range(400):
        lo = Fraction(rng.randint(0, 200), rng.randint(1, 60))
        hi = None if rng.random() < 0.1 else lo + Fraction(rng.randint(1, 50), rng.randint(1, 400))
        assert _simplest_between(lo, hi) == _simplest_by_search(lo, hi), (lo, hi)
    # an integer end is excluded, on either side
    assert _simplest_between(Fraction(2), Fraction(3)) == Fraction(5, 2)
    assert _simplest_between(Fraction(2), None) == 3


def test_reduce_raises_when_q_ray_is_refused_after_p_lands(monkeypatch):
    # q's ray provably stays halving after p's landing; a refusal is an
    # internal error, not a retry
    real = motion.is_halving_ray
    refuse = [True]

    def once(*args):
        if refuse[0]:
            refuse[0] = False
            return False
        return real(*args)

    monkeypatch.setattr(motion, "is_halving_ray", once)
    with pytest.raises(RuntimeError, match=r"^internal:"):
        reduce_to_triangle(convex_polygon(8))
    assert not refuse[0]


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


def test_reduce_convex_position_stays_polynomial():
    # landings stop at the simplest rational before the next event, so
    # a fractional stop rescales the set by a small denominator only;
    # opposite pairs keep the number of rounds small
    for n in range(4, 41):
        S = generate(GeneratorSpec("convex", n))
        T, trace = reduce_to_triangle(S)
        assert hull_size(T) == 3, n
        assert len(trace.steps) <= 4, n
        assert coord_bits(T) <= 32, n
        R = S
        for st in trace.steps:
            R = apply_motion(R, st.moved, st.ray, st.stop)
        assert R == T


# Sets whose reduction hits simultaneous events: in A the motion of q
# in the first round, in B the motion of p in the second.  Both come
# from seeded searches over 9-point sets in [-6, 6]^2.
NUDGE_CASES = [
    (
        [(-6, -4), (-4, -3), (1, -6), (2, -6), (2, -4), (3, 3), (5, -5), (5, 4), (6, 0)],
        [(0, (-5, -1)), (6, (21, -5)), (0, (-20, -3)), (7, (7, 18))],
        62,
        (0, 1),
    ),
    (
        [(-5, 3), (-4, 0), (-2, 1), (-2, 3), (1, -6), (1, -2), (2, -6), (3, 5), (5, -4)],
        [(0, (-4, 3)), (6, (1, -2)), (0, (-72, 53)), (8, (104, -69))],
        54,
        (1, 0),
    ),
]


def test_reduce_large_coordinates_grow_little():
    # radius 2^40: landings a fixed 1/2^k beyond the far side, whatever
    # the stop's denominator, let this set grow from 40 to 2000 bits
    S = generate(GeneratorSpec("random-disc", 27, 172, scale=2 ** 40))
    T, trace = reduce_to_triangle(S)
    assert hull_size(T) == 3
    assert coord_bits(T) <= coord_bits(S) + 64
    assert all(ev.crossing_delta < 0 for st in trace.steps for ev in st.events)
    assert trace.after.crossings == crossings_via_identity(T).crossings
    R = S
    for st in trace.steps:
        R = apply_motion(R, st.moved, st.ray, st.stop)
    assert R == T


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
                p, q = hull[0], hull[len(hull) // 2]
                pair = ray_pair(R, p, q, *attempts)
                assert pair == (st.ray, trace.steps[i + 1].ray)
                assert ray_pair(R, p, q)[nudged] != pair[nudged]
            R = apply_motion(R, st.moved, st.ray, st.stop)
        assert R == T


def test_reduce_lands_p_once_when_q_is_nudged(monkeypatch):
    # in A, q's first ray of round 0 hits simultaneous events: p's
    # landing is kept and only q lands again, on its nudged ray
    pts, expected_steps, _, (nudged_round, nudged) = NUDGE_CASES[0]
    assert (nudged_round, nudged) == (0, 1)
    S = PointSet(pts)
    hull = convex_hull(S)
    p, q = hull[0], hull[len(hull) // 2]
    anchors = []
    real_land = motion._land

    def land(S, L, ray, h, pair):
        anchors.append(ray.anchor)
        return real_land(S, L, ray, h, pair)

    monkeypatch.setattr(motion, "_land", land)
    T, trace = reduce_to_triangle(S)
    assert anchors[:3] == [p, q, q]
    assert anchors[3] == trace.steps[2].moved
    assert [(st.moved, st.ray.direction) for st in trace.steps] == expected_steps


def test_reduce_runs_the_crossing_kernel_once_per_landing(monkeypatch):
    # a landing, nudged or not, finds its events, its next parameter
    # and their centres and sides in one kernel pass
    real_land, real_crossings = motion._land, motion._crossings
    kernel_calls = []
    per_landing = []
    nudged = []

    def crossings(S, ray, stop):
        kernel_calls.append(ray.anchor)
        return real_crossings(S, ray, stop)

    def land(*args):
        before = len(kernel_calls)
        try:
            return real_land(*args)
        except SimultaneousEventError:
            nudged.append(args[2].anchor)
            raise
        finally:
            per_landing.append(len(kernel_calls) - before)

    monkeypatch.setattr(motion, "_crossings", crossings)
    monkeypatch.setattr(motion, "_land", land)
    sets = [PointSet(pts) for pts, *_ in NUDGE_CASES]
    sets += [convex_polygon(12), generate(GeneratorSpec("random-disc", 40, 1))]
    for S in sets:
        T, trace = reduce_to_triangle(S)
        assert hull_size(T) == 3
    assert len(nudged) >= len(NUDGE_CASES)
    assert len(per_landing) > len(nudged) and set(per_landing) == {1}


def fresh_rows(S):
    return [left_counts(S, i) for i in range(len(S))]


def assert_matrix_follows_trace(S, T, trace):
    """Replay the trace, advancing the left-count matrix by each step's
    events with the library's helper; after every step it must equal
    freshly built rows of the moved set."""
    assert trace.before == config_summary(S)
    L = fresh_rows(S)
    for st in trace.steps:
        L = motion._advance(L, S, st)
        S = apply_motion(S, st.moved, st.ray, st.stop)
        assert L == fresh_rows(S)
    assert S == T
    assert trace.after == config_summary(T)


def test_left_count_matrix_follows_every_step():
    for n, seed in [(8, 0), (15, 1), (30, 2), (60, 3)]:
        S = generate(GeneratorSpec("random-disc", n, seed))
        assert_matrix_follows_trace(S, *reduce_to_triangle(S))
    for n in (5, 8, 13, 24):
        S = generate(GeneratorSpec("convex", n))
        assert_matrix_follows_trace(S, *reduce_to_triangle(S))
    for pts, *_ in NUDGE_CASES:
        S = PointSet(pts)
        assert_matrix_follows_trace(S, *reduce_to_triangle(S))


small_disc_sets = strategies.builds(
    lambda n, seed, radius: generate(GeneratorSpec("random-disc", n, seed, scale=radius)),
    strategies.integers(4, 14),
    strategies.integers(0, 2 ** 32),
    strategies.integers(16, 2 ** 20),
)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(small_disc_sets)
def test_left_count_matrix_follows_every_step_generated(S):
    assert_matrix_follows_trace(S, *reduce_to_triangle(S))


def test_reduce_builds_each_left_count_row_once(monkeypatch):
    # each row sorts its lines with census.line_order, and a census
    # walks its sectors with census._walk, so counting those calls too
    # catches a census behind the summaries
    calls = []
    orders = []
    walks = []

    def counted(S, p):
        calls.append(p)
        return left_counts(S, p)

    def counted_order(S, p):
        orders.append(p)
        return line_order(S, p)

    def counted_walk(*args):
        walks.append(len(args[0]))
        return walk(*args)

    walk = census._walk
    monkeypatch.setattr(motion, "left_counts", counted)
    monkeypatch.setattr(census, "left_counts", counted)
    monkeypatch.setattr(census, "line_order", counted_order)
    monkeypatch.setattr(census, "_walk", counted_walk)
    for S in (convex_polygon(12), generate(GeneratorSpec("random-disc", 40, 1)), PointSet(NUDGE_CASES[0][0])):
        calls.clear()
        orders.clear()
        walks.clear()
        T, trace = reduce_to_triangle(S)
        assert len(trace.steps) >= 2
        assert sorted(calls) == list(range(len(S)))
        assert sorted(orders) == list(range(len(S)))
        assert walks == []


@strategies.composite
def flat_ellipse_sets(draw):
    """5 to 14 points in general position inside a flat integer ellipse
    with semi-axes a = ratio * b and b, by seeded rejection sampling."""
    n = draw(strategies.integers(5, 14))
    b = draw(strategies.integers(8, 2 ** 10))
    a = b * draw(strategies.integers(4, 64))
    rng = random.Random(draw(strategies.integers(0, 2 ** 32)))
    pts = []
    while len(pts) < n:
        p = Point(rng.randint(-a, a), rng.randint(-b, b))
        if (p.x * b) ** 2 + (p.y * a) ** 2 <= (a * b) ** 2 and extends_general_position(pts, p):
            pts.append(p)
    return PointSet(pts)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_disc_sets.filter(lambda S: len(S) >= 5) | flat_ellipse_sets())
def test_p_landing_keeps_q_wedge_and_light_side(S):
    # the steps of the reduce_to_triangle proof that q's ray survives
    # p's landing: (a) every light point lies strictly on q's side of
    # p's ray line; (c) q's wedge keeps its two boundary points
    real_land = motion._land
    rounds = []

    def land(S, L, ray, h, pair):
        out = real_land(S, L, ray, h, pair)
        p, q = pair
        if ray.anchor == p:
            rounds.append(pair)
            o, (dx, dy) = S[p], ray.direction
            q_side = dx * (S[q].y - o.y) - dy * (S[q].x - o.x) > 0
            for j, w in enumerate(S):
                if j not in pair and h[0] * (w.y - o.y) - h[1] * (w.x - o.x) < 0:
                    side = dx * (w.y - o.y) - dy * (w.x - o.x)
                    assert side != 0 and (side > 0) == q_side
            before, after = motion._wedge_sorted(S, q), motion._wedge_sorted(out[0], q)
            assert (after[0][2], after[-1][2]) == (before[0][2], before[-1][2])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(motion, "_land", land)
        T, trace = reduce_to_triangle(S)
    assert len(rounds) == len(trace.steps) // 2
    assert hull_size(T) == 3


# ---------------------------------------------- kernels and oracles


@strategies.composite
def kernel_sets(draw):
    """A random-disc set of 4 to 30 points with a radius of 16 to 2^200."""
    n = draw(strategies.integers(4, 30))
    e = draw(strategies.integers(5, 200))
    radius = draw(strategies.integers(2 ** (e - 1), 2 ** e))
    return generate(GeneratorSpec("random-disc", n, draw(strategies.integers(0, 2 ** 32)), scale=radius))


def _any_ray(data, S):
    """A ray from any point of S in an arbitrary primitive direction."""
    k = data.draw(strategies.integers(0, len(S) - 1))
    d = strategies.integers(-(2 ** 64), 2 ** 64)
    dx, dy = data.draw(strategies.tuples(d, d).filter(lambda v: v != (0, 0)))
    return Ray(k, motion._primitive(dx, dy))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(strategies.data(), kernel_sets())
def test_crossing_kernel_matches_the_pairwise_oracle(data, S):
    rays = [halving_ray(S, p, data.draw(strategies.integers(0, 3))) for p in convex_hull(S)]
    rays.append(_any_ray(data, S))
    # a ray parallel to line ij: the pair has B == 0 and no event
    k, i, j = data.draw(strategies.permutations(range(len(S))))[:3]
    parallel = Ray(k, motion._primitive(S[j].x - S[i].x, S[j].y - S[i].y))
    got, _ = motion._crossings(S, parallel, None)
    assert (min(i, j), max(i, j)) not in [c[2] for c in got]
    rays.append(parallel)
    for ray in rays:
        want = pairwise_crossings(S, ray)
        got, nxt = motion._crossings(S, ray, None)
        assert nxt is None
        assert sorted(got) == sorted(want)
        # stops at a parameter (r odd) or between two, before the first
        # or beyond the last (r even): the kept crossings and the next
        # parameter, compared by cross-multiplying
        ts = sorted(want, key=cmp_to_key(lambda u, v: u[0] * v[1] - v[0] * u[1]))
        for r in data.draw(strategies.lists(strategies.integers(0, 2 * len(ts)), min_size=1, max_size=4)):
            m = r // 2
            if r % 2:
                stop = Fraction(ts[m][0], ts[m][1])
            elif not ts:
                stop = Fraction(1)
            elif m == 0:
                stop = Fraction(ts[0][0], 2 * ts[0][1])
            elif m == len(ts):
                stop = Fraction(ts[-1][0], ts[-1][1]) + 1
            else:
                stop = Fraction(ts[m - 1][0] + ts[m][0], ts[m - 1][1] + ts[m][1])
            sn, sd = stop.numerator, stop.denominator
            kept, nxt = motion._crossings(S, ray, stop)
            assert sorted(kept) == sorted(c for c in want if c[0] * sd <= sn * c[1])
            beyond = [Fraction(c[0], c[1]) for c in ts if c[0] * sd > sn * c[1]][:1]
            assert nxt == (beyond[0] if beyond else None)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(strategies.data(), kernel_sets())
def test_hull_and_ray_line_meeting_match_their_oracles(data, S):
    hull = convex_hull(S)
    assert hull == indexed_convex_hull(S)
    rp, rq = _any_ray(data, S), _any_ray(data, S)
    cases = [(rp, rq), (rp, Ray(rq.anchor, rp.direction))]
    if len(hull) >= 4:
        cases.append(ray_pair(S, hull[0], hull[len(hull) // 2]))
    for ra, rb in cases:
        got = motion._line_intersection_inside_hull(S, hull, ra, rb)
        assert got == fraction_line_intersection_inside_hull(S, hull, ra, rb)


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
