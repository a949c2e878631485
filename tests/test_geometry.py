"""Exact predicates, general-position validation, hulls, order types."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from kedges import (
    GeneralPositionError,
    Orientation,
    Point,
    PointSet,
    angular_order,
    convex_hull,
    cross,
    hull_size,
    orientation,
    validate_general_position,
)
from kedges.census import left_counts
from kedges.geometry import line_order
from kedges.motion import _wedge_sorted
from helpers import (
    brute_is_interior,
    comparator_angular_order,
    convex_polygon,
    fan_point_set,
    insertion_line_order,
    line_order_sets,
    order_type,
    random_point_set,
)


def test_orientation_signs():
    a, b = Point(0, 0), Point(4, 1)
    assert orientation(a, b, Point(1, 3)) == Orientation.CCW
    assert orientation(a, b, Point(1, -3)) == Orientation.CW
    assert orientation(a, b, Point(8, 2)) == Orientation.COLLINEAR


def test_orientation_symmetries():
    rng = random.Random(101)
    for _ in range(300):
        a, b, c = (
            Point(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(3)
        )
        o = orientation(a, b, c)
        assert o == orientation(b, c, a) == orientation(c, a, b)
        assert int(o) == -int(orientation(b, a, c))
        assert int(o) == (cross(a.x, a.y, b.x, b.y, c.x, c.y) > 0) - (
            cross(a.x, a.y, b.x, b.y, c.x, c.y) < 0
        )


def test_point_requires_integers():
    with pytest.raises(TypeError):
        Point(1.5, 2)
    with pytest.raises(TypeError):
        Point(1, Fraction(1, 2))


def test_validate_reports_collinear_triple():
    pts = [Point(0, 0), Point(5, 1), Point(2, 7), Point(10, 2)]
    assert validate_general_position(pts) == (0, 1, 3)
    assert validate_general_position(pts[:3]) is None


def test_pointset_rejects_bad_input():
    with pytest.raises(GeneralPositionError) as info:
        PointSet([(0, 0), (3, 1), (6, 2), (1, 5)])
    assert info.value.triple == (0, 1, 2)
    with pytest.raises(ValueError):
        PointSet([(0, 0), (1, 2), (0, 0)])


def test_pointset_immutable_and_indexable():
    S = PointSet([(0, 0), (4, 1), (2, 5)])
    assert len(S) == 3
    assert S[1] == Point(4, 1)
    assert list(S)[2] == Point(2, 5)
    with pytest.raises(AttributeError):
        S.points = ()


def test_pointset_clears_rational_coordinates():
    S = PointSet([(Fraction(1, 2), 0), (Fraction(3, 4), 1), (0, Fraction(1, 3))])
    # one uniform scale factor (the lcm 12 of the denominators)
    assert [(p.x, p.y) for p in S] == [(6, 0), (9, 12), (0, 4)]


def test_pointset_replace():
    S = PointSet([(0, 0), (4, 1), (2, 5)])
    T = S.replace(2, (Fraction(5, 2), 6))
    assert [(p.x, p.y) for p in T] == [(0, 0), (8, 2), (5, 12)]
    assert orientation(T[0], T[1], T[2]) == orientation(S[0], S[1], S[2])


def test_convex_hull_square_with_interior():
    S = PointSet([(0, 0), (10, 0), (10, 10), (0, 10), (3, 4), (7, 2)])
    hull = convex_hull(S)
    assert sorted(hull) == [0, 1, 2, 3]
    assert hull_size(S) == 4
    # counterclockwise: consecutive triples turn left
    h = len(hull)
    for i in range(h):
        a, b, c = hull[i], hull[(i + 1) % h], hull[(i + 2) % h]
        assert orientation(S[a], S[b], S[c]) == Orientation.CCW


def test_convex_hull_of_polygon_is_everything():
    for n in range(3, 10):
        S = convex_polygon(n)
        assert sorted(convex_hull(S)) == list(range(n))


def test_extreme_matches_brute_force():
    rng = random.Random(202)
    for _ in range(60):
        S = random_point_set(rng, rng.randint(4, 9))
        hull = set(convex_hull(S))
        for i in range(len(S)):
            assert (i in convex_hull(S)) == (i in hull)
            assert brute_is_interior(S, i) == (i not in hull)


def test_order_type_matches_orientation():
    rng = random.Random(303)
    for _ in range(40):
        S = random_point_set(rng, rng.randint(3, 8))
        ot = order_type(S)
        n = len(S)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if len({i, j, k}) == 3:
                        assert ot[(i, j, k)] == orientation(
                            S[i], S[j], S[k]
                        )


def test_order_type_mirror_flips_everything():
    S = PointSet([(0, 0), (5, 1), (2, 7), (9, 4)])
    M = PointSet([(-p.x, p.y) for p in S])
    d = order_type(S).diff(order_type(M))
    from math import comb

    assert len(d) == comb(4, 3)


def test_order_type_detects_single_flip():
    # moving one point across exactly one line flips exactly that triple
    S = PointSet([(0, 0), (10, 0), (0, 10), (4, 4)])
    T = PointSet([(0, 0), (10, 0), (0, 10), (6, 6)])
    d = order_type(S).diff(order_type(T))
    assert d == {(1, 2, 3)}


def test_angular_order_matches_atan2():
    rng = random.Random(202)
    for _ in range(60):
        S = random_point_set(rng, rng.randint(3, 12))
        for p in range(len(S)):
            o = S[p]
            want = sorted(
                (j for j in range(len(S)) if j != p),
                key=lambda j: math.atan2(S[j].y - o.y, S[j].x - o.x) % (2 * math.pi),
            )
            vs = angular_order(S, p)
            assert [v[2] for v in vs] == want
            assert all((v[0], v[1]) == (S[v[2]].x - o.x, S[v[2]].y - o.y) for v in vs)


def test_wedge_order_spans_from_boundary_to_boundary():
    rng = random.Random(203)
    for _ in range(60):
        S = random_point_set(rng, rng.randint(3, 12))
        for p in convex_hull(S):
            vs = _wedge_sorted(S, p)
            order = angular_order(S, p)
            start = order.index(vs[0])
            assert vs == order[start:] + order[:start]
            first, last = vs[0], vs[-1]
            # every other vector lies strictly counterclockwise of the
            # first and strictly clockwise of the last
            assert all(cross(0, 0, first[0], first[1], v[0], v[1]) > 0 for v in vs[1:])
            assert all(cross(0, 0, v[0], v[1], last[0], last[1]) > 0 for v in vs[:-1])


def _hint_order(S, p):
    """The other points around p ordered by half plane and a float atan2
    key alone, ties kept in index order."""
    o = S[p]

    def key(j):
        dx, dy = S[j].x - o.x, S[j].y - o.y
        if dy > 0 or (dy == 0 and dx > 0):
            return (0, math.atan2(dy, dx))
        return (1, math.atan2(-dy, -dx))

    return sorted((j for j in range(len(S)) if j != p), key=key)


def test_angular_order_matches_comparator_oracle():
    rng = random.Random(204)
    for radius in (60, 2 ** 200, 2 ** 1100):
        for _ in range(25):
            S = random_point_set(rng, rng.randint(3, 14), radius=radius)
            for p in range(len(S)):
                assert angular_order(S, p) == comparator_angular_order(S, p)
    # directions on the cut between the two sectors, and one unit of x
    # either side of the vertical: the one place where two sorted lists
    # are joined
    for R in (60, 2 ** 200):
        S = PointSet([(0, 0), (0, R), (1, R + 7), (-1, R + 3), (R, 0), (R + 5, 1), (R + 11, -1)])
        for p in range(len(S)):
            assert angular_order(S, p) == comparator_angular_order(S, p)
    repaired = 0
    for e in (60, 100, 200, 300, 1100):
        for m in (3, 8, 15):
            S = fan_point_set(rng, 2 ** e, m)
            for p in range(len(S)):
                want = comparator_angular_order(S, p)
                assert angular_order(S, p) == want
                if e <= 300 and _hint_order(S, p) != [v[2] for v in want]:
                    repaired += 1
    # a float angle alone misorders some of the fans, so they test the
    # exact key where a float key fails
    assert repaired > 0


def test_line_order_matches_the_insertion_oracle():
    # clusters whose directions differ by about 2^-200, and radii up to
    # 2^200, test the exactness of the key where float angles tie

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(line_order_sets())
    def check(S):
        for p in range(len(S)):
            assert [v[1:] for v in line_order(S, p)] == insertion_line_order(S, p)

    check()


def _unvalidated(coords):
    """A PointSet that skips validation, to reach the order's own check."""
    S = object.__new__(PointSet)
    object.__setattr__(S, "points", tuple(Point(x, y) for x, y in coords))
    return S


def test_angular_order_raises_on_a_tie():
    S = _unvalidated([(0, 0), (1, 5), (2, 1), (4, 2), (-3, 1)])
    with pytest.raises(GeneralPositionError) as info:
        angular_order(S, 0)
    assert info.value.triple == (0, 2, 3)


@pytest.mark.parametrize("order", [line_order, angular_order, left_counts])
def test_line_order_raises_on_a_parallel_tie(order):
    # from point p, the two other points of the triple lie in the same
    # direction: in the flat sector, vertical, horizontal and steep
    cases = [
        ([(1, 5), (3, 2), (-2, 1), (1, 1), (5, 3)], 3, (1, 3, 4)),
        ([(0, 0), (0, 3), (2, 1), (0, 7)], 0, (0, 1, 3)),
        ([(0, 0), (2, 0), (1, 3), (7, 0)], 0, (0, 1, 3)),
        ([(0, 0), (-1, 4), (3, 1), (-2, 8)], 0, (0, 1, 3)),
    ]
    for coords, p, triple in cases:
        with pytest.raises(GeneralPositionError) as info:
            order(_unvalidated(coords), p)
        assert info.value.triple == triple


@pytest.mark.parametrize("order", [line_order, angular_order, left_counts])
def test_line_order_raises_when_the_point_lies_between_two(order):
    # point p is between the two other points of the triple: their
    # vectors from it are opposite, so they only meet once turned into
    # [0, pi); flat, steep, vertical and horizontal
    cases = [
        ([(4, 2), (1, 5), (1, 1), (-2, 0), (3, -2)], 2, (0, 2, 3)),
        ([(1, 1), (-1, 4), (5, 2), (3, -2)], 0, (0, 1, 3)),
        ([(0, 0), (0, 3), (2, 1), (0, -7)], 0, (0, 1, 3)),
        ([(0, 0), (2, 0), (1, 3), (-7, 0)], 0, (0, 1, 3)),
    ]
    for coords, p, triple in cases:
        with pytest.raises(GeneralPositionError) as info:
            order(_unvalidated(coords), p)
        assert info.value.triple == triple
