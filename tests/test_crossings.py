"""Crossing counts: brute force, census identity, cumulative form."""

import random
from itertools import permutations
from math import comb

import pytest

from kedges import (
    Point,
    PointSet,
    crossings_bruteforce,
    crossings_via_identity,
    cumulative,
    edge_vector_bruteforce,
    exact_lcr_from_E,
    hull_size,
    identity_weighted_sum,
    is_convex_quadrilateral,
    quadruple_constant,
)
from helpers import convex_polygon, orientation_is_convex_quadrilateral, random_point_set


def test_quadruple_constant_is_three_binomial():
    for n in range(4, 40):
        assert quadruple_constant(n) == 3 * comb(n, 4)


def test_convex_quadrilateral_predicate():
    square = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)]
    assert is_convex_quadrilateral(*square)
    # order of the corners must not matter
    assert is_convex_quadrilateral(square[0], square[2], square[1], square[3])
    assert not is_convex_quadrilateral(
        Point(0, 0), Point(10, 0), Point(0, 10), Point(2, 3)
    )
    with pytest.raises(ValueError):
        is_convex_quadrilateral(Point(0, 0), Point(1, 1), Point(2, 2), Point(5, 0))


def test_convex_quadrilateral_predicate_matches_orientation_oracle():
    rng = random.Random(919)
    for radius in (20, 2 ** 64, 2 ** 200):
        checked = 0
        while checked < 60:
            quad = [Point(rng.randint(-radius, radius), rng.randint(-radius, radius)) for _ in range(4)]
            try:
                expected = orientation_is_convex_quadrilateral(*quad)
            except ValueError:
                continue
            for order in permutations(quad):
                assert is_convex_quadrilateral(*order) == expected
            checked += 1


@pytest.mark.parametrize("off", range(4))
def test_collinear_triple_raises_in_every_position(off):
    # the one collinear triple is the one that omits position off
    line = [Point(0, 0), Point(1, 1), Point(2, 2)]
    quad = line[:off] + [Point(5, 0)] + line[off:]
    for predicate in (is_convex_quadrilateral, orientation_is_convex_quadrilateral):
        with pytest.raises(ValueError):
            predicate(*quad)


def test_smallest_cases():
    assert crossings_bruteforce(PointSet([(0, 0), (9, 1), (4, 8)])).crossings == 0
    tri = PointSet([(0, 0), (10, 0), (0, 10), (2, 3)])
    assert crossings_bruteforce(tri).crossings == 0
    quad = PointSet([(0, 0), (10, 0), (11, 9), (1, 10)])
    assert crossings_bruteforce(quad).crossings == 1


def test_convex_position_attains_maximum():
    for n in range(4, 13):
        S = convex_polygon(n)
        top = comb(n, 4)
        assert crossings_bruteforce(S).crossings == top
        assert crossings_via_identity(S).crossings == top


def test_interior_point_forces_fewer_crossings():
    rng = random.Random(808)
    seen = 0
    while seen < 15:
        S = random_point_set(rng, rng.randint(5, 9))
        if hull_size(S) == len(S):
            continue
        seen += 1
        assert crossings_bruteforce(S).crossings < comb(len(S), 4)


def test_methods_agree_on_random_sets():
    rng = random.Random(909)
    for _ in range(60):
        S = random_point_set(rng, rng.randint(4, 12))
        rb = crossings_bruteforce(S)
        ri = crossings_via_identity(S)
        assert rb.crossings == ri.crossings
        E = cumulative(edge_vector_bruteforce(S))
        assert exact_lcr_from_E(E) == rb.crossings
        assert rb.method == "bruteforce" and ri.method == "identity"
        assert rb.n == ri.n == len(S)


def test_depth_identity_exactly():
    rng = random.Random(1010)
    for _ in range(40):
        n = rng.randint(4, 12)
        S = random_point_set(rng, n)
        e = edge_vector_bruteforce(S)
        lcr = crossings_bruteforce(S).crossings
        assert lcr + identity_weighted_sum(e) == quadruple_constant(n)
        assert quadruple_constant(n) == (n**4 - 6 * n**3 + 11 * n**2 - 6 * n) // 8
