"""Edge-depth censuses: brute force vs sweep, invariances, good edges."""

import random
from math import comb

import pytest
from hypothesis import given, settings

from kedges import (
    CumulativeEdgeVector,
    Orientation,
    Point,
    EdgeVector,
    GeneratorSpec,
    PointSet,
    containing_triangle,
    cumulative,
    edge_depth,
    edge_vector_bruteforce,
    edge_vector_sweep,
    generate,
    good_k_edge_count,
    max_depth,
    orientation,
    oriented_edge_counts,
    packaged_point_set,
    strictly_inside_triangle,
    verify_point_set,
)
from kedges import checks
from kedges.census import left_counts
from helpers import (
    convex_polygon,
    fan_point_set,
    farey_points,
    line_order_sets,
    per_point_oriented_counts,
    random_point_set,
    recount_good_k_edge_count,
    row_oriented_counts,
    window_left_counts,
)


def test_max_depth_values():
    assert [max_depth(n) for n in range(3, 10)] == [0, 1, 1, 2, 2, 3, 3]


def test_edge_vector_validation():
    with pytest.raises(ValueError):
        EdgeVector(6, (6, 6))  # wrong length
    with pytest.raises(ValueError):
        EdgeVector(6, (6, 6, 4))  # sum != C(6,2)
    with pytest.raises(ValueError):
        EdgeVector(6, (16, -4, 3))
    e = EdgeVector(6, (6, 6, 3))
    assert e.m == 2 and e.halving == 3


def test_cumulative_validation_and_round_trip():
    with pytest.raises(ValueError):
        CumulativeEdgeVector(6, (6, 5, 15))  # not nondecreasing
    with pytest.raises(ValueError):
        CumulativeEdgeVector(6, (6, 12, 14))  # wrong total
    e = EdgeVector(8, (4, 6, 9, 9))
    E = cumulative(e)
    assert E.E == (4, 10, 19, 28)
    assert E.edge_vector() == e


def test_edge_depth_hand_checked():
    S = PointSet([(0, 0), (12, 0), (0, 12), (3, 4), (5, 6)])
    assert edge_depth(S, 0, 1) == 0  # hull edge
    assert edge_depth(S, 3, 4) == 1  # interior pair splits 2/1
    assert edge_depth(S, 0, 3) == 1
    assert edge_vector_bruteforce(S).e == (3, 7)


def test_convex_hexagon_vector():
    S = convex_polygon(6)
    assert edge_vector_sweep(S).e == (6, 6, 3)


def test_sweep_equals_bruteforce_random():
    rng = random.Random(404)
    for _ in range(60):
        S = random_point_set(rng, rng.randint(3, 12))
        assert edge_vector_sweep(S) == edge_vector_bruteforce(S)
    # coordinates of 1100 bits, beyond a float's range, give keys of
    # about 3300 bits
    for _ in range(10):
        S = random_point_set(rng, rng.randint(3, 12), radius=2 ** 1100)
        assert edge_vector_sweep(S) == edge_vector_bruteforce(S)


def test_left_counts_match_direct_count():
    rng = random.Random(707)
    for radius in (50, 2 ** 200):
        for _ in range(30):
            S = random_point_set(rng, rng.randint(3, 12), radius=radius)
            n = len(S)
            for p in range(n):
                row = left_counts(S, p)
                assert len(row) == n and row[p] is None
                for j in range(n):
                    if j != p:
                        assert row[j] == sum(
                            1 for i in range(n)
                            if orientation(S[p], S[j], S[i]) == Orientation.CCW
                        )


def test_left_counts_match_window_oracle():
    rng = random.Random(708)
    sets = [
        random_point_set(rng, rng.randint(3, 14), radius=radius)
        for radius in (60, 2 ** 200, 2 ** 1100)
        for _ in range(20)
    ]
    sets += [generate(GeneratorSpec("three-cluster", n)) for n in (9, 12, 13, 14)]
    # fans whose float angles tie or invert, so the key must resolve
    # directions 2^-60 to 2^-200 apart, and 2^1100 fans beyond a float
    sets += [fan_point_set(rng, 2 ** e, m) for e in (60, 200, 1100) for m in (3, 8)]
    for S in sets:
        for p in range(len(S)):
            assert left_counts(S, p) == window_left_counts(S, p)


def test_oriented_counts_match_the_row_histogram():
    # odd and even n both occur, so the halving level of even sets,
    # counted once per orientation, is covered; the clusters' pair
    # directions differ by about 2^-200, which the exact key resolves
    parities = set()

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(line_order_sets())
    def check(S):
        n = len(S)
        parities.add(n % 2)
        H = oriented_edge_counts(S)
        assert H == per_point_oriented_counts(S)
        assert H == row_oriented_counts(n, [left_counts(S, p) for p in range(n)])

    check()
    assert parities == {0, 1}


@pytest.mark.parametrize("b", [10, 200, 1100])
def test_sweep_resolves_the_nearest_directions(b):
    # the 8 symmetries put the triple's directions into both sectors of
    # the sweep, near either end of each
    rng = random.Random(1700 + b)
    for image in range(8):
        for m in (3, 9, 25):
            S = PointSet(farey_points(rng, b, m, image))
            H = oriented_edge_counts(S)
            assert H == per_point_oriented_counts(S)
            if len(S) <= 12:
                assert edge_vector_sweep(S) == edge_vector_bruteforce(S)


def test_verify_compares_the_sweep_with_the_rows(monkeypatch):
    # a sweep wrong only above the halving level leaves the e-vector
    # as it is, so only the comparison with the rows sees it
    S = random_point_set(random.Random(9), 9)
    assert verify_point_set(S) == []
    H = list(oriented_edge_counts(S))
    H[7] -= 1
    H[6] += 1
    monkeypatch.setattr(checks, "oriented_edge_counts", lambda S: tuple(H))
    problems = verify_point_set(S)
    assert len(problems) == 1 and problems[0].startswith("oriented counts disagree")


def test_oriented_counts_consistent_with_depths():
    rng = random.Random(505)
    for _ in range(40):
        n = rng.randint(3, 11)
        S = random_point_set(rng, n)
        H = oriented_edge_counts(S)
        e = edge_vector_bruteforce(S)
        assert len(H) == n - 1
        assert sum(H) == n * (n - 1)
        for j in range(max_depth(n) + 1):
            assert H[j] == H[n - 2 - j]
            expected = e.e[j]
            if n % 2 == 0 and j == max_depth(n):
                expected *= 2
            assert H[j] == expected


def test_vector_invariant_under_transformations():
    rng = random.Random(606)
    for _ in range(25):
        S = random_point_set(rng, rng.randint(4, 9))
        e = edge_vector_bruteforce(S)
        translated = PointSet([(p.x + 7, p.y - 3) for p in S])
        rotated = PointSet([(-p.y, p.x) for p in S])
        scaled = PointSet([(3 * p.x, 3 * p.y) for p in S])
        shuffled = list((p.x, p.y) for p in S)
        rng.shuffle(shuffled)
        for T in (translated, rotated, scaled, PointSet(shuffled)):
            assert edge_vector_bruteforce(T).e == e.e


def test_packaged_nine_halving_set():
    S = packaged_point_set("halving_max_n8.txt")
    e = edge_vector_sweep(S)
    assert e.e == (4, 6, 9, 9)
    assert edge_vector_sweep(S).halving == 9


def test_halving_count_convex():
    assert edge_vector_sweep(convex_polygon(7)).halving == 7
    assert edge_vector_sweep(convex_polygon(8)).halving == 4


def test_good_k_edge_count_window_and_bound():
    rng = random.Random(707)
    for _ in range(20):
        n = rng.randint(5, 10)
        S = random_point_set(rng, n)
        tri = containing_triangle(S)
        assert all(strictly_inside_triangle(p, tri) for p in S)
        for k in range(n // 3, (n - 2) // 2 + 1):
            good = good_k_edge_count(S, tri, k)
            assert good >= 3 * k - n + 3
    S = random_point_set(random.Random(1), 9)
    tri = containing_triangle(S)
    with pytest.raises(ValueError):
        good_k_edge_count(S, tri, 9 // 3 - 1)  # below the window
    with pytest.raises(ValueError):
        good_k_edge_count(S, tri, 4)  # above the window
    with pytest.raises(ValueError):
        # unit triangle has no interior lattice point, so nothing fits
        good_k_edge_count(S, (Point(0, 0), Point(1, 0), Point(0, 1)), 3)


def test_good_k_edge_count_matches_recount():
    # random sets at small and 2^200 radius, and three-cluster sets,
    # whose E_k meet the simple lower bound below floor(n/3)
    rng = random.Random(4242)
    sets = [random_point_set(rng, rng.randint(5, 13), radius=r) for r in (50, 2 ** 200) for _ in range(8)]
    sets += [generate(GeneratorSpec("three-cluster", n)) for n in (9, 12, 13, 14)]
    for S in sets:
        n = len(S)
        tri = containing_triangle(S)
        for k in range(n // 3, (n - 2) // 2 + 1):
            assert good_k_edge_count(S, tri, k) == recount_good_k_edge_count(S, tri, k)


def test_vector_sums_to_all_pairs():
    for n in range(3, 12):
        S = convex_polygon(n)
        assert sum(edge_vector_sweep(S).e) == comb(n, 2)
