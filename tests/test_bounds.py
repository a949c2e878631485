"""Closed-form lower bounds, tables, crossover and the gain integral."""

import random
from math import comb

import pytest

from kedges import (
    BoundTable,
    adaptive_simpson,
    asymptotic_coefficient,
    bound_refined,
    bound_simple,
    bound_sqrt,
    bound_table,
    crossing_lower_bound_exact,
    epsilon_integral,
    halving_upper_bound,
    max_depth,
    sqrt_bound_crossover,
    sqrt_bound_dominates,
)

from helpers import bound_refined_sum

# best known exact crossing numbers of complete graphs on 4..12 vertices
KNOWN_SMALL_LCR = [0, 1, 3, 9, 19, 36, 62, 102, 153]

# upper bounds on the number of halving edges for 13..27 points
HALVING_TABLE = {
    13: 31, 14: 23, 15: 39, 16: 29, 17: 47, 18: 36, 19: 56, 20: 43,
    21: 66, 22: 51, 23: 76, 24: 60, 25: 87, 26: 69, 27: 99,
}


def test_simple_bound_values_and_domain():
    assert bound_simple(10, 0) == 3
    assert bound_simple(10, 3) == 30
    with pytest.raises(ValueError):
        bound_simple(10, 4)  # k must stay below (n-2)/2
    with pytest.raises(ValueError):
        bound_simple(10, -1)


def test_refined_closed_form_matches_summation():
    for n in range(4, 301):
        for k in range(max_depth(n)):
            assert bound_refined(n, k) == bound_refined_sum(n, k)


def test_refined_exceeds_simple_exactly_beyond_first_third():
    for n in range(6, 60):
        for k in range(max_depth(n)):
            lo = bound_simple(n, k)
            hi = bound_refined(n, k)
            if k < n // 3:
                assert hi == lo
            else:
                assert hi > lo


def test_crossing_lower_bound_known_values():
    assert [crossing_lower_bound_exact(n) for n in range(4, 13)] == KNOWN_SMALL_LCR
    assert crossing_lower_bound_exact(17) == 798
    assert crossing_lower_bound_exact(19) == 1318
    assert crossing_lower_bound_exact(21) == 2055


def test_refined_bound_vectors_for_19_and_21():
    assert tuple(bound_refined(19, k) for k in range(8)) == (
        3, 9, 18, 30, 45, 63, 86, 115,
    )
    assert tuple(bound_refined(21, k) for k in range(9)) == (
        3, 9, 18, 30, 45, 63, 84, 111, 144,
    )


def test_halving_upper_bound_table():
    for n, expected in HALVING_TABLE.items():
        assert halving_upper_bound(n) == expected
    with pytest.raises(ValueError):
        halving_upper_bound(4)


def test_asymptotic_coefficient_approaches_limit():
    target = 41.0 / 108.0
    value = asymptotic_coefficient(3000)
    assert abs(value - target) <= 0.01 * target
    # the approach is from above and improves with n
    assert asymptotic_coefficient(300) > asymptotic_coefficient(3000) > target


def test_sqrt_bound_crossover_location():
    n = 10**5
    k = sqrt_bound_crossover(n)
    assert abs(k / n - 0.4981) <= 0.0005
    assert sqrt_bound_dominates(n, k)
    assert not sqrt_bound_dominates(n, k - 1)


def test_sqrt_bound_shape():
    n = 1000
    # vacuous (negative) for shallow k, positive close to the middle
    assert bound_sqrt(n, 0) < 0
    k = sqrt_bound_crossover(n)
    assert bound_sqrt(n, k) > 0
    assert bound_sqrt(n, k) >= bound_refined(n, k)


def test_adaptive_simpson_is_exact_on_cubics():
    val = adaptive_simpson(lambda x: x**3 + 2 * x, 0.0, 1.0, 1e-12)
    assert abs(val - 1.25) < 1e-9


def test_epsilon_integral_values():
    v = epsilon_integral(0.4981)
    assert 1.3e-6 <= v <= 1.5e-6
    assert v > epsilon_integral(0.499) > 0.0
    # starting before the crossover integrates a negative stretch
    assert epsilon_integral(0.45) < 0.0
    with pytest.raises(ValueError):
        epsilon_integral(0.0)
    with pytest.raises(ValueError):
        epsilon_integral(0.5)


def test_bound_table_shape():
    t = bound_table(19)
    assert isinstance(t, BoundTable)
    assert [r.k for r in t.rows] == list(range(8))
    for r in t.rows:
        assert r.best >= r.refined >= r.simple
        assert r.sqrt_value >= 0.0
    with pytest.raises(ValueError):
        BoundTable(19, t.rows[:-1])
