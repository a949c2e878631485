"""Deterministic point-set generators and their promised censuses."""

import random
from math import comb

import pytest

from kedges import (
    GenerationError,
    GeneratorSpec,
    KINDS,
    crossing_lower_bound_exact,
    crossings_bruteforce,
    cumulative,
    edge_vector_sweep,
    generate,
    hull_size,
    max_depth,
)

from helpers import grid_search_oracle


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("spiral", 8)
    with pytest.raises(ValueError):
        GeneratorSpec("convex", 2)
    with pytest.raises(ValueError):
        GeneratorSpec("random-disc", 8, seed=2**64)
    with pytest.raises(ValueError):
        GeneratorSpec("random-disc", 8, scale=-1)
    assert set(KINDS) == {"random-disc", "convex", "three-cluster", "grid-search"}


def test_generators_are_deterministic():
    # grid-search with a large cell count exercises the randomized path
    for kind, n, scale in (
        ("random-disc", 9, 0),
        ("convex", 9, 0),
        ("three-cluster", 9, 0),
        ("grid-search", 7, 8),
    ):
        a = generate(GeneratorSpec(kind, n, seed=5, scale=scale))
        b = generate(GeneratorSpec(kind, n, seed=5, scale=scale))
        assert a == b


def test_random_disc_seed_changes_output():
    a = generate(GeneratorSpec("random-disc", 10, seed=1))
    b = generate(GeneratorSpec("random-disc", 10, seed=2))
    assert a != b
    r = 1000  # default coordinate radius
    assert all(p.x * p.x + p.y * p.y <= r * r for p in a)


def test_convex_kind_censuses():
    for n in range(4, 13):
        S = generate(GeneratorSpec("convex", n))
        assert hull_size(S) == n
        E = cumulative(edge_vector_sweep(S))
        for k in range(max_depth(n)):
            assert E.E[k] == (k + 1) * n
        assert crossings_bruteforce(S).crossings == comb(n, 4)


def test_three_cluster_attains_simple_bound():
    for n in range(6, 16):
        S = generate(GeneratorSpec("three-cluster", n))
        assert hull_size(S) == 3
        e = edge_vector_sweep(S)
        E = cumulative(e)
        for k in range(n // 3):
            assert E.E[k] == 3 * comb(k + 2, 2)
            assert e.e[k] == 3 * (k + 1)


def test_grid_search_exhaustive_small():
    # 4 points from the 3x3 grid: a triangle with an interior point
    S = generate(GeneratorSpec("grid-search", 4, scale=1))
    assert crossings_bruteforce(S).crossings == 0


def test_grid_search_finds_six_point_minimum():
    # the 5x5 grid admits the global minimum of 3 crossings on 6 points
    S = generate(GeneratorSpec("grid-search", 6, scale=2))
    assert crossings_bruteforce(S).crossings == 3


@pytest.mark.parametrize(
    "n, seed, r",
    [(n, 0, 1) for n in range(3, 7)]
    + [(n, 0, 2) for n in range(3, 6)]
    + [(7, 11, 2), (9, 12, 2), (6, 22, 3), (8, 14, 3)],
)
def test_grid_search_matches_unpruned_oracle(n, seed, r):
    # the first three groups walk the grid exhaustively, the last samples
    assert generate(GeneratorSpec("grid-search", n, seed=seed, scale=r)) == grid_search_oracle(n, seed, r)


def test_grid_search_meets_the_crossing_bound():
    for n in (4, 5, 6):
        S = generate(GeneratorSpec("grid-search", n, scale=2))
        assert crossings_bruteforce(S).crossings == crossing_lower_bound_exact(n)


def test_generation_failure_is_reported():
    with pytest.raises(GenerationError):
        generate(GeneratorSpec("random-disc", 9, scale=1))
