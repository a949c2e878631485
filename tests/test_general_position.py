"""The O(n^2) general-position checks against the cubic triple scan.

Points come from a 5 x 5 grid, where collinear triples and coincident
points are common, so both outcomes of every check are exercised.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from kedges import (
    GeneralPositionError,
    Orientation,
    Point,
    PointSet,
    extends_general_position,
    orientation,
    validate_general_position,
)
from kedges.geometry import _first_collinear_triple

GRID = [Point(x, y) for x in range(5) for y in range(5)]


def _outcome(build):
    """What building a set does: its points, or the error it raises."""
    try:
        return ("ok", build().points)
    except GeneralPositionError as exc:
        return ("collinear", exc.triple)
    except ValueError as exc:
        return ("invalid", str(exc))


def test_extends_matches_pair_scan():
    rng = random.Random(11)
    for _ in range(1500):
        pts = rng.sample(GRID, rng.randint(0, 7))
        p = rng.choice(GRID)
        expected = p not in pts and all(
            orientation(a, b, p) != Orientation.COLLINEAR
            for a, b in combinations(pts, 2)
        )
        assert extends_general_position(pts, p) == expected


def test_extends_rejects_a_point_of_the_set():
    pts = [Point(0, 0), Point(3, 1), Point(1, 4)]
    for p in pts:
        assert extends_general_position(pts, p) is False
    assert extends_general_position([Point(7, -2)], Point(7, -2)) is False


def test_validate_returns_first_collinear_triple():
    rng = random.Random(12)
    found = 0
    for _ in range(1500):
        pts = rng.sample(GRID, rng.randint(3, 8))
        expected = _first_collinear_triple(pts)
        assert validate_general_position(pts) == expected
        found += expected is not None
    assert 0 < found < 1500


def test_validate_rejects_duplicates_first():
    pts = [Point(0, 0), Point(1, 1), Point(2, 2), Point(1, 1)]
    with pytest.raises(ValueError, match=r"duplicate point at indices \(1, 3\)"):
        validate_general_position(pts)


def test_replace_agrees_with_fresh_construction():
    rng = random.Random(13)
    outcomes = set()
    for _ in range(600):
        while True:
            try:
                S = PointSet(rng.sample(GRID, rng.randint(3, 6)))
                break
            except ValueError:
                continue
        i = rng.randrange(-len(S), len(S))
        roll = rng.random()
        if roll < 0.25:
            p = S[rng.randrange(len(S))]  # onto an existing point
        elif roll < 0.5:
            p = (Fraction(rng.randint(0, 8), 2), Fraction(rng.randint(0, 12), 3))
        else:
            p = rng.choice(GRID)
        coords = list(S)
        coords[i] = p
        got = _outcome(lambda: S.replace(i, p))
        assert got == _outcome(lambda: PointSet(coords))
        outcomes.add(got[0])
    assert outcomes == {"ok", "collinear", "invalid"}
