"""The O(n^2) general-position checks against the cubic triple scan.

Points come from 5 x 5 and 7 x 7 grids, where collinear triples and
coincident points are common, so both outcomes of every check are
exercised; near-collinear triples come from helpers.farey_points.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from kedges import (
    DuplicatePointError,
    GeneralPositionError,
    GeneratorSpec,
    Orientation,
    Point,
    PointSet,
    extends_general_position,
    generate,
    orientation,
    validate_general_position,
)
from kedges import geometry
from kedges.geometry import _first_collinear_triple
from helpers import farey_points

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


def _cubic_rule(pts):
    """The first repeated pair of indices, else the cubic scan's first
    collinear triple (None when there is none)."""
    for i, p in enumerate(pts):
        if p in pts[:i]:
            return ("duplicate", (pts.index(p), i))
    return ("triple", _first_collinear_triple(pts))


def _validation(pts):
    try:
        return ("triple", validate_general_position(pts))
    except DuplicatePointError as exc:
        return ("duplicate", exc.pair)


def test_validate_matches_the_cubic_rule_on_a_dense_grid():
    grid = [Point(x, y) for x in range(7) for y in range(7)]
    rng = random.Random(14)
    kinds = set()
    for _ in range(3000):
        pts = [rng.choice(grid) for _ in range(rng.randint(0, 12))]
        kind, found = want = _cubic_rule(pts)
        assert _validation(pts) == want
        if kind == "triple" and found is None:
            kind = "none"
        elif kind == "triple":
            a, _, c = (pts[i] for i in found)
            kind = "horizontal" if a.y == c.y else "vertical" if a.x == c.x else "diagonal"
        kinds.add(kind)
    assert kinds == {"duplicate", "horizontal", "vertical", "diagonal", "none"}


def _no_scan(*args):
    raise AssertionError("validation of a valid set ran a cubic-time primitive")


@pytest.mark.parametrize("b", [10, 200, 1100])
def test_validate_resolves_the_nearest_directions(b, monkeypatch):
    # in every image of the square, directions 1/(q*q') apart get
    # distinct keys, so no scan runs, and an exactly collinear triple
    # is found
    rng = random.Random(1900 + b)
    for image in range(8):
        for m in (3, 25):
            for collinear in (False, True):
                pts = [Point(x, y) for x, y in farey_points(rng, b, m, image, collinear)]
                want = _first_collinear_triple(pts)
                assert (want is not None) == collinear
                with monkeypatch.context() as patch:
                    if not collinear:
                        patch.setattr(geometry, "_first_collinear_triple", _no_scan)
                    assert validate_general_position(pts) == want


def test_validation_runs_no_cubic_scan(monkeypatch):
    sets = [
        generate(GeneratorSpec("random-disc", 40, 3)).points,
        generate(GeneratorSpec("random-disc", 160, 4, 2 ** 128)).points,
    ]
    monkeypatch.setattr(geometry, "_first_collinear_triple", _no_scan)
    monkeypatch.setattr(geometry, "orientation", _no_scan)
    for pts in sets:
        assert PointSet(pts).points == pts


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
