"""Cross-validation of census and crossing computations.

``verify_point_set`` recomputes every quantity for a set by at least two
independent routes and tests the proved inequalities against the actual
counts.  It returns a list of human-readable violation messages; an
empty list means the set passed every check.  Any non-empty result is
evidence of a bug, since the inequalities hold for every point set in
general position.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .geometry import Orientation, Point, PointSet, extends_general_position, orientation
from .census import (
    cumulative,
    edge_vector_bruteforce,
    edge_vector_sweep,
    good_k_edge_count,
    max_depth,
    oriented_edge_counts,
    strictly_inside_triangle,
)
from .crossings import crossings_bruteforce, crossings_via_identity, exact_lcr_from_E
from .bounds import bound_refined, bound_simple


def containing_triangle(S: PointSet) -> Tuple[Point, Point, Point]:
    """An integer triangle that strictly contains S.

    The corners are chosen far enough out that every point is strictly
    inside, and adjusted so that no corner is collinear with a pair of
    points of S (which would make oriented side counts ambiguous).
    """
    xs = [p.x for p in S]
    ys = [p.y for p in S]
    cx = (min(xs) + max(xs)) // 2
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1)
    D = 4 * span
    for _ in range(64):
        a = Point(cx - 2 * D, min(ys) - D)
        b = Point(cx + 2 * D + 1, min(ys) - D - 1)
        c = Point(cx + 1, max(ys) + 3 * D)
        tri = (a, b, c)
        if (
            orientation(a, b, c) != Orientation.COLLINEAR
            and all(strictly_inside_triangle(p, tri) for p in S)
            and all(extends_general_position(S.points, v) for v in tri)
        ):
            return tri
        D = D + max(span, 1) + 1
    raise RuntimeError("internal: could not place a containing triangle")


def verify_point_set(S: PointSet) -> List[str]:
    """Run every cross-check on S and return the list of violations."""
    problems: List[str] = []
    n = len(S)
    m = max_depth(n)

    e_sweep = edge_vector_sweep(S)
    e_brute = edge_vector_bruteforce(S)
    if e_sweep != e_brute:
        problems.append(
            "edge vectors disagree: sweep %r, brute force %r" % (e_sweep.e, e_brute.e)
        )

    H = oriented_edge_counts(S)
    for j in range(m + 1):
        expected = e_brute.e[j]
        if n % 2 == 0 and j == m:
            expected = 2 * e_brute.e[j]
        if H[j] != expected:
            problems.append(
                "oriented count H[%d]=%d does not match edge vector entry %d"
                % (j, H[j], e_brute.e[j])
            )
        if H[n - 2 - j] != H[j]:
            problems.append(
                "oriented counts are not symmetric: H[%d]=%d, H[%d]=%d"
                % (j, H[j], n - 2 - j, H[n - 2 - j])
            )

    cr_brute = crossings_bruteforce(S).crossings
    cr_ident = crossings_via_identity(S).crossings
    if cr_brute != cr_ident:
        problems.append(
            "crossing counts disagree: brute force %d, identity %d" % (cr_brute, cr_ident)
        )
    E = cumulative(e_brute)
    cr_abel = exact_lcr_from_E(E)
    if cr_abel != cr_brute:
        problems.append(
            "crossing counts disagree: brute force %d, cumulative form %d"
            % (cr_brute, cr_abel)
        )

    for k in range(m):
        for name, bound in (("simple", bound_simple(n, k)), ("refined", bound_refined(n, k))):
            if E.E[k] < bound:
                problems.append(
                    "E_%d = %d violates the %s lower bound %d" % (k, E.E[k], name, bound)
                )

    tri = containing_triangle(S)
    for k in range(n // 3, (n - 2) // 2 + 1):
        good = good_k_edge_count(S, tri, k)
        need = 3 * (k + 1) - n
        if good < need:
            problems.append(
                "only %d good %d-edges, at least %d are guaranteed" % (good, k, need)
            )

    return problems
