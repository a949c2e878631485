"""Cross-validation of census and crossing computations.

``verify_point_set`` recomputes every quantity for a set by at least two
independent routes and tests the proved inequalities against the actual
counts.  It returns a list of human-readable violation messages; an
empty list means the set passed every check.  Any non-empty result is
evidence of a bug, since the inequalities hold for every point set in
general position.

The routes and their costs: the rotational-sweep census, O(n^2 log n),
against the O(n^3) brute-force census and against the histogram of
the ``left_counts`` rows, O(n^2 log n); the identity
crossing count against the O(n^4) quadruple count
``crossings_bruteforce`` and the cumulative form; the good k-edges
from the ``left_counts`` rows, O(n^2 log n) per k.  The quadruple count
dominates.
"""

from __future__ import annotations

from typing import List, Tuple

from .geometry import Point, PointSet
from .census import (
    cumulative,
    edge_vector_bruteforce,
    edge_vector_sweep,
    good_k_edge_count,
    left_counts,
    max_depth,
    oriented_counts_from_rows,
    oriented_edge_counts,
)
from .crossings import crossings_bruteforce, crossings_via_identity, exact_lcr_from_E
from .bounds import bound_refined, bound_simple


def containing_triangle(S: PointSet) -> Tuple[Point, Point, Point]:
    """An integer triangle that strictly contains S, with no corner on a
    line through two points of S (which would make oriented side counts
    ambiguous).

    Let s be the larger side of the bounding box of S (at least 1).  A
    line through two points of S is either vertical, inside the box's
    x-range, or has |slope| <= s, so at horizontal distance L from the
    box it stays within s(s + L) of the box's y-range.  Each corner lies
    outside the x-range by L and beyond the y-range by more than
    s(s + L), so it is on no such line.  The left and bottom sides run
    outside the box, and the third side passes right of its top-right
    corner.
    """
    xs = [p.x for p in S]
    ys = [p.y for p in S]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    s = max(x1 - x0, y1 - y0, 1)
    m = 3 * (s + 1) ** 2
    return (Point(x0 - 1, y0 - m), Point(x1 + 2 * s + 2, y0 - m), Point(x0 - 1, y1 + m))


def verify_point_set(S: PointSet) -> List[str]:
    """Run every cross-check on S and return the list of violations:
    sweep census against brute force and against the left_counts rows,
    identity crossings against the quadruple count, E_k against both
    bounds, and the good k-edges per k from the left_counts rows.
    crossings_bruteforce makes it O(n^4).
    """
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
    rows_H = oriented_counts_from_rows([left_counts(S, p) for p in range(n)])
    if H != rows_H:
        problems.append(
            "oriented counts disagree: sweep %r, left-count rows %r" % (H, rows_H)
        )

    cr_brute = crossings_bruteforce(S).crossings
    E = cumulative(e_brute)
    for route, cr in (
        ("identity", crossings_via_identity(S).crossings),
        ("cumulative form", exact_lcr_from_E(E)),
    ):
        if cr != cr_brute:
            problems.append(
                "crossing counts disagree: brute force %d, %s %d" % (cr_brute, route, cr)
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
