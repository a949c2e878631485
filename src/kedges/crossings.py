"""Rectilinear crossing counts.

Drawing all segments between points of a set in general position, two
segments cross exactly when their four endpoints are in convex
position, so the crossing count equals the number of convex
quadrilaterals.  Besides the direct quadruple count there is an exact
identity tying the crossing number to the edge census:

    crossings + sum_j j*(n-j-2)*e_j = 3*C(n,4)

and its cumulative form, obtained by partial summation:

    crossings = sum_{k<m} (n-2k-3)*E_k - m*(n-2-m)*C(n,2) + 3*C(n,4)

which is exact (not merely a bound) when fed the true E-vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .census import CumulativeEdgeVector, EdgeVector, edge_vector_sweep, max_depth
from .geometry import Point, PointSet


class CensusError(RuntimeError):
    """An exact identity failed; indicates an internal inconsistency."""


@dataclass(frozen=True)
class CrossingReport:
    n: int
    crossings: int
    method: str


def quadruple_constant(n: int) -> int:
    """The constant 3*C(n,4) = (n^4 - 6n^3 + 11n^2 - 6n) / 8."""
    return 3 * comb(n, 4)


def is_convex_quadrilateral(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True when the four points are in convex position.

    Among the four orientation signs of the triples omitting one point
    each, convex position gives an even number of counterclockwise
    turns and a point inside the triangle of the others gives an odd
    number.  A collinear triple is rejected.
    """
    ax, ay = a.x, a.y
    bx, by = b.x - ax, b.y - ay
    cx, cy = c.x - ax, c.y - ay
    dx, dy = d.x - ax, d.y - ay
    abc = bx * cy - by * cx
    abd = bx * dy - by * dx
    acd = cx * dy - cy * dx
    bcd = abc - abd + acd  # the doubled areas satisfy abc - abd + acd - bcd = 0
    if not (abc and abd and acd and bcd):
        raise ValueError("collinear triple among quadrilateral corners")
    return ((abc > 0) + (abd > 0) + (acd > 0) + (bcd > 0)) % 2 == 0


def crossings_bruteforce(S: PointSet) -> CrossingReport:
    """Count convex quadruples directly, O(n^4)."""
    total = 0
    for a, b, c, d in combinations(S, 4):
        if is_convex_quadrilateral(a, b, c, d):
            total += 1
    return CrossingReport(len(S), total, "bruteforce")


def crossings_via_identity(S: PointSet) -> CrossingReport:
    """Crossing count from the sweep census via the exact identity."""
    return CrossingReport(len(S), crossings_from_census(edge_vector_sweep(S)), "identity")


def crossings_from_census(e: EdgeVector) -> int:
    """Crossing count of a set whose census is e, via the exact identity."""
    total = quadruple_constant(e.n) - identity_weighted_sum(e)
    if total < 0 or total > comb(e.n, 4):
        raise CensusError("identity yielded %d crossings for n=%d" % (total, e.n))
    return total


def exact_lcr_from_E(E: CumulativeEdgeVector) -> int:
    """Crossing count from cumulative edge counts (exact, by partial
    summation of the depth identity)."""
    n = E.n
    m = max_depth(n)
    acc = sum((n - 2 * k - 3) * E.E[k] for k in range(m))
    return acc - m * (n - 2 - m) * comb(n, 2) + quadruple_constant(n)


def identity_weighted_sum(e: EdgeVector) -> int:
    """The census side sum_j j*(n-j-2)*e_j of the depth identity."""
    n = e.n
    return sum(j * (n - j - 2) * e.e[j] for j in range(len(e.e)))
