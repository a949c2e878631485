"""Lower bounds for cumulative edge counts and crossing numbers.

For k below the deepest level, the cumulative count E_k of an n-point
set in general position admits several lower bounds:

* ``bound_simple``   3*C(k+2,2), tight for k <= floor(n/3) - 1;
* ``bound_refined``  the simple bound plus the excess sum
                     sum_{j=floor(n/3)}^{k} (3j - n + 3), with integer
                     closed forms split on divisibility of n by 3;
* ``bound_sqrt``     C(n,2) - n*sqrt(n^2 - 2n - 4k(k+1)), a real-valued
                     bound that overtakes the refined one only close to
                     the halving level.

Feeding the refined bounds through the exact cumulative crossing
identity yields a crossing-number lower bound that is exact because
the identity's E_k coefficients (n - 2k - 3) are nonnegative below m.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt, sqrt
from typing import List, Optional, Tuple

from .census import CumulativeEdgeVector, max_depth
from .crossings import exact_lcr_from_E


def bound_simple(n: int, k: int) -> int:
    """3*C(k+2,2), valid for 0 <= k < (n-2)/2."""
    if not (0 <= k and 2 * k < n - 2):
        raise ValueError("k=%d out of range for n=%d" % (k, n))
    return 3 * comb(k + 2, 2)


def bound_refined(n: int, k: int) -> int:
    """The refined cumulative bound, via the integer closed forms.

    For k >= floor(n/3) the excess sum collapses to 3*C(k - n/3 + 2, 2)
    when 3 divides n and to C(3k - n + 5, 2)/3 otherwise (the division
    is exact).  Below floor(n/3) it coincides with the simple bound.
    """
    if not (0 <= k < max_depth(n)):
        raise ValueError("k=%d out of range for n=%d" % (k, n))
    base = 3 * comb(k + 2, 2)
    if k < n // 3:
        return base
    if n % 3 == 0:
        return base + 3 * comb(k - n // 3 + 2, 2)
    num = comb(3 * k - n + 5, 2)
    if num % 3 != 0:
        raise RuntimeError("internal: closed form not divisible by 3")
    return base + num // 3


def _radicand(n: int, k: int) -> int:
    """n^2 - 2n - 4k(k+1), the radicand of the square-root bound; raises
    ValueError when it is negative."""
    rad = n * n - 2 * n - 4 * k * (k + 1)
    if rad < 0:
        raise ValueError("radicand negative for n=%d, k=%d" % (n, k))
    return rad


def bound_sqrt(n: int, k: int) -> float:
    """C(n,2) - n*sqrt(n^2 - 2n - 4k(k+1)); requires a nonnegative radicand."""
    return comb(n, 2) - n * sqrt(_radicand(n, k))


def _sqrt_bound_ceiling(n: int, k: int) -> int:
    """ceil of the square-root bound, computed exactly via isqrt."""
    return comb(n, 2) - isqrt(n * n * _radicand(n, k))


def sqrt_bound_dominates(n: int, k: int) -> bool:
    """Exact integer test whether the square-root bound is >= the refined one."""
    rad = _radicand(n, k)
    d = comb(n, 2) - bound_refined(n, k)
    if d < 0:
        return False
    return d * d >= n * n * rad


def sqrt_bound_crossover(n: int) -> int:
    """Smallest k < m where the square-root bound reaches the refined one."""
    for k in range(max_depth(n)):
        if sqrt_bound_dominates(n, k):
            return k
    raise ValueError("no crossover below the deepest level for n=%d" % n)


def crossing_lower_bound_exact(n: int) -> int:
    """Crossing-number lower bound from the refined cumulative bounds.

    The vector (Ehat_0, ..., Ehat_{m-1}, C(n,2)) is pushed through the
    exact cumulative crossing identity; since every E_k coefficient in
    that identity is nonnegative for k < m, the result bounds the
    crossing number of every n-point set from below.
    """
    if n < 4:
        raise ValueError("needs n >= 4")
    m = max_depth(n)
    E = tuple(bound_refined(n, k) for k in range(m)) + (comb(n, 2),)
    return exact_lcr_from_E(CumulativeEdgeVector(n, E))


def asymptotic_coefficient(n: int) -> float:
    """sum_{k<m} (n-2k-3)*Ehat_k / C(n,4); tends to 41/108 = 0.379629..."""
    if n < 100:
        raise ValueError("meant for large n (>= 100)")
    m = max_depth(n)
    num = sum((n - 2 * k - 3) * bound_refined(n, k) for k in range(m))
    return num / comb(n, 4)


def halving_upper_bound(n: int) -> int:
    """Upper bound C(n,2) - Ehat_{m-1} for the number of halving edges."""
    if n < 5:
        raise ValueError("needs n >= 5")
    return comb(n, 2) - bound_refined(n, max_depth(n) - 1)


def _simpson(f, a, fa, b, fb):
    c = (a + b) / 2
    fc = f(c)
    return c, fc, (b - a) / 6 * (fa + 4 * fc + fb)


def _adaptive(f, a, fa, b, fb, c, fc, whole, tol, depth):
    lc, flc, left = _simpson(f, a, fa, c, fc)
    rc, frc, right = _simpson(f, c, fc, b, fb)
    if depth <= 0 or abs(left + right - whole) <= 15 * tol:
        return left + right + (left + right - whole) / 15
    return _adaptive(f, a, fa, c, fc, lc, flc, left, tol / 2, depth - 1) + _adaptive(
        f, c, fc, b, fb, rc, frc, right, tol / 2, depth - 1
    )


def adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson quadrature with absolute tolerance ``tol``."""
    fa, fb = f(a), f(b)
    c, fc, whole = _simpson(f, a, fa, b, fb)
    return _adaptive(f, a, fa, b, fb, c, fc, whole, tol, 60)


def epsilon_integral(t0: float, tol: float = 1e-9) -> float:
    """The asymptotic crossing-coefficient gain

        24 * integral_{t0}^{1/2} (1-2t) * (1/3 + t - 3t^2 - sqrt(1-4t^2)) dt

    contributed by using the square-root bound beyond its crossover
    point t0 (a fraction of n).  Around t0 = 0.4981 the value is about
    1.4e-6.
    """
    if not (0.0 < t0 < 0.5):
        raise ValueError("t0 must lie strictly between 0 and 1/2")

    def f(t: float) -> float:
        rad = 1.0 - 4.0 * t * t
        if rad < 0.0:
            rad = 0.0
        return 24.0 * (1.0 - 2.0 * t) * (1.0 / 3.0 + t - 3.0 * t * t - sqrt(rad))

    return adaptive_simpson(f, t0, 0.5, tol / 4)


@dataclass(frozen=True)
class BoundRow:
    k: int
    simple: int
    refined: int
    sqrt_value: float
    sqrt_ceiling: int
    best: int


@dataclass(frozen=True)
class BoundTable:
    """Per-level lower bounds on E_k for k = 0..m-1.

    The square-root column is clamped at 0 where vacuous; ``best`` is
    the strongest integer bound available on the row.
    """

    n: int
    rows: Tuple[BoundRow, ...]

    def __post_init__(self):
        if [r.k for r in self.rows] != list(range(max_depth(self.n))):
            raise ValueError("rows must cover k = 0..m-1")
        for r in self.rows:
            if r.best < r.simple:
                raise ValueError("best bound below the simple bound at k=%d" % r.k)


def bound_table(n: int) -> BoundTable:
    if n < 4:
        raise ValueError("needs n >= 4")
    rows: List[BoundRow] = []
    for k in range(max_depth(n)):
        refined = bound_refined(n, k)
        fval = max(0.0, bound_sqrt(n, k))
        fceil = max(0, _sqrt_bound_ceiling(n, k))
        rows.append(
            BoundRow(
                k=k,
                simple=bound_simple(n, k),
                refined=refined,
                sqrt_value=fval,
                sqrt_ceiling=fceil,
                best=max(refined, fceil),
            )
        )
    return BoundTable(n, tuple(rows))
