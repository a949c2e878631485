"""Reduce a configuration to a triangular hull, step by step.

Pairs of extreme points travel outward along halving rays, past the
far side of the set; they stay extreme, and the hull points between
them become interior.  Each time the moving point crosses a line
through two others, one orientation flips and the census shifts by
exactly one unit, and along a halving ray the crossing count only
falls.  Each point stops at the simplest rational parameter before its
next event.  The walk ends when only three extreme points remain.

Stops are printed exactly; event parameters are exact rationals too,
rounded below only for display.  Run ``kedges reduce --trace out.json``
on a saved point set to get the full-precision trace.
"""

import random

from kedges import (
    PointSet,
    convex_hull,
    crossings_bruteforce,
    edge_vector_sweep,
    reduce_to_triangle,
)


def random_point_set(rng, n, radius):
    points = set()
    while len(points) < n:
        points.add((rng.randint(-radius, radius), rng.randint(-radius, radius)))
    try:
        return PointSet(sorted(points))
    except ValueError:
        return random_point_set(rng, n, radius)


def main():
    rng = random.Random(20)
    S = random_point_set(rng, 9, 30)
    print("start: n=%d, hull size %d, crossings %d, e-vector %s" % (
        len(S), len(convex_hull(S)), crossings_bruteforce(S).crossings,
        edge_vector_sweep(S).e))
    print()

    T, trace = reduce_to_triangle(S)
    digits = 1
    for i, step in enumerate(trace.steps):
        print("step %d: point %d moves outward, stops at t = %s" % (
            i + 1, step.moved, step.stop))
        digits = max(digits, len(str(step.stop.numerator)))
        for ev in step.events:
            print("  t ~ %-12.6g crosses the line through %s at depth k=%d"
                  "  (crossings %+d)" % (
                      float(ev.t), ev.pair, ev.k, ev.crossing_delta))
            digits = max(digits, len(str(ev.t.numerator)))
        if not step.events:
            print("  (no lines crossed)")
    print()

    print("end:   n=%d, hull size %d, crossings %d, e-vector %s" % (
        len(T), len(convex_hull(T)), crossings_bruteforce(T).crossings,
        edge_vector_sweep(T).e))
    print("crossings moved %d -> %d without ever increasing" % (
        trace.before.crossings, trace.after.crossings))
    print("(largest exact numerator above has %d digits)" % digits)


if __name__ == "__main__":
    main()
