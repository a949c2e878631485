"""Coordinate growth of the hull reduction over a seeded stress set.

Reduces 240 random-disc sets drawn from seed 0 (SETS, SEED), with n
from 6 to 40 points and radii from 20 to 2^40 (log-uniform), checks
each result (triangular hull, every event lowers the crossing count,
final crossings equal the identity count of the output, the trace
replays onto the output) and prints the worst growth in coordinate
bits, output minus input, with the set it came from, the total time
and one sha256 digest over the repr of every output set and trace, so
two versions of the reduction can be compared by one line.  Each
landing stops at the simplest rational before the moving point's next
event, so the growth stays small.

    PYTHONPATH=src python demos/landing_growth.py
"""

import hashlib
import random
import time
from math import log2

from kedges import (
    GeneratorSpec,
    apply_motion,
    coord_bits,
    crossings_via_identity,
    generate,
    hull_size,
    reduce_to_triangle,
)

SETS = 240
SEED = 0


def problems(S, T, trace):
    out = []
    if hull_size(T) != 3:
        out.append("hull is not a triangle")
    if any(ev.crossing_delta >= 0 for st in trace.steps for ev in st.events):
        out.append("an event did not lower the crossing count")
    if trace.after.crossings != crossings_via_identity(T).crossings:
        out.append("final crossings differ from the identity count")
    R = S
    for st in trace.steps:
        R = apply_motion(R, st.moved, st.ray, st.stop)
    if R != T:
        out.append("trace does not replay onto the output")
    return out


def main():
    rng = random.Random(SEED)
    worst = None
    failed = 0
    digest = hashlib.sha256()
    start = time.perf_counter()
    for _ in range(SETS):
        n = rng.randint(6, 40)
        radius = round(2 ** rng.uniform(log2(20), 40))
        seed = rng.randrange(2 ** 32)
        S = generate(GeneratorSpec("random-disc", n, seed, scale=radius))
        T, trace = reduce_to_triangle(S)
        digest.update(repr(T).encode())
        digest.update(repr(trace).encode())
        found = problems(S, T, trace)
        if found:
            failed += 1
            print("random-disc --n %d --seed %d --scale %d: %s" % (n, seed, radius, "; ".join(found)))
        growth = coord_bits(T) - coord_bits(S)
        if worst is None or growth > worst[0]:
            worst = (growth, n, seed, radius, coord_bits(S), coord_bits(T))
    elapsed = time.perf_counter() - start
    growth, n, seed, radius, b_in, b_out = worst
    print("%d sets, %d failed checks, %.1f s" % (SETS, failed, elapsed))
    print("worst growth %d bits: random-disc --n %d --seed %d --scale %d (%d -> %d bits)"
          % (growth, n, seed, radius, b_in, b_out))
    print("sha256 of outputs and traces: %s" % digest.hexdigest())
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
