"""Workloads of the kedges benchmark: seeded inputs, jobs, probes and oracles.

A workload is a fixed list of jobs made from the seed.  A job makes the
calls under test, wrapping each call into a layer in a span, and returns
a result that every later pass must repeat exactly.  ``check`` is the
untimed oracle for a first-pass result and returns a list of problems.
``probe`` makes the extra calls that only split layers in a traced run;
it runs outside the job span and outside the pass time.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from math import comb, gcd
from typing import Callable, List, Optional

from kedges import (
    GeneratorSpec,
    PointSet,
    apply_motion,
    bound_table,
    config_summary,
    crossing_lower_bound_exact,
    crossings_bruteforce,
    crossings_via_identity,
    cumulative,
    edge_vector_bruteforce,
    edge_vector_sweep,
    epsilon_integral,
    exact_lcr_from_E,
    generate,
    halving_upper_bound,
    hull_size,
    max_depth,
    motion_events,
    parse_point_set,
    reduce_to_triangle,
    verify_point_set,
)

from bench_trace import NullTracer

# Cell sizes.  TINY keeps every code path of FULL and runs in seconds;
# the self-tests use it.
FULL = {
    "census": (40, 80, 160),
    "reduce_disc": (20, 40, 60),
    "reduce_convex": (12, 16, 20),
    "generate_disc": (40, 60, 80),
    "generate_grid": (5, 7, 8),
    "cli_disc": 40,
    "cli_convex": 12,
    "cli_bounds": 101,
    "cli_cluster": 60,
}
TINY = {
    "census": (8, 12),
    "reduce_disc": (6,),
    "reduce_convex": (6,),
    "generate_disc": (6,),
    "generate_grid": (4,),
    "cli_disc": 8,
    "cli_convex": 6,
    "cli_bounds": 11,
    "cli_cluster": 9,
}

CENSUS_KINDS = ("disc", "bigdisc", "convex", "cluster")
CENSUS_RADIUS = {"disc": 2 ** 10, "bigdisc": 2 ** 128}
REDUCE_RADIUS = 1000
DISC_RADIUS = 1000  # the random-disc generator's default radius
GRID_RADIUS = 2  # the grid-search generator's default radius
BRUTE_CROSSINGS_MAX_N = 40
EPSILON_T0 = 0.25
CLI_COMMANDS = ("census", "crossings", "bounds", "reduce", "generate", "verify", "epsilon")

# Rectilinear crossing numbers of K_n (known exact values), an oracle
# that owes nothing to kedges.
RECTILINEAR_CROSSINGS = {4: 0, 5: 1, 6: 3, 7: 9, 8: 19, 9: 36, 10: 62}


@dataclass
class Job:
    cell: str
    run: Callable  # tracer -> result
    check: Callable  # result -> list of problems
    out_bits: Callable  # result -> largest coordinate bit-length of its output sets
    in_bits: Optional[int]  # largest coordinate bit-length of the input set, if any
    probe: Optional[Callable] = None  # (result, tracer) -> None


@dataclass
class Workload:
    name: str
    jobs: List[Job]
    pass_probe: Optional[Callable] = None  # tracer -> None, once per traced pass
    children: Optional["Children"] = None  # set when jobs run subprocesses


# ---------------------------------------------------------------- inputs


def coord_bits(points) -> int:
    return max(max(abs(x).bit_length(), abs(y).bit_length()) for x, y in points)


def _extends_general_position(pts, p) -> bool:
    """Whether p is new and on no line through two points of pts: the
    directions from p to the others must fall in distinct classes."""
    px, py = p
    seen = set()
    for x, y in pts:
        dx, dy = x - px, y - py
        g = gcd(dx, dy)
        if g == 0:
            return False
        dx, dy = dx // g, dy // g
        if dx < 0 or (dx == 0 and dy < 0):
            dx, dy = -dx, -dy
        if (dx, dy) in seen:
            return False
        seen.add((dx, dy))
    return True


def in_general_position(pts) -> bool:
    """Oracle independent of kedges: distinct points, no three collinear."""
    pts = list(pts)
    return all(
        _extends_general_position(pts[:i] + pts[i + 1:], pts[i]) for i in range(len(pts))
    )


def disc_coords(n, radius, rng):
    """n integer points of the disc of the given radius, no three collinear."""
    pts = []
    while len(pts) < n:
        x = rng.randint(-radius, radius)
        y = rng.randint(-radius, radius)
        if x * x + y * y <= radius * radius and _extends_general_position(pts, (x, y)):
            pts.append((x, y))
    return pts


def point_text(coords) -> str:
    return "%d\n" % len(coords) + "".join("%d %d\n" % p for p in coords)


def _shuffled(S, rng):
    pts = [(p.x, p.y) for p in S]
    rng.shuffle(pts)
    return pts


def _differ(what, got, want):
    return "%s: got %r, expected %r" % (what, got, want)


# ---------------------------------------------------------------- census


def census_workload(seed, sizes, workdir) -> Workload:
    rng = random.Random("census-%d" % seed)
    jobs = []
    for kind in CENSUS_KINDS:
        for n in sizes["census"]:
            if kind in CENSUS_RADIUS:
                coords = disc_coords(n, CENSUS_RADIUS[kind], rng)
            else:
                gen_kind = "convex" if kind == "convex" else "three-cluster"
                coords = _shuffled(generate(GeneratorSpec(gen_kind, n)), rng)
            jobs.append(_census_job("%s-%d" % (kind, n), kind, coords))
    return Workload("census", jobs)


def _census_job(cell, kind, coords) -> Job:
    n = len(coords)
    text = point_text(coords)

    def run(tr):
        with tr.span("fileio.parse_ms." + cell):
            S = parse_point_set(text)
        with tr.span("census.sweep_ms." + cell):
            e = edge_vector_sweep(S)
        with tr.span("crossings.identity_ms." + cell):
            crossings = crossings_via_identity(S).crossings
        with tr.span("bounds.lower_ms." + cell):
            lower = crossing_lower_bound_exact(n)
        with tr.span("bounds.table_ms.n%d" % n):
            table = bound_table(n)
        return S, e, crossings, lower, table

    def check(result):
        S, e, crossings, lower, table = result
        problems = []
        if [tuple(p) for p in S] != coords:
            problems.append("parsed points differ from the input")
        brute = edge_vector_bruteforce(S)
        if e != brute:
            problems.append(_differ("sweep census", e.e, brute.e))
        E_brute = cumulative(brute)
        E = E_brute.E
        want = exact_lcr_from_E(E_brute)
        if crossings != want:
            problems.append(_differ("identity crossings", crossings, want))
        if n <= BRUTE_CROSSINGS_MAX_N:
            want = crossings_bruteforce(S).crossings
            if crossings != want:
                problems.append(_differ("identity vs brute-force crossings", crossings, want))
        if crossings < lower:
            problems.append("crossings %d below the lower bound %d" % (crossings, lower))
        for row in table.rows:
            if E[row.k] < row.refined:
                problems.append("E_%d = %d below the refined bound %d" % (row.k, E[row.k], row.refined))
        if kind == "convex":
            if crossings != comb(n, 4):
                problems.append(_differ("convex crossings", crossings, comb(n, 4)))
            if any(E[k] != (k + 1) * n for k in range(max_depth(n))):
                problems.append("convex E-vector is not (k+1)n")
        if kind == "cluster" and any(E[k] != 3 * comb(k + 2, 2) for k in range(n // 3)):
            problems.append("cluster E-vector does not meet the simple bound with equality")
        return problems

    def probe(result, tr):
        with tr.span("geometry.validate_ms." + cell):
            PointSet(coords)

    return Job(cell, run, check, lambda r: coord_bits(r[0]), coord_bits(coords), probe)


# ---------------------------------------------------------------- reduce


def reduce_workload(seed, sizes, workdir) -> Workload:
    rng = random.Random("reduce-%d" % seed)
    # The disc sets are fixed and only their order follows the seed:
    # reduction cost is heavy-tailed across random sets (disc-60 took
    # 0.6 to 6.6 s over 24 sets on a 2-CPU host), so fresh sets per seed
    # would swamp the run-to-run comparison.  The reduction takes the
    # same steps in any point order, so the seed varies the input but
    # not the work.
    base = random.Random("reduce-disc-base")
    jobs = []
    for n in sizes["reduce_disc"]:
        coords = disc_coords(n, REDUCE_RADIUS, base)
        rng.shuffle(coords)
        jobs.append(_reduce_job("disc-%d" % n, coords))
    for n in sizes["reduce_convex"]:
        coords = _shuffled(generate(GeneratorSpec("convex", n)), rng)
        jobs.append(_reduce_job("convex-%d" % n, coords))
    return Workload("reduce", jobs)


def replay(S, trace, tr, cell):
    """Re-run every recorded step through the public motion API.
    Returns the final set and a problem message or None."""
    for i, step in enumerate(trace.steps):
        with tr.span("motion.events_ms." + cell):
            events = motion_events(S, step.moved, step.ray, step.stop)
        if tuple(events) != step.events:
            return S, "step %d: replayed events differ from the trace" % i
        with tr.span("motion.apply_ms." + cell):
            S = apply_motion(S, step.moved, step.ray, step.stop)
    return S, None


def _reduce_job(cell, coords) -> Job:
    S = PointSet(coords)

    def run(tr):
        with tr.span("motion.reduce_ms." + cell):
            return reduce_to_triangle(S)

    def check(result):
        T, trace = result
        problems = []
        if hull_size(T) != 3 or trace.after.hull_size != 3:
            problems.append("the reduced hull is not a triangle")
        deltas = [ev.crossing_delta for step in trace.steps for ev in step.events]
        if any(d > 0 for d in deltas):
            problems.append("an event raised the crossing count")
        if trace.before.crossings + sum(deltas) != trace.after.crossings:
            problems.append("event deltas do not add up to the crossing change")
        if len(S) <= 20:
            for label, P, got in (("before", S, trace.before.crossings), ("after", T, trace.after.crossings)):
                want = crossings_bruteforce(P).crossings
                if got != want:
                    problems.append(_differ("crossings " + label, got, want))
        end, problem = replay(S, trace, NullTracer(), cell)
        if problem is not None:
            problems.append(problem)
        elif end != T:
            problems.append("the replayed trace does not end on the output set")
        return problems

    def probe(result, tr):
        T, trace = result
        with tr.span("motion.summary_ms." + cell):
            config_summary(S)
        replay(S, trace, tr, cell)
        tr.count("motion.steps." + cell, len(trace.steps))
        tr.count("motion.events." + cell, sum(len(step.events) for step in trace.steps))
        tr.count("motion.out_bits." + cell, coord_bits(T))

    return Job(cell, run, check, lambda r: coord_bits(r[0]), coord_bits(coords), probe)


# ---------------------------------------------------------------- generate


def generate_workload(seed, sizes, workdir) -> Workload:
    rng = random.Random("generate-%d" % seed)
    jobs = []
    for n in sizes["generate_disc"]:
        spec = GeneratorSpec("random-disc", n, seed=rng.getrandbits(32))
        jobs.append(_generate_job("disc-%d" % n, spec))
    for n in sizes["generate_grid"]:
        spec = GeneratorSpec("grid-search", n, seed=rng.getrandbits(32))
        jobs.append(_generate_job("grid-%d" % n, spec))
    return Workload("generate", jobs)


def _generate_job(cell, spec) -> Job:
    n = spec.n

    def run(tr):
        with tr.span("generators.generate_ms." + cell):
            return generate(spec)

    def check(S):
        pts = [tuple(p) for p in S]
        problems = []
        if len(pts) != n:
            return [_differ("point count", len(pts), n)]
        if not in_general_position(pts):
            problems.append("the set is not in general position")
        if spec.kind == "random-disc":
            if any(x * x + y * y > DISC_RADIUS ** 2 for x, y in pts):
                problems.append("a point lies outside the disc")
        elif any(max(abs(x), abs(y)) > GRID_RADIUS for x, y in pts):
            problems.append("a point lies outside the grid")
        brute = edge_vector_bruteforce(S)
        if edge_vector_sweep(S) != brute:
            problems.append("sweep census differs from the brute-force census")
        crossings = crossings_via_identity(S).crossings
        if crossings != exact_lcr_from_E(cumulative(brute)):
            problems.append("identity crossings differ from the cumulative form")
        if crossings < crossing_lower_bound_exact(n):
            problems.append("crossings below the exact lower bound")
        if n in RECTILINEAR_CROSSINGS:
            if crossings != crossings_bruteforce(S).crossings:
                problems.append("identity crossings differ from brute force")
            if crossings < RECTILINEAR_CROSSINGS[n]:
                problems.append("crossings below the rectilinear crossing number")
        return problems

    return Job(cell, run, check, coord_bits, None)


# ---------------------------------------------------------------- cli


class Children:
    """Runs subprocesses one at a time and keeps the largest max RSS."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.max_rss_kb = 0
        self.env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env["PYTHONPATH"] = src

    def run(self, argv):
        """(exit code, stdout) of ``python argv``; stderr goes to a file."""
        out_path = os.path.join(self.workdir, "stdout.txt")
        with open(out_path, "wb") as out, open(os.path.join(self.workdir, "stderr.txt"), "wb") as err:
            proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err, env=self.env)
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        with open(out_path, encoding="ascii") as fh:
            return proc.returncode, fh.read()


def cli_workload(seed, sizes, workdir) -> Workload:
    rng = random.Random("cli-%d" % seed)
    os.makedirs(workdir, exist_ok=True)
    disc = disc_coords(sizes["cli_disc"], CENSUS_RADIUS["disc"], rng)
    convex = _shuffled(generate(GeneratorSpec("convex", sizes["cli_convex"])), rng)
    disc_path = os.path.join(workdir, "disc.txt")
    convex_path = os.path.join(workdir, "convex.txt")
    reduced_path = os.path.join(workdir, "reduced.txt")
    for path, coords in ((disc_path, disc), (convex_path, convex)):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(point_text(coords))
    n_bounds = sizes["cli_bounds"]
    cluster = GeneratorSpec("three-cluster", sizes["cli_cluster"])
    argv = {
        "census": ["census", disc_path, "--json"],
        "crossings": ["crossings", disc_path, "--method", "both", "--json"],
        "bounds": ["bounds", "--n", str(n_bounds), "--json"],
        "reduce": ["reduce", convex_path, "--json", "--out", reduced_path],
        "generate": ["generate", "--kind", cluster.kind, "--n", str(cluster.n)],
        "verify": ["verify", disc_path],
        "epsilon": ["epsilon", "--t0", repr(EPSILON_T0), "--json"],
    }
    children = Children(workdir)

    def expected(command):
        """What the command must print, computed in process."""
        if command in ("census", "crossings", "verify"):
            S = PointSet(disc)
            if command == "census":
                e = edge_vector_sweep(S)
                return {"n": e.n, "e": list(e.e), "E": list(cumulative(e).E), "halving": e.halving}
            if command == "crossings":
                c = crossings_via_identity(S).crossings
                return {"n": len(S), "crossings": c, "methods": ["bruteforce", "identity"]}
            problems = verify_point_set(S)
            return "verify: OK (n=%d)\n" % len(S) if not problems else problems
        if command == "bounds":
            table = bound_table(n_bounds)
            return (
                crossing_lower_bound_exact(n_bounds),
                halving_upper_bound(n_bounds),
                [(r.k, r.simple, r.refined, r.best) for r in table.rows],
            )
        if command == "reduce":
            T, trace = reduce_to_triangle(PointSet(convex))
            summary = {
                "n": len(T),
                "hull_before": trace.before.hull_size,
                "hull_after": trace.after.hull_size,
                "crossings_before": trace.before.crossings,
                "crossings_after": trace.after.crossings,
                "halving_before": trace.before.edge_vector.halving,
                "halving_after": trace.after.edge_vector.halving,
                "steps": len(trace.steps),
                "events": sum(len(step.events) for step in trace.steps),
            }
            return summary, T
        if command == "generate":
            return generate(cluster)
        return epsilon_integral(EPSILON_T0)

    def observed(command, result):
        """The part of the command's output that ``expected`` predicts."""
        _code, out, reduced = result
        if command == "verify":
            return out
        if command == "generate":
            return parse_point_set(out)
        obj = json.loads(out)
        if command == "bounds":
            rows = [(r["k"], r["simple"], r["refined"], r["best"]) for r in obj["rows"]]
            return obj["crossing_lower_bound"], obj["halving_upper_bound"], rows
        if command == "reduce":
            return obj, parse_point_set(reduced)
        if command == "epsilon":
            return obj["epsilon"]
        return obj

    def job(command):
        def run(tr):
            with tr.span("cli.%s_ms" % command):
                code, out = children.run(["-m", "kedges.cli"] + argv[command])
            reduced = None
            if command == "reduce":
                with open(reduced_path, encoding="ascii") as fh:
                    reduced = fh.read()
            return code, out, reduced

        def check(result):
            if result[0] != 0:
                return ["exit code %d" % result[0]]
            got, want = observed(command, result), expected(command)
            return [] if got == want else [_differ("stdout", got, want)]

        def out_bits(result):
            if command == "generate":
                return coord_bits(parse_point_set(result[1]))
            if command == "reduce":
                return coord_bits(parse_point_set(result[2]))
            return 0

        inputs = {"census": disc, "crossings": disc, "verify": disc, "reduce": convex}
        in_bits = coord_bits(inputs[command]) if command in inputs else None
        return Job(command, run, check, out_bits, in_bits)

    def pass_probe(tr):
        with tr.span("cli.python_ms"):
            children.run(["-c", "pass"])
        with tr.span("cli.import_ms"):
            children.run(["-c", "import kedges.cli"])

    return Workload("cli", [job(c) for c in CLI_COMMANDS], pass_probe, children)


BUILDERS = {
    "census": census_workload,
    "reduce": reduce_workload,
    "generate": generate_workload,
    "cli": cli_workload,
}
NAMES = tuple(BUILDERS)


def build(name, seed, sizes, workdir) -> Workload:
    return BUILDERS[name](seed, sizes, workdir)


def layer_metrics(sizes=FULL):
    """(name, unit) of every per-layer metric a traced run reports."""
    out = []
    census_cells = ["%s-%d" % (k, n) for k in CENSUS_KINDS for n in sizes["census"]]
    for layer in ("fileio.parse", "geometry.validate", "census.sweep", "crossings.identity"):
        out += [("%s_ms.%s" % (layer, cell), "ms") for cell in census_cells]
    out += [("bounds.table_ms.n%d" % n, "ms") for n in sizes["census"]]
    reduce_cells = ["disc-%d" % n for n in sizes["reduce_disc"]]
    reduce_cells += ["convex-%d" % n for n in sizes["reduce_convex"]]
    for part in ("reduce", "events", "apply", "summary"):
        out += [("motion.%s_ms.%s" % (part, cell), "ms") for cell in reduce_cells]
    for part, unit in (("steps", "count"), ("events", "count"), ("out_bits", "bits")):
        out += [("motion.%s.%s" % (part, cell), unit) for cell in reduce_cells]
    gen_cells = ["disc-%d" % n for n in sizes["generate_disc"]]
    gen_cells += ["grid-%d" % n for n in sizes["generate_grid"]]
    out += [("generators.generate_ms." + cell, "ms") for cell in gen_cells]
    out += [("cli.%s_ms" % c, "ms") for c in ("python", "import") + CLI_COMMANDS]
    out.append(("trace.overhead_ms", "ms"))
    return out
