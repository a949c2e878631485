"""Command-line front end.

Subcommands:

* ``census FILE``      edge vector, cumulative counts, halving count
* ``crossings FILE``   crossing number (brute force, identity, or both)
* ``bounds --n N``     lower-bound table plus derived bounds for N points
* ``reduce FILE``      hull reduction to a triangle, optional JSON trace
* ``generate``         deterministic point-set generators
* ``epsilon --t0 T``   asymptotic gain integral
* ``verify FILE``      full cross-check suite

Exit codes: 0 success, 1 verification failure, 2 malformed input or an
output file that cannot be written.  All stdout reports are
byte-deterministic for fixed inputs and flags; the only
non-deterministic output (timings of ``crossings --method both``) goes
to stderr.  CSV column order is fixed as documented per
subcommand, and JSON objects are emitted with sorted keys.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction

from .bounds import (
    bound_table,
    crossing_lower_bound_exact,
    epsilon_integral,
    halving_upper_bound,
)
from .census import edge_vector_sweep
from .checks import verify_point_set
from .crossings import CensusError, crossings_bruteforce, crossings_via_identity
from .fileio import format_point_set, load_point_set
from .generators import KINDS, GenerationError, GeneratorSpec, generate
from .motion import ReductionTrace, reduce_to_triangle

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2


class _OutputError(Exception):
    """An output file named on the command line cannot be written."""


def _write_output(path, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise _OutputError("cannot write %s: %s" % (path, exc)) from exc


def _emit_json(obj) -> None:
    json.dump(obj, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _emit_csv(header, rows) -> None:
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)


def _vector(values) -> str:
    return " ".join("%d" % v for v in values)


def _cmd_census(args) -> int:
    S = load_point_set(args.file)
    e = edge_vector_sweep(S)
    E = e.cumulative()
    if args.json:
        _emit_json({"n": e.n, "e": list(e.e), "E": list(E.E), "halving": e.halving})
    elif args.csv:
        _emit_csv(
            ("n", "k", "e_k", "E_k"),
            [(e.n, k, e.e[k], E.E[k]) for k in range(e.m + 1)],
        )
    else:
        print("n: %d" % e.n)
        print("e-vector: %s" % _vector(e.e))
        print("E-vector: %s" % _vector(E.E))
        print("halving edges: %d" % e.halving)
    return EXIT_OK


def _cmd_crossings(args) -> int:
    S = load_point_set(args.file)
    if args.method == "both":
        start = time.perf_counter()
        rb = crossings_bruteforce(S)
        brute_secs = time.perf_counter() - start
        start = time.perf_counter()
        ri = crossings_via_identity(S)
        identity_secs = time.perf_counter() - start
        print("bruteforce: %.6f s" % brute_secs, file=sys.stderr)
        print("identity:   %.6f s" % identity_secs, file=sys.stderr)
        if rb.crossings != ri.crossings:
            print(
                "error: methods disagree: bruteforce %d, identity %d"
                % (rb.crossings, ri.crossings),
                file=sys.stderr,
            )
            return EXIT_VERIFY
        reports = [rb, ri]
    else:
        count = crossings_bruteforce if args.method == "brute" else crossings_via_identity
        reports = [count(S)]
    if args.json:
        obj = {"n": len(S), "crossings": reports[0].crossings}
        obj["methods"] = sorted(r.method for r in reports)
        _emit_json(obj)
    elif args.csv:
        _emit_csv(
            ("n", "method", "crossings"),
            [(r.n, r.method, r.crossings) for r in reports],
        )
    else:
        print("n: %d" % len(S))
        for r in reports:
            print("crossings (%s): %d" % (r.method, r.crossings))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    n = args.n
    table = bound_table(n)
    lower = crossing_lower_bound_exact(n)
    halving = halving_upper_bound(n) if n >= 5 else None
    if args.json:
        obj = {
            "n": n,
            "crossing_lower_bound": lower,
            "halving_upper_bound": halving,
            "rows": [
                {
                    "k": r.k,
                    "simple": r.simple,
                    "refined": r.refined,
                    "sqrt": r.sqrt_value,
                    "best": r.best,
                }
                for r in table.rows
            ],
        }
        _emit_json(obj)
    elif args.csv:
        _emit_csv(
            ("n", "k", "simple", "refined", "sqrt", "best"),
            [
                (n, r.k, r.simple, r.refined, "%.6f" % r.sqrt_value, r.best)
                for r in table.rows
            ],
        )
        _emit_csv(
            ("n", "crossing_lower_bound", "halving_upper_bound"),
            [(n, lower, "" if halving is None else halving)],
        )
    else:
        print("n: %d" % n)
        print("%4s %10s %10s %14s %10s" % ("k", "simple", "refined", "sqrt", "best"))
        for r in table.rows:
            print(
                "%4d %10d %10d %14.6f %10d"
                % (r.k, r.simple, r.refined, r.sqrt_value, r.best)
            )
        print("crossing lower bound: %d" % lower)
        if halving is not None:
            print("halving upper bound: %d" % halving)
    return EXIT_OK


def _frac_str(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def _trace_obj(trace: ReductionTrace) -> dict:
    def summary(s):
        return {
            "crossings": s.crossings,
            "e": list(s.edge_vector.e),
            "hull_size": s.hull_size,
        }

    return {
        "before": summary(trace.before),
        "after": summary(trace.after),
        "steps": [
            {
                "moved": st.moved,
                "direction": [st.ray.direction[0], st.ray.direction[1]],
                "stop": _frac_str(st.stop),
                "events": [
                    {
                        "t": _frac_str(ev.t),
                        "pair": [ev.pair[0], ev.pair[1]],
                        "k": ev.k,
                        "delta": ev.crossing_delta,
                    }
                    for ev in st.events
                ],
            }
            for st in trace.steps
        ],
    }


def _cmd_reduce(args) -> int:
    S = load_point_set(args.file)
    T, trace = reduce_to_triangle(S)
    if args.trace:
        _write_output(args.trace, json.dumps(_trace_obj(trace), sort_keys=True, indent=2) + "\n")
    if args.out:
        _write_output(args.out, format_point_set(T, comment="reduced from %s" % args.file))
    row = {
        "n": len(S),
        "hull_before": trace.before.hull_size,
        "hull_after": trace.after.hull_size,
        "crossings_before": trace.before.crossings,
        "crossings_after": trace.after.crossings,
        "halving_before": trace.before.edge_vector.halving,
        "halving_after": trace.after.edge_vector.halving,
        "steps": len(trace.steps),
        "events": sum(len(st.events) for st in trace.steps),
    }
    if args.json:
        _emit_json(row)
    elif args.csv:
        _emit_csv(tuple(row), [tuple(row.values())])
    else:
        print("n: %(n)d" % row)
        print("hull: %(hull_before)d -> %(hull_after)d" % row)
        print("crossings: %(crossings_before)d -> %(crossings_after)d" % row)
        print("halving edges: %(halving_before)d -> %(halving_after)d" % row)
        print("steps: %(steps)d, events: %(events)d" % row)
    return EXIT_OK


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(args.kind, args.n, seed=args.seed, scale=args.scale)
    S = generate(spec)
    comment = "generated: kind=%s n=%d seed=%d scale=%d" % (
        spec.kind,
        spec.n,
        spec.seed,
        spec.scale,
    )
    text = format_point_set(S, comment=comment)
    if args.out:
        _write_output(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_epsilon(args) -> int:
    value = epsilon_integral(args.t0)
    if args.json:
        _emit_json({"t0": args.t0, "epsilon": value})
    elif args.csv:
        _emit_csv(("t0", "epsilon"), [(repr(args.t0), "%.9e" % value)])
    else:
        print("epsilon(%s) = %.9e" % (repr(args.t0), value))
    return EXIT_OK


def _cmd_verify(args) -> int:
    S = load_point_set(args.file)
    problems = verify_point_set(S)
    for p in problems:
        print("violation: %s" % p)
    if problems:
        print("verify: FAIL (%d violations, n=%d)" % (len(problems), len(S)))
        return EXIT_VERIFY
    print("verify: OK (n=%d)" % len(S))
    return EXIT_OK


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    g.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kedges",
        description="Exact edge censuses, crossing numbers, bounds and "
        "hull reduction for planar point sets in general position.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="edge vector and halving count of a point set")
    p.add_argument("file", help="point-set file")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("crossings", help="rectilinear crossing number of a point set")
    p.add_argument("file", help="point-set file")
    p.add_argument(
        "--method",
        choices=("brute", "identity", "both"),
        default="identity",
        help="counting method; 'both' cross-checks and times them",
    )
    _add_format_flags(p)
    p.set_defaults(func=_cmd_crossings)

    p = sub.add_parser("bounds", help="lower-bound table for n points")
    p.add_argument("--n", type=int, required=True, help="number of points (>= 4)")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("reduce", help="reduce the convex hull to a triangle")
    p.add_argument("file", help="point-set file")
    p.add_argument("--trace", metavar="FILE", help="write the event trace as JSON")
    p.add_argument("--out", metavar="FILE", help="write the reduced point set")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("generate", help="emit a deterministic point set")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int, required=True, help="number of points (>= 3)")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument(
        "--scale", type=int, default=0, help="coordinate radius (0 = per-kind default)"
    )
    p.add_argument("--out", metavar="FILE", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("epsilon", help="asymptotic gain integral")
    p.add_argument(
        "--t0", type=float, required=True, help="lower integration limit in (0, 1/2)"
    )
    _add_format_flags(p)
    p.set_defaults(func=_cmd_epsilon)

    p = sub.add_parser("verify", help="cross-check every computation on a point set")
    p.add_argument("file", help="point-set file")
    p.set_defaults(func=_cmd_verify)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GenerationError, CensusError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, _OutputError) as exc:
        # bad input: a PointSetFormatError is a ValueError, as are bad arguments
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
