"""The kedges benchmark: four closed-loop workloads over a seeded corpus.

Run from the repository root:

    python3 benchmarks/run.py --workload census --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ``census``,
``reduce``, ``generate`` and ``cli``.  One process, no threads, at most
one subprocess at a time.  A run repeats passes over the workload's
fixed job list until the timed passes add up to ``--seconds``.  The
outputs of the first pass go through an untimed oracle gate; every
later pass must repeat them exactly.  Any job that raises or fails a
check counts as failed.

``--trace 0`` reports the end-to-end metrics: median set-up time over
fresh processes, median pass time, median pass time in units of a
reference kernel timed between jobs, peak RSS, the largest output
coordinate bit-length and the error rate.  ``--trace 1`` runs one
traced pass of every workload, with the probes that split layers, then
alternates untraced and traced passes of the named workload; it
reports the per-layer metrics (span medians) and the tracing overhead.
Each run writes a results file with the Python version, CPU count,
seed and input bit-lengths under ``.bench_work/results/``.  The last
line of stdout is a JSON object with the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from bench_trace import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_SAMPLES = 5
MIN_PASSES = 2

# Every end-to-end metric a timed run measures.  BENCHMARK.json gates a
# subset: pass_s swings with host speed by more than any usable bound on
# a shared machine, so pass_rel stands in for it there.
END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_rel": "ratio",
    "peak_rss_mb": "MB",
    "out_bits_max": "bits",
}

# Reference kernel: fixed pure-Python integer cross products, no kedges
# code.  Dividing a pass time by it cancels drift in host speed.
_REF_POINTS = [((i * 7919) % 2003 - 1001, (i * 104729) % 2011 - 1005) for i in range(2000)]
_REF_ROUNDS = 55


def reference_seconds() -> float:
    pts = _REF_POINTS
    start = perf_counter()
    ccw = 0
    for _ in range(_REF_ROUNDS):
        for (ox, oy), (ax, ay), (bx, by) in zip(pts, pts[1:], pts[2:]):
            if (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) > 0:
                ccw += 1
    return perf_counter() - start


class JobError:
    """The result of a job that raised."""

    def __init__(self, exc):
        self.message = "%s: %s" % (type(exc).__name__, exc)

    def __eq__(self, other):
        return isinstance(other, JobError) and other.message == self.message


class Session:
    """Passes over one workload, with the oracle gate and the pass log."""

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        self.attempted = 0
        self.failures = []
        self.out_bits = 0
        self.check_s = 0.0

    def _fail(self, pass_no, cell, message):
        self.failures.append({"pass": pass_no, "cell": cell, "problem": message})
        print("FAIL %s pass %d %s: %s" % (self.workload.name, pass_no, cell, message), file=sys.stderr)

    def run_pass(self, tracer, pass_no, probe=False):
        """Run every job once; returns (pass seconds, pass in reference
        units).  The reference kernel runs before every job and after
        the last, and each job's time is divided by the mean of the two
        kernel times around it, so host slowdowns within a pass cancel."""
        jobs = self.workload.jobs
        results = []
        times = []
        gc.collect()
        refs = [reference_seconds()]
        for job in jobs:
            tracer.job = (self.workload.name, pass_no, job.cell)
            start = perf_counter()
            try:
                with tracer.span("job"):
                    result = job.run(tracer)
            except Exception as exc:  # a job that raises is a failed job
                result = JobError(exc)
            times.append(perf_counter() - start)
            refs.append(reference_seconds())
            results.append(result)
        self.attempted += len(jobs)
        start = perf_counter()
        self._check(pass_no, results)
        self.check_s += perf_counter() - start
        if probe:
            self._probe(tracer, pass_no, results)
        rel = sum(t / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:]))
        return sum(times), rel

    def _check(self, pass_no, results):
        jobs = self.workload.jobs
        if self.first is None:
            self.first = results
            for job, result in zip(jobs, results):
                if isinstance(result, JobError):
                    self._fail(pass_no, job.cell, result.message)
                    continue
                try:
                    problems = job.check(result)
                    self.out_bits = max(self.out_bits, job.out_bits(result))
                except Exception as exc:  # a result the oracle cannot read is wrong
                    problems = [JobError(exc).message]
                for problem in problems:
                    self._fail(pass_no, job.cell, problem)
            return
        for job, result, first in zip(jobs, results, self.first):
            if isinstance(result, JobError):
                self._fail(pass_no, job.cell, result.message)
            elif result != first:
                self._fail(pass_no, job.cell, "output differs from the first pass")

    def _probe(self, tracer, pass_no, results):
        calls = [
            (job.cell, job.probe, (result, tracer))
            for job, result in zip(self.workload.jobs, results)
            if job.probe is not None and not isinstance(result, JobError)
        ]
        if self.workload.pass_probe is not None:
            calls.append(("probe", self.workload.pass_probe, (tracer,)))
        for cell, probe, args in calls:
            tracer.job = (self.workload.name, pass_no, cell)
            try:
                probe(*args)
            except Exception as exc:  # a probe that raises is a failed job
                self._fail(pass_no, cell, JobError(exc).message)

    @property
    def failed(self):
        return len({(f["pass"], f["cell"]) for f in self.failures})


def summary(values, unit):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "value": statistics.median(values),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "samples": len(values),
        "values": list(values),
    }


def setup_seconds(workload, seed):
    """Wall time of a fresh process that imports kedges, builds the
    workload's corpus and exits: the set-up before the first timed job."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    start = perf_counter()
    subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def workdir(workload, seed):
    return os.path.join(WORK, "%s-%d" % (workload, seed))


def timed_run(bw, args):
    setups = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    workload = bw.build(args.workload, args.seed, bw.FULL, workdir(args.workload, args.seed))
    session = Session(workload)
    tracer = NullTracer()
    pass_s, pass_rel = [], []
    while sum(pass_s) < args.seconds or len(pass_s) < MIN_PASSES:
        seconds, rel = session.run_pass(tracer, len(pass_s))
        pass_s.append(seconds)
        pass_rel.append(rel)
    if workload.children is not None:
        rss_kb = workload.children.max_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = {
        "setup_s": setups,
        "pass_s": pass_s,
        "pass_rel": pass_rel,
        "peak_rss_mb": [rss_kb / 1024.0],
        "out_bits_max": [float(session.out_bits)],
    }
    metrics = {name: summary(samples[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return [session], metrics, {}, None


def traced_run(bw, args):
    tracer = Tracer()
    sessions = {}
    for name in bw.NAMES:
        workload = bw.build(name, args.seed, bw.FULL, workdir(name, args.seed))
        sessions[name] = Session(workload)
    traced, untraced = [], []
    for name, session in sessions.items():
        seconds, _rel = session.run_pass(tracer, 0, probe=True)
        if name == args.workload:
            traced.append(seconds)
    own = sessions[args.workload]
    null = NullTracer()
    while sum(traced) + sum(untraced) < args.seconds or not untraced:
        untraced.append(own.run_pass(null, len(traced) + len(untraced))[0])
        traced.append(own.run_pass(tracer, len(traced) + len(untraced))[0])
    overhead_ms = (statistics.median(traced) - statistics.median(untraced)) * 1000.0
    values = tracer.layer_values()
    values["trace.overhead_ms"] = [overhead_ms]
    metrics = {name: summary(values[name], unit) for name, unit in bw.layer_metrics() if name in values}
    extra = {
        "traced_pass_s": traced,
        "untraced_pass_s": untraced,
        "self_ms": tracer.self_times_ms(),
    }
    return list(sessions.values()), metrics, extra, tracer


def parse_args(argv):
    ap = argparse.ArgumentParser(description="kedges benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "kedges", "__init__.py")):
        print("error: no kedges sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench_workloads as bw

    if args.setup_only:
        bw.build(args.workload, args.seed, bw.FULL, workdir(args.workload, args.seed))
        return 0

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = os.path.join(WORK, "results", "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    run = traced_run if args.trace else timed_run
    sessions, metrics, extra, tracer = run(bw, args)
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in reported if name not in metrics]
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    correct = failed == 0 and not missing

    report = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "cells": [
            {"workload": s.workload.name, "cell": job.cell, "max_coord_bits": job.in_bits}
            for s in sessions
            for job in s.workload.jobs
        ],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": [f for s in sessions for f in s.failures],
        "check_s": {s.workload.name: s.check_s for s in sessions},
        "metrics": metrics,
        "missing_metrics": missing,
    }
    report.update(extra)
    if tracer is not None:
        tracer.write(stem + "-spans.json")
        report["spans_file"] = os.path.relpath(stem, ROOT) + "-spans.json"
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")

    print("workload %s seed %d trace %d: %s" % (args.workload, args.seed, args.trace, whys[args.workload]))
    print("python %s, nproc %d" % (report["python"], report["nproc"]))
    for name, m in metrics.items():
        print("%-34s %14.6g %-6s q1 %.6g q3 %.6g n=%d" % (name, m["value"], m["unit"], m["q1"], m["q3"], m["samples"]))
    print("%-34s %14.6g %-6s (%d failed of %d jobs)" % ("error_rate", report["error_rate"], "ratio", failed, attempted))
    if args.trace:
        print("tracing overhead: %.3f ms per pass (traced %s s, untraced %s s)" % (
            metrics["trace.overhead_ms"]["value"],
            "%.4f" % statistics.median(extra["traced_pass_s"]),
            "%.4f" % statistics.median(extra["untraced_pass_s"]),
        ))
    print("results: %s.json" % os.path.relpath(stem, ROOT))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in reported
            if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
