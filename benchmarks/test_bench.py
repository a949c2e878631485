"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m unittest discover -s benchmarks
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bench_workloads as bw  # noqa: E402
from bench_trace import NullTracer, Tracer  # noqa: E402
from run import END_TO_END_UNITS, Session  # noqa: E402


class TinyWorkloads(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.workdir = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def _session(self, name, seed=3):
        return Session(bw.build(name, seed, bw.TINY, self.workdir))

    def test_every_workload_passes_its_gate_and_repeats(self):
        for name in bw.NAMES:
            with self.subTest(workload=name):
                session = self._session(name)
                for pass_no in range(2):
                    seconds, rel = session.run_pass(NullTracer(), pass_no)
                    self.assertGreater(seconds, 0)
                    self.assertGreater(rel, 0)
                self.assertEqual(session.failures, [])
                self.assertEqual(session.attempted, 2 * len(session.workload.jobs))
                self.assertGreater(session.out_bits, 0)

    def test_same_seed_same_inputs(self):
        for name in ("census", "generate"):
            a = self._session(name, seed=5).workload.jobs
            b = self._session(name, seed=5).workload.jobs
            c = self._session(name, seed=6).workload.jobs
            self.assertEqual([j.run(NullTracer()) for j in a], [j.run(NullTracer()) for j in b])
            self.assertNotEqual([j.run(NullTracer()) for j in a], [j.run(NullTracer()) for j in c])

    def test_traced_pass_emits_every_layer_metric(self):
        tracer = Tracer()
        for name in bw.NAMES:
            self._session(name).run_pass(tracer, 0, probe=True)
        values = tracer.layer_values()
        names = [n for n, _unit in bw.layer_metrics(bw.TINY) if n != "trace.overhead_ms"]
        self.assertEqual([n for n in names if n not in values], [])
        self.assertTrue(all(v > 0 for n in names if n.endswith("_ms") or "_ms." in n for v in values[n]))
        self_ms = tracer.self_times_ms()
        self.assertGreater(min(self_ms.values()), -1e-6)
        self.assertLess(self_ms["job"], statistics.median(values["job"]))

    def test_gate_catches_a_wrong_census(self):
        session = self._session("census")
        job = session.workload.jobs[0]
        honest = job.run

        def off_by_one(tr):
            S, e, crossings, lower, table = honest(tr)
            return S, e, crossings + 1, lower, table

        job.run = off_by_one
        session.run_pass(NullTracer(), 0)
        self.assertEqual(session.failed, 1)
        self.assertTrue(any("crossings" in f["problem"] for f in session.failures))

    def test_gate_catches_a_later_pass_that_changes(self):
        session = self._session("generate")
        session.run_pass(NullTracer(), 0)
        job = session.workload.jobs[0]
        job.run = lambda tr: bw.generate(bw.GeneratorSpec("convex", 6))
        session.run_pass(NullTracer(), 1)
        self.assertEqual(session.failed, 1)
        self.assertEqual(session.failures[0]["problem"], "output differs from the first pass")

    def test_gate_counts_a_job_that_raises(self):
        session = self._session("reduce")

        def boom(tr):
            raise RuntimeError("injected")

        session.workload.jobs[-1].run = boom
        session.run_pass(NullTracer(), 0)
        session.run_pass(NullTracer(), 1)
        self.assertEqual(session.failed, 2)

    def test_general_position_oracle(self):
        self.assertTrue(bw.in_general_position([(0, 0), (1, 0), (0, 1)]))
        self.assertFalse(bw.in_general_position([(0, 0), (1, 1), (3, 3), (5, 0)]))
        self.assertFalse(bw.in_general_position([(0, 0), (1, 2), (0, 0)]))


class Spec(unittest.TestCase):
    def test_benchmark_json_names_what_the_code_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(bw.NAMES))
        per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        self.assertEqual(per_layer, bw.layer_metrics(bw.FULL))
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], END_TO_END_UNITS[m["name"]])
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])
        self.assertEqual(max(m["bound"] for m in spec["end_to_end"]),
                         [m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"][0])

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "benchmarks"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "benchmarks/run.py", "--workload", "cli", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
