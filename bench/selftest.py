"""Self-test of the benchmark: generators, correctness gate, tracing.

    python3 bench/selftest.py

Runs every workload on shrunken inputs, checks that the gate accepts the
answers and reports a corrupted reference answer (or a raised exception)
as a failure, derives the per-layer metrics from a traced pass, and checks
BENCHMARK.json against the metric and workload names the code reports.
It is not collected by pytest; it runs in well under a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from math import comb
from pathlib import Path

import run

fatpoints = run.import_package()
run.OUT_DIR.mkdir(exist_ok=True)

import layers  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7


class WorkloadGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
        cls.config = fatpoints.PrimeFieldConfig(seed=SEED)
        cls.inputs, cls.results = {}, {}
        for name, w in workloads.WORKLOADS.items():
            cls.inputs[name] = w.prepare(SEED, cls.workdir, small=True)
            cls.results[name] = w.run_pass(cls.inputs[name], cls.config, run._untraced_phase)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def outcome(self, name, result=None, **kwargs):
        w = workloads.WORKLOADS[name]
        result = self.results[name] if result is None else result
        return w.check(self.inputs[name], result, **kwargs)

    def test_generators_are_deterministic(self):
        for name, w in workloads.WORKLOADS.items():
            again = w.prepare(SEED, self.workdir, small=True)
            self.assertEqual(repr(again), repr(self.inputs[name]), name)
        self.assertNotEqual(
            workloads.cli_requests(SEED, 20), workloads.cli_requests(SEED + 1, 20)
        )

    def test_gate_accepts_correct_answers(self):
        for name in workloads.WORKLOADS:
            out = self.outcome(name)
            self.assertGreater(out.attempted, 0, name)
            self.assertEqual(out.failures, [], name)

    def test_gate_rejects_corrupted_reference(self):
        statuses = dict(ref.MAIN_THEOREM_STATUSES)
        statuses[((1, 1), (3, 3))] = ("Zero", "Zero")
        self.assertTrue(self.outcome("main_theorem", reference=statuses).failures)

        counts = {**ref.BASECASE_COUNTS, "44-1x1": 2}
        registry = {"basecases": counts, "ledger": ref.LEDGER_SIZE}
        self.assertTrue(self.outcome("registry", reference=registry).failures)

        sporadic = {**ref.AH_SPORADIC, (2, 4): 6}
        self.assertTrue(self.outcome("veronese", reference=sporadic).failures)

        # the miss reply is the reference for the cached reply
        result = dict(self.results["cli_sweep"])
        code, text = result["misses"][0]
        result["misses"] = [(code, text.replace('"status"', '"status "', 1))]
        result["misses"] += self.results["cli_sweep"]["misses"][1:]
        self.assertTrue(self.outcome("cli_sweep", result=result).failures)

    def test_raised_answers_count_as_failures(self):
        boom = RuntimeError("boom")
        out = self.outcome("main_theorem", result=boom)
        self.assertEqual(len(out.failures), out.attempted)
        self.assertEqual(out.attempted, 6)  # (1,1), (1,2) in three bidegrees
        out = self.outcome("veronese", result=boom)
        self.assertEqual(len(out.failures), len(ref.ah_pairs(2, 4)))
        registry = {k: (boom if k in ("basecases", "ledger") else [boom] * len(v))
                    for k, v in self.results["registry"].items()}
        out = self.outcome("registry", result=registry)
        self.assertEqual(len(out.failures), out.attempted)

    def test_oracle_check_passes(self):
        out = workloads.oracle_check(SEED)
        self.assertEqual(out.attempted, 3)
        self.assertEqual(out.failures, [])


class Reference(unittest.TestCase):
    def test_main_theorem_statuses_follow_virtual_dimension(self):
        # certified statuses are a function of vdim: Regular iff vdim > 0
        for ((m, n), (c, d)), (low, high) in ref.MAIN_THEOREM_STATUSES.items():
            L = comb(m + c, m) * comb(n + d, n)
            r_low = L // (m + n + 1)
            vdim = L - r_low * (m + n + 1)
            self.assertEqual(low, "Regular" if vdim > 0 else "Zero")
            self.assertEqual(high, "Zero")
        self.assertEqual(len(ref.MAIN_THEOREM_STATUSES), 27)

    def test_quadric_defects(self):
        # sigma_2 of the Veronese surface has dimension 4, expected 5
        self.assertEqual(ref.ah_defect(2, 2, 2), 1)
        # quadrics in P^5: sigma_3 has dimension 14, expected 17
        self.assertEqual(ref.ah_defect(5, 2, 3), 3)
        # sigma_5 is the symmetric determinant hypersurface, expected to fill
        self.assertEqual(ref.ah_defect(5, 2, 5), 1)


class Tracing(unittest.TestCase):
    def traced_pass(self, targets=spans.TARGETS):
        tracer = spans.Tracer()
        w = workloads.WORKLOADS["registry"]
        inputs = w.prepare(SEED, None, small=True)
        wrappers = spans.Wrappers(tracer, targets)
        try:
            with tracer.phase("registry.pass") as span:
                w.run_pass(inputs, fatpoints.PrimeFieldConfig(seed=SEED), tracer.phase)
        finally:
            wrappers.remove()
        return tracer, wrappers, span.duration

    def test_every_layer_metric_is_derived(self):
        original = fatpoints.engine.rank_fp
        tracer, wrappers, wall = self.traced_pass()
        self.assertIs(fatpoints.engine.rank_fp, original)
        self.assertIs(fatpoints.secant.dimension, fatpoints.engine.dimension)
        self.assertEqual(wrappers.absent, [])
        metrics = layers.derive(tracer.spans, [wall], set(), 0, 0.0)
        self.assertEqual(set(metrics), set(layers.LAYER_METRICS))
        self.assertGreater(metrics["engine.rank_fp.calls"], 0)
        self.assertEqual(metrics["engine.rank_fp.calls"], metrics["engine.build_matrix.calls"])
        self.assertGreater(metrics["engine.dimension.busy_s"], metrics["engine.dimension.self_s"])
        for s in tracer.spans:
            self.assertLessEqual(s.start, s.end)

    def test_missing_target_is_absent_not_fatal(self):
        targets = spans.TARGETS + (spans.Target("engine.no_such_function"),)
        tracer, wrappers, wall = self.traced_pass(targets)
        self.assertEqual(wrappers.absent, ["engine.no_such_function"])
        metrics = layers.derive(tracer.spans, [wall], {"engine.rank_fp"}, 0, 0.0)
        self.assertNotIn("engine.rank_fp.busy_s", metrics)
        self.assertIn("engine.build_matrix.busy_s", metrics)


class BenchmarkSpec(unittest.TestCase):
    def test_benchmark_json_matches_code(self):
        spec = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
            {name: (unit, better) for name, (unit, better, _) in layers.LAYER_METRICS.items()},
        )

    def test_refuses_to_run_without_package_source(self):
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR))
        try:
            shutil.copy(run.CHECKOUT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH_DIR, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "registry",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
