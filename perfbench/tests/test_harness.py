"""Tests of the benchmark's Python side: BENCHMARK.json against the metric
catalogue and the contract, the summary line, fingerprints and comparison,
and a smoke run of the built binary (skipped when it is not built).

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def load_module(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = load_module("run")
compare = load_module("compare")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def catalogue():
    """(name, unit, kind) triples from the C++ metric catalogue."""
    with open(os.path.join(BENCH, "src", "report.cpp")) as f:
        text = f.read()
    return re.findall(r'\{"([^"]+)", "([^"]+)", K::(kEndToEnd|kPerLayer)\}', text)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fake_result(seed=1, compiler="GNU 12.2.0", git="abc", value=1.0, trace=0):
    return {
        "workload": "failover_sweep", "seed": seed, "trace": trace,
        "correct": True, "attempted": 10, "failed": 0,
        "config": {"workload": "failover_sweep", "seed": str(seed), "apps": "10",
                   "default_seed_digest": "x"},
        "host": {"cpu_model": "cpu", "nproc": "4", "compiler": compiler,
                 "build_type": "Release", "git_describe": git},
        "metrics": {"op_p50_ms": {"value": value, "unit": "ms"},
                    "work_per_s": {"value": 1.0 / value, "unit": "1/s"}},
    }


class BenchmarkJsonTest(unittest.TestCase):
    def test_matches_catalogue(self):
        spec = benchmark_json()
        cat = catalogue()
        self.assertTrue(cat)
        e2e = [(n, u) for n, u, k in cat if k == "kEndToEnd"]
        layer = [(n, u) for n, u, k in cat if k == "kPerLayer"]
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], e2e)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], layer)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)

    def test_contract_limits(self):
        spec = benchmark_json()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertGreater(m["bound"], 0)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)


class SummaryLineTest(unittest.TestCase):
    def test_exactly_four_keys(self):
        line = json.loads(run.summary_line(fake_result()))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"]["op_p50_ms"], {"value": 1.0, "unit": "ms"})

    def test_validate_rejects_empty_runs(self):
        r = fake_result()
        r["attempted"] = 0
        with self.assertRaises(run.BenchError):
            run.validate(r)


class CompareTest(unittest.TestCase):
    def test_fingerprint_ignores_seed_and_git_describe(self):
        a = compare.fingerprint(fake_result(seed=1, git="v1"))
        b = compare.fingerprint(fake_result(seed=2, git="v2-dirty"))
        self.assertEqual(a, b)

    def test_refuses_mismatched_hosts(self):
        with self.assertRaises(compare.Refused):
            compare.check_same([fake_result(), fake_result(compiler="GNU 13.1.0")], "x")
        with self.assertRaises(compare.Refused):
            compare.check_same([fake_result(), fake_result(trace=1)], "x")

    def test_spread_uses_quartiles(self):
        med, q1, q3, rel = compare.spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(med, 3.0)
        self.assertAlmostEqual(rel, (q3 - q1) / 3.0)

    def write(self, directory, results):
        for i, r in enumerate(results):
            with open(os.path.join(directory, "r%d.json" % i), "w") as f:
                json.dump(r, f)

    def test_compare_flags_regressions(self):
        with tempfile.TemporaryDirectory() as base, tempfile.TemporaryDirectory() as head:
            self.write(base, [fake_result(seed=s, value=1.0) for s in range(5)])
            self.write(head, [fake_result(seed=s, value=1.5) for s in range(5)])
            self.assertEqual(compare.compare(compare.load([base]), compare.load([head])), 1)
            self.assertEqual(compare.compare(compare.load([base]), compare.load([base])), 0)

    def test_compare_refuses_other_compiler(self):
        with tempfile.TemporaryDirectory() as base, tempfile.TemporaryDirectory() as head:
            self.write(base, [fake_result()])
            self.write(head, [fake_result(compiler="Clang 17")])
            self.assertEqual(compare.main(["compare", "--base", base, "--head", head]), 2)


class SmokeTest(unittest.TestCase):
    """A short run of the built binary through its smoke mode."""

    def test_smoke_run(self):
        binary = os.path.join(run.BENCH_BUILD, "perfbench")
        if not os.path.isfile(binary):
            self.skipTest("perfbench not built (python3 perfbench/run.py --smoke builds it)")
        for trace in (0, 1):
            result = run.run_binary(binary, "faultsim_campaign", 1, 1, trace, smoke=True)
            self.assertTrue(result["correct"], result.get("check_failures"))
            self.assertEqual(result["failed"], 0)
            spec = benchmark_json()
            want = spec["per_layer"] if trace else spec["end_to_end"]
            self.assertEqual(set(result["metrics"]), {m["name"] for m in want})
            for m in want:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_refuses_bad_arguments(self):
        binary = os.path.join(run.BENCH_BUILD, "perfbench")
        if not os.path.isfile(binary):
            self.skipTest("perfbench not built")
        proc = subprocess.run([binary, "--workload", "nope", "--seconds", "1"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
