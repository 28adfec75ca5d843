"""Tests of run.py's checks: BENCHMARK.json validation and the check of a
result object against it. Run with `python3 rlsbench/run.py --selftest`
(or `python3 -m unittest discover rlsbench`)."""

import copy
import json
import os
import unittest

import run


def spec():
    return {
        "command": ["python3", "rlsbench/run.py"],
        "paths": ["rlsbench"],
        "run_seconds": 25,
        "workloads": [{"name": "a", "why": "x"}, {"name": "b.2", "why": "y"}],
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
             "bound": 0.1},
        ],
        "per_layer": [{"name": "fault.gate_evals", "unit": "count",
                       "better": "lower"}],
    }


def result(metrics):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


class ValidateBenchmark(unittest.TestCase):
    def test_repository_file_is_valid(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            self.assertEqual(run.validate_benchmark(json.load(fh)), [])

    def test_minimal_spec_is_valid(self):
        self.assertEqual(run.validate_benchmark(spec()), [])

    def test_names(self):
        for bad in ("", "_lead", ".lead", "has space", "a/b", "x" * 65,
                    "é"):
            s = spec()
            s["workloads"][0]["name"] = bad
            self.assertTrue(run.validate_benchmark(s), bad)
        for good in ("a", "9lives", "fault.sweeps", "p-95_x", "x" * 64):
            s = spec()
            s["workloads"][0]["name"] = good
            self.assertEqual(run.validate_benchmark(s), [], good)

    def test_names_are_unique_across_sections(self):
        s = spec()
        s["per_layer"][0]["name"] = "a"
        self.assertTrue(any("twice" in e for e in run.validate_benchmark(s)))

    def test_units_bounds_and_keys(self):
        s = spec()
        s["end_to_end"][1]["unit"] = "m s"
        self.assertTrue(run.validate_benchmark(s))
        s = spec()
        s["end_to_end"][1]["bound"] = 0.3
        self.assertTrue(run.validate_benchmark(s))
        s = spec()
        s["end_to_end"][1]["extra"] = 1
        self.assertTrue(run.validate_benchmark(s))
        s = spec()
        s["held_out_seed"] = 7
        self.assertTrue(run.validate_benchmark(s))

    def test_setup_s_is_required(self):
        s = spec()
        del s["end_to_end"][0]
        self.assertTrue(run.validate_benchmark(s))

    def test_counts_and_why(self):
        s = spec()
        s["workloads"] = s["workloads"][:1]
        self.assertTrue(run.validate_benchmark(s))
        s = spec()
        s["workloads"][0]["why"] = "two\nlines"
        self.assertTrue(run.validate_benchmark(s))
        s = spec()
        s["run_seconds"] = 61
        self.assertTrue(run.validate_benchmark(s))


class CheckResult(unittest.TestCase):
    def test_matching_result(self):
        r = result({"setup_s": (0.1, "s"), "latency_p50_ms": (12.5, "ms")})
        self.assertEqual(run.check_result(r, spec(), trace=False), [])
        r = result({"fault.gate_evals": (100, "count")})
        self.assertEqual(run.check_result(r, spec(), trace=True), [])

    def test_missing_extra_and_unit(self):
        r = result({"setup_s": (0.1, "s")})
        self.assertTrue(run.check_result(r, spec(), trace=False))
        r = result({"setup_s": (0.1, "s"), "latency_p50_ms": (1, "ms"),
                    "bogus": (1, "ms")})
        self.assertTrue(run.check_result(r, spec(), trace=False))
        r = result({"setup_s": (0.1, "ms"), "latency_p50_ms": (1, "ms")})
        self.assertTrue(run.check_result(r, spec(), trace=False))
        # per-layer metrics are not accepted for an untraced run
        r = result({"fault.gate_evals": (100, "count")})
        self.assertTrue(run.check_result(r, spec(), trace=False))

    def test_result_keys_and_counts(self):
        r = result({"setup_s": (0.1, "s"), "latency_p50_ms": (1, "ms")})
        bad = copy.deepcopy(r)
        bad["extra"] = 1
        self.assertTrue(run.check_result(bad, spec(), trace=False))
        bad = copy.deepcopy(r)
        bad["attempted"] = 0
        self.assertTrue(run.check_result(bad, spec(), trace=False))
        bad = copy.deepcopy(r)
        bad["metrics"]["setup_s"]["value"] = "fast"
        self.assertTrue(run.check_result(bad, spec(), trace=False))


if __name__ == "__main__":
    unittest.main()
