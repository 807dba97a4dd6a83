#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Run from the root of a checkout; the benchmark is built on first use (see
perfbench/run.py). The runs here are short (--seconds 1): they check behaviour,
not performance.
"""
import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace=0, seconds=1):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().split("\n")
    return done.returncode, lines, json.loads(lines[-1])


def digests(lines):
    """The determinism witnesses a run prints: model digest, fleet checksums,
    flow-record digest and the serve rate digests."""
    found = []
    for line in lines:
        if re.search(r"model digest|checksums|flow-record digest|rate digest", line):
            found += re.findall(r"\b[0-9a-f]{16}\b", line)
    return found


def tree_snapshot():
    """Every file of the checkout outside the benchmark's build directory."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        rel = Path(dirpath).relative_to(ROOT)
        dirnames[:] = [d for d in dirnames
                       if not (rel == Path(".") and d in (".bench_build", ".git"))]
        for name in filenames:
            path = Path(dirpath) / name
            files[str(path.relative_to(ROOT))] = path.stat().st_mtime_ns
    return files


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.before = tree_snapshot()
        cls.runs = {}
        for workload in ("train", "evaluate", "serve"):
            for seed in (1, 1, 2):
                cls.runs.setdefault((workload, seed), []).append(run(workload, seed))
        cls.traced = run("train", 1, trace=1, seconds=3)

    def test_runs_pass_their_output_checks(self):
        for key, results in self.runs.items():
            for code, lines, result in results:
                self.assertEqual(code, 0, "%s: %s" % (key, "\n".join(lines[-20:])))
                self.assertTrue(result["correct"], key)
                self.assertEqual(result["failed"], 0, key)
                self.assertGreaterEqual(result["attempted"], 1, key)
        self.assertEqual(self.traced[0], 0, "\n".join(self.traced[1][-20:]))

    def test_same_seed_reproduces_digests(self):
        for workload in ("train", "evaluate", "serve"):
            first, second = self.runs[(workload, 1)][:2]
            self.assertTrue(digests(first[1]), workload)
            self.assertEqual(digests(first[1]), digests(second[1]), workload)

    def test_different_seed_changes_inputs(self):
        for workload in ("train", "evaluate", "serve"):
            one, two = self.runs[(workload, 1)][0], self.runs[(workload, 2)][0]
            a, b = digests(one[1]), digests(two[1])
            self.assertEqual(len(a), len(b), workload)
            self.assertTrue(all(x != y for x, y in zip(a, b)), workload)

    def test_every_metric_prints_with_its_unit(self):
        end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for key, results in self.runs.items():
            metrics = results[0][2]["metrics"]
            self.assertEqual(set(metrics), set(end_to_end), key)
            for name, metric in metrics.items():
                self.assertEqual(metric["unit"], end_to_end[name], (key, name))
                self.assertNotEqual(metric["value"], 0, (key, name))
        metrics = self.traced[2]["metrics"]
        self.assertEqual(set(metrics), set(per_layer))
        for name, metric in metrics.items():
            self.assertEqual(metric["unit"], per_layer[name], name)
        # The workload-specific end-to-end figures print under their own names.
        named = {"train": ["train_wall_s"],
                 "evaluate": ["fleet_episodes_per_s", "sim_seconds_per_s"],
                 "serve": ["serve_reported_decisions_per_s", "serve_selftimed_decisions_per_s",
                           "serve_reported_tick_p50_us", "serve_reported_tick_p99_us",
                           "serve_selftimed_tick_p50_us", "serve_selftimed_tick_p99_us"]}
        for workload, names in named.items():
            text = "\n".join(self.runs[(workload, 1)][0][1])
            for name in names:
                self.assertRegex(text, r"\b%s\s+\S+\s+(s|us|1/s)\b" % name)

    def test_runs_write_nothing_into_the_repo(self):
        self.assertEqual(tree_snapshot(), self.before)
        self.assertFalse((ROOT / "mocc_model_zoo").exists())

    def test_never_calls_gated_bench_binaries_or_the_zoo(self):
        sources = list((BENCH / "src").glob("*")) + [BENCH / "run.py", BENCH / "CMakeLists.txt"]
        for path in sources:
            text = path.read_text()
            self.assertNotIn("BenchZoo", text, path)
            self.assertNotIn("model_zoo", text, path)
            self.assertNotRegex(text, r"bench/bench_|\"bench_\w+\"|bench_support", path)
            self.assertNotRegex(text, r"\b(system|popen|execv\w*)\s*\(", path)


if __name__ == "__main__":
    unittest.main()
