#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_hygiene.py

- A short `paper` run passes its checks, prints a result line with every
  end-to-end metric, removes its scratch directory, and leaves
  `BENCH_pdpa.json` and every source file byte-identical.
- In a directory holding only `BENCHMARK.json` and `perfbench/`, the
  benchmark exits non-zero without printing a result line.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


class Hygiene(unittest.TestCase):
    def test_run_leaves_the_tree_untouched(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        run.build(run.target_dir())
        bench_file = sha256(ROOT / "BENCH_pdpa.json")
        before = run.tree_digest()
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "3",
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
        self.assertEqual(done.returncode, 0, done.stdout)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})
        self.assertEqual(sha256(ROOT / "BENCH_pdpa.json"), bench_file)
        self.assertEqual(run.tree_digest(), before)
        work = ROOT / ".perfbench_work"
        self.assertFalse(work.is_dir() and any(work.iterdir()), "scratch directory left behind")

    def test_fails_without_the_workspace(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)

    def test_quantiles_are_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.quantile(values, 0.5), 50)
        self.assertEqual(run.quantile(values, 0.99), 99)
        self.assertEqual(run.quantile([7.0], 0.99), 7.0)
        self.assertEqual(run.median([3, 1, 2, 4]), 2.5)


if __name__ == "__main__":
    unittest.main()
