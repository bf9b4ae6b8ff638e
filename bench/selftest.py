#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

Run from the repository root (takes a few minutes):

    python3 bench/selftest.py

- a one-pass smoke run of every workload, untraced and traced, whose
  printed metric names and units must match BENCHMARK.json;
- a second traced run of the same seed whose layer counts must repeat;
- an injected wrong expectation (N5 satisfiable) that must show up as a
  failed op and must make the run incorrect;
- a run in a directory without the program, which must fail without a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, trace, seed=1, cwd=ROOT):
    """One run of the benchmark command with a zero time budget: the workload's fewest passes."""
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def test_every_workload_prints_the_declared_metrics(self):
        for key, trace in (("end_to_end", 0), ("per_layer", 1)):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    out = result(bench(w["name"], trace))
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    printed = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(printed, declared)

    def test_layer_counts_repeat_for_a_seed(self):
        counts = {m["name"] for m in SPEC["per_layer"]
                  if m["unit"] in ("count", "B", "MB", "ratio")}
        for workload in ("census", "mine"):
            with self.subTest(workload=workload):
                first, second = (result(bench(workload, 1, seed=7)) for _ in range(2))
                self.assertTrue(second["correct"])
                for name in counts:
                    self.assertEqual(first["metrics"][name], second["metrics"][name], name)

    def test_census_counts(self):
        out = result(bench("census", 1))
        self.assertEqual(out["metrics"]["catalog.posets"]["value"], 87)
        self.assertEqual(out["metrics"]["involution.found"]["value"], 82)

    def test_no_program_no_result(self):
        work = ROOT / ".bench_run"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("census", 0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class InjectedWrongVerdict(unittest.TestCase):
    def test_wrong_expectation_is_counted_as_failed(self):
        sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
        import run
        import workloads

        saved = dict(workloads.MINE_EXPECTED)
        workloads.MINE_EXPECTED["n5"] = "sat"
        try:
            _, detail, rec = run.run("mine", 1, 0, 0, 0.0)
        finally:
            workloads.MINE_EXPECTED.clear()
            workloads.MINE_EXPECTED.update(saved)
        self.assertEqual(rec.failed, detail["passes"])  # the n5 search of every pass
        self.assertGreater(detail["failed_ratio"]["value"], 0)
        self.assertTrue(any(r.startswith("n5: expected sat") for r in rec.reasons), rec.reasons)


if __name__ == "__main__":
    unittest.main()
