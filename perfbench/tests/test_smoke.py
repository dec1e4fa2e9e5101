"""The benchmark's own tests, at smoke sizes (see ../README.md).

    python3 -m unittest discover -s perfbench/tests -v

Each test runs perfbench/run.py with --smoke --seconds 2, which builds
the perfbench binary on first use (about a minute on four cores).
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Counts that must repeat exactly between runs of the same seed.
EXACT = {
    "fleet_day": ["node.curve_model_evals", "sched.batch_intervals", "fleet.intervals",
                  "fleet.events", "fleet.soa.slow_advances", "fleet.soa.store_flips"],
    "serve_cold": ["node.curve_model_evals", "serve.requests", "serve.bytes_in",
                   "serve.bytes_out", "fleet.intervals", "fleet.events",
                   "sched.batch_intervals"],
}


def run(workload, seed, trace, cwd=ROOT, script=RUN):
    done = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done


def result(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class ContractTest(unittest.TestCase):
    def check_run(self, workload, trace, seed=3):
        done = run(workload, seed, trace)
        self.assertEqual(done.returncode, 0, done.stdout[-3000:] + done.stderr[-3000:])
        out = result(done)
        self.assertEqual(sorted(out), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        self.assertIn("# host: ", done.stdout)
        self.assertIn("digest = ", done.stdout)
        defs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(out["metrics"]), [d["name"] for d in defs])
        gated = workload in [w["name"] for w in SPEC["workloads"]]
        for d in defs:
            self.assertEqual(out["metrics"][d["name"]]["unit"], d["unit"])
            if gated and not trace:
                self.assertGreater(out["metrics"][d["name"]]["value"], 0, d["name"])
        return out["metrics"]

    def test_fleet_day(self):
        self.check_run("fleet_day", 0)

    def test_serve_cold(self):
        self.check_run("serve_cold", 0)

    def test_serve_hot(self):
        # Not gated (README.md): its figures may read 0 on a noisy host,
        # but the contract and the output checks hold.
        self.check_run("serve_hot", 0)

    def test_traced_counts_repeat(self):
        for workload, names in EXACT.items():
            first = self.check_run(workload, 1, seed=5)
            second = self.check_run(workload, 1, seed=5)
            for name in names:
                self.assertGreater(first[name]["value"], 0, workload + " " + name)
                self.assertEqual(first[name]["value"], second[name]["value"],
                                 workload + " " + name)

    def test_traced_serve_hot(self):
        metrics = self.check_run("serve_hot", 1)
        self.assertGreater(metrics["serve.session.cache_hit_ratio"]["value"], 0.9)

    def test_refuses_without_program(self):
        # Only BENCHMARK.json and the benchmark directory: no result.
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = run("fleet_day", 1, 0, cwd=bare,
                       script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
