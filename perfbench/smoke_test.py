#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, at a tiny graph scale.

    python3 perfbench/smoke_test.py

Run from the root of a checkout (the first run builds the program). Checks
that every workload emits every metric name with its unit in both modes,
that a planted wrong count shows up as a failed op, that the traced run's
spans nest, and that the observability runtime being requested makes the
benchmark refuse to time.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("count-skewed", "count-uniform", "serve-mixed")
SEED = 5


def run(workload, trace, *extra, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "0.3", "--trace",
           str(trace), "--scale", "0.02", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=300)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError("run failed: " + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().split("\n")[-1])


def spec(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class Smoke(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    proc = run(w, trace)
                    res = result_of(proc)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, spec(section))
                    for name, unit in spec(section).items():
                        # The human-readable report names each metric too.
                        self.assertRegex(proc.stdout, r"(?m)^%s\s+\S+ %s$"
                                         % (re.escape(name), re.escape(unit)))
                    if trace == 0:
                        self.assertEqual(
                            res["metrics"]["ok_ratio"]["value"], 1.0)

    def test_planted_wrong_count_is_a_failed_op(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = result_of(run(w, 0, "--plant-wrong-count"))
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], 1)
                self.assertLess(res["metrics"]["ok_ratio"]["value"], 1.0)
                self.assertAlmostEqual(
                    res["metrics"]["ok_ratio"]["value"],
                    1.0 - res["failed"] / res["attempted"])

    def test_traced_spans_nest(self):
        build_root = os.path.join(
            ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result_of(run(w, 1))
                path = os.path.join(build_root, "traces",
                                    "%s-seed%d.json" % (w, SEED))
                with open(path) as f:
                    trace = json.load(f)
                self.assertEqual(trace["otherData"]["seed"], SEED)
                events = trace["traceEvents"]
                self.assertGreater(len(events), 0)
                by_id = {e["args"]["id"]: e for e in events}
                children = 0
                for e in events:
                    parent = e["args"]["parent"]
                    if parent < 0:
                        continue
                    children += 1
                    p = by_id[parent]
                    self.assertEqual(e["args"]["op"], p["args"]["op"])
                    self.assertGreaterEqual(e["ts"], p["ts"] - 2e-3)
                    self.assertLessEqual(e["ts"] + e["dur"],
                                         p["ts"] + p["dur"] + 2e-3)
                self.assertGreater(children, 0)

    def test_refuses_the_observed_configuration(self):
        env = dict(os.environ, AECNC_OBS="1")
        proc = run("count-uniform", 0, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
