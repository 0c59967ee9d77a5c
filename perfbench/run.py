#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale <f>] [--plant-wrong-count]

Run from the root of a checkout. The first run configures and builds the
aecnc library and the benchmark program (perfbench/CMakeLists.txt) under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. The program's report is passed through, followed by one line per
metric and, last, one JSON object with the keys correct, attempted, failed
and metrics; the metrics are checked against and ordered by BENCHMARK.json.
A traced run (--trace 1) also writes its spans as Chrome trace-event JSON
under the build directory.
Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("count-skewed", "count-uniform", "serve-mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_root):
    """Configure (once) and build the benchmark program; return its path."""
    build_dir = os.path.join(build_root, "perfbench")
    log_path = os.path.join(build_root, "perfbench-build.log")
    os.makedirs(build_root, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "aecnc_perfbench", "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, cwd=ROOT, stdout=log,
                               stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "aecnc_perfbench")


def canonical(line, trace):
    """The program's result line with its metrics checked against, ordered
    by and zero-filled from BENCHMARK.json (end_to_end, or per_layer for
    a traced run, where a layer the workload never runs reads 0)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last output line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are " + ", ".join(sorted(result)))
    if result["attempted"] < 1:
        fail("no op was attempted")
    units = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    for name, metric in got.items():
        if units.get(name) != metric["unit"]:
            fail("metric %s %s is not in BENCHMARK.json"
                 % (name, metric["unit"]))
        if not math.isfinite(metric["value"]):
            fail("metric %s is not a finite number" % name)
    metrics = {}
    for name, unit in units.items():
        if name not in got and not trace:
            fail("the workload did not report " + name)
        value = got[name]["value"] if name in got else 0.0
        metrics[name] = {"value": value, "unit": unit}
    result["metrics"] = metrics
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="graph size multiplier (smoke tests)")
    ap.add_argument("--plant-wrong-count", action="store_true",
                    help="corrupt one count to exercise the checks")
    args = ap.parse_args()

    build_root = os.path.join(ROOT,
                              os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(build_root)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale)]
    if args.plant_wrong_count:
        cmd.append("--plant-wrong-count")
    if args.trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]

    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail("aecnc_perfbench exited with code %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = canonical(lines[-1], bool(args.trace))
    for name, metric in result["metrics"].items():
        lines.insert(-1, "%-28s %.9g %s" % (name, metric["value"],
                                            metric["unit"]))
    lines[-1] = json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
