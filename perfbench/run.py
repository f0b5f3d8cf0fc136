#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the engine from src/) into .bench_build/; later
calls only rebuild what changed. The perfbench binary prints summary lines
and, as its last line, one JSON object with the run's correctness and
metrics; this script checks that the metric names and units are exactly the
ones BENCHMARK.json declares for the mode, then prints that output.
It exits non-zero, without a result line, when the build fails, the binary
fails or times out, or the metrics do not match. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
# The binary itself stops measuring after --seconds; this only guards
# against a hang.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def configured_for_this_tree():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return os.path.realpath(line.split("=", 1)[1].strip()) == \
                    os.path.realpath(HERE)
    return False


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    if not configured_for_this_tree():
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", BUILD_JOBS]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args):
    if not build("perfbench"):
        return 1
    os.makedirs(TRACE_DIR, exist_ok=True)
    work_dir = os.path.join(WORK_DIR, "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--trace-out", os.path.join(
               TRACE_DIR, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log("perfbench exited with code %d" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError) as e:
        log("last line is not a result: %s" % e)
        return 1
    want = expected_metrics(args.trace == 1)
    if got != want:
        log("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        return 1
    print("\n".join(lines), flush=True)
    return 0


def run_selftest():
    if not build("perfbench_selftest"):
        return 1
    work_dir = os.path.join(ROOT, ".bench_build", "selftest")
    try:
        return subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_selftest"), work_dir],
            cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["train_cached", "train_cold", "serve_mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return run_selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
