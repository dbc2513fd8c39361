#!/usr/bin/env python3
"""Builds the smartred benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload dca_paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (and the program libraries
from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
the variable is unset; later runs only rebuild what changed. The last line
of standard output is the result object described in perfbench/README.md.
The exit code is 0 only when the build succeeded and every output check
passed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configures on first use, then builds the benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources under " + os.path.join(ROOT, "src"), 2)
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        # One build at a time per build directory.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build step failed: %s" % error, 3)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step), 3)
    binary = os.path.join(out_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no binary", 3)
    return binary


def git_rev():
    """The checkout's git revision, or "none" outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    rev = done.stdout.strip()
    return rev if done.returncode == 0 and rev else "none"


def source_digest():
    """Hash of every program and benchmark source file, by path and bytes."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as source:
                    digest.update(source.read())
    return digest.hexdigest()[:16]


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as spec:
        benchmark = json.load(spec)
    key = "per_layer" if trace else "end_to_end"
    return [metric["name"] for metric in benchmark[key]]


def run_binary(command):
    try:
        return subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S, 5)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    out_dir = build_dir()
    binary = build(out_dir)
    if args.self_test:
        done = run_binary([binary, "--self-test"])
        sys.stdout.write(done.stdout)
        sys.exit(done.returncode)

    done = run_binary([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--rev", git_rev(), "--digest", source_digest(),
        "--spans-dir", os.path.join(out_dir, "spans")])
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail("benchmark exited with code %d" % done.returncode,
             done.returncode or 4)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail("last output line is not a JSON result", 4)
    if set(result) != RESULT_KEYS:
        fail("result keys %s differ from %s" % (sorted(result),
                                                sorted(RESULT_KEYS)), 4)
    expected = declared_metrics(args.trace == 1)
    if expected is not None and list(result["metrics"]) != expected:
        fail("metrics %s differ from BENCHMARK.json %s" %
             (list(result["metrics"]), expected), 4)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
