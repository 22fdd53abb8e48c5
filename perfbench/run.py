#!/usr/bin/env python3
"""Profile-request benchmark: build, run one workload, print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload ua-1m-cold --seed 1 --seconds 45 --trace 0

Builds the `perfbench` binary with CMake (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, or .bench_build when unset, then runs the workload in a
process of its own. The warm workload's start-up checkpoint is written first
by a separate process, so its memory and time stay out of the measured one.
The last line of standard output is the result as one JSON object; the exit
code is nonzero when the build, the run or any answer check fails.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ua-1m-cold", "night-paper-serial", "ua-serve-warm")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# A run must end within 180 s; the first one in a checkout may take 900 s,
# because it builds.
RUN_LIMIT_S = 175
BUILD_RUN_LIMIT_S = 880


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns True if it compiled."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the smokescreen sources (src/) are not in this checkout")
        sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    result = subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                            check=True, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    sys.stderr.write(result.stdout)
    return "Building CXX" in result.stdout or "Linking CXX" in result.stdout


def run(command, timeout):
    """Runs the binary, forwarding stderr; returns (exit code, stdout)."""
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                                timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (command[1:], timeout))
        sys.exit(3)
    return result.returncode, result.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="self-test sizes: ua-1m-cold at 200,000 frames")
    args = parser.parse_args()

    start = time.monotonic()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        compiled = build(build_dir)
    except subprocess.CalledProcessError as error:
        log("perfbench: build failed: %s" % error)
        sys.exit(2)
    deadline = start + (BUILD_RUN_LIMIT_S if compiled else RUN_LIMIT_S)

    binary = os.path.join(build_dir, "perfbench")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out-dir", OUT_DIR]
    if args.reduced:
        common.append("--reduced")
    try:
        if args.workload == "ua-serve-warm":
            code, _ = run([binary, "--prepare-store"] + common, deadline - time.monotonic())
            if code != 0:
                log("perfbench: writing the warm checkpoint failed")
                sys.exit(code)
        code, stdout = run([binary, "--seconds", repr(args.seconds), "--trace", str(args.trace)]
                           + common, deadline - time.monotonic())
    finally:
        # Checkpoints are rewritten by every run; do not let them pile up.
        for path in glob.glob(os.path.join(OUT_DIR, "*.smkc")):
            os.remove(path)

    sys.stdout.write(stdout)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log("perfbench: the run printed no result line")
        sys.exit(code or 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
