#!/usr/bin/env python3
"""Self-test of the profile-request benchmark at reduced sizes.

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs every workload untraced and traced through perfbench/run.py
(ua-1m-cold at 200,000 frames, a few seconds each), night-paper-serial
included although BENCHMARK.json leaves it out, and asserts that:
  * each run exits 0, its checks pass, and its last line is the result;
  * every end-to-end metric (untraced) and per-layer metric (traced) prints
    with the unit BENCHMARK.json gives it, as a finite number;
  * the traced run's serial replay reproduces the untraced run's digest, and
    the kernel decorator changes neither the digest nor the model
    invocations;
  * unattributed_s stays under 10% of the width-1 profile wall on ua-1m-cold;
  * util.parallel_speedup is near 1 on night-paper-serial, which runs at
    width 1;
  * the warm workload makes no model invocations and runs no kernel frames.
Exits nonzero on the first failed assertion.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
SECONDS = 4


def run(workload, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace), "--reduced"]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    print(result.stdout, end="")
    assert result.returncode == 0, "%s trace=%d exited %d" % (workload, trace, result.returncode)
    line = json.loads(result.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_out",
                           "%s-seed%d-trace%d.json" % (workload, SEED, trace))) as f:
        details = json.load(f)
    return line, details


def check_metrics(line, specs, where):
    assert line["correct"] is True, where + ": correct is false"
    assert line["failed"] == 0 and line["attempted"] >= 1, where + ": operations failed"
    assert set(line["metrics"]) == {m["name"] for m in specs}, where + ": metric names differ"
    for spec in specs:
        metric = line["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], "%s: %s unit" % (where, spec["name"])
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), \
            "%s: %s value" % (where, spec["name"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in ("ua-1m-cold", "night-paper-serial", "ua-serve-warm"):
        plain, plain_details = run(workload, 0)
        check_metrics(plain, bench["end_to_end"], workload + " untraced")
        traced, traced_details = run(workload, 1)
        check_metrics(traced, bench["per_layer"], workload + " traced")
        for details in (plain_details, traced_details):
            assert all(details["checks"].values()), "%s: %s" % (workload, details["checks"])
        assert traced_details["replay_digest"] == plain_details["digest"], \
            workload + ": the replay does not reproduce the untraced digest"
        assert traced_details["checks"]["decorated and plain runs give the same digest"]
        extra = traced_details["extra"]
        assert extra["traced.model_invocations"]["value"] == \
            plain_details["extra"]["model_invocations"]["value"], \
            workload + ": the decorator changed model invocations"
        layers = traced["metrics"]
        if workload == "ua-1m-cold":
            wall = extra["replay.session_wall_s"]["value"]
            assert abs(layers["unattributed_s"]["value"]) < 0.1 * wall, \
                "unattributed %.3f s of a %.3f s width-1 profile" % (
                    layers["unattributed_s"]["value"], wall)
        if workload == "night-paper-serial":
            # Width 1: the pooled runs are serial too.
            speedup = layers["util.parallel_speedup"]["value"]
            assert 0.8 < speedup < 1.25, "width-1 parallel speedup %.3f" % speedup
        if workload == "ua-serve-warm":
            assert layers["model_invocations"]["value"] == 0
            assert layers["detect.kernel_frames"]["value"] == 0
        print("selftest %s: ok" % workload, flush=True)
    print("selftest: ok")


if __name__ == "__main__":
    main()
