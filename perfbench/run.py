#!/usr/bin/env python3
"""The repository benchmark: builds xoridx and the harness from source,
runs one workload (or all of them) and prints every metric.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to .bench_build/.
With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics of a separate traced run, each with its
unit and sample count. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is 0 when
every simulated output matched its reference, 1 when one did not, and 2
when the benchmark could not run (no sources, a failed build, a metric
it refused to report).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ["table2-campaign", "stream-resim", "serve-mix"]
RUN_LIMIT_S = 170  # every run must end within 180 s of its start


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configure once, then bring the harness and the CLI up to date."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no xoridx sources in %s (run from the root of a checkout)" % ROOT)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j2", "--target",
                  "perfbench_harness", "xoridx_cli"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(step))


def run_workload(name, seed, seconds, trace):
    """One harness run; returns its parsed result and its text lines."""
    work = os.path.join(BUILD_ROOT, "work-%d-%s" % (os.getpid(), name))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_harness"),
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--cli", os.path.join(BUILD, "xoridx", "xoridx_cli"),
           "--work-dir", work,
           "--reference-dir", os.path.join(HERE, "reference"),
           "--trace-out", os.path.join(traces, "%s-seed%d.json" % (name, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (name, RUN_LIMIT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s: harness exited with %d" % (name, proc.returncode))
    return json.loads(lines[-1]), lines[:-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else [args.workload]
    build()

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace)
        for line in lines:
            print(line)
        print("host: " + json.dumps(result["host"], sort_keys=True))
        print("seed: %d" % args.seed)
        print("note: the cache model is unvalidated against hardware; outputs "
              "are checked against recorded or independently recomputed "
              "simulator results only, so no model-error figure is given")
        got = result["metrics"]
        missing = [m["name"] for m in wanted if m["name"] not in got]
        if missing:
            fail("%s did not report %s" % (name, ", ".join(missing)))
        for m in wanted:
            value = got[m["name"]]
            if value["unit"] != m["unit"]:
                fail("%s: %s reported in %s, expected %s"
                     % (name, m["name"], value["unit"], m["unit"]))
            key = m["name"] if len(names) == 1 else name + "/" + m["name"]
            metrics[key] = {"value": value["value"], "unit": value["unit"]}
            print("%s %s = %.6g %s (samples=%d)"
                  % (name, m["name"], value["value"], value["unit"],
                     value["samples"]))
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
