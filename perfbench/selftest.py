#!/usr/bin/env python3
"""Checks of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Every workload prints exactly the metric names of BENCHMARK.json, each
   with its unit, untraced and traced; a second seed prints the same
   names, and the seed is recorded in the output.
2. The tail-percentile guard refuses a p95 with fewer than 10 samples
   beyond it (serve-mix and the campaign workloads use it).
3. A deliberately altered reference makes a run report failures, so the
   output check can fail.
4. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Takes about four minutes. Exit code 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
WORKLOADS = ["table2-campaign", "stream-resim", "serve-mix"]

failures = []


def check(ok, what):
    print("%s: %s" % ("ok" if ok else "FAILED", what), flush=True)
    if not ok:
        failures.append(what)


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def last_json(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_names():
    end_to_end, per_layer = metric_names()
    for workload in WORKLOADS:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            rc, lines = bench(workload, 1, trace)
            result = last_json(lines)
            label = "%s --trace %d" % (workload, trace)
            check(rc == 0 and result is not None and result["correct"],
                  label + " runs and its outputs match the reference")
            if result is None:
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted,
                  label + " prints exactly the BENCHMARK.json names and units")
            check(all(any(line.startswith("%s %s = " % (workload, name))
                          and "samples=" in line for line in lines)
                      for name in wanted),
                  label + " prints each metric with its unit and sample count")
    rc, lines = bench("stream-resim", 2, 0)
    result = last_json(lines)
    check(rc == 0 and result is not None
          and set(result["metrics"]) == set(end_to_end),
          "a second seed runs end to end with the same metric names")
    check("seed: 2" in lines, "the seed is recorded in the output")


def check_percentile_guard():
    rc = subprocess.call(["cmake", "--build", BUILD, "--target",
                          "perfbench_percentile_guard"],
                         stdout=subprocess.DEVNULL)
    check(rc == 0, "the percentile-guard check builds")
    if rc == 0:
        rc = subprocess.call([os.path.join(BUILD,
                                           "perfbench_percentile_guard")])
        check(rc == 0, "p95 is refused with fewer than 10 samples beyond it")


def check_altered_reference():
    altered = os.path.join(SCRATCH, "reference")
    shutil.rmtree(altered, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "reference"), altered)
    for workload in ("table2-campaign", "serve-mix"):
        path = os.path.join(altered, workload + ".csv")
        with open(path) as f:
            rows = f.read().splitlines()
        # One more miss on one optimize row: a one-count difference.
        for i, row in enumerate(rows):
            fields = row.split(",")
            if len(fields) > 7 and fields[4] == "optimize":
                fields[7] = str(int(fields[7]) + 1)
                rows[i] = ",".join(fields)
                break
        with open(path, "w") as f:
            f.write("\n".join(rows) + "\n")
        work = os.path.join(SCRATCH, "work")
        os.makedirs(work, exist_ok=True)
        proc = subprocess.run(
            [os.path.join(BUILD, "perfbench_harness"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "0",
             "--cli", os.path.join(BUILD, "xoridx", "xoridx_cli"),
             "--work-dir", work, "--reference-dir", altered],
            stdout=subprocess.PIPE, text=True)
        result = last_json(proc.stdout.splitlines())
        check(result is not None and result["failed"] > 0,
              "an altered %s reference makes the run report failures"
              % workload)


def check_bare_directory():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = bench("stream-resim", 1, 0, cwd=bare)
    check(rc != 0 and last_json(lines) is None,
          "without the sources it exits non-zero and prints no result")


def main():
    check_names()
    check_percentile_guard()
    check_altered_reference()
    check_bare_directory()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
