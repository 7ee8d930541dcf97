#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py        (from the root of a checkout)

For every workload, on the default and on the held-out seed, with tracing
off and on, it checks that the run exits 0 with {"correct": true, ...} as its
last line, and that it prints exactly the metrics BENCHMARK.json declares for
that mode (end_to_end with --trace 0, per_layer with --trace 1), each with its
declared unit.  Traced runs must also report the same simulated cycles per
job for the instrumented loop as for the untraced one (wide_fu: unrolled
Coprocessor::call against Coprocessor::call; tiny_stream: single-thread
replay against the Farm; hpcc: its exchange loop with spans on and off).  Finally it checks that the benchmark refuses to run with FPGAFU_KERNEL
set.  Exits nonzero on the first failure.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = 0.3


def check(ok, what):
    if not ok:
        print(f"smoke: FAIL: {what}", file=sys.stderr)
        sys.exit(1)


def main():
    with open(os.path.join(run.HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    binary = run.build()
    for workload in run.WORKLOADS:
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            for trace in (0, 1):
                label = f"{workload} seed={seed} trace={trace}"
                code, lines = run.run(binary, workload, seed, SECONDS, trace,
                                      smoke=True)
                check(code == 0 and lines, f"{label}: exit code {code}")
                result = json.loads(lines[-1])
                check(sorted(result) == ["attempted", "correct", "failed",
                                         "metrics"],
                      f"{label}: result keys {sorted(result)}")
                check(result["correct"] is True and result["failed"] == 0 and
                      result["attempted"] >= 1,
                      f"{label}: not correct: {lines[-1]}")
                metrics = result["metrics"]
                check(set(metrics) == set(declared[trace]),
                      f"{label}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ set(declared[trace]))}")
                for name, m in metrics.items():
                    check(m["unit"] == declared[trace][name] and
                          isinstance(m["value"], (int, float)),
                          f"{label}: {name} = {m}")
                if trace:
                    check(metrics["trace.traced_cycles_per_job"]["value"] ==
                          metrics["trace.untraced_cycles_per_job"]["value"],
                          f"{label}: traced loop cycles/job differ from the "
                          "untraced run's")
                print(f"smoke: ok {label}")

    env = dict(os.environ, FPGAFU_KERNEL="event")
    proc = subprocess.run([binary, "--workload", "hpcc", "--seconds", "0.1",
                           "--trace", "0", "--smoke"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=60)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "ran with FPGAFU_KERNEL set")
    print("smoke: ok FPGAFU_KERNEL refused")


if __name__ == "__main__":
    main()
