#!/usr/bin/env python3
"""Build and run the coprocessor-stack benchmark.

    python3 perfbench/run.py --workload <tiny_stream|hpcc|wide_fu> \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The benchmark binary is built from source
(Release) under $CARGO_TARGET_DIR, or .bench_build when that is unset.  Build
output goes to stderr; stdout carries a context line and, last, the result
object {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
only when every job's output matched its oracle.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tiny_stream", "hpcc", "wide_fu")
# Seed 1 is the one the benchmark was sized and tuned on; 20100419 was never
# used while writing it, and is the held-out seed a performance claim must
# also hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20100419
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build the benchmark; return the binary's path."""
    if os.environ.get("FPGAFU_KERNEL"):
        fail("FPGAFU_KERNEL is set; the benchmark measures the default "
             "settle kernel only")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run(binary, workload, seed, seconds, trace, smoke=False):
    """Run one workload; return (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be > 0")

    binary = build()
    code, lines = run(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
