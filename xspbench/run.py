#!/usr/bin/env python3
"""xspbench entry point: build the benchmark and the xsp libraries from
source, run one workload, and pass its result through.

    python3 xspbench/run.py --workload zoo_leveled --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to .bench_build/xspbench (a
no-op once built); run artifacts (the traced run's spans, the collector's
socket) go to .bench_build/out. The last line of standard output is the
result object; the exit status is 0 only when every output check passed.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "xspbench")
BINARY = os.path.join(BUILD, "xspbench")
RUN_TIMEOUT_S = 175


def build():
    """Configure (first time) and build; returns True on success."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "xspbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                break
        else:
            return True
    with open(log_path) as log:
        sys.stderr.write("xspbench: build failed:\n" + "".join(log.readlines()[-30:]))
    return False


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["zoo_leveled", "fleet_steady", "fleet_burst"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject", choices=["digest", "withhold"],
                        help="fault injection for the benchmark's own test")
    args = parser.parse_args(argv)

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(".bench_build", "out"),
           "--reference", os.path.join("xspbench", "reference", "zoo_digests.tsv")]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("xspbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
