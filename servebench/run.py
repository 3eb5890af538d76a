#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark.

Run from the root of a checkout:

  python3 servebench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>
  python3 servebench/run.py --selftest

The first form builds the benchmark and the repository's libraries from
source into .bench_build/servebench (incrementally after the first time),
then runs one workload. The last line of standard output is the result as
one JSON object; build output goes to standard error. The second form runs
the benchmark's self-tests and a short smoke run of every workload in both
trace modes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
WORKLOADS = ("warm_fresh", "churn_budget", "concurrent_rw")


def build():
    """Configures and builds both executables; exits non-zero on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) and \
            shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", BUILD, "-j", jobs, "--target",
                 "servebench", "servebench_selftest"]):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if proc.returncode != 0:
            sys.stderr.write("servebench: build failed: %s\n" % " ".join(cmd))
            sys.exit(proc.returncode or 1)


def exe(name):
    return os.path.join(BUILD, name)


def run_workload(args):
    spans_dir = os.path.join(ROOT, ".bench_build", "spans")
    cmd = [exe("servebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, args.workload + ".tsv")]
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


def selftest():
    failed = 0
    if subprocess.run([exe("servebench_selftest")], check=False).returncode:
        failed += 1
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [exe("servebench"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            ok = proc.returncode == 0 and bool(lines)
            if ok:
                try:
                    result = json.loads(lines[-1])
                    ok = result["correct"] is True and result["attempted"] > 0
                except (ValueError, KeyError):
                    ok = False
            print("smoke %-14s trace %d  %s" % (workload, trace,
                                                "ok" if ok else "FAILED"))
            if not ok:
                sys.stdout.write(proc.stdout)
                failed += 1
    print("selftest: %s" % ("passed" if failed == 0 else
                            "%d failure(s)" % failed))
    return 0 if failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.selftest:
        return selftest()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
