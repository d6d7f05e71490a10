#!/usr/bin/env python3
"""Build and run the RoCC simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository. The script builds the
benchmark package in perfbench/ (release profile, offline) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs it. Cargo's
output goes to standard error; standard output carries the benchmark's
provenance and summary lines and, last, its one-line JSON result. The exit
code is non-zero, and no result is printed, when the checkout lacks the
simulator's sources, the build fails, or the benchmark refuses to measure.
See perfbench/WORKLOADS.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fattree_websearch", "fattree_fbhadoop", "fig11_dumbbell")
# Sources the benchmark builds against; without them there is nothing to measure.
REQUIRED = ("Cargo.toml", "crates/experiments/Cargo.toml", "crates/sim/Cargo.toml")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: not a checkout of the simulator (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    rustc = subprocess.run(["rustc", "-V"], cwd=ROOT, env=env, capture_output=True, text=True)
    exe = os.path.join(target, "release", "rocc-perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rustc", rustc.stdout.strip() or "unknown",
           "--state-dir", os.path.join(target, "perfbench-state")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
