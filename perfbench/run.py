#!/usr/bin/env python3
"""Builds and runs the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <churn|alert|zones> --seed <n> \
        --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) that
depends on the repository's crates by path, so it builds the program from
source; CARGO_TARGET_DIR (default .bench_build) holds the build. The run
prints a provenance line, the benchmark's metric and report lines, and
last the result object. The exit code is the benchmark's: 0 when every
response was correct, non-zero otherwise or when anything failed (then
no result line is printed).
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def command_output(cmd):
    try:
        return subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def provenance(args):
    commit = command_output(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)"
    return {
        "commit": commit,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "sla_simd": os.environ.get("SLA_SIMD", "auto (unset)"),
        "rustc": command_output(["rustc", "--version"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["churn", "alert", "zones"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    print("provenance " + json.dumps(provenance(args)), flush=True)
    binary = os.path.join(target, "release", "perfbench")
    # Its own session, so a timeout can stop the server processes it
    # started along with it.
    run = subprocess.Popen(
        [
            binary, "run",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        cwd=ROOT,
        env=env,
        start_new_session=True,
    )
    try:
        return run.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
