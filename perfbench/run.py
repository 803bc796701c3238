#!/usr/bin/env python3
"""Builds and runs the HiFIND end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Builds the benchmark package (perfbench/Cargo.toml) in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then runs
it with the given arguments, under the glibc malloc settings below. The
benchmark's standard output is passed through; its last line is the JSON
result. Spans of traced runs are written under <target dir>/perfbench/.
Exits non-zero if the build fails, the run fails its correctness checks,
or the run does not finish in time.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175

# Every replay builds a fresh system, whose first intervals would
# page-fault its sketch and forecast state in: a cost a long-running
# deployment pays once at start-up, and one whose size swung by a third
# from run to run on a 2-vCPU VM. A fixed mmap threshold and no trimming
# let each new system reuse the memory its predecessor faulted in.
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=17179869184"


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target, PERFBENCH_GIT_COMMIT=git_commit())
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--self-check" not in args:
        args += ["--out-dir", os.path.join(target, "perfbench")]
    exe = os.path.join(target, "release", "hifind-perfbench")
    try:
        run = subprocess.run(
            [exe] + args,
            env=dict(env, GLIBC_TUNABLES=MALLOC_TUNABLES),
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
