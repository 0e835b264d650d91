#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark crate (perfbench/) builds
against the workspace crates under crates/ by path, into
$CARGO_TARGET_DIR (default: .bench_build at the root). Build output goes
to stderr; the benchmark's stdout is passed through, so its last line is
the result object. The exit code is the benchmark's (non-zero when an
output check failed or the build could not run).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# Crates the benchmark links; their absence means this is not a full
# source tree and there is nothing to build.
REQUIRED = ["ell-hash", "ell-sim", "ell-store", "exaloglog"]
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    args = sys.argv[1:]
    for crate in REQUIRED:
        if not os.path.isfile(os.path.join(ROOT, "crates", crate, "Cargo.toml")):
            fail(f"crates/{crate} not found under {ROOT}: run from a full source tree")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed with code {build.returncode}")
    binary = os.path.join(target, "release", "ell-perfbench")
    work = os.path.join(target, "perfbench-work")
    try:
        run = subprocess.run(
            [binary, *args, "--work-dir", work], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
