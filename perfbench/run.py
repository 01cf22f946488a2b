#!/usr/bin/env python3
"""Builds the Blaze benchmark from source, then runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Works from any directory: paths resolve against the repository root, the
parent of this file's directory. The build goes to $CARGO_TARGET_DIR when
set, else perfbench/target. Cargo's output goes to standard error, so the
last line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    manifest = os.path.join("perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        timeout=900,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    exe = os.path.join(target, "release", "blaze-perfbench")
    sys.stdout.flush()
    # Replace this process, so the benchmark is the one process to stop.
    os.execv(exe, [exe] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
