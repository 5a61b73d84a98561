#!/usr/bin/env python3
"""Build and run the monityre server benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload query-hot --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (release, offline, into `$CARGO_TARGET_DIR`
or `perfbench/target`), then runs one workload. The benchmark's own
stdout is passed through: its last line is the JSON result object, the
line before it the full report. Scratch files live under the target
directory and are removed when the run ends; traced runs leave their
span file in `<target>/perfbench/traces/`. Exits non-zero, printing no
result, if the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if configured:
        return os.path.abspath(configured)
    return os.path.join(HERE, "target")


def main():
    target = target_dir()
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--target-dir", target,
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    work_dir = os.path.join(target, "perfbench", "run-%d" % os.getpid())
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:] + ["--work-dir", work_dir])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
