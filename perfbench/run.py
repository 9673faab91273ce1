#!/usr/bin/env python3
"""Build the benchmark harness from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness is a Cargo package of its own
(perfbench/harness) that builds against the repository's crates by path;
it honours CARGO_TARGET_DIR. Every argument is passed to the harness,
whose last line of standard output is the JSON result. Per-run records
and Chrome traces go to perfbench/out/. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")


def main() -> int:
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: harness build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "harness", "target")
    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run([exe, *sys.argv[1:], "--out", os.path.join(HERE, "out")], check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
