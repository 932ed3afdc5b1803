#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark crate (perfbench/) is built in release mode with cargo,
offline, into $CARGO_TARGET_DIR (default: .bench_build). The harness'
standard output is passed through unchanged; its last line is the JSON
result. Build failures exit non-zero without printing a result.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "perfbench"
    run = subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT, env=env, timeout=900)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
