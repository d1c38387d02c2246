#!/usr/bin/env python3
"""End-to-end QSPR benchmark: build, then run one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload greedy --seed 1 --seconds 40 --trace 0

Builds `qspr` (the CLI whose `serve` subcommand the benchmark drives)
and the benchmark binary from source in release mode, then runs the
benchmark. Build output goes to standard error; the benchmark's last
standard-output line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports end-to-end
metrics, `--trace 1` per-layer metrics. The exit code is the
benchmark's: 0 when every output check passed, non-zero otherwise.

Build artefacts go to `$CARGO_TARGET_DIR` (default `.bench_build`),
span dumps of traced runs to `perfbench/out/`.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["greedy", "negotiated"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: no QSPR sources next to perfbench/ (crates/core missing)",
              file=sys.stderr)
        return 2

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "qspr", "--bin", "qspr"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        # Keep stdout for the result line only.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    bench = os.path.join(target, "release", "perfbench")
    cmd = [
        bench,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--qspr", os.path.join(target, "release", "qspr"),
        "--ledger", os.path.join(HERE, "ledger.json"),
        "--out", os.path.join(HERE, "out"),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
