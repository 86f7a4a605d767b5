#!/usr/bin/env python3
"""Builds the `deepod` CLI and the benchmark from source, then runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <live_slot|hot_od> --seed N \
        --seconds S --trace <0|1>

Both release builds go to $CARGO_TARGET_DIR (default `.bench_build`);
generated inputs are kept under `<target dir>/perfbench`. Build output
goes to stderr; the benchmark's last stdout line is its JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "deepod-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    bench = os.path.join(target, "release", "deepod-perfbench")
    args = [bench] + sys.argv[1:] + [
        "--deepod", os.path.join(target, "release", "deepod"),
        "--work", os.path.join(target, "perfbench"),
    ]
    sys.stdout.flush()
    os.execv(bench, args)


if __name__ == "__main__":
    main()
