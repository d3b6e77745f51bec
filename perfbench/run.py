#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload vf-scale --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark. The Go build cache, the binary
and the traced run's Chrome trace all go under the build directory
($CARGO_TARGET_DIR, default .bench_build), so nothing is written outside
the checkout. Exits 2 without a result when the build fails, for example
when the simulator's sources are not beside the benchmark.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out_dir = os.path.join(build_dir, "perfbench")
    binary = os.path.join(out_dir, "perfbench")
    os.makedirs(out_dir, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOMODCACHE": os.path.join(build_dir, "gomodcache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=bench_dir, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run = subprocess.run([binary, *sys.argv[1:], "--out", out_dir], cwd=root)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
