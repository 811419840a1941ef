#!/usr/bin/env python3
"""Build and run the repository benchmark from the repository root.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

The benchmark is the Go program in this directory, a module of its own
that imports the repository's packages from the checkout (see go.mod).
It is built from source on every call; the Go build cache, temporary
files and the binary all live under .bench_build/ in the checkout, and
no module is downloaded. The program's last line of standard output is
the JSON result; its exit code is passed through.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod next to perfbench/; run from a repository checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
