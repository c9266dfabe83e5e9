#!/usr/bin/env python3
"""Build the hostbench runner from source and run it.

Usage, from the repository root:

    python3 hostbench/run.py --workload table4-sweep --seed 2023 --seconds 15 --trace 0

Every argument is passed to the runner (see hostbench/README.md). The
runner is a Go module of its own (hostbench/go.mod) that imports the
simulator through a replace of the parent module, so it builds only next
to the repository's sources. The build, its Go caches and the traced
run's artifacts all stay under .bench_build/ at the repository root.
The script replaces itself with the runner once the build succeeds, so no
child process outlives it.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        # The go command writes telemetry under the user config dir.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "hostbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("hostbench: build failed", file=sys.stderr)
        sys.exit(1)
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
