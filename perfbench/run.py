#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Run from the repository root, for example:

    python3 perfbench/run.py --workload mesh-clean --seed 1 --seconds 20 --trace 0

The Go build cache and the binary live under .bench_build/ in the
repository, so the benchmark reads and writes nothing outside it. The
arguments are passed to the binary unchanged; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main() -> int:
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        # The go command's telemetry counters live under the user config
        # directory; keep them inside the build directory too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        CGO_ENABLED="0",
    )
    exe = os.path.join(BUILD, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    # Replace this process, so no wrapper outlives or outwaits the run.
    os.execve(exe, [exe] + sys.argv[1:], env)
    return 1


if __name__ == "__main__":
    sys.exit(main())
