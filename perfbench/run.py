#!/usr/bin/env python3
"""Build and run the QuickSand benchmark from the root of a source tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe and the host reference perfbench/reference.exe
with dune (output on stderr, no shared cache, so nothing is written outside
the tree) and replaces this process with main.exe.
The last line of stdout is the benchmark's JSON result; see README.md.
Exits non-zero without a result when the tree holds no QuickSand sources
or the build fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SOURCES = ("dune-project", os.path.join("lib", "core", "measurement.ml"))


def main():
    missing = [p for p in SOURCES if not os.path.isfile(p)]
    if missing:
        print("perfbench: run from the root of a QuickSand source tree "
              "(missing %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "--display", "quiet", "./perfbench/main.exe",
         "./perfbench/reference.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
