#!/usr/bin/env python3
"""Per-layer diff of two benchmark results: each metric's base value, new
value and delta, so a change shows in the layer where it happens.

    python3 perfbench/diff.py BASE NEW [--exact]

BASE and NEW are saved outputs of perfbench/run.py (the last line is the
JSON result; traced runs, --trace 1, give the per-layer metrics). With
--exact, every allocation, GC count and work counter must be identical:
they repeat bit for bit between two runs of one seed at jobs = 1, so any
difference there is nondeterminism. Times (unit s, ms or us, and x for
wall_ref, a time over the host reference's time) and heap high-water
marks (*heap_mb, which move with when major cycles end) are exempt.
Exits 1 on such a difference.
"""

import json
import sys

TIME_UNITS = {"s", "us", "ms", "x"}


def must_repeat(name, unit):
    return unit not in TIME_UNITS and not name.endswith("heap_mb")


def load(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.startswith("{")]
    if not lines:
        sys.exit("%s: no result line" % path)
    return json.loads(lines[-1])


def main(argv):
    exact = "--exact" in argv
    paths = [a for a in argv if a != "--exact"]
    if len(paths) != 2:
        sys.exit(__doc__)
    base, new = load(paths[0]), load(paths[1])
    for r, p in ((base, paths[0]), (new, paths[1])):
        if not r.get("correct"):
            sys.exit("%s: result is not correct" % p)
    bm, nm = base["metrics"], new["metrics"]
    mismatches = []
    print("%-30s %16s %16s %14s %8s" % ("metric", "base", "new", "delta", "%"))
    for name in sorted(set(bm) | set(nm)):
        if name not in bm or name not in nm:
            print("%-30s only in %s" % (name, "base" if name in bm else "new"))
            mismatches.append(name)
            continue
        b, n, unit = bm[name]["value"], nm[name]["value"], bm[name]["unit"]
        if b == 0 and n == 0:
            continue  # a layer neither run exercised
        d = n - b
        pct = "%+.1f" % (100.0 * d / b) if b else ("0.0" if d == 0 else "new")
        flag = ""
        if exact and must_repeat(name, unit) and d != 0:
            flag = "  NOT EXACT"
            mismatches.append(name)
        print("%-30s %16.6g %16.6g %+14.6g %8s %s%s" % (
            name, b, n, d, pct, unit, flag))
    if exact:
        print("exact: %s" % ("identical" if not mismatches
                             else "%d metric(s) differ" % len(mismatches)))
        return 1 if mismatches else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
