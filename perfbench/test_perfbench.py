#!/usr/bin/env python3
"""The benchmark's own test.  Run from the root of a source checkout:

    python3 perfbench/test_perfbench.py

Asserts that
  - the same seed gives the identical op sequence and identical
    deterministic counts of the single-threaded replay (rows, response
    bytes, WAL appends, plan-cache hits and misses, minor words), in two
    separate processes;
  - a different seed gives a different sequence on every workload;
  - BENCHMARK.json lists exactly the per-layer metrics the program
    emits, with the same units and directions.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def program(exes, *args):
    server, bench = exes
    out = subprocess.run([bench, *args, "--server", server], check=True,
                         stdout=subprocess.PIPE, text=True,
                         env=run.env_for(os.getcwd())).stdout
    return [l for l in out.splitlines() if not l.startswith("machine:")]


def counts(exes, seed):
    table = {}
    for line in program(exes, "counts", "--seed", str(seed)):
        key, _, value = line.partition(" ")
        if "." in key:  # "<workload>.<count> <value>"; other lines are notes
            table[key] = value
    return table


def main():
    exes = run.build(os.getcwd())
    assert exes, "build failed"
    failures = []

    a1, a2, b = counts(exes, 11), counts(exes, 11), counts(exes, 12)
    for key in ("rows", "response_bytes", "wal_appends", "plan_cache_hits",
                "plan_cache_misses", "minor_words"):
        if not any(k.endswith("." + key) for k in a1):
            failures.append("counts lack %s" % key)
    if a1 != a2:
        diff = {k: (a1.get(k), a2.get(k)) for k in set(a1) | set(a2)
                if a1.get(k) != a2.get(k)}
        failures.append("same seed, different counts: %s" % diff)
    for w in ("report", "oltp", "publish"):
        if a1[w + ".sequence"] == b[w + ".sequence"]:
            failures.append("%s: seeds 11 and 12 give the same sequence" % w)

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    emitted = [tuple(l.split("\t")[:3]) for l in program(exes, "layers")]
    if declared != emitted:
        failures.append("BENCHMARK.json per_layer differs from the program: "
                        "%s" % sorted(set(declared) ^ set(emitted)))

    for f in failures:
        print("FAIL", f)
    print("%d checks failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
