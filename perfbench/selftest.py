#!/usr/bin/env python3
"""The benchmark's own test.  Run from the root of a checkout:

    python3 perfbench/selftest.py [--workload NAME ...]

For each workload it makes one traced run at minimal length, which must
pass every check and print every metric of BENCHMARK.json, and one run
with a reference deliberately corrupted (--corrupt), which must report a
failed operation and exit non-zero.  spec-run is included although it is
not in BENCHMARK.json.  Takes about three minutes.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ("compile-cold", "serve-mixed", "spec-run")


def run(workload, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1"] + list(extra)
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = r.stdout.strip().splitlines()
    return r.returncode, [json.loads(l) for l in lines]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    workloads = p.parse_args().workload or WORKLOADS
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []

    def expect(what, ok):
        print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            problems.append(what)

    for w in workloads:
        code, out = run(w, "--trace", "1")
        last = out[-1] if out else {}
        expect("%s traced: exit 0" % w, code == 0)
        expect("%s traced: correct, nothing failed" % w,
               last.get("correct") is True and last.get("failed") == 0
               and last.get("attempted", 0) >= 1)
        expect("%s traced: every per-layer metric" % w,
               set(last.get("metrics", {}))
               == {m["name"] for m in spec["per_layer"]})
        traced_e2e = out[0].get("traced_end_to_end", {}) if out else {}
        expect("%s traced: every end-to-end metric, none 0" % w,
               all(traced_e2e.get(m["name"], 0) > 0 for m in spec["end_to_end"]))

        code, out = run(w, "--trace", "0", "--corrupt")
        last = out[-1] if out else {}
        expect("%s corrupted reference: exit non-zero" % w, code != 0)
        expect("%s corrupted reference: a failed operation reported" % w,
               last.get("correct") is False and last.get("failed", 0) >= 1)

    if problems:
        print("%d problem(s)" % len(problems))
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
