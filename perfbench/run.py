#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the harness and `sptc` from source into .bench_build/, runs the
workload for about S seconds in whole rounds, checks every operation's
output, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off; with --trace 1 the same rounds run traced and
the metrics are the per-layer ones (the traced run's end-to-end figures
come on the line before).  --overhead runs the workload untraced and then
traced and prints the difference.  --corrupt spoils one reference so that
the checks must fail (perfbench/selftest.py uses it).

Every run works in a fresh directory under .bench_build/tmp (artifact
cache, profile database, generated programs) and removes it afterwards.
Worker counts are set explicitly, and SPT_* and OCAMLRUNPARAM are removed
from the children's environment.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import serve_client  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
DUNE_BUILD = os.path.join(BUILD, "dune")
HARNESS = os.path.join(DUNE_BUILD, "default", "perfbench", "harness", "harness.exe")
SPTC = os.path.join(DUNE_BUILD, "default", "bin", "sptc.exe")
WORKLOADS = ("compile-cold", "spec-run", "serve-mixed")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def child_env(tmp):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SPT_") and k != "OCAMLRUNPARAM"}
    # anything that falls back to a default cache directory lands in tmp
    env["XDG_CACHE_HOME"] = os.path.join(tmp, "xdg-cache")
    env["TMPDIR"] = tmp
    return env


def build():
    """Build the harness and sptc from this checkout's sources."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        log("run from the root of a checkout of the repository "
            "(dune-project, lib/ and bin/ are missing here)")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    cmd = dune + ["build", "--root", ".", "--build-dir", DUNE_BUILD,
           "--cache=disabled", "--display=quiet", "--profile=release",
           "./perfbench/harness/harness.exe", "./bin/sptc.exe"]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        log("build failed")
        sys.exit(2)


def spec_inputs(env):
    """spec-run's compiled programs and references, made once per harness
    binary: compiling the ten programs is compile-cold's subject, and far
    too slow to repeat in every run's set-up."""
    with open(HARNESS, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(BUILD, "spec-inputs-%s.bin" % digest)
    if not os.path.exists(path):
        for old in os.listdir(BUILD):
            if old.startswith("spec-inputs-"):
                os.remove(os.path.join(BUILD, old))
        log("compiling the suite for spec-run (once per build)")
        r = subprocess.run([HARNESS, "precompile", path], env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("precompile failed")
            sys.exit(2)
    return path


def run_harness(args, env, extra):
    cmd = [HARNESS, args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace)] + extra
    if args.corrupt:
        cmd.append("--corrupt")
    r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log("harness exited with %d" % r.returncode)
        sys.exit(1)
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_line(spec, res, trace):
    """The final line: every end-to-end metric (untraced) or every
    per-layer metric (traced).  A per-layer metric of a layer the workload
    does not exercise reads 0."""
    if trace:
        names = spec["per_layer"]
        values = res["per_layer"]
    else:
        names = spec["end_to_end"]
        values = res["end_to_end"]
        missing = [m["name"] for m in names if m["name"] not in values]
        if missing:
            log("workload did not measure " + ", ".join(missing))
            sys.exit(1)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in names}
    return {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics}


def run_once(args, spec):
    tmp_root = os.path.join(BUILD, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        env = child_env(tmp)
        if args.workload == "compile-cold":
            return run_harness(args, env, [])
        if args.workload == "spec-run":
            return run_harness(args, env, ["--inputs", spec_inputs(env)])
        return serve_client.run(args, env=env, tmp=tmp, sptc=SPTC,
                                harness=HARNESS)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="spoil one reference; the run must report a failure")
    p.add_argument("--overhead", action="store_true",
                   help="run untraced, then traced, and print the difference")
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    build()

    if args.overhead:
        args.trace = 0
        plain = run_once(args, spec)
        args.trace = 1
        traced = run_once(args, spec)
        rows = {}
        for m in spec["end_to_end"]:
            a = plain["end_to_end"][m["name"]]
            b = traced["end_to_end"][m["name"]]
            rows[m["name"]] = {"untraced": a, "traced": b,
                               "overhead": (b - a) / a if a else 0.0,
                               "unit": m["unit"]}
            log("%-14s untraced %12.4f  traced %12.4f  %+7.1f%%"
                % (m["name"], a, b, 100.0 * rows[m["name"]]["overhead"]))
        print(json.dumps({"tracing_overhead": rows}))
        sys.exit(0 if plain["correct"] and traced["correct"] else 1)

    res = run_once(args, spec)
    if args.trace:
        # the traced run's own end-to-end figures, for the overhead
        print(json.dumps({"traced_end_to_end": res["end_to_end"]}))
        for m in spec["per_layer"]:
            log("%-34s %16.6f %s" % (m["name"],
                                      res["per_layer"].get(m["name"], 0.0),
                                      m["unit"]))
    line = result_line(spec, res, args.trace)
    print(json.dumps(line), flush=True)
    sys.exit(0 if line["correct"] else 1)


if __name__ == "__main__":
    main()
