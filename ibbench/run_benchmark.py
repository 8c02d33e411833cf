#!/usr/bin/env python3
"""Build the simulator in Release mode and run the end-to-end benchmark.

Run from the repository root:

  python3 ibbench/run_benchmark.py                      # all four workloads
  python3 ibbench/run_benchmark.py --trace 1            # ... plus the traced pass
  python3 ibbench/run_benchmark.py --workload par-ft864 --seed 3 --trace 0
  python3 ibbench/run_benchmark.py --record-reference 0-31

Each workload runs in its own process (ibbench) for --seconds, by default
run_seconds from BENCHMARK.json. With --workload the last line of stdout is
that process's JSON verdict. Without it, every workload runs in turn, the
end-to-end tables are printed, and the per-workload records are merged into
build/bench-out/results.json. Either way the exit code is non-zero when any
rep failed its checks.

--record-reference rewrites ibbench/reference_digests.txt from the current
sources. Only a change to the benchmark itself may do that.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ibbench")
OUT = os.path.join(ROOT, "build", "bench-out")
REFERENCE = os.path.join(HERE, "reference_digests.txt")
BINARY = os.path.join(BUILD, "ibbench")
WORKLOADS = ["paper-sat-irr64", "plan-df2048", "par-ft864", "faults-irr256"]


def build():
    """Configure and build ibbench; build output goes to stderr."""
    steps = [["cmake", "--build", BUILD, "-j", str(min(os.cpu_count() or 1, 4))]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run_benchmark: build failed")


def run_workload(name, seed, seconds, trace):
    """One workload in its own process; returns its exit code."""
    cmd = [BINARY, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", OUT, "--reference", REFERENCE]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


def run_all(seed, seconds, trace):
    results = {"seed": seed, "seconds": seconds, "cores": os.cpu_count(),
               "workloads": {}}
    status = 0
    for name in WORKLOADS:
        passes = [0, 1] if trace else [0]
        for traced in passes:
            path = os.path.join(
                OUT, name + (".trace-metrics.json" if traced else ".json"))
            if os.path.exists(path):
                os.remove(path)
            if run_workload(name, seed, seconds, traced) != 0:
                status = 1
            if not os.path.exists(path):
                continue
            with open(path) as f:
                record = json.load(f)
            entry = results["workloads"].setdefault(name, {})
            if traced:
                entry["per_layer"] = record["metrics"]
                entry["shards_digest"] = record.get("shards_digest")
            else:
                entry.update(record)
    path = os.path.join(OUT, "results.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    print("wrote " + os.path.relpath(path, ROOT)
          + ("" if status == 0 else " (some reps FAILED)"))
    return status


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record_reference(seeds):
    lines = ["# <workload> <seed> <FNV-1a digest of one rep's SimResults>",
             "# Written by run_benchmark.py --record-reference; rewrite only",
             "# in a change to the benchmark itself."]
    for name in WORKLOADS:
        for seed in seeds:
            out = subprocess.run([BINARY, "--digest", name, "--seed", str(seed)],
                                 capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit("run_benchmark: " + out.stderr.strip())
            lines.append(out.stdout.strip())
            print(lines[-1], flush=True)
    with open(REFERENCE, "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


def run_seconds():
    """The run length BENCHMARK.json fixes for every run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run_seconds())
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-reference", metavar="LO-HI")
    args = ap.parse_args()

    os.chdir(ROOT)
    build()
    os.makedirs(OUT, exist_ok=True)
    if args.record_reference:
        return record_reference(seed_range(args.record_reference))
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    return run_all(args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
