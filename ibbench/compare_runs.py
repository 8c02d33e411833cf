#!/usr/bin/env python3
"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

  python3 ibbench/compare_runs.py A B

A is the baseline (parent commit), B the candidate. Each is a results.json
written by run_benchmark.py, one workload's record from build/bench-out, or
a directory of such files (one per run). With one run per side the
quartiles are those of its reps; with several runs they are the quartiles
of the runs' medians, the run-to-run spread. For every (workload,
end-to-end metric) pair it prints both medians and quartiles and a verdict:

  same        the medians differ by no more than the bound
  better      B's median beats A's by more than the bound
  worse       B's median trails A's by more than the bound
  unresolved  the quartile spread of either side is wider than the bound,
              so the data cannot tell a change of that size from noise

  exact       a simulated metric without a bound (accepted throughput,
              latencies, delivered fraction): checked below, not here

Result digests and the exact metrics must match between runs of equal
seed: a speed-only change leaves them unchanged.

Exits 1 on any "worse", a higher failed_frac, or a changed digest or
simulated metric at an equal seed.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def records(path):
    """Per-run, per-workload records found at `path`."""
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json")] if os.path.isdir(path) else [path])
    out = []
    for file in files:
        with open(file) as f:
            data = json.load(f)
        if "workloads" in data:
            out += [dict(w, workload=name)
                    for name, w in data["workloads"].items()]
        elif "workload" in data and not data.get("trace"):
            out.append(data)
    return out


def summary(recs, metric):
    """Median and quartiles of one metric over a side's runs."""
    ms = [r["metrics"][metric] for r in recs if metric in r["metrics"]]
    if len(ms) == 1:
        return ms[0]
    values = [m["value"] for m in ms]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3}


def spread(m):
    return (m["q3"] - m["q1"]) / abs(m["value"]) if m["value"] else 0.0


def verdict(a, b, bound, better):
    if a["value"] == b["value"]:
        return "same"
    change = (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 1.0
    if better == "higher":
        change = -change
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    side_a, side_b = records(sys.argv[1]), records(sys.argv[2])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    bad = False
    row = "{:<16} {:<17} {:>11} {:>23} {:>11} {:>23}  {}"
    print(row.format("workload", "metric", "A median", "A q1..q3", "B median",
                     "B q1..q3", "verdict"))
    for name in dict.fromkeys(r["workload"] for r in side_a):
        ra = [r for r in side_a if r["workload"] == name]
        rb = [r for r in side_b if r["workload"] == name]
        if not rb:
            print(row.format(name, "-", "", "", "", "", "missing in B"))
            bad = True
            continue
        for metric in ra[0]["metrics"]:
            if any(metric not in r["metrics"] for r in rb):
                continue
            ma, mb = summary(ra, metric), summary(rb, metric)
            if metric == "failed_frac":
                v = "worse" if mb["value"] > ma["value"] else "same"
            elif metric in bounds:
                spec = bounds[metric]
                v = verdict(ma, mb, spec["bound"], spec["better"])
            else:
                v = "exact"
            bad |= v == "worse"
            print(row.format(
                name, metric, "%.6g" % ma["value"],
                "%.6g..%.6g" % (ma["q1"], ma["q3"]), "%.6g" % mb["value"],
                "%.6g..%.6g" % (mb["q1"], mb["q3"]), v))
        # Exact checks between runs of equal seed.
        for x in ra:
            for y in (r for r in rb if r["seed"] == x["seed"]):
                changed = [m for m, v in x["metrics"].items()
                           if m not in bounds and m != "failed_frac"
                           and m in y["metrics"]
                           and y["metrics"][m]["value"] != v["value"]]
                if x["digest"] != y["digest"]:
                    changed.append("digest")
                if changed:
                    print(row.format(name, "seed %d" % x["seed"], "", "", "",
                                     "", "changed: " + ", ".join(changed)))
                    bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
