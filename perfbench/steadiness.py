#!/usr/bin/env python3
"""Measure how steady the benchmark is: run each workload once per seed and
record, per end-to-end metric, the ten values, their median and their spread
(distance between the first and third quartile, as Python's
statistics.quantiles(n=4) gives them, as a share of the median).

Run from the repository root, one set of seeds at a time:

    python3 perfbench/steadiness.py --set A --seeds 1-10 --out perfbench/STEADINESS.json
    python3 perfbench/steadiness.py --set B --seeds 11-20 --out perfbench/STEADINESS.json

Each call replaces the workloads it ran in its own set (the whole set when
its seeds differ from the recorded ones) and keeps everything else. With
both sets present it prints, per metric, how far set B's median moved from
set A's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med)


def run_set(workloads, seeds, seconds, bounds):
    result = {}
    for wl in workloads:
        values = {}
        runs = []
        for seed in seeds:
            t0 = time.time()
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            line = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            out = json.loads(line)
            runs.append({"seed": seed, "exit": p.returncode, "wall_s": round(time.time() - t0, 1),
                         "correct": out.get("correct"), "attempted": out.get("attempted"),
                         "failed": out.get("failed")})
            print(wl, runs[-1], file=sys.stderr, flush=True)
            for name, m in out.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
        table = {}
        for name, vals in values.items():
            med, q1, q3, sp = spread(vals)
            table[name] = {"median": med, "q1": q1, "q3": q3, "spread": round(sp, 4),
                           "bound": bounds.get(name), "values": vals}
            flag = ""
            if bounds.get(name) and name != "setup_s" and sp > bounds[name]:
                flag = "  ABOVE ITS BOUND"
            elif bounds.get(name) and name != "setup_s" and sp > bounds[name] / 3:
                flag = "  above a third of its bound"
            print("%-8s %-28s median %14.6g  spread %.4f%s" % (wl, name, med, sp, flag), flush=True)
        result[wl] = {"runs": runs, "metrics": table}
    return result


def main():
    bench = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--set", required=True, choices=["A", "B"])
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", required=True, help="the JSON record to update")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    record["how"] = (
        "python3 perfbench/steadiness.py --set A|B --seeds ...; one run per seed per workload; "
        "spread = (q3 - q1) / median over the set's runs, quartiles as Python's "
        "statistics.quantiles(n=4) gives them; shift = set B median / set A median - 1")
    record["seconds"] = args.seconds
    key = "set_" + args.set.lower()
    kept = record.get(key, {})
    workloads = kept.get("workloads", {}) if kept.get("seeds") == args.seeds else {}
    workloads.update(run_set(args.workloads.split(","), parse_seeds(args.seeds),
                             args.seconds, bounds))
    record[key] = {"seeds": args.seeds, "workloads": workloads}
    if "set_a" in record and "set_b" in record:
        shift = {}
        a, b = record["set_a"]["workloads"], record["set_b"]["workloads"]
        for wl in sorted(set(a) & set(b)):
            for name, m in a[wl]["metrics"].items():
                if name in b[wl]["metrics"] and m["median"]:
                    s = b[wl]["metrics"][name]["median"] / m["median"] - 1
                    shift.setdefault(wl, {})[name] = round(s, 4)
                    print("shift %-8s %-28s %+.4f" % (wl, name, s))
        record["shift_b_vs_a"] = shift
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
