#!/usr/bin/env python3
"""Steadiness check of the benchmark: runs each workload once per seed
and reports, for every end-to-end metric, the median and the spread
(distance between the first and third quartile as a share of the
median) against the bound BENCHMARK.json fixes for it.

    python3 perfbench/steady.py --workloads serve-revisions --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --compare .bench_build/perfbench/steady.json

A spread must stay below a third of its bound. Every check the engine
runs must repeat its counts exactly in every run, every run must be
correct, and with --compare every median must be within its bound of
the earlier set's median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("serve-revisions", "serve-revisions-bdd")


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "40", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    rows = [l for l in lines if l.startswith("row ")]
    return json.loads(lines[-1]), rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--compare", help="an earlier result file to compare medians with")
    ap.add_argument("--save", default=os.path.join(ROOT, ".bench_build", "perfbench", "steady.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    summary, problems = {}, []
    for w in args.workloads.split(","):
        values, row_sets = {}, set()
        for s in seeds(args.seeds):
            res, rows = run(w, s)
            print(f"{w} seed {s}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} check_s={res['metrics']['check_s']['value']:.3f}",
                  flush=True)
            if not res["correct"] or res["failed"]:
                problems.append(f"{w} seed {s}: correct={res['correct']} failed={res['failed']}")
            row_sets.add(tuple(rows))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        if len(row_sets) > 1:
            problems.append(f"{w}: check counts differ between runs")
        summary[w] = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            summary[w][name] = {"median": med, "spread": spread, "values": vs}
            flag = ""
            if spread > bound / 3:
                flag = "  <-- spread above a third of the bound"
                problems.append(f"{w} {name}: spread {spread:.3f} > {bound / 3:.3f}")
            if w in earlier and name in earlier[w]:
                before = earlier[w][name]["median"]
                worse = (med - before) / before if bounds[name]["better"] == "lower" \
                    else (before - med) / before
                flag += f"  vs earlier median {before:.4g} ({worse:+.3f})"
                if worse > bound:
                    problems.append(f"{w} {name}: median worse by {worse:.3f} > {bound}")
            print(f"  {name:<14} median {med:10.4f}  spread {spread:6.3f}  bound {bound}{flag}")
    os.makedirs(os.path.dirname(args.save), exist_ok=True)
    with open(args.save, "w") as f:
        json.dump(summary, f, indent=1)
    for p in problems:
        print("NOT STEADY:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
