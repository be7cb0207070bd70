#!/usr/bin/env python3
"""Steadiness and comparison tool for the repo benchmark.

    # N runs per workload, each with its own seed; prints every metric's
    # median, quartiles and spread against its bound, and saves the values.
    python3 perfbench/tool.py steady --workload churn-drip --runs 10 --out a.json

    # Join two saved sets by workload and metric: median change as a share
    # of the first set's median, against the metric's bound.
    python3 perfbench/tool.py compare a.json b.json

Run from the repository root. The spread is (q3 - q1) / median, with the
quartiles from statistics.quantiles(values, n=4). `steady` exits 1 when a
spread exceeds its bound; `compare` exits 1 when a
metric got worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def steady(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    saved = {}
    worst_ok = True
    for w in workloads:
        values = {}
        for i in range(args.runs):
            result = run_once(w, args.seed0 + i, seconds, 0)
            if not result["correct"]:
                print(f"{w} seed {args.seed0 + i}: result not correct", flush=True)
                worst_ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {args.seed0 + i}: " + " ".join(
                f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()),
                file=sys.stderr, flush=True)
        saved[w] = values
        print(f"\n{w} ({args.runs} runs of {seconds} s)")
        print(f"  {'metric':20s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for name, vals in values.items():
            med, q1, q3, s = spread(vals)
            bound = bounds[name]
            if s <= bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                worst_ok = False
            print(f"  {name:20s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{s:8.4f} {bound:6.3f}  {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if worst_ok else 1


def compare(args):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    ok = True
    print(f"{'workload':18s} {'metric':20s} {'first':>14s} {'second':>14s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for w in sorted(set(a) & set(b)):
        for name in sorted(set(a[w]) & set(b[w])):
            ma = statistics.median(a[w][name])
            mb = statistics.median(b[w][name])
            change = (mb - ma) / ma if ma else float("inf")
            m = metrics.get(name)
            if m is None:
                continue
            worse = change if m["better"] == "lower" else -change
            if worse > m["bound"]:
                verdict = "WORSE"
                ok = False
            elif worse < -m["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{w:18s} {name:20s} {ma:14.6g} {mb:14.6g} {change:8.4f} "
                  f"{m['bound']:6.3f}  {verdict}")
    for w in sorted(set(a) ^ set(b)):
        print(f"{w:18s} only in {'first' if w in a else 'second'} set")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("steady", help="N runs per workload, spread vs bound")
    s.add_argument("--workload", action="append",
                   help="repeatable; default: every workload")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--seed0", type=int, default=1, help="first seed")
    s.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    s.add_argument("--out", help="save the values here for `compare`")
    c = sub.add_parser("compare", help="join two saved sets")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    sys.exit(steady(args) if args.cmd == "steady" else compare(args))


if __name__ == "__main__":
    main()
