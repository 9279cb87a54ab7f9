#!/usr/bin/env python3
"""Collect, summarize and compare perfbench result sets.

A result set is a directory with one file per run, named
<workload>.trace<T>.seed<S>.txt, holding that run's standard output.

    # run every workload with seeds 1..10 into results/parent
    python3 perfbench/compare.py collect --out results/parent --runs 10
    # median, quartiles and spread of each end-to-end metric
    python3 perfbench/compare.py spread results/parent
    # both medians and quartiles per workload and metric, with flags
    python3 perfbench/compare.py compare results/parent results/change

Spreads are the distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, as a share of the
median. compare flags a metric REGRESSION when the second set's median
is worse than the first's by more than the metric's bound in
BENCHMARK.json, "improved" when better by more than the bound, and
"unresolved" when either set's spread exceeds the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load(directory, trace=0):
    """Return {workload: {metric: [values]}} from a result set."""
    out = {}
    for name in sorted(os.listdir(directory)):
        parts = name.split(".")
        if len(parts) != 4 or parts[1] != "trace%d" % trace or parts[3] != "txt":
            continue
        with open(os.path.join(directory, name)) as f:
            lines = f.read().strip().splitlines()
        if not lines:
            continue
        try:
            res = json.loads(lines[-1])
        except ValueError:
            continue
        w = out.setdefault(parts[0], {})
        for metric, v in res.get("metrics", {}).items():
            w.setdefault(metric, []).append(v["value"])
        w.setdefault("_failed", []).append(res.get("failed", 0))
    return out


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def collect(args):
    os.makedirs(args.out, exist_ok=True)
    bench = spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = str(args.seconds or bench["run_seconds"])
    for seed in range(args.seed0, args.seed0 + args.runs):
        for w in names:
            path = os.path.join(args.out, "%s.trace%d.seed%d.txt" % (w, args.trace, seed))
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                       "--seconds", seconds, "--trace", str(args.trace)]
            t0 = time.time()
            with open(path, "w") as f:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=f).returncode
            print("%s seed %d: exit %d in %.1f s" % (w, seed, rc, time.time() - t0), flush=True)
    summarize(args.out, args.trace)


def summarize(directory, trace=0):
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    for w, metrics in sorted(load(directory, trace).items()):
        print("== %s (%d runs, %d failed ops)" % (w, len(metrics["_failed"]), sum(metrics["_failed"])))
        for metric, values in sorted(metrics.items()):
            if metric.startswith("_"):
                continue
            med, q1, q3, spread = stats(values)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            print("  %-30s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.1f%%  bound %s  %s" % (
                metric, med, q1, q3, spread * 100, "-" if bound is None else "%g" % bound, flag))


def compare(args):
    ends = {m["name"]: m for m in spec()["end_to_end"]}
    old, new = load(args.old, args.trace), load(args.new, args.trace)
    for w in sorted(set(old) | set(new)):
        print("== %s" % w)
        for metric in sorted(set(old.get(w, {})) | set(new.get(w, {}))):
            if metric.startswith("_") or metric not in old.get(w, {}) or metric not in new.get(w, {}):
                continue
            mo, q1o, q3o, so = stats(old[w][metric])
            mn, q1n, q3n, sn = stats(new[w][metric])
            m = ends.get(metric)
            flag = ""
            if m is not None:
                worse = (mn - mo) / mo if m["better"] == "lower" else (mo - mn) / mo
                if so > m["bound"] or sn > m["bound"]:
                    flag = "unresolved (spread above bound %g)" % m["bound"]
                elif worse > m["bound"]:
                    flag = "REGRESSION %.1f%% worse (bound %g)" % (worse * 100, m["bound"])
                elif -worse > m["bound"]:
                    flag = "improved %.1f%%" % (-worse * 100)
                else:
                    flag = "same within bound %g (%+.1f%% worse)" % (m["bound"], worse * 100)
            print("  %-30s old %-11.6g [%-11.6g %-11.6g]  new %-11.6g [%-11.6g %-11.6g]  %s" % (
                metric, mo, q1o, q3o, mn, q1n, q3n, flag))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run workloads over consecutive seeds into a result set")
    c.add_argument("--out", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--seed0", type=int, default=1)
    c.add_argument("--workloads", default="")
    c.add_argument("--seconds", type=int, default=0, help="default: run_seconds from BENCHMARK.json")
    c.add_argument("--trace", type=int, default=0)
    s = sub.add_parser("spread", help="median, quartiles and spread of one result set")
    s.add_argument("dir")
    s.add_argument("--trace", type=int, default=0)
    d = sub.add_parser("compare", help="compare two result sets")
    d.add_argument("old")
    d.add_argument("new")
    d.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    if args.cmd == "collect":
        collect(args)
    elif args.cmd == "spread":
        summarize(args.dir, args.trace)
    else:
        compare(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
