#!/usr/bin/env python3
"""Steadiness check: runs each workload with several seeds and prints,
per metric, the median, the quartiles and the spread (IQR / median) next
to the metric's bound in BENCHMARK.json. Every end-to-end metric a run
measures is listed; those without a bound are not in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--trace 0]
                                [--workloads count,serve] [--out FILE]

Run it from the repository root. Each run measures for BENCHMARK.json's
run_seconds. With --out, every raw result is also appended to FILE as
JSON lines.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    kind = "end_to_end" if args.trace == "0" else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    out = open(args.out, "a") if args.out else None

    worst = 0.0
    for w in names:
        rows, shares = [], set()
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", args.trace]
            t0 = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - t0
            if p.returncode != 0:
                sys.stderr.write(p.stderr[-3000:])
                sys.exit(f"{w} seed {seed}: exit {p.returncode}")
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res["measured"] = json.loads(lines[-2])["measured"]
            shares.add(res["failed"] / res["attempted"])
            rows.append(res)
            if out:
                out.write(json.dumps({"workload": w, "seed": seed, "wall_s": wall, **res}) + "\n")
                out.flush()
            print(f"{w} seed {seed}: {wall:.1f} s, correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)
        print(f"\n{w}: {len(rows)} runs, failed shares seen: {sorted(shares)}")
        print(f"  {'metric':32s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        listed = list(bounds) + sorted(set(rows[0]["measured"]) - set(bounds))
        for name in listed:
            vals = [r["measured"][name]["value"] for r in rows if name in r["measured"]]
            if len(vals) < 2:
                print(f"  {name:32s} missing")
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            b = bounds.get(name)
            flag = ""
            if b is not None:
                worst = max(worst, spread / b)
                if spread > b / 3:
                    flag = "  <-- above bound/3"
            print(f"  {name:32s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
                  f"{'' if b is None else b:>6}{flag}")
    print(f"\nlargest spread of a bounded metric, as a share of its bound: {worst:.3f}")


if __name__ == "__main__":
    main()
