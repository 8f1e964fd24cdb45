#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and prints, for every
end-to-end metric, its median and its spread: the distance between the
first and third quartile as a share of the median, computed the way the
bounds in BENCHMARK.json are meant to be checked. Run from the repository
root after one build (bash perfbench/run.sh ... builds .bench_build/perfbench):

    python3 perfbench/spread.py --seeds 10 [--workload serve-read] [--first-seed 1]
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--binary", default=".bench_build/perfbench")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for wl in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [args.binary, "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            try:
                res = json.loads(last)
            except json.JSONDecodeError:
                res = None
            if p.returncode != 0 or not res or not res["correct"]:
                ok = False
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stdout[-2000:]}\n{p.stderr[-2000:]}")
                continue
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{n}={res['metrics'][n]['value']:.6g}" for n in values), flush=True)
        for m in spec["end_to_end"]:
            vs = values[m["name"]]
            if len(vs) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = "ok" if spread < m["bound"] / 3 else ("WITHIN BOUND" if spread <= m["bound"] else "OVER BOUND")
            print(f"{wl:12s} {m['name']:18s} median {q2:14.6g} {m['unit']:6s} spread {spread:7.2%} "
                  f"bound {m['bound']:.0%} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
