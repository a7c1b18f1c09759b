#!/usr/bin/env python3
"""Run the benchmark's workloads over several seeds and print each metric's
spread against its bound.

    python3 perfbench/steady.py [--runs N] [--first-seed S]
                                [--workloads a,b] [--trace]
                                [--save FILE] [--against FILE]

Run from the root of a checkout. For every workload in BENCHMARK.json (or
the ones named), the benchmark command runs N times with seeds S..S+N-1.
For each end-to-end metric the script prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and the spread against the metric's bound: "steady"
below a third of the bound, "within" below the bound, "OVER" otherwise.
setup_s's spread is printed but not judged: set-up time is judged by its
median only, against another set's. Every run must fail no request. With
--trace the runs are traced and the per-layer metrics are printed as
medians and quartiles, with no bounds.

--save writes the medians to FILE as JSON; --against reads medians saved
by an earlier set and judges each end-to-end median against it: "OVER"
when it is worse than the earlier one by more than the metric's bound.

It exits 1 when a run fails, a check fails, a request fails, an
end-to-end spread is over its bound, or a median is over its bound
against the earlier set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None, wall
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--save", default="")
    ap.add_argument("--against", default="")
    opts = ap.parse_args()
    earlier = {}
    if opts.against:
        with open(opts.against) as f:
            earlier = json.load(f)
    medians = {}

    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    trace = 1 if opts.trace else 0
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    ok = True
    for name in names:
        values = {m["name"]: [] for m in wanted}
        shares, walls = set(), []
        for i in range(opts.runs):
            seed = opts.first_seed + i
            res, wall = run_once(bench["command"], name, seed,
                                 bench["run_seconds"], trace)
            walls.append(wall)
            if res is None or not res["correct"]:
                print(f"{name} seed {seed}: run failed")
                ok = False
                continue
            shares.add(res["failed"] / res["attempted"])
            if res["failed"]:
                print(f"{name} seed {seed}: {res['failed']} of {res['attempted']} requests failed")
                ok = False
            for m in wanted:
                values[m["name"]].append(res["metrics"][m["name"]]["value"])
        print(f"\n{name}: {opts.runs} runs, wall {min(walls):.1f}-{max(walls):.1f}s, "
              f"failed shares {sorted(shares)}")
        if len(shares) > 1:
            ok = False
        medians[name] = {}
        for m in wanted:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            medians[name][m["name"]] = med
            spread = (q3 - q1) / med if med else float("inf")
            line = (f"  {m['name']:<34} median {med:12.5g} q1 {q1:12.5g} q3 {q3:12.5g} "
                    f"{m['unit']:<9}")
            if "bound" in m:
                bound = m["bound"]
                verdict = "steady" if spread < bound / 3 else "within" if spread <= bound else "OVER"
                if m["name"] == "setup_s":
                    verdict = "(median only)"
                elif verdict == "OVER":
                    ok = False
                line += f" spread {spread:7.4f} bound {bound:5.3f} {verdict}"
                before = earlier.get(name, {}).get(m["name"])
                if before:
                    worse = (med - before) / before
                    if m["better"] == "higher":
                        worse = -worse
                    ok = ok and worse <= bound
                    line += f" vs earlier {worse:+7.4f} {'OVER' if worse > bound else 'ok'}"
            print(line)
    if opts.save:
        with open(opts.save, "w") as f:
            json.dump(medians, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
