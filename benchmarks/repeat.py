"""Repeat mode: every workload N times in fresh processes, then median and quartiles.

    python3 benchmarks/repeat.py --runs 10 [--out FILE]

Run i uses seed i for every workload in BENCHMARK.json, untraced, for the
run_seconds given there.  Workloads run one at a time, in the listed order on
even runs and in reverse on odd runs, so drift on the machine does not fall on
one workload.  For each metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median next to
the metric's bound in BENCHMARK.json.  --out writes every run's result with
the environment stamp as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds):
    """One untraced benchmark process; returns (environment stamp, result) or raises on a bad run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return env, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid if mid else float("nan")}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    chosen = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in chosen}
    env = None
    for i in range(args.runs):
        for w in chosen if i % 2 == 0 else chosen[::-1]:
            env, result = run_once(w, i, bench["run_seconds"])
            results[w].append({"seed": i, **result})
            print(f"run {i} {w}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)

    print("env " + json.dumps(env, sort_keys=True))
    summary = {}
    for w in chosen:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, failed shares {shares}")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        summary[w] = {}
        for metric, first in runs[0]["metrics"].items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            summary[w][metric] = stats
            bound = bounds.get(metric)
            print(f"  {metric:40s} {stats['median']:12.6g} {stats['q1']:12.6g} {stats['q3']:12.6g} "
                  f"{stats['spread']:8.4f} {'' if bound is None else bound:>6} {first['unit']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"env": env, "args": vars(args), "summary": summary, "runs": results}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
