#!/usr/bin/env python3
"""Run topobench over several seeds and report each metric's spread.

    python3 topobench/spread.py --workloads daemon-cold,daemon-warm --seeds 1-10 [--trace 0] [--out runs.json]

For every workload and metric it prints the median over the runs and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of that median. With --out it writes the same summary, every
run's values and the environment of the first run as JSON (the format of
topobench/baseline.json). Run it from the root of a topocon checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "topobench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return {"seed": seed, "info": json.loads(lines[-2])["topobench"], "result": json.loads(lines[-1])}


def summarize(runs):
    """Per-metric median and quartile spread over runs of one workload."""
    metrics = {}
    for name in sorted(runs[0]["result"]["metrics"]):
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        spread = None
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
        metrics[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": med,
                         "iqr_share": spread, "values": values}
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    return {
        "seeds": [r["seed"] for r in runs],
        "correct": all(r["result"]["correct"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted if attempted else None,
        "samples": [r["info"].get("samples") for r in runs],
        "stream": [r["info"]["stream"] for r in runs if "stream" in r["info"]][:1],
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    out = {"seconds": args.seconds, "trace": args.trace, "env": None, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds, args.trace)
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} samples={run['info'].get('samples')}", file=sys.stderr)
            runs.append(run)
        out["env"] = out["env"] or runs[0]["info"]["env"]
        summary = summarize(runs)
        out["workloads"][workload] = summary
        print(f"{workload}: {len(runs)} runs, fail_share {summary['fail_share']}")
        print(f"  {'metric':28} {'median':>14} {'iqr/median':>11}  unit")
        for name, m in summary["metrics"].items():
            spread = "n/a" if m["iqr_share"] is None else f"{m['iqr_share']:.4f}"
            print(f"  {name:28} {m['median']:14.6g} {spread:>11}  {m['unit']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
