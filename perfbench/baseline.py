"""Run the benchmark on several seeds and summarize each metric's spread.

    python3 perfbench/baseline.py --seeds 10 --seconds 20 \\
        --workloads mc-study,highR-fit,wide-design,asymptotics \\
        --out perfbench/baseline.json

For every workload and end-to-end metric it records the values, the
median and the quartiles (statistics.quantiles, n=4), and the spread
(third minus first quartile, as a share of the median), for the
normalized metrics of the JSON result and for the raw ones run.py prints.  With --traced it
also makes one traced run and stores its per-layer metrics.  Each run's
environment is stored with it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line.split(": ", 1)[1]) for line in lines
               if line.startswith("environment: "))
    result = json.loads(lines[-1])
    result["environment"] = env
    for line in lines:
        parts = line.split()
        if parts and parts[0].startswith("raw_"):
            result["metrics"][parts[0]] = {"value": float(parts[1]),
                                           "unit": parts[2]}
    result["exit_code"] = proc.returncode
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workloads",
                        default="mc-study,highR-fit,wide-design,asymptotics")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run(workload, seed, args.seconds, 0))
            r = runs[-1]
            print(workload, seed, r["exit_code"], r["failed"],
                  {k: round(v["value"], 4) for k, v in r["metrics"].items()},
                  flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"]
                                    for r in runs])
                   for name in runs[0]["metrics"]}
        for name, s in metrics.items():
            print(f"  {workload} {name}: median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
        report["workloads"][workload] = {
            "metrics": metrics,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "environments": [r["environment"] for r in runs],
        }
    if args.traced:
        traced = run("all", args.first_seed, args.seconds, 1)
        report["traced"] = traced
        print("traced run: exit", traced["exit_code"], "failed",
              traced["failed"], flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
