"""clogitrep benchmark: one workload (or all four) per command.

    python3 perfbench/run.py --workload highR-fit --seed 3 --seconds 20 \\
        --trace 0

Run from the repository root.  With --trace 0 it measures set-up time
(fresh interpreters importing clogitrep.cli) and then runs the workload in
a child process with BLAS pinned to one thread; the workload's time is
divided by the slowdown that the speed probe (speed.py) sees during it,
and the raw rate is printed as well.  With --trace 1 the child
runs one traced round of every workload and the kernel sweep instead.
The last line of standard output is the JSON result; the exit code is 0
only if every output matched the recorded reference.  --smoke runs one
tiny round; --perturb-reference shifts every reference value so that all
checks must fail.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("mc-study", "highR-fit", "wide-design", "asymptotics")
SETUP_REPEATS = 5
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict, timeout: float) -> float:
    """Median wall time of a fresh interpreter importing clogitrep.cli.

    One untimed run first, so that every timed one finds the byte-code
    cache the way a user's second command does.  Not normalized: the
    speed probe does not follow import time (see README.md).
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import clogitrep.cli"],
                       env=env, cwd=ROOT, check=True, timeout=timeout)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_child(args, workload: str, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: child exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="clogitrep benchmark")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--perturb-reference", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "clogitrep", "__init__.py")):
        print(f"error: no clogitrep sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()

    def remaining():
        return DEADLINE_S - (time.perf_counter() - start)

    try:
        metrics, raw = {}, {}
        if not args.trace:
            metrics["setup_s"] = {"value": setup_seconds(env, remaining()),
                                  "unit": "s"}
        # the traced child covers every workload, so one run is enough
        names = (WORKLOADS if args.workload == "all" and not args.trace
                 else (args.workload,))
        attempted = failed = 0
        for name in names:
            res = run_child(args, name, env, remaining())
            attempted += res["attempted"]
            failed += res["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            for key, metric in res["metrics"].items():
                metrics[prefix + key] = metric
            for key, metric in res["raw"].items():
                raw[prefix + key] = metric
            print(f"{name}: {res['attempted']} items, {res['failed']} failed,"
                  f" failed_frac {res['failed'] / res['attempted']:.4g}")
            print("environment: " + json.dumps(res["environment"]))
    except (subprocess.SubprocessError, RuntimeError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, metric in list(metrics.items()) + list(raw.items()):
        print(f"  {key:<40} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
