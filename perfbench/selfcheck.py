"""Check that the benchmark's correctness gate works, in under a minute.

    python3 perfbench/selfcheck.py

1. The smoke run of all four workloads passes with failed_frac 0.
2. The same run against a perturbed reference reports failed_frac 1 for
   every workload and exits non-zero.
3. A copy of the benchmark without the package sources exits non-zero and
   prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE = ["--workload", "all", "--seed", "0", "--seconds", "0", "--smoke"]


def bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


def main() -> int:
    problems = []

    code, result = bench(SMOKE)
    if code != 0 or not result or result["failed"] != 0:
        problems.append(f"smoke run: exit {code}, result {result}")

    code, result = bench(SMOKE + ["--perturb-reference"])
    if code == 0 or not result or result["failed"] != result["attempted"]:
        problems.append(f"perturbed reference: exit {code}, result {result}")

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        code, result = bench(["--workload", "highR-fit", "--seed", "0",
                              "--seconds", "1"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        problems.append(f"without sources: exit {code}, result {result}")

    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
