"""Record reference.json: the outputs of every pool entry at this commit.

Run from the repository root; it takes about five minutes on two cores:

    PYTHONPATH=src:perfbench OPENBLAS_NUM_THREADS=1 \\
        python3 perfbench/record_reference.py

Re-record only in a change that is meant to alter the outputs (for example
a fix to the simulation design), never to make a failing check pass.
"""

from __future__ import annotations

import json
import os

import numpy as np

import inputs
import workloads


def _round(value):
    """Twelve significant digits: far inside every tolerance, half the text."""
    if isinstance(value, list):
        return [_round(v) for v in value]
    return float(f"{value:.12g}") if isinstance(value, float) else value


def kernel_reference() -> dict:
    beta = np.array(inputs.KERNEL_BETA)
    return {key: _round(np.atleast_1d(fn(dataset, R, beta)).tolist())
            for key, fn, dataset, R in workloads.kernel_cases()}


def record(smoke: bool, kernel: dict) -> dict:
    out = {"kernel": kernel}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(smoke)
        out[name] = {}
        for entry in range(workloads.POOL):
            groups = w.run(w.prepare(entry))
            out[name][str(entry)] = [_round(value) for _, value in groups]
            print(name, "smoke" if smoke else "full", entry, flush=True)
    return out


def main() -> None:
    os.makedirs(workloads.WORK, exist_ok=True)
    kernel = kernel_reference()
    reference = {"pool": workloads.POOL,
                 "smoke": record(True, kernel),
                 "full": record(False, kernel)}
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
